//! The differential strategy-matrix oracle.
//!
//! Grammar-based random query generation over the paper's RST schema,
//! covering every rewrite family (disjunctive/conjunctive linking,
//! type-A and type-JA nesting, disjunctive correlation, DISTINCT
//! aggregates, `EXISTS`/`IN`/`ANY`/`ALL`, tree queries, select-list
//! subqueries) on NULL-heavy random instances with duplicate rows.
//! Since PR 4 the grammar also composes the paper's equivalences:
//!
//! * **multi-level nesting** — a scalar or `EXISTS` subquery *inside*
//!   the inner block, up to depth 3, with correlation atoms that may
//!   reference **any** enclosing level (not just the immediate parent);
//! * **derived inner tables** — the inner block may range over
//!   `FROM (SELECT bX AS d1, … FROM s [WHERE …]) d`, including
//!   duplicate source columns under distinct aliases;
//! * **outer `ORDER BY` / `LIMIT`** wrapped around the unnested DAG
//!   (`LIMIT` only ever rides on an `ORDER BY` covering *every* output
//!   column, so the top-N prefix is a well-defined bag — see
//!   [`OrderSpec`]).
//!
//! Every query runs under the full [`Strategy`] matrix and the results
//! must be bag-equal to canonical nested-loop evaluation (plus, for
//! ordered queries, equal per-row sort-key sequences); a mismatch is
//! minimized (query first, then data) and reported with its seed.
//!
//! Case scheduling is **coverage-guided**: each candidate query is
//! tagged with its rewrite-shape fingerprint (which of Eqv. 1–5 fired
//! or why the rewrite was rejected, read off the `unnest.attach` spans)
//! plus structural tags (`depth2`, `derived`, `orderby`, `limit`, …),
//! and generation is biased toward the shapes with the lowest hit
//! counts so far ([`schedule_cases`]). The schedule is computed
//! sequentially up front, so parallel execution stays bit-identical to
//! the serial run for every worker count.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use bypass_algebra::LogicalPlan;
use bypass_core::{
    DataType, Database, ExecCounters, Relation, RunLimits, Strategy, TableBuilder, Value,
};
use bypass_exec::{physical_plan_with, ExecContext, PlanOptions};
use bypass_types::Result;

use crate::prop::DEFAULT_SEED;
use crate::rng::Rng;

// ---------------------------------------------------------------------
// Query grammar
// ---------------------------------------------------------------------

const THETAS: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];
const AGGS: [&str; 8] = [
    "COUNT(*)",
    "COUNT(DISTINCT *)",
    "COUNT({c})",
    "SUM({c})",
    "SUM(DISTINCT {c})",
    "MIN({c})",
    "MAX({c})",
    "AVG({c})",
];

/// Maximum nesting depth of inner blocks (a depth-3 query has a
/// subquery inside a subquery inside a subquery).
pub const MAX_NESTING_DEPTH: u32 = 3;

/// Column-alias prefixes of derived tables, indexed by `depth - 1`.
/// Distinct per level so a derived block can never capture an
/// enclosing block's column names.
const DERIVED_PREFIX: [char; 3] = ['d', 'e', 'f'];

/// A derived inner table: `(SELECT src{cols[0]} AS p1, … FROM source
/// [WHERE filter]) p`. `cols` may repeat a source column under two
/// aliases — the duplicate-column case the rewrites must keep apart.
#[derive(Debug, Clone, PartialEq)]
struct DerivedSpec {
    /// Alias `p{i+1}` maps to source column `{src}{cols[i]}`.
    cols: [u8; 4],
    /// Local filter over the *source* columns, inside the derived body.
    filter: Option<String>,
}

/// An inner-block predicate atom.
#[derive(Debug, Clone, PartialEq)]
enum InnerPred {
    /// `<enclosing-level column> θ <inner>` — correlation (the left
    /// side may reference any enclosing block, not just `r`).
    Corr(String, &'static str, String),
    /// Local predicate over inner columns only.
    Local(String),
    /// `<inner column> θ (SELECT agg …)` — a nested scalar block.
    NestedCmp {
        lhs: String,
        theta: &'static str,
        sub: Box<SubBlock>,
    },
    /// `[NOT] EXISTS (SELECT …)` — a nested quantified block.
    NestedExists { negated: bool, sub: Box<SubBlock> },
}

impl InnerPred {
    fn render(&self) -> String {
        match self {
            InnerPred::Corr(o, theta, i) => format!("{o} {theta} {i}"),
            InnerPred::Local(p) => p.clone(),
            InnerPred::NestedCmp { lhs, theta, sub } => {
                format!("{lhs} {theta} {}", sub.render())
            }
            InnerPred::NestedExists { negated, sub } => {
                let not = if *negated { "NOT " } else { "" };
                format!("{not}EXISTS {}", sub.render())
            }
        }
    }

    fn nested(&self) -> Option<&SubBlock> {
        match self {
            InnerPred::NestedCmp { sub, .. } | InnerPred::NestedExists { sub, .. } => Some(sub),
            _ => None,
        }
    }

    fn nested_mut(&mut self) -> Option<&mut SubBlock> {
        match self {
            InnerPred::NestedCmp { sub, .. } | InnerPred::NestedExists { sub, .. } => Some(sub),
            _ => None,
        }
    }
}

/// A scalar subquery block: `(SELECT <agg or col> FROM <from> WHERE …)`.
#[derive(Debug, Clone, PartialEq)]
struct SubBlock {
    /// Base table: `s` or `t` (for derived blocks, the *source*).
    table: &'static str,
    /// Present when the block ranges over a derived table instead of
    /// the base table directly.
    derived: Option<DerivedSpec>,
    /// Column prefix visible inside this block (`b`/`c` for base
    /// tables, `d`/`e`/`f` for derived ones — also the derived alias).
    prefix: char,
    /// Aggregate template (`{c}` substituted) or plain column for
    /// quantified forms.
    select: String,
    /// Predicate atoms.
    preds: Vec<InnerPred>,
    /// `true`: atoms joined by OR (disjunctive correlation);
    /// `false`: AND.
    disjunctive: bool,
}

impl SubBlock {
    fn source_prefix(&self) -> char {
        if self.table == "s" {
            'b'
        } else {
            'c'
        }
    }

    fn render_from(&self) -> String {
        match &self.derived {
            None => self.table.to_string(),
            Some(der) => {
                let sp = self.source_prefix();
                let items: Vec<String> = (0..4)
                    .map(|i| format!("{sp}{} AS {}{}", der.cols[i], self.prefix, i + 1))
                    .collect();
                let filter = der
                    .filter
                    .as_ref()
                    .map(|f| format!(" WHERE {f}"))
                    .unwrap_or_default();
                format!(
                    "(SELECT {} FROM {}{filter}) {}",
                    items.join(", "),
                    self.table,
                    self.prefix
                )
            }
        }
    }

    fn render(&self) -> String {
        if self.preds.is_empty() {
            return format!("(SELECT {} FROM {})", self.select, self.render_from());
        }
        let conn = if self.disjunctive { " OR " } else { " AND " };
        let preds: Vec<String> = self.preds.iter().map(InnerPred::render).collect();
        format!(
            "(SELECT {} FROM {} WHERE {})",
            self.select,
            self.render_from(),
            preds.join(conn)
        )
    }

    /// Nesting depth of this block (1 = no nested subquery inside).
    fn depth(&self) -> u32 {
        1 + self
            .preds
            .iter()
            .filter_map(|p| p.nested().map(SubBlock::depth))
            .max()
            .unwrap_or(0)
    }

    fn has_derived(&self) -> bool {
        self.derived.is_some()
            || self
                .preds
                .iter()
                .filter_map(InnerPred::nested)
                .any(SubBlock::has_derived)
    }

    /// Rewrite `{from}{i}` column tokens to `{to}{map[i-1]}` in every
    /// string of this block and its nested blocks (used when a shrink
    /// dissolves a derived table back into its base table).
    fn rename_prefix(&mut self, from: char, map: [u8; 4], to: char) {
        let fix = |s: &mut String| {
            for i in 1..=4u8 {
                *s = s.replace(
                    &format!("{from}{i}"),
                    &format!("{to}{}", map[(i - 1) as usize]),
                );
            }
        };
        fix(&mut self.select);
        for p in &mut self.preds {
            match p {
                InnerPred::Corr(o, _, i) => {
                    fix(o);
                    fix(i);
                }
                InnerPred::Local(l) => fix(l),
                InnerPred::NestedCmp { lhs, sub, .. } => {
                    fix(lhs);
                    sub.rename_prefix(from, map, to);
                }
                InnerPred::NestedExists { sub, .. } => sub.rename_prefix(from, map, to),
            }
        }
    }

    /// The block with its derived table dissolved back into the base
    /// table (column aliases substituted through). May produce a
    /// name-capture conflict with an enclosing block — such candidates
    /// simply fail to translate and are skipped by the shrinker.
    fn undress_derived(&self) -> Option<SubBlock> {
        let der = self.derived.as_ref()?;
        let mut out = self.clone();
        out.derived = None;
        let from = self.prefix;
        let to = self.source_prefix();
        out.prefix = to;
        out.rename_prefix(from, der.cols, to);
        if let Some(f) = &der.filter {
            out.preds.push(InnerPred::Local(f.clone()));
        }
        Some(out)
    }

    /// Simpler blocks: fewer predicate atoms, conjunctive connective,
    /// shallower nesting, dissolved derived tables.
    fn shrink(&self) -> Vec<SubBlock> {
        let mut out = Vec::new();
        // Fewer predicate atoms (down to an unfiltered block).
        for i in 0..self.preds.len() {
            let mut fewer = self.clone();
            fewer.preds.remove(i);
            out.push(fewer);
        }
        // Cut nested blocks: replace with a trivial local atom, and
        // recursively shrink the nested block in place.
        for i in 0..self.preds.len() {
            if let Some(sub) = self.preds[i].nested() {
                let mut cut = self.clone();
                cut.preds[i] = InnerPred::Local(format!("{}1 IS NOT NULL", self.prefix));
                out.push(cut);
                for smaller in sub.shrink() {
                    let mut next = self.clone();
                    *next.preds[i].nested_mut().expect("nested pred") = smaller;
                    out.push(next);
                }
            }
        }
        if self.disjunctive && self.preds.len() > 1 {
            let mut conj = self.clone();
            conj.disjunctive = false;
            out.push(conj);
        }
        if let Some(der) = &self.derived {
            if der.filter.is_some() {
                let mut unfiltered = self.clone();
                unfiltered.derived.as_mut().expect("derived").filter = None;
                out.push(unfiltered);
            }
            if der.cols != [1, 2, 3, 4] {
                let mut identity = self.clone();
                identity.derived.as_mut().expect("derived").cols = [1, 2, 3, 4];
                out.push(identity);
            }
            if let Some(base) = self.undress_derived() {
                out.push(base);
            }
        }
        out
    }
}

/// One WHERE-clause disjunct.
#[derive(Debug, Clone, PartialEq)]
enum Disjunct {
    /// Subquery-free predicate over the outer block.
    Plain(String),
    /// `<lhs> θ <subquery>` (or flipped: `<subquery> θ <lhs>`).
    Linking {
        lhs: String,
        theta: &'static str,
        sub: SubBlock,
        flipped: bool,
    },
    /// `[NOT] EXISTS (…)`.
    Exists { negated: bool, sub: SubBlock },
    /// `<col> [NOT] IN (SELECT …)`.
    InList {
        col: String,
        negated: bool,
        sub: SubBlock,
    },
    /// `<col> θ ANY/ALL (SELECT …)`.
    Quantified {
        col: String,
        theta: &'static str,
        quantifier: &'static str,
        sub: SubBlock,
    },
}

impl Disjunct {
    fn render(&self) -> String {
        match self {
            Disjunct::Plain(p) => p.clone(),
            Disjunct::Linking {
                lhs,
                theta,
                sub,
                flipped,
            } => {
                if *flipped {
                    format!("{} {theta} {lhs}", sub.render())
                } else {
                    format!("{lhs} {theta} {}", sub.render())
                }
            }
            Disjunct::Exists { negated, sub } => {
                let not = if *negated { "NOT " } else { "" };
                format!("{not}EXISTS {}", sub.render())
            }
            Disjunct::InList { col, negated, sub } => {
                let not = if *negated { "NOT " } else { "" };
                format!("{col} {not}IN {}", sub.render())
            }
            Disjunct::Quantified {
                col,
                theta,
                quantifier,
                sub,
            } => format!("{col} {theta} {quantifier} {}", sub.render()),
        }
    }

    fn sub_mut(&mut self) -> Option<&mut SubBlock> {
        match self {
            Disjunct::Plain(_) => None,
            Disjunct::Linking { sub, .. }
            | Disjunct::Exists { sub, .. }
            | Disjunct::InList { sub, .. }
            | Disjunct::Quantified { sub, .. } => Some(sub),
        }
    }

    fn sub(&self) -> Option<&SubBlock> {
        match self {
            Disjunct::Plain(_) => None,
            Disjunct::Linking { sub, .. }
            | Disjunct::Exists { sub, .. }
            | Disjunct::InList { sub, .. }
            | Disjunct::Quantified { sub, .. } => Some(sub),
        }
    }
}

/// Outer `ORDER BY` (and optional `LIMIT`) wrapped around the query.
///
/// **Determinism contract.** The engine's sort is stable, but the
/// *input order* of the sort differs across strategies (a bypass DAG
/// re-unions its positive and negative streams in rewrite order, the
/// canonical plan never split them), so rows with equal sort keys may
/// legitimately appear in different relative order. Two consequences:
///
/// * plain `ORDER BY` results are compared by bag equality **plus**
///   per-row sort-key sequences (the key projection of a sorted bag is
///   unique even when full-row order is not) — see
///   [`results_agree`];
/// * `LIMIT` is only generated with an `ORDER BY` covering **all**
///   output columns: then tied rows are entirely identical, so the
///   top-N prefix is the same *bag* under every tie-break.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderSpec {
    /// Sort keys: (`a{n}` column index 1..=4, descending?).
    keys: Vec<(u8, bool)>,
    /// Row limit, only ever present when `keys` covers all 4 columns.
    limit: Option<usize>,
}

impl OrderSpec {
    fn render(&self) -> String {
        let keys: Vec<String> = self
            .keys
            .iter()
            .map(|(c, desc)| format!("a{c}{}", if *desc { " DESC" } else { "" }))
            .collect();
        let mut out = format!(" ORDER BY {}", keys.join(", "));
        if let Some(n) = self.limit {
            out.push_str(&format!(" LIMIT {n}"));
        }
        out
    }

    /// Simpler order clauses. `LIMIT` is dropped before any key is
    /// (keys may only shrink on limit-free clauses, preserving the
    /// all-columns invariant that makes `LIMIT` deterministic).
    fn shrink(&self) -> Vec<OrderSpec> {
        let mut out = Vec::new();
        if self.limit.is_some() {
            out.push(OrderSpec {
                keys: self.keys.clone(),
                limit: None,
            });
        } else if self.keys.len() > 1 {
            for i in 0..self.keys.len() {
                let mut fewer = self.clone();
                fewer.keys.remove(i);
                out.push(fewer);
            }
        }
        out
    }
}

/// A generated query: projection + a disjunction of `Disjunct`s,
/// optionally wrapped in `ORDER BY`/`LIMIT`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    distinct: bool,
    /// Projection: `*`, a column, or a select-list subquery.
    projection: String,
    /// Select-list subquery (rendered into `projection` as `{sub}`).
    select_sub: Option<SubBlock>,
    disjuncts: Vec<Disjunct>,
    /// Outer ORDER BY / LIMIT (only on `SELECT *` queries).
    order: Option<OrderSpec>,
}

impl QuerySpec {
    /// The outer ORDER BY / LIMIT contract of this query, if any —
    /// what [`results_agree`]'s ordered comparator keys off.
    pub fn order(&self) -> Option<&OrderSpec> {
        self.order.as_ref()
    }

    /// Render to SQL.
    pub fn sql(&self) -> String {
        let distinct = if self.distinct { "DISTINCT " } else { "" };
        let projection = match &self.select_sub {
            Some(sub) => self.projection.replace("{sub}", &sub.render()),
            None => self.projection.clone(),
        };
        let order = self
            .order
            .as_ref()
            .map(OrderSpec::render)
            .unwrap_or_default();
        if self.disjuncts.is_empty() {
            return format!("SELECT {distinct}{projection} FROM r{order}");
        }
        let parts: Vec<String> = self.disjuncts.iter().map(Disjunct::render).collect();
        format!(
            "SELECT {distinct}{projection} FROM r WHERE {}{order}",
            parts.join(" OR ")
        )
    }

    /// Maximum nesting depth over every subquery block (0 = flat).
    pub fn max_depth(&self) -> u32 {
        self.disjuncts
            .iter()
            .filter_map(Disjunct::sub)
            .chain(self.select_sub.as_ref())
            .map(SubBlock::depth)
            .max()
            .unwrap_or(0)
    }

    /// Does any block (at any depth) range over a derived table?
    pub fn has_derived(&self) -> bool {
        self.disjuncts
            .iter()
            .filter_map(Disjunct::sub)
            .chain(self.select_sub.as_ref())
            .any(SubBlock::has_derived)
    }

    /// Is the query wrapped in an outer ORDER BY?
    pub fn has_order(&self) -> bool {
        self.order.is_some()
    }

    /// Is the query wrapped in an outer LIMIT?
    pub fn has_limit(&self) -> bool {
        self.order.as_ref().is_some_and(|o| o.limit.is_some())
    }

    /// Structural coverage tags of this query (see [`schedule_cases`]).
    pub fn structural_tags(&self) -> Vec<String> {
        let mut tags = vec![format!("depth{}", self.max_depth())];
        if self.has_derived() {
            tags.push("derived".to_string());
        }
        if self.has_order() {
            tags.push("orderby".to_string());
        }
        if self.has_limit() {
            tags.push("limit".to_string());
        }
        if self.distinct {
            tags.push("distinct".to_string());
        }
        if self.select_sub.is_some() {
            tags.push("select-sub".to_string());
        }
        tags
    }

    /// Structurally simpler queries (for failure minimization): fewer
    /// disjuncts, simpler/shallower subquery blocks, no DISTINCT, no
    /// ORDER BY/LIMIT.
    fn shrink(&self) -> Vec<QuerySpec> {
        let mut out = Vec::new();
        if self.disjuncts.len() > 1 {
            for i in 0..self.disjuncts.len() {
                let mut fewer = self.clone();
                fewer.disjuncts.remove(i);
                out.push(fewer);
            }
        }
        for i in 0..self.disjuncts.len() {
            if let Some(sub) = self.disjuncts[i].sub() {
                for smaller in sub.shrink() {
                    let mut next = self.clone();
                    *next.disjuncts[i].sub_mut().unwrap() = smaller;
                    out.push(next);
                }
            }
        }
        if let Some(sub) = &self.select_sub {
            for smaller in sub.shrink() {
                let mut next = self.clone();
                next.select_sub = Some(smaller);
                out.push(next);
            }
        }
        if let Some(order) = &self.order {
            let mut unordered = self.clone();
            unordered.order = None;
            out.push(unordered);
            for simpler in order.shrink() {
                let mut next = self.clone();
                next.order = Some(simpler);
                out.push(next);
            }
        }
        if self.distinct {
            let mut plain = self.clone();
            plain.distinct = false;
            out.push(plain);
        }
        out
    }
}

fn outer_col(rng: &mut Rng) -> String {
    format!("a{}", rng.gen_range(1..=4i64))
}

fn inner_col(rng: &mut Rng, prefix: char) -> String {
    format!("{prefix}{}", rng.gen_range(1..=4i64))
}

fn agg(rng: &mut Rng, prefix: char) -> String {
    let template = *rng.choose(&AGGS);
    template.replace("{c}", &inner_col(rng, prefix))
}

fn plain_pred(rng: &mut Rng, prefix: char, domain: i64) -> String {
    let col = inner_col(rng, prefix);
    match rng.gen_range(0..6u32) {
        0 => format!("{col} IS NULL"),
        1 => format!("{col} IS NOT NULL"),
        _ => format!(
            "{col} {} {}",
            *rng.choose(&THETAS),
            rng.gen_range(0..domain)
        ),
    }
}

/// Generate a subquery block at `depth` (1 = directly below the outer
/// query). `scope` lists the column prefixes of every enclosing level,
/// outermost (`'a'`) first; correlation atoms may target any of them,
/// and the block's own prefix is chosen to never capture one.
fn sub_block_at(
    rng: &mut Rng,
    cfg: &OracleConfig,
    quantified: bool,
    scope: &[char],
    depth: u32,
) -> SubBlock {
    // Base tables whose column prefix is not captured by an enclosing
    // block. When both are taken (possible at depth 3), a derived
    // table with a depth-unique alias prefix is the only option.
    let free: Vec<(&'static str, char)> = [("s", 'b'), ("t", 'c')]
        .into_iter()
        .filter(|(_, p)| !scope.contains(p))
        .collect();
    let derived = free.is_empty() || rng.gen_bool(0.2);
    let (table, prefix, derived): (&'static str, char, Option<DerivedSpec>) = if derived {
        let table = if rng.gen_bool(0.7) { "s" } else { "t" };
        let prefix = DERIVED_PREFIX[(depth - 1) as usize];
        let cols = [
            rng.gen_range(1..=4i64) as u8,
            rng.gen_range(1..=4i64) as u8,
            rng.gen_range(1..=4i64) as u8,
            rng.gen_range(1..=4i64) as u8,
        ];
        let src = if table == "s" { 'b' } else { 'c' };
        let filter = if rng.gen_bool(0.4) {
            Some(plain_pred(rng, src, cfg.domain))
        } else {
            None
        };
        (table, prefix, Some(DerivedSpec { cols, filter }))
    } else {
        let &(table, prefix) = if free.len() == 2 {
            if rng.gen_bool(0.7) {
                &free[0]
            } else {
                &free[1]
            }
        } else {
            &free[0]
        };
        (table, prefix, None)
    };
    let select = if quantified {
        if rng.gen_bool(0.3) {
            "*".to_string()
        } else {
            inner_col(rng, prefix)
        }
    } else {
        agg(rng, prefix)
    };
    let mut preds = Vec::new();
    // Correlation atom(s): present in ~85% of blocks (type-JA); absent
    // blocks are type-A (uncorrelated). The correlated side may target
    // any enclosing level — immediate parent with probability 0.6,
    // otherwise a uniformly chosen level (so depth-2+ blocks reach
    // over their parent's head into the outer query).
    if rng.gen_bool(0.85) {
        let corr_level = |rng: &mut Rng| -> char {
            if scope.len() == 1 || rng.gen_bool(0.6) {
                *scope.last().expect("scope is never empty")
            } else {
                *rng.choose(scope)
            }
        };
        let theta = if rng.gen_bool(0.7) {
            "="
        } else {
            *rng.choose(&THETAS)
        };
        let level = corr_level(rng);
        preds.push(InnerPred::Corr(
            inner_col(rng, level),
            theta,
            inner_col(rng, prefix),
        ));
        if rng.gen_bool(0.25) {
            let level = corr_level(rng);
            preds.push(InnerPred::Corr(
                inner_col(rng, level),
                "=",
                inner_col(rng, prefix),
            ));
        }
    }
    if preds.is_empty() || rng.gen_bool(0.6) {
        preds.push(InnerPred::Local(plain_pred(rng, prefix, cfg.domain)));
    }
    // Multi-level nesting: a scalar or EXISTS block *inside* this one.
    if depth < MAX_NESTING_DEPTH {
        let p = if depth == 1 { 0.30 } else { 0.18 };
        if rng.gen_bool(p) {
            let mut inner_scope = scope.to_vec();
            inner_scope.push(prefix);
            if rng.gen_bool(0.75) {
                let theta = if rng.gen_bool(0.5) {
                    "="
                } else {
                    *rng.choose(&THETAS)
                };
                preds.push(InnerPred::NestedCmp {
                    lhs: inner_col(rng, prefix),
                    theta,
                    sub: Box::new(sub_block_at(rng, cfg, false, &inner_scope, depth + 1)),
                });
            } else {
                preds.push(InnerPred::NestedExists {
                    negated: rng.gen_bool(0.3),
                    sub: Box::new(sub_block_at(rng, cfg, true, &inner_scope, depth + 1)),
                });
            }
        }
    }
    // Disjunctive correlation only matters with >1 atom.
    let disjunctive = preds.len() > 1 && rng.gen_bool(0.5);
    SubBlock {
        table,
        derived,
        prefix,
        select,
        preds,
        disjunctive,
    }
}

fn sub_block(rng: &mut Rng, cfg: &OracleConfig, quantified: bool) -> SubBlock {
    sub_block_at(rng, cfg, quantified, &['a'], 1)
}

fn linking(rng: &mut Rng, cfg: &OracleConfig) -> Disjunct {
    Disjunct::Linking {
        lhs: outer_col(rng),
        #[allow(clippy::explicit_auto_deref)] // `*` pins T = &str
        theta: *rng.choose(&THETAS),
        sub: sub_block(rng, cfg, false),
        flipped: rng.gen_bool(0.15),
    }
}

/// A random ORDER BY [LIMIT] clause. `LIMIT` variants order by a
/// permutation of *all* columns (see [`OrderSpec`] for why).
fn arb_order(rng: &mut Rng) -> OrderSpec {
    let mut perm: Vec<u8> = vec![1, 2, 3, 4];
    // Fisher–Yates with the oracle PRNG.
    for i in (1..perm.len()).rev() {
        let j = rng.gen_range(0..=(i as i64)) as usize;
        perm.swap(i, j);
    }
    if rng.gen_bool(0.5) {
        let keys = perm.into_iter().map(|c| (c, rng.gen_bool(0.4))).collect();
        OrderSpec {
            keys,
            limit: Some(rng.gen_range(0..=6i64) as usize),
        }
    } else {
        let k = rng.gen_range(1..=3i64) as usize;
        let keys = perm
            .into_iter()
            .take(k)
            .map(|c| (c, rng.gen_bool(0.4)))
            .collect();
        OrderSpec { keys, limit: None }
    }
}

/// Generate one random query spec covering the rewrite families.
pub fn arb_query(rng: &mut Rng, cfg: &OracleConfig) -> QuerySpec {
    let (distinct, projection, mut select_sub) = match rng.gen_range(0..10u32) {
        0 => (true, "*".to_string(), None),
        1 => (rng.gen_bool(0.5), outer_col(rng), None),
        // Select-list subquery (TR extension).
        2 => (
            false,
            format!("{}, {{sub}}", outer_col(rng)),
            Some(sub_block(rng, cfg, false)),
        ),
        _ => (false, "*".to_string(), None),
    };
    let mut disjuncts = Vec::new();
    match rng.gen_range(0..10u32) {
        // Conjunctive linking (Eqv. 1) — single subquery disjunct.
        0 => disjuncts.push(linking(rng, cfg)),
        // Quantified forms.
        1 | 2 => {
            let quantified = match rng.gen_range(0..4u32) {
                0 => Disjunct::Exists {
                    negated: rng.gen_bool(0.3),
                    sub: sub_block(rng, cfg, true),
                },
                1 => {
                    let mut sub = sub_block(rng, cfg, true);
                    if sub.select == "*" {
                        sub.select = inner_col(rng, sub.prefix);
                    }
                    Disjunct::InList {
                        col: outer_col(rng),
                        negated: rng.gen_bool(0.3),
                        sub,
                    }
                }
                _ => {
                    let mut sub = sub_block(rng, cfg, true);
                    if sub.select == "*" {
                        sub.select = inner_col(rng, sub.prefix);
                    }
                    Disjunct::Quantified {
                        col: outer_col(rng),
                        #[allow(clippy::explicit_auto_deref)] // `*` pins T = &str
                        theta: *rng.choose(&THETAS),
                        quantifier: if rng.gen_bool(0.5) { "ANY" } else { "ALL" },
                        sub,
                    }
                }
            };
            disjuncts.push(quantified);
            disjuncts.push(Disjunct::Plain(plain_pred(rng, 'a', cfg.domain)));
        }
        // Tree query: two subquery disjuncts.
        3 => {
            disjuncts.push(linking(rng, cfg));
            disjuncts.push(linking(rng, cfg));
            if rng.gen_bool(0.3) {
                disjuncts.push(Disjunct::Plain(plain_pred(rng, 'a', cfg.domain)));
            }
        }
        // Disjunctive linking (Eqv. 2/3) — the paper's centrepiece.
        _ => {
            disjuncts.push(linking(rng, cfg));
            disjuncts.push(Disjunct::Plain(plain_pred(rng, 'a', cfg.domain)));
            if rng.gen_bool(0.25) {
                disjuncts.push(Disjunct::Plain(plain_pred(rng, 'a', cfg.domain)));
            }
        }
    }
    // Select-list subqueries pair with a simple filter (or none).
    if select_sub.is_some() {
        disjuncts.clear();
        if rng.gen_bool(0.5) {
            disjuncts.push(Disjunct::Plain(plain_pred(rng, 'a', cfg.domain)));
        }
    } else {
        select_sub = None;
    }
    // Outer ORDER BY / LIMIT: only on `SELECT *` queries (so the sort
    // keys are positionally identifiable in the output and the ordered
    // comparator of `results_agree` applies).
    let order = if projection == "*" && select_sub.is_none() && rng.gen_bool(0.3) {
        Some(arb_order(rng))
    } else {
        None
    };
    QuerySpec {
        distinct,
        projection,
        select_sub,
        disjuncts,
        order,
    }
}

// ---------------------------------------------------------------------
// Random instances
// ---------------------------------------------------------------------

/// Random rows for one RST table: small domain (correlations and
/// duplicates actually occur), NULL-heavy, plus duplicated rows to
/// exercise bag semantics.
fn random_rows(rng: &mut Rng, cfg: &OracleConfig) -> Vec<Vec<Value>> {
    let n = rng.gen_range(0..=cfg.max_rows);
    let mut rows: Vec<Vec<Value>> = (0..n)
        .map(|_| {
            (0..4)
                .map(|_| {
                    if rng.gen_ratio(cfg.null_ratio.0, cfg.null_ratio.1) {
                        Value::Null
                    } else {
                        Value::Int(rng.gen_range(0..cfg.domain))
                    }
                })
                .collect()
        })
        .collect();
    for _ in 0..n / 4 {
        let i = rng.gen_range(0..rows.len());
        rows.push(rows[i].clone());
    }
    rows
}

fn build_database(tables: &[(&str, char, &[Vec<Value>])]) -> Database {
    let mut db = Database::new();
    for (name, prefix, rows) in tables {
        let mut b = TableBuilder::new();
        for i in 1..=4 {
            b = b.column(format!("{prefix}{i}"), DataType::Int);
        }
        b = b.rows(rows.to_vec()).expect("arity is fixed");
        db.register_table(*name, b.build()).expect("fresh catalog");
    }
    db
}

/// A random RST instance (tables `r`, `s`, `t`).
pub fn random_instance(rng: &mut Rng, cfg: &OracleConfig) -> Database {
    let r = random_rows(rng, cfg);
    let s = random_rows(rng, cfg);
    let t = random_rows(rng, cfg);
    build_database(&[("r", 'a', &r), ("s", 'b', &s), ("t", 'c', &t)])
}

/// Regenerate the exact (query, instance) pair of an oracle case from
/// its seed — the same recipe `run_case` uses (query first, then the
/// three tables), exposed so the fault-injection oracle and replay
/// tooling can rebuild a case without running the differential
/// comparison.
pub fn materialize_case(seed: u64, cfg: &OracleConfig) -> (QuerySpec, Database) {
    let mut rng = Rng::seed_from_u64(seed);
    let spec = arb_query(&mut rng, cfg);
    let db = random_instance(&mut rng, cfg);
    (spec, db)
}

/// Process-wide gate serializing every enable-trace / run / drain
/// window (shared by the fault and service oracles, which check span
/// balance) so concurrent users never steal each other's span events or
/// clobber the global enable flag mid-window.
pub(crate) fn trace_gate() -> std::sync::MutexGuard<'static, ()> {
    use std::sync::{Mutex, OnceLock};
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Parse a seed from environment variable `var`: decimal, or hex with
/// a `0x` prefix. `None` when unset or unparsable.
pub(crate) fn env_seed(var: &str) -> Option<u64> {
    std::env::var(var).ok().and_then(|s| {
        let s = s.trim();
        s.strip_prefix("0x")
            .map(|h| u64::from_str_radix(h, 16).ok())
            .unwrap_or_else(|| s.parse().ok())
    })
}

// ---------------------------------------------------------------------
// Rewrite-shape fingerprinting + coverage-guided scheduling
// ---------------------------------------------------------------------

/// An empty RST catalog — schema is all the rewrite pipeline needs to
/// fingerprint a query, so scheduling never touches data.
fn fingerprint_database() -> Database {
    build_database(&[("r", 'a', &[]), ("s", 'b', &[]), ("t", 'c', &[])])
}

/// The rewrite-shape fingerprint of `sql`: which of the paper's
/// equivalences fired (or why attachment was rejected) in a
/// `Strategy::Unnested` rewrite, read off the unnest outcome tally
/// (`bypass_unnest::take_outcomes`), which every attachment attempt and
/// the disjunction rewrite bump on the calling thread. Tags are the
/// outcome keys (`eqv1:gamma-outerjoin`, `rejected:hidden-correlation`,
/// …), with the disjunction rewrite's (Eqv. 2/3) `bypass:chain` tagged
/// `bypass-chain`.
pub fn rewrite_fingerprint(db: &Database, sql: &str) -> Vec<String> {
    let plan = match db.logical_plan(sql) {
        Ok(p) => p,
        Err(_) => return vec!["reject:untranslatable".to_string()],
    };
    let _stale = bypass_unnest::take_outcomes();
    let prepared = Strategy::Unnested.prepare(&plan);
    let outcomes = bypass_unnest::take_outcomes().into_iter();
    let mut tags: BTreeSet<String> = outcomes
        .map(|(key, _)| match key {
            "bypass:chain" => "bypass-chain".to_string(),
            key => key.to_string(),
        })
        .collect();
    if prepared.is_err() {
        tags.insert("reject:rewrite-error".to_string());
    }
    if tags.is_empty() {
        tags.insert("no-rewrite".to_string());
    }
    tags.into_iter().collect()
}

/// Seed of generation attempt `attempt` for a case whose base seed is
/// `base` (attempt 0 **is** the base seed — the replay invariant).
fn attempt_seed(base: u64, attempt: u32) -> u64 {
    if attempt == 0 {
        base
    } else {
        let mut s = base ^ (attempt as u64).wrapping_mul(0xA076_1D64_78BD_642F);
        crate::rng::split_mix64(&mut s)
    }
}

/// A coverage-guided case schedule: one chosen seed per case, plus the
/// per-tag hit counts of the chosen population.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// The seed each case regenerates its query + instance from.
    pub seeds: Vec<u64>,
    /// Coverage: structural + rewrite-shape tag → hit count.
    pub coverage: BTreeMap<String, u64>,
}

/// Compute the case schedule for a run: for every case, generate up to
/// [`OracleConfig::schedule_attempts`] candidate queries and keep the
/// one whose rarest coverage tag has the lowest hit count so far
/// (`cfg.focus` tags additionally shrink a candidate's score, biasing
/// the run toward recently-changed rewrite shapes). Ties keep the
/// *earliest* attempt, so with empty counts attempt 0 always wins —
/// which is what makes `BYPASS_CHECK_SEED=<case seed>` with `cases=1`
/// replay the exact failing query.
///
/// The schedule is computed sequentially (generation + plan rewrite
/// only — no data is executed), so it is identical for every worker
/// count of [`run_differential_parallel`].
pub fn schedule_cases(cfg: &OracleConfig) -> Schedule {
    let fp_db = fingerprint_database();
    let mut coverage: BTreeMap<String, u64> = BTreeMap::new();
    let mut seeds = Vec::with_capacity(cfg.cases as usize);
    let attempts = cfg.schedule_attempts.max(1);
    for case in 0..cfg.cases {
        let base = case_seed(cfg.seed, case);
        let mut chosen: Option<(u64, u64, Vec<String>)> = None;
        for attempt in 0..attempts {
            let seed = attempt_seed(base, attempt);
            let mut rng = Rng::seed_from_u64(seed);
            let spec = arb_query(&mut rng, cfg);
            let mut tags = spec.structural_tags();
            tags.extend(rewrite_fingerprint(&fp_db, &spec.sql()));
            tags.sort();
            tags.dedup();
            let rarity = tags
                .iter()
                .map(|t| coverage.get(t).copied().unwrap_or(0))
                .min()
                .unwrap_or(0);
            let focused = cfg
                .focus
                .iter()
                .any(|f| tags.iter().any(|t| t.contains(f.as_str())));
            let score = if focused { rarity / 4 } else { rarity };
            if chosen.as_ref().is_none_or(|(best, _, _)| score < *best) {
                chosen = Some((score, seed, tags));
            }
            // A zero score cannot be beaten; skip the remaining
            // attempts (this keeps replay runs — empty coverage —
            // exactly one generation per case).
            if score == 0 {
                break;
            }
        }
        let (_, seed, tags) = chosen.expect("at least one attempt");
        for t in &tags {
            *coverage.entry(t.clone()).or_insert(0) += 1;
        }
        seeds.push(seed);
    }
    Schedule { seeds, coverage }
}

// ---------------------------------------------------------------------
// Differential execution
// ---------------------------------------------------------------------

/// How the oracle runs a query under a strategy. The default goes
/// through [`Database::sql_with`]; tests plant bugs by substituting an
/// executor that mutates the rewritten plan (see
/// [`crate::mutate::BrokenUnnestExecutor`]).
///
/// `Sync` is required so [`run_differential_parallel`] can share one
/// executor across the scoped worker threads; the production pipeline
/// is stateless, so this costs implementors nothing.
pub trait QueryExecutor: Sync {
    fn execute(&self, db: &Database, sql: &str, strategy: Strategy) -> Result<Relation>;
}

/// The production pipeline, unmodified.
pub struct DefaultExecutor;

impl QueryExecutor for DefaultExecutor {
    fn execute(&self, db: &Database, sql: &str, strategy: Strategy) -> Result<Relation> {
        db.sql_with(sql, strategy, None)
    }
}

/// Oracle configuration.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Number of (instance, query) cases.
    pub cases: u32,
    /// Maximum rows per table before duplication.
    pub max_rows: usize,
    /// Value domain `[0, domain)`.
    pub domain: i64,
    /// NULL probability as a ratio (numerator, denominator).
    pub null_ratio: (u32, u32),
    /// Run seed (`BYPASS_CHECK_SEED` overrides).
    pub seed: u64,
    /// Strategies checked against [`Strategy::Canonical`].
    pub strategies: Vec<Strategy>,
    /// Minimize failing cases before reporting.
    pub minimize: bool,
    /// Coverage-guided scheduling: candidate generations per case
    /// (1 disables biasing; see [`schedule_cases`]).
    pub schedule_attempts: u32,
    /// Substrings of coverage tags to bias generation toward
    /// (`BYPASS_CHECK_FOCUS` — comma-separated — seeds the default).
    /// Focused candidates score as if their shapes were 4× rarer.
    pub focus: Vec<String>,
}

/// Worker count of the oracle's parallel-axis runs.
const PAR_AXIS_THREADS: usize = 4;

/// Forced morsel size of the parallel-axis runs: oracle instances have
/// at most ~18 rows per table, so the production 4096-row gate would
/// never fan out without this.
const PAR_AXIS_MORSEL_ROWS: usize = 2;

/// Forced chunk length of the chunk-length-axis runs: small enough
/// that the oracle's ≤18-row tables split into several chunks (final
/// short chunk included).
const BATCH_AXIS_ROWS: usize = 3;

impl Default for OracleConfig {
    fn default() -> OracleConfig {
        OracleConfig {
            cases: 200,
            max_rows: 18,
            domain: 8,
            null_ratio: (1, 7),
            seed: env_seed("BYPASS_CHECK_SEED").unwrap_or(DEFAULT_SEED),
            strategies: Strategy::all().to_vec(),
            minimize: true,
            schedule_attempts: 3,
            focus: std::env::var("BYPASS_CHECK_FOCUS")
                .ok()
                .map(|s| {
                    s.split(',')
                        .map(str::trim)
                        .filter(|t| !t.is_empty())
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default(),
        }
    }
}

/// Statistics of a clean differential run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleReport {
    /// Cases executed (one generated query + instance each).
    pub cases: u32,
    /// Total strategy executions compared against canonical.
    pub strategy_runs: u64,
    /// Executor-axis comparisons, one count per entry of [`AXES`].
    pub axis_runs: [u64; AXES.len()],
    /// How many generated queries contained a nested block.
    pub nested_queries: u32,
    /// Coverage tag → hit count over the scheduled cases (structural
    /// tags plus rewrite-shape fingerprints; see [`schedule_cases`]).
    pub coverage: BTreeMap<String, u64>,
}

impl OracleReport {
    fn add_axis_runs(&mut self, case: &[u64; AXES.len()]) {
        for (total, runs) in self.axis_runs.iter_mut().zip(case) {
            *total += runs;
        }
    }

    /// Render the coverage table, most-hit tags first.
    pub fn coverage_table(&self) -> String {
        let mut rows: Vec<(&String, &u64)> = self.coverage.iter().collect();
        rows.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
        let width = rows.iter().map(|(t, _)| t.len()).max().unwrap_or(8).max(8);
        let mut out = format!("{:<width$}  {:>6}\n", "shape", "hits");
        for (tag, hits) in rows {
            out.push_str(&format!("{tag:<width$}  {hits:>6}\n"));
        }
        out
    }
}

/// A detected divergence, minimized and reproducible.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// Seed of the failing case (replayable via `BYPASS_CHECK_SEED`).
    pub case_seed: u64,
    /// Case index within the run.
    pub case: u32,
    /// The strategy that diverged from canonical.
    pub strategy: Strategy,
    /// The original failing query.
    pub sql: String,
    /// Normalized-AST fingerprint of the original query (0 if it does
    /// not parse) — the key to look the shape up in the metrics hub.
    pub fingerprint: u64,
    /// The minimized failing query.
    pub minimized_sql: String,
    /// Row counts (canonical, strategy) or the execution error.
    pub detail: String,
    /// Minimized instance, rendered per table.
    pub instance: String,
    /// Traced phase timings + bypass/memo counters of the canonical run
    /// and the diverging strategy on the minimized repro (one line per
    /// strategy; execution failures render as the error).
    pub profiles: Vec<String>,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "strategy `{}` diverges from canonical evaluation (case {})",
            self.strategy, self.case
        )?;
        writeln!(f, "  reproduce: BYPASS_CHECK_SEED={:#x}", self.case_seed)?;
        writeln!(f, "  query:     {}", self.sql)?;
        writeln!(
            f,
            "  fingerprint: {}",
            bypass_core::format_fingerprint(self.fingerprint)
        )?;
        writeln!(f, "  minimized: {}", self.minimized_sql)?;
        writeln!(f, "  detail:    {}", self.detail)?;
        for p in &self.profiles {
            writeln!(f, "  profile:   {p}")?;
        }
        write!(f, "  instance:\n{}", self.instance)
    }
}

/// One-line profile of `(sql, strategy)` on `db`: phase timings plus
/// the bypass stream and memo counters — the observability attachment
/// of a minimized repro report.
fn profile_summary(db: &Database, sql: &str, strategy: Strategy) -> String {
    match db.profile(sql, strategy) {
        Ok(p) => {
            let (nodes, pos, neg) = p.bypass_totals();
            let c = p.counters;
            format!(
                "{}: rows={} phases[{}] bypass[nodes={nodes} pos={pos} neg={neg}] \
                 memo[uncorr {}h/{}m, corr {}h/{}m]",
                p.strategy,
                p.rows,
                p.phases.render(),
                c.memo_uncorr_hits,
                c.memo_uncorr_misses,
                c.memo_corr_hits,
                c.memo_corr_misses,
            )
        }
        Err(e) => format!("{strategy}: profile unavailable ({e})"),
    }
}

/// Do two results agree, given the query's ORDER BY contract?
///
/// Bag equality always; for ordered queries additionally the per-row
/// *sort-key* sequences must match. Full-row sequences may differ on
/// key ties (the sort is stable but its input order is
/// strategy-dependent), which is exactly the normalization the
/// determinism audit calls for: key projections of a key-sorted bag
/// are unique, full-row orders are not.
pub fn results_agree(
    reference: &Relation,
    got: &Relation,
    order: Option<&OrderSpec>,
) -> Option<String> {
    if !got.bag_eq(reference) {
        return Some(format!(
            "canonical returns {} rows, strategy returns {}",
            reference.len(),
            got.len()
        ));
    }
    if let Some(order) = order {
        let key_seq = |rel: &Relation| -> Vec<Vec<Value>> {
            rel.rows()
                .iter()
                .map(|row| {
                    order
                        .keys
                        .iter()
                        .map(|&(c, _)| row[(c - 1) as usize].clone())
                        .collect()
                })
                .collect()
        };
        if key_seq(reference) != key_seq(got) {
            return Some(
                "bags agree but ORDER BY key sequences differ (sort violated after unnesting)"
                    .to_string(),
            );
        }
    }
    None
}

/// Does `strategy` disagree with canonical on this query + instance?
/// Returns a human-readable divergence description, if any.
fn divergence(
    exec: &dyn QueryExecutor,
    db: &Database,
    sql: &str,
    order: Option<&OrderSpec>,
    strategy: Strategy,
) -> Option<String> {
    let reference = match DefaultExecutor.execute(db, sql, Strategy::Canonical) {
        Ok(r) => r,
        // Queries the engine rejects are skipped, not failures — the
        // generator intentionally wanders to the grammar's edges.
        Err(_) => return None,
    };
    match exec.execute(db, sql, strategy) {
        Ok(got) => results_agree(&reference, &got, order)
            .map(|d| d.replace("strategy returns", &format!("{strategy} returns"))),
        Err(e) => Some(format!("{strategy} fails where canonical succeeds: {e}")),
    }
}

fn render_rows(rows: &[Vec<Value>]) -> String {
    let cells: Vec<String> = rows
        .iter()
        .map(|r| {
            let vals: Vec<String> = r.iter().map(|v| v.to_string()).collect();
            format!("({})", vals.join(", "))
        })
        .collect();
    cells.join(", ")
}

/// Per-case summary returned by [`run_case`] on success.
struct CaseStats {
    nested: bool,
    strategy_runs: u64,
    axis_runs: [u64; AXES.len()],
}

/// Derive the deterministic base seed for `case` within a run. Cases
/// are seeded independently so they can execute in any order (or on
/// any thread) without changing what each one generates.
pub fn case_seed(run_seed: u64, case: u32) -> u64 {
    if case == 0 {
        run_seed
    } else {
        let mut s = run_seed ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        crate::rng::split_mix64(&mut s)
    }
}

/// Run one oracle case: regenerate the query + instance from the
/// scheduled seed, execute every strategy, and minimize on divergence.
fn run_case(
    cfg: &OracleConfig,
    exec: &dyn QueryExecutor,
    case: u32,
    seed: u64,
) -> std::result::Result<CaseStats, Box<Mismatch>> {
    let mut rng = Rng::seed_from_u64(seed);
    let spec = arb_query(&mut rng, cfg);
    let r = random_rows(&mut rng, cfg);
    let s = random_rows(&mut rng, cfg);
    let t = random_rows(&mut rng, cfg);
    let db = build_database(&[("r", 'a', &r), ("s", 'b', &s), ("t", 'c', &t)]);
    let sql = spec.sql();
    let mut stats = CaseStats {
        nested: sql.contains("(SELECT"),
        strategy_runs: 0,
        axis_runs: [0; AXES.len()],
    };
    for &strategy in &cfg.strategies {
        stats.strategy_runs += 1;
        if let Some(detail) = divergence(exec, &db, &sql, spec.order.as_ref(), strategy) {
            return Err(Box::new(minimize(
                cfg, exec, case, seed, strategy, spec, r, s, t, detail,
            )));
        }
    }
    // The executor axes. No query shrinking here: a divergence is a
    // property of the executor (serial vs morsel-parallel, one-row vs
    // multi-row chunks, fused vs unfused), not of the rewrite, and the
    // case replays exactly from its seed.
    for (axis, runs) in AXES.iter().zip(&mut stats.axis_runs) {
        for &strategy in &cfg.strategies {
            *runs += 1;
            if let Some(detail) = axis_divergence(axis, &db, &sql, strategy) {
                return Err(Box::new(Mismatch {
                    case_seed: seed,
                    case,
                    strategy,
                    sql: sql.clone(),
                    fingerprint: bypass_core::fingerprint_sql(&sql).unwrap_or(0),
                    minimized_sql: sql.clone(),
                    detail: format!("{} axis: {detail}", axis.name),
                    instance: format!(
                        "    r: {}\n    s: {}\n    t: {}",
                        render_rows(&r),
                        render_rows(&s),
                        render_rows(&t)
                    ),
                    profiles: vec![profile_summary(&db, &sql, strategy)],
                }));
            }
        }
    }
    Ok(stats)
}

/// One executor configuration of an oracle axis.
#[derive(Debug, Clone, Copy)]
struct Leg {
    name: &'static str,
    threads: usize,
    /// A forced fork gate (`None`: the production one, which oracle-sized
    /// inputs never pass).
    morsel_rows: Option<usize>,
    batch_rows: Option<usize>,
    /// Planned with stage-chain fusion, the one [`PlanOptions`] switch
    /// (off: one σ, Π or χ per pipeline).
    fused: bool,
    /// `None`: the plan as the engine compiles it. `Some(f)`: compiled by
    /// hand — nesting rewrite, join ordering, then `f` where the engine
    /// calls `prune_columns` (the unpruned leg passes `Arc::clone`: it
    /// just does not call the function).
    columns: Option<PlanFn>,
}

/// A logical plan-to-plan step of a hand-compiled leg of an [`Axis`].
pub type PlanFn = fn(&Arc<LogicalPlan>) -> Arc<LogicalPlan>;

const SERIAL: Leg = Leg {
    name: "serial",
    threads: 1,
    morsel_rows: None,
    batch_rows: None,
    fused: true,
    columns: None,
};

const PARALLEL: Leg = Leg {
    name: "parallel",
    threads: PAR_AXIS_THREADS,
    morsel_rows: Some(PAR_AXIS_MORSEL_ROWS),
    ..SERIAL
};

/// What two legs of an axis must agree on, besides the row *sequence*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Compare {
    /// Identical [`ExecCounters`] — memo totals, governed peak bytes,
    /// checkpoint count — and, when both fail, the identical message.
    Exact,
    /// The same typed [`bypass_types::Error`] variant when both fail.
    /// Counters are not compared and messages may name a different
    /// first offender.
    ErrorKindOnly,
}

/// An executor axis of the oracle: every (case, strategy) pair runs
/// under `legs[0]` and `legs[1]`, which must agree as `compare` says;
/// each further leg must agree with `legs[1]` exactly.
#[derive(Debug)]
pub struct Axis {
    pub name: &'static str,
    legs: &'static [Leg],
    compare: Compare,
}

/// The executor-axis row for column pruning, also what
/// [`pruning_divergence`] compares a planted bug against.
// A pruned plan builds narrower rows, runs a shared ν once and ticks once
// per row at every Π it inserts, so charges and checkpoints differ
// *between* the two plans by design; rows, their order and the kind of
// error may not (DESIGN.md §2b). The parallel axis runs the pruned plan,
// so the unpruned one is checked there too.
const PRUNED_VS_UNPRUNED: Axis = Axis {
    name: "pruned-vs-unpruned",
    legs: &[
        Leg {
            name: "pruned",
            ..SERIAL
        },
        UNPRUNED,
        Leg {
            name: "parallel unpruned",
            columns: Some(Arc::clone),
            ..PARALLEL
        },
    ],
    compare: Compare::ErrorKindOnly,
};

const UNPRUNED: Leg = Leg {
    name: "unpruned",
    columns: Some(Arc::clone),
    ..SERIAL
};

/// The executor axes every case is crossed with, in report order.
pub const AXES: [Axis; 4] = [
    // One worker against the morsel pool.
    Axis {
        name: "parallel-vs-serial",
        legs: &[SERIAL, PARALLEL],
        compare: Compare::Exact,
    },
    // One-row chunks against a length at which oracle-sized inputs
    // span several chunks; both serial, to isolate the axis.
    Axis {
        name: "chunk-length",
        legs: &[
            Leg {
                name: "chunk length 1",
                batch_rows: Some(1),
                ..SERIAL
            },
            Leg {
                name: "chunk length 3",
                batch_rows: Some(BATCH_AXIS_ROWS),
                ..SERIAL
            },
        ],
        compare: Compare::Exact,
    },
    // A fused stage sees rows in the order it would in a pipeline of its
    // own, but interleaves its stages row by row (DESIGN.md §7) and
    // saves governor charges, so counters differ *between* the two
    // plans by design. The unfused plan's own counters must still be
    // worker-count independent (the parallel axis runs the fused one).
    Axis {
        name: "fused-vs-unfused",
        legs: &[
            Leg {
                name: "fused",
                ..SERIAL
            },
            Leg {
                name: "unfused",
                fused: false,
                ..SERIAL
            },
            Leg {
                name: "parallel unfused",
                fused: false,
                ..PARALLEL
            },
        ],
        compare: Compare::ErrorKindOnly,
    },
    PRUNED_VS_UNPRUNED,
];

type LegRun = Result<(Relation, ExecCounters)>;

fn run_leg(db: &Database, sql: &str, strategy: Strategy, leg: &Leg) -> LegRun {
    if leg.fused && leg.columns.is_none() {
        let limits = RunLimits {
            threads: Some(leg.threads),
            morsel_rows: leg.morsel_rows,
            batch_rows: leg.batch_rows,
            ..RunLimits::default()
        };
        return db.run_governed(sql, strategy, &limits);
    }
    // No SQL entry point plans without fusion or without column
    // pruning: compile by hand.
    let logical = db.logical_plan(sql).and_then(|c| match leg.columns {
        None => strategy.prepare(&c),
        Some(columns) => strategy
            .rewrite_nesting(&c)
            .map(|nested| columns(&bypass_unnest::optimize_joins(&nested))),
    });
    bypass_unnest::take_outcomes();
    let plan_options = PlanOptions {
        fuse_stage_chains: leg.fused,
    };
    let physical = physical_plan_with(&logical?, db.catalog(), plan_options)?;
    let mut options = strategy.exec_options();
    options.threads = leg.threads;
    if let Some(m) = leg.morsel_rows {
        options.morsel_rows = m;
    }
    if let Some(b) = leg.batch_rows {
        options.batch_rows = b;
    }
    let mut ctx = ExecContext::new(options);
    let rows = ctx.eval_plan(&physical)?;
    Ok((rows, ctx.counters()))
}

/// How `b`'s run disagrees with `a`'s, if it does.
fn compare_legs(how: Compare, a: (&Leg, &LegRun), b: (&Leg, &LegRun)) -> Option<String> {
    let ((a, a_run), (b, b_run)) = (a, b);
    match (a_run, b_run) {
        (Ok((a_rows, a_counters)), Ok((b_rows, b_counters))) => {
            if a_rows.rows() != b_rows.rows() {
                return Some(format!(
                    "{} row sequence diverges from {}: {} rows against {} rows",
                    b.name,
                    a.name,
                    b_rows.len(),
                    a_rows.len()
                ));
            }
            (how == Compare::Exact && a_counters != b_counters).then(|| {
                format!(
                    "{} counters diverge from {}: {b_counters:?} against {a_counters:?}",
                    b.name, a.name
                )
            })
        }
        (Err(a_err), Err(b_err)) => {
            let same = match how {
                Compare::Exact => a_err.to_string() == b_err.to_string(),
                Compare::ErrorKindOnly => {
                    std::mem::discriminant(a_err) == std::mem::discriminant(b_err)
                }
            };
            (!same).then(|| {
                format!(
                    "{} and {} fail differently: `{a_err}` against `{b_err}`",
                    a.name, b.name
                )
            })
        }
        (Ok(_), Err(e)) => Some(format!("{} fails where {} succeeds: {e}", b.name, a.name)),
        (Err(e), Ok(_)) => Some(format!("{} fails where {} succeeds: {e}", a.name, b.name)),
    }
}

/// Does the executor disagree with itself along `axis` on this query +
/// instance under `strategy`?
fn axis_divergence(axis: &Axis, db: &Database, sql: &str, strategy: Strategy) -> Option<String> {
    // `Strategy::prepare`, which a hand-compiled leg goes through, needs
    // a concrete strategy; cost-based resolves to one this axis covers.
    let by_hand = |leg: &Leg| !leg.fused || leg.columns.is_some();
    if strategy == Strategy::CostBased && axis.legs.iter().any(by_hand) {
        return None;
    }
    let run = |leg: &Leg| run_leg(db, sql, strategy, leg);
    let (first, second) = (&axis.legs[0], &axis.legs[1]);
    let (first_run, second_run) = (run(first), run(second));
    let detail = compare_legs(axis.compare, (first, &first_run), (second, &second_run));
    if detail.is_some() || second_run.is_err() {
        return detail;
    }
    axis.legs[2..]
        .iter()
        .find_map(|leg| compare_legs(Compare::Exact, (second, &second_run), (leg, &run(leg))))
}

/// The `pruned-vs-unpruned` comparison with `pruner` where the engine
/// calls `prune_columns` — how a planted pruning bug
/// ([`crate::mutate::prune_columns_misaligned`]) is shown to the axis.
pub fn pruning_divergence(
    db: &Database,
    sql: &str,
    strategy: Strategy,
    pruner: PlanFn,
) -> Option<String> {
    let pruned = Leg {
        name: "pruned",
        columns: Some(pruner),
        ..SERIAL
    };
    let run = |leg: &Leg| run_leg(db, sql, strategy, leg);
    compare_legs(
        PRUNED_VS_UNPRUNED.compare,
        (&pruned, &run(&pruned)),
        (&UNPRUNED, &run(&UNPRUNED)),
    )
}

/// Run the differential oracle with the default executor.
pub fn run_differential(cfg: &OracleConfig) -> std::result::Result<OracleReport, Box<Mismatch>> {
    run_differential_with(cfg, &DefaultExecutor)
}

/// Run the differential oracle with a custom executor (bug planting).
pub fn run_differential_with(
    cfg: &OracleConfig,
    exec: &dyn QueryExecutor,
) -> std::result::Result<OracleReport, Box<Mismatch>> {
    let schedule = schedule_cases(cfg);
    let mut report = OracleReport {
        cases: 0,
        strategy_runs: 0,
        axis_runs: [0; AXES.len()],
        nested_queries: 0,
        coverage: schedule.coverage,
    };
    for (case, &seed) in schedule.seeds.iter().enumerate() {
        let stats = run_case(cfg, exec, case as u32, seed)?;
        report.cases += 1;
        report.strategy_runs += stats.strategy_runs;
        report.add_axis_runs(&stats.axis_runs);
        if stats.nested {
            report.nested_queries += 1;
        }
    }
    Ok(report)
}

/// Run the differential oracle with up to `threads` scoped workers.
///
/// The coverage-guided schedule is computed sequentially up front;
/// cases are then independent units (each regenerates its query +
/// instance from its scheduled seed), so they fan out over
/// [`bypass_types::par`]'s atomic-counter driver. The report and —
/// crucially — any reported mismatch are **identical to the sequential
/// run for every thread count**: results come back in input order, and
/// on failure the mismatch with the lowest case index wins
/// deterministically.
///
/// `threads == 0` means "use [`bypass_types::par::thread_count`]"
/// (i.e. honour `BYPASS_THREADS`, defaulting to available parallelism).
pub fn run_differential_parallel(
    cfg: &OracleConfig,
    exec: &dyn QueryExecutor,
    threads: usize,
) -> std::result::Result<OracleReport, Box<Mismatch>> {
    let threads = if threads == 0 {
        bypass_types::par::thread_count()
    } else {
        threads
    };
    let schedule = schedule_cases(cfg);
    let cases: Vec<(u32, u64)> = schedule
        .seeds
        .iter()
        .enumerate()
        .map(|(i, &s)| (i as u32, s))
        .collect();
    let stats = bypass_types::par::scoped_try_map(&cases, threads, |_, &(case, seed)| {
        run_case(cfg, exec, case, seed)
    })
    .map_err(|(_, m)| m)?;
    let mut report = OracleReport {
        cases: cfg.cases,
        strategy_runs: 0,
        axis_runs: [0; AXES.len()],
        nested_queries: 0,
        coverage: schedule.coverage,
    };
    for s in &stats {
        report.strategy_runs += s.strategy_runs;
        report.add_axis_runs(&s.axis_runs);
        if s.nested {
            report.nested_queries += 1;
        }
    }
    Ok(report)
}

/// Minimize a failing case: shrink the query spec greedily, then
/// delta-debug the table rows, re-checking the divergence at each step.
#[allow(clippy::too_many_arguments)]
fn minimize(
    cfg: &OracleConfig,
    exec: &dyn QueryExecutor,
    case: u32,
    case_seed: u64,
    strategy: Strategy,
    spec: QuerySpec,
    mut r: Vec<Vec<Value>>,
    mut s: Vec<Vec<Value>>,
    mut t: Vec<Vec<Value>>,
    detail: String,
) -> Mismatch {
    let original_sql = spec.sql();
    let mut current = spec;
    let mut final_detail = detail;

    let still_fails = |q: &QuerySpec, r: &[Vec<Value>], s: &[Vec<Value>], t: &[Vec<Value>]| {
        let db = build_database(&[("r", 'a', r), ("s", 'b', s), ("t", 'c', t)]);
        divergence(exec, &db, &q.sql(), q.order.as_ref(), strategy)
    };

    if cfg.minimize {
        // 1. Query shrinking.
        let mut budget = 64;
        'query: while budget > 0 {
            budget -= 1;
            for candidate in current.shrink() {
                if let Some(d) = still_fails(&candidate, &r, &s, &t) {
                    current = candidate;
                    final_detail = d;
                    continue 'query;
                }
            }
            break;
        }
        // 2. Data shrinking, table by table.
        for _ in 0..3 {
            for table_idx in 0..3 {
                // Halving passes, then single-row removal.
                loop {
                    let n = [r.len(), s.len(), t.len()][table_idx];
                    if n == 0 {
                        break;
                    }
                    let source: &[Vec<Value>] = [&r[..], &s[..], &t[..]][table_idx];
                    let half: Vec<Vec<Value>> = source[..n / 2].to_vec();
                    let mut trial = (r.clone(), s.clone(), t.clone());
                    match table_idx {
                        0 => trial.0 = half,
                        1 => trial.1 = half,
                        _ => trial.2 = half,
                    }
                    if let Some(d) = still_fails(&current, &trial.0, &trial.1, &trial.2) {
                        r = trial.0;
                        s = trial.1;
                        t = trial.2;
                        final_detail = d;
                    } else {
                        break;
                    }
                }
                // Single-row removal (bounded).
                let mut i = 0;
                while i < [r.len(), s.len(), t.len()][table_idx] && i < 32 {
                    let mut trial = (r.clone(), s.clone(), t.clone());
                    match table_idx {
                        0 => {
                            trial.0.remove(i);
                        }
                        1 => {
                            trial.1.remove(i);
                        }
                        _ => {
                            trial.2.remove(i);
                        }
                    }
                    if let Some(d) = still_fails(&current, &trial.0, &trial.1, &trial.2) {
                        r = trial.0;
                        s = trial.1;
                        t = trial.2;
                        final_detail = d;
                    } else {
                        i += 1;
                    }
                }
            }
        }
    }

    // Attach traced phase timings + counters of both strategies on the
    // minimized repro: when a rewrite diverges, the first question is
    // *what plan shape executed* — the bypass split and memo counters
    // answer it without re-running under a debugger.
    let minimized_sql = current.sql();
    let db = build_database(&[("r", 'a', &r), ("s", 'b', &s), ("t", 'c', &t)]);
    let profiles = vec![
        profile_summary(&db, &minimized_sql, Strategy::Canonical),
        profile_summary(&db, &minimized_sql, strategy),
    ];

    Mismatch {
        case_seed,
        case,
        strategy,
        fingerprint: bypass_core::fingerprint_sql(&original_sql).unwrap_or(0),
        sql: original_sql,
        minimized_sql,
        detail: final_detail,
        instance: format!(
            "    r: {}\n    s: {}\n    t: {}",
            render_rows(&r),
            render_rows(&s),
            render_rows(&t)
        ),
        profiles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_queries_parse_and_cover_shapes() {
        let cfg = OracleConfig::default();
        let mut rng = Rng::seed_from_u64(1);
        let db = random_instance(&mut rng, &cfg);
        let mut nested = 0;
        let mut disjunctive = 0;
        let mut quantified = 0;
        let mut distinct_agg = 0;
        let mut multi_level = 0;
        let mut depth3 = 0;
        let mut derived = 0;
        let mut ordered = 0;
        let mut limited = 0;
        for _ in 0..600 {
            let spec = arb_query(&mut rng, &cfg);
            let sql = spec.sql();
            let plan = db.logical_plan(&sql);
            assert!(plan.is_ok(), "generated SQL must parse+translate: {sql}");
            if plan.unwrap().contains_subquery() {
                nested += 1;
            }
            if sql.contains(" OR ") {
                disjunctive += 1;
            }
            if sql.contains("EXISTS")
                || sql.contains(" IN (")
                || sql.contains(" ANY ")
                || sql.contains(" ALL ")
            {
                quantified += 1;
            }
            if sql.contains("DISTINCT *")
                || sql.contains("DISTINCT b")
                || sql.contains("DISTINCT c")
            {
                distinct_agg += 1;
            }
            if spec.max_depth() >= 2 {
                multi_level += 1;
            }
            if spec.max_depth() >= 3 {
                depth3 += 1;
            }
            if spec.has_derived() {
                derived += 1;
            }
            if spec.has_order() {
                ordered += 1;
            }
            if spec.has_limit() {
                limited += 1;
            }
        }
        assert!(nested > 500, "most queries nest: {nested}");
        assert!(
            disjunctive > 400,
            "disjunction is the centrepiece: {disjunctive}"
        );
        assert!(quantified > 40, "quantified forms occur: {quantified}");
        assert!(
            distinct_agg > 40,
            "DISTINCT aggregates occur: {distinct_agg}"
        );
        // PR 4 grammar widening: the composed shapes all occur.
        assert!(
            multi_level > 60,
            "multi-level nesting occurs: {multi_level}"
        );
        assert!(depth3 > 5, "depth-3 nesting occurs: {depth3}");
        assert!(derived > 60, "derived inner tables occur: {derived}");
        assert!(ordered > 60, "ORDER BY wrapping occurs: {ordered}");
        assert!(limited > 25, "LIMIT wrapping occurs: {limited}");
    }

    /// Shrinking a multi-level query must be able to reduce its
    /// nesting depth, and repeated shrinking must reach depth ≤ 1.
    #[test]
    fn shrinking_reduces_nesting_depth() {
        let cfg = OracleConfig::default();
        let mut rng = Rng::seed_from_u64(9);
        let mut checked = 0;
        for _ in 0..2000 {
            let spec = arb_query(&mut rng, &cfg);
            if spec.max_depth() < 2 {
                continue;
            }
            checked += 1;
            // One-step: some candidate is strictly shallower.
            assert!(
                spec.shrink()
                    .iter()
                    .any(|c| c.max_depth() < spec.max_depth()),
                "no depth-reducing shrink for: {}",
                spec.sql()
            );
            // Greedy chain: always following a shallower candidate
            // terminates at a single-level query.
            let mut current = spec;
            while current.max_depth() > 1 {
                current = current
                    .shrink()
                    .into_iter()
                    .find(|c| c.max_depth() < current.max_depth())
                    .expect("depth-reducing candidate exists");
            }
            if checked >= 40 {
                break;
            }
        }
        assert!(checked >= 40, "enough multi-level specs: {checked}");
    }

    #[test]
    fn small_clean_run_passes() {
        let cfg = OracleConfig {
            cases: 25,
            ..OracleConfig::default()
        };
        let report = run_differential(&cfg).unwrap_or_else(|m| panic!("{m}"));
        assert_eq!(report.cases, 25);
        assert_eq!(report.strategy_runs, 25 * Strategy::all().len() as u64);
        assert!(!report.coverage.is_empty(), "coverage recorded");
    }

    #[test]
    fn shrinking_query_specs_terminates() {
        let cfg = OracleConfig::default();
        let mut rng = Rng::seed_from_u64(77);
        for _ in 0..50 {
            let spec = arb_query(&mut rng, &cfg);
            let mut frontier = vec![spec];
            for _ in 0..6 {
                frontier = frontier
                    .into_iter()
                    .flat_map(|q| q.shrink().into_iter().take(2))
                    .collect();
                if frontier.is_empty() {
                    break;
                }
            }
        }
    }

    /// The schedule is deterministic and biased: rare tags keep being
    /// selected, and replay runs (1 case, empty coverage) always take
    /// attempt 0 — the seed printed in a mismatch report.
    #[test]
    fn schedule_is_deterministic_and_replayable() {
        let cfg = OracleConfig {
            cases: 40,
            ..OracleConfig::default()
        };
        let a = schedule_cases(&cfg);
        let b = schedule_cases(&cfg);
        assert_eq!(a, b, "schedule must be a pure function of the config");
        // Replay contract: a 1-case run seeded at any scheduled seed
        // regenerates that exact query as case 0.
        for &seed in a.seeds.iter().take(5) {
            let replay = OracleConfig {
                cases: 1,
                seed,
                ..OracleConfig::default()
            };
            let replayed = schedule_cases(&replay);
            assert_eq!(replayed.seeds, vec![seed]);
        }
    }

    /// The rewrite fingerprint distinguishes the paper's equivalences.
    #[test]
    fn fingerprint_distinguishes_rewrite_shapes() {
        let db = fingerprint_database();
        let eqv1 = rewrite_fingerprint(
            &db,
            "SELECT * FROM r WHERE a1 = (SELECT SUM(b1) FROM s WHERE a2 = b2)",
        );
        assert!(
            eqv1.iter().any(|t| t.starts_with("eqv1:")),
            "conjunctive linking fires Eqv. 1: {eqv1:?}"
        );
        let disj = rewrite_fingerprint(
            &db,
            "SELECT * FROM r WHERE a1 = (SELECT SUM(b1) FROM s WHERE a2 = b2) OR a3 > 1",
        );
        assert!(
            disj.iter().any(|t| t == "bypass-chain"),
            "disjunctive linking runs the bypass chain: {disj:?}"
        );
        let flat = rewrite_fingerprint(&db, "SELECT * FROM r WHERE a1 > 2");
        assert_eq!(flat, vec!["no-rewrite".to_string()]);
        let bad = rewrite_fingerprint(&db, "SELECT nope FROM missing");
        assert_eq!(bad, vec!["reject:untranslatable".to_string()]);
    }
}
