//! Column kernels and adaptive disjunct chains: how σ and σ± evaluate
//! their predicate.
//!
//! Every filter predicate is compiled once per plan node into a
//! [`CompiledChain`] — one [`ChainTerm`] per top-level ORed disjunct
//! (or ANDed conjunct; any other predicate is a chain of one term) —
//! each term carrying
//!
//! * an optional column [`Kernel`] — a comparison-only fragment that
//!   can be evaluated element-wise over a columnar
//!   [`bypass_types::Batch`] and a selection vector of surviving lanes,
//! * an optional nested chain (a conjunctive term inside a disjunction
//!   is itself adaptively ordered, and vice versa),
//! * a `movable` flag from the *value-error* analysis below, and
//! * a static cost class.
//!
//! **Adaptive ordering (BestD).** Per-term reach/decide counters feed a
//! rank `cost × reach ⁄ decide` (expected cost per decided row); at
//! fixed row-count epochs ([`EPOCH_ROWS`]) every maximal run of
//! *movable* terms is re-sorted ascending by that rank, so cheap
//! selective disjuncts migrate ahead of expensive unselective ones.
//! Determinism invariants (DESIGN.md §8):
//!
//! * costs are static classes, never measured timings;
//! * epoch boundaries are row counts — independent of chunk length,
//!   morsel size and worker count;
//! * counters fold commutatively (per-morsel sums), so worker counts
//!   cannot perturb the rank;
//! * ties (and terms never observed to decide) fall back to syntactic
//!   order.
//!
//! **Error pinning.** A term that can raise a *value* error (division,
//! overflow, CAST-like coercions, fallible subplans) is a barrier: it
//! keeps its syntactic position, and movable terms only reorder within
//! runs of consecutive movable terms. Because an infallible,
//! side-effect-free term neither errors nor changes which rows reach a
//! barrier (a row reaches term *k* iff no *other* term of the chain
//! decided it — a set property, independent of evaluation order), the
//! first value error raised — if any — is identical to the syntactic
//! order's. Resource errors (budgets, deadlines, cancellation,
//! injected faults) are deliberately outside this analysis: they are a
//! deterministic function of engine configuration, and the chosen
//! order never depends on chunk length or worker count, so they too
//! stay reproducible.

use std::cmp::Ordering;

use bypass_algebra::BinOp;
use bypass_types::{Batch, Truth, Tuple, Value};

use crate::expr::value_truth;
use crate::node::{PhysKind, PhysNode};
use crate::PhysExpr;

/// Rows per adaptivity epoch: ranks are recomputed after every
/// `EPOCH_ROWS` input rows of a chained filter call. A pure constant —
/// deriving it from morsel or batch geometry would make the chosen
/// order depend on `threads`/`morsel_rows`/`batch_rows` and break the
/// bit-identity gates.
pub const EPOCH_ROWS: usize = 256;

/// Static cost class of a kernel term (cheap column comparison).
const COST_KERNEL: u64 = 1;
/// Static cost class of a non-kernel term without subqueries.
const COST_FALLBACK: u64 = 8;
/// Static cost class of a term containing a subquery.
const COST_SUBQUERY: u64 = 4096;

/// A scalar operand of a column kernel.
#[derive(Debug, Clone)]
pub enum Operand {
    /// Column of the batch.
    Col(usize),
    /// Constant.
    Lit(Value),
    /// Correlation reference into the outer binding stack (resolution
    /// verified per call by [`chain_bindable`]).
    Outer { depth: usize, index: usize },
}

impl Operand {
    fn get<'a>(&'a self, batch: &'a Batch, row: usize, outer: &'a [Tuple]) -> &'a Value {
        match self {
            Operand::Col(i) => &batch.column(*i)[row],
            Operand::Lit(v) => v,
            Operand::Outer { depth, index } => &outer[outer.len() - depth].values()[*index],
        }
    }
}

/// A predicate fragment evaluable element-wise over a [`Batch`] — the
/// exact expression class of `eval_truth`'s borrow-only fast path, so
/// kernel and interpreter evaluation are equal by construction.
#[derive(Debug, Clone)]
pub enum Kernel {
    And(Box<Kernel>, Box<Kernel>),
    Or(Box<Kernel>, Box<Kernel>),
    Not(Box<Kernel>),
    Cmp {
        op: BinOp,
        left: Operand,
        right: Operand,
    },
    IsNull {
        negated: bool,
        operand: Operand,
    },
    Truthy(Operand),
}

impl Kernel {
    /// Evaluate one lane. `And`/`Or` fold without short-circuit —
    /// semantically identical because `FALSE AND x = FALSE` and
    /// `TRUE OR x = TRUE` for every 3-valued `x`, and kernels are
    /// infallible and effect-free.
    pub fn eval_lane(&self, batch: &Batch, row: usize, outer: &[Tuple]) -> Truth {
        match self {
            Kernel::And(l, r) => l
                .eval_lane(batch, row, outer)
                .and(r.eval_lane(batch, row, outer)),
            Kernel::Or(l, r) => l
                .eval_lane(batch, row, outer)
                .or(r.eval_lane(batch, row, outer)),
            Kernel::Not(k) => k.eval_lane(batch, row, outer).not(),
            Kernel::Cmp { op, left, right } => cmp_op_truth(
                *op,
                left.get(batch, row, outer),
                right.get(batch, row, outer),
            ),
            Kernel::IsNull { negated, operand } => {
                if operand.get(batch, row, outer).is_null() != *negated {
                    Truth::True
                } else {
                    Truth::False
                }
            }
            Kernel::Truthy(operand) => value_truth(operand.get(batch, row, outer)),
        }
    }

    /// The `column ⟨cmp⟩ constant` shape, with the constant resolved
    /// against the current outer bindings — the hot case the chunk
    /// loop runs as a tight loop over the column slice with no
    /// per-lane operand dispatch.
    pub fn col_cmp<'a>(&'a self, outer: &'a [Tuple]) -> Option<(BinOp, usize, &'a Value)> {
        let Kernel::Cmp { op, left, right } = self else {
            return None;
        };
        let resolve = |o: &'a Operand| -> Option<&'a Value> {
            match o {
                Operand::Lit(v) => Some(v),
                Operand::Outer { depth, index } => {
                    Some(&outer[outer.len() - depth].values()[*index])
                }
                Operand::Col(_) => None,
            }
        };
        match (left, right) {
            (Operand::Col(c), r) => Some((*op, *c, resolve(r)?)),
            (l, Operand::Col(c)) => Some((mirror_cmp(*op), *c, resolve(l)?)),
            _ => None,
        }
    }
}

/// `a op b` ⇔ `b (mirror op) a` — used to normalize `const ⟨cmp⟩ col`
/// into the column-on-the-left fast shape.
fn mirror_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::LtEq => BinOp::GtEq,
        BinOp::Gt => BinOp::Lt,
        BinOp::GtEq => BinOp::LtEq,
        // Eq / Neq are symmetric.
        other => other,
    }
}

/// Truth of `l ⟨op⟩ r` for a comparison operator.
pub(crate) fn cmp_op_truth(op: BinOp, l: &Value, r: &Value) -> Truth {
    match op {
        BinOp::Eq => l.sql_eq(r),
        BinOp::Neq => l.sql_eq(r).not(),
        BinOp::Lt => cmp_truth(l, r, |o| o == Ordering::Less),
        BinOp::LtEq => cmp_truth(l, r, |o| o != Ordering::Greater),
        BinOp::Gt => cmp_truth(l, r, |o| o == Ordering::Greater),
        BinOp::GtEq => cmp_truth(l, r, |o| o != Ordering::Less),
        // compile_kernel only emits comparison ops.
        _ => unreachable!("non-comparison op in kernel"),
    }
}

fn cmp_truth(l: &Value, r: &Value, pred: impl Fn(Ordering) -> bool) -> Truth {
    match l.sql_cmp(r) {
        None => Truth::Unknown,
        Some(o) => {
            if pred(o) {
                Truth::True
            } else {
                Truth::False
            }
        }
    }
}

fn operand(e: &PhysExpr, arity: usize) -> Option<Operand> {
    match e {
        PhysExpr::Column(i) if *i < arity => Some(Operand::Col(*i)),
        PhysExpr::Literal(v) => Some(Operand::Lit(v.clone())),
        PhysExpr::Outer { depth, index } if *depth >= 1 => Some(Operand::Outer {
            depth: *depth,
            index: *index,
        }),
        _ => None,
    }
}

/// Compile an expression into a column kernel, or `None` when it falls
/// outside the simple-comparison class.
pub fn compile_kernel(e: &PhysExpr, arity: usize) -> Option<Kernel> {
    match e {
        PhysExpr::Binary { op, left, right } => match op {
            BinOp::And => Some(Kernel::And(
                Box::new(compile_kernel(left, arity)?),
                Box::new(compile_kernel(right, arity)?),
            )),
            BinOp::Or => Some(Kernel::Or(
                Box::new(compile_kernel(left, arity)?),
                Box::new(compile_kernel(right, arity)?),
            )),
            BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
                Some(Kernel::Cmp {
                    op: *op,
                    left: operand(left, arity)?,
                    right: operand(right, arity)?,
                })
            }
            _ => None,
        },
        PhysExpr::Not(x) => Some(Kernel::Not(Box::new(compile_kernel(x, arity)?))),
        PhysExpr::IsNull { negated, expr } => Some(Kernel::IsNull {
            negated: *negated,
            operand: operand(expr, arity)?,
        }),
        PhysExpr::Column(_) | PhysExpr::Outer { .. } | PhysExpr::Literal(_) => {
            Some(Kernel::Truthy(operand(e, arity)?))
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Value-error analysis: which terms are safe to reorder?
// ---------------------------------------------------------------------------

/// Can evaluating `e` over a row of `arity` columns raise a *value*
/// error (given that all its outer references resolve — checked per
/// call by [`chain_bindable`])? Conservative: `true` when unsure.
fn expr_can_raise(e: &PhysExpr, arity: usize) -> bool {
    match e {
        PhysExpr::Column(i) => *i >= arity,
        PhysExpr::Literal(_) | PhysExpr::Outer { .. } => false,
        PhysExpr::Binary { op, left, right } => match op {
            BinOp::And
            | BinOp::Or
            | BinOp::Eq
            | BinOp::Neq
            | BinOp::Lt
            | BinOp::LtEq
            | BinOp::Gt
            | BinOp::GtEq => expr_can_raise(left, arity) || expr_can_raise(right, arity),
            // Arithmetic overflows / divides by zero / type-errors;
            // Least/Greatest error on incomparable values.
            _ => true,
        },
        PhysExpr::Not(x) => expr_can_raise(x, arity),
        // Negation type-errors on non-numeric input.
        PhysExpr::Neg(_) => true,
        PhysExpr::IsNull { expr, .. } => expr_can_raise(expr, arity),
        // LIKE pattern compilation can fail.
        PhysExpr::Like { .. } => true,
        PhysExpr::InList { expr, list, .. } => {
            expr_can_raise(expr, arity) || list.iter().any(|e| expr_can_raise(e, arity))
        }
        // A scalar subquery errors when it yields more than one row;
        // it is movable only when the plan *statically* yields at most
        // one row with at least one column and is value-infallible.
        PhysExpr::Subquery { plan, .. } => {
            !(plan.schema.arity() >= 1
                && plan_at_most_one_row(plan)
                && plan_value_infallible(plan, arity))
        }
        PhysExpr::Exists { plan, .. } => !plan_value_infallible(plan, arity),
        // Conservative: zero-column subqueries error, quantified
        // comparisons use fallible binops.
        PhysExpr::InSubquery { .. } | PhysExpr::QuantifiedCmp { .. } => true,
    }
}

/// Does this plan statically produce at most one row?
fn plan_at_most_one_row(n: &PhysNode) -> bool {
    match &n.kind {
        // Scalar aggregation yields exactly one row.
        PhysKind::HashAggregate { keys, .. } if keys.is_empty() => true,
        PhysKind::Limit { input, n } => *n <= 1 || plan_at_most_one_row(input),
        PhysKind::Filter { input, .. }
        | PhysKind::Project { input, .. }
        | PhysKind::Map { input, .. }
        | PhysKind::Numbering { input }
        | PhysKind::Distinct { input }
        | PhysKind::Sort { input, .. }
        | PhysKind::Alias { input } => plan_at_most_one_row(input),
        _ => false,
    }
}

/// The arity the expressions of `n` are evaluated against. Join-like
/// operators evaluate key expressions per side and predicates over the
/// concatenation; the concatenated arity is a superset bound, which is
/// exact for planner-produced plans (per-side keys reference per-side
/// columns).
fn exprs_arity(n: &PhysNode) -> usize {
    let kids = n.children();
    match kids.len() {
        0 => 0,
        1 => kids[0].schema.arity(),
        _ => kids.iter().map(|c| c.schema.arity()).sum(),
    }
}

/// Can evaluating this plan raise a *value* error? Checks every
/// operator expression plus aggregate fallibility. `outer_arity` is
/// the arity of the row a depth-1 correlation reference resolves to
/// (the filter input row pushed by the subquery driver); deeper
/// references resolve against the call-time binding stack and are
/// conservatively treated as fallible.
fn plan_value_infallible(n: &PhysNode, outer_arity: usize) -> bool {
    let aggs_ok = match &n.kind {
        PhysKind::HashAggregate { aggs, .. } => aggs.iter().all(|a| a.infallible()),
        PhysKind::BinaryGroupEq { agg, .. } | PhysKind::BinaryGroupTheta { agg, .. } => {
            agg.infallible()
        }
        _ => true,
    };
    aggs_ok
        && n.exprs()
            .iter()
            .all(|e| plan_expr_infallible(e, exprs_arity(n), outer_arity))
        && n.children()
            .iter()
            .all(|c| plan_value_infallible(c, outer_arity))
}

/// [`expr_can_raise`] inverted for expressions *inside* a subquery
/// plan: depth-1 outer references are bound-checked statically against
/// the pushed row's arity, deeper ones (and nested subqueries) are
/// conservatively fallible.
fn plan_expr_infallible(e: &PhysExpr, arity: usize, outer_arity: usize) -> bool {
    match e {
        PhysExpr::Column(i) => *i < arity,
        PhysExpr::Literal(_) => true,
        PhysExpr::Outer { depth, index } => *depth == 1 && *index < outer_arity,
        PhysExpr::Binary {
            op:
                BinOp::And
                | BinOp::Or
                | BinOp::Eq
                | BinOp::Neq
                | BinOp::Lt
                | BinOp::LtEq
                | BinOp::Gt
                | BinOp::GtEq,
            left,
            right,
        } => {
            plan_expr_infallible(left, arity, outer_arity)
                && plan_expr_infallible(right, arity, outer_arity)
        }
        PhysExpr::Binary { .. } => false,
        PhysExpr::Not(x) => plan_expr_infallible(x, arity, outer_arity),
        PhysExpr::IsNull { expr, .. } => plan_expr_infallible(expr, arity, outer_arity),
        PhysExpr::InList { expr, list, .. } => {
            plan_expr_infallible(expr, arity, outer_arity)
                && list
                    .iter()
                    .all(|e| plan_expr_infallible(e, arity, outer_arity))
        }
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Compiled chains.
// ---------------------------------------------------------------------------

/// One disjunct (or conjunct) of a compiled chain.
#[derive(Debug)]
pub struct ChainTerm {
    /// The original expression — what `eval_truth` runs when the term
    /// has no kernel, or no kernel may run.
    pub expr: PhysExpr,
    /// Column kernel when the whole term is kernel-compilable.
    pub kernel: Option<Kernel>,
    /// Nested chain when the term is itself an AND/OR of ≥ 2 parts.
    pub nested: Option<Box<CompiledChain>>,
    /// Safe to reorder (cannot raise a value error)?
    pub movable: bool,
    /// Static cost class (never a measured timing).
    pub cost: u64,
}

/// A filter predicate decomposed into an adaptively ordered chain.
#[derive(Debug)]
pub struct CompiledChain {
    /// `true` = disjunction (decides on TRUE), `false` = conjunction
    /// (decides on FALSE).
    pub is_or: bool,
    pub terms: Vec<ChainTerm>,
    /// Does any level hold a run of ≥ 2 consecutive movable terms (so
    /// reordering can actually happen)?
    pub adaptive: bool,
    /// Columns read by the top-level kernels — the only columns the
    /// chunk loop needs transposed (nested chains evaluate their
    /// kernel-bearing terms through `eval_truth`). Sorted, deduped.
    pub cols: Vec<usize>,
}

impl CompiledChain {
    /// The truth value that terminates evaluation of a row.
    pub fn decide(&self) -> Truth {
        if self.is_or {
            Truth::True
        } else {
            Truth::False
        }
    }

    /// Fold identity for non-deciding term results.
    pub fn identity(&self) -> Truth {
        if self.is_or {
            Truth::False
        } else {
            Truth::True
        }
    }

    /// Commutative fold of a non-deciding term result.
    pub fn combine(&self, acc: Truth, t: Truth) -> Truth {
        if self.is_or {
            acc.or(t)
        } else {
            acc.and(t)
        }
    }
}

fn flatten<'a>(e: &'a PhysExpr, op: BinOp, out: &mut Vec<&'a PhysExpr>) {
    match e {
        PhysExpr::Binary { op: o, left, right } if *o == op => {
            flatten(left, op, out);
            flatten(right, op, out);
        }
        _ => out.push(e),
    }
}

fn has_movable_run(terms: &[ChainTerm]) -> bool {
    terms.windows(2).any(|w| w[0].movable && w[1].movable)
}

fn operand_col(o: &Operand, out: &mut Vec<usize>) {
    if let Operand::Col(i) = o {
        out.push(*i);
    }
}

fn kernel_cols(k: &Kernel, out: &mut Vec<usize>) {
    match k {
        Kernel::And(l, r) | Kernel::Or(l, r) => {
            kernel_cols(l, out);
            kernel_cols(r, out);
        }
        Kernel::Not(x) => kernel_cols(x, out),
        Kernel::Cmp { left, right, .. } => {
            operand_col(left, out);
            operand_col(right, out);
        }
        Kernel::IsNull { operand, .. } | Kernel::Truthy(operand) => operand_col(operand, out),
    }
}

/// Union of the columns read by the top-level kernels, sorted + deduped.
fn chain_cols(terms: &[ChainTerm]) -> Vec<usize> {
    let mut out = Vec::new();
    for t in terms {
        if let Some(k) = &t.kernel {
            kernel_cols(k, &mut out);
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

fn compile_term(e: &PhysExpr, arity: usize) -> ChainTerm {
    if let Some(kernel) = compile_kernel(e, arity) {
        return ChainTerm {
            expr: e.clone(),
            kernel: Some(kernel),
            nested: None,
            movable: true,
            cost: COST_KERNEL,
        };
    }
    if let PhysExpr::Binary { op, .. } = e {
        if matches!(op, BinOp::And | BinOp::Or) {
            let mut parts = Vec::new();
            flatten(e, *op, &mut parts);
            if parts.len() >= 2 {
                let terms: Vec<ChainTerm> = parts.iter().map(|p| compile_term(p, arity)).collect();
                let movable = terms.iter().all(|t| t.movable);
                let cost = terms.iter().map(|t| t.cost).sum();
                let adaptive = has_movable_run(&terms) || terms.iter().any(nested_adaptive);
                let cols = chain_cols(&terms);
                return ChainTerm {
                    expr: e.clone(),
                    kernel: None,
                    nested: Some(Box::new(CompiledChain {
                        is_or: *op == BinOp::Or,
                        terms,
                        adaptive,
                        cols,
                    })),
                    movable,
                    cost,
                };
            }
        }
    }
    ChainTerm {
        expr: e.clone(),
        kernel: None,
        nested: None,
        movable: !expr_can_raise(e, arity),
        cost: if e.contains_subquery() {
            COST_SUBQUERY
        } else {
            COST_FALLBACK
        },
    }
}

fn nested_adaptive(t: &ChainTerm) -> bool {
    t.nested.as_ref().is_some_and(|c| c.adaptive)
}

/// Compile a filter predicate into a chain: one term per top-level
/// disjunct (or conjunct); a predicate that is neither an OR nor an AND
/// is a one-term disjunction.
pub fn compile_chain(predicate: &PhysExpr, arity: usize) -> CompiledChain {
    let (is_or, parts) = match predicate {
        PhysExpr::Binary { op, .. } if matches!(op, BinOp::And | BinOp::Or) => {
            let mut parts = Vec::new();
            flatten(predicate, *op, &mut parts);
            (*op == BinOp::Or, parts)
        }
        _ => (true, vec![predicate]),
    };
    let terms: Vec<ChainTerm> = parts.iter().map(|p| compile_term(p, arity)).collect();
    let adaptive = has_movable_run(&terms) || terms.iter().any(nested_adaptive);
    let cols = chain_cols(&terms);
    CompiledChain {
        is_or,
        terms,
        adaptive,
        cols,
    }
}

/// Do all outer references of the chain's terms resolve against the
/// current binding stack? Kernels read them unchecked, so a call under
/// a stack that does not bind them runs without kernels and in
/// syntactic order, and fails in `eval_truth` if a row reaches one.
pub fn chain_bindable(chain: &CompiledChain, outer: &[Tuple]) -> bool {
    chain.terms.iter().all(|t| match &t.nested {
        Some(sub) => chain_bindable(sub, outer),
        None => term_outer_ok(&t.expr, outer),
    })
}

fn term_outer_ok(e: &PhysExpr, outer: &[Tuple]) -> bool {
    match e {
        PhysExpr::Outer { depth, index } => {
            *depth >= 1 && *depth <= outer.len() && *index < outer[outer.len() - depth].arity()
        }
        PhysExpr::Column(_) | PhysExpr::Literal(_) => true,
        PhysExpr::Binary { left, right, .. } => {
            term_outer_ok(left, outer) && term_outer_ok(right, outer)
        }
        PhysExpr::Not(x) | PhysExpr::Neg(x) => term_outer_ok(x, outer),
        PhysExpr::IsNull { expr, .. } => term_outer_ok(expr, outer),
        PhysExpr::Like { expr, pattern, .. } => {
            term_outer_ok(expr, outer) && term_outer_ok(pattern, outer)
        }
        PhysExpr::InList { expr, list, .. } => {
            term_outer_ok(expr, outer) && list.iter().all(|e| term_outer_ok(e, outer))
        }
        // In-plan depth-1 references bind to the pushed row (statically
        // checked at compile time); deeper ones made the term immovable,
        // and an immovable term raises its error at its syntactic place.
        PhysExpr::Subquery { .. } | PhysExpr::Exists { .. } => true,
        PhysExpr::InSubquery { expr, .. } | PhysExpr::QuantifiedCmp { expr, .. } => {
            term_outer_ok(expr, outer)
        }
    }
}

// ---------------------------------------------------------------------------
// Adaptive state: per-call counters and epoch-frozen orders.
// ---------------------------------------------------------------------------

/// Reach/decide counters per syntactic term, nested chains recursing.
/// Folded commutatively across morsels, so totals are worker-count
/// independent.
#[derive(Debug, Clone)]
pub struct ChainStats {
    /// Rows on which the term was (or would have been) evaluated.
    pub reach: Vec<u64>,
    /// Rows the term decided (TRUE under OR, FALSE under AND).
    pub decide: Vec<u64>,
    pub nested: Vec<Option<Box<ChainStats>>>,
}

impl ChainStats {
    pub fn zeroed(chain: &CompiledChain) -> Self {
        ChainStats {
            reach: vec![0; chain.terms.len()],
            decide: vec![0; chain.terms.len()],
            nested: chain
                .terms
                .iter()
                .map(|t| {
                    t.nested
                        .as_ref()
                        .map(|sub| Box::new(ChainStats::zeroed(sub)))
                })
                .collect(),
        }
    }

    /// Commutative elementwise fold.
    pub fn fold(&mut self, other: &ChainStats) {
        for (a, b) in self.reach.iter_mut().zip(&other.reach) {
            *a += b;
        }
        for (a, b) in self.decide.iter_mut().zip(&other.decide) {
            *a += b;
        }
        for (a, b) in self.nested.iter_mut().zip(&other.nested) {
            if let (Some(a), Some(b)) = (a.as_deref_mut(), b.as_deref()) {
                a.fold(b);
            }
        }
    }
}

/// A per-epoch frozen evaluation order (indices into
/// [`CompiledChain::terms`], syntactic positions), nested chains
/// recursing. `nested` is indexed by *syntactic* term position.
#[derive(Debug, Clone)]
pub struct ChainOrder {
    pub order: Vec<u32>,
    pub nested: Vec<Option<Box<ChainOrder>>>,
}

/// Compute the evaluation order for the next epoch from cumulative
/// stats: every maximal run of consecutive movable terms is sorted
/// ascending by `cost × reach ⁄ decide` (expected cost per decided
/// row); barriers and never-deciding terms keep syntactic order.
pub fn ranked_order(chain: &CompiledChain, stats: &ChainStats) -> ChainOrder {
    let n = chain.terms.len();
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut i = 0;
    while i < n {
        if !chain.terms[i].movable {
            i += 1;
            continue;
        }
        let mut j = i;
        while j < n && chain.terms[j].movable {
            j += 1;
        }
        order[i..j].sort_by(|&a, &b| rank_cmp(chain, stats, a as usize, b as usize));
        i = j;
    }
    let nested = chain
        .terms
        .iter()
        .enumerate()
        .map(|(i, t)| {
            t.nested.as_ref().map(|sub| {
                let sub_stats = stats.nested[i]
                    .as_deref()
                    .expect("nested stats follow nested chains");
                Box::new(ranked_order(sub, sub_stats))
            })
        })
        .collect();
    ChainOrder { order, nested }
}

/// Compare two terms by expected cost per decided row, exactly in
/// integers (u128 cross-multiplication — no float nondeterminism).
/// Terms never observed to decide sink to the end of the run; all ties
/// break on syntactic index.
fn rank_cmp(chain: &CompiledChain, stats: &ChainStats, a: usize, b: usize) -> Ordering {
    let (da, db) = (stats.decide[a], stats.decide[b]);
    match (da == 0, db == 0) {
        (true, true) => a.cmp(&b),
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => {
            let lhs = chain.terms[a].cost as u128 * stats.reach[a] as u128 * db as u128;
            let rhs = chain.terms[b].cost as u128 * stats.reach[b] as u128 * da as u128;
            lhs.cmp(&rhs).then(a.cmp(&b))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bypass_types::Value;

    fn col(i: usize) -> PhysExpr {
        PhysExpr::Column(i)
    }

    fn lit(v: i64) -> PhysExpr {
        PhysExpr::Literal(Value::Int(v))
    }

    fn bin(op: BinOp, l: PhysExpr, r: PhysExpr) -> PhysExpr {
        PhysExpr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    fn int_rows(vals: &[&[i64]]) -> Vec<Tuple> {
        vals.iter()
            .map(|r| Tuple::new(r.iter().map(|&v| Value::Int(v)).collect()))
            .collect()
    }

    #[test]
    fn kernel_matches_row_comparison_semantics() {
        // (a > 1) AND (b = 2), with a NULL in each column.
        let e = bin(
            BinOp::And,
            bin(BinOp::Gt, col(0), lit(1)),
            bin(BinOp::Eq, col(1), lit(2)),
        );
        let k = compile_kernel(&e, 2).expect("kernelable");
        let mut rows = int_rows(&[&[2, 2], &[0, 2], &[2, 3]]);
        rows.push(Tuple::new(vec![Value::Null, Value::Int(2)]));
        rows.push(Tuple::new(vec![Value::Int(2), Value::Null]));
        let batch = Batch::from_rows_cols(&rows, &[0, 1]);
        let lanes: Vec<Truth> = (0..rows.len())
            .map(|lane| k.eval_lane(&batch, lane, &[]))
            .collect();
        assert_eq!(
            lanes,
            vec![
                Truth::True,
                Truth::False,
                Truth::False,
                Truth::Unknown,
                Truth::Unknown,
            ]
        );
    }

    #[test]
    fn kernel_rejects_arithmetic_and_out_of_range_columns() {
        let div = bin(BinOp::Gt, bin(BinOp::Div, lit(10), col(0)), lit(2));
        assert!(compile_kernel(&div, 1).is_none());
        assert!(compile_kernel(&bin(BinOp::Eq, col(3), lit(1)), 2).is_none());
    }

    #[test]
    fn division_term_is_a_barrier() {
        // a = 0 OR 10 / a > 2 — the division must never be hoisted.
        let guard = bin(BinOp::Eq, col(0), lit(0));
        let div = bin(BinOp::Gt, bin(BinOp::Div, lit(10), col(0)), lit(2));
        let chain = compile_chain(&bin(BinOp::Or, guard, div), 1);
        assert!(chain.is_or);
        assert_eq!(chain.terms.len(), 2);
        assert!(chain.terms[0].movable);
        assert!(!chain.terms[1].movable, "fallible term must be pinned");
        assert!(
            !chain.adaptive,
            "no movable run of ≥ 2 ⇒ nothing to reorder"
        );
        // And the ranked order can never move it, whatever the stats.
        let mut stats = ChainStats::zeroed(&chain);
        stats.reach = vec![1000, 1000];
        stats.decide = vec![1, 999];
        assert_eq!(ranked_order(&chain, &stats).order, vec![0, 1]);
    }

    #[test]
    fn ranked_order_prefers_cheap_selective_terms() {
        // Three movable kernel terms with equal costs: decide rates
        // 10%, 90%, 50% ⇒ order by rank is [1, 2, 0].
        let e = bin(
            BinOp::Or,
            bin(
                BinOp::Or,
                bin(BinOp::Gt, col(0), lit(0)),
                bin(BinOp::Gt, col(1), lit(0)),
            ),
            bin(BinOp::Gt, col(2), lit(0)),
        );
        let chain = compile_chain(&e, 3);
        assert_eq!(chain.terms.len(), 3, "nested ORs flatten");
        assert!(chain.adaptive);
        let mut stats = ChainStats::zeroed(&chain);
        stats.reach = vec![100, 100, 100];
        stats.decide = vec![10, 90, 50];
        assert_eq!(ranked_order(&chain, &stats).order, vec![1, 2, 0]);
        // Cost dominates rate: an expensive term with a high decide
        // rate still sinks below a cheap kernel.
        let expensive = PhysExpr::Subquery {
            plan: scalar_count_plan(),
            correlated: false,
            outer_keys: vec![],
        };
        let mixed = bin(
            BinOp::Or,
            bin(BinOp::Eq, col(0), expensive),
            bin(BinOp::Gt, col(1), lit(0)),
        );
        let chain = compile_chain(&mixed, 2);
        assert!(chain.terms[0].movable, "infallible COUNT subquery moves");
        let mut stats = ChainStats::zeroed(&chain);
        stats.reach = vec![100, 100];
        stats.decide = vec![90, 10];
        assert_eq!(
            ranked_order(&chain, &stats).order,
            vec![1, 0],
            "4096-cost subquery at 90% sinks below 1-cost kernel at 10%"
        );
    }

    #[test]
    fn zero_decide_terms_keep_syntactic_order() {
        let e = bin(
            BinOp::Or,
            bin(BinOp::Gt, col(0), lit(0)),
            bin(BinOp::Gt, col(1), lit(0)),
        );
        let chain = compile_chain(&e, 2);
        let stats = ChainStats::zeroed(&chain);
        assert_eq!(ranked_order(&chain, &stats).order, vec![0, 1]);
    }

    /// `SELECT COUNT(*) FROM s` — a statically-one-row, infallible plan.
    fn scalar_count_plan() -> std::sync::Arc<PhysNode> {
        use bypass_algebra::AggFunc;
        use bypass_types::{DataType, Field, Relation, Schema};
        let schema = Schema::new(vec![Field::new("b", DataType::Int)]);
        let scan = PhysNode::new(
            PhysKind::Scan {
                data: std::sync::Arc::new(Relation::new(schema.clone(), vec![])),
            },
            schema,
        );
        let agg_schema = Schema::new(vec![Field::new("c", DataType::Int)]);
        PhysNode::new(
            PhysKind::HashAggregate {
                input: scan,
                keys: vec![],
                aggs: vec![crate::agg::AggSpec {
                    func: AggFunc::Count,
                    distinct: false,
                    arg: None,
                }],
            },
            agg_schema,
        )
    }

    #[test]
    fn scalar_count_subquery_is_movable_but_sum_is_not() {
        use bypass_algebra::AggFunc;
        let sub = |func| PhysExpr::Subquery {
            plan: {
                use bypass_types::{DataType, Field, Relation, Schema};
                let schema = Schema::new(vec![Field::new("b", DataType::Int)]);
                let scan = PhysNode::new(
                    PhysKind::Scan {
                        data: std::sync::Arc::new(Relation::new(schema.clone(), vec![])),
                    },
                    schema,
                );
                let agg_schema = Schema::new(vec![Field::new("c", DataType::Int)]);
                PhysNode::new(
                    PhysKind::HashAggregate {
                        input: scan,
                        keys: vec![],
                        aggs: vec![crate::agg::AggSpec {
                            func,
                            distinct: false,
                            arg: Some(PhysExpr::Column(0)),
                        }],
                    },
                    agg_schema,
                )
            },
            correlated: false,
            outer_keys: vec![],
        };
        let count = bin(BinOp::Eq, col(0), sub(AggFunc::Count));
        let sum = bin(BinOp::Eq, col(0), sub(AggFunc::Sum));
        let cheap = bin(BinOp::Gt, col(1), lit(0));
        let c = compile_chain(&bin(BinOp::Or, count, cheap.clone()), 2);
        assert!(c.terms[0].movable && c.adaptive);
        let c = compile_chain(&bin(BinOp::Or, sum, cheap), 2);
        assert!(!c.terms[0].movable, "SUM can overflow ⇒ barrier");
        assert!(!c.adaptive);
    }

    #[test]
    fn chain_bindable_checks_outer_references() {
        let e = bin(
            BinOp::Or,
            bin(BinOp::Eq, col(0), PhysExpr::Outer { depth: 1, index: 1 }),
            bin(BinOp::Gt, col(0), lit(0)),
        );
        let chain = compile_chain(&e, 1);
        assert!(!chain_bindable(&chain, &[]));
        assert!(!chain_bindable(&chain, &[Tuple::new(vec![Value::Int(1)])]));
        let wide = Tuple::new(vec![Value::Int(1), Value::Int(2)]);
        assert!(chain_bindable(&chain, &[wide]));
    }

    #[test]
    fn single_term_predicates_compile_to_one_term_chains() {
        let chain = compile_chain(&bin(BinOp::Gt, col(0), lit(5)), 1);
        assert_eq!(chain.terms.len(), 1);
        assert!(chain.terms[0].kernel.is_some() && !chain.adaptive);
        let div = compile_chain(&bin(BinOp::Gt, bin(BinOp::Div, lit(1), col(0)), lit(5)), 1);
        assert_eq!(div.terms.len(), 1);
        assert!(div.terms[0].kernel.is_none() && div.terms[0].nested.is_none());
        assert!(!div.terms[0].movable && !div.adaptive && div.cols.is_empty());
    }
}
