//! Adaptive disjunct chains: how σ and σ± evaluate their predicate.
//!
//! Every filter predicate is compiled into a [`CompiledChain`] when its
//! plan node is built (`PhysNode::new`; the node hands it out, so no
//! statement, context or worker compiles it again) — one [`ChainTerm`]
//! per top-level ORed disjunct (or ANDed conjunct; any other predicate
//! is a chain of one term) — each term carrying
//!
//! * a `kernel` flag — the term is in the interpreter's
//!   simple-predicate class (`interp.rs`), so the chunk loop may run it
//!   column-wise over a columnar [`bypass_types::Batch`] and a
//!   selection vector of surviving lanes,
//! * an optional nested chain (a conjunctive term inside a disjunction
//!   is itself adaptively ordered, and vice versa),
//! * a `movable` flag from the interpreter's *value-error* analysis, and
//! * a static cost class.
//!
//! **Kernels.** A kernel term has no compiled form of its own: it is
//! its [`PhysExpr`], evaluated by the interpreter's borrow-only fast
//! path over a lane of the batch — the function that evaluates the same
//! expression over a row, so the two cannot disagree. Two shapes
//! (`SliceLoop`) skip even the per-lane expression walk and run as a
//! tight loop over the column slices: `column ⟨cmp⟩ constant` (a
//! literal, or an outer reference resolved once per call — the
//! correlation predicate of a canonical plan's nested block) and
//! `column ⟨cmp⟩ column` (the linking predicate an unnested plan
//! filters its outer join by). The batch of a σ/σ± over a base table
//! is the table's own typed columns (`bypass_types::Column`): where
//! column and constant, or both columns, are `i64`s or `f64`s, those
//! two loops compare bare numbers — `Ord` / `PartialOrd` through the
//! interpreter's one comparison table; every other kernel term reads
//! `Value`s, in place from a `Column::Values`, through a per-chunk copy
//! of at most `batch_rows` slots from a typed column.
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
use bypass_types::{Truth, Tuple, Value};

use crate::eval::ExecContext;
use crate::interp::{can_raise, is_simple, outer_ref, OuterRefs};
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

// ---------------------------------------------------------------------------
// Compiled chains.
// ---------------------------------------------------------------------------

/// One disjunct (or conjunct) of a compiled chain.
#[derive(Debug)]
pub struct ChainTerm {
    /// The term itself: what the interpreter evaluates, over a lane of
    /// the batch for a kernel term, else (or when no kernel may run)
    /// over the row.
    pub expr: PhysExpr,
    /// Is the whole term in the simple-predicate class, and so may run
    /// column-wise?
    pub kernel: bool,
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
    /// chunk loop needs as columns (nested chains evaluate their
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

/// Union of the columns read by the top-level kernel terms, sorted +
/// deduped.
fn chain_cols(terms: &[ChainTerm]) -> Vec<usize> {
    fn cols(e: &PhysExpr, out: &mut Vec<usize>) {
        if let PhysExpr::Column(i) = e {
            out.push(*i);
        }
        e.children().for_each(|c| cols(c, out));
    }
    let mut out = Vec::new();
    for t in terms.iter().filter(|t| t.kernel) {
        cols(&t.expr, &mut out);
    }
    out.sort_unstable();
    out.dedup();
    out
}

fn compile_term(e: &PhysExpr, arity: usize) -> ChainTerm {
    if is_simple(e, arity) {
        return ChainTerm {
            expr: e.clone(),
            kernel: true,
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
                    kernel: false,
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
        kernel: false,
        nested: None,
        movable: !can_raise(e, arity, OuterRefs::PerCall),
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
/// current binding stack? Kernel evaluation has no error path, so a
/// call under a stack that does not bind them runs without kernels and
/// in syntactic order, and fails in `eval_truth` if a row reaches one.
pub fn chain_bindable(chain: &CompiledChain, outer: &[Tuple]) -> bool {
    chain.terms.iter().all(|t| match &t.nested {
        Some(sub) => chain_bindable(sub, outer),
        None => term_outer_ok(&t.expr, outer),
    })
}

fn term_outer_ok(e: &PhysExpr, outer: &[Tuple]) -> bool {
    match e {
        PhysExpr::Outer { depth, index } => outer_ref(outer, *depth, *index).is_some(),
        // A nested plan is not descended into: its depth-1 references
        // bind to the pushed row (statically checked at compile time);
        // deeper ones made the term immovable, and an immovable term
        // raises its error at its syntactic place.
        _ => e.children().all(|c| term_outer_ok(c, outer)),
    }
}

/// The two kernel shapes the chunk loop runs as one tight loop over
/// column slices — of bare numbers when the operands' types allow, of
/// values otherwise — with no per-lane walk of the expression.
pub(crate) enum SliceLoop<'a> {
    /// `column ⟨cmp⟩ constant`, the constant a literal or an outer
    /// reference resolved against the call's bindings; `constant ⟨cmp⟩
    /// column` arrives mirrored.
    ColConst(BinOp, usize, &'a Value),
    /// `column ⟨cmp⟩ column`.
    ColCol(BinOp, usize, usize),
}

impl ChainTerm {
    /// Which slice loop, if any, runs this kernel term under `ctx`'s
    /// outer bindings.
    pub(crate) fn slice_loop<'a>(&'a self, ctx: &'a ExecContext) -> Option<SliceLoop<'a>> {
        let PhysExpr::Binary { op, left, right } = &self.expr else {
            return None;
        };
        if !op.is_comparison() {
            return None;
        }
        Some(match (&**left, &**right) {
            (PhysExpr::Column(l), PhysExpr::Column(r)) => SliceLoop::ColCol(*op, *l, *r),
            (PhysExpr::Column(c), r) => SliceLoop::ColConst(*op, *c, ctx.const_ref(r)?),
            (l, PhysExpr::Column(c)) => SliceLoop::ColConst(op.flip(), *c, ctx.const_ref(l)?),
            _ => return None,
        })
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
    use crate::node::{PhysKind, PhysNode};

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
        let empty = Relation::new(schema.clone(), vec![]);
        let scan = PhysNode::scan(bypass_catalog::TableColumns::new(empty), schema);
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
                let empty = Relation::new(schema.clone(), vec![]);
                let scan = PhysNode::scan(bypass_catalog::TableColumns::new(empty), schema);
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
        assert!(chain.terms[0].kernel && !chain.adaptive);
        let div = compile_chain(&bin(BinOp::Gt, bin(BinOp::Div, lit(1), col(0)), lit(5)), 1);
        assert_eq!(div.terms.len(), 1);
        assert!(!div.terms[0].kernel && div.terms[0].nested.is_none());
        assert!(!div.terms[0].movable && !div.adaptive && div.cols.is_empty());
        // A column beyond the input's arity is an error to raise, not
        // a kernel to run.
        let wide = compile_chain(&bin(BinOp::Eq, col(3), lit(1)), 2);
        assert!(!wide.terms[0].kernel && !wide.terms[0].movable);
    }
}
