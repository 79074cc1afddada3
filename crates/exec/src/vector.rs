//! Disjunct chains: how σ and σ± evaluate their predicate.
//!
//! Every filter predicate is compiled into a [`CompiledChain`] when its
//! plan node is built (`PhysNode::new`; the node hands it out, so no
//! statement, context or worker compiles it again) — one [`ChainTerm`]
//! per top-level ORed disjunct (or ANDed conjunct; any other predicate
//! is a chain of one term) — each term carrying a `kernel` flag: the
//! term is in the interpreter's simple-predicate class (`interp.rs`), so
//! the chunk loop may run it column-wise over the input's columns
//! (`bypass_catalog::TableColumns`) and a selection vector of surviving
//! lanes.
//!
//! **Order.** The terms run in their syntactic order, which is the
//! planned order: the strategy decides it at plan time (`unnest::rank`
//! cheap-first for the canonical and S3 plans, the nested block first
//! for S1), and nothing at run time changes it. The leading kernel terms
//! are the chain's *kernel prefix*, run column-wise a chunk at a time;
//! every later term — an AND/OR that is not a kernel included, which
//! `eval_truth` short-circuits left to right — runs row by row on the
//! rows the prefix left undecided. A row therefore raises the first
//! value error its predicate raises in the written order.
//!
//! **Kernels.** A kernel term has no compiled form of its own: it is
//! its [`PhysExpr`], evaluated by the interpreter's borrow-only fast
//! path over a lane of the input's columns — the function that
//! evaluates the same expression over a row, so the two cannot
//! disagree. Two shapes
//! (`SliceLoop`) skip even the per-lane expression walk and run as a
//! tight loop over the column slices: `column ⟨cmp⟩ constant` (a
//! literal, or an outer reference resolved once per call — the
//! correlation predicate of a canonical plan's nested block) and
//! `column ⟨cmp⟩ column` (the linking predicate an unnested plan
//! filters its outer join by). The columns of a σ/σ±'s input — a base
//! table's own, or an intermediate relation's built for the call — are
//! typed (`bypass_types::Column`) where every row agrees: where
//! column and constant, or both columns, are `i64`s or `f64`s, those
//! two loops compare bare numbers — `Ord` / `PartialOrd` through the
//! interpreter's one comparison table; every other kernel term reads
//! `Value`s, in place from a `Column::Values`, through a per-chunk copy
//! of at most `batch_rows` slots from a typed column. Every route hands
//! its truths to one settle rule, `eval.rs`'s `settle_lanes`, which needs
//! no 3VL fold (DESIGN.md §8).

use bypass_algebra::BinOp;
use bypass_types::{Truth, Tuple, Value};

use crate::eval::ExecContext;
use crate::interp::{is_simple, outer_ref};
use crate::PhysExpr;

/// One disjunct (or conjunct) of a compiled chain.
#[derive(Debug)]
pub struct ChainTerm {
    /// The term itself: what the interpreter evaluates, over a lane of
    /// the input's columns for a kernel term, else (or when no kernel may
    /// run) over the row.
    pub expr: PhysExpr,
    /// Is the whole term in the simple-predicate class, and so may run
    /// column-wise?
    pub kernel: bool,
}

/// A filter predicate decomposed into a chain of terms, in planned
/// order.
#[derive(Debug)]
pub struct CompiledChain {
    /// `true` = disjunction (decides on TRUE), `false` = conjunction
    /// (decides on FALSE).
    pub is_or: bool,
    pub terms: Vec<ChainTerm>,
    /// Columns read by the kernel prefix — the only columns the chunk
    /// loop needs as columns. Sorted, deduped.
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

    /// The kernel prefix: the leading kernel terms.
    pub fn kernels(&self) -> &[ChainTerm] {
        let n = self.terms.iter().take_while(|t| t.kernel).count();
        &self.terms[..n]
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
    let terms = parts
        .into_iter()
        .map(|e| ChainTerm {
            expr: e.clone(),
            kernel: is_simple(e, arity),
        })
        .collect();
    let mut chain = CompiledChain {
        is_or,
        terms,
        cols: Vec::new(),
    };
    chain.cols = kernel_cols(chain.kernels());
    chain
}

/// Union of the columns the kernel terms read, sorted + deduped.
fn kernel_cols(kernels: &[ChainTerm]) -> Vec<usize> {
    fn cols(e: &PhysExpr, out: &mut Vec<usize>) {
        if let PhysExpr::Column(i) = e {
            out.push(*i);
        }
        e.children().for_each(|c| cols(c, out));
    }
    let mut out = Vec::new();
    for t in kernels {
        cols(&t.expr, &mut out);
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Do all outer references of the chain's terms resolve against the
/// current binding stack? Kernel evaluation has no error path, so a
/// call under a stack that does not bind them runs without kernels, and
/// fails in `eval_truth` if a row reaches one.
pub fn chain_bindable(chain: &CompiledChain, outer: &[Tuple]) -> bool {
    chain.terms.iter().all(|t| term_outer_ok(&t.expr, outer))
}

fn term_outer_ok(e: &PhysExpr, outer: &[Tuple]) -> bool {
    match e {
        PhysExpr::Outer { depth, index } => outer_ref(outer, *depth, *index).is_some(),
        // A nested plan is not descended into: its depth-1 references
        // bind to the pushed row, and the interpreter reports any other
        // that does not resolve when a row reaches it.
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn terms_keep_their_syntactic_order() {
        // a = 0 OR 10 / a > 2 OR b > 1: nested ORs flatten, the order is
        // the written one, and the kernel prefix stops at the division.
        let guard = bin(BinOp::Eq, col(0), lit(0));
        let div = bin(BinOp::Gt, bin(BinOp::Div, lit(10), col(0)), lit(2));
        let late = bin(BinOp::Gt, col(1), lit(1));
        let e = bin(BinOp::Or, bin(BinOp::Or, guard.clone(), div.clone()), late);
        let chain = compile_chain(&e, 2);
        assert!(chain.is_or);
        let kernels: Vec<bool> = chain.terms.iter().map(|t| t.kernel).collect();
        assert_eq!(kernels, [true, false, true]);
        let written = |i: usize| format!("{:?}", chain.terms[i].expr);
        assert_eq!(written(0), format!("{guard:?}"));
        assert_eq!(written(1), format!("{div:?}"));
        assert_eq!(chain.kernels().len(), 1);
        assert_eq!(chain.cols, vec![0], "columns of the kernel prefix only");
    }

    #[test]
    fn an_and_inside_an_or_is_one_term() {
        // b > 1 OR (a / 2 > 0 AND b < 5): the conjunction is not a
        // kernel, so it is one term the interpreter short-circuits.
        let inner = bin(
            BinOp::And,
            bin(BinOp::Gt, bin(BinOp::Div, col(0), lit(2)), lit(0)),
            bin(BinOp::Lt, col(1), lit(5)),
        );
        let chain = compile_chain(
            &bin(BinOp::Or, bin(BinOp::Gt, col(1), lit(1)), inner.clone()),
            2,
        );
        assert_eq!(chain.terms.len(), 2);
        assert!(!chain.terms[1].kernel);
        assert_eq!(format!("{:?}", chain.terms[1].expr), format!("{inner:?}"));
        // A simple conjunction is one kernel term.
        let simple = bin(
            BinOp::And,
            bin(BinOp::Gt, col(0), lit(2)),
            bin(BinOp::Lt, col(1), lit(5)),
        );
        let chain = compile_chain(&bin(BinOp::Or, simple, bin(BinOp::Eq, col(1), lit(0))), 2);
        assert_eq!(chain.kernels().len(), 2);
        assert_eq!(chain.cols, vec![0, 1]);
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
        assert!(chain.is_or && chain.terms[0].kernel);
        assert_eq!(chain.cols, vec![0]);
        let div = compile_chain(&bin(BinOp::Gt, bin(BinOp::Div, lit(1), col(0)), lit(5)), 1);
        assert_eq!(div.terms.len(), 1);
        assert!(!div.terms[0].kernel && div.kernels().is_empty() && div.cols.is_empty());
        // A column beyond the input's arity is an error to raise, not
        // a kernel to run.
        let wide = compile_chain(&bin(BinOp::Eq, col(3), lit(1)), 2);
        assert!(!wide.terms[0].kernel);
    }
}
