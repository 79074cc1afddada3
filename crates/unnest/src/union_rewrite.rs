//! The **OR→UNION** rewrite — the strongest pre-bypass technique for
//! disjunctive linking, used in the evaluation as the stand-in for
//! commercial system *S2*.
//!
//! `σ_{d₁ ∨ … ∨ dₙ}(R)` becomes the disjoint union of n branches,
//! branch i filtering `¬d₁ ∧ … ∧ ¬d_{i−1} ∧ d_i` — disjointness by
//! construction, so no duplicate elimination is needed (which would be
//! wrong under bag semantics). Each branch is conjunctive, so classic
//! Eqv. 1 unnesting (Γ + outerjoin) applies per branch, including to
//! the *negated* linking predicates of later branches.
//!
//! The crucial difference from bypass plans: **the branches share
//! nothing**. R is re-scanned and every earlier disjunct re-evaluated in
//! every branch, and disjunctive *correlation* (Q2) cannot be unnested
//! at all — exactly the behaviour the paper's measurements attribute to
//! S2 (competitive on disjunctive linking, nested-loop-bound on
//! disjunctive correlation).

use std::sync::Arc;

use bypass_algebra::{rewrite, Blocks, LogicalPlan, PlanBuilder, Rule, Scalar};
use bypass_types::{Result, Schema};

use crate::driver::{attach_subqueries, project_to, rewrite_selection, Ctx, Split};
use crate::names::NameGen;

/// Apply the OR→UNION strategy to a canonical plan.
pub fn union_rewrite(plan: &Arc<LogicalPlan>) -> Result<Arc<LogicalPlan>> {
    let _span = bypass_trace::span("unnest.union_rewrite");
    crate::outcomes::record_outcome("union:rewrite");
    // The two limits emulated for S2: disjunctions split into disjoint
    // branches with the pre-bypass repertoire inside, and only the
    // outermost block is rewritten.
    let mut rule = OrToUnion(Ctx {
        names: NameGen::new(),
        split: Split::DisjointBranches,
    });
    Ok(rewrite(plan, &mut rule, Blocks::TopOnly))
}

/// Selections only — S2 leaves nesting in the SELECT clause alone.
struct OrToUnion(Ctx);

impl Rule for OrToUnion {
    fn pre(&mut self, node: &Arc<LogicalPlan>) -> Option<Arc<LogicalPlan>> {
        match node.as_ref() {
            LogicalPlan::Filter { input, predicate } => {
                rewrite_selection(input, predicate, &mut self.0)
            }
            _ => None,
        }
    }
}

/// One branch per disjunct over `base`: dᵢ ∧ ¬ₜd₁ ∧ … ∧ ¬ₜd_{i−1}, where
/// ¬ₜd means "d is not TRUE" (¬d ∨ d IS NULL). Plain ¬d would lose
/// tuples whose earlier disjunct evaluated to UNKNOWN — the
/// three-valued-logic pitfall the bypass operators avoid by
/// construction (σ⁻ carries FALSE *and* UNKNOWN).
pub(crate) fn disjoint_branches(
    base: PlanBuilder,
    disjuncts: &[Scalar],
    out_schema: &Schema,
    ctx: &mut Ctx,
) -> Option<PlanBuilder> {
    let mut branches: Vec<PlanBuilder> = Vec::with_capacity(disjuncts.len());
    for (i, d) in disjuncts.iter().enumerate() {
        let mut b = base.clone();
        let earlier = disjuncts[..i].iter().cloned().map(not_true);
        for conj in earlier.chain([d.clone()]) {
            let (b2, rewritten) = attach_subqueries(b, &conj, ctx)?;
            b = b2.filter(rewritten);
        }
        branches.push(project_to(b, out_schema));
    }
    branches.into_iter().reduce(PlanBuilder::union)
}

/// `d` is not TRUE: `¬d ∨ (d IS NULL)`.
fn not_true(d: Scalar) -> Scalar {
    Scalar::Not(Box::new(d.clone())).or(Scalar::IsNull {
        negated: false,
        expr: Box::new(d),
    })
}
