use std::fmt;
use std::sync::Arc;

use bypass_algebra::{prune_columns, rewrite, Blocks, LogicalPlan};
use bypass_exec::ExecOptions;
use bypass_types::Result;
use bypass_unnest::{
    optimize_joins, reorder_or_disjuncts, union_rewrite, unnest, DisjunctOrder, RewriteOptions,
};

/// Evaluation strategies of the reproduction study.
///
/// `Canonical` and `Unnested` are the two Natix plans of the paper;
/// `S1Naive`, `S2UnionRewrite` and `S3Materialized` simulate the three
/// anonymized commercial systems (the paper infers their behaviour from
/// growth curves — see DESIGN.md §1 row 8 for the mapping rationale).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Canonical translation, nested-loop subquery evaluation, cheap
    /// disjuncts first, uncorrelated (type A) subqueries materialized
    /// once — the paper's "canonical" Natix plan.
    Canonical,
    /// The paper's contribution: bypass unnesting (Eqv. 1–5), rank-based
    /// disjunct ordering.
    #[default]
    Unnested,
    /// Ablation: force the unnested linking predicate to be evaluated
    /// first (Eqv. 3 instead of Eqv. 2).
    UnnestedSubqueryFirst,
    /// Simulated S1: nested-loop evaluation that always evaluates the
    /// nested block first and re-evaluates uncorrelated subqueries per
    /// tuple.
    S1Naive,
    /// Simulated S2: the OR→UNION rewrite (per-branch classic Eqv. 1
    /// unnesting, no bypass operators); falls back to memoized
    /// nested-loop evaluation where the rewrite does not apply
    /// (disjunctive correlation).
    S2UnionRewrite,
    /// Simulated S3: nested-loop evaluation with short-circuit ordering
    /// but no subquery materialization.
    S3Materialized,
    /// Cost-based choice among {Canonical, Unnested, S2UnionRewrite}
    /// using the estimator of `bypass_unnest::cost` — the paper's
    /// "apply the equivalences in a cost-based manner".
    CostBased,
}

/// Unnest outcome keys with their counts, as
/// `bypass_unnest::take_outcomes` drains them.
type Outcomes = Vec<(&'static str, u64)>;

/// A canonical plan after strategy resolution and the nesting rewrite.
pub(crate) struct Rewritten {
    /// The concrete strategy ([`Strategy::CostBased`] resolved).
    pub strategy: Strategy,
    pub plan: Arc<LogicalPlan>,
    /// `plan` already went through `optimize_joins` (cost-based
    /// candidates are estimated on their final shape).
    pub joins_ordered: bool,
    /// What rewriting under `strategy` tallied.
    pub outcomes: Outcomes,
    /// Every candidate's cost when the choice was cost-based; empty
    /// otherwise.
    pub estimates: Vec<(Strategy, f64)>,
}

impl Strategy {
    /// Every strategy, in reporting order (the column order of Fig. 7,
    /// plus the ablation and cost-based variants).
    pub fn all() -> [Strategy; 7] {
        [
            Strategy::S1Naive,
            Strategy::S2UnionRewrite,
            Strategy::S3Materialized,
            Strategy::Canonical,
            Strategy::Unnested,
            Strategy::UnnestedSubqueryFirst,
            Strategy::CostBased,
        ]
    }

    /// The candidate strategies [`Strategy::CostBased`] chooses among.
    pub fn cost_candidates() -> [Strategy; 3] {
        [
            Strategy::Canonical,
            Strategy::Unnested,
            Strategy::S2UnionRewrite,
        ]
    }

    /// Apply this strategy's plan rewrites to a canonical logical plan.
    /// Generic join ordering / predicate pushdown and column pruning run
    /// afterwards for every strategy — they are orthogonal to unnesting
    /// (no real system, including the paper's Natix, executes raw cross
    /// products or carries every column of every joined table to the
    /// top).
    pub fn prepare(self, plan: &Arc<LogicalPlan>) -> Result<Arc<LogicalPlan>> {
        self.rewrite_nesting(plan)
            .map(|p| prune_columns(&optimize_joins(&p)))
    }

    /// The unnesting half of [`Strategy::prepare`] (no join
    /// optimization, no column pruning) — what a caller that compiles
    /// by hand starts from.
    pub fn rewrite_nesting(self, plan: &Arc<LogicalPlan>) -> Result<Arc<LogicalPlan>> {
        match self {
            Strategy::Canonical | Strategy::S3Materialized => {
                Ok(reorder_plan_disjuncts(plan, false))
            }
            Strategy::S1Naive => Ok(reorder_plan_disjuncts(plan, true)),
            Strategy::Unnested => unnest(plan, RewriteOptions::default()),
            Strategy::UnnestedSubqueryFirst => unnest(
                plan,
                RewriteOptions {
                    order: DisjunctOrder::SubqueryFirst,
                },
            ),
            Strategy::S2UnionRewrite => union_rewrite(plan),
            Strategy::CostBased => unreachable!(
                "CostBased is resolved to a concrete strategy before prepare \
                 (Strategy::rewrite / Strategy::choose_by_cost)"
            ),
        }
    }

    /// The nesting rewrite together with the unnest outcomes it
    /// tallied — the only place the thread-local tally is drained, and
    /// it is drained whether or not the rewrite succeeded, so no
    /// statement's outcomes leak into the next one on this thread.
    fn rewrite_tallied(self, plan: &Arc<LogicalPlan>) -> (Result<Arc<LogicalPlan>>, Outcomes) {
        let rewritten = self.rewrite_nesting(plan);
        (rewritten, bypass_unnest::take_outcomes())
    }

    /// Resolve this strategy for a canonical plan and rewrite its
    /// nesting — the step of `Database`'s compile pipeline between
    /// translation and join ordering.
    pub(crate) fn rewrite(
        self,
        plan: &Arc<LogicalPlan>,
        stats: &dyn bypass_unnest::cost::StatsSource,
    ) -> Result<Rewritten> {
        if self == Strategy::CostBased {
            return Strategy::choose(plan, stats);
        }
        let (rewritten, outcomes) = self.rewrite_tallied(plan);
        Ok(Rewritten {
            strategy: self,
            plan: rewritten?,
            joins_ordered: false,
            outcomes,
            estimates: Vec::new(),
        })
    }

    /// Resolve [`Strategy::CostBased`]: prepare every candidate once,
    /// estimate it, keep the cheapest — its prepared plan and its own
    /// outcome tally included, so the winner is not prepared again and
    /// the losers' rewrites are not booked as fires.
    fn choose(
        plan: &Arc<LogicalPlan>,
        stats: &dyn bypass_unnest::cost::StatsSource,
    ) -> Result<Rewritten> {
        let mut best: Option<(f64, Strategy, Arc<LogicalPlan>, Outcomes)> = None;
        let mut estimates = Vec::new();
        for candidate in Strategy::cost_candidates() {
            let (rewritten, outcomes) = candidate.rewrite_tallied(plan);
            let prepared = optimize_joins(&rewritten?);
            let cost = bypass_unnest::cost::estimate(&prepared, stats).cost;
            estimates.push((candidate, cost));
            if best.as_ref().map(|b| cost < b.0).unwrap_or(true) {
                best = Some((cost, candidate, prepared, outcomes));
            }
        }
        let (_, strategy, plan, outcomes) = best.expect("non-empty candidates");
        Ok(Rewritten {
            strategy,
            plan,
            joins_ordered: true,
            outcomes,
            estimates,
        })
    }

    /// Resolve [`Strategy::CostBased`] for a concrete plan: the chosen
    /// strategy and every candidate's estimate. What the candidates'
    /// rewrites tallied as unnest outcomes is drained, not booked.
    pub fn choose_by_cost(
        plan: &Arc<LogicalPlan>,
        stats: &dyn bypass_unnest::cost::StatsSource,
    ) -> Result<(Strategy, Vec<(Strategy, f64)>)> {
        Strategy::choose(plan, stats).map(|r| (r.strategy, r.estimates))
    }

    /// The executor options this strategy runs with.
    pub fn exec_options(self) -> ExecOptions {
        match self {
            Strategy::Canonical | Strategy::Unnested | Strategy::UnnestedSubqueryFirst => {
                ExecOptions::default()
            }
            Strategy::S1Naive | Strategy::S3Materialized => ExecOptions {
                memo_uncorrelated: false,
                ..Default::default()
            },
            // S2's fallback for non-rewritable nesting: memoize by
            // correlation values (helps only when they repeat).
            Strategy::S2UnionRewrite => ExecOptions {
                memo_correlated: true,
                ..Default::default()
            },
            Strategy::CostBased => ExecOptions::default(),
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Strategy::Canonical => "canonical",
            Strategy::Unnested => "unnested",
            Strategy::UnnestedSubqueryFirst => "unnested-sqfirst",
            Strategy::S1Naive => "S1",
            Strategy::S2UnionRewrite => "S2",
            Strategy::S3Materialized => "S3",
            Strategy::CostBased => "cost-based",
        };
        f.write_str(s)
    }
}

/// Reorder the OR operands of every selection predicate so that
/// subquery-containing disjuncts come first (`true`) or last (`false`)
/// — models optimizers that do or do not exploit short-circuit
/// evaluation order.
fn reorder_plan_disjuncts(plan: &Arc<LogicalPlan>, subquery_first: bool) -> Arc<LogicalPlan> {
    let mut reorder = |node: Arc<LogicalPlan>| match node.as_ref() {
        LogicalPlan::Filter { predicate, .. } if predicate.contains_subquery() => {
            Arc::new(node.map_exprs(&mut |p| reorder_or_disjuncts(p, subquery_first)))
        }
        _ => node,
    };
    rewrite(plan, &mut reorder, Blocks::TopOnly)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bypass_algebra::{AggCall, PlanBuilder, Scalar};

    fn nested_plan() -> Arc<LogicalPlan> {
        let sub = PlanBuilder::test_scan("s", &["b2"])
            .filter(Scalar::col("a2").eq(Scalar::qcol("s", "b2")))
            .aggregate(vec![], vec![(AggCall::count_star(), "c".into())])
            .build();
        PlanBuilder::test_scan("r", &["a1", "a2", "a4"])
            .filter(
                Scalar::qcol("r", "a1")
                    .eq(Scalar::Subquery(sub))
                    .or(Scalar::qcol("r", "a4").gt(Scalar::lit(1500i64))),
            )
            .build()
    }

    #[test]
    fn canonical_reorders_cheap_first() {
        let p = Strategy::Canonical.prepare(&nested_plan()).unwrap();
        let LogicalPlan::Filter { predicate, .. } = p.as_ref() else {
            panic!()
        };
        assert!(!predicate.disjuncts()[0].contains_subquery());
        // Still nested.
        assert!(p.contains_subquery());
    }

    #[test]
    fn s1_reorders_subquery_first() {
        let p = Strategy::S1Naive.prepare(&nested_plan()).unwrap();
        let LogicalPlan::Filter { predicate, .. } = p.as_ref() else {
            panic!()
        };
        assert!(predicate.disjuncts()[0].contains_subquery());
    }

    #[test]
    fn unnested_removes_subqueries() {
        let p = Strategy::Unnested.prepare(&nested_plan()).unwrap();
        assert!(!p.contains_subquery());
        assert!(p.explain().contains("σ±"));
    }

    #[test]
    fn s2_unions_without_bypass() {
        let p = Strategy::S2UnionRewrite.prepare(&nested_plan()).unwrap();
        assert!(!p.contains_subquery());
        assert!(!p.explain().contains("σ±"));
    }

    #[test]
    fn exec_options_differ() {
        assert!(Strategy::Canonical.exec_options().memo_uncorrelated);
        assert!(!Strategy::S1Naive.exec_options().memo_uncorrelated);
        assert!(Strategy::S2UnionRewrite.exec_options().memo_correlated);
    }

    #[test]
    fn display_names() {
        assert_eq!(Strategy::Unnested.to_string(), "unnested");
        assert_eq!(Strategy::S2UnionRewrite.to_string(), "S2");
    }
}
