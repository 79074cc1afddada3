//! Ablation utilities: plan transformations that *remove* one of the
//! engine's optimizations so benchmarks can measure its contribution.

use std::sync::Arc;

use bypass_algebra::{rewrite, Blocks, LogicalPlan};

/// Destroy the DAG sharing of bypass operators: every `Stream` node gets
/// its **own deep copy** of the bypass source, so the operator (and its
/// whole input subtree) is evaluated once per consumer instead of once
/// overall. Semantically equivalent (bypass operators are
/// deterministic); this is the "tree instead of DAG" strawman the
/// paper's DAG-plan discussion (Section 5) argues against.
pub fn unshare_bypass(plan: &Arc<LogicalPlan>) -> Arc<LogicalPlan> {
    let mut unshare = |node: Arc<LogicalPlan>| match node.as_ref() {
        LogicalPlan::Stream { source, stream } => Arc::new(LogicalPlan::Stream {
            source: deep_copy(source),
            stream: *stream,
        }),
        _ => node,
    };
    rewrite(plan, &mut unshare, Blocks::TopOnly)
}

/// Structural deep copy (fresh `Arc`s all the way down) — deliberately
/// *not* the memoized rewriter, which would keep shared nodes shared.
/// Recurses into children only: nested subquery plans keep their
/// identity (they are evaluated per tuple anyway).
fn deep_copy(plan: &Arc<LogicalPlan>) -> Arc<LogicalPlan> {
    let children: Vec<Arc<LogicalPlan>> = plan.children().iter().map(|c| deep_copy(c)).collect();
    Arc::new(plan.with_children(children))
}

/// Count how many times bypass operators would run: distinct bypass
/// nodes reachable, counted per unique pointer.
pub fn distinct_bypass_nodes(plan: &Arc<LogicalPlan>) -> usize {
    use std::collections::HashSet;
    fn walk(plan: &Arc<LogicalPlan>, seen: &mut HashSet<*const LogicalPlan>) {
        if matches!(
            plan.as_ref(),
            LogicalPlan::BypassFilter { .. } | LogicalPlan::BypassJoin { .. }
        ) {
            seen.insert(Arc::as_ptr(plan));
        }
        for c in plan.children() {
            walk(c, seen);
        }
        for e in plan.exprs() {
            for sq in e.subquery_plans() {
                walk(sq, seen);
            }
        }
    }
    let mut seen = HashSet::new();
    walk(plan, &mut seen);
    seen.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bypass_algebra::{PlanBuilder, Scalar};

    #[test]
    fn unsharing_duplicates_the_bypass_node() {
        let (pos, neg) = PlanBuilder::test_scan("r", &["a"])
            .bypass_filter(Scalar::qcol("r", "a").gt(Scalar::lit(0i64)));
        let shared = pos.union(neg).build();
        assert_eq!(distinct_bypass_nodes(&shared), 1);

        let unshared = unshare_bypass(&shared);
        assert_eq!(distinct_bypass_nodes(&unshared), 2);
        // Schema and structure otherwise unchanged.
        assert_eq!(shared.schema(), unshared.schema());
    }

    #[test]
    fn plans_without_bypass_are_untouched() {
        let plan = PlanBuilder::test_scan("r", &["a"])
            .filter(Scalar::qcol("r", "a").gt(Scalar::lit(1i64)))
            .build();
        let out = unshare_bypass(&plan);
        assert!(Arc::ptr_eq(&plan, &out));
    }
}
