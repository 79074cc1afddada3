//! Slagle rank-based ordering of disjuncts (Section 3.1, Remark).
//!
//! For a predicate `p`, `rank(p) = (s − 1) / c` where `s` is the
//! selectivity and `c` the evaluation cost. Predicates are evaluated in
//! ascending rank order: a cheap selective predicate (rank close to −1)
//! should be bypassed first (Eqv. 2); when the non-subquery disjunct is
//! very expensive, the unnested linking predicate goes first instead
//! (Eqv. 3).

use bypass_algebra::Scalar;

use crate::cost::selectivity;

/// Which order the rewrite driver processes the disjuncts of a
/// disjunctive predicate in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DisjunctOrder {
    /// Ascending Slagle rank (default): cheap plain predicates are
    /// bypassed first, subqueries last — the Eqv. 2 shape.
    #[default]
    RankBased,
    /// Force subquery-containing disjuncts first — the Eqv. 3 shape
    /// (used when the plain disjunct is expensive, and by the rank
    /// ablation experiment).
    SubqueryFirst,
}

/// Heuristic cost of evaluating a predicate once (arbitrary units;
/// subqueries dominate everything else).
fn estimate_cost(p: &Scalar) -> f64 {
    if p.contains_subquery() {
        // Nested-loop evaluation of an entire query block.
        1000.0
    } else {
        let mut nodes = 0.0f64;
        p.walk(&mut |_| nodes += 1.0);
        nodes.max(1.0)
    }
}

/// `rank(p) = (selectivity − 1) / cost`; lower ranks first.
pub fn estimate_rank(p: &Scalar) -> f64 {
    (selectivity(p) - 1.0) / estimate_cost(p)
}

/// Order disjuncts for the bypass chain according to the policy.
/// Sorting is stable, so equal ranks keep query order.
pub fn order_disjuncts(mut ds: Vec<Scalar>, order: DisjunctOrder) -> Vec<Scalar> {
    match order {
        DisjunctOrder::RankBased => {
            ds.sort_by(|a, b| {
                estimate_rank(a)
                    .partial_cmp(&estimate_rank(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            ds
        }
        DisjunctOrder::SubqueryFirst => {
            ds.sort_by_key(|d| !d.contains_subquery());
            ds
        }
    }
}

/// Reorder the operand trees of OR expressions so subquery-containing
/// operands come first (or last). This does **not** unnest anything —
/// it is used to emulate naive evaluation orders in the baseline
/// strategies (a system that always evaluates the nested block first
/// pays for it on every tuple).
pub fn reorder_or_disjuncts(pred: &Scalar, subquery_first: bool) -> Scalar {
    let ds: Vec<Scalar> = pred.disjuncts().into_iter().cloned().collect();
    if ds.len() < 2 {
        return pred.clone();
    }
    let mut ds = ds;
    ds.sort_by_key(|d| {
        let has = d.contains_subquery();
        if subquery_first {
            !has
        } else {
            has
        }
    });
    Scalar::disjunction(ds).expect("non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bypass_algebra::{AggCall, PlanBuilder};

    fn linking() -> Scalar {
        let sub = PlanBuilder::test_scan("s", &["b2"])
            .aggregate(vec![], vec![(AggCall::count_star(), "c".into())])
            .build();
        Scalar::col("a1").eq(Scalar::Subquery(sub))
    }

    fn plain() -> Scalar {
        Scalar::col("a4").gt(Scalar::lit(1500i64))
    }

    #[test]
    fn plain_predicates_rank_lower_than_subqueries() {
        assert!(estimate_rank(&plain()) < estimate_rank(&linking()));
    }

    #[test]
    fn rank_order_puts_plain_first() {
        let ds = order_disjuncts(vec![linking(), plain()], DisjunctOrder::RankBased);
        assert!(!ds[0].contains_subquery());
        assert!(ds[1].contains_subquery());
    }

    #[test]
    fn subquery_first_order() {
        let ds = order_disjuncts(vec![plain(), linking()], DisjunctOrder::SubqueryFirst);
        assert!(ds[0].contains_subquery());
    }

    #[test]
    fn reorder_or_moves_subquery() {
        let pred = linking().or(plain());
        let cheap_first = reorder_or_disjuncts(&pred, false);
        assert!(!cheap_first.disjuncts()[0].contains_subquery());
        let sub_first = reorder_or_disjuncts(&pred, true);
        assert!(sub_first.disjuncts()[0].contains_subquery());
        // Non-disjunctive predicates pass through.
        assert_eq!(reorder_or_disjuncts(&plain(), true), plain());
    }

    #[test]
    fn not_selectivity_complements() {
        let e = plain();
        let not_e = e.clone().not();
        let s = selectivity(&e);
        let sn = selectivity(&not_e);
        assert!((s + sn - 1.0).abs() < 1e-9);
    }
}
