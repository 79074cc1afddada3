//! Pattern analysis shared by the rewrites: recognizing linking
//! predicates, decomposing inner blocks into correlation and local
//! parts, and substituting unnested subqueries by computed columns.

use std::sync::Arc;

use bypass_algebra::{AggCall, BinOp, LogicalPlan, Scalar};
use bypass_types::Schema;

/// A linking predicate `x θ (SELECT f(..) ...)`: the outer operand, the
/// comparison (normalized so the subquery is on the right), and the
/// nested plan.
#[derive(Debug, Clone)]
pub struct LinkingRef {
    pub outer: Scalar,
    pub op: BinOp,
    pub plan: Arc<LogicalPlan>,
}

/// Recognize a (possibly flipped) linking comparison. The outer operand
/// must itself be subquery-free.
pub fn linking_ref(e: &Scalar) -> Option<LinkingRef> {
    let Scalar::Binary { op, left, right } = e else {
        return None;
    };
    if !op.is_comparison() {
        return None;
    }
    match (left.as_ref(), right.as_ref()) {
        (x, Scalar::Subquery(plan)) if !x.contains_subquery() => Some(LinkingRef {
            outer: x.clone(),
            op: *op,
            plan: plan.clone(),
        }),
        (Scalar::Subquery(plan), x) if !x.contains_subquery() => Some(LinkingRef {
            outer: x.clone(),
            op: op.flip(),
            plan: plan.clone(),
        }),
        _ => None,
    }
}

/// A scalar-aggregate subquery plan: `Γ_{;g:f}(input)` — the shape the
/// canonical translation produces for type A/JA blocks.
#[derive(Debug, Clone)]
pub struct ScalarAggPlan {
    pub agg: AggCall,
    pub input: Arc<LogicalPlan>,
}

/// Match a key-less single-aggregate plan.
pub fn scalar_agg(plan: &LogicalPlan) -> Option<ScalarAggPlan> {
    let LogicalPlan::Aggregate { input, keys, aggs } = plan else {
        return None;
    };
    if !keys.is_empty() || aggs.len() != 1 {
        return None;
    }
    Some(ScalarAggPlan {
        agg: aggs[0].0.clone(),
        input: input.clone(),
    })
}

/// Is the expression evaluable purely in the inner scope (no free refs,
/// ignoring nested subqueries' own scopes)?
pub fn is_local(e: &Scalar, inner: &Schema) -> bool {
    e.free_refs(inner).is_empty()
}

/// Is the expression purely an *outer* expression relative to the inner
/// scope — every column reference unresolvable inside, and no nested
/// subqueries?
pub fn is_outer_only(e: &Scalar, inner: &Schema) -> bool {
    if e.contains_subquery() {
        return false;
    }
    e.column_refs().iter().all(|c| !c.resolves_in(inner))
}

/// An equality correlation predicate split into its outer expression and
/// its inner (bound) key column: `outer_expr = inner_col`.
#[derive(Debug, Clone)]
pub struct EqCorrelation {
    pub outer: Scalar,
    /// The bound side — a plain column of the inner scope.
    pub key: Scalar,
}

/// Recognize `outer θ= inner_col` / `inner_col θ= outer` against the
/// inner scope. The bound side must be a plain column (it becomes a
/// grouping key); the outer side may be any subquery-free expression.
pub fn eq_correlation(e: &Scalar, inner: &Schema) -> Option<EqCorrelation> {
    let Scalar::Binary {
        op: BinOp::Eq,
        left,
        right,
    } = e
    else {
        return None;
    };
    let bound_col = |s: &Scalar| -> bool { matches!(s, Scalar::Column(c) if c.resolves_in(inner)) };
    if is_outer_only(left, inner) && bound_col(right) {
        return Some(EqCorrelation {
            outer: (**left).clone(),
            key: (**right).clone(),
        });
    }
    if is_outer_only(right, inner) && bound_col(left) {
        return Some(EqCorrelation {
            outer: (**right).clone(),
            key: (**left).clone(),
        });
    }
    None
}

/// Replace one specific subquery (identified by plan pointer) inside an
/// expression with a replacement scalar (the unnested aggregate column).
pub fn substitute_subquery(e: &Scalar, target: &Arc<LogicalPlan>, replacement: &Scalar) -> Scalar {
    match e {
        Scalar::Subquery(p) if Arc::ptr_eq(p, target) => replacement.clone(),
        _ => e.map_children(&mut |c| substitute_subquery(c, target, replacement)),
    }
}

/// All scalar subqueries appearing in an expression (only `Subquery`,
/// not EXISTS/IN — those are desugared first).
pub fn scalar_subqueries(e: &Scalar) -> Vec<Arc<LogicalPlan>> {
    let mut out = Vec::new();
    e.walk(&mut |x| {
        if let Scalar::Subquery(p) = x {
            out.push(p.clone());
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bypass_algebra::PlanBuilder;
    use bypass_types::{DataType, Field};

    fn inner_schema() -> Schema {
        Schema::new(vec![
            Field::qualified("s", "b1", DataType::Int),
            Field::qualified("s", "b2", DataType::Int),
        ])
    }

    fn sub() -> Arc<LogicalPlan> {
        PlanBuilder::test_scan("s", &["b1", "b2"])
            .aggregate(vec![], vec![(AggCall::count_star(), "c".into())])
            .build()
    }

    #[test]
    fn linking_recognition_and_flip() {
        let l = linking_ref(&Scalar::qcol("r", "a1").eq(Scalar::Subquery(sub()))).unwrap();
        assert_eq!(l.op, BinOp::Eq);
        assert_eq!(l.outer, Scalar::qcol("r", "a1"));

        let l = linking_ref(&Scalar::binary(
            BinOp::Lt,
            Scalar::Subquery(sub()),
            Scalar::qcol("r", "a1"),
        ))
        .unwrap();
        assert_eq!(l.op, BinOp::Gt, "subquery normalized to the right");

        // Not linking: no subquery / non-comparison.
        assert!(linking_ref(&Scalar::col("a").eq(Scalar::col("b"))).is_none());
        assert!(linking_ref(&Scalar::col("a").and(Scalar::col("b"))).is_none());
        // Both sides subqueries: outer operand must be subquery-free.
        assert!(linking_ref(&Scalar::Subquery(sub()).eq(Scalar::Subquery(sub()))).is_none());
    }

    #[test]
    fn scalar_agg_matching() {
        let p = sub();
        let m = scalar_agg(&p).unwrap();
        assert_eq!(m.agg, AggCall::count_star());
        // Grouped aggregate does not match.
        let grouped = PlanBuilder::test_scan("s", &["b2"])
            .aggregate(
                vec![Scalar::qcol("s", "b2")],
                vec![(AggCall::count_star(), "c".into())],
            )
            .build();
        assert!(scalar_agg(&grouped).is_none());
    }

    #[test]
    fn locality_and_outerness() {
        let s = inner_schema();
        assert!(is_local(&Scalar::qcol("s", "b2").gt(Scalar::lit(1i64)), &s));
        assert!(!is_local(
            &Scalar::col("a2").eq(Scalar::qcol("s", "b2")),
            &s
        ));
        assert!(is_outer_only(&Scalar::col("a2"), &s));
        assert!(!is_outer_only(&Scalar::qcol("s", "b2"), &s));
        // Mixed expression is neither local nor outer-only.
        let mixed = Scalar::binary(BinOp::Add, Scalar::col("a2"), Scalar::qcol("s", "b2"));
        assert!(!is_local(&mixed, &s));
        assert!(!is_outer_only(&mixed, &s));
    }

    #[test]
    fn eq_correlation_both_orientations() {
        let s = inner_schema();
        let c = eq_correlation(&Scalar::col("a2").eq(Scalar::qcol("s", "b2")), &s).unwrap();
        assert_eq!(c.outer, Scalar::col("a2"));
        assert_eq!(c.key, Scalar::qcol("s", "b2"));

        let c = eq_correlation(&Scalar::qcol("s", "b2").eq(Scalar::col("a2")), &s).unwrap();
        assert_eq!(c.outer, Scalar::col("a2"));

        // Non-equality or local-only are not correlations.
        assert!(eq_correlation(&Scalar::col("a2").gt(Scalar::qcol("s", "b2")), &s).is_none());
        assert!(eq_correlation(&Scalar::qcol("s", "b1").eq(Scalar::qcol("s", "b2")), &s).is_none());
    }

    #[test]
    fn substitution_replaces_only_the_target() {
        let p1 = sub();
        let p2 = sub();
        let e = Scalar::qcol("r", "a1")
            .eq(Scalar::Subquery(p1.clone()))
            .or(Scalar::qcol("r", "a3").eq(Scalar::Subquery(p2.clone())));
        let out = substitute_subquery(&e, &p1, &Scalar::col("__g0"));
        let subs = scalar_subqueries(&out);
        assert_eq!(subs.len(), 1);
        assert!(Arc::ptr_eq(&subs[0], &p2));
        assert!(out.to_string().contains("__g0"), "{out}");
    }
}
