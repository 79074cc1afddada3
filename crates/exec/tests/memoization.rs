//! Memoization behaviour of the nested-subquery evaluator, observed
//! through the per-operator metrics: the caches that emulate the
//! commercial baselines must actually change how often subplans run.

use std::sync::Arc;

use bypass_algebra::{AggCall, Scalar};
use bypass_catalog::{Catalog, TableBuilder};
use bypass_exec::{physical_plan, ExecContext, ExecOptions, PhysNode};
use bypass_types::{DataType, Error, ResourceKind, Value, ROW_OVERHEAD_BYTES, VALUE_BYTES};

/// R has `n` rows whose a2 takes only two distinct values; S is small.
fn catalog(n: i64) -> Catalog {
    let mut c = Catalog::new();
    let mut r = TableBuilder::new()
        .column("a1", DataType::Int)
        .column("a2", DataType::Int);
    for k in 0..n {
        r = r.row(vec![Value::Int(k), Value::Int(k % 2)]).unwrap();
    }
    let mut s = TableBuilder::new()
        .column("b1", DataType::Int)
        .column("b2", DataType::Int);
    for k in 0..4i64 {
        s = s.row(vec![Value::Int(k), Value::Int(k % 2)]).unwrap();
    }
    c.register("r", r.build()).unwrap();
    c.register("s", s.build()).unwrap();
    c
}

/// Canonical σ_{a1 θ count(σ_{a2=b2}(s))}(r) plan.
fn correlated_plan(c: &Catalog) -> Arc<PhysNode> {
    let sub = bypass_algebra::PlanBuilder::scan("s", "s", c.get("s").unwrap().schema().clone())
        .filter(Scalar::col("a2").eq(Scalar::qcol("s", "b2")))
        .aggregate(vec![], vec![(AggCall::count_star(), "cnt".into())])
        .build();
    let plan = bypass_algebra::PlanBuilder::scan("r", "r", c.get("r").unwrap().schema().clone())
        .filter(Scalar::lit(0i64).lt(Scalar::Subquery(sub)))
        .build();
    physical_plan(&plan, c).unwrap()
}

/// Total subplan executions = max `calls` seen on any non-root operator
/// (the nested aggregate runs once per invocation).
fn max_calls(metrics: &std::collections::HashMap<usize, bypass_exec::NodeMetrics>) -> u64 {
    metrics.values().map(|m| m.calls).max().unwrap_or(0)
}

#[test]
fn correlation_memo_reduces_subplan_calls() {
    let c = catalog(10);
    let plan = correlated_plan(&c);

    // Without the memo: one subplan evaluation per outer row (10).
    let mut ctx = ExecContext::new(ExecOptions {
        memo_correlated: false,
        ..Default::default()
    })
    .with_metrics();
    let out_plain = ctx.eval_plan(&plan).unwrap();
    let plain_calls = max_calls(&ctx.take_metrics());
    assert!(
        plain_calls >= 10,
        "expected ≥10 subplan runs, got {plain_calls}"
    );

    // With the memo: only as many evaluations as distinct a2 values (2).
    let mut ctx = ExecContext::new(ExecOptions {
        memo_correlated: true,
        ..Default::default()
    })
    .with_metrics();
    let out_memo = ctx.eval_plan(&plan).unwrap();
    let memo_calls = max_calls(&ctx.take_metrics());
    assert!(
        memo_calls <= 4,
        "memo should collapse to ~2 distinct keys, got {memo_calls}"
    );
    assert!(out_plain.bag_eq(&out_memo), "results must not change");
}

#[test]
fn uncorrelated_memo_runs_type_a_subquery_once() {
    let c = catalog(10);
    // Uncorrelated (type A) subquery: min(b1).
    let sub = bypass_algebra::PlanBuilder::scan("s", "s", c.get("s").unwrap().schema().clone())
        .aggregate(
            vec![],
            vec![(
                AggCall::new(
                    bypass_algebra::AggFunc::Min,
                    false,
                    Some(Scalar::qcol("s", "b1")),
                ),
                "m".into(),
            )],
        )
        .build();
    let plan = bypass_algebra::PlanBuilder::scan("r", "r", c.get("r").unwrap().schema().clone())
        .filter(Scalar::qcol("r", "a1").gt(Scalar::Subquery(sub)))
        .build();
    let phys = physical_plan(&plan, &c).unwrap();

    let mut ctx = ExecContext::new(ExecOptions::default()).with_metrics();
    ctx.eval_plan(&phys).unwrap();
    let memo_calls = max_calls(&ctx.take_metrics());
    assert!(memo_calls <= 2, "type A evaluated once, got {memo_calls}");

    let mut ctx = ExecContext::new(ExecOptions {
        memo_uncorrelated: false,
        ..Default::default()
    })
    .with_metrics();
    ctx.eval_plan(&phys).unwrap();
    let naive_calls = max_calls(&ctx.take_metrics());
    assert!(
        naive_calls >= 10,
        "S1-style evaluation re-runs it per tuple, got {naive_calls}"
    );
}

#[test]
fn memory_budget_stops_a_runaway_pair_loop() {
    let c = catalog(3000);
    // Self-join 3000 × 3000 = 9M pairs, about 4.5M of them kept
    // (non-equi → NL join), against a budget of 1M kept pairs.
    let plan = bypass_algebra::PlanBuilder::scan("r", "a", c.get("r").unwrap().schema().clone())
        .cross_join(bypass_algebra::PlanBuilder::scan(
            "r",
            "b",
            c.get("r").unwrap().schema().clone(),
        ))
        .filter(Scalar::qcol("a", "a1").lt(Scalar::qcol("b", "a1")))
        .build();
    let phys = physical_plan(&plan, &c).unwrap();
    // A kept pair is 4 Int cells.
    let pair = ROW_OVERHEAD_BYTES + 4 * VALUE_BYTES;
    let budget = 1_000_000 * pair;
    let mut ctx = ExecContext::new(ExecOptions {
        max_memory_bytes: Some(budget),
        ..Default::default()
    });
    let err = ctx.eval_plan(&phys).unwrap_err();
    match err {
        Error::ResourceExhausted {
            resource: ResourceKind::Memory,
            limit,
            observed,
        } => {
            assert_eq!(limit, budget, "{err}");
            assert!(observed > budget && observed <= budget + pair, "{err}");
        }
        _ => panic!("expected a memory trip, got {err}"),
    }
    assert!(
        err.to_string().contains(&format!("limit {budget}")),
        "{err}"
    );
    // It stopped at the charge that crossed the budget, not after the loop.
    assert!(ctx.counters().peak_memory_bytes <= budget + pair);
}
