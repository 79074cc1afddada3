//! Operator-level micro-benchmarks: the physical building blocks the
//! unnested plans rely on (hash join vs nested loop, grouping, distinct,
//! the bypass selection) plus the memoization ablations of the nested-
//! loop strategies.

use bypass_bench::timing::{criterion_group, criterion_main, BenchmarkId, Criterion};

use std::sync::Arc;

use bypass_algebra::AggFunc;
use bypass_bench::rst_database;
use bypass_core::Strategy;
use bypass_datagen::rst;
use bypass_exec::{evaluate, AggSpec, PhysExpr, PhysKind, PhysNode};
use bypass_types::{DataType, Field, Relation, Schema};

/// `Γ_{b2; COUNT([DISTINCT] *)}(s)`.
fn group_by_b2(s: &Arc<Relation>, distinct: bool) -> Arc<PhysNode> {
    let scan = PhysNode::new(PhysKind::Scan { data: s.clone() }, s.schema().clone());
    let schema = Schema::new(vec![
        Field::new("b2", DataType::Int),
        Field::new("g", DataType::Int),
    ]);
    PhysNode::new(
        PhysKind::HashAggregate {
            input: scan,
            keys: vec![PhysExpr::Column(1)],
            aggs: vec![AggSpec {
                func: AggFunc::Count,
                distinct,
                arg: None,
            }],
        },
        schema,
    )
}

fn bench_operators(c: &mut Criterion) {
    let mut group = c.benchmark_group("operators");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let db = rst_database(0.1, 0.1, 42);

    // Equi join: hash (planner picks it) — the workhorse of Eqv. 1-4.
    group.bench_function("hash_join_1k", |b| {
        b.iter(|| db.sql("SELECT COUNT(*) FROM r, s WHERE a1 = b1").unwrap())
    });
    // θ-join falls back to a nested loop.
    group.bench_function("nl_join_theta_1k", |b| {
        b.iter(|| {
            db.sql("SELECT COUNT(*) FROM r, s WHERE a1 < b1 AND a2 > b2 AND a3 = 7")
                .unwrap()
        })
    });
    // Unary grouping Γ on `b2` (physical plan built directly), with a
    // constant-state and a DISTINCT aggregate: ~850 groups at 1k rows,
    // ~2900 at 10k.
    for (rows, sf) in [("1k", 0.1), ("10k", 1.0)] {
        let s = Arc::new(rst::table('b', sf, 43));
        for (name, distinct) in [("hash_group", false), ("hash_group_distinct", true)] {
            let plan = group_by_b2(&s, distinct);
            group.bench_function(format!("{name}_{rows}"), |b| {
                b.iter(|| evaluate(&plan).unwrap())
            });
        }
    }
    // Inner hash join with the small input on the left: 100 × 10 000.
    let (small, big) = (rst::table('a', 0.01, 42), rst::table('b', 1.0, 43));
    let mut lopsided = bypass_core::Database::new();
    lopsided.catalog_mut().register("r", small).unwrap();
    lopsided.catalog_mut().register("s", big).unwrap();
    group.bench_function("hash_join_small_left_big_right", |b| {
        b.iter(|| {
            lopsided
                .sql("SELECT COUNT(*) FROM r, s WHERE a1 = b1")
                .unwrap()
        })
    });
    // Duplicate elimination.
    group.bench_function("distinct_1k", |b| {
        b.iter(|| db.sql("SELECT DISTINCT a2 FROM r").unwrap())
    });
    // Bypass selection (whole unnested Q1 plan at this scale).
    group.bench_function("bypass_chain_q1_1k", |b| {
        b.iter(|| {
            db.sql_with(bypass_bench::Q1, Strategy::Unnested, None)
                .unwrap()
        })
    });

    // Memoization ablation: an uncorrelated (type A) subquery evaluated
    // with and without materialization.
    let type_a = "SELECT COUNT(*) FROM r \
                  WHERE a1 >= (SELECT MIN(b1) FROM s WHERE b4 > 1500) OR a4 > 2900";
    for strategy in [Strategy::Canonical, Strategy::S1Naive] {
        group.bench_with_input(
            BenchmarkId::new("type_a_memo", strategy.to_string()),
            &db,
            |b, db| b.iter(|| db.sql_with(type_a, strategy, None).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_operators);
criterion_main!(benches);
