//! Deterministic gate for the always-on metrics registry.
//!
//! No timing groups. The target runs a fixed workload (Q1/Q2/the
//! combined query under canonical and unnested evaluation) into
//! isolated metrics hubs across the worker-count × chunk-length matrix
//! and asserts that every configuration folds to the *bit-identical*
//! timing-free snapshot — the PR 6 replay discipline applied to
//! telemetry. It then records the count-derived metric values under
//! `metrics/counters/…`, so `scripts/bench.sh compare` trips if a
//! refactor silently changes what the registry observes (rows,
//! disjunct selectivities, memo traffic, governor byte model).

use std::sync::Arc;

use bypass_bench::timing::{criterion_group, criterion_main, record, Criterion};
use bypass_bench::{rst_database, Q1, Q2, Q_COMBINED};
use bypass_core::{MetricsHub, RunLimits, Strategy};

const SF: (f64, f64) = (0.05, 0.05);
const SEED: u64 = 42;

/// Run the fixed workload into a fresh hub under one executor shape.
fn run_workload(threads: usize, batch_rows: usize) -> Arc<MetricsHub> {
    let hub = Arc::new(MetricsHub::new());
    let db = rst_database(SF.0, SF.1, SEED).with_metrics_hub(Arc::clone(&hub));
    let limits = RunLimits {
        threads: Some(threads),
        batch_rows: Some(batch_rows),
        morsel_rows: (threads > 1).then_some(16),
        ..RunLimits::default()
    };
    for sql in [Q1, Q2, Q_COMBINED] {
        for strategy in [Strategy::Canonical, Strategy::Unnested] {
            db.run_governed(sql, strategy, &limits)
                .unwrap_or_else(|e| panic!("{strategy}: {e}"));
        }
    }
    hub
}

fn bench_metrics(_c: &mut Criterion) {
    let reference = run_workload(1, 1);
    let expected = reference.snapshot().deterministic();
    for (threads, batch_rows) in [(1, 64), (8, 1), (8, 64)] {
        let got = run_workload(threads, batch_rows).snapshot().deterministic();
        assert_eq!(
            got, expected,
            "deterministic snapshot differs at threads={threads} chunks of {batch_rows}"
        );
    }

    // Gate the count-derived series in the baseline registry. Gauges
    // and counters only — `deterministic()` already stripped the
    // wall-clock histograms.
    for (key, labels) in [
        ("rows_total", ("bypass_rows_total", vec![])),
        ("checkpoints_total", ("bypass_checkpoints_total", vec![])),
        ("memo_hits_total", ("bypass_memo_hits_total", vec![])),
        ("memo_misses_total", ("bypass_memo_misses_total", vec![])),
        (
            "disjunct_evals_total",
            ("bypass_disjunct_evals_total", vec![]),
        ),
        (
            "disjunct_hits_total",
            ("bypass_disjunct_hits_total", vec![]),
        ),
        ("peak_memory_bytes", ("bypass_peak_memory_bytes", vec![])),
        (
            "queries_canonical",
            ("bypass_queries_total", vec![("strategy", "canonical")]),
        ),
        (
            "queries_unnested",
            ("bypass_queries_total", vec![("strategy", "unnested")]),
        ),
        (
            "unnest_bypass_chain",
            (
                "bypass_unnest_outcomes_total",
                vec![("outcome", "bypass:chain")],
            ),
        ),
    ] {
        let (name, labels) = labels;
        let value = match expected.get(name, &labels) {
            Some(bypass_core::MetricValue::Counter(v)) => *v as f64,
            Some(bypass_core::MetricValue::Gauge(v)) => *v as f64,
            other => panic!("{name}{labels:?}: unexpected entry {other:?}"),
        };
        record(format!("metrics/counters/registry/{key}"), value);
        println!("metrics/counters/registry/{key} = {value}");
    }
}

criterion_group!(benches, bench_metrics);
criterion_main!(benches);
