//! Span-derived plan-phase medians for baseline gating.
//!
//! The execution benchmarks (`fig7*`, `operators`) gate the *execute*
//! phase; nothing gated the front half of the pipeline, so a rewrite
//! that made unnesting quadratic (or parsing, or join ordering) only
//! showed up indirectly. This target runs the instrumented profile
//! pipeline with `bypass-trace` enabled, derives per-phase durations
//! from the emitted spans (`sql.parse` / `translate` / `unnest` /
//! `optimize` / `execute` — the same spans EXPLAIN ANALYZE and the
//! Chrome export see), and records the MAD-filtered median of each
//! phase under `phases/{query}/{strategy}/{phase}` in
//! `BENCH_baseline.json`. A plan-phase regression now trips
//! `scripts/bench.sh compare` exactly like an execution regression.
//!
//! Phases are microsecond-scale, so each sample batches several full
//! pipeline runs and divides — one scheduler hiccup cannot dominate a
//! sample, and the MAD filter rejects the rest.

use bypass_bench::timing::{criterion_group, criterion_main, mad_filter, record, Criterion};
use bypass_bench::{rst_database, Q1, Q_COMBINED};
use bypass_core::{Database, Strategy};

/// Same fixed instance as the counter snapshots: deterministic, small
/// enough that canonical evaluation stays fast.
const SF: (f64, f64) = (0.05, 0.05);
const SEED: u64 = 42;

/// The five pipeline phases, in span order. `sql.parse` is emitted by
/// the SQL crate around `parse_statement`; the rest by `core`'s one
/// compile → run pipeline (DESIGN.md §5d).
const PHASES: [(&str, &str); 5] = [
    ("sql.parse", "parse"),
    ("translate", "translate"),
    ("unnest", "unnest"),
    ("optimize", "optimize"),
    ("execute", "execute"),
];

/// Profile `sql` once and return the summed duration (µs) of every
/// span, keyed by span name. Summing makes the extraction robust to a
/// phase emitting more than one span per run.
fn span_micros(db: &Database, sql: &str, strategy: Strategy) -> Vec<(String, u64)> {
    bypass_trace::clear();
    db.profile(sql, strategy).expect("profile must succeed");
    let mut sums: Vec<(String, u64)> = Vec::new();
    for ev in bypass_trace::take_events() {
        if ev.phase != 'X' {
            continue;
        }
        match sums.iter_mut().find(|(n, _)| *n == ev.name) {
            Some((_, d)) => *d += ev.dur_us,
            None => sums.push((ev.name, ev.dur_us)),
        }
    }
    sums
}

fn median_of(samples: &[u128]) -> f64 {
    let (mut kept, _) = mad_filter(samples);
    kept.sort_unstable();
    let n = kept.len();
    if n == 0 {
        return 0.0;
    }
    let med = if n % 2 == 1 {
        kept[n / 2]
    } else {
        (kept[n / 2 - 1] + kept[n / 2]) / 2
    };
    med as f64
}

fn bench_phases(_c: &mut Criterion) {
    let fast = std::env::var(bypass_bench::timing::FAST_ENV)
        .map(|v| !v.trim().is_empty() && v.trim() != "0")
        .unwrap_or(false);
    // `samples × batch` full pipeline runs per (query, strategy).
    let (samples, batch) = if fast { (5, 2) } else { (15, 5) };

    let db = rst_database(SF.0, SF.1, SEED);
    let was_enabled = bypass_trace::enabled();
    bypass_trace::set_enabled(true);

    for (query, sql) in [("q1", Q1), ("qcombined", Q_COMBINED)] {
        for strategy in [Strategy::Canonical, Strategy::Unnested] {
            // Warm-up: touch every code path once before sampling.
            let _ = span_micros(&db, sql, strategy);
            // Per-phase samples; each is a batch average so one
            // scheduler hiccup cannot dominate.
            let mut per_phase: Vec<Vec<u128>> = vec![Vec::with_capacity(samples); PHASES.len()];
            for _ in 0..samples {
                let mut sums = vec![0u128; PHASES.len()];
                for _ in 0..batch {
                    let run = span_micros(&db, sql, strategy);
                    for (i, (span_name, _)) in PHASES.iter().enumerate() {
                        if let Some((_, d)) = run.iter().find(|(n, _)| n == span_name) {
                            sums[i] += u128::from(*d);
                        }
                    }
                }
                for (i, s) in sums.iter().enumerate() {
                    // Batch average at nanosecond precision: dividing
                    // integer microseconds would re-quantize what the
                    // batching just smoothed.
                    per_phase[i].push(s * 1000 / batch as u128);
                }
            }
            for (i, (_, phase)) in PHASES.iter().enumerate() {
                let med_ns = median_of(&per_phase[i]);
                let name = format!("phases/{query}/{strategy}/{phase}");
                println!(
                    "{name:<40} median {:>10.1}µs  ({samples} samples x {batch} runs)",
                    med_ns / 1e3
                );
                record(name, med_ns / 1e9);
            }
        }
    }

    bypass_trace::set_enabled(was_enabled);
    bypass_trace::clear();
}

criterion_group!(benches, bench_phases);
criterion_main!(benches);
