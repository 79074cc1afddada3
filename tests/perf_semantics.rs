//! Semantics gate for the zero-clone executor core: the rebuilt data
//! plane (shared-row tuples, FxHash join/aggregate/memo kernels,
//! `Arc`-shared scans) must be invisible to query results.
//!
//! Four angles:
//!
//! 1. **Bag equality across the strategy matrix** — ≥200 grammar-
//!    generated nested queries on random NULL-heavy instances, every
//!    strategy bag-compared against canonical nested-loop evaluation
//!    (the same oracle as `tests/differential.rs`, driven through the
//!    parallel front end).
//! 2. **Thread-count independence of the oracle driver** — the parallel
//!    oracle driver must produce the *identical* report (and, for
//!    planted bugs, the identical lowest-index mismatch) for every
//!    worker count. This is the determinism contract of
//!    `bypass_types::par`: results return in input order and the lowest
//!    failing index wins.
//! 3. **Worker-count independence of morsel-driven execution** — Q1,
//!    Q4 and Q4's Fig. 6 sibling (a stage chain inside a bypass join,
//!    DESIGN.md §7) executed at 1, 2 and 8 intra-query workers must produce the
//!    identical row sequence, `ExecCounters`, `QueryProfile` counters
//!    and (timing-stripped) EXPLAIN ANALYZE report. This is the
//!    determinism contract of the morsel executor (DESIGN.md §7):
//!    in-order merge, per-worker governor record/replay, and
//!    worker-count-independent metric totals.
//!    The same holds where the *work estimate* forks and nothing is
//!    forced: canonical Q1–Q3 at SF 0.1 under the default gate, whose
//!    outer loops pass it on the weight of their nested plans.
//! 4. **Chunk-length independence of the σ/σ±/Π loops** — the same
//!    queries executed at chunk lengths 1, 2 and 64, serial and at 8
//!    workers, must produce the identical row sequence, `ExecCounters`,
//!    `QueryProfile` counters and (timing-stripped) EXPLAIN ANALYZE
//!    report. This is the determinism contract of DESIGN.md §8:
//!    `batch_rows` sizes the chunks a loop works on, never what it
//!    computes, which disjunct order it adopts or where its governor
//!    checkpoints fall.

use bypass::datagen::rst::{self, Q1, Q2, Q3};
use bypass::{Database, RunLimits};
use bypass_check::{
    run_differential, run_differential_parallel, BrokenUnnestExecutor, DefaultExecutor,
    OracleConfig,
};
use bypass_core::Strategy;

/// ≥200 cases through the parallel driver: every strategy agrees with
/// canonical on every case, and the report is identical to the
/// sequential run for all tested worker counts.
#[test]
fn parallel_oracle_matches_sequential_across_thread_counts() {
    let cfg = OracleConfig::default();
    assert!(cfg.cases >= 200, "oracle budget must stay at ≥200 cases");
    let sequential = run_differential(&cfg).unwrap_or_else(|m| panic!("{m}"));
    assert_eq!(sequential.cases, cfg.cases);
    for threads in [1, 2, 4, 8] {
        let parallel = run_differential_parallel(&cfg, &DefaultExecutor, threads)
            .unwrap_or_else(|m| panic!("threads={threads}: {m}"));
        assert_eq!(
            parallel, sequential,
            "oracle report must not depend on the worker count (threads={threads})"
        );
    }
}

/// The planted-bug self-test under parallel execution: a broken rewrite
/// must not only be *caught* on every thread count, it must be reported
/// as the **same** minimized failing case — otherwise failure replays
/// would depend on scheduling.
#[test]
fn parallel_oracle_reports_identical_mismatch_on_every_thread_count() {
    let cfg = OracleConfig {
        cases: 100,
        strategies: vec![Strategy::Unnested],
        ..OracleConfig::default()
    };
    let reference = run_differential_parallel(&cfg, &BrokenUnnestExecutor, 1)
        .expect_err("flipped bypass streams must be detected");
    for threads in [2, 3, 8] {
        let mismatch = run_differential_parallel(&cfg, &BrokenUnnestExecutor, threads)
            .expect_err("detection must not depend on the worker count");
        assert_eq!(mismatch.case, reference.case, "threads={threads}");
        assert_eq!(mismatch.case_seed, reference.case_seed, "threads={threads}");
        assert_eq!(mismatch.strategy, reference.strategy, "threads={threads}");
        assert_eq!(mismatch.sql, reference.sql, "threads={threads}");
        assert_eq!(
            mismatch.minimized_sql, reference.minimized_sql,
            "threads={threads}"
        );
        assert_eq!(mismatch.instance, reference.instance, "threads={threads}");
    }
}

/// `threads = 0` means "honour `BYPASS_THREADS` / machine parallelism";
/// whatever that resolves to, the report still matches a serial run.
#[test]
fn parallel_oracle_default_thread_count_is_equivalent() {
    let cfg = OracleConfig {
        cases: 60,
        ..OracleConfig::default()
    };
    let serial =
        run_differential_parallel(&cfg, &DefaultExecutor, 1).unwrap_or_else(|m| panic!("{m}"));
    let auto =
        run_differential_parallel(&cfg, &DefaultExecutor, 0).unwrap_or_else(|m| panic!("{m}"));
    assert_eq!(auto, serial);
}

// ---------------------------------------------------------------------------
// Angle 3: worker-count independence of morsel-driven execution.
// ---------------------------------------------------------------------------

/// Q1 with a total order and a LIMIT: covers the sort/limit tail and
/// pins the exact row *sequence*, not just the bag.
const Q1_ORDERED: &str = "SELECT DISTINCT * FROM r \
                          WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) \
                             OR a4 > 1500 \
                          ORDER BY a1, a2, a3, a4 LIMIT 50";

/// The paper's linear query Q4 with the benchmark's plain disjunct:
/// under `Unnested` its inner-inner block attaches to S first and Eqv. 4
/// splits S, so a σ± stream feeds each partial Γ.
const Q4: &str = "SELECT DISTINCT * FROM r \
                  WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s \
                              WHERE a2 = b2 \
                                 OR b3 = (SELECT COUNT(DISTINCT *) FROM t WHERE b4 = c2)) \
                     OR a4 > 1500";

/// Q4 with an EXISTS inner-inner block (Fig. 6's plan): under
/// `Unnested` the `⟕ → σ → Π` run above the inner bypass join is one
/// fused stage chain (DESIGN.md §7), so its tick/charge sequence, stage
/// counters and `fused→#k` report lines are part of what must not
/// depend on workers or batch size.
const Q4_FIG6: &str = "SELECT DISTINCT * FROM r \
                       WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s \
                                   WHERE a2 = b2 \
                                      OR EXISTS (SELECT * FROM t WHERE b4 = c2)) \
                          OR a4 > 1500";

fn rst_database(sf: f64) -> Database {
    let mut db = Database::new();
    rst::register(db.catalog_mut(), &rst::generate(sf, sf, 42)).unwrap();
    db
}

fn morsel_database() -> Database {
    rst_database(0.05)
}

/// The (instance, query) pairs of angles 3 and 4. Q4 and its Fig. 6
/// sibling run on a smaller instance: their canonical plans are cubic.
fn cases() -> Vec<(Database, &'static str)> {
    let fig6_db = rst_database(0.01);
    let report = fig6_db
        .explain_analyze(Q4_FIG6, Strategy::Unnested)
        .unwrap();
    assert!(
        report.contains("HashOuterJoin fused→#") && report.contains("Filter fused→#"),
        "Q4_FIG6's negative stream must run as a fused stage chain:\n{report}"
    );
    vec![
        (morsel_database(), Q1),
        (morsel_database(), Q1_ORDERED),
        (rst_database(0.01), Q4),
        (fig6_db, Q4_FIG6),
    ]
}

/// The profile-comparison subset of [`cases`]: the ordered variant adds
/// nothing per operator.
fn profiled_cases() -> Vec<(Database, &'static str)> {
    let mut all = cases();
    all.remove(1);
    all
}

/// Two profiles of one query agree in everything but wall time: output
/// cardinality, query-wide counters, dual-stream totals and the
/// per-operator counters. The metric maps are keyed by plan-node
/// pointer, which differs across runs, so the sorted multiset of
/// counter tuples is compared — per-disjunct reach/decide counters of
/// chained σ/σ± and in/out rows of fused stages included.
fn assert_same_profile(profile: &bypass::QueryProfile, reference: &bypass::QueryProfile, at: &str) {
    #[allow(clippy::type_complexity)]
    fn metric_multiset(
        p: &bypass::QueryProfile,
    ) -> Vec<(u64, u64, u64, u64, Vec<(u64, u64)>, Vec<(u64, u64)>)> {
        let mut v: Vec<_> = p
            .metrics
            .values()
            .map(|m| {
                (
                    m.calls,
                    m.rows,
                    m.pos_rows,
                    m.neg_rows,
                    m.disjuncts.iter().map(|d| (d.evals, d.hits)).collect(),
                    m.stages.iter().map(|s| (s.rows_in, s.rows_out)).collect(),
                )
            })
            .collect();
        v.sort_unstable();
        v
    }
    assert_eq!(profile.strategy, reference.strategy);
    assert_eq!(profile.rows, reference.rows, "output cardinality ({at})");
    assert_eq!(
        profile.counters, reference.counters,
        "profile counters ({at})"
    );
    assert_eq!(
        profile.bypass_totals(),
        reference.bypass_totals(),
        "dual-stream totals ({at})"
    );
    assert_eq!(
        metric_multiset(profile),
        metric_multiset(reference),
        "per-operator counters ({at})"
    );
}

/// `RunLimits` that pin the intra-query worker count and force morsel
/// fan-out (`morsel_rows = 2` splits even tiny inputs).
fn worker_limits(threads: usize) -> RunLimits {
    RunLimits {
        threads: Some(threads),
        morsel_rows: Some(2),
        ..RunLimits::default()
    }
}

/// Replace every `<digits>.<digits>ms` timing token with `_ms` so
/// EXPLAIN ANALYZE reports can be compared across runs. Everything else
/// (calls, rows, bypass splits, memo and governor counters) must be
/// bit-identical.
fn strip_timings(report: &str) -> String {
    let b = report.as_bytes();
    let mut out = String::with_capacity(report.len());
    let mut i = 0;
    while i < b.len() {
        let mut j = i;
        while j < b.len() && b[j].is_ascii_digit() {
            j += 1;
        }
        if j > i && j < b.len() && b[j] == b'.' {
            let mut k = j + 1;
            while k < b.len() && b[k].is_ascii_digit() {
                k += 1;
            }
            if k > j + 1 && report[k..].starts_with("ms") {
                out.push_str("_ms");
                i = k + 2;
                continue;
            }
        }
        let ch = report[i..].chars().next().unwrap();
        out.push(ch);
        i += ch.len_utf8();
    }
    out
}

/// The exact row sequence and the full `ExecCounters` snapshot are
/// independent of the worker count, for every strategy: morsels merge
/// in input order and per-worker counters fold into totals that do not
/// depend on how the input was partitioned.
#[test]
fn executor_rows_and_counters_are_worker_count_independent() {
    let cases = cases();
    for strategy in Strategy::all() {
        for (db, sql) in &cases {
            let (ref_rows, ref_counters) =
                db.run_governed(sql, strategy, &worker_limits(1)).unwrap();
            for threads in [2, 8] {
                let (rows, counters) = db
                    .run_governed(sql, strategy, &worker_limits(threads))
                    .unwrap();
                assert_eq!(
                    rows.rows(),
                    ref_rows.rows(),
                    "row sequence must not depend on the worker count \
                     ({strategy}, threads={threads})"
                );
                assert_eq!(
                    counters, ref_counters,
                    "ExecCounters must not depend on the worker count \
                     ({strategy}, threads={threads})"
                );
            }
        }
    }
}

/// `QueryProfile` is worker-count independent in everything but wall
/// time: output cardinality, query-wide counters, dual-stream totals,
/// and the per-operator calls/rows/pos/neg multiset.
#[test]
fn query_profiles_are_worker_count_independent() {
    let cases = profiled_cases();
    for strategy in Strategy::all() {
        for (db, sql) in &cases {
            let reference = db
                .profile_governed(sql, strategy, &worker_limits(1))
                .unwrap();
            for threads in [2, 8] {
                let profile = db
                    .profile_governed(sql, strategy, &worker_limits(threads))
                    .unwrap();
                assert_same_profile(
                    &profile,
                    &reference,
                    &format!("{strategy}, threads={threads}"),
                );
            }
        }
    }
}

/// The rendered EXPLAIN ANALYZE report — plan shape, per-operator
/// calls/rows, bypass splits, memo hit rates, governor peak bytes and
/// checkpoint count — is identical at 1, 2 and 8 workers once timing
/// tokens are stripped.
#[test]
fn explain_analyze_snapshots_are_worker_count_independent() {
    let cases = cases();
    for strategy in Strategy::all() {
        for (db, sql) in &cases {
            let reference = strip_timings(
                &db.profile_governed(sql, strategy, &worker_limits(1))
                    .unwrap()
                    .render(),
            );
            assert!(
                reference.contains("calls=") && reference.contains("peak_memory="),
                "snapshot must carry counters:\n{reference}"
            );
            for threads in [2, 8] {
                let snapshot = strip_timings(
                    &db.profile_governed(sql, strategy, &worker_limits(threads))
                        .unwrap()
                        .render(),
                );
                assert_eq!(
                    snapshot, reference,
                    "EXPLAIN ANALYZE must not depend on the worker count \
                     ({strategy}, threads={threads})"
                );
            }
        }
    }
}

/// Under the default gate it is the work estimate that forks (DESIGN.md
/// §7): 1 000 outer rows weigh 4 + 1 000 units each, so the outer σ of
/// Q1, Q2 and Q3 fans out, once per call, while every nested σ stays on
/// the worker that evaluates it. A worker keeps its context across the
/// morsels of one fan-out; rows, counters, profiles and the rendered
/// report (`disjuncts=[…]`, `calls=`) must not show it.
#[test]
fn canonical_plans_forked_by_the_work_gate_are_worker_count_independent() {
    let db = rst_database(0.1);
    let limits = |threads| RunLimits {
        threads: Some(threads),
        ..RunLimits::default()
    };
    for sql in [Q1, Q2, Q3] {
        let (ref_rows, ref_counters) = db
            .run_governed(sql, Strategy::Canonical, &limits(1))
            .unwrap();
        let reference = db
            .profile_governed(sql, Strategy::Canonical, &limits(1))
            .unwrap();
        let report = strip_timings(&reference.render());
        assert!(
            report.contains("calls=") && report.contains("disjuncts=["),
            "snapshot must carry counters:\n{report}"
        );
        for threads in [2, 8] {
            let at = format!("{sql}, threads={threads}");
            let (rows, counters) = db
                .run_governed(sql, Strategy::Canonical, &limits(threads))
                .unwrap();
            assert_eq!(rows.rows(), ref_rows.rows(), "row sequence ({at})");
            assert_eq!(counters, ref_counters, "ExecCounters ({at})");
            let profile = db
                .profile_governed(sql, Strategy::Canonical, &limits(threads))
                .unwrap();
            assert_same_profile(&profile, &reference, &at);
            assert_eq!(
                strip_timings(&profile.render()),
                report,
                "EXPLAIN ANALYZE ({at})"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Angle 4: chunk-length independence of the σ/σ±/Π loops.
// ---------------------------------------------------------------------------

/// `RunLimits` that pin the chunk length alongside the worker count
/// (morsel fan-out stays forced so the chunk × thread interaction is
/// exercised, not just serial chunking).
fn batch_limits(batch: usize, threads: usize) -> RunLimits {
    RunLimits {
        threads: Some(threads),
        morsel_rows: Some(2),
        batch_rows: Some(batch),
        ..RunLimits::default()
    }
}

/// The exact row sequence and the full `ExecCounters` snapshot are
/// independent of the chunk length, for every strategy, serial and
/// parallel: a chunk passes the checkpoints its rows define one by
/// one, and kernels are scratch evaluation the counters never see.
#[test]
fn executor_rows_and_counters_are_batch_size_independent() {
    let cases = cases();
    for strategy in Strategy::all() {
        for (db, sql) in &cases {
            let (ref_rows, ref_counters) =
                db.run_governed(sql, strategy, &batch_limits(1, 1)).unwrap();
            for batch in [1, 2, 64] {
                for threads in [1, 8] {
                    let (rows, counters) = db
                        .run_governed(sql, strategy, &batch_limits(batch, threads))
                        .unwrap();
                    assert_eq!(
                        rows.rows(),
                        ref_rows.rows(),
                        "row sequence must not depend on the batch size \
                         ({strategy}, batch={batch}, threads={threads})"
                    );
                    assert_eq!(
                        counters, ref_counters,
                        "ExecCounters must not depend on the batch size \
                         ({strategy}, batch={batch}, threads={threads})"
                    );
                }
            }
        }
    }
}

/// `QueryProfile` is batch-size independent in everything but wall
/// time: output cardinality, query-wide counters, dual-stream totals,
/// per-operator calls/rows/pos/neg and the per-disjunct
/// reach/decide counters of chained σ/σ±.
#[test]
fn query_profiles_are_batch_size_independent() {
    let cases = profiled_cases();
    for strategy in Strategy::all() {
        for (db, sql) in &cases {
            let reference = db
                .profile_governed(sql, strategy, &batch_limits(1, 1))
                .unwrap();
            for batch in [1, 2, 64] {
                for threads in [1, 8] {
                    let profile = db
                        .profile_governed(sql, strategy, &batch_limits(batch, threads))
                        .unwrap();
                    let at = format!("{strategy}, batch={batch}, threads={threads}");
                    assert_same_profile(&profile, &reference, &at);
                }
            }
        }
    }
}

/// The rendered EXPLAIN ANALYZE report — including the `disjuncts=[...]`
/// selectivity block of chained σ/σ± — is identical at chunk
/// lengths 1, 2 and 64 once timing tokens are stripped.
#[test]
fn explain_analyze_snapshots_are_batch_size_independent() {
    let cases = cases();
    for strategy in Strategy::all() {
        for (db, sql) in &cases {
            let reference = strip_timings(
                &db.profile_governed(sql, strategy, &batch_limits(1, 1))
                    .unwrap()
                    .render(),
            );
            for batch in [1, 2, 64] {
                for threads in [1, 8] {
                    let snapshot = strip_timings(
                        &db.profile_governed(sql, strategy, &batch_limits(batch, threads))
                            .unwrap()
                            .render(),
                    );
                    assert_eq!(
                        snapshot, reference,
                        "EXPLAIN ANALYZE must not depend on the batch size \
                         ({strategy}, batch={batch}, threads={threads})"
                    );
                }
            }
        }
    }
}
