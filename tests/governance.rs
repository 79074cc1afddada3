//! End-to-end resource-governance gates: timed-out prepared statements
//! re-execute cleanly, memory budgets trip with typed errors and leave
//! no residue, cancellation of one query never perturbs a concurrent
//! one, and the governor's byte/checkpoint counters are deterministic
//! across runs and strategies.

use std::time::Duration;

use bypass::datagen::rst::{self, Q1};
use bypass::{CancelToken, Database, Error, ResourceKind, RunLimits, Strategy};

/// The benchmark's Q4 (`rst_linear`): the paper's linear query plus a
/// plain disjunct. Unnested, its inner-inner block attaches to S first
/// and Eqv. 4 splits S: no pair loop.
const Q4: &str = "SELECT DISTINCT * FROM r \
                  WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s \
                              WHERE a2 = b2 \
                                 OR b3 = (SELECT COUNT(DISTINCT *) FROM t WHERE b4 = c2)) \
                     OR a4 > 1500";

/// Q4 with an EXISTS inner-inner block (the Fig. 6 plan). Unnested, the
/// `⟕ → σ → Π` run over the inner bypass join's negative stream is one
/// fused stage chain (DESIGN.md §7).
const Q4_FIG6: &str = "SELECT DISTINCT * FROM r \
                       WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s \
                                   WHERE a2 = b2 \
                                      OR EXISTS (SELECT * FROM t WHERE b4 = c2)) \
                          OR a4 > 1500";

fn q1_database(strategy: Strategy) -> Database {
    let mut db = Database::new().with_default_strategy(strategy);
    rst::register(db.catalog_mut(), &rst::generate(0.05, 0.05, 42)).unwrap();
    db
}

/// A timed-out `Prepared` is not poisoned: the deadline applies to one
/// run only, and the next execution (same compiled plan, same
/// `Database`) succeeds with exactly the canonical answer and exactly
/// the counters of a never-failed run.
#[test]
fn timed_out_prepared_reexecutes_cleanly() {
    let db = q1_database(Strategy::Canonical);
    let q = db.prepare(Q1, Strategy::Canonical).unwrap();

    // Reference: a run that never failed.
    let (reference, ref_counters) = q.execute_governed(&RunLimits::default()).unwrap();

    // An already-expired deadline trips at the first governor
    // checkpoint with the typed Time error.
    let err = q
        .execute_governed(&RunLimits {
            timeout: Some(Duration::ZERO),
            ..Default::default()
        })
        .expect_err("zero timeout must fire");
    assert!(
        matches!(
            err,
            Error::ResourceExhausted {
                resource: ResourceKind::Time,
                ..
            }
        ),
        "{err}"
    );
    assert!(err.to_string().contains("timed out"), "{err}");

    // Re-execution on the same Prepared: same rows, same counters — no
    // memo, metric or governor residue survives the failed run.
    let (again, counters) = q.execute_governed(&RunLimits::default()).unwrap();
    assert!(again.bag_eq(&reference), "re-run must reproduce the answer");
    assert_eq!(counters, ref_counters, "no residue from the timed-out run");

    // And several more times, for good measure (each run gets a fresh
    // ExecContext).
    for _ in 0..3 {
        assert_eq!(q.execute().unwrap().len(), reference.len());
    }
}

/// A memory budget below the query's deterministic peak trips with the
/// typed Memory error; a budget at the measured peak passes. Both
/// outcomes leave the `Database` fully usable. `Q4_FIG6` checks the same
/// on a fused plan, where the peak is what the chain's survivors occupy,
/// not the |R|·|S| negative stream (44.7 MB before fusion); Q4 on its
/// Eqv. 4 plan; a scalar `COUNT(DISTINCT …)` on what its DISTINCT set
/// retains.
#[test]
fn memory_budget_is_byte_accurate_at_the_measured_peak() {
    let db = q1_database(Strategy::Unnested);
    let distinct = "SELECT COUNT(DISTINCT a4) FROM r";
    let sqls = [
        (Q1, u64::MAX),
        (Q4, 8 << 20),
        (Q4_FIG6, 8 << 20),
        (distinct, u64::MAX),
    ];
    for (sql, peak_below) in sqls {
        let (reference, counters) = db
            .run_governed(sql, Strategy::Unnested, &RunLimits::default())
            .unwrap();
        let peak = counters.peak_memory_bytes;
        assert!(peak > 0 && peak < peak_below, "peak {peak} bytes for {sql}");

        // Budget exactly at the peak: passes (the guard is `used > cap`).
        let (at_cap, at_cap_counters) = db
            .run_governed(
                sql,
                Strategy::Unnested,
                &RunLimits {
                    max_memory_bytes: Some(peak),
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(at_cap.bag_eq(&reference));
        assert_eq!(
            at_cap_counters.peak_memory_bytes, peak,
            "byte model is deterministic"
        );

        // One byte less: trips, with limit/observed in the typed error.
        let err = db
            .run_governed(
                sql,
                Strategy::Unnested,
                &RunLimits {
                    max_memory_bytes: Some(peak - 1),
                    ..Default::default()
                },
            )
            .expect_err("budget one byte under the peak must trip");
        match err {
            Error::ResourceExhausted {
                resource: ResourceKind::Memory,
                limit,
                observed,
            } => {
                assert_eq!(limit, peak - 1);
                assert!(observed > limit, "observed {observed} <= limit {limit}");
            }
            other => panic!("wrong error: {other}"),
        }

        // The database is untouched: the same query still answers.
        assert!(db.sql(sql).unwrap().bag_eq(&reference));
    }
}

/// Cancelling one query must not perturb a concurrent one: two workers
/// run in parallel, one under a cancelled token (fails at its first
/// checkpoint), the other profiles Q1 — and its report is identical to
/// the sequential reference, counter for counter.
#[test]
fn cancellation_of_one_query_leaves_a_concurrent_one_untouched() {
    let db = q1_database(Strategy::Unnested);
    let reference = db.profile(Q1, Strategy::Unnested).unwrap();
    let ref_counters = reference.counters;
    let ref_bypass = reference.bypass_totals();

    for _round in 0..4 {
        let token = CancelToken::new();
        token.cancel();
        let limits = RunLimits {
            cancel: Some(token.clone()),
            ..Default::default()
        };
        std::thread::scope(|scope| {
            let cancelled = scope.spawn(|| db.run_governed(Q1, Strategy::Unnested, &limits));
            let surviving = scope.spawn(|| db.profile(Q1, Strategy::Unnested).unwrap());

            let err = cancelled
                .join()
                .unwrap()
                .expect_err("pre-cancelled token must abort the run");
            assert_eq!(err, Error::Cancelled);

            let p = surviving.join().unwrap();
            assert_eq!(p.counters, ref_counters, "survivor's counters unchanged");
            assert_eq!(p.bypass_totals(), ref_bypass);
            assert_eq!(p.rows, reference.rows);
        });
        // The token is reusable after a reset.
        token.reset();
        assert!(db.run_governed(Q1, Strategy::Unnested, &limits).is_ok());
    }
}

/// The governor's peak-memory and checkpoint counters are a pure
/// function of (plan, data): identical across repeated runs for every
/// strategy in the matrix.
#[test]
fn governor_counters_are_deterministic_across_the_strategy_matrix() {
    let db = q1_database(Strategy::Canonical);
    for strategy in Strategy::all() {
        let (_, first) = db
            .run_governed(Q1, strategy, &RunLimits::default())
            .unwrap();
        assert!(first.checkpoints > 0, "{strategy}: no checkpoints");
        assert!(first.peak_memory_bytes > 0, "{strategy}: no bytes charged");
        for _ in 0..2 {
            let (_, again) = db
                .run_governed(Q1, strategy, &RunLimits::default())
                .unwrap();
            assert_eq!(again, first, "{strategy}: counters drifted between runs");
        }
    }
}
