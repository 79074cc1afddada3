//! End-to-end gates for the multi-session query service: quotas reject
//! with typed errors before any parse work, shed/timeout/degrade paths
//! behave deterministically under forced saturation, retries raise
//! degraded budgets back under the session cap, drain leaves the
//! shared `Database` reusable, and cancelling one session never
//! perturbs another.

use std::sync::Arc;
use std::time::Duration;

use bypass::datagen::rst::{self, Q1};
use bypass::service::{
    DegradePolicy, DegradeTier, QueryService, RetryDecision, RetryPolicy, ServiceConfig,
    SessionQuotas,
};
use bypass::{
    DataType, Database, Error, FaultKind, InjectedFault, QuotaKind, ResourceKind, RunLimits,
    Strategy, TableBuilder, Value, DEFAULT_MAX_MEMORY_BYTES,
};

fn service(cfg: ServiceConfig) -> QueryService {
    let mut db = Database::new();
    rst::register(db.catalog_mut(), &rst::generate(0.05, 0.05, 42)).unwrap();
    QueryService::new(Arc::new(db), Strategy::Unnested, cfg)
}

/// Instant-backoff config so retry tests don't sleep.
fn fast_cfg() -> ServiceConfig {
    ServiceConfig {
        retry: RetryPolicy {
            base_backoff: Duration::ZERO,
            ..RetryPolicy::default()
        },
        ..ServiceConfig::default()
    }
}

#[test]
fn service_run_matches_direct_run_exactly() {
    let svc = service(fast_cfg());
    let session = svc.session(SessionQuotas::default());
    let resp = session.execute(Q1).unwrap();
    let (direct, direct_counters) = svc
        .database()
        .run_governed(Q1, Strategy::Unnested, &RunLimits::default())
        .unwrap();
    assert!(resp.rows.bag_eq(&direct), "service layer changed the rows");
    assert_eq!(
        resp.counters, direct_counters,
        "admission added observable state to the run"
    );
    assert_eq!(resp.retry.retries(), 0);
    assert_eq!(resp.tier, 0);
    let c = svc.counters();
    assert_eq!((c.submitted, c.admitted, c.completed), (1, 1, 1));
}

#[test]
fn session_quotas_reject_typed_before_any_work() {
    let svc = service(fast_cfg());

    // Statement-size cap (session-level, tighter than the engine cap).
    let s = svc.session(SessionQuotas {
        max_statement_bytes: Some(16),
        ..SessionQuotas::default()
    });
    match s.execute(Q1) {
        Err(Error::StatementTooLarge { bytes, limit: 16 }) => {
            assert_eq!(bytes, Q1.len() as u64)
        }
        other => panic!("expected StatementTooLarge, got {other:?}"),
    }

    // Byte budget: first statement charges it, second is rejected.
    let s = svc.session(SessionQuotas {
        byte_budget: Some(1),
        ..SessionQuotas::default()
    });
    assert!(s.execute(Q1).is_ok(), "budget is checked, not predicted");
    assert!(s.bytes_used() > 1);
    match s.execute(Q1) {
        Err(Error::QuotaExceeded {
            quota: QuotaKind::Bytes,
            used,
            limit: 1,
        }) => assert!(used > 1),
        other => panic!("expected QuotaExceeded(Bytes), got {other:?}"),
    }

    // In-flight quota of zero rejects immediately.
    let s = svc.session(SessionQuotas {
        max_in_flight: Some(0),
        ..SessionQuotas::default()
    });
    match s.execute(Q1) {
        Err(Error::QuotaExceeded {
            quota: QuotaKind::InFlight,
            used: 1,
            limit: 0,
        }) => {}
        other => panic!("expected QuotaExceeded(InFlight), got {other:?}"),
    }

    let c = svc.counters();
    assert_eq!(c.oversized, 1);
    assert_eq!(c.quota_rejected, 2);
    assert_eq!(c.completed, 1);
}

#[test]
fn saturation_sheds_and_deadline_times_out_deterministically() {
    let svc = service(ServiceConfig {
        max_concurrency: 1,
        queue_limit: 0,
        ..fast_cfg()
    });
    let session = svc.session(SessionQuotas::default());

    // All slots artificially held + zero queue ⇒ deterministic shed.
    {
        let _hold = svc.admission().hold_slots(1);
        match session.execute(Q1) {
            Err(Error::Overloaded {
                queued: 0,
                limit: 0,
            }) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
    }
    // Slot released: the same statement now runs.
    assert!(session.execute(Q1).is_ok());

    // With a queue but a tiny deadline, a held slot forces the
    // admission-timeout path; the retry policy re-runs it (fresh
    // deadline per attempt) until the retry budget is spent.
    let svc = service(ServiceConfig {
        max_concurrency: 1,
        queue_limit: 4,
        ..fast_cfg()
    });
    let session = svc.session(SessionQuotas {
        timeout: Some(Duration::from_millis(2)),
        ..SessionQuotas::default()
    });
    {
        let _hold = svc.admission().hold_slots(1);
        let err = session.execute(Q1).unwrap_err();
        assert!(matches!(err, Error::AdmissionTimeout { .. }), "{err:?}");
    }
    let c = svc.counters();
    // First attempt + max_retries resubmissions, all timed out.
    let expected = 1 + u64::from(RetryPolicy::default().max_retries);
    assert_eq!(c.admission_timeouts, expected);
    assert_eq!(c.retries, expected - 1);
    assert_eq!(c.admitted, 0, "timed-out statements never took a slot");
    // Queue drained: the gate admits again. A second session without
    // the 2 ms deadline checks that, so a slow run cannot time it out.
    let unhurried = svc.session(SessionQuotas::default());
    assert!(unhurried.execute(Q1).is_ok());
}

#[test]
fn retry_raises_memory_headroom_up_to_the_session_cap() {
    let svc = service(fast_cfg());
    let probe = svc.session(SessionQuotas::default());
    let peak = probe.execute(Q1).unwrap().counters.peak_memory_bytes;
    assert!(peak > 64);

    // Session cap above the peak, first attempt's budget below it:
    // impossible via quotas alone (the quota IS the first budget), so
    // force it with a degrade tier that is always active and tighter
    // than the real peak. The retry policy must double the budget back
    // toward the session cap and succeed transparently.
    let svc = service(ServiceConfig {
        degrade: DegradePolicy {
            tiers: vec![DegradeTier {
                queue_depth: 0,
                peak_memory_bytes: 0,
                max_memory_bytes: peak / 2,
                timeout: None,
            }],
        },
        ..fast_cfg()
    });
    let session = svc.session(SessionQuotas {
        max_memory_bytes: Some(peak),
        ..SessionQuotas::default()
    });
    let resp = session.execute(Q1).unwrap();
    assert_eq!(resp.tier, 1, "tier-degraded admission");
    assert_eq!(resp.retry.retries(), 1, "one transparent re-run");
    let attempt = &resp.retry.attempts[0];
    assert!(
        matches!(
            attempt.error,
            Error::ResourceExhausted {
                resource: ResourceKind::Memory,
                ..
            }
        ),
        "{:?}",
        attempt.error
    );
    assert_eq!(attempt.raised_memory, Some(peak), "doubled, clamped to cap");
    let c = svc.counters();
    assert_eq!((c.completed, c.retries, c.degraded), (1, 1, 1));

    // Same shape but the session cap equals the degraded budget: no
    // raise is possible, the typed error surfaces to the caller.
    let svc = service(ServiceConfig {
        degrade: DegradePolicy {
            tiers: vec![DegradeTier {
                queue_depth: 0,
                peak_memory_bytes: 0,
                max_memory_bytes: peak / 2,
                timeout: None,
            }],
        },
        ..fast_cfg()
    });
    let session = svc.session(SessionQuotas {
        max_memory_bytes: Some(peak / 2),
        ..SessionQuotas::default()
    });
    let err = session.execute(Q1).unwrap_err();
    assert!(
        matches!(
            err,
            Error::ResourceExhausted {
                resource: ResourceKind::Memory,
                ..
            }
        ),
        "{err:?}"
    );
    assert_eq!(svc.counters().retries, 0);
}

/// A session without a memory quota runs under the engine's default
/// budget, which is also its retry ceiling: a statement that trips the
/// default is not re-run and fails typed at attempt 0. One 1 MiB text
/// cell crossed with 5 000 rows crosses 4 GiB after about 4 096 pairs:
/// the byte model charges the text to every pair, the pairs share it.
#[test]
fn a_session_without_a_memory_quota_gives_up_at_the_engine_default() {
    let mut db = Database::new();
    let wide = TableBuilder::new()
        .column("t", DataType::Text)
        .row(vec![Value::text("x".repeat(1 << 20))])
        .unwrap()
        .build();
    let keys = TableBuilder::new()
        .column("k", DataType::Int)
        .rows((0..5_000).map(|k| vec![Value::Int(k)]))
        .unwrap()
        .build();
    db.catalog_mut().register("wide", wide).unwrap();
    db.catalog_mut().register("keys", keys).unwrap();
    let svc = QueryService::new(Arc::new(db), Strategy::Unnested, fast_cfg());
    let err = svc
        .session(SessionQuotas::default())
        .execute("SELECT * FROM wide, keys")
        .unwrap_err();
    assert!(
        matches!(
            err,
            Error::ResourceExhausted {
                resource: ResourceKind::Memory,
                limit: DEFAULT_MAX_MEMORY_BYTES,
                ..
            }
        ),
        "{err:?}"
    );
    let c = svc.counters();
    assert_eq!((c.completed, c.retries, c.failed), (0, 0, 1));
}

/// An injected memory fault reports the bytes in use as its limit,
/// whatever the budget, so a session without a quota still retries it
/// with the budget doubled from there, well under the engine default.
#[test]
fn an_injected_memory_fault_without_a_quota_is_retried_from_the_bytes_in_use() {
    let fault = InjectedFault::new(40, FaultKind::Memory);
    let svc = service(fast_cfg());
    let limits = RunLimits {
        fault: Some(fault),
        ..RunLimits::default()
    };
    let first = svc
        .database()
        .run_governed(Q1, Strategy::Unnested, &limits)
        .unwrap_err();
    let Error::ResourceExhausted {
        resource: ResourceKind::Memory,
        limit,
        observed,
    } = first
    else {
        panic!("{first:?}")
    };
    assert_eq!(limit, observed, "limit = observed = the bytes in use");
    assert!(limit > 0, "a vacuous fault point");
    let policy = fast_cfg().retry;
    assert_eq!(
        policy.decide(&first, 0, None, None),
        RetryDecision::RaiseMemory(2 * limit)
    );
    // The fault fires on every attempt: both retries are spent, and the
    // last error still reports the bytes in use, not the raised budget.
    let err = svc
        .session(SessionQuotas::default())
        .execute_faulted(Q1, Some(fault))
        .unwrap_err();
    assert_eq!(err, first);
    let c = svc.counters();
    assert_eq!((c.retries, c.failed), (u64::from(policy.max_retries), 1));
}

#[test]
fn drain_cancels_stragglers_and_leaves_database_reusable() {
    let svc = service(fast_cfg());
    let session = svc.session(SessionQuotas::default());
    let reference = session.execute(Q1).unwrap();

    // Drain with nothing running: pure mode flip.
    svc.drain();
    assert!(svc.is_draining());
    match session.execute(Q1) {
        Err(Error::Draining) => {}
        other => panic!("expected Draining, got {other:?}"),
    }
    svc.resume();

    // Drain while a statement is in flight: the straggler gets a typed
    // Cancelled, the database survives bit-identically.
    std::thread::scope(|scope| {
        let straggler = scope.spawn(|| {
            // Keep resubmitting until the drain catches one mid-run or
            // at admission; both outcomes are typed.
            loop {
                match session.execute(Q1) {
                    Ok(_) => continue,
                    Err(e) => return e,
                }
            }
        });
        // Let the straggler loop actually run some statements.
        std::thread::sleep(Duration::from_millis(5));
        svc.drain();
        let err = straggler.join().unwrap();
        assert!(
            matches!(err, Error::Cancelled | Error::Draining),
            "drain must surface a typed admission/cancel error, got {err:?}"
        );
    });
    svc.resume();
    let again = session.execute(Q1).unwrap();
    assert!(again.rows.bag_eq(&reference.rows), "database perturbed");
    assert_eq!(again.counters, reference.counters);
    assert!(svc.counters().drain_rejected + svc.counters().cancelled >= 1);
}

/// Satellite gate: cancelling one session's in-flight statement never
/// cancels or perturbs another session sharing the `Database`. The
/// survivor's rows and executor counters must be identical to a solo
/// run, round after round.
#[test]
fn cancelling_one_session_never_perturbs_another() {
    let svc = service(ServiceConfig {
        max_concurrency: 4,
        ..fast_cfg()
    });
    let victim = svc.session(SessionQuotas::default());
    let survivor = svc.session(SessionQuotas::default());
    let reference = survivor.execute(Q1).unwrap();

    for _round in 0..4 {
        std::thread::scope(|scope| {
            let v = scope.spawn(|| {
                // Cancel the victim session from a racing thread while
                // its statement is anywhere between admission and
                // completion; both outcomes are legal, a panic is not.
                victim.execute(Q1)
            });
            let cancel = scope.spawn(|| victim.cancel_all());
            let s = scope.spawn(|| survivor.execute(Q1).unwrap());

            match v.join().unwrap() {
                Ok(_) | Err(Error::Cancelled) => {}
                Err(other) => panic!("victim saw a non-cancel error: {other:?}"),
            }
            cancel.join().unwrap();
            let resp = s.join().unwrap();
            assert!(resp.rows.bag_eq(&reference.rows), "survivor rows changed");
            assert_eq!(
                resp.counters, reference.counters,
                "survivor's deterministic counters perturbed by a \
                 cross-session cancel"
            );
        });
    }
}

/// Sessions fork deterministic jitter streams: with a pinned service
/// seed the same session id gets the same backoff sequence, replayable
/// across service instances.
#[test]
fn retry_jitter_is_deterministic_per_seed_and_session() {
    // The retry report carries the authoritative backoff values; a
    // pinned seed must reproduce them bit-for-bit across independent
    // service instances.
    let report_for = |seed: u64| {
        let probe = service(fast_cfg());
        let peak = probe
            .session(SessionQuotas::default())
            .execute(Q1)
            .unwrap()
            .counters
            .peak_memory_bytes;
        let svc = service(ServiceConfig {
            seed,
            degrade: DegradePolicy {
                tiers: vec![DegradeTier {
                    queue_depth: 0,
                    peak_memory_bytes: 0,
                    max_memory_bytes: peak / 2,
                    timeout: None,
                }],
            },
            retry: RetryPolicy {
                base_backoff: Duration::from_nanos(100),
                max_backoff: Duration::from_nanos(1600),
                ..RetryPolicy::default()
            },
            ..ServiceConfig::default()
        });
        let session = svc.session(SessionQuotas {
            max_memory_bytes: Some(peak),
            ..SessionQuotas::default()
        });
        session.execute(Q1).unwrap().retry
    };
    let r1 = report_for(1234);
    let r2 = report_for(1234);
    let r3 = report_for(4321);
    assert_eq!(r1, r2, "pinned seed ⇒ identical retry report");
    assert_eq!(r1.retries(), 1);
    // Different seed: same decisions, same raised budgets — only the
    // jitter may differ (and with one attempt it still may collide).
    assert_eq!(r3.attempts[0].raised_memory, r1.attempts[0].raised_memory);
}
