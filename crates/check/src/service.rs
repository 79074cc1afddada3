//! The deterministic chaos-workload harness for the multi-session
//! query service.
//!
//! N seeded client threads share one [`QueryService`] over one
//! `Database` and run mixed query classes — a canonical scan, the
//! paper's disjunctive-subquery Q1, the TPC-H Query 2d shape, and an
//! intentionally error-raising statement — while injecting faults:
//!
//! * **mid-query cancellation / budget / deadline trips** at exact
//!   governor checkpoints via the PR 5 fault machinery
//!   ([`InjectedFault`]), routed through the whole admission/retry
//!   stack with [`bypass_service::Session::execute_faulted`];
//! * **forced queue saturation**: a client holds every execution slot
//!   and fires probes with tiny deadlines, forcing the typed
//!   `Overloaded` / `AdmissionTimeout` shed paths for itself and any
//!   concurrently submitting client.
//!
//! Every event asserts the trifecta: a **typed error, never a panic**
//! (each event runs under `catch_unwind`), a **balanced trace-span
//! stack** on the client thread after the event returns, and — after
//! the chaos, a `drain()` and a `resume()` — a **post-chaos
//! verification pass** where every query class re-runs clean and
//! bit-identical (rows and deterministic executor counters) to its
//! serial pre-chaos baseline.
//!
//! Client schedules are a pure function of the run seed
//! (`BYPASS_CHECK_SERVICE_SEED`), so a failing event is replayable;
//! outcome *counts* under real concurrency are interleaving-dependent
//! and are checked against conservation invariants rather than exact
//! values (the exactly-gated counters live in the single-threaded
//! scenarios of `tests/counters.rs`).

use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bypass_core::{Database, Error, FaultKind, InjectedFault, RunLimits, Strategy};
use bypass_service::{
    CountersSnapshot, QueryService, RetryPolicy, ServiceConfig, ServiceResponse, SessionQuotas,
};

use crate::oracle::{case_seed, env_seed, trace_gate};
use crate::prop::DEFAULT_SEED;
use crate::rng::Rng;

/// Configuration of a service chaos run.
#[derive(Debug, Clone)]
pub struct ServiceChaosConfig {
    /// Concurrent client threads (`BYPASS_CHECK_SERVICE_CLIENTS`).
    pub clients: u32,
    /// Events per client (`BYPASS_CHECK_SERVICE_EVENTS`).
    pub events_per_client: u32,
    /// Run seed (`BYPASS_CHECK_SERVICE_SEED` overrides; decimal or
    /// 0x-hex) — every client schedule derives from it.
    pub seed: u64,
}

impl Default for ServiceChaosConfig {
    fn default() -> ServiceChaosConfig {
        ServiceChaosConfig {
            clients: 8,
            events_per_client: 80,
            seed: env_seed("BYPASS_CHECK_SERVICE_SEED").unwrap_or(DEFAULT_SEED),
        }
    }
}

/// Statistics of a clean chaos run.
#[derive(Debug, Clone)]
pub struct ServiceChaosReport {
    /// Total events executed across all clients.
    pub events: u64,
    /// Events per query class.
    pub by_class: BTreeMap<&'static str, u64>,
    /// Events per fault kind (`none` = plain run).
    pub by_fault: BTreeMap<&'static str, u64>,
    /// Events per typed outcome.
    pub outcomes: BTreeMap<&'static str, u64>,
    /// The service's count-derived counters at the end of the run.
    pub counters: CountersSnapshot,
    /// Median per-event latency (wall nanoseconds; reporting only).
    pub p50_nanos: u64,
    /// 99th-percentile per-event latency (reporting only).
    pub p99_nanos: u64,
    /// Events per second over the chaos phase (reporting only).
    pub qps: f64,
}

/// One event that violated the trifecta, with its replay coordinates.
#[derive(Debug, Clone)]
pub struct ServiceChaosFailure {
    /// The run seed (replay: `BYPASS_CHECK_SERVICE_SEED=…`).
    pub seed: u64,
    /// Client thread index (`u32::MAX` for the post-chaos phase).
    pub client: u32,
    /// Event index within the client's schedule.
    pub event: u32,
    /// Query class of the event.
    pub class: &'static str,
    /// Fault kind of the event.
    pub fault: &'static str,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for ServiceChaosFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "service chaos trifecta violated (client {}, event {}, class {}, fault {})",
            self.client, self.event, self.class, self.fault
        )?;
        writeln!(f, "  reproduce: BYPASS_CHECK_SERVICE_SEED={:#x}", self.seed)?;
        write!(f, "  detail:    {}", self.detail)
    }
}

/// The four query classes of the mixed workload.
const CLASSES: [(&str, &str); 4] = [
    ("canonical", "SELECT a1, a2, a4 FROM r WHERE a4 > 1500"),
    (
        "unnested",
        "SELECT DISTINCT * FROM r \
         WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) \
            OR a4 > 1500",
    ),
    ("tpch", bypass_datagen::tpch::QUERY_2D),
    ("error", "SELECT no_such_column FROM r"),
];

const FAULTS: [&str; 5] = ["none", "cancel", "memory", "deadline", "saturate"];

/// The shared database: the RST schema plus the five TPC-H tables
/// Query 2d touches, both at deterministic tiny scale.
fn chaos_database(seed: u64) -> Database {
    let mut db = Database::new();
    bypass_datagen::rst::register(
        db.catalog_mut(),
        &bypass_datagen::rst::generate(0.05, 0.05, seed),
    )
    .unwrap();
    bypass_datagen::tpch::register(
        db.catalog_mut(),
        &bypass_datagen::tpch::generate_2d(0.001, seed),
    )
    .unwrap();
    db
}

struct Baseline {
    class: &'static str,
    sql: &'static str,
    /// `Ok((rows, counters))` rendered lazily; errors rendered typed.
    outcome: Result<(bypass_core::Relation, bypass_core::ExecCounters), Error>,
    /// Governor checkpoints of a clean run (fault-injection space).
    checkpoints: u64,
}

struct ClientStats {
    events: u64,
    by_class: BTreeMap<&'static str, u64>,
    by_fault: BTreeMap<&'static str, u64>,
    outcomes: BTreeMap<&'static str, u64>,
    ok_events: u64,
    latencies_nanos: Vec<u64>,
}

/// Classify a service outcome into a stable label; `None` marks an
/// outcome that should be impossible (it fails the trifecta).
fn outcome_label(res: &Result<ServiceResponse, Error>) -> Option<&'static str> {
    match res {
        Ok(_) => Some("ok"),
        Err(Error::Cancelled) => Some("cancelled"),
        Err(Error::ResourceExhausted { resource, .. }) => Some(match resource {
            bypass_core::ResourceKind::Memory => "memory_exhausted",
            bypass_core::ResourceKind::Time => "deadline_exhausted",
        }),
        Err(Error::Overloaded { .. }) => Some("overloaded"),
        Err(Error::AdmissionTimeout { .. }) => Some("admission_timeout"),
        Err(Error::StatementTooLarge { .. }) => Some("statement_too_large"),
        Err(Error::QuotaExceeded { .. }) => Some("quota_exceeded"),
        Err(Error::Draining) => Some("draining"),
        Err(Error::Plan(_)) => Some("plan_error"),
        Err(Error::Parse(_)) => Some("parse_error"),
        Err(_) => None,
    }
}

/// Run the chaos workload. Tracing is force-enabled for the duration
/// (behind the shared process-wide trace gate) so span balance is
/// actually observed; events are drained and dropped on exit.
pub fn run_service_chaos(
    cfg: &ServiceChaosConfig,
) -> Result<ServiceChaosReport, Box<ServiceChaosFailure>> {
    let _guard = trace_gate();
    let was_enabled = bypass_trace::enabled();
    bypass_trace::set_enabled(true);
    let _stale = bypass_trace::take_events();
    let out = chaos(cfg);
    let _events = bypass_trace::take_events();
    bypass_trace::set_enabled(was_enabled);
    out
}

fn chaos(cfg: &ServiceChaosConfig) -> Result<ServiceChaosReport, Box<ServiceChaosFailure>> {
    let db = Arc::new(chaos_database(cfg.seed));
    let strategy = Strategy::Unnested;

    // Serial pre-chaos baselines: the bit-identity references for the
    // post-chaos verification pass, and the checkpoint counts that
    // define each class's fault-injection space.
    let baselines: Vec<Baseline> = CLASSES
        .iter()
        .map(|&(class, sql)| {
            let outcome = db.run_governed(sql, strategy, &RunLimits::default());
            let checkpoints = outcome.as_ref().map(|(_, c)| c.checkpoints).unwrap_or(0);
            Baseline {
                class,
                sql,
                outcome,
                checkpoints,
            }
        })
        .collect();
    debug_assert!(
        baselines.iter().any(|b| b.outcome.is_ok()),
        "no runnable query class"
    );

    let svc = QueryService::new(
        Arc::clone(&db),
        strategy,
        ServiceConfig {
            max_concurrency: (cfg.clients as usize).clamp(1, 8),
            queue_limit: 4,
            retry: RetryPolicy {
                max_retries: 1,
                base_backoff: Duration::ZERO,
                ..RetryPolicy::default()
            },
            seed: cfg.seed,
            ..ServiceConfig::default()
        },
    );

    let started = Instant::now();
    let results: Vec<Result<ClientStats, Box<ServiceChaosFailure>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|client| {
                let svc = svc.clone();
                let baselines = &baselines;
                scope.spawn(move || client_loop(cfg, client, &svc, baselines))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = started.elapsed();

    let mut report = ServiceChaosReport {
        events: 0,
        by_class: BTreeMap::new(),
        by_fault: BTreeMap::new(),
        outcomes: BTreeMap::new(),
        counters: CountersSnapshot::default(),
        p50_nanos: 0,
        p99_nanos: 0,
        qps: 0.0,
    };
    let mut latencies: Vec<u64> = Vec::new();
    let mut ok_events = 0u64;
    for r in results {
        let stats = r?;
        report.events += stats.events;
        ok_events += stats.ok_events;
        for (k, v) in stats.by_class {
            *report.by_class.entry(k).or_default() += v;
        }
        for (k, v) in stats.by_fault {
            *report.by_fault.entry(k).or_default() += v;
        }
        for (k, v) in stats.outcomes {
            *report.outcomes.entry(k).or_default() += v;
        }
        latencies.extend(stats.latencies_nanos);
    }
    latencies.sort_unstable();
    if !latencies.is_empty() {
        report.p50_nanos = latencies[latencies.len() / 2];
        report.p99_nanos = latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)];
    }
    report.qps = report.events as f64 / elapsed.as_secs_f64().max(1e-9);

    // Drain: stop admissions, cancel stragglers (there are none — all
    // clients joined), wait for quiescence; then re-open.
    svc.drain();
    svc.resume();
    report.counters = svc.counters();

    // Conservation invariants on the count-derived counters. Exact
    // equalities under concurrency hold only for the totals each side
    // counts exactly once per event.
    let c = report.counters;
    let fail = |detail: String| {
        Box::new(ServiceChaosFailure {
            seed: cfg.seed,
            client: u32::MAX,
            event: 0,
            class: "post-chaos",
            fault: "none",
            detail,
        })
    };
    if c.submitted < report.events {
        return Err(fail(format!(
            "counter conservation: submitted {} < events {}",
            c.submitted, report.events
        )));
    }
    if c.completed < ok_events {
        return Err(fail(format!(
            "counter conservation: completed {} < client-observed oks {}",
            c.completed, ok_events
        )));
    }
    let terminal = c.completed + c.failed + c.cancelled + c.shed + c.quota_rejected + c.oversized;
    if terminal + c.admission_timeouts + c.drain_rejected < c.submitted {
        return Err(fail(format!(
            "counter conservation: outcomes {terminal}+{}+{} < submitted {}",
            c.admission_timeouts, c.drain_rejected, c.submitted
        )));
    }

    // Post-chaos verification: every class re-runs clean through a
    // fresh session, bit-identical to its serial pre-chaos baseline.
    let session = svc.session(SessionQuotas::default());
    for b in &baselines {
        let got = session.execute(b.sql);
        let vfail = |detail: String| {
            Box::new(ServiceChaosFailure {
                seed: cfg.seed,
                client: u32::MAX,
                event: 0,
                class: b.class,
                fault: "none",
                detail,
            })
        };
        match (&b.outcome, got) {
            (Ok((rows, counters)), Ok(resp)) => {
                if !resp.rows.bag_eq(rows) {
                    return Err(vfail(
                        "post-chaos rows diverge from serial baseline".to_string(),
                    ));
                }
                if resp.counters != *counters {
                    return Err(vfail(format!(
                        "post-chaos counters diverge: baseline {counters:?}, got {:?}",
                        resp.counters
                    )));
                }
            }
            (Err(want), Err(got)) => {
                if *want != got {
                    return Err(vfail(format!(
                        "post-chaos error changed: baseline `{want}`, got `{got}`"
                    )));
                }
            }
            (Ok(_), Err(e)) => {
                return Err(vfail(format!("post-chaos run fails: {e}")));
            }
            (Err(e), Ok(_)) => {
                return Err(vfail(format!(
                    "post-chaos run succeeds where baseline failed with `{e}`"
                )));
            }
        }
    }
    Ok(report)
}

fn client_loop(
    cfg: &ServiceChaosConfig,
    client: u32,
    svc: &QueryService,
    baselines: &[Baseline],
) -> Result<ClientStats, Box<ServiceChaosFailure>> {
    let mut rng = Rng::seed_from_u64(case_seed(cfg.seed, client));
    let session = svc.session(SessionQuotas::default());
    // A second session with a tiny deadline and statement cap, used by
    // the saturation and oversized probes.
    let probe = svc.session(SessionQuotas {
        timeout: Some(Duration::from_millis(2)),
        max_statement_bytes: Some(512),
        ..SessionQuotas::default()
    });
    let mut stats = ClientStats {
        events: 0,
        by_class: BTreeMap::new(),
        by_fault: BTreeMap::new(),
        outcomes: BTreeMap::new(),
        ok_events: 0,
        latencies_nanos: Vec::with_capacity(cfg.events_per_client as usize),
    };
    for event in 0..cfg.events_per_client {
        let b = rng.choose(baselines);
        let fault = *rng.choose(&FAULTS);
        // Faults need a fault-injection space: error-class queries (and
        // empty plans) fail before any checkpoint, so they always run
        // plain.
        let fault = if b.checkpoints == 0 { "none" } else { fault };
        let fail = |detail: String| {
            Box::new(ServiceChaosFailure {
                seed: cfg.seed,
                client,
                event,
                class: b.class,
                fault,
                detail,
            })
        };
        stats.events += 1;
        *stats.by_class.entry(b.class).or_default() += 1;
        *stats.by_fault.entry(fault).or_default() += 1;

        let depth_before = bypass_trace::current_depth();
        let t0 = Instant::now();
        let outcome: Result<Vec<Result<ServiceResponse, Error>>, _> =
            catch_unwind(AssertUnwindSafe(|| match fault {
                "none" => vec![session.execute(b.sql)],
                "cancel" | "memory" | "deadline" => {
                    let kind = match fault {
                        "cancel" => FaultKind::Cancel,
                        "memory" => FaultKind::Memory,
                        _ => FaultKind::Deadline,
                    };
                    let k = rng.gen_range(1..=b.checkpoints);
                    vec![session.execute_faulted(b.sql, Some(InjectedFault::new(k, kind)))]
                }
                "saturate" => {
                    // Hold every slot, then fire probes: queue + tiny
                    // deadline ⇒ AdmissionTimeout; overflow ⇒ shed. An
                    // oversized statement exercises the size cap too.
                    let hold = svc
                        .admission()
                        .hold_slots(svc.admission().max_concurrency());
                    let big = format!("SELECT a1 FROM r -- {}", "x".repeat(600));
                    let mut outs = vec![
                        probe.execute(b.sql),
                        probe.execute(b.sql),
                        probe.execute(&big),
                    ];
                    drop(hold);
                    // One clean probe after release: must not be stuck.
                    outs.push(session.execute(b.sql));
                    outs
                }
                _ => unreachable!(),
            }));
        let nanos = t0.elapsed().as_nanos() as u64;
        stats.latencies_nanos.push(nanos);

        let results = match outcome {
            Ok(r) => r,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic payload>".to_string());
                return Err(fail(format!("panicked instead of returning Err: {msg}")));
            }
        };
        // Trifecta leg 2: the client thread's span stack is balanced.
        let depth_after = bypass_trace::current_depth();
        if depth_after != depth_before {
            return Err(fail(format!(
                "span stack unbalanced: depth {depth_before} -> {depth_after}"
            )));
        }
        // Trifecta leg 1 (typing): every outcome is a known typed
        // result; class/fault-specific expectations where exactness is
        // interleaving-independent.
        for res in results {
            let label = match outcome_label(&res) {
                Some(l) => l,
                None => {
                    return Err(fail(format!("untyped/unexpected outcome: {res:?}")));
                }
            };
            *stats.outcomes.entry(label).or_default() += 1;
            if label == "ok" {
                stats.ok_events += 1;
            }
            // An injected-fault statement shed at admission by a
            // *concurrent* saturation hold never executes, so its fault
            // never fires: the typed `Overloaded` is the correct outcome
            // there. Anything else must be the injected fault's error.
            match fault {
                "cancel" => {
                    if !matches!(label, "cancelled" | "overloaded") {
                        return Err(fail(format!(
                            "injected cancel surfaced as `{label}` ({res:?})"
                        )));
                    }
                }
                "memory" => {
                    if !matches!(label, "memory_exhausted" | "overloaded") {
                        return Err(fail(format!(
                            "injected memory trip surfaced as `{label}` ({res:?})"
                        )));
                    }
                }
                "deadline" => {
                    if !matches!(label, "deadline_exhausted" | "overloaded") {
                        return Err(fail(format!(
                            "injected deadline trip surfaced as `{label}` ({res:?})"
                        )));
                    }
                }
                "none" => {
                    // A plain event matches its serial baseline exactly
                    // (success or the same typed error). The one allowed
                    // deviation: a *concurrent* saturation event may shed
                    // even a plain submission — the typed shed is fine,
                    // wrong rows or a different error are not.
                    match (&b.outcome, &res) {
                        (Ok((rows, _)), Ok(resp)) => {
                            if !resp.rows.bag_eq(rows) {
                                return Err(fail(
                                    "plain run diverges from serial baseline".to_string(),
                                ));
                            }
                        }
                        (_, Err(Error::Overloaded { .. })) => {}
                        (Err(want), Err(got)) if *want == *got => {}
                        (want, got) => {
                            return Err(fail(format!(
                                "plain run outcome changed: baseline {:?}, got {got:?}",
                                want.as_ref().map(|(r, _)| r.len())
                            )));
                        }
                    }
                }
                "saturate" => {
                    // Probes may be shed, time out, lose their tiny
                    // deadline mid-run, be rejected for size, or (after
                    // release) succeed — all typed; anything else
                    // (parse errors on the saturated path, panics,
                    // cancellations out of nowhere) is a violation.
                    if !matches!(
                        label,
                        "ok" | "overloaded"
                            | "admission_timeout"
                            | "deadline_exhausted"
                            | "statement_too_large"
                    ) {
                        return Err(fail(format!(
                            "saturation probe surfaced as `{label}` ({res:?})"
                        )));
                    }
                }
                _ => unreachable!(),
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small chaos run (single client, then a handful) is clean.
    #[test]
    fn small_chaos_run_is_clean() {
        let cfg = ServiceChaosConfig {
            clients: 2,
            events_per_client: 12,
            seed: 0x5E11_ACE5,
        };
        let report = run_service_chaos(&cfg).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(report.events, 24);
        assert!(report.counters.submitted >= report.events);
        assert!(report.outcomes.contains_key("ok"), "{report:?}");
    }

    /// One client, fixed seed: the event schedule (classes, faults,
    /// outcomes) is exactly reproducible.
    #[test]
    fn single_client_schedule_is_deterministic() {
        let cfg = ServiceChaosConfig {
            clients: 1,
            events_per_client: 25,
            seed: 0xC1A0_55ED,
        };
        let a = run_service_chaos(&cfg).unwrap_or_else(|f| panic!("{f}"));
        let b = run_service_chaos(&cfg).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(a.events, b.events);
        assert_eq!(a.by_class, b.by_class);
        assert_eq!(a.by_fault, b.by_fault);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.counters, b.counters);
    }
}
