//! End-to-end observability gates: the `EXPLAIN ANALYZE` statement
//! through the full SQL frontend, the Chrome-trace export of an
//! instrumented query run, the worker-count independence of the
//! execution counters, and the parity of every statement entry point
//! over the one compile → run pipeline.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bypass::datagen::rst::{self, Q1};
use bypass::service::{QueryService, ServiceConfig, SessionQuotas};
use bypass::{
    CancelToken, Database, Error, ExecCounters, MetricEntry, MetricValue, MetricsHub, Response,
    RunLimits, Strategy, Tuple,
};

/// The trace collector is process-global; tests that enable, disable or
/// drain it must not interleave.
static TRACE_GATE: Mutex<()> = Mutex::new(());

/// The benchmark's Q4: the paper's linear query plus a plain disjunct —
/// unnested, its inner-inner block attaches to S first and Eqv. 4 splits
/// S, so two attachments nest in one rewrite.
const Q4: &str = "SELECT DISTINCT * FROM r \
                  WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s \
                              WHERE a2 = b2 \
                                 OR b3 = (SELECT COUNT(DISTINCT *) FROM t WHERE b4 = c2)) \
                     OR a4 > 1500";

/// Q4 with an EXISTS inner-inner block (the Fig. 6 plan) — unnested, its
/// bypass join's negative stream runs as a fused stage chain.
const Q4_FUSED: &str = "SELECT DISTINCT * FROM r \
                        WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s \
                                    WHERE a2 = b2 \
                                       OR EXISTS (SELECT * FROM t WHERE b4 = c2)) \
                           OR a4 > 1500";

fn q1_database(strategy: Strategy) -> Database {
    let mut db = Database::new().with_default_strategy(strategy);
    rst::register(db.catalog_mut(), &rst::generate(0.05, 0.05, 42)).unwrap();
    db
}

/// `EXPLAIN ANALYZE <query>` is a real statement: parsed by the SQL
/// frontend, executed, and rendered with phase timings, per-operator
/// rows/time annotations and — under `Unnested` — nonzero dual-stream
/// counts on the bypass selection.
#[test]
fn explain_analyze_statement_reports_bypass_streams_under_unnested() {
    let mut db = q1_database(Strategy::Unnested);
    let text = match db.execute_sql(&format!("EXPLAIN ANALYZE {Q1}")) {
        Ok(Response::Explained(text)) => text,
        other => panic!("EXPLAIN ANALYZE must return Explained, got {other:?}"),
    };
    assert!(text.contains("EXPLAIN ANALYZE (unnested)"), "{text}");
    // Phase timings of the whole pipeline.
    for phase in ["parse=", "translate=", "unnest=", "optimize=", "execute="] {
        assert!(text.contains(phase), "missing phase {phase}:\n{text}");
    }
    // Per-operator metric annotations.
    assert!(text.contains("rows="), "{text}");
    assert!(text.contains("ms"), "{text}");
    // The bypass selection reports its dual-stream cardinalities, and
    // the negative stream is nonzero (Q1 splits the outer table).
    assert!(text.contains("pos="), "{text}");
    let neg: u64 = text
        .split("neg=")
        .nth(1)
        .and_then(|t| t.split_whitespace().next())
        .and_then(|t| t.parse().ok())
        .unwrap_or_else(|| panic!("neg= count present:\n{text}"));
    assert!(neg > 0, "negative stream must be nonzero for Q1:\n{text}");
    assert!(text.contains("-- bypass: 1 node(s)"), "{text}");
    assert!(text.contains("split="), "{text}");
    assert!(text.contains("-- memo:"), "{text}");
}

/// The same statement under the canonical strategy: no bypass
/// operators, but the subquery memo counters and phase timings are
/// still reported.
#[test]
fn explain_analyze_statement_under_canonical_reports_memo() {
    let mut db = q1_database(Strategy::Canonical);
    let text = match db.execute_sql(&format!("EXPLAIN ANALYZE {Q1}")) {
        Ok(Response::Explained(text)) => text,
        other => panic!("EXPLAIN ANALYZE must return Explained, got {other:?}"),
    };
    assert!(text.contains("EXPLAIN ANALYZE (canonical)"), "{text}");
    assert!(!text.contains("-- bypass:"), "canonical has no σ±:\n{text}");
    // Canonical Q1 carries an uncorrelated... no — Q1's subquery is
    // correlated, so the memo line reports zero probes; the line itself
    // must still be present (the counter glossary promises it).
    assert!(text.contains("-- memo: uncorrelated"), "{text}");
    // Both strategies return the same answer; EXPLAIN ANALYZE reports
    // the output cardinality it actually produced.
    let unnested = q1_database(Strategy::Unnested).sql(Q1).unwrap();
    let rows: usize = text
        .split("), ")
        .nth(1)
        .and_then(|t| t.split(' ').next())
        .and_then(|t| t.parse().ok())
        .expect("output rows in header");
    assert_eq!(rows, unnested.len(), "{text}");
}

/// Plain `EXPLAIN <query>` renders the logical + physical plans without
/// executing; it must also round-trip through the parser (lowercase,
/// extra whitespace).
#[test]
fn explain_statement_renders_plans_without_executing() {
    let mut db = q1_database(Strategy::Unnested);
    let text = match db.execute_sql(&format!("explain   {Q1}")) {
        Ok(Response::Explained(text)) => text,
        other => panic!("EXPLAIN must return Explained, got {other:?}"),
    };
    assert!(
        text.contains("σ±"),
        "unnested plan shows bypass ops:\n{text}"
    );
    // No metrics: the query did not run.
    assert!(!text.contains("pos="), "{text}");
}

/// Tracing end to end: enable the collector, run Q1 unnested, export a
/// Chrome trace. The export must be valid JSON and contain the pipeline
/// spans — including the per-equivalence span with its outcome tag.
#[test]
fn chrome_trace_export_covers_the_pipeline() {
    let _gate = TRACE_GATE.lock().unwrap();
    let db = q1_database(Strategy::Unnested);
    bypass::trace::clear();
    bypass::trace::set_enabled(true);
    let rows = db.sql_with(Q1, Strategy::Unnested, None);
    bypass::trace::set_enabled(false);
    let chrome = bypass::trace::export_chrome_and_clear();
    rows.unwrap();
    bypass::trace::json::validate(&chrome)
        .unwrap_or_else(|e| panic!("chrome export must be valid JSON: {e}"));
    for span in [
        "sql.parse",
        "translate.query",
        "unnest.drive",
        "unnest.attach",
    ] {
        assert!(chrome.contains(span), "span {span} missing from trace");
    }
    assert!(
        chrome.contains("eqv1:gamma-outerjoin"),
        "Q1's correlated COUNT attaches via Eqv. 1: {chrome}"
    );
    assert!(chrome.contains("\"ph\":\"M\""), "thread metadata present");
}

/// Tracing off (the default) must leave no residue: queries run with
/// the collector disabled record nothing.
#[test]
fn disabled_tracing_records_no_events_for_queries() {
    let _gate = TRACE_GATE.lock().unwrap();
    let db = q1_database(Strategy::Unnested);
    bypass::trace::clear();
    assert!(!bypass::trace::enabled());
    db.sql(Q1).unwrap();
    let events = bypass::trace::take_events();
    assert!(
        events.is_empty(),
        "disabled tracing recorded {} events",
        events.len()
    );
}

/// The span stack must rebalance after **every** error category the
/// engine can produce — parse, plan, type, execution, all three
/// resource guards and cancellation. Every span is an RAII guard, so
/// `?`-propagation unwinds it; this test pins that property across the
/// whole error surface, then proves the collector is still usable by
/// exporting a valid trace of a clean follow-up run.
///
/// (`Error::Rewrite` is absent: the current rewrite pipeline rejects
/// by falling back to canonical plans and has no reachable constructor
/// for it — see `unnest`'s completeness tests.)
#[test]
fn span_stack_rebalances_after_every_error_category() {
    let _gate = TRACE_GATE.lock().unwrap();
    let db = q1_database(Strategy::Unnested);
    bypass::trace::clear();
    bypass::trace::set_enabled(true);
    assert_eq!(bypass::trace::current_depth(), 0);

    let cancelled = CancelToken::new();
    cancelled.cancel();
    type Check = fn(&Error) -> bool;
    let matrix: Vec<(&str, &str, RunLimits, Check)> = vec![
        (
            "parse",
            "SELEC DISTINCT * FROM r",
            RunLimits::default(),
            (|e| matches!(e, Error::Parse(_))) as Check,
        ),
        ("plan", "SELECT nosuch FROM r", RunLimits::default(), |e| {
            matches!(e, Error::Plan(_))
        }),
        (
            "catalog",
            "SELECT * FROM nosuch",
            RunLimits::default(),
            |e| matches!(e, Error::Plan(_) | Error::Catalog(_)),
        ),
        (
            "type",
            "SELECT * FROM r WHERE a1 + 'x' = 1",
            RunLimits::default(),
            |e| matches!(e, Error::Type(_)),
        ),
        (
            "execution",
            "SELECT * FROM r WHERE a1 = (SELECT b1 FROM s)",
            RunLimits::default(),
            |e| matches!(e, Error::Execution(_)),
        ),
        (
            "resource: memory",
            Q1,
            RunLimits {
                max_memory_bytes: Some(64),
                ..Default::default()
            },
            |e| {
                matches!(
                    e,
                    Error::ResourceExhausted {
                        resource: bypass::ResourceKind::Memory,
                        ..
                    }
                )
            },
        ),
        (
            "resource: time",
            Q1,
            RunLimits {
                timeout: Some(Duration::ZERO),
                ..Default::default()
            },
            |e| {
                matches!(
                    e,
                    Error::ResourceExhausted {
                        resource: bypass::ResourceKind::Time,
                        ..
                    }
                )
            },
        ),
        (
            "cancelled",
            Q1,
            RunLimits {
                cancel: Some(cancelled.clone()),
                ..Default::default()
            },
            |e| matches!(e, Error::Cancelled),
        ),
    ];
    for strategy in [Strategy::Canonical, Strategy::Unnested] {
        for (label, sql, limits, expected) in &matrix {
            let err = db
                .run_governed(sql, strategy, limits)
                .expect_err(&format!("{label} under {strategy} must fail"));
            assert!(
                expected(&err),
                "{label} under {strategy}: wrong category: {err}"
            );
            assert_eq!(
                bypass::trace::current_depth(),
                0,
                "{label} under {strategy} left the span stack unbalanced"
            );
        }
    }

    // The collector survived eight error unwinds per strategy: a clean
    // run afterwards still produces a valid, complete Chrome trace.
    let _balanced = bypass::trace::take_events();
    db.run_governed(Q1, Strategy::Unnested, &RunLimits::default())
        .unwrap();
    bypass::trace::set_enabled(false);
    let chrome = bypass::trace::export_chrome_and_clear();
    bypass::trace::json::validate(&chrome)
        .unwrap_or_else(|e| panic!("chrome export must stay valid after errors: {e}"));
    assert!(chrome.contains("execute"), "{chrome}");
}

/// Execution counters are per-run state, not process globals: profiling
/// the same query from many threads concurrently yields exactly the
/// counters of a sequential run — no cross-thread bleed, no loss.
#[test]
fn profile_counters_are_identical_across_concurrent_workers() {
    let db = q1_database(Strategy::Unnested);
    let reference = db.profile(Q1, Strategy::Unnested).unwrap();
    let ref_counters = reference.counters;
    let ref_bypass = reference.bypass_totals();
    for workers in [2usize, 4, 8] {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let p = db.profile(Q1, Strategy::Unnested).unwrap();
                        (p.counters, p.bypass_totals(), p.rows)
                    })
                })
                .collect();
            for h in handles {
                let (counters, bypass, rows) = h.join().unwrap();
                assert_eq!(counters, ref_counters, "workers={workers}");
                assert_eq!(bypass, ref_bypass, "workers={workers}");
                assert_eq!(rows, reference.rows, "workers={workers}");
            }
        });
    }
}

/// Everything one entry point left behind for one statement, read off
/// its result, the trace collector and a hub nothing else wrote to.
#[derive(Debug)]
struct Footprint {
    /// The row sequence (`profile` reports the count only).
    rows: Option<Vec<Tuple>>,
    row_count: usize,
    /// `execute_sql` returns no counters; the hub's deterministic
    /// snapshot below carries the same totals.
    counters: Option<ExecCounters>,
    fingerprint: u64,
    sql: String,
    /// Engine span names on the calling thread, `service.*` aside —
    /// and `exec.morsel` aside: which thread runs a morsel is the
    /// scheduler's choice, not the entry point's.
    spans: BTreeSet<String>,
    /// The timing-free hub snapshot (`bypass_service_*` aside): query,
    /// row, checkpoint, memo, disjunct and unnest-outcome counters,
    /// the peak-memory gauge and the per-fingerprint series.
    hub: Vec<MetricEntry>,
    /// `bypass_phase_nanos` sample count per phase.
    phase_samples: Vec<u64>,
}

/// Run one entry point against a fresh hub with tracing on and collect
/// its [`Footprint`]. `entry` returns `(rows, row count, counters)`.
fn footprint(
    base: &Database,
    entry: impl FnOnce(Database) -> (Option<Vec<Tuple>>, usize, Option<ExecCounters>),
) -> Footprint {
    let hub = Arc::new(MetricsHub::new());
    let db = base.clone().with_metrics_hub(Arc::clone(&hub));
    bypass::trace::clear();
    bypass::trace::set_enabled(true);
    let (rows, row_count, counters) = entry(db);
    bypass::trace::set_enabled(false);
    let tid = bypass::trace::current_tid();
    let spans = bypass::trace::take_events()
        .into_iter()
        .filter(|e| e.phase == 'X' && e.tid == tid)
        .map(|e| e.name)
        .filter(|name| !name.starts_with("service.") && name != "exec.morsel")
        .collect();

    let table = hub.query_table();
    assert_eq!(table.len(), 1, "one statement, one fingerprint");
    let snapshot = hub.snapshot();
    let histogram = |name: &str, labels: &[(&str, &str)]| match snapshot.get(name, labels) {
        Some(MetricValue::Histogram(h)) => (h.count, h.sum),
        other => panic!("{name}{labels:?}: {other:?}"),
    };
    let phases: Vec<(u64, u64)> = ["parse", "translate", "unnest", "optimize", "execute"]
        .iter()
        .map(|p| histogram("bypass_phase_nanos", &[("phase", p)]))
        .collect();
    let (latency_count, latency_sum) = histogram("bypass_query_latency_nanos", &[]);
    assert_eq!(latency_count, 1);
    assert_eq!(
        phases.iter().map(|(_, sum)| sum).sum::<u64>(),
        latency_sum,
        "the five phases sum to the recorded total"
    );
    Footprint {
        rows,
        row_count,
        counters,
        fingerprint: table[0].fingerprint,
        sql: table[0].sql.clone(),
        spans,
        hub: snapshot
            .deterministic()
            .entries
            .into_iter()
            .filter(|e| !e.name.starts_with("bypass_service_"))
            .collect(),
        phase_samples: phases.iter().map(|(count, _)| *count).collect(),
    }
}

/// One pipeline, many doors: for one statement and one strategy,
/// `run_governed`, `prepare` → `execute_governed`, `profile_governed`,
/// `execute_sql` and `Session::execute` produce the same rows, counters,
/// fingerprint, recorded SQL text, engine spans and hub deltas — under
/// `CostBased` too, where the choice is made once and only the chosen
/// strategy's rewrites are booked.
#[test]
fn every_entry_point_leaves_the_same_footprint() {
    let _gate = TRACE_GATE.lock().unwrap();
    // Small enough that canonical Q4 (|R|·|S|·|T| predicate calls) stays
    // quick in a debug build.
    let mut base = Database::new();
    rst::register(base.catalog_mut(), &rst::generate(0.01, 0.01, 42)).unwrap();
    let limits = RunLimits::default();
    for sql in [Q1, Q4, Q4_FUSED] {
        for strategy in [Strategy::Canonical, Strategy::Unnested, Strategy::CostBased] {
            let reference = footprint(&base, |db| {
                let (rel, counters) = db.run_governed(sql, strategy, &limits).unwrap();
                (Some(rel.rows().to_vec()), rel.len(), Some(counters))
            });
            assert!(reference.row_count > 0, "{sql} returns rows");
            for span in ["sql.parse", "translate", "unnest", "optimize", "execute"] {
                assert!(
                    reference.spans.contains(span),
                    "{span} span missing: {:?}",
                    reference.spans
                );
            }
            let others = [
                (
                    "prepare + execute_governed",
                    footprint(&base, |db| {
                        let prepared = db.prepare(sql, strategy).unwrap();
                        let (rel, counters) = prepared.execute_governed(&limits).unwrap();
                        (Some(rel.rows().to_vec()), rel.len(), Some(counters))
                    }),
                ),
                (
                    "profile_governed",
                    footprint(&base, |db| {
                        let p = db.profile_governed(sql, strategy, &limits).unwrap();
                        (None, p.rows, Some(p.counters))
                    }),
                ),
                (
                    "execute_sql",
                    footprint(&base, |db| {
                        let mut db = db.with_default_strategy(strategy);
                        let rel = db.execute_sql(sql).unwrap().into_rows().unwrap();
                        (Some(rel.rows().to_vec()), rel.len(), None)
                    }),
                ),
                (
                    "Session::execute",
                    footprint(&base, |db| {
                        let svc =
                            QueryService::new(Arc::new(db), strategy, ServiceConfig::default());
                        let resp = svc.session(SessionQuotas::default()).execute(sql).unwrap();
                        (
                            Some(resp.rows.rows().to_vec()),
                            resp.rows.len(),
                            Some(resp.counters),
                        )
                    }),
                ),
            ];
            for (entry, got) in &others {
                let at = format!("{entry} under {strategy}: {sql}");
                if let Some(rows) = &got.rows {
                    assert_eq!(Some(rows), reference.rows.as_ref(), "rows, {at}");
                }
                assert_eq!(got.row_count, reference.row_count, "row count, {at}");
                if got.counters.is_some() {
                    assert_eq!(got.counters, reference.counters, "counters, {at}");
                }
                assert_eq!(got.fingerprint, reference.fingerprint, "fingerprint, {at}");
                assert_eq!(got.sql, reference.sql, "recorded SQL, {at}");
                assert_eq!(got.spans, reference.spans, "engine spans, {at}");
                assert_eq!(got.hub, reference.hub, "hub deltas, {at}");
                assert_eq!(got.phase_samples, reference.phase_samples, "{at}");
            }
        }
    }
}
