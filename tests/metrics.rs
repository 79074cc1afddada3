//! End-to-end gates for the always-on metrics registry (DESIGN.md §9):
//! deterministic snapshots across the execution-shape matrix, the
//! `SHOW METRICS` statement, query fingerprints on every surface, the
//! per-fingerprint stats read APIs, and the parity of
//! every statement entry point over the one compile → run pipeline.

use std::sync::Arc;

use bypass::datagen::rst::{self, Q1, Q2, Q3, Q_COMBINED};
use bypass::{
    fingerprint_sql, format_fingerprint, validate_prometheus, Database, MetricValue, MetricsHub,
    Response, RunLimits, Strategy,
};

/// The benchmark's Q4: linear nesting plus a plain disjunct.
const Q4: &str = "SELECT DISTINCT * FROM r \
                  WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s \
                              WHERE a2 = b2 \
                                 OR b3 = (SELECT COUNT(DISTINCT *) FROM t WHERE b4 = c2)) \
                     OR a4 > 1500";

fn rst_database(hub: Arc<MetricsHub>) -> Database {
    let mut db = Database::new().with_metrics_hub(hub);
    rst::register(db.catalog_mut(), &rst::generate(0.05, 0.05, 42)).unwrap();
    db
}

/// Run Q1, Q2 and the combined query under `strategies` into a fresh,
/// isolated hub under one executor shape and return the hub.
fn run_workload(strategies: &[Strategy], threads: usize, batch_rows: usize) -> Arc<MetricsHub> {
    let hub = Arc::new(MetricsHub::new());
    let db = rst_database(Arc::clone(&hub));
    let limits = RunLimits {
        threads: Some(threads),
        batch_rows: Some(batch_rows),
        morsel_rows: (threads > 1).then_some(16),
        ..RunLimits::default()
    };
    for sql in [Q1, Q2, Q_COMBINED] {
        for &strategy in strategies {
            db.run_governed(sql, strategy, &limits)
                .unwrap_or_else(|e| panic!("{strategy}: {e}"));
        }
    }
    hub
}

/// Satellite 3: the timing-free registry snapshot is bit-identical
/// across the worker-count × chunk-length matrix under the *full*
/// seven-strategy matrix — counters fold by sum, gauges by max,
/// histogram buckets elementwise, independent of thread schedule.
#[test]
fn deterministic_snapshot_is_execution_shape_independent() {
    let all = Strategy::all();
    let expected = run_workload(&all, 1, 1).snapshot().deterministic();
    for (threads, batch_rows) in [(1, 64), (8, 1), (8, 64)] {
        let got = run_workload(&all, threads, batch_rows)
            .snapshot()
            .deterministic();
        assert_eq!(
            got, expected,
            "deterministic snapshot differs at threads={threads} chunks of {batch_rows}"
        );
    }
    // The snapshot actually observed the workload: 3 queries × 7
    // strategies fired the per-strategy counters.
    let canonical = expected
        .get("bypass_queries_total", &[("strategy", "canonical")])
        .expect("per-strategy query counter registered");
    assert_eq!(canonical, &MetricValue::Counter(3));

    // What the registry observes — rows, disjunct selectivities, memo
    // traffic, the governor's byte model — is pinned, for the canonical
    // and unnested runs of the workload, by the `metrics/counters/`
    // entries of the determinism gate's golden (`tests/counters.rs`,
    // which carries these ten over and leaves comparing them to this
    // test). To re-pin, edit the golden's lines by hand.
    let pinned = run_workload(&[Strategy::Canonical, Strategy::Unnested], 1, 1)
        .snapshot()
        .deterministic();
    let golden: Vec<(&str, u64)> = include_str!("counters.golden")
        .lines()
        .filter_map(|line| line.strip_prefix("metrics/counters/registry/"))
        .map(|entry| {
            let (key, value) = entry.split_once(' ').expect("`name value`");
            (key, value.parse().expect("integer"))
        })
        .collect();
    let none = Vec::new;
    let series = [
        ("rows_total", "bypass_rows_total", none()),
        ("checkpoints_total", "bypass_checkpoints_total", none()),
        ("memo_hits_total", "bypass_memo_hits_total", none()),
        ("memo_misses_total", "bypass_memo_misses_total", none()),
        (
            "disjunct_evals_total",
            "bypass_disjunct_evals_total",
            none(),
        ),
        ("disjunct_hits_total", "bypass_disjunct_hits_total", none()),
        ("peak_memory_bytes", "bypass_peak_memory_bytes", none()),
        (
            "queries_canonical",
            "bypass_queries_total",
            vec![("strategy", "canonical")],
        ),
        (
            "queries_unnested",
            "bypass_queries_total",
            vec![("strategy", "unnested")],
        ),
        (
            "unnest_bypass_chain",
            "bypass_unnest_outcomes_total",
            vec![("outcome", "bypass:chain")],
        ),
    ];
    let mut observed: Vec<(&str, u64)> = series
        .iter()
        .map(|(key, name, labels)| match pinned.get(name, labels) {
            Some(MetricValue::Counter(v) | MetricValue::Gauge(v)) => (*key, *v),
            other => panic!("{name}{labels:?}: unexpected entry {other:?}"),
        })
        .collect();
    observed.sort();
    assert_eq!(
        observed, golden,
        "registry values (left) differ from the metrics/counters/registry/ lines of \
         tests/counters.golden (right)"
    );
}

/// `SHOW METRICS` is a real statement: it renders the database's hub
/// as Prometheus text exposition that passes the in-tree validator and
/// carries the required metric families.
#[test]
fn show_metrics_round_trips_valid_prometheus() {
    let hub = Arc::new(MetricsHub::new());
    let mut db = rst_database(Arc::clone(&hub));
    db.execute_sql(Q1).unwrap();
    db.execute_sql(Q2).unwrap();

    let text = match db.execute_sql("SHOW METRICS") {
        Ok(Response::Metrics(text)) => text,
        other => panic!("SHOW METRICS must return Metrics, got {other:?}"),
    };
    validate_prometheus(&text).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));
    for family in [
        "bypass_queries_total",
        "bypass_rows_total",
        "bypass_query_latency_nanos",
        "bypass_phase_nanos",
        "bypass_disjunct_evals_total",
        "bypass_peak_memory_bytes",
        "bypass_catalog_column_bytes",
    ] {
        assert!(text.contains(family), "missing family {family} in:\n{text}");
    }
    // The catalog gauge is what the tables' materialised columns hold:
    // Q1 and Q2 read some of `r` and `s` by column, none of `t`.
    let column_bytes = db.catalog().column_bytes();
    assert!(
        column_bytes > 0 && column_bytes.is_multiple_of(500 * 8),
        "{column_bytes}"
    );
    assert_eq!(db.catalog().get("t").unwrap().columns().bytes(), 0);
    assert_eq!(
        db.metrics().get("bypass_catalog_column_bytes", &[]),
        Some(&MetricValue::Gauge(column_bytes))
    );
    // And `into_text` treats it like any other textual response.
    let again = db.execute_sql("SHOW METRICS").unwrap().into_text().unwrap();
    assert!(again.contains("bypass_queries_total"));
}

/// Fingerprints hash the *normalized* AST: literal values are erased,
/// so parameter drift maps to the same query shape, while structural
/// changes (different disjuncts, different nesting) do not.
#[test]
fn fingerprint_is_literal_insensitive_and_shape_sensitive() {
    let base = fingerprint_sql(Q1).expect("Q1 parses");
    let other_literal = fingerprint_sql(
        "SELECT DISTINCT * FROM r \
         WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) OR a4 > 99",
    )
    .unwrap();
    assert_eq!(
        base, other_literal,
        "literals must not affect the fingerprint"
    );

    let different_shape = fingerprint_sql(Q2).unwrap();
    assert_ne!(base, different_shape, "distinct shapes must not collide");

    // Whitespace and case of keywords are normalization noise too.
    let reformatted = fingerprint_sql(
        "select distinct * from r \
         where a1 = (select count(distinct *) from s where a2 = b2) or a4 > 1500",
    )
    .unwrap();
    assert_eq!(base, reformatted);

    // EXPLAIN wraps a query: same fingerprint as the query itself.
    assert_eq!(fingerprint_sql(&format!("EXPLAIN {Q1}")), Some(base));
    // Non-query statements have no fingerprint.
    assert_eq!(fingerprint_sql("CREATE TABLE z (a INT)"), None);
}

/// The fingerprint is surfaced on EXPLAIN ANALYZE output and matches
/// the standalone `fingerprint_sql` of the same text.
#[test]
fn explain_analyze_prints_the_fingerprint() {
    let hub = Arc::new(MetricsHub::new());
    let mut db = rst_database(hub);
    let text = db
        .execute_sql(&format!("EXPLAIN ANALYZE {Q1}"))
        .unwrap()
        .into_text()
        .unwrap();
    let expected = format_fingerprint(fingerprint_sql(Q1).unwrap());
    let line = format!("-- fingerprint: {expected}");
    assert!(text.contains(&line), "missing `{line}` in:\n{text}");
}

/// Every SQL-text execution path lands in the per-fingerprint stats
/// table; repeated executions accumulate.
#[test]
fn query_table_and_slow_ring_track_executions() {
    let hub = Arc::new(MetricsHub::new());
    let mut db = rst_database(Arc::clone(&hub));
    let fp = fingerprint_sql(Q1).unwrap();

    db.execute_sql(Q1).unwrap();
    db.sql_with(Q1, Strategy::Canonical, None).unwrap();
    let rows = db.sql_with(Q1, Strategy::Unnested, None).unwrap().len() as u64;

    let stats = hub.query_stats(fp).expect("Q1 must be in the query table");
    assert_eq!(stats.fingerprint, fp);
    assert_eq!(stats.execs, 3);
    assert_eq!(stats.rows, 3 * rows);
    assert_eq!(stats.strategy, "unnested", "last strategy wins");
    assert_eq!(stats.sql, Q1, "first-seen SQL text is kept");
    assert_eq!(stats.latency.count, 3, "every exec observed a latency");

    // The table lists exactly the executed shape.
    let table = hub.query_table();
    assert_eq!(table.len(), 1);
}

/// A prepared statement knows its fingerprint, and executing it feeds
/// the same stats entry as the ad-hoc paths.
#[test]
fn prepared_statements_share_the_fingerprint() {
    let hub = Arc::new(MetricsHub::new());
    let db = rst_database(Arc::clone(&hub));
    let fp = fingerprint_sql(Q1).unwrap();

    let prepared = db.prepare(Q1, Strategy::Unnested).unwrap();
    assert_eq!(prepared.fingerprint(), fp);
    prepared.execute().unwrap();
    prepared.execute().unwrap();

    let stats = hub.query_stats(fp).unwrap();
    assert_eq!(stats.execs, 2);
}

/// The `bypass_unnest_outcomes_total` series of a hub, as
/// `(outcome, count)` pairs.
fn unnest_outcomes(hub: &MetricsHub) -> Vec<(String, u64)> {
    let snapshot = hub.snapshot();
    snapshot
        .entries
        .iter()
        .filter(|e| e.name == "bypass_unnest_outcomes_total")
        .map(|e| match &e.value {
            MetricValue::Counter(n) => (e.labels[0].1.clone(), *n),
            other => panic!("{other:?}"),
        })
        .collect()
}

/// The cost-based choice prepares every candidate once and keeps the
/// winner's plan: what a `CostBased` run books as unnest outcomes is
/// exactly what running the chosen strategy directly books — the
/// losers' rewrites are not fires, and the winner is not rewritten a
/// second time.
#[test]
fn cost_based_books_only_the_chosen_strategys_outcomes() {
    // Q3 included because the OR→UNION rewrite applies to it: S2 is a
    // live candidate there.
    for sql in [Q1, Q4, Q3] {
        let hub = Arc::new(MetricsHub::new());
        let db = rst_database(Arc::clone(&hub));
        let chosen = db.prepare(sql, Strategy::CostBased).unwrap().strategy();
        let via_prepare = unnest_outcomes(&hub);
        assert!(!via_prepare.is_empty(), "{sql}: the rewrite fired");

        let direct = Arc::new(MetricsHub::new());
        rst_database(Arc::clone(&direct))
            .run_governed(sql, chosen, &RunLimits::default())
            .unwrap();
        assert_eq!(via_prepare, unnest_outcomes(&direct), "prepare, {sql}");

        let cost_based = Arc::new(MetricsHub::new());
        rst_database(Arc::clone(&cost_based))
            .run_governed(sql, Strategy::CostBased, &RunLimits::default())
            .unwrap();
        assert_eq!(
            unnest_outcomes(&cost_based),
            unnest_outcomes(&direct),
            "run_governed, {sql}"
        );
    }
}

/// The unnest outcome tally is per statement: whatever a statement
/// tallied is booked (or dropped with its error) before the next one
/// starts on the same thread — after an EXPLAIN, after a cost-based
/// EXPLAIN that rewrote three candidates, and after a statement that
/// failed in translation or in planning.
#[test]
fn unnest_outcomes_never_leak_into_the_next_statement() {
    let hub = Arc::new(MetricsHub::new());
    let db = rst_database(Arc::clone(&hub));
    let type_error = Q1.replace("a4 > 1500", "a4 + 'x' > 1500");
    let statements: [(&str, &dyn Fn() -> bool); 4] = [
        ("explain", &|| db.explain(Q1, Strategy::Unnested).is_ok()),
        ("cost-based explain", &|| {
            db.explain(Q1, Strategy::CostBased).is_ok()
        }),
        ("translate error", &|| {
            db.sql_with("SELECT nosuch FROM r", Strategy::Unnested, None)
                .is_err()
        }),
        ("plan error after the rewrite fired", &|| {
            db.sql_with(&type_error, Strategy::Unnested, None).is_err()
        }),
    ];
    for (what, statement) in statements {
        assert!(statement(), "{what}");
        let before = unnest_outcomes(&hub);
        db.run_governed(
            "SELECT a1 FROM r",
            Strategy::Canonical,
            &RunLimits::default(),
        )
        .unwrap();
        assert_eq!(
            unnest_outcomes(&hub),
            before,
            "a plain canonical SELECT after {what} books no unnest outcomes"
        );
    }
}

/// Hubs are isolated: a database built with its own hub does not leak
/// observations into another, and `Database::metrics()` snapshots the
/// right one.
#[test]
fn metrics_hubs_are_isolated_per_database() {
    let hub_a = Arc::new(MetricsHub::new());
    let hub_b = Arc::new(MetricsHub::new());
    let mut db_a = rst_database(Arc::clone(&hub_a));
    let db_b = rst_database(Arc::clone(&hub_b));

    db_a.execute_sql(Q1).unwrap();

    let snap_a = db_a.metrics();
    assert!(snap_a
        .get("bypass_queries_total", &[("strategy", "unnested")])
        .is_some());
    assert!(
        hub_b.query_table().is_empty(),
        "hub B must not see hub A's runs"
    );
    assert!(db_b
        .metrics()
        .get("bypass_queries_total", &[("strategy", "unnested")])
        .is_none());
    assert!(Arc::ptr_eq(db_a.metrics_hub(), &hub_a));
}
