//! `bypass-metrics` — always-on, zero-dependency engine metrics.
//!
//! Three layers (DESIGN.md §9):
//!
//! 1. [`Registry`] — counters, max-gauges and log-linear
//!    [`Histogram`]s, one slot per series under one mutex. Every write
//!    folds commutatively (counters sum, gauges max, histograms add
//!    bucket by bucket), so a snapshot does not depend on which thread
//!    recorded what. Wall-clock-derived series carry a `timing` flag;
//!    [`Snapshot::deterministic`] strips them, and what remains is
//!    bit-identical across thread counts, batch sizes and reruns —
//!    which is what `tests/counters.golden` gates.
//! 2. [`MetricsHub`] — the registry plus a bounded per-fingerprint
//!    query-stats table.
//! 3. Exposition — Prometheus text ([`render_prometheus`] +
//!    [`validate_prometheus`]) and JSON ([`render_json`]).
//!
//! Recording one query execution is about fifteen slot writes plus
//! one bounded table update: under a microsecond on a 2-vCPU VM, beside
//! statements that run for milliseconds. `metrics.snapshot_us` in
//! `benchmark/run.sh --trace 1` measures the read side.

mod expose;
mod histogram;
mod registry;
mod store;

pub use expose::{render_json, render_prometheus, validate_prometheus};
pub use histogram::{bucket_index, bucket_upper, Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use registry::{MetricEntry, MetricId, MetricKind, MetricValue, Registry, Snapshot};
pub use store::{ExecObservation, QueryStatsSnapshot};

use std::sync::{Arc, Mutex, OnceLock};

use store::QueryTable;

/// Phase names, in recording order (indices into
/// [`ExecObservation::phases_nanos`]).
pub const PHASE_NAMES: [&str; 5] = ["parse", "translate", "unnest", "optimize", "execute"];

/// Fingerprints tracked in the query-stats table before eviction.
pub const MAX_FINGERPRINTS: usize = 1024;

/// Render a fingerprint the way every surface (EXPLAIN ANALYZE,
/// oracle reports, Prometheus labels) prints it: 16 lowercase hex
/// digits.
pub fn format_fingerprint(fp: u64) -> String {
    format!("{fp:016x}")
}

struct HubIds {
    queries_rows: MetricId,
    checkpoints: MetricId,
    memo_hits: MetricId,
    memo_misses: MetricId,
    disjunct_evals: MetricId,
    disjunct_hits: MetricId,
    peak_memory: MetricId,
    catalog_column_bytes: MetricId,
    fingerprint_evictions: MetricId,
    phases: [MetricId; 5],
    latency: MetricId,
}

/// The engine-wide metrics facade: one registry plus the bounded
/// per-fingerprint query-stats table. `Database` instances share the process
/// [`MetricsHub::global`] hub by default; tests create isolated hubs.
pub struct MetricsHub {
    registry: Registry,
    ids: HubIds,
    queries: Mutex<QueryTable>,
}

impl Default for MetricsHub {
    fn default() -> Self {
        MetricsHub::new()
    }
}

impl std::fmt::Debug for MetricsHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsHub").finish_non_exhaustive()
    }
}

impl MetricsHub {
    /// A fresh, isolated hub (own registry and stores).
    pub fn new() -> MetricsHub {
        let registry = Registry::new();
        let ids = HubIds {
            queries_rows: registry.counter(
                "bypass_rows_total",
                "Output rows produced by executed queries",
                &[],
            ),
            checkpoints: registry.counter(
                "bypass_checkpoints_total",
                "Governor checkpoints passed",
                &[],
            ),
            memo_hits: registry.counter(
                "bypass_memo_hits_total",
                "Correlation-memo hits (uncorrelated + correlated)",
                &[],
            ),
            memo_misses: registry.counter(
                "bypass_memo_misses_total",
                "Correlation-memo misses (uncorrelated + correlated)",
                &[],
            ),
            disjunct_evals: registry.counter(
                "bypass_disjunct_evals_total",
                "Disjunct predicate evaluations performed by chained selections",
                &[],
            ),
            disjunct_hits: registry.counter(
                "bypass_disjunct_hits_total",
                "Disjuncts decided (short-circuit hits) by chained selections",
                &[],
            ),
            peak_memory: registry.gauge_max(
                "bypass_peak_memory_bytes",
                "Governor peak memory across executions",
                &[],
            ),
            catalog_column_bytes: registry.gauge_max(
                "bypass_catalog_column_bytes",
                "Bytes of materialised base-table columns, summed over tables",
                &[],
            ),
            fingerprint_evictions: registry.counter(
                "bypass_fingerprint_evictions_total",
                "Query-stats table evictions",
                &[],
            ),
            phases: PHASE_NAMES.map(|p| {
                registry.histogram(
                    "bypass_phase_nanos",
                    "Per-phase wall latency (nanoseconds)",
                    &[("phase", p)],
                    true,
                )
            }),
            latency: registry.histogram(
                "bypass_query_latency_nanos",
                "End-to-end query wall latency (nanoseconds)",
                &[],
                true,
            ),
        };
        MetricsHub {
            registry,
            ids,
            queries: Mutex::new(QueryTable::new(MAX_FINGERPRINTS)),
        }
    }

    /// The process-wide hub every `Database` shares by default.
    pub fn global() -> Arc<MetricsHub> {
        static GLOBAL: OnceLock<Arc<MetricsHub>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| Arc::new(MetricsHub::new())))
    }

    /// Direct registry access for callers recording custom series.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The governor's peak-memory watermark (bytes) across every
    /// execution recorded into this hub — one slot read, polled by the
    /// service's degradation controller on each submit.
    pub fn peak_memory_bytes(&self) -> u64 {
        self.registry.value(self.ids.peak_memory)
    }

    /// What the catalog's lazily built base-table columns occupy. A
    /// database reports it whenever its metrics are read; they are
    /// uncharged — no statement's budget covers them — so this gauge is
    /// where their memory shows. Columns only grow until a table's data
    /// is replaced, and the fold is a maximum.
    pub fn observe_catalog_column_bytes(&self, bytes: u64) {
        self.registry
            .observe_max(self.ids.catalog_column_bytes, bytes);
    }

    /// Record one completed query execution: registry counters and
    /// histograms, and the per-fingerprint stats table.
    pub fn record_execution(&self, obs: &ExecObservation) {
        let reg = &self.registry;
        let strategy = reg.counter(
            "bypass_queries_total",
            "Queries executed, by resolved strategy",
            &[("strategy", &obs.strategy)],
        );
        reg.add(strategy, 1);
        reg.add(self.ids.queries_rows, obs.rows);
        reg.add(self.ids.checkpoints, obs.checkpoints);
        reg.add(self.ids.memo_hits, obs.memo_hits);
        reg.add(self.ids.memo_misses, obs.memo_misses);
        reg.add(self.ids.disjunct_evals, obs.disjunct_evals);
        reg.add(self.ids.disjunct_hits, obs.disjunct_hits);
        reg.observe_max(self.ids.peak_memory, obs.peak_memory_bytes);
        reg.observe(self.ids.latency, obs.total_nanos);
        if let Some(phases) = obs.phases_nanos {
            for (id, nanos) in self.ids.phases.iter().zip(phases) {
                reg.observe(*id, nanos);
            }
        }
        let mut queries = self.queries.lock().unwrap();
        let evictions_before = queries.evictions;
        queries.record(obs);
        let evicted = queries.evictions - evictions_before;
        drop(queries);
        reg.add(self.ids.fingerprint_evictions, evicted);
    }

    /// Record unnesting attempt outcomes (which of Eqv. 1–5 / union /
    /// bypass fired, or why not) as `(outcome key, count)` pairs.
    pub fn record_unnest_outcomes(&self, outcomes: &[(&str, u64)]) {
        for (key, n) in outcomes {
            let id = self.registry.counter(
                "bypass_unnest_outcomes_total",
                "Unnesting attempts by outcome (equivalence fired or rejection reason)",
                &[("outcome", key)],
            );
            self.registry.add(id, *n);
        }
    }

    /// Accumulated stats for one query shape.
    pub fn query_stats(&self, fingerprint: u64) -> Option<QueryStatsSnapshot> {
        let queries = self.queries.lock().unwrap();
        queries.stats.get(&fingerprint).map(|s| QueryStatsSnapshot {
            fingerprint,
            sql: s.sql.clone(),
            strategy: s.strategy.clone(),
            execs: s.execs,
            rows: s.rows,
            peak_memory_bytes: s.peak_memory_bytes,
            checkpoints: s.checkpoints,
            latency: s.latency.snapshot(),
        })
    }

    /// The full stats table, sorted by fingerprint.
    pub fn query_table(&self) -> Vec<QueryStatsSnapshot> {
        let queries = self.queries.lock().unwrap();
        let mut out: Vec<QueryStatsSnapshot> = queries
            .stats
            .iter()
            .map(|(fp, s)| QueryStatsSnapshot {
                fingerprint: *fp,
                sql: s.sql.clone(),
                strategy: s.strategy.clone(),
                execs: s.execs,
                rows: s.rows,
                peak_memory_bytes: s.peak_memory_bytes,
                checkpoints: s.checkpoints,
                latency: s.latency.snapshot(),
            })
            .collect();
        out.sort_by_key(|s| s.fingerprint);
        out
    }

    /// One consistent snapshot: the folded registry plus synthesized
    /// per-fingerprint series (`bypass_query_execs_total`,
    /// `bypass_query_rows_total`, `bypass_query_peak_memory_bytes`,
    /// keyed by a `fingerprint` label).
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = self.registry.snapshot();
        let table = self.query_table();
        for s in &table {
            let fp = format_fingerprint(s.fingerprint);
            let labels = vec![("fingerprint".to_string(), fp)];
            snap.entries.push(MetricEntry {
                name: "bypass_query_execs_total".into(),
                labels: labels.clone(),
                help: "Executions per query fingerprint".into(),
                timing: false,
                value: MetricValue::Counter(s.execs),
            });
            snap.entries.push(MetricEntry {
                name: "bypass_query_rows_total".into(),
                labels: labels.clone(),
                help: "Output rows per query fingerprint".into(),
                timing: false,
                value: MetricValue::Counter(s.rows),
            });
            snap.entries.push(MetricEntry {
                name: "bypass_query_peak_memory_bytes".into(),
                labels,
                help: "Peak governor memory per query fingerprint".into(),
                timing: false,
                value: MetricValue::Gauge(s.peak_memory_bytes),
            });
        }
        snap.entries
            .sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(fp: u64, strategy: &str, nanos: u64) -> ExecObservation {
        ExecObservation {
            fingerprint: fp,
            sql: format!("SELECT * FROM r WHERE k = {fp}"),
            strategy: strategy.into(),
            total_nanos: nanos,
            phases_nanos: Some([10, 20, 30, 40, nanos.saturating_sub(100)]),
            rows: 3,
            peak_memory_bytes: 2048,
            checkpoints: 7,
            memo_hits: 5,
            memo_misses: 2,
            disjunct_evals: 100,
            disjunct_hits: 60,
        }
    }

    #[test]
    fn record_execution_feeds_registry_and_table() {
        let hub = MetricsHub::new();
        hub.record_execution(&obs(0xabc, "canonical", 1_000));
        hub.record_execution(&obs(0xabc, "unnested", 9_000));
        hub.record_execution(&obs(0xdef, "canonical", 4_000));
        let snap = hub.snapshot();
        assert_eq!(
            snap.counter("bypass_queries_total", &[("strategy", "canonical")]),
            2
        );
        assert_eq!(
            snap.counter("bypass_queries_total", &[("strategy", "unnested")]),
            1
        );
        assert_eq!(snap.counter("bypass_rows_total", &[]), 9);
        assert_eq!(snap.counter("bypass_disjunct_evals_total", &[]), 300);
        assert_eq!(snap.gauge("bypass_peak_memory_bytes", &[]), 2048);
        let fp = format_fingerprint(0xabc);
        assert_eq!(
            snap.counter("bypass_query_execs_total", &[("fingerprint", &fp)]),
            2
        );
        let stats = hub.query_stats(0xabc).unwrap();
        assert_eq!(
            (stats.execs, stats.rows, stats.strategy.as_str()),
            (2, 6, "unnested")
        );
        assert_eq!(stats.latency.count, 2);
    }

    #[test]
    fn deterministic_snapshot_drops_latency_histograms() {
        let hub = MetricsHub::new();
        hub.record_execution(&obs(1, "canonical", 123));
        let det = hub.snapshot().deterministic();
        assert!(det.get("bypass_query_latency_nanos", &[]).is_none());
        assert!(det
            .get("bypass_phase_nanos", &[("phase", "parse")])
            .is_none());
        assert_eq!(det.counter("bypass_rows_total", &[]), 3);
        // Two hubs fed identically snapshot identically.
        let hub2 = MetricsHub::new();
        hub2.record_execution(&obs(1, "canonical", 456));
        assert_eq!(det, hub2.snapshot().deterministic());
    }

    #[test]
    fn unnest_outcomes_are_counted_by_key() {
        let hub = MetricsHub::new();
        hub.record_unnest_outcomes(&[("eqv1:gamma-outerjoin", 2), ("rejected:no-subquery", 1)]);
        let snap = hub.snapshot();
        assert_eq!(
            snap.counter(
                "bypass_unnest_outcomes_total",
                &[("outcome", "eqv1:gamma-outerjoin")]
            ),
            2
        );
    }

    #[test]
    fn snapshot_renders_valid_prometheus_and_json() {
        let hub = MetricsHub::new();
        hub.record_execution(&obs(42, "cost-based", 777));
        let snap = hub.snapshot();
        let text = render_prometheus(&snap);
        validate_prometheus(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
        bypass_trace::json::validate(&render_json(&snap)).unwrap();
        assert!(text.contains("bypass_query_execs_total{fingerprint=\"000000000000002a\"} 1"));
    }

    #[test]
    fn global_hub_is_shared() {
        let a = MetricsHub::global();
        let b = MetricsHub::global();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
