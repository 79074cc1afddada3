//! The per-fingerprint store: the query-stats table, bounded and keyed
//! by the normalized-AST query fingerprint, so recurring query *shapes*
//! accumulate history across executions regardless of literal values.

use std::collections::HashMap;

use crate::histogram::{Histogram, HistogramSnapshot};

/// Everything the hub records about one query execution.
#[derive(Debug, Clone, Default)]
pub struct ExecObservation {
    /// Normalized-AST fingerprint ([`crate::format_fingerprint`]).
    pub fingerprint: u64,
    /// The raw SQL text (first-seen text is retained per fingerprint).
    pub sql: String,
    /// Display name of the strategy that actually ran.
    pub strategy: String,
    /// End-to-end wall latency.
    pub total_nanos: u64,
    /// Per-phase wall latencies, in [`crate::PHASE_NAMES`] order;
    /// `None` when the caller did not time phases.
    pub phases_nanos: Option<[u64; 5]>,
    /// Output row count.
    pub rows: u64,
    /// Governor peak memory for this execution.
    pub peak_memory_bytes: u64,
    /// Governor checkpoints passed.
    pub checkpoints: u64,
    /// Correlation-memo hits/misses (uncorrelated + correlated).
    pub memo_hits: u64,
    pub memo_misses: u64,
    /// Per-disjunct totals of the chained σ/σ±: predicate
    /// evaluations performed and disjuncts decided.
    pub disjunct_evals: u64,
    pub disjunct_hits: u64,
}

/// Accumulated statistics for one query fingerprint.
#[derive(Debug, Clone, Default)]
pub(crate) struct QueryStats {
    pub sql: String,
    pub strategy: String,
    pub execs: u64,
    pub rows: u64,
    pub peak_memory_bytes: u64,
    pub checkpoints: u64,
    pub latency: Histogram,
}

/// Public snapshot of one fingerprint's accumulated stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryStatsSnapshot {
    pub fingerprint: u64,
    pub sql: String,
    /// Strategy of the most recent execution.
    pub strategy: String,
    pub execs: u64,
    /// Total output rows across executions.
    pub rows: u64,
    /// Max across executions.
    pub peak_memory_bytes: u64,
    /// Total checkpoints across executions.
    pub checkpoints: u64,
    /// Wall-latency distribution (timing-derived; excluded from
    /// deterministic snapshots).
    pub latency: HistogramSnapshot,
}

/// Bounded fingerprint -> stats table. When full, the entry with the
/// fewest executions (ties broken by fingerprint) is evicted — a
/// recurring shape always survives one-off noise.
#[derive(Debug, Default)]
pub(crate) struct QueryTable {
    pub stats: HashMap<u64, QueryStats>,
    pub evictions: u64,
    capacity: usize,
}

impl QueryTable {
    pub fn new(capacity: usize) -> QueryTable {
        QueryTable {
            stats: HashMap::new(),
            evictions: 0,
            capacity,
        }
    }

    pub fn record(&mut self, obs: &ExecObservation) {
        if !self.stats.contains_key(&obs.fingerprint) && self.stats.len() >= self.capacity {
            if let Some(victim) = self
                .stats
                .iter()
                .map(|(fp, s)| (s.execs, *fp))
                .min()
                .map(|(_, fp)| fp)
            {
                self.stats.remove(&victim);
                self.evictions += 1;
            }
        }
        let entry = self.stats.entry(obs.fingerprint).or_default();
        if entry.sql.is_empty() {
            entry.sql = obs.sql.clone();
        }
        entry.strategy = obs.strategy.clone();
        entry.execs += 1;
        entry.rows += obs.rows;
        entry.peak_memory_bytes = entry.peak_memory_bytes.max(obs.peak_memory_bytes);
        entry.checkpoints += obs.checkpoints;
        entry.latency.observe(obs.total_nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(fp: u64, nanos: u64) -> ExecObservation {
        ExecObservation {
            fingerprint: fp,
            sql: format!("SELECT {fp}"),
            strategy: "canonical".into(),
            total_nanos: nanos,
            rows: 2,
            peak_memory_bytes: 100 * fp,
            checkpoints: 3,
            ..ExecObservation::default()
        }
    }

    #[test]
    fn query_table_accumulates_and_evicts_coldest() {
        let mut t = QueryTable::new(2);
        t.record(&obs(1, 10));
        t.record(&obs(1, 20));
        t.record(&obs(2, 10));
        // Table full; fp 3 evicts the coldest entry (fp 2, 1 exec).
        t.record(&obs(3, 10));
        assert_eq!(t.evictions, 1);
        assert!(t.stats.contains_key(&1) && t.stats.contains_key(&3));
        let s1 = &t.stats[&1];
        assert_eq!((s1.execs, s1.rows, s1.checkpoints), (2, 4, 6));
        assert_eq!(s1.peak_memory_bytes, 100);
        assert_eq!(s1.latency.count(), 2);
    }
}
