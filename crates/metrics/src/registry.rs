//! The metrics registry: one slot per series, all under one mutex.
//!
//! Registration appends a series' slot; [`Registry::add`],
//! [`Registry::observe_max`] and [`Registry::observe`] update it in
//! place; [`Registry::snapshot`] reads every slot in one pass. Each
//! write folds with a commutative operation — counters sum, gauges
//! take the max, histograms add bucket by bucket — so a snapshot is
//! independent of which thread wrote what and in which order. That
//! is what lets timing-free snapshots gate exactly in
//! `tests/counters.golden`. A statement writes about fifteen series
//! (DESIGN.md §9), so the one lock is not a contended path.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

use crate::histogram::{Histogram, HistogramSnapshot};

/// Dense handle for a registered metric series (one per distinct
/// `(name, labels)` pair). Cheap to copy and store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetricId(usize);

/// The three supported metric kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic sum of every write.
    Counter,
    /// Max of every sample (e.g. peak memory).
    GaugeMax,
    /// Log-linear histogram, bucket counts added per observation.
    Histogram,
}

/// One registered series: its description and its folded value.
#[derive(Debug)]
struct Series {
    name: String,
    labels: Vec<(String, String)>,
    help: String,
    kind: MetricKind,
    /// Timing-derived series are excluded from deterministic
    /// snapshots (they vary run to run; counts do not).
    timing: bool,
    slot: Slot,
}

#[derive(Debug)]
enum Slot {
    Counter(u64),
    GaugeMax(u64),
    Histogram(Histogram),
}

#[derive(Default)]
struct Inner {
    /// Dense by [`MetricId`].
    series: Vec<Series>,
    index: HashMap<(String, Vec<(String, String)>), MetricId>,
}

/// A process- or instance-scoped metrics registry. Most callers use
/// the hub-owned instance; tests create isolated registries so
/// parallel test binaries cannot observe each other's traffic.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("metrics lock poisoned")
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: MetricKind,
        timing: bool,
    ) -> MetricId {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        let mut inner = self.lock();
        if let Some(&id) = inner.index.get(&(name.to_string(), labels.clone())) {
            debug_assert_eq!(
                inner.series[id.0].kind, kind,
                "metric {name} re-registered with a different kind"
            );
            return id;
        }
        let id = MetricId(inner.series.len());
        inner.series.push(Series {
            name: name.to_string(),
            labels: labels.clone(),
            help: help.to_string(),
            kind,
            timing,
            slot: match kind {
                MetricKind::Counter => Slot::Counter(0),
                MetricKind::GaugeMax => Slot::GaugeMax(0),
                MetricKind::Histogram => Slot::Histogram(Histogram::new()),
            },
        });
        inner.index.insert((name.to_string(), labels), id);
        id
    }

    /// Register (or look up) a counter series.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> MetricId {
        self.register(name, help, labels, MetricKind::Counter, false)
    }

    /// Register (or look up) a max-folding gauge series.
    pub fn gauge_max(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> MetricId {
        self.register(name, help, labels, MetricKind::GaugeMax, false)
    }

    /// Register (or look up) a histogram series. `timing` marks it as
    /// wall-clock derived (excluded from deterministic snapshots).
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        timing: bool,
    ) -> MetricId {
        self.register(name, help, labels, MetricKind::Histogram, timing)
    }

    /// Add to a counter.
    pub fn add(&self, id: MetricId, delta: u64) {
        if delta == 0 {
            return;
        }
        match &mut self.lock().series[id.0].slot {
            Slot::Counter(c) => *c += delta,
            _ => debug_assert!(false, "add() on a non-counter metric"),
        }
    }

    /// Fold a sample into a max-gauge.
    pub fn observe_max(&self, id: MetricId, value: u64) {
        match &mut self.lock().series[id.0].slot {
            Slot::GaugeMax(g) => *g = (*g).max(value),
            _ => debug_assert!(false, "observe_max() on a non-gauge metric"),
        }
    }

    /// Record a histogram observation.
    pub fn observe(&self, id: MetricId, value: u64) {
        match &mut self.lock().series[id.0].slot {
            Slot::Histogram(h) => h.observe(value),
            _ => debug_assert!(false, "observe() on a non-histogram metric"),
        }
    }

    /// One series' value without building a snapshot: a counter's
    /// sum, a gauge's max, a histogram's observation count.
    pub fn value(&self, id: MetricId) -> u64 {
        match &self.lock().series[id.0].slot {
            Slot::Counter(c) => *c,
            Slot::GaugeMax(g) => *g,
            Slot::Histogram(h) => h.count(),
        }
    }

    /// Every series in one consistent snapshot. Registered but
    /// never-written series appear with their identity value, so
    /// "required family present" checks hold on an idle engine.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        let mut entries: Vec<MetricEntry> = inner
            .series
            .iter()
            .map(|s| MetricEntry {
                name: s.name.clone(),
                labels: s.labels.clone(),
                help: s.help.clone(),
                timing: s.timing,
                value: match &s.slot {
                    Slot::Counter(c) => MetricValue::Counter(*c),
                    Slot::GaugeMax(g) => MetricValue::Gauge(*g),
                    Slot::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        drop(inner);
        entries.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        Snapshot { entries }
    }
}

/// One folded metric series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricEntry {
    pub name: String,
    /// Sorted `(key, value)` label pairs.
    pub labels: Vec<(String, String)>,
    pub help: String,
    /// Wall-clock derived (excluded by [`Snapshot::deterministic`]).
    pub timing: bool,
    pub value: MetricValue,
}

/// The folded value of a series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(u64),
    Histogram(HistogramSnapshot),
}

/// A consistent, sorted fold of a registry (plus any hub-synthesized
/// series). `PartialEq` makes bit-identity assertions trivial.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Sorted by `(name, labels)`.
    pub entries: Vec<MetricEntry>,
}

impl Snapshot {
    /// The timing-free subset: every entry left is count-derived and
    /// therefore identical across worker counts, batch sizes and
    /// repeated runs of the same workload.
    pub fn deterministic(&self) -> Snapshot {
        Snapshot {
            entries: self.entries.iter().filter(|e| !e.timing).cloned().collect(),
        }
    }

    /// Look up one series by name and (unsorted) label pairs.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        self.entries
            .iter()
            .find(|e| e.name == name && e.labels == labels)
            .map(|e| &e.value)
    }

    /// Convenience: the value of a counter series (0 when absent).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.get(name, labels) {
            Some(MetricValue::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Convenience: the value of a gauge series (0 when absent).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.get(name, labels) {
            Some(MetricValue::Gauge(g)) => *g,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_sum_gauges_max_across_threads() {
        let reg = Arc::new(Registry::new());
        let c = reg.counter("hits_total", "hits", &[]);
        let g = reg.gauge_max("peak_bytes", "peak", &[("pool", "exec")]);
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    reg.add(c, i + 1);
                    reg.observe_max(g, i * 100);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("hits_total", &[]), 1 + 2 + 3 + 4);
        assert_eq!(snap.gauge("peak_bytes", &[("pool", "exec")]), 300);
    }

    #[test]
    fn fold_is_worker_count_independent() {
        // The same multiset of writes distributed over 1 vs 8 threads
        // must fold to bit-identical snapshots.
        let run = |threads: usize| {
            let reg = Arc::new(Registry::new());
            let c = reg.counter("ops_total", "ops", &[]);
            let h = reg.histogram("latency", "lat", &[], false);
            let work: Vec<u64> = (0..64).map(|i| i * 37 % 1000).collect();
            std::thread::scope(|s| {
                for chunk in work.chunks(work.len() / threads) {
                    let reg = Arc::clone(&reg);
                    s.spawn(move || {
                        for &v in chunk {
                            reg.add(c, 1);
                            reg.observe(h, v);
                        }
                    });
                }
            });
            reg.snapshot()
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn registration_is_idempotent_and_label_order_insensitive() {
        let reg = Registry::new();
        let a = reg.counter("x_total", "x", &[("a", "1"), ("b", "2")]);
        let b = reg.counter("x_total", "x", &[("b", "2"), ("a", "1")]);
        assert_eq!(a, b);
        reg.add(a, 5);
        assert_eq!(
            reg.snapshot().counter("x_total", &[("b", "2"), ("a", "1")]),
            5
        );
    }

    #[test]
    fn unwritten_series_fold_to_identity() {
        let reg = Registry::new();
        reg.counter("c_total", "c", &[]);
        reg.gauge_max("g", "g", &[]);
        reg.histogram("h", "h", &[], true);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c_total", &[]), 0);
        assert_eq!(snap.gauge("g", &[]), 0);
        assert!(matches!(
            snap.get("h", &[]),
            Some(MetricValue::Histogram(h)) if h.count == 0
        ));
        // The timing histogram disappears from the deterministic view.
        assert!(snap.deterministic().get("h", &[]).is_none());
        assert_eq!(snap.deterministic().entries.len(), 2);
    }

    #[test]
    fn snapshot_sorted_and_isolated_between_registries() {
        let r1 = Registry::new();
        let r2 = Registry::new();
        let id1 = r1.counter("z_total", "z", &[]);
        let id2 = r1.counter("a_total", "a", &[]);
        r1.add(id1, 1);
        r1.add(id2, 2);
        // Same thread, different registry: no crosstalk.
        let other = r2.counter("z_total", "z", &[]);
        r2.add(other, 99);
        let snap = r1.snapshot();
        let names: Vec<&str> = snap.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["a_total", "z_total"]);
        assert_eq!(snap.counter("z_total", &[]), 1);
        assert_eq!(r2.snapshot().counter("z_total", &[]), 99);
    }
}
