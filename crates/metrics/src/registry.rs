//! The sharded metrics registry.
//!
//! Layout mirrors `bypass-trace`'s thread-buffer design: each thread
//! owns one shard per registry (created lazily, registered in the
//! registry's collector, kept alive by the registry after thread
//! exit), so the write path locks only the calling thread's own
//! uncontended mutex. [`Registry::snapshot`] folds all shards with
//! commutative operations — counters sum, gauges take the max,
//! histograms add buckets elementwise — so the folded result is
//! independent of worker count, shard registration order and
//! observation interleaving. That is the same replay discipline the
//! governor uses (DESIGN.md §6/§7) and what lets timing-free
//! snapshots gate exactly in `tests/counters.golden`.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::histogram::{Histogram, HistogramSnapshot};

/// Dense handle for a registered metric series (one per distinct
/// `(name, labels)` pair). Cheap to copy and store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetricId(usize);

/// The three supported metric kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic sum across shards.
    Counter,
    /// Max across shards (e.g. peak memory).
    GaugeMax,
    /// Log-linear histogram, merged elementwise.
    Histogram,
}

#[derive(Debug, Clone)]
struct Desc {
    name: String,
    labels: Vec<(String, String)>,
    help: String,
    kind: MetricKind,
    /// Timing-derived series are excluded from deterministic
    /// snapshots (they vary run to run; counts do not).
    timing: bool,
}

/// Per-thread slot storage, dense by [`MetricId`]. Slots materialize
/// on first write; an absent slot folds as the kind's identity.
#[derive(Debug, Default)]
struct Shard {
    slots: Vec<Option<Slot>>,
}

#[derive(Debug)]
enum Slot {
    Counter(u64),
    GaugeMax(u64),
    Histogram(Histogram),
}

impl Shard {
    fn slot(&mut self, id: MetricId) -> &mut Option<Slot> {
        if self.slots.len() <= id.0 {
            self.slots.resize_with(id.0 + 1, || None);
        }
        &mut self.slots[id.0]
    }
}

#[derive(Default)]
struct Inner {
    descs: Vec<Desc>,
    index: HashMap<(String, Vec<(String, String)>), MetricId>,
    shards: Vec<Arc<Mutex<Shard>>>,
}

/// A process- or instance-scoped metrics registry. Most callers use
/// the hub-owned instance; tests create isolated registries so
/// parallel test binaries cannot observe each other's traffic.
pub struct Registry {
    /// Distinguishes registries in the thread-local shard cache.
    uid: u64,
    inner: Mutex<Inner>,
}

thread_local! {
    /// (registry uid -> this thread's shard). A small scan-vector:
    /// a process holds very few registries.
    static SHARDS: RefCell<Vec<(u64, Arc<Mutex<Shard>>)>> = const { RefCell::new(Vec::new()) };
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    pub fn new() -> Registry {
        static NEXT_UID: AtomicU64 = AtomicU64::new(1);
        Registry {
            uid: NEXT_UID.fetch_add(1, Ordering::Relaxed),
            inner: Mutex::new(Inner::default()),
        }
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
        let mut inner = self.inner.lock().unwrap();
        if let Some(&id) = inner.index.get(&(name.to_string(), labels.clone())) {
            debug_assert_eq!(
                inner.descs[id.0].kind, kind,
                "metric {name} re-registered with a different kind"
            );
            return id;
        }
        let id = MetricId(inner.descs.len());
        inner.descs.push(Desc {
            name: name.to_string(),
            labels: labels.clone(),
            help: help.to_string(),
            kind,
            timing,
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

    /// The calling thread's shard for this registry, creating and
    /// registering it on first use.
    fn shard(&self) -> Arc<Mutex<Shard>> {
        SHARDS.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((_, shard)) = cache.iter().find(|(uid, _)| *uid == self.uid) {
                return Arc::clone(shard);
            }
            let shard = Arc::new(Mutex::new(Shard::default()));
            self.inner.lock().unwrap().shards.push(Arc::clone(&shard));
            cache.push((self.uid, Arc::clone(&shard)));
            shard
        })
    }

    /// Add to a counter.
    pub fn add(&self, id: MetricId, delta: u64) {
        if delta == 0 {
            return;
        }
        let shard = self.shard();
        let mut shard = shard.lock().unwrap();
        match shard.slot(id) {
            Some(Slot::Counter(c)) => *c += delta,
            slot @ None => *slot = Some(Slot::Counter(delta)),
            _ => debug_assert!(false, "add() on a non-counter metric"),
        }
    }

    /// Fold a sample into a max-gauge.
    pub fn observe_max(&self, id: MetricId, value: u64) {
        let shard = self.shard();
        let mut shard = shard.lock().unwrap();
        match shard.slot(id) {
            Some(Slot::GaugeMax(g)) => *g = (*g).max(value),
            slot @ None => *slot = Some(Slot::GaugeMax(value)),
            _ => debug_assert!(false, "observe_max() on a non-gauge metric"),
        }
    }

    /// Record a histogram observation.
    pub fn observe(&self, id: MetricId, value: u64) {
        let shard = self.shard();
        let mut shard = shard.lock().unwrap();
        match shard.slot(id) {
            Some(Slot::Histogram(h)) => h.observe(value),
            slot @ None => {
                let mut h = Histogram::new();
                h.observe(value);
                *slot = Some(Slot::Histogram(h));
            }
            _ => debug_assert!(false, "observe() on a non-histogram metric"),
        }
    }

    /// Fold one series across all shards without building a full
    /// snapshot: counters sum, gauges max, histograms report their
    /// total observation count. The admission controller polls the
    /// peak-memory watermark on every submit, so this path must stay
    /// O(shards), not O(shards x series).
    pub fn fold_value(&self, id: MetricId) -> u64 {
        let inner = self.inner.lock().unwrap();
        let mut acc = 0u64;
        for shard in &inner.shards {
            let shard = shard.lock().unwrap();
            match shard.slots.get(id.0) {
                Some(Some(Slot::Counter(c))) => acc += *c,
                Some(Some(Slot::GaugeMax(g))) => acc = acc.max(*g),
                Some(Some(Slot::Histogram(h))) => acc += h.count(),
                _ => {}
            }
        }
        acc
    }

    /// Fold every shard into one consistent snapshot. Registered but
    /// never-written series appear with their identity value, so
    /// "required family present" checks hold on an idle engine.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().unwrap();
        let mut entries: Vec<MetricEntry> = Vec::with_capacity(inner.descs.len());
        for (i, desc) in inner.descs.iter().enumerate() {
            let mut counter = 0u64;
            let mut gauge = 0u64;
            let mut hist = Histogram::new();
            for shard in &inner.shards {
                let shard = shard.lock().unwrap();
                match shard.slots.get(i) {
                    Some(Some(Slot::Counter(c))) => counter += *c,
                    Some(Some(Slot::GaugeMax(g))) => gauge = gauge.max(*g),
                    Some(Some(Slot::Histogram(h))) => hist.merge(h),
                    _ => {}
                }
            }
            let value = match desc.kind {
                MetricKind::Counter => MetricValue::Counter(counter),
                MetricKind::GaugeMax => MetricValue::Gauge(gauge),
                MetricKind::Histogram => MetricValue::Histogram(hist.snapshot()),
            };
            entries.push(MetricEntry {
                name: desc.name.clone(),
                labels: desc.labels.clone(),
                help: desc.help.clone(),
                timing: desc.timing,
                value,
            });
        }
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
