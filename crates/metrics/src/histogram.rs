//! Log-linear (HDR-style) histograms over `u64` values.
//!
//! Bucket layout: values below [`SUB`] get one bucket each (exact);
//! above that, every power-of-two magnitude is split into [`SUB`]
//! linear sub-buckets, giving a fixed relative error of at most
//! `1/SUB` across the whole 64-bit range in [`NUM_BUCKETS`] buckets
//! total. Bucket boundaries are a pure function of the value, so two
//! histograms fed the same multiset of observations are structurally
//! identical regardless of observation order or which thread
//! recorded them — the property the registry's deterministic fold
//! (and the `tests/counters.golden` gate) relies on.

/// Number of linear sub-buckets per power-of-two magnitude (as a
/// power of two: `SUB = 1 << SUB_BITS`).
pub const SUB_BITS: u32 = 2;
/// Linear sub-buckets per octave.
pub const SUB: u64 = 1 << SUB_BITS;

/// Bucket index for a value: identity below `SUB`, log-linear above.
pub const fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let mag = 63 - v.leading_zeros() as u64;
    let sub = (v >> (mag - SUB_BITS as u64)) & (SUB - 1);
    ((mag - SUB_BITS as u64) * SUB + sub + SUB) as usize
}

/// Total number of buckets needed to cover the full `u64` range.
pub const NUM_BUCKETS: usize = bucket_index(u64::MAX) + 1;

/// Largest value falling into bucket `i` (inclusive upper bound).
pub const fn bucket_upper(i: usize) -> u64 {
    if i < SUB as usize {
        return i as u64;
    }
    let k = (i - SUB as usize) as u64;
    let mag = k / SUB + SUB_BITS as u64;
    let sub = k % SUB;
    let upper = (1u128 << mag) + (((sub + 1) as u128) << (mag - SUB_BITS as u64)) - 1;
    if upper > u64::MAX as u128 {
        u64::MAX
    } else {
        upper as u64
    }
}

/// A mergeable log-linear histogram tracking count, sum and per-bucket
/// counts. Buckets allocate lazily on the first observation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one value.
    pub fn observe(&mut self, v: u64) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; NUM_BUCKETS];
        }
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Fold another histogram into this one (elementwise bucket add).
    /// Commutative and associative, so merge order cannot change the
    /// result.
    pub fn merge(&mut self, other: &Histogram) {
        if other.buckets.is_empty() {
            return;
        }
        if self.buckets.is_empty() {
            self.buckets = vec![0; NUM_BUCKETS];
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0.0 ..= 1.0`) of the recorded distribution; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        u64::MAX
    }

    /// Compact snapshot: cumulative counts at each *occupied* bucket's
    /// upper bound (Prometheus `le` convention; the implicit `+Inf`
    /// bucket equals `count`).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c != 0 {
                cum += c;
                buckets.push((bucket_upper(i), cum));
            }
        }
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            buckets,
        }
    }
}

/// Immutable compact view of a [`Histogram`]: `(upper_inclusive,
/// cumulative_count)` pairs for occupied buckets only.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub buckets: Vec<(u64, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_monotone_and_tight() {
        let mut prev = bucket_index(0);
        assert_eq!(prev, 0);
        for v in 1..=4096u64 {
            let i = bucket_index(v);
            assert!(i >= prev, "index must be monotone at {v}");
            assert!(bucket_upper(i) >= v, "upper bound covers the value");
            if i > 0 {
                assert!(bucket_upper(i - 1) < v, "previous bucket excludes it");
            }
            prev = i;
        }
        // Relative error bound: bucket width <= lower/SUB for v >= SUB.
        for mag in SUB_BITS as u64..63 {
            let v = 1u64 << mag;
            let i = bucket_index(v);
            let width = bucket_upper(i) - v + 1;
            assert!(width <= (v / SUB).max(1), "width {width} at 2^{mag}");
        }
        assert_eq!(bucket_index(u64::MAX) + 1, NUM_BUCKETS);
        assert_eq!(bucket_upper(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn observe_merge_and_quantile() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 100, 1000, 1000, 65_536] {
            h.observe(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 67_642);
        assert_eq!(h.quantile(0.0), 0);
        assert!(h.quantile(1.0) >= 65_536);
        let median = h.quantile(0.5);
        assert!((3..=127).contains(&median), "median bucket ~3: {median}");

        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [5u64, 17, 900] {
            a.observe(v);
        }
        for v in [5u64, 1 << 40] {
            b.observe(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge is commutative");
        assert_eq!(ab.count(), 5);
    }

    #[test]
    fn snapshot_is_cumulative_and_trimmed() {
        let mut h = Histogram::new();
        h.observe(1);
        h.observe(1);
        h.observe(1 << 20);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets.len(), 2, "only occupied buckets appear");
        assert_eq!(s.buckets[0], (1, 2));
        assert_eq!(s.buckets[1].1, 3, "cumulative reaches count");
        assert!(s.buckets[1].0 >= 1 << 20);
        assert_eq!(Histogram::new().snapshot(), HistogramSnapshot::default());
    }
}
