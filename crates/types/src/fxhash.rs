//! Dependency-free fast hashing for the executor's hot paths.
//!
//! The standard library's default hasher (SipHash-1-3) is keyed and
//! DoS-resistant, but an in-memory query engine hashing millions of join
//! and grouping keys per query pays dearly for that resistance. This
//! module provides the FxHash algorithm (the Firefox / rustc hasher): a
//! single multiply-rotate-xor round per word. It is not collision
//! resistant against adversarial inputs — which is fine here, because
//! every hash table in the executor verifies keys with a full equality
//! comparison on lookup.
//!
//! Three layers are exposed:
//!
//! * [`FxHasher`] / [`FxBuildHasher`] — a drop-in `std::hash::Hasher`,
//! * [`FxHashMap`] / [`FxHashSet`] — `HashMap`/`HashSet` aliases using it,
//! * [`hash_values`] — the one-shot kernel for hashing a row (slice of
//!   [`Value`]s) to a `u64`, used by the join hash table and the
//!   grouping operator to bucket rows by *precomputed* hash instead of
//!   re-hashing materialized `Vec<Value>` keys.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::Value;

/// Multiplicative constant of FxHash (64-bit): truncation of
/// π's fractional part, as used by rustc's `FxHasher`.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The FxHash hasher: one wrapping multiply + rotate + xor per word.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf) ^ rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s (stateless, deterministic).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` keyed with FxHash.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed with FxHash.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// One-shot FxHash of a row (slice of values) — the precomputed-row-hash
/// kernel used by the join hash table and the grouping operator. The
/// length is folded in so prefixes do not collide trivially.
#[inline]
pub fn hash_values(values: &[Value]) -> u64 {
    let mut h = FxHasher::default();
    h.write_usize(values.len());
    for v in values {
        v.hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_input_sensitive() {
        let a = hash_values(&[Value::Int(1), Value::Int(2)]);
        let b = hash_values(&[Value::Int(1), Value::Int(2)]);
        let c = hash_values(&[Value::Int(2), Value::Int(1)]);
        assert_eq!(a, b, "same input, same hash");
        assert_ne!(a, c, "order matters");
        assert_ne!(
            hash_values(&[Value::Int(1)]),
            hash_values(&[Value::Int(1), Value::Null]),
            "length is folded in"
        );
    }

    #[test]
    fn consistent_with_structural_value_eq() {
        // Float normalization: -0.0 and 0.0 are equal, so must hash equal.
        assert_eq!(
            hash_values(&[Value::Float(0.0)]),
            hash_values(&[Value::Float(-0.0)])
        );
        assert_eq!(
            hash_values(&[Value::Float(f64::NAN)]),
            hash_values(&[Value::Float(f64::NAN)])
        );
        // Int(1) == Float(1.0) (numeric coercion for integral floats),
        // so the two must hash identically or hash-join/aggregate key
        // lookups drop matches that `Value::cmp` and SQL `=` accept.
        assert_eq!(
            hash_values(&[Value::Int(1)]),
            hash_values(&[Value::Float(1.0)])
        );
        // Non-integral floats are never Eq to an Int; their hash is free
        // to differ (and does, via the float-bits key).
        assert_ne!(
            hash_values(&[Value::Int(1)]),
            hash_values(&[Value::Float(1.5)])
        );
    }

    #[test]
    fn fx_map_and_set_work() {
        let mut m: FxHashMap<Vec<Value>, usize> = FxHashMap::default();
        m.insert(vec![Value::Int(1)], 10);
        m.insert(vec![Value::text("x")], 20);
        assert_eq!(m.get(&vec![Value::Int(1)]), Some(&10));
        let mut s: FxHashSet<i64> = FxHashSet::default();
        assert!(s.insert(5));
        assert!(!s.insert(5));
    }

    #[test]
    fn hasher_handles_all_write_widths() {
        let mut h = FxHasher::default();
        h.write_u8(1);
        h.write_u16(2);
        h.write_u32(3);
        h.write_u64(4);
        h.write_usize(5);
        h.write(b"hello world, unaligned tail");
        assert_ne!(h.finish(), 0);
    }

    #[test]
    fn text_hashing_spreads() {
        // Sanity: a few thousand distinct keys produce (nearly) as many
        // distinct hashes — catches degenerate mixing.
        let mut seen = FxHashSet::default();
        for i in 0..4096i64 {
            seen.insert(hash_values(&[Value::Int(i), Value::text(format!("k{i}"))]));
        }
        assert!(seen.len() > 4000, "got {} distinct hashes", seen.len());
    }
}
