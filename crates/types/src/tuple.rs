use std::fmt;
use std::ops::Index;
use std::sync::Arc;

use crate::Value;

/// A row of values backed by a shared, immutable buffer.
///
/// Tuples are positional; names live in the accompanying [`crate::Schema`].
/// Concatenation (`◦` in the paper's notation) is the building block of
/// joins and the map operator χ.
///
/// # Zero-clone representation
///
/// The value buffer is an `Arc<[Value]>`, so [`Tuple::clone`] is a
/// refcount bump — **not** a deep copy. This is what lets σ, Π-identity,
/// ⋈ probe passthrough, ∪̇ and the bypass operators' dual-stream
/// splitting move rows between operators (and into *both* bypass
/// streams) without cloning a single [`Value`]. Rows are immutable once
/// built; "modifying" operators ([`Tuple::concat`], [`Tuple::extended`],
/// [`Tuple::project`]) construct fresh buffers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tuple {
    values: Arc<[Value]>,
}

impl Default for Tuple {
    fn default() -> Self {
        Tuple::empty()
    }
}

impl Tuple {
    pub fn new(values: Vec<Value>) -> Self {
        Tuple {
            values: values.into(),
        }
    }

    /// `a ◦ b` over borrowed value slices, cloned straight into the
    /// shared buffer — one allocation (a join pair that survived).
    pub fn from_pair(a: &[Value], b: &[Value]) -> Self {
        a.iter().chain(b.iter()).cloned().collect()
    }

    pub fn empty() -> Self {
        // `Arc::from([])` allocates a header only; cheap enough that a
        // shared static is not worth the OnceLock.
        Tuple {
            values: Arc::from(Vec::new()),
        }
    }

    pub fn arity(&self) -> usize {
        self.values.len()
    }

    pub fn values(&self) -> &[Value] {
        &self.values
    }

    pub fn into_values(self) -> Vec<Value> {
        self.values.to_vec()
    }

    pub fn get(&self, i: usize) -> Option<&Value> {
        self.values.get(i)
    }

    /// Tuple concatenation `self ◦ other`.
    pub fn concat(&self, other: &Tuple) -> Tuple {
        Tuple::from_pair(&self.values, &other.values)
    }

    /// Append a single value (the χ / ν operators extend tuples by one).
    pub fn extended(&self, v: Value) -> Tuple {
        self.values
            .iter()
            .cloned()
            .chain(std::iter::once(v))
            .collect()
    }

    /// Keep only the columns at `indices`, in that order (projection Π).
    pub fn project(&self, indices: &[usize]) -> Tuple {
        indices.iter().map(|&i| self.values[i].clone()).collect()
    }

    /// Extract a (cloneable) key for hashing/grouping from `indices`.
    pub fn key(&self, indices: &[usize]) -> Vec<Value> {
        indices.iter().map(|&i| self.values[i].clone()).collect()
    }

    /// Extract a key as a shared-buffer [`Tuple`] (memo keys keep the
    /// refcounted representation instead of a fresh `Vec`).
    pub fn key_tuple(&self, indices: &[usize]) -> Tuple {
        self.project(indices)
    }

    /// Does this tuple share its buffer with `other`? (Diagnostic for
    /// zero-clone tests.)
    pub fn shares_buffer(&self, other: &Tuple) -> bool {
        Arc::ptr_eq(&self.values, &other.values)
    }
}

impl Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        &self.values[i]
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

/// Exact-size iterators (slices, `chain`, `map`, `once`, `drain`) fill
/// the shared buffer directly: one allocation per row.
impl FromIterator<Value> for Tuple {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Tuple {
            values: iter.into_iter().collect(),
        }
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vs: &[i64]) -> Tuple {
        vs.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn concat_preserves_order() {
        let a = t(&[1, 2]);
        let b = t(&[3]);
        assert_eq!(a.concat(&b), t(&[1, 2, 3]));
        assert_eq!(b.concat(&a), t(&[3, 1, 2]));
        assert_eq!(a.concat(&Tuple::empty()), a);
    }

    #[test]
    fn project_reorders_and_duplicates() {
        let a = t(&[10, 20, 30]);
        assert_eq!(a.project(&[2, 0]), t(&[30, 10]));
        assert_eq!(a.project(&[1, 1]), t(&[20, 20]));
        assert_eq!(a.project(&[]), Tuple::empty());
    }

    #[test]
    fn extended_appends() {
        let a = t(&[1]);
        assert_eq!(a.extended(Value::Int(9)), t(&[1, 9]));
        assert_eq!(a.arity(), 1, "extended does not mutate");
    }

    #[test]
    fn key_extracts_values() {
        let a = t(&[7, 8, 9]);
        assert_eq!(a.key(&[1, 2]), vec![Value::Int(8), Value::Int(9)]);
        assert_eq!(a.key_tuple(&[1, 2]), t(&[8, 9]));
    }

    #[test]
    fn clone_is_shallow() {
        let a = t(&[1, 2, 3]);
        let b = a.clone();
        assert!(a.shares_buffer(&b), "clone must share the row buffer");
        let c = t(&[1, 2, 3]);
        assert!(!a.shares_buffer(&c), "independent construction allocates");
        assert_eq!(a, c, "equality is structural, not pointer-based");
    }

    #[test]
    fn into_values_roundtrip() {
        let a = t(&[4, 5]);
        assert_eq!(a.clone().into_values(), vec![Value::Int(4), Value::Int(5)]);
    }

    #[test]
    fn display() {
        assert_eq!(t(&[1, 2]).to_string(), "(1, 2)");
        assert_eq!(Tuple::empty().to_string(), "()");
    }
}
