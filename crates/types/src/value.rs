use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::{DataType, Error, Result};

/// SQL three-valued logic.
///
/// Predicates over values containing `NULL` evaluate to [`Truth::Unknown`];
/// a `WHERE` clause keeps a tuple only when its predicate is
/// [`Truth::True`]. Bypass operators (Fig. 1 of the paper) route `False`
/// *and* `Unknown` tuples into the negative stream, which is exactly the
/// complement semantics `σ⁻` requires under two-valued interpretation of
/// the final result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Truth {
    True,
    False,
    Unknown,
}

impl Truth {
    /// Kleene conjunction.
    pub fn and(self, other: Truth) -> Truth {
        use Truth::*;
        match (self, other) {
            (False, _) | (_, False) => False,
            (True, True) => True,
            _ => Unknown,
        }
    }

    /// Kleene disjunction.
    pub fn or(self, other: Truth) -> Truth {
        use Truth::*;
        match (self, other) {
            (True, _) | (_, True) => True,
            (False, False) => False,
            _ => Unknown,
        }
    }

    /// Kleene negation.
    #[allow(clippy::should_implement_trait)] // 3VL negation, not ops::Not
    pub fn not(self) -> Truth {
        match self {
            Truth::True => Truth::False,
            Truth::False => Truth::True,
            Truth::Unknown => Truth::Unknown,
        }
    }

    /// `TRUE` → keep the tuple; `FALSE`/`UNKNOWN` → drop it.
    pub fn is_true(self) -> bool {
        self == Truth::True
    }

    pub fn from_bool(b: bool) -> Truth {
        if b {
            Truth::True
        } else {
            Truth::False
        }
    }

    /// Convert to a nullable boolean [`Value`].
    pub fn to_value(self) -> Value {
        match self {
            Truth::True => Value::Bool(true),
            Truth::False => Value::Bool(false),
            Truth::Unknown => Value::Null,
        }
    }
}

/// A dynamically typed SQL value.
///
/// # Equality, ordering and hashing
///
/// `Value` implements a total `Eq`/`Ord`/`Hash` so it can serve as a
/// grouping or join key: `Null == Null`, floats compare by normalized
/// bits (all NaNs are one value, `-0.0 == 0.0`), and numbers compare
/// **across** the two numeric types — `Int(1) == Float(1.0)`, and the
/// two hash alike (an exactly integral float hashes as its integer).
/// Numeric keys therefore need no coercion to a common type before
/// hashing: an `AVG` joined back against an INT key, or a typed `i64`
/// column probed with a float, meet in one equivalence class. What
/// differs from SQL comparison is NULL and NaN only: [`Value::sql_eq`] /
/// [`Value::sql_cmp`] make `NULL = NULL` and anything against NaN
/// `UNKNOWN`, where key equality makes them equal to themselves.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Int(i64),
    Float(f64),
    Text(Arc<str>),
    Bool(bool),
}

impl Value {
    /// Convenience constructor for strings.
    pub fn text(s: impl AsRef<str>) -> Value {
        Value::Text(Arc::from(s.as_ref()))
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The runtime type of the value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Unknown,
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Text(_) => DataType::Text,
            Value::Bool(_) => DataType::Bool,
        }
    }

    /// Numeric view used by arithmetic and numeric comparisons.
    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// SQL equality under three-valued logic.
    pub fn sql_eq(&self, other: &Value) -> Truth {
        match self.sql_cmp(other) {
            None => Truth::Unknown,
            Some(ord) => Truth::from_bool(ord == Ordering::Equal),
        }
    }

    /// SQL comparison under three-valued logic. Returns `None` when either
    /// side is `NULL` (→ `UNKNOWN`) or the types are incomparable. An
    /// `Int` and a `Float` compare as the numbers they are, exactly: equal
    /// just when `Eq` says so, as a hash join and Γ match them.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => a.partial_cmp(b),
            (Int(a), Float(b)) => int_float_cmp(*a, *b),
            (Float(a), Int(b)) => int_float_cmp(*b, *a).map(Ordering::reverse),
            (Text(a), Text(b)) => Some(a.as_ref().cmp(b.as_ref())),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// `self + other` with NULL propagation and numeric widening.
    pub fn add(&self, other: &Value) -> Result<Value> {
        self.numeric_binop(other, "+", |a, b| a.checked_add(b), |a, b| a + b)
    }

    /// `self - other`.
    pub fn sub(&self, other: &Value) -> Result<Value> {
        self.numeric_binop(other, "-", |a, b| a.checked_sub(b), |a, b| a - b)
    }

    /// `self * other`.
    pub fn mul(&self, other: &Value) -> Result<Value> {
        self.numeric_binop(other, "*", |a, b| a.checked_mul(b), |a, b| a * b)
    }

    /// `self / other`. Integer division by zero is an execution error;
    /// float division follows IEEE.
    pub fn div(&self, other: &Value) -> Result<Value> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => Ok(Null),
            (Int(_), Int(0)) => Err(Error::execution("integer division by zero")),
            (Int(a), Int(b)) => Ok(Int(a / b)),
            (a, b) => {
                let (x, y) = (
                    a.as_f64().ok_or_else(|| type_mismatch("/", a, b))?,
                    b.as_f64().ok_or_else(|| type_mismatch("/", a, b))?,
                );
                Ok(Float(x / y))
            }
        }
    }

    /// Unary minus.
    pub fn neg(&self) -> Result<Value> {
        match self {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            v => Err(Error::type_err(format!("cannot negate {}", v.data_type()))),
        }
    }

    fn numeric_binop(
        &self,
        other: &Value,
        op: &str,
        int_op: impl Fn(i64, i64) -> Option<i64>,
        float_op: impl Fn(f64, f64) -> f64,
    ) -> Result<Value> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => Ok(Null),
            (Int(a), Int(b)) => int_op(*a, *b)
                .map(Int)
                .ok_or_else(|| Error::execution(format!("integer overflow in {a} {op} {b}"))),
            (a, b) => {
                let x = a.as_f64().ok_or_else(|| type_mismatch(op, a, b))?;
                let y = b.as_f64().ok_or_else(|| type_mismatch(op, a, b))?;
                Ok(Float(float_op(x, y)))
            }
        }
    }

    /// SQL `LIKE` with `%` (any sequence) and `_` (any single char).
    /// `NULL LIKE p` and `v LIKE NULL` are `UNKNOWN`.
    pub fn sql_like(&self, pattern: &Value) -> Result<Truth> {
        match (self, pattern) {
            (Value::Null, _) | (_, Value::Null) => Ok(Truth::Unknown),
            (Value::Text(s), Value::Text(p)) => Ok(Truth::from_bool(like_match(s, p))),
            (a, b) => Err(Error::type_err(format!(
                "LIKE requires TEXT operands, got {} LIKE {}",
                a.data_type(),
                b.data_type()
            ))),
        }
    }

    /// Normalized float bits: all NaNs collapse, `-0.0` becomes `0.0`.
    pub(crate) fn float_key(f: f64) -> u64 {
        if f.is_nan() {
            f64::NAN.to_bits()
        } else if f == 0.0 {
            0f64.to_bits()
        } else {
            f.to_bits()
        }
    }

    /// The exact `i64` a float represents, if any: integral, in range,
    /// and round-tripping without precision loss. The shared definition
    /// behind numeric `Eq`/`Hash` — `Float(1.0)` and `Int(1)` must be
    /// one equivalence class (and hash identically) or hash joins and
    /// grouping disagree with SQL `=` and with [`Ord`], which already
    /// compares `Int`/`Float` numerically. (`AVG` of an INT column is a
    /// float; joining it back against an INT key is exactly the shape
    /// Eqv. 1 produces.)
    pub(crate) fn float_as_i64(f: f64) -> Option<i64> {
        // `i64::MAX as f64` rounds up to 2^63, which is *not* a valid
        // i64 — exclude it with a strict bound; `i64::MIN as f64` is
        // exact. Non-finite and fractional floats fall out via `fract`.
        if f.fract() == 0.0 && f >= i64::MIN as f64 && f < i64::MAX as f64 {
            Some(f as i64)
        } else {
            None
        }
    }
}

/// How `a` compares with `b`, exactly — not through `a as f64`, which
/// rounds integers past 2⁵³; `None` for a NaN. A float at or past ±2⁶³
/// lies beyond every i64; any other's integral part is one.
fn int_float_cmp(a: i64, b: f64) -> Option<Ordering> {
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    match b {
        _ if b.is_nan() => None,
        _ if b >= TWO_63 => Some(Ordering::Less),
        _ if b < -TWO_63 => Some(Ordering::Greater),
        _ => Some(
            a.cmp(&(b.trunc() as i64))
                .then(0.0.partial_cmp(&b.fract())?),
        ),
    }
}

/// Glob-style matcher for SQL LIKE. Iterative two-pointer algorithm with
/// `%` backtracking — O(|s|·|p|) worst case, linear in practice.
fn like_match(s: &str, p: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = p.chars().collect();
    let (mut si, mut pi) = (0usize, 0usize);
    let (mut star, mut star_s) = (None::<usize>, 0usize);
    while si < s.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star = Some(pi);
            star_s = si;
            pi += 1;
        } else if let Some(sp) = star {
            // Backtrack: let the last `%` absorb one more character.
            pi = sp + 1;
            star_s += 1;
            si = star_s;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

fn type_mismatch(op: &str, a: &Value, b: &Value) -> Error {
    Error::type_err(format!(
        "cannot apply `{op}` to {} and {}",
        a.data_type(),
        b.data_type()
    ))
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => Value::float_key(*a) == Value::float_key(*b),
            // Cross-type numeric equality, consistent with `Ord` (which
            // compares Int/Float as numbers) and with the SQL `=` the
            // evaluator implements: `Int(1) == Float(1.0)`.
            (Int(a), Float(b)) | (Float(b), Int(a)) => Value::float_as_i64(*b) == Some(*a),
            (Text(a), Text(b)) => a == b,
            (Bool(a), Bool(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        use Value::*;
        // Explicit type tags (matching the `Ord` ranks) instead of
        // `mem::discriminant`: Int and Float share the numeric tag so
        // equal cross-type numerics hash identically — the invariant
        // the join hash table and the grouping operator rely on.
        match self {
            Null => state.write_u8(0),
            Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            Int(i) => {
                state.write_u8(2);
                i.hash(state);
            }
            Float(f) => {
                state.write_u8(2);
                // An exactly-integral float hashes as its integer; the
                // normalized bit pattern cannot be mistaken for one
                // because `Eq` always re-checks the payload.
                match Value::float_as_i64(*f) {
                    Some(i) => i.hash(state),
                    None => Value::float_key(*f).hash(state),
                }
            }
            Text(s) => {
                state.write_u8(3);
                s.hash(state);
            }
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Structural total order used for deterministic sorting of heterogeneous
/// values: `Null` first, then `Bool < Int/Float (numeric) < Text`.
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Float(_) => 2,
                Text(_) => 3,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Text(a), Text(b)) => a.as_ref().cmp(b.as_ref()),
            (a, b) if rank(a) == 2 && rank(b) == 2 => {
                // NaN sorts above every other number, deterministically.
                let nan = |v: &Value| matches!(v, Float(f) if f.is_nan());
                a.sql_cmp(b).unwrap_or_else(|| nan(a).cmp(&nan(b)))
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Text(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{}", if *b { "true" } else { "false" }),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::text(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(Arc::from(v.as_str()))
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Truth::*;

    #[test]
    fn kleene_truth_tables() {
        // AND
        assert_eq!(True.and(True), True);
        assert_eq!(True.and(False), False);
        assert_eq!(True.and(Unknown), Unknown);
        assert_eq!(False.and(Unknown), False);
        assert_eq!(Unknown.and(Unknown), Unknown);
        // OR
        assert_eq!(False.or(False), False);
        assert_eq!(False.or(True), True);
        assert_eq!(Unknown.or(True), True);
        assert_eq!(Unknown.or(False), Unknown);
        assert_eq!(Unknown.or(Unknown), Unknown);
        // NOT
        assert_eq!(True.not(), False);
        assert_eq!(False.not(), True);
        assert_eq!(Unknown.not(), Unknown);
    }

    #[test]
    fn sql_eq_with_null_is_unknown() {
        assert_eq!(Value::Null.sql_eq(&Value::Null), Unknown);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), Unknown);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), True);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(2)), False);
    }

    #[test]
    fn sql_cmp_coerces_numerics() {
        assert_eq!(
            Value::Int(1).sql_cmp(&Value::Float(1.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Float(0.5).sql_cmp(&Value::Int(1)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn int_float_comparison_is_exact_and_agrees_with_eq() {
        let big = 9_007_199_254_740_993i64; // 2⁵³ + 1: no f64 holds it
        let cases = [
            (big, big as f64, Some(Ordering::Greater)),
            (big - 1, (big - 1) as f64, Some(Ordering::Equal)),
            (i64::MAX, i64::MAX as f64, Some(Ordering::Less)),
            (i64::MIN, i64::MIN as f64, Some(Ordering::Equal)),
            (i64::MIN, -1e19, Some(Ordering::Greater)),
            (-1, -1.5, Some(Ordering::Greater)),
            (-2, -1.5, Some(Ordering::Less)),
            (1, 1.5, Some(Ordering::Less)),
            (0, -0.0, Some(Ordering::Equal)),
            (7, f64::INFINITY, Some(Ordering::Less)),
            (7, f64::NEG_INFINITY, Some(Ordering::Greater)),
            (7, f64::NAN, None),
        ];
        for (i, f, want) in cases {
            let (int, float) = (Value::Int(i), Value::Float(f));
            assert_eq!(int.sql_cmp(&float), want, "{i} vs {f}");
            assert_eq!(
                float.sql_cmp(&int),
                want.map(Ordering::reverse),
                "{f} vs {i}"
            );
            assert_eq!(int == float, want == Some(Ordering::Equal), "{i} vs {f}");
            let sorted = want.unwrap_or(Ordering::Less);
            assert_eq!(int.cmp(&float), sorted, "sorts as it compares: {i} vs {f}");
        }
    }

    #[test]
    fn structural_eq_coerces_integral_floats_and_groups_nulls() {
        assert_eq!(Value::Null, Value::Null);
        // Integral floats equal their integer counterpart — this keeps
        // hash-join/aggregate key matching consistent with `Value::cmp`
        // and SQL `=` (see `typea_avg_float_int_key` in tests/slt/corpus/).
        assert_eq!(Value::Int(1), Value::Float(1.0));
        assert_eq!(Value::Float(1.0), Value::Int(1));
        assert_ne!(Value::Int(1), Value::Float(1.5));
        assert_ne!(Value::Int(2), Value::Float(1.0));
        // Out-of-range / non-integral floats never equal any Int.
        assert_ne!(Value::Int(i64::MAX), Value::Float(i64::MAX as f64));
        assert_ne!(Value::Int(0), Value::Float(f64::NAN));
        assert_eq!(Value::Float(0.0), Value::Float(-0.0));
        assert_eq!(Value::Int(0), Value::Float(-0.0));
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
        assert_ne!(Value::Int(1), Value::text("1"));
        assert_ne!(Value::Bool(true), Value::Int(1));
    }

    #[test]
    fn hash_consistent_with_eq_for_floats() {
        use std::collections::hash_map::DefaultHasher;
        fn h(v: &Value) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        assert_eq!(h(&Value::Float(0.0)), h(&Value::Float(-0.0)));
        assert_eq!(h(&Value::Float(f64::NAN)), h(&Value::Float(f64::NAN)));
        // Eq coerces integral floats to ints, so Hash must agree.
        assert_eq!(h(&Value::Int(1)), h(&Value::Float(1.0)));
        assert_eq!(h(&Value::Int(0)), h(&Value::Float(-0.0)));
    }

    #[test]
    fn arithmetic_null_propagation_and_overflow() {
        assert_eq!(Value::Null.add(&Value::Int(1)).unwrap(), Value::Null);
        assert_eq!(Value::Int(2).add(&Value::Int(3)).unwrap(), Value::Int(5));
        assert_eq!(
            Value::Int(2).mul(&Value::Float(1.5)).unwrap(),
            Value::Float(3.0)
        );
        assert!(Value::Int(i64::MAX).add(&Value::Int(1)).is_err());
        assert!(Value::Int(1).div(&Value::Int(0)).is_err());
        assert_eq!(
            Value::Int(7).div(&Value::Int(2)).unwrap(),
            Value::Int(3),
            "integer division truncates"
        );
    }

    #[test]
    fn arithmetic_type_errors() {
        assert!(Value::text("a").add(&Value::Int(1)).is_err());
        assert!(Value::Bool(true).neg().is_err());
    }

    #[test]
    fn like_semantics() {
        let t = |s: &str, p: &str| Value::text(s).sql_like(&Value::text(p)).unwrap().is_true();
        assert!(t("PROMO BRASS", "%BRASS"));
        assert!(t("BRASS", "%BRASS"));
        assert!(!t("BRASSY", "%BRASS"));
        assert!(t("abc", "a_c"));
        assert!(!t("abc", "a_d"));
        assert!(t("", "%"));
        assert!(!t("", "_"));
        assert!(t("anything", "%%"));
        assert!(t("a%b", "a%b")); // `%` in pattern is a wildcard, matches literally too
        assert_eq!(
            Value::Null.sql_like(&Value::text("%")).unwrap(),
            Truth::Unknown
        );
        assert!(Value::Int(1).sql_like(&Value::text("%")).is_err());
    }

    #[test]
    fn structural_order_is_total_and_null_first() {
        let mut vs = [
            Value::text("b"),
            Value::Int(3),
            Value::Null,
            Value::Float(2.5),
            Value::Bool(true),
            Value::text("a"),
        ];
        vs.sort();
        assert_eq!(vs[0], Value::Null);
        assert_eq!(vs[1], Value::Bool(true));
        assert_eq!(vs[2], Value::Float(2.5));
        assert_eq!(vs[3], Value::Int(3));
        assert_eq!(vs[4], Value::text("a"));
        assert_eq!(vs[5], Value::text("b"));
    }

    #[test]
    fn display_format() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Float(1.5).to_string(), "1.5");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::text("hi").to_string(), "hi");
        assert_eq!(Value::Bool(false).to_string(), "false");
    }

    #[test]
    fn truth_to_value_roundtrip() {
        assert_eq!(True.to_value(), Value::Bool(true));
        assert_eq!(False.to_value(), Value::Bool(false));
        assert_eq!(Unknown.to_value(), Value::Null);
    }
}
