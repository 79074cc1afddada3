use std::fmt;

/// The SQL type system of the engine.
///
/// The paper's queries only need integers, decimals and strings; booleans
/// appear as predicate results. `Unknown` is the type of an untyped NULL
/// literal and unifies with every other type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 float (stands in for SQL DECIMAL in this engine).
    Float,
    /// UTF-8 string.
    Text,
    /// Boolean.
    Bool,
    /// Type of a bare NULL literal; coerces to anything.
    Unknown,
}

impl DataType {
    /// Whether a value of `self` can be compared with / assigned to `other`
    /// without an explicit cast. `Int` and `Float` are mutually coercible
    /// (numeric), and `Unknown` unifies with everything.
    pub fn is_compatible_with(self, other: DataType) -> bool {
        use DataType::*;
        match (self, other) {
            (Unknown, _) | (_, Unknown) => true,
            (Int, Float) | (Float, Int) => true,
            (a, b) => a == b,
        }
    }

    /// The unified type of two compatible types (numeric widening).
    /// Returns `None` when the types are incompatible.
    pub fn unify(self, other: DataType) -> Option<DataType> {
        use DataType::*;
        match (self, other) {
            (Unknown, t) | (t, Unknown) => Some(t),
            (Int, Float) | (Float, Int) => Some(Float),
            (a, b) if a == b => Some(a),
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
            DataType::Bool => "BOOL",
            DataType::Unknown => "UNKNOWN",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::DataType::*;

    #[test]
    fn numeric_types_are_compatible() {
        assert!(Int.is_compatible_with(Float));
        assert!(Float.is_compatible_with(Int));
        assert!(Int.is_compatible_with(Int));
        assert!(!Int.is_compatible_with(Text));
        assert!(!Bool.is_compatible_with(Text));
    }

    #[test]
    fn unknown_unifies_with_everything() {
        for t in [Int, Float, Text, Bool, Unknown] {
            assert!(Unknown.is_compatible_with(t));
            assert_eq!(Unknown.unify(t), Some(t));
            assert_eq!(t.unify(Unknown), Some(t));
        }
    }

    #[test]
    fn unify_widens_numerics() {
        assert_eq!(Int.unify(Float), Some(Float));
        assert_eq!(Float.unify(Int), Some(Float));
        assert_eq!(Int.unify(Int), Some(Int));
        assert_eq!(Text.unify(Int), None);
    }

    #[test]
    fn display_names() {
        assert_eq!(Int.to_string(), "INT");
        assert_eq!(Float.to_string(), "FLOAT");
        assert_eq!(Text.to_string(), "TEXT");
        assert_eq!(Bool.to_string(), "BOOL");
    }
}
