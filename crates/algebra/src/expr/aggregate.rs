use std::fmt;

use bypass_types::{DataType, Schema, Value};

use super::scalar::{BinOp, ColumnRef, Scalar};

/// The aggregate functions of the paper (Section 3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        };
        f.write_str(s)
    }
}

/// An aggregate function call `f([DISTINCT] arg)`. `arg == None` means
/// `*` (whole tuples), as in `COUNT(*)` / `COUNT(DISTINCT *)`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    pub func: AggFunc,
    pub distinct: bool,
    pub arg: Option<Box<Scalar>>,
}

impl AggCall {
    pub fn new(func: AggFunc, distinct: bool, arg: Option<Scalar>) -> AggCall {
        AggCall {
            func,
            distinct,
            arg: arg.map(Box::new),
        }
    }

    pub fn count_star() -> AggCall {
        AggCall::new(AggFunc::Count, false, None)
    }

    pub fn count_distinct_star() -> AggCall {
        AggCall::new(AggFunc::Count, true, None)
    }

    /// Is this aggregate *decomposable* in the sense of Section 3.3
    /// (Cluet & Moerkotte)? `f(X) = f_O(f_I(Y), f_I(Z))` for any disjoint
    /// partition `X = Y ∪̇ Z`.
    ///
    /// Footnote 1 of the paper: the DISTINCT versions of COUNT, SUM and
    /// AVG are **not** decomposable (a value may occur in both partitions
    /// and must not be double-counted). MIN/MAX are insensitive to
    /// duplicates, so their DISTINCT variants remain decomposable.
    ///
    /// Over a partition that keeps every class of values DISTINCT treats
    /// as one inside one part, DISTINCT COUNT/SUM/AVG decompose too. The
    /// unnesting crate's Eqv. 4 takes them when its bypass selection
    /// splits that way (`keeps_distinct_classes` in `bypass_unnest`),
    /// which it can check only for `*` or a bare column argument
    /// ([`Self::arg_column`]).
    pub fn is_decomposable(&self) -> bool {
        match self.func {
            AggFunc::Min | AggFunc::Max => true,
            AggFunc::Count | AggFunc::Sum | AggFunc::Avg => !self.distinct,
        }
    }

    /// The argument, when it is one bare column: the column whose values
    /// make up the classes a DISTINCT call counts once. `None` for `*`
    /// (the classes are whole rows) and for a computed argument.
    pub fn arg_column(&self) -> Option<&ColumnRef> {
        match self.arg.as_deref() {
            Some(Scalar::Column(c)) => Some(c),
            _ => None,
        }
    }

    /// `f(∅)` — the default value the outerjoin assigns to empty groups
    /// (the "count bug" fix). COUNT over nothing is 0; every other
    /// aggregate over nothing is NULL (SQL semantics).
    pub fn empty_value(&self) -> Value {
        match self.func {
            AggFunc::Count => Value::Int(0),
            _ => Value::Null,
        }
    }

    /// The combining operator `f_O` for a decomposable aggregate, as a
    /// binary [`Scalar`] operator over two partial results.
    ///
    /// * `count`: plain `+` (partials are never NULL),
    /// * `sum`: NULL-safe `+` (the partial over an empty partition is NULL),
    /// * `min` / `max`: NULL-ignoring least/greatest,
    /// * `avg`: not expressible as a single binary op — AVG decomposes
    ///   into (SUM, COUNT) pairs; see `decompose_avg` in the unnest crate.
    pub fn combine_op(&self) -> Option<BinOp> {
        match self.func {
            AggFunc::Count => Some(BinOp::Add),
            AggFunc::Sum => Some(BinOp::NullSafeAdd),
            AggFunc::Min => Some(BinOp::Least),
            AggFunc::Max => Some(BinOp::Greatest),
            AggFunc::Avg => None,
        }
    }

    /// Output type of the aggregate when its input rows have `schema`.
    pub fn data_type(&self, schema: &Schema) -> DataType {
        match self.func {
            AggFunc::Count => DataType::Int,
            AggFunc::Avg => DataType::Float,
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => self
                .arg
                .as_ref()
                .map(|a| a.data_type(schema))
                .unwrap_or(DataType::Unknown),
        }
    }
}

impl fmt::Display for AggCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.func)?;
        if self.distinct {
            f.write_str("distinct ")?;
        }
        match &self.arg {
            Some(a) => write!(f, "{a}")?,
            None => f.write_str("*")?,
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bypass_types::Field;

    #[test]
    fn decomposability_matches_paper_footnote() {
        // Plain versions: all decomposable.
        for f in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ] {
            assert!(AggCall::new(f, false, Some(Scalar::col("x"))).is_decomposable());
        }
        // DISTINCT count/sum/avg: not decomposable.
        for f in [AggFunc::Count, AggFunc::Sum, AggFunc::Avg] {
            assert!(!AggCall::new(f, true, Some(Scalar::col("x"))).is_decomposable());
        }
        // DISTINCT min/max: still decomposable.
        assert!(AggCall::new(AggFunc::Min, true, Some(Scalar::col("x"))).is_decomposable());
        assert!(AggCall::new(AggFunc::Max, true, Some(Scalar::col("x"))).is_decomposable());
    }

    #[test]
    fn arg_column_is_a_bare_column_only() {
        let col = AggCall::new(AggFunc::Sum, true, Some(Scalar::qcol("s", "b1")));
        assert_eq!(col.arg_column().map(|c| c.name.as_str()), Some("b1"));
        assert!(AggCall::count_distinct_star().arg_column().is_none());
        let computed = Scalar::binary(BinOp::Add, Scalar::col("b1"), Scalar::lit(1i64));
        assert!(AggCall::new(AggFunc::Sum, true, Some(computed))
            .arg_column()
            .is_none());
    }

    #[test]
    fn empty_values() {
        assert_eq!(AggCall::count_star().empty_value(), Value::Int(0));
        assert_eq!(
            AggCall::new(AggFunc::Sum, false, Some(Scalar::col("x"))).empty_value(),
            Value::Null
        );
        assert_eq!(
            AggCall::new(AggFunc::Min, false, Some(Scalar::col("x"))).empty_value(),
            Value::Null
        );
    }

    #[test]
    fn combine_ops() {
        assert_eq!(AggCall::count_star().combine_op(), Some(BinOp::Add));
        assert_eq!(
            AggCall::new(AggFunc::Sum, false, Some(Scalar::col("x"))).combine_op(),
            Some(BinOp::NullSafeAdd)
        );
        assert_eq!(
            AggCall::new(AggFunc::Min, false, Some(Scalar::col("x"))).combine_op(),
            Some(BinOp::Least)
        );
        assert_eq!(
            AggCall::new(AggFunc::Avg, false, Some(Scalar::col("x"))).combine_op(),
            None
        );
    }

    #[test]
    fn data_types() {
        let s = Schema::new(vec![Field::new("x", DataType::Float)]);
        assert_eq!(AggCall::count_star().data_type(&s), DataType::Int);
        assert_eq!(
            AggCall::new(AggFunc::Sum, false, Some(Scalar::col("x"))).data_type(&s),
            DataType::Float
        );
        assert_eq!(
            AggCall::new(AggFunc::Avg, false, Some(Scalar::col("x"))).data_type(&s),
            DataType::Float
        );
    }

    #[test]
    fn display() {
        assert_eq!(AggCall::count_star().to_string(), "count(*)");
        assert_eq!(
            AggCall::count_distinct_star().to_string(),
            "count(distinct *)"
        );
        assert_eq!(
            AggCall::new(AggFunc::Min, false, Some(Scalar::col("c"))).to_string(),
            "min(c)"
        );
    }
}
