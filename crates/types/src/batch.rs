//! Columns: the typed columnar form of a run of rows.
//!
//! A [`Column`] is one field of a run of rows laid out contiguously —
//! as bare `i64`s or `f64`s when every row holds that type, as
//! [`Value`]s otherwise. `bypass_catalog::TableColumns` builds one
//! lazily per field of whatever relation a loop reads — a base table's,
//! kept with the table, or an intermediate one's, dropped with the loop.
//! σ and σ± evaluate their kernels over those columns and a *selection
//! vector* of surviving lane indices and hand on the ordinary
//! row-oriented [`Tuple`]s; the hash loops hash and compare keys off
//! them. Columns are read-only copies of what the rows already hold and
//! are deliberately *not* charged to the memory governor.

use std::borrow::Cow;

use crate::tuple::Tuple;
use crate::value::Value;

/// Default chunk length of the σ/σ±/column-Π loops
/// (`ExecOptions::batch_rows`).
pub const BATCH_ROWS: usize = 256;

/// One column of a run of rows, `column[r]` being that column of row
/// `r`.
///
/// The typed forms hold what the rows hold and nothing else: a column
/// with a NULL, text, a boolean, or `Int` beside `Float` stays
/// [`Column::Values`], so reading slot `r` back always yields a value
/// equal — and of the same variant — to the row's.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    Int(Box<[i64]>),
    Float(Box<[f64]>),
    Values(Box<[Value]>),
}

impl Column {
    /// Column `c` of `rows`, typed if every row agrees on `Int` or on
    /// `Float`. All rows must have more than `c` columns.
    pub fn from_rows(rows: &[Tuple], c: usize) -> Column {
        let cells = || rows.iter().map(|row| &row.values()[c]);
        match rows.first().map(|row| &row.values()[c]) {
            Some(Value::Int(_)) => cells()
                .map(|v| match v {
                    Value::Int(i) => Some(*i),
                    _ => None,
                })
                .collect::<Option<_>>()
                .map(Column::Int),
            Some(Value::Float(_)) => cells()
                .map(|v| match v {
                    Value::Float(x) => Some(*x),
                    _ => None,
                })
                .collect::<Option<_>>()
                .map(Column::Float),
            _ => None,
        }
        .unwrap_or_else(|| Column::Values(cells().cloned().collect()))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(xs) => xs.len(),
            Column::Float(xs) => xs.len(),
            Column::Values(xs) => xs.len(),
        }
    }

    /// `true` when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slot `r`: borrowed from a [`Column::Values`], built from a typed
    /// slot. Panics when `r` is out of range, as slice indexing does.
    #[inline]
    pub fn get(&self, r: usize) -> Cow<'_, Value> {
        match self {
            Column::Int(xs) => Cow::Owned(Value::Int(xs[r])),
            Column::Float(xs) => Cow::Owned(Value::Float(xs[r])),
            Column::Values(xs) => Cow::Borrowed(&xs[r]),
        }
    }

    /// `f` of slot `r` without the `Cow`: the stored value, or a typed
    /// slot as a stack temporary — so hashing or comparing a slot through
    /// `f` is [`Value`]'s own `Hash` or `Eq` on the value [`Self::get`]
    /// returns. Panics when `r` is out of range.
    #[inline(always)]
    pub fn with_slot<T>(&self, r: usize, f: impl FnOnce(&Value) -> T) -> T {
        match self {
            Column::Int(xs) => f(&Value::Int(xs[r])),
            Column::Float(xs) => f(&Value::Float(xs[r])),
            Column::Values(xs) => f(&xs[r]),
        }
    }

    /// Bytes of the column's own slots (text a [`Column::Values`] slot
    /// points at is shared with the row it was copied from).
    pub fn bytes(&self) -> u64 {
        let slot = match self {
            Column::Int(_) => std::mem::size_of::<i64>(),
            Column::Float(_) => std::mem::size_of::<f64>(),
            Column::Values(_) => std::mem::size_of::<Value>(),
        };
        (slot * self.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_column_is_typed_only_when_every_row_agrees() {
        let col = |vals: Vec<Value>| {
            let rows: Vec<Tuple> = vals.into_iter().map(|v| Tuple::new(vec![v])).collect();
            Column::from_rows(&rows, 0)
        };
        assert_eq!(
            col(vec![Value::Int(1), Value::Int(-2)]),
            Column::Int([1, -2].into())
        );
        let floats = col(vec![Value::Float(-0.0), Value::Float(f64::NAN)]);
        let Column::Float(xs) = &floats else {
            panic!("all-Float column must be typed: {floats:?}")
        };
        assert!(xs[0] == 0.0 && xs[0].is_sign_negative() && xs[1].is_nan());
        assert_eq!(floats.bytes(), 16);
        for mixed in [
            vec![Value::Int(1), Value::Float(1.0)],
            vec![Value::Float(1.0), Value::Int(1)],
            vec![Value::Int(1), Value::Null],
            vec![Value::Null, Value::Int(1)],
            vec![Value::text("a"), Value::text("b")],
            vec![Value::Bool(true)],
        ] {
            let column = col(mixed.clone());
            assert_eq!(column, Column::Values(mixed.clone().into()), "{mixed:?}");
            assert_eq!(column.get(0).as_ref(), &mixed[0]);
        }
        assert_eq!(col(vec![]), Column::Values(Box::new([])));
        assert_eq!(col(vec![Value::Int(7)]).get(0).as_ref(), &Value::Int(7));
    }
}
