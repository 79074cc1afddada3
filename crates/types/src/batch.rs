//! Columns: the typed columnar form of a run of rows, and the σ/σ±
//! chunk loop's view of them.
//!
//! A [`Column`] is one field of a run of rows laid out contiguously —
//! as bare `i64`s or `f64`s when every row holds that type, as
//! [`Value`]s otherwise. The catalog builds one lazily per field of a
//! base table (`bypass_catalog::TableColumns`); a [`Batch`] is the set
//! of columns a predicate's kernels read, plus an explicit length (so
//! zero-arity rows keep their count). σ and σ± evaluate those kernels
//! over a *selection vector* of surviving lane indices and hand on the
//! ordinary row-oriented [`Tuple`]s. Columns are read-only copies of
//! what the rows already hold and are deliberately *not* charged to the
//! memory governor.

use std::borrow::Cow;
use std::sync::Arc;

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
        .unwrap_or_else(|| Column::values_from_rows(rows, c))
    }

    /// Column `c` of `rows` as [`Column::Values`], whatever it holds.
    fn values_from_rows(rows: &[Tuple], c: usize) -> Column {
        Column::Values(rows.iter().map(|row| row.values()[c].clone()).collect())
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

/// A columnar batch: `column(c)` is column `c` of the rows it stands
/// for, present only for the columns the batch was built with.
///
/// All present columns have length [`Batch::len`]; the arity may be
/// zero, so the row count is tracked separately.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    columns: Vec<Option<Arc<Column>>>,
    len: usize,
}

impl Batch {
    /// A batch over columns built elsewhere (a base table's): slot `c`
    /// of `columns` is column `c`, each present one `len` rows long.
    pub fn new(columns: Vec<Option<Arc<Column>>>, len: usize) -> Self {
        debug_assert!(columns.iter().flatten().all(|c| c.len() == len));
        Batch { columns, len }
    }

    /// Transpose the named columns of a run of row-oriented tuples
    /// (late materialization) into [`Column::Values`]: columns not
    /// listed in `cols` stay absent. A filter transposes exactly the
    /// columns its kernels read, so unreferenced columns cost nothing.
    /// All rows must share the arity of the first.
    pub fn from_rows_cols(rows: &[Tuple], cols: &[usize]) -> Self {
        // No rows: no lanes can ever be selected, so no column
        // (whatever the caller's arity) needs backing storage.
        let arity = rows.first().map_or(0, Tuple::arity);
        debug_assert!(rows.iter().all(|row| row.arity() == arity), "ragged batch");
        let mut columns = vec![None; arity];
        for &c in cols {
            // `cols` may repeat a column; fill each slot once.
            if arity > 0 && columns[c].is_none() {
                columns[c] = Some(Arc::new(Column::values_from_rows(rows, c)));
            }
        }
        Batch {
            columns,
            len: rows.len(),
        }
    }

    /// Number of rows in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns, present or not.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Column `i`, if the batch was built with it.
    pub fn column(&self, i: usize) -> Option<&Column> {
        self.columns.get(i)?.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(vals: &[i64]) -> Tuple {
        Tuple::new(vals.iter().map(|&v| Value::Int(v)).collect())
    }

    fn values(vals: &[i64]) -> Column {
        Column::Values(vals.iter().map(|&v| Value::Int(v)).collect())
    }

    #[test]
    fn zero_arity_rows_keep_their_count() {
        let batch = Batch::from_rows_cols(&[Tuple::empty(), Tuple::empty()], &[]);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.arity(), 0);
    }

    #[test]
    fn selective_transpose_of_no_rows_is_empty() {
        let batch = Batch::from_rows_cols(&[], &[5]);
        assert!(batch.is_empty());
        assert_eq!(batch.arity(), 0);
    }

    #[test]
    fn selective_transpose_builds_only_named_columns() {
        let rows = vec![row(&[1, 2, 3]), row(&[4, 5, 6])];
        let batch = Batch::from_rows_cols(&rows, &[2]);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.arity(), 3);
        assert_eq!(batch.column(2), Some(&values(&[3, 6])));
        assert!(batch.column(0).is_none());
        assert!(batch.column(1).is_none());
    }

    #[test]
    fn selective_transpose_fills_repeated_columns_once() {
        let rows = vec![row(&[1, 2, 3]), row(&[4, 5, 6])];
        let batch = Batch::from_rows_cols(&rows, &[2, 2, 2, 1]);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.column(2), Some(&values(&[3, 6])));
        assert_eq!(batch.column(1), Some(&values(&[2, 5])));
    }

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
