//! Columnar scratch for the σ/σ± chunk loop.
//!
//! A [`Batch`] is a columnar view of a run of rows: one `Vec<Value>`
//! per transposed column plus an explicit length (so zero-arity rows
//! keep their count). σ and σ± transpose the columns their predicate
//! kernels read, evaluate those kernels over a *selection vector* of
//! surviving lane indices, and hand on the ordinary row-oriented
//! [`Tuple`]s. Batches are scratch space and are deliberately *not*
//! charged to the memory governor.

use crate::tuple::Tuple;
use crate::value::Value;

/// Default chunk length of the σ/σ±/column-Π loops
/// (`ExecOptions::batch_rows`).
pub const BATCH_ROWS: usize = 256;

/// A columnar batch: `columns[c][r]` is column `c` of row `r`.
///
/// All columns have length [`Batch::len`]; the arity may be zero, so
/// the row count is tracked separately.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    columns: Vec<Vec<Value>>,
    len: usize,
}

impl Batch {
    /// Transpose the named columns of a run of row-oriented tuples
    /// (late materialization): columns not listed in `cols` stay empty
    /// and must not be indexed. A filter transposes exactly the columns
    /// its kernels read, so unreferenced columns cost nothing. All rows
    /// must share the arity of the first.
    pub fn from_rows_cols(rows: &[Tuple], cols: &[usize]) -> Self {
        let Some(first) = rows.first() else {
            // No rows: no lanes can ever be selected, so no column
            // (whatever the caller's arity) needs backing storage.
            return Batch {
                columns: Vec::new(),
                len: 0,
            };
        };
        let arity = first.arity();
        let mut columns: Vec<Vec<Value>> = (0..arity).map(|_| Vec::new()).collect();
        for &c in cols {
            // `cols` may repeat a column; fill each backing vector once.
            if !columns[c].is_empty() {
                continue;
            }
            columns[c].reserve_exact(rows.len());
            for row in rows {
                let values = row.values();
                debug_assert_eq!(values.len(), arity, "ragged batch");
                columns[c].push(values[c].clone());
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

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Borrow column `i` as a contiguous value vector.
    pub fn column(&self, i: usize) -> &[Value] {
        &self.columns[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(vals: &[i64]) -> Tuple {
        Tuple::new(vals.iter().map(|&v| Value::Int(v)).collect())
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
        assert_eq!(batch.column(2), &[Value::Int(3), Value::Int(6)]);
        assert!(batch.column(0).is_empty());
        assert!(batch.column(1).is_empty());
    }

    #[test]
    fn selective_transpose_fills_repeated_columns_once() {
        let rows = vec![row(&[1, 2, 3]), row(&[4, 5, 6])];
        let batch = Batch::from_rows_cols(&rows, &[2, 2, 2, 1]);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.column(2), &[Value::Int(3), Value::Int(6)]);
        assert_eq!(batch.column(1), &[Value::Int(2), Value::Int(5)]);
    }
}
