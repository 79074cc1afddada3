use std::sync::{Arc, OnceLock};

use bypass_types::{Column, Relation, Schema, TableStats};

/// A relation's rows and, beside them, one lazily materialised
/// [`Column`] per field: how every executor loop over a materialized
/// input reads it by column.
///
/// A column is built from the rows on its first read — typed (`i64` /
/// `f64`) when every row agrees, [`Column::Values`] otherwise — and
/// kept for as long as this set is. A base table keeps one set with its
/// data, so only the columns some statement read cost memory; a loop
/// over an intermediate relation builds a transient set that dies with
/// the loop. Either way the columns are copies of what the rows hold:
/// never written, never charged to a statement's memory budget.
#[derive(Debug)]
pub struct TableColumns {
    data: Arc<Relation>,
    cells: Box<[OnceLock<Arc<Column>>]>,
}

impl TableColumns {
    /// Shared from the start: a table, its clones and every scan of it
    /// hold the same columns.
    pub fn new(data: impl Into<Arc<Relation>>) -> Arc<TableColumns> {
        let data = data.into();
        let cells = (0..data.schema().arity()).map(|_| OnceLock::new());
        Arc::new(TableColumns {
            cells: cells.collect(),
            data,
        })
    }

    /// The rows the columns are built from.
    pub fn data(&self) -> &Arc<Relation> {
        &self.data
    }

    /// The number of columns, built or not.
    #[inline]
    pub fn arity(&self) -> usize {
        self.cells.len()
    }

    /// Column `c`, materialised now if this is its first read; `None`
    /// beyond the table's arity.
    #[inline(always)]
    pub fn get(&self, c: usize) -> Option<&Arc<Column>> {
        let cell = self.cells.get(c)?;
        Some(cell.get().unwrap_or_else(|| self.build(c)))
    }

    /// [`Self::get`]'s first read of column `c`: out of line, so a read
    /// of a built column — every cell a join pair reads by position — is
    /// a load and a test.
    #[cold]
    #[inline(never)]
    fn build(&self, c: usize) -> &Arc<Column> {
        self.cells[c].get_or_init(|| Arc::new(Column::from_rows(self.data.rows(), c)))
    }

    /// Bytes of the columns materialised so far.
    pub fn bytes(&self) -> u64 {
        let built = self.cells.iter().filter_map(OnceLock::get);
        built.map(|c| c.bytes()).sum()
    }
}

/// A registered base table: name, data and statistics.
///
/// The relation is shared (`Arc`) so that every scan in a plan — the
/// paper's queries scan `partsupp` or `S` in both the outer and the inner
/// block — references the same storage.
#[derive(Debug, Clone)]
pub struct Table {
    name: Arc<str>,
    /// The rows and their column-major copies. Clones of the table
    /// share them.
    columns: Arc<TableColumns>,
    /// Collected on the first [`Table::stats`] call: a sort-dedup of
    /// every column that planning never reads (the cost model needs row
    /// counts only), so loading and `INSERT` do not pay for it. Clones
    /// of the table share the cell.
    stats: Arc<OnceLock<TableStats>>,
}

impl Table {
    /// Register a relation under `name`.
    pub fn new(name: impl AsRef<str>, data: Relation) -> Table {
        Table {
            name: Arc::from(name.as_ref()),
            columns: TableColumns::new(data),
            stats: Arc::default(),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> &Schema {
        self.data().schema()
    }

    pub fn data(&self) -> &Arc<Relation> {
        self.columns.data()
    }

    /// The table's lazily built columns, for a scan to carry.
    pub fn columns(&self) -> &Arc<TableColumns> {
        &self.columns
    }

    pub fn stats(&self) -> &TableStats {
        self.stats
            .get_or_init(|| TableStats::from_relation(self.data()))
    }

    pub fn row_count(&self) -> usize {
        self.data().len()
    }

    /// Replace the table contents (INSERT rebuilds the relation; this is
    /// an analytical engine, not an OLTP store). Statistics and columns
    /// are built afresh on their next read.
    pub fn replace_data(&mut self, data: Relation) {
        self.columns = TableColumns::new(data);
        self.stats = Arc::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bypass_types::{DataType, Field, Tuple, Value};

    fn rel(n: i64) -> Relation {
        Relation::new(
            Schema::new(vec![Field::new("a", DataType::Int)]),
            (0..n).map(|i| Tuple::new(vec![Value::Int(i)])).collect(),
        )
    }

    #[test]
    fn stats_collected_on_first_read() {
        let t = Table::new("t", rel(5));
        assert_eq!(t.name(), "t");
        assert_eq!(t.row_count(), 5);
        assert_eq!(t.stats().columns[0].distinct, 5);
    }

    #[test]
    fn replace_refreshes_stats() {
        let mut t = Table::new("t", rel(2));
        let shared = t.clone();
        assert_eq!(
            t.stats().row_count,
            2,
            "read (and cached) before the change"
        );
        t.replace_data(rel(10));
        assert_eq!(t.row_count(), 10);
        assert_eq!(t.stats(), &TableStats::from_relation(&rel(10)));
        assert_eq!(shared.stats().row_count, 2, "a clone keeps its snapshot");
    }

    #[test]
    fn replace_refreshes_columns() {
        let mut t = Table::new("t", rel(2));
        assert_eq!(t.columns().bytes(), 0, "nothing is built until read");
        let shared = t.clone();
        let before = t.columns().get(0).expect("column 0").clone();
        assert_eq!(*before, Column::Int([0, 1].into()));
        assert!(
            Arc::ptr_eq(&before, shared.columns().get(0).unwrap()),
            "clones share what one of them built"
        );
        assert_eq!(t.columns().bytes(), 16);
        assert!(t.columns().get(1).is_none(), "beyond the arity");

        t.replace_data(rel(3));
        assert_eq!(t.columns().bytes(), 0, "built afresh on the next read");
        assert_eq!(**t.columns().get(0).unwrap(), Column::Int([0, 1, 2].into()));
        assert!(Arc::ptr_eq(t.columns().data(), t.data()));
        assert_eq!(
            **shared.columns().get(0).unwrap(),
            Column::Int([0, 1].into()),
            "a clone keeps its snapshot"
        );
        assert_eq!(shared.row_count(), 2);
    }

    #[test]
    fn data_is_shared() {
        let t = Table::new("t", rel(3));
        let a = t.data().clone();
        let b = t.data().clone();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
