use std::sync::{Arc, OnceLock};

use bypass_types::{Relation, Schema, TableStats};

/// A registered base table: name, data and statistics.
///
/// The relation is shared (`Arc`) so that every scan in a plan — the
/// paper's queries scan `partsupp` or `S` in both the outer and the inner
/// block — references the same storage.
#[derive(Debug, Clone)]
pub struct Table {
    name: Arc<str>,
    data: Arc<Relation>,
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
            data: Arc::new(data),
            stats: Arc::default(),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> &Schema {
        self.data.schema()
    }

    pub fn data(&self) -> &Arc<Relation> {
        &self.data
    }

    pub fn stats(&self) -> &TableStats {
        self.stats
            .get_or_init(|| TableStats::from_relation(&self.data))
    }

    pub fn row_count(&self) -> usize {
        self.data.len()
    }

    /// Replace the table contents (INSERT rebuilds the relation; this is
    /// an analytical engine, not an OLTP store). Statistics are
    /// collected afresh on their next read.
    pub fn replace_data(&mut self, data: Relation) {
        self.data = Arc::new(data);
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
    fn data_is_shared() {
        let t = Table::new("t", rel(3));
        let a = t.data().clone();
        let b = t.data().clone();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
