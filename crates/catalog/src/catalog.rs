use std::collections::BTreeMap;

use bypass_types::{Error, Relation, Result};

use crate::Table;

/// The catalog maps (case-insensitive) table names to [`Table`]s.
///
/// `BTreeMap` keeps iteration deterministic, which matters for
/// reproducible EXPLAIN output and golden tests.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: BTreeMap<String, Table>,
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    fn key(name: &str) -> String {
        name.to_ascii_lowercase()
    }

    /// Register a new table. Errors if the name is already taken.
    pub fn register(&mut self, name: impl AsRef<str>, data: Relation) -> Result<()> {
        let name = name.as_ref();
        let key = Self::key(name);
        if self.tables.contains_key(&key) {
            return Err(Error::catalog(format!("table `{name}` already exists")));
        }
        self.tables.insert(key, Table::new(name, data));
        Ok(())
    }

    /// Register or overwrite.
    pub fn register_or_replace(&mut self, name: impl AsRef<str>, data: Relation) {
        let name = name.as_ref();
        self.tables.insert(Self::key(name), Table::new(name, data));
    }

    /// Remove a table. Errors if it does not exist.
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        self.tables
            .remove(&Self::key(name))
            .map(|_| ())
            .ok_or_else(|| Error::catalog(format!("table `{name}` does not exist")))
    }

    /// Look up a table by name.
    pub fn get(&self, name: &str) -> Result<&Table> {
        self.tables.get(&Self::key(name)).ok_or_else(|| {
            Error::catalog(format!(
                "table `{name}` does not exist; known tables: [{}]",
                self.table_names().join(", ")
            ))
        })
    }

    /// Mutable lookup (INSERT goes through here).
    pub fn get_mut(&mut self, name: &str) -> Result<&mut Table> {
        if !self.tables.contains_key(&Self::key(name)) {
            return Err(Error::catalog(format!("table `{name}` does not exist")));
        }
        Ok(self.tables.get_mut(&Self::key(name)).unwrap())
    }

    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(&Self::key(name))
    }

    /// Registered table names in deterministic (sorted) order.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.values().map(|t| t.name().to_string()).collect()
    }

    /// Bytes of the base-table columns materialised so far, summed
    /// over tables (the `bypass_catalog_column_bytes` gauge).
    pub fn column_bytes(&self) -> u64 {
        self.tables.values().map(|t| t.columns().bytes()).sum()
    }

    pub fn len(&self) -> usize {
        self.tables.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bypass_types::{DataType, Field, Schema, Tuple, Value};

    fn rel() -> Relation {
        Relation::new(
            Schema::new(vec![Field::new("a", DataType::Int)]),
            vec![Tuple::new(vec![Value::Int(1)])],
        )
    }

    #[test]
    fn register_and_lookup_case_insensitive() {
        let mut c = Catalog::new();
        c.register("MyTable", rel()).unwrap();
        assert!(c.contains("mytable"));
        assert_eq!(c.get("MYTABLE").unwrap().name(), "MyTable");
    }

    #[test]
    fn duplicate_registration_fails() {
        let mut c = Catalog::new();
        c.register("t", rel()).unwrap();
        let err = c.register("T", rel()).unwrap_err();
        assert!(err.to_string().contains("already exists"), "{err}");
        // ... but register_or_replace succeeds.
        c.register_or_replace("T", rel());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn unknown_table_error_lists_candidates() {
        let mut c = Catalog::new();
        c.register("r", rel()).unwrap();
        c.register("s", rel()).unwrap();
        let err = c.get("zz").unwrap_err();
        assert!(err.to_string().contains("r, s"), "{err}");
    }

    #[test]
    fn drop_table() {
        let mut c = Catalog::new();
        c.register("t", rel()).unwrap();
        c.drop_table("T").unwrap();
        assert!(c.is_empty());
        assert!(c.drop_table("t").is_err());
    }

    #[test]
    fn names_are_sorted() {
        let mut c = Catalog::new();
        c.register("zeta", rel()).unwrap();
        c.register("alpha", rel()).unwrap();
        assert_eq!(c.table_names(), vec!["alpha", "zeta"]);
    }
}
