use std::fmt;

use crate::fxhash::FxHashMap;
use crate::{Schema, Tuple};

/// A fully materialized relation: a schema plus a bag of rows, in order.
///
/// A base table's storage, what an executor operator that is no
/// pipeline stage materializes — a scan's rows handed on by refcount, a
/// bypass operator's stream, the union that re-joins its two streams —
/// and the result a caller receives. Rows are shared handles, so a copy
/// of a relation copies handles, not values. Bag semantics are the
/// default: duplicates are kept unless a δ removes them.
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    schema: Schema,
    rows: Vec<Tuple>,
}

impl Relation {
    pub fn new(schema: Schema, rows: Vec<Tuple>) -> Relation {
        debug_assert!(
            rows.iter().all(|r| r.arity() == schema.arity()),
            "row arity must match schema arity"
        );
        Relation { schema, rows }
    }

    pub fn empty(schema: Schema) -> Relation {
        Relation {
            schema,
            rows: Vec::new(),
        }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    pub fn into_rows(self) -> Vec<Tuple> {
        self.rows
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn push(&mut self, row: Tuple) {
        debug_assert_eq!(row.arity(), self.schema.arity());
        self.rows.push(row);
    }

    /// Multiset equality: same rows with the same multiplicities,
    /// irrespective of order. This is the correctness notion all the
    /// equivalence tests use (the unnested DAG may emit rows in a
    /// different physical order than the canonical plan).
    pub fn bag_eq(&self, other: &Relation) -> bool {
        if self.rows.len() != other.rows.len() {
            return false;
        }
        let mut counts: FxHashMap<&Tuple, i64> =
            FxHashMap::with_capacity_and_hasher(self.rows.len(), Default::default());
        for r in &self.rows {
            *counts.entry(r).or_insert(0) += 1;
        }
        for r in &other.rows {
            match counts.get_mut(r) {
                Some(c) => *c -= 1,
                None => return false,
            }
        }
        counts.values().all(|&c| c == 0)
    }

    /// Render as an aligned ASCII table (for examples and debugging).
    pub fn to_table_string(&self) -> String {
        let headers: Vec<String> = self
            .schema
            .fields()
            .iter()
            .map(|f| f.qualified_name())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                r.values()
                    .iter()
                    .enumerate()
                    .map(|(i, v)| {
                        let s = v.to_string();
                        widths[i] = widths[i].max(s.len());
                        s
                    })
                    .collect()
            })
            .collect();
        let mut out = String::new();
        let sep = |out: &mut String| {
            out.push('+');
            for w in &widths {
                out.push_str(&"-".repeat(w + 2));
                out.push('+');
            }
            out.push('\n');
        };
        sep(&mut out);
        out.push('|');
        for (h, w) in headers.iter().zip(&widths) {
            out.push_str(&format!(" {h:<w$} |"));
        }
        out.push('\n');
        sep(&mut out);
        for row in &rendered {
            out.push('|');
            for (c, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {c:<w$} |"));
            }
            out.push('\n');
        }
        sep(&mut out);
        out.push_str(&format!(
            "{} row{}\n",
            self.rows.len(),
            if self.rows.len() == 1 { "" } else { "s" }
        ));
        out
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_table_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataType, Field, Value};

    fn rel(rows: &[&[i64]]) -> Relation {
        let schema = Schema::new(
            (0..rows.first().map_or(1, |r| r.len()))
                .map(|i| Field::new(format!("c{i}"), DataType::Int))
                .collect(),
        );
        Relation::new(
            schema,
            rows.iter()
                .map(|r| r.iter().map(|&v| Value::Int(v)).collect())
                .collect(),
        )
    }

    #[test]
    fn bag_eq_ignores_order_not_multiplicity() {
        let a = rel(&[&[1], &[2], &[2]]);
        let b = rel(&[&[2], &[1], &[2]]);
        let c = rel(&[&[1], &[2]]);
        let d = rel(&[&[1], &[1], &[2]]);
        assert!(a.bag_eq(&b));
        assert!(!a.bag_eq(&c));
        assert!(!a.bag_eq(&d));
    }

    #[test]
    fn table_rendering() {
        let s = rel(&[&[1], &[23]]).to_table_string();
        assert!(s.contains("| c0 |"), "{s}");
        assert!(s.contains("| 23 |"), "{s}");
        assert!(s.contains("2 rows"), "{s}");
    }
}
