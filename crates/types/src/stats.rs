use std::collections::HashSet;

use crate::{Relation, Value};

/// Per-column statistics used by the rank/cost model of the optimizer.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Number of distinct non-NULL values.
    pub distinct: usize,
    /// Number of NULLs.
    pub nulls: usize,
    /// Minimum non-NULL value (structural order), if any.
    pub min: Option<Value>,
    /// Maximum non-NULL value, if any.
    pub max: Option<Value>,
}

/// Table-level statistics: row count plus per-column stats.
///
/// Inputs a statistics-driven rank/cost model would start from; today's
/// model reads row counts only, so the catalog collects these on first
/// read (`Table::stats`), not at registration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TableStats {
    pub row_count: usize,
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Collect statistics from a materialized relation, one column at a
    /// time. Numeric values are counted by sorting their 8-byte payloads
    /// (under `Value`'s equality an integral float is its integer, all
    /// NaNs are one value and `-0.0` is `0.0`); only text and booleans go
    /// through a hash set. Registering TPC-H SF 0.05 spent half its time
    /// hashing `&Value`s here.
    pub fn from_relation(rel: &Relation) -> TableStats {
        let mut ints: Vec<i64> = Vec::new();
        let mut floats: Vec<u64> = Vec::new();
        let mut others: HashSet<&Value> = HashSet::new();
        let columns = (0..rel.schema().arity())
            .map(|i| {
                let (mut nulls, mut min, mut max) = (0, None::<&Value>, None::<&Value>);
                for v in rel.rows().iter().map(|row| &row.values()[i]) {
                    match v {
                        Value::Null => {
                            nulls += 1;
                            continue;
                        }
                        Value::Int(n) => ints.push(*n),
                        Value::Float(f) => match Value::float_as_i64(*f) {
                            Some(n) => ints.push(n),
                            None => floats.push(Value::float_key(*f)),
                        },
                        _ => {
                            others.insert(v);
                        }
                    }
                    min = Some(match min {
                        Some(m) if m <= v => m,
                        _ => v,
                    });
                    max = Some(match max {
                        Some(m) if m >= v => m,
                        _ => v,
                    });
                }
                let stats = ColumnStats {
                    distinct: count_distinct(&mut ints)
                        + count_distinct(&mut floats)
                        + others.len(),
                    nulls,
                    min: min.cloned(),
                    max: max.cloned(),
                };
                others.clear();
                stats
            })
            .collect();
        TableStats {
            row_count: rel.len(),
            columns,
        }
    }
}

/// Distinct values of `keys`; leaves it empty for the next column.
fn count_distinct<K: Ord>(keys: &mut Vec<K>) -> usize {
    keys.sort_unstable();
    keys.dedup();
    let n = keys.len();
    keys.clear();
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataType, Field, Schema, Tuple};

    fn rel() -> Relation {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ]);
        let rows = vec![
            Tuple::new(vec![Value::Int(1), Value::Int(10)]),
            Tuple::new(vec![Value::Int(2), Value::Int(10)]),
            Tuple::new(vec![Value::Int(2), Value::Null]),
            Tuple::new(vec![Value::Int(3), Value::Int(30)]),
        ];
        Relation::new(schema, rows)
    }

    #[test]
    fn collects_counts_and_bounds() {
        let s = TableStats::from_relation(&rel());
        assert_eq!(s.row_count, 4);
        assert_eq!(s.columns[0].distinct, 3);
        assert_eq!(s.columns[0].nulls, 0);
        assert_eq!(s.columns[1].distinct, 2);
        assert_eq!(s.columns[1].nulls, 1);
        assert_eq!(s.columns[0].min, Some(Value::Int(1)));
        assert_eq!(s.columns[0].max, Some(Value::Int(3)));
    }

    #[test]
    fn empty_relation_stats() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]);
        let s = TableStats::from_relation(&Relation::empty(schema));
        assert_eq!(s.row_count, 0);
        assert_eq!(s.columns[0].distinct, 0);
        assert_eq!(s.columns[0].min, None);
    }
}
