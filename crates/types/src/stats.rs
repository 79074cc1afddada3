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
/// The paper's rank-based bypass ordering (Section 3.1, Remark) needs
/// selectivity and cost estimates for the disjuncts; these statistics are
/// the inputs to those estimates. They are collected once when a table is
/// registered in the catalog — a single O(n·k) scan.
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

    /// Estimated selectivity of an equality predicate `col = const`:
    /// `1 / distinct(col)` (uniformity assumption), clamped to `[0, 1]`.
    pub fn eq_selectivity(&self, column: usize) -> f64 {
        match self.columns.get(column) {
            Some(c) if c.distinct > 0 => 1.0 / c.distinct as f64,
            _ => 0.1,
        }
    }

    /// Estimated selectivity of `col > const` (resp. `<`, `>=`, `<=`)
    /// by linear interpolation over the [min, max] range for numeric
    /// columns. Falls back to 1/3 (the classic System R default).
    pub fn range_selectivity(&self, column: usize, bound: &Value, greater: bool) -> f64 {
        let Some(c) = self.columns.get(column) else {
            return 1.0 / 3.0;
        };
        let (Some(min), Some(max)) = (&c.min, &c.max) else {
            return 1.0 / 3.0;
        };
        let as_f = |v: &Value| -> Option<f64> {
            match v {
                Value::Int(i) => Some(*i as f64),
                Value::Float(f) => Some(*f),
                _ => None,
            }
        };
        match (as_f(min), as_f(max), as_f(bound)) {
            (Some(lo), Some(hi), Some(b)) if hi > lo => {
                let frac = ((b - lo) / (hi - lo)).clamp(0.0, 1.0);
                if greater {
                    1.0 - frac
                } else {
                    frac
                }
            }
            _ => 1.0 / 3.0,
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
    fn eq_selectivity_uses_distinct_count() {
        let s = TableStats::from_relation(&rel());
        assert!((s.eq_selectivity(0) - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.eq_selectivity(1) - 0.5).abs() < 1e-12);
        // Out-of-range column falls back to default.
        assert!((s.eq_selectivity(9) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn range_selectivity_interpolates() {
        let s = TableStats::from_relation(&rel());
        // col 0 spans [1,3]; bound 2 → greater keeps half.
        let sel = s.range_selectivity(0, &Value::Int(2), true);
        assert!((sel - 0.5).abs() < 1e-12);
        let sel = s.range_selectivity(0, &Value::Int(2), false);
        assert!((sel - 0.5).abs() < 1e-12);
        // Bound outside range clamps.
        assert_eq!(s.range_selectivity(0, &Value::Int(100), true), 0.0);
        assert_eq!(s.range_selectivity(0, &Value::Int(-5), true), 1.0);
        // Non-numeric bound falls back.
        let sel = s.range_selectivity(0, &Value::text("x"), true);
        assert!((sel - 1.0 / 3.0).abs() < 1e-12);
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
