//! Unary grouping Γ: hash grouping, or scalar aggregation without keys.
//! (The paper's binary grouping Γᵇ is planned as an outer join over a Γ,
//! `plan.rs`.)
//!
//! Γ keeps its groups in a [`KeyTable`] — dense ids in first-appearance
//! order, which is its output order — and their aggregate state in an
//! [`AggStates`] arena indexed by those ids.

use bypass_catalog::TableColumns;
use bypass_types::{tuple_bytes, Relation, Result, Schema, Tuple, VALUE_BYTES};

use crate::agg::{AggSpec, AggStates};
use crate::eval::ExecContext;
use crate::expr::PhysExpr;
use crate::hash::{KeyReader, KeyRef, KeyTable, TableKey};

/// Fixed state of one aggregate accumulator in the byte model (the
/// DISTINCT sets additionally report their growth through
/// [`AggStates::fold`]).
const ACC_BYTES: u64 = 48;

/// Γ's groups and their aggregate state.
struct Groups<'p> {
    /// `None` for a scalar aggregation: one group, there from the start
    /// (`f(∅)` over empty input), and nothing to hash.
    table: Option<KeyTable>,
    states: AggStates<'p>,
}

impl<'p> Groups<'p> {
    fn new(width: usize, aggs: &'p [AggSpec], rows: usize) -> Groups<'p> {
        let mut states = AggStates::new(aggs, rows);
        let table = (width > 0).then(|| KeyTable::new(width));
        if table.is_none() {
            states.push_group();
        }
        Groups { table, states }
    }

    /// The group of the row whose key is `key`, opened if new; a new
    /// group reports the bytes it retains: its key and an accumulator
    /// per aggregate.
    #[inline]
    fn of<R: crate::row::Row>(&mut self, hash: u64, key: KeyRef<'_, R>, fixed: u64) -> (u32, u64) {
        let table = self.table.as_mut().expect("keyed grouping");
        let (g, created) = table.intern(hash, key);
        if !created {
            return (g, 0);
        }
        self.states.push_group();
        (g, fixed + key.heap_bytes())
    }

    /// One output row per group, `key ◦ aggregates`, in first-appearance
    /// order.
    fn into_rows(self, width: usize, naggs: usize) -> Vec<Tuple> {
        let ngroups = self.table.as_ref().map_or(1, KeyTable::len);
        let mut keys = self
            .table
            .map_or_else(Vec::new, KeyTable::into_keys)
            .into_iter();
        let mut states = self.states;
        let mut values = states.finish();
        (0..ngroups)
            .map(|_| {
                keys.by_ref()
                    .take(width)
                    .chain(values.by_ref().take(naggs))
                    .collect()
            })
            .collect()
    }
}

impl ExecContext {
    /// Γ over a materialized input: one pass on the master, grouping in
    /// place. Keys and arguments that are plain columns are read off the
    /// row — or, when the input is a base table (`table`), off the
    /// table's columns; a fan-out would hand rows to workers and values
    /// back for less work than that costs (DESIGN.md §7).
    pub(crate) fn hash_aggregate(
        &mut self,
        input: &Relation,
        table: Option<&TableColumns>,
        keys: &[PhysExpr],
        aggs: &[AggSpec],
        schema: Schema,
    ) -> Result<Relation> {
        let rows = input.rows();
        let width = keys.len();
        let reader = KeyReader::new(keys);
        let table_key = TableKey::new(table, &reader);
        let table_arg = |a: &PhysExpr| match (table, a) {
            (Some(table), PhysExpr::Column(c)) => table.get(*c),
            _ => None,
        };
        let mut groups = Groups::new(width, aggs, rows.len());
        // Group state is scratch, released once the output rows are built.
        let fixed = width as u64 * VALUE_BYTES + aggs.len() as u64 * ACC_BYTES;
        let mut scratch = 0u64;
        if width == 0 {
            self.gov.charge(fixed)?;
            scratch += fixed;
        }
        let mut computed = Vec::new();
        for (i, t) in rows.iter().enumerate() {
            self.gov.tick()?;
            let g = if width == 0 {
                0
            } else {
                let key = match &table_key {
                    Some(table_key) => table_key.at(i, true),
                    None => self.read_key(&reader, t, &mut computed, true)?,
                };
                let (hash, key) = key.expect("grouping keys keep their NULLs");
                let (g, created) = groups.of(hash, key, fixed);
                if created != 0 {
                    self.gov.charge(created)?;
                    scratch += created;
                }
                g
            };
            let grown = groups.states.fold(g, t, |a| match table_arg(a) {
                Some(column) => Ok(column.get(i)),
                None => self.eval_cow(a, t),
            })?;
            if grown != 0 {
                self.gov.charge(grown)?;
                scratch += grown;
            }
        }
        let mut out = Vec::new();
        for row in groups.into_rows(width, aggs.len()) {
            self.gov.charge(tuple_bytes(&row))?;
            out.push(row);
        }
        self.gov.release(scratch);
        Ok(Relation::new(schema, out))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{HashMap, HashSet};

    use bypass_algebra::AggFunc;
    use bypass_types::{DataType, Field, Value, ROW_OVERHEAD_BYTES};

    use super::*;
    use crate::eval::tests::{int_rel, run};
    use crate::eval::ExecOptions;
    use crate::node::{PhysKind, PhysNode};

    #[test]
    fn scalar_aggregate_on_empty_input() {
        let empty = int_rel("e", &["x"], &[]);
        let schema = Schema::new(vec![
            Field::new("c", DataType::Int),
            Field::new("s", DataType::Int),
        ]);
        let agg = PhysNode::new(
            PhysKind::HashAggregate {
                input: empty,
                keys: vec![],
                aggs: vec![
                    AggSpec {
                        func: AggFunc::Count,
                        distinct: false,
                        arg: None,
                    },
                    AggSpec {
                        func: AggFunc::Sum,
                        distinct: false,
                        arg: Some(PhysExpr::Column(0)),
                    },
                ],
            },
            schema,
        );
        let out = run(&agg);
        assert_eq!(out.len(), 1, "scalar agg always yields one row");
        assert_eq!(out.rows()[0][0], Value::Int(0));
        assert!(out.rows()[0][1].is_null());
    }

    #[test]
    fn grouped_aggregate() {
        let scan = int_rel("r", &["k", "v"], &[&[1, 10], &[2, 20], &[1, 30]]);
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("s", DataType::Int),
        ]);
        let agg = PhysNode::new(
            PhysKind::HashAggregate {
                input: scan,
                keys: vec![PhysExpr::Column(0)],
                aggs: vec![AggSpec {
                    func: AggFunc::Sum,
                    distinct: false,
                    arg: Some(PhysExpr::Column(1)),
                }],
            },
            schema,
        );
        let out = run(&agg);
        assert_eq!(out.len(), 2);
        // First-appearance order: key 1 first.
        assert_eq!(out.rows()[0].values(), &[Value::Int(1), Value::Int(40)]);
        assert_eq!(out.rows()[1].values(), &[Value::Int(2), Value::Int(20)]);
    }

    #[test]
    fn grouped_aggregate_null_and_text_keys() {
        // NULL groups with NULL (structural key equality) and text keys
        // exercise the key table across type ranks.
        let schema_in = Schema::new(vec![
            Field::new("k", DataType::Text),
            Field::new("v", DataType::Int),
        ]);
        let rel = Relation::new(
            schema_in.clone(),
            vec![
                Tuple::new(vec![Value::text("a"), Value::Int(1)]),
                Tuple::new(vec![Value::Null, Value::Int(2)]),
                Tuple::new(vec![Value::text("a"), Value::Int(3)]),
                Tuple::new(vec![Value::Null, Value::Int(4)]),
            ],
        );
        let scan = PhysNode::scan(TableColumns::new(rel), schema_in);
        let schema = Schema::new(vec![
            Field::new("k", DataType::Text),
            Field::new("s", DataType::Int),
        ]);
        let agg = PhysNode::new(
            PhysKind::HashAggregate {
                input: scan,
                keys: vec![PhysExpr::Column(0)],
                aggs: vec![AggSpec {
                    func: AggFunc::Sum,
                    distinct: false,
                    arg: Some(PhysExpr::Column(1)),
                }],
            },
            schema,
        );
        let out = run(&agg);
        assert_eq!(out.len(), 2, "NULL forms one group: {out}");
        assert_eq!(out.rows()[0].values(), &[Value::text("a"), Value::Int(4)]);
        assert_eq!(out.rows()[1].values(), &[Value::Null, Value::Int(6)]);
    }

    fn count_distinct_rows() -> AggSpec {
        AggSpec {
            func: AggFunc::Count,
            distinct: true,
            arg: None,
        }
    }

    /// 600 two-column rows `(k, v)` over 7 keys and 5 values: every
    /// group sees every row of it many times over.
    fn duplicated_rows() -> Vec<[i64; 2]> {
        (0..600i64).map(|i| [(i * i) % 7, (i / 3) % 5]).collect()
    }

    #[test]
    fn one_distinct_set_counts_like_a_set_per_group() {
        let rows = duplicated_rows();
        let slices: Vec<&[i64]> = rows.iter().map(|r| &r[..]).collect();
        let agg = PhysNode::new(
            PhysKind::HashAggregate {
                input: int_rel("r", &["k", "v"], &slices),
                keys: vec![PhysExpr::Column(0)],
                aggs: vec![count_distinct_rows()],
            },
            Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::new("n", DataType::Int),
            ]),
        );
        // Reference: one set per group, groups in first-appearance order.
        let mut order = Vec::new();
        let mut sets: HashMap<i64, HashSet<[i64; 2]>> = HashMap::new();
        for r in &rows {
            sets.entry(r[0])
                .or_insert_with(|| {
                    order.push(r[0]);
                    HashSet::new()
                })
                .insert(*r);
        }
        let expected: Vec<Vec<Value>> = order
            .iter()
            .map(|k| vec![Value::Int(*k), Value::Int(sets[k].len() as i64)])
            .collect();
        let got: Vec<Vec<Value>> = run(&agg)
            .rows()
            .iter()
            .map(|t| t.values().to_vec())
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn grouped_distinct_retains_what_a_set_per_group_did() {
        let rows = duplicated_rows();
        let slices: Vec<&[i64]> = rows.iter().map(|r| &r[..]).collect();
        let agg = PhysNode::new(
            PhysKind::HashAggregate {
                input: int_rel("r", &["k", "v"], &slices),
                keys: vec![PhysExpr::Column(0)],
                aggs: vec![count_distinct_rows()],
            },
            Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::new("n", DataType::Int),
            ]),
        );
        let pairs: HashSet<[i64; 2]> = rows.iter().copied().collect();
        let groups: HashSet<i64> = rows.iter().map(|r| r[0]).collect();
        let mut ctx = ExecContext::new(ExecOptions::default());
        assert_eq!(ctx.eval_plan(&agg).unwrap().len(), groups.len());
        // The governor's high-water mark is reached after the last output
        // row, just before the group state is released: per group its key
        // and accumulator, per first-seen `(group, row)` that row — the
        // bytes the per-group sets retained — and one output row per group.
        let row_bytes = ROW_OVERHEAD_BYTES + 2 * VALUE_BYTES;
        let retained = pairs.len() as u64 * row_bytes;
        let per_group = VALUE_BYTES + ACC_BYTES + row_bytes;
        assert_eq!(
            ctx.counters().peak_memory_bytes,
            groups.len() as u64 * per_group + retained
        );
    }
}
