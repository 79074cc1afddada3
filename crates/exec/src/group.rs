//! Unary grouping Γ: hash grouping, or scalar aggregation without keys
//! — the sink of a pipeline (DESIGN.md §7). (The paper's binary grouping
//! Γᵇ is planned as an outer join over a Γ, `plan.rs`.)
//!
//! Γ keeps its groups in a [`KeyTable`] — dense ids in first-appearance
//! order, which is its output order — and their aggregate state in an
//! [`AggStates`] arena indexed by those ids. Rows reach it one at a time
//! as they leave their pipeline's chain ([`Fold::fold`]), a run at a
//! time when they are the rows of the loop's input — Γ over a relation,
//! a σ's settled runs ([`Fold::fold_run`]) — or, a σ's settled run under
//! `COUNT(*)`, as a count ([`Fold::count`]).
//!
//! Γ's keys and arguments are columns of its rows: the planner adds a
//! computed one as a χ column first. A run is folded a chunk at a time
//! off the input's columns, in phases: its keys hashed a column at a
//! time and interned lane by lane, then each aggregate folded over its
//! argument column in lane order, then the chunk's ticks and charges
//! passed to the governor in one [`Governor::tick_rows`] call — the same
//! checkpoints, bytes and first error as folding the rows one by one.
//!
//! [`Governor::tick_rows`]: crate::govern::Governor::tick_rows
//!
//! Γ's governor effects are its own, in fold order: a scalar
//! aggregation's state charged up front, a tick per row, a charge per new
//! group and per first-seen DISTINCT row or value, the first fold error,
//! then a charge per output row. Over a relation — an empty chain —
//! they happen as the rows are folded. Folded inside a loop that passes
//! checkpoints of its own they are recorded and replayed after it
//! ([`Fold::finish`]): where a Γ over the loop's output put them.

use std::sync::Arc;

use bypass_catalog::TableColumns;
use bypass_types::{tuple_bytes, Error, Result, Tuple, VALUE_BYTES};

use crate::agg::AggStates;
use crate::eval::ExecContext;
use crate::govern::Governor;
use crate::hash::{ChunkHashes, Key, KeyRef, KeyTable, TableKey};
use crate::node::Group;
use crate::row::Row;

/// Fixed state of one aggregate accumulator in the byte model (a
/// DISTINCT set additionally charges what it keeps as it grows).
pub const ACC_BYTES: u64 = 48;

/// Γ's effects recorded inside a loop, for [`Fold::finish`] to replay:
/// each charge with the number of rows folded when it was made (the
/// scalar state's: 0), and the first fold error with the rows folded up
/// to the failing one. No row is folded after it.
#[derive(Default)]
struct Deferred {
    charges: Vec<(u64, u64)>,
    error: Option<(u64, Error)>,
}

/// A chunk of input rows on its way into Γ: scratch reused from chunk
/// to chunk.
#[derive(Default)]
struct Lanes {
    /// Lane `k` is row `base + rows[k]` of the input.
    rows: Vec<u32>,
    hashes: ChunkHashes,
    groups: Vec<u32>,
    /// Per lane, the bytes its new group charges (0: none) …
    created: Vec<u64>,
    /// … and the bytes its first-seen DISTINCT values or row retain.
    grown: Vec<u64>,
}

/// A running Γ: its groups, their aggregate states and its key columns.
pub(crate) struct Fold<'p> {
    keys: &'p [usize],
    /// Set by [`Self::by_column`]: the input's columns, and the key
    /// columns among them. Its runs then fold a chunk at a time.
    chunks: Option<(Arc<TableColumns>, TableKey)>,
    lanes: Lanes,
    /// `None` for a scalar aggregation: one group, there from the start
    /// (`f(∅)` over no rows), and nothing to hash.
    groups: Option<KeyTable>,
    states: AggStates<'p>,
    /// What a new group retains besides its key's text: a slot per key
    /// value and an accumulator per aggregate.
    fixed: u64,
    /// Only `COUNT(*)`s, no keys: a run of rows folds as its length.
    counts: bool,
    /// Rows folded: Γ's `in`, a checkpoint each.
    rows: u64,
    /// Group state charged so far; released once the output is built.
    scratch: u64,
    /// `Some` while the effects wait for the replay.
    deferred: Option<Deferred>,
}

impl<'p> Fold<'p> {
    /// Γ `group`, folding row by row. `relation` is the length of the
    /// relation Γ folds, if it folds one: its effects happen as they come
    /// — the scalar state is charged here — and its DISTINCT sets are
    /// sized for it. Folding inside a loop (`None`) Γ cannot know how many
    /// rows will reach it: the sets grow on demand, and the effects wait
    /// for [`Self::finish`].
    pub(crate) fn start(
        ctx: &mut ExecContext,
        group: &'p Group,
        relation: Option<usize>,
    ) -> Result<Fold<'p>> {
        let (width, naggs) = (group.keys.len(), group.aggs.len());
        let states = AggStates::new(&group.aggs, group.width, relation.unwrap_or(0));
        let mut fold = Fold {
            keys: &group.keys,
            chunks: None,
            lanes: Lanes::default(),
            groups: (width > 0).then(|| KeyTable::new(width)),
            counts: width == 0 && states.counts_rows(),
            states,
            fixed: width as u64 * VALUE_BYTES + naggs as u64 * ACC_BYTES,
            rows: 0,
            scratch: 0,
            deferred: relation.is_none().then(Deferred::default),
        };
        if width == 0 {
            fold.states.push_group();
            fold.charge(ctx, fold.fixed)?;
        }
        Ok(fold)
    }

    /// The runs Γ folds are rows of the relation `columns` reads: fold
    /// them a chunk at a time off its key and argument columns — built
    /// here, before a loop forks. Row by row when one of them is past the
    /// arity, where the row that reads it raises.
    pub(crate) fn by_column(&mut self, columns: &Arc<TableColumns>) {
        let mut args = self.states.specs().iter().filter_map(|a| a.arg);
        // With no key and no argument there is no column to read: a
        // whole-row COUNT(DISTINCT *) folds row by row (canonical Q1 runs
        // one per outer row, about a row each).
        if self.keys.is_empty() && args.clone().next().is_none() {
            return;
        }
        if let (Ok(key), true) = (
            TableKey::new(columns, self.keys),
            args.all(|c| columns.get(c).is_some()),
        ) {
            self.chunks = Some((columns.clone(), key));
        }
    }

    /// Rows folded so far.
    pub(crate) fn rows(&self) -> u64 {
        self.rows
    }

    /// Does a run of rows fold as its length ([`Self::count`])?
    pub(crate) fn counts(&self) -> bool {
        self.counts
    }

    /// A recorded fold error ends the fold: nothing after it is replayed.
    fn failed(&self) -> bool {
        self.deferred.as_ref().is_some_and(|d| d.error.is_some())
    }

    fn tick(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.rows += 1;
        match self.deferred {
            None => ctx.gov.tick(),
            Some(_) => Ok(()),
        }
    }

    fn charge(&mut self, ctx: &mut ExecContext, bytes: u64) -> Result<()> {
        self.scratch += bytes;
        match &mut self.deferred {
            None => ctx.gov.charge(bytes),
            Some(d) => {
                d.charges.push((self.rows, bytes));
                Ok(())
            }
        }
    }

    /// Fold `n` rows into a Γ that [counts](Self::counts).
    pub(crate) fn count(&mut self, ctx: &mut ExecContext, n: usize) -> Result<()> {
        if self.failed() {
            return Ok(());
        }
        self.rows += n as u64;
        self.states.count_rows(n as u64);
        match self.deferred {
            None => ctx.gov.tick_n(n as u64),
            Some(_) => Ok(()),
        }
    }

    /// Fold every row of the relation `rows`, with the effects as they
    /// happen.
    pub(crate) fn fold_relation(&mut self, ctx: &mut ExecContext, rows: &[Tuple]) -> Result<()> {
        debug_assert!(
            self.deferred.is_none(),
            "Γ over a relation has no loop to wait for"
        );
        if self.counts {
            return self.count(ctx, rows.len());
        }
        let chunk = ctx.options.batch_rows;
        for (lo, rows) in (0..).step_by(chunk).zip(rows.chunks(chunk)) {
            self.fold_run(ctx, rows, lo, 0..rows.len())?;
        }
        Ok(())
    }

    /// Fold one row leaving the chain. A deferred fold records its error
    /// and returns `Ok`: the loop goes on, and an error of its own comes
    /// first, as it would before a Γ over its output.
    #[inline]
    pub(crate) fn fold<R: Row>(&mut self, ctx: &mut ExecContext, row: &R) -> Result<()> {
        if self.failed() {
            return Ok(());
        }
        let folded = self.fold_row(ctx, row);
        match (&mut self.deferred, folded) {
            (Some(d), Err(e)) => {
                d.error = Some((self.rows, e));
                Ok(())
            }
            (_, folded) => folded,
        }
    }

    #[inline(always)]
    fn fold_row<R: Row>(&mut self, ctx: &mut ExecContext, row: &R) -> Result<()> {
        self.tick(ctx)?;
        let (g, created) = match &mut self.groups {
            None => (0, None),
            Some(groups) => {
                let key = KeyRef::read(row, self.keys, true)?;
                let key = key.expect("grouping keys keep their NULLs");
                let (g, created) = groups.intern(key.hash(), key);
                (g, created.then(|| key.heap_bytes()))
            }
        };
        if let Some(heap) = created {
            self.states.push_group();
            self.charge(ctx, self.fixed + heap)?;
        }
        let grown = self.states.fold(g, row)?;
        if grown != 0 {
            self.charge(ctx, grown)?;
        }
        Ok(())
    }

    /// Fold the rows `lanes` of `rows` — `rows[l]` is row `base + l` of
    /// the loop's input, and there are at most `batch_rows` of them —
    /// and return how many there were: read [by column](Self::by_column)
    /// a chunk at a time, else one by one. Inline, so a σ's settled run
    /// folded row by row is the loop of its caller.
    #[inline]
    pub(crate) fn fold_run(
        &mut self,
        ctx: &mut ExecContext,
        rows: &[Tuple],
        base: usize,
        lanes: impl Iterator<Item = usize>,
    ) -> Result<usize> {
        if self.chunks.is_some() {
            return self.fold_columns(ctx, rows, base, lanes);
        }
        let mut n = 0;
        for l in lanes {
            self.fold(ctx, &rows[l])?;
            n += 1;
        }
        Ok(n)
    }

    /// [`Self::fold_run`] off the input's columns: the same groups in
    /// the same order, the same states, the same checkpoints and charges
    /// and the same first error as folding the rows one by one.
    fn fold_columns(
        &mut self,
        ctx: &mut ExecContext,
        rows: &[Tuple],
        base: usize,
        lanes: impl Iterator<Item = usize>,
    ) -> Result<usize> {
        self.lanes.rows.clear();
        self.lanes.rows.extend(lanes.map(|l| l as u32));
        let n = self.lanes.rows.len();
        if self.failed() || n == 0 {
            return Ok(n);
        }
        let Some((columns, table_key)) = &self.chunks else {
            unreachable!("read by column")
        };
        let mut at = std::mem::take(&mut self.lanes);
        at.groups.clear();
        at.created.clear();
        at.created.resize(n, 0);
        match &mut self.groups {
            Some(groups) => {
                let key = table_key;
                let slots = at.rows.iter().map(|&l| base + l as usize);
                key.hash_chunk(slots.clone(), &mut at.hashes);
                for (k, i) in slots.enumerate() {
                    let key = key.key(i);
                    let (g, created) = groups.intern(at.hashes.hash(k), key);
                    if created {
                        self.states.push_group();
                        at.created[k] = self.fixed + key.heap_bytes();
                    }
                    at.groups.push(g);
                }
            }
            None => at.groups.resize(n, 0),
        }
        // Aggregate by aggregate over the chunk. A lane that fails ends
        // the chunk there: no later aggregate folds it or what follows.
        at.grown.clear();
        at.grown.resize(n, 0);
        let mut failed: Option<(usize, Error)> = None;
        for (j, spec) in self.states.specs().iter().enumerate() {
            let upto = failed.as_ref().map_or(n, |(k, _)| *k);
            let column = spec
                .arg
                .map(|c| &**columns.get(c).expect("checked in range"));
            let (lanes, groups) = (&at.rows[..upto], &at.groups[..upto]);
            let grown = &mut at.grown[..upto];
            if let Some(fail) = self
                .states
                .fold_chunk(j, column, rows, base, lanes, groups, grown)
            {
                failed = Some(fail);
            }
        }
        // The effects, in the order folding row by row has them: per
        // row a tick, its new group's charge, then — unless it failed —
        // what its DISTINCT sets retained.
        let upto = failed.as_ref().map_or(n, |(k, _)| *k);
        let end = failed.as_ref().map_or(n, |(k, _)| k + 1);
        let charges_of = |k: usize| {
            let grown = if k < upto { at.grown[k] } else { 0 };
            [at.created[k], grown].into_iter().filter(|&b| b > 0)
        };
        let (charges, bytes) = (0..end)
            .flat_map(charges_of)
            .fold((0, 0), |(n, sum), b| (n + 1, sum + b));
        self.scratch += bytes;
        let error = failed.map(|(_, e)| e);
        let done = match &mut self.deferred {
            None => {
                self.rows += end as u64;
                let step =
                    |gov: &mut Governor, k: usize| charges_of(k).try_for_each(|b| gov.charge(b));
                ctx.gov
                    .tick_rows(end, charges, bytes, step)
                    .and(error.map_or(Ok(()), Err))
            }
            Some(d) => {
                for k in 0..end {
                    self.rows += 1;
                    d.charges.extend(charges_of(k).map(|b| (self.rows, b)));
                }
                d.error = error.map(|e| (self.rows, e));
                Ok(())
            }
        };
        self.lanes = at;
        done.map(|()| n)
    }

    /// Close Γ: replay what was recorded — the charges in fold order,
    /// each after the ticks of the rows folded before it, then the first
    /// error — and build the output, one charged row per group (`key ◦
    /// aggregates`, first-appearance order). The group state is released.
    pub(crate) fn finish(mut self, ctx: &mut ExecContext) -> Result<Vec<Tuple>> {
        if let Some(deferred) = self.deferred.take() {
            let mut ticked = 0;
            for (at, bytes) in deferred.charges {
                ctx.gov.tick_n(at - ticked)?;
                ticked = at;
                ctx.gov.charge(bytes)?;
            }
            let (end, error) = match deferred.error {
                Some((at, e)) => (at, Some(e)),
                None => (self.rows, None),
            };
            ctx.gov.tick_n(end - ticked)?;
            if let Some(e) = error {
                return Err(e);
            }
        }
        let ngroups = self.groups.as_ref().map_or(1, KeyTable::len);
        let keys = self
            .groups
            .take()
            .map_or_else(Vec::new, KeyTable::into_keys);
        let (width, naggs) = (self.keys.len(), self.states.specs().len());
        let (mut keys, mut values) = (keys.into_iter(), self.states.finish());
        let mut out = Vec::with_capacity(ngroups);
        for _ in 0..ngroups {
            let key = keys.by_ref().take(width);
            let row: Tuple = key.chain(values.by_ref().take(naggs)).collect();
            ctx.gov.charge(tuple_bytes(&row))?;
            out.push(row);
        }
        ctx.gov.release(self.scratch);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{HashMap, HashSet};

    use bypass_algebra::AggFunc;
    use bypass_catalog::TableColumns;
    use bypass_types::{DataType, Field, Relation, Schema, Value, ROW_OVERHEAD_BYTES};

    use super::*;
    use crate::agg::AggSpec;
    use crate::eval::tests::{int_rel, run};
    use crate::eval::ExecOptions;
    use crate::node::PhysNode;

    #[test]
    fn scalar_aggregate_on_empty_input() {
        let empty = int_rel("e", &["x"], &[]);
        let schema = Schema::new(vec![
            Field::new("c", DataType::Int),
            Field::new("s", DataType::Int),
        ]);
        let agg = PhysNode::aggregate(
            empty,
            vec![],
            vec![
                AggSpec {
                    func: AggFunc::Count,
                    distinct: false,
                    arg: None,
                },
                AggSpec {
                    func: AggFunc::Sum,
                    distinct: false,
                    arg: Some(0),
                },
            ],
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
        let agg = PhysNode::aggregate(
            scan,
            vec![0],
            vec![AggSpec {
                func: AggFunc::Sum,
                distinct: false,
                arg: Some(1),
            }],
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
        let scan = PhysNode::scan(TableColumns::new(rel));
        let schema = Schema::new(vec![
            Field::new("k", DataType::Text),
            Field::new("s", DataType::Int),
        ]);
        let agg = PhysNode::aggregate(
            scan,
            vec![0],
            vec![AggSpec {
                func: AggFunc::Sum,
                distinct: false,
                arg: Some(1),
            }],
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
        let agg = PhysNode::aggregate(
            int_rel("r", &["k", "v"], &slices),
            vec![0],
            vec![count_distinct_rows()],
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
        let agg = PhysNode::aggregate(
            int_rel("r", &["k", "v"], &slices),
            vec![0],
            vec![count_distinct_rows()],
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
