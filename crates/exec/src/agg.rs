use std::borrow::Cow;

use bypass_algebra::AggFunc;
use bypass_types::{
    tuple_bytes, value_heap_bytes, Column, Error, Result, Tuple, Value, VALUE_BYTES,
};

use crate::expr::PhysExpr;
use crate::hash::DistinctSet;
use crate::row::Row;

/// A resolved aggregate call: function, DISTINCT flag and the (optional)
/// argument expression. `arg == None` aggregates whole input tuples
/// (`COUNT(*)` / `COUNT(DISTINCT *)`).
#[derive(Debug, Clone)]
pub struct AggSpec {
    pub func: AggFunc,
    pub distinct: bool,
    pub arg: Option<PhysExpr>,
}

/// Streaming state of one aggregate over one group — a few words, no
/// heap. DISTINCT is not a property of the accumulator: it is a gate in
/// front of it ([`AggStates::fold`]).
///
/// SQL semantics: `COUNT(*)` counts rows, `COUNT(e)` counts non-NULL
/// values, SUM/AVG/MIN/MAX ignore NULLs, every aggregate except COUNT
/// yields NULL over an empty (or all-NULL) input — the `f(∅)` values the
/// outerjoin defaults must reproduce.
#[derive(Debug)]
enum Accumulator {
    CountRows { n: i64 },
    CountValues { n: i64 },
    Sum { acc: Option<Value> },
    Avg { sum: f64, n: i64 },
    Min { acc: Option<Value> },
    Max { acc: Option<Value> },
}

impl AggSpec {
    /// The aggregate over no rows at all: `f(∅)`.
    pub(crate) fn empty_value(&self) -> Value {
        Accumulator::new(self).finish()
    }
}

impl Accumulator {
    fn new(spec: &AggSpec) -> Accumulator {
        match (spec.func, spec.arg.is_some()) {
            (AggFunc::Count, false) => Accumulator::CountRows { n: 0 },
            (AggFunc::Count, true) => Accumulator::CountValues { n: 0 },
            (AggFunc::Sum, _) => Accumulator::Sum { acc: None },
            (AggFunc::Avg, _) => Accumulator::Avg { sum: 0.0, n: 0 },
            (AggFunc::Min, _) => Accumulator::Min { acc: None },
            (AggFunc::Max, _) => Accumulator::Max { acc: None },
        }
    }

    /// Fold one row in; `value` is its evaluated argument (absent for
    /// `COUNT(*)`).
    fn update(&mut self, value: Option<&Value>) -> Result<()> {
        if let Accumulator::CountRows { n } = self {
            *n += 1;
            return Ok(());
        }
        let Some(v) = value.filter(|v| !v.is_null()) else {
            return Ok(());
        };
        match self {
            Accumulator::CountRows { .. } => {}
            Accumulator::CountValues { n } => *n += 1,
            Accumulator::Sum { acc } => {
                *acc = Some(match acc.take() {
                    None => v.clone(),
                    Some(a) => a.add(v)?,
                });
            }
            Accumulator::Avg { sum, n } => {
                *sum += match v {
                    Value::Int(i) => *i as f64,
                    Value::Float(x) => *x,
                    other => {
                        return Err(Error::type_err(format!(
                            "avg over non-numeric value {other}"
                        )))
                    }
                };
                *n += 1;
            }
            Accumulator::Min { acc } => keep_extreme(acc, v, std::cmp::Ordering::Less),
            Accumulator::Max { acc } => keep_extreme(acc, v, std::cmp::Ordering::Greater),
        }
        Ok(())
    }

    /// [`Self::update`] with an `Int` argument, the common states folded
    /// in place. SUM adds with `checked_add` and overflows with
    /// [`Value::add`]'s error.
    #[inline(always)]
    fn add_int(&mut self, x: i64) -> Result<()> {
        match self {
            Accumulator::CountValues { n } => *n += 1,
            Accumulator::Sum {
                acc: Some(Value::Int(a)),
            } => match a.checked_add(x) {
                Some(sum) => *a = sum,
                None => return Value::Int(*a).add(&Value::Int(x)).map(drop),
            },
            Accumulator::Avg { sum, n } => {
                *sum += x as f64;
                *n += 1;
            }
            Accumulator::Min {
                acc: Some(Value::Int(a)),
            } => *a = (*a).min(x),
            Accumulator::Max {
                acc: Some(Value::Int(a)),
            } => *a = (*a).max(x),
            other => other.update(Some(&Value::Int(x)))?,
        }
        Ok(())
    }

    /// [`Self::update`] with a `Float` argument, the common states folded
    /// in place: a float SUM adds as [`Value::add`] does.
    #[inline(always)]
    fn add_float(&mut self, x: f64) -> Result<()> {
        match self {
            Accumulator::CountValues { n } => *n += 1,
            Accumulator::Sum {
                acc: Some(Value::Float(a)),
            } => *a += x,
            Accumulator::Avg { sum, n } => {
                *sum += x;
                *n += 1;
            }
            other => other.update(Some(&Value::Float(x)))?,
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            Accumulator::CountRows { n } | Accumulator::CountValues { n } => Value::Int(n),
            Accumulator::Avg { n: 0, .. } => Value::Null,
            Accumulator::Avg { sum, n } => Value::Float(sum / n as f64),
            Accumulator::Sum { acc } | Accumulator::Min { acc } | Accumulator::Max { acc } => {
                acc.unwrap_or(Value::Null)
            }
        }
    }
}

/// MIN/MAX step: `v` replaces the current extreme when it compares
/// `wanted` to it.
fn keep_extreme(acc: &mut Option<Value>, v: &Value, wanted: std::cmp::Ordering) {
    let replace = match acc.as_ref() {
        None => true,
        Some(a) => v.sql_cmp(a) == Some(wanted),
    };
    if replace {
        *acc = Some(v.clone());
    }
}

/// What one DISTINCT aggregate has already folded, across every group
/// of its operator: whole rows for `COUNT(DISTINCT *)`, argument values
/// otherwise.
enum Seen {
    Rows(DistinctSet<Tuple>),
    Values(DistinctSet<Value>),
}

impl Seen {
    /// MIN/MAX are duplicate-insensitive: DISTINCT is a no-op there.
    fn new(spec: &AggSpec, rows: usize) -> Option<Seen> {
        let gated = spec.distinct && !matches!(spec.func, AggFunc::Min | AggFunc::Max);
        gated.then(|| match spec.arg {
            None => Seen::Rows(DistinctSet::with_capacity(rows)),
            Some(_) => Seen::Values(DistinctSet::with_capacity(rows)),
        })
    }
}

/// The aggregation state of one operator: the accumulators of all its
/// groups in one arena indexed by group id, and one [`DistinctSet`] per
/// DISTINCT aggregate (not per group).
pub(crate) struct AggStates<'p> {
    specs: &'p [AggSpec],
    /// Group `g`'s accumulator for aggregate `j` is
    /// `accs[g * specs.len() + j]`.
    accs: Vec<Accumulator>,
    seen: Vec<Option<Seen>>,
}

impl<'p> AggStates<'p> {
    /// No groups yet. `rows` is how many rows are about to be folded in
    /// at most, if that is known: the DISTINCT sets — which typically
    /// keep most of them — are sized for it up front (0: grow on demand).
    pub(crate) fn new(specs: &'p [AggSpec], rows: usize) -> AggStates<'p> {
        AggStates {
            specs,
            accs: Vec::new(),
            seen: specs.iter().map(|spec| Seen::new(spec, rows)).collect(),
        }
    }

    pub(crate) fn specs(&self) -> &'p [AggSpec] {
        self.specs
    }

    /// Do the aggregates only count rows — `COUNT(*)`, no DISTINCT? Then
    /// a run of `n` rows folds as [`Self::count_rows`]`(n)`.
    pub(crate) fn counts_rows(&self) -> bool {
        let count =
            |s: &AggSpec| matches!(s.func, AggFunc::Count) && s.arg.is_none() && !s.distinct;
        self.specs.iter().all(count)
    }

    /// Fold `n` rows into every aggregate of the last group at once; only
    /// for aggregates that [count rows](Self::counts_rows).
    pub(crate) fn count_rows(&mut self, n: u64) {
        let n = n as i64;
        let last = self.accs.len() - self.specs.len();
        let accs = &mut self.accs[last..];
        for acc in accs {
            if let Accumulator::CountRows { n: count } = acc {
                *count += n;
            }
        }
    }

    /// Open the next group (ids count up from 0).
    pub(crate) fn push_group(&mut self) {
        self.accs.extend(self.specs.iter().map(Accumulator::new));
    }

    /// Fold `row` — a row or a pipeline's view of one — into every
    /// aggregate of group `g`; `arg` evaluates an aggregate's argument
    /// expression over the row (the whole-row COUNTs have none).
    ///
    /// Returns the bytes of state newly *retained* under the
    /// deterministic byte model: a DISTINCT set grows without bound, so
    /// each first-seen row or value reports its cost for the governor to
    /// charge. Everything else is constant state and reports 0.
    ///
    /// A DISTINCT aggregate folds a value the moment it is first seen,
    /// so SUM/AVG(DISTINCT) add in first-appearance order — a float
    /// total is a function of the input order alone, not of a set's
    /// iteration order — and an overflow or type error is raised at the
    /// row that causes it, as without DISTINCT.
    #[inline]
    pub(crate) fn fold<'a, R: Row>(
        &mut self,
        g: u32,
        row: &R,
        mut arg: impl FnMut(&PhysExpr) -> Result<Cow<'a, Value>>,
    ) -> Result<u64> {
        let n = self.specs.len();
        let accs = &mut self.accs[g as usize * n..][..n];
        let mut retained = 0;
        for ((acc, seen), spec) in accs.iter_mut().zip(&mut self.seen).zip(self.specs) {
            let value = match &spec.arg {
                Some(e) => Some(arg(e)?),
                None => None,
            };
            let value = value.as_deref();
            match seen {
                None => {}
                Some(Seen::Rows(set)) => {
                    let built;
                    let row = match row.whole() {
                        Some(t) => t,
                        None => {
                            built = row.to_tuple();
                            &built
                        }
                    };
                    if !set.insert(g, row) {
                        continue;
                    }
                    retained += tuple_bytes(row);
                }
                Some(Seen::Values(set)) => match value.filter(|v| !v.is_null()) {
                    Some(v) if set.insert(g, v) => retained += VALUE_BYTES + value_heap_bytes(v),
                    _ => continue,
                },
            }
            acc.update(value)?;
        }
        Ok(retained)
    }

    /// Fold aggregate `j` over a chunk of base-table rows, in lane
    /// order: lane `k` is `rows[lanes[k]]` — slot `base + lanes[k]` of
    /// `column`, the argument's column (none for the whole-row COUNTs) —
    /// and belongs to group `groups[k]`. A typed column folds in a loop
    /// over its numbers; DISTINCT keeps its gate. Adds what a lane's
    /// first-seen value or row retains to `grown[k]`, and stops at the
    /// first lane that fails, handing back its index and error.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fold_chunk(
        &mut self,
        j: usize,
        column: Option<&Column>,
        rows: &[Tuple],
        base: usize,
        lanes: &[u32],
        groups: &[u32],
        grown: &mut [u64],
    ) -> Option<(usize, Error)> {
        let n = self.specs.len();
        let accs = &mut self.accs;
        let acc = |g: u32| g as usize * n + j;
        let slots = lanes.iter().map(|&l| base + l as usize);
        let lanes = groups.iter().zip(slots).enumerate();
        let fail = |k: usize| move |e| (k, e);
        match (&mut self.seen[j], column) {
            (None, None) => {
                for &g in groups {
                    if let Accumulator::CountRows { n } = &mut accs[acc(g)] {
                        *n += 1;
                    }
                }
                None
            }
            (None, Some(Column::Int(xs))) => lanes
                .map(|(k, (&g, r))| accs[acc(g)].add_int(xs[r]).map_err(fail(k)))
                .find_map(Result::err),
            (None, Some(Column::Float(xs))) => lanes
                .map(|(k, (&g, r))| accs[acc(g)].add_float(xs[r]).map_err(fail(k)))
                .find_map(Result::err),
            (None, Some(Column::Values(xs))) => lanes
                .map(|(k, (&g, r))| accs[acc(g)].update(Some(&xs[r])).map_err(fail(k)))
                .find_map(Result::err),
            (Some(seen), column) => {
                for (k, (&g, r)) in lanes {
                    let value = column.map(|c| c.get(r));
                    let value = value.as_deref();
                    let retained = match seen {
                        Seen::Rows(set) => {
                            let row = &rows[r - base];
                            set.insert(g, row).then(|| tuple_bytes(row))
                        }
                        Seen::Values(set) => value
                            .filter(|v| !v.is_null() && set.insert(g, v))
                            .map(|v| VALUE_BYTES + value_heap_bytes(v)),
                    };
                    let Some(bytes) = retained else {
                        continue;
                    };
                    grown[k] += bytes;
                    if let Err(e) = accs[acc(g)].update(value) {
                        return Some((k, e));
                    }
                }
                None
            }
        }
    }

    /// The final aggregate values, group after group. Leaves no groups
    /// behind; [`Self::reset`] makes the state usable again.
    pub(crate) fn finish(&mut self) -> impl Iterator<Item = Value> + '_ {
        self.accs.drain(..).map(Accumulator::finish)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(func: AggFunc, distinct: bool, with_arg: bool) -> AggSpec {
        AggSpec {
            func,
            distinct,
            arg: with_arg.then_some(PhysExpr::Column(0)),
        }
    }

    /// One group over single-column rows; returns the value and the
    /// retained bytes.
    fn run_retained(spec: &AggSpec, values: &[Value]) -> (Value, u64) {
        let specs = [spec.clone()];
        let mut states = AggStates::new(&specs, 0);
        states.push_group();
        let mut retained = 0;
        for v in values {
            let t = Tuple::new(vec![v.clone()]);
            retained += states.fold(0, &t, |_| Ok(Cow::Borrowed(v))).unwrap();
        }
        let value = states.finish().next().unwrap();
        (value, retained)
    }

    fn run(spec: &AggSpec, values: &[Value]) -> Value {
        run_retained(spec, values).0
    }

    #[test]
    fn count_star_counts_rows_including_nulls() {
        let v = run(
            &spec(AggFunc::Count, false, false),
            &[Value::Int(1), Value::Null],
        );
        assert_eq!(v, Value::Int(2));
    }

    #[test]
    fn count_expr_skips_nulls() {
        let v = run(
            &spec(AggFunc::Count, false, true),
            &[Value::Int(1), Value::Null, Value::Int(2)],
        );
        assert_eq!(v, Value::Int(2));
    }

    #[test]
    fn count_distinct_rows_and_values() {
        let ints = |vs: &[i64]| vs.iter().map(|&v| Value::Int(v)).collect::<Vec<_>>();
        let (v, retained) = run_retained(&spec(AggFunc::Count, true, false), &ints(&[1, 1, 2]));
        assert_eq!(v, Value::Int(2));
        // Two first-seen one-column rows.
        assert_eq!(retained, 2 * tuple_bytes(&Tuple::new(ints(&[1]))));

        let (v, retained) = run_retained(
            &spec(AggFunc::Count, true, true),
            &[
                Value::Int(1),
                Value::Int(1),
                Value::Null,
                Value::text("abc"),
            ],
        );
        assert_eq!(v, Value::Int(2));
        assert_eq!(retained, 2 * VALUE_BYTES + 3);
    }

    #[test]
    fn distinct_sets_are_per_group() {
        // The same row in two groups counts once in each.
        let specs = [spec(AggFunc::Count, true, false)];
        let mut states = AggStates::new(&specs, 0);
        states.push_group();
        states.push_group();
        let t = Tuple::new(vec![Value::Int(7)]);
        for g in [0, 1, 0, 1, 1] {
            states.fold(g, &t, |_| unreachable!()).unwrap();
        }
        assert_eq!(
            states.finish().collect::<Vec<_>>(),
            vec![Value::Int(1), Value::Int(1)]
        );
    }

    #[test]
    fn sum_and_sum_distinct() {
        let vals = [Value::Int(1), Value::Int(1), Value::Int(2), Value::Null];
        assert_eq!(run(&spec(AggFunc::Sum, false, true), &vals), Value::Int(4));
        assert_eq!(run(&spec(AggFunc::Sum, true, true), &vals), Value::Int(3));
        // Empty / all-NULL → NULL.
        assert_eq!(run(&spec(AggFunc::Sum, false, true), &[]), Value::Null);
        assert_eq!(
            run(&spec(AggFunc::Sum, false, true), &[Value::Null]),
            Value::Null
        );
        assert_eq!(spec(AggFunc::Sum, true, true).empty_value(), Value::Null);
        assert_eq!(
            spec(AggFunc::Count, true, false).empty_value(),
            Value::Int(0)
        );
    }

    #[test]
    fn distinct_sum_and_avg_add_in_first_appearance_order() {
        // (1e16 + 1) - 1e16 = 0 in doubles; any other order of the three
        // distinct values gives 1.
        let vals = [1e16, 1.0, 1e16, -1e16, 1.0].map(Value::Float);
        assert_eq!(
            run(&spec(AggFunc::Sum, true, true), &vals),
            Value::Float(0.0)
        );
        assert_eq!(
            run(&spec(AggFunc::Avg, true, true), &vals),
            Value::Float(0.0)
        );
    }

    #[test]
    fn distinct_sum_and_avg_fail_at_the_offending_row() {
        let fold_all = |func, values: &[Value]| -> Vec<bool> {
            let specs = [spec(func, true, true)];
            let mut states = AggStates::new(&specs, 0);
            states.push_group();
            values
                .iter()
                .map(|v| {
                    let t = Tuple::new(vec![v.clone()]);
                    states.fold(0, &t, |_| Ok(Cow::Borrowed(v))).is_ok()
                })
                .collect()
        };
        let overflow = [Value::Int(i64::MAX), Value::Int(i64::MAX), Value::Int(1)];
        assert_eq!(fold_all(AggFunc::Sum, &overflow), [true, true, false]);
        let text = [Value::Int(1), Value::text("x"), Value::Int(2)];
        assert_eq!(fold_all(AggFunc::Avg, &text), [true, false, true]);
    }

    #[test]
    fn avg_variants() {
        let vals = [Value::Int(1), Value::Int(1), Value::Int(4)];
        assert_eq!(
            run(&spec(AggFunc::Avg, false, true), &vals),
            Value::Float(2.0)
        );
        assert_eq!(
            run(&spec(AggFunc::Avg, true, true), &vals),
            Value::Float(2.5)
        );
        assert_eq!(run(&spec(AggFunc::Avg, false, true), &[]), Value::Null);
    }

    #[test]
    fn min_max_ignore_nulls_and_distinct() {
        let vals = [Value::Int(5), Value::Null, Value::Int(2), Value::Int(9)];
        assert_eq!(run(&spec(AggFunc::Min, false, true), &vals), Value::Int(2));
        assert_eq!(run(&spec(AggFunc::Max, false, true), &vals), Value::Int(9));
        let (v, retained) = run_retained(&spec(AggFunc::Min, true, true), &vals);
        assert_eq!((v, retained), (Value::Int(2), 0));
        assert_eq!(run(&spec(AggFunc::Min, false, true), &[]), Value::Null);
    }

    #[test]
    fn mixed_numeric_sum() {
        let vals = [Value::Int(1), Value::Float(2.5)];
        assert_eq!(
            run(&spec(AggFunc::Sum, false, true), &vals),
            Value::Float(3.5)
        );
    }
}
