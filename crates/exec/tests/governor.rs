//! The governor through the executor's public API: run-invariant
//! counters, typed budget / cancellation errors, and — the contract of
//! DESIGN.md §5f — faults and budget trips landing on the checkpoint
//! and byte count the per-row sequence defines, at every chunk length
//! and worker count.

use std::sync::Arc;

use bypass_algebra::{AggFunc, BinOp};
use bypass_catalog::TableColumns;
use bypass_exec::{
    evaluate_with, AggSpec, ExecContext, ExecCounters, ExecOptions, JoinOn, JoinSpec, PhysExpr,
    PhysKind, PhysNode, Stage, ACC_BYTES,
};
use bypass_types::{
    tuple_bytes, value_heap_bytes, CancelToken, DataType, Error, FaultKind, Field, InjectedFault,
    Relation, ResourceKind, Schema, SortKey, Tuple, Value, SHARED_ROW_BYTES, VALUE_BYTES,
};

fn int_rel(name: &str, cols: &[&str], rows: &[Vec<i64>]) -> Arc<PhysNode> {
    let schema = Schema::new(
        cols.iter()
            .map(|c| Field::qualified(name, *c, DataType::Int))
            .collect(),
    );
    let rel = Relation::new(
        schema.clone(),
        rows.iter()
            .map(|r| r.iter().map(|&v| Value::Int(v)).collect())
            .collect(),
    );
    PhysNode::scan(TableColumns::new(rel))
}

fn cmp(op: BinOp, l: PhysExpr, r: PhysExpr) -> PhysExpr {
    PhysExpr::Binary {
        op,
        left: Box::new(l),
        right: Box::new(r),
    }
}

fn int(v: i64) -> PhysExpr {
    PhysExpr::Literal(Value::Int(v))
}

fn counters(plan: &Arc<PhysNode>, options: ExecOptions) -> ExecCounters {
    let mut ctx = ExecContext::new(options);
    ctx.eval_plan(plan).unwrap();
    ctx.counters()
}

/// A small plan with joins, aggregation and filtering:
/// σ(y>0)(a ⋈ b) grouped by x.
fn governed_plan() -> Arc<PhysNode> {
    let rows: Vec<Vec<i64>> = (0..50).map(|i| vec![i % 7, i]).collect();
    let a = int_rel("a", &["x", "y"], &rows);
    let b = int_rel("b", &["z"], &[vec![0], vec![1], vec![2], vec![3]]);
    let schema3 = Schema::new(vec![
        Field::new("x", DataType::Int),
        Field::new("y", DataType::Int),
        Field::new("z", DataType::Int),
    ]);
    let on = JoinOn::Loop(Some(cmp(
        BinOp::Eq,
        PhysExpr::Column(0),
        PhysExpr::Column(2),
    )));
    let spec = JoinSpec {
        right: b,
        on,
        defaults: None,
    };
    let joined = PhysNode::pipeline(a, vec![Stage::Probe(spec)], schema3.clone());
    let filter = PhysNode::pipeline(
        joined,
        vec![Stage::Filter(cmp(BinOp::Gt, PhysExpr::Column(1), int(0)))],
        schema3,
    );
    PhysNode::aggregate(
        filter,
        vec![0],
        vec![AggSpec {
            func: AggFunc::Count,
            distinct: true,
            arg: Some(1),
        }],
        Schema::new(vec![
            Field::new("x", DataType::Int),
            Field::new("n", DataType::Int),
        ]),
    )
}

#[test]
fn governor_counters_are_deterministic() {
    let plan = governed_plan();
    let first = counters(&plan, ExecOptions::default());
    assert!(first.checkpoints > 0);
    assert!(first.peak_memory_bytes > 0);
    for _ in 0..2 {
        assert_eq!(
            counters(&plan, ExecOptions::default()),
            first,
            "governor counters must be run-invariant"
        );
    }
    // Metrics collection must not move the governor: checkpoint
    // indices have to be identical so fault injection replays under
    // EXPLAIN ANALYZE too.
    let mut ctx = ExecContext::new(ExecOptions::default()).with_metrics();
    ctx.eval_plan(&plan).unwrap();
    assert_eq!(ctx.counters(), first);
}

#[test]
fn memory_budget_trips_with_typed_error() {
    let plan = governed_plan();
    // Measure the peak, then set the budget just below it.
    let peak = counters(&plan, ExecOptions::default()).peak_memory_bytes;
    let err = evaluate_with(
        &plan,
        ExecOptions {
            max_memory_bytes: Some(peak - 1),
            ..Default::default()
        },
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            Error::ResourceExhausted {
                resource: ResourceKind::Memory,
                ..
            }
        ),
        "{err}"
    );
    // At or above the peak, the run succeeds.
    evaluate_with(
        &plan,
        ExecOptions {
            max_memory_bytes: Some(peak),
            ..Default::default()
        },
    )
    .unwrap();
}

#[test]
fn cancel_token_stops_evaluation() {
    let plan = governed_plan();
    let token = CancelToken::new();
    let opts = ExecOptions {
        cancel: Some(token.clone()),
        ..Default::default()
    };
    // Not cancelled: runs fine.
    evaluate_with(&plan, opts.clone()).unwrap();
    // Pre-cancelled: fails at the first checkpoint with the typed
    // error, and resetting the token makes the same options work.
    token.cancel();
    let mut ctx = ExecContext::new(opts.clone());
    assert_eq!(ctx.eval_plan(&plan).unwrap_err(), Error::Cancelled);
    assert_eq!(ctx.counters().checkpoints, 1);
    token.reset();
    evaluate_with(&plan, opts).unwrap();
}

/// A bare scan root passes no checkpoint; the run still observes the
/// cancel token and the deadline once, without counting a checkpoint.
#[test]
fn a_bare_scan_root_polls_the_token_and_the_deadline() {
    let scan = int_rel("t", &["x"], &[vec![1], vec![2]]);
    let token = CancelToken::new();
    let cancel = ExecOptions {
        cancel: Some(token.clone()),
        ..Default::default()
    };
    let mut ctx = ExecContext::new(cancel.clone());
    assert_eq!(ctx.eval_plan(&scan).unwrap().len(), 2);
    assert_eq!(ctx.counters().checkpoints, 0);
    token.cancel();
    let mut ctx = ExecContext::new(cancel);
    assert_eq!(ctx.eval_plan(&scan).unwrap_err(), Error::Cancelled);
    assert_eq!(ctx.counters().checkpoints, 0);
    let expired = ExecOptions {
        timeout: Some(std::time::Duration::ZERO),
        ..Default::default()
    };
    let err = evaluate_with(&scan, expired).unwrap_err();
    assert!(
        matches!(
            err,
            Error::ResourceExhausted {
                resource: ResourceKind::Time,
                ..
            }
        ),
        "{err:?}"
    );
}

/// Scan → σ → Π → σ± → ∪̇ of both streams over 40 rows `(x, y, s)`, `s`
/// a text of varying length so Π's charges differ per row. σ mixes a
/// kernel term with one the interpreter must evaluate, so its chunks
/// interleave settled runs and open rows. The plan three times — one
/// pipeline per stage; σ and Π as one pipeline; and the latter with a
/// third σ term that raises a value error at row 25 — then σ and the
/// raising σ as the pipeline a `Γ_{x; COUNT(DISTINCT s)}` sinks into,
/// whose effects are replayed after σ's loop, and a Sort over σ and Π's
/// pipeline, which charges a handle per row. Each with its checkpoint
/// sequence under the per-row definition, up to the raising row's tick:
/// entry `k - 1` is the bytes in use when checkpoint `k` is passed. Then
/// the error the run ends with, if any.
fn chunked_plans() -> Vec<(Arc<PhysNode>, Vec<u64>, Option<Error>)> {
    let schema = Schema::new(vec![
        Field::new("x", DataType::Int),
        Field::new("y", DataType::Int),
        Field::new("s", DataType::Text),
    ]);
    let rows: Vec<Tuple> = (0..40i64)
        .map(|i| {
            Tuple::new(vec![
                Value::Int(i % 5),
                Value::Int(i),
                Value::text("ab".repeat(i as usize % 4)),
            ])
        })
        .collect();
    let scan = PhysNode::scan(TableColumns::new(Relation::new(
        schema.clone(),
        rows.clone(),
    )));
    // σ: x > 2 OR y + 0 < 12
    let two_terms = || {
        cmp(
            BinOp::Or,
            cmp(BinOp::Gt, PhysExpr::Column(0), int(2)),
            cmp(
                BinOp::Lt,
                cmp(BinOp::Add, PhysExpr::Column(1), int(0)),
                int(12),
            ),
        )
    };
    let sigma = || Stage::Filter(two_terms());
    // … OR 100 / (y - 25) > 0: reached by the rows the first two terms
    // leave open (x <= 2, y >= 12), FALSE on those before row 25, which
    // divides by zero.
    let raising = 25;
    let third = cmp(
        BinOp::Gt,
        cmp(
            BinOp::Div,
            int(100),
            cmp(BinOp::Sub, PhysExpr::Column(1), int(raising)),
        ),
        int(0),
    );
    let raising_sigma = || Stage::Filter(cmp(BinOp::Or, two_terms(), third.clone()));
    let kept = |t: &&Tuple| t[0] > Value::Int(2) || t[1] < Value::Int(12);
    let projected = schema.project(&[2, 1]);
    let pi = Stage::Project(vec![PhysExpr::Column(2), PhysExpr::Column(1)]);
    let split = PhysNode::pipeline(
        PhysNode::pipeline(scan.clone(), vec![sigma()], schema.clone()),
        vec![pi],
        projected.clone(),
    );
    let fused = |sigma| {
        PhysNode::pipeline(
            scan.clone(),
            vec![sigma, Stage::Pick(vec![2, 1])],
            projected.clone(),
        )
    };
    let plan = |input: Arc<PhysNode>| {
        // σ±: y >= 20
        let bypass = PhysNode::bypass(
            input,
            Stage::Filter(cmp(BinOp::GtEq, PhysExpr::Column(1), int(20))),
            projected.clone(),
            None,
            None,
        );
        let tap = |positive| {
            let source = bypass.clone();
            PhysNode::new(PhysKind::Stream { source, positive }, projected.clone())
        };
        let inputs = vec![tap(true), tap(false)];
        PhysNode::new(
            PhysKind::Union {
                inputs,
                distinct: false,
            },
            projected.clone(),
        )
    };

    let survivors: Vec<Tuple> = rows
        .iter()
        .filter(kept)
        .map(|t| t.project(&[2, 1]))
        .collect();
    let sequence = |fused: bool, raises: Option<i64>| {
        let mut used = 0u64;
        let mut sequence = Vec::new();
        let mut pass = |charge: Option<u64>| {
            used += charge.unwrap_or(0);
            sequence.push(used);
        };
        let mut kept_rows = survivors.iter();
        for t in &rows {
            // σ: tick, then — fused — the row goes on to Π at once.
            pass(None);
            if raises.is_some_and(|y| t[1] == Value::Int(y)) {
                return sequence;
            }
            match (kept(&t), fused) {
                (false, _) => {}
                // Π: tick, charge the fresh row; σ's charge is gone.
                (true, true) => {
                    pass(None);
                    pass(Some(tuple_bytes(kept_rows.next().unwrap())));
                }
                // σ: charge the row it keeps.
                (true, false) => pass(Some(SHARED_ROW_BYTES)),
            }
        }
        if !fused {
            // Π over σ's relation: tick, charge the fresh row.
            for p in &survivors {
                pass(None);
                pass(Some(tuple_bytes(p)));
            }
        }
        // σ±: tick, then charge the row it routes.
        for _ in &survivors {
            pass(None);
            pass(Some(SHARED_ROW_BYTES));
        }
        // ∪̇: one charge for both streams.
        pass(Some(survivors.len() as u64 * SHARED_ROW_BYTES));
        sequence
    };
    // Γ_{x; COUNT(DISTINCT s)} as the sink of σ: it charges a new group
    // and each value first seen in a group.
    let gamma = |sigma| {
        let input = PhysNode::pipeline(scan.clone(), vec![sigma], schema.clone());
        let aggs = vec![AggSpec {
            func: AggFunc::Count,
            distinct: true,
            arg: Some(2),
        }];
        let out = Schema::new(vec![
            Field::new("x", DataType::Int),
            Field::new("n", DataType::Int),
        ]);
        PhysNode::aggregate(input, vec![0], aggs, out)
    };
    let grouped = |raises: Option<i64>| {
        let mut used = 0u64;
        let mut sequence = Vec::new();
        let mut pass = |charge: Option<u64>| {
            used += charge.unwrap_or(0);
            sequence.push(used);
        };
        // σ: tick; the rows it keeps are not charged but folded.
        for t in &rows {
            pass(None);
            if raises.is_some_and(|y| t[1] == Value::Int(y)) {
                return sequence;
            }
        }
        // Γ, replayed after σ's loop: tick per kept row, charge its group
        // if new and its value if new to the group, then the output rows.
        let mut groups: Vec<(Value, Vec<Value>)> = Vec::new();
        for t in rows.iter().filter(kept) {
            pass(None);
            let g = match groups.iter().position(|(x, _)| *x == t[0]) {
                Some(g) => g,
                None => {
                    groups.push((t[0].clone(), Vec::new()));
                    pass(Some(VALUE_BYTES + ACC_BYTES));
                    groups.len() - 1
                }
            };
            if !groups[g].1.contains(&t[2]) {
                groups[g].1.push(t[2].clone());
                pass(Some(VALUE_BYTES + value_heap_bytes(&t[2])));
            }
        }
        for (x, seen) in &groups {
            pass(Some(tuple_bytes(&Tuple::new(vec![
                x.clone(),
                Value::Int(seen.len() as i64),
            ]))));
        }
        sequence
    };
    // Sort over the fused σ/Π, on `y` descending then `s`: the pipeline's
    // sequence, then per row a tick and the charge of its handle.
    let sort = PhysKind::Sort {
        input: fused(sigma()),
        keys: vec![SortKey::desc(1), SortKey::asc(0)],
    };
    let sorted = PhysNode::new(sort, projected.clone());
    let sorted_sequence = {
        let mut sequence = Vec::new();
        let mut used = 0u64;
        for t in &rows {
            sequence.push(used);
            if kept(&t) {
                sequence.push(used);
                used += tuple_bytes(&t.project(&[2, 1]));
                sequence.push(used);
            }
        }
        for _ in &survivors {
            sequence.push(used);
            used += SHARED_ROW_BYTES;
            sequence.push(used);
        }
        sequence
    };
    let division = Error::execution("integer division by zero");
    let mut plans = vec![
        (sorted, sorted_sequence, None),
        (plan(split), sequence(false, None), None),
        (plan(fused(sigma())), sequence(true, None), None),
        (
            plan(fused(raising_sigma())),
            sequence(true, Some(raising)),
            Some(division.clone()),
        ),
        (gamma(sigma()), grouped(None), None),
        (
            gamma(raising_sigma()),
            grouped(Some(raising)),
            Some(division),
        ),
    ];
    plans.extend(table_hash_plans());
    plans
}

/// The hash loops that read their input a chunk at a time, over 40
/// rows `(x, y, s)` as in [`chunked_plans`], each with its checkpoint
/// sequence under the per-row definition: `Γ_{x; SUM(y), COUNT(DISTINCT
/// s)}` over the scan — and again with an overflowing SUM at row 27 —,
/// a dimension of 10 keys `3j` joined with the rows on `y` by a build
/// over the rows restricted to its keys, and the rows joined with it by
/// a probe head over the scan. Then each again over an intermediate
/// relation, read through transient columns: Γ over a copy of the rows,
/// the restricted build probed by a copy of the dimension, and the probe
/// head over the output of a σ.
fn table_hash_plans() -> Vec<(Arc<PhysNode>, Vec<u64>, Option<Error>)> {
    let schema = Schema::new(vec![
        Field::new("x", DataType::Int),
        Field::new("y", DataType::Int),
        Field::new("s", DataType::Text),
    ]);
    let overflowing = 27;
    let rows = |overflow: bool| -> Vec<Tuple> {
        (0..40i64)
            .map(|i| {
                let y = if overflow && i == overflowing {
                    i64::MAX
                } else {
                    i
                };
                Tuple::new(vec![
                    Value::Int(i % 5),
                    Value::Int(y),
                    Value::text("ab".repeat(i as usize % 4)),
                ])
            })
            .collect()
    };
    let scan =
        |rows: Vec<Tuple>| PhysNode::scan(TableColumns::new(Relation::new(schema.clone(), rows)));
    // An intermediate relation with the rows of `input`: one charge of
    // their handles.
    let copy = |input: Arc<PhysNode>| {
        let schema = input.schema.clone();
        PhysNode::new(
            PhysKind::Limit {
                input,
                n: usize::MAX,
            },
            schema,
        )
    };
    let aggs = vec![
        AggSpec {
            func: AggFunc::Sum,
            distinct: false,
            arg: Some(1),
        },
        AggSpec {
            func: AggFunc::Count,
            distinct: true,
            arg: Some(2),
        },
    ];
    let out = Schema::new(
        ["x", "s", "n"]
            .map(|n| Field::new(n, DataType::Int))
            .to_vec(),
    );
    let gamma = |input| PhysNode::aggregate(input, vec![0], aggs.clone(), out.clone());
    // Γ: per row a tick, its new group's charge, the charge of its value
    // if new to the group; then the output rows. At the overflowing row
    // the run ends after its tick: its group is there already.
    let grouped = |overflow: bool| {
        let (mut used, mut sequence) = (0u64, Vec::new());
        let mut pass = |charge: u64| {
            used += charge;
            sequence.push(used);
        };
        let mut groups: Vec<(i64, i64, Vec<Value>)> = Vec::new();
        for (i, t) in rows(false).iter().enumerate() {
            pass(0);
            if overflow && i as i64 == overflowing {
                return sequence;
            }
            let x = i as i64 % 5;
            let g = match groups.iter().position(|g| g.0 == x) {
                Some(g) => g,
                None => {
                    groups.push((x, 0, Vec::new()));
                    pass(VALUE_BYTES + 2 * ACC_BYTES);
                    groups.len() - 1
                }
            };
            groups[g].1 += i as i64;
            if !groups[g].2.contains(&t[2]) {
                groups[g].2.push(t[2].clone());
                pass(VALUE_BYTES + value_heap_bytes(&t[2]));
            }
        }
        for (x, sum, seen) in &groups {
            let row = [*x, *sum, seen.len() as i64].map(Value::Int);
            pass(tuple_bytes(&Tuple::new(row.to_vec())));
        }
        sequence
    };
    let before = (2..overflowing).step_by(5).sum::<i64>();
    let overflow = Error::execution(format!("integer overflow in {before} + {}", i64::MAX));

    let dims = || {
        let dims: Vec<Vec<i64>> = (0..10).map(|j| vec![3 * j]).collect();
        int_rel("d", &["k"], &dims)
    };
    let join = |left: Arc<PhysNode>, right: Arc<PhysNode>, keys: (usize, usize)| {
        let fields = left.schema.fields().iter().chain(right.schema.fields());
        let schema = Schema::new(fields.cloned().collect());
        let spec = JoinSpec {
            right,
            on: JoinOn::Hash {
                left_keys: vec![keys.0],
                right_keys: vec![keys.1],
                residual: None,
            },
            defaults: None,
        };
        PhysNode::pipeline(left, vec![Stage::Probe(spec)], schema)
    };
    // A join entry's overhead beyond its key values (`JOIN_ENTRY_BYTES`).
    let entry = 16;
    let partner = |y: i64| y % 3 == 0 && y < 30;
    let pair_bytes = |y: i64| {
        let t = &rows(false)[y as usize];
        let mut values = vec![Value::Int(y)];
        values.extend(t.values().iter().cloned());
        tuple_bytes(&Tuple::new(values))
    };
    let pair_bytes_right = |y: i64| {
        let t = &rows(false)[y as usize];
        let mut values = t.values().to_vec();
        values.push(Value::Int(y));
        tuple_bytes(&Tuple::new(values))
    };
    // dims ⋈ rows: the dimension's ten keys admitted (a charge each),
    // then per row a tick and — its key admitted — its entry's charge;
    // then per dimension row a tick and its one pair's charge.
    let mut restricted = Vec::new();
    let mut used = 0u64;
    let mut pass = |charge: u64, sequence: &mut Vec<u64>| {
        used += charge;
        sequence.push(used);
    };
    for _ in 0..10 {
        pass(VALUE_BYTES, &mut restricted);
    }
    for y in 0..40 {
        pass(0, &mut restricted);
        if partner(y) {
            pass(entry, &mut restricted);
        }
    }
    for j in 0..10 {
        pass(0, &mut restricted);
        pass(pair_bytes(3 * j), &mut restricted);
    }
    // rows ⋈ dims: a full build over the dimension (a tick and an entry
    // with its key per row), then per row a tick and, with a partner,
    // its pair's charge.
    let mut probed = Vec::new();
    let mut used = 0u64;
    let mut pass = |charge: u64, sequence: &mut Vec<u64>| {
        used += charge;
        sequence.push(used);
    };
    for _ in 0..10 {
        pass(0, &mut probed);
        pass(entry + VALUE_BYTES, &mut probed);
    }
    for y in 0..40 {
        pass(0, &mut probed);
        if partner(y) {
            pass(pair_bytes_right(y), &mut probed);
        }
    }
    // rows ⋈ dims over σ_{x > 0}(rows): σ ticks each row and charges the
    // handle of each it keeps; then as above over the rows it kept.
    let kept = |y: i64| y % 5 > 0;
    let sigma = PhysNode::pipeline(
        scan(rows(false)),
        vec![Stage::Filter(cmp(BinOp::Gt, PhysExpr::Column(0), int(0)))],
        schema.clone(),
    );
    let mut filtered = Vec::new();
    let mut used = 0u64;
    let mut pass = |charge: u64, sequence: &mut Vec<u64>| {
        used += charge;
        sequence.push(used);
    };
    for y in 0..40 {
        pass(0, &mut filtered);
        if kept(y) {
            pass(SHARED_ROW_BYTES, &mut filtered);
        }
    }
    for _ in 0..10 {
        pass(0, &mut filtered);
        pass(entry + VALUE_BYTES, &mut filtered);
    }
    for y in (0..40).filter(|&y| kept(y)) {
        pass(0, &mut filtered);
        if partner(y) {
            pass(pair_bytes_right(y), &mut filtered);
        }
    }
    // A copy charges its rows' handles at one checkpoint before the loop.
    let copied = |rows: u64, sequence: &[u64]| {
        let bytes = rows * SHARED_ROW_BYTES;
        std::iter::once(bytes)
            .chain(sequence.iter().map(|used| used + bytes))
            .collect::<Vec<u64>>()
    };
    vec![
        (gamma(scan(rows(false))), grouped(false), None),
        (
            gamma(scan(rows(true))),
            grouped(true),
            Some(overflow.clone()),
        ),
        (
            join(dims(), scan(rows(false)), (0, 1)),
            restricted.clone(),
            None,
        ),
        (join(scan(rows(false)), dims(), (1, 0)), probed, None),
        (
            gamma(copy(scan(rows(false)))),
            copied(40, &grouped(false)),
            None,
        ),
        (
            gamma(copy(scan(rows(true)))),
            copied(40, &grouped(true)),
            Some(overflow),
        ),
        (
            join(copy(dims()), scan(rows(false)), (0, 1)),
            copied(10, &restricted),
            None,
        ),
        (join(sigma, dims(), (1, 0)), filtered, None),
    ]
}

/// Chunk lengths × worker counts (2-row morsels, so 40 rows fan out).
fn mechanisms() -> Vec<ExecOptions> {
    let mut out = Vec::new();
    for batch_rows in [1, 3, 256] {
        for (threads, morsel_rows) in [(1, 4096), (8, 2)] {
            out.push(ExecOptions {
                batch_rows,
                threads,
                morsel_rows,
                ..Default::default()
            });
        }
    }
    out
}

#[test]
fn counters_follow_the_per_row_sequence_at_every_chunk_length() {
    for (plan, sequence, error) in chunked_plans() {
        for options in mechanisms() {
            let mut ctx = ExecContext::new(options.clone());
            assert_eq!(ctx.eval_plan(&plan).err(), error, "{options:?}");
            let c = ctx.counters();
            assert_eq!(c.checkpoints, sequence.len() as u64, "{options:?}");
            assert_eq!(
                c.peak_memory_bytes,
                *sequence.last().unwrap(),
                "{options:?}"
            );
        }
    }
}

#[test]
fn injected_faults_fire_at_exact_checkpoints() {
    for (plan, sequence, error) in chunked_plans() {
        faults_fire_at_exact_checkpoints(&plan, &sequence, error);
    }
}

/// A fault at any checkpoint of `sequence` fires there; one past it is
/// never reached, and the run ends as it does without one — with
/// `error`, raised after the sequence's last checkpoint, if any.
fn faults_fire_at_exact_checkpoints(plan: &Arc<PhysNode>, sequence: &[u64], error: Option<Error>) {
    for (k, &used) in (1u64..).zip(sequence) {
        for kind in [FaultKind::Memory, FaultKind::Deadline, FaultKind::Cancel] {
            let expected = match kind {
                FaultKind::Memory => Error::resource_exhausted(ResourceKind::Memory, used, used),
                FaultKind::Deadline => Error::resource_exhausted(ResourceKind::Time, 0, 0),
                FaultKind::Cancel => Error::Cancelled,
            };
            for options in mechanisms() {
                let mut ctx = ExecContext::new(ExecOptions {
                    fault: Some(InjectedFault::new(k, kind)),
                    ..options.clone()
                });
                let err = ctx.eval_plan(plan).unwrap_err();
                assert_eq!(err, expected, "checkpoint {k} {kind:?} under {options:?}");
                assert_eq!(ctx.counters().checkpoints, k, "{kind:?} under {options:?}");
            }
        }
    }
    for options in mechanisms() {
        let mut ctx = ExecContext::new(ExecOptions {
            fault: Some(InjectedFault::new(
                sequence.len() as u64 + 1,
                FaultKind::Cancel,
            )),
            ..options.clone()
        });
        assert_eq!(ctx.eval_plan(plan).err(), error, "under {options:?}");
        let at = ctx.counters().checkpoints;
        assert_eq!(at, sequence.len() as u64, "under {options:?}");
    }
}

#[test]
fn memory_budget_trips_at_the_exact_charge_inside_a_chunk() {
    for (plan, sequence, error) in chunked_plans() {
        budgets_trip_at_the_exact_charge(&plan, &sequence, error);
    }
}

/// A budget one byte short of any charge of `sequence` trips there; one
/// the whole sequence fits lets the run end as it does unbudgeted.
fn budgets_trip_at_the_exact_charge(plan: &Arc<PhysNode>, sequence: &[u64], error: Option<Error>) {
    let mut before = 0;
    for &used in sequence {
        // A budget one byte short of what a charge needs trips at that
        // charge, wherever in a chunk or morsel it falls.
        if used > before {
            let expected = Error::resource_exhausted(ResourceKind::Memory, used - 1, used);
            for options in mechanisms() {
                let err = evaluate_with(
                    plan,
                    ExecOptions {
                        max_memory_bytes: Some(used - 1),
                        ..options.clone()
                    },
                )
                .unwrap_err();
                assert_eq!(err, expected, "under {options:?}");
            }
        }
        before = used;
    }
    for options in mechanisms() {
        let fits = ExecOptions {
            max_memory_bytes: Some(before),
            ..options.clone()
        };
        assert_eq!(evaluate_with(plan, fits).err(), error, "under {options:?}");
    }
}

/// σ over 24 rows whose predicate re-evaluates a correlated COUNT(*)
/// block — Γ(σ(k = outer.x OR v > 4)(inner)) — per row: one row weighs
/// 2 + |inner| work units, so at `morsel_rows = 2` every outer row is a
/// morsel of its own and 8 workers serve about three morsels each.
fn nested_plan() -> Arc<PhysNode> {
    let outer: Vec<Vec<i64>> = (0..24).map(|i| vec![i % 4, i]).collect();
    let inner: Vec<Vec<i64>> = (0..6).map(|i| vec![i % 3, i]).collect();
    let outer = int_rel("o", &["x", "y"], &outer);
    let inner = int_rel("i", &["k", "v"], &inner);
    let inner_schema = inner.schema.clone();
    let matching = PhysNode::pipeline(
        inner,
        vec![Stage::Filter(cmp(
            BinOp::Or,
            cmp(
                BinOp::Eq,
                PhysExpr::Column(0),
                PhysExpr::Outer { depth: 1, index: 0 },
            ),
            cmp(BinOp::Gt, PhysExpr::Column(1), int(4)),
        ))],
        inner_schema,
    );
    let count = PhysNode::aggregate(
        matching,
        vec![],
        vec![AggSpec {
            func: AggFunc::Count,
            distinct: false,
            arg: None,
        }],
        Schema::new(vec![Field::new("n", DataType::Int)]),
    );
    let schema = outer.schema.clone();
    PhysNode::pipeline(
        outer,
        vec![Stage::Filter(cmp(
            BinOp::Lt,
            PhysExpr::Column(0),
            PhysExpr::Subquery {
                plan: count,
                correlated: true,
                outer_keys: vec![0],
            },
        ))],
        schema,
    )
}

/// The per-morsel tally cut: a worker keeps its context — and with it
/// its governor — for every morsel it pulls, and hands the master one
/// tally per morsel. A fault at any checkpoint of the nested evaluations must
/// land where the serial run puts it, whichever worker ran the morsel
/// and whatever it had run before.
#[test]
fn faults_inside_nested_plans_land_identically_on_reused_workers() {
    let plan = nested_plan();
    let serial = ExecOptions {
        threads: 1,
        ..Default::default()
    };
    let forked = ExecOptions {
        threads: 8,
        morsel_rows: 2,
        ..Default::default()
    };
    let total = counters(&plan, serial.clone());
    assert_eq!(counters(&plan, forked.clone()), total);
    assert!(
        total.checkpoints > 24 * 6,
        "every outer row re-evaluates the block"
    );
    for k in 1..=total.checkpoints {
        for kind in [FaultKind::Memory, FaultKind::Deadline, FaultKind::Cancel] {
            let run = |options: &ExecOptions| {
                let mut ctx = ExecContext::new(ExecOptions {
                    fault: Some(InjectedFault::new(k, kind)),
                    ..options.clone()
                });
                let err = ctx.eval_plan(&plan).unwrap_err();
                (err, ctx.counters().checkpoints)
            };
            let expected = run(&serial);
            assert_eq!(expected.1, k, "{kind:?}");
            assert_eq!(run(&forked), expected, "checkpoint {k} {kind:?}");
        }
    }
}

/// `facts(k, v)` of 40 rows grouped by `k`, and both ways of hash-joining
/// it with a 10-row `dims(k)` — the loops that read a base table by
/// column — over the scans themselves or over a copy of each (a `Limit`
/// that keeps every row), an intermediate with the same rows that takes
/// the row route. With each plan, how many copies it holds and the rows
/// they charge for.
fn scan_rooted_plans(copied: bool) -> Vec<(&'static str, Arc<PhysNode>, u64, u64)> {
    let facts: Vec<Vec<i64>> = (0..40).map(|i| vec![(i * 7) % 13, i]).collect();
    let dims: Vec<Vec<i64>> = (0..10).map(|k| vec![2 * k]).collect();
    let table = |name: &str, cols: &[&str], rows: &[Vec<i64>]| {
        let scan = int_rel(name, cols, rows);
        match copied {
            false => scan,
            true => {
                let schema = scan.schema.clone();
                let n = usize::MAX;
                PhysNode::new(PhysKind::Limit { input: scan, n }, schema)
            }
        }
    };
    let f = || table("f", &["k", "v"], &facts);
    let d = || table("d", &["k"], &dims);
    let agg = |func, distinct, arg: Option<usize>| AggSpec {
        func,
        distinct,
        arg,
    };
    let gamma = PhysNode::aggregate(
        f(),
        vec![0],
        vec![
            agg(AggFunc::Sum, false, Some(1)),
            agg(AggFunc::Count, true, None),
        ],
        Schema::new(
            ["k", "s", "n"]
                .map(|n| Field::new(n, DataType::Int))
                .to_vec(),
        ),
    );
    let join = |left: Arc<PhysNode>, right: Arc<PhysNode>| {
        let fields = left.schema.fields().iter().chain(right.schema.fields());
        let schema = Schema::new(fields.cloned().collect());
        let spec = JoinSpec {
            right,
            on: JoinOn::Hash {
                left_keys: vec![0],
                right_keys: vec![0],
                residual: None,
            },
            defaults: None,
        };
        PhysNode::pipeline(left, vec![Stage::Probe(spec)], schema)
    };
    let mut plans = vec![
        ("Γ over facts", gamma, 1, 40),
        // The larger input probes: a full build over `dims`.
        ("facts ⋈ dims", join(f(), d()), 2, 50),
        // The smaller input probes: the build over `facts` admits only
        // the keys `dims` holds.
        ("dims ⋈ facts", join(d(), f()), 2, 50),
    ];
    plans.extend(pair_plans(copied));
    plans
}

/// Joins whose pairs are read cell by cell — by position over a scan,
/// by value over a copy — with what each plan's copies charge, as in
/// [`scan_rooted_plans`]: `wide(k, v, x, s)` of 40 rows (`x` a float
/// with NaN and `-0.0`, `s` a text of varying length or NULL) and
/// `names(k, name)` of 10, joined on `k` with a full build, a build
/// restricted to `names`' keys and a nested loop, each with a residual
/// over both sides and a `Pick` of text and numbers — the kept rows'
/// charges depend on the cells picked — and Γ folding the picked rows.
fn pair_plans(copied: bool) -> Vec<(&'static str, Arc<PhysNode>, u64, u64)> {
    let field = |n: &str, t| Field::new(n, t);
    let wide = (0..40i64).map(|i| {
        let x = match i % 9 {
            0 => f64::NAN,
            1 => -0.0,
            r => r as f64 * 1.5,
        };
        let s = match i % 4 {
            0 => Value::Null,
            r => Value::text("w".repeat(r as usize * 3)),
        };
        Tuple::new(vec![
            Value::Int((i * 7) % 13),
            Value::Int(i),
            Value::Float(x),
            s,
        ])
    });
    let names = (0..10i64)
        .map(|k| Tuple::new(vec![Value::Int(2 * k), Value::text("n".repeat(k as usize))]));
    let table = |fields: Vec<Field>, rows: Vec<Tuple>| {
        let scan = PhysNode::scan(TableColumns::new(Relation::new(Schema::new(fields), rows)));
        match copied {
            false => scan,
            true => {
                let schema = scan.schema.clone();
                let n = usize::MAX;
                PhysNode::new(PhysKind::Limit { input: scan, n }, schema)
            }
        }
    };
    let w = || {
        let fields = vec![
            field("k", DataType::Int),
            field("v", DataType::Int),
            field("x", DataType::Float),
            field("s", DataType::Text),
        ];
        table(fields, wide.clone().collect())
    };
    let n = || {
        let fields = vec![field("k", DataType::Int), field("name", DataType::Text)];
        table(fields, names.clone().collect())
    };
    // `residual(wide, names)`: where each side's columns start in the pair.
    let residual = |wide: usize, names: usize| {
        let null = PhysExpr::IsNull {
            negated: false,
            expr: Box::new(PhysExpr::Column(wide + 3)),
        };
        let sum = cmp(
            BinOp::Add,
            PhysExpr::Column(wide + 1),
            PhysExpr::Column(names),
        );
        let x = cmp(
            BinOp::GtEq,
            PhysExpr::Column(wide + 2),
            PhysExpr::Literal(Value::Float(0.0)),
        );
        cmp(
            BinOp::Or,
            cmp(BinOp::Gt, sum, int(20)),
            cmp(BinOp::And, x, null),
        )
    };
    let join = |left: Arc<PhysNode>, right: Arc<PhysNode>, on, pick: Vec<usize>| {
        let schema = Schema::new(pick.iter().map(|_| field("c", DataType::Unknown)).collect());
        let spec = JoinSpec {
            right,
            on,
            defaults: None,
        };
        PhysNode::pipeline(left, vec![Stage::Probe(spec), Stage::Pick(pick)], schema)
    };
    let hash = |residual| JoinOn::Hash {
        left_keys: vec![0],
        right_keys: vec![0],
        residual: Some(residual),
    };
    // wide ◦ names: k v x s | k name; names ◦ wide: k name | k v x s.
    let full = || join(w(), n(), hash(residual(0, 4)), vec![5, 3, 2, 1]);
    let admitted = join(n(), w(), hash(residual(2, 0)), vec![1, 5, 4, 3]);
    let on = cmp(
        BinOp::And,
        cmp(BinOp::Eq, PhysExpr::Column(0), PhysExpr::Column(2)),
        residual(2, 0),
    );
    let nested = join(n(), w(), JoinOn::Loop(Some(on)), vec![1, 5, 4, 3]);
    let agg = |func, distinct, arg: Option<usize>| AggSpec {
        func,
        distinct,
        arg,
    };
    let gamma = PhysNode::aggregate(
        full(),
        vec![0],
        vec![
            agg(AggFunc::Count, true, None),
            agg(AggFunc::Count, true, Some(1)),
            agg(AggFunc::Sum, false, Some(3)),
        ],
        Schema::new(
            ["name", "n", "d", "s"]
                .map(|n| field(n, DataType::Unknown))
                .to_vec(),
        ),
    );
    vec![
        ("wide ⋈ names, pairs picked", full(), 2, 50),
        ("names ⋈ wide, pairs picked", admitted, 2, 50),
        ("names ⋈ wide by a nested loop, pairs picked", nested, 2, 50),
        ("Γ over picked pairs", gamma, 2, 50),
    ]
}

/// A fault at any checkpoint of a Γ, a hash build or a hash probe over a
/// scan lands where it does over an intermediate holding the same rows:
/// the same checkpoint of the same loop — each copy passes one of its
/// own first — with the same bytes in use besides the copies' own.
#[test]
fn faults_over_a_scan_land_where_they_do_over_an_intermediate() {
    let mechanisms = [(1, 4096), (8, 2)].map(|(threads, morsel_rows)| ExecOptions {
        threads,
        morsel_rows,
        ..Default::default()
    });
    for ((name, scan, ..), (_, copy, copies, copy_rows)) in scan_rooted_plans(false)
        .into_iter()
        .zip(scan_rooted_plans(true))
    {
        let total = counters(&scan, mechanisms[0].clone());
        let held = copy_rows * SHARED_ROW_BYTES;
        let through_copy = counters(&copy, mechanisms[0].clone());
        assert_eq!(
            through_copy.checkpoints,
            total.checkpoints + copies,
            "{name}"
        );
        assert_eq!(
            through_copy.peak_memory_bytes,
            total.peak_memory_bytes + held,
            "{name}"
        );
        assert!(total.checkpoints >= 40, "{name}: a tick per fact row");
        assert!(total.peak_memory_bytes > 0, "{name}: a vacuous case");
        for k in 1..=total.checkpoints {
            for kind in [FaultKind::Memory, FaultKind::Deadline, FaultKind::Cancel] {
                let run = |plan: &Arc<PhysNode>, at: u64, options: &ExecOptions| {
                    let mut ctx = ExecContext::new(ExecOptions {
                        fault: Some(InjectedFault::new(at, kind)),
                        ..options.clone()
                    });
                    let err = ctx.eval_plan(plan).unwrap_err();
                    (err, ctx.counters().checkpoints)
                };
                let (err, at) = run(&scan, k, &mechanisms[0]);
                assert_eq!(at, k, "{name} {kind:?}");
                let shifted = match err.clone() {
                    Error::ResourceExhausted {
                        resource: ResourceKind::Memory,
                        limit,
                        observed,
                    } => Error::resource_exhausted(
                        ResourceKind::Memory,
                        limit + held,
                        observed + held,
                    ),
                    other => other,
                };
                for options in &mechanisms {
                    let at = format!("{name}: checkpoint {k} {kind:?} under {options:?}");
                    assert_eq!(run(&scan, k, options), (err.clone(), k), "{at}");
                    assert_eq!(
                        run(&copy, k + copies, options),
                        (shifted.clone(), k + copies),
                        "{at}, over the copy"
                    );
                }
            }
        }
    }
}

/// A budget one byte short of a new high-water mark of a plan over
/// scans trips there, and one as much short of the same mark over an
/// intermediate holding the same rows trips at the same charge: the
/// bytes in use at every checkpoint are what a Memory fault there
/// reports, and over the copy they come on top of what the copies hold.
#[test]
fn budgets_over_a_scan_trip_where_they_do_over_an_intermediate() {
    let mechanisms = [(1, 4096), (8, 2)].map(|(threads, morsel_rows)| ExecOptions {
        threads,
        morsel_rows,
        ..Default::default()
    });
    for ((name, scan, ..), (_, copy, _, copy_rows)) in scan_rooted_plans(false)
        .into_iter()
        .zip(scan_rooted_plans(true))
    {
        let held = copy_rows * SHARED_ROW_BYTES;
        let checkpoints = counters(&scan, mechanisms[0].clone()).checkpoints;
        let used = (1..=checkpoints).map(|k| {
            let mut ctx = ExecContext::new(ExecOptions {
                fault: Some(InjectedFault::new(k, FaultKind::Memory)),
                ..mechanisms[0].clone()
            });
            match ctx.eval_plan(&scan).unwrap_err() {
                Error::ResourceExhausted { observed, .. } => observed,
                other => panic!("{name}: checkpoint {k}: {other}"),
            }
        });
        let mut peak = 0;
        let mut charges = 0;
        for used in used.collect::<Vec<_>>() {
            // A charge past every earlier one: nothing before it trips.
            if used > peak {
                charges += 1;
                for options in &mechanisms {
                    let at = format!("{name}: {used} bytes under {options:?}");
                    let run = |plan, budget| {
                        let options = ExecOptions {
                            max_memory_bytes: Some(budget),
                            ..options.clone()
                        };
                        evaluate_with(plan, options).unwrap_err()
                    };
                    let short = Error::resource_exhausted(ResourceKind::Memory, used - 1, used);
                    assert_eq!(run(&scan, used - 1), short, "{at}");
                    let shifted = Error::resource_exhausted(
                        ResourceKind::Memory,
                        used - 1 + held,
                        used + held,
                    );
                    assert_eq!(run(&copy, used - 1 + held), shifted, "{at}, over the copy");
                }
            }
            peak = peak.max(used);
        }
        assert!(charges > 0, "{name}: a vacuous case");
    }
}
