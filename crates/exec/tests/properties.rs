//! Property-based tests of the physical operators' algebraic
//! invariants — the facts Section 3.7 of the paper relies on:
//!
//! * a bypass selection *partitions* its input (no tuple lost or
//!   duplicated, for any predicate, including UNKNOWN outcomes),
//! * a bypass join partitions the cross product,
//! * hash join ≡ nested-loop join on equality predicates,
//! * binary grouping, planned as the outerjoin-with-defaults of its left
//!   input with the grouped right input, folds per left row the right
//!   rows with its non-NULL key, empty groups getting `f(∅)`,
//! * the outerjoin-with-defaults has exactly the left cardinality when
//!   the right side has unique keys,
//! * a fused pipeline — headed by a σ, Π, χ or join, or a bypass
//!   operator's stream — returns exactly the rows of the same operators
//!   run one pipeline each, and charges the same but the intermediates,
//! * a Γ that sinks its input pipeline returns the rows, floats bit for
//!   bit, or the first error of its unfused twin, with exactly the
//!   intermediate charges fewer,
//! * the chunked σ/σ±/column-Π loops produce the row sequences, the
//!   checkpoint count and the peak bytes of evaluating the predicate
//!   row by row,
//! * a simple predicate has one truth value, whichever route evaluates
//!   it: the `Value` interpreter, the borrow-only fast path over a
//!   tuple or a join's row view, or σ's column loops.
//!
//! Runs on the in-tree `bypass-check` harness; failures print a
//! `BYPASS_CHECK_SEED=…` line that replays the minimized input.

use std::sync::Arc;

use bypass_algebra::{AggCall, AggFunc, BinOp, PlanBuilder, Scalar};
use bypass_catalog::{Catalog, TableColumns};
use bypass_check::{
    bool_any, forall_cases, int_range, option_weighted, tuple2, tuple3, tuple4, vec_of, Gen,
};
use bypass_exec::{
    evaluate, evaluate_with, physical_plan, value_truth, AggSpec, Chain, ExecContext, ExecOptions,
    JoinOn, JoinSpec, PhysExpr, PhysKind, PhysNode, RowView, Stage,
};
use bypass_types::{
    tuple_bytes, Column, DataType, Field, Relation, Schema, Truth, Tuple, Value, SHARED_ROW_BYTES,
};

const CASES: u32 = 64;

/// A small integer column with NULLs.
fn arb_column(len: usize) -> Gen<Vec<Option<i64>>> {
    vec_of(option_weighted(0.85, int_range(0, 7)), len, len)
}

fn rel2(name: &str, a: &[Option<i64>], b: &[Option<i64>]) -> Arc<PhysNode> {
    let schema = Schema::new(vec![
        Field::qualified(name, "x", DataType::Int),
        Field::qualified(name, "y", DataType::Int),
    ]);
    let rows = a
        .iter()
        .zip(b)
        .map(|(x, y)| {
            Tuple::new(vec![
                x.map(Value::Int).unwrap_or(Value::Null),
                y.map(Value::Int).unwrap_or(Value::Null),
            ])
        })
        .collect();
    PhysNode::scan(TableColumns::new(Relation::new(schema.clone(), rows)))
}

fn col(i: usize) -> PhysExpr {
    PhysExpr::Column(i)
}

fn cmp(op: BinOp, l: PhysExpr, r: PhysExpr) -> PhysExpr {
    PhysExpr::Binary {
        op,
        left: Box::new(l),
        right: Box::new(r),
    }
}

fn join(
    left: Arc<PhysNode>,
    right: Arc<PhysNode>,
    on: JoinOn,
    defaults: Option<Vec<(usize, Value)>>,
    schema: Schema,
) -> Arc<PhysNode> {
    let spec = JoinSpec {
        right,
        on,
        defaults,
    };
    PhysNode::pipeline(left, vec![Stage::Probe(spec)], schema)
}

fn hash_on(left_key: usize, right_key: usize) -> JoinOn {
    JoinOn::Hash {
        left_keys: vec![col(left_key)],
        right_keys: vec![col(right_key)],
        residual: None,
    }
}

/// A tap of `source`'s positive or negative stream, under the schema of
/// the rows that stream carries.
fn stream(source: &Arc<PhysNode>, positive: bool) -> Arc<PhysNode> {
    let schema = match &source.kind {
        PhysKind::Pipeline { neg: Some(neg), .. } if !positive => neg.schema.clone(),
        _ => source.schema.clone(),
    };
    let source = source.clone();
    PhysNode::new(PhysKind::Stream { source, positive }, schema)
}

#[test]
fn bypass_filter_partitions_input() {
    forall_cases(
        CASES,
        &tuple3(arb_column(20), arb_column(20), int_range(0, 7)),
        |(xs, ys, threshold)| {
            let scan = rel2("r", xs, ys);
            let input = evaluate(&scan).unwrap();
            let bypass = PhysNode::bypass(
                scan,
                Stage::Filter(cmp(
                    BinOp::Gt,
                    col(0),
                    PhysExpr::Literal(Value::Int(*threshold)),
                )),
                input.schema().clone(),
                None,
                None,
            );
            let pos = evaluate(&stream(&bypass, true)).unwrap();
            let neg = evaluate(&stream(&bypass, false)).unwrap();
            // Partition: pos ∪̇ neg == input as bags.
            assert_eq!(pos.len() + neg.len(), input.len());
            let union = [pos.rows(), neg.rows()].concat();
            assert!(Relation::new(input.schema().clone(), union).bag_eq(&input));
        },
    );
}

#[test]
fn bypass_join_partitions_cross_product() {
    forall_cases(
        CASES,
        &tuple4(arb_column(8), arb_column(8), arb_column(6), arb_column(6)),
        |(xs, ys, zs, ws)| {
            let l = rel2("l", xs, ys);
            let r = rel2("r", zs, ws);
            let joined_schema = l.schema.concat(&r.schema);
            let bypass = PhysNode::bypass(
                l.clone(),
                Stage::Probe(JoinSpec {
                    right: r.clone(),
                    on: JoinOn::Loop(Some(cmp(BinOp::Eq, col(0), col(2)))),
                    defaults: None,
                }),
                joined_schema.clone(),
                None,
                None,
            );
            let pos = evaluate(&stream(&bypass, true)).unwrap();
            let neg = evaluate(&stream(&bypass, false)).unwrap();
            let cross = join(l, r, JoinOn::Loop(None), None, joined_schema);
            let cross = evaluate(&cross).unwrap();
            assert_eq!(pos.len() + neg.len(), cross.len());
            let union = [pos.rows(), neg.rows()].concat();
            assert!(Relation::new(cross.schema().clone(), union).bag_eq(&cross));
        },
    );
}

#[test]
fn hash_join_equals_nl_join() {
    forall_cases(
        CASES,
        &tuple4(
            arb_column(15),
            arb_column(15),
            arb_column(15),
            arb_column(15),
        ),
        |(xs, ys, zs, ws)| {
            let l = rel2("l", xs, ys);
            let r = rel2("r", zs, ws);
            let schema = l.schema.concat(&r.schema);
            let hash = join(l.clone(), r.clone(), hash_on(0, 0), None, schema.clone());
            let on = JoinOn::Loop(Some(cmp(BinOp::Eq, col(0), col(2))));
            let nl = join(l, r, on, None, schema);
            assert!(evaluate(&hash).unwrap().bag_eq(&evaluate(&nl).unwrap()));
        },
    );
}

/// A NULL-heavy key column whose numbers come as `Int` or as the equal
/// `Float`.
fn arb_twin_keys(len: usize) -> Gen<Vec<Option<(i64, bool)>>> {
    vec_of(
        option_weighted(0.5, tuple2(int_range(0, 3), bool_any())),
        len,
        len,
    )
}

/// `(key, y, d)` rows: keys from [`arb_twin_keys`], `y` from
/// [`arb_column`], and `d` zero exactly where the key is NULL.
fn twin_keyed(keys: &[Option<(i64, bool)>], ys: &[Option<i64>]) -> Relation {
    let schema = Schema::new(
        ["k", "y", "d"]
            .map(|c| Field::new(c, DataType::Int))
            .to_vec(),
    );
    let rows = keys
        .iter()
        .zip(ys)
        .map(|(k, y)| {
            let k = match k {
                None => Value::Null,
                Some((k, false)) => Value::Int(*k),
                Some((k, true)) => Value::Float(*k as f64),
            };
            let d = Value::Int(!k.is_null() as i64);
            Tuple::new(vec![k, y.map_or(Value::Null, Value::Int), d])
        })
        .collect();
    Relation::new(schema, rows)
}

/// The logical Γᵇ, planned as the physical planner lowers it, against
/// its definition (Fig. 1): per left row, `f` over the right rows whose
/// non-NULL key equals the left row's, `f(∅)` when there is none. Keys
/// come as `Int` or the equal `Float`, NULL on both sides; `SUM(1 / d)`
/// divides by zero on exactly the right rows whose key is NULL, which
/// are never folded.
#[test]
fn binary_group_folds_the_right_rows_of_each_left_key() {
    forall_cases(
        CASES,
        &tuple4(
            arb_twin_keys(10),
            arb_column(10),
            arb_twin_keys(12),
            arb_column(12),
        ),
        |(lk, ly, rk, ry)| {
            let (l, r) = (twin_keyed(lk, ly), twin_keyed(rk, ry));
            let mut catalog = Catalog::new();
            catalog.register("l", l.clone()).unwrap();
            catalog.register("r", r.clone()).unwrap();
            let scan = |t: &str, rel: &Relation| PlanBuilder::scan(t, t, rel.schema().clone());
            let sum = |arg| AggCall::new(AggFunc::Sum, false, Some(arg));
            let one_per = Scalar::binary(BinOp::Div, Scalar::lit(1i64), Scalar::qcol("r", "d"));
            let aggs = [
                AggCall::count_star(),
                sum(Scalar::qcol("r", "y")),
                AggCall::count_distinct_star(),
                sum(one_per),
            ];
            for (a, agg) in aggs.into_iter().enumerate() {
                let plan = scan("l", &l)
                    .binary_group(
                        scan("r", &r),
                        Scalar::qcol("l", "k"),
                        Scalar::qcol("r", "k"),
                        agg,
                        "g",
                    )
                    .build();
                let phys = physical_plan(&plan, &catalog).unwrap();
                let want: Vec<Vec<Value>> = l
                    .rows()
                    .iter()
                    .map(|lt| {
                        let group: Vec<&Tuple> = r
                            .rows()
                            .iter()
                            .filter(|rt| !lt[0].is_null() && rt[0] == lt[0])
                            .collect();
                        let n = group.len() as i64;
                        let sum_y = group.iter().filter_map(|rt| match rt[1] {
                            Value::Int(y) => Some(y),
                            _ => None,
                        });
                        let mut distinct: Vec<&Tuple> = Vec::new();
                        for rt in &group {
                            if !distinct.iter().any(|d| d.values() == rt.values()) {
                                distinct.push(rt);
                            }
                        }
                        let g = match a {
                            0 => Value::Int(n),
                            1 => sum_y.reduce(|x, y| x + y).map_or(Value::Null, Value::Int),
                            2 => Value::Int(distinct.len() as i64),
                            _ if n > 0 => Value::Int(n),
                            _ => Value::Null,
                        };
                        lt.values().iter().cloned().chain([g]).collect()
                    })
                    .collect();
                for (threads, morsel_rows) in [(1, 4096), (8, 2)] {
                    let options = ExecOptions {
                        threads,
                        morsel_rows,
                        ..Default::default()
                    };
                    let got = evaluate_with(&phys, options).unwrap();
                    let got: Vec<Vec<Value>> =
                        got.rows().iter().map(|t| t.values().to_vec()).collect();
                    assert_eq!(
                        got,
                        want,
                        "aggregate #{a}, {threads} workers\n{}",
                        phys.explain()
                    );
                }
            }
        },
    );
}

#[test]
fn outer_join_unique_keys_has_left_cardinality() {
    forall_cases(
        CASES,
        &tuple2(arb_column(15), arb_column(15)),
        |(xs, ys)| {
            let l = rel2("l", xs, ys);
            // Unique right keys 0..5 with a payload.
            let keys: Vec<Option<i64>> = (0..5).map(Some).collect();
            let payload: Vec<Option<i64>> = (0..5).map(|i| Some(i * 100)).collect();
            let r = rel2("r", &keys, &payload);
            let schema = l.schema.concat(&r.schema);
            let defaults = Some(vec![(1, Value::Int(0))]);
            let oj = join(l.clone(), r, hash_on(0, 0), defaults, schema);
            let out = evaluate(&oj).unwrap();
            assert_eq!(out.len(), evaluate(&l).unwrap().len());
            // Unmatched rows carry the default, matched rows the payload.
            for row in out.rows() {
                match (&row[0], &row[2]) {
                    (Value::Int(k), Value::Int(k2)) => {
                        assert_eq!(k, k2);
                        assert_eq!(&row[3], &Value::Int(k * 100));
                    }
                    (_, Value::Null) => assert_eq!(&row[3], &Value::Int(0)),
                    other => panic!("unexpected row shape {other:?}"),
                }
            }
        },
    );
}

#[test]
fn distinct_is_idempotent_and_bounded() {
    forall_cases(
        CASES,
        &tuple2(arb_column(20), arb_column(20)),
        |(xs, ys)| {
            let scan = rel2("r", xs, ys);
            let schema = scan.schema.clone();
            let distinct = |input| {
                let kind = PhysKind::Union {
                    inputs: vec![input],
                    distinct: true,
                };
                PhysNode::new(kind, schema.clone())
            };
            let d1 = distinct(scan.clone());
            let d2 = distinct(d1.clone());
            let once = evaluate(&d1).unwrap();
            let twice = evaluate(&d2).unwrap();
            assert!(once.bag_eq(&twice));
            assert!(once.len() <= evaluate(&scan).unwrap().len());
        },
    );
}

/// Every source a pipeline can have, each run once with its stages
/// fused and once as one pipeline per stage: same rows in the same order
/// per stream, the same error, and counters that differ by exactly the
/// intermediate charges fusion drops, at chunk lengths 1 and 256 and at
/// 1 and 8 workers (2-row morsels).
///
/// * A ⋈± stream: `Π_{x, z, s}(χ_{s: x + z}(σ_{z ≥ t}(⋈±⁻_{l.x = r.x}(l, r)
///   ⟕_{l.y = g.x} g)))`, the `⟕ σ χ Π` a stream chain of the ⋈±.
/// * Row sources, each under a random stack of σ, Π and χ over NULL-heavy
///   rows with divisions that can raise: a scan under a σ head whose
///   kernel prefix reads an `Int`, a `Float` and a `Values` column, a Γ
///   output, and each stream of a σ±.
/// * Join heads, each under such a stack with a fused probe somewhere in
///   it: an inner hash join of a scan with a larger one (a restricted
///   build, keys read off the table), a ⟕ with `f(∅)` defaults over a Γ
///   output and a nested loop.
#[test]
fn fused_stage_chain_equals_standalone_operators() {
    forall_cases(
        CASES,
        &tuple3(
            typed_rows(12),
            tuple4(
                int_range(0, 7),
                int_range(0, 6),
                int_range(0, 3),
                bool_any(),
            ),
            tuple4(stack(), stack(), stack(), stack()),
        ),
        |(rows, (k0, f1, k2, raise), (on_scan, on_gamma, on_pos, on_neg))| {
            let int = |v: i64| PhysExpr::Literal(Value::Int(v));
            let scan = typed_scan(rows);
            // A division term after the kernel prefix runs row by row
            // and may raise.
            let or_raise = |p: PhysExpr| match raise {
                true => cmp(
                    BinOp::Or,
                    p,
                    cmp(BinOp::Gt, cmp(BinOp::Div, int(6), col(3)), int(1)),
                ),
                false => p,
            };
            let head = or_raise(cmp(
                BinOp::Or,
                cmp(
                    BinOp::Or,
                    cmp(BinOp::Gt, col(0), int(*k0)),
                    cmp(
                        BinOp::Lt,
                        col(1),
                        PhysExpr::Literal(Value::Float(*f1 as f64 * 0.5)),
                    ),
                ),
                cmp(BinOp::Eq, col(2), int(*k2)),
            ));
            let mut sigma_head = vec![(0, 0, 0, 0)];
            sigma_head.extend(on_scan);
            check_row_source(&scan, Some(&head), &sigma_head);
            check_row_source(&gamma_of(&scan), None, on_gamma);
            let split = or_raise(cmp(
                BinOp::Or,
                cmp(BinOp::Gt, col(3), int(*k2)),
                cmp(BinOp::Eq, col(2), int(*k2)),
            ));
            check_bypass_streams(&scan, &split, [on_pos, on_neg]);
        },
    );
    forall_cases(
        CASES,
        &tuple4(
            tuple2(arb_column(8), arb_column(8)),
            tuple2(arb_column(6), arb_column(6)),
            tuple2(arb_column(5), arb_column(5)),
            int_range(0, 7),
        ),
        |((lx, ly), (rx, ry), (gx, gy), threshold)| {
            let l = rel2("l", lx, ly);
            let r = rel2("r", rx, ry);
            let g = rel2("g", gx, gy);
            let pair = l.schema.concat(&r.schema);
            let wide = pair.concat(&g.schema);
            let mapped = wide.extended(Field::new("s", DataType::Int));
            let out = Schema::new(vec![
                Field::new("x", DataType::Int),
                Field::new("z", DataType::Int),
                Field::new("s", DataType::Int),
            ]);
            let spec = || JoinSpec {
                right: g.clone(),
                on: hash_on(1, 0),
                defaults: Some(vec![(1, Value::Int(0))]),
            };
            let keep = || {
                cmp(
                    BinOp::GtEq,
                    col(5),
                    PhysExpr::Literal(Value::Int(*threshold)),
                )
            };
            let sum = || cmp(BinOp::Add, col(0), col(5));
            let picks = || vec![col(0), col(5), col(6)];
            let bypass = |neg| {
                PhysNode::bypass(
                    l.clone(),
                    Stage::Probe(JoinSpec {
                        right: r.clone(),
                        on: JoinOn::Loop(Some(cmp(BinOp::Eq, col(0), col(2)))),
                        defaults: None,
                    }),
                    pair.clone(),
                    None,
                    neg,
                )
            };
            let fused = bypass(Some(Chain {
                stages: vec![
                    Stage::Probe(spec()),
                    Stage::Filter(keep()),
                    Stage::Map(sum()),
                    Stage::Project(picks()),
                ],
                schema: out.clone(),
            }));
            let fused = evaluate(&stream(&fused, false)).unwrap();

            let oj = PhysNode::pipeline(
                stream(&bypass(None), false),
                vec![Stage::Probe(spec())],
                wide.clone(),
            );
            let filter = PhysNode::pipeline(oj, vec![Stage::Filter(keep())], wide);
            let map = PhysNode::pipeline(filter, vec![Stage::Map(sum())], mapped);
            let project = PhysNode::pipeline(map, vec![Stage::Project(picks())], out);
            assert_eq!(fused.rows(), evaluate(&project).unwrap().rows());
        },
    );
    forall_cases(
        CASES,
        &tuple4(
            typed_rows(8),
            tuple4(arb_column(14), arb_column(14), arb_column(4), arb_column(4)),
            tuple3(stack(), stack(), stack()),
            tuple4(
                int_range(0, 4),
                int_range(0, 7),
                bool_any(),
                int_range(0, 3),
            ),
        ),
        |(rows, (rx, ry, gx, gy), (on_inner, on_outer, on_loop), (at, key, hash_top, k))| {
            let scan = typed_scan(rows);
            let r = rel2("r", rx, ry);
            let g = rel2("g", gx, gy);
            let top = |w: usize| match hash_top {
                true => JoinSpec {
                    right: g.clone(),
                    on: hash_on(*key as usize % w, 0),
                    defaults: Some(vec![(1, Value::Int(0))]),
                },
                false => JoinSpec {
                    right: g.clone(),
                    on: JoinOn::Loop(Some(cmp(BinOp::GtEq, col(*key as usize % w), col(w)))),
                    defaults: None,
                },
            };
            // At most 8 left rows against 14: the build admits only the
            // right rows whose key some scan row asks for.
            let inner = || JoinSpec {
                right: r.clone(),
                on: hash_on(0, 0),
                defaults: None,
            };
            check_join_source(&scan, &inner, &top, on_inner, *at);
            let outer = || JoinSpec {
                right: g.clone(),
                on: hash_on(0, 0),
                defaults: Some(vec![(1, Value::Int(*k))]),
            };
            check_join_source(&gamma_of(&scan), &outer, &top, on_outer, *at);
            let nested = || JoinSpec {
                right: g.clone(),
                on: JoinOn::Loop(Some(cmp(BinOp::Lt, col(3), col(4)))),
                defaults: None,
            };
            check_join_source(&scan, &nested, &top, on_loop, *at);
        },
    );
}

/// A row `(a, b, c, d)` of a [`typed_scan`].
type TypedRow = (i64, i64, Option<i64>, Option<i64>);

/// Up to `max` rows for [`typed_scan`].
fn typed_rows(max: usize) -> Gen<Vec<TypedRow>> {
    vec_of(
        tuple4(
            int_range(0, 6),
            int_range(0, 6),
            option_weighted(0.5, int_range(0, 3)),
            option_weighted(0.6, int_range(0, 3)),
        ),
        0,
        max,
    )
}

/// A scan whose columns are typed `Int` (`a`), `Float` (`b / 2`) and —
/// NULL-heavy — `Values` (`c`, `d`).
fn typed_scan(rows: &[TypedRow]) -> Arc<PhysNode> {
    let null_or = |v: Option<i64>| v.map_or(Value::Null, Value::Int);
    let rows = rows
        .iter()
        .map(|&(a, b, c, d)| {
            Tuple::new(vec![
                Value::Int(a),
                Value::Float(b as f64 * 0.5),
                null_or(c),
                null_or(d),
            ])
        })
        .collect();
    PhysNode::scan(TableColumns::new(Relation::new(ints(4), rows)))
}

/// `Γ_{c; COUNT(*), SUM(a)}` over a [`typed_scan`].
fn gamma_of(scan: &Arc<PhysNode>) -> Arc<PhysNode> {
    let aggs = vec![
        AggSpec {
            func: AggFunc::Count,
            distinct: false,
            arg: None,
        },
        AggSpec {
            func: AggFunc::Sum,
            distinct: false,
            arg: Some(col(0)),
        },
    ];
    PhysNode::aggregate(scan.clone(), vec![col(2)], aggs, ints(3))
}

/// A random σ, Π or χ as `(kind, a, b, k)`, its operands chosen modulo
/// the width of the rows it meets.
type StackOp = (i64, i64, i64, i64);

fn stack() -> Gen<Vec<StackOp>> {
    vec_of(
        tuple4(
            int_range(0, 8),
            int_range(0, 8),
            int_range(0, 8),
            int_range(-1, 5),
        ),
        0,
        4,
    )
}

fn ints(width: usize) -> Schema {
    Schema::new(
        (0..width)
            .map(|i| Field::new(format!("c{i}"), DataType::Int))
            .collect(),
    )
}

/// The stage `op` is over rows of width `w`, and the width of the rows it
/// hands on; kind 0 is the σ head `head`. Kinds 2 and 4 divide, and
/// raise on an integer zero.
fn stack_stage(op: StackOp, w: usize, head: Option<&PhysExpr>) -> (Stage, usize) {
    let (kind, a, b, k) = op;
    let (a, b) = (col(a as usize % w), col(b as usize % w));
    let int = |v: i64| PhysExpr::Literal(Value::Int(v));
    match (kind, head) {
        (0, Some(head)) => (Stage::Filter(head.clone()), w),
        (0 | 1, _) => (Stage::Filter(cmp(BinOp::GtEq, a, int(k))), w),
        (2, _) => (
            Stage::Filter(cmp(BinOp::Gt, cmp(BinOp::Div, int(12), a), int(k))),
            w,
        ),
        (3, _) => (Stage::Map(cmp(BinOp::Add, a, b)), w + 1),
        (4, _) => (Stage::Map(cmp(BinOp::Div, a, b)), w + 1),
        (5, _) => (Stage::Project(vec![b, a]), 2),
        (6, _) => (
            Stage::Project(vec![cmp(BinOp::Add, a.clone(), int(k)), b, a]),
            3,
        ),
        _ => (Stage::Project(vec![a]), 1),
    }
}

/// `n` stages over `input` twice — `stage(k, w)` is stage `k` over rows
/// of width `w`, and the width it hands on: as one pipeline — a
/// column-only Π at the top made the exit's pick list, as the planner
/// does — and as one pipeline per stage, with every intermediate of the
/// second.
fn fused_and_split(
    input: &Arc<PhysNode>,
    n: usize,
    stage: impl Fn(usize, usize) -> (Stage, usize),
) -> (Option<Chain>, Vec<Arc<PhysNode>>) {
    let mut stages = Vec::new();
    let mut split = vec![input.clone()];
    let mut w = input.schema.arity();
    for k in 0..n {
        let (fused, out) = stage(k, w);
        let alone = stage(k, w).0;
        split.push(PhysNode::pipeline(
            split.last().unwrap().clone(),
            vec![alone],
            ints(out),
        ));
        stages.push(fused);
        w = out;
    }
    if let Some(Stage::Project(exprs)) = stages.last() {
        let cols: Option<Vec<usize>> = exprs
            .iter()
            .map(|e| match e {
                PhysExpr::Column(c) => Some(*c),
                _ => None,
            })
            .collect();
        if let Some(cols) = cols {
            *stages.last_mut().unwrap() = Stage::Pick(cols);
        }
    }
    let chain = (!stages.is_empty()).then(|| Chain {
        stages,
        schema: ints(w),
    });
    (chain, split)
}

/// What each pipeline of `split` (a source, then one pipeline per stage)
/// keeps, in rows and in the bytes charged for them — a σ's by refcount,
/// any other stage's as the rows it built — plus what the last one's
/// rows charge as the exit of one fused pipeline: as built rows if any
/// stage builds a row, else by refcount. `None` if a pipeline fails.
fn kept_charges(split: &[Arc<PhysNode>]) -> Option<(Vec<(u64, i64)>, i64)> {
    let builds: Vec<bool> = split[1..]
        .iter()
        .map(|n| !matches!(&n.kind, PhysKind::Pipeline { chain, .. } if matches!(chain.stages[0], Stage::Filter(_))))
        .collect();
    let bytes = |built: bool, t: &Tuple| match built {
        true => tuple_bytes(t) as i64,
        false => SHARED_ROW_BYTES as i64,
    };
    let mut kept = Vec::new();
    let mut exit = 0;
    for (node, &built) in split[1..].iter().zip(&builds) {
        let rows = evaluate(node).ok()?;
        kept.push((
            rows.len() as u64,
            rows.rows().iter().map(|t| bytes(built, t)).sum(),
        ));
        let any = builds.iter().any(|&b| b);
        exit = rows.rows().iter().map(|t| bytes(any, t)).sum();
    }
    Some((kept, exit))
}

/// Checkpoints and bytes the unfused pipelines of `split` charge that one
/// fused pipeline does not: every intermediate row and — for a σ± stream,
/// `routed` — the rows the σ± charged; the last stage's charge becomes
/// the exit's.
fn dropped_charges(split: &[Arc<PhysNode>], routed: usize) -> Option<(u64, i64)> {
    let (kept, exit) = kept_charges(split)?;
    let Some(((_, last), intermediate)) = kept.split_last() else {
        return Some((0, 0));
    };
    let checkpoints = routed as u64 + intermediate.iter().map(|k| k.0).sum::<u64>();
    let bytes = (routed as u64 * SHARED_ROW_BYTES) as i64
        + intermediate.iter().map(|k| k.1).sum::<i64>()
        + last
        - exit;
    Some((checkpoints, bytes))
}

/// What a plan run under `options` gave: rows or the error, and counters.
fn outcome(plan: &Arc<PhysNode>, options: &ExecOptions) -> (Result<Vec<Tuple>, String>, u64, u64) {
    let mut ctx = ExecContext::new(options.clone());
    let rows = ctx
        .eval_plan(plan)
        .map(|r| r.rows().to_vec())
        .map_err(|e| e.to_string());
    let c = ctx.counters();
    (rows, c.checkpoints, c.peak_memory_bytes)
}

/// The fused plan against the split one under every mechanism: same
/// rows or error and, on success, counters apart by `dropped`.
fn assert_fusion_drops(fused: &Arc<PhysNode>, split: &Arc<PhysNode>, dropped: Option<(u64, i64)>) {
    for options in fanouts() {
        let (rows, checkpoints, peak) = outcome(fused, &options);
        let (want, split_checkpoints, split_peak) = outcome(split, &options);
        assert_eq!(rows, want, "{options:?}\n{}", fused.explain());
        if let (Ok(_), Some((cp, bytes))) = (&rows, dropped) {
            // Nothing is released in these plans: the peak is the total.
            assert_eq!(
                checkpoints + cp,
                split_checkpoints,
                "{options:?}\n{}",
                fused.explain()
            );
            assert_eq!(
                peak as i64 + bytes,
                split_peak as i64,
                "{options:?}\n{}",
                fused.explain()
            );
        }
    }
}

fn fanouts() -> Vec<ExecOptions> {
    let mut out = Vec::new();
    for batch_rows in [1, 256] {
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

/// A relation source under `ops`, fused against split.
fn check_row_source(input: &Arc<PhysNode>, head: Option<&PhysExpr>, ops: &[StackOp]) {
    let (Some(chain), split) =
        fused_and_split(input, ops.len(), |k, w| stack_stage(ops[k], w, head))
    else {
        return;
    };
    let fused = PhysNode::pipeline(input.clone(), chain.stages, chain.schema);
    // A fused row pipeline charges its exit rows only.
    let (floor, held) = source_charges(input);
    let expected = kept_charges(&split).map(|(kept, exit)| {
        let (checkpoints, _) = dropped_charges(&split, 0).expect("every pipeline ran");
        let split_total = kept.iter().map(|k| k.1).sum::<i64>() as u64;
        let peak = |charged: u64| floor.max(held + charged);
        (checkpoints, peak(exit as u64), peak(split_total))
    });
    assert_fusion_peaks(&fused, split.last().unwrap(), expected);
}

/// What evaluating `source` alone peaks at, and what it still holds once
/// it returns: the rows a Γ built — its group state is released by then;
/// a scan charges nothing.
fn source_charges(source: &Arc<PhysNode>) -> (u64, u64) {
    let mut ctx = ExecContext::new(ExecOptions::default());
    let rows = ctx.eval_plan(source).unwrap();
    let held = match source.kind {
        PhysKind::Scan { .. } => 0,
        _ => rows.rows().iter().map(tuple_bytes).sum(),
    };
    (ctx.counters().peak_memory_bytes, held)
}

/// The fused plan against the split one under every mechanism: same
/// rows or error and, on success, `expected` — the checkpoints fusion
/// drops, then the fused and the split plan's peaks.
fn assert_fusion_peaks(
    fused: &Arc<PhysNode>,
    split: &Arc<PhysNode>,
    expected: Option<(u64, u64, u64)>,
) {
    for options in fanouts() {
        let (rows, checkpoints, peak) = outcome(fused, &options);
        let (want, split_checkpoints, split_peak) = outcome(split, &options);
        assert_eq!(rows, want, "{options:?}\n{}", fused.explain());
        if let (Ok(_), Some((dropped, fused_peak, unfused_peak))) = (&rows, expected) {
            let at = format!("{options:?}\n{}", fused.explain());
            assert_eq!(checkpoints + dropped, split_checkpoints, "{at}");
            assert_eq!((peak, split_peak), (fused_peak, unfused_peak), "{at}");
        }
    }
}

/// The join `head` of `left` under `ops` with the join `top(w)` — over
/// rows of width `w` — fused in at position `at` of the stack, against one
/// pipeline per stage. Fusion holds every build side while the loop runs
/// and releases them as it ends, one pipeline each holds its own: the
/// peaks are of those two shapes, the build bytes measured on the join
/// heading the split plan and on the top join over no rows (it is outer
/// or a nested loop, so its build is never restricted).
fn check_join_source(
    left: &Arc<PhysNode>,
    head: &dyn Fn() -> JoinSpec,
    top: &dyn Fn(usize) -> JoinSpec,
    ops: &[StackOp],
    at: i64,
) {
    let at = 1 + at as usize % (ops.len() + 1);
    let op = |k: usize| ops[k - 1 - (k > at) as usize];
    let joined = |spec: JoinSpec, w: usize| {
        let width = w + spec.right.schema.arity();
        (Stage::Probe(spec), width)
    };
    let (chain, split) = fused_and_split(left, ops.len() + 2, |k, w| match k {
        0 => joined(head(), w),
        k if k == at => joined(top(w), w),
        k => stack_stage(op(k), w, None),
    });
    let chain = chain.expect("a join heads it");
    let fused = PhysNode::pipeline(left.clone(), chain.stages, chain.schema);
    let peak = |plan: &Arc<PhysNode>| outcome(plan, &ExecOptions::default()).2;
    let (floor, held) = source_charges(left);
    // The head join over the source's rows as a table, which charges
    // nothing: what its build holds.
    let head_alone = {
        let rows = evaluate(left).unwrap();
        let table = PhysNode::scan(TableColumns::new(rows));
        let w = left.schema.arity();
        PhysNode::pipeline(table, vec![joined(head(), w).0], split[1].schema.clone())
    };
    let top_build = {
        let w = split[at].schema.arity();
        let none = PhysNode::scan(TableColumns::new(Relation::new(ints(w), vec![])));
        peak(&PhysNode::pipeline(
            none,
            vec![joined(top(w), w).0],
            ints(w + 2),
        ))
    };
    let expected = kept_charges(&split).map(|(kept, exit)| {
        let head_build = peak(&head_alone) - kept[0].1 as u64;
        let mut builds = vec![0; kept.len()];
        (builds[0], builds[at]) = (head_build, top_build);
        let (mut total, mut split_peak) = (held, floor);
        for ((_, bytes), build) in kept.iter().zip(&builds) {
            split_peak = split_peak.max(total + build + *bytes as u64);
            total += *bytes as u64;
        }
        let (checkpoints, _) = dropped_charges(&split, 0).expect("every pipeline ran");
        let fused_peak = floor.max(held + head_build + top_build + exit as u64);
        (checkpoints, fused_peak, split_peak)
    });
    assert_fusion_peaks(&fused, split.last().unwrap(), expected);
}

/// Both streams of `σ±_p(input)` under their own stacks, fused into the
/// σ± against split above its taps; the plan reads both, so every stage
/// runs in either form.
fn check_bypass_streams(input: &Arc<PhysNode>, p: &PhysExpr, ops: [&Vec<StackOp>; 2]) {
    let sigma = |pos, neg| {
        PhysNode::bypass(
            input.clone(),
            Stage::Filter(p.clone()),
            input.schema.clone(),
            pos,
            neg,
        )
    };
    let plain = sigma(None, None);
    let [(pos, pos_split), (neg, neg_split)] =
        [(true, ops[0]), (false, ops[1])].map(|(positive, ops)| {
            fused_and_split(&stream(&plain, positive), ops.len(), |k, w| {
                stack_stage(ops[k], w, None)
            })
        });
    let fused = sigma(pos, neg);
    // ∪̇ of the streams' row counts: the streams may differ in width.
    let both = |tops: [Arc<PhysNode>; 2]| {
        let count = |input| {
            let aggs = vec![AggSpec {
                func: AggFunc::Count,
                distinct: false,
                arg: None,
            }];
            PhysNode::aggregate(input, vec![], aggs, ints(1))
        };
        let inputs = tops.map(count).into();
        PhysNode::new(
            PhysKind::Union {
                inputs,
                distinct: false,
            },
            ints(1),
        )
    };
    let fused_union = both([stream(&fused, true), stream(&fused, false)]);
    let split_union = both([
        pos_split.last().unwrap().clone(),
        neg_split.last().unwrap().clone(),
    ]);
    let routed = |positive: bool, split: &[Arc<PhysNode>]| {
        let rows = evaluate(&stream(&plain, positive)).ok()?.len();
        dropped_charges(split, if split.len() > 1 { rows } else { 0 })
    };
    let dropped = match (routed(true, &pos_split), routed(false, &neg_split)) {
        (Some(a), Some(b)) => Some((a.0 + b.0, a.1 + b.1)),
        _ => None,
    };
    assert_fusion_drops(&fused_union, &split_union, dropped);
    // Stream by stream, once both ran clean.
    if outcome(&fused_union, &ExecOptions::default()).0.is_ok() {
        for (positive, split) in [(true, &pos_split), (false, &neg_split)] {
            let want = evaluate(split.last().unwrap()).unwrap();
            assert_eq!(
                evaluate(&stream(&fused, positive)).unwrap().rows(),
                want.rows()
            );
        }
    }
}

/// `SELECT COUNT(*) FROM s WHERE s.k = <column 1 of the outer row>` over
/// a 3-row `s`: a correlated scalar subquery whose every invocation
/// ticks and charges inside the nested plan.
fn count_matching_subquery() -> PhysExpr {
    let k = |v| vec![Some(v)];
    let s = rel2("s", &[k(0), k(1), k(1)].concat(), &[None, None, None]);
    let matching = PhysNode::pipeline(
        s.clone(),
        vec![Stage::Filter(cmp(
            BinOp::Eq,
            col(0),
            PhysExpr::Outer { depth: 1, index: 1 },
        ))],
        s.schema.clone(),
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
    PhysExpr::Subquery {
        plan: count,
        correlated: true,
        outer_keys: vec![1],
    }
}

/// What one operator over a scan must report, derived row by row: both
/// output streams, the checkpoints passed and the peak bytes.
#[derive(Debug, PartialEq)]
struct Expected {
    pos: Vec<Tuple>,
    neg: Vec<Tuple>,
    checkpoints: u64,
    peak: u64,
    /// `(disjunct_evals, disjunct_hits)`.
    disjuncts: (u64, u64),
}

/// σ (`bypass == false`) or σ± by definition: per row a tick, the
/// predicate through `eval_truth` — on a fresh context, so the nested
/// plan's checkpoints and transient peak of this row alone are known —
/// then the charge of a row that leaves: every row of a σ±, a kept row
/// of a σ. A chain of two or
/// more terms counts per row the terms it evaluates, in order, up to
/// the first that decides it.
fn filter_by_definition(rows: &[Tuple], predicate: &PhysExpr, bypass: bool) -> Expected {
    let mut e = Expected {
        pos: vec![],
        neg: vec![],
        checkpoints: 0,
        peak: 0,
        disjuncts: (0, 0),
    };
    let (is_or, terms) = chain_terms(predicate);
    let mut used = 0;
    for t in rows {
        if terms.len() >= 2 {
            let mut ctx = ExecContext::new(ExecOptions::default());
            for term in &terms {
                e.disjuncts.0 += 1;
                if ctx.eval_truth(term, t).unwrap() == Truth::from_bool(is_or) {
                    e.disjuncts.1 += 1;
                    break;
                }
            }
        }
        e.checkpoints += 1;
        let mut ctx = ExecContext::new(ExecOptions::default());
        let keep = ctx.eval_truth(predicate, t).unwrap().is_true();
        e.checkpoints += ctx.counters().checkpoints;
        e.peak = e.peak.max(used + ctx.counters().peak_memory_bytes);
        if keep || bypass {
            used += SHARED_ROW_BYTES;
            e.checkpoints += 1;
            e.peak = e.peak.max(used);
        }
        match keep {
            true => e.pos.push(t.clone()),
            false if bypass => e.neg.push(t.clone()),
            false => {}
        }
    }
    e
}

/// The terms of a σ's chain, in order, and whether they are ORed: a
/// top-level OR's (or AND's) operands, nested ones of the same
/// connective flattened; any other predicate is one term.
fn chain_terms(predicate: &PhysExpr) -> (bool, Vec<&PhysExpr>) {
    fn flatten<'a>(e: &'a PhysExpr, op: BinOp, out: &mut Vec<&'a PhysExpr>) {
        match e {
            PhysExpr::Binary { op: o, left, right } if *o == op => {
                flatten(left, op, out);
                flatten(right, op, out);
            }
            _ => out.push(e),
        }
    }
    match predicate {
        PhysExpr::Binary {
            op: op @ (BinOp::Or | BinOp::And),
            ..
        } => {
            let mut terms = Vec::new();
            flatten(predicate, *op, &mut terms);
            (*op == BinOp::Or, terms)
        }
        _ => (true, vec![predicate]),
    }
}

/// Evaluate `plan` under `options` and report it like [`Expected`].
fn observed(plan: &Arc<PhysNode>, options: &ExecOptions) -> (Vec<Tuple>, u64, u64, (u64, u64)) {
    let mut ctx = ExecContext::new(options.clone());
    let rows = ctx.eval_plan(plan).unwrap().rows().to_vec();
    let c = ctx.counters();
    let disjuncts = (c.disjunct_evals, c.disjunct_hits);
    (rows, c.checkpoints, c.peak_memory_bytes, disjuncts)
}

#[test]
fn chunked_operators_match_row_by_row_evaluation() {
    let plus = |e, v| cmp(BinOp::Add, e, PhysExpr::Literal(Value::Int(v)));
    let gt = |e, v| cmp(BinOp::Gt, e, PhysExpr::Literal(Value::Int(v)));
    let predicates = [
        // kernels only
        cmp(BinOp::Or, gt(col(0), 4), cmp(BinOp::Eq, col(1), col(0))),
        // kernel + interpreter terms
        cmp(BinOp::Or, gt(col(0), 5), gt(plus(col(1), 1), 5)),
        cmp(
            BinOp::And,
            gt(col(0), 1),
            cmp(BinOp::Eq, col(0), count_matching_subquery()),
        ),
        // a single interpreter term
        gt(plus(col(0), 1), 5),
        cmp(BinOp::Eq, col(0), count_matching_subquery()),
    ];
    let chunkings = chunkings();
    for len in [0, 1, 255, 256, 257, 513] {
        // Two columns cycling with coprime periods, a NULL now and then.
        let column = |period: usize, null_at: usize| -> Vec<Option<i64>> {
            (0..len)
                .map(|i| (i % 11 != null_at).then_some((i % period) as i64))
                .collect()
        };
        let scan = rel2("r", &column(7, 3), &column(3, 5));
        let rows = evaluate(&scan).unwrap().rows().to_vec();
        for predicate in &predicates {
            let filter = PhysNode::pipeline(
                scan.clone(),
                vec![Stage::Filter(predicate.clone())],
                scan.schema.clone(),
            );
            let bypass = PhysNode::bypass(
                scan.clone(),
                Stage::Filter(predicate.clone()),
                scan.schema.clone(),
                None,
                None,
            );
            let sigma = filter_by_definition(&rows, predicate, false);
            let split = filter_by_definition(&rows, predicate, true);
            for options in &chunkings {
                let at = format!(
                    "{len} rows, {predicate:?}, chunks of {}",
                    options.batch_rows
                );
                assert_eq!(
                    observed(&filter, options),
                    (
                        sigma.pos.clone(),
                        sigma.checkpoints,
                        sigma.peak,
                        sigma.disjuncts
                    ),
                    "σ over {at}"
                );
                for (positive, stream_rows) in [(true, &split.pos), (false, &split.neg)] {
                    assert_eq!(
                        observed(&stream(&bypass, positive), options),
                        (
                            stream_rows.clone(),
                            split.checkpoints,
                            split.peak,
                            split.disjuncts
                        ),
                        "σ± over {at}"
                    );
                }
            }
        }
        // Column-only Π: per row a tick and the charge of the fresh row.
        let swap = PhysNode::pipeline(
            scan.clone(),
            vec![Stage::Project(vec![col(1), col(1), col(0)])],
            scan.schema.project(&[1, 1, 0]),
        );
        let projected: Vec<Tuple> = rows.iter().map(|t| t.project(&[1, 1, 0])).collect();
        let bytes: u64 = projected.iter().map(tuple_bytes).sum();
        for options in &chunkings {
            assert_eq!(
                observed(&swap, options),
                (projected.clone(), 2 * len as u64, bytes, (0, 0)),
                "Π over {len} rows, chunks of {}",
                options.batch_rows
            );
        }
    }
    // The typed routes. Over an all-`Int` and an all-`Float` scan (NaN:
    // UNKNOWN on the typed route) the kernel prefix mixes a typed
    // column-constant loop, a `Value` slice loop (the constant of the
    // other type) or an interpreter lane (an inner AND/OR with a NULL
    // operand), and a typed column-column loop; the terms decide, stay
    // open or go UNKNOWN on different rows, and a non-kernel term
    // follows. At chunk lengths 1, 7 and 256, serial and forked.
    // `int(v)` is `v`, `float(v)` is `v / 2`: the `Float` scan holds halves.
    type Literal = fn(i64) -> PhysExpr;
    let int: Literal = |v| PhysExpr::Literal(Value::Int(v));
    let float: Literal = |v| PhysExpr::Literal(Value::Float(v as f64 / 2.0));
    let null = || PhysExpr::Literal(Value::Null);
    let options: Vec<ExecOptions> = [1, 7, 256]
        .into_iter()
        .flat_map(|batch_rows| {
            [(1, ExecOptions::default().morsel_rows), (8, 2)].map(|(threads, morsel_rows)| {
                ExecOptions {
                    batch_rows,
                    threads,
                    morsel_rows,
                    ..Default::default()
                }
            })
        })
        .collect();
    for len in [1, 9, 300] {
        let ints = (0..len).map(|i| [i % 7, i % 3].map(Value::Int));
        let floats = (0..len).map(|i| {
            let f = |v: i64, nan: bool| Value::Float(if nan { f64::NAN } else { v as f64 / 2.0 });
            [f(i % 7, i % 5 == 2), f(i % 3, i % 4 == 1)]
        });
        let sources: [(Vec<[Value; 2]>, Literal, Literal); 2] = [
            (ints.collect(), int, float),
            (floats.collect(), float, |v| {
                PhysExpr::Literal(Value::Int(v / 2))
            }),
        ];
        for (values, num, other) in sources {
            let rows: Vec<Tuple> = (0..len)
                .zip(values)
                .map(|(i, [x, y])| Tuple::new(vec![x, y, Value::Int(i)]))
                .collect();
            let scan = operand_scan(rows.clone());
            for (or, op) in [(true, BinOp::Or), (false, BinOp::And)] {
                let (inner, first, third) = match or {
                    true => (BinOp::And, 4, BinOp::Lt),
                    false => (BinOp::Or, 1, BinOp::Gt),
                };
                let value_route = cmp(if or { BinOp::Eq } else { BinOp::Neq }, col(1), other(2));
                let lane = cmp(
                    inner,
                    cmp(if or { BinOp::Lt } else { BinOp::Gt }, col(0), num(2)),
                    cmp(BinOp::Eq, col(1), null()),
                );
                for middle in [value_route, lane] {
                    let tail = cmp(BinOp::Gt, cmp(BinOp::Add, col(1), num(2)), num(2));
                    let predicate = [middle, cmp(third, col(0), col(1)), tail]
                        .into_iter()
                        .fold(cmp(BinOp::Gt, col(0), num(first)), |acc, t| cmp(op, acc, t));
                    let filter = PhysNode::pipeline(
                        scan.clone(),
                        vec![Stage::Filter(predicate.clone())],
                        scan.schema.clone(),
                    );
                    let bypass = PhysNode::bypass(
                        scan.clone(),
                        Stage::Filter(predicate.clone()),
                        scan.schema.clone(),
                        None,
                        None,
                    );
                    let sigma = filter_by_definition(&rows, &predicate, false);
                    let split = filter_by_definition(&rows, &predicate, true);
                    for options in &options {
                        let at = format!(
                            "{len} rows, {predicate}, chunks of {}, {} workers",
                            options.batch_rows, options.threads
                        );
                        assert_eq!(
                            observed(&filter, options),
                            (
                                sigma.pos.clone(),
                                sigma.checkpoints,
                                sigma.peak,
                                sigma.disjuncts
                            ),
                            "σ over {at}"
                        );
                        for (positive, want) in [(true, &split.pos), (false, &split.neg)] {
                            assert_eq!(
                                observed(&stream(&bypass, positive), options),
                                (want.clone(), split.checkpoints, split.peak, split.disjuncts),
                                "σ± over {at}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Operands reaching every arm of SQL comparison: NULL, both numeric
/// types with values equal across them (`1` / `1.0`, `0` / `0.0` /
/// `-0.0`), NaN, text and booleans (comparable among themselves only).
fn operand_values() -> Vec<Value> {
    vec![
        Value::Null,
        Value::Int(0),
        Value::Int(1),
        Value::Int(2),
        Value::Float(1.0),
        Value::Float(1.5),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(f64::NAN),
        Value::text("a"),
        Value::text("b"),
        Value::Bool(false),
        Value::Bool(true),
    ]
}

/// The simple-predicate class over two operands: the six comparisons,
/// NOT, IS [NOT] NULL, and AND/OR of two of them.
fn simple_predicates(l: &PhysExpr, r: &PhysExpr) -> Vec<PhysExpr> {
    let c = |op| cmp(op, l.clone(), r.clone());
    let is_null = |negated, e: &PhysExpr| PhysExpr::IsNull {
        negated,
        expr: Box::new(e.clone()),
    };
    let comparisons = [
        BinOp::Eq,
        BinOp::Neq,
        BinOp::Lt,
        BinOp::LtEq,
        BinOp::Gt,
        BinOp::GtEq,
    ];
    let mut all: Vec<PhysExpr> = comparisons.into_iter().map(c).collect();
    all.extend([
        not(c(BinOp::Lt)),
        is_null(false, l),
        is_null(true, r),
        cmp(BinOp::Or, c(BinOp::Lt), c(BinOp::Eq)),
        cmp(BinOp::And, c(BinOp::LtEq), not(c(BinOp::Eq))),
        cmp(BinOp::Or, is_null(false, l), c(BinOp::Gt)),
        cmp(BinOp::And, is_null(true, l), not(c(BinOp::GtEq))),
    ]);
    all
}

fn not(e: PhysExpr) -> PhysExpr {
    PhysExpr::Not(Box::new(e))
}

/// A scan over `[l, r, id]` rows; the column types are never consulted
/// by the executor.
fn operand_scan(rows: Vec<Tuple>) -> Arc<PhysNode> {
    let schema = Schema::new(
        ["l", "r", "id"]
            .map(|n| Field::qualified("v", n, DataType::Int))
            .to_vec(),
    );
    PhysNode::scan(TableColumns::new(Relation::new(schema.clone(), rows)))
}

fn sigma(input: &Arc<PhysNode>, predicate: PhysExpr) -> Arc<PhysNode> {
    PhysNode::pipeline(
        input.clone(),
        vec![Stage::Filter(predicate)],
        input.schema.clone(),
    )
}

fn chunkings() -> [ExecOptions; 2] {
    [1, 256].map(|batch_rows| ExecOptions {
        batch_rows,
        ..Default::default()
    })
}

/// Thirteen integers, the ones around 2^53 — where `i64 → f64` starts
/// to round — and the extremes included.
fn int_operands() -> Vec<Value> {
    let two53 = 1i64 << 53;
    [
        0,
        1,
        2,
        -1,
        7,
        -7,
        100,
        two53 - 1,
        two53,
        two53 + 1,
        i64::MAX,
        i64::MIN,
        3,
    ]
    .map(Value::Int)
    .to_vec()
}

/// Thirteen floats: both zeros, NaN, the infinities, integral values
/// equal to some of [`int_operands`] and 2^53 with its successor.
fn float_operands() -> Vec<Value> {
    [
        0.0,
        -0.0,
        1.0,
        1.5,
        2.0,
        -1.0,
        0.5,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        9007199254740992.0,
        9007199254740994.0,
        1e300,
    ]
    .map(Value::Float)
    .to_vec()
}

/// Which representation a scan's columns `l` and `r` take.
fn operand_columns(scan: &PhysNode) -> [Column; 2] {
    let PhysKind::Scan { columns, .. } = &scan.kind else {
        panic!("operand_scan builds a scan")
    };
    [0, 1].map(|c| Column::clone(columns.get(c).expect("l and r exist")))
}

#[test]
fn simple_predicates_have_one_truth_value_on_every_route() {
    // Mixed operands: every column falls back to `Column::Values`.
    let mixed = operand_values();
    let [l, r] = check_operand_table(&mixed, &mixed);
    assert!(matches!((l, r), (Column::Values(_), Column::Values(_))));
    // The typed routes: all-Int and all-Float columns against constants
    // and columns of their own type …
    let (ints, floats) = (int_operands(), float_operands());
    let [l, r] = check_operand_table(&ints, &ints);
    assert!(matches!((l, r), (Column::Int(_), Column::Int(_))));
    let [l, r] = check_operand_table(&floats, &floats);
    assert!(matches!((l, r), (Column::Float(_), Column::Float(_))));
    // … and against the other's, which no typed loop serves.
    let [l, r] = check_operand_table(&ints, &floats);
    assert!(matches!((l, r), (Column::Int(_), Column::Float(_))));

    // A few absolute pins, so that agreement is not agreement on nonsense.
    let mut ctx = ExecContext::new(ExecOptions::default());
    let lit = |v: &Value| PhysExpr::Literal(v.clone());
    let mut truth =
        |op, l: Value, r: Value| ctx.eval_truth(&cmp(op, lit(&l), lit(&r)), &Tuple::empty());
    assert_eq!(
        truth(BinOp::Eq, Value::Int(1), Value::Float(1.0)).unwrap(),
        Truth::True
    );
    assert_eq!(
        truth(BinOp::Eq, Value::Float(-0.0), Value::Float(0.0)).unwrap(),
        Truth::True
    );
    assert_eq!(
        truth(BinOp::Lt, Value::Int(1), Value::Float(1.5)).unwrap(),
        Truth::True
    );
    assert_eq!(
        truth(BinOp::Neq, Value::Float(f64::NAN), Value::Int(1)).unwrap(),
        Truth::Unknown
    );
    assert_eq!(
        truth(BinOp::Eq, Value::text("a"), Value::Int(1)).unwrap(),
        Truth::Unknown
    );
    assert_eq!(
        truth(BinOp::GtEq, Value::Bool(true), Value::Bool(false)).unwrap(),
        Truth::True
    );
    assert_eq!(
        truth(BinOp::LtEq, Value::Null, Value::Null).unwrap(),
        Truth::Unknown
    );
}

/// The simple-predicate class over every `(l, r)` drawn from `ls` × `rs`
/// has one truth value on every route — `Value`, row fast path, the
/// chunked σ over a column, whichever representation the column takes
/// — with `r` a column, a literal and an outer reference. Returns the
/// representations of the pair scan's two operand columns.
fn check_operand_table(ls: &[Value], rs: &[Value]) -> [Column; 2] {
    let (nl, nr) = (ls.len(), rs.len());
    let lit = |v: &Value| PhysExpr::Literal(v.clone());
    let outer = PhysExpr::Outer { depth: 1, index: 0 };
    // Every (l, r) pair, and every l alone with an id that is its bit.
    let pairs: Vec<Tuple> = (0..nl * nr)
        .map(|i| {
            Tuple::new(vec![
                ls[i / nr].clone(),
                rs[i % nr].clone(),
                Value::Int(i as i64),
            ])
        })
        .collect();
    let lefts: Vec<Tuple> = (0..nl)
        .map(|li| Tuple::new(vec![ls[li].clone(), Value::Null, Value::Int(1 << li)]))
        .collect();
    let (pair_scan, left_scan) = (operand_scan(pairs.clone()), operand_scan(lefts.clone()));
    let col_col = simple_predicates(&col(0), &col(1));
    let mut ctx = ExecContext::new(ExecOptions::default());
    for (k, p) in col_col.iter().enumerate() {
        // The truth table by the `Value` route, and the two row routes
        // of the fast path against it.
        let table: Vec<Truth> = pairs
            .iter()
            .map(|t| {
                let truth = value_truth(&ctx.eval_expr(p, t).unwrap());
                assert_eq!(ctx.eval_truth(p, t).unwrap(), truth, "{p} over tuple {t:?}");
                let (l, r) = t.values().split_at(1);
                let view = RowView::new(l);
                let view = view.with(&r[..1]);
                assert_eq!(
                    ctx.eval_truth(p, &view).unwrap(),
                    truth,
                    "{p} over view {t:?}"
                );
                truth
            })
            .collect();
        // σ keeps the TRUE rows of `p` and the FALSE rows of `¬p`, and
        // passes the checkpoints of row-by-row evaluation, at every
        // chunk length. `rows[i]` has truth `truth(i)`.
        let check_sigma =
            |scan: &Arc<PhysNode>, rows: &[Tuple], p: &PhysExpr, truth: &dyn Fn(usize) -> Truth| {
                for (p, want) in [(p.clone(), Truth::True), (not(p.clone()), Truth::False)] {
                    let kept: Vec<Tuple> = (0..rows.len())
                        .filter(|&i| truth(i) == want)
                        .map(|i| rows[i].clone())
                        .collect();
                    let by_row = filter_by_definition(rows, &p, false);
                    for options in &chunkings() {
                        assert_eq!(
                            observed(&sigma(scan, p.clone()), options),
                            (
                                kept.clone(),
                                by_row.checkpoints,
                                by_row.peak,
                                by_row.disjuncts
                            ),
                            "σ of {p}, chunks of {}",
                            options.batch_rows
                        );
                    }
                }
            };
        // column ⟨cmp⟩ column.
        check_sigma(&pair_scan, &pairs, p, &|i| table[i]);
        for (ri, r) in rs.iter().enumerate() {
            let truth = |li: usize| table[li * nr + ri];
            // column ⟨cmp⟩ literal.
            let col_lit = &simple_predicates(&col(0), &lit(r))[k];
            check_sigma(&left_scan, &lefts, col_lit, &truth);
            // column ⟨cmp⟩ outer, `r` bound by a correlated subquery
            // that sums the id bits of the rows its σ kept.
            let col_outer = &simple_predicates(&col(0), &outer)[k];
            for (p, want) in [
                (col_outer.clone(), Truth::True),
                (not(col_outer.clone()), Truth::False),
            ] {
                let bits: i64 = (0..nl)
                    .filter(|&li| truth(li) == want)
                    .map(|li| 1 << li)
                    .sum();
                let sum = PhysNode::aggregate(
                    sigma(&left_scan, p.clone()),
                    vec![],
                    vec![AggSpec {
                        func: AggFunc::Sum,
                        distinct: false,
                        arg: Some(col(2)),
                    }],
                    Schema::new(vec![Field::new("bits", DataType::Int)]),
                );
                let subquery = PhysExpr::Subquery {
                    plan: sum,
                    correlated: true,
                    outer_keys: vec![0],
                };
                let runs = chunkings().map(|options| {
                    let mut ctx = ExecContext::new(options);
                    let got = ctx
                        .eval_expr(&subquery, &Tuple::new(vec![r.clone()]))
                        .unwrap();
                    let c = ctx.counters();
                    (got, c.checkpoints, c.peak_memory_bytes)
                });
                let want_bits = if bits == 0 {
                    Value::Null
                } else {
                    Value::Int(bits)
                };
                assert_eq!(runs[0].0, want_bits, "σ of {p} under outer row [{r}]");
                assert_eq!(runs[0], runs[1], "σ of {p} under outer row [{r}]");
            }
        }
    }
    operand_columns(&pair_scan)
}

#[test]
fn sigma_raises_an_unresolved_outer_reference_at_the_first_row_that_reaches_it() {
    // No binding stack: `outer(1, 0)` does not resolve, so no kernel
    // runs and the terms keep their syntactic order. Rows the first
    // term decides never reach the dangling reference; the first one it
    // leaves open raises `eval_truth`'s error, after exactly the
    // checkpoints of the rows before it.
    let outer = PhysExpr::Outer { depth: 1, index: 0 };
    let int = |v| PhysExpr::Literal(Value::Int(v));
    let dangling = cmp(BinOp::Eq, col(1), outer.clone());
    let shapes = [
        // column ⟨cmp⟩ literal decides rows 0‥2, row 3 reaches the reference.
        (
            cmp(BinOp::Or, cmp(BinOp::Gt, col(0), int(5)), dangling.clone()),
            3,
        ),
        // column ⟨cmp⟩ outer is itself the reference: row 0.
        (cmp(BinOp::Gt, col(0), outer), 0),
        // column ⟨cmp⟩ column decides rows 0‥2.
        (cmp(BinOp::Or, cmp(BinOp::Gt, col(0), col(1)), dangling), 3),
    ];
    let scan = rel2(
        "r",
        &[Some(9), Some(8), Some(7), Some(1), Some(9)],
        &[Some(0), Some(0), Some(0), Some(3), Some(0)],
    );
    let rows = evaluate(&scan).unwrap().rows().to_vec();
    for (predicate, reaches) in &shapes {
        let expected = ExecContext::new(ExecOptions::default())
            .eval_truth(predicate, &rows[*reaches])
            .unwrap_err()
            .to_string();
        assert!(expected.contains("exceeds binding stack"), "{expected}");
        // Every earlier row ticked and was kept; this one only ticked.
        let checkpoints = 2 * *reaches as u64 + 1;
        for options in chunkings() {
            let mut ctx = ExecContext::new(options);
            let err = ctx.eval_plan(&sigma(&scan, predicate.clone())).unwrap_err();
            assert_eq!(err.to_string(), expected, "σ of {predicate}");
            assert_eq!(ctx.counters().checkpoints, checkpoints, "σ of {predicate}");
        }
    }
}

/// One generated row of [`gamma_table`]: a twin key, `y`, an index into
/// [`FLOATS`] and a divisor `d` (`b` is big where `d` is 6 or 7).
type GammaRow = (Option<(i64, bool)>, Option<i64>, i64, i64);

/// Floats whose sums depend on the order they are added in.
const FLOATS: [Option<f64>; 6] = [
    Some(1e16),
    Some(1.0),
    Some(-1e16),
    Some(0.5),
    Some(-0.0),
    None,
];

fn gamma_rows(len: usize) -> Gen<Vec<GammaRow>> {
    let key = option_weighted(0.6, tuple2(int_range(0, 3), bool_any()));
    let row = tuple4(
        key,
        option_weighted(0.85, int_range(0, 7)),
        int_range(0, 6),
        int_range(0, 8),
    );
    vec_of(row, len, len)
}

/// `t(k, y, f, b, d)`: `k` NULL, `Int` or the equal `Float`; `f` from
/// [`FLOATS`]; `b` past `i64::MAX / 2` where `d` is 6 or 7, so that two
/// such rows in one SUM overflow; `d` zero where `100 / d` divides by it.
fn gamma_table(rows: &[GammaRow]) -> Relation {
    let schema = Schema::new(
        ["k", "y", "f", "b", "d"]
            .map(|c| Field::qualified("t", c, DataType::Int))
            .to_vec(),
    );
    let rows = rows
        .iter()
        .map(|&(k, y, f, d)| {
            let k = match k {
                None => Value::Null,
                Some((k, false)) => Value::Int(k),
                Some((k, true)) => Value::Float(k as f64),
            };
            let b = if d >= 6 { i64::MAX / 2 + d } else { d };
            let f = FLOATS[f as usize].map_or(Value::Null, Value::Float);
            let vals = [
                y.map_or(Value::Null, Value::Int),
                f,
                Value::Int(b),
                Value::Int(d),
            ];
            Tuple::new(std::iter::once(k).chain(vals).collect())
        })
        .collect();
    Relation::new(schema, rows)
}

/// Every Γ over every chain shape the planner sinks it into, and over a
/// relation: keyed and scalar, against the same logical plan planned
/// without fusion — where Γ folds a relation its input pipeline built.
fn gamma_plans() -> Vec<(String, Arc<bypass_algebra::LogicalPlan>)> {
    let t = || PlanBuilder::scan("t", "t", gamma_table(&[]).schema().clone());
    let u = PlanBuilder::scan(
        "u",
        "u",
        Schema::new(vec![Field::qualified("u", "uk", DataType::Int)]),
    );
    let c = |name| Scalar::col(name);
    let gt = |l, r: i64| Scalar::binary(BinOp::Gt, l, Scalar::lit(r));
    let kept = gt(c("y"), 3);
    let is_null = Scalar::IsNull {
        negated: false,
        expr: Box::new(c("k")),
    };
    let divides = gt(Scalar::binary(BinOp::Div, Scalar::lit(100i64), c("d")), 1);
    let predicates = [kept.clone().or(is_null), kept.or(divides)];
    let mut inputs: Vec<(String, PlanBuilder)> = vec![("relation".to_string(), t())];
    for (i, p) in predicates.iter().enumerate() {
        let sigma = t().filter(p.clone());
        let columns = ["k", "y", "f", "b", "d"].map(|n| (c(n), None));
        let z = (
            Scalar::binary(BinOp::Add, c("y"), Scalar::lit(1i64)),
            Some("z".to_string()),
        );
        let pi = t()
            .filter(p.clone())
            .project(columns.into_iter().chain([z]).collect());
        inputs.push((format!("σ{i}"), sigma));
        inputs.push((format!("σ{i}→Π"), pi));
    }
    let on = Scalar::binary(BinOp::Eq, c("k"), c("uk"));
    inputs.push(("probe".to_string(), t().join(u, on)));
    let sum = |arg| AggCall::new(AggFunc::Sum, false, Some(arg));
    let all = || {
        vec![
            (AggCall::count_star(), "n".to_string()),
            (sum(c("y")), "sy".to_string()),
            (sum(c("f")), "sf".to_string()),
            (
                AggCall::new(AggFunc::Avg, false, Some(c("f"))),
                "af".to_string(),
            ),
            (AggCall::count_distinct_star(), "nd".to_string()),
            (sum(c("b")), "sb".to_string()),
        ]
    };
    let mut plans = Vec::new();
    for (name, input) in inputs {
        let gammas = [
            ("keyed", vec![c("k")], all()),
            ("scalar", vec![], all()),
            (
                "count",
                vec![],
                vec![(AggCall::count_star(), "n".to_string())],
            ),
        ];
        for (kind, keys, aggs) in gammas {
            plans.push((
                format!("{kind} Γ over {name}"),
                input.clone().aggregate(keys, aggs).build(),
            ));
        }
    }
    plans
}

/// Rows — floats bit for bit — or the error, the counters, and the rows
/// that entered the plan's fused Γs and stages (their EXPLAIN ANALYZE
/// `in=`): the rows the unfused plan charges once more, as it
/// materializes them below each.
type GammaOutcome = (Result<Vec<String>, bypass_types::Error>, u64, u64, u64);

fn gamma_outcome(plan: &Arc<PhysNode>, options: &ExecOptions) -> GammaOutcome {
    let mut ctx = ExecContext::new(options.clone()).with_metrics();
    let rows = ctx.eval_plan(plan).map(|r| {
        r.rows()
            .iter()
            .map(|t| format!("{:?}", t.values()))
            .collect()
    });
    let c = ctx.counters();
    let text = plan.explain_with_metrics(&ctx.take_metrics());
    let folded = text
        .lines()
        .filter_map(|l| l.split_once(" fused→").map(|(_, rest)| rest))
        // A run that fails keeps no metrics: `[not executed]`.
        .filter_map(|rest| rest.split_once("[in=").map(|(_, n)| n))
        .map(|n| n[..n.find(' ').unwrap_or(n.len())].parse::<u64>().unwrap())
        .sum();
    (rows, c.checkpoints, c.peak_memory_bytes, folded)
}

/// Each plan of [`gamma_plans`] over `t`, with Γ sinking into its input
/// pipeline against its unfused twin at threads {1, 8} × chunk lengths
/// {1, 3, 256}: the same rows, floats bit for bit, or the same first
/// error — a σ's error before any fold error, as the twin's σ runs
/// before its Γ — and, on success, exactly Γ's `in` fewer checkpoints
/// (the rows its input no longer charges; a fused Π's `in` besides: the
/// twin also charges the rows σ keeps for it) and no higher peak.
fn check_gamma_sinks(t: &Relation) -> Vec<(String, GammaOutcome)> {
    let u = Relation::new(
        Schema::new(vec![Field::qualified("u", "uk", DataType::Int)]),
        [0, 1, 1, 2]
            .map(|k| Tuple::new(vec![Value::Int(k)]))
            .to_vec(),
    );
    let mut catalog = Catalog::new();
    catalog.register("t", t.clone()).unwrap();
    catalog.register("u", u).unwrap();
    let mut outcomes = Vec::new();
    for (name, plan) in gamma_plans() {
        let fused = bypass_exec::physical_plan_with(&plan, &catalog, Default::default()).unwrap();
        let unfused = bypass_exec::PlanOptions {
            fuse_stage_chains: false,
        };
        let twin = bypass_exec::physical_plan_with(&plan, &catalog, unfused).unwrap();
        let sinks = fused.explain().contains("HashAggregate fused→");
        assert_eq!(
            sinks,
            !name.ends_with("relation"),
            "{name}\n{}",
            fused.explain()
        );
        assert!(
            !twin.explain().contains("fused"),
            "{name}\n{}",
            twin.explain()
        );
        let mut first = None;
        for batch_rows in [1, 3, 256] {
            for (threads, morsel_rows) in [(1, 4096), (8, 2)] {
                let options = ExecOptions {
                    batch_rows,
                    threads,
                    morsel_rows,
                    ..Default::default()
                };
                let at = format!("{name} under {options:?}\n{}", fused.explain());
                let (rows, checkpoints, peak, folded) = gamma_outcome(&fused, &options);
                let (want, twin_checkpoints, twin_peak, _) = gamma_outcome(&twin, &options);
                assert_eq!(rows, want, "{at}");
                if rows.is_ok() {
                    assert_eq!(checkpoints, twin_checkpoints - folded, "{at}");
                    assert!(peak <= twin_peak, "{at}: peak {peak} > {twin_peak}");
                }
                let first = first.get_or_insert_with(|| rows.clone());
                assert_eq!(&rows, first, "{at}: against the first mechanism");
            }
        }
        outcomes.push((name, gamma_outcome(&fused, &ExecOptions::default())));
    }
    outcomes
}

#[test]
fn gamma_sinks_fold_what_their_unfused_twins_materialize() {
    // Rows 1 and 2 are kept and their `b`s overflow SUM(b) at row 2;
    // row 4's `y` leaves `100 / d` to divide by zero.
    let fixed: Vec<GammaRow> = vec![
        (Some((1, false)), Some(0), 0, 1),
        (Some((1, true)), Some(5), 1, 7),
        (Some((1, false)), Some(6), 2, 7),
        (None, Some(4), 3, 2),
        (Some((2, false)), Some(1), 4, 0),
        (Some((2, false)), None, 5, 3),
    ];
    let error = |outcomes: &[(String, GammaOutcome)], name: &str| {
        let (_, (rows, ..)) = outcomes.iter().find(|(n, _)| n == name).unwrap();
        rows.clone().unwrap_err().to_string()
    };
    let outcomes = check_gamma_sinks(&gamma_table(&fixed));
    assert!(error(&outcomes, "scalar Γ over σ0").contains("overflow"));
    assert!(error(&outcomes, "scalar Γ over σ1").contains("division by zero"));
    forall_cases(CASES / 4, &gamma_rows(12), |rows| {
        check_gamma_sinks(&gamma_table(rows));
    });
}

// ---------------------------------------------------------------------------
// Hash loops over a base table, a chunk at a time.
// ---------------------------------------------------------------------------

/// `n` fact rows `[k, f, v, s, nk, m]`: an `Int` key over 37 values, a
/// `Float` with both zeros and NaN among its values, an `Int` argument,
/// a text, an `Int` with NULLs and a column mixing `Int(k)` with
/// `Float(k)` — the last two stay `Column::Values`.
fn hash_facts(n: usize) -> Relation {
    let rows = (0..n as i64).map(|i| {
        let f = match i % 13 {
            0 => -0.0,
            1 => 0.0,
            2 => f64::NAN,
            k => (k % 5) as f64 * 0.5,
        };
        Tuple::new(vec![
            Value::Int((i * 7919) % 37),
            Value::Float(f),
            Value::Int((i * 13) % 101 - 50),
            Value::text(format!("t{}", i % 11)),
            if i % 5 == 0 {
                Value::Null
            } else {
                Value::Int(i % 6)
            },
            if i % 2 == 0 {
                Value::Int(i % 4)
            } else {
                Value::Float((i % 4) as f64)
            },
        ])
    });
    Relation::new(ints(6), rows.collect())
}

/// 20 dimension rows `[k, x, name]`: even keys, the same number as a
/// float, a text — half the facts' keys find a partner.
fn hash_dims() -> Relation {
    let rows = (0..20i64).map(|j| {
        Tuple::new(vec![
            Value::Int(2 * j),
            Value::Float(2.0 * j as f64),
            Value::text(format!("t{}", j % 11)),
        ])
    });
    Relation::new(ints(3), rows.collect())
}

/// A base table straight from its scan, or through a copy of it — a
/// `Limit` that keeps every row, an intermediate the row-at-a-time
/// loops read.
fn scan_or_copy(rel: &Relation, copy: bool) -> Arc<PhysNode> {
    let scan = PhysNode::scan(TableColumns::new(rel.clone()));
    match copy {
        false => scan,
        true => {
            let schema = rel.schema().clone();
            PhysNode::new(
                PhysKind::Limit {
                    input: scan,
                    n: usize::MAX,
                },
                schema,
            )
        }
    }
}

fn agg(func: AggFunc, distinct: bool, arg: Option<usize>) -> AggSpec {
    AggSpec {
        func,
        distinct,
        arg: arg.map(col),
    }
}

/// Every hash loop that reads a base table by column — Γ with 0, 1 and
/// 2 keys over a scan and over a σ of one (its settled runs), with and
/// without DISTINCT; full and restricted builds; probe heads over a scan
/// with and without padding, ⋈± heads among them — over `facts` rows,
/// read from the scans or (`copy`) from copies of them.
fn hash_loop_plans(facts: &Relation, copy: bool) -> Vec<(String, Arc<PhysNode>)> {
    let dims = hash_dims();
    let f = || scan_or_copy(facts, copy);
    let d = || scan_or_copy(&dims, copy);
    let plain = || {
        vec![
            agg(AggFunc::Count, false, None),
            agg(AggFunc::Sum, false, Some(2)),
            agg(AggFunc::Avg, false, Some(1)),
            agg(AggFunc::Min, false, Some(3)),
            agg(AggFunc::Max, false, Some(2)),
            agg(AggFunc::Sum, false, Some(1)),
            agg(AggFunc::Count, false, Some(4)),
            agg(AggFunc::Max, false, Some(5)),
        ]
    };
    let distinct = || {
        vec![
            agg(AggFunc::Count, true, None),
            agg(AggFunc::Sum, true, Some(2)),
            agg(AggFunc::Avg, true, Some(1)),
            agg(AggFunc::Count, true, Some(3)),
            agg(AggFunc::Min, true, Some(0)),
        ]
    };
    let gamma = |input: Arc<PhysNode>, keys: &[usize], aggs: Vec<AggSpec>| {
        let out = ints(keys.len() + aggs.len());
        PhysNode::aggregate(input, keys.iter().map(|&k| col(k)).collect(), aggs, out)
    };
    let sigma = || {
        let kept = cmp(BinOp::Gt, col(2), PhysExpr::Literal(Value::Int(-20)));
        PhysNode::pipeline(f(), vec![Stage::Filter(kept)], ints(6))
    };
    let mut out = Vec::new();
    for keys in [&[][..], &[0], &[4], &[0, 3], &[1, 5]] {
        for (what, aggs) in [("plain", plain()), ("DISTINCT", distinct())] {
            let at = |over| format!("Γ by {keys:?}, {what}, over {over}");
            out.push((at("a scan"), gamma(f(), keys, aggs.clone())));
            out.push((at("σ"), gamma(sigma(), keys, aggs)));
        }
    }
    let hash = |left_keys: &[usize], right_keys: &[usize]| JoinOn::Hash {
        left_keys: left_keys.iter().map(|&k| col(k)).collect(),
        right_keys: right_keys.iter().map(|&k| col(k)).collect(),
        residual: None,
    };
    let join = |left: Arc<PhysNode>, right: Arc<PhysNode>, on, defaults| {
        let schema = left.schema.concat(&right.schema);
        let spec = JoinSpec {
            right,
            on,
            defaults,
        };
        PhysNode::pipeline(left, vec![Stage::Probe(spec)], schema)
    };
    let pad = || Some(vec![(1, Value::Float(-1.0)), (2, Value::text("none"))]);
    // Facts probe a full build over the dimension, with and without
    // padding; the dimension probes a build over the facts restricted
    // to its keys (when it is the smaller input) — one- and two-column
    // keys, an `Int` against a `Float` column and a key with NULLs.
    for (name, fk, dk) in [
        ("k = k", &[0][..], &[0][..]),
        ("k = x", &[0], &[1]),
        ("f = k", &[1], &[0]),
        ("nk = k", &[4], &[0]),
        ("(k, s) = (k, name)", &[0, 3], &[0, 2]),
    ] {
        out.push((
            format!("{name}, full build"),
            join(f(), d(), hash(fk, dk), None),
        ));
        out.push((
            format!("{name}, padded"),
            join(f(), d(), hash(fk, dk), pad()),
        ));
        out.push((
            format!("{name}, restricted"),
            join(d(), f(), hash(dk, fk), None),
        ));
    }
    // ⋈± heads over the facts: a hash head, and a nested-loop one.
    for (name, on) in [
        ("hash", hash(&[0], &[0])),
        ("loop", JoinOn::Loop(Some(cmp(BinOp::Eq, col(0), col(6))))),
    ] {
        let schema = facts.schema().concat(dims.schema());
        let spec = JoinSpec {
            right: d(),
            on,
            defaults: None,
        };
        let bypass = PhysNode::bypass(f(), Stage::Probe(spec), schema.clone(), None, None);
        let union = PhysKind::Union {
            inputs: vec![stream(&bypass, true), stream(&bypass, false)],
            distinct: false,
        };
        out.push((format!("⋈± {name} head"), PhysNode::new(union, schema)));
    }
    out
}

/// What a run shows: its rows, its counters and — per operator, sorted —
/// the EXPLAIN ANALYZE counts of the hash loops.
type HashRun = (Vec<Tuple>, bypass_exec::ExecCounters, Vec<[u64; 5]>);

fn hash_run(plan: &Arc<PhysNode>, options: &ExecOptions) -> HashRun {
    let mut ctx = ExecContext::new(options.clone()).with_metrics();
    let rows = ctx.eval_plan(plan).unwrap().rows().to_vec();
    let mut counts: Vec<[u64; 5]> = ctx
        .take_metrics()
        .values()
        .map(|m| {
            [
                m.build_rows,
                m.reverify,
                m.input_rows,
                m.group_rows,
                m.groups,
            ]
        })
        .filter(|c| c.iter().any(|&x| x > 0))
        .collect();
    counts.sort();
    (rows, ctx.counters(), counts)
}

#[test]
fn hash_loops_over_a_table_match_row_at_a_time_evaluation() {
    let mechanisms: Vec<ExecOptions> = [1, 3, 256]
        .into_iter()
        .flat_map(|batch_rows| {
            [(1, 4096), (2, 2), (8, 2)].map(|(threads, morsel_rows)| ExecOptions {
                batch_rows,
                threads,
                morsel_rows,
                ..Default::default()
            })
        })
        .collect();
    let dims = hash_dims().len() as u64;
    for n in [0, 1, 255, 256, 257, 3000] {
        let facts = hash_facts(n);
        let chunked = hash_loop_plans(&facts, false);
        let by_row = hash_loop_plans(&facts, true);
        for ((name, plan), (_, copy)) in chunked.iter().zip(&by_row) {
            // The reference: one worker, rows read off a copy one at a
            // time. The copies charge one shared-row handle per row they
            // hold — one checkpoint each, held to the end.
            let (want_rows, copied, want_counts) = hash_run(copy, &mechanisms[0]);
            let copies = plan_copies(copy);
            let want = bypass_exec::ExecCounters {
                checkpoints: copied.checkpoints - copies.len() as u64,
                peak_memory_bytes: copied.peak_memory_bytes
                    - copies.iter().map(|&c| c as u64).sum::<u64>() * SHARED_ROW_BYTES,
                ..copied
            };
            assert!(copies
                .iter()
                .all(|&c| c as u64 == n as u64 || c as u64 == dims));
            for options in &mechanisms {
                let at = format!("{name} over {n} rows under {options:?}");
                let (rows, counters, counts) = hash_run(plan, options);
                assert_eq!(rows, want_rows, "{at}: rows, in order");
                assert_eq!(counters, want, "{at}: counters");
                assert_eq!(
                    counts, want_counts,
                    "{at}: build= reverify= probe= in= groups="
                );
            }
        }
    }
}

/// The row counts of the copies (`Limit` nodes) `plan` holds.
fn plan_copies(plan: &Arc<PhysNode>) -> Vec<usize> {
    let mut out = Vec::new();
    let mut stack = vec![plan.clone()];
    let mut seen = std::collections::HashSet::new();
    while let Some(node) = stack.pop() {
        if !seen.insert(Arc::as_ptr(&node) as usize) {
            continue;
        }
        match &node.kind {
            PhysKind::Limit { input, .. } => match &input.kind {
                PhysKind::Scan { data, .. } => out.push(data.len()),
                _ => unreachable!("a copy is a Limit over a scan"),
            },
            _ => stack.extend(node.children().into_iter().cloned()),
        }
    }
    out
}
