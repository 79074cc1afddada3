//! Columns change where a loop reads its input from, never what it
//! computes: every plan shape that reads `bypass_catalog::TableColumns`
//! (σ and σ± chunks, Γ keys and arguments, hash build, hash probe head)
//! is run over a `Scan` — the table's own columns — and over a copy of
//! that scan — a `Limit` that keeps every row: the same rows as an
//! intermediate, read through transient columns — and must hand on the
//! same rows in the same order, raise the same error, and pass the same
//! governor trajectory once the copy's own shared-row charge is taken
//! out, at every worker count. Both inputs run the chunk loops, so each
//! hash loop is also held to a twin that runs none: Γ fed row by row by
//! a stage in front of it, a hash join by its nested-loop twin.

use std::sync::Arc;

use bypass_algebra::{AggFunc, BinOp};
use bypass_catalog::TableColumns;
use bypass_exec::{
    AggSpec, ExecContext, ExecCounters, ExecOptions, JoinOn, JoinSpec, PhysExpr, PhysKind,
    PhysNode, Stage,
};
use bypass_types::{DataType, Field, Relation, Result, Schema, Tuple, Value, SHARED_ROW_BYTES};

fn schema(names: &[&str]) -> Schema {
    // The declared types are never consulted by the executor.
    Schema::new(
        names
            .iter()
            .map(|n| Field::new(*n, DataType::Int))
            .collect(),
    )
}

/// 600 fact rows `[i, f, s, n, v, m]`: an all-Int key, an all-Float key
/// (both zeros and NaN among them), a text key, a key with NULLs, an
/// Int argument, and a key mixing `Int(k)` with `Float(k)`. The first
/// three columns become typed / text columns, `n` and `m` fall back to
/// `Values`.
fn facts() -> Relation {
    let rows = (0..600i64).map(|i| {
        let f = match i % 11 {
            0 => -0.0,
            1 => 0.0,
            2 => f64::NAN,
            k => k as f64 * 0.5,
        };
        Tuple::new(vec![
            Value::Int(i % 37),
            Value::Float(f),
            Value::text(format!("k{}", i % 7)),
            if i % 5 == 0 {
                Value::Null
            } else {
                Value::Int(i % 3)
            },
            Value::Int((i * 7) % 101),
            if i % 2 == 0 {
                Value::Int(i % 4)
            } else {
                Value::Float((i % 4) as f64)
            },
        ])
    });
    Relation::new(schema(&["i", "f", "s", "n", "v", "m"]), rows.collect())
}

/// 30 dimension rows `[k, x, name, note]` with even keys `k`, `x` the
/// same number as a float: half of the fact keys find a partner. `note`
/// is a text or NULL, a `Values` column.
fn dims() -> Relation {
    let rows = (0..30i64).map(|k| {
        Tuple::new(vec![
            Value::Int(2 * k),
            Value::Float(2.0 * k as f64),
            Value::text(format!("d{k}")),
            match k % 3 {
                0 => Value::Null,
                r => Value::text(format!("note{r}")),
            },
        ])
    });
    Relation::new(schema(&["k", "x", "name", "note"]), rows.collect())
}

/// 30 rows `[k, tag, x, nk]` for two-column keys against the facts:
/// `(k, tag)` meets the facts' `(i, s)`, `(x, nk)` their `(f, n)` — `x`
/// an all-Float column with a zero and a NaN, `nk` an Int column with
/// NULLs, so one side of that key stays `Values`.
fn pairs() -> Relation {
    let rows = (0..30i64).map(|k| {
        Tuple::new(vec![
            Value::Int(k),
            Value::text(format!("k{}", k % 7)),
            Value::Float(if k == 29 { f64::NAN } else { k as f64 * 0.5 }),
            if k % 4 == 3 {
                Value::Null
            } else {
                Value::Int(k % 3)
            },
        ])
    });
    Relation::new(schema(&["k", "tag", "x", "nk"]), rows.collect())
}

fn col(i: usize) -> PhysExpr {
    PhysExpr::Column(i)
}

fn float(v: f64) -> PhysExpr {
    PhysExpr::Literal(Value::Float(v))
}

fn is_null(e: PhysExpr, negated: bool) -> PhysExpr {
    PhysExpr::IsNull {
        negated,
        expr: Box::new(e),
    }
}

fn int(v: i64) -> PhysExpr {
    PhysExpr::Literal(Value::Int(v))
}

fn bin(op: BinOp, l: PhysExpr, r: PhysExpr) -> PhysExpr {
    PhysExpr::Binary {
        op,
        left: Box::new(l),
        right: Box::new(r),
    }
}

/// How a plan reaches a base table: straight from the scan, or through
/// a copy of it — an intermediate relation with the same rows, which a
/// Γ cannot take over as its pipeline's sink.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Route {
    Scan,
    Copy,
}

fn table(rel: &Relation, route: Route) -> Arc<PhysNode> {
    let schema = rel.schema().clone();
    let scan = PhysNode::scan(TableColumns::new(rel.clone()));
    match route {
        Route::Scan => scan,
        Route::Copy => PhysNode::new(
            PhysKind::Limit {
                input: scan,
                n: usize::MAX,
            },
            schema,
        ),
    }
}

fn agg(func: AggFunc, distinct: bool, arg: Option<usize>) -> AggSpec {
    AggSpec {
        func,
        distinct,
        arg,
    }
}

fn gamma(input: Arc<PhysNode>, keys: &[usize], aggs: Vec<AggSpec>) -> Arc<PhysNode> {
    let out = schema(&vec!["c"; keys.len() + aggs.len()]);
    PhysNode::aggregate(input, keys.to_vec(), aggs, out)
}

fn hash_join(
    left: Arc<PhysNode>,
    right: Arc<PhysNode>,
    (left_keys, right_keys): (&[usize], &[usize]),
    defaults: Option<Vec<(usize, Value)>>,
) -> Arc<PhysNode> {
    let out = schema(&vec!["c"; left.schema.arity() + right.schema.arity()]);
    let spec = JoinSpec {
        right,
        on: JoinOn::Hash {
            left_keys: left_keys.to_vec(),
            right_keys: right_keys.to_vec(),
            residual: None,
        },
        defaults,
    };
    PhysNode::pipeline(left, vec![Stage::Probe(spec)], out)
}

/// Every plan shape that reads a base table by column, over `route`,
/// with the tables it reaches: under [`Route::Copy`] one `Limit` node
/// each, charging for that table's rows.
fn plans(route: Route) -> Vec<(String, Arc<PhysNode>, Vec<u64>)> {
    let (facts, dims) = (facts(), dims());
    let nf = vec![facts.len() as u64];
    let both = vec![facts.len() as u64, dims.len() as u64];
    let f = || table(&facts, route);
    let d = || table(&dims, route);
    let mut out: Vec<(String, Arc<PhysNode>, Vec<u64>)> = Vec::new();

    // σ: typed kernels, a text and an IS NULL kernel, an interpreter term;
    // then the kernels that read a column's slots by position — an Int
    // column against a Float constant, a Float column against an Int one,
    // IS NULL over a typed column, `a AND b` inside the OR — ahead of a
    // LIKE over the text column.
    let predicates = [
        bin(
            BinOp::Or,
            bin(BinOp::Gt, col(0), int(30)),
            bin(BinOp::Lt, col(4), col(0)),
        ),
        bin(
            BinOp::And,
            bin(BinOp::GtEq, col(1), PhysExpr::Literal(Value::Float(0.0))),
            bin(BinOp::Neq, col(5), col(0)),
        ),
        bin(
            BinOp::Or,
            bin(BinOp::Eq, col(2), PhysExpr::Literal(Value::text("k3"))),
            bin(
                BinOp::Or,
                PhysExpr::IsNull {
                    negated: false,
                    expr: Box::new(col(3)),
                },
                bin(BinOp::Gt, bin(BinOp::Add, col(4), int(1)), int(90)),
            ),
        ),
        [
            bin(BinOp::Gt, col(0), float(30.5)),
            bin(BinOp::Lt, col(1), col(0)),
            is_null(col(4), false),
            bin(
                BinOp::And,
                bin(BinOp::Gt, col(1), float(4.0)),
                bin(BinOp::Lt, col(0), int(10)),
            ),
            PhysExpr::Like {
                negated: false,
                expr: Box::new(col(2)),
                pattern: Box::new(PhysExpr::Literal(Value::text("k1%"))),
            },
        ]
        .into_iter()
        .reduce(|a, b| bin(BinOp::Or, a, b))
        .expect("five terms"),
    ];
    for (k, predicate) in predicates.iter().enumerate() {
        let input = f();
        let schema = input.schema.clone();
        let filter =
            PhysNode::pipeline(f(), vec![Stage::Filter(predicate.clone())], schema.clone());
        out.push((format!("σ #{k}"), filter, nf.clone()));
        // σ±, both streams, negative first.
        let bypass = PhysNode::bypass(
            input,
            Stage::Filter(predicate.clone()),
            schema.clone(),
            None,
            None,
        );
        let stream = |positive| {
            let source = bypass.clone();
            PhysNode::new(PhysKind::Stream { source, positive }, schema.clone())
        };
        let union = PhysKind::Union {
            inputs: vec![stream(false), stream(true)],
            distinct: false,
        };
        out.push((format!("σ± #{k}"), PhysNode::new(union, schema), nf.clone()));
    }

    // Γ: every kind of key, every kind of argument.
    let aggs = || {
        vec![
            agg(AggFunc::Count, true, None),
            agg(AggFunc::Sum, false, Some(4)),
            agg(AggFunc::Avg, false, Some(4)),
            agg(AggFunc::Avg, true, Some(1)),
            agg(AggFunc::Min, false, Some(2)),
            agg(AggFunc::Count, false, Some(3)),
            agg(AggFunc::Max, false, Some(5)),
        ]
    };
    for keys in [&[0][..], &[1], &[2], &[3], &[5], &[0, 2], &[]] {
        out.push((
            format!("Γ by {keys:?}"),
            gamma(f(), keys, aggs()),
            nf.clone(),
        ));
    }
    // A key beyond the arity is the row route's error on either route.
    out.push(("Γ by [9]".into(), gamma(f(), &[9], aggs()), nf.clone()));

    // Hash joins. Dimension ⋈ fact: the smaller input probes, so the
    // build over the fact table admits only the dimension's keys …
    out.push((
        "admitted build".into(),
        hash_join(d(), f(), (&[0], &[0]), None),
        both.clone(),
    ));
    // … fact ⋈ dimension builds in full and probes off the fact table,
    // half of whose keys find nothing; likewise with a float key column
    // on either side of an integer one, and a key with NULLs.
    out.push((
        "full build".into(),
        hash_join(f(), d(), (&[0], &[0]), None),
        both.clone(),
    ));
    out.push((
        "Int = Float".into(),
        hash_join(f(), d(), (&[0], &[1]), None),
        both.clone(),
    ));
    out.push((
        "Float = Int".into(),
        hash_join(f(), d(), (&[1], &[0]), None),
        both.clone(),
    ));
    out.push((
        "Float = Int, admitted".into(),
        hash_join(d(), f(), (&[0], &[1]), None),
        both.clone(),
    ));
    out.push((
        "mixed = Int".into(),
        hash_join(f(), d(), (&[5], &[0]), None),
        both.clone(),
    ));
    // Outer joins pad what found no partner — NULL keys included.
    let defaults = || Some(vec![(1, Value::Float(-1.0)), (2, Value::text("none"))]);
    out.push((
        "outer".into(),
        hash_join(f(), d(), (&[0], &[0]), defaults()),
        both.clone(),
    ));
    out.push((
        "outer, NULL keys".into(),
        hash_join(f(), d(), (&[3], &[0]), defaults()),
        both.clone(),
    ));
    // Two-column keys, each read off two columns of either table: fact ⋈
    // pairs builds in full over the pairs and probes off the facts;
    // pairs ⋈ fact admits the pairs' keys into a build over the facts;
    // pairs ⟕ fact builds in full over the facts.
    let pairs = pairs();
    let p = || table(&pairs, route);
    let with_pairs = vec![facts.len() as u64, pairs.len() as u64];
    let pad = || Some(vec![(1, Value::Float(-1.0))]);
    for (name, fact_key, pair_key) in [
        ("(Int, text)", &[0, 2], &[0, 1]),
        ("(Float, NULL-bearing)", &[1, 3], &[2, 3]),
    ] {
        for (shape, plan) in [
            (
                "full build, probed off the facts",
                hash_join(f(), p(), (fact_key, pair_key), None),
            ),
            (
                "admitted build",
                hash_join(p(), f(), (pair_key, fact_key), None),
            ),
            (
                "full build over the facts",
                hash_join(p(), f(), (pair_key, fact_key), pad()),
            ),
        ] {
            out.push((format!("{name} key, {shape}"), plan, with_pairs.clone()));
        }
    }
    out.extend(pair_plans(f, d, &both));
    out
}

/// A residual over a fact ⋈ dimension pair (`fact` and `dim`: where each
/// side's columns start) that reads a column of every kind on both
/// sides, through each route of the interpreter: the fast path's
/// comparisons, its `a ± b` sums, the general evaluator (`*`, LIKE).
fn residual(fact: usize, dim: usize) -> PhysExpr {
    let [i, f, s, n, v, m]: [PhysExpr; 6] = std::array::from_fn(|c| col(fact + c));
    let [k, x, name, note]: [PhysExpr; 4] = std::array::from_fn(|c| col(dim + c));
    let like = PhysExpr::Like {
        negated: false,
        expr: Box::new(name.clone()),
        pattern: Box::new(PhysExpr::Literal(Value::text("d1%"))),
    };
    let any = |terms: Vec<PhysExpr>| {
        terms
            .into_iter()
            .reduce(|a, b| bin(BinOp::Or, a, b))
            .unwrap()
    };
    any(vec![
        bin(BinOp::GtEq, f, bin(BinOp::Sub, x, float(3.0))),
        bin(
            BinOp::And,
            bin(BinOp::LtEq, m, int(1)),
            bin(BinOp::Neq, s, name),
        ),
        bin(BinOp::And, is_null(note, false), is_null(n.clone(), true)),
        bin(BinOp::Gt, bin(BinOp::Add, v.clone(), k.clone()), int(90)),
        bin(
            BinOp::Gt,
            bin(BinOp::Mul, v, int(2)),
            bin(BinOp::Mul, k, int(3)),
        ),
        bin(BinOp::And, like, bin(BinOp::Lt, n, i)),
    ])
}

/// Pairs read by position: joins of the facts and the dimensions whose
/// residual ([`residual`]) and `Pick` read every column kind on both
/// sides — typed `Int` (`i`, `v`, `k`), typed `Float` with NaN and
/// `-0.0` (`f`) and without (`x`), `Values` of text and of NULLs (`s`,
/// `n`, `name`, `note`), a mixed Int/Float column (`m`) — with a full
/// build, a build restricted to the probing side's keys, an outer join's
/// padding, a nested loop, a Γ folding the picked rows and one folding
/// the pairs themselves, and σ's rows through a χ and a `Pick`.
fn pair_plans(
    f: impl Fn() -> Arc<PhysNode>,
    d: impl Fn() -> Arc<PhysNode>,
    both: &[u64],
) -> Vec<(String, Arc<PhysNode>, Vec<u64>)> {
    let out_schema = |n: usize| schema(&vec!["c"; n]);
    let join = |left: Arc<PhysNode>, right: Arc<PhysNode>, on: JoinOn, defaults, pick: &[usize]| {
        let spec = JoinSpec {
            right,
            on,
            defaults,
        };
        let stages = vec![Stage::Probe(spec), Stage::Pick(pick.to_vec())];
        PhysNode::pipeline(left, stages, out_schema(pick.len()))
    };
    let hash = |l: usize, r: usize, residual| JoinOn::Hash {
        left_keys: vec![l],
        right_keys: vec![r],
        residual: Some(residual),
    };
    // fact ◦ dim: i f s n v m | k x name note; dim ◦ fact the other way.
    let fact_dim = [8, 1, 9, 5, 7, 3, 2, 0, 4, 6];
    let dim_fact = [2, 5, 3, 9, 1, 7, 6, 4, 8, 0];
    let pad = || Some(vec![(1, Value::Float(-0.0)), (3, Value::text("pad"))]);
    let mut plans = vec![
        (
            "pairs, full build",
            join(f(), d(), hash(0, 0, residual(0, 6)), None, &fact_dim),
        ),
        (
            "pairs, admitted build",
            join(d(), f(), hash(0, 0, residual(4, 0)), None, &dim_fact),
        ),
        (
            "pairs, outer",
            join(f(), d(), hash(5, 0, residual(0, 6)), pad(), &fact_dim),
        ),
        (
            "pairs, nested loop",
            join(
                d(),
                f(),
                JoinOn::Loop(Some(bin(
                    BinOp::And,
                    bin(BinOp::Eq, col(0), col(4)),
                    residual(4, 0),
                ))),
                None,
                &dim_fact,
            ),
        ),
    ];
    // Γ over the picked rows: keyed by `name` and `m`, folding `f`, `x`
    // and `note`.
    let picked = join(f(), d(), hash(0, 0, residual(0, 6)), None, &fact_dim);
    let aggs = vec![
        agg(AggFunc::Count, true, None),
        agg(AggFunc::Avg, false, Some(1)),
        agg(AggFunc::Max, false, Some(6)),
        agg(AggFunc::Min, false, Some(2)),
        agg(AggFunc::Sum, true, Some(4)),
    ];
    plans.push(("Γ over picked pairs", gamma(picked, &[0, 3], aggs.clone())));
    // Γ over the pairs themselves: its keys and arguments, and the whole
    // row COUNT(DISTINCT *) reads, are cells of both sides.
    let spec = JoinSpec {
        right: f(),
        on: hash(0, 0, residual(4, 0)),
        defaults: None,
    };
    let pairs = PhysNode::pipeline(d(), vec![Stage::Probe(spec)], out_schema(10));
    let aggs = vec![
        agg(AggFunc::Count, true, None),
        agg(AggFunc::Sum, false, Some(8)),
        agg(AggFunc::Avg, true, Some(5)),
        agg(AggFunc::Min, false, Some(6)),
        agg(AggFunc::Max, false, Some(3)),
        agg(AggFunc::Count, false, Some(7)),
    ];
    plans.push(("Γ over pairs", gamma(pairs, &[2, 9], aggs)));
    let mut out: Vec<_> = plans
        .into_iter()
        .map(|(name, plan)| (name.to_string(), plan, both.to_vec()))
        .collect();
    // σ hands its rows on by position: a χ and a `Pick` read them.
    let keep = bin(
        BinOp::Or,
        bin(BinOp::Gt, col(4), int(50)),
        is_null(col(3), false),
    );
    let mapped = bin(BinOp::Add, bin(BinOp::Mul, col(4), int(2)), col(5));
    let stages = vec![
        Stage::Filter(keep),
        Stage::Map(mapped),
        Stage::Pick(vec![6, 2, 1, 5, 3]),
    ];
    let facts = both[..1].to_vec();
    out.push((
        "σ, χ and Pick".into(),
        PhysNode::pipeline(f(), stages, out_schema(5)),
        facts,
    ));
    out
}

fn run(plan: &Arc<PhysNode>, threads: usize) -> (Result<Vec<Tuple>>, ExecCounters) {
    run_chunked(plan, threads, ExecOptions::default().batch_rows)
}

fn run_chunked(
    plan: &Arc<PhysNode>,
    threads: usize,
    batch_rows: usize,
) -> (Result<Vec<Tuple>>, ExecCounters) {
    // Two work units per morsel: every loop that may fork does.
    let mut ctx = ExecContext::new(ExecOptions {
        threads,
        morsel_rows: 2,
        batch_rows,
        ..Default::default()
    });
    let rows = ctx.eval_plan(plan).map(|rel| rel.rows().to_vec());
    (rows, ctx.counters())
}

#[test]
fn a_scan_and_an_intermediate_of_the_same_rows_are_one_input() {
    for ((name, scan, _), (_, copy, copied)) in
        plans(Route::Scan).into_iter().zip(plans(Route::Copy))
    {
        let (want_rows, want) = run(&scan, 1);
        let grid = [1, 2, 8]
            .into_iter()
            .flat_map(|t| [1, 3, 1024].map(|b| (t, b)));
        for (threads, batch_rows) in grid {
            let at = format!("{name}, {threads} threads, chunks of {batch_rows}");
            let (rows, counters) = run_chunked(&scan, threads, batch_rows);
            let (copy_rows_out, copy_counters) = run_chunked(&copy, threads, batch_rows);
            match (&want_rows, &rows, &copy_rows_out) {
                (Ok(want), Ok(rows), Ok(through_copy)) => {
                    assert!(!want.is_empty(), "{at}: a vacuous case");
                    assert_eq!(rows, want, "{at}: rows, in order");
                    assert_eq!(through_copy, want, "{at}: rows through the copy");
                }
                (Err(want), Err(e), Err(through_copy)) => {
                    assert_eq!(e.to_string(), want.to_string(), "{at}");
                    assert_eq!(through_copy.to_string(), want.to_string(), "{at}");
                }
                other => panic!("{at}: routes disagree on success: {other:?}"),
            }
            assert_eq!(
                counters, want,
                "{at}: counters across worker counts and chunks"
            );
            if want_rows.is_ok() {
                // A `Limit` copies its rows by refcount: one charge —
                // one checkpoint — of a shared-row handle each, held
                // until the statement ends.
                let through_scan = ExecCounters {
                    checkpoints: copy_counters.checkpoints - copied.len() as u64,
                    peak_memory_bytes: copy_counters.peak_memory_bytes
                        - copied.iter().sum::<u64>() * SHARED_ROW_BYTES,
                    ..copy_counters
                };
                assert_eq!(through_scan, want, "{at}: counters without the copy");
            }
        }
    }
}

#[test]
fn an_overflowing_sum_fails_alike_on_either_route() {
    // The third row overflows; the fourth would, too, but is never seen.
    let values = [i64::MAX, 0, 1, i64::MAX];
    let rows = values.map(|v| Tuple::new(vec![Value::Int(1), Value::Int(v)]));
    let rel = Relation::new(schema(&["k", "v"]), rows.to_vec());
    let errors = [Route::Scan, Route::Copy].map(|route| {
        let sum = gamma(
            table(&rel, route),
            &[0],
            vec![agg(AggFunc::Sum, false, Some(1))],
        );
        let (rows, counters) = run(&sum, 1);
        let copies = u64::from(route == Route::Copy);
        (
            rows.expect_err("SUM overflows").to_string(),
            counters.checkpoints - copies,
        )
    });
    assert!(errors[0].0.contains("integer overflow"), "{}", errors[0].0);
    // Three row ticks and the one group's charge.
    assert_eq!(errors[0].1, 4, "raised at the row that overflows");
    assert_eq!(errors[0], errors[1]);
}

/// The row-at-a-time twin of a hash loop plan over scans, which runs no
/// chunk loop: Γ folding the rows that stream through a Π keeping every
/// column — one more tick per row, nothing else, so the extra
/// checkpoints are given — and a hash join's nested-loop twin on the
/// same equalities, which emits the same pairs in the same order but
/// ticks per pair. A NULL or a NaN key matches nothing either way: SQL's
/// `=` is UNKNOWN on it.
fn twin(plan: &Arc<PhysNode>) -> Option<(Arc<PhysNode>, Option<u64>)> {
    let PhysKind::Pipeline { input, chain, .. } = &plan.kind else {
        return None;
    };
    if let Some(group) = plan.group().filter(|_| chain.stages.is_empty()) {
        let PhysKind::Scan { columns } = &input.kind else {
            return None;
        };
        let every = (0..input.schema.arity()).map(col).collect();
        let streamed = PhysNode::pipeline(
            input.clone(),
            vec![Stage::Project(every)],
            input.schema.clone(),
        );
        let (keys, aggs) = (group.keys.clone(), group.aggs.clone());
        let twin = PhysNode::aggregate(streamed, keys, aggs, plan.schema.clone());
        return Some((twin, Some(columns.data().len() as u64)));
    }
    let spec = plan.head_probe().filter(|_| chain.stages.len() == 1)?;
    let JoinOn::Hash {
        left_keys,
        right_keys,
        residual: None,
    } = &spec.on
    else {
        return None;
    };
    let arity = input.schema.arity();
    let eq = |(&l, &r): (&usize, &usize)| bin(BinOp::Eq, col(l), col(arity + r));
    let mut eqs = left_keys.iter().zip(right_keys).map(eq);
    let first = eqs.next()?;
    let spec = JoinSpec {
        right: spec.right.clone(),
        on: JoinOn::Loop(Some(eqs.fold(first, |a, e| bin(BinOp::And, a, e)))),
        defaults: spec.defaults.clone(),
    };
    let twin = PhysNode::pipeline(input.clone(), vec![Stage::Probe(spec)], plan.schema.clone());
    Some((twin, None))
}

#[test]
fn every_hash_loop_matches_its_row_at_a_time_twin() {
    let mut twins = 0;
    for (name, plan, _) in plans(Route::Scan) {
        let Some((twin, extra)) = twin(&plan) else {
            continue;
        };
        twins += 1;
        let (want_rows, want) = run(&twin, 1);
        for threads in [1, 2, 8] {
            let at = format!("{name}, {threads} threads");
            let (rows, counters) = run(&plan, threads);
            match (&rows, &want_rows) {
                (Ok(rows), Ok(want)) => assert_eq!(rows, want, "{at}: the twin's rows, in order"),
                (Err(e), Err(want)) => assert_eq!(e.to_string(), want.to_string(), "{at}"),
                other => panic!("{at}: the twin disagrees on success: {other:?}"),
            }
            if let (Some(extra), true) = (extra, want_rows.is_ok()) {
                let by_row = ExecCounters {
                    checkpoints: want.checkpoints - extra,
                    ..want
                };
                assert_eq!(
                    (counters.checkpoints, counters.peak_memory_bytes),
                    (by_row.checkpoints, by_row.peak_memory_bytes),
                    "{at}: checkpoints and peak bytes of folding row by row"
                );
            }
        }
    }
    assert!(twins >= 20, "every Γ and hash join has a twin: {twins}");
}

/// A key or argument column past its input's arity raises `column #c
/// out of range` at the first row that reads it, after that row's
/// checkpoints: Γ's key at its first row's tick, its argument after the
/// first group's charge too, a build key at the first build row's tick,
/// a probe key after the whole build and the first probing row's tick.
#[test]
fn a_key_column_past_the_arity_raises_at_the_first_row_that_reads_it() {
    let (dims, facts) = (table(&dims(), Route::Scan), table(&facts(), Route::Scan));
    let count = || vec![agg(AggFunc::Count, false, None)];
    let cases = [
        ("Γ key", gamma(dims.clone(), &[7], count())),
        (
            "Γ argument",
            gamma(dims.clone(), &[0], vec![agg(AggFunc::Sum, false, Some(7))]),
        ),
        (
            "build key",
            hash_join(facts.clone(), dims.clone(), (&[0], &[7]), None),
        ),
        ("probe key", hash_join(dims, facts, (&[7], &[0]), None)),
    ];
    // The probe: 600 build ticks and entry charges, then its own tick.
    for ((name, plan), checkpoints) in cases.into_iter().zip([1, 2, 1, 1_201]) {
        for threads in [1, 2, 8] {
            let (rows, counters) = run(&plan, threads);
            let err = rows.expect_err(name).to_string();
            assert!(err.contains("column #7 out of range"), "{name}: {err}");
            assert_eq!(
                counters.checkpoints, checkpoints,
                "{name}, {threads} threads"
            );
        }
    }
}
