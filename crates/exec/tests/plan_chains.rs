//! A σ/σ± predicate is compiled into its chain when the plan node is
//! built, and the node is all that is shared: contexts, worker threads
//! and morsel forks read the same chain and keep nothing of their own
//! between calls. One `Arc<PhysNode>` — a correlated subquery whose
//! nested σs read a `Scan`, a copy and a `Π` (the last two transpose
//! their input on every invocation) under an outer σ over a copy —
//! must therefore give the same rows, counters and timing-stripped
//! profile whoever runs it, however often, at every fan-out.

use std::sync::Arc;

use bypass_algebra::{AggFunc, BinOp};
use bypass_catalog::TableColumns;
use bypass_exec::{
    AggSpec, ExecContext, ExecCounters, ExecOptions, PhysExpr, PhysKind, PhysNode, Stage,
};
use bypass_types::{DataType, Field, Relation, Schema, Tuple, Value};

fn schema(names: &[&str]) -> Schema {
    Schema::new(
        names
            .iter()
            .map(|n| Field::new(*n, DataType::Int))
            .collect(),
    )
}

fn scan(names: &[&str], rows: impl Iterator<Item = Vec<i64>>) -> Arc<PhysNode> {
    let rows = rows.map(|r| Tuple::new(r.into_iter().map(Value::Int).collect()));
    let rel = Relation::new(schema(names), rows.collect());
    PhysNode::scan(TableColumns::new(rel))
}

fn col(i: usize) -> PhysExpr {
    PhysExpr::Column(i)
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

fn filter(input: Arc<PhysNode>, predicate: PhysExpr) -> Arc<PhysNode> {
    let schema = input.schema.clone();
    PhysNode::pipeline(input, vec![Stage::Filter(predicate)], schema)
}

/// A `Limit` that keeps every row: a copy of `input`, an intermediate.
fn copy(input: Arc<PhysNode>) -> Arc<PhysNode> {
    let schema = input.schema.clone();
    let n = usize::MAX;
    PhysNode::new(PhysKind::Limit { input, n }, schema)
}

fn union(left: Arc<PhysNode>, right: Arc<PhysNode>) -> Arc<PhysNode> {
    let schema = left.schema.clone();
    let inputs = vec![left, right];
    PhysNode::new(
        PhysKind::Union {
            inputs,
            distinct: false,
        },
        schema,
    )
}

/// `key = <outer a2> OR other > 20`: two kernel terms, so the nested
/// σ runs both column-wise and books per-disjunct counters.
fn linking(key: usize, other: usize) -> PhysExpr {
    bin(
        BinOp::Or,
        bin(BinOp::Eq, col(key), PhysExpr::Outer { depth: 1, index: 1 }),
        bin(BinOp::Gt, col(other), int(20)),
    )
}

/// σ_{a1 = (SELECT COUNT(*) FROM σ(s) ∪̇ σ(copy s) ∪̇ σ(Π s)) OR a2 > 8}
/// over a copy of `r` — 600 outer rows, the subquery term written
/// first and so evaluated for every one of them.
fn plan() -> Arc<PhysNode> {
    let r = scan(&["a1", "a2"], (0..600).map(|i| vec![i % 25, i % 11]));
    let s = scan(
        &["b1", "b2", "b3"],
        (0..30).map(|j| vec![j, j % 11, j % 25]),
    );
    let swapped = PhysNode::pipeline(
        s.clone(),
        vec![Stage::Project(vec![col(0), col(2), col(1)])],
        schema(&["b1", "b3", "b2"]),
    );
    let branches = union(
        union(
            filter(s.clone(), linking(1, 2)),
            filter(copy(s), linking(1, 2)),
        ),
        filter(swapped, linking(2, 1)),
    );
    let count = PhysNode::aggregate(
        branches,
        vec![],
        vec![AggSpec {
            func: AggFunc::Count,
            distinct: false,
            arg: None,
        }],
        schema(&["c"]),
    );
    let nested = PhysExpr::Subquery {
        plan: count,
        correlated: true,
        outer_keys: vec![1],
    };
    let predicate = bin(
        BinOp::Or,
        bin(BinOp::Eq, col(0), nested),
        bin(BinOp::Gt, col(1), int(8)),
    );
    filter(copy(r), predicate)
}

/// `time=…ms self=…ms` → `time=_ms self=_ms`.
fn strip_timings(report: &str) -> String {
    let mut out = String::new();
    let mut rest = report;
    while let Some(at) = ["time=", "self="]
        .iter()
        .filter_map(|k| rest.find(k).map(|i| i + k.len()))
        .min()
    {
        out.push_str(&rest[..at]);
        out.push('_');
        rest = &rest[at..];
        rest = &rest[rest.find("ms").expect("a timing ends in ms")..];
    }
    out + rest
}

fn run(
    plan: &Arc<PhysNode>,
    threads: usize,
    morsel_rows: usize,
    batch_rows: usize,
) -> (Vec<Tuple>, ExecCounters, String) {
    let mut ctx = ExecContext::new(ExecOptions {
        threads,
        morsel_rows,
        batch_rows,
        ..ExecOptions::default()
    })
    .with_metrics();
    let rows = ctx.eval_plan(plan).unwrap().rows().to_vec();
    let profile = strip_timings(&plan.explain_with_metrics(&ctx.take_metrics()));
    (rows, ctx.counters(), profile)
}

#[test]
fn filters_carry_their_chain_from_plan_time() {
    let s = scan(&["b1", "b2"], (0..4).map(|j| vec![j, j]));
    let predicate = bin(
        BinOp::Or,
        bin(BinOp::Gt, col(1), int(2)),
        bin(BinOp::Gt, bin(BinOp::Div, int(10), col(0)), int(2)),
    );
    let sigma = filter(s.clone(), predicate.clone());
    let bypass = PhysNode::bypass(
        s.clone(),
        Stage::Filter(predicate),
        s.schema.clone(),
        None,
        None,
    );
    for node in [&sigma, &bypass] {
        let chain = node
            .chain()
            .unwrap_or_else(|| panic!("{} has no chain", node.name()));
        assert!(chain.is_or);
        assert_eq!(chain.terms.len(), 2);
        assert!(chain.terms[0].kernel && !chain.terms[1].kernel);
        assert_eq!(chain.kernels().len(), 1);
        assert_eq!(chain.cols, vec![1], "kernel columns only");
    }
    // Compiled against the input's arity: column 2 of a two-column input
    // is an error to raise row by row, not a kernel.
    let wide = filter(s.clone(), bin(BinOp::Eq, col(2), int(1)));
    assert!(!wide.chain().unwrap().terms[0].kernel);
    // No other operator has one.
    let tap = PhysNode::new(
        PhysKind::Stream {
            source: bypass,
            positive: true,
        },
        s.schema.clone(),
    );
    for node in [&s, &copy(s.clone()), &tap] {
        assert!(node.chain().is_none(), "{}", node.name());
    }
}

#[test]
fn one_plan_serves_every_context_thread_and_fan_out() {
    let plan = plan();
    let reference = run(&plan, 1, usize::MAX, 256);
    let (rows, counters, profile) = &reference;
    assert!(!rows.is_empty() && rows.len() < 600, "{} rows", rows.len());
    assert!(counters.disjunct_evals > 0 && counters.checkpoints > 0);
    assert!(
        profile.contains("subquery:") && profile.contains("disjuncts=["),
        "nested block and per-disjunct counters in the profile:\n{profile}"
    );

    // The same context again: nothing it kept from the first run may
    // show in the second.
    let mut ctx = ExecContext::new(ExecOptions {
        threads: 1,
        ..ExecOptions::default()
    });
    for _ in 0..2 {
        assert_eq!(ctx.eval_plan(&plan).unwrap().rows(), rows.as_slice());
    }

    // Two contexts at once on two threads.
    let concurrent: Vec<_> = std::thread::scope(|scope| {
        let spawned: Vec<_> = (0..2)
            .map(|_| scope.spawn(|| run(&plan, 1, usize::MAX, 256)))
            .collect();
        spawned.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for got in &concurrent {
        assert_eq!(got, &reference, "two contexts, two threads");
    }

    // Every loop forced to fan out: the outer σ forks once per call,
    // each worker re-runs the nested block on a context forked for that
    // fan-out.
    for batch_rows in [1, 3, 256] {
        let got = run(&plan, 8, 2, batch_rows);
        assert_eq!(
            got, reference,
            "threads=8 morsel_rows=2 batch_rows={batch_rows}"
        );
    }
}
