//! Unit tests for the physical planner (name resolution, join strategy
//! selection, correlation depth, fusion) through its public surface.

use std::collections::HashSet;
use std::sync::Arc;

use bypass_algebra::{AggCall, BinOp, LogicalPlan, PlanBuilder, Scalar};
use bypass_catalog::{Catalog, TableBuilder};
use bypass_exec::{
    evaluate, physical_plan, physical_plan_with, ExecContext, ExecOptions, JoinOn, PhysNode,
    PlanOptions,
};
use bypass_types::{DataType, Error, ResourceKind, Value, ROW_OVERHEAD_BYTES, VALUE_BYTES};

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    for (name, prefix) in [("r", 'a'), ("s", 'b'), ("t", 'c')] {
        let mut b = TableBuilder::new();
        for i in 1..=4 {
            b = b.column(format!("{prefix}{i}"), DataType::Int);
        }
        // A few deterministic rows.
        for k in 0..6i64 {
            b = b
                .row((0..4).map(|j| Value::Int((k + j) % 4)).collect())
                .unwrap();
        }
        c.register(name, b.build()).unwrap();
    }
    c
}

fn scan(c: &Catalog, name: &str) -> PlanBuilder {
    PlanBuilder::scan(name, name, c.get(name).unwrap().schema().clone())
}

#[test]
fn equi_join_compiles_to_hash_join() {
    let c = catalog();
    let plan = scan(&c, "r")
        .join(
            scan(&c, "s"),
            Scalar::qcol("r", "a1")
                .eq(Scalar::qcol("s", "b1"))
                .and(Scalar::qcol("r", "a2").gt(Scalar::qcol("s", "b2"))),
        )
        .build();
    let phys = physical_plan(&plan, &c).unwrap();
    let text = phys.explain();
    assert!(text.contains("HashJoin"), "{text}");
    assert!(!text.contains("NLJoin"), "{text}");
    evaluate(&phys).unwrap();
}

#[test]
fn theta_join_falls_back_to_nl() {
    let c = catalog();
    let plan = scan(&c, "r")
        .join(
            scan(&c, "s"),
            Scalar::qcol("r", "a1").lt(Scalar::qcol("s", "b1")),
        )
        .build();
    let phys = physical_plan(&plan, &c).unwrap();
    assert!(phys.explain().contains("NLJoin"), "{}", phys.explain());
}

#[test]
fn swapped_equi_keys_are_recognized() {
    let c = catalog();
    // s.b1 = r.a1 — right-side column on the left of the equality.
    let plan = scan(&c, "r")
        .join(
            scan(&c, "s"),
            Scalar::qcol("s", "b1").eq(Scalar::qcol("r", "a1")),
        )
        .build();
    let phys = physical_plan(&plan, &c).unwrap();
    assert!(phys.explain().contains("HashJoin"), "{}", phys.explain());
}

#[test]
fn unknown_column_reports_scope() {
    let c = catalog();
    let plan = scan(&c, "r")
        .filter(Scalar::col("nope").gt(Scalar::lit(1i64)))
        .build();
    let err = physical_plan(&plan, &c).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("unknown column `nope`"), "{msg}");
    assert!(msg.contains("r.a1"), "lists local scope: {msg}");
}

#[test]
fn correlation_resolves_through_scope_chain() {
    let c = catalog();
    // σ_{a1 = Subquery(count σ_{a2 = b2}(s))}(r): a2 binds outer.
    let sub = scan(&c, "s")
        .filter(Scalar::col("a2").eq(Scalar::qcol("s", "b2")))
        .aggregate(vec![], vec![(AggCall::count_star(), "cnt".into())])
        .build();
    let plan = scan(&c, "r")
        .filter(Scalar::qcol("r", "a1").eq(Scalar::Subquery(sub)))
        .build();
    let phys = physical_plan(&plan, &c).unwrap();
    let out = evaluate(&phys).unwrap();
    // Reference: count rows manually.
    let r = c.get("r").unwrap().data().clone();
    let s = c.get("s").unwrap().data().clone();
    let expected = r
        .rows()
        .iter()
        .filter(|rt| {
            let cnt = s.rows().iter().filter(|st| st[1] == rt[1]).count() as i64;
            rt[0] == Value::Int(cnt)
        })
        .count();
    assert_eq!(out.len(), expected);
}

#[test]
fn ambiguous_unqualified_reference_is_rejected() {
    let mut c = Catalog::new();
    for name in ["x", "y"] {
        c.register(
            name,
            TableBuilder::new()
                .column("k", DataType::Int)
                .row(vec![Value::Int(1)])
                .unwrap()
                .build(),
        )
        .unwrap();
    }
    let plan = PlanBuilder::scan("x", "x", c.get("x").unwrap().schema().clone())
        .cross_join(PlanBuilder::scan(
            "y",
            "y",
            c.get("y").unwrap().schema().clone(),
        ))
        .filter(Scalar::col("k").gt(Scalar::lit(0i64)))
        .build();
    let err = physical_plan(&plan, &c).unwrap_err();
    assert!(err.to_string().contains("ambiguous"), "{err}");
}

#[test]
fn outerjoin_default_column_must_exist() {
    let c = catalog();
    let grouped = scan(&c, "s").aggregate(
        vec![Scalar::qcol("s", "b2")],
        vec![(AggCall::count_star(), "g".into())],
    );
    let plan = scan(&c, "r")
        .outer_join(
            grouped,
            Scalar::qcol("r", "a2").eq(Scalar::qcol("s", "b2")),
            vec![("zz".to_string(), Value::Int(0))],
        )
        .build();
    let err = physical_plan(&plan, &c).unwrap_err();
    assert!(err.to_string().contains("default column"), "{err}");
}

#[test]
fn missing_table_error_at_planning() {
    let c = catalog();
    let plan = PlanBuilder::test_scan("ghost", &["x"]).build();
    let err = physical_plan(&plan, &c).unwrap_err();
    assert!(err.to_string().contains("does not exist"), "{err}");
}

#[test]
fn bypass_dag_compiles_with_single_shared_node() {
    let c = catalog();
    let (pos, neg) = scan(&c, "r").bypass_filter(Scalar::qcol("r", "a4").gt(Scalar::lit(1i64)));
    let plan = pos.union(neg).build();
    let phys = physical_plan(&plan, &c).unwrap();
    // Union + 2 Streams + 1 shared BypassFilter + 1 Scan = 5 nodes.
    fn walk(n: &PhysNode, seen: &mut HashSet<*const PhysNode>) {
        for c in n.children() {
            if seen.insert(Arc::as_ptr(c)) {
                walk(c, seen);
            }
        }
    }
    let mut seen = HashSet::new();
    walk(&phys, &mut seen);
    assert_eq!(seen.len() + 1, 5, "{}", phys.explain());
}

#[test]
fn deep_outer_reference_is_rejected_nowhere_but_runs_direct() {
    // Two-level nesting with *direct* correlation at each level is fine.
    let c = catalog();
    let innermost = scan(&c, "t")
        .filter(Scalar::col("b2").eq(Scalar::qcol("t", "c2")))
        .aggregate(vec![], vec![(AggCall::count_star(), "n".into())])
        .build();
    let mid = scan(&c, "s")
        .filter(
            Scalar::col("a2")
                .eq(Scalar::qcol("s", "b2"))
                .or(Scalar::qcol("s", "b3").eq(Scalar::Subquery(innermost))),
        )
        .aggregate(vec![], vec![(AggCall::count_star(), "n".into())])
        .build();
    let plan = scan(&c, "r")
        .filter(Scalar::qcol("r", "a1").eq(Scalar::Subquery(mid)))
        .build();
    let phys = physical_plan(&plan, &c).unwrap();
    evaluate(&phys).unwrap();
}

#[test]
fn indirect_correlation_is_rejected() {
    // The innermost block references r (two scopes up) — the paper's
    // direct-correlation limitation; planning must fail cleanly.
    let c = catalog();
    let innermost = scan(&c, "t")
        .filter(Scalar::col("a3").eq(Scalar::qcol("t", "c2"))) // a3 ∈ r!
        .aggregate(vec![], vec![(AggCall::count_star(), "n".into())])
        .build();
    let mid = scan(&c, "s")
        .filter(Scalar::qcol("s", "b3").eq(Scalar::Subquery(innermost)))
        .aggregate(vec![], vec![(AggCall::count_star(), "n".into())])
        .build();
    let plan = scan(&c, "r")
        .filter(Scalar::qcol("r", "a1").eq(Scalar::Subquery(mid)))
        .build();
    // Indirect correlation: our resolver actually supports depth-2
    // binding (the limitation in the paper concerns the *rewrites*).
    // Planning therefore succeeds — and canonical evaluation is correct.
    let phys = physical_plan(&plan, &c).unwrap();
    let out = evaluate(&phys);
    assert!(out.is_ok(), "canonical evaluation handles depth-2: {out:?}");
}

fn unfused(plan: &std::sync::Arc<LogicalPlan>, c: &Catalog) -> bypass_types::Relation {
    let options = PlanOptions {
        fuse_stage_chains: false,
    };
    let phys = physical_plan_with(plan, c, options).unwrap();
    assert!(!phys.explain().contains("fused"), "{}", phys.explain());
    evaluate(&phys).unwrap()
}

#[test]
fn stage_chain_fuses_only_single_consumer_streams() {
    let c = catalog();
    let bypass = || {
        scan(&c, "r").bypass_join(
            scan(&c, "s"),
            Scalar::qcol("r", "a2").eq(Scalar::qcol("s", "b2")),
        )
    };
    let keep = || Scalar::qcol("s", "b4").gt(Scalar::lit(1i64));
    // Eqv. 5-like shape, one consumer of the negative stream: its σ
    // runs inside the bypass join.
    let (pos, neg) = bypass();
    let plan = pos.union(neg.filter(keep())).build();
    let phys = physical_plan(&plan, &c).unwrap();
    let text = phys.explain();
    assert!(text.contains("Filter fused→#1"), "{text}");
    assert!(text.contains("BypassNLJoin (#1)"), "{text}");
    assert_eq!(evaluate(&phys).unwrap().rows(), unfused(&plan, &c).rows());

    // Two consumers of the same negative tap: the second one must see
    // the join's stream, not the filtered one.
    let (pos, neg) = bypass();
    let neg = neg.build();
    let filtered = PlanBuilder::from_plan(neg.clone()).filter(keep());
    let plan = pos
        .union(filtered)
        .union(PlanBuilder::from_plan(neg))
        .build();
    let phys = physical_plan(&plan, &c).unwrap();
    assert!(!phys.explain().contains("fused"), "{}", phys.explain());
    assert_eq!(evaluate(&phys).unwrap().rows(), unfused(&plan, &c).rows());
}

/// Γᵇ is a probe into its Γ and a `Pick`: one pipeline with fusion, one
/// per stage without, like every other chain — same rows either way.
#[test]
fn binary_group_obeys_the_fusion_flag() {
    let c = catalog();
    let plan = scan(&c, "r")
        .binary_group(
            scan(&c, "s"),
            Scalar::qcol("r", "a1"),
            Scalar::qcol("s", "b1"),
            AggCall::count_distinct_star(),
            "g",
        )
        .build();
    let phys = physical_plan(&plan, &c).unwrap();
    let text = phys.explain();
    assert!(
        text.starts_with("Project fused→#1\n  HashOuterJoin (#1)\n"),
        "{text}"
    );
    // `unfused` asserts that no operator prints `fused`.
    assert_eq!(evaluate(&phys).unwrap().rows(), unfused(&plan, &c).rows());
}

/// Γᵇ over a right input that is a join pipeline nothing else reads:
/// its `σ_{key IS NOT NULL}` joins the join's chain — ahead of the
/// `Pick` that builds the rows, reading the key through it — and its Γ
/// sinks into that pipeline, so the join materializes nothing. Without
/// fusion the join and the σ are pipelines of their own. Same rows
/// either way, and the same as a second consumer of the join, which
/// keeps the σ a pipeline over the join's rows.
#[test]
fn binary_group_folds_its_join_in_place() {
    let c = catalog();
    let right = || {
        scan(&c, "s")
            .join(
                scan(&c, "t"),
                Scalar::qcol("s", "b2").eq(Scalar::qcol("t", "c2")),
            )
            .project(vec![(Scalar::qcol("t", "c1"), Some("k".into()))])
    };
    let gb = |right: PlanBuilder| {
        scan(&c, "r").binary_group(
            right,
            Scalar::qcol("r", "a1"),
            Scalar::col("k"),
            AggCall::count_star(),
            "g",
        )
    };
    let plan = gb(right()).build();
    let phys = physical_plan(&plan, &c).unwrap();
    assert_eq!(
        phys.explain(),
        "Project fused→#1
  HashOuterJoin (#1)
    Scan
    HashAggregate fused→#2
      Project fused→#2
        Filter fused→#2
          HashJoin (#2)
            Scan
            Scan
"
    );
    let unfused_text = physical_plan_with(
        &plan,
        &c,
        PlanOptions {
            fuse_stage_chains: false,
        },
    )
    .unwrap()
    .explain();
    assert_eq!(
        unfused_text,
        "Project
  HashOuterJoin
    Scan
    HashAggregate
      Filter
        Project
          HashJoin
            Scan
            Scan
"
    );
    let rows = evaluate(&phys).unwrap();
    assert_eq!(rows.rows(), unfused(&plan, &c).rows());
    // A second consumer of the join: the σ reads its materialized rows.
    let shared = right().build();
    let twice = gb(PlanBuilder::from_plan(shared.clone()))
        .project(vec![
            (Scalar::qcol("r", "a1"), None),
            (Scalar::col("g"), None),
        ])
        .cross_join(PlanBuilder::from_plan(shared).aggregate(vec![], vec![]))
        .build();
    let text = physical_plan(&twice, &c).unwrap().explain();
    assert!(text.contains("Filter (#"), "{text}");
    let single: Vec<_> = rows
        .rows()
        .iter()
        .map(|t| (t[0].clone(), t[4].clone()))
        .collect();
    let both = evaluate(&physical_plan(&twice, &c).unwrap()).unwrap();
    let both: Vec<_> = both
        .rows()
        .iter()
        .map(|t| (t[0].clone(), t[1].clone()))
        .collect();
    assert_eq!(both, single);
}

/// Γᵇ over a σ-headed right input: the key's `IS NOT NULL` is a stage
/// after σ in the same pipeline, and σ's own predicate is left alone —
/// an OR head stays a disjunctive chain of its kernel terms.
#[test]
fn a_sigma_headed_right_input_gets_the_key_as_a_stage() {
    let c = catalog();
    let head = Scalar::qcol("s", "b3")
        .gt(Scalar::lit(2i64))
        .or(Scalar::qcol("s", "b4").gt(Scalar::lit(2i64)));
    let plan = scan(&c, "r")
        .binary_group(
            scan(&c, "s").filter(head),
            Scalar::qcol("r", "a1"),
            Scalar::qcol("s", "b1"),
            AggCall::count_star(),
            "g",
        )
        .build();
    let phys = physical_plan(&plan, &c).unwrap();
    assert_eq!(
        phys.explain(),
        "Project fused→#1
  HashOuterJoin (#1)
    Scan
    HashAggregate fused→#2
      Filter fused→#2
        Filter (#2)
          Scan
"
    );
    let mut node = &phys;
    while node.chain().is_none() {
        node = node.children().into_iter().last().expect("a σ below");
    }
    let chain = node.chain().expect("σ head");
    assert!(chain.is_or, "σ's disjunction");
    let terms: Vec<String> = chain.terms.iter().map(|t| t.expr.to_string()).collect();
    assert_eq!(terms.len(), 2, "one term per disjunct: {terms:?}");
    assert_eq!(evaluate(&phys).unwrap().rows(), unfused(&plan, &c).rows());
}

/// The memory budget guards what a join loop *materializes*: the
/// standalone join builds all 36 pairs and trips a budget the fused one
/// fits, because the fused loop keeps only the 12 rows its σ lets
/// through (DESIGN.md §7) — until the survivors alone exceed it.
#[test]
fn budget_counts_the_survivors_of_a_fused_chain() {
    let c = catalog();
    let plan = |min_b4: i64| {
        scan(&c, "r")
            .cross_join(scan(&c, "s"))
            .filter(Scalar::qcol("s", "b4").gt(Scalar::lit(min_b4)))
            .build()
    };
    // A pair row is 8 Int cells.
    let pair = ROW_OVERHEAD_BYTES + 8 * VALUE_BYTES;
    let run = |plan: &Arc<LogicalPlan>, fuse_stage_chains: bool, budget: Option<u64>| {
        let phys = physical_plan_with(plan, &c, PlanOptions { fuse_stage_chains }).unwrap();
        let mut ctx = ExecContext::new(ExecOptions {
            max_memory_bytes: budget,
            ..ExecOptions::default()
        });
        let result = ctx.eval_plan(&phys);
        (result, ctx.counters().peak_memory_bytes)
    };
    // b4 > 2 keeps 2 of the 6 `s` rows.
    let (fused, fused_peak) = run(&plan(2), true, None);
    assert_eq!(fused.unwrap().len(), 12);
    assert_eq!(
        fused_peak,
        12 * pair,
        "the fused loop keeps the survivors only"
    );
    let (_, unfused_peak) = run(&plan(2), false, None);
    assert!(
        unfused_peak >= 36 * pair,
        "the standalone join keeps every pair"
    );
    let budget = Some(fused_peak);
    let tripped = |(r, _): (bypass_types::Result<bypass_types::Relation>, u64)| {
        matches!(
            r,
            Err(Error::ResourceExhausted {
                resource: ResourceKind::Memory,
                limit,
                ..
            }) if Some(limit) == budget
        )
    };
    assert_eq!(run(&plan(2), true, budget).0.unwrap().len(), 12);
    assert!(tripped(run(&plan(2), false, budget)));
    // b4 > -1 keeps every pair: fused or not, the budget trips.
    assert!(tripped(run(&plan(-1), true, budget)));
    assert!(tripped(run(&plan(-1), false, budget)));
}

#[test]
fn stage_chain_climbs_through_probe_joins_and_stops_at_subqueries() {
    let c = catalog();
    let sub = scan(&c, "t")
        .aggregate(vec![], vec![(AggCall::count_star(), "n".into())])
        .build();
    // σ_subquery(Π(σ(r ⋈ s) ⟕ t)): everything up to the subquery filter
    // is one chain of the inner join; the outer join is its probe stage.
    let plan = scan(&c, "r")
        .join(
            scan(&c, "s"),
            Scalar::qcol("r", "a1").lt(Scalar::qcol("s", "b1")),
        )
        .filter(Scalar::qcol("s", "b4").gt(Scalar::lit(0i64)))
        .outer_join(
            scan(&c, "t"),
            Scalar::qcol("s", "b2").eq(Scalar::qcol("t", "c2")),
            vec![("c3".to_string(), Value::Int(-1))],
        )
        .project(vec![
            (Scalar::qcol("r", "a1"), None),
            (Scalar::qcol("t", "c3"), None),
        ])
        .filter(Scalar::qcol("t", "c3").lt(Scalar::Subquery(sub)))
        .build();
    let phys = physical_plan(&plan, &c).unwrap();
    let text = phys.explain();
    let lines: Vec<&str> = text.lines().map(str::trim).collect();
    assert_eq!(
        &lines[..6],
        &[
            "Filter",
            "subquery:",
            "HashAggregate",
            "Scan",
            "Project fused→#1",
            "HashOuterJoin fused→#1",
        ],
        "{text}"
    );
    assert!(text.contains("Filter fused→#1"), "{text}");
    assert!(text.contains("NLJoin (#1)"), "{text}");
    assert_eq!(evaluate(&phys).unwrap().rows(), unfused(&plan, &c).rows());
}

#[test]
fn stage_chain_is_cut_where_a_build_side_taps_its_own_bypass_join() {
    let c = catalog();
    let (pos, neg) = scan(&c, "r").bypass_join(
        scan(&c, "s"),
        Scalar::qcol("r", "a2").eq(Scalar::qcol("s", "b2")),
    );
    // σ(⋈±⁻) ⋈ Γ(⋈±⁺): the probe's build side needs the positive
    // stream of the very join that would run the probe. The σ below
    // stays fused, the join above it does not.
    let counts = pos.aggregate(
        vec![Scalar::qcol("r", "a1")],
        vec![(AggCall::count_star(), "n".into())],
    );
    let plan = neg
        .filter(Scalar::qcol("s", "b4").gt(Scalar::lit(1i64)))
        .join(
            counts.aliased("g"),
            Scalar::qcol("r", "a3").eq(Scalar::qcol("g", "a1")),
        )
        .build();
    let phys = physical_plan(&plan, &c).unwrap();
    let text = phys.explain();
    assert!(text.contains("Filter fused→#"), "{text}");
    assert!(!text.contains("HashJoin fused"), "{text}");
    assert_eq!(evaluate(&phys).unwrap().rows(), unfused(&plan, &c).rows());
}

/// Tables `l` and `r` of the given sizes with a shared key column `k`
/// (`row mod 5`) and a row-number column, plus the plan `l ⋈_{l.k = r.k} r`
/// — an outerjoin with a default when `outer` is set.
fn sized_join(left: i64, right: i64, outer: bool) -> (Catalog, std::sync::Arc<LogicalPlan>) {
    let mut c = Catalog::new();
    for (name, n) in [("l", left), ("r", right)] {
        let mut b = TableBuilder::new()
            .column("k", DataType::Int)
            .column(format!("{name}n"), DataType::Int);
        for i in 0..n {
            b = b.row(vec![Value::Int(i % 5), Value::Int(i)]).unwrap();
        }
        c.register(name, b.build()).unwrap();
    }
    let on = Scalar::qcol("l", "k").eq(Scalar::qcol("r", "k"));
    let plan = match outer {
        false => scan(&c, "l").join(scan(&c, "r"), on),
        true => {
            scan(&c, "l").outer_join(scan(&c, "r"), on, vec![("rn".to_string(), Value::Int(-1))])
        }
    };
    (c, plan.build())
}

#[test]
fn inner_hash_join_keys_its_table_by_the_smaller_input() {
    use bypass_exec::ExecContext;
    // (|L|, |R|, outer, right rows in the table)
    for (left, right, outer, built) in [
        (4, 30, false, 24),  // |L| < |R|: only right rows with a left key (k < 4)
        (12, 12, false, 12), // tie: the whole right input, as before
        (30, 4, false, 4),   // |L| > |R|: likewise
        (4, 30, true, 30),   // an outerjoin never restricts its build
    ] {
        let (c, plan) = sized_join(left, right, outer);
        let phys = physical_plan(&plan, &c).unwrap();
        assert!(phys.head_probe().is_some(), "{}", phys.explain());
        let mut ctx = ExecContext::new(ExecOptions::default()).with_metrics();
        let out = ctx.eval_plan(&phys).unwrap();
        let metrics = ctx.take_metrics();
        let m = &metrics[&(std::sync::Arc::as_ptr(&phys) as usize)];
        let case = format!("|L|={left} |R|={right} outer={outer}");
        assert_eq!((m.build_rows, m.input_rows), (built, left as u64), "{case}");
        let text = phys.explain_with_metrics(&metrics);
        let counts = format!("build={built} reverify=0 probe={left}]");
        assert!(
            text.lines().next().unwrap().ends_with(&counts),
            "{case}: {text}"
        );
        // However the table was built, the rows are the nested loop's,
        // in its order: left-major, right rows in right order.
        let got: Vec<Vec<Value>> = out.rows().iter().map(|t| t.values().to_vec()).collect();
        let mut expected = Vec::new();
        for i in 0..left {
            for j in (0..right).filter(|j| j % 5 == i % 5) {
                expected.push([i % 5, i, j % 5, j].map(Value::Int).to_vec());
            }
            if outer && right <= i % 5 {
                expected.push(vec![
                    Value::Int(i % 5),
                    Value::Int(i),
                    Value::Null,
                    Value::Int(-1),
                ]);
            }
        }
        assert_eq!(got, expected, "{case}");
    }
}

/// `(a ⋈ b) ⋈ c` with |a| = |b| < |c|: standalone, the upper join
/// restricts its build to the keys of the 3-row pair stream; fused into
/// the lower join's loop it hashes all of `c`. Same row *sequence* either
/// way (the oracle's fused/unfused axis compares sequences).
#[test]
fn restricted_build_keeps_the_fused_row_sequence() {
    let mut c = Catalog::new();
    for (name, n) in [("a", 3), ("b", 3), ("c", 40)] {
        let mut t = TableBuilder::new()
            .column("k", DataType::Int)
            .column(format!("{name}n"), DataType::Int);
        for i in 0..n {
            // Descending keys, so right order is not key order.
            t = t.row(vec![Value::Int((n - i) % 4), Value::Int(i)]).unwrap();
        }
        c.register(name, t.build()).unwrap();
    }
    let plan = scan(&c, "a")
        .join(
            scan(&c, "b"),
            Scalar::qcol("a", "k").eq(Scalar::qcol("b", "k")),
        )
        .join(
            scan(&c, "c"),
            Scalar::qcol("b", "k").eq(Scalar::qcol("c", "k")),
        )
        .build();
    let phys = physical_plan(&plan, &c).unwrap();
    assert!(
        phys.explain().contains("HashJoin fused→#"),
        "{}",
        phys.explain()
    );
    let fused = evaluate(&phys).unwrap();
    assert_eq!(fused.len(), 30);
    assert_eq!(fused.rows(), unfused(&plan, &c).rows());
}

/// A rename compiles to its input's node: a Γ over a rename of a node
/// that another consumer also reads — through the rename, or around it —
/// must leave that node unsunk and planned once, or the other consumer
/// would plan, and run, a second copy. Under either fusion setting.
#[test]
fn a_gamma_over_a_rename_of_a_shared_node_leaves_it_unsunk() {
    let c = catalog();
    let kept = scan(&c, "s")
        .filter(Scalar::qcol("s", "b4").gt(Scalar::lit(1i64)))
        .build();
    let renamed = PlanBuilder::from_plan(kept.clone()).aliased("x").build();
    let count = PlanBuilder::from_plan(renamed.clone())
        .aggregate(vec![], vec![(AggCall::count_star(), "n".into())]);
    for other in [renamed, kept] {
        let plan = count
            .clone()
            .cross_join(PlanBuilder::from_plan(other))
            .build();
        for fuse_stage_chains in [true, false] {
            let phys = physical_plan_with(&plan, &c, PlanOptions { fuse_stage_chains }).unwrap();
            let text = phys.explain();
            assert_eq!(text.matches("Filter (#").count(), 1, "{text}");
            assert_eq!(text.matches("Filter (shared #").count(), 1, "{text}");
            assert!(!text.contains("HashAggregate fused"), "{text}");
            let mut ctx = ExecContext::new(ExecOptions::default()).with_metrics();
            let rows = ctx.eval_plan(&phys).unwrap();
            let analyzed = phys.explain_with_metrics(&ctx.take_metrics());
            let host = analyzed.lines().find(|l| l.contains("Filter (#")).unwrap();
            assert!(host.contains("[calls=1 "), "{analyzed}");
            // σ keeps three of the six rows of `s`; each pairs with the count.
            assert_eq!(rows.len(), 3, "{analyzed}");
            assert!(
                rows.rows().iter().all(|t| t[0] == Value::Int(3)),
                "{analyzed}"
            );
        }
    }
}

/// A ρ, and a Π that keeps every column in place, compile to nothing
/// under either fusion setting: a chain of renames over a scan is the
/// scan, and only the root carries the names a caller sees.
#[test]
fn a_chain_of_renames_is_its_input() {
    let c = catalog();
    let names = ["a1", "a2", "a3", "a4"];
    let plan = scan(&c, "r")
        .aliased("x")
        .project(names.map(|n| (Scalar::qcol("x", n), None)).to_vec())
        .aliased("y")
        .build();
    for fuse_stage_chains in [true, false] {
        let phys = physical_plan_with(&plan, &c, PlanOptions { fuse_stage_chains }).unwrap();
        assert_eq!(phys.explain(), "Scan\n");
        let rel = evaluate(&phys).unwrap();
        assert_eq!(rel.schema(), &plan.schema());
        assert_eq!(rel.len(), 6);
    }
}

/// A ∪̇ that a second consumer also reads stays a node of its own — the
/// δ over it does not take in its inputs — and runs once for both.
#[test]
fn a_union_all_with_a_second_consumer_is_not_absorbed() {
    let c = catalog();
    let both = scan(&c, "r").union(scan(&c, "s")).build();
    let plan = PlanBuilder::from_plan(both.clone())
        .distinct()
        .union(PlanBuilder::from_plan(both).filter(Scalar::qcol("r", "a1").gt(Scalar::lit(1i64))))
        .build();
    let phys = physical_plan(&plan, &c).unwrap();
    let text = phys.explain();
    assert_eq!(text.matches("UnionAll (#").count(), 1, "{text}");
    assert_eq!(text.matches("UnionAll (shared #").count(), 1, "{text}");
    let distinct = text.lines().position(|l| l.trim() == "Distinct").unwrap();
    let shared = text.lines().nth(distinct + 1).unwrap();
    assert!(shared.trim().starts_with("UnionAll (#"), "{text}");
    let mut ctx = ExecContext::new(ExecOptions::default()).with_metrics();
    let rows = ctx.eval_plan(&phys).unwrap();
    let analyzed = phys.explain_with_metrics(&ctx.take_metrics());
    let once = analyzed
        .lines()
        .find(|l| l.contains("UnionAll (#"))
        .unwrap();
    assert!(once.contains("[calls=1 rows=12 "), "{analyzed}");
    // δ keeps the four distinct rows of the twelve; σ keeps the four of
    // them whose first value exceeds 1.
    assert_eq!(rows.len(), 4 + 4, "{analyzed}");
}

/// δ over ∪̇ runs as one loop over the ∪̇'s inputs, evaluated in the
/// order the unmerged plan evaluates them: when the second input raises,
/// both plans raise its error.
#[test]
fn distinct_over_a_failing_union_raises_the_unmerged_error() {
    let c = catalog();
    let ten_over = |col| Scalar::binary(BinOp::Div, Scalar::lit(10i64), Scalar::qcol("s", col));
    let plan = scan(&c, "r")
        .union(scan(&c, "s").filter(ten_over("b1").gt(Scalar::lit(2i64))))
        .distinct()
        .build();
    let merged = physical_plan(&plan, &c).unwrap();
    let text = merged.explain();
    assert!(text.starts_with("Distinct\n  Scan\n  Filter"), "{text}");
    let options = PlanOptions {
        fuse_stage_chains: false,
    };
    let unmerged = physical_plan_with(&plan, &c, options).unwrap();
    let text = unmerged.explain();
    assert!(text.starts_with("Distinct\n  UnionAll\n"), "{text}");
    let err = evaluate(&merged).unwrap_err();
    assert_eq!(err, evaluate(&unmerged).unwrap_err());
    assert!(err.to_string().contains("division by zero"), "{err}");
}

#[test]
fn a_computed_join_key_is_a_hidden_column_a_pick_drops() {
    let c = catalog();
    // r.a1 + 1 = s.b1 - 1: a χ below the probe on each side; the join's
    // rows are r's and s's columns again, dropped to them by a Pick.
    let side = |q, col, op| Scalar::binary(op, Scalar::qcol(q, col), Scalar::lit(1i64));
    let plan = scan(&c, "r")
        .join(
            scan(&c, "s"),
            side("r", "a1", BinOp::Add).eq(side("s", "b1", BinOp::Sub)),
        )
        .build();
    let explain = |fuse_stage_chains| {
        let options = PlanOptions { fuse_stage_chains };
        physical_plan_with(&plan, &c, options).unwrap().explain()
    };
    assert_eq!(
        explain(true),
        "Project fused→#1\n  HashJoin fused→#1\n    Map (#1)\n      Scan\n    Map\n      Scan\n"
    );
    assert_eq!(
        explain(false),
        "Project\n  HashJoin\n    Map\n      Scan\n    Map\n      Scan\n"
    );
    let fused = evaluate(&physical_plan(&plan, &c).unwrap()).unwrap();
    assert_eq!(fused.schema().arity(), 8);
    assert!(fused.rows().iter().all(|t| t.arity() == 8));
    assert_eq!(fused.rows(), unfused(&plan, &c).rows());
}

/// An equality that reads one side of a join only is no key pair: over
/// the build side a σ (`3 = s.b2`: no hidden column holds the 3), over an
/// inner join's probing side a σ stage ahead of the probe, and under a ⟕
/// a residual, the probing row it fails being padded. An equality that
/// reads no column stays residual. Same rows fused and unfused.
#[test]
fn a_one_side_equality_is_a_sigma_on_its_side() {
    let c = catalog();
    let key = || Scalar::qcol("r", "a1").eq(Scalar::qcol("s", "b1"));
    let build = || Scalar::lit(3i64).eq(Scalar::qcol("s", "b2"));
    let probe = || Scalar::qcol("r", "a2").eq(Scalar::lit(1i64));
    let none = || Scalar::lit(1i64).eq(Scalar::lit(0i64));
    let inner = |p: Scalar| scan(&c, "r").join(scan(&c, "s"), p).build();
    let outer = |p: Scalar| {
        let defaults = vec![("b4".to_string(), Value::Int(0))];
        scan(&c, "r").outer_join(scan(&c, "s"), p, defaults).build()
    };
    let cases = [
        (
            inner(key().and(build())),
            "HashJoin\n  Scan\n  Filter\n    Scan\n",
        ),
        (
            outer(key().and(build())),
            "HashOuterJoin\n  Scan\n  Filter\n    Scan\n",
        ),
        (
            inner(key().and(probe())),
            "HashJoin fused→#1\n  Filter (#1)\n    Scan\n  Scan\n",
        ),
        (outer(key().and(probe())), "HashOuterJoin\n  Scan\n  Scan\n"),
        (inner(key().and(none())), "HashJoin\n  Scan\n  Scan\n"),
        // No key pair left: a nested loop over the filtered build side.
        (inner(build()), "CrossJoin\n  Scan\n  Filter\n    Scan\n"),
    ];
    for (plan, want) in cases {
        let phys = physical_plan(&plan, &c).unwrap();
        assert_eq!(phys.explain(), want);
        assert_eq!(evaluate(&phys).unwrap().rows(), unfused(&plan, &c).rows());
    }
    // One key pair, of plain columns; the ⟕'s `r.a2 = 1` and `1 = 0`
    // are the probe's residual.
    let residual = |plan| match &physical_plan(&plan, &c).unwrap().head_probe().unwrap().on {
        JoinOn::Hash {
            left_keys,
            right_keys,
            residual,
        } => {
            assert_eq!((&left_keys[..], &right_keys[..]), (&[0][..], &[0][..]));
            residual.as_ref().map(ToString::to_string)
        }
        JoinOn::Loop(_) => panic!("a hash join"),
    };
    assert_eq!(
        residual(outer(key().and(probe()))).as_deref(),
        Some("(#1 = 1)")
    );
    assert_eq!(
        residual(inner(key().and(none()))).as_deref(),
        Some("(1 = 0)")
    );
    assert_eq!(residual(inner(key().and(build()))), None);
}
