//! Derived tables (`FROM (SELECT …) AS x`) — the paper's outlook
//! item (2): nested disjunctive queries in the FROM clause. The derived
//! block is translated in place; disjunctive nesting inside it (or in
//! the outer block over it) unnests exactly as for base tables.

use bypass::datagen::rst;
use bypass::{Database, Strategy, Value};

fn db() -> Database {
    let mut db = Database::new();
    rst::register(db.catalog_mut(), &rst::generate(0.01, 0.01, 42)).unwrap();
    db
}

fn agree(db: &Database, sql: &str) -> usize {
    let reference = db.sql_with(sql, Strategy::Canonical, None).unwrap();
    for s in Strategy::all() {
        let got = db.sql_with(sql, s, None).unwrap();
        assert!(
            got.bag_eq(&reference),
            "{s} differs on {sql}: {} vs {} rows",
            got.len(),
            reference.len()
        );
    }
    reference.len()
}

#[test]
fn basic_derived_table() {
    let db = db();
    let n = agree(
        &db,
        "SELECT x.a1 FROM (SELECT a1, a4 FROM r WHERE a4 > 1500) AS x WHERE x.a1 < 1000",
    );
    // Sanity against the flattened equivalent.
    let flat = db
        .sql("SELECT a1 FROM r WHERE a4 > 1500 AND a1 < 1000")
        .unwrap();
    assert_eq!(n, flat.len());
}

#[test]
fn derived_table_with_disjunctive_nesting_inside() {
    let db = db();
    agree(
        &db,
        "SELECT x.a1 FROM \
         (SELECT a1, a2 FROM r \
          WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 1500) AS x",
    );
    // The inner block must actually unnest.
    let text = db
        .explain(
            "SELECT x.a1 FROM \
             (SELECT a1, a2 FROM r \
              WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 1500) AS x",
            Strategy::Unnested,
        )
        .unwrap();
    assert!(!text.contains("subquery:"), "{text}");
    assert!(text.contains("σ±"), "{text}");
}

#[test]
fn disjunctive_nesting_over_a_derived_table() {
    let db = db();
    // The outer block correlates into a derived table's columns.
    agree(
        &db,
        "SELECT d.a2 FROM (SELECT a2, a4 FROM r WHERE a1 < 2000) AS d \
         WHERE d.a4 = (SELECT COUNT(*) FROM s WHERE d.a2 = b2) OR d.a4 > 1500",
    );
}

#[test]
fn join_base_and_derived() {
    let db = db();
    agree(
        &db,
        "SELECT t.c1 FROM t, (SELECT b2, b4 FROM s WHERE b4 > 1500) AS big \
         WHERE t.c2 = big.b2",
    );
}

#[test]
fn derived_alias_is_required_and_shadows() {
    let db = db();
    let err = db.sql("SELECT 1 FROM (SELECT a1 FROM r)").unwrap_err();
    assert!(err.to_string().contains("alias"), "{err}");

    // Alias-qualified resolution works; the underlying qualifier is gone.
    let out = db
        .sql("SELECT y.a1 FROM (SELECT a1 FROM r WHERE a4 > 2900) AS y ORDER BY y.a1 LIMIT 1")
        .unwrap();
    assert!(out.len() <= 1);
    let err = db
        .sql("SELECT r.a1 FROM (SELECT a1 FROM r) AS y")
        .unwrap_err();
    assert!(err.to_string().contains("unknown column"), "{err}");
}

#[test]
fn aggregate_over_derived_with_nested_filter() {
    let db = db();
    let rel = db
        .sql(
            "SELECT COUNT(*) FROM \
             (SELECT a1 FROM r \
              WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 1500) AS q",
        )
        .unwrap();
    let Value::Int(n) = rel.rows()[0][0] else {
        panic!()
    };
    let direct = db
        .sql(
            "SELECT a1 FROM r \
             WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 1500",
        )
        .unwrap();
    assert_eq!(n as usize, direct.len());
}

/// S2's OR → UNION rewrite reads one uncorrelated Γ from both branches,
/// each through a Π that renames its column (`avg(b2) AS __g0`, `… AS
/// __g1`). A rename compiles to nothing: the Γ's pipeline is planned
/// once, runs once and is copied by nothing.
#[test]
fn a_shared_gamma_under_two_renames_runs_once_uncopied() {
    let db = db();
    let sql = "SELECT * FROM r WHERE a2 = (SELECT AVG(b2) FROM s WHERE b3 < 2) OR a2 <> 5";
    let reference = db.sql_with(sql, Strategy::Canonical, None).unwrap();
    let got = db.sql_with(sql, Strategy::S2UnionRewrite, None).unwrap();
    assert!(
        got.bag_eq(&reference),
        "{} vs {} rows",
        got.len(),
        reference.len()
    );

    let text = db.explain(sql, Strategy::S2UnionRewrite).unwrap();
    let physical = text
        .split("-- physical plan")
        .nth(1)
        .expect("a physical plan");
    assert_eq!(
        physical.matches("HashAggregate fused→").count(),
        2,
        "{physical}"
    );
    assert_eq!(physical.matches("Filter (#").count(), 1, "{physical}");
    assert_eq!(
        physical.matches("Filter (shared #").count(),
        1,
        "{physical}"
    );
    assert!(!physical.contains("Alias"), "{physical}");

    let analyzed = db.explain_analyze(sql, Strategy::S2UnionRewrite).unwrap();
    let host = analyzed.lines().find(|l| l.contains("Filter (#"));
    let host = host.expect("the Γ's pipeline is listed");
    assert!(host.contains("[calls=1 "), "{analyzed}");
}

/// The result's columns are named by the prepared logical root, under
/// every strategy — a root ρ, a root Π that renames, and the paper's
/// queries, whose roots rename the columns of a ∪̇ or a δ. Names are the
/// planner's: only the physical root carries them.
#[test]
fn result_columns_are_named_by_the_logical_root() {
    let db = db();
    let queries = [
        "SELECT * FROM (SELECT a1 AS x FROM r) AS y",
        "SELECT a1 AS x, a2 FROM r",
        "SELECT * FROM r AS y",
        rst::Q1,
        rst::Q2,
        rst::Q3,
        rst::Q4,
    ];
    for sql in queries {
        for strategy in Strategy::all() {
            let prepared = db.prepare(sql, strategy).unwrap();
            let rel = prepared.execute().unwrap();
            let root = prepared.logical_plan().schema();
            assert_eq!(rel.schema(), &root, "{strategy}: {sql}");
        }
    }
}

/// S2 reads one Γ from both branches of its ∪̇: the logical plan prints
/// it once, numbered, and then as a reference — as the physical plan
/// lists its pipeline once and runs it once.
#[test]
fn logical_explain_prints_a_shared_node_once() {
    let db = db();
    let sql = "SELECT * FROM r WHERE a2 = (SELECT AVG(b2) FROM s WHERE b3 < 2) OR a2 <> 5";
    let text = db.explain(sql, Strategy::S2UnionRewrite).unwrap();
    let logical = text.split("-- physical plan").next().unwrap();
    let gamma = "Γ[; avg(b2): avg(b2)]";
    assert_eq!(logical.matches(gamma).count(), 2, "{logical}");
    let first = logical.lines().find(|l| l.contains(gamma)).unwrap();
    let id = first.trim().strip_prefix(gamma).unwrap().trim();
    let id = id.strip_prefix("(#").and_then(|s| s.strip_suffix(')'));
    let id = id.unwrap_or_else(|| panic!("the first Γ is numbered: {logical}"));
    let reference = format!("{gamma} (shared #{id})");
    assert!(logical.contains(&reference), "{logical}");
    // The shared subtree is printed once.
    assert_eq!(logical.matches("σ[(b3 < 2)]").count(), 1, "{logical}");
}

/// δ and ∪̇ are one union operator, which takes in every ∪̇ below it that
/// nothing else reads: the paper's Q1 unnests to δ over the ∪̇ of its two
/// streams, and Q3 with a plain third disjunct (the benchmark's pool
/// shape) to δ over ∪̇ over ∪̇ — one loop over two and three inputs. The
/// rows and their order are the unmerged plan's.
#[test]
fn distinct_over_union_all_runs_as_one_loop() {
    use bypass_exec::{physical_plan_with, ExecContext, ExecOptions, PhysKind, PlanOptions};
    let db = db();
    let q3 = format!("{} OR a4 > 1500", rst::Q3);
    for (sql, inputs) in [(rst::Q1, 2), (q3.as_str(), 3)] {
        let prepared = db.prepare(sql, Strategy::Unnested).unwrap();
        let run = |fuse_stage_chains| {
            let options = PlanOptions { fuse_stage_chains };
            let plan = physical_plan_with(prepared.logical_plan(), db.catalog(), options);
            let plan = plan.unwrap();
            let rel = ExecContext::new(ExecOptions::default()).eval_plan(&plan);
            (plan, rel.unwrap())
        };
        let (merged, rows) = run(true);
        let text = merged.explain();
        match &merged.kind {
            PhysKind::Union {
                inputs: got,
                distinct: true,
            } => {
                assert_eq!(got.len(), inputs, "{text}")
            }
            _ => panic!("{sql}: the root is δ\n{text}"),
        }
        assert!(!text.contains("UnionAll"), "{text}");
        let (unmerged, unmerged_rows) = run(false);
        let text = unmerged.explain();
        assert_eq!(text.matches("UnionAll").count(), inputs - 1, "{text}");
        assert_eq!(rows.rows(), unmerged_rows.rows(), "{sql}");
        assert_eq!(rows.schema(), unmerged_rows.schema(), "{sql}");
    }
}

/// A statement whose root is a scan — `SELECT *`, or a ρ over a table —
/// hands the caller the table's rows under the logical root's names: no
/// operator runs, so no checkpoint is passed and nothing is charged.
#[test]
fn a_scan_root_runs_uncharged_under_the_root_names() {
    let db = db();
    for sql in ["SELECT * FROM r", "SELECT * FROM r AS y"] {
        for strategy in Strategy::all() {
            let limits = bypass::RunLimits::default();
            let (rel, counters) = db.run_governed(sql, strategy, &limits).unwrap();
            let prepared = db.prepare(sql, strategy).unwrap();
            assert_eq!(rel.schema(), &prepared.logical_plan().schema(), "{sql}");
            assert_eq!(rel.len(), 100, "{strategy}: {sql}");
            assert_eq!(counters.checkpoints, 0, "{strategy}: {sql}");
            assert_eq!(counters.peak_memory_bytes, 0, "{strategy}: {sql}");
        }
    }
}
