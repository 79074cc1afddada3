//! Equivalence tests: every unnesting strategy must produce exactly the
//! same bag of rows as canonical nested-loop evaluation, on randomized
//! RST instances (including NULLs and duplicate rows). This is the
//! correctness backbone of the reproduction — Eqv. 1–5, the bypass
//! chain, the OR→UNION baseline and the quantified-subquery desugaring
//! are all checked against the reference semantics.

use std::sync::Arc;

use bypass_catalog::{Catalog, TableBuilder};
use bypass_check::Rng;
use bypass_exec::{evaluate_with, physical_plan, ExecOptions};
use bypass_sql::{parse_statement, Statement};
use bypass_translate::translate_query;
use bypass_types::{DataType, Relation, Value};
use bypass_unnest::{union_rewrite, unnest, DisjunctOrder, RewriteOptions};

/// Random RST instance: `n` rows per table, values in [0, domain),
/// ~8% NULLs, plus a handful of duplicated rows to exercise bag
/// semantics.
fn random_catalog(seed: u64, n: usize, domain: i64) -> Catalog {
    let mut rng = Rng::seed_from_u64(seed);
    let mut c = Catalog::new();
    for (name, prefix) in [("r", 'a'), ("s", 'b'), ("t", 'c')] {
        let mut b = TableBuilder::new();
        for i in 1..=4 {
            b = b.column(format!("{prefix}{i}"), DataType::Int);
        }
        let mut rows: Vec<Vec<Value>> = Vec::with_capacity(n + n / 5);
        for _ in 0..n {
            let row: Vec<Value> = (0..4)
                .map(|_| {
                    if rng.gen_ratio(2, 25) {
                        Value::Null
                    } else {
                        Value::Int(rng.gen_range(0..domain))
                    }
                })
                .collect();
            rows.push(row);
        }
        // Duplicate a few rows (bag semantics).
        for _ in 0..n / 5 {
            let i = rng.gen_range(0..rows.len());
            rows.push(rows[i].clone());
        }
        b = b.rows(rows).unwrap();
        c.register(name, b.build()).unwrap();
    }
    c
}

fn logical(c: &Catalog, sql: &str) -> Arc<bypass_algebra::LogicalPlan> {
    let Statement::Query(q) = parse_statement(sql).unwrap() else {
        panic!("not a query: {sql}")
    };
    translate_query(c, &q).unwrap()
}

fn run(c: &Catalog, plan: &Arc<bypass_algebra::LogicalPlan>) -> Relation {
    let phys = physical_plan(plan, c).unwrap();
    evaluate_with(&phys, ExecOptions::default()).unwrap()
}

/// Check all strategies against canonical on several seeds.
fn check(sql: &str) {
    check_sizes(sql, &[(1, 30), (2, 50), (3, 80)]);
}

fn check_sizes(sql: &str, cases: &[(u64, usize)]) {
    for &(seed, n) in cases {
        let c = random_catalog(seed, n, 12);
        let canonical = logical(&c, sql);
        let expected = run(&c, &canonical);

        let rank = unnest(&canonical, RewriteOptions::default()).unwrap();
        let got = run(&c, &rank);
        assert!(
            got.bag_eq(&expected),
            "rank-ordered unnesting differs (seed {seed}, n {n})\nsql: {sql}\n\
             canonical {} rows, unnested {} rows\nplan:\n{}",
            expected.len(),
            got.len(),
            rank.explain()
        );

        let sub_first = unnest(
            &canonical,
            RewriteOptions {
                order: DisjunctOrder::SubqueryFirst,
            },
        )
        .unwrap();
        let got = run(&c, &sub_first);
        assert!(
            got.bag_eq(&expected),
            "subquery-first unnesting differs (seed {seed}, n {n})\nsql: {sql}\nplan:\n{}",
            sub_first.explain()
        );

        let union = union_rewrite(&canonical).unwrap();
        let got = run(&c, &union);
        assert!(
            got.bag_eq(&expected),
            "union rewrite differs (seed {seed}, n {n})\nsql: {sql}\nplan:\n{}",
            union.explain()
        );
    }
}

// ---------------------------------------------------------------------
// Disjunctive linking (Eqv. 2 / Eqv. 3)
// ---------------------------------------------------------------------

#[test]
fn q1_count_distinct_star() {
    check(
        "SELECT DISTINCT * FROM r \
         WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) OR a4 > 6",
    );
}

#[test]
fn q1_without_distinct_keeps_duplicates() {
    check(
        "SELECT * FROM r \
         WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 6",
    );
}

#[test]
fn disjunctive_linking_all_comparison_ops() {
    for op in ["=", "<>", "<", "<=", ">", ">="] {
        check(&format!(
            "SELECT * FROM r \
             WHERE a1 {op} (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 8"
        ));
    }
}

#[test]
fn disjunctive_linking_min_max_sum_avg() {
    for agg in ["MIN(b1)", "MAX(b1)", "SUM(b1)", "AVG(b1)"] {
        check(&format!(
            "SELECT * FROM r \
             WHERE a1 >= (SELECT {agg} FROM s WHERE a2 = b2) OR a4 > 8"
        ));
    }
}

#[test]
fn linking_subquery_on_left_side() {
    check(
        "SELECT * FROM r \
         WHERE (SELECT COUNT(*) FROM s WHERE a2 = b2) < a1 OR a4 = 3",
    );
}

#[test]
fn three_way_disjunction() {
    check(
        "SELECT * FROM r \
         WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 9 OR a3 = 0",
    );
}

#[test]
fn disjunction_with_local_inner_conjuncts() {
    check(
        "SELECT * FROM r \
         WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 AND b4 > 3) OR a4 > 8",
    );
}

#[test]
fn conjunctive_linking_eqv1() {
    check("SELECT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)");
    check("SELECT * FROM r WHERE a1 > (SELECT MIN(b1) FROM s WHERE a2 = b2) AND a3 < 6");
}

#[test]
fn multi_key_correlation() {
    check(
        "SELECT * FROM r \
         WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 AND a3 = b3) OR a4 > 8",
    );
}

// ---------------------------------------------------------------------
// Disjunctive correlation (Eqv. 4 / Eqv. 5)
// ---------------------------------------------------------------------

#[test]
fn q2_count_star_eqv4() {
    check(
        "SELECT DISTINCT * FROM r \
         WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > 6)",
    );
}

#[test]
fn disjunctive_correlation_decomposable_aggs() {
    for agg in ["SUM(b1)", "MIN(b1)", "MAX(b1)", "AVG(b1)"] {
        check(&format!(
            "SELECT * FROM r \
             WHERE a1 <= (SELECT {agg} FROM s WHERE a2 = b2 OR b4 > 6)"
        ));
    }
}

#[test]
fn count_distinct_star_forces_eqv5() {
    // Footnote 1: COUNT(DISTINCT ·) is not decomposable → Eqv. 5.
    check(
        "SELECT * FROM r \
         WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2 OR b4 > 6)",
    );
}

#[test]
fn sum_distinct_forces_eqv5() {
    check(
        "SELECT * FROM r \
         WHERE a1 <= (SELECT SUM(DISTINCT b1) FROM s WHERE a2 = b2 OR b4 > 6)",
    );
}

#[test]
fn non_equality_correlation_eqv5() {
    // θ2 ∈ {<, >=, <>}: Eqv. 5's bypass join accepts any comparison.
    for theta in ["<", ">=", "<>"] {
        check(&format!(
            "SELECT * FROM r \
             WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 {theta} b2 OR b4 > 6)"
        ));
    }
}

#[test]
fn multiple_correlation_disjuncts() {
    check(
        "SELECT * FROM r \
         WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR a3 = b3 OR b4 > 8)",
    );
}

#[test]
fn pure_correlation_disjunction() {
    check(
        "SELECT * FROM r \
         WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR a3 = b3)",
    );
}

#[test]
fn disjunctive_correlation_with_local_conjunct() {
    check(
        "SELECT * FROM r \
         WHERE a1 = (SELECT COUNT(*) FROM s WHERE (a2 = b2 OR b4 > 6) AND b1 < 9)",
    );
}

// ---------------------------------------------------------------------
// Combined / nested structures
// ---------------------------------------------------------------------

#[test]
fn disjunctive_linking_and_correlation_combined() {
    // The paper's outlook item (1): both the linking and the correlation
    // predicate occur disjunctively. Composition of Eqv. 2/3 with
    // Eqv. 4/5.
    check(
        "SELECT * FROM r \
         WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > 6) OR a4 > 8",
    );
}

#[test]
fn tree_query_q3() {
    check(
        "SELECT DISTINCT * FROM r \
         WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) \
            OR a3 = (SELECT COUNT(DISTINCT *) FROM t WHERE a2 = c2)",
    );
}

#[test]
fn tree_query_conjunctive() {
    check(
        "SELECT * FROM r \
         WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) \
           AND a3 >= (SELECT COUNT(*) FROM t WHERE a4 = c2)",
    );
}

#[test]
fn linear_query_q4() {
    check_sizes(
        "SELECT DISTINCT * FROM r \
         WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s \
                     WHERE a2 = b2 \
                        OR b3 = (SELECT COUNT(DISTINCT *) FROM t WHERE b4 = c2))",
        &[(1, 15), (2, 25), (7, 40)],
    );
}

#[test]
fn uncorrelated_type_a_subquery() {
    check("SELECT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s WHERE b4 > 6) OR a4 > 9");
    check("SELECT * FROM r WHERE a1 > (SELECT MIN(b2) FROM s) OR a4 = 2");
}

#[test]
fn multi_table_outer_block() {
    check(
        "SELECT * FROM r, t \
         WHERE a1 = c1 AND (a2 = (SELECT COUNT(*) FROM s WHERE a3 = b3) OR c4 > 8)",
    );
}

#[test]
fn is_null_disjunct_in_bypass_chain() {
    check(
        "SELECT * FROM r \
         WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a3 IS NULL",
    );
    check(
        "SELECT * FROM r \
         WHERE a4 IS NOT NULL AND (a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 8)",
    );
}

#[test]
fn conjunctive_non_equality_correlation_falls_back_to_binary_grouping() {
    // a2 < b2 is not an equality: the Γ+⟕ path cannot fire; the general
    // θ-join + binary-grouping fallback must still unnest correctly.
    check("SELECT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 < b2) OR a4 > 8");
    check("SELECT * FROM r WHERE a1 >= (SELECT MIN(b1) FROM s WHERE a2 <> b2)");
}

#[test]
fn arithmetic_over_two_subqueries() {
    // Both subqueries in one conjunct: x = sub1 + sub2 — the attach
    // primitive composes.
    check(
        "SELECT * FROM r \
         WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) \
             + (SELECT COUNT(*) FROM t WHERE a3 = c2)",
    );
}

// ---------------------------------------------------------------------
// Quantified subqueries (technical report extension)
// ---------------------------------------------------------------------

#[test]
fn exists_in_disjunction() {
    check(
        "SELECT * FROM r \
         WHERE EXISTS (SELECT * FROM s WHERE a2 = b2 AND b4 > 3) OR a4 > 8",
    );
}

#[test]
fn not_exists_conjunctive() {
    check("SELECT * FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE a2 = b2)");
}

#[test]
fn in_subquery_disjunctive() {
    check("SELECT * FROM r WHERE a1 IN (SELECT b1 FROM s WHERE b4 > 3) OR a4 > 9");
}

#[test]
fn correlated_in_subquery() {
    check("SELECT * FROM r WHERE a1 IN (SELECT b1 FROM s WHERE a2 = b2) OR a4 > 9");
}

#[test]
fn not_in_stays_canonical_but_correct() {
    // NOT IN is not desugared (NULL semantics); the plan must still
    // evaluate correctly through the fallback.
    check("SELECT * FROM r WHERE a1 NOT IN (SELECT b1 FROM s WHERE b4 > 3) OR a4 > 9");
}

// ---------------------------------------------------------------------
// Plan-shape sanity: the rewrites actually fire.
// ---------------------------------------------------------------------

#[test]
fn unnested_q1_contains_bypass_and_no_nested_subquery() {
    let c = random_catalog(1, 10, 10);
    let canonical = logical(
        &c,
        "SELECT DISTINCT * FROM r \
         WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) OR a4 > 6",
    );
    assert!(canonical.contains_subquery());
    let plan = unnest(&canonical, RewriteOptions::default()).unwrap();
    let text = plan.explain();
    assert!(text.contains("σ±"), "bypass selection expected:\n{text}");
    assert!(text.contains("⟕"), "outerjoin expected:\n{text}");
    assert!(text.contains("∪̇"), "disjoint union expected:\n{text}");
    assert!(
        !plan.contains_subquery(),
        "fully unnested plan must not evaluate nested blocks:\n{text}"
    );
}

#[test]
fn unnested_q2_eqv4_contains_chi_and_shared_bypass() {
    let c = random_catalog(1, 10, 10);
    let canonical = logical(
        &c,
        "SELECT DISTINCT * FROM r \
         WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > 6)",
    );
    let plan = unnest(&canonical, RewriteOptions::default()).unwrap();
    let text = plan.explain();
    assert!(text.contains("χ["), "map operator expected:\n{text}");
    assert!(text.contains("σ±"), "bypass on p expected:\n{text}");
    assert!(text.contains("shared #"), "shared bypass node:\n{text}");
    assert!(!plan.contains_subquery(), "{text}");
}

#[test]
fn unnested_eqv5_contains_numbering_and_binary_group() {
    let c = random_catalog(1, 10, 10);
    let canonical = logical(
        &c,
        "SELECT * FROM r \
         WHERE a1 = (SELECT COUNT(DISTINCT b1) FROM s WHERE a2 = b2 OR b4 > 6)",
    );
    let plan = unnest(&canonical, RewriteOptions::default()).unwrap();
    let text = plan.explain();
    assert!(text.contains("ν["), "numbering expected:\n{text}");
    assert!(text.contains("Γᵇ["), "binary grouping expected:\n{text}");
    assert!(text.contains("⋈±"), "bypass join expected:\n{text}");
    assert!(!plan.contains_subquery(), "{text}");
}

#[test]
fn union_rewrite_has_no_bypass_operators() {
    let c = random_catalog(1, 10, 10);
    let canonical = logical(
        &c,
        "SELECT * FROM r \
         WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 6",
    );
    let plan = union_rewrite(&canonical).unwrap();
    let text = plan.explain();
    assert!(!text.contains("σ±"), "no bypass in union rewrite:\n{text}");
    assert!(text.contains("∪̇"), "union expected:\n{text}");
    assert!(!plan.contains_subquery(), "{text}");
}

#[test]
fn union_rewrite_leaves_disjunctive_correlation_nested() {
    let c = random_catalog(1, 10, 10);
    let canonical = logical(
        &c,
        "SELECT * FROM r \
         WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > 6)",
    );
    let plan = union_rewrite(&canonical).unwrap();
    assert!(
        plan.contains_subquery(),
        "S2 cannot unnest disjunctive correlation"
    );
}
