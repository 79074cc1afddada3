//! Plan-shape reproduction of the paper's Figures 2, 3, 5 and 6: the
//! unnested plans must exhibit exactly the operator structure the paper
//! sketches. These are the E4–E7 experiments of DESIGN.md. The full plan
//! text of the same queries is pinned in `tests/slt/plans/*.slt`; what
//! stays here names, operator by operator, what each figure shows.

use bypass::datagen::rst::{self, Q1, Q2, Q3, Q4, Q4_FIG6};
use bypass::{Database, Strategy};

fn db() -> Database {
    let mut db = Database::new();
    rst::register(db.catalog_mut(), &rst::generate(0.001, 0.001, 42)).unwrap();
    db
}

fn unnested_plan(sql: &str) -> String {
    let db = db();
    let canonical = db.logical_plan(sql).unwrap();
    Strategy::Unnested.prepare(&canonical).unwrap().explain()
}

fn canonical_plan(sql: &str) -> String {
    let db = db();
    let canonical = db.logical_plan(sql).unwrap();
    Strategy::Canonical.prepare(&canonical).unwrap().explain()
}

#[test]
fn fig2a_canonical_q1_has_nested_block_in_predicate() {
    let text = canonical_plan(Q1);
    assert!(
        text.contains("σ[((a4 > 1500) OR (a1 = ⟨subquery⟩))]")
            || text.contains("σ[((a1 = ⟨subquery⟩) OR (a4 > 1500))]"),
        "{text}"
    );
    assert!(text.contains("subquery:"), "{text}");
    assert!(
        text.contains("Γ[; count(distinct *): count(distinct *)]"),
        "{text}"
    );
}

#[test]
fn fig2c_unnested_q1_structure() {
    let text = unnested_plan(Q1);
    // Positive stream: bypass selection on the cheap predicate.
    assert!(text.contains("σ±+[(a4 > 1500)] (#1)"), "{text}");
    // Negative stream: shared bypass node, Γ on the correlation key,
    // outerjoin with the count default 0, then the linking check.
    assert!(text.contains("σ±- (shared #1)"), "{text}");
    assert!(text.contains("Γ[b2; __g0: count(distinct *)]"), "{text}");
    assert!(text.contains("defaults[__g0←0]"), "{text}");
    assert!(text.contains("σ[(a1 = __g0)]"), "{text}");
    // Fully unnested: no nested block survives.
    assert!(!text.contains("subquery:"), "{text}");
    // The scans appear exactly once each (DAG, not a tree copy).
    assert_eq!(text.matches("Scan r").count(), 1, "{text}");
    assert_eq!(text.matches("Scan s").count(), 1, "{text}");
}

#[test]
fn fig3b_unnested_q2_structure() {
    let text = unnested_plan(Q2);
    // σ± splits S on the correlation-independent predicate p.
    assert!(
        text.contains("σ±+[(b4 > 1500)] (#1)") || text.contains("σ±-[(b4 > 1500)] (#1)"),
        "{text}"
    );
    assert!(text.contains("(shared #1)"), "{text}");
    // Grouped partial count over one stream, scalar partial over the
    // other, combined by χ (here: g = g1 + g2).
    assert!(text.contains("Γ[b2; __p"), "{text}");
    assert!(text.contains("χ[__g"), "{text}");
    // Count-bug defaults on the outerjoin.
    assert!(text.contains("defaults[__p"), "{text}");
    assert!(!text.contains("subquery:"), "{text}");
    // S is scanned once; both partials read the same bypass node.
    assert_eq!(text.matches("Scan s").count(), 1, "{text}");
}

#[test]
fn fig5_unnested_q3_tree_structure() {
    let text = unnested_plan(Q3);
    // First linking predicate becomes a bypass selection over the
    // attached aggregate (Eqv. 3 shape)...
    assert!(text.contains("σ±+[(a1 = __g"), "{text}");
    // ...the second is unnested conjunctively in the negative stream
    // (Eqv. 1): a plain selection on the second aggregate.
    assert!(text.contains("σ[(a3 = __g"), "{text}");
    // Two Γ/⟕ pairs, one per nested block.
    assert_eq!(text.matches("⟕[").count(), 2, "{text}");
    assert_eq!(text.matches("Γ[").count(), 2, "{text}");
    assert!(!text.contains("subquery:"), "{text}");
}

#[test]
fn fig6_unnested_q4_linear_structure() {
    // Q4 with an EXISTS inner-inner block keeps the plan of Fig. 6.
    let text = unnested_plan(Q4_FIG6);
    // Eqv. 5 at the top: numbering, bypass join on the correlation
    // predicate, binary grouping on the numbering column.
    assert!(text.contains("ν[__t"), "{text}");
    assert!(text.contains("⋈±+[(a2 = b2)]"), "{text}");
    assert!(text.contains("Γᵇ[__g"), "{text}");
    // The inner-inner block is unnested with Eqv. 1 inside σ_p on the
    // negative join stream: Γ over T and an outerjoin with default 0.
    assert!(text.contains("Γ[c2; __g"), "{text}");
    assert!(!text.contains("subquery:"), "{text}");
}

#[test]
fn q4_unnests_its_inner_block_first_and_splits_s_by_eqv4() {
    let text = unnested_plan(Q4);
    // The T-block attaches to S once per s-row (Eqv. 1) before S is
    // split: a ⟕ on the correlation column b4 right over the scan of S.
    let lines: Vec<&str> = text.lines().map(str::trim).collect();
    let join = lines
        .iter()
        .position(|l| l.starts_with("⟕[(b4 = __k"))
        .unwrap_or_else(|| panic!("no inner-first ⟕:\n{text}"));
    assert_eq!(lines[join + 1], "Scan s", "{text}");
    assert!(text.contains("Γ[c2; __g0: count(distinct *)]"), "{text}");
    // Eqv. 4 under the DISTINCT side condition: σ±_p on the now
    // subquery-free p, a grouped partial on the negative stream, a
    // scalar one on the positive stream, both over A(S) only.
    assert!(text.contains("σ±-[(b3 = __g0)] (#"), "{text}");
    assert!(text.contains("Γ[b2; __p"), "{text}");
    assert!(text.contains("Γ[; __q"), "{text}");
    assert!(text.contains("χ[__g"), "{text}");
    assert_eq!(
        text.matches("Π[s.b1, s.b2, s.b3, s.b4]").count(),
        2,
        "{text}"
    );
    // No pair loop: no numbering, no bypass join, no binary grouping.
    for eqv5 in ["ν[", "⋈±", "Γᵇ["] {
        assert!(!text.contains(eqv5), "{eqv5} in:\n{text}");
    }
    assert_eq!(text.matches("Scan s").count(), 1, "{text}");
    assert_eq!(text.matches("Scan t").count(), 1, "{text}");
    assert!(!text.contains("subquery:"), "{text}");
}

#[test]
fn physical_q1_uses_hash_operators_and_shared_bypass() {
    let db = db();
    let text = db.explain(Q1, Strategy::Unnested).unwrap();
    assert!(text.contains("HashOuterJoin"), "{text}");
    assert!(text.contains("HashAggregate"), "{text}");
    assert!(text.contains("BypassFilter (#1)"), "{text}");
    assert!(text.contains("BypassFilter (shared #1)"), "{text}");
}

#[test]
fn physical_q4_fuses_the_negative_stream_pipeline_into_its_bypass_join() {
    let db = db();
    let text = db.explain(Q4_FIG6, Strategy::Unnested).unwrap();
    // The Eqv. 5 plan contains the bypass NL join, and the ⟕ → σ → Π run
    // over its negative stream is that join's stage chain: the three
    // operators stay visible, in place, marked with the join's number.
    let physical = text.split("-- physical plan").nth(1).unwrap();
    let lines: Vec<&str> = physical.lines().map(str::trim).collect();
    let join = lines
        .iter()
        .find_map(|l| l.strip_prefix("BypassNLJoin ("))
        .unwrap_or_else(|| panic!("no bypass join:\n{text}"));
    let host = join.trim_end_matches(')');
    let at = lines
        .iter()
        .position(|l| *l == format!("Project fused→{host}"))
        .unwrap_or_else(|| panic!("no fused chain:\n{text}"));
    assert_eq!(
        &lines[at + 1..at + 5],
        &[
            format!("Filter fused→{host}"),
            format!("HashOuterJoin fused→{host}"),
            "Stream(-)".to_string(),
            format!("BypassNLJoin (shared {host})"),
        ],
        "{text}"
    );
}

#[test]
fn all_strategies_agree_on_all_figure_queries() {
    let db = db();
    for sql in [Q1, Q2, Q3, Q4, Q4_FIG6] {
        let reference = db.sql_with(sql, Strategy::Canonical, None).unwrap();
        for strategy in Strategy::all() {
            let got = db.sql_with(sql, strategy, None).unwrap();
            assert!(got.bag_eq(&reference), "{strategy} differs on {sql}");
        }
    }
}
