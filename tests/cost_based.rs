//! Cost-based strategy selection (the paper's "apply unnesting in a
//! cost-based manner"): the chooser must pick the unnested bypass plan
//! when the data is large, remain correct everywhere, and expose its
//! candidate estimates through EXPLAIN.

use bypass::datagen::rst::{self, Q1, Q2};
use bypass::{Database, Strategy};

fn db(sf1: f64, sf2: f64) -> Database {
    let mut db = Database::new();
    rst::register(db.catalog_mut(), &rst::generate(sf1, sf2, 42)).unwrap();
    db
}

#[test]
fn cost_based_matches_canonical_results() {
    let db = db(0.01, 0.01);
    for sql in [Q1, Q2] {
        let reference = db.sql_with(sql, Strategy::Canonical, None).unwrap();
        let got = db.sql_with(sql, Strategy::CostBased, None).unwrap();
        assert!(got.bag_eq(&reference), "cost-based differs on {sql}");
    }
}

#[test]
fn cost_based_explain_reports_candidates_and_choice() {
    let db = db(0.05, 0.05);
    let text = db.explain(Q1, Strategy::CostBased).unwrap();
    assert!(text.contains("-- cost-based choice:"), "{text}");
    assert!(text.contains("canonical:"), "{text}");
    assert!(text.contains("unnested:"), "{text}");
    assert!(text.contains("S2:"), "{text}");
    assert!(text.contains("<- chosen"), "{text}");
}

#[test]
fn cost_based_picks_unnested_at_scale() {
    let db = db(0.05, 0.05);
    for sql in [Q1, Q2] {
        let text = db.explain(sql, Strategy::CostBased).unwrap();
        // On a 500×500 instance the nested-loop estimate dwarfs the
        // bypass plan; the chooser must not pick canonical.
        assert!(
            !text.contains("canonical: ") || !text.contains("canonical:  <- chosen"),
            "{text}"
        );
        let chosen_line = text
            .lines()
            .find(|l| l.contains("<- chosen"))
            .unwrap()
            .to_string();
        assert!(
            chosen_line.contains("unnested") || chosen_line.contains("S2"),
            "expected a non-nested choice at scale: {chosen_line}"
        );
    }
}

#[test]
fn cost_based_on_disjunctive_correlation_prefers_bypass() {
    // For Q2 the union rewrite cannot unnest; its estimate keeps the
    // nested-loop term and must lose to the Eqv. 4 plan.
    let db = db(0.05, 0.05);
    let text = db.explain(Q2, Strategy::CostBased).unwrap();
    let chosen_line = text
        .lines()
        .find(|l| l.contains("<- chosen"))
        .unwrap()
        .to_string();
    assert!(chosen_line.contains("unnested"), "{chosen_line}\n{text}");
}

#[test]
fn cost_based_runs_through_database_default() {
    let db = db(0.01, 0.01).with_default_strategy(Strategy::CostBased);
    let out = db.sql(Q1).unwrap();
    assert!(!out.is_empty() || out.is_empty(), "executes without error");
    // Flat queries (no subquery) work too — candidates coincide.
    let out = db.sql("SELECT a1 FROM r WHERE a4 > 1500").unwrap();
    assert!(out.len() < 200);
}
