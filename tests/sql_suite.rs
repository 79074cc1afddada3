//! The SQL surface battery lives in `tests/slt/surface/*.slt` and runs
//! under the slt driver across the whole strategy × threads grid
//! (`tests/slt.rs::slt_surface`, DESIGN.md §10). What is left here keeps
//! the battery's fifteen test names alive, one per file, because the
//! tier-1 floor names them and a PR may retire only a few names at a
//! time; delete this file once the floor no longer lists it.

use std::path::PathBuf;

/// Run `tests/slt/surface/<test name, dashed>.slt` through the slt driver.
fn surface(test: &str) {
    let base = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/slt");
    let file = base
        .join("surface")
        .join(test.replace('_', "-"))
        .with_extension("slt");
    let report = bypass_slt::run_path(&file, &base).unwrap_or_else(|e| panic!("{e}"));
    assert!(report.passed(), "{}: {:?}", report.name, report.failures);
}

macro_rules! surface_tests {
    ($($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            surface(stringify!($name));
        }
    )*};
}

surface_tests!(
    comparisons_and_null,
    arithmetic_in_projection_and_predicate,
    like_patterns,
    between_and_in_list,
    order_by_and_distinct,
    aggregates_top_level,
    aggregates_on_empty_input,
    joins_and_aliases,
    correlated_scalar_subquery_in_select,
    quantified_comparisons,
    exists_variants,
    disjunctive_linking_end_to_end,
    error_surface,
    is_null_and_limit,
    scalar_non_aggregate_subquery_single_row,
);
