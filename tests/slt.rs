//! Conformance-corpus harness: every `tests/slt/**/*.slt` file runs
//! across the full strategy × threads grid (see DESIGN.md §10). This is
//! the one place SQL expectations live: the hand-computed surface
//! battery (`surface/`), the regression corpus of oracle findings
//! (`corpus/`) and the plan goldens (`plans/`) included.
//!
//! One `#[test]` per corpus subdirectory so failures localize and the
//! directories run in parallel under the default test runner. A new
//! subdirectory must be added here — `all_corpus_dirs_have_a_test`
//! fails otherwise, so a forgotten directory cannot silently skip.

use std::path::PathBuf;

fn corpus_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/slt")
}

/// Directories with a dedicated `#[test]` below.
const DIRS: [&str; 13] = [
    "agg", "basics", "corpus", "corr", "dates", "errors", "keys", "nulls", "plans", "skew",
    "strings", "surface", "tpch",
];

fn run_dir(sub: &str) {
    let base = corpus_root();
    let files = bypass_slt::discover(&base.join(sub)).expect("corpus dir readable");
    assert!(!files.is_empty(), "no .slt files under tests/slt/{sub}");
    let mut failures = Vec::new();
    let mut executions = 0usize;
    for path in &files {
        match bypass_slt::run_path(path, &base) {
            Ok(report) if report.passed() => executions += report.executions,
            Ok(report) => {
                executions += report.executions;
                for f in &report.failures {
                    failures.push(format!("{}: {f}", report.name));
                }
            }
            Err(e) => failures.push(e.to_string()),
        }
    }
    assert!(
        failures.is_empty(),
        "{} conformance failure(s) after {executions} execution(s):\n  {}",
        failures.len(),
        failures.join("\n  ")
    );
}

#[test]
fn all_corpus_dirs_have_a_test() {
    let mut on_disk: Vec<String> = std::fs::read_dir(corpus_root())
        .expect("tests/slt exists")
        .filter_map(|e| {
            let e = e.ok()?;
            e.file_type()
                .ok()?
                .is_dir()
                .then(|| e.file_name().to_string_lossy().into_owned())
        })
        .collect();
    on_disk.sort();
    let mut declared: Vec<String> = DIRS.iter().map(|s| s.to_string()).collect();
    declared.sort();
    assert_eq!(on_disk, declared, "tests/slt subdirectories vs DIRS");
}

#[test]
fn slt_agg() {
    run_dir("agg");
}

#[test]
fn slt_basics() {
    run_dir("basics");
}

#[test]
fn slt_corpus() {
    run_dir("corpus");
}

#[test]
fn slt_corr() {
    run_dir("corr");
}

#[test]
fn slt_dates() {
    run_dir("dates");
}

#[test]
fn slt_errors() {
    run_dir("errors");
}

#[test]
fn slt_keys() {
    run_dir("keys");
}

#[test]
fn slt_nulls() {
    run_dir("nulls");
}

#[test]
fn slt_plans() {
    run_dir("plans");
}

#[test]
fn slt_skew() {
    run_dir("skew");
}

#[test]
fn slt_strings() {
    run_dir("strings");
}

#[test]
fn slt_surface() {
    run_dir("surface");
}

#[test]
fn slt_tpch() {
    run_dir("tpch");
}
