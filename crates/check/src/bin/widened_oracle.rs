//! The widened differential oracle as a CI gate.
//!
//! Runs the full strategy matrix over grammar-generated queries —
//! multi-level nesting, derived inner tables, ORDER BY/LIMIT — with
//! coverage-guided scheduling, prints the per-fingerprint coverage
//! table, and fails when
//!
//! * any strategy diverges from canonical evaluation, or
//! * any required rewrite shape (Eqv. 1–5, depth-2+ nesting, derived
//!   tables, ORDER BY, LIMIT) was hit fewer than the minimum number
//!   of times.
//!
//! Environment:
//!
//! * `BYPASS_CHECK_SEED`  — run seed (decimal or 0x-hex; pin in CI)
//! * `BYPASS_CHECK_CASES` — case count        (default 2000)
//! * `BYPASS_CHECK_MIN_HITS` — per-shape floor (default 20)
//! * `BYPASS_CHECK_FOCUS` — comma-separated tag substrings to bias
//!   generation toward (recently-changed rewrite shapes)
//! * `BYPASS_THREADS`     — worker count (default: all cores)

use std::process::ExitCode;

use bypass_check::{run_differential_parallel, DefaultExecutor, OracleConfig, AXES};

/// Shapes the gate insists on: every Eqv. 1–5 rewrite outcome (Eqv. 2/3
/// are the bypass chain; Eqv. 4 counts a DISTINCT aggregate split by
/// its own predicate apart), the fallback, plus the PR 4 grammar shapes.
const REQUIRED_SHAPES: [&str; 11] = [
    "type-a:cross-join",
    "eqv1:gamma-outerjoin",
    "bypass-chain",
    "eqv4:decomposed-bypass-filter",
    "eqv4:distinct-split",
    "eqv5:bypass-join-binary-grouping",
    "fallback:theta-join-binary-grouping",
    "depth2",
    "depth3",
    "derived",
    "orderby",
];

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(default)
}

fn main() -> ExitCode {
    let cases = env_u64("BYPASS_CHECK_CASES", 2000) as u32;
    let min_hits = env_u64("BYPASS_CHECK_MIN_HITS", 20);
    let cfg = OracleConfig {
        cases,
        ..OracleConfig::default()
    };
    eprintln!(
        "widened oracle: {} cases x {} strategies, seed {:#x}, schedule_attempts {}{}",
        cfg.cases,
        cfg.strategies.len(),
        cfg.seed,
        cfg.schedule_attempts,
        if cfg.focus.is_empty() {
            String::new()
        } else {
            format!(", focus {:?}", cfg.focus)
        }
    );
    let report = match run_differential_parallel(&cfg, &DefaultExecutor, 0) {
        Ok(r) => r,
        Err(m) => {
            eprintln!("widened oracle: MISMATCH\n{m}");
            return ExitCode::FAILURE;
        }
    };
    let axis_runs: String = AXES
        .iter()
        .zip(report.axis_runs)
        .map(|(axis, runs)| format!("{} runs {runs}  ", axis.name))
        .collect();
    println!(
        "cases {}  strategy runs {}  {axis_runs}nested {}",
        report.cases, report.strategy_runs, report.nested_queries
    );
    println!("{}", report.coverage_table());

    // `limit` implies `orderby` (the grammar never emits a bare LIMIT),
    // but gate it explicitly too.
    let mut failed = false;
    for shape in REQUIRED_SHAPES.iter().copied().chain(["limit"]) {
        let hits = report.coverage.get(shape).copied().unwrap_or(0);
        if hits < min_hits {
            eprintln!("widened oracle: shape `{shape}` hit only {hits} times (need >= {min_hits})");
            failed = true;
        }
    }
    if failed {
        return ExitCode::FAILURE;
    }
    println!("widened oracle: OK (all required shapes covered >= {min_hits} times)");
    ExitCode::SUCCESS
}
