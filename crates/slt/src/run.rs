//! The matrix driver: executes a parsed [`SltFile`] against a fresh
//! [`Database`], running every `query` record across the full
//! strategy × thread-count grid and diffing normalized results against
//! the expected block.
//!
//! A conformance failure is reported with the record's line number,
//! the exact grid point (`unnested / threads=8`) and a value-level
//! diff, so a failing corpus file doubles as a minimized
//! bug report.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use bypass_core::{Database, RunLimits, Strategy};
use bypass_types::Relation;

use crate::norm::{hash_lines, normalize};
use crate::parse::{Expected, LoadKind, Record, RecordKind, SltFile};

/// Thread counts every query record is executed under.
pub const THREAD_AXIS: [usize; 2] = [1, 8];

/// Chunk lengths a `statement error` query is executed under besides:
/// one row, a few, and the default — an error must not depend on where
/// a chunk of a loop ends.
pub const ERROR_BATCH_AXIS: [usize; 3] = [1, 3, bypass_types::BATCH_ROWS];

/// Per-query wall-clock budget; a hang is reported as a failure, not a
/// stuck test process.
const QUERY_TIMEOUT: Duration = Duration::from_secs(120);

/// One conformance failure inside a file.
#[derive(Debug, Clone)]
pub struct Failure {
    pub line: usize,
    pub msg: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

/// Result of running one file.
#[derive(Debug, Clone)]
pub struct FileReport {
    pub name: String,
    /// `query` records executed.
    pub queries: usize,
    /// Individual engine executions (queries × admitted grid points).
    pub executions: usize,
    pub failures: Vec<Failure>,
}

impl FileReport {
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Run a parsed file against a fresh database.
///
/// Execution stops at the first failing record — later records usually
/// depend on state the failing one was meant to establish, so running
/// on would only bury the signal under follow-on noise.
pub fn run_file(file: &SltFile) -> FileReport {
    let mut report = FileReport {
        name: file.name.clone(),
        queries: 0,
        executions: 0,
        failures: Vec::new(),
    };
    let mut db = Database::new();
    for record in &file.records {
        if let Err(msg) = run_record(&mut db, record, &mut report) {
            report.failures.push(Failure {
                line: record.line,
                msg,
            });
            break;
        }
    }
    report
}

fn run_record(db: &mut Database, record: &Record, report: &mut FileReport) -> Result<(), String> {
    match &record.kind {
        RecordKind::HashThreshold(_) => Ok(()),
        RecordKind::Load(kind) => load(db, kind),
        RecordKind::Statement {
            expect_error,
            error_substring,
            sql,
        } => statement(db, *expect_error, error_substring.as_deref(), sql),
        RecordKind::Query {
            types,
            sort,
            conditions,
            sql,
            expected,
            ..
        } => {
            report.queries += 1;
            let explain = sql
                .get(..8)
                .is_some_and(|w| w.eq_ignore_ascii_case("EXPLAIN "));
            let mut reference: Option<(Relation, String)> = None;
            for strategy in Strategy::all() {
                let name = strategy.to_string().to_ascii_lowercase();
                if !conditions.admits(&name) {
                    continue;
                }
                for threads in THREAD_AXIS {
                    let grid = format!("{name} / threads={threads}");
                    report.executions += 1;
                    if explain {
                        let got = plan_lines(db, sql, strategy)
                            .map_err(|e| format!("[{grid}] explain failed: {e}"))?;
                        check_expected(expected, &got).map_err(|e| format!("[{grid}] {e}"))?;
                        continue;
                    }
                    let limits = RunLimits {
                        timeout: Some(QUERY_TIMEOUT),
                        threads: Some(threads),
                        ..RunLimits::default()
                    };
                    let rel = match db.run_governed(sql, strategy, &limits) {
                        Ok((rel, _counters)) => rel,
                        Err(e) => return Err(format!("[{grid}] query failed: {e}")),
                    };
                    let got = normalize(&rel, types, *sort).map_err(|e| format!("[{grid}] {e}"))?;
                    check_expected(expected, &got).map_err(|e| format!("[{grid}] {e}"))?;
                    // Cross-check raw relations between grid points
                    // through the oracle's comparator as well: the
                    // normalizer could in principle mask a diff
                    // (e.g. two floats formatting identically), and
                    // this is the comparator the A/B oracle trusts.
                    match &reference {
                        None => reference = Some((rel, grid)),
                        Some((ref_rel, ref_grid)) => {
                            if let Some(diff) = bypass_check::results_agree(ref_rel, &rel, None) {
                                return Err(format!(
                                    "[{grid}] disagrees with [{ref_grid}]: {diff}"
                                ));
                            }
                        }
                    }
                }
            }
            Ok(())
        }
    }
}

/// What an `EXPLAIN <select>` record (a plan golden) compares: the lines
/// of `Database::explain` up to the physical plan — its operator choice
/// is the executor tests' to pin — one value per line, blank lines
/// dropped because a result block cannot hold one.
fn plan_lines(db: &Database, sql: &str, strategy: Strategy) -> bypass_types::Result<Vec<String>> {
    Ok(db
        .explain(sql, strategy)?
        .lines()
        .take_while(|l| *l != "-- physical plan")
        .map(|l| l.trim_end().to_string())
        .filter(|l| !l.is_empty())
        .collect())
}

fn statement(
    db: &mut Database,
    expect_error: bool,
    error_substring: Option<&str>,
    sql: &str,
) -> Result<(), String> {
    // `statement error` asserts a *typed* engine error. A panic is a
    // conformance failure in its own right, whatever was expected.
    let typed = |run: &mut dyn FnMut() -> bypass_types::Result<()>| {
        catch_unwind(AssertUnwindSafe(run)).map_err(|payload| {
            let what = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic payload>");
            format!("statement panicked instead of returning a typed error: {what}")
        })
    };
    let expected_error = |e: bypass_types::Error| {
        let text = e.to_string();
        match error_substring {
            Some(want) if !text.contains(want) => Err(format!(
                "statement error `{text}` does not contain `{want}`"
            )),
            _ => Ok(()),
        }
    };
    match (expect_error, typed(&mut || db.execute_sql(sql).map(drop))?) {
        (false, Ok(())) => return Ok(()),
        (false, Err(e)) => return Err(format!("statement failed: {e}")),
        (true, Ok(())) => return Err("statement succeeded but an error was expected".to_string()),
        (true, Err(e)) => expected_error(e)?,
    }
    // A query that must fail must fail alike on the whole grid, chunk
    // lengths included: no strategy's rewrite may lose the error (or
    // turn it into another).
    let select = sql
        .trim_start()
        .get(..6)
        .is_some_and(|w| w.eq_ignore_ascii_case("SELECT"));
    if !select {
        return Ok(());
    }
    for strategy in Strategy::all() {
        for threads in THREAD_AXIS {
            for batch_rows in ERROR_BATCH_AXIS {
                let limits = RunLimits {
                    timeout: Some(QUERY_TIMEOUT),
                    threads: Some(threads),
                    batch_rows: Some(batch_rows),
                    ..RunLimits::default()
                };
                let grid = format!("{strategy} / threads={threads} / batch={batch_rows}");
                match typed(&mut || db.run_governed(sql, strategy, &limits).map(drop)) {
                    Err(e) => return Err(format!("[{grid}] {e}")),
                    Ok(Ok(())) => {
                        return Err(format!(
                            "[{grid}] statement succeeded but an error was expected"
                        ))
                    }
                    Ok(Err(e)) => expected_error(e).map_err(|e| format!("[{grid}] {e}"))?,
                }
            }
        }
    }
    Ok(())
}

fn check_expected(expected: &Expected, got: &[String]) -> Result<(), String> {
    match expected {
        Expected::Hash { count, hash } => {
            if got.len() != *count {
                return Err(format!("expected {count} values, got {}", got.len()));
            }
            let h = hash_lines(got);
            if h != *hash {
                return Err(format!(
                    "expected {count} values hashing to {hash:016x}, got {h:016x}"
                ));
            }
            Ok(())
        }
        Expected::Values(want) => {
            if want.len() != got.len() {
                return Err(format!(
                    "expected {} values, got {} ({})",
                    want.len(),
                    got.len(),
                    preview(got)
                ));
            }
            for (i, (w, g)) in want.iter().zip(got).enumerate() {
                if w != g {
                    return Err(format!(
                        "value {} differs: expected `{w}`, got `{g}`",
                        i + 1
                    ));
                }
            }
            Ok(())
        }
    }
}

fn preview(lines: &[String]) -> String {
    const MAX: usize = 12;
    let mut s = lines
        .iter()
        .take(MAX)
        .cloned()
        .collect::<Vec<_>>()
        .join(", ");
    if lines.len() > MAX {
        s.push_str(", …");
    }
    s
}

fn load(db: &mut Database, kind: &LoadKind) -> Result<(), String> {
    let result = match kind {
        LoadKind::Tpch { sf, seed } => {
            let instance = bypass_datagen::tpch::generate(*sf, *seed);
            bypass_datagen::tpch::register(db.catalog_mut(), &instance)
        }
        LoadKind::Strings { rows, seed } => {
            let instance = bypass_datagen::text::generate(*rows, *seed);
            bypass_datagen::text::register(db.catalog_mut(), &instance)
        }
        LoadKind::Skew { rows, seed } => {
            let instance = bypass_datagen::skew::generate(*rows, *seed);
            bypass_datagen::skew::register(db.catalog_mut(), &instance)
        }
    };
    result.map_err(|e| format!("load failed: {e}"))
}
