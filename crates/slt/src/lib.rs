//! A self-contained sqllogictest-style conformance runner (DESIGN.md
//! §10).
//!
//! The A/B oracle in `bypass-check` finds *divergence* between
//! strategies on random queries; it cannot say which side is right,
//! and it never exercises hand-picked traps. This crate closes that
//! gap with a corpus of `.slt` files whose expected results are written
//! down, executed across the full strategy × threads grid:
//!
//! * [`parse`] — the `.slt` dialect (statement ok/error, typed query
//!   records with rowsort/valuesort/nosort, FNV-1a result hashes,
//!   `onlyif`/`skipif` strategy guards, `load` for generated datasets,
//!   `EXPLAIN` records as plan goldens), with line-numbered parse errors;
//! * [`norm`] — relation → canonical value-per-line text, so results
//!   compare as string lists and files stay diffable;
//! * [`run`] — the matrix driver, which also cross-checks raw results
//!   between grid points through the oracle's own comparator.
//!
//! `cargo test` picks the corpus up through `tests/slt.rs`; the
//! `slt_runner` binary runs it standalone with a per-file pass table
//! (`scripts/verify.sh` runs both serial and 8-worker modes).

pub mod norm;
pub mod parse;
pub mod run;

pub use parse::{parse_str, ParseError, SltFile};
pub use run::{run_file, FileReport};

use std::path::{Path, PathBuf};

/// Recursively collect `*.slt` files under `root`, sorted by path.
pub fn discover(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut found = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "slt") {
                found.push(path);
            }
        }
    }
    found.sort();
    Ok(found)
}

/// Parse and run one corpus file from disk.
///
/// The report name is the path relative to `base` when possible, so
/// tables and failure messages stay short.
pub fn run_path(path: &Path, base: &Path) -> Result<FileReport, ParseError> {
    let name = path
        .strip_prefix(base)
        .unwrap_or(path)
        .display()
        .to_string();
    let src = std::fs::read_to_string(path).map_err(|e| ParseError {
        name: name.clone(),
        line: 0,
        msg: format!("cannot read file: {e}"),
    })?;
    let file = parse_str(&name, &src)?;
    Ok(run_file(&file))
}
