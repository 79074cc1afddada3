//! Timed single-shot execution with timeouts.

use std::fmt::Display;
use std::time::{Duration, Instant};

use bypass_core::{Database, Strategy};
use bypass_datagen::{rst, tpch};
use bypass_types::{Error, ResourceKind, Result};

/// One measured cell of a table.
#[derive(Debug, PartialEq)]
pub enum Measurement {
    /// The run finished: elapsed seconds and result cardinality.
    Done { secs: f64, rows: usize },
    /// The run hit its timeout (or was dominance-skipped because a
    /// smaller cell did) — rendered `n/a`, like the paper's aborted runs.
    TimedOut,
    /// The run failed with anything else — rendered `err`. A table that
    /// holds one is not a result ([`audit`]).
    Failed(Error),
}

impl Measurement {
    pub fn render(&self) -> String {
        match self {
            Measurement::Done { secs, .. } if *secs >= 100.0 => format!("{secs:.0}"),
            Measurement::Done { secs, .. } if *secs >= 1.0 => format!("{secs:.1}"),
            Measurement::Done { secs, .. } if *secs >= 0.01 => format!("{secs:.3}"),
            // Two digits still: the 2 ms bypass plans against each other.
            Measurement::Done { secs, .. } => format!("{secs:.4}"),
            Measurement::TimedOut => "n/a".to_string(),
            Measurement::Failed(_) => "err".to_string(),
        }
    }
}

/// A database holding one RST instance (outer scale `sf1`, inner scale
/// `sf2`, deterministic seed).
pub fn rst_database(sf1: f64, sf2: f64, seed: u64) -> Database {
    let mut db = Database::new();
    rst::register(db.catalog_mut(), &rst::generate(sf1, sf2, seed)).expect("fresh catalog");
    db
}

/// A database holding one TPC-H instance.
pub fn tpch_database(sf: f64, seed: u64) -> Database {
    let mut db = Database::new();
    tpch::register(db.catalog_mut(), &tpch::generate_2d(sf, seed)).expect("fresh catalog");
    db
}

/// Run `sql` once under `strategy` and measure wall-clock time. The
/// query runs cold (plans are rebuilt), mirroring the paper's cold-
/// buffer single-shot methodology.
pub fn measure(db: &Database, sql: &str, strategy: Strategy, timeout: Duration) -> Measurement {
    measure_with(|| {
        db.sql_with(sql, strategy, Some(timeout))
            .map(|rel| rel.len())
    })
}

/// [`measure`] for a run that is not a plain SQL statement (the
/// ablations execute hand-transformed plans): time `run`, which returns
/// its result cardinality.
pub fn measure_with(run: impl FnOnce() -> Result<usize>) -> Measurement {
    let start = Instant::now();
    match run() {
        Ok(rows) => Measurement::Done {
            secs: start.elapsed().as_secs_f64(),
            rows,
        },
        Err(Error::ResourceExhausted {
            resource: ResourceKind::Time,
            ..
        }) => Measurement::TimedOut,
        Err(e) => Measurement::Failed(e),
    }
}

/// Check a finished table — `rows[i][j]` is system `labels[i]` on cell
/// `header[j]` — for what makes it unpublishable, one stderr line each:
/// a cell that failed with something other than a timeout, and a cell
/// on which the systems that finished disagree about the result
/// cardinality (every row of a table evaluates the same query per
/// column, and the strategies are equivalences). Returns the number of
/// such problems; `fig7` exits nonzero unless it is zero.
pub fn audit(
    title: &str,
    labels: &[impl Display],
    header: &[String],
    rows: &[Vec<Measurement>],
) -> usize {
    let mut problems = 0;
    for (j, cell) in header.iter().enumerate() {
        let mut finished: Vec<(String, usize)> = Vec::new();
        for (label, row) in labels.iter().zip(rows) {
            match &row[j] {
                Measurement::Done { rows, .. } => finished.push((label.to_string(), *rows)),
                Measurement::TimedOut => {}
                Measurement::Failed(e) => {
                    eprintln!("{title}: {label} at {cell}: {e}");
                    problems += 1;
                }
            }
        }
        if finished.iter().any(|(_, n)| *n != finished[0].1) {
            eprintln!("{title}: row counts disagree at {cell}: {finished:?}");
            problems += 1;
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use bypass_core::Strategy;

    fn done(secs: f64, rows: usize) -> Measurement {
        Measurement::Done { secs, rows }
    }

    #[test]
    fn render_formats_by_magnitude() {
        assert_eq!(done(0.0123, 1).render(), "0.012");
        assert_eq!(done(0.00234, 1).render(), "0.0023");
        assert_eq!(done(2.34, 1).render(), "2.3");
        assert_eq!(done(123.4, 1).render(), "123");
        assert_eq!(Measurement::TimedOut.render(), "n/a");
        assert_eq!(Measurement::Failed(Error::plan("x")).render(), "err");
    }

    #[test]
    fn rst_database_scales_and_runs() {
        let db = rst_database(0.002, 0.004, 1);
        assert_eq!(db.catalog().get("r").unwrap().row_count(), 20);
        assert_eq!(db.catalog().get("s").unwrap().row_count(), 40);
        let m = measure(
            &db,
            "SELECT COUNT(*) FROM r",
            Strategy::Unnested,
            Duration::from_secs(5),
        );
        assert!(matches!(m, Measurement::Done { rows: 1, .. }), "{m:?}");
    }

    #[test]
    fn timeout_reports_na() {
        let db = rst_database(0.05, 0.05, 1);
        // A pathological triple θ-join against a zero-ish timeout.
        let m = measure(
            &db,
            "SELECT COUNT(*) FROM r a, r b, r c WHERE a.a1 <> b.a1 AND b.a2 <> c.a2",
            Strategy::Canonical,
            Duration::from_millis(1),
        );
        assert_eq!(m, Measurement::TimedOut);
        assert_eq!(m.render(), "n/a");
    }

    #[test]
    fn an_error_that_is_not_a_timeout_reports_err_not_na() {
        let db = rst_database(0.002, 0.002, 1);
        let m = measure(
            &db,
            "SELECT no_such_column FROM r",
            Strategy::Unnested,
            Duration::from_secs(5),
        );
        assert!(matches!(m, Measurement::Failed(_)), "{m:?}");
        assert_eq!(m.render(), "err");
        // A tripped memory budget is a resource error but not an abort
        // the paper's tables know: it must not hide behind `n/a`.
        let m = measure_with(|| Err(Error::resource_exhausted(ResourceKind::Memory, 1, 2)));
        assert_eq!(m.render(), "err");
    }

    #[test]
    fn audit_counts_err_cells_and_row_disagreements() {
        let labels = ["canonical", "unnested"];
        let header = vec!["0.1/0.1".to_string(), "1/1".to_string()];
        // Clean: agreeing counts, a timeout next to a finished cell.
        let clean = vec![
            vec![done(0.5, 7), Measurement::TimedOut],
            vec![done(0.1, 7), done(0.2, 9)],
        ];
        assert_eq!(audit("t", &labels, &header, &clean), 0);
        // One failed cell; the other column is still checked.
        let failed = vec![
            vec![Measurement::Failed(Error::plan("boom")), done(0.5, 9)],
            vec![done(0.1, 7), done(0.2, 9)],
        ];
        assert_eq!(audit("t", &labels, &header, &failed), 1);
        // Two strategies finished one cell with different cardinalities.
        let disagree = vec![
            vec![done(0.5, 7), done(0.5, 9)],
            vec![done(0.1, 8), done(0.2, 9)],
        ];
        assert_eq!(audit("t", &labels, &header, &disagree), 1);
    }

    #[test]
    fn database_profile_matches_plain_execution() {
        let db = rst_database(0.01, 0.01, 42);
        let expect = db
            .sql_with(crate::Q1, Strategy::Unnested, None)
            .unwrap()
            .len();
        let p = db.profile(crate::Q1, Strategy::Unnested).unwrap();
        assert_eq!(p.rows, expect);
        // Phase timings are populated (executed queries take > 0 time).
        assert!(p.phases.execute > 0, "{:?}", p.phases);
        assert!(p.phases.total() >= p.phases.execute);
    }

    #[test]
    fn tpch_database_has_2d_tables() {
        let db = tpch_database(0.001, 1);
        for t in ["region", "nation", "supplier", "part", "partsupp"] {
            assert!(db.catalog().contains(t), "{t}");
        }
    }
}
