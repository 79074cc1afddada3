//! Regenerate the paper's evaluation tables.
//!
//! ```text
//! fig7 [q1] [q2d] [q2] [q3] [q4] [exists] [combined] [rank] [all]
//!      [--timeout SECS] [--quick] [--csv]
//! ```
//!
//! * `q1`   — Fig. 7(a): Q1, disjunctive linking, RST grid.
//! * `q2d`  — Fig. 7(b): TPC-H Query 2d, disjunctive linking.
//! * `q2`   — Fig. 7(c): Q2, disjunctive correlation, RST grid.
//! * `q3`/`q4` — tree / linear queries (technical-report experiments).
//! * `exists` — quantified subquery in a disjunction (TR extension).
//! * `combined` — disjunctive linking *and* correlation (outlook 1).
//! * `rank` — Eqv. 2 vs Eqv. 3 ablation over plain-disjunct selectivity.
//!
//! Scale factors are 1/10 of the paper's (see DESIGN.md §4); cells that
//! exceed the timeout print `n/a` exactly like the paper's six-hour
//! aborts.
//!
//! Timing runs are serial by default. Set `BYPASS_THREADS=N` to fan the
//! independent strategy rows (and database construction) out over N
//! scoped workers — useful for fast smoke runs; published numbers
//! should keep the default, since concurrent rows contend for cores.

use std::time::Duration;

use bypass_bench::{
    measure, q1_with_threshold, rst_database, tpch_database, Table, Q1, Q2, Q3, Q4, QUERY_2D,
    Q_COMBINED, Q_EXISTS,
};
use bypass_core::Strategy;
use bypass_types::par;

struct Config {
    timeout: Duration,
    quick: bool,
    csv: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiments: Vec<String> = Vec::new();
    let mut timeout = 60.0f64;
    let mut quick = false;
    let mut csv = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--timeout" => {
                timeout = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--timeout needs seconds");
            }
            "--quick" => quick = true,
            "--csv" => csv = true,
            name => experiments.push(name.to_string()),
        }
    }
    if experiments.is_empty() {
        experiments.push("all".to_string());
    }
    let cfg = Config {
        timeout: Duration::from_secs_f64(timeout),
        quick,
        csv,
    };
    let all = experiments.iter().any(|e| e == "all");
    let want = |name: &str| all || experiments.iter().any(|e| e == name);

    if want("q1") {
        rst_experiment(
            &cfg,
            "Fig. 7(a) — Q1 (disjunctive linking, RST); seconds",
            Q1,
        );
    }
    if want("q2d") {
        q2d_experiment(&cfg);
    }
    if want("q2") {
        rst_experiment(
            &cfg,
            "Fig. 7(c) — Q2 (disjunctive correlation, RST); seconds",
            Q2,
        );
    }
    if want("q3") {
        rst_experiment(&cfg, "TR — Q3 (tree query, RST); seconds", Q3);
    }
    if want("q4") {
        // Linear queries run on a reduced grid: the nested-loop
        // strategies are O(SF1·SF2²) here and hit the abort at a
        // hundredth of the paper's scale. (The unnested plan's
        // O(SF1·SF2) negative stream is visited but, with its stage
        // chain fused into the bypass join, no longer stored.)
        rst_experiment_with_grid(
            &cfg,
            "TR — Q4 (linear query, RST; reduced grid); seconds",
            Q4,
            if cfg.quick {
                vec![(0.01, 0.01), (0.02, 0.02)]
            } else {
                vec![
                    (0.02, 0.02),
                    (0.02, 0.05),
                    (0.02, 0.1),
                    (0.05, 0.05),
                    (0.05, 0.1),
                    (0.1, 0.1),
                ]
            },
        );
    }
    if want("exists") {
        rst_experiment(
            &cfg,
            "TR — EXISTS in a disjunction (RST); seconds",
            Q_EXISTS,
        );
    }
    if want("combined") {
        rst_experiment(
            &cfg,
            "Outlook 1 — disjunctive linking AND correlation (RST); seconds",
            Q_COMBINED,
        );
    }
    if want("rank") {
        rank_experiment(&cfg);
    }
}

/// The RST grid of Fig. 7: SF1 (outer) × SF2 (inner). Paper grid
/// {1, 5, 10}²; ours is scaled by 1/10 → {0.1, 0.5, 1.0}².
fn grid(cfg: &Config) -> Vec<(f64, f64)> {
    let sfs: &[f64] = if cfg.quick {
        &[0.02, 0.1]
    } else {
        &[0.1, 0.5, 1.0]
    };
    let mut cells = Vec::new();
    for &sf1 in sfs {
        for &sf2 in sfs {
            cells.push((sf1, sf2));
        }
    }
    cells
}

fn rst_experiment(cfg: &Config, title: &str, sql: &str) {
    let cells = grid(cfg);
    rst_experiment_with_grid(cfg, title, sql, cells);
}

/// Worker count for the bench grid: serial unless `BYPASS_THREADS` is
/// set (timings are only comparable when rows don't contend for cores).
fn bench_threads() -> usize {
    par::thread_count_or(1)
}

fn rst_experiment_with_grid(cfg: &Config, title: &str, sql: &str, cells: Vec<(f64, f64)>) {
    let threads = bench_threads();
    let header: Vec<String> = cells.iter().map(|(a, b)| format!("{a}/{b}")).collect();
    let mut table = Table::new(format!("{title} (columns: SF1/SF2)"), header);
    // Database construction is embarrassingly parallel (one catalog per
    // cell, independent generators).
    let dbs = par::scoped_map(&cells, threads, |_, &(sf1, sf2)| rst_database(sf1, sf2, 42));
    // Each strategy row is an independent unit; the cells *within* a
    // row stay sequential because dominance skipping (below) threads
    // state from smaller to larger scale factors.
    let strategies = Strategy::all();
    let rows = par::scoped_map(&strategies, threads, |_, &strategy| {
        let mut row = Vec::with_capacity(dbs.len());
        // Dominance skipping: once a cell timed out, every cell with
        // component-wise larger scale factors is reported n/a without
        // burning another full timeout (cost grows monotonically in
        // both scale factors).
        let mut timed_out: Vec<(f64, f64)> = Vec::new();
        for (db, &(sf1, sf2)) in dbs.iter().zip(&cells) {
            let dominated = timed_out.iter().any(|&(a, b)| sf1 >= a && sf2 >= b);
            if dominated {
                row.push("n/a".to_string());
                continue;
            }
            let m = measure(db, sql, strategy, cfg.timeout);
            if m.secs.is_none() {
                timed_out.push((sf1, sf2));
            }
            row.push(m.render());
        }
        row
    });
    for (strategy, row) in strategies.iter().zip(rows) {
        table.row(strategy.to_string(), row);
    }
    print(cfg, &table);
}

fn q2d_experiment(cfg: &Config) {
    let sfs: &[f64] = if cfg.quick {
        &[0.001, 0.002]
    } else {
        &[0.001, 0.005, 0.01, 0.05, 0.1]
    };
    let header: Vec<String> = sfs.iter().map(|s| format!("SF {s}")).collect();
    let mut table = Table::new(
        "Fig. 7(b) — TPC-H Query 2d (disjunctive linking); seconds".to_string(),
        header,
    );
    let threads = bench_threads();
    let dbs = par::scoped_map(sfs, threads, |_, &sf| tpch_database(sf, 42));
    let strategies = Strategy::all();
    let rows = par::scoped_map(&strategies, threads, |_, &strategy| {
        dbs.iter()
            .map(|db| measure(db, QUERY_2D, strategy, cfg.timeout).render())
            .collect::<Vec<_>>()
    });
    for (strategy, row) in strategies.iter().zip(rows) {
        table.row(strategy.to_string(), row);
    }
    print(cfg, &table);
}

/// Eqv. 2 vs Eqv. 3 (Section 3.1, Remark): sweep the selectivity of the
/// plain disjunct. When almost every tuple passes `a4 > 300`, bypassing
/// it first (Eqv. 2) skips almost all of the unnesting machinery; when
/// almost none passes `a4 > 2700`, the orders converge and evaluating
/// the (hash-based) linking side first is harmless.
fn rank_experiment(cfg: &Config) {
    let thresholds = [300i64, 1500, 2700];
    let (sf1, sf2) = if cfg.quick { (0.1, 0.1) } else { (1.0, 1.0) };
    let db = rst_database(sf1, sf2, 42);
    let header: Vec<String> = thresholds.iter().map(|t| format!("a4>{t}")).collect();
    let mut table = Table::new(
        format!("Rank ablation — Eqv. 2 (plain first) vs Eqv. 3 (subquery first), Q1, SF {sf1}/{sf2}; seconds"),
        header,
    );
    for strategy in [Strategy::Unnested, Strategy::UnnestedSubqueryFirst] {
        let mut row = Vec::new();
        for t in thresholds {
            let sql = q1_with_threshold(t);
            row.push(measure(&db, &sql, strategy, cfg.timeout).render());
        }
        table.row(strategy.to_string(), row);
    }
    print(cfg, &table);
}

fn print(cfg: &Config, table: &Table) {
    if cfg.csv {
        println!("{}", table.to_csv());
    } else {
        println!("{}", table.render());
    }
}
