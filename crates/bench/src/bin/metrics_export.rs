//! `metrics_export` — exercise the always-on metrics registry and dump
//! it in an export format.
//!
//! Runs the paper's evaluation queries on an RST instance under the
//! full strategy matrix (plus one profiled run per query), then prints
//! the hub snapshot as Prometheus text exposition (default) or JSON
//! (`--json`). The Prometheus output is validated with the in-tree
//! exposition-format validator before printing, so a zero exit status
//! certifies a well-formed scrape.
//!
//! Usage: `metrics_export [--json] [SF1 [SF2]]`
//!   --json   emit the snapshot as JSON instead of Prometheus text
//!   SF1 SF2  selectivity scale factors, percent (default 1 1)

use std::sync::Arc;

use bypass_bench::rst_database;
use bypass_core::{render_json, render_prometheus, validate_prometheus, MetricsHub, Strategy};

fn usage() -> ! {
    eprintln!("usage: metrics_export [--json] [SF1 [SF2]]");
    std::process::exit(2)
}

fn main() {
    let mut positional: Vec<String> = Vec::new();
    let mut as_json = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--json" => as_json = true,
            "--help" | "-h" => usage(),
            _ => positional.push(a),
        }
    }
    let sf1: f64 = positional
        .first()
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(1.0);
    let sf2: f64 = positional
        .get(1)
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(sf1);

    // An isolated hub: the export reflects exactly the runs below, not
    // whatever else the process may have executed.
    let db = rst_database(sf1, sf2, 42).with_metrics_hub(Arc::new(MetricsHub::new()));
    let queries = [
        ("q1", bypass_bench::Q1),
        ("q2", bypass_bench::Q2),
        ("q3", bypass_bench::Q3),
        ("q4", bypass_bench::Q4),
        ("qexists", bypass_bench::Q_EXISTS),
        ("qcombined", bypass_bench::Q_COMBINED),
    ];
    for (name, sql) in queries {
        for strategy in Strategy::all() {
            if let Err(e) = db.sql_with(sql, strategy, None) {
                eprintln!("{name}/{strategy}: {e}");
            }
        }
        // One instrumented run records operator cardinalities into the
        // feedback store (and the per-phase latency histograms).
        if let Err(e) = db.profile(sql, Strategy::Unnested) {
            eprintln!("{name}/profile: {e}");
        }
    }

    // Through the database, which adds what its catalog's columns hold.
    let snapshot = db.metrics();
    if as_json {
        let json = render_json(&snapshot);
        bypass_trace::json::validate(&json).unwrap_or_else(|e| panic!("JSON invalid: {e}"));
        println!("{json}");
    } else {
        let text = render_prometheus(&snapshot);
        validate_prometheus(&text).unwrap_or_else(|e| panic!("exposition invalid: {e}"));
        print!("{text}");
    }
}
