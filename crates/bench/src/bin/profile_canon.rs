//! `profile_canon` — EXPLAIN ANALYZE-style operator profile for the
//! paper's evaluation queries.
//!
//! Runs one (query, strategy) pair on the RST instance and prints the
//! per-operator profile table (calls / rows / inclusive / exclusive
//! time, plus the bypass dual-stream counters), the tool that located
//! the canonical plan's hot loop while tuning the zero-clone executor
//! core.
//!
//! Usage: `profile_canon [QUERY] [STRATEGY] [SF1 [SF2]] [--json] [--trace FILE]`
//!   QUERY    q1 | q2 | q3 | q4 | qexists | qcombined   (default q1)
//!   STRATEGY canonical | unnested | unnested-sqfirst | S1 | S2 | S3 |
//!            cost-based                                 (default canonical)
//!   SF1 SF2  selectivity scale factors, percent         (default 1 1)
//!   --json         emit the profile as machine-readable JSON instead
//!                  of the text table
//!   --trace FILE   enable in-tree tracing for the run and write a
//!                  Chrome-trace JSON file (open in Perfetto / about:tracing)

use std::collections::HashMap;
use std::sync::Arc;

use bypass_bench::{report::profile_table, rst_database};
use bypass_core::{QueryProfile, Strategy};
use bypass_exec::{NodeMetrics, PhysNode};
use bypass_trace::json;

fn usage() -> ! {
    eprintln!("usage: profile_canon [QUERY] [STRATEGY] [SF1 [SF2]] [--json] [--trace FILE]");
    eprintln!("  QUERY:    q1 q2 q3 q4 qexists qcombined (default q1)");
    eprintln!(
        "  STRATEGY: one of {:?} (default canonical)",
        strategy_names()
    );
    eprintln!("  SF1 SF2:  scale factors in percent (default 1 1)");
    eprintln!("  --json:   machine-readable profile on stdout");
    eprintln!("  --trace:  write a Chrome-trace JSON file for the run");
    std::process::exit(2)
}

fn strategy_names() -> Vec<String> {
    Strategy::all().iter().map(|s| s.to_string()).collect()
}

fn parse_strategy(name: &str) -> Option<Strategy> {
    Strategy::all().into_iter().find(|s| s.to_string() == name)
}

fn parse_query(name: &str) -> Option<&'static str> {
    Some(match name {
        "q1" => bypass_bench::Q1,
        "q2" => bypass_bench::Q2,
        "q3" => bypass_bench::Q3,
        "q4" => bypass_bench::Q4,
        "qexists" => bypass_bench::Q_EXISTS,
        "qcombined" => bypass_bench::Q_COMBINED,
        _ => return None,
    })
}

fn main() {
    let mut positional: Vec<String> = Vec::new();
    let mut as_json = false;
    let mut trace_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => as_json = true,
            "--trace" => trace_path = Some(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            _ => positional.push(a),
        }
    }

    let sql = parse_query(positional.first().map(String::as_str).unwrap_or("q1"))
        .unwrap_or_else(|| usage());
    let strategy = parse_strategy(positional.get(1).map(String::as_str).unwrap_or("canonical"))
        .unwrap_or_else(|| usage());
    let sf1: f64 = positional
        .get(2)
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(1.0);
    let sf2: f64 = positional
        .get(3)
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(sf1);

    if trace_path.is_some() {
        bypass_trace::clear();
        bypass_trace::set_enabled(true);
    }
    let db = rst_database(sf1, sf2, 42);
    let profile = db
        .profile(sql, strategy)
        .unwrap_or_else(|e| panic!("profiling failed: {e}"));
    if let Some(path) = &trace_path {
        bypass_trace::set_enabled(false);
        let chrome = bypass_trace::export_chrome_and_clear();
        if let Err(e) = bypass_trace::json::validate(&chrome) {
            eprintln!("chrome trace export is not valid JSON: {e}");
            std::process::exit(1);
        }
        if let Err(e) = std::fs::write(path, &chrome) {
            eprintln!("cannot write trace file {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("trace written to {path} ({} bytes)", chrome.len());
    }

    if as_json {
        println!("{}", profile_json(sql, sf1, sf2, &profile));
    } else {
        println!("query: {sql}");
        println!(
            "strategy: {}   sf: {sf1}/{sf2}   result rows: {}",
            profile.strategy, profile.rows
        );
        println!("phases: {}", profile.phases.render());
        println!();
        println!("{}", profile_table(&profile.physical, &profile.metrics));
    }
}

/// Machine-readable profile: phases, memo counters, bypass totals and a
/// flat per-operator list. Built with the in-tree JSON helpers (the
/// same ones the Chrome exporter uses), so the output is guaranteed to
/// pass `bypass_trace::json::validate`.
fn profile_json(sql: &str, sf1: f64, sf2: f64, p: &QueryProfile) -> String {
    let ms = |nanos: u128| nanos as f64 / 1e6;
    let (nodes, pos, neg) = p.bypass_totals();
    let mut out = String::with_capacity(1024);
    out.push('{');
    out.push_str(&format!("\"query\":{},", json::quote(sql)));
    out.push_str(&format!(
        "\"strategy\":{},",
        json::quote(&p.strategy.to_string())
    ));
    out.push_str(&format!("\"sf1\":{},", json::number(sf1)));
    out.push_str(&format!("\"sf2\":{},", json::number(sf2)));
    out.push_str(&format!(
        "\"fingerprint\":{},",
        json::quote(&bypass_core::format_fingerprint(p.fingerprint))
    ));
    out.push_str(&format!("\"rows\":{},", p.rows));
    out.push_str(&format!(
        "\"phases_ms\":{{\"parse\":{},\"translate\":{},\"unnest\":{},\"optimize\":{},\"execute\":{},\"total\":{}}},",
        json::number(ms(p.phases.parse)),
        json::number(ms(p.phases.translate)),
        json::number(ms(p.phases.unnest)),
        json::number(ms(p.phases.optimize)),
        json::number(ms(p.phases.execute)),
        json::number(ms(p.phases.total())),
    ));
    out.push_str(&format!(
        "\"memo\":{{\"uncorrelated_hits\":{},\"uncorrelated_misses\":{},\"correlated_hits\":{},\"correlated_misses\":{}}},",
        p.counters.memo_uncorr_hits,
        p.counters.memo_uncorr_misses,
        p.counters.memo_corr_hits,
        p.counters.memo_corr_misses,
    ));
    out.push_str(&format!(
        "\"governor\":{{\"peak_memory_bytes\":{},\"checkpoints\":{}}},",
        p.counters.peak_memory_bytes, p.counters.checkpoints,
    ));
    out.push_str(&format!(
        "\"disjuncts\":{{\"evals\":{},\"hits\":{}}},",
        p.counters.disjunct_evals, p.counters.disjunct_hits,
    ));
    out.push_str(&format!(
        "\"bypass\":{{\"nodes\":{nodes},\"pos_rows\":{pos},\"neg_rows\":{neg}}},"
    ));
    out.push_str("\"operators\":[");
    let mut first = true;
    let mut seen = std::collections::HashSet::new();
    push_operators(&p.physical, &p.metrics, &mut seen, &mut first, &mut out);
    out.push_str("]}");
    // Unconditional (not debug_assert!): `verify.sh` uses this binary as
    // the offline JSON smoke check, in release mode.
    if let Err(e) = json::validate(&out) {
        panic!("profile JSON invalid: {e}");
    }
    out
}

/// Append one JSON object per distinct operator (DAG nodes once).
fn push_operators(
    n: &Arc<PhysNode>,
    metrics: &HashMap<usize, NodeMetrics>,
    seen: &mut std::collections::HashSet<usize>,
    first: &mut bool,
    out: &mut String,
) {
    let ptr = Arc::as_ptr(n) as usize;
    if !seen.insert(ptr) {
        return;
    }
    let m = metrics.get(&ptr).cloned().unwrap_or_default();
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str(&format!(
        "{{\"op\":{},\"calls\":{},\"rows\":{},\"total_ms\":{},\"self_ms\":{}",
        json::quote(n.name()),
        m.calls,
        m.rows,
        json::number(m.total_ms()),
        json::number(m.self_ms()),
    ));
    if m.is_bypass() {
        out.push_str(&format!(
            ",\"pos_rows\":{},\"neg_rows\":{}",
            m.pos_rows, m.neg_rows
        ));
    }
    if m.build_rows > 0 || m.reverify > 0 {
        out.push_str(&format!(
            ",\"build_rows\":{},\"reverify\":{}",
            m.build_rows, m.reverify
        ));
    }
    if m.input_rows > 0 {
        out.push_str(&format!(
            ",\"input_rows\":{},\"groups\":{}",
            m.input_rows, m.groups
        ));
    }
    if !m.disjuncts.is_empty() {
        out.push_str(",\"disjuncts\":[");
        for (i, d) in m.disjuncts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"evals\":{},\"hits\":{}}}", d.evals, d.hits));
        }
        out.push(']');
    }
    out.push('}');
    for sq in n.expr_subplans() {
        push_operators(sq, metrics, seen, first, out);
    }
    for c in n.children() {
        push_operators(c, metrics, seen, first, out);
    }
}
