//! The repo's performance record. See `benchmark/README.md`.
//!
//! `--workload NAME` runs one workload in this process and prints every
//! metric by name with its unit, then the result object as the last
//! line. Without it, every workload runs in a process of its own, one
//! after another.

mod contract;
mod engine;
mod json;
mod oracle;
mod report;
mod spans;
mod stats;
mod timed;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use bypass_core::{RunLimits, Strategy};

use crate::contract::Contract;
use crate::json::Json;
use crate::oracle::Expected;
use crate::report::Outcome;
use crate::workloads::Workload;

/// Paths are relative to the repository root, where `run.sh` starts us.
const EXPECTED: &str = "benchmark/expected.tsv";
const OUT_DIR: &str = "benchmark/out";

const USAGE: &str = "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--quick] [--repeat N]
       benchmark/run.sh --compare A.json B.json | --self-check | --regen-expected";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    quick: bool,
    repeat: u64,
    compare: Option<(String, String)>,
    self_check: bool,
    regen: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        quick: false,
        repeat: 1,
        compare: None,
        self_check: false,
        regen: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?),
            "--seed" => {
                out.seed = value()?
                    .parse()
                    .map_err(|_| "--seed wants a whole number")?
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds wants a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                }
            }
            "--quick" => out.quick = true,
            "--repeat" => {
                out.repeat = value()?
                    .parse()
                    .map_err(|_| "--repeat wants a whole number")?;
                if !(1..=100).contains(&out.repeat) {
                    return Err("--repeat must be in 1..=100".into());
                }
            }
            "--compare" => out.compare = Some((value()?, value()?)),
            "--self-check" => out.self_check = true,
            "--regen-expected" => out.regen = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

impl Args {
    /// `--seconds`, else the contract's run length; `--quick` runs every
    /// workload for a twentieth of that.
    fn seconds(&self, contract: &Contract) -> f64 {
        match self.seconds {
            Some(s) => s,
            None if self.quick => contract.run_seconds / 20.0,
            None => contract.run_seconds,
        }
    }
}

fn load_expected() -> Result<Expected, String> {
    let text = std::fs::read_to_string(EXPECTED).map_err(|e| {
        format!("read {EXPECTED}: {e} (run benchmark/run.sh from a checkout of the repository)")
    })?;
    Expected::parse(&text)
}

fn out_file(workload: &str, traced: bool) -> PathBuf {
    let suffix = if traced { ".traced" } else { "" };
    Path::new(OUT_DIR).join(format!("{workload}{suffix}.json"))
}

/// One workload, in this process.
fn run_one(
    w: &Workload,
    args: &Args,
    contract: &Contract,
    process_start: Instant,
) -> Result<Outcome, String> {
    // The engine reads these on every run; the workload decides them, not
    // whatever the caller's shell exported.
    std::env::remove_var("BYPASS_BATCH");
    match w.engine_threads {
        Some(n) => std::env::set_var("BYPASS_THREADS", n.to_string()),
        None => std::env::remove_var("BYPASS_THREADS"),
    }
    let expected = load_expected()?;
    let (seconds, full) = (args.seconds(contract), contract.run_seconds);
    let (tally, computed, listed) = if args.traced {
        let trace = Path::new(OUT_DIR).join(format!("trace-{}.json", w.name));
        let (tally, computed) = traced::run(w, args.seed, seconds, full, &expected, &trace)?;
        (tally, computed, &contract.per_layer)
    } else {
        let (tally, computed) = timed::run(w, args.seed, seconds, full, &expected, process_start)?;
        (tally, computed, &contract.end_to_end)
    };
    let (metrics, extras) = report::split(computed, listed)?;
    let outcome = Outcome {
        workload: w.name.to_string(),
        seed: args.seed,
        seconds,
        traced: args.traced,
        attempted: tally.attempted,
        failed: tally.failed,
        errors: tally.errors,
        metrics,
        extras,
    };
    report::write_file(&out_file(w.name, args.traced), &[outcome.to_json()])?;
    Ok(outcome)
}

/// Every workload `repeat` times, each run in a process of its own, one
/// after another. Returns the runs as the children stored them.
fn run_all(args: &Args, contract: &Contract, traced: bool) -> Result<(Vec<Json>, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut runs = Vec::new();
    let mut all_ok = true;
    for w in workloads::all() {
        for rep in 0..args.repeat {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name])
                .args(["--seed", &(args.seed + rep).to_string()])
                .args(["--seconds", &args.seconds(contract).to_string()])
                .args(["--trace", if traced { "1" } else { "0" }]);
            let status = cmd.status().map_err(|e| format!("start {}: {e}", w.name))?;
            if !status.success() {
                all_ok = false;
                eprintln!("{}: run failed ({status})", w.name);
                continue;
            }
            let path = out_file(w.name, traced);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            let doc = Json::parse(&text)?;
            runs.extend_from_slice(doc.get("runs").map_or(&[][..], Json::as_arr));
        }
    }
    Ok((runs, all_ok))
}

/// The whole benchmark twice on the same build; the two sets must agree
/// within the bounds, and every count must repeat exactly.
fn self_check(args: &Args, contract: &Contract) -> Result<bool, String> {
    let mut files = Vec::new();
    for side in ["a", "b"] {
        let (mut runs, ok) = run_all(args, contract, false)?;
        let (traced, traced_ok) = run_all(args, contract, true)?;
        runs.extend(traced);
        if !(ok && traced_ok) {
            return Ok(false);
        }
        let path = Path::new(OUT_DIR).join(format!("self-check-{side}.json"));
        report::write_file(&path, &runs)?;
        files.push(path.to_string_lossy().into_owned());
    }
    let (rows, _, differ) = report::compare(contract, &files[0], &files[1])?;
    println!("self-check: {rows} rows compared, {differ} disagree");
    Ok(differ == 0)
}

/// Rewrite `expected.tsv` from `Strategy::Canonical`, refusing any
/// statement on which the benchmarked strategy disagrees.
fn regen_expected() -> Result<(), String> {
    std::env::remove_var("BYPASS_BATCH");
    std::env::remove_var("BYPASS_THREADS");
    let mut expected = Expected::default();
    for w in workloads::all() {
        let id = w.data.id();
        eprintln!("{}: generating {id}", w.name);
        let env = engine::build(&w.data)?;
        expected.set_dataset(&id, env.dataset);
        for stmt in w.pool() {
            let run = |strategy: Strategy| {
                env.db
                    .run_governed(&stmt.sql, strategy, &RunLimits::default())
                    .map(|(rel, _)| oracle::digest(&rel))
                    .map_err(|e| format!("{strategy} failed: {e} for {}", stmt.sql))
            };
            let truth = run(Strategy::Canonical)?;
            let got = run(w.strategy)?;
            if got != truth {
                return Err(format!(
                    "refusing to pin: {} disagrees with canonical ({got:?} vs {truth:?}) on {}",
                    w.strategy, stmt.sql
                ));
            }
            expected.set_statement(&id, &stmt.sql, truth);
        }
    }
    std::fs::write(EXPECTED, expected.render()).map_err(|e| format!("write {EXPECTED}: {e}"))
}

fn real_main(process_start: Instant) -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    if args.regen {
        return regen_expected().map(|()| true);
    }
    let contract = Contract::load()?;
    if let Some((a, b)) = &args.compare {
        let (rows, worse, _) = report::compare(&contract, a, b)?;
        println!("compare: {rows} rows, {worse} worse");
        return Ok(worse == 0);
    }
    if args.self_check {
        return self_check(&args, &contract);
    }
    if let Some(name) = &args.workload {
        let w = workloads::find(name).ok_or_else(|| {
            let names: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
            format!("unknown workload {name}; one of {}", names.join(", "))
        })?;
        let outcome = run_one(&w, &args, &contract, process_start)?;
        outcome.print();
        println!("{}", outcome.result_line());
        return Ok(outcome.correct());
    }
    let (runs, ok) = run_all(&args, &contract, args.traced)?;
    let path = Path::new(OUT_DIR).join("results.json");
    report::write_file(&path, &runs)?;
    println!("results: {}", path.display());
    let spreads = report::spread_table(&contract, &runs);
    if !spreads.is_empty() {
        print!("{spreads}");
        let path = Path::new(OUT_DIR).join("spreads.txt");
        std::fs::write(&path, spreads).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("spreads: {}", path.display());
    }
    let correct = runs
        .iter()
        .all(|r| r.get("correct") == Some(&Json::Bool(true)));
    Ok(ok && correct)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    match real_main(process_start) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_invocation() {
        let a = parse(&[
            "--workload",
            "rst_unnested",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("rst_unnested"));
        let c = Contract {
            run_seconds: 20.0,
            workloads: vec![],
            end_to_end: vec![],
            per_layer: vec![],
        };
        assert_eq!((a.seed, a.seconds(&c), a.traced), (7, 10.0, true));
        let a = parse(&[]).unwrap();
        assert_eq!((a.seed, a.seconds(&c), a.traced), (1, 20.0, false));
        assert_eq!(parse(&["--quick"]).unwrap().seconds(&c), 1.0);
        assert_eq!(
            parse(&["--quick", "--seconds", "2"]).unwrap().seconds(&c),
            2.0
        );
    }

    #[test]
    fn rejects_what_it_does_not_understand() {
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "-1"],
            &["--trace", "2"],
            &["--repeat", "0"],
            &["--compare", "a.json"],
            &["--traced"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
