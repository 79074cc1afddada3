//! What a run produced, how it is printed and stored, and the A/B
//! comparison over stored result sets.

use std::collections::BTreeMap;
use std::path::Path;

use crate::contract::{Better, Contract, Spec};
use crate::json::Json;
use crate::stats;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// First few failures, for the report.
    pub errors: Vec<String>,
    /// The metrics `BENCHMARK.json` lists: end-to-end, or per-layer when
    /// traced.
    pub metrics: Vec<Metric>,
    /// Everything else the run computed (class medians, p99, sample
    /// counts); not gated.
    pub extras: Vec<Metric>,
}

/// Split what a run computed into the metrics `listed` in
/// `BENCHMARK.json`, in its order, and the extras.
pub fn split(
    mut computed: Vec<Metric>,
    listed: &[Spec],
) -> Result<(Vec<Metric>, Vec<Metric>), String> {
    let mut metrics = Vec::with_capacity(listed.len());
    for spec in listed {
        let at = computed
            .iter()
            .position(|m| m.name == spec.name)
            .ok_or_else(|| {
                format!(
                    "BENCHMARK.json lists {}, which this run does not compute",
                    spec.name
                )
            })?;
        let m = computed.remove(at);
        if m.unit != spec.unit {
            return Err(format!(
                "BENCHMARK.json gives {} in {}, the harness measures it in {}",
                spec.name, spec.unit, m.unit
            ));
        }
        metrics.push(m);
    }
    Ok((metrics, computed))
}

/// Failure counting shared by every pass.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Fold in what another thread counted.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }

    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.attempted += 1;
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why());
        }
    }
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// Every metric by name with its unit, one per line.
    pub fn print(&self) {
        let kind = if self.traced { "traced" } else { "timed" };
        println!(
            "== {} ({kind}, seed {}, {} s): {} attempted, {} failed",
            self.workload, self.seed, self.seconds, self.attempted, self.failed
        );
        for m in &self.metrics {
            println!(
                "{:<16} {:<30} {:>16.4} {}",
                self.workload, m.name, m.value, m.unit
            );
        }
        for m in &self.extras {
            println!(
                "{:<16} {:<30} {:>16.4} {}",
                self.workload, m.name, m.value, m.unit
            );
        }
        for e in &self.errors {
            println!("{:<16} ERROR {e}", self.workload);
        }
    }

    /// The last line of standard output: the driver's result object.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics_json(&self.metrics)),
        ])
        .render()
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics_json(&self.metrics)),
            ("extras", metrics_json(&self.extras)),
        ])
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect(),
    )
}

/// Where and on what the numbers were taken. Commit and compiler come
/// from `run.sh` through the environment (a driver checkout is not a
/// git repository, so both may read `unknown`).
pub fn meta() -> Json {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("commit", Json::str(env("BENCH_COMMIT"))),
        ("rustc", Json::str(env("BENCH_RUSTC"))),
        ("nproc", Json::Num(nproc as f64)),
    ])
}

/// A result file: `{"meta": …, "runs": [ … ]}`, one run per line.
pub fn render_file(runs: &[Json]) -> String {
    let mut out = format!("{{\"meta\": {},\n \"runs\": [\n", meta().render());
    for (i, r) in runs.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&r.render());
        out.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    out.push_str(" ]}\n");
    out
}

pub fn write_file(path: &Path, runs: &[Json]) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, render_file(runs)).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Values of every metric, by (workload, traced, metric), over the runs
/// of one result file.
type Table = BTreeMap<(String, bool, String), Vec<f64>>;

fn load(path: &str) -> Result<(Table, BTreeMap<String, u64>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut table = Table::new();
    let mut failed = BTreeMap::new();
    for run in doc.get("runs").map_or(&[][..], Json::as_arr) {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: run without a workload"))?;
        let traced = run.get("traced") == Some(&Json::Bool(true));
        *failed.entry(workload.to_string()).or_insert(0) +=
            run.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        for (name, m) in run.get("metrics").map_or(&[][..], Json::fields) {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{path}: {workload}/{name} has no value"))?;
            table
                .entry((workload.to_string(), traced, name.clone()))
                .or_default()
                .push(value);
        }
    }
    if table.is_empty() {
        return Err(format!("{path}: no runs"));
    }
    Ok((table, failed))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread of either side is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge B against A under `bound`. The change is signed so that a
/// positive share is a worsening, whichever direction is better.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Verdict, f64) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let wide = |v: &[f64]| v.len() >= 4 && stats::spread(v) > bound;
    let verdict = if wide(a) || wide(b) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (verdict, worse_by)
}

/// Compare two result files; one row per (workload, metric). Returns how
/// many rows were judged, worse, and not `same` (the A/A check wants 0).
pub fn compare(
    contract: &Contract,
    path_a: &str,
    path_b: &str,
) -> Result<(usize, usize, usize), String> {
    let (a, failed_a) = load(path_a)?;
    let (b, failed_b) = load(path_b)?;
    println!(
        "{:<16} {:<28} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    let (mut rows, mut worse, mut differ) = (0, 0, 0);
    let mut row = |w: &str, name: &str, ma: f64, mb: f64, by: f64, bound: f64, v: Verdict| {
        println!(
            "{w:<16} {name:<28} {ma:>14.4} {mb:>14.4} {:>8.2}% {:>6.1}%  {}",
            by * 100.0,
            bound * 100.0,
            v.as_str()
        );
        rows += 1;
        worse += usize::from(v == Verdict::Worse);
        differ += usize::from(v != Verdict::Same);
    };
    for ((workload, traced, name), va) in &a {
        let Some(vb) = b.get(&(workload.clone(), *traced, name.clone())) else {
            continue;
        };
        let (ma, mb) = (stats::median(va), stats::median(vb));
        if let Some((m, bound)) = contract
            .end_to_end(name)
            .filter(|_| !traced)
            .and_then(|m| Some((m, m.bound?)))
        {
            let (v, by) = judge(va, vb, m.better, bound);
            row(workload, name, ma, mb, by, bound, v);
        } else if *traced && contract.is_count(name) {
            // A count compares two runs of one program: it repeats
            // exactly or it changed.
            let same = va.iter().chain(vb).all(|v| *v == va[0]);
            let v = if same { Verdict::Same } else { Verdict::Worse };
            row(workload, name, ma, mb, 0.0, 0.0, v);
        }
    }
    for (workload, fa) in &failed_a {
        let fb = failed_b.get(workload).copied().unwrap_or(0);
        let v = if fb > *fa {
            Verdict::Worse
        } else {
            Verdict::Same
        };
        row(workload, "failed", *fa as f64, fb as f64, 0.0, 0.0, v);
    }
    if rows == 0 {
        return Err("the two files share no workload".to_string());
    }
    Ok((rows, worse, differ))
}

/// Run-to-run spread of everything the repeated timed runs of a result
/// set measured, gated or not: quartiles as Python's
/// `statistics.quantiles(v, n=4)`, their distance as a share of the
/// median, and the metric's bound if it has one. Empty below four runs
/// of a workload, which carry no spread.
pub fn spread_table(contract: &Contract, runs: &[Json]) -> String {
    let mut table: Vec<((&str, &str), Vec<f64>)> = Vec::new();
    for run in runs
        .iter()
        .filter(|r| r.get("traced") == Some(&Json::Bool(false)))
    {
        let workload = run.get("workload").and_then(Json::as_str).unwrap_or("");
        let fields = |key| run.get(key).map_or(&[][..], Json::fields);
        for (name, m) in fields("metrics").iter().chain(fields("extras")) {
            let Some(value) = m.get("value").and_then(Json::as_f64) else {
                continue;
            };
            let key = (workload, name.as_str());
            match table.iter_mut().find(|(k, _)| *k == key) {
                Some((_, values)) => values.push(value),
                None => table.push((key, vec![value])),
            }
        }
    }
    table.retain(|(_, values)| values.len() >= 4);
    if table.is_empty() {
        return String::new();
    }
    let mut out = format!(
        "{:<16} {:<26} {:>4} {:>12} {:>12} {:>12} {:>8} {:>6}\n",
        "workload", "metric", "runs", "median", "q1", "q3", "spread", "bound"
    );
    for ((workload, name), values) in &table {
        let (q1, q3) = stats::quartiles(values);
        let bound = contract
            .end_to_end(name)
            .and_then(|m| m.bound)
            .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0));
        out.push_str(&format!(
            "{workload:<16} {name:<26} {:>4} {:>12.4} {q1:>12.4} {q3:>12.4} {:>7.2}% {bound:>6}\n",
            values.len(),
            stats::median(values),
            stats::spread(values) * 100.0,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_signs_the_change_by_direction() {
        let (v, by) = judge(&[100.0], &[110.0], Better::Lower, 0.07);
        assert_eq!(v, Verdict::Worse);
        assert!((by - 0.10).abs() < 1e-12);
        assert_eq!(
            judge(&[100.0], &[110.0], Better::Higher, 0.07).0,
            Verdict::Better
        );
        assert_eq!(
            judge(&[100.0], &[90.0], Better::Higher, 0.07).0,
            Verdict::Worse
        );
        assert_eq!(
            judge(&[100.0], &[104.0], Better::Lower, 0.07).0,
            Verdict::Same
        );
    }

    #[test]
    fn judge_is_unresolved_when_the_spread_exceeds_the_bound() {
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        let steady = [100.0, 100.5, 99.5, 100.2, 99.8];
        assert_eq!(
            judge(&noisy, &steady, Better::Lower, 0.07).0,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&steady, &steady, Better::Lower, 0.07).0,
            Verdict::Same
        );
        // Fewer than four runs carry no spread: judged on the medians.
        assert_eq!(
            judge(&[80.0, 120.0], &[100.0], Better::Lower, 0.07).0,
            Verdict::Same
        );
    }

    fn contract() -> Contract {
        Contract::parse(
            r#"{"run_seconds": 1, "workloads": [{"name": "w"}],
                "end_to_end": [{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
                "per_layer": [{"name": "exec.checkpoints", "unit": "count", "better": "lower"}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn split_follows_the_contract_and_refuses_what_is_missing() {
        let c = contract();
        let computed = vec![
            metric("extra", 1.0, "s"),
            metric("latency_p50_ms", 2.0, "ms"),
        ];
        let (metrics, extras) = split(computed.clone(), &c.end_to_end).unwrap();
        assert_eq!(metrics, vec![metric("latency_p50_ms", 2.0, "ms")]);
        assert_eq!(extras, vec![metric("extra", 1.0, "s")]);
        assert!(split(computed, &c.per_layer).is_err());
        assert!(split(vec![metric("latency_p50_ms", 2.0, "us")], &c.end_to_end).is_err());
    }

    fn outcome(value: f64, failed: u64) -> Outcome {
        Outcome {
            workload: "w".into(),
            seed: 1,
            seconds: 1.0,
            traced: false,
            attempted: 10,
            failed,
            errors: vec![],
            metrics: vec![metric("latency_p50_ms", value, "ms")],
            extras: vec![metric("class.q1.p50_ms", value, "ms")],
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = outcome(1.5, 0).result_line();
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let m = doc.get("metrics").unwrap().get("latency_p50_ms").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(1.5));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("ms"));
        assert!(!line.contains('\n'));
        assert_eq!(
            Json::parse(&outcome(1.5, 1).result_line())
                .unwrap()
                .get("correct"),
            Some(&Json::Bool(false))
        );
    }

    #[test]
    fn compare_reads_back_what_write_file_wrote() {
        // benchmark/out is git-ignored and is where result files live.
        let dir =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/test-{}", std::process::id()));
        let (a, b) = (dir.join("a.json"), dir.join("b.json"));
        write_file(&a, &[outcome(100.0, 0).to_json()]).unwrap();
        write_file(&b, &[outcome(150.0, 1).to_json()]).unwrap();
        let path = |p: &std::path::PathBuf| p.to_str().unwrap().to_string();
        // latency worse, and one more failure.
        let c = contract();
        assert_eq!(compare(&c, &path(&a), &path(&b)), Ok((2, 2, 2)));
        assert_eq!(compare(&c, &path(&a), &path(&a)), Ok((2, 0, 0)));
        assert!(compare(&c, &path(&a), "/nonexistent.json").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
