//! `BENCHMARK.json` is the one table of metric names, units, directions
//! and bounds. The harness reads it at start-up: a run computes every
//! number it can, and the file decides which of them are the gated
//! end-to-end metrics, which the per-layer metrics, and how long a run
//! measures for.

use crate::json::Json;

/// Relative to the repository root, where `run.sh` starts the harness.
const PATH: &str = "BENCHMARK.json";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; `None` for a per-layer metric.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Spec>,
    pub per_layer: Vec<Spec>,
}

impl Contract {
    pub fn load() -> Result<Contract, String> {
        let text = std::fs::read_to_string(PATH).map_err(|e| {
            format!("read {PATH}: {e} (run benchmark/run.sh from a checkout of the repository)")
        })?;
        Contract::parse(&text).map_err(|e| format!("{PATH}: {e}"))
    }

    pub fn parse(text: &str) -> Result<Contract, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| -> Result<&[Json], String> {
            match doc.get(key) {
                Some(Json::Arr(items)) => Ok(items),
                _ => Err(format!("no list `{key}`")),
            }
        };
        let text_of = |item: &Json, key: &str| -> Result<String, String> {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("an entry has no `{key}`"))
        };
        let specs = |key: &str, bounded: bool| -> Result<Vec<Spec>, String> {
            list(key)?
                .iter()
                .map(|item| {
                    let name = text_of(item, "name")?;
                    let better = match text_of(item, "better")?.as_str() {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        other => return Err(format!("{name}: better is `{other}`")),
                    };
                    let bound = item.get("bound").and_then(Json::as_f64);
                    if bounded != bound.is_some() {
                        return Err(format!("{name}: `bound` belongs to end_to_end alone"));
                    }
                    Ok(Spec {
                        unit: text_of(item, "unit")?,
                        name,
                        better,
                        bound,
                    })
                })
                .collect()
        };
        Ok(Contract {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .filter(|s| *s >= 1.0)
                .ok_or("no run_seconds")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: specs("end_to_end", true)?,
            per_layer: specs("per_layer", false)?,
        })
    }

    pub fn end_to_end(&self, name: &str) -> Option<&Spec> {
        self.end_to_end.iter().find(|m| m.name == name)
    }

    /// Is `name` a per-layer metric that must repeat exactly?
    pub fn is_count(&self, name: &str) -> bool {
        self.per_layer
            .iter()
            .any(|m| m.name == name && m.unit == "count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn on_disk() -> (String, Contract) {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let contract = Contract::parse(&text).unwrap();
        (text, contract)
    }

    fn valid(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    /// The limits the driver refuses a file over, before a single run.
    #[test]
    fn benchmark_json_keeps_the_drivers_limits() {
        let (text, c) = on_disk();
        assert!(text.len() < 64 * 1024);
        let doc = Json::parse(&text).unwrap();
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!((1.0..=60.0).contains(&c.run_seconds) && c.run_seconds.fract() == 0.0);
        for w in doc.get("workloads").unwrap().as_arr() {
            let why = w.get("why").unwrap().as_str().unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        let all: Vec<&Spec> = c.end_to_end.iter().chain(&c.per_layer).collect();
        assert!((1..=16).contains(&c.end_to_end.len()) && (1..=128).contains(&c.per_layer.len()));
        for (i, m) in all.iter().enumerate() {
            assert!(valid(&m.name, 64, "_.-"), "{}", m.name);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(valid(&m.unit, 16, "_/%.-"), "{}", m.unit);
            assert!(
                all[..i].iter().all(|o| o.name != m.name),
                "{} is used twice",
                m.name
            );
        }
        let bound = |m: &Spec| m.bound.unwrap();
        assert!(c
            .end_to_end
            .iter()
            .all(|m| bound(m) > 0.0 && bound(m) <= 0.25));
        let setup = c.end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        assert!(c.end_to_end.iter().all(|m| bound(m) <= bound(setup)));
    }

    #[test]
    fn benchmark_json_names_the_workloads_the_harness_has() {
        let names: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
        assert_eq!(on_disk().1.workloads, names);
    }

    #[test]
    fn a_malformed_file_is_refused() {
        let good = on_disk().0;
        assert!(Contract::parse("{}").is_err());
        assert!(Contract::parse(&good.replace("\"lower\"", "\"sideways\"")).is_err());
        assert!(Contract::parse(&good.replace("\"bound\"", "\"bond\"")).is_err());
    }
}
