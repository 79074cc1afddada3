//! The five workloads: data set, strategy, statement pool and mix.
//!
//! Data seeds are fixed, so a data set is a pure function of its scale.
//! `--seed` only draws the order in which a client sends the pool: every
//! *cycle* holds each pool statement exactly `weight` times, so any two
//! seeds (and any two run lengths) time the same multiset of statements
//! and a percentile means the same thing on both sides of a comparison.

use bypass_core::Strategy;
use bypass_datagen::tpch;
use bypass_types::Rng;

/// Seed of every generated data set.
pub const DATA_SEED: u64 = 42;

/// A timed run of the contract's run length collects at least this many
/// samples, so at least 11 lie beyond the 90th percentile.
pub const MIN_SAMPLES: usize = 110;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Data {
    /// RST scale factor (r, s and t alike; SF 1 = 10 000 rows each).
    pub rst: Option<f64>,
    /// TPC-H scale factor (all eight tables).
    pub tpch: Option<f64>,
}

impl Data {
    /// Key of the data set in `expected.tsv`.
    pub fn id(&self) -> String {
        let parts: Vec<String> = [("rst", self.rst), ("tpch", self.tpch)]
            .iter()
            .filter_map(|(name, sf)| sf.map(|sf| format!("{name}-{sf}")))
            .collect();
        parts.join("+")
    }
}

#[derive(Debug, Clone)]
pub struct Class {
    pub name: &'static str,
    /// SQL text; `{X}` is replaced by each of the workload's thresholds.
    pub template: &'static str,
    /// Times each statement of this class is sent per cycle.
    pub weight: u32,
    /// Measured cost rank: classes of one tier take about the same time.
    /// Only the boundaries between tiers are steps in the latency
    /// distribution that a percentile must stay clear of (a unit test
    /// checks the mix against them; nothing reads them at run time).
    #[cfg_attr(not(test), allow(dead_code))]
    pub tier: u8,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub data: Data,
    pub strategy: Strategy,
    /// Constants of the plain disjunct (`a4 > X` / `b4 > X`).
    pub thresholds: &'static [i64],
    pub classes: Vec<Class>,
    /// Closed-loop clients. 1 = the statement goes straight to
    /// `Database::run_governed`; more go through one `QueryService`.
    pub clients: usize,
    /// `BYPASS_THREADS` the harness sets for this workload; `None` scrubs
    /// it, which is the default a user gets.
    pub engine_threads: Option<usize>,
    /// Traced run: repetitions of the layer-by-layer pass …
    pub layer_reps: usize,
    /// … and of every other pass, at the contract's run length.
    pub aux_reps: usize,
}

/// One distinct statement of a pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Statement {
    pub class: usize,
    pub sql: String,
}

const Q1: &str = "SELECT DISTINCT * FROM r \
     WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) OR a4 > {X}";
const Q2: &str = "SELECT DISTINCT * FROM r \
     WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > {X})";
// The paper's Q3 and Q4 have no plain disjunct to vary; the pool adds
// `OR a4 > X` at the outer block, which keeps the tree / linear shape.
const Q3: &str = "SELECT DISTINCT * FROM r \
     WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) \
        OR a3 = (SELECT COUNT(DISTINCT *) FROM t WHERE a4 = c2) OR a4 > {X}";
const Q4: &str = "SELECT DISTINCT * FROM r \
     WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s \
                 WHERE a2 = b2 \
                    OR b3 = (SELECT COUNT(DISTINCT *) FROM t WHERE b4 = c2)) OR a4 > {X}";
const Q_EXISTS: &str = "SELECT DISTINCT * FROM r \
     WHERE EXISTS (SELECT * FROM s WHERE a2 = b2 AND b4 > 1500) OR a4 > {X}";
const Q_COMBINED: &str = "SELECT DISTINCT * FROM r \
     WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > 1500) OR a4 > {X}";

fn class(name: &'static str, template: &'static str, weight: u32, tier: u8) -> Class {
    Class {
        name,
        template,
        weight,
        tier,
    }
}

pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "rst_unnested",
            data: Data {
                rst: Some(1.0),
                tpch: None,
            },
            strategy: Strategy::Unnested,
            thresholds: &[600, 900, 1200, 1500, 1800, 2100, 2400, 2700],
            classes: vec![
                class("q1", Q1, 1, 0),
                class("q2", Q2, 1, 0),
                class("q3", Q3, 1, 0),
                class("qexists", Q_EXISTS, 1, 0),
                class("qcombined", Q_COMBINED, 1, 0),
            ],
            clients: 1,
            engine_threads: None,
            layer_reps: 5,
            aux_reps: 3,
        },
        Workload {
            name: "rst_canonical",
            data: Data {
                rst: Some(0.2),
                tpch: None,
            },
            strategy: Strategy::Canonical,
            thresholds: &[1200, 1500, 1800, 2100],
            classes: vec![
                class("q1", Q1, 3, 0),
                class("q2", Q2, 1, 2),
                class("q3", Q3, 1, 1),
            ],
            clients: 1,
            engine_threads: None,
            layer_reps: 2,
            aux_reps: 1,
        },
        Workload {
            name: "tpch_costbased",
            data: Data {
                rst: None,
                tpch: Some(0.05),
            },
            strategy: Strategy::CostBased,
            thresholds: &[],
            classes: vec![
                class("q2d", tpch::QUERY_2D, 2, 1),
                class("q4like", tpch::QUERY_4_LIKE, 1, 2),
                class("q17like", tpch::QUERY_17_LIKE, 1, 2),
                class("q22like", tpch::QUERY_22_LIKE, 1, 0),
            ],
            clients: 1,
            engine_threads: None,
            layer_reps: 5,
            aux_reps: 3,
        },
        Workload {
            name: "rst_linear",
            data: Data {
                rst: Some(0.05),
                tpch: None,
            },
            strategy: Strategy::Unnested,
            // Five, not four: the median must fall inside one threshold's
            // samples, not on the step between two.
            thresholds: &[900, 1200, 1500, 1800, 2100],
            classes: vec![class("q4", Q4, 1, 0)],
            clients: 1,
            engine_threads: None,
            layer_reps: 3,
            aux_reps: 2,
        },
        Workload {
            name: "service_mixed",
            data: Data {
                rst: Some(0.5),
                tpch: Some(0.02),
            },
            strategy: Strategy::Unnested,
            thresholds: &[1200, 1500, 1800, 2100, 2400, 2700],
            // Per cycle of 40: 60 % short RST statements, 20 % TPC-H Q2d /
            // Q22-like, 20 % Q4-like. Q4-like is the heaviest class; at
            // 10 % of the mix its lower edge would be the 90th percentile.
            classes: vec![
                class("q1", Q1, 1, 0),
                class("q2", Q2, 1, 0),
                class("qexists", Q_EXISTS, 1, 0),
                class("qcombined", Q_COMBINED, 1, 0),
                class("q22like", tpch::QUERY_22_LIKE, 4, 0),
                class("q2d", tpch::QUERY_2D, 4, 1),
                class("q4like", tpch::QUERY_4_LIKE, 8, 2),
            ],
            clients: 2,
            engine_threads: Some(1),
            layer_reps: 5,
            aux_reps: 3,
        },
    ]
}

pub fn find(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// Every distinct statement, classes in order, thresholds ascending.
    pub fn pool(&self) -> Vec<Statement> {
        let mut pool = Vec::new();
        for (class, c) in self.classes.iter().enumerate() {
            if c.template.contains("{X}") {
                for x in self.thresholds {
                    pool.push(Statement {
                        class,
                        sql: c.template.replace("{X}", &x.to_string()),
                    });
                }
            } else {
                pool.push(Statement {
                    class,
                    sql: c.template.to_string(),
                });
            }
        }
        pool
    }

    /// Pool indices of one cycle before shuffling: each statement
    /// `weight` times.
    pub fn cycle(&self) -> Vec<usize> {
        let mut cycle = Vec::new();
        for (i, stmt) in self.pool().iter().enumerate() {
            for _ in 0..self.classes[stmt.class].weight {
                cycle.push(i);
            }
        }
        cycle
    }

    /// The order in which `client` sends its cycles under `seed`.
    pub fn sequencer(&self, seed: u64, client: usize) -> Sequencer {
        Sequencer {
            rng: Rng::seed_from_u64(seed ^ ((client as u64 + 1) << 32)),
            cycle: self.cycle(),
        }
    }
}

/// Seeded statement order: a fresh permutation of the cycle each time.
pub struct Sequencer {
    rng: Rng,
    cycle: Vec<usize>,
}

impl Sequencer {
    pub fn next_cycle(&mut self) -> &[usize] {
        self.rng.shuffle(&mut self.cycle);
        &self.cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Share of a cycle's statements per tier, tiers ascending.
    fn tier_shares(w: &Workload) -> Vec<f64> {
        let cycle = w.cycle();
        let pool = w.pool();
        let tiers = w.classes.iter().map(|c| c.tier).max().unwrap_or(0) as usize + 1;
        let mut shares = vec![0.0; tiers];
        for i in &cycle {
            shares[w.classes[pool[*i].class].tier as usize] += 1.0 / cycle.len() as f64;
        }
        shares
    }

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn workload_and_class_names_are_well_formed_and_unique() {
        let all = all();
        assert_eq!(all.len(), 5);
        for (i, w) in all.iter().enumerate() {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(all[..i].iter().all(|o| o.name != w.name));
            for (j, c) in w.classes.iter().enumerate() {
                assert!(valid_name(&format!("class.{}.p50_ms", c.name)));
                assert!(w.classes[..j].iter().all(|o| o.name != c.name));
            }
            assert!(find(w.name).is_some());
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn pools_have_the_pinned_sizes_and_no_duplicates() {
        let sizes: Vec<(usize, usize)> = all()
            .iter()
            .map(|w| (w.pool().len(), w.cycle().len()))
            .collect();
        assert_eq!(sizes, vec![(40, 40), (12, 20), (4, 5), (5, 5), (27, 40)]);
        for w in all() {
            let pool = w.pool();
            for (i, s) in pool.iter().enumerate() {
                assert!(!s.sql.contains("{X}") && !s.sql.contains(['\t', '\n']));
                assert!(pool[..i].iter().all(|o| o.sql != s.sql), "{}", s.sql);
            }
        }
    }

    #[test]
    fn same_seed_same_sequence_other_seed_other_order_same_multiset() {
        for w in all() {
            let draw = |seed, client| {
                let mut s = w.sequencer(seed, client);
                let mut out = Vec::new();
                for _ in 0..8 {
                    out.extend_from_slice(s.next_cycle());
                }
                out
            };
            assert_eq!(draw(1, 0), draw(1, 0), "{}", w.name);
            assert_ne!(draw(1, 0), draw(2, 0), "{}", w.name);
            assert_ne!(draw(1, 0), draw(1, 1), "{}", w.name);
            let sorted = |mut v: Vec<usize>| {
                v.sort_unstable();
                v
            };
            assert_eq!(sorted(draw(1, 0)), sorted(draw(2, 0)), "{}", w.name);
            // Every cycle is a permutation of the weighted pool.
            let mut s = w.sequencer(3, 0);
            assert_eq!(sorted(s.next_cycle().to_vec()), sorted(w.cycle()));
        }
    }

    #[test]
    fn p50_and_p90_sit_ten_points_inside_a_tier() {
        for w in all() {
            let shares = tier_shares(&w);
            assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            let mut edge = 0.0;
            for share in &shares[..shares.len() - 1] {
                edge += share * 100.0;
                for p in [50.0, 90.0] {
                    assert!(
                        (p - edge).abs() >= 10.0 - 1e-9,
                        "{}: p{p} is {:.1} points from the tier edge at {edge:.1}",
                        w.name,
                        (p - edge).abs()
                    );
                }
            }
        }
    }

    #[test]
    fn data_set_ids() {
        let ids: Vec<String> = all().iter().map(|w| w.data.id()).collect();
        assert_eq!(
            ids,
            vec![
                "rst-1",
                "rst-0.2",
                "tpch-0.05",
                "rst-0.05",
                "rst-0.5+tpch-0.02"
            ]
        );
    }
}
