//! The determinism gate: every exact execution counter the engine
//! exposes for the paper's workload, recomputed and compared for
//! equality with the checked-in `tests/counters.golden`.
//!
//! Timings drift with machine load; the bypass stream cardinalities,
//! per-disjunct reach/decide counts, governor totals and service
//! counters do **not** — for a fixed (query, strategy, instance) or a
//! fixed service scenario they are exact invariants of the plan the
//! optimizer produced, the data the generator emitted and the control
//! path the statement took. A rewrite that silently changes how many
//! tuples take the negative stream, in which order the disjuncts run,
//! what the governor charges or how a statement traverses admission
//! fails here, under any worker count (`scripts/verify.sh` runs the
//! suite at `BYPASS_THREADS=1` and `=8`).
//!
//! The golden is one `name value` line per entry, sorted by name,
//! integers only. On a mismatch the test names every changed, missing
//! and unexpected entry and writes the recomputed file under `target/`;
//! if the change is intended, re-pinning is
//!
//! ```text
//! cp target/tmp/counters.golden tests/counters.golden
//! ```
//!
//! The `metrics/counters/` entries of the same file belong to
//! `tests/metrics.rs`, which already runs their workload across the
//! threads × chunk matrix; here they are carried over, not compared.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use bypass::datagen::rst::{self, Q1, Q2, Q3, Q4, Q_COMBINED, Q_EXISTS};
use bypass::service::{
    DegradePolicy, DegradeTier, QueryService, RetryPolicy, ServiceConfig, SessionQuotas,
};
use bypass::{Database, MetricValue, MetricsHub, RunLimits, Strategy};

const GOLDEN: &str = include_str!("counters.golden");
const RECOMPUTED: &str = concat!(env!("CARGO_TARGET_TMPDIR"), "/counters.golden");
/// Entries pinned by `tests/metrics.rs`.
const ELSEWHERE: &str = "metrics/counters/";

type Entries = BTreeMap<String, u64>;

// ---------------------------------------------------------------------
// The golden file and its comparison
// ---------------------------------------------------------------------

fn parse(text: &str) -> Entries {
    let mut entries = Entries::new();
    let mut previous = "";
    for line in text.lines() {
        let (name, value) = line
            .split_once(' ')
            .unwrap_or_else(|| panic!("golden line is not `name value`: {line:?}"));
        let value = value
            .parse()
            .unwrap_or_else(|_| panic!("golden value is not an integer: {line:?}"));
        assert!(previous < name, "golden not sorted at {name}");
        entries.insert(name.to_string(), value);
        previous = name;
    }
    entries
}

fn render(entries: &Entries) -> String {
    entries
        .iter()
        .map(|(name, value)| format!("{name} {value}\n"))
        .collect()
}

/// One line per entry on which a run differs from the golden; empty
/// when they are equal. Any difference fails, in either direction and
/// off a zero ("canonical has no bypass nodes" is itself an invariant).
fn diff(golden: &Entries, run: &Entries) -> Vec<String> {
    let mut lines = Vec::new();
    for (name, want) in golden {
        match run.get(name) {
            Some(got) if got == want => {}
            Some(got) => lines.push(format!("changed    {name}: golden {want}, run {got}")),
            None => lines.push(format!(
                "missing    {name}: golden {want}, no longer produced"
            )),
        }
    }
    for (name, got) in run {
        if !golden.contains_key(name) {
            lines.push(format!("unexpected {name}: run {got}, not in the golden"));
        }
    }
    lines
}

fn entries(pairs: &[(&str, u64)]) -> Entries {
    pairs.iter().map(|(n, v)| (n.to_string(), *v)).collect()
}

#[test]
fn an_identical_run_passes() {
    let golden = entries(&[
        ("q2/counters/canonical/bypass_pos_rows", 0),
        ("q2/counters/unnested/bypass_pos_rows", 257),
    ]);
    assert_eq!(diff(&golden, &golden.clone()), Vec::<String>::new());
    assert_eq!(parse(&render(&golden)), golden);
}

#[test]
fn any_drift_fails_and_names_the_entry_both_directions_and_off_zero() {
    let golden = entries(&[
        ("q2/counters/canonical/bypass_pos_rows", 0),
        ("q2/counters/unnested/bypass_pos_rows", 257),
    ]);
    let drifted = entries(&[
        ("q2/counters/canonical/bypass_pos_rows", 12),
        ("q2/counters/unnested/bypass_pos_rows", 256),
    ]);
    assert_eq!(
        diff(&golden, &drifted),
        [
            "changed    q2/counters/canonical/bypass_pos_rows: golden 0, run 12",
            "changed    q2/counters/unnested/bypass_pos_rows: golden 257, run 256",
        ]
    );
}

#[test]
fn an_entry_the_run_no_longer_produces_fails() {
    let golden = entries(&[("g/counters/a", 1), ("g/counters/b", 2)]);
    let run = entries(&[("g/counters/a", 1)]);
    assert_eq!(
        diff(&golden, &run),
        ["missing    g/counters/b: golden 2, no longer produced"]
    );
    assert_eq!(diff(&golden, &Entries::new()).len(), 2);
}

#[test]
fn an_entry_the_golden_does_not_list_fails() {
    let golden = entries(&[("g/counters/a", 1)]);
    let run = entries(&[("g/counters/a", 1), ("g/counters/other", 5)]);
    assert_eq!(
        diff(&golden, &run),
        ["unexpected g/counters/other: run 5, not in the golden"]
    );
}

// ---------------------------------------------------------------------
// The gate
// ---------------------------------------------------------------------

#[test]
fn counters_match_the_golden() {
    // Q4 canonical's 125 M checkpoints are two thirds of the suite's
    // time, so the snapshot-scale queries run beside everything else.
    let mut run = Entries::new();
    std::thread::scope(|scope| {
        let small = scope.spawn(|| {
            let mut run = Entries::new();
            let db = rst_database(SF);
            for (group, sql) in [
                ("q2", Q2),
                ("q3", Q3),
                ("q4", Q4),
                ("qexists", Q_EXISTS),
                ("qcombined", Q_COMBINED),
            ] {
                query_snapshots(&mut run, group, &db, sql);
            }
            run
        });
        query_snapshots(&mut run, "fig7a_q1_sf1", &rst_database(1.0), Q1);
        disjunct_sweep(&mut run);
        service_scenarios(&mut run);
        run.extend(small.join().expect("snapshot thread"));
    });

    let (elsewhere, golden): (Entries, Entries) = parse(GOLDEN)
        .into_iter()
        .partition(|(name, _)| name.starts_with(ELSEWHERE));
    let lines = diff(&golden, &run);
    if !lines.is_empty() {
        run.extend(elsewhere);
        std::fs::write(RECOMPUTED, render(&run)).expect("target/tmp is writable");
        panic!(
            "{} counter(s) differ from tests/counters.golden:\n  {}\n\
             any drift is a behaviour change, not noise; if it is intended:\n  \
             cp {RECOMPUTED} tests/counters.golden",
            lines.len(),
            lines.join("\n  ")
        );
    }
}

/// Snapshot scale: small enough that canonical nested-loop evaluation
/// of the disjunctive-correlation queries stays fast, large enough that
/// every bypass stream is non-trivially populated (500 outer rows).
/// Fixed seed — the counters must be bit-identical run to run.
const SF: f64 = 0.05;
const SEED: u64 = 42;

fn rst_database(sf: f64) -> Database {
    let mut db = Database::new().with_metrics_hub(Arc::new(MetricsHub::new()));
    rst::register(db.catalog_mut(), &rst::generate(sf, sf, SEED)).expect("fresh catalog");
    db
}

/// `{group}/counters/{strategy}/…` of one query profiled under
/// canonical and unnested evaluation — the paper's workload: Q1 at the
/// full Fig. 7 scale (SF 1/1, 10k×10k rows — the executor's two hot
/// paths, correlated nested-loop evaluation and the bypass pipeline),
/// Q2–Q4, the quantified EXISTS variant and the combined
/// linking+correlation query at the snapshot scale. Per strategy:
///
/// * `bypass_pos_rows` / `bypass_neg_rows` — dual-stream cardinalities
///   summed over every σ±/⋈± in the plan,
/// * `peak_memory_bytes` / `checkpoints` — the resource governor's
///   deterministic byte-model high-water mark and checkpoint count
///   (pure functions of plan + data; any drift means the executor's
///   materialization behaviour changed).
fn query_snapshots(run: &mut Entries, group: &str, db: &Database, sql: &str) {
    for strategy in [Strategy::Canonical, Strategy::Unnested] {
        let profile = db
            .profile(sql, strategy)
            .unwrap_or_else(|e| panic!("{group}/{strategy}: {e}"));
        let (_, pos, neg) = profile.bypass_totals();
        let c = profile.counters;
        let mut put = |counter: &str, value: u64| {
            run.insert(format!("{group}/counters/{strategy}/{counter}"), value);
        };
        put("bypass_pos_rows", pos);
        put("bypass_neg_rows", neg);
        put("peak_memory_bytes", c.peak_memory_bytes);
        put("checkpoints", c.checkpoints);
    }
}

/// Disjunct order is plan order: a skewed-disjunct sweep pinning the
/// per-disjunct reach/decide counters (`selectivity/counters/…`), which
/// fold worker-count- and chunk-length-independently, so they are
/// exact. The strategy plans the order (`unnest::rank`, DESIGN.md §8)
/// and the σ evaluates in it:
///
/// * **Kernel skew** — `a4 > T OR a3 > 0` puts the barely-deciding
///   term syntactically first. The planner keeps plain disjuncts in
///   syntactic order and nothing reorders them at run time: the first
///   term sees every row of `r`, the second the rows the first leaves
///   undecided. The skew `T` sweeps the first term from moderately to
///   barely selective.
/// * **Subquery skew** — Q1's disjunction with the correlated COUNT
///   subquery written first or last. The static rank ordering
///   normalizes the subquery term last, so it is evaluated only on the
///   rows the cheap kernel leaves undecided either way.
fn disjunct_sweep(run: &mut Entries) {
    let db = rst_database(SF);
    let outer_rows = db.catalog().get("r").expect("r").row_count() as u64;
    // (evals, hits) per disjunct of the one operator carrying them.
    let mut sweep = |name: &str, sql: &str| -> Vec<(u64, u64)> {
        let profile = db
            .profile(sql, Strategy::Canonical)
            .expect("sweep query profiles");
        let d: Vec<(u64, u64)> = profile
            .metrics
            .values()
            .find(|m| !m.disjuncts.is_empty())
            .map(|m| m.disjuncts.iter().map(|d| (d.evals, d.hits)).collect())
            .expect("a chained σ surfaces disjunct counters");
        assert_eq!(d.len(), 2, "{name}: two top-level terms");
        for (i, (evals, hits)) in d.iter().enumerate() {
            run.insert(format!("selectivity/counters/{name}/d{i}_evals"), *evals);
            run.insert(format!("selectivity/counters/{name}/d{i}_hits"), *hits);
        }
        d
    };

    for threshold in [1500i64, 2900] {
        let sql = format!("SELECT DISTINCT * FROM r WHERE a4 > {threshold} OR a3 > 0");
        let d = sweep(&format!("kernel_t{threshold}"), &sql);
        // Plan order: the written-first term sees all of `r`, the
        // second term exactly the rows the first did not decide.
        assert_eq!(d[0].0, outer_rows, "t={threshold}: first term evals");
        assert_eq!(
            d[1].0,
            outer_rows - d[0].1,
            "t={threshold}: second term evals"
        );
    }

    for (order, sql) in [
        ("expensive_first", Q1),
        (
            "cheap_first",
            "SELECT DISTINCT * FROM r \
             WHERE a4 > 1500 OR a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2)",
        ),
    ] {
        let d = sweep(&format!("subquery_{order}"), sql);
        // The static rank ordering plans the subquery term last
        // (position 1), so it evaluates on strictly fewer rows than the
        // cheap kernel regardless of how the SQL was written.
        assert!(
            d[1].0 < d[0].0,
            "{order}: subquery evals {} not below kernel evals {}",
            d[1].0,
            d[0].0
        );
    }
}

/// S1 "always evaluates the nested block first" (`Strategy::S1Naive`):
/// it plans Q1's `COUNT(DISTINCT *)` subquery as the first disjunct, and
/// the planned order is the evaluation order, so the nested block runs
/// for every outer row and the cheap kernel only on the rows it leaves
/// undecided.
#[test]
fn s1_evaluates_the_nested_block_for_every_outer_row() {
    let db = rst_database(SF);
    let outer_rows = db.catalog().get("r").expect("r").row_count() as u64;
    let profile = db.profile(Q1, Strategy::S1Naive).expect("Q1 under S1");
    let mut node = &profile.physical;
    let chain = loop {
        if let Some(chain) = node.chain() {
            break chain;
        }
        node = node.children()[0];
    };
    assert!(
        chain.terms[0].expr.contains_subquery() && !chain.terms[1].expr.contains_subquery(),
        "S1 plans the nested block first"
    );
    let d = &profile.metrics[&(Arc::as_ptr(node) as usize)].disjuncts;
    assert_eq!(
        d[0].evals, outer_rows,
        "the nested block runs per outer row"
    );
    assert_eq!(d[1].evals, outer_rows - d[0].hits);
}

// ---------------------------------------------------------------------
// Service scenarios
// ---------------------------------------------------------------------

/// Each scenario drives a fresh `QueryService` (own database, own
/// metrics hub) through one control path — steady-state completion,
/// queue-full shedding, deadline-bounded admission with retries,
/// session quotas and statement-size caps, graceful degradation with a
/// memory-headroom retry, drain/resume — all on a single thread with
/// artificial slot holds, so every counter is an exact function of the
/// scenario. The full `CountersSnapshot` of each is pinned under
/// `service/counters/{scenario}/…`, after checking that the hub's
/// `bypass_service_{field}_total` series holds the same count.
fn service_scenarios(run: &mut Entries) {
    for (scenario, svc) in [
        ("steady", steady()),
        ("shed", shed()),
        ("admission_timeout", admission_timeout()),
        ("quotas", quotas()),
        ("degrade_retry", degrade_retry()),
        ("drain_resume", drain_resume()),
    ] {
        let c = svc.counters();
        let hub = svc.database().metrics();
        for (field, value) in [
            ("submitted", c.submitted),
            ("admitted", c.admitted),
            ("completed", c.completed),
            ("failed", c.failed),
            ("shed", c.shed),
            ("admission_timeouts", c.admission_timeouts),
            ("retries", c.retries),
            ("degraded", c.degraded),
            ("quota_rejected", c.quota_rejected),
            ("oversized", c.oversized),
            ("drain_rejected", c.drain_rejected),
            ("cancelled", c.cancelled),
        ] {
            assert_eq!(
                hub.get(&format!("bypass_service_{field}_total"), &[]),
                Some(&MetricValue::Counter(value)),
                "{scenario}/{field}: the registry and CountersSnapshot disagree"
            );
            run.insert(format!("service/counters/{scenario}/{field}"), value);
        }
    }
}

fn service(cfg: ServiceConfig) -> QueryService {
    QueryService::new(Arc::new(rst_database(SF)), Strategy::Unnested, cfg)
}

/// Deterministic knobs: no backoff sleep, fixed gate, seeded jitter.
fn base_config() -> ServiceConfig {
    ServiceConfig {
        max_concurrency: 1,
        queue_limit: 4,
        retry: RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::ZERO,
            ..RetryPolicy::default()
        },
        degrade: DegradePolicy::default(),
        seed: 0x00B1_9A55,
    }
}

/// Steady state: every submission admits on the fast path and
/// completes; one statement is a plan error (typed failure).
fn steady() -> QueryService {
    let svc = service(base_config());
    let session = svc.session(SessionQuotas::default());
    for _ in 0..3 {
        session.execute(Q1).expect("Q1 runs clean");
    }
    session
        .execute("SELECT no_such_column FROM r")
        .expect_err("plan error");
    svc
}

/// Queue-full shedding: with every slot held and a zero-length queue,
/// submissions shed immediately; after release the service recovers.
fn shed() -> QueryService {
    let svc = service(ServiceConfig {
        queue_limit: 0,
        ..base_config()
    });
    let session = svc.session(SessionQuotas::default());
    {
        let _hold = svc.admission().hold_slots(1);
        for _ in 0..3 {
            session.execute(Q1).expect_err("must shed while saturated");
        }
    }
    session.execute(Q1).expect("recovers after release");
    svc
}

/// Deadline-bounded admission: a held gate plus a session deadline
/// makes every attempt time out in the queue; the retry policy
/// resubmits with a fresh deadline until attempts are exhausted.
fn admission_timeout() -> QueryService {
    let svc = service(base_config());
    let session = svc.session(SessionQuotas {
        timeout: Some(Duration::from_millis(2)),
        ..SessionQuotas::default()
    });
    {
        let _hold = svc.admission().hold_slots(1);
        for _ in 0..2 {
            session.execute(Q1).expect_err("deadline expires queued");
        }
    }
    svc
}

/// Session quotas: a spent byte budget rejects before admission, an
/// over-cap statement is rejected O(1) before the parser.
fn quotas() -> QueryService {
    let svc = service(base_config());
    let session = svc.session(SessionQuotas {
        byte_budget: Some(1),
        max_statement_bytes: Some(128),
        ..SessionQuotas::default()
    });
    session.execute(Q1).expect("first run charges the budget");
    session.execute(Q1).expect_err("budget spent");
    let oversized = format!("SELECT a1 FROM r -- {}", "x".repeat(160));
    session
        .execute(&oversized)
        .expect_err("statement over the session cap");
    svc
}

/// Graceful degradation + retry: once the hub's peak-memory watermark
/// is set by the first run, the tier caps the next admission below the
/// query's real peak; the memory trip is retried with raised headroom
/// up to the session cap and completes degraded.
fn degrade_retry() -> QueryService {
    // Measure the query's deterministic governor peak on a throwaway
    // database so the scenario thresholds derive from the byte model,
    // not hard-coded sizes.
    let (_, reference) = rst_database(SF)
        .run_governed(Q1, Strategy::Unnested, &RunLimits::default())
        .expect("reference run");
    let peak = reference.peak_memory_bytes;
    let svc = service(ServiceConfig {
        degrade: DegradePolicy {
            tiers: vec![DegradeTier {
                queue_depth: usize::MAX,
                peak_memory_bytes: 1, // active once anything has run
                max_memory_bytes: peak / 2,
                timeout: None,
            }],
        },
        ..base_config()
    });
    let session = svc.session(SessionQuotas {
        max_memory_bytes: Some(peak),
        ..SessionQuotas::default()
    });
    let first = session.execute(Q1).expect("tier inactive on first run");
    assert_eq!(first.tier, 0);
    let second = session.execute(Q1).expect("retry raises to the cap");
    assert_eq!(second.tier, 1);
    assert_eq!(second.retry.retries(), 1);
    svc
}

/// Drain/resume: draining rejects new work with a typed error and
/// leaves the service reusable after `resume`.
fn drain_resume() -> QueryService {
    let svc = service(base_config());
    let session = svc.session(SessionQuotas::default());
    session.execute(Q1).expect("pre-drain");
    svc.drain();
    session.execute(Q1).expect_err("draining");
    svc.resume();
    session.execute(Q1).expect("post-resume");
    svc
}
