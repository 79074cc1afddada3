//! The traced run: the harness calls the layers one by one, with a span
//! around each call, and derives one number per layer. Further passes
//! time the same pool through the public entry points above the layers
//! (`run_governed`, `Prepared`, `Session::execute`) so the cost each one
//! adds can be read off. Before any of it the workload's own closed loop
//! runs for a quarter of the run length, harness tracing off, so the
//! client's view stands beside the layers' in one result.

use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::Instant;

use bypass_catalog::Catalog;
use bypass_core::{Database, ExecCounters, RunLimits, Strategy};
use bypass_exec::{physical_plan, ExecContext};
use bypass_service::{QueryService, SessionQuotas};
use bypass_sql::{fingerprint, parse_statement, Statement};
use bypass_translate::translate_query;
use bypass_types::{Error, Relation, ResourceKind};
use bypass_unnest::cost::StatsSource;
use bypass_unnest::take_outcomes;

use crate::engine::{self, PoolStmt};
use crate::oracle::Expected;
use crate::report::{metric, Metric, Tally};
use crate::spans::{self, Recorder};
use crate::stats;
use crate::timed;
use crate::workloads::Workload;

/// Catalog statistics for `Strategy::choose_by_cost`, as `Database`
/// feeds them.
struct CatalogStats<'a>(&'a Catalog);

impl StatsSource for CatalogStats<'_> {
    fn table_rows(&self, table: &str) -> Option<f64> {
        self.0.get(table).ok().map(|t| t.row_count() as f64)
    }

    fn column_distinct(&self, table: &str, column: &str) -> Option<f64> {
        let t = self.0.get(table).ok()?;
        let idx = t.schema().find(None, column)?;
        t.stats().columns.get(idx).map(|c| c.distinct as f64)
    }
}

/// Spans one layered execution records: the statement, seven layer
/// calls at most, and the cost-based probe.
const SPANS_PER_STATEMENT: usize = 9;

/// What one layer-by-layer execution produced besides its spans.
struct Layered {
    rows: usize,
    counters: ExecCounters,
    /// Eqv. 1-5 fired / equivalences attempted while preparing.
    fires: u64,
    attempts: u64,
}

/// One statement through the layers, as `Database::run_governed` calls
/// them, each call inside its own span under a `statement` span.
fn layered(
    db: &Database,
    strategy: Strategy,
    sql: &str,
    rec: &mut Recorder,
    id: u32,
) -> Result<Layered, Error> {
    let stats = CatalogStats(db.catalog());
    let root = rec.open("statement", id);
    let stmt = rec.time("sql.parse", id, || parse_statement(sql))?;
    let Statement::Query(query) = stmt else {
        return Err(Error::plan("not a SELECT statement"));
    };
    rec.time("sql.fingerprint", id, || fingerprint(&query));
    let canonical = rec.time("translate.translate", id, || {
        translate_query(db.catalog(), &query)
    })?;
    let concrete = if strategy == Strategy::CostBased {
        let chosen = rec.time("unnest.choose", id, || {
            Strategy::choose_by_cost(&canonical, &stats)
        })?;
        // Choosing prepares every candidate; only the chosen plan's
        // equivalences are this statement's.
        take_outcomes();
        chosen.0
    } else {
        strategy
    };
    let logical = rec.time("unnest.prepare", id, || concrete.prepare(&canonical))?;
    let outcomes = take_outcomes();
    let physical = rec.time("exec.plan", id, || physical_plan(&logical, db.catalog()))?;
    let (rel, counters) = rec.time("exec.execute", id, || {
        let mut ctx = ExecContext::new(concrete.exec_options());
        let rel = ctx.eval_plan(&physical)?;
        Ok::<_, Error>((rel, ctx.counters()))
    })?;
    rec.close(root);
    if strategy != Strategy::CostBased {
        // What the cost-based choice would cost on this statement: a span
        // of its own, outside the statement it does not belong to.
        rec.time("unnest.choose", id, || {
            Strategy::choose_by_cost(&canonical, &stats)
        })?;
        take_outcomes();
    }
    let count = |pred: fn(&str) -> bool| -> u64 {
        outcomes
            .iter()
            .filter(|(key, _)| pred(key))
            .map(|(_, n)| n)
            .sum()
    };
    Ok(Layered {
        rows: rel.len(),
        counters,
        fires: count(|k| k.starts_with("eqv")),
        // `bypass:chain` and `union:rewrite` count rewrites of a whole
        // predicate, not attempts to attach one subquery.
        attempts: count(|k| !k.starts_with("bypass:") && !k.starts_with("union:")),
    })
}

/// One way of executing pool statement `i`; returns its row count.
type Call<'a> = &'a mut dyn FnMut(usize, &PoolStmt) -> Result<usize, Error>;

/// Time `calls` side by side: every repetition runs each of them on each
/// statement, taking turns to go first, so a drift of the machine during
/// the run cannot pose as a difference between them. Returns, per call,
/// each statement's fastest time in ms: repetitions do identical work, so
/// the fastest is the one the host disturbed least.
fn side_by_side(
    pool: &[PoolStmt],
    reps: usize,
    tally: &mut Tally,
    calls: &mut [Call<'_>],
) -> Vec<Vec<f64>> {
    let mut times = vec![vec![Vec::with_capacity(reps); pool.len()]; calls.len()];
    for rep in 0..reps {
        for (i, stmt) in pool.iter().enumerate() {
            for turn in 0..calls.len() {
                let c = (turn + rep) % calls.len();
                let t = Instant::now();
                let result = calls[c](i, stmt);
                times[c][i].push(t.elapsed().as_nanos() as f64 / 1e6);
                check(tally, stmt, result);
            }
        }
    }
    times
        .iter()
        .map(|per_stmt| per_stmt.iter().map(|t| stats::fastest(t)).collect())
        .collect()
}

fn check(tally: &mut Tally, stmt: &PoolStmt, result: Result<usize, Error>) {
    match result {
        Ok(rows) if rows as u64 == stmt.want.rows => tally.ok(),
        Ok(rows) => tally.fail(|| {
            format!(
                "wrong row count {rows} (expected {}) for {}",
                stmt.want.rows, stmt.sql
            )
        }),
        Err(e) => tally.fail(|| format!("{e} for {}", stmt.sql)),
    }
}

fn rows(result: Result<(Relation, ExecCounters), Error>) -> Result<usize, Error> {
    result.map(|(rel, _)| rel.len())
}

/// Median over the pool of a per-statement quantity.
fn pool_median(per_stmt: impl IntoIterator<Item = f64>) -> f64 {
    stats::median(&per_stmt.into_iter().collect::<Vec<_>>())
}

/// The pool through two sessions at once; every statement's fastest time
/// in ms, both clients' together.
fn two_clients(svc: &QueryService, pool: &[PoolStmt], reps: usize, tally: &mut Tally) -> Vec<f64> {
    let barrier = Barrier::new(2);
    let clients: Vec<(Vec<f64>, Tally)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (session, barrier) = (svc.session(SessionQuotas::default()), &barrier);
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let mut execute =
                        |_: usize, s: &PoolStmt| session.execute(&s.sql).map(|r| r.rows.len());
                    barrier.wait();
                    let ms = side_by_side(pool, reps, &mut tally, &mut [&mut execute]).concat();
                    (ms, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all_ms = Vec::new();
    for (ms, client_tally) in clients {
        all_ms.extend(ms);
        tally.absorb(client_tally);
    }
    all_ms
}

/// Median time of `n` calls, in µs.
fn median_us(n: usize, mut call: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            call();
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    stats::median(&times)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Time of the cost-based choice over the best of its three candidates,
/// each run once under ten times the cost-based time; geometric mean.
fn plan_regret(db: &Database, pool: &[PoolStmt], tally: &mut Tally) -> f64 {
    let mut regrets = Vec::with_capacity(pool.len());
    for stmt in pool {
        let t = Instant::now();
        let result = rows(db.run_governed(&stmt.sql, Strategy::CostBased, &RunLimits::default()));
        let chosen = t.elapsed();
        check(tally, stmt, result);
        let limits = RunLimits {
            timeout: Some(chosen * 10),
            ..RunLimits::default()
        };
        let mut best = f64::INFINITY;
        for candidate in Strategy::cost_candidates() {
            let t = Instant::now();
            match rows(db.run_governed(&stmt.sql, candidate, &limits)) {
                // A candidate that ran out of its ten-fold allowance is
                // simply not the best one.
                Err(Error::ResourceExhausted {
                    resource: ResourceKind::Time,
                    ..
                }) => {}
                result => {
                    best = best.min(t.elapsed().as_secs_f64());
                    check(tally, stmt, result);
                }
            }
        }
        if best.is_finite() {
            regrets.push(chosen.as_secs_f64() / best);
        }
    }
    if regrets.is_empty() {
        0.0
    } else {
        stats::geometric_mean(&regrets)
    }
}

/// The traced run: everything it computed, and what it counted.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    full_seconds: f64,
    expected: &Expected,
    trace_path: &std::path::Path,
) -> Result<(Tally, Vec<Metric>), String> {
    let scale = |reps: usize| ((reps as f64 * seconds / full_seconds) as usize).max(1);
    let (layer_reps, aux_reps) = (scale(w.layer_reps), scale(w.aux_reps));

    let (env, pool, loop_service) = engine::set_up(w, expected)?;
    let window = timed::closed_loop(
        w,
        &env,
        &pool,
        loop_service.as_ref(),
        seed,
        seconds / 4.0,
        full_seconds,
    );
    drop(loop_service);
    let (mut tally, client) = timed::client_metrics(w, &pool, &window);
    let db: &Database = &env.db;
    let default_limits = RunLimits::default();

    let mut governed =
        |_: usize, s: &PoolStmt| rows(db.run_governed(&s.sql, w.strategy, &default_limits));

    // Pass 1: layer by layer under the harness's spans, beside the one
    // public call that runs the same layers.
    let mut rec = Recorder::with_capacity(pool.len() * layer_reps * SPANS_PER_STATEMENT);
    let mut first: Vec<Option<Layered>> = (0..pool.len()).map(|_| None).collect();
    let mut unsteady_counts = Vec::new();
    let mut seen = vec![0usize; pool.len()];
    let mut by_layers = |i: usize, stmt: &PoolStmt| {
        // Statement `i` of every repetition: `id % pool.len() == i`.
        let id = (seen[i] * pool.len() + i) as u32;
        seen[i] += 1;
        let result = layered(db, w.strategy, &stmt.sql, &mut rec, id);
        rec.close_all();
        result.map(|run| {
            let rows = run.rows;
            match &first[i] {
                // Counts must repeat exactly from one repetition to the next.
                Some(f) if f.counters != run.counters || f.fires != run.fires => unsteady_counts
                    .push(format!(
                        "counters differ between repetitions of {}",
                        stmt.sql
                    )),
                Some(_) => {}
                None => first[i] = Some(run),
            }
            rows
        })
    };
    let governed_ms = side_by_side(
        &pool,
        layer_reps,
        &mut tally,
        &mut [&mut by_layers, &mut governed],
    )
    .pop()
    .expect("two calls timed");
    tally.errors.extend(unsteady_counts);
    // Self time per span name and pool statement; the fastest repetition.
    let self_ns = spans::self_times(rec.spans());
    let mut by_layer: BTreeMap<&str, Vec<Vec<f64>>> = BTreeMap::new();
    let mut statement_total: Vec<Vec<f64>> = vec![Vec::new(); pool.len()];
    for (span, own) in rec.spans().iter().zip(&self_ns) {
        let i = span.stmt as usize % pool.len();
        by_layer
            .entry(span.name)
            .or_insert_with(|| vec![Vec::new(); pool.len()])[i]
            .push(*own as f64);
        if span.name == "statement" {
            statement_total[i].push((span.end_ns - span.start_ns) as f64);
        }
    }
    // A statement that never completed has no spans; its layers read 0.
    let or_zero = |reps: &Vec<f64>| {
        if reps.is_empty() {
            0.0
        } else {
            stats::fastest(reps)
        }
    };
    let layer_min = |name: &str| -> Vec<f64> {
        by_layer.get(name).map_or_else(
            || vec![0.0; pool.len()],
            |per_stmt| per_stmt.iter().map(or_zero).collect(),
        )
    };
    let layer_us = |name: &str| pool_median(layer_min(name).iter().map(|ns| ns / 1e3));
    let total_ns: Vec<f64> = statement_total.iter().map(or_zero).collect();
    let execute_ns = layer_min("exec.execute");
    // Time inside the layer calls of a statement: its duration less the
    // statement span's own self time, which is the harness's.
    let in_layers_ns: Vec<f64> = total_ns
        .iter()
        .zip(layer_min("statement"))
        .map(|(total, own)| total - own)
        .collect();
    std::fs::create_dir_all(trace_path.parent().expect("trace file has a directory"))
        .and_then(|()| std::fs::write(trace_path, spans::chrome_json(rec.spans(), w.name)))
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;

    // Pass 2: serial execution beside the default worker count.
    let serial = RunLimits {
        threads: Some(1),
        ..RunLimits::default()
    };
    let mut serially = |_: usize, s: &PoolStmt| rows(db.run_governed(&s.sql, w.strategy, &serial));
    let serial_pair = side_by_side(
        &pool,
        aux_reps,
        &mut tally,
        &mut [&mut governed, &mut serially],
    );
    // Pass 3: the engine's own tracing switched on.
    let mut engine_traced = |_: usize, s: &PoolStmt| {
        bypass_trace::set_enabled(true);
        let out = rows(db.run_governed(&s.sql, w.strategy, &default_limits));
        bypass_trace::set_enabled(false);
        bypass_trace::clear();
        out
    };
    let trace_pair = side_by_side(
        &pool,
        aux_reps,
        &mut tally,
        &mut [&mut governed, &mut engine_traced],
    );
    // Pass 4: prepare once, execute many.
    let mut prepare_us = Vec::with_capacity(pool.len());
    let mut prepared = Vec::with_capacity(pool.len());
    for stmt in &pool {
        let t = Instant::now();
        let p = db
            .prepare(&stmt.sql, w.strategy)
            .map_err(|e| format!("prepare failed: {e} for {}", stmt.sql))?;
        prepare_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        prepared.push(p);
    }
    let mut execute_prepared =
        |i: usize, _: &PoolStmt| rows(prepared[i].execute_governed(&default_limits));
    let prepared_ms = side_by_side(&pool, aux_reps, &mut tally, &mut [&mut execute_prepared])
        .pop()
        .expect("one call timed");
    // Pass 5: one profiled run each, for the dual-stream totals.
    let (mut pos, mut neg) = (0u64, 0u64);
    let mut profiled = |_: usize, s: &PoolStmt| {
        let profile = db.profile(&s.sql, w.strategy)?;
        let (_, p, n) = profile.bypass_totals();
        pos += p;
        neg += n;
        Ok(profile.rows)
    };
    side_by_side(&pool, 1, &mut tally, &mut [&mut profiled]);
    // Pass 6: regret of the cost-based choice.
    let regret = plan_regret(db, &pool, &mut tally);

    // Pass 7: through the service, one client beside the direct call, then
    // two clients at once.
    let svc = engine::service(&env.db, w.strategy);
    let admit_us = median_us(1000, || drop(svc.admission().admit(None)));
    let session = svc.session(SessionQuotas::default());
    let mut through_session =
        |_: usize, s: &PoolStmt| session.execute(&s.sql).map(|r| r.rows.len());
    let service_pair = side_by_side(
        &pool,
        aux_reps,
        &mut tally,
        &mut [&mut governed, &mut through_session],
    );
    let duo_ms = two_clients(&svc, &pool, aux_reps, &mut tally);
    let service_counters = svc.counters();

    // The metrics hub, read after everything above went through it.
    let snapshot_us = median_us(5, || drop(std::hint::black_box(db.metrics())));

    let counters: Vec<&Layered> = first.iter().flatten().collect();
    let sum = |f: fn(&Layered) -> u64| counters.iter().map(|l| f(l)).sum::<u64>();
    let pct = |with: &[f64], without: &[f64]| {
        pool_median(with.iter().zip(without).map(|(a, b)| (a / b - 1.0) * 100.0))
    };
    let total_ms: Vec<f64> = total_ns.iter().map(|ns| ns / 1e6).collect();
    let mut values: Vec<Metric> = vec![
        metric("sql.parse_us", layer_us("sql.parse"), "us"),
        metric("sql.fingerprint_us", layer_us("sql.fingerprint"), "us"),
        metric(
            "translate.translate_us",
            layer_us("translate.translate"),
            "us",
        ),
        metric("unnest.prepare_us", layer_us("unnest.prepare"), "us"),
        metric("unnest.choose_us", layer_us("unnest.choose"), "us"),
        metric("unnest.plan_regret", regret, "ratio"),
        metric("unnest.eqv_fires", sum(|l| l.fires) as f64, "count"),
        metric(
            "unnest.fire_ratio",
            ratio(sum(|l| l.fires), sum(|l| l.attempts)),
            "ratio",
        ),
        metric("exec.plan_us", layer_us("exec.plan"), "us"),
        metric(
            "exec.execute_ms",
            pool_median(execute_ns.iter().map(|ns| ns / 1e6)),
            "ms",
        ),
        metric(
            "exec.execute_share",
            pool_median(execute_ns.iter().zip(&total_ns).map(|(e, t)| e / t)),
            "ratio",
        ),
        metric(
            "exec.checkpoints",
            sum(|l| l.counters.checkpoints) as f64,
            "count",
        ),
        metric(
            "exec.ns_per_checkpoint",
            pool_median(first.iter().zip(&execute_ns).filter_map(|(l, ns)| {
                let checkpoints = l.as_ref()?.counters.checkpoints;
                (checkpoints > 0).then(|| ns / checkpoints as f64)
            })),
            "ns",
        ),
        metric(
            "exec.serial_ms",
            pool_median(serial_pair[1].iter().copied()),
            "ms",
        ),
        metric(
            "exec.parallel_speedup",
            pool_median(
                serial_pair[1]
                    .iter()
                    .zip(&serial_pair[0])
                    .map(|(s, g)| s / g),
            ),
            "ratio",
        ),
        metric(
            "exec.peak_memory_bytes",
            counters
                .iter()
                .map(|l| l.counters.peak_memory_bytes)
                .max()
                .unwrap_or(0) as f64,
            "count",
        ),
        metric(
            "exec.result_rows",
            counters.iter().map(|l| l.rows as u64).sum::<u64>() as f64,
            "count",
        ),
        metric(
            "exec.disjunct_hit_ratio",
            ratio(
                sum(|l| l.counters.disjunct_hits),
                sum(|l| l.counters.disjunct_evals),
            ),
            "ratio",
        ),
        metric(
            "exec.memo_hit_ratio",
            ratio(
                sum(|l| l.counters.memo_uncorr_hits + l.counters.memo_corr_hits),
                sum(|l| {
                    let c = &l.counters;
                    c.memo_uncorr_hits
                        + c.memo_corr_hits
                        + c.memo_uncorr_misses
                        + c.memo_corr_misses
                }),
            ),
            "ratio",
        ),
        metric("exec.bypass_pos_share", ratio(pos, pos + neg), "ratio"),
        metric(
            "core.run_governed_ms",
            pool_median(governed_ms.iter().copied()),
            "ms",
        ),
        metric(
            "core.overhead_us",
            pool_median(
                governed_ms
                    .iter()
                    .zip(&in_layers_ns)
                    .map(|(g, l)| g * 1e3 - l / 1e3),
            ),
            "us",
        ),
        metric(
            "core.prepare_us",
            pool_median(prepare_us.iter().copied()),
            "us",
        ),
        metric(
            "core.prepared_execute_ms",
            pool_median(prepared_ms.iter().copied()),
            "ms",
        ),
        metric(
            "service.execute_overhead_us",
            pool_median(
                service_pair[1]
                    .iter()
                    .zip(&service_pair[0])
                    .map(|(s, g)| (s - g) * 1e3),
            ),
            "us",
        ),
        metric("service.admit_us", admit_us, "us"),
        metric(
            "service.contention_ms",
            stats::median(&duo_ms) - stats::median(&service_pair[1]),
            "ms",
        ),
        metric(
            "service.admitted",
            service_counters.admitted as f64,
            "count",
        ),
        metric("service.retries", service_counters.retries as f64, "count"),
        metric("service.shed", service_counters.shed as f64, "count"),
        metric(
            "service.degraded",
            service_counters.degraded as f64,
            "count",
        ),
        metric("service.failed", service_counters.failed as f64, "count"),
        metric("metrics.snapshot_us", snapshot_us, "us"),
        metric(
            "trace.engine_overhead_pct",
            pct(&trace_pair[1], &trace_pair[0]),
            "%",
        ),
        metric(
            "harness.trace_overhead_pct",
            pct(&total_ms, &governed_ms),
            "%",
        ),
        metric("datagen.generate_s", env.generate_s, "s"),
        metric("catalog.register_s", env.register_s, "s"),
        metric("catalog.rows_loaded", env.dataset.rows as f64, "count"),
    ];
    let front_end_us: f64 = [
        "sql.parse",
        "sql.fingerprint",
        "translate.translate",
        "unnest.prepare",
        "exec.plan",
    ]
    .iter()
    .map(|name| layer_us(name))
    .sum();
    values.extend(client);
    values.extend([
        metric("harness.spans", rec.spans().len() as f64, "count"),
        metric("harness.layer_reps", layer_reps as f64, "count"),
        metric("harness.aux_reps", aux_reps as f64, "count"),
        metric("harness.pool_statements", pool.len() as f64, "count"),
        metric(
            "harness.front_end_share",
            front_end_us / 1e3 / pool_median(total_ms.iter().copied()),
            "ratio",
        ),
    ]);
    Ok((tally, values))
}
