//! The end-to-end run: one set-up, then a closed-loop timed window of
//! whole cycles with harness tracing off. Latency is timed around the one
//! public call; the row-count check comes after the timestamp; nothing is
//! printed inside the window.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use bypass_service::{QueryService, SessionQuotas};

use crate::engine::{self, Client, PoolStmt};
use crate::oracle::Expected;
use crate::report::{metric, Metric, Tally};
use crate::stats;
use crate::workloads::{Workload, MIN_SAMPLES};

/// One timed statement.
struct Sample {
    stmt: u32,
    nanos: u64,
    /// `None` = completed with the pinned row count.
    error: Option<String>,
}

/// What one client sent: `samples[..whole]` are its whole cycles, the
/// rest a cycle the shared stop cut short.
struct ClientLog {
    samples: Vec<Sample>,
    whole: usize,
}

/// Send whole cycles until `window` has passed and `min_samples` are in,
/// then raise `stop`; a client that finds it raised stops after the
/// statement it is in, so no client ever runs beside fewer clients than
/// the workload has.
fn drive(
    client: &Client<'_>,
    pool: &[PoolStmt],
    mut order: crate::workloads::Sequencer,
    window: Duration,
    min_samples: usize,
    capacity: usize,
    stop: &AtomicBool,
) -> ClientLog {
    let mut samples: Vec<Sample> = Vec::with_capacity(capacity);
    let mut whole = 0;
    let start = Instant::now();
    'cycles: loop {
        for &i in order.next_cycle() {
            // Relaxed: the flag publishes nothing but itself.
            if stop.load(Ordering::Relaxed) {
                break 'cycles;
            }
            let stmt = &pool[i];
            let t = Instant::now();
            let result = client.execute(&stmt.sql);
            let nanos = t.elapsed().as_nanos() as u64;
            let error = match result {
                Ok(rel) if rel.len() as u64 == stmt.want.rows => None,
                Ok(rel) => Some(format!(
                    "wrong row count {} (expected {}) for {}",
                    rel.len(),
                    stmt.want.rows,
                    stmt.sql
                )),
                Err(e) => Some(format!("{e} for {}", stmt.sql)),
            };
            samples.push(Sample {
                stmt: i as u32,
                nanos,
                error,
            });
        }
        whole = samples.len();
        if start.elapsed() >= window && whole >= min_samples {
            stop.store(true, Ordering::Relaxed);
            break;
        }
    }
    ClientLog { samples, whole }
}

/// What the closed loop saw.
pub struct Window {
    logs: Vec<ClientLog>,
    /// First statement sent to last reply received.
    window_s: f64,
    /// Complaints of the service, which the workloads expect none of.
    service_errors: Vec<String>,
}

/// The workload's clients, each sending its seeded cycles for `seconds`.
/// `full_seconds` is the run length at which `MIN_SAMPLES` is owed; a
/// shorter window owes its share of them.
pub fn closed_loop(
    w: &Workload,
    env: &engine::Env,
    pool: &[PoolStmt],
    service: Option<&QueryService>,
    seed: u64,
    seconds: f64,
    full_seconds: f64,
) -> Window {
    let window = Duration::from_secs_f64(seconds);
    let owed = (MIN_SAMPLES as f64 * seconds / full_seconds).ceil() as usize;
    let min_samples = owed.div_ceil(w.clients);
    // Room for 20 000 statements a second; a longer log would only grow.
    let capacity = min_samples.max((seconds * 20_000.0) as usize) + w.cycle().len();
    let stop = AtomicBool::new(false);

    let window_start = Instant::now();
    let logs = match service {
        None => vec![drive(
            &Client::Direct(&env.db, w.strategy),
            pool,
            w.sequencer(seed, 0),
            window,
            min_samples,
            capacity,
            &stop,
        )],
        Some(svc) => {
            let barrier = Barrier::new(w.clients);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..w.clients)
                    .map(|c| {
                        let (barrier, stop) = (&barrier, &stop);
                        let order = w.sequencer(seed, c);
                        let client = Client::Session(svc.session(SessionQuotas::default()));
                        scope.spawn(move || {
                            barrier.wait();
                            drive(&client, pool, order, window, min_samples, capacity, stop)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect()
            })
        }
    };
    let window_s = window_start.elapsed().as_secs_f64();

    let mut service_errors = Vec::new();
    if let Some(svc) = service {
        let c = svc.counters();
        for (what, n) in [
            ("shed", c.shed),
            ("retries", c.retries),
            ("degraded", c.degraded),
        ] {
            if n != 0 {
                service_errors.push(format!(
                    "service counted {n} {what}; the workload expects 0"
                ));
            }
        }
    }
    Window {
        logs,
        window_s,
        service_errors,
    }
}

/// Everything the client side of a window says. Every statement sent
/// counts as attempted and towards the throughput; the latency
/// distribution is taken over whole cycles only, so it always describes
/// the same mix.
pub fn client_metrics(w: &Workload, pool: &[PoolStmt], window: &Window) -> (Tally, Vec<Metric>) {
    let mut tally = Tally::default();
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut by_class: Vec<Vec<f64>> = vec![Vec::new(); w.classes.len()];
    // Per pool statement: its fastest execution and how often it ran.
    let mut fastest: Vec<(f64, f64)> = vec![(f64::INFINITY, 0.0); pool.len()];
    for log in &window.logs {
        for (at, s) in log.samples.iter().enumerate() {
            match &s.error {
                None => tally.ok(),
                Some(e) => tally.fail(|| e.clone()),
            }
            if at >= log.whole {
                continue;
            }
            let ms = s.nanos as f64 / 1e6;
            latencies_ms.push(ms);
            by_class[pool[s.stmt as usize].class].push(ms);
            let (best, count) = &mut fastest[s.stmt as usize];
            *best = best.min(ms);
            *count += 1.0;
        }
    }
    tally.errors.extend(window.service_errors.iter().cloned());
    stats::sort(&mut latencies_ms);

    let completed = (tally.attempted - tally.failed) as f64;
    let failed_share = tally.failed as f64 / tally.attempted.max(1) as f64;
    // Every execution of one statement does identical work, so the
    // fastest is the one the host and the other client disturbed least.
    // The best-case numbers describe the mix with every statement at that
    // latency: steady from run to run where the measured ones are not,
    // blind to stalls and contention that come and go.
    let best_mean_ms =
        fastest.iter().map(|(ms, n)| ms * n).sum::<f64>() / latencies_ms.len() as f64;
    let mut metrics = vec![
        metric("throughput_qps", completed / window.window_s, "1/s"),
        metric(
            "latency_p50_ms",
            stats::percentile(&latencies_ms, 50.0),
            "ms",
        ),
        metric(
            "latency_p90_ms",
            stats::percentile(&latencies_ms, 90.0),
            "ms",
        ),
        metric(
            "best_case_qps",
            w.clients as f64 * 1e3 / best_mean_ms,
            "1/s",
        ),
        metric(
            "best_case_p50_ms",
            stats::weighted_percentile(&fastest, 50.0),
            "ms",
        ),
        metric(
            "best_case_p90_ms",
            stats::weighted_percentile(&fastest, 90.0),
            "ms",
        ),
        metric("completed_share", 1.0 - failed_share, "ratio"),
        metric("failed_share", failed_share, "ratio"),
        metric("client.samples", latencies_ms.len() as f64, "count"),
        metric(
            "client.cycles",
            (latencies_ms.len() / w.cycle().len()) as f64,
            "count",
        ),
        metric("client.window_s", window.window_s, "s"),
    ];
    // p99 needs 20 samples beyond it to mean anything.
    if latencies_ms.len() >= 2000 {
        metrics.push(metric(
            "client.latency_p99_ms",
            stats::percentile(&latencies_ms, 99.0),
            "ms",
        ));
    }
    for (class, values) in w.classes.iter().zip(&by_class) {
        metrics.push(metric(
            format!("class.{}.p50_ms", class.name),
            stats::median(values),
            "ms",
        ));
    }
    (tally, metrics)
}

/// The timed run: everything it computed, and what it counted.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    full_seconds: f64,
    expected: &Expected,
    process_start: Instant,
) -> Result<(Tally, Vec<Metric>), String> {
    let (env, pool, service) = engine::set_up(w, expected)?;
    let setup_s = process_start.elapsed().as_secs_f64();
    let window = closed_loop(
        w,
        &env,
        &pool,
        service.as_ref(),
        seed,
        seconds,
        full_seconds,
    );
    let peak_rss_mb = engine::peak_rss_mb()?;

    let (tally, mut metrics) = client_metrics(w, &pool, &window);
    metrics.extend([
        metric("peak_rss_mb", peak_rss_mb, "MB"),
        metric("setup_s", setup_s, "s"),
        metric("datagen.generate_s", env.generate_s, "s"),
        metric("catalog.register_s", env.register_s, "s"),
    ]);
    Ok((tally, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Digest;
    use crate::workloads;

    fn value(metrics: &[Metric], name: &str) -> f64 {
        metrics.iter().find(|m| m.name == name).unwrap().value
    }

    /// rst_linear: five statements, each once per cycle. Two whole cycles
    /// and one statement of a third, cut short by the stop.
    #[test]
    fn client_metrics_keep_the_definitions() {
        let w = workloads::find("rst_linear").unwrap();
        let pool: Vec<PoolStmt> = w
            .pool()
            .into_iter()
            .map(|s| PoolStmt {
                class: s.class,
                sql: s.sql,
                want: Digest { rows: 0, hash: 0 },
            })
            .collect();
        let ms = [
            10.0, 20.0, 30.0, 40.0, 50.0, 12.0, 18.0, 33.0, 44.0, 45.0, 900.0,
        ];
        let samples = ms
            .iter()
            .enumerate()
            .map(|(at, ms)| Sample {
                stmt: (at % 5) as u32,
                nanos: (ms * 1e6) as u64,
                error: (at == 3).then(|| "boom".to_string()),
            })
            .collect();
        let window = Window {
            logs: vec![ClientLog { samples, whole: 10 }],
            window_s: 2.0,
            service_errors: vec![],
        };
        let (tally, metrics) = client_metrics(&w, &pool, &window);
        assert_eq!((tally.attempted, tally.failed), (11, 1));
        // Completed ÷ wall time: the cut cycle's statement counts.
        assert_eq!(value(&metrics, "throughput_qps"), 5.0);
        assert!((value(&metrics, "completed_share") - 10.0 / 11.0).abs() < 1e-12);
        // Pooled over the ten samples of whole cycles: 900 ms is not one.
        assert_eq!(value(&metrics, "latency_p50_ms"), 30.0);
        assert_eq!(value(&metrics, "latency_p90_ms"), 45.0);
        assert_eq!(value(&metrics, "client.samples"), 10.0);
        // Per-statement minima 10, 18, 30, 40, 45.
        assert_eq!(value(&metrics, "best_case_p50_ms"), 30.0);
        assert_eq!(value(&metrics, "best_case_p90_ms"), 45.0);
        assert!((value(&metrics, "best_case_qps") - 1e3 / 28.6).abs() < 1e-9);
    }
}
