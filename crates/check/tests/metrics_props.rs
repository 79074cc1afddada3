//! Property tests for the `bypass-metrics` histogram and registry:
//! merging is commutative/associative, folding is partition- (i.e.
//! worker-count-) independent, and the log-linear bucket layout keeps
//! every observation inside its claimed bucket bounds.

use bypass_check::{forall, vec_of, Gen, Rng};
use bypass_metrics::{
    bucket_index, bucket_upper, ExecObservation, Histogram, MetricsHub, Registry, MAX_FINGERPRINTS,
};

/// Log-uniform `u64`s: random magnitude, then random bits — so the
/// cases exercise every octave of the bucket layout, not just the
/// top one.
fn log_uniform() -> Gen<u64> {
    Gen::new(|rng| {
        let shift = rng.gen_range(0..64) as u32;
        rng.next_u64() >> shift
    })
}

fn values() -> Gen<Vec<u64>> {
    vec_of(log_uniform(), 0, 200)
}

fn hist_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.observe(v);
    }
    h
}

#[test]
fn merge_is_commutative_and_agrees_with_serial() {
    forall(&values(), |vs| {
        let split = vs.len() / 2;
        let (a, b) = (hist_of(&vs[..split]), hist_of(&vs[split..]));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        let serial = hist_of(vs);
        assert_eq!(ab.snapshot(), ba.snapshot(), "merge is not commutative");
        assert_eq!(ab.snapshot(), serial.snapshot(), "merge != serial observe");
        assert_eq!(ab.count(), vs.len() as u64);
        assert_eq!(
            ab.sum(),
            vs.iter().fold(0u64, |acc, &v| acc.saturating_add(v))
        );
    });
}

#[test]
fn fold_is_partition_independent() {
    forall(&values(), |vs| {
        let reference = hist_of(vs).snapshot();
        for workers in [1usize, 2, 3, 8] {
            // Deal values round-robin over `workers` shards, then fold
            // the shards in forward and reverse order: every schedule
            // must reproduce the serial histogram bit-for-bit.
            let mut shards = vec![Histogram::new(); workers];
            for (i, &v) in vs.iter().enumerate() {
                shards[i % workers].observe(v);
            }
            let mut forward = Histogram::new();
            for s in &shards {
                forward.merge(s);
            }
            let mut reverse = Histogram::new();
            for s in shards.iter().rev() {
                reverse.merge(s);
            }
            assert_eq!(forward.snapshot(), reference, "{workers} workers");
            assert_eq!(reverse.snapshot(), reference, "{workers} workers, reversed");
        }
    });
}

#[test]
fn bucket_layout_brackets_every_value() {
    forall(&log_uniform(), |&v| {
        let i = bucket_index(v);
        assert!(v <= bucket_upper(i), "{v} above its bucket upper bound");
        if i > 0 {
            assert!(
                v > bucket_upper(i - 1),
                "{v} not above the previous bucket's upper bound {}",
                bucket_upper(i - 1)
            );
        }
    });
}

#[test]
fn quantile_is_bounded_by_a_bucket_that_saw_the_value() {
    forall(&values(), |vs| {
        let h = hist_of(vs);
        if vs.is_empty() {
            assert_eq!(h.quantile(0.5), 0);
            return;
        }
        let max = *vs.iter().max().unwrap();
        for q in [0.0, 0.5, 0.99, 1.0] {
            let est = h.quantile(q);
            // A quantile estimate is a bucket upper bound, so it can
            // overshoot the true quantile only by the bucket's width:
            // it never exceeds the bucket holding the maximum.
            assert!(
                est <= bucket_upper(bucket_index(max)),
                "quantile({q}) = {est} beyond the max value's bucket ({max})"
            );
        }
    });
}

fn hub_obs(fp: u64, nanos: u64) -> ExecObservation {
    ExecObservation {
        fingerprint: fp,
        sql: format!("SELECT {fp}"),
        strategy: "unnested".into(),
        total_nanos: nanos,
        rows: fp % 7,
        peak_memory_bytes: 64 * fp,
        checkpoints: 1 + fp % 5,
        ..ExecObservation::default()
    }
}

/// Replay the same observation multiset into a hub from `workers`
/// threads, dealt round-robin.
fn record_threaded(hub: &MetricsHub, obs: &[ExecObservation], workers: usize) {
    std::thread::scope(|scope| {
        for w in 0..workers {
            let shard: Vec<&ExecObservation> = obs.iter().skip(w).step_by(workers).collect();
            scope.spawn(move || {
                for o in shard {
                    hub.record_execution(o);
                }
            });
        }
    });
}

/// Below the table capacity nothing is ever evicted, and every
/// per-fingerprint accumulation (exec/row/checkpoint sums, peak-memory
/// max, latency histogram) is commutative — so 8-thread recording must
/// reproduce the serial hub bit-for-bit.
#[test]
fn hub_concurrent_recording_below_capacity_matches_serial() {
    for seed in [1u64, 0xFEED, 0x1CDE_2007] {
        let mut rng = Rng::seed_from_u64(seed);
        let mut obs = Vec::new();
        for fp in 1..=600u64 {
            for _ in 0..rng.gen_range(1..=3u64) {
                obs.push(hub_obs(fp, rng.gen_range(1_000..=9_000_000u64)));
            }
        }
        // Interleave shapes so threads contend on the same entries.
        for i in (1..obs.len()).rev() {
            obs.swap(i, rng.gen_range(0..=i as u64) as usize);
        }
        let serial = MetricsHub::new();
        for o in &obs {
            serial.record_execution(o);
        }
        let threaded = MetricsHub::new();
        record_threaded(&threaded, &obs, 8);

        let sorted = |hub: &MetricsHub| {
            let mut t = hub.query_table();
            t.sort_by_key(|s| s.fingerprint);
            t
        };
        assert_eq!(sorted(&serial), sorted(&threaded), "seed {seed:#x}");
        assert_eq!(
            serial.snapshot().deterministic(),
            threaded.snapshot().deterministic(),
            "seed {seed:#x}"
        );
    }
}

/// Over capacity, the fewest-execs eviction policy is loss-bounded and
/// deterministic under 8-thread recording: hot shapes (recorded first,
/// multiple times) always out-rank the one-shot flood at victim
/// selection, the table never exceeds its capacity and the eviction
/// count is exact.
#[test]
fn hub_eviction_under_concurrent_pressure_is_loss_bounded() {
    let hot = 32u64; // distinct hot shapes, well under capacity
    let flood = MAX_FINGERPRINTS as u64 + 500; // one-shot cold shapes
    let hub = MetricsHub::new();

    // Phase 1: every thread records every hot shape once — each hot
    // fingerprint accumulates 8 execs before any eviction can happen.
    let hot_obs: Vec<ExecObservation> = (1..=hot).map(|fp| hub_obs(fp, 1_000_000 + fp)).collect();
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let hot_obs = &hot_obs;
            let hub = &hub;
            scope.spawn(move || {
                for o in hot_obs {
                    hub.record_execution(o);
                }
            });
        }
    });

    // Phase 2: flood with one-shot shapes from 8 threads. Victim
    // selection is min-(execs, fingerprint), so every eviction hits a
    // one-exec flood entry — never a hot shape — whatever the
    // interleaving.
    let flood_obs: Vec<ExecObservation> = (0..flood)
        .map(|i| hub_obs(10_000 + i, 10_000 + i))
        .collect();
    record_threaded(&hub, &flood_obs, 8);

    let mut table = hub.query_table();
    table.sort_by_key(|s| s.fingerprint);
    assert_eq!(table.len(), MAX_FINGERPRINTS, "table exceeded its bound");
    for fp in 1..=hot {
        let s = table
            .iter()
            .find(|s| s.fingerprint == fp)
            .unwrap_or_else(|| panic!("hot shape {fp} was evicted"));
        assert_eq!(s.execs, 8, "hot shape {fp} lost executions");
    }
    // Exactly (distinct inserts - capacity) evictions; no double
    // counting, no lost evictions.
    let evictions: u64 = hub
        .snapshot()
        .entries
        .iter()
        .filter(|e| e.name == "bypass_fingerprint_evictions_total")
        .map(|e| match e.value {
            bypass_metrics::MetricValue::Counter(n) => n,
            _ => 0,
        })
        .sum();
    assert_eq!(evictions, hot + flood - MAX_FINGERPRINTS as u64);
}

#[test]
fn registry_fold_is_thread_schedule_independent() {
    // Random op streams: (metric selector, value). Applied serially on
    // one thread and round-robin across 4 threads, the deterministic
    // snapshots must be identical — counters sum, gauges max and
    // histogram buckets add, all commutatively.
    let ops = vec_of(
        Gen::new(|rng| {
            (
                rng.gen_range(0..3) as u8,
                rng.next_u64() >> (rng.gen_range(0..64) as u32),
            )
        }),
        0,
        200,
    );
    forall(&ops, |ops| {
        let apply = |reg: &Registry, ops: &[(u8, u64)]| {
            let c = reg.counter("ops_total", "test counter", &[]);
            let g = reg.gauge_max("peak", "test gauge", &[]);
            let h = reg.histogram("sizes", "test histogram", &[], false);
            for &(which, v) in ops {
                match which {
                    0 => reg.add(c, v % 1024),
                    1 => reg.observe_max(g, v),
                    _ => reg.observe(h, v),
                }
            }
        };
        let serial = Registry::new();
        apply(&serial, ops);

        let threaded = Registry::new();
        std::thread::scope(|scope| {
            for w in 0..4 {
                let shard: Vec<(u8, u64)> = ops.iter().copied().skip(w).step_by(4).collect();
                let reg = &threaded;
                let apply = &apply;
                scope.spawn(move || apply(reg, &shard));
            }
        });
        assert_eq!(
            serial.snapshot().deterministic(),
            threaded.snapshot().deterministic()
        );
    });
}
