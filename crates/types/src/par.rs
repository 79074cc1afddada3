//! Minimal scoped-thread fan-out for embarrassingly parallel work.
//!
//! The engine's read path is shared-nothing (`Arc`-based catalog, no
//! interior mutability), so independent units — strategy-matrix cells of
//! the differential oracle, bench grid cells — can run on plain scoped
//! threads. There is deliberately **no** work stealing and no thread
//! pool: workers pull the next index from one atomic counter and write
//! results into disjoint slots, which keeps output order (and therefore
//! every downstream report) deterministic regardless of thread count.
//!
//! The worker count comes from `BYPASS_THREADS` (default: available
//! parallelism; `1` disables threading entirely and runs inline).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable controlling the worker count.
pub const THREADS_ENV: &str = "BYPASS_THREADS";

/// Worker count: `BYPASS_THREADS` if set (clamped to ≥1), otherwise the
/// machine's available parallelism.
pub fn thread_count() -> usize {
    thread_count_or(default_parallelism())
}

/// Worker count: `BYPASS_THREADS` if set, otherwise `default`. `fig7`
/// passes `default = 1` so its timing runs stay serial unless asked.
pub fn thread_count_or(default: usize) -> usize {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(default)
        .max(1)
}

fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Apply `f` to every item on up to `threads` workers — the calling
/// thread plus `threads − 1` scoped threads — and return the results
/// **in input order**. `threads <= 1` runs inline (no spawn); panics in
/// workers propagate to the caller.
pub fn scoped_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let n = items.len();
    let workers = threads.min(n);
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);

    // Workers (and the caller) pull the next index from one counter and
    // collect `(index, result)` pairs; the caller scatters them into the
    // result slots afterwards — O(n), no locks, no unsafe.
    let pull = || {
        let mut got: Vec<(usize, R)> = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            got.push((i, f(i, &items[i])));
        }
        got
    };
    std::thread::scope(|scope| {
        // The calling thread is worker 0: spawn one thread fewer and
        // pull alongside them instead of idling in `join`.
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(pull)).collect();
        let mut done = pull();
        for h in handles {
            done.extend(h.join().expect("worker panicked"));
        }
        for (i, r) in done {
            slots[i] = Some(r);
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every slot filled"))
        .collect()
}

/// Like [`scoped_map`], but stops scheduling new items once any item
/// yields `Some(E)`; returns the error from the **lowest** input index
/// (deterministic across thread counts) or all results.
pub fn scoped_try_map<T, R, E, F>(
    items: &[T],
    threads: usize,
    f: F,
) -> std::result::Result<Vec<R>, (usize, E)>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> std::result::Result<R, E> + Sync,
{
    let stop = AtomicUsize::new(usize::MAX);
    let results = scoped_map(items, threads, |i, t| {
        if stop.load(Ordering::Relaxed) < i {
            // An earlier item already failed; skip the tail cheaply.
            return None;
        }
        match f(i, t) {
            Ok(r) => Some(Ok(r)),
            Err(e) => {
                stop.fetch_min(i, Ordering::Relaxed);
                Some(Err(e))
            }
        }
    });
    // Lowest-index error wins, regardless of completion order.
    let mut out = Vec::with_capacity(items.len());
    for (i, r) in results.into_iter().enumerate() {
        match r {
            Some(Ok(v)) => out.push(v),
            Some(Err(e)) => return Err((i, e)),
            None => return Err(match_skipped(i)),
        }
    }
    Ok(out)
}

// A skipped slot can only occur after a failure at a lower index, which
// returns first. Reaching it means the failing item itself was skipped —
// impossible because `stop < i` strictly.
fn match_skipped<E>(i: usize) -> (usize, E) {
    unreachable!("item {i} skipped without a lower-index error")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_across_thread_counts() {
        let items: Vec<u64> = (0..257).collect();
        let serial = scoped_map(&items, 1, |_, &x| x * 3);
        for threads in [2, 3, 8] {
            let parallel = scoped_map(&items, threads, |_, &x| x * 3);
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_item() {
        let none: Vec<i32> = vec![];
        assert!(scoped_map(&none, 4, |_, x| *x).is_empty());
        assert_eq!(scoped_map(&[9], 4, |i, x| (i, *x)), vec![(0, 9)]);
    }

    #[test]
    fn try_map_reports_lowest_failing_index() {
        let items: Vec<u32> = (0..64).collect();
        for threads in [1, 2, 7] {
            let err = scoped_try_map(&items, threads, |_, &x| {
                if x % 10 == 3 {
                    Err(format!("bad {x}"))
                } else {
                    Ok(x)
                }
            })
            .unwrap_err();
            assert_eq!(err.0, 3, "threads={threads}");
            assert_eq!(err.1, "bad 3");
        }
    }

    #[test]
    fn try_map_ok_collects_everything() {
        let items: Vec<u32> = (0..50).collect();
        let out: Vec<u32> = scoped_try_map(&items, 4, |_, &x| Ok::<_, ()>(x + 1)).unwrap();
        assert_eq!(out.len(), 50);
        assert_eq!(out[49], 50);
    }

    #[test]
    fn thread_count_env_override() {
        // Don't mutate the real environment (tests run threaded);
        // exercise the default path and the clamp logic instead.
        assert!(thread_count() >= 1);
        assert_eq!(thread_count_or(1).max(1), thread_count_or(1));
    }
}
