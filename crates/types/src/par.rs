//! Minimal scoped-thread fan-out for embarrassingly parallel work.
//!
//! The engine's read path is shared-nothing (`Arc`-based catalog, no
//! interior mutability), so independent units — strategy-matrix cells of
//! the differential oracle, `fig7` grid rows, the morsels of one
//! operator loop — can run on plain scoped threads. There is
//! deliberately **no** work stealing and no thread pool: workers pull
//! the next index from one atomic counter and results return in input
//! order, which keeps every downstream report deterministic regardless
//! of thread count. A parked pool was measured and not built: onto the
//! other CPU a spawn plus join costs 45–65 µs on the benchmark host, a
//! condvar wake-up and reply 44–51 µs, and the executor only forks
//! loops worth a millisecond or more (EXPERIMENTS.md, *Work gate*).
//!
//! The worker count comes from `BYPASS_THREADS` (default: available
//! parallelism; `1` disables threading entirely and runs inline).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

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

/// The machine's available parallelism, asked once per process: std
/// reads the cgroup quota files on every call, and every statement's
/// options ask (`BYPASS_THREADS` is still read per call).
fn default_parallelism() -> usize {
    static MACHINE: OnceLock<usize> = OnceLock::new();
    *MACHINE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
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
    let mut stateless = vec![(); threads.max(1)];
    scoped_map_with(&mut stateless, items, |(), i, t| f(i, t))
}

/// [`scoped_map`] with one worker per element of `states`, each lent
/// its element for every item it pulls — scratch that is expensive to
/// build and must outlive one item (the executor's per-thread worker
/// contexts). The calling thread works on `states[0]`; which worker
/// serves which item is not deterministic, only the result order is.
pub fn scoped_map_with<S, T, R, F>(states: &mut [S], items: &[T], f: F) -> Vec<R>
where
    S: Send,
    T: Sync,
    R: Send,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = states.len().min(n);
    let Some((own, lent)) = states.split_first_mut() else {
        assert!(n == 0, "scoped_map_with: items but no worker state");
        return Vec::new();
    };
    if workers <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(own, i, t))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);

    // Workers (and the caller) pull the next index from one counter and
    // collect `(index, result)` pairs; the caller scatters them into the
    // result slots afterwards — O(n), no locks, no unsafe.
    let pull = |state: &mut S| {
        let mut got: Vec<(usize, R)> = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            got.push((i, f(state, i, &items[i])));
        }
        got
    };
    std::thread::scope(|scope| {
        // The calling thread is worker 0: spawn one thread fewer and
        // pull alongside them instead of idling in `join`.
        let handles: Vec<_> = lent[..workers - 1]
            .iter_mut()
            .map(|state| scope.spawn(move || pull(state)))
            .collect();
        let mut done = pull(own);
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
    fn lent_state_stays_with_its_worker() {
        // Every item is served by exactly one state, every state only
        // ever by one thread at a time (`&mut`), and the result order
        // is the input order whatever the split.
        let items: Vec<u64> = (0..257).collect();
        for workers in [1, 2, 3, 8, 300] {
            let mut served = vec![0u64; workers];
            let out = scoped_map_with(&mut served, &items, |count, _, &x| {
                *count += 1;
                x * 3
            });
            assert_eq!(out, scoped_map(&items, 1, |_, &x| x * 3));
            assert_eq!(served.iter().sum::<u64>(), 257, "workers={workers}");
        }
        let none: &mut [u8] = &mut [];
        assert!(scoped_map_with(none, &[] as &[u8], |_, _, x| *x).is_empty());
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
