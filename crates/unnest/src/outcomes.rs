//! Always-on equivalence fire counters.
//!
//! The `unnest.attach` trace span records which of Eqv. 1–5 fired
//! (or why a subquery stayed nested) — but only when tracing is
//! enabled. The metrics registry wants those counts on every run, so
//! each outcome site also bumps a thread-local tally here,
//! unconditionally. Planning is single-threaded on the calling
//! thread, so the engine facade drains this tally right after the
//! rewrite completes ([`take_outcomes`]) and folds it into the
//! process metrics hub; the thread-local never outlives one
//! prepare call's scope in practice.
//!
//! Keys are `&'static str` and the tally is a tiny scan-vector, so a
//! record costs a TLS access plus a few pointer compares — cheap
//! enough to leave on for every statement.

use std::cell::RefCell;

thread_local! {
    static COUNTS: RefCell<Vec<(&'static str, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Bump the tally for one attempt outcome (e.g.
/// `"eqv1:gamma-outerjoin"`, `"rejected:hidden-correlation"`,
/// `"bypass:chain"`, `"union:rewrite"`).
pub fn record_outcome(key: &'static str) {
    COUNTS.with(|c| {
        let mut counts = c.borrow_mut();
        if let Some((_, n)) = counts.iter_mut().find(|(k, _)| *k == key) {
            *n += 1;
        } else {
            counts.push((key, 1));
        }
    });
}

/// Drain the calling thread's tally, sorted by key (deterministic
/// regardless of which equivalences were attempted first).
pub fn take_outcomes() -> Vec<(&'static str, u64)> {
    COUNTS.with(|c| {
        let mut out: Vec<(&'static str, u64)> = c.borrow_mut().drain(..).collect();
        out.sort_unstable();
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_and_drain_sorted() {
        let _ = take_outcomes();
        record_outcome("z:last");
        record_outcome("a:first");
        record_outcome("z:last");
        assert_eq!(take_outcomes(), vec![("a:first", 1), ("z:last", 2)]);
        assert!(take_outcomes().is_empty(), "drain resets the tally");
    }
}
