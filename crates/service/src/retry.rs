//! Retry/backoff policy with deterministic, seeded jitter.
//!
//! The governor is deterministic: a statement that tripped its memory
//! budget will trip it again at the *same* checkpoint if re-run with
//! the same limits. A useful retry therefore has to change something —
//! this policy re-runs [`Error::ResourceExhausted`] (memory) failures
//! with the budget raised by a configurable headroom factor, clamped to
//! the session's hard cap, and re-runs [`Error::AdmissionTimeout`]s
//! (each attempt gets a fresh deadline). Everything else — parse/plan
//! errors, deadline exhaustion, explicit cancellation, overload
//! shedding — is returned to the caller unchanged: retrying a shed
//! statement would re-amplify exactly the load the shed was protecting
//! against.
//!
//! Backoff between attempts is exponential with *full jitter*: attempt
//! `k` sleeps a uniform duration in `[0, min(base * 2^k, max)]`, drawn
//! from the in-tree xoshiro256** stream ([`bypass_types::rng::Rng`]).
//! Each session forks its jitter stream from the service seed and the
//! session id, so a replay with the same `ServiceConfig::seed` produces
//! identical jitter sequences — the backoff is load-shaping, never a
//! correctness input.

use std::time::Duration;

use bypass_types::rng::Rng;
use bypass_types::{Error, ResourceKind};

/// Bounded retry policy with deterministic jitter. `Default` gives two
/// retries, 100% memory headroom (double per attempt), 1ms base / 16ms
/// max backoff.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-run attempts after the first (0 disables retrying).
    pub max_retries: u32,
    /// Memory-budget raise per retry, in percent of the failing budget
    /// (100 ⇒ double). The raise never exceeds the session's cap.
    pub memory_headroom_pct: u32,
    /// Base backoff before the first retry.
    pub base_backoff: Duration,
    /// Upper clamp on any single backoff sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 2,
            memory_headroom_pct: 100,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(16),
        }
    }
}

/// What the policy decided about one failed attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetryDecision {
    /// Give up: the error is not transient (or the budget is spent).
    GiveUp,
    /// Re-run with the same limits (admission timeout: fresh deadline).
    Resubmit,
    /// Re-run with the memory budget raised to this many bytes.
    RaiseMemory(u64),
}

impl RetryPolicy {
    /// Classify one failure. `attempt` is 0-based (the first run is
    /// attempt 0); `current_memory`/`memory_cap` are the failing run's
    /// budget and the session's hard ceiling.
    pub fn decide(
        &self,
        err: &Error,
        attempt: u32,
        current_memory: Option<u64>,
        memory_cap: Option<u64>,
    ) -> RetryDecision {
        if attempt >= self.max_retries {
            return RetryDecision::GiveUp;
        }
        match err {
            Error::AdmissionTimeout { .. } => RetryDecision::Resubmit,
            Error::ResourceExhausted {
                resource: ResourceKind::Memory,
                limit,
                ..
            } => {
                let current = current_memory.unwrap_or(*limit).max(*limit);
                let raised = current.saturating_add(
                    current.saturating_mul(u64::from(self.memory_headroom_pct)) / 100,
                );
                let raised = match memory_cap {
                    Some(cap) => raised.min(cap),
                    None => raised,
                };
                if raised > current {
                    RetryDecision::RaiseMemory(raised)
                } else {
                    // Already at the session cap: a re-run would fail at
                    // the same deterministic checkpoint.
                    RetryDecision::GiveUp
                }
            }
            _ => RetryDecision::GiveUp,
        }
    }

    /// The jittered backoff before retry number `attempt` (0-based):
    /// uniform in `[0, min(base * 2^attempt, max)]`, drawn from `rng`.
    pub fn backoff(&self, attempt: u32, rng: &mut Rng) -> Duration {
        let base = self.base_backoff.as_nanos() as u64;
        if base == 0 {
            return Duration::ZERO;
        }
        let ceiling = base
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.max_backoff.as_nanos() as u64);
        Duration::from_nanos(rng.gen_range(0..=ceiling))
    }
}

/// One transparently retried failure, reported back to the caller in
/// [`RetryReport`] so retries are observable, never silent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryAttempt {
    /// The typed error this attempt failed with.
    pub error: Error,
    /// The jittered backoff slept before re-running.
    pub backoff: Duration,
    /// The raised memory budget of the re-run, if the decision was
    /// [`RetryDecision::RaiseMemory`].
    pub raised_memory: Option<u64>,
}

/// The retry history of one statement: empty on a first-attempt
/// success.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RetryReport {
    /// Failed attempts that were transparently re-run, in order.
    pub attempts: Vec<RetryAttempt>,
}

impl RetryReport {
    /// Number of transparently retried failures.
    pub fn retries(&self) -> usize {
        self.attempts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_raises_under_cap_then_gives_up_at_cap() {
        let p = RetryPolicy::default();
        let err = Error::resource_exhausted(ResourceKind::Memory, 1000, 1500);
        assert_eq!(
            p.decide(&err, 0, Some(1000), Some(10_000)),
            RetryDecision::RaiseMemory(2000)
        );
        // Clamped to the cap, still a strict raise.
        assert_eq!(
            p.decide(&err, 0, Some(1000), Some(1500)),
            RetryDecision::RaiseMemory(1500)
        );
        // Already at the cap: deterministic re-failure, give up.
        assert_eq!(
            p.decide(&err, 0, Some(1500), Some(1500)),
            RetryDecision::GiveUp
        );
        // Retry budget spent.
        assert_eq!(
            p.decide(&err, 2, Some(1000), Some(10_000)),
            RetryDecision::GiveUp
        );
    }

    #[test]
    fn only_transient_classes_retry() {
        let p = RetryPolicy::default();
        let t = Error::AdmissionTimeout {
            queued: 1,
            deadline_ms: 5,
        };
        assert_eq!(p.decide(&t, 0, None, None), RetryDecision::Resubmit);
        for e in [
            Error::Overloaded {
                queued: 4,
                limit: 4,
            },
            Error::Cancelled,
            Error::resource_exhausted(ResourceKind::Time, 5, 9),
            Error::resource_exhausted(ResourceKind::Rows, 10, 20),
            Error::parse("x"),
            Error::Draining,
        ] {
            assert_eq!(p.decide(&e, 0, None, None), RetryDecision::GiveUp, "{e}");
        }
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_seeded() {
        let p = RetryPolicy::default();
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for attempt in 0..6 {
            let x = p.backoff(attempt, &mut a);
            let y = p.backoff(attempt, &mut b);
            assert_eq!(x, y, "same seed, same jitter");
            assert!(x <= p.max_backoff);
        }
        let zero = RetryPolicy {
            base_backoff: Duration::ZERO,
            ..RetryPolicy::default()
        };
        assert_eq!(zero.backoff(3, &mut a), Duration::ZERO);
    }
}
