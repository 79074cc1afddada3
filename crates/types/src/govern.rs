//! Resource-governance primitives shared by the executor, the `Database`
//! front-end and the fault-injection oracle.
//!
//! Three pieces live here because they must be visible both *below* the
//! executor (where budgets are enforced) and *above* it (where callers
//! create tokens and the test harness plans injections):
//!
//! * [`CancelToken`] — a shareable cooperative-cancellation flag. Cloning
//!   is a refcount bump; `cancel()` from any thread makes every governor
//!   checkpoint in the running query return [`crate::Error::Cancelled`]
//!   (`crate::Error::Cancelled`).
//! * [`InjectedFault`] / [`FaultKind`] — a deterministic fault plan: "at
//!   governor checkpoint `k`, behave as if `<fault>` happened". Checkpoints
//!   are counted identically on every run of the same plan over the same
//!   data, so an injection is exactly reproducible — no timing involved.
//! * The **byte model** ([`SHARED_ROW_BYTES`], [`ROW_OVERHEAD_BYTES`],
//!   [`VALUE_BYTES`], [`value_heap_bytes`], [`tuple_bytes`]) — the fixed
//!   per-allocation costs the governor charges at materialization points.
//!   The constants are deliberately platform-independent so that peak
//!   memory counters can be pinned in `tests/counters.golden`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::tuple::Tuple;
use crate::value::Value;

/// Cost of pushing an already-materialized shared row (`Tuple` clone =
/// `Arc` refcount bump + fat pointer) into an output vector.
pub const SHARED_ROW_BYTES: u64 = 16;

/// Fixed overhead of materializing a fresh row: the `Arc<[Value]>` header
/// (strong + weak counts) plus the fat pointer stored in the vector.
pub const ROW_OVERHEAD_BYTES: u64 = 32;

/// Cost of one inline [`Value`] slot (tag + 8-byte payload, matching the
/// 64-bit layout of the enum).
pub const VALUE_BYTES: u64 = 16;

/// Heap bytes owned by a value beyond its inline slot. Only `Text` carries
/// a heap allocation; its `Arc<str>` is charged at string length (header
/// amortized into [`ROW_OVERHEAD_BYTES`]-style constants elsewhere).
#[inline]
pub fn value_heap_bytes(v: &Value) -> u64 {
    match v {
        Value::Text(s) => s.len() as u64,
        _ => 0,
    }
}

/// Deterministic cost of materializing `t` fresh: fixed overhead plus one
/// inline slot per column plus any text heap bytes.
#[inline]
pub fn tuple_bytes(t: &Tuple) -> u64 {
    let mut bytes = ROW_OVERHEAD_BYTES + t.values().len() as u64 * VALUE_BYTES;
    for v in t.values() {
        bytes += value_heap_bytes(v);
    }
    bytes
}

/// A shareable cooperative-cancellation flag.
///
/// Clone the token, hand one clone to the query (via
/// `ExecOptions::cancel` / `RunLimits::cancel`) and keep the
/// other; calling [`cancel`](CancelToken::cancel) from any thread makes
/// the running query return [`Error::Cancelled`](crate::Error::Cancelled)
/// at its next governor checkpoint. Tokens are reusable: call
/// [`reset`](CancelToken::reset) to arm the same token for another run.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken(Arc::new(AtomicBool::new(false)))
    }

    /// Request cancellation. Safe to call from any thread, any number of
    /// times; the query observes it at its next checkpoint.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Has cancellation been requested?
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }

    /// Re-arm the token for another run.
    pub fn reset(&self) {
        self.0.store(false, Ordering::Relaxed);
    }
}

/// Which failure an [`InjectedFault`] simulates when its checkpoint is
/// reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Behave as if the memory budget tripped at this checkpoint.
    Memory,
    /// Behave as if the wall-clock deadline passed at this checkpoint.
    Deadline,
    /// Behave as if the cancel token fired at this checkpoint.
    Cancel,
}

/// A deterministic fault plan: at governor checkpoint `checkpoint`
/// (1-based, counted across the whole query execution), fail with `kind`.
///
/// Fault injection bypasses the real guards — no budget, deadline or
/// token needs to be configured — so the *error path* itself is exercised
/// at an exactly reproducible program point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// 1-based checkpoint index at which the fault fires.
    pub checkpoint: u64,
    /// Which typed error to raise.
    pub kind: FaultKind,
}

impl InjectedFault {
    pub fn new(checkpoint: u64, kind: FaultKind) -> Self {
        InjectedFault { checkpoint, kind }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_roundtrip() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        let c = t.clone();
        c.cancel();
        assert!(t.is_cancelled());
        t.reset();
        assert!(!c.is_cancelled());
    }

    #[test]
    fn byte_model_is_deterministic() {
        let t = Tuple::new(vec![Value::Int(1), Value::Null, Value::text("abc")]);
        // 32 fixed + 3 slots * 16 + 3 text bytes.
        assert_eq!(tuple_bytes(&t), 32 + 48 + 3);
        assert_eq!(value_heap_bytes(&Value::Float(1.5)), 0);
        assert_eq!(value_heap_bytes(&Value::text("xyzw")), 4);
    }
}
