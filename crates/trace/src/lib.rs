//! `bypass-trace` — zero-dependency span tracing for the bypass engine.
//!
//! Design goals (in priority order):
//!
//! 1. **Free when off.** Tracing is disabled by default; every entry
//!    point starts with a single relaxed atomic load and bails;
//!    `trace.engine_overhead_pct` in `benchmark/run.sh --trace 1`
//!    measures what turning it on costs.
//! 2. **Thread-isolated when on.** Each thread owns a bounded
//!    ring-buffer of events guarded by its own mutex; the global
//!    collector only holds `Arc` handles to those buffers, so workers
//!    of the parallel oracle never contend on a shared log. Buffers
//!    are `Send + Sync` and survive thread exit (the collector keeps
//!    the `Arc` alive), so a scoped worker's spans are still visible
//!    after `join`.
//! 3. **Chrome-trace native.** Events carry microsecond timestamps
//!    from one process-wide monotonic epoch and serialize directly to
//!    the Chrome Trace Event Format (`chrome://tracing`, Perfetto):
//!    `"X"` complete events for spans, `"C"` for counters, `"i"` for
//!    instants, plus `"M"` thread-name metadata — one track per
//!    worker thread.
//!
//! The span API is RAII: [`span`] returns a [`SpanGuard`] that logs a
//! complete event on drop. Nesting is tracked per thread via a depth
//! counter so tests can assert proper stack discipline, and because
//! guards drop innermost-first, exported `ts`/`dur` intervals nest
//! monotonically by construction.

pub mod json;

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default per-thread event capacity; the oldest events are dropped
/// (and counted) once a thread's ring buffer is full.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

static ENABLED: AtomicBool = AtomicBool::new(false);
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process trace epoch (monotonic).
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Globally enable or disable tracing. Disabled tracing records
/// nothing and costs one relaxed atomic load per call site.
pub fn set_enabled(on: bool) {
    // Pin the epoch before the first event so ts starts near zero.
    if on {
        epoch();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Is tracing currently enabled?
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Set the per-thread ring-buffer capacity (events). Applies to
/// buffers lazily, at the next push on each thread.
pub fn set_capacity(events: usize) {
    CAPACITY.store(events.max(16), Ordering::Relaxed);
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Span / counter / instant name.
    pub name: String,
    /// Chrome phase: `'X'` complete span, `'C'` counter, `'i'` instant.
    pub phase: char,
    /// Microseconds since the process trace epoch.
    pub ts_us: u64,
    /// Duration in microseconds (spans only; 0 otherwise).
    pub dur_us: u64,
    /// Stable per-thread track id (assigned on first use, 1-based).
    pub tid: u64,
    /// Span nesting depth at the time the event *started* (0 = root).
    pub depth: u32,
    /// Key/value payload rendered into the Chrome `args` object.
    pub args: Vec<(String, ArgValue)>,
}

/// Argument payload values; serialized as native JSON types.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I64(v)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// Per-thread bounded event log plus span-stack bookkeeping.
struct ThreadBuf {
    tid: u64,
    thread_name: String,
    events: VecDeque<Event>,
    /// Current span nesting depth on this thread.
    depth: u32,
    /// Events discarded because the ring buffer was full.
    dropped: u64,
}

impl ThreadBuf {
    fn push(&mut self, ev: Event) {
        let cap = CAPACITY.load(Ordering::Relaxed);
        while self.events.len() >= cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }
}

/// Global registry of every thread's buffer. Only touched on thread
/// first-use, [`take_events`], and [`clear`]; the hot path locks the
/// (uncontended) per-thread mutex only.
fn collector() -> &'static Mutex<Vec<Arc<Mutex<ThreadBuf>>>> {
    static COLLECTOR: OnceLock<Mutex<Vec<Arc<Mutex<ThreadBuf>>>>> = OnceLock::new();
    COLLECTOR.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: Arc<Mutex<ThreadBuf>> = {
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        let thread_name = std::thread::current()
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("thread-{tid}"));
        let buf = Arc::new(Mutex::new(ThreadBuf {
            tid,
            thread_name,
            events: VecDeque::new(),
            depth: 0,
            dropped: 0,
        }));
        collector().lock().unwrap().push(Arc::clone(&buf));
        buf
    };
}

/// RAII span: logs a `'X'` complete event covering its lifetime.
/// Obtained from [`span`]; attach payload with [`SpanGuard::arg`].
#[must_use = "a span measures the scope it is alive in"]
pub struct SpanGuard {
    /// `None` when tracing was disabled at construction.
    live: Option<SpanLive>,
}

struct SpanLive {
    name: String,
    start_us: u64,
    depth: u32,
    args: Vec<(String, ArgValue)>,
}

impl SpanGuard {
    /// A guard that records nothing (used when tracing is off).
    pub fn disabled() -> Self {
        SpanGuard { live: None }
    }

    /// Is this guard actually recording?
    pub fn is_recording(&self) -> bool {
        self.live.is_some()
    }

    /// Attach a key/value argument to the span (no-op when disabled).
    pub fn arg(&mut self, key: &str, value: impl Into<ArgValue>) {
        if let Some(live) = &mut self.live {
            live.args.push((key.to_string(), value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let end_us = now_us();
        LOCAL.with(|buf| {
            let mut b = buf.lock().unwrap();
            b.depth = b.depth.saturating_sub(1);
            let ev = Event {
                name: live.name,
                phase: 'X',
                ts_us: live.start_us,
                dur_us: end_us.saturating_sub(live.start_us),
                tid: b.tid,
                depth: live.depth,
                args: live.args,
            };
            b.push(ev);
        });
    }
}

/// Open a span. Returns a no-op guard when tracing is disabled.
#[inline]
pub fn span(name: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard::disabled();
    }
    span_slow(name)
}

#[cold]
fn span_slow(name: &str) -> SpanGuard {
    let start_us = now_us();
    let depth = LOCAL.with(|buf| {
        let mut b = buf.lock().unwrap();
        let d = b.depth;
        b.depth += 1;
        d
    });
    SpanGuard {
        live: Some(SpanLive {
            name: name.to_string(),
            start_us,
            depth,
            args: Vec::new(),
        }),
    }
}

/// Record an instant event (`'i'` phase) with optional args.
pub fn instant(name: &str, args: Vec<(String, ArgValue)>) {
    if !enabled() {
        return;
    }
    let ts_us = now_us();
    LOCAL.with(|buf| {
        let mut b = buf.lock().unwrap();
        let ev = Event {
            name: name.to_string(),
            phase: 'i',
            ts_us,
            dur_us: 0,
            tid: b.tid,
            depth: b.depth,
            args,
        };
        b.push(ev);
    });
}

/// Record a counter sample (`'C'` phase): one named series value.
pub fn counter(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    let ts_us = now_us();
    LOCAL.with(|buf| {
        let mut b = buf.lock().unwrap();
        let ev = Event {
            name: name.to_string(),
            phase: 'C',
            ts_us,
            dur_us: 0,
            tid: b.tid,
            depth: b.depth,
            args: vec![("value".to_string(), ArgValue::U64(value))],
        };
        b.push(ev);
    });
}

/// Current span nesting depth on the calling thread (for tests).
pub fn current_depth() -> u32 {
    LOCAL.with(|buf| buf.lock().unwrap().depth)
}

/// The trace-track id of the calling thread.
pub fn current_tid() -> u64 {
    LOCAL.with(|buf| buf.lock().unwrap().tid)
}

/// Total events dropped process-wide due to ring-buffer overflow.
pub fn dropped_events() -> u64 {
    let bufs = collector().lock().unwrap();
    bufs.iter().map(|b| b.lock().unwrap().dropped).sum()
}

/// Drain every thread's buffer into one list, ordered by
/// `(tid, ts_us)` so per-track event order is stable.
pub fn take_events() -> Vec<Event> {
    let bufs = collector().lock().unwrap();
    let mut out = Vec::new();
    for buf in bufs.iter() {
        let mut b = buf.lock().unwrap();
        out.extend(b.events.drain(..));
    }
    out.sort_by_key(|a| (a.tid, a.ts_us, a.dur_us));
    out
}

/// Discard all buffered events (buffers stay registered).
pub fn clear() {
    let bufs = collector().lock().unwrap();
    for buf in bufs.iter() {
        let mut b = buf.lock().unwrap();
        b.events.clear();
        b.dropped = 0;
    }
}

/// Names of all registered thread tracks, by tid.
fn thread_names() -> Vec<(u64, String)> {
    let bufs = collector().lock().unwrap();
    let mut out: Vec<(u64, String)> = bufs
        .iter()
        .map(|b| {
            let b = b.lock().unwrap();
            (b.tid, b.thread_name.clone())
        })
        .collect();
    out.sort();
    out.dedup();
    out
}

fn write_args(out: &mut String, args: &[(String, ArgValue)]) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json::quote(k));
        out.push(':');
        match v {
            ArgValue::U64(n) => out.push_str(&n.to_string()),
            ArgValue::I64(n) => out.push_str(&n.to_string()),
            ArgValue::F64(f) => out.push_str(&json::number(*f)),
            ArgValue::Str(s) => out.push_str(&json::quote(s)),
        }
    }
    out.push('}');
}

/// Serialize events to the Chrome Trace Event Format (JSON object
/// form, `{"traceEvents": [...]}`), openable in `chrome://tracing`
/// or Perfetto. Emits one `'M'` thread-name metadata record per
/// registered thread so each worker gets its own named track.
pub fn export_chrome(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 256);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for (tid, name) in thread_names() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":{}}}}}",
            json::quote(&name)
        ));
    }
    for ev in events {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":{},\"cat\":\"bypass\",\"ph\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{}",
            json::quote(&ev.name),
            ev.phase,
            ev.tid,
            ev.ts_us
        ));
        if ev.phase == 'X' {
            out.push_str(&format!(",\"dur\":{}", ev.dur_us));
        }
        if !ev.args.is_empty() {
            out.push_str(",\"args\":");
            write_args(&mut out, &ev.args);
        }
        out.push('}');
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Convenience: drain all buffered events and export them.
pub fn export_chrome_and_clear() -> String {
    let events = take_events();
    export_chrome(&events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// The trace log is process-global; serialize tests that drain it.
    fn lock() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn events_for_current_thread() -> Vec<Event> {
        let tid = current_tid();
        take_events().into_iter().filter(|e| e.tid == tid).collect()
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _g = lock();
        set_enabled(false);
        clear();
        {
            let mut s = span("nope");
            s.arg("k", 1u64);
        }
        instant("nope", Vec::new());
        counter("nope", 7);
        assert!(events_for_current_thread().is_empty());
    }

    #[test]
    fn span_nesting_depths_and_monotonic_intervals() {
        let _g = lock();
        set_enabled(true);
        clear();
        {
            let _outer = span("outer");
            assert_eq!(current_depth(), 1);
            {
                let _inner = span("inner");
                assert_eq!(current_depth(), 2);
            }
            assert_eq!(current_depth(), 1);
            let _sibling = span("sibling");
        }
        set_enabled(false);
        assert_eq!(current_depth(), 0);
        let evs = events_for_current_thread();
        let find = |n: &str| evs.iter().find(|e| e.name == n).unwrap();
        let (outer, inner, sibling) = (find("outer"), find("inner"), find("sibling"));
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(sibling.depth, 1);
        // Children nest inside the parent interval.
        for child in [inner, sibling] {
            assert!(child.ts_us >= outer.ts_us);
            assert!(child.ts_us + child.dur_us <= outer.ts_us + outer.dur_us);
        }
    }

    #[test]
    fn spans_are_thread_isolated() {
        let _g = lock();
        set_enabled(true);
        clear();
        let main_tid = current_tid();
        let _outer = span("main-outer");
        let worker_tid = std::thread::spawn(|| {
            // A fresh thread starts at depth 0 regardless of the
            // spawner's open spans.
            assert_eq!(current_depth(), 0);
            let _s = span("worker-span");
            assert_eq!(current_depth(), 1);
            current_tid()
        })
        .join()
        .unwrap();
        drop(_outer);
        set_enabled(false);
        assert_ne!(main_tid, worker_tid);
        let evs = take_events();
        let worker = evs.iter().find(|e| e.name == "worker-span").unwrap();
        assert_eq!(worker.tid, worker_tid);
        let main = evs.iter().find(|e| e.name == "main-outer").unwrap();
        assert_eq!(main.tid, main_tid);
    }

    #[test]
    fn ring_buffer_bounds_and_counts_drops() {
        let _g = lock();
        set_enabled(true);
        clear();
        set_capacity(16);
        for i in 0..40 {
            counter("c", i);
        }
        set_enabled(false);
        let evs = events_for_current_thread();
        assert_eq!(evs.len(), 16);
        // The survivors are the most recent samples.
        assert_eq!(evs.last().unwrap().args[0].1, ArgValue::U64(39));
        assert!(dropped_events() >= 24);
        clear();
        set_capacity(DEFAULT_CAPACITY);
        assert_eq!(dropped_events(), 0);
    }

    #[test]
    fn chrome_export_is_valid_json_with_tracks() {
        let _g = lock();
        set_enabled(true);
        clear();
        {
            let mut s = span("q\"uoted\\name");
            s.arg("rows", 12u64);
            s.arg("ratio", 0.5f64);
            s.arg("why", "no \"aggregate\"");
        }
        instant("mark", vec![("n".into(), ArgValue::I64(-3))]);
        counter("neg_rows", 9);
        set_enabled(false);
        let json_text = export_chrome_and_clear();
        json::validate(&json_text).expect("chrome export must be valid JSON");
        assert!(json_text.contains("\"ph\":\"M\""));
        assert!(json_text.contains("\"ph\":\"X\""));
        assert!(json_text.contains("\"ph\":\"C\""));
        assert!(json_text.contains("\"displayTimeUnit\""));
    }
}
