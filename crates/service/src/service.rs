//! The multi-session query service: sessions, quotas, degradation
//! tiers, drain, and the per-statement execute loop tying admission,
//! governed execution and retry together.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bypass_core::{Database, ExecCounters, RunLimits, Strategy};
use bypass_metrics::{MetricId, Registry};
use bypass_types::rng::Rng;
use bypass_types::{tuple_bytes, CancelToken, Error, QuotaKind, Relation, Result};

use crate::admission::AdmissionController;
use crate::retry::{RetryAttempt, RetryDecision, RetryPolicy, RetryReport};

/// One graceful-degradation tier: when sustained pressure crosses
/// either watermark, new admissions run under these tighter caps
/// instead of being failed. Tiers are ordered mild → strict in
/// [`DegradePolicy::tiers`]; the strictest tier whose watermark is
/// crossed wins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradeTier {
    /// Activate when the admission queue is at least this deep.
    pub queue_depth: usize,
    /// Activate when the hub's governor peak-memory watermark (bytes)
    /// reaches this value ([`bypass_metrics::MetricsHub::peak_memory_bytes`]).
    pub peak_memory_bytes: u64,
    /// The tier's per-statement memory cap (bytes).
    pub max_memory_bytes: u64,
    /// The tier's per-statement deadline, if tightened.
    pub timeout: Option<Duration>,
}

/// Graceful-degradation policy: an empty tier list disables
/// degradation (every admission runs at full session limits).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DegradePolicy {
    /// Tiers ordered mild → strict; index `i` is reported as tier
    /// `i + 1` (tier 0 = full limits).
    pub tiers: Vec<DegradeTier>,
}

/// Service-wide configuration, built in code by whoever owns the
/// service (there are no environment knobs).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Statements executing concurrently (admission gate width).
    pub max_concurrency: usize,
    /// Statements allowed to wait beyond the gate (0 = shed when busy).
    pub queue_limit: usize,
    /// Retry/backoff policy for transient failures.
    pub retry: RetryPolicy,
    /// Graceful-degradation tiers.
    pub degrade: DegradePolicy,
    /// Root seed for per-session jitter streams (replay knob).
    pub seed: u64,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            max_concurrency: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(8),
            queue_limit: 16,
            retry: RetryPolicy::default(),
            degrade: DegradePolicy::default(),
            seed: 0x00B1_9A55_5EED,
        }
    }
}

/// Per-session quotas, checked at admission time (a rejected statement
/// never reaches the parser). `Default` is permissive: callers opt in
/// to each cap.
#[derive(Debug, Clone, Default)]
pub struct SessionQuotas {
    /// Max statements this session may have in flight at once
    /// (`None` = unlimited).
    pub max_in_flight: Option<u64>,
    /// Per-statement governor memory cap (bytes) — also the ceiling
    /// the retry policy may raise a degraded budget back up to.
    pub max_memory_bytes: Option<u64>,
    /// Per-statement wall-clock deadline (also bounds queueing time).
    pub timeout: Option<Duration>,
    /// Cumulative result-byte budget over the session's lifetime
    /// (deterministic byte model, [`bypass_types::tuple_bytes`]).
    pub byte_budget: Option<u64>,
    /// Per-session statement-size cap (bytes of SQL text); the
    /// engine-level [`Database::statement_cap`] still applies.
    pub max_statement_bytes: Option<usize>,
}

/// One service counter: the service's own count and the id of its
/// `bypass_service_{field}_total` series in the database's registry.
struct Counter {
    n: AtomicU64,
    id: MetricId,
}

macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// Count-derived service counters (no timing content) — mirrored
        /// into the database's [`MetricsHub`] registry as
        /// `bypass_service_*_total` series, registered once by
        /// [`QueryService::new`], and pinned, per scenario, in
        /// `tests/counters.golden`.
        struct Counters {
            $($field: Counter,)*
        }

        impl Counters {
            /// Registration is idempotent: services sharing a hub share
            /// its series.
            fn register(reg: &Registry) -> Counters {
                Counters {
                    $($field: Counter {
                        n: AtomicU64::new(0),
                        id: reg.counter(
                            concat!("bypass_service_", stringify!($field), "_total"),
                            concat!("Service admission counter: ", stringify!($field)),
                            &[],
                        ),
                    },)*
                }
            }

            fn snapshot(&self) -> CountersSnapshot {
                CountersSnapshot {
                    $($field: self.$field.n.load(Ordering::Relaxed),)*
                }
            }
        }
    };
}

counters! {
    submitted, admitted, completed, failed, shed, admission_timeouts,
    retries, degraded, quota_rejected, oversized, drain_rejected, cancelled,
}

/// A point-in-time copy of the service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountersSnapshot {
    /// Statements submitted through any session.
    pub submitted: u64,
    /// Statements that obtained an execution slot.
    pub admitted: u64,
    /// Statements that returned rows.
    pub completed: u64,
    /// Statements that returned a non-admission error.
    pub failed: u64,
    /// Submissions shed with `Overloaded` (queue full).
    pub shed: u64,
    /// Submissions rejected with `AdmissionTimeout`.
    pub admission_timeouts: u64,
    /// Transparent re-runs performed by the retry policy.
    pub retries: u64,
    /// Admissions that ran under a degraded tier.
    pub degraded: u64,
    /// Submissions rejected by a session quota.
    pub quota_rejected: u64,
    /// Submissions rejected by a statement-size cap.
    pub oversized: u64,
    /// Submissions rejected because the service was draining.
    pub drain_rejected: u64,
    /// Statements that ended with `Error::Cancelled`.
    pub cancelled: u64,
}

struct Inner {
    db: Arc<Database>,
    strategy: Strategy,
    adm: AdmissionController,
    cfg: ServiceConfig,
    counters: Counters,
    /// Cancel tokens of in-flight statements: `(session, statement)`
    /// so a session can cancel only its own work while `drain()`
    /// cancels everything.
    active: Mutex<Vec<(u64, u64, CancelToken)>>,
    next_session: AtomicU64,
    next_statement: AtomicU64,
}

macro_rules! bump {
    ($inner:expr, $field:ident) => {{
        let counter = &$inner.counters.$field;
        counter.n.fetch_add(1, Ordering::Relaxed);
        $inner.db.metrics_hub().registry().add(counter.id, 1);
    }};
}

impl Inner {
    /// The strictest degradation tier whose watermark is crossed
    /// (0 = none). Signals: live admission-queue depth and the hub's
    /// governor peak-memory watermark — both count-derived.
    fn resolve_tier(&self) -> usize {
        if self.cfg.degrade.tiers.is_empty() {
            return 0;
        }
        let queue_depth = self.adm.queue_depth();
        let peak = self.db.metrics_hub().peak_memory_bytes();
        let mut tier = 0;
        for (i, t) in self.cfg.degrade.tiers.iter().enumerate() {
            if queue_depth >= t.queue_depth || peak >= t.peak_memory_bytes {
                tier = i + 1;
            }
        }
        tier
    }
}

/// The multi-session front-end over a shared [`Database`]. Cheap to
/// clone (all clones share one admission controller and counter set).
#[derive(Clone)]
pub struct QueryService {
    inner: Arc<Inner>,
}

impl QueryService {
    /// A service over `db`, executing every statement under `strategy`.
    pub fn new(db: Arc<Database>, strategy: Strategy, cfg: ServiceConfig) -> QueryService {
        QueryService {
            inner: Arc::new(Inner {
                adm: AdmissionController::new(cfg.max_concurrency, cfg.queue_limit),
                counters: Counters::register(db.metrics_hub().registry()),
                db,
                strategy,
                cfg,
                active: Mutex::new(Vec::new()),
                next_session: AtomicU64::new(1),
                next_statement: AtomicU64::new(1),
            }),
        }
    }

    /// Open a session with the given quotas.
    pub fn session(&self, quotas: SessionQuotas) -> Session {
        let id = self.inner.next_session.fetch_add(1, Ordering::Relaxed);
        // Session jitter streams are forked off the service seed by
        // session id, so replays with a pinned seed are bit-stable no
        // matter which threads open the sessions.
        let mut root = Rng::seed_from_u64(self.inner.cfg.seed ^ id.wrapping_mul(0x9E37_79B9));
        Session {
            inner: Arc::clone(&self.inner),
            id,
            quotas,
            in_flight: AtomicU64::new(0),
            bytes_used: AtomicU64::new(0),
            rng: Mutex::new(root.fork()),
        }
    }

    /// The shared database (reusable after [`QueryService::drain`]).
    pub fn database(&self) -> &Arc<Database> {
        &self.inner.db
    }

    /// The admission controller (saturation hooks for tests).
    pub fn admission(&self) -> &AdmissionController {
        &self.inner.adm
    }

    /// Stop admissions, cancel every in-flight statement via its
    /// [`CancelToken`], and wait until the engine is quiescent. The
    /// `Database` is untouched and reusable; call
    /// [`QueryService::resume`] to re-open admissions.
    pub fn drain(&self) {
        self.inner.adm.drain_begin();
        for (_, _, token) in self.inner.active.lock().unwrap().iter() {
            token.cancel();
        }
        self.inner.adm.wait_idle();
    }

    /// Re-open admissions after a [`QueryService::drain`].
    pub fn resume(&self) {
        self.inner.adm.resume();
    }

    /// True while draining (admissions rejected with `Draining`).
    pub fn is_draining(&self) -> bool {
        self.inner.adm.is_draining()
    }

    /// A point-in-time copy of the count-derived service counters.
    pub fn counters(&self) -> CountersSnapshot {
        self.inner.counters.snapshot()
    }
}

impl std::fmt::Debug for QueryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryService")
            .field("strategy", &self.inner.strategy)
            .field("max_concurrency", &self.inner.cfg.max_concurrency)
            .field("queue_limit", &self.inner.cfg.queue_limit)
            .finish_non_exhaustive()
    }
}

/// A successful statement execution, with its retry history and the
/// degradation tier it ran under.
#[derive(Debug, Clone)]
pub struct ServiceResponse {
    /// The result rows.
    pub rows: Relation,
    /// The run's deterministic executor counters.
    pub counters: ExecCounters,
    /// Transparently retried failures (empty on first-attempt success).
    pub retry: RetryReport,
    /// Degradation tier the successful attempt ran under (0 = full
    /// session limits).
    pub tier: usize,
}

/// One client's handle on the service: carries the quotas, the
/// cumulative byte budget and this session's cancel registry. Shareable
/// across threads (`&self` methods).
pub struct Session {
    inner: Arc<Inner>,
    id: u64,
    quotas: SessionQuotas,
    in_flight: AtomicU64,
    bytes_used: AtomicU64,
    rng: Mutex<Rng>,
}

/// Decrements the session in-flight count on every exit path.
struct InFlightGuard<'a>(&'a AtomicU64);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Deregisters a statement's cancel token on every exit path.
struct ActiveGuard<'a> {
    inner: &'a Inner,
    session: u64,
    statement: u64,
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.inner
            .active
            .lock()
            .unwrap()
            .retain(|(s, t, _)| !(*s == self.session && *t == self.statement));
    }
}

impl Session {
    /// This session's id (unique within its service).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Cumulative result bytes charged against the byte budget.
    pub fn bytes_used(&self) -> u64 {
        self.bytes_used.load(Ordering::Relaxed)
    }

    /// The session's quotas.
    pub fn quotas(&self) -> &SessionQuotas {
        &self.quotas
    }

    /// Cancel every statement this session currently has in flight.
    /// Other sessions sharing the database are not touched (each
    /// statement gets a fresh token; see `tests/service.rs`).
    pub fn cancel_all(&self) {
        for (s, _, token) in self.inner.active.lock().unwrap().iter() {
            if *s == self.id {
                token.cancel();
            }
        }
    }

    /// Execute one statement through admission control, with
    /// transparent bounded retry of transient failures.
    pub fn execute(&self, sql: &str) -> Result<ServiceResponse> {
        self.execute_faulted(sql, None)
    }

    /// [`Session::execute`] with a deterministic governor fault armed
    /// on every attempt — the chaos harness's hook for tripping
    /// budgets, deadlines and cancellations at exact checkpoints
    /// *through* the whole admission/retry stack.
    pub fn execute_faulted(
        &self,
        sql: &str,
        fault: Option<bypass_types::InjectedFault>,
    ) -> Result<ServiceResponse> {
        let inner = &*self.inner;
        bump!(inner, submitted);
        // Session-level statement-size cap (the engine cap, checked in
        // `Database`, still applies underneath).
        if let Some(cap) = self.quotas.max_statement_bytes {
            if sql.len() > cap {
                bump!(inner, oversized);
                return Err(Error::StatementTooLarge {
                    bytes: sql.len() as u64,
                    limit: cap as u64,
                });
            }
        }
        // Cumulative byte budget: spent budget rejects new statements.
        if let Some(budget) = self.quotas.byte_budget {
            let used = self.bytes_used.load(Ordering::Relaxed);
            if used >= budget {
                bump!(inner, quota_rejected);
                return Err(Error::QuotaExceeded {
                    quota: QuotaKind::Bytes,
                    used,
                    limit: budget,
                });
            }
        }
        // In-flight quota (guard decrements on every exit path).
        let in_flight = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        let _in_flight_guard = InFlightGuard(&self.in_flight);
        if let Some(max) = self.quotas.max_in_flight {
            if in_flight > max {
                bump!(inner, quota_rejected);
                return Err(Error::QuotaExceeded {
                    quota: QuotaKind::InFlight,
                    used: in_flight,
                    limit: max,
                });
            }
        }

        let mut report = RetryReport::default();
        let mut attempt: u32 = 0;
        // The degradation tier is resolved per attempt (pressure may
        // subside between retries); the retry policy may raise a
        // degraded memory budget back toward the session cap.
        let mut raised_memory: Option<u64> = None;
        loop {
            let tier = inner.resolve_tier();
            let mut limits = RunLimits {
                timeout: self.quotas.timeout,
                max_memory_bytes: self.quotas.max_memory_bytes,
                fault,
                ..RunLimits::default()
            };
            if tier > 0 {
                let t = &inner.cfg.degrade.tiers[tier - 1];
                limits.max_memory_bytes = Some(match limits.max_memory_bytes {
                    Some(m) => m.min(t.max_memory_bytes),
                    None => t.max_memory_bytes,
                });
                if let Some(tt) = t.timeout {
                    limits.timeout = Some(limits.timeout.map_or(tt, |q| q.min(tt)));
                }
            }
            if let Some(raised) = raised_memory {
                // Never exceed the session's own cap.
                let cap = self.quotas.max_memory_bytes.unwrap_or(u64::MAX);
                limits.max_memory_bytes = Some(raised.min(cap));
            }

            match self.run_once(sql, &mut limits, tier, attempt) {
                Ok((rows, counters)) => {
                    bump!(inner, completed);
                    if tier > 0 {
                        bump!(inner, degraded);
                    }
                    let produced: u64 = rows.rows().iter().map(tuple_bytes).sum();
                    self.bytes_used.fetch_add(produced, Ordering::Relaxed);
                    return Ok(ServiceResponse {
                        rows,
                        counters,
                        retry: report,
                        tier,
                    });
                }
                Err(err) => {
                    match err {
                        Error::Overloaded { .. } => bump!(inner, shed),
                        Error::AdmissionTimeout { .. } => bump!(inner, admission_timeouts),
                        Error::Draining => bump!(inner, drain_rejected),
                        Error::Cancelled => bump!(inner, cancelled),
                        _ => {}
                    }
                    let decision = inner.cfg.retry.decide(
                        &err,
                        attempt,
                        limits.max_memory_bytes,
                        self.quotas.max_memory_bytes,
                    );
                    match decision {
                        RetryDecision::GiveUp => {
                            if !err.is_admission() && err != Error::Cancelled {
                                bump!(inner, failed);
                            }
                            return Err(err);
                        }
                        RetryDecision::Resubmit | RetryDecision::RaiseMemory(_) => {
                            let backoff = {
                                let mut rng = self.rng.lock().unwrap();
                                inner.cfg.retry.backoff(attempt, &mut rng)
                            };
                            raised_memory = match decision {
                                RetryDecision::RaiseMemory(m) => Some(m),
                                _ => raised_memory,
                            };
                            report.attempts.push(RetryAttempt {
                                error: err,
                                backoff,
                                raised_memory,
                            });
                            bump!(inner, retries);
                            if !backoff.is_zero() {
                                std::thread::sleep(backoff);
                            }
                            attempt += 1;
                        }
                    }
                }
            }
        }
    }

    /// One admission + governed run. Each attempt gets the full
    /// deadline for queueing; time spent queued is charged against the
    /// attempt's run deadline via the governor's own wall clock.
    fn run_once(
        &self,
        sql: &str,
        limits: &mut RunLimits,
        tier: usize,
        attempt: u32,
    ) -> Result<(Relation, ExecCounters)> {
        let inner = &*self.inner;
        let queued_at = Instant::now();
        let permit = {
            let mut s = bypass_trace::span("service.admit");
            if s.is_recording() {
                s.arg("session", self.id.to_string());
                s.arg("attempt", attempt.to_string());
            }
            inner.adm.admit(limits.timeout)?
        };
        bump!(inner, admitted);
        // The statement's deadline covers queueing: the run gets what
        // remains (the zero case was already rejected while queued).
        if let Some(t) = limits.timeout {
            limits.timeout = Some(
                t.saturating_sub(queued_at.elapsed())
                    .max(Duration::from_millis(1)),
            );
        }
        let statement = inner.next_statement.fetch_add(1, Ordering::Relaxed);
        let token = CancelToken::new();
        limits.cancel = Some(token.clone());
        inner
            .active
            .lock()
            .unwrap()
            .push((self.id, statement, token));
        let _active_guard = ActiveGuard {
            inner,
            session: self.id,
            statement,
        };
        let mut s = bypass_trace::span("service.execute");
        if s.is_recording() {
            s.arg("session", self.id.to_string());
            s.arg("tier", tier.to_string());
        }
        let res = inner.db.run_governed(sql, inner.strategy, limits);
        drop(permit);
        res
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("id", &self.id)
            .field("quotas", &self.quotas)
            .finish_non_exhaustive()
    }
}
