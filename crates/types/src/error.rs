use std::fmt;

/// Convenience alias used across every `bypass` crate.
pub type Result<T, E = Error> = std::result::Result<T, E>;

/// The resource whose budget was exhausted in
/// [`Error::ResourceExhausted`].
///
/// Each variant corresponds to one of the per-query guards enforced by the
/// executor's resource governor: the byte-accurate memory budget
/// (`max_memory_bytes`, on by default; it is also what bounds the rows a
/// nested-loop or bypass join materializes) and the wall-clock deadline
/// (`timeout`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// The deterministic byte-accounting budget was exceeded.
    Memory,
    /// The wall-clock deadline passed (reported in milliseconds).
    Time,
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceKind::Memory => write!(f, "memory"),
            ResourceKind::Time => write!(f, "time"),
        }
    }
}

/// The session quota that tripped in [`Error::QuotaExceeded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuotaKind {
    /// Too many statements in flight on one session.
    InFlight,
    /// The session's cumulative result-byte budget is spent.
    Bytes,
}

impl fmt::Display for QuotaKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuotaKind::InFlight => write!(f, "in-flight statements"),
            QuotaKind::Bytes => write!(f, "cumulative result bytes"),
        }
    }
}

/// The error type shared by all layers of the engine.
///
/// Variants mirror the pipeline stage that produced the error so that a
/// failing end-to-end query can be attributed to the parser, the planner,
/// the optimizer or the executor without string matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Lexing or parsing failed. Carries a human-readable message that
    /// includes the offending position.
    Parse(String),
    /// Name resolution / canonical translation failed (unknown column,
    /// ambiguous reference, unsupported shape, ...).
    Plan(String),
    /// An unnesting rewrite was asked to fire on a plan it does not match.
    Rewrite(String),
    /// Catalog-level failure (unknown or duplicate table).
    Catalog(String),
    /// Type error during expression evaluation.
    Type(String),
    /// Runtime failure in the executor.
    Execution(String),
    /// A feature the engine intentionally does not implement.
    Unsupported(String),
    /// A per-query resource budget was exceeded. The run stopped at a
    /// governor checkpoint; the `Database` and all caches stay usable.
    ResourceExhausted {
        /// Which guard tripped.
        resource: ResourceKind,
        /// The configured budget (bytes, rows or milliseconds).
        limit: u64,
        /// The observed value at the tripping checkpoint.
        observed: u64,
    },
    /// The query's [`CancelToken`](crate::CancelToken) was triggered. The
    /// run stopped at a governor checkpoint; the `Database` stays usable.
    Cancelled,
    /// The service's admission queue is full: the statement was shed
    /// before any parse or planning work. `queued` is the queue depth
    /// observed at rejection, `limit` the configured queue bound.
    Overloaded {
        /// Statements waiting in the admission queue at rejection time.
        queued: u64,
        /// The configured queue capacity.
        limit: u64,
    },
    /// The statement's remaining deadline expired (or would provably
    /// expire) while waiting in the admission queue; it was rejected
    /// without consuming an execution slot.
    AdmissionTimeout {
        /// Statements ahead of (or alongside) this one when it gave up.
        queued: u64,
        /// The statement's deadline budget in milliseconds.
        deadline_ms: u64,
    },
    /// The SQL text exceeds the configured statement-size cap. Raised
    /// before any parse work, so an oversized statement costs O(1).
    StatementTooLarge {
        /// Size of the submitted SQL text in bytes.
        bytes: u64,
        /// The configured cap in bytes.
        limit: u64,
    },
    /// A per-session quota (not a per-run resource budget) was
    /// exceeded: the statement was rejected at admission, nothing ran.
    QuotaExceeded {
        /// Which session quota tripped.
        quota: QuotaKind,
        /// The observed usage at rejection time.
        used: u64,
        /// The configured quota.
        limit: u64,
    },
    /// The service is draining: no new statements are admitted. The
    /// underlying `Database` stays intact and reusable.
    Draining,
}

impl Error {
    /// Shorthand constructors keep call sites terse.
    pub fn parse(msg: impl Into<String>) -> Self {
        Error::Parse(msg.into())
    }
    pub fn plan(msg: impl Into<String>) -> Self {
        Error::Plan(msg.into())
    }
    pub fn rewrite(msg: impl Into<String>) -> Self {
        Error::Rewrite(msg.into())
    }
    pub fn catalog(msg: impl Into<String>) -> Self {
        Error::Catalog(msg.into())
    }
    pub fn type_err(msg: impl Into<String>) -> Self {
        Error::Type(msg.into())
    }
    pub fn execution(msg: impl Into<String>) -> Self {
        Error::Execution(msg.into())
    }
    pub fn unsupported(msg: impl Into<String>) -> Self {
        Error::Unsupported(msg.into())
    }
    pub fn resource_exhausted(resource: ResourceKind, limit: u64, observed: u64) -> Self {
        Error::ResourceExhausted {
            resource,
            limit,
            observed,
        }
    }
    pub fn cancelled() -> Self {
        Error::Cancelled
    }

    /// True for the error categories a caller can retry after raising the
    /// offending budget (or not cancelling): the run was stopped
    /// cooperatively at a checkpoint and left the database usable.
    pub fn is_resource_limit(&self) -> bool {
        matches!(self, Error::ResourceExhausted { .. } | Error::Cancelled)
    }

    /// True for the admission-layer errors: the statement never reached
    /// the executor (no parse, no plan, no partial run), so the caller
    /// may resubmit verbatim once pressure subsides.
    pub fn is_admission(&self) -> bool {
        matches!(
            self,
            Error::Overloaded { .. }
                | Error::AdmissionTimeout { .. }
                | Error::StatementTooLarge { .. }
                | Error::QuotaExceeded { .. }
                | Error::Draining
        )
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(m) => write!(f, "parse error: {m}"),
            Error::Plan(m) => write!(f, "plan error: {m}"),
            Error::Rewrite(m) => write!(f, "rewrite error: {m}"),
            Error::Catalog(m) => write!(f, "catalog error: {m}"),
            Error::Type(m) => write!(f, "type error: {m}"),
            Error::Execution(m) => write!(f, "execution error: {m}"),
            Error::Unsupported(m) => write!(f, "unsupported: {m}"),
            Error::ResourceExhausted {
                resource: ResourceKind::Time,
                limit,
                observed,
            } => write!(f, "resource exhausted: query timed out ({observed} ms elapsed, limit {limit} ms)"),
            Error::ResourceExhausted {
                resource,
                limit,
                observed,
            } => write!(f, "resource exhausted: {resource} budget exceeded (observed {observed}, limit {limit})"),
            Error::Cancelled => write!(f, "cancelled: query cancel token was triggered"),
            Error::Overloaded { queued, limit } => write!(
                f,
                "overloaded: admission queue full ({queued} queued, limit {limit})"
            ),
            Error::AdmissionTimeout {
                queued,
                deadline_ms,
            } => write!(
                f,
                "admission timeout: deadline ({deadline_ms} ms) expired while queued \
                 ({queued} waiting)"
            ),
            Error::StatementTooLarge { bytes, limit } => write!(
                f,
                "statement too large: {bytes} bytes of SQL text (limit {limit})"
            ),
            Error::QuotaExceeded { quota, used, limit } => write!(
                f,
                "quota exceeded: session {quota} at {used} (limit {limit})"
            ),
            Error::Draining => write!(f, "draining: service is not admitting new statements"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_stage() {
        assert_eq!(Error::parse("x").to_string(), "parse error: x");
        assert_eq!(Error::plan("x").to_string(), "plan error: x");
        assert_eq!(Error::rewrite("x").to_string(), "rewrite error: x");
        assert_eq!(Error::catalog("x").to_string(), "catalog error: x");
        assert_eq!(Error::type_err("x").to_string(), "type error: x");
        assert_eq!(Error::execution("x").to_string(), "execution error: x");
        assert_eq!(Error::unsupported("x").to_string(), "unsupported: x");
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(Error::parse("a"), Error::Parse("a".into()));
        assert_ne!(Error::parse("a"), Error::plan("a"));
    }

    #[test]
    fn resource_errors_display_and_classify() {
        let mem = Error::resource_exhausted(ResourceKind::Memory, 1024, 2048);
        assert_eq!(
            mem.to_string(),
            "resource exhausted: memory budget exceeded (observed 2048, limit 1024)"
        );
        let time = Error::resource_exhausted(ResourceKind::Time, 100, 250);
        // The timeout display keeps the historical "timed out" phrasing so
        // existing substring checks stay valid.
        assert!(time.to_string().contains("timed out"));
        assert!(Error::cancelled().to_string().contains("cancelled"));
        assert!(mem.is_resource_limit());
        assert!(time.is_resource_limit());
        assert!(Error::cancelled().is_resource_limit());
        assert!(!Error::execution("x").is_resource_limit());
    }

    #[test]
    fn admission_errors_display_and_classify() {
        let shed = Error::Overloaded {
            queued: 4,
            limit: 4,
        };
        assert_eq!(
            shed.to_string(),
            "overloaded: admission queue full (4 queued, limit 4)"
        );
        let timeout = Error::AdmissionTimeout {
            queued: 2,
            deadline_ms: 50,
        };
        assert!(
            timeout.to_string().contains("admission timeout"),
            "{timeout}"
        );
        let large = Error::StatementTooLarge {
            bytes: 70_000,
            limit: 65_536,
        };
        assert!(large.to_string().contains("statement too large"), "{large}");
        let quota = Error::QuotaExceeded {
            quota: QuotaKind::InFlight,
            used: 3,
            limit: 2,
        };
        assert!(
            quota.to_string().contains("in-flight statements"),
            "{quota}"
        );
        assert!(Error::Draining.to_string().contains("draining"));
        for e in [&shed, &timeout, &large, &quota, &Error::Draining] {
            assert!(e.is_admission(), "{e}");
            assert!(!e.is_resource_limit(), "{e}");
        }
        assert!(!Error::cancelled().is_admission());
        assert!(!Error::execution("x").is_admission());
    }
}
