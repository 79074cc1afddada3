//! Engine facade: a [`Database`] owning a catalog, with SQL execution
//! under selectable evaluation [`Strategy`]s — the canonical nested-loop
//! plans, the paper's bypass-unnested plans, and the three simulated
//! commercial baselines of the evaluation study.

mod database;
mod strategy;

pub use database::{
    Database, PhaseNanos, Prepared, QueryProfile, Response, RunLimits, DEFAULT_MAX_STATEMENT_BYTES,
};
pub use strategy::Strategy;

pub use bypass_algebra::LogicalPlan;
pub use bypass_catalog::{Catalog, TableBuilder};
pub use bypass_exec::{ExecCounters, ExecOptions};
pub use bypass_metrics::{
    format_fingerprint, render_json, render_prometheus, validate_prometheus, ExecObservation,
    HistogramSnapshot, MetricEntry, MetricValue, MetricsHub, QueryStatsSnapshot,
    Snapshot as MetricsSnapshot,
};
pub use bypass_sql::{fingerprint, fingerprint_sql, normalized_sql};
pub use bypass_types::{
    CancelToken, DataType, Error, FaultKind, Field, InjectedFault, QuotaKind, Relation,
    ResourceKind, Result, Schema, Tuple, Value,
};

// A `Database` is shared by reference across the scoped worker threads
// of the parallel oracle and the bench grid; queries never mutate it.
// Compile-time proof that the whole facade stays thread-shareable:
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
    assert_send_sync::<Strategy>();
};
