//! Physical planning and execution for the bypass query engine.
//!
//! The executor is **operator-at-a-time**: each physical operator
//! materializes its full output [`bypass_types::Relation`]. This is the
//! simplest model that handles DAG-structured plans correctly — a bypass
//! operator produces *two* materialized streams which are memoized so a
//! shared node is evaluated exactly once per plan evaluation — and it
//! preserves the asymptotic behaviour the paper measures (nested-loop
//! canonical plans vs hash-based unnested plans). The one exception is
//! the boundary above a join: the single-consumer streaming operators
//! there run inside the join's loop as a fused [`Chain`] of [`Stage`]s
//! over borrowed [`RowView`]s, and only rows leaving the chain are
//! materialized.
//!
//! Nested query blocks embedded in selection predicates are evaluated by
//! the expression interpreter (`interp.rs`, the one module that knows
//! what a [`PhysExpr`] evaluates to): for every outer tuple, the
//! subquery's physical plan runs with the outer tuple pushed onto a
//! binding stack (the paper's "nested-loop evaluation"). Two optional
//! caches emulate smarter nested evaluation: a materialization cache for
//! uncorrelated (type A) subqueries and a memo keyed by correlation
//! values.
//!
//! The other modules: `eval.rs` dispatches operators and runs the
//! σ/σ±/Π chunk loops and the join pipelines; `vector.rs` compiles a
//! filter predicate into a chain of terms in planned order;
//! `morsel.rs` decides which loops fork and merges what comes back;
//! `govern.rs` is the governor (checkpoints, byte budget, cancellation,
//! deadline); `hash.rs` the one hash index; `agg.rs`/`group.rs` the
//! grouping operators; `plan.rs` turns a logical plan into a
//! [`PhysNode`] DAG. A loop whose input is a base-table scan — a σ/σ±
//! chunk, Γ, a hash build, a hash probe — reads plain column
//! expressions off the table's typed columns
//! (`bypass_catalog::TableColumns`) instead of the rows.

mod agg;
mod eval;
mod expr;
mod govern;
mod group;
mod hash;
mod interp;
mod morsel;
mod node;
mod plan;
mod row;
pub mod vector;

pub use agg::AggSpec;
pub use eval::{
    evaluate, evaluate_shared, evaluate_with, DisjunctMetrics, ExecContext, ExecCounters,
    ExecOptions, NodeMetrics, StageMetrics,
};
pub use expr::PhysExpr;
pub use interp::value_truth;
pub use node::{Chain, JoinOn, JoinSpec, PhysKind, PhysNode, Stage};
pub use plan::{physical_plan, physical_plan_with, PlanOptions, Resolver};
pub use row::{Columns, Row, RowView};
