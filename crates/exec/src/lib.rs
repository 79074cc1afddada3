//! Physical planning and execution for the bypass query engine.
//!
//! Blocking operators materialize their full output
//! [`bypass_types::Relation`]: the simplest model that handles
//! DAG-structured plans correctly — a bypass operator produces *two*
//! streams, memoized so a shared node is evaluated exactly once per plan
//! evaluation — and it preserves the asymptotic behaviour the paper
//! measures. σ, Π, χ, ν and joins are not operators but [`Stage`]s of a
//! pipeline: every row loop (a σ/σ±'s chunks, a pass over a relation — a
//! join is the pass over its left input headed by its probe) pushes
//! borrowed [`RowView`]s through the [`Chain`] of single-consumer stages
//! above it, and only rows leaving the chain are materialized. A bypass
//! operator is a pipeline whose head routes what it fails into a second,
//! negative chain; the binary grouping Γᵇ is planned as an outer join
//! over a Γ.
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
//! pipelines; `vector.rs` compiles a filter predicate into a chain of
//! terms in planned order; `morsel.rs` decides which loops fork and
//! merges what comes back; `govern.rs` is the governor (checkpoints, byte
//! budget, cancellation, deadline); `hash.rs` the one hash index;
//! `agg.rs`/`group.rs` the grouping operator Γ; `plan.rs` turns a logical
//! plan into a [`PhysNode`] DAG. A loop over a materialized input — a
//! σ/σ± chunk, Γ, a hash build, a hash probe head — reads plain column
//! expressions off that input's typed columns
//! (`bypass_catalog::TableColumns`: a scan's own, any other relation's
//! built for the loop) instead of the rows.

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
    evaluate, evaluate_with, DisjunctMetrics, ExecContext, ExecCounters, ExecOptions, NodeMetrics,
    StageMetrics, DEFAULT_MAX_MEMORY_BYTES,
};
pub use expr::PhysExpr;
pub use group::ACC_BYTES;
pub use interp::value_truth;
pub use node::{Chain, Group, JoinOn, JoinSpec, PhysKind, PhysNode, Stage};
pub use plan::{physical_plan, physical_plan_with, PlanOptions, Resolver};
pub use row::{Columns, Row, RowView, Seg};
