//! Logical relational algebra with **bypass operators**.
//!
//! This crate implements the algebra of Section 2.3 / Figure 1 of the
//! paper:
//!
//! * the core operators: selection σ, projection Π, cross product ×,
//!   join ⋈, disjoint union ∪̇, duplicate elimination, sorting;
//! * the five extended operators: unary grouping Γ, **binary grouping**
//!   Γ (per-left-tuple aggregation over a θ-matched right side),
//!   **leftouterjoin with defaults** ⟕^{g:f(∅)} (the "count bug" fix),
//!   the **numbering operator** ν and the **map operator** χ;
//! * the two **bypass operators** σ± and ⋈±, which split their input
//!   into a positive and a negative stream. Plans containing bypass
//!   operators are DAGs: both streams are consumed (by [`LogicalPlan::Stream`]
//!   nodes) and re-combined by a disjoint union.
//!
//! Predicates are [`Scalar`] expressions and may themselves contain whole
//! algebraic expressions ([`Scalar::Subquery`] et al.) — the paper's
//! "subscripts may contain algebraic expressions", which is how the
//! canonical translation represents nested query blocks.

pub mod expr;
pub mod plan;

pub use expr::{AggCall, AggFunc, BinOp, ColumnRef, Scalar};
pub use plan::{prune_columns, rewrite, Blocks, LogicalPlan, PlanBuilder, Rule, Stream};
