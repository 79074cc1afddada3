//! Logical plan nodes, schema derivation, display and construction.

mod builder;
mod display;
mod node;
mod prune;
mod rewrite;

pub use builder::PlanBuilder;
pub use node::{LogicalPlan, Stream};
pub use prune::prune_columns;
pub use rewrite::{rewrite, Blocks, Rule};
