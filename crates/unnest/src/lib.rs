//! Unnesting rewrites for nested scalar SQL queries **in the presence of
//! disjunction** — the primary contribution of the reproduced paper.
//!
//! The crate implements, as plan-to-plan rewrites over the bypass
//! algebra:
//!
//! * **Eqv. 1** — classic conjunctive type-JA unnesting
//!   (Γ + leftouterjoin-with-defaults),
//! * **Eqv. 2 / Eqv. 3** — disjunctive *linking*: a bypass selection
//!   routes tuples that satisfy a cheap disjunct around the unnested
//!   subquery machinery; evaluation order is chosen by Slagle ranks,
//! * **Eqv. 4** — disjunctive *correlation* with a decomposable
//!   aggregate: the inner relation is split by a bypass selection into a
//!   correlation-independent part (aggregated once) and a correlated
//!   part (grouped), recombined by a map operator. A DISTINCT
//!   COUNT/SUM/AVG counts as decomposable when the bypass selection
//!   keeps each class of equal argument values in one stream (its
//!   predicate compares the argument's bare columns only),
//! * **inner blocks first** — a scalar subquery in the correlation-free
//!   part of a disjunctively correlated block is unnested over that
//!   block's source before Eqv. 4 or 5 is chosen, so the linear query Q4
//!   splits its middle relation by Eqv. 4 instead of visiting every
//!   pair (a deviation from the paper's Fig. 6),
//! * **Eqv. 5** — the general disjunctive-correlation rewrite: numbering
//!   ν, a bypass join on the correlation predicate, and binary grouping,
//! * quantified table subqueries (`EXISTS` / `NOT EXISTS` / positive
//!   `IN`) desugared into count comparisons so the same machinery
//!   applies (the technical-report extension),
//! * the **OR→UNION** rewrite used as the "commercial system S2"
//!   baseline (disjoint branches, per-branch Eqv. 1 — no bypass
//!   operators),
//! * linear and tree nested queries by recursive application, including
//!   the paper's future-work case of disjunctive linking *and*
//!   disjunctive correlation in one query.
//!
//! Entry point: [`unnest`]. All rewrites preserve bag semantics
//! (Section 3.7 of the paper); the test-suite checks every rewrite
//! against canonical nested-loop evaluation on randomized instances.
//!
//! ```
//! use bypass_algebra::{AggCall, PlanBuilder, Scalar};
//! use bypass_unnest::{unnest, RewriteOptions};
//!
//! // σ_{a1 = count(σ_{a2=b2}(S)) ∨ a4 > 1500}(R) — the paper's Q1.
//! let subquery = PlanBuilder::test_scan("s", &["b1", "b2"])
//!     .filter(Scalar::col("a2").eq(Scalar::qcol("s", "b2")))
//!     .aggregate(vec![], vec![(AggCall::count_star(), "c".into())])
//!     .build();
//! let canonical = PlanBuilder::test_scan("r", &["a1", "a2", "a4"])
//!     .filter(
//!         Scalar::qcol("r", "a1")
//!             .eq(Scalar::Subquery(subquery))
//!             .or(Scalar::qcol("r", "a4").gt(Scalar::lit(1500i64))),
//!     )
//!     .build();
//! assert!(canonical.contains_subquery());
//!
//! let plan = unnest(&canonical, RewriteOptions::default()).unwrap();
//! assert!(!plan.contains_subquery(), "fully decorrelated");
//! let text = plan.explain();
//! assert!(text.contains("σ±"));   // bypass selection (Eqv. 2)
//! assert!(text.contains("⟕"));    // outerjoin with f(∅) defaults
//! assert!(text.contains("∪̇"));    // disjoint union of the streams
//! ```

pub mod ablation;
mod analysis;
mod attach;
pub mod cost;
mod driver;
mod joins;
mod names;
mod outcomes;
mod quantified;
mod rank;
mod union_rewrite;

pub use analysis::{linking_ref, scalar_agg, LinkingRef, ScalarAggPlan};
pub use driver::{unnest, RewriteOptions};
pub use joins::optimize_joins;
pub use names::NameGen;
pub use outcomes::{record_outcome, take_outcomes};
pub use quantified::desugar_quantified;
pub use rank::{estimate_rank, reorder_or_disjuncts, DisjunctOrder};
pub use union_rewrite::union_rewrite;
