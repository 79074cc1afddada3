//! `bypass-check` — the repo's self-contained testing substrate.
//!
//! Three layers, zero external dependencies:
//!
//! 1. [`rng`]: a deterministic, seedable xoshiro256\*\* PRNG (seeded via
//!    SplitMix64) with the distribution helpers the workspace previously
//!    pulled from the `rand` crate.
//! 2. [`gen`] + [`prop`]: a minimal property-testing harness —
//!    generator combinators with integrated structural shrinking for
//!    integers, `Option`, `Vec`, arrays, tuples and strings, a
//!    `forall` runner with panic capture, greedy shrinking and seed
//!    reporting (`BYPASS_CHECK_SEED=… BYPASS_CHECK_CASES=…` replay).
//! 3. [`oracle`] + [`mutate`]: a differential oracle — grammar-based
//!    random queries over the RST schema executed under the full
//!    [`bypass_core::Strategy`] matrix with bag-equality against
//!    canonical nested-loop evaluation, plus plan mutations that let
//!    tests verify the oracle actually catches broken rewrites.
//! 4. [`fault`]: a fault-point injection oracle — deterministic faults
//!    (memory-budget trip, deadline trip, cancellation) injected at
//!    exact governor checkpoints of the same grammar-generated queries,
//!    asserting typed errors (never panics), balanced tracing span
//!    stacks, and clean re-runs (`BYPASS_CHECK_FAULT_SEED=…` replay).
//! 5. [`service`]: a deterministic chaos-workload harness for the
//!    multi-session query service — seeded client threads mixing query
//!    classes with injected cancellation/budget/deadline faults and
//!    forced admission saturation, asserting the same trifecta per
//!    event plus post-chaos bit-identical verification
//!    (`BYPASS_CHECK_SERVICE_SEED=…` replay).
//!
//! Reproduction workflow: any failure prints a seed; re-run with
//! `BYPASS_CHECK_SEED=<seed>` (optionally `BYPASS_CHECK_CASES=1`) to
//! replay the failing input as case 0.

pub mod fault;
pub mod gen;
pub mod mutate;
pub mod oracle;
pub mod prop;
pub mod rng;
pub mod service;

pub use fault::{run_fault_campaign, FaultConfig, FaultFailure, FaultReport};
pub use gen::{
    array_of, bool_any, choice, f64_range, i64_any, int_range, just, one_of, option_weighted,
    string_any, string_of, tuple2, tuple3, tuple4, usize_range, vec_of, Gen,
};
pub use mutate::{flip_bypass_streams, prune_columns_misaligned, BrokenUnnestExecutor};
pub use oracle::{
    arb_query, case_seed, materialize_case, random_instance, results_agree, rewrite_fingerprint,
    run_differential, run_differential_parallel, run_differential_with, schedule_cases, Axis,
    DefaultExecutor, Mismatch, OracleConfig, OracleReport, OrderSpec, QueryExecutor, QuerySpec,
    Schedule, AXES, MAX_NESTING_DEPTH,
};
pub use prop::{forall, forall_cases, Config, DEFAULT_SEED};
pub use rng::{split_mix64, Rng, SampleRange};
pub use service::{run_service_chaos, ServiceChaosConfig, ServiceChaosFailure, ServiceChaosReport};
