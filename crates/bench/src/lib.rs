//! Experiment harness for the reproduction of the paper's evaluation
//! (Section 4): timed single-shot measurement with timeouts (`n/a`
//! cells, like the paper's six-hour aborts) and the Fig. 7-style table
//! renderer. The workload's query texts sit next to their generators in
//! `bypass_datagen` and are re-exported here.
//!
//! The `fig7` binary drives everything:
//!
//! ```text
//! cargo run --release -p bypass-bench --bin fig7 -- all
//! ```

pub mod report;
pub mod runner;

pub use bypass_datagen::rst::{q1_with_threshold, Q1, Q2, Q3, Q4, Q4_FIG6, Q_COMBINED, Q_EXISTS};
pub use bypass_datagen::tpch::QUERY_2D;
pub use report::Table;
pub use runner::{audit, measure, measure_with, rst_database, tpch_database, Measurement};
