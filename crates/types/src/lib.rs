//! Core data model for the `bypass` query engine.
//!
//! This crate defines the substrate every other crate builds on:
//!
//! * [`DataType`] — the (deliberately small) SQL type system,
//! * [`Value`] — a dynamically typed SQL value with three-valued-logic
//!   comparisons and NULL-propagating arithmetic,
//! * [`Truth`] — SQL's three-valued logic (`TRUE` / `FALSE` / `UNKNOWN`),
//! * [`Tuple`] — a row of values,
//! * [`Schema`] / [`Field`] — named, optionally qualified columns,
//! * [`Relation`] — a materialized table (schema + rows) with the set/bag
//!   helpers the algebra of the paper needs (distinct, disjoint union, sort),
//! * [`TableStats`] — cheap statistics used by the rank/cost model.
//!
//! The engine is *bag-based* (SQL semantics). Operations that the paper
//! defines on sets (Section 2.3) are provided as explicit helpers so that
//! the duplicate-handling arguments of Section 3.7 can be tested directly.

pub mod batch;
mod datatype;
mod error;
pub mod fxhash;
pub mod govern;
pub mod par;
mod relation;
pub mod rng;
mod schema;
mod sort;
mod stats;
mod tuple;
mod value;

pub use batch::{Column, BATCH_ROWS};
pub use datatype::DataType;
pub use error::{Error, QuotaKind, ResourceKind, Result};
pub use fxhash::{hash_values, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use govern::{
    tuple_bytes, value_heap_bytes, CancelToken, FaultKind, InjectedFault, ROW_OVERHEAD_BYTES,
    SHARED_ROW_BYTES, VALUE_BYTES,
};
pub use relation::Relation;
pub use rng::{split_mix64, Rng, SampleRange};
pub use schema::{Field, Schema};
pub use sort::{compare_tuples, SortKey, SortOrder};
pub use stats::{ColumnStats, TableStats};
pub use tuple::Tuple;
pub use value::{Truth, Value};

// The zero-clone executor shares rows, relations and catalog entries
// across scoped worker threads; every core type must therefore stay
// `Send + Sync`. Compile-time proof (fails to build if violated):
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Value>();
    assert_send_sync::<Tuple>();
    assert_send_sync::<Schema>();
    assert_send_sync::<Relation>();
    assert_send_sync::<TableStats>();
    assert_send_sync::<Column>();
};
