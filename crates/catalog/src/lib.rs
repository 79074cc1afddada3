//! In-memory table storage and catalog.
//!
//! Tables are fully materialized [`Relation`]s guarded behind `Arc` so
//! that scans share data with zero copying. Beside the rows a table
//! keeps one typed column per field ([`TableColumns`]), and its
//! statistics; both are built on their first read, not at load time.

mod builder;
mod catalog;
mod csv;
mod table;

pub use builder::TableBuilder;
pub use catalog::Catalog;
pub use csv::{load_csv_file, load_csv_str};
pub use table::{Table, TableColumns};

pub use bypass_types::Relation;

// The parallel oracle and bench drivers share one catalog across scoped
// worker threads. The read path is `Arc`-based with no interior
// mutability, so both types are `Send + Sync` by construction; this
// compile-time assertion keeps it that way.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Table>();
    assert_send_sync::<TableColumns>();
    assert_send_sync::<Catalog>();
};
