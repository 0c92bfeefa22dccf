//! # excess-db — the end-to-end EXTRA/EXCESS engine
//!
//! Ties the whole reproduction together: the [`Database`] type owns the
//! type registry, the object store, the catalog of named top-level
//! objects, session `range of` declarations, the method registry, the
//! optimizer's statistics, and per-exact-type extent indexes (Section 4).
//!
//! ```
//! use excess_db::Database;
//!
//! let mut db = Database::new();
//! db.execute("define type Dept: (name: char[], floor: int4)").unwrap();
//! db.execute("create Depts: { Dept }").unwrap();
//! db.execute("append to Depts (name: \"CS\", floor: 2)").unwrap();
//! db.execute("append to Depts (name: \"Math\", floor: 3)").unwrap();
//! let out = db
//!     .execute("retrieve (D.name) from D in Depts where D.floor = 2")
//!     .unwrap();
//! assert_eq!(out.to_string(), "{ \"CS\" }");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod database;
pub mod error;
pub mod explain;
pub mod format;
pub mod json;
mod pipeline;
mod plan_cache;
pub mod session;
pub mod stats;

pub use catalog::{DbCatalog, NamedObject};
pub use database::Database;
pub use error::{DbError, DbResult};
pub use format::format_result;
pub use json::{
    counters_json, escape_json, journal_json, profile_json, value_json, verify_json,
    write_value_json,
};
pub use session::{CommitBatch, Generation, QueryOutcome, ServerStats, Session, VersionedDb};

// Re-exported so callers can run a lowered plan without naming the
// execution crate.
pub use excess_exec::{ExecOutcome as Executed, Tracing};
// Re-exported so callers can read the memo picture without naming the
// optimizer crate.
pub use excess_optimizer::MemoSnapshot;
// Re-exported so callers can read telemetry without naming the crate.
pub use excess_telemetry::{
    FlightRecorder, Histogram, QueryRecord, QueryTrace, Registry, Span, Telemetry,
};
pub use stats::collect_object_statistics;
