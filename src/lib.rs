//! # excess — facade crate
//!
//! Re-exports the whole EXCESS workspace (see DESIGN.md) behind one crate:
//!
//! * [`types`] — the EXTRA type system: schemas, values, inheritance, OIDs,
//!   the object store;
//! * [`algebra`] — the EXCESS algebra: the 23 primitive operators, derived
//!   operators, and the evaluator;
//! * [`optimizer`] — the transformation-rule catalogue and cost-based
//!   rewrite engine;
//! * [`lang`] — the EXCESS query language: parser, EXCESS→algebra
//!   translator, algebra→EXCESS decompiler, and method registry;
//! * [`exec`] — serial execution of a lowered plan;
//! * [`telemetry`] — cross-query telemetry: metric registry, latency
//!   histograms, query spans, flight recorder;
//! * [`db`] — the end-to-end [`db::Database`] engine, plus the session
//!   layer: snapshot-isolated [`db::Session`]s over a [`db::VersionedDb`]
//!   with a single committer thread;
//! * [`server`] — a line-delimited TCP query server over those sessions;
//! * [`workload`] — the Figure 1 university-database generator used by the
//!   examples and benchmarks.
//!
//! ## Quickstart
//!
//! ```
//! use excess::db::Database;
//!
//! let mut db = Database::new();
//! db.execute("define type Dept: (name: char[], floor: int4)").unwrap();
//! db.execute("create Depts: { Dept }").unwrap();
//! db.execute("append to Depts (name: \"CS\", floor: 2)").unwrap();
//! let out = db.execute("retrieve (D.name) from D in Depts where D.floor = 2").unwrap();
//! assert_eq!(out.to_string(), "{ \"CS\" }");
//! ```

#![forbid(unsafe_code)]

pub use excess_core as algebra;
pub use excess_db as db;
pub use excess_exec as exec;
pub use excess_lang as lang;
pub use excess_optimizer as optimizer;
pub use excess_server as server;
pub use excess_telemetry as telemetry;
pub use excess_types as types;
pub use excess_workload as workload;
