//! # excess-exec — partition-parallel execution for the EXCESS algebra
//!
//! A morsel/partition-driven parallel evaluator on top of the serial
//! engine in `excess-core`.  The driver materialises operator inputs,
//! splits them into partitions (contiguous chunks or hash classes,
//! depending on the operator's algebraic requirements), and ships
//! fragment plans to a fixed pool of `std::thread` workers where the
//! ordinary serial evaluator runs them.  Partition outputs ⊎-merge in
//! partition-index order into the canonical (`BTreeMap`) multiset
//! ordering, so the parallel result is `canon`-identical to serial
//! evaluation no matter how the threads interleave.
//!
//! Operators whose semantics depend on element order (the array family)
//! or that mutate shared state (`REF`) fall back to serial evaluation
//! with a journaled reason; grouping and equi-joins insert
//! repartition-by-key *exchange* steps.  See DESIGN.md "Parallel
//! execution" for the soundness argument operator by operator.
//!
//! ```
//! use excess_core::physical::PhysicalPlan;
//! use excess_core::{CmpOp, Expr, Pred};
//! use excess_exec::{run_parallel_plan, ExecConfig, Tracing};
//! use excess_types::{ObjectStore, TypeRegistry, Value};
//! use std::collections::HashMap;
//!
//! let reg = TypeRegistry::new();
//! let mut store = ObjectStore::new();
//! let mut cat: HashMap<String, Value> = HashMap::new();
//! cat.insert("S".into(), Value::set((0..100).map(Value::int)));
//! let plan = Expr::named("S").select(Pred::cmp(Expr::input(), CmpOp::Ge, Expr::int(50)));
//! // No kernel choices: every node runs the logical operator.  The
//! // optimizer's `lower` pass is what annotates hash and columnar kernels.
//! let out = run_parallel_plan(
//!     &PhysicalPlan::passthrough(plan), &reg, &mut store, &cat, None,
//!     ExecConfig::with_workers(4), Tracing::Off,
//! ).unwrap();
//! assert_eq!(out.value, Value::set((50..100).map(Value::int)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod journal;
pub mod partition;

pub use config::{ExecConfig, THREADS_ENV};
pub use engine::{run_parallel_plan, ExecOutcome, Tracing};
pub use journal::{ExecEvent, ExecReport, Strategy, WorkerStats};
pub use partition::{chunk_partitions, hash_partitions, merge_partitions, value_hash};
