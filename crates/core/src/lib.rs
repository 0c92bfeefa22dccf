//! # excess-core — the EXCESS algebra
//!
//! The paper's primary contribution: a many-sorted algebra whose four sorts
//! are multisets, tuples, arrays, and references.  This crate defines the
//! expression AST ([`Expr`]) with the 23 primitive operators of Section
//! 3.2, the derived operators of Appendix §1 as first-class nodes, the
//! three-valued predicate machinery (`COMP`, `dne`/`unk`), and the
//! evaluator with work counters that make the paper's cost arguments
//! measurable.
//!
//! ```
//! use excess_core::{evaluate, EvalCtx, Expr};
//! use excess_types::{ObjectStore, TypeRegistry, Value};
//! use std::collections::HashMap;
//!
//! // DE({1,1,2}) = {1,2}
//! let reg = TypeRegistry::new();
//! let mut store = ObjectStore::new();
//! let cat: HashMap<String, Value> = HashMap::new();
//! let mut ctx = EvalCtx::new(&reg, &mut store, &cat);
//! let e = Expr::lit(Value::set([Value::int(1), Value::int(1), Value::int(2)])).dup_elim();
//! let out = evaluate(&e, &mut ctx).unwrap();
//! assert_eq!(out, Value::set([Value::int(1), Value::int(2)]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod canon;
pub mod catalog;
pub mod columnar;
pub mod counters;
pub mod derived;
pub mod error;
pub mod eval;
pub mod expr;
pub mod infer;
pub mod json;
pub mod ops;
pub mod physical;
pub mod profile;
pub mod render;
pub mod verify;

pub use canon::{canonical_form, equal_modulo_identity};
pub use catalog::{Catalog, ChunkedCatalog, EmptyCatalog};
pub use columnar::{
    columnar_distinct, columnar_group, columnar_hash_join, compile_scan_filter, join_keys_usable,
    run_scan_filter, scan_pred_compiles, ChunkKernel, ScanFilter,
};
pub use counters::Counters;
pub use error::{EvalError, EvalResult};
pub use eval::{eval, evaluate, exact_type_of, exact_type_of_parts, EvalCtx};
pub use expr::{Bound, CmpOp, Expr, Func, Pred};
pub use json::{escape_json, millis, number, parse_json, path_json, quote_json, JsonValue};
pub use ops::predicate::Truth;
pub use physical::{equi_key_candidates, evaluate_physical, PhysChoice, PhysOp, PhysicalPlan};
pub use profile::{path_string, NodePath, NodeProfile, Profile, TraceSink};
pub use verify::{resolve_deep, verify, Diagnostic, Report, Severity};
