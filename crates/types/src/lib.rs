//! # excess-types — the EXTRA type system substrate
//!
//! This crate implements the structural half of the EXCESS algebra paper
//! (Vandenberg & DeWitt, SIGMOD 1991): schemas as labelled digraphs over
//! the type constructors *tuple*, *multiset*, *array*, *ref*, and *val*;
//! instances (values) drawn from the complex domains `dom(S)`/`DOM(S)`;
//! named types with multiple inheritance; and object identity realised as a
//! per-type partition of the OID universe, stored in an in-memory object
//! store that supports sharing and type migration.
//!
//! The companion crate `excess-core` defines the algebra's operators over
//! these structures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod date;
pub mod domain;
pub mod error;
pub mod multiset;
pub mod oid;
pub mod scalar;
pub mod schema;
pub mod store;
pub mod types;
pub mod value;

pub use date::Date;
pub use error::{Result, TypeError};
pub use multiset::MultiSet;
pub use oid::{Oid, OidAllocator, TypeId};
pub use scalar::{Scalar, ScalarType};
pub use schema::{GraphEdge, GraphNode, NodeKind, SchemaGraph, SchemaType};
pub use store::{ObjectStore, StoredObject};
pub use types::{TypeDef, TypeRegistry};
pub use value::{Null, Tuple, Value};
