//! Error types for the EXTRA type system.

use std::fmt;

/// Errors raised by schema validation, domain membership checks, and the
/// object store.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum TypeError {
    /// A schema digraph violated one of conditions (i)-(iv) of Section 3.1.
    SchemaCondition {
        condition: &'static str,
        detail: String,
    },
    /// A named type was referenced but never defined.
    UnknownType(String),
    /// A type was defined twice.
    DuplicateType(String),
    /// A tuple attribute was inherited from two unrelated supertypes with
    /// conflicting types and not overridden.
    AttributeConflict { ty: String, attr: String },
    /// An attribute override changed the attribute set illegally.
    BadOverride {
        ty: String,
        attr: String,
        detail: String,
    },
    /// A value was not a member of the domain of the schema it was checked
    /// against.
    DomainViolation { expected: String, found: String },
    /// An OID was dereferenced but no object with that identity exists.
    DanglingOid(String),
    /// A type-migration request violated the OID-domain partition rules.
    IllegalMigration { from: String, to: String },
    /// A fixed-length array had the wrong number of elements.
    ArrayLength { expected: usize, found: usize },
    /// Tuple field missing.
    NoSuchField { field: String },
    /// Miscellaneous structural error.
    Structure(String),
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::SchemaCondition { condition, detail } => {
                write!(f, "schema condition {condition} violated: {detail}")
            }
            TypeError::UnknownType(n) => write!(f, "unknown type `{n}`"),
            TypeError::DuplicateType(n) => write!(f, "type `{n}` defined twice"),
            TypeError::AttributeConflict { ty, attr } => {
                write!(
                    f,
                    "type `{ty}` inherits attribute `{attr}` with conflicting types"
                )
            }
            TypeError::BadOverride { ty, attr, detail } => {
                write!(f, "illegal override of `{attr}` in type `{ty}`: {detail}")
            }
            TypeError::DomainViolation { expected, found } => {
                write!(f, "value not in domain: expected {expected}, found {found}")
            }
            TypeError::DanglingOid(o) => write!(f, "dangling OID {o}"),
            TypeError::IllegalMigration { from, to } => {
                write!(f, "illegal type migration from `{from}` to `{to}`")
            }
            TypeError::ArrayLength { expected, found } => {
                write!(
                    f,
                    "fixed-length array expected {expected} elements, found {found}"
                )
            }
            TypeError::NoSuchField { field } => write!(f, "tuple has no field `{field}`"),
            TypeError::Structure(s) => write!(f, "structural error: {s}"),
        }
    }
}

impl std::error::Error for TypeError {}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, TypeError>;
