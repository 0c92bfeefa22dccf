//! The catalog abstraction: named, top-level, persistent database objects.
//!
//! EXCESS queries "range over structures created using the create
//! statement" (Section 2.2).  The evaluator resolves `Expr::Named` leaves
//! through this trait; `excess-db` provides the full implementation, and a
//! plain `HashMap` works for tests and examples.

use excess_types::Value;
use std::collections::HashMap;

/// Resolves named top-level objects to their current values.
pub trait Catalog {
    /// The value of the named object, if it exists.
    fn get_object(&self, name: &str) -> Option<&Value>;
}

impl Catalog for HashMap<String, Value> {
    fn get_object(&self, name: &str) -> Option<&Value> {
        self.get(name)
    }
}
