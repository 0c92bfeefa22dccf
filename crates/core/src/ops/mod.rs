//! Operator kernels.
//!
//! The multiset and tuple kernels live with their data structures in
//! `excess-types` ([`excess_types::MultiSet`], [`excess_types::Tuple`]);
//! this module holds the array kernels, the three-valued predicate logic,
//! and the aggregate functions.  The evaluator in [`mod@crate::eval`] wires
//! them to the expression AST.

pub(crate) mod aggregate;
pub mod array;
pub mod predicate;
