//! The transformation-rule catalogue, organised as in the paper's Appendix:
//! §2 multisets (rules 1–15), §3 arrays (16–22), §4 tuples/references/
//! predicates (23–28), plus classical relational rules recast in this
//! algebra.

pub mod array;
pub mod dispatch;
pub mod multiset;
pub mod relational;
pub mod tuple_ref;

use crate::rule::Rule;

/// Every rule in the catalogue.
pub(crate) fn all() -> Vec<Box<dyn Rule>> {
    let mut v = multiset::all();
    v.extend(array::all());
    v.extend(tuple_ref::all());
    v.extend(relational::all());
    v.extend(dispatch::all());
    v
}
