//! Array operator kernels (Section 3.2.3).
//!
//! "Arrays in the algebra are one-dimensional and variable-length"; four of
//! the nine operators (`ARR_COLLAPSE`, `ARR_DIFF`, `ARR_DE`, `ARR_CROSS`)
//! are "order-preserving analogs of SET_COLLAPSE, −, DE, and ×".  Bounds
//! are 1-based integers "≥ 1 or the special token `last`".

use crate::expr::Bound;
use excess_types::Value;

/// Resolve a [`Bound`] against an array of length `len` to a 1-based index.
fn resolve_bound(b: Bound, len: usize) -> usize {
    match b {
        Bound::At(n) => n,
        Bound::Last => len,
    }
}

/// `ARR_EXTRACT_n(A)`: the n-th element *itself* ("the result is not an
/// array containing the element but simply the element itself").
/// Out-of-range extraction yields `dne` — the element does not exist.
pub fn extract(a: &[Value], b: Bound) -> Value {
    let n = resolve_bound(b, a.len());
    if n == 0 || n > a.len() {
        Value::dne()
    } else {
        a[n - 1].clone()
    }
}

/// `SUBARR_{m,n}(A)`: elements m..=n in input order.  An empty or inverted
/// range yields `[]`; ranges are clamped to the array.
pub fn subarr(a: &[Value], m: Bound, n: Bound) -> Vec<Value> {
    let lo = resolve_bound(m, a.len()).max(1);
    let hi = resolve_bound(n, a.len()).min(a.len());
    if lo > hi {
        return Vec::new();
    }
    a[lo - 1..hi].to_vec()
}

/// `ARR_CAT(A, B)`: all of A (in order) followed by all of B (in order).
pub fn cat(a: &[Value], b: &[Value]) -> Vec<Value> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    out.extend_from_slice(a);
    out.extend_from_slice(b);
    out
}

/// `ARR_COLLAPSE(A)`: order-preserving flatten of an array of arrays.
/// Returns `None` if a member is not an array.
pub(crate) fn collapse(a: &[Value]) -> Option<Vec<Value>> {
    let mut out = Vec::new();
    for v in a {
        out.extend_from_slice(v.as_array()?);
    }
    Some(out)
}

/// `ARR_DE(A)`: order-preserving duplicate elimination — the first
/// occurrence of each value is kept in place.
pub fn dup_elim(a: &[Value]) -> Vec<Value> {
    let mut seen = std::collections::BTreeSet::new();
    a.iter()
        .filter(|v| seen.insert((*v).clone()))
        .cloned()
        .collect()
}

/// `ARR_DIFF(A, B)`: order-preserving analog of multiset difference — each
/// occurrence in B cancels the *leftmost* remaining equal occurrence in A;
/// survivors keep their input order.
pub fn diff(a: &[Value], b: &[Value]) -> Vec<Value> {
    use std::collections::BTreeMap;
    let mut budget: BTreeMap<&Value, u64> = BTreeMap::new();
    for v in b {
        *budget.entry(v).or_insert(0) += 1;
    }
    let mut out = Vec::new();
    for v in a {
        match budget.get_mut(v) {
            Some(c) if *c > 0 => *c -= 1,
            _ => out.push(v.clone()),
        }
    }
    out
}

/// `ARR_CROSS(A, B)`: order-preserving analog of × — pairs in
/// lexicographic position order `(a1,b1), (a1,b2), …, (a2,b1), …`.
pub fn cross(a: &[Value], b: &[Value]) -> Vec<Value> {
    let mut out = Vec::with_capacity(a.len() * b.len());
    for x in a {
        for y in b {
            out.push(Value::pair(x.clone(), y.clone()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr(xs: &[i32]) -> Vec<Value> {
        xs.iter().map(|&i| Value::int(i)).collect()
    }

    #[test]
    fn extract_is_the_element_itself() {
        let a = arr(&[10, 20, 30]);
        assert_eq!(extract(&a, Bound::At(2)), Value::int(20));
        assert_eq!(extract(&a, Bound::Last), Value::int(30));
    }

    #[test]
    fn extract_out_of_range_is_dne() {
        let a = arr(&[10]);
        assert_eq!(extract(&a, Bound::At(5)), Value::dne());
        assert_eq!(extract(&a, Bound::At(0)), Value::dne());
        assert_eq!(extract(&[], Bound::Last), Value::dne());
    }

    #[test]
    fn subarr_clamps_and_orders() {
        let a = arr(&[1, 2, 3, 4, 5]);
        assert_eq!(subarr(&a, Bound::At(2), Bound::At(4)), arr(&[2, 3, 4]));
        assert_eq!(subarr(&a, Bound::At(3), Bound::Last), arr(&[3, 4, 5]));
        assert_eq!(subarr(&a, Bound::At(4), Bound::At(2)), arr(&[]));
        assert_eq!(subarr(&a, Bound::At(4), Bound::At(99)), arr(&[4, 5]));
    }

    #[test]
    fn cat_preserves_both_orders() {
        assert_eq!(cat(&arr(&[1, 2]), &arr(&[3])), arr(&[1, 2, 3]));
        // Rule 16 (associativity):
        let (a, b, c) = (arr(&[1]), arr(&[2, 3]), arr(&[4]));
        assert_eq!(cat(&a, &cat(&b, &c)), cat(&cat(&a, &b), &c));
    }

    #[test]
    fn collapse_flattens_in_order() {
        let nested = vec![
            Value::array(arr(&[1, 2])),
            Value::array(arr(&[])),
            Value::array(arr(&[3])),
        ];
        assert_eq!(collapse(&nested).unwrap(), arr(&[1, 2, 3]));
        assert!(collapse(&arr(&[1])).is_none());
    }

    #[test]
    fn de_keeps_first_occurrence_in_place() {
        assert_eq!(dup_elim(&arr(&[3, 1, 3, 2, 1])), arr(&[3, 1, 2]));
    }

    #[test]
    fn diff_cancels_leftmost() {
        assert_eq!(diff(&arr(&[1, 2, 1, 3, 1]), &arr(&[1, 1])), arr(&[2, 3, 1]));
        assert_eq!(diff(&arr(&[1]), &arr(&[2])), arr(&[1]));
    }

    #[test]
    fn cross_is_position_ordered() {
        let out = cross(&arr(&[1, 2]), &arr(&[7, 8]));
        assert_eq!(
            out,
            vec![
                Value::pair(Value::int(1), Value::int(7)),
                Value::pair(Value::int(1), Value::int(8)),
                Value::pair(Value::int(2), Value::int(7)),
                Value::pair(Value::int(2), Value::int(8)),
            ]
        );
    }
}
