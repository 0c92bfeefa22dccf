//! Multisets (bags) with the cardinality semantics of Section 3.2.1.
//!
//! "A multiset consists of a number of distinct elements, each of which has
//! a certain number of occurrences (a cardinality) in the multiset.  Two
//! multisets are equal iff every element appearing in either multiset has
//! the same cardinality in both."
//!
//! The primary representation is a sorted count map (`BTreeMap<Value, u64>`)
//! keyed on the algebra's single value-based equality.  A deliberately naive
//! `Vec`-based kernel is kept in [`naive`] as an ablation baseline for the
//! `A1` benchmark (see DESIGN.md).
//!
//! Following Section 3.2.4, `dne` nulls are "discarded whenever possible
//! during query processing — for example, a relational selection is easily
//! simulated because dne nulls appearing in a multiset are ignored": this is
//! realised by *dropping `dne` at insertion*, so any operator that builds a
//! multiset inherits the behaviour.

use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A multiset of [`Value`]s.
///
/// The count map is shared: `clone` bumps a reference count and every
/// mutator copies the map first iff another value still holds it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MultiSet {
    counts: Arc<BTreeMap<Value, u64>>,
}

impl MultiSet {
    /// The empty multiset `{ }`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an iterator of occurrences; `dne` occurrences are dropped.
    pub fn from_occurrences<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        let mut s = Self::new();
        for v in iter {
            s.insert(v);
        }
        s
    }

    /// Insert one occurrence of `v` (no-op for `dne`).
    pub fn insert(&mut self, v: Value) {
        self.insert_n(v, 1);
    }

    /// Insert `n` occurrences of `v` (no-op for `dne` or `n == 0`).
    pub fn insert_n(&mut self, v: Value, n: u64) {
        if n == 0 || v.is_dne() {
            return;
        }
        *Arc::make_mut(&mut self.counts).entry(v).or_insert(0) += n;
    }

    /// Remove up to `n` occurrences of `v`; returns how many were removed.
    pub fn remove_n(&mut self, v: &Value, n: u64) -> u64 {
        let have = self.count(v);
        let removed = have.min(n);
        if removed == 0 {
            return 0;
        }
        let counts = Arc::make_mut(&mut self.counts);
        if removed == have {
            counts.remove(v);
        } else if let Some(c) = counts.get_mut(v) {
            *c -= removed;
        }
        removed
    }

    /// Cardinality of `v` in this multiset (0 if absent).
    pub fn count(&self, v: &Value) -> u64 {
        self.counts.get(v).copied().unwrap_or(0)
    }

    /// `true` iff `v` occurs at least once (value-based membership,
    /// "conceptually an equality test against every occurrence").
    pub fn contains(&self, v: &Value) -> bool {
        self.count(v) > 0
    }

    /// Total number of occurrences, `|A|` counting duplicates.
    pub fn len(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Number of distinct elements.
    pub fn distinct_len(&self) -> usize {
        self.counts.len()
    }

    /// `true` iff the multiset has no occurrences.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterate over `(element, cardinality)` pairs in value order.
    pub fn iter_counted(&self) -> impl Iterator<Item = (&Value, u64)> {
        self.counts.iter().map(|(v, &c)| (v, c))
    }

    /// Iterate over every occurrence (elements repeated `cardinality` times).
    pub fn iter_occurrences(&self) -> impl Iterator<Item = &Value> {
        self.counts
            .iter()
            .flat_map(|(v, &c)| std::iter::repeat_n(v, c as usize))
    }

    /// Consume into `(element, cardinality)` pairs in value order.
    pub fn into_counted(self) -> impl Iterator<Item = (Value, u64)> {
        Arc::unwrap_or_clone(self.counts).into_iter()
    }

    /// `true` iff both multisets are views of the same count map (see
    /// [`Value::shares_storage_with`]).
    pub(crate) fn shares_storage_with(&self, other: &MultiSet) -> bool {
        Arc::ptr_eq(&self.counts, &other.counts)
    }

    /// Additive union `A ⊎ B`: cardinalities are *summed* (operator 1).
    pub fn additive_union(mut self, other: MultiSet) -> MultiSet {
        let mine = Arc::make_mut(&mut self.counts);
        for (v, c) in other.into_counted() {
            *mine.entry(v).or_insert(0) += c;
        }
        self
    }

    /// Difference `A − B`: "subtracts the cardinality of an element in B
    /// from that in A to obtain the result cardinality" (operator 6),
    /// saturating at zero.
    pub fn difference(mut self, other: &MultiSet) -> MultiSet {
        let counts = Arc::make_mut(&mut self.counts);
        for (v, c) in other.counts.iter() {
            if let Some(mine) = counts.get_mut(v) {
                if *mine > *c {
                    *mine -= *c;
                } else {
                    counts.remove(v);
                }
            }
        }
        self
    }

    /// Duplicate elimination `DE(A)`: "reduces the cardinality of each
    /// element of a multiset to 1" (operator 5).
    pub fn dup_elim(&self) -> MultiSet {
        MultiSet {
            counts: Arc::new(self.counts.keys().map(|v| (v.clone(), 1)).collect()),
        }
    }

    /// Multiset union `A ∪ B` (derived, Appendix §1): result cardinality is
    /// the **max** of the input cardinalities.  Defined here directly;
    /// the optimizer also knows the derivation `(A − B) ⊎ B`.
    pub fn union_max(mut self, other: &MultiSet) -> MultiSet {
        let counts = Arc::make_mut(&mut self.counts);
        for (v, c) in other.counts.iter() {
            let e = counts.entry(v.clone()).or_insert(0);
            *e = (*e).max(*c);
        }
        self
    }

    /// Multiset intersection `A ∩ B` (derived, Appendix §1): result
    /// cardinality is the **min** of the input cardinalities.  Derivation:
    /// `A − (A − B)`.
    pub fn intersect_min(&self, other: &MultiSet) -> MultiSet {
        let mut out = MultiSet::new();
        for (v, c) in self.counts.iter() {
            let m = (*c).min(other.count(v));
            out.insert_n(v.clone(), m);
        }
        out
    }

    /// Cartesian product (operator 7): "identical to the set-theoretic ×
    /// except that it allows for (and produces) duplicates".  Each result
    /// occurrence is a 2-field tuple `(fst, snd)`; cardinalities multiply.
    pub fn cross(&self, other: &MultiSet) -> MultiSet {
        let mut out = MultiSet::new();
        for (a, ca) in self.counts.iter() {
            for (b, cb) in other.counts.iter() {
                out.insert_n(Value::pair(a.clone(), b.clone()), ca * cb);
            }
        }
        out
    }

    /// `SET_COLLAPSE` (operator 8): for a multiset of multisets, the
    /// additive union (⊎) of all member multisets, honouring outer
    /// cardinalities.  Non-multiset members are a structural error; the
    /// caller (evaluator) type-checks, so this returns `None` on misuse.
    pub fn collapse(&self) -> Option<MultiSet> {
        let mut out = MultiSet::new();
        for (v, c) in self.counts.iter() {
            let inner = v.as_set()?;
            for (e, ec) in inner.iter_counted() {
                out.insert_n(e.clone(), ec * c);
            }
        }
        Some(out)
    }
}

impl FromIterator<Value> for MultiSet {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Self::from_occurrences(iter)
    }
}

impl fmt::Display for MultiSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{ ")?;
        let mut first = true;
        for v in self.iter_occurrences() {
            if !first {
                f.write_str(", ")?;
            }
            first = false;
            write!(f, "{v}")?;
        }
        f.write_str(" }")
    }
}

/// Naive `Vec`-based multiset kernels, kept as the ablation baseline for the
/// `A1` benchmark.  These are semantically equivalent to the count-map
/// operations above (asserted by property tests) but quadratic where the
/// count map is `O(n log n)`.
pub mod naive {
    use crate::value::Value;

    /// Additive union of occurrence lists: concatenation.
    pub fn additive_union(mut a: Vec<Value>, mut b: Vec<Value>) -> Vec<Value> {
        a.append(&mut b);
        a
    }

    /// Duplicate elimination by pairwise scan (quadratic on purpose).
    pub fn dup_elim(a: &[Value]) -> Vec<Value> {
        let mut out: Vec<Value> = Vec::new();
        for v in a {
            if !out.contains(v) {
                out.push(v.clone());
            }
        }
        out
    }

    /// Difference with per-occurrence cancellation (quadratic on purpose).
    pub fn difference(a: &[Value], b: &[Value]) -> Vec<Value> {
        let mut remaining = b.to_vec();
        let mut out = Vec::new();
        for v in a {
            if let Some(pos) = remaining.iter().position(|r| r == v) {
                remaining.swap_remove(pos);
            } else {
                out.push(v.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn ints(xs: &[i32]) -> MultiSet {
        xs.iter().map(|&i| Value::int(i)).collect()
    }

    #[test]
    fn equality_is_cardinality_based() {
        assert_eq!(ints(&[1, 2, 1]), ints(&[1, 1, 2]));
        assert_ne!(ints(&[1, 2]), ints(&[1, 2, 2]));
    }

    #[test]
    fn additive_union_sums_cardinalities() {
        let u = ints(&[1, 1, 2]).additive_union(ints(&[1, 3]));
        assert_eq!(u.count(&Value::int(1)), 3);
        assert_eq!(u.count(&Value::int(2)), 1);
        assert_eq!(u.count(&Value::int(3)), 1);
        assert_eq!(u.len(), 5);
    }

    #[test]
    fn difference_subtracts_and_saturates() {
        let d = ints(&[1, 1, 1, 2]).difference(&ints(&[1, 2, 2, 3]));
        assert_eq!(d.count(&Value::int(1)), 2);
        assert_eq!(d.count(&Value::int(2)), 0);
        assert_eq!(d.count(&Value::int(3)), 0);
    }

    #[test]
    fn remove_n_removes_at_most_what_is_there() {
        let mut s = ints(&[1, 1, 1, 2]);
        assert_eq!(s.remove_n(&Value::int(1), 2), 2);
        assert_eq!(s.count(&Value::int(1)), 1);
        assert_eq!(s.remove_n(&Value::int(2), 5), 1);
        assert_eq!(s.remove_n(&Value::int(3), 1), 0);
        assert_eq!(s, ints(&[1]));
        assert_eq!(s.distinct_len(), 1);
    }

    #[test]
    fn dup_elim_makes_a_set() {
        let s = ints(&[4, 4, 4, 9]).dup_elim();
        assert_eq!(s.count(&Value::int(4)), 1);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn union_max_and_intersect_min() {
        let a = ints(&[1, 1, 2]);
        let b = ints(&[1, 2, 2, 3]);
        let u = a.clone().union_max(&b);
        assert_eq!(u.count(&Value::int(1)), 2);
        assert_eq!(u.count(&Value::int(2)), 2);
        assert_eq!(u.count(&Value::int(3)), 1);
        let i = a.intersect_min(&b);
        assert_eq!(i.count(&Value::int(1)), 1);
        assert_eq!(i.count(&Value::int(2)), 1);
        assert_eq!(i.count(&Value::int(3)), 0);
    }

    #[test]
    fn union_matches_its_derivation() {
        // A ∪ B = (A − B) ⊎ B  (Appendix §1)
        let a = ints(&[1, 1, 2, 5]);
        let b = ints(&[1, 2, 2, 3]);
        let derived = a.clone().difference(&b).additive_union(b.clone());
        assert_eq!(a.union_max(&b), derived);
    }

    #[test]
    fn intersection_matches_its_derivation() {
        // A ∩ B = A − (A − B)  (Appendix §1)
        let a = ints(&[1, 1, 2, 5]);
        let b = ints(&[1, 2, 2, 3]);
        let derived = a.clone().difference(&a.clone().difference(&b));
        assert_eq!(a.intersect_min(&b), derived);
    }

    #[test]
    fn cross_multiplies_cardinalities() {
        let c = ints(&[1, 1]).cross(&ints(&[7, 7, 8]));
        assert_eq!(c.count(&Value::pair(Value::int(1), Value::int(7))), 4);
        assert_eq!(c.count(&Value::pair(Value::int(1), Value::int(8))), 2);
        assert_eq!(c.len(), 6);
    }

    #[test]
    fn collapse_respects_outer_cardinality() {
        let inner = Value::Set(ints(&[1, 2]));
        let mut outer = MultiSet::new();
        outer.insert_n(inner, 2);
        let c = outer.collapse().unwrap();
        assert_eq!(c.count(&Value::int(1)), 2);
        assert_eq!(c.count(&Value::int(2)), 2);
    }

    #[test]
    fn collapse_rejects_non_set_members() {
        let outer = ints(&[1]);
        assert!(outer.collapse().is_none());
    }

    #[test]
    fn dne_is_discarded_on_insertion() {
        let s = MultiSet::from_occurrences(vec![Value::int(1), Value::dne(), Value::int(1)]);
        assert_eq!(s.len(), 2);
        assert!(!s.contains(&Value::dne()));
        // unk, by contrast, is a first-class occurrence
        let s2 = MultiSet::from_occurrences(vec![Value::unk()]);
        assert_eq!(s2.len(), 1);
    }

    #[test]
    fn sample_from_paper_set_apply_example() {
        // A = {{1,1,2},{2,3,4},{1}}; subtracting {1} per occurrence gives
        // {{1,2},{2,3,4},{}} (Section 3.2.1 example 3).
        let a: MultiSet = vec![
            Value::Set(ints(&[1, 1, 2])),
            Value::Set(ints(&[2, 3, 4])),
            Value::Set(ints(&[1])),
        ]
        .into_iter()
        .collect();
        let one = ints(&[1]);
        let result: MultiSet = a
            .iter_occurrences()
            .map(|v| Value::Set(v.as_set().unwrap().clone().difference(&one)))
            .collect();
        let expected: MultiSet = vec![
            Value::Set(ints(&[1, 2])),
            Value::Set(ints(&[2, 3, 4])),
            Value::Set(ints(&[])),
        ]
        .into_iter()
        .collect();
        assert_eq!(result, expected);
    }

    #[test]
    fn naive_kernels_agree() {
        let a = vec![Value::int(1), Value::int(1), Value::int(2)];
        let b = vec![Value::int(1), Value::int(3)];
        let fast = ints(&[1, 1, 2]).additive_union(ints(&[1, 3]));
        let slow: MultiSet = naive::additive_union(a.clone(), b.clone())
            .into_iter()
            .collect();
        assert_eq!(fast, slow);
        let fast_de = ints(&[1, 1, 2]).dup_elim();
        let slow_de: MultiSet = naive::dup_elim(&a).into_iter().collect();
        assert_eq!(fast_de, slow_de);
        let fast_diff = ints(&[1, 1, 2]).difference(&ints(&[1, 3]));
        let slow_diff: MultiSet = naive::difference(&a, &b).into_iter().collect();
        assert_eq!(fast_diff, slow_diff);
    }
}
