//! Statistics collection: the concrete realisation of the paper's
//! Section 6 future work ("an investigation of cost functions and useful
//! statistics for complex object data models").
//!
//! For every named top-level object we record total and distinct
//! cardinalities, the average size of nested collection attributes
//! (following references one level, since the dominant EXTRA idiom is
//! `{ ref T }` sets), and — when the elements are tuples — the number of
//! distinct values of each attribute (NDV).  The NDVs are what let the
//! cost model credit duplicate elimination and derive equi-join
//! selectivities, i.e. reproduce the paper's Figure 6→8 reasoning from
//! data rather than hints.  Globally we record the fraction of set
//! elements per exact type, which prices the Section 4 type-filtered
//! scans.
//!
//! Collected once, then maintained.  Behind each object's
//! [`ObjectStats`] sits a counted sketch: per attribute, the number of
//! elements carrying each value (keyed by a 64-bit digest of the value),
//! plus the occurrence, distinct and nested-size counts as integers.  A
//! collection (`Database::collect_stats`, [`collect_object_statistics`])
//! applies every element to an empty sketch; a data statement applies
//! only the elements it changed.  Either way the published `ObjectStats`
//! is derived from the sketch alone, so a maintained object and a fresh
//! collection agree bit for bit.  Like *Stored and Inherited Relations*
//! (PAPERS.md) treats derived attributes, the statistics are a query over
//! the stored set, kept current on write.

use crate::catalog::{is_extent_view, DbCatalog};
use excess_optimizer::{ObjectStats, Statistics};
use excess_types::{domain, MultiSet, ObjectStore, Oid, TypeRegistry, Value};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Recompute the statistics for one named object in place from a fresh
/// sketch of its stored value.  The object's entry (rows, distinct,
/// nested sizes, per-attribute NDVs) is replaced wholesale, so stale NDVs
/// for dropped attributes do not survive; the global `type_fractions` are
/// deliberately left alone (they need a whole-store pass and drift
/// slowly).  Returns false — after removing any stale entry — when the
/// catalog has no such object.
pub fn collect_object_statistics(
    catalog: &DbCatalog,
    store: &ObjectStore,
    name: &str,
    stats: &mut Statistics,
) -> bool {
    let Some(value) = catalog.value(name) else {
        stats.objects.remove(name);
        return false;
    };
    let (sketch, _) = Sketch::of(value, store);
    let object = sketch.object_stats(stats.default_avg_nested);
    stats.objects.insert(name.to_string(), object);
    true
}

/// The digest an attribute value is counted under: SipHash with fixed
/// keys (`DefaultHasher::new()`) over the derived `Hash`, so the same in
/// every process.  Two values share a digest only by collision, about
/// n²/2⁶⁵ for n distinct values.
fn digest(v: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// One object's counted sketch: what its [`ObjectStats`] is derived from.
///
/// A set's elements are tallied once per *distinct* element and an
/// array's once per element, as the collection has always counted them;
/// a reference is followed one level to the tuple it names.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Sketch {
    /// Occurrences (for arrays: length).
    rows: u64,
    /// Distinct elements (for arrays: length).
    distinct: u64,
    /// Sum of the sizes of the tallied elements' set/array attributes.
    nested_sum: u64,
    /// How many sizes `nested_sum` adds up.
    nested_count: u64,
    /// Per attribute: value digest → tallied elements carrying that value.
    /// No map and no count is ever zero, so an attribute no element
    /// carries any more is gone, as it would be from a fresh collection.
    attrs: HashMap<String, HashMap<u64, u64>>,
}

impl Sketch {
    /// Every element of `value` applied to an empty sketch, with the
    /// number of elements tallied.
    pub fn of(value: &Value, store: &ObjectStore) -> (Sketch, u64) {
        let mut sketch = Sketch::default();
        let tallied = match value {
            Value::Set(s) => s
                .iter_counted()
                .map(|(e, card)| sketch.set_count(e, 0, card, store))
                .sum(),
            Value::Array(a) => a.iter().map(|e| sketch.array_element(e, true, store)).sum(),
            _ => 0,
        };
        (sketch, tallied)
    }

    /// The statistics this sketch stands for.  `avg_nested` is an integer
    /// sum over an integer count, so it is the same `f64` however the
    /// sketch was reached.
    pub fn object_stats(&self, default_avg_nested: f64) -> ObjectStats {
        ObjectStats {
            rows: (self.rows as f64).max(1.0),
            distinct: (self.distinct as f64).max(1.0),
            avg_nested: if self.nested_count == 0 {
                default_avg_nested
            } else {
                self.nested_sum as f64 / self.nested_count as f64
            },
            attr_ndv: self
                .attrs
                .iter()
                .map(|(attr, values)| (attr.clone(), values.len() as f64))
                .collect(),
        }
    }

    /// The occurrences of `elem` in a set went from `before` to `after`.
    /// The element is tallied — its attributes hashed — only when it
    /// appears or disappears; returns how many elements were (0 or 1).
    fn set_count(&mut self, elem: &Value, before: u64, after: u64, store: &ObjectStore) -> u64 {
        self.rows = self.rows + after - before;
        if (before == 0) == (after == 0) {
            return 0;
        }
        let add = before == 0;
        if add {
            self.distinct += 1;
        } else {
            self.distinct -= 1;
        }
        self.tally(elem, store, add);
        1
    }

    /// One array element was added (`add`) or removed; returns 1, the
    /// element tallied.
    fn array_element(&mut self, elem: &Value, add: bool, store: &ObjectStore) -> u64 {
        if add {
            self.rows += 1;
            self.distinct += 1;
        } else {
            self.rows -= 1;
            self.distinct -= 1;
        }
        self.tally(elem, store, add);
        1
    }

    /// Count `elem` in (`add`) or out, following a reference one level.
    fn tally(&mut self, elem: &Value, store: &ObjectStore, add: bool) {
        match elem {
            Value::Ref(oid) => {
                if let Ok(target) = store.deref(*oid) {
                    self.tally_resolved(target, add);
                }
            }
            other => self.tally_resolved(other, add),
        }
    }

    /// Count a tuple's attribute values and nested sizes in or out; any
    /// other value carries neither.  Counting out what was never counted
    /// in (a value written behind the sketch's back through
    /// `Database::store_mut`) leaves the counts at zero rather than
    /// panicking; the next collection repairs them.
    fn tally_resolved(&mut self, v: &Value, add: bool) {
        let Value::Tuple(t) = v else { return };
        for (attr, fv) in t.iter() {
            let size = match fv {
                Value::Set(s) => Some(s.len()),
                Value::Array(a) => Some(a.len() as u64),
                _ => None,
            };
            let d = digest(fv);
            if add {
                if let Some(n) = size {
                    self.nested_sum += n;
                    self.nested_count += 1;
                }
                if !self.attrs.contains_key(attr) {
                    self.attrs.insert(attr.to_string(), HashMap::new());
                }
                let values = self.attrs.get_mut(attr).expect("inserted above");
                *values.entry(d).or_insert(0) += 1;
                continue;
            }
            if let Some(n) = size {
                self.nested_sum = self.nested_sum.saturating_sub(n);
                self.nested_count = self.nested_count.saturating_sub(1);
            }
            let Some(values) = self.attrs.get_mut(attr) else {
                continue;
            };
            if let Some(n) = values.get_mut(&d) {
                *n -= 1;
                if *n == 0 {
                    values.remove(&d);
                }
            }
            if values.is_empty() {
                self.attrs.remove(attr);
            }
        }
    }
}

/// Every catalog object's sketch — none until the first collection — and
/// how many elements the statistics code has tallied so far (the
/// committer's deterministic work count, `ServerStats::stats_elements`).
///
/// Kept beside [`Statistics`], not inside it: the plan cache compares
/// `ObjectStats` by value on every lookup and a published generation
/// carries `Statistics`, neither of which needs the per-value counts.
/// Each sketch is `Arc`-shared, so a clone of the database copies none
/// and a statement copies only the sketches it writes.
#[derive(Debug, Clone, Default)]
pub(crate) struct Sketches {
    by_object: HashMap<String, Arc<Sketch>>,
    tallied: u64,
}

impl Sketches {
    /// Has a collection run (and found any object)?
    pub fn collected(&self) -> bool {
        !self.by_object.is_empty()
    }

    /// Elements tallied into or out of a sketch so far.
    pub fn tallied(&self) -> u64 {
        self.tallied
    }

    /// The sketch behind `name`'s statistics, if it has one.
    pub fn get(&self, name: &str) -> Option<&Sketch> {
        self.by_object.get(name).map(Arc::as_ref)
    }

    /// The full sweep: every catalog object — extent views included —
    /// applied to an empty sketch, and the global exact-type fractions
    /// over the user-visible sets.  Replaces every sketch.
    pub fn collect(
        &mut self,
        catalog: &DbCatalog,
        registry: &TypeRegistry,
        store: &ObjectStore,
    ) -> Statistics {
        let mut stats = Statistics::new();
        let mut type_counts: HashMap<&str, u64> = HashMap::new();
        let mut total_elems = 0u64;
        self.by_object.clear();
        for name in catalog.all_names() {
            let Some(value) = catalog.value(name) else {
                continue;
            };
            let sketch = self.sweep(name, value, store);
            let object = sketch.object_stats(stats.default_avg_nested);
            stats.objects.insert(name.to_string(), object);
            if is_extent_view(name) {
                continue;
            }
            if let Value::Set(s) = value {
                for (e, card) in s.iter_counted() {
                    if let Some(ty) = domain::exact_type_of(e, registry, store) {
                        *type_counts.entry(registry.name_of(ty)).or_insert(0) += card;
                    }
                    total_elems += card;
                }
            }
        }
        if total_elems > 0 {
            for (ty, n) in type_counts {
                stats
                    .type_fractions
                    .insert(ty.to_string(), n as f64 / total_elems as f64);
            }
        }
        stats
    }

    /// Replace `name`'s sketch with a fresh one of `value`.
    pub fn sweep(&mut self, name: &str, value: &Value, store: &ObjectStore) -> &Sketch {
        let (sketch, tallied) = Sketch::of(value, store);
        self.tallied += tallied;
        self.by_object.insert(name.to_string(), Arc::new(sketch));
        &self.by_object[name]
    }

    /// The occurrences of `elem` in the set `name` went from `before` to
    /// `after`.
    pub fn set_count(
        &mut self,
        name: &str,
        elem: &Value,
        before: u64,
        after: u64,
        store: &ObjectStore,
    ) {
        if let Some(sketch) = self.by_object.get_mut(name) {
            self.tallied += Arc::make_mut(sketch).set_count(elem, before, after, store);
        }
    }

    /// `elem` was added to (`add`) or removed from the array `name`.
    pub fn array_element(&mut self, name: &str, elem: &Value, add: bool, store: &ObjectStore) {
        if let Some(sketch) = self.by_object.get_mut(name) {
            self.tallied += Arc::make_mut(sketch).array_element(elem, add, store);
        }
    }

    /// The stored object `oid` held `old` and now holds what `store`
    /// says: re-tally it in every object whose elements reference it —
    /// one membership probe per set, a scan per array.  Returns the
    /// objects whose sketches moved.
    pub fn stored_object_changed(
        &mut self,
        catalog: &DbCatalog,
        store: &ObjectStore,
        oid: Oid,
        old: &Value,
    ) -> Vec<String> {
        let Ok(new) = store.deref(oid) else {
            return Vec::new();
        };
        let probe = Value::Ref(oid);
        let mut touched = Vec::new();
        for (name, sketch) in &mut self.by_object {
            let holds = match catalog.value(name) {
                Some(Value::Set(s)) => u64::from(s.contains(&probe)),
                Some(Value::Array(a)) => a.iter().filter(|e| **e == probe).count() as u64,
                _ => 0,
            };
            if holds == 0 {
                continue;
            }
            let sketch = Arc::make_mut(sketch);
            for _ in 0..holds {
                sketch.tally_resolved(old, false);
                sketch.tally_resolved(new, true);
            }
            self.tallied += 2 * holds;
            touched.push(name.clone());
        }
        touched
    }
}

/// Every element whose count differs between two multisets, with its
/// counts in `old` and in `new`, by a merge walk of the two (both are in
/// value order).  A set derived from another shares its untouched
/// elements' allocations, and `==` on those is a pointer comparison, so
/// the walk compares values deeply only where they changed.
pub(crate) fn changed_counts<'a>(
    old: &'a MultiSet,
    new: &'a MultiSet,
) -> Vec<(&'a Value, u64, u64)> {
    use std::cmp::Ordering;
    let mut out = Vec::new();
    let mut olds = old.iter_counted().peekable();
    let mut news = new.iter_counted().peekable();
    loop {
        let order = match (olds.peek(), news.peek()) {
            (None, None) => break,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some((a, _)), Some((b, _))) if a == b => Ordering::Equal,
            (Some((a, _)), Some((b, _))) => a.cmp(b),
        };
        match order {
            Ordering::Less => {
                let (a, ca) = olds.next().expect("peeked");
                out.push((a, ca, 0));
            }
            Ordering::Greater => {
                let (b, cb) = news.next().expect("peeked");
                out.push((b, 0, cb));
            }
            Ordering::Equal => {
                let (a, ca) = olds.next().expect("peeked");
                let (_, cb) = news.next().expect("peeked");
                if ca != cb {
                    out.push((a, ca, cb));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, n: i32) -> Value {
        Value::tuple([
            ("name", Value::str(name)),
            ("n", Value::int(n)),
            ("kids", Value::set([Value::int(n)])),
        ])
    }

    /// Adding and then removing every element leaves the empty sketch;
    /// a count moving between two non-zero values tallies nothing.
    #[test]
    fn deltas_undo_each_other() {
        let store = ObjectStore::new();
        let mut s = Sketch::default();
        assert_eq!(s.set_count(&row("a", 1), 0, 1, &store), 1);
        assert_eq!(s.set_count(&row("a", 1), 1, 3, &store), 0);
        assert_eq!(s.set_count(&row("b", 1), 0, 1, &store), 1);
        let stats = s.object_stats(8.0);
        assert_eq!((stats.rows, stats.distinct), (4.0, 2.0));
        assert_eq!(stats.attr_ndv.get("name"), Some(&2.0));
        assert_eq!(stats.attr_ndv.get("n"), Some(&1.0));
        assert_eq!(stats.avg_nested, 1.0);
        s.set_count(&row("a", 1), 3, 0, &store);
        s.set_count(&row("b", 1), 1, 0, &store);
        assert_eq!(s, Sketch::default());
        assert_eq!(s.object_stats(8.0).avg_nested, 8.0);
    }

    #[test]
    fn changed_counts_walks_both_sides() {
        let ints = |xs: &[i32]| -> MultiSet { xs.iter().map(|&i| Value::int(i)).collect() };
        let old = ints(&[1, 2, 2, 4]);
        let new = ints(&[2, 3, 4]);
        let changes: Vec<_> = changed_counts(&old, &new)
            .into_iter()
            .map(|(v, a, b)| (v.clone(), a, b))
            .collect();
        assert_eq!(
            changes,
            [
                (Value::int(1), 1, 0),
                (Value::int(2), 2, 1),
                (Value::int(3), 0, 1)
            ]
        );
        assert!(changed_counts(&old, &old.clone()).is_empty());
    }
}
