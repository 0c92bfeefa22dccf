//! Canonical forms: comparing query results modulo object identity.
//!
//! OIDs are opaque ("whose value is not available to the user"), so two
//! plans are equivalent when their results are equal *after* consistently
//! renaming fresh OIDs and following references to value-equal objects.
//! This matters for rule 28 (`REF(DEREF(A)) = A`): the unrewritten plan
//! mints a fresh OID whose referent is value-equal to `A`'s referent; the
//! rewritten plan returns `A` itself.  Under [`canonical_form`] both
//! results are identical.
//!
//! The canonicalisation replaces every `Ref(oid)` with a tuple
//! `(@obj: k, @val: canonical(deref(oid)))` where `k` is the 0-based order
//! of first visit, and a back-edge (cycle) with just `(@obj: k)`.  Cyclic
//! object graphs (e.g. `Employee.manager` self references) terminate
//! because revisits stop recursion.
//!
//! Only a `Ref` changes, so a value with no `Ref` is its own canonical
//! form: [`canonical_form`] returns a clone of it, which for a tuple,
//! multiset or array is one reference count that shares the input's
//! storage and allocates nothing.  Where a `Ref` occurs, only the spine of
//! tuples, multisets and arrays above it is rebuilt; every `Ref`-free
//! sibling subtree is shared with the input.

use excess_types::{MultiSet, ObjectStore, Oid, Tuple, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Canonicalise a value against a store (see module docs).
pub fn canonical_form(v: &Value, store: &ObjectStore) -> Value {
    let mut visited = HashMap::new();
    canon(v, store, &mut visited).unwrap_or_else(|| v.clone())
}

/// `v`'s canonical form, or `None` when that is `v` itself (no `Ref`
/// below it).  Visits in the same order as any rebuild would, so the
/// first-visit numbering does not depend on what is shared.
fn canon(v: &Value, store: &ObjectStore, visited: &mut HashMap<Oid, usize>) -> Option<Value> {
    match v {
        Value::Ref(oid) => {
            if let Some(&k) = visited.get(oid) {
                return Some(Value::tuple([("@obj", Value::int(k as i32))]));
            }
            let k = visited.len();
            visited.insert(*oid, k);
            Some(match store.deref(*oid) {
                Ok(inner) => {
                    let c = canon(inner, store, visited).unwrap_or_else(|| inner.clone());
                    Value::tuple([("@obj", Value::int(k as i32)), ("@val", c)])
                }
                Err(_) => Value::tuple([
                    ("@obj", Value::int(k as i32)),
                    ("@dangling", Value::bool(true)),
                ]),
            })
        }
        Value::Tuple(t) => {
            let values = canon_each(|| t.iter().map(|(_, fv)| fv), t.arity(), store, visited)?;
            Some(Value::Tuple(Tuple::from_fields(
                t.field_names().zip(values),
            )))
        }
        Value::Set(s) => {
            let elems = canon_each(
                || s.iter_counted().map(|(e, _)| e),
                s.distinct_len(),
                store,
                visited,
            )?;
            let mut out = MultiSet::new();
            for (c, (_, n)) in elems.into_iter().zip(s.iter_counted()) {
                out.insert_n(c, n);
            }
            Some(Value::Set(out))
        }
        Value::Array(a) => canon_each(|| a.iter(), a.len(), store, visited)
            .map(|elems| Value::Array(Arc::new(elems))),
        Value::Scalar(_) | Value::Null(_) => None,
    }
}

/// Canonicalise `len` items in order: `None` when every item is its own
/// canonical form, else all of them, the unchanged ones shared.  `items`
/// restarts the walk, to copy the unchanged prefix once a change shows.
fn canon_each<'a, I: Iterator<Item = &'a Value>>(
    items: impl Fn() -> I,
    len: usize,
    store: &ObjectStore,
    visited: &mut HashMap<Oid, usize>,
) -> Option<Vec<Value>> {
    let mut out: Option<Vec<Value>> = None;
    for (i, item) in items().enumerate() {
        let c = canon(item, store, visited);
        match (&mut out, c) {
            (Some(out), c) => out.push(c.unwrap_or_else(|| item.clone())),
            (None, Some(c)) => {
                let mut rebuilt = Vec::with_capacity(len);
                rebuilt.extend(items().take(i).cloned());
                rebuilt.push(c);
                out = Some(rebuilt);
            }
            (None, None) => {}
        }
    }
    out
}

/// `true` iff two values are equal modulo consistent OID renaming and
/// reference following (each against its own store).
pub fn equal_modulo_identity(
    a: &Value,
    store_a: &ObjectStore,
    b: &Value,
    store_b: &ObjectStore,
) -> bool {
    canonical_form(a, store_a) == canonical_form(b, store_b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use excess_types::{SchemaType, TypeRegistry, Value};

    fn setup() -> (TypeRegistry, ObjectStore) {
        let mut r = TypeRegistry::new();
        r.define("Cell", SchemaType::tuple([("v", SchemaType::int4())]))
            .unwrap();
        (r, ObjectStore::new())
    }

    #[test]
    fn fresh_oids_with_equal_referents_canonicalise_equal() {
        let (r, mut s) = setup();
        let ty = r.lookup("Cell").unwrap();
        let cell = Value::tuple([("v", Value::int(7))]);
        let o1 = s.create(&r, ty, cell.clone()).unwrap();
        let o2 = s.create(&r, ty, cell).unwrap();
        assert_ne!(Value::Ref(o1), Value::Ref(o2));
        assert!(equal_modulo_identity(
            &Value::Ref(o1),
            &s,
            &Value::Ref(o2),
            &s
        ));
    }

    #[test]
    fn shared_vs_distinct_identity_distinguished() {
        // {r, r} (shared) vs {r1, r2} (two equal-valued objects): the
        // canonical forms differ — identity structure is preserved.
        let (r, mut s) = setup();
        let ty = r.lookup("Cell").unwrap();
        let cell = Value::tuple([("v", Value::int(7))]);
        let o1 = s.create(&r, ty, cell.clone()).unwrap();
        let o2 = s.create(&r, ty, cell).unwrap();
        let shared = Value::array([Value::Ref(o1), Value::Ref(o1)]);
        let distinct = Value::array([Value::Ref(o1), Value::Ref(o2)]);
        assert!(!equal_modulo_identity(&shared, &s, &distinct, &s));
        assert!(equal_modulo_identity(&shared, &s, &shared, &s));
    }

    #[test]
    fn cyclic_object_graphs_terminate() {
        let mut r = TypeRegistry::new();
        r.define(
            "Node",
            SchemaType::tuple([("next", SchemaType::reference("Node"))]),
        )
        .unwrap();
        let ty = r.lookup("Node").unwrap();
        let mut s = ObjectStore::new();
        // Create a node, then point it at itself.
        let oid = s.create_unchecked(ty, Value::dne());
        s.update(&r, oid, Value::tuple([("next", Value::Ref(oid))]))
            .unwrap();
        let c = canonical_form(&Value::Ref(oid), &s);
        // The inner reference is a back-edge: (@obj: 0).
        assert_eq!(c.to_string(), "(@obj: 0, @val: (next: (@obj: 0)))");
    }

    #[test]
    fn dangling_refs_are_marked() {
        let (r, mut s) = setup();
        let ty = r.lookup("Cell").unwrap();
        let o = s
            .create(&r, ty, Value::tuple([("v", Value::int(1))]))
            .unwrap();
        s.delete(o).unwrap();
        let c = canonical_form(&Value::Ref(o), &s);
        assert!(c.to_string().contains("@dangling"));
    }
}
