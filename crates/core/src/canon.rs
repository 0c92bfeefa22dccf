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

use excess_types::{ObjectStore, Value};
use std::collections::HashMap;

/// Canonicalise a value against a store (see module docs).
pub fn canonical_form(v: &Value, store: &ObjectStore) -> Value {
    let mut visited = HashMap::new();
    canon(v, store, &mut visited)
}

fn canon(v: &Value, store: &ObjectStore, visited: &mut HashMap<excess_types::Oid, usize>) -> Value {
    match v {
        Value::Ref(oid) => {
            if let Some(&k) = visited.get(oid) {
                return Value::tuple([("@obj", Value::int(k as i32))]);
            }
            let k = visited.len();
            visited.insert(*oid, k);
            match store.deref(*oid) {
                Ok(inner) => {
                    let c = canon(&inner.clone(), store, visited);
                    Value::tuple([("@obj", Value::int(k as i32)), ("@val", c)])
                }
                Err(_) => Value::tuple([
                    ("@obj", Value::int(k as i32)),
                    ("@dangling", Value::bool(true)),
                ]),
            }
        }
        Value::Tuple(t) => Value::Tuple(excess_types::Tuple::from_fields(
            t.iter()
                .map(|(n, fv)| (n.to_string(), canon(fv, store, visited))),
        )),
        Value::Set(s) => {
            let mut out = excess_types::MultiSet::new();
            for (e, c) in s.iter_counted() {
                out.insert_n(canon(e, store, visited), c);
            }
            Value::Set(out)
        }
        Value::Array(a) => Value::array(a.iter().map(|e| canon(e, store, visited))),
        other => other.clone(),
    }
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
