//! Property tests for the type-system substrate: scalar hash/order
//! consistency, date arithmetic, domain monotonicity, store laws, and
//! copy-on-write isolation of shared values.

use excess_types::domain::{check_dom, check_dom_exact};
use excess_types::{Date, MultiSet, ObjectStore, Scalar, SchemaType, TypeRegistry, Value};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

fn h<T: Hash>(v: &T) -> u64 {
    let mut s = DefaultHasher::new();
    v.hash(&mut s);
    s.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn int_float_equality_implies_equal_hashes(i in any::<i32>()) {
        // Int4(k) == Float4(k as f64) demands equal hashes.
        let a = Scalar::Int4(i);
        let b = Scalar::Float4(f64::from(i));
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(h(&a), h(&b));
    }

    #[test]
    fn scalar_order_is_antisymmetric_and_total(
        a in arb_scalar(), b in arb_scalar()
    ) {
        use std::cmp::Ordering::*;
        match a.cmp(&b) {
            Less => prop_assert_eq!(b.cmp(&a), Greater),
            Greater => prop_assert_eq!(b.cmp(&a), Less),
            Equal => {
                prop_assert_eq!(b.cmp(&a), Equal);
                prop_assert_eq!(h(&a), h(&b), "Eq must imply equal hashes");
            }
        }
    }

    #[test]
    fn date_ordinal_is_monotone(
        y1 in 1900i32..2100, m1 in 1u8..=12, d1 in 1u8..=28,
        y2 in 1900i32..2100, m2 in 1u8..=12, d2 in 1u8..=28
    ) {
        let a = Date::new(y1, m1, d1).unwrap();
        let b = Date::new(y2, m2, d2).unwrap();
        prop_assert_eq!(a.cmp(&b), a.to_ordinal().cmp(&b.to_ordinal()));
        // Age is anti-monotone in the birthday.
        let today = Date::new(2100, 12, 31).unwrap();
        if a <= b {
            prop_assert!(a.age_at(today) >= b.age_at(today));
        }
    }

    #[test]
    fn dom_is_a_subset_of_big_dom(v in arb_flat_value()) {
        // Any value in dom(S) is in DOM(S) for the matching scalar schema.
        let reg = TypeRegistry::new();
        for s in [
            SchemaType::int4(),
            SchemaType::float4(),
            SchemaType::chars(),
            SchemaType::boolean(),
        ] {
            if check_dom_exact(&v, &s, &reg).is_ok() {
                prop_assert!(check_dom(&v, &s, &reg).is_ok());
            }
        }
    }

    #[test]
    fn store_create_then_deref_is_identity(xs in prop::collection::vec(any::<i32>(), 0..6)) {
        let mut reg = TypeRegistry::new();
        reg.define("Box", SchemaType::tuple([("items", SchemaType::set(SchemaType::int4()))]))
            .unwrap();
        let ty = reg.lookup("Box").unwrap();
        let mut store = ObjectStore::new();
        let v = Value::tuple([("items", Value::set(xs.into_iter().map(Value::int)))]);
        let oid = store.create(&reg, ty, v.clone()).unwrap();
        prop_assert_eq!(store.deref(oid).unwrap(), &v);
        prop_assert_eq!(store.exact_type(oid).unwrap(), ty);
        // Updating to another valid value round-trips too.
        let v2 = Value::tuple([("items", Value::set([Value::int(1)]))]);
        store.update(&reg, oid, v2.clone()).unwrap();
        prop_assert_eq!(store.deref(oid).unwrap(), &v2);
    }

    #[test]
    fn fixed_array_domain_is_exactly_length_n(
        n in 0usize..6, m in 0usize..6
    ) {
        let reg = TypeRegistry::new();
        let s = SchemaType::fixed_array(SchemaType::int4(), n);
        let v = Value::array((0..m).map(|i| Value::int(i as i32)));
        prop_assert_eq!(check_dom(&v, &s, &reg).is_ok(), m == n);
    }

    #[test]
    fn writing_a_clone_leaves_the_original_alone(items in prop::collection::vec(arb_nested_value(), 0..5), other in prop::collection::vec(arb_nested_value(), 0..5), w in arb_nested_value()) {
        check_copy_on_write(items, other, w);
    }
}

/// `v` rebuilt node by node, sharing no allocation with it.
fn rebuilt(v: &Value) -> Value {
    match v {
        Value::Tuple(t) => Value::tuple(t.iter().map(|(n, f)| (n, rebuilt(f)))),
        Value::Set(s) => Value::set(s.iter_occurrences().map(rebuilt)),
        Value::Array(a) => Value::array(a.iter().map(rebuilt)),
        leaf => leaf.clone(),
    }
}

/// `original` is indistinguishable from `pristine`, a copy rebuilt before
/// any clone of `original` was written.
fn assert_untouched(original: &Value, pristine: &Value, after: &str) {
    assert_eq!(original, pristine, "== after {after}");
    assert_eq!(
        original.cmp(pristine),
        std::cmp::Ordering::Equal,
        "cmp after {after}"
    );
    assert_eq!(h(original), h(pristine), "hash after {after}");
    assert_eq!(
        format!("{original:?}"),
        format!("{pristine:?}"),
        "Debug after {after}"
    );
    assert_eq!(
        original.to_string(),
        pristine.to_string(),
        "Display after {after}"
    );
}

/// Every mutating API, applied to a clone that shares storage with the
/// original: the original must not move.
fn check_copy_on_write(items: Vec<Value>, other: Vec<Value>, w: Value) {
    let other: MultiSet = other.into_iter().collect();

    // ----- multisets -----
    let set = Value::set(items.iter().cloned());
    let pristine = rebuilt(&set);
    type Write = fn(MultiSet, &MultiSet, &Value) -> MultiSet;
    let writes: [(&str, Write); 5] = [
        ("insert", |mut s, _, w| {
            s.insert(w.clone());
            s
        }),
        ("insert_n", |mut s, _, w| {
            s.insert_n(w.clone(), 3);
            s
        }),
        ("additive_union", |s, o, _| s.additive_union(o.clone())),
        ("difference", |s, o, _| s.difference(o)),
        ("union_max", |s, o, _| s.union_max(o)),
    ];
    for (name, write) in writes {
        let clone = set.clone();
        assert!(clone.shares_storage_with(&set));
        let Value::Set(s) = clone else { unreachable!() };
        // A set that is its own operand is the hardest sharing case.
        for operand in [&other, set.as_set().unwrap()] {
            let written = write(s.clone(), operand, &w);
            assert_untouched(&set, &pristine, name);
            // What the write produced is what the same write produces on
            // a copy that never shared anything.
            let Value::Set(fresh) = rebuilt(&set) else {
                unreachable!()
            };
            assert_eq!(written, write(fresh, operand, &w), "{name}");
        }
    }

    // ----- arrays: push, assign, and a write one level down -----
    let arr = Value::array([Value::array(items.iter().cloned()), w.clone()]);
    let pristine = rebuilt(&arr);
    let mut pushed = arr.clone();
    let Value::Array(a) = &mut pushed else {
        unreachable!()
    };
    Arc::make_mut(a).push(w.clone());
    assert_untouched(&arr, &pristine, "array push");
    let mut assigned = arr.clone();
    let Value::Array(a) = &mut assigned else {
        unreachable!()
    };
    Arc::make_mut(a)[1] = Value::unk();
    assert_untouched(&arr, &pristine, "array assign");
    let mut nested = arr.clone();
    let Value::Array(a) = &mut nested else {
        unreachable!()
    };
    let Value::Array(inner) = &mut Arc::make_mut(a)[0] else {
        unreachable!()
    };
    Arc::make_mut(inner).push(w.clone());
    assert_untouched(&arr, &pristine, "nested array push");
    // The copy stopped at the nodes on the written path: the untouched
    // sibling is still the original's.
    if let (Some(x), Some(y)) = (nested.as_array(), arr.as_array()) {
        assert_eq!(x[1].shares_storage_with(&y[1]), is_composite(&w));
    }

    // ----- the object store -----
    let mut reg = TypeRegistry::new();
    let boxed = SchemaType::tuple([("items", SchemaType::set(SchemaType::int4()))]);
    let base = reg.define("Box", boxed).unwrap();
    let sub = reg
        .define_with_supertypes(
            "Crate",
            SchemaType::tuple([("n", SchemaType::int4())]),
            &["Box"],
        )
        .unwrap();
    let mut store = ObjectStore::new();
    let held = Value::tuple([("payload", set.clone())]);
    let pristine = rebuilt(&held);
    let oid = store.create_unchecked(base, held);
    let bystander = store.create_unchecked(base, arr.clone());
    let mut updated = store.clone();
    let mut migrated = store.clone();
    for copy in [&updated, &migrated] {
        for (o, obj) in store.iter() {
            assert!(copy.deref(o).unwrap().shares_storage_with(&obj.value));
        }
    }
    let small = Value::tuple([("items", Value::set([Value::int(1)]))]);
    updated.update(&reg, oid, small).unwrap();
    let big = Value::tuple([("items", Value::set([])), ("n", Value::int(2))]);
    migrated.migrate(&reg, oid, sub, big).unwrap();
    assert_untouched(store.deref(oid).unwrap(), &pristine, "update/migrate");
    assert_eq!(store.exact_type(oid).unwrap(), base);
    assert_eq!(migrated.exact_type(oid).unwrap(), sub);
    for copy in [&updated, &migrated] {
        assert_ne!(copy.deref(oid).unwrap(), store.deref(oid).unwrap());
        let theirs = copy.deref(bystander).unwrap();
        assert!(theirs.shares_storage_with(store.deref(bystander).unwrap()));
    }
}

fn is_composite(v: &Value) -> bool {
    matches!(v, Value::Tuple(_) | Value::Set(_) | Value::Array(_))
}

fn arb_scalar() -> impl Strategy<Value = Scalar> {
    prop_oneof![
        any::<i32>().prop_map(Scalar::Int4),
        any::<f64>().prop_map(Scalar::Float4),
        "[a-z]{0,5}".prop_map(Scalar::Char),
        any::<bool>().prop_map(Scalar::Bool),
        (1900i32..2100, 1u8..=12, 1u8..=28)
            .prop_map(|(y, m, d)| Scalar::Date(Date::new(y, m, d).unwrap())),
    ]
}

/// Values nested up to two levels deep (sets, arrays, tuples).
fn arb_nested_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        any::<i32>().prop_map(Value::int),
        "[a-z]{0,4}".prop_map(Value::str),
        Just(Value::unk()),
    ];
    leaf.prop_recursive(2, 12, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::set),
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::array),
            (inner.clone(), inner).prop_map(|(a, b)| Value::tuple([("a", a), ("b", b)])),
        ]
    })
}

fn arb_flat_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i32>().prop_map(Value::int),
        any::<f64>().prop_map(Value::float),
        "[a-z]{0,5}".prop_map(Value::str),
        any::<bool>().prop_map(Value::bool),
        Just(Value::dne()),
    ]
}
