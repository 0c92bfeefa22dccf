//! The text of a failed domain check is pinned byte for byte.
//!
//! The conformance walker carries a failure as a borrowed record and builds
//! the `TypeError` only when `check_dom`/`check_dom_exact` return it; these
//! are the messages that walker must keep producing, one per way a value
//! can fall outside `dom(S)` or `DOM(S)`, plus the two dispatch errors that
//! the exact-type test feeds.

use excess::algebra::expr::Expr;
use excess::algebra::{evaluate, EvalCtx};
use excess::types::domain::{check_dom, check_dom_exact};
use excess::types::{ObjectStore, OidAllocator, SchemaType, TypeRegistry, Value};
use std::collections::HashMap;

fn registry() -> TypeRegistry {
    let mut r = TypeRegistry::new();
    r.define(
        "Person",
        SchemaType::tuple([("ssnum", SchemaType::int4()), ("name", SchemaType::chars())]),
    )
    .unwrap();
    r.define_with_supertypes(
        "Employee",
        SchemaType::tuple([("salary", SchemaType::int4())]),
        &["Person"],
    )
    .unwrap();
    r.define_with_supertypes(
        "Student",
        SchemaType::tuple([("gpa", SchemaType::float4())]),
        &["Person"],
    )
    .unwrap();
    r
}

fn switch_error(r: &TypeRegistry, elem: Value, table: &[&str]) -> String {
    let mut cat = HashMap::new();
    cat.insert("P".to_string(), Value::set([elem]));
    let mut store = ObjectStore::new();
    let mut ctx = EvalCtx::new(r, &mut store, &cat);
    let e = Expr::SetApplySwitch {
        input: Box::new(Expr::named("P")),
        table: table
            .iter()
            .map(|t| (t.to_string(), Expr::str("arm")))
            .collect(),
    };
    evaluate(&e, &mut ctx).unwrap_err().to_string()
}

/// Each case's label and the message it produces.
fn actual() -> Vec<(&'static str, String)> {
    let r = registry();
    let mut alloc = OidAllocator::new();
    let person_oid = alloc.mint(r.lookup("Person").unwrap());
    let employee_oid = alloc.mint(r.lookup("Employee").unwrap());
    let person = Value::tuple([("ssnum", Value::int(1)), ("name", Value::str("Ann"))]);
    let employee = Value::tuple([
        ("ssnum", Value::int(2)),
        ("name", Value::str("Bob")),
        ("salary", Value::int(10)),
    ]);
    let bad_student = Value::tuple([
        ("ssnum", Value::int(3)),
        ("name", Value::str("Cy")),
        ("gpa", Value::str("A")),
    ]);
    let dom = |v: &Value, s: &SchemaType| check_dom(v, s, &r).unwrap_err().to_string();
    let exact = |v: &Value, s: &SchemaType| check_dom_exact(v, s, &r).unwrap_err().to_string();
    vec![
        ("scalar kind", dom(&Value::str("x"), &SchemaType::int4())),
        (
            "float into int4",
            dom(&Value::float(1.5), &SchemaType::int4()),
        ),
        (
            "tuple arity",
            dom(
                &Value::tuple([("a", Value::int(1)), ("b", Value::int(2))]),
                &SchemaType::tuple([("a", SchemaType::int4())]),
            ),
        ),
        (
            "missing field",
            dom(
                &Value::tuple([("a", Value::int(1)), ("c", Value::int(2))]),
                &SchemaType::tuple([("a", SchemaType::int4()), ("b", SchemaType::int4())]),
            ),
        ),
        (
            "nested field kind",
            dom(
                &Value::tuple([("a", Value::set([Value::int(1), Value::str("z")]))]),
                &SchemaType::tuple([("a", SchemaType::set(SchemaType::int4()))]),
            ),
        ),
        (
            "ref outside R(n)",
            exact(&Value::Ref(employee_oid), &SchemaType::reference("Person")),
        ),
        (
            "ref outside Odom",
            dom(&Value::Ref(person_oid), &SchemaType::reference("Employee")),
        ),
        (
            "non-ref in ref slot",
            dom(&Value::int(7), &SchemaType::reference("Person")),
        ),
        (
            "fixed array length",
            dom(
                &Value::array([Value::int(1)]),
                &SchemaType::fixed_array(SchemaType::int4(), 3),
            ),
        ),
        (
            "array element kind",
            dom(
                &Value::array([Value::int(1), Value::bool(true)]),
                &SchemaType::array(SchemaType::int4()),
            ),
        ),
        (
            "unknown named type",
            dom(&person, &SchemaType::named("Nope")),
        ),
        (
            "unknown ref type",
            exact(&Value::Ref(person_oid), &SchemaType::reference("Nope")),
        ),
        (
            "exact named: a subtype's tuple",
            exact(&employee, &SchemaType::named("Person")),
        ),
        (
            "substituting named: every candidate fails",
            dom(&bad_student, &SchemaType::named("Person")),
        ),
        (
            "substituting named: the last candidate's failure is reported",
            dom(
                &Value::tuple([
                    ("ssnum", Value::int(4)),
                    ("name", Value::str("Di")),
                    ("salary", Value::str("lots")),
                ]),
                &SchemaType::named("Person"),
            ),
        ),
        (
            "substituting named in a set",
            dom(
                &Value::set([person.clone(), Value::int(4)]),
                &SchemaType::set(SchemaType::named("Person")),
            ),
        ),
        (
            "switch: untyped element",
            switch_error(
                &r,
                Value::tuple([("zzz", Value::int(1))]),
                &["Person", "Employee"],
            ),
        ),
        (
            "switch: typed element without an arm",
            switch_error(&r, person, &["Employee", "Student"]),
        ),
    ]
}

/// Recorded from the walker that formatted every failure eagerly.
const EXPECTED: &[(&str, &str)] = &[
    ("scalar kind", "value not in domain: expected int4, found scalar `\"x\"`"),
    ("float into int4", "value not in domain: expected int4, found scalar `1.5`"),
    ("tuple arity", "value not in domain: expected (a: int4), found tuple `(a: 1, b: 2)`"),
    ("missing field", "tuple has no field `b`"),
    ("nested field kind", "value not in domain: expected int4, found scalar `\"z\"`"),
    ("ref outside R(n)", "value not in domain: expected ref Person, found OID @ty1#0 (minted for Employee)"),
    ("ref outside Odom", "value not in domain: expected ref Employee, found OID @ty0#0 (minted for Person)"),
    ("non-ref in ref slot", "value not in domain: expected ref Person, found scalar `7`"),
    ("fixed array length", "fixed-length array expected 3 elements, found 1"),
    ("array element kind", "value not in domain: expected int4, found scalar `true`"),
    ("unknown named type", "unknown type `Nope`"),
    ("unknown ref type", "unknown type `Nope`"),
    ("exact named: a subtype's tuple", "value not in domain: expected (ssnum: int4, name: char[]), found tuple `(ssnum: 2, name: \"Bob\", salary: 10)`"),
    ("substituting named: every candidate fails", "value not in domain: expected float4, found scalar `\"A\"`"),
    ("substituting named: the last candidate's failure is reported", "tuple has no field `gpa`"),
    ("substituting named in a set", "value not in domain: expected (ssnum: int4, name: char[], gpa: float4), found scalar `4`"),
    ("switch: untyped element", "switch-table dispatch has no arm for type `<untyped value (zzz: 1)>`"),
    ("switch: typed element without an arm", "switch-table dispatch has no arm for type `Person`"),
];

#[test]
fn domain_check_messages_are_pinned() {
    let got = actual();
    let labels: Vec<&str> = got.iter().map(|(l, _)| *l).collect();
    let want: Vec<&str> = EXPECTED.iter().map(|(l, _)| *l).collect();
    assert_eq!(labels, want, "the case table and the pinned table differ");
    for ((label, msg), (_, pinned)) in got.iter().zip(EXPECTED) {
        assert_eq!(msg, pinned, "{label}");
    }
}
