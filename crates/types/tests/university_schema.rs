//! The Figure 1 schema through the formal digraph machinery of Section
//! 3.1, plus the Figure 2 example structure end to end.

use excess_types::domain::{check_dom, check_dom_exact};
use excess_types::{
    NodeKind, ObjectStore, OidAllocator, SchemaGraph, SchemaType, TypeRegistry, Value,
};

fn university() -> TypeRegistry {
    let mut r = TypeRegistry::new();
    r.define(
        "Person",
        SchemaType::tuple([
            ("ssnum", SchemaType::int4()),
            ("name", SchemaType::chars()),
            ("street", SchemaType::chars()),
            ("city", SchemaType::chars()),
            ("zip", SchemaType::int4()),
            ("birthday", SchemaType::date()),
        ]),
    )
    .unwrap();
    r.define(
        "Department",
        SchemaType::tuple([
            ("division", SchemaType::chars()),
            ("name", SchemaType::chars()),
            ("floor", SchemaType::int4()),
            (
                "employees",
                SchemaType::set(SchemaType::reference("Employee")),
            ),
        ]),
    )
    .unwrap();
    r.define_with_supertypes(
        "Employee",
        SchemaType::tuple([
            ("jobtitle", SchemaType::chars()),
            ("dept", SchemaType::reference("Department")),
            ("manager", SchemaType::reference("Employee")),
            (
                "sub_ords",
                SchemaType::set(SchemaType::reference("Employee")),
            ),
            ("salary", SchemaType::int4()),
            ("kids", SchemaType::set(SchemaType::named("Person"))),
        ]),
        &["Person"],
    )
    .unwrap();
    r.define_with_supertypes(
        "Student",
        SchemaType::tuple([
            ("gpa", SchemaType::float4()),
            ("dept", SchemaType::reference("Department")),
            ("advisor", SchemaType::reference("Employee")),
        ]),
        &["Person"],
    )
    .unwrap();
    r
}

#[test]
fn every_figure1_type_has_a_valid_schema_digraph() {
    let r = university();
    for id in r.all_ids() {
        let body = r.full_body(id);
        let g = SchemaGraph::from_schema_type(r.name_of(id), body);
        g.validate()
            .unwrap_or_else(|e| panic!("{}: {e}", r.name_of(id)));
    }
    // Top-level object schemas too.
    for s in [
        SchemaType::set(SchemaType::reference("Employee")),
        SchemaType::fixed_array(SchemaType::reference("Employee"), 10),
    ] {
        SchemaGraph::from_schema_type("obj", &s).validate().unwrap();
    }
}

#[test]
fn employee_digraph_has_the_expected_shape() {
    let r = university();
    let body = r.full_body(r.lookup("Employee").unwrap());
    let g = SchemaGraph::from_schema_type("Employee", body);
    // Root is the tuple node; 12 attributes (6 inherited + 6 own).
    assert_eq!(g.nodes[g.root].kind, NodeKind::Tup);
    let root_edges = g.edges.iter().filter(|e| e.from == g.root).count();
    assert_eq!(root_edges, 12);
    // Reference attributes appear as ref nodes with exactly one component.
    let refs = g.nodes.iter().filter(|n| n.kind == NodeKind::Ref).count();
    assert_eq!(refs, 3); // dept, manager, the sub_ords element (kids is by value)
}

#[test]
fn inherited_attributes_precede_own_attributes() {
    let r = university();
    let SchemaType::Tup(fields) = r.full_body(r.lookup("Student").unwrap()) else {
        panic!()
    };
    let names: Vec<&str> = fields.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        vec!["ssnum", "name", "street", "city", "zip", "birthday", "gpa", "dept", "advisor"]
    );
}

#[test]
fn figure2_instance_checks_against_its_schema() {
    // Figure 2: { (val, [val], ref) } with the instance
    // { (26, [1, 2], x), (25, [], y) }.
    let mut r = university();
    r.define("Scalar", SchemaType::int4()).unwrap();
    let scalar = r.lookup("Scalar").unwrap();
    let schema = SchemaType::set(SchemaType::tuple([
        ("f1", SchemaType::int4()),
        ("f2", SchemaType::array(SchemaType::int4())),
        ("f3", SchemaType::reference("Scalar")),
    ]));
    let mut alloc = OidAllocator::new();
    let (x, y) = (alloc.mint(scalar), alloc.mint(scalar));
    let inst = Value::set([
        Value::tuple([
            ("f1", Value::int(26)),
            ("f2", Value::array([Value::int(1), Value::int(2)])),
            ("f3", Value::Ref(x)),
        ]),
        Value::tuple([
            ("f1", Value::int(25)),
            ("f2", Value::array([])),
            ("f3", Value::Ref(y)),
        ]),
    ]);
    check_dom(&inst, &schema, &r).unwrap();
    check_dom_exact(&inst, &schema, &r).unwrap();
    // A wrong-typed f2 element is rejected.
    let bad = Value::set([Value::tuple([
        ("f1", Value::int(1)),
        ("f2", Value::array([Value::str("no")])),
        ("f3", Value::Ref(x)),
    ])]);
    assert!(check_dom(&bad, &schema, &r).is_err());
}

#[test]
fn substitutability_inside_the_kids_set() {
    // Employee.kids : { Person } accepts Student-shaped members (DOM), a
    // direct reading of "arrays of A can also have B's in them".
    let r = university();
    let kids_schema = SchemaType::set(SchemaType::named("Person"));
    let person = Value::tuple([
        ("ssnum", Value::int(1)),
        ("name", Value::str("kid")),
        ("street", Value::str("s")),
        ("city", Value::str("c")),
        ("zip", Value::int(2)),
        ("birthday", Value::dne()),
    ]);
    let mut alloc = OidAllocator::new();
    let dept_oid = alloc.mint(r.lookup("Department").unwrap());
    let emp_oid = alloc.mint(r.lookup("Employee").unwrap());
    let student_kid = {
        let mut fields = person.as_tuple().unwrap().clone().into_fields();
        fields.push(("gpa".into(), Value::float(4.0)));
        fields.push(("dept".into(), Value::Ref(dept_oid)));
        fields.push(("advisor".into(), Value::Ref(emp_oid)));
        Value::Tuple(excess_types::Tuple::from_fields(fields))
    };
    check_dom(&Value::set([person, student_kid]), &kids_schema, &r).unwrap();
}

#[test]
fn store_round_trips_a_full_employee_object() {
    let r = university();
    let mut store = ObjectStore::new();
    let mut alloc = OidAllocator::new();
    let dept_oid = alloc.mint(r.lookup("Department").unwrap());
    let emp = Value::tuple([
        ("ssnum", Value::int(7)),
        ("name", Value::str("Ann")),
        ("street", Value::str("1 Elm")),
        ("city", Value::str("Madison")),
        ("zip", Value::int(53706)),
        (
            "birthday",
            Value::date(excess_types::Date::new(1960, 1, 2).unwrap()),
        ),
        ("jobtitle", Value::str("prof")),
        ("dept", Value::Ref(dept_oid)),
        ("manager", Value::dne()),
        ("sub_ords", Value::set([])),
        ("salary", Value::int(90_000)),
        ("kids", Value::set([])),
    ]);
    let oid = store
        .create(&r, r.lookup("Employee").unwrap(), emp.clone())
        .unwrap();
    assert_eq!(store.deref(oid).unwrap(), &emp);
    // …and the same value is in DOM(Person) via substitutability.
    check_dom(&emp, &SchemaType::named("Person"), &r).unwrap();
    assert!(check_dom_exact(&emp, &SchemaType::named("Person"), &r).is_err());
}
