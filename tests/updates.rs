//! The EXCESS update statements: `append to`, `delete from`, `replace`,
//! `assign`, and their interaction with object identity, extent indexes,
//! and `range of` aliases.

use excess::db::Database;
use excess::types::Value;

fn dept_db() -> Database {
    let mut db = Database::new();
    db.execute(
        r#"define type Dept: (name: char[], floor: int4)
           create Depts: { Dept }
           append to Depts (name: "CS", floor: 2)
           append to Depts (name: "Math", floor: 3)
           append to Depts (name: "Stats", floor: 3)"#,
    )
    .unwrap();
    db
}

#[test]
fn append_and_count() {
    let mut db = dept_db();
    let n = db.execute("retrieve (count(Depts))").unwrap();
    assert_eq!(n, Value::int(3));
}

#[test]
fn delete_by_object_name() {
    let mut db = dept_db();
    db.execute("delete from Depts where Depts.floor = 3")
        .unwrap();
    let names = db.execute("retrieve (D.name) from D in Depts").unwrap();
    assert_eq!(names, Value::set([Value::str("CS")]));
}

#[test]
fn delete_by_range_alias() {
    let mut db = dept_db();
    db.execute("range of D is Depts").unwrap();
    db.execute(r#"delete from Depts where D.name = "CS""#)
        .unwrap();
    let n = db.execute("retrieve (count(Depts))").unwrap();
    assert_eq!(n, Value::int(2));
}

#[test]
fn replace_value_elements() {
    let mut db = dept_db();
    // Move every 3rd-floor department up one floor, referencing the old
    // value through the object name.
    db.execute("replace Depts (floor: Depts.floor + 1) where Depts.floor = 3")
        .unwrap();
    let floors = db.execute("retrieve (D.floor) from D in Depts").unwrap();
    assert_eq!(
        floors,
        Value::set([Value::int(2), Value::int(4), Value::int(4)])
    );
}

#[test]
fn replace_without_filter_hits_everything() {
    let mut db = dept_db();
    db.execute(r#"replace Depts (name: "X")"#).unwrap();
    let names = db
        .execute("retrieve unique (D.name) from D in Depts")
        .unwrap();
    assert_eq!(names, Value::set([Value::str("X")]));
}

#[test]
fn replace_through_references_preserves_identity() {
    let mut db = Database::new();
    db.execute(
        r#"define type Emp: (name: char[], salary: int4)
           create Emps: { ref Emp }
           create Favourites: { ref Emp }
           append to Emps (name: "Ada", salary: 90000)
           append to Emps (name: "Bob", salary: 50000)"#,
    )
    .unwrap();
    // Share Ada's identity into a second set.
    db.execute(r#"retrieve (x) from x in Emps where x.name = "Ada" into AdaRefs"#)
        .unwrap();
    let ada_ref = db
        .catalog()
        .value("AdaRefs")
        .unwrap()
        .as_set()
        .unwrap()
        .iter_occurrences()
        .next()
        .unwrap()
        .clone();
    // Raise salaries through Emps…
    db.execute("replace Emps (salary: Emps.salary + 1000) where Emps.salary < 60000")
        .unwrap();
    db.execute(r#"replace Emps (salary: 100000) where Emps.name = "Ada""#)
        .unwrap();
    // …and observe the change through the *shared* reference.
    let oid = ada_ref.as_ref_oid().unwrap();
    let ada = db.store().deref(oid).unwrap();
    assert_eq!(
        ada.as_tuple().unwrap().get("salary").unwrap(),
        &Value::int(100_000)
    );
    let bob_salary = db
        .execute(r#"retrieve (the((retrieve (e.salary) from e in Emps where e.name = "Bob")))"#)
        .unwrap();
    assert_eq!(bob_salary, Value::int(51_000));
}

#[test]
fn replace_unknown_field_is_an_error() {
    let mut db = dept_db();
    assert!(db.execute("replace Depts (bogus: 1)").is_err());
}

#[test]
fn replace_validates_domains() {
    let mut db = dept_db();
    // floor must stay int4; a string violates the element domain.
    assert!(db.execute(r#"replace Depts (floor: "nope")"#).is_err());
}

#[test]
fn assign_into_fixed_array() {
    let mut db = Database::new();
    db.execute(
        r#"define type Emp: (name: char[], salary: int4)
           create Board: array [1..3] of ref Emp"#,
    )
    .unwrap();
    db.execute(r#"assign Board[2] ((name: "Ada", salary: 1))"#)
        .unwrap();
    let v = db.execute("retrieve (Board[2].name)").unwrap();
    assert_eq!(v, Value::str("Ada"));
    // Unassigned slots are dne; extracting a field of dne stays dne.
    let empty = db.execute("retrieve (Board[1])").unwrap();
    assert!(empty.is_dne());
    // Out-of-range assigns are rejected.
    assert!(db
        .execute(r#"assign Board[9] ((name: "X", salary: 2))"#)
        .is_err());
}

#[test]
fn updates_maintain_extent_indexes() {
    let mut db = Database::new();
    db.execute(
        r#"define type Person: (name: char[])
           define type Employee: (salary: int4) inherits Person
           create P: { Person }"#,
    )
    .unwrap();
    db.create_extent_index("P", "Person").unwrap();
    db.create_extent_index("P", "Employee").unwrap();
    db.execute(r#"append to P (name: "plain")"#).unwrap();
    db.execute(r#"append to P (name: "emp", salary: 10)"#)
        .unwrap();
    let person_extent = db.catalog().value("P::exact::Person").unwrap();
    let employee_extent = db.catalog().value("P::exact::Employee").unwrap();
    assert_eq!(person_extent.as_set().unwrap().len(), 1);
    assert_eq!(employee_extent.as_set().unwrap().len(), 1);
    db.execute(r#"delete from P where P.name = "plain""#)
        .unwrap();
    assert_eq!(
        db.catalog()
            .value("P::exact::Person")
            .unwrap()
            .as_set()
            .unwrap()
            .len(),
        0
    );
}

#[test]
fn retrieve_into_creates_objects() {
    let mut db = dept_db();
    db.execute("retrieve unique (D.floor) from D in Depts into Floors")
        .unwrap();
    let floors = db.execute("retrieve (Floors)").unwrap();
    assert_eq!(floors, Value::set([Value::int(2), Value::int(3)]));
    // …and the derived object is queryable like any other.
    let mx = db.execute("retrieve (max(Floors))").unwrap();
    assert_eq!(mx, Value::int(3));
}

/// `delete` removes exactly the occurrences whose predicate is true or
/// `unk` and adds nothing: no `unk` occurrence takes a deleted element's
/// place, so a later by-value `replace` still finds only tuples.  An
/// element the predicate is false on survives, even an `unk` one.
#[test]
fn delete_drops_unk_predicate_elements_without_a_trace() {
    let mut db = Database::new();
    db.execute(
        r#"define type Person: (name: char[])
           create P: { Person }
           append to P (name: "a")
           append to P (name: "b")
           append to P (name: unk)"#,
    )
    .unwrap();
    db.execute(r#"delete from P where P.name != "a""#).unwrap();
    let p = db.catalog().value("P").unwrap().clone();
    assert_eq!(p, Value::set([Value::tuple([("name", Value::str("a"))])]));
    db.execute(r#"replace P (name: "c") where P.name = "a""#)
        .unwrap();
    let names = db.execute("retrieve (X.name) from X in P").unwrap();
    assert_eq!(names, Value::set([Value::str("c")]));

    db.execute("append to P (unk)").unwrap();
    db.execute("delete from P where 1 = 2").unwrap();
    let p = db.catalog().value("P").unwrap().clone();
    assert_eq!(
        p,
        Value::set([Value::tuple([("name", Value::str("c"))]), Value::unk()])
    );
}
