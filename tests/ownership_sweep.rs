//! EXTRA's object-lifetime semantics: objects live independently of their
//! referencers, but once unreachable from every named top-level object
//! they can be swept.

use excess::db::Database;
use excess::types::Value;

#[test]
fn discarded_mkref_temporaries_are_collected() {
    let mut db = Database::new();
    db.optimize = false; // keep the mkref (rule 28 would cancel it)
    db.execute(
        r#"define type Cell: (v: int4)
           create Cells: { ref Cell }
           append to Cells (v: 1)"#,
    )
    .unwrap();
    // A query that mints a temporary and throws the reference away.
    db.execute("retrieve (deref(mkref((v: 99), Cell)).v)")
        .unwrap();
    assert_eq!(db.store().len(), 2);
    let collected = db.sweep();
    assert_eq!(collected, 1);
    assert_eq!(db.store().len(), 1);
    // The kept object is still queryable.
    assert_eq!(
        db.execute("retrieve (c.v) from c in Cells").unwrap(),
        Value::set([Value::int(1)])
    );
}

#[test]
fn transitively_referenced_objects_survive() {
    let mut db = Database::new();
    db.execute(
        r#"define type Dept: (dname: char[])
           define type Emp: (ename: char[], dept: ref Dept)
           create Emps: { ref Emp }"#,
    )
    .unwrap();
    // Emp references a Dept that is NOT in any top-level set — it is
    // reachable only through the employee.
    db.execute(r#"append to Emps (ename: "a", dept: mkref((dname: "CS"), Dept))"#)
        .unwrap();
    assert_eq!(db.store().len(), 2);
    assert_eq!(db.sweep(), 0, "both objects are reachable");
    // Remove the employee: the department becomes garbage too.
    db.execute(r#"delete from Emps where Emps.ename = "a""#)
        .unwrap();
    assert_eq!(db.sweep(), 2);
    assert_eq!(db.store().len(), 0);
}

#[test]
fn unreachable_cycles_are_collected() {
    let mut db = Database::new();
    db.execute(
        r#"define type Node: (next: ref Node)
           create Keep: { ref Node }"#,
    )
    .unwrap();
    let ty = db.registry().lookup("Node").unwrap();
    // An unreachable 2-cycle…
    let a = db.store_mut().create_unchecked(ty, Value::dne());
    let b = db.store_mut().create_unchecked(ty, Value::dne());
    db.update_stored(a, Value::tuple([("next", Value::Ref(b))]))
        .unwrap();
    db.update_stored(b, Value::tuple([("next", Value::Ref(a))]))
        .unwrap();
    // …and a reachable self-loop.
    let c = db.store_mut().create_unchecked(ty, Value::dne());
    db.update_stored(c, Value::tuple([("next", Value::Ref(c))]))
        .unwrap();
    db.execute("retrieve (Keep)").unwrap(); // no-op sanity
    let keep = Value::set([Value::Ref(c)]);
    db.put_object(
        "Keep",
        excess::types::SchemaType::set(excess::types::SchemaType::reference("Node")),
        keep,
    );
    assert_eq!(
        db.sweep(),
        2,
        "the unreachable cycle goes, the kept loop stays"
    );
    assert!(db.store().contains(c));
    assert!(!db.store().contains(a) && !db.store().contains(b));
}

#[test]
fn sweep_is_idempotent_on_the_university() {
    let mut db = excess::workload::generate(&excess::workload::UniversityParams::tiny())
        .unwrap()
        .db;
    // Everything the generator creates is reachable from the catalog.
    assert_eq!(db.sweep(), 0);
    assert_eq!(db.sweep(), 0);
}

/// A sweep empties one store's map; the objects themselves may still be
/// held — shared, not copied — by a published generation, which keeps
/// every one of them.
#[test]
fn sweeping_a_store_that_shares_values_with_a_live_generation() {
    let mut db = Database::new();
    db.execute(
        r#"define type Dept: (dname: char[])
           define type Emp: (ename: char[], dept: ref Dept)
           create Emps: { ref Emp }
           append to Emps (ename: "a", dept: mkref((dname: "CS"), Dept))
           append to Emps (ename: "b", dept: mkref((dname: "EE"), Dept))"#,
    )
    .unwrap();
    let vdb = excess::db::VersionedDb::new(db.clone());
    let mut session = vdb.begin_session();
    for (oid, obj) in db.store().iter() {
        let published = session.snapshot().store.deref(oid).unwrap();
        assert!(published.shares_storage_with(&obj.value));
    }
    db.execute(r#"delete from Emps where Emps.ename = "a""#)
        .unwrap();
    assert_eq!(db.sweep(), 2, "the employee and its department");
    assert_eq!(db.store().len(), 2);
    assert_eq!(session.snapshot().store.len(), 4);
    assert_eq!(
        session
            .query("retrieve (e.dept.dname) from e in Emps")
            .unwrap()
            .value,
        Value::set([Value::str("CS"), Value::str("EE")])
    );
    assert_eq!(
        db.execute("retrieve (e.dept.dname) from e in Emps")
            .unwrap(),
        Value::set([Value::str("EE")])
    );
    vdb.shutdown();
}
