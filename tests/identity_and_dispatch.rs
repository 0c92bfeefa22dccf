//! Object identity end-to-end: sharing, cycles, type migration changing
//! dispatch outcomes, and exhaustive optimizer search over dispatch plans.

use excess::algebra::expr::{CmpOp, Expr, Pred};
use excess::db::Database;
use excess::optimizer::{build_switch, build_union, MethodImpl, Optimizer, RuleCtx};
use excess::types::{SchemaType, Value};

fn hierarchy_db() -> Database {
    let mut db = Database::new();
    db.execute(
        r#"define type Person: (name: char[])
           define type Employee: (salary: int4) inherits Person"#,
    )
    .unwrap();
    db
}

#[test]
fn shared_subobjects_observe_updates() {
    // "Such objects can be referenced by their identity from anywhere in
    // the database" (Section 2): two sets share one object; an update
    // through either is seen through both.
    let mut db = Database::new();
    db.execute(
        r#"define type Dept: (dname: char[], floor: int4)
           define type Emp: (ename: char[], dept: ref Dept)
           create Depts: { ref Dept }
           create Emps: { ref Emp }
           append to Depts (dname: "CS", floor: 2)"#,
    )
    .unwrap();
    // Both employees reference the SAME department object.
    db.execute(
        r#"append to Emps (ename: "a",
             dept: the((retrieve (d) from d in Depts where d.dname = "CS")))
           append to Emps (ename: "b",
             dept: the((retrieve (d) from d in Depts where d.dname = "CS")))"#,
    )
    .unwrap();
    db.execute("replace Depts (floor: 9)").unwrap();
    let floors = db
        .execute("retrieve (E.dept.floor) from E in Emps")
        .unwrap();
    assert_eq!(floors, Value::set([Value::int(9), Value::int(9)]));
    // And it is identity, not value copies: exactly one Dept object exists.
    assert_eq!(db.store().len(), 3); // 1 dept + 2 emps
}

#[test]
fn cyclic_object_graphs_queryable() {
    // manager cycles (a manages b manages a): navigation terminates
    // because queries walk finite paths, and canonical forms handle the
    // cycle when comparing.
    let mut db = Database::new();
    db.execute(
        r#"define type E2: (n: char[], mgr: ref E2)
           create Es: { ref E2 }"#,
    )
    .unwrap();
    let ty = db.registry().lookup("E2").unwrap();
    let a = db.store_mut().create_unchecked(ty, Value::dne());
    let b = db.store_mut().create_unchecked(ty, Value::dne());
    db.update_stored(
        a,
        Value::tuple([("n", Value::str("a")), ("mgr", Value::Ref(b))]),
    )
    .unwrap();
    db.update_stored(
        b,
        Value::tuple([("n", Value::str("b")), ("mgr", Value::Ref(a))]),
    )
    .unwrap();
    db.put_object(
        "Es",
        SchemaType::set(SchemaType::reference("E2")),
        Value::set([Value::Ref(a), Value::Ref(b)]),
    );
    let out = db.execute("retrieve (x.mgr.mgr.n) from x in Es").unwrap();
    assert_eq!(out, Value::set([Value::str("a"), Value::str("b")]));
}

#[test]
fn type_migration_changes_dispatch() {
    // An object migrates Person → Employee; the same switch plan then
    // routes it through the Employee arm.  Identity (and all references)
    // survive the migration.
    let mut db = hierarchy_db();
    let person_ty = db.registry().lookup("Person").unwrap();
    let employee_ty = db.registry().lookup("Employee").unwrap();
    let reg0 = db.registry().clone();
    let oid = db
        .store_mut()
        .create(
            &reg0,
            person_ty,
            Value::tuple([("name", Value::str("Ann"))]),
        )
        .unwrap();
    db.put_object(
        "Ppl",
        SchemaType::set(SchemaType::reference("Person")),
        Value::set([Value::Ref(oid)]),
    );
    let plan = Expr::SetApplySwitch {
        input: Box::new(Expr::named("Ppl")),
        table: vec![
            ("Person".into(), Expr::str("person-arm")),
            ("Employee".into(), Expr::str("employee-arm")),
        ],
    };
    assert_eq!(
        db.run_plan(&plan).unwrap(),
        Value::set([Value::str("person-arm")])
    );
    // Promote Ann.
    let ann = Value::tuple([("name", Value::str("Ann")), ("salary", Value::int(1))]);
    let reg = db.registry().clone();
    db.store_mut().migrate(&reg, oid, employee_ty, ann).unwrap();
    assert_eq!(
        db.run_plan(&plan).unwrap(),
        Value::set([Value::str("employee-arm")])
    );
    // The exact-type filter agrees.
    let only_emp = Expr::named("Ppl").set_apply_only(["Employee"], Expr::input());
    assert_eq!(db.run_plan(&only_emp).unwrap().as_set().unwrap().len(), 1);
}

#[test]
fn exhaustive_search_finds_cheaper_or_equal_dispatch_plans() {
    // The exhaustive engine explores switch ↔ ⊎ forms; its winner must be
    // at most the seed's cost and evaluate identically.
    let mut db = hierarchy_db();
    db.put_object(
        "P",
        SchemaType::set(SchemaType::named("Person")),
        Value::set((0..12).map(|i| {
            if i % 2 == 0 {
                Value::tuple([("name", Value::str(format!("p{i}")))])
            } else {
                Value::tuple([
                    ("name", Value::str(format!("e{i}"))),
                    ("salary", Value::int(i)),
                ])
            }
        })),
    );
    db.collect_stats();
    let seed = Expr::SetApplySwitch {
        input: Box::new(Expr::named("P")),
        table: vec![
            ("Person".into(), Expr::input().extract("name")),
            ("Employee".into(), Expr::input().extract("salary")),
        ],
    };
    let mut opt = Optimizer::standard();
    opt.max_plans = 64;
    let ctx = RuleCtx {
        registry: db.registry(),
        schemas: db.catalog(),
    };
    let best = opt.optimize_memo(&seed, &ctx, db.statistics());
    assert!(best.cost <= excess::optimizer::cost_of(&seed, db.statistics()));
    let a = db.run_plan(&seed).unwrap();
    let b = db.run_plan(&best.plan).unwrap();
    assert_eq!(a, b);
    assert!(best.explored > 1, "search must have explored alternatives");
}

#[test]
fn dangling_reference_surfaces_as_error_not_corruption() {
    let mut db = Database::new();
    db.execute(
        r#"define type Cell: (v: int4)
           create Cells: { ref Cell }
           append to Cells (v: 7)"#,
    )
    .unwrap();
    let oid = db
        .catalog()
        .value("Cells")
        .unwrap()
        .as_set()
        .unwrap()
        .iter_occurrences()
        .next()
        .unwrap()
        .as_ref_oid()
        .unwrap();
    db.store_mut().delete(oid).unwrap();
    let err = db.execute("retrieve (c.v) from c in Cells").unwrap_err();
    assert!(err.to_string().contains("dangling"), "{err}");
}

#[test]
fn ref_equality_is_identity_not_value() {
    // Two distinct objects with equal values: `=` on the refs is false,
    // `=` on the dereferenced values is true — the paper's one-equality
    // design (OIDs are just values, and distinct OIDs are unequal).
    let mut db = Database::new();
    db.execute(
        r#"define type Cell: (v: int4)
           create Cells: { ref Cell }
           append to Cells (v: 7)
           append to Cells (v: 7)"#,
    )
    .unwrap();
    let pairs = Expr::named("Cells").cross(Expr::named("Cells"));
    let same_ref = pairs.clone().select(Pred::cmp(
        Expr::input().extract("fst"),
        CmpOp::Eq,
        Expr::input().extract("snd"),
    ));
    let same_val = pairs.select(Pred::cmp(
        Expr::input().extract("fst").deref(),
        CmpOp::Eq,
        Expr::input().extract("snd").deref(),
    ));
    let by_ref = db.run_plan(&same_ref).unwrap();
    let by_val = db.run_plan(&same_val).unwrap();
    assert_eq!(by_ref.as_set().unwrap().len(), 2); // only (x,x) and (y,y)
    assert_eq!(by_val.as_set().unwrap().len(), 4); // all four pairs
}

#[test]
fn multiple_inheritance_tie_resolves_the_same_way_everywhere() {
    // A TA inherits Employee and Student, which are equally deep and both
    // override `boss`: a tie, broken toward the implementation listed last
    // (here, defined last).  Static resolution, the run-time switch table
    // and the ⊎ plan's coverage must all make that same choice.
    let mut db = Database::new();
    db.execute(
        r#"define type Person: (name: char[])
           define type Employee: (salary: int4) inherits Person
           define type Student: (gpa: float4) inherits Person
           define type TA: (hours: int4) inherits Employee, Student
           define Person function boss () returns char[] { retrieve ("person") }
           define Employee function boss () returns char[] { retrieve ("employee") }
           define Student function boss () returns char[] { retrieve ("student") }
           create P: { Person }
           append to P (name: "t", salary: 1, gpa: 2.0, hours: 3)"#,
    )
    .unwrap();
    let resolved = db.methods().resolve(db.registry(), "boss", "TA").unwrap();
    assert_eq!(resolved.owner, "Student");
    let student = Value::set([Value::str("student")]);
    assert_eq!(
        db.execute("retrieve (x.boss()) from x in P").unwrap(),
        student
    );
    let impls: Vec<MethodImpl> = db
        .methods()
        .implementations("boss")
        .iter()
        .map(|m| MethodImpl {
            owner: m.owner.clone(),
            body: m.body.clone(),
        })
        .collect();
    let switch = build_switch(Expr::named("P"), &impls);
    let union = build_union(db.registry(), Expr::named("P"), &impls);
    assert_eq!(db.run_plan(&switch).unwrap(), student);
    assert_eq!(db.run_plan(&union).unwrap(), student);
}
