//! The EXCESS update statements: `append to`, `delete from`, `replace`,
//! `assign`, and their interaction with object identity, extent indexes,
//! and `range of` aliases.

use excess::algebra::canon::canonical_form;
use excess::db::{collect_object_statistics, value_json, Database, DbResult};
use excess::lang::ast::{QExpr, QPred, Retrieve, Step, Stmt, Target};
use excess::optimizer::Statistics;
use excess::types::Value;
use proptest::prelude::*;

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

// ----- `delete` against the survivors algorithm it replaced -----

/// A by-value set `T` indexed on both exact types, an array `A` that gets
/// the same elements, and `Other`, which a predicate may read.
const DELETE_SCHEMA: &str = r#"
    define type Person: (name: char[], n: int4)
    define type Student: (gpa: int4) inherits Person
    create T: { Person }
    create A: array of Person
    create Other: { Person }
    append to Other (name: "b", n: 1)
    append to Other (name: "c", n: 2)
"#;

/// `T`'s exact-type extents.
const T_EXTENTS: [&str; 2] = ["T::exact::Person", "T::exact::Student"];

/// Predicates over the deletion target `X`: plain, compound, true and
/// false on everything (a literal `unk` element included), `unk` on
/// `unk`/`dne` attributes, reading another object, and one that fails
/// part way through the scan (division by zero on `n = 0`).
const PREDICATES: [&str; 10] = [
    "X.name = \"a\"",
    "X.n = 1",
    "X.n != 2",
    "X.n > 0 and X.name != \"b\"",
    "X.name = \"c\" or X.n = 0",
    "not (X.name = \"b\")",
    "1 = 1",
    "1 = 2",
    "X.n < count(Other)",
    "10 / X.n > 4",
];

/// One generated element: kind, name and number, each an index.
type Element = (u8, u8, u8);

/// One element: the literal `unk`, a `Person` or a `Student`.  Names and
/// numbers come from small pools, so duplicates are frequent; each pool
/// holds `unk`, and the numbers `dne` too.
fn element((kind, name, n): Element) -> String {
    let name = ["\"a\"", "\"b\"", "\"c\"", "unk"][usize::from(name) % 4];
    let n = ["0", "1", "2", "unk", "dne"][usize::from(n) % 5];
    match kind % 5 {
        0 => "(unk)".to_string(),
        1 | 2 => format!("(name: {name}, n: {n})"),
        _ => format!("(name: {name}, n: {n}, gpa: 3)"),
    }
}

/// `elements` appended to both `T` and `A`, then analyzed, so that every
/// later statement maintains the statistics.
fn delete_seed(elements: &[Element]) -> Database {
    let mut db = Database::new();
    db.execute(DELETE_SCHEMA).expect("schema");
    for ty in ["Person", "Student"] {
        db.create_extent_index("T", ty).expect("index");
    }
    for &e in elements {
        let e = element(e);
        db.execute(&format!("append to T {e} append to A {e}"))
            .expect("append");
    }
    db.collect_stats();
    db
}

/// Rename the target inside a predicate, as `delete` rewrites it into its
/// variable.
fn rename_pred(p: &QPred, from: &str, to: &str) -> QPred {
    let pred = |q: &QPred| Box::new(rename_pred(q, from, to));
    match p {
        QPred::Cmp { l, op, r } => QPred::Cmp {
            l: Box::new(rename_expr(l, from, to)),
            op: *op,
            r: Box::new(rename_expr(r, from, to)),
        },
        QPred::And(a, b) => QPred::And(pred(a), pred(b)),
        QPred::Or(a, b) => QPred::Or(pred(a), pred(b)),
        QPred::Not(q) => QPred::Not(pred(q)),
    }
}

fn rename_expr(e: &QExpr, from: &str, to: &str) -> QExpr {
    let expr = |q: &QExpr| rename_expr(q, from, to);
    match e {
        QExpr::Var(n) if n == from => QExpr::Var(to.to_string()),
        QExpr::Path { base, steps } => QExpr::Path {
            base: Box::new(expr(base)),
            steps: steps
                .iter()
                .map(|s| match s {
                    Step::Method { name, args } => Step::Method {
                        name: name.clone(),
                        args: args.iter().map(expr).collect(),
                    },
                    other => other.clone(),
                })
                .collect(),
        },
        QExpr::Binary { op, l, r } => QExpr::Binary {
            op: *op,
            l: Box::new(expr(l)),
            r: Box::new(expr(r)),
        },
        QExpr::Neg(q) => QExpr::Neg(Box::new(expr(q))),
        QExpr::Call { name, args } => QExpr::Call {
            name: name.clone(),
            args: args.iter().map(expr).collect(),
        },
        other => other.clone(),
    }
}

/// The reference: how `delete` worked before it subtracted σ's matches.
/// It kept the occurrences whose predicate is false, `σ_¬p(X)`.  When
/// that result held an `unk` set element, it ran again with each survivor
/// wrapped as `($keep: element)`, dropping the bare `unk`s of `unk`
/// predicates.  The survivors became `X`'s value, written wholesale.
fn delete_by_survivors(db: &mut Database, src: &str) -> DbResult<()> {
    let Stmt::Delete { target, filter } = excess::lang::parse_statement(src)? else {
        panic!("{src} is a delete");
    };
    let var = "$del".to_string();
    let mut survivors = Retrieve {
        unique: false,
        targets: vec![Target {
            label: None,
            expr: QExpr::Var(var.clone()),
        }],
        from: vec![(var.clone(), QExpr::Var(target.clone()))],
        filter: Some(QPred::Not(Box::new(rename_pred(&filter, &target, &var)))),
        by: None,
        into: None,
    };
    let (plan, _) = db.translate(&survivors)?;
    let mut kept = db.run_plan(&plan)?;
    if matches!(&kept, Value::Set(rows) if rows.contains(&Value::unk())) {
        survivors.targets[0].label = Some("$keep".into());
        let (plan, _) = db.translate(&survivors)?;
        let Value::Set(rows) = db.run_plan(&plan)? else {
            panic!("{target} is a multiset");
        };
        let mut unwrapped = excess::types::MultiSet::new();
        for (row, card) in rows.iter_counted() {
            if let Some(t) = row.as_tuple() {
                unwrapped.insert_n(t.extract("$keep")?.clone(), card);
            }
        }
        kept = Value::Set(unwrapped);
    }
    let schema = db.catalog().schema(&target).cloned().expect("target");
    db.put_object(&target, schema, kept);
    Ok(())
}

/// An object's value as the wire renders it.
fn canon(db: &Database, name: &str) -> String {
    let v = db.catalog().value(name).expect("object");
    value_json(&canonical_form(v, db.store()))
}

/// The elements a statistics sweep of `name` visits: a set's distinct
/// elements, an array's elements.
fn elements(db: &Database, name: &str) -> u64 {
    match db.catalog().value(name) {
        Some(Value::Set(s)) => s.distinct_len() as u64,
        Some(Value::Array(a)) => a.len() as u64,
        _ => 0,
    }
}

/// `delete from X where p`, for `X` the set `T` and the array `A`, against
/// the survivors reference: the same error text, or the same canonical
/// value for `X` and its extents.  Then the maintained statistics of each
/// equal a fresh collection, and the statistics code hashed exactly the
/// distinct elements removed.  A failed delete leaves `X` and every
/// statistic untouched, and one that matched nothing leaves `X` sharing
/// its storage and hashes nothing.
fn check_delete(elements_in: &[Element], predicate: &str) {
    let seed = delete_seed(elements_in);
    for target in ["T", "A"] {
        let pred = predicate.replace("X.", &format!("{target}."));
        let src = format!("delete from {target} where {pred}");
        let mut reference = seed.clone();
        let expected = delete_by_survivors(&mut reference, &src);
        let mut db = seed.clone();
        let hashed_before = db.stats_elements();
        let got = db.execute(&src);
        let hashed = db.stats_elements() - hashed_before;
        let before = seed.catalog().value(target).expect("target");
        let after = db.catalog().value(target).expect("target");
        match (&got, &expected) {
            (Err(g), Err(e)) => {
                assert_eq!(g.to_string(), e.to_string(), "{src}");
                assert!(after.shares_storage_with(before), "{src}");
                assert_eq!(db.statistics().objects, seed.statistics().objects, "{src}");
                assert_eq!(hashed, 0, "{src}");
                continue;
            }
            (Ok(_), Ok(())) => {}
            _ => panic!("{src}: delete {got:?}, survivors {expected:?}"),
        }
        let names: Vec<&str> = if target == "T" {
            std::iter::once(target).chain(T_EXTENTS).collect()
        } else {
            vec![target]
        };
        for name in &names {
            assert_eq!(canon(&db, name), canon(&reference, name), "{name}: {src}");
            let mut fresh = Statistics::new();
            collect_object_statistics(db.catalog(), db.store(), name, &mut fresh);
            assert_eq!(
                db.statistics().objects.get(*name),
                fresh.objects.get(*name),
                "{name}: {src}"
            );
        }
        if after.shares_storage_with(before) {
            assert_eq!(hashed, 0, "{src}");
        } else if target == "A" {
            // An array is re-swept whole.
            assert_eq!(hashed, elements(&db, target), "{src}");
        } else {
            let removed: u64 = names
                .iter()
                .map(|name| elements(&seed, name) - elements(&db, name))
                .sum();
            assert!(removed > 0, "{src}: a set delete that writes removes");
            assert_eq!(hashed, removed, "{src}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn delete_matches_the_survivors_algorithm(elements in prop::collection::vec((0u8..5, 0u8..4, 0u8..5), 0..10), predicate in 0..PREDICATES.len()) {
        check_delete(&elements, PREDICATES[predicate]);
    }
}

/// The cases the generator must reach, spelled out once.
#[test]
fn delete_matches_the_survivors_algorithm_on_the_named_cases() {
    let a1: Element = (1, 0, 1); // (name: "a", n: 1)
    let b2 = (1, 1, 2); // (name: "b", n: 2)
    let s0 = (3, 2, 0); // a Student (name: "c", n: 0)
    let unk = (0, 0, 0); // the literal `unk` element
    let unk_name = (1, 3, 1); // (name: unk, n: 1)
    let dne_n = (1, 0, 4); // (name: "a", n: dne)
    let cases: &[(&[Element], &str)] = &[
        // Duplicates: every occurrence goes.
        (&[a1, a1, a1, b2], "X.name = \"a\""),
        // A literal `unk` element under a true predicate (σ_p holds `unk`),
        (&[a1, unk, b2], "1 = 1"),
        // and under a false one (it survives).
        (&[a1, unk, b2], "X.name = \"b\""),
        // `unk` and `dne` attributes make the predicate `unk`: deleted.
        (&[a1, unk_name, dne_n, b2], "X.name = \"a\""),
        (&[a1, unk_name, dne_n, b2], "X.n != 2"),
        // Division by zero part way through the scan.
        (&[a1, b2, s0, a1], "10 / X.n > 4"),
        // Nothing, and everything.
        (&[a1, b2, s0], "1 = 2"),
        (&[a1, a1, b2, s0], "1 = 1"),
        // A predicate reading another object.
        (&[a1, b2, s0, b2], "X.n < count(Other)"),
    ];
    for (elements_in, predicate) in cases {
        check_delete(elements_in, predicate);
    }
    let err = delete_seed(&[a1, s0])
        .execute("delete from T where 10 / T.n > 4")
        .expect_err("n = 0 divides by zero");
    assert!(err.to_string().contains("division by zero"), "{err}");
}

/// An array keeps its order, and an element whose predicate is `unk`
/// stays as `unk` in its place: what `delete` has always done to an array.
#[test]
fn delete_from_an_array_keeps_its_order_and_marks_unk_predicates() {
    let mut db = Database::new();
    db.execute(
        r#"define type E: (n: int4)
           create A: array of E
           append to A ((n: 1))
           append to A ((n: 2))
           append to A ((n: 1))
           append to A ((n: unk))"#,
    )
    .unwrap();
    let a = |db: &mut Database| db.execute("retrieve (A)").unwrap().to_string();
    db.execute("delete from A where A.n = 2").unwrap();
    assert_eq!(a(&mut db), "[(n: 1), (n: 1), unk]");
    db.execute("delete from A where A.n = 3").unwrap();
    assert_eq!(a(&mut db), "[(n: 1), (n: 1), unk]");
    db.execute("delete from A where A.n = 1").unwrap();
    assert_eq!(a(&mut db), "[unk]");
}
