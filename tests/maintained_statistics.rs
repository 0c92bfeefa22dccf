//! The statistics and per-exact-type extents that data statements
//! maintain from what they changed, against what a sweep derives from
//! scratch (DESIGN.md, *Statistics & cost model*: collected once, then
//! maintained).
//!
//! After every statement — on an embedded `Database`, and through a
//! `VersionedDb` one statement per commit and several per commit — every
//! named object's `ObjectStats` must equal `collect_object_statistics`
//! over the same state, and every `X::exact::T` must equal a re-filter of
//! `X` by exact type (§3.1).  The per-attribute NDV is a count of distinct
//! value digests; `ndv_by_digest_is_ndv_by_value_on_every_shipped_database`
//! holds it to the count of distinct values.

mod common;

use excess::algebra::eval::exact_type_of_parts;
use excess::db::{collect_object_statistics, Database, DbCatalog, VersionedDb};
use excess::optimizer::Statistics;
use excess::types::{MultiSet, ObjectStore, TypeRegistry, Value};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap, HashSet};

/// `Person` and two subtypes in a by-value set `P`; `Employee` objects
/// shared by two reference sets and a reference array.
const SCHEMA: &str = r#"
    define type Person: (name: char[])
    define type Student: (gpa: int4) inherits Person
    define type Employee: (salary: int4) inherits Person
    create P: { Person }
    create Staff: { ref Employee }
    create Board: { ref Employee }
    create Slots: array [1..3] of ref Employee
    append to P (name: "a")
    append to P (name: "b", gpa: 1)
    assign Slots[1] ((name: "a", salary: 10))
    append to Staff (Slots[1])
    append to Board (Slots[1])
"#;

const NAMES: [&str; 3] = ["a", "b", "c"];

/// One generated data statement.
fn statement((kind, x, y): (u8, u8, u8)) -> String {
    let name = NAMES[usize::from(x) % NAMES.len()];
    let other = NAMES[usize::from(y) % NAMES.len()];
    let n = i32::from(y) + 1;
    let set = if x % 2 == 0 { "Staff" } else { "Board" };
    let slot = usize::from(y) % 3 + 1;
    match kind {
        // Appends: duplicates are frequent (three names, three numbers).
        0 => format!("append to P (name: \"{name}\")"),
        1 => format!("append to P (name: \"{name}\", gpa: {n})"),
        2 => format!("append to P (name: \"{name}\", gpa: unk)"),
        3 => format!("append to P (name: \"{name}\", salary: {n})"),
        4 => "append to P (dne)".to_string(),
        8 => format!("append to P (name: unk, gpa: {n})"),
        // Deletes: one name (maybe none left, maybe the last elements
        // carrying `gpa`), everything, or all other names.  A predicate on
        // an `unk` name is `unk`, and such an element is not kept (an `unk`
        // occurrence takes its place; see `the_named_cases_hold`).
        5 => format!("delete from P where P.name = \"{name}\""),
        6 => "delete from P where not (P.name = \"zzz\")".to_string(),
        7 => format!("delete from P where P.name != \"{name}\""),
        // By-value replaces: renaming onto an existing name collides.
        9 => format!("replace P (name: \"{other}\") where P.name = \"{name}\""),
        10 => format!("replace P (name: unk) where P.name = \"{name}\""),
        // Through references: an object in Staff, Board and Slots alike.
        // Setting a value (rather than adding to it) makes and breaks the
        // collisions an NDV counts.
        11 => format!("replace {set} (salary: {n}) where {set}.name = \"{name}\""),
        12 => format!("append to {set} (Slots[{slot}])"),
        13 => format!("delete from {set} where {set}.name = \"{name}\""),
        14 => format!("replace {set} (name: \"{other}\") where {set}.name = \"{name}\""),
        // A reference array slot gets a fresh object.
        _ => format!("assign Slots[{slot}] ((name: \"{name}\", salary: {n}))"),
    }
}

/// The database before the program: the schema, analyzed, with `indexes`
/// exact-type extents on `P` (0, 1 or 3) — and, with 3, on `Staff` too.
fn seed(indexes: usize) -> Database {
    let mut db = Database::new();
    db.execute(SCHEMA).expect("schema");
    let on_p: &[&str] = match indexes {
        0 => &[],
        1 => &["Student"],
        _ => &["Person", "Student", "Employee"],
    };
    for ty in on_p {
        db.create_extent_index("P", ty).expect("index");
    }
    if indexes == 3 {
        db.create_extent_index("Staff", "Employee").expect("index");
    }
    db.collect_stats();
    db
}

/// Every object's statistics are a fresh collection's, and every extent
/// is a re-filter of its base.
fn check(
    catalog: &DbCatalog,
    store: &ObjectStore,
    registry: &TypeRegistry,
    stats: &Statistics,
    at: &str,
) {
    let mut names: Vec<&str> = catalog.all_names().collect();
    names.sort_unstable();
    for name in &names {
        let mut fresh = Statistics::new();
        collect_object_statistics(catalog, store, name, &mut fresh);
        assert_eq!(
            stats.objects.get(*name),
            fresh.objects.get(*name),
            "{name} after {at}"
        );
    }
    assert_eq!(stats.objects.len(), names.len(), "after {at}");
    for (object, types) in &stats.extent_indexes {
        let Some(Value::Set(base)) = catalog.value(object) else {
            panic!("{object} is a set");
        };
        for ty in types {
            let want = registry.lookup(ty).expect("indexed type");
            let mut refiltered = MultiSet::new();
            for (e, card) in base.iter_counted() {
                if exact_type_of_parts(e, registry, store) == Some(want) {
                    refiltered.insert_n(e.clone(), card);
                }
            }
            let extent = catalog.value(&format!("{object}::exact::{ty}"));
            assert_eq!(
                extent,
                Some(&Value::Set(refiltered)),
                "{object}::exact::{ty} after {at}"
            );
        }
    }
}

fn check_db(db: &Database, at: &str) {
    check(db.catalog(), db.store(), db.registry(), db.statistics(), at);
}

fn check_published(vdb: &VersionedDb, at: &str) {
    let g = vdb.current();
    check(&g.catalog, &g.store, &g.registry, &g.stats, at);
}

/// Run `ops` every way, checking after every statement (or batch); returns
/// the statements the embedded database rejected.
fn check_program(ops: &[(u8, u8, u8)]) -> Vec<String> {
    let program: Vec<String> = ops.iter().copied().map(statement).collect();
    let mut rejected = Vec::new();
    for indexes in [0, 1, 3] {
        // Embedded: after every statement, failed ones included.
        let mut db = seed(indexes);
        check_db(&db, "the seed");
        for src in &program {
            if let Err(e) = db.execute(src) {
                rejected.push(format!("{src}: {e}"));
            }
            check_db(&db, src);
        }
        // One statement per commit.
        let vdb = VersionedDb::new(seed(indexes));
        for src in &program {
            let _ = vdb.commit(src);
            check_published(&vdb, src);
        }
        assert_eq!(vdb.stats().stats_full, 0);
        vdb.shutdown();
        // Three statements per commit (a failing one rejects its batch).
        let vdb = VersionedDb::new(seed(indexes));
        for batch in program.chunks(3) {
            let src = batch.join("\n");
            let _ = vdb.commit(&src);
            check_published(&vdb, &src);
        }
        vdb.shutdown();
    }
    rejected
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn maintained_state_equals_a_sweep(ops in prop::collection::vec((0u8..16, 0u8..3, 0u8..3), 1..14)) {
        let _ = check_program(&ops);
    }
}

/// The cases the generator must reach, spelled out once.
#[test]
fn the_named_cases_hold() {
    let cases: &[(u8, u8, u8)] = &[
        (0, 0, 0),  // "a" …
        (0, 0, 0),  // … twice: a count from 1 to 2 moves no NDV
        (4, 0, 0),  // dne
        (5, 2, 0),  // delete matching nothing ("c")
        (5, 1, 0),  // delete "b", the one element carrying `gpa`
        (2, 2, 0),  // "c", gpa unk
        (1, 1, 1),  // "b", gpa 2
        (0, 1, 0),  // "b"
        (9, 0, 1),  // rename "a" onto "b": collides with the existing "b"
        (10, 1, 0), // and every "b" to an unk name
        (12, 1, 0), // Board gains Slots[1] a second time
        (15, 0, 1), // assign a fresh object to the ref array's slot 2
        (12, 0, 1), // Staff gains it
        (12, 1, 1), // Board too
        (11, 0, 0), // both "a" objects, shared by Staff, Board and Slots,
        //             get salary 1: one distinct salary where there were two
        (14, 0, 1), // and are renamed "b" through Staff
        (15, 1, 1), // slot 2 gets another object
        (13, 1, 0), // delete the "b"s from Board
        (8, 0, 1),  // an unk name, gpa 2
        // `!= "a"` is unk on an unk name: the survivors query drops such
        // an element — and yields an `unk` occurrence in its place, after
        // which a by-value `replace` on P is rejected ("replace row is not
        // a tuple"), so this comes last.
        (7, 0, 0),
        (6, 0, 0), // delete everything from P
    ];
    assert_eq!(check_program(cases), Vec::<String>::new());
}

/// A type defined after the data can be an element's exact type (§3.1:
/// the deepest type whose body the tuple inhabits exactly), moving it
/// between extents: the master re-files them, and the committer publishes
/// the result even though the batch wrote no data.
#[test]
fn a_new_type_refiles_the_extents() {
    let mut db = Database::new();
    db.execute(
        r#"define type Person: (name: char[])
           define type Student: (gpa: int4) inherits Person
           create P: { Person }
           append to P (name: "a")
           append to P (name: "b", gpa: 3)"#,
    )
    .expect("seed");
    db.create_extent_index("P", "Student").expect("index");
    db.collect_stats();
    let students = |catalog: &DbCatalog| {
        let extent = catalog.value("P::exact::Student");
        extent.and_then(|v| v.as_set().map(|s| s.len()))
    };
    assert_eq!(students(db.catalog()), Some(1));
    // Same full body as `Student`, one level deeper: "b" is a `Scholar`.
    let define = "define type Scholar: (gpa: int4) inherits Student";
    let vdb = VersionedDb::new(db.clone());
    db.execute(define).expect("define");
    check_db(&db, define);
    assert_eq!(students(db.catalog()), Some(0));
    vdb.commit(define).expect("commit");
    check_published(&vdb, define);
    assert_eq!(students(&vdb.current().catalog), Some(0));
    vdb.shutdown();
}

/// The reference NDV: distinct values by equality — the collector the
/// sketch replaced, kept here only.
fn ndv_by_value(catalog: &DbCatalog, store: &ObjectStore, name: &str) -> BTreeMap<String, f64> {
    let elements: Vec<&Value> = match catalog.value(name) {
        Some(Value::Set(s)) => s.iter_counted().map(|(e, _)| e).collect(),
        Some(Value::Array(a)) => a.iter().collect(),
        _ => Vec::new(),
    };
    let mut values: HashMap<&str, HashSet<&Value>> = HashMap::new();
    for e in elements {
        let e = match e {
            Value::Ref(oid) => match store.deref(*oid) {
                Ok(v) => v,
                Err(_) => continue,
            },
            other => other,
        };
        if let Value::Tuple(t) = e {
            for (f, fv) in t.iter() {
                values.entry(f).or_default().insert(fv);
            }
        }
    }
    values
        .into_iter()
        .map(|(f, vs)| (f.to_string(), vs.len() as f64))
        .collect()
}

/// NDV by digest (the sketch) equals NDV by value on every database the
/// repo ships: a collision would have to hit two of at most a few
/// thousand values per attribute, odds about n²/2⁶⁵.
#[test]
fn ndv_by_digest_is_ndv_by_value_on_every_shipped_database() {
    let mut dbs: Vec<(String, Database)> = Vec::new();
    for n in [20, 120, 480] {
        dbs.push((
            format!("server_mix_db({n})"),
            excess_bench::server_mix::server_mix_db(n),
        ));
    }
    for seed in 1..=10 {
        for scale in [1, 4] {
            let params = excess_workload::UniversityParams {
                seed,
                ..Default::default()
            }
            .scaled(scale);
            let u = excess_workload::university::generate(&params).expect("university");
            dbs.push((format!("university seed {seed} x{scale}"), u.db));
        }
    }
    dbs.push(("the tests/common fixture".to_string(), common::database()));
    let mut attributes = 0;
    for (label, mut db) in dbs {
        db.collect_stats();
        let catalog = db.catalog();
        for name in catalog.all_names() {
            let by_value = ndv_by_value(catalog, db.store(), name);
            let by_digest = &db.statistics().objects[name].attr_ndv;
            assert_eq!(by_digest, &by_value, "{label}: {name}");
            attributes += by_value.len();
        }
    }
    assert!(attributes > 100, "{attributes} attributes compared");
}
