//! Schema dump: the whole catalog as EXTRA DDL, and its round trip
//! through a fresh database.

use excess::db::Database;
use excess::workload::{generate, UniversityParams};

#[test]
fn university_schema_round_trips_through_its_dump() {
    let original = generate(&UniversityParams::tiny()).unwrap().db;
    let ddl = original.dump_schema();
    // The dump is valid EXCESS…
    let mut fresh = Database::new();
    fresh
        .execute(&ddl)
        .unwrap_or_else(|e| panic!("dump did not re-execute: {e}\n{ddl}"));
    // …and reproduces both the type hierarchy and the object schemas.
    assert_eq!(fresh.registry().len(), original.registry().len());
    for id in original.registry().all_ids() {
        let name = original.registry().name_of(id);
        let a = original.registry().full_body(id);
        let b = fresh
            .registry()
            .full_body(fresh.registry().lookup(name).unwrap());
        assert_eq!(a, b, "type {name}");
    }
    let mut names: Vec<&str> = original.catalog().names().collect();
    names.sort_unstable();
    for n in names {
        assert_eq!(
            original.catalog().schema(n),
            fresh.catalog().schema(n),
            "object {n}"
        );
    }
    // Dumping the fresh database gives the same text (fixpoint).
    assert_eq!(fresh.dump_schema(), ddl);
}

#[test]
fn dump_mentions_inheritance_and_fixed_arrays() {
    let db = generate(&UniversityParams::tiny()).unwrap().db;
    let ddl = db.dump_schema();
    assert!(ddl.contains("inherits Person"), "{ddl}");
    assert!(
        ddl.contains("create TopTen: array [1..10] of ref Employee"),
        "{ddl}"
    );
    assert!(ddl.contains("create P: { Person }"), "{ddl}");
}

#[test]
fn deeply_nested_queries_do_not_overflow() {
    // A 6-level nested aggregate pipeline: robustness, and the plan stays
    // evaluable and inferable.
    let mut db = Database::new();
    db.execute("retrieve ({ 1, 2, 3 }) into N").unwrap();
    let src = "retrieve (sum(sum(sum(x + y + z from z in N) from y in N) from x in N))";
    let out = db.execute(src).unwrap();
    // Σx Σy Σz (x+y+z) over {1,2,3}³ = 3·(Σ over 27 terms)… check by hand:
    // inner-most per (x,y): Σz (x+y+z) = 3(x+y)+6; next: Σy = 9x+18+18? —
    // just compare against a direct computation.
    let mut expect = 0;
    for x in 1..=3 {
        for y in 1..=3 {
            for z in 1..=3 {
                expect += x + y + z;
            }
        }
    }
    assert_eq!(out, excess::types::Value::int(expect));
}
