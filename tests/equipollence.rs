//! The equipollence theorem (Section 3.4), tested constructively.
//!
//! Direction i (EXCESS → algebra) is the translator, exercised throughout
//! the test suite.  Direction ii (algebra → EXCESS) is the decompiler.
//! Here we close the loop: for a battery of algebra plans covering every
//! primitive operator, `decompile` to EXCESS text, re-`translate`, and
//! check both plans *evaluate to the same value* on the university
//! database.  For plans that mint OIDs the comparison is modulo object
//! identity (`canonical_form`), since fresh OIDs are opaque.

use excess::algebra::expr::{Bound, CmpOp, Expr, Func, Pred};
use excess::algebra::{canonical_form, Counters};
use excess::db::Database;
use excess::lang::decompile;
use excess::types::{SchemaType, Value};
use excess::workload::{generate, UniversityParams};

fn database() -> Database {
    let mut db = generate(&UniversityParams::tiny()).unwrap().db;
    db.optimize = false;
    // Extra fixture objects exercising every sort.
    db.put_object(
        "Nums",
        SchemaType::set(SchemaType::int4()),
        Value::set([1, 1, 2, 3, 3, 3].map(Value::int)),
    );
    db.put_object(
        "NumsB",
        SchemaType::set(SchemaType::int4()),
        Value::set([2, 3, 4].map(Value::int)),
    );
    db.put_object(
        "Xs",
        SchemaType::array(SchemaType::int4()),
        Value::array([5, 6, 7, 6].map(Value::int)),
    );
    db.put_object(
        "Ys",
        SchemaType::array(SchemaType::int4()),
        Value::array([8, 9].map(Value::int)),
    );
    db.put_object(
        "Pairs",
        SchemaType::set(SchemaType::tuple([
            ("a", SchemaType::int4()),
            ("b", SchemaType::chars()),
        ])),
        Value::set([
            Value::tuple([("a", Value::int(1)), ("b", Value::str("x"))]),
            Value::tuple([("a", Value::int(2)), ("b", Value::str("y"))]),
            Value::tuple([("a", Value::int(2)), ("b", Value::str("y"))]),
        ]),
    );
    db.put_object(
        "Nested",
        SchemaType::set(SchemaType::set(SchemaType::int4())),
        Value::set([
            Value::set([1, 2].map(Value::int)),
            Value::set([2].map(Value::int)),
        ]),
    );
    db.put_object(
        "NestedArr",
        SchemaType::array(SchemaType::array(SchemaType::int4())),
        Value::array([
            Value::array([1, 2].map(Value::int)),
            Value::array([3].map(Value::int)),
        ]),
    );
    db.put_object(
        "OneTup",
        SchemaType::tuple([("a", SchemaType::int4()), ("b", SchemaType::int4())]),
        Value::tuple([("a", Value::int(7)), ("b", Value::int(9))]),
    );
    db
}

/// The round trip for one plan.
fn round_trip(db: &mut Database, plan: &Expr, modulo_identity: bool) {
    // Both directions of the theorem produce statically verifiable plans:
    // the original algebra plan and the plan re-translated from its EXCESS
    // decompilation must carry zero error diagnostics.
    let report = db.verify_plan(plan);
    assert_eq!(
        report.error_count(),
        0,
        "plan {plan} has verifier errors:\n{}",
        report.render()
    );
    let direct = db
        .run_plan(plan)
        .unwrap_or_else(|e| panic!("direct eval of {plan}: {e}"));
    let text =
        decompile(plan, db.registry()).unwrap_or_else(|e| panic!("decompile of {plan}: {e}"));
    let replanned = db
        .plan_for(&format!("retrieve ({text})"))
        .unwrap_or_else(|e| panic!("re-planning of `{text}` (from {plan}): {e}"));
    let report = db.verify_plan(&replanned);
    assert_eq!(
        report.error_count(),
        0,
        "re-translated plan of `{text}` has verifier errors:\n{}",
        report.render()
    );
    let via_excess = db
        .execute(&format!("retrieve ({text})"))
        .unwrap_or_else(|e| panic!("re-translation of `{text}` (from {plan}): {e}"));
    if modulo_identity {
        let a = canonical_form(&direct, db.store());
        let b = canonical_form(&via_excess, db.store());
        assert_eq!(a, b, "plan {plan}\nvia: {text}");
    } else {
        assert_eq!(direct, via_excess, "plan {plan}\nvia: {text}");
    }
}

fn nums() -> Expr {
    Expr::named("Nums")
}
fn numsb() -> Expr {
    Expr::named("NumsB")
}
fn xs() -> Expr {
    Expr::named("Xs")
}

#[test]
fn multiset_operator_cases() {
    let mut db = database();
    let cases = vec![
        nums().add_union(numsb()), // ⊎
        Expr::int(9).make_set(),   // SET
        nums().set_apply(Expr::call(Func::Add, vec![Expr::input(), Expr::int(1)])), // SET_APPLY
        nums().group_by(Expr::input()), // GRP (identity key)
        Expr::named("Pairs").group_by(Expr::input().extract("a")), // GRP (field key)
        nums().dup_elim(),         // DE
        nums().diff(numsb()),      // −
        nums().cross(numsb()),     // ×
        Expr::named("Nested").set_collapse(), // SET_COLLAPSE
        Expr::Union(Box::new(nums()), Box::new(numsb())), // derived ∪
        Expr::Intersect(Box::new(nums()), Box::new(numsb())), // derived ∩
    ];
    for plan in cases {
        round_trip(&mut db, &plan, false);
    }
}

#[test]
fn tuple_operator_cases() {
    let mut db = database();
    let one = Expr::named("OneTup");
    let cases = vec![
        one.clone().project(["b"]),                      // π
        one.clone().tup_cat(Expr::int(3).make_tup("c")), // TUP_CAT
        one.clone().extract("a"),                        // TUP_EXTRACT
        Expr::int(5).make_tup("only"),                   // TUP
        Expr::named("Pairs").set_apply(Expr::input().extract("b")),
    ];
    for plan in cases {
        round_trip(&mut db, &plan, false);
    }
}

#[test]
fn array_operator_cases() {
    let mut db = database();
    let cases = vec![
        Expr::int(1).make_arr(),                       // ARR
        xs().arr_extract(2),                           // ARR_EXTRACT
        Expr::ArrExtract(Box::new(xs()), Bound::Last), // ARR_EXTRACT last
        xs().arr_apply(Expr::call(Func::Mul, vec![Expr::input(), Expr::int(2)])), // ARR_APPLY
        xs().subarr(Bound::At(2), Bound::At(3)),       // SUBARR
        xs().subarr(Bound::At(2), Bound::Last),        // SUBARR last
        xs().arr_cat(Expr::named("Ys")),               // ARR_CAT
        Expr::ArrCollapse(Box::new(Expr::named("NestedArr"))), // ARR_COLLAPSE
        Expr::ArrDiff(Box::new(xs()), Box::new(Expr::named("Ys"))), // ARR_DIFF
        Expr::ArrDupElim(Box::new(xs())),              // ARR_DE
        Expr::ArrCross(Box::new(xs()), Box::new(Expr::named("Ys"))), // ARR_CROSS
    ];
    for plan in cases {
        round_trip(&mut db, &plan, false);
    }
}

#[test]
fn reference_operator_cases() {
    let mut db = database();
    // DEREF over existing identities.
    let deref_plan = Expr::named("Employees").set_apply(Expr::input().deref().extract("name"));
    round_trip(&mut db, &deref_plan, false);
    // REF mints fresh OIDs — compare modulo identity.
    let mint = Expr::named("Departments").set_apply(Expr::input().deref().make_ref("Department"));
    round_trip(&mut db, &mint, true);
}

#[test]
fn predicate_cases() {
    let mut db = database();
    let comp = Expr::named("OneTup").comp(Pred::cmp(
        Expr::input().extract("a"),
        CmpOp::Eq,
        Expr::int(7),
    ));
    round_trip(&mut db, &comp, false);
    // Failing COMP: dne round-trips through `the` of the empty set.
    let comp_false = Expr::named("OneTup").comp(Pred::cmp(
        Expr::input().extract("a"),
        CmpOp::Gt,
        Expr::int(100),
    ));
    round_trip(&mut db, &comp_false, false);
    // σ (derived) desugars before decompilation.
    let sel = Expr::named("Nums").select(Pred::cmp(Expr::input(), CmpOp::Ge, Expr::int(2)));
    round_trip(&mut db, &sel, false);
    // Conjunction + negation + membership.
    let fancy = Expr::named("Pairs").select(
        Pred::cmp(Expr::input().extract("a"), CmpOp::In, numsb()).and(
            Pred::cmp(Expr::input().extract("b"), CmpOp::Ne, Expr::str("zzz"))
                .not()
                .not(),
        ),
    );
    round_trip(&mut db, &fancy, false);
}

#[test]
fn function_and_aggregate_cases() {
    let mut db = database();
    let cases = vec![
        Expr::call(Func::Min, vec![nums()]),
        Expr::call(Func::Max, vec![nums()]),
        Expr::call(Func::Count, vec![nums()]),
        Expr::call(Func::Sum, vec![nums()]),
        Expr::call(Func::Avg, vec![nums()]),
        Expr::call(Func::The, vec![Expr::int(3).make_set()]),
        Expr::call(Func::Add, vec![Expr::int(1), Expr::int(2)]),
        Expr::call(Func::Sub, vec![Expr::int(1), Expr::int(2)]),
        Expr::call(Func::Mul, vec![Expr::int(3), Expr::int(4)]),
        Expr::call(Func::Div, vec![Expr::int(9), Expr::int(2)]),
        Expr::call(Func::Neg, vec![Expr::int(5)]),
    ];
    for plan in cases {
        round_trip(&mut db, &plan, false);
    }
}

#[test]
fn dispatch_case_decompiles_to_union_form() {
    let mut db = database();
    let plan = Expr::SetApplySwitch {
        input: Box::new(Expr::named("P")),
        table: vec![
            ("Person".into(), Expr::input().extract("name")),
            ("Employee".into(), Expr::input().extract("jobtitle")),
            ("Student".into(), Expr::input().extract("advisor_name")),
        ],
    };
    round_trip(&mut db, &plan, false);
}

#[test]
fn rel_join_and_rel_cross_desugar_and_round_trip() {
    let mut db = database();
    db.put_object(
        "Pairs2",
        SchemaType::set(SchemaType::tuple([
            ("c", SchemaType::int4()),
            ("d", SchemaType::chars()),
        ])),
        Value::set([
            Value::tuple([("c", Value::int(2)), ("d", Value::str("q"))]),
            Value::tuple([("c", Value::int(9)), ("d", Value::str("r"))]),
        ]),
    );
    let join = Expr::named("Pairs").rel_join(
        Expr::named("Pairs2"),
        Pred::cmp(
            Expr::input().extract("a"),
            CmpOp::Eq,
            Expr::input().extract("c"),
        ),
    );
    round_trip(&mut db, &join, false);
    let cross = Expr::named("Pairs").rel_cross(Expr::named("Pairs2"));
    round_trip(&mut db, &cross, false);
}

#[test]
fn primed_fields_are_a_documented_decompile_limit() {
    let db = database();
    // Self-join: the clash-primed field `a'` has no surface form.
    let join = Expr::named("Pairs").rel_join(
        Expr::named("Pairs"),
        Pred::cmp(
            Expr::input().extract("a"),
            CmpOp::Eq,
            Expr::input().extract("a'"),
        ),
    );
    assert!(decompile(&join, db.registry()).is_err());
}

#[test]
fn nested_binders_round_trip() {
    let mut db = database();
    // SET_APPLY within SET_APPLY, inner body referencing the outer binder:
    // for each n in Nums, the set of sums n+m over NumsB.
    let plan = nums().set_apply(numsb().set_apply(Expr::call(
        Func::Add,
        vec![Expr::input(), Expr::input_at(1)],
    )));
    round_trip(&mut db, &plan, false);
}

#[test]
fn literal_cases() {
    let mut db = database();
    let cases = vec![
        Expr::lit(Value::set([Value::int(1), Value::int(1)])),
        Expr::lit(Value::array([Value::str("a"), Value::str("b")])),
        Expr::lit(Value::tuple([
            ("x", Value::float(2.5)),
            ("y", Value::bool(true)),
        ])),
        Expr::lit(Value::dne()),
        Expr::lit(Value::unk()),
        Expr::lit(Value::date(excess::types::Date::new(1990, 12, 1).unwrap())),
        Expr::lit(Value::Tuple(excess::types::Tuple::empty())),
    ];
    for plan in cases {
        round_trip(&mut db, &plan, false);
    }
}

#[test]
fn oid_constants_have_no_surface_form() {
    let db = database();
    let some_oid = db
        .catalog()
        .value("Employees")
        .unwrap()
        .as_set()
        .unwrap()
        .iter_occurrences()
        .next()
        .unwrap()
        .clone();
    let plan = Expr::lit(some_oid);
    assert!(decompile(&plan, db.registry()).is_err());
}

#[test]
fn counters_are_observable_through_db() {
    let mut db = database();
    let plan = nums().set_apply(Expr::input());
    db.run_plan(&plan).unwrap();
    let c: Counters = db.last_counters();
    assert_eq!(c.occurrences_scanned, 6); // |Nums| = 6 occurrences
}
