//! Shared fixture for the rewrite-soundness test suites: a database with
//! the Figure 1 inheritance hierarchy plus nested/array objects, and a
//! battery of seed plans chosen so that every transformation-rule family
//! fires somewhere.  `rule_soundness.rs` checks the rewrites by
//! *evaluation* over this battery, and `physical_lowering.rs` runs it
//! lowered against the naive evaluator.

#![allow(dead_code)]

use excess::algebra::counters::Counters;
use excess::algebra::expr::{Bound, CmpOp, Expr, Func, Pred};
use excess::db::{Database, Registry};
use excess::types::{SchemaType, Value};
use excess_bench::server_mix::{ANALYTIC_JOINS, MIX};
use excess_workload::{generate, queries, UniversityParams};

/// The work a registry has counted (its `work.*` counters) as
/// [`Counters`]: the difference of two readings is the work done between
/// them.
pub fn work(registry: &Registry) -> Counters {
    let field = |name: &str| registry.counter(&format!("work.{name}"));
    Counters {
        occurrences_scanned: field("occurrences_scanned"),
        elements_scanned: field("elements_scanned"),
        derefs: field("derefs"),
        de_input_occurrences: field("de_input_occurrences"),
        comparisons: field("comparisons"),
        oids_minted: field("oids_minted"),
        named_object_scans: field("named_object_scans"),
        pairs_formed: field("pairs_formed"),
    }
}

pub fn database() -> Database {
    let mut db = Database::new();
    db.optimize = false;
    db.execute(
        r#"define type Person: (name: char[], grp: int4)
           define type Employee: (salary: int4) inherits Person
           define type Student: (gpa: float4) inherits Person
           define type Person2Cell: (x: int4, y: char[])"#,
    )
    .unwrap();
    // Deterministic pseudo-random data with duplicates.
    let tup = |i: i32| {
        Value::tuple([
            ("name", Value::str(format!("n{}", i % 5))),
            ("grp", Value::int(i % 3)),
        ])
    };
    let emp = |i: i32| {
        Value::tuple([
            ("name", Value::str(format!("n{}", i % 5))),
            ("grp", Value::int(i % 3)),
            ("salary", Value::int(1000 + i)),
        ])
    };
    let stu = |i: i32| {
        Value::tuple([
            ("name", Value::str(format!("n{}", i % 5))),
            ("grp", Value::int(i % 3)),
            ("gpa", Value::float(f64::from(i % 4))),
        ])
    };
    db.put_object(
        "S",
        SchemaType::set(SchemaType::named("Person")),
        Value::set((0..12).map(tup)),
    );
    db.put_object(
        "T",
        SchemaType::set(SchemaType::named("Person")),
        Value::set((3..9).map(tup)),
    );
    db.put_object(
        "Mixed",
        SchemaType::set(SchemaType::named("Person")),
        Value::set(
            (0..4)
                .map(tup)
                .chain((4..8).map(emp))
                .chain((8..12).map(stu)),
        ),
    );
    db.put_object(
        "Nested",
        SchemaType::set(SchemaType::set(SchemaType::int4())),
        Value::set((0..4).map(|i| Value::set((0..=i).map(Value::int)))),
    );
    db.put_object(
        "Arr",
        SchemaType::array(SchemaType::int4()),
        Value::array((0..9).map(|i| Value::int(i % 4))),
    );
    db.put_object(
        "ArrB",
        SchemaType::array(SchemaType::int4()),
        Value::array((2..6).map(Value::int)),
    );
    db.put_object(
        "ArrNested",
        SchemaType::array(SchemaType::array(SchemaType::int4())),
        Value::array((0..3).map(|i| Value::array((0..=i).map(Value::int)))),
    );
    db.put_object(
        "OneTup",
        SchemaType::tuple([("x", SchemaType::int4()), ("y", SchemaType::chars())]),
        Value::tuple([("x", Value::int(4)), ("y", Value::str("hi"))]),
    );
    db
}

/// The request kinds of the four `served-retrieve` workloads that run on
/// `server_mix_db`, as the clients send them (literals fixed): the figure
/// mix, `analytic`'s two other joins, and `mixed_rw`'s salary probe.
pub fn served_mix_requests() -> Vec<&'static str> {
    let mut lines: Vec<&str> = MIX.iter().map(|(_, q)| *q).collect();
    lines.extend(ANALYTIC_JOINS.map(|(_, q)| q));
    lines.push("retrieve (E1.ename) where E1.esal = 1003");
    lines
}

/// The `objects` workload's request kinds, over [`served_university`].
pub const SERVED_UNIVERSITY_REQUESTS: [&str; 5] = [
    queries::SECTION2_KIDS,
    queries::FIGURE3,
    queries::FIGURE4,
    queries::QUERY_BOSS,
    queries::QUERY_WORKLOAD,
];

/// The Figure 1 university as the `objects` workload serves it: methods
/// installed, statistics collected.
pub fn served_university(params: &UniversityParams) -> Database {
    let mut db = generate(params).unwrap().db;
    db.execute(queries::DEFINE_BOSS).unwrap();
    db.execute(queries::DEFINE_WORKLOAD).unwrap();
    db.collect_stats();
    db
}

/// The unoptimized plan of a request line: its `range of` declarations
/// executed, its `retrieve` translated.
pub fn plan_of(db: &mut Database, request: &str) -> Expr {
    let (decls, retrieve) = request.split_at(request.find("retrieve").expect("a retrieve"));
    if !decls.trim().is_empty() {
        db.execute(decls).unwrap();
    }
    db.plan_for(retrieve).unwrap()
}

pub fn name_pred() -> Pred {
    Pred::cmp(Expr::input().extract("name"), CmpOp::Eq, Expr::str("n1"))
}

pub fn grp_pred() -> Pred {
    Pred::cmp(Expr::input().extract("grp"), CmpOp::Eq, Expr::int(1))
}

/// Seed plans chosen so that every rule family fires somewhere.
pub fn seeds() -> Vec<Expr> {
    let s = || Expr::named("S");
    let t = || Expr::named("T");
    let arr = || Expr::named("Arr");
    vec![
        // rule 1 / 2 / 11 / 12: unions, collapse, apply distribution
        s().add_union(t().add_union(s())),
        s().cross(t().add_union(s())),
        Expr::named("Nested")
            .set_collapse()
            .set_apply(Expr::input()),
        Expr::SetCollapse(Box::new(
            s().add_union(t()).set_apply(Expr::input().make_set()),
        )),
        Expr::SetCollapse(Box::new(
            Expr::named("Nested").add_union(Expr::named("Nested")),
        )),
        s().add_union(t()).set_apply(Expr::input().extract("name")),
        // rule 4: disjunctive selection (¬(¬a ∧ ¬b))
        s().select(Pred::Not(Box::new(name_pred().not().and(grp_pred().not())))),
        // rule 5: DE over SET_APPLY over ×, fst-only body
        Expr::DupElim(Box::new(
            s().cross(t())
                .set_apply(Expr::input().extract("fst").extract("name")),
        )),
        // rules 6, 8, 10: grouping pipelines
        s().group_by(Expr::input().extract("grp")).dup_elim(),
        s().dup_elim().group_by(Expr::input().extract("grp")),
        s().select(name_pred())
            .group_by(Expr::input().extract("grp")),
        // rule 7: DE over ×
        s().cross(t()).dup_elim(),
        // rule 9: GRP over × with fst-only key
        s().cross(t())
            .group_by(Expr::input().extract("fst").extract("grp")),
        // rule 13: SET_APPLY over × with pairwise body
        s().cross(t()).set_apply(
            Expr::input()
                .extract("fst")
                .extract("name")
                .make_tup("fst")
                .tup_cat(Expr::input().extract("snd").extract("grp").make_tup("snd")),
        ),
        // rule 14: SET_APPLY over SET_COLLAPSE
        Expr::named("Nested")
            .set_collapse()
            .set_apply(Expr::input().make_set()),
        // rule 15: successive SET_APPLYs
        s().set_apply(Expr::input().extract("name"))
            .set_apply(Expr::input().make_tup("n")),
        // rules 16–22: arrays
        arr().arr_cat(Expr::named("ArrB").arr_cat(arr())),
        Expr::ArrExtract(
            Box::new(Expr::lit(Value::array([1, 2].map(Value::int))).arr_cat(arr())),
            Bound::At(3),
        ),
        arr().subarr(Bound::At(2), Bound::At(6)).arr_extract(2),
        arr()
            .arr_apply(Expr::call(Func::Add, vec![Expr::input(), Expr::int(1)]))
            .arr_extract(3),
        arr()
            .subarr(Bound::At(2), Bound::At(7))
            .subarr(Bound::At(2), Bound::At(4)),
        Expr::SubArr(
            Box::new(Expr::lit(Value::array([9, 8].map(Value::int))).arr_cat(arr())),
            Bound::At(2),
            Bound::At(5),
        ),
        arr()
            .arr_apply(Expr::call(Func::Mul, vec![Expr::input(), Expr::int(3)]))
            .subarr(Bound::At(1), Bound::At(4)),
        arr()
            .arr_apply(Expr::call(Func::Add, vec![Expr::input(), Expr::int(1)]))
            .arr_apply(Expr::call(Func::Mul, vec![Expr::input(), Expr::int(2)])),
        // rules 23–25: tuple algebra
        Expr::named("OneTup").tup_cat(Expr::int(3).make_tup("z")),
        Expr::named("OneTup")
            .tup_cat(Expr::int(3).make_tup("z"))
            .project(["x", "z"]),
        Expr::named("OneTup")
            .tup_cat(Expr::int(3).make_tup("z"))
            .extract("z"),
        // rule 26: π/extract through COMP
        Expr::named("OneTup")
            .comp(Pred::cmp(
                Expr::input().extract("x"),
                CmpOp::Lt,
                Expr::int(10),
            ))
            .project(["x"]),
        Expr::named("OneTup")
            .comp(Pred::cmp(
                Expr::input().extract("x"),
                CmpOp::Lt,
                Expr::int(10),
            ))
            .extract("x"),
        // rule 27: nested COMPs
        Expr::named("OneTup")
            .comp(Pred::cmp(
                Expr::input().extract("x"),
                CmpOp::Lt,
                Expr::int(10),
            ))
            .comp(Pred::cmp(
                Expr::input().extract("x"),
                CmpOp::Gt,
                Expr::int(0),
            )),
        // rule A2: a predicate re-deriving its COMP's input
        s().set_apply(Expr::input().extract("grp").comp(Pred::cmp(
            Expr::input_at(1).extract("grp"),
            CmpOp::Eq,
            Expr::int(1),
        ))),
        // rule 28: REF/DEREF cancellation (modulo identity)
        Expr::named("OneTup").make_ref("Person2Cell").deref(),
        // rel rules: σ chains, join pushdown, σ over ⊎, DE idempotence
        s().select(name_pred()).select(grp_pred()),
        s().add_union(t()).select(name_pred()),
        s().dup_elim().dup_elim(),
        s().set_apply(Expr::input().extract("name")).dup_elim(),
        // rel6: σ through SET_COLLAPSE (both directions)
        Expr::named("Nested").set_collapse().select(Pred::cmp(
            Expr::input(),
            CmpOp::Ge,
            Expr::int(1),
        )),
        Expr::SetCollapse(Box::new(Expr::named("Nested").set_apply(Expr::Select {
            input: Box::new(Expr::input()),
            pred: Pred::cmp(Expr::input(), CmpOp::Ge, Expr::int(2)),
        }))),
        // dispatch rules
        Expr::named("Mixed").set_apply(Expr::call(
            Func::The,
            vec![Expr::SetApplySwitch {
                input: Box::new(Expr::input().make_set()),
                table: vec![
                    ("Person".into(), Expr::input().extract("name")),
                    ("Employee".into(), Expr::input().extract("salary")),
                    ("Student".into(), Expr::input().extract("gpa")),
                ],
            }],
        )),
        Expr::SetApplySwitch {
            input: Box::new(Expr::named("Mixed")),
            table: vec![
                ("Person".into(), Expr::input().extract("name")),
                ("Employee".into(), Expr::input().extract("salary")),
            ],
        },
    ]
}

/// Every rule family the seed battery is expected to exercise — the 28
/// Appendix rules (with 28a, A1 and A2 companions), the relational rel1–rel6
/// family, and the two dispatch rules.
pub fn expected_rules() -> &'static [&'static str] {
    &[
        "rule1-assoc",
        "rule2-distribute-cross-over-union",
        "rule4-disjunctive-select",
        "rule5-eliminate-cross",
        "rule6-group-is-dup-free",
        "rule7-distribute-de-cross",
        "rule8-de-through-group",
        "rule9-group-cross-one-side",
        "rule10-group-through-select",
        "rule11-collapse-over-union",
        "rule12-apply-over-union",
        "rule13-apply-over-cross",
        "rule14-apply-into-collapse",
        "rule15-combine-set-applys",
        "rule16-arr-cat-assoc",
        "rule17-extract-from-cat",
        "rule18-extract-from-subarr",
        "rule19-extract-from-apply",
        "rule20-combine-subarrs",
        "rule21-subarr-from-cat",
        "rule22-subarr-through-apply",
        "ruleA1-combine-arr-applys",
        "rule23-tup-cat-commute",
        "rule24-project-over-cat",
        "rule25-extract-from-tup-cat",
        "rule26-push-into-comp",
        "rule27-combine-comps",
        "rule28-ref-deref-cancel",
        "ruleA2-comp-reads-input",
        "rel1-combine-selects",
        "rel3-select-over-union",
        "rel4-de-idempotent",
        "rel5-de-early",
        "rel6-select-through-collapse",
        "dispatch1-lift-singleton-switch",
        "dispatch2-switch-to-union",
    ]
}
