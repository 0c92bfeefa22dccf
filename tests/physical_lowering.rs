//! Lowering soundness: `eval(lower(p))` — the physical interpreter
//! running whatever row kernels the lowering chose — is canon-identical
//! to `eval(p)`, the naive evaluator behind `Database::run_plan`:
//!
//! * for randomly generated `rel_join` pipelines with `dne`/`unk` and
//!   mixed-kind keys, duplicate-heavy sides and stale plans;
//! * for the rewrite-seed battery, a per-operator battery (the array
//!   algebra element for element, order included), the F6–F11 figure
//!   plans, skewed and empty inputs, random multiset pipelines (counters
//!   included), and nullable extents with multiset weights;
//!
//! plus the negative cases: a non-equi `COMP` predicate must lower to a
//! nested loop, and a hash choice whose runtime guard fails (null join
//! keys) must fall back without changing results *or counters*.

mod common;

use excess::algebra::canon::equal_modulo_identity;
use excess::algebra::canonical_form;
use excess::algebra::eval::reads_in_place;
use excess::algebra::expr::{Bound, CmpOp, Expr, Func, Pred};
use excess::algebra::physical::{PhysOp, PhysicalPlan};
use excess::db::{Database, Tracing};
use excess::types::{MultiSet, Null, SchemaType, Value};
use excess_bench::example1::{example1_db, figure6, figure7, figure8};
use excess_bench::example2::{example2_db, figure10, figure11, figure9};
use excess_workload::{queries, UniversityParams};
use proptest::prelude::*;

/// The shape of one generated pipeline: optional filters around an
/// optional join of `L{k,v}` with `R{j,w}`.
#[derive(Debug, Clone)]
struct Pipe {
    pre_dup: bool,
    pre_sel: Option<i32>,
    join: Join,
    post_sel: Option<i32>,
    post_dup: bool,
}

#[derive(Debug, Clone)]
enum Join {
    /// `L.k = R.j` — hashable.
    Equi,
    /// `L.k = R.j and L.v >= c` — hashable with a residual conjunct.
    EquiResidual(i32),
    /// `L.k <= R.j` — not hashable; must stay a nested loop.
    NonEqui,
    /// No join at all.
    None,
}

fn maybe_bound() -> impl Strategy<Value = Option<i32>> {
    prop_oneof![Just(None), (-2i32..6).prop_map(Some)]
}

fn arb_pipe() -> impl Strategy<Value = Pipe> {
    (
        (any::<bool>(), maybe_bound()),
        prop_oneof![
            Just(Join::Equi),
            (-2i32..6).prop_map(Join::EquiResidual),
            Just(Join::NonEqui),
            Just(Join::None),
        ],
        maybe_bound(),
        any::<bool>(),
    )
        .prop_map(|((pre_dup, pre_sel), join, post_sel, post_dup)| Pipe {
            pre_dup,
            pre_sel,
            join,
            post_sel,
            post_dup,
        })
}

fn build(p: &Pipe) -> Expr {
    let mut e = Expr::named("L");
    if p.pre_dup {
        e = e.dup_elim();
    }
    if let Some(c) = p.pre_sel {
        e = e.select(Pred::cmp(
            Expr::input().extract("v"),
            CmpOp::Ge,
            Expr::int(c),
        ));
    }
    let equi = || {
        Pred::cmp(
            Expr::input().extract("k"),
            CmpOp::Eq,
            Expr::input().extract("j"),
        )
    };
    match p.join {
        Join::Equi => e = e.rel_join(Expr::named("R"), equi()),
        Join::EquiResidual(c) => {
            e = e.rel_join(
                Expr::named("R"),
                Pred::And(
                    Box::new(equi()),
                    Box::new(Pred::cmp(
                        Expr::input().extract("v"),
                        CmpOp::Ge,
                        Expr::int(c),
                    )),
                ),
            );
        }
        Join::NonEqui => {
            e = e.rel_join(
                Expr::named("R"),
                Pred::cmp(
                    Expr::input().extract("k"),
                    CmpOp::Le,
                    Expr::input().extract("j"),
                ),
            );
        }
        Join::None => {}
    }
    if let Some(c) = p.post_sel {
        e = e.select(Pred::cmp(
            Expr::input().extract("v"),
            CmpOp::Ge,
            Expr::int(c),
        ));
    }
    if p.post_dup {
        e = e.dup_elim();
    }
    e
}

fn l_tuple(k: i32, v: i32) -> Value {
    Value::tuple([("k", Value::int(k)), ("v", Value::int(v))])
}

fn r_tuple(j: i32, w: i32) -> Value {
    Value::tuple([("j", Value::int(j)), ("w", Value::int(w))])
}

/// Evaluate a lowered plan with the physical interpreter.
fn run_lowered(db: &mut Database, physical: &PhysicalPlan) -> Value {
    db.run_lowered(physical, Tracing::Off).unwrap().value
}

fn database(l: &[(i32, i32)], r: &[(i32, i32)]) -> Database {
    let mut db = Database::new();
    db.optimize = false;
    db.put_object(
        "L",
        SchemaType::set(SchemaType::tuple([
            ("k", SchemaType::int4()),
            ("v", SchemaType::int4()),
        ])),
        Value::set(l.iter().map(|&(k, v)| l_tuple(k, v))),
    );
    db.put_object(
        "R",
        SchemaType::set(SchemaType::tuple([
            ("j", SchemaType::int4()),
            ("w", SchemaType::int4()),
        ])),
        Value::set(r.iter().map(|&(j, w)| r_tuple(j, w))),
    );
    db.collect_stats();
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Whatever kernels the lowering picks (hash or nested loop,
    // guard-passed or guard-refused), the lowered plan evaluates
    // canon-identically to the logical plan: the physical interpreter
    // against the naive evaluator.
    #[test]
    fn lowered_plans_are_canon_identical_in_both_engines(
        pipe in arb_pipe(),
        l in prop::collection::vec((0i32..6, -4i32..8), 8..20),
        r in prop::collection::vec((0i32..6, -4i32..8), 8..14)
    ) {
        let plan = build(&pipe);
        let mut db = database(&l, &r);
        let logical = db.run_plan(&plan).unwrap();
        let (physical, _) = db.lower_plan(&plan);
        prop_assert_eq!(&physical.logical, &plan, "lowering altered the tree");

        let lowered = run_lowered(&mut db, &physical);
        prop_assert_eq!(
            canonical_form(&logical, db.store()),
            canonical_form(&lowered, db.store()),
            "physical run diverged on {} ({:?})", plan, pipe
        );
    }
}

/// `{ (key: int4, val: int4) }`.
fn schema(key: &str, val: &str) -> SchemaType {
    SchemaType::set(SchemaType::tuple([
        (key, SchemaType::int4()),
        (val, SchemaType::int4()),
    ]))
}

/// With dense inputs and a hashable predicate, lowering must actually
/// choose the hash kernel, and the kernel must perform strictly fewer
/// predicate comparisons than the nested loop while producing the same
/// multiset.
#[test]
fn lowered_hash_join_counts_strictly_fewer_comparisons() {
    let l: Vec<(i32, i32)> = (0..16).map(|i| (i % 4, i)).collect();
    let r: Vec<(i32, i32)> = (0..8).map(|i| (i % 4, 10 * i)).collect();
    let plan = build(&Pipe {
        pre_dup: false,
        pre_sel: None,
        join: Join::Equi,
        post_sel: None,
        post_dup: false,
    });
    let mut db = database(&l, &r);

    let logical = db.run_plan(&plan).unwrap();
    let nested = db.last_counters();

    let (physical, _) = db.lower_plan(&plan);
    let root = physical.choices.get(&Vec::new()).expect("root choice");
    assert!(
        matches!(root.op, PhysOp::HashEquiJoin { .. }),
        "expected a hash kernel, got {:?} ({})",
        root.op,
        root.why
    );
    let hashed = run_lowered(&mut db, &physical);
    let hash = db.last_counters();

    assert_eq!(
        canonical_form(&logical, db.store()),
        canonical_form(&hashed, db.store())
    );
    assert!(
        hash.comparisons < nested.comparisons,
        "hash {} vs nested {}",
        hash.comparisons,
        nested.comparisons
    );
}

/// The negative case the issue calls out: a `COMP` whose predicate has no
/// equi conjunct (`L.k <= R.j`) must lower to a nested loop, with the
/// refusal journaled.
#[test]
fn non_equi_comp_lowers_to_nested_loop() {
    let l: Vec<(i32, i32)> = (0..16).map(|i| (i, i)).collect();
    let r: Vec<(i32, i32)> = (0..8).map(|i| (i, i)).collect();
    let plan = build(&Pipe {
        pre_dup: false,
        pre_sel: None,
        join: Join::NonEqui,
        post_sel: None,
        post_dup: false,
    });
    let mut db = database(&l, &r);
    let (physical, journal) = db.lower_plan(&plan);
    let root = physical.choices.get(&Vec::new()).expect("root choice");
    assert_eq!(root.op, PhysOp::NestedLoopJoin, "{}", root.why);
    assert!(
        journal
            .refused
            .iter()
            .any(|s| s.rule == excess::optimizer::LOWERING_RULE
                && s.reason.contains("no hashable equi conjunct")),
        "refusal not journaled: {:?}",
        journal.refused
    );
    // And the nested-loop plan still evaluates identically.
    let logical = db.run_plan(&plan).unwrap();
    let nested = db.last_counters();
    let physical_out = run_lowered(&mut db, &physical);
    assert_eq!(logical, physical_out);
    assert_eq!(
        nested,
        db.last_counters(),
        "pass-through must not change work"
    );
}

/// A hash choice whose runtime guard fails — here because some join keys
/// are the `dne` null — must silently fall back to the nested loop:
/// same value, same counters, no reliance on the statistics being right.
#[test]
fn guard_failure_falls_back_to_the_nested_loop() {
    let mut l: Vec<Value> = (0..16).map(|i| l_tuple(i % 4, i)).collect();
    l.push(Value::tuple([("k", Value::dne()), ("v", Value::int(99))]));
    let r: Vec<(i32, i32)> = (0..8).map(|i| (i % 4, i)).collect();

    let mut db = Database::new();
    db.optimize = false;
    db.put_object(
        "L",
        SchemaType::set(SchemaType::tuple([
            ("k", SchemaType::int4()),
            ("v", SchemaType::int4()),
        ])),
        Value::set(l),
    );
    db.put_object(
        "R",
        SchemaType::set(SchemaType::tuple([
            ("j", SchemaType::int4()),
            ("w", SchemaType::int4()),
        ])),
        Value::set(r.iter().map(|&(j, w)| r_tuple(j, w))),
    );
    db.collect_stats();

    let plan = build(&Pipe {
        pre_dup: false,
        pre_sel: None,
        join: Join::Equi,
        post_sel: None,
        post_dup: false,
    });
    let (physical, _) = db.lower_plan(&plan);
    let root = physical.choices.get(&Vec::new()).expect("root choice");
    assert!(
        matches!(root.op, PhysOp::HashEquiJoin { .. }),
        "statistics should still pick the hash kernel: {:?}",
        root.op
    );

    let logical = db.run_plan(&plan).unwrap();
    let nested = db.last_counters();
    let physical_out = run_lowered(&mut db, &physical);
    let fallback = db.last_counters();

    assert_eq!(
        canonical_form(&logical, db.store()),
        canonical_form(&physical_out, db.store())
    );
    assert_eq!(
        nested, fallback,
        "a refused guard must run the exact nested loop"
    );
}

// ------------------------------------------------- batteries on plain data

/// Run `plan` with the naive evaluator on one fresh database and lowered
/// (under collected statistics) on another, and assert the results are
/// equal modulo object identity — arrays element for element, order
/// included.  Separate databases keep minted OIDs from one run out of the
/// other's store.
fn assert_lowered_matches(make_db: impl Fn() -> Database, plan: &Expr) {
    let mut naive_db = make_db();
    let naive = naive_db.run_plan(plan).unwrap();
    let mut db = make_db();
    db.analyze();
    let (physical, _) = db.lower_plan(plan);
    let lowered = run_lowered(&mut db, &physical);
    assert!(
        equal_modulo_identity(&naive, naive_db.store(), &lowered, db.store()),
        "plan {plan} diverged when lowered:\n  naive:   {naive}\n  lowered: {lowered}\n{}",
        physical.render()
    );
}

#[test]
fn seed_battery_lowered_matches_the_naive_evaluator() {
    for plan in common::seeds() {
        assert_lowered_matches(common::database, &plan);
    }
}

/// Operators the seed battery reaches only incidentally, each made the
/// plan's focus: multiset difference/intersection/union, the whole array
/// algebra, COMP, and the relational join forms.
fn operator_battery() -> Vec<Expr> {
    let s = || Expr::named("S");
    let t = || Expr::named("T");
    let arr = || Expr::named("Arr");
    let arrb = || Expr::named("ArrB");
    vec![
        s().diff(t()),
        Expr::Intersect(Box::new(s()), Box::new(t())),
        Expr::Union(Box::new(s()), Box::new(t())),
        Expr::ArrDiff(Box::new(arr()), Box::new(arrb())),
        Expr::ArrDupElim(Box::new(arr())),
        Expr::ArrCross(Box::new(arr()), Box::new(arrb())),
        Expr::ArrCollapse(Box::new(Expr::named("ArrNested"))),
        Expr::int(7).make_arr(),
        Expr::int(7).make_set(),
        arr().subarr(Bound::At(2), Bound::At(5)),
        Expr::ArrSelect {
            input: Box::new(arr()),
            pred: Pred::cmp(Expr::input(), CmpOp::Ge, Expr::int(2)),
        },
        // ARR_APPLY's output order is its input order.
        arr()
            .arr_apply(Expr::call(Func::Mul, vec![Expr::input(), Expr::int(10)]))
            .arr_cat(arrb()),
        Expr::named("OneTup").comp(Pred::cmp(
            Expr::input().extract("x"),
            CmpOp::Lt,
            Expr::int(9),
        )),
        s().rel_cross(t()),
        s().rel_join(
            t(),
            Pred::cmp(
                Expr::input().extract("name"),
                CmpOp::Eq,
                Expr::input().extract("name"),
            ),
        ),
        s().rel_join(
            t(),
            Pred::cmp(
                Expr::input().extract("grp"),
                CmpOp::Lt,
                Expr::input().extract("grp"),
            ),
        ),
        s().group_by(Expr::input().extract("name")),
    ]
}

#[test]
fn operator_battery_lowered_matches_the_naive_evaluator() {
    for plan in operator_battery() {
        assert_lowered_matches(common::database, &plan);
    }
}

/// ARR_APPLY's output order is its input order: the lowered run must
/// return the naive evaluator's array element for element, not merely a
/// canon-equal one.
#[test]
fn order_sensitive_array_operators_keep_exact_order_when_lowered() {
    let plan = Expr::named("Arr")
        .arr_apply(Expr::call(Func::Mul, vec![Expr::input(), Expr::int(10)]))
        .arr_cat(Expr::named("ArrB"));
    let mut naive_db = common::database();
    let naive = naive_db.run_plan(&plan).unwrap();
    assert!(matches!(naive, Value::Array(_)), "{naive}");

    let mut db = common::database();
    db.analyze();
    let (physical, _) = db.lower_plan(&plan);
    let lowered = run_lowered(&mut db, &physical);
    assert_eq!(
        naive, lowered,
        "array results must be exactly equal, order included"
    );
    assert_eq!(naive_db.last_counters(), db.last_counters(), "{plan}");
}

/// Single-input multiset operators and `ADD_UNION` have no hash-join
/// choice to make, so their lowered run is counter-exact, not just
/// value-equal.
#[test]
fn single_input_kernels_keep_exact_counters() {
    let plans = [
        Expr::named("S").select(common::grp_pred()),
        Expr::named("S").set_apply(Expr::input().extract("name")),
        Expr::named("S").dup_elim(),
        Expr::named("S").group_by(Expr::input().extract("grp")),
        Expr::named("S").add_union(Expr::named("T")),
    ];
    for plan in plans {
        let mut naive_db = common::database();
        let naive = naive_db.run_plan(&plan).unwrap();

        let mut db = common::database();
        db.analyze();
        let (physical, _) = db.lower_plan(&plan);
        let lowered = run_lowered(&mut db, &physical);
        assert!(
            equal_modulo_identity(&naive, naive_db.store(), &lowered, db.store()),
            "{plan} diverged when lowered"
        );
        assert_eq!(
            db.last_counters(),
            naive_db.last_counters(),
            "counters diverged for {plan}"
        );
    }
}

/// Diverse equi-join keys under collected statistics: the lowering picks
/// the hash kernel on exactly those keys, the result matches, and the
/// buckets only ever prune comparisons.
#[test]
fn equi_join_on_diverse_keys_picks_the_hash_kernel_and_matches() {
    let make_db = || {
        let mut db = Database::new();
        db.optimize = false;
        db.put_object(
            "L",
            schema("k", "a"),
            Value::set(
                (0..30).map(|i| Value::tuple([("k", Value::int(i % 10)), ("a", Value::int(i))])),
            ),
        );
        db.put_object(
            "R",
            schema("j", "b"),
            Value::set(
                (0..20).map(|i| Value::tuple([("j", Value::int(i % 10)), ("b", Value::int(i))])),
            ),
        );
        db
    };
    let plan = Expr::named("L").rel_join(
        Expr::named("R"),
        Pred::cmp(
            Expr::input().extract("k"),
            CmpOp::Eq,
            Expr::input().extract("j"),
        ),
    );
    assert_lowered_matches(make_db, &plan);

    let mut naive_db = make_db();
    naive_db.run_plan(&plan).unwrap();
    let naive_cmps = naive_db.last_counters().comparisons;

    let mut db = make_db();
    db.analyze();
    let (physical, _) = db.lower_plan(&plan);
    assert!(
        matches!(
            physical.choices.get(&Vec::new()).map(|c| &c.op),
            Some(PhysOp::HashEquiJoin { left_key, right_key }) if left_key == "k" && right_key == "j"
        ),
        "lowering should pick the hash kernel:\n{}",
        physical.render()
    );
    run_lowered(&mut db, &physical);
    assert!(
        db.last_counters().comparisons < naive_cmps,
        "hash join did {} comparisons, the nested loop {naive_cmps}",
        db.last_counters().comparisons
    );
}

#[test]
fn figure_plans_lowered_match_the_naive_evaluator() {
    let ex1 = || example1_db(48, 32, 8);
    for plan in [figure6(), figure7(), figure8()] {
        assert_lowered_matches(ex1, &plan);
    }
    let ex2 = || example2_db(120, 8, 4);
    for plan in [figure9(), figure10(), figure11()] {
        assert_lowered_matches(ex2, &plan);
    }
    // Example 1 as translated over the Figure 1 university: its ref
    // extents keep the correlated form, no join kernel is refused, and
    // the outer apply runs as the nested loop it is written as.
    let university = || common::served_university(&UniversityParams::tiny());
    let mut db = university();
    let plan = common::plan_of(&mut db, queries::EXAMPLE1);
    let (physical, journal) = db.lower_plan(&plan);
    assert_eq!(journal.refused, Vec::new(), "{plan}");
    let outer: Vec<_> = physical
        .choices
        .iter()
        .filter(|(path, _)| {
            matches!(physical.node_at(path), Some(Expr::SetApply { body, .. })
                if matches!(**body, Expr::SetApply { .. }))
        })
        .collect();
    let [(_, apply)] = outer[..] else {
        panic!("{}", physical.render())
    };
    assert_eq!(apply.op, PhysOp::PassThrough, "{}", physical.render());
    assert_lowered_matches(university, &plan);
}

/// Every occurrence on one key: one group, and a join whose every pair
/// shares a bucket; then the same plans over empty sides.
#[test]
fn skewed_data_matches_the_naive_evaluator() {
    let skewed = |rows: i32| {
        move || {
            let mut db = Database::new();
            db.optimize = false;
            db.put_object(
                "Skewed",
                SchemaType::set(SchemaType::tuple([
                    ("name", SchemaType::chars()),
                    ("v", SchemaType::int4()),
                ])),
                Value::set((0..rows).map(|i| {
                    Value::tuple([("name", Value::str("same")), ("v", Value::int(i % 5))])
                })),
            );
            db.put_object(
                "Keys",
                schema("j", "w"),
                Value::set((0..rows).map(|i| r_tuple(1, i))),
            );
            db.put_object(
                "Probe",
                schema("k", "v"),
                Value::set((0..rows).map(|i| l_tuple(1, i))),
            );
            db
        }
    };
    let group = Expr::named("Skewed").group_by(Expr::input().extract("name"));
    let join = Expr::named("Probe").rel_join(
        Expr::named("Keys"),
        Pred::cmp(
            Expr::input().extract("k"),
            CmpOp::Eq,
            Expr::input().extract("j"),
        ),
    );
    for rows in [40, 0] {
        assert_lowered_matches(skewed(rows), &group);
        assert_lowered_matches(skewed(rows), &join);
    }
}

// ----------------------------------------------- random multiset pipelines

/// One stage of a random multiset pipeline.
#[derive(Debug, Clone)]
enum Stage {
    DupElim,
    SelectGe(i32),
    MapAdd(i32),
    DiffB,
    AddUnionB,
    IntersectB,
    UnionB,
    GroupModAndFlatten(i32),
}

fn arb_stage() -> impl Strategy<Value = Stage> {
    prop_oneof![
        Just(Stage::DupElim),
        (-4i32..8).prop_map(Stage::SelectGe),
        (-3i32..4).prop_map(Stage::MapAdd),
        Just(Stage::DiffB),
        Just(Stage::AddUnionB),
        Just(Stage::IntersectB),
        Just(Stage::UnionB),
        (1i32..4).prop_map(Stage::GroupModAndFlatten),
    ]
}

fn build_pipeline(stages: &[Stage]) -> Expr {
    let mut e = Expr::named("NumsA");
    for s in stages {
        match s {
            Stage::DupElim => e = e.dup_elim(),
            Stage::SelectGe(k) => {
                e = e.select(Pred::cmp(Expr::input(), CmpOp::Ge, Expr::int(*k)));
            }
            Stage::MapAdd(k) => {
                e = e.set_apply(Expr::call(Func::Add, vec![Expr::input(), Expr::int(*k)]));
            }
            Stage::DiffB => e = e.diff(Expr::named("NumsB")),
            Stage::AddUnionB => e = e.add_union(Expr::named("NumsB")),
            Stage::IntersectB => {
                e = Expr::Intersect(Box::new(e), Box::new(Expr::named("NumsB")));
            }
            Stage::UnionB => e = Expr::Union(Box::new(e), Box::new(Expr::named("NumsB"))),
            Stage::GroupModAndFlatten(m) => {
                e = e
                    .group_by(Expr::call(
                        Func::Sub,
                        vec![
                            Expr::input(),
                            Expr::call(
                                Func::Mul,
                                vec![
                                    Expr::call(Func::Div, vec![Expr::input(), Expr::int(*m)]),
                                    Expr::int(*m),
                                ],
                            ),
                        ],
                    ))
                    .set_collapse();
            }
        }
    }
    e
}

fn num_db(a: &[i32], b: &[i32]) -> Database {
    let mut db = Database::new();
    db.optimize = false;
    db.put_object(
        "NumsA",
        SchemaType::set(SchemaType::int4()),
        Value::set(a.iter().copied().map(Value::int)),
    );
    db.put_object(
        "NumsB",
        SchemaType::set(SchemaType::int4()),
        Value::set(b.iter().copied().map(Value::int)),
    );
    db.collect_stats();
    db
}

/// No join in these pipelines, so every kernel the lowering picks runs
/// the logical operator: the values *and the counters* are the naive
/// evaluator's.
fn check_pipeline(stages: &[Stage], a: &[i32], b: &[i32]) {
    let plan = build_pipeline(stages);
    let mut db = num_db(a, b);
    let naive = db.run_plan(&plan).unwrap();
    let naive_counters = db.last_counters();
    let (physical, _) = db.lower_plan(&plan);
    let lowered = run_lowered(&mut db, &physical);
    assert_eq!(naive, lowered, "pipeline {plan} diverged when lowered");
    assert_eq!(
        naive_counters,
        db.last_counters(),
        "counters diverged for {plan}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_pipelines_lowered_match_the_naive_evaluator(
        stages in prop::collection::vec(arb_stage(), 0..6),
        a in prop::collection::vec(-5i32..10, 0..12),
        b in prop::collection::vec(-5i32..10, 0..8)
    ) {
        check_pipeline(&stages, &a, &b);
    }
}

// ------------------------------------------------------ nullable extents

/// One nullable int cell: mostly values, sometimes one of the two nulls.
fn arb_int_cell() -> impl Strategy<Value = Value> {
    (0i32..8).prop_map(|i| match i {
        6 => Value::Null(Null::Dne),
        7 => Value::Null(Null::Unk),
        v => Value::int(v),
    })
}

/// One nullable string cell over a small alphabet.
fn arb_str_cell() -> impl Strategy<Value = Value> {
    (0i32..6).prop_map(|i| match i {
        4 => Value::Null(Null::Dne),
        5 => Value::Null(Null::Unk),
        v => Value::str(format!("s{v}")),
    })
}

/// Rows `(a, b, k)` of the left extent `N`, each with a multiset weight.
type LeftRow = (Value, Value, Value, u64);
/// Rows `(j, c)` of the right extent `M`, each with a multiset weight.
type RightRow = (Value, Value, u64);

fn arb_left_rows() -> impl Strategy<Value = Vec<LeftRow>> {
    prop::collection::vec(
        (arb_int_cell(), arb_str_cell(), arb_int_cell(), 1u64..4),
        0..14,
    )
}

fn arb_right_rows() -> impl Strategy<Value = Vec<RightRow>> {
    prop::collection::vec((arb_int_cell(), arb_str_cell(), 1u64..4), 0..12)
}

/// A 1–2 conjunct filter over `a` and `b`, occasionally negated.
fn arb_filter() -> impl Strategy<Value = Pred> {
    let cmp = (
        prop_oneof![
            Just(CmpOp::Eq),
            Just(CmpOp::Ne),
            Just(CmpOp::Lt),
            Just(CmpOp::Le),
            Just(CmpOp::Gt),
            Just(CmpOp::Ge),
        ],
        any::<bool>(),
        0i32..6,
    )
        .prop_map(|(op, on_int, lit)| {
            if on_int {
                Pred::cmp(Expr::input().extract("a"), op, Expr::int(lit))
            } else {
                Pred::cmp(
                    Expr::input().extract("b"),
                    op,
                    Expr::str(format!("s{}", lit % 4)),
                )
            }
        });
    (cmp.clone(), cmp, any::<bool>(), any::<bool>()).prop_map(|(p, q, two, negate)| {
        let base = if two { p.and(q) } else { p };
        if negate {
            Pred::Not(Box::new(base))
        } else {
            base
        }
    })
}

fn nullable_db(left: &[LeftRow], right: &[RightRow]) -> Database {
    let mut db = Database::new();
    db.optimize = false;
    let mut n = MultiSet::new();
    for (a, b, k, w) in left {
        n.insert_n(
            Value::tuple([("a", a.clone()), ("b", b.clone()), ("k", k.clone())]),
            *w,
        );
    }
    let mut m = MultiSet::new();
    for (j, c, w) in right {
        m.insert_n(Value::tuple([("j", j.clone()), ("c", c.clone())]), *w);
    }
    db.put_object(
        "N",
        SchemaType::set(SchemaType::tuple([
            ("a", SchemaType::int4()),
            ("b", SchemaType::chars()),
            ("k", SchemaType::int4()),
        ])),
        Value::Set(n),
    );
    db.put_object(
        "M",
        SchemaType::set(SchemaType::tuple([
            ("j", SchemaType::int4()),
            ("c", SchemaType::chars()),
        ])),
        Value::Set(m),
    );
    db.collect_stats();
    db
}

/// A scan, an equi-join, a group and a distinct over the nullable
/// extents: the plan shapes the row kernels are chosen for.
fn kernel_shapes(filter: &Pred) -> Vec<Expr> {
    vec![
        Expr::named("N").select(filter.clone()),
        Expr::named("N").rel_join(
            Expr::named("M"),
            Pred::cmp(
                Expr::input().extract("k"),
                CmpOp::Eq,
                Expr::input().extract("j"),
            ),
        ),
        Expr::named("N").group_by(Expr::input().extract("a")),
        Expr::named("N").dup_elim(),
    ]
}

/// Each shape lowered is canon-identical to the naive evaluator; a hash
/// join does no more work of any kind than the nested loop, and every
/// other kernel does exactly its work.
fn check_nullable(left: &[LeftRow], right: &[RightRow], filter: &Pred) {
    let mut db = nullable_db(left, right);
    for plan in kernel_shapes(filter) {
        let naive = db.run_plan(&plan).unwrap();
        let naive_counters = db.last_counters();
        let (physical, _) = db.lower_plan(&plan);
        let lowered = run_lowered(&mut db, &physical);
        assert_eq!(
            canonical_form(&naive, db.store()),
            canonical_form(&lowered, db.store()),
            "{plan} diverged when lowered:\n{}",
            physical.render()
        );
        let hashed = physical
            .choices
            .values()
            .any(|c| matches!(c.op, PhysOp::HashEquiJoin { .. }));
        let lowered_counters = db.last_counters();
        if hashed {
            for ((name, h), (_, n)) in lowered_counters
                .named_fields()
                .iter()
                .zip(naive_counters.named_fields())
            {
                assert!(*h <= n, "{plan}: {name} {h} > {n}");
            }
        } else {
            assert_eq!(naive_counters, lowered_counters, "{plan}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn row_kernels_match_the_naive_evaluator_on_nullable_extents(
        left in arb_left_rows(),
        right in arb_right_rows(),
        filter in arb_filter()
    ) {
        check_nullable(&left, &right, &filter);
    }
}

/// Empty extents run through every kernel shape.
#[test]
fn empty_extents_run_through_all_kernels() {
    let filter = Pred::cmp(Expr::input().extract("a"), CmpOp::Ge, Expr::int(2));
    check_nullable(&[], &[], &filter);
}

/// A key column that is `dne` on every row: the join must run — and
/// count — exactly as the nested loop, whichever kernel the lowering
/// names, and the scan over that column matches too.
#[test]
fn all_dne_key_column_falls_back_to_the_nested_loop() {
    let left: Vec<LeftRow> = (0..8)
        .map(|i| {
            (
                Value::int(i % 3),
                Value::str(format!("s{}", i % 2)),
                Value::Null(Null::Dne),
                (i % 2 + 1) as u64,
            )
        })
        .collect();
    let right: Vec<RightRow> = (0..6)
        .map(|i| (Value::int(i % 3), Value::str("s0"), 1))
        .collect();
    let filter = Pred::cmp(Expr::input().extract("k"), CmpOp::Eq, Expr::int(1));
    check_nullable(&left, &right, &filter);

    let mut db = nullable_db(&left, &right);
    let join = &kernel_shapes(&filter)[1];
    let naive = db.run_plan(join).unwrap();
    let nested = db.last_counters();
    let mut physical = PhysicalPlan::passthrough(join.clone());
    physical.choices.insert(
        Vec::new(),
        excess::algebra::physical::PhysChoice {
            op: PhysOp::HashEquiJoin {
                left_key: "k".into(),
                right_key: "j".into(),
            },
            why: "forced".into(),
            est_rows: None,
        },
    );
    assert_eq!(naive, run_lowered(&mut db, &physical));
    assert_eq!(nested, db.last_counters(), "the guard must refuse dne keys");
}

// ------------------------------------- the fused join-apply's pair reads

/// `SET_APPLY[body](rel_join[pred](L, R))` with the join chosen
/// `HashEquiJoin[k = j]`: the apply over it runs the fused join-apply,
/// reading the body and residual off each in-bucket pair where they have
/// the shape.
fn join_apply(pred: Pred, body: Expr) -> PhysicalPlan {
    let join = hashed_join(pred);
    let mut physical = PhysicalPlan::passthrough(join.logical.set_apply(body));
    let choice = join
        .choices
        .into_values()
        .next()
        .expect("the join's choice");
    physical.choices.insert(vec![0], choice);
    physical
}

/// `rel_join[pred](L, R)` alone, chosen `HashEquiJoin[k = j]`.
fn hashed_join(pred: Pred) -> PhysicalPlan {
    let mut physical = PhysicalPlan::passthrough(Expr::named("L").rel_join(Expr::named("R"), pred));
    physical.choices.insert(
        vec![],
        excess::algebra::physical::PhysChoice {
            op: PhysOp::HashEquiJoin {
                left_key: "k".into(),
                right_key: "j".into(),
            },
            why: "forced".into(),
            est_rows: None,
        },
    );
    physical
}

fn k_eq_j() -> Pred {
    Pred::cmp(
        Expr::input().extract("k"),
        CmpOp::Eq,
        Expr::input().extract("j"),
    )
}

/// `TUP_CAT(TUP[f](TUP_EXTRACT[f](INPUT)), …)`: a projection spelled
/// field by field, as the translator writes a per-group target.
fn spelled(fields: &[&str]) -> Expr {
    fields
        .iter()
        .map(|f| Expr::input().extract(*f).make_tup(*f))
        .reduce(Expr::tup_cat)
        .expect("at least one field")
}

fn pair_db(l: MultiSet, r: MultiSet) -> Database {
    let mut db = Database::new();
    db.optimize = false;
    let any = SchemaType::set(SchemaType::tuple([("k", SchemaType::int4())]));
    db.put_object("L", any.clone(), Value::Set(l));
    db.put_object("R", any, Value::Set(r));
    db
}

/// The lowered plan run fused, untraced and traced, against the naive
/// evaluator and against the join then the apply — the hash-join-only
/// plan, then the apply over its rows: canon-identical values, or the
/// same error text from all four; and on a value, the fused runs'
/// counters are the join's plus the apply's to the last field.
fn check_pair_path(
    what: &str,
    db: &mut Database,
    physical: &PhysicalPlan,
) -> Result<Value, String> {
    let naive = db.run_plan(&physical.logical).map_err(|e| e.to_string());
    let naive = naive.map(|v| canonical_form(&v, db.store()));
    let Expr::SetApply { input, body, .. } = &physical.logical else {
        unreachable!("join_apply builds an apply over its join")
    };
    let Expr::RelJoin { pred, .. } = &**input else {
        unreachable!("join_apply builds an apply over its join")
    };
    let unfused = db
        .run_lowered(&hashed_join(pred.clone()), Tracing::Off)
        .and_then(|join| {
            let apply = Expr::lit(join.value).set_apply((**body).clone());
            let out = db.run_lowered(&PhysicalPlan::passthrough(apply), Tracing::Off)?;
            Ok((out.value, join.counters + out.counters))
        })
        .map(|(v, c)| (canonical_form(&v, db.store()), c))
        .map_err(|e| e.to_string());
    let mut run = |tracing| {
        let out = db.run_lowered(physical, tracing).map_err(|e| e.to_string());
        out.map(|o| (canonical_form(&o.value, db.store()), o.counters))
    };
    let (fused, traced) = (run(Tracing::Off), run(Tracing::Precise));
    match (&naive, &fused, &traced, &unfused) {
        (Ok(naive), Ok((fused, fused_counters)), Ok(traced), Ok((unfused, unfused_counters))) => {
            assert_eq!(naive, fused, "{what}: fused vs naive");
            assert_eq!(naive, unfused, "{what}: unfused vs naive");
            assert_eq!(fused_counters, unfused_counters, "{what}: counters");
            assert_eq!(
                (fused, fused_counters),
                (&traced.0, &traced.1),
                "{what}: traced"
            );
        }
        (Err(naive), Err(fused), Err(traced), Err(unfused)) => {
            assert_eq!(naive, fused, "{what}: fused error");
            assert_eq!(naive, traced, "{what}: traced error");
            assert_eq!(naive, unfused, "{what}: unfused error");
        }
        _ => panic!(
            "{what}: naive {naive:?}, fused {fused:?}, traced {traced:?}, unfused {unfused:?}"
        ),
    }
    naive
}

fn lrow(k: Value, a: Value, s: &str) -> Value {
    Value::tuple([("k", k), ("a", a), ("s", Value::str(s))])
}

fn rrow(j: Value, b: Value, t: &str) -> Value {
    Value::tuple([("j", j), ("b", b), ("t", Value::str(t))])
}

/// Twelve left and twelve right rows over keys 0–3, every third `a` and
/// every fourth `b` `unk`, each left row twice and each right row three
/// times.
fn pair_sides() -> (MultiSet, MultiSet) {
    let (mut l, mut r) = (MultiSet::new(), MultiSet::new());
    for i in 0..12 {
        let a = if i % 3 == 0 {
            Value::unk()
        } else {
            Value::int(i)
        };
        let b = if i % 4 == 0 {
            Value::unk()
        } else {
            Value::int(12 - i)
        };
        l.insert_n(lrow(Value::int(i % 4), a, &format!("s{}", i % 5)), 2);
        r.insert_n(rrow(Value::int(i % 4), b, &format!("t{}", i % 3)), 3);
    }
    (l, r)
}

#[test]
fn pair_reads_match_the_naive_evaluator_and_the_unfused_counters() {
    let a_lt_b = Pred::cmp(
        Expr::input().extract("a"),
        CmpOp::Lt,
        Expr::input().extract("b"),
    );
    let bodies = [
        ("π", Expr::input().project(["s", "b", "t"])),
        ("spelled", spelled(&["t", "a"])),
    ];
    for (shape, body) in bodies {
        let (l, r) = pair_sides();
        let mut db = pair_db(l, r);
        let what = format!("{shape} body, no residual");
        let out = check_pair_path(&what, &mut db, &join_apply(k_eq_j(), body.clone()));
        assert_eq!(out.unwrap().as_set().unwrap().len(), 2 * 3 * 36);
        // `unk` residual rows: the body runs on `unk` (π(unk) = unk; the
        // spelled form's tuple of `unk`s).
        let what = format!("{shape} body, unk residual rows");
        let out = check_pair_path(
            &what,
            &mut db,
            &join_apply(k_eq_j().and(a_lt_b.clone()), body),
        );
        let out = out.unwrap();
        let unk_rows = out.as_set().unwrap().iter_counted();
        assert!(
            unk_rows
                .filter(|(v, _)| v.is_unk() || v.to_string().contains("unk"))
                .count()
                > 0,
            "{what}: {out}"
        );
    }
}

#[test]
fn null_keys_and_empty_sides_leave_the_pair_reads_exact() {
    let body = Expr::input().project(["s", "t"]);
    let (l, r) = pair_sides();
    for (what, key, left) in [
        ("dne left key", Value::dne(), true),
        ("unk right key", Value::unk(), false),
    ] {
        let (mut l, mut r) = (l.clone(), r.clone());
        if left {
            l.insert(lrow(key, Value::int(1), "s9"));
        } else {
            r.insert(rrow(key, Value::int(1), "t9"));
        }
        let mut db = pair_db(l, r);
        check_pair_path(what, &mut db, &join_apply(k_eq_j(), body.clone())).unwrap();
    }
    for (what, l, r) in [
        ("empty right side", l.clone(), MultiSet::new()),
        ("empty left side", MultiSet::new(), r.clone()),
    ] {
        let mut db = pair_db(l, r);
        let out = check_pair_path(what, &mut db, &join_apply(k_eq_j(), body.clone()));
        assert_eq!(out.unwrap(), Value::set([]), "{what}");
    }
}

/// A subtype's tuple extends its supertype's, so rows of one extent carry
/// different fields, and the side a field is read from is chosen per
/// pair: here `x` is on some left rows and on every right row, so a pair
/// reads the left `x` where it has one and the right one (which
/// `TUP_CAT` then names `x`) otherwise.  Where neither side has a
/// projected or compared field, the fused kernel refuses and the unfused
/// plan raises its own error.
#[test]
fn subtype_rows_are_read_per_pair_and_a_missing_field_is_the_unfused_error() {
    let sub = |i: i32| {
        let mut fields = vec![("k", Value::int(i % 4)), ("a", Value::int(i))];
        if i % 2 == 0 {
            fields.push(("x", Value::int(100 + i)));
        }
        Value::tuple(fields)
    };
    let l = MultiSet::from_occurrences((0..10).map(sub));
    let with_x = MultiSet::from_occurrences(
        (0..6).map(|i| Value::tuple([("j", Value::int(i % 4)), ("x", Value::int(-i))])),
    );
    let without_x = MultiSet::from_occurrences(
        (0..6).map(|i| Value::tuple([("j", Value::int(i % 4)), ("b", Value::int(i))])),
    );
    let body = Expr::input().project(["a", "x"]);
    let x_gt_0 = Pred::cmp(Expr::input().extract("x"), CmpOp::Gt, Expr::int(0));

    let mut db = pair_db(l.clone(), with_x);
    let out = check_pair_path(
        "x on either side",
        &mut db,
        &join_apply(k_eq_j(), body.clone()),
    );
    let out = out.unwrap().to_string();
    assert!(out.contains("100") && out.contains("-1"), "{out}");
    let residual = k_eq_j().and(x_gt_0.clone());
    check_pair_path(
        "x compared on either side",
        &mut db,
        &join_apply(residual, body.clone()),
    )
    .unwrap();

    let mut db = pair_db(l, without_x);
    let err = check_pair_path("x on no side", &mut db, &join_apply(k_eq_j(), body.clone()));
    assert!(err.unwrap_err().contains('x'));
    let err = check_pair_path(
        "x compared on no side",
        &mut db,
        &join_apply(k_eq_j().and(x_gt_0), Expr::input().project(["a"])),
    );
    assert!(err.unwrap_err().contains('x'));
}

/// `TUP_CAT` renames a right-hand field that clashes with a left one by
/// appending `'`.  A prime-free name is the left field's whichever side
/// also has it, so the pair read stays exact; a primed name (renamed, or
/// primed in the data) is refused at compile time and the apply runs
/// unfused over the hash join's concatenated rows.
#[test]
fn clashing_and_primed_names_stay_exact() {
    let l = MultiSet::from_occurrences((0..8).map(|i| {
        Value::tuple([
            ("k", Value::int(i % 3)),
            ("v", Value::int(i)),
            ("p'", Value::int(-i)),
        ])
    }));
    let r = MultiSet::from_occurrences(
        (0..6).map(|i| Value::tuple([("j", Value::int(i % 3)), ("v", Value::int(10 * i))])),
    );
    let mut db = pair_db(l, r);
    let v_lt = |c: i32| Pred::cmp(Expr::input().extract("v"), CmpOp::Lt, Expr::int(c));
    for (what, pred, body) in [
        (
            "clash read prime-free",
            k_eq_j(),
            Expr::input().project(["v"]),
        ),
        (
            "clash compared prime-free",
            k_eq_j().and(v_lt(5)),
            spelled(&["v"]),
        ),
        (
            "renamed field",
            k_eq_j(),
            Expr::input().project(["v", "v'"]),
        ),
        ("renamed field spelled", k_eq_j(), spelled(&["v'", "k"])),
        (
            "renamed field compared",
            k_eq_j().and(Pred::cmp(
                Expr::input().extract("v'"),
                CmpOp::Ge,
                Expr::int(20),
            )),
            Expr::input().project(["v"]),
        ),
        (
            "primed in the data",
            k_eq_j(),
            Expr::input().project(["p'", "j"]),
        ),
    ] {
        let out = check_pair_path(what, &mut db, &join_apply(pred, body));
        assert!(!out.unwrap().as_set().unwrap().is_empty(), "{what}");
    }
}

/// A residual of several conjuncts stops at the first `F`, left to right,
/// and charges one comparison per conjunct it evaluated, exactly as the
/// unfused plan's predicate does; a later conjunct that would be an error
/// is never reached where an earlier one is `F`.
#[test]
fn a_multi_conjunct_residual_short_circuits_on_f() {
    let (l, r) = pair_sides();
    let mut db = pair_db(l, r);
    let cmp = |f: &str, op, c: i32| Pred::cmp(Expr::input().extract(f), op, Expr::int(c));
    let residual = k_eq_j()
        .and(cmp("a", CmpOp::Ge, 4))
        .and(Pred::cmp(
            Expr::input().extract("b"),
            CmpOp::Gt,
            Expr::input().extract("a"),
        ))
        .and(cmp("b", CmpOp::Ne, 3));
    let body = Expr::input().project(["a", "b"]);
    check_pair_path(
        "three residual conjuncts",
        &mut db,
        &join_apply(residual, body.clone()),
    )
    .unwrap();
    // `k >= 100` is F on every pair, so `missing` is never extracted;
    // `a >= 100` is `U` on the pairs whose `a` is `unk`, so it is.
    let missing = cmp("missing", CmpOp::Eq, 1);
    let reached = k_eq_j().and(cmp("a", CmpOp::Ge, 100)).and(missing.clone());
    let out = check_pair_path(
        "U before an error",
        &mut db,
        &join_apply(reached, body.clone()),
    );
    assert!(out.unwrap_err().contains("missing"));
    let never = k_eq_j().and(cmp("k", CmpOp::Ge, 100)).and(missing);
    let out = check_pair_path("F before an error", &mut db, &join_apply(never, body));
    assert_eq!(out.unwrap(), Value::set([]));
}

/// The three served joins of the `analytic` workload, optimized and
/// lowered as a session serves them: the fused kernel's counters are the
/// unfused plan's, pinned in [`SERVED_COUNTERS`], and its value is the
/// translated plan's.
#[test]
fn served_joins_read_pairs_with_the_unfused_counters() {
    let mut db = excess_bench::server_mix::server_mix_db(120);
    let mut joins = 0;
    for (i, line) in common::served_mix_requests().into_iter().enumerate() {
        if !line.contains("range of E") {
            continue;
        }
        let plan = common::plan_of(&mut db, line);
        let (physical, _) = db.lower_plan(&db.optimize_plan(&plan));
        let naive = db.run_plan(&plan).unwrap();
        let naive = canonical_form(&naive, db.store());
        let fused = db.run_lowered(&physical, Tracing::Off).unwrap();
        assert_eq!(naive, canonical_form(&fused.value, db.store()), "{line}");
        assert_eq!(fused.counters.to_string(), SERVED_COUNTERS[i].1, "{line}");
        joins += 1;
    }
    assert_eq!(joins, 3);
}

// ------------------------------------------------- borrowed path reads

/// What each `check_borrowed` case answered when every node was still
/// evaluated as itself (no path read in place), pinned: `Ok <value> ||
/// <counters>` or `Err <error text>`.  Borrowed reads must leave all
/// three as they were.
const BORROWED_PINS: &[(&str, &str)] = &[
    (
        "COMP over a nullable field",
        "Ok { \"s11\", \"s4\", \"s7\", \"s8\", unk, unk, unk } || scans=12 arr=0 derefs=0 de_in=0 cmps=12 mints=0 obj_scans=1 pairs=0",
    ),
    (
        "nullable field as COMP input",
        "Ok { 4, 7, 8, 11, unk, unk, unk } || scans=12 arr=0 derefs=0 de_in=0 cmps=12 mints=0 obj_scans=1 pairs=0",
    ),
    (
        "a path through a null",
        "Ok { unk, unk, unk, unk, unk, unk } || scans=12 arr=0 derefs=0 de_in=0 cmps=0 mints=0 obj_scans=1 pairs=0",
    ),
    (
        "π over a path through a null",
        "Ok { unk, unk, unk, unk, unk, unk } || scans=12 arr=0 derefs=0 de_in=0 cmps=0 mints=0 obj_scans=1 pairs=0",
    ),
    (
        "null compared with null",
        "Ok { 0, 0, 1, 2, 3, 3, unk, unk, unk } || scans=12 arr=0 derefs=0 de_in=0 cmps=12 mints=0 obj_scans=1 pairs=0",
    ),
    (
        "predicate reads the COMP binding",
        "Ok { (floor: 0, dname: \"d0\"), (floor: 0, dname: \"d0\"), (floor: 0, dname: \"d0\"), (floor: 1, dname: \"d1\"), (floor: 1, dname: \"d1\"), (floor: 1, dname: \"d1\") } || scans=12 arr=0 derefs=12 de_in=0 cmps=12 mints=0 obj_scans=1 pairs=0",
    ),
    (
        "own binding, input raises",
        "Err tuple has no field `d`",
    ),
    (
        "∧ stops at F",
        "Ok {  } || scans=12 arr=0 derefs=0 de_in=0 cmps=12 mints=0 obj_scans=1 pairs=0",
    ),
    (
        "∧ reaches the error",
        "Err tuple has no field `missing`",
    ),
    (
        "π input",
        "Ok { (s: \"s1\", k: 1), (s: \"s5\", k: 1), (s: \"s9\", k: 1) } || scans=12 arr=0 derefs=0 de_in=0 cmps=12 mints=0 obj_scans=1 pairs=0",
    ),
    (
        "TUP input",
        "Ok { (name: \"s1\"), (name: \"s5\"), (name: \"s9\") } || scans=12 arr=0 derefs=0 de_in=0 cmps=12 mints=0 obj_scans=1 pairs=0",
    ),
    (
        "computed comparison operand",
        "Ok { 2, 2, 2 } || scans=12 arr=0 derefs=0 de_in=0 cmps=12 mints=0 obj_scans=1 pairs=0",
    ),
    (
        "path compared with a computed operand",
        "Ok {  } || scans=12 arr=0 derefs=12 de_in=0 cmps=12 mints=0 obj_scans=1 pairs=0",
    ),
    (
        "missing input field, predicate F",
        "Err tuple has no field `s`",
    ),
    (
        "missing input and predicate fields",
        "Err tuple has no field `s`",
    ),
    (
        "missing predicate field",
        "Err tuple has no field `s`",
    ),
    (
        "missing field read",
        "Err tuple has no field `s`",
    ),
    (
        "resolving refs",
        "Ok { \"d1\", \"d1\", \"d1\" } || scans=12 arr=0 derefs=24 de_in=0 cmps=12 mints=0 obj_scans=1 pairs=0",
    ),
    (
        "dangling ref in the predicate",
        "Err dangling OID @ty0#3",
    ),
    (
        "dangling ref in the input",
        "Err dangling OID @ty0#3",
    ),
    (
        "dangling ref projected",
        "Err dangling OID @ty0#3",
    ),
    (
        "non-tuple COMP input",
        "Err TUP_EXTRACT: expected tuple, found scalar",
    ),
    (
        "non-tuple π",
        "Err π: expected tuple, found scalar",
    ),
    (
        "DEREF of a non-ref",
        "Err DEREF: expected ref, found scalar",
    ),
    (
        "both operands raise",
        "Err tuple has no field `missing`",
    ),
];

/// A plan run untraced and traced — both reading `TUP_EXTRACT`/`DEREF`
/// paths where they lie, and copying a path `COMP` input its predicate
/// never reads only for a row it keeps: equal values and counters, or
/// equal errors, and the answer [`BORROWED_PINS`] holds for `what`.
fn check_borrowed(what: &str, db: &mut Database, plan: &Expr) -> Result<Value, String> {
    let physical = PhysicalPlan::passthrough(plan.clone());
    let mut run = |tracing| {
        db.run_lowered(&physical, tracing)
            .map(|o| (o.value, o.counters))
            .map_err(|e| e.to_string())
    };
    let out = match (run(Tracing::Off), run(Tracing::Precise)) {
        (Ok((value, counters)), Ok((traced, traced_counters))) => {
            assert_eq!(value, traced, "{what}: value");
            assert_eq!(counters, traced_counters, "{what}: counters");
            Ok((value, counters))
        }
        (Err(plain), Err(traced)) => {
            assert_eq!(plain, traced, "{what}: error");
            Err(plain)
        }
        (plain, traced) => panic!("{what}: untraced {plain:?}, traced {traced:?}"),
    };
    let answered = match &out {
        Ok((value, counters)) => format!("Ok {value} || {counters}"),
        Err(e) => format!("Err {e}"),
    };
    let pinned = BORROWED_PINS
        .iter()
        .find(|(case, _)| *case == what)
        .unwrap_or_else(|| panic!("{what}: no pinned answer"));
    assert_eq!(answered, pinned.1, "{what}");
    out.map(|(value, _)| value)
}

/// `Rows`: twelve tuples `(k, s, a, d, n)` with `k` in 0–3, every third
/// `a` `unk` and every fifth `dne`, `d` a ref to one of four `Dept`
/// objects `(floor, dname)` and `n` alternately `dne` and `unk`, plus
/// `extra`.  With `dangling`, the floor-3 `Dept` is deleted, so the rows
/// with `k = 3` hold a dangling ref.
fn path_db(extra: &[Value], dangling: bool) -> Database {
    let mut db = Database::new();
    db.optimize = false;
    db.execute("define type Dept: (floor: int4, dname: char[])")
        .unwrap();
    let ty = db.registry().lookup("Dept").unwrap();
    let depts: Vec<_> = (0..4)
        .map(|f| {
            let dept = Value::tuple([
                ("floor", Value::int(f)),
                ("dname", Value::str(format!("d{f}"))),
            ]);
            db.store_mut().create_unchecked(ty, dept)
        })
        .collect();
    if dangling {
        db.store_mut().delete(depts[3]).unwrap();
    }
    let row = |i: i32| {
        let a = match i {
            _ if i % 5 == 0 => Value::dne(),
            _ if i % 3 == 0 => Value::unk(),
            _ => Value::int(i),
        };
        let n = if i % 2 == 0 {
            Value::dne()
        } else {
            Value::unk()
        };
        Value::tuple([
            ("k", Value::int(i % 4)),
            ("s", Value::str(format!("s{i}"))),
            ("a", a),
            ("d", Value::Ref(depts[(i % 4) as usize])),
            ("n", n),
        ])
    };
    let rows = (0..12).map(row).chain(extra.iter().cloned());
    let any = SchemaType::set(SchemaType::tuple([("k", SchemaType::int4())]));
    db.put_object("Rows", any, Value::set(rows));
    db
}

/// `SET_APPLY[COMP[pred](input)](Rows)`: the selection shape a served
/// `retrieve … where …` optimizes to, `pred` reading the row as `INPUT^1`.
fn selection(input: Expr, pred: Pred) -> Expr {
    Expr::named("Rows").set_apply(input.comp(pred))
}

fn row_field(f: &str) -> Expr {
    Expr::input_at(1).extract(f)
}

fn floor_of_row() -> Expr {
    Expr::input_at(1).extract("d").deref().extract("floor")
}

/// The `Counters` of each of the 14 served kinds, optimized and lowered
/// as a session serves them (`server_mix_db(120)`, then the university at
/// seed 1), pinned from the evaluator that ran every node as itself and
/// every fused apply as the join then the apply.  `query_workload`'s
/// `derefs` (4 880 before rule A2) count one read of each salary.
const SERVED_COUNTERS: [(&str, &str); 14] = [
    (
        "f6_join_group_unique",
        "scans=210 arr=0 derefs=0 de_in=190 cmps=0 mints=0 obj_scans=2 pairs=0",
    ),
    (
        "f7_unique_by_dept",
        "scans=370 arr=0 derefs=0 de_in=120 cmps=0 mints=0 obj_scans=1 pairs=0",
    ),
    (
        "f8_selective_probe",
        "scans=120 arr=0 derefs=0 de_in=0 cmps=120 mints=0 obj_scans=1 pairs=0",
    ),
    (
        "f9_deref_group",
        "scans=162 arr=0 derefs=140 de_in=0 cmps=120 mints=0 obj_scans=1 pairs=0",
    ),
    (
        "f10_deref_select",
        "scans=120 arr=0 derefs=120 de_in=0 cmps=120 mints=0 obj_scans=1 pairs=0",
    ),
    (
        "f11_deref_pair",
        "scans=120 arr=0 derefs=240 de_in=120 cmps=0 mints=0 obj_scans=1 pairs=0",
    ),
    (
        "join_project",
        "scans=1440 arr=0 derefs=0 de_in=0 cmps=0 mints=0 obj_scans=2 pairs=0",
    ),
    (
        "join_agg",
        "scans=289 arr=0 derefs=0 de_in=229 cmps=60 mints=0 obj_scans=2 pairs=0",
    ),
    (
        "e1_salary_probe",
        "scans=60 arr=0 derefs=0 de_in=0 cmps=60 mints=0 obj_scans=1 pairs=0",
    ),
    (
        "section2_kids",
        "scans=600 arr=0 derefs=1000 de_in=0 cmps=400 mints=0 obj_scans=1 pairs=0",
    ),
    (
        "figure3",
        "scans=0 arr=0 derefs=2 de_in=0 cmps=0 mints=0 obj_scans=2 pairs=0",
    ),
    (
        "figure4",
        "scans=200 arr=0 derefs=600 de_in=0 cmps=200 mints=0 obj_scans=1 pairs=0",
    ),
    (
        "query_boss",
        "scans=300 arr=0 derefs=199 de_in=0 cmps=0 mints=0 obj_scans=1 pairs=0",
    ),
    (
        "query_workload",
        "scans=2690 arr=0 derefs=2490 de_in=0 cmps=2390 mints=0 obj_scans=1 pairs=0",
    ),
];

/// Traced and untraced, every served kind, optimized and lowered as a
/// session serves it, answers the same value with the pinned counters;
/// the traced profile telescopes over nodes of the plan, has a node at
/// every kernel choice that is more than a pass-through, and none below a
/// child its parent reads in place.
#[test]
fn borrowed_reads_match_the_pinned_counters_on_every_served_kind() {
    let university = common::served_university(&UniversityParams {
        seed: 1,
        ..UniversityParams::default()
    });
    let mut pins = SERVED_COUNTERS.iter();
    let mut in_place_under_a_frame = 0;
    for (mut db, lines) in [
        (
            excess_bench::server_mix::server_mix_db(120),
            common::served_mix_requests(),
        ),
        (university, common::SERVED_UNIVERSITY_REQUESTS.to_vec()),
    ] {
        for line in lines {
            let (kind, pinned) = pins.next().expect("a pin per served kind");
            let plan = common::plan_of(&mut db, line);
            let (physical, _) = db.lower_plan(&db.optimize_plan(&plan));
            let plain = db.run_lowered(&physical, Tracing::Off).unwrap();
            let traced = db.run_lowered(&physical, Tracing::Precise).unwrap();
            assert_eq!(plain.value, traced.value, "{kind}: {line}");
            assert_eq!(plain.counters, traced.counters, "{kind}: {line}");
            assert_eq!(plain.counters.to_string(), *pinned, "{kind}: {line}");
            let profile = traced.profile.expect("tracing was enabled");
            assert_eq!(profile.sum_of_self_counters(), profile.total, "{kind}");
            assert_eq!(profile.total, traced.counters, "{kind}");
            for n in &profile.nodes {
                let node = physical.node_at(&n.path);
                let label = node.map(excess::algebra::render::op_label);
                assert_eq!(label.as_deref(), Some(n.label.as_str()), "{kind}");
                for (k, &i) in n.path.iter().enumerate() {
                    let parent = physical.node_at(&n.path[..k]).expect("a plan path");
                    assert!(!reads_in_place(parent, i), "{kind}: {:?}", n.path);
                }
                let node = node.expect("a plan path");
                in_place_under_a_frame += (0..node.children().len())
                    .filter(|&i| reads_in_place(node, i))
                    .count();
            }
            for (path, choice) in &physical.choices {
                if !matches!(choice.op, PhysOp::PassThrough) {
                    assert!(profile.node(path).is_some(), "{kind}: {path:?}");
                }
            }
        }
    }
    assert!(pins.next().is_none(), "every pinned kind was served");
    assert!(
        in_place_under_a_frame > 0,
        "some served node reads in place"
    );
}

/// Null fields read through a path: a `dne`/`unk` operand compares `F`/`U`,
/// a path through a null is that null, and `COMP` keeps, drops or `unk`s
/// the row as the predicate says.
#[test]
fn borrowed_reads_carry_dne_and_unk_fields() {
    let mut db = path_db(&[], false);
    let a_gt_2 = Pred::cmp(row_field("a"), CmpOp::Gt, Expr::int(2));
    let out = check_borrowed(
        "COMP over a nullable field",
        &mut db,
        &selection(Expr::input().extract("s"), a_gt_2.clone()),
    )
    .unwrap();
    assert!(out.to_string().contains("unk"), "{out}");
    for (what, plan) in [
        (
            "nullable field as COMP input",
            selection(Expr::input().extract("a"), a_gt_2),
        ),
        (
            "a path through a null",
            Expr::named("Rows").set_apply(Expr::input().extract("n").extract("x")),
        ),
        (
            "π over a path through a null",
            Expr::named("Rows").set_apply(Expr::input().extract("n").deref().project(["x"])),
        ),
        (
            "null compared with null",
            selection(
                Expr::input().extract("k"),
                Pred::cmp(row_field("a"), CmpOp::Eq, row_field("a")),
            ),
        ),
    ] {
        check_borrowed(what, &mut db, &plan).unwrap();
    }
}

/// A row without the `COMP` input's field raises `NoSuchField` even where
/// the predicate would reject the row: the input is resolved first.
#[test]
fn borrowed_reads_raise_a_missing_field_before_the_predicate_rejects() {
    let mut db = path_db(&[Value::tuple([("k", Value::int(7))])], false);
    let never = Pred::cmp(row_field("k"), CmpOp::Gt, Expr::int(100));
    let err = check_borrowed(
        "missing input field, predicate F",
        &mut db,
        &selection(Expr::input().extract("s"), never.clone()),
    );
    assert!(err.unwrap_err().contains('s'));
    let err = check_borrowed(
        "missing predicate field",
        &mut db,
        &selection(
            Expr::input().extract("k"),
            Pred::cmp(row_field("s"), CmpOp::Eq, Expr::str("s1")),
        ),
    );
    assert!(err.unwrap_err().contains('s'));
    // On the row where the input and the predicate both raise, the
    // input's error wins.
    let err = check_borrowed(
        "missing input and predicate fields",
        &mut db,
        &selection(
            Expr::input().extract("s"),
            Pred::cmp(floor_of_row(), CmpOp::Eq, Expr::int(1)),
        ),
    );
    assert!(err.unwrap_err().contains("`s`"));
    // Projected, or extracted outside a `COMP`: the same error.
    for plan in [
        Expr::named("Rows").set_apply(Expr::input().project(["k", "s"])),
        Expr::named("Rows").set_apply(Expr::input().extract("s")),
    ] {
        check_borrowed("missing field read", &mut db, &plan).unwrap_err();
    }
}

/// A non-tuple element: `TUP_EXTRACT` and `π` raise their sort errors,
/// and so does `DEREF` on a non-ref field.
#[test]
fn borrowed_reads_raise_sort_mismatches() {
    let mut db = path_db(&[Value::int(5)], false);
    let keep = Pred::cmp(row_field("k"), CmpOp::Ge, Expr::int(0));
    for (what, plan) in [
        (
            "non-tuple COMP input",
            selection(Expr::input().extract("s"), keep.clone()),
        ),
        (
            "non-tuple π",
            Expr::named("Rows").set_apply(Expr::input().project(["s"])),
        ),
    ] {
        let err = check_borrowed(what, &mut db, &plan).unwrap_err();
        assert!(err.contains("tuple"), "{what}: {err}");
    }
    let mut db = path_db(&[], false);
    let err = check_borrowed(
        "DEREF of a non-ref",
        &mut db,
        &Expr::named("Rows").set_apply(Expr::input().extract("s").deref()),
    )
    .unwrap_err();
    assert!(err.contains("ref"), "{err}");
    // Both operands of a comparison raise: the left one's error.
    let both = Pred::cmp(row_field("missing"), CmpOp::Eq, row_field("s").extract("x"));
    let err = check_borrowed(
        "both operands raise",
        &mut db,
        &selection(Expr::input().extract("k"), both),
    )
    .unwrap_err();
    assert!(err.contains("missing"), "{err}");
}

/// A dangling ref raises `DanglingOid` from a predicate's path and from a
/// `COMP` input's path alike; the refs that resolve charge one `derefs`
/// each either way.
#[test]
fn borrowed_reads_raise_dangling_refs_in_predicates_and_inputs() {
    let on_floor = |f: i32| Pred::cmp(floor_of_row(), CmpOp::Eq, Expr::int(f));
    let dname = || Expr::input().extract("d").deref().extract("dname");
    let mut db = path_db(&[], false);
    let out = check_borrowed("resolving refs", &mut db, &selection(dname(), on_floor(1))).unwrap();
    assert_eq!(out.as_set().unwrap().len(), 3);
    assert_eq!(
        db.last_counters().derefs,
        12 + 12,
        "input and predicate, per row"
    );

    let mut db = path_db(&[], true);
    for (what, plan) in [
        (
            "dangling ref in the predicate",
            selection(Expr::input().extract("s"), on_floor(1)),
        ),
        (
            "dangling ref in the input",
            selection(
                dname(),
                Pred::cmp(row_field("k"), CmpOp::Eq, Expr::int(100)),
            ),
        ),
        (
            "dangling ref projected",
            Expr::named("Rows").set_apply(Expr::input().extract("d").deref().project(["floor"])),
        ),
    ] {
        let err = check_borrowed(what, &mut db, &plan).unwrap_err();
        assert!(err.to_lowercase().contains("dangling"), "{what}: {err}");
    }
}

/// A copy-on-keep `COMP` reads its input once, after its predicate, and
/// still raises the input's error first: a row whose input read fails is
/// charged what reading the input first charged — the `DEREF` that
/// failed, and none of the predicate's comparisons.
#[test]
fn borrowed_reads_charge_a_failed_input_as_if_read_first() {
    let dname = Expr::input().extract("d").deref().extract("dname");
    let k_below_3 = Pred::cmp(row_field("k"), CmpOp::Lt, Expr::int(3));
    let mut db = path_db(&[], true);
    let err = db.run_plan(&selection(dname, k_below_3)).unwrap_err();
    assert!(err.to_string().contains("dangling"), "{err}");
    assert_eq!(
        db.last_counters().to_string(),
        "scans=10 arr=0 derefs=10 de_in=0 cmps=9 mints=0 obj_scans=1 pairs=0"
    );
}

/// A predicate that reads `COMP`'s own binding (`INPUT`), a short-circuit
/// `∧` whose right conjunct would raise, and a `COMP` whose input is not a
/// path all keep the evaluator's order.
#[test]
fn borrowed_reads_keep_own_binding_short_circuit_and_non_path_inputs() {
    let own = Pred::cmp(Expr::input().extract("floor"), CmpOp::Lt, Expr::int(2));
    let own_floor = Expr::named("Rows").set_apply(Expr::input().extract("d").deref().comp(own));
    let mut db = path_db(&[], false);
    let out = check_borrowed("predicate reads the COMP binding", &mut db, &own_floor);
    assert_eq!(out.unwrap().as_set().unwrap().len(), 6, "floors 0 and 1");
    let mut k_only = path_db(&[Value::tuple([("k", Value::int(3))])], false);
    let out = check_borrowed("own binding, input raises", &mut k_only, &own_floor);
    assert!(out.unwrap_err().contains('d'), "the k-only row has no d");
    let missing = Pred::cmp(row_field("missing"), CmpOp::Eq, Expr::int(1));
    let f_first = Pred::cmp(row_field("k"), CmpOp::Gt, Expr::int(100)).and(missing.clone());
    let out = check_borrowed(
        "∧ stops at F",
        &mut db,
        &selection(Expr::input().extract("s"), f_first),
    );
    assert_eq!(out.unwrap(), Value::set([]));
    let reached = Pred::cmp(row_field("k"), CmpOp::Lt, Expr::int(100)).and(missing);
    let out = check_borrowed(
        "∧ reaches the error",
        &mut db,
        &selection(Expr::input().extract("s"), reached),
    );
    assert!(out.unwrap_err().contains("missing"));
    let k_is_1 = Pred::cmp(row_field("k"), CmpOp::Eq, Expr::int(1));
    for (what, input) in [
        ("π input", Expr::input().project(["s", "k"])),
        ("TUP input", Expr::input().extract("s").make_tup("name")),
        (
            "computed comparison operand",
            Expr::call(Func::Add, vec![Expr::input().extract("k"), Expr::int(1)]),
        ),
    ] {
        let out = check_borrowed(what, &mut db, &selection(input, k_is_1.clone())).unwrap();
        assert_eq!(out.as_set().unwrap().len(), 3, "{what}");
    }
    let computed = Pred::cmp(
        Expr::call(Func::Add, vec![row_field("k"), Expr::int(1)]),
        CmpOp::Eq,
        floor_of_row(),
    );
    check_borrowed(
        "path compared with a computed operand",
        &mut db,
        &selection(Expr::input().extract("s"), computed),
    )
    .unwrap();
}
