//! The partition-parallel engine's core promise, checked end to end:
//! for every plan, `canon(parallel) == canon(serial)` — regardless of
//! worker count, partition count, data skew, or which partitioning
//! strategy (chunk, hash, broadcast, exchange) the engine picks.
//!
//! Coverage:
//! * the shared `common::seeds()` rewrite battery (every rule family,
//!   all 23 primitive operators reachable from plans) under partition
//!   counts {1, 2, 3, 7};
//! * an explicit per-operator battery for the operators the seed plans
//!   exercise only incidentally (Diff/∩/∪, the array algebra, COMP,
//!   relational joins);
//! * the Example 1 / Example 2 figure plans (F6–F11) through the
//!   `Database` API;
//! * skew (all occurrences hash to one partition) and empty partitions;
//! * a *negative* test: order-sensitive array operators must journal a
//!   serial fallback and preserve exact element order;
//! * a proptest over random multiset pipelines.

mod common;

use excess::algebra::canon::equal_modulo_identity;
use excess::algebra::expr::{Bound, CmpOp, Expr, Func, Pred};
use excess::algebra::physical::PhysOp;
use excess::db::{Database, ExecConfig, ExecReport, Tracing};
use excess::exec::{ExecEvent, Strategy as ExecStrategy};
use excess::types::{SchemaType, Value};
use excess_bench::example1::{example1_db, figure6, figure7, figure8};
use excess_bench::example2::{example2_db, figure10, figure11, figure9};
use proptest::prelude::*;

/// [`common::run_unlowered`] without profiling: the value and the
/// execution journal.
fn run_unlowered(db: &mut Database, plan: &Expr) -> (Value, ExecReport) {
    let ran = common::run_unlowered(db, plan, Tracing::Off);
    (ran.value, ran.report)
}

/// Run `plan` with the naive evaluator on one fresh database and lowered,
/// in parallel (under `cfg`), on another, and assert the results are
/// equal modulo object identity.  Separate databases keep minted OIDs
/// from one run out of the other's store.
fn assert_equivalent(make_db: impl Fn() -> Database, plan: &Expr, cfg: ExecConfig) {
    let mut serial_db = make_db();
    let serial = serial_db.run_plan(plan).unwrap();
    let mut par_db = make_db();
    par_db.set_exec_config(cfg);
    let (lowered, _) = par_db.lower_plan(plan);
    let parallel = par_db.run_lowered(&lowered, Tracing::Off).unwrap().value;
    assert!(
        equal_modulo_identity(&serial, serial_db.store(), &parallel, par_db.store()),
        "plan {plan} diverged under {cfg:?}:\n  serial:   {serial}\n  parallel: {parallel}"
    );
}

#[test]
fn seed_battery_matches_serial_across_partition_counts() {
    for partitions in [1usize, 2, 3, 7] {
        let cfg = ExecConfig {
            workers: 3,
            partitions,
        };
        for plan in common::seeds() {
            assert_equivalent(common::database, &plan, cfg);
        }
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
        Expr::named("OneTup").comp(Pred::cmp(
            Expr::input().extract("x"),
            CmpOp::Lt,
            Expr::int(9),
        )),
        s().rel_cross(t()),
        // Equi-join: hash-key exchange territory.
        s().rel_join(
            t(),
            Pred::cmp(
                Expr::input().extract("name"),
                CmpOp::Eq,
                Expr::input().extract("name"),
            ),
        ),
        // Non-equi join: broadcast territory.
        s().rel_join(
            t(),
            Pred::cmp(
                Expr::input().extract("grp"),
                CmpOp::Lt,
                Expr::input().extract("grp"),
            ),
        ),
        // GRP with a computed key.
        s().group_by(Expr::input().extract("name")),
    ]
}

#[test]
fn operator_battery_matches_serial() {
    for workers in [2usize, 4] {
        let cfg = ExecConfig::with_workers(workers);
        for plan in operator_battery() {
            assert_equivalent(common::database, &plan, cfg);
        }
    }
}

#[test]
fn figure_plans_match_serial_through_database_api() {
    let cfg = ExecConfig::with_workers(4);
    let ex1 = || example1_db(48, 32, 8);
    for plan in [figure6(), figure7(), figure8()] {
        assert_equivalent(ex1, &plan, cfg);
    }
    let ex2 = || example2_db(120, 8, 4);
    for plan in [figure9(), figure10(), figure11()] {
        assert_equivalent(ex2, &plan, cfg);
    }
    // And the engine actually parallelised something on the figure pair.
    let mut db = ex1();
    db.set_exec_config(cfg);
    let (_, report) = run_unlowered(&mut db, &figure8());
    assert!(
        report.parallel_nodes() > 0,
        "figure 8 should parallelise, events: {:?}",
        report.events
    );
    assert_eq!(report.worker_stats.len(), 4);
}

#[test]
fn skewed_data_still_matches_and_reports_empty_partitions() {
    // Every tuple has the same `name`, so the GRP exchange hashes all
    // occurrences into one key partition: maximal skew.
    let make_db =
        || {
            let mut db = Database::new();
            db.optimize = false;
            db.put_object(
                "Skewed",
                SchemaType::set(SchemaType::tuple([
                    ("name", SchemaType::chars()),
                    ("v", SchemaType::int4()),
                ])),
                Value::set((0..40).map(|i| {
                    Value::tuple([("name", Value::str("same")), ("v", Value::int(i % 5))])
                })),
            );
            db
        };
    let plan = Expr::named("Skewed").group_by(Expr::input().extract("name"));
    let cfg = ExecConfig::with_workers(4);
    assert_equivalent(make_db, &plan, cfg);

    let mut db = make_db();
    db.set_exec_config(cfg);
    let (_, report) = run_unlowered(&mut db, &plan);
    let exchange_empty = report
        .events
        .iter()
        .any(|e| matches!(e, ExecEvent::Exchange { empty, .. } if *empty == 3));
    assert!(
        exchange_empty,
        "one key means 3 of 4 exchange partitions are empty: {:?}",
        report.events
    );
    assert!(
        report.skew().unwrap() > 1.0 + 1e-9,
        "all occurrences on one worker is maximal skew"
    );
}

#[test]
fn order_sensitive_array_operators_fall_back_serially_and_keep_order() {
    // ARR_APPLY's output order is its input order; a chunked parallel
    // run that merged out of order would be *wrong*, not just different.
    // The engine must journal a serial fallback and return the exact
    // serial array (element-for-element, not just canon-equal).
    let plan = Expr::named("Arr")
        .arr_apply(Expr::call(Func::Mul, vec![Expr::input(), Expr::int(10)]))
        .arr_cat(Expr::named("ArrB"));
    let mut serial_db = common::database();
    let serial = serial_db.run_plan(&plan).unwrap();

    let mut db = common::database();
    db.set_exec_config(ExecConfig::with_workers(4));
    let (parallel, report) = run_unlowered(&mut db, &plan);
    assert_eq!(
        serial, parallel,
        "array results must be exactly equal, order included"
    );
    let order_fallback = report.events.iter().any(|e| {
        matches!(e, ExecEvent::SerialFallback { reason, .. } if reason.contains("order-sensitive"))
    });
    assert!(
        order_fallback,
        "ARR_APPLY must journal an order-sensitivity fallback: {:?}",
        report.events
    );
    assert!(
        !report
            .events
            .iter()
            .any(|e| matches!(e, ExecEvent::Parallel { op, .. } if op.starts_with("ARR"))),
        "no array operator may run partitioned: {:?}",
        report.events
    );
}

#[test]
fn equi_join_exchange_fires_and_matches() {
    // Diverse keys → the hash-key exchange splits both sides.
    let make_db = || {
        let mut db = Database::new();
        db.optimize = false;
        db.put_object(
            "L",
            SchemaType::set(SchemaType::tuple([
                ("k", SchemaType::int4()),
                ("a", SchemaType::int4()),
            ])),
            Value::set(
                (0..30).map(|i| Value::tuple([("k", Value::int(i % 10)), ("a", Value::int(i))])),
            ),
        );
        db.put_object(
            "R",
            SchemaType::set(SchemaType::tuple([
                ("j", SchemaType::int4()),
                ("b", SchemaType::int4()),
            ])),
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
    let cfg = ExecConfig::with_workers(4);
    assert_equivalent(make_db, &plan, cfg);

    let mut serial_db = make_db();
    serial_db.run_plan(&plan).unwrap();
    let serial_cmps = serial_db.last_counters().comparisons;

    // The exchange is the lowering's choice: with collected statistics
    // it picks the hash kernel, and the driver partitions by its keys.
    let mut db = make_db();
    db.set_exec_config(cfg);
    db.analyze();
    let (lowered, _) = db.lower_plan(&plan);
    assert!(
        matches!(
            lowered.choices.get(&Vec::new()).map(|c| &c.op),
            Some(PhysOp::HashEquiJoin { left_key, right_key }) if left_key == "k" && right_key == "j"
        ),
        "lowering should pick the hash kernel:\n{}",
        lowered.render()
    );
    let report = db.run_lowered(&lowered, Tracing::Off).unwrap().report;
    assert!(
        report
            .events
            .iter()
            .any(|e| matches!(e, ExecEvent::Exchange { keys, .. } if keys == "k = j")),
        "diverse equi-join keys should trigger the exchange: {:?}",
        report.events
    );
    // The exchange only ever *prunes* comparisons: pairs in different
    // key partitions were definite serial mismatches.
    assert!(
        db.last_counters().comparisons <= serial_cmps,
        "exchange did more comparisons ({}) than serial ({serial_cmps})",
        db.last_counters().comparisons
    );
}

#[test]
fn chunk_and_hash_strategies_preserve_exact_counters() {
    // For chunk- and hash-partitioned single-input operators the engine
    // promises counter-exactness, not just value equality.
    let plans = [
        Expr::named("S").select(common::grp_pred()),
        Expr::named("S").set_apply(Expr::input().extract("name")),
        Expr::named("S").dup_elim(),
        Expr::named("S").add_union(Expr::named("T")),
    ];
    for plan in plans {
        let mut serial_db = common::database();
        serial_db.run_plan(&plan).unwrap();
        let serial_counters = serial_db.last_counters();

        let mut db = common::database();
        db.set_exec_config(ExecConfig::with_workers(3));
        let (_, report) = run_unlowered(&mut db, &plan);
        assert_eq!(
            db.last_counters(),
            serial_counters,
            "counters diverged for {plan}"
        );
        assert!(report.parallel_nodes() > 0, "{plan} should parallelise");
        assert!(report.events.iter().all(|e| !matches!(
            e,
            ExecEvent::Parallel {
                strategy: ExecStrategy::BroadcastRight,
                ..
            }
        )));
    }
}

// ----- randomised pipelines -----

/// One stage of a random multiset pipeline (a trimmed-down version of
/// `property_pipelines`' generator: the multiset operators the engine
/// partitions).
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

fn build(stages: &[Stage]) -> Expr {
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
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_pipelines_match_serial(
        stages in prop::collection::vec(arb_stage(), 0..6),
        a in prop::collection::vec(-5i32..10, 0..12),
        b in prop::collection::vec(-5i32..10, 0..8),
        workers in 2usize..5
    ) {
        let plan = build(&stages);
        let mut db = num_db(&a, &b);
        let serial = db.run_plan(&plan).unwrap();
        db.set_exec_config(ExecConfig::with_workers(workers));
        let parallel = run_unlowered(&mut db, &plan).0;
        prop_assert_eq!(
            &serial, &parallel,
            "pipeline {} diverged with {} workers", plan, workers
        );
        prop_assert_eq!(db.last_counters(), {
            let mut check = num_db(&a, &b);
            check.run_plan(&plan).unwrap();
            check.last_counters()
        }, "counters diverged for {}", plan);
    }
}
