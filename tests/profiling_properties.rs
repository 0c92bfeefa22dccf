//! Randomised properties of the per-operator profiler over generated
//! multiset pipelines:
//!
//! 1. **Exact attribution** — the per-node *self* counter deltas sum to
//!    exactly the global counters of the run (the telescoping invariant),
//!    and the profile's recorded total matches the evaluator's counters;
//! 2. **Observation is free of side effects** — running with profiling
//!    enabled returns the same value and the same global counters as
//!    running without it.
//!
//! Both also hold for lowered plans on the fixture database, whose
//! kernels choose their own frames.

mod common;

use excess::algebra::expr::{CmpOp, Expr, Func, Pred};
use excess::algebra::physical::PhysicalPlan;
use excess::algebra::profile::Profile;
use excess::db::{Database, Tracing};
use excess::types::{SchemaType, Value};
use proptest::prelude::*;

/// One pipeline stage over a multiset of ints (a compact version of the
/// generator in `property_pipelines.rs`).
#[derive(Debug, Clone)]
enum Stage {
    DupElim,
    SelectGe(i32),
    MapAdd(i32),
    MapWrapSetAndCollapse,
    DiffB,
    AddUnionB,
    CrossCountB,
    GroupModAndFlatten(i32),
}

fn arb_stage() -> impl Strategy<Value = Stage> {
    prop_oneof![
        Just(Stage::DupElim),
        (-4i32..8).prop_map(Stage::SelectGe),
        (-3i32..4).prop_map(Stage::MapAdd),
        Just(Stage::MapWrapSetAndCollapse),
        Just(Stage::DiffB),
        Just(Stage::AddUnionB),
        Just(Stage::CrossCountB),
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
            Stage::MapWrapSetAndCollapse => {
                e = e.set_apply(Expr::input().make_set()).set_collapse();
            }
            Stage::DiffB => e = e.diff(Expr::named("NumsB")),
            Stage::AddUnionB => e = e.add_union(Expr::named("NumsB")),
            Stage::CrossCountB => {
                // Pair with B, keep the left component: exercises ×.
                e = e
                    .cross(Expr::named("NumsB"))
                    .set_apply(Expr::input().extract("fst"));
            }
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

/// Run `plan` as written (no kernel choices) with precise profiling.
fn profiled(db: &mut Database, plan: &Expr) -> (Value, Profile) {
    let ran = db
        .run_lowered(&PhysicalPlan::passthrough(plan.clone()), Tracing::Precise)
        .unwrap();
    (ran.value, ran.profile.expect("tracing was enabled"))
}

fn database(a: &[i32], b: &[i32]) -> Database {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn per_node_self_deltas_sum_to_global_counters(
        stages in prop::collection::vec(arb_stage(), 0..6),
        a in prop::collection::vec(-5i32..10, 0..10),
        b in prop::collection::vec(-5i32..10, 0..8)
    ) {
        let plan = build(&stages);
        let mut db = database(&a, &b);
        let profile = profiled(&mut db, &plan).1;
        let global = db.last_counters();
        prop_assert_eq!(profile.total, global, "plan {}", plan);
        prop_assert_eq!(
            profile.sum_of_self_counters(), global,
            "self deltas must telescope to the global counters for {}", plan
        );
        // Inclusive counters at the root equal the whole run too.
        let root = profile.root().expect("root profiled");
        prop_assert_eq!(root.total_counters, global);
    }

    #[test]
    fn profiling_is_observation_only(
        stages in prop::collection::vec(arb_stage(), 0..6),
        a in prop::collection::vec(-5i32..10, 0..10),
        b in prop::collection::vec(-5i32..10, 0..8)
    ) {
        let plan = build(&stages);
        let mut plain_db = database(&a, &b);
        let plain = plain_db.run_plan(&plan).unwrap();
        let plain_counters = plain_db.last_counters();

        let mut traced_db = database(&a, &b);
        let (traced, profile) = profiled(&mut traced_db, &plan);
        prop_assert_eq!(&plain, &traced, "profiling changed the result of {}", plan);
        prop_assert_eq!(
            plain_counters, traced_db.last_counters(),
            "profiling changed the work counters of {}", plan
        );
        // The root's output cardinality matches the actual result.
        let rows = match &traced {
            Value::Set(s) => s.len(),
            Value::Array(arr) => arr.len() as u64,
            _ => 1,
        };
        prop_assert_eq!(profile.root().expect("root profiled").rows_out, rows);
    }
}

/// Plans whose lowering picks row kernels on the fixture database: a
/// selection, a grouping with a hash distinct, and a map/union/distinct
/// pipeline.
fn lowered_plans(db: &mut Database) -> Vec<PhysicalPlan> {
    let s = || Expr::named("S");
    db.analyze();
    [
        s().select(common::grp_pred()),
        s().group_by(Expr::input().extract("grp")).dup_elim(),
        s().set_apply(Expr::input().extract("name"))
            .add_union(Expr::named("T").set_apply(Expr::input().extract("name")))
            .dup_elim(),
    ]
    .iter()
    .map(|plan| db.lower_plan(plan).0)
    .collect()
}

#[test]
fn precise_profiles_of_lowered_plans_telescope_to_query_totals() {
    let mut db = common::database();
    for physical in lowered_plans(&mut db) {
        let profile = db
            .run_lowered(&physical, Tracing::Precise)
            .unwrap()
            .profile
            .expect("tracing was enabled");
        assert_eq!(
            profile.sum_of_self_counters(),
            db.last_counters(),
            "precise profile of {} does not telescope",
            physical.render()
        );
        assert_eq!(profile.total, db.last_counters());
    }
}

#[test]
fn profiled_lowered_counters_match_unprofiled() {
    let mut db = common::database();
    for physical in lowered_plans(&mut db) {
        let plain = db.run_lowered(&physical, Tracing::Off).unwrap();
        let traced = db.run_lowered(&physical, Tracing::Precise).unwrap();
        assert_eq!(plain.value, traced.value, "{}", physical.render());
        assert_eq!(
            plain.counters,
            traced.counters,
            "profiling must not change the work accounting of {}",
            physical.render()
        );
    }
}
