//! Randomised properties of the per-operator profiler over generated
//! multiset pipelines:
//!
//! 1. **Exact attribution** — the per-node *self* counter deltas sum to
//!    exactly the global counters of the run (the telescoping invariant),
//!    and the profile's recorded total matches the evaluator's counters;
//! 2. **Observation is free of side effects** — running with profiling
//!    enabled returns the same value and the same global counters as
//!    running without it.

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

/// Run `plan` as written (no kernel choices) on the serial engine with
/// precise profiling.
fn profiled(db: &mut Database, plan: &Expr) -> (Value, Profile) {
    db.set_threads(1);
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

/// The probe kernel of a correlated join opens the inner apply's frames
/// itself and leaves its build untraced; the two properties above hold for
/// it as they do for the nested loop it replaces.
#[test]
fn a_probed_correlated_join_still_telescopes() {
    let a: Vec<i32> = (0..24).map(|i| i % 6).collect();
    let b: Vec<i32> = (0..12).map(|i| i % 4).collect();
    // For every a in NumsA, the b in NumsB equal to it.
    let theta = Pred::cmp(Expr::input_at(2), CmpOp::Eq, Expr::input_at(1));
    let plan = Expr::named("NumsA")
        .set_apply(Expr::named("NumsB").set_apply(Expr::input().comp(theta)))
        .set_collapse();
    let mut db = database(&a, &b);
    let plain = db.run_plan(&plan).unwrap();

    let (physical, _) = db.lower_plan(&plan);
    let join = &physical.choices[&vec![0]];
    assert!(
        join.op.to_string().starts_with("HashProbeApply"),
        "{}",
        join.op
    );
    db.set_threads(1);
    let untraced = db.run_lowered(&physical, Tracing::Off).unwrap();
    let traced = db.run_lowered(&physical, Tracing::Precise).unwrap();
    assert_eq!(plain, traced.value);
    assert_eq!(untraced.counters, traced.counters);
    let profile = traced.profile.expect("tracing was enabled");
    assert_eq!(profile.total, traced.counters);
    assert_eq!(profile.sum_of_self_counters(), traced.counters);
    // The inner apply ran once per outer occurrence, the COMP once per
    // pair the buckets admitted (NumsA's 0..=3 are 16 occurrences, each
    // meeting 3 of NumsB), and NumsB itself was never a traced child.
    assert_eq!(profile.node(&[0, 1]).expect("inner apply").calls, 24);
    assert_eq!(profile.node(&[0, 1, 1]).expect("COMP").calls, 48);
    assert!(profile.node(&[0, 1, 0]).is_none());
}
