//! Lowering soundness: `eval(lower(p))` is canon-identical to `eval(p)`
//! for randomly generated join pipelines — serially and through the
//! partition-parallel engine — plus the negative cases: a non-equi
//! `COMP` predicate must lower to a nested loop, and a hash choice whose
//! runtime guard fails (null join keys) must fall back without changing
//! results *or counters*.

use excess::algebra::canonical_form;
use excess::algebra::expr::{CmpOp, Expr, Pred};
use excess::algebra::physical::{PhysOp, PhysicalPlan};
use excess::db::{Database, Tracing};
use excess::types::{SchemaType, Value};
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

/// Evaluate a lowered plan on `workers` threads (1 = the serial
/// physical interpreter).
fn run_on(db: &mut Database, workers: usize, physical: &PhysicalPlan) -> Value {
    db.set_threads(workers);
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

    // The tentpole's soundness property: whatever kernels the lowering
    // picks (hash or nested loop, guard-passed or guard-refused), the
    // lowered plan evaluates canon-identically to the logical plan —
    // through the serial physical interpreter and through the
    // partition-parallel engine alike.
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

        let serial = run_on(&mut db, 1, &physical);
        prop_assert_eq!(
            canonical_form(&logical, db.store()),
            canonical_form(&serial, db.store()),
            "serial physical run diverged on {} ({:?})", plan, pipe
        );

        let parallel = run_on(&mut db, 4, &physical);
        prop_assert_eq!(
            canonical_form(&logical, db.store()),
            canonical_form(&parallel, db.store()),
            "parallel physical run diverged on {} ({:?})", plan, pipe
        );
    }
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
    let hashed = run_on(&mut db, 1, &physical);
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
    let physical_out = run_on(&mut db, 1, &physical);
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
    let physical_out = run_on(&mut db, 1, &physical);
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
