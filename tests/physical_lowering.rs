//! Lowering soundness: `eval(lower(p))` is canon-identical to `eval(p)`
//! for randomly generated join pipelines — `rel_join` spines and the
//! translator's correlated `SET_APPLY` joins alike — serially and through
//! the partition-parallel engine — plus the negative cases: a non-equi
//! `COMP` predicate must lower to a nested loop, and a hash choice whose
//! runtime guard fails (null join keys) must fall back without changing
//! results *or counters*.

use excess::algebra::canonical_form;
use excess::algebra::expr::{CmpOp, Expr, Pred};
use excess::algebra::physical::{PhysOp, PhysicalPlan};
use excess::algebra::Counters;
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

/// A key no hash kernel may bucket on, put on one extra row of a side.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Taint {
    Clean,
    Dne,
    Unk,
    /// A tuple where every other key is a scalar.
    MixedKind,
}

/// The correlated join the translator emits for a two-variable
/// `retrieve … where L.k = R.j`, in the variations lowering must tell
/// apart.
#[derive(Debug, Clone)]
enum Correlated {
    /// `COMP[INPUT^2.k = INPUT^1.j]`.
    Equi,
    /// `COMP[INPUT^1.j = INPUT^2.k]`.
    Flipped,
    /// `… ∧ INPUT^1.w >= c`, `unk` where `w` is.
    Residual(i32),
    /// The inner input is `σ[w >= INPUT^1.v](R)`: it reads the outer
    /// element, so evaluating it once would be wrong.
    DependentInner,
}

/// What happens to the data *after* the plan was lowered, so that the
/// kernel runs on inputs its statistics no longer describe.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Stale {
    Fresh,
    EmptyOuter,
    EmptyInner,
    NullInner,
}

#[derive(Debug, Clone)]
struct CorrelatedCase {
    shape: Correlated,
    l_taint: Taint,
    r_taint: Taint,
    /// One more `R` row with a usable key and an `unk` `w`.
    unk_w: bool,
    /// Every row twice: multiplicities above one on both sides.
    doubled: bool,
    stale: Stale,
}

fn arb_taint() -> impl Strategy<Value = Taint> {
    prop_oneof![
        Just(Taint::Clean),
        Just(Taint::Clean),
        Just(Taint::Clean),
        Just(Taint::Dne),
        Just(Taint::Unk),
        Just(Taint::MixedKind),
    ]
}

fn arb_correlated() -> impl Strategy<Value = CorrelatedCase> {
    (
        prop_oneof![
            Just(Correlated::Equi),
            Just(Correlated::Flipped),
            (-2i32..6).prop_map(Correlated::Residual),
            (-2i32..6).prop_map(Correlated::Residual),
            Just(Correlated::DependentInner),
        ],
        (arb_taint(), arb_taint()),
        (any::<bool>(), any::<bool>()),
        prop_oneof![
            Just(Stale::Fresh),
            Just(Stale::Fresh),
            Just(Stale::Fresh),
            Just(Stale::EmptyOuter),
            Just(Stale::EmptyInner),
            Just(Stale::NullInner),
        ],
    )
        .prop_map(
            |(shape, (l_taint, r_taint), (unk_w, doubled), stale)| CorrelatedCase {
                shape,
                l_taint,
                r_taint,
                unk_w,
                doubled,
                stale,
            },
        )
}

fn build_correlated(shape: &Correlated) -> Expr {
    let (outer_k, inner_j) = (
        Expr::input_at(2).extract("k"),
        Expr::input_at(1).extract("j"),
    );
    let theta = match shape {
        Correlated::Flipped => Pred::cmp(inner_j, CmpOp::Eq, outer_k),
        _ => Pred::cmp(outer_k, CmpOp::Eq, inner_j),
    };
    let theta = match shape {
        Correlated::Residual(c) => theta.and(Pred::cmp(
            Expr::input_at(1).extract("w"),
            CmpOp::Ge,
            Expr::int(*c),
        )),
        _ => theta,
    };
    let inner = match shape {
        Correlated::DependentInner => Expr::named("R").select(Pred::cmp(
            Expr::input().extract("w"),
            CmpOp::Ge,
            Expr::input_at(1).extract("v"),
        )),
        _ => Expr::named("R"),
    };
    let pair = Expr::input_at(1)
        .extract("v")
        .make_tup("v")
        .tup_cat(Expr::input().extract("w").make_tup("w"));
    Expr::named("L").set_apply(inner.set_apply(pair.comp(theta)))
}

/// `{ (key: int4, val: int4) }`.
fn schema(key: &str, val: &str) -> SchemaType {
    SchemaType::set(SchemaType::tuple([
        (key, SchemaType::int4()),
        (val, SchemaType::int4()),
    ]))
}

fn tainted_key(taint: Taint) -> Option<Value> {
    match taint {
        Taint::Clean => None,
        Taint::Dne => Some(Value::dne()),
        Taint::Unk => Some(Value::unk()),
        Taint::MixedKind => Some(Value::tuple([("x", Value::int(1))])),
    }
}

fn correlated_database(case: &CorrelatedCase, l: &[(i32, i32)], r: &[(i32, i32)]) -> Database {
    let side = |key: &str, val: &str, rows: &[(i32, i32)], extra: Vec<Value>| {
        let rows: Vec<Value> = rows
            .iter()
            .map(|&(k, v)| Value::tuple([(key, Value::int(k)), (val, Value::int(v))]))
            .chain(extra)
            .collect();
        let copies = if case.doubled { 2 } else { 1 };
        Value::set(rows.iter().cycle().take(rows.len() * copies).cloned())
    };
    let l_extra = tainted_key(case.l_taint).map(|k| Value::tuple([("k", k), ("v", Value::int(3))]));
    let r_extra = tainted_key(case.r_taint)
        .map(|j| Value::tuple([("j", j), ("w", Value::int(3))]))
        .into_iter()
        .chain(
            case.unk_w
                .then(|| Value::tuple([("j", Value::int(r[0].0)), ("w", Value::unk())])),
        );
    let mut db = Database::new();
    db.optimize = false;
    db.put_object(
        "L",
        schema("k", "v"),
        side("k", "v", l, l_extra.into_iter().collect()),
    );
    db.put_object("R", schema("j", "w"), side("j", "w", r, r_extra.collect()));
    db.collect_stats();
    db
}

fn go_stale(db: &mut Database, stale: Stale) {
    match stale {
        Stale::Fresh => {}
        Stale::EmptyOuter => db.put_object("L", schema("k", "v"), Value::set([])),
        Stale::EmptyInner => db.put_object("R", schema("j", "w"), Value::set([])),
        Stale::NullInner => db.put_object("R", schema("j", "w"), Value::unk()),
    }
}

/// The differential check behind `correlated_joins_are_canon_identical`
/// (a plain function: the vendored `proptest!` cannot take a long body).
fn check_correlated(case: &CorrelatedCase, l: &[(i32, i32)], r: &[(i32, i32)]) {
    let plan = build_correlated(&case.shape);
    let mut db = correlated_database(case, l, r);
    let (physical, journal) = db.lower_plan(&plan);
    assert_eq!(physical.logical, plan, "lowering altered the tree");
    go_stale(&mut db, case.stale);
    let logical = db.run_plan(&plan).unwrap();
    let nested: Counters = db.last_counters();
    let oracle = canonical_form(&logical, db.store());

    let root = &physical.choices[&Vec::new()];
    let probing = matches!(root.op, PhysOp::HashProbeApply { .. });
    if matches!(case.shape, Correlated::DependentInner) {
        assert!(!probing, "{case:?}: a dependent inner input was hoisted");
        assert!(
            journal.refused.iter().any(|s| s
                .reason
                .contains("HashProbeApply refused: inner input depends on the outer element")),
            "{:?}",
            journal.refused
        );
    } else {
        // Statistics were collected on 8+ × 8+ rows with spread keys.
        assert!(probing, "{case:?}: {} ({})", root.op, root.why);
    }

    db.set_threads(1);
    let serial = db.run_lowered(&physical, Tracing::Precise).unwrap();
    assert_eq!(
        oracle,
        canonical_form(&serial.value, db.store()),
        "serial run diverged on {case:?}"
    );
    let profile = serial.profile.expect("tracing was on");
    assert_eq!(profile.total, serial.counters, "{case:?}");
    assert_eq!(profile.sum_of_self_counters(), serial.counters, "{case:?}");

    // The runtime guard's refusals — and an outer input that turns out
    // empty — are the nested loop to the last counter; a probe that runs
    // does no more of anything than the loop.
    let guard_refuses = case.l_taint != Taint::Clean
        || (case.r_taint != Taint::Clean && case.stale != Stale::EmptyInner)
        || case.stale == Stale::NullInner;
    if !probing || guard_refuses || case.stale == Stale::EmptyOuter {
        assert_eq!(serial.counters, nested, "{case:?}");
    } else {
        for ((name, probed), (_, looped)) in serial
            .counters
            .named_fields()
            .iter()
            .zip(nested.named_fields())
        {
            assert!(*probed <= looped, "{case:?}: {name} {probed} > {looped}");
        }
    }

    let parallel = run_on(&mut db, 4, &physical);
    assert_eq!(
        oracle,
        canonical_form(&parallel, db.store()),
        "parallel run diverged on {case:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // The correlated join against the naive evaluator: `dne`/`unk` and
    // mixed-kind keys on either side, duplicate-heavy sides, a residual
    // conjunct that is `unk`, a plan gone stale (an empty or null input
    // where its statistics promised rows), and an inner input that must
    // not be hoisted.
    #[test]
    fn correlated_joins_are_canon_identical(
        case in arb_correlated(),
        l in prop::collection::vec((0i32..6, -4i32..8), 8..20),
        r in prop::collection::vec((0i32..6, -4i32..8), 8..14)
    ) {
        check_correlated(&case, &l, &r);
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
