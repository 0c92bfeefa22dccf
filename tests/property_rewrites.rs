//! Static soundness of the transformation-rule catalogue: every rewrite
//! the engine can reach must preserve the `infer` output schema and must
//! not introduce any new verifier diagnostic — exactly the invariant the
//! optimizer's rewrite-soundness gate enforces at run time.  Checked two
//! ways: over the deterministic seed battery that exercises every rule
//! family (with a coverage assertion and a log of which rules fired), and
//! over randomly generated well-typed pipelines (proptest).

mod common;

use common::{database, seeds};
use excess::algebra::expr::{CmpOp, Expr, Func, Pred};
use excess::algebra::infer::infer_closed;
use excess::algebra::verify::{resolve_deep, verify, Severity};
use excess::db::Database;
use excess::optimizer::{soundness_violation, Optimizer, RuleCtx};
use excess::types::SchemaType;
use proptest::prelude::*;
use std::collections::HashSet;

/// Every neighbor of `seed` must pass the soundness gate: same
/// deep-resolved output schema, zero new error diagnostics.  Returns the
/// rules that fired.
fn check_neighbors_statically(db: &Database, seed: &Expr) -> HashSet<&'static str> {
    let ctx = RuleCtx {
        registry: db.registry(),
        schemas: db.catalog(),
    };
    let opt = Optimizer::standard();
    let before_schema = infer_closed(seed, db.catalog(), db.registry())
        .unwrap_or_else(|e| panic!("seed {seed} does not type-check: {e}"));
    let before_report = verify(seed, db.catalog(), db.registry());
    assert!(
        before_report.is_clean(),
        "seed {seed} has verifier errors:\n{}",
        before_report.render()
    );
    let mut fired = HashSet::new();
    for (rule, alt) in opt.neighbors(seed, &ctx) {
        fired.insert(rule);
        if let Some(reason) = soundness_violation(seed, &alt, &ctx) {
            panic!("rule {rule} is statically unsound:\n  {seed}\n→ {alt}\n{reason}");
        }
        // Spelled out (the gate checks the same things internally): the
        // inferred schema is preserved modulo Named-resolution, and the
        // rewritten plan has no error diagnostics at all.
        let after_schema = infer_closed(&alt, db.catalog(), db.registry())
            .unwrap_or_else(|e| panic!("rule {rule} broke inference on {alt}: {e}"));
        assert_eq!(
            resolve_deep(&before_schema, db.registry()),
            resolve_deep(&after_schema, db.registry()),
            "rule {rule} changed the output schema:\n  {seed}\n→ {alt}"
        );
        let after_report = verify(&alt, db.catalog(), db.registry());
        assert!(
            after_report.error_count() == 0,
            "rule {rule} introduced diagnostics on {alt}:\n{}",
            after_report.render()
        );
        for d in after_report.diagnostics {
            assert_ne!(d.severity, Severity::Error);
        }
    }
    fired
}

#[test]
fn every_rule_preserves_schema_and_diagnostics_on_the_seed_battery() {
    let db = database();
    let mut fired: HashSet<&'static str> = HashSet::new();
    for seed in seeds() {
        fired.extend(check_neighbors_statically(&db, &seed));
    }
    // Log which rules the battery exercised (visible with --nocapture).
    let mut names: Vec<_> = fired.iter().copied().collect();
    names.sort_unstable();
    println!("rules exercised statically ({}): {names:?}", names.len());
    for expected in common::expected_rules() {
        assert!(
            fired.contains(expected),
            "rule `{expected}` never fired; fired = {names:?}"
        );
    }
}

#[test]
fn the_gate_refuses_nothing_on_sound_rules() {
    // The gate must be invisible when every rule is sound: no refusals on
    // the whole battery, from the memo or from the reference climb.
    let db = database();
    let ctx = RuleCtx {
        registry: db.registry(),
        schemas: db.catalog(),
    };
    let opt = Optimizer::standard();
    for seed in seeds() {
        let (_, run) = opt.optimize_memo_journaled(&seed, &ctx, db.statistics());
        let (_, climb) = opt.optimize_greedy_journaled(&seed, &ctx, db.statistics());
        for journal in [&run.journal, &climb] {
            assert!(
                journal.refused.is_empty(),
                "gate refused sound rewrites on {seed}: {:?}",
                journal.refused
            );
        }
    }
}

// ------------------------------------------------- random pipelines

/// One pipeline stage over `S : {Person}` (kept well-typed by
/// construction; `Wrapped` tracks set-of-set nesting).
#[derive(Debug, Clone)]
enum Stage {
    DupElim,
    SelectName,
    SelectGrp(i32),
    ProjectName,
    WrapSet,
    Collapse,
    AddUnionT,
    DiffT,
    IntersectT,
    GroupByGrp,
    CountGroups,
}

fn arb_stage() -> impl Strategy<Value = Stage> {
    prop_oneof![
        Just(Stage::DupElim),
        Just(Stage::SelectName),
        (0i32..3).prop_map(Stage::SelectGrp),
        Just(Stage::ProjectName),
        Just(Stage::WrapSet),
        Just(Stage::Collapse),
        Just(Stage::AddUnionT),
        Just(Stage::DiffT),
        Just(Stage::IntersectT),
        Just(Stage::GroupByGrp),
        Just(Stage::CountGroups),
    ]
}

/// What the pipeline currently yields: `{Person}`-shaped rows, projected
/// rows, or a nested set-of-sets.
#[derive(Clone, Copy, PartialEq)]
enum Shape {
    Person,
    Projected,
    Nested,
}

fn build(stages: &[Stage]) -> Expr {
    let mut e = Expr::named("S");
    let mut shape = Shape::Person;
    for s in stages {
        match (s, shape) {
            (Stage::DupElim, _) => e = e.dup_elim(),
            (Stage::SelectName, Shape::Person) => e = e.select(common::name_pred()),
            (Stage::SelectGrp(k), Shape::Person) => {
                e = e.select(Pred::cmp(
                    Expr::input().extract("grp"),
                    CmpOp::Eq,
                    Expr::int(*k),
                ));
            }
            (Stage::ProjectName, Shape::Person) => {
                e = e.set_apply(Expr::input().project(["name"]));
                shape = Shape::Projected;
            }
            (Stage::WrapSet, Shape::Person | Shape::Projected) => {
                e = e.set_apply(Expr::input().make_set());
                shape = Shape::Nested;
            }
            (Stage::Collapse, Shape::Nested) => {
                e = e.set_collapse();
                // The collapsed element shape is whatever was wrapped;
                // conservatively treat it as opaque projected rows.
                shape = Shape::Projected;
            }
            (Stage::AddUnionT, Shape::Person) => e = e.add_union(Expr::named("T")),
            (Stage::DiffT, Shape::Person) => e = e.diff(Expr::named("T")),
            (Stage::IntersectT, Shape::Person) => {
                e = Expr::Intersect(Box::new(e), Box::new(Expr::named("T")));
            }
            (Stage::GroupByGrp, Shape::Person) => {
                e = e.group_by(Expr::input().extract("grp"));
                shape = Shape::Nested;
            }
            (Stage::CountGroups, Shape::Nested) => {
                e = e.set_apply(Expr::call(Func::Count, vec![Expr::input()]));
                shape = Shape::Projected;
            }
            // Stage does not apply to the current shape: skip it.
            _ => {}
        }
    }
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn random_pipelines_rewrite_soundly(
        stages in prop::collection::vec(arb_stage(), 1..8),
    ) {
        let db = database();
        let seed = build(&stages);
        check_neighbors_statically(&db, &seed);
    }

    #[test]
    fn random_pipelines_optimize_without_refusals(
        stages in prop::collection::vec(arb_stage(), 1..6),
    ) {
        let mut db = database();
        let seed = build(&stages);
        let (_, journal) = db.optimize_plan_journaled(&seed);
        prop_assert!(
            journal.refused.is_empty(),
            "gate refused sound rewrites on {}: {:?}",
            seed,
            journal.refused
        );
    }
}

#[test]
fn fixture_objects_are_well_typed() {
    let db = database();
    let r = verify(&Expr::named("S"), db.catalog(), db.registry());
    assert!(r.is_clean());
    assert_eq!(r.schema, Some(SchemaType::set(SchemaType::named("Person"))));
}
