//! Negative-case coverage for the static plan verifier: one deliberately
//! ill-formed plan per diagnostic class, asserting the node path and the
//! severity that render in the diagnostic — plus the "clean" direction:
//! every paper figure plan verifies without errors.

mod common;

use excess_bench::dispatch::{dispatch_db, switch_plan, trivial_impls};
use excess_bench::example1::{example1_db, figure6, figure7, figure8};
use excess_bench::example2::{example2_db, figure10, figure11, figure9};
use excess_core::expr::{Bound, CmpOp, Expr, Func, Pred};
use excess_core::verify::{verify, Report, Severity};
use excess_db::Database;
use excess_optimizer::{Optimizer, Rule, RuleCtx};
use excess_types::Value;

fn report(db: &Database, e: &Expr) -> Report {
    verify(e, db.catalog(), db.registry())
}

/// Assert `r` contains a diagnostic of class `code` with the given
/// severity whose rendered form mentions `path_repr` (e.g. "[0.1]").
fn assert_has(r: &Report, code: &str, severity: Severity, path_repr: &str) {
    let found = r
        .diagnostics
        .iter()
        .any(|d| d.code == code && d.severity == severity && d.to_string().contains(path_repr));
    assert!(
        found,
        "expected a {severity}[{code}] diagnostic at {path_repr}; got:\n{}",
        r.render()
    );
}

// ---------------------------------------------------------------- clean

#[test]
fn example1_figures_verify_clean() {
    let db = example1_db(20, 20, 2);
    for (name, plan) in [
        ("fig6", figure6()),
        ("fig7", figure7()),
        ("fig8", figure8()),
    ] {
        let r = report(&db, &plan);
        assert!(r.is_clean(), "{name} not clean:\n{}", r.render());
        assert!(r.schema.is_some(), "{name}: no output schema");
    }
}

#[test]
fn example2_figures_verify_clean() {
    let db = example2_db(20, 3, 4);
    for (name, plan) in [
        ("fig9", figure9()),
        ("fig10", figure10()),
        ("fig11", figure11()),
    ] {
        let r = report(&db, &plan);
        assert!(r.is_clean(), "{name} not clean:\n{}", r.render());
    }
}

#[test]
fn dispatch_plans_verify_clean() {
    let db = dispatch_db(20, 2);
    let r = report(&db, &switch_plan(&trivial_impls()));
    assert!(r.is_clean(), "switch plan not clean:\n{}", r.render());
}

#[test]
fn optimized_figures_stay_clean() {
    let db = example1_db(20, 20, 2);
    for plan in [figure6(), figure7(), figure8()] {
        let opt = db.optimize_plan(&plan);
        let r = report(&db, &opt);
        assert!(r.is_clean(), "optimized plan not clean:\n{}", r.render());
    }
}

// ------------------------------------------- error classes, one each

#[test]
fn error_sort_mismatch() {
    // DE over an array: wrong sort for the multiset operator.
    let db = common::database();
    let r = report(&db, &Expr::named("Arr").dup_elim());
    assert_has(&r, "sort-mismatch", Severity::Error, "at root");
}

#[test]
fn error_unknown_object() {
    let db = common::database();
    let r = report(&db, &Expr::named("NoSuchObject").dup_elim());
    assert_has(&r, "unknown-object", Severity::Error, "at [0]");
}

#[test]
fn error_unknown_type() {
    let db = common::database();
    let r = report(&db, &Expr::named("OneTup").make_ref("NoSuchType"));
    assert_has(&r, "unknown-type", Severity::Error, "at root");
}

#[test]
fn error_unbound_input() {
    let db = common::database();
    // INPUT^5 under a single binder: unbound.
    let r = report(&db, &Expr::named("S").set_apply(Expr::input_at(5)));
    assert_has(&r, "unbound-input", Severity::Error, "at [1]");
}

#[test]
fn error_no_such_field() {
    let db = common::database();
    let r = report(&db, &Expr::named("OneTup").extract("zzz"));
    assert_has(&r, "no-such-field", Severity::Error, "at root");
}

#[test]
fn error_schema_incompatible_union() {
    // ∪ of {Person} with {{int4}} — element schemas cannot join.
    let db = common::database();
    let plan = Expr::Union(Box::new(Expr::named("S")), Box::new(Expr::named("Nested")));
    let r = report(&db, &plan);
    assert_has(&r, "schema-incompatible", Severity::Error, "at root");
}

#[test]
fn error_oid_domain_value_outside_dom() {
    // §3.1 amended definition v′: an int4 cannot inhabit dom(Person).
    let db = common::database();
    let r = report(&db, &Expr::int(3).make_ref("Person"));
    assert_has(&r, "oid-domain", Severity::Error, "at root");
    assert!(r.render().contains("v′"), "{}", r.render());
}

#[test]
fn error_oid_domain_disjoint_ref_comparison() {
    // §3.1 rule 4: Person and Person2Cell share no descendant, so their
    // OID domains are disjoint and the equality can never hold.
    let db = common::database();
    let person_ref = Expr::lit(Value::tuple([
        ("name", Value::str("p")),
        ("grp", Value::int(0)),
    ]))
    .make_ref("Person");
    let cell_ref = Expr::named("OneTup").make_ref("Person2Cell");
    let plan = Expr::named("OneTup").comp(Pred::cmp(person_ref, CmpOp::Eq, cell_ref));
    let r = report(&db, &plan);
    assert_has(&r, "oid-domain", Severity::Error, "at root");
    assert!(r.render().contains("rule 4"), "{}", r.render());
}

#[test]
fn error_predicate_type() {
    // COMP predicate comparing int4 with char[].
    let db = common::database();
    let plan = Expr::named("OneTup").comp(Pred::cmp(
        Expr::input().extract("x"),
        CmpOp::Lt,
        Expr::str("ten"),
    ));
    let r = report(&db, &plan);
    assert_has(&r, "predicate-type", Severity::Error, "at root");
}

#[test]
fn error_arity() {
    let db = common::database();
    let r = report(&db, &Expr::call(Func::Age, vec![]));
    assert_has(&r, "arity", Severity::Error, "at root");
}

#[test]
fn error_arr_bound() {
    // Array indices are 1-based; index 0 can never exist.
    let db = common::database();
    let r = report(&db, &Expr::named("Arr").arr_extract(0));
    assert_has(&r, "arr-bound", Severity::Error, "at root");
}

// ------------------------------------------------ lint catalogue

#[test]
fn lint_dead_projection() {
    let db = common::database();
    let r = report(&db, &Expr::named("OneTup").project(["x", "y"]));
    assert_has(&r, "lint-dead-projection", Severity::Lint, "at root");
    assert!(r.is_clean(), "lints must not make a plan unclean");
}

#[test]
fn lint_ref_deref_round_trip() {
    let db = common::database();
    let r = report(&db, &Expr::named("OneTup").make_ref("Person2Cell").deref());
    assert_has(&r, "lint-ref-deref", Severity::Lint, "at root");
}

#[test]
fn lint_de_de() {
    let db = common::database();
    let r = report(&db, &Expr::named("S").dup_elim().dup_elim());
    assert_has(&r, "lint-de-de", Severity::Lint, "at root");
}

#[test]
fn lint_de_above_group() {
    let db = common::database();
    let r = report(
        &db,
        &Expr::named("S")
            .group_by(Expr::input().extract("grp"))
            .dup_elim(),
    );
    assert_has(&r, "lint-de-above-group", Severity::Lint, "at root");
    // The rule-8 shape: DE over SET_APPLY over GRP.
    let r = report(
        &db,
        &Expr::named("S")
            .group_by(Expr::input().extract("grp"))
            .set_apply(Expr::input().dup_elim())
            .dup_elim(),
    );
    assert_has(&r, "lint-de-above-group", Severity::Lint, "at root");
}

#[test]
fn lint_unused_and_shadowed_binders() {
    let db = common::database();
    let r = report(&db, &Expr::named("S").set_apply(Expr::int(1)));
    assert_has(&r, "lint-unused-binder", Severity::Lint, "at root");
    // Inner SET_APPLY ignores its own INPUT but uses the outer binder's.
    let plan =
        Expr::named("S").set_apply(Expr::named("T").set_apply(Expr::input_at(1).extract("name")));
    let r = report(&db, &plan);
    assert_has(&r, "lint-shadowed-binder", Severity::Lint, "at [1]");
}

#[test]
fn lint_null_comparison() {
    let db = common::database();
    let plan = Expr::named("OneTup").comp(Pred::cmp(
        Expr::input().extract("x"),
        CmpOp::Eq,
        Expr::lit(Value::dne()),
    ));
    let r = report(&db, &plan);
    assert_has(&r, "lint-null-comparison", Severity::Lint, "at root");
}

#[test]
fn lint_dead_type_filter() {
    // Person2Cell does not inherit Person, so the filter never matches.
    let db = common::database();
    let plan = Expr::named("Mixed").set_apply_only(["Person2Cell"], Expr::input());
    let r = report(&db, &plan);
    assert_has(&r, "lint-dead-type-filter", Severity::Lint, "at root");
}

#[test]
fn lint_empty_subarr() {
    let db = common::database();
    let r = report(&db, &Expr::named("Arr").subarr(Bound::At(5), Bound::At(2)));
    assert_has(&r, "lint-empty-subarr", Severity::Lint, "at root");
}

#[test]
fn lint_heterogeneous_add_union() {
    let db = common::database();
    let plan = Expr::named("S")
        .set_apply(Expr::input().extract("name"))
        .add_union(Expr::named("S").set_apply(Expr::input().extract("grp")));
    let r = report(&db, &plan);
    assert_has(&r, "lint-heterogeneous-union", Severity::Lint, "at root");
    assert!(r.is_clean());
}

#[test]
fn lint_switch_arm_divergence() {
    let db = common::database();
    let plan = Expr::SetApplySwitch {
        input: Box::new(Expr::named("Mixed")),
        table: vec![
            ("Person".into(), Expr::input().extract("name")),
            ("Employee".into(), Expr::input().extract("salary")),
        ],
    };
    let r = report(&db, &plan);
    assert_has(&r, "lint-switch-arm-divergence", Severity::Lint, "at root");
}

// ------------------------------------- multiple independent errors

#[test]
fn two_independent_errors_both_reported_with_paths() {
    // Child 0 holds a projection of a missing field; child 1 applies DE to
    // an array.  Neither failure masks the other, and each diagnostic
    // carries the path of its own subtree.
    let db = common::database();
    let plan = Expr::Cross(
        Box::new(Expr::named("OneTup").project(["nope"]).make_set()),
        Box::new(Expr::named("Arr").dup_elim()),
    );
    let r = report(&db, &plan);
    assert!(
        r.error_count() >= 2,
        "expected ≥2 errors, got:\n{}",
        r.render()
    );
    assert_has(&r, "no-such-field", Severity::Error, "at [0.0]");
    assert_has(&r, "sort-mismatch", Severity::Error, "at [1]");
}

#[test]
fn inference_and_verifier_render_positions_identically() {
    // Satellite fix: `InferError` now carries the node path, so the first
    // inference failure and the corresponding verifier diagnostic point at
    // the same position in the same format.
    let db = common::database();
    let plan = Expr::named("NoSuchObject").dup_elim();
    let infer_err =
        excess_core::infer::infer_closed(&plan, db.catalog(), db.registry()).unwrap_err();
    let rendered = infer_err.to_string();
    assert!(rendered.contains("at [0]"), "{rendered}");
    assert!(
        rendered.contains("unknown object `NoSuchObject`"),
        "{rendered}"
    );
    let r = report(&db, &plan);
    let diag = r
        .errors()
        .find(|d| d.code == "unknown-object")
        .expect("verifier reports the same problem");
    assert_eq!(excess_core::profile::path_string(&diag.path), "[0]");
    assert!(diag.message.contains("unknown object `NoSuchObject`"));
}

// ------------------------------------- the rewrite-soundness gate

/// A deliberately unsound test-only rule: `DE(A) → SET(A)` is cheaper
/// under the cost model but changes the output schema from {T} to {{T}}.
struct BreakDe;

impl Rule for BreakDe {
    fn name(&self) -> &'static str {
        "test-break-de"
    }
    fn apply(&self, e: &Expr, _ctx: &RuleCtx<'_>) -> Vec<Expr> {
        match e {
            Expr::DupElim(a) => vec![(**a).clone().make_set()],
            _ => vec![],
        }
    }
}

#[test]
fn gate_refuses_schema_breaking_rule_and_journals_it() {
    let db = common::database();
    let ctx = RuleCtx {
        registry: db.registry(),
        schemas: db.catalog(),
    };
    let opt = Optimizer::with_rules(vec![Box::new(BreakDe)]);
    let seed = Expr::named("S").dup_elim();
    let (best, journal) = opt.optimize_greedy_journaled(&seed, &ctx, db.statistics());
    // The unsound rewrite was cheaper but must not be taken…
    assert_eq!(best.plan, seed, "gate failed to refuse the unsound rewrite");
    assert!(journal.steps.is_empty());
    // …and the refusal is recorded in the journal with rule, path, reason.
    let refusal = journal
        .refused
        .iter()
        .find(|r| r.rule == "test-break-de")
        .expect("refusal journaled");
    assert_eq!(refusal.path, Vec::<usize>::new());
    assert!(
        refusal.reason.contains("schema"),
        "reason should mention the schema change: {}",
        refusal.reason
    );
    // The refusal also shows up in the serialized journal.
    let json = excess_db::journal_json(&journal);
    assert!(json.contains("\"refused\":[{"), "{json}");
    assert!(json.contains("test-break-de"), "{json}");
    // The memo runs every candidate through the same gate.
    let (best, run) = opt.optimize_memo_journaled(&seed, &ctx, db.statistics());
    assert_eq!(best.plan, seed, "memo gate failed to refuse the rewrite");
    assert!(run
        .journal
        .refused
        .iter()
        .any(|r| r.rule == "test-break-de" && r.reason.contains("schema")));
}

#[test]
fn extent_substitution_is_journaled_and_gated() {
    use excess_optimizer::{apply_extent_indexes_journaled, RewriteJournal};
    let db = common::database();
    let ctx = RuleCtx {
        registry: db.registry(),
        schemas: db.catalog(),
    };
    // An index is advertised in the statistics, but the catalog has no
    // `S::exact::…` objects backing it — the substitution must be refused
    // by the gate rather than producing an unevaluable plan.
    let mut stats = excess_optimizer::Statistics::new();
    stats.add_extent_index("S", "Person");
    let plan = Expr::named("S").set_apply_only(["Person"], Expr::input().extract("name"));
    let mut journal = RewriteJournal::for_plan(0.0);
    let out = apply_extent_indexes_journaled(&plan, &stats, &ctx, &mut journal);
    assert_eq!(out, plan, "unbacked extent substitution must not be taken");
    let refusal = journal
        .refused
        .iter()
        .find(|r| r.rule == "extent-index-substitution")
        .expect("refusal journaled");
    assert!(
        refusal.reason.contains("S::exact::Person"),
        "{}",
        refusal.reason
    );
}
