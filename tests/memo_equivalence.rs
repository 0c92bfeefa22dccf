//! The one differential battery for the one plan search.
//!
//! The memo plans every query; `Optimizer::optimize_greedy_journaled` is
//! the reference hill climb nothing serves from.  On every plan below the
//! memo's winner must cost no more than the cheaper of the climb from the
//! plan and the climb from its `desugar()`, must evaluate canon-identically
//! to the plan it replaced, and must come out of extraction without a
//! `memo-extract` refusal — serial and under `EXCESS_THREADS=4` alike (the
//! harness env decides; CI runs both).
//!
//! The named cases at the end pin the two details of the memo's round loop
//! this depends on: they lose to the climb when alternatives are
//! deduplicated across groups and a member is bound only against its
//! children's current best, and each detail has a case the other alone
//! does not rescue.

use excess::optimizer::{cost_of, Optimized, Optimizer, RuleCtx, MEMO_EXTRACT_RULE};
use excess_bench::example1::{example1_db, figure6, figure7, figure8, figure8_canonical};
use excess_bench::example2::{example2_db, figure10, figure11, figure9};
use excess_bench::server_mix::server_mix_db;
use excess_core::canon::canonical_form;
use excess_core::expr::{CmpOp, Expr, Pred};
use excess_db::Database;
use excess_workload::UniversityParams;

mod common;

/// The reference cost: the hill climb from the plan as given and from its
/// desugared form (several fusion rules only match the primitive shapes),
/// whichever ends cheaper.
fn reference_cost(db: &Database, plan: &Expr) -> f64 {
    let opt = Optimizer::standard();
    let rctx = RuleCtx {
        registry: db.registry(),
        schemas: db.catalog(),
    };
    let (a, _) = opt.optimize_greedy_journaled(plan, &rctx, db.statistics());
    let (b, _) = opt.optimize_greedy_journaled(&plan.desugar(), &rctx, db.statistics());
    a.cost.min(b.cost)
}

/// Run the memo on `plan` and hold it to the battery's three promises.
/// `fresh` rebuilds the database, so plans that mint OIDs mint the same
/// ones on both sides of the comparison.
fn check(id: &str, fresh: &dyn Fn() -> Database, plan: &Expr) -> Optimized {
    let db = fresh();
    let rctx = RuleCtx {
        registry: db.registry(),
        schemas: db.catalog(),
    };
    let (memo, run) = Optimizer::standard().optimize_memo_journaled(plan, &rctx, db.statistics());
    let reference = reference_cost(&db, plan);
    assert!(
        memo.cost <= reference + 1e-9,
        "{id}: memo cost {} > reference climb {reference} on {plan}\nmemo chose {}",
        memo.cost,
        memo.plan
    );
    assert!(
        (memo.cost - cost_of(&memo.plan, db.statistics())).abs() < 1e-9,
        "{id}: reported cost is not the winner's cost"
    );
    assert!(
        !run.journal
            .refused
            .iter()
            .any(|r| r.rule == MEMO_EXTRACT_RULE),
        "{id}: extraction gate refused the memo winner: {:?}",
        run.journal.refused
    );
    let evaluate = |p: &Expr| {
        let mut db = fresh();
        db.run_plan(p)
            .map(|v| canonical_form(&v, db.store()))
            .map_err(|e| e.to_string())
    };
    assert_eq!(
        evaluate(plan),
        evaluate(&memo.plan),
        "{id}: the memo's plan {} evaluates differently from {plan}",
        memo.plan
    );
    memo
}

fn analyzed() -> Database {
    let mut db = common::database();
    db.analyze();
    db
}

/// Deterministic pipeline generator over the shared fixture's `S` and `T`
/// extents — same spirit as the figure8_convergence generator, but aimed
/// at plans the evaluator can run.
fn generated_pipeline(seed: u64) -> Expr {
    let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15).max(1);
    let mut next = move |m: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % m
    };
    let mut e = Expr::named(if next(2) == 0 { "S" } else { "T" });
    for _ in 0..next(5) + 1 {
        match next(7) {
            0 => e = e.dup_elim(),
            1 => e = e.set_apply(Expr::input()),
            2 => e = e.select(Pred::cmp(Expr::input(), CmpOp::Gt, Expr::int(1))),
            3 => e = e.add_union(Expr::named("T")),
            4 => e = e.group_by(Expr::input()),
            5 => e = e.dup_elim().dup_elim(),
            _ => {
                e = e
                    .set_apply(Expr::input().make_tup("v"))
                    .set_apply(Expr::input().extract("v"));
            }
        }
    }
    e
}

#[test]
fn generated_pipelines_under_collected_and_default_statistics() {
    for seed in 1..120u64 {
        let plan = generated_pipeline(seed);
        check(&format!("seed {seed} (analyzed)"), &analyzed, &plan);
        check(&format!("seed {seed}"), &common::database, &plan);
    }
}

#[test]
fn rule_family_seed_plans() {
    for (i, plan) in common::seeds().iter().enumerate() {
        check(&format!("seeds()[{i}] (analyzed)"), &analyzed, plan);
        check(&format!("seeds()[{i}]"), &common::database, plan);
    }
}

#[test]
fn figures_6_to_11_at_two_scales_and_the_scaled_join() {
    for (s, e) in [(40, 24), (160, 96)] {
        let fresh = || example1_db(s, e, s.max(e));
        for (id, plan) in [("F6", figure6()), ("F7", figure7()), ("F8", figure8())] {
            let memo = check(&format!("{id} at |S|={s}"), &fresh, &plan);
            // Figures 6 and 7 land on the canonical Figure 8 plan; from
            // Figure 8 itself the memo also reaches the desugared join,
            // which the cost model prices a hair lower.
            let canonical = cost_of(&figure8_canonical(), fresh().statistics());
            assert!(memo.cost <= canonical, "{id} at |S|={s}: {}", memo.cost);
            if id != "F8" {
                assert_eq!(memo.plan, figure8_canonical(), "{id} at |S|={s}");
            }
        }
    }
    for (n, depts) in [(200, 10), (800, 40)] {
        let fresh = || example2_db(n, depts, 10);
        for (id, plan) in [("F9", figure9()), ("F10", figure10()), ("F11", figure11())] {
            check(&format!("{id} at n={n}"), &fresh, &plan);
        }
    }
    // dup = 1: every join key distinct, the shape `report` §F scales up.
    check("scaled join", &|| example1_db(128, 64, 1), &figure7());
}

/// The 14 request kinds of the `served-retrieve` workloads (`probe`,
/// `analytic`, `objects`, `mixed_rw`), as the clients send them.
#[test]
fn served_request_texts() {
    let mix = || server_mix_db(60);
    for line in common::served_mix_requests() {
        let plan = common::plan_of(&mut mix(), line);
        check(line, &mix, &plan);
    }
    let university = || common::served_university(&UniversityParams::tiny());
    for line in common::SERVED_UNIVERSITY_REQUESTS {
        let plan = common::plan_of(&mut university(), line);
        check(line, &university, &plan);
    }
}

// ---------------------------------------------------------------------
// The cases that need per-group dedupe and child-member binding.
// ---------------------------------------------------------------------

/// `rel7-identity-apply` on `SET_APPLY[INPUT](DE(DE(T)))` yields `DE(T)`,
/// which `rel4-de-idempotent` already yielded one group down.  The second
/// sighting is what merges the two groups: deduplicating alternatives
/// across groups drops it and the identity SET_APPLY survives.  (Binding
/// against child members happens to rescue seed 39 by another route; seed
/// 26 is the pipeline that still loses to the climb with that alone.)
#[test]
fn an_alternative_seen_in_another_group_still_merges_here() {
    check("seed 26", &analyzed, &generated_pipeline(26));
    let plan = generated_pipeline(39);
    let memo = check("seed 39", &analyzed, &plan);
    fn has_identity_apply(e: &Expr) -> bool {
        let here =
            matches!(e, Expr::SetApply { body, only_types: None, .. } if **body == Expr::input());
        here || e.children().into_iter().any(has_identity_apply)
    }
    assert!(has_identity_apply(&plan), "seed 39 changed shape: {plan}");
    assert!(
        !has_identity_apply(&memo.plan),
        "identity SET_APPLY survived: {}",
        memo.plan
    );
}

/// Rule 15 fuses the child's two SET_APPLYs before the root fires, so a
/// root bound only against its child's best never sees
/// `DE(SET_APPLY[ext](SET_APPLY[tup](S)))` and `rel5-de-early` misses the
/// 44.7-cost plan.
#[test]
fn a_parent_binds_against_every_member_of_its_child_group() {
    let memo = check("seed 9", &analyzed, &generated_pipeline(9));
    assert!(memo.cost <= 44.7 + 0.05, "seed 9 cost {}", memo.cost);
}

#[test]
fn figure7_reaches_the_canonical_figure8_plan() {
    let db = example1_db(40, 24, 40);
    let rctx = RuleCtx {
        registry: db.registry(),
        schemas: db.catalog(),
    };
    let (best, run) =
        Optimizer::standard().optimize_memo_journaled(&figure7(), &rctx, db.statistics());
    assert_eq!(best.plan, figure8_canonical(), "got:\n{}", best.plan);
    assert!(run.journal.rule_sequence().contains(&"rel5-de-early"));
}

#[test]
fn figure6_reaches_figure8_with_both_de_pushes_journaled() {
    let db = example1_db(40, 24, 40);
    let rctx = RuleCtx {
        registry: db.registry(),
        schemas: db.catalog(),
    };
    let (best, run) =
        Optimizer::standard().optimize_memo_journaled(&figure6(), &rctx, db.statistics());
    assert_eq!(
        best.plan,
        figure8_canonical(),
        "the memo should land exactly on the Figure 8 plan, got:\n{}",
        best.plan
    );
    let rules = run.journal.rule_sequence();
    assert!(
        rules.contains(&"rule8-de-through-group"),
        "Figure 6→7 step missing from memo journal: {rules:?}"
    );
    assert!(
        rules.contains(&"rel5-de-early"),
        "Figure 7→8 step missing from memo journal: {rules:?}"
    );
    // Taken, never refused — and the extraction gate never fired.
    for refusal in &run.journal.refused {
        assert!(
            refusal.rule != "rule8-de-through-group"
                && refusal.rule != "rel5-de-early"
                && refusal.rule != MEMO_EXTRACT_RULE,
            "unexpected refusal: {refusal:?}"
        );
    }
    assert!(run.journal.final_cost < run.journal.initial_cost);
}
