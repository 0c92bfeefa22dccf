//! Soundness of the transformation-rule catalogue.
//!
//! The Appendix "omit[s] the validity proofs for these transformations as
//! most of them are straightforward algebraic and multiset-theoretic
//! manipulations" — here every rewrite the engine can reach from a battery
//! of seed plans is *checked by evaluation*: each one-step neighbor must
//! produce the same value as the original (modulo object identity for the
//! rule-28 family; null-free data throughout, matching the rules'
//! stated scope).  A coverage assertion guarantees the battery actually
//! fires every rule family we claim to test.

mod common;

use common::{database, name_pred, seeds};
use excess::algebra::canonical_form;
use excess::algebra::expr::{CmpOp, Expr, Pred};
use excess::db::Database;
use excess::optimizer::{Optimizer, RuleCtx};
use excess::types::{SchemaType, Value};
use std::collections::HashSet;

#[test]
fn every_reachable_rewrite_is_semantics_preserving() {
    let mut db = database();
    let opt = Optimizer::standard();
    let mut fired: HashSet<&'static str> = HashSet::new();
    let mut checked = 0usize;

    for seed in seeds() {
        let base = db
            .run_plan(&seed)
            .unwrap_or_else(|e| panic!("seed eval failed for {seed}: {e}"));
        let base_canon = canonical_form(&base, db.store());
        let ctx = RuleCtx {
            registry: db.registry(),
            schemas: db.catalog(),
        };
        let neighbors = opt.neighbors(&seed, &ctx);
        for (rule, alt) in neighbors {
            fired.insert(rule);
            let out = db.run_plan(&alt).unwrap_or_else(|e| {
                panic!("rule {rule} broke evaluation:\n  {seed}\n→ {alt}\n{e}")
            });
            let out_canon = canonical_form(&out, db.store());
            assert_eq!(
                base_canon, out_canon,
                "rule {rule} changed the result:\n  {seed}\n→ {alt}"
            );
            checked += 1;
        }
    }
    assert!(checked > 40, "only {checked} rewrites checked");

    // Coverage: the battery must actually exercise these rule families.
    for expected in common::expected_rules() {
        assert!(
            fired.contains(expected),
            "rule `{expected}` never fired; fired = {fired:?}"
        );
    }
}

#[test]
fn two_step_exploration_stays_sound() {
    // Deeper walks: explore up to 64 plans from a grouping pipeline and
    // check every one of them.
    let mut db = database();
    let seed = Expr::named("S")
        .select(name_pred())
        .group_by(Expr::input().extract("grp"))
        .set_apply(Expr::input().dup_elim())
        .dup_elim();
    let base = db.run_plan(&seed).unwrap();
    let mut opt = Optimizer::standard();
    opt.max_plans = 64;
    let ctx = RuleCtx {
        registry: db.registry(),
        schemas: db.catalog(),
    };
    let plans = opt.explore(&seed, &ctx);
    assert!(plans.len() > 5, "exploration too shallow: {}", plans.len());
    for p in plans {
        let out = db.run_plan(&p).unwrap_or_else(|e| panic!("{p}: {e}"));
        assert_eq!(base, out, "plan {p}");
    }
}

#[test]
fn rel2_join_pushdown_fires_and_is_sound() {
    let mut db = database();
    db.put_object(
        "L",
        SchemaType::set(SchemaType::tuple([
            ("a", SchemaType::int4()),
            ("b", SchemaType::chars()),
        ])),
        Value::set(
            (0..6).map(|i| {
                Value::tuple([("a", Value::int(i % 3)), ("b", Value::str(format!("b{i}")))])
            }),
        ),
    );
    db.put_object(
        "R",
        SchemaType::set(SchemaType::tuple([
            ("c", SchemaType::int4()),
            ("d", SchemaType::chars()),
        ])),
        Value::set(
            (0..5).map(|i| {
                Value::tuple([("c", Value::int(i % 3)), ("d", Value::str(format!("d{i}")))])
            }),
        ),
    );
    let join = Expr::named("L").rel_join(
        Expr::named("R"),
        Pred::cmp(Expr::input().extract("a"), CmpOp::Eq, Expr::int(1)).and(Pred::cmp(
            Expr::input().extract("a"),
            CmpOp::Eq,
            Expr::input().extract("c"),
        )),
    );
    let base = db.run_plan(&join).unwrap();
    let opt = Optimizer::standard();
    let ctx = RuleCtx {
        registry: db.registry(),
        schemas: db.catalog(),
    };
    let neighbors = opt.neighbors(&join, &ctx);
    let pushed: Vec<_> = neighbors
        .iter()
        .filter(|(r, _)| *r == "rel2-push-select-into-join")
        .collect();
    assert!(!pushed.is_empty(), "rel2 never fired");
    for (_, alt) in neighbors {
        let out = db.run_plan(&alt).unwrap();
        assert_eq!(base, out, "plan {alt}");
    }
}

// ------------------------------------- rule A2 on nulls and identities

const A2: &str = "ruleA2-comp-reads-input";

/// `Emps`: one tuple `(e)` per salary in `salaries`, `e` a ref to an
/// `Emp` `(salary)` holding it, then one per value in `extra_refs` (a
/// null in place of the ref).  With `dangling`, the first `Emp` is
/// deleted.
fn emps_db(salaries: &[Value], extra_refs: &[Value], dangling: bool) -> Database {
    let mut db = Database::new();
    db.optimize = false;
    db.execute("define type Emp: (salary: int4)").unwrap();
    let ty = db.registry().lookup("Emp").unwrap();
    let mut refs: Vec<Value> = salaries
        .iter()
        .map(|s| {
            let emp = Value::tuple([("salary", s.clone())]);
            Value::Ref(db.store_mut().create_unchecked(ty, emp))
        })
        .collect();
    if dangling {
        let Value::Ref(oid) = refs[0] else {
            unreachable!("minted above")
        };
        db.store_mut().delete(oid).unwrap();
    }
    refs.extend(extra_refs.iter().cloned());
    db.put_object(
        "Emps",
        SchemaType::set(SchemaType::tuple([("e", SchemaType::reference("Emp"))])),
        Value::set(refs.into_iter().map(|r| Value::tuple([("e", r)]))),
    );
    db
}

/// The salary of the row bound `depth` binders out.
fn salary_at(depth: usize) -> Expr {
    Expr::input_at(depth).extract("e").deref().extract("salary")
}

/// `SET_APPLY[COMP[salary(INPUT^1) > 0](salary(INPUT))](Emps)`: the
/// `load` method's shape, its predicate re-deriving the `COMP`'s input.
fn rederived_salary_filter() -> Expr {
    Expr::named("Emps").set_apply(salary_at(0).comp(Pred::cmp(
        salary_at(1),
        CmpOp::Gt,
        Expr::int(0),
    )))
}

/// The one-step rewrites rule A2 proposes for `plan`.
fn a2_rewrites(db: &Database, plan: &Expr) -> Vec<Expr> {
    let ctx = RuleCtx {
        registry: db.registry(),
        schemas: db.catalog(),
    };
    Optimizer::standard()
        .neighbors(plan, &ctx)
        .into_iter()
        .filter(|(rule, _)| *rule == A2)
        .map(|(_, alt)| alt)
        .collect()
}

/// Rule A2's one rewrite of `plan`, and both plans' results: values, or
/// error texts.
fn a2_both_ways(db: &mut Database, plan: &Expr) -> (Expr, [Result<Value, String>; 2]) {
    let rewrites = a2_rewrites(db, plan);
    assert_eq!(rewrites.len(), 1, "{plan}: {rewrites:?}");
    let alt = rewrites.into_iter().next().expect("one rewrite");
    let mut run = |p: &Expr| db.run_plan(p).map_err(|e| e.to_string());
    let results = [run(plan), run(&alt)];
    (alt, results)
}

#[test]
fn rule_a2_reads_the_comp_input_once() {
    let mut db = emps_db(&[Value::int(5), Value::int(-1), Value::int(7)], &[], false);
    let plan = rederived_salary_filter();
    let (alt, [before, after]) = a2_both_ways(&mut db, &plan);
    assert_eq!(
        alt.to_string(),
        "SET_APPLY[COMP[INPUT > 0](TUP_EXTRACT[salary](DEREF(TUP_EXTRACT[e](INPUT))))](Emps)"
    );
    assert_eq!(before, after);
    assert_eq!(after.unwrap().to_string(), "{ 5, 7 }");
    db.run_plan(&plan).unwrap();
    assert_eq!(db.last_counters().derefs, 6);
    db.run_plan(&alt).unwrap();
    assert_eq!(db.last_counters().derefs, 3);
}

#[test]
fn rule_a2_keeps_unk_salaries_unk() {
    let salaries = [Value::int(5), Value::unk(), Value::int(-2), Value::unk()];
    let mut db = emps_db(&salaries, &[], false);
    let (_, [before, after]) = a2_both_ways(&mut db, &rederived_salary_filter());
    assert_eq!(before, after);
    assert_eq!(after.unwrap().to_string(), "{ 5, unk, unk }");
}

#[test]
fn rule_a2_keeps_a_dne_input_dne() {
    // Null refs: DEREF and TUP_EXTRACT pass `dne`/`unk` through, so the
    // input is that null and the predicate compares it.
    let mut db = emps_db(&[Value::int(3)], &[Value::dne(), Value::unk()], false);
    let (_, [before, after]) = a2_both_ways(&mut db, &rederived_salary_filter());
    assert_eq!(before, after);
    assert_eq!(after.unwrap().to_string(), "{ 3, unk }");
    // A bare `COMP` over `dne`, its predicate naming the input again.
    let dne = Expr::lit(Value::dne());
    let bare = dne.clone().comp(Pred::cmp(dne, CmpOp::Eq, Expr::int(0)));
    let (alt, [before, after]) = a2_both_ways(&mut db, &bare);
    assert_eq!(alt.to_string(), "COMP[INPUT = 0](dne)");
    assert_eq!(before, after);
    assert!(after.unwrap().is_dne());
}

#[test]
fn rule_a2_raises_a_dangling_ref_as_the_rederived_plan_does() {
    let mut db = emps_db(&[Value::int(5), Value::int(6)], &[], true);
    let (_, [before, after]) = a2_both_ways(&mut db, &rederived_salary_filter());
    let err = before.expect_err("the first Emp is deleted");
    assert!(err.contains("dangling OID"), "{err}");
    assert_eq!(after, Err(err));
}

#[test]
fn rule_a2_leaves_a_minting_input_alone() {
    // COMP[REF(salary(INPUT^1)) = …](REF(salary(INPUT))): re-deriving
    // the input mints a second object, so the predicate's operand is not
    // the input's value and the rule must not fire.
    let db = emps_db(&[Value::int(5)], &[], false);
    let minted = |depth| salary_at(depth).make_tup("salary").make_ref("Emp");
    let plan =
        Expr::named("Emps").set_apply(minted(0).comp(Pred::cmp(minted(1), CmpOp::Eq, minted(1))));
    assert!(a2_rewrites(&db, &plan).is_empty(), "{plan}");
    assert!(!a2_rewrites(&db, &rederived_salary_filter()).is_empty());
}
