//! Soundness battery for the plan property analysis.
//!
//! The analysis derives *claims* (collection kind, cardinality bounds,
//! duplicate-freeness, per-attribute presence/nullability, candidate
//! keys, functional dependencies) for every node of a plan.  This suite
//! generates random well-sorted pipelines over tuple extents seeded with
//! `dne`/`unk` values, evaluates every *closed* subexpression for real,
//! and asserts each derived claim against the actual value.

#![recursion_limit = "512"]

use excess::algebra::analysis::{analyze, Analysis, CollKind, Fact, Props};
use excess::algebra::expr::{Bound, CmpOp, Expr, Pred};
use excess::db::Database;
use excess::types::{Null, SchemaType, Value};
use proptest::prelude::*;
use std::collections::BTreeSet;

// ------------------------------------------------------------ claim checker

/// Every way `props` overclaims about the actual value `v`, rendered for
/// the failure message.  Empty means the claims are sound for this value.
fn claim_violations(v: &Value, p: &Props) -> Vec<String> {
    let mut out = Vec::new();
    match (p.coll, v) {
        (Some(CollKind::Set), Value::Set(_)) => {}
        (Some(CollKind::Array), Value::Array(_)) => {}
        (None, _) => {}
        (Some(k), other) => out.push(format!(
            "claimed coll={k:?} but the value is a {}",
            other.kind_name()
        )),
    }
    // Everything below is conditional on the value being a collection.
    let occurrences: Vec<(&Value, u64)> = match v {
        Value::Set(s) => s.iter_counted().collect(),
        Value::Array(a) => a.iter().map(|e| (e, 1)).collect(),
        _ => return out,
    };
    let card: u64 = occurrences.iter().map(|(_, c)| *c).sum();
    if card < p.card_lo {
        out.push(format!("claimed card ≥ {} but |v| = {card}", p.card_lo));
    }
    if let Some(hi) = p.card_hi {
        if card > hi {
            out.push(format!("claimed card ≤ {hi} but |v| = {card}"));
        }
    }
    if p.dup_free {
        let dup = match v {
            Value::Set(s) => s.iter_counted().any(|(_, c)| c > 1),
            Value::Array(a) => {
                let distinct: BTreeSet<&Value> = a.iter().collect();
                distinct.len() != a.len()
            }
            _ => false,
        };
        if dup {
            out.push("claimed dup_free but the value holds duplicates".into());
        }
    }
    if p.tuple_only {
        if let Some((e, _)) = occurrences
            .iter()
            .find(|(e, _)| !matches!(e, Value::Tuple(_)))
        {
            out.push(format!(
                "claimed tuple_only but found a {} element",
                e.kind_name()
            ));
        }
    }
    let tuples: Vec<&excess::types::Tuple> = occurrences
        .iter()
        .filter_map(|(e, _)| e.as_tuple())
        .collect();
    for (name, ap) in &p.attrs {
        for t in &tuples {
            match t.get(name) {
                None => {
                    if ap.present == Fact::Always {
                        out.push(format!("claimed {name} always present; a tuple lacks it"));
                    }
                }
                Some(fv) => {
                    if ap.present == Fact::Never {
                        out.push(format!("claimed {name} never present; a tuple has it"));
                    }
                    let is_dne = matches!(fv, Value::Null(Null::Dne));
                    let is_unk = matches!(fv, Value::Null(Null::Unk));
                    match (ap.dne, is_dne) {
                        (Fact::Always, false) => {
                            out.push(format!("claimed {name} always dne; found {fv}"))
                        }
                        (Fact::Never, true) => {
                            out.push(format!("claimed {name} never dne; found dne"))
                        }
                        _ => {}
                    }
                    match (ap.unk, is_unk) {
                        (Fact::Always, false) => {
                            out.push(format!("claimed {name} always unk; found {fv}"))
                        }
                        (Fact::Never, true) => {
                            out.push(format!("claimed {name} never unk; found unk"))
                        }
                        _ => {}
                    }
                    if let Some(k) = ap.kind {
                        if !is_dne && !is_unk && fv.kind_name() != k {
                            out.push(format!(
                                "claimed {name}: {k} but found a {}",
                                fv.kind_name()
                            ));
                        }
                    }
                }
            }
        }
    }
    if p.attrs_exhaustive {
        for t in &tuples {
            for f in t.field_names() {
                if !p.attrs.contains_key(f) {
                    out.push(format!("claimed attrs exhaustive; tuple has extra {f}"));
                }
            }
        }
    }
    // A key claim: no two occurrences (counting multiplicity) agree on
    // every key attribute.
    for key in &p.keys {
        let mut seen: BTreeSet<Vec<Option<String>>> = BTreeSet::new();
        for (e, c) in &occurrences {
            let Some(t) = e.as_tuple() else { continue };
            let proj: Vec<Option<String>> = key
                .iter()
                .map(|k| t.get(k).map(|fv| fv.to_string()))
                .collect();
            if *c > 1 || !seen.insert(proj) {
                out.push(format!("claimed key {key:?} but projections collide"));
                break;
            }
        }
    }
    // An FD claim lhs→rhs: occurrences agreeing on lhs agree on rhs.
    for (lhs, rhs) in &p.fds {
        let mut map: std::collections::BTreeMap<Vec<Option<String>>, Option<String>> =
            Default::default();
        for (e, _) in &occurrences {
            let Some(t) = e.as_tuple() else { continue };
            let l: Vec<Option<String>> = lhs
                .iter()
                .map(|k| t.get(k).map(|fv| fv.to_string()))
                .collect();
            let r = t.get(rhs).map(|fv| fv.to_string());
            match map.get(&l) {
                None => {
                    map.insert(l, r);
                }
                Some(prev) if *prev != r => {
                    out.push(format!("claimed FD {lhs:?}→{rhs} violated"));
                    break;
                }
                Some(_) => {}
            }
        }
    }
    out
}

/// The subexpression at `path` (children indexed in `Expr::children()`
/// order, exactly as the analysis journal records them).
fn subexpr_at<'a>(e: &'a Expr, path: &[usize]) -> Option<&'a Expr> {
    path.iter()
        .try_fold(e, |cur, &i| cur.children().get(i).copied())
}

/// True when the subexpression mentions no free `Input` at any depth —
/// i.e. it can be evaluated standalone against the catalog.
fn closed(e: &Expr) -> bool {
    (0..16).all(|d| !e.mentions_input(d))
}

/// Evaluate every closed analysed node of `plan` and return all claim
/// violations, labelled with the node path.
fn violations_for(db: &mut Database, plan: &Expr, a: &Analysis) -> Vec<String> {
    let mut out = Vec::new();
    for (path, props) in &a.props {
        let Some(sub) = subexpr_at(plan, path) else {
            continue;
        };
        if !closed(sub) {
            continue;
        }
        let sub = sub.clone();
        let Ok(value) = db.run_plan(&sub) else {
            continue; // ill-sorted fragment: nothing to claim against
        };
        for v in claim_violations(&value, props) {
            out.push(format!("at {path:?} ({sub}): {v}"));
        }
    }
    out
}

// ---------------------------------------------------------------- generator

/// One field value for a generated extent tuple: a plain int, `unk`, or
/// `dne` — so the nullability lattice is exercised end to end.
#[derive(Debug, Clone, Copy)]
enum Score {
    Int(i32),
    Unk,
    Dne,
}

impl Score {
    fn value(self) -> Value {
        match self {
            Score::Int(i) => Value::int(i),
            Score::Unk => Value::Null(Null::Unk),
            Score::Dne => Value::Null(Null::Dne),
        }
    }
}

fn arb_score() -> impl Strategy<Value = Score> {
    prop_oneof![
        (0i32..6).prop_map(Score::Int),
        Just(Score::Unk),
        Just(Score::Dne),
    ]
}

/// One pipeline stage over a set of `(id, dept, score)` tuples.  Stages
/// that do not fit the current sort are skipped during `build`, exactly
/// like the `property_pipelines` battery.
#[derive(Debug, Clone)]
enum Stage {
    DupElim,
    SelectDeptGe(i32),
    SelectScoreEq(i32),
    SelectUnsat,
    ProjectIdDept,
    ProjectDept,
    GroupByDeptCollapse,
    ExtractDept,
    AddUnionB,
    DiffB,
    IntersectB,
    UnionB,
    JoinB,
}

fn arb_stage() -> impl Strategy<Value = Stage> {
    prop_oneof![
        Just(Stage::DupElim),
        (0i32..4).prop_map(Stage::SelectDeptGe),
        (0i32..6).prop_map(Stage::SelectScoreEq),
        Just(Stage::SelectUnsat),
        Just(Stage::ProjectIdDept),
        Just(Stage::ProjectDept),
        Just(Stage::GroupByDeptCollapse),
        Just(Stage::ExtractDept),
        Just(Stage::AddUnionB),
        Just(Stage::DiffB),
        Just(Stage::IntersectB),
        Just(Stage::UnionB),
        Just(Stage::JoinB),
    ]
}

fn dept_of(e: Expr) -> Expr {
    e.extract("dept")
}

/// Compose stages into a well-sorted plan over `PA`/`PB`.
fn build(stages: &[Stage]) -> Expr {
    let mut e = Expr::named("PA");
    let mut tuples = true; // current sort: set of tuples vs set of scalars
    let mut joined = false; // one join max, to keep field names stable
    for s in stages {
        match s {
            Stage::DupElim => e = e.dup_elim(),
            Stage::SelectDeptGe(k) if tuples => {
                e = e.select(Pred::cmp(dept_of(Expr::input()), CmpOp::Ge, Expr::int(*k)));
            }
            Stage::SelectScoreEq(k) if tuples && !joined => {
                // `score` carries dne/unk: three-valued selection.
                e = e.select(Pred::eq(Expr::input().extract("score"), Expr::int(*k)));
            }
            Stage::SelectUnsat if tuples => {
                e = e.select(
                    Pred::eq(Expr::input().extract("id"), Expr::int(1))
                        .and(Pred::eq(Expr::input().extract("id"), Expr::int(2))),
                );
            }
            Stage::ProjectIdDept if tuples && !joined => {
                e = e.set_apply(Expr::input().project(["id", "dept"]));
            }
            Stage::ProjectDept if tuples && !joined => {
                e = e.set_apply(Expr::input().project(["dept"]));
            }
            Stage::GroupByDeptCollapse if tuples => {
                e = e.group_by(dept_of(Expr::input())).set_collapse();
            }
            Stage::ExtractDept if tuples => {
                e = e.set_apply(dept_of(Expr::input()));
                tuples = false;
            }
            Stage::AddUnionB if tuples && !joined => e = e.add_union(Expr::named("PB")),
            Stage::DiffB if tuples && !joined => e = e.diff(Expr::named("PB")),
            Stage::IntersectB if tuples && !joined => {
                e = Expr::Intersect(Box::new(e), Box::new(Expr::named("PB")));
            }
            Stage::UnionB if tuples && !joined => {
                e = Expr::Union(Box::new(e), Box::new(Expr::named("PB")));
            }
            Stage::JoinB if tuples && !joined => {
                // Tuple::cat primes the clashing right-side fields.
                e = e.rel_join(
                    Expr::named("PB"),
                    Pred::eq(dept_of(Expr::input()), Expr::input().extract("dept'")),
                );
                joined = true;
            }
            _ => {} // stage invalid in the current sort: skip
        }
    }
    e
}

fn person(id: i32, dept: i32, score: Score) -> Value {
    Value::tuple([
        ("id".to_string(), Value::int(id)),
        ("dept".to_string(), Value::int(dept)),
        ("score".to_string(), score.value()),
    ])
}

fn person_schema() -> SchemaType {
    SchemaType::set(SchemaType::tuple([
        ("id", SchemaType::int4()),
        ("dept", SchemaType::int4()),
        ("score", SchemaType::int4()),
    ]))
}

/// Two tuple extents; `id` is distinct within each, `dept` repeats,
/// `score` mixes ints with `unk`/`dne`.
fn database(a: &[(i32, Score)], b: &[(i32, Score)]) -> Database {
    let mut db = Database::new();
    db.optimize = false;
    db.put_object(
        "PA",
        person_schema(),
        Value::set(
            a.iter()
                .enumerate()
                .map(|(i, (d, s))| person(i as i32, *d, *s)),
        ),
    );
    db.put_object(
        "PB",
        person_schema(),
        Value::set(
            b.iter()
                .enumerate()
                .map(|(i, (d, s))| person(100 + i as i32, *d, *s)),
        ),
    );
    db.collect_stats();
    db
}

// -------------------------------------------------------------- the battery

/// Every claim at every closed node holds on the evaluated value.
fn check_claims(stages: &[Stage], a: &[(i32, Score)], b: &[(i32, Score)]) {
    let plan = build(stages);
    let mut db = database(a, b);
    let analysis = analyze(&plan, db.catalog());
    let violations = violations_for(&mut db, &plan, &analysis);
    assert!(
        violations.is_empty(),
        "analysis overclaimed on {plan}:\n{}",
        violations.join("\n")
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn derived_claims_hold_on_actual_results(
        stages in prop::collection::vec(arb_stage(), 0..6),
        a in prop::collection::vec((0i32..3, arb_score()), 0..8),
        b in prop::collection::vec((0i32..3, arb_score()), 0..6)
    ) {
        check_claims(&stages, &a, &b);
    }
}

// ------------------------------------------------------------- array corner

/// Deterministic array-algebra sweep: the same claim checker over every
/// prefix of an array pipeline exercising ARR_DE, ARR_SELECT, SUBARR,
/// and ARR_CAT (rejected ARR_SELECT elements leave nulls behind, so only
/// the length bound survives — the checker confirms nothing stronger is
/// claimed).
#[test]
fn array_pipeline_claims_hold() {
    let base = Expr::lit(Value::array([
        Value::int(3),
        Value::int(1),
        Value::int(3),
        Value::Null(Null::Unk),
        Value::int(7),
    ]));
    let steps: Vec<Expr> = vec![
        base.clone(),
        Expr::ArrDupElim(Box::new(base.clone())),
        base.clone().subarr(Bound::At(1), Bound::At(3)),
        Expr::ArrSelect {
            input: Box::new(base.clone()),
            pred: Pred::cmp(Expr::input(), CmpOp::Ge, Expr::int(2)),
        },
        base.clone()
            .arr_cat(Expr::lit(Value::array([Value::int(9)]))),
        Expr::ArrDupElim(Box::new(
            base.clone()
                .arr_cat(base.clone())
                .subarr(Bound::At(0), Bound::At(6)),
        )),
    ];
    let mut db = database(&[], &[]);
    for plan in steps {
        let analysis = analyze(&plan, db.catalog());
        let violations = violations_for(&mut db, &plan, &analysis);
        assert!(
            violations.is_empty(),
            "analysis overclaimed on {plan}:\n{}",
            violations.join("\n")
        );
    }
}
