//! A two-variable equi-join is translated to the paper's `rel_join` (§3.4:
//! "everything in the retrieval list is combined using either joins or
//! cross-products") when product typing holds, and to nested `SET_APPLY`
//! binders otherwise.  Each query below is checked against the correlated
//! form, built here with `Expr` builders exactly as the nested-binder
//! translation spells it: the result must be canon-identical under the
//! naive evaluator (`Database::run_plan`) and through a served `Session`
//! (optimized, lowered, hash kernels and all).  Queries that must keep the
//! correlated form are checked to translate to it.

mod common;

use excess::algebra::canonical_form;
use excess::algebra::expr::{CmpOp, Expr, Pred};
use excess::db::{value_json, Database, VersionedDb};
use excess::types::{SchemaType, Value};
use excess_workload::UniversityParams;

/// `L(k, a, name)` and `R(j, b)`: disjoint attribute names.  `Dups` and
/// `RDups` repeat each element, `Nulls`/`RNulls` carry `dne`/`unk` join
/// keys, `UnkA` an `unk` in a residual attribute, `Empty` nothing.
fn database() -> Database {
    let l = |k: Value, a: Value, i: i32| {
        Value::tuple([("k", k), ("a", a), ("name", Value::str(format!("l{i}")))])
    };
    let r = |j: Value, b: i32| Value::tuple([("j", j), ("b", Value::int(b))]);
    let l_ty = SchemaType::set(SchemaType::tuple([
        ("k", SchemaType::int4()),
        ("a", SchemaType::int4()),
        ("name", SchemaType::chars()),
    ]));
    let r_ty = SchemaType::set(SchemaType::tuple([
        ("j", SchemaType::int4()),
        ("b", SchemaType::int4()),
    ]));
    let mut db = Database::new();
    let ls = (0..24).map(|i| l(Value::int(i % 6), Value::int(i % 4), i));
    db.put_object("L", l_ty.clone(), Value::set(ls));
    let rs = (0..16).map(|i| r(Value::int(i % 5), i % 7));
    db.put_object("R", r_ty.clone(), Value::set(rs));
    // Few distinct elements, each many times over.
    let dups = (0..40).map(|i| l(Value::int(i % 3), Value::int(i % 2), i % 4));
    db.put_object("Dups", l_ty.clone(), Value::set(dups));
    let rdups = (0..30).map(|i| r(Value::int(i % 3), i % 2));
    db.put_object("RDups", r_ty.clone(), Value::set(rdups));
    let nulls = (0..12).map(|i| {
        let k = match i % 4 {
            0 => Value::dne(),
            1 => Value::unk(),
            _ => Value::int(i % 3),
        };
        l(k, Value::int(i % 2), i)
    });
    db.put_object("Nulls", l_ty.clone(), Value::set(nulls));
    let rnulls = (0..10).map(|i| {
        let j = match i % 5 {
            0 => Value::unk(),
            1 => Value::dne(),
            _ => Value::int(i % 3),
        };
        r(j, i)
    });
    db.put_object("RNulls", r_ty.clone(), Value::set(rnulls));
    let unk_a = (0..24).map(|i| {
        let a = if i % 3 == 0 {
            Value::unk()
        } else {
            Value::int(i % 5)
        };
        l(Value::int(i % 4), a, i)
    });
    db.put_object("UnkA", l_ty, Value::set(unk_a));
    db.put_object("Empty", r_ty, Value::set([]));
    db.collect_stats();
    db
}

/// One query over two variables `X` (left) and `Y` (right): its text and
/// the pieces of its correlated form, each a function of the expressions
/// that read `X` and `Y` where the piece sits.
struct Query {
    text: &'static str,
    left: &'static str,
    right: &'static str,
    target: fn(Expr, Expr) -> Expr,
    theta: fn(Expr, Expr) -> Pred,
    by: Option<fn(Expr, Expr) -> Expr>,
    unique: bool,
}

/// The nested-binder translation: `SET_APPLY[SET_APPLY[COMP[θ](t)](R)](L)`
/// collapsed, or with `by`, `GRP` over the `COMP`ed combination tuples
/// `(X: …, Y: …)` and the target per group.
fn correlated(q: &Query) -> Expr {
    let theta = (q.theta)(Expr::input_at(2), Expr::input_at(1));
    let nested = |body: Expr| {
        Expr::named(q.left)
            .set_apply(Expr::named(q.right).set_apply(body.comp(theta.clone())))
            .set_collapse()
    };
    match q.by {
        None => {
            let plan = nested((q.target)(Expr::input_at(1), Expr::input()));
            if q.unique {
                plan.dup_elim()
            } else {
                plan
            }
        }
        Some(by) => {
            let combo = Expr::input_at(1)
                .make_tup("X")
                .tup_cat(Expr::input().make_tup("Y"));
            let x = || Expr::input().extract("X");
            let y = || Expr::input().extract("Y");
            let mut group = Expr::input().set_apply((q.target)(x(), y()));
            if q.unique {
                group = group.dup_elim();
            }
            nested(combo).group_by(by(x(), y())).set_apply(group)
        }
    }
}

fn has_rel_join(e: &Expr) -> bool {
    matches!(e, Expr::RelJoin { .. }) || e.children().into_iter().any(has_rel_join)
}

/// `SET_APPLY[SET_APPLY[COMP[…](…)](…)](…)`: the correlated form of a
/// two-variable join.
fn is_correlated_join(e: &Expr) -> bool {
    let Expr::SetApply { body, .. } = e else {
        return false;
    };
    matches!(&**body, Expr::SetApply { body, .. } if matches!(**body, Expr::Comp { .. }))
}

fn canon_json(db: &Database, v: &Value) -> String {
    value_json(&canonical_form(v, db.store()))
}

/// The query translates to a `rel_join`, and its result — naive and
/// served — is the correlated form's.  Returns whether the served plan
/// hashed the join.
fn assert_joined_like_correlated(q: &Query) -> bool {
    let mut db = database();
    let plan = common::plan_of(&mut db, q.text);
    assert!(has_rel_join(&plan), "{}: {plan}", q.text);
    let expected = db.run_plan(&correlated(q)).unwrap();
    let expected = canon_json(&db, &expected);
    let joined = db.run_plan(&plan).unwrap();
    assert_eq!(canon_json(&db, &joined), expected, "{}: run_plan", q.text);

    let vdb = VersionedDb::new(database());
    let mut session = vdb.begin_session();
    for _ in 0..2 {
        // A miss, then a plan-cache hit.
        let served = session.query(q.text).unwrap();
        assert_eq!(
            value_json(&session.canon(&served.value)),
            expected,
            "{}: served",
            q.text
        );
    }
    let kernels = &session
        .telemetry()
        .recorder
        .records()
        .last()
        .unwrap()
        .kernels;
    let hashed = kernels.iter().any(|(_, k)| k.starts_with("HashEquiJoin"));
    drop(session);
    vdb.shutdown();
    hashed
}

/// The query keeps the correlated form, exactly as built here.
fn assert_stays_correlated(q: &Query) {
    let mut db = database();
    let plan = common::plan_of(&mut db, q.text);
    assert_eq!(plan, correlated(q), "{}", q.text);
}

fn pair(x: Expr, y: Expr) -> Expr {
    x.extract("name")
        .make_tup("name")
        .tup_cat(y.extract("b").make_tup("b"))
}

fn k_eq_j(x: Expr, y: Expr) -> Pred {
    Pred::cmp(x.extract("k"), CmpOp::Eq, y.extract("j"))
}

fn by_k(x: Expr, _: Expr) -> Expr {
    x.extract("k")
}

fn q(text: &'static str, left: &'static str, right: &'static str) -> Query {
    Query {
        text,
        left,
        right,
        target: pair,
        theta: k_eq_j,
        by: None,
        unique: false,
    }
}

#[test]
fn a_plain_equi_join_is_the_correlated_one() {
    assert!(assert_joined_like_correlated(&q(
        "range of X is L range of Y is R retrieve (X.name, Y.b) where X.k = Y.j",
        "L",
        "R",
    )));
    // One bare attribute: the body is `TUP_EXTRACT`, not `π`.
    assert_joined_like_correlated(&Query {
        target: |_, y| y.extract("b"),
        theta: |x, y| Pred::cmp(y.extract("j"), CmpOp::Eq, x.extract("k")),
        unique: true,
        ..q(
            "range of X is L range of Y is R retrieve unique (Y.b) where Y.j = X.k",
            "L",
            "R",
        )
    });
}

#[test]
fn null_join_keys_give_the_correlated_result_with_and_without_by() {
    for (text, left, right) in [
        (
            "range of X is Nulls range of Y is R retrieve (X.name, Y.b) where X.k = Y.j",
            "Nulls",
            "R",
        ),
        (
            "range of X is L range of Y is RNulls retrieve (X.name, Y.b) where X.k = Y.j",
            "L",
            "RNulls",
        ),
        (
            "range of X is Nulls range of Y is RNulls retrieve (X.name, Y.b) where X.k = Y.j",
            "Nulls",
            "RNulls",
        ),
    ] {
        assert_joined_like_correlated(&q(text, left, right));
    }
    for (text, unique) in [
        (
            "range of X is Nulls range of Y is RNulls \
             retrieve (X.name, Y.b) by X.k where X.k = Y.j",
            false,
        ),
        (
            "range of X is Nulls range of Y is RNulls \
             retrieve unique (X.name, Y.b) by X.k where X.k = Y.j",
            true,
        ),
    ] {
        assert_joined_like_correlated(&Query {
            by: Some(by_k),
            unique,
            ..q(text, "Nulls", "RNulls")
        });
    }
}

#[test]
fn unk_rows_of_a_residual_go_through_the_body() {
    // `X.a` is `unk` on every third row: those pairs' residual is U, the
    // join emits `unk`, and `π(unk) = unk` is what the `COMP` gave.
    let residual = |x: Expr, y: Expr| {
        k_eq_j(x.clone(), y.clone()).and(Pred::cmp(x.extract("a"), CmpOp::Lt, y.extract("b")))
    };
    for (text, unique) in [
        (
            "range of X is UnkA range of Y is R retrieve (X.name, Y.b) where X.k = Y.j and X.a < Y.b",
            false,
        ),
        (
            "range of X is UnkA range of Y is R \
             retrieve unique (X.name, Y.b) where X.k = Y.j and X.a < Y.b",
            true,
        ),
    ] {
        let hashed = assert_joined_like_correlated(&Query {
            theta: residual,
            unique,
            ..q(text, "UnkA", "R")
        });
        assert!(hashed, "{text}");
    }
    assert_joined_like_correlated(&Query {
        theta: residual,
        by: Some(by_k),
        unique: true,
        ..q(
            "range of X is UnkA range of Y is R \
             retrieve unique (X.name, Y.b) by X.k where X.k = Y.j and X.a < Y.b",
            "UnkA",
            "R",
        )
    });
}

#[test]
fn duplicate_heavy_and_empty_sides_give_the_correlated_result() {
    for unique in [false, true] {
        let text = if unique {
            "range of X is Dups range of Y is RDups retrieve unique (X.name, Y.b) where X.k = Y.j"
        } else {
            "range of X is Dups range of Y is RDups retrieve (X.name, Y.b) where X.k = Y.j"
        };
        let hashed = assert_joined_like_correlated(&Query {
            unique,
            ..q(text, "Dups", "RDups")
        });
        assert!(hashed, "{text}");
    }
    assert_joined_like_correlated(&Query {
        by: Some(by_k),
        unique: true,
        ..q(
            "range of X is Dups range of Y is RDups \
             retrieve unique (X.name, Y.b) by X.k where X.k = Y.j",
            "Dups",
            "RDups",
        )
    });
    assert_joined_like_correlated(&q(
        "range of X is L range of Y is Empty retrieve (X.name, Y.b) where X.k = Y.j",
        "L",
        "Empty",
    ));
    assert_joined_like_correlated(&Query {
        by: Some(by_k),
        ..q(
            "range of X is L range of Y is Empty retrieve (X.name, Y.b) by X.k where X.k = Y.j",
            "L",
            "Empty",
        )
    });
}

#[test]
fn a_residual_conjunct_and_a_disjunction_give_the_correlated_result() {
    assert_joined_like_correlated(&Query {
        theta: |x, y| {
            k_eq_j(x.clone(), y.clone()).and(Pred::cmp(x.extract("a"), CmpOp::Ge, y.extract("b")))
        },
        ..q(
            "range of X is L range of Y is R retrieve (X.name, Y.b) where X.k = Y.j and X.a >= Y.b",
            "L",
            "R",
        )
    });
    // a ∨ b is ¬(¬a ∧ ¬b) in the algebra.
    assert_joined_like_correlated(&Query {
        theta: |x, y| {
            let a = Pred::cmp(x.clone().extract("a"), CmpOp::Lt, Expr::int(2));
            let b = Pred::cmp(y.clone().extract("b"), CmpOp::Gt, Expr::int(4));
            k_eq_j(x, y).and(Pred::Not(Box::new(a.not().and(b.not()))))
        },
        ..q(
            "range of X is L range of Y is R \
             retrieve (X.name, Y.b) where X.k = Y.j and (X.a < 2 or Y.b > 4)",
            "L",
            "R",
        )
    });
    // With the equi conjunct under the `or` there is no join key: the
    // query keeps its nested binders.
    assert_stays_correlated(&Query {
        theta: |x, y| {
            let a = Pred::cmp(x.clone().extract("a"), CmpOp::Eq, y.clone().extract("b"));
            Pred::Not(Box::new(k_eq_j(x, y).not().and(a.not())))
        },
        ..q(
            "range of X is L range of Y is R retrieve (X.name, Y.b) where X.k = Y.j or X.a = Y.b",
            "L",
            "R",
        )
    });
}

#[test]
fn clashing_names_whole_variables_renames_and_three_variables_stay_correlated() {
    // A self-join: the two sides share every attribute name.
    assert_stays_correlated(&Query {
        target: |x, y| {
            x.extract("a")
                .make_tup("a")
                .tup_cat(y.extract("name").make_tup("name"))
        },
        theta: |x, y| Pred::cmp(x.extract("k"), CmpOp::Eq, y.extract("a")),
        ..q(
            "range of X is L range of Y is L retrieve (X.a, Y.name) where X.k = Y.a",
            "L",
            "L",
        )
    });
    // The whole variable in the target.
    assert_stays_correlated(&Query {
        target: |x, _| x,
        ..q(
            "range of X is L range of Y is R retrieve (X) where X.k = Y.j",
            "L",
            "R",
        )
    });
    // A renamed target without `by`: `TUP[n](unk)` is not `unk`.
    assert_stays_correlated(&Query {
        target: |x, y| {
            x.extract("name")
                .make_tup("n")
                .tup_cat(y.extract("b").make_tup("b"))
        },
        ..q(
            "range of X is L range of Y is R retrieve (n = X.name, Y.b) where X.k = Y.j",
            "L",
            "R",
        )
    });
    // Three variables.
    let mut db = database();
    let plan = common::plan_of(
        &mut db,
        "range of X is L range of Y is R range of Z is Dups \
         retrieve (X.name, Y.b) where X.k = Y.j and Z.k = Y.j",
    );
    assert!(!has_rel_join(&plan), "{plan}");
}

#[test]
fn a_subtype_attribute_that_clashes_keeps_the_correlated_form() {
    let mut db = database();
    db.execute(
        "define type Row: (k: int4, a: int4)
         define type WideRow: (b: int4) inherits Row",
    )
    .unwrap();
    let rows = (0..6).map(|i| Value::tuple([("k", Value::int(i)), ("a", Value::int(i))]));
    db.put_object(
        "Rows",
        SchemaType::set(SchemaType::named("Row")),
        Value::set(rows),
    );
    let text = "range of X is Rows range of Y is R retrieve (X.a, Y.b) where X.k = Y.j";
    // `WideRow`'s `b` meets `R`'s `b`: a `TUP_CAT` would rename it.
    let plan = common::plan_of(&mut db, text);
    assert!(!has_rel_join(&plan), "{plan}");
    let Expr::SetCollapse(nested) = &plan else {
        panic!("{plan}")
    };
    assert!(is_correlated_join(nested), "{plan}");
}

#[test]
fn ref_extents_stay_correlated() {
    let mut db = common::served_university(&UniversityParams::tiny());
    let plan = common::plan_of(
        &mut db,
        "range of S is Students range of E is Employees \
         retrieve (S.name, E.salary) where S.name = E.name",
    );
    assert!(!has_rel_join(&plan), "{plan}");
    let Expr::SetCollapse(nested) = &plan else {
        panic!("{plan}")
    };
    assert!(is_correlated_join(nested), "{plan}");
}
