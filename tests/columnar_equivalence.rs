//! Equivalence battery for the columnar kernels.
//!
//! The columnar pipeline encodes base extents into column chunks and runs
//! vectorized kernels (scan, hash equi-join, hash group, hash distinct)
//! where the lowering proves them chunk-safe.  This suite generates random
//! extents — nullable cells (`dne`/`unk`), duplicate occurrences with
//! multiset weights, empty extents, all-null columns — and random
//! chunk-compilable-or-not predicates, then asserts:
//!
//! * serial columnar execution is canon-identical *and counter-identical*
//!   to the row evaluator (when the lowering refuses, the plan simply is
//!   the row plan, and the assertion holds trivially);
//! * partition-parallel columnar execution (`EXCESS_THREADS=4`
//!   configuration) stays canon-identical;
//! * `Chunk::slice` is a partition: the row-range slices of a chunk
//!   ⊎-sum back to the whole chunk's decoding.

use excess::algebra::expr::{CmpOp, Expr, Pred};
use excess::db::{Database, ExecConfig, Tracing};
use excess::types::{Chunk, MultiSet, Null, SchemaType, Value};
use proptest::prelude::*;
use std::collections::BTreeSet;

// ------------------------------------------------------------- generators

/// One nullable int cell: mostly values, sometimes one of the two nulls.
fn arb_int_cell() -> impl Strategy<Value = Value> {
    (0i32..8).prop_map(|i| match i {
        6 => Value::Null(Null::Dne),
        7 => Value::Null(Null::Unk),
        v => Value::int(v),
    })
}

/// One nullable string cell over a small alphabet.
fn arb_str_cell() -> impl Strategy<Value = Value> {
    (0i32..6).prop_map(|i| match i {
        4 => Value::Null(Null::Dne),
        5 => Value::Null(Null::Unk),
        v => Value::str(format!("s{v}")),
    })
}

/// Rows for the left extent `L(a, b, k)`: nullable ints and strings with
/// multiset weights 1–3.
fn arb_left_rows() -> impl Strategy<Value = Vec<(Value, Value, Value, u64)>> {
    prop::collection::vec(
        (arb_int_cell(), arb_str_cell(), arb_int_cell(), 1u64..4),
        0..14,
    )
}

/// Rows for the right extent `R(j, c)` — field names disjoint from `L`'s.
fn arb_right_rows() -> impl Strategy<Value = Vec<(Value, Value, u64)>> {
    prop::collection::vec((arb_int_cell(), arb_str_cell(), 1u64..4), 0..12)
}

/// One comparison the scan compiler accepts: bare attribute vs literal.
fn arb_cmp() -> impl Strategy<Value = Pred> {
    let op = prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ];
    (op, any::<bool>(), 0i32..6).prop_map(|(op, on_int, lit)| {
        if on_int {
            Pred::cmp(Expr::input().extract("a"), op, Expr::int(lit))
        } else {
            Pred::cmp(
                Expr::input().extract("b"),
                op,
                Expr::str(format!("s{}", lit % 4)),
            )
        }
    })
}

/// A 1–2 conjunct filter; occasionally wrapped in `Not` so the battery
/// also covers predicates the chunk compiler *refuses* (the row fallback
/// must then carry the query unchanged).
fn arb_pred() -> impl Strategy<Value = Pred> {
    (arb_cmp(), arb_cmp(), any::<bool>(), any::<bool>()).prop_map(|(p, q, two, negate)| {
        let base = if two { p.and(q) } else { p };
        if negate {
            Pred::Not(Box::new(base))
        } else {
            base
        }
    })
}

fn left_schema() -> SchemaType {
    SchemaType::set(SchemaType::tuple([
        ("a", SchemaType::int4()),
        ("b", SchemaType::chars()),
        ("k", SchemaType::int4()),
    ]))
}

fn right_schema() -> SchemaType {
    SchemaType::set(SchemaType::tuple([
        ("j", SchemaType::int4()),
        ("c", SchemaType::chars()),
    ]))
}

fn build_db(left: &[(Value, Value, Value, u64)], right: &[(Value, Value, u64)]) -> Database {
    let mut db = Database::new();
    db.optimize = false;
    db.set_threads(1);
    let mut l = MultiSet::new();
    for (a, b, k, w) in left {
        l.insert_n(
            Value::tuple([("a", a.clone()), ("b", b.clone()), ("k", k.clone())]),
            *w,
        );
    }
    let mut r = MultiSet::new();
    for (j, c, w) in right {
        r.insert_n(Value::tuple([("j", j.clone()), ("c", c.clone())]), *w);
    }
    db.put_object("L", left_schema(), Value::Set(l));
    db.put_object("R", right_schema(), Value::Set(r));
    db.collect_stats();
    db
}

/// The four plan shapes the columnar lowering can upgrade.
fn plans(pred: &Pred) -> Vec<(&'static str, Expr)> {
    vec![
        ("scan", Expr::named("L").select(pred.clone())),
        (
            "join",
            Expr::named("L").rel_join(
                Expr::named("R"),
                Pred::cmp(
                    Expr::input().extract("k"),
                    CmpOp::Eq,
                    Expr::input().extract("j"),
                ),
            ),
        ),
        (
            "group",
            Expr::named("L").group_by(Expr::input().extract("a")),
        ),
        ("distinct", Expr::named("L").dup_elim()),
    ]
}

fn canon(db: &Database, v: &Value) -> Value {
    excess::algebra::canon::canonical_form(v, db.store())
}

// ------------------------------------------------------------- properties

fn check_serial(left: &[(Value, Value, Value, u64)], right: &[(Value, Value, u64)], pred: &Pred) {
    let mut db = build_db(left, right);
    for (label, plan) in plans(pred) {
        // Row baseline: the lowered plan *without* the columnar pass —
        // the same row kernels (hash join/group/distinct) the columnar
        // kernels must replicate counter-for-counter.
        db.columnar = false;
        let (row_pp, _) = db.lower_plan(&plan);
        let row_value = db.run_lowered(&row_pp, Tracing::Off).unwrap().value;
        let row_counters = db.last_counters();
        // And the plain evaluator confirms the value itself.
        let eval_value = db.run_plan(&plan).unwrap();
        assert_eq!(
            canon(&db, &row_value),
            canon(&db, &eval_value),
            "{label}: row kernels diverged from plain evaluation"
        );
        db.columnar = true;
        let (pp, _) = db.lower_plan(&plan);
        let col_value = db.run_lowered(&pp, Tracing::Off).unwrap().value;
        let col_counters = db.last_counters();
        assert_eq!(
            canon(&db, &row_value),
            canon(&db, &col_value),
            "{label}: columnar result diverged\nplan: {plan}"
        );
        assert_eq!(
            row_counters,
            col_counters,
            "{label}: columnar counters diverged\nplan: {plan}\nphysical:\n{}",
            pp.render()
        );
    }
}

fn check_parallel(left: &[(Value, Value, Value, u64)], right: &[(Value, Value, u64)], pred: &Pred) {
    for (label, plan) in plans(pred) {
        let mut serial_db = build_db(left, right);
        let expected = serial_db.run_plan(&plan).unwrap();
        let mut db = build_db(left, right);
        db.columnar = true;
        db.set_exec_config(ExecConfig::with_workers(4));
        let got = db.run_query_plan(label, &plan).unwrap();
        assert_eq!(
            canon(&serial_db, &expected),
            canon(&db, &got),
            "{label}: parallel columnar result diverged\nplan: {plan}"
        );
    }
}

fn check_slices(left: &[(Value, Value, Value, u64)]) {
    let db = build_db(left, &[]);
    let Some(Value::Set(set)) = db.catalog().value("L").cloned() else {
        panic!("L is a set");
    };
    let Some(chunk) = Chunk::encode(&set, &BTreeSet::new()) else {
        return; // non-uniform rows never chunk-encode; nothing to split
    };
    // Slices at every boundary are a partition of the rows: the decoded
    // pieces ⊎-sum back to the full decoding, and lengths telescope.
    for split in 0..=chunk.len() {
        let lo = chunk.slice(0, split);
        let hi = chunk.slice(split, chunk.len());
        assert_eq!(lo.len() + hi.len(), chunk.len());
        assert_eq!(
            lo.total_occurrences() + hi.total_occurrences(),
            chunk.total_occurrences()
        );
        let merged = lo.decode().additive_union(hi.decode());
        assert_eq!(merged, chunk.decode(), "slice at {split} lost rows");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn columnar_kernels_match_the_row_evaluator(
        left in arb_left_rows(),
        right in arb_right_rows(),
        pred in arb_pred()
    ) {
        check_serial(&left, &right, &pred);
    }

    #[test]
    fn columnar_pipeline_matches_under_parallel_execution(
        left in arb_left_rows(),
        right in arb_right_rows(),
        pred in arb_pred()
    ) {
        check_parallel(&left, &right, &pred);
    }

    #[test]
    fn chunk_slices_partition_the_extent(left in arb_left_rows()) {
        check_slices(&left);
    }
}

// ------------------------------------------------------------- edge cases

/// An extent whose `k` column is `dne` in every row still chunk-encodes
/// (all-null column), scans identically, and refuses the columnar join on
/// the nullable key while the row kernel answers.
#[test]
fn all_dne_column_scans_identically_and_refuses_the_join() {
    let left: Vec<(Value, Value, Value, u64)> = (0..8)
        .map(|i| {
            (
                Value::int(i % 3),
                Value::str(format!("s{}", i % 2)),
                Value::Null(Null::Dne),
                (i % 2 + 1) as u64,
            )
        })
        .collect();
    let right: Vec<(Value, Value, u64)> = (0..6)
        .map(|i| (Value::int(i % 3), Value::str("s0"), 1))
        .collect();
    let pred = Pred::cmp(Expr::input().extract("k"), CmpOp::Eq, Expr::int(1));
    check_serial(&left, &right, &pred);

    let mut db = build_db(&left, &right);
    db.columnar = true;
    let join = &plans(&pred)[1].1;
    let (pp, journal) = db.lower_plan(join);
    assert!(
        !pp.choices.values().any(|c| c.op.is_columnar()),
        "an all-dne key column must refuse the columnar join"
    );
    assert!(
        journal
            .refused
            .iter()
            .any(|r| r.rule == "columnar-lowering"),
        "the refusal must be journaled"
    );
}

/// Empty extents chunk-encode to zero-row chunks and run through every
/// kernel shape.
#[test]
fn empty_extents_run_through_all_kernels() {
    let pred = Pred::cmp(Expr::input().extract("a"), CmpOp::Ge, Expr::int(2));
    check_serial(&[], &[], &pred);
    check_parallel(&[], &[], &pred);
}

/// With nulls kept out, the lowering must actually upgrade all four
/// kernels — guarding against a regression where every case silently
/// falls back to rows and the battery compares the row path to itself.
#[test]
fn null_free_extents_upgrade_all_four_kernels() {
    let left: Vec<(Value, Value, Value, u64)> = (0..24)
        .map(|i| {
            (
                Value::int(i % 5),
                Value::str(format!("s{}", i % 3)),
                Value::int(i % 4),
                (i % 3 + 1) as u64,
            )
        })
        .collect();
    let right: Vec<(Value, Value, u64)> = (0..12)
        .map(|i| (Value::int(i % 4), Value::str(format!("s{}", i % 2)), 1))
        .collect();
    let pred = Pred::cmp(Expr::input().extract("a"), CmpOp::Lt, Expr::int(3));
    let mut db = build_db(&left, &right);
    db.columnar = true;
    for (label, plan) in plans(&pred) {
        let (pp, _) = db.lower_plan(&plan);
        assert!(
            pp.choices.values().any(|c| c.op.is_columnar()),
            "{label} must upgrade on null-free extents:\n{}",
            pp.render()
        );
    }
    check_serial(&left, &right, &pred);
    check_parallel(&left, &right, &pred);
}
