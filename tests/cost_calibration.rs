//! Cost-model calibration: the estimates only matter *ordinally* (the
//! optimizer compares plans), so we check that for plan pairs whose
//! measured work differs decisively, the cost model ranks them the same
//! way.

use excess::algebra::expr::{CmpOp, Expr, Pred};
use excess::db::Database;
use excess::optimizer::cost_of;
use excess::types::{SchemaType, Value};

fn measured_work(db: &mut Database, plan: &Expr) -> u64 {
    db.run_plan(plan).unwrap();
    let c = db.last_counters();
    c.occurrences_scanned + c.derefs + c.comparisons + c.pairs_formed + c.de_input_occurrences
}

fn rows_db(n: i32) -> Database {
    let mut db = Database::new();
    db.optimize = false;
    db.put_object(
        "R",
        SchemaType::set(SchemaType::tuple([
            ("k", SchemaType::int4()),
            ("v", SchemaType::int4()),
        ])),
        Value::set((0..n).map(|i| Value::tuple([("k", Value::int(i % 7)), ("v", Value::int(i))]))),
    );
    db.put_object(
        "S",
        SchemaType::set(SchemaType::tuple([("w", SchemaType::int4())])),
        Value::set((0..n / 2).map(|i| Value::tuple([("w", Value::int(i % 5))]))),
    );
    db.collect_stats();
    db
}

/// Check that estimate ordering matches measured ordering whenever the
/// measured gap is at least 4×.
fn check_pairs(db: &mut Database, plans: &[(&str, Expr)]) {
    let stats = db.statistics().clone();
    let measured: Vec<(String, u64, f64)> = plans
        .iter()
        .map(|(n, p)| (n.to_string(), measured_work(db, p), cost_of(p, &stats)))
        .collect();
    for a in &measured {
        for b in &measured {
            if a.1 >= 4 * b.1.max(1) {
                assert!(
                    a.2 > b.2,
                    "measured {} ({}) ≫ {} ({}), but est {} ≤ {}",
                    a.0,
                    a.1,
                    b.0,
                    b.1,
                    a.2,
                    b.2
                );
            }
        }
    }
}

#[test]
fn joins_dominate_scans_in_both_worlds() {
    let mut db = rows_db(200);
    let scan = Expr::named("R").set_apply(Expr::input().extract("v"));
    let join = Expr::named("R").rel_join(
        Expr::named("S"),
        Pred::cmp(
            Expr::input().extract("k"),
            CmpOp::Eq,
            Expr::input().extract("w"),
        ),
    );
    let cross_then_filter = Expr::named("R").cross(Expr::named("S")).select(Pred::cmp(
        Expr::input().extract("fst").extract("k"),
        CmpOp::Eq,
        Expr::input().extract("snd").extract("w"),
    ));
    check_pairs(
        &mut db,
        &[
            ("scan", scan),
            ("join", join),
            ("cross+filter", cross_then_filter),
        ],
    );
}

#[test]
fn de_early_ranks_below_de_late_under_duplication() {
    // R has a heavily duplicated projection (k has 7 distinct values).
    let mut db = rows_db(400);
    let project_k = |e: Expr| e.set_apply(Expr::input().extract("k"));
    let late = project_k(Expr::named("R"))
        .dup_elim()
        .set_apply(Expr::input().make_tup("x"));
    let early = project_k(Expr::named("R"))
        .dup_elim()
        .set_apply(Expr::input().make_tup("x"));
    // Identical here — the interesting pair is mapping BEFORE vs AFTER DE:
    let map_then_de = project_k(Expr::named("R"))
        .set_apply(Expr::input().make_tup("x"))
        .dup_elim();
    let de_then_map = project_k(Expr::named("R"))
        .dup_elim()
        .set_apply(Expr::input().make_tup("x"));
    let _ = (late, early);
    let stats = db.statistics().clone();
    let w1 = measured_work(&mut db, &map_then_de);
    let w2 = measured_work(&mut db, &de_then_map);
    assert!(w2 < w1, "measured: de-first {w2} vs map-first {w1}");
    // The model must agree on the direction (no 4× gate needed — this is
    // the exact trade the optimizer's rel5 rule banks on).
    assert!(
        cost_of(&de_then_map, &stats) < cost_of(&map_then_de, &stats),
        "cost model ranks DE-early above DE-late"
    );
}

#[test]
fn switch_vs_union_ordering_matches_measurement() {
    use excess_bench::dispatch::{dispatch_db, switch_plan, trivial_impls, union_plan};
    let mut db = dispatch_db(300, 0);
    let impls = trivial_impls();
    let sw = switch_plan(&impls);
    let un = union_plan(&db, &impls);
    let stats = db.statistics().clone();
    let m_sw = measured_work(&mut db, &sw);
    let m_un = measured_work(&mut db, &un);
    assert!(m_un > m_sw, "⊎ scans more: {m_un} vs {m_sw}");
    assert!(
        cost_of(&un, &stats) > cost_of(&sw, &stats),
        "the model agrees the switch is cheaper for trivial bodies"
    );
}

/// `Refs`: `n` tuples `(c)`, each a ref to a `Cell` `(v)` with `v` in 0–9.
fn refs_db(n: i32) -> Database {
    let mut db = Database::new();
    db.optimize = false;
    db.execute("define type Cell: (v: int4)").unwrap();
    let ty = db.registry().lookup("Cell").unwrap();
    let rows: Vec<Value> = (0..n)
        .map(|i| {
            let cell = Value::tuple([("v", Value::int(i % 10))]);
            Value::tuple([("c", Value::Ref(db.store_mut().create_unchecked(ty, cell)))])
        })
        .collect();
    db.put_object(
        "Refs",
        SchemaType::set(SchemaType::tuple([("c", SchemaType::reference("Cell"))])),
        Value::set(rows),
    );
    db.collect_stats();
    db
}

#[test]
fn a_predicate_reading_its_comp_input_ranks_below_one_that_rederives_it() {
    // SET_APPLY[COMP[P](DEREF(INPUT.c).v)](Refs): P either dereferences
    // the row's cell again or reads the value the COMP already holds.
    let mut db = refs_db(200);
    let cell_v = |row: Expr| row.extract("c").deref().extract("v");
    let keep_over_4 = |operand: Expr| {
        Expr::named("Refs").set_apply(cell_v(Expr::input()).comp(Pred::cmp(
            operand,
            CmpOp::Gt,
            Expr::int(4),
        )))
    };
    let rederived = keep_over_4(cell_v(Expr::input_at(1)));
    let read_once = keep_over_4(Expr::input());
    let stats = db.statistics().clone();
    let w_rederived = measured_work(&mut db, &rederived);
    let d_rederived = db.last_counters().derefs;
    let w_read_once = measured_work(&mut db, &read_once);
    let d_read_once = db.last_counters().derefs;
    assert_eq!((d_rederived, d_read_once), (400, 200));
    assert!(w_read_once < w_rederived, "{w_read_once} vs {w_rederived}");
    assert_eq!(
        db.run_plan(&rederived).unwrap(),
        db.run_plan(&read_once).unwrap()
    );
    assert!(
        cost_of(&read_once, &stats) < cost_of(&rederived, &stats),
        "the model prices the predicate's INPUT as already computed"
    );
}
