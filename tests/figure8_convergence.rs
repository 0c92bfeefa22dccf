//! The headline acceptance test: with statistics collected from the store
//! (no hints, no pre-desugaring), the reference hill climb derives the
//! paper's Figure 8 plan from the Figure 6 parser output — and the rewrite
//! journal names the two DE-pushing rules as *taken*, not refused.  (That
//! the memo — the search every query is planned by — gets there too is
//! `memo_equivalence.rs`'s business.)
//!
//! Also holds the distinct-propagation property tests: for any pipeline
//! the cost model never estimates `distinct > rows`.

use excess::optimizer::{cost_of, estimate, Estimate, Optimizer, RuleCtx, Statistics};
use excess_bench::example1::{example1_db, figure6, figure7, figure8, figure8_canonical};
use excess_core::expr::{CmpOp, Expr, Pred};
use excess_db::Database;

const S: usize = 40;
const E: usize = 24;

fn fixture() -> Database {
    example1_db(S, E, S.max(E))
}

#[test]
fn greedy_reaches_figure8_from_figure6() {
    let db = fixture();
    let opt = Optimizer::standard();
    let rctx = RuleCtx {
        registry: db.registry(),
        schemas: db.catalog(),
    };
    let (best, journal) = opt.optimize_greedy_journaled(&figure6(), &rctx, db.statistics());
    assert_eq!(
        best.plan,
        figure8_canonical(),
        "greedy should land exactly on the Figure 8 plan, got:\n{:?}",
        best.plan
    );
    let rules = journal.rule_sequence();
    assert!(
        rules.contains(&"rule8-de-through-group"),
        "Figure 6→7 step missing from journal: {rules:?}"
    );
    assert!(
        rules.contains(&"rel5-de-early"),
        "Figure 7→8 step missing from journal: {rules:?}"
    );
    // Taken, not refused: neither DE-pushing rule appears in the refusal
    // ledger for this derivation.
    for refusal in &journal.refused {
        assert!(
            refusal.rule != "rule8-de-through-group" && refusal.rule != "rel5-de-early",
            "DE-push rule refused: {refusal:?}"
        );
    }
    // Strictly decreasing cost trajectory, ending at the reported best.
    let traj = journal.cost_trajectory();
    assert!(traj.windows(2).all(|w| w[1] < w[0]), "{traj:?}");
    assert_eq!(journal.final_cost, best.cost);
}

#[test]
fn all_three_figures_converge_on_the_canonical_plan() {
    let db = fixture();
    let opt = Optimizer::standard();
    let rctx = RuleCtx {
        registry: db.registry(),
        schemas: db.catalog(),
    };
    for (name, plan) in [
        ("figure6", figure6()),
        ("figure7", figure7()),
        ("figure8", figure8()),
    ] {
        let (best, _) = opt.optimize_greedy_journaled(&plan, &rctx, db.statistics());
        assert_eq!(
            best.plan,
            figure8_canonical(),
            "{name} did not converge on the canonical Figure 8 plan"
        );
    }
}

#[test]
fn optimized_figure6_runs_and_agrees_with_the_original() {
    let mut db = fixture();
    let best = db.optimize_plan(&figure6());
    let original = db.run_plan(&figure6()).unwrap();
    let optimized = db.run_plan(&best).unwrap();
    assert_eq!(original, optimized);
    // And the optimized plan really does less DE work at run time.
    db.run_plan(&figure6()).unwrap();
    let de_before = db.last_counters().de_input_occurrences;
    db.run_plan(&best).unwrap();
    let de_after = db.last_counters().de_input_occurrences;
    assert!(
        de_after < de_before,
        "optimized DE input {de_after} should be below {de_before}"
    );
}

#[test]
fn collected_stats_know_the_duplication() {
    let db = fixture();
    let s1 = db.statistics().object("S1");
    assert_eq!(s1.rows, S as f64);
    // dup = max(S,E) = 40 ⇒ one distinct (sdept, sadv) pair; snames unique.
    assert_eq!(s1.attr_ndv.get("sdept"), Some(&1.0));
    assert_eq!(s1.attr_ndv.get("sadv"), Some(&1.0));
    assert_eq!(s1.attr_ndv.get("sname"), Some(&(S as f64)));
    let e1 = db.statistics().object("E1");
    assert_eq!(e1.attr_ndv.get("ename"), Some(&1.0));
    assert_eq!(e1.attr_ndv.get("esal"), Some(&(E as f64)));
}

// ---------------------------------------------------------------------
// Property: distinct ≤ rows for every node of every generated pipeline.
// ---------------------------------------------------------------------

/// Deterministic pipeline generator: seeds pick a base object, a chain of
/// operators, and per-step parameters.  Small but covers every collection
/// operator the propagation pass special-cases.
fn generated_pipeline(seed: u64) -> Expr {
    let mut x = seed;
    let mut next = move |m: u64| {
        // xorshift keeps the generator dependency-free and reproducible.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % m
    };
    let fields = ["a", "b", "c"];
    let mut e = Expr::named(if next(2) == 0 { "S" } else { "E" });
    for _ in 0..next(6) + 1 {
        match next(8) {
            0 => {
                let f = fields[next(3) as usize];
                e = e.set_apply(Expr::input().project([f]));
            }
            1 => {
                let f = fields[next(3) as usize];
                e = e.set_apply(Expr::input().extract(f));
            }
            2 => e = e.dup_elim(),
            3 => {
                let f = fields[next(3) as usize];
                e = e.group_by(Expr::input().extract(f));
            }
            4 => e = e.add_union(Expr::named("E")),
            5 => {
                let f = fields[next(3) as usize];
                e = e.select(Pred::cmp(Expr::input().extract(f), CmpOp::Eq, Expr::int(1)));
            }
            6 => {
                e = e.rel_join(
                    Expr::named("E"),
                    Pred::cmp(
                        Expr::input().extract("a"),
                        CmpOp::Eq,
                        Expr::input().extract("b"),
                    ),
                );
            }
            _ => e = e.set_apply(Expr::input()),
        }
    }
    e
}

fn assert_distinct_bounded(est: &Estimate) {
    assert!(
        est.distinct <= est.rows,
        "distinct {} > rows {}",
        est.distinct,
        est.rows
    );
    if let Some(m) = &est.attr_ndv {
        for (attr, ndv) in m {
            assert!(*ndv <= est.rows, "ndv({attr}) = {ndv} > rows {}", est.rows);
        }
    }
}

#[test]
fn distinct_never_exceeds_rows_for_generated_pipelines() {
    let mut stats = Statistics::new();
    stats.set_object("S", 1000.0, 120.0, 8.0);
    stats.set_attr_ndv("S", "a", 7.0);
    stats.set_attr_ndv("S", "b", 400.0);
    stats.set_attr_ndv("S", "c", 1000.0);
    stats.set_object("E", 300.0, 300.0, 4.0);
    stats.set_attr_ndv("E", "a", 300.0);
    stats.set_attr_ndv("E", "b", 2.0);
    for seed in 1..400u64 {
        let e = generated_pipeline(seed);
        let mut env = Vec::new();
        let est = estimate(&e, &mut env, &stats);
        assert_distinct_bounded(&est);
        // Every interior node's estimate obeys the bound too.
        for (_, node_est) in excess::optimizer::estimate_nodes(&e, &stats) {
            assert_distinct_bounded(&node_est);
        }
        assert!(cost_of(&e, &stats).is_finite());
    }
}
