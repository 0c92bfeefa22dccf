//! Profiling and session metrics under the partition-parallel engine.
//!
//! The profiler's telescope invariant — the sum of every node's *self*
//! counters equals the query totals — must survive the engine's
//! fragment-plan merging, in both precise and coarse tracing modes.  The
//! session metrics must record the serial/parallel query split and the
//! worker count, and the parallel path must be reachable through the
//! surface language (`Database::execute`).

mod common;

use common::run_unlowered as run;
use excess::algebra::expr::Expr;
use excess::db::{metrics_json, Tracing};

fn profiled_plans() -> Vec<Expr> {
    let s = || Expr::named("S");
    vec![
        // Chunked selection.
        s().select(common::grp_pred()),
        // GRP exchange + hash DE.
        s().group_by(Expr::input().extract("grp")).dup_elim(),
        // Pipeline: map, union, dedup.
        s().set_apply(Expr::input().extract("name"))
            .add_union(Expr::named("T").set_apply(Expr::input().extract("name")))
            .dup_elim(),
    ]
}

#[test]
fn precise_profiles_telescope_to_query_totals() {
    for plan in profiled_plans() {
        let mut db = common::database();
        db.set_threads(3);
        let profile = run(&mut db, &plan, Tracing::Precise).profile.unwrap();
        assert_eq!(
            profile.sum_of_self_counters(),
            db.last_counters(),
            "precise profile of {plan} does not telescope"
        );
        assert_eq!(profile.total, db.last_counters());
    }
}

#[test]
fn coarse_profiles_telescope_to_query_totals() {
    // Coarse mode halves the clock reads; counters must stay exact.
    for plan in profiled_plans() {
        let mut db = common::database();
        db.set_threads(3);
        let profile = run(&mut db, &plan, Tracing::Coarse).profile.unwrap();
        assert_eq!(
            profile.sum_of_self_counters(),
            db.last_counters(),
            "coarse profile of {plan} does not telescope"
        );
    }
}

#[test]
fn parallel_profiled_counters_match_serial_profiled() {
    for plan in profiled_plans() {
        let mut serial_db = common::database();
        serial_db.set_threads(1);
        let serial_value = run(&mut serial_db, &plan, Tracing::Precise).value;

        let mut db = common::database();
        db.set_threads(3);
        let value = run(&mut db, &plan, Tracing::Precise).value;
        assert_eq!(serial_value, value, "{plan}");
        assert_eq!(
            serial_db.last_counters(),
            db.last_counters(),
            "profiling must not change the work accounting of {plan}"
        );
    }
}

#[test]
fn session_metrics_split_serial_and_parallel_queries() {
    let mut db = common::database();
    let plan = Expr::named("S").select(common::grp_pred());

    db.run_plan(&plan).unwrap();
    db.set_threads(4);
    run(&mut db, &plan, Tracing::Off);
    run(&mut db, &plan, Tracing::Off);

    let m = db.metrics();
    assert_eq!(m.queries, 3);
    assert_eq!(m.serial_queries, 1);
    assert_eq!(m.parallel_queries, 2);
    assert_eq!(m.workers, 4);
    let text = m.to_string();
    assert!(
        text.contains("execution: 1 serial, 2 parallel (4 workers)"),
        "{text}"
    );
    let json = metrics_json(m);
    assert!(json.contains("\"parallel_queries\":2"), "{json}");
    assert!(json.contains("\"workers\":4"), "{json}");
}

#[test]
fn whole_plan_fallbacks_are_recorded_as_serial_queries() {
    // A plan the engine refuses to partition (it mints OIDs) runs — and
    // is accounted — serially even under a parallel config.
    let mut db = common::database();
    db.set_threads(4);
    let plan = Expr::named("OneTup").make_ref("Person2Cell").deref();
    run(&mut db, &plan, Tracing::Off);
    assert_eq!(db.metrics().parallel_queries, 0);
    assert_eq!(db.metrics().serial_queries, 1);
}

#[test]
fn execute_routes_retrieves_through_the_parallel_engine() {
    let mut db = common::database();
    db.set_threads(3);
    let out = db
        .execute("retrieve (P.name) from P in S where P.grp = 1")
        .unwrap();
    assert!(out.to_string().contains('n'), "{out}");
    assert_eq!(db.metrics().parallel_queries, 1);
    let report = db.last_exec_report().expect("retrieve journals execution");
    assert_eq!(report.workers, 3);
    assert!(report.parallel_nodes() > 0, "events: {:?}", report.events);

    // Updates stay serial: only retrieves route through the engine.
    db.execute("append to S (name: \"n9\", grp: 9)").unwrap();
    assert_eq!(db.metrics().parallel_queries, 1);
}
