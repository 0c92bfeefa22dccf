//! End-to-end telemetry invariants on the paper's figure suite.
//!
//! The load-bearing property is *telescoping*: with query spans enabled,
//! summing any work counter over a query's span tree must reproduce the
//! query's total exactly — the span tree is a lossless decomposition of
//! the profiler's accounting, serial or parallel.  Around that sit the
//! always-on pieces: the latency histogram's exact-count invariants, the
//! flight recorder's FIFO ring, and the misestimation feedback log fed
//! by `explain analyze`.

use std::collections::BTreeMap;

use excess::algebra::profile::path_string;
use excess::db::Database;
use excess::optimizer::estimate_nodes;
use excess::telemetry::{q_error, FlightRecorder};
use excess_bench::example1::{example1_db, figure6, figure7, figure8};
use excess_bench::server_mix::MIX;

/// Run the Example 1 figures with spans on — and Figure 6 once more as
/// the server receives it, a correlated `SET_APPLY` join that runs on the
/// probe kernel — and assert every counter telescopes through the span
/// tree.
fn assert_figures_telescope(db: &mut Database) {
    db.enable_query_spans(true);
    let telescopes = |db: &Database, id: &str| {
        let total = db.last_counters();
        let trace = db.last_query_trace().expect("spans are enabled");
        for (name, v) in total.named_fields() {
            assert_eq!(
                trace.root.sum_num(name),
                v,
                "{id}: `{name}` must sum over the span tree to the query total"
            );
        }
    };
    for (id, plan) in [("F6", figure6()), ("F7", figure7()), ("F8", figure8())] {
        db.run_query_plan(id, &plan).unwrap();
        telescopes(db, id);
        assert_eq!(db.last_query_trace().unwrap().query, id);
    }
    let (id, served_f6) = MIX[0];
    db.execute(served_f6).unwrap();
    telescopes(db, id);
    let kernels = &db.telemetry().recorder.records().last().unwrap().kernels;
    assert!(
        kernels.iter().any(|(_, k)| k.starts_with("HashProbeApply")),
        "{kernels:?}"
    );
}

#[test]
fn spans_telescope_to_profiler_counters_serial() {
    let mut db = example1_db(64, 48, 8);
    db.set_threads(1);
    assert_figures_telescope(&mut db);
    assert_eq!(db.last_query_trace().unwrap().engine, "serial");
}

#[test]
fn spans_telescope_to_profiler_counters_parallel() {
    let mut db = example1_db(64, 48, 8);
    db.set_threads(4);
    assert_figures_telescope(&mut db);
    let trace = db.last_query_trace().unwrap();
    assert_eq!(trace.engine, "parallel(4)");
    // The execute phase carries one child span per worker lane.
    let execute = trace.root.find("execute").expect("execute span");
    let workers = execute
        .children
        .iter()
        .filter(|s| s.name.starts_with("worker:"))
        .count();
    assert_eq!(workers, 4);
}

#[test]
fn latency_histogram_invariants_hold_after_a_query_batch() {
    let mut db = example1_db(64, 48, 8);
    for plan in [figure6(), figure7(), figure8(), figure6()] {
        db.run_query_plan("q", &plan).unwrap();
    }
    let h = db
        .telemetry()
        .registry
        .histogram("query_us")
        .expect("every query observes query_us");
    // Exact counts: the buckets partition the observations.
    assert_eq!(h.count(), 4);
    assert_eq!(h.bucket_sum(), h.count());
    // Quantiles are monotone and bracketed by the observed extremes.
    let (p50, p95, p99) = (h.quantile(0.50), h.quantile(0.95), h.quantile(0.99));
    assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
    assert!(p99 <= h.max().unwrap());
    assert_eq!(db.telemetry().registry.counter("queries"), 4);
}

#[test]
fn flight_recorder_evicts_fifo_at_capacity() {
    let mut db = example1_db(64, 48, 8);
    db.set_threads(1);
    db.telemetry_mut().recorder = FlightRecorder::new(2);
    for (id, plan) in [("F6", figure6()), ("F7", figure7()), ("F8", figure8())] {
        db.run_query_plan(id, &plan).unwrap();
    }
    let rec = &db.telemetry().recorder;
    // Three queries through a ring of two: F6 was evicted, order kept.
    assert_eq!(rec.recorded(), 3);
    assert_eq!(rec.len(), 2);
    let labels: Vec<&str> = rec.records().map(|r| r.query.as_str()).collect();
    assert_eq!(labels, ["F7", "F8"]);
    for r in rec.records() {
        assert_eq!(r.engine, "serial");
        assert!(r.total_us() > 0, "phase timings must be recorded");
        assert!(!r.kernels.is_empty(), "kernel choices must be recorded");
    }
}

#[test]
fn flight_recorder_slow_threshold_filters_records() {
    let mut db = example1_db(64, 48, 8);
    db.run_query_plan("F6", &figure6()).unwrap();
    let rec = &mut db.telemetry_mut().recorder;
    rec.set_slow_threshold_us(u64::MAX);
    assert_eq!(rec.slow().count(), 0);
    rec.set_slow_threshold_us(0);
    assert_eq!(rec.slow().count(), 1);
}

#[test]
fn feedback_log_matches_explain_analyze_est_vs_actual() {
    let mut db = example1_db(64, 48, 8);
    let stats = db.analyze().clone();
    let plan = figure6();
    // The same per-node estimates the lowering stamps onto its choices.
    let ests: BTreeMap<String, f64> = estimate_nodes(&plan, &stats)
        .into_iter()
        .map(|(p, e)| (path_string(&p), e.rows))
        .collect();
    db.explain_analyze(&plan).unwrap();
    let fb = &db.telemetry().feedback;
    assert!(!fb.is_empty(), "explain analyze must feed the log");
    for e in fb.entries() {
        assert_eq!(e.observations, 1);
        // The estimate side is exactly the optimizer's per-node estimate…
        let est = ests
            .get(&e.path)
            .unwrap_or_else(|| panic!("no estimate for feedback path {}", e.path));
        assert!(
            (e.est_rows_sum - est).abs() < 1e-9,
            "{}: est {} != optimizer estimate {est}",
            e.path,
            e.est_rows_sum
        );
        // …and the recorded q-error is derivable from est and actual.
        assert_eq!(e.max_q_error, q_error(e.est_rows_sum, e.actual_rows_sum));
        assert!(e.max_q_error >= 1.0);
    }
    // A second analyze of the same plan accumulates, not duplicates.
    let before = fb.len();
    db.explain_analyze(&plan).unwrap();
    let fb = &db.telemetry().feedback;
    assert_eq!(fb.len(), before);
    assert!(fb.entries().all(|e| e.observations == 2));
    // `worst` ranks by q-error, descending.
    let worst: Vec<f64> = fb.worst(8).iter().map(|e| e.max_q_error).collect();
    assert!(worst.windows(2).all(|w| w[0] >= w[1]), "{worst:?}");
}

#[test]
fn disabling_spans_clears_the_last_trace() {
    let mut db = example1_db(64, 48, 8);
    db.enable_query_spans(true);
    db.run_query_plan("F6", &figure6()).unwrap();
    assert!(db.last_query_trace().is_some());
    db.enable_query_spans(false);
    assert!(db.last_query_trace().is_none());
    // With spans off, queries still feed the always-on registry…
    db.run_query_plan("F6", &figure6()).unwrap();
    assert!(db.last_query_trace().is_none());
    assert_eq!(db.telemetry().registry.counter("queries"), 2);
}

#[test]
fn a_failed_program_does_not_label_the_next_retrieve() {
    let mut db = example1_db(8, 8, 2);
    // Fails at its first statement, before any retrieve could take the
    // program's text and parse time.
    let failed = "append to Nowhere (1) retrieve (S1.sname)";
    db.execute(failed).unwrap_err();
    // A statement run on its own carries no program text: its flight
    // record is labelled `retrieve` with a zero parse phase.
    let stmt = excess::lang::parse_statement("retrieve (S1.sname)").unwrap();
    db.run_stmt(&stmt).unwrap();
    let record = db.telemetry().recorder.records().last().unwrap();
    assert_eq!(record.query, "retrieve", "filed under the failed program");
    assert_eq!(record.phase_us[0], ("parse", 0));
}

/// The plan cache is observed through what exists: three counters in the
/// session's registry, a `phase.cached_us` histogram that falls out of
/// the phase loop, and `phase.optimize_us` counting the searches that
/// actually ran — all of it merged into the database-wide registry when
/// the session closes.
#[test]
fn plan_cache_counters_account_for_every_served_request() {
    use excess::db::VersionedDb;
    use excess_bench::server_mix::server_mix_db;
    let vdb = VersionedDb::new(server_mix_db(24));
    let mut s = vdb.begin_session();
    let probe = "retrieve (E1.ename) where E1.esal = 1003";
    for round in 0..3 {
        for (_, line) in MIX {
            s.query(line).unwrap();
        }
        s.query(probe).unwrap();
        // Moves `E1`'s statistics: the probe's plan goes stale.
        s.commit(&format!("append to E1 ((ename: \"w{round}\", esal: 7000))"))
            .unwrap();
    }
    let served = 3 * (MIX.len() as u64 + 1);
    let check = |r: &excess::telemetry::Registry| {
        let (hit, miss, stale) = (
            r.counter("plan_cache.hit"),
            r.counter("plan_cache.miss"),
            r.counter("plan_cache.stale"),
        );
        assert_eq!(hit + miss + stale, served);
        assert_eq!(r.counter("queries"), served);
        assert_eq!(miss, MIX.len() as u64 + 1, "each line is first seen once");
        assert!(
            stale >= 2,
            "the probe is re-planned after each commit: {stale}"
        );
        let count = |name: &str| r.histogram(name).map_or(0, |h| h.count());
        assert_eq!(count("phase.optimize_us"), miss + stale);
        assert_eq!(count("phase.lower_us"), miss + stale);
        assert_eq!(count("phase.cached_us"), hit);
        assert_eq!(count("phase.execute_us"), served);
    };
    check(&s.telemetry().registry);
    s.close();
    check(&vdb.global_registry());
    vdb.shutdown();
}
