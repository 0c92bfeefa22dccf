//! End-to-end telemetry invariants on the paper's figure suite.
//!
//! The load-bearing property is *telescoping*: with query spans enabled,
//! summing any work counter over a query's span tree must reproduce the
//! query's total exactly — the span tree is a lossless decomposition of
//! the profiler's accounting.  Around that sit the
//! always-on pieces: the latency histogram's exact-count invariants and
//! the flight recorder's FIFO ring.

use excess::db::{Database, VersionedDb};
use excess::telemetry::FlightRecorder;
use excess_bench::example1::{example1_db, figure6, figure7, figure8};
use excess_bench::example2::{example2_db, figure9};
use excess_bench::server_mix::MIX;

/// Run the Example 1 figures with spans on — and Figure 6 once more as
/// the server receives it, translated to the paper's `rel_join`, which
/// runs on the hash equi-join kernel — and assert
/// every counter telescopes through the span tree.
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
        kernels
            .iter()
            .any(|(_, k)| k == "HashEquiJoin[sadv = ename]"),
        "{kernels:?}"
    );
}

#[test]
fn spans_telescope_to_profiler_counters_serial() {
    let mut db = example1_db(64, 48, 8);
    assert_figures_telescope(&mut db);
}

/// All of a query's work happens under its `execute` phase: the counters
/// telescope through that subtree alone, which holds the operator spans.
#[test]
fn execute_span_carries_every_counter_of_the_query() {
    let mut db = example1_db(64, 48, 8);
    db.enable_query_spans(true);
    for (id, plan) in [("F6", figure6()), ("F7", figure7()), ("F8", figure8())] {
        db.run_query_plan(id, &plan).unwrap();
        let total = db.last_counters();
        let trace = db.last_query_trace().expect("spans are enabled");
        let execute = trace.root.find("execute").expect("execute span");
        assert!(!execute.children.is_empty(), "{id}: no operator spans");
        for (name, v) in total.named_fields() {
            assert_eq!(
                execute.sum_num(name),
                v,
                "{id}: `{name}` must sum over the execute span to the query total"
            );
        }
    }
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

/// `optimize = false` is honoured on every path: neither a traced run
/// nor an EXPLAIN ANALYZE searches a memo behind the caller's back, even
/// where the estimates are far off (F9's grouping is misestimated a
/// hundred times over on this fixture).
#[test]
fn an_unoptimized_database_never_searches() {
    let mut db = example2_db(2000, 40, 10);
    db.analyze();
    assert!(!db.optimize);
    db.enable_query_spans(true);
    db.run_query_plan("F9", &figure9()).unwrap();
    let text = db.explain_analyze(&figure9()).unwrap();
    assert!(db.last_memo().is_none(), "a memo was searched");
    let r = &db.telemetry().registry;
    assert_eq!(r.counter("optimizer.runs"), 0, "a lowering is no search");
    assert_eq!(r.counter("optimizer.cost_removed"), 0);
    let rules: Vec<&str> = r
        .counters()
        .map(|(name, _)| name)
        .filter(|name| name.starts_with("rules."))
        .collect();
    assert_eq!(rules, ["rules.physical-lowering.fired"]);
    assert!(!text.contains("re-optimization"), "{text}");
}

/// The telemetry registry is the one metrics store.  Evaluations outside
/// the pipeline count `queries` and `work.*` (and no `query_us`); a
/// journaled optimization counts its run, rewrites, plans, cost removed
/// and rules; and a closing session hands its registry, value for value,
/// to the database-wide one.
#[test]
fn the_registry_counts_evaluations_optimizations_and_closed_sessions() {
    let mut db = example1_db(40, 24, 24);
    db.analyze();
    db.run_plan(&figure7()).unwrap();
    let first = db.last_counters();
    db.run_plan(&figure8()).unwrap();
    let both = first + db.last_counters();
    let r = &db.telemetry().registry;
    assert_eq!(r.counter("queries"), 2);
    for (field, v) in both.named_fields() {
        assert_eq!(r.counter(&format!("work.{field}")), v, "work.{field}");
    }
    assert!(r.histogram("query_us").is_none(), "no pipeline query ran");

    let (_, journal) = db.optimize_plan_journaled(&figure6());
    assert!(!journal.steps.is_empty(), "Figure 6 rewrites");
    let r = &db.telemetry().registry;
    assert_eq!(r.counter("optimizer.runs"), 1);
    assert_eq!(
        r.counter("optimizer.rewrites.applied"),
        journal.steps.len() as u64
    );
    assert_eq!(
        r.counter("optimizer.rewrites.refused"),
        journal.refused.len() as u64
    );
    assert_eq!(
        r.counter("optimizer.plans_enumerated"),
        journal.plans_enumerated as u64
    );
    assert_eq!(
        r.counter("optimizer.cost_removed"),
        (journal.initial_cost - journal.final_cost).round() as u64
    );
    let sequence = journal.rule_sequence();
    for rule in &sequence {
        let fired = sequence.iter().filter(|r| *r == rule).count() as u64;
        assert_eq!(r.counter(&format!("rules.{rule}.fired")), fired, "{rule}");
    }
    let fired: u64 = r
        .counters()
        .filter(|(name, _)| name.starts_with("rules."))
        .map(|(_, n)| n)
        .sum();
    assert_eq!(fired, journal.steps.len() as u64);
    // A lowering counts its rewrites and rule, but no run and no cost
    // removed: its cost delta is logical to physical.
    let (before, removed) = (
        r.counter("optimizer.runs"),
        r.counter("optimizer.cost_removed"),
    );
    db.lower_plan(&figure6());
    let r = &db.telemetry().registry;
    assert_eq!(r.counter("optimizer.runs"), before);
    assert_eq!(r.counter("optimizer.cost_removed"), removed);
    assert_eq!(r.counter("rules.physical-lowering.fired"), 1);

    let vdb = VersionedDb::new(db);
    let mut session = vdb.begin_session();
    for _ in 0..2 {
        session.query(MIX[0].1).unwrap();
    }
    let counted = session.telemetry().registry.to_json();
    assert_eq!(
        vdb.global_registry().counter("queries"),
        0,
        "a session's registry merges when it closes"
    );
    session.close();
    assert_eq!(vdb.global_registry().to_json(), counted);
    vdb.shutdown();
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
        assert_eq!(
            r.counter("optimizer.runs"),
            miss + stale,
            "one run per optimized miss, none per lowering"
        );
        assert_eq!(count("phase.lower_us"), miss + stale);
        assert_eq!(count("phase.cached_us"), hit);
        assert_eq!(count("phase.execute_us"), served);
    };
    check(&s.telemetry().registry);
    s.close();
    check(&vdb.global_registry());
    vdb.shutdown();
}

/// The committer observes itself into the database-wide registry: one
/// `committer.apply_us` per request, failed ones included, and one
/// `committer.publish_us` and `committer.batch_size` per batch, the batch
/// sizes adding up to the requests.
#[test]
fn the_committer_observes_every_request_and_batch() {
    use excess::db::VersionedDb;
    use excess_bench::server_mix::server_mix_db;
    let vdb = VersionedDb::new(server_mix_db(20));
    let writers: Vec<_> = (0..3)
        .map(|w| {
            let vdb = vdb.clone();
            std::thread::spawn(move || {
                for i in 0..10 {
                    vdb.commit(&format!("append to E1 ((ename: \"w{w}.{i}\", esal: 7000))"))
                        .expect("append");
                }
                vdb.commit("create E1 : {ref Emp}").expect_err("E1 exists");
            })
        })
        .collect();
    for writer in writers {
        writer.join().expect("writer");
    }
    vdb.shutdown().expect("master");
    let stats = vdb.stats();
    assert_eq!(stats.commit_requests, 33);
    let registry = vdb.global_registry();
    let histogram = |name: &str| registry.histogram(name).expect(name).clone();
    let apply = histogram("committer.apply_us");
    let publish = histogram("committer.publish_us");
    let batch_size = histogram("committer.batch_size");
    assert_eq!(apply.count(), stats.commit_requests);
    assert_eq!(publish.count(), stats.commit_batches);
    assert_eq!(batch_size.count(), stats.commit_batches);
    assert_eq!(batch_size.sum(), u128::from(stats.commit_requests));
    for h in [&apply, &publish, &batch_size] {
        assert!(h.quantile(0.5) <= h.quantile(0.95));
    }
}
