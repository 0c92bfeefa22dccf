//! Golden shapes for every JSON surface, checked by round-tripping each
//! document through `excess_core::json::parse_json` and asserting the
//! keys downstream consumers (CI, the report binary, trace viewers)
//! rely on.  These tests pin the *shape*, not the numbers.

use excess::algebra::json::{parse_json, JsonValue};
use excess::db::{metrics_json, Database, VersionedDb};
use excess::server::protocol::server_stats_json;
use excess_bench::example1::{example1_db, figure6};

/// Parse or die with the offending document.
fn parsed(src: &str) -> JsonValue {
    parse_json(src).unwrap_or_else(|e| panic!("invalid JSON ({e}): {src}"))
}

fn obj_keys(v: &JsonValue) -> Vec<&str> {
    v.as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn metrics_json_shape_includes_warnings() {
    let mut db = Database::new();
    db.execute("define type Dept: (name: char[], floor: int4)")
        .unwrap();
    db.execute("create Depts: { Dept }").unwrap();
    db.execute("append to Depts (name: \"CS\", floor: 2)")
        .unwrap();
    db.execute("retrieve (D.name) from D in Depts where D.floor = 2")
        .unwrap();
    let mut metrics = db.metrics().clone();
    metrics.record_warning("EXCESS_SLOW_MS=\"banana\" is not a threshold");
    let v = parsed(&metrics_json(&metrics));
    assert_eq!(
        obj_keys(&v),
        [
            "queries",
            "eval_ms",
            "counters",
            "optimizations",
            "rewrites_applied",
            "rewrites_refused",
            "plans_enumerated",
            "cost_removed",
            "rules_fired",
            "warnings",
        ]
    );
    for key in [
        "queries",
        "eval_ms",
        "counters",
        "optimizations",
        "rewrites_applied",
        "rewrites_refused",
        "plans_enumerated",
        "cost_removed",
        "rules_fired",
        "warnings",
    ] {
        assert!(v.get(key).is_some(), "metrics_json lost key `{key}`");
    }
    assert!(v.get("queries").unwrap().as_f64().unwrap() >= 1.0);
    // A recorded warning serializes as a string, escapes and all.
    let warnings = v.get("warnings").unwrap().as_arr().unwrap();
    assert_eq!(warnings.len(), 1);
    assert!(warnings[0].as_str().unwrap().contains("banana"));
}

#[test]
fn telemetry_snapshot_shape() {
    let mut db = example1_db(64, 48, 8);
    db.run_query_plan("F6", &figure6()).unwrap();
    let v = parsed(&db.telemetry().snapshot_json());
    assert_eq!(obj_keys(&v), ["registry", "recorder"]);

    let reg = v.get("registry").unwrap();
    assert_eq!(obj_keys(reg), ["counters", "gauges", "histograms"]);
    let queries = reg.get("counters").unwrap().get("queries").unwrap();
    assert_eq!(queries.as_f64(), Some(1.0));
    let h = reg.get("histograms").unwrap().get("query_us").unwrap();
    for key in ["count", "sum", "min", "max", "p50", "p95", "p99", "buckets"] {
        assert!(h.get(key).is_some(), "histogram json lost key `{key}`");
    }
    let buckets = h.get("buckets").unwrap().as_arr().unwrap();
    let total: f64 = buckets
        .iter()
        .map(|b| b.get("count").unwrap().as_f64().unwrap())
        .sum();
    assert_eq!(total, h.get("count").unwrap().as_f64().unwrap());

    let rec = v.get("recorder").unwrap();
    let records = rec.get("records").unwrap().as_arr().unwrap();
    assert_eq!(records.len(), 1);
    assert_eq!(
        obj_keys(&records[0]),
        [
            "query",
            "plan_hash",
            "rows",
            "total_us",
            "slow",
            "phases",
            "kernels",
            "est_rows",
            "actual_rows",
        ]
    );
}

/// `.server`: the committer's counters, `stats_elements` (elements whose
/// attributes the statistics code hashed) included.
#[test]
fn server_stats_json_shape() {
    let mut db = Database::new();
    db.execute(
        "define type Dept: (name: char[], floor: int4) \
         create Depts: { Dept } \
         append to Depts (name: \"CS\", floor: 2)",
    )
    .unwrap();
    let vdb = VersionedDb::new(db);
    vdb.commit("append to Depts (name: \"EE\", floor: 3)")
        .unwrap();
    let v = parsed(&server_stats_json(&vdb.stats()));
    assert_eq!(
        obj_keys(&v),
        [
            "generation",
            "sessions_opened",
            "sessions_closed",
            "commit_requests",
            "commit_batches",
            "stats_full",
            "stats_incremental",
            "stats_skipped",
            "stats_elements",
        ]
    );
    assert_eq!(v.get("stats_incremental").unwrap().as_f64(), Some(1.0));
    assert_eq!(v.get("stats_elements").unwrap().as_f64(), Some(1.0));
    vdb.shutdown();
}

#[test]
fn query_trace_and_chrome_trace_shapes() {
    let mut db = example1_db(64, 48, 8);
    db.enable_query_spans(true);
    db.run_query_plan("F6", &figure6()).unwrap();
    let trace = db.last_query_trace().unwrap();

    let v = parsed(&trace.to_json());
    assert_eq!(obj_keys(&v), ["query", "plan_hash", "root"]);
    let root = v.get("root").unwrap();
    assert_eq!(
        obj_keys(root),
        ["name", "cat", "start_us", "dur_us", "children"]
    );
    assert_eq!(root.get("name").unwrap().as_str(), Some("query"));
    assert!(!root.get("children").unwrap().as_arr().unwrap().is_empty());

    // Chrome trace-event format: an array of one metadata event plus one
    // complete ("X") event per span, all on pid 1.
    let events = parsed(&trace.to_chrome_trace());
    let events = events.as_arr().unwrap();
    assert_eq!(events.len(), trace.root.len() + 1);
    let meta = &events[0];
    assert_eq!(meta.get("ph").unwrap().as_str(), Some("M"));
    for e in &events[1..] {
        assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(e.get("pid").unwrap().as_f64(), Some(1.0));
        for key in ["name", "cat", "ts", "dur", "tid"] {
            assert!(e.get(key).is_some(), "trace event lost key `{key}`");
        }
    }
}
