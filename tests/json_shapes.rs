//! Golden shapes for every JSON surface, checked by round-tripping each
//! document through `excess_core::json::parse_json` and asserting the
//! keys downstream consumers (CI, the report binary, trace viewers)
//! rely on.  These tests pin the *shape*, not the numbers — except for
//! query results, whose wire bytes are pinned exactly.

use excess::algebra::canonical_form;
use excess::algebra::json::{parse_json, JsonValue};
use excess::db::{value_json, Database, VersionedDb};
use excess::server::protocol::server_stats_json;
use excess::server::respond;
use excess::types::{Date, ObjectStore, Oid, SchemaType, TypeId, TypeRegistry, Value};
use excess_bench::example1::{example1_db, figure6};
use excess_bench::server_mix::server_mix_db;

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

/// The keys of every inspection command's response, in order, after a
/// `range of` line and a query on one session.
#[test]
fn inspection_command_shapes() {
    const JOIN: &str = "retrieve unique (S.sdept, E.ename) by S.sdept where S.sadv = E.ename";
    let vdb = VersionedDb::new(server_mix_db(20));
    let mut session = vdb.begin_session();
    let mut ask = |line: &str| {
        let v = parsed(&respond(&vdb, &mut session, line).line);
        assert_eq!(
            v.get("ok").and_then(JsonValue::as_bool),
            Some(true),
            "{line}"
        );
        v
    };
    ask("range of S is S1 range of E is E1");
    ask(JOIN);

    let help = ask(".help");
    assert_eq!(obj_keys(&help), ["ok", "help"]);
    for entry in help.get("help").unwrap().as_arr().unwrap() {
        assert_eq!(obj_keys(entry), ["command", "args", "help"]);
    }
    let slowlog = ask(".slowlog");
    assert_eq!(obj_keys(&slowlog), ["ok", "slow_threshold_us", "slowlog"]);
    assert!(slowlog.get("slowlog").unwrap().as_arr().is_some());

    let at = |cmd: &str| format!("{cmd} {JOIN}");
    assert_eq!(obj_keys(&ask(&at(".plan"))), ["ok", "initial", "optimized"]);
    let journal = ask(&at(".journal"));
    assert_eq!(obj_keys(&journal), ["ok", "journal"]);
    assert_eq!(
        obj_keys(journal.get("journal").unwrap()),
        [
            "initial_cost",
            "final_cost",
            "plans_enumerated",
            "max_plans",
            "rule_sequence",
            "steps",
            "refused"
        ]
    );
    assert_eq!(obj_keys(&ask(&at(".physical"))), ["ok", "physical"]);
    assert_eq!(obj_keys(&ask(&at(".profile"))), ["ok", "profile"]);
    let spans = ask(&at(".spans"));
    assert_eq!(obj_keys(&spans), ["ok", "spans"]);
    assert_eq!(
        obj_keys(spans.get("spans").unwrap()),
        ["query", "plan_hash", "root"]
    );
    let verify = ask(&at(".verify"));
    assert_eq!(obj_keys(&verify), ["ok", "verify", "schema"]);
    assert_eq!(
        obj_keys(verify.get("verify").unwrap()),
        ["clean", "errors", "lints", "diagnostics"]
    );

    let stats = ask(".stats S1");
    assert_eq!(obj_keys(&stats), ["ok", "stats"]);
    let s1 = stats.get("stats").unwrap();
    assert_eq!(obj_keys(s1), ["S1"]);
    assert_eq!(
        obj_keys(s1.get("S1").unwrap()),
        ["rows", "distinct", "avg_nested", "attr_ndv"]
    );
    let objects = ask(".objects");
    assert_eq!(obj_keys(&objects), ["ok", "objects"]);
    assert!(objects
        .get("objects")
        .unwrap()
        .get("S1")
        .unwrap()
        .as_str()
        .is_some());
    assert_eq!(obj_keys(&ask(".dump")), ["ok", "dump"]);
    drop(session);
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

// Golden strings: the bytes `value_json` wrote when it still built one
// `String` per node.  The wire promises these bytes, so a change to the
// writer must reproduce them exactly.
#[test]
fn value_json_bytes_are_pinned() {
    let cases = [
        (Value::dne(), r#"{"null":"dne"}"#),
        (Value::unk(), r#"{"null":"unk"}"#),
        (
            Value::array([
                Value::float(f64::NAN),
                Value::float(f64::INFINITY),
                Value::float(f64::NEG_INFINITY),
                Value::float(2.5),
                Value::float(-0.125),
                Value::float(1e21),
            ]),
            "[null,null,null,2.5,-0.125,1000000000000000000000]",
        ),
        (
            Value::date(Date::new(1991, 5, 29).unwrap()),
            r#""1991-05-29""#,
        ),
        (
            Value::str("a\"b\\c\nd\re\tf\u{1}g\u{1f} é σ ⋈ —"),
            r#""a\"b\\c\nd\re\tf\u0001g\u001f é σ ⋈ —""#,
        ),
        (
            Value::set([
                Value::set([Value::int(1), Value::int(1), Value::int(-2)]),
                Value::set([Value::int(1), Value::int(1), Value::int(-2)]),
                Value::set([]),
                Value::set([Value::str("x"), Value::str("x")]),
            ]),
            r#"{"set":[{"set":[]},{"set":[-2,1,1]},{"set":[-2,1,1]},{"set":["x","x"]}]}"#,
        ),
        (
            Value::array([
                Value::int(3),
                Value::array([]),
                Value::array([Value::bool(true), Value::bool(false)]),
                Value::tuple([("a", Value::str("y")), ("b", Value::unk())]),
            ]),
            r#"[3,[],[true,false],{"a":"y","b":{"null":"unk"}}]"#,
        ),
        (
            Value::Ref(Oid {
                minted: TypeId(3),
                serial: 7,
            }),
            r#"{"ref":"@ty3#7"}"#,
        ),
    ];
    for (value, golden) in cases {
        assert_eq!(value_json(&value), golden, "{value}");
        parsed(golden);
    }
}

/// A set whose tuples hold a `Ref` (twice to the same object), a `Ref`
/// to a second object, and `Ref`-free siblings.
fn mixed_set() -> (Value, ObjectStore, Oid) {
    let mut r = TypeRegistry::new();
    r.define("Cell", SchemaType::tuple([("v", SchemaType::int4())]))
        .unwrap();
    let ty = r.lookup("Cell").unwrap();
    let mut s = ObjectStore::new();
    let o1 = s
        .create(&r, ty, Value::tuple([("v", Value::int(7))]))
        .unwrap();
    let o2 = s
        .create(&r, ty, Value::tuple([("v", Value::int(9))]))
        .unwrap();
    let row = |name: &str, cell: Value| Value::tuple([("name", Value::str(name)), ("cell", cell)]);
    let set = Value::set([
        row("a", Value::Ref(o2)),
        row("b", Value::int(1)),
        row("c", Value::Ref(o1)),
        row("d", Value::Ref(o2)),
        row("e", Value::set([Value::int(2), Value::int(2)])),
    ]);
    (set, s, o1)
}

#[test]
fn canonical_form_renders_as_before_and_shares_ref_free_siblings() {
    let (set, mut store, o1) = mixed_set();
    let canon = canonical_form(&set, &store);
    assert_eq!(
        value_json(&canon),
        r#"{"set":[{"name":"a","cell":{"@obj":0,"@val":{"v":9}}},{"name":"b","cell":1},{"name":"c","cell":{"@obj":1,"@val":{"v":7}}},{"name":"d","cell":{"@obj":0}},{"name":"e","cell":{"set":[2,2]}}]}"#
    );
    // The two `Ref`-free rows come back as the input's own storage.
    let rows = set.as_set().unwrap();
    let out = canon.as_set().unwrap();
    let mut shared = 0;
    for (row, _) in rows.iter_counted() {
        let cell = row.as_tuple().unwrap().get("cell").unwrap();
        if cell.as_ref_oid().is_some() {
            continue;
        }
        let (same, _) = out.iter_counted().find(|(c, _)| *c == row).unwrap();
        assert!(same.shares_storage_with(row), "{row} was copied");
        shared += 1;
    }
    assert_eq!(shared, 2);

    store.delete(o1).unwrap();
    assert_eq!(
        value_json(&canonical_form(&set, &store)),
        r#"{"set":[{"name":"a","cell":{"@obj":0,"@val":{"v":9}}},{"name":"b","cell":1},{"name":"c","cell":{"@obj":1,"@dangling":true}},{"name":"d","cell":{"@obj":0}},{"name":"e","cell":{"set":[2,2]}}]}"#
    );
}

#[test]
fn an_oid_free_value_is_its_own_canonical_form() {
    let store = ObjectStore::new();
    for v in [
        Value::set([Value::tuple([("a", Value::set([Value::int(1)]))])]),
        Value::tuple([("a", Value::array([Value::str("x")]))]),
        Value::array([Value::dne(), Value::unk()]),
    ] {
        let canon = canonical_form(&v, &store);
        assert_eq!(canon, v);
        assert!(canon.shares_storage_with(&v), "{v} was copied");
    }
}
