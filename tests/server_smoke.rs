//! End-to-end server smoke test: start a real TCP server over the
//! benchmark mix database, drive it with the line protocol, and check
//! wire results are canon-identical to in-process session results.

use excess_bench::server_mix::{server_mix_db, MIX};
use excess_core::json::parse_json;
use excess_db::{value_json, VersionedDb};
use excess_server::{serve, Client};

/// The `"value":…` payload of a response line (always the last field).
fn value_field(response: &str) -> &str {
    let idx = response.find("\"value\":").expect("response has a value");
    &response[idx + "\"value\":".len()..response.len() - 1]
}

#[test]
fn figure_mix_over_the_wire_matches_in_process() {
    let vdb = VersionedDb::new(server_mix_db(40));
    let handle = serve(vdb.clone(), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut session = vdb.begin_session();

    for (label, src) in MIX {
        let response = client.request(src).expect("request");
        let parsed = parse_json(&response).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(
            parsed.get("ok").and_then(|v| v.as_bool()),
            Some(true),
            "{label}: {response}"
        );
        let out = session.query(src).expect("in-process query");
        assert_eq!(
            parsed.get("rows").and_then(|v| v.as_f64()),
            Some(out.rows as f64),
            "{label}"
        );
        let local = value_json(&session.canon(&out.value));
        assert_eq!(value_field(&response), local, "{label}: wire vs in-process");
    }

    // Clean close, then clean shutdown.
    let bye = client.request(".close").expect("close");
    assert!(bye.contains("\"closing\":true"), "{bye}");
    let vdb = handle.shutdown();
    let stats = vdb.stats();
    // The connection's session plus our in-process one (still open).
    assert!(stats.sessions_opened >= 2, "{stats:?}");
    assert!(stats.sessions_closed >= 1, "{stats:?}");
    drop(session);
    assert!(vdb.shutdown().is_some(), "committer returns the master db");
}

#[test]
fn wire_commits_are_visible_to_refreshed_connections() {
    let vdb = VersionedDb::new(server_mix_db(20));
    let handle = serve(vdb, "127.0.0.1:0").expect("bind");
    let mut writer = Client::connect(handle.addr()).expect("connect writer");
    let mut reader = Client::connect(handle.addr()).expect("connect reader");

    let before = reader
        .request("retrieve (E1.ename) where E1.esal > 9000")
        .expect("probe");
    let before = parse_json(&before).expect("json");
    let baseline = before.get("rows").and_then(|v| v.as_f64()).unwrap();

    let commit = writer
        .request(".commit append to E1 ((ename: \"wire\", esal: 9500))")
        .expect("commit");
    let commit = parse_json(&commit).expect("json");
    assert_eq!(commit.get("ok").and_then(|v| v.as_bool()), Some(true));
    let generation = commit.get("generation").and_then(|v| v.as_f64()).unwrap();
    assert!(generation >= 1.0);

    // The reader's snapshot is pinned: no change until it refreshes.
    let pinned = reader
        .request("retrieve (E1.ename) where E1.esal > 9000")
        .expect("pinned probe");
    let pinned = parse_json(&pinned).expect("json");
    assert_eq!(pinned.get("rows").and_then(|v| v.as_f64()), Some(baseline));

    let refreshed = reader.request(".refresh").expect("refresh");
    let refreshed = parse_json(&refreshed).expect("json");
    assert_eq!(
        refreshed.get("generation").and_then(|v| v.as_f64()),
        Some(generation)
    );
    let after = reader
        .request("retrieve (E1.ename) where E1.esal > 9000")
        .expect("refreshed probe");
    let after = parse_json(&after).expect("json");
    assert_eq!(
        after.get("rows").and_then(|v| v.as_f64()),
        Some(baseline + 1.0)
    );

    let vdb = handle.shutdown();
    vdb.shutdown();
}

#[test]
fn memo_and_reoptimize_dot_commands_answer_over_the_wire() {
    let vdb = VersionedDb::new(server_mix_db(20));
    let handle = serve(vdb, "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Before any query both commands explain themselves instead of
    // hanging up the connection.
    let memo = client.request(".memo").expect("memo");
    let parsed = parse_json(&memo).expect("json");
    assert_eq!(
        parsed.get("ok").and_then(|v| v.as_bool()),
        Some(false),
        "{memo}"
    );
    let reopt = client.request(".reoptimize").expect("reoptimize");
    let parsed = parse_json(&reopt).expect("json");
    assert_eq!(
        parsed.get("ok").and_then(|v| v.as_bool()),
        Some(false),
        "{reopt}"
    );

    let (_, src) = MIX[0];
    let ran = client.request(src).expect("query");
    assert!(ran.starts_with("{\"ok\":true"), "{ran}");

    // After a query `.memo` renders the group picture of its search.
    let memo = client.request(".memo").expect("memo");
    let parsed = parse_json(&memo).expect("json");
    assert_eq!(
        parsed.get("ok").and_then(|v| v.as_bool()),
        Some(true),
        "{memo}"
    );
    assert!(memo.contains("memo:") && memo.contains("winner:"), "{memo}");
    let reopt = client.request(".reoptimize").expect("reoptimize");
    let parsed = parse_json(&reopt).expect("json");
    if parsed.get("ok").and_then(|v| v.as_bool()) == Some(true) {
        assert!(reopt.contains("re-optimization"), "{reopt}");
    } else {
        assert!(reopt.contains("re-optimize"), "{reopt}");
    }

    let vdb = handle.shutdown();
    vdb.shutdown();
}

/// The same line twice: the second response is served from the
/// connection's plan cache — same plan, same answer, a `cached` phase
/// where `optimize` and `lower` were — and `.memo` says whose search it
/// shows.
#[test]
fn a_repeated_line_is_served_from_the_plan_cache() {
    let vdb = VersionedDb::new(server_mix_db(20));
    let handle = serve(vdb, "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let phases = |response: &str| -> Vec<String> {
        let parsed = parse_json(response).expect("json");
        let phases = parsed.get("phases").expect("phases");
        [
            "parse",
            "translate",
            "cached",
            "optimize",
            "lower",
            "execute",
        ]
        .into_iter()
        .filter(|name| phases.get(name).is_some())
        .map(str::to_string)
        .collect()
    };
    let field = |response: &str, name: &str| {
        let parsed = parse_json(response).expect("json");
        parsed
            .get(name)
            .and_then(|v| v.as_str())
            .map(str::to_string)
    };
    for (label, src) in MIX {
        let first = client.request(src).expect("first");
        assert_eq!(
            phases(&first),
            ["parse", "translate", "optimize", "lower", "execute"],
            "{label}: {first}"
        );
        let searched = client.request(".memo").expect("memo");
        let searched = field(&searched, "memo").expect("a memo picture");
        assert!(searched.starts_with("memo:"), "{label}: {searched}");

        let second = client.request(src).expect("second");
        assert_eq!(
            phases(&second),
            ["parse", "translate", "cached", "execute"],
            "{label}: {second}"
        );
        assert_eq!(field(&first, "plan_hash"), field(&second, "plan_hash"));
        assert_eq!(value_field(&first), value_field(&second), "{label}");
        let cached = client.request(".memo").expect("memo");
        assert_eq!(
            field(&cached, "memo"),
            Some(format!("cached: {searched}")),
            "{label}"
        );
    }
    let vdb = handle.shutdown();
    vdb.shutdown();
}

#[test]
fn connection_metrics_reach_the_global_registry_after_shutdown() {
    let vdb = VersionedDb::new(server_mix_db(20));
    let handle = serve(vdb, "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    for (_, src) in MIX {
        let response = client.request(src).expect("request");
        assert!(response.starts_with("{\"ok\":true"), "{response}");
    }
    // Dropping the socket (no `.close`) must still close the session
    // server-side and merge its metrics.
    drop(client);
    let vdb = handle.shutdown();
    let global = vdb.global_registry();
    assert_eq!(global.counter("queries"), MIX.len() as u64);
    assert!(global.histogram("query_us").is_some());
    vdb.shutdown();
}
