//! Compile-time thread-safety audit: the session/server layer shares
//! database state across threads, so the core state types must be
//! `Send + Sync`.  These assertions fail to *build* if a non-`Send`
//! field (an `Rc`, a `RefCell`, a raw pointer) sneaks into any of them.

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn core_state_is_send_and_sync() {
    assert_send_sync::<excess::types::TypeRegistry>();
    assert_send_sync::<excess::types::ObjectStore>();
    assert_send_sync::<excess::types::Value>();
    assert_send_sync::<excess::db::DbCatalog>();
    assert_send_sync::<excess::db::Database>();
    assert_send_sync::<excess::db::SessionMetrics>();
    assert_send_sync::<excess::telemetry::Telemetry>();
    assert_send_sync::<excess::optimizer::Statistics>();
    assert_send_sync::<excess::lang::methods::MethodRegistry>();
    assert_send_sync::<excess::exec::ExecOutcome>();
}

#[test]
fn session_and_server_layer_is_send_and_sync() {
    assert_send_sync::<excess::db::Generation>();
    assert_send_sync::<excess::db::VersionedDb>();
    assert_send_sync::<excess::db::Session>();
    assert_send_sync::<excess::db::session::CommitBatch>();
    assert_send_sync::<excess::server::ServerHandle>();
}

#[test]
fn multi_statement_single_line_parses() {
    let stmts =
        excess::lang::parse_program("range of S is S1 retrieve unique (S.sdept) by S.sdept")
            .unwrap();
    assert_eq!(stmts.len(), 2);
}
