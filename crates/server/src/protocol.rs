//! Request parsing and response building — the testable, socket-free
//! half of the server.
//!
//! One request line maps to one JSON response line:
//!
//! | request              | handled by                               |
//! |----------------------|------------------------------------------|
//! | bare program text    | [`Session::query`] on the pinned snapshot |
//! | `.commit <program>`  | [`Session::commit`] via the committer     |
//! | `.metrics`           | this session's metrics as JSON            |
//! | `.telemetry`         | this session's telemetry snapshot         |
//! | `.generation`        | the pinned generation number              |
//! | `.refresh`           | re-pin to the newest generation           |
//! | `.server`            | database-wide [`ServerStats`]             |
//! | `.memo`              | memo picture behind the last plan         |
//! | `.reoptimize`        | feedback-driven re-plan of the last query |
//! | `.close`             | acknowledge and close the connection      |
//!
//! Every response is one JSON object with an `"ok"` field; errors are
//! `{"ok":false,"error":"…"}` and never tear down the connection.  A
//! query whose plan came from the session's plan cache reports a `cached`
//! phase where `optimize` and `lower` would be, and `.memo` after it
//! renders the search stored with the entry, prefixed `cached:`.

use excess_db::session::ServerStats;
use excess_db::{metrics_json, value_json, QueryOutcome, Session, VersionedDb};

use excess_core::json::quote_json;

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
pub fn unescape(s: &str) -> String {
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

fn error_line(msg: &str) -> String {
    format!("{{\"ok\":false,\"error\":{}}}", quote_json(msg))
}

fn phases_json(phases: &[(&'static str, u64)]) -> String {
    let fields: Vec<String> = phases
        .iter()
        .map(|(name, us)| format!("{}:{us}", quote_json(name)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn outcome_line(session: &Session, out: &QueryOutcome) -> String {
    // Canonicalize before serializing: process-local OIDs must not
    // cross the wire.
    let canon = session.canon(&out.value);
    format!(
        "{{\"ok\":true,\"generation\":{},\"rows\":{},\"plan_hash\":{},\
         \"us\":{},\"phases\":{},\"value\":{}}}",
        out.generation,
        out.rows,
        quote_json(&format!("{:016x}", out.plan_hash)),
        out.total_us,
        phases_json(&out.phase_us),
        value_json(&canon)
    )
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
            // Commit values come from the master database, whose store
            // is not visible here; writes return `true`/scalars in
            // practice, and any refs serialize opaquely.
            Ok((value, generation)) => format!(
                "{{\"ok\":true,\"generation\":{generation},\"value\":{}}}",
                value_json(&value)
            ),
            Err(e) => error_line(&e.to_string()),
        });
    }
    match line {
        ".metrics" => Response::keep(format!(
            "{{\"ok\":true,\"metrics\":{}}}",
            metrics_json(session.metrics())
        )),
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
        ".reoptimize" => Response::keep(match session.reoptimize_last() {
            Some(report) => format!("{{\"ok\":true,\"reoptimize\":{}}}", quote_json(&report)),
            None => error_line(
                "nothing to re-optimize: no query yet, or no misestimation recorded for its plan",
            ),
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
        let m = respond(&db, &mut s, ".metrics");
        let v = parse_json(&m.line).expect("valid JSON");
        assert_eq!(
            v.get("metrics").unwrap().get("queries").unwrap().as_f64(),
            Some(1.0)
        );
        let t = respond(&db, &mut s, ".telemetry");
        assert!(parse_json(&t.line)
            .unwrap()
            .get("telemetry")
            .unwrap()
            .get("registry")
            .is_some());
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
    fn reoptimize_command_answers_in_json_either_way() {
        let db = vdb();
        let mut s = db.begin_session();
        // Nothing has run: a JSON error, not a disconnect.
        let r = respond(&db, &mut s, ".reoptimize");
        let v = parse_json(&r.line).expect("valid JSON");
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        respond(&db, &mut s, "retrieve (DS.dname)");
        let r = respond(&db, &mut s, ".reoptimize");
        assert!(!r.close);
        let v = parse_json(&r.line).expect("valid JSON");
        // With accurate estimates there may be nothing to correct; with a
        // misestimate the response carries the report. Either is valid JSON.
        assert!(v.get("ok").is_some(), "{}", r.line);
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
