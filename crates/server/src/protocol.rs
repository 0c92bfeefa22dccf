//! Request parsing and response building — the testable, socket-free
//! half of the server.
//!
//! One request line maps to one JSON response line.  A line that does not
//! start with `.` is program text for [`Session::query`] on the pinned
//! snapshot; any other line is a dot-command, looked up by its first word
//! in one table, `COMMANDS`, which `.help` also renders:
//!
//! | request                | answers                                        |
//! |------------------------|------------------------------------------------|
//! | bare program text      | [`Session::query`] on the pinned snapshot      |
//! | `.help`                | this table: every command, argument and use    |
//! | `.commit <program>`    | [`Session::commit`] via the committer          |
//! | `.telemetry`           | this session's telemetry snapshot              |
//! | `.slowlog`             | the flight records at or over the slow threshold |
//! | `.memo`                | memo picture behind the last plan              |
//! | `.plan <retrieve>`     | EXPLAIN of the translated and optimized plans  |
//! | `.journal <retrieve>`  | the optimizer's rewrite journal                |
//! | `.physical <retrieve>` | the lowered plan and each kernel's actual rows |
//! | `.profile <retrieve>`  | EXPLAIN ANALYZE                                |
//! | `.spans <retrieve>`    | the span tree of one traced run                |
//! | `.verify <retrieve>`   | the verifier's diagnostics and output schema   |
//! | `.stats [object]`      | the optimizer's statistics                     |
//! | `.objects`             | named objects and their schemas                |
//! | `.dump`                | the schema as EXTRA DDL                        |
//! | `.generation`          | the pinned generation number                   |
//! | `.refresh`             | re-pin to the newest generation                |
//! | `.server`              | database-wide [`ServerStats`]                  |
//! | `.close`               | acknowledge and close the connection           |
//!
//! The commands taking a `<retrieve>` run on [`Session::inspect`]'s
//! throwaway database over the pinned snapshot, the session's scratch
//! store and its `range of` declarations: they leave no trace in the
//! session, whose `.telemetry` and `.memo` answer as before them.
//! `.physical`, `.profile` and `.spans` run the per-node traced path,
//! not the fused one a served query runs.
//!
//! Every response is one JSON object with an `"ok"` field; errors are
//! `{"ok":false,"error":"…"}` and never tear down the connection.  A
//! command that takes no argument, sent with one, is an unknown command.
//! A query whose plan came from the session's plan cache reports a
//! `cached` phase where `optimize` and `lower` would be, and `.memo`
//! after it renders the search stored with the entry, prefixed `cached:`.

use excess_db::session::ServerStats;
use excess_db::{
    journal_json, verify_json, write_value_json, Database, DbError, DbResult, QueryOutcome,
    Session, Tracing, VersionedDb,
};

use excess_core::expr::Expr;
use excess_core::json::{number, push_quoted, quote_json};
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
    if !line.starts_with('.') {
        return Response::keep(match session.query(&unescape(line)) {
            Ok(out) => outcome_line(session, &out),
            Err(e) => error_line(&e.to_string()),
        });
    }
    let (name, arg) = match line.split_once(char::is_whitespace) {
        Some((name, arg)) => (name, arg.trim_start()),
        None => (line, ""),
    };
    let answer = match COMMANDS.iter().find(|(n, ..)| *n == name) {
        Some((_, args, ..)) if args.starts_with('<') && arg.is_empty() => {
            Err(DbError::Other(format!("usage: {name} {args}")))
        }
        // A command that takes nothing, sent with something, is not that
        // command.
        Some((_, args, _, run)) if !args.is_empty() || arg.is_empty() => {
            run(db, session, &unescape(arg))
        }
        _ => Err(DbError::Other(format!("unknown command `{line}`"))),
    };
    Response {
        line: match answer {
            Ok(fields) => format!("{{\"ok\":true,{fields}}}"),
            Err(e) => error_line(&e.to_string()),
        },
        close: name == ".close" && arg.is_empty(),
    }
}

/// A dot-command's handler: the fields of its `"ok":true` answer, given
/// the argument with its escapes expanded.
type Handler = fn(&VersionedDb, &mut Session, &str) -> DbResult<String>;

/// Every dot-command — name, the argument `.help` shows (`<…>` required,
/// `[…]` optional, empty for none), what it answers, handler.  [`respond`]
/// dispatches through it and `.help` lists it.
#[rustfmt::skip]
const COMMANDS: &[(&str, &str, &str, Handler)] = &[
    (".help",       "",           "this list",                                  cmd_help),
    (".commit",     "<program>",  "apply a program through the committer",      cmd_commit),
    (".telemetry",  "",           "this session's metrics and flight recorder", cmd_telemetry),
    (".slowlog",    "",           "flight records over the slow threshold",     cmd_slowlog),
    (".memo",       "",           "memo picture behind the last plan",          cmd_memo),
    (".plan",       "<retrieve>", "EXPLAIN the translated and optimized plans", cmd_plan),
    (".journal",    "<retrieve>", "the optimizer's rewrite journal",            cmd_journal),
    (".physical",   "<retrieve>", "kernel choices, estimated vs actual rows",   cmd_physical),
    (".profile",    "<retrieve>", "EXPLAIN ANALYZE, per operator",              cmd_profile),
    (".spans",      "<retrieve>", "the span tree of one traced run",            cmd_spans),
    (".verify",     "<retrieve>", "diagnostics and output schema",              cmd_verify),
    (".stats",      "[object]",   "the optimizer's statistics",                 cmd_stats),
    (".objects",    "",           "named objects and their schemas",            cmd_objects),
    (".dump",       "",           "the schema as EXTRA DDL",                    cmd_dump),
    (".generation", "",           "the pinned generation number",               cmd_generation),
    (".refresh",    "",           "re-pin to the newest generation",            cmd_refresh),
    (".server",     "",           "database-wide session and commit counters",  cmd_server),
    (".close",      "",           "acknowledge and close the connection",       cmd_close),
];

fn cmd_help(_: &VersionedDb, _: &mut Session, _: &str) -> DbResult<String> {
    let entries: Vec<String> = COMMANDS
        .iter()
        .map(|(name, args, help, _)| {
            format!(
                "{{\"command\":{},\"args\":{},\"help\":{}}}",
                quote_json(name),
                quote_json(args),
                quote_json(help)
            )
        })
        .collect();
    Ok(format!("\"help\":[{}]", entries.join(",")))
}

fn cmd_commit(_: &VersionedDb, session: &mut Session, src: &str) -> DbResult<String> {
    let (value, generation) = session.commit(src)?;
    // `commit` re-pinned the session to the newest generation, whose
    // store holds the objects the value's refs name: canonicalize as a
    // query does, so process-local OIDs do not cross the wire.
    let mut fields = format!("\"generation\":{generation},\"value\":");
    write_value_json(&session.canon(&value), &mut fields);
    Ok(fields)
}

fn cmd_telemetry(_: &VersionedDb, session: &mut Session, _: &str) -> DbResult<String> {
    Ok(format!(
        "\"telemetry\":{}",
        session.telemetry().snapshot_json()
    ))
}

fn cmd_slowlog(_: &VersionedDb, session: &mut Session, _: &str) -> DbResult<String> {
    let recorder = &session.telemetry().recorder;
    let threshold = recorder.slow_threshold_us();
    let records: Vec<String> = recorder.slow().map(|r| r.to_json(threshold)).collect();
    Ok(format!(
        "\"slow_threshold_us\":{threshold},\"slowlog\":[{}]",
        records.join(",")
    ))
}

fn cmd_memo(_: &VersionedDb, session: &mut Session, _: &str) -> DbResult<String> {
    let snapshot = session
        .last_memo()
        .ok_or_else(|| DbError::Other("no plan search yet: run a query first".into()))?;
    // A hit searched nothing: the picture is the one stored with the
    // entry, and says so.
    let cached = if session.last_plan_was_cached() {
        "cached: "
    } else {
        ""
    };
    Ok(format!(
        "\"memo\":{}",
        quote_json(&format!("{cached}{}", snapshot.render()))
    ))
}

/// Run `f` on [`Session::inspect`]'s throwaway database and the plan of
/// the one `retrieve` in `src`.
fn inspect(
    session: &Session,
    src: &str,
    f: impl FnOnce(&mut Database, Expr) -> DbResult<String>,
) -> DbResult<String> {
    let mut db = session.inspect();
    let plan = db.plan_for(src)?;
    f(&mut db, plan)
}

/// The plan a served query would run: searched unless optimization is off.
fn optimized(db: &mut Database, plan: Expr) -> Expr {
    if db.optimize {
        db.optimize_plan_journaled(&plan).0
    } else {
        plan
    }
}

fn cmd_plan(_: &VersionedDb, session: &mut Session, src: &str) -> DbResult<String> {
    inspect(session, src, |db, plan| {
        Ok(format!(
            "\"initial\":{},\"optimized\":{}",
            quote_json(&db.explain(&plan)),
            quote_json(&db.explain(&db.optimize_plan(&plan)))
        ))
    })
}

fn cmd_journal(_: &VersionedDb, session: &mut Session, src: &str) -> DbResult<String> {
    inspect(session, src, |db, plan| {
        let (_, journal) = db.optimize_plan_journaled(&plan);
        Ok(format!("\"journal\":{}", journal_json(&journal)))
    })
}

fn cmd_physical(_: &VersionedDb, session: &mut Session, src: &str) -> DbResult<String> {
    inspect(session, src, |db, plan| {
        let plan = optimized(db, plan);
        let (physical, _) = db.lower_plan(&plan);
        let ran = db.run_lowered(&physical, Tracing::Precise)?;
        let mut text = physical.render();
        text.push_str(&physical.render_choices(&ran.profile.expect("tracing was enabled")));
        Ok(format!("\"physical\":{}", quote_json(&text)))
    })
}

fn cmd_profile(_: &VersionedDb, session: &mut Session, src: &str) -> DbResult<String> {
    inspect(session, src, |db, plan| {
        let plan = optimized(db, plan);
        Ok(format!(
            "\"profile\":{}",
            quote_json(&db.explain_analyze(&plan)?)
        ))
    })
}

fn cmd_spans(_: &VersionedDb, session: &mut Session, src: &str) -> DbResult<String> {
    // `plan_for` has checked that `src` is one retrieve; run it traced.
    inspect(session, src, |db, _| {
        db.enable_query_spans(true);
        db.execute(src)?;
        let trace = db.last_query_trace().expect("a traced retrieve ran");
        Ok(format!("\"spans\":{}", trace.to_json()))
    })
}

fn cmd_verify(_: &VersionedDb, session: &mut Session, src: &str) -> DbResult<String> {
    inspect(session, src, |db, plan| {
        let report = db.verify_plan(&plan);
        let schema = report
            .schema
            .as_ref()
            .map_or("null".to_string(), |s| quote_json(&s.to_string()));
        Ok(format!(
            "\"verify\":{},\"schema\":{schema}",
            verify_json(&report)
        ))
    })
}

fn cmd_stats(_: &VersionedDb, session: &mut Session, object: &str) -> DbResult<String> {
    let stats = &session.snapshot().stats;
    let mut names: Vec<&String> = stats
        .objects
        .keys()
        .filter(|n| object.is_empty() || n.as_str() == object)
        .collect();
    if names.is_empty() && !object.is_empty() {
        return Err(DbError::Other(format!("no statistics for `{object}`")));
    }
    names.sort_unstable();
    let entries: Vec<String> = names
        .into_iter()
        .map(|name| {
            let o = &stats.objects[name];
            let ndv: Vec<String> = o
                .attr_ndv
                .iter()
                .map(|(attr, ndv)| format!("{}:{}", quote_json(attr), number(*ndv)))
                .collect();
            format!(
                "{}:{{\"rows\":{},\"distinct\":{},\"avg_nested\":{},\"attr_ndv\":{{{}}}}}",
                quote_json(name),
                number(o.rows),
                number(o.distinct),
                number(o.avg_nested),
                ndv.join(",")
            )
        })
        .collect();
    Ok(format!("\"stats\":{{{}}}", entries.join(",")))
}

fn cmd_objects(_: &VersionedDb, session: &mut Session, _: &str) -> DbResult<String> {
    let catalog = &session.snapshot().catalog;
    let mut entries: Vec<(&str, String)> = catalog
        .names()
        .filter_map(|name| Some((name, quote_json(&catalog.schema(name)?.to_string()))))
        .collect();
    entries.sort_unstable();
    let entries: Vec<String> = entries
        .into_iter()
        .map(|(name, schema)| format!("{}:{schema}", quote_json(name)))
        .collect();
    Ok(format!("\"objects\":{{{}}}", entries.join(",")))
}

fn cmd_dump(_: &VersionedDb, session: &mut Session, _: &str) -> DbResult<String> {
    Ok(format!(
        "\"dump\":{}",
        quote_json(&session.inspect().dump_schema())
    ))
}

fn cmd_generation(_: &VersionedDb, session: &mut Session, _: &str) -> DbResult<String> {
    Ok(format!("\"generation\":{}", session.generation()))
}

fn cmd_refresh(db: &VersionedDb, session: &mut Session, arg: &str) -> DbResult<String> {
    session.refresh();
    cmd_generation(db, session, arg)
}

fn cmd_server(db: &VersionedDb, _: &mut Session, _: &str) -> DbResult<String> {
    Ok(format!("\"server\":{}", server_stats_json(&db.stats())))
}

fn cmd_close(_: &VersionedDb, _: &mut Session, _: &str) -> DbResult<String> {
    Ok("\"closing\":true".to_string())
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
            // A command is its first word: neither of these is `.commit`.
            ".commitappend to DS ((dname: \"x\", budget: 1))",
            ".committee",
            ".plan append to DS ((dname: \"x\", budget: 1))",
            ".plan",
            ".stats Nope",
        ] {
            let r = respond(&db, &mut s, bad);
            assert!(!r.close, "{bad}");
            let v = parse_json(&r.line).expect("valid JSON");
            assert_eq!(v.get("ok").unwrap().as_bool(), Some(false), "{bad}");
        }
        assert_eq!(db.generation(), 0, "nothing was committed");
        db.shutdown();
    }

    #[test]
    fn help_lists_exactly_the_table() {
        let db = vdb();
        let mut s = db.begin_session();
        let v = parse_json(&respond(&db, &mut s, ".help").line).expect("valid JSON");
        let listed: Vec<&str> = v
            .get("help")
            .and_then(|h| h.as_arr())
            .expect("a help array")
            .iter()
            .map(|c| c.get("command").and_then(|n| n.as_str()).expect("a name"))
            .collect();
        let table: Vec<&str> = COMMANDS.iter().map(|(name, ..)| *name).collect();
        assert_eq!(listed, table);
        db.shutdown();
    }

    /// The inspection commands run on a throwaway database: the session's
    /// telemetry and memo answer the same bytes after them as before.
    #[test]
    fn inspection_leaves_no_trace_in_the_session() {
        let db = vdb();
        let mut s = db.begin_session();
        respond(&db, &mut s, "range of D is DS");
        respond(&db, &mut s, "retrieve unique (D.dname)");
        let before = [".telemetry", ".memo"].map(|c| respond(&db, &mut s, c).line);
        for (name, ..) in COMMANDS
            .iter()
            .filter(|(_, args, ..)| *args == "<retrieve>")
        {
            let line = format!("{name} retrieve (D.dname) where D.budget > 150");
            let r = respond(&db, &mut s, &line);
            let v = parse_json(&r.line).expect("valid JSON");
            assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{}", r.line);
        }
        let after = [".telemetry", ".memo"].map(|c| respond(&db, &mut s, c).line);
        assert_eq!(before, after);
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
        // metrics store: `.telemetry` is the one metrics document.  A
        // command is its first word, and one that takes nothing, sent
        // with something, is not that command.
        for cmd in [
            concat!(".re", "optimize"),
            ".feedback",
            ".metrics",
            ".committee",
            ".telemetry reset",
            ".memo x",
            ".close now",
        ] {
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
