//! An interactive EXCESS shell: a line loop over the server's protocol.
//!
//! ```sh
//! cargo run --example repl
//! ```
//!
//! Each line is one request to [`excess::server::respond`] on an
//! in-process `VersionedDb`, exactly as a connection sends it: program
//! text runs read-only on the session's snapshot, writes go through
//! `.commit <program>`, and `.help` lists every command.  The one local
//! command is `.load university`, which swaps in the Figure 1 database.
//! `.close` or end of input quits.  Responses are rendered from their
//! JSON: rows of tuples as tables, text as text, the rest as indented
//! `key: value` lines.

use excess::algebra::json::{parse_json, push_number, push_quoted, JsonValue};
use excess::db::{Database, VersionedDb};
use excess::server::respond;
use excess::workload::{generate, UniversityParams};
use std::io::{BufRead, Write};

fn main() {
    let mut db = VersionedDb::new(Database::new());
    let mut session = db.begin_session();
    println!("EXCESS shell — .help for commands, .load university for the Figure 1 database.");
    prompt();
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        let mut words = line.split_whitespace();
        if words.next() == Some(".load") {
            if words.eq(["university"]) {
                match generate(&UniversityParams::default()) {
                    Ok(u) => {
                        let loaded = VersionedDb::new(u.db);
                        session = loaded.begin_session();
                        std::mem::replace(&mut db, loaded).shutdown();
                        println!("loaded the Figure 1 university database");
                    }
                    Err(e) => println!("error: {e}"),
                }
            } else {
                println!("error: usage: .load university");
            }
        } else if !line.trim().is_empty() {
            let response = respond(&db, &mut session, &line);
            render(&response.line);
            if response.close {
                break;
            }
        }
        prompt();
    }
    drop(session);
    db.shutdown();
}

fn prompt() {
    print!("excess> ");
    let _ = std::io::stdout().flush();
}

/// Print one response line for a person: an error as `error: …`; else
/// the top-level scalars on one line, then every other field.
fn render(line: &str) {
    let Ok(response) = parse_json(line) else {
        return println!("{line}");
    };
    if let Some(error) = response.get("error").and_then(JsonValue::as_str) {
        return println!("error: {error}");
    }
    let fields = response.as_obj().unwrap_or_default();
    let scalars: Vec<String> = fields
        .iter()
        .filter(|(key, v)| key != "ok" && is_scalar(v))
        .map(|(key, v)| format!("{key}: {}", cell(v)))
        .collect();
    if !scalars.is_empty() {
        println!("{}", scalars.join("  "));
    }
    let mut out = String::new();
    for (key, v) in fields.iter().filter(|(_, v)| !is_scalar(v)) {
        if key == "value" {
            value(v, &mut out);
        } else {
            field(key, v, "", &mut out);
        }
    }
    print!("{out}");
}

/// A query result: a multiset of tuples as a table, of anything else one
/// element a line; any other value as compact JSON.
fn value(v: &JsonValue, out: &mut String) {
    let elements = match v.get("set").and_then(JsonValue::as_arr) {
        Some([]) => return out.push_str("(empty)\n"),
        Some(rows) if table(rows, "", out) => return,
        Some(rows) => rows,
        None => std::slice::from_ref(v),
    };
    for e in elements {
        out.push_str(&cell(e));
        out.push('\n');
    }
}

/// A number, boolean, null or one-line string.
fn is_scalar(v: &JsonValue) -> bool {
    match v {
        JsonValue::Str(s) => !s.contains('\n'),
        JsonValue::Arr(_) | JsonValue::Obj(_) => false,
        _ => true,
    }
}

/// `key: value` at `indent`: short objects of scalars on one line, other
/// objects and text blocks nested below the key, arrays of same-keyed
/// objects of scalars as tables.
fn field(key: &str, v: &JsonValue, indent: &str, out: &mut String) {
    let inner = format!("{indent}  ");
    let all_scalar = |members: &[(String, JsonValue)]| members.iter().all(|(_, m)| is_scalar(m));
    match v {
        JsonValue::Obj(members) if all_scalar(members) => {
            let pairs: Vec<String> = members
                .iter()
                .map(|(k, m)| format!("{k}={}", cell(m)))
                .collect();
            let line = format!("{indent}{key}: {}", pairs.join(" "));
            if line.chars().count() <= 100 {
                out.push_str(&line);
                out.push('\n');
            } else {
                out.push_str(&format!("{indent}{key}:\n"));
                for (k, m) in members {
                    field(k, m, &inner, out);
                }
            }
        }
        JsonValue::Str(text) if text.contains('\n') => {
            out.push_str(&format!("{indent}{key}:\n"));
            for l in text.lines() {
                out.push_str(&format!("{inner}{l}\n"));
            }
        }
        JsonValue::Obj(members) if !members.is_empty() => {
            out.push_str(&format!("{indent}{key}:\n"));
            for (k, m) in members {
                field(k, m, &inner, out);
            }
        }
        JsonValue::Arr(items) if !items.is_empty() && !items.iter().all(is_scalar) => {
            out.push_str(&format!("{indent}{key}:\n"));
            let rows_of_scalars = items
                .iter()
                .all(|item| item.as_obj().is_some_and(all_scalar));
            if !(rows_of_scalars && table(items, &inner, out)) {
                for (i, item) in items.iter().enumerate() {
                    field(&format!("[{i}]"), item, &inner, out);
                }
            }
        }
        _ => out.push_str(&format!("{indent}{key}: {}\n", cell(v))),
    }
}

/// Append `rows` as an aligned table when every row is an object with
/// the same keys; otherwise append nothing and return `false`.  Values
/// that are not scalars show as compact JSON.
fn table(rows: &[JsonValue], indent: &str, out: &mut String) -> bool {
    let Some(header) = rows.first().and_then(JsonValue::as_obj) else {
        return false;
    };
    let mut grid: Vec<Vec<String>> = vec![header.iter().map(|(k, _)| k.clone()).collect()];
    for row in rows {
        match row.as_obj() {
            Some(members)
                if members
                    .iter()
                    .map(|(k, _)| k)
                    .eq(header.iter().map(|(k, _)| k)) =>
            {
                grid.push(members.iter().map(|(_, v)| cell(v)).collect());
            }
            _ => return false,
        }
    }
    let widths: Vec<usize> = (0..header.len())
        .map(|c| grid.iter().map(|r| r[c].chars().count()).max().unwrap_or(0))
        .collect();
    for (i, row) in grid.iter().enumerate() {
        let padded: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, &w)| format!("{c:<w$}"))
            .collect();
        out.push_str(&format!("{indent}{}\n", padded.join(" | ").trim_end()));
        if i == 0 {
            let rule: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
            out.push_str(&format!("{indent}{}\n", rule.join("-+-")));
        }
    }
    true
}

/// A value as one table cell: strings bare, everything else compact JSON.
fn cell(v: &JsonValue) -> String {
    match v {
        JsonValue::Str(s) => s.clone(),
        _ => {
            let mut out = String::new();
            compact(v, &mut out);
            out
        }
    }
}

fn compact(v: &JsonValue, out: &mut String) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Num(x) => push_number(out, *x),
        JsonValue::Str(s) => push_quoted(out, s),
        JsonValue::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                compact(item, out);
            }
            out.push(']');
        }
        JsonValue::Obj(members) => {
            out.push('{');
            for (i, (k, m)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_quoted(out, k);
                out.push(':');
                compact(m, out);
            }
            out.push('}');
        }
    }
}
