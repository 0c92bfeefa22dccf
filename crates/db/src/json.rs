//! Hand-rolled JSON serializers for the observability types.
//!
//! The workspace deliberately has no serialization dependency, so
//! profiles, rewrite journals, and verifier reports are turned into JSON
//! with plain string building.  Output is deterministic
//! (field order fixed, maps iterated in `BTreeMap` order) so benchmark
//! artifacts diff cleanly across runs.

use excess_core::counters::Counters;
use excess_core::profile::Profile;
use excess_core::verify::Report;
use excess_optimizer::RewriteJournal;

// One implementation of each primitive for the whole workspace: the
// canonical copies live in `excess_core::json` (escaping re-exported here
// so existing `excess::db::escape_json` callers keep working).
pub use excess_core::json::escape_json;
use excess_core::json::{
    millis, number, path_json, push_number, push_quoted, quote_json as quoted,
};

/// Serialize a query-result [`Value`](excess_types::Value) for the wire:
/// [`write_value_json`] into a fresh `String`.
pub fn value_json(v: &excess_types::Value) -> String {
    let mut out = String::new();
    write_value_json(v, &mut out);
    out
}

/// Append a query-result [`Value`](excess_types::Value)'s JSON to `out` —
/// the one value serializer: every node writes into the same buffer.
///
/// Scalars map to JSON primitives, dates to `"YYYY-MM-DD"` strings,
/// tuples to objects, arrays to JSON arrays, and multisets to
/// `{"set":[…]}` with duplicates expanded in canonical (sorted) order —
/// `MultiSet` iterates a `BTreeMap`, so the rendering is deterministic.
/// The two nulls stay distinguishable (`{"null":"dne"}` / `{"null":"unk"}`).
/// References serialize as `{"ref":"<oid>"}`; since OIDs have no
/// client-visible meaning, callers that send results off-process should
/// first resolve identity with
/// [`canonical_form`](excess_core::canon::canonical_form), which rewrites
/// every `Ref` into a value tree and hands a `Ref`-free value back as it
/// came (the server does exactly this).
pub fn write_value_json(v: &excess_types::Value, out: &mut String) {
    use excess_types::{Null, Scalar, Value};
    use std::fmt::Write;
    match v {
        Value::Scalar(Scalar::Int4(i)) => {
            let _ = write!(out, "{i}");
        }
        Value::Scalar(Scalar::Float4(x)) => push_number(out, *x),
        Value::Scalar(Scalar::Char(s)) => push_quoted(out, s),
        Value::Scalar(Scalar::Bool(b)) => out.push_str(if *b { "true" } else { "false" }),
        // `YYYY-MM-DD` and `@type#serial` need no escaping.
        Value::Scalar(Scalar::Date(d)) => {
            let _ = write!(out, "\"{d}\"");
        }
        Value::Ref(oid) => {
            let _ = write!(out, "{{\"ref\":\"{oid}\"}}");
        }
        Value::Null(Null::Dne) => out.push_str("{\"null\":\"dne\"}"),
        Value::Null(Null::Unk) => out.push_str("{\"null\":\"unk\"}"),
        Value::Tuple(t) => {
            out.push('{');
            for (i, (n, fv)) in t.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_quoted(out, n);
                out.push(':');
                write_value_json(fv, out);
            }
            out.push('}');
        }
        Value::Set(s) => {
            out.push_str("{\"set\":");
            write_list(s.iter_occurrences(), out);
            out.push('}');
        }
        Value::Array(a) => write_list(a.iter(), out),
    }
}

/// `[v1,v2,…]`, each element through [`write_value_json`].
fn write_list<'a>(items: impl Iterator<Item = &'a excess_types::Value>, out: &mut String) {
    out.push('[');
    for (i, e) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_value_json(e, out);
    }
    out.push(']');
}

/// `{"occurrences_scanned":…,…}` — every counter field by name, driven by
/// [`Counters::named_fields`] so the serializer cannot drift from the
/// struct.
pub fn counters_json(c: &Counters) -> String {
    let fields: Vec<String> = c
        .named_fields()
        .iter()
        .map(|(name, v)| format!("\"{name}\":{v}"))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Serialize an execution [`Profile`]: per-node statistics in preorder
/// plus the global totals they sum to.
pub fn profile_json(p: &Profile) -> String {
    let mut nodes = Vec::with_capacity(p.nodes.len());
    for n in &p.nodes {
        nodes.push(format!(
            "{{\"path\":{},\"op\":{},\"calls\":{},\"rows_in\":{},\"rows_out\":{},\
             \"self_ms\":{},\"total_ms\":{},\"self\":{},\"total\":{}}}",
            path_json(&n.path),
            quoted(&n.label),
            n.calls,
            n.rows_in,
            n.rows_out,
            millis(n.self_wall),
            millis(n.total_wall),
            counters_json(&n.self_counters),
            counters_json(&n.total_counters)
        ));
    }
    format!(
        "{{\"total_ms\":{},\"total\":{},\"nodes\":[{}]}}",
        millis(p.total_wall),
        counters_json(&p.total),
        nodes.join(",")
    )
}

/// Serialize a [`RewriteJournal`]: every accepted rule firing with its
/// position and cost delta, plus the search totals.
pub fn journal_json(j: &RewriteJournal) -> String {
    let mut steps = Vec::with_capacity(j.steps.len());
    for s in &j.steps {
        steps.push(format!(
            "{{\"rule\":{},\"path\":{},\"cost_before\":{},\"cost_after\":{},\"plan\":{}}}",
            quoted(s.rule),
            path_json(&s.path),
            number(s.cost_before),
            number(s.cost_after),
            quoted(&s.plan.to_string())
        ));
    }
    let mut refused = Vec::with_capacity(j.refused.len());
    for r in &j.refused {
        refused.push(format!(
            "{{\"rule\":{},\"path\":{},\"reason\":{}}}",
            quoted(r.rule),
            path_json(&r.path),
            quoted(&r.reason)
        ));
    }
    format!(
        "{{\"initial_cost\":{},\"final_cost\":{},\"plans_enumerated\":{},\
         \"max_plans\":{},\"rule_sequence\":[{}],\"steps\":[{}],\"refused\":[{}]}}",
        number(j.initial_cost),
        number(j.final_cost),
        j.plans_enumerated,
        j.max_plans,
        j.rule_sequence()
            .iter()
            .map(|r| quoted(r))
            .collect::<Vec<_>>()
            .join(","),
        steps.join(","),
        refused.join(",")
    )
}

/// Serialize a verifier [`Report`]: totals plus every diagnostic with its
/// severity, class, node path, and message.
pub fn verify_json(r: &Report) -> String {
    let mut diags = Vec::with_capacity(r.diagnostics.len());
    for d in &r.diagnostics {
        diags.push(format!(
            "{{\"severity\":{},\"code\":{},\"path\":{},\"message\":{}}}",
            quoted(&d.severity.to_string()),
            quoted(d.code),
            path_json(&d.path),
            quoted(&d.message)
        ));
    }
    format!(
        "{{\"clean\":{},\"errors\":{},\"lints\":{},\"diagnostics\":[{}]}}",
        r.is_clean(),
        r.error_count(),
        r.lint_count(),
        diags.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("x\ny\t"), "x\\ny\\t");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn counters_json_names_every_field() {
        let c = Counters {
            derefs: 7,
            ..Counters::new()
        };
        let j = counters_json(&c);
        assert!(j.contains("\"derefs\":7"), "{j}");
        assert!(j.contains("\"pairs_formed\":0"), "{j}");
        assert!(j.starts_with('{') && j.ends_with('}'));
    }

    #[test]
    fn non_finite_costs_become_null() {
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number(2.5), "2.5");
    }
}
