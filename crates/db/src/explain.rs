//! EXPLAIN ANALYZE: render an executed plan as an operator tree where each
//! node carries what it *actually did* — invocations, input/output
//! cardinality, the counter deltas attributable to the node alone, wall
//! time and its share of the whole query — side by side with what the
//! cost model *predicted* for that node.
//!
//! Profile entries and static estimates are joined by node path (child
//! indices from the root), the shared key of
//! [`excess_core::profile`] and [`excess_optimizer::estimate_nodes`].
//! A node the evaluator reads in place under an executed one
//! ([`reads_in_place`]) has no profile entry: its work is its reader's,
//! and it renders as `(read in place)`.

use excess_core::eval::reads_in_place;
use excess_core::expr::Expr;
use excess_core::profile::{NodePath, Profile};
use excess_core::render::op_label;
use excess_optimizer::Estimate;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Render the annotated operator tree for one profiled execution.
pub(crate) fn render_explain_analyze(
    plan: &Expr,
    profile: &Profile,
    estimates: &[(NodePath, Estimate)],
) -> String {
    let est: BTreeMap<&[usize], &Estimate> =
        estimates.iter().map(|(p, e)| (p.as_slice(), e)).collect();
    let mut out = String::new();
    let mut path: NodePath = Vec::new();
    walk(plan, &mut path, "", true, 0, false, profile, &est, &mut out);
    let _ = writeln!(
        out,
        "total: {:.3} ms  {}",
        profile.total_wall.as_secs_f64() * 1e3,
        profile.total
    );
    out
}

/// One tree line for `e`, then its children's.  `in_place`: the nearest
/// ancestor with a profile entry read `e` in place.
#[allow(clippy::too_many_arguments)]
fn walk(
    e: &Expr,
    path: &mut NodePath,
    prefix: &str,
    last: bool,
    depth: usize,
    in_place: bool,
    profile: &Profile,
    est: &BTreeMap<&[usize], &Estimate>,
    out: &mut String,
) {
    let connector = if depth == 0 {
        ""
    } else if last {
        "└─ "
    } else {
        "├─ "
    };
    let node = profile.node(path);
    let actual = match node {
        Some(n) => {
            let c = &n.self_counters;
            let ms = n.self_wall.as_secs_f64() * 1e3;
            let total_ms = profile.total_wall.as_secs_f64() * 1e3;
            let pct = if total_ms > 0.0 {
                ms / total_ms * 100.0
            } else {
                0.0
            };
            format!(
                "calls={} rows={}→{} self[occ={} de_in={} deref={} cmp={}] \
                 {ms:.3} ms ({pct:.1}%)",
                n.calls,
                n.rows_in,
                n.rows_out,
                c.occurrences_scanned,
                c.de_input_occurrences,
                c.derefs,
                c.comparisons
            )
        }
        None if in_place => "(read in place)".to_string(),
        None => "(never executed)".to_string(),
    };
    let predicted = match est.get(path.as_slice()) {
        Some(s) => format!("est rows={:.0} cost={:.0}", s.rows, s.cost),
        None => "est —".to_string(),
    };
    let _ = writeln!(
        out,
        "{prefix}{connector}{}  {actual}  | {predicted}",
        op_label(e)
    );
    let kids = e.children();
    let child_prefix = if depth == 0 {
        String::new()
    } else {
        format!("{prefix}{}", if last { "   " } else { "│  " })
    };
    let read = node.is_some() || in_place;
    for (i, c) in kids.iter().enumerate() {
        path.push(i);
        walk(
            c,
            path,
            &child_prefix,
            i == kids.len() - 1,
            depth + 1,
            read && reads_in_place(e, i),
            profile,
            est,
            out,
        );
        path.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use excess_core::eval::{evaluate, EvalCtx};
    use excess_optimizer::{estimate_nodes, Statistics};
    use excess_types::{ObjectStore, TypeRegistry, Value};
    use std::collections::HashMap;

    #[test]
    fn annotates_every_node_with_actuals_and_estimates() {
        let reg = TypeRegistry::new();
        let mut store = ObjectStore::new();
        let cat: HashMap<String, Value> = HashMap::new();
        let mut ctx = EvalCtx::new(&reg, &mut store, &cat);
        ctx.enable_tracing();

        let plan = Expr::lit(Value::set((0..5).map(Value::int)))
            .set_apply(Expr::input())
            .dup_elim();
        evaluate(&plan, &mut ctx).unwrap();
        let profile = ctx.take_profile().unwrap();
        let stats = Statistics::new();
        let ests = estimate_nodes(&plan, &stats);

        let text = render_explain_analyze(&plan, &profile, &ests);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("DE"), "{text}");
        assert!(lines[0].contains("de_in=5"), "{text}");
        assert!(lines[0].contains("est rows="), "{text}");
        assert!(lines[1].contains("SET_APPLY"), "{text}");
        // rows_in counts both children: 5 from the input set and 1 per
        // body invocation (×5).
        assert!(lines[1].contains("rows=10→5"), "{text}");
        assert!(
            text.trim_end().ends_with(&format!("{}", profile.total)),
            "{text}"
        );
        // Connectors match the plain renderer's style.
        assert!(text.contains("└─"), "{text}");
    }

    #[test]
    fn unexecuted_branches_say_so() {
        // Profile an entirely different plan so no node joins.
        let reg = TypeRegistry::new();
        let mut store = ObjectStore::new();
        let cat: HashMap<String, Value> = HashMap::new();
        let mut ctx = EvalCtx::new(&reg, &mut store, &cat);
        ctx.enable_tracing();
        evaluate(&Expr::lit(Value::int(1)), &mut ctx).unwrap();
        let profile = ctx.take_profile().unwrap();

        let other = Expr::lit(Value::set([Value::int(1)])).dup_elim();
        let text = render_explain_analyze(&other, &profile, &[]);
        // The root joins (path [] exists in any profile); the child cannot.
        assert!(
            text.lines().nth(1).unwrap().contains("(never executed)"),
            "{text}"
        );
        assert!(text.contains("est —"), "{text}");
    }
}
