//! EXPLAIN ANALYZE acceptance tests: the Figure 8 pair's per-node
//! attribution, the optimizer's rewrite journal, and the machine-readable
//! serializers, end to end through `Database`.

use std::collections::BTreeMap;

use excess::algebra::expr::Expr;
use excess::algebra::physical::{PhysOp, PhysicalPlan};
use excess::algebra::profile::{path_string, NodePath, Profile};
use excess::db::{journal_json, profile_json, Database, Tracing};
use excess::optimizer::{estimate_nodes, lower};
use excess::types::Value;
use excess_bench::example1::{example1_db, figure6, figure7, figure8};

/// |S| and |E| for the Figure 8 pair; the duplication factor is set to
/// max(|S|,|E|) so every employee shares one name and the Figure 7 join
/// output is exactly |S|·|E|.
const S: usize = 40;
const E: usize = 24;

fn fixture() -> Database {
    example1_db(S, E, S.max(E))
}

/// Profile `plan` as written.
fn profile_of(db: &mut Database, plan: &Expr) -> Profile {
    db.run_lowered(&PhysicalPlan::passthrough(plan.clone()), Tracing::Precise)
        .unwrap()
        .profile
        .expect("tracing was enabled")
}

#[test]
fn figure7_de_node_sees_s_times_e_occurrences() {
    let mut db = fixture();
    let profile = profile_of(&mut db, &figure7());
    let de: Vec<_> = profile.nodes.iter().filter(|n| n.label == "DE").collect();
    assert_eq!(de.len(), 1, "figure 7 has a single DE node");
    assert_eq!(
        de[0].self_counters.de_input_occurrences,
        (S * E) as u64,
        "the DE node itself is charged |S|·|E| input occurrences"
    );
    // The attribution is local: no other node is charged DE input.
    assert_eq!(profile.total.de_input_occurrences, (S * E) as u64);
}

#[test]
fn figure8_side_de_nodes_see_s_plus_e_occurrences() {
    let mut db = fixture();
    let profile = profile_of(&mut db, &figure8());
    // The input-side DEs sit below the join (path length > 2); the
    // post-join DE at [0,0] sees only already-deduplicated occurrences.
    let side: Vec<_> = profile
        .nodes
        .iter()
        .filter(|n| n.label == "DE" && n.path.len() > 2)
        .collect();
    assert_eq!(side.len(), 2, "figure 8 pushes a DE into each join input");
    let total: u64 = side
        .iter()
        .map(|n| n.self_counters.de_input_occurrences)
        .sum();
    assert_eq!(total, (S + E) as u64, "side DEs see |S|+|E| between them");
    assert!(
        profile.total.de_input_occurrences < ((S * E) / 2) as u64,
        "nowhere near the |S|·|E| of figure 7"
    );
}

#[test]
fn explain_analyze_renders_the_attribution() {
    let mut db = fixture();
    let text = db.explain_analyze(&figure7()).unwrap();
    // The DE line carries its own de_in attribution and an estimate.
    let de_line = text
        .lines()
        .find(|l| l.contains("DE ") || l.trim_start().starts_with("DE"))
        .unwrap_or_else(|| panic!("no DE line in:\n{text}"));
    assert!(de_line.contains(&format!("de_in={}", S * E)), "{text}");
    assert!(de_line.contains("est rows="), "{text}");
    assert!(
        text.contains("%)"),
        "every node line shows its share:\n{text}"
    );
    assert!(text.lines().last().unwrap().starts_with("total:"), "{text}");
}

#[test]
fn journal_names_the_de_early_rule_sequence() {
    let mut db = fixture();
    // The sugared Figure 6 tree as the parser would emit it — no
    // desugaring hint; the statistics collected from the store are what
    // let the cost model credit the DE pushes.
    let (best, journal) = db.optimize_plan_journaled(&figure6());
    assert!(
        journal.rule_sequence().contains(&"rel5-de-early"),
        "journal should name the DE-pushing rule, got {:?}",
        journal.rule_sequence()
    );
    assert!(journal.final_cost < journal.initial_cost);
    assert_eq!(
        journal.final_cost,
        excess::optimizer::cost_of(&best, db.statistics())
    );
    // The journal serializes with the rule names intact.
    let json = journal_json(&journal);
    assert!(json.contains("\"rel5-de-early\""), "{json}");
    assert!(json.contains("\"cost_before\""), "{json}");
}

#[test]
fn profile_serializes_to_json() {
    let mut db = fixture();
    let profile = profile_of(&mut db, &figure7());
    let json = profile_json(&profile);
    assert!(json.contains("\"op\":\"DE\""), "{json}");
    assert!(
        json.contains(&format!("\"de_input_occurrences\":{}", S * E)),
        "{json}"
    );
}

/// Every node path of `e` in preorder — the order EXPLAIN ANALYZE prints
/// its tree lines in.
fn preorder(e: &Expr, path: &mut NodePath, out: &mut Vec<NodePath>) {
    out.push(path.clone());
    for (i, c) in e.children().into_iter().enumerate() {
        path.push(i);
        preorder(c, path, out);
        path.pop();
    }
}

/// The estimates EXPLAIN ANALYZE shows are the optimizer's own, set
/// against the profile's actuals — on every tree line and in the kernel
/// block — and the flight recorder keeps the root's pair for every run.
#[test]
fn est_vs_actual_are_the_optimizers_estimates_and_the_profiles_rows() {
    let mut db = example1_db(64, 48, 8);
    let stats = db.analyze().clone();
    let plan = figure6();
    let ests: BTreeMap<NodePath, f64> = estimate_nodes(&plan, &stats)
        .into_iter()
        .map(|(p, e)| (p, e.rows))
        .collect();
    let text = db.explain_analyze(&plan).unwrap();
    // The lowered plan explain_analyze runs, profiled again: the counts
    // are deterministic.
    let physical = lower(&plan, &stats);
    let profile = db
        .run_lowered(&physical, Tracing::Precise)
        .unwrap()
        .profile
        .expect("tracing was enabled");

    let mut paths = Vec::new();
    preorder(&plan, &mut Vec::new(), &mut paths);
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > paths.len(), "{text}");
    let mut estimated = 0;
    for (path, line) in paths.iter().zip(&lines) {
        let at = path_string(path);
        match ests.get(path) {
            Some(rows) => {
                assert!(
                    line.contains(&format!("| est rows={rows:.0} ")),
                    "{at}: {line}"
                );
                estimated += 1;
            }
            None => assert!(line.ends_with("| est —"), "{at}: {line}"),
        }
        match profile.node(path) {
            Some(n) => assert!(
                line.contains(&format!("rows={}→{} ", n.rows_in, n.rows_out)),
                "{at}: {line}"
            ),
            // Figure 6 runs every node: one without a frame is a path its
            // reader read in place.
            None => assert!(line.contains("(read in place)"), "{at}: {line}"),
        }
    }
    assert!(estimated > 1, "{text}");
    assert!(text.contains("(read in place)"), "{text}");

    // The kernel block: one line per choice that is more than a
    // pass-through, its estimate the lowering's stamp of the same number.
    let block = text
        .split("physical plan:\n")
        .nth(1)
        .unwrap_or_else(|| panic!("no kernel block in:\n{text}"));
    let mut kernels = 0;
    for (path, choice) in &physical.choices {
        if matches!(choice.op, PhysOp::PassThrough) {
            continue;
        }
        let at = path_string(path);
        let line = block
            .lines()
            .find(|l| l.starts_with(&format!("  {at} ")))
            .unwrap_or_else(|| panic!("no kernel line for {at} in:\n{text}"));
        let est = choice.est_rows.expect("every kernel choice is estimated");
        assert!(
            (est - ests[path]).abs() < 1e-9,
            "{at}: {est} vs {}",
            ests[path]
        );
        let actual = profile.node(path).map(|n| n.rows_out.to_string());
        assert!(
            line.contains(&format!(
                "est rows={est:.0} actual rows={}",
                actual.as_deref().unwrap_or("—")
            )),
            "{line}"
        );
        kernels += 1;
    }
    assert!(kernels > 0, "{text}");

    let value = db.run_query_plan("F6", &plan).unwrap();
    let rows = match &value {
        Value::Set(s) => s.len(),
        other => panic!("Figure 6 answers a set, got {other}"),
    };
    let record = db.telemetry().recorder.records().last().unwrap();
    let root = ests[&Vec::new()];
    let est = record
        .est_rows
        .expect("the root of a lowered plan is estimated");
    assert!(
        (est - root).abs() < 1e-9,
        "recorded {est}, optimizer {root}"
    );
    assert_eq!(record.actual_rows, Some(rows));
}
