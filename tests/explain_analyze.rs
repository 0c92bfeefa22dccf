//! EXPLAIN ANALYZE acceptance tests: the Figure 8 pair's per-node
//! attribution, the optimizer's rewrite journal, and the machine-readable
//! serializers, end to end through `Database`.

use excess::algebra::expr::Expr;
use excess::algebra::physical::PhysicalPlan;
use excess::algebra::profile::Profile;
use excess::db::{journal_json, metrics_json, profile_json, Database, Tracing};
use excess_bench::example1::{example1_db, figure6, figure7, figure8};

/// |S| and |E| for the Figure 8 pair; the duplication factor is set to
/// max(|S|,|E|) so every employee shares one name and the Figure 7 join
/// output is exactly |S|·|E|.
const S: usize = 40;
const E: usize = 24;

fn fixture() -> Database {
    example1_db(S, E, S.max(E))
}

/// Profile `plan` as written on the serial engine.
fn profile_of(db: &mut Database, plan: &Expr) -> Profile {
    db.set_threads(1);
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
    // Per-node attribution is a property of the serial profiler: under a
    // parallel config the engine profiles partition-local fragments whose
    // paths only approximately align with the plan tree (the parallel
    // rendering has its own tests in tests/parallel_equivalence.rs).
    db.set_threads(1);
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
fn profile_and_metrics_serialize_to_json() {
    let mut db = fixture();
    let profile = profile_of(&mut db, &figure7());
    let json = profile_json(&profile);
    assert!(json.contains("\"op\":\"DE\""), "{json}");
    assert!(
        json.contains(&format!("\"de_input_occurrences\":{}", S * E)),
        "{json}"
    );

    let mjson = metrics_json(db.metrics());
    assert!(mjson.contains("\"queries\":1"), "{mjson}");
    // Metrics accumulated the profiled run's counters.
    assert_eq!(db.metrics().counters, db.last_counters());
}

#[test]
fn session_metrics_accumulate_across_queries_and_optimizations() {
    let mut db = fixture();
    db.run_plan(&figure7()).unwrap();
    let after_one = db.metrics().counters;
    db.run_plan(&figure8()).unwrap();
    assert_eq!(db.metrics().queries, 2);
    assert!(db.metrics().counters.total() > after_one.total());

    let plan = figure6();
    let (_, journal) = db.optimize_plan_journaled(&plan);
    assert_eq!(db.metrics().optimizations, 1);
    assert_eq!(db.metrics().rewrites_applied, journal.steps.len() as u64);
    for rule in journal.rule_sequence() {
        assert!(db.metrics().rules_fired.contains_key(rule));
    }

    db.reset_metrics();
    assert_eq!(db.metrics().queries, 0);
    assert!(db.metrics().rules_fired.is_empty());
}
