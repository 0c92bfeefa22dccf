//! Lowering: pick a physical operator for every spine node of a logical
//! plan, using the duplication-aware statistics the cost model already
//! threads.
//!
//! The output [`PhysicalPlan`] keeps the logical tree verbatim (see
//! `excess_core::physical`); lowering only *annotates*.  That makes the
//! soundness story short: the one invariant the gate checks is that the
//! lowered plan's logical tree is structurally identical to the input —
//! any deviation refuses the whole lowering and falls back to a
//! pass-through plan.  Everything beyond structure (the hash kernel's
//! occurrence-exactness) is enforced at run time by the kernel's own
//! guard, which re-verifies the key side conditions on the materialised
//! inputs and falls back to the nested loop; statistics can therefore
//! only make a plan slower, never wrong.
//!
//! # Kernel selection policy
//!
//! * `rel_join` → [`PhysOp::HashEquiJoin`] when the predicate has a
//!   hashable equi conjunct (`INPUT.f = INPUT.g`), the estimated pair
//!   count clears `HASH_JOIN_MIN_PAIRS` (a hash build is not free), and
//!   the key's NDV — when known — exceeds 1 (a single bucket hashes to
//!   the nested loop plus overhead).  Otherwise
//!   [`PhysOp::NestedLoopJoin`], with the reason recorded both in the
//!   choice and as a refused journal step.
//! * `DE` → [`PhysOp::HashDistinct`], `GRP` → [`PhysOp::HashGroup`]:
//!   honest names for what the count-map evaluator already does.
//! * `Named` → [`PhysOp::IndexScan`] for extent-index objects
//!   (`…::exact::T`, the optimizer's own materialisation naming),
//!   [`PhysOp::Scan`] otherwise.
//! * every other spine node → [`PhysOp::PassThrough`].
//!
//! A join the translator keeps in correlated form (nested `SET_APPLY`s
//! around a `COMP`: clashing attribute names, ref extents, a variable
//! used whole) has no `rel_join` node and runs as the nested loop it is
//! written as; a product-typed equi-join is a `rel_join` and takes
//! [`PhysOp::HashEquiJoin`], with the apply above it fused at run time.
//!
//! Binder bodies and predicates are never annotated: kernels apply to
//! closed spine positions only, where inputs are whole materialised
//! multisets.

use std::collections::BTreeMap;

use crate::cost::{cost_of, estimate_nodes, estimate_physical, estimate_under, Estimate};
use crate::engine::{JournalStep, RefusedStep, RewriteJournal};
use crate::stats::Statistics;
use excess_core::expr::{Expr, Pred};
use excess_core::physical::{
    equi_key_candidates, spine_children, PhysChoice, PhysOp, PhysicalPlan,
};
use excess_core::profile::NodePath;

/// Journal rule name for the lowering step (and its refusals).
pub const LOWERING_RULE: &str = "physical-lowering";

/// Minimum estimated pair count before a hash join is worth its build
/// side: below this the nested loop's simplicity wins.
pub(crate) const HASH_JOIN_MIN_PAIRS: f64 = 64.0;

/// Lower a logical plan to a physical plan under `stats`.
pub fn lower(plan: &Expr, stats: &Statistics) -> PhysicalPlan {
    lower_with(plan, stats).0
}

/// [`lower`], journaled like a rewrite: one accepted step (rule
/// [`LOWERING_RULE`], root path) recording the logical cost before and
/// the physical cost after, plus one refused step per join that fell
/// back to the nested loop and why.  The soundness gate for lowering is
/// the structural invariant — the lowered plan must carry the logical
/// tree unchanged; if it ever did not, the lowering would be refused
/// wholesale and a pass-through plan returned.
pub fn lower_journaled(
    plan: &Expr,
    stats: &Statistics,
    journal: &mut RewriteJournal,
) -> PhysicalPlan {
    let (pp, refused) = lower_with(plan, stats);
    if pp.logical != *plan {
        // Unreachable by construction (lowering clones the input), but
        // this is the invariant the whole layer rests on, so gate it
        // like any other rewrite rather than trusting the construction.
        journal.refused.push(RefusedStep {
            rule: LOWERING_RULE,
            path: Vec::new(),
            reason: "lowered plan altered the logical tree".to_string(),
        });
        return PhysicalPlan::passthrough(plan.clone());
    }
    let cost_before = cost_of(plan, stats);
    let cost_after = estimate_physical(&pp, stats).cost;
    journal.steps.push(JournalStep {
        rule: LOWERING_RULE,
        path: Vec::new(),
        cost_before,
        cost_after,
        plan: plan.clone(),
    });
    journal.final_cost = cost_after;
    journal.plans_enumerated += 1;
    journal.refused.extend(refused);
    pp
}

fn lower_with(plan: &Expr, stats: &Statistics) -> (PhysicalPlan, Vec<RefusedStep>) {
    let nodes: BTreeMap<NodePath, Estimate> = estimate_nodes(plan, stats).into_iter().collect();
    let mut choices = BTreeMap::new();
    let mut refused = Vec::new();
    let mut path = Vec::new();
    assign(plan, &mut path, &nodes, &mut choices, &mut refused);
    (
        PhysicalPlan {
            logical: plan.clone(),
            choices,
        },
        refused,
    )
}

fn assign(
    e: &Expr,
    path: &mut NodePath,
    nodes: &BTreeMap<NodePath, Estimate>,
    choices: &mut BTreeMap<NodePath, PhysChoice>,
    refused: &mut Vec<RefusedStep>,
) {
    let est_rows = nodes.get(path).map(|est| est.rows);
    let choice = match e {
        Expr::Named(n) if n.contains("::exact::") => PhysChoice {
            op: PhysOp::IndexScan,
            why: "extent-index object".to_string(),
            est_rows,
        },
        Expr::Named(_) => PhysChoice {
            op: PhysOp::Scan,
            why: "named top-level object".to_string(),
            est_rows,
        },
        Expr::DupElim(_) => PhysChoice {
            op: PhysOp::HashDistinct,
            why: "count-map bucketing".to_string(),
            est_rows,
        },
        Expr::Group { .. } => PhysChoice {
            op: PhysOp::HashGroup,
            why: "hash grouping by key".to_string(),
            est_rows,
        },
        Expr::RelJoin { pred, .. } => join_choice(pred, path, nodes, refused),
        _ => PhysChoice {
            op: PhysOp::PassThrough,
            why: String::new(),
            est_rows,
        },
    };
    choices.insert(path.clone(), choice);
    let spine = spine_children(e);
    for (i, child) in e.children().into_iter().enumerate() {
        if !spine.contains(&i) {
            continue;
        }
        path.push(i);
        assign(child, path, nodes, choices, refused);
        path.pop();
    }
}

/// NDV of `field` in either side's attribute statistics, if known.
fn known_ndv(est: Option<&Estimate>, field: &str) -> Option<f64> {
    est?.attr_ndv.as_ref()?.get(field).copied()
}

/// The hash join's selection policy: a hash build is not free, so the
/// estimated pair count must clear `HASH_JOIN_MIN_PAIRS`, and a key
/// known to take one value hashes to the nested loop plus overhead.  `Ok`
/// is the estimate clause of the choice's reasoning, `Err` the refusal.
fn hash_pays(pairs: Option<f64>, key_ndv: Option<f64>) -> Result<String, String> {
    match (pairs, key_ndv) {
        (Some(p), _) if p < HASH_JOIN_MIN_PAIRS => Err(format!(
            "estimated {p:.0} pairs below the hash threshold ({HASH_JOIN_MIN_PAIRS:.0})"
        )),
        (_, Some(n)) if n <= 1.0 => Err(format!(
            "join key NDV ≈ {n:.0}: a single bucket degenerates to the nested loop"
        )),
        (Some(p), Some(n)) => Ok(format!("; est {p:.0} pairs, key NDV {n:.0}")),
        (Some(p), None) => Ok(format!("; est {p:.0} pairs")),
        (None, _) => Ok(String::new()),
    }
}

fn join_choice(
    pred: &Pred,
    path: &NodePath,
    nodes: &BTreeMap<NodePath, Estimate>,
    refused: &mut Vec<RefusedStep>,
) -> PhysChoice {
    let est_rows = nodes.get(path).map(|est| est.rows);
    let (l, r) = (
        estimate_under(nodes, path, &[0]),
        estimate_under(nodes, path, &[1]),
    );
    let pairs = match (l, r) {
        (Some(l), Some(r)) => Some(l.rows * r.rows),
        _ => None,
    };
    let mut nested = |reason: String| {
        refused.push(RefusedStep {
            rule: LOWERING_RULE,
            path: path.clone(),
            reason: format!("HashEquiJoin refused: {reason}"),
        });
        PhysChoice {
            op: PhysOp::NestedLoopJoin,
            why: reason,
            est_rows,
        }
    };
    let candidates = equi_key_candidates(pred);
    let Some((f, g)) = candidates.first().cloned() else {
        return nested("no hashable equi conjunct in the COMP predicate".to_string());
    };
    // Orient the pair by attribute provenance when the statistics know the
    // fields; the kernel's runtime guard re-checks (and can flip) anyway.
    let (left_key, right_key) = if known_ndv(l, &f).is_some() || known_ndv(r, &g).is_some() {
        (f.clone(), g.clone())
    } else if known_ndv(l, &g).is_some() || known_ndv(r, &f).is_some() {
        (g.clone(), f.clone())
    } else {
        (f.clone(), g.clone())
    };
    let key_ndv = known_ndv(l, &left_key)
        .into_iter()
        .chain(known_ndv(r, &right_key))
        .reduce(f64::max);
    match hash_pays(pairs, key_ndv) {
        Err(reason) => nested(reason),
        Ok(estimate) => PhysChoice {
            why: format!("equi conjunct {left_key} = {right_key}{estimate}"),
            op: PhysOp::HashEquiJoin {
                left_key,
                right_key,
            },
            est_rows,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use excess_core::expr::CmpOp;

    fn stats() -> Statistics {
        let mut s = Statistics::new();
        s.set_object("S", 1000.0, 100.0, 8.0);
        s.set_object("E", 2000.0, 2000.0, 8.0);
        s.set_attr_ndv("S", "adv", 50.0);
        s.set_attr_ndv("E", "name", 2000.0);
        s
    }

    fn equi_join() -> Expr {
        Expr::named("S").rel_join(
            Expr::named("E"),
            Pred::cmp(
                Expr::input().extract("adv"),
                CmpOp::Eq,
                Expr::input().extract("name"),
            ),
        )
    }

    #[test]
    fn equi_join_lowers_to_hash_kernel() {
        let pp = lower(&equi_join(), &stats());
        let root = pp
            .choices
            .get(&Vec::new() as &NodePath)
            .expect("root choice");
        assert!(
            matches!(
                &root.op,
                PhysOp::HashEquiJoin { left_key, right_key }
                    if left_key == "adv" && right_key == "name"
            ),
            "{root:?}"
        );
        assert!(root.why.contains("est"), "{}", root.why);
        // Scans annotated below.
        assert_eq!(pp.choices.get(&vec![0]).map(|c| &c.op), Some(&PhysOp::Scan));
    }

    #[test]
    fn non_equi_predicate_refuses_hash_join() {
        let plan = Expr::named("S").rel_join(
            Expr::named("E"),
            Pred::cmp(
                Expr::input().extract("adv"),
                CmpOp::Lt,
                Expr::input().extract("name"),
            ),
        );
        let mut journal = RewriteJournal::for_plan(0.0);
        let pp = lower_journaled(&plan, &stats(), &mut journal);
        let root = pp
            .choices
            .get(&Vec::new() as &NodePath)
            .expect("root choice");
        assert_eq!(root.op, PhysOp::NestedLoopJoin);
        assert!(
            root.why.contains("no hashable equi conjunct"),
            "{}",
            root.why
        );
        assert_eq!(journal.steps.len(), 1);
        assert_eq!(journal.steps[0].rule, LOWERING_RULE);
        assert_eq!(journal.refused.len(), 1);
        assert!(journal.refused[0].reason.contains("HashEquiJoin refused"));
    }

    #[test]
    fn tiny_inputs_stay_nested_loop() {
        let mut s = Statistics::new();
        s.set_object("S", 4.0, 4.0, 8.0);
        s.set_object("E", 4.0, 4.0, 8.0);
        let pp = lower(&equi_join(), &s);
        let root = pp
            .choices
            .get(&Vec::new() as &NodePath)
            .expect("root choice");
        assert_eq!(root.op, PhysOp::NestedLoopJoin);
        assert!(
            root.why.contains("below the hash threshold"),
            "{}",
            root.why
        );
    }

    #[test]
    fn single_bucket_key_stays_nested_loop() {
        let mut s = stats();
        s.set_attr_ndv("S", "adv", 1.0);
        s.set_attr_ndv("E", "name", 1.0);
        let pp = lower(&equi_join(), &s);
        let root = pp
            .choices
            .get(&Vec::new() as &NodePath)
            .expect("root choice");
        assert_eq!(root.op, PhysOp::NestedLoopJoin);
        assert!(root.why.contains("NDV"), "{}", root.why);
    }

    #[test]
    fn a_nested_apply_passes_through_and_journals_nothing() {
        // SECTION2_KIDS's shape: the inner input hangs off the outer
        // element and the predicate compares it with a literal.
        let floor = Pred::cmp(Expr::input_at(2).extract("floor"), CmpOp::Eq, Expr::int(2));
        let kids = Expr::named("S").set_apply(
            Expr::input()
                .extract("kids")
                .set_apply(Expr::input().extract("name").comp(floor)),
        );
        // The translator's correlated form of `equi_join`: an equi conjunct
        // between the binders, but no `rel_join` to hash.
        let adv = Pred::cmp(
            Expr::input_at(2).extract("adv"),
            CmpOp::Eq,
            Expr::input_at(1).extract("name"),
        );
        let correlated = Expr::named("S")
            .set_apply(Expr::named("E").set_apply(Expr::input().extract("name").comp(adv)));
        for plan in [kids, correlated] {
            let mut journal = RewriteJournal::for_plan(0.0);
            let pp = lower_journaled(&plan, &stats(), &mut journal);
            let root = &pp.choices[&Vec::new() as &NodePath];
            assert_eq!((&root.op, root.why.as_str()), (&PhysOp::PassThrough, ""));
            assert_eq!(journal.refused, Vec::new());
        }
    }

    #[test]
    fn lowering_never_alters_the_logical_tree() {
        let plan = equi_join().group_by(Expr::input().extract("sdept"));
        let pp = lower(&plan, &stats());
        assert_eq!(pp.logical, plan);
        // GRP annotated HashGroup; binder bodies not annotated.
        assert_eq!(
            pp.choices.get(&Vec::new() as &NodePath).map(|c| &c.op),
            Some(&PhysOp::HashGroup)
        );
        assert!(!pp.choices.contains_key(&vec![1]), "binder body annotated");
    }

    #[test]
    fn extent_index_objects_get_index_scans() {
        let plan = Expr::named("Emps::exact::Prof").dup_elim();
        let pp = lower(&plan, &Statistics::new());
        assert_eq!(
            pp.choices.get(&vec![0]).map(|c| &c.op),
            Some(&PhysOp::IndexScan)
        );
        assert_eq!(
            pp.choices.get(&Vec::new() as &NodePath).map(|c| &c.op),
            Some(&PhysOp::HashDistinct)
        );
    }

    #[test]
    fn physical_estimate_is_cheaper_for_hash_joins() {
        let plan = equi_join();
        let s = stats();
        let pp = lower(&plan, &s);
        let logical = cost_of(&plan, &s);
        let physical = estimate_physical(&pp, &s).cost;
        assert!(
            physical < logical,
            "hash join should be cheaper: {physical} vs {logical}"
        );
        // A pass-through plan costs exactly the logical estimate.
        let pt = PhysicalPlan::passthrough(plan.clone());
        assert_eq!(estimate_physical(&pt, &s).cost, logical);
    }
}
