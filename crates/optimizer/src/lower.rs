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
//!   count clears [`HASH_JOIN_MIN_PAIRS`] (a hash build is not free), and
//!   the key's NDV — when known — exceeds 1 (a single bucket hashes to
//!   the nested loop plus overhead).  Otherwise
//!   [`PhysOp::NestedLoopJoin`], with the reason recorded both in the
//!   choice and as a refused journal step.
//! * `SET_APPLY[SET_APPLY[COMP[l = r ∧ …](f)](B)](A)` with `l` reading
//!   only `A`'s element and `r` only `B`'s ([`correlated_join`]) →
//!   [`PhysOp::HashProbeApply`] under the same pair-count and NDV policy,
//!   provided `B` does not read `A`'s element and nothing under the outer
//!   body mints OIDs; a candidate that fails any of these stays
//!   [`PhysOp::PassThrough`] with the reason journaled, and a nested apply
//!   that is not a candidate journals nothing.  This is the shape every
//!   served join has: the translator binds each range variable with its
//!   own `SET_APPLY` and never emits a `rel_join`, whose `TUP_CAT` would
//!   need the two sides' attribute names disjoint.
//! * `DE` → [`PhysOp::HashDistinct`], `GRP` → [`PhysOp::HashGroup`]:
//!   honest names for what the count-map evaluator and the parallel
//!   repartition exchange already do.
//! * `Named` → [`PhysOp::IndexScan`] for extent-index objects
//!   (`…::exact::T`, the optimizer's own materialisation naming),
//!   [`PhysOp::Scan`] otherwise.
//! * every other spine node → [`PhysOp::PassThrough`].
//!
//! Binder bodies and predicates are never annotated: kernels apply to
//! closed spine positions only, where inputs are whole materialised
//! multisets.  The probe kernel keeps to that: it is a choice for the
//! *outer* apply, whose input is on the spine, and what it hoists out of
//! the body — `B` — is closed there by the side condition above.

use std::collections::{BTreeMap, BTreeSet};

use crate::cost::{cost_of, estimate_nodes, estimate_physical, estimate_under, Estimate};
use crate::engine::{JournalStep, RefusedStep, RewriteJournal};
use crate::stats::Statistics;
use excess_core::expr::{Expr, Pred};
use excess_core::physical::{
    correlated_join, equi_key_candidates, spine_children, PhysChoice, PhysOp, PhysicalPlan,
};
use excess_core::profile::NodePath;

/// Journal rule name for the lowering step (and its refusals).
pub const LOWERING_RULE: &str = "physical-lowering";

/// Minimum estimated pair count before a hash join is worth its build
/// side: below this the nested loop's simplicity wins.
pub const HASH_JOIN_MIN_PAIRS: f64 = 64.0;

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

/// Elide the runtime [`key_pair_usable`] guard on every `HashEquiJoin`
/// choice whose side conditions the property analysis proves against
/// `data`: both join inputs proven multisets of tuples with exhaustive
/// attribute maps, the chosen key fields present and `dne`/`unk`-free on
/// every row of their own side, provably *absent* from the other side
/// (so `TUP_CAT` renames nothing), and of one proven kind shared across
/// sides — exactly the conditions the guard re-checks per occurrence.
/// Returns the elided paths with the proof summary, for journaling and
/// telemetry.
///
/// [`key_pair_usable`]: excess_core::physical::key_pair_usable
pub fn elide_proven_guards(
    pp: &mut PhysicalPlan,
    data: &dyn excess_core::catalog::Catalog,
) -> Vec<(NodePath, String)> {
    use excess_core::analysis::{analyze, CollKind};
    let hash_joins: Vec<(NodePath, String, String)> = pp
        .choices
        .iter()
        .filter_map(|(path, c)| match &c.op {
            PhysOp::HashEquiJoin {
                left_key,
                right_key,
            } => Some((path.clone(), left_key.clone(), right_key.clone())),
            _ => None,
        })
        .collect();
    if hash_joins.is_empty() {
        return Vec::new();
    }
    let analysis = analyze(&pp.logical, data);
    let mut elided = Vec::new();
    for (path, lf, rf) in hash_joins {
        let side = |i: usize| {
            let mut p = path.clone();
            p.push(i);
            analysis.props_at(&p).cloned()
        };
        let (Some(left), Some(right)) = (side(0), side(1)) else {
            continue;
        };
        let sides_proven = |p: &excess_core::analysis::Props| {
            p.coll == Some(CollKind::Set) && p.tuple_only && p.attrs_exhaustive
        };
        if !(sides_proven(&left) && sides_proven(&right)) {
            continue;
        }
        // The kernel's orientation: `lf` keys the left side, `rf` the
        // right, and neither appears on the opposite side.
        let (la, ra) = (left.attr(&lf), right.attr(&rf));
        let disjoint = !left.attrs.contains_key(&rf) && !right.attrs.contains_key(&lf);
        let kinds_match = la.kind.is_some() && la.kind == ra.kind;
        if la.is_definite_key() && ra.is_definite_key() && disjoint && kinds_match {
            pp.elided_guards.insert(path.clone());
            elided.push((
                path,
                format!(
                    "keys {lf}/{rf} proven present and non-null on every row, absent \
                     opposite, kind {}",
                    la.kind.unwrap_or("?")
                ),
            ));
        }
    }
    elided
}

/// Journal rule name for the columnar annotation pass (and its refusals).
pub const COLUMNAR_RULE: &str = "columnar-lowering";

/// Upgrade a lowered plan's choices to batched chunk kernels wherever
/// the plan is provably **chunk-safe**, consulting the catalog's actual
/// chunks.  Returns the accepted upgrades (path + reason) and one
/// journaled refusal per candidate node that must stay on the row path.
///
/// The chunk-safety rule, applied per candidate:
///
/// * the whole plan must not mint OIDs (a chunk kernel never runs the
///   store-mutating row evaluator, so OID-minting plans are refused
///   wholesale — order of minting is observable through the store);
/// * the operator's input must be a bare `Named` extent with a column
///   chunk in the catalog;
/// * `σ` predicates must compile against the chunk's columns (atomic
///   conjuncts over `INPUT.f`/literals, no `in`, no `¬`);
/// * joins must be pure equi-joins (no residual) whose key columns pass
///   the typed null-free/disjointness guard;
/// * `GRP` keys must be bare attribute extracts backed by a column.
///
/// Array-order-sensitive operators never reach here: chunks encode
/// multisets only, and the candidates below are the multiset ops.  Like
/// the row-hash lowering, every acceptance is still re-verified by the
/// kernel at run time, so a stale annotation degrades to the row path
/// instead of miscomputing.
pub fn annotate_columnar(
    pp: &mut PhysicalPlan,
    data: &dyn excess_core::catalog::Catalog,
) -> (Vec<(NodePath, String)>, Vec<RefusedStep>) {
    use excess_core::columnar::{join_keys_usable, scan_pred_compiles};
    use excess_core::physical::split_residual;

    let mut accepted = Vec::new();
    let mut refused = Vec::new();
    if pp.logical.mints_oids() {
        refused.push(RefusedStep {
            rule: COLUMNAR_RULE,
            path: Vec::new(),
            reason: "columnar kernels refused wholesale: the plan mints OIDs".to_string(),
        });
        return (accepted, refused);
    }

    let candidates: Vec<NodePath> = pp.choices.keys().cloned().collect();
    for path in candidates {
        let Some(node) = pp.node_at(&path) else {
            continue;
        };
        let choice = pp.choices.get(&path).expect("iterating the key set");
        let refuse = |reason: String, refused: &mut Vec<RefusedStep>| {
            refused.push(RefusedStep {
                rule: COLUMNAR_RULE,
                path: path.clone(),
                reason,
            });
        };
        let upgrade: Option<(PhysOp, String)> = match (node, &choice.op) {
            (Expr::Select { input, pred }, _) => match &**input {
                Expr::Named(n) => match data.get_chunk(n) {
                    None => {
                        refuse(
                            format!("ColumnarScan refused: no column chunk for {n}"),
                            &mut refused,
                        );
                        None
                    }
                    Some(chunk) if !chunk.is_empty() && !scan_pred_compiles(pred, chunk) => {
                        refuse(
                            "ColumnarScan refused: predicate not chunk-compilable \
                             (non-atomic conjunct, `in`, or non-column operand)"
                                .to_string(),
                            &mut refused,
                        );
                        None
                    }
                    Some(chunk) => Some((
                        PhysOp::ColumnarScan { object: n.clone() },
                        format!(
                            "fused σ over {n}'s chunk ({} rows, {} columns)",
                            chunk.len(),
                            chunk.columns().len()
                        ),
                    )),
                },
                _ => {
                    refuse(
                        "ColumnarScan refused: input is not a base extent scan".to_string(),
                        &mut refused,
                    );
                    None
                }
            },
            (
                Expr::RelJoin { left, right, pred },
                PhysOp::HashEquiJoin {
                    left_key,
                    right_key,
                },
            ) => {
                let (Expr::Named(ln), Expr::Named(rn)) = (&**left, &**right) else {
                    refuse(
                        "ColumnarHashEquiJoin refused: join input is not a base extent scan"
                            .to_string(),
                        &mut refused,
                    );
                    continue;
                };
                let (Some(lc), Some(rc)) = (data.get_chunk(ln), data.get_chunk(rn)) else {
                    refuse(
                        format!("ColumnarHashEquiJoin refused: no column chunk for {ln} or {rn}"),
                        &mut refused,
                    );
                    continue;
                };
                if !matches!(split_residual(pred, left_key, right_key), Some(r) if r.is_empty()) {
                    refuse(
                        "ColumnarHashEquiJoin refused: residual predicate on the join".to_string(),
                        &mut refused,
                    );
                    continue;
                }
                let oriented = if lc.is_empty() || rc.is_empty() {
                    // Empty side: the kernel answers trivially either way.
                    Some((left_key.clone(), right_key.clone()))
                } else if join_keys_usable(lc, rc, left_key, right_key) {
                    Some((left_key.clone(), right_key.clone()))
                } else if join_keys_usable(lc, rc, right_key, left_key) {
                    Some((right_key.clone(), left_key.clone()))
                } else {
                    None
                };
                match oriented {
                    Some((lk, rk)) => Some((
                        PhysOp::ColumnarHashEquiJoin {
                            left: ln.clone(),
                            right: rn.clone(),
                            left_key: lk.clone(),
                            right_key: rk.clone(),
                        },
                        format!("typed build/probe on {ln}.{lk} = {rn}.{rk}"),
                    )),
                    None => {
                        refuse(
                            "ColumnarHashEquiJoin refused: key columns not chunk-hashable \
                             (nullable, unsupported type, or overlapping attributes)"
                                .to_string(),
                            &mut refused,
                        );
                        None
                    }
                }
            }
            (Expr::Group { input, by }, PhysOp::HashGroup) => {
                let Expr::Named(n) = &**input else {
                    refuse(
                        "ColumnarHashGroup refused: input is not a base extent scan".to_string(),
                        &mut refused,
                    );
                    continue;
                };
                let Some(chunk) = data.get_chunk(n) else {
                    refuse(
                        format!("ColumnarHashGroup refused: no column chunk for {n}"),
                        &mut refused,
                    );
                    continue;
                };
                let key = match &**by {
                    Expr::TupExtract(inner, f) if matches!(&**inner, Expr::Input(0)) => f.clone(),
                    _ => {
                        refuse(
                            "ColumnarHashGroup refused: grouping key is not a bare attribute \
                             extract"
                                .to_string(),
                            &mut refused,
                        );
                        continue;
                    }
                };
                if !chunk.is_empty() && chunk.col(&key).is_none() {
                    refuse(
                        format!("ColumnarHashGroup refused: no {key} column in {n}'s chunk"),
                        &mut refused,
                    );
                    continue;
                }
                Some((
                    PhysOp::ColumnarHashGroup {
                        object: n.clone(),
                        key: key.clone(),
                    },
                    format!("grouped {n}'s chunk by the {key} column"),
                ))
            }
            (Expr::DupElim(input), PhysOp::HashDistinct) => match &**input {
                Expr::Named(n) => match data.get_chunk(n) {
                    Some(_) => Some((
                        PhysOp::ColumnarHashDistinct { object: n.clone() },
                        format!("DE over {n}'s chunk: rows are distinct by construction"),
                    )),
                    None => {
                        refuse(
                            format!("ColumnarHashDistinct refused: no column chunk for {n}"),
                            &mut refused,
                        );
                        None
                    }
                },
                _ => {
                    refuse(
                        "ColumnarHashDistinct refused: input is not a base extent scan".to_string(),
                        &mut refused,
                    );
                    None
                }
            },
            _ => None,
        };
        if let Some((op, why)) = upgrade {
            let prior = pp.choices.get(&path).expect("candidate has a choice");
            let est_rows = prior.est_rows;
            let why = format!("{why}; was {}", prior.op);
            accepted.push((path.clone(), why.clone()));
            pp.choices.insert(path, PhysChoice { op, why, est_rows });
        }
    }
    (accepted, refused)
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
            elided_guards: BTreeSet::new(),
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
        _ => probe_apply_choice(e, path, nodes, refused).unwrap_or(PhysChoice {
            op: PhysOp::PassThrough,
            why: String::new(),
            est_rows,
        }),
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

/// The kernel selection policy both hash kernels share: a hash build is
/// not free, so the estimated pair count must clear
/// [`HASH_JOIN_MIN_PAIRS`], and a key known to take one value hashes to
/// the nested loop plus overhead.  `Ok` is the estimate clause of the
/// choice's reasoning, `Err` the refusal.
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

/// The larger of the NDVs the statistics know for the two key fields.
fn max_known_ndv(l: Option<f64>, r: Option<f64>) -> Option<f64> {
    l.into_iter().chain(r).reduce(f64::max)
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
    let key_ndv = max_known_ndv(known_ndv(l, &left_key), known_ndv(r, &right_key));
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

/// The choice for a correlated join (see [`correlated_join`]), or `None`
/// when `e` is not one — any other nested apply passes through and
/// journals nothing.  A candidate the kernel cannot or should not take is
/// refused with a journaled reason, like [`join_choice`]'s.
fn probe_apply_choice(
    e: &Expr,
    path: &NodePath,
    nodes: &BTreeMap<NodePath, Estimate>,
    refused: &mut Vec<RefusedStep>,
) -> Option<PhysChoice> {
    let cj = correlated_join(e)?;
    let est_rows = nodes.get(path).map(|est| est.rows);
    // A is the apply's input, B the input of its body.
    let (a, b) = (
        estimate_under(nodes, path, &[0]),
        estimate_under(nodes, path, &[1, 0]),
    );
    let pairs = match (a, b) {
        (Some(a), Some(b)) => Some(a.rows * b.rows),
        _ => None,
    };
    let field_ndv = |side: Option<&Estimate>, key: &Expr| match key {
        Expr::TupExtract(of, f) if matches!(**of, Expr::Input(0)) => known_ndv(side, f),
        _ => None,
    };
    let key_ndv = max_known_ndv(field_ndv(a, &cj.outer_key), field_ndv(b, &cj.inner_key));
    let verdict = if cj.inner_input.mentions_input(0) {
        Err("inner input depends on the outer element".to_string())
    } else if cj.inner_input.mints_oids() {
        Err("inner input mints OIDs".to_string())
    } else if cj.comp.mints_oids() {
        // COMP evaluates its input before θ, so on rejected pairs too.
        Err("the applied COMP mints OIDs".to_string())
    } else {
        hash_pays(pairs, key_ndv)
    };
    Some(match verdict {
        Err(reason) => {
            refused.push(RefusedStep {
                rule: LOWERING_RULE,
                path: path.clone(),
                reason: format!("HashProbeApply refused: {reason}"),
            });
            PhysChoice {
                op: PhysOp::PassThrough,
                why: reason,
                est_rows,
            }
        }
        Ok(estimate) => PhysChoice {
            why: format!(
                "correlated equi conjunct, inner input closed and evaluated once{estimate}"
            ),
            op: PhysOp::HashProbeApply {
                outer_key: cj.outer_key,
                inner_key: cj.inner_key,
            },
            est_rows,
        },
    })
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

    /// The translator's form of `equi_join`:
    /// `SET_APPLY[SET_APPLY[COMP[INPUT^2.adv = INPUT^1.name](f)](inner)](S)`.
    fn correlated_join_over(inner: Expr, f: Expr) -> Expr {
        let theta = Pred::cmp(
            Expr::input_at(2).extract("adv"),
            CmpOp::Eq,
            Expr::input_at(1).extract("name"),
        );
        Expr::named("S").set_apply(inner.set_apply(f.comp(theta)))
    }

    fn root_choice(plan: &Expr, stats: &Statistics) -> (PhysChoice, RewriteJournal) {
        let mut journal = RewriteJournal::for_plan(0.0);
        let pp = lower_journaled(plan, stats, &mut journal);
        assert_eq!(pp.logical, *plan);
        (pp.choices[&Vec::new() as &NodePath].clone(), journal)
    }

    #[test]
    fn correlated_join_lowers_to_the_probe_kernel_and_prices_below_the_loop() {
        let plan = correlated_join_over(Expr::named("E"), Expr::input().extract("name"));
        let (root, journal) = root_choice(&plan, &stats());
        let shown = root.op.to_string();
        assert_eq!(
            shown,
            "HashProbeApply[outer TUP_EXTRACT[adv](INPUT) = inner TUP_EXTRACT[name](INPUT)]"
        );
        // `pipeline::reoptimize` takes an op containing "Scan" for a scan.
        assert!(!shown.contains("Scan"));
        assert!(
            root.why.contains("est 2000000 pairs, key NDV 2000"),
            "{}",
            root.why
        );
        assert_eq!(journal.refused, Vec::new());
        assert!(journal.steps[0].cost_after < journal.steps[0].cost_before / 10.0);
    }

    #[test]
    fn a_correlated_join_the_kernel_cannot_take_is_refused_with_its_reason() {
        let name = || Expr::input().extract("name");
        let cases = [
            (
                // The inner input reads the outer element.
                correlated_join_over(Expr::input().extract("kids"), name()),
                stats(),
                "inner input depends on the outer element",
            ),
            (
                correlated_join_over(
                    Expr::named("E").set_apply(Expr::input().make_ref("T")),
                    name(),
                ),
                stats(),
                "inner input mints OIDs",
            ),
            (
                correlated_join_over(Expr::named("E"), Expr::input().make_ref("T")),
                stats(),
                "the applied COMP mints OIDs",
            ),
            (
                correlated_join_over(Expr::named("E"), name()),
                {
                    let mut tiny = Statistics::new();
                    tiny.set_object("S", 4.0, 4.0, 8.0);
                    tiny.set_object("E", 4.0, 4.0, 8.0);
                    tiny
                },
                "estimated 16 pairs below the hash threshold",
            ),
            (
                correlated_join_over(Expr::named("E"), name()),
                {
                    let mut one = stats();
                    one.set_attr_ndv("S", "adv", 1.0);
                    one.set_attr_ndv("E", "name", 1.0);
                    one
                },
                "join key NDV",
            ),
        ];
        for (plan, stats, reason) in cases {
            let (root, journal) = root_choice(&plan, &stats);
            assert_eq!(root.op, PhysOp::PassThrough, "{reason}");
            assert!(root.why.contains(reason), "{}", root.why);
            let [refusal] = &journal.refused[..] else {
                panic!("{reason}: {:?}", journal.refused)
            };
            assert_eq!((refusal.rule, &refusal.path), (LOWERING_RULE, &Vec::new()));
            assert!(
                refusal.reason.starts_with("HashProbeApply refused: ")
                    && refusal.reason.contains(reason),
                "{}",
                refusal.reason
            );
        }
    }

    #[test]
    fn a_nested_apply_with_no_equi_conjunct_between_its_binders_journals_nothing() {
        // SECTION2_KIDS's shape: the inner input hangs off the outer
        // element and the predicate compares it with a literal.
        let theta = Pred::cmp(Expr::input_at(2).extract("floor"), CmpOp::Eq, Expr::int(2));
        let plan = Expr::named("S").set_apply(
            Expr::input()
                .extract("kids")
                .set_apply(Expr::input().extract("name").comp(theta)),
        );
        let (root, journal) = root_choice(&plan, &stats());
        assert_eq!((root.op, root.why.as_str()), (PhysOp::PassThrough, ""));
        assert_eq!(journal.refused, Vec::new());
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
    fn columnar_annotation_upgrades_chunk_safe_nodes() {
        use excess_core::catalog::ChunkedCatalog;
        use excess_types::Value;
        let mut cat = ChunkedCatalog::default();
        let mut s = excess_types::MultiSet::new();
        let mut e = excess_types::MultiSet::new();
        for i in 0..20i32 {
            s.insert(Value::tuple([
                ("adv", Value::str(format!("n{i}"))),
                ("sdept", Value::int(i % 4)),
            ]));
            e.insert(Value::tuple([
                ("name", Value::str(format!("n{i}"))),
                ("esal", Value::int(1000 + i)),
            ]));
        }
        cat.put("S", Value::Set(s));
        cat.put("E", Value::Set(e));

        let mut pp = lower(&equi_join(), &stats());
        let (accepted, refused) = annotate_columnar(&mut pp, &cat);
        assert_eq!(refused, Vec::new());
        assert!(
            accepted.iter().any(|(p, _)| p.is_empty()),
            "join not upgraded: {accepted:?}"
        );
        assert!(matches!(
            &pp.choices.get(&Vec::new() as &NodePath).unwrap().op,
            PhysOp::ColumnarHashEquiJoin { left, right, .. } if left == "S" && right == "E"
        ));

        // σ over a base extent with a compilable predicate upgrades; GRP
        // and DE over base extents upgrade too.
        let scan = Expr::named("S").select(Pred::cmp(
            Expr::input().extract("sdept"),
            CmpOp::Eq,
            Expr::int(2),
        ));
        let mut pp = lower(&scan, &stats());
        let (accepted, refused) = annotate_columnar(&mut pp, &cat);
        assert_eq!(refused, Vec::new());
        assert_eq!(accepted.len(), 1);
        assert!(matches!(
            &pp.choices.get(&Vec::new() as &NodePath).unwrap().op,
            PhysOp::ColumnarScan { object } if object == "S"
        ));

        let grp = Expr::named("S").group_by(Expr::input().extract("sdept"));
        let mut pp = lower(&grp, &stats());
        let (accepted, _) = annotate_columnar(&mut pp, &cat);
        assert_eq!(accepted.len(), 1);
        let de = Expr::named("S").dup_elim();
        let mut pp = lower(&de, &stats());
        let (accepted, _) = annotate_columnar(&mut pp, &cat);
        assert_eq!(accepted.len(), 1);
    }

    #[test]
    fn chunk_unsafe_plans_refuse_with_journaled_reasons() {
        use excess_core::catalog::{ChunkedCatalog, EmptyCatalog};
        use excess_types::Value;

        // No chunks at all: every candidate refuses with a reason.
        let mut pp = lower(&equi_join(), &stats());
        let (accepted, refused) = annotate_columnar(&mut pp, &EmptyCatalog);
        assert!(accepted.is_empty());
        assert!(
            refused.iter().any(|r| r.reason.contains("no column chunk")),
            "{refused:?}"
        );
        assert!(refused.iter().all(|r| r.rule == COLUMNAR_RULE));

        // OID-minting plans refuse wholesale.
        let minting = Expr::named("S").set_apply(Expr::input().make_ref("T"));
        let mut pp = lower(&minting, &stats());
        let (_, refused) = annotate_columnar(&mut pp, &EmptyCatalog);
        assert_eq!(refused.len(), 1);
        assert!(refused[0].reason.contains("mints OIDs"), "{refused:?}");

        // A join with a residual conjunct keeps the row hash kernel.
        let mut cat = ChunkedCatalog::default();
        let mut s = excess_types::MultiSet::new();
        let mut e = excess_types::MultiSet::new();
        for i in 0..20i32 {
            s.insert(Value::tuple([("adv", Value::str(format!("n{i}")))]));
            e.insert(Value::tuple([
                ("name", Value::str(format!("n{i}"))),
                ("esal", Value::int(i)),
            ]));
        }
        cat.put("S", Value::Set(s));
        cat.put("E", Value::Set(e));
        let residual = Expr::named("S").rel_join(
            Expr::named("E"),
            Pred::cmp(
                Expr::input().extract("adv"),
                CmpOp::Eq,
                Expr::input().extract("name"),
            )
            .and(Pred::cmp(
                Expr::input().extract("esal"),
                CmpOp::Ge,
                Expr::int(5),
            )),
        );
        let mut pp = lower(&residual, &stats());
        let (accepted, refused) = annotate_columnar(&mut pp, &cat);
        assert!(accepted.is_empty());
        assert!(
            refused
                .iter()
                .any(|r| r.reason.contains("residual predicate")),
            "{refused:?}"
        );
        assert!(matches!(
            pp.choices.get(&Vec::new() as &NodePath).unwrap().op,
            PhysOp::HashEquiJoin { .. }
        ));
    }

    #[test]
    fn columnar_choices_price_below_their_row_counterparts() {
        use excess_core::catalog::ChunkedCatalog;
        use excess_types::Value;
        let mut cat = ChunkedCatalog::default();
        let mut s = excess_types::MultiSet::new();
        let mut e = excess_types::MultiSet::new();
        for i in 0..20i32 {
            s.insert(Value::tuple([("adv", Value::str(format!("n{i}")))]));
            e.insert(Value::tuple([("name", Value::str(format!("n{i}")))]));
        }
        cat.put("S", Value::Set(s));
        cat.put("E", Value::Set(e));
        let st = stats();
        let row = lower(&equi_join(), &st);
        let mut col = row.clone();
        let (accepted, _) = annotate_columnar(&mut col, &cat);
        assert!(!accepted.is_empty());
        assert!(
            estimate_physical(&col, &st).cost < estimate_physical(&row, &st).cost,
            "columnar must price below the row hash join"
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
