//! The cost model: maps an algebra expression to (estimated rows, distinct
//! values, total work).
//!
//! Costs are abstract work units chosen to mirror the evaluator's counters
//! (`excess_core::Counters`): one unit per occurrence scanned or compared,
//! [`DEREF_COST`] per dereference, [`MINT_COST`] per object creation,
//! [`TYPE_TEST_COST`] per run-time exact-type test (the Section 4 dispatch
//! costs).  Absolute values are meaningless; the optimizer only compares
//! plans.
//!
//! # Duplication-aware propagation
//!
//! The paper's Figure 6→8 derivation hinges on *crediting duplicate
//! elimination*: DE is only worth pushing early if the model can see that
//! its input carries duplicates.  To that end every [`Estimate`] threads a
//! `distinct` count — and, for collections of tuples, per-attribute NDVs
//! ([`Estimate::attr_ndv`], seeded from [`Statistics`]) — compositionally
//! through the operators:
//!
//! * projection collapses distinctness to the product of the kept
//!   attributes' NDVs (capped by `rows`);
//! * `GRP` bounds its group count by the grouping key's NDV;
//! * `DE` snaps `rows` to `distinct`;
//! * `⊎`/`∪` add NDVs;
//! * `rel_join` multiplies side distinct counts under independence and
//!   uses `1/max(ndv_l, ndv_r)` selectivity for equi-join predicates.
//!
//! Every estimate is normalised so `distinct ≤ rows` holds by
//! construction (property-tested in `tests/`).

use crate::stats::Statistics;
use excess_core::expr::{CmpOp, Expr, Func, Pred};
use excess_types::Value;
use std::collections::BTreeMap;

/// Work units per DEREF (pointer chase + copy).
pub const DEREF_COST: f64 = 2.0;
/// Work units per REF (allocation + domain check).
pub const MINT_COST: f64 = 5.0;
/// Work units per run-time exact-type determination (shape match or store
/// lookup) — paid per element by `only_types` filters and switch dispatch.
pub const TYPE_TEST_COST: f64 = 1.0;
/// Extra per-element overhead of the switch table itself.
pub const SWITCH_COST: f64 = 0.5;
/// Modelled speedup of a batched chunk kernel over its row-at-a-time
/// counterpart: typed column sweeps replace per-occurrence `Value`
/// clones and tree comparisons.  Section I of the report measures the
/// actual ratio; the constant only has to rank columnar below row for
/// the same node, which any value > 1 does.
pub const COLUMNAR_DISCOUNT: f64 = 8.0;

/// A per-expression estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Expected number of occurrences (1 for non-collections).
    pub rows: f64,
    /// Expected number of distinct elements.
    pub distinct: f64,
    /// Total work to produce the value once.
    pub cost: f64,
    /// Per-attribute number of distinct values, when the expression is a
    /// collection of tuples with known statistics (`None` = unknown, fall
    /// back to shape heuristics).  This is what lets a projection body
    /// collapse `distinct` and an equi-join pick a selectivity.
    pub attr_ndv: Option<BTreeMap<String, f64>>,
}

impl Estimate {
    fn scalar(cost: f64) -> Estimate {
        Estimate {
            rows: 1.0,
            distinct: 1.0,
            cost,
            attr_ndv: None,
        }
    }

    fn plain(rows: f64, distinct: f64, cost: f64) -> Estimate {
        Estimate {
            rows,
            distinct,
            cost,
            attr_ndv: None,
        }
    }

    /// NDV of one attribute, if known.
    fn ndv(&self, attr: &str) -> Option<f64> {
        self.attr_ndv.as_ref()?.get(attr).copied()
    }
}

/// Clamp an estimate into its invariants: `distinct` never exceeds `rows`,
/// and no attribute NDV exceeds `rows` either (an attribute cannot take
/// more distinct values than there are occurrences).
fn normalized(mut est: Estimate) -> Estimate {
    if est.distinct > est.rows {
        est.distinct = est.rows;
    }
    if let Some(m) = est.attr_ndv.as_mut() {
        for v in m.values_mut() {
            if *v > est.rows {
                *v = est.rows;
            }
        }
    }
    est
}

/// Pointwise-`max` union of two attribute-NDV maps (equi-join output: the
/// concatenated tuple carries both sides' attributes).
fn merge_max(
    a: Option<&BTreeMap<String, f64>>,
    b: Option<&BTreeMap<String, f64>>,
) -> Option<BTreeMap<String, f64>> {
    let (a, b) = (a?, b?);
    let mut out = a.clone();
    for (k, v) in b {
        let slot = out.entry(k.clone()).or_insert(*v);
        if *v > *slot {
            *slot = *v;
        }
    }
    Some(out)
}

/// Pointwise-sum union of two attribute-NDV maps (⊎/∪ output: the value
/// sets of each attribute at worst concatenate).
fn merge_add(
    a: Option<&BTreeMap<String, f64>>,
    b: Option<&BTreeMap<String, f64>>,
) -> Option<BTreeMap<String, f64>> {
    let (a, b) = (a?, b?);
    let mut out = a.clone();
    for (k, v) in b {
        *out.entry(k.clone()).or_insert(0.0) += *v;
    }
    Some(out)
}

/// `π_L(INPUT)` body: the projected field list, when the body is exactly a
/// projection of the element variable.
fn body_projection_fields(body: &Expr) -> Option<&[String]> {
    if let Expr::Project(a, fields) = body {
        if matches!(**a, Expr::Input(0)) {
            return Some(fields);
        }
    }
    None
}

/// `TUP_EXTRACT_f(INPUT)` shape: the extracted field, at the given binder
/// depth.
fn extracted_field(e: &Expr, depth: usize) -> Option<&str> {
    if let Expr::TupExtract(a, f) = e {
        if matches!(**a, Expr::Input(d) if d == depth) {
            return Some(f);
        }
    }
    None
}

/// For an equi-join predicate `INPUT.f1 = INPUT.f2` whose fields come from
/// opposite sides, the two NDVs — the classical `1/max(ndv₁, ndv₂)`
/// selectivity ingredient.
fn eq_join_ndvs(pred: &Pred, left: &Estimate, right: &Estimate) -> Option<(f64, f64)> {
    let Pred::Cmp(l, CmpOp::Eq, r) = pred else {
        return None;
    };
    let (fl, fr) = (extracted_field(l, 0)?, extracted_field(r, 0)?);
    if let (Some(a), Some(b)) = (left.ndv(fl), right.ndv(fr)) {
        return Some((a, b));
    }
    if let (Some(a), Some(b)) = (left.ndv(fr), right.ndv(fl)) {
        return Some((a, b));
    }
    None
}

/// Estimate `e` under `stats`.  `env` carries estimates for binder
/// elements (innermost last): an element's `rows` models the expected size
/// of its nested collections, and its `attr_ndv` the per-attribute NDVs of
/// the collection it was drawn from.
pub fn estimate(e: &Expr, env: &mut Vec<Estimate>, stats: &Statistics) -> Estimate {
    normalized(estimate_raw(e, env, stats))
}

fn estimate_raw(e: &Expr, env: &mut Vec<Estimate>, stats: &Statistics) -> Estimate {
    match e {
        Expr::Input(d) => {
            let idx = env.len().checked_sub(1 + d);
            idx.and_then(|i| env.get(i).cloned())
                .unwrap_or(Estimate::scalar(0.0))
        }
        Expr::Named(n) => {
            let o = stats.object(n);
            Estimate {
                rows: o.rows,
                distinct: o.distinct,
                cost: o.rows,
                attr_ndv: (!o.attr_ndv.is_empty()).then_some(o.attr_ndv),
            }
        }
        Expr::Const(v) => {
            let rows = match v {
                Value::Set(s) => s.len() as f64,
                Value::Array(a) => a.len() as f64,
                _ => 1.0,
            };
            Estimate::plain(rows, rows, 0.0)
        }

        Expr::AddUnion(a, b) | Expr::Union(a, b) => {
            let (ea, eb) = (estimate(a, env, stats), estimate(b, env, stats));
            Estimate {
                rows: ea.rows + eb.rows,
                distinct: (ea.distinct + eb.distinct) * 0.75,
                cost: ea.cost + eb.cost + ea.rows + eb.rows,
                attr_ndv: merge_add(ea.attr_ndv.as_ref(), eb.attr_ndv.as_ref()),
            }
        }
        Expr::Diff(a, b) | Expr::Intersect(a, b) => {
            let (ea, eb) = (estimate(a, env, stats), estimate(b, env, stats));
            Estimate {
                rows: (ea.rows * 0.5).max(1.0),
                distinct: (ea.distinct * 0.5).max(1.0),
                cost: ea.cost + eb.cost + ea.rows + eb.rows,
                attr_ndv: ea.attr_ndv,
            }
        }
        Expr::MakeSet(a) | Expr::MakeArr(a) => {
            let ea = estimate(a, env, stats);
            Estimate::plain(1.0, 1.0, ea.cost)
        }
        Expr::SetApply {
            input,
            body,
            only_types,
        } => {
            let ein = estimate(input, env, stats);
            let elem = element_estimate(input, &ein, env, stats);
            env.push(elem);
            let eb = estimate(body, env, stats);
            env.pop();
            let (frac, filter_cost) = match only_types {
                Some(ts) => {
                    let f: f64 = ts
                        .iter()
                        .map(|t| stats.type_fraction(t))
                        .sum::<f64>()
                        .min(1.0);
                    (f, TYPE_TEST_COST)
                }
                None => (1.0, 0.0),
            };
            let selectivity = body_selectivity(body, stats);
            let rows = ein.rows * frac * selectivity;
            let cost = ein.cost + ein.rows * filter_cost + ein.rows * frac * (1.0 + eb.cost);
            // Distinctness through the body, best information first:
            // identity passes everything through; a pure projection keeps
            // only the named attributes, so distinctness collapses to the
            // product of their NDVs; a single extraction collapses to that
            // attribute's NDV; otherwise fall back to the classical
            // column-cardinality heuristic (projection-shaped bodies keep
            // ~10% distinct).
            if matches!(**body, Expr::Input(0)) {
                return Estimate {
                    rows,
                    distinct: ein.distinct * frac * selectivity,
                    cost,
                    attr_ndv: ein.attr_ndv,
                };
            }
            if let Some(fields) = body_projection_fields(body) {
                if let Some(map) = ein.attr_ndv.as_ref() {
                    if fields.iter().all(|f| map.contains_key(f)) {
                        let kept: BTreeMap<String, f64> =
                            fields.iter().map(|f| (f.clone(), map[f])).collect();
                        let joint = kept.values().product::<f64>();
                        return Estimate {
                            rows,
                            distinct: joint.max(1.0),
                            cost,
                            attr_ndv: Some(kept),
                        };
                    }
                }
            }
            if let Some(f) = extracted_field(body, 0) {
                if let Some(ndv) = ein.ndv(f) {
                    return Estimate {
                        rows,
                        distinct: ndv.max(1.0),
                        cost,
                        attr_ndv: None,
                    };
                }
            }
            let distinct_factor = if body_is_projection(body) { 0.1 } else { 1.0 };
            Estimate {
                rows,
                distinct: (ein.distinct * frac * selectivity * distinct_factor).max(1.0),
                cost,
                attr_ndv: None,
            }
        }
        Expr::SetApplySwitch { input, table } => {
            let ein = estimate(input, env, stats);
            let elem = element_estimate(input, &ein, env, stats);
            env.push(elem);
            let avg_body: f64 = if table.is_empty() {
                0.0
            } else {
                table
                    .iter()
                    .map(|(_, b)| estimate(b, env, stats).cost)
                    .sum::<f64>()
                    / table.len() as f64
            };
            env.pop();
            Estimate {
                rows: ein.rows,
                distinct: ein.distinct,
                cost: ein.cost
                    + ein.rows * (TYPE_TEST_COST + SWITCH_COST)
                    + ein.rows * (1.0 + avg_body),
                attr_ndv: None,
            }
        }
        Expr::Group { input, by } => {
            let ein = estimate(input, env, stats);
            let elem = element_estimate(input, &ein, env, stats);
            env.push(elem);
            let eby = estimate(by, env, stats);
            env.pop();
            // Groups ≈ distinct grouping keys.  When the key is a known
            // attribute its NDV bounds the group count exactly; otherwise
            // assume a quarter of the distinct elements share a key.
            let key_ndv = extracted_field(by, 0).and_then(|f| ein.ndv(f));
            let groups = match key_ndv {
                Some(ndv) => ndv.min(ein.distinct).max(1.0),
                None => (ein.distinct * 0.25).max(1.0),
            };
            Estimate::plain(groups, groups, ein.cost + ein.rows * (1.0 + eby.cost))
        }
        Expr::DupElim(a) => {
            let ea = estimate(a, env, stats);
            Estimate {
                rows: ea.distinct,
                distinct: ea.distinct,
                cost: ea.cost + ea.rows,
                attr_ndv: ea.attr_ndv,
            }
        }
        Expr::Cross(a, b) | Expr::RelCross(a, b) => {
            let (ea, eb) = (estimate(a, env, stats), estimate(b, env, stats));
            let rows = ea.rows * eb.rows;
            Estimate {
                rows,
                distinct: ea.distinct * eb.distinct,
                cost: ea.cost + eb.cost + rows,
                attr_ndv: None,
            }
        }
        Expr::RelJoin { left, right, pred } => {
            let (ea, eb) = (estimate(left, env, stats), estimate(right, env, stats));
            env.push(Estimate::scalar(0.0));
            let pc = pred_cost(pred, env, stats);
            env.pop();
            let pairs = ea.rows * eb.rows;
            // Equi-join selectivity from the join attributes' NDVs when
            // both are known (uniformity assumption), else the default.
            let selectivity = match eq_join_ndvs(pred, &ea, &eb) {
                Some((n1, n2)) => 1.0 / n1.max(n2).max(1.0),
                None => stats.default_selectivity,
            };
            let rows = (pairs * selectivity).max(1.0);
            Estimate {
                rows,
                // Join of distinct sides stays distinct under independence:
                // at most d_L·d_R distinct concatenations.
                distinct: (ea.distinct * eb.distinct).min(rows),
                cost: ea.cost + eb.cost + pairs * (1.0 + pc),
                attr_ndv: merge_max(ea.attr_ndv.as_ref(), eb.attr_ndv.as_ref()),
            }
        }
        Expr::SetCollapse(a) => {
            let ea = estimate(a, env, stats);
            let rows = ea.rows * stats.default_avg_nested;
            Estimate::plain(rows, rows * 0.5, ea.cost + rows)
        }

        Expr::Select { input, pred } => {
            let ein = estimate(input, env, stats);
            let elem = element_estimate(input, &ein, env, stats);
            env.push(elem);
            let pc = pred_cost(pred, env, stats);
            env.pop();
            let rows = (ein.rows * stats.default_selectivity).max(1.0);
            Estimate {
                rows,
                distinct: (ein.distinct * stats.default_selectivity).max(1.0),
                cost: ein.cost + ein.rows * (1.0 + pc),
                // Selection can only lose attribute values; keeping the
                // input NDVs (capped at `rows` by normalisation) errs
                // toward overestimating distinctness, the safe side for DE.
                attr_ndv: ein.attr_ndv,
            }
        }
        Expr::ArrSelect { input, pred } => {
            let ein = estimate(input, env, stats);
            env.push(Estimate::scalar(0.0));
            let pc = pred_cost(pred, env, stats);
            env.pop();
            Estimate::plain(
                (ein.rows * stats.default_selectivity).max(1.0),
                (ein.distinct * stats.default_selectivity).max(1.0),
                ein.cost + ein.rows * (1.0 + pc),
            )
        }

        Expr::Project(a, _) | Expr::MakeTup(a, _) => {
            let ea = estimate(a, env, stats);
            Estimate::plain(1.0, 1.0, ea.cost + 0.5)
        }
        Expr::TupCat(a, b) => {
            let (ea, eb) = (estimate(a, env, stats), estimate(b, env, stats));
            Estimate::plain(1.0, 1.0, ea.cost + eb.cost + 0.5)
        }
        Expr::TupExtract(a, f) => {
            let ea = estimate(a, env, stats);
            // A field the statistics know about is a scalar attribute;
            // otherwise assume a (possibly nested-collection) field whose
            // expected size is the context's avg_nested.
            let rows = if ea.ndv(f).is_some() {
                1.0
            } else {
                stats.default_avg_nested
            };
            Estimate::plain(rows, rows, ea.cost + 0.25)
        }

        Expr::ArrExtract(a, _) => {
            let ea = estimate(a, env, stats);
            Estimate::plain(1.0, 1.0, ea.cost + 0.25)
        }
        Expr::ArrApply { input, body } => {
            let ein = estimate(input, env, stats);
            let elem = element_estimate(input, &ein, env, stats);
            env.push(elem);
            let eb = estimate(body, env, stats);
            env.pop();
            Estimate::plain(
                ein.rows,
                ein.distinct,
                ein.cost + ein.rows * (1.0 + eb.cost),
            )
        }
        Expr::SubArr(a, _, _) => {
            let ea = estimate(a, env, stats);
            Estimate::plain(
                (ea.rows * 0.5).max(1.0),
                ea.distinct,
                ea.cost + ea.rows * 0.5,
            )
        }
        Expr::ArrCat(a, b) => {
            let (ea, eb) = (estimate(a, env, stats), estimate(b, env, stats));
            Estimate::plain(
                ea.rows + eb.rows,
                ea.distinct + eb.distinct,
                ea.cost + eb.cost + ea.rows + eb.rows,
            )
        }
        Expr::ArrCollapse(a) => {
            let ea = estimate(a, env, stats);
            let rows = ea.rows * stats.default_avg_nested;
            Estimate::plain(rows, rows * 0.5, ea.cost + rows)
        }
        Expr::ArrDiff(a, b) => {
            let (ea, eb) = (estimate(a, env, stats), estimate(b, env, stats));
            Estimate::plain(ea.rows, ea.distinct, ea.cost + eb.cost + ea.rows + eb.rows)
        }
        Expr::ArrDupElim(a) => {
            let ea = estimate(a, env, stats);
            Estimate::plain(ea.distinct, ea.distinct, ea.cost + ea.rows)
        }
        Expr::ArrCross(a, b) => {
            let (ea, eb) = (estimate(a, env, stats), estimate(b, env, stats));
            let rows = ea.rows * eb.rows;
            Estimate::plain(rows, rows, ea.cost + eb.cost + rows)
        }

        Expr::MakeRef(a, _) => {
            let ea = estimate(a, env, stats);
            Estimate::plain(1.0, 1.0, ea.cost + MINT_COST)
        }
        Expr::Deref(a) => {
            let ea = estimate(a, env, stats);
            Estimate::plain(1.0, 1.0, ea.cost + DEREF_COST)
        }

        Expr::Comp { input, pred } => {
            let ein = estimate(input, env, stats);
            env.push(ein.clone());
            let pc = pred_cost(pred, env, stats);
            env.pop();
            Estimate {
                rows: ein.rows,
                distinct: ein.distinct,
                cost: ein.cost + pc,
                attr_ndv: ein.attr_ndv,
            }
        }

        Expr::Call(f, args) => {
            let mut cost = 0.0;
            let mut arg0 = Estimate::scalar(0.0);
            for (i, a) in args.iter().enumerate() {
                let ea = estimate(a, env, stats);
                cost += ea.cost;
                if i == 0 {
                    arg0 = ea;
                }
            }
            match f {
                Func::Min | Func::Max | Func::Count | Func::Sum | Func::Avg | Func::The => {
                    Estimate::scalar(cost + arg0.rows)
                }
                _ => Estimate::scalar(cost + 0.25),
            }
        }
    }
}

/// Estimate for one element of a collection.  Structure-aware where it
/// matters: elements of a `GRP` output are themselves multisets whose
/// expected size is `|input| / #groups` (this is what makes "push σ ahead
/// of GRP" correctly appear cheaper — the per-group σ still scans every
/// member), and they inherit the grouped collection's per-attribute NDVs
/// (capped at the member count) so a per-group projection body still
/// collapses distinctness.  Otherwise nested collections get the
/// configured average size.
fn element_estimate(
    input: &Expr,
    ein: &Estimate,
    env: &mut Vec<Estimate>,
    stats: &Statistics,
) -> Estimate {
    // Peel wrappers that preserve (roughly) the element structure.
    let mut cur = input;
    loop {
        match cur {
            Expr::DupElim(i) | Expr::SetCollapse(i) => cur = i,
            Expr::Select { input: i, .. } => cur = i,
            Expr::SetApply { input: i, .. } => cur = i,
            _ => break,
        }
    }
    if let Expr::Group { input: gi, .. } = cur {
        let g_in = estimate(gi, env, stats);
        let members = (g_in.rows / ein.rows.max(1.0)).max(1.0);
        return normalized(Estimate {
            rows: members,
            distinct: members,
            cost: 0.0,
            attr_ndv: g_in.attr_ndv,
        });
    }
    Estimate::plain(stats.default_avg_nested, stats.default_avg_nested, 0.0)
}

/// Does the body act as a filter (COMP at its spine)?  If so, SET_APPLY
/// output shrinks by the default selectivity.
fn body_selectivity(body: &Expr, stats: &Statistics) -> f64 {
    fn has_comp_spine(e: &Expr) -> bool {
        match e {
            Expr::Comp { .. } => true,
            Expr::Project(a, _) | Expr::TupExtract(a, _) | Expr::Deref(a) => has_comp_spine(a),
            Expr::SetApply { input, .. } => has_comp_spine(input),
            _ => false,
        }
    }
    if has_comp_spine(body) {
        stats.default_selectivity
    } else {
        1.0
    }
}

/// Is the body a pure projection chain (π / TUP_EXTRACT / TUP over the
/// element), i.e. guaranteed to be non-injective in general?
fn body_is_projection(body: &Expr) -> bool {
    match body {
        Expr::Project(a, _) | Expr::TupExtract(a, _) | Expr::MakeTup(a, _) => {
            matches!(**a, Expr::Input(_)) || body_is_projection(a)
        }
        Expr::TupCat(a, b) => body_is_projection(a) && body_is_projection(b),
        _ => false,
    }
}

fn pred_cost(p: &Pred, env: &mut Vec<Estimate>, stats: &Statistics) -> f64 {
    match p {
        Pred::Cmp(l, _, r) => 1.0 + estimate(l, env, stats).cost + estimate(r, env, stats).cost,
        Pred::And(a, b) => pred_cost(a, env, stats) + pred_cost(b, env, stats),
        Pred::Not(q) => pred_cost(q, env, stats),
    }
}

/// Total estimated cost of a closed expression.
pub fn cost_of(e: &Expr, stats: &Statistics) -> f64 {
    let mut env = Vec::new();
    estimate(e, &mut env, stats).cost
}

/// Per-node estimates for every node of `e`, keyed by its path (child
/// indices in [`Expr::children`] order — the same keying the evaluator's
/// profile uses, so EXPLAIN ANALYZE can put estimate and measurement side
/// by side).  Binder environments are maintained exactly as [`estimate`]
/// does internally, so a body node's estimate matches what the cost model
/// assumed for it in context.
pub fn estimate_nodes(
    e: &Expr,
    stats: &Statistics,
) -> Vec<(excess_core::profile::NodePath, Estimate)> {
    let mut out = Vec::new();
    let mut path = Vec::new();
    let mut env = Vec::new();
    walk_estimates(e, &mut path, &mut env, stats, &mut out);
    out
}

fn walk_estimates(
    e: &Expr,
    path: &mut Vec<usize>,
    env: &mut Vec<Estimate>,
    stats: &Statistics,
    out: &mut Vec<(excess_core::profile::NodePath, Estimate)>,
) {
    out.push((path.clone(), estimate(e, env, stats)));
    // Children at index ≥ `start` see one extra binder on the environment,
    // mirroring the env pushes in `estimate`'s own arms.
    let binder: Option<(usize, Estimate)> = match e {
        Expr::SetApply { input, .. }
        | Expr::ArrApply { input, .. }
        | Expr::Group { input, .. }
        | Expr::Select { input, .. }
        | Expr::SetApplySwitch { input, .. } => {
            let ein = estimate(input, env, stats);
            Some((1, element_estimate(input, &ein, env, stats)))
        }
        Expr::ArrSelect { .. } => Some((1, Estimate::scalar(0.0))),
        Expr::RelJoin { .. } => Some((2, Estimate::scalar(0.0))),
        Expr::Comp { input, .. } => Some((1, estimate(input, env, stats))),
        _ => None,
    };
    for (i, child) in e.children().into_iter().enumerate() {
        let bound = matches!(binder, Some((start, _)) if i >= start);
        if bound {
            env.push(binder.clone().expect("checked").1);
        }
        path.push(i);
        walk_estimates(child, path, env, stats, out);
        path.pop();
        if bound {
            env.pop();
        }
    }
}

/// The estimate of the node `suffix` below `path` in an
/// [`estimate_nodes`] map.
pub(crate) fn estimate_under<'n>(
    nodes: &'n BTreeMap<excess_core::profile::NodePath, Estimate>,
    path: &[usize],
    suffix: &[usize],
) -> Option<&'n Estimate> {
    nodes.get(&[path, suffix].concat())
}

/// Estimated cost of a lowered plan.
///
/// Rows, distinct count, and attribute NDVs are those of the logical
/// plan — kernels never change *what* an operator computes, only how.
/// Cost starts from the logical estimate and, for every
/// [`HashEquiJoin`](excess_core::physical::PhysOp::HashEquiJoin)
/// choice, replaces the nested loop's
/// pair-at-a-time predicate work with hash work: one build/probe pass
/// over each input plus the residual predicate on matching pairs only.
/// The per-pair predicate cost is recovered from the logical model's own
/// join identity (`cost(join) = cost(l) + cost(r) + pairs·(1 + pc)`),
/// and the equi conjunct — never evaluated by the kernel — is deducted
/// from the residual at its modelled cost (one comparison plus two
/// attribute extractions).  A
/// [`HashProbeApply`](excess_core::physical::PhysOp::HashProbeApply)
/// choice is priced the same way from the nested applies' identity.
pub fn estimate_physical(
    plan: &excess_core::physical::PhysicalPlan,
    stats: &Statistics,
) -> Estimate {
    // Cmp (1.0) + two TupExtract-of-Input (0.25 each): the modelled cost
    // of the `INPUT.f = INPUT.g` conjunct the hash kernel skips.
    const EQUI_CONJUNCT_COST: f64 = 1.5;
    let nodes: BTreeMap<excess_core::profile::NodePath, Estimate> =
        estimate_nodes(&plan.logical, stats).into_iter().collect();
    let mut est = match nodes.get(&Vec::new() as &excess_core::profile::NodePath) {
        Some(root) => root.clone(),
        None => return Estimate::scalar(0.0),
    };
    use excess_core::physical::PhysOp;
    for (path, choice) in &plan.choices {
        match &choice.op {
            PhysOp::HashEquiJoin { .. } | PhysOp::ColumnarHashEquiJoin { .. } => {
                let at = |suffix: &[usize]| estimate_under(&nodes, path, suffix);
                let (Some(j), Some(l), Some(r)) = (at(&[]), at(&[0]), at(&[1])) else {
                    continue;
                };
                let pairs = l.rows * r.rows;
                if pairs <= 0.0 {
                    continue;
                }
                let per_pair = ((j.cost - l.cost - r.cost) / pairs).max(1.0);
                let residual_per_pair = (per_pair - 1.0 - EQUI_CONJUNCT_COST).max(0.0);
                let mut hash_work = l.rows + r.rows + j.rows * (1.0 + residual_per_pair);
                if matches!(choice.op, PhysOp::ColumnarHashEquiJoin { .. }) {
                    // Build and probe run over flat typed key columns:
                    // no per-occurrence value clones or tree compares.
                    hash_work /= COLUMNAR_DISCOUNT;
                }
                est.cost -= (pairs * per_pair - hash_work).max(0.0);
            }
            PhysOp::HashProbeApply { .. } => {
                // A is the apply's input, B the input of its body (the
                // inner apply, whose rows are per outer element).
                let at = |suffix: &[usize]| estimate_under(&nodes, path, suffix);
                let (Some(a), Some(inner), Some(b)) = (at(&[0]), at(&[1]), at(&[1, 0])) else {
                    continue;
                };
                if b.rows <= 0.0 {
                    continue;
                }
                // The logical model runs the inner apply — B, then one
                // scan plus the COMP per element of B — once per element
                // of A.  The kernel evaluates B and the keys once and
                // runs the COMP on the pairs that survive only.
                let per_pair = ((inner.cost - b.cost) / b.rows).max(1.0);
                let nested = a.rows * inner.cost;
                let probe = b.cost + b.rows + a.rows + a.rows * inner.rows * per_pair;
                est.cost -= (nested - probe).max(0.0);
            }
            PhysOp::ColumnarScan { .. }
            | PhysOp::ColumnarHashGroup { .. }
            | PhysOp::ColumnarHashDistinct { .. } => {
                // Refund most of this node's *incremental* cost: the
                // batched kernel replaces the catalog clone and the
                // per-occurrence row walk with typed column sweeps.
                let mut cp = path.clone();
                cp.push(0);
                let (Some(n), Some(child)) = (nodes.get(path), nodes.get(&cp)) else {
                    continue;
                };
                let incremental = (n.cost - child.cost).max(0.0);
                est.cost -= incremental * (1.0 - 1.0 / COLUMNAR_DISCOUNT);
            }
            _ => {}
        }
    }
    est.cost = est.cost.max(0.0);
    est
}

/// Cost of a closed plan under partition-parallel execution with
/// `workers` workers, alongside the serial cost it improves on.
///
/// The model mirrors the engine in `excess-exec`: each operator's
/// *incremental* cost (its total cost minus its closed inputs' costs —
/// i.e. the work of applying the operator, including any per-element
/// binder bodies) is divided by a per-operator speedup, and the closed
/// inputs are costed recursively.  Chunk- and hash-partitionable multiset
/// operators get the full `workers` speedup; `GRP` is bounded by the
/// grouping key's NDV (at most one worker per key partition can be busy);
/// order-sensitive array operators, reference minting, and scalar/tuple
/// plumbing run serially (speedup 1), matching the engine's fallbacks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelEstimate {
    /// Worker count the estimate assumes.
    pub workers: usize,
    /// Plain serial cost ([`cost_of`]).
    pub serial_cost: f64,
    /// Estimated cost with partition-parallel execution.
    pub parallel_cost: f64,
    /// `serial_cost / parallel_cost` (1.0 when nothing parallelises).
    pub speedup: f64,
}

/// Estimate the benefit of running `e` with `workers` parallel workers.
pub fn estimate_parallel(e: &Expr, stats: &Statistics, workers: usize) -> ParallelEstimate {
    let serial_cost = cost_of(e, stats);
    let parallel_cost = par_cost(e, stats, workers.max(1));
    let speedup = if parallel_cost > 0.0 {
        serial_cost / parallel_cost
    } else {
        1.0
    };
    ParallelEstimate {
        workers: workers.max(1),
        serial_cost,
        parallel_cost,
        speedup,
    }
}

/// The children of `e` that are closed in `e`'s own environment — the
/// ones the parallel driver recurses into (binder bodies and predicate
/// expressions stay inside the operator's incremental cost).
fn closed_children(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::SetApply { input, .. }
        | Expr::ArrApply { input, .. }
        | Expr::Group { input, .. }
        | Expr::Select { input, .. }
        | Expr::ArrSelect { input, .. }
        | Expr::Comp { input, .. }
        | Expr::SetApplySwitch { input, .. } => vec![input],
        Expr::RelJoin { left, right, .. } => vec![left, right],
        _ => e.children(),
    }
}

fn par_cost(e: &Expr, stats: &Statistics, workers: usize) -> f64 {
    let w = workers as f64;
    let closed = closed_children(e);
    let own = cost_of(e, stats);
    let child_serial: f64 = closed.iter().map(|c| cost_of(c, stats)).sum();
    let incremental = (own - child_serial).max(0.0);
    let speedup = match e {
        // Chunk- or hash-partitioned multiset operators: full speedup.
        Expr::Select { .. }
        | Expr::SetApply { .. }
        | Expr::SetApplySwitch { .. }
        | Expr::SetCollapse(..)
        | Expr::DupElim(..)
        | Expr::AddUnion(..)
        | Expr::Union(..)
        | Expr::Intersect(..)
        | Expr::Diff(..)
        | Expr::Cross(..)
        | Expr::RelCross(..)
        | Expr::RelJoin { .. } => w,
        // GRP: at most one busy worker per distinct key partition.
        Expr::Group { input, by } => {
            let key_ndv = match &**by {
                Expr::TupExtract(inner, f) if matches!(&**inner, Expr::Input(0)) => {
                    let mut env = Vec::new();
                    let ein = estimate(input, &mut env, stats);
                    ein.attr_ndv.as_ref().and_then(|m| m.get(f).copied())
                }
                _ => None,
            };
            match key_ndv {
                Some(n) => w.min(n.max(1.0)),
                None => w,
            }
        }
        // Everything else (arrays, tuples, scalars, REF, COMP) is serial.
        _ => 1.0,
    };
    let children: f64 = closed.iter().map(|c| par_cost(c, stats, workers)).sum();
    children + incremental / speedup
}

#[cfg(test)]
mod tests {
    use super::*;
    use excess_core::expr::{CmpOp, Expr, Pred};

    fn stats() -> Statistics {
        let mut s = Statistics::new();
        s.set_object("S", 1000.0, 100.0, 8.0);
        s.set_object("E", 2000.0, 2000.0, 8.0);
        s
    }

    #[test]
    fn parallel_estimate_speeds_up_selection() {
        let s = stats();
        let pred = Pred::cmp(Expr::input().extract("floor"), CmpOp::Eq, Expr::int(5));
        let plan = Expr::named("S").select(pred);
        let pe = estimate_parallel(&plan, &s, 4);
        assert!(pe.speedup > 1.5, "selection should parallelise: {pe:?}");
        assert!(pe.parallel_cost < pe.serial_cost);
        // One worker means no speedup at all.
        let pe1 = estimate_parallel(&plan, &s, 1);
        assert!((pe1.parallel_cost - pe1.serial_cost).abs() < 1e-9);
    }

    #[test]
    fn group_speedup_is_bounded_by_key_ndv() {
        let mut s = stats();
        s.set_attr_ndv("S", "div", 2.0);
        let plan = Expr::named("S").group_by(Expr::input().extract("div"));
        let bounded = estimate_parallel(&plan, &s, 8);
        // With only 2 distinct keys, 8 workers cannot beat a 2× speedup on
        // the GRP itself; compare against a hypothetical unbounded chunk op
        // of the same incremental cost.
        let select = Expr::named("S").select(Pred::cmp(
            Expr::input().extract("div"),
            CmpOp::Eq,
            Expr::int(1),
        ));
        let unbounded = estimate_parallel(&select, &s, 8);
        assert!(
            bounded.speedup < unbounded.speedup,
            "{bounded:?} vs {unbounded:?}"
        );
        assert!(bounded.speedup <= 2.0 + 1e-9);
    }

    #[test]
    fn array_operators_do_not_parallelise() {
        let s = stats();
        let plan = Expr::named("S")
            .make_set()
            .arr_cat(Expr::named("E").make_set());
        // MakeSet of a multiset is ill-typed at runtime, but the cost model
        // still treats ARR_CAT as serial: parallel == serial.
        let pe = estimate_parallel(&plan, &s, 8);
        assert!((pe.parallel_cost - pe.serial_cost).abs() < 1e-9);
    }

    #[test]
    fn de_early_is_cheaper_with_high_duplication() {
        // DE(SET_APPLY(S)) vs DE(SET_APPLY(DE(S))): with dup factor 10 the
        // second plan's SET_APPLY runs over 100 rows instead of 1000.
        let s = stats();
        let body = Expr::input().extract("name");
        let late = Expr::named("S").set_apply(body.clone()).dup_elim();
        let early = Expr::named("S").dup_elim().set_apply(body).dup_elim();
        assert!(cost_of(&early, &s) < cost_of(&late, &s));
    }

    #[test]
    fn select_before_group_is_cheaper() {
        let s = stats();
        let pred = Pred::cmp(Expr::input().extract("floor"), CmpOp::Eq, Expr::int(5));
        let by = Expr::input().extract("div");
        // GRP then per-group σ (plus the compensation) vs σ then GRP.
        let late = Expr::named("S")
            .group_by(by.clone())
            .set_apply(Expr::Select {
                input: Box::new(Expr::input()),
                pred: pred.clone(),
            });
        let early = Expr::named("S").select(pred).group_by(by);
        assert!(cost_of(&early, &s) < cost_of(&late, &s));
    }

    #[test]
    fn join_cost_dominated_by_pair_count() {
        let s = stats();
        let pred = Pred::eq(Expr::input().extract("a"), Expr::input().extract("b"));
        let j = Expr::named("S").rel_join(Expr::named("E"), pred);
        // 1000 × 2000 pairs dominate the 3000 scan cost.
        assert!(cost_of(&j, &s) > 2_000_000.0);
    }

    #[test]
    fn switch_dispatch_charges_type_tests() {
        let s = stats();
        let arm = Expr::input().extract("name");
        let switch = Expr::SetApplySwitch {
            input: Box::new(Expr::named("S")),
            table: vec![("Person".into(), arm.clone())],
        };
        let plain = Expr::named("S").set_apply(arm);
        assert!(cost_of(&switch, &s) > cost_of(&plain, &s));
    }

    #[test]
    fn projection_collapses_distinct_to_joint_ndv() {
        let mut s = stats();
        s.set_attr_ndv("S", "dept", 10.0);
        s.set_attr_ndv("S", "adv", 5.0);
        s.set_attr_ndv("S", "name", 1000.0);
        let mut env = Vec::new();
        let proj = Expr::named("S").set_apply(Expr::input().project(["dept", "adv"]));
        let est = estimate(&proj, &mut env, &s);
        assert_eq!(est.rows, 1000.0);
        assert_eq!(est.distinct, 50.0, "joint NDV = 10 × 5");
        // The surviving attribute map is restricted to the kept fields.
        let map = est.attr_ndv.expect("projection keeps a map");
        assert_eq!(map.len(), 2);
        assert_eq!(map["dept"], 10.0);
    }

    #[test]
    fn dup_elim_snaps_rows_to_distinct() {
        let mut s = stats();
        s.set_attr_ndv("S", "dept", 10.0);
        let mut env = Vec::new();
        let de = Expr::named("S")
            .set_apply(Expr::input().project(["dept"]))
            .dup_elim();
        let est = estimate(&de, &mut env, &s);
        assert_eq!(est.rows, 10.0);
        assert_eq!(est.distinct, 10.0);
    }

    #[test]
    fn group_count_bounded_by_key_ndv() {
        let mut s = stats();
        s.set_attr_ndv("S", "dept", 7.0);
        let mut env = Vec::new();
        let g = Expr::named("S").group_by(Expr::input().extract("dept"));
        let est = estimate(&g, &mut env, &s);
        assert_eq!(est.rows, 7.0, "one group per distinct key");
    }

    #[test]
    fn equi_join_selectivity_from_ndvs() {
        let mut s = stats();
        s.set_attr_ndv("S", "adv", 50.0);
        s.set_attr_ndv("E", "name", 2000.0);
        let mut env = Vec::new();
        let pred = Pred::cmp(
            Expr::input().extract("adv"),
            CmpOp::Eq,
            Expr::input().extract("name"),
        );
        let j = Expr::named("S").rel_join(Expr::named("E"), pred);
        let est = estimate(&j, &mut env, &s);
        // |S|·|E| / max(ndv) = 1000·2000/2000 = 1000.
        assert_eq!(est.rows, 1000.0);
        // The join output carries both sides' attribute NDVs.
        assert!(est.ndv("adv").is_some() && est.ndv("name").is_some());
    }

    #[test]
    fn union_adds_ndvs_and_distinct_stays_capped() {
        let mut s = stats();
        s.set_attr_ndv("S", "dept", 10.0);
        s.set_attr_ndv("E", "dept", 30.0);
        let mut env = Vec::new();
        let u = Expr::named("S").add_union(Expr::named("E"));
        let est = estimate(&u, &mut env, &s);
        assert_eq!(est.rows, 3000.0);
        assert_eq!(est.ndv("dept"), Some(40.0));
        assert!(est.distinct <= est.rows);
    }

    #[test]
    fn estimates_never_exceed_rows() {
        let mut s = stats();
        s.set_attr_ndv("S", "dept", 999999.0); // deliberately inconsistent
        let mut env = Vec::new();
        let e = Expr::named("S").set_apply(Expr::input().project(["dept"]));
        let est = estimate(&e, &mut env, &s);
        assert!(est.distinct <= est.rows);
        assert!(est.attr_ndv.unwrap()["dept"] <= est.rows);
    }
}
