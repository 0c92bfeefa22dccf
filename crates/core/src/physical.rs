//! The physical-plan layer: what the algebra *computes* vs how an engine
//! *realizes* it.
//!
//! A [`PhysicalPlan`] is an overlay on a logical [`Expr`]: the logical
//! tree is kept verbatim (so rewrite soundness, rendering, profiling, and
//! canonical-form arguments all keep working on the same object), and a
//! map from node paths to [`PhysChoice`]s records which physical operator
//! implements each *spine* node — `HashEquiJoin` vs `NestedLoopJoin` for
//! `rel_join`, `HashGroup` for `GRP`, `HashDistinct` for `DE`, `Scan` /
//! `IndexScan` for named objects, and `PassThrough` for everything else.
//! Because the logical tree is untouched, `eval(lower(p))` operates on a
//! plan that is structurally equal to `p`; only the *kernel* used at
//! annotated joins differs, and that kernel is proven occurrence-exact
//! below.
//!
//! # The hash equi-join kernel
//!
//! [`hash_equi_join`] buckets the right side by its key field, probes with
//! each left occurrence, and evaluates only the *residual* predicate (the
//! `COMP` conjuncts minus the equi conjunct) on in-bucket pairs:
//!
//! * **Side conditions** ([`key_pair_usable`], re-verified at run time on
//!   the materialised inputs): every element of both sides is a tuple, the
//!   key field is present and non-null on its own side and absent from the
//!   other, and all key values share one kind.  Then the equi conjunct
//!   evaluates to a definite T/F on every pair — never `unk` — so the
//!   pairs a bucket separation skips are exactly the pairs the nested
//!   loop's predicate would reject (Kleene: `F ∧ x = F` regardless of
//!   `x`).  Null (`dne`/`unk`) keys fail the guard and fall back to the
//!   nested loop, preserving three-valued semantics unconditionally.
//! * **Residual handling**: in-bucket pairs have the equi conjunct equal
//!   to `T`, and `T ∧ x = x`, so the full predicate's truth value equals
//!   the residual conjunction's, evaluated left-to-right with the serial
//!   evaluator's own `F` short-circuit.
//! * **Counters**: the kernel never evaluates the equi conjunct, so it
//!   charges strictly fewer `comparisons` than the nested loop whenever
//!   any cross-bucket pair exists; `occurrences_scanned` is charged per
//!   probed pair only — the counters report work actually done.
//!
//! One behavioural caveat, shared with the parallel engine's hash-key
//! exchange: a runtime *error* inside a residual conjunct of a
//! cross-bucket pair (which the nested loop would hit before rejecting
//! the pair) is skipped, because the pair is never formed.
//!
//! Kernels reach the evaluator through a pointer-keyed table installed in
//! [`EvalCtx`] by [`evaluate_physical`]: choices are resolved to the
//! addresses of the plan's own `rel_join` nodes, so the unchanged
//! recursive evaluator — including its trace bracketing — picks the hash
//! kernel up at exactly the annotated nodes and nowhere else.
//!
//! # Example
//!
//! The predicate helpers the kernels are built from are plain functions:
//!
//! ```
//! use excess_core::expr::{CmpOp, Expr, Pred};
//! use excess_core::physical::{conjuncts, equi_key_candidates, split_residual};
//!
//! // sadv = ename AND esal >= 2000
//! let pred = Pred::cmp(
//!     Expr::input().extract("sadv"),
//!     CmpOp::Eq,
//!     Expr::input().extract("ename"),
//! )
//! .and(Pred::cmp(Expr::input().extract("esal"), CmpOp::Ge, Expr::int(2000)));
//!
//! assert_eq!(conjuncts(&pred).len(), 2);
//! assert_eq!(
//!     equi_key_candidates(&pred),
//!     vec![("sadv".to_string(), "ename".to_string())]
//! );
//! // The hash kernel keeps only the residual conjunct: esal >= 2000.
//! assert_eq!(split_residual(&pred, "sadv", "ename").unwrap().len(), 1);
//! ```

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

use crate::error::EvalResult;
use crate::eval::{eval_pred, evaluate, EvalCtx};
use crate::expr::{CmpOp, Expr, Pred};
use crate::ops::predicate::Truth;
use crate::profile::NodePath;
use crate::render::op_label;
use excess_types::{MultiSet, Value};

/// A physical operator choice for one logical node.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysOp {
    /// Full scan of a named top-level object.
    Scan,
    /// Scan of an extent-index object (a `…::exact::T` materialisation).
    IndexScan,
    /// Bucket the right side by `right_key`, probe with the left side's
    /// `left_key`, evaluate only the residual predicate on bucket matches.
    HashEquiJoin {
        /// Key field extracted from left-side tuples.
        left_key: String,
        /// Key field extracted from right-side tuples.
        right_key: String,
    },
    /// The serial evaluator's pair-at-a-time `rel_join` loop.
    NestedLoopJoin,
    /// `GRP` by hashing the grouping key (what both engines already do:
    /// the serial evaluator's `BTreeMap` grouping and the parallel
    /// repartition-by-key exchange).
    HashGroup,
    /// `DE` by hash-bucketing occurrences (the count-map representation).
    HashDistinct,
    /// Fused `σ`-over-extent consuming the extent's column chunk with a
    /// compiled, batched filter (see [`crate::columnar`]).
    ColumnarScan {
        /// The chunked extent the fused scan reads.
        object: String,
    },
    /// Hash equi-join whose build and probe run over the two extents'
    /// typed key columns instead of row values.
    ColumnarHashEquiJoin {
        /// Left extent name.
        left: String,
        /// Right extent name.
        right: String,
        /// Key column on the left chunk.
        left_key: String,
        /// Key column on the right chunk.
        right_key: String,
    },
    /// `GRP` keyed by one attribute column of the extent's chunk.
    ColumnarHashGroup {
        /// The chunked extent being grouped.
        object: String,
        /// The grouping attribute.
        key: String,
    },
    /// `DE` over a chunk (rows are distinct by construction).
    ColumnarHashDistinct {
        /// The chunked extent being deduplicated.
        object: String,
    },
    /// The logical operator runs as itself; no physical freedom exercised.
    PassThrough,
}

impl PhysOp {
    /// Is this one of the batched chunk-consuming operators?
    pub fn is_columnar(&self) -> bool {
        matches!(
            self,
            PhysOp::ColumnarScan { .. }
                | PhysOp::ColumnarHashEquiJoin { .. }
                | PhysOp::ColumnarHashGroup { .. }
                | PhysOp::ColumnarHashDistinct { .. }
        )
    }
}

impl fmt::Display for PhysOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhysOp::Scan => write!(f, "Scan"),
            PhysOp::IndexScan => write!(f, "IndexScan"),
            PhysOp::HashEquiJoin {
                left_key,
                right_key,
            } => write!(f, "HashEquiJoin[{left_key} = {right_key}]"),
            PhysOp::NestedLoopJoin => write!(f, "NestedLoopJoin"),
            PhysOp::HashGroup => write!(f, "HashGroup"),
            PhysOp::HashDistinct => write!(f, "HashDistinct"),
            PhysOp::ColumnarScan { object } => write!(f, "ColumnarScan[{object}]"),
            PhysOp::ColumnarHashEquiJoin {
                left_key,
                right_key,
                ..
            } => write!(f, "ColumnarHashEquiJoin[{left_key} = {right_key}]"),
            PhysOp::ColumnarHashGroup { object, key } => {
                write!(f, "ColumnarHashGroup[{object} by {key}]")
            }
            PhysOp::ColumnarHashDistinct { object } => {
                write!(f, "ColumnarHashDistinct[{object}]")
            }
            PhysOp::PassThrough => write!(f, "PassThrough"),
        }
    }
}

/// One node's physical choice, with the lowering pass's reasoning.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysChoice {
    /// The chosen physical operator.
    pub op: PhysOp,
    /// Why the lowering pass picked it (statistics consulted, thresholds,
    /// refusal reasons for the safe default).
    pub why: String,
    /// Estimated output rows at this node, when statistics were available.
    pub est_rows: Option<f64>,
}

/// A lowered plan: the logical tree verbatim plus per-spine-node physical
/// operator choices keyed by node path (child indices in
/// [`Expr::children`] order, the same keying profiles and per-node cost
/// estimates use).
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    /// The logical plan, structurally untouched by lowering.
    pub logical: Expr,
    /// Physical operator per annotated node path.
    pub choices: BTreeMap<NodePath, PhysChoice>,
    /// `HashEquiJoin` choices whose runtime [`key_pair_usable`] guard the
    /// property analysis proved redundant (keys definite on every row,
    /// attribute sets exhaustive and disjoint): the kernel skips the
    /// per-occurrence guard scan and extracts keys directly, degrading
    /// gracefully to the nested loop if a proof ever turned out wrong.
    pub elided_guards: BTreeSet<NodePath>,
}

impl PhysicalPlan {
    /// A plan with no choices: every node passes through to the logical
    /// interpreter.
    pub fn passthrough(logical: Expr) -> Self {
        PhysicalPlan {
            logical,
            choices: BTreeMap::new(),
            elided_guards: BTreeSet::new(),
        }
    }

    /// The logical node a choice path points at, if the path is valid.
    pub fn node_at(&self, path: &[usize]) -> Option<&Expr> {
        let mut node = &self.logical;
        for &i in path {
            node = node.children().into_iter().nth(i)?;
        }
        Some(node)
    }

    /// Resolve every `HashEquiJoin` choice to the address of its
    /// `rel_join` node — the pointer-keyed kernel table
    /// [`evaluate_physical`] installs in the evaluation context.  The
    /// flag marks choices whose runtime guard is elided.
    fn kernel_table(&self) -> HashMap<usize, (String, String, bool)> {
        let mut table = HashMap::new();
        for (path, choice) in &self.choices {
            // A columnar join registers the same row-hash entry: when
            // the chunk kernel refuses at runtime, the join degrades to
            // the guarded row hash kernel rather than the nested loop.
            let keys = match &choice.op {
                PhysOp::HashEquiJoin {
                    left_key,
                    right_key,
                }
                | PhysOp::ColumnarHashEquiJoin {
                    left_key,
                    right_key,
                    ..
                } => (left_key, right_key),
                _ => continue,
            };
            if let Some(node @ Expr::RelJoin { .. }) = self.node_at(path) {
                table.insert(
                    node as *const Expr as usize,
                    (
                        keys.0.clone(),
                        keys.1.clone(),
                        self.elided_guards.contains(path),
                    ),
                );
            }
        }
        table
    }

    /// Resolve every columnar choice to the address of its logical node
    /// — the batched-kernel table [`evaluate_physical`] installs
    /// alongside the row-hash table.  Choices whose node shape does not
    /// match (stale annotation) are dropped.
    fn chunk_table(&self) -> HashMap<usize, crate::columnar::ChunkKernel> {
        use crate::columnar::ChunkKernel;
        let mut table = HashMap::new();
        for (path, choice) in &self.choices {
            let Some(node) = self.node_at(path) else {
                continue;
            };
            let kernel = match (&choice.op, node) {
                (PhysOp::ColumnarScan { object }, Expr::Select { .. }) => ChunkKernel::Scan {
                    object: object.clone(),
                },
                (
                    PhysOp::ColumnarHashEquiJoin {
                        left,
                        right,
                        left_key,
                        right_key,
                    },
                    Expr::RelJoin { .. },
                ) => ChunkKernel::HashEquiJoin {
                    left: left.clone(),
                    right: right.clone(),
                    left_key: left_key.clone(),
                    right_key: right_key.clone(),
                },
                (PhysOp::ColumnarHashGroup { object, key }, Expr::Group { .. }) => {
                    ChunkKernel::Group {
                        object: object.clone(),
                        key: key.clone(),
                    }
                }
                (PhysOp::ColumnarHashDistinct { object }, Expr::DupElim(_)) => {
                    ChunkKernel::Distinct {
                        object: object.clone(),
                    }
                }
                _ => continue,
            };
            table.insert(node as *const Expr as usize, kernel);
        }
        table
    }

    /// Render the plan as an indented tree: each logical operator label,
    /// annotated with its physical choice, reasoning, and estimated rows.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_node(&self.logical, &mut Vec::new(), 0, &mut out);
        out
    }

    fn render_node(&self, e: &Expr, path: &mut NodePath, depth: usize, out: &mut String) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&op_label(e));
        if let Some(c) = self.choices.get(path) {
            out.push_str(&format!("  ⇐ {}", c.op));
            if let Some(rows) = c.est_rows {
                out.push_str(&format!("  est rows≈{rows:.0}"));
            }
            if !c.why.is_empty() {
                out.push_str(&format!("  ({})", c.why));
            }
        }
        out.push('\n');
        for (i, child) in e.children().into_iter().enumerate() {
            path.push(i);
            self.render_node(child, path, depth + 1, out);
            path.pop();
        }
    }
}

/// The indices (in [`Expr::children`] order) of `e`'s children that are
/// closed in `e`'s own binder environment — the *spine* the lowering pass
/// (and the parallel driver) recurses into.  Binder bodies and predicate
/// expressions stay inside their operator.
pub fn spine_children(e: &Expr) -> Vec<usize> {
    match e {
        Expr::SetApply { .. }
        | Expr::ArrApply { .. }
        | Expr::Group { .. }
        | Expr::Select { .. }
        | Expr::ArrSelect { .. }
        | Expr::Comp { .. }
        | Expr::SetApplySwitch { .. } => vec![0],
        Expr::RelJoin { .. } => vec![0, 1],
        _ => (0..e.children().len()).collect(),
    }
}

/// Flatten a predicate's `∧`-tree into its conjuncts, left to right.
pub fn conjuncts(p: &Pred) -> Vec<&Pred> {
    fn walk<'p>(p: &'p Pred, out: &mut Vec<&'p Pred>) {
        if let Pred::And(a, b) = p {
            walk(a, out);
            walk(b, out);
        } else {
            out.push(p);
        }
    }
    let mut out = Vec::new();
    walk(p, &mut out);
    out
}

/// The statically hashable equality conjuncts of a join predicate: every
/// `INPUT.f = INPUT.g` conjunct, as `(f, g)` field pairs.  Static shape
/// only — whether a pair actually drives a hash kernel soundly depends on
/// the data (see [`key_pair_usable`]).
pub fn equi_key_candidates(pred: &Pred) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for c in conjuncts(pred) {
        let Pred::Cmp(l, CmpOp::Eq, r) = c else {
            continue;
        };
        let (Expr::TupExtract(li, f), Expr::TupExtract(ri, g)) = (&**l, &**r) else {
            continue;
        };
        if matches!(&**li, Expr::Input(0)) && matches!(&**ri, Expr::Input(0)) {
            out.push((f.clone(), g.clone()));
        }
    }
    out
}

/// Can the field pair `(lf, rf)` soundly key a hash join of these
/// materialised inputs?  `lf` must name a non-null field present in every
/// left tuple and absent from every right tuple (and symmetrically for
/// `rf`), and all key values on both sides must share one kind.  Under
/// those conditions the equi conjunct evaluates to a definite T/F on
/// every pair — never `unk`.
pub fn key_pair_usable(left: &MultiSet, right: &MultiSet, lf: &str, rf: &str) -> bool {
    fn side_ok(s: &MultiSet, have: &str, lack: &str, kind: &mut Option<&'static str>) -> bool {
        for (v, _) in s.iter_counted() {
            let Value::Tuple(t) = v else { return false };
            let Ok(k) = t.extract(have) else { return false };
            if k.is_null() || t.extract(lack).is_ok() {
                return false;
            }
            match kind {
                Some(kd) => {
                    if *kd != k.kind_name() {
                        return false;
                    }
                }
                None => *kind = Some(k.kind_name()),
            }
        }
        true
    }
    let mut kind = None;
    side_ok(left, lf, rf, &mut kind) && side_ok(right, rf, lf, &mut kind)
}

/// The residual predicate of a hash equi-join: every conjunct except the
/// first equi conjunct over exactly the key pair `{lf, rf}` (in either
/// orientation), in original left-to-right order.  `None` when the
/// predicate has no such conjunct — the kernel must then refuse.
pub fn split_residual<'p>(pred: &'p Pred, lf: &str, rf: &str) -> Option<Vec<&'p Pred>> {
    let mut residual = Vec::new();
    let mut found = false;
    for c in conjuncts(pred) {
        if !found {
            if let Pred::Cmp(l, CmpOp::Eq, r) = c {
                if let (Expr::TupExtract(li, f), Expr::TupExtract(ri, g)) = (&**l, &**r) {
                    if matches!(&**li, Expr::Input(0))
                        && matches!(&**ri, Expr::Input(0))
                        && ((f == lf && g == rf) || (f == rf && g == lf))
                    {
                        found = true;
                        continue;
                    }
                }
            }
        }
        residual.push(c);
    }
    found.then_some(residual)
}

/// The hash equi-join kernel.  Returns `Ok(None)` when the runtime guard
/// refuses the key pair (caller falls back to the nested loop), otherwise
/// the join output, occurrence-exact with the nested loop's.
///
/// See the module docs for the soundness argument; the guard re-checks
/// [`key_pair_usable`] on the materialised inputs (both orientations), so
/// correctness never depends on the statistics that suggested the kernel.
pub fn hash_equi_join(
    sa: &MultiSet,
    sb: &MultiSet,
    lf: &str,
    rf: &str,
    pred: &Pred,
    env: &mut Vec<Value>,
    ctx: &mut EvalCtx,
) -> EvalResult<Option<MultiSet>> {
    let (lf, rf) = if key_pair_usable(sa, sb, lf, rf) {
        (lf, rf)
    } else if key_pair_usable(sa, sb, rf, lf) {
        (rf, lf)
    } else {
        return Ok(None);
    };
    hash_join_core(sa, sb, lf, rf, pred, env, ctx)
}

/// The hash equi-join kernel *without* the per-occurrence
/// [`key_pair_usable`] guard scan — for joins whose key side conditions
/// the property analysis proved statically (see
/// [`PhysicalPlan::elided_guards`]).  The checks the guard performed per
/// row and the elision substitutes proofs for:
///
/// * tuple-ness, key presence, key non-nullness — still checked
///   gracefully (they fall out of the extraction the kernel does
///   anyway): a violation abandons the attempt, restores the counters it
///   touched, and reports `None` so the caller falls back to the nested
///   loop.
/// * key-field *disjointness* (`lf` absent on the right, `rf` on the
///   left, so `TUP_CAT` renames nothing) — rests entirely on the static
///   proof; the elision pass only fires on sides with exhaustive
///   attribute maps proving absence, and the soundness battery checks
///   exactly this class of claim against executed results.
pub fn hash_equi_join_unguarded(
    sa: &MultiSet,
    sb: &MultiSet,
    lf: &str,
    rf: &str,
    pred: &Pred,
    env: &mut Vec<Value>,
    ctx: &mut EvalCtx,
) -> EvalResult<Option<MultiSet>> {
    hash_join_core(sa, sb, lf, rf, pred, env, ctx)
}

/// Shared build/probe core.  Key extraction is graceful: any violation of
/// the key side conditions aborts with `Ok(None)` after restoring the
/// counters, so a guarded caller (which pre-verified and can never abort
/// here) and an unguarded caller observe identical counter behaviour to
/// the nested-loop fallback.
fn hash_join_core(
    sa: &MultiSet,
    sb: &MultiSet,
    lf: &str,
    rf: &str,
    pred: &Pred,
    env: &mut Vec<Value>,
    ctx: &mut EvalCtx,
) -> EvalResult<Option<MultiSet>> {
    let Some(residual) = split_residual(pred, lf, rf) else {
        return Ok(None);
    };
    let saved_counters = ctx.counters;
    // Build: bucket the right side by key value (BTreeMap for declarative
    // determinism; the output multiset is order-insensitive anyway).
    let mut buckets: BTreeMap<&Value, Vec<(&Value, u64)>> = BTreeMap::new();
    for (y, cy) in sb.iter_counted() {
        let Some(t) = y.as_tuple() else {
            return Ok(None);
        };
        let Ok(k) = t.extract(rf) else {
            return Ok(None);
        };
        if k.is_null() {
            return Ok(None);
        }
        buckets.entry(k).or_default().push((y, cy));
    }
    // Probe: only in-bucket pairs are ever formed.
    let mut out = MultiSet::new();
    for (x, cx) in sa.iter_counted() {
        let Some(tx) = x.as_tuple() else {
            ctx.counters = saved_counters;
            return Ok(None);
        };
        let Ok(k) = tx.extract(lf) else {
            ctx.counters = saved_counters;
            return Ok(None);
        };
        if k.is_null() {
            ctx.counters = saved_counters;
            return Ok(None);
        }
        let Some(matches) = buckets.get(k) else {
            continue;
        };
        for &(y, cy) in matches {
            let ty = y.as_tuple().expect("build side admitted tuples only");
            ctx.counters.occurrences_scanned += cx * cy;
            let joined = Value::Tuple(tx.cat(ty));
            env.push(joined.clone());
            // In-bucket the equi conjunct is T, and T ∧ x = x: the full
            // predicate's truth equals the residual conjunction's,
            // evaluated with the serial left-to-right F short-circuit.
            let mut t = Ok(Truth::T);
            for c in &residual {
                match eval_pred(c, env, ctx) {
                    Ok(Truth::F) => {
                        t = Ok(Truth::F);
                        break;
                    }
                    Ok(Truth::U) => t = Ok(Truth::U),
                    Ok(Truth::T) => {}
                    Err(e) => {
                        t = Err(e);
                        break;
                    }
                }
            }
            env.pop();
            match t? {
                Truth::T => out.insert_n(joined, cx * cy),
                Truth::U => out.insert_n(Value::unk(), cx * cy),
                Truth::F => {}
            }
        }
    }
    Ok(Some(out))
}

/// Evaluate a lowered plan: install the plan's kernel table in the
/// context, run the ordinary serial evaluator over the (unchanged)
/// logical tree, and clear the table again.  Counters, tracing, and error
/// behaviour are the evaluator's own; only annotated `rel_join` nodes
/// take the hash kernel, and only when the runtime guard admits it.
pub fn evaluate_physical(plan: &PhysicalPlan, ctx: &mut EvalCtx) -> EvalResult<Value> {
    let table = plan.kernel_table();
    let chunks = plan.chunk_table();
    let saved = ctx.join_kernels.take();
    let saved_chunks = ctx.chunk_kernels.take();
    if !table.is_empty() {
        ctx.join_kernels = Some(table);
    }
    if !chunks.is_empty() {
        ctx.chunk_kernels = Some(chunks);
    }
    let out = evaluate(&plan.logical, ctx);
    ctx.join_kernels = saved;
    ctx.chunk_kernels = saved_chunks;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Pred;
    use excess_types::{ObjectStore, TypeRegistry};
    use std::collections::HashMap as Cat;

    fn tuples_lr() -> (Value, Value) {
        let mut l = MultiSet::new();
        let mut r = MultiSet::new();
        for i in 0..12i32 {
            l.insert(Value::tuple([
                ("a", Value::int(i)),
                ("k", Value::int(i % 4)),
            ]));
            r.insert(Value::tuple([
                ("j", Value::int(i % 4)),
                ("b", Value::str(format!("v{i}"))),
            ]));
        }
        (Value::Set(l), Value::Set(r))
    }

    fn join_plan(pred: Pred) -> Expr {
        Expr::named("L").rel_join(Expr::named("R"), pred)
    }

    fn eq_pred() -> Pred {
        Pred::cmp(
            Expr::input().extract("k"),
            CmpOp::Eq,
            Expr::input().extract("j"),
        )
    }

    fn run(plan: &Expr, cat: &Cat<String, Value>) -> (Value, crate::counters::Counters) {
        let reg = TypeRegistry::new();
        let mut store = ObjectStore::new();
        let mut ctx = EvalCtx::new(&reg, &mut store, cat);
        let v = evaluate(plan, &mut ctx).expect("eval");
        (v, ctx.counters)
    }

    fn run_physical(
        pp: &PhysicalPlan,
        cat: &Cat<String, Value>,
    ) -> (Value, crate::counters::Counters) {
        let reg = TypeRegistry::new();
        let mut store = ObjectStore::new();
        let mut ctx = EvalCtx::new(&reg, &mut store, cat);
        let v = evaluate_physical(pp, &mut ctx).expect("eval physical");
        (v, ctx.counters)
    }

    fn hash_join_plan(plan: &Expr, lf: &str, rf: &str) -> PhysicalPlan {
        let mut choices = BTreeMap::new();
        choices.insert(
            Vec::new(),
            PhysChoice {
                op: PhysOp::HashEquiJoin {
                    left_key: lf.into(),
                    right_key: rf.into(),
                },
                why: "test".into(),
                est_rows: None,
            },
        );
        PhysicalPlan {
            logical: plan.clone(),
            choices,
            elided_guards: BTreeSet::new(),
        }
    }

    #[test]
    fn candidates_and_key_guard_agree_with_data() {
        let (l, r) = tuples_lr();
        let (Value::Set(sl), Value::Set(sr)) = (&l, &r) else {
            unreachable!()
        };
        let cands = equi_key_candidates(&eq_pred());
        assert_eq!(cands, vec![("k".to_string(), "j".to_string())]);
        // The guard is orientation-sensitive: the data says k lives on
        // the left and j on the right.
        assert!(key_pair_usable(sl, sr, "k", "j"));
        assert!(!key_pair_usable(sl, sr, "j", "k"));
    }

    #[test]
    fn hash_kernel_matches_nested_loop_with_fewer_comparisons() {
        let (l, r) = tuples_lr();
        let mut cat = Cat::new();
        cat.insert("L".to_string(), l);
        cat.insert("R".to_string(), r);
        let plan = join_plan(eq_pred());
        let (vn, cn) = run(&plan, &cat);
        let pp = hash_join_plan(&plan, "k", "j");
        let (vh, ch) = run_physical(&pp, &cat);
        assert_eq!(vn, vh, "hash kernel must be occurrence-exact");
        assert!(
            ch.comparisons < cn.comparisons,
            "hash {} vs nested {}",
            ch.comparisons,
            cn.comparisons
        );
        // The pure equi-join's comparisons collapse to zero: the equi
        // conjunct is never evaluated and there is no residual.
        assert_eq!(ch.comparisons, 0);
    }

    #[test]
    fn residual_conjuncts_are_still_evaluated() {
        let (l, r) = tuples_lr();
        let mut cat = Cat::new();
        cat.insert("L".to_string(), l);
        cat.insert("R".to_string(), r);
        let pred = Pred::And(
            Box::new(eq_pred()),
            Box::new(Pred::cmp(
                Expr::input().extract("a"),
                CmpOp::Ge,
                Expr::int(6),
            )),
        );
        let plan = join_plan(pred);
        let (vn, cn) = run(&plan, &cat);
        let pp = hash_join_plan(&plan, "k", "j");
        let (vh, ch) = run_physical(&pp, &cat);
        assert_eq!(vn, vh);
        // Residual runs once per in-bucket pair (12·3 = 36), strictly
        // fewer than the nested loop's 2 comparisons × 144 pairs.
        assert!(ch.comparisons < cn.comparisons);
        assert_eq!(ch.comparisons, 36);
    }

    #[test]
    fn null_keys_fail_the_guard_and_fall_back() {
        let mut l = MultiSet::new();
        l.insert(Value::tuple([("k", Value::dne())]));
        l.insert(Value::tuple([("k", Value::int(1))]));
        let mut r = MultiSet::new();
        r.insert(Value::tuple([("j", Value::int(1))]));
        let mut cat = Cat::new();
        cat.insert("L".to_string(), Value::Set(l));
        cat.insert("R".to_string(), Value::Set(r));
        let plan = join_plan(eq_pred());
        let (vn, cn) = run(&plan, &cat);
        let pp = hash_join_plan(&plan, "k", "j");
        let (vh, ch) = run_physical(&pp, &cat);
        // Guard refuses (null key on the left); kernel falls back to the
        // nested loop, so values AND counters match serial exactly.
        assert_eq!(vn, vh);
        assert_eq!(cn, ch);
    }

    #[test]
    fn mixed_key_kinds_fail_the_guard() {
        // Kinds are the value *sorts* (scalar / tuple / set / …): a key
        // that is a scalar on some rows and a tuple on others cannot
        // drive a hash kernel.
        let mut l = MultiSet::new();
        l.insert(Value::tuple([("k", Value::int(1))]));
        l.insert(Value::tuple([("k", Value::tuple([("x", Value::int(2))]))]));
        let mut r = MultiSet::new();
        r.insert(Value::tuple([("j", Value::int(1))]));
        assert!(!key_pair_usable(&l, &r, "k", "j"));
        // A key absent from one left row likewise fails.
        let mut l2 = MultiSet::new();
        l2.insert(Value::tuple([("k", Value::int(1))]));
        l2.insert(Value::tuple([("other", Value::int(2))]));
        assert!(!key_pair_usable(&l2, &r, "k", "j"));
    }

    #[test]
    fn split_residual_requires_the_equi_conjunct() {
        let p = Pred::cmp(Expr::input().extract("a"), CmpOp::Ge, Expr::int(0));
        assert!(split_residual(&p, "k", "j").is_none());
        let with_eq = Pred::And(Box::new(eq_pred()), Box::new(p.clone()));
        let residual = split_residual(&with_eq, "k", "j").expect("equi conjunct present");
        assert_eq!(residual.len(), 1);
        assert_eq!(residual[0], &p);
    }

    #[test]
    fn render_annotates_choices() {
        let plan = join_plan(eq_pred());
        let pp = hash_join_plan(&plan, "k", "j");
        let s = pp.render();
        assert!(s.contains("HashEquiJoin[k = j]"), "{s}");
        assert!(s.contains('L') && s.contains('R'), "{s}");
    }

    #[test]
    fn spine_stops_at_binders() {
        let g = Expr::named("L").group_by(Expr::input().extract("k"));
        assert_eq!(spine_children(&g), vec![0]);
        let j = join_plan(eq_pred());
        assert_eq!(spine_children(&j), vec![0, 1]);
        assert_eq!(spine_children(&Expr::named("L")), Vec::<usize>::new());
    }
}
