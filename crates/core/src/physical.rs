//! The physical-plan layer: what the algebra *computes* vs how an engine
//! *realizes* it.
//!
//! A [`PhysicalPlan`] is an overlay on a logical [`Expr`]: the logical
//! tree is kept verbatim (so rewrite soundness, rendering, profiling, and
//! canonical-form arguments all keep working on the same object), and a
//! map from node paths to [`PhysChoice`]s records which physical operator
//! implements each *spine* node — `HashEquiJoin` vs `NestedLoopJoin` for
//! `rel_join`, `HashGroup` for `GRP`, `HashDistinct` for `DE`,
//! `Scan` / `IndexScan` for named objects, and `PassThrough` for
//! everything else.  Because the logical tree is untouched,
//! `eval(lower(p))` operates on a plan that is structurally equal to `p`;
//! only the *kernel* used at annotated joins differs, and each kernel is
//! proven occurrence-exact below (the join and the fused join-apply share
//! one build/probe core and one key guard).
//!
//! # The hash equi-join kernel
//!
//! `hash_equi_join` buckets the right side by its key field, probes with
//! each left occurrence, and evaluates only the *residual* predicate (the
//! `COMP` conjuncts minus the equi conjunct) on in-bucket pairs:
//!
//! * **Side conditions** (checked at run time on the materialised inputs,
//!   each key once, before the first pair is formed): every element of
//!   both sides is a tuple, the key field is present and non-null on its
//!   own side and absent from the other, and all key values share one
//!   kind.  Then the equi conjunct evaluates to a definite T/F on every
//!   pair — never `unk` — so the pairs a bucket separation skips are
//!   exactly the pairs the nested loop's predicate would reject (Kleene:
//!   `F ∧ x = F` regardless of `x`).  Null (`dne`/`unk`) keys fail the
//!   guard and fall back to the nested loop, preserving three-valued
//!   semantics unconditionally.
//! * **Residual handling**: in-bucket pairs have the equi conjunct equal
//!   to `T`, and `T ∧ x = x`, so the full predicate's truth value equals
//!   the residual conjunction's, evaluated left-to-right with the serial
//!   evaluator's own `F` short-circuit.
//! * **Counters**: the kernel never evaluates the equi conjunct, so it
//!   charges strictly fewer `comparisons` than the nested loop whenever
//!   any cross-bucket pair exists; `occurrences_scanned` is charged per
//!   probed pair only — the counters report work actually done.
//!
//! One behavioural caveat: a runtime *error* inside a residual conjunct of a
//! cross-bucket pair (which the nested loop would hit before rejecting
//! the pair) is skipped, because the pair is never formed.
//!
//! # The fused join-apply
//!
//! A `SET_APPLY[f]` whose input is a hash-joined `rel_join` — how a
//! served two-variable join arrives when product typing holds — need not
//! build the join's multiset only to iterate it.  When the apply is
//! unfiltered, `f` is a projection and the residual compares fields and
//! constants, `hash_join_apply` runs the same build/probe and builds no
//! joined row at all: both are read off the pair `(x, y)` (see
//! `PairRead`), and the counters are those the two operators would
//! charge.  Any other body or residual runs unfused: the join, then the
//! apply.  A guard refusal, or a pair read that would be an error, takes
//! the unfused path, so counters and errors are the unfused plan's.
//! Traced or not, the same kernel runs: the `rel_join` keeps its own
//! profile frame, charged the join's work, and the apply is charged its
//! own.
//!
//! Kernels reach the evaluator through a pointer-keyed table installed in
//! [`EvalCtx`] by [`evaluate_physical`]: choices are resolved to the
//! addresses of the plan's own `rel_join` nodes and the `SET_APPLY`s over
//! them, so the unchanged recursive evaluator — including its trace
//! bracketing — picks a hash kernel up at exactly the annotated nodes (and
//! the applies over them) and nowhere else.
//!
//! # Example
//!
//! The predicate helpers the kernels are built from are plain functions:
//!
//! ```
//! use excess_core::expr::{CmpOp, Expr, Pred};
//! use excess_core::physical::{conjuncts, equi_key_candidates};
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
//! ```

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

use crate::error::EvalResult;
use crate::eval::{eval_pred, evaluate, EvalCtx};
use crate::expr::{CmpOp, Expr, Pred};
use crate::ops::predicate::{compare, Truth};
use crate::profile::{path_string, NodePath, Profile};
use crate::render::op_label;
use excess_types::{MultiSet, Tuple, Value};

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
    /// `GRP` by hashing the grouping key (what the evaluator's `BTreeMap`
    /// grouping already does).
    HashGroup,
    /// `DE` by hash-bucketing occurrences (the count-map representation).
    HashDistinct,
    /// The logical operator runs as itself; no physical freedom exercised.
    PassThrough,
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
#[derive(Clone, PartialEq)]
pub struct PhysicalPlan {
    /// The logical plan, structurally untouched by lowering.
    pub logical: Expr,
    /// Physical operator per annotated node path.
    pub choices: BTreeMap<NodePath, PhysChoice>,
}

/// The rendering a plan hash is FNV-1a of.  It keeps an empty
/// `elided_guards` slot: the struct once carried a set of join guards
/// proven redundant (deleted — no served plan ever had one), and the slot
/// keeps every published plan hash unchanged.
impl fmt::Debug for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PhysicalPlan")
            .field("logical", &self.logical)
            .field("choices", &self.choices)
            .field("elided_guards", &BTreeMap::<NodePath, ()>::new())
            .finish()
    }
}

/// A row kernel resolved to one node of the plan being evaluated (the
/// entries of [`EvalCtx`]'s pointer-keyed kernel table).
#[derive(Debug)]
pub(crate) enum RowKernel {
    /// `hash_equi_join` on a `rel_join` node.
    HashJoin { left_key: String, right_key: String },
    /// [`hash_join_apply`] on a `SET_APPLY` whose input is a `rel_join`
    /// chosen [`PhysOp::HashEquiJoin`] and whose body and residual
    /// compile to a [`PairRead`].
    JoinApply(PairRead),
}

/// A fused join-apply's body and residual compiled to read an in-bucket
/// pair `(x, y)` instead of `TUP_CAT(x, y)`: for a field name `f` without
/// a `'`, `TUP_EXTRACT[f](TUP_CAT(x, y))` is `x.f` when `x` has `f` and
/// `y.f` otherwise, because `TUP_CAT` renames only right-hand fields and
/// every renamed field ends in `'`.  The side is chosen per pair: rows of
/// one extent may carry different fields (a subtype's tuple extends its
/// supertype's).
#[derive(Debug)]
pub(crate) struct PairRead {
    /// The join's key fields, as its choice names them.
    keys: (String, String),
    /// The body's projected fields, in output order.
    fields: Vec<String>,
    /// The residual conjuncts, left to right.
    residual: Vec<(PairOperand, CmpOp, PairOperand)>,
}

/// One operand of a compiled residual comparison.
#[derive(Debug)]
enum PairOperand {
    /// `TUP_EXTRACT[f](INPUT)`.
    Field(String),
    /// A constant.
    Const(Value),
}

impl PairRead {
    /// Compile `body` and the residual of `pred` under the key pair
    /// `{lf, rf}`, or `None` when either has another shape: the body must
    /// be `π[L](INPUT)` or its spelled form ([`Expr::projected_fields`]),
    /// each residual conjunct a comparison of `TUP_EXTRACT[f](INPUT)`s and
    /// constants, and every field name free of `'`.
    fn compile(body: &Expr, pred: &Pred, lf: &str, rf: &str) -> Option<Self> {
        let prime_free = |f: &String| !f.contains('\'');
        let fields = body
            .projected_fields()
            .filter(|fields| fields.iter().all(prime_free))?;
        let operand = |e: &Expr| match e {
            Expr::TupExtract(input, f) if matches!(**input, Expr::Input(0)) && prime_free(f) => {
                Some(PairOperand::Field(f.clone()))
            }
            Expr::Const(v) => Some(PairOperand::Const(v.clone())),
            _ => None,
        };
        let residual = split_residual(pred, lf, rf)?
            .into_iter()
            .map(|c| match c {
                Pred::Cmp(l, op, r) => Some((operand(l)?, *op, operand(r)?)),
                _ => None,
            })
            .collect::<Option<_>>()?;
        Some(PairRead {
            keys: (lf.to_string(), rf.to_string()),
            fields,
            residual,
        })
    }

    /// `TUP_EXTRACT[f](TUP_CAT(x, y))`, or `None` where that is an error.
    fn field<'v>(x: &'v Tuple, y: &'v Tuple, f: &str) -> Option<&'v Value> {
        x.get(f).or_else(|| y.get(f))
    }

    /// The residual's truth on the pair, as [`residual_truth`] finds it
    /// on `TUP_CAT(x, y)` — left to right, stopping at the first `F`, one
    /// comparison charged per conjunct evaluated — or `None` where that
    /// raises an error.
    fn truth(&self, x: &Tuple, y: &Tuple, ctx: &mut EvalCtx) -> Option<Truth> {
        fn value<'v>(o: &'v PairOperand, x: &'v Tuple, y: &'v Tuple) -> Option<&'v Value> {
            match o {
                PairOperand::Field(f) => PairRead::field(x, y, f),
                PairOperand::Const(v) => Some(v),
            }
        }
        let mut t = Truth::T;
        for (l, op, r) in &self.residual {
            let (l, r) = (value(l, x, y)?, value(r, x, y)?);
            ctx.counters.comparisons += 1;
            match compare(l, *op, r)? {
                Truth::F => return Some(Truth::F),
                Truth::U => t = Truth::U,
                Truth::T => {}
            }
        }
        Some(t)
    }

    /// The body's value on `TUP_CAT(x, y)`, or `None` where that is an
    /// error.
    fn row(&self, x: &Tuple, y: &Tuple) -> Option<Value> {
        let fields = self
            .fields
            .iter()
            .map(|f| Some((f.clone(), Self::field(x, y, f)?.clone())))
            .collect::<Option<Vec<_>>>()?;
        Some(Value::Tuple(Tuple::from_fields(fields)))
    }
}

impl PhysicalPlan {
    /// A plan with no choices: every node passes through to the logical
    /// interpreter.
    pub fn passthrough(logical: Expr) -> Self {
        PhysicalPlan {
            logical,
            choices: BTreeMap::new(),
        }
    }

    /// The logical node a choice path points at, if the path is valid.
    pub fn node_at(&self, path: &[usize]) -> Option<&Expr> {
        let mut node = &self.logical;
        for &i in path {
            node = node.child(i)?;
        }
        Some(node)
    }

    /// Resolve every row-kernel choice to the address of its node — the
    /// pointer-keyed kernel table [`evaluate_physical`] installs in the
    /// evaluation context.  A choice whose node does not have the shape it
    /// names is dropped.  A hash-joined `rel_join` that is the input of an
    /// unfiltered `SET_APPLY` whose body and residual compile to a
    /// [`PairRead`] also gives that apply the fused [`RowKernel::JoinApply`].
    fn kernel_table(&self) -> HashMap<usize, Arc<RowKernel>> {
        let mut table = HashMap::new();
        for (path, choice) in &self.choices {
            let PhysOp::HashEquiJoin {
                left_key,
                right_key,
            } = &choice.op
            else {
                continue;
            };
            let Some(join @ Expr::RelJoin { pred, .. }) = self.node_at(path) else {
                continue;
            };
            table.insert(
                join as *const Expr as usize,
                Arc::new(RowKernel::HashJoin {
                    left_key: left_key.clone(),
                    right_key: right_key.clone(),
                }),
            );
            let Some((0, parent)) = path.split_last() else {
                continue;
            };
            if let Some(
                apply @ Expr::SetApply {
                    body,
                    only_types: None,
                    ..
                },
            ) = self.node_at(parent)
            {
                if let Some(pair) = PairRead::compile(body, pred, left_key, right_key) {
                    let fused = Arc::new(RowKernel::JoinApply(pair));
                    table.insert(apply as *const Expr as usize, fused);
                }
            }
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

    /// The `physical plan:` block: one line per chosen kernel that is
    /// more than a pass-through, with the lowering's estimated rows next
    /// to the rows `profile` measured at that node (`—` when the profile
    /// has no node at the path) and why the kernel was chosen.  Empty when
    /// every node passes through.
    pub fn render_choices(&self, profile: &Profile) -> String {
        let mut out = String::new();
        for (path, choice) in &self.choices {
            if matches!(choice.op, PhysOp::PassThrough) {
                continue;
            }
            if out.is_empty() {
                out.push_str("physical plan:\n");
            }
            let actual = profile
                .node(path)
                .map(|n| n.rows_out.to_string())
                .unwrap_or_else(|| "—".to_string());
            let est = choice
                .est_rows
                .map(|r| format!("{r:.0}"))
                .unwrap_or_else(|| "?".to_string());
            out.push_str(&format!(
                "  {} {}  est rows={est} actual rows={actual}",
                path_string(path),
                choice.op,
            ));
            if !choice.why.is_empty() {
                out.push_str(&format!("  ({})", choice.why));
            }
            out.push('\n');
        }
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
/// recurses into.  Binder bodies and predicate
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
/// the data (see `hash_equi_join`).
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

/// The key guard a hash join applies to every key of both sides: a key
/// is admitted when it is non-null and of the one kind every key admitted
/// before it had.  Then the equi conjunct is a definite T/F on every pair
/// — never `unk` — and separating buckets skips exactly the pairs the
/// nested loop's predicate would reject.
#[derive(Default)]
struct KeyGuard(Option<&'static str>);

impl KeyGuard {
    fn admits(&mut self, k: &Value) -> bool {
        !k.is_null() && *self.0.get_or_insert(k.kind_name()) == k.kind_name()
    }

    /// `v` and its key `have`, when `v` is a tuple holding `have`, the key
    /// is admitted, and `v` lacks `lack` (the other side's key field).
    fn keyed<'v>(
        &mut self,
        v: &'v Value,
        have: &str,
        lack: &str,
    ) -> Option<(&'v Tuple, &'v Value)> {
        let t = v.as_tuple()?;
        let k = t.get(have).filter(|k| self.admits(k))?;
        t.get(lack).is_none().then_some((t, k))
    }
}

/// The build side of a hash join bucketed by key, in its own iteration
/// order (`BTreeMap` for declarative determinism; the output multisets
/// are order-insensitive anyway).
struct Buckets<'v>(BTreeMap<&'v Value, Vec<(&'v Tuple, u64)>>);

impl<'v> Buckets<'v> {
    /// Bucket `build` by `bf`, then check every element of `probe` for
    /// `pf`: `None` as soon as one element of either side fails
    /// [`KeyGuard::keyed`] (one guard over both sides, each key guarded
    /// once), so no pair is formed before the whole join is admitted.
    fn build(probe: &MultiSet, build: &'v MultiSet, pf: &str, bf: &str) -> Option<Self> {
        let mut guard = KeyGuard::default();
        let mut by_key = BTreeMap::<_, Vec<_>>::new();
        for (v, n) in build.iter_counted() {
            let (t, k) = guard.keyed(v, bf, pf)?;
            by_key.entry(k).or_default().push((t, n));
        }
        probe
            .iter_counted()
            .all(|(v, _)| guard.keyed(v, pf, bf).is_some())
            .then_some(Buckets(by_key))
    }

    /// The built elements whose key equals `k` (an admitted probe key).
    fn matching(&self, k: &Value) -> &[(&'v Tuple, u64)] {
        self.0.get(k).map_or(&[], Vec::as_slice)
    }
}

/// The residual predicate of a hash equi-join: every conjunct except the
/// first equi conjunct over exactly the key pair `{lf, rf}` (in either
/// orientation), in original left-to-right order.  `None` when the
/// predicate has no such conjunct — the kernel must then refuse.
fn split_residual<'p>(pred: &'p Pred, lf: &str, rf: &str) -> Option<Vec<&'p Pred>> {
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
/// See the module docs for the soundness argument; the guard checks the
/// side conditions on the materialised inputs (both orientations), so
/// correctness never depends on the statistics that suggested the kernel.
pub(crate) fn hash_equi_join(
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
    let mut out = MultiSet::new();
    let joined = hash_join_core(sa, sb, lf, rf, ctx, |x, y, n, ctx| {
        if let Some(row) = cat_row(x, y, &residual, env, ctx)? {
            out.insert_n(row, n);
        }
        Ok(Some(()))
    })?;
    Ok(joined.map(|()| out))
}

/// The build/probe the join and the fused join-apply share ([`Buckets`]):
/// the right side is bucketed by `rf` and the left side checked for `lf` —
/// or, when the guard refuses that orientation, by `lf` and for `rf` — and
/// only then is every in-bucket pair handed to `pair` with its
/// multiplicity, in probe order, after one scan per occurrence is charged.
/// A refusal, or `pair` answering `None`, aborts with `Ok(None)` after
/// restoring the counters, leaving the unhashed path to run as if never
/// attempted.
fn hash_join_core(
    sa: &MultiSet,
    sb: &MultiSet,
    lf: &str,
    rf: &str,
    ctx: &mut EvalCtx,
    mut pair: impl FnMut(&Tuple, &Tuple, u64, &mut EvalCtx) -> EvalResult<Option<()>>,
) -> EvalResult<Option<()>> {
    let Some((buckets, lf)) = Buckets::build(sa, sb, lf, rf)
        .map(|b| (b, lf))
        .or_else(|| Buckets::build(sa, sb, rf, lf).map(|b| (b, rf)))
    else {
        return Ok(None);
    };
    let saved_counters = ctx.counters;
    // Probe: only in-bucket pairs are ever formed.
    for (x, cx) in sa.iter_counted() {
        let tx = x.as_tuple().expect("the guard admitted tuples only");
        let k = tx.get(lf).expect("the guard admitted keyed tuples only");
        for &(ty, cy) in buckets.matching(k) {
            ctx.counters.occurrences_scanned += cx * cy;
            if pair(tx, ty, cx * cy, ctx)?.is_none() {
                ctx.counters = saved_counters;
                return Ok(None);
            }
        }
    }
    Ok(Some(()))
}

/// The nested loop's output row for an in-bucket pair: `TUP_CAT(x, y)`
/// where the residual is `T`, `unk` where it is `U`, nothing where `F`.
fn cat_row(
    x: &Tuple,
    y: &Tuple,
    residual: &[&Pred],
    env: &mut Vec<Value>,
    ctx: &mut EvalCtx,
) -> EvalResult<Option<Value>> {
    env.push(Value::Tuple(x.cat(y)));
    let t = residual_truth(residual, env, ctx);
    let joined = env.pop().expect("pushed above");
    Ok(match t? {
        Truth::T => Some(joined),
        Truth::U => Some(Value::unk()),
        Truth::F => None,
    })
}

/// In-bucket the equi conjunct is `T`, and `T ∧ x = x`: the full
/// predicate's truth equals the residual conjunction's, evaluated with
/// the serial left-to-right `F` short-circuit.
fn residual_truth(
    residual: &[&Pred],
    env: &mut Vec<Value>,
    ctx: &mut EvalCtx,
) -> EvalResult<Truth> {
    let mut t = Truth::T;
    for c in residual {
        match eval_pred(c, env, ctx)? {
            Truth::F => return Ok(Truth::F),
            Truth::U => t = Truth::U,
            Truth::T => {}
        }
    }
    Ok(t)
}

/// `SET_APPLY[f](rel_join[θ](A, B))` without the join's output: the
/// kernel behind [`RowKernel::JoinApply`], run on the materialised join
/// inputs.  No joined row is built: each in-bucket pair's residual and,
/// where it is `T`, its output tuple are read off `(x, y)` by `pair`, and
/// `f` — a projection — charges nothing.  A `U` pair's row is `unk`, and
/// only counted.  Each row is weighted by its multiplicity.  `Some` holds
/// the apply's output on the `T` rows and the number of `unk` rows, which
/// the evaluator's `SET_APPLY` runs `f` on (`π(unk) = unk`, and the
/// spelled form's tuple of `unk`s).  The counters charged here are the
/// join's alone; the evaluator charges the apply its own: one scan per
/// occurrence and `f`'s work.
///
/// `None` — the guard refusing, or a pair read that would be an error —
/// restores the counters and leaves the unfused path to compute the
/// answer, that error included.
pub(crate) fn hash_join_apply(
    sa: &MultiSet,
    sb: &MultiSet,
    pair: &PairRead,
    ctx: &mut EvalCtx,
) -> Option<(MultiSet, u64)> {
    let (mut out, mut unk) = (MultiSet::new(), 0);
    let (lf, rf) = &pair.keys;
    let joined = hash_join_core(sa, sb, lf, rf, ctx, |x, y, n, ctx| {
        match pair.truth(x, y, ctx) {
            None => return Ok(None),
            Some(Truth::F) => {}
            Some(Truth::T) => match pair.row(x, y) {
                Some(row) => out.insert_n(row, n),
                None => return Ok(None),
            },
            Some(Truth::U) => unk += n,
        }
        Ok(Some(()))
    });
    matches!(joined, Ok(Some(()))).then_some((out, unk))
}

/// Evaluate a lowered plan: install the plan's kernel table in the
/// context, run the ordinary serial evaluator over the (unchanged)
/// logical tree, and clear the table again.  Counters, tracing, and error
/// behaviour are the evaluator's own; only annotated `rel_join` nodes, and
/// the applies fused over them, take a hash kernel, and only when its
/// runtime guard admits it.
pub fn evaluate_physical(plan: &PhysicalPlan, ctx: &mut EvalCtx) -> EvalResult<Value> {
    let table = plan.kernel_table();
    let saved = ctx.row_kernels.take();
    if !table.is_empty() {
        ctx.row_kernels = Some(table);
    }
    let out = evaluate(&plan.logical, ctx);
    ctx.row_kernels = saved;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counters;
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
        }
    }

    /// `hash_equi_join` on `l`, `r` under the keys `(lf, rf)` and the
    /// predicate `k = j`: `None` where the guard refuses.
    fn hashed(l: &MultiSet, r: &MultiSet, lf: &str, rf: &str) -> Option<MultiSet> {
        let (reg, cat) = (TypeRegistry::new(), Cat::new());
        let mut store = ObjectStore::new();
        let mut ctx = EvalCtx::new(&reg, &mut store, &cat);
        let out = hash_equi_join(l, r, lf, rf, &eq_pred(), &mut Vec::new(), &mut ctx).unwrap();
        if out.is_none() {
            assert_eq!(ctx.counters, Default::default(), "a refusal charged work");
        }
        out
    }

    #[test]
    fn candidates_and_key_guard_agree_with_data() {
        let (l, r) = tuples_lr();
        let (Value::Set(sl), Value::Set(sr)) = (&l, &r) else {
            unreachable!()
        };
        let cands = equi_key_candidates(&eq_pred());
        assert_eq!(cands, vec![("k".to_string(), "j".to_string())]);
        // The data says k lives on the left and j on the right; a choice
        // naming them the other way round is flipped by the guard.
        let joined = hashed(sl, sr, "k", "j").expect("k on the left, j on the right");
        assert_eq!(joined.len(), 36);
        assert_eq!(hashed(sl, sr, "j", "k"), Some(joined));
        // A key field on both sides fits neither orientation.
        let mut both = sr.clone();
        both.insert(Value::tuple([("j", Value::int(1)), ("k", Value::int(1))]));
        assert_eq!(hashed(sl, &both, "k", "j"), None);
        assert_eq!(hashed(sl, &both, "j", "k"), None);
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
        // A left row carrying the right key too (`TUP_CAT` would rename it).
        let mut wrong_side = MultiSet::new();
        wrong_side.insert(Value::tuple([("k", Value::int(1))]));
        wrong_side.insert(Value::tuple([("k", Value::int(2)), ("j", Value::int(2))]));
        // A residual that fails on every pair: the guard must refuse before
        // any pair is formed, so the error is the nested loop's own.
        let failing = eq_pred().and(Pred::cmp(
            Expr::input().extract("missing"),
            CmpOp::Eq,
            Expr::int(1),
        ));
        for (left, pred) in [
            (&l, eq_pred()),
            (&wrong_side, eq_pred()),
            (&l, failing.clone()),
            (&wrong_side, failing),
        ] {
            let mut cat = Cat::new();
            cat.insert("L".to_string(), Value::Set(left.clone()));
            cat.insert("R".to_string(), Value::Set(r.clone()));
            let plan = join_plan(pred);
            // Either orientation of the choice: the guard refuses both, the
            // kernel falls back to the nested loop, and values (or errors)
            // AND counters match serial exactly.
            for (lf, rf) in [("k", "j"), ("j", "k")] {
                let reg = TypeRegistry::new();
                let (mut sn, mut sh) = (ObjectStore::new(), ObjectStore::new());
                let mut nested = EvalCtx::new(&reg, &mut sn, &cat);
                let mut hashed = EvalCtx::new(&reg, &mut sh, &cat);
                let vn = evaluate(&plan, &mut nested).map_err(|e| e.to_string());
                let pp = hash_join_plan(&plan, lf, rf);
                let vh = evaluate_physical(&pp, &mut hashed).map_err(|e| e.to_string());
                assert_eq!(vn, vh, "{plan} under {lf} = {rf}");
                assert_eq!(nested.counters, hashed.counters, "{plan} under {lf} = {rf}");
            }
        }
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
        // A key absent from one left row likewise fails, and so does a
        // right row carrying the left key.
        let mut l2 = MultiSet::new();
        l2.insert(Value::tuple([("k", Value::int(1))]));
        l2.insert(Value::tuple([("other", Value::int(2))]));
        let mut r2 = r.clone();
        r2.insert(Value::tuple([("j", Value::int(2)), ("k", Value::int(2))]));
        let mut ok = MultiSet::new();
        ok.insert(Value::tuple([("k", Value::int(1))]));
        for (left, right) in [(&l, &r), (&l2, &r), (&ok, &r2)] {
            // Neither the choice's orientation nor its reverse is admitted.
            assert_eq!(hashed(left, right, "k", "j"), None, "{left} ⋈ {right}");
            assert_eq!(hashed(left, right, "j", "k"), None, "{left} ⋈ {right}");
        }
        assert!(hashed(&ok, &r, "j", "k").is_some());
    }

    /// `SET_APPLY[body](rel_join[pred](L, R))` with the join hashed on
    /// `k = j`: the shape whose apply the kernel table fuses.
    fn fused_plan(pred: Pred, body: Expr) -> PhysicalPlan {
        let plan = join_plan(pred).set_apply(body);
        let mut pp = hash_join_plan(&plan, "k", "j");
        let choice = pp.choices.remove(&Vec::new()).expect("the root choice");
        pp.choices.insert(vec![0], choice);
        pp
    }

    /// Evaluate `pp` (the fused kernel), the join then the apply — the
    /// hash-join-only plan, then the apply over its rows — and the naive
    /// evaluator.  The fused run is made traced too: the same value or
    /// error and counters, and a profile that telescopes over nodes of
    /// the plan, the `rel_join` among them.
    fn fused_and_unfused(
        pp: &PhysicalPlan,
        cat: &Cat<String, Value>,
    ) -> [(EvalResult<Value>, Counters); 3] {
        let reg = TypeRegistry::new();
        let run = |plan: &PhysicalPlan, traced: bool| {
            let mut store = ObjectStore::new();
            let mut ctx = EvalCtx::new(&reg, &mut store, cat);
            if traced {
                ctx.enable_tracing();
            }
            let v = evaluate_physical(plan, &mut ctx);
            (v, ctx.counters, ctx.take_profile())
        };
        let (fused, counters, _) = run(pp, false);
        let (traced, traced_counters, profile) = run(pp, true);
        assert_eq!(
            fused.as_ref().map_err(ToString::to_string),
            traced.as_ref().map_err(ToString::to_string)
        );
        assert_eq!(counters, traced_counters);
        let profile = profile.expect("tracing was enabled");
        assert_eq!(profile.sum_of_self_counters(), profile.total);
        assert_eq!(profile.total, traced_counters);
        for n in &profile.nodes {
            let node = pp.node_at(&n.path).expect("a path of the plan");
            assert_eq!(n.label, op_label(node), "{}", path_string(&n.path));
        }
        assert_eq!(profile.node(&[0]).expect("the join's frame").calls, 1);

        let Expr::SetApply { input, body, .. } = &pp.logical else {
            unreachable!("a fused plan is an apply over its join")
        };
        let join = hash_join_plan(input, "k", "j");
        let unfused = match run(&join, false) {
            (Ok(rows), join_counters, _) => {
                let apply = PhysicalPlan::passthrough(Expr::lit(rows).set_apply((**body).clone()));
                let (out, apply_counters, _) = run(&apply, false);
                (out, join_counters + apply_counters)
            }
            (Err(e), join_counters, _) => (Err(e), join_counters),
        };
        let naive = run(&PhysicalPlan::passthrough(pp.logical.clone()), false);
        [(fused, counters), unfused, (naive.0, naive.1)]
    }

    #[test]
    fn a_fused_join_apply_is_the_join_then_the_apply() {
        let (l, r) = tuples_lr();
        let mut cat = Cat::new();
        cat.insert("L".to_string(), l);
        cat.insert("R".to_string(), r);
        let pp = fused_plan(eq_pred(), Expr::input().project(["a", "b"]));
        assert_eq!(pp.kernel_table().len(), 2, "the join and the apply over it");
        let [(fused, cf), (unfused, cu), (naive, _)] = fused_and_unfused(&pp, &cat);
        assert_eq!(fused.unwrap(), naive.as_ref().unwrap().clone());
        assert_eq!(unfused.unwrap(), naive.unwrap());
        // 36 in-bucket pairs, each a join row and an apply occurrence.
        assert_eq!(cf, cu);
        assert_eq!((cf.occurrences_scanned, cf.comparisons), (36 + 36, 0));
    }

    #[test]
    fn unk_rows_and_duplicates_go_through_the_fused_body() {
        // Every third left row has an `unk` residual attribute, and each
        // element occurs twice on the left and three times on the right.
        let mut l = MultiSet::new();
        let mut r = MultiSet::new();
        for i in 0..12i32 {
            let a = if i % 3 == 0 {
                Value::unk()
            } else {
                Value::int(i)
            };
            l.insert_n(Value::tuple([("a", a), ("k", Value::int(i % 4))]), 2);
            r.insert_n(
                Value::tuple([("j", Value::int(i % 4)), ("b", Value::int(i))]),
                3,
            );
        }
        let mut cat = Cat::new();
        cat.insert("L".to_string(), Value::Set(l));
        cat.insert("R".to_string(), Value::Set(r));
        let residual = Pred::cmp(
            Expr::input().extract("a"),
            CmpOp::Lt,
            Expr::input().extract("b"),
        );
        let pp = fused_plan(eq_pred().and(residual), Expr::input().project(["a", "b"]));
        assert_eq!(pp.kernel_table().len(), 2, "the join and the apply over it");
        let [(fused, cf), (unfused, cu), (naive, _)] = fused_and_unfused(&pp, &cat);
        let fused = fused.unwrap();
        assert_eq!(fused, naive.unwrap());
        assert_eq!(fused, unfused.unwrap());
        assert!(fused.as_set().unwrap().count(&Value::unk()) > 0);
        assert_eq!(cf, cu);
    }

    #[test]
    fn a_refused_or_failing_fused_kernel_leaves_the_unfused_answer() {
        let mut cat = Cat::new();
        let (l, r) = tuples_lr();
        cat.insert("R".to_string(), r);
        // A `dne` key: the guard refuses, and the nested loop runs.
        let mut nulls = l.as_set().unwrap().clone();
        nulls.insert(Value::tuple([("a", Value::int(99)), ("k", Value::dne())]));
        cat.insert("L".to_string(), Value::Set(nulls));
        let pp = fused_plan(eq_pred(), Expr::input().project(["a", "b"]));
        let [(fused, cf), (unfused, cu), (naive, cn)] = fused_and_unfused(&pp, &cat);
        let naive = naive.unwrap();
        assert_eq!(fused.unwrap(), naive);
        assert_eq!(unfused.unwrap(), naive);
        assert_eq!((cf, cu), (cn, cn));
        // A body that fails: the unfused plan's error, with its counters.
        cat.insert("L".to_string(), l.clone());
        let pp = fused_plan(eq_pred(), Expr::input().project(["a", "missing"]));
        assert_eq!(pp.kernel_table().len(), 2, "the join and the apply over it");
        let [(fused, cf), (unfused, cu), _] = fused_and_unfused(&pp, &cat);
        assert_eq!(
            fused.unwrap_err().to_string(),
            unfused.unwrap_err().to_string()
        );
        assert_eq!(cf, cu);
        // A `U` row, then a row whose projected `x` is on neither side: the
        // kernel gives up after `U` pairs, and the traced profile is the
        // unfused apply's alone — one body call per occurrence it scanned,
        // none left over from the kernel.
        let l = MultiSet::from_occurrences([
            Value::tuple([
                ("a", Value::int(0)),
                ("c", Value::unk()),
                ("k", Value::int(0)),
            ]),
            Value::tuple([
                ("a", Value::int(5)),
                ("c", Value::int(1)),
                ("k", Value::int(1)),
            ]),
        ]);
        cat.insert("L".to_string(), Value::Set(l));
        let c_lt_9 = Pred::cmp(Expr::input().extract("c"), CmpOp::Lt, Expr::int(9));
        let pp = fused_plan(eq_pred().and(c_lt_9), Expr::input().project(["x"]));
        assert_eq!(pp.kernel_table().len(), 2, "the join and the apply over it");
        let [(fused, cf), (unfused, cu), (naive, _)] = fused_and_unfused(&pp, &cat);
        let err = fused.unwrap_err().to_string();
        assert_eq!(err, unfused.unwrap_err().to_string());
        assert_eq!(err, naive.unwrap_err().to_string());
        assert_eq!(cf, cu);
        let reg = TypeRegistry::new();
        let mut store = ObjectStore::new();
        let mut ctx = EvalCtx::new(&reg, &mut store, &cat);
        ctx.enable_tracing();
        evaluate_physical(&pp, &mut ctx).unwrap_err();
        let counters = ctx.counters;
        let profile = ctx.take_profile().unwrap();
        assert_eq!(profile.sum_of_self_counters(), counters);
        let apply = profile.root().unwrap();
        let body = profile.node(&[1]).expect("the body ran unfused");
        assert_eq!(body.calls, apply.self_counters.occurrences_scanned);
    }

    #[test]
    fn pair_reads_compile_for_projections_and_field_comparisons_only() {
        let pair_of = |pred: Pred, body: Expr| {
            let pp = fused_plan(pred, body);
            let apply = &pp.logical as *const Expr as usize;
            let kernel = pp.kernel_table().remove(&apply);
            match kernel.map(|k| Arc::try_unwrap(k).expect("the table's only owner")) {
                Some(RowKernel::JoinApply(pair)) => Some(pair),
                None => None,
                Some(other) => panic!("not the fused kernel: {other:?}"),
            }
        };
        let a_ge = |c: i32| Pred::cmp(Expr::input().extract("a"), CmpOp::Ge, Expr::int(c));
        let spelled = Expr::input()
            .extract("b")
            .make_tup("b")
            .tup_cat(Expr::input().extract("a").make_tup("a"));
        let read = pair_of(eq_pred().and(a_ge(2)), spelled).expect("spelled body");
        assert_eq!(read.fields, ["b", "a"]);
        assert_eq!(read.residual.len(), 1);
        let pi = Expr::input().project(["a", "b"]);
        assert!(pair_of(eq_pred(), pi.clone()).is_some());
        // Another body, a primed name, or a residual conjunct that is not
        // a comparison of fields and constants: the apply is not fused, and
        // runs over the hash join's rows.
        let neg_a = Expr::call(crate::expr::Func::Neg, vec![Expr::input().extract("a")]);
        for (pred, body) in [
            (eq_pred(), Expr::input().extract("a")),
            (eq_pred(), Expr::input().project(["a", "k'"])),
            (
                eq_pred().and(Pred::cmp(
                    Expr::input().extract("j'"),
                    CmpOp::Eq,
                    Expr::int(1),
                )),
                pi.clone(),
            ),
            (eq_pred().and(a_ge(2).not()), pi.clone()),
            (
                eq_pred().and(Pred::cmp(neg_a, CmpOp::Lt, Expr::int(0))),
                pi.clone(),
            ),
        ] {
            assert!(
                pair_of(pred.clone(), body.clone()).is_none(),
                "{pred} {body}"
            );
        }
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
