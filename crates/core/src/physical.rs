//! The physical-plan layer: what the algebra *computes* vs how an engine
//! *realizes* it.
//!
//! A [`PhysicalPlan`] is an overlay on a logical [`Expr`]: the logical
//! tree is kept verbatim (so rewrite soundness, rendering, profiling, and
//! canonical-form arguments all keep working on the same object), and a
//! map from node paths to [`PhysChoice`]s records which physical operator
//! implements each *spine* node — `HashEquiJoin` vs `NestedLoopJoin` for
//! `rel_join`, `HashProbeApply` for a correlated `SET_APPLY` join,
//! `HashGroup` for `GRP`, `HashDistinct` for `DE`,
//! `Scan` / `IndexScan` for named objects, and `PassThrough` for
//! everything else.  Because the logical tree is untouched,
//! `eval(lower(p))` operates on a plan that is structurally equal to `p`;
//! only the *kernel* used at annotated joins differs, and each kernel is
//! proven occurrence-exact below (the hash kernels share one build/probe
//! core and one key guard).
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
//! apply.  The kernel runs on untraced evaluations only; a traced one, a
//! guard refusal or any error takes the unfused path, so counters,
//! profiles and errors are the unfused plan's.
//!
//! # The hash probe kernel of a correlated join
//!
//! A two-variable `retrieve … where l = r` that the translator cannot
//! give a `rel_join` — the sides' attribute names clash, or they range
//! over ref extents, or a variable is used whole — arrives as
//! `SET_APPLY[SET_APPLY[COMP[l = r ∧ …](f)](B)](A)` ([`correlated_join`]),
//! which evaluated as written runs `B` and |`B`| `COMP`s once per
//! occurrence of `A`.  A node chosen
//! [`PhysOp::HashProbeApply`] instead runs, in the evaluator's
//! `SET_APPLY` arm on the materialised `A`:
//!
//! * **Build** (never reached when `A` is empty): with the first outer
//!   element bound — the lowering checked that `B` does not read it —
//!   evaluate `B` once and bucket it by the inner key; evaluate the outer
//!   key on every distinct element of `A`.  A non-multiset `B` (nulls
//!   included), a null or mixed-kind key on either side, or an error in
//!   `B` or a key abandons the attempt: counters restored, and the
//!   ordinary loop runs and produces whatever the specification says,
//!   that error included — statistics can make the plan slower, never
//!   wrong.  The build is not traced, so an abandoned attempt leaves no
//!   frames behind and profiles keep telescoping.
//! * **Probe**: per outer occurrence, build the inner multiset exactly as
//!   the inner `SET_APPLY` would, but over the occurrence's bucket only,
//!   with the *unchanged* `COMP[θ](f)` — residual conjuncts, `unk`
//!   results and multiplicities are the evaluator's own.  Every skipped
//!   pair has two non-null, unequal keys of one kind, so its first
//!   conjunct is `F`, θ is `F` without evaluating another conjunct, and
//!   the `COMP` is the `dne` a multiset drops.
//! * **What is skipped with the pair** is `f`, which `COMP` evaluates
//!   before θ: its counters are not charged and an error in it is not
//!   raised (the caveat above, for `f` instead of a residual conjunct).
//!   That is also why the lowering refuses a `COMP` that mints OIDs.
//!
//! Kernels reach the evaluator through a pointer-keyed table installed in
//! [`EvalCtx`] by [`evaluate_physical`]: choices are resolved to the
//! addresses of the plan's own `rel_join` and `SET_APPLY` nodes, so the
//! unchanged recursive evaluator — including its trace bracketing — picks
//! a hash kernel up at exactly the annotated nodes (and the applies over
//! them) and nowhere else.
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

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

use crate::error::EvalResult;
use crate::eval::{eval, eval_pred, evaluate, traced, EvalCtx};
use crate::expr::{CmpOp, Expr, Pred};
use crate::ops::predicate::{compare, Truth};
use crate::profile::NodePath;
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
    /// A correlated join
    /// `SET_APPLY[SET_APPLY[COMP[l = r ∧ …](f)](B)](A)`: evaluate `B`
    /// once, bucket it by `inner_key`, and run the unchanged `COMP` only
    /// on the bucket `outer_key` selects (see [`correlated_join`]).
    HashProbeApply {
        /// `l`, with `INPUT` bound to the element of `A`.
        outer_key: Expr,
        /// `r`, with `INPUT` bound to the element of `B`.
        inner_key: Expr,
    },
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
            PhysOp::HashProbeApply {
                outer_key,
                inner_key,
            } => write!(f, "HashProbeApply[outer {outer_key} = inner {inner_key}]"),
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
#[derive(Debug, Clone)]
pub(crate) enum RowKernel {
    /// [`hash_equi_join`] on a `rel_join` node.
    HashJoin { left_key: String, right_key: String },
    /// [`hash_probe_apply`] on a correlated `SET_APPLY` join.
    ProbeApply { outer_key: Expr, inner_key: Expr },
    /// [`hash_join_apply`] on a `SET_APPLY` whose input is a `rel_join`
    /// chosen [`PhysOp::HashEquiJoin`] and whose body and residual
    /// compile to a [`PairRead`].
    JoinApply {
        left_key: String,
        right_key: String,
        pair: Arc<PairRead>,
    },
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
        Some(PairRead { fields, residual })
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
            node = node.children().into_iter().nth(i)?;
        }
        Some(node)
    }

    /// Resolve every row-kernel choice to the address of its node — the
    /// pointer-keyed kernel table [`evaluate_physical`] installs in the
    /// evaluation context.  A choice whose node does not have the shape
    /// (or, for the correlated join, the key pair) it names is dropped.
    /// A hash-joined `rel_join` that is the input of an unfiltered
    /// `SET_APPLY` whose body and residual compile to a [`PairRead`] also
    /// gives that apply the fused [`RowKernel::JoinApply`], unless the
    /// apply has a kernel of its own.
    fn kernel_table(&self) -> HashMap<usize, RowKernel> {
        let mut table = HashMap::new();
        for (path, choice) in &self.choices {
            if let (
                PhysOp::HashEquiJoin {
                    left_key,
                    right_key,
                },
                Some((0, parent)),
            ) = (&choice.op, path.split_last())
            {
                if let Some(
                    apply @ Expr::SetApply {
                        input,
                        body,
                        only_types: None,
                    },
                ) = self.node_at(parent)
                {
                    if let Some(pair) = match &**input {
                        Expr::RelJoin { pred, .. } => {
                            PairRead::compile(body, pred, left_key, right_key)
                        }
                        _ => None,
                    } {
                        table
                            .entry(apply as *const Expr as usize)
                            .or_insert_with(|| RowKernel::JoinApply {
                                left_key: left_key.clone(),
                                right_key: right_key.clone(),
                                pair: Arc::new(pair),
                            });
                    }
                }
            }
            let Some(node) = self.node_at(path) else {
                continue;
            };
            let kernel = match (&choice.op, node) {
                (
                    PhysOp::HashEquiJoin {
                        left_key,
                        right_key,
                    },
                    Expr::RelJoin { .. },
                ) => RowKernel::HashJoin {
                    left_key: left_key.clone(),
                    right_key: right_key.clone(),
                },
                (
                    PhysOp::HashProbeApply {
                        outer_key,
                        inner_key,
                    },
                    _,
                ) => match correlated_join(node) {
                    Some(cj) if cj.outer_key == *outer_key && cj.inner_key == *inner_key => {
                        RowKernel::ProbeApply {
                            outer_key: cj.outer_key,
                            inner_key: cj.inner_key,
                        }
                    }
                    _ => continue,
                },
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

/// The translator's correlated join, taken apart: a two-variable
/// `retrieve … where l = r` without product typing (clashing attribute
/// names, ref extents, a variable used whole) arrives as
/// `SET_APPLY[SET_APPLY[COMP[l = r ∧ …](f)](B)](A)`, not as a
/// `rel_join`, whose `TUP_CAT` would rename a clash.
pub struct CorrelatedJoin<'e> {
    /// `B`, the inner apply's input (evaluated under `A`'s binder).
    pub inner_input: &'e Expr,
    /// `COMP[θ](f)`, the inner apply's body.
    pub comp: &'e Expr,
    /// The equi conjunct's outer operand, re-based so `INPUT` is the
    /// element of `A`.
    pub outer_key: Expr,
    /// The equi conjunct's inner operand, re-based so `INPUT` is the
    /// element of `B`.
    pub inner_key: Expr,
}

/// Match `e` against the correlated-join shape: two nested unfiltered
/// `SET_APPLY`s around a `COMP` whose *first* conjunct is `l = r` with one
/// operand reading the outer element and not the inner one, the other the
/// reverse, and neither the `COMP` input (either orientation).  Static
/// shape only: whether `B` is closed and OID-free is the lowering's
/// question, whether the keys hash is the kernel's.
pub fn correlated_join(e: &Expr) -> Option<CorrelatedJoin<'_>> {
    let Expr::SetApply {
        body,
        only_types: None,
        ..
    } = e
    else {
        return None;
    };
    let Expr::SetApply {
        input: inner_input,
        body: comp,
        only_types: None,
    } = &**body
    else {
        return None;
    };
    let Expr::Comp { pred, .. } = &**comp else {
        return None;
    };
    let Pred::Cmp(l, CmpOp::Eq, r) = conjuncts(pred).first()? else {
        return None;
    };
    // Inside θ: INPUT is the COMP input, INPUT^1 the inner element,
    // INPUT^2 the outer one.
    let reads_only = |k: &Expr, own: usize, other: usize| {
        k.mentions_input(own) && !k.mentions_input(other) && !k.mentions_input(0)
    };
    let (outer, inner) = if reads_only(l, 2, 1) && reads_only(r, 1, 2) {
        (l, r)
    } else if reads_only(r, 2, 1) && reads_only(l, 1, 2) {
        (r, l)
    } else {
        return None;
    };
    Some(CorrelatedJoin {
        inner_input,
        comp,
        outer_key: outer.shift_inputs(0, -2),
        inner_key: inner.shift_inputs(0, -1),
    })
}

/// The key guard both hash kernels apply while they bucket and probe: a
/// key is admitted when it is non-null and of the one kind every key
/// admitted before it had.  Then the equi conjunct is a definite T/F on
/// every pair — never `unk` — and separating buckets skips exactly the
/// pairs the nested loop's predicate would reject.
#[derive(Default)]
struct KeyGuard(Option<&'static str>);

impl KeyGuard {
    fn admits(&mut self, k: &Value) -> bool {
        !k.is_null() && *self.0.get_or_insert(k.kind_name()) == k.kind_name()
    }
}

/// One join side bucketed by key, in the side's own iteration order
/// (`BTreeMap` for declarative determinism; the output multisets are
/// order-insensitive anyway), with the [`KeyGuard`] the probing side's
/// keys must pass too.
struct Buckets<'v, K> {
    by_key: BTreeMap<K, Vec<(&'v Value, u64)>>,
    guard: KeyGuard,
}

impl<'v, K: Ord + Borrow<Value>> Buckets<'v, K> {
    /// `None` as soon as one element has no admissible key.
    fn build(side: &'v MultiSet, mut key_of: impl FnMut(&'v Value) -> Option<K>) -> Option<Self> {
        let mut buckets = Buckets {
            by_key: BTreeMap::new(),
            guard: KeyGuard::default(),
        };
        for (v, n) in side.iter_counted() {
            let k = key_of(v).filter(|k| buckets.guard.admits(k.borrow()))?;
            buckets.by_key.entry(k).or_default().push((v, n));
        }
        Some(buckets)
    }

    /// The built elements whose key equals `k` (an admitted probe key).
    fn matching(&self, k: &K) -> &[(&'v Value, u64)] {
        self.by_key.get::<K>(k).map_or(&[], Vec::as_slice)
    }
}

/// Can the field pair `(lf, rf)` soundly key a hash join of these
/// materialised inputs?  `lf` must name a non-null field present in every
/// left tuple and absent from every right tuple (and symmetrically for
/// `rf`), and all key values on both sides must share one kind.  Under
/// those conditions the equi conjunct evaluates to a definite T/F on
/// every pair — never `unk`.
pub fn key_pair_usable(left: &MultiSet, right: &MultiSet, lf: &str, rf: &str) -> bool {
    fn side_ok(s: &MultiSet, have: &str, lack: &str, guard: &mut KeyGuard) -> bool {
        s.iter_counted().all(|(v, _)| {
            let Value::Tuple(t) = v else { return false };
            let Ok(k) = t.extract(have) else { return false };
            guard.admits(k) && t.extract(lack).is_err()
        })
    }
    let mut guard = KeyGuard::default();
    side_ok(left, lf, rf, &mut guard) && side_ok(right, rf, lf, &mut guard)
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
    let Some((lf, rf)) = usable_orientation(sa, sb, lf, rf) else {
        return Ok(None);
    };
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

/// The key pair in the orientation [`key_pair_usable`] admits, if either.
fn usable_orientation<'k>(
    sa: &MultiSet,
    sb: &MultiSet,
    lf: &'k str,
    rf: &'k str,
) -> Option<(&'k str, &'k str)> {
    if key_pair_usable(sa, sb, lf, rf) {
        Some((lf, rf))
    } else if key_pair_usable(sa, sb, rf, lf) {
        Some((rf, lf))
    } else {
        None
    }
}

/// `rel_join`'s use of the shared build/probe ([`Buckets`]), once
/// [`hash_equi_join`]'s guard has admitted the key pair: every in-bucket
/// pair goes to `pair` with its multiplicity, in probe order, after one
/// scan per occurrence is charged.  Key extraction is still graceful: a
/// violation — or `pair` answering `None` — aborts with `Ok(None)` after
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
    fn key_of<'v>(v: &'v Value, f: &str) -> Option<&'v Value> {
        v.as_tuple()?.extract(f).ok()
    }
    // Build: bucket the right side by key value.
    let Some(mut buckets) = Buckets::build(sb, |y| key_of(y, rf)) else {
        return Ok(None);
    };
    let saved_counters = ctx.counters;
    // Probe: only in-bucket pairs are ever formed.
    for (x, cx) in sa.iter_counted() {
        let Some(k) = key_of(x, lf).filter(|k| buckets.guard.admits(k)) else {
            ctx.counters = saved_counters;
            return Ok(None);
        };
        let tx = x.as_tuple().expect("a key was extracted from it");
        for &(y, cy) in buckets.matching(&k) {
            let ty = y.as_tuple().expect("build side admitted tuples only");
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
/// kernel behind [`RowKernel::JoinApply`], run by the evaluator's
/// `SET_APPLY` arm on the materialised join inputs.  No joined row is
/// built: each in-bucket pair's residual and, where it is `T`, its output
/// tuple are read off `(x, y)` by `pair`, and `f` — a projection —
/// charges nothing.  A `U` pair runs `f` on `unk` (`π(unk) = unk`, and the
/// spelled form's tuple of `unk`s).  Each row is weighted by its
/// multiplicity, so the result is the apply's over the join multiset, and
/// the counters are the two operators' own: the join's, plus per
/// occurrence one scan and `f`'s work (charged `n` times for a row of
/// multiplicity `n`).
///
/// `None` — the guard refusing, a pair read that would be an error, or
/// any error, raised here in another order than the unfused plan would
/// raise it — restores the counters and leaves the unfused path to
/// compute the answer, that error included.  Untraced runs only: a
/// traced run takes the unfused path, whose counters these are.
#[allow(clippy::too_many_arguments)]
pub(crate) fn hash_join_apply(
    sa: &MultiSet,
    sb: &MultiSet,
    lf: &str,
    rf: &str,
    body: &Expr,
    pair: &PairRead,
    env: &mut Vec<Value>,
    ctx: &mut EvalCtx,
) -> Option<MultiSet> {
    let (lf, rf) = usable_orientation(sa, sb, lf, rf)?;
    let saved_counters = ctx.counters;
    let mut out = MultiSet::new();
    let joined = hash_join_core(sa, sb, lf, rf, ctx, |x, y, n, ctx| {
        let row = match pair.truth(x, y, ctx) {
            None => return Ok(None),
            Some(Truth::F) => return Ok(Some(())),
            Some(Truth::T) => match pair.row(x, y) {
                Some(row) => row,
                None => return Ok(None),
            },
            Some(Truth::U) => {
                let before = ctx.counters;
                env.push(Value::unk());
                let r = eval(body, env, ctx);
                env.pop();
                let once = ctx.counters - before;
                ctx.counters += once.times(n - 1);
                r?
            }
        };
        ctx.counters.occurrences_scanned += n;
        out.insert_n(row, n);
        Ok(Some(()))
    });
    match joined {
        Ok(Some(())) => Some(out),
        _ => {
            ctx.counters = saved_counters;
            None
        }
    }
}

/// The correlated join's use of the shared build/probe ([`Buckets`]): the
/// kernel behind [`PhysOp::HashProbeApply`], run by the evaluator's
/// `SET_APPLY` arm on the materialised outer input of a node
/// [`correlated_join`] matched.  `Ok(None)` abandons the attempt with the
/// counters restored; see the module docs for the soundness argument.
pub(crate) fn hash_probe_apply(
    outer: &MultiSet,
    inner_apply: &Expr,
    outer_key: &Expr,
    inner_key: &Expr,
    env: &mut Vec<Value>,
    ctx: &mut EvalCtx,
) -> EvalResult<Option<MultiSet>> {
    let Expr::SetApply {
        input: inner_input,
        body: comp,
        only_types: None,
    } = inner_apply
    else {
        return Ok(None);
    };
    let Some(first) = outer.iter_counted().next() else {
        return Ok(Some(MultiSet::new()));
    };
    let saved_counters = ctx.counters;
    let trace = ctx.trace.take();
    let key_under = |bound: &Value, key: &Expr, env: &mut Vec<Value>, ctx: &mut EvalCtx| {
        env.push(bound.clone());
        let k = eval(key, env, ctx);
        env.pop();
        k.ok()
    };
    env.push(first.0.clone());
    let built = eval(inner_input, env, ctx);
    let mut buckets = match &built {
        Ok(Value::Set(b)) => Buckets::build(b, |y| key_under(y, inner_key, env, ctx)),
        _ => None,
    };
    env.pop();
    let keys: Option<Vec<Value>> = buckets.as_mut().and_then(|buckets| {
        outer
            .iter_counted()
            .map(|(x, _)| key_under(x, outer_key, env, ctx).filter(|k| buckets.guard.admits(k)))
            .collect()
    });
    ctx.trace = trace;
    let (Some(buckets), Some(keys)) = (buckets, keys) else {
        ctx.counters = saved_counters;
        return Ok(None);
    };

    let mut out = MultiSet::new();
    for ((x, cx), k) in outer.iter_counted().zip(&keys) {
        let bucket = buckets.matching(k);
        for _ in 0..cx {
            ctx.counters.occurrences_scanned += 1;
            env.push(x.clone());
            let inner = traced(inner_apply, ctx, |ctx| {
                let mut inner = MultiSet::new();
                for &(y, cy) in bucket {
                    for _ in 0..cy {
                        ctx.counters.occurrences_scanned += 1;
                        env.push(y.clone());
                        let r = eval(comp, env, ctx);
                        env.pop();
                        inner.insert(r?);
                    }
                }
                Ok(Value::Set(inner))
            });
            env.pop();
            out.insert(inner?);
        }
    }
    Ok(Some(out))
}

/// Evaluate a lowered plan: install the plan's kernel table in the
/// context, run the ordinary serial evaluator over the (unchanged)
/// logical tree, and clear the table again.  Counters, tracing, and error
/// behaviour are the evaluator's own; only annotated `rel_join` and
/// correlated `SET_APPLY` nodes, and the applies fused over a hashed
/// `rel_join`, take a hash kernel, and only when its runtime guard admits
/// it.
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

    /// `SET_APPLY[SET_APPLY[COMP[θ]((a: INPUT^1.a, b: INPUT.b))](R)](L)`:
    /// inside θ, `INPUT^2` is the element of `L` and `INPUT^1` that of `R`.
    fn correlated(theta: Pred) -> Expr {
        let pair = Expr::input_at(1)
            .extract("a")
            .make_tup("a")
            .tup_cat(Expr::input().extract("b").make_tup("b"));
        Expr::named("L").set_apply(Expr::named("R").set_apply(pair.comp(theta)))
    }

    fn outer_eq_inner() -> Pred {
        Pred::cmp(
            Expr::input_at(2).extract("k"),
            CmpOp::Eq,
            Expr::input_at(1).extract("j"),
        )
    }

    fn probe_plan(plan: &Expr) -> PhysicalPlan {
        let cj = correlated_join(plan).expect("the correlated shape");
        let mut pp = PhysicalPlan::passthrough(plan.clone());
        pp.choices.insert(
            Vec::new(),
            PhysChoice {
                op: PhysOp::HashProbeApply {
                    outer_key: cj.outer_key,
                    inner_key: cj.inner_key,
                },
                why: "test".into(),
                est_rows: None,
            },
        );
        pp
    }

    #[test]
    fn correlated_join_rebases_the_keys_in_either_orientation() {
        let k = Expr::input().extract("k");
        let j = Expr::input().extract("j");
        let plan = correlated(outer_eq_inner());
        let cj = correlated_join(&plan).unwrap();
        assert_eq!((&cj.outer_key, &cj.inner_key), (&k, &j));
        assert_eq!(cj.inner_input, &Expr::named("R"));
        let flipped = Pred::cmp(
            Expr::input_at(1).extract("j"),
            CmpOp::Eq,
            Expr::input_at(2).extract("k"),
        );
        let plan = correlated(flipped);
        let cj = correlated_join(&plan).unwrap();
        assert_eq!((&cj.outer_key, &cj.inner_key), (&k, &j));

        // Not the shape: a constant operand, both operands on one binder,
        // an operand reading the COMP input, an equi conjunct that is not
        // the first, a type-filtered apply.
        let lit = Pred::cmp(Expr::input_at(2).extract("k"), CmpOp::Eq, Expr::int(2));
        let one_side = Pred::cmp(
            Expr::input_at(1).extract("j"),
            CmpOp::Eq,
            Expr::input_at(1).extract("b"),
        );
        let comp_input = Pred::cmp(
            Expr::input_at(2).extract("k"),
            CmpOp::Eq,
            Expr::input().extract("b"),
        );
        for theta in [lit.clone(), one_side, comp_input, lit.and(outer_eq_inner())] {
            assert!(
                correlated_join(&correlated(theta.clone())).is_none(),
                "{theta}"
            );
        }
        let Expr::SetApply { input, body, .. } = correlated(outer_eq_inner()) else {
            unreachable!()
        };
        let filtered = Expr::SetApply {
            input,
            body,
            only_types: Some(vec!["T".into()]),
        };
        assert!(correlated_join(&filtered).is_none());
    }

    #[test]
    fn probe_kernel_matches_the_nested_applies_and_scans_the_inner_input_once() {
        let (l, r) = tuples_lr();
        let mut cat = Cat::new();
        cat.insert("L".to_string(), l);
        cat.insert("R".to_string(), r);
        let residual = Pred::cmp(Expr::input_at(2).extract("a"), CmpOp::Ge, Expr::int(6));
        let plan = correlated(outer_eq_inner().and(residual));
        let (vn, cn) = run(&plan, &cat);
        let (vh, ch) = run_physical(&probe_plan(&plan), &cat);
        assert_eq!(vn, vh, "probe kernel must be occurrence-exact");
        // 12 outer × 12 inner pairs, 3 per bucket: the loop compares every
        // pair (the residual on the 36 the equi conjunct admits), the
        // kernel only those 36, both conjuncts.
        assert_eq!(cn.comparisons, 144 + 36);
        assert_eq!(ch.comparisons, 36 + 36);
        assert_eq!(cn.occurrences_scanned, 12 + 144);
        assert_eq!(ch.occurrences_scanned, 12 + 36);
        assert_eq!((cn.named_object_scans, ch.named_object_scans), (13, 2));
    }

    #[test]
    fn probe_kernel_abandons_to_the_nested_loop_with_its_counters() {
        let row = |k: Value| Value::tuple([("a", Value::int(1)), ("k", k)]);
        let inner = |j: Value| Value::tuple([("j", j), ("b", Value::int(7))]);
        let plan = correlated(outer_eq_inner());
        let pp = probe_plan(&plan);
        let ints = |xs: [i32; 3]| xs.map(Value::int).to_vec();
        let cases: Vec<(&str, Vec<Value>, Value)> = vec![
            (
                "dne outer key",
                vec![Value::dne(), Value::int(1)],
                Value::set(ints([1, 1, 2]).into_iter().map(inner)),
            ),
            (
                "unk inner key",
                ints([1, 2, 2]),
                Value::set([Value::unk(), Value::int(2)].map(inner)),
            ),
            (
                "mixed-kind keys",
                vec![Value::int(1), Value::tuple([("x", Value::int(1))])],
                Value::set(ints([1, 1, 2]).into_iter().map(inner)),
            ),
            ("inner input is a null", ints([1, 2, 3]), Value::unk()),
            (
                "inner input is not a multiset",
                ints([1, 2, 3]),
                Value::int(3),
            ),
        ];
        for (what, outer_keys, r) in cases {
            let mut cat = Cat::new();
            cat.insert("L".to_string(), Value::set(outer_keys.into_iter().map(row)));
            cat.insert("R".to_string(), r);
            let reg = TypeRegistry::new();
            let (mut sa, mut sb) = (ObjectStore::new(), ObjectStore::new());
            let mut nested = EvalCtx::new(&reg, &mut sa, &cat);
            let mut probed = EvalCtx::new(&reg, &mut sb, &cat);
            let (vn, vp) = (
                evaluate(&plan, &mut nested),
                evaluate_physical(&pp, &mut probed),
            );
            match (vn, vp) {
                (Ok(vn), Ok(vp)) => assert_eq!(vn, vp, "{what}"),
                (Err(en), Err(ep)) => assert_eq!(en.to_string(), ep.to_string(), "{what}"),
                (vn, vp) => panic!("{what}: nested {vn:?} vs probe {vp:?}"),
            }
            assert_eq!(nested.counters, probed.counters, "{what}");
        }
    }

    #[test]
    fn an_empty_outer_input_never_evaluates_the_inner_one() {
        let mut cat = Cat::new();
        cat.insert("L".to_string(), Value::set([]));
        let plan = correlated(outer_eq_inner());
        // `R` is not even in the catalog: evaluating it would be an error.
        let (v, c) = run_physical(&probe_plan(&plan), &cat);
        assert_eq!(v, Value::set([]));
        assert_eq!(c.named_object_scans, 1);
    }

    #[test]
    fn a_probe_choice_naming_other_keys_than_the_predicate_is_dropped() {
        let plan = correlated(outer_eq_inner());
        let mut pp = probe_plan(&plan);
        pp.choices.get_mut(&Vec::new()).unwrap().op = PhysOp::HashProbeApply {
            outer_key: Expr::input().extract("a"),
            inner_key: Expr::input().extract("b"),
        };
        assert!(pp.kernel_table().is_empty());
        assert_eq!(probe_plan(&plan).kernel_table().len(), 1);
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

    /// Evaluate `pp` untraced (the fused kernel) and traced (the join,
    /// then the apply), with the naive evaluator's value beside them.
    fn fused_and_unfused(
        pp: &PhysicalPlan,
        cat: &Cat<String, Value>,
    ) -> [(EvalResult<Value>, crate::counters::Counters); 3] {
        let reg = TypeRegistry::new();
        let run = |physical: bool, traced: bool| {
            let mut store = ObjectStore::new();
            let mut ctx = EvalCtx::new(&reg, &mut store, cat);
            if traced {
                ctx.enable_tracing();
            }
            let v = if physical {
                evaluate_physical(pp, &mut ctx)
            } else {
                evaluate(&pp.logical, &mut ctx)
            };
            (v, ctx.counters)
        };
        [run(true, false), run(true, true), run(false, false)]
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
        cat.insert("L".to_string(), l);
        let pp = fused_plan(eq_pred(), Expr::input().project(["a", "missing"]));
        assert_eq!(pp.kernel_table().len(), 2, "the join and the apply over it");
        let [(fused, cf), (unfused, cu), _] = fused_and_unfused(&pp, &cat);
        assert_eq!(
            fused.unwrap_err().to_string(),
            unfused.unwrap_err().to_string()
        );
        assert_eq!(cf, cu);
    }

    #[test]
    fn pair_reads_compile_for_projections_and_field_comparisons_only() {
        let pair_of = |pred: Pred, body: Expr| {
            let pp = fused_plan(pred, body);
            let apply = &pp.logical as *const Expr as usize;
            match pp.kernel_table().remove(&apply) {
                Some(RowKernel::JoinApply { pair, .. }) => Some(pair),
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
