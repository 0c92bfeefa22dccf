//! The evaluator: `Expr × environment → Value`.
//!
//! Evaluation is defined per operator exactly as in Section 3.2.  The
//! binder discipline: `SET_APPLY`, `ARR_APPLY`, and `GRP` bind `Input(0)`
//! to each occurrence/element in turn; `COMP` binds `Input(0)` to its whole
//! input inside the predicate ("this is different from its function in the
//! SET_APPLY and ARR_APPLY operators").
//!
//! ## Null flow
//!
//! Structural operators *propagate* nulls (e.g. `TUP_EXTRACT(dne) = dne`),
//! which is what makes fused bodies like Figure 10's
//! `π(COMP_{floor=5}(…))` correct: a failing COMP yields `dne`, the π
//! passes it through, and the enclosing SET_APPLY's multiset construction
//! discards it.  `SET(dne) = { }` and `ARR_APPLY` drops `dne` results for
//! the same reason (array selection is `ARR_APPLY ∘ COMP`).
//!
//! ## Cost accounting
//!
//! Evaluation is deliberately *per-occurrence*: a SET_APPLY over a multiset
//! with large cardinalities applies its body once per occurrence, not once
//! per distinct element.  This is what makes the paper's duplication-factor
//! arguments (Figures 6–8) measurable rather than hidden by memoisation.

use crate::catalog::Catalog;
use crate::counters::Counters;
use crate::error::{EvalError, EvalResult};
use crate::expr::{CmpOp, Expr, Func, Pred};
use crate::ops::predicate::Truth;
use crate::ops::{aggregate, array, predicate};
use crate::physical::{PairRead, RowKernel};
use crate::profile::{rows_of, Profile, TraceSink};
use excess_types::{domain, Date, MultiSet, ObjectStore, TypeId, TypeRegistry, Value};
use std::sync::Arc;

/// Everything evaluation needs besides the expression: the type registry,
/// the (mutable — REF mints) object store, the catalog of named objects,
/// the `today` used by the `age` virtual field, and the work counters.
pub struct EvalCtx<'a> {
    /// Named-type registry (inheritance hierarchy, full bodies).
    pub registry: &'a TypeRegistry,
    /// The object heap; mutable because `REF` creates objects.
    pub store: &'a mut ObjectStore,
    /// Named top-level objects.
    pub catalog: &'a dyn Catalog,
    /// The date `age` computes against (fixed for determinism; the paper's
    /// TR is dated December 1990).
    pub today: Date,
    /// Work counters (see [`Counters`]).
    pub counters: Counters,
    /// Opt-in per-operator profiler (see [`crate::profile`]).  `None` by
    /// default: the evaluator then pays one branch per node and nothing
    /// else.
    pub(crate) trace: Option<Box<TraceSink>>,
    /// Pointer-keyed row-kernel table, installed by
    /// [`crate::physical::evaluate_physical`]: maps the address of a
    /// `rel_join` or `SET_APPLY` node to its hash kernel, shared so that
    /// a lookup is one reference count.
    /// `None` (the default) means every join runs as a nested loop.
    pub(crate) row_kernels: Option<std::collections::HashMap<usize, Arc<RowKernel>>>,
}

impl<'a> EvalCtx<'a> {
    /// Standard context with the default `today`.
    pub fn new(
        registry: &'a TypeRegistry,
        store: &'a mut ObjectStore,
        catalog: &'a dyn Catalog,
    ) -> Self {
        EvalCtx {
            registry,
            store,
            catalog,
            today: Date::new(1990, 12, 1).expect("valid date"),
            counters: Counters::new(),
            trace: None,
            row_kernels: None,
        }
    }

    /// Turn on per-operator profiling for subsequent evaluations.  A fresh
    /// recording replaces any previous one.
    pub fn enable_tracing(&mut self) {
        self.trace = Some(Box::new(TraceSink::new()));
    }

    /// Stop tracing and return the recorded [`Profile`], or `None` when
    /// tracing was never enabled.
    pub fn take_profile(&mut self) -> Option<Profile> {
        self.trace.take().map(|sink| sink.finish())
    }
}

/// Evaluate a closed expression (no free `INPUT`s).
pub fn evaluate(e: &Expr, ctx: &mut EvalCtx) -> EvalResult<Value> {
    let mut env = Vec::new();
    eval(e, &mut env, ctx)
}

fn sort_err(op: &'static str, expected: &'static str, v: &Value) -> EvalError {
    EvalError::SortMismatch {
        op,
        expected,
        found: v.kind_name().to_string(),
    }
}

fn as_set(op: &'static str, v: Value) -> EvalResult<MultiSet> {
    match v {
        Value::Set(s) => Ok(s),
        other => Err(sort_err(op, "multiset", &other)),
    }
}

fn as_array<'v>(op: &'static str, v: &'v Value) -> EvalResult<&'v [Value]> {
    v.as_array().ok_or_else(|| sort_err(op, "array", v))
}

/// `π[fields]` of an evaluated operand: nulls pass through.
fn project(v: &Value, fields: &[String]) -> EvalResult<Value> {
    match v {
        v if v.is_null() => Ok(v.clone()),
        Value::Tuple(t) => Ok(Value::Tuple(t.project(fields)?)),
        other => Err(sort_err("π", "tuple", other)),
    }
}

/// One comparison, charged.
fn compare(l: &Value, op: CmpOp, r: &Value, counters: &mut Counters) -> EvalResult<Truth> {
    counters.comparisons += 1;
    predicate::compare(l, op, r).ok_or_else(|| EvalError::SortMismatch {
        op: "in",
        expected: "multiset right operand",
        found: r.kind_name().to_string(),
    })
}

/// Is `e` a *path*: a chain of `TUP_EXTRACT`/`DEREF` over an `INPUT^k`
/// or a constant?  [`read_path`] reads one without copying.
fn is_path(e: &Expr) -> bool {
    match e {
        Expr::Input(_) | Expr::Const(_) => true,
        Expr::TupExtract(a, _) | Expr::Deref(a) => is_path(a),
        _ => false,
    }
}

/// Does the evaluator read child `i` of `e` (in [`Expr::children`]
/// order) in place, by reference, so that the child is charged to
/// `e` and has no profile frame of its own?  The operand of a path
/// `TUP_EXTRACT`/`DEREF`, a path under `π`, a path `COMP` input its
/// predicate never reads, and both operands of a comparison of two paths
/// are; so is everything below a child read in place.
/// The evaluator's `π`, `TUP_EXTRACT`, `DEREF` and `COMP` arms decide by
/// it, and `eval_pred` by its `compares_in_place`.
#[inline]
pub fn reads_in_place(e: &Expr, i: usize) -> bool {
    let first = match e {
        Expr::TupExtract(a, _) | Expr::Deref(a) | Expr::Project(a, _) => return is_path(a),
        Expr::Comp { input, pred } if i == 0 => return is_path(input) && !pred.mentions_input(0),
        Expr::Comp { .. } | Expr::Select { .. } | Expr::ArrSelect { .. } => 1,
        Expr::RelJoin { .. } => 2,
        _ => return false,
    };
    // A predicate's expressions are its comparisons' operands, in pairs.
    let pair = (i >= first).then(|| (e.child(i), e.child(first + ((i - first) ^ 1))));
    matches!(pair, Some((Some(l), Some(r))) if compares_in_place(l, r))
}

/// Does a comparison of `l` and `r` read both in place: are both paths?
#[inline]
fn compares_in_place(l: &Expr, r: &Expr) -> bool {
    is_path(l) && is_path(r)
}

/// The value of the path `e` ([`is_path`]) where it lies — in the binder
/// environment, the plan or the object store — charging the `derefs`
/// and raising the errors, in the order, that [`eval`] would.
fn read_path<'v>(
    e: &'v Expr,
    env: &'v [Value],
    store: &'v ObjectStore,
    counters: &mut Counters,
) -> EvalResult<&'v Value> {
    match e {
        Expr::Input(d) => env
            .len()
            .checked_sub(1 + *d)
            .map(|i| &env[i])
            .ok_or(EvalError::UnboundInput(*d)),
        Expr::Const(v) => Ok(v),
        Expr::TupExtract(a, field) => extract(read_path(a, env, store, counters)?, field),
        Expr::Deref(a) => deref(read_path(a, env, store, counters)?, store, counters),
        _ => unreachable!("read_path on a non-path: {e}"),
    }
}

/// `TUP_EXTRACT[field]` of an evaluated operand: nulls pass through.
fn extract<'v>(v: &'v Value, field: &str) -> EvalResult<&'v Value> {
    match v {
        v if v.is_null() => Ok(v),
        Value::Tuple(t) => Ok(t.extract(field)?),
        other => Err(sort_err("TUP_EXTRACT", "tuple", other)),
    }
}

/// `DEREF` of an evaluated operand, charged: nulls pass through.
fn deref<'v>(
    v: &'v Value,
    store: &'v ObjectStore,
    counters: &mut Counters,
) -> EvalResult<&'v Value> {
    match v {
        v if v.is_null() => Ok(v),
        Value::Ref(oid) => {
            counters.derefs += 1;
            Ok(store.deref(*oid)?)
        }
        other => Err(sort_err("DEREF", "ref", other)),
    }
}

/// The operands of a binary operator, left then right, or — returned
/// from the enclosing arm as its result — the first that is a null.
macro_rules! operands {
    ($a:expr, $b:expr, $env:expr, $ctx:expr) => {{
        let (a, b) = (eval($a, $env, $ctx)?, eval($b, $env, $ctx)?);
        if a.is_null() {
            return Ok(a);
        }
        if b.is_null() {
            return Ok(b);
        }
        (a, b)
    }};
}

/// Evaluate with an explicit binder environment (innermost last).
///
/// When profiling is enabled (see [`EvalCtx::enable_tracing`]) every call
/// is bracketed by a profile frame; otherwise this is a single
/// branch in front of the operator dispatch.
pub fn eval(e: &Expr, env: &mut Vec<Value>, ctx: &mut EvalCtx) -> EvalResult<Value> {
    framed(e, ctx, rows_of, |ctx| eval_inner(e, env, ctx))
}

/// The profiler's one hook: `run`, the evaluation of node `e`, bracketed
/// by a [`TraceSink`] frame that credits it the `rows` of its result.
/// Untraced, one branch.  Tracing observes and never decides: `run` is
/// the same either way.
fn framed<T>(
    e: &Expr,
    ctx: &mut EvalCtx,
    rows: fn(&T) -> u64,
    run: impl FnOnce(&mut EvalCtx) -> EvalResult<T>,
) -> EvalResult<T> {
    if ctx.trace.is_none() {
        return run(ctx);
    }
    let token = ctx
        .trace
        .as_mut()
        .expect("checked above")
        .enter(e, ctx.counters);
    let result = run(ctx);
    // The sink can only disappear mid-evaluation if the traced expression
    // itself takes the profile, which nothing does; guard anyway.
    if let Some(sink) = ctx.trace.as_mut() {
        let rows_out = result.as_ref().map_or(0, rows);
        sink.exit(token, e, rows_out, ctx.counters);
    }
    result
}

/// The row kernel a lowered plan assigned to node `e`, if any.
fn row_kernel(e: &Expr, ctx: &EvalCtx) -> Option<Arc<RowKernel>> {
    ctx.row_kernels
        .as_ref()?
        .get(&(e as *const Expr as usize))
        .cloned()
}

/// The operator dispatch behind [`eval`].
fn eval_inner(e: &Expr, env: &mut Vec<Value>, ctx: &mut EvalCtx) -> EvalResult<Value> {
    match e {
        // ----- leaves -----
        Expr::Input(d) => {
            let idx = env
                .len()
                .checked_sub(1 + *d)
                .ok_or(EvalError::UnboundInput(*d))?;
            Ok(env[idx].clone())
        }
        Expr::Named(n) => {
            ctx.counters.named_object_scans += 1;
            ctx.catalog
                .get_object(n)
                .cloned()
                .ok_or_else(|| EvalError::UnknownObject(n.clone()))
        }
        Expr::Const(v) => Ok(v.clone()),

        // ----- multiset operators -----
        Expr::AddUnion(a, b) => {
            let (a, b) = operands!(a, b, env, ctx);
            Ok(Value::Set(as_set("⊎", a)?.additive_union(as_set("⊎", b)?)))
        }
        Expr::MakeSet(a) => {
            let v = eval(a, env, ctx)?;
            // SET(dne) = {} via the multiset's dne-discard on insertion.
            Ok(Value::Set(MultiSet::from_occurrences([v])))
        }
        Expr::SetApply {
            input,
            body,
            only_types,
        } => {
            // A lowered plan may have assigned this node (by address) the
            // fused join-apply over its hash-joined input, which runs in
            // the join's own frame.  The apply is charged one scan per
            // row read off the pairs, and runs its body on the `unk` rows.
            let fused = row_kernel(e, ctx);
            let inv = match fused.as_deref() {
                Some(RowKernel::JoinApply(pair)) => {
                    let joined = |ctx: &mut EvalCtx| rel_join(input, Some(pair), env, ctx);
                    let rows = |j: &Joined| match j {
                        Joined::Value(v) => rows_of(v),
                        Joined::Fused(out, unk) => out.len() + unk,
                    };
                    match framed(input, ctx, rows, joined)? {
                        Joined::Fused(mut out, unk) => {
                            ctx.counters.occurrences_scanned += out.len();
                            if unk > 0 {
                                let mut unks = MultiSet::new();
                                unks.insert_n(Value::unk(), unk);
                                out = out.additive_union(apply_each(&unks, body, None, env, ctx)?);
                            }
                            return Ok(Value::Set(out));
                        }
                        Joined::Value(joined) => joined,
                    }
                }
                _ => eval(input, env, ctx)?,
            };
            if inv.is_null() {
                return Ok(inv);
            }
            let set = as_set("SET_APPLY", inv)?;
            let filter: Option<Vec<TypeId>> = match only_types {
                Some(names) => Some(
                    names
                        .iter()
                        .map(|n| ctx.registry.lookup(n))
                        .collect::<Result<_, _>>()?,
                ),
                None => None,
            };
            apply_each(&set, body, filter.as_deref(), env, ctx).map(Value::Set)
        }
        Expr::Group { input, by } => {
            let inv = eval(input, env, ctx)?;
            if inv.is_null() {
                return Ok(inv);
            }
            let set = as_set("GRP", inv)?;
            let mut groups: std::collections::BTreeMap<Value, MultiSet> = Default::default();
            for occ in set.iter_occurrences() {
                ctx.counters.occurrences_scanned += 1;
                env.push(occ.clone());
                let key = eval(by, env, ctx);
                env.pop();
                let key = key?;
                if key.is_dne() {
                    continue; // an occurrence with no grouping key is dropped
                }
                groups.entry(key).or_default().insert(occ.clone());
            }
            Ok(Value::Set(groups.into_values().map(Value::Set).collect()))
        }
        Expr::DupElim(a) => {
            let v = eval(a, env, ctx)?;
            if v.is_null() {
                return Ok(v);
            }
            let s = as_set("DE", v)?;
            ctx.counters.de_input_occurrences += s.len();
            Ok(Value::Set(s.dup_elim()))
        }
        Expr::Diff(a, b) => {
            let (a, b) = operands!(a, b, env, ctx);
            Ok(Value::Set(as_set("−", a)?.difference(&as_set("−", b)?)))
        }
        Expr::Cross(a, b) => {
            let (a, b) = operands!(a, b, env, ctx);
            let out = as_set("×", a)?.cross(&as_set("×", b)?);
            ctx.counters.pairs_formed += out.len();
            Ok(Value::Set(out))
        }
        Expr::SetCollapse(a) => {
            let v = eval(a, env, ctx)?;
            if v.is_null() {
                return Ok(v);
            }
            let s = as_set("SET_COLLAPSE", v)?;
            s.collapse().map(Value::Set).ok_or_else(|| {
                sort_err(
                    "SET_COLLAPSE",
                    "multiset of multisets",
                    &Value::Set(s.clone()),
                )
            })
        }

        // ----- tuple operators -----
        Expr::Project(a, fields) => {
            if reads_in_place(e, 0) {
                let v = read_path(a, env, ctx.store, &mut ctx.counters)?;
                return project(v, fields);
            }
            project(&eval(a, env, ctx)?, fields)
        }
        Expr::TupCat(a, b) => {
            let (a, b) = operands!(a, b, env, ctx);
            match (&a, &b) {
                (Value::Tuple(x), Value::Tuple(y)) => Ok(Value::Tuple(x.cat(y))),
                (Value::Tuple(_), other) | (other, _) => Err(sort_err("TUP_CAT", "tuple", other)),
            }
        }
        Expr::TupExtract(a, field) => {
            if reads_in_place(e, 0) {
                return read_path(e, env, ctx.store, &mut ctx.counters).cloned();
            }
            extract(&eval(a, env, ctx)?, field).cloned()
        }
        Expr::MakeTup(a, field) => {
            let v = eval(a, env, ctx)?;
            Ok(Value::tuple([(field.as_str(), v)]))
        }

        // ----- array operators -----
        Expr::MakeArr(a) => {
            let v = eval(a, env, ctx)?;
            if v.is_dne() {
                return Ok(Value::array([])); // mirror SET(dne) = { }
            }
            Ok(Value::array([v]))
        }
        Expr::ArrExtract(a, b) => {
            let v = eval(a, env, ctx)?;
            if v.is_null() {
                return Ok(v);
            }
            Ok(array::extract(as_array("ARR_EXTRACT", &v)?, *b))
        }
        Expr::ArrApply { input, body } => {
            let inv = eval(input, env, ctx)?;
            if inv.is_null() {
                return Ok(inv);
            }
            let arr = as_array("ARR_APPLY", &inv)?;
            let mut out = Vec::with_capacity(arr.len());
            for elem in arr {
                ctx.counters.elements_scanned += 1;
                env.push(elem.clone());
                let r = eval(body, env, ctx);
                env.pop();
                let r = r?;
                if !r.is_dne() {
                    out.push(r); // dne results dropped: array σ = ARR_APPLY∘COMP
                }
            }
            Ok(Value::array(out))
        }
        Expr::SubArr(a, m, n) => {
            let v = eval(a, env, ctx)?;
            if v.is_null() {
                return Ok(v);
            }
            Ok(Value::array(array::subarr(as_array("SUBARR", &v)?, *m, *n)))
        }
        Expr::ArrCat(a, b) => {
            let (a, b) = operands!(a, b, env, ctx);
            Ok(Value::array(array::cat(
                as_array("ARR_CAT", &a)?,
                as_array("ARR_CAT", &b)?,
            )))
        }
        Expr::ArrCollapse(a) => {
            let v = eval(a, env, ctx)?;
            if v.is_null() {
                return Ok(v);
            }
            array::collapse(as_array("ARR_COLLAPSE", &v)?)
                .map(Value::array)
                .ok_or_else(|| sort_err("ARR_COLLAPSE", "array of arrays", &v))
        }
        Expr::ArrDiff(a, b) => {
            let (a, b) = operands!(a, b, env, ctx);
            Ok(Value::array(array::diff(
                as_array("ARR_DIFF", &a)?,
                as_array("ARR_DIFF", &b)?,
            )))
        }
        Expr::ArrDupElim(a) => {
            let v = eval(a, env, ctx)?;
            if v.is_null() {
                return Ok(v);
            }
            Ok(Value::array(array::dup_elim(as_array("ARR_DE", &v)?)))
        }
        Expr::ArrCross(a, b) => {
            let (a, b) = operands!(a, b, env, ctx);
            let out = array::cross(as_array("ARR_CROSS", &a)?, as_array("ARR_CROSS", &b)?);
            ctx.counters.pairs_formed += out.len() as u64;
            Ok(Value::array(out))
        }

        // ----- reference operators -----
        Expr::MakeRef(a, ty_name) => {
            let v = eval(a, env, ctx)?;
            if v.is_null() {
                return Ok(v);
            }
            let ty = ctx.registry.lookup(ty_name)?;
            let oid = ctx.store.create(ctx.registry, ty, v)?;
            ctx.counters.oids_minted += 1;
            Ok(Value::Ref(oid))
        }
        Expr::Deref(a) => {
            if reads_in_place(e, 0) {
                return read_path(e, env, ctx.store, &mut ctx.counters).cloned();
            }
            let v = eval(a, env, ctx)?;
            deref(&v, ctx.store, &mut ctx.counters).cloned()
        }

        // ----- predicates -----
        Expr::Comp { input, pred } => {
            // A path input that the predicate never reads is read once,
            // where it lies, after the predicate, and copied only for a
            // row the predicate keeps.  Its error still comes first, and
            // a failed read is charged as if the predicate had not run.
            if reads_in_place(e, 0) {
                let before = ctx.counters;
                // Unread, the binding needs only its place in `env`.
                env.push(Value::dne());
                let t = eval_pred(pred, env, ctx);
                env.pop();
                let mut read = Counters::new();
                let v = read_path(input, env, ctx.store, &mut read);
                if v.is_err() {
                    ctx.counters = before;
                }
                ctx.counters.derefs += read.derefs;
                return match (v?, t?) {
                    (v, Truth::T) => Ok(v.clone()),
                    (_, t) => Ok(predicate::comp_result(t, Value::dne())),
                };
            }
            let v = eval(input, env, ctx)?;
            env.push(v);
            let t = eval_pred(pred, env, ctx);
            let v = env.pop().expect("pushed above");
            Ok(predicate::comp_result(t?, v))
        }

        // ----- functions / aggregates -----
        Expr::Call(f, args) => eval_call(*f, args, env, ctx),

        // ----- derived operators (direct implementations; semantics match
        //       their expansions — asserted by property tests) -----
        Expr::Union(a, b) => {
            let (a, b) = operands!(a, b, env, ctx);
            Ok(Value::Set(as_set("∪", a)?.union_max(&as_set("∪", b)?)))
        }
        Expr::Intersect(a, b) => {
            let (a, b) = operands!(a, b, env, ctx);
            Ok(Value::Set(as_set("∩", a)?.intersect_min(&as_set("∩", b)?)))
        }
        Expr::Select { input, pred } => {
            let inv = eval(input, env, ctx)?;
            if inv.is_null() {
                return Ok(inv);
            }
            let set = as_set("σ", inv)?;
            let mut out = MultiSet::new();
            for occ in set.iter_occurrences() {
                ctx.counters.occurrences_scanned += 1;
                env.push(occ.clone());
                let t = eval_pred(pred, env, ctx);
                env.pop();
                match t? {
                    Truth::T => out.insert(occ.clone()),
                    Truth::U => out.insert(Value::unk()),
                    Truth::F => {}
                }
            }
            Ok(Value::Set(out))
        }
        Expr::ArrSelect { input, pred } => {
            let inv = eval(input, env, ctx)?;
            if inv.is_null() {
                return Ok(inv);
            }
            let arr = as_array("arr_σ", &inv)?;
            let mut out = Vec::new();
            for elem in arr {
                ctx.counters.elements_scanned += 1;
                env.push(elem.clone());
                let t = eval_pred(pred, env, ctx);
                env.pop();
                match t? {
                    Truth::T => out.push(elem.clone()),
                    Truth::U => out.push(Value::unk()),
                    Truth::F => {}
                }
            }
            Ok(Value::array(out))
        }
        Expr::RelCross(a, b) => {
            let (a, b) = operands!(a, b, env, ctx);
            let (sa, sb) = (as_set("rel_×", a)?, as_set("rel_×", b)?);
            let mut out = MultiSet::new();
            for (x, cx) in sa.iter_counted() {
                let tx = x.as_tuple().ok_or_else(|| sort_err("rel_×", "tuple", x))?;
                for (y, cy) in sb.iter_counted() {
                    let ty = y.as_tuple().ok_or_else(|| sort_err("rel_×", "tuple", y))?;
                    ctx.counters.pairs_formed += cx * cy;
                    ctx.counters.occurrences_scanned += cx * cy;
                    out.insert_n(Value::Tuple(tx.cat(ty)), cx * cy);
                }
            }
            Ok(Value::Set(out))
        }
        Expr::RelJoin { .. } => match rel_join(e, None, env, ctx)? {
            Joined::Value(v) => Ok(v),
            Joined::Fused(..) => unreachable!("a join fuses only under an apply"),
        },

        // ----- Section 4 dispatch -----
        Expr::SetApplySwitch { input, table } => {
            let inv = eval(input, env, ctx)?;
            if inv.is_null() {
                return Ok(inv);
            }
            let set = as_set("SET_APPLY_SWITCH", inv)?;
            // Pre-resolve arm type ids once per evaluation.
            let mut arms: Vec<(TypeId, &Expr)> = Vec::with_capacity(table.len());
            for (name, body) in table {
                arms.push((ctx.registry.lookup(name)?, body));
            }
            let mut out = MultiSet::new();
            for occ in set.iter_occurrences() {
                ctx.counters.occurrences_scanned += 1;
                let exact =
                    domain::exact_type_of(occ, ctx.registry, ctx.store).ok_or_else(|| {
                        EvalError::NoDispatchArm {
                            ty: format!("<untyped value {occ}>"),
                        }
                    })?;
                // Exact arm, else the nearest (most specific) ancestor arm —
                // inherited method semantics.
                let arm = ctx
                    .registry
                    .nearest(exact, arms.iter().copied())
                    .ok_or_else(|| EvalError::NoDispatchArm {
                        ty: ctx.registry.name_of(exact).to_string(),
                    })?;
                env.push(occ.clone());
                let r = eval(arm, env, ctx);
                env.pop();
                out.insert(r?);
            }
            Ok(Value::Set(out))
        }
    }
}

/// `SET_APPLY`'s loop: `body` once per occurrence of `set`, skipping
/// occurrences whose exact type is not in `filter` when there is one.
fn apply_each(
    set: &MultiSet,
    body: &Expr,
    filter: Option<&[TypeId]>,
    env: &mut Vec<Value>,
    ctx: &mut EvalCtx,
) -> EvalResult<MultiSet> {
    let mut out = MultiSet::new();
    for occ in set.iter_occurrences() {
        ctx.counters.occurrences_scanned += 1;
        if let Some(want) = filter {
            // "only objects that are exactly of type T are to be
            // processed"; others are ignored.
            let exact = domain::exact_type_of(occ, ctx.registry, ctx.store);
            if !matches!(exact, Some(t) if want.contains(&t)) {
                continue;
            }
        }
        env.push(occ.clone());
        let r = eval(body, env, ctx);
        env.pop();
        out.insert(r?);
    }
    Ok(out)
}

/// What a `rel_join` node evaluates to.
enum Joined {
    /// The join's own value: a null input, or its rows, which an apply
    /// over it then runs over.
    Value(Value),
    /// Under an apply that fuses it, the apply's rows on the `T` pairs
    /// and the number of `U` rows whose body is still to run.
    Fused(MultiSet, u64),
}

/// The `rel_join` node `join`: its inputs, then — under an apply that
/// `fuse`s it — [`hash_join_apply`](crate::physical::hash_join_apply)
/// over them, or else the join itself.
fn rel_join(
    join: &Expr,
    fuse: Option<&PairRead>,
    env: &mut Vec<Value>,
    ctx: &mut EvalCtx,
) -> EvalResult<Joined> {
    let Expr::RelJoin { left, right, pred } = join else {
        unreachable!("rel_join of a non-join: {join}")
    };
    let (a, b) = (eval(left, env, ctx)?, eval(right, env, ctx)?);
    if a.is_null() || b.is_null() {
        return Ok(Joined::Value(if a.is_null() { a } else { b }));
    }
    let (sa, sb) = (as_set("rel_join", a)?, as_set("rel_join", b)?);
    if let Some((rows, unk)) =
        fuse.and_then(|pair| crate::physical::hash_join_apply(&sa, &sb, pair, ctx))
    {
        return Ok(Joined::Fused(rows, unk));
    }
    let rows = join_sets(join, &sa, &sb, pred, env, ctx)?;
    Ok(Joined::Value(Value::Set(rows)))
}

/// The `rel_join` node `e` over its materialised inputs.
fn join_sets(
    e: &Expr,
    sa: &MultiSet,
    sb: &MultiSet,
    pred: &Pred,
    env: &mut Vec<Value>,
    ctx: &mut EvalCtx,
) -> EvalResult<MultiSet> {
    // A lowered plan may have assigned this node (by address) a hash
    // kernel; its runtime guard re-verifies the key side conditions and
    // reports `None` to fall back to the nested loop, so canon-identity
    // never rests on the statistics.
    if let Some(kernel) = row_kernel(e, ctx) {
        if let RowKernel::HashJoin {
            left_key: lf,
            right_key: rf,
        } = &*kernel
        {
            if let Some(out) = crate::physical::hash_equi_join(sa, sb, lf, rf, pred, env, ctx)? {
                return Ok(out);
            }
        }
    }
    let mut out = MultiSet::new();
    for (x, cx) in sa.iter_counted() {
        let tx = x
            .as_tuple()
            .ok_or_else(|| sort_err("rel_join", "tuple", x))?;
        for (y, cy) in sb.iter_counted() {
            let ty = y
                .as_tuple()
                .ok_or_else(|| sort_err("rel_join", "tuple", y))?;
            ctx.counters.occurrences_scanned += cx * cy;
            let joined = Value::Tuple(tx.cat(ty));
            env.push(joined.clone());
            let t = eval_pred(pred, env, ctx);
            env.pop();
            match t? {
                Truth::T => out.insert_n(joined, cx * cy),
                Truth::U => out.insert_n(Value::unk(), cx * cy),
                Truth::F => {}
            }
        }
    }
    Ok(out)
}

/// Evaluate a predicate in the given environment (the COMP input or the
/// σ/join element is the innermost binding).
pub(crate) fn eval_pred(p: &Pred, env: &mut Vec<Value>, ctx: &mut EvalCtx) -> EvalResult<Truth> {
    match p {
        Pred::Cmp(l, op, r) => {
            if compares_in_place(l, r) {
                let lv = read_path(l, env, ctx.store, &mut ctx.counters)?;
                let rv = read_path(r, env, ctx.store, &mut ctx.counters)?;
                return compare(lv, *op, rv, &mut ctx.counters);
            }
            let lv = eval(l, env, ctx)?;
            let rv = eval(r, env, ctx)?;
            compare(&lv, *op, &rv, &mut ctx.counters)
        }
        Pred::And(a, b) => {
            // Short-circuit: F ∧ x = F without evaluating x.
            let ta = eval_pred(a, env, ctx)?;
            if ta == Truth::F {
                return Ok(Truth::F);
            }
            Ok(ta.and(eval_pred(b, env, ctx)?))
        }
        Pred::Not(q) => Ok(eval_pred(q, env, ctx)?.not()),
    }
}

fn eval_call(f: Func, args: &[Expr], env: &mut Vec<Value>, ctx: &mut EvalCtx) -> EvalResult<Value> {
    let expect = |n: usize| -> EvalResult<()> {
        if args.len() == n {
            Ok(())
        } else {
            Err(EvalError::Arity {
                func: "call",
                expected: n,
                found: args.len(),
            })
        }
    };
    use aggregate::NumOp;
    match f {
        Func::Add | Func::Sub | Func::Mul | Func::Div => {
            expect(2)?;
            let a = eval(&args[0], env, ctx)?;
            let b = eval(&args[1], env, ctx)?;
            let op = match f {
                Func::Add => NumOp::Add,
                Func::Sub => NumOp::Sub,
                Func::Mul => NumOp::Mul,
                _ => NumOp::Div,
            };
            aggregate::numeric(op, &a, &b)
        }
        Func::Neg => {
            expect(1)?;
            aggregate::negate(&eval(&args[0], env, ctx)?)
        }
        Func::Min | Func::Max | Func::Count | Func::Sum | Func::Avg => {
            expect(1)?;
            let v = eval(&args[0], env, ctx)?;
            match f {
                Func::Min => aggregate::min(&v),
                Func::Max => aggregate::max(&v),
                Func::Count => aggregate::count(&v),
                Func::Sum => aggregate::sum(&v),
                _ => aggregate::avg(&v),
            }
        }
        Func::The => {
            expect(1)?;
            let v = eval(&args[0], env, ctx)?;
            if v.is_null() {
                return Ok(v);
            }
            match v {
                Value::Set(s) => Ok(s
                    .iter_occurrences()
                    .next()
                    .cloned()
                    .unwrap_or_else(Value::dne)),
                other => Err(sort_err("the", "multiset", &other)),
            }
        }
        Func::Age => {
            expect(1)?;
            let v = eval(&args[0], env, ctx)?;
            if v.is_null() {
                return Ok(v);
            }
            match v {
                Value::Scalar(excess_types::Scalar::Date(d)) => Ok(Value::int(d.age_at(ctx.today))),
                other => Err(sort_err("age", "Date", &other)),
            }
        }
    }
}
