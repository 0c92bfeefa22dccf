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
use crate::expr::{Expr, Func, Pred};
use crate::ops::predicate::Truth;
use crate::ops::{aggregate, array, predicate};
use crate::physical::RowKernel;
use crate::profile::{Profile, TraceSink};
use excess_types::{domain, Date, MultiSet, ObjectStore, SchemaType, TypeId, TypeRegistry, Value};

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
    pub trace: Option<Box<TraceSink>>,
    /// Pointer-keyed row-kernel table, installed by
    /// [`crate::physical::evaluate_physical`]: maps the address of a
    /// `rel_join` or correlated `SET_APPLY` node to its hash kernel.
    /// `None` (the default) means every join runs as a nested loop.
    pub(crate) row_kernels: Option<std::collections::HashMap<usize, RowKernel>>,
    /// Pointer-keyed batched-kernel table, installed alongside
    /// `row_kernels`: maps node addresses to columnar
    /// [`ChunkKernel`](crate::columnar::ChunkKernel)s that consume the
    /// catalog's extent chunks instead of cloned row values.  `None`
    /// (the default) means every operator runs row-at-a-time.
    pub(crate) chunk_kernels:
        Option<std::collections::HashMap<usize, crate::columnar::ChunkKernel>>,
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
            chunk_kernels: None,
        }
    }

    /// Turn on per-operator profiling for subsequent evaluations.  A fresh
    /// [`TraceSink`] replaces any previous recording.
    pub fn enable_tracing(&mut self) {
        self.trace = Some(Box::new(TraceSink::new()));
    }

    /// Like [`EvalCtx::enable_tracing`] but with coarse timestamps: the
    /// profiler samples the clock once per traced node invocation instead
    /// of twice, shrinking the observer effect on deep plans at the price
    /// of blurring the wall-time split between a parent's self time and
    /// its next child (counters stay exact; see
    /// [`TraceSink::is_coarse`]).
    pub fn enable_coarse_tracing(&mut self) {
        self.trace = Some(Box::new(TraceSink::new_coarse()));
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

/// Determine the *exact* (most specific) type of a runtime value, for the
/// Section 4 dispatch mechanisms.
///
/// * references dereference to the store's recorded exact type;
/// * tuples are shape-matched: among all named tuple types whose full body
///   the value inhabits *exactly*, the most specific (deepest) one wins.
///
/// Returns `None` when no named type matches.
pub fn exact_type_of(v: &Value, ctx: &EvalCtx) -> Option<TypeId> {
    exact_type_of_parts(v, ctx.registry, ctx.store)
}

/// [`exact_type_of`] without an evaluation context — usable anywhere a
/// registry and store are at hand (e.g. extent-index maintenance).
pub fn exact_type_of_parts(
    v: &Value,
    registry: &TypeRegistry,
    store: &ObjectStore,
) -> Option<TypeId> {
    if let Value::Ref(oid) = v {
        return store.exact_type(*oid).ok();
    }
    let mut best: Option<TypeId> = None;
    let mut best_depth = 0usize;
    for ty in registry.all_ids() {
        let Ok(body) = registry.full_body(ty) else {
            continue;
        };
        if !matches!(body, SchemaType::Tup(_)) {
            continue;
        }
        if domain::check_dom_exact(v, &body, registry).is_ok() {
            let depth = registry.ancestors(ty).len();
            if best.is_none() || depth > best_depth {
                best = Some(ty);
                best_depth = depth;
            }
        }
    }
    best
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

/// Evaluate with an explicit binder environment (innermost last).
///
/// When profiling is enabled (see [`EvalCtx::enable_tracing`]) every call
/// is bracketed by a [`TraceSink`] frame; otherwise this is a single
/// branch in front of the operator dispatch.
pub fn eval(e: &Expr, env: &mut Vec<Value>, ctx: &mut EvalCtx) -> EvalResult<Value> {
    traced(e, ctx, |ctx| eval_inner(e, env, ctx))
}

/// Run `f` as the evaluation of node `e`: inside a [`TraceSink`] frame for
/// `e` when profiling is on, directly otherwise.
#[inline]
pub(crate) fn traced(
    e: &Expr,
    ctx: &mut EvalCtx,
    f: impl FnOnce(&mut EvalCtx) -> EvalResult<Value>,
) -> EvalResult<Value> {
    if ctx.trace.is_none() {
        return f(ctx);
    }
    let token = ctx
        .trace
        .as_mut()
        .expect("checked above")
        .enter(e, ctx.counters);
    let result = f(ctx);
    // The sink can only disappear mid-evaluation if the traced expression
    // itself takes the profile, which nothing does; guard anyway.
    if let Some(sink) = ctx.trace.as_mut() {
        sink.exit(token, e, &result, ctx.counters);
    }
    result
}

/// The row kernel a lowered plan assigned to node `e`, if any.
fn row_kernel(e: &Expr, ctx: &EvalCtx) -> Option<RowKernel> {
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
            let (a, b) = (eval(a, env, ctx)?, eval(b, env, ctx)?);
            if a.is_null() {
                return Ok(a);
            }
            if b.is_null() {
                return Ok(b);
            }
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
            let inv = eval(input, env, ctx)?;
            if inv.is_null() {
                return Ok(inv);
            }
            let set = as_set("SET_APPLY", inv)?;
            // A lowered plan may have assigned this node (by address) the
            // correlated join's probe kernel; `None` is its runtime guard
            // refusing, and the loop below runs as if it had never tried.
            if let Some(RowKernel::ProbeApply {
                outer_key,
                inner_key,
            }) = row_kernel(e, ctx)
            {
                let probed = crate::physical::hash_probe_apply(
                    &set, body, &outer_key, &inner_key, env, ctx,
                )?;
                if let Some(out) = probed {
                    return Ok(Value::Set(out));
                }
            }
            let filter: Option<Vec<TypeId>> = match only_types {
                Some(names) => Some(
                    names
                        .iter()
                        .map(|n| ctx.registry.lookup(n))
                        .collect::<Result<_, _>>()?,
                ),
                None => None,
            };
            let mut out = MultiSet::new();
            for occ in set.iter_occurrences() {
                ctx.counters.occurrences_scanned += 1;
                if let Some(want) = &filter {
                    // "only objects that are exactly of type T are to be
                    // processed"; others are ignored.
                    let exact = exact_type_of(occ, ctx);
                    if !matches!(exact, Some(t) if want.contains(&t)) {
                        continue;
                    }
                }
                env.push(occ.clone());
                let r = eval(body, env, ctx);
                env.pop();
                out.insert(r?);
            }
            Ok(Value::Set(out))
        }
        Expr::Group { input, by } => {
            if let Some(out) = crate::columnar::try_group(e, input, by, ctx) {
                return Ok(out);
            }
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
            if let Some(out) = crate::columnar::try_distinct(e, a, ctx) {
                return Ok(out);
            }
            let v = eval(a, env, ctx)?;
            if v.is_null() {
                return Ok(v);
            }
            let s = as_set("DE", v)?;
            ctx.counters.de_input_occurrences += s.len();
            Ok(Value::Set(s.dup_elim()))
        }
        Expr::Diff(a, b) => {
            let (a, b) = (eval(a, env, ctx)?, eval(b, env, ctx)?);
            if a.is_null() {
                return Ok(a);
            }
            if b.is_null() {
                return Ok(b);
            }
            Ok(Value::Set(as_set("−", a)?.difference(&as_set("−", b)?)))
        }
        Expr::Cross(a, b) => {
            let (a, b) = (eval(a, env, ctx)?, eval(b, env, ctx)?);
            if a.is_null() {
                return Ok(a);
            }
            if b.is_null() {
                return Ok(b);
            }
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
            let v = eval(a, env, ctx)?;
            if v.is_null() {
                return Ok(v);
            }
            match v {
                Value::Tuple(t) => Ok(Value::Tuple(t.project(fields)?)),
                other => Err(sort_err("π", "tuple", &other)),
            }
        }
        Expr::TupCat(a, b) => {
            let (a, b) = (eval(a, env, ctx)?, eval(b, env, ctx)?);
            if a.is_null() {
                return Ok(a);
            }
            if b.is_null() {
                return Ok(b);
            }
            match (&a, &b) {
                (Value::Tuple(x), Value::Tuple(y)) => Ok(Value::Tuple(x.cat(y))),
                (Value::Tuple(_), other) | (other, _) => Err(sort_err("TUP_CAT", "tuple", other)),
            }
        }
        Expr::TupExtract(a, field) => {
            let v = eval(a, env, ctx)?;
            if v.is_null() {
                return Ok(v);
            }
            match v {
                Value::Tuple(t) => Ok(t.extract(field)?.clone()),
                other => Err(sort_err("TUP_EXTRACT", "tuple", &other)),
            }
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
            let (a, b) = (eval(a, env, ctx)?, eval(b, env, ctx)?);
            if a.is_null() {
                return Ok(a);
            }
            if b.is_null() {
                return Ok(b);
            }
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
            let (a, b) = (eval(a, env, ctx)?, eval(b, env, ctx)?);
            if a.is_null() {
                return Ok(a);
            }
            if b.is_null() {
                return Ok(b);
            }
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
            let (a, b) = (eval(a, env, ctx)?, eval(b, env, ctx)?);
            if a.is_null() {
                return Ok(a);
            }
            if b.is_null() {
                return Ok(b);
            }
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
            let v = eval(a, env, ctx)?;
            if v.is_null() {
                return Ok(v);
            }
            match v {
                Value::Ref(oid) => {
                    ctx.counters.derefs += 1;
                    Ok(ctx.store.deref(oid)?.clone())
                }
                other => Err(sort_err("DEREF", "ref", &other)),
            }
        }

        // ----- predicates -----
        Expr::Comp { input, pred } => {
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
            let (a, b) = (eval(a, env, ctx)?, eval(b, env, ctx)?);
            if a.is_null() {
                return Ok(a);
            }
            if b.is_null() {
                return Ok(b);
            }
            Ok(Value::Set(as_set("∪", a)?.union_max(&as_set("∪", b)?)))
        }
        Expr::Intersect(a, b) => {
            let (a, b) = (eval(a, env, ctx)?, eval(b, env, ctx)?);
            if a.is_null() {
                return Ok(a);
            }
            if b.is_null() {
                return Ok(b);
            }
            Ok(Value::Set(as_set("∩", a)?.intersect_min(&as_set("∩", b)?)))
        }
        Expr::Select { input, pred } => {
            if let Some(out) = crate::columnar::try_select(e, input, pred, ctx) {
                return Ok(out);
            }
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
            let (a, b) = (eval(a, env, ctx)?, eval(b, env, ctx)?);
            if a.is_null() {
                return Ok(a);
            }
            if b.is_null() {
                return Ok(b);
            }
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
        Expr::RelJoin { left, right, pred } => {
            if let Some(out) = crate::columnar::try_join(e, left, right, pred, ctx) {
                return Ok(out);
            }
            let (a, b) = (eval(left, env, ctx)?, eval(right, env, ctx)?);
            if a.is_null() {
                return Ok(a);
            }
            if b.is_null() {
                return Ok(b);
            }
            let (sa, sb) = (as_set("rel_join", a)?, as_set("rel_join", b)?);
            // A lowered plan may have assigned this node (by address) a
            // hash kernel; its runtime guard re-verifies the key side
            // conditions and reports `None` to fall back to the nested
            // loop, so canon-identity never rests on the statistics.
            if let Some(RowKernel::HashJoin {
                left_key: lf,
                right_key: rf,
                guard_elided,
            }) = row_kernel(e, ctx)
            {
                // An elided guard means the property analysis proved the
                // key side conditions; the unguarded kernel still
                // degrades gracefully if the proof were ever wrong.
                let kernel_out = if guard_elided {
                    crate::physical::hash_equi_join_unguarded(&sa, &sb, &lf, &rf, pred, env, ctx)?
                } else {
                    crate::physical::hash_equi_join(&sa, &sb, &lf, &rf, pred, env, ctx)?
                };
                if let Some(out) = kernel_out {
                    return Ok(Value::Set(out));
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
            Ok(Value::Set(out))
        }

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
                let exact = exact_type_of(occ, ctx).ok_or_else(|| EvalError::NoDispatchArm {
                    ty: format!("<untyped value {occ}>"),
                })?;
                // Exact arm, else the nearest (most specific) ancestor arm —
                // inherited method semantics.
                let arm = arms
                    .iter()
                    .filter(|(t, _)| ctx.registry.is_subtype_or_self(exact, *t))
                    .max_by_key(|(t, _)| ctx.registry.ancestors(*t).len())
                    .map(|(_, b)| *b)
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

/// Evaluate a predicate in the given environment (the COMP input or the
/// σ/join element is the innermost binding).
pub fn eval_pred(p: &Pred, env: &mut Vec<Value>, ctx: &mut EvalCtx) -> EvalResult<Truth> {
    match p {
        Pred::Cmp(l, op, r) => {
            let lv = eval(l, env, ctx)?;
            let rv = eval(r, env, ctx)?;
            ctx.counters.comparisons += 1;
            predicate::compare(&lv, *op, &rv).ok_or_else(|| EvalError::SortMismatch {
                op: "in",
                expected: "multiset right operand",
                found: rv.kind_name().to_string(),
            })
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
