//! EXCESS → algebra translation (equipollence, direction i).
//!
//! "The proof that EXCESS is reducible to the algebra is essentially an
//! algorithm that translates any EXCESS query to an algebraic query tree
//! … everything in the retrieval list is combined using either joins or
//! cross-products, then the criteria of the 'where' clause are applied,
//! then the actual information desired is 'projected' to form the final
//! result." (Section 3.4)
//!
//! ## Scheme
//!
//! Each retrieve owns a list of *range variables*: the explicit `from`
//! clauses, instantiated `range of` declarations, and **implicit** ones —
//! QUEL-style tuple variables created whenever a path navigates *into* a
//! multiset (`Employees.dept.name`, `this.kids.ssnum`).  Implicit
//! variables are keyed by the text of their source path, so every mention
//! of the same prefix shares one variable (that is what correlates
//! `Employees.city` in the `where` clause with `Employees.dept.name` in
//! the target list, reproducing the functional join of Figure 4).
//!
//! Variables become nested `SET_APPLY` binders (dependency-ordered); the
//! innermost body is `COMP_pred(target)` — COMP's `dne` discards
//! unqualified combinations — and `SET_COLLAPSE`s flatten the nesting.
//! During expression translation variable references are symbolic
//! `Named("$var:k")` leaves; assembly replaces them with precise De Bruijn
//! `INPUT` indices.  A `by` clause routes through `GRP` over materialised
//! combination tuples, exactly like the paper's Figure 6.

use crate::ast::*;
use crate::error::{LangError, LangResult};
use crate::methods::{arg_placeholder, substitute_args, MethodRegistry};
use excess_core::expr::{Bound, CmpOp as ACmp, Expr, Func, Pred};
use excess_core::infer::SchemaCatalog;
use excess_types::{SchemaType, TypeRegistry, Value};
use std::collections::HashMap;

/// Everything translation needs to resolve names and types.
pub struct TranslateCtx<'a> {
    /// Named types and the inheritance hierarchy.
    pub registry: &'a TypeRegistry,
    /// Schemas of named top-level objects.
    pub schemas: &'a dyn SchemaCatalog,
    /// Session `range of` declarations.
    pub ranges: &'a HashMap<String, QExpr>,
    /// Stored methods.
    pub methods: &'a MethodRegistry,
    /// Receiver type when translating a method body.
    pub this_type: Option<SchemaType>,
    /// Formal parameters when translating a method body.
    pub params: Vec<(String, SchemaType)>,
}

/// A range variable of one retrieve.
#[derive(Debug, Clone)]
struct RVar {
    /// Placeholder key (explicit name, or `$imp:<path display>`).
    key: String,
    /// Source expression (may reference earlier variables by placeholder).
    source: Expr,
    /// Element type.
    elem_ty: SchemaType,
    /// `true` when the source is an array (order-preserving semantics).
    is_array: bool,
}

/// The per-retrieve variable scope, chained to enclosing retrieves.
struct RScope<'p> {
    vars: Vec<RVar>,
    parent: Option<&'p RScope<'p>>,
}

impl<'p> RScope<'p> {
    fn lookup(&self, name: &str) -> Option<(Expr, SchemaType)> {
        if let Some(v) = self.vars.iter().find(|v| v.key == name) {
            return Some((var_placeholder(&v.key), v.elem_ty.clone()));
        }
        self.parent.and_then(|p| p.lookup(name))
    }
}

fn var_placeholder(key: &str) -> Expr {
    Expr::named(format!("$var:{key}"))
}

fn terr(msg: impl Into<String>) -> LangError {
    LangError::Translate(msg.into())
}

/// Structural view of a schema type (resolving `Named` one level).
fn resolve_ty(ty: &SchemaType, reg: &TypeRegistry) -> LangResult<SchemaType> {
    match ty {
        SchemaType::Named(n) => {
            let id = reg.lookup(n)?;
            Ok(reg.full_body(id).clone())
        }
        other => Ok(other.clone()),
    }
}

/// Translate a whole retrieve to an algebra expression; the result's shape
/// is also returned (set / array / bare value / set of groups).
pub fn translate_retrieve(r: &Retrieve, tc: &TranslateCtx<'_>) -> LangResult<(Expr, SchemaType)> {
    translate_retrieve_in(r, tc, None)
}

fn translate_retrieve_in(
    r: &Retrieve,
    tc: &TranslateCtx<'_>,
    parent: Option<&RScope<'_>>,
) -> LangResult<(Expr, SchemaType)> {
    let mut sc = RScope {
        vars: Vec::new(),
        parent,
    };

    // 1. Explicit range variables.
    for (v, src) in &r.from {
        let (e, ty) = tx_expr(src, tc, &mut sc)?;
        push_explicit_var(&mut sc, v, e, ty, tc)?;
    }

    // 2. Targets.
    let mut fields: Vec<(String, Expr, SchemaType)> = Vec::new();
    for (i, t) in r.targets.iter().enumerate() {
        let (e, ty) = tx_expr(&t.expr, tc, &mut sc)?;
        let label = t
            .label
            .clone()
            .or_else(|| default_label(&t.expr))
            .unwrap_or_else(|| format!("c{}", i + 1));
        fields.push((label, e, ty));
    }
    let bare_single = r.targets.len() == 1 && r.targets[0].label.is_none();
    let (target_expr, target_ty) = if bare_single {
        let (_, e, ty) = fields.into_iter().next().expect("one target");
        (e, ty)
    } else {
        let mut unique_names: Vec<(String, Expr, SchemaType)> = Vec::new();
        for (mut name, e, ty) in fields {
            while unique_names.iter().any(|(n, _, _)| *n == name) {
                name.push('\'');
            }
            unique_names.push((name, e, ty));
        }
        let ty = SchemaType::Tup(
            unique_names
                .iter()
                .map(|(n, _, t)| (n.clone(), t.clone()))
                .collect(),
        );
        let mut parts = unique_names.into_iter().map(|(n, e, _)| e.make_tup(n));
        let first = parts.next().expect("at least one target");
        (parts.fold(first, |acc, p| acc.tup_cat(p)), ty)
    };

    // 3. Grouping expression.
    let by_expr = match &r.by {
        Some(b) => Some(tx_expr(b, tc, &mut sc)?.0),
        None => None,
    };

    // 4. Filter.
    let pred = match &r.filter {
        Some(p) => Some(tx_pred(p, tc, &mut sc)?),
        None => None,
    };

    // 5. Assemble.
    assemble(sc.vars, target_expr, target_ty, by_expr, pred, r.unique)
}

fn push_explicit_var(
    sc: &mut RScope<'_>,
    name: &str,
    source: Expr,
    src_ty: SchemaType,
    tc: &TranslateCtx<'_>,
) -> LangResult<()> {
    if sc.vars.iter().any(|v| v.key == name) {
        return Err(terr(format!("duplicate range variable `{name}`")));
    }
    let structural = resolve_ty(&src_ty, tc.registry)?;
    let (elem_ty, is_array) = match structural {
        SchemaType::Set(e) => (*e, false),
        SchemaType::Arr { elem, .. } => (*elem, true),
        other => {
            return Err(terr(format!(
                "range variable `{name}` must range over a multiset or array, found {other}"
            )))
        }
    };
    sc.vars.push(RVar {
        key: name.to_string(),
        source,
        elem_ty,
        is_array,
    });
    Ok(())
}

/// Get-or-create the implicit variable ranging over `source` (keyed by its
/// display form so repeated path prefixes share one variable).
fn implicit_var(sc: &mut RScope<'_>, source: Expr, elem_ty: SchemaType) -> (Expr, SchemaType) {
    let key = format!("$imp:{source}");
    if !sc.vars.iter().any(|v| v.key == key) {
        sc.vars.push(RVar {
            key: key.clone(),
            source,
            elem_ty: elem_ty.clone(),
            is_array: false,
        });
    }
    (var_placeholder(&key), elem_ty)
}

fn default_label(q: &QExpr) -> Option<String> {
    match q {
        QExpr::Var(n) => Some(n.clone()),
        QExpr::Path { steps, .. } => steps.iter().rev().find_map(|s| match s {
            Step::Field(f) => Some(f.clone()),
            Step::Method { name, .. } => Some(name.clone()),
            Step::Index(_) => None,
        }),
        QExpr::Aggregate { func, .. } => Some(func.clone()),
        QExpr::Call { name, .. } => Some(name.clone()),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Expression translation
// ---------------------------------------------------------------------

fn tx_expr(
    q: &QExpr,
    tc: &TranslateCtx<'_>,
    sc: &mut RScope<'_>,
) -> LangResult<(Expr, SchemaType)> {
    match q {
        QExpr::Int(i) => Ok((
            Expr::lit(Value::int(
                i32::try_from(*i).map_err(|_| terr("int4 overflow"))?,
            )),
            SchemaType::int4(),
        )),
        QExpr::Float(x) => Ok((Expr::lit(Value::float(*x)), SchemaType::float4())),
        QExpr::Str(s) => Ok((Expr::lit(Value::str(s.clone())), SchemaType::chars())),
        QExpr::Bool(b) => Ok((Expr::lit(Value::bool(*b)), SchemaType::boolean())),
        QExpr::DneLit => Ok((Expr::lit(Value::dne()), SchemaType::Tup(vec![]))),
        QExpr::UnkLit => Ok((Expr::lit(Value::unk()), SchemaType::Tup(vec![]))),
        QExpr::This => match &tc.this_type {
            Some(t) => Ok((Expr::named("$this"), t.clone())),
            None => Err(terr("`this` outside a method body")),
        },
        QExpr::Var(name) => resolve_name(name, tc, sc),
        QExpr::Path { base, steps } => {
            let (mut e, mut ty) = tx_expr(base, tc, sc)?;
            for step in steps {
                (e, ty) = navigate(e, ty, step, tc, sc)?;
            }
            Ok((e, ty))
        }
        QExpr::SetLit(items) => {
            if items.is_empty() {
                return Ok((
                    Expr::lit(Value::set([])),
                    SchemaType::set(SchemaType::Tup(vec![])),
                ));
            }
            let mut parts = Vec::with_capacity(items.len());
            let mut elem_ty = None;
            for it in items {
                let (e, ty) = tx_expr(it, tc, sc)?;
                elem_ty.get_or_insert(ty);
                parts.push(e.make_set());
            }
            let mut iter = parts.into_iter();
            let first = iter.next().expect("non-empty");
            let set = iter.fold(first, |acc, p| acc.add_union(p));
            Ok((set, SchemaType::set(elem_ty.expect("non-empty"))))
        }
        QExpr::ArrLit(items) => {
            if items.is_empty() {
                return Ok((
                    Expr::lit(Value::array([])),
                    SchemaType::array(SchemaType::Tup(vec![])),
                ));
            }
            let mut parts = Vec::with_capacity(items.len());
            let mut elem_ty = None;
            for it in items {
                let (e, ty) = tx_expr(it, tc, sc)?;
                elem_ty.get_or_insert(ty);
                parts.push(e.make_arr());
            }
            let mut iter = parts.into_iter();
            let first = iter.next().expect("non-empty");
            let arr = iter.fold(first, |acc, p| acc.arr_cat(p));
            Ok((arr, SchemaType::array(elem_ty.expect("non-empty"))))
        }
        QExpr::TupLit(fs) => {
            if fs.is_empty() {
                return Ok((
                    Expr::lit(Value::Tuple(excess_types::Tuple::empty())),
                    SchemaType::Tup(vec![]),
                ));
            }
            let mut parts = Vec::with_capacity(fs.len());
            let mut tys = Vec::with_capacity(fs.len());
            for (n, v) in fs {
                let (e, ty) = tx_expr(v, tc, sc)?;
                parts.push(e.make_tup(n.clone()));
                tys.push((n.clone(), ty));
            }
            let mut iter = parts.into_iter();
            let first = iter.next().expect("non-empty");
            let tup = iter.fold(first, |acc, p| acc.tup_cat(p));
            Ok((tup, SchemaType::Tup(tys)))
        }
        QExpr::Neg(inner) => {
            let (e, ty) = tx_expr(inner, tc, sc)?;
            Ok((Expr::call(Func::Neg, vec![e]), ty))
        }
        QExpr::Binary { op, l, r } => tx_binary(*op, l, r, tc, sc),
        QExpr::Call { name, args } => tx_call(name, args, tc, sc),
        QExpr::Aggregate {
            func,
            arg,
            from,
            filter,
        } => {
            let sub = Retrieve {
                unique: false,
                targets: vec![Target {
                    label: None,
                    expr: (**arg).clone(),
                }],
                from: from.clone(),
                filter: filter.clone(),
                by: None,
                into: None,
            };
            let (plan, sub_ty) = translate_retrieve_in(&sub, tc, Some(sc))?;
            let elem = match resolve_ty(&sub_ty, tc.registry)? {
                SchemaType::Set(e) => *e,
                other => other, // zero-variable aggregate over a bare value
            };
            let (f, out_ty) = aggregate_func(func, &elem)?;
            Ok((Expr::call(f, vec![plan]), out_ty))
        }
        QExpr::SubRetrieve(r) => {
            if r.into.is_some() {
                return Err(terr("`into` is not allowed in a sub-retrieve"));
            }
            translate_retrieve_in(r, tc, Some(sc))
        }
    }
}

fn aggregate_func(name: &str, elem: &SchemaType) -> LangResult<(Func, SchemaType)> {
    Ok(match name {
        "min" => (Func::Min, elem.clone()),
        "max" => (Func::Max, elem.clone()),
        "count" => (Func::Count, SchemaType::int4()),
        "sum" => (Func::Sum, elem.clone()),
        "avg" => (Func::Avg, SchemaType::float4()),
        other => return Err(terr(format!("unknown aggregate `{other}`"))),
    })
}

fn resolve_name(
    name: &str,
    tc: &TranslateCtx<'_>,
    sc: &mut RScope<'_>,
) -> LangResult<(Expr, SchemaType)> {
    // 1. range variables (innermost scope first — shadowing).
    if let Some(hit) = sc.lookup(name) {
        return Ok(hit);
    }
    // 2. method formal parameters.
    if let Some((_, ty)) = tc.params.iter().find(|(p, _)| p == name) {
        return Ok((arg_placeholder(name), ty.clone()));
    }
    // 3. session `range of` declarations — instantiate lazily.
    if let Some(src) = tc.ranges.get(name) {
        let (e, ty) = tx_expr(&src.clone(), tc, sc)?;
        push_explicit_var(sc, name, e, ty, tc)?;
        return Ok(sc.lookup(name).expect("just pushed"));
    }
    // 4. named top-level objects.
    if let Some(schema) = tc.schemas.object_schema(name) {
        return Ok((Expr::named(name), schema));
    }
    Err(terr(format!("unknown name `{name}`")))
}

/// Navigate one path step, inserting DEREFs, implicit variables, method
/// inlining/dispatch, and array maps as the types demand.
fn navigate(
    mut e: Expr,
    mut ty: SchemaType,
    step: &Step,
    tc: &TranslateCtx<'_>,
    sc: &mut RScope<'_>,
) -> LangResult<(Expr, SchemaType)> {
    // Implicit dereference: a ref navigates as its referent.
    while let SchemaType::Ref(target) = resolve_ty(&ty, tc.registry)? {
        e = e.deref();
        ty = SchemaType::named(target);
    }
    let structural = resolve_ty(&ty, tc.registry)?;
    match step {
        Step::Field(f) => match structural {
            SchemaType::Tup(fields) => {
                if let Some((_, fty)) = fields.iter().find(|(n, _)| n == f) {
                    return Ok((e.extract(f.clone()), fty.clone()));
                }
                // `age` virtual field: computable from `birthday`.
                if f == "age"
                    && fields
                        .iter()
                        .any(|(n, t)| n == "birthday" && *t == SchemaType::date())
                {
                    return Ok((
                        Expr::call(Func::Age, vec![e.extract("birthday")]),
                        SchemaType::int4(),
                    ));
                }
                // Zero-argument method as a virtual field.
                if let SchemaType::Named(n) = &ty {
                    if tc.methods.resolve(tc.registry, f, n).is_some() {
                        return invoke_method(e, ty.clone(), f, &[], tc, sc);
                    }
                }
                Err(terr(format!("no field or method `{f}` on {ty}")))
            }
            SchemaType::Set(elem) => {
                // QUEL tuple-variable semantics: navigating into a multiset
                // binds an implicit range variable over it.
                let (var, elem_ty) = implicit_var(sc, e, *elem);
                navigate(var, elem_ty, step, tc, sc)
            }
            SchemaType::Arr { elem, .. } => {
                // Arrays map in place, order preserved (uniform interface).
                let (body, body_ty) = navigate(Expr::input(), (*elem).clone(), step, tc, sc)?;
                Ok((e.arr_apply(body), SchemaType::array(body_ty)))
            }
            other => Err(terr(format!("cannot navigate `.{f}` into {other}"))),
        },
        Step::Index(idx) => match structural {
            SchemaType::Arr { elem, .. } => {
                let b = match idx {
                    IndexExpr::At(n) => Bound::At(*n),
                    IndexExpr::Last => Bound::Last,
                };
                Ok((Expr::ArrExtract(Box::new(e), b), (*elem).clone()))
            }
            other => Err(terr(format!("cannot index into {other}"))),
        },
        Step::Method { name, args } => match structural {
            SchemaType::Tup(_) => invoke_method(e, ty.clone(), name, args, tc, sc),
            SchemaType::Set(elem) => {
                let (var, elem_ty) = implicit_var(sc, e, *elem);
                navigate(var, elem_ty, step, tc, sc)
            }
            other => Err(terr(format!("cannot invoke `.{name}()` on {other}"))),
        },
    }
}

/// Inline (single implementation) or dispatch (overridden) a method call.
fn invoke_method(
    receiver: Expr,
    receiver_ty: SchemaType,
    name: &str,
    args: &[QExpr],
    tc: &TranslateCtx<'_>,
    sc: &mut RScope<'_>,
) -> LangResult<(Expr, SchemaType)> {
    let SchemaType::Named(ty_name) = &receiver_ty else {
        return Err(terr(format!(
            "method `{name}` requires a receiver of a named type, found {receiver_ty}"
        )));
    };
    let impls: Vec<_> = tc
        .methods
        .relevant_impls(tc.registry, name, ty_name)
        .into_iter()
        .cloned()
        .collect();
    if impls.is_empty() {
        return Err(terr(format!("no method `{name}` on type `{ty_name}`")));
    }
    let sig = &impls[0];
    if args.len() != sig.params.len() {
        return Err(terr(format!(
            "method `{name}` takes {} arguments, {} given",
            sig.params.len(),
            args.len()
        )));
    }
    let mut actuals = Vec::with_capacity(args.len());
    for ((pname, _), a) in sig.params.iter().zip(args) {
        let (e, _) = tx_expr(a, tc, sc)?;
        actuals.push((pname.clone(), e));
    }
    let returns = sig.returns.clone();
    if impls.len() == 1 {
        // Plug the stored query tree in and let the optimizer at it.
        let body = substitute_args(&impls[0].body, &actuals);
        return Ok((Expr::beta_apply(&body, &receiver), returns));
    }
    // Overridden: per-receiver run-time dispatch via a singleton set and a
    // switch table; `the` unwraps the one result.  The optimizer can
    // rewrite an enclosing SET_APPLY of this shape into a whole-set switch
    // or the ⊎-based plan of Figure 5 (see `excess-optimizer`).
    let table = impls
        .iter()
        .map(|m| (m.owner.clone(), substitute_args(&m.body, &actuals)))
        .collect();
    let switched = Expr::SetApplySwitch {
        input: Box::new(receiver.make_set()),
        table,
    };
    Ok((Expr::call(Func::The, vec![switched]), returns))
}

fn tx_binary(
    op: BinOp,
    l: &QExpr,
    r: &QExpr,
    tc: &TranslateCtx<'_>,
    sc: &mut RScope<'_>,
) -> LangResult<(Expr, SchemaType)> {
    let (le, lty) = tx_expr(l, tc, sc)?;
    let (re, rty) = tx_expr(r, tc, sc)?;
    let ls = resolve_ty(&lty, tc.registry)?;
    let rs = resolve_ty(&rty, tc.registry)?;
    let both_sets = matches!(ls, SchemaType::Set(_)) && matches!(rs, SchemaType::Set(_));
    let both_arrays = matches!(ls, SchemaType::Arr { .. }) && matches!(rs, SchemaType::Arr { .. });
    let numeric_ty = |a: &SchemaType, b: &SchemaType| {
        if *a == SchemaType::int4() && *b == SchemaType::int4() {
            SchemaType::int4()
        } else {
            SchemaType::float4()
        }
    };
    Ok(match op {
        BinOp::Add => (Expr::call(Func::Add, vec![le, re]), numeric_ty(&ls, &rs)),
        BinOp::Div => (Expr::call(Func::Div, vec![le, re]), numeric_ty(&ls, &rs)),
        BinOp::Mul => (Expr::call(Func::Mul, vec![le, re]), numeric_ty(&ls, &rs)),
        BinOp::Sub => {
            if both_sets {
                (le.diff(re), lty)
            } else if both_arrays {
                (Expr::ArrDiff(Box::new(le), Box::new(re)), lty)
            } else {
                (Expr::call(Func::Sub, vec![le, re]), numeric_ty(&ls, &rs))
            }
        }
        BinOp::Union if both_sets => (Expr::Union(Box::new(le), Box::new(re)), lty),
        BinOp::Intersect if both_sets => (Expr::Intersect(Box::new(le), Box::new(re)), lty),
        BinOp::Uplus if both_sets => (le.add_union(re), lty),
        BinOp::Times if both_sets => {
            let (SchemaType::Set(a), SchemaType::Set(b)) = (ls, rs) else {
                unreachable!()
            };
            (
                le.cross(re),
                SchemaType::set(SchemaType::tuple([("fst", *a), ("snd", *b)])),
            )
        }
        BinOp::Times if both_arrays => {
            let (SchemaType::Arr { elem: a, .. }, SchemaType::Arr { elem: b, .. }) = (ls, rs)
            else {
                unreachable!()
            };
            (
                Expr::ArrCross(Box::new(le), Box::new(re)),
                SchemaType::array(SchemaType::tuple([("fst", *a), ("snd", *b)])),
            )
        }
        BinOp::Union | BinOp::Intersect | BinOp::Uplus | BinOp::Times => {
            return Err(terr(format!(
                "`{op:?}` requires two multisets (or arrays for `times`), found {lty} and {rty}"
            )))
        }
    })
}

fn tx_call(
    name: &str,
    args: &[QExpr],
    tc: &TranslateCtx<'_>,
    sc: &mut RScope<'_>,
) -> LangResult<(Expr, SchemaType)> {
    let arity = |n: usize| -> LangResult<()> {
        if args.len() == n {
            Ok(())
        } else {
            Err(terr(format!(
                "`{name}` takes {n} arguments, {} given",
                args.len()
            )))
        }
    };
    let ident_arg = |q: &QExpr| -> LangResult<String> {
        match q {
            QExpr::Var(s) => Ok(s.clone()),
            other => Err(terr(format!(
                "expected an identifier argument, found {other:?}"
            ))),
        }
    };
    let bound_arg = |q: &QExpr| -> LangResult<Bound> {
        match q {
            QExpr::Int(i) if *i >= 1 => Ok(Bound::At(*i as usize)),
            QExpr::Var(s) if s == "last" => Ok(Bound::Last),
            other => Err(terr(format!(
                "expected index ≥ 1 or `last`, found {other:?}"
            ))),
        }
    };
    match name {
        "the" => {
            arity(1)?;
            let (e, ty) = tx_expr(&args[0], tc, sc)?;
            let elem = match resolve_ty(&ty, tc.registry)? {
                SchemaType::Set(e) => *e,
                other => return Err(terr(format!("the() needs a multiset, found {other}"))),
            };
            Ok((Expr::call(Func::The, vec![e]), elem))
        }
        "de" => {
            arity(1)?;
            let (e, ty) = tx_expr(&args[0], tc, sc)?;
            match resolve_ty(&ty, tc.registry)? {
                SchemaType::Set(_) => Ok((e.dup_elim(), ty)),
                SchemaType::Arr { .. } => Ok((Expr::ArrDupElim(Box::new(e)), ty)),
                other => Err(terr(format!("de() needs a collection, found {other}"))),
            }
        }
        "collapse" => {
            arity(1)?;
            let (e, ty) = tx_expr(&args[0], tc, sc)?;
            match resolve_ty(&ty, tc.registry)? {
                SchemaType::Set(inner) => Ok((e.set_collapse(), *inner)),
                SchemaType::Arr { elem, .. } => Ok((Expr::ArrCollapse(Box::new(e)), *elem)),
                other => Err(terr(format!(
                    "collapse() needs a collection, found {other}"
                ))),
            }
        }
        "subarr" => {
            arity(3)?;
            let (e, ty) = tx_expr(&args[0], tc, sc)?;
            let lo = bound_arg(&args[1])?;
            let hi = bound_arg(&args[2])?;
            Ok((e.subarr(lo, hi), ty))
        }
        "arr_extract" => {
            arity(2)?;
            let (e, ty) = tx_expr(&args[0], tc, sc)?;
            let b = bound_arg(&args[1])?;
            let elem = match resolve_ty(&ty, tc.registry)? {
                SchemaType::Arr { elem, .. } => *elem,
                other => return Err(terr(format!("arr_extract() needs an array, found {other}"))),
            };
            Ok((Expr::ArrExtract(Box::new(e), b), elem))
        }
        "arr_cat" => {
            arity(2)?;
            let (a, ty) = tx_expr(&args[0], tc, sc)?;
            let (b, _) = tx_expr(&args[1], tc, sc)?;
            Ok((a.arr_cat(b), ty))
        }
        "arr_diff" => {
            arity(2)?;
            let (a, ty) = tx_expr(&args[0], tc, sc)?;
            let (b, _) = tx_expr(&args[1], tc, sc)?;
            Ok((Expr::ArrDiff(Box::new(a), Box::new(b)), ty))
        }
        "tupcat" => {
            arity(2)?;
            let (a, aty) = tx_expr(&args[0], tc, sc)?;
            let (b, bty) = tx_expr(&args[1], tc, sc)?;
            let fields = match (
                resolve_ty(&aty, tc.registry)?,
                resolve_ty(&bty, tc.registry)?,
            ) {
                (SchemaType::Tup(mut fa), SchemaType::Tup(fb)) => {
                    for (n, t) in fb {
                        let mut nn = n;
                        while fa.iter().any(|(m, _)| *m == nn) {
                            nn.push('\'');
                        }
                        fa.push((nn, t));
                    }
                    SchemaType::Tup(fa)
                }
                (a, b) => return Err(terr(format!("tupcat() needs tuples, found {a} and {b}"))),
            };
            Ok((a.tup_cat(b), fields))
        }
        "project" => {
            if args.len() < 2 {
                return Err(terr("project() needs an expression and field names"));
            }
            let (e, ty) = tx_expr(&args[0], tc, sc)?;
            let names: Vec<String> = args[1..].iter().map(ident_arg).collect::<LangResult<_>>()?;
            let out_ty = match resolve_ty(&ty, tc.registry)? {
                SchemaType::Tup(fs) => SchemaType::Tup(
                    names
                        .iter()
                        .map(|n| {
                            fs.iter()
                                .find(|(m, _)| m == n)
                                .map(|(m, t)| (m.clone(), t.clone()))
                                .ok_or_else(|| terr(format!("project(): no field `{n}`")))
                        })
                        .collect::<LangResult<_>>()?,
                ),
                other => return Err(terr(format!("project() needs a tuple, found {other}"))),
            };
            Ok((e.project(names), out_ty))
        }
        "mkref" => {
            arity(2)?;
            let (e, _) = tx_expr(&args[0], tc, sc)?;
            let ty_name = ident_arg(&args[1])?;
            tc.registry.lookup(&ty_name)?;
            Ok((e.make_ref(ty_name.clone()), SchemaType::reference(ty_name)))
        }
        "deref" => {
            arity(1)?;
            let (e, ty) = tx_expr(&args[0], tc, sc)?;
            match resolve_ty(&ty, tc.registry)? {
                SchemaType::Ref(t) => Ok((e.deref(), SchemaType::named(t))),
                other => Err(terr(format!("deref() needs a ref, found {other}"))),
            }
        }
        "exact" => {
            if args.len() < 2 {
                return Err(terr("exact() needs an expression and type names"));
            }
            let (e, _) = tx_expr(&args[0], tc, sc)?;
            let tys: Vec<String> = args[1..].iter().map(ident_arg).collect::<LangResult<_>>()?;
            for t in &tys {
                tc.registry.lookup(t)?;
            }
            let elem = SchemaType::named(tys[0].clone());
            Ok((e.set_apply_only(tys, Expr::input()), SchemaType::set(elem)))
        }
        "date" => {
            arity(3)?;
            let mut nums = [0i64; 3];
            for (i, a) in args.iter().enumerate() {
                match a {
                    QExpr::Int(v) => nums[i] = *v,
                    other => {
                        return Err(terr(format!(
                            "date() takes integer literals, found {other:?}"
                        )))
                    }
                }
            }
            let d = excess_types::Date::new(nums[0] as i32, nums[1] as u8, nums[2] as u8)
                .ok_or_else(|| terr(format!("invalid date {nums:?}")))?;
            Ok((Expr::lit(Value::date(d)), SchemaType::date()))
        }
        "age" => {
            arity(1)?;
            let (e, _) = tx_expr(&args[0], tc, sc)?;
            Ok((Expr::call(Func::Age, vec![e]), SchemaType::int4()))
        }
        "min" | "max" | "count" | "sum" | "avg" => {
            arity(1)?;
            let (e, ty) = tx_expr(&args[0], tc, sc)?;
            let elem = match resolve_ty(&ty, tc.registry)? {
                SchemaType::Set(e) => *e,
                SchemaType::Arr { elem, .. } => *elem,
                other => return Err(terr(format!("`{name}` needs a collection, found {other}"))),
            };
            let (f, out) = aggregate_func(name, &elem)?;
            Ok((Expr::call(f, vec![e]), out))
        }
        other => Err(terr(format!("unknown function `{other}`"))),
    }
}

fn tx_pred(p: &QPred, tc: &TranslateCtx<'_>, sc: &mut RScope<'_>) -> LangResult<Pred> {
    Ok(match p {
        QPred::Cmp { l, op, r } => {
            let (le, _) = tx_expr(l, tc, sc)?;
            let (re, _) = tx_expr(r, tc, sc)?;
            let aop = match op {
                CmpOp::Eq => ACmp::Eq,
                CmpOp::Ne => ACmp::Ne,
                CmpOp::Lt => ACmp::Lt,
                CmpOp::Le => ACmp::Le,
                CmpOp::Gt => ACmp::Gt,
                CmpOp::Ge => ACmp::Ge,
                CmpOp::In => ACmp::In,
            };
            Pred::cmp(le, aop, re)
        }
        QPred::And(a, b) => tx_pred(a, tc, sc)?.and(tx_pred(b, tc, sc)?),
        // a ∨ b ≡ ¬(¬a ∧ ¬b): the algebra's predicates have only ∧ and ¬.
        QPred::Or(a, b) => Pred::Not(Box::new(
            tx_pred(a, tc, sc)?.not().and(tx_pred(b, tc, sc)?.not()),
        )),
        QPred::Not(q) => tx_pred(q, tc, sc)?.not(),
    })
}

// ---------------------------------------------------------------------
// Assembly: variables → nested SET_APPLY binders, placeholders → INPUT
// ---------------------------------------------------------------------

fn assemble(
    vars: Vec<RVar>,
    target: Expr,
    target_ty: SchemaType,
    by: Option<Expr>,
    pred: Option<Pred>,
    unique: bool,
) -> LangResult<(Expr, SchemaType)> {
    let vars = topo_sort(vars)?;

    // Array semantics: a single array-ranged variable maps in order.
    if vars.iter().any(|v| v.is_array) {
        if vars.len() != 1 || by.is_some() {
            return Err(terr(
                "an array range variable must be the sole variable and cannot be grouped",
            ));
        }
        let v = &vars[0];
        let inner = match pred {
            Some(p) => target.comp(p),
            None => target,
        };
        let body = resolve_placeholders(&inner, std::slice::from_ref(&v.key), 0);
        let src = resolve_placeholders(&v.source, &[], 0);
        let mut plan = Expr::ArrApply {
            input: Box::new(src),
            body: Box::new(body),
        };
        if unique {
            plan = Expr::ArrDupElim(Box::new(plan));
        }
        return Ok((plan, SchemaType::array(target_ty)));
    }

    if vars.is_empty() {
        // Zero range variables: the bare target (the proof's base case —
        // `retrieve (R) into E` denotes R itself).
        let mut plan = match pred {
            Some(p) => target.comp(p),
            None => target,
        };
        if unique {
            plan = plan.dup_elim();
        }
        return Ok((plan, target_ty));
    }

    let n = vars.len();
    match by {
        None => {
            let inner = match pred {
                Some(p) => target.comp(p),
                None => target,
            };
            let mut plan = build_nested(&vars, &inner);
            for _ in 1..n {
                plan = plan.set_collapse();
            }
            if unique {
                plan = plan.dup_elim();
            }
            Ok((plan, SchemaType::set(target_ty)))
        }
        Some(by_expr) => {
            // Materialise combination tuples (one field per variable), GRP
            // them, then project the targets inside each group (Figure 6's
            // join → GRP → π → DE pipeline).
            let mut parts = vars
                .iter()
                .map(|v| var_placeholder(&v.key).make_tup(v.key.clone()));
            let first = parts.next().expect("non-empty");
            let combo = parts.fold(first, |acc, p| acc.tup_cat(p));
            let inner = match pred {
                Some(p) => combo.comp(p),
                None => combo,
            };
            let mut combos = build_nested(&vars, &inner);
            for _ in 1..n {
                combos = combos.set_collapse();
            }
            let keys: Vec<String> = vars.iter().map(|v| v.key.clone()).collect();
            let by_c = resolve_combo(&by_expr, &keys, 0);
            let target_c = resolve_combo(&target, &keys, 0);
            let mut group_body = Expr::input().set_apply(target_c);
            if unique {
                group_body = group_body.dup_elim();
            }
            let plan = combos.group_by(by_c).set_apply(group_body);
            Ok((plan, SchemaType::set(SchemaType::set(target_ty))))
        }
    }
}

/// Stable topological sort of variables by source-placeholder dependency.
fn topo_sort(vars: Vec<RVar>) -> LangResult<Vec<RVar>> {
    let keys: Vec<String> = vars.iter().map(|v| v.key.clone()).collect();
    let mut placed: Vec<RVar> = Vec::with_capacity(vars.len());
    let mut pending: Vec<RVar> = vars;
    while !pending.is_empty() {
        let ready = pending.iter().position(|v| {
            // Every same-scope placeholder this source mentions is placed.
            keys.iter().all(|k| {
                k == &v.key
                    || !mentions_placeholder(&v.source, k)
                    || placed.iter().any(|p| &p.key == k)
            })
        });
        match ready {
            Some(i) => placed.push(pending.remove(i)),
            None => {
                return Err(terr("cyclic dependency among range variables"));
            }
        }
    }
    Ok(placed)
}

fn mentions_placeholder(e: &Expr, key: &str) -> bool {
    if let Expr::Named(n) = e {
        if let Some(k) = n.strip_prefix("$var:") {
            return k == key;
        }
    }
    e.children().iter().any(|c| mentions_placeholder(c, key))
}

fn build_nested(vars: &[RVar], inner: &Expr) -> Expr {
    fn go(vars: &[RVar], idx: usize, stack: &mut Vec<String>, inner: &Expr) -> Expr {
        if idx == vars.len() {
            return resolve_placeholders(inner, stack, 0);
        }
        let src = resolve_placeholders(&vars[idx].source, stack, 0);
        stack.push(vars[idx].key.clone());
        let body = go(vars, idx + 1, stack, inner);
        stack.pop();
        src.set_apply(body)
    }
    let mut stack = Vec::new();
    go(vars, 0, &mut stack, inner)
}

/// Replace `$var:` placeholders with De Bruijn `INPUT`s.  `stack` lists the
/// binder keys (outermost first); `local` counts binders crossed inside
/// the expression being resolved.
fn resolve_placeholders(e: &Expr, stack: &[String], local: usize) -> Expr {
    if let Expr::Named(n) = e {
        if let Some(key) = n.strip_prefix("$var:") {
            if let Some(pos) = stack.iter().rposition(|k| k == key) {
                let depth = local + (stack.len() - 1 - pos);
                return Expr::Input(depth);
            }
            return e.clone(); // an enclosing scope's variable — resolved later
        }
    }
    with_binder_tracking(e, &mut |child, extra| {
        resolve_placeholders(child, stack, local + extra)
    })
}

/// Replace this-scope `$var:` placeholders with combo-tuple extractions:
/// `TUP_EXTRACT_key(INPUT(local))`.
fn resolve_combo(e: &Expr, keys: &[String], local: usize) -> Expr {
    if let Expr::Named(n) = e {
        if let Some(key) = n.strip_prefix("$var:") {
            if keys.iter().any(|k| k == key) {
                return Expr::Input(local).extract(key.to_string());
            }
            return e.clone();
        }
    }
    with_binder_tracking(e, &mut |child, extra| {
        resolve_combo(child, keys, local + extra)
    })
}

/// Rebuild a node, applying `f(child, binders_crossed)` to every direct
/// child — the binder-aware analog of [`Expr::map_children`].
fn with_binder_tracking(e: &Expr, f: &mut dyn FnMut(&Expr, usize) -> Expr) -> Expr {
    match e {
        Expr::SetApply {
            input,
            body,
            only_types,
        } => Expr::SetApply {
            input: Box::new(f(input, 0)),
            body: Box::new(f(body, 1)),
            only_types: only_types.clone(),
        },
        Expr::ArrApply { input, body } => Expr::ArrApply {
            input: Box::new(f(input, 0)),
            body: Box::new(f(body, 1)),
        },
        Expr::Group { input, by } => Expr::Group {
            input: Box::new(f(input, 0)),
            by: Box::new(f(by, 1)),
        },
        Expr::Comp { input, pred } => Expr::Comp {
            input: Box::new(f(input, 0)),
            pred: pred.map_exprs(&mut |x| f(x, 1)),
        },
        Expr::Select { input, pred } => Expr::Select {
            input: Box::new(f(input, 0)),
            pred: pred.map_exprs(&mut |x| f(x, 1)),
        },
        Expr::ArrSelect { input, pred } => Expr::ArrSelect {
            input: Box::new(f(input, 0)),
            pred: pred.map_exprs(&mut |x| f(x, 1)),
        },
        Expr::RelJoin { left, right, pred } => Expr::RelJoin {
            left: Box::new(f(left, 0)),
            right: Box::new(f(right, 0)),
            pred: pred.map_exprs(&mut |x| f(x, 1)),
        },
        Expr::SetApplySwitch { input, table } => Expr::SetApplySwitch {
            input: Box::new(f(input, 0)),
            table: table.iter().map(|(t, b)| (t.clone(), f(b, 1))).collect(),
        },
        other => other.map_children(&mut |c| f(c, 0)),
    }
}

/// Resolve `$this` in a stored method body to `Input(depth)` relative to
/// the body's own root binder.
pub fn resolve_this(e: &Expr) -> Expr {
    fn go(e: &Expr, local: usize) -> Expr {
        if let Expr::Named(n) = e {
            if n == "$this" {
                return Expr::Input(local);
            }
        }
        with_binder_tracking(e, &mut |child, extra| go(child, local + extra))
    }
    go(e, 0)
}
