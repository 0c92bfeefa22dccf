//! Output-schema inference for algebra expressions.
//!
//! Given the schemas of the named top-level objects (and of any enclosing
//! binders), every operator of the algebra determines its output schema —
//! that closure property is what makes the algebra an algebra.  The
//! decompiler (equipollence direction ii) uses this to emit the
//! `define type` statements the proof's `ARR_APPLY` case needs, and the
//! optimizer uses the coarse sort to restrict which rules apply ("if the
//! optimizer is examining a node … that operates on a multiset, the rules
//! regarding arrays need not be applied").

use crate::expr::{Expr, Func, Pred};
use crate::profile::{path_string, NodePath};
use excess_types::{SchemaType, TypeRegistry, Value};
use std::fmt;

/// Inference failure: a human-readable reason plus the path of the node it
/// was detected at (child indices from the root, [`Expr::children`] order —
/// the same scheme the optimizer's `neighbors_at` and the profiler use).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InferError {
    /// Where in the plan the failure was detected.
    pub path: NodePath,
    /// What went wrong.
    pub message: String,
}

impl InferError {
    /// Build an error at the given node path.
    pub fn new(path: NodePath, message: impl Into<String>) -> Self {
        InferError {
            path,
            message: message.into(),
        }
    }
}

impl fmt::Display for InferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "type inference failed at {}: {}",
            path_string(&self.path),
            self.message
        )
    }
}

impl std::error::Error for InferError {}

/// Schema source for named top-level objects.
pub trait SchemaCatalog {
    /// The declared schema of the named object, if known.
    fn object_schema(&self, name: &str) -> Option<SchemaType>;
}

impl SchemaCatalog for std::collections::HashMap<String, SchemaType> {
    fn object_schema(&self, name: &str) -> Option<SchemaType> {
        self.get(name).cloned()
    }
}

/// The coarse sort of a schema — the "many sorted" classification used by
/// the optimizer's applicability filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sort {
    /// Multiset sort.
    Set,
    /// Array sort.
    Arr,
    /// Tuple sort.
    Tup,
    /// Reference sort.
    Ref,
    /// Scalar ("val") sort.
    Val,
}

/// The coarse sort of a schema type (named types resolve through `reg`).
pub fn sort_of(t: &SchemaType, reg: &TypeRegistry) -> Option<Sort> {
    match t {
        SchemaType::Val(_) => Some(Sort::Val),
        SchemaType::Tup(_) => Some(Sort::Tup),
        SchemaType::Set(_) => Some(Sort::Set),
        SchemaType::Arr { .. } => Some(Sort::Arr),
        SchemaType::Ref(_) => Some(Sort::Ref),
        SchemaType::Named(n) => {
            let id = reg.lookup(n).ok()?;
            sort_of(reg.full_body(id), reg)
        }
    }
}

/// Synthesise the schema of a literal value.  Empty collections get an
/// empty-tuple element type (no information is available; the choice is
/// harmless because no element exists to violate it).
pub fn value_schema(v: &Value, reg: &TypeRegistry) -> SchemaType {
    match v {
        Value::Scalar(s) => SchemaType::Val(s.scalar_type()),
        Value::Null(_) => SchemaType::Tup(vec![]), // no better information
        Value::Tuple(t) => SchemaType::Tup(
            t.iter()
                .map(|(n, fv)| (n.to_string(), value_schema(fv, reg)))
                .collect(),
        ),
        Value::Set(s) => {
            let elem = s
                .iter_counted()
                .next()
                .map(|(e, _)| value_schema(e, reg))
                .unwrap_or(SchemaType::Tup(vec![]));
            SchemaType::set(elem)
        }
        Value::Array(a) => {
            let elem = a
                .first()
                .map(|e| value_schema(e, reg))
                .unwrap_or(SchemaType::Tup(vec![]));
            SchemaType::array(elem)
        }
        Value::Ref(oid) => SchemaType::reference(reg.name_of(oid.minted)),
    }
}

/// Resolve `Named` one level so structure is visible.  Errors are
/// attributed to the node at `path`.
fn resolve(t: SchemaType, reg: &TypeRegistry, path: &[usize]) -> Result<SchemaType, InferError> {
    match t {
        SchemaType::Named(n) => {
            let id = reg
                .lookup(&n)
                .map_err(|e| InferError::new(path.to_vec(), e.to_string()))?;
            Ok(reg.full_body(id).clone())
        }
        other => Ok(other),
    }
}

fn elem_of_set(
    t: SchemaType,
    reg: &TypeRegistry,
    op: &str,
    path: &[usize],
) -> Result<SchemaType, InferError> {
    match resolve(t, reg, path)? {
        SchemaType::Set(e) => Ok(*e),
        other => Err(InferError::new(
            path.to_vec(),
            format!("{op}: expected multiset, found {other}"),
        )),
    }
}

fn elem_of_arr(
    t: SchemaType,
    reg: &TypeRegistry,
    op: &str,
    path: &[usize],
) -> Result<SchemaType, InferError> {
    match resolve(t, reg, path)? {
        SchemaType::Arr { elem, .. } => Ok(*elem),
        other => Err(InferError::new(
            path.to_vec(),
            format!("{op}: expected array, found {other}"),
        )),
    }
}

fn fields_of(
    t: SchemaType,
    reg: &TypeRegistry,
    op: &str,
    path: &[usize],
) -> Result<Vec<(String, SchemaType)>, InferError> {
    match resolve(t, reg, path)? {
        SchemaType::Tup(fs) => Ok(fs),
        other => Err(InferError::new(
            path.to_vec(),
            format!("{op}: expected tuple, found {other}"),
        )),
    }
}

/// Concatenate tuple field lists with the same clash-priming rule as
/// [`excess_types::Tuple::cat`].
pub(crate) fn cat_fields(
    mut a: Vec<(String, SchemaType)>,
    b: Vec<(String, SchemaType)>,
) -> Vec<(String, SchemaType)> {
    for (n, t) in b {
        let mut name = n;
        while a.iter().any(|(m, _)| *m == name) {
            name.push('\'');
        }
        a.push((name, t));
    }
    a
}

pub(crate) fn numeric_join(a: &SchemaType, b: &SchemaType) -> SchemaType {
    if *a == SchemaType::int4() && *b == SchemaType::int4() {
        SchemaType::int4()
    } else {
        SchemaType::float4()
    }
}

/// Infer the output schema of `e`.  `env` holds binder element schemas
/// (innermost last).  Failures carry the node path of the offending node.
pub fn infer(
    e: &Expr,
    env: &mut Vec<SchemaType>,
    cat: &dyn SchemaCatalog,
    reg: &TypeRegistry,
) -> Result<SchemaType, InferError> {
    let mut path = NodePath::new();
    infer_at(e, env, cat, reg, &mut path)
}

/// Infer the `i`-th child (pushing/popping its index on `path`).
fn child(
    e: &Expr,
    env: &mut Vec<SchemaType>,
    cat: &dyn SchemaCatalog,
    reg: &TypeRegistry,
    path: &mut NodePath,
    i: usize,
) -> Result<SchemaType, InferError> {
    path.push(i);
    let r = infer_at(e, env, cat, reg, path);
    path.pop();
    r
}

/// [`infer`] with an explicit position: `path` is where `e` itself sits in
/// the enclosing plan (child indices in [`Expr::children`] order), so
/// errors anywhere below are attributed to their exact node.
pub fn infer_at(
    e: &Expr,
    env: &mut Vec<SchemaType>,
    cat: &dyn SchemaCatalog,
    reg: &TypeRegistry,
    path: &mut NodePath,
) -> Result<SchemaType, InferError> {
    let err = |path: &NodePath, msg: String| InferError::new(path.clone(), msg);
    match e {
        Expr::Input(d) => env
            .get(env.len().wrapping_sub(1 + d))
            .cloned()
            .ok_or_else(|| err(path, format!("INPUT^{d} unbound"))),
        Expr::Named(n) => cat
            .object_schema(n)
            .ok_or_else(|| err(path, format!("unknown object `{n}`"))),
        Expr::Const(v) => Ok(value_schema(v, reg)),

        Expr::AddUnion(a, b) | Expr::Diff(a, b) | Expr::Union(a, b) | Expr::Intersect(a, b) => {
            let ta = child(a, env, cat, reg, path, 0)?;
            let tb = child(b, env, cat, reg, path, 1)?;
            let _ = elem_of_set(tb, reg, "set-binop", path)?;
            let _ = elem_of_set(ta.clone(), reg, "set-binop", path)?;
            Ok(ta)
        }
        Expr::MakeSet(a) => Ok(SchemaType::set(child(a, env, cat, reg, path, 0)?)),
        Expr::SetApply {
            input,
            body,
            only_types,
        } => {
            // With a type filter, the element type is the owning type (the
            // first name by convention); otherwise the input's element type.
            let ti = child(input, env, cat, reg, path, 0)?;
            let input_elem = elem_of_set(ti, reg, "SET_APPLY", path)?;
            let elem = match only_types.as_ref().and_then(|ts| ts.first()) {
                Some(t) => SchemaType::named(t.clone()),
                None => input_elem,
            };
            env.push(elem);
            let out = child(body, env, cat, reg, path, 1);
            env.pop();
            Ok(SchemaType::set(out?))
        }
        Expr::Group { input, by } => {
            let elem = elem_of_set(child(input, env, cat, reg, path, 0)?, reg, "GRP", path)?;
            env.push(elem.clone());
            let key = child(by, env, cat, reg, path, 1);
            env.pop();
            key?; // the key type must be well-formed, but is not part of the output
            Ok(SchemaType::set(SchemaType::set(elem)))
        }
        Expr::DupElim(a) => {
            let t = child(a, env, cat, reg, path, 0)?;
            let _ = elem_of_set(t.clone(), reg, "DE", path)?;
            Ok(t)
        }
        Expr::Cross(a, b) => {
            let ea = elem_of_set(child(a, env, cat, reg, path, 0)?, reg, "×", path)?;
            let eb = elem_of_set(child(b, env, cat, reg, path, 1)?, reg, "×", path)?;
            Ok(SchemaType::set(SchemaType::tuple([
                ("fst", ea),
                ("snd", eb),
            ])))
        }
        Expr::SetCollapse(a) => {
            let outer = elem_of_set(child(a, env, cat, reg, path, 0)?, reg, "SET_COLLAPSE", path)?;
            let inner = elem_of_set(outer, reg, "SET_COLLAPSE", path)?;
            Ok(SchemaType::set(inner))
        }

        Expr::Project(a, names) => {
            let fs = fields_of(child(a, env, cat, reg, path, 0)?, reg, "π", path)?;
            let mut out = Vec::with_capacity(names.len());
            for n in names {
                let t = fs
                    .iter()
                    .find(|(m, _)| m == n)
                    .map(|(_, t)| t.clone())
                    .ok_or_else(|| err(path, format!("π: no field `{n}`")))?;
                out.push((n.clone(), t));
            }
            Ok(SchemaType::Tup(out))
        }
        Expr::TupCat(a, b) => {
            let fa = fields_of(child(a, env, cat, reg, path, 0)?, reg, "TUP_CAT", path)?;
            let fb = fields_of(child(b, env, cat, reg, path, 1)?, reg, "TUP_CAT", path)?;
            Ok(SchemaType::Tup(cat_fields(fa, fb)))
        }
        Expr::TupExtract(a, n) => {
            let fs = fields_of(child(a, env, cat, reg, path, 0)?, reg, "TUP_EXTRACT", path)?;
            fs.into_iter()
                .find(|(m, _)| m == n)
                .map(|(_, t)| t)
                .ok_or_else(|| err(path, format!("TUP_EXTRACT: no field `{n}`")))
        }
        Expr::MakeTup(a, n) => Ok(SchemaType::Tup(vec![(
            n.clone(),
            child(a, env, cat, reg, path, 0)?,
        )])),

        Expr::MakeArr(a) => Ok(SchemaType::array(child(a, env, cat, reg, path, 0)?)),
        Expr::ArrExtract(a, _) => {
            elem_of_arr(child(a, env, cat, reg, path, 0)?, reg, "ARR_EXTRACT", path)
        }
        Expr::ArrApply { input, body } => {
            let elem = elem_of_arr(
                child(input, env, cat, reg, path, 0)?,
                reg,
                "ARR_APPLY",
                path,
            )?;
            env.push(elem);
            let out = child(body, env, cat, reg, path, 1);
            env.pop();
            Ok(SchemaType::array(out?))
        }
        Expr::SubArr(a, _, _) | Expr::ArrDupElim(a) => {
            let t = child(a, env, cat, reg, path, 0)?;
            let elem = elem_of_arr(t, reg, "SUBARR", path)?;
            Ok(SchemaType::array(elem))
        }
        Expr::ArrCat(a, b) | Expr::ArrDiff(a, b) => {
            let ta = child(a, env, cat, reg, path, 0)?;
            let _ = elem_of_arr(child(b, env, cat, reg, path, 1)?, reg, "ARR_CAT", path)?;
            let elem = elem_of_arr(ta, reg, "ARR_CAT", path)?;
            Ok(SchemaType::array(elem))
        }
        Expr::ArrCollapse(a) => {
            let outer = elem_of_arr(child(a, env, cat, reg, path, 0)?, reg, "ARR_COLLAPSE", path)?;
            let inner = elem_of_arr(outer, reg, "ARR_COLLAPSE", path)?;
            Ok(SchemaType::array(inner))
        }
        Expr::ArrCross(a, b) => {
            let ea = elem_of_arr(child(a, env, cat, reg, path, 0)?, reg, "ARR_CROSS", path)?;
            let eb = elem_of_arr(child(b, env, cat, reg, path, 1)?, reg, "ARR_CROSS", path)?;
            Ok(SchemaType::array(SchemaType::tuple([
                ("fst", ea),
                ("snd", eb),
            ])))
        }

        Expr::MakeRef(a, ty) => {
            let _ = child(a, env, cat, reg, path, 0)?;
            Ok(SchemaType::reference(ty.clone()))
        }
        Expr::Deref(a) => match resolve(child(a, env, cat, reg, path, 0)?, reg, path)? {
            SchemaType::Ref(n) => Ok(SchemaType::named(n)),
            other => Err(err(path, format!("DEREF: expected ref, found {other}"))),
        },

        Expr::Comp { input, pred } => {
            let t = child(input, env, cat, reg, path, 0)?;
            env.push(t.clone());
            let mut idx = 1;
            let r = check_pred(pred, env, cat, reg, path, &mut idx);
            env.pop();
            r?;
            Ok(t)
        }
        Expr::Select { input, pred } => {
            let t = child(input, env, cat, reg, path, 0)?;
            let elem = elem_of_set(t.clone(), reg, "σ", path)?;
            env.push(elem);
            let mut idx = 1;
            let r = check_pred(pred, env, cat, reg, path, &mut idx);
            env.pop();
            r?;
            Ok(t)
        }
        Expr::ArrSelect { input, pred } => {
            let t = child(input, env, cat, reg, path, 0)?;
            let elem = elem_of_arr(t.clone(), reg, "arr_σ", path)?;
            env.push(elem);
            let mut idx = 1;
            let r = check_pred(pred, env, cat, reg, path, &mut idx);
            env.pop();
            r?;
            Ok(t)
        }
        Expr::RelCross(a, b)
        | Expr::RelJoin {
            left: a, right: b, ..
        } => {
            let ea = elem_of_set(child(a, env, cat, reg, path, 0)?, reg, "rel_×", path)?;
            let eb = elem_of_set(child(b, env, cat, reg, path, 1)?, reg, "rel_×", path)?;
            let fa = fields_of(ea, reg, "rel_×", path)?;
            let fb = fields_of(eb, reg, "rel_×", path)?;
            let joined = SchemaType::Tup(cat_fields(fa, fb));
            if let Expr::RelJoin { pred, .. } = e {
                env.push(joined.clone());
                let mut idx = 2;
                let r = check_pred(pred, env, cat, reg, path, &mut idx);
                env.pop();
                r?;
            }
            Ok(SchemaType::set(joined))
        }

        Expr::Call(f, args) => {
            let mut arg_tys = Vec::with_capacity(args.len());
            for (i, a) in args.iter().enumerate() {
                arg_tys.push(child(a, env, cat, reg, path, i)?);
            }
            match f {
                Func::Add | Func::Sub | Func::Mul | Func::Div => {
                    if arg_tys.len() != 2 {
                        return Err(err(path, "arithmetic needs 2 arguments".into()));
                    }
                    Ok(numeric_join(&arg_tys[0], &arg_tys[1]))
                }
                Func::Neg => arg_tys
                    .into_iter()
                    .next()
                    .ok_or_else(|| err(path, "neg needs 1 arg".into())),
                Func::Count => Ok(SchemaType::int4()),
                Func::Avg => Ok(SchemaType::float4()),
                Func::Age => Ok(SchemaType::int4()),
                Func::The => {
                    let t = arg_tys
                        .into_iter()
                        .next()
                        .ok_or_else(|| err(path, "the arity".into()))?;
                    match resolve(t, reg, path)? {
                        SchemaType::Set(e) => Ok(*e),
                        other => Err(err(path, format!("the() over non-multiset {other}"))),
                    }
                }
                Func::Min | Func::Max | Func::Sum => {
                    let t = arg_tys
                        .into_iter()
                        .next()
                        .ok_or_else(|| err(path, "aggregate arity".into()))?;
                    match resolve(t, reg, path)? {
                        SchemaType::Set(e) => Ok(*e),
                        SchemaType::Arr { elem, .. } => Ok(*elem),
                        other => Err(err(path, format!("aggregate over non-collection {other}"))),
                    }
                }
            }
        }

        Expr::SetApplySwitch { input, table } => {
            let elem = elem_of_set(
                child(input, env, cat, reg, path, 0)?,
                reg,
                "SET_APPLY_SWITCH",
                path,
            )?;
            // Overridden methods "require that the type signatures of all
            // the methods be identical", so the first arm determines the
            // output; remaining arms are checked against their own types.
            let mut result: Option<SchemaType> = None;
            for (i, (ty_name, body)) in table.iter().enumerate() {
                let arm_elem = SchemaType::named(ty_name.clone());
                env.push(arm_elem);
                let out = child(body, env, cat, reg, path, 1 + i);
                env.pop();
                let out = out?;
                if result.is_none() {
                    result = Some(out);
                }
            }
            let out = result.unwrap_or(elem);
            Ok(SchemaType::set(out))
        }
    }
}

/// Check the expressions of a predicate; `idx` is the [`Expr::children`]
/// index the predicate's next expression occupies on the parent operator
/// (predicate expressions follow the operator's structural inputs).
fn check_pred(
    p: &Pred,
    env: &mut Vec<SchemaType>,
    cat: &dyn SchemaCatalog,
    reg: &TypeRegistry,
    path: &mut NodePath,
    idx: &mut usize,
) -> Result<(), InferError> {
    match p {
        Pred::Cmp(l, _, r) => {
            let il = *idx;
            *idx += 1;
            child(l, env, cat, reg, path, il)?;
            let ir = *idx;
            *idx += 1;
            child(r, env, cat, reg, path, ir)?;
            Ok(())
        }
        Pred::And(a, b) => {
            check_pred(a, env, cat, reg, path, idx)?;
            check_pred(b, env, cat, reg, path, idx)
        }
        Pred::Not(q) => check_pred(q, env, cat, reg, path, idx),
    }
}

/// Convenience: infer the schema of a closed expression.
pub fn infer_closed(
    e: &Expr,
    cat: &dyn SchemaCatalog,
    reg: &TypeRegistry,
) -> Result<SchemaType, InferError> {
    let mut env = Vec::new();
    infer(e, &mut env, cat, reg)
}

/// Convenience: the coarse sort of a closed expression's output.
pub fn output_sort(e: &Expr, cat: &dyn SchemaCatalog, reg: &TypeRegistry) -> Option<Sort> {
    sort_of(&infer_closed(e, cat, reg).ok()?, reg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn setup() -> (TypeRegistry, HashMap<String, SchemaType>) {
        let mut reg = TypeRegistry::new();
        reg.define(
            "Dept",
            SchemaType::tuple([("name", SchemaType::chars()), ("floor", SchemaType::int4())]),
        )
        .unwrap();
        reg.define(
            "Emp",
            SchemaType::tuple([
                ("name", SchemaType::chars()),
                ("dept", SchemaType::reference("Dept")),
                ("salary", SchemaType::int4()),
            ]),
        )
        .unwrap();
        let mut cat = HashMap::new();
        cat.insert(
            "Emps".to_string(),
            SchemaType::set(SchemaType::named("Emp")),
        );
        cat.insert(
            "Top".to_string(),
            SchemaType::fixed_array(SchemaType::reference("Emp"), 10),
        );
        (reg, cat)
    }

    #[test]
    fn figure3_plan_types() {
        // π_{name,salary}(DEREF(ARR_EXTRACT_5(Top))) : (name, salary)
        let (reg, cat) = setup();
        let e = Expr::named("Top")
            .arr_extract(5)
            .deref()
            .project(["name", "salary"]);
        let t = infer_closed(&e, &cat, &reg).unwrap();
        assert_eq!(
            t,
            SchemaType::tuple([
                ("name", SchemaType::chars()),
                ("salary", SchemaType::int4())
            ])
        );
    }

    #[test]
    fn set_apply_threads_element_type() {
        let (reg, cat) = setup();
        // SET_APPLY[TUP_EXTRACT_salary(INPUT)](Emps) : { int4 }
        let e = Expr::named("Emps").set_apply(Expr::input().extract("salary"));
        let t = infer_closed(&e, &cat, &reg).unwrap();
        assert_eq!(t, SchemaType::set(SchemaType::int4()));
    }

    #[test]
    fn deref_resolves_to_named_body() {
        let (reg, cat) = setup();
        let e =
            Expr::named("Emps").set_apply(Expr::input().extract("dept").deref().extract("floor"));
        let t = infer_closed(&e, &cat, &reg).unwrap();
        assert_eq!(t, SchemaType::set(SchemaType::int4()));
    }

    #[test]
    fn group_produces_set_of_sets() {
        let (reg, cat) = setup();
        let e = Expr::named("Emps").group_by(Expr::input().extract("salary"));
        let t = infer_closed(&e, &cat, &reg).unwrap();
        assert_eq!(
            t,
            SchemaType::set(SchemaType::set(SchemaType::named("Emp")))
        );
    }

    #[test]
    fn cross_produces_pairs() {
        let (reg, cat) = setup();
        let e = Expr::named("Emps").cross(Expr::named("Emps"));
        let t = infer_closed(&e, &cat, &reg).unwrap();
        assert_eq!(
            t,
            SchemaType::set(SchemaType::tuple([
                ("fst", SchemaType::named("Emp")),
                ("snd", SchemaType::named("Emp")),
            ]))
        );
    }

    #[test]
    fn rel_cross_flattens_with_priming() {
        let (reg, cat) = setup();
        let e = Expr::named("Emps").rel_cross(Expr::named("Emps"));
        let t = infer_closed(&e, &cat, &reg).unwrap();
        let SchemaType::Set(elem) = t else { panic!() };
        let SchemaType::Tup(fs) = *elem else { panic!() };
        let names: Vec<_> = fs.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec!["name", "dept", "salary", "name'", "dept'", "salary'"]
        );
    }

    #[test]
    fn aggregates_type_correctly() {
        let (reg, cat) = setup();
        let salaries = Expr::named("Emps").set_apply(Expr::input().extract("salary"));
        assert_eq!(
            infer_closed(&Expr::call(Func::Min, vec![salaries.clone()]), &cat, &reg).unwrap(),
            SchemaType::int4()
        );
        assert_eq!(
            infer_closed(&Expr::call(Func::Avg, vec![salaries.clone()]), &cat, &reg).unwrap(),
            SchemaType::float4()
        );
        assert_eq!(
            infer_closed(&Expr::call(Func::Count, vec![salaries]), &cat, &reg).unwrap(),
            SchemaType::int4()
        );
    }

    #[test]
    fn sort_mismatch_is_reported() {
        let (reg, cat) = setup();
        let e = Expr::named("Top").dup_elim(); // DE of an array
        assert!(infer_closed(&e, &cat, &reg).is_err());
        let e2 = Expr::named("Emps").arr_extract(1); // ARR_EXTRACT of a set
        assert!(infer_closed(&e2, &cat, &reg).is_err());
    }

    #[test]
    fn output_sort_matches() {
        let (reg, cat) = setup();
        assert_eq!(
            output_sort(&Expr::named("Emps"), &cat, &reg),
            Some(Sort::Set)
        );
        assert_eq!(
            output_sort(&Expr::named("Top"), &cat, &reg),
            Some(Sort::Arr)
        );
        assert_eq!(
            output_sort(&Expr::named("Top").arr_extract(1), &cat, &reg),
            Some(Sort::Ref)
        );
    }
}
