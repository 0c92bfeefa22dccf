//! Algebra → EXCESS decompilation (equipollence, direction ii).
//!
//! "The other direction of the proof is a traditional case-based inductive
//! proof … The proof proceeds by induction on the number of operators in
//! an algebraic expression E." (Section 3.4)
//!
//! This module is that proof made executable: every primitive operator has
//! an EXCESS surface form, so `decompile` is total on closed expressions
//! (derived operators are desugared first).  The correctness statement —
//! `translate(parse(decompile(e)))` evaluates to the same value as `e` —
//! is checked by the `equipollence` integration tests.
//!
//! Notable cases, following the proof's structure:
//!
//! * `E1 − E2`  → `(retrieve (x) from x in (E1 - E2))` — here simply
//!   `(E1 - E2)`, since EXCESS expressions include set operators;
//! * `SET(E1)`  → `{ E1 }` ("each type constructor can be used in the
//!   target list … for output formatting purposes");
//! * `ARR_APPLY_E(A)` → `(retrieve (E[x]) from x in A)` — the uniform
//!   query interface makes `from x in <array>` order-preserving, standing
//!   in for the proof's function-definition detour;
//! * `COMP_P(A)` → `the((retrieve (x) from x in { A } where P))` — the
//!   singleton-range encoding; `the` of the empty multiset is `dne`,
//!   matching COMP's rejection value.
//!
//! Limitations (documented): OID constants and primed (`name'`) field
//! names have no surface form and raise [`LangError::Decompile`].

use crate::error::{LangError, LangResult};
use excess_core::expr::{Bound, CmpOp, Expr, Func, Pred};
use excess_types::{Null, Scalar, TypeRegistry, Value};

/// Decompile a closed algebra expression to an EXCESS expression string.
pub fn decompile(e: &Expr, reg: &TypeRegistry) -> LangResult<String> {
    let mut d = D {
        reg,
        stack: Vec::new(),
        counter: 0,
    };
    d.expr(&desugar_surface_less(e))
}

/// Expand only the derived operators without a surface form (σ, array σ,
/// rel_join, rel_×); ∪ and ∩ keep their keywords.
fn desugar_surface_less(e: &Expr) -> Expr {
    let e = e.map_children(&mut desugar_surface_less);
    match &e {
        Expr::Select { .. }
        | Expr::ArrSelect { .. }
        | Expr::RelJoin { .. }
        | Expr::RelCross(..) => {
            desugar_surface_less(&e.expand_derived().expect("derived node expands"))
        }
        _ => e,
    }
}

/// Decompile to a full statement: `retrieve (<expr>) into <name>`.
pub fn decompile_into(e: &Expr, reg: &TypeRegistry, into: &str) -> LangResult<String> {
    Ok(format!("retrieve ({}) into {into}", decompile(e, reg)?))
}

struct D<'a> {
    reg: &'a TypeRegistry,
    stack: Vec<String>,
    counter: usize,
}

fn derr(msg: impl Into<String>) -> LangError {
    LangError::Decompile(msg.into())
}

impl<'a> D<'a> {
    fn fresh(&mut self) -> String {
        let v = format!("x{}", self.counter);
        self.counter += 1;
        v
    }

    fn ident_ok(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
            && crate::token::Token::keyword(name).is_none()
    }

    fn expr(&mut self, e: &Expr) -> LangResult<String> {
        Ok(match e {
            Expr::Input(d) => {
                let idx = self
                    .stack
                    .len()
                    .checked_sub(1 + d)
                    .ok_or_else(|| derr(format!("free INPUT^{d} cannot be decompiled")))?;
                self.stack[idx].clone()
            }
            Expr::Named(n) => {
                if !Self::ident_ok(n) {
                    return Err(derr(format!("object name `{n}` has no surface form")));
                }
                n.clone()
            }
            Expr::Const(v) => self.literal(v)?,

            Expr::AddUnion(a, b) => format!("({} uplus {})", self.expr(a)?, self.expr(b)?),
            Expr::Diff(a, b) => format!("({} - {})", self.expr(a)?, self.expr(b)?),
            Expr::Union(a, b) => format!("({} union {})", self.expr(a)?, self.expr(b)?),
            Expr::Intersect(a, b) => {
                format!("({} intersect {})", self.expr(a)?, self.expr(b)?)
            }
            Expr::Cross(a, b) | Expr::ArrCross(a, b) => {
                format!("({} times {})", self.expr(a)?, self.expr(b)?)
            }
            Expr::MakeSet(a) => format!("{{ {} }}", self.expr(a)?),
            Expr::MakeArr(a) => format!("[ {} ]", self.expr(a)?),
            Expr::MakeTup(a, f) => {
                if !Self::ident_ok(f) {
                    return Err(derr(format!("field `{f}` has no surface form")));
                }
                format!("({f}: {})", self.expr(a)?)
            }
            Expr::DupElim(a) | Expr::ArrDupElim(a) => format!("de({})", self.expr(a)?),
            Expr::SetCollapse(a) | Expr::ArrCollapse(a) => {
                format!("collapse({})", self.expr(a)?)
            }
            Expr::ArrDiff(a, b) => format!("arr_diff({}, {})", self.expr(a)?, self.expr(b)?),
            Expr::ArrCat(a, b) => format!("arr_cat({}, {})", self.expr(a)?, self.expr(b)?),
            Expr::SubArr(a, m, n) => {
                format!("subarr({}, {}, {})", self.expr(a)?, bound(*m), bound(*n))
            }
            Expr::ArrExtract(a, b) => {
                format!("arr_extract({}, {})", self.expr(a)?, bound(*b))
            }

            Expr::SetApply {
                input,
                body,
                only_types,
            } => {
                let src = self.expr(input)?;
                let src = match only_types {
                    None => src,
                    Some(ts) => {
                        for t in ts {
                            if !Self::ident_ok(t) {
                                return Err(derr(format!("type `{t}` has no surface form")));
                            }
                        }
                        format!("exact({src}, {})", ts.join(", "))
                    }
                };
                let v = self.fresh();
                self.stack.push(v.clone());
                let body_s = self.expr(body);
                self.stack.pop();
                format!("(retrieve ({}) from {v} in {src})", body_s?)
            }
            Expr::ArrApply { input, body } => {
                let src = self.expr(input)?;
                let v = self.fresh();
                self.stack.push(v.clone());
                let body_s = self.expr(body);
                self.stack.pop();
                format!("(retrieve ({}) from {v} in {src})", body_s?)
            }
            Expr::Group { input, by } => {
                let src = self.expr(input)?;
                let v = self.fresh();
                self.stack.push(v.clone());
                let by_s = self.expr(by);
                self.stack.pop();
                format!("(retrieve ({v}) from {v} in {src} by {})", by_s?)
            }

            Expr::Project(a, fs) => {
                for f in fs {
                    if !Self::ident_ok(f) {
                        return Err(derr(format!("field `{f}` has no surface form")));
                    }
                }
                format!("project({}, {})", self.expr(a)?, fs.join(", "))
            }
            Expr::TupCat(a, b) => format!("tupcat({}, {})", self.expr(a)?, self.expr(b)?),
            Expr::TupExtract(a, f) => {
                if !Self::ident_ok(f) {
                    return Err(derr(format!(
                        "field `{f}` has no surface form (primed names arise from \
                         clashing TUP_CATs)"
                    )));
                }
                format!("({}).{f}", self.expr(a)?)
            }

            Expr::MakeRef(a, t) => format!("mkref({}, {t})", self.expr(a)?),
            Expr::Deref(a) => format!("deref({})", self.expr(a)?),

            Expr::Comp { input, pred } => {
                let inner = self.expr(input)?;
                let v = self.fresh();
                self.stack.push(v.clone());
                let p = self.pred(pred);
                self.stack.pop();
                format!(
                    "the((retrieve ({v}) from {v} in {{ {inner} }} where {}))",
                    p?
                )
            }

            Expr::Call(f, args) => {
                let mut parts = Vec::with_capacity(args.len());
                for a in args {
                    parts.push(self.expr(a)?);
                }
                match f {
                    Func::Add => format!("({} + {})", parts[0], parts[1]),
                    Func::Sub => format!("({} - {})", parts[0], parts[1]),
                    Func::Mul => format!("({} * {})", parts[0], parts[1]),
                    Func::Div => format!("({} / {})", parts[0], parts[1]),
                    Func::Neg => format!("(- {})", parts[0]),
                    Func::Min => format!("min({})", parts[0]),
                    Func::Max => format!("max({})", parts[0]),
                    Func::Count => format!("count({})", parts[0]),
                    Func::Sum => format!("sum({})", parts[0]),
                    Func::Avg => format!("avg({})", parts[0]),
                    Func::Age => format!("age({})", parts[0]),
                    Func::The => format!("the({})", parts[0]),
                }
            }

            // Section 4 dispatch: expand to the ⊎-of-exact-types form the
            // surface language can express.
            Expr::SetApplySwitch { input, table } => {
                let impls: Vec<excess_optimizer::MethodImpl> = table
                    .iter()
                    .map(|(t, b)| excess_optimizer::MethodImpl {
                        owner: t.clone(),
                        body: b.clone(),
                    })
                    .collect();
                let unioned = excess_optimizer::build_union(self.reg, (**input).clone(), &impls);
                self.expr(&unioned)?
            }

            // Derived operators are desugared before decompilation.
            Expr::Select { .. }
            | Expr::ArrSelect { .. }
            | Expr::RelJoin { .. }
            | Expr::RelCross(..) => {
                return Err(derr("derived operator survived desugaring".to_string()))
            }
        })
    }

    fn pred(&mut self, p: &Pred) -> LangResult<String> {
        Ok(match p {
            Pred::Cmp(l, op, r) => {
                let ls = self.expr(l)?;
                let rs = self.expr(r)?;
                let o = match op {
                    CmpOp::Eq => "=",
                    CmpOp::Ne => "!=",
                    CmpOp::Lt => "<",
                    CmpOp::Le => "<=",
                    CmpOp::Gt => ">",
                    CmpOp::Ge => ">=",
                    CmpOp::In => "in",
                };
                format!("{ls} {o} {rs}")
            }
            Pred::And(a, b) => format!("({} and {})", self.pred(a)?, self.pred(b)?),
            Pred::Not(q) => format!("not ({})", self.pred(q)?),
        })
    }

    fn literal(&mut self, v: &Value) -> LangResult<String> {
        Ok(match v {
            Value::Scalar(Scalar::Int4(i)) => format!("{i}"),
            Value::Scalar(Scalar::Float4(x)) => {
                if x.is_finite() {
                    format!("{x:?}")
                } else {
                    return Err(derr(format!("float {x} has no surface form")));
                }
            }
            Value::Scalar(Scalar::Char(s)) => format!("{s:?}"),
            Value::Scalar(Scalar::Bool(b)) => format!("{b}"),
            Value::Scalar(Scalar::Date(d)) => {
                format!("date({}, {}, {})", d.year, d.month, d.day)
            }
            Value::Null(Null::Dne) => "dne".into(),
            Value::Null(Null::Unk) => "unk".into(),
            Value::Tuple(t) => {
                if t.arity() == 0 {
                    "()".into()
                } else {
                    let mut parts = Vec::with_capacity(t.arity());
                    for (n, fv) in t.iter() {
                        if !Self::ident_ok(n) {
                            return Err(derr(format!("field `{n}` has no surface form")));
                        }
                        parts.push(format!("{n}: {}", self.literal(fv)?));
                    }
                    format!("({})", parts.join(", "))
                }
            }
            Value::Set(s) => {
                let mut parts = Vec::new();
                for occ in s.iter_occurrences() {
                    parts.push(self.literal(occ)?);
                }
                format!("{{ {} }}", parts.join(", "))
            }
            Value::Array(a) => {
                let mut parts = Vec::with_capacity(a.len());
                for e in a.iter() {
                    parts.push(self.literal(e)?);
                }
                format!("[ {} ]", parts.join(", "))
            }
            Value::Ref(o) => {
                return Err(derr(format!(
                    "OID constant {o} has no surface form (identities are opaque)"
                )))
            }
        })
    }
}

fn bound(b: Bound) -> String {
    match b {
        Bound::At(n) => n.to_string(),
        Bound::Last => "last".to_string(),
    }
}
