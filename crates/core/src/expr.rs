//! The algebra expression AST.
//!
//! An algebraic query is an expression tree whose leaves are named
//! top-level database objects, constants, or `INPUT` occurrences, and whose
//! interior nodes are the operators of Section 3.2.  The paper writes
//! `INPUT` informally ("the symbol INPUT refers, in turn, to each
//! occurrence in the input multiset"); we make the scoping precise with a
//! De Bruijn index: `Input(0)` is the value bound by the nearest enclosing
//! *binder*, `Input(1)` the next one out, and so on.  The binders are
//! `SET_APPLY`/`ARR_APPLY` (bind each occurrence/element) and `COMP` and
//! `GRP` (bind their whole input / each occurrence, respectively).
//!
//! Derived operators (Appendix §1) are first-class AST nodes so that
//! transformation rules 3, 4, 5, and 10 can pattern-match them directly;
//! [`Expr::expand_derived`] rewrites any derived node into primitives,
//! witnessing the Appendix derivations.

use excess_types::Value;
use std::fmt;
use std::ops::ControlFlow;

/// A 1-based array bound: an index or the token `last` (Section 3.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bound {
    /// A concrete 1-based index.
    At(usize),
    /// "the current last element of the array".
    Last,
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::At(n) => write!(f, "{n}"),
            Bound::Last => f.write_str("last"),
        }
    }
}

/// Comparators available to `COMP` predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Value equality (the algebra's single equality, Section 3.2.4).
    Eq,
    /// Negated equality.
    Ne,
    /// Less-than over the total value order.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Multiset membership — "conceptually an equality test against every
    /// occurrence in a multiset".
    In,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::In => "in",
        })
    }
}

/// A predicate: "atomic equality predicates connected by ∧ and ¬"
/// (Section 3.2.4), evaluated in three-valued logic.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Pred {
    /// An atomic comparison between two expressions (each may mention
    /// `INPUT`, bound to the COMP input).
    Cmp(Box<Expr>, CmpOp, Box<Expr>),
    /// Conjunction (Kleene three-valued ∧).
    And(Box<Pred>, Box<Pred>),
    /// Negation (Kleene three-valued ¬).
    Not(Box<Pred>),
}

impl Pred {
    /// Atomic comparison.
    pub fn cmp(l: Expr, op: CmpOp, r: Expr) -> Pred {
        Pred::Cmp(Box::new(l), op, Box::new(r))
    }
    /// Equality shorthand.
    pub fn eq(l: Expr, r: Expr) -> Pred {
        Pred::cmp(l, CmpOp::Eq, r)
    }
    /// Conjunction shorthand.
    pub fn and(self, other: Pred) -> Pred {
        Pred::And(Box::new(self), Box::new(other))
    }
    /// Negation shorthand (the paper's ¬ — intentionally not `std::ops::Not`).
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Pred {
        Pred::Not(Box::new(self))
    }

    /// Immutable references to the expressions inside this predicate tree.
    pub fn exprs(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        let _ = self.try_for_each_expr(&mut |e| {
            out.push(e);
            ControlFlow::<()>::Continue(())
        });
        out
    }

    /// Visit the expressions of [`Pred::exprs`] in order, stopping at the
    /// first `Break`, allocating nothing.
    pub fn try_for_each_expr<'p, B>(
        &'p self,
        f: &mut impl FnMut(&'p Expr) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        match self {
            Pred::Cmp(l, _, r) => {
                f(l)?;
                f(r)
            }
            Pred::And(a, b) => {
                a.try_for_each_expr(f)?;
                b.try_for_each_expr(f)
            }
            Pred::Not(p) => p.try_for_each_expr(f),
        }
    }

    /// Does any expression of this predicate mention `Input(depth)` free
    /// ([`Expr::mentions_input`])?
    pub fn mentions_input(&self, depth: usize) -> bool {
        self.try_for_each_expr(&mut |e| {
            if e.mentions_input(depth) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .is_break()
    }

    /// Rebuild this predicate with `f` applied to every embedded expression.
    pub fn map_exprs(&self, f: &mut impl FnMut(&Expr) -> Expr) -> Pred {
        match self {
            Pred::Cmp(l, op, r) => Pred::Cmp(Box::new(f(l)), *op, Box::new(f(r))),
            Pred::And(a, b) => Pred::And(Box::new(a.map_exprs(f)), Box::new(b.map_exprs(f))),
            Pred::Not(p) => Pred::Not(Box::new(p.map_exprs(f))),
        }
    }
}

/// Built-in scalar functions and aggregates — the stand-in for EXTRA's
/// ADT functions written in the E language (see DESIGN.md substitutions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Func {
    /// Numeric addition.
    Add,
    /// Numeric subtraction.
    Sub,
    /// Numeric multiplication.
    Mul,
    /// Numeric division.
    Div,
    /// Numeric negation.
    Neg,
    /// Aggregate: minimum of a multiset of scalars (`dne` on empty input).
    Min,
    /// Aggregate: maximum (`dne` on empty input).
    Max,
    /// Aggregate: occurrence count (0 on empty input).
    Count,
    /// Aggregate: numeric sum (0 on empty input).
    Sum,
    /// Aggregate: numeric average (`dne` on empty input).
    Avg,
    /// Virtual field: age of a `Date` relative to the context's `today`.
    Age,
    /// `the(S)`: the sole occurrence of a singleton multiset (`dne` when
    /// empty; the least element when, abnormally, there are several).
    /// This is how EXCESS expresses a bare `COMP`: `COMP_P(A)` ≡
    /// `the(σ_P({A}))` — see the decompiler.
    The,
}

impl fmt::Display for Func {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Func::Add => "add",
            Func::Sub => "sub",
            Func::Mul => "mul",
            Func::Div => "div",
            Func::Neg => "neg",
            Func::Min => "min",
            Func::Max => "max",
            Func::Count => "count",
            Func::Sum => "sum",
            Func::Avg => "avg",
            Func::Age => "age",
            Func::The => "the",
        })
    }
}

/// An expression of the EXCESS algebra.
///
/// "An expression in the algebra consists of one or more named, top-level
/// database objects and 0 or more operators." (Section 3.4)
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    // ----- leaves -----
    /// `INPUT` at the given binder depth (0 = innermost).
    Input(usize),
    /// A named, top-level database object.
    Named(String),
    /// A literal value.
    Const(Value),

    // ----- multiset operators (§3.2.1) -----
    /// Additive union `A ⊎ B` (cardinalities sum).
    AddUnion(Box<Expr>, Box<Expr>),
    /// `SET(A)`: the singleton multiset `{A}`.
    MakeSet(Box<Expr>),
    /// `SET_APPLY_E(A)`, optionally restricted to elements whose exact type
    /// is in `only_types` — the Section 4 variant: "T indicates that only
    /// objects that are exactly of type T are to be processed".  A list is
    /// allowed so one SET_APPLY can serve "Person/Student" when Student
    /// does not override the method ("only as many SET_APPLYs as there are
    /// distinct method implementations"); by convention the first name is
    /// the type that *owns* the implementation.
    SetApply {
        /// The multiset input.
        input: Box<Expr>,
        /// The expression applied to each occurrence (binds `Input(0)`).
        body: Box<Expr>,
        /// Optional exact-type filter (Section 4).
        only_types: Option<Vec<String>>,
    },
    /// `GRP_E(A)`: partition into equivalence classes by the value of `by`
    /// on each occurrence (binds `Input(0)`).
    Group {
        /// The multiset input.
        input: Box<Expr>,
        /// The grouping expression.
        by: Box<Expr>,
    },
    /// `DE(A)`: duplicate elimination.
    DupElim(Box<Expr>),
    /// `A − B`: cardinality difference.
    Diff(Box<Expr>, Box<Expr>),
    /// `A × B`: duplicate-preserving Cartesian product of `(fst, snd)`
    /// pairs.
    Cross(Box<Expr>, Box<Expr>),
    /// `SET_COLLAPSE(A)`: ⊎ of a multiset of multisets.
    SetCollapse(Box<Expr>),

    // ----- tuple operators (§3.2.2) -----
    /// `π_L(A)`: projection of a single tuple onto the named fields.
    Project(Box<Expr>, Vec<String>),
    /// `TUP_CAT(A, B)`: tuple concatenation.
    TupCat(Box<Expr>, Box<Expr>),
    /// `TUP_EXTRACT_f(A)`: one field of a tuple, as a structure.
    TupExtract(Box<Expr>, String),
    /// `TUP(A)`: the unary tuple with the given field name.
    MakeTup(Box<Expr>, String),

    // ----- array operators (§3.2.3) -----
    /// `ARR(A)`: the 1-element array `[A]`.
    MakeArr(Box<Expr>),
    /// `ARR_EXTRACT_n(A)`: the n-th element itself (not a subarray).
    ArrExtract(Box<Expr>, Bound),
    /// `ARR_APPLY_E(A)`: order-preserving map (binds `Input(0)`).
    ArrApply {
        /// The array input.
        input: Box<Expr>,
        /// The expression applied to each element.
        body: Box<Expr>,
    },
    /// `SUBARR_{m,n}(A)`: elements m..n inclusive, in order.
    SubArr(Box<Expr>, Bound, Bound),
    /// `ARR_CAT(A, B)`: array concatenation.
    ArrCat(Box<Expr>, Box<Expr>),
    /// `ARR_COLLAPSE(A)`: order-preserving flatten of an array of arrays.
    ArrCollapse(Box<Expr>),
    /// `ARR_DIFF(A, B)`: order-preserving analog of `−`.
    ArrDiff(Box<Expr>, Box<Expr>),
    /// `ARR_DE(A)`: order-preserving duplicate elimination (first
    /// occurrence kept).
    ArrDupElim(Box<Expr>),
    /// `ARR_CROSS(A, B)`: order-preserving analog of `×`.
    ArrCross(Box<Expr>, Box<Expr>),

    // ----- reference operators (§3.2.4) -----
    /// `REF(A)`: mint a new object of the named type holding `A`'s value
    /// and return a reference to it.
    MakeRef(Box<Expr>, String),
    /// `DEREF(A)`: materialise the referenced object.
    Deref(Box<Expr>),

    // ----- predicates (§3.2.4) -----
    /// `COMP_P(A)`: returns `A` when `P` is true, `unk` when unknown,
    /// `dne` when false.  Binds `Input(0)` to the whole input inside `P`.
    Comp {
        /// The input structure.
        input: Box<Expr>,
        /// The predicate.
        pred: Pred,
    },

    // ----- scalar functions / aggregates -----
    /// Application of a built-in function.
    Call(Func, Vec<Expr>),

    // ----- derived operators (Appendix §1) -----
    /// `A ∪ B` (max of cardinalities); derivation `(A − B) ⊎ B`.
    Union(Box<Expr>, Box<Expr>),
    /// `A ∩ B` (min of cardinalities); derivation `A − (A − B)`.
    Intersect(Box<Expr>, Box<Expr>),
    /// Multiset selection `σ_P(A)`; derivation `SET_APPLY_{COMP_P}(A)`.
    Select {
        /// The multiset input.
        input: Box<Expr>,
        /// The selection predicate (binds `Input(0)` per occurrence).
        pred: Pred,
    },
    /// Array selection; derivation `ARR_APPLY_{COMP_P}(A)`.
    ArrSelect {
        /// The array input.
        input: Box<Expr>,
        /// The selection predicate.
        pred: Pred,
    },
    /// `rel_join_Θ(A, B)`: relational-like theta join producing
    /// concatenated tuples.
    RelJoin {
        /// Left multiset of tuples.
        left: Box<Expr>,
        /// Right multiset of tuples.
        right: Box<Expr>,
        /// The join predicate, evaluated on the concatenated tuple.
        pred: Pred,
    },
    /// `rel_×(A, B)`: Cartesian product with concatenated (flat) tuples.
    RelCross(Box<Expr>, Box<Expr>),

    // ----- Section 4: run-time method dispatch -----
    /// The switch-table variant of `SET_APPLY`: "a switch table that,
    /// given a type, returns a pointer to the appropriate query tree to
    /// invoke".  Each arm maps an exact type name to a body; an element
    /// whose exact type has no arm uses the arm of its nearest ancestor.
    SetApplySwitch {
        /// The multiset input.
        input: Box<Expr>,
        /// `(type name, body)` arms.
        table: Vec<(String, Expr)>,
    },
}

impl Expr {
    // ----- ergonomic constructors -----

    /// `INPUT` of the innermost binder.
    pub fn input() -> Expr {
        Expr::Input(0)
    }
    /// `INPUT` at an outer binder depth.
    pub fn input_at(depth: usize) -> Expr {
        Expr::Input(depth)
    }
    /// A named top-level object.
    pub fn named(n: impl Into<String>) -> Expr {
        Expr::Named(n.into())
    }
    /// A literal.
    pub fn lit(v: Value) -> Expr {
        Expr::Const(v)
    }
    /// Integer literal.
    pub fn int(i: i32) -> Expr {
        Expr::Const(Value::int(i))
    }
    /// String literal.
    pub fn str(s: impl Into<String>) -> Expr {
        Expr::Const(Value::str(s))
    }

    /// `SET_APPLY_body(self)`.
    pub fn set_apply(self, body: Expr) -> Expr {
        Expr::SetApply {
            input: Box::new(self),
            body: Box::new(body),
            only_types: None,
        }
    }
    /// `SET_APPLY` restricted to a set of exact types (Section 4); the
    /// first name is the implementation's owning type.
    pub fn set_apply_only<I, S>(self, tys: I, body: Expr) -> Expr
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Expr::SetApply {
            input: Box::new(self),
            body: Box::new(body),
            only_types: Some(tys.into_iter().map(Into::into).collect()),
        }
    }
    /// `ARR_APPLY_body(self)`.
    pub fn arr_apply(self, body: Expr) -> Expr {
        Expr::ArrApply {
            input: Box::new(self),
            body: Box::new(body),
        }
    }
    /// `GRP_by(self)`.
    pub fn group_by(self, by: Expr) -> Expr {
        Expr::Group {
            input: Box::new(self),
            by: Box::new(by),
        }
    }
    /// `DE(self)`.
    pub fn dup_elim(self) -> Expr {
        Expr::DupElim(Box::new(self))
    }
    /// `self ⊎ other`.
    pub fn add_union(self, other: Expr) -> Expr {
        Expr::AddUnion(Box::new(self), Box::new(other))
    }
    /// `self − other`.
    pub fn diff(self, other: Expr) -> Expr {
        Expr::Diff(Box::new(self), Box::new(other))
    }
    /// `self × other`.
    pub fn cross(self, other: Expr) -> Expr {
        Expr::Cross(Box::new(self), Box::new(other))
    }
    /// `SET_COLLAPSE(self)`.
    pub fn set_collapse(self) -> Expr {
        Expr::SetCollapse(Box::new(self))
    }
    /// `SET(self)`.
    pub fn make_set(self) -> Expr {
        Expr::MakeSet(Box::new(self))
    }
    /// `π_fields(self)`.
    pub fn project<I, S>(self, fields: I) -> Expr
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Expr::Project(Box::new(self), fields.into_iter().map(Into::into).collect())
    }
    /// `TUP_EXTRACT_field(self)`.
    pub fn extract(self, field: impl Into<String>) -> Expr {
        Expr::TupExtract(Box::new(self), field.into())
    }
    /// `TUP_CAT(self, other)`.
    pub fn tup_cat(self, other: Expr) -> Expr {
        Expr::TupCat(Box::new(self), Box::new(other))
    }
    /// `TUP(self)` with a field name.
    pub fn make_tup(self, field: impl Into<String>) -> Expr {
        Expr::MakeTup(Box::new(self), field.into())
    }
    /// `ARR(self)`.
    pub fn make_arr(self) -> Expr {
        Expr::MakeArr(Box::new(self))
    }
    /// `ARR_EXTRACT_n(self)` with a 1-based index.
    pub fn arr_extract(self, n: usize) -> Expr {
        Expr::ArrExtract(Box::new(self), Bound::At(n))
    }
    /// `SUBARR_{m,n}(self)`.
    pub fn subarr(self, m: Bound, n: Bound) -> Expr {
        Expr::SubArr(Box::new(self), m, n)
    }
    /// `ARR_CAT(self, other)`.
    pub fn arr_cat(self, other: Expr) -> Expr {
        Expr::ArrCat(Box::new(self), Box::new(other))
    }
    /// `DEREF(self)`.
    pub fn deref(self) -> Expr {
        Expr::Deref(Box::new(self))
    }
    /// `REF(self)` minting into the named type.
    pub fn make_ref(self, ty: impl Into<String>) -> Expr {
        Expr::MakeRef(Box::new(self), ty.into())
    }
    /// `COMP_pred(self)`.
    pub fn comp(self, pred: Pred) -> Expr {
        Expr::Comp {
            input: Box::new(self),
            pred,
        }
    }
    /// Derived `σ_pred(self)`.
    pub fn select(self, pred: Pred) -> Expr {
        Expr::Select {
            input: Box::new(self),
            pred,
        }
    }
    /// Derived `rel_join_pred(self, other)`.
    pub fn rel_join(self, other: Expr, pred: Pred) -> Expr {
        Expr::RelJoin {
            left: Box::new(self),
            right: Box::new(other),
            pred,
        }
    }
    /// Derived `rel_×(self, other)`.
    pub fn rel_cross(self, other: Expr) -> Expr {
        Expr::RelCross(Box::new(self), Box::new(other))
    }
    /// Aggregate/function call.
    pub fn call(f: Func, args: Vec<Expr>) -> Expr {
        Expr::Call(f, args)
    }

    /// Expand a *derived* node one step into primitives, per the Appendix
    /// §1 derivations.  Returns `None` for primitive nodes.
    pub fn expand_derived(&self) -> Option<Expr> {
        Some(match self {
            // A ∪ B = (A − B) ⊎ B
            Expr::Union(a, b) => a
                .as_ref()
                .clone()
                .diff((**b).clone())
                .add_union((**b).clone()),
            // A ∩ B = A − (A − B)
            Expr::Intersect(a, b) => a
                .as_ref()
                .clone()
                .diff(a.as_ref().clone().diff((**b).clone())),
            // σ_P(A) = SET_APPLY_{COMP_P(INPUT)}(A)
            Expr::Select { input, pred } => input
                .as_ref()
                .clone()
                .set_apply(Expr::input().comp(pred.clone())),
            // array σ_P(A) = ARR_APPLY_{COMP_P(INPUT)}(A)
            Expr::ArrSelect { input, pred } => input
                .as_ref()
                .clone()
                .arr_apply(Expr::input().comp(pred.clone())),
            // rel_×(A,B) = SET_APPLY_{TUP_CAT(fst, snd)}(A × B)
            Expr::RelCross(a, b) => a.as_ref().clone().cross((**b).clone()).set_apply(
                Expr::input()
                    .extract("fst")
                    .tup_cat(Expr::input().extract("snd")),
            ),
            // rel_join_Θ(A,B) = SET_APPLY_{COMP_Θ}(rel_×(A,B)) — the paper
            // phrases it as SET_APPLY∘SET_APPLY over ×; we expand through
            // rel_× for clarity, which is the same tree after one more step.
            Expr::RelJoin { left, right, pred } => Expr::Select {
                input: Box::new(left.as_ref().clone().rel_cross((**right).clone())),
                pred: pred.clone(),
            },
            _ => return None,
        })
    }

    /// Fully expand every derived operator, bottom-up, leaving only the 23
    /// primitive operators.
    pub fn desugar(&self) -> Expr {
        let e = self.map_children(&mut |c| c.desugar());
        match e.expand_derived() {
            Some(expanded) => expanded.desugar(),
            None => e,
        }
    }

    /// Immutable references to direct child expressions (including those
    /// inside predicates).
    pub fn children(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        let _ = self.try_for_each_child(|c| {
            out.push(c);
            ControlFlow::<()>::Continue(())
        });
        out
    }

    /// The `i`th of [`Expr::children`], found without collecting them.
    pub fn child(&self, i: usize) -> Option<&Expr> {
        let mut seen = 0;
        self.try_for_each_child(|c| {
            if seen == i {
                return ControlFlow::Break(c);
            }
            seen += 1;
            ControlFlow::Continue(())
        })
        .break_value()
    }

    /// Does `f` hold for some direct child?  Children are tried in
    /// [`Expr::children`] order, up to the first that passes.
    pub fn any_child(&self, mut f: impl FnMut(&Expr) -> bool) -> bool {
        self.try_for_each_child(|c| {
            if f(c) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .is_break()
    }

    /// Visit the direct children in [`Expr::children`] order, stopping at
    /// the first `Break`: the walk behind `children`, allocating nothing.
    pub fn try_for_each_child<'e, B>(
        &'e self,
        mut f: impl FnMut(&'e Expr) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        match self {
            Expr::Input(_) | Expr::Named(_) | Expr::Const(_) => ControlFlow::Continue(()),
            Expr::AddUnion(a, b)
            | Expr::Diff(a, b)
            | Expr::Cross(a, b)
            | Expr::TupCat(a, b)
            | Expr::ArrCat(a, b)
            | Expr::ArrDiff(a, b)
            | Expr::ArrCross(a, b)
            | Expr::Union(a, b)
            | Expr::Intersect(a, b)
            | Expr::RelCross(a, b)
            | Expr::SetApply {
                input: a, body: b, ..
            }
            | Expr::ArrApply { input: a, body: b }
            | Expr::Group { input: a, by: b } => {
                f(a)?;
                f(b)
            }
            Expr::MakeSet(a)
            | Expr::DupElim(a)
            | Expr::SetCollapse(a)
            | Expr::Project(a, _)
            | Expr::TupExtract(a, _)
            | Expr::MakeTup(a, _)
            | Expr::MakeArr(a)
            | Expr::ArrExtract(a, _)
            | Expr::SubArr(a, _, _)
            | Expr::ArrCollapse(a)
            | Expr::ArrDupElim(a)
            | Expr::MakeRef(a, _)
            | Expr::Deref(a) => f(a),
            Expr::Comp { input, pred }
            | Expr::Select { input, pred }
            | Expr::ArrSelect { input, pred } => {
                f(input)?;
                pred.try_for_each_expr(&mut f)
            }
            Expr::RelJoin { left, right, pred } => {
                f(left)?;
                f(right)?;
                pred.try_for_each_expr(&mut f)
            }
            Expr::Call(_, args) => args.iter().try_for_each(f),
            Expr::SetApplySwitch { input, table } => {
                f(input)?;
                table.iter().try_for_each(|(_, e)| f(e))
            }
        }
    }

    /// Rebuild this node with `f` applied to each direct child (including
    /// expressions inside predicates).
    pub fn map_children(&self, f: &mut impl FnMut(&Expr) -> Expr) -> Expr {
        let fb = |e: &Expr, f: &mut dyn FnMut(&Expr) -> Expr| Box::new(f(e));
        match self {
            Expr::Input(_) | Expr::Named(_) | Expr::Const(_) => self.clone(),
            Expr::AddUnion(a, b) => Expr::AddUnion(fb(a, f), fb(b, f)),
            Expr::Diff(a, b) => Expr::Diff(fb(a, f), fb(b, f)),
            Expr::Cross(a, b) => Expr::Cross(fb(a, f), fb(b, f)),
            Expr::TupCat(a, b) => Expr::TupCat(fb(a, f), fb(b, f)),
            Expr::ArrCat(a, b) => Expr::ArrCat(fb(a, f), fb(b, f)),
            Expr::ArrDiff(a, b) => Expr::ArrDiff(fb(a, f), fb(b, f)),
            Expr::ArrCross(a, b) => Expr::ArrCross(fb(a, f), fb(b, f)),
            Expr::Union(a, b) => Expr::Union(fb(a, f), fb(b, f)),
            Expr::Intersect(a, b) => Expr::Intersect(fb(a, f), fb(b, f)),
            Expr::RelCross(a, b) => Expr::RelCross(fb(a, f), fb(b, f)),
            Expr::MakeSet(a) => Expr::MakeSet(fb(a, f)),
            Expr::DupElim(a) => Expr::DupElim(fb(a, f)),
            Expr::SetCollapse(a) => Expr::SetCollapse(fb(a, f)),
            Expr::Project(a, l) => Expr::Project(fb(a, f), l.clone()),
            Expr::TupExtract(a, s) => Expr::TupExtract(fb(a, f), s.clone()),
            Expr::MakeTup(a, s) => Expr::MakeTup(fb(a, f), s.clone()),
            Expr::MakeArr(a) => Expr::MakeArr(fb(a, f)),
            Expr::ArrExtract(a, n) => Expr::ArrExtract(fb(a, f), *n),
            Expr::SubArr(a, m, n) => Expr::SubArr(fb(a, f), *m, *n),
            Expr::ArrCollapse(a) => Expr::ArrCollapse(fb(a, f)),
            Expr::ArrDupElim(a) => Expr::ArrDupElim(fb(a, f)),
            Expr::MakeRef(a, t) => Expr::MakeRef(fb(a, f), t.clone()),
            Expr::Deref(a) => Expr::Deref(fb(a, f)),
            Expr::SetApply {
                input,
                body,
                only_types,
            } => Expr::SetApply {
                input: fb(input, f),
                body: fb(body, f),
                only_types: only_types.clone(),
            },
            Expr::ArrApply { input, body } => Expr::ArrApply {
                input: fb(input, f),
                body: fb(body, f),
            },
            Expr::Group { input, by } => Expr::Group {
                input: fb(input, f),
                by: fb(by, f),
            },
            Expr::Comp { input, pred } => Expr::Comp {
                input: fb(input, f),
                pred: pred.map_exprs(f),
            },
            Expr::Select { input, pred } => Expr::Select {
                input: fb(input, f),
                pred: pred.map_exprs(f),
            },
            Expr::ArrSelect { input, pred } => Expr::ArrSelect {
                input: fb(input, f),
                pred: pred.map_exprs(f),
            },
            Expr::RelJoin { left, right, pred } => Expr::RelJoin {
                left: fb(left, f),
                right: fb(right, f),
                pred: pred.map_exprs(f),
            },
            Expr::Call(func, args) => Expr::Call(*func, args.iter().map(&mut *f).collect()),
            Expr::SetApplySwitch { input, table } => Expr::SetApplySwitch {
                input: fb(input, f),
                table: table.iter().map(|(t, e)| (t.clone(), f(e))).collect(),
            },
        }
    }

    /// Does this subtree contain a `REF` (OID-minting) node?  Used by the
    /// evaluator and optimizer to decide when expression duplication or
    /// re-ordering is observable.
    pub fn mints_oids(&self) -> bool {
        matches!(self, Expr::MakeRef(..)) || self.any_child(Expr::mints_oids)
    }

    /// The fields this body projects from its binder's element, when it is
    /// a projection: `π[f, …](INPUT)`, or the same projection spelled
    /// attribute by attribute, `TUP_CAT(TUP[f](TUP_EXTRACT[f](INPUT)), …)`
    /// with distinct names — the translator's per-group target.  The two
    /// agree on every tuple; on `unk` the spelled form yields a tuple of
    /// `unk`s where `π` yields `unk`, so a rewrite may move such a body
    /// but must not swap one spelling for the other.
    pub fn projected_fields(&self) -> Option<Vec<String>> {
        fn spelled(e: &Expr, out: &mut Vec<String>) -> Option<()> {
            match e {
                Expr::TupCat(a, b) => {
                    spelled(a, out)?;
                    spelled(b, out)
                }
                Expr::MakeTup(x, label) => match &**x {
                    Expr::TupExtract(input, f)
                        if f == label && matches!(**input, Expr::Input(0)) && !out.contains(f) =>
                    {
                        out.push(f.clone());
                        Some(())
                    }
                    _ => None,
                },
                _ => None,
            }
        }
        match self {
            Expr::Project(input, fields) if matches!(**input, Expr::Input(0)) => {
                Some(fields.clone())
            }
            _ => {
                let mut out = Vec::new();
                spelled(self, &mut out)?;
                Some(out)
            }
        }
    }

    /// Number of operator nodes (leaves count 0) — the induction measure
    /// used in the equipollence proof.
    pub fn operator_count(&self) -> usize {
        let me = match self {
            Expr::Input(_) | Expr::Named(_) | Expr::Const(_) => 0,
            _ => 1,
        };
        me + self
            .children()
            .iter()
            .map(|c| c.operator_count())
            .sum::<usize>()
    }

    /// Does the expression mention `Input(depth)` free (i.e. escaping all
    /// its internal binders)?
    pub fn mentions_input(&self, depth: usize) -> bool {
        match self {
            Expr::Input(d) => *d == depth,
            Expr::SetApply { input, body, .. }
            | Expr::ArrApply { input, body }
            | Expr::Group { input, by: body } => {
                input.mentions_input(depth) || body.mentions_input(depth + 1)
            }
            Expr::Comp { input, pred }
            | Expr::Select { input, pred }
            | Expr::ArrSelect { input, pred } => {
                input.mentions_input(depth) || pred.mentions_input(depth + 1)
            }
            Expr::RelJoin { left, right, pred } => {
                left.mentions_input(depth)
                    || right.mentions_input(depth)
                    || pred.mentions_input(depth + 1)
            }
            Expr::SetApplySwitch { input, table } => {
                input.mentions_input(depth)
                    || table.iter().any(|(_, e)| e.mentions_input(depth + 1))
            }
            _ => self.any_child(|c| c.mentions_input(depth)),
        }
    }

    /// Shift every free `Input` index ≥ `cutoff` by `delta` (standard De
    /// Bruijn shifting, needed when moving an expression under or out of a
    /// binder).
    pub fn shift_inputs(&self, cutoff: usize, delta: isize) -> Expr {
        match self {
            Expr::Input(d) if *d >= cutoff => Expr::Input((*d as isize + delta).max(0) as usize),
            Expr::Input(_) | Expr::Named(_) | Expr::Const(_) => self.clone(),
            Expr::SetApply {
                input,
                body,
                only_types,
            } => Expr::SetApply {
                input: Box::new(input.shift_inputs(cutoff, delta)),
                body: Box::new(body.shift_inputs(cutoff + 1, delta)),
                only_types: only_types.clone(),
            },
            Expr::ArrApply { input, body } => Expr::ArrApply {
                input: Box::new(input.shift_inputs(cutoff, delta)),
                body: Box::new(body.shift_inputs(cutoff + 1, delta)),
            },
            Expr::Group { input, by } => Expr::Group {
                input: Box::new(input.shift_inputs(cutoff, delta)),
                by: Box::new(by.shift_inputs(cutoff + 1, delta)),
            },
            Expr::Comp { input, pred } => Expr::Comp {
                input: Box::new(input.shift_inputs(cutoff, delta)),
                pred: pred.map_exprs(&mut |e| e.shift_inputs(cutoff + 1, delta)),
            },
            Expr::Select { input, pred } => Expr::Select {
                input: Box::new(input.shift_inputs(cutoff, delta)),
                pred: pred.map_exprs(&mut |e| e.shift_inputs(cutoff + 1, delta)),
            },
            Expr::ArrSelect { input, pred } => Expr::ArrSelect {
                input: Box::new(input.shift_inputs(cutoff, delta)),
                pred: pred.map_exprs(&mut |e| e.shift_inputs(cutoff + 1, delta)),
            },
            Expr::RelJoin { left, right, pred } => Expr::RelJoin {
                left: Box::new(left.shift_inputs(cutoff, delta)),
                right: Box::new(right.shift_inputs(cutoff, delta)),
                pred: pred.map_exprs(&mut |e| e.shift_inputs(cutoff + 1, delta)),
            },
            Expr::SetApplySwitch { input, table } => Expr::SetApplySwitch {
                input: Box::new(input.shift_inputs(cutoff, delta)),
                table: table
                    .iter()
                    .map(|(t, e)| (t.clone(), e.shift_inputs(cutoff + 1, delta)))
                    .collect(),
            },
            _ => self.map_children(&mut |c| c.shift_inputs(cutoff, delta)),
        }
    }

    /// β-reduce a binder body against a concrete argument: `Input(0)` is
    /// replaced by `arg` and the (now removed) binder's other indices shift
    /// down by one.  This is what rules 19 and 26 mean by "E applied to
    /// ARR_EXTRACT_n(A)" — the body of an APPLY used outside its binder.
    pub fn beta_apply(body: &Expr, arg: &Expr) -> Expr {
        body.substitute_input(0, &arg.shift_inputs(0, 1))
            .shift_inputs(1, -1)
    }

    /// Substitute `replacement` for `Input(depth)` (used by rule 15,
    /// "combine successive SET_APPLYs": the inner body is substituted for
    /// INPUT in the outer body).
    pub fn substitute_input(&self, depth: usize, replacement: &Expr) -> Expr {
        match self {
            Expr::Input(d) if *d == depth => replacement.clone(),
            Expr::Input(_) | Expr::Named(_) | Expr::Const(_) => self.clone(),
            Expr::SetApply {
                input,
                body,
                only_types,
            } => Expr::SetApply {
                input: Box::new(input.substitute_input(depth, replacement)),
                body: Box::new(body.substitute_input(depth + 1, &replacement.shift_inputs(0, 1))),
                only_types: only_types.clone(),
            },
            Expr::ArrApply { input, body } => Expr::ArrApply {
                input: Box::new(input.substitute_input(depth, replacement)),
                body: Box::new(body.substitute_input(depth + 1, &replacement.shift_inputs(0, 1))),
            },
            Expr::Group { input, by } => Expr::Group {
                input: Box::new(input.substitute_input(depth, replacement)),
                by: Box::new(by.substitute_input(depth + 1, &replacement.shift_inputs(0, 1))),
            },
            Expr::Comp { input, pred } => Expr::Comp {
                input: Box::new(input.substitute_input(depth, replacement)),
                pred: pred.map_exprs(&mut |e| {
                    e.substitute_input(depth + 1, &replacement.shift_inputs(0, 1))
                }),
            },
            Expr::Select { input, pred } => Expr::Select {
                input: Box::new(input.substitute_input(depth, replacement)),
                pred: pred.map_exprs(&mut |e| {
                    e.substitute_input(depth + 1, &replacement.shift_inputs(0, 1))
                }),
            },
            Expr::ArrSelect { input, pred } => Expr::ArrSelect {
                input: Box::new(input.substitute_input(depth, replacement)),
                pred: pred.map_exprs(&mut |e| {
                    e.substitute_input(depth + 1, &replacement.shift_inputs(0, 1))
                }),
            },
            Expr::RelJoin { left, right, pred } => Expr::RelJoin {
                left: Box::new(left.substitute_input(depth, replacement)),
                right: Box::new(right.substitute_input(depth, replacement)),
                pred: pred.map_exprs(&mut |e| {
                    e.substitute_input(depth + 1, &replacement.shift_inputs(0, 1))
                }),
            },
            Expr::SetApplySwitch { input, table } => Expr::SetApplySwitch {
                input: Box::new(input.substitute_input(depth, replacement)),
                table: table
                    .iter()
                    .map(|(t, e)| {
                        (
                            t.clone(),
                            e.substitute_input(depth + 1, &replacement.shift_inputs(0, 1)),
                        )
                    })
                    .collect(),
            },
            _ => self.map_children(&mut |c| c.substitute_input(depth, replacement)),
        }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::Cmp(l, op, r) => write!(f, "{l} {op} {r}"),
            Pred::And(a, b) => write!(f, "({a} ∧ {b})"),
            Pred::Not(p) => write!(f, "¬({p})"),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Input(0) => f.write_str("INPUT"),
            Expr::Input(d) => write!(f, "INPUT^{d}"),
            Expr::Named(n) => f.write_str(n),
            Expr::Const(v) => write!(f, "{v}"),
            Expr::AddUnion(a, b) => write!(f, "({a} ⊎ {b})"),
            Expr::MakeSet(a) => write!(f, "SET({a})"),
            Expr::SetApply {
                input,
                body,
                only_types: None,
            } => {
                write!(f, "SET_APPLY[{body}]({input})")
            }
            Expr::SetApply {
                input,
                body,
                only_types: Some(ts),
            } => {
                write!(f, "SET_APPLY[{}; {body}]({input})", ts.join("/"))
            }
            Expr::Group { input, by } => write!(f, "GRP[{by}]({input})"),
            Expr::DupElim(a) => write!(f, "DE({a})"),
            Expr::Diff(a, b) => write!(f, "({a} − {b})"),
            Expr::Cross(a, b) => write!(f, "({a} × {b})"),
            Expr::SetCollapse(a) => write!(f, "SET_COLLAPSE({a})"),
            Expr::Project(a, fs) => write!(f, "π[{}]({a})", fs.join(",")),
            Expr::TupCat(a, b) => write!(f, "TUP_CAT({a}, {b})"),
            Expr::TupExtract(a, s) => write!(f, "TUP_EXTRACT[{s}]({a})"),
            Expr::MakeTup(a, s) => write!(f, "TUP[{s}]({a})"),
            Expr::MakeArr(a) => write!(f, "ARR({a})"),
            Expr::ArrExtract(a, n) => write!(f, "ARR_EXTRACT[{n}]({a})"),
            Expr::ArrApply { input, body } => write!(f, "ARR_APPLY[{body}]({input})"),
            Expr::SubArr(a, m, n) => write!(f, "SUBARR[{m},{n}]({a})"),
            Expr::ArrCat(a, b) => write!(f, "ARR_CAT({a}, {b})"),
            Expr::ArrCollapse(a) => write!(f, "ARR_COLLAPSE({a})"),
            Expr::ArrDiff(a, b) => write!(f, "ARR_DIFF({a}, {b})"),
            Expr::ArrDupElim(a) => write!(f, "ARR_DE({a})"),
            Expr::ArrCross(a, b) => write!(f, "ARR_CROSS({a}, {b})"),
            Expr::MakeRef(a, t) => write!(f, "REF[{t}]({a})"),
            Expr::Deref(a) => write!(f, "DEREF({a})"),
            Expr::Comp { input, pred } => write!(f, "COMP[{pred}]({input})"),
            Expr::Call(func, args) => {
                write!(f, "{func}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
            Expr::Union(a, b) => write!(f, "({a} ∪ {b})"),
            Expr::Intersect(a, b) => write!(f, "({a} ∩ {b})"),
            Expr::Select { input, pred } => write!(f, "σ[{pred}]({input})"),
            Expr::ArrSelect { input, pred } => write!(f, "arr_σ[{pred}]({input})"),
            Expr::RelJoin { left, right, pred } => {
                write!(f, "rel_join[{pred}]({left}, {right})")
            }
            Expr::RelCross(a, b) => write!(f, "rel_×({a}, {b})"),
            Expr::SetApplySwitch { input, table } => {
                f.write_str("SET_APPLY_SWITCH[")?;
                for (i, (t, e)) in table.iter().enumerate() {
                    if i > 0 {
                        f.write_str("; ")?;
                    }
                    write!(f, "{t} → {e}")?;
                }
                write!(f, "]({input})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_notation() {
        // Figure 3: π_{name,salary}(DEREF(ARR_EXTRACT_5(TopTen)))
        let e = Expr::named("TopTen")
            .arr_extract(5)
            .deref()
            .project(["name", "salary"]);
        assert_eq!(
            e.to_string(),
            "π[name,salary](DEREF(ARR_EXTRACT[5](TopTen)))"
        );
    }

    #[test]
    fn operator_count_is_the_induction_measure() {
        let e = Expr::named("A").dup_elim().make_set();
        assert_eq!(e.operator_count(), 2);
        assert_eq!(Expr::named("A").operator_count(), 0);
    }

    #[test]
    fn desugar_select_to_set_apply_comp() {
        let p = Pred::eq(Expr::input(), Expr::int(1));
        let e = Expr::named("A").select(p.clone());
        let expanded = e.desugar();
        match expanded {
            Expr::SetApply {
                body,
                only_types: None,
                ..
            } => match *body {
                Expr::Comp { input, .. } => assert_eq!(*input, Expr::input()),
                other => panic!("expected COMP, got {other}"),
            },
            other => panic!("expected SET_APPLY, got {other}"),
        }
    }

    #[test]
    fn desugar_is_primitive_only() {
        let p = Pred::eq(Expr::input().extract("a"), Expr::int(1));
        let e = Expr::named("A")
            .rel_join(Expr::named("B"), p)
            .dup_elim()
            .make_set()
            .set_collapse();
        fn all_primitive(e: &Expr) -> bool {
            !matches!(
                e,
                Expr::Union(..)
                    | Expr::Intersect(..)
                    | Expr::Select { .. }
                    | Expr::ArrSelect { .. }
                    | Expr::RelJoin { .. }
                    | Expr::RelCross(..)
            ) && e.children().iter().all(|c| all_primitive(c))
        }
        assert!(all_primitive(&e.desugar()));
    }

    #[test]
    fn mentions_input_respects_binders() {
        // SET_APPLY[INPUT](A): the Input(0) is bound by the SET_APPLY, so
        // the whole expression has no free Input(0).
        let e = Expr::named("A").set_apply(Expr::input());
        assert!(!e.mentions_input(0));
        // SET_APPLY[INPUT^1](A) mentions the *enclosing* binder.
        let e2 = Expr::named("A").set_apply(Expr::input_at(1));
        assert!(e2.mentions_input(0));
        assert!(Expr::input().mentions_input(0));
    }

    #[test]
    fn substitute_input_shifts_under_binders() {
        // Substituting X for INPUT inside SET_APPLY[INPUT^1](B) must hit
        // the INPUT^1 (which refers to the outer binder).
        let outer_body = Expr::named("B").set_apply(Expr::input_at(1));
        let substituted = outer_body.substitute_input(0, &Expr::named("X"));
        assert_eq!(substituted, Expr::named("B").set_apply(Expr::named("X")));
    }

    #[test]
    fn mints_oids_detects_ref_anywhere() {
        let e = Expr::named("A").set_apply(Expr::input().make_ref("T"));
        assert!(e.mints_oids());
        assert!(!Expr::named("A").dup_elim().mints_oids());
    }
}
