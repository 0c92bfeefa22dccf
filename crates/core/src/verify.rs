//! Static plan verification: the one type checker, reporting every
//! diagnostic, not just the first.
//!
//! [`verify`] types a plan by the many-sorted signatures of §3.2 and the
//! OID-domain rules of §3.1, and collects *all* diagnostics, each tagged
//! with the node path (child indices from the root, [`Expr::children`]
//! order — the same scheme the optimizer's `neighbors_at` and the
//! profiler use) and a severity:
//!
//! * [`Severity::Error`] — the plan violates a static well-formedness
//!   condition of the algebra: an operator applied outside its sort
//!   signature (§3.2), incompatible element schemas at ∪/∩/⊎/− and
//!   `rel_join`, OID-domain violations (the five rules of §3.1),
//!   ill-typed `COMP` predicates, unbound `INPUT` occurrences, unknown
//!   objects/types/fields, wrong arities, out-of-range array bounds.
//! * [`Severity::Lint`] — legal but suspicious shapes: dead projections,
//!   `REF∘DEREF` round-trips (rules 28/28a territory), `DE` above `GRP`
//!   (rules 6/8), idempotent `DE∘DE` (rel4), binders that ignore their
//!   variable, comparisons against `dne`/`unk` literals that three-valued
//!   logic can never satisfy, exact-type filters that can never match.
//!
//! A child that fails sort-checking reports once and poisons only the
//! schemas derived from it (no cascade of follow-on errors), while
//! independent subtrees keep reporting — a plan with two unrelated
//! mistakes yields two diagnostics.
//!
//! [`Report::schema`] is the plan's output schema.  Where two operands
//! meet (∪/∩/⊎/−, array concatenation) it is their principal type: named
//! element types join to their least common ancestor, so
//! `SET_APPLY[DEREF(INPUT)](Students) ⊎ SET_APPLY[DEREF(INPUT)](Employees)`
//! is `{ Person }`, not the left operand's `{ Student }`.  The optimizer's
//! rewrite-soundness gate, its rules' field lookups and
//! `Database::infer_schema` all read it from this walk: a rewrite that
//! changes the deep-resolved output schema or introduces a new error
//! diagnostic is refused (see `excess-optimizer`).

use crate::expr::{Bound, CmpOp, Expr, Func, Pred};
use crate::infer::{value_schema, SchemaCatalog};
use crate::profile::{path_string, NodePath};
use excess_types::{SchemaType, TypeRegistry, Value};
use std::fmt;

/// How bad a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The plan is statically ill-formed; evaluation may fail or produce
    /// garbage.
    Error,
    /// Legal but suspicious — usually a shape a transformation rule could
    /// simplify away, or a predicate that can never hold.
    Lint,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Lint => "lint",
        })
    }
}

/// One finding of the verifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Where in the plan (child indices from the root; empty = root).
    pub path: NodePath,
    /// Error or lint.
    pub severity: Severity,
    /// Stable machine-readable class, e.g. `sort-mismatch`.
    pub code: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] at {}: {}",
            self.severity,
            self.code,
            path_string(&self.path),
            self.message
        )
    }
}

/// The verifier's result: every diagnostic plus the output schema (when
/// the plan is well-sorted enough for one to exist).
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings, in walk (preorder) discovery order.
    pub diagnostics: Vec<Diagnostic>,
    /// The inferred output schema, if the root's schema is determined.
    pub schema: Option<SchemaType>,
}

impl Report {
    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// The lint-severity findings.
    pub fn lints(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Lint)
    }

    /// Number of errors.
    pub fn error_count(&self) -> usize {
        self.errors().count()
    }

    /// Number of lints.
    pub fn lint_count(&self) -> usize {
        self.lints().count()
    }

    /// A plan is *clean* when it has no errors (lints are allowed — they
    /// flag legal shapes).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// All diagnostics rendered one per line (empty string when none).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out
    }
}

/// Statically verify a closed plan against the catalog and type registry,
/// collecting every diagnostic.
pub fn verify(e: &Expr, cat: &dyn SchemaCatalog, reg: &TypeRegistry) -> Report {
    let mut v = Verifier {
        cat,
        reg,
        diags: Vec::new(),
        path: NodePath::new(),
        env: Vec::new(),
    };
    let schema = v.check(e);
    Report {
        diagnostics: v.diags,
        schema,
    }
}

/// Fully resolve `Named` types through the registry (depth-bounded so a
/// malformed recursive registry cannot hang the gate).  `Ref` types keep
/// their name — reference indirection is where recursion legitimately
/// lives, so resolving through it would not terminate.
pub fn resolve_deep(t: &SchemaType, reg: &TypeRegistry) -> SchemaType {
    fn go(t: &SchemaType, reg: &TypeRegistry, fuel: usize) -> SchemaType {
        if fuel == 0 {
            return t.clone();
        }
        match t {
            SchemaType::Named(n) => match reg.lookup(n) {
                Ok(id) => go(reg.full_body(id), reg, fuel - 1),
                Err(_) => t.clone(),
            },
            SchemaType::Tup(fs) => SchemaType::Tup(
                fs.iter()
                    .map(|(n, ft)| (n.clone(), go(ft, reg, fuel - 1)))
                    .collect(),
            ),
            SchemaType::Set(e) => SchemaType::set(go(e, reg, fuel - 1)),
            SchemaType::Arr { elem, len } => SchemaType::Arr {
                elem: Box::new(go(elem, reg, fuel - 1)),
                len: *len,
            },
            SchemaType::Val(_) | SchemaType::Ref(_) => t.clone(),
        }
    }
    go(t, reg, 32)
}

/// The element schema of an empty collection literal or a null — "no
/// information" (see [`value_schema`]); compatible with anything.
fn is_unknown(t: &SchemaType) -> bool {
    matches!(t, SchemaType::Tup(fs) if fs.is_empty())
}

fn is_numeric(t: &SchemaType) -> bool {
    *t == SchemaType::int4() || *t == SchemaType::float4()
}

struct Verifier<'a> {
    cat: &'a dyn SchemaCatalog,
    reg: &'a TypeRegistry,
    diags: Vec<Diagnostic>,
    path: NodePath,
    /// Binder element schemas, innermost last; `None` = unknown because an
    /// earlier error poisoned it (no cascaded diagnostics).
    env: Vec<Option<SchemaType>>,
}

impl<'a> Verifier<'a> {
    fn emit(&mut self, severity: Severity, code: &'static str, message: String) {
        self.diags.push(Diagnostic {
            path: self.path.clone(),
            severity,
            code,
            message,
        });
    }

    fn error(&mut self, code: &'static str, message: String) {
        self.emit(Severity::Error, code, message);
    }

    fn lint(&mut self, code: &'static str, message: String) {
        self.emit(Severity::Lint, code, message);
    }

    fn child(&mut self, i: usize, e: &Expr) -> Option<SchemaType> {
        self.path.push(i);
        let r = self.check(e);
        self.path.pop();
        r
    }

    /// Resolve `Named` one level; unknown names report `unknown-type`.
    fn resolve(&mut self, t: SchemaType) -> Option<SchemaType> {
        match t {
            SchemaType::Named(n) => match self.reg.lookup(&n) {
                Ok(id) => Some(self.reg.full_body(id).clone()),
                Err(_) => {
                    self.error("unknown-type", format!("unknown type `{n}`"));
                    None
                }
            },
            other => Some(other),
        }
    }

    fn expect_set(&mut self, t: Option<SchemaType>, op: &str) -> Option<SchemaType> {
        match self.resolve(t?)? {
            SchemaType::Set(e) => Some(*e),
            other => {
                self.error(
                    "sort-mismatch",
                    format!("{op}: expected multiset, found {other}"),
                );
                None
            }
        }
    }

    fn expect_arr(&mut self, t: Option<SchemaType>, op: &str) -> Option<SchemaType> {
        match self.resolve(t?)? {
            SchemaType::Arr { elem, .. } => Some(*elem),
            other => {
                self.error(
                    "sort-mismatch",
                    format!("{op}: expected array, found {other}"),
                );
                None
            }
        }
    }

    fn expect_tup(&mut self, t: Option<SchemaType>, op: &str) -> Option<Vec<(String, SchemaType)>> {
        match self.resolve(t?)? {
            SchemaType::Tup(fs) => Some(fs),
            other => {
                self.error(
                    "sort-mismatch",
                    format!("{op}: expected tuple, found {other}"),
                );
                None
            }
        }
    }

    /// Least common ancestor of two named types, if any: the most-derived
    /// type both inherit from (§3.1 rule 3 makes its domain a superset of
    /// both).  Ties break toward the earliest-defined type.
    fn common_ancestor(&self, a: excess_types::TypeId, b: excess_types::TypeId) -> Option<String> {
        if self.reg.is_subtype_or_self(a, b) {
            return Some(self.reg.name_of(b).to_string());
        }
        if self.reg.is_subtype_or_self(b, a) {
            return Some(self.reg.name_of(a).to_string());
        }
        let ab = self.reg.ancestors(b);
        let common: Vec<_> = self
            .reg
            .ancestors(a)
            .iter()
            .copied()
            .filter(|t| ab.contains(t))
            .collect();
        // Most derived: no other common ancestor strictly below it.
        common
            .iter()
            .find(|&&c| {
                !common
                    .iter()
                    .any(|&o| o != c && self.reg.is_subtype_or_self(o, c))
            })
            .map(|&c| self.reg.name_of(c).to_string())
    }

    /// Compatibility join of two element schemas (for ∪/∩/⊎/− and array
    /// concatenation): `None` means incompatible.  Named types join to
    /// their least common ancestor — `P::exact::T₁ ⊎ P::exact::T₂` extent
    /// plans are the motivating case.
    fn join(&mut self, a: &SchemaType, b: &SchemaType) -> Option<SchemaType> {
        if a == b {
            return Some(a.clone());
        }
        if is_unknown(a) {
            return Some(b.clone());
        }
        if is_unknown(b) {
            return Some(a.clone());
        }
        match (a, b) {
            (SchemaType::Named(x), SchemaType::Named(y)) => {
                match (self.reg.lookup(x), self.reg.lookup(y)) {
                    (Ok(ix), Ok(iy)) => match self.common_ancestor(ix, iy) {
                        Some(ca) => Some(SchemaType::named(ca)),
                        None => {
                            // No common supertype: fall back to structure.
                            self.join(self.reg.full_body(ix), self.reg.full_body(iy))
                        }
                    },
                    _ => None,
                }
            }
            (SchemaType::Named(x), other) | (other, SchemaType::Named(x)) => {
                let body = self.reg.full_body(self.reg.lookup(x).ok()?);
                self.join(body, other)
            }
            (SchemaType::Ref(x), SchemaType::Ref(y)) => {
                match (self.reg.lookup(x), self.reg.lookup(y)) {
                    (Ok(ix), Ok(iy)) => self.common_ancestor(ix, iy).map(SchemaType::reference),
                    _ => None,
                }
            }
            (SchemaType::Tup(fa), SchemaType::Tup(fb)) => {
                if fa.len() != fb.len() {
                    return None;
                }
                let mut out = Vec::with_capacity(fa.len());
                for ((na, ta), (nb, tb)) in fa.iter().zip(fb) {
                    if na != nb {
                        return None;
                    }
                    out.push((na.clone(), self.join(ta, tb)?));
                }
                Some(SchemaType::Tup(out))
            }
            (SchemaType::Set(ea), SchemaType::Set(eb)) => Some(SchemaType::set(self.join(ea, eb)?)),
            (SchemaType::Arr { elem: ea, len: la }, SchemaType::Arr { elem: eb, len: lb }) => {
                Some(SchemaType::Arr {
                    elem: Box::new(self.join(ea, eb)?),
                    len: if la == lb { *la } else { None },
                })
            }
            (SchemaType::Val(_), SchemaType::Val(_)) => {
                if is_numeric(a) && is_numeric(b) {
                    Some(SchemaType::float4())
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Join the element schemas of a binary multiset/array operator,
    /// reporting `schema-incompatible` at the current node on failure.
    fn join_or_report(
        &mut self,
        a: Option<SchemaType>,
        b: Option<SchemaType>,
        op: &str,
    ) -> Option<SchemaType> {
        let (a, b) = (a?, b?);
        match self.join(&a, &b) {
            Some(j) => Some(j),
            None => {
                self.error(
                    "schema-incompatible",
                    format!("{op}: element schemas {a} and {b} are incompatible"),
                );
                None
            }
        }
    }

    /// Can values of these schemas be meaningfully compared (`=`, `<`, …)?
    fn comparable(&mut self, a: &SchemaType, b: &SchemaType) -> bool {
        self.join(a, b).is_some()
    }

    /// §3.1 rule 4: refs into types with no shared descendant can never be
    /// equal (their OID domains are disjoint); rules 3 and 5 are exactly
    /// the cases where a shared descendant (or subtype chain) exists.
    fn check_ref_comparison(&mut self, a: &SchemaType, b: &SchemaType) {
        let (SchemaType::Ref(x), SchemaType::Ref(y)) = (a, b) else {
            return;
        };
        let (Ok(ix), Ok(iy)) = (self.reg.lookup(x), self.reg.lookup(y)) else {
            return; // unknown-type reported where the ref was built
        };
        if !self.reg.shares_descendant(ix, iy) {
            self.error(
                "oid-domain",
                format!(
                    "comparing `ref {x}` with `ref {y}`: the types share no descendant, \
                     so Odom({x}) ∩ Odom({y}) = ∅ (§3.1 rule 4) — the comparison can \
                     never be true"
                ),
            );
        }
    }

    fn binder_lints(&mut self, body: &Expr, op: &str) {
        if !body.mentions_input(0) {
            let uses_outer = (1..=self.env.len()).any(|d| body.mentions_input(d));
            if uses_outer {
                self.lint(
                    "lint-shadowed-binder",
                    format!(
                        "{op} body ignores its own INPUT but uses an outer binder's — \
                         the inner binder shadows a variable it never consults"
                    ),
                );
            } else {
                self.lint(
                    "lint-unused-binder",
                    format!("{op} body never mentions INPUT — it is constant per occurrence"),
                );
            }
        }
    }

    fn check(&mut self, e: &Expr) -> Option<SchemaType> {
        match e {
            Expr::Input(d) => {
                let len = self.env.len();
                match len.checked_sub(1 + d).and_then(|i| self.env.get(i)) {
                    Some(slot) => slot.clone(),
                    None => {
                        self.error(
                            "unbound-input",
                            format!("INPUT^{d} is unbound ({len} enclosing binder(s))"),
                        );
                        None
                    }
                }
            }
            Expr::Named(n) => match self.cat.object_schema(n) {
                Some(t) => Some(t),
                None => {
                    self.error("unknown-object", format!("unknown object `{n}`"));
                    None
                }
            },
            Expr::Const(v) => Some(value_schema(v, self.reg)),

            Expr::AddUnion(a, b) | Expr::Diff(a, b) | Expr::Union(a, b) | Expr::Intersect(a, b) => {
                let op = match e {
                    Expr::AddUnion(..) => "⊎",
                    Expr::Diff(..) => "−",
                    Expr::Union(..) => "∪",
                    _ => "∩",
                };
                let ta = self.child(0, a);
                let tb = self.child(1, b);
                let ea = self.expect_set(ta, op);
                let eb = self.expect_set(tb, op);
                if let Expr::AddUnion(..) = e {
                    // ⊎ is pure bag concatenation — it never compares
                    // elements, and the dispatch2 rule deliberately builds
                    // heterogeneous ⊎ plans from switch tables.  Flag the
                    // mix as suspicious and keep the left-hand shape.
                    let (ea, eb) = (ea?, eb?);
                    let elem = match self.join(&ea, &eb) {
                        Some(j) => j,
                        None => {
                            self.lint(
                                "lint-heterogeneous-union",
                                format!(
                                    "⊎ mixes element schemas {ea} and {eb}; downstream \
                                     operators see only the left-hand shape"
                                ),
                            );
                            ea
                        }
                    };
                    return Some(SchemaType::set(elem));
                }
                Some(SchemaType::set(self.join_or_report(ea, eb, op)?))
            }
            Expr::MakeSet(a) => Some(SchemaType::set(self.child(0, a)?)),
            Expr::SetApply {
                input,
                body,
                only_types,
            } => {
                let ti = self.child(0, input);
                let input_elem = self.expect_set(ti, "SET_APPLY");
                let elem = match only_types {
                    Some(ts) => {
                        if ts.is_empty() {
                            self.error(
                                "sort-mismatch",
                                "SET_APPLY: empty exact-type filter".to_string(),
                            );
                        }
                        for t in ts {
                            if self.reg.lookup(t).is_err() {
                                self.error(
                                    "unknown-type",
                                    format!("SET_APPLY type filter names unknown type `{t}`"),
                                );
                            }
                        }
                        // A filter type that is not a descendant of the
                        // element type can never match (§3.1 rules 3/4:
                        // only subtype OIDs flow into the element's
                        // domain).
                        if let Some(SchemaType::Named(en)) = &input_elem {
                            if let Ok(eid) = self.reg.lookup(en) {
                                for t in ts {
                                    if let Ok(tid) = self.reg.lookup(t) {
                                        if !self.reg.is_subtype_or_self(tid, eid) {
                                            self.lint(
                                                "lint-dead-type-filter",
                                                format!(
                                                    "exact-type filter `{t}` can never match \
                                                     elements of `{en}` (`{t}` does not \
                                                     inherit `{en}` — §3.1 rules 3/4)"
                                                ),
                                            );
                                        }
                                    }
                                }
                            }
                        }
                        ts.first().map(|t| SchemaType::named(t.clone()))
                    }
                    None => input_elem,
                };
                self.binder_lints(body, "SET_APPLY");
                self.env.push(elem);
                let out = self.child(1, body);
                self.env.pop();
                Some(SchemaType::set(out?))
            }
            Expr::Group { input, by } => {
                let elem = {
                    let ti = self.child(0, input);
                    self.expect_set(ti, "GRP")
                };
                self.binder_lints(by, "GRP");
                self.env.push(elem.clone());
                let key = self.child(1, by);
                self.env.pop();
                let _ = key;
                Some(SchemaType::set(SchemaType::set(elem?)))
            }
            Expr::DupElim(a) => {
                match &**a {
                    Expr::DupElim(_) => self.lint(
                        "lint-de-de",
                        "DE(DE(…)) — duplicate elimination is idempotent (rel4)".to_string(),
                    ),
                    Expr::Group { .. } => self.lint(
                        "lint-de-above-group",
                        "DE above GRP — GRP's equivalence classes are already \
                         duplicate-free (rule 6)"
                            .to_string(),
                    ),
                    Expr::SetApply { input, .. } if matches!(&**input, Expr::Group { .. }) => self
                        .lint(
                            "lint-de-above-group",
                            "DE above SET_APPLY(GRP) — rule 8 could push the DE through \
                             the GRP (dup-aware distinct)"
                                .to_string(),
                        ),
                    _ => {}
                }
                let t = self.child(0, a);
                let _ = self.expect_set(t.clone(), "DE")?;
                t
            }
            Expr::Cross(a, b) => {
                let ta = self.child(0, a);
                let tb = self.child(1, b);
                let ea = self.expect_set(ta, "×")?;
                let eb = self.expect_set(tb, "×")?;
                Some(SchemaType::set(SchemaType::tuple([
                    ("fst", ea),
                    ("snd", eb),
                ])))
            }
            Expr::SetCollapse(a) => {
                let t = self.child(0, a);
                let outer = self.expect_set(t, "SET_COLLAPSE");
                let inner = self.expect_set(outer, "SET_COLLAPSE")?;
                Some(SchemaType::set(inner))
            }

            Expr::Project(a, names) => {
                let t = self.child(0, a);
                let fs = self.expect_tup(t, "π")?;
                let mut out = Vec::with_capacity(names.len());
                let mut all_found = true;
                for n in names {
                    match fs.iter().find(|(m, _)| m == n) {
                        Some((_, ft)) => out.push((n.clone(), ft.clone())),
                        None => {
                            all_found = false;
                            self.error("no-such-field", format!("π: no field `{n}`"));
                        }
                    }
                }
                if all_found
                    && names.len() == fs.len()
                    && names.iter().zip(&fs).all(|(n, (m, _))| n == m)
                {
                    self.lint(
                        "lint-dead-projection",
                        "π projects every field in its original order — the projection \
                         is an identity"
                            .to_string(),
                    );
                }
                if !all_found {
                    return None;
                }
                Some(SchemaType::Tup(out))
            }
            Expr::TupCat(a, b) => {
                let ta = self.child(0, a);
                let tb = self.child(1, b);
                let fa = self.expect_tup(ta, "TUP_CAT")?;
                let fb = self.expect_tup(tb, "TUP_CAT")?;
                Some(SchemaType::Tup(crate::infer::cat_fields(fa, fb)))
            }
            Expr::TupExtract(a, n) => {
                let t = self.child(0, a);
                let fs = self.expect_tup(t, "TUP_EXTRACT")?;
                match fs.into_iter().find(|(m, _)| m == n) {
                    Some((_, ft)) => Some(ft),
                    None => {
                        self.error("no-such-field", format!("TUP_EXTRACT: no field `{n}`"));
                        None
                    }
                }
            }
            Expr::MakeTup(a, n) => Some(SchemaType::Tup(vec![(n.clone(), self.child(0, a)?)])),

            Expr::MakeArr(a) => Some(SchemaType::array(self.child(0, a)?)),
            Expr::ArrExtract(a, bound) => {
                let t = self.child(0, a);
                let resolved = t.clone().and_then(|x| self.resolve(x));
                if let Bound::At(n) = bound {
                    if *n == 0 {
                        self.error(
                            "arr-bound",
                            "ARR_EXTRACT: array indices are 1-based; index 0 never exists"
                                .to_string(),
                        );
                    } else if let Some(SchemaType::Arr { len: Some(len), .. }) = &resolved {
                        if *n > *len {
                            self.error(
                                "arr-bound",
                                format!(
                                    "ARR_EXTRACT: index {n} out of bounds for an array of \
                                     fixed length {len}"
                                ),
                            );
                        }
                    }
                }
                self.expect_arr(t, "ARR_EXTRACT")
            }
            Expr::ArrApply { input, body } => {
                let elem = {
                    let t = self.child(0, input);
                    self.expect_arr(t, "ARR_APPLY")
                };
                self.binder_lints(body, "ARR_APPLY");
                self.env.push(elem);
                let out = self.child(1, body);
                self.env.pop();
                Some(SchemaType::array(out?))
            }
            Expr::SubArr(a, m, n) => {
                if matches!(m, Bound::At(0)) || matches!(n, Bound::At(0)) {
                    self.error(
                        "arr-bound",
                        "SUBARR: array indices are 1-based; bound 0 never exists".to_string(),
                    );
                }
                if let (Bound::At(lo), Bound::At(hi)) = (m, n) {
                    if lo > hi {
                        self.lint(
                            "lint-empty-subarr",
                            format!("SUBARR[{lo},{hi}]: lower bound above upper — always empty"),
                        );
                    }
                }
                let t = self.child(0, a);
                let elem = self.expect_arr(t, "SUBARR")?;
                Some(SchemaType::array(elem))
            }
            Expr::ArrDupElim(a) => {
                let t = self.child(0, a);
                let elem = self.expect_arr(t, "ARR_DE")?;
                Some(SchemaType::array(elem))
            }
            Expr::ArrCat(a, b) | Expr::ArrDiff(a, b) => {
                let op = if matches!(e, Expr::ArrCat(..)) {
                    "ARR_CAT"
                } else {
                    "ARR_DIFF"
                };
                let ta = self.child(0, a);
                let tb = self.child(1, b);
                let ea = self.expect_arr(ta, op);
                let eb = self.expect_arr(tb, op);
                Some(SchemaType::array(self.join_or_report(ea, eb, op)?))
            }
            Expr::ArrCollapse(a) => {
                let t = self.child(0, a);
                let outer = self.expect_arr(t, "ARR_COLLAPSE");
                let inner = self.expect_arr(outer, "ARR_COLLAPSE")?;
                Some(SchemaType::array(inner))
            }
            Expr::ArrCross(a, b) => {
                let ta = self.child(0, a);
                let tb = self.child(1, b);
                let ea = self.expect_arr(ta, "ARR_CROSS")?;
                let eb = self.expect_arr(tb, "ARR_CROSS")?;
                Some(SchemaType::array(SchemaType::tuple([
                    ("fst", ea),
                    ("snd", eb),
                ])))
            }

            Expr::MakeRef(a, ty) => {
                if matches!(&**a, Expr::Deref(_)) {
                    self.lint(
                        "lint-ref-deref",
                        "REF(DEREF(…)) re-mints an object it just materialised — rule 28 \
                         cancels the round-trip (modulo object identity)"
                            .to_string(),
                    );
                }
                let ta = self.child(0, a);
                match self.reg.lookup(ty) {
                    Err(_) => {
                        self.error("unknown-type", format!("REF: unknown type `{ty}`"));
                    }
                    Ok(id) => {
                        // §3.1 (amended definition v′): the minted object's
                        // value must inhabit dom(ty), i.e. be compatible
                        // with the type's full body.
                        if let Some(ta) = &ta {
                            let body = self.reg.full_body(id);
                            if self.join(ta, body).is_none() {
                                self.error(
                                    "oid-domain",
                                    format!(
                                        "REF[{ty}]: a value of schema {ta} cannot inhabit \
                                         dom({ty}) = {body} (§3.1, amended definition v′)"
                                    ),
                                );
                            }
                        }
                    }
                }
                Some(SchemaType::reference(ty.clone()))
            }
            Expr::Deref(a) => {
                if matches!(&**a, Expr::MakeRef(..)) {
                    self.lint(
                        "lint-ref-deref",
                        "DEREF(REF(…)) materialises an object it just minted — rule 28a \
                         cancels the round-trip"
                            .to_string(),
                    );
                }
                let t = self.child(0, a);
                match self.resolve(t?)? {
                    SchemaType::Ref(n) => {
                        if self.reg.lookup(&n).is_err() {
                            self.error("unknown-type", format!("DEREF: unknown type `{n}`"));
                            None
                        } else {
                            Some(SchemaType::named(n))
                        }
                    }
                    other => {
                        self.error(
                            "sort-mismatch",
                            format!("DEREF: expected ref, found {other}"),
                        );
                        None
                    }
                }
            }

            Expr::Comp { input, pred } => {
                let t = self.child(0, input);
                self.env.push(t.clone());
                let mut idx = 1;
                self.check_pred(pred, &mut idx);
                self.env.pop();
                t
            }
            Expr::Select { input, pred } => {
                let t = self.child(0, input);
                let elem = self.expect_set(t.clone(), "σ");
                self.env.push(elem);
                let mut idx = 1;
                self.check_pred(pred, &mut idx);
                self.env.pop();
                t
            }
            Expr::ArrSelect { input, pred } => {
                let t = self.child(0, input);
                let elem = self.expect_arr(t.clone(), "arr_σ");
                self.env.push(elem);
                let mut idx = 1;
                self.check_pred(pred, &mut idx);
                self.env.pop();
                t
            }
            Expr::RelCross(a, b)
            | Expr::RelJoin {
                left: a, right: b, ..
            } => {
                let op = if matches!(e, Expr::RelCross(..)) {
                    "rel_×"
                } else {
                    "rel_join"
                };
                let ta = self.child(0, a);
                let tb = self.child(1, b);
                let ea = self.expect_set(ta, op);
                let eb = self.expect_set(tb, op);
                let fa = self.expect_tup(ea, op);
                let fb = self.expect_tup(eb, op);
                let joined = match (fa, fb) {
                    (Some(fa), Some(fb)) => Some(SchemaType::Tup(crate::infer::cat_fields(fa, fb))),
                    _ => None,
                };
                if let Expr::RelJoin { pred, .. } = e {
                    self.env.push(joined.clone());
                    let mut idx = 2;
                    self.check_pred(pred, &mut idx);
                    self.env.pop();
                }
                Some(SchemaType::set(joined?))
            }

            Expr::Call(f, args) => {
                let mut arg_tys = Vec::with_capacity(args.len());
                for (i, a) in args.iter().enumerate() {
                    arg_tys.push(self.child(i, a));
                }
                self.check_call(*f, &arg_tys)
            }

            Expr::SetApplySwitch { input, table } => {
                let elem = {
                    let t = self.child(0, input);
                    self.expect_set(t, "SET_APPLY_SWITCH")
                };
                let elem_id = match &elem {
                    Some(SchemaType::Named(en)) => self.reg.lookup(en).ok(),
                    _ => None,
                };
                let mut first: Option<(String, SchemaType)> = None;
                for (i, (ty_name, body)) in table.iter().enumerate() {
                    let arm_elem = match self.reg.lookup(ty_name) {
                        Ok(tid) => {
                            if let Some(eid) = elem_id {
                                if !self.reg.is_subtype_or_self(tid, eid) {
                                    self.lint(
                                        "lint-dead-type-filter",
                                        format!(
                                            "switch arm `{ty_name}` can never match elements \
                                             of the input's type (§3.1 rules 3/4)"
                                        ),
                                    );
                                }
                            }
                            Some(SchemaType::named(ty_name.clone()))
                        }
                        Err(_) => {
                            self.error(
                                "unknown-type",
                                format!("SET_APPLY_SWITCH arm names unknown type `{ty_name}`"),
                            );
                            None
                        }
                    };
                    self.env.push(arm_elem);
                    let out = self.child(1 + i, body);
                    self.env.pop();
                    if let Some(out) = out {
                        match &first {
                            None => first = Some((ty_name.clone(), out)),
                            Some((fname, fout)) => {
                                // Section 4 asks for identical method
                                // signatures; this implementation runs
                                // heterogeneous arms (the element schema
                                // is taken from the first arm), so
                                // divergence is suspicious, not fatal.
                                if self.join(fout, &out).is_none() {
                                    let msg = format!(
                                        "SET_APPLY_SWITCH arms disagree: arm `{fname}` \
                                         yields {fout} but arm `{ty_name}` yields {out} \
                                         (Section 4 expects identical signatures)"
                                    );
                                    self.lint("lint-switch-arm-divergence", msg);
                                }
                            }
                        }
                    }
                }
                let out = first.map(|(_, t)| t).or(elem);
                Some(SchemaType::set(out?))
            }
        }
    }

    fn check_call(&mut self, f: Func, arg_tys: &[Option<SchemaType>]) -> Option<SchemaType> {
        let arity = |v: &mut Self, want: usize| {
            if arg_tys.len() != want {
                v.error(
                    "arity",
                    format!("{f} takes {want} argument(s), got {}", arg_tys.len()),
                );
                false
            } else {
                true
            }
        };
        match f {
            Func::Add | Func::Sub | Func::Mul | Func::Div => {
                if !arity(self, 2) {
                    return None;
                }
                for t in arg_tys.iter().flatten() {
                    if let Some(r) = self.resolve(t.clone()) {
                        if !is_numeric(&r) && !is_unknown(&r) {
                            self.error(
                                "sort-mismatch",
                                format!("{f}: expected a numeric operand, found {r}"),
                            );
                        }
                    }
                }
                Some(crate::infer::numeric_join(
                    arg_tys[0].as_ref()?,
                    arg_tys[1].as_ref()?,
                ))
            }
            Func::Neg => {
                if !arity(self, 1) {
                    return None;
                }
                let r = self.resolve(arg_tys[0].clone()?)?;
                if !is_numeric(&r) && !is_unknown(&r) {
                    self.error(
                        "sort-mismatch",
                        format!("neg: expected a numeric operand, found {r}"),
                    );
                    return None;
                }
                Some(r)
            }
            Func::Age => {
                if !arity(self, 1) {
                    return None;
                }
                let r = self.resolve(arg_tys[0].clone()?)?;
                if r != SchemaType::date() && !is_unknown(&r) {
                    self.error("sort-mismatch", format!("age: expected a date, found {r}"));
                }
                Some(SchemaType::int4())
            }
            Func::Count => {
                if !arity(self, 1) {
                    return None;
                }
                match self.resolve(arg_tys[0].clone()?)? {
                    SchemaType::Set(_) | SchemaType::Arr { .. } => {}
                    other => self.error(
                        "sort-mismatch",
                        format!("count: expected a collection, found {other}"),
                    ),
                }
                Some(SchemaType::int4())
            }
            Func::Avg => {
                if !arity(self, 1) {
                    return None;
                }
                self.check_numeric_collection(arg_tys[0].clone(), "avg");
                Some(SchemaType::float4())
            }
            Func::Sum => {
                if !arity(self, 1) {
                    return None;
                }
                self.check_numeric_collection(arg_tys[0].clone(), "sum")
            }
            Func::Min | Func::Max => {
                if !arity(self, 1) {
                    return None;
                }
                match self.resolve(arg_tys[0].clone()?)? {
                    SchemaType::Set(e) => Some(*e),
                    SchemaType::Arr { elem, .. } => Some(*elem),
                    other => {
                        self.error(
                            "sort-mismatch",
                            format!("{f}: expected a collection, found {other}"),
                        );
                        None
                    }
                }
            }
            Func::The => {
                if !arity(self, 1) {
                    return None;
                }
                match self.resolve(arg_tys[0].clone()?)? {
                    SchemaType::Set(e) => Some(*e),
                    other => {
                        self.error(
                            "sort-mismatch",
                            format!("the: expected a multiset, found {other}"),
                        );
                        None
                    }
                }
            }
        }
    }

    fn check_numeric_collection(&mut self, t: Option<SchemaType>, op: &str) -> Option<SchemaType> {
        match self.resolve(t?)? {
            SchemaType::Set(e) | SchemaType::Arr { elem: e, .. } => {
                let r = self.resolve(*e)?;
                if !is_numeric(&r) && !is_unknown(&r) {
                    self.error(
                        "sort-mismatch",
                        format!("{op}: expected numeric elements, found {r}"),
                    );
                    None
                } else {
                    Some(r)
                }
            }
            other => {
                self.error(
                    "sort-mismatch",
                    format!("{op}: expected a collection, found {other}"),
                );
                None
            }
        }
    }

    fn check_pred(&mut self, p: &Pred, idx: &mut usize) {
        match p {
            Pred::Cmp(l, op, r) => {
                let il = *idx;
                *idx += 1;
                let tl = self.child(il, l);
                let ir = *idx;
                *idx += 1;
                let tr = self.child(ir, r);
                for side in [&**l, &**r] {
                    if let Expr::Const(Value::Null(n)) = side {
                        let lit = match n {
                            excess_types::Null::Dne => "dne",
                            excess_types::Null::Unk => "unk",
                        };
                        self.lint(
                            "lint-null-comparison",
                            format!(
                                "comparison against the `{lit}` literal can never be true \
                                 under three-valued logic (§3.3) — the predicate never \
                                 accepts"
                            ),
                        );
                    }
                }
                let (Some(tl), Some(tr)) = (tl, tr) else {
                    return;
                };
                let (rl, rr) = (resolve_deep(&tl, self.reg), resolve_deep(&tr, self.reg));
                if *op == CmpOp::In {
                    match rr {
                        SchemaType::Set(e) => {
                            if !self.comparable(&rl, &e) {
                                self.error(
                                    "predicate-type",
                                    format!(
                                        "`in`: element schema {tl} is incomparable with \
                                         multiset elements of schema {e}"
                                    ),
                                );
                            }
                            self.check_ref_comparison(&rl, &e);
                        }
                        other if is_unknown(&other) => {}
                        other => self.error(
                            "predicate-type",
                            format!("`in`: right-hand side must be a multiset, found {other}"),
                        ),
                    }
                } else {
                    if !self.comparable(&rl, &rr) {
                        self.error(
                            "predicate-type",
                            format!("`{op}`: cannot compare {tl} with {tr}"),
                        );
                    }
                    self.check_ref_comparison(&rl, &rr);
                }
            }
            Pred::And(a, b) => {
                self.check_pred(a, idx);
                self.check_pred(b, idx);
            }
            Pred::Not(q) => self.check_pred(q, idx),
        }
    }
}
