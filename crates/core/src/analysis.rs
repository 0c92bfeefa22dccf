//! Plan property analysis: abstract interpretation over the algebra.
//!
//! A bottom-up dataflow pass derives, per node path, a [`Props`] record —
//! cardinality bounds, duplicate-freeness, candidate keys and functional
//! dependencies, and per-attribute presence / `dne` / `unk` nullability on
//! a three-point *never / possible / always* lattice ([`Fact`]).  The
//! cost model and the lowering layer only *estimate*; this pass
//! *proves*.  Its consumers are the verifier's lints (redundant DISTINCT,
//! always-empty branches) and the memo's per-group property summaries,
//! both data-free.
//!
//! # The claims and their fine print
//!
//! For a **closed** expression `E` (no free `INPUT`) analysed against a
//! [`Catalog`], the derived `Props` describe the value `E` evaluates to
//! *under that same catalog state*, **conditional on successful
//! evaluation**.  Two tiers of claim:
//!
//! * `coll = Some(kind)` is **unconditional on sort**: the value *is* a
//!   multiset (resp. array), not a null and not a scalar.  Emptiness
//!   (`card_hi == Some(0)`) and any rewrite it would license require this
//!   tier — `A ⊎ B → B` is only sound when `A` provably *is* the empty
//!   multiset, since `⊎` propagates a null `A`.
//! * every other field is **conditional on the value being a
//!   collection**: if `E` evaluates to a multiset/array then its
//!   occurrences satisfy the claim.  This matches how the facts are
//!   consumed: the hash-join kernel, for example, only runs after
//!   `as_set` has already established the operand's sort.
//!
//! Attribute facts ([`AttrProps`]) are scoped to *tuple occurrences*:
//! `present = Always` means every tuple occurrence has the field;
//! `dne = Never` means no tuple occurrence holds the `dne` null there.
//! `tuple_only` upgrades the scope to *all* occurrences (multisets drop
//! `dne` elements at insertion, so the only non-tuple occurrences a
//! "set of tuples" can pick up are `unk`s minted by three-valued
//! predicates).  Keys are claimed only together with `tuple_only` and
//! `dup_free`; a key `K` asserts that occurrences are pairwise distinct
//! on their `K`-projection.  Functional dependencies `X → y` assert
//! that tuple occurrences agreeing on `X` agree on `y`.
//!
//! # Soundness
//!
//! Every transfer function is journaled ([`AnalysisStep`]) and the
//! whole derivation is checked empirically by a proptest battery
//! (`tests/analysis_soundness.rs`) that executes random pipelines and
//! asserts each derived property on the actual canon result.  When no
//! data is available ([`crate::catalog::EmptyCatalog`]) named leaves get
//! [`Props::unknown`] and the pass
//! degrades to purely structural reasoning, which is how the plan
//! verifier uses it.
//!
//! # Example
//!
//! Even data-free, structure alone proves facts: a `DE` output is
//! duplicate-free whatever the extent holds, while the bare leaf proves
//! nothing.
//!
//! ```
//! use excess_core::analysis::analyze;
//! use excess_core::catalog::EmptyCatalog;
//! use excess_core::expr::Expr;
//!
//! let plan = Expr::named("S").dup_elim();
//! let a = analyze(&plan, &EmptyCatalog);
//! assert!(a.props_at(&[]).unwrap().dup_free);   // the DE node
//! assert!(!a.props_at(&[0]).unwrap().dup_free); // the unknown leaf
//! ```

use crate::catalog::Catalog;
use crate::expr::{Bound, CmpOp, Expr, Pred};
use crate::profile::NodePath;
use crate::render::op_label;
use excess_types::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Three-point lattice for "does X occur?": proven never, unknown, or
/// proven on every occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fact {
    /// Proven not to occur.
    Never,
    /// No proof either way (the lattice top).
    Possible,
    /// Proven to occur on every occurrence in scope.
    Always,
}

impl Fact {
    /// Merge facts across a union of occurrence populations: a claim
    /// survives only when both sides make it.
    pub fn union(self, other: Fact) -> Fact {
        if self == other {
            self
        } else {
            Fact::Possible
        }
    }

    /// Merge facts when every occurrence satisfies *both* sides'
    /// constraints (intersection-like flows): keep the stronger claim.
    pub fn refine(self, other: Fact) -> Fact {
        match (self, other) {
            (Fact::Possible, f) | (f, _) => f,
        }
    }
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Fact::Never => "never",
            Fact::Possible => "possible",
            Fact::Always => "always",
        })
    }
}

/// Which collection sort a node is proven to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollKind {
    /// A multiset.
    Set,
    /// An array.
    Array,
}

/// Per-attribute facts, scoped to tuple occurrences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrProps {
    /// Does every tuple occurrence carry this field?
    pub present: Fact,
    /// Can the field hold the `dne` null?
    pub dne: Fact,
    /// Can the field hold the `unk` null?
    pub unk: Fact,
    /// Uniform [`Value::kind_name`] of the field's non-null values, when
    /// proven uniform.
    pub kind: Option<&'static str>,
}

impl AttrProps {
    /// No proof about anything.
    pub fn top() -> AttrProps {
        AttrProps {
            present: Fact::Possible,
            dne: Fact::Possible,
            unk: Fact::Possible,
            kind: None,
        }
    }

    /// Proven present on every tuple, never null, of one kind.
    pub fn definite(kind: &'static str) -> AttrProps {
        AttrProps {
            present: Fact::Always,
            dne: Fact::Never,
            unk: Fact::Never,
            kind: Some(kind),
        }
    }

    /// Is the field proven present and proven free of both nulls — the
    /// static counterpart of the hash-join guard's per-row checks?
    pub fn is_definite_key(&self) -> bool {
        self.present == Fact::Always && self.dne == Fact::Never && self.unk == Fact::Never
    }
}

/// One functional dependency: tuples agreeing on `lhs` agree on `rhs`.
pub type Fd = (BTreeSet<String>, String);

/// The derived property record for one plan node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Props {
    /// Proven collection sort (`None`: could be null/scalar/either sort).
    pub coll: Option<CollKind>,
    /// Lower bound on the occurrence count.
    pub card_lo: u64,
    /// Upper bound on the occurrence count (`None` = unbounded).
    pub card_hi: Option<u64>,
    /// No value occurs more than once.
    pub dup_free: bool,
    /// Every occurrence is a tuple (no `unk` elements).
    pub tuple_only: bool,
    /// Facts per attribute of tuple occurrences.
    pub attrs: BTreeMap<String, AttrProps>,
    /// `attrs` lists every field any tuple occurrence can carry.
    pub attrs_exhaustive: bool,
    /// Candidate keys; claimed only with `tuple_only ∧ dup_free`.
    pub keys: Vec<BTreeSet<String>>,
    /// Functional dependencies among attributes.
    pub fds: Vec<Fd>,
}

impl Props {
    /// The lattice top: no claims at all.
    pub fn unknown() -> Props {
        Props {
            coll: None,
            card_lo: 0,
            card_hi: None,
            dup_free: false,
            tuple_only: false,
            attrs: BTreeMap::new(),
            attrs_exhaustive: false,
            keys: Vec::new(),
            fds: Vec::new(),
        }
    }

    /// The provably empty collection of the given sort (all per-occurrence
    /// claims hold vacuously).
    pub fn empty(kind: CollKind) -> Props {
        Props {
            coll: Some(kind),
            card_lo: 0,
            card_hi: Some(0),
            dup_free: true,
            tuple_only: true,
            attrs: BTreeMap::new(),
            attrs_exhaustive: true,
            keys: vec![BTreeSet::new()],
            fds: Vec::new(),
        }
    }

    /// Proven empty (and proven to be a collection at all).
    pub fn is_empty_coll(&self) -> bool {
        self.coll.is_some() && self.card_hi == Some(0)
    }

    /// Proven to be a multiset.
    pub fn is_set(&self) -> bool {
        self.coll == Some(CollKind::Set)
    }

    /// Exact scan of a literal or stored value: the base facts of the
    /// analysis.  Collections are measured, not estimated.
    pub fn of_value(v: &Value) -> Props {
        match v {
            Value::Set(s) => {
                let occurrences: Vec<(&Value, u64)> = s.iter_counted().collect();
                Props::of_occurrences(
                    CollKind::Set,
                    s.len(),
                    occurrences.iter().all(|(_, c)| *c == 1),
                    occurrences.iter().map(|(v, _)| *v),
                )
            }
            Value::Array(a) => {
                let distinct: BTreeSet<&Value> = a.iter().collect();
                Props::of_occurrences(
                    CollKind::Array,
                    a.len() as u64,
                    distinct.len() == a.len(),
                    a.iter(),
                )
            }
            _ => Props::unknown(),
        }
    }

    fn of_occurrences<'v>(
        kind: CollKind,
        card: u64,
        dup_free: bool,
        occurrences: impl Iterator<Item = &'v Value> + Clone,
    ) -> Props {
        let mut tuple_only = true;
        let mut attrs: BTreeMap<String, AttrProps> = BTreeMap::new();
        let mut field_sets: BTreeSet<BTreeSet<&str>> = BTreeSet::new();
        let mut tuples = 0u64;
        for v in occurrences.clone() {
            let Value::Tuple(t) = v else {
                tuple_only = false;
                continue;
            };
            tuples += 1;
            field_sets.insert(t.field_names().collect());
            for (name, fv) in t.iter() {
                let ap = attrs
                    .entry(name.to_string())
                    .or_insert_with(|| AttrProps::definite(fv.kind_name()));
                match fv {
                    Value::Null(excess_types::Null::Dne) => ap.dne = Fact::Always,
                    Value::Null(excess_types::Null::Unk) => ap.unk = Fact::Always,
                    _ => {
                        if ap.kind != Some(fv.kind_name()) {
                            ap.kind = None;
                        }
                    }
                }
            }
        }
        // Downgrade presence/null facts that did not hold on every tuple.
        for (name, ap) in attrs.iter_mut() {
            let present_in_all = field_sets.iter().all(|fs| fs.contains(name.as_str()));
            if !present_in_all {
                ap.present = Fact::Possible;
            }
            // `Always` above meant "seen at least once"; keep `Always`
            // only when *every* present field value was that null, else
            // it is merely possible.  (We never need `Always` nulls; be
            // conservative and collapse any sighting to `Possible`.)
            if ap.dne == Fact::Always {
                ap.dne = Fact::Possible;
                ap.kind = None;
            }
            if ap.unk == Fact::Always {
                ap.unk = Fact::Possible;
                ap.kind = None;
            }
        }
        let mut keys: Vec<BTreeSet<String>> = Vec::new();
        if tuple_only && dup_free {
            // The full field set keys the collection when it is shared.
            if field_sets.len() <= 1 {
                keys.push(field_sets.iter().flatten().map(|s| s.to_string()).collect());
            }
            // Single-attribute keys, measured directly.
            for (name, ap) in &attrs {
                if ap.present != Fact::Always {
                    continue;
                }
                let mut seen: BTreeSet<&Value> = BTreeSet::new();
                let mut distinct = true;
                for v in occurrences.clone() {
                    if let Value::Tuple(t) = v {
                        match t.get(name) {
                            Some(fv) if seen.insert(fv) => {}
                            _ => {
                                distinct = false;
                                break;
                            }
                        }
                    }
                }
                if distinct && tuples > 0 {
                    let single: BTreeSet<String> = [name.clone()].into();
                    if !keys.contains(&single) {
                        keys.push(single);
                    }
                }
            }
        }
        Props {
            coll: Some(kind),
            card_lo: card,
            card_hi: Some(card),
            dup_free,
            tuple_only,
            attrs,
            attrs_exhaustive: true,
            keys,
            fds: Vec::new(),
        }
    }

    /// Attribute-set closure under the recorded FDs and keys: everything
    /// functionally determined by `start`.
    pub fn closure(&self, start: &BTreeSet<String>) -> BTreeSet<String> {
        let mut c = start.clone();
        loop {
            let mut grew = false;
            for (lhs, rhs) in &self.fds {
                if lhs.is_subset(&c) && c.insert(rhs.clone()) {
                    grew = true;
                }
            }
            if self.attrs_exhaustive && self.keys.iter().any(|k| k.is_subset(&c)) {
                for a in self.attrs.keys() {
                    if c.insert(a.clone()) {
                        grew = true;
                    }
                }
            }
            if !grew {
                return c;
            }
        }
    }

    /// Do `cols` functionally determine a candidate key (so a projection
    /// onto `cols` cannot collide distinct tuples)?
    pub fn superkey(&self, cols: &BTreeSet<String>) -> bool {
        let c = self.closure(cols);
        self.keys.iter().any(|k| k.is_subset(&c))
    }

    /// Attribute facts, defaulting to top for unknown fields.
    pub fn attr(&self, name: &str) -> AttrProps {
        self.attrs.get(name).cloned().unwrap_or_else(AttrProps::top)
    }

    /// One-line rendering for the REPL / journal.
    pub fn render(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        match self.coll {
            Some(CollKind::Set) => parts.push("set".into()),
            Some(CollKind::Array) => parts.push("array".into()),
            None => parts.push("sort?".into()),
        }
        match self.card_hi {
            Some(hi) if hi == self.card_lo => parts.push(format!("card={hi}")),
            Some(hi) => parts.push(format!("card={}..{}", self.card_lo, hi)),
            None => parts.push(format!("card={}..∞", self.card_lo)),
        }
        if self.dup_free {
            parts.push("dup-free".into());
        }
        if self.tuple_only {
            parts.push("tuples".into());
        }
        if !self.keys.is_empty() {
            let keys: Vec<String> = self
                .keys
                .iter()
                .map(|k| {
                    let cols: Vec<&str> = k.iter().map(|s| s.as_str()).collect();
                    format!("{{{}}}", cols.join(","))
                })
                .collect();
            parts.push(format!("keys={}", keys.join("")));
        }
        if !self.fds.is_empty() {
            parts.push(format!("fds={}", self.fds.len()));
        }
        let definite: Vec<&str> = self
            .attrs
            .iter()
            .filter(|(_, ap)| ap.is_definite_key())
            .map(|(n, _)| n.as_str())
            .collect();
        if !definite.is_empty() {
            parts.push(format!("non-null={{{}}}", definite.join(",")));
        }
        parts.join(" ")
    }
}

/// One journaled transfer-function application.
#[derive(Debug, Clone)]
pub struct AnalysisStep {
    /// Node path in [`Expr::children`] order.
    pub path: NodePath,
    /// Operator label at the node.
    pub op: String,
    /// Which transfer rule fired and what it concluded.
    pub note: String,
}

/// The result of analysing one plan: per-path properties plus the
/// transfer-function journal.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// Derived properties per closed node path.
    pub props: BTreeMap<NodePath, Props>,
    /// One step per analysed node, in post-order.
    pub journal: Vec<AnalysisStep>,
}

impl Analysis {
    /// Properties at a node path, if the node was closed and analysed.
    pub fn props_at(&self, path: &[usize]) -> Option<&Props> {
        self.props.get(path)
    }

    /// Render every analysed node as `path  op: props`, root first.
    pub fn render(&self) -> String {
        let mut steps: Vec<&AnalysisStep> = self.journal.iter().collect();
        steps.sort_by(|a, b| a.path.cmp(&b.path));
        let mut out = String::new();
        for s in steps {
            let path = if s.path.is_empty() {
                "root".to_string()
            } else {
                format!(
                    "[{}]",
                    s.path
                        .iter()
                        .map(|i| i.to_string())
                        .collect::<Vec<_>>()
                        .join(".")
                )
            };
            let props = self
                .props
                .get(&s.path)
                .map(Props::render)
                .unwrap_or_default();
            out.push_str(&format!("{path}  {}: {props}  — {}\n", s.op, s.note));
        }
        out
    }
}

/// Analyse a plan bottom-up against `data`.  Pass
/// [`crate::catalog::EmptyCatalog`] for the purely structural (data-free)
/// mode the verifier uses.
pub fn analyze(e: &Expr, data: &dyn Catalog) -> Analysis {
    let mut out = Analysis::default();
    let mut path = Vec::new();
    walk(e, 0, &mut path, data, &mut out);
    out
}

/// How many binders child `i` of `e` sits under, relative to `e`.
fn child_binder_delta(e: &Expr, i: usize) -> usize {
    let bound = match e {
        Expr::SetApply { .. }
        | Expr::ArrApply { .. }
        | Expr::Group { .. }
        | Expr::Select { .. }
        | Expr::ArrSelect { .. }
        | Expr::Comp { .. }
        | Expr::SetApplySwitch { .. } => i >= 1,
        Expr::RelJoin { .. } => i >= 2,
        _ => false,
    };
    usize::from(bound)
}

fn walk(
    e: &Expr,
    depth: usize,
    path: &mut NodePath,
    data: &dyn Catalog,
    out: &mut Analysis,
) -> Props {
    let mut kids = Vec::new();
    for (i, c) in e.children().into_iter().enumerate() {
        path.push(i);
        let p = walk(c, depth + child_binder_delta(e, i), path, data, out);
        path.pop();
        kids.push(p);
    }
    // A node is closed iff it references no enclosing binder.
    if (0..depth).any(|d| e.mentions_input(d)) {
        return Props::unknown();
    }
    let (props, note) = transfer(e, &kids, data);
    out.journal.push(AnalysisStep {
        path: path.clone(),
        op: op_label(e),
        note,
    });
    out.props.insert(path.clone(), props.clone());
    props
}

/// Saturating product of cardinality bounds.
fn mul_hi(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    Some(a?.saturating_mul(b?))
}

/// Saturating sum of cardinality bounds.
fn add_hi(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    Some(a?.saturating_add(b?))
}

/// Merge attribute maps across a union of occurrence populations.
fn union_attrs(a: &Props, b: &Props) -> BTreeMap<String, AttrProps> {
    let mut out = BTreeMap::new();
    let names: BTreeSet<&String> = a.attrs.keys().chain(b.attrs.keys()).collect();
    for name in names {
        let merge_side = |p: &Props| -> AttrProps {
            match p.attrs.get(name.as_str()) {
                Some(ap) => ap.clone(),
                // The side has no such field: vacuously never null there,
                // but presence fails unless the side provably has no
                // tuples carrying it — exhaustiveness gives us "absent",
                // which still breaks `present`.
                None if p.attrs_exhaustive => AttrProps {
                    present: if p.is_empty_coll() {
                        Fact::Always
                    } else {
                        Fact::Possible
                    },
                    dne: Fact::Never,
                    unk: Fact::Never,
                    kind: None,
                },
                None => AttrProps::top(),
            }
        };
        let (x, y) = (merge_side(a), merge_side(b));
        let kind = match (x.kind, y.kind) {
            (Some(k), Some(l)) if k == l => Some(k),
            (Some(k), None) if !b.attrs.contains_key(name.as_str()) && b.attrs_exhaustive => {
                Some(k)
            }
            (None, Some(l)) if !a.attrs.contains_key(name.as_str()) && a.attrs_exhaustive => {
                Some(l)
            }
            _ => None,
        };
        out.insert(
            name.to_string(),
            AttrProps {
                present: x.present.union(y.present),
                dne: x.dne.union(y.dne),
                unk: x.unk.union(y.unk),
                kind,
            },
        );
    }
    out
}

/// Facts about the value a predicate compares: proven non-null?
fn expr_never_null(e: &Expr, input: &Props) -> bool {
    match e {
        Expr::Const(v) => !v.is_null(),
        // The bound occurrence itself: a tuple when the input is
        // tuple-only (multisets never store `dne`; `tuple_only` rules
        // out `unk` elements too).
        Expr::Input(0) => input.tuple_only,
        Expr::TupExtract(inner, f) if matches!(&**inner, Expr::Input(0)) => {
            let ap = input.attr(f);
            input.tuple_only && ap.is_definite_key()
        }
        _ => false,
    }
}

/// Can the predicate ever evaluate to `unk` on an occurrence of `input`?
/// Conservative: `false` answers "maybe".
pub fn pred_never_unknown(p: &Pred, input: &Props) -> bool {
    match p {
        Pred::And(a, b) => pred_never_unknown(a, input) && pred_never_unknown(b, input),
        Pred::Not(a) => pred_never_unknown(a, input),
        Pred::Cmp(l, op, r) => {
            if *op == CmpOp::In {
                // Membership against a multiset can be three-valued via
                // `unk` members; do not attempt a proof.
                return false;
            }
            expr_never_null(l, input) && expr_never_null(r, input)
        }
    }
}

/// Compare two constant values under a comparison operator, when the
/// comparison is statically decidable (same-kind non-null values).
fn const_cmp(a: &Value, op: CmpOp, b: &Value) -> Option<bool> {
    if a.is_null() || b.is_null() || a.kind_name() != b.kind_name() {
        return None;
    }
    Some(match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
        CmpOp::In => return None,
    })
}

/// Is the predicate provably unsatisfiable — no occurrence can make it
/// true?  Purely structural: constant contradictions, `x = c₁ ∧ x = c₂`
/// with `c₁ ≠ c₂`, and `p ∧ ¬p`.
///
/// ```
/// use excess_core::analysis::pred_unsatisfiable;
/// use excess_core::expr::{CmpOp, Expr, Pred};
///
/// let x = || Expr::input().extract("x");
/// let both = Pred::cmp(x(), CmpOp::Eq, Expr::int(1))
///     .and(Pred::cmp(x(), CmpOp::Eq, Expr::int(2)));
/// assert!(pred_unsatisfiable(&both));
/// assert!(!pred_unsatisfiable(&Pred::cmp(x(), CmpOp::Eq, Expr::int(1))));
/// ```
pub fn pred_unsatisfiable(p: &Pred) -> bool {
    let cs = crate::physical::conjuncts(p);
    // A definitely-false conjunct sinks the conjunction.
    for c in &cs {
        if let Pred::Cmp(l, op, r) = c {
            if let (Expr::Const(a), Expr::Const(b)) = (&**l, &**r) {
                if const_cmp(a, *op, b) == Some(false) {
                    return true;
                }
            }
        }
        if let Pred::Not(inner) = c {
            if let Pred::Cmp(l, op, r) = &**inner {
                if let (Expr::Const(a), Expr::Const(b)) = (&**l, &**r) {
                    if const_cmp(a, *op, b) == Some(true) {
                        return true;
                    }
                }
            }
        }
    }
    // `x = c₁ ∧ x = c₂` with distinct same-kind constants.
    let mut eqs: Vec<(&Expr, &Value)> = Vec::new();
    for c in &cs {
        if let Pred::Cmp(l, CmpOp::Eq, r) = c {
            match (&**l, &**r) {
                (x, Expr::Const(v)) if !v.is_null() => eqs.push((x, v)),
                (Expr::Const(v), x) if !v.is_null() => eqs.push((x, v)),
                _ => {}
            }
        }
    }
    for (i, (x, v)) in eqs.iter().enumerate() {
        for (y, w) in &eqs[i + 1..] {
            if x == y && v.kind_name() == w.kind_name() && v != w {
                return true;
            }
        }
    }
    // `p ∧ ¬p` syntactically.
    for c in &cs {
        if let Pred::Not(inner) = c {
            if cs.contains(&&**inner) {
                return true;
            }
        }
    }
    false
}

/// Is the predicate provably *never satisfied* — F on every occurrence,
/// never merely U?  Stronger than [`pred_unsatisfiable`]: under Kleene
/// logic an unsatisfiable predicate over nullable fields can still
/// evaluate to U (e.g. `unk = 1 ∧ unk = 2`), and σ/⋈ emit an `unk`
/// occurrence then, so only never-satisfied licenses an emptiness claim.
/// Holds when a conjunct is a constant falsehood (`F ∧ U = F` sinks the
/// conjunction regardless of nulls), or when the predicate is
/// unsatisfiable *and* provably never unknown on this input.
fn pred_never_satisfied(p: &Pred, input: &Props) -> bool {
    for c in crate::physical::conjuncts(p) {
        if let Pred::Cmp(l, op, r) = c {
            if let (Expr::Const(a), Expr::Const(b)) = (&**l, &**r) {
                if const_cmp(a, *op, b) == Some(false) {
                    return true;
                }
            }
        }
    }
    pred_unsatisfiable(p) && pred_never_unknown(p, input)
}

/// FDs a satisfied predicate imposes on the kept tuples: `f = g` gives
/// `f → g` and `g → f`; `f = const` pins `f` (an FD with empty lhs).
fn pred_fds(p: &Pred) -> Vec<Fd> {
    let mut out = Vec::new();
    for c in crate::physical::conjuncts(p) {
        let Pred::Cmp(l, CmpOp::Eq, r) = c else {
            continue;
        };
        match (&**l, &**r) {
            (Expr::TupExtract(li, f), Expr::TupExtract(ri, g))
                if matches!(&**li, Expr::Input(0)) && matches!(&**ri, Expr::Input(0)) =>
            {
                out.push(([f.clone()].into(), g.clone()));
                out.push(([g.clone()].into(), f.clone()));
            }
            (Expr::TupExtract(li, f), Expr::Const(v))
            | (Expr::Const(v), Expr::TupExtract(li, f))
                if matches!(&**li, Expr::Input(0)) && !v.is_null() =>
            {
                out.push((BTreeSet::new(), f.clone()));
            }
            _ => {}
        }
    }
    out
}

/// Transfer for a selection: a sub-multiset of the input, plus any
/// equality FDs the predicate enforces on survivors.  When the predicate
/// can evaluate to `unk`, the output picks up `unk` occurrences (which
/// merge), so distinctness claims are dropped.
fn select_transfer(input: &Props, pred: &Pred) -> (Props, String) {
    if pred_never_satisfied(pred, input) {
        if input.is_set() {
            return (
                Props::empty(CollKind::Set),
                "σ: predicate never satisfied — provably empty".into(),
            );
        }
        let mut p = Props::unknown();
        p.card_hi = Some(0);
        return (
            p,
            "σ: predicate never satisfied (input sort unproven — no emptiness claim)".into(),
        );
    }
    let never_u = pred_never_unknown(pred, input);
    let mut p = input.clone();
    p.card_lo = 0;
    p.fds.extend(pred_fds(pred));
    if !never_u {
        p.dup_free = false;
        p.tuple_only = false;
        p.keys.clear();
    }
    let note = if never_u {
        "σ: sub-multiset of a never-unk selection — keys and distinctness survive"
    } else {
        "σ: predicate may be unk — survivors keep attribute facts only"
    };
    (p, note.into())
}

/// Transfer for `SET_APPLY`/`ARR_APPLY` given the body shape.  Returns
/// the output props (collection sort is patched by the caller) and a
/// note naming the recognised shape.
fn body_transfer(input: &Props, body: &Expr) -> (Props, String) {
    match body {
        Expr::Input(0) => (input.clone(), "apply: identity body".into()),
        Expr::Project(inner, cols) if matches!(&**inner, Expr::Input(0)) => {
            let colset: BTreeSet<String> = cols.iter().cloned().collect();
            let dup_free = input.dup_free
                && input.tuple_only
                && input.attrs_exhaustive
                && input.superkey(&colset);
            let mut attrs = BTreeMap::new();
            for c in cols {
                let mut ap = input.attr(c);
                // π errors on a missing field, so on success it is
                // present in every surviving tuple.
                ap.present = Fact::Always;
                attrs.insert(c.clone(), ap);
            }
            let mut keys: Vec<BTreeSet<String>> = input
                .keys
                .iter()
                .filter(|k| dup_free && k.is_subset(&colset))
                .cloned()
                .collect();
            if dup_free && !keys.contains(&colset) {
                keys.push(colset.clone());
            }
            let fds = input
                .fds
                .iter()
                .filter(|(lhs, rhs)| lhs.is_subset(&colset) && colset.contains(rhs))
                .cloned()
                .collect();
            let note = if dup_free {
                format!("apply: π{cols:?} determines a key — duplicate-freeness preserved")
            } else {
                format!("apply: π{cols:?} may collapse tuples")
            };
            (
                Props {
                    coll: input.coll,
                    card_lo: input.card_lo,
                    card_hi: input.card_hi,
                    dup_free,
                    tuple_only: input.tuple_only,
                    attrs,
                    attrs_exhaustive: true,
                    keys,
                    fds,
                },
                note,
            )
        }
        Expr::TupExtract(inner, f) if matches!(&**inner, Expr::Input(0)) => {
            let single: BTreeSet<String> = [f.clone()].into();
            let ap = input.attr(f);
            let dup_free = input.dup_free
                && input.tuple_only
                && input.attrs_exhaustive
                && input.superkey(&single);
            // The extracted field can be `dne`, which multisets drop at
            // insertion: the count is only preserved when the field is
            // proven `dne`-free.
            let card_lo = if ap.dne == Fact::Never {
                input.card_lo
            } else {
                0
            };
            (
                Props {
                    coll: input.coll,
                    card_lo,
                    card_hi: input.card_hi,
                    dup_free,
                    tuple_only: false,
                    attrs: BTreeMap::new(),
                    attrs_exhaustive: false,
                    keys: Vec::new(),
                    fds: Vec::new(),
                },
                format!("apply: extract .{f} — key field ⇒ distinct values"),
            )
        }
        Expr::MakeTup(inner, name) if matches!(&**inner, Expr::Input(0)) => {
            let ap = if input.tuple_only {
                AttrProps::definite("tuple")
            } else {
                AttrProps {
                    present: Fact::Always,
                    dne: Fact::Possible,
                    unk: Fact::Possible,
                    kind: None,
                }
            };
            let keys = if input.dup_free {
                vec![[name.clone()].into()]
            } else {
                Vec::new()
            };
            (
                Props {
                    coll: input.coll,
                    card_lo: input.card_lo,
                    card_hi: input.card_hi,
                    dup_free: input.dup_free,
                    tuple_only: true,
                    attrs: [(name.clone(), ap)].into(),
                    attrs_exhaustive: true,
                    keys: if input.dup_free { keys } else { Vec::new() },
                    fds: Vec::new(),
                },
                format!("apply: TUP[{name}] wrap is injective"),
            )
        }
        Expr::MakeSet(inner) if matches!(&**inner, Expr::Input(0)) => (
            Props {
                coll: input.coll,
                card_lo: input.card_lo,
                card_hi: input.card_hi,
                dup_free: input.dup_free,
                tuple_only: false,
                attrs: BTreeMap::new(),
                attrs_exhaustive: false,
                keys: Vec::new(),
                fds: Vec::new(),
            },
            "apply: SET wrap is injective".into(),
        ),
        _ => (
            Props {
                coll: input.coll,
                card_lo: 0,
                card_hi: input.card_hi,
                dup_free: false,
                tuple_only: false,
                attrs: BTreeMap::new(),
                attrs_exhaustive: false,
                keys: Vec::new(),
                fds: Vec::new(),
            },
            "apply: opaque body — only the count bound survives (dne results drop)".into(),
        ),
    }
}

/// Transfer for flat-tuple concatenation (`rel_×` and the join's pair
/// construction): attribute facts union when both sides are exhaustive
/// with disjoint names (so `TUP_CAT` renames nothing and is injective).
fn cat_transfer(a: &Props, b: &Props) -> Props {
    let disjoint = a.attrs_exhaustive
        && b.attrs_exhaustive
        && a.attrs.keys().all(|k| !b.attrs.contains_key(k));
    let coll = if a.is_set() && b.is_set() {
        Some(CollKind::Set)
    } else {
        None
    };
    let dup_free = a.dup_free && b.dup_free && disjoint;
    let (attrs, attrs_exhaustive) = if disjoint {
        let mut attrs = a.attrs.clone();
        attrs.extend(b.attrs.iter().map(|(k, v)| (k.clone(), v.clone())));
        (attrs, true)
    } else {
        (BTreeMap::new(), false)
    };
    let mut keys = Vec::new();
    if dup_free {
        for ka in &a.keys {
            for kb in &b.keys {
                let k: BTreeSet<String> = ka.union(kb).cloned().collect();
                if !keys.contains(&k) {
                    keys.push(k);
                }
            }
        }
    }
    let fds = if disjoint {
        a.fds.iter().chain(b.fds.iter()).cloned().collect()
    } else {
        Vec::new()
    };
    Props {
        coll,
        card_lo: a.card_lo.saturating_mul(b.card_lo),
        card_hi: mul_hi(a.card_hi, b.card_hi),
        dup_free,
        tuple_only: true,
        attrs,
        attrs_exhaustive,
        keys,
        fds,
    }
}

/// The transfer function: one explicit case per operator.
fn transfer(e: &Expr, kids: &[Props], data: &dyn Catalog) -> (Props, String) {
    let kid = |i: usize| kids.get(i).cloned().unwrap_or_else(Props::unknown);
    match e {
        // ----- leaves -----
        Expr::Input(_) => (Props::unknown(), "input: bound occurrence".into()),
        Expr::Named(n) => match data.get_object(n) {
            Some(v) => (
                Props::of_value(v),
                format!("named: base facts scanned from the stored value of {n}"),
            ),
            None => (
                Props::unknown(),
                format!("named: no data for {n} — structural mode"),
            ),
        },
        Expr::Const(v) => (Props::of_value(v), "const: literal scanned exactly".into()),

        // ----- multiset operators -----
        Expr::AddUnion(..) => {
            let (a, b) = (kid(0), kid(1));
            if a.is_empty_coll() && a.is_set() {
                return (
                    b,
                    "⊎: left branch provably empty — right passes through".into(),
                );
            }
            if b.is_empty_coll() && b.is_set() {
                return (
                    a,
                    "⊎: right branch provably empty — left passes through".into(),
                );
            }
            let coll = if a.is_set() && b.is_set() {
                Some(CollKind::Set)
            } else {
                None
            };
            (
                Props {
                    coll,
                    card_lo: a.card_lo.saturating_add(b.card_lo),
                    card_hi: add_hi(a.card_hi, b.card_hi),
                    dup_free: false,
                    tuple_only: a.tuple_only && b.tuple_only,
                    attrs: union_attrs(&a, &b),
                    attrs_exhaustive: a.attrs_exhaustive && b.attrs_exhaustive,
                    keys: Vec::new(),
                    fds: Vec::new(),
                },
                "⊎: cardinalities add; cross-branch duplicates unprovable".into(),
            )
        }
        Expr::Union(..) => {
            let (a, b) = (kid(0), kid(1));
            if a.is_empty_coll() && a.is_set() {
                return (
                    b,
                    "∪: left branch provably empty — right passes through".into(),
                );
            }
            if b.is_empty_coll() && b.is_set() {
                return (
                    a,
                    "∪: right branch provably empty — left passes through".into(),
                );
            }
            let coll = if a.is_set() && b.is_set() {
                Some(CollKind::Set)
            } else {
                None
            };
            (
                Props {
                    coll,
                    card_lo: a.card_lo.max(b.card_lo),
                    card_hi: add_hi(a.card_hi, b.card_hi),
                    dup_free: a.dup_free && b.dup_free,
                    tuple_only: a.tuple_only && b.tuple_only,
                    attrs: union_attrs(&a, &b),
                    attrs_exhaustive: a.attrs_exhaustive && b.attrs_exhaustive,
                    keys: Vec::new(),
                    fds: Vec::new(),
                },
                "∪: per-value max of counts — duplicate-free when both sides are".into(),
            )
        }
        Expr::Intersect(..) => {
            let (a, b) = (kid(0), kid(1));
            let coll = if a.is_set() && b.is_set() {
                Some(CollKind::Set)
            } else {
                None
            };
            let mut attrs = BTreeMap::new();
            let names: BTreeSet<&String> = a.attrs.keys().chain(b.attrs.keys()).collect();
            for name in names {
                let (x, y) = (a.attr(name), b.attr(name));
                attrs.insert(
                    name.clone(),
                    AttrProps {
                        present: x.present.refine(y.present),
                        dne: x.dne.refine(y.dne),
                        unk: x.unk.refine(y.unk),
                        kind: x.kind.or(y.kind),
                    },
                );
            }
            let mut keys = a.keys.clone();
            for k in &b.keys {
                if !keys.contains(k) {
                    keys.push(k.clone());
                }
            }
            (
                Props {
                    coll,
                    card_lo: 0,
                    card_hi: match (a.card_hi, b.card_hi) {
                        (Some(x), Some(y)) => Some(x.min(y)),
                        (x, y) => x.or(y),
                    },
                    dup_free: a.dup_free || b.dup_free,
                    tuple_only: a.tuple_only || b.tuple_only,
                    attrs,
                    attrs_exhaustive: a.attrs_exhaustive || b.attrs_exhaustive,
                    keys,
                    fds: a.fds.iter().chain(b.fds.iter()).cloned().collect(),
                },
                "∩: per-value min of counts — both sides' facts apply".into(),
            )
        }
        Expr::Diff(..) => {
            let (a, b) = (kid(0), kid(1));
            let mut p = a.clone();
            p.card_lo = match b.card_hi {
                Some(bh) => a.card_lo.saturating_sub(bh),
                None => 0,
            };
            if !(a.is_set() && b.is_set()) {
                p.coll = None;
            }
            (
                p,
                "−: pointwise sub-multiset of the left input — its facts carry over".into(),
            )
        }
        Expr::MakeSet(_) => (
            // SET(dne) = { }: cardinality 0 or 1, always a multiset.
            Props {
                coll: Some(CollKind::Set),
                card_lo: 0,
                card_hi: Some(1),
                dup_free: true,
                tuple_only: false,
                attrs: BTreeMap::new(),
                attrs_exhaustive: false,
                keys: Vec::new(),
                fds: Vec::new(),
            },
            "SET: at most a singleton (SET(dne) = { })".into(),
        ),
        Expr::SetApply {
            body, only_types, ..
        } => {
            let input = kid(0);
            let (mut p, note) = body_transfer(&input, body);
            p.coll = if input.is_set() {
                Some(CollKind::Set)
            } else {
                None
            };
            if only_types.is_some() {
                // The exact-type filter drops non-matching occurrences.
                p.card_lo = 0;
            }
            (p, note)
        }
        Expr::Group { input: _, by } => {
            let input = kid(0);
            let coll = if input.is_set() {
                Some(CollKind::Set)
            } else {
                None
            };
            let empty = input.is_empty_coll() && input.is_set();
            (
                Props {
                    coll,
                    card_lo: if input.card_lo > 0 { 1 } else { 0 },
                    card_hi: if empty { Some(0) } else { input.card_hi },
                    // Classes are nonempty and determined by their
                    // `by`-value, so no two classes can be equal.
                    dup_free: true,
                    tuple_only: empty,
                    attrs: BTreeMap::new(),
                    attrs_exhaustive: empty,
                    keys: if empty {
                        vec![BTreeSet::new()]
                    } else {
                        Vec::new()
                    },
                    fds: Vec::new(),
                },
                format!(
                    "GRP: classes are pairwise distinct multisets{}",
                    if grp_by_superkey(&input, by) {
                        " (grouping key determines a candidate key — all classes singleton)"
                    } else {
                        ""
                    }
                ),
            )
        }
        Expr::DupElim(_) => {
            let input = kid(0);
            let mut p = input.clone();
            p.dup_free = true;
            p.card_lo = u64::from(input.card_lo > 0);
            if !input.is_set() {
                p.coll = None;
            }
            // Distinct tuples over one exhaustive, always-present field
            // set are keyed by that full field set.
            if p.tuple_only
                && p.attrs_exhaustive
                && !p.attrs.is_empty()
                && p.attrs.values().all(|ap| ap.present == Fact::Always)
            {
                let full: BTreeSet<String> = p.attrs.keys().cloned().collect();
                if !p.keys.contains(&full) {
                    p.keys.push(full);
                }
            }
            (p, "DE: output is duplicate-free by definition".into())
        }
        Expr::Cross(..) => {
            let (a, b) = (kid(0), kid(1));
            let coll = if a.is_set() && b.is_set() {
                Some(CollKind::Set)
            } else {
                None
            };
            if (a.is_empty_coll() && a.is_set()) || (b.is_empty_coll() && b.is_set()) {
                let mut p = Props::empty(CollKind::Set);
                p.coll = coll;
                return (p, "×: one side provably empty — no pairs".into());
            }
            let dup_free = a.dup_free && b.dup_free;
            let elem = |p: &Props| -> AttrProps {
                if p.tuple_only {
                    AttrProps::definite("tuple")
                } else {
                    AttrProps {
                        present: Fact::Always,
                        dne: Fact::Never, // multisets never store dne
                        unk: Fact::Possible,
                        kind: None,
                    }
                }
            };
            (
                Props {
                    coll,
                    card_lo: a.card_lo.saturating_mul(b.card_lo),
                    card_hi: mul_hi(a.card_hi, b.card_hi),
                    dup_free,
                    tuple_only: true,
                    attrs: [("fst".to_string(), elem(&a)), ("snd".to_string(), elem(&b))].into(),
                    attrs_exhaustive: true,
                    keys: if dup_free {
                        vec![["fst".to_string(), "snd".to_string()].into()]
                    } else {
                        Vec::new()
                    },
                    fds: Vec::new(),
                },
                "×: (fst, snd) pairs — distinct when both sides are".into(),
            )
        }
        Expr::SetCollapse(_) => {
            let input = kid(0);
            if input.is_empty_coll() && input.is_set() {
                return (
                    Props::empty(CollKind::Set),
                    "SET_COLLAPSE: empty outer multiset — provably empty".into(),
                );
            }
            let mut p = Props::unknown();
            if input.is_set() {
                p.coll = Some(CollKind::Set);
            }
            (p, "SET_COLLAPSE: inner sizes unknown".into())
        }

        // ----- tuple operators (scalar positions) -----
        Expr::Project(..) => (Props::unknown(), "π: single-tuple operator".into()),
        Expr::TupCat(..) => (Props::unknown(), "TUP_CAT: single-tuple operator".into()),
        Expr::TupExtract(..) => (
            Props::unknown(),
            "TUP_EXTRACT: field value — nested facts not tracked".into(),
        ),
        Expr::MakeTup(..) => (Props::unknown(), "TUP: single-tuple constructor".into()),

        // ----- array operators -----
        Expr::MakeArr(_) => (
            Props {
                coll: Some(CollKind::Array),
                card_lo: 0,
                card_hi: Some(1),
                dup_free: true,
                tuple_only: false,
                attrs: BTreeMap::new(),
                attrs_exhaustive: false,
                keys: Vec::new(),
                fds: Vec::new(),
            },
            "ARR: at most a singleton (ARR(dne) = [ ])".into(),
        ),
        Expr::ArrExtract(..) => (
            Props::unknown(),
            "ARR_EXTRACT: element value — nested facts not tracked".into(),
        ),
        Expr::ArrApply { body, .. } => {
            let input = kid(0);
            let (mut p, note) = body_transfer(&input, body);
            // Arrays keep dne results in place?  No — ARR_APPLY builds a
            // new array from body results; unlike multisets nothing is
            // dropped, but we keep the conservative bound from the body
            // transfer (a lower bound of 0 is always sound).
            p.coll = if input.coll == Some(CollKind::Array) {
                Some(CollKind::Array)
            } else {
                None
            };
            p.keys.clear(); // keys are a multiset notion here
            (p, note)
        }
        Expr::SubArr(_, m, n) => {
            let input = kid(0);
            if let (Bound::At(lo), Bound::At(hi)) = (*m, *n) {
                if lo > hi && input.coll == Some(CollKind::Array) {
                    return (
                        Props::empty(CollKind::Array),
                        "SUBARR: bounds inverted — provably empty".into(),
                    );
                }
            }
            let window = match (*m, *n) {
                (Bound::At(lo), Bound::At(hi)) => Some((hi.saturating_sub(lo) as u64) + 1),
                _ => None,
            };
            let mut p = input.clone();
            p.card_lo = 0;
            p.card_hi = match (input.card_hi, window) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            p.keys.clear();
            if input.coll != Some(CollKind::Array) {
                p.coll = None;
            }
            (
                p,
                "SUBARR: contiguous subsequence — per-occurrence facts survive".into(),
            )
        }
        Expr::ArrCat(..) => {
            let (a, b) = (kid(0), kid(1));
            let arr = |p: &Props| p.coll == Some(CollKind::Array);
            if a.is_empty_coll() && arr(&a) {
                return (b, "ARR_CAT: left branch provably empty".into());
            }
            if b.is_empty_coll() && arr(&b) {
                return (a, "ARR_CAT: right branch provably empty".into());
            }
            (
                Props {
                    coll: if arr(&a) && arr(&b) {
                        Some(CollKind::Array)
                    } else {
                        None
                    },
                    card_lo: a.card_lo.saturating_add(b.card_lo),
                    card_hi: add_hi(a.card_hi, b.card_hi),
                    dup_free: false,
                    tuple_only: a.tuple_only && b.tuple_only,
                    attrs: union_attrs(&a, &b),
                    attrs_exhaustive: a.attrs_exhaustive && b.attrs_exhaustive,
                    keys: Vec::new(),
                    fds: Vec::new(),
                },
                "ARR_CAT: lengths add".into(),
            )
        }
        Expr::ArrCollapse(_) => {
            let input = kid(0);
            if input.is_empty_coll() && input.coll == Some(CollKind::Array) {
                return (
                    Props::empty(CollKind::Array),
                    "ARR_COLLAPSE: empty outer array — provably empty".into(),
                );
            }
            let mut p = Props::unknown();
            if input.coll == Some(CollKind::Array) {
                p.coll = Some(CollKind::Array);
            }
            (p, "ARR_COLLAPSE: inner lengths unknown".into())
        }
        Expr::ArrDiff(..) => {
            let a = kid(0);
            let mut p = a.clone();
            p.card_lo = 0;
            p.keys.clear();
            if a.coll != Some(CollKind::Array) {
                p.coll = None;
            }
            (
                p,
                "ARR_DIFF: subsequence of the left input — its facts carry over".into(),
            )
        }
        Expr::ArrDupElim(_) => {
            let input = kid(0);
            let mut p = input.clone();
            p.dup_free = true;
            p.card_lo = u64::from(input.card_lo > 0);
            p.keys.clear();
            if input.coll != Some(CollKind::Array) {
                p.coll = None;
            }
            (p, "ARR_DE: output is duplicate-free by definition".into())
        }
        Expr::ArrCross(..) => {
            let (a, b) = (kid(0), kid(1));
            (
                Props {
                    coll: if a.coll == Some(CollKind::Array) && b.coll == Some(CollKind::Array) {
                        Some(CollKind::Array)
                    } else {
                        None
                    },
                    card_lo: a.card_lo.saturating_mul(b.card_lo),
                    card_hi: mul_hi(a.card_hi, b.card_hi),
                    dup_free: a.dup_free && b.dup_free,
                    tuple_only: true,
                    attrs: BTreeMap::new(),
                    attrs_exhaustive: false,
                    keys: Vec::new(),
                    fds: Vec::new(),
                },
                "ARR_×: ordered pairs — distinct when both sides are".into(),
            )
        }

        // ----- references, predicates, calls -----
        Expr::MakeRef(..) => (Props::unknown(), "REF: mints an OID".into()),
        Expr::Deref(_) => (
            Props::unknown(),
            "DEREF: referenced value — not tracked across the store".into(),
        ),
        Expr::Comp { .. } => (
            Props::unknown(),
            "COMP: value-or-null — no collection facts".into(),
        ),
        Expr::Call(..) => (Props::unknown(), "call: scalar function".into()),

        // ----- derived operators -----
        Expr::Select { pred, .. } => {
            let input = kid(0);
            let (mut p, note) = select_transfer(&input, pred);
            if !input.is_set() {
                p.coll = None;
            }
            (p, note)
        }
        Expr::ArrSelect { pred, .. } => {
            let input = kid(0);
            // ARR_APPLY_COMP keeps placeholders for rejected elements, so
            // only the length bound is safe to carry.
            let mut p = Props::unknown();
            if input.coll == Some(CollKind::Array) {
                p.coll = Some(CollKind::Array);
            }
            p.card_hi = input.card_hi;
            let _ = pred;
            (
                p,
                "ARR_σ: rejected elements leave nulls — only the length bound survives".into(),
            )
        }
        Expr::RelJoin { pred, .. } => {
            let (a, b) = (kid(0), kid(1));
            if (a.is_empty_coll() && a.is_set()) || (b.is_empty_coll() && b.is_set()) {
                return (
                    Props::empty(CollKind::Set),
                    "rel_join: one side provably empty — no pairs".into(),
                );
            }
            let cat = cat_transfer(&a, &b);
            let (mut p, _) = select_transfer(&cat, pred);
            p.card_lo = 0;
            p.coll = cat.coll;
            let note = if p.dup_free {
                "rel_join: both sides duplicate-free with disjoint attrs and a never-unk \
                 predicate — output duplicate-free with keys K_left ∪ K_right"
            } else {
                "rel_join: concatenated pairs filtered by Θ"
            };
            (p, note.into())
        }
        Expr::RelCross(..) => {
            let (a, b) = (kid(0), kid(1));
            if (a.is_empty_coll() && a.is_set()) || (b.is_empty_coll() && b.is_set()) {
                return (
                    Props::empty(CollKind::Set),
                    "rel_×: one side provably empty — no pairs".into(),
                );
            }
            (
                cat_transfer(&a, &b),
                "rel_×: concatenated flat tuples — injective when attr sets are \
                 disjoint and exhaustive"
                    .into(),
            )
        }
        Expr::SetApplySwitch { .. } => {
            let input = kid(0);
            let mut p = Props::unknown();
            if input.is_set() {
                p.coll = Some(CollKind::Set);
            }
            p.card_hi = input.card_hi;
            (
                p,
                "SET_APPLY_SWITCH: per-type bodies — only the count bound survives".into(),
            )
        }
    }
}

/// The property-derived lint family: structural facts the dataflow pass
/// proves that the rule catalogue could exploit.  Uses the same node-path
/// scheme as [`crate::verify()`]; called by `verify` in data-free mode and
/// available with a data-backed [`Analysis`] for richer findings.
pub fn property_lints(e: &Expr, a: &Analysis) -> Vec<crate::verify::Diagnostic> {
    let mut out = Vec::new();
    let mut path = NodePath::new();
    lint_walk(e, &mut path, a, &mut out);
    out
}

fn property_lint(
    out: &mut Vec<crate::verify::Diagnostic>,
    path: &[usize],
    code: &'static str,
    message: String,
) {
    out.push(crate::verify::Diagnostic {
        path: path.to_vec(),
        severity: crate::verify::Severity::Lint,
        code,
        message,
    });
}

fn lint_walk(
    e: &Expr,
    path: &mut NodePath,
    a: &Analysis,
    out: &mut Vec<crate::verify::Diagnostic>,
) {
    for (i, c) in e.children().into_iter().enumerate() {
        path.push(i);
        lint_walk(c, path, a, out);
        path.pop();
    }
    fn child_props(a: &Analysis, path: &[usize], i: usize) -> Props {
        let mut p = path.to_vec();
        p.push(i);
        a.props.get(&p).cloned().unwrap_or_else(Props::unknown)
    }
    match e {
        // DE(DE(·)) and DE(GRP(·)) already have dedicated lints.
        Expr::DupElim(inner)
            if !matches!(&**inner, Expr::DupElim(_) | Expr::Group { .. })
                && child_props(a, path, 0).dup_free =>
        {
            property_lint(
                out,
                path,
                "lint-redundant-de",
                "DE over an input proven duplicate-free — the analysis licenses \
                 dropping it (rel4 territory)"
                    .into(),
            );
        }
        Expr::ArrDupElim(inner)
            if !matches!(&**inner, Expr::ArrDupElim(_)) && child_props(a, path, 0).dup_free =>
        {
            property_lint(
                out,
                path,
                "lint-redundant-distinct",
                "ARR_DE over an array proven duplicate-free — the analysis licenses \
                 dropping it"
                    .into(),
            );
        }
        Expr::AddUnion(..)
        | Expr::Union(..)
        | Expr::Diff(..)
        | Expr::Intersect(..)
        | Expr::Cross(..)
        | Expr::RelCross(..)
        | Expr::ArrCat(..) => {
            for i in 0..2 {
                if child_props(a, path, i).is_empty_coll() {
                    path.push(i);
                    property_lint(
                        out,
                        path,
                        "lint-always-empty-branch",
                        format!(
                            "operand {i} of {} is provably empty — the branch contributes \
                             nothing",
                            op_label(e)
                        ),
                    );
                    path.pop();
                }
            }
        }
        Expr::RelJoin { pred, .. } => {
            for i in 0..2 {
                if child_props(a, path, i).is_empty_coll() {
                    path.push(i);
                    property_lint(
                        out,
                        path,
                        "lint-always-empty-branch",
                        format!("operand {i} of rel_join is provably empty — no pairs can form"),
                    );
                    path.pop();
                }
            }
            if pred_unsatisfiable(pred) {
                property_lint(
                    out,
                    path,
                    "lint-unsatisfiable-predicate",
                    "rel_join predicate is provably unsatisfiable — no pair can satisfy it".into(),
                );
            }
        }
        Expr::Select { pred, .. } | Expr::ArrSelect { pred, .. } | Expr::Comp { pred, .. }
            if pred_unsatisfiable(pred) =>
        {
            property_lint(
                out,
                path,
                "lint-unsatisfiable-predicate",
                format!(
                    "{} predicate is provably unsatisfiable — no occurrence can pass",
                    op_label(e)
                ),
            );
        }
        Expr::Group { by, .. } if grp_by_superkey(&child_props(a, path, 0), by) => {
            property_lint(
                out,
                path,
                "lint-key-preserving-grp",
                "grouping key determines a candidate key of the input — every \
                 equivalence class is a singleton"
                    .into(),
            );
        }
        _ => {}
    }
}

/// Does the grouping expression determine a candidate key of the input
/// (so every equivalence class is a singleton)?
pub fn grp_by_superkey(input: &Props, by: &Expr) -> bool {
    if !(input.dup_free && input.tuple_only) {
        return false;
    }
    let cols: BTreeSet<String> = match by {
        Expr::Input(0) => return true, // grouping by the whole occurrence
        Expr::TupExtract(inner, f) if matches!(&**inner, Expr::Input(0)) => [f.clone()].into(),
        Expr::Project(inner, cols) if matches!(&**inner, Expr::Input(0)) => {
            cols.iter().cloned().collect()
        }
        _ => return false,
    };
    input.superkey(&cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::EmptyCatalog;
    use std::collections::HashMap;

    fn tup(fields: &[(&str, Value)]) -> Value {
        Value::tuple(fields.iter().map(|(n, v)| (n.to_string(), v.clone())))
    }

    fn people() -> Value {
        Value::set([
            tup(&[("id", Value::int(1)), ("dept", Value::str("cs"))]),
            tup(&[("id", Value::int(2)), ("dept", Value::str("cs"))]),
            tup(&[("id", Value::int(3)), ("dept", Value::str("ee"))]),
        ])
    }

    #[test]
    fn base_facts_scan_keys_and_nullability() {
        let p = Props::of_value(&people());
        assert_eq!(p.coll, Some(CollKind::Set));
        assert_eq!((p.card_lo, p.card_hi), (3, Some(3)));
        assert!(p.dup_free && p.tuple_only && p.attrs_exhaustive);
        assert!(p.attr("id").is_definite_key());
        assert_eq!(p.attr("id").kind, Some("scalar"));
        assert!(p.keys.contains(&["id".to_string()].into()));
        assert!(!p.keys.contains(&["dept".to_string()].into()));
    }

    #[test]
    fn nulls_and_duplicates_are_detected() {
        let v = Value::set([
            tup(&[("a", Value::int(1)), ("b", Value::unk())]),
            tup(&[("a", Value::int(1)), ("b", Value::unk())]),
        ]);
        let p = Props::of_value(&v);
        assert!(!p.dup_free);
        assert_eq!(p.attr("b").unk, Fact::Possible);
        assert_eq!(p.attr("a").dne, Fact::Never);
        assert!(p.keys.is_empty());
    }

    #[test]
    fn dup_elim_over_named_data_is_provably_duplicate_free() {
        let mut cat: HashMap<String, Value> = HashMap::new();
        cat.insert("P".into(), people());
        let e = Expr::named("P").dup_elim();
        let a = analyze(&e, &cat);
        let root = a.props_at(&[]).unwrap();
        assert!(root.dup_free);
        // The child was already duplicate-free: the DE is redundant.
        assert!(a.props_at(&[0]).unwrap().dup_free);
    }

    #[test]
    fn unsat_predicate_proves_emptiness() {
        let mut cat: HashMap<String, Value> = HashMap::new();
        cat.insert("P".into(), people());
        let e = Expr::named("P").select(Pred::cmp(Expr::int(1), CmpOp::Eq, Expr::int(2)));
        let a = analyze(&e, &cat);
        assert!(a.props_at(&[]).unwrap().is_empty_coll());
    }

    #[test]
    fn structural_mode_makes_no_claims_about_named_leaves() {
        let e = Expr::named("P").dup_elim();
        let a = analyze(&e, &EmptyCatalog);
        assert!(!a.props_at(&[0]).unwrap().dup_free);
        assert!(a.props_at(&[]).unwrap().dup_free);
        assert!(a.props_at(&[]).unwrap().coll.is_none());
    }

    #[test]
    fn fd_closure_reaches_keys_through_equality() {
        let mut p = Props::of_value(&people());
        p.fds.push((["dept".to_string()].into(), "id".to_string()));
        assert!(p.superkey(&["dept".to_string()].into()));
    }
}
