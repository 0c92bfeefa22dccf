//! Appendix §2: transformation rules for multiset operators (rules 1–15).
//!
//! Rule numbering follows the paper.  Where the paper's statement needs a
//! compensating term to be exactly semantics-preserving in this engine
//! (empty groups in rules 9/10, see below), the rewrite emits the
//! compensated form and the deviation is documented on the rule.

use crate::rule::{input_only_via_extract, strip_extract, Rule, RuleCtx};
use excess_core::expr::{CmpOp, Expr, Func, Pred};

fn bx(e: Expr) -> Box<Expr> {
    Box::new(e)
}

/// Rule 1 — binary operator associativity for ⊎, ∪, ∩ (both directions):
/// `A <op> (B <op> C) = (A <op> B) <op> C`.
pub struct R1Associativity;

impl Rule for R1Associativity {
    fn name(&self) -> &'static str {
        "rule1-assoc"
    }
    fn apply(&self, e: &Expr, _ctx: &RuleCtx<'_>) -> Vec<Expr> {
        let mut out = Vec::new();
        match e {
            Expr::AddUnion(a, bc) => {
                if let Expr::AddUnion(b, c) = &**bc {
                    out.push(Expr::AddUnion(
                        bx(Expr::AddUnion(a.clone(), b.clone())),
                        c.clone(),
                    ));
                }
                if let Expr::AddUnion(a2, b2) = &**a {
                    out.push(Expr::AddUnion(
                        a2.clone(),
                        bx(Expr::AddUnion(b2.clone(), bc.clone())),
                    ));
                }
            }
            Expr::Union(a, bc) => {
                if let Expr::Union(b, c) = &**bc {
                    out.push(Expr::Union(
                        bx(Expr::Union(a.clone(), b.clone())),
                        c.clone(),
                    ));
                }
                if let Expr::Union(a2, b2) = &**a {
                    out.push(Expr::Union(
                        a2.clone(),
                        bx(Expr::Union(b2.clone(), bc.clone())),
                    ));
                }
            }
            Expr::Intersect(a, bc) => {
                if let Expr::Intersect(b, c) = &**bc {
                    out.push(Expr::Intersect(
                        bx(Expr::Intersect(a.clone(), b.clone())),
                        c.clone(),
                    ));
                }
                if let Expr::Intersect(a2, b2) = &**a {
                    out.push(Expr::Intersect(
                        a2.clone(),
                        bx(Expr::Intersect(b2.clone(), bc.clone())),
                    ));
                }
            }
            _ => {}
        }
        out
    }
}

/// Rule 2 — distribute × over ⊎ (both directions):
/// `A × (B ⊎ C) = (A × B) ⊎ (A × C)`, and symmetrically on the left.
pub struct R2DistributeCrossUnion;

impl Rule for R2DistributeCrossUnion {
    fn name(&self) -> &'static str {
        "rule2-distribute-cross-over-union"
    }
    fn apply(&self, e: &Expr, _ctx: &RuleCtx<'_>) -> Vec<Expr> {
        let mut out = Vec::new();
        match e {
            Expr::Cross(a, bc) => {
                // Distributing duplicates one operand; a REF-minting
                // operand would mint twice (fresh OIDs are observable).
                if let Expr::AddUnion(b, c) = &**bc {
                    if !a.mints_oids() {
                        out.push(Expr::AddUnion(
                            bx(Expr::Cross(a.clone(), b.clone())),
                            bx(Expr::Cross(a.clone(), c.clone())),
                        ));
                    }
                }
                if let Expr::AddUnion(b, c) = &**a {
                    if !bc.mints_oids() {
                        out.push(Expr::AddUnion(
                            bx(Expr::Cross(b.clone(), bc.clone())),
                            bx(Expr::Cross(c.clone(), bc.clone())),
                        ));
                    }
                }
            }
            // Factor back out: (A × B) ⊎ (A × C) → A × (B ⊎ C).
            Expr::AddUnion(l, r) => {
                if let (Expr::Cross(a1, b), Expr::Cross(a2, c)) = (&**l, &**r) {
                    if a1 == a2 {
                        out.push(Expr::Cross(
                            a1.clone(),
                            bx(Expr::AddUnion(b.clone(), c.clone())),
                        ));
                    }
                    if b == c {
                        out.push(Expr::Cross(
                            bx(Expr::AddUnion(a1.clone(), a2.clone())),
                            b.clone(),
                        ));
                    }
                }
            }
            _ => {}
        }
        out
    }
}

/// Rule 3 — cross product commutativity: `rel_×(A, B) = rel_×(B, A)`.
///
/// In this engine tuple equality is field-*order*-sensitive, so the bare
/// swap is compensated with a projection restoring the original field
/// order.  The rule applies only when the two sides' field names are
/// statically known and disjoint (otherwise the clash-priming renames
/// cannot be undone by a projection).
pub struct R3RelCrossCommute;

impl Rule for R3RelCrossCommute {
    fn name(&self) -> &'static str {
        "rule3-rel-cross-commute"
    }
    fn apply(&self, e: &Expr, ctx: &RuleCtx<'_>) -> Vec<Expr> {
        let Expr::RelCross(a, b) = e else {
            return vec![];
        };
        let (Some(fa), Some(fb)) = (ctx.set_elem_fields(a), ctx.set_elem_fields(b)) else {
            return vec![];
        };
        if fa.iter().any(|f| fb.contains(f)) {
            return vec![];
        }
        let order: Vec<String> = fa.iter().chain(fb.iter()).cloned().collect();
        vec![Expr::RelCross(b.clone(), a.clone()).set_apply(Expr::input().project(order))]
    }
}

/// Rule 4 — breaking down a disjunctive selection:
/// `σ_{P1 ∨ P2}(A) = σ_{P1}(A) ∪ σ_{P2}(A)` (∨ is encoded ¬(¬P1 ∧ ¬P2)).
///
/// Caveat (documented, not in the paper): with `unk`-producing predicates
/// the two sides can differ; see [`Rule::assumes_null_free`].
pub struct R4DisjunctiveSelect;

impl Rule for R4DisjunctiveSelect {
    fn name(&self) -> &'static str {
        "rule4-disjunctive-select"
    }
    fn assumes_null_free(&self) -> bool {
        true
    }
    fn apply(&self, e: &Expr, _ctx: &RuleCtx<'_>) -> Vec<Expr> {
        let mut out = Vec::new();
        if let Expr::Select {
            input,
            pred: Pred::Not(q),
        } = e
        {
            if input.mints_oids() || q.exprs().iter().any(|x| x.mints_oids()) {
                return out; // duplicating a minting input/pred is observable
            }
            if let Pred::And(na, nb) = &**q {
                if let (Pred::Not(p1), Pred::Not(p2)) = (&**na, &**nb) {
                    out.push(Expr::Union(
                        bx(Expr::Select {
                            input: input.clone(),
                            pred: (**p1).clone(),
                        }),
                        bx(Expr::Select {
                            input: input.clone(),
                            pred: (**p2).clone(),
                        }),
                    ));
                }
            }
        }
        // Reverse: σ_P1(A) ∪ σ_P2(A) → σ_{P1∨P2}(A).
        if let Expr::Union(l, r) = e {
            if let (
                Expr::Select {
                    input: i1,
                    pred: p1,
                },
                Expr::Select {
                    input: i2,
                    pred: p2,
                },
            ) = (&**l, &**r)
            {
                if i1 == i2 {
                    let disj =
                        Pred::Not(bx2(Pred::And(bx2(p1.clone().not()), bx2(p2.clone().not()))));
                    out.push(Expr::Select {
                        input: i1.clone(),
                        pred: disj,
                    });
                }
            }
        }
        out
    }
}

fn bx2(p: Pred) -> Box<Pred> {
    Box::new(p)
}

/// Rule 5 — eliminating a cross product under DE:
/// `DE(SET_APPLY_E(A × B)) = DE(SET_APPLY_{E'}(A))` when `E` applies only
/// to A (all INPUT uses go through `fst`); `E'` strips the `fst`
/// projection.
///
/// Caveat (classical): assumes `B` is non-empty — the paper states the
/// rule without the emptiness side condition and so do we; the cost model
/// never prefers the expanded side anyway.
pub struct R5EliminateCross;

impl Rule for R5EliminateCross {
    fn name(&self) -> &'static str {
        "rule5-eliminate-cross"
    }
    fn apply(&self, e: &Expr, _ctx: &RuleCtx<'_>) -> Vec<Expr> {
        let Expr::DupElim(inner) = e else {
            return vec![];
        };
        let Expr::SetApply {
            input,
            body,
            only_types: None,
        } = &**inner
        else {
            return vec![];
        };
        let Expr::Cross(a, _b) = &**input else {
            return vec![];
        };
        // The binder variable is Input(0) at the body root; every use must
        // go through the pair's `fst` component.  A minting body would
        // change its mint count (|A|·|B| → |A|): observable, skip.
        if !input_only_via_extract(body, 0, "fst") || body.mints_oids() {
            return vec![];
        }
        let stripped = strip_extract(body, 0, "fst");
        vec![Expr::DupElim(bx(Expr::SetApply {
            input: a.clone(),
            body: bx(stripped),
            only_types: None,
        }))]
    }
}

/// Rule 6 — the result of grouping is a set without duplicates:
/// `DE(GRP_E(A)) = GRP_E(A)`.
pub struct R6GroupIsDupFree;

impl Rule for R6GroupIsDupFree {
    fn name(&self) -> &'static str {
        "rule6-group-is-dup-free"
    }
    fn apply(&self, e: &Expr, _ctx: &RuleCtx<'_>) -> Vec<Expr> {
        if let Expr::DupElim(inner) = e {
            if matches!(**inner, Expr::Group { .. }) {
                return vec![(**inner).clone()];
            }
        }
        vec![]
    }
}

/// Rule 7 — distribute DE across ×: `DE(A × B) = DE(A) × DE(B)` (both
/// directions).
pub struct R7DistributeDeCross;

impl Rule for R7DistributeDeCross {
    fn name(&self) -> &'static str {
        "rule7-distribute-de-cross"
    }
    fn apply(&self, e: &Expr, _ctx: &RuleCtx<'_>) -> Vec<Expr> {
        let mut out = Vec::new();
        if let Expr::DupElim(inner) = e {
            if let Expr::Cross(a, b) = &**inner {
                out.push(Expr::Cross(
                    bx(Expr::DupElim(a.clone())),
                    bx(Expr::DupElim(b.clone())),
                ));
            }
        }
        if let Expr::Cross(a, b) = e {
            if let (Expr::DupElim(da), Expr::DupElim(db)) = (&**a, &**b) {
                out.push(Expr::DupElim(bx(Expr::Cross(da.clone(), db.clone()))));
            }
        }
        out
    }
}

/// Rule 8 — duplicates can be removed before or after grouping:
/// `GRP_E(DE(A)) = SET_APPLY_{DE}(GRP_E(A))` (both directions).
///
/// Also in its composed per-group form (the Figure 6 → Figure 7 step):
/// `SET_APPLY_{DE(SET_APPLY_π(INPUT))}(GRP_{E}(A)) =
///  GRP_{E}(DE(SET_APPLY_π(A)))`
/// when `π` is a pure projection of the element
/// ([`Expr::projected_fields`], either spelling, moved as written) and
/// the grouping expression `E` extracts a field `π` keeps.  Grouping before or after
/// the per-element projection then partitions identically (the key
/// survives projection unchanged), and per-group DE of projected members
/// equals grouping the globally-projected-and-deduplicated rows — but the
/// right side runs DE once over `|A|` occurrences instead of once per
/// group.
pub struct R8DeThroughGroup;

impl Rule for R8DeThroughGroup {
    fn name(&self) -> &'static str {
        "rule8-de-through-group"
    }
    fn apply(&self, e: &Expr, _ctx: &RuleCtx<'_>) -> Vec<Expr> {
        let mut out = Vec::new();
        // GRP_E(DE(A)) → SET_APPLY_DE(GRP_E(A))
        if let Expr::Group { input, by } = e {
            if let Expr::DupElim(a) = &**input {
                out.push(
                    Expr::Group {
                        input: a.clone(),
                        by: by.clone(),
                    }
                    .set_apply(Expr::input().dup_elim()),
                );
            }
        }
        // SET_APPLY_DE(GRP_E(A)) → GRP_E(DE(A))
        if let Expr::SetApply {
            input,
            body,
            only_types: None,
        } = e
        {
            if **body == Expr::input().dup_elim() {
                if let Expr::Group { input: a, by } = &**input {
                    out.push(Expr::Group {
                        input: bx(Expr::DupElim(a.clone())),
                        by: by.clone(),
                    });
                }
            }
            // Composed form: SET_APPLY_{DE(SET_APPLY_π(INPUT))}(GRP_by(A))
            //              → GRP_by(DE(SET_APPLY_π(A)))
            // when π = project(fields) over the element and by extracts a
            // kept field.  (π being a closed projection of INPUT cannot
            // reference the group binder or mint, so it moves freely.)
            if let (Expr::Group { input: a, by }, Expr::DupElim(de_in)) = (&**input, &**body) {
                if let Expr::SetApply {
                    input: sa_in,
                    body: pi,
                    only_types: None,
                } = &**de_in
                {
                    if matches!(**sa_in, Expr::Input(0)) {
                        if let (Some(fields), Expr::TupExtract(byin, f)) =
                            (pi.projected_fields(), &**by)
                        {
                            if matches!(**byin, Expr::Input(0)) && fields.contains(f) {
                                out.push(Expr::Group {
                                    input: bx(Expr::DupElim(bx(Expr::SetApply {
                                        input: a.clone(),
                                        body: pi.clone(),
                                        only_types: None,
                                    }))),
                                    by: by.clone(),
                                });
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// Rule 9 — group only the input the grouping expression touches:
/// `GRP_E(A × B) = SET_APPLY_{INPUT × B}(GRP_{E'}(A))` when `E` applies
/// only to A (via `fst`); `E'` strips the `fst` projection.
///
/// Compensation note: the rewritten groups contain A-elements crossed with
/// B *afterwards*, which preserves both group contents and cardinalities
/// because × distributes over the partition.  Assumes B non-empty (as rule
/// 5 does): with an empty B the left side has no groups at all while the
/// right side produces empty groups.
pub struct R9GroupCrossOneSide;

impl Rule for R9GroupCrossOneSide {
    fn name(&self) -> &'static str {
        "rule9-group-cross-one-side"
    }
    fn apply(&self, e: &Expr, _ctx: &RuleCtx<'_>) -> Vec<Expr> {
        let Expr::Group { input, by } = e else {
            return vec![];
        };
        let Expr::Cross(a, b) = &**input else {
            return vec![];
        };
        if !input_only_via_extract(by, 0, "fst") {
            return vec![];
        }
        if b.mentions_input(0) || b.mints_oids() {
            // B is re-evaluated once per group on the right-hand side; a
            // minting B would mint per group instead of once.
            return vec![];
        }
        let by2 = strip_extract(by, 0, "fst");
        // body: INPUT × B, with B shifted under the new binder.
        let body = Expr::Cross(bx(Expr::input()), bx(b.shift_inputs(0, 1)));
        vec![Expr::Group {
            input: a.clone(),
            by: bx(by2),
        }
        .set_apply(body)]
    }
}

/// Rule 10 — push grouping ahead of a selection (and, read right-to-left,
/// push a selection ahead of grouping — the Figure 11 move):
/// `GRP_{E1}(σ_{E2}(A)) = σ_{count>0}(SET_APPLY_{σ_{E2}}(GRP_{E1}(A)))`.
///
/// Compensation note: the paper omits the outer `σ_{count>0}`; without it
/// the right side keeps *empty* groups for keys whose members were all
/// filtered away, which the left side never produces.
pub struct R10GroupThroughSelect;

impl Rule for R10GroupThroughSelect {
    fn name(&self) -> &'static str {
        "rule10-group-through-select"
    }
    fn assumes_null_free(&self) -> bool {
        true
    }
    fn apply(&self, e: &Expr, _ctx: &RuleCtx<'_>) -> Vec<Expr> {
        let mut out = Vec::new();
        // Forward: GRP(σ(A)) → σ_{count>0}(SET_APPLY_σ(GRP(A))).
        if let Expr::Group { input, by } = e {
            if let Expr::Select { input: a, pred } = &**input {
                // The σ moves one binder deeper (under the per-group
                // SET_APPLY), so its free references shift up by one.
                let per_group = Expr::Select {
                    input: bx(Expr::input()),
                    pred: pred.map_exprs(&mut |x| x.shift_inputs(1, 1)),
                };
                let regrouped = Expr::Group {
                    input: a.clone(),
                    by: by.clone(),
                }
                .set_apply(per_group);
                out.push(Expr::Select {
                    input: bx(regrouped),
                    pred: Pred::cmp(
                        Expr::call(Func::Count, vec![Expr::input()]),
                        CmpOp::Gt,
                        Expr::int(0),
                    ),
                });
            }
        }
        // Reverse: σ_{count>0}(SET_APPLY_σ(GRP(A))) → GRP(σ(A)).
        if let Expr::Select {
            input: outer_in,
            pred: outer_pred,
        } = e
        {
            let count_gt0 = Pred::cmp(
                Expr::call(Func::Count, vec![Expr::input()]),
                CmpOp::Gt,
                Expr::int(0),
            );
            if *outer_pred == count_gt0 {
                if let Expr::SetApply {
                    input,
                    body,
                    only_types: None,
                } = &**outer_in
                {
                    if let (
                        Expr::Group { input: a, by },
                        Expr::Select {
                            input: sel_in,
                            pred,
                        },
                    ) = (&**input, &**body)
                    {
                        if **sel_in == Expr::input() && !pred.mentions_input(1) {
                            // Moving the σ out from under the SET_APPLY
                            // binder: free references shift down by one.
                            // (A pred that actually mentions the group
                            // binder cannot be moved — guarded above.)
                            let p_down = pred.map_exprs(&mut |x| x.shift_inputs(1, -1));
                            out.push(Expr::Group {
                                input: bx(Expr::Select {
                                    input: a.clone(),
                                    pred: p_down,
                                }),
                                by: by.clone(),
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

/// Rule 11 — distribute SET_COLLAPSE over ⊎ (both directions):
/// `SET_COLLAPSE(A ⊎ B) = SET_COLLAPSE(A) ⊎ SET_COLLAPSE(B)`.
pub struct R11CollapseUnion;

impl Rule for R11CollapseUnion {
    fn name(&self) -> &'static str {
        "rule11-collapse-over-union"
    }
    fn apply(&self, e: &Expr, _ctx: &RuleCtx<'_>) -> Vec<Expr> {
        let mut out = Vec::new();
        if let Expr::SetCollapse(inner) = e {
            if let Expr::AddUnion(a, b) = &**inner {
                out.push(Expr::AddUnion(
                    bx(Expr::SetCollapse(a.clone())),
                    bx(Expr::SetCollapse(b.clone())),
                ));
            }
        }
        if let Expr::AddUnion(l, r) = e {
            if let (Expr::SetCollapse(a), Expr::SetCollapse(b)) = (&**l, &**r) {
                out.push(Expr::SetCollapse(bx(Expr::AddUnion(a.clone(), b.clone()))));
            }
        }
        out
    }
}

/// Rule 12 — distribute SET_APPLY over ⊎ (both directions):
/// `SET_APPLY_E(A ⊎ B) = SET_APPLY_E(A) ⊎ SET_APPLY_E(B)`.
pub struct R12ApplyOverUnion;

impl Rule for R12ApplyOverUnion {
    fn name(&self) -> &'static str {
        "rule12-apply-over-union"
    }
    fn apply(&self, e: &Expr, _ctx: &RuleCtx<'_>) -> Vec<Expr> {
        let mut out = Vec::new();
        if let Expr::SetApply {
            input,
            body,
            only_types,
        } = e
        {
            if let Expr::AddUnion(a, b) = &**input {
                out.push(Expr::AddUnion(
                    bx(Expr::SetApply {
                        input: a.clone(),
                        body: body.clone(),
                        only_types: only_types.clone(),
                    }),
                    bx(Expr::SetApply {
                        input: b.clone(),
                        body: body.clone(),
                        only_types: only_types.clone(),
                    }),
                ));
            }
        }
        if let Expr::AddUnion(l, r) = e {
            if let (
                Expr::SetApply {
                    input: a,
                    body: b1,
                    only_types: t1,
                },
                Expr::SetApply {
                    input: b,
                    body: b2,
                    only_types: t2,
                },
            ) = (&**l, &**r)
            {
                if b1 == b2 && t1 == t2 {
                    out.push(Expr::SetApply {
                        input: bx(Expr::AddUnion(a.clone(), b.clone())),
                        body: b1.clone(),
                        only_types: t1.clone(),
                    });
                }
            }
        }
        out
    }
}

/// Rule 13 — distribute SET_APPLY over ×:
/// `SET_APPLY_E(A × B) = SET_APPLY_{E1}(A) × SET_APPLY_{E2}(B)` when
/// `E = (fst: E1(fst INPUT), snd: E2(snd INPUT))` — i.e. the body rebuilds
/// a pair whose components depend only on the respective sides.
pub struct R13ApplyOverCross;

impl Rule for R13ApplyOverCross {
    fn name(&self) -> &'static str {
        "rule13-apply-over-cross"
    }
    fn apply(&self, e: &Expr, _ctx: &RuleCtx<'_>) -> Vec<Expr> {
        let Expr::SetApply {
            input,
            body,
            only_types: None,
        } = e
        else {
            return vec![];
        };
        let Expr::Cross(a, b) = &**input else {
            return vec![];
        };
        // body must be TUP_CAT(TUP[fst](E1), TUP[snd](E2)).
        let Expr::TupCat(l, r) = &**body else {
            return vec![];
        };
        let (Expr::MakeTup(e1, f1), Expr::MakeTup(e2, f2)) = (&**l, &**r) else {
            return vec![];
        };
        if f1 != "fst" || f2 != "snd" {
            return vec![];
        }
        if !input_only_via_extract(e1, 0, "fst") || !input_only_via_extract(e2, 0, "snd") {
            return vec![];
        }
        if e1.mints_oids() || e2.mints_oids() {
            // Per-pair application (|A|·|B| mints) versus per-element
            // (|A| + |B| mints): observable, skip.
            return vec![];
        }
        let e1s = strip_extract(e1, 0, "fst");
        let e2s = strip_extract(e2, 0, "snd");
        vec![Expr::Cross(
            bx(a.as_ref().clone().set_apply(e1s)),
            bx(b.as_ref().clone().set_apply(e2s)),
        )]
    }
}

/// Rule 14 — push SET_APPLY inside a SET_COLLAPSE (both directions):
/// `SET_APPLY_E(SET_COLLAPSE(A)) =
///  SET_COLLAPSE(SET_APPLY_{SET_APPLY_E(INPUT)}(A))`.
pub struct R14ApplyIntoCollapse;

impl Rule for R14ApplyIntoCollapse {
    fn name(&self) -> &'static str {
        "rule14-apply-into-collapse"
    }
    fn apply(&self, e: &Expr, _ctx: &RuleCtx<'_>) -> Vec<Expr> {
        let mut out = Vec::new();
        if let Expr::SetApply {
            input,
            body,
            only_types: None,
        } = e
        {
            if let Expr::SetCollapse(a) = &**input {
                // Inner body gains one binder level: shift its outer refs.
                let inner = Expr::SetApply {
                    input: bx(Expr::input()),
                    body: bx(body.shift_inputs(1, 1)),
                    only_types: None,
                };
                out.push(Expr::SetCollapse(bx(a.as_ref().clone().set_apply(inner))));
            }
        }
        if let Expr::SetCollapse(outer) = e {
            if let Expr::SetApply {
                input: a,
                body,
                only_types: None,
            } = &**outer
            {
                if let Expr::SetApply {
                    input: ii,
                    body: inner_body,
                    only_types: None,
                } = &**body
                {
                    if **ii == Expr::input() && !inner_body.mentions_input(1) {
                        out.push(Expr::SetApply {
                            input: bx(Expr::SetCollapse(a.clone())),
                            body: bx(inner_body.shift_inputs(1, -1)),
                            only_types: None,
                        });
                    }
                }
            }
        }
        out
    }
}

/// Rule 15 — combine successive SET_APPLYs (the Figure 10 move):
/// `SET_APPLY_{E1}(SET_APPLY_{E2}(A)) = SET_APPLY_{E1(E2)}(A)`.
pub struct R15CombineApplys;

impl Rule for R15CombineApplys {
    fn name(&self) -> &'static str {
        "rule15-combine-set-applys"
    }
    fn apply(&self, e: &Expr, _ctx: &RuleCtx<'_>) -> Vec<Expr> {
        let Expr::SetApply {
            input,
            body: e1,
            only_types: None,
        } = e
        else {
            return vec![];
        };
        let Expr::SetApply {
            input: a,
            body: e2,
            only_types: None,
        } = &**input
        else {
            return vec![];
        };
        // Fused body: E1 with its element variable replaced by E2's body
        // (both now live under the single remaining binder).
        let fused = e1.substitute_input(0, e2);
        vec![Expr::SetApply {
            input: a.clone(),
            body: bx(fused),
            only_types: None,
        }]
    }
}

/// All §2 rules, boxed.
pub(crate) fn all() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(R1Associativity),
        Box::new(R2DistributeCrossUnion),
        Box::new(R3RelCrossCommute),
        Box::new(R4DisjunctiveSelect),
        Box::new(R5EliminateCross),
        Box::new(R6GroupIsDupFree),
        Box::new(R7DistributeDeCross),
        Box::new(R8DeThroughGroup),
        Box::new(R9GroupCrossOneSide),
        Box::new(R10GroupThroughSelect),
        Box::new(R11CollapseUnion),
        Box::new(R12ApplyOverUnion),
        Box::new(R13ApplyOverCross),
        Box::new(R14ApplyIntoCollapse),
        Box::new(R15CombineApplys),
    ]
}
