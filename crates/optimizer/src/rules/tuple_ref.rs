//! Appendix §4: rules for tuples, references, and predicates (23–28),
//! and the companion A2 (a `COMP` predicate reads its input once).

use crate::rule::{
    input_only_via_extract, input_only_via_extract_of, strip_extract, Rule, RuleCtx,
};
use excess_core::expr::{Expr, Pred};

fn bx(e: Expr) -> Box<Expr> {
    Box::new(e)
}

/// Rule 23 — commutativity of TUP_CAT: `TUP_CAT(A,B) = TUP_CAT(B,A)`.
///
/// As with rule 3, tuple equality here is field-order-sensitive, so the
/// swap is compensated with a projection restoring the original order;
/// requires statically-known, disjoint field names.
pub struct R23TupCatCommute;

impl Rule for R23TupCatCommute {
    fn name(&self) -> &'static str {
        "rule23-tup-cat-commute"
    }
    fn apply(&self, e: &Expr, ctx: &RuleCtx<'_>) -> Vec<Expr> {
        let Expr::TupCat(a, b) = e else { return vec![] };
        let (Some(fa), Some(fb)) = (ctx.tuple_fields(a), ctx.tuple_fields(b)) else {
            return vec![];
        };
        if fa.iter().any(|f| fb.contains(f)) {
            return vec![];
        }
        let order: Vec<String> = fa.iter().chain(fb.iter()).cloned().collect();
        vec![Expr::TupCat(b.clone(), a.clone()).project(order)]
    }
}

/// Rule 24 — distribute π over TUP_CAT:
/// `π_L(TUP_CAT(A,B)) = TUP_CAT(π_{L1}(A), π_{L2}(B))` where `L = L1 L2`,
/// `L1` draws from A's fields and `L2` from B's.  Requires disjoint field
/// names (no priming) and that `L` lists the A-fields before the B-fields
/// (π emits fields in the requested order).
pub struct R24ProjectOverCat;

impl Rule for R24ProjectOverCat {
    fn name(&self) -> &'static str {
        "rule24-project-over-cat"
    }
    fn apply(&self, e: &Expr, ctx: &RuleCtx<'_>) -> Vec<Expr> {
        let Expr::Project(inner, l) = e else {
            return vec![];
        };
        let Expr::TupCat(a, b) = &**inner else {
            return vec![];
        };
        let (Some(fa), Some(fb)) = (ctx.tuple_fields(a), ctx.tuple_fields(b)) else {
            return vec![];
        };
        if fa.iter().any(|f| fb.contains(f)) {
            return vec![];
        }
        let split = l.iter().position(|f| fb.contains(f)).unwrap_or(l.len());
        let (l1, l2) = l.split_at(split);
        if !l1.iter().all(|f| fa.contains(f)) || !l2.iter().all(|f| fb.contains(f)) {
            return vec![];
        }
        vec![Expr::TupCat(
            bx(a.as_ref().clone().project(l1.to_vec())),
            bx(b.as_ref().clone().project(l2.to_vec())),
        )]
    }
}

/// Rule 25 — extracting a field from a TUP_CAT:
/// `TUP_EXTRACT_f(TUP_CAT(A,B)) = TUP_EXTRACT_f(A)` if `f` is a field of
/// A (and symmetrically for B when names are disjoint).
pub struct R25ExtractFromCat;

impl Rule for R25ExtractFromCat {
    fn name(&self) -> &'static str {
        "rule25-extract-from-tup-cat"
    }
    fn apply(&self, e: &Expr, ctx: &RuleCtx<'_>) -> Vec<Expr> {
        let Expr::TupExtract(inner, f) = e else {
            return vec![];
        };
        let Expr::TupCat(a, b) = &**inner else {
            return vec![];
        };
        let Some(fa) = ctx.tuple_fields(a) else {
            return vec![];
        };
        if fa.contains(f) {
            return vec![Expr::TupExtract(a.clone(), f.clone())];
        }
        // The field may come from B, provided it was not primed.
        if let Some(fb) = ctx.tuple_fields(b) {
            if fb.contains(f) && !fa.contains(f) {
                return vec![Expr::TupExtract(b.clone(), f.clone())];
            }
        }
        vec![]
    }
}

/// Rule 26 — push an expression inside COMP:
/// `E(COMP_{P1}(A)) = COMP_{P2}(E(A))` provided `P1(INPUT) = P2(E(INPUT))`.
///
/// "A powerful generalization of commuting selections/projections in
/// relational algebra."  The general rule quantifies over all factorings;
/// we implement the two decidable instances the Figure 11 example needs:
///
/// * `π_L(COMP_P(A)) = COMP_P(π_L(A))` when `P` touches only fields in `L`;
/// * `TUP_EXTRACT_f(COMP_P(A)) = COMP_{P'}(TUP_EXTRACT_f(A))` when `P`
///   touches the input only through field `f` (`P'` strips the extract).
pub struct R26PushIntoComp;

impl Rule for R26PushIntoComp {
    fn name(&self) -> &'static str {
        "rule26-push-into-comp"
    }
    fn apply(&self, e: &Expr, _ctx: &RuleCtx<'_>) -> Vec<Expr> {
        let mut out = Vec::new();
        match e {
            Expr::Project(inner, l) => {
                if let Expr::Comp { input, pred } = &**inner {
                    let ok = pred
                        .exprs()
                        .iter()
                        .all(|x| input_only_via_extract_of(x, 0, l));
                    if ok {
                        out.push(Expr::Comp {
                            input: bx(input.as_ref().clone().project(l.clone())),
                            pred: pred.clone(),
                        });
                    }
                }
            }
            Expr::TupExtract(inner, f) => {
                if let Expr::Comp { input, pred } = &**inner {
                    let ok = pred.exprs().iter().all(|x| input_only_via_extract(x, 0, f));
                    if ok {
                        let pred2 = pred.map_exprs(&mut |x| strip_extract(x, 0, f));
                        out.push(Expr::Comp {
                            input: bx(input.as_ref().clone().extract(f.clone())),
                            pred: pred2,
                        });
                    }
                }
            }
            // Reverse: COMP_P(π_L(A)) → π_L(COMP_P(A)) — always sound (the
            // predicate can only see surviving fields).
            Expr::Comp { input, pred } => {
                if let Expr::Project(a, l) = &**input {
                    let ok = pred
                        .exprs()
                        .iter()
                        .all(|x| input_only_via_extract_of(x, 0, l));
                    if ok {
                        out.push(
                            Expr::Comp {
                                input: a.clone(),
                                pred: pred.clone(),
                            }
                            .project(l.clone()),
                        );
                    }
                }
            }
            _ => {}
        }
        out
    }
}

/// Rule 27 — combine successive COMPs into a conjunction (both directions):
/// `COMP_{P1}(COMP_{P2}(A)) = COMP_{P2 ∧ P1}(A)`.
///
/// Caveat (documented): with `unk`-valued predicates the nested form can
/// return `unk` where the conjunction returns `dne` (Kleene `U ∧ F = F`);
/// the rule is tagged [`Rule::assumes_null_free`].
pub struct R27CombineComps;

impl Rule for R27CombineComps {
    fn name(&self) -> &'static str {
        "rule27-combine-comps"
    }
    fn assumes_null_free(&self) -> bool {
        true
    }
    fn apply(&self, e: &Expr, _ctx: &RuleCtx<'_>) -> Vec<Expr> {
        let mut out = Vec::new();
        if let Expr::Comp { input, pred: p1 } = e {
            if let Expr::Comp { input: a, pred: p2 } = &**input {
                // Evaluation order: inner P2 first, then P1.
                out.push(Expr::Comp {
                    input: a.clone(),
                    pred: p2.clone().and(p1.clone()),
                });
            }
            // Reverse: split a top-level conjunction.
            if let Pred::And(p2, p1b) = p1 {
                out.push(Expr::Comp {
                    input: bx(Expr::Comp {
                        input: input.clone(),
                        pred: (**p2).clone(),
                    }),
                    pred: (**p1b).clone(),
                });
            }
        }
        out
    }
}

/// Rule 28 — invertibility of REF and DEREF:
/// `DEREF(REF(A)) = A` (always sound) and `REF(DEREF(A)) = A` (sound
/// modulo object identity: the unrewritten plan mints a fresh OID whose
/// referent is value-equal — see `excess_core::canon`).
pub struct R28RefDeref;

impl Rule for R28RefDeref {
    fn name(&self) -> &'static str {
        "rule28-ref-deref-cancel"
    }
    fn modulo_identity(&self) -> bool {
        true
    }
    fn apply(&self, e: &Expr, _ctx: &RuleCtx<'_>) -> Vec<Expr> {
        match e {
            Expr::Deref(inner) => {
                if let Expr::MakeRef(a, _) = &**inner {
                    return vec![(**a).clone()];
                }
                vec![]
            }
            Expr::MakeRef(inner, _) => {
                if let Expr::Deref(a) = &**inner {
                    return vec![(**a).clone()];
                }
                vec![]
            }
            _ => vec![],
        }
    }
}

/// `DEREF(REF(A)) = A` only — the direction that is sound even under
/// strict OID identity (kept separate so the engine's identity-preserving
/// mode still benefits).
pub struct R28aDerefOfRef;

impl Rule for R28aDerefOfRef {
    fn name(&self) -> &'static str {
        "rule28a-deref-of-ref"
    }
    fn apply(&self, e: &Expr, _ctx: &RuleCtx<'_>) -> Vec<Expr> {
        if let Expr::Deref(inner) = e {
            if let Expr::MakeRef(a, _) = &**inner {
                return vec![(**a).clone()];
            }
        }
        vec![]
    }
}

/// Rule A2 — a predicate reads its `COMP`'s input through `INPUT`:
/// `COMP_{P(A')}(A) = COMP_{P(INPUT)}(A)`, where `A'` is `A` re-derived
/// under the `COMP`'s binder (`A` with its free `INPUT`s shifted by one)
/// and stands as a whole comparison operand of `P`.
///
/// Exact, nulls and errors included: `COMP` evaluates its input before
/// its predicate, and every read (`DEREF` too) sees one snapshot, so the
/// re-derivation returns the value the input did, `dne` and `unk`
/// included, and cannot raise an error that the input did not raise
/// first.  An input that mints OIDs is left alone: re-deriving a `REF`
/// mints a different object.
pub struct RA2CompReadsInput;

impl Rule for RA2CompReadsInput {
    fn name(&self) -> &'static str {
        "ruleA2-comp-reads-input"
    }
    fn apply(&self, e: &Expr, _ctx: &RuleCtx<'_>) -> Vec<Expr> {
        let Expr::Comp { input, pred } = e else {
            return vec![];
        };
        if input.mints_oids() {
            return vec![];
        }
        let rederived = input.shift_inputs(0, 1);
        if !pred.exprs().contains(&&rederived) {
            return vec![];
        }
        let pred = pred.map_exprs(&mut |x| {
            if *x == rederived {
                Expr::input()
            } else {
                x.clone()
            }
        });
        vec![Expr::Comp {
            input: input.clone(),
            pred,
        }]
    }
}

/// All §4 rules, boxed.
pub(crate) fn all() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(R23TupCatCommute),
        Box::new(R24ProjectOverCat),
        Box::new(R25ExtractFromCat),
        Box::new(R26PushIntoComp),
        Box::new(R27CombineComps),
        Box::new(R28RefDeref),
        Box::new(R28aDerefOfRef),
        Box::new(RA2CompReadsInput),
    ]
}
