//! Classical relational rules expressed in the EXCESS algebra.
//!
//! The paper notes (Appendix §4) that "the rules for pushing relational
//! selection and projection ahead of a relational join are consequences of
//! rules 13, 24, and 27"; this module provides them as direct, composed
//! rules so the heuristic optimizer pass can fire them in one step, plus a
//! handful of always-sound cleanups.

use crate::rule::{input_only_via_extract_of, Rule, RuleCtx};
use excess_core::expr::{Expr, Pred};

fn bx(e: Expr) -> Box<Expr> {
    Box::new(e)
}

/// `σ_{P1}(σ_{P2}(A)) = σ_{P2 ∧ P1}(A)` — the σ-level image of rule 27
/// (same null-free caveat), both directions.
pub struct RR1CombineSelects;

impl Rule for RR1CombineSelects {
    fn name(&self) -> &'static str {
        "rel1-combine-selects"
    }
    fn assumes_null_free(&self) -> bool {
        true
    }
    fn apply(&self, e: &Expr, _ctx: &RuleCtx<'_>) -> Vec<Expr> {
        let mut out = Vec::new();
        if let Expr::Select { input, pred: p1 } = e {
            if let Expr::Select { input: a, pred: p2 } = &**input {
                out.push(Expr::Select {
                    input: a.clone(),
                    pred: p2.clone().and(p1.clone()),
                });
            }
            if let Pred::And(p2, p1b) = p1 {
                out.push(Expr::Select {
                    input: bx(Expr::Select {
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

/// Push a join-predicate conjunct that references only one side's fields
/// down into that side as a selection:
/// `rel_join_{P1 ∧ P2}(A, B) = rel_join_{P2}(σ_{P1}(A), B)` when `P1`
/// touches only A's fields (requires disjoint field names so the
/// concatenated tuple's field provenance is unambiguous); symmetrically
/// for B.
pub struct RR2PushSelectIntoJoin;

impl Rule for RR2PushSelectIntoJoin {
    fn name(&self) -> &'static str {
        "rel2-push-select-into-join"
    }
    fn assumes_null_free(&self) -> bool {
        true
    }
    fn apply(&self, e: &Expr, ctx: &RuleCtx<'_>) -> Vec<Expr> {
        let Expr::RelJoin {
            left,
            right,
            pred: Pred::And(p1, p2),
        } = e
        else {
            return vec![];
        };
        let (Some(fa), Some(fb)) = (ctx.set_elem_fields(left), ctx.set_elem_fields(right)) else {
            return vec![];
        };
        if fa.iter().any(|f| fb.contains(f)) {
            return vec![];
        }
        let mut out = Vec::new();
        // P1 references only A-fields → filter A first.
        if p1
            .exprs()
            .iter()
            .all(|x| input_only_via_extract_of(x, 0, &fa))
        {
            out.push(Expr::RelJoin {
                left: bx(Expr::Select {
                    input: left.clone(),
                    pred: (**p1).clone(),
                }),
                right: right.clone(),
                pred: (**p2).clone(),
            });
        }
        // P1 references only B-fields → filter B first.
        if p1
            .exprs()
            .iter()
            .all(|x| input_only_via_extract_of(x, 0, &fb))
        {
            out.push(Expr::RelJoin {
                left: left.clone(),
                right: bx(Expr::Select {
                    input: right.clone(),
                    pred: (**p1).clone(),
                }),
                pred: (**p2).clone(),
            });
        }
        out
    }
}

/// `σ_P(A ⊎ B) = σ_P(A) ⊎ σ_P(B)` — the σ face of rule 12.
pub struct RR3SelectOverUnion;

impl Rule for RR3SelectOverUnion {
    fn name(&self) -> &'static str {
        "rel3-select-over-union"
    }
    fn apply(&self, e: &Expr, _ctx: &RuleCtx<'_>) -> Vec<Expr> {
        let Expr::Select { input, pred } = e else {
            return vec![];
        };
        let Expr::AddUnion(a, b) = &**input else {
            return vec![];
        };
        vec![Expr::AddUnion(
            bx(Expr::Select {
                input: a.clone(),
                pred: pred.clone(),
            }),
            bx(Expr::Select {
                input: b.clone(),
                pred: pred.clone(),
            }),
        )]
    }
}

/// `DE(DE(A)) = DE(A)` — idempotence of duplicate elimination.
pub struct RR4DeIdempotent;

impl Rule for RR4DeIdempotent {
    fn name(&self) -> &'static str {
        "rel4-de-idempotent"
    }
    fn apply(&self, e: &Expr, _ctx: &RuleCtx<'_>) -> Vec<Expr> {
        if let Expr::DupElim(inner) = e {
            if matches!(**inner, Expr::DupElim(_)) {
                return vec![(**inner).clone()];
            }
        }
        vec![]
    }
}

/// Push DE below a *duplicate-respecting projection-like* SET_APPLY when
/// followed by DE anyway:
/// `DE(SET_APPLY_E(A)) = DE(SET_APPLY_E(DE(A)))` — sound for any `E`
/// (deterministic bodies map equal inputs to equal outputs, so the outer
/// DE erases any cardinality differences).  This is the Figure 7→8 "push
/// DE past the join input" building block.
///
/// The composed join form projects *and* deduplicates each join input
/// down to the fields the outer projection and the join predicate need:
/// `DE(SET_APPLY_π(rel_join_P(A, B))) =
///  DE(SET_APPLY_π(rel_join_P(DE(SET_APPLY_{π_A}(A)),
///                            DE(SET_APPLY_{π_B}(B)))))`
/// when field provenance is unambiguous (statically known, disjoint
/// side schemas), `P` touches only known fields, and `π` is a pure
/// projection ([`Expr::projected_fields`]: `π` itself, or the same
/// projection spelled attribute by attribute, kept as spelled).  Sound
/// because `π_A`/`π_B` keep every field `P` or `π`
/// reads, so the same set of projected result tuples survives — only
/// multiplicities change, and the outer DE erases those.  This single
/// firing is the paper's Figure 7 → Figure 8 step: DE now runs over
/// `|A| + |B|` occurrences instead of `|A|·|B|`.
pub struct RR5DeEarly;

impl Rule for RR5DeEarly {
    fn name(&self) -> &'static str {
        "rel5-de-early"
    }
    fn apply(&self, e: &Expr, ctx: &RuleCtx<'_>) -> Vec<Expr> {
        let mut out = Vec::new();
        if let Expr::DupElim(inner) = e {
            if let Expr::SetApply {
                input,
                body,
                only_types,
            } = &**inner
            {
                if !body.mints_oids() && !matches!(**input, Expr::DupElim(_)) {
                    out.push(Expr::DupElim(bx(Expr::SetApply {
                        input: bx(Expr::DupElim(input.clone())),
                        body: body.clone(),
                        only_types: only_types.clone(),
                    })));
                }
                if only_types.is_none() {
                    if let Some(rw) = de_into_join_inputs(input, body, ctx) {
                        out.push(rw);
                    }
                }
            }
        }
        out
    }
}

/// The composed Figure 7→8 rewrite body of [`RR5DeEarly`]; `None` when a
/// side condition fails.
fn de_into_join_inputs(input: &Expr, body: &Expr, ctx: &RuleCtx<'_>) -> Option<Expr> {
    let Expr::RelJoin { left, right, pred } = input else {
        return None;
    };
    // Already pushed (either side deduplicated) → don't fire again.
    if matches!(**left, Expr::DupElim(_)) || matches!(**right, Expr::DupElim(_)) {
        return None;
    }
    let pfields = body.projected_fields()?;
    let (fa, fb) = (ctx.set_elem_fields(left)?, ctx.set_elem_fields(right)?);
    if fa.iter().any(|f| fb.contains(f)) {
        return None;
    }
    // The predicate may only read statically-known fields (and must not
    // mint: it runs once per pair, and the pair count changes).
    let all: Vec<String> = fa.iter().chain(fb.iter()).cloned().collect();
    if !pred
        .exprs()
        .iter()
        .all(|x| input_only_via_extract_of(x, 0, &all))
        || pred.exprs().iter().any(|x| x.mints_oids())
    {
        return None;
    }
    if !pfields.iter().all(|f| all.contains(f)) {
        return None;
    }
    let mut pred_fields = Vec::new();
    for x in pred.exprs() {
        collect_extracted_fields(x, 0, &mut pred_fields);
    }
    let needed = |side: &[String]| -> Vec<String> {
        side.iter()
            .filter(|f| pfields.contains(f) || pred_fields.contains(f))
            .cloned()
            .collect()
    };
    let project_dedup = |side: &Expr, fields: Vec<String>| {
        Expr::DupElim(bx(Expr::SetApply {
            input: bx(side.clone()),
            body: bx(Expr::input().project(fields)),
            only_types: None,
        }))
    };
    Some(Expr::DupElim(bx(Expr::SetApply {
        input: bx(Expr::RelJoin {
            left: bx(project_dedup(left, needed(&fa))),
            right: bx(project_dedup(right, needed(&fb))),
            pred: pred.clone(),
        }),
        body: bx(body.clone()),
        only_types: None,
    })))
}

/// Collect every field `f` extracted from the binder at `depth` as
/// `TUP_EXTRACT_f(Input(depth))`, tracking binder depth like
/// `input_only_via_extract_of` does.
fn collect_extracted_fields(e: &Expr, depth: usize, out: &mut Vec<String>) {
    if let Expr::TupExtract(inner, f) = e {
        if matches!(**inner, Expr::Input(d) if d == depth) && !out.contains(f) {
            out.push(f.clone());
        }
    }
    match e {
        Expr::SetApply { input, body, .. } | Expr::ArrApply { input, body } => {
            collect_extracted_fields(input, depth, out);
            collect_extracted_fields(body, depth + 1, out);
        }
        Expr::Group { input, by } => {
            collect_extracted_fields(input, depth, out);
            collect_extracted_fields(by, depth + 1, out);
        }
        Expr::Comp { input, pred } => {
            collect_extracted_fields(input, depth, out);
            for x in pred.exprs() {
                collect_extracted_fields(x, depth + 1, out);
            }
        }
        Expr::Select { input, pred } | Expr::ArrSelect { input, pred } => {
            collect_extracted_fields(input, depth, out);
            for x in pred.exprs() {
                collect_extracted_fields(x, depth + 1, out);
            }
        }
        Expr::RelJoin { left, right, pred } => {
            collect_extracted_fields(left, depth, out);
            collect_extracted_fields(right, depth, out);
            for x in pred.exprs() {
                collect_extracted_fields(x, depth + 1, out);
            }
        }
        Expr::SetApplySwitch { input, table } => {
            collect_extracted_fields(input, depth, out);
            for (_, b) in table {
                collect_extracted_fields(b, depth + 1, out);
            }
        }
        _ => {
            for c in e.children() {
                collect_extracted_fields(c, depth, out);
            }
        }
    }
}

/// Push a selection inside a SET_COLLAPSE (the σ face of rule 14):
/// `σ_P(SET_COLLAPSE(A)) = SET_COLLAPSE(SET_APPLY_{σ_P}(A))` — filter each
/// inner multiset before flattening (both directions).
pub struct RR6SelectThroughCollapse;

impl Rule for RR6SelectThroughCollapse {
    fn name(&self) -> &'static str {
        "rel6-select-through-collapse"
    }
    fn apply(&self, e: &Expr, _ctx: &RuleCtx<'_>) -> Vec<Expr> {
        let mut out = Vec::new();
        if let Expr::Select { input, pred } = e {
            if let Expr::SetCollapse(a) = &**input {
                // The σ moves one binder deeper: free refs shift up.
                let inner = Expr::Select {
                    input: bx(Expr::input()),
                    pred: pred.map_exprs(&mut |x| x.shift_inputs(1, 1)),
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
                if let Expr::Select { input: si, pred } = &**body {
                    if **si == Expr::input() && !pred.mentions_input(1) {
                        out.push(Expr::Select {
                            input: bx(Expr::SetCollapse(a.clone())),
                            pred: pred.map_exprs(&mut |x| x.shift_inputs(1, -1)),
                        });
                    }
                }
            }
        }
        out
    }
}

/// `SET_APPLY_{INPUT}(A) = A` — mapping the identity over a multiset is a
/// no-op.  Cleanup rule: strips the vestigial per-group identity apply so
/// Figures 6, 7, and 8 all converge on one canonical optimized plan.
pub struct RR7IdentityApply;

impl Rule for RR7IdentityApply {
    fn name(&self) -> &'static str {
        "rel7-identity-apply"
    }
    fn apply(&self, e: &Expr, _ctx: &RuleCtx<'_>) -> Vec<Expr> {
        if let Expr::SetApply {
            input,
            body,
            only_types: None,
        } = e
        {
            if matches!(**body, Expr::Input(0)) {
                return vec![(**input).clone()];
            }
        }
        vec![]
    }
}

/// All relational rules, boxed.
pub(crate) fn all() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(RR1CombineSelects),
        Box::new(RR2PushSelectIntoJoin),
        Box::new(RR3SelectOverUnion),
        Box::new(RR4DeIdempotent),
        Box::new(RR5DeEarly),
        Box::new(RR6SelectThroughCollapse),
        Box::new(RR7IdentityApply),
    ]
}
