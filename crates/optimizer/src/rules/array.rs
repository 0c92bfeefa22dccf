//! Appendix §3: transformation rules for array operators (rules 16–22).
//!
//! "Many of the multiset rules carry over to arrays"; the engine realises
//! that through [`crate::rules::relational`]'s array variants where
//! worthwhile.  Bounds arithmetic uses 1-based indices throughout; where
//! the paper's subscript arithmetic is written base-agnostically (`m+p` in
//! rule 18, `j+m` in rule 20) we use the 1-based-correct `m+p−1` form.

use crate::rule::{Rule, RuleCtx};
use excess_core::expr::{Bound, Expr};
use excess_types::Value;

fn bx(e: Expr) -> Box<Expr> {
    Box::new(e)
}

/// Does this expression contain a COMP (or derived selection) node?
/// Rules 19 and 22 require "E is not COMP_P for some P": an `ARR_APPLY`
/// whose body can return `dne` *filters* (positions shift), so extraction
/// and subarray no longer commute with it.
fn contains_filter(e: &Expr) -> bool {
    matches!(
        e,
        Expr::Comp { .. } | Expr::Select { .. } | Expr::ArrSelect { .. } | Expr::RelJoin { .. }
    ) || e.children().iter().any(|c| contains_filter(c))
}

/// Rule 16 — concatenation associativity (both directions):
/// `ARR_CAT(A, ARR_CAT(B, C)) = ARR_CAT(ARR_CAT(A, B), C)`.
pub struct R16CatAssoc;

impl Rule for R16CatAssoc {
    fn name(&self) -> &'static str {
        "rule16-arr-cat-assoc"
    }
    fn apply(&self, e: &Expr, _ctx: &RuleCtx<'_>) -> Vec<Expr> {
        let mut out = Vec::new();
        if let Expr::ArrCat(a, bc) = e {
            if let Expr::ArrCat(b, c) = &**bc {
                out.push(Expr::ArrCat(
                    bx(Expr::ArrCat(a.clone(), b.clone())),
                    c.clone(),
                ));
            }
            if let Expr::ArrCat(a2, b2) = &**a {
                out.push(Expr::ArrCat(
                    a2.clone(),
                    bx(Expr::ArrCat(b2.clone(), bc.clone())),
                ));
            }
        }
        out
    }
}

/// The statically-known length of an expression, when determinable: a
/// constant array literal, or `ARR(x)` (length 1).  Rules 17 and 21 need
/// `|A|` to resolve which side of a concatenation an index falls in.
fn static_len(e: &Expr) -> Option<usize> {
    match e {
        Expr::Const(Value::Array(a)) => Some(a.len()),
        Expr::MakeArr(_) => Some(1),
        Expr::ArrCat(a, b) => Some(static_len(a)? + static_len(b)?),
        _ => None,
    }
}

/// Rule 17 — extracting an element from a concatenation:
/// `ARR_EXTRACT_n(ARR_CAT(A,B)) = ARR_EXTRACT_n(A)` if `n ≤ |A|`, else
/// `ARR_EXTRACT_{n−|A|}(B)`.  Applies when `|A|` is statically known.
pub struct R17ExtractFromCat;

impl Rule for R17ExtractFromCat {
    fn name(&self) -> &'static str {
        "rule17-extract-from-cat"
    }
    fn apply(&self, e: &Expr, _ctx: &RuleCtx<'_>) -> Vec<Expr> {
        let Expr::ArrExtract(inner, Bound::At(n)) = e else {
            return vec![];
        };
        let Expr::ArrCat(a, b) = &**inner else {
            return vec![];
        };
        let Some(la) = static_len(a) else {
            return vec![];
        };
        if *n <= la {
            vec![Expr::ArrExtract(a.clone(), Bound::At(*n))]
        } else {
            vec![Expr::ArrExtract(b.clone(), Bound::At(n - la))]
        }
    }
}

/// Rule 18 — extracting from a subarray:
/// `ARR_EXTRACT_p(SUBARR_{m,n}(A)) = ARR_EXTRACT_{m+p−1}(A)` when
/// `p ≤ n−m+1` (inside the subarray's extent); out-of-extent extractions
/// are `dne` on both sides only if the rewrite is *not* applied, so the
/// side condition is required.
pub struct R18ExtractFromSubarr;

impl Rule for R18ExtractFromSubarr {
    fn name(&self) -> &'static str {
        "rule18-extract-from-subarr"
    }
    fn apply(&self, e: &Expr, _ctx: &RuleCtx<'_>) -> Vec<Expr> {
        let Expr::ArrExtract(inner, Bound::At(p)) = e else {
            return vec![];
        };
        let Expr::SubArr(a, Bound::At(m), n) = &**inner else {
            return vec![];
        };
        if *p == 0 || *m == 0 {
            return vec![];
        }
        match n {
            Bound::At(n) => {
                if *p <= n.saturating_sub(*m) + 1 && *n >= *m {
                    vec![Expr::ArrExtract(a.clone(), Bound::At(m + p - 1))]
                } else {
                    vec![]
                }
            }
            // SUBARR_{m,last}: extent is the array tail, so any p maps to
            // m+p−1 (both sides dne when past the end).
            Bound::Last => vec![Expr::ArrExtract(a.clone(), Bound::At(m + p - 1))],
        }
    }
}

/// Rule 19 — extracting from an ARR_APPLY:
/// `ARR_EXTRACT_n(ARR_APPLY_E(A)) = E(ARR_EXTRACT_n(A))`, provided `E` is
/// not a filter (`COMP`) — filters drop elements and shift positions.
///
/// Caveat (documented): out-of-range extraction makes the left side `dne`
/// and feeds `dne` into `E` on the right; because every structural operator
/// propagates `dne`, both sides still agree unless `E` *constructs* around
/// its input without inspecting it (`SET`, `ARR`, `TUP`) — those bodies
/// are excluded.
pub struct R19ExtractFromApply;

impl Rule for R19ExtractFromApply {
    fn name(&self) -> &'static str {
        "rule19-extract-from-apply"
    }
    fn apply(&self, e: &Expr, _ctx: &RuleCtx<'_>) -> Vec<Expr> {
        let Expr::ArrExtract(inner, n) = e else {
            return vec![];
        };
        let Expr::ArrApply { input, body } = &**inner else {
            return vec![];
        };
        if contains_filter(body) || contains_constructor(body) {
            return vec![];
        }
        let arg = Expr::ArrExtract(input.clone(), *n);
        vec![Expr::beta_apply(body, &arg)]
    }
}

/// Does the body contain a node that swallows `dne` into a container
/// (`SET(dne) = {}`, `ARR(dne) = []`, `TUP` keeps it) — those change the
/// dne-propagation argument rule 19 relies on.
fn contains_constructor(e: &Expr) -> bool {
    matches!(e, Expr::MakeSet(_) | Expr::MakeArr(_) | Expr::MakeTup(..))
        || e.children().iter().any(|c| contains_constructor(c))
}

/// Rule 20 — combining successive SUBARRs:
/// `SUBARR_{m,n}(SUBARR_{j,k}(A)) = SUBARR_{j+m−1, min(j+n−1, k)}(A)`.
pub struct R20CombineSubarrs;

impl Rule for R20CombineSubarrs {
    fn name(&self) -> &'static str {
        "rule20-combine-subarrs"
    }
    fn apply(&self, e: &Expr, _ctx: &RuleCtx<'_>) -> Vec<Expr> {
        let Expr::SubArr(inner, Bound::At(m), Bound::At(n)) = e else {
            return vec![];
        };
        let Expr::SubArr(a, Bound::At(j), k) = &**inner else {
            return vec![];
        };
        if *m == 0 || *j == 0 {
            return vec![];
        }
        let lo = j + m - 1;
        let hi_rel = j + n - 1;
        let hi = match k {
            Bound::At(k) => Bound::At(hi_rel.min(*k)),
            Bound::Last => Bound::At(hi_rel),
        };
        vec![Expr::SubArr(a.clone(), Bound::At(lo), hi)]
    }
}

/// Rule 21 — taking a subarray from a concatenation (when `|A|` is
/// statically known):
/// `SUBARR_{m,n}(ARR_CAT(A,B)) =
///    ARR_CAT(SUBARR_{m,|A|}(A), SUBARR_{1,n−|A|}(B))` if `m ≤ |A| < n`;
///    `SUBARR_{m,n}(A)` if `n ≤ |A|`;
///    `SUBARR_{m−|A|, n−|A|}(B)` if `m > |A|`.
pub struct R21SubarrFromCat;

impl Rule for R21SubarrFromCat {
    fn name(&self) -> &'static str {
        "rule21-subarr-from-cat"
    }
    fn apply(&self, e: &Expr, _ctx: &RuleCtx<'_>) -> Vec<Expr> {
        let Expr::SubArr(inner, Bound::At(m), Bound::At(n)) = e else {
            return vec![];
        };
        let Expr::ArrCat(a, b) = &**inner else {
            return vec![];
        };
        let Some(la) = static_len(a) else {
            return vec![];
        };
        if *m == 0 {
            return vec![];
        }
        if *n <= la {
            vec![Expr::SubArr(a.clone(), Bound::At(*m), Bound::At(*n))]
        } else if *m > la {
            vec![Expr::SubArr(
                b.clone(),
                Bound::At(m - la),
                Bound::At(n - la),
            )]
        } else {
            vec![Expr::ArrCat(
                bx(Expr::SubArr(a.clone(), Bound::At(*m), Bound::At(la))),
                bx(Expr::SubArr(b.clone(), Bound::At(1), Bound::At(n - la))),
            )]
        }
    }
}

/// Rule 22 — commuting SUBARR with ARR_APPLY:
/// `SUBARR_{m,n}(ARR_APPLY_E(A)) = ARR_APPLY_E(SUBARR_{m,n}(A))`,
/// provided `E` is not a filter.
pub struct R22SubarrThroughApply;

impl Rule for R22SubarrThroughApply {
    fn name(&self) -> &'static str {
        "rule22-subarr-through-apply"
    }
    fn apply(&self, e: &Expr, _ctx: &RuleCtx<'_>) -> Vec<Expr> {
        let mut out = Vec::new();
        if let Expr::SubArr(inner, m, n) = e {
            if let Expr::ArrApply { input, body } = &**inner {
                if !contains_filter(body) {
                    out.push(Expr::ArrApply {
                        input: bx(Expr::SubArr(input.clone(), *m, *n)),
                        body: body.clone(),
                    });
                }
            }
        }
        // Reverse direction — pulling the SUBARR back out.
        if let Expr::ArrApply { input, body } = e {
            if let Expr::SubArr(a, m, n) = &**input {
                if !contains_filter(body) {
                    out.push(Expr::SubArr(
                        bx(Expr::ArrApply {
                            input: a.clone(),
                            body: body.clone(),
                        }),
                        *m,
                        *n,
                    ));
                }
            }
        }
        out
    }
}

/// Bonus (carried over from rule 15, as the paper's "many of the multiset
/// rules carry over to arrays" allows): combine successive ARR_APPLYs.
pub struct RA1CombineArrApplys;

impl Rule for RA1CombineArrApplys {
    fn name(&self) -> &'static str {
        "ruleA1-combine-arr-applys"
    }
    fn apply(&self, e: &Expr, _ctx: &RuleCtx<'_>) -> Vec<Expr> {
        let Expr::ArrApply { input, body: e1 } = e else {
            return vec![];
        };
        let Expr::ArrApply { input: a, body: e2 } = &**input else {
            return vec![];
        };
        // Fusing across a filtering inner body is still sound for arrays?
        // No: the inner filter drops elements *before* E1 sees positions,
        // while the fused form feeds E1 the dne — E1 propagates it and the
        // outer array drops it, so order and content agree.  Fusing a
        // filtering *outer* body is likewise fine.  However, an inner
        // filter composed with an outer *constructor* (SET/ARR/TUP of the
        // dne) would capture the dne — exclude that case.
        if contains_filter(e2) && contains_constructor(e1) {
            return vec![];
        }
        let fused = e1.substitute_input(0, e2);
        vec![Expr::ArrApply {
            input: a.clone(),
            body: bx(fused),
        }]
    }
}

/// All §3 rules, boxed.
pub(crate) fn all() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(R16CatAssoc),
        Box::new(R17ExtractFromCat),
        Box::new(R18ExtractFromSubarr),
        Box::new(R19ExtractFromApply),
        Box::new(R20CombineSubarrs),
        Box::new(R21SubarrFromCat),
        Box::new(R22SubarrThroughApply),
        Box::new(RA1CombineArrApplys),
    ]
}
