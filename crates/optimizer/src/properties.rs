//! Property-licensed rewrites: simplifications a cost model cannot
//! justify and a syntactic rule cannot see, licensed instead by the
//! abstract-interpretation pass (`excess_core::analysis`).
//!
//! The greedy engine's 35-rule catalogue rewrites *shapes*; this pass
//! rewrites on *proofs*: a `DE` whose input is proven duplicate-free is
//! the identity, a `⊎`/`∪` branch proven to be the empty multiset
//! contributes nothing, `A − ∅ = A`.  Every step re-analyses the current
//! plan (properties are positional and earlier steps change positions),
//! passes the same rewrite-soundness gate as the rule catalogue, and is
//! journaled under the rule name [`PROPERTY_RULE`].
//!
//! The pass is deliberately *not* part of `Optimizer::standard()` — the
//! figure-convergence suite pins the exact greedy rule sequences — and is
//! opt-in from `Database` (`property_rewrites`), the REPL, and the
//! benchmark report's section H.

use crate::cost::cost_of;
use crate::engine::{
    replace_nth_child, soundness_violation, JournalStep, RefusedStep, RewriteJournal,
};
use crate::rule::RuleCtx;
use crate::stats::Statistics;
use excess_core::analysis::{analyze, Analysis, CollKind, Props};
use excess_core::catalog::Catalog;
use excess_core::expr::Expr;
use excess_core::profile::NodePath;
use std::collections::HashSet;

/// Journal rule name for every rewrite this pass performs.
pub const PROPERTY_RULE: &str = "property-licensed";

fn props_at(a: &Analysis, path: &[usize], child: usize) -> Props {
    let mut p = path.to_vec();
    p.push(child);
    a.props_at(&p).cloned().unwrap_or_else(Props::unknown)
}

/// The single-site rewrite this pass proposes at `e` (already positioned
/// at `path`), if its licence is proven.  Returns the replacement and a
/// short justification.
fn proposal(e: &Expr, path: &[usize], a: &Analysis) -> Option<(Expr, String)> {
    match e {
        // DE over a proven duplicate-free multiset is the identity.  The
        // collection-sort proof makes the licence unconditional: the
        // input *is* a multiset, and it has no duplicate occurrence.
        Expr::DupElim(inner) => {
            let p = props_at(a, path, 0);
            (p.dup_free && p.coll == Some(CollKind::Set)).then(|| {
                (
                    (**inner).clone(),
                    "input proven duplicate-free multiset — DE is the identity".to_string(),
                )
            })
        }
        Expr::ArrDupElim(inner) => {
            let p = props_at(a, path, 0);
            (p.dup_free && p.coll == Some(CollKind::Array)).then(|| {
                (
                    (**inner).clone(),
                    "input proven duplicate-free array — ARR_DE is the identity".to_string(),
                )
            })
        }
        // A union branch proven to be the empty multiset contributes
        // nothing; the other operand passes through unchanged (`∅ ⊎ B =
        // B` for every multiset-or-null `B`).
        Expr::AddUnion(l, r) | Expr::Union(l, r) => {
            let (pl, pr) = (props_at(a, path, 0), props_at(a, path, 1));
            if pl.is_empty_coll() && pl.coll == Some(CollKind::Set) {
                Some((
                    (**r).clone(),
                    "left branch proven empty — union branch pruned".to_string(),
                ))
            } else if pr.is_empty_coll() && pr.coll == Some(CollKind::Set) {
                Some((
                    (**l).clone(),
                    "right branch proven empty — union branch pruned".to_string(),
                ))
            } else {
                None
            }
        }
        // `A − ∅ = A`.
        Expr::Diff(l, _r) => {
            let pr = props_at(a, path, 1);
            (pr.is_empty_coll() && pr.coll == Some(CollKind::Set)).then(|| {
                (
                    (**l).clone(),
                    "subtrahend proven empty — difference is the identity".to_string(),
                )
            })
        }
        // `ARR_CAT(∅, B) = B` and symmetrically.
        Expr::ArrCat(l, r) => {
            let (pl, pr) = (props_at(a, path, 0), props_at(a, path, 1));
            if pl.is_empty_coll() && pl.coll == Some(CollKind::Array) {
                Some((
                    (**r).clone(),
                    "left array proven empty — concatenation branch pruned".to_string(),
                ))
            } else if pr.is_empty_coll() && pr.coll == Some(CollKind::Array) {
                Some((
                    (**l).clone(),
                    "right array proven empty — concatenation branch pruned".to_string(),
                ))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// First licensed site in preorder not in `skip`: the node path, the
/// whole plan after rewriting that site only, and the justification.
fn find_site(
    e: &Expr,
    path: &mut NodePath,
    a: &Analysis,
    skip: &HashSet<NodePath>,
) -> Option<(NodePath, Expr, String)> {
    if !skip.contains(path) {
        if let Some((new, why)) = proposal(e, path, a) {
            return Some((path.clone(), new, why));
        }
    }
    for (n, child) in e.children().into_iter().enumerate() {
        path.push(n);
        let hit = find_site(child, path, a, skip);
        path.pop();
        if let Some((at, new_child, why)) = hit {
            return Some((at, replace_nth_child(e, n, &new_child), why));
        }
    }
    None
}

/// Apply every property-licensed rewrite the analysis can prove, one site
/// at a time, re-analysing after each accepted step (accepted steps
/// shrink the tree, so the loop terminates).  Each step passes
/// [`soundness_violation`]; refusals are journaled under
/// [`PROPERTY_RULE`] like any refused rule application.
pub fn apply_property_rewrites_journaled(
    e: &Expr,
    data: &dyn Catalog,
    stats: &Statistics,
    ctx: &RuleCtx<'_>,
    journal: &mut RewriteJournal,
) -> Expr {
    let mut cur = e.clone();
    let mut skip: HashSet<NodePath> = HashSet::new();
    loop {
        let analysis = analyze(&cur, data);
        let Some((path, next, _why)) = find_site(&cur, &mut NodePath::new(), &analysis, &skip)
        else {
            return cur;
        };
        if let Some(reason) = soundness_violation(&cur, &next, ctx) {
            journal.refused.push(RefusedStep {
                rule: PROPERTY_RULE,
                path: path.clone(),
                reason,
            });
            // Refused paths stay skipped until the next accepted rewrite
            // invalidates positions.
            skip.insert(path);
            continue;
        }
        let cost_before = cost_of(&cur, stats);
        let cost_after = cost_of(&next, stats);
        journal.steps.push(JournalStep {
            rule: PROPERTY_RULE,
            path,
            cost_before,
            cost_after,
            plan: next.clone(),
        });
        journal.final_cost = cost_after;
        journal.plans_enumerated += 1;
        // Accepted rewrites move nodes, so previously refused paths no
        // longer address the same sites.
        skip.clear();
        cur = next;
    }
}

/// [`apply_property_rewrites_journaled`] without journaling.
pub fn apply_property_rewrites(
    e: &Expr,
    data: &dyn Catalog,
    stats: &Statistics,
    ctx: &RuleCtx<'_>,
) -> Expr {
    let mut discarded = RewriteJournal::for_plan(0.0);
    apply_property_rewrites_journaled(e, data, stats, ctx, &mut discarded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use excess_core::expr::{CmpOp, Pred};
    use excess_types::{SchemaType, TypeRegistry, Value};
    use std::collections::HashMap;

    fn people() -> Value {
        Value::set([
            Value::tuple([("id".to_string(), Value::int(1))]),
            Value::tuple([("id".to_string(), Value::int(2))]),
        ])
    }

    fn fixtures() -> (
        TypeRegistry,
        HashMap<String, SchemaType>,
        HashMap<String, Value>,
    ) {
        let reg = TypeRegistry::new();
        let mut schemas = HashMap::new();
        schemas.insert(
            "P".to_string(),
            SchemaType::set(SchemaType::tuple([("id", SchemaType::int4())])),
        );
        let mut data = HashMap::new();
        data.insert("P".to_string(), people());
        (reg, schemas, data)
    }

    #[test]
    fn de_over_proven_duplicate_free_data_is_dropped_and_journaled() {
        let (reg, schemas, data) = fixtures();
        let ctx = RuleCtx {
            registry: &reg,
            schemas: &schemas,
        };
        let stats = Statistics::default();
        let e = Expr::named("P").dup_elim();
        let mut journal = RewriteJournal::for_plan(0.0);
        let out = apply_property_rewrites_journaled(&e, &data, &stats, &ctx, &mut journal);
        assert_eq!(out, Expr::named("P"));
        assert_eq!(journal.steps.len(), 1);
        assert_eq!(journal.steps[0].rule, PROPERTY_RULE);
        assert!(journal.refused.is_empty());
    }

    #[test]
    fn without_data_the_same_de_survives() {
        let (reg, schemas, _) = fixtures();
        let ctx = RuleCtx {
            registry: &reg,
            schemas: &schemas,
        };
        let e = Expr::named("P").dup_elim();
        let out = apply_property_rewrites(
            &e,
            &excess_core::catalog::EmptyCatalog,
            &Statistics::default(),
            &ctx,
        );
        assert_eq!(out, e);
    }

    #[test]
    fn empty_union_branch_is_pruned() {
        let (reg, schemas, data) = fixtures();
        let ctx = RuleCtx {
            registry: &reg,
            schemas: &schemas,
        };
        // σ[1=2](P) ⊎ P — the left branch is provably empty.
        let dead = Expr::named("P").select(Pred::cmp(Expr::int(1), CmpOp::Eq, Expr::int(2)));
        let e = dead.add_union(Expr::named("P"));
        let out = apply_property_rewrites(&e, &data, &Statistics::default(), &ctx);
        assert_eq!(out, Expr::named("P"));
    }
}
