//! The rewrite engine's shared parts: the soundness gate, the rewrite
//! journal, neighbor enumeration, and the reference hill climb.
//!
//! The plan search itself is the memo (`crate::memo`).  What lives here is
//! what the memo and its tests share: [`soundness_violation`], the
//! [`RewriteJournal`], the whole-plan enumerators ([`Optimizer::neighbors_at`],
//! [`Optimizer::explore`]) that the rule-soundness suites evaluate plan by
//! plan, and [`Optimizer::optimize_greedy_journaled`] — a first-improving
//! hill climb that no serving path calls, kept as the reference the memo is
//! differentially tested and reported (`report` §D/§K) against.
//!
//! "The many-sortedness ensures that only a subset of the operators (and
//! thus of the transformation rules) will be applicable at any point during
//! query optimization" (Section 3.2) — rules here self-select by pattern
//! matching, which realises the same pruning: a rule over multisets simply
//! fails to match an array node.

use crate::cost::cost_of;
use crate::rule::{Rule, RuleCtx};
use crate::stats::Statistics;
use excess_core::expr::Expr;
use excess_core::infer::infer_closed;
use excess_core::profile::NodePath;
use excess_core::verify::{resolve_deep, verify};
use std::collections::HashSet;

/// The rule name under which extent-index substitutions are journaled —
/// the substitution phase is not a catalogue [`Rule`], but it goes through
/// the same soundness gate and journal as one.
pub const EXTENT_INDEX_RULE: &str = "extent-index-substitution";

/// Check whether replacing `before` with `after` is statically sound: the
/// deep-resolved inferred output schema must be unchanged and the rewrite
/// must not introduce any new error-severity diagnostic.  Returns a
/// human-readable reason when the rewrite must be refused, `None` when it
/// is sound.  Lints are deliberately not gated — rewrites routinely create
/// and destroy suspicious-but-legal shapes (that is what the lint
/// catalogue describes).
pub fn soundness_violation(before: &Expr, after: &Expr, ctx: &RuleCtx<'_>) -> Option<String> {
    match (
        infer_closed(before, ctx.schemas, ctx.registry),
        infer_closed(after, ctx.schemas, ctx.registry),
    ) {
        (Ok(tb), Ok(ta)) => {
            let (rb, ra) = (
                resolve_deep(&tb, ctx.registry),
                resolve_deep(&ta, ctx.registry),
            );
            if rb != ra {
                return Some(format!(
                    "rewrite changes the inferred output schema: {tb} → {ta}"
                ));
            }
        }
        (Ok(_), Err(e)) => {
            return Some(format!("rewrite breaks type inference: {e}"));
        }
        // An ill-typed starting plan cannot get *worse*; let the rewrite
        // through and leave the diagnostic check to catch regressions.
        (Err(_), _) => {}
    }
    let before_errs: HashSet<(&'static str, String)> = verify(before, ctx.schemas, ctx.registry)
        .errors()
        .map(|d| (d.code, d.message.clone()))
        .collect();
    for d in verify(after, ctx.schemas, ctx.registry).errors() {
        let key = (d.code, d.message.clone());
        if !before_errs.contains(&key) {
            return Some(format!("rewrite introduces a new diagnostic: {d}"));
        }
    }
    None
}

/// Engine configuration.
pub struct Optimizer {
    rules: Vec<Box<dyn Rule>>,
    /// Allow rules that are only sound modulo object identity (rule 28's
    /// `REF(DEREF(A)) → A`).
    pub allow_modulo_identity: bool,
    /// Allow rules stated for null-free data (the paper's own stance).
    pub allow_null_sensitive: bool,
    /// Exploration budget: maximum number of distinct plans enumerated
    /// (memo members, for the memo search).
    pub max_plans: usize,
}

impl Optimizer {
    /// The full catalogue with default settings.
    pub fn standard() -> Self {
        Self::with_rules(crate::rules::all())
    }

    /// An engine with a chosen rule set.
    pub fn with_rules(rules: Vec<Box<dyn Rule>>) -> Self {
        Optimizer {
            rules,
            allow_modulo_identity: true,
            allow_null_sensitive: true,
            max_plans: 512,
        }
    }

    fn rule_enabled(&self, r: &dyn Rule) -> bool {
        (self.allow_modulo_identity || !r.modulo_identity())
            && (self.allow_null_sensitive || !r.assumes_null_free())
    }

    /// The currently enabled rules, as the memo search consumes them.
    pub(crate) fn enabled_rules(&self) -> Vec<&dyn Rule> {
        self.rules
            .iter()
            .map(|r| r.as_ref())
            .filter(|r| self.rule_enabled(*r))
            .collect()
    }

    /// Single-step rewrites of `e` (at every position), tagged with the
    /// rule that produced each.
    pub fn neighbors(&self, e: &Expr, ctx: &RuleCtx<'_>) -> Vec<(&'static str, Expr)> {
        self.neighbors_at(e, ctx)
            .into_iter()
            .map(|n| (n.rule, n.plan))
            .collect()
    }

    /// [`Optimizer::neighbors`] with each rewrite tagged by the path of the
    /// node it fired at (child indices from the root, [`Expr::children`]
    /// order) — the position information the rewrite journal records.
    pub fn neighbors_at(&self, e: &Expr, ctx: &RuleCtx<'_>) -> Vec<Neighbor> {
        let mut out = Vec::new();
        let mut path = Vec::new();
        self.collect(e, ctx, &mut path, &mut |rule, path, rewritten| {
            out.push(Neighbor {
                rule,
                path,
                plan: rewritten,
            })
        });
        out
    }

    fn collect(
        &self,
        e: &Expr,
        ctx: &RuleCtx<'_>,
        path: &mut NodePath,
        sink: &mut dyn FnMut(&'static str, NodePath, Expr),
    ) {
        for r in &self.rules {
            if !self.rule_enabled(r.as_ref()) {
                continue;
            }
            for alt in r.apply(e, ctx) {
                sink(r.name(), path.clone(), alt);
            }
        }
        for (n, child) in e.children().into_iter().enumerate() {
            let mut child_alts: Vec<(&'static str, NodePath, Expr)> = Vec::new();
            path.push(n);
            self.collect(child, ctx, path, &mut |rule, at, alt| {
                child_alts.push((rule, at, alt))
            });
            path.pop();
            for (rule, at, alt) in child_alts {
                sink(rule, at, replace_nth_child(e, n, &alt));
            }
        }
    }

    /// Enumerate the plan space reachable from `e` (breadth-first, bounded
    /// by `max_plans`), including `e` itself.
    pub fn explore(&self, e: &Expr, ctx: &RuleCtx<'_>) -> Vec<Expr> {
        let mut seen: HashSet<Expr> = HashSet::new();
        let mut queue: Vec<Expr> = vec![e.clone()];
        seen.insert(e.clone());
        let mut i = 0;
        while i < queue.len() && seen.len() < self.max_plans {
            let cur = queue[i].clone();
            i += 1;
            for (_, alt) in self.neighbors(&cur, ctx) {
                if seen.len() >= self.max_plans {
                    break;
                }
                if seen.insert(alt.clone()) {
                    queue.push(alt);
                }
            }
        }
        queue
    }
}

/// The result of an optimization run.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The chosen plan.
    pub plan: Expr,
    /// Its estimated cost.
    pub cost: f64,
    /// Number of plans (or neighbor evaluations, for the hill climb) examined.
    pub explored: usize,
}

/// A single-step rewrite: the rule, the position it fired at, and the
/// whole-plan result.
#[derive(Debug, Clone)]
pub struct Neighbor {
    /// The rule that fired.
    pub rule: &'static str,
    /// Path of the node the rule fired at (empty = root).
    pub path: NodePath,
    /// The rewritten plan (with the rewrite spliced in at `path`).
    pub plan: Expr,
}

/// A rewrite the soundness gate turned down: the rule proposed a
/// cost-improving plan that changed the inferred output schema or
/// introduced a new error diagnostic (see [`soundness_violation`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RefusedStep {
    /// The rule whose proposal was refused.
    pub rule: &'static str,
    /// Path of the node the rule fired at (empty = root).
    pub path: NodePath,
    /// Why the gate refused it.
    pub reason: String,
}

/// One accepted rewrite in a [`RewriteJournal`].
#[derive(Debug, Clone)]
pub struct JournalStep {
    /// The rule that fired.
    pub rule: &'static str,
    /// Path of the node the rule fired at (empty = root).
    pub path: NodePath,
    /// Estimated cost before the step.
    pub cost_before: f64,
    /// Estimated cost after the step.
    pub cost_after: f64,
    /// The plan after the step.
    pub plan: Expr,
}

/// The full story of one optimization run: every rule firing with its
/// node position and cost delta, the enumeration effort against the
/// `max_plans` budget, and the best-cost trajectory.
#[derive(Debug, Clone)]
pub struct RewriteJournal {
    /// Accepted rewrites, in order.
    pub steps: Vec<JournalStep>,
    /// Cost-improving rewrites the soundness gate refused, in order of
    /// first refusal (each distinct (rule, path, reason) recorded once).
    pub refused: Vec<RefusedStep>,
    /// Neighbor plans enumerated (cost-model evaluations), including the
    /// starting plan.
    pub plans_enumerated: usize,
    /// The engine's exploration budget at the time of the run.
    pub max_plans: usize,
    /// Estimated cost of the starting plan.
    pub initial_cost: f64,
    /// Estimated cost of the final plan.
    pub final_cost: f64,
}

impl RewriteJournal {
    /// An empty journal over one plan of estimated cost `cost`: nothing
    /// accepted or refused yet, the starting plan the only one counted.
    pub fn for_plan(cost: f64) -> Self {
        RewriteJournal {
            steps: Vec::new(),
            refused: Vec::new(),
            plans_enumerated: 1,
            max_plans: 0,
            initial_cost: cost,
            final_cost: cost,
        }
    }

    /// Best cost after each accepted step, starting with the initial plan —
    /// the trajectory a cost-over-time plot wants.
    pub fn cost_trajectory(&self) -> Vec<f64> {
        let mut t = Vec::with_capacity(self.steps.len() + 1);
        t.push(self.initial_cost);
        t.extend(self.steps.iter().map(|s| s.cost_after));
        t
    }

    /// The names of the rules that fired, in order.
    pub fn rule_sequence(&self) -> Vec<&'static str> {
        self.steps.iter().map(|s| s.rule).collect()
    }
}

impl Optimizer {
    /// The reference hill climb: repeatedly take the first cost-improving
    /// neighbor (catalogue order, root before children) that passes the
    /// soundness gate, until none improves — "heuristics that are always
    /// beneficial" (Section 5).  Returns the full [`RewriteJournal`]: every
    /// accepted rule firing with the node path it fired at, every refusal,
    /// and the enumeration effort.
    ///
    /// Not a serving path: every query is planned by
    /// [`Optimizer::optimize_memo_journaled`].  This stays as the
    /// independent oracle `tests/memo_equivalence.rs` holds the memo to
    /// (memo cost ≤ this climb's, from the plan and from its `desugar()`)
    /// and as the whole-plan derivation `report` §D prints.
    pub fn optimize_greedy_journaled(
        &self,
        e: &Expr,
        ctx: &RuleCtx<'_>,
        stats: &Statistics,
    ) -> (Optimized, RewriteJournal) {
        let mut cur = e.clone();
        let mut cur_cost = cost_of(&cur, stats);
        let initial_cost = cur_cost;
        let mut explored = 1;
        let mut steps = Vec::new();
        let mut refused: Vec<RefusedStep> = Vec::new();
        let mut refused_seen: HashSet<(&'static str, NodePath, String)> = HashSet::new();
        loop {
            let mut improved = false;
            for n in self.neighbors_at(&cur, ctx) {
                explored += 1;
                let c = cost_of(&n.plan, stats);
                if c < cur_cost {
                    // Rewrite-soundness gate: re-verify the candidate and
                    // refuse (journaling the refusal) instead of accepting
                    // a schema-changing or diagnostic-introducing step.
                    if let Some(reason) = soundness_violation(&cur, &n.plan, ctx) {
                        if refused_seen.insert((n.rule, n.path.clone(), reason.clone())) {
                            refused.push(RefusedStep {
                                rule: n.rule,
                                path: n.path,
                                reason,
                            });
                        }
                        continue;
                    }
                    steps.push(JournalStep {
                        rule: n.rule,
                        path: n.path,
                        cost_before: cur_cost,
                        cost_after: c,
                        plan: n.plan.clone(),
                    });
                    cur = n.plan;
                    cur_cost = c;
                    improved = true;
                    break;
                }
            }
            if !improved {
                let journal = RewriteJournal {
                    steps,
                    refused,
                    plans_enumerated: explored,
                    max_plans: self.max_plans,
                    initial_cost,
                    final_cost: cur_cost,
                };
                return (
                    Optimized {
                        plan: cur,
                        cost: cur_cost,
                        explored,
                    },
                    journal,
                );
            }
        }
    }
}

/// Rebuild `e` with its `n`-th child (in [`Expr::children`] order) replaced.
pub fn replace_nth_child(e: &Expr, n: usize, new: &Expr) -> Expr {
    let mut i = 0usize;
    e.map_children(&mut |c| {
        let r = if i == n { new.clone() } else { c.clone() };
        i += 1;
        r
    })
}

/// Rewrite Section 4 type-filtered scans to use per-type extent indexes
/// where `stats` says one exists:
/// `SET_APPLY[T1/…;E](Named(P))` → `SET_APPLY[E](Named("P::exact::T1") ⊎ …)`
/// — the "need to scan P three times … disappears" move.  The catalog
/// (in `excess-db`) maintains the `P::exact::T` virtual objects.
pub fn apply_extent_indexes(e: &Expr, stats: &Statistics) -> Expr {
    let rebuilt = e.map_children(&mut |c| apply_extent_indexes(c, stats));
    if let Expr::SetApply {
        input,
        body,
        only_types: Some(ts),
    } = &rebuilt
    {
        if let Expr::Named(obj) = &**input {
            if !ts.is_empty() && ts.iter().all(|t| stats.has_extent_index(obj, t)) {
                let mut parts = ts.iter().map(|t| Expr::named(format!("{obj}::exact::{t}")));
                let first = parts.next().expect("non-empty");
                let unioned = parts.fold(first, |acc, p| acc.add_union(p));
                return Expr::SetApply {
                    input: Box::new(unioned),
                    body: body.clone(),
                    only_types: None,
                };
            }
        }
    }
    rebuilt
}

/// One extent-index substitution site: the node path of the matching
/// `SET_APPLY[T1/…;E](Named(P))` and the whole plan after substituting at
/// that site only, skipping sites in `skip` (preorder, first match wins).
fn substitute_one_extent(
    e: &Expr,
    stats: &Statistics,
    path: &mut NodePath,
    skip: &HashSet<NodePath>,
) -> Option<(NodePath, Expr)> {
    if let Expr::SetApply {
        input,
        body,
        only_types: Some(ts),
    } = e
    {
        if let Expr::Named(obj) = &**input {
            if !ts.is_empty()
                && ts.iter().all(|t| stats.has_extent_index(obj, t))
                && !skip.contains(path)
            {
                let mut parts = ts.iter().map(|t| Expr::named(format!("{obj}::exact::{t}")));
                let first = parts.next().expect("non-empty");
                let unioned = parts.fold(first, |acc, p| acc.add_union(p));
                let new = Expr::SetApply {
                    input: Box::new(unioned),
                    body: body.clone(),
                    only_types: None,
                };
                return Some((path.clone(), new));
            }
        }
    }
    for (n, child) in e.children().into_iter().enumerate() {
        path.push(n);
        let hit = substitute_one_extent(child, stats, path, skip);
        path.pop();
        if let Some((at, new_child)) = hit {
            return Some((at, replace_nth_child(e, n, &new_child)));
        }
    }
    None
}

/// [`apply_extent_indexes`] with the soundness gate and the rewrite
/// journal covering the substitution phase too: each site is rewritten one
/// at a time, re-verified, and either journaled as an accepted
/// [`JournalStep`] (rule [`EXTENT_INDEX_RULE`]) or refused — a substitution
/// whose extent objects are missing from the catalog, say, changes the
/// inferred schema and is rejected rather than silently producing a plan
/// that cannot evaluate.
pub fn apply_extent_indexes_journaled(
    e: &Expr,
    stats: &Statistics,
    ctx: &RuleCtx<'_>,
    journal: &mut RewriteJournal,
) -> Expr {
    let mut cur = e.clone();
    let mut skip: HashSet<NodePath> = HashSet::new();
    while let Some((path, next)) = substitute_one_extent(&cur, stats, &mut NodePath::new(), &skip) {
        // Substitution keeps node arity and positions intact, so refused
        // paths stay valid across later substitutions elsewhere.
        if let Some(reason) = soundness_violation(&cur, &next, ctx) {
            journal.refused.push(RefusedStep {
                rule: EXTENT_INDEX_RULE,
                path: path.clone(),
                reason,
            });
            skip.insert(path);
            continue;
        }
        let cost_before = cost_of(&cur, stats);
        let cost_after = cost_of(&next, stats);
        journal.steps.push(JournalStep {
            rule: EXTENT_INDEX_RULE,
            path,
            cost_before,
            cost_after,
            plan: next.clone(),
        });
        journal.final_cost = cost_after;
        journal.plans_enumerated += 1;
        cur = next;
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use excess_core::expr::Pred;
    use excess_core::infer::SchemaCatalog;
    use excess_types::{SchemaType, TypeRegistry};
    use std::collections::HashMap;

    fn ctx_fixtures() -> (TypeRegistry, HashMap<String, SchemaType>) {
        let mut reg = TypeRegistry::new();
        reg.define(
            "Emp",
            SchemaType::tuple([("name", SchemaType::chars()), ("floor", SchemaType::int4())]),
        )
        .unwrap();
        let mut schemas = HashMap::new();
        schemas.insert("S".to_string(), SchemaType::set(SchemaType::named("Emp")));
        (reg, schemas)
    }

    fn ctx<'a>(reg: &'a TypeRegistry, schemas: &'a HashMap<String, SchemaType>) -> RuleCtx<'a> {
        RuleCtx {
            registry: reg,
            schemas,
        }
    }

    #[test]
    fn neighbors_fire_at_nested_positions() {
        let (reg, schemas) = ctx_fixtures();
        let opt = Optimizer::standard();
        // DE nested under a SET: DE(DE(S)) inside MakeSet.
        let e = Expr::named("S").dup_elim().dup_elim().make_set();
        let ns = opt.neighbors(&e, &ctx(&reg, &schemas));
        assert!(ns.iter().any(
            |(r, p)| *r == "rel4-de-idempotent" && *p == Expr::named("S").dup_elim().make_set()
        ));
    }

    #[test]
    fn neighbors_at_reports_firing_positions() {
        let (reg, schemas) = ctx_fixtures();
        let opt = Optimizer::standard();
        // DE(DE(S)) inside MakeSet: the idempotence rule fires at the
        // outer DE, which is child 0 of the root SET node.
        let e = Expr::named("S").dup_elim().dup_elim().make_set();
        let ns = opt.neighbors_at(&e, &ctx(&reg, &schemas));
        let hit = ns
            .iter()
            .find(|n| {
                n.rule == "rel4-de-idempotent" && n.plan == Expr::named("S").dup_elim().make_set()
            })
            .expect("idempotence rewrite offered");
        assert_eq!(hit.path, vec![0]);
    }

    #[test]
    fn journal_records_rules_paths_and_costs() {
        let (reg, schemas) = ctx_fixtures();
        let opt = Optimizer::standard();
        let stats = Statistics::new();
        let e = Expr::named("S")
            .set_apply(Expr::input().extract("name"))
            .set_apply(Expr::input().make_tup("n"));
        let (best, journal) = opt.optimize_greedy_journaled(&e, &ctx(&reg, &schemas), &stats);
        assert!(!journal.steps.is_empty());
        assert!(journal
            .rule_sequence()
            .contains(&"rule15-combine-set-applys"));
        assert_eq!(journal.initial_cost, journal.steps[0].cost_before);
        assert_eq!(journal.final_cost, best.cost);
        assert_eq!(journal.plans_enumerated, best.explored);
        assert_eq!(journal.max_plans, opt.max_plans);
        // Trajectory: initial cost, then strictly decreasing accepted costs.
        let traj = journal.cost_trajectory();
        assert_eq!(traj.len(), journal.steps.len() + 1);
        assert!(traj.windows(2).all(|w| w[1] < w[0]));
        assert_eq!(journal.steps.last().unwrap().plan, best.plan);
    }

    #[test]
    fn explore_is_bounded_and_contains_original() {
        let (reg, schemas) = ctx_fixtures();
        let mut opt = Optimizer::standard();
        opt.max_plans = 16;
        let pred = Pred::eq(Expr::input().extract("floor"), Expr::int(5));
        let e = Expr::named("S").select(pred.clone()).select(pred);
        let plans = opt.explore(&e, &ctx(&reg, &schemas));
        assert!(plans.len() <= 16);
        assert!(plans.contains(&e));
    }

    #[test]
    fn extent_index_rewrite() {
        let mut stats = Statistics::new();
        stats.add_extent_index("P", "Student");
        stats.add_extent_index("P", "Person");
        let e =
            Expr::named("P").set_apply_only(["Person", "Student"], Expr::input().extract("name"));
        let rewritten = apply_extent_indexes(&e, &stats);
        let expected = Expr::named("P::exact::Person")
            .add_union(Expr::named("P::exact::Student"))
            .set_apply(Expr::input().extract("name"));
        assert_eq!(rewritten, expected);
        // Without the index nothing changes.
        let none = apply_extent_indexes(&e, &Statistics::new());
        assert_eq!(none, e);
    }

    #[test]
    fn with_no_rules_nothing_rewrites() {
        let (reg, schemas) = ctx_fixtures();
        let opt = Optimizer::with_rules(vec![]);
        let e = Expr::named("S").dup_elim().dup_elim();
        assert!(opt.neighbors(&e, &ctx(&reg, &schemas)).is_empty());
        let best = opt.optimize_memo(&e, &ctx(&reg, &schemas), &Statistics::new());
        assert_eq!(best.plan, e);
        assert_eq!(best.explored, 1);
    }

    #[test]
    fn disabling_rule_classes_prunes_neighbors() {
        let (reg, schemas) = ctx_fixtures();
        let mut opt = Optimizer::standard();
        let e = Expr::named("S").make_ref("Emp").deref();
        let with = opt.neighbors(&e, &ctx(&reg, &schemas)).len();
        opt.allow_modulo_identity = false;
        let without = opt.neighbors(&e, &ctx(&reg, &schemas)).len();
        // rule28 (modulo-identity) is excluded; rule28a (sound) remains.
        assert!(without < with, "{without} vs {with}");
        assert!(without >= 1);
    }

    #[test]
    fn schema_catalog_is_object_safe() {
        let (_, schemas) = ctx_fixtures();
        let dynref: &dyn SchemaCatalog = &schemas;
        assert!(dynref.object_schema("S").is_some());
    }
}
