//! Cascades-style memoized plan search over the rule catalogue.
//!
//! The one plan search.  A hill climb
//! ([`Optimizer::optimize_greedy_journaled`], kept as the reference the
//! differential tests compare against) walks the catalogue in a fixed
//! order and keeps only cost-improving steps, so it finds the paper's
//! Figure 6 → Figure 8 derivation partly by luck: the DE-through-GROUP
//! push must happen to be the first improving neighbor.  The memo search
//! removes the luck.  Every logical subtree is interned
//! into a *group* (structural hashing modulo group references — two
//! subtrees land in the same group exactly when their root operators match
//! and their children are, recursively, the same groups), rules fire at
//! group roots regardless of whether they improve cost, sound alternatives
//! accumulate as extra members, and the cheapest plan is extracted by a
//! bottom-up group-costing fixpoint.  The soundness gate and rewrite
//! journal carry over per group: each candidate is re-verified against the
//! member it was derived from (one `verify` walk per side: output schema,
//! then new errors),
//! and refusals are journaled exactly as in the reference pass
//! (deduplicated per rule/group/reason, with the group id standing in for
//! the node path).
//!
//! Two details of the round loop are load-bearing (each has a named case
//! in `tests/memo_equivalence.rs` that loses to the hill climb without it):
//!
//! * alternatives are deduplicated **per group** — an alternative that
//!   another group already produced must still be interned here, because
//!   that is exactly the event that merges the two groups;
//! * a member is matched against **every member of each child group**, one
//!   level deep (one child varied at a time, the others at their current
//!   best), not only against the children's current best — children are
//!   visited first, so by the time a parent fires, a child's best may have
//!   lost the shape the parent's rule needs.
//!
//! Group invariants:
//!
//! * every member of a group, reconstructed with any choice of member for
//!   each child group, denotes the same value as the group's exemplar
//!   (enforced by the soundness gate at insertion);
//! * a group's `best_cost` never increases, and after the costing
//!   fixpoint it equals the cheapest reconstruction reachable from its
//!   members with best children;
//! * merged groups forward to their union-find root; member keys always
//!   store canonical (root) child ids at creation time.
//!
//! The plan's `desugar()` is interned into the root group as a second
//! start, so that rules matching only primitive shapes see them — unless
//! the cost model prices it above the plan, as it does a join of two
//! stored extents (σ over their materialised cross product).  That start
//! was three quarters of the search for each served join and never held
//! its winner; `tests/memo_equivalence.rs` still holds every battery plan
//! to the climb from both starts.
//!
//! Subtree-level verification is weaker than whole-plan verification —
//! an open subtree (free [`Expr::Input`]s) loses its schema wherever an
//! unbound `INPUT` feeds it, and the gate deliberately lets a *before*
//! plan without a schema through — so the
//! extracted winner is re-gated against the original whole plan; a
//! violation there is journaled under [`MEMO_EXTRACT_RULE`] and the search
//! falls back to the cheapest sound whole-plan candidate.

use crate::cost::{cost_of, estimate};
use crate::engine::{
    soundness_violation, JournalStep, Optimized, Optimizer, RefusedStep, RewriteJournal,
};
use crate::rule::RuleCtx;
use crate::stats::Statistics;
use excess_core::expr::Expr;
use std::collections::{HashMap, HashSet};

/// The journal rule name for the final whole-plan gate on the extracted
/// winner (only ever appears in `refused` — extraction itself is not a
/// rewrite).
pub const MEMO_EXTRACT_RULE: &str = "memo-extract";

/// Exploration rounds: each round binds every member against its child
/// groups' members and fires the catalogue once at each new binding.
const MAX_ROUNDS: usize = 6;

/// A member: the node's operator skeleton (children replaced by a fixed
/// placeholder) plus the canonical ids of the child groups, in
/// [`Expr::children`] order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct MemberKey {
    skeleton: Expr,
    children: Vec<usize>,
}

/// The placeholder spliced in for children when hashing a node's skeleton.
/// De Bruijn indices this deep cannot occur in real plans.
const PLACEHOLDER: Expr = Expr::Input(usize::MAX);

fn skeleton_of(e: &Expr) -> Expr {
    e.map_children(&mut |_| PLACEHOLDER)
}

struct Group {
    /// The concrete expression that created the group — the initial best,
    /// and what `.memo` labels the group with.
    exemplar: Expr,
    members: Vec<MemberKey>,
    best_expr: Expr,
    best_cost: f64,
    /// Estimated output rows, derived once from the exemplar.
    est_rows: f64,
    /// Bindings the catalogue has already been applied to here, so a
    /// round only pays for what the previous one changed (the last round
    /// is all repeats).
    fired: HashSet<Expr>,
    /// Alternatives already put to the gate here.  Per group on purpose:
    /// an alternative some *other* group produced must still be interned
    /// into this one, since that is what merges the two.
    gated: HashSet<Expr>,
}

/// The memo: groups of structurally-equal-modulo-groups subtrees, with a
/// union-find over group ids so a rewrite landing in an existing group
/// merges rather than forks.
struct Memo {
    groups: Vec<Group>,
    parent: Vec<usize>,
    index: HashMap<MemberKey, usize>,
    total_members: usize,
}

impl Memo {
    fn new() -> Self {
        Memo {
            groups: Vec::new(),
            parent: Vec::new(),
            index: HashMap::new(),
            total_members: 0,
        }
    }

    fn find(&self, mut g: usize) -> usize {
        while self.parent[g] != g {
            g = self.parent[g];
        }
        g
    }

    /// Intern `e` (recursively — every subtree becomes a group) and return
    /// its canonical group id.  A group's estimate is derived once, at
    /// creation, from the cost model.
    fn intern(&mut self, e: &Expr, stats: &Statistics) -> usize {
        let children: Vec<usize> = e
            .children()
            .into_iter()
            .map(|c| self.intern(c, stats))
            .collect();
        let key = MemberKey {
            skeleton: skeleton_of(e),
            children,
        };
        if let Some(&g) = self.index.get(&key) {
            return self.find(g);
        }
        let id = self.groups.len();
        let est = estimate(e, &mut Vec::new(), stats);
        self.groups.push(Group {
            exemplar: e.clone(),
            members: vec![key.clone()],
            best_expr: e.clone(),
            best_cost: est.cost,
            est_rows: est.rows,
            fired: HashSet::new(),
            gated: HashSet::new(),
        });
        self.parent.push(id);
        self.index.insert(key, id);
        self.total_members += 1;
        id
    }

    /// Intern `e` and merge its group with `g` — how an accepted rewrite
    /// of a member of `g` records that both denote the same value.
    fn intern_into(&mut self, e: &Expr, g: usize, stats: &Statistics) -> usize {
        let ge = self.intern(e, stats);
        self.union(g, ge)
    }

    fn union(&mut self, a: usize, b: usize) -> usize {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return ra;
        }
        // Keep the older id: the root group stays group 0 forever.
        let (keep, drop) = if ra < rb { (ra, rb) } else { (rb, ra) };
        let moved = std::mem::take(&mut self.groups[drop].members);
        for m in moved {
            if !self.groups[keep].members.contains(&m) {
                self.groups[keep].members.push(m);
            }
        }
        let (fired, gated) = (
            std::mem::take(&mut self.groups[drop].fired),
            std::mem::take(&mut self.groups[drop].gated),
        );
        self.groups[keep].fired.extend(fired);
        self.groups[keep].gated.extend(gated);
        if self.groups[drop].best_cost < self.groups[keep].best_cost {
            self.groups[keep].best_cost = self.groups[drop].best_cost;
            self.groups[keep].best_expr = self.groups[drop].best_expr.clone();
        }
        self.parent[drop] = keep;
        keep
    }

    fn live_groups(&self) -> Vec<usize> {
        (0..self.groups.len())
            .filter(|&g| self.find(g) == g)
            .collect()
    }

    /// Rebuild a member into a concrete expression: child `n` (when given)
    /// replaced by `alt`, every other child its group's current best.
    fn rebuild(&self, key: &MemberKey, vary: Option<(usize, &Expr)>) -> Expr {
        let mut i = 0usize;
        key.skeleton.map_children(&mut |_| {
            let child = match vary {
                Some((n, alt)) if n == i => alt.clone(),
                _ => self.groups[self.find(key.children[i])].best_expr.clone(),
            };
            i += 1;
            child
        })
    }

    /// Rebuild a member using each child group's current best.
    fn reconstruct(&self, key: &MemberKey) -> Expr {
        self.rebuild(key, None)
    }

    /// The expressions rules are matched against for one member: its
    /// reconstruction with best children first, then — one child position
    /// at a time — every other shape that child's group holds.  One level
    /// deep: the varied child's own children are at their best.
    fn bindings(&self, key: &MemberKey) -> Vec<Expr> {
        let mut out = vec![self.reconstruct(key)];
        for (n, &c) in key.children.iter().enumerate() {
            let child = &self.groups[self.find(c)];
            if child.members.len() < 2 {
                continue;
            }
            for m in &child.members {
                let alt = self.reconstruct(m);
                if alt != child.best_expr {
                    out.push(self.rebuild(key, Some((n, &alt))));
                }
            }
        }
        out
    }

    /// Bottom-up group costing: repeatedly re-reconstruct every member
    /// with best children and keep any strict improvement, until no
    /// group's best changes.  Costs only ever decrease, so this
    /// terminates; the pass cap is a safety net.
    fn cost_fixpoint(&mut self, stats: &Statistics) {
        for _ in 0..64 {
            let mut changed = false;
            for g in self.live_groups() {
                let mut best_cost = self.groups[g].best_cost;
                let mut best_expr: Option<Expr> = None;
                for key in &self.groups[g].members {
                    let cand = self.reconstruct(key);
                    let c = cost_of(&cand, stats);
                    if c + 1e-9 < best_cost {
                        best_cost = c;
                        best_expr = Some(cand);
                    }
                }
                if let Some(e) = best_expr {
                    self.groups[g].best_cost = best_cost;
                    self.groups[g].best_expr = e;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }
}

/// One group in a [`MemoSnapshot`].
#[derive(Debug, Clone)]
pub struct GroupSummary {
    /// Canonical group id.
    pub id: usize,
    /// The expression that created the group; [`MemoSnapshot::render`]
    /// derives the operator label from it.
    pub exemplar: Expr,
    /// Number of distinct members (alternative shapes).
    pub members: usize,
    /// Cheapest reconstruction cost after the fixpoint.
    pub best_cost: f64,
    /// Estimated output rows (derived once from the exemplar).
    pub est_rows: f64,
}

/// The picture of one memo run — what the server's `.memo` command
/// shows for the last optimized query.  Numbers are taken as the search
/// ends; every piece of text is derived in [`MemoSnapshot::render`], so a
/// request that nobody inspects pays for none of it.
#[derive(Debug, Clone)]
pub struct MemoSnapshot {
    /// Live (unmerged) groups, root first.
    pub groups: Vec<GroupSummary>,
    /// Total members across all groups.
    pub members: usize,
    /// Exploration rounds run.
    pub rounds: usize,
    /// Cost of the original plan.
    pub initial_cost: f64,
    /// Cost of the extracted winner.
    pub winner_cost: f64,
    /// The extracted winner.
    pub winner: Expr,
}

impl MemoSnapshot {
    /// Multi-line human rendering (`.memo`'s text): per group
    /// the exemplar's root operator (the leading token of its debug form —
    /// `SetApply`, `RelJoin`, `Named`, …) and the numbers.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "memo: {} groups, {} members, {} rounds\n",
            self.groups.len(),
            self.members,
            self.rounds,
        ));
        for g in &self.groups {
            let debug = format!("{:?}", skeleton_of(&g.exemplar));
            out.push_str(&format!(
                "  g{}: {} ({} member{}), best cost {:.1}, est rows {:.1}\n",
                g.id,
                debug.split(['(', ' ', '{']).next().unwrap_or("?"),
                g.members,
                if g.members == 1 { "" } else { "s" },
                g.best_cost,
                g.est_rows
            ));
        }
        out.push_str(&format!(
            "winner: cost {:.1} (initial {:.1})\n  {}",
            self.winner_cost, self.initial_cost, self.winner
        ));
        out
    }
}

/// The result of a memo run: the chosen plan, the rewrite journal
/// (accepted per-group rule firings and gate refusals), and the snapshot
/// for `.memo`.
#[derive(Debug, Clone)]
pub struct MemoRun {
    /// The journal, shaped exactly like the reference journal (paths hold
    /// the group id a rule fired in).
    pub journal: RewriteJournal,
    /// The group picture for rendering.
    pub snapshot: MemoSnapshot,
}

impl Optimizer {
    /// Memoized plan search: intern the plan into groups, fire the
    /// catalogue at every group root for a bounded number of rounds (soundness
    /// gate per candidate, refusals journaled), and extract the cheapest
    /// plan by bottom-up group costing.
    pub fn optimize_memo(&self, e: &Expr, ctx: &RuleCtx<'_>, stats: &Statistics) -> Optimized {
        self.optimize_memo_journaled(e, ctx, stats).0
    }

    /// [`Optimizer::optimize_memo`] with the full journal and memo
    /// snapshot.
    pub fn optimize_memo_journaled(
        &self,
        e: &Expr,
        ctx: &RuleCtx<'_>,
        stats: &Statistics,
    ) -> (Optimized, MemoRun) {
        let initial_cost = cost_of(e, stats);
        let mut memo = Memo::new();
        let root = memo.intern(e, stats);
        let mut steps: Vec<JournalStep> = Vec::new();
        let mut refused: Vec<RefusedStep> = Vec::new();
        let mut refused_seen: HashSet<(&'static str, usize, String)> = HashSet::new();
        let mut explored = 1usize;

        // Whole-plan candidates: always sound to compare against the
        // original as complete plans (no free inputs), so they back the
        // final extraction.  Order matters only for ties.
        let mut whole: Vec<Expr> = vec![e.clone()];

        // A desugared start priced above the plan is not explored (see
        // the module docs).
        let desugared = e.desugar();
        if desugared != *e
            && cost_of(&desugared, stats) <= initial_cost
            && soundness_violation(e, &desugared, ctx).is_none()
        {
            memo.intern_into(&desugared, root, stats);
            whole.push(desugared);
            explored += 1;
        }

        memo.cost_fixpoint(stats);

        let mut rounds = 0usize;
        let rules = self.enabled_rules();
        'search: while rounds < MAX_ROUNDS {
            rounds += 1;
            let mut grew = false;
            for g in memo.live_groups() {
                // Members appended this round are bound next round;
                // iterate a stable snapshot of the current ones.
                let n_members = memo.groups[g].members.len();
                for mi in 0..n_members {
                    if memo.total_members >= self.max_plans {
                        break 'search;
                    }
                    // A rewrite elsewhere may have merged this group away
                    // (its members move to the union-find root, which a
                    // later round revisits).
                    if memo.find(g) != g || mi >= memo.groups[g].members.len() {
                        break;
                    }
                    let key = memo.groups[g].members[mi].clone();
                    for cur in memo.bindings(&key) {
                        if memo.find(g) != g {
                            break;
                        }
                        if memo.groups[g].fired.contains(&cur) {
                            continue;
                        }
                        memo.groups[g].fired.insert(cur.clone());
                        let mut cur_cost = None;
                        for r in &rules {
                            for alt in r.apply(&cur, ctx) {
                                explored += 1;
                                if memo.groups[g].gated.contains(&alt) {
                                    continue;
                                }
                                memo.groups[g].gated.insert(alt.clone());
                                if let Some(reason) = soundness_violation(&cur, &alt, ctx) {
                                    if refused_seen.insert((r.name(), g, reason.clone())) {
                                        refused.push(RefusedStep {
                                            rule: r.name(),
                                            path: vec![g],
                                            reason,
                                        });
                                    }
                                    continue;
                                }
                                steps.push(JournalStep {
                                    rule: r.name(),
                                    path: vec![g],
                                    cost_before: *cur_cost
                                        .get_or_insert_with(|| cost_of(&cur, stats)),
                                    cost_after: cost_of(&alt, stats),
                                    plan: alt.clone(),
                                });
                                memo.intern_into(&alt, g, stats);
                                grew = true;
                            }
                        }
                    }
                }
            }
            memo.cost_fixpoint(stats);
            if !grew {
                break;
            }
        }
        memo.cost_fixpoint(stats);

        // Extraction: the root group's best, backed by the whole-plan
        // candidates.  Strictly-lower cost wins; ties keep the earlier
        // candidate (the original plan first).
        let root = memo.find(root);
        let mut candidates: Vec<(Expr, f64)> = Vec::with_capacity(whole.len() + 1);
        for w in whole {
            let c = cost_of(&w, stats);
            candidates.push((w, c));
        }
        candidates.push((
            memo.groups[root].best_expr.clone(),
            memo.groups[root].best_cost,
        ));
        candidates.sort_by(|a, b| a.1.total_cmp(&b.1));
        // Final whole-plan gate: subtree-level soundness cannot always see
        // through open subtrees, so re-verify the winner end to end.
        let (mut best, mut best_cost) = (e.clone(), initial_cost);
        for (cand, c) in candidates {
            if c >= best_cost {
                break;
            }
            if let Some(reason) = soundness_violation(e, &cand, ctx) {
                if refused_seen.insert((MEMO_EXTRACT_RULE, root, reason.clone())) {
                    refused.push(RefusedStep {
                        rule: MEMO_EXTRACT_RULE,
                        path: Vec::new(),
                        reason,
                    });
                }
                continue;
            }
            best = cand;
            best_cost = c;
            break;
        }

        let live = memo.live_groups();
        let snapshot = MemoSnapshot {
            members: memo.total_members,
            groups: live
                .into_iter()
                .map(|g| {
                    let gr = &mut memo.groups[g];
                    GroupSummary {
                        id: g,
                        exemplar: std::mem::replace(&mut gr.exemplar, PLACEHOLDER),
                        members: gr.members.len(),
                        best_cost: gr.best_cost,
                        est_rows: gr.est_rows,
                    }
                })
                .collect(),
            rounds,
            initial_cost,
            winner_cost: best_cost,
            winner: best.clone(),
        };
        let journal = RewriteJournal {
            steps,
            refused,
            plans_enumerated: explored,
            max_plans: self.max_plans,
            initial_cost,
            final_cost: best_cost,
        };
        (
            Optimized {
                plan: best,
                cost: best_cost,
                explored,
            },
            MemoRun { journal, snapshot },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::RuleCtx;
    use excess_core::expr::Pred;
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
    fn memo_fuses_set_applys() {
        let (reg, schemas) = ctx_fixtures();
        let opt = Optimizer::standard();
        let stats = Statistics::new();
        let e = Expr::named("S")
            .set_apply(Expr::input().extract("name"))
            .set_apply(Expr::input().make_tup("n"));
        let (best, run) = opt.optimize_memo_journaled(&e, &ctx(&reg, &schemas), &stats);
        assert_eq!(
            best.plan,
            Expr::named("S").set_apply(Expr::input().extract("name").make_tup("n"))
        );
        assert!(run
            .journal
            .rule_sequence()
            .contains(&"rule15-combine-set-applys"));
    }

    #[test]
    fn memo_never_costs_more_than_the_reference_climb() {
        let (reg, schemas) = ctx_fixtures();
        let opt = Optimizer::standard();
        let stats = Statistics::new();
        let pred = Pred::eq(Expr::input().extract("floor"), Expr::int(5));
        let plans = [
            Expr::named("S").dup_elim().dup_elim().make_set(),
            Expr::named("S")
                .select(pred.clone())
                .select(pred)
                .set_apply(Expr::input().extract("name")),
            Expr::named("S")
                .set_apply(Expr::input().extract("name"))
                .set_apply(Expr::input().make_tup("n"))
                .dup_elim(),
        ];
        for e in plans {
            let rctx = ctx(&reg, &schemas);
            let (greedy, _) = opt.optimize_greedy_journaled(&e, &rctx, &stats);
            let memo = opt.optimize_memo(&e, &rctx, &stats);
            assert!(
                memo.cost <= greedy.cost + 1e-9,
                "memo {} > greedy {} on {e:?}",
                memo.cost,
                greedy.cost
            );
        }
    }

    #[test]
    fn snapshot_groups_cover_every_subtree() {
        let (reg, schemas) = ctx_fixtures();
        let opt = Optimizer::standard();
        let stats = Statistics::new();
        let e = Expr::named("S").dup_elim().make_set();
        let (_, run) = opt.optimize_memo_journaled(&e, &ctx(&reg, &schemas), &stats);
        // At least Named(S), DE, SET — rewrites may merge some.
        assert!(run.snapshot.groups.len() >= 2, "{:?}", run.snapshot.groups);
        assert!(run.snapshot.members >= run.snapshot.groups.len());
        let rendered = run.snapshot.render();
        assert!(rendered.contains("memo:"), "{rendered}");
        assert!(rendered.contains("winner:"), "{rendered}");
    }

    #[test]
    fn journal_shape_matches_reference_conventions() {
        let (reg, schemas) = ctx_fixtures();
        let opt = Optimizer::standard();
        let stats = Statistics::new();
        let e = Expr::named("S")
            .set_apply(Expr::input().extract("name"))
            .set_apply(Expr::input().make_tup("n"));
        let (best, run) = opt.optimize_memo_journaled(&e, &ctx(&reg, &schemas), &stats);
        let j = &run.journal;
        assert_eq!(j.final_cost, best.cost);
        assert_eq!(j.plans_enumerated, best.explored);
        assert!(j.initial_cost >= j.final_cost);
        assert!(j.max_plans == opt.max_plans);
    }

    #[test]
    fn memo_respects_the_member_budget() {
        let (reg, schemas) = ctx_fixtures();
        let mut opt = Optimizer::standard();
        opt.max_plans = 8;
        let stats = Statistics::new();
        let pred = Pred::eq(Expr::input().extract("floor"), Expr::int(5));
        let e = Expr::named("S").select(pred.clone()).select(pred);
        let (_, run) = opt.optimize_memo_journaled(&e, &ctx(&reg, &schemas), &stats);
        assert!(run.snapshot.members <= 8 + 1, "{}", run.snapshot.members);
    }
}
