//! Cascades-style memoized plan search over the rule catalogue.
//!
//! The greedy pass ([`Optimizer::optimize_greedy_journaled`]) walks the
//! catalogue in a fixed order and keeps only cost-improving steps, so it
//! finds the paper's Figure 6 → Figure 8 derivation partly by luck: the
//! DE-through-GROUP push must happen to be the first improving neighbor.
//! The memo search removes the luck.  Every logical subtree is interned
//! into a *group* (structural hashing modulo group references — two
//! subtrees land in the same group exactly when their root operators match
//! and their children are, recursively, the same groups), rules fire at
//! group roots regardless of whether they improve cost, sound alternatives
//! accumulate as extra members, and the cheapest plan is extracted by a
//! bottom-up group-costing fixpoint.  The soundness gate and rewrite
//! journal carry over per group: each candidate is re-verified against the
//! member it was derived from, and refusals are journaled exactly as in
//! the greedy pass (deduplicated per rule/group/reason, with the group id
//! standing in for the node path).
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
//! Subtree-level verification is weaker than whole-plan verification —
//! `infer_closed` cannot type an open subtree (free [`Expr::Input`]s), and
//! the gate deliberately lets ill-typed *before* plans through — so the
//! extracted winner is re-gated against the original whole plan; a
//! violation there is journaled under [`MEMO_EXTRACT_RULE`] and the search
//! falls back to the cheapest sound whole-plan candidate.

use crate::cost::{cost_of, estimate, Estimate};
use crate::engine::{
    soundness_violation, JournalStep, Optimized, Optimizer, RefusedStep, RewriteJournal,
};
use crate::rule::RuleCtx;
use crate::stats::Statistics;
use excess_core::analysis;
use excess_core::catalog::EmptyCatalog;
use excess_core::expr::Expr;
use std::collections::{HashMap, HashSet};

/// The journal rule name for the final whole-plan gate on the extracted
/// winner (only ever appears in `refused` — extraction itself is not a
/// rewrite).
pub const MEMO_EXTRACT_RULE: &str = "memo-extract";

/// The journal rule name under which a feedback-driven re-optimization is
/// recorded (the step's `plan` is the re-optimized logical plan).
pub const REOPTIMIZE_RULE: &str = "reoptimize";

/// Environment variable selecting the plan-search strategy.
pub const OPTIMIZER_ENV: &str = "EXCESS_OPTIMIZER";

/// Exploration rounds: each round reconstructs every member with the
/// current best children and fires the catalogue once at each group root.
const MAX_ROUNDS: usize = 6;

/// Which plan-search strategy the pipeline should run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptimizerMode {
    /// Memoized group search (the default).
    #[default]
    Memo,
    /// The legacy greedy hill-climbing pass, kept for differential
    /// testing.
    Greedy,
}

impl OptimizerMode {
    /// Parse a setting string (the value of [`OPTIMIZER_ENV`]).  Returns
    /// the mode plus a warning when the value was not recognized (the
    /// default mode is used in that case).
    pub fn from_setting(setting: Option<&str>) -> (Self, Option<String>) {
        match setting.map(str::trim) {
            None | Some("") | Some("memo") => (OptimizerMode::Memo, None),
            Some("greedy") => (OptimizerMode::Greedy, None),
            Some(other) => (
                OptimizerMode::Memo,
                Some(format!(
                    "{OPTIMIZER_ENV}={other:?} not recognized (expected `memo` or `greedy`); \
                     using memo"
                )),
            ),
        }
    }

    /// [`OptimizerMode::from_setting`] on the process environment.
    pub fn from_env() -> (Self, Option<String>) {
        Self::from_setting(std::env::var(OPTIMIZER_ENV).ok().as_deref())
    }
}

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

/// The leading token of an expression's debug form — a compact operator
/// label for group summaries (`SetApply`, `RelJoin`, `Named`, …).
fn op_label(e: &Expr) -> String {
    let d = format!("{e:?}");
    d.split(['(', ' ', '{']).next().unwrap_or("?").to_string()
}

struct Group {
    /// The concrete expression that created the group — used for one-time
    /// property/estimate derivation and as the initial best.
    exemplar: Expr,
    members: Vec<MemberKey>,
    best_expr: Expr,
    best_cost: f64,
    est: Estimate,
    props: String,
}

/// The memo: groups of structurally-equal-modulo-groups subtrees, with a
/// union-find over group ids so a rewrite landing in an existing group
/// merges rather than forks.
pub struct Memo {
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
    /// its canonical group id.  Per-group properties and estimates are
    /// derived once, at group creation: the estimate via the cost model,
    /// the properties via the data-free `excess_core::analysis` pass.
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
        let props = analysis::analyze(e, &EmptyCatalog)
            .props_at(&[])
            .map(|p| p.render())
            .unwrap_or_default();
        self.groups.push(Group {
            exemplar: e.clone(),
            members: vec![key.clone()],
            best_expr: e.clone(),
            best_cost: cost_of(e, stats),
            est,
            props,
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

    /// Rebuild a member into a concrete expression using each child
    /// group's current best.
    fn reconstruct(&self, key: &MemberKey) -> Expr {
        let mut i = 0usize;
        key.skeleton.map_children(&mut |_| {
            let g = self.find(key.children[i]);
            i += 1;
            self.groups[g].best_expr.clone()
        })
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
    /// Root operator of the group's exemplar.
    pub op: String,
    /// Number of distinct members (alternative shapes).
    pub members: usize,
    /// Cheapest reconstruction cost after the fixpoint.
    pub best_cost: f64,
    /// Estimated output rows (derived once from the exemplar).
    pub est_rows: f64,
    /// Data-free property analysis one-liner for the exemplar.
    pub props: String,
}

/// A rendered picture of one memo run — what the REPL/server `.memo`
/// command shows for the last optimized query.
#[derive(Debug, Clone)]
pub struct MemoSnapshot {
    /// Live (unmerged) groups, root first.
    pub groups: Vec<GroupSummary>,
    /// Total members across all groups.
    pub members: usize,
    /// Exploration rounds run.
    pub rounds: usize,
    /// Whether the greedy trajectory seeded the root group.
    pub seeded: bool,
    /// Cost of the original plan.
    pub initial_cost: f64,
    /// Cost of the extracted winner.
    pub winner_cost: f64,
    /// The extracted winner, rendered.
    pub winner: String,
}

impl MemoSnapshot {
    /// Multi-line human rendering (the REPL's `.memo` output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "memo: {} groups, {} members, {} rounds{}\n",
            self.groups.len(),
            self.members,
            self.rounds,
            if self.seeded { ", greedy-seeded" } else { "" }
        ));
        for g in &self.groups {
            out.push_str(&format!(
                "  g{}: {} ({} member{}), best cost {:.1}, est rows {:.1}",
                g.id,
                g.op,
                g.members,
                if g.members == 1 { "" } else { "s" },
                g.best_cost,
                g.est_rows
            ));
            if !g.props.is_empty() {
                out.push_str(&format!(" — {}", g.props));
            }
            out.push('\n');
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
    /// The journal, shaped exactly like the greedy journal (paths hold the
    /// group id a rule fired in).
    pub journal: RewriteJournal,
    /// The group picture for rendering.
    pub snapshot: MemoSnapshot,
}

impl Optimizer {
    /// Memoized plan search: intern the plan into groups, fire the
    /// catalogue at every group root for a bounded number of rounds (soundness
    /// gate per candidate, refusals journaled), and extract the cheapest
    /// plan by bottom-up group costing.  When [`Optimizer::seed_greedy`]
    /// is set (the default) the greedy trajectory is interned into the
    /// root group first, so the extracted cost is never worse than
    /// greedy's.
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

        let desugared = e.desugar();
        if desugared != *e && soundness_violation(e, &desugared, ctx).is_none() {
            memo.intern_into(&desugared, root, stats);
            whole.push(desugared);
            explored += 1;
        }

        if self.seed_greedy {
            let (g, gj) = self.optimize_greedy_journaled(e, ctx, stats);
            explored += g.explored;
            for s in &gj.steps {
                memo.intern_into(&s.plan, root, stats);
                whole.push(s.plan.clone());
            }
            memo.intern_into(&g.plan, root, stats);
            whole.push(g.plan);
        }

        memo.cost_fixpoint(stats);

        let mut seen: HashSet<Expr> = HashSet::new();
        let mut rounds = 0usize;
        let rules = self.enabled_rules();
        'search: while rounds < MAX_ROUNDS {
            rounds += 1;
            let mut grew = false;
            for g in memo.live_groups() {
                // Members appended this round are re-reconstructed next
                // round; iterate a stable snapshot of the current ones.
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
                    let cur = memo.reconstruct(&key);
                    let cur_cost = cost_of(&cur, stats);
                    for r in &rules {
                        for alt in r.apply(&cur, ctx) {
                            explored += 1;
                            if !seen.insert(alt.clone()) {
                                continue;
                            }
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
                                cost_before: cur_cost,
                                cost_after: cost_of(&alt, stats),
                                plan: alt.clone(),
                            });
                            memo.intern_into(&alt, g, stats);
                            grew = true;
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

        let snapshot = MemoSnapshot {
            groups: memo
                .live_groups()
                .into_iter()
                .map(|g| {
                    let gr = &memo.groups[g];
                    GroupSummary {
                        id: g,
                        op: op_label(&gr.exemplar),
                        members: gr.members.len(),
                        best_cost: gr.best_cost,
                        est_rows: gr.est.rows,
                        props: gr.props.clone(),
                    }
                })
                .collect(),
            members: memo.total_members,
            rounds,
            seeded: self.seed_greedy,
            initial_cost,
            winner_cost: best_cost,
            winner: best.to_string(),
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
    fn mode_parses_and_warns_on_unknown() {
        assert_eq!(OptimizerMode::from_setting(None).0, OptimizerMode::Memo);
        assert_eq!(
            OptimizerMode::from_setting(Some("memo")).0,
            OptimizerMode::Memo
        );
        assert_eq!(
            OptimizerMode::from_setting(Some("greedy")).0,
            OptimizerMode::Greedy
        );
        let (mode, warn) = OptimizerMode::from_setting(Some("fancy"));
        assert_eq!(mode, OptimizerMode::Memo);
        assert!(warn.unwrap().contains("fancy"));
    }

    #[test]
    fn memo_fuses_set_applys_like_greedy() {
        let (reg, schemas) = ctx_fixtures();
        let opt = Optimizer::standard();
        let stats = Statistics::new();
        let e = Expr::named("S")
            .set_apply(Expr::input().extract("name"))
            .set_apply(Expr::input().make_tup("n"));
        let best = opt.optimize_memo(&e, &ctx(&reg, &schemas), &stats);
        assert_eq!(
            best.plan,
            Expr::named("S").set_apply(Expr::input().extract("name").make_tup("n"))
        );
    }

    #[test]
    fn unseeded_memo_still_finds_the_fusion() {
        let (reg, schemas) = ctx_fixtures();
        let mut opt = Optimizer::standard();
        opt.seed_greedy = false;
        let stats = Statistics::new();
        let e = Expr::named("S")
            .set_apply(Expr::input().extract("name"))
            .set_apply(Expr::input().make_tup("n"));
        let (best, run) = opt.optimize_memo_journaled(&e, &ctx(&reg, &schemas), &stats);
        assert_eq!(
            best.plan,
            Expr::named("S").set_apply(Expr::input().extract("name").make_tup("n"))
        );
        assert!(!run.snapshot.seeded);
        assert!(run
            .journal
            .rule_sequence()
            .contains(&"rule15-combine-set-applys"));
    }

    #[test]
    fn memo_never_costs_more_than_greedy() {
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
            let greedy = opt.optimize_greedy(&e, &rctx, &stats);
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
    fn journal_shape_matches_greedy_conventions() {
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
