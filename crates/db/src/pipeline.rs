//! The one query pipeline.
//!
//! Every `retrieve` — typed at a [`Database`](crate::Database), served to
//! a [`Session`](crate::Session), or handed over as an algebra plan — goes
//! through [`run`], which alone decides the stages a query passes through,
//! their order, and what is measured on the way:
//!
//! ```text
//! translate → search (the memo) → extent-index substitution
//!           → lower → execute → record
//! ```
//!
//! The pipeline owns no state: it reads a [`View`], evaluates against a
//! `&mut ObjectStore`, and takes its [`Options`] by value.  A `Database`
//! is mutable state plus this pipeline; a `Session` is a pinned
//! generation, a scratch store, and this pipeline with the options fixed
//! — and the one caller that hands in a [`PlanCache`](crate::plan_cache):
//! a translated plan it already holds a still-valid plan for goes from
//! `translate` straight to `execute`.
//! [`record`] folds an [`Outcome`] into the caller's telemetry.

use crate::catalog::DbCatalog;
use crate::error::DbResult;
use crate::plan_cache::{CacheRef, CacheUse, Planned};
use excess_core::counters::Counters;
use excess_core::expr::Expr;
use excess_core::physical::{PhysOp, PhysicalPlan};
use excess_core::profile::{path_string, NodePath, Profile};
use excess_exec::{ExecOutcome, Tracing};
use excess_lang::ast::{QExpr, Retrieve};
use excess_lang::methods::MethodRegistry;
use excess_lang::translate::{translate_retrieve, TranslateCtx};
use excess_optimizer::{
    apply_extent_indexes_journaled, cost_of, lower_journaled, MemoSnapshot, Optimizer,
    RewriteJournal, RuleCtx, Statistics,
};
use excess_telemetry::{Fnv1a64, QueryRecord, QueryTrace, Registry, Span, Telemetry};
use excess_types::{ObjectStore, SchemaType, TypeRegistry, Value};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Occurrences in a query result (what the flight recorder reports as
/// `rows`): multiset cardinality with duplicates, array length, 1 for
/// scalars and tuples.
fn value_rows(v: &Value) -> u64 {
    match v {
        Value::Set(s) => s.len(),
        Value::Array(a) => a.len() as u64,
        _ => 1,
    }
}

/// Deterministic fingerprint of a lowered plan: FNV-1a over the debug
/// rendering (logical tree plus every kernel choice), so the same plan
/// hashes identically across runs and sessions.  The rendering is hashed
/// as `Debug` writes it — every request pays this, none needs the string.
pub(crate) fn plan_hash_of(plan: &PhysicalPlan) -> u64 {
    use std::fmt::Write;
    let mut hash = Fnv1a64::default();
    write!(hash, "{plan:?}").expect("the hash sink never fails");
    hash.finish()
}

/// `(path, kernel)` for every choice of `physical` that is more than a
/// pass-through, in path order: the flight record's kernel list.
fn kernel_list(physical: &PhysicalPlan) -> Arc<[(String, String)]> {
    physical
        .choices
        .iter()
        .filter(|(_, c)| !matches!(c.op, PhysOp::PassThrough))
        .map(|(path, c)| (path_string(path), c.op.to_string()))
        .collect()
}

/// Every object `e` names, into `out`.
pub(crate) fn named_objects(e: &Expr, out: &mut BTreeSet<String>) {
    if let Expr::Named(n) = e {
        out.insert(n.clone());
    }
    for c in e.children() {
        named_objects(c, out);
    }
}

/// Everything a query reads besides the object store.
pub(crate) struct View<'a> {
    pub registry: &'a TypeRegistry,
    pub catalog: &'a DbCatalog,
    pub methods: &'a MethodRegistry,
    pub stats: &'a Statistics,
    /// `range of` declarations in force (a session passes the committed
    /// ones with its own laid over them).
    pub ranges: &'a HashMap<String, QExpr>,
}

impl View<'_> {
    fn rules(&self) -> RuleCtx<'_> {
        RuleCtx {
            registry: self.registry,
            schemas: self.catalog,
        }
    }
}

/// The pipeline's parameters: `Database`'s public knobs, by value.
#[derive(Clone, Copy)]
pub(crate) struct Options {
    pub optimize: bool,
    /// Assemble a [`QueryTrace`]; implies profiled execution and the
    /// verify phase that exists only to be shown.
    pub spans: bool,
}

/// What enters the pipeline.
pub(crate) enum Source<'a> {
    /// A parsed `retrieve` and the parse time attributed to it.
    Retrieve { stmt: &'a Retrieve, parse_us: u64 },
    /// An algebra plan built by hand: no parse or translate phase.
    Plan(&'a Expr),
}

/// Everything one pipeline run produced.
pub(crate) struct Outcome {
    /// Value, work counters and profile (traced runs).
    pub ran: ExecOutcome,
    /// Declared result type (`retrieve` sources only).
    pub schema: Option<SchemaType>,
    pub rows: u64,
    pub phase_us: Vec<(&'static str, u64)>,
    /// The search's journal (an optimized miss only).
    pub searched: Option<RewriteJournal>,
    /// The lowering's journal (none on a plan-cache hit: no rewrite ran).
    pub lowered: Option<RewriteJournal>,
    /// The plan that ran — on a hit, or once a miss has filled the cache,
    /// shared with the cache entry.
    pub planned: Arc<Planned>,
    /// The group picture of the search this run made, if it made one.
    pub memo: Option<MemoSnapshot>,
    /// How the plan cache answered; `None` when it was not consulted.
    pub cache: Option<CacheUse>,
    /// On a hit, the translated plan the entry is keyed by: an entry
    /// keeps no group picture, the search can be re-run from this.
    pub translated: Option<Expr>,
    pub trace: Option<QueryTrace>,
}

/// Translate a retrieve to its (unoptimized) algebra plan.
pub(crate) fn translate(view: &View<'_>, r: &Retrieve) -> DbResult<(Expr, SchemaType)> {
    let tc = TranslateCtx {
        registry: view.registry,
        schemas: view.catalog,
        ranges: view.ranges,
        methods: view.methods,
        this_type: None,
        params: vec![],
    };
    Ok(translate_retrieve(r, &tc)?)
}

/// Rule-based plan search plus extent-index substitution: the plan, its
/// journal, and the memo's group picture.
///
/// The plan — and its desugared form (derived σ/join nodes expanded to
/// SET_APPLY∘COMP, which several fusion rules need) when the cost model
/// does not price that above the plan — is interned into the memo and
/// explored as group transformations; journal steps carry the
/// group id as their path.  The final extent-index phase is journaled
/// (and soundness-gated) under `extent-index-substitution`.
pub(crate) fn search(view: &View<'_>, plan: &Expr) -> (Expr, RewriteJournal, MemoSnapshot) {
    let ctx = view.rules();
    let (best, run) = Optimizer::standard().optimize_memo_journaled(plan, &ctx, view.stats);
    let mut journal = run.journal;
    let plan = apply_extent_indexes_journaled(&best.plan, view.stats, &ctx, &mut journal);
    (plan, journal, run.snapshot)
}

/// [`Database::lower_plan`](crate::Database::lower_plan) over a view.
pub(crate) fn lower(view: &View<'_>, plan: &Expr) -> (PhysicalPlan, RewriteJournal) {
    let mut journal = RewriteJournal::for_plan(cost_of(plan, view.stats));
    let physical = lower_journaled(plan, view.stats, &mut journal);
    (physical, journal)
}

/// Evaluate a lowered plan: the serial physical interpreter.
pub(crate) fn execute(
    view: &View<'_>,
    store: &mut ObjectStore,
    physical: &PhysicalPlan,
    tracing: Tracing,
) -> DbResult<ExecOutcome> {
    Ok(excess_exec::run(
        physical,
        view.registry,
        store,
        view.catalog,
        tracing,
    )?)
}

/// Wall-clock bookkeeping for one run: the phase list every query
/// records, and the phase spans only traced queries pay for.
struct Timeline {
    origin: Instant,
    /// Microseconds that elapsed before `origin` (the parse phase).
    base: u64,
    phases: Vec<(&'static str, u64)>,
    spans: Option<Vec<Span>>,
}

impl Timeline {
    fn now(&self) -> u64 {
        self.base + self.origin.elapsed().as_micros() as u64
    }

    /// Close the phase that began at `t0`; under spans, hand back its
    /// span for the stage to annotate.
    fn lap(&mut self, name: &'static str, t0: u64) -> Option<&mut Span> {
        let dur = self.now().saturating_sub(t0);
        self.phases.push((name, dur));
        let spans = self.spans.as_mut()?;
        spans.push(Span::new(name, "phase", t0, dur));
        spans.last_mut()
    }
}

/// One child span per accepted and per refused rewrite of `journal`.
fn journal_span(s: &mut Span, journal: &RewriteJournal) {
    s.nums.extend([
        (
            "plans_enumerated".to_string(),
            journal.plans_enumerated as u64,
        ),
        ("rewrites_applied".to_string(), journal.steps.len() as u64),
        ("rewrites_refused".to_string(), journal.refused.len() as u64),
    ]);
    let t0 = s.start_us;
    for step in &journal.steps {
        s.children.push(
            Span::new(format!("rewrite:{}", step.rule), "rewrite", t0, 0)
                .with_meta("path", path_string(&step.path))
                .with_meta("cost_before", format!("{:.0}", step.cost_before))
                .with_meta("cost_after", format!("{:.0}", step.cost_after)),
        );
    }
    for refused in &journal.refused {
        s.children.push(
            Span::new(format!("refused:{}", refused.rule), "rewrite", t0, 0)
                .with_meta("path", path_string(&refused.path))
                .with_meta("reason", refused.reason.clone()),
        );
    }
}

/// One child span per kernel choice that is more than a pass-through.
fn choice_span(s: &mut Span, physical: &PhysicalPlan) {
    let t0 = s.start_us;
    for (path, choice) in &physical.choices {
        if matches!(choice.op, PhysOp::PassThrough) {
            continue;
        }
        let mut child = Span::new(
            format!("choose:{} {}", path_string(path), choice.op),
            "lower",
            t0,
            0,
        )
        .with_meta("why", choice.why.clone());
        if let Some(est) = choice.est_rows {
            child = child.with_meta("est_rows", format!("{est:.0}"));
        }
        s.children.push(child);
    }
}

/// The execute phase's subtree: the operator spans of the profile.
fn execute_span(s: &mut Span, out: &ExecOutcome) {
    s.nums.push(("rows".to_string(), value_rows(&out.value)));
    if let Some(profile) = &out.profile {
        s.children.extend(profile_spans(profile, s.start_us));
    }
}

/// Turn a profile's preorder node list into nested operator spans.
///
/// Each profile node becomes one `op:` span carrying its *self* counters
/// as numeric attributes, so summing any counter over the returned
/// subtrees telescopes exactly to the profile total — the PR 1 invariant
/// (`sum_of_self_counters() == total`) re-exposed on the span tree.
/// Nesting follows path prefixes.  Start offsets are not
/// recorded per node by the profiler, so children share the execute
/// phase's start and carry their `total_wall` as duration — containment
/// (child ⊆ parent interval) still holds because a child's total wall is
/// bounded by its parent's.
fn profile_spans(profile: &Profile, start_us: u64) -> Vec<Span> {
    fn is_ancestor(a: &[usize], b: &[usize]) -> bool {
        b.len() > a.len() && b[..a.len()] == *a
    }
    fn pop_into(stack: &mut Vec<(NodePath, Span)>, roots: &mut Vec<Span>) {
        let (_, done) = stack.pop().expect("caller checked non-empty");
        match stack.last_mut() {
            Some((_, parent)) => parent.children.push(done),
            None => roots.push(done),
        }
    }
    let mut roots: Vec<Span> = Vec::new();
    let mut stack: Vec<(NodePath, Span)> = Vec::new();
    for n in &profile.nodes {
        let mut span = Span::new(
            format!("op:{} {}", n.label, path_string(&n.path)),
            "op",
            start_us,
            n.total_wall.as_micros() as u64,
        )
        .with_meta("path", path_string(&n.path))
        .with_num("calls", n.calls)
        .with_num("rows_in", n.rows_in)
        .with_num("rows_out", n.rows_out)
        .with_num("self_us", n.self_wall.as_micros() as u64);
        for (name, v) in n.self_counters.named_fields() {
            span = span.with_num(name, v);
        }
        while matches!(stack.last(), Some((p, _)) if !is_ancestor(p, &n.path)) {
            pop_into(&mut stack, &mut roots);
        }
        stack.push((n.path.clone(), span));
    }
    while !stack.is_empty() {
        pop_into(&mut stack, &mut roots);
    }
    roots
}

/// Run one query through every stage.  Nothing is recorded here: hand
/// the [`Outcome`] to [`record`].
///
/// `cache` is consulted — and filled — only for the plain optimized
/// pipeline: spans need the rewrite journal.
pub(crate) fn run(
    view: View<'_>,
    store: &mut ObjectStore,
    opts: Options,
    label: &str,
    source: Source<'_>,
    cache: Option<CacheRef<'_>>,
) -> DbResult<Outcome> {
    let mut t = Timeline {
        origin: Instant::now(),
        base: 0,
        phases: Vec::new(),
        spans: opts.spans.then(Vec::new),
    };
    let cache = cache.filter(|_| opts.optimize && !opts.spans);

    let (translated, schema) = match source {
        Source::Retrieve { stmt, parse_us } => {
            // Parsing happened before the pipeline was entered: it takes
            // [0, parse_us) of the timeline and everything else follows.
            t.phases.push(("parse", parse_us));
            if let Some(spans) = &mut t.spans {
                spans.push(Span::new("parse", "phase", 0, parse_us));
            }
            t.base = parse_us;
            let translated = translate(&view, stmt);
            t.lap("translate", parse_us);
            let (plan, ty) = translated?;
            (Cow::Owned(plan), Some(ty))
        }
        Source::Plan(plan) => (Cow::Borrowed(plan), None),
    };

    // Verification runs only under spans: translation has already typed
    // the plan — this phase exists to show the layer, not to gate
    // execution.
    if opts.spans {
        let t0 = t.now();
        let report = excess_core::verify::verify(&translated, view.catalog, view.registry);
        if let Some(s) = t.lap("verify", t0) {
            if let Some(ty) = &report.schema {
                s.meta.push(("schema".to_string(), ty.to_string()));
            }
            s.nums
                .push(("errors".to_string(), report.error_count() as u64));
            s.nums
                .push(("lints".to_string(), report.lint_count() as u64));
        }
    }

    // A failed lookup is part of the search it leads to.
    let t0 = t.now();
    let lookup = cache
        .as_ref()
        .map(|c| c.plans.lookup(&translated, &view, c.registry));
    let (mut searched, mut lowered) = (None, None);
    let mut memo = None;
    let (planned, cache_use, hit) = if let Some(Ok(planned)) = lookup {
        t.lap("cached", t0);
        (planned, Some(CacheUse::Hit), Some(translated.into_owned()))
    } else {
        let mut plan = Cow::Borrowed(&*translated);
        if opts.optimize {
            let (found, journal, group_picture) = search(&view, &plan);
            if let Some(s) = t.lap("optimize", t0) {
                journal_span(s, &journal);
            }
            (plan, memo) = (Cow::Owned(found), Some(group_picture));
            searched = Some(journal);
        }

        let t0 = t.now();
        let (physical, journal) = lower(&view, &plan);
        if let Some(s) = t.lap("lower", t0) {
            choice_span(s, &physical);
        }
        lowered = Some(journal);
        // `plan` may still borrow `translated`, which becomes the key.
        drop(plan);
        let planned = Arc::new(Planned {
            plan_hash: plan_hash_of(&physical),
            kernels: kernel_list(&physical),
            physical,
        });
        if let Some(c) = cache {
            c.plans
                .insert(translated.into_owned(), &planned, &view, c.registry);
        }
        (planned, lookup.and_then(Result::err), None)
    };

    // Profiled when spans are on: the profile becomes the operator span
    // subtree.
    let tracing = if opts.spans {
        Tracing::Precise
    } else {
        Tracing::Off
    };
    let t0 = t.now();
    let ran = execute(&view, store, &planned.physical, tracing);
    if let (Some(s), Ok(ran)) = (t.lap("execute", t0), &ran) {
        execute_span(s, ran);
    }
    let ran = ran?;

    let trace = t.spans.map(|children| {
        let total_us = t.phases.iter().map(|(_, us)| us).sum();
        let mut root = Span::new("query", "phase", 0, total_us);
        root.children = children;
        QueryTrace {
            query: label.to_string(),
            plan_hash: planned.plan_hash,
            root,
        }
    });
    Ok(Outcome {
        rows: value_rows(&ran.value),
        ran,
        schema,
        phase_us: t.phases,
        searched,
        lowered,
        planned,
        memo,
        cache: cache_use,
        translated: hit,
        trace,
    })
}

/// The histogram each phase is observed under: finished names, so the
/// always-on record path formats nothing.
const PHASE_METRICS: [(&str, &str); 7] = [
    ("parse", "phase.parse_us"),
    ("translate", "phase.translate_us"),
    ("verify", "phase.verify_us"),
    ("cached", "phase.cached_us"),
    ("optimize", "phase.optimize_us"),
    ("lower", "phase.lower_us"),
    ("execute", "phase.execute_us"),
];

/// The counter each [`Counters`] field is
/// added to, in `named_fields` order.
const WORK_METRICS: [&str; 8] = [
    "work.occurrences_scanned",
    "work.elements_scanned",
    "work.derefs",
    "work.de_input_occurrences",
    "work.comparisons",
    "work.oids_minted",
    "work.named_object_scans",
    "work.pairs_formed",
];

/// Fold one evaluation into `registry`: `queries` and the `work.*`
/// counters.  A pipeline run records this through [`record`];
/// `Database::run_plan` and `run_lowered` record it alone.
pub(crate) fn record_work(registry: &mut Registry, counters: Counters) {
    registry.inc("queries");
    for (metric, (_, v)) in WORK_METRICS.iter().zip(counters.named_fields()) {
        registry.add(metric, v);
    }
}

/// Fold one rewrite journal — a search's or a lowering's — into
/// `registry`: the accepted and refused rewrites, the plans enumerated
/// and `rules.<name>.fired` per accepted step.  Only a plan-cache miss
/// has a journal, so only a miss formats a rule's name.
pub(crate) fn record_journal(registry: &mut Registry, journal: &RewriteJournal) {
    registry.add("optimizer.rewrites.applied", journal.steps.len() as u64);
    registry.add("optimizer.rewrites.refused", journal.refused.len() as u64);
    registry.add(
        "optimizer.plans_enumerated",
        journal.plans_enumerated as u64,
    );
    for step in &journal.steps {
        registry.inc(&format!("rules.{}.fired", step.rule));
    }
}

/// Fold one plan search's journal into `registry`: [`record_journal`],
/// plus `optimizer.runs` and the estimated cost removed (rounded; a run
/// that raised the estimate removes nothing).  A lowering is no search,
/// and its journal's cost delta is logical to physical, another scale:
/// it counts neither.
pub(crate) fn record_search(registry: &mut Registry, journal: &RewriteJournal) {
    registry.inc("optimizer.runs");
    let removed = (journal.initial_cost - journal.final_cost).max(0.0);
    registry.add("optimizer.cost_removed", removed.round() as u64);
    record_journal(registry, journal);
}

/// Fold one run into a caller's telemetry: its journals, query count,
/// latency and phase histograms, work counters and the plan cache's
/// answer into the registry, a flight-recorder [`QueryRecord`], and the
/// span tree (taken out of `outcome`).
pub(crate) fn record(outcome: &mut Outcome, label: &str, telemetry: &mut Telemetry) {
    let Planned {
        physical,
        plan_hash,
        kernels,
    } = &*outcome.planned;
    let registry = &mut telemetry.registry;
    if let Some(journal) = &outcome.searched {
        record_search(registry, journal);
    }
    if let Some(journal) = &outcome.lowered {
        record_journal(registry, journal);
    }
    record_work(registry, outcome.ran.counters);
    if let Some(cache) = outcome.cache {
        registry.inc(cache.metric());
    }
    registry.observe("query_us", outcome.phase_us.iter().map(|(_, us)| us).sum());
    for (phase, us) in &outcome.phase_us {
        let (_, metric) = PHASE_METRICS
            .iter()
            .find(|(name, _)| name == phase)
            .expect("every phase the timeline laps has a metric name");
        registry.observe(metric, *us);
    }

    telemetry.recorder.record(QueryRecord {
        query: label.to_string(),
        plan_hash: *plan_hash,
        rows: outcome.rows,
        phase_us: outcome.phase_us.clone(),
        kernels: Arc::clone(kernels),
        est_rows: physical.choices.get(&Vec::new()).and_then(|c| c.est_rows),
        actual_rows: Some(outcome.rows),
    });
    if let Some(trace) = outcome.trace.take() {
        telemetry.last_trace = Some(trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The finished metric names are the ones the record path used to
    /// format: `phase.<name>_us` and `work.<field>`, field for field.
    #[test]
    fn metric_names_are_the_formatted_ones() {
        for (phase, metric) in PHASE_METRICS {
            assert_eq!(metric, format!("phase.{phase}_us"));
        }
        let fields = Counters::new().named_fields();
        assert_eq!(fields.len(), WORK_METRICS.len());
        for (metric, (field, _)) in WORK_METRICS.iter().zip(fields) {
            assert_eq!(*metric, format!("work.{field}"));
        }
    }
}
