//! The one query pipeline.
//!
//! Every `retrieve` — typed at a [`Database`](crate::Database), served to
//! a [`Session`](crate::Session), or handed over as an algebra plan — goes
//! through [`run`], which alone decides the stages a query passes through,
//! their order, and what is measured on the way:
//!
//! ```text
//! translate → search (the memo) → extent-index substitution
//!           → property rewrites → lower (+ columnar, + guard elision)
//!           → execute → record
//! ```
//!
//! The pipeline owns no state: it reads a [`View`], evaluates against a
//! `&mut ObjectStore`, and takes its [`Options`] by value.  A `Database`
//! is mutable state plus this pipeline; a `Session` is a pinned
//! generation, a scratch store, and this pipeline with the options fixed
//! — and the one caller that hands in a [`PlanCache`](crate::plan_cache):
//! a translated plan it already holds a still-valid plan for goes from
//! `translate` straight to `execute`.
//! [`record`] folds an [`Outcome`] into the caller's metrics and
//! telemetry, and [`reoptimize`] closes the feedback loop for both.

use crate::catalog::DbCatalog;
use crate::error::DbResult;
use crate::metrics::SessionMetrics;
use crate::plan_cache::{CacheRef, CacheUse, Planned};
use crate::stats::collect_object_statistics;
use excess_core::expr::Expr;
use excess_core::physical::{PhysOp, PhysicalPlan};
use excess_core::profile::{path_string, NodePath, Profile};
use excess_exec::{run_parallel_plan, ExecConfig, ExecOutcome, ExecReport, Tracing};
use excess_lang::ast::{QExpr, Retrieve};
use excess_lang::methods::MethodRegistry;
use excess_lang::translate::{translate_retrieve, TranslateCtx};
use excess_optimizer::{
    annotate_columnar, apply_extent_indexes_journaled, apply_property_rewrites_journaled, cost_of,
    elide_proven_guards, estimate_physical, lower_journaled, JournalStep, MemoSnapshot, Optimizer,
    RewriteJournal, RuleCtx, Statistics, COLUMNAR_RULE, REOPTIMIZE_RULE,
};
use excess_telemetry::{FeedbackLog, Fnv1a64, QueryRecord, QueryTrace, Registry, Span, Telemetry};
use excess_types::{ObjectStore, SchemaType, TypeRegistry, Value};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Occurrences in a query result (what the flight recorder reports as
/// `rows`): multiset cardinality with duplicates, array length, 1 for
/// scalars and tuples.
pub(crate) fn value_rows(v: &Value) -> u64 {
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

/// The extent a plan node reads: walk the logical tree to the node at
/// `path` (profiler child indexing) and take the leftmost named object
/// under it, if any — how feedback observations get attributed to a
/// concrete [`Statistics`] entry.
fn extent_at(plan: &Expr, path: &[usize]) -> Option<String> {
    fn first_named(e: &Expr) -> Option<String> {
        if let Expr::Named(n) = e {
            return Some(n.clone());
        }
        e.children().into_iter().find_map(first_named)
    }
    let mut node = plan;
    for &i in path {
        node = *node.children().get(i)?;
    }
    first_named(node)
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

/// The catalog a query reads.  A database owns its catalog, so column
/// chunks the columnar lowering misses are encoded on demand; a pinned
/// generation is immutable and serves the chunks its committer warmed.
pub(crate) enum CatalogRef<'a> {
    /// Shared and immutable: a published generation, or a `&Database`.
    Frozen(&'a DbCatalog),
    /// The database's own catalog.
    Owned(&'a mut DbCatalog),
}

impl std::ops::Deref for CatalogRef<'_> {
    type Target = DbCatalog;
    fn deref(&self) -> &DbCatalog {
        match self {
            CatalogRef::Frozen(c) => c,
            CatalogRef::Owned(c) => c,
        }
    }
}

/// Everything a query reads besides the object store.
pub(crate) struct View<'a> {
    pub registry: &'a TypeRegistry,
    pub catalog: CatalogRef<'a>,
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
            schemas: &*self.catalog,
        }
    }
}

/// The pipeline's parameters: `Database`'s public knobs, by value.
#[derive(Clone, Copy)]
pub(crate) struct Options {
    pub optimize: bool,
    pub property_rewrites: bool,
    pub columnar: bool,
    pub exec: ExecConfig,
    /// Assemble a [`QueryTrace`]; implies profiled execution and the
    /// infer/verify phases that exist only to be shown.
    pub spans: bool,
}

/// What enters the pipeline.
pub(crate) enum Source<'a> {
    /// A parsed `retrieve` and the parse time attributed to it.
    Retrieve { stmt: &'a Retrieve, parse_us: u64 },
    /// An algebra plan built by hand: no parse or translate phase.
    Plan(&'a Expr),
}

/// Label, optimized logical plan, and physical plan hash of the last
/// query — what a re-optimization re-derives.
pub(crate) type LastPlan = (String, Expr, u64);

/// Everything one pipeline run produced.
pub(crate) struct Outcome {
    /// Value, work counters, profile (traced runs) and execution journal.
    pub ran: ExecOutcome,
    /// Declared result type (`retrieve` sources only).
    pub schema: Option<SchemaType>,
    pub rows: u64,
    pub phase_us: Vec<(&'static str, u64)>,
    /// Search, property-rewrite and lowering journals, in stage order
    /// (none on a plan-cache hit: no rewrite ran).
    pub journals: Vec<RewriteJournal>,
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
    engine: String,
    chunks_built: usize,
}

/// Translate a retrieve to its (unoptimized) algebra plan.
pub(crate) fn translate(view: &View<'_>, r: &Retrieve) -> DbResult<(Expr, SchemaType)> {
    let tc = TranslateCtx {
        registry: view.registry,
        schemas: &*view.catalog,
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
/// SET_APPLY∘COMP, which several fusion rules need) — is interned into the
/// memo and explored as group transformations; journal steps carry the
/// group id as their path.  The final extent-index phase is journaled
/// (and soundness-gated) under `extent-index-substitution`.
pub(crate) fn search(view: &View<'_>, plan: &Expr) -> (Expr, RewriteJournal, MemoSnapshot) {
    let ctx = view.rules();
    let (best, run) = Optimizer::standard().optimize_memo_journaled(plan, &ctx, view.stats);
    let mut journal = run.journal;
    let plan = apply_extent_indexes_journaled(&best.plan, view.stats, &ctx, &mut journal);
    (plan, journal, run.snapshot)
}

/// Every property-licensed rewrite provable against the stored data.
pub(crate) fn property_rewrites(view: &View<'_>, plan: &Expr) -> (Expr, RewriteJournal) {
    let ctx = view.rules();
    let mut journal = RewriteJournal {
        plans_enumerated: 0,
        ..RewriteJournal::for_plan(cost_of(plan, view.stats))
    };
    let out =
        apply_property_rewrites_journaled(plan, &*view.catalog, view.stats, &ctx, &mut journal);
    (out, journal)
}

/// [`Database::ensure_chunks_for`](crate::Database::ensure_chunks_for)
/// on a bare catalog; returns how many chunks were built.
pub(crate) fn ensure_chunks(catalog: &mut DbCatalog, plan: &Expr) -> usize {
    let mut names = BTreeSet::new();
    named_objects(plan, &mut names);
    let mut built = 0;
    for name in names {
        if catalog.chunk(&name).is_some() {
            continue;
        }
        let Some(Value::Set(set)) = catalog.value(&name) else {
            continue;
        };
        let analysis = excess_core::analysis::analyze(&Expr::named(&name), &*catalog);
        let non_null: BTreeSet<String> = analysis
            .props_at(&[])
            .map(|p| {
                p.attrs
                    .iter()
                    .filter(|(_, ap)| ap.is_definite_key())
                    .map(|(n, _)| n.clone())
                    .collect()
            })
            .unwrap_or_default();
        if let Some(chunk) = excess_types::Chunk::encode(set, &non_null) {
            catalog.set_chunk(&name, chunk);
            built += 1;
        }
    }
    built
}

/// Count freshly encoded chunks under `columnar.chunks_built` (the
/// counter exists only once a chunk has been built).
pub(crate) fn count_chunks_built(registry: &mut Registry, built: usize) {
    if built > 0 {
        registry.add("columnar.chunks_built", built as u64);
    }
}

/// Result of the lowering stage.
pub(crate) struct Lowered {
    pub physical: PhysicalPlan,
    pub journal: RewriteJournal,
    pub chunks_built: usize,
}

/// [`Database::lower_plan`](crate::Database::lower_plan) over a view:
/// journaled lowering, then — with `columnar` — chunk encoding (owned
/// catalogs only) and the `columnar-lowering` upgrade, then — with
/// `elide_guards` — dropping the hash-join runtime guards the property
/// analysis proves redundant (the plan's `elided_guards` lists them).
pub(crate) fn lower(
    view: &mut View<'_>,
    plan: &Expr,
    columnar: bool,
    elide_guards: bool,
) -> Lowered {
    let mut journal = RewriteJournal::for_plan(cost_of(plan, view.stats));
    let mut physical = lower_journaled(plan, view.stats, &mut journal);
    let mut chunks_built = 0;
    if columnar {
        if let CatalogRef::Owned(catalog) = &mut view.catalog {
            chunks_built = ensure_chunks(catalog, plan);
        }
        let (accepted, refused) = annotate_columnar(&mut physical, &*view.catalog);
        journal.refused.extend(refused);
        if !accepted.is_empty() {
            let cost_after = estimate_physical(&physical, view.stats).cost;
            journal.steps.push(JournalStep {
                rule: COLUMNAR_RULE,
                path: Vec::new(),
                cost_before: journal.final_cost,
                cost_after,
                plan: plan.clone(),
            });
            journal.final_cost = cost_after;
        }
    }
    if elide_guards {
        elide_proven_guards(&mut physical, &*view.catalog);
    }
    Lowered {
        physical,
        journal,
        chunks_built,
    }
}

/// Evaluate a lowered plan on `exec`'s engine: the partition-parallel
/// driver, which at one worker (or for OID-minting plans) is the serial
/// physical interpreter with the reason journaled in the report.
pub(crate) fn execute(
    view: &View<'_>,
    store: &mut ObjectStore,
    physical: &PhysicalPlan,
    exec: ExecConfig,
    tracing: Tracing,
) -> DbResult<ExecOutcome> {
    Ok(run_parallel_plan(
        physical,
        view.registry,
        store,
        &*view.catalog,
        Some(&*view.catalog),
        exec,
        tracing,
    )?)
}

/// Worker count a run is accounted under: a whole-plan serial fallback
/// counts as a serial query.
pub(crate) fn effective_workers(report: &ExecReport) -> usize {
    if report.worker_stats.is_empty() {
        1
    } else {
        report.workers
    }
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

/// The execute phase's subtree: one lane per worker, then the operator
/// spans of the profile.
fn execute_span(s: &mut Span, out: &ExecOutcome, engine: &str) {
    s.meta.push(("engine".to_string(), engine.to_string()));
    s.nums.push(("rows".to_string(), value_rows(&out.value)));
    let t0 = s.start_us;
    for w in &out.report.worker_stats {
        s.children.push(
            Span::new(
                format!("worker:{}", w.worker),
                "worker",
                t0 + w.started.as_micros() as u64,
                w.finished.saturating_sub(w.started).as_micros() as u64,
            )
            .on_lane(w.worker as u32 + 1)
            .with_num("tasks", w.tasks)
            .with_num("occurrences", w.occurrences)
            .with_num("busy_us", w.busy.as_micros() as u64),
        );
    }
    if let Some(profile) = &out.profile {
        s.children.extend(profile_spans(profile, t0));
    }
}

/// Turn a profile's preorder node list into nested operator spans.
///
/// Each profile node becomes one `op:` span carrying its *self* counters
/// as numeric attributes, so summing any counter over the returned
/// subtrees telescopes exactly to the profile total — the PR 1 invariant
/// (`sum_of_self_counters() == total`) re-exposed on the span tree.
/// Nesting follows path prefixes; merged parallel profiles (several
/// fragment roots) yield several root spans.  Start offsets are not
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
/// pipeline: spans need the rewrite journal, and the property rewrites and
/// the columnar lowering read stored *data*, which an entry does not
/// validate.
pub(crate) fn run(
    mut view: View<'_>,
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
    let cache =
        cache.filter(|_| opts.optimize && !(opts.spans || opts.property_rewrites || opts.columnar));

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

    // Infer + verify run only under spans: translation has already
    // inferred, and the parallel engine verifies on its own — these
    // phases exist to show the layers, not to gate execution.
    if opts.spans {
        let t0 = t.now();
        let ty = excess_core::infer::infer_closed(&translated, &*view.catalog, view.registry);
        if let (Some(s), Ok(ty)) = (t.lap("infer", t0), ty) {
            s.meta.push(("schema".to_string(), ty.to_string()));
        }
        let t0 = t.now();
        let report = excess_core::verify::verify(&translated, &*view.catalog, view.registry);
        if let Some(s) = t.lap("verify", t0) {
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
    let mut journals = Vec::new();
    let mut chunks_built = 0;
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
            journals.push(journal);
        }
        if opts.property_rewrites {
            let t0 = t.now();
            let (rewritten, journal) = property_rewrites(&view, &plan);
            if let Some(s) = t.lap("properties", t0) {
                journal_span(s, &journal);
            }
            plan = Cow::Owned(rewritten);
            journals.push(journal);
        }

        let t0 = t.now();
        let lowered = lower(&mut view, &plan, opts.columnar, opts.property_rewrites);
        if let Some(s) = t.lap("lower", t0) {
            choice_span(s, &lowered.physical);
        }
        journals.push(lowered.journal);
        chunks_built = lowered.chunks_built;
        // `plan` may still borrow `translated`, which becomes the key.
        drop(plan);
        let planned = Arc::new(Planned {
            plan_hash: plan_hash_of(&lowered.physical),
            physical: lowered.physical,
        });
        if let Some(c) = cache {
            c.plans
                .insert(translated.into_owned(), &planned, &view, c.registry);
        }
        (planned, lookup.and_then(Result::err), None)
    };

    let engine = if opts.exec.is_parallel() {
        format!("parallel({})", opts.exec.workers)
    } else {
        "serial".to_string()
    };
    // Profiled when spans are on: the profile becomes the operator span
    // subtree and feeds per-node feedback.
    let tracing = if opts.spans {
        Tracing::Precise
    } else {
        Tracing::Off
    };
    let t0 = t.now();
    let ran = execute(&view, store, &planned.physical, opts.exec, tracing);
    if let (Some(s), Ok(ran)) = (t.lap("execute", t0), &ran) {
        execute_span(s, ran, &engine);
    }
    let ran = ran?;

    let trace = t.spans.map(|children| {
        let total_us = t.phases.iter().map(|(_, us)| us).sum();
        let mut root = Span::new("query", "phase", 0, total_us).with_meta("engine", engine.clone());
        root.children = children;
        QueryTrace {
            query: label.to_string(),
            engine: engine.clone(),
            plan_hash: planned.plan_hash,
            root,
        }
    });
    Ok(Outcome {
        rows: value_rows(&ran.value),
        ran,
        schema,
        phase_us: t.phases,
        journals,
        planned,
        memo,
        cache: cache_use,
        translated: hit,
        trace,
        engine,
        chunks_built,
    })
}

/// Feed est-vs-actual cardinalities of one executed plan into the
/// misestimation log: every lowered node that has both an estimate and a
/// profile entry, and the root from the result's row count when there is
/// no profile to read it from.
pub(crate) fn observe(
    feedback: &mut FeedbackLog,
    plan_hash: u64,
    physical: &PhysicalPlan,
    rows: u64,
    profile: Option<&Profile>,
) {
    for (path, choice) in &physical.choices {
        let Some(est) = choice.est_rows else { continue };
        let actual = match profile.and_then(|p| p.node(path)) {
            Some(node) => node.rows_out,
            None if path.is_empty() => rows,
            None => continue,
        };
        feedback.observe(
            plan_hash,
            &path_string(path),
            &choice.op.to_string(),
            extent_at(&physical.logical, path).as_deref(),
            est,
            actual as f64,
        );
    }
}

/// The histogram each phase is observed under: finished names, so the
/// always-on record path formats nothing.
const PHASE_METRICS: [(&str, &str); 9] = [
    ("parse", "phase.parse_us"),
    ("translate", "phase.translate_us"),
    ("infer", "phase.infer_us"),
    ("verify", "phase.verify_us"),
    ("cached", "phase.cached_us"),
    ("optimize", "phase.optimize_us"),
    ("properties", "phase.properties_us"),
    ("lower", "phase.lower_us"),
    ("execute", "phase.execute_us"),
];

/// The counter each [`Counters`](excess_core::counters::Counters) field is
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

/// Fold one run into a caller's metrics and telemetry: journals and work
/// counters into the [`SessionMetrics`]; query counts, latency and phase
/// histograms, work counters, the plan cache's answer, a flight-recorder
/// [`QueryRecord`], feedback observations, and the span tree (taken out
/// of `outcome`) into the [`Telemetry`].
pub(crate) fn record(
    outcome: &mut Outcome,
    label: &str,
    metrics: &mut SessionMetrics,
    telemetry: &mut Telemetry,
) {
    for journal in &outcome.journals {
        metrics.record_journal(journal);
    }
    let execute_us = outcome.phase_us.last().map_or(0, |(_, us)| *us);
    metrics.record_query_mode(
        outcome.ran.counters,
        Duration::from_micros(execute_us),
        effective_workers(&outcome.ran.report),
    );

    let Planned {
        physical,
        plan_hash,
    } = &*outcome.planned;
    let registry = &mut telemetry.registry;
    count_chunks_built(registry, outcome.chunks_built);
    let elided = physical.elided_guards.len();
    if elided > 0 {
        registry.add("lowering.guard_elisions", elided as u64);
    }
    registry.inc("queries");
    registry.inc(if outcome.engine == "serial" {
        "queries.serial"
    } else {
        "queries.parallel"
    });
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
    for (metric, (_, v)) in WORK_METRICS.iter().zip(outcome.ran.counters.named_fields()) {
        registry.add(metric, v);
    }

    telemetry.recorder.record(QueryRecord {
        query: label.to_string(),
        plan_hash: *plan_hash,
        engine: outcome.engine.clone(),
        rows: outcome.rows,
        phase_us: outcome.phase_us.clone(),
        kernels: physical
            .choices
            .iter()
            .filter(|(_, c)| !matches!(c.op, PhysOp::PassThrough))
            .map(|(path, c)| (path_string(path), c.op.to_string()))
            .collect(),
        est_rows: physical.choices.get(&Vec::new()).and_then(|c| c.est_rows),
        actual_rows: Some(outcome.rows),
    });
    observe(
        &mut telemetry.feedback,
        *plan_hash,
        physical,
        outcome.rows,
        outcome.ran.profile.as_ref(),
    );
    if let Some(trace) = outcome.trace.take() {
        telemetry.last_trace = Some(trace);
    }
}

/// One feedback-driven re-optimization: what triggered it, which
/// statistics were corrected from the observed cardinalities, and how the
/// re-derived plan compares to the one it replaces.
#[derive(Debug, Clone)]
pub struct ReoptReport {
    /// Label of the query whose plan was re-derived.
    pub label: String,
    /// The worst recorded q-error that triggered the re-optimization.
    pub trigger_q_error: f64,
    /// The threshold it crossed.
    pub threshold: f64,
    /// `(extent, rows_before, rows_after)` for every corrected object.
    pub corrected: Vec<(String, f64, f64)>,
    /// Estimated cost of the old plan under the corrected statistics.
    pub cost_before: f64,
    /// Estimated cost of the re-derived plan (corrected statistics).
    pub cost_after: f64,
    /// Physical plan hash before the re-lower.
    pub plan_hash_before: u64,
    /// Physical plan hash after the re-lower.
    pub plan_hash_after: u64,
    /// The re-derived logical plan.
    pub plan: Expr,
}

impl ReoptReport {
    /// Human-readable block, as `explain_analyze`, the REPL and the wire
    /// protocol's `.reoptimize` print it.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "re-optimization of `{}`: q-error {:.1} > threshold {:.1}",
            self.label, self.trigger_q_error, self.threshold
        );
        for (name, before, after) in &self.corrected {
            let _ = writeln!(out, "  corrected {name}: rows {before:.0} -> {after:.0}");
        }
        let _ = writeln!(
            out,
            "  cost {:.0} -> {:.0}; plan hash {:016x} -> {:016x}",
            self.cost_before, self.cost_after, self.plan_hash_before, self.plan_hash_after
        );
        out
    }
}

/// What [`reoptimize`] hands back for the caller to install.
pub(crate) struct Reoptimized {
    pub report: ReoptReport,
    /// The view's statistics with the observed cardinalities folded in.
    pub stats: Statistics,
    pub memo: MemoSnapshot,
}

/// Re-optimize the last query when its worst recorded q-error exceeds
/// `threshold`: fold the offending observations into a copy of the
/// statistics (scan-shaped nodes snap the extent's row count to the
/// observed cardinality via [`Statistics::observe_extent_rows`]; other
/// nodes re-collect the extent from the stored data), re-run the search
/// and the lowering under the corrected copy, and journal the whole
/// re-derivation as one `reoptimize` step.  `last` is updated to the
/// re-derived plan.  `None` when no plan has run, nothing was observed
/// past the threshold — or the statistics were never collected: before
/// the first `analyze` they are shape defaults, and "correcting" them
/// would churn plans without any collected baseline.
pub(crate) fn reoptimize(
    view: View<'_>,
    store: &ObjectStore,
    opts: Options,
    last: &mut Option<LastPlan>,
    threshold: f64,
    metrics: &mut SessionMetrics,
    telemetry: &mut Telemetry,
) -> Option<Reoptimized> {
    if view.stats.objects.is_empty() {
        return None;
    }
    let plan_hash = last.as_ref()?.2;
    let mut trigger = 1.0f64;
    // Cloned on the first correction: most calls find nothing to fix.
    let mut fixed: Option<Statistics> = None;
    let mut corrected: Vec<(String, f64, f64)> = Vec::new();
    for e in telemetry.feedback.entries() {
        if e.plan_hash != plan_hash || e.max_q_error <= threshold {
            continue;
        }
        trigger = trigger.max(e.max_q_error);
        let Some(extent) = &e.extent else { continue };
        if corrected.iter().any(|(n, _, _)| n == extent) {
            continue;
        }
        let stats = fixed.get_or_insert_with(|| view.stats.clone());
        let before = stats.object(extent).rows;
        if e.op.contains("Scan") {
            stats.observe_extent_rows(extent, e.mean_actual());
        } else {
            collect_object_statistics(&view.catalog, store, extent, stats);
        }
        corrected.push((extent.clone(), before, stats.object(extent).rows));
    }
    let stats = fixed?;
    let (label, plan, _) = last.take()?;

    let mut view = View {
        stats: &stats,
        ..view
    };
    let cost_before = cost_of(&plan, &stats);
    let (found, search_journal, memo) = search(&view, &plan);
    let lowered = lower(&mut view, &found, opts.columnar, opts.property_rewrites);
    let cost_after = cost_of(&found, &stats);
    let new_hash = plan_hash_of(&lowered.physical);
    // One `reoptimize` journal step for the re-derivation itself, after
    // the inner search and lowering journals.
    let mut step = RewriteJournal::for_plan(cost_before);
    step.steps.push(JournalStep {
        rule: REOPTIMIZE_RULE,
        path: Vec::new(),
        cost_before,
        cost_after,
        plan: found.clone(),
    });
    step.final_cost = cost_after;
    for journal in [&search_journal, &lowered.journal, &step] {
        metrics.record_journal(journal);
    }
    telemetry.registry.inc("reoptimize.triggered");
    telemetry.recorder.record(QueryRecord {
        query: format!("reoptimize({label})"),
        plan_hash: new_hash,
        engine: "reoptimize".to_string(),
        rows: 0,
        phase_us: Vec::new(),
        kernels: Vec::new(),
        est_rows: None,
        actual_rows: None,
    });
    *last = Some((label.clone(), found.clone(), new_hash));
    Some(Reoptimized {
        report: ReoptReport {
            label,
            trigger_q_error: trigger,
            threshold,
            corrected,
            cost_before,
            cost_after,
            plan_hash_before: plan_hash,
            plan_hash_after: new_hash,
            plan: found,
        },
        stats,
        memo,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use excess_core::counters::Counters;

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
