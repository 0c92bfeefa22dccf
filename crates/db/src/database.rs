//! The end-to-end EXTRA/EXCESS engine: DDL, queries, updates, methods,
//! statistics, and extent indexes behind one `Database` type.

use crate::catalog::{extent_view_name, DbCatalog};
use crate::error::{DbError, DbResult};
use crate::metrics::SessionMetrics;
use crate::pipeline::{self, CatalogRef, LastPlan, Options, ReoptReport, Source, View};
use crate::stats::{changed_counts, Sketches};
use excess_core::counters::Counters;
use excess_core::eval::{evaluate, EvalCtx};
use excess_core::expr::Expr;
use excess_core::physical::PhysicalPlan;
use excess_core::profile::Profile;
use excess_core::verify::Report;
use excess_exec::{ExecConfig, ExecOutcome, ExecReport, Tracing};
use excess_lang::ast::{QExpr, QPred, Retrieve, Step, Stmt};
use excess_lang::ddl::{initial_value, lower_type};
use excess_lang::methods::{MethodDef, MethodRegistry};
use excess_lang::translate::{resolve_this, translate_retrieve, TranslateCtx};
use excess_lang::{parse_program, LangError};
use excess_optimizer::{
    elide_proven_guards, estimate_physical, lower, MemoSnapshot, RewriteJournal, Statistics,
};
use excess_telemetry::{QueryTrace, Telemetry};
use excess_types::{ObjectStore, SchemaType, TypeId, TypeRegistry, Value};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Render a verifier [`Report`] as the `diagnostics:` block `explain` and
/// `explain_analyze` append — empty string when there is nothing to say.
fn render_diagnostics(r: &Report) -> String {
    if r.diagnostics.is_empty() {
        return String::new();
    }
    let mut out = String::from("diagnostics:\n");
    for d in &r.diagnostics {
        out.push_str("  ");
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out
}

/// Render the `physical plan:` block `explain_analyze` appends: one line
/// per lowered spine node whose kernel is more than a pass-through, with
/// the lowering's estimated rows next to the measured rows at that node
/// (`—` when the profile has no node at the path, as can happen for
/// partition-local fragment profiles).
fn render_physical_choices(plan: &PhysicalPlan, profile: &Profile) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for (path, choice) in &plan.choices {
        if matches!(choice.op, excess_core::physical::PhysOp::PassThrough) {
            continue;
        }
        if out.is_empty() {
            out.push_str("physical plan:\n");
        }
        let actual = profile
            .node(path)
            .map(|n| n.rows_out.to_string())
            .unwrap_or_else(|| "—".to_string());
        let est = choice
            .est_rows
            .map(|r| format!("{r:.0}"))
            .unwrap_or_else(|| "?".to_string());
        let _ = write!(
            out,
            "  {} {}  est rows={est} actual rows={actual}",
            excess_core::profile::path_string(path),
            choice.op,
        );
        if !choice.why.is_empty() {
            let _ = write!(out, "  ({})", choice.why);
        }
        out.push('\n');
    }
    out
}

/// A stored procedure: a parameterised script of statements.
#[derive(Debug, Clone)]
struct Procedure {
    params: Vec<(String, SchemaType)>,
    body: Vec<Stmt>,
}

/// What [`Database::parts`] lends to one pipeline call.
struct Parts<'a> {
    view: View<'a>,
    store: &'a mut ObjectStore,
    metrics: &'a mut SessionMetrics,
    telemetry: &'a mut Telemetry,
    last_plan: &'a mut Option<LastPlan>,
}

/// An in-memory EXTRA/EXCESS database.
///
/// `Clone` copies the maps — schema, catalog and store entries, methods,
/// metrics — and shares every stored value with the original (a `Value`
/// clone is a reference count; a later write copies the node it changes).
/// The session layer ([`crate::session`]) leans on this for atomic
/// commits: a request is applied to a clone of the master and the clone
/// is swapped in only when every statement succeeded.
#[derive(Clone)]
pub struct Database {
    registry: TypeRegistry,
    store: ObjectStore,
    catalog: DbCatalog,
    ranges: HashMap<String, QExpr>,
    methods: MethodRegistry,
    procedures: HashMap<String, Procedure>,
    stats: Statistics,
    /// The counted sketches `stats.objects` is derived from: none until
    /// the first collection, then maintained by every data statement
    /// (`crate::stats`).
    sketches: Sketches,
    /// Run the rule-based optimizer on every query (default: on).
    pub optimize: bool,
    /// Run the property-licensed rewrite pass and guard-elision pass on
    /// every query (default: off — the passes re-analyse the stored data
    /// per query, and the figure-convergence suite pins the standard
    /// greedy rule sequences).  Journaled under `property-licensed`;
    /// elisions are counted in the telemetry registry
    /// (`lowering.guard_elisions`).
    pub property_rewrites: bool,
    /// Use columnar extent chunks and vectorized kernels where the
    /// lowering proves them safe (default: off).  When on, the pipeline
    /// encodes referenced base extents into column chunks
    /// ([`Database::ensure_chunks_for`]) and upgrades chunk-safe kernel
    /// choices to their `Columnar*` variants, journaled under
    /// `columnar-lowering`; chunk-unsafe nodes keep their row kernels
    /// with the refusal reason journaled.
    pub columnar: bool,
    /// Parallel-execution configuration; `retrieve` statements route
    /// through the partition-parallel engine whenever `workers > 1`
    /// (default: from `EXCESS_THREADS`, serial when unset).
    exec: ExecConfig,
    /// q-error threshold above which a feedback observation for the
    /// current plan triggers a re-optimization (stats corrected from the
    /// observed cardinalities, plan re-optimized and re-lowered, the step
    /// journaled under `reoptimize`).
    pub reopt_threshold: f64,
    /// Memo picture of the last plan search.
    last_memo: Option<MemoSnapshot>,
    /// Label, optimized logical plan, and physical plan hash of the last
    /// pipeline query — what `.reoptimize` forces a re-lower of.
    last_plan: Option<LastPlan>,
    /// The last feedback-driven re-optimization, if any.
    last_reopt: Option<ReoptReport>,
    last_counters: Counters,
    last_exec_report: Option<ExecReport>,
    metrics: SessionMetrics,
    telemetry: Telemetry,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        let (exec, warning) = ExecConfig::from_env_checked();
        let mut db = Database {
            registry: TypeRegistry::new(),
            store: ObjectStore::new(),
            catalog: DbCatalog::new(),
            ranges: HashMap::new(),
            methods: MethodRegistry::new(),
            procedures: HashMap::new(),
            stats: Statistics::new(),
            sketches: Sketches::default(),
            optimize: true,
            property_rewrites: false,
            columnar: false,
            exec,
            reopt_threshold: 32.0,
            last_memo: None,
            last_plan: None,
            last_reopt: None,
            last_counters: Counters::new(),
            last_exec_report: None,
            metrics: SessionMetrics::new(),
            telemetry: Telemetry::new(),
        };
        if let Some(w) = warning {
            db.warn(w);
        }
        // Flight-recorder tuning rides the same pure-parse-then-warn path
        // as `EXCESS_THREADS`: bad values fall back to the defaults and
        // surface in `.metrics` / the JSON snapshot instead of being
        // silently ignored.
        let rec = excess_telemetry::RecorderSettings::from_env();
        for w in rec.warnings.clone() {
            db.warn(w);
        }
        db.telemetry.recorder = rec.build();
        db
    }

    /// Record a configuration warning in both the session metrics and the
    /// telemetry registry (`config.warnings` counter).
    fn warn(&mut self, warning: String) {
        self.telemetry.registry.inc("config.warnings");
        self.metrics.record_warning(warning);
    }

    // ----- accessors (used by examples and benchmarks) -----

    /// The type registry.
    pub fn registry(&self) -> &TypeRegistry {
        &self.registry
    }
    /// The object store.
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }
    /// Mutable object store (bulk loading).
    pub fn store_mut(&mut self) -> &mut ObjectStore {
        &mut self.store
    }
    /// The catalog.
    pub fn catalog(&self) -> &DbCatalog {
        &self.catalog
    }
    /// The session's `range of` declarations, by variable name.
    pub fn ranges(&self) -> &HashMap<String, QExpr> {
        &self.ranges
    }
    /// The method registry.
    pub fn methods(&self) -> &MethodRegistry {
        &self.methods
    }
    /// Current statistics.
    pub fn statistics(&self) -> &Statistics {
        &self.stats
    }
    /// Mutable statistics — lets experiments install deliberately stale
    /// estimates to exercise the feedback-driven re-optimization path.
    pub fn statistics_mut(&mut self) -> &mut Statistics {
        &mut self.stats
    }
    /// How many elements the statistics code has hashed the attributes
    /// of so far: every element of every object per collection, and per
    /// data statement the elements it added or removed (an element of a
    /// set counts when its last occurrence goes or its first arrives).
    /// A deterministic measure of statistics work.
    pub fn stats_elements(&self) -> u64 {
        self.sketches.tallied()
    }
    /// Have statistics been collected (so that data statements maintain
    /// them)?
    pub(crate) fn stats_collected(&self) -> bool {
        self.sketches.collected()
    }
    /// Memo picture of the last plan search (None before the first
    /// optimized query).
    pub fn last_memo(&self) -> Option<&MemoSnapshot> {
        self.last_memo.as_ref()
    }
    /// The last feedback-driven re-optimization, if one has fired.
    pub fn last_reoptimization(&self) -> Option<&ReoptReport> {
        self.last_reopt.as_ref()
    }
    /// Work counters of the most recent evaluation.
    pub fn last_counters(&self) -> Counters {
        self.last_counters
    }
    /// Cumulative per-session metrics (queries, counters, rule firings).
    pub fn metrics(&self) -> &SessionMetrics {
        &self.metrics
    }
    /// The current parallel-execution configuration.
    pub fn exec_config(&self) -> ExecConfig {
        self.exec
    }
    /// Replace the parallel-execution configuration.
    pub fn set_exec_config(&mut self, cfg: ExecConfig) {
        self.exec = cfg;
    }
    /// Set the worker-thread count (1 = serial; clamped to ≥ 1).  A
    /// request for zero workers is clamped *and* surfaced as a session
    /// warning rather than silently adjusted.
    pub fn set_threads(&mut self, workers: usize) {
        if workers == 0 {
            self.warn(
                "set_threads(0) requests zero workers; clamped to serial (1 worker)".to_string(),
            );
        }
        self.exec = ExecConfig::with_workers(workers);
    }

    /// Apply a worker-count *setting string* (the `EXCESS_THREADS` format)
    /// to the session, surfacing a warning when the value is unparsable or
    /// zero instead of silently falling back to serial.
    pub fn set_threads_setting(&mut self, setting: Option<&str>) {
        let (cfg, warning) = ExecConfig::from_setting(setting);
        if let Some(w) = warning {
            self.warn(w);
        }
        self.exec = cfg;
    }
    /// The execution journal of the most recent parallel run (strategies,
    /// exchanges, fallbacks, per-worker skew), if any.
    pub fn last_exec_report(&self) -> Option<&ExecReport> {
        self.last_exec_report.as_ref()
    }
    /// Zero the session metrics registry.
    pub fn reset_metrics(&mut self) {
        self.metrics.reset();
    }

    // ----- telemetry -----

    /// The session telemetry: metric registry, latency histograms, flight
    /// recorder, and misestimation feedback log.  The registry, recorder,
    /// and feedback log are always on; span traces are opt-in via
    /// [`Database::enable_query_spans`].
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Mutable telemetry (configure the slow-query threshold, reset, …).
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// Turn full query-span traces on or off.  While on, every query run
    /// through the pipeline executes with profiling and assembles a
    /// [`QueryTrace`] covering parse → infer → verify → optimize → lower →
    /// execute (with per-rewrite, per-choice, per-operator, and per-worker
    /// children), retrievable via [`Database::last_query_trace`].
    pub fn enable_query_spans(&mut self, on: bool) {
        self.telemetry.spans_enabled = on;
        if !on {
            self.telemetry.last_trace = None;
        }
    }

    /// The span tree of the most recent traced query, if spans are on and
    /// a query has run since.
    pub fn last_query_trace(&self) -> Option<&QueryTrace> {
        self.telemetry.last_trace.as_ref()
    }

    /// Update a stored object's value (bulk loading outside the DDL path).
    pub fn update_stored(&mut self, oid: excess_types::Oid, value: Value) -> DbResult<()> {
        let old = self.store.deref(oid)?.clone();
        self.store.update(&self.registry, oid, value)?;
        self.stored_object_changed(oid, &old);
        Ok(())
    }

    /// Register an object directly (bulk loading outside the DDL path).
    pub fn put_object(&mut self, name: &str, schema: SchemaType, value: Value) {
        self.catalog.put(name, schema, value);
        self.rewritten(name);
    }

    /// Define a type directly (bulk loading outside the DDL path).
    pub fn define_type_raw(
        &mut self,
        name: &str,
        body: SchemaType,
        inherits: &[&str],
    ) -> DbResult<TypeId> {
        let id = self.registry.define_with_supertypes(name, body, inherits)?;
        self.refile_all_extents();
        Ok(id)
    }

    // ----- statement execution -----

    /// Parse and execute a program; returns the last statement's value
    /// (queries return their result; DDL and updates return `true`).
    pub fn execute(&mut self, src: &str) -> DbResult<Value> {
        let parse_started = Instant::now();
        let stmts = parse_program(src)?;
        let parse_us = parse_started.elapsed().as_micros() as u64;
        self.run_program(src, &stmts, parse_us)
    }

    /// [`Database::execute`] for a caller that parsed `src` into `stmts`
    /// itself (in `parse_us`) because it also needs the statements — the
    /// committer classifies what it executes.
    pub(crate) fn run_program(
        &mut self,
        src: &str,
        stmts: &[Stmt],
        parse_us: u64,
    ) -> DbResult<Value> {
        if stmts.is_empty() {
            return Err(DbError::Other("empty program".into()));
        }
        // The first retrieve of the program owns the parse time and the
        // source text for flight-recorder attribution.
        let mut attribution = Some((src.trim(), parse_us));
        let mut last = Value::bool(true);
        for s in stmts {
            last = self.run_attributed(s, &mut attribution)?;
        }
        Ok(last)
    }

    /// Execute one parsed statement.
    pub fn run_stmt(&mut self, stmt: &Stmt) -> DbResult<Value> {
        self.run_attributed(stmt, &mut None)
    }

    /// [`Database::run_stmt`] inside a parsed program: the first
    /// `retrieve` takes the program's text and parse time as its
    /// flight-record label and parse phase; later ones (and statements run
    /// on their own) are labelled `retrieve` with no parse time.
    fn run_attributed(
        &mut self,
        stmt: &Stmt,
        attribution: &mut Option<(&str, u64)>,
    ) -> DbResult<Value> {
        match stmt {
            Stmt::DefineType {
                name,
                body,
                inherits,
            } => {
                let body = lower_type(body);
                let sups: Vec<&str> = inherits.iter().map(String::as_str).collect();
                self.registry.define_with_supertypes(name, body, &sups)?;
                self.refile_all_extents();
                Ok(Value::bool(true))
            }
            Stmt::Create { name, ty } => {
                if self.catalog.contains(name) {
                    return Err(DbError::Other(format!("object `{name}` already exists")));
                }
                let schema = lower_type(ty);
                let init = initial_value(&schema, &self.registry)?;
                self.catalog.put(name, schema, init);
                self.resweep(name);
                Ok(Value::bool(true))
            }
            Stmt::DefineFunction {
                on_type,
                name,
                params,
                returns,
                body,
            } => {
                self.registry.lookup(on_type)?;
                let params: Vec<(String, SchemaType)> = params
                    .iter()
                    .map(|(n, t)| (n.clone(), lower_type(t)))
                    .collect();
                let tc = TranslateCtx {
                    registry: &self.registry,
                    schemas: &self.catalog,
                    ranges: &self.ranges,
                    methods: &self.methods,
                    this_type: Some(SchemaType::named(on_type.clone())),
                    params: params.clone(),
                };
                let last = body.last().expect("parser guarantees non-empty body");
                let (plan, _) = translate_retrieve(last, &tc)?;
                let plan = resolve_this(&plan);
                self.methods.define(MethodDef {
                    owner: on_type.clone(),
                    name: name.clone(),
                    params,
                    returns: lower_type(returns),
                    body: plan,
                })?;
                Ok(Value::bool(true))
            }
            Stmt::RangeDecl { var, source } => {
                self.ranges.insert(var.clone(), source.clone());
                Ok(Value::bool(true))
            }
            Stmt::Retrieve(r) => {
                let (label, parse_us) = attribution.take().unwrap_or(("retrieve", 0));
                let (value, ty) =
                    self.run_pipeline(label, Source::Retrieve { stmt: r, parse_us })?;
                if let Some(into) = &r.into {
                    let ty = ty.expect("a retrieve source carries its result type");
                    self.catalog.put(into, ty, value.clone());
                    self.rewritten(into);
                }
                Ok(value)
            }
            Stmt::DefineProcedure { name, params, body } => {
                // Validate the parameter types exist; bodies are checked
                // lazily at call time (they may reference objects created
                // by earlier statements of the same call).
                let params: Vec<(String, SchemaType)> = params
                    .iter()
                    .map(|(n, t)| (n.clone(), lower_type(t)))
                    .collect();
                for (_, t) in &params {
                    for mentioned in t.mentioned_types() {
                        self.registry.lookup(mentioned)?;
                    }
                }
                self.procedures.insert(
                    name.clone(),
                    Procedure {
                        params,
                        body: body.clone(),
                    },
                );
                Ok(Value::bool(true))
            }
            Stmt::Call { name, args } => self.call_procedure(name, args),
            Stmt::Append { target, value } => self.append(target, value),
            Stmt::Delete { target, filter } => self.delete(target, filter),
            Stmt::Replace {
                target,
                fields,
                filter,
            } => self.replace(target, fields, filter.as_ref()),
            Stmt::AssignIndex {
                target,
                index,
                value,
            } => self.assign_index(target, *index, value),
        }
    }

    // ----- the pipeline's view of this database -----

    /// A read-only view for `&self` planning entry points.
    fn view(&self) -> View<'_> {
        View {
            registry: &self.registry,
            catalog: CatalogRef::Frozen(&self.catalog),
            methods: &self.methods,
            stats: &self.stats,
            ranges: &self.ranges,
        }
    }

    /// Disjoint borrows of everything one pipeline call touches: the view
    /// with the catalog owned (so the columnar lowering can encode missing
    /// chunks), the object store, and the slots a run is recorded into.
    fn parts(&mut self) -> Parts<'_> {
        Parts {
            view: View {
                registry: &self.registry,
                catalog: CatalogRef::Owned(&mut self.catalog),
                methods: &self.methods,
                stats: &self.stats,
                ranges: &self.ranges,
            },
            store: &mut self.store,
            metrics: &mut self.metrics,
            telemetry: &mut self.telemetry,
            last_plan: &mut self.last_plan,
        }
    }

    fn options(&self) -> Options {
        Options {
            optimize: self.optimize,
            property_rewrites: self.property_rewrites,
            columnar: self.columnar,
            exec: self.exec,
            spans: self.telemetry.spans_enabled,
        }
    }

    // ----- planning -----

    /// Translate a retrieve to its (unoptimized) algebra plan.
    pub fn translate(&self, r: &Retrieve) -> DbResult<(Expr, SchemaType)> {
        pipeline::translate(&self.view(), r)
    }

    /// Parse a single `retrieve` and return its unoptimized plan.
    pub fn plan_for(&self, src: &str) -> DbResult<Expr> {
        let stmt = excess_lang::parse_statement(src)?;
        match stmt {
            Stmt::Retrieve(r) => Ok(self.translate(&r)?.0),
            _ => Err(DbError::Lang(LangError::Parse(
                "expected a retrieve".into(),
            ))),
        }
    }

    /// Rule-based optimization — the memoized group search — plus
    /// extent-index rewriting.
    pub fn optimize_plan(&self, plan: &Expr) -> Expr {
        pipeline::search(&self.view(), plan).0
    }

    /// [`Database::optimize_plan`] with its rewrite journal: every
    /// accepted rule firing — rule name, node path (memo steps carry the
    /// group id as their path), cost before/after — the plans-enumerated
    /// tally, any rewrites the soundness gate refused, and the final
    /// extent-index substitution phase under the rule name
    /// `extent-index-substitution`.  The memo's group picture is retained
    /// for [`Database::last_memo`].  The run is folded into the session
    /// [`SessionMetrics`].
    pub fn optimize_plan_journaled(&mut self, plan: &Expr) -> (Expr, RewriteJournal) {
        let (best, journal, memo) = pipeline::search(&self.view(), plan);
        self.last_memo = Some(memo);
        self.metrics.record_journal(&journal);
        (best, journal)
    }

    /// Force a feedback-driven re-optimization of the most recent
    /// pipeline query: any recorded misestimation for its plan (q-error
    /// above 1) triggers the corrections.  What the `.reoptimize`
    /// dot-command runs.  Returns `None` when no plan has run, nothing
    /// was observed for it, or the database has never been analyzed.
    pub fn reoptimize_last(&mut self) -> Option<ReoptReport> {
        self.reoptimize_threshold(1.0)
    }

    /// Re-optimize the most recent pipeline query when its worst recorded
    /// q-error exceeds `threshold`: the observations are folded back into
    /// the statistics, the plan is re-searched and re-lowered, and the
    /// re-derivation is journaled as one `reoptimize` step.  The automatic
    /// trigger — after every traced or `explain_analyze` query — uses
    /// [`Database::reopt_threshold`].
    fn reoptimize_threshold(&mut self, threshold: f64) -> Option<ReoptReport> {
        let opts = self.options();
        let p = self.parts();
        let done = pipeline::reoptimize(
            p.view,
            p.store,
            opts,
            p.last_plan,
            threshold,
            p.metrics,
            p.telemetry,
        )?;
        self.stats = done.stats;
        self.last_memo = Some(done.memo);
        self.last_reopt = Some(done.report.clone());
        Some(done.report)
    }

    /// Derive per-node plan properties (duplicate-freeness, candidate
    /// keys, nullability, cardinality bounds) against this database's
    /// stored data — the data-backed mode of
    /// `excess_core::analysis::analyze` (the verifier runs the same pass
    /// data-free).
    pub fn analyze_plan_props(&self, plan: &Expr) -> excess_core::analysis::Analysis {
        excess_core::analysis::analyze(plan, &self.catalog)
    }

    /// Apply every property-licensed rewrite provable against the stored
    /// data (drop DE/ARR_DE over proven duplicate-free inputs, prune
    /// proven-empty union/difference/concat branches), journaled under
    /// the rule name `property-licensed` and gated by the same rewrite-
    /// soundness check as the rule catalogue.  The journal is folded into
    /// the session [`SessionMetrics`].
    pub fn property_rewrites_journaled(&mut self, plan: &Expr) -> (Expr, RewriteJournal) {
        let (out, journal) = pipeline::property_rewrites(&self.view(), plan);
        self.metrics.record_journal(&journal);
        (out, journal)
    }

    /// Elide proven-redundant hash-join runtime guards on a lowered plan
    /// (see `excess_optimizer::elide_proven_guards`), counting each
    /// elision in the telemetry registry under `lowering.guard_elisions`.
    pub fn elide_plan_guards(
        &mut self,
        physical: &mut PhysicalPlan,
    ) -> Vec<(excess_core::profile::NodePath, String)> {
        let elided = elide_proven_guards(physical, &self.catalog);
        self.telemetry
            .registry
            .add("lowering.guard_elisions", elided.len() as u64);
        elided
    }

    /// Lower a logical plan to a physical plan under the session's
    /// statistics: per spine node, the kernel the engines will run —
    /// hash equi-join vs nested loop for `rel_join`, hash
    /// grouping/distinct, scans — with the reason for each choice.  The
    /// logical tree is carried unchanged; see `excess_core::physical` for
    /// the soundness story.  The journal records one accepted step under
    /// `physical-lowering` (logical cost before, physical cost after) plus
    /// one refused step per join that stayed a nested loop and why.  With
    /// [`Database::columnar`] on, referenced extents are chunk-encoded
    /// ([`Database::ensure_chunks_for`]), chunk-safe kernel choices are
    /// upgraded to their `Columnar*` variants, and the journal gains one
    /// accepted step under `columnar-lowering` (when anything upgraded)
    /// plus one refused step per candidate that kept its row kernel and
    /// why.  The journal is folded into the session [`SessionMetrics`], so
    /// lowering shows up in `rules_fired` next to the algebraic rules.
    pub fn lower_plan(&mut self, plan: &Expr) -> (PhysicalPlan, RewriteJournal) {
        let columnar = self.columnar;
        let mut p = self.parts();
        let lowered = pipeline::lower(&mut p.view, plan, columnar, false);
        pipeline::count_chunks_built(&mut p.telemetry.registry, lowered.chunks_built);
        p.metrics.record_journal(&lowered.journal);
        (lowered.physical, lowered.journal)
    }

    /// Encode a column chunk for every base extent the plan scans whose
    /// value is a chunk-safe multiset (uniform flat tuples) and whose
    /// chunk is not already cached.  The nullability facts from
    /// `excess_core::analysis` drive the encoding: attributes the
    /// analysis proves present and free of both nulls are encoded without
    /// a validity bitmap.  Returns how many chunks were built; each build
    /// bumps the `columnar.chunks_built` telemetry counter.
    pub fn ensure_chunks_for(&mut self, plan: &Expr) -> usize {
        let built = pipeline::ensure_chunks(&mut self.catalog, plan);
        pipeline::count_chunks_built(&mut self.telemetry.registry, built);
        built
    }

    /// Run a programmatically built plan through the full query pipeline —
    /// optimize (when enabled) → lower → execute on the session's engine —
    /// with telemetry: counters and latency histograms are updated, the
    /// flight recorder gets a `QueryRecord` labelled `label`, and, when
    /// spans are enabled, a full [`QueryTrace`] is assembled.  This is the
    /// telemetry-covered entry point for benchmark figures and tests that
    /// construct algebra plans directly instead of going through `execute`.
    pub fn run_query_plan(&mut self, label: &str, plan: &Expr) -> DbResult<Value> {
        Ok(self.run_pipeline(label, Source::Plan(plan))?.0)
    }

    /// One query through [`pipeline::run`], recorded: the value and, for
    /// `retrieve` sources, its declared type.
    fn run_pipeline(
        &mut self,
        label: &str,
        source: Source<'_>,
    ) -> DbResult<(Value, Option<SchemaType>)> {
        let opts = self.options();
        let p = self.parts();
        let mut outcome = pipeline::run(p.view, p.store, opts, label, source, None)?;
        pipeline::record(&mut outcome, label, p.metrics, p.telemetry);
        // No cache shares the plan: this unwraps, it does not clone.
        let planned = Arc::unwrap_or_clone(outcome.planned);
        self.last_memo = outcome.memo;
        self.last_counters = outcome.ran.counters;
        self.last_exec_report = Some(outcome.ran.report);
        self.last_plan = Some((
            label.to_string(),
            planned.physical.logical,
            planned.plan_hash,
        ));
        if opts.spans {
            // With fresh per-node observations in hand, re-derive the
            // plan when its recorded q-error crossed the threshold.
            let _ = self.reoptimize_threshold(self.reopt_threshold);
        }
        Ok((outcome.ran.value, outcome.schema))
    }

    /// Statically verify a plan against this database's catalog and type
    /// registry: every diagnostic (errors *and* lints), each with the node
    /// path it was found at.  See `excess_core::verify` for the taxonomy.
    pub fn verify_plan(&self, plan: &Expr) -> Report {
        excess_core::verify::verify(plan, &self.catalog, &self.registry)
    }

    /// Garbage-sweep the object store: every object unreachable from the
    /// named top-level objects is removed.  Returns how many objects were
    /// collected.  (Queries that mint temporaries with `mkref` and then
    /// discard them leave such garbage behind.)
    pub fn sweep(&mut self) -> usize {
        let roots: Vec<Value> = self
            .catalog
            .names()
            .filter_map(|n| self.catalog.value(n).cloned())
            .collect();
        self.store.sweep_unreachable(roots.iter())
    }

    /// Dump the schema as EXTRA DDL: every `define type` (in definition
    /// order, so `inherits` references resolve) and every `create`.
    /// Feeding the dump to a fresh database reproduces the catalog shape
    /// (data is not dumped — OIDs have no surface form).
    pub fn dump_schema(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for id in self.registry.all_ids() {
            let def = self.registry.def(id);
            let _ = write!(
                out,
                "define type {}: {}",
                def.name,
                excess_lang::ddl::type_to_surface(&def.body)
            );
            if !def.supertypes.is_empty() {
                let sups: Vec<&str> = def
                    .supertypes
                    .iter()
                    .map(|s| self.registry.name_of(*s))
                    .collect();
                let _ = write!(out, " inherits {}", sups.join(", "));
            }
            out.push('\n');
        }
        let mut names: Vec<&str> = self.catalog.names().collect();
        names.sort_unstable();
        for n in names {
            if let Some(s) = self.catalog.schema(n) {
                let _ = writeln!(out, "create {n}: {}", excess_lang::ddl::type_to_surface(s));
            }
        }
        out
    }

    /// Infer the output schema of a plan against this database's catalog
    /// and type registry (closure property of the algebra, Section 3).
    pub fn infer_schema(&self, plan: &Expr) -> DbResult<SchemaType> {
        Ok(excess_core::infer::infer_closed(
            plan,
            &self.catalog,
            &self.registry,
        )?)
    }

    /// EXPLAIN: the plan as an operator tree plus the cost model's
    /// estimates (the paper's Section 6 "reading" of a plan).  When the
    /// verifier has anything to say about the plan — errors or lints — a
    /// `diagnostics:` section follows the estimates; clean plans render
    /// exactly as before.
    pub fn explain(&self, plan: &Expr) -> String {
        let mut env = Vec::new();
        let est = excess_optimizer::estimate(plan, &mut env, &self.stats);
        let mut out = format!(
            "{}est. cost {:.0}, est. rows {:.0}\n",
            excess_core::render::render_tree(plan),
            est.cost,
            est.rows
        );
        let pp = lower(plan, &self.stats);
        let phys = estimate_physical(&pp, &self.stats);
        out.push_str(&format!("physical plan (est. cost {:.0}):\n", phys.cost));
        out.push_str(&pp.render());
        out.push_str(&render_diagnostics(&self.verify_plan(plan)));
        out
    }

    /// Evaluate a plan against the database, recording work counters.
    pub fn run_plan(&mut self, plan: &Expr) -> DbResult<Value> {
        let started = Instant::now();
        let (out, counters) = {
            let mut ctx = EvalCtx::new(&self.registry, &mut self.store, &self.catalog);
            (evaluate(plan, &mut ctx), ctx.counters)
        };
        self.last_counters = counters;
        self.metrics.record_query(counters, started.elapsed());
        Ok(out?)
    }

    /// Evaluate a lowered plan on the session's engine ([`ExecConfig`],
    /// see [`Database::set_threads`]): hash and columnar kernels run where
    /// the plan chose them (subject to each kernel's own runtime guard),
    /// everything else evaluates exactly as [`Database::run_plan`] — a
    /// plan with no choices (`PhysicalPlan::passthrough`) *is*
    /// `run_plan`.  Under a parallel configuration the partition driver
    /// splits work by the plan's choices; one worker, OID-minting plans
    /// and plans that fail verification run the serial interpreter, with
    /// the reason journaled in the returned report.  `tracing` selects
    /// per-operator profiling (precise or coarse timestamps); it changes
    /// neither results nor counters.  Counters, session metrics and
    /// [`Database::last_exec_report`] are recorded.
    pub fn run_lowered(&mut self, plan: &PhysicalPlan, tracing: Tracing) -> DbResult<ExecOutcome> {
        let exec = self.exec;
        let started = Instant::now();
        let p = self.parts();
        let out = pipeline::execute(&p.view, p.store, plan, exec, tracing)?;
        self.last_counters = out.counters;
        self.metrics.record_query_mode(
            out.counters,
            started.elapsed(),
            pipeline::effective_workers(&out.report),
        );
        self.last_exec_report = Some(out.report.clone());
        Ok(out)
    }

    /// EXPLAIN ANALYZE: execute the plan with profiling and render the
    /// operator tree annotated with per-node actuals (calls, rows in→out,
    /// self counters, ms and share of the query) next to the cost model's
    /// static per-node estimates.
    /// Under a parallel [`ExecConfig`] the plan runs through the
    /// partition engine instead and a `parallel execution:` section
    /// (workers, occurrence skew, per-node strategy journal, per-worker
    /// accounting) is appended.  Per-node actuals then reflect the
    /// partition-local fragment plans merged by path, which align with
    /// the original tree only approximately — the appended section is the
    /// authoritative record of what ran where.
    pub fn explain_analyze(&mut self, plan: &Expr) -> DbResult<String> {
        let estimates = excess_optimizer::estimate_nodes(plan, &self.stats);
        let physical = lower(plan, &self.stats);
        let ran = self.run_lowered(&physical, Tracing::Precise)?;
        let profile = ran.profile.expect("tracing was enabled");
        // Every analyze feeds the misestimation log: per lowered node with
        // an estimate and a measured profile entry, est vs actual rows.
        let plan_hash = pipeline::plan_hash_of(&physical);
        self.last_plan = Some(("explain_analyze".to_string(), plan.clone(), plan_hash));
        pipeline::observe(
            &mut self.telemetry.feedback,
            plan_hash,
            &physical,
            pipeline::value_rows(&ran.value),
            Some(&profile),
        );
        let mut out = crate::explain::render_explain_analyze(plan, &profile, &estimates);
        // The kernel block slots in above the `total:` footer so the
        // footer stays the render's last line.
        let phys = render_physical_choices(&physical, &profile);
        if !phys.is_empty() {
            match out.rfind("\ntotal: ") {
                Some(pos) => out.insert_str(pos + 1, &phys),
                None => out.push_str(&phys),
            }
        }
        if self.exec.is_parallel() {
            out.push_str(&crate::explain::render_parallel_execution(&ran.report));
        }
        out.push_str(&render_diagnostics(&self.verify_plan(plan)));
        // Close the loop: a q-error past the session threshold re-derives
        // the plan right here, and the correction becomes part of the
        // explain output.
        if let Some(reopt) = self.reoptimize_threshold(self.reopt_threshold) {
            out.push_str(&reopt.render());
        }
        Ok(out)
    }

    // ----- statistics & extent indexes -----

    /// Recompute statistics from the current data (cardinalities,
    /// duplication, per-attribute NDVs, nested sizes, exact-type
    /// fractions).  From then on every data statement keeps its targets'
    /// statistics current from what it changed; call this again after
    /// writing through [`Database::store_mut`], which bypasses that.
    pub fn collect_stats(&mut self) {
        let mut stats = self
            .sketches
            .collect(&self.catalog, &self.registry, &self.store);
        stats.extent_indexes = std::mem::take(&mut self.stats.extent_indexes);
        self.stats = stats;
    }

    /// ANALYZE: recollect statistics from the store and return them — the
    /// entry point that makes the optimizer's Figure 6→8 derivation run
    /// from measured duplication rather than defaults (the paper's
    /// Section 6 "useful statistics" made operational).
    pub fn analyze(&mut self) -> &Statistics {
        self.collect_stats();
        &self.stats
    }

    /// Declare (and materialise) a per-exact-type extent index on a
    /// top-level set — the Section 4 index that makes the ⊎ plan scan-free.
    pub fn create_extent_index(&mut self, object: &str, ty: &str) -> DbResult<()> {
        self.registry.lookup(ty)?;
        if !self.catalog.contains(object) {
            return Err(DbError::Other(format!("unknown object `{object}`")));
        }
        self.stats.add_extent_index(object, ty);
        self.refile_extents(object);
        Ok(())
    }

    // ----- maintained state: extents and statistics -----
    //
    // The per-exact-type extents and the statistics are derived from the
    // stored sets.  A statement that rewrites an object wholesale (`create`,
    // `retrieve … into`, `put_object`) re-derives that object's; every
    // other data statement hands over what it changed — the elements whose
    // count moved, or a stored object whose value did — and the extents,
    // the sketches and the statistics follow from that alone.

    /// `object` was written wholesale: re-sweep it and re-file its extents.
    fn rewritten(&mut self, object: &str) {
        self.resweep(object);
        self.refile_extents(object);
    }

    /// A new type may be the exact type (§3.1) of elements already
    /// stored: re-file every extent.
    fn refile_all_extents(&mut self) {
        let indexed: Vec<String> = self.stats.extent_indexes.keys().cloned().collect();
        for object in indexed {
            self.refile_extents(&object);
        }
    }

    /// Re-filter each extent of `object` from the whole set — one exact
    /// type per element — and re-sweep it.
    fn refile_extents(&mut self, object: &str) {
        let Some(types) = self.stats.extent_indexes.get(object) else {
            return;
        };
        let Some(Value::Set(base)) = self.catalog.value(object) else {
            return;
        };
        let mut extents: Vec<(String, excess_types::MultiSet)> = types
            .iter()
            .map(|ty| (ty.clone(), excess_types::MultiSet::new()))
            .collect();
        for (elem, card) in base.iter_counted() {
            let Some(ty) = self.exact_type_of(elem) else {
                continue;
            };
            let ty = self.registry.name_of(ty);
            if let Some((_, extent)) = extents.iter_mut().find(|(t, _)| t == ty) {
                extent.insert_n(elem.clone(), card);
            }
        }
        for (ty, extent) in extents {
            let name = extent_view_name(object, &ty);
            let schema = SchemaType::set(SchemaType::named(ty));
            self.catalog.put(&name, schema, Value::Set(extent));
            self.resweep(&name);
        }
    }

    /// Sweep `name`'s value into a fresh sketch and publish it — once
    /// statistics have been collected at all (before that they are shape
    /// defaults, with no baseline to keep current).
    fn resweep(&mut self, name: &str) {
        if !self.sketches.collected() {
            return;
        }
        if let Some(value) = self.catalog.value(name) {
            self.sketches.sweep(name, value, &self.store);
            self.derive_stats(name);
        }
    }

    /// `object`'s value was replaced by one computed from `old`: apply the
    /// difference element by element when both are sets, start over
    /// otherwise.
    fn rewrote(&mut self, object: &str, old: &Value) {
        let new = self.catalog.value(object).cloned();
        let (Value::Set(old), Some(Value::Set(new))) = (old, &new) else {
            return self.rewritten(object);
        };
        self.set_changed(object, changed_counts(old, new));
    }

    /// The set `object` (already written) changed by `(element, count
    /// before, count after)`: its sketch follows, and so do the extents
    /// the elements belong to and their sketches; then the statistics of
    /// all of them are published.
    fn set_changed<'v>(
        &mut self,
        object: &str,
        changes: impl IntoIterator<Item = (&'v Value, u64, u64)>,
    ) {
        let mut extents: Vec<String> = Vec::new();
        for (elem, before, after) in changes {
            let extent = self.count_changed(object, elem, before, after);
            if let Some(extent) = extent.filter(|e| !extents.contains(e)) {
                extents.push(extent);
            }
        }
        self.derive_stats(object);
        for extent in extents {
            self.derive_stats(&extent);
        }
    }

    /// One element's count in the set `object` went from `before` to
    /// `after`: so does it in the one extent whose exact type it has, if
    /// that type is indexed.  Returns that extent's name.
    fn count_changed(
        &mut self,
        object: &str,
        elem: &Value,
        before: u64,
        after: u64,
    ) -> Option<String> {
        self.sketches
            .set_count(object, elem, before, after, &self.store);
        let types = self.stats.extent_indexes.get(object)?;
        let ty = self.registry.name_of(self.exact_type_of(elem)?);
        if !types.contains(ty) {
            return None;
        }
        let name = extent_view_name(object, ty);
        let Some(Value::Set(extent)) = self.catalog.value_mut(&name) else {
            return None;
        };
        let had = extent.count(elem);
        if after > had {
            extent.insert_n(elem.clone(), after - had);
        } else {
            extent.remove_n(elem, had - after);
        }
        self.sketches
            .set_count(&name, elem, had, after, &self.store);
        Some(name)
    }

    /// The stored object `oid` held `old`: every object referencing it
    /// re-tallies it (its exact type, and so every extent, is unchanged).
    fn stored_object_changed(&mut self, oid: excess_types::Oid, old: &Value) {
        if !self.sketches.collected() {
            return;
        }
        let touched = self
            .sketches
            .stored_object_changed(&self.catalog, &self.store, oid, old);
        for name in touched {
            self.derive_stats(&name);
        }
    }

    /// Publish `name`'s sketch as its statistics.
    fn derive_stats(&mut self, name: &str) {
        if let Some(sketch) = self.sketches.get(name) {
            let object = sketch.object_stats(self.stats.default_avg_nested);
            self.stats.objects.insert(name.to_string(), object);
        }
    }

    /// Exact (most specific) type of a value (store lookup for refs,
    /// shape match for tuples).
    pub fn exact_type_of(&self, v: &Value) -> Option<TypeId> {
        excess_core::eval::exact_type_of_parts(v, &self.registry, &self.store)
    }

    // ----- updates -----

    fn eval_standalone(&mut self, q: &QExpr) -> DbResult<(Value, SchemaType)> {
        // A zero-variable retrieve denotes the bare expression value.
        let r = Retrieve {
            unique: false,
            targets: vec![excess_lang::ast::Target {
                label: None,
                expr: q.clone(),
            }],
            from: vec![],
            filter: None,
            by: None,
            into: None,
        };
        let (plan, ty) = self.translate(&r)?;
        let v = self.run_plan(&plan)?;
        Ok((v, ty))
    }

    /// Coerce a value into an element slot: when the slot is `ref T` and
    /// the value is not already a reference, create an object of `T` and
    /// reference it (the convenient EXTRA idiom for populating `{ ref T }`
    /// sets).
    fn coerce_element(&mut self, elem_ty: &SchemaType, v: Value) -> DbResult<Value> {
        if let SchemaType::Ref(t) = elem_ty {
            if !matches!(v, Value::Ref(_)) && !v.is_null() {
                let ty = self.registry.lookup(t)?;
                let oid = self.store.create(&self.registry, ty, v)?;
                return Ok(Value::Ref(oid));
            }
        }
        excess_types::domain::check_dom(&v, elem_ty, &self.registry)?;
        Ok(v)
    }

    fn append(&mut self, target: &str, value: &QExpr) -> DbResult<Value> {
        let schema = self
            .catalog
            .schema(target)
            .cloned()
            .ok_or_else(|| DbError::Other(format!("unknown object `{target}`")))?;
        let (v, _) = self.eval_standalone(value)?;
        match schema {
            SchemaType::Set(elem) => {
                let v = self.coerce_element(&elem, v)?;
                let cur = self
                    .catalog
                    .value_mut(target)
                    .ok_or_else(|| DbError::Other(format!("unknown object `{target}`")))?;
                let (before, after) = match cur {
                    Value::Set(s) => {
                        let before = s.count(&v);
                        s.insert(v.clone());
                        (before, s.count(&v))
                    }
                    other => {
                        return Err(DbError::Other(format!(
                            "object `{target}` is not a multiset (found {})",
                            other.kind_name()
                        )))
                    }
                };
                self.set_changed(target, [(&v, before, after)]);
            }
            SchemaType::Arr { elem, len } => {
                if len.is_some() {
                    return Err(DbError::Other(format!(
                        "`{target}` is a fixed-length array; use `assign {target}[i] (…)`"
                    )));
                }
                let v = self.coerce_element(&elem, v)?;
                let cur = self
                    .catalog
                    .value_mut(target)
                    .ok_or_else(|| DbError::Other(format!("unknown object `{target}`")))?;
                match cur {
                    Value::Array(a) => Arc::make_mut(a).push(v.clone()),
                    other => {
                        return Err(DbError::Other(format!(
                            "object `{target}` is not an array (found {})",
                            other.kind_name()
                        )))
                    }
                }
                self.sketches.array_element(target, &v, true, &self.store);
                self.derive_stats(target);
            }
            other => {
                return Err(DbError::Other(format!(
                    "cannot append to `{target}` of type {other}"
                )))
            }
        }
        Ok(Value::bool(true))
    }

    fn delete(&mut self, target: &str, filter: &QPred) -> DbResult<Value> {
        if !self.catalog.contains(target) {
            return Err(DbError::Other(format!("unknown object `{target}`")));
        }
        // Rewrite references to the target (by its own name, or through a
        // `range of` alias) into the deletion variable, then keep the
        // complement.
        let var = "$del".to_string();
        let rewritten = rewrite_pred(filter, target, &self.ranges, &var);
        let survivors = Retrieve {
            unique: false,
            targets: vec![excess_lang::ast::Target {
                label: None,
                expr: QExpr::Var(var.clone()),
            }],
            from: vec![(var, QExpr::Var(target.to_string()))],
            filter: Some(QPred::Not(Box::new(rewritten))),
            by: None,
            into: None,
        };
        let (plan, _) = self.translate(&survivors)?;
        let v = self.run_plan(&plan)?;
        let slot = self
            .catalog
            .value_mut(target)
            .ok_or_else(|| DbError::Other(format!("unknown object `{target}`")))?;
        let old = std::mem::replace(slot, v);
        self.rewrote(target, &old);
        Ok(Value::bool(true))
    }

    /// Execute a stored procedure: substitute the actual arguments for the
    /// formals across the body, then run the statements in order.  The
    /// value of the last statement is returned (like `execute`).
    fn call_procedure(&mut self, name: &str, args: &[QExpr]) -> DbResult<Value> {
        let proc = self
            .procedures
            .get(name)
            .cloned()
            .ok_or_else(|| DbError::Other(format!("unknown procedure `{name}`")))?;
        if args.len() != proc.params.len() {
            return Err(DbError::Other(format!(
                "procedure `{name}` takes {} arguments, {} given",
                proc.params.len(),
                args.len()
            )));
        }
        // Arguments are evaluated once, eagerly, and injected as literal
        // values where possible; non-literal results (sets, tuples) are
        // also values, so this is call-by-value.
        let mut bindings: HashMap<String, QExpr> = HashMap::new();
        for ((pname, pty), actual) in proc.params.iter().zip(args) {
            let (v, _) = self.eval_standalone(actual)?;
            excess_types::domain::check_dom(&v, pty, &self.registry)
                .map_err(|e| DbError::Other(format!("argument `{pname}` of `{name}`: {e}")))?;
            bindings.insert(pname.clone(), value_to_qexpr(&v)?);
        }
        let mut last = Value::bool(true);
        for stmt in &proc.body {
            let expanded = excess_lang::subst::subst_stmt(stmt, &bindings);
            last = self.run_stmt(&expanded)?;
        }
        Ok(last)
    }

    /// `replace X (f: e, …) where P`: update the listed fields of every
    /// qualifying element.  For `{ ref T }` sets the referenced objects
    /// are updated **in place** — identity preserved, so sharers observe
    /// the change; for by-value sets the multiset is rebuilt.
    fn replace(
        &mut self,
        target: &str,
        fields: &[(String, QExpr)],
        filter: Option<&QPred>,
    ) -> DbResult<Value> {
        let schema = self
            .catalog
            .schema(target)
            .cloned()
            .ok_or_else(|| DbError::Other(format!("unknown object `{target}`")))?;
        let SchemaType::Set(elem_schema) = schema else {
            return Err(DbError::Other(format!("`{target}` is not a multiset")));
        };
        let is_ref = matches!(*elem_schema, SchemaType::Ref(_));

        // One query computes, per qualifying element, the old value and
        // the new field values: references to the element inside the
        // update expressions and the predicate go through the same
        // rewriting as `delete`.
        let var = "$upd".to_string();
        let mut targets = vec![excess_lang::ast::Target {
            label: Some("$old".into()),
            expr: QExpr::Var(var.clone()),
        }];
        for (f, e) in fields {
            targets.push(excess_lang::ast::Target {
                label: Some(format!("$new${f}")),
                expr: rewrite_expr(e, target, &self.ranges, &var),
            });
        }
        let pairs = Retrieve {
            unique: false,
            targets,
            from: vec![(var.clone(), QExpr::Var(target.to_string()))],
            filter: filter.map(|p| rewrite_pred(p, target, &self.ranges, &var)),
            by: None,
            into: None,
        };
        let (plan, _) = self.translate(&pairs)?;
        let rows = self.run_plan(&plan)?;
        let Value::Set(rows) = rows else {
            return Err(DbError::Other(
                "replace query did not yield a multiset".into(),
            ));
        };

        if is_ref {
            for (row, _) in rows.iter_counted() {
                let t = row
                    .as_tuple()
                    .ok_or_else(|| DbError::Other("replace row is not a tuple".into()))?;
                let Some(oid) = t.get("$old").and_then(Value::as_ref_oid) else {
                    continue; // dne slot
                };
                let old = self.store.deref(oid)?.clone();
                let mut obj_fields = match old.clone() {
                    Value::Tuple(obj) => obj.into_fields(),
                    other => {
                        return Err(DbError::Other(format!(
                            "referenced element is not a tuple (found {})",
                            other.kind_name()
                        )))
                    }
                };
                apply_updates(&mut obj_fields, fields, t)?;
                self.store.update(
                    &self.registry,
                    oid,
                    Value::Tuple(excess_types::Tuple::from_fields(obj_fields)),
                )?;
                self.stored_object_changed(oid, &old);
            }
        } else {
            let mut set = match self.catalog.value(target) {
                Some(Value::Set(s)) => s.clone(),
                _ => return Err(DbError::Other(format!("`{target}` is not a multiset"))),
            };
            for (row, card) in rows.iter_counted() {
                let t = row
                    .as_tuple()
                    .ok_or_else(|| DbError::Other("replace row is not a tuple".into()))?;
                let old = t.extract("$old")?.clone();
                let mut elem_fields = match old.clone() {
                    Value::Tuple(e) => e.into_fields(),
                    other => {
                        return Err(DbError::Other(format!(
                            "replace needs tuple elements (found {})",
                            other.kind_name()
                        )))
                    }
                };
                apply_updates(&mut elem_fields, fields, t)?;
                let updated = Value::Tuple(excess_types::Tuple::from_fields(elem_fields));
                excess_types::domain::check_dom(&updated, &elem_schema, &self.registry)?;
                // Move `card` occurrences from old to updated.
                let mut remove = excess_types::MultiSet::new();
                remove.insert_n(old, card);
                set = set.difference(&remove);
                set.insert_n(updated, card);
            }
            let slot = self
                .catalog
                .value_mut(target)
                .ok_or_else(|| DbError::Other(format!("unknown object `{target}`")))?;
            let old = std::mem::replace(slot, Value::Set(set));
            self.rewrote(target, &old);
        }
        Ok(Value::bool(true))
    }

    fn assign_index(
        &mut self,
        target: &str,
        index: excess_lang::ast::IndexExpr,
        value: &QExpr,
    ) -> DbResult<Value> {
        let schema = self
            .catalog
            .schema(target)
            .cloned()
            .ok_or_else(|| DbError::Other(format!("unknown object `{target}`")))?;
        let SchemaType::Arr { elem, .. } = schema else {
            return Err(DbError::Other(format!("`{target}` is not an array")));
        };
        let (v, _) = self.eval_standalone(value)?;
        let v = self.coerce_element(&elem, v)?;
        let cur = self
            .catalog
            .value_mut(target)
            .ok_or_else(|| DbError::Other(format!("unknown object `{target}`")))?;
        let Value::Array(a) = cur else {
            return Err(DbError::Other(format!("`{target}` is not an array value")));
        };
        let i = match index {
            excess_lang::ast::IndexExpr::At(n) => n,
            excess_lang::ast::IndexExpr::Last => a.len(),
        };
        if i == 0 || i > a.len() {
            return Err(DbError::Other(format!(
                "index {i} out of bounds for `{target}` (length {})",
                a.len()
            )));
        }
        let old = std::mem::replace(&mut Arc::make_mut(a)[i - 1], v.clone());
        self.sketches
            .array_element(target, &old, false, &self.store);
        self.sketches.array_element(target, &v, true, &self.store);
        self.derive_stats(target);
        Ok(Value::bool(true))
    }
}

/// Render an evaluated argument back to a surface expression for
/// substitution.  OIDs have no literal form; they are impossible to pass
/// by value here (arguments are checked against surface-declarable types,
/// and any `ref` argument arrives as an OID that we reject with a clear
/// message).
fn value_to_qexpr(v: &Value) -> DbResult<QExpr> {
    use excess_types::{Null, Scalar};
    Ok(match v {
        Value::Scalar(Scalar::Int4(i)) => QExpr::Int(i64::from(*i)),
        Value::Scalar(Scalar::Float4(x)) => QExpr::Float(*x),
        Value::Scalar(Scalar::Char(s)) => QExpr::Str(s.clone()),
        Value::Scalar(Scalar::Bool(b)) => QExpr::Bool(*b),
        Value::Scalar(Scalar::Date(d)) => QExpr::Call {
            name: "date".into(),
            args: vec![
                QExpr::Int(i64::from(d.year)),
                QExpr::Int(i64::from(d.month)),
                QExpr::Int(i64::from(d.day)),
            ],
        },
        Value::Null(Null::Dne) => QExpr::DneLit,
        Value::Null(Null::Unk) => QExpr::UnkLit,
        Value::Tuple(t) => QExpr::TupLit(
            t.iter()
                .map(|(n, fv)| value_to_qexpr(fv).map(|e| (n.to_string(), e)))
                .collect::<DbResult<Vec<_>>>()?,
        ),
        Value::Set(s) => QExpr::SetLit(
            s.iter_occurrences()
                .map(value_to_qexpr)
                .collect::<DbResult<Vec<_>>>()?,
        ),
        Value::Array(a) => {
            QExpr::ArrLit(a.iter().map(value_to_qexpr).collect::<DbResult<Vec<_>>>()?)
        }
        Value::Ref(o) => {
            return Err(DbError::Other(format!(
                "procedure arguments cannot carry object references ({o}); \
                 pass a key and look the object up inside the procedure"
            )))
        }
    })
}

/// Overwrite `obj_fields` with the computed `$new$<f>` values of one row.
fn apply_updates(
    obj_fields: &mut [(String, Value)],
    fields: &[(String, QExpr)],
    row: &excess_types::Tuple,
) -> DbResult<()> {
    for (f, _) in fields {
        let new_v = row.extract(&format!("$new${f}"))?.clone();
        let slot = obj_fields
            .iter_mut()
            .find(|(n, _)| n == f)
            .ok_or_else(|| DbError::Other(format!("element has no field `{f}` to replace")))?;
        slot.1 = new_v;
    }
    Ok(())
}

/// Rewrite target-object references (direct or via `range of` aliases)
/// inside a delete/replace predicate into the update variable.
fn rewrite_pred(p: &QPred, target: &str, ranges: &HashMap<String, QExpr>, var: &str) -> QPred {
    match p {
        QPred::Cmp { l, op, r } => QPred::Cmp {
            l: Box::new(rewrite_expr(l, target, ranges, var)),
            op: *op,
            r: Box::new(rewrite_expr(r, target, ranges, var)),
        },
        QPred::And(a, b) => QPred::And(
            Box::new(rewrite_pred(a, target, ranges, var)),
            Box::new(rewrite_pred(b, target, ranges, var)),
        ),
        QPred::Or(a, b) => QPred::Or(
            Box::new(rewrite_pred(a, target, ranges, var)),
            Box::new(rewrite_pred(b, target, ranges, var)),
        ),
        QPred::Not(q) => QPred::Not(Box::new(rewrite_pred(q, target, ranges, var))),
    }
}

fn rewrite_expr(q: &QExpr, target: &str, ranges: &HashMap<String, QExpr>, var: &str) -> QExpr {
    match q {
        QExpr::Var(n) => {
            let aliases_target =
                n == target || matches!(ranges.get(n), Some(QExpr::Var(t)) if t == target);
            if aliases_target {
                QExpr::Var(var.to_string())
            } else {
                q.clone()
            }
        }
        QExpr::Path { base, steps } => QExpr::Path {
            base: Box::new(rewrite_expr(base, target, ranges, var)),
            steps: steps
                .iter()
                .map(|s| match s {
                    Step::Method { name, args } => Step::Method {
                        name: name.clone(),
                        args: args
                            .iter()
                            .map(|a| rewrite_expr(a, target, ranges, var))
                            .collect(),
                    },
                    other => other.clone(),
                })
                .collect(),
        },
        QExpr::Binary { op, l, r } => QExpr::Binary {
            op: *op,
            l: Box::new(rewrite_expr(l, target, ranges, var)),
            r: Box::new(rewrite_expr(r, target, ranges, var)),
        },
        QExpr::Neg(e) => QExpr::Neg(Box::new(rewrite_expr(e, target, ranges, var))),
        QExpr::Call { name, args } => QExpr::Call {
            name: name.clone(),
            args: args
                .iter()
                .map(|a| rewrite_expr(a, target, ranges, var))
                .collect(),
        },
        other => other.clone(),
    }
}
