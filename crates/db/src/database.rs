//! The end-to-end EXTRA/EXCESS engine: DDL, queries, updates, methods,
//! statistics, and extent indexes behind one `Database` type.

use crate::catalog::{extent_view_name, DbCatalog};
use crate::error::{DbError, DbResult};
use crate::pipeline::{self, Options, Source, View};
use crate::stats::{changed_counts, Sketches};
use excess_core::counters::Counters;
use excess_core::eval::{evaluate, EvalCtx};
use excess_core::expr::Expr;
use excess_core::physical::PhysicalPlan;
use excess_core::verify::Report;
use excess_exec::{ExecOutcome, Tracing};
use excess_lang::ast::{QExpr, QPred, Retrieve, Step, Stmt};
use excess_lang::ddl::{initial_value, lower_type};
use excess_lang::methods::{MethodDef, MethodRegistry};
use excess_lang::translate::{resolve_this, translate_retrieve, TranslateCtx};
use excess_lang::{parse_program, LangError};
use excess_optimizer::{estimate_physical, lower, MemoSnapshot, RewriteJournal, Statistics};
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
    telemetry: &'a mut Telemetry,
}

/// An in-memory EXTRA/EXCESS database.
///
/// `Clone` copies no component a snapshot can see: the type registry,
/// the `range of` declarations, the methods and the statistics are
/// `Arc`s, and the catalog and the object store each share their map
/// ([`DbCatalog`], [`ObjectStore`]).  Every write goes through
/// [`Arc::make_mut`], so a component is copied at its first write after a
/// clone, once, and only if written — and even then every stored value
/// is shared (a `Value` clone is a reference count; a later write copies
/// the node it changes).  The session layer ([`crate::session`]) leans on
/// this twice: a request is applied to a clone of the master, swapped in
/// only when every statement succeeded, and a published generation
/// shares each component with the master by reference count.
#[derive(Clone)]
pub struct Database {
    // The four `Arc`s a generation shares as they are (`crate::session`).
    pub(crate) registry: Arc<TypeRegistry>,
    store: ObjectStore,
    catalog: DbCatalog,
    pub(crate) ranges: Arc<HashMap<String, QExpr>>,
    pub(crate) methods: Arc<MethodRegistry>,
    procedures: HashMap<String, Procedure>,
    pub(crate) stats: Arc<Statistics>,
    /// The counted sketches `stats.objects` is derived from: none until
    /// the first collection, then maintained by every data statement
    /// (`crate::stats`).
    sketches: Sketches,
    /// Run the rule-based optimizer on every query (default: on).
    pub optimize: bool,
    /// Memo picture of the last plan search.
    last_memo: Option<MemoSnapshot>,
    last_counters: Counters,
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
        Database {
            registry: Arc::new(TypeRegistry::new()),
            store: ObjectStore::new(),
            catalog: DbCatalog::new(),
            ranges: Arc::new(HashMap::new()),
            methods: Arc::new(MethodRegistry::new()),
            procedures: HashMap::new(),
            stats: Arc::new(Statistics::new()),
            sketches: Sketches::default(),
            optimize: true,
            last_memo: None,
            last_counters: Counters::new(),
            telemetry: Telemetry::new(),
        }
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
    /// Work counters of the most recent evaluation.
    pub fn last_counters(&self) -> Counters {
        self.last_counters
    }

    // ----- telemetry -----

    /// The session telemetry: metric registry, latency histograms and
    /// flight recorder.  The registry is the one metrics store — every
    /// evaluation's `queries` and `work.*`, every journaled optimization's
    /// `optimizer.*` and `rules.<name>.fired` — and it and the recorder
    /// are always on; span traces are opt-in via
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
    /// [`QueryTrace`] covering parse → translate → verify → optimize → lower →
    /// execute (with per-rewrite, per-choice and per-operator children),
    /// retrievable via [`Database::last_query_trace`].
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
                Arc::make_mut(&mut self.registry).define_with_supertypes(name, body, &sups)?;
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
                Arc::make_mut(&mut self.methods).define(MethodDef {
                    owner: on_type.clone(),
                    name: name.clone(),
                    params,
                    returns: lower_type(returns),
                    body: plan,
                })?;
                Ok(Value::bool(true))
            }
            Stmt::RangeDecl { var, source } => {
                Arc::make_mut(&mut self.ranges).insert(var.clone(), source.clone());
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
            catalog: &self.catalog,
            methods: &self.methods,
            stats: &self.stats,
            ranges: &self.ranges,
        }
    }

    /// Disjoint borrows of everything one pipeline call touches: the view,
    /// the object store, and the slots a run is recorded into.
    fn parts(&mut self) -> Parts<'_> {
        Parts {
            view: View {
                registry: &self.registry,
                catalog: &self.catalog,
                methods: &self.methods,
                stats: &self.stats,
                ranges: &self.ranges,
            },
            store: &mut self.store,
            telemetry: &mut self.telemetry,
        }
    }

    fn options(&self) -> Options {
        Options {
            optimize: self.optimize,
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
    /// for [`Database::last_memo`].  The run is folded into the telemetry
    /// registry (`optimizer.*`, `rules.<name>.fired`).
    pub fn optimize_plan_journaled(&mut self, plan: &Expr) -> (Expr, RewriteJournal) {
        let (best, journal, memo) = pipeline::search(&self.view(), plan);
        self.last_memo = Some(memo);
        pipeline::record_search(&mut self.telemetry.registry, &journal);
        (best, journal)
    }

    /// Lower a logical plan to a physical plan under the session's
    /// statistics: per spine node, the kernel the engine will run —
    /// hash equi-join vs nested loop for `rel_join`, hash
    /// grouping/distinct, scans — with the reason for each choice.  The
    /// logical tree is carried unchanged; see `excess_core::physical` for
    /// the soundness story.  The journal records one accepted step under
    /// `physical-lowering` (logical cost before, physical cost after) plus
    /// one refused step per join that stayed a nested loop and why.  The
    /// journal is folded into the telemetry registry, so lowering shows up
    /// as `rules.physical-lowering.fired` next to the algebraic rules.
    pub fn lower_plan(&mut self, plan: &Expr) -> (PhysicalPlan, RewriteJournal) {
        let (physical, journal) = pipeline::lower(&self.view(), plan);
        pipeline::record_journal(&mut self.telemetry.registry, &journal);
        (physical, journal)
    }

    /// Run a programmatically built plan through the full query pipeline —
    /// optimize (when enabled) → lower → execute —
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
        pipeline::record(&mut outcome, label, p.telemetry);
        self.last_memo = outcome.memo;
        self.last_counters = outcome.ran.counters;
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
    /// and type registry (closure property of the algebra, Section 3): the
    /// schema [`Database::verify_plan`] reports, or its first error.
    pub fn infer_schema(&self, plan: &Expr) -> DbResult<SchemaType> {
        let report = self.verify_plan(plan);
        if let Some(d) = report.errors().next() {
            return Err(DbError::Infer(d.to_string()));
        }
        report
            .schema
            .ok_or_else(|| DbError::Infer("the plan has no output schema".to_string()))
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

    /// Evaluate a plan against the database, recording work counters
    /// (`queries` and `work.*` in the telemetry registry).
    pub fn run_plan(&mut self, plan: &Expr) -> DbResult<Value> {
        let (out, counters) = {
            let mut ctx = EvalCtx::new(&self.registry, &mut self.store, &self.catalog);
            (evaluate(plan, &mut ctx), ctx.counters)
        };
        self.last_counters = counters;
        pipeline::record_work(&mut self.telemetry.registry, counters);
        Ok(out?)
    }

    /// Evaluate a lowered plan: hash kernels run where the plan chose them
    /// (subject to each kernel's own runtime guard), everything else
    /// evaluates exactly as [`Database::run_plan`] — a plan with no
    /// choices (`PhysicalPlan::passthrough`) *is* `run_plan`.  `tracing`
    /// selects per-operator profiling; it changes neither results nor
    /// counters.  Counters are recorded as [`Database::run_plan`] records
    /// them.
    pub fn run_lowered(&mut self, plan: &PhysicalPlan, tracing: Tracing) -> DbResult<ExecOutcome> {
        let p = self.parts();
        let out = pipeline::execute(&p.view, p.store, plan, tracing)?;
        pipeline::record_work(&mut p.telemetry.registry, out.counters);
        self.last_counters = out.counters;
        Ok(out)
    }

    /// EXPLAIN ANALYZE: execute the plan with profiling and render the
    /// operator tree annotated with per-node actuals (calls, rows in→out,
    /// self counters, ms and share of the query) next to the cost model's
    /// static per-node estimates.
    pub fn explain_analyze(&mut self, plan: &Expr) -> DbResult<String> {
        let estimates = excess_optimizer::estimate_nodes(plan, &self.stats);
        let physical = lower(plan, &self.stats);
        let ran = self.run_lowered(&physical, Tracing::Precise)?;
        let profile = ran.profile.expect("tracing was enabled");
        let mut out = crate::explain::render_explain_analyze(plan, &profile, &estimates);
        // The kernel block slots in above the `total:` footer so the
        // footer stays the render's last line.
        let phys = physical.render_choices(&profile);
        if !phys.is_empty() {
            match out.rfind("\ntotal: ") {
                Some(pos) => out.insert_str(pos + 1, &phys),
                None => out.push_str(&phys),
            }
        }
        out.push_str(&render_diagnostics(&self.verify_plan(plan)));
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
        stats.extent_indexes = self.stats.extent_indexes.clone();
        self.stats = Arc::new(stats);
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
        Arc::make_mut(&mut self.stats).add_extent_index(object, ty);
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
            Arc::make_mut(&mut self.stats)
                .objects
                .insert(name.to_string(), object);
        }
    }

    /// Exact (most specific) type of a value (store lookup for refs,
    /// shape match for tuples).
    pub fn exact_type_of(&self, v: &Value) -> Option<TypeId> {
        excess_types::domain::exact_type_of(v, &self.registry, &self.store)
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
        // `delete from X where p` is X − σ_p(X) (§3.2).  Rewrite references
        // to the target (by its own name, or through a `range of` alias)
        // into the deletion variable and select the matches.  From a set,
        // each match carries all of its element's occurrences: they are
        // removed in place, and the statistics hear of those elements only.
        let var = "$del".to_string();
        let rewritten = rewrite_pred(filter, target, &self.ranges, &var);
        let mut query = Retrieve {
            unique: false,
            targets: vec![excess_lang::ast::Target {
                label: None,
                expr: QExpr::Var(var.clone()),
            }],
            from: vec![(var, QExpr::Var(target.to_string()))],
            filter: Some(rewritten),
            by: None,
            into: None,
        };
        let (plan, _) = self.translate(&query)?;
        if let Value::Set(matches) = self.run_plan(&plan)? {
            if !matches.contains(&Value::unk()) {
                return self.remove_matches(target, &matches);
            }
        }
        // An occurrence whose predicate is `unk` comes back from σ as a
        // bare `unk` (Kleene σ) and is deleted too, but it does not say
        // which element it stood for — nor does a matching `unk` element.
        // So keep the occurrences whose predicate is false instead, each
        // wrapped as `($keep: element)`, which tells a surviving `unk`
        // element from a bare `unk`.  A set drops the bare ones.  An array
        // (whose σ is ordered) always comes here and keeps each bare `unk`
        // in its element's place, as it always has.
        let p = query.filter.take().expect("set above");
        query.filter = Some(QPred::Not(Box::new(p)));
        query.targets[0].label = Some("$keep".into());
        let (plan, _) = self.translate(&query)?;
        let unwrap = |row: &Value| row.as_tuple().map(|t| t.extract("$keep").cloned());
        let kept = match self.run_plan(&plan)? {
            Value::Set(rows) => {
                let mut kept = excess_types::MultiSet::new();
                for (row, card) in rows.iter_counted() {
                    if let Some(elem) = unwrap(row) {
                        kept.insert_n(elem?, card);
                    }
                }
                Value::Set(kept)
            }
            Value::Array(rows) => Value::array(
                rows.iter()
                    .map(|row| unwrap(row).unwrap_or_else(|| Ok(row.clone())))
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            other => other,
        };
        let slot = self
            .catalog
            .value_mut(target)
            .ok_or_else(|| DbError::Other(format!("unknown object `{target}`")))?;
        let old = std::mem::replace(slot, kept);
        self.rewrote(target, &old);
        Ok(Value::bool(true))
    }

    /// Remove each element of `matches` from the set `target` as often as
    /// it occurs there.  Matching nothing writes nothing.
    fn remove_matches(
        &mut self,
        target: &str,
        matches: &excess_types::MultiSet,
    ) -> DbResult<Value> {
        if matches.is_empty() {
            return Ok(Value::bool(true));
        }
        let Some(Value::Set(set)) = self.catalog.value_mut(target) else {
            return Err(DbError::Other(format!("`{target}` is not a multiset")));
        };
        let changes: Vec<(&Value, u64, u64)> = matches
            .iter_counted()
            .map(|(elem, card)| {
                let before = set.count(elem);
                (elem, before, before - set.remove_n(elem, card))
            })
            .collect();
        self.set_changed(target, changes);
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
