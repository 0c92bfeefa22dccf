//! Sessions, snapshots, and the single-committer write path.
//!
//! This module turns the single-threaded [`Database`] into a concurrent,
//! multi-session engine with snapshot-isolated reads:
//!
//! * [`Generation`] — one immutable, `Arc`-shared version of the
//!   database state (registry, catalog, object store, `range of`
//!   declarations, methods, statistics).
//! * [`VersionedDb`] — the shared handle: a `RwLock`'d pointer to the
//!   current generation plus a dedicated **committer thread** that owns
//!   the master [`Database`].  Taking a snapshot is an `Arc` clone under
//!   a read lock held for nanoseconds; publishing a new generation is a
//!   pointer swap under the write lock.  Readers never block on writers
//!   beyond that swap, and never see a half-applied batch.
//! * [`Session`] — one client's view: a pinned generation, a scratch
//!   object store for temporary OIDs minted during evaluation, session-
//!   local `range of` declarations, and a per-session telemetry registry
//!   that folds into the database-wide one when the session closes.
//!
//! # Write path
//!
//! All mutation flows through [`VersionedDb::commit`] (usually via
//! [`Session::commit`]): the statement text is sent over a channel to
//! the committer thread, which drains the channel into a batch, applies
//! each request **atomically** (the request runs against a clone of the
//! master and the clone is swapped in only when every statement
//! succeeded — a failed request leaves no partial state), then publishes
//! one new generation for the whole batch.  None of that copies anything:
//! the master's registry, `range of` declarations, methods and statistics
//! are `Arc`s, and its catalog and object store share their maps, so the
//! trial clone, the generation and a session's refresh are reference
//! counts.  A component is copied at its first write in a request — once,
//! and only if the request writes it — and even then every value it did
//! not write stays shared (`Value` interiors are `Arc`s; a write copies
//! the one node it changes — DESIGN.md, *Value representation*).  Each
//! data statement applies what it changed to the statistics and per-type
//! extents as it runs — work proportional to the change, not to the
//! extent — so new snapshots plan against fresh cardinalities.  The
//! committer observes its own latency into the database-wide registry:
//! `committer.apply_us` per request, `committer.publish_us` and
//! `committer.batch_size` per batch.
//!
//! Every applied request is recorded in a commit history
//! ([`VersionedDb::history`]), which makes snapshot isolation testable:
//! replaying the history up to generation *g* on a fresh copy of the
//! initial database must be canon-identical to what a session pinned at
//! *g* observes.
//!
//! # Read path
//!
//! [`Session::query`] accepts a program of `range of` declarations and
//! `retrieve` statements (anything else must go through `commit`) and
//! runs the very pipeline [`Database::execute`] runs (`crate::pipeline`)
//! — translate → search → lower → execute — over the pinned generation,
//! with no span tree, and with this session's plan cache
//! (`crate::plan_cache`): a `retrieve` whose translated plan, schemas and
//! statistics are those a cached plan was derived under skips the search
//! and the lowering.
//! Statements that mint object identities during evaluation do so
//! in the session's private scratch store, leaving the shared generation
//! untouched.  A program is atomic: one that is rejected at any statement
//! leaves none of its `range of` declarations behind.

use crate::catalog::DbCatalog;
use crate::database::Database;
use crate::error::{DbError, DbResult};
use crate::pipeline::{self, Options, Source, View};
use crate::plan_cache::{CacheRef, PlanCache};
use excess_core::expr::Expr;
use excess_lang::ast::{QExpr, Stmt};
use excess_lang::methods::MethodRegistry;
use excess_lang::parse_program;
use excess_optimizer::{MemoSnapshot, Statistics};
use excess_telemetry::{Registry, Telemetry};
use excess_types::{ObjectStore, TypeRegistry, Value};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex, RwLock, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

/// One immutable, shared version of the database state.
///
/// Every component is behind an `Arc` shared with the master it was
/// published from, so generations that did not change a component share
/// it with their predecessor.  A changed catalog or store is a new map
/// whose values are still the predecessor's allocations except where a
/// statement wrote, so a long-lived snapshot costs memory proportional to
/// what has changed since it was taken, not to the whole database.
#[derive(Debug, Clone)]
pub struct Generation {
    /// Monotone version number; the seed database is generation 0.
    pub number: u64,
    /// Named types and the inheritance DAG.
    pub registry: Arc<TypeRegistry>,
    /// Named objects as of this generation.
    pub catalog: Arc<DbCatalog>,
    /// The object store as of this generation.
    pub store: Arc<ObjectStore>,
    /// Committed `range of` declarations.
    pub ranges: Arc<HashMap<String, QExpr>>,
    /// Stored methods.
    pub methods: Arc<MethodRegistry>,
    /// Optimizer statistics collected at publish time.
    pub stats: Arc<Statistics>,
}

impl Generation {
    /// `db` as generation `number`, sharing every component with it: the
    /// catalog and store share their maps, the rest are the same `Arc`s.
    fn from_database(number: u64, db: &Database) -> Self {
        Generation {
            number,
            registry: Arc::clone(&db.registry),
            catalog: Arc::new(db.catalog().clone()),
            store: Arc::new(db.store().clone()),
            ranges: Arc::clone(&db.ranges),
            methods: Arc::clone(&db.methods),
            stats: Arc::clone(&db.stats),
        }
    }

    /// What the pipeline reads of this generation under the `ranges` in
    /// force.
    fn view<'a>(&'a self, ranges: &'a HashMap<String, QExpr>) -> View<'a> {
        View {
            registry: &self.registry,
            catalog: &self.catalog,
            methods: &self.methods,
            stats: &self.stats,
            ranges,
        }
    }
}

/// One successfully applied commit batch: the generation it published
/// and the request sources it applied, in order.  Replaying every batch
/// with `generation <= g` onto a copy of the seed database reproduces
/// exactly what a session pinned at generation `g` observes — the
/// invariant the snapshot-isolation tests check.
#[derive(Debug, Clone)]
pub struct CommitBatch {
    /// The generation current after this batch (batches that touch no
    /// snapshot-visible component — e.g. procedure definitions — keep
    /// the previous number).
    pub generation: u64,
    /// Applied request sources, in application order.
    pub statements: Vec<String>,
    /// How the committer handled statistics for this batch:
    /// `"skipped: no extent data touched"`, `"incremental: a, b"`, or
    /// `"full (…)"` — the journaled record of the dirty-set decision.
    pub stats: String,
}

/// Counters describing a [`VersionedDb`]'s lifetime so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Current generation number.
    pub generation: u64,
    /// Sessions ever begun.
    pub sessions_opened: u64,
    /// Sessions closed (metrics merged into the global registry).
    pub sessions_closed: u64,
    /// Commit requests received by the committer.
    pub commit_requests: u64,
    /// Commit batches applied (each publishes at most one generation).
    pub commit_batches: u64,
    /// Batches that re-collected statistics with a full sweep.
    pub stats_full: u64,
    /// Batches whose statistics refresh was per-extent (dirty set known).
    pub stats_incremental: u64,
    /// Batches that skipped the statistics refresh entirely (no extent
    /// data touched).
    pub stats_skipped: u64,
    /// Elements whose attributes the committer's statistics code hashed
    /// ([`Database::stats_elements`] over the applied requests): the
    /// elements each statement added or removed, every element of every
    /// object per full sweep.
    pub stats_elements: u64,
}

struct CommitRequest {
    source: String,
    reply: Sender<CommitReply>,
}

struct CommitReply {
    result: Result<Value, String>,
    generation: u64,
}

/// Which generation components a batch of statements touched.
#[derive(Debug, Clone, Default)]
struct Dirty {
    registry: bool,
    data: bool,
    ranges: bool,
    methods: bool,
    /// Named objects the batch's data statements targeted — the dirty
    /// set that licenses an incremental statistics refresh.
    touched: BTreeSet<String>,
    /// A statement could have touched *anything* (procedure call): the
    /// dirty set is not trustworthy and only a full sweep is safe.
    data_unknown: bool,
}

impl Dirty {
    fn any(&self) -> bool {
        self.registry || self.data || self.ranges || self.methods
    }
}

/// Record what `stmt` dirtied; `extent_indexes` are the master's, which
/// re-files its per-type extents when a type is defined.
fn classify(stmt: &Stmt, extent_indexes: &BTreeMap<String, BTreeSet<String>>, d: &mut Dirty) {
    match stmt {
        Stmt::DefineType { .. } => {
            d.registry = true;
            if !extent_indexes.is_empty() {
                d.data = true;
                d.touched.extend(extent_indexes.keys().cloned());
            }
        }
        Stmt::DefineFunction { .. } => d.methods = true,
        Stmt::RangeDecl { .. } => d.ranges = true,
        // Procedures live on the master only (calling one is a write);
        // defining one touches no snapshot-visible component.
        Stmt::DefineProcedure { .. } => {}
        // A procedure body may contain any statement: conservatively
        // republish everything.
        Stmt::Call { .. } => {
            d.registry = true;
            d.data = true;
            d.ranges = true;
            d.methods = true;
            d.data_unknown = true;
        }
        Stmt::Create { name, .. } => {
            d.data = true;
            d.touched.insert(name.clone());
        }
        Stmt::Append { target, .. }
        | Stmt::Delete { target, .. }
        | Stmt::Replace { target, .. }
        | Stmt::AssignIndex { target, .. } => {
            d.data = true;
            d.touched.insert(target.clone());
        }
        Stmt::Retrieve(r) => {
            if let Some(into) = &r.into {
                d.data = true;
                d.touched.insert(into.clone());
            }
        }
    }
}

struct SharedState {
    current: RwLock<Arc<Generation>>,
    tx: Mutex<Option<Sender<CommitRequest>>>,
    handle: Mutex<Option<JoinHandle<Database>>>,
    global_registry: Mutex<Registry>,
    history: Mutex<Vec<CommitBatch>>,
    sessions_opened: AtomicU64,
    sessions_closed: AtomicU64,
    commit_requests: AtomicU64,
    commit_batches: AtomicU64,
    stats_full: AtomicU64,
    stats_incremental: AtomicU64,
    stats_skipped: AtomicU64,
    stats_elements: AtomicU64,
}

/// The shared, clonable handle to a versioned database: snapshot reads
/// through [`VersionedDb::begin_session`], writes through
/// [`VersionedDb::commit`], and a graceful [`VersionedDb::shutdown`]
/// that returns the master [`Database`].
#[derive(Clone)]
pub struct VersionedDb {
    shared: Arc<SharedState>,
}

impl VersionedDb {
    /// Take ownership of `db` as the master copy: publish it as
    /// generation 0 and start the committer thread.  Statistics are
    /// (re-)collected first so generation-0 snapshots plan against real
    /// cardinalities — the same policy the committer applies after every
    /// data-touching batch.
    pub fn new(mut db: Database) -> Self {
        db.collect_stats();
        let gen0 = Arc::new(Generation::from_database(0, &db));
        let (tx, rx) = mpsc::channel::<CommitRequest>();
        let shared = Arc::new(SharedState {
            current: RwLock::new(gen0),
            tx: Mutex::new(Some(tx)),
            handle: Mutex::new(None),
            global_registry: Mutex::new(Registry::new()),
            history: Mutex::new(Vec::new()),
            sessions_opened: AtomicU64::new(0),
            sessions_closed: AtomicU64::new(0),
            commit_requests: AtomicU64::new(0),
            commit_batches: AtomicU64::new(0),
            stats_full: AtomicU64::new(0),
            stats_incremental: AtomicU64::new(0),
            stats_skipped: AtomicU64::new(0),
            stats_elements: AtomicU64::new(0),
        });
        // The committer holds only a weak reference: when every handle
        // and session is gone the channel sender inside `SharedState`
        // drops, `recv` errors, and the thread exits on its own.
        let weak = Arc::downgrade(&shared);
        let handle = std::thread::Builder::new()
            .name("excess-committer".into())
            .spawn(move || committer_loop(db, rx, weak))
            .expect("spawning the committer thread");
        *shared.handle.lock().expect("handle lock") = Some(handle);
        VersionedDb { shared }
    }

    /// The current generation (an `Arc` clone under a briefly held read
    /// lock — readers never wait on a commit in progress).
    pub fn current(&self) -> Arc<Generation> {
        self.shared.current.read().expect("generation lock").clone()
    }

    /// The current generation number.
    pub fn generation(&self) -> u64 {
        self.current().number
    }

    /// Begin a session pinned to the current generation.
    pub fn begin_session(&self) -> Session {
        self.shared.sessions_opened.fetch_add(1, Ordering::Relaxed);
        let snapshot = self.current();
        let scratch = (*snapshot.store).clone();
        Session {
            db: self.clone(),
            snapshot,
            scratch,
            local_ranges: HashMap::new(),
            optimize: true,
            plans: PlanCache::default(),
            last: None,
            telemetry: Telemetry::new(),
            closed: false,
        }
    }

    /// Send one program to the committer and wait for it to be applied
    /// (or rejected).  Returns the value of the program's last statement
    /// and the generation current after the batch containing it.  The
    /// request is atomic: on error nothing was applied.
    pub fn commit(&self, source: &str) -> Result<(Value, u64), String> {
        let tx = self
            .shared
            .tx
            .lock()
            .expect("committer channel lock")
            .clone()
            .ok_or_else(|| "committer is shut down".to_string())?;
        let (reply_tx, reply_rx) = mpsc::channel();
        tx.send(CommitRequest {
            source: source.to_string(),
            reply: reply_tx,
        })
        .map_err(|_| "committer is shut down".to_string())?;
        let reply = reply_rx
            .recv()
            .map_err(|_| "committer dropped the request".to_string())?;
        reply.result.map(|v| (v, reply.generation))
    }

    /// Every applied commit batch so far, in order.
    pub fn history(&self) -> Vec<CommitBatch> {
        self.shared.history.lock().expect("history lock").clone()
    }

    /// Snapshot of the database-wide telemetry registry (closed sessions
    /// merged).
    pub fn global_registry(&self) -> Registry {
        self.shared
            .global_registry
            .lock()
            .expect("registry lock")
            .clone()
    }

    /// Fold one session's telemetry registry into the database-wide one
    /// (what [`Session::close`] calls).
    fn merge_session(&self, registry: &Registry) {
        self.shared
            .global_registry
            .lock()
            .expect("registry lock")
            .merge(registry);
    }

    /// Lifetime counters: generation, sessions, commit traffic.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            generation: self.generation(),
            sessions_opened: self.shared.sessions_opened.load(Ordering::Relaxed),
            sessions_closed: self.shared.sessions_closed.load(Ordering::Relaxed),
            commit_requests: self.shared.commit_requests.load(Ordering::Relaxed),
            commit_batches: self.shared.commit_batches.load(Ordering::Relaxed),
            stats_full: self.shared.stats_full.load(Ordering::Relaxed),
            stats_incremental: self.shared.stats_incremental.load(Ordering::Relaxed),
            stats_skipped: self.shared.stats_skipped.load(Ordering::Relaxed),
            stats_elements: self.shared.stats_elements.load(Ordering::Relaxed),
        }
    }

    /// Stop the committer (after the requests already queued are
    /// applied) and return the master [`Database`].  Later commits fail
    /// with "committer is shut down"; snapshots already taken — and new
    /// sessions — keep reading the last published generation.  Returns
    /// `None` when another handle already shut the committer down.
    pub fn shutdown(&self) -> Option<Database> {
        // Dropping the sender ends the committer's recv loop.
        drop(
            self.shared
                .tx
                .lock()
                .expect("committer channel lock")
                .take(),
        );
        let handle = self.shared.handle.lock().expect("handle lock").take()?;
        handle.join().ok()
    }
}

fn committer_loop(
    mut db: Database,
    rx: Receiver<CommitRequest>,
    shared: Weak<SharedState>,
) -> Database {
    while let Ok(first) = rx.recv() {
        // Drain whatever else is queued: one published generation per
        // batch amortizes the publish (the history entry, the pointer
        // swap) across concurrent committers.
        let mut batch = vec![first];
        while let Ok(more) = rx.try_recv() {
            batch.push(more);
        }
        let Some(shared) = shared.upgrade() else {
            return db;
        };
        let batch_size = batch.len() as u64;
        shared
            .commit_requests
            .fetch_add(batch_size, Ordering::Relaxed);
        shared.commit_batches.fetch_add(1, Ordering::Relaxed);

        let hashed_before = db.stats_elements();
        let mut dirty = Dirty::default();
        let mut applied: Vec<String> = Vec::new();
        let mut replies: Vec<(Sender<CommitReply>, Result<Value, String>)> = Vec::new();
        let mut apply_us: Vec<u64> = Vec::with_capacity(batch.len());
        let mut clock = Instant::now();
        for req in batch {
            match apply(&db, &req.source) {
                Ok((trial, stmts, v)) => {
                    db = trial;
                    for stmt in &stmts {
                        classify(stmt, &db.statistics().extent_indexes, &mut dirty);
                    }
                    applied.push(req.source);
                    replies.push((req.reply, Ok(v)));
                }
                Err(e) => replies.push((req.reply, Err(e.to_string()))),
            }
            let now = Instant::now();
            apply_us.push((now - clock).as_micros() as u64);
            clock = now;
        }

        let generation = publish(&mut db, &shared, dirty, applied);
        let publish_us = clock.elapsed().as_micros() as u64;
        shared
            .stats_elements
            .fetch_add(db.stats_elements() - hashed_before, Ordering::Relaxed);
        for (reply, result) in replies {
            // A committer that outlives the requester is fine: the
            // requester hung up, nobody reads the reply.
            let _ = reply.send(CommitReply { result, generation });
        }
        // Observed after the replies, so no requester waits on the lock.
        let mut registry = shared.global_registry.lock().expect("registry lock");
        for us in apply_us {
            registry.observe("committer.apply_us", us);
        }
        registry.observe("committer.publish_us", publish_us);
        registry.observe("committer.batch_size", batch_size);
    }
    db
}

/// Apply one request's program to a trial clone of the master — atomicity
/// by clone-and-swap: a request that fails half way through its program
/// leaves the master untouched.  The clone shares every component with
/// the master; the program copies a component at its first write to it
/// (and, inside it, only what it writes).  Returns the trial,
/// the statements it ran (parsed once, for [`classify`]) and the value of
/// the last one.
fn apply(db: &Database, source: &str) -> DbResult<(Database, Vec<Stmt>, Value)> {
    let parse_started = Instant::now();
    let stmts = parse_program(source)?;
    let parse_us = parse_started.elapsed().as_micros() as u64;
    let mut trial = db.clone();
    let value = trial.run_program(source, &stmts, parse_us)?;
    Ok((trial, stmts, value))
}

/// Publish one generation for an applied batch (when it touched any
/// snapshot-visible component) and record the batch in the history.
/// Returns the generation current afterwards.
fn publish(db: &mut Database, shared: &SharedState, dirty: Dirty, applied: Vec<String>) -> u64 {
    let prev = shared.current.read().expect("generation lock").clone();
    if applied.is_empty() {
        return prev.number;
    }
    if !dirty.any() {
        // Nothing snapshot-visible changed (e.g. only procedure
        // definitions), but the statements still belong to the replay
        // history at the unchanged generation.
        shared.stats_skipped.fetch_add(1, Ordering::Relaxed);
        shared
            .history
            .lock()
            .expect("history lock")
            .push(CommitBatch {
                generation: prev.number,
                statements: applied,
                stats: "skipped: no extent data touched".to_string(),
            });
        return prev.number;
    }
    let stats = if dirty.data {
        // Fresh cardinalities for the next generation's planners.  Every
        // data statement has already applied what it changed to the
        // statistics of every object it changed (`crate::stats`) —
        // including, for an update of a stored object, every other object
        // referencing it — so a batch of them has nothing left to collect
        // here, and what is published equals a fresh collection of the
        // batch's result (`tests/snapshot_isolation.rs`,
        // `a_batch_publishes_every_extent_as_of_the_whole_batch`).  A
        // procedure call (targets unknown) — or a master that has never
        // collected anything — takes the full sweep.
        if dirty.data_unknown || !db.stats_collected() {
            db.collect_stats();
            shared.stats_full.fetch_add(1, Ordering::Relaxed);
            if dirty.data_unknown {
                "full (procedure call)".to_string()
            } else {
                "full (first collection)".to_string()
            }
        } else {
            let names: Vec<&str> = dirty.touched.iter().map(String::as_str).collect();
            shared.stats_incremental.fetch_add(1, Ordering::Relaxed);
            format!("incremental: {}", names.join(", "))
        }
    } else {
        // Registry/range/method batches republish without touching data:
        // the statistics stand as collected.
        shared.stats_skipped.fetch_add(1, Ordering::Relaxed);
        "skipped: no extent data touched".to_string()
    };
    // A component no statement wrote is still the one `prev` shares.
    let next = Arc::new(Generation::from_database(prev.number + 1, db));
    shared
        .history
        .lock()
        .expect("history lock")
        .push(CommitBatch {
            generation: next.number,
            statements: applied,
            stats,
        });
    *shared.current.write().expect("generation lock") = next.clone();
    next.number
}

/// What one [`Session::query`] produced: the value plus the provenance a
/// server wants to report per response.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The program's last `retrieve` result (`true` for programs of only
    /// `range of` declarations).
    pub value: Value,
    /// Result occurrences (multiset cardinality / array length / 1).
    pub rows: u64,
    /// The generation the session was pinned to.
    pub generation: u64,
    /// Fingerprint of the lowered plan (0 for declaration-only programs).
    pub plan_hash: u64,
    /// Per-phase wall time, in order.
    pub phase_us: Vec<(&'static str, u64)>,
    /// Total wall time across the phases.
    pub total_us: u64,
}

/// One client's snapshot-isolated view of a [`VersionedDb`].
pub struct Session {
    db: VersionedDb,
    snapshot: Arc<Generation>,
    /// This session's own store over the snapshot's objects (sharing the
    /// generation's map until the first write): evaluation may mint
    /// temporary OIDs (`mkref` in a target list), and those must not
    /// leak into — or contend on — the shared generation.
    scratch: ObjectStore,
    local_ranges: HashMap<String, QExpr>,
    /// Run the rule-based optimizer on every query (default: on,
    /// matching [`Database`]).
    pub optimize: bool,
    /// Plans of the queries this session has run, each validated against
    /// the pinned generation and its statistics on every use.
    plans: PlanCache,
    /// What the last query's search left behind.
    last: Option<Last>,
    telemetry: Telemetry,
    closed: bool,
}

/// What a session remembers of its last query — the picture behind
/// [`Session::last_memo`]: the picture of its search or, when the plan
/// cache spared it one, the translated plan that search would start from.
struct Last {
    memo: Option<MemoSnapshot>,
    cached_from: Option<Expr>,
}

impl Session {
    /// The generation this session reads.
    pub fn generation(&self) -> u64 {
        self.snapshot.number
    }

    /// The pinned generation itself.
    pub fn snapshot(&self) -> &Arc<Generation> {
        &self.snapshot
    }

    /// This session's telemetry: the registry — its one metrics store —
    /// and the flight recorder.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Rewrite a result's references into canonical `(@obj, @val)` value
    /// trees against this session's store (see
    /// [`canonical_form`](excess_core::canon::canonical_form)) — what a
    /// server serializes, since raw OIDs have no client-visible meaning.
    pub fn canon(&self, v: &Value) -> Value {
        excess_core::canon::canonical_form(v, &self.scratch)
    }

    /// The object store this session evaluates against: the pinned
    /// generation's, shared with it until a query mints an OID (which
    /// copies the OID map for this session only).
    pub fn store(&self) -> &ObjectStore {
        &self.scratch
    }

    /// A throwaway [`Database`] over what this session reads: the pinned
    /// generation's components, this session's scratch store and the
    /// `range of` declarations in force, all shared, not copied.  The
    /// server's inspection commands (`.plan`, `.profile`, …) run on it,
    /// so what they record — telemetry, a memo picture, minted OIDs —
    /// stays in it and this session is left as it was.
    pub fn inspect(&self) -> Database {
        let ranges = if self.local_ranges.is_empty() {
            Arc::clone(&self.snapshot.ranges)
        } else {
            let mut merged = (*self.snapshot.ranges).clone();
            merged.extend(self.local_ranges.clone());
            Arc::new(merged)
        };
        let mut db = Database::over_generation(&self.snapshot, self.scratch.clone(), ranges);
        db.optimize = self.optimize;
        db
    }

    /// Re-pin to the newest published generation.  Session-local
    /// `range of` declarations survive; scratch objects minted by
    /// earlier queries are discarded with the old scratch store.  The new
    /// scratch store shares the generation's map: nothing is copied.
    pub fn refresh(&mut self) {
        self.snapshot = self.db.current();
        self.scratch = (*self.snapshot.store).clone();
    }

    /// Memo picture of the search behind this session's last plan.  A
    /// query that took its plan from the plan cache searched nothing, and
    /// a cache entry keeps no picture; but the entry was validated, so the
    /// search it stands for is the one this re-runs, on demand, from the
    /// query's translated plan under the pinned generation's statistics.
    pub fn last_memo(&self) -> Option<Cow<'_, MemoSnapshot>> {
        let last = self.last.as_ref()?;
        match &last.cached_from {
            Some(translated) => {
                let view = self.snapshot.view(&self.snapshot.ranges);
                Some(Cow::Owned(pipeline::search(&view, translated).2))
            }
            None => last.memo.as_ref().map(Cow::Borrowed),
        }
    }

    /// Did the last query take its plan from the plan cache?
    pub fn last_plan_was_cached(&self) -> bool {
        self.last.as_ref().is_some_and(|l| l.cached_from.is_some())
    }

    /// For each cached plan, the named objects whose schemas and
    /// statistics it is validated against (diagnostic; entries in no
    /// particular order).
    pub fn plan_cache_dependencies(&self) -> Vec<Vec<&str>> {
        self.plans.dependencies()
    }

    /// What this session hands the pipeline: no span tree.
    fn options(&self) -> Options {
        Options {
            optimize: self.optimize,
            spans: false,
        }
    }

    /// Run a read-only program — `range of` declarations and `retrieve`
    /// statements — against the pinned snapshot.  Any other statement
    /// (and `retrieve … into`, which stores its result) is rejected:
    /// writes go through [`Session::commit`].  A rejected program — at
    /// whichever statement — declares nothing.
    pub fn query(&mut self, source: &str) -> DbResult<QueryOutcome> {
        let parse_started = Instant::now();
        let stmts = parse_program(source)?;
        let parse_us = parse_started.elapsed().as_micros() as u64;
        if stmts.is_empty() {
            return Err(DbError::Other("empty program".into()));
        }
        for stmt in &stmts {
            let what = match stmt {
                Stmt::RangeDecl { .. } => continue,
                Stmt::Retrieve(r) if r.into.is_none() => continue,
                Stmt::Retrieve(_) => "`retrieve … into` stores its result — send it through commit",
                _ => "updates, DDL, and procedure calls go through commit",
            };
            return Err(DbError::Other(format!(
                "snapshot sessions are read-only: {what}"
            )));
        }

        let snapshot = self.snapshot.clone();
        let opts = self.options();
        // The range environment retrieves translate under: committed
        // declarations, this session's on top, then the program's own —
        // staged, and kept only when the whole program succeeds.  A map
        // is built only when there is something to merge: one side is
        // usually empty, and a program re-declaring what is already in
        // force (every `range of S is S1 … retrieve` line after the
        // first) changes nothing.
        let mut ranges = if self.local_ranges.is_empty() {
            Cow::Borrowed(&*snapshot.ranges)
        } else if snapshot.ranges.is_empty() {
            Cow::Borrowed(&self.local_ranges)
        } else {
            let mut merged = (*snapshot.ranges).clone();
            merged.extend(self.local_ranges.clone());
            Cow::Owned(merged)
        };
        let mut declared: Vec<(String, QExpr)> = Vec::new();
        // Like `Database::execute`, the first retrieve owns the parse
        // time and the program text for recorder attribution.
        let mut attribution = Some((source.trim(), parse_us));
        let mut last: Option<QueryOutcome> = None;
        for stmt in stmts {
            let retrieve = match stmt {
                Stmt::RangeDecl { var, source: over } => {
                    if ranges.get(&var) != Some(&over) {
                        ranges.to_mut().insert(var.clone(), over.clone());
                    }
                    declared.push((var, over));
                    continue;
                }
                Stmt::Retrieve(r) => r,
                _ => unreachable!("validated above"),
            };
            let (label, parse_us) = attribution.take().unwrap_or(("retrieve", 0));
            let mut outcome = pipeline::run(
                snapshot.view(&ranges),
                &mut self.scratch,
                opts,
                label,
                Source::Retrieve {
                    stmt: &retrieve,
                    parse_us,
                },
                Some(CacheRef {
                    plans: &mut self.plans,
                    registry: &snapshot.registry,
                }),
            )?;
            pipeline::record(&mut outcome, label, &mut self.telemetry);
            last = Some(QueryOutcome {
                value: outcome.ran.value,
                rows: outcome.rows,
                generation: snapshot.number,
                plan_hash: outcome.planned.plan_hash,
                total_us: outcome.phase_us.iter().map(|(_, us)| us).sum(),
                phase_us: outcome.phase_us,
            });
            self.last = Some(Last {
                memo: outcome.memo,
                cached_from: outcome.translated,
            });
        }
        drop(ranges);
        self.local_ranges.extend(declared);
        Ok(last.unwrap_or(QueryOutcome {
            value: Value::bool(true),
            rows: 1,
            generation: snapshot.number,
            plan_hash: 0,
            phase_us: vec![("parse", parse_us)],
            total_us: parse_us,
        }))
    }

    /// Send a program to the committer; on success, re-pin this session
    /// to the generation the commit published (read-your-writes).
    /// Returns the last statement's value and that generation.
    pub fn commit(&mut self, source: &str) -> DbResult<(Value, u64)> {
        let (value, generation) = self.db.commit(source).map_err(DbError::Other)?;
        self.refresh();
        Ok((value, generation))
    }

    /// Close the session: fold its telemetry registry into the
    /// database-wide one.  Dropping a session does the same.
    pub fn close(self) {}
}

impl Drop for Session {
    fn drop(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        self.db.merge_session(&self.telemetry.registry);
        self.db
            .shared
            .sessions_closed
            .fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed() -> Database {
        let mut db = Database::new();
        db.execute(
            "define type Dept : (dname: char, budget: int4) \
             create DS : {Dept} \
             append to DS ((dname: \"cs\", budget: 100)) \
             append to DS ((dname: \"ee\", budget: 200))",
        )
        .expect("seed program");
        db
    }

    #[test]
    fn snapshot_reads_survive_commits() {
        let vdb = VersionedDb::new(seed());
        let mut pinned = vdb.begin_session();
        let before = pinned
            .query("retrieve (DS.dname, DS.budget)")
            .expect("query")
            .rows;
        assert_eq!(before, 2);
        let (_, generation) = {
            let mut writer = vdb.begin_session();
            writer
                .commit("append to DS ((dname: \"me\", budget: 300))")
                .expect("commit")
        };
        assert_eq!(generation, 1);
        // The pinned session still sees generation 0 …
        assert_eq!(pinned.generation(), 0);
        assert_eq!(
            pinned
                .query("retrieve (DS.dname, DS.budget)")
                .expect("query")
                .rows,
            2
        );
        // … until it refreshes.
        pinned.refresh();
        assert_eq!(pinned.generation(), 1);
        assert_eq!(
            pinned
                .query("retrieve (DS.dname, DS.budget)")
                .expect("query")
                .rows,
            3
        );
        vdb.shutdown().expect("first shutdown returns the master");
    }

    #[test]
    fn commits_are_atomic_per_request() {
        let vdb = VersionedDb::new(seed());
        let mut s = vdb.begin_session();
        // Second statement fails (duplicate object): the first must not
        // have been applied either.
        let err = s
            .commit("append to DS ((dname: \"me\", budget: 300)) create DS : {Dept}")
            .expect_err("duplicate create must fail");
        assert!(err.to_string().contains("already exists"), "{err}");
        assert_eq!(vdb.generation(), 0);
        s.refresh();
        assert_eq!(
            s.query("retrieve (DS.dname)").expect("query").rows,
            2,
            "failed request must leave no partial state"
        );
    }

    #[test]
    fn sessions_are_read_only() {
        let vdb = VersionedDb::new(seed());
        let mut s = vdb.begin_session();
        for src in [
            "append to DS ((dname: \"me\", budget: 300))",
            "retrieve (DS.dname) into DSnames",
            "create XS : {Dept}",
        ] {
            let err = s.query(src).expect_err("writes must be rejected");
            assert!(err.to_string().contains("read-only"), "{src}: {err}");
        }
        // Rejected writes left nothing behind.
        assert_eq!(s.query("retrieve (DS.dname)").expect("query").rows, 2);
        // Nor does a program rejected at a later statement: its earlier
        // `range of` was never declared.
        let err = s
            .query("range of R is DS append to DS ((dname: \"me\", budget: 300))")
            .expect_err("the write rejects the whole program");
        assert!(err.to_string().contains("read-only"), "{err}");
        s.query("retrieve (R.dname)")
            .expect_err("R was declared by a rejected program");
    }

    #[test]
    fn local_ranges_overlay_committed_ones() {
        let vdb = VersionedDb::new(seed());
        let mut a = vdb.begin_session();
        let mut b = vdb.begin_session();
        let out = a
            .query("range of D is DS retrieve (D.dname) where D.budget > 150")
            .expect("query with local range");
        assert_eq!(out.rows, 1);
        // The declaration is session-local: B doesn't see it.
        let err = b.query("retrieve (D.dname)").expect_err("unknown range");
        assert!(!err.to_string().contains("read-only"), "{err}");
        // A program that fails to translate declares nothing, and leaves
        // the declarations made before it as they were.
        a.query("range of D is Nowhere range of F is DS retrieve (D.dname)")
            .expect_err("Nowhere does not exist");
        a.query("retrieve (F.dname)")
            .expect_err("F was staged only");
        assert_eq!(a.query("retrieve (D.dname)").expect("D is DS").rows, 2);
        // A committed declaration is visible to new sessions.
        a.commit("range of E is DS").expect("commit range decl");
        let mut c = vdb.begin_session();
        assert_eq!(c.query("retrieve (E.dname)").expect("query").rows, 2);
    }

    #[test]
    fn history_records_applied_batches() {
        let vdb = VersionedDb::new(seed());
        let mut s = vdb.begin_session();
        s.commit("append to DS ((dname: \"me\", budget: 300))")
            .expect("commit 1");
        let _ = s.commit("create DS : {Dept}").expect_err("rejected");
        s.commit("range of F is DS").expect("commit 2");
        let history = vdb.history();
        let all: Vec<&str> = history
            .iter()
            .flat_map(|b| b.statements.iter().map(String::as_str))
            .collect();
        assert_eq!(
            all,
            vec![
                "append to DS ((dname: \"me\", budget: 300))",
                "range of F is DS"
            ],
            "history holds exactly the applied requests"
        );
        assert!(history.iter().all(|b| b.generation >= 1));
    }

    #[test]
    fn closing_a_session_is_counted() {
        let vdb = VersionedDb::new(seed());
        let s = vdb.begin_session();
        assert_eq!(vdb.stats().sessions_closed, 0);
        s.close();
        let stats = vdb.stats();
        assert_eq!(stats.sessions_opened, 1);
        assert_eq!(stats.sessions_closed, 1);
    }

    #[test]
    fn shutdown_returns_the_master_and_later_commits_fail() {
        let vdb = VersionedDb::new(seed());
        vdb.commit("append to DS ((dname: \"me\", budget: 300))")
            .expect("commit");
        let master = vdb.shutdown().expect("master database");
        assert_eq!(
            master.catalog().value("DS").and_then(|v| match v {
                Value::Set(s) => Some(s.len()),
                _ => None,
            }),
            Some(3)
        );
        assert!(vdb.shutdown().is_none(), "second shutdown is a no-op");
        let err = vdb.commit("range of G is DS").expect_err("shut down");
        assert!(err.contains("shut down"), "{err}");
        // Reads keep working against the last published generation.
        let mut s = vdb.begin_session();
        assert_eq!(s.query("retrieve (DS.dname)").expect("query").rows, 3);
    }
}
