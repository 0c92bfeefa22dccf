//! The adapter: every call into the internals of `excess-lang`,
//! `-optimizer`, `-core`, `-db` and `-server` that the benchmark makes.
//!
//! Three things need them.  The **oracle** evaluates each request on a
//! database of its own with the optimizer off and serializes the canonical
//! form — the naive evaluator is the specification the served answers are
//! held to.  The **replay check** compares the final generation with the
//! commit history replayed serially.  And the **traced run** times each
//! layer from outside: for traced request *i* it records spans sharing id
//! *i* — `request` (the socket round trip), `server.respond` (the same
//! line through the socket-free `protocol::respond` on a session of its
//! own) and one span per stage of the pipeline replayed on that session's
//! generation.  The three executions follow one another; a layer's self
//! time is its span minus the spans that name it as parent.
//!
//! When a refactor moves one of these entry points, this is the only file
//! of the benchmark that has to follow.

use crate::endtoend::{
    final_checks, parse_reply, prepare, start_writing, timed_request, Expected, RunConfig,
    RunResult, Served, Tally, Writing,
};
use crate::stats::{self, Summary};
use crate::workloads::{WriterRows, REFRESH_EVERY};
use excess_core::canon::canonical_form;
use excess_core::counters::Counters;
use excess_core::eval::EvalCtx;
use excess_core::physical::{evaluate_physical, PhysOp};
use excess_db::{value_json, Database, Session, VersionedDb};
use excess_lang::ast::Stmt;
use excess_lang::parse_program;
use excess_lang::translate::{translate_retrieve, TranslateCtx};
use excess_optimizer::{
    apply_extent_indexes_journaled, cost_of, lower_journaled, Optimizer, RewriteJournal, RuleCtx,
};
use excess_server::{respond, Client};
use excess_types::{ObjectStore, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

pub use excess_core::json::{parse_json, quote_json, JsonValue};

/// Share of a traced run's `--seconds` spent untraced first, as the base
/// of `trace.overhead_ratio`.
const UNTRACED_SHARE: f64 = 0.2;
/// Requests whose spans are written to the trace file; the metrics use
/// every traced request.
const TRACE_FILE_REQUESTS: u32 = 1000;

fn cardinality(value: &Value) -> u64 {
    match value {
        Value::Set(s) => s.len(),
        Value::Array(a) => a.len() as u64,
        _ => 1,
    }
}

/// Evaluate `query` on `db` with the optimizer off and serialize the
/// canonical form of the result.
pub fn oracle_answer(db: &mut Database, query: &str) -> Result<Expected, String> {
    db.optimize = false;
    let value = db
        .execute(query)
        .map_err(|e| format!("the oracle rejected `{query}`: {e}"))?;
    Ok(Expected {
        rows: cardinality(&value),
        json: value_json(&canonical_form(&value, db.store())),
    })
}

pub fn oracle_answers(db: &mut Database, queries: &[String]) -> Result<Vec<Expected>, String> {
    queries.iter().map(|q| oracle_answer(db, q)).collect()
}

/// Every named object of `db`, canonical and serialized.
fn contents(db: &Database) -> Vec<(String, String)> {
    let catalog = db.catalog();
    let mut objects: Vec<(String, String)> = catalog
        .names()
        .filter_map(|name| {
            let json = value_json(&canonical_form(catalog.value(name)?, db.store()));
            Some((name.to_string(), json))
        })
        .collect();
    objects.sort();
    objects
}

/// Replay the commit history serially onto `fresh` (the seed database,
/// generated again) and compare every named object with `master`, the
/// database the committer ended with.
pub fn replay_matches(
    vdb: &VersionedDb,
    master: Database,
    mut fresh: Database,
) -> Result<(), String> {
    for batch in vdb.history() {
        for statement in &batch.statements {
            fresh
                .execute(statement)
                .map_err(|e| format!("replaying `{statement}`: {e}"))?;
        }
    }
    if contents(&master) == contents(&fresh) {
        Ok(())
    } else {
        Err("the final generation differs from a serial replay of the commit history".into())
    }
}

/// One timed interval.  Spans of one request share `id`; `parent` names
/// the span it is charged to.
pub struct Span {
    pub id: u32,
    /// Label of the request's kind in the workload's mix; empty for spans
    /// that belong to no request.
    pub query: &'static str,
    pub name: &'static str,
    pub parent: &'static str,
    pub start_us: f64,
    pub dur_us: f64,
}

/// Spans kept in memory until the run ends.
pub struct Tracer {
    origin: Instant,
    id: u32,
    query: &'static str,
    pub spans: Vec<Span>,
}

/// Self times in µs, per (span name, query label).  The name [`TOTAL`]
/// holds the durations of the `request` spans.
type SelfTimes = BTreeMap<(&'static str, &'static str), Vec<f64>>;
const TOTAL: &str = "total";

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            id: 0,
            query: "",
            spans: Vec::new(),
        }
    }

    /// Spans recorded from here on belong to a new id.
    fn begin(&mut self, query: &'static str) {
        self.id += 1;
        self.query = query;
    }

    fn record(&mut self, name: &'static str, parent: &'static str, at: Instant, dur: Duration) {
        self.spans.push(Span {
            id: self.id,
            query: self.query,
            name,
            parent,
            start_us: (at - self.origin).as_secs_f64() * 1e6,
            dur_us: dur.as_secs_f64() * 1e6,
        });
    }

    fn time<T>(&mut self, name: &'static str, parent: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.record(name, parent, started, started.elapsed());
        out
    }

    /// Each span's duration minus the durations of the spans with the
    /// same id that name it as parent.
    pub fn self_times(&self) -> SelfTimes {
        let mut out = SelfTimes::new();
        for request in self.spans.chunk_by(|a, b| a.id == b.id) {
            for span in request {
                let children: f64 = request
                    .iter()
                    .filter(|c| c.parent == span.name)
                    .map(|c| c.dur_us)
                    .sum();
                let mut keep = |name, us| {
                    out.entry((name, span.query)).or_default().push(us);
                };
                keep(span.name, span.dur_us - children);
                if span.name == "request" {
                    keep(TOTAL, span.dur_us);
                }
            }
        }
        out
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): complete
    /// events on one lane per nesting depth, with the request id, its
    /// query and the parent span in `args`.
    pub fn chrome_json(&self, keep: impl Fn(&Span) -> bool) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        for span in self.spans.iter().filter(|s| keep(s)) {
            let lane = match (span.name, span.parent) {
                ("request", _) => 1,
                (_, "request") => 2,
                (_, "server.respond") => 3,
                _ => 4,
            };
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":{},\"cat\":\"layer\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{lane},\"args\":{{\"request\":{},\"query\":{},\"parent\":{}}}}}",
                quote_json(span.name),
                span.start_us,
                span.dur_us,
                span.id,
                quote_json(span.query),
                quote_json(span.parent)
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Exact work counts, summed over one pass of the request sequence.
#[derive(Default)]
struct Counts {
    plans_enumerated: u64,
    memo_members: u64,
    rewrites_applied: u64,
    rewrites_refused: u64,
    lower_kernels: u64,
    lower_refused: u64,
    work: Counters,
    rows: u64,
    resp_bytes: u64,
    json_bytes: u64,
}

/// The benchmark's own session beside the served one, and the scratch
/// store the stage replay evaluates in.
struct Replay {
    vdb: VersionedDb,
    session: Session,
    scratch: ObjectStore,
}

impl Replay {
    fn new(vdb: &VersionedDb) -> Self {
        let session = vdb.begin_session();
        let scratch = (*session.snapshot().store).clone();
        Replay {
            vdb: vdb.clone(),
            session,
            scratch,
        }
    }

    /// Re-pin to the newest generation, as the served session does on
    /// `.refresh`.
    fn refresh(&mut self) {
        self.session.refresh();
        self.scratch = (*self.session.snapshot().store).clone();
    }

    /// The three executions of one traced request, innermost first.
    /// `counts` is given on the first pass of the sequence only.
    ///
    /// An evaluation that churns megabytes leaves allocator work to
    /// whatever runs next on the thread.  In this order that is
    /// `server.respond`, which pays it on the served path too, and not the
    /// first stage of the replay.
    fn trace(
        &mut self,
        tracer: &mut Tracer,
        line: &str,
        want: &Expected,
        client: &mut Client,
        tally: &mut Tally,
        mut counts: Option<&mut Counts>,
    ) {
        let replayed = self.stages(tracer, line, counts.as_deref_mut());
        let response = tracer
            .time("server.respond", "request", || {
                respond(&self.vdb, &mut self.session, line)
            })
            .line;
        let started = Instant::now();
        let (us, bytes) = timed_request(client, line, want, tally);
        tracer.record("request", "", started, Duration::from_secs_f64(us / 1e6));
        if let Some(c) = counts {
            c.resp_bytes += bytes as u64;
        }
        let answers_agree = replayed.as_deref() == Ok(want.json.as_str())
            && parse_reply(&response) == Some((want.rows, want.json.as_str()));
        tally.check(answers_agree, || {
            format!("in-process replay of `{line}` disagrees with the oracle: {replayed:?}")
        });
    }

    /// The pipeline of `Session::query`, stage by stage, on this session's
    /// generation; returns the serialized canonical result.
    fn stages(
        &mut self,
        tracer: &mut Tracer,
        line: &str,
        counts: Option<&mut Counts>,
    ) -> Result<String, String> {
        const PARENT: &str = "server.respond";
        let generation = self.session.snapshot().clone();
        let stats = &generation.stats;

        let statements = tracer
            .time("lang.parse", PARENT, || parse_program(line))
            .map_err(|e| e.to_string())?;
        let plan = tracer.time("lang.translate", PARENT, || {
            let mut ranges = (*generation.ranges).clone();
            let mut retrieve = None;
            for statement in statements {
                match statement {
                    Stmt::RangeDecl { var, source } => {
                        ranges.insert(var, source);
                    }
                    Stmt::Retrieve(r) => retrieve = Some(r),
                    _ => {}
                }
            }
            let retrieve = retrieve.ok_or("no retrieve in the request")?;
            let tc = TranslateCtx {
                registry: &generation.registry,
                schemas: &*generation.catalog,
                ranges: &ranges,
                methods: &generation.methods,
                this_type: None,
                params: vec![],
            };
            translate_retrieve(&retrieve, &tc)
                .map(|(plan, _)| plan)
                .map_err(|e| e.to_string())
        })?;

        let ctx = RuleCtx {
            registry: &generation.registry,
            schemas: &*generation.catalog,
        };
        let (plan, search, memo_members) = tracer.time("optimizer.search", PARENT, || {
            let (best, run) = Optimizer::standard().optimize_memo_journaled(&plan, &ctx, stats);
            let mut journal = run.journal;
            let plan = apply_extent_indexes_journaled(&best.plan, stats, &ctx, &mut journal);
            (plan, journal, run.snapshot.members)
        });
        let (physical, lowering) = tracer.time("optimizer.lower", PARENT, || {
            let cost = cost_of(&plan, stats);
            let mut journal = RewriteJournal {
                steps: Vec::new(),
                refused: Vec::new(),
                plans_enumerated: 1,
                max_plans: 0,
                initial_cost: cost,
                final_cost: cost,
            };
            let physical = lower_journaled(&plan, stats, &mut journal);
            (physical, journal)
        });
        let (value, work) = tracer.time("core.eval", PARENT, || {
            let mut ctx = EvalCtx::new(
                &generation.registry,
                &mut self.scratch,
                &*generation.catalog,
            );
            (evaluate_physical(&physical, &mut ctx), ctx.counters)
        });
        let value = value.map_err(|e| e.to_string())?;
        let canon = tracer.time("core.canon", PARENT, || {
            canonical_form(&value, &self.scratch)
        });
        let json = tracer.time("db.json", PARENT, || value_json(&canon));

        if let Some(c) = counts {
            c.plans_enumerated += search.plans_enumerated as u64;
            c.memo_members += memo_members as u64;
            c.rewrites_applied += search.steps.len() as u64;
            c.rewrites_refused += search.refused.len() as u64;
            c.lower_kernels += physical
                .choices
                .values()
                .filter(|c| !matches!(c.op, PhysOp::PassThrough))
                .count() as u64;
            c.lower_refused += lowering.refused.len() as u64;
            c.work += work;
            c.rows += cardinality(&value);
            c.json_bytes += json.len() as u64;
        }
        Ok(json)
    }
}

/// Costs that are not on a request's path, sampled on the quiet server
/// after the traced requests: a connection's life, a session's begin and
/// refresh, and a commit made in process.
fn quiet_tail(
    tracer: &mut Tracer,
    served: &Served,
    replay: &mut Replay,
    rows: &mut WriterRows,
    samples: usize,
    tally: &mut Tally,
) {
    let addr = served.addr();
    for _ in 0..samples {
        tracer.begin("");
        let connected = tracer.time("server.connect", "", || {
            let mut client = Client::connect(addr)?;
            client.request(".generation")?;
            client.request(".close")
        });
        tally.check(connected.is_ok(), || format!("connecting: {connected:?}"));
        tracer.begin("");
        drop(tracer.time("db.session.begin", "", || replay.vdb.begin_session()));
        tracer.begin("");
        tracer.time("db.session.refresh", "", || replay.refresh());
    }
    for _ in 0..samples {
        let (append, delete) = rows.next_pair();
        for statement in std::iter::once(append).chain(delete) {
            tracer.begin("");
            let done = tracer.time("db.committer.commit", "", || replay.vdb.commit(&statement));
            tally.check(done.is_ok(), || {
                format!("committing `{statement}`: {done:?}")
            });
        }
    }
}

fn exact(value: f64) -> Summary {
    Summary {
        value,
        spread: 0.0,
        samples: 1,
    }
}

/// The budget's spans, in pipeline order, with the metric each feeds.
const BUDGET: [(&str, &str); 9] = [
    ("server.wire_us", "request"),
    ("db.session.glue_us", "server.respond"),
    ("lang.parse_us", "lang.parse"),
    ("lang.translate_us", "lang.translate"),
    ("optimizer.search_us", "optimizer.search"),
    ("optimizer.lower_us", "optimizer.lower"),
    ("core.eval_us", "core.eval"),
    ("core.canon_us", "core.canon"),
    ("db.json_us", "db.json"),
];

/// The traced run: every per-layer metric of one workload, and the trace
/// file.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let workload = cfg.workload;
    let mut p = prepare(cfg, 1)?;
    // Begun before anything is written, like the served session it mirrors.
    let mut replay = Replay::new(p.served.vdb());
    let writing = start_writing(&p.served, cfg, &mut p.tally)?;

    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds * (1.0 - UNTRACED_SHARE));
    let pass = p.seq.order.len();
    let mut traced = 0usize;
    // One pass of the sequence at least, for the counts; then until the
    // time is up.
    while traced < pass || Instant::now() < deadline {
        if workload.concurrent_writer && traced.is_multiple_of(REFRESH_EVERY) {
            let refreshed = p.served.client.request(".refresh");
            p.tally
                .check(refreshed.is_ok(), || format!(".refresh: {refreshed:?}"));
            replay.refresh();
        }
        let id = p.seq.order[traced % pass];
        tracer.begin(workload.kinds[p.seq.kind_of[id]].label);
        replay.trace(
            &mut tracer,
            &p.seq.distinct[id],
            &p.expected[id],
            &mut p.served.client,
            &mut p.tally,
            (traced < pass).then_some(&mut counts),
        );
        traced += 1;
    }
    // The same requests untraced, from the start of the sequence, on the
    // warm server, as the base of the overhead ratio.
    let untraced = p.read_round(
        workload,
        Duration::from_secs_f64(cfg.seconds * UNTRACED_SHARE),
    );

    let mut rows = match writing {
        Writing::Concurrent(writer) => writer.finish(&mut p.tally).1,
        Writing::Quiet(_, rows) => rows,
    };
    let tail_samples = if cfg.smoke { 20 } else { 200 };
    quiet_tail(
        &mut tracer,
        &p.served,
        &mut replay,
        &mut rows,
        tail_samples,
        &mut p.tally,
    );
    let committer = p.served.vdb().stats();
    drop(replay);
    let (seq, mut tally) = (p.seq, p.tally);
    final_checks(p.served, cfg, p.seed_rows, &mut tally);

    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let file = out.join(format!("trace_{}.json", workload.name));
    let keep = |s: &Span| s.id <= TRACE_FILE_REQUESTS || s.query.is_empty();
    std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(&file, tracer.chrome_json(keep)))
        .map_err(|e| format!("writing {}: {e}", file.display()))?;
    eprintln!("trace: {} ({traced} requests traced)", file.display());

    // A mix's median request is one query's; its median parse another's.
    // So each layer is the p50 per query, averaged over the mix by weight:
    // that is additive, and a layer's share of it is its share of a
    // request.
    let selfs = tracer.self_times();
    let p50 = |span: &str, query: &str| selfs.get(&(span, query)).map_or(0.0, |v| stats::median(v));
    let weights: f64 = workload.kinds.iter().map(|k| k.weight as f64).sum();
    let per_request = |f: &dyn Fn(&str) -> f64| -> f64 {
        workload
            .kinds
            .iter()
            .map(|k| f(k.label) * k.weight as f64 / weights)
            .sum()
    };
    let layer = |span: &str| Summary {
        value: per_request(&|query| p50(span, query)),
        spread: 0.0,
        samples: traced,
    };
    let request_us = layer(TOTAL).value;
    let budget_sum: f64 = BUDGET.iter().map(|(_, span)| layer(span).value).sum();
    eprintln!("p50 self time per request, us, by query:");
    eprint!("  {:<22} {:>10}", "query", "request");
    for (metric, _) in BUDGET {
        let layer = metric.rsplit('.').next().unwrap_or(metric);
        eprint!(" {:>10}", layer.trim_end_matches("_us"));
    }
    eprintln!();
    for kind in workload.kinds {
        eprint!("  {:<22} {:>10.1}", kind.label, p50(TOTAL, kind.label));
        for (_, span) in BUDGET {
            eprint!(" {:>10.1}", p50(span, kind.label));
        }
        eprintln!();
    }

    // The untraced base, mixed the same way.
    let mut untraced_by_query: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (i, us) in untraced.latencies_us.iter().enumerate() {
        let label = workload.kinds[seq.kind_of[seq.order[i % pass]]].label;
        untraced_by_query.entry(label).or_default().push(*us);
    }
    let untraced_us = per_request(&|query| {
        untraced_by_query
            .get(query)
            .map_or(f64::NAN, |v| stats::median(v))
    });

    let tail = |span: &str| Summary {
        value: p50(span, ""),
        spread: 0.0,
        samples: tail_samples,
    };
    let count = |n: u64| exact(n as f64);
    let w = counts.work;
    let commits_per_batch =
        committer.commit_requests as f64 / committer.commit_batches.max(1) as f64;
    let mut metrics: Vec<(&'static str, &'static str, Summary)> = BUDGET
        .iter()
        .map(|&(metric, span)| (metric, "us", layer(span)))
        .collect();
    metrics.extend([
        ("server.connect_us", "us", tail("server.connect")),
        ("server.resp_bytes", "B", count(counts.resp_bytes)),
        ("db.session.begin_us", "us", tail("db.session.begin")),
        ("db.session.refresh_us", "us", tail("db.session.refresh")),
        (
            "optimizer.plans_enumerated",
            "count",
            count(counts.plans_enumerated),
        ),
        (
            "optimizer.memo_members",
            "count",
            count(counts.memo_members),
        ),
        (
            "optimizer.rewrites_applied",
            "count",
            count(counts.rewrites_applied),
        ),
        (
            "optimizer.rewrites_refused",
            "count",
            count(counts.rewrites_refused),
        ),
        (
            "optimizer.lower_kernels",
            "count",
            count(counts.lower_kernels),
        ),
        (
            "optimizer.lower_refused",
            "count",
            count(counts.lower_refused),
        ),
        (
            "core.eval.occurrences_scanned",
            "count",
            count(w.occurrences_scanned),
        ),
        ("core.eval.comparisons", "count", count(w.comparisons)),
        ("core.eval.derefs", "count", count(w.derefs)),
        ("core.eval.pairs_formed", "count", count(w.pairs_formed)),
        (
            "core.eval.de_input_occurrences",
            "count",
            count(w.de_input_occurrences),
        ),
        (
            "core.eval.scanned_per_row",
            "ratio",
            exact(w.occurrences_scanned as f64 / counts.rows.max(1) as f64),
        ),
        ("db.json.bytes", "B", count(counts.json_bytes)),
        ("db.committer.commit_us", "us", tail("db.committer.commit")),
        (
            "db.committer.commits",
            "count",
            count(committer.commit_requests),
        ),
        (
            "db.committer.batches",
            "count",
            count(committer.commit_batches),
        ),
        (
            "db.committer.commits_per_batch",
            "ratio",
            exact(commits_per_batch),
        ),
        (
            "db.committer.stats_full",
            "count",
            count(committer.stats_full),
        ),
        (
            "db.committer.stats_incremental",
            "count",
            count(committer.stats_incremental),
        ),
        (
            "db.committer.stats_skipped",
            "count",
            count(committer.stats_skipped),
        ),
        (
            "trace.request_us",
            "us",
            Summary {
                value: request_us,
                spread: 0.0,
                samples: traced,
            },
        ),
        (
            "trace.overhead_ratio",
            "ratio",
            exact(request_us / untraced_us),
        ),
        ("layer.sum_ratio", "ratio", exact(budget_sum / request_us)),
    ]);
    if let Some(failure) = &tally.first_failure {
        eprintln!("first failure: {failure}");
    }
    Ok(RunResult {
        metrics,
        attempted: tally.attempted,
        failed: tally.failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, name: &'static str, parent: &'static str, dur_us: f64) -> Span {
        Span {
            id,
            query: "q",
            name,
            parent,
            start_us: 0.0,
            dur_us,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let tracer = Tracer {
            origin: Instant::now(),
            id: 0,
            query: "",
            spans: vec![
                span(0, "request", "", 100.0),
                span(0, "server.respond", "request", 80.0),
                span(0, "lang.parse", "server.respond", 10.0),
                span(0, "core.eval", "server.respond", 50.0),
                span(1, "request", "", 200.0),
                span(1, "server.respond", "request", 150.0),
                span(1, "core.eval", "server.respond", 150.0),
            ],
        };
        let selfs = tracer.self_times();
        assert_eq!(selfs[&("request", "q")], vec![20.0, 50.0]);
        assert_eq!(selfs[&("server.respond", "q")], vec![20.0, 0.0]);
        assert_eq!(selfs[&("core.eval", "q")], vec![50.0, 150.0]);
        assert_eq!(selfs[&(TOTAL, "q")], vec![100.0, 200.0]);
        // The budget is additive: self times of one request sum to it.
        let first: f64 = selfs
            .iter()
            .filter(|((name, _), _)| *name != TOTAL)
            .map(|(_, v)| v[0])
            .sum();
        assert_eq!(first, 100.0);
    }

    #[test]
    fn the_trace_file_is_chrome_trace_event_json() {
        let tracer = Tracer {
            origin: Instant::now(),
            id: 0,
            query: "",
            spans: vec![
                span(0, "request", "", 100.0),
                span(0, "server.respond", "request", 80.0),
                span(7, "request", "", 100.0),
            ],
        };
        let json = parse_json(&tracer.chrome_json(|s| s.id < 7)).expect("valid JSON");
        let events = json.get("traceEvents").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        let respond = &events[1];
        assert_eq!(respond.get("ph").and_then(JsonValue::as_str), Some("X"));
        assert_eq!(respond.get("dur").and_then(JsonValue::as_f64), Some(80.0));
        let args = respond.get("args").unwrap();
        assert_eq!(
            args.get("parent").and_then(JsonValue::as_str),
            Some("request")
        );
    }
}
