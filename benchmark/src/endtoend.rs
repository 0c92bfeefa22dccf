//! The end-to-end half: serve a workload's database on a loopback socket,
//! drive it with closed-loop clients, and time what a user of the server
//! sees.
//!
//! This file reaches the system only through `excess_server::{serve,
//! Client, ServerHandle}`, `VersionedDb::{new, shutdown}`, `Database` as
//! the generators return it, and the wire protocol, so the headline
//! numbers survive refactors of everything behind the socket.  Calls into
//! the crates' internals — the oracle's canonical form among them — live
//! in `layers.rs`.

use crate::layers;
use crate::stats::{self, Refused, Summary};
use crate::workloads::{Sequence, Workload, WriterRows, REFRESH_EVERY, ROW_LIFETIME};
use excess_db::{Database, VersionedDb};
use excess_server::{serve, Client, ServerHandle};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Length of a round.  Short, so that a stretch of outside load spoils few
/// of them; a run's numbers come from its quiet rounds (see `stats.rs`).
const ROUND_SECONDS: f64 = 1.0;
/// Append/delete pairs in the quiet commit burst that follows each round
/// of a read-only workload.
const BURST_PAIRS: usize = 20;
/// Set-ups timed one after the other before anything is written, the last
/// of them being the server the run measures; as many follow the run.
const SETUPS: usize = 9;
/// Writer think time between two commits on `mixed_rw`.
const THINK: Duration = Duration::from_millis(10);
/// The tail percentile reported for latencies.
const TAIL: f64 = 0.95;
/// `/proc/self/stat` counts CPU time in ticks of 1/100 s on Linux.
const MS_PER_TICK: f64 = 10.0;

pub struct RunConfig {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    /// 1/20 length: too few samples for the tail percentile, which then
    /// falls back to the highest one the sample supports.
    pub smoke: bool,
}

impl RunConfig {
    /// Rounds in the run: one per [`ROUND_SECONDS`], one at least.
    fn rounds(&self) -> usize {
        ((self.seconds / ROUND_SECONDS).round() as usize).max(1)
    }

    /// Blocks in one pass of the request sequence.
    pub fn blocks(&self) -> usize {
        if self.smoke {
            self.workload.blocks / 20
        } else {
            self.workload.blocks
        }
    }
}

/// What one run reports.
pub struct RunResult {
    pub metrics: Vec<(&'static str, &'static str, Summary)>,
    pub attempted: u64,
    pub failed: u64,
}

/// Requests attempted and failed, with the first failure kept for the
/// operator.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.first_failure.get_or_insert_with(what);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// What the oracle says a request returns.
pub struct Expected {
    pub rows: u64,
    pub json: String,
}

/// `rows` and the serialized value of an `"ok":true` query response; the
/// value is always the last field.
pub fn parse_reply(response: &str) -> Option<(u64, &str)> {
    if !is_ok(response) {
        return None;
    }
    let rows = response.split_once("\"rows\":")?.1;
    let rows = rows[..rows.find(',')?].parse().ok()?;
    let value = response.split_once("\"value\":")?.1.strip_suffix('}')?;
    Some((rows, value))
}

fn is_ok(response: &str) -> bool {
    response.starts_with("{\"ok\":true")
}

/// A served database with one connected client.
pub struct Served {
    handle: ServerHandle,
    pub client: Client,
    /// The warm pass's responses, one per distinct request.
    pub warm: Vec<String>,
}

impl Served {
    /// Everything `setup_s` covers: generate the data, collect statistics,
    /// publish generation 0, bind the socket, and send every distinct
    /// request once so lazy work behind the socket is done before timing.
    pub fn start(workload: &Workload, seed: u64, distinct: &[String]) -> Result<Self, String> {
        let db = workload.build_db(seed);
        let handle = serve(VersionedDb::new(db), "127.0.0.1:0").map_err(|e| e.to_string())?;
        let mut client = Client::connect(handle.addr()).map_err(|e| e.to_string())?;
        let warm = distinct
            .iter()
            .map(|line| client.request(line).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        Ok(Served {
            handle,
            client,
            warm,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// One more connection to the server.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr()).map_err(|e| e.to_string())
    }

    pub fn vdb(&self) -> &VersionedDb {
        self.handle.db()
    }

    /// Close every connection, join the server's threads and the
    /// committer, and hand back the handle and the master database.
    pub fn stop(self) -> (VersionedDb, Database) {
        let vdb = self.handle.shutdown();
        let master = vdb.shutdown().expect("the committer was still running");
        (vdb, master)
    }

    /// The oracle gate: the warm pass's answers, byte for byte.
    pub fn check_warm(&self, seq: &Sequence, expected: &[Expected], tally: &mut Tally) {
        for ((line, response), want) in seq.distinct.iter().zip(&self.warm).zip(expected) {
            let got = parse_reply(response);
            tally.check(got == Some((want.rows, want.json.as_str())), || {
                format!("oracle mismatch on `{line}`: {response}")
            });
        }
    }
}

/// One request of the sequence, timed; its `rows` and byte length are
/// checked against the oracle outside the timed section.
pub fn timed_request(
    client: &mut Client,
    line: &str,
    want: &Expected,
    tally: &mut Tally,
) -> (f64, usize) {
    let started = Instant::now();
    let response = client.request(line);
    let us = started.elapsed().as_secs_f64() * 1e6;
    let (ok, bytes) = match &response {
        Ok(r) => (
            parse_reply(r).is_some_and(|(rows, v)| rows == want.rows && v.len() == want.json.len()),
            r.len(),
        ),
        Err(_) => (false, 0),
    };
    tally.check(ok, || format!("`{line}` answered {response:?}"));
    (us, bytes)
}

/// One round of the reader's closed loop.
pub struct Round {
    pub latencies_us: Vec<f64>,
    pub wall_s: f64,
    pub cpu_ms: f64,
    started: Instant,
    ended: Instant,
}

/// One commit over the wire: send → ack, in µs.
fn timed_commit(client: &mut Client, statement: &str, tally: &mut Tally) -> f64 {
    let started = Instant::now();
    let response = client.request(&format!(".commit {statement}"));
    let us = started.elapsed().as_secs_f64() * 1e6;
    tally.check(response.as_deref().is_ok_and(is_ok), || {
        format!("`.commit {statement}` answered {response:?}")
    });
    us
}

/// `pairs` appends, each followed by the delete that retires the row
/// written [`ROW_LIFETIME`] appends earlier, back to back on one client.
pub fn commit_burst(
    client: &mut Client,
    rows: &mut WriterRows,
    pairs: usize,
    tally: &mut Tally,
) -> Vec<f64> {
    let mut latencies_us = Vec::with_capacity(2 * pairs);
    for _ in 0..pairs {
        let (append, delete) = rows.next_pair();
        for statement in std::iter::once(append).chain(delete) {
            latencies_us.push(timed_commit(client, &statement, tally));
        }
    }
    latencies_us
}

/// The concurrent writer of `mixed_rw`: its own connection, one commit,
/// then [`THINK`], until told to stop.
pub struct Writer {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<(Commits, WriterRows, Tally)>,
}

/// When each commit completed, and how long it took in µs.
pub type Commits = Vec<(Instant, f64)>;

impl Writer {
    pub fn spawn(mut client: Client, mut rows: WriterRows) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = stop.clone();
        let thread = std::thread::spawn(move || {
            let mut commits = Vec::new();
            let mut tally = Tally::default();
            while !stopped.load(Ordering::SeqCst) {
                let (append, delete) = rows.next_pair();
                for statement in std::iter::once(append).chain(delete) {
                    let us = timed_commit(&mut client, &statement, &mut tally);
                    commits.push((Instant::now(), us));
                    std::thread::sleep(THINK);
                }
            }
            (commits, rows, tally)
        });
        Writer { stop, thread }
    }

    /// Stop after the commit in flight; returns every commit's completion
    /// time and latency, and the rows for whoever writes next.
    pub fn finish(self, tally: &mut Tally) -> (Commits, WriterRows) {
        self.stop.store(true, Ordering::SeqCst);
        let (commits, rows, writer_tally) = self.thread.join().expect("the writer thread panicked");
        tally.merge(writer_tally);
        (commits, rows)
    }
}

/// After the run: the written extent is within [`ROW_LIFETIME`] rows of
/// its seed size over the wire, and the final generation equals a serial
/// replay of the commit history onto a freshly generated database.
pub fn final_checks(mut served: Served, cfg: &RunConfig, seed_rows: u64, tally: &mut Tally) {
    let (extent, count_query) = cfg.workload.written_extent();
    let refreshed = served.client.request(".refresh");
    let response = served.client.request(count_query).unwrap_or_default();
    let rows = parse_reply(&response).map(|(rows, _)| rows);
    let steady = refreshed.is_ok()
        && rows.is_some_and(|rows| rows.abs_diff(seed_rows) <= ROW_LIFETIME as u64);
    tally.check(steady, || {
        format!("{extent} ended with {rows:?} rows, seeded with {seed_rows}")
    });
    let (vdb, master) = served.stop();
    let replayed = layers::replay_matches(&vdb, master, cfg.workload.build_db(cfg.seed));
    tally.check(replayed.is_ok(), || replayed.unwrap_err());
}

/// A workload ready to be driven: its seeded requests, what the oracle says
/// each returns, and the served database, warm and checked.
pub struct Prepared {
    pub seq: Sequence,
    pub expected: Vec<Expected>,
    /// Size of the written extent as generated.
    pub seed_rows: u64,
    /// How long each set-up took; the last one made `served`.
    pub setups_s: Vec<f64>,
    pub served: Served,
    /// Requests of the sequence sent so far by [`Prepared::read_round`].
    cursor: usize,
    pub tally: Tally,
}

/// One set-up, timed, its warm pass held to the oracle.
fn timed_setup(
    cfg: &RunConfig,
    seq: &Sequence,
    expected: &[Expected],
    tally: &mut Tally,
) -> Result<(f64, Served), String> {
    let started = Instant::now();
    let served = Served::start(cfg.workload, cfg.seed, &seq.distinct)?;
    let seconds = started.elapsed().as_secs_f64();
    served.check_warm(seq, expected, tally);
    Ok((seconds, served))
}

/// Build the oracle's answers, then set the server up `setups` times in a
/// row, stopping each before the next starts so that only one database is
/// alive at a time, and keep the last.
pub fn prepare(cfg: &RunConfig, setups: usize) -> Result<Prepared, String> {
    let workload = cfg.workload;
    let seq = workload.sequence(cfg.seed, cfg.blocks());
    // The oracle is a second, separately generated database evaluated
    // without the optimizer, outside every timed section.
    let mut oracle = workload.build_db(cfg.seed);
    let expected = layers::oracle_answers(&mut oracle, &seq.distinct)?;
    let seed_rows = layers::oracle_answer(&mut oracle, workload.written_extent().1)?.rows;
    drop(oracle);

    let mut tally = Tally::default();
    let mut setups_s = Vec::with_capacity(2 * setups);
    let served = loop {
        let (seconds, served) = timed_setup(cfg, &seq, &expected, &mut tally)?;
        setups_s.push(seconds);
        if setups_s.len() >= setups {
            break served;
        }
        served.stop();
    };
    Ok(Prepared {
        seq,
        expected,
        seed_rows,
        setups_s,
        served,
        cursor: 0,
        tally,
    })
}

impl Prepared {
    /// The reader: walk the sequence from where the last round stopped,
    /// wrapping, for `length`.
    pub fn read_round(&mut self, workload: &Workload, length: Duration) -> Round {
        let mut latencies_us = Vec::new();
        let cpu_before = cpu_ticks();
        let started = Instant::now();
        while started.elapsed() < length {
            if workload.concurrent_writer && self.cursor.is_multiple_of(REFRESH_EVERY) {
                let refreshed = self.served.client.request(".refresh");
                self.tally.check(refreshed.as_deref().is_ok_and(is_ok), || {
                    format!(".refresh answered {refreshed:?}")
                });
            }
            let id = self.seq.order[self.cursor % self.seq.order.len()];
            self.cursor += 1;
            let (us, _) = timed_request(
                &mut self.served.client,
                &self.seq.distinct[id],
                &self.expected[id],
                &mut self.tally,
            );
            latencies_us.push(us);
        }
        let ended = Instant::now();
        Round {
            latencies_us,
            wall_s: (ended - started).as_secs_f64(),
            cpu_ms: (cpu_ticks() - cpu_before) as f64 * MS_PER_TICK,
            started,
            ended,
        }
    }
}

/// Who commits during a run.
///
/// Only `mixed_rw` writes beside its reads.  The read-only workloads commit
/// too, in a burst after each round while the reader waits, because a run
/// has to report every end-to-end metric of `BENCHMARK.json`, the commit
/// latencies among them, whatever its workload.
pub enum Writing {
    Concurrent(Writer),
    Quiet(Client, WriterRows),
}

/// Commits go over a connection of their own, so the reader's session stays
/// pinned where the workload says.  The written extent is brought to its
/// steady-state size first, so the first round does not read a smaller
/// extent than the others.
pub fn start_writing(
    served: &Served,
    cfg: &RunConfig,
    tally: &mut Tally,
) -> Result<Writing, String> {
    let mut rows = WriterRows::new(cfg.workload, cfg.seed);
    let mut client = served.connect()?;
    commit_burst(&mut client, &mut rows, ROW_LIFETIME, tally);
    Ok(if cfg.workload.concurrent_writer {
        Writing::Concurrent(Writer::spawn(client, rows))
    } else {
        Writing::Quiet(client, rows)
    })
}

/// `p`-th percentile of `samples`.  A smoke run, too short for the tail,
/// reports the highest percentile its sample supports instead.
fn percentile(samples: &mut [f64], p: f64, cfg: &RunConfig, what: &str) -> Result<f64, String> {
    match stats::percentile(samples, p) {
        Ok(value) => Ok(value),
        Err(Refused { samples: n, .. }) if cfg.smoke && n > 0 => {
            let supported = stats::highest_supported(n).unwrap_or(0.5).min(p);
            Ok(stats::nearest_rank(samples, supported))
        }
        Err(refused) => Err(format!(
            "{what} on {}: {refused} in the whole run; run for more --seconds",
            cfg.workload.name
        )),
    }
}

/// What a set of rounds says about one kind of operation.
struct Pooled {
    rounds: usize,
    samples: usize,
    p50: f64,
    tail: f64,
    /// `(max − min) / median` of the rounds' own medians.
    spread: f64,
}

/// Pool the samples of the rounds `kept` names and take their median and
/// tail percentile.
fn pool(
    rounds: &[Vec<f64>],
    medians: &[f64],
    kept: &[usize],
    cfg: &RunConfig,
    what: &str,
) -> Result<Pooled, String> {
    let mut pooled: Vec<f64> = kept
        .iter()
        .flat_map(|&r| rounds[r].iter().copied())
        .collect();
    let kept_medians: Vec<f64> = kept.iter().map(|&r| medians[r]).collect();
    Ok(Pooled {
        rounds: kept.len(),
        samples: pooled.len(),
        p50: percentile(&mut pooled, 0.5, cfg, what)?,
        tail: percentile(&mut pooled, TAIL, cfg, what)?,
        spread: stats::rel_range(&kept_medians),
    })
}

/// One kind of operation over a run: which of its rounds are the quiet
/// ones and what they say, with what all of its rounds say printed beside.
/// The quiet rounds are chosen by this kind's own medians, so reads do not
/// choose the rounds commits are taken from.
fn quiet_and_all(
    rounds: &mut [Vec<f64>],
    cfg: &RunConfig,
    what: &str,
) -> Result<(Vec<usize>, Pooled), String> {
    let medians: Vec<f64> = rounds
        .iter_mut()
        .map(|r| {
            if r.is_empty() {
                f64::INFINITY
            } else {
                stats::nearest_rank(r, 0.5)
            }
        })
        .collect();
    let counts: Vec<usize> = rounds.iter().map(Vec::len).collect();
    let kept = stats::quiet_rounds(&medians, &counts, stats::samples_needed(TAIL));
    let all: Vec<usize> = (0..rounds.len()).collect();
    let quiet = pool(rounds, &medians, &kept, cfg, what)?;
    let every = pool(rounds, &medians, &all, cfg, what)?;
    eprintln!(
        "{what}: the quietest {} of {} rounds (medians within {:.1}%): p50 {:.1} us, p95 {:.1} us; \
         all rounds (within {:.1}%): p50 {:.1} us, p95 {:.1} us",
        quiet.rounds,
        every.rounds,
        quiet.spread * 100.0,
        quiet.p50,
        quiet.tail,
        every.spread * 100.0,
        every.p50,
        every.tail
    );
    Ok((kept, quiet))
}

/// The untraced run: every end-to-end metric of one workload.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let workload = cfg.workload;
    let mut p = prepare(cfg, if cfg.smoke { 2 } else { SETUPS })?;
    let mut writing = start_writing(&p.served, cfg, &mut p.tally)?;

    let length = Duration::from_secs_f64(cfg.seconds / cfg.rounds() as f64);
    let mut rounds = Vec::with_capacity(cfg.rounds());
    let mut commits: Vec<Vec<f64>> = Vec::with_capacity(cfg.rounds());
    for _ in 0..cfg.rounds() {
        rounds.push(p.read_round(workload, length));
        if let Writing::Quiet(client, rows) = &mut writing {
            commits.push(commit_burst(client, rows, BURST_PAIRS, &mut p.tally));
        }
    }
    if let Writing::Concurrent(writer) = writing {
        // The concurrent writer's commits, by the round they completed in.
        let (done, _) = writer.finish(&mut p.tally);
        commits = rounds
            .iter()
            .map(|r| {
                let within = done
                    .iter()
                    .filter(|(at, _)| (r.started..=r.ended).contains(at));
                within.map(|&(_, us)| us).collect()
            })
            .collect();
    }
    // Read before the checks below generate and replay a second database.
    let peak_rss_mb = peak_rss_mb();
    final_checks(p.served, cfg, p.seed_rows, &mut p.tally);
    // As many set-ups again, now that the server is stopped: a slow moment
    // of the host does not cover both ends of the run.
    for _ in 0..p.setups_s.len() {
        let (seconds, again) = timed_setup(cfg, &p.seq, &p.expected, &mut p.tally)?;
        p.setups_s.push(seconds);
        again.stop();
    }

    let mut reads: Vec<Vec<f64>> = rounds
        .iter_mut()
        .map(|r| std::mem::take(&mut r.latencies_us))
        .collect();
    let (kept, read) = quiet_and_all(&mut reads, cfg, "reads")?;
    let (_, commit) = quiet_and_all(&mut commits, cfg, "commits")?;
    // Throughput and CPU time over the same quiet rounds as the latencies,
    // and over all rounds beside them.
    let rate = |of: &[usize]| {
        let sum = |f: &dyn Fn(usize) -> f64| of.iter().map(|&r| f(r)).sum::<f64>();
        let requests = sum(&|r| reads[r].len() as f64);
        (
            requests / sum(&|r| rounds[r].wall_s),
            sum(&|r| rounds[r].cpu_ms) / requests,
        )
    };
    let (throughput_qps, cpu_ms_per_req) = rate(&kept);
    let all: Vec<usize> = (0..rounds.len()).collect();
    let (all_qps, all_cpu) = rate(&all);
    eprintln!(
        "reads: {throughput_qps:.1} 1/s and {cpu_ms_per_req:.4} ms of CPU per request in the \
         quiet rounds, {all_qps:.1} 1/s and {all_cpu:.4} ms in all rounds"
    );

    let of = |value: f64, from: &Pooled| Summary {
        value,
        spread: from.spread,
        samples: from.samples,
    };
    let metrics = vec![
        (
            "setup_s",
            "s",
            Summary {
                // Outside load only ever slows a set-up down.
                value: stats::nearest_rank(&mut p.setups_s, 0.25),
                spread: stats::rel_range(&p.setups_s),
                samples: p.setups_s.len(),
            },
        ),
        ("throughput_qps", "1/s", of(throughput_qps, &read)),
        ("latency_p50_us", "us", of(read.p50, &read)),
        ("latency_p95_us", "us", of(read.tail, &read)),
        ("commit_p50_us", "us", of(commit.p50, &commit)),
        ("commit_p95_us", "us", of(commit.tail, &commit)),
        ("cpu_ms_per_req", "ms", of(cpu_ms_per_req, &read)),
        (
            "peak_rss_mb",
            "MB",
            Summary {
                value: peak_rss_mb,
                spread: 0.0,
                samples: 1,
            },
        ),
    ];
    if let Some(failure) = &p.tally.first_failure {
        eprintln!("first failure: {failure}");
    }
    Ok(RunResult {
        metrics,
        attempted: p.tally.attempted,
        failed: p.tally.failed,
    })
}

/// User + system CPU ticks of this process so far.
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after it.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    tick(11) + tick(12)
}

/// The process's resident-set high-water mark.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_parse_to_rows_and_value() {
        let ok = "{\"ok\":true,\"generation\":0,\"rows\":2,\"plan_hash\":\"00\",\"us\":5,\
                  \"phases\":{\"parse\":1},\"value\":{\"set\":[1,2]}}";
        assert_eq!(parse_reply(ok), Some((2, "{\"set\":[1,2]}")));
        assert_eq!(parse_reply("{\"ok\":false,\"error\":\"no\"}"), None);
        assert_eq!(parse_reply(""), None);
    }

    #[test]
    fn process_counters_read_something() {
        let before = cpu_ticks();
        let mut x = 0u64;
        let started = Instant::now();
        while started.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_ticks() > before);
        assert!(peak_rss_mb() > 1.0);
    }
}
