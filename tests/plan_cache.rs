//! Plan once, serve many: a session's plan cache (DESIGN.md, *Plan cache*).
//!
//! A served `retrieve` whose translated plan, schemas and statistics are
//! those a cached plan was derived under runs that plan without searching
//! or lowering; anything else is planned as before.  The cache may change
//! what a request costs and never what it answers, so every test here
//! compares a session that has a warm cache with something that cannot
//! have one: a `Database`, a session begun afresh, or the unoptimized
//! oracle.

mod common;

use excess::db::{value_json, Database, QueryOutcome, Session, VersionedDb};
use excess_bench::server_mix::server_mix_db;
use excess_core::counters::Counters;
use excess_workload::UniversityParams;
use proptest::prelude::*;

const S1_LINE: &str = "retrieve (S1.sname) where S1.sdept = 3";
const E1_LINE: &str = "retrieve (E1.ename) where E1.esal = 1003";

/// `(hit, miss, stale)` as the session's registry has counted them.
fn cache_counts(s: &Session) -> (u64, u64, u64) {
    let r = &s.telemetry().registry;
    (
        r.counter("plan_cache.hit"),
        r.counter("plan_cache.miss"),
        r.counter("plan_cache.stale"),
    )
}

/// What one served request decided and did: canon value, work counters,
/// kernel list, plan hash.
#[derive(Debug, Clone, PartialEq)]
struct Ran {
    value: String,
    counters: Counters,
    kernels: Vec<(String, String)>,
    plan_hash: u64,
}

fn serve(s: &mut Session, line: &str) -> (Ran, QueryOutcome) {
    let before = s.metrics().counters;
    let out = s.query(line).unwrap_or_else(|e| panic!("{line}: {e}"));
    let record = s.telemetry().recorder.records().last().unwrap();
    assert_eq!(record.plan_hash, out.plan_hash, "{line}: record");
    let ran = Ran {
        value: value_json(&s.canon(&out.value)),
        counters: s.metrics().counters - before,
        kernels: record.kernels.clone(),
        plan_hash: out.plan_hash,
    };
    (ran, out)
}

/// Serve `line` and say how the plan cache answered: `"hit"`, `"miss"`,
/// `"stale"`, or `"bypass"` when no counter moved.
fn serve_how(s: &mut Session, line: &str) -> (Ran, &'static str) {
    let before = cache_counts(s);
    let (ran, out) = serve(s, line);
    let after = cache_counts(s);
    let moved = (after.0 - before.0, after.1 - before.1, after.2 - before.2);
    let how = match moved {
        (1, 0, 0) => "hit",
        (0, 1, 0) => "miss",
        (0, 0, 1) => "stale",
        (0, 0, 0) => "bypass",
        other => panic!("{line}: one request moved the counters by {other:?}"),
    };
    let phases: Vec<&str> = out.phase_us.iter().map(|(name, _)| *name).collect();
    match how {
        "hit" => assert_eq!(
            phases,
            ["parse", "translate", "cached", "execute"],
            "{line}"
        ),
        "bypass" => assert_eq!(phases, ["parse", "translate", "lower", "execute"], "{line}"),
        _ => assert_eq!(
            phases,
            ["parse", "translate", "optimize", "lower", "execute"],
            "{line}"
        ),
    }
    (ran, how)
}

/// The unoptimized answer of `line` over `db`.
fn oracle(db: &mut Database, line: &str) -> String {
    let v = db.execute(line).unwrap_or_else(|e| panic!("{line}: {e}"));
    value_json(&excess::algebra::canonical_form(&v, db.store()))
}

/// (1) The second and third run of each of the 14 served request kinds
/// are hits, equal to the first run in everything the pipeline decides,
/// and equal to `Database::execute` on a twin.
#[test]
fn repeated_lines_hit_and_change_nothing() {
    fn check(make: impl Fn() -> Database, lines: &[&str]) {
        let mut twin = make();
        twin.collect_stats();
        let vdb = VersionedDb::new(make());
        let mut s = vdb.begin_session();
        for line in lines {
            let (first, how) = serve_how(&mut s, line);
            assert_eq!(how, "miss", "{line}");
            for _ in 0..2 {
                assert_eq!(serve_how(&mut s, line), (first.clone(), "hit"), "{line}");
            }
            let before = twin.metrics().counters;
            let direct = twin.execute(line).unwrap();
            let record = twin.telemetry().recorder.records().last().unwrap();
            let direct = Ran {
                value: value_json(&excess::algebra::canonical_form(&direct, twin.store())),
                counters: twin.metrics().counters - before,
                kernels: record.kernels.clone(),
                plan_hash: record.plan_hash,
            };
            assert_eq!(first, direct, "{line}");
        }
        assert_eq!(cache_counts(&s).1, lines.len() as u64);
        assert_eq!(s.plan_cache_dependencies().len(), lines.len());
        vdb.shutdown();
    }
    check(|| server_mix_db(60), &common::served_mix_requests());
    check(
        || common::served_university(&UniversityParams::tiny()),
        &common::SERVED_UNIVERSITY_REQUESTS,
    );
}

/// (2) Validation is selective: a commit to `E1` moves `E1`'s statistics
/// and nothing else, so the `S1` plan stays good and the `E1` plan is
/// re-derived once — under the new cardinality.
#[test]
fn a_commit_stales_only_the_plans_that_read_what_it_wrote() {
    let vdb = VersionedDb::new(server_mix_db(60));
    let mut s = vdb.begin_session();
    for line in [S1_LINE, E1_LINE] {
        assert_eq!(serve_how(&mut s, line).1, "miss");
        assert_eq!(serve_how(&mut s, line).1, "hit");
    }
    let est_rows = |s: &Session| {
        let record = s.telemetry().recorder.records().last().unwrap();
        record
            .est_rows
            .expect("the root of a lowered plan is estimated")
    };
    let est_before = est_rows(&s);

    let mut writer = vdb.begin_session();
    writer
        .commit(
            "append to E1 ((ename: \"w0\", esal: 7000)) \
             append to E1 ((ename: \"w1\", esal: 7001)) \
             append to E1 ((ename: \"w2\", esal: 7002))",
        )
        .unwrap();
    // Pinned: the reader still plans under the old generation.
    assert_eq!(serve_how(&mut s, E1_LINE).1, "hit");
    s.refresh();

    assert_eq!(serve_how(&mut s, S1_LINE).1, "hit");
    assert_eq!(serve_how(&mut s, E1_LINE).1, "stale");
    let est_after = est_rows(&s);
    assert!(
        est_after > est_before,
        "33 rows instead of 30: {est_before} -> {est_after}"
    );
    assert_eq!(serve_how(&mut s, E1_LINE).1, "hit");
    assert_eq!(est_rows(&s), est_after, "the hit runs the re-derived plan");
    vdb.shutdown();
}

/// (3) Every other way the inputs of a plan move.
#[test]
fn ddl_shadowing_and_full_sweeps_are_seen_by_validation() {
    let vdb = VersionedDb::new(server_mix_db(60));
    let mut twin = server_mix_db(60);
    twin.optimize = false;
    let mut s = vdb.begin_session();

    // A committed `define type` publishes a new registry: every plan
    // derived under the old one is re-derived, to the same plan.
    let (first, _) = serve_how(&mut s, S1_LINE);
    s.commit("define type Fresh: (x: int4)").unwrap();
    assert_eq!(serve_how(&mut s, S1_LINE), (first.clone(), "stale"));
    assert_eq!(serve_how(&mut s, S1_LINE), (first.clone(), "hit"));

    // A named object replaced by one of another schema.
    s.commit("retrieve (S1.sname) into Picked").unwrap();
    twin.execute("retrieve (S1.sname) into Picked").unwrap();
    let line = "retrieve (Picked)";
    let (names, how) = serve_how(&mut s, line);
    assert_eq!(
        (names.value.as_str(), how),
        (oracle(&mut twin, line).as_str(), "miss")
    );
    assert_eq!(serve_how(&mut s, line).1, "hit");
    s.commit("retrieve (S1.sdept) into Picked").unwrap();
    twin.execute("retrieve (S1.sdept) into Picked").unwrap();
    let (depts, how) = serve_how(&mut s, line);
    assert_eq!(
        (depts.value.as_str(), how),
        (oracle(&mut twin, line).as_str(), "stale")
    );
    assert_ne!(names.value, depts.value);

    // A session-local range shadowing a committed one translates to
    // another plan, which is another key; both entries stay good.
    s.commit("range of T is S1").unwrap();
    twin.execute("range of T is S1").unwrap();
    let line = "retrieve (T)";
    let (over_s1, how) = serve_how(&mut s, line);
    assert_eq!(
        (over_s1.value.as_str(), how),
        (oracle(&mut twin, line).as_str(), "miss")
    );
    let mut other = vdb.begin_session();
    let (over_s2, how) = serve_how(&mut s, "range of T is S2 retrieve (T)");
    assert_eq!(how, "miss");
    assert_ne!(over_s1.value, over_s2.value);
    assert_eq!(serve_how(&mut s, line), (over_s2, "hit"));
    assert_eq!(serve_how(&mut other, line).0, over_s1);

    // A procedure call may have written anything: the committer sweeps
    // every statistic.  What the sweep leaves equal still validates.
    s.commit(
        "define procedure hire (n: char[]) { append to E1 ((ename: n, esal: 7000)) } \
         call hire(\"w9\")",
    )
    .unwrap();
    let history = vdb.history();
    assert!(
        history.last().unwrap().stats.starts_with("full"),
        "{history:?}"
    );
    twin.execute("append to E1 ((ename: \"w9\", esal: 7000))")
        .unwrap();
    let (ran, how) = serve_how(&mut s, E1_LINE);
    assert_eq!(ran.value, oracle(&mut twin, E1_LINE));
    assert_ne!(how, "hit", "E1 grew");
    assert_eq!(serve_how(&mut s, E1_LINE).1, "hit");
    vdb.shutdown();
}

/// (4) A plan that took `extent-index-substitution` reads an object its
/// translated plan never names; that object is a dependency, and a
/// change to its statistics alone re-derives the plan.
#[test]
fn the_chosen_plans_names_are_dependencies_too() {
    let mut db = Database::new();
    db.execute(
        r#"define type Person: (name: char[])
           define type Student: (gpa: int4) inherits Person
           create P: { Person }
           append to P (name: "p0")
           append to P (name: "p0")
           append to P (name: "s0", gpa: 3)
           append to P (name: "s1", gpa: 4)"#,
    )
    .unwrap();
    db.create_extent_index("P", "Student").unwrap();
    let vdb = VersionedDb::new(db);
    let mut s = vdb.begin_session();
    let line = "retrieve (S.name) from S in exact(P, Student)";
    let (first, how) = serve_how(&mut s, line);
    assert_eq!(how, "miss");
    assert_eq!(first.value, r#"{"set":["s0","s1"]}"#);
    assert_eq!(
        s.plan_cache_dependencies(),
        [["P", "P::exact::Student"]],
        "the translated plan names P, the chosen one its index"
    );
    assert_eq!(serve_how(&mut s, line).1, "hit");

    // The index carries statistics of its own, maintained by every write
    // to `P`.  This commit trades an occurrence of a `Person` for one of a
    // `Student`: `P`'s statistics come out exactly as they were — rows,
    // distinct, every NDV — and only the index's move.
    let before = s.snapshot().stats.clone();
    s.commit(
        r#"delete from P where P.name = "p0"
           append to P (name: "p0")
           append to P (name: "s0", gpa: 3)"#,
    )
    .unwrap();
    let after = s.snapshot().stats.clone();
    assert_eq!(before.objects.get("P"), after.objects.get("P"));
    assert_ne!(
        before.objects.get("P::exact::Student"),
        after.objects.get("P::exact::Student")
    );
    let (again, how) = serve_how(&mut s, line);
    assert_eq!(how, "stale");
    assert_eq!(again.value, r#"{"set":["s0","s0","s1"]}"#);
    assert_eq!(serve_how(&mut s, line), (again, "hit"));
    vdb.shutdown();
}

/// (5) The cache is bounded, and emptying it costs only re-planning.
#[test]
fn three_hundred_literals_fit_in_a_bounded_cache() {
    let vdb = VersionedDb::new(server_mix_db(60));
    let mut twin = server_mix_db(60);
    twin.optimize = false;
    let mut s = vdb.begin_session();
    for round in 0..2 {
        for k in 0..300 {
            let line = format!("retrieve (S1.sname) where S1.sdept = {k}");
            let (ran, how) = serve_how(&mut s, &line);
            assert_eq!(ran.value, oracle(&mut twin, &line), "{line}");
            // 300 keys cycling through 256 slots: by the time a key
            // comes round again the cache has been emptied since.
            assert_eq!(how, "miss", "round {round}: {line}");
            assert!(s.plan_cache_dependencies().len() <= 256, "{line}");
        }
    }
    assert_eq!(
        serve_how(&mut s, "retrieve (S1.sname) where S1.sdept = 299").1,
        "hit"
    );
    vdb.shutdown();
}

/// (6) With the optimizer off the cache is neither read nor filled.
#[test]
fn an_unoptimized_session_bypasses_the_cache() {
    let vdb = VersionedDb::new(server_mix_db(60));
    let mut s = vdb.begin_session();
    s.optimize = false;
    let (unoptimized, how) = serve_how(&mut s, S1_LINE);
    assert_eq!(how, "bypass");
    assert_eq!(serve_how(&mut s, S1_LINE).1, "bypass");
    assert!(s.plan_cache_dependencies().is_empty(), "never filled");

    s.optimize = true;
    let (optimized, how) = serve_how(&mut s, S1_LINE);
    assert_eq!(how, "miss");
    assert_eq!(optimized.value, unoptimized.value);
    s.optimize = false;
    assert_eq!(serve_how(&mut s, S1_LINE).1, "bypass", "never read");
    assert_eq!(cache_counts(&s), (0, 1, 0));
    vdb.shutdown();
}

#[derive(Debug, Clone)]
enum Op {
    /// A request of `served_mix_requests()`, its literal redrawn.
    Query(usize, i32),
    /// `.commit append` of a fresh row, or `delete` of the oldest one
    /// still there, on `S1` (false) or `E1` (true).
    Append(bool),
    Delete(bool),
    Refresh,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let query = || (0usize..9, 0i32..2).prop_map(|(line, k)| Op::Query(line, k));
    prop::collection::vec(
        prop_oneof![
            query(),
            query(),
            query(),
            query(),
            any::<bool>().prop_map(Op::Append),
            any::<bool>().prop_map(Op::Delete),
            Just(Op::Refresh),
            Just(Op::Refresh),
        ],
        40..80,
    )
}

/// The `line`-th served request with its literal (when it has one)
/// replaced by one of two: few enough that lines repeat.
fn request(line: usize, k: i32) -> String {
    let text = common::served_mix_requests()[line];
    for (literal, drawn) in [
        ("S1.sdept = 3", format!("S1.sdept = {k}")),
        ("floor = 5", format!("floor = {}", 1 + k)),
        ("floor = 2", format!("floor = {}", 1 + k)),
        ("esal > 1010", format!("esal > {}", 1010 + k)),
        ("esal = 1003", format!("esal = {}", 1003 + k)),
    ] {
        if text.contains(literal) {
            return text.replace(literal, &drawn);
        }
    }
    text.to_string()
}

/// (7) Under any interleaving of repeated requests, commits and
/// refreshes, a session with a long-lived cache answers every request
/// exactly as a session begun afresh on the same generation does.  The
/// fresh sessions come from a twin database that receives each commit
/// only when the long-lived session re-pins, so that its newest
/// generation is always the one the long-lived session reads.
fn check_interleaving(ops: &[Op]) {
    let vdb = VersionedDb::new(server_mix_db(24));
    let twin = VersionedDb::new(server_mix_db(24));
    let mut s = vdb.begin_session();
    let mut pending: Vec<String> = Vec::new();
    let (mut written, mut deleted) = ([0usize; 2], [0usize; 2]);
    for op in ops {
        match op {
            Op::Query(line, k) => {
                let line = request(*line, *k);
                let (warm, _) = serve_how(&mut s, &line);
                let (fresh, how) = serve_how(&mut twin.begin_session(), &line);
                assert_eq!(how, "miss");
                assert_eq!(warm, fresh, "{line} after {ops:?}");
            }
            Op::Append(e1) | Op::Delete(e1) => {
                let i = usize::from(*e1);
                let statement = if matches!(op, Op::Append(_)) {
                    written[i] += 1;
                    let k = written[i];
                    if *e1 {
                        format!("append to E1 ((ename: \"w{k}\", esal: {}))", 5000 + k)
                    } else {
                        format!(
                            "append to S1 ((sdept: {}, sadv: \"e1\", sname: \"w{k}\"))",
                            k % 3
                        )
                    }
                } else if deleted[i] < written[i] {
                    deleted[i] += 1;
                    let k = deleted[i];
                    if *e1 {
                        format!("delete from E1 where E1.ename = \"w{k}\"")
                    } else {
                        format!("delete from S1 where S1.sname = \"w{k}\"")
                    }
                } else {
                    continue;
                };
                vdb.commit(&statement).unwrap();
                pending.push(statement);
            }
            Op::Refresh => {
                for statement in pending.drain(..) {
                    twin.commit(&statement).unwrap();
                }
                s.refresh();
            }
        }
    }
    vdb.shutdown();
    twin.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a_warm_cache_answers_as_a_fresh_session_does(ops in arb_ops()) {
        check_interleaving(&ops);
    }
}
