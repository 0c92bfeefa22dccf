//! Snapshot-isolation battery for the session layer.
//!
//! The contract under test (see `excess_db::session`):
//!
//! 1. A session pinned at generation *g* observes **exactly** the state
//!    produced by replaying the commit history up to *g* on a fresh copy
//!    of the seed database — no torn batches, no write leakage.
//! 2. A pinned session's results are frozen: concurrent commits (even
//!    ones racing the read) never change what it sees, until `refresh`.

use excess::db::{Database, VersionedDb};
use excess::types::Value;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

/// The canonical wire rendering of a query result — what both sides of
/// every equivalence below are reduced to before comparison.
fn canon_of(db: &mut Database, src: &str) -> String {
    let v = db.execute(src).expect("replay query");
    let canon = excess::algebra::canon::canonical_form(&v, db.store());
    excess::db::value_json(&canon)
}

fn seed() -> Database {
    let mut db = Database::new();
    db.execute(
        "define type Dept : (dname: char, budget: int4) \
         create DS : {Dept}",
    )
    .expect("seed DDL");
    for i in 0..6 {
        db.execute(&format!(
            "append to DS ((dname: \"d{i}\", budget: {}))",
            100 * (i + 1)
        ))
        .expect("seed rows");
    }
    db
}

const PROBE: &str = "retrieve (DS.dname, DS.budget)";

/// One committed write, generated by proptest.
#[derive(Debug, Clone)]
enum Op {
    Append { name: u8, budget: i32 },
    Delete { budget: i32 },
    Replace { budget: i32, add: i32 },
}

impl Op {
    fn src(&self) -> String {
        match self {
            Op::Append { name, budget } => {
                format!("append to DS ((dname: \"n{name}\", budget: {budget}))")
            }
            Op::Delete { budget } => format!("delete from DS where DS.budget = {budget}"),
            Op::Replace { budget, add } => {
                format!("replace DS (budget: DS.budget + {add}) where DS.budget < {budget}")
            }
        }
    }
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..20, 50i32..900).prop_map(|(name, budget)| Op::Append { name, budget }),
        (50i32..900).prop_map(|budget| Op::Delete { budget }),
        (100i32..700, 1i32..50).prop_map(|(budget, add)| Op::Replace { budget, add }),
    ]
}

/// Invariant 1: every snapshot equals serial replay of the history at
/// its generation — with sessions begun *before* later commits happened,
/// queried *after* all commits finished.  (Body hoisted out of the
/// `proptest!` block: the vendored macro token-munches the whole body
/// and hits the recursion limit on long ones.)
fn check_snapshots_equal_serial_replay(ops: &[Op]) {
    let vdb = VersionedDb::new(seed());
    // Pin one session per generation as it appears.
    let mut pinned = vec![vdb.begin_session()];
    for op in ops {
        // Ops may legitimately fail (e.g. a replace that types badly);
        // commit errors leave no state behind either way.
        let _ = vdb.commit(&op.src());
        pinned.push(vdb.begin_session());
    }
    let history = vdb.history();
    for session in &mut pinned {
        let g = session.generation();
        let mut replay = seed();
        for batch in history.iter().filter(|b| b.generation <= g) {
            for stmt in &batch.statements {
                replay
                    .execute(stmt)
                    .expect("replaying an applied statement");
            }
        }
        let expect = canon_of(&mut replay, PROBE);
        let out = session.query(PROBE).expect("snapshot query");
        let got = excess::db::value_json(&session.canon(&out.value));
        assert_eq!(got, expect, "generation {g}");
    }
    vdb.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn snapshots_equal_serial_replay(ops in prop::collection::vec(arb_op(), 1..8)) {
        check_snapshots_equal_serial_replay(&ops);
    }
}

/// Invariant 2, racing for real: reader threads pin a session and
/// hammer the same query while the main thread commits writes.  Every
/// reader must see its first answer forever (frozen snapshot), and that
/// answer must equal serial replay at its generation.
#[test]
fn concurrent_readers_see_frozen_state_equal_to_replay() {
    let vdb = VersionedDb::new(seed());
    let stop = Arc::new(AtomicBool::new(false));
    // Commits start only once every reader has pinned and read once, and
    // every reader re-reads at least once after that — so each one races
    // (or follows) the write stream however the threads are scheduled.
    let pinned = Arc::new(Barrier::new(5));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let vdb = vdb.clone();
            let stop = stop.clone();
            let pinned = pinned.clone();
            std::thread::spawn(move || {
                let mut session = vdb.begin_session();
                let g = session.generation();
                let first = {
                    let out = session.query(PROBE).expect("first read");
                    excess::db::value_json(&session.canon(&out.value))
                };
                pinned.wait();
                let mut reads = 1u64;
                loop {
                    let out = session.query(PROBE).expect("repeat read");
                    let again = excess::db::value_json(&session.canon(&out.value));
                    assert_eq!(again, first, "snapshot changed under a pinned session");
                    reads += 1;
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                (g, first, reads)
            })
        })
        .collect();
    pinned.wait();
    // Commit a stream of writes while the readers run.
    for i in 0..30 {
        vdb.commit(&format!(
            "append to DS ((dname: \"w{i}\", budget: {}))",
            1000 + i
        ))
        .expect("commit");
    }
    stop.store(true, Ordering::Relaxed);
    let history = vdb.history();
    for reader in readers {
        let (g, frozen, reads) = reader.join().expect("reader thread");
        assert!(reads >= 2, "reader should have raced at least one commit");
        let mut replay = seed();
        for batch in history.iter().filter(|b| b.generation <= g) {
            for stmt in &batch.statements {
                replay.execute(stmt).expect("replay");
            }
        }
        assert_eq!(
            frozen,
            canon_of(&mut replay, PROBE),
            "reader pinned at generation {g} disagrees with serial replay"
        );
    }
    // All 30 commits eventually published.
    assert_eq!(
        vdb.current().number,
        vdb.history().last().unwrap().generation
    );
    vdb.shutdown();
}

/// A refreshed session converges to the latest committed state.
#[test]
fn refresh_converges_to_latest_generation() {
    let vdb = VersionedDb::new(seed());
    let mut session = vdb.begin_session();
    vdb.commit("delete from DS where DS.budget = 100")
        .expect("commit");
    vdb.commit("append to DS ((dname: \"z\", budget: 999))")
        .expect("commit");
    session.refresh();
    assert_eq!(session.generation(), vdb.generation());
    let out = session.query(PROBE).expect("query");
    let got = excess::db::value_json(&session.canon(&out.value));
    let mut replay = seed();
    for batch in vdb.history() {
        for stmt in &batch.statements {
            replay.execute(stmt).expect("replay");
        }
    }
    assert_eq!(got, canon_of(&mut replay, PROBE));
    vdb.shutdown();
}

/// Sessions that only declared ranges or whose commits failed leave no
/// trace in the history, so replay stays exact.
#[test]
fn failed_commits_never_enter_history() {
    let vdb = VersionedDb::new(seed());
    let err = vdb
        .commit("append to DS ((dname: \"ok\", budget: 1)) create DS : {Dept}")
        .expect_err("second statement fails");
    assert!(err.contains("already exists"), "{err}");
    assert!(vdb.history().is_empty());
    assert_eq!(vdb.generation(), 0);
    let mut s = vdb.begin_session();
    assert_eq!(s.query(PROBE).expect("query").rows, 6);
    vdb.shutdown();
}

/// Isolation is structural: a commit's generation shares with its
/// predecessor every value the commit did not write — a clone is a
/// reference count — and the one extent it wrote is a new allocation, so
/// the predecessor (and any session pinned to it) keeps the old one.
#[test]
fn a_commit_copies_only_the_extent_it_writes() {
    let vdb = VersionedDb::new(excess_bench::server_mix::server_mix_db(20));
    let mut pinned = vdb.begin_session();
    let before = vdb.current();
    vdb.commit("append to E1 ((ename: \"w0\", esal: 5000))")
        .expect("commit");
    let after = vdb.current();
    assert_eq!(after.number, before.number + 1);

    let of = |g: &excess::db::Generation, name: &str| g.catalog.value(name).cloned().unwrap();
    assert!(of(&after, "S1").shares_storage_with(&of(&before, "S1")));
    assert!(of(&after, "S2").shares_storage_with(&of(&before, "S2")));
    assert!(!of(&after, "E1").shares_storage_with(&of(&before, "E1")));
    assert_ne!(of(&after, "E1"), of(&before, "E1"));

    // The store was republished, yet every object in it is still the
    // predecessor's allocation — and so is a plain clone's.
    let cloned = (*after.store).clone();
    assert!(!before.store.is_empty());
    for (oid, obj) in before.store.iter() {
        assert!(after
            .store
            .deref(oid)
            .unwrap()
            .shares_storage_with(&obj.value));
        assert!(cloned.deref(oid).unwrap().shares_storage_with(&obj.value));
    }

    // The session pinned before the commit still reads the old `E1`.
    const E1: &str = "retrieve (E1.ename, E1.esal)";
    let rows = pinned.query(E1).expect("pinned read").rows;
    assert_eq!(rows, of(&before, "E1").as_set().unwrap().len());
    pinned.refresh();
    assert_eq!(pinned.query(E1).expect("refreshed read").rows, rows + 1);
    vdb.shutdown();
}

/// The committer applies each statement's change to the statistics of
/// what it wrote, and to the per-exact-type extents: what it publishes is
/// what a full collection over the replayed history finds, for every kind
/// of data statement — extents included, whose values are a re-filter of
/// their base.
#[test]
fn published_statistics_equal_a_fresh_collection_on_replay() {
    const EXTENTS: [(&str, &str); 2] = [("DS::exact::Dept", "Dept"), ("DS::exact::Lab", "Lab")];
    let indexed = || {
        let mut db = seed();
        db.execute("define type Lab : (floor: int4) inherits Dept")
            .expect("subtype");
        for (_, ty) in EXTENTS {
            db.create_extent_index("DS", ty).expect("index");
        }
        db
    };
    let vdb = VersionedDb::new(indexed());
    let commits = [
        "append to DS ((dname: \"n1\", budget: 250))",
        "append to DS ((dname: \"l1\", budget: 300, floor: 2))",
        "delete from DS where DS.budget = 300",
        "append to DS ((dname: \"l2\", budget: 350, floor: 3))",
        "replace DS (budget: DS.budget + 7) where DS.budget < 450",
        "create DT : {Dept} append to DT ((dname: \"t\", budget: 1))",
        "create Empty : {Dept}",
    ];
    // Per-object statistics, in name order (the map is a `HashMap`).
    let objects = |s: &excess::optimizer::Statistics| {
        let sorted: std::collections::BTreeMap<_, _> = s.objects.iter().collect();
        format!("{sorted:?}")
    };
    let mut replay = indexed();
    for (i, src) in commits.iter().enumerate() {
        vdb.commit(src).expect("commit");
        replay.execute(src).expect("replay");
        // Re-declaring an index re-files it from the whole base.
        for (_, ty) in EXTENTS {
            replay.create_extent_index("DS", ty).expect("re-filter");
        }
        replay.collect_stats();
        let published = vdb.current();
        assert_eq!(
            objects(&published.stats),
            objects(replay.statistics()),
            "after `{src}`"
        );
        assert!(objects(&published.stats).contains("DS::exact::Lab"));
        for (extent, _) in EXTENTS {
            assert_eq!(
                published.catalog.value(extent),
                replay.catalog().value(extent),
                "{extent} after `{src}`"
            );
        }
        let batch = &vdb.history()[i];
        assert!(batch.stats.starts_with("incremental: "), "{}", batch.stats);
    }
    let labs = vdb.current().catalog.value("DS::exact::Lab").cloned();
    assert_eq!(labs.and_then(|v| v.as_set().map(|s| s.len())), Some(1));
    let stats = vdb.stats();
    assert_eq!(
        (stats.stats_incremental, stats.stats_full),
        (commits.len() as u64, 0)
    );
    vdb.shutdown();
}

/// Proportional to the delta, counted without a clock: the elements whose
/// attributes the committer hashed (`ServerStats::stats_elements`) are
/// those a commit added or removed — once in the object it wrote and once
/// in the extent the element belongs to — or, for an update of a stored
/// object, two per object referencing it; a procedure call, whose targets
/// are unknown, sweeps the whole database.
#[test]
fn committed_statistics_work_is_proportional_to_the_delta() {
    let u = excess_workload::university::generate(&excess_workload::UniversityParams::tiny())
        .expect("university");
    let emp0 = Value::Ref(u.employees[0]);
    let mut db = u.db;
    db.create_extent_index("P", "Person").expect("index");
    db.create_extent_index("P", "Student").expect("index");
    let vdb = VersionedDb::new(db);
    let mut seen = vdb.stats().stats_elements;
    assert_eq!(seen, 0, "the first collection is not the committer's");
    let mut hashed_by = |src: &str| {
        vdb.commit(src).unwrap_or_else(|e| panic!("{src}: {e}"));
        let now = vdb.stats().stats_elements;
        now - std::mem::replace(&mut seen, now)
    };
    // Each object's elements as a sweep visits them: distinct ones of a
    // set, every one of an array.
    let elements = |name: &str| match vdb.current().catalog.value(name) {
        Some(Value::Set(s)) => s.distinct_len() as u64,
        Some(Value::Array(a)) => a.len() as u64,
        _ => 0,
    };
    let p_and_extents = || ["P", "P::exact::Person", "P::exact::Student"].map(elements);

    let person = |name: &str| {
        format!(
            "append to P (ssnum: 1, name: \"{name}\", street: \"1 Bench St\", \
             city: \"Madison\", zip: 53700, birthday: date(1960, 1, 1))"
        )
    };
    assert_eq!(hashed_by(&person("w0")), 2, "P and P::exact::Person");
    assert_eq!(hashed_by(&person("w0")), 0, "a second occurrence");
    assert_eq!(hashed_by(&person("w1")), 2);
    assert_eq!(hashed_by("append to P (dne)"), 0, "dne is never stored");

    assert_eq!(hashed_by("delete from P where P.name = \"nobody\""), 0);
    assert_eq!(
        hashed_by("delete from P where P.name = \"w0\""),
        2,
        "two occurrences of one element, in P and its extent"
    );
    let before = p_and_extents();
    let n = hashed_by("delete from P where P.city = \"Madison\"");
    let after = p_and_extents();
    let removed: u64 = before.iter().zip(&after).map(|(b, a)| b - a).sum();
    assert!(
        after[0] < before[0] && after[1] < before[1],
        "{before:?} {after:?}"
    );
    assert_eq!(n, removed, "exactly the distinct elements removed");

    let holders = vdb
        .current()
        .catalog
        .all_names()
        .filter(|name| match vdb.current().catalog.value(name) {
            Some(Value::Set(s)) => s.contains(&emp0),
            Some(Value::Array(a)) => a.contains(&emp0),
            _ => false,
        })
        .count() as u64;
    assert_eq!(holders, 2, "Employees and TopTen");
    assert_eq!(
        hashed_by(
            "replace Employees (salary: Employees.salary + 1) \
             where Employees.name = \"Emp0\""
        ),
        2 * holders
    );

    let generation = vdb.current();
    let everything: u64 = generation.catalog.all_names().map(elements).sum();
    assert_eq!(
        hashed_by("define procedure noop (n: int4) { retrieve (n + 1) } call noop(1)"),
        everything
    );
    vdb.shutdown();
}

/// One commit that writes two extents sharing stored objects: `Staff`
/// gains a member, then `replace Board` updates that member's object in
/// place.  The update re-tallies the object in every extent holding it,
/// so `Staff` sees the later salary: what the committer publishes is
/// what the embedded `Database` holds after the same program, and both
/// are what a full collection finds.  (Until statistics were maintained
/// from deltas, `Staff` kept its own statement's NDV here.)
#[test]
fn a_batch_publishes_every_extent_as_of_the_whole_batch() {
    let mut seed = Database::new();
    seed.execute(
        r#"define type Emp: (name: char[], salary: int4)
           create Slots: array [1..2] of ref Emp
           create Board: { ref Emp }
           create Staff: { ref Emp }
           assign Slots[1] ((name: "x", salary: 1))
           assign Slots[2] ((name: "y", salary: 1))
           append to Board (Slots[1])
           append to Board (Slots[2])
           append to Staff (Slots[1])"#,
    )
    .expect("seed");
    let batch = r#"append to Staff (Slots[2])
                   replace Board (salary: Board.salary + 5) where Board.name = "y""#;
    let of = |s: &excess::optimizer::Statistics, name: &str| {
        format!("{:?}", s.objects.get(name).expect("analyzed"))
    };

    let vdb = VersionedDb::new(seed.clone());
    vdb.commit(batch).expect("commit");
    assert_eq!(vdb.history()[0].stats, "incremental: Board, Staff");
    let mut replay = seed;
    replay.collect_stats();
    replay.execute(batch).expect("replay");
    let published = vdb.current();
    for name in ["Board", "Staff"] {
        assert_eq!(
            of(&published.stats, name),
            of(replay.statistics(), name),
            "{name}"
        );
    }
    // `Staff`'s statistics count both distinct salaries, as a sweep does.
    replay.collect_stats();
    assert_eq!(
        of(&published.stats, "Board"),
        of(replay.statistics(), "Board")
    );
    assert_eq!(
        of(&published.stats, "Staff"),
        of(replay.statistics(), "Staff")
    );
    vdb.shutdown();
}

/// A commit copies only the components it writes.  A `delete` and an
/// `append to P` write the catalog and the statistics: the new generation
/// has its own of those two, and shares the store's map, the registry,
/// the methods and the `range of` declarations with the generation before.
#[test]
fn a_commit_copies_only_the_components_it_writes() {
    let u = excess_workload::university::generate(&excess_workload::UniversityParams::tiny())
        .expect("university");
    let vdb = VersionedDb::new(u.db);
    let append = "append to P (ssnum: 1, name: \"w0\", street: \"1 Bench St\", \
                  city: \"Madison\", zip: 53700, birthday: date(1960, 1, 1))";
    for src in [append, "delete from P where P.name = \"w0\""] {
        let before = vdb.current();
        vdb.commit(src).unwrap_or_else(|e| panic!("{src}: {e}"));
        let after = vdb.current();
        assert_eq!(after.number, before.number + 1, "{src}");
        assert!(after.store.shares_storage_with(&before.store), "{src}");
        assert!(Arc::ptr_eq(&after.registry, &before.registry), "{src}");
        assert!(Arc::ptr_eq(&after.methods, &before.methods), "{src}");
        assert!(Arc::ptr_eq(&after.ranges, &before.ranges), "{src}");
        assert!(!after.catalog.shares_storage_with(&before.catalog), "{src}");
        assert!(!Arc::ptr_eq(&after.stats, &before.stats), "{src}");
        let p = |g: &excess::db::Generation| g.catalog.value("P").cloned().unwrap();
        assert_ne!(p(&after), p(&before), "{src}");
    }
    // A session's store is the generation's, before and after a refresh.
    let mut session = vdb.begin_session();
    assert!(session
        .store()
        .shares_storage_with(&session.snapshot().store));
    session.commit(append).expect("commit");
    assert!(session.store().shares_storage_with(&vdb.current().store));
    vdb.shutdown();
}

/// `define type` writes the registry: the generation gets a new one — and
/// shares everything else — so a plan cached under the old registry is
/// stale.
#[test]
fn define_type_publishes_a_new_registry_and_stales_cached_plans() {
    let vdb = VersionedDb::new(seed());
    let mut session = vdb.begin_session();
    session.query(PROBE).expect("first read");
    session.query(PROBE).expect("second read");
    assert!(session.last_plan_was_cached());
    let before = vdb.current();
    session
        .commit("define type Lab : (floor: int4) inherits Dept")
        .expect("define");
    let after = vdb.current();
    assert!(!Arc::ptr_eq(&after.registry, &before.registry));
    assert!(after.registry.lookup("Lab").is_ok());
    assert!(after.store.shares_storage_with(&before.store));
    assert!(after.catalog.shares_storage_with(&before.catalog));
    assert!(Arc::ptr_eq(&after.stats, &before.stats));
    session.query(PROBE).expect("read after define");
    assert!(!session.last_plan_was_cached());
    assert_eq!(session.telemetry().registry.counter("plan_cache.stale"), 1);
    vdb.shutdown();
}

/// A query that mints an identity copies its own session's store and
/// nothing else: neither the generation nor another session sees the OID.
#[test]
fn a_minting_query_copies_only_its_session_store() {
    let mut db = seed();
    db.execute("define type Cell : (v: int4)").expect("type");
    let vdb = VersionedDb::new(db);
    let mut minter = vdb.begin_session();
    let mut other = vdb.begin_session();
    let out = minter
        .query("retrieve (mkref((v: 5), Cell))")
        .expect("mint");
    let oid = out.value.as_ref_oid().expect("a reference");
    let generation = vdb.current();
    assert!(minter.store().contains(oid));
    assert_eq!(minter.store().len(), generation.store.len() + 1);
    assert!(!minter.store().shares_storage_with(&generation.store));
    assert!(!generation.store.contains(oid));
    other.query(PROBE).expect("other read");
    assert!(!other.store().contains(oid));
    assert!(other.store().shares_storage_with(&generation.store));
    vdb.shutdown();
}

/// A commit whose second statement fails leaves the master and the
/// generation holding exactly the components they held: not equal ones,
/// the same ones.
#[test]
fn a_failed_commit_leaves_every_component_where_it_was() {
    let vdb = VersionedDb::new(seed());
    let before = vdb.current();
    vdb.commit("append to DS ((dname: \"ok\", budget: 1)) create DS : {Dept}")
        .expect_err("second statement fails");
    let after = vdb.current();
    assert!(Arc::ptr_eq(&before, &after));
    let master = vdb.shutdown().expect("master");
    assert!(std::ptr::eq(master.registry(), &*after.registry));
    assert!(std::ptr::eq(master.methods(), &*after.methods));
    assert!(std::ptr::eq(master.ranges(), &*after.ranges));
    assert!(std::ptr::eq(master.statistics(), &*after.stats));
    assert!(master.store().shares_storage_with(&after.store));
    assert!(master.catalog().shares_storage_with(&after.catalog));
}
