//! Allocation counts on a served result's path from the evaluator to the
//! wire: `Session::canon`, then `value_json`.  A count repeats exactly
//! where a wall-clock time drifts with the host, so these pins stand
//! behind the path's latency: an OID-free result is its own canonical
//! form (no allocation at all), and the writer fills one growing buffer
//! (its reallocations, not one `String` per node).
//!
//! The counts are claimed for a release build:
//! `cargo test --release --test response_path`.

mod common;

use excess_bench::server_mix::{server_mix_db, ANALYTIC_JOINS, MIX};
use excess_db::{value_json, QueryOutcome, Session, VersionedDb};
use excess_workload::UniversityParams;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocator calls (alloc, alloc_zeroed, realloc) made on this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// The system allocator, counting calls per thread so that tests running
/// beside each other do not see one another's allocations.
struct Counting;

// SAFETY: every method forwards its arguments to `System` unchanged, so
// `System`'s guarantees hold.  The counter is a const-initialised
// thread-local `Cell<u64>`, which has no destructor: touching it neither
// allocates nor re-enters this allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract,
        // and `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f`, returning its result and the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// A plan-cache hit of `line` on `session` (the first run fills the
/// cache).
fn hit(session: &mut Session, line: &str) -> QueryOutcome {
    session.query(line).expect("first run");
    session.query(line).expect("cache hit")
}

const JOIN_PROJECT: &str = ANALYTIC_JOINS[0].1;
const F8: &str = "retrieve (S1.sname) where S1.sdept = 3";

#[test]
fn the_result_path_allocates_only_the_response_buffer() {
    let vdb = VersionedDb::new(server_mix_db(120));
    let mut session = vdb.begin_session();

    let out = hit(&mut session, JOIN_PROJECT);
    assert_eq!(out.rows, 720);
    let (canon, canon_allocs) = counted(|| session.canon(&out.value));
    assert!(canon.shares_storage_with(&out.value));
    assert_eq!(canon_allocs, 0, "canonical_form of join_project");
    let (json, json_allocs) = counted(|| value_json(&canon));
    assert!(json.len() > 10_000, "{} bytes", json.len());
    assert!(
        json_allocs <= 20,
        "value_json of join_project: {json_allocs}"
    );

    let out = hit(&mut session, F8);
    let ((), f8_allocs) = counted(|| {
        value_json(&session.canon(&out.value));
    });
    assert!(f8_allocs <= 8, "canon + JSON of an f8 hit: {f8_allocs}");

    drop(session);
    vdb.shutdown();
}

/// Allocations per plan-cache hit of the three `analytic` joins, the
/// whole request (parse through the evaluator, no canon or JSON).  The
/// translator gives each the paper's `rel_join`: `f6` then reaches
/// Figure 8, whose join has no residual to compare and whose DEs see
/// |S| + |E|-sized inputs, `join_agg` deduplicates both join inputs, and
/// `join_project` runs the projection fused into the hash join.  The fused
/// kernel reads each output row and the residual off the joined pair, so
/// no in-bucket pair is concatenated: with the correlated nested applies
/// these hits made 18 332, 10 876 and 9 363 allocations, and with
/// `TUP_CAT` rows built and dropped 1 443, 11 344 and 2 047.
#[test]
fn analytic_joins_allocate_what_the_paper_s_join_needs() {
    const F6: &str = MIX[0].1;
    const JOIN_AGG: &str = ANALYTIC_JOINS[1].1;
    let vdb = VersionedDb::new(server_mix_db(120));
    let mut session = vdb.begin_session();
    let mut measure = |line: &str| {
        session.query(line).expect("first run");
        let before = session.metrics().counters;
        let (_, allocs) = counted(|| session.query(line).expect("cache hit"));
        (allocs, session.metrics().counters - before)
    };

    let (f6_allocs, f6) = measure(F6);
    assert!(f6_allocs <= 1_500, "f6 hit: {f6_allocs}");
    assert_eq!(f6.comparisons, 0, "f6: {f6:?}");
    assert!(f6.de_input_occurrences <= 200, "f6: {f6:?}");

    let (agg_allocs, _) = measure(JOIN_AGG);
    assert!(agg_allocs < 2_047, "join_agg hit: {agg_allocs}");

    let (project_allocs, _) = measure(JOIN_PROJECT);
    assert!(
        project_allocs <= 5_500,
        "join_project hit: {project_allocs}"
    );

    drop(session);
    vdb.shutdown();
}

/// Allocations per plan-cache hit of every served request kind, the whole
/// request as above: the `served-retrieve` workloads' 14 kinds, each
/// pinned at its count on this code plus 2 % and 4 allocations (two runs
/// of one hit differ by one or two).  A change that makes a kind allocate
/// more fails here by name; one that makes it allocate less lowers its
/// pin.
#[test]
fn every_served_kind_s_hit_allocations_are_pinned() {
    const MIX_PINS: [(&str, u64); 9] = [
        ("f6", 1_282),
        ("f7", 750),
        ("f8", 243),
        ("f9", 616),
        ("f10", 262),
        ("f11", 1_620),
        ("join_project", 3_966),
        ("join_agg", 1_502),
        ("e1_probe", 170),
    ];
    const UNIVERSITY_PINS: [(&str, u64); 5] = [
        ("kids", 953),
        ("fig3", 205),
        ("fig4", 797),
        ("boss", 455),
        ("workload", 584),
    ];
    let mut over = Vec::new();
    let mut check = |vdb: VersionedDb, lines: &[&str], pins: &[(&str, u64)]| {
        let mut session = vdb.begin_session();
        assert_eq!(lines.len(), pins.len());
        for (line, &(kind, pin)) in lines.iter().zip(pins) {
            session.query(line).expect("first run");
            let (_, allocs) = counted(|| session.query(line).expect("cache hit"));
            if allocs > pin + pin / 50 + 4 {
                over.push(format!("{kind}: {allocs} > pin {pin}"));
            }
        }
        drop(session);
        vdb.shutdown();
    };
    check(
        VersionedDb::new(server_mix_db(120)),
        &common::served_mix_requests(),
        &MIX_PINS,
    );
    check(
        VersionedDb::new(common::served_university(&UniversityParams {
            seed: 1,
            ..UniversityParams::default()
        })),
        &common::SERVED_UNIVERSITY_REQUESTS,
        &UNIVERSITY_PINS,
    );
    assert!(over.is_empty(), "{over:?}");
}
