//! Allocation counts on a served result's path from the evaluator to the
//! wire: `Session::canon`, then `value_json`.  A count repeats exactly
//! where a wall-clock time drifts with the host, so these pins stand
//! behind the path's latency: an OID-free result is its own canonical
//! form (no allocation at all), and the writer fills one growing buffer
//! (its reallocations, not one `String` per node).
//!
//! The counts are claimed for a release build:
//! `cargo test --release --test response_path`.

use excess_bench::server_mix::server_mix_db;
use excess_db::{value_json, QueryOutcome, Session, VersionedDb};
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

const JOIN_PROJECT: &str = "range of S is S1 range of E is E1 \
                            retrieve (S.sname, E.esal) where S.sadv = E.ename";
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
