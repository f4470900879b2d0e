//! Allocation budget of the round-start micro-snapshot.
//!
//! Wide adaptive shard rounds save every cell into a reused bare
//! buffer once per round (`microsvc::shard`). Once that buffer and the
//! engine are warm, `Engine::snap_save` must not touch the heap at all.
//! Into a bare buffer `ClosedLoop::snap_save` only takes a rollback point,
//! which allocates nothing either, and rolling back to a point with nothing
//! to undo allocates nothing. This binary installs a counting global
//! allocator to prove it; the counter is per thread, so tests running in
//! parallel do not see each other's allocations.

use loadgen::ClosedLoop;
use microsvc::{Deployment, Engine, EngineParams};
use simcore::{SimDuration, SimTime, SnapReader, SnapWriter};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use teastore::TeaStore;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// One shard cell as the 1M-user workloads build it, scaled down: the
/// paper's 2-socket machine and a coalesced closed loop, stopped mid-run
/// with users parked, requests in flight and timers pending.
fn mid_run_cell() -> (Engine, ClosedLoop) {
    let topo = Arc::new(cputopo::Topology::zen2_2p_128c());
    let store = TeaStore::browse();
    let mix = store.mix();
    let app = store.into_app();
    let deployment = Deployment::uniform(&app, &topo, 4, 12);
    let mut engine = Engine::new(topo, EngineParams::default(), app, deployment, 1);
    let mut load = ClosedLoop::new(20_000)
        .think_time(SimDuration::from_secs(5))
        .mix(&mix)
        .warmup(SimDuration::from_millis(100))
        .coalesce(SimDuration::from_millis(10));
    engine.run(&mut load, SimTime::ZERO + SimDuration::from_millis(150));
    assert!(load.parked_users() > 10_000, "most users must be parked");
    assert!(
        engine.events_processed() > 1_000,
        "the run must be under way"
    );
    (engine, load)
}

#[test]
fn warm_engine_micro_snapshot_allocates_nothing() {
    let (engine, _load) = mid_run_cell();
    let mut buf = Vec::new();
    // Warm-up: the first saves size the buffer.
    for _ in 0..2 {
        let mut w = SnapWriter::bare(buf);
        engine.snap_save(&mut w);
        buf = w.into_bare();
    }
    for _ in 0..3 {
        let mut w = SnapWriter::bare(std::mem::take(&mut buf));
        let n = allocations_in(|| engine.snap_save(&mut w));
        buf = w.into_bare();
        assert_eq!(
            n, 0,
            "Engine::snap_save allocated {n} time(s) into a warm buffer"
        );
    }
}

#[test]
fn warm_closed_loop_micro_snapshot_allocates_nothing() {
    let (_engine, load) = mid_run_cell();
    let mut buf = Vec::new();
    for _ in 0..2 {
        let mut w = SnapWriter::bare(buf);
        load.snap_save(&mut w);
        buf = w.into_bare();
    }
    for _ in 0..3 {
        let mut w = SnapWriter::bare(std::mem::take(&mut buf));
        let n = allocations_in(|| load.snap_save(&mut w));
        buf = w.into_bare();
        assert_eq!(
            n, 0,
            "ClosedLoop::snap_save allocated {n} time(s) taking a rollback point"
        );
    }
}

#[test]
fn rolling_back_an_untouched_closed_loop_allocates_nothing() {
    let (_engine, mut load) = mid_run_cell();
    let mut w = SnapWriter::bare(Vec::new());
    load.snap_save(&mut w);
    let point = w.into_bare();
    for _ in 0..3 {
        let n = allocations_in(|| {
            load.snap_restore(&mut SnapReader::bare(&point))
                .expect("the latest point restores");
        });
        assert_eq!(
            n, 0,
            "a rollback with nothing to undo allocated {n} time(s)"
        );
    }
}

#[test]
fn the_counter_sees_allocations() {
    // Guards the two budgets above against a counter that never counts.
    let n = allocations_in(|| drop(std::hint::black_box(vec![0u8; 64])));
    assert_eq!(n, 1);
}
