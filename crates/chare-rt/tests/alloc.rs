//! Allocation-count tests for the message pipeline: the aggregator's
//! steady state and its disabled fast path must not touch the heap.
//!
//! Uses a counting `#[global_allocator]` local to this test binary, so the
//! assertions hold for the real allocator behavior, not a model of it.

use chare_rt::aggregator::{Aggregator, Flush};
use chare_rt::{AggregationConfig, ChareId, Message};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// Count only allocations made by threads that opted in, each thread in its
// own counter: the libtest harness allocates concurrently (progress output,
// per-test threads), and the tests of this binary run in parallel, so a
// shared counter saw the other tests' allocations.
thread_local! {
    static TRACK: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // try_with: TLS may already be torn down when a dying thread allocates.
    if TRACK.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

struct CountingAlloc;

// SAFETY: delegates every operation to `System`, only bumping a counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: the caller's GlobalAlloc contract is forwarded to `System` unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the dealloc contract is forwarded to `System` unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: the realloc contract is forwarded to `System` unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        // SAFETY: the caller's GlobalAlloc contract is forwarded to `System` unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// This thread's allocation count (and start counting on this thread).
fn allocs() -> u64 {
    TRACK.with(|t| t.set(true));
    ALLOCS.with(Cell::get)
}

#[derive(Debug)]
struct Note(#[allow(dead_code)] u64);
impl Message for Note {}

fn cfg(enabled: bool, max_batch: u32) -> AggregationConfig {
    AggregationConfig {
        enabled,
        max_batch,
        tram_2d: false,
        adaptive: false,
    }
}

/// One full lane cycle: fill to `max_batch` (the last push flushes), drain
/// the packet as a receiver would, and recycle the envelope `Vec`.
fn cycle(a: &mut Aggregator<Note>, batch: u32) {
    let mut flushed = None;
    for i in 0..batch {
        if let Some(f) = a.push(1, ChareId(i), Note(i as u64)) {
            flushed = Some(f);
        }
    }
    let Some(Flush::Packet(mut p)) = flushed else {
        panic!("filling the lane must flush a packet");
    };
    assert_eq!(p.envelopes.len(), batch as usize);
    p.envelopes.clear();
    a.recycle(p.envelopes);
}

#[test]
fn aggregator_steady_state_is_allocation_free() {
    const BATCH: u32 = 64;
    let mut a = Aggregator::new(2, cfg(true, BATCH));
    // Warm up: grow the lane and seed the recycle pool (two buffers
    // circulate between the lane and the pool).
    for _ in 0..3 {
        cycle(&mut a, BATCH);
    }
    let before = allocs();
    for _ in 0..1000 {
        cycle(&mut a, BATCH);
    }
    assert_eq!(
        allocs() - before,
        0,
        "steady-state aggregation must not allocate"
    );
}

#[test]
fn disabled_fast_path_never_allocates() {
    let mut a = Aggregator::new(2, cfg(false, 64));
    let before = allocs();
    for i in 0..1000u32 {
        match a.push(1, ChareId(i), Note(i as u64)) {
            Some(Flush::Single { dst_pe, .. }) => assert_eq!(dst_pe, 1),
            other => panic!("disabled path must emit singles, got {other:?}"),
        }
    }
    assert_eq!(
        allocs() - before,
        0,
        "the aggregation-disabled path must not heap-allocate per message"
    );
    assert_eq!(a.packets(), 1000);
}
