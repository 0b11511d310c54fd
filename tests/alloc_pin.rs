//! Allocation pin for the dense ring: after warm-up, one dense split
//! aggregation on `LocalCluster::local(4, 1)` allocates segment-sized
//! buffers only for
//!
//! * the `P` segments each executor keeps after the reduce-scatter,
//! * each executor's gather frame (its `P` segments, encoded),
//! * the driver's decode of the `P·N` gathered segments and concat's output,
//! * the op's zero value and the IMM stage's one clone of it per executor,
//! * frames the pool did not have on its shelf (counted as pool misses).
//!
//! The ring steps themselves reduce into pooled frames and allocate nothing;
//! a split that copied each executor's `P·N` segments out of its aggregator
//! would add `P·N` buffers per executor and fail the pin.
//!
//! The counting allocator is process-wide, so this binary holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sparker::engine::multiproc::part_vector;
use sparker::prelude::*;

/// Counts allocations (and growths) of at least `THRESHOLD` bytes.
struct Counting;

static THRESHOLD: AtomicUsize = AtomicUsize::new(usize::MAX);
static LARGE: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if size >= THRESHOLD.load(Ordering::Relaxed) {
        LARGE.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const EXECUTORS: usize = 4;
const PARTITIONS: usize = 8;
const DIM: usize = 1 << 16;

#[test]
fn dense_ring_allocates_only_the_owned_segments() {
    let cluster = LocalCluster::local(EXECUTORS, 1);
    let p = cluster.spec().ring_parallelism;
    let data = cluster
        .generate(PARTITIONS, |part| vec![part_vector(7, part as u64, DIM, 1.0)])
        .cache();
    assert_eq!(data.count().unwrap(), PARTITIONS as u64);
    let op = || {
        data.split_aggregate(
            sparker::dense::zeros(DIM),
            |mut acc: F64Array, v: &Vec<f64>| {
                for (a, x) in acc.0.iter_mut().zip(v) {
                    *a += x;
                }
                acc
            },
            sparker::dense::merge,
            sparker::dense::split,
            sparker::dense::merge_segments,
            sparker::dense::concat,
            SplitAggOpts::default(),
        )
        .unwrap()
    };
    // Warm-up fills the frame pool.
    let (want, _) = op();
    op();

    let segments = p * EXECUTORS;
    let segment_bytes = 8 * (DIM / segments);
    THRESHOLD.store(segment_bytes / 2, Ordering::Relaxed);
    LARGE.store(0, Ordering::Relaxed);
    let misses_before = sparker::net::pool::global().stats().misses;
    let (got, metrics) = op();
    let large = LARGE.load(Ordering::Relaxed);
    THRESHOLD.store(usize::MAX, Ordering::Relaxed);
    let pool_misses = (sparker::net::pool::global().stats().misses - misses_before) as usize;

    assert_eq!(got, want);
    assert!(!metrics.downgraded);
    let zeros = 1 + EXECUTORS;
    let owned = EXECUTORS * p;
    let gather_frames = EXECUTORS;
    let driver = segments + 1;
    let budget = zeros + owned + gather_frames + driver + pool_misses;
    assert!(
        large <= budget,
        "{large} allocations of >= {} bytes in one op; the budget is {budget} \
         ({zeros} zeros, {owned} owned segments, {gather_frames} gather frames, \
         {driver} driver decodes and concat, {pool_misses} pool misses)",
        segment_bytes / 2
    );
}
