//! Regression test: an alive node costs the engine at most 192 bytes of
//! heap, and more than 65,535 of them can be alive at once.
//!
//! T0 opens a block and writes `x`; then T1 runs `n` short blocks that each
//! read `x`; then T0's block ends. Every reader stays alive until T0 ends,
//! each with exactly one out-edge and an empty chain clock, so the engine's
//! peak heap divided by its peak of alive nodes is the footprint of one
//! node: its slot, its edge, and its share of the slot table's slack and
//! the free list. Two sizes keep one lucky `Vec` capacity from passing the
//! test. The ops are generated on the fly, so only the engine allocates.
//! We count allocations rather than read OS RSS, which is noisy and
//! platform-dependent.
//!
//! This file intentionally contains a single test: a parallel test in the
//! same process would pollute the allocator counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use velodrome::Velodrome;
use velodrome_events::{Label, Op, ThreadId, VarId};
use velodrome_monitor::{Tool, WarningCategory};

/// Counts live heap bytes and tracks the high-water mark.
struct CountingAlloc;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let cur = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(cur, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                let cur = CURRENT.fetch_add(new_size - layout.size(), Ordering::Relaxed) + new_size
                    - layout.size();
                PEAK.fetch_max(cur, Ordering::Relaxed);
            } else {
                CURRENT.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The largest number of alive nodes a 16-bit slot index could name.
const OLD_CAP: u64 = 65_535;

/// The budget per alive node, in bytes.
const BYTES_PER_NODE: usize = 192;

/// Runs the long block with `readers` short ones; returns the engine's
/// peak heap above the starting level and its peak of alive nodes.
fn probe(readers: usize) -> (usize, u64) {
    let (t0, t1, x) = (ThreadId::new(0), ThreadId::new(1), VarId::new(0));
    let ops = [
        Op::Begin {
            t: t0,
            l: Label::new(0),
        },
        Op::Write { t: t0, x },
    ]
    .into_iter()
    .chain((0..readers).flat_map(|_| {
        [
            Op::Begin {
                t: t1,
                l: Label::new(1),
            },
            Op::Read { t: t1, x },
            Op::End { t: t1 },
        ]
    }))
    .chain([Op::End { t: t0 }]);
    let before = CURRENT.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let mut engine = Velodrome::new();
    for (i, op) in ops.enumerate() {
        engine.op(i, op);
    }
    engine.end_of_trace();
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(before);
    let warnings = engine.take_warnings();
    assert!(
        !warnings
            .iter()
            .any(|w| w.category == WarningCategory::Degraded),
        "{readers} readers degraded: {warnings:?}"
    );
    assert!(warnings.is_empty(), "{readers} readers: {warnings:?}");
    assert_eq!(engine.alive_nodes(), 0, "T0's end collects every reader");
    (peak, engine.stats().max_alive)
}

#[test]
fn alive_node_fits_in_192_bytes_past_the_16_bit_cap() {
    for readers in [200_000, 300_000] {
        let (peak, max_alive) = probe(readers);
        assert_eq!(max_alive, readers as u64 + 1);
        assert!(max_alive > OLD_CAP, "{max_alive} alive nodes");
        let per_node = peak as f64 / max_alive as f64;
        assert!(
            peak <= BYTES_PER_NODE * max_alive as usize,
            "{readers} readers: peak heap {peak} B is {per_node:.1} B per alive node"
        );
    }
}
