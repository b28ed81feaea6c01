//! Regression test: an alive node costs the engine at most 120 bytes of
//! heap, and more than 65,535 of them can be alive at once.
//!
//! T0 opens a block and writes `x`; then T1 runs `n` short blocks that each
//! read `x`; then T0's block ends. Every reader stays alive until T0 ends,
//! each with exactly one out-edge and an empty chain clock, so the engine's
//! peak heap divided by its peak of alive nodes is the footprint of one
//! node: its 96-byte slot, which holds its one edge in place, and its share
//! of the slot table's slack and the free list (≈105 bytes in all; a
//! separately allocated edge took ≈145–154). Two sizes keep one lucky
//! `Vec` capacity from passing the test. The ops are generated on the fly, so only the engine allocates.
//! We count allocations rather than read OS RSS, which is noisy and
//! platform-dependent.
//!
//! This file intentionally contains a single test: a parallel test in the
//! same process would pollute the allocator counters.

use velodrome::Velodrome;
use velodrome_events::{Label, Op, ThreadId, VarId};
use velodrome_monitor::{Tool, WarningCategory};
use velodrome_testalloc::{peak_during, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The largest number of alive nodes a 16-bit slot index could name.
const OLD_CAP: u64 = 65_535;

/// The budget per alive node, in bytes.
const BYTES_PER_NODE: usize = 120;

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
    let (mut engine, peak) = peak_during(|| {
        let mut engine = Velodrome::new();
        for (i, op) in ops.enumerate() {
            engine.op(i, op);
        }
        engine.end_of_trace();
        engine
    });
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
fn alive_node_fits_in_120_bytes_past_the_16_bit_cap() {
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
