//! Regression test: one long transaction holding many short ones alive
//! costs the engine memory linear in the alive nodes.
//!
//! T0 opens a block and writes `x`; then T1 runs `n` short blocks that each
//! read `x`; then T0's block ends. The trace is serializable, and every
//! reader stays alive until T0 ends. With a set of ancestors per node the
//! engine held Σi = O(n²) entries here (994 MiB at n = 32,000); chain
//! clocks keep all readers on one chain with empty clocks. We count
//! allocations rather than read OS RSS, which is noisy and
//! platform-dependent.
//!
//! This file intentionally contains a single test: a parallel test in the
//! same process would pollute the allocator counters.

use velodrome::Velodrome;
use velodrome_events::{Label, Op, ThreadId, VarId};
use velodrome_monitor::Tool;
use velodrome_testalloc::{peak_during, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs the probe with `readers` short blocks; returns the engine's peak
/// heap above the starting level.
fn probe(readers: usize) -> usize {
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
    assert!(warnings.is_empty(), "{readers} readers: {warnings:?}");
    assert_eq!(engine.stats().max_alive, readers as u64 + 1);
    assert_eq!(engine.alive_nodes(), 0, "T0's end collects every reader");
    peak
}

#[test]
fn long_transaction_heap_is_linear_in_alive_nodes() {
    let sizes = [4_000, 16_000, 64_000];
    let peaks: Vec<usize> = sizes.iter().map(|&n| probe(n)).collect();
    for (w, p) in sizes.windows(2).zip(peaks.windows(2)) {
        assert!(
            p[1] as f64 <= 4.5 * p[0] as f64,
            "peak heap grew {:.2}× from {} to {} readers ({peaks:?})",
            p[1] as f64 / p[0] as f64,
            w[0],
            w[1]
        );
    }
    assert!(
        peaks[2] <= 64 << 20,
        "peak heap at {} readers is {} bytes ({peaks:?})",
        sizes[2],
        peaks[2]
    );
}
