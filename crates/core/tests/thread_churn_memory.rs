//! Regression test: a program that starts a thread per task costs the
//! engine memory for the threads it has running, not for every thread it
//! ever joined.
//!
//! T0 forks child `i`; the child runs one block that reads and writes `x`;
//! T0 joins it before the next fork. At most two threads are alive at any
//! time, so the engine's peak heap at 400,000 children must be that at
//! 50,000 plus at most a small constant. A row kept per joined thread cost
//! ≈139 bytes each here, ≈48 MB over the 350,000 extra children. The ops
//! are generated on the fly, so only the engine allocates.
//!
//! This file intentionally contains a single test: a parallel test in the
//! same process would pollute the allocator counters.

use velodrome::Velodrome;
use velodrome_events::{Label, Op, ThreadId, VarId};
use velodrome_monitor::Tool;
use velodrome_testalloc::{peak_during, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// How much more the engine may hold at 400,000 children than at 50,000.
const GROWTH_BOUND: usize = 64 << 10;

/// Runs the churn shape with `children` children; returns the engine's
/// peak heap above the starting level.
fn probe(children: u32) -> usize {
    let (t0, x, work) = (ThreadId::new(0), VarId::new(0), Label::new(0));
    let ops = (1..=children).flat_map(|i| {
        let c = ThreadId::new(i);
        [
            Op::Fork { t: t0, child: c },
            Op::Begin { t: c, l: work },
            Op::Read { t: c, x },
            Op::Write { t: c, x },
            Op::End { t: c },
            Op::Join { t: t0, child: c },
        ]
    });
    let (mut engine, peak) = peak_during(|| {
        let mut engine = Velodrome::new();
        for (i, op) in ops.enumerate() {
            engine.op(i, op);
        }
        engine.end_of_trace();
        engine
    });
    let warnings = engine.take_warnings();
    assert!(warnings.is_empty(), "{children} children: {warnings:?}");
    assert_eq!(engine.alive_nodes(), 0, "every child's block was collected");
    peak
}

#[test]
fn joined_threads_cost_no_memory() {
    let small = probe(50_000);
    let large = probe(400_000);
    assert!(
        large < small + GROWTH_BOUND,
        "peak heap {small} B at 50,000 children, {large} B at 400,000"
    );
}
