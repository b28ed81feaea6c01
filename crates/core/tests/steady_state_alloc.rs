//! Regression test: once every thread, variable and lock has been seen,
//! the engine's per-operation path allocates nothing.
//!
//! An engine is warmed up on 50 rounds of a shape, then the allocator calls
//! made over 1,000 more rounds are counted. Two shapes: fan-in waves on 8
//! threads (the `hotpath::fanin_stress_trace` shape: transactional writes,
//! then reads of the other threads' variables), and non-transactional
//! acquire/read/write/release rounds on 4 threads. Read sets, block stacks
//! and the predecessor lists must reuse their buffers.
//!
//! This file intentionally contains a single test: a parallel test in the
//! same process would pollute the allocator counter.

use velodrome::Velodrome;
use velodrome_events::{Label, LockId, Op, ThreadId, VarId};
use velodrome_monitor::Tool;
use velodrome_testalloc::{calls_during, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const WARMUP: usize = 50;
const COUNTED: usize = 1_000;

/// One fan-in wave on 8 threads: each thread opens a block and writes its
/// own variable, then 8 passes in which thread `i` reads the variables of
/// threads `i - 1` down to 0, then every block ends.
fn fanin_wave(wave: usize, ops: &mut Vec<Op>) {
    let threads = 8;
    let t = |i: u32| ThreadId::new(i);
    let x = |i: u32| VarId::new(i);
    for i in 0..threads {
        ops.push(Op::Begin {
            t: t(i),
            l: Label::new(wave as u32),
        });
        ops.push(Op::Write { t: t(i), x: x(i) });
    }
    for _ in 0..8 {
        for i in 0..threads {
            for j in (0..i).rev() {
                ops.push(Op::Read { t: t(i), x: x(j) });
            }
        }
    }
    for i in 0..threads {
        ops.push(Op::End { t: t(i) });
    }
}

/// One round of non-transactional lock-protected updates on 4 threads:
/// each thread acquires the lock, reads and writes the shared variable and
/// its own, and releases the lock.
fn locked_round(_round: usize, ops: &mut Vec<Op>) {
    let m = LockId::new(0);
    for i in 0..4 {
        let t = ThreadId::new(i);
        let (shared, own) = (VarId::new(0), VarId::new(1 + i));
        ops.push(Op::Acquire { t, m });
        ops.push(Op::Read { t, x: shared });
        ops.push(Op::Write { t, x: shared });
        ops.push(Op::Read { t, x: own });
        ops.push(Op::Write { t, x: own });
        ops.push(Op::Release { t, m });
    }
}

/// Allocator calls the engine makes over `COUNTED` rounds of `shape`,
/// after `WARMUP` rounds.
fn steady_state_allocs(shape: fn(usize, &mut Vec<Op>)) -> usize {
    let (mut warmup, mut counted) = (Vec::new(), Vec::new());
    for round in 0..WARMUP {
        shape(round, &mut warmup);
    }
    for round in WARMUP..WARMUP + COUNTED {
        shape(round, &mut counted);
    }
    let mut engine = Velodrome::new();
    for (i, &op) in warmup.iter().enumerate() {
        engine.op(i, op);
    }
    let ((), calls) = calls_during(|| {
        for (i, &op) in counted.iter().enumerate() {
            engine.op(WARMUP + i, op);
        }
    });
    engine.end_of_trace();
    assert!(engine.take_warnings().is_empty(), "both shapes serialize");
    calls
}

#[test]
fn steady_state_ops_allocate_nothing() {
    let fanin = steady_state_allocs(fanin_wave);
    let locked = steady_state_allocs(locked_round);
    assert_eq!(
        (fanin, locked),
        (0, 0),
        "allocator calls over {COUNTED} rounds: (fan-in waves, locked rounds)"
    );
}
