//! Regression test: the engine's memory follows the number of distinct
//! ids, not the largest one.
//!
//! Ids in a trace file are arbitrary `u32`s. Figure 1's read-modify-write
//! violation, run by threads 7, 2^28 and 4,000,000,000 on variables near
//! 4,000,000,000, must check in a few KiB and report exactly what the same
//! trace renamed onto `0..n` (order kept) reports. We count allocations
//! rather than read OS RSS, which is noisy and platform-dependent.
//!
//! This file intentionally contains a single test: a parallel test in the
//! same process would pollute the allocator counters.

use velodrome::{Velodrome, VelodromeConfig};
use velodrome_events::{Label, LockId, Op, SymbolTable, ThreadId, VarId};
use velodrome_monitor::{Tool, Warning};
use velodrome_testalloc::{peak_during, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The ids one run of the trace uses: three threads, three variables and
/// one lock, each list in increasing order.
struct Ids {
    threads: [u32; 3],
    vars: [u32; 3],
    lock: u32,
}

/// Figure 1's read-modify-write shape, twice: thread `b` updates `x` inside
/// thread `a`'s `inc` (a violation), and `main` writes `y` inside `b`'s
/// `put` (another). `main` acts first, with the largest thread id.
fn ops(ids: &Ids) -> Vec<Op> {
    let [a, b, main] = ids.threads.map(ThreadId::new);
    let [y, x, z] = ids.vars.map(VarId::new);
    let m = LockId::new(ids.lock);
    let (inc, put) = (Label::new(0), Label::new(1));
    vec![
        Op::Fork { t: main, child: a },
        Op::Fork { t: main, child: b },
        Op::Begin { t: a, l: inc },
        Op::Read { t: a, x },
        Op::Begin { t: b, l: inc },
        Op::Acquire { t: b, m },
        Op::Read { t: b, x },
        Op::Write { t: b, x },
        Op::Release { t: b, m },
        Op::End { t: b },
        Op::Write { t: a, x },
        Op::End { t: a },
        Op::Begin { t: b, l: put },
        Op::Read { t: b, x: y },
        Op::Write { t: main, x: y },
        Op::Write { t: b, x: y },
        Op::End { t: b },
        Op::Join { t: main, child: a },
        Op::Join { t: main, child: b },
        Op::Acquire { t: main, m },
        Op::Write { t: main, x: z },
        Op::Read { t: main, x: z },
        Op::Release { t: main, m },
    ]
}

/// The same names for either id set.
fn names(ids: &Ids) -> SymbolTable {
    let mut names = SymbolTable::new();
    for (&t, name) in ids.threads.iter().zip(["a", "b", "main"]) {
        names.name_thread(ThreadId::new(t), name);
    }
    for (&x, name) in ids.vars.iter().zip(["y", "x", "z"]) {
        names.name_var(VarId::new(x), name);
    }
    names.name_lock(LockId::new(ids.lock), "m");
    names.name_label(Label::new(0), "inc");
    names.name_label(Label::new(1), "put");
    names
}

/// Checks the trace over `ids`; returns the engine's peak heap above the
/// starting level, and the warnings.
fn check(ids: &Ids) -> (usize, Vec<Warning>) {
    let ops = ops(ids);
    let cfg = VelodromeConfig {
        names: names(ids),
        ..VelodromeConfig::default()
    };
    let (mut engine, peak) = peak_during(|| {
        let mut engine = Velodrome::with_config(cfg);
        for (i, &op) in ops.iter().enumerate() {
            engine.op(i, op);
        }
        engine.end_of_trace();
        engine
    });
    (peak, engine.take_warnings())
}

#[test]
fn wide_ids_cost_what_dense_ids_cost() {
    let wide = Ids {
        threads: [7, 1 << 28, 4_000_000_000],
        vars: [3_999_999_999, 4_000_000_000, u32::MAX],
        lock: 4_000_000_001,
    };
    let dense = Ids {
        threads: [0, 1, 2],
        vars: [0, 1, 2],
        lock: 0,
    };
    let (wide_peak, wide_warnings) = check(&wide);
    let (dense_peak, dense_warnings) = check(&dense);
    for (what, peak) in [("wide", wide_peak), ("dense", dense_peak)] {
        assert!(peak < 64 << 10, "{what} ids: peak heap {peak} bytes");
    }
    let render = |ws: &[Warning]| -> Vec<(Option<Label>, usize, String, Option<String>)> {
        ws.iter()
            .map(|w| (w.label, w.op_index, w.message.clone(), w.details.clone()))
            .collect()
    };
    assert_eq!(render(&wide_warnings), render(&dense_warnings));
    let labels: Vec<Option<Label>> = wide_warnings.iter().map(|w| w.label).collect();
    assert_eq!(labels, [Some(Label::new(0)), Some(Label::new(1))]);
}
