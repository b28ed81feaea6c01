//! Regression test: ids crafted to collide under a fixed hash cost what
//! dense ids cost.
//!
//! The engine's id tables hash under a key drawn per engine. Without one,
//! a trace could pick ids that share their hash's low bits: under an
//! unkeyed Fx-style multiply, the variables `i << 16` below fall into one
//! run of buckets, and the trace took 90× as long as its dense twin.
//!
//! 65,536 variables with ids `i << 16` are written, then read, over 4
//! passes by threads with ids `r << 20`, and the same trace runs on the
//! dense ids `i` and `r`. The best of 3 runs of each is compared. A small
//! Figure 1 violation at the end gives both runs a warning to compare.

use std::time::{Duration, Instant};
use velodrome::{Velodrome, VelodromeConfig};
use velodrome_events::{Label, Op, SymbolTable, ThreadId, VarId};
use velodrome_monitor::{Tool, Warning};

const VARS: u32 = 1 << 16;
const PASSES: u32 = 4;

/// The trace over thread ids `thread(r)` and variable ids `var(i)`, with
/// the names both id sets share.
fn trace(thread: fn(u32) -> u32, var: fn(u32) -> u32) -> (Vec<Op>, SymbolTable) {
    let t = |r: u32| ThreadId::new(thread(r));
    let x = |i: u32| VarId::new(var(i));
    let mut ops = Vec::new();
    for r in 0..PASSES {
        let (writer, reader) = (t(r), t((r + 1) % PASSES));
        for i in 0..VARS {
            ops.push(Op::Write { t: writer, x: x(i) });
        }
        for i in 0..VARS {
            ops.push(Op::Read { t: reader, x: x(i) });
        }
    }
    // Figure 1: thread 1 writes x inside thread 0's read-modify-write.
    let l = Label::new(0);
    ops.extend([
        Op::Begin { t: t(0), l },
        Op::Read { t: t(0), x: x(1) },
        Op::Write { t: t(1), x: x(1) },
        Op::Write { t: t(0), x: x(1) },
        Op::End { t: t(0) },
    ]);
    let mut names = SymbolTable::new();
    for r in 0..PASSES {
        names.name_thread(t(r), format!("T{r}"));
    }
    names.name_var(x(1), "x");
    names.name_label(l, "inc");
    (ops, names)
}

/// One check of the trace: its wall time and its warnings.
fn check(ops: &[Op], names: &SymbolTable) -> (Duration, Vec<Warning>) {
    let mut engine = Velodrome::with_config(VelodromeConfig {
        names: names.clone(),
        ..VelodromeConfig::default()
    });
    let start = Instant::now();
    for (i, &op) in ops.iter().enumerate() {
        engine.op(i, op);
    }
    engine.end_of_trace();
    (start.elapsed(), engine.take_warnings())
}

#[test]
fn crafted_ids_hit_no_hash_cliff() {
    let (crafted_ops, crafted_names) = trace(|r| r << 20, |i| i << 16);
    let (dense_ops, dense_names) = trace(|r| r, |i| i);
    // Alternate the two, so a slow spell of the host hits both.
    let (mut crafted, mut dense) = (Duration::MAX, Duration::MAX);
    let (mut crafted_warnings, mut dense_warnings) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let (time, warnings) = check(&crafted_ops, &crafted_names);
        (crafted, crafted_warnings) = (crafted.min(time), warnings);
        let (time, warnings) = check(&dense_ops, &dense_names);
        (dense, dense_warnings) = (dense.min(time), warnings);
    }
    assert!(
        crafted <= dense * 4,
        "crafted ids took {crafted:?}, their dense twin {dense:?}"
    );
    let render = |ws: &[Warning]| -> Vec<(Option<Label>, usize, String, Option<String>)> {
        ws.iter()
            .map(|w| (w.label, w.op_index, w.message.clone(), w.details.clone()))
            .collect()
    };
    assert_eq!(render(&crafted_warnings), render(&dense_warnings));
    assert_eq!(crafted_warnings.len(), 1, "{crafted_warnings:?}");
}
