//! Regression test: a checker's fixed costs around its trace's live state
//! stay small.
//!
//! - Checking a trace file costs its reader a fixed 16 KiB read buffer,
//!   one 256-op block and, for VBT, one frame body, so `velodrome trace
//!   FILE` on a small serializable trace peaks at 64 KiB of heap at most,
//!   in either format. The engine's state there is a handful of nodes, so
//!   nearly all of the peak is the reader's. A reader with a 64 KiB read
//!   buffer and 4,096-op blocks (48 KiB) needs over 112 KiB before it
//!   decodes an op.
//! - A `check-batch` report line is written straight from the trace's
//!   warnings into one buffer of the line's exact length, so checking one
//!   trace of 48 violations with `--jobs=1 --report` peaks at no more than
//!   twice the line's bytes (the warnings it is written from, and the
//!   line) plus 64 KiB for the reader, the engine and the report file's
//!   buffer. Building the line as a value tree first copies every message
//!   and DOT graph once more, and growing the line from an empty `String`
//!   can hold up to twice its length.
//!
//! We count allocations rather than read OS RSS, which is noisy and
//! platform-dependent.
//!
//! This file intentionally contains a single test, which makes its checks
//! one after the other: a parallel test in the same process would pollute
//! the allocator counters.

use velodrome_events::{Trace, TraceBuilder};
use velodrome_testalloc::{peak_during, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A serializable trace of at least `events` operations: four threads
/// take turns running `atomic { lock m; read x; write x; unlock m }`.
fn locked_counter_trace(events: usize) -> Trace {
    let mut b = TraceBuilder::new();
    for round in 0..events.div_ceil(6) {
        let t = format!("T{}", round % 4);
        b.begin(&t, "inc").acquire(&t, "m").read(&t, "x");
        b.write(&t, "x").release(&t, "m").end(&t);
    }
    b.finish()
}

/// A trace with `blocks` atomicity violations, one per label: in block
/// `i`, `T1` reads `x` inside `inc{i}`, `T2` writes `x`, and `T1` writes
/// `x` before ending `inc{i}`.
fn violating_trace(blocks: usize) -> Trace {
    let mut b = TraceBuilder::new();
    for i in 0..blocks {
        b.begin("T1", &format!("inc{i}")).read("T1", "x");
        b.write("T2", "x");
        b.write("T1", "x").end("T1");
    }
    b.finish()
}

/// The CLI's output for `args`, and its peak heap above the starting
/// level.
fn peak_of(args: &[&str]) -> (String, usize) {
    let args: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
    peak_during(|| velodrome_cli::execute(&args).expect("the command checks"))
}

#[test]
fn reader_and_report_line_hold_fixed_small_buffers() {
    let dir = std::env::temp_dir().join(format!("velodrome-reader-memory-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let trace = locked_counter_trace(50_000);
    let json = dir.join("counter.json");
    let vbt = dir.join("counter.vbt");
    std::fs::write(&json, trace.to_json()).unwrap();
    std::fs::write(&vbt, velodrome_events::trace_to_vbt(&trace)).unwrap();
    drop(trace);
    for path in [&json, &vbt] {
        let (out, peak) = peak_of(&["trace", &path.display().to_string()]);
        assert!(out.contains("no warnings"), "{out}");
        assert!(
            peak <= 64 << 10,
            "{}: peak heap {peak} bytes, over 64 KiB",
            path.display()
        );
    }

    let traces = dir.join("traces");
    std::fs::create_dir_all(&traces).unwrap();
    std::fs::write(traces.join("t.json"), violating_trace(48).to_json()).unwrap();
    let report = dir.join("report.jsonl");
    let (out, peak) = peak_of(&[
        "check-batch",
        &traces.display().to_string(),
        "--jobs=1",
        &format!("--report={}", report.display()),
    ]);
    assert!(out.starts_with("checked 1 traces (1 ok"), "{out}");
    let report = std::fs::read_to_string(&report).unwrap();
    let line = report.lines().next().unwrap();
    let warnings = line.matches(r#""category":"atomicity""#).count();
    assert_eq!(warnings, 48, "{line}");
    let bound = 2 * (line.len() + 1) + (64 << 10);
    assert!(
        peak <= bound,
        "peak heap {peak} bytes for a {}-byte report line, over {bound}",
        line.len() + 1
    );
    std::fs::remove_dir_all(&dir).ok();
}
