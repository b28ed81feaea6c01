//! Regression test: `velodrome check-batch --report` holds memory that
//! follows the worker pool, not the number of traces in the batch.
//!
//! Each trace's report line is written as soon as it and every earlier
//! trace are done, and its metrics merge into the batch totals when it
//! finishes, so checking four times as many traces must not need more
//! heap. A runner that keeps every outcome (warnings and their rendered
//! cycles included) and builds the whole report before writing it grows
//! by about 9 KiB per trace of eight violations, 2.6 MiB over the 300
//! extra traces here. We count allocations rather than read OS RSS, which
//! is noisy and platform-dependent.
//!
//! This file intentionally contains a single test: a parallel test in the
//! same process would pollute the allocator counters.

use std::path::Path;
use velodrome_events::{Trace, TraceBuilder};
use velodrome_testalloc::{peak_during, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

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

/// Peak heap above the starting level during `check-batch dir --report`.
fn peak_of_batch(dir: &Path, report: &Path, traces: usize) -> usize {
    let args = vec![
        "check-batch".to_owned(),
        dir.display().to_string(),
        "--jobs=2".to_owned(),
        format!("--report={}", report.display()),
    ];
    let (out, peak) = peak_during(|| velodrome_cli::execute(&args).expect("batch checks"));
    assert!(
        out.starts_with(&format!("checked {traces} traces ({traces} ok")),
        "{out}"
    );
    peak
}

#[test]
fn batch_heap_does_not_grow_with_the_number_of_traces() {
    const N: usize = 100;
    let root = std::env::temp_dir().join(format!("velodrome-batch-memory-{}", std::process::id()));
    let json = violating_trace(8).to_json();
    let mut peaks = Vec::new();
    for traces in [N, 4 * N] {
        let dir = root.join(format!("batch-{traces}"));
        std::fs::create_dir_all(&dir).unwrap();
        for i in 0..traces {
            std::fs::write(dir.join(format!("t{i:04}.json")), &json).unwrap();
        }
        let report = root.join(format!("report-{traces}.jsonl"));
        peaks.push(peak_of_batch(&dir, &report, traces));
        let lines = std::fs::read_to_string(&report).unwrap().lines().count();
        assert_eq!(lines, traces + 1, "one line per trace plus the summary");
    }
    let growth = peaks[1].saturating_sub(peaks[0]);
    assert!(
        growth < 256 << 10,
        "peak heap grew by {growth} bytes from {N} to {} traces ({peaks:?})",
        4 * N
    );
    std::fs::remove_dir_all(&root).ok();
}
