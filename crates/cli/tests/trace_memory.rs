//! Regression test: `velodrome trace FILE` holds memory that follows the
//! live analysis state, not the trace's length.
//!
//! The file is decoded in blocks that go to the backend one at a time, so
//! checking a serializable trace four times as long must not need more
//! heap. A reader that builds the whole trace first grows by about 12
//! bytes per event (one `Op`), which over the 300,000 extra events here is
//! about 3.4 MiB. We count allocations rather than read OS RSS, which is
//! noisy and platform-dependent.
//!
//! This file intentionally contains a single test: a parallel test in the
//! same process would pollute the allocator counters.

use std::path::Path;
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

/// Peak heap above the starting level during `velodrome trace path`.
fn peak_of_trace_cmd(path: &Path) -> usize {
    let args = vec!["trace".to_owned(), path.display().to_string()];
    let (out, peak) = peak_during(|| velodrome_cli::execute(&args).expect("trace checks"));
    assert!(out.contains("no warnings"), "{out}");
    peak
}

#[test]
fn trace_heap_does_not_grow_with_trace_length() {
    const N: usize = 100_000;
    let dir = std::env::temp_dir().join(format!("velodrome-trace-memory-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for ext in ["vbt", "json"] {
        let mut peaks = Vec::new();
        for events in [N, 4 * N] {
            let path = dir.join(format!("counter-{events}.{ext}"));
            {
                let trace = locked_counter_trace(events);
                if ext == "vbt" {
                    std::fs::write(&path, velodrome_events::trace_to_vbt(&trace)).unwrap();
                } else {
                    std::fs::write(&path, trace.to_json()).unwrap();
                }
            }
            peaks.push(peak_of_trace_cmd(&path));
        }
        let growth = peaks[1].saturating_sub(peaks[0]);
        assert!(
            growth < 256 << 10,
            "{ext}: peak heap grew by {growth} bytes from {N} to {} events ({peaks:?})",
            4 * N
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
