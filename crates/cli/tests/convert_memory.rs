//! Regression test: `velodrome convert` from VBT to JSON holds memory
//! that does not grow with the trace's length.
//!
//! The input is decoded in blocks and each block is written out before the
//! next is decoded, so converting a trace four times as long must not need
//! more heap. A convert that builds the whole trace first grows by about
//! 12 bytes per event (one `Op`), and one that builds the whole document
//! by about 22 (one JSON op); over the 300,000 extra events here that is
//! 3.4 MiB or more. We count allocations rather than read OS RSS, which is
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

/// Peak heap above the starting level during `velodrome convert inp out`.
fn peak_of_convert(inp: &Path, out: &Path) -> usize {
    let args = vec![
        "convert".to_owned(),
        inp.display().to_string(),
        out.display().to_string(),
    ];
    let (said, peak) = peak_during(|| velodrome_cli::execute(&args).expect("convert succeeds"));
    assert!(said.contains("(json)"), "{said}");
    peak
}

#[test]
fn convert_to_json_heap_does_not_grow_with_trace_length() {
    const N: usize = 100_000;
    let dir = std::env::temp_dir().join(format!("velodrome-convert-memory-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut peaks = Vec::new();
    for events in [N, 4 * N] {
        let inp = dir.join(format!("counter-{events}.vbt"));
        let out = dir.join(format!("counter-{events}.json"));
        let trace = locked_counter_trace(events);
        std::fs::write(&inp, velodrome_events::trace_to_vbt(&trace)).unwrap();
        peaks.push(peak_of_convert(&inp, &out));
        assert!(std::fs::read(&out).unwrap() == trace.to_json().into_bytes());
    }
    let growth = peaks[1].saturating_sub(peaks[0]);
    assert!(
        growth < 256 << 10,
        "peak heap grew by {growth} bytes from {N} to {} events ({peaks:?})",
        4 * N
    );
    std::fs::remove_dir_all(&dir).ok();
}
