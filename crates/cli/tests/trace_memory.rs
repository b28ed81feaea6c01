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

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use velodrome_events::{Trace, TraceBuilder};

/// Counts live heap bytes and tracks the high-water mark.
struct CountingAlloc;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let cur = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(cur, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                let cur = CURRENT.fetch_add(new_size - layout.size(), Ordering::Relaxed) + new_size
                    - layout.size();
                PEAK.fetch_max(cur, Ordering::Relaxed);
            } else {
                CURRENT.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

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
    let before = CURRENT.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = velodrome_cli::execute(&args).expect("trace checks");
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(before);
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
