//! Regression test: `velodrome trace FILE` holds a trace's names in a few
//! dozen bytes each, however many there are and in whichever order the
//! file lists them.
//!
//! The trace is 200,000 `Begin`/`End` pairs, each block with a label of
//! its own (`method_N`), so the symbol table is nearly all the state the
//! check keeps. The JSON writer lists the labels with their keys in string
//! order (`"10"` before `"2"`), the VBT writer in id order. A table of
//! `HashMap<u32, String>`s takes about 73 bytes per label here (hash
//! buckets, the table kept alive by the last rehash, and one `String`
//! each); names in one text buffer with a sorted index take about 37. We
//! count allocations rather than read OS RSS, which is noisy and
//! platform-dependent.
//!
//! This file intentionally contains a single test: a parallel test in the
//! same process would pollute the allocator counters.

use std::path::Path;
use velodrome_events::{Label, Op, ThreadId, Trace};
use velodrome_testalloc::{peak_during, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const LABELS: u32 = 200_000;

/// `LABELS` blocks on one thread, block `i` labelled `method_i`.
fn labelled_blocks() -> Trace {
    let t = ThreadId::new(0);
    let mut trace: Trace = (0..LABELS)
        .flat_map(|i| {
            [
                Op::Begin {
                    t,
                    l: Label::new(i),
                },
                Op::End { t },
            ]
        })
        .collect();
    for i in 0..LABELS {
        trace
            .names_mut()
            .name_label(Label::new(i), format!("method_{i}"));
    }
    trace
}

/// Peak heap above the starting level during `velodrome trace path`.
fn peak_of_trace_cmd(path: &Path) -> usize {
    let args = vec!["trace".to_owned(), path.display().to_string()];
    let (out, peak) = peak_during(|| velodrome_cli::execute(&args).expect("trace checks"));
    assert!(out.contains("no warnings"), "{out}");
    peak
}

#[test]
fn trace_holds_names_in_under_48_bytes_each() {
    let dir = std::env::temp_dir().join(format!("velodrome-symbol-memory-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (json, vbt) = (dir.join("labels.json"), dir.join("labels.vbt"));
    {
        let trace = labelled_blocks();
        std::fs::write(&json, trace.to_json()).unwrap();
        std::fs::write(&vbt, velodrome_events::trace_to_vbt(&trace)).unwrap();
    }
    for path in [&json, &vbt] {
        let peak = peak_of_trace_cmd(path);
        let per_label = peak as f64 / f64::from(LABELS);
        assert!(
            per_label <= 48.0,
            "{}: peak heap {peak} bytes is {per_label:.1} bytes per label",
            path.display()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
