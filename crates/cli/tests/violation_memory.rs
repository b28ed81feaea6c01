//! Regression test: checking a trace that repeats one violation keeps
//! memory that follows the live analysis state, not the number of cycles.
//!
//! Every round of the trace is Figure 1's non-atomic read-modify-write, so
//! each round closes a cycle while at most two transactions are alive. The
//! engine keeps a cycle report only for a warning it emits, and per-label
//! dedup emits one, so eight times the rounds must not need more heap. An
//! engine that keeps a report for every cycle grows by about 330 bytes per
//! round, which over the 350,000 extra rounds here is about 110 MiB. We
//! count allocations rather than read OS RSS, which is noisy and
//! platform-dependent.
//!
//! This file intentionally contains a single test: a parallel test in the
//! same process would pollute the allocator counters.

use std::path::Path;
use velodrome_events::{Trace, TraceBuilder};
use velodrome_testalloc::{peak_during, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `rounds` repetitions of `T0 begin inc; T0 read x; T1 write x;
/// T0 write x; T0 end`: one cycle per round, all blamed on `inc`.
fn repeated_violation_trace(rounds: usize) -> Trace {
    let mut b = TraceBuilder::new();
    for _ in 0..rounds {
        b.begin("T0", "inc").read("T0", "x");
        b.write("T1", "x");
        b.write("T0", "x").end("T0");
    }
    b.finish()
}

/// Peak heap above the starting level during `velodrome trace path
/// --backend=backend`.
fn peak_of_trace_cmd(path: &Path, backend: &str) -> usize {
    let args = vec![
        "trace".to_owned(),
        path.display().to_string(),
        format!("--backend={backend}"),
    ];
    let (out, peak) = peak_during(|| velodrome_cli::execute(&args).expect("trace checks"));
    let atomicity = out.lines().filter(|l| l.starts_with("[velodrome]"));
    assert_eq!(atomicity.count(), 1, "{out}");
    assert!(out.contains("inc is not atomic"), "{out}");
    peak
}

#[test]
fn trace_heap_does_not_grow_with_repeated_cycles() {
    const ROUNDS: usize = 50_000;
    let dir =
        std::env::temp_dir().join(format!("velodrome-violation-memory-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let paths: Vec<_> = [ROUNDS, 8 * ROUNDS]
        .into_iter()
        .map(|rounds| {
            let path = dir.join(format!("rmw-{rounds}.vbt"));
            let trace = repeated_violation_trace(rounds);
            std::fs::write(&path, velodrome_events::trace_to_vbt(&trace)).unwrap();
            path
        })
        .collect();
    for backend in ["velodrome", "all"] {
        let peaks: Vec<usize> = paths
            .iter()
            .map(|p| peak_of_trace_cmd(p, backend))
            .collect();
        let growth = peaks[1].saturating_sub(peaks[0]);
        assert!(
            growth < 256 << 10,
            "--backend={backend}: peak heap grew by {growth} bytes from {ROUNDS} to {} rounds \
             ({peaks:?})",
            8 * ROUNDS
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
