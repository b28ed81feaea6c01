//! Ablation benchmarks for the design choices Section 4 motivates:
//! the merge optimization (node allocation traffic) and garbage collection.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;
use velodrome::{Velodrome, VelodromeConfig};
use velodrome_events::Trace;
use velodrome_monitor::run_tool;

fn analyze(trace: &Trace, merge: bool, gc: bool) {
    let cfg = VelodromeConfig {
        merge,
        gc,
        ..VelodromeConfig::default()
    };
    let mut v = Velodrome::with_config(cfg);
    let _ = run_tool(&mut v, trace);
}

fn ablation(c: &mut Criterion) {
    // multiset: unary-heavy, exactly the workload merging targets.
    // Scale 2 keeps the no-merge, no-GC configuration benchmarkable: every
    // unary node stays alive, most start a chain of their own, and their
    // chain clocks grow to hundreds of entries that every chain extension
    // copies and every propagation joins. The effect is dramatic already.
    let w = velodrome_workloads::build("multiset", 2).expect("workload");
    let trace = w.run_round_robin();
    let mut group = c.benchmark_group("ablation/multiset");
    group
        .throughput(Throughput::Elements(trace.len() as u64))
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    for (name, merge, gc) in [
        ("merge+gc", true, true),
        ("nomerge+gc", false, true),
        ("merge+nogc", true, false),
        ("nomerge+nogc", false, false),
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(name),
            &(merge, gc),
            |b, &(m, g)| b.iter(|| analyze(&trace, m, g)),
        );
    }
    group.finish();
}

criterion_group!(benches, ablation);
criterion_main!(benches);
