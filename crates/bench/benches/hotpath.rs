//! Criterion timing for the happens-before hot path: optimized engine
//! (redundant-edge elision + epoch cache, the default) vs. the unoptimized
//! baseline over the elision-heavy fan-in stress trace and the paper's
//! multiset workload.
//!
//! Run with `cargo bench -p velodrome-bench --bench hotpath`. Output
//! identity and the elision floor are unit tests in the `hotpath` module;
//! wall time and peak heap come from the repository benchmark
//! (`perfbench`, workload `fanin`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;
use velodrome::{Velodrome, VelodromeConfig};
use velodrome_bench::hotpath::fanin_stress_trace;
use velodrome_events::Trace;
use velodrome_monitor::Tool;

fn run(trace: &Trace, elide: bool) -> u64 {
    let cfg = VelodromeConfig {
        elide_redundant_edges: elide,
        names: trace.names().clone(),
        ..VelodromeConfig::default()
    };
    let mut engine = Velodrome::with_config(cfg);
    for (i, op) in trace.iter() {
        engine.op(i, op);
    }
    engine.stats().edges_added
}

fn bench_trace(c: &mut Criterion, group_name: &str, trace: &Trace) {
    let mut group = c.benchmark_group(group_name);
    group
        .throughput(Throughput::Elements(trace.len() as u64))
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    for (name, elide) in [("optimized", true), ("baseline", false)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &elide, |b, &elide| {
            b.iter(|| run(trace, elide));
        });
    }
    group.finish();
}

fn hotpath(c: &mut Criterion) {
    let stress = fanin_stress_trace(200, 8, 4);
    bench_trace(c, "hotpath/stress", &stress);

    let multiset = velodrome_workloads::build("multiset", 8).expect("workload");
    let multiset_trace = multiset.run_round_robin();
    bench_trace(c, "hotpath/multiset", &multiset_trace);
}

criterion_group!(benches, hotpath);
criterion_main!(benches);
