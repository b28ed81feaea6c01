//! Criterion harness behind Table 1's timing columns: per-backend analysis
//! cost over identical pre-recorded traces of every benchmark model.
//!
//! Scale with `VELODROME_BENCH_SCALE` (default 4).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;
use velodrome_bench::table1::exclusion_spec;
use velodrome_cli::backend::{RunConfig, BACKENDS};

fn backend_overhead(c: &mut Criterion) {
    let scale: u32 = std::env::var("VELODROME_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    for w in velodrome_workloads::all(scale) {
        let trace = w.run_round_robin();
        let cfg = RunConfig {
            spec: Some(exclusion_spec(&w, &trace)),
            ..RunConfig::default()
        };
        let mut group = c.benchmark_group(format!("table1/{}", w.name));
        group
            .throughput(Throughput::Elements(trace.len() as u64))
            .sample_size(10)
            .warm_up_time(Duration::from_millis(200))
            .measurement_time(Duration::from_millis(600));
        for backend in BACKENDS.iter().filter(|b| b.table1.is_some()) {
            group.bench_with_input(
                BenchmarkId::from_parameter(backend.name),
                &backend.run,
                |bench, run| bench.iter(|| run((&trace).into(), &cfg)),
            );
        }
        group.finish();
    }
}

criterion_group!(benches, backend_overhead);
criterion_main!(benches);
