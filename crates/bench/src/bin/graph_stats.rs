//! Regenerates the node-statistics columns of Table 1 in isolation
//! (Allocated / Max Alive, Without Merge vs With Merge).
//!
//! Usage: `cargo run --release -p velodrome-bench --bin graph_stats [--scale=8]`

use velodrome_bench::arg_u64;
use velodrome_bench::report;
use velodrome_bench::table1::{exclusion_spec, snapshot_run};
use velodrome_cli::backend::RunConfig;
use velodrome_telemetry::{names, Snapshot};

fn main() {
    let scale = arg_u64("scale", 8) as u32;
    eprintln!("Graph statistics at scale={scale}");
    let mut rows = Vec::new();
    for w in velodrome_workloads::all(scale) {
        let trace = w.run_round_robin();
        let cfg = RunConfig {
            spec: Some(exclusion_spec(&w, &trace)),
            ..RunConfig::default()
        };
        let without = snapshot_run(
            &trace,
            RunConfig {
                merge: false,
                ..cfg.clone()
            },
        );
        let with = snapshot_run(&trace, cfg);
        let gauge = |snap: &Snapshot, name: &str| snap.scalar(name).unwrap_or(0);
        rows.push(vec![
            w.name.to_string(),
            report::count(trace.len() as u64),
            report::count(gauge(&without, names::ARENA_ALLOCATED)),
            report::count(gauge(&without, names::ARENA_MAX_ALIVE)),
            report::count(gauge(&with, names::ARENA_ALLOCATED)),
            report::count(gauge(&with, names::ARENA_MAX_ALIVE)),
            report::count(gauge(&with, names::ARENA_COLLECTED)),
        ]);
    }
    println!(
        "{}",
        report::table(
            &[
                "program",
                "events",
                "alloc w/o merge",
                "alive",
                "alloc w/ merge",
                "alive",
                "collected"
            ],
            &rows
        )
    );
}
