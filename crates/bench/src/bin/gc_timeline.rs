//! Evidence for Section 4.1's claim that garbage collection is "extremely
//! effective; we typically have at most a few dozen live nodes at any
//! time": samples the live-node count as the analysis consumes a trace.
//!
//! Usage: `cargo run --release -p velodrome-bench --bin gc_timeline [--scale=8] [--workload-index=2]`

use velodrome::{Velodrome, VelodromeConfig};
use velodrome_bench::{arg_u64, report};
use velodrome_monitor::Tool;
use velodrome_telemetry::{names, Telemetry};

fn main() {
    let scale = arg_u64("scale", 8) as u32;
    let mut rows = Vec::new();
    for w in velodrome_workloads::all(scale) {
        let trace = w.run_round_robin();
        let telemetry = Telemetry::registry();
        let mut engine = Velodrome::with_config(VelodromeConfig {
            telemetry: telemetry.clone(),
            ..VelodromeConfig::default()
        });
        let sample_every = (trace.len() / 10).max(1);
        let mut samples: Vec<u64> = Vec::new();
        for (i, op) in trace.iter() {
            engine.op(i, op);
            if i % sample_every == 0 {
                samples.push(engine.alive_nodes() as u64);
            }
        }
        engine.publish_telemetry();
        let snap = telemetry
            .snapshot(0, trace.len() as u64)
            .expect("telemetry registry enabled");
        rows.push(vec![
            w.name.to_string(),
            report::count(trace.len() as u64),
            report::count(snap.scalar(names::ARENA_ALLOCATED).unwrap_or(0)),
            report::count(snap.scalar(names::ARENA_MAX_ALIVE).unwrap_or(0)),
            samples
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(" "),
        ]);
    }
    println!(
        "{}",
        report::table(
            &[
                "program",
                "events",
                "allocated",
                "max alive",
                "live nodes at 0%,10%,...,90%"
            ],
            &rows
        )
    );
}
