//! Hot-path benchmark: redundant-edge elision + epoch cache vs. baseline,
//! plus the two-tier hybrid checker vs. the always-on graph engine.
//!
//! Runs the optimized engine (`elide_redundant_edges: true`, the default)
//! and the unoptimized baseline (elision and epoch cache off) over the same
//! traces, checks the outputs are byte-identical, and writes
//! `BENCH_hotpath.json` (throughput, edges added vs. elided, epoch hits) so
//! the speedup can be charted across PRs. Each workload is also run through
//! the `velodrome-hybrid` backend (vector-clock screen online, graph engine
//! only on escalation); the report records how many graph node/edge
//! operations the screen avoided and asserts the hybrid outputs stay
//! byte-identical to the pure engine.
//!
//! Workloads:
//!
//! * `stress` — an open-transaction fan-in pattern: waves of concurrent
//!   transactions where each reads every variable written earlier in the
//!   wave, so most orderings arrive already implied through the chain.
//!   This is the redundant-edge worst case the elision gate targets, and
//!   it is serializable, so the hybrid screen never escalates on it.
//! * `multiset` — the paper's multiset model under round-robin (the
//!   classic `stress` binary workload).
//! * `adversarial` — the multiset model under the Atomizer-guided
//!   adversarial scheduler (Section 5).
//!
//! Usage: `cargo run --release -p velodrome-bench --bin hotpath
//! [--scale=8] [--waves=200] [--threads=8] [--rounds=4]`

use serde::Serialize;
use std::time::Instant;
use velodrome::{HybridConfig, HybridVelodrome, Velodrome, VelodromeConfig};
use velodrome_bench::hotpath::fanin_stress_trace;
use velodrome_bench::{arg_u64, report};
use velodrome_events::Trace;
use velodrome_monitor::Tool;
use velodrome_telemetry::{names, Telemetry};

/// One engine run over a trace.
#[derive(Debug, Serialize)]
struct EngineRun {
    events: u64,
    millis: u64,
    ops_per_sec: u64,
    edges_added: u64,
    edges_elided: u64,
    epoch_hits: u64,
    warnings: usize,
    cycles_detected: u64,
    /// Graph node allocations + edge insertions + elision checks.
    graph_ops: u64,
}

/// One hybrid-checker run over a trace.
#[derive(Debug, Serialize)]
struct HybridRun {
    events: u64,
    millis: u64,
    ops_per_sec: u64,
    /// Graph operations actually performed (0 while the screen holds).
    graph_ops: u64,
    /// Times the screen escalated to the graph engine (0 or 1 per run).
    escalations: u64,
    /// AeroDrome epoch fast-path hits inside the screen.
    screen_epoch_hits: u64,
    warnings: usize,
}

/// Optimized vs. baseline vs. hybrid over one workload.
#[derive(Debug, Serialize)]
struct WorkloadResult {
    name: String,
    optimized: EngineRun,
    baseline: EngineRun,
    hybrid: HybridRun,
    /// `1 - optimized.edges_added / baseline.edges_added`, in percent.
    edges_added_reduction_pct: f64,
    /// Optimized and baseline warnings/reports are byte-identical.
    outputs_identical: bool,
    /// Graph operations of the always-on optimized engine.
    graph_ops_velodrome: u64,
    /// Graph operations the hybrid checker actually performed.
    graph_ops_hybrid: u64,
    /// `1 - graph_ops_hybrid / graph_ops_velodrome`, in percent.
    graph_ops_reduction_pct: f64,
    /// Screen-to-engine escalations in the hybrid run.
    hybrid_escalations: u64,
    /// Hybrid warnings/reports are byte-identical to the pure engine's.
    hybrid_outputs_identical: bool,
}

fn run_engine(trace: &Trace, elide: bool) -> (EngineRun, String) {
    // The timed run keeps telemetry disabled, the production default, so
    // its throughput is the engine alone: an enabled registry adds the
    // phase bookkeeping (an exact count per op and edge, a sampled clock
    // read, a timed GC cascade). The run's numbers are still read back
    // through registry gauges: `publish_telemetry_to` mirrors the stats
    // surface into a registry attached only after the clock stops.
    let cfg = VelodromeConfig {
        elide_redundant_edges: elide,
        names: trace.names().clone(),
        ..VelodromeConfig::default()
    };
    let mut engine = Velodrome::with_config(cfg);
    let start = Instant::now();
    for (i, op) in trace.iter() {
        engine.op(i, op);
    }
    let elapsed = start.elapsed();
    let warnings = engine.take_warnings();
    let graph_ops = engine.stats().graph_ops();
    let telemetry = Telemetry::registry();
    engine.publish_telemetry_to(&telemetry);
    let snap = telemetry
        .snapshot(0, trace.len() as u64)
        .expect("telemetry registry enabled");
    let gauge = |name: &str| snap.scalar(name).unwrap_or(0);
    let fingerprint = format!(
        "{}|{}",
        serde_json::to_string(&warnings).expect("warnings serialize"),
        serde_json::to_string(engine.reports()).expect("reports serialize"),
    );
    let run = EngineRun {
        events: trace.len() as u64,
        millis: elapsed.as_millis() as u64,
        ops_per_sec: (trace.len() as f64 / elapsed.as_secs_f64()) as u64,
        edges_added: gauge(names::ARENA_EDGES_ADDED),
        edges_elided: gauge(names::ARENA_EDGES_ELIDED),
        epoch_hits: gauge(names::ENGINE_EPOCH_HITS),
        warnings: warnings.len(),
        cycles_detected: gauge(names::ENGINE_CYCLES_DETECTED),
        graph_ops,
    };
    (run, fingerprint)
}

fn run_hybrid(trace: &Trace) -> (HybridRun, String) {
    let cfg = HybridConfig {
        engine: VelodromeConfig {
            names: trace.names().clone(),
            ..VelodromeConfig::default()
        },
        ..HybridConfig::default()
    };
    let mut checker = HybridVelodrome::with_config(cfg);
    let start = Instant::now();
    for (i, op) in trace.iter() {
        checker.op(i, op);
    }
    let elapsed = start.elapsed();
    let warnings = checker.take_warnings();
    let stats = checker.stats();
    let fingerprint = format!(
        "{}|{}",
        serde_json::to_string(&warnings).expect("warnings serialize"),
        serde_json::to_string(checker.reports()).expect("reports serialize"),
    );
    let run = HybridRun {
        events: trace.len() as u64,
        millis: elapsed.as_millis() as u64,
        ops_per_sec: (trace.len() as f64 / elapsed.as_secs_f64()) as u64,
        graph_ops: stats.graph_ops(),
        escalations: stats.escalations,
        screen_epoch_hits: stats.screen.epoch_hits,
        warnings: warnings.len(),
    };
    (run, fingerprint)
}

fn measure(name: &str, trace: &Trace) -> WorkloadResult {
    let (optimized, fp_opt) = run_engine(trace, true);
    let (baseline, fp_base) = run_engine(trace, false);
    let (hybrid, fp_hybrid) = run_hybrid(trace);
    let reduction = if baseline.edges_added > 0 {
        100.0 * (1.0 - optimized.edges_added as f64 / baseline.edges_added as f64)
    } else {
        0.0
    };
    let graph_ops_reduction_pct = if optimized.graph_ops > 0 {
        100.0 * (1.0 - hybrid.graph_ops as f64 / optimized.graph_ops as f64)
    } else {
        0.0
    };
    let identical = fp_opt == fp_base;
    let hybrid_identical = fp_hybrid == fp_opt;
    eprintln!(
        "{name}: {} events, {} -> {} edges added ({reduction:.1}% fewer), \
         {} elided, {} epoch hits, {:.1}x throughput, identical={identical}",
        report::count(optimized.events),
        baseline.edges_added,
        optimized.edges_added,
        optimized.edges_elided,
        optimized.epoch_hits,
        optimized.ops_per_sec as f64 / baseline.ops_per_sec.max(1) as f64,
    );
    eprintln!(
        "{name}: hybrid {} -> {} graph ops ({graph_ops_reduction_pct:.1}% fewer), \
         {} escalations, identical={hybrid_identical}",
        optimized.graph_ops, hybrid.graph_ops, hybrid.escalations,
    );
    WorkloadResult {
        name: name.to_owned(),
        graph_ops_velodrome: optimized.graph_ops,
        graph_ops_hybrid: hybrid.graph_ops,
        graph_ops_reduction_pct,
        hybrid_escalations: hybrid.escalations,
        hybrid_outputs_identical: hybrid_identical,
        optimized,
        baseline,
        hybrid,
        edges_added_reduction_pct: reduction,
        outputs_identical: identical,
    }
}

fn main() {
    let scale = arg_u64("scale", 16) as u32;
    let waves = arg_u64("waves", 2_000);
    let threads = arg_u64("threads", 8);
    let rounds = arg_u64("rounds", 8);

    eprintln!(
        "generating traces (scale={scale}, waves={waves}, threads={threads}, rounds={rounds})..."
    );
    let stress = fanin_stress_trace(waves, threads, rounds);
    let multiset = velodrome_workloads::build("multiset", scale).expect("workload");
    let multiset_trace = multiset.run_round_robin();
    let adversarial_trace = multiset.run_adversarial(1, 40);

    let results = vec![
        measure("stress", &stress),
        measure("multiset", &multiset_trace),
        measure("adversarial", &adversarial_trace),
    ];

    for r in &results {
        assert!(
            r.outputs_identical,
            "{}: optimized and baseline outputs diverge",
            r.name
        );
        assert!(
            r.hybrid_outputs_identical,
            "{}: hybrid and pure-engine outputs diverge",
            r.name
        );
    }
    let stress_result = &results[0];
    assert!(
        stress_result.edges_added_reduction_pct >= 30.0,
        "stress workload must elide >= 30% of edge insertions, got {:.1}%",
        stress_result.edges_added_reduction_pct
    );
    assert!(stress_result.optimized.edges_elided > 0);
    assert!(
        stress_result.graph_ops_velodrome >= 3 * stress_result.graph_ops_hybrid.max(1),
        "hybrid must cut graph operations at least 3x on the serializable \
         stress workload, got {} -> {}",
        stress_result.graph_ops_velodrome,
        stress_result.graph_ops_hybrid,
    );

    let json = serde_json::to_string_pretty(&results).expect("results serialize");
    std::fs::write("BENCH_hotpath.json", &json).expect("write BENCH_hotpath.json");
    println!("{json}");
    eprintln!("wrote BENCH_hotpath.json");
}
