//! Workload generator for the happens-before hot-path benchmarks.
//!
//! The `hotpath` Criterion bench and the repository benchmark's `fanin`
//! workload (`perfbench`) share this open-transaction fan-in trace: it
//! maximizes transitively-implied edge insertions, which is exactly the
//! traffic the arena's redundant-edge elision gate and the engine's
//! per-thread epoch cache remove. The unit test below holds the fast
//! paths to byte-identical output and a 30% stored-edge reduction.

use velodrome_events::{Trace, TraceBuilder};

/// Builds the fan-in stress trace: `waves` waves of `threads` concurrent
/// transactions. Within a wave, thread `i` writes its own variable and then
/// — for `rounds` passes — reads every earlier thread's variable in
/// descending order, so only the `i-1 → i` chain edge is new and every
/// other ordering arrives already implied through the chain. The wave order
/// is a serialization, so the trace is violation-free.
pub fn fanin_stress_trace(waves: u64, threads: u64, rounds: u64) -> Trace {
    let mut b = TraceBuilder::new();
    let tname: Vec<String> = (0..threads).map(|i| format!("T{i}")).collect();
    let vname: Vec<String> = (0..threads).map(|i| format!("v{i}")).collect();
    for w in 0..waves {
        for (t, v) in tname.iter().zip(&vname) {
            b.begin(t, &format!("wave{w}"));
            b.write(t, v);
        }
        for _ in 0..rounds {
            for (i, t) in tname.iter().enumerate() {
                for v in vname[..i].iter().rev() {
                    b.read(t, v);
                }
            }
        }
        for t in &tname {
            b.end(t);
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use velodrome::{check_trace_with, Velodrome, VelodromeConfig};

    /// Runs the engine with or without its fast paths; returns the
    /// warnings and reports as one comparable string, and the engine.
    fn check(trace: &Trace, elide: bool) -> (String, Velodrome) {
        let cfg = VelodromeConfig {
            elide_redundant_edges: elide,
            names: trace.names().clone(),
            ..Default::default()
        };
        let (warnings, engine) = check_trace_with(trace, cfg);
        let fingerprint = format!(
            "{}|{}",
            serde_json::to_string(&warnings).expect("warnings serialize"),
            serde_json::to_string(engine.reports()).expect("reports serialize"),
        );
        (fingerprint, engine)
    }

    /// The elision gate and epoch cache leave warnings and reports
    /// byte-identical to the baseline (`elide_redundant_edges: false`), on
    /// the fan-in trace and on the multiset model under both schedulers,
    /// and store at least 30% fewer edges on the fan-in trace.
    #[test]
    fn fanin_trace_is_serializable_and_mostly_elided() {
        let trace = fanin_stress_trace(16, 6, 3);
        let (fingerprint, optimized) = check(&trace, true);
        let (baseline_fingerprint, baseline) = check(&trace, false);
        assert_eq!(fingerprint, baseline_fingerprint);
        let (opt, base) = (optimized.stats(), baseline.stats());
        assert_eq!(
            opt.cycles_detected, 0,
            "the wave order serializes the trace"
        );
        assert!(opt.edges_elided > opt.edges_added, "{opt}");
        let reduction = 1.0 - opt.edges_added as f64 / base.edges_added as f64;
        assert!(
            reduction >= 0.30,
            "elision must store >= 30% fewer edges, got {:.1}% ({} -> {})",
            100.0 * reduction,
            base.edges_added,
            opt.edges_added
        );
        optimized.check_invariants();

        let multiset = velodrome_workloads::build("multiset", 1).expect("workload");
        for trace in [multiset.run_round_robin(), multiset.run_adversarial(1, 40)] {
            assert_eq!(check(&trace, true).0, check(&trace, false).0);
        }
    }
}
