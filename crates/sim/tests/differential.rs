//! Differential testing of the optimized happens-before hot path.
//!
//! The engine's redundant-edge elision gate and per-thread epoch cache are
//! pure performance optimizations: they must change *nothing* observable.
//! These properties pit the optimized engine against the unoptimized
//! baseline (`elide_redundant_edges: false`, which stores every redundant
//! edge) over randomized programs and schedulers, and assert:
//!
//! * warnings are byte-identical (serialized JSON compare);
//! * full cycle reports are identical (structural equality). Per-label
//!   dedup is off, so every cycle warns and keeps its report, and the
//!   comparison covers every cycle;
//! * cycle counts agree, and the serializability *verdict* also agrees with
//!   the naive Figure 2 engine (`merge: false`), with and without elision;
//! * the arena's internal invariants (`Arena::check_invariants`: ancestor
//!   exactness, edge symmetry, acyclicity, implied-edge witnesses) hold
//!   after every single operation in both configurations.

use proptest::prelude::*;
use velodrome::{Velodrome, VelodromeConfig};
use velodrome_events::Trace;
use velodrome_monitor::tool::Tool;
use velodrome_sim::{random_program, run_program, GenConfig, RandomScheduler};

fn random_trace(gen_seed: u64, sched_seed: u64) -> Option<Trace> {
    let program = random_program(&GenConfig::default(), gen_seed);
    let result = run_program(&program, RandomScheduler::new(sched_seed));
    (!result.deadlocked).then_some(result.trace)
}

fn engine_for(trace: &Trace, merge: bool, elide: bool) -> Velodrome {
    Velodrome::with_config(VelodromeConfig {
        merge,
        elide_redundant_edges: elide,
        dedup_per_label: false,
        names: trace.names().clone(),
        ..VelodromeConfig::default()
    })
}

/// Runs the engine over the whole trace and returns (drained warnings as
/// JSON, engine).
fn run(trace: &Trace, merge: bool, elide: bool) -> (String, Velodrome) {
    let mut engine = engine_for(trace, merge, elide);
    for (i, &op) in trace.ops().iter().enumerate() {
        engine.op(i, op);
    }
    let warnings = engine.take_warnings();
    (
        serde_json::to_string(&warnings).expect("warnings serialize"),
        engine,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Optimized vs. baseline: identical warnings, reports, and cycle
    /// counts; all four merge × elide combinations agree on the verdict.
    #[test]
    fn optimized_engine_is_observationally_identical(
        gen_seed in 0u64..1_000_000,
        sched_seed in 0u64..1_000_000,
    ) {
        let Some(trace) = random_trace(gen_seed, sched_seed) else {
            return Err(proptest::Rejected);
        };
        let (warn_opt, eng_opt) = run(&trace, true, true);
        let (warn_base, eng_base) = run(&trace, true, false);
        prop_assert_eq!(&warn_opt, &warn_base, "warnings diverge");
        prop_assert_eq!(eng_opt.reports(), eng_base.reports(), "reports diverge");
        prop_assert_eq!(
            eng_opt.stats().cycles_detected,
            eng_base.stats().cycles_detected,
            "cycle counts diverge"
        );
        prop_assert_eq!(
            eng_opt.reports().len() as u64,
            eng_opt.stats().cycles_detected,
            "a cycle without a report"
        );
        // The baseline never elides and never hits the epoch cache.
        prop_assert_eq!(eng_base.stats().edges_elided, 0);
        prop_assert_eq!(eng_base.stats().epoch_hits, 0);

        // Verdict agreement with the naive Figure 2 engine, both modes.
        let violated = |e: &Velodrome| e.stats().cycles_detected > 0;
        let (_, naive_opt) = run(&trace, false, true);
        let (_, naive_base) = run(&trace, false, false);
        prop_assert_eq!(violated(&naive_opt), violated(&eng_opt), "naive+elide verdict diverges");
        prop_assert_eq!(violated(&naive_base), violated(&eng_opt), "naive verdict diverges");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The arena invariants hold after every operation, in both the
    /// optimized and the baseline configuration (the oracle for the
    /// sorted-vec adjacency and the elision gate).
    #[test]
    fn arena_invariants_hold_after_every_op(
        gen_seed in 0u64..1_000_000,
        sched_seed in 0u64..1_000_000,
    ) {
        let Some(trace) = random_trace(gen_seed, sched_seed) else {
            return Err(proptest::Rejected);
        };
        for elide in [true, false] {
            let mut engine = engine_for(&trace, true, elide);
            for (i, &op) in trace.ops().iter().enumerate() {
                engine.op(i, op);
                engine.check_invariants();
            }
        }
    }
}
