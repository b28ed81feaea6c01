//! Cross-checker differential testing of the two-tier atomicity checker.
//!
//! Over 1000+ random sim traces (half with an injected atomicity defect via
//! [`velodrome_sim::mutate::elide_sync`], reproducing Section 6's
//! defect-injection study), every trace is checked by:
//!
//! * pure Velodrome (the graph engine, always on);
//! * [`HybridVelodrome`] (AeroDrome vector-clock screen online, engine
//!   engaged on escalation) — warnings **and** cycle reports must be
//!   byte-identical to pure Velodrome's;
//! * the standalone AeroDrome screen — its definite violations must be
//!   sound (only on oracle-non-serializable traces) and its escalation
//!   flag must cover every engine-detected cycle.

use proptest::prelude::*;
use velodrome::{check_trace_with, HybridConfig, HybridVelodrome, VelodromeConfig};
use velodrome_events::{oracle, Trace};
use velodrome_monitor::run_tool;
use velodrome_sim::{mutate, random_program, run_program, GenConfig, RandomScheduler};
use velodrome_vclock::AeroDrome;

fn engine_config(trace: &Trace) -> VelodromeConfig {
    VelodromeConfig {
        names: trace.names().clone(),
        ..VelodromeConfig::default()
    }
}

/// Runs all three checkers over the trace and cross-checks their outputs.
fn assert_backends_agree(trace: &Trace, context: &str) {
    let (pure_warnings, engine) = check_trace_with(trace, engine_config(trace));
    let pure_reports = serde_json::to_string(engine.reports()).expect("reports serialize");
    let engine_found_cycle = engine.stats().cycles_detected > 0;

    // The hybrid's warnings and reports are byte-identical to pure
    // Velodrome's — same blame, same increasing-cycle refutation, same
    // rendered error graphs.
    let mut hybrid = HybridVelodrome::with_config(HybridConfig {
        engine: engine_config(trace),
    });
    let hybrid_warnings = run_tool(&mut hybrid, trace);
    assert_eq!(
        serde_json::to_string(&hybrid_warnings).unwrap(),
        serde_json::to_string(&pure_warnings).unwrap(),
        "{context}: hybrid warnings diverge from pure Velodrome on:\n{trace}"
    );
    assert_eq!(
        serde_json::to_string(hybrid.reports()).unwrap(),
        pure_reports,
        "{context}: hybrid reports diverge from pure Velodrome on:\n{trace}"
    );
    if engine_found_cycle {
        assert!(
            hybrid.escalated(),
            "{context}: engine found a cycle but the screen never escalated on:\n{trace}"
        );
    }

    // The standalone screen: definite violations only on truly
    // non-serializable traces (soundness of the own-time check), and an
    // escalation flag whenever the engine detects a cycle (the flag is a
    // superset of the engine's detections).
    let mut screen = AeroDrome::new();
    let mut flagged = false;
    for (i, op) in trace.iter() {
        flagged |= screen.step(i, op).escalate;
    }
    if screen.stats().violations > 0 {
        assert!(
            !oracle::is_serializable(trace),
            "{context}: screen claimed a definite violation on a serializable trace:\n{trace}"
        );
    }
    if engine_found_cycle {
        assert!(
            flagged,
            "{context}: screen failed to flag an engine-detected cycle on:\n{trace}"
        );
    }
}

/// Generates the `n`-th trace of the differential corpus: even seeds run
/// the generated program as-is, odd seeds run it with one contended lock
/// region elided (when the program has one), biasing the corpus toward
/// real atomicity defects.
fn generate(seed: u64) -> Option<Trace> {
    let cfg = GenConfig::default();
    let mut program = random_program(&cfg, seed);
    if seed % 2 == 1 {
        let sites = mutate::sync_sites(&program);
        if sites > 0 {
            program = mutate::elide_sync(&program, (seed / 2) as usize % sites)
                .expect("site index in range");
        }
    }
    let result = run_program(
        &program,
        RandomScheduler::new(seed.wrapping_mul(0x9e3779b97f4a7c15)),
    );
    (!result.deadlocked).then_some(result.trace)
}

#[test]
fn thousand_random_traces_agree_across_backends() {
    let mut checked = 0u32;
    let mut violating = 0u32;
    let mut seed = 0u64;
    while checked < 1000 {
        seed += 1;
        assert!(seed < 4000, "deadlock rate too high to reach 1000 traces");
        let Some(trace) = generate(seed) else {
            continue;
        };
        if !oracle::is_serializable(&trace) {
            violating += 1;
        }
        assert_backends_agree(&trace, &format!("seed {seed}"));
        checked += 1;
    }
    // The elision mutants must actually produce violating traces, or the
    // differential corpus only ever exercises the screen's hold path.
    assert!(
        violating >= 50,
        "expected a meaningful violating fraction, got {violating}/1000"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property form over the generator parameter space, including the
    /// defect-injection site, so failures shrink toward a minimal
    /// program/schedule/mutation triple.
    #[test]
    fn prop_backends_agree(
        gen_seed in 0u64..10_000,
        sched_seed in 0u64..10_000,
        site in 0usize..8,
        inject_bit in 0u8..2,
        threads in 2usize..4,
        vars in 1usize..4,
        locks in 1usize..3,
    ) {
        let cfg = GenConfig {
            threads,
            vars,
            locks,
            ..GenConfig::default()
        };
        let inject = inject_bit == 1;
        let mut program = random_program(&cfg, gen_seed);
        if inject {
            let sites = mutate::sync_sites(&program);
            if sites > 0 {
                program = mutate::elide_sync(&program, site % sites)
                    .expect("site index in range");
            }
        }
        let result = run_program(&program, RandomScheduler::new(sched_seed));
        prop_assume!(!result.deadlocked);
        assert_backends_agree(
            &result.trace,
            &format!("gen {gen_seed} sched {sched_seed} inject {inject}"),
        );
    }
}
