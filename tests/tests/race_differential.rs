//! Differential testing of the two happens-before race detectors: the
//! full-vector DJIT⁺-style detector and the epoch-optimized FastTrack
//! variant must flag exactly the same variables on every trace.

use std::collections::BTreeSet;
use velodrome_events::{Trace, VarId};
use velodrome_monitor::run_tool;
use velodrome_sim::{random_program, run_program, GenConfig, RandomScheduler};
use velodrome_vclock::{FastTrack, HbRaceDetector};

// Both detectors keep their racy variables in a `RaceLog`; the sets are
// compared as ids, so no change to a warning's wording can blind the test.

fn racy_vars_full(trace: &Trace) -> BTreeSet<VarId> {
    let mut d = HbRaceDetector::new();
    let warnings = run_tool(&mut d, trace);
    assert_eq!(
        warnings.len(),
        d.racy_vars().len(),
        "one warning per racy var"
    );
    d.racy_vars().iter().copied().collect()
}

fn racy_vars_fast(trace: &Trace) -> BTreeSet<VarId> {
    let mut d = FastTrack::new();
    let warnings = run_tool(&mut d, trace);
    assert_eq!(
        warnings.len(),
        d.racy_vars().len(),
        "one warning per racy var"
    );
    d.racy_vars().iter().copied().collect()
}

#[test]
fn detectors_agree_on_random_programs() {
    let cfg = GenConfig::default();
    for seed in 0..200u64 {
        let program = random_program(&cfg, seed);
        let result = run_program(&program, RandomScheduler::new(seed.rotate_left(17)));
        if result.deadlocked {
            continue;
        }
        let full = racy_vars_full(&result.trace);
        let fast = racy_vars_fast(&result.trace);
        assert_eq!(full, fast, "seed {seed} disagreement on:\n{}", result.trace);
    }
}

#[test]
fn detectors_agree_on_workloads() {
    for w in velodrome_workloads::all(1) {
        for seed in 0..2u64 {
            let trace = w.run(seed);
            assert_eq!(
                racy_vars_full(&trace),
                racy_vars_fast(&trace),
                "{} seed {seed}",
                w.name
            );
        }
    }
}

#[test]
fn detectors_agree_under_high_contention() {
    let cfg = GenConfig {
        threads: 4,
        vars: 2,
        locks: 1,
        stmts_per_thread: 10,
        ..GenConfig::default()
    };
    for seed in 0..100u64 {
        let program = random_program(&cfg, seed);
        let result = run_program(&program, RandomScheduler::new(!seed));
        if result.deadlocked {
            continue;
        }
        assert_eq!(
            racy_vars_full(&result.trace),
            racy_vars_fast(&result.trace),
            "seed {seed}"
        );
    }
}
