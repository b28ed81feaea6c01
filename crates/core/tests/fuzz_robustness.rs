//! Robustness fuzzing: the engine must never panic and must keep its
//! internal invariants on *arbitrary* operation sequences — including
//! ill-formed ones (stray ends, unmatched acquires, re-entrant locking,
//! forks of running threads) that a buggy front end might deliver.

use proptest::prelude::*;
use velodrome::{Velodrome, VelodromeConfig};
use velodrome_events::{Label, LockId, Op, ThreadId, VarId};
use velodrome_monitor::{DegradationLevel, ResourceBudget, Tool, WarningCategory};

fn arb_op() -> impl Strategy<Value = Op> {
    let t = (0u32..5).prop_map(ThreadId::new);
    let x = (0u32..4).prop_map(VarId::new);
    let m = (0u32..3).prop_map(LockId::new);
    let l = (0u32..4).prop_map(Label::new);
    prop_oneof![
        (t.clone(), x.clone()).prop_map(|(t, x)| Op::Read { t, x }),
        (t.clone(), x).prop_map(|(t, x)| Op::Write { t, x }),
        (t.clone(), m.clone()).prop_map(|(t, m)| Op::Acquire { t, m }),
        (t.clone(), m).prop_map(|(t, m)| Op::Release { t, m }),
        (t.clone(), l).prop_map(|(t, l)| Op::Begin { t, l }),
        t.clone().prop_map(|t| Op::End { t }),
        (t.clone(), (0u32..5).prop_map(ThreadId::new)).prop_map(|(t, child)| Op::Fork { t, child }),
        (t, (0u32..5).prop_map(ThreadId::new)).prop_map(|(t, child)| Op::Join { t, child }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary op soup: no panics, invariants hold throughout, and the
    /// merge and no-merge engines agree on whether a cycle exists.
    #[test]
    fn engine_is_total_on_arbitrary_input(ops in prop::collection::vec(arb_op(), 0..120)) {
        let mut merged = Velodrome::with_config(VelodromeConfig {
            dedup_per_label: false,
            ..VelodromeConfig::default()
        });
        let mut basic = Velodrome::with_config(VelodromeConfig {
            merge: false,
            dedup_per_label: false,
            ..VelodromeConfig::default()
        });
        for (i, &op) in ops.iter().enumerate() {
            merged.op(i, op);
            basic.op(i, op);
        }
        merged.check_invariants();
        basic.check_invariants();
        prop_assert_eq!(
            merged.stats().cycles_detected > 0,
            basic.stats().cycles_detected > 0,
            "merge and basic disagree on arbitrary input"
        );
    }

    /// A budgeted engine is total on garbage input, keeps its invariants,
    /// and always lands in the ladder state its statistics declare.
    #[test]
    fn budgeted_engine_is_total_on_arbitrary_input(
        ops in prop::collection::vec(arb_op(), 0..120),
        max_alive in 0usize..6,
        max_vars in 0usize..4,
    ) {
        let mut engine = Velodrome::with_config(VelodromeConfig {
            dedup_per_label: false,
            budget: ResourceBudget {
                max_alive_nodes: max_alive,
                max_tracked_vars: max_vars,
                ..ResourceBudget::UNLIMITED
            },
            ..VelodromeConfig::default()
        });
        for (i, &op) in ops.iter().enumerate() {
            engine.op(i, op);
        }
        engine.check_invariants();
        let warnings = engine.take_warnings();
        let stats = engine.stats();
        // Ladder state and transition count agree, and every transition
        // produced exactly one (never-suppressed) Degraded warning.
        let degraded = warnings
            .iter()
            .filter(|w| w.category == WarningCategory::Degraded)
            .count() as u64;
        prop_assert_eq!(degraded, stats.degradations);
        prop_assert_eq!(stats.ladder != DegradationLevel::Full, stats.degradations > 0);
        if stats.vars_quarantined > 0 {
            prop_assert!(stats.ladder >= DegradationLevel::VarQuarantine);
        }
    }

    /// Warnings emitted before the first degradation are byte-identical to
    /// an unbudgeted run's.
    #[test]
    fn budget_preserves_pre_degradation_verdicts(
        ops in prop::collection::vec(arb_op(), 0..120),
        max_vars in 1usize..3,
    ) {
        let run = |budget: ResourceBudget| {
            let mut engine = Velodrome::with_config(VelodromeConfig {
                dedup_per_label: false,
                budget,
                ..VelodromeConfig::default()
            });
            for (i, &op) in ops.iter().enumerate() {
                engine.op(i, op);
            }
            engine.take_warnings()
        };
        let clean = run(ResourceBudget::UNLIMITED);
        let budgeted = run(ResourceBudget {
            max_tracked_vars: max_vars,
            ..ResourceBudget::UNLIMITED
        });
        let cut = budgeted
            .iter()
            .filter(|w| w.category == WarningCategory::Degraded)
            .map(|w| w.op_index)
            .min()
            .unwrap_or(usize::MAX);
        let verdicts = |ws: &[velodrome_monitor::Warning]| -> Vec<String> {
            ws.iter()
                .filter(|w| w.category != WarningCategory::Degraded && w.op_index < cut)
                .map(|w| format!("{w}|{}", w.details.as_deref().unwrap_or("")))
                .collect()
        };
        prop_assert_eq!(verdicts(&clean), verdicts(&budgeted));
    }

    /// GC never changes what is detected, even on garbage input.
    #[test]
    fn gc_is_transparent_on_arbitrary_input(ops in prop::collection::vec(arb_op(), 0..80)) {
        let run = |gc: bool| {
            let mut engine = Velodrome::with_config(VelodromeConfig {
                gc,
                dedup_per_label: false,
                ..VelodromeConfig::default()
            });
            for (i, &op) in ops.iter().enumerate() {
                engine.op(i, op);
            }
            engine.check_invariants();
            engine.stats().cycles_detected
        };
        prop_assert_eq!(run(true), run(false));
    }
}

/// When `max_warnings` trips, the overflow is counted, never silent.
#[test]
fn warning_budget_overflow_is_counted() {
    let t1 = ThreadId::new(0);
    let t2 = ThreadId::new(1);
    let x = VarId::new(0);
    let mut engine = Velodrome::with_config(VelodromeConfig {
        dedup_per_label: false,
        max_warnings: 1,
        ..VelodromeConfig::default()
    });
    // Two copies of the classic non-serializable pattern: a transaction
    // whose read and write of `x` straddle another thread's write.
    let mut i = 0;
    for round in 0..2u32 {
        let l = Label::new(round);
        for op in [
            Op::Begin { t: t1, l },
            Op::Read { t: t1, x },
            Op::Write { t: t2, x },
            Op::Write { t: t1, x },
            Op::End { t: t1 },
        ] {
            engine.op(i, op);
            i += 1;
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.cycles_detected, 2, "both cycles are detected");
    assert_eq!(
        engine.take_warnings().len(),
        1,
        "budget caps stored warnings"
    );
    assert_eq!(stats.warnings_suppressed, 1, "the overflow is counted");
    assert_eq!(
        engine.reports().len(),
        1,
        "one report per warning: the suppressed cycle keeps none"
    );
    assert!(
        stats.to_string().contains("1 warnings suppressed (budget)"),
        "{stats}"
    );
}
