//! Regression tests for the arena's hard resource limits.
//!
//! Slot exhaustion and 48-bit timestamp overflow used to be `assert!`s that
//! brought the whole process down; they are now recoverable [`ArenaError`]s
//! that the engine maps onto the degradation ladder (recorder-only mode
//! plus a `Degraded` warning), counted in the engine's stats. Slot index
//! `u16::MAX` is reserved so a maximal slot/timestamp pair can never
//! collide with the `Step::NONE` encoding.

use proptest::prelude::*;
use velodrome::step::MAX_TS;
use velodrome::{Arena, ArenaError, NodeDesc, Velodrome, VelodromeConfig};
use velodrome_events::{Label, LockId, Op, ThreadId, VarId};
use velodrome_monitor::{DegradationLevel, Tool, Warning, WarningCategory};
use velodrome_telemetry::{names, MetricValue, Snapshot, Telemetry};

fn desc(i: usize) -> NodeDesc {
    NodeDesc {
        thread: ThreadId::new(i as u32),
        label: None,
        first_op: i,
    }
}

/// Every slot index below `u16::MAX` allocates; the reserved index does
/// not. With the old `<= 65536` bound the 65536th allocation handed out
/// slot `u16::MAX`, and `Step::new(u16::MAX, MAX_TS)` is the bit pattern of
/// `Step::NONE` — a panic waiting in `Step::new`.
#[test]
fn slot_u16_max_is_reserved() {
    let mut a = Arena::with_gc(false);
    let mut last = None;
    for i in 0..usize::from(u16::MAX) {
        let s = a.alloc(desc(i), true).expect("slot below reserved index");
        assert!(s.is_some(), "allocated step must not be ⊥");
        last = s.slot();
    }
    assert_eq!(last, Some(u16::MAX - 1), "indices stop one short of MAX");
    let err = a.alloc(desc(usize::from(u16::MAX)), true).unwrap_err();
    assert_eq!(err, ArenaError::Exhausted);
    // The message states the true capacity (the old text said "more than
    // 65536" while the bound admitted exactly 65536).
    assert!(err.to_string().contains("65535"), "{err}");
    assert_eq!(
        a.stats().allocated,
        u64::from(u16::MAX),
        "failed alloc not counted"
    );
}

/// `bump` refuses to push a slot's timestamp past 48 bits instead of
/// tripping the `Step::new` assert.
#[test]
fn ts_overflow_is_a_recoverable_error() {
    let mut a = Arena::new();
    let s = a.alloc(desc(0), true).unwrap();
    let slot = s.slot().unwrap();
    a.force_counter_for_test(slot, MAX_TS);
    assert_eq!(a.bump(slot).unwrap_err(), ArenaError::TsOverflow);
    // The slot is still intact: the error is reported, not a poisoned state.
    assert_eq!(a.bump(slot).unwrap_err(), ArenaError::TsOverflow);
    a.check_invariants();
}

/// A tiny trace with one genuine atomicity violation, used to check that
/// verdicts reached before a mid-trace degradation are unaffected by it.
fn rmw_violation_ops() -> Vec<Op> {
    let t0 = ThreadId::new(0);
    let t1 = ThreadId::new(1);
    let x = VarId::new(0);
    vec![
        Op::Begin {
            t: t0,
            l: Label::new(0),
        },
        Op::Read { t: t0, x },
        Op::Write { t: t1, x },
        Op::Write { t: t0, x },
        Op::End { t: t0 },
    ]
}

/// The RMW violation followed by more transactions than the arena holds.
fn exhaustion_ops() -> Vec<Op> {
    let mut ops = rmw_violation_ops();
    // Flood: one empty transaction per fresh thread. With GC off every
    // Begin allocates a slot that is never reclaimed; distinct threads keep
    // the happens-before graph edge-free, so the run stays linear.
    for i in 2..80_000u32 {
        let t = ThreadId::new(i);
        ops.push(Op::Begin {
            t,
            l: Label::new(1),
        });
        ops.push(Op::End { t });
    }
    ops
}

/// Exhausting the arena (GC disabled, no configured budget) lands the
/// engine in recorder-only mode with a single `Degraded` warning; verdicts
/// reached before the degradation point are byte-identical to an
/// unconstrained run, and telemetry counts the event.
#[test]
fn slot_exhaustion_degrades_to_recorder_only() {
    let ops = exhaustion_ops();
    let telemetry = Telemetry::registry();
    let mut constrained = Velodrome::with_config(VelodromeConfig {
        gc: false,
        telemetry: telemetry.clone(),
        ..VelodromeConfig::default()
    });
    let mut unconstrained = Velodrome::with_config(VelodromeConfig::default());
    for (i, &op) in ops.iter().enumerate() {
        constrained.op(i, op);
        unconstrained.op(i, op);
    }
    constrained.end_of_trace();
    unconstrained.end_of_trace();
    // No `check_invariants` here: its exactness check is quadratic in live
    // nodes, and this arena deliberately holds all 65,535 of them.

    let stats = constrained.stats();
    assert_eq!(stats.ladder, DegradationLevel::RecorderOnly);
    assert_eq!(stats.degradations, 1);
    assert_eq!(
        stats.ops as usize,
        ops.len(),
        "the recorder keeps counting after degradation"
    );

    let warnings = constrained.take_warnings();
    let degraded: Vec<&Warning> = warnings
        .iter()
        .filter(|w| w.category == WarningCategory::Degraded)
        .collect();
    assert_eq!(degraded.len(), 1, "exactly one degradation warning");
    assert!(
        degraded[0].message.contains("node arena exhausted"),
        "{}",
        degraded[0].message
    );
    let degrade_at = degraded[0].op_index;

    // Pre-degradation verdicts are byte-identical to the unconstrained run.
    let pre: Vec<Warning> = warnings
        .iter()
        .filter(|w| w.category != WarningCategory::Degraded && w.op_index < degrade_at)
        .cloned()
        .collect();
    assert!(
        !pre.is_empty(),
        "the seeded violation fires before exhaustion"
    );
    let reference: Vec<Warning> = unconstrained
        .take_warnings()
        .into_iter()
        .filter(|w| w.op_index < degrade_at)
        .collect();
    assert_eq!(
        serde_json::to_string(&pre).unwrap(),
        serde_json::to_string(&reference).unwrap(),
        "pre-degradation verdicts must not change"
    );

    constrained.publish_telemetry();
    let snap = telemetry.snapshot(0, ops.len() as u64).unwrap();
    assert_eq!(snap.scalar(names::ARENA_EXHAUSTED), Some(1));
    assert_eq!(snap.scalar(names::ARENA_TS_OVERFLOW), Some(0));
    assert_eq!(snap.scalar(names::ENGINE_DEGRADATIONS), Some(1));
    assert_eq!(
        snap.scalar(names::ENGINE_LADDER),
        Some(DegradationLevel::RecorderOnly.rung())
    );
}

/// Runs a three-op transaction whose slot counter starts at its 48-bit
/// ceiling, so its write overflows the timestamp.
fn ts_overflow_run(telemetry: Telemetry) -> Velodrome {
    let mut engine = Velodrome::with_config(VelodromeConfig {
        telemetry,
        ..VelodromeConfig::default()
    });
    let t = ThreadId::new(0);
    let x = VarId::new(0);
    engine.op(
        0,
        Op::Begin {
            t,
            l: Label::new(0),
        },
    );
    // The first transaction lives in slot 0; push its counter to the edge.
    engine.force_arena_counter_for_test(0, MAX_TS);
    engine.op(1, Op::Write { t, x });
    engine.op(2, Op::End { t });
    engine.end_of_trace();
    engine
}

/// A timestamp counter at its 48-bit ceiling degrades the engine on the
/// next in-transaction operation instead of panicking.
#[test]
fn ts_overflow_degrades_to_recorder_only() {
    let telemetry = Telemetry::registry();
    let mut engine = ts_overflow_run(telemetry.clone());
    engine.check_invariants();

    let stats = engine.stats();
    assert_eq!(stats.ladder, DegradationLevel::RecorderOnly);
    let warnings = engine.take_warnings();
    assert!(
        warnings
            .iter()
            .any(|w| w.category == WarningCategory::Degraded
                && w.message.contains("timestamp counter overflowed")),
        "{warnings:?}"
    );

    engine.publish_telemetry();
    let snap = telemetry.snapshot(0, 3).unwrap();
    assert_eq!(snap.scalar(names::ARENA_TS_OVERFLOW), Some(1));
    assert_eq!(snap.scalar(names::ARENA_EXHAUSTED), Some(0));
}

/// Publishes `engine` into a fresh registry and snapshots it.
fn published(engine: &Velodrome) -> Snapshot {
    let registry = Telemetry::registry();
    engine.publish_telemetry_to(&registry);
    registry.snapshot(0, 0).unwrap()
}

/// The failure counts live in the engine's statistics, not in an attached
/// registry: an engine run with telemetry disabled still publishes them,
/// as counters, when asked afterwards.
#[test]
fn exhaustion_count_is_published_from_stats() {
    let ops = exhaustion_ops();
    let mut engine = Velodrome::with_config(VelodromeConfig {
        gc: false,
        telemetry: Telemetry::disabled(),
        ..VelodromeConfig::default()
    });
    for (i, &op) in ops.iter().enumerate() {
        engine.op(i, op);
    }
    engine.end_of_trace();
    let snap = published(&engine);
    assert_eq!(
        snap.metrics[names::ARENA_EXHAUSTED],
        MetricValue::Counter(1)
    );
    assert_eq!(
        snap.metrics[names::ARENA_TS_OVERFLOW],
        MetricValue::Counter(0)
    );
    assert_eq!(
        snap.metrics[names::ENGINE_DEGRADATIONS],
        MetricValue::Counter(1)
    );
}

/// As [`exhaustion_count_is_published_from_stats`], for a timestamp
/// overflow.
#[test]
fn ts_overflow_count_is_published_from_stats() {
    let engine = ts_overflow_run(Telemetry::disabled());
    let snap = published(&engine);
    assert_eq!(
        snap.metrics[names::ARENA_TS_OVERFLOW],
        MetricValue::Counter(1)
    );
    assert_eq!(
        snap.metrics[names::ARENA_EXHAUSTED],
        MetricValue::Counter(0)
    );
    assert_eq!(
        snap.metrics[names::ENGINE_DEGRADATIONS],
        MetricValue::Counter(1)
    );
}

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
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After an arbitrary (possibly ill-formed) trace, a registry snapshot
    /// agrees with the engine's recomputed statistics surface on every
    /// mirrored gauge.
    #[test]
    fn snapshot_agrees_with_stats(ops in prop::collection::vec(arb_op(), 0..120)) {
        let telemetry = Telemetry::registry();
        let mut engine = Velodrome::with_config(VelodromeConfig {
            dedup_per_label: false,
            telemetry: telemetry.clone(),
            ..VelodromeConfig::default()
        });
        for (i, &op) in ops.iter().enumerate() {
            engine.op(i, op);
        }
        engine.publish_telemetry();
        let snap = telemetry.snapshot(0, ops.len() as u64).unwrap();
        let stats = engine.stats();
        prop_assert_eq!(snap.scalar(names::ENGINE_OPS), Some(stats.ops));
        prop_assert_eq!(snap.scalar(names::ARENA_ALLOCATED), Some(stats.nodes_allocated));
        prop_assert_eq!(snap.scalar(names::ARENA_MAX_ALIVE), Some(stats.max_alive));
        prop_assert_eq!(snap.scalar(names::ARENA_COLLECTED), Some(stats.collected));
        prop_assert_eq!(snap.scalar(names::ARENA_EDGES_ADDED), Some(stats.edges_added));
        prop_assert_eq!(snap.scalar(names::ARENA_EDGES_ELIDED), Some(stats.edges_elided));
        prop_assert_eq!(snap.scalar(names::ENGINE_EPOCH_HITS), Some(stats.epoch_hits));
        prop_assert_eq!(snap.scalar(names::ENGINE_MERGES_REUSED), Some(stats.merges_reused));
        prop_assert_eq!(snap.scalar(names::ENGINE_MERGES_BOTTOM), Some(stats.merges_bottom));
        prop_assert_eq!(snap.scalar(names::ENGINE_CYCLES_DETECTED), Some(stats.cycles_detected));
        prop_assert_eq!(snap.scalar(names::ENGINE_VARS_QUARANTINED), Some(stats.vars_quarantined));
        prop_assert_eq!(snap.scalar(names::ENGINE_LADDER), Some(stats.ladder.rung()));
    }

    /// The `engine.ladder` gauge, published after every op, is monotone
    /// over any trace: the engine only ever steps *down* the ladder.
    #[test]
    fn ladder_gauge_is_monotone(
        ops in prop::collection::vec(arb_op(), 0..120),
        max_alive in 0usize..6,
        max_vars in 0usize..4,
    ) {
        let telemetry = Telemetry::registry();
        let mut engine = Velodrome::with_config(VelodromeConfig {
            dedup_per_label: false,
            telemetry: telemetry.clone(),
            budget: velodrome_monitor::ResourceBudget {
                max_alive_nodes: max_alive,
                max_tracked_vars: max_vars,
                ..velodrome_monitor::ResourceBudget::UNLIMITED
            },
            ..VelodromeConfig::default()
        });
        let mut prev = 0u64;
        for (i, &op) in ops.iter().enumerate() {
            engine.op(i, op);
            engine.publish_telemetry();
            let snap = telemetry.snapshot(i as u64, i as u64 + 1).unwrap();
            let rung = snap.scalar(names::ENGINE_LADDER).unwrap();
            prop_assert!(rung >= prev, "ladder went back up: {} -> {} at op {}", prev, rung, i);
            prop_assert!(rung <= DegradationLevel::RecorderOnly.rung());
            prev = rung;
        }
        prop_assert_eq!(prev, engine.stats().ladder.rung());
    }
}
