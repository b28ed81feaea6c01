//! Regression tests for the happens-before hot path and reporting rules:
//!
//! * Section 4.3 increasing-cycle blame on cycles through three or more
//!   transactions (both the increasing and the non-increasing shape) —
//!   pinning down the window `(1..nodes.len())` that exempts the current
//!   transaction and pairs each intermediate node's incoming timestamp with
//!   its outgoing one (the final edge being the rejected closing edge);
//! * the `dedup_per_label` × `max_warnings` interaction: duplicates never
//!   consume budget, and budget-suppressed first reports do not mark their
//!   label as seen;
//! * redundant-edge elision and the epoch cache: optimized and baseline
//!   configurations produce byte-identical warnings and reports, while the
//!   optimized run elides transitively-implied edges.

use velodrome::{check_trace_with, Velodrome, VelodromeConfig};
use velodrome_events::{Trace, TraceBuilder};
use velodrome_monitor::tool::{Tool, Warning};

fn cfg_for(trace: &Trace) -> VelodromeConfig {
    VelodromeConfig {
        names: trace.names().clone(),
        ..VelodromeConfig::default()
    }
}

/// A cycle A → B → C → A where every intermediate transaction's incoming
/// timestamp precedes its outgoing one: increasing, so transaction A is
/// blamed (Section 4.3).
#[test]
fn increasing_cycle_through_three_transactions_blames_root() {
    let mut b = TraceBuilder::new();
    b.begin("T0", "A").write("T0", "x");
    // B reads x (edge A → B), then writes y: in-ts < out-ts.
    b.begin("T1", "B")
        .read("T1", "x")
        .write("T1", "y")
        .end("T1");
    // C reads y (edge B → C), then writes z: in-ts < out-ts.
    b.begin("T2", "C")
        .read("T2", "y")
        .write("T2", "z")
        .end("T2");
    // A reads z: the closing edge C → A is rejected as a cycle.
    b.read("T0", "z").end("T0");
    let trace = b.finish();

    let (warnings, engine) = check_trace_with(&trace, cfg_for(&trace));
    assert_eq!(warnings.len(), 1);
    let report = &engine.reports()[0];
    assert_eq!(report.nodes.len(), 3, "cycle spans three transactions");
    assert_eq!(report.edges.len(), 3);
    assert!(
        report.increasing,
        "in-ts <= out-ts at both intermediate nodes"
    );
    assert_eq!(report.blamed, Some(0), "the current transaction is blamed");
    assert!(
        warnings[0].message.contains("A is not atomic"),
        "{}",
        warnings[0].message
    );
}

/// The same three-transaction cycle, but B performs its outgoing write
/// *before* its incoming read: non-increasing, so no transaction is blamed,
/// yet the violation is still reported (soundness) with the outermost label
/// as attribution.
#[test]
fn non_increasing_cycle_through_three_transactions_is_unblamed() {
    let mut b = TraceBuilder::new();
    // B writes y first (its eventual outgoing timestamp)...
    b.begin("T1", "B").write("T1", "y");
    // ...C picks up y (edge B → C with B's early out-ts)...
    b.begin("T2", "C").read("T2", "y");
    b.begin("T0", "A").write("T0", "x");
    // ...then B reads x (edge A → B with a *later* in-ts than B's write).
    b.read("T1", "x").end("T1");
    b.write("T2", "z").end("T2");
    // Closing edge C → A completes the cycle.
    b.read("T0", "z").end("T0");
    let trace = b.finish();

    let (warnings, engine) = check_trace_with(&trace, cfg_for(&trace));
    assert_eq!(
        warnings.len(),
        1,
        "non-increasing cycles are still violations"
    );
    let report = &engine.reports()[0];
    assert_eq!(report.nodes.len(), 3);
    assert!(!report.increasing, "B's in-ts exceeds its out-ts");
    assert_eq!(report.blamed, None);
    assert!(report.refuted.is_empty());
    assert_eq!(
        warnings[0].label,
        Some(report.nodes[0].label.unwrap()),
        "attribution falls back to the outermost label"
    );
}

/// Appends the classic non-atomic read-modify-write of `var` under `label`
/// (T1's RMW is split by T2's write): one guaranteed violation.
fn violation(b: &mut TraceBuilder, label: &str, var: &str) {
    b.begin("T1", label).read("T1", var);
    b.write("T2", var);
    b.write("T1", var).end("T1");
}

/// Duplicate-label reports return before the budget check: with a budget of
/// two, a label that violates twice leaves room for the next label.
#[test]
fn duplicates_do_not_consume_warning_budget() {
    let mut b = TraceBuilder::new();
    violation(&mut b, "L1", "x");
    violation(&mut b, "L1", "y");
    violation(&mut b, "L2", "z");
    let trace = b.finish();

    let cfg = VelodromeConfig {
        max_warnings: 2,
        ..cfg_for(&trace)
    };
    let (warnings, engine) = check_trace_with(&trace, cfg);
    assert_eq!(engine.stats().cycles_detected, 3);
    assert_eq!(warnings.len(), 2, "L1 once, L2 once");
    assert_ne!(warnings[0].label, warnings[1].label);
}

/// A report suppressed by a full budget must not mark its label as seen:
/// once stored warnings are drained, the label can still produce its one
/// warning. (Previously the dedup check ran first and permanently consumed
/// the label's slot even when the budget blocked the warning.)
#[test]
fn budget_suppression_does_not_starve_label_dedup() {
    let mut b = TraceBuilder::new();
    violation(&mut b, "L1", "x"); // ops 0..5, warns (budget now full)
    violation(&mut b, "L2", "y"); // ops 5..10, suppressed by budget
    violation(&mut b, "L2", "z"); // ops 10..15, must warn after draining
    let trace = b.finish();

    let cfg = VelodromeConfig {
        max_warnings: 1,
        ..cfg_for(&trace)
    };
    let mut engine = Velodrome::with_config(cfg);
    let ops = trace.ops();
    for (i, &op) in ops.iter().enumerate().take(10) {
        engine.op(i, op);
    }
    let first: Vec<Warning> = engine.take_warnings();
    assert_eq!(first.len(), 1, "budget held the second violation back");
    for (i, &op) in ops.iter().enumerate().skip(10) {
        engine.op(i, op);
    }
    let second: Vec<Warning> = engine.take_warnings();
    assert_eq!(
        second.len(),
        1,
        "L2 was not starved by the earlier suppression"
    );
    assert_ne!(first[0].label, second[0].label);
    let stats = engine.stats();
    assert_eq!(stats.cycles_detected, 3, "every cycle is still counted");
    assert_eq!(
        stats.warnings_suppressed, 1,
        "the held-back cycle is counted"
    );
    assert_eq!(engine.reports().len(), 2, "one report per warning");
    let report_at: Vec<usize> = engine.reports().iter().map(|r| r.op_index).collect();
    assert_eq!(report_at, [first[0].op_index, second[0].op_index]);
}

/// A pipeline where thread T2 reads data written two transactions upstream
/// while the producer is still open (so nothing is garbage collected): the
/// direct edge is transitively implied and elided, and the repeated
/// predecessor afterwards hits the epoch cache.
fn pipeline_trace() -> Trace {
    let mut b = TraceBuilder::new();
    b.begin("T0", "produce").write("T0", "a");
    b.begin("T1", "relay")
        .read("T1", "a")
        .write("T1", "b")
        .end("T1");
    b.begin("T2", "consume");
    b.read("T2", "b"); // edge relay → consume
    b.read("T2", "a"); // produce → consume: implied via relay, elided
    b.read("T2", "a"); // same predecessor again: epoch-cache hit
    b.read("T2", "a");
    b.end("T2");
    b.end("T0");
    b.finish()
}

#[test]
fn elision_gate_and_epoch_cache_fire_on_transitive_orderings() {
    let trace = pipeline_trace();
    let (warnings, engine) = check_trace_with(&trace, cfg_for(&trace));
    assert!(warnings.is_empty());
    let stats = engine.stats();
    assert_eq!(stats.edges_elided, 1, "produce → consume is implied");
    assert_eq!(stats.epoch_hits, 2, "the repeated reads skip the arena");
    engine.check_invariants();
}

#[test]
fn baseline_configuration_disables_both_fast_paths() {
    let trace = pipeline_trace();
    let cfg = VelodromeConfig {
        elide_redundant_edges: false,
        ..cfg_for(&trace)
    };
    let (warnings, engine) = check_trace_with(&trace, cfg);
    assert!(warnings.is_empty());
    let stats = engine.stats();
    assert_eq!(stats.edges_elided, 0);
    assert_eq!(stats.epoch_hits, 0);
    engine.check_invariants();
}

/// Optimized and baseline runs must agree byte-for-byte on warnings and
/// reports — here on a trace that mixes an elidable ordering with a real
/// three-transaction violation.
#[test]
fn elision_preserves_warnings_and_reports_exactly() {
    let mut b = TraceBuilder::new();
    b.begin("T0", "produce").write("T0", "a");
    b.begin("T1", "relay")
        .read("T1", "a")
        .write("T1", "b")
        .end("T1");
    b.begin("T2", "consume")
        .read("T2", "b")
        .read("T2", "a")
        .read("T2", "a")
        .end("T2");
    b.end("T0");
    violation(&mut b, "rmw", "c");
    let trace = b.finish();

    let optimized = check_trace_with(&trace, cfg_for(&trace));
    let baseline = check_trace_with(
        &trace,
        VelodromeConfig {
            elide_redundant_edges: false,
            ..cfg_for(&trace)
        },
    );
    assert_eq!(
        serde_json::to_string(&optimized.0).unwrap(),
        serde_json::to_string(&baseline.0).unwrap(),
        "warnings must be identical"
    );
    assert_eq!(
        optimized.1.reports(),
        baseline.1.reports(),
        "reports must be identical"
    );
    assert!(optimized.1.stats().edges_elided > 0);
    assert_eq!(
        optimized.1.stats().cycles_detected,
        baseline.1.stats().cycles_detected
    );
}
