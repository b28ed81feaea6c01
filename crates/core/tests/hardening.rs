//! Robustness tests for the engine's data-representation machinery:
//! slot recycling, GC ablation, warning caps, deep nesting, many threads,
//! and long-running stability.

use velodrome::{check_trace_with, Velodrome, VelodromeConfig};
use velodrome_events::{oracle, Label, Op, ThreadId, Trace, TraceBuilder, VarId};
use velodrome_monitor::{run_tool, DegradationLevel, ResourceBudget, Tool, WarningCategory};

/// Millions of transactions force heavy slot recycling: stale steps from
/// prior incarnations must never be misinterpreted.
#[test]
fn slot_recycling_under_sustained_load() {
    let mut b = TraceBuilder::new();
    for i in 0..20_000u32 {
        let t = format!("T{}", i % 3);
        // Rotating variables so predecessors constantly go stale.
        let x = format!("v{}", i % 7);
        b.begin(&t, "work")
            .acquire(&t, "m")
            .read(&t, &x)
            .write(&t, &x);
        b.release(&t, "m").end(&t);
    }
    let trace = b.finish();
    let (warnings, engine) = check_trace_with(&trace, VelodromeConfig::default());
    assert!(warnings.is_empty(), "{warnings:?}");
    let stats = engine.stats();
    assert_eq!(stats.ops, trace.len() as u64);
    assert!(stats.max_alive <= 8, "max alive {}", stats.max_alive);
    assert!(stats.collected >= stats.nodes_allocated - 8);
    engine.check_invariants();
}

/// With GC disabled the verdicts are unchanged; only memory behavior
/// differs (the ablation configuration).
#[test]
fn gc_ablation_preserves_verdicts() {
    let cases: Vec<(Trace, bool)> = vec![
        (
            {
                let mut b = TraceBuilder::new();
                b.begin("T1", "inc").read("T1", "x");
                b.write("T2", "x");
                b.write("T1", "x").end("T1");
                b.finish()
            },
            false,
        ),
        (
            {
                let mut b = TraceBuilder::new();
                for i in 0..200 {
                    let t = if i % 2 == 0 { "T1" } else { "T2" };
                    b.begin(t, "ok")
                        .acquire(t, "m")
                        .write(t, "x")
                        .release(t, "m")
                        .end(t);
                }
                b.finish()
            },
            true,
        ),
    ];
    for (trace, serializable) in cases {
        for gc in [true, false] {
            let cfg = VelodromeConfig {
                gc,
                ..VelodromeConfig::default()
            };
            let (warnings, engine) = check_trace_with(&trace, cfg);
            assert_eq!(warnings.is_empty(), serializable, "gc={gc}");
            if !gc {
                assert_eq!(engine.stats().collected, 0);
                assert_eq!(
                    engine.alive_nodes() as u64,
                    engine.stats().nodes_allocated,
                    "nothing freed without GC"
                );
            }
        }
    }
}

/// The warning cap bounds stored warnings but never detection.
#[test]
fn max_warnings_caps_storage_not_detection() {
    let mut b = TraceBuilder::new();
    for i in 0..20 {
        let label = format!("method_{i}");
        b.begin("T1", &label).read("T1", "x");
        b.write("T2", "x");
        b.write("T1", "x").end("T1");
    }
    let trace = b.finish();
    let cfg = VelodromeConfig {
        max_warnings: 5,
        dedup_per_label: false,
        ..VelodromeConfig::default()
    };
    let (warnings, engine) = check_trace_with(&trace, cfg);
    assert_eq!(warnings.len(), 5, "storage capped");
    let stats = engine.stats();
    assert_eq!(stats.cycles_detected, 20, "detection not capped");
    assert_eq!(
        stats.warnings_suppressed, 15,
        "every held-back cycle counted"
    );
    assert_eq!(engine.reports().len(), 5, "one report per warning");
}

/// Deeply nested atomic blocks: blame refutes exactly the prefix of the
/// stack whose begins precede the cycle root.
#[test]
fn deep_nesting_refutation_prefix() {
    let depth = 12;
    let mut b = TraceBuilder::new();
    for i in 0..depth {
        b.begin("T1", &format!("level_{i}"));
    }
    b.read("T1", "x");
    b.write("T2", "x");
    // Open more blocks after the root read; they must not be refuted.
    for i in depth..depth + 3 {
        b.begin("T1", &format!("level_{i}"));
    }
    b.write("T1", "x");
    for _ in 0..depth + 3 {
        b.end("T1");
    }
    let trace = b.finish();
    let cfg = VelodromeConfig {
        names: trace.names().clone(),
        ..VelodromeConfig::default()
    };
    let (warnings, engine) = check_trace_with(&trace, cfg);
    assert_eq!(warnings.len(), 1);
    let report = &engine.reports()[0];
    let refuted: Vec<String> = report
        .refuted
        .iter()
        .map(|&l| trace.names().label(l))
        .collect();
    let expected: Vec<String> = (0..depth).map(|i| format!("level_{i}")).collect();
    assert_eq!(
        refuted, expected,
        "only blocks enclosing the root are refuted"
    );
}

/// Dozens of threads with mixed disciplines: verdict matches the oracle.
#[test]
fn many_threads_agree_with_oracle() {
    let mut b = TraceBuilder::new();
    for round in 0..4 {
        for t in 0..24 {
            let name = format!("T{t}");
            if t % 3 == 0 {
                b.begin(&name, "locked");
                b.acquire(&name, "global").read(&name, "shared");
                b.write(&name, "shared").release(&name, "global");
                b.end(&name);
            } else if t % 3 == 1 {
                b.read(&name, &format!("private_{t}_{round}"));
            } else {
                b.begin(&name, "reader").read(&name, "config").end(&name);
            }
        }
    }
    let trace = b.finish();
    let (warnings, engine) = check_trace_with(&trace, VelodromeConfig::default());
    assert_eq!(warnings.is_empty(), oracle::is_serializable(&trace));
    engine.check_invariants();
}

/// Stats rendering and engine Debug exist and are stable.
#[test]
fn stats_display_and_debug() {
    let mut engine = Velodrome::new();
    let mut b = TraceBuilder::new();
    b.begin("T1", "p").read("T1", "x").end("T1");
    for (i, op) in b.finish().iter() {
        engine.op(i, op);
    }
    let shown = engine.stats().to_string();
    assert!(shown.contains("3 ops"), "{shown}");
    assert!(shown.contains("nodes allocated"), "{shown}");
    let debugged = format!("{engine:?}");
    assert!(debugged.contains("Velodrome"), "{debugged}");
}

/// A trace consisting solely of unary operations allocates nothing with
/// merge, and everything collects immediately without it.
#[test]
fn pure_unary_trace_extremes() {
    let mut b = TraceBuilder::new();
    for i in 0..5_000u32 {
        let t = format!("T{}", i % 4);
        b.write(&t, &format!("own_{}", i % 4));
    }
    let trace = b.finish();
    let merged = check_trace_with(&trace, VelodromeConfig::default())
        .1
        .stats();
    assert_eq!(merged.nodes_allocated, 0, "fully-⊥ unary ops vanish");
    assert_eq!(merged.merges_bottom, 5_000);
    let basic = check_trace_with(
        &trace,
        VelodromeConfig {
            merge: false,
            ..VelodromeConfig::default()
        },
    )
    .1
    .stats();
    assert_eq!(basic.nodes_allocated, 5_000, "naive rule allocates per op");
    assert!(basic.max_alive <= 2);
}

/// End-of-trace with still-open transactions is clean: no panic, state
/// remains inspectable, warnings already flushed.
#[test]
fn open_transactions_at_end_of_trace() {
    let mut b = TraceBuilder::new();
    b.begin("T1", "open1").read("T1", "x");
    b.begin("T2", "open2").write("T2", "x");
    let trace = b.finish();
    let mut engine = Velodrome::new();
    let warnings = run_tool(&mut engine, &trace);
    assert!(warnings.is_empty());
    assert_eq!(engine.alive_nodes(), 2, "both transactions still current");
    engine.check_invariants();
}

/// Re-running the same engine over a second trace continues correctly
/// (tools are long-lived in online monitoring).
#[test]
fn engine_survives_multiple_trace_segments() {
    let mut engine = Velodrome::new();
    let mut offset = 0;
    for _ in 0..3 {
        let mut b = TraceBuilder::new();
        b.begin("T1", "inc").read("T1", "x");
        b.write("T2", "x");
        b.write("T1", "x").end("T1");
        let trace = b.finish();
        for (i, op) in trace.iter() {
            engine.op(offset + i, op);
        }
        offset += trace.len();
    }
    assert_eq!(engine.stats().cycles_detected, 3);
    let warnings = engine.take_warnings();
    assert_eq!(warnings.len(), 1, "per-label dedup across segments");
}

/// Quarantine picks the hottest tracked variables first and breaks a tie
/// in heat by the lower raw id (not by first sight), and recorder-only
/// mode keeps the quarantined list while it releases the store.
#[test]
fn quarantine_order_and_recorder_only_keep_the_list() {
    let cfg = VelodromeConfig {
        budget: ResourceBudget {
            max_tracked_vars: 2,
            max_alive_nodes: 2,
            ..ResourceBudget::UNLIMITED
        },
        ..VelodromeConfig::default()
    };
    let mut engine = Velodrome::with_config(cfg);
    let mut idx = 0;
    let mut feed = |engine: &mut Velodrome, op: Op| {
        engine.op(idx, op);
        idx += 1;
    };
    let t0 = ThreadId::new(0);
    let read = |t: ThreadId, x: u32| Op::Read {
        t,
        x: VarId::new(x),
    };
    // Heat (accesses while tracked) per variable, in first-seen order.
    // T0's lone non-transactional reads allocate no node.
    for (x, heat) in [(30, 2), (10, 2), (50, 1), (40, 3), (60, 1)] {
        for _ in 0..heat {
            feed(&mut engine, read(t0, x));
        }
    }
    // x50 tripped the budget with x30 and x10 tied at heat 2: x10 goes
    // (lower raw id), though x30 was seen first. x40's first access then
    // quarantined x30 (heat 2 over x50's 1), and x60's the hottest, x40.
    let phase1 = vec![VarId::new(10), VarId::new(30), VarId::new(40)];
    assert_eq!(engine.quarantined_vars(), phase1);
    assert_eq!(engine.stats().vars_quarantined, 3);
    assert_eq!(engine.ladder(), DegradationLevel::VarQuarantine);
    // Accesses to a quarantined variable are dropped: no heat, no change.
    feed(&mut engine, read(t0, 10));
    assert_eq!(engine.quarantined_vars(), phase1);

    // Three open transactions break the alive-node budget at T3's read.
    // The first trip quarantines the hotter half of the two tracked
    // variables: x60, at heat 4 against x50's 1.
    for t in 1..=3 {
        let t = ThreadId::new(t);
        feed(
            &mut engine,
            Op::Begin {
                t,
                l: Label::new(0),
            },
        );
        feed(&mut engine, read(t, 60));
    }
    feed(&mut engine, read(t0, 60));
    let phase2 = vec![
        VarId::new(10),
        VarId::new(30),
        VarId::new(40),
        VarId::new(60),
    ];
    assert_eq!(engine.quarantined_vars(), phase2);
    assert_eq!(engine.stats().vars_quarantined, 4);
    assert_eq!(engine.ladder(), DegradationLevel::VarQuarantine);
    // The nodes stay alive through the grace window: recorder-only. (An
    // access to a quarantined variable is dropped before the node check.)
    for _ in 0..32 {
        feed(&mut engine, read(t0, 50));
    }
    assert_eq!(engine.ladder(), DegradationLevel::RecorderOnly);
    assert_eq!(engine.quarantined_vars(), phase2);
    assert_eq!(engine.stats().vars_quarantined, 4);
    // Later ops of every kind are only counted.
    let before = engine.stats().ops;
    for x in [10, 30, 60, 70] {
        feed(&mut engine, read(ThreadId::new(1), x));
        feed(
            &mut engine,
            Op::Write {
                t: ThreadId::new(4),
                x: VarId::new(x),
            },
        );
    }
    for t in 1..=3 {
        feed(
            &mut engine,
            Op::End {
                t: ThreadId::new(t),
            },
        );
    }
    engine.end_of_trace();
    assert_eq!(engine.stats().ops, before + 11);
    assert_eq!(engine.quarantined_vars(), phase2);
    let degraded = engine
        .take_warnings()
        .into_iter()
        .filter(|w| w.category == WarningCategory::Degraded)
        .count();
    assert_eq!(degraded, 2, "one warning per ladder transition");
}
