//! Chaos suite: fault injection against the live runtime, with the real
//! Velodrome engine as the monitored tool. Fault plans replay recorded
//! traces through `Runtime` (`chaos::run_plan`), so what is tested is the
//! runtime's own quarantine, budgets and closing-event synthesis.
//!
//! The contract under test (see `crates/monitor/src/chaos.rs`):
//! 1. the host workload always completes — no injected fault may propagate
//!    a panic to the caller or hang the run;
//! 2. every verdict reached before the degradation point is byte-identical
//!    to a clean run's;
//! 3. telemetry pinpoints the exact event at which the run degraded.

use proptest::prelude::*;
use velodrome::{Velodrome, VelodromeConfig};
use velodrome_events::Trace;
use velodrome_monitor::chaos::{run_plan, ChaosRun, PanicAt};
use velodrome_monitor::shim::Runtime;
use velodrome_monitor::{DegradationLevel, Fault, FaultPlan, ResourceBudget, WarningCategory};
use velodrome_sim::{random_program, run_program, GenConfig, RandomScheduler};

fn engine_for(trace: &Trace, budget: ResourceBudget) -> Velodrome {
    Velodrome::with_config(VelodromeConfig {
        names: trace.names().clone(),
        dedup_per_label: false,
        budget,
        ..VelodromeConfig::default()
    })
}

/// Runs `plan` over `trace` with an engine carrying the plan's budget.
fn run(trace: &Trace, plan: &FaultPlan) -> ChaosRun {
    run_plan(trace, engine_for(trace, plan.budget_of()), plan)
}

fn gen_trace(seed: u64, threads: usize, stmts: usize) -> Trace {
    let cfg = GenConfig {
        threads,
        vars: 3,
        locks: 2,
        stmts_per_thread: stmts,
        ..GenConfig::default()
    };
    let program = random_program(&cfg, seed);
    run_program(&program, RandomScheduler::new(seed)).trace
}

fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    prop_oneof![
        Just(FaultPlan::clean()),
        (0usize..200).prop_map(FaultPlan::tool_panic),
        (0usize..200).prop_map(FaultPlan::host_death),
        (0usize..6, 0usize..6, 0usize..4).prop_map(|(alive, trace, vars)| {
            FaultPlan::budget(ResourceBudget {
                max_alive_nodes: alive,
                max_trace_events: trace,
                max_tracked_vars: vars,
            })
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any fault plan on any generated program: the host never panics, a
    /// degraded run names the event it degraded at, and verdicts before
    /// that point match the clean run byte-for-byte.
    #[test]
    fn arbitrary_faults_never_escape_and_keep_prefix_fidelity(
        seed in 0u64..500,
        threads in 2usize..4,
        plan in arb_plan(),
    ) {
        let trace = gen_trace(seed, threads, 6);
        // Completing run_plan at all is guarantee 1 (no escaped panic).
        let clean = run(&trace, &FaultPlan::clean());
        let faulted = run(&trace, &plan);

        // Guarantee 3: if anything degraded, telemetry names the event.
        match plan.fault {
            Fault::ToolPanic { at } if at < trace.len() => {
                prop_assert_eq!(faulted.ladder(), DegradationLevel::RecorderOnly);
                prop_assert_eq!(faulted.telemetry.degraded_at, Some(at));
            }
            // Synthesized closers hit nothing that degrades an unbudgeted
            // engine.
            Fault::ToolPanic { .. } | Fault::None | Fault::HostDeath { .. } => {
                prop_assert_eq!(faulted.ladder(), DegradationLevel::Full);
            }
            Fault::Budget(_) => {}
        }
        if faulted.ladder() != DegradationLevel::Full {
            prop_assert!(faulted.degraded_at().is_some(), "degradation must be pinpointed");
        }

        // Guarantee 2: byte-identical verdict prefix.
        let divergence = faulted.divergence_from(&clean);
        prop_assert!(divergence.is_none(), "{}: {:?}", plan, divergence);
    }
}

/// The built-in plan set over a fixed-seed paper workload (`multiset`,
/// scale 2, seed 1): every plan upholds the contract, the clean control
/// stays at full fidelity, and no faulted plan is vacuous — each one
/// degrades at a pinpointed event or cuts the stream.
#[test]
fn builtin_plans_uphold_contract_on_multiset() {
    let w = velodrome_workloads::build("multiset", 2).expect("multiset model exists");
    let trace = run_program(&w.program, RandomScheduler::new(1)).trace;
    let len = trace.len();
    let clean = run(&trace, &FaultPlan::clean());
    assert_eq!(clean.ladder(), DegradationLevel::Full);
    assert_eq!(clean.degraded_at(), None);
    assert!(
        clean.verdicts().count() > 0,
        "multiset has violations to keep"
    );

    for plan in FaultPlan::builtin(len) {
        let faulted = run(&trace, &plan);
        let divergence = faulted.divergence_from(&clean);
        assert!(divergence.is_none(), "{plan}: {divergence:?}");
        if faulted.ladder() != DegradationLevel::Full {
            assert!(faulted.degraded_at().is_some(), "{plan}: not pinpointed");
        }
        match plan.fault {
            Fault::None => {
                assert_eq!(faulted.ladder(), DegradationLevel::Full, "{plan}");
                assert_eq!(faulted.degraded_at(), None, "{plan}");
            }
            Fault::HostDeath { at } => {
                assert!(at < len, "{plan}: cuts nothing");
                let t = faulted.telemetry;
                assert_eq!(t.events_seen - t.synthesized_events, at as u64, "{plan}");
                if at == len / 2 {
                    // This cut lands inside an open block; finish closes it.
                    assert!(t.synthesized_events > 0, "{plan}: nothing synthesized");
                }
            }
            Fault::ToolPanic { .. } | Fault::Budget(_) => {
                assert_ne!(faulted.ladder(), DegradationLevel::Full, "{plan}: vacuous");
            }
        }
        let budget = plan.budget_of();
        if budget.max_trace_events > 0 {
            assert_eq!(faulted.ladder(), DegradationLevel::TraceDropped, "{plan}");
            assert_eq!(faulted.degraded_at(), Some(len / 2), "{plan}");
        }
        if budget.max_alive_nodes > 0 {
            assert!(faulted.ladder() > DegradationLevel::TraceDropped, "{plan}");
        }
    }
}

#[test]
fn double_finish_is_idempotent() {
    let rt = Runtime::online(Velodrome::new());
    rt.atomic("work", || {
        let x = rt.shared("x", 0i32);
        x.set(x.get() + 1);
    });
    let (trace, warnings) = rt.finish();
    assert!(trace.len() >= 4, "begin/read/write/end recorded");
    let (trace2, warnings2) = rt.finish();
    assert_eq!(trace2.len(), 0, "second finish returns an empty trace");
    assert!(warnings2.is_empty(), "second finish returns no warnings");
    // The first finish's results are unaffected.
    assert!(warnings
        .iter()
        .all(|w| w.category != WarningCategory::Degraded));
}

#[test]
fn host_death_mid_transaction_synthesizes_closers() {
    let rt = Runtime::recorder();
    let lock = rt.lock("m", ());
    let guard = lock.lock();
    let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.atomic("doomed", || panic!("host thread dies mid-transaction"))
    }));
    assert!(boom.is_err(), "the host panic itself propagates");
    // The open transaction (and the still-held lock) are closed by finish.
    std::mem::forget(guard); // simulate a guard lost to the dead thread
    let (trace, warnings) = rt.finish();
    let synthesized: Vec<usize> = trace.synthesized().to_vec();
    assert!(
        synthesized.len() >= 2,
        "implied end and release are synthesized and flagged: {synthesized:?}"
    );
    let last = trace.len() - 1;
    assert!(trace.is_synthesized(last));
    assert!(warnings.is_empty(), "recorder mode has no tool to warn");
}

#[test]
fn live_tool_panic_is_quarantined_and_salvaged() {
    // The wrapped engine panics at event index 2; the host must finish the
    // workload untouched, and telemetry must pinpoint event 2.
    let rt = Runtime::online(PanicAt::new(Velodrome::new(), 2));
    for _ in 0..3 {
        rt.atomic("work", || {
            let x = rt.shared("x", 0i32);
            x.set(x.get() + 1);
        });
    }
    let telemetry = rt.telemetry();
    assert_eq!(telemetry.tool_panics, 1);
    assert_eq!(telemetry.degraded_at, Some(2));
    assert_eq!(rt.ladder(), DegradationLevel::RecorderOnly);
    let (trace, warnings) = rt.finish();
    assert!(
        trace.len() >= 12,
        "recording continues after quarantine: {}",
        trace.len()
    );
    let degraded: Vec<_> = warnings
        .iter()
        .filter(|w| w.category == WarningCategory::Degraded)
        .collect();
    assert_eq!(degraded.len(), 1);
    assert!(degraded[0].message.contains("event 2"), "{degraded:?}");
}

#[test]
fn trace_budget_degrades_to_trace_dropped() {
    let rt = Runtime::recorder_with_budget(ResourceBudget {
        max_trace_events: 3,
        ..ResourceBudget::UNLIMITED
    });
    for _ in 0..4 {
        rt.atomic("work", || {
            let x = rt.shared("x", 0i32);
            x.set(x.get() + 1);
        });
    }
    assert_eq!(rt.ladder(), DegradationLevel::TraceDropped);
    let telemetry = rt.telemetry();
    assert!(telemetry.trace_events_dropped > 0);
    assert!(telemetry.degraded_at.is_some());
    let (trace, warnings) = rt.finish();
    assert_eq!(trace.len(), 3, "retained trace stays within budget");
    assert!(warnings
        .iter()
        .any(|w| w.category == WarningCategory::Degraded));
}
