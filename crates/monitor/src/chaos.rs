//! Chaos harness: declarative fault injection for the monitoring runtime.
//!
//! A production atomicity monitor must survive its own failures: a
//! panicking back-end, an exhausted resource budget, a host thread dying
//! inside an atomic block. A [`FaultPlan`] names one such failure
//! declaratively; [`run_plan`] replays a recorded trace through the live
//! [`Runtime`] with that fault applied, so the runtime's own panic
//! quarantine, budgets and closing-event synthesis are what get tested,
//! and reports where (if anywhere) fidelity was lost.
//!
//! The harness's contract — asserted by `crates/monitor/tests/chaos.rs` —
//! is threefold: the host always completes, every warning emitted
//! *before* the degradation point is byte-identical to a clean run, and
//! telemetry pinpoints the exact event at which the run degraded.

use crate::budget::{DegradationLevel, ResourceBudget};
use crate::shim::{Runtime, RuntimeTelemetry};
use crate::tool::{Tool, Warning, WarningCategory};
use std::fmt;
use velodrome_events::{Op, Trace};

/// A declarative fault to inject into a monitored run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fault {
    /// No fault: the control plan.
    #[default]
    None,
    /// The back-end tool panics while processing the event at this index.
    ToolPanic {
        /// Index of the event whose callback panics.
        at: usize,
    },
    /// A resource budget is exhausted mid-run, forcing the analysis down
    /// the degradation ladder.
    Budget(ResourceBudget),
    /// The host dies mid-run (or its event stream is cut): delivery stops
    /// at the cut index and [`Runtime::finish`] synthesizes the implied
    /// `end`/`rel` events, as for a thread that panicked inside an atomic
    /// block.
    HostDeath {
        /// Number of events delivered before the host dies.
        at: usize,
    },
}

/// A named fault plan: one [`Fault`] applied to a monitored run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Stable name for reports.
    pub name: &'static str,
    /// The fault to inject.
    pub fault: Fault,
}

impl FaultPlan {
    /// The control plan: no fault.
    pub fn clean() -> Self {
        Self {
            name: "clean",
            fault: Fault::None,
        }
    }

    /// A tool panic at event `at`.
    pub fn tool_panic(at: usize) -> Self {
        Self {
            name: "tool-panic",
            fault: Fault::ToolPanic { at },
        }
    }

    /// A budget-exhaustion fault.
    pub fn budget(budget: ResourceBudget) -> Self {
        Self {
            name: "budget-exhaustion",
            fault: Fault::Budget(budget),
        }
    }

    /// A host dying (or its stream cut) after `at` events.
    pub fn host_death(at: usize) -> Self {
        Self {
            name: "host-death",
            fault: Fault::HostDeath { at },
        }
    }

    /// The resource budget this plan imposes (unlimited unless the fault
    /// is [`Fault::Budget`]).
    pub fn budget_of(&self) -> ResourceBudget {
        match self.fault {
            Fault::Budget(b) => b,
            _ => ResourceBudget::UNLIMITED,
        }
    }

    /// The built-in plan set covering every fault point, scaled to a trace
    /// of `len` events. Used by the chaos test suite.
    pub fn builtin(len: usize) -> Vec<FaultPlan> {
        let mid = len / 2;
        vec![
            Self::clean(),
            Self::tool_panic(mid),
            Self::tool_panic(0),
            Self::host_death(mid),
            Self::host_death(len.saturating_sub(1)),
            Self::budget(ResourceBudget {
                max_alive_nodes: 2,
                ..ResourceBudget::UNLIMITED
            }),
            Self::budget(ResourceBudget {
                max_tracked_vars: 1,
                ..ResourceBudget::UNLIMITED
            }),
            Self::budget(ResourceBudget {
                max_trace_events: mid,
                ..ResourceBudget::UNLIMITED
            }),
        ]
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.fault {
            Fault::None => write!(f, "{}", self.name),
            Fault::ToolPanic { at } => write!(f, "{}@{at}", self.name),
            Fault::Budget(b) => write!(
                f,
                "{}(alive={},trace={},vars={})",
                self.name, b.max_alive_nodes, b.max_trace_events, b.max_tracked_vars
            ),
            Fault::HostDeath { at } => write!(f, "{}@{at}", self.name),
        }
    }
}

/// A tool combinator that panics while processing the event at a fixed
/// index — the canonical "buggy back-end" for chaos runs.
#[derive(Debug)]
pub struct PanicAt<T> {
    inner: T,
    at: usize,
}

impl<T: Tool> PanicAt<T> {
    /// Wraps `inner`; its `op` callback panics at event index `at`.
    pub fn new(inner: T, at: usize) -> Self {
        Self { inner, at }
    }
}

impl<T: Tool> Tool for PanicAt<T> {
    fn name(&self) -> &'static str {
        "panic-at"
    }
    fn op(&mut self, index: usize, op: Op) {
        assert!(
            index != self.at,
            "chaos: injected tool panic at event {index}"
        );
        self.inner.op(index, op);
    }
    fn end_of_trace(&mut self) {
        self.inner.end_of_trace();
    }
    fn take_warnings(&mut self) -> Vec<Warning> {
        self.inner.take_warnings()
    }
}

/// Outcome of a chaos run.
#[derive(Debug)]
pub struct ChaosRun {
    /// The plan that ran.
    pub plan: FaultPlan,
    /// All warnings produced, including `Degraded` transitions.
    pub warnings: Vec<Warning>,
    /// The runtime's telemetry after `finish`: events seen (synthesized
    /// closers included), panics, its ladder and degradation point.
    pub telemetry: RuntimeTelemetry,
}

impl ChaosRun {
    /// The warnings that are *verdicts* (everything except `Degraded`
    /// bookkeeping).
    pub fn verdicts(&self) -> impl Iterator<Item = &Warning> {
        self.warnings
            .iter()
            .filter(|w| w.category != WarningCategory::Degraded)
    }

    fn degradations(&self) -> impl Iterator<Item = &Warning> {
        self.warnings
            .iter()
            .filter(|w| w.category == WarningCategory::Degraded)
    }

    /// The rung the run landed on: the runtime's ladder, or the furthest
    /// level down it named by a `Degraded` warning (an engine enforces its
    /// analysis budgets itself and reports its steps only as warnings).
    pub fn ladder(&self) -> DegradationLevel {
        self.degradations()
            .flat_map(|w| {
                DegradationLevel::ALL
                    .into_iter()
                    .filter(|level| w.message.contains(&format!("degraded to {level}")))
            })
            .fold(self.telemetry.ladder, DegradationLevel::max)
    }

    /// First event index at which the runtime or the tool degraded.
    pub fn degraded_at(&self) -> Option<usize> {
        let tool = self.degradations().map(|w| w.op_index);
        self.telemetry.degraded_at.into_iter().chain(tool).min()
    }

    /// The first verdict that differs from `clean`'s before this run's
    /// fidelity bound: the degradation point or the host-death cut,
    /// whichever comes first. `None` when the prefix is byte-identical.
    pub fn divergence_from(&self, clean: &ChaosRun) -> Option<(Option<String>, Option<String>)> {
        let cut = match self.plan.fault {
            Fault::HostDeath { at } => at,
            _ => usize::MAX,
        };
        let before = cut.min(self.degraded_at().unwrap_or(usize::MAX));
        prefix_divergence(&clean.warnings, &self.warnings, before)
    }
}

/// Replays `trace` through `tool` on a live [`Runtime`] under `plan`: the
/// runtime gets the plan's budget, a [`Fault::ToolPanic`] wraps the tool in
/// [`PanicAt`], and a [`Fault::HostDeath`] replays only the ops before the
/// cut. [`Runtime::finish`] then closes what the cut left open and flushes
/// the tool. A panicking tool is quarantined by the runtime (the run
/// degrades to recorder-only), never propagated to the caller.
pub fn run_plan<T: Tool + Send + 'static>(trace: &Trace, tool: T, plan: &FaultPlan) -> ChaosRun {
    let rt = match plan.fault {
        Fault::ToolPanic { at } => {
            Runtime::online_with_budget(PanicAt::new(tool, at), plan.budget_of())
        }
        _ => Runtime::online_with_budget(tool, plan.budget_of()),
    };
    let cut = match plan.fault {
        Fault::HostDeath { at } => at.min(trace.len()),
        _ => trace.len(),
    };
    rt.replay(&trace.ops()[..cut]);
    let (_, warnings) = rt.finish();
    ChaosRun {
        plan: *plan,
        warnings,
        telemetry: rt.telemetry(),
    }
}

/// Renders a warning into a canonical byte string for exact comparison.
fn warning_bytes(w: &Warning) -> String {
    format!(
        "{}|{}|{:?}|{}|{}|{}|{}",
        w.tool,
        w.category,
        w.label,
        w.thread.raw(),
        w.op_index,
        w.message,
        w.details.as_deref().unwrap_or("")
    )
}

/// Checks the chaos harness's core guarantee: every *verdict* warning with
/// `op_index < before` is byte-identical between the clean and faulted
/// runs (`Degraded` bookkeeping warnings in the faulted run are exempt).
/// Returns the first divergence, if any.
fn prefix_divergence(
    clean: &[Warning],
    faulted: &[Warning],
    before: usize,
) -> Option<(Option<String>, Option<String>)> {
    let keep = |ws: &[Warning]| -> Vec<String> {
        ws.iter()
            .filter(|w| w.category != WarningCategory::Degraded && w.op_index < before)
            .map(warning_bytes)
            .collect()
    };
    let c = keep(clean);
    let f = keep(faulted);
    for i in 0..c.len().max(f.len()) {
        if c.get(i) != f.get(i) {
            return Some((c.get(i).cloned(), f.get(i).cloned()));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tool::EmptyTool;
    use velodrome_events::{ThreadId, TraceBuilder};

    fn trace() -> Trace {
        let mut b = TraceBuilder::new();
        b.begin("T1", "add").acquire("T1", "m").read("T1", "x");
        b.write("T1", "x").release("T1", "m").end("T1");
        b.read("T2", "x");
        b.finish()
    }

    #[test]
    fn clean_plan_delivers_everything() {
        let run = run_plan(&trace(), EmptyTool::new(), &FaultPlan::clean());
        assert_eq!(run.telemetry.events_seen, 7);
        assert_eq!(run.ladder(), DegradationLevel::Full);
        assert_eq!(run.degraded_at(), None);
        assert_eq!(run.telemetry.synthesized_events, 0);
    }

    #[test]
    fn tool_panic_is_isolated_and_pinpointed() {
        let run = run_plan(&trace(), EmptyTool::new(), &FaultPlan::tool_panic(3));
        assert_eq!(run.ladder(), DegradationLevel::RecorderOnly);
        assert_eq!(run.telemetry.degraded_at, Some(3));
        assert_eq!(run.telemetry.tool_panics, 1);
        let degraded: Vec<_> = run.degradations().collect();
        assert_eq!(degraded.len(), 1);
        assert!(degraded[0].message.contains("event 3"), "{degraded:?}");
    }

    #[test]
    fn host_death_synthesizes_closing_events() {
        // Cut after begin+acquire+read: one open block, one lock taken.
        let run = run_plan(&trace(), EmptyTool::new(), &FaultPlan::host_death(3));
        assert_eq!(run.telemetry.synthesized_events, 2, "rel(m) and end(T1)");
        assert_eq!(run.telemetry.events_seen, 5);
        assert_eq!(run.ladder(), DegradationLevel::Full);
    }

    #[test]
    fn builtin_plans_cover_every_fault_kind() {
        let plans = FaultPlan::builtin(100);
        assert!(plans.iter().any(|p| matches!(p.fault, Fault::None)));
        assert!(plans
            .iter()
            .any(|p| matches!(p.fault, Fault::ToolPanic { .. })));
        assert!(plans.iter().any(|p| matches!(p.fault, Fault::Budget(_))));
        assert!(plans
            .iter()
            .any(|p| matches!(p.fault, Fault::HostDeath { .. })));
    }

    #[test]
    fn prefix_divergence_ignores_degraded_and_post_cut_warnings() {
        let mk = |op_index: usize, category: WarningCategory, msg: &str| Warning {
            tool: "t",
            category,
            label: None,
            thread: ThreadId::new(0),
            op_index,
            message: msg.into(),
            details: None,
        };
        let clean = vec![
            mk(1, WarningCategory::Atomicity, "a"),
            mk(9, WarningCategory::Atomicity, "late"),
        ];
        let faulted = vec![
            mk(1, WarningCategory::Atomicity, "a"),
            mk(2, WarningCategory::Degraded, "degraded"),
        ];
        assert_eq!(prefix_divergence(&clean, &faulted, 5), None);
        let diverged = vec![mk(1, WarningCategory::Atomicity, "b")];
        assert!(prefix_divergence(&clean, &diverged, 5).is_some());
    }
}
