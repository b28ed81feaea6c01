//! Two-tier checking: vector-clock screen online, graph engine on demand.
//!
//! [`HybridVelodrome`] runs the AeroDrome-style vector-clock screen
//! ([`velodrome_vclock::AeroDrome`]) over every event and keeps the full
//! [`Velodrome`] graph engine dormant. Events are buffered as they are
//! screened; the first time the screen raises an escalation flag (a
//! definite own-time violation, or a join that grows the clock of an
//! observed active transaction — see the screen's module docs for why
//! those flags form a sound superset of the engine's detections), the
//! buffered prefix is replayed through a freshly constructed engine and
//! every subsequent event goes straight to it. The engine therefore sees
//! exactly the event stream (with original indices) an always-on run
//! would have seen, and its warnings, blame assignment, increasing-cycle
//! refutation, and [`CycleReport`]s are **byte-identical** to pure
//! Velodrome's.
//!
//! The checker is a library type only: no CLI backend runs it. It is kept
//! for the per-layer benchmark, which times it against the engine.
//!
//! # Interaction with the degradation ladder
//!
//! The engine's [`ResourceBudget`](velodrome_monitor::ResourceBudget)
//! drives its degradation ladder from the moment it is constructed. A
//! screened run would start that clock only at escalation, making ladder
//! transitions (and their `Degraded` warnings) diverge from a pure run's.
//! A configured budget therefore disables screening entirely: the engine
//! is engaged from the first operation and behaves — byte for byte —
//! like pure Velodrome, ladder and all.

use crate::engine::{Velodrome, VelodromeConfig};
use crate::report::CycleReport;
use velodrome_events::Op;
use velodrome_monitor::tool::{replay_ops, Tool, Warning};
use velodrome_vclock::AeroDrome;

/// Configuration for the two-tier checker.
#[derive(Debug, Clone, Default)]
pub struct HybridConfig {
    /// Configuration for the graph engine constructed at escalation. A
    /// non-unlimited [`budget`](VelodromeConfig::budget) disables
    /// screening (see the module docs).
    pub engine: VelodromeConfig,
}

/// Counters for one hybrid run.
#[derive(Debug, Clone, Copy, Default)]
pub struct HybridStats {
    /// Escalations taken (`0` or `1`; the engine stays engaged).
    pub escalations: u64,
    /// Trace index at which the engine was engaged, if it was.
    pub escalated_at: Option<usize>,
}

/// The two-tier screen-then-diagnose atomicity checker.
///
/// # Examples
///
/// ```
/// use velodrome::hybrid::HybridVelodrome;
/// use velodrome_events::TraceBuilder;
/// use velodrome_monitor::run_tool;
///
/// let mut b = TraceBuilder::new();
/// b.begin("T1", "inc").read("T1", "x");
/// b.write("T2", "x");
/// b.write("T1", "x").end("T1");
/// let mut hybrid = HybridVelodrome::new();
/// let warnings = run_tool(&mut hybrid, &b.finish());
/// assert_eq!(warnings.len(), 1);
/// assert_eq!(hybrid.stats().escalations, 1);
/// ```
#[derive(Debug)]
pub struct HybridVelodrome {
    cfg: HybridConfig,
    screen: AeroDrome,
    engine: Option<Velodrome>,
    buffer: Vec<(usize, Op)>,
    escalations: u64,
    escalated_at: Option<usize>,
}

impl Default for HybridVelodrome {
    fn default() -> Self {
        Self::new()
    }
}

impl HybridVelodrome {
    /// Creates a hybrid checker with the default configuration.
    pub fn new() -> Self {
        Self::with_config(HybridConfig::default())
    }

    /// Creates a hybrid checker with an explicit configuration.
    pub fn with_config(cfg: HybridConfig) -> Self {
        let mut this = Self {
            cfg,
            screen: AeroDrome::new(),
            engine: None,
            buffer: Vec::new(),
            escalations: 0,
            escalated_at: None,
        };
        if !this.cfg.engine.budget.is_unlimited() {
            // Budgets govern the graph engine's degradation ladder from
            // op 0; engage it immediately so ladder behavior is identical
            // to a pure run (see the module docs).
            this.engage(0);
        }
        this
    }

    /// Counters for the run so far.
    pub fn stats(&self) -> HybridStats {
        HybridStats {
            escalations: self.escalations,
            escalated_at: self.escalated_at,
        }
    }

    /// The engaged engine's cycle reports, one per atomicity warning
    /// (empty while the screen holds — a never-escalated run found no
    /// cycles).
    pub fn reports(&self) -> &[CycleReport] {
        self.engine.as_ref().map(|e| e.reports()).unwrap_or(&[])
    }

    /// Whether the graph engine has been engaged.
    pub fn escalated(&self) -> bool {
        self.engine.is_some()
    }

    /// Constructs the engine and replays the buffered prefix through it.
    fn engage(&mut self, idx: usize) {
        debug_assert!(self.engine.is_none());
        self.escalations += 1;
        self.escalated_at = Some(idx);
        let mut engine = Velodrome::with_config(self.cfg.engine.clone());
        replay_ops(&mut engine, &std::mem::take(&mut self.buffer));
        self.engine = Some(engine);
    }
}

impl Tool for HybridVelodrome {
    fn name(&self) -> &'static str {
        "velodrome-hybrid"
    }

    fn op(&mut self, index: usize, op: Op) {
        if let Some(engine) = &mut self.engine {
            engine.op(index, op);
            return;
        }
        self.buffer.push((index, op));
        if self.screen.step(index, op).escalate {
            self.engage(index);
        }
    }

    fn end_of_trace(&mut self) {
        if let Some(engine) = &mut self.engine {
            engine.end_of_trace();
        }
    }

    fn take_warnings(&mut self) -> Vec<Warning> {
        self.engine
            .as_mut()
            .map(|e| e.take_warnings())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::check_trace_with;
    use velodrome_events::{Trace, TraceBuilder};
    use velodrome_monitor::run_tool;

    fn violating_trace() -> Trace {
        let mut b = TraceBuilder::new();
        b.begin("T1", "inc").read("T1", "x");
        b.write("T2", "x");
        b.write("T1", "x").end("T1");
        b.finish()
    }

    fn serializable_trace() -> Trace {
        let mut b = TraceBuilder::new();
        for t in ["T1", "T2"] {
            b.begin(t, "inc")
                .acquire(t, "m")
                .read(t, "x")
                .write(t, "x")
                .release(t, "m")
                .end(t);
        }
        b.finish()
    }

    fn pure_run(trace: &Trace) -> (Vec<Warning>, Vec<CycleReport>) {
        let cfg = VelodromeConfig {
            names: trace.names().clone(),
            ..VelodromeConfig::default()
        };
        let (warnings, engine) = check_trace_with(trace, cfg);
        (warnings, engine.reports().to_vec())
    }

    #[test]
    fn violating_trace_escalates_and_matches_pure_velodrome() {
        let trace = violating_trace();
        let (pure_warnings, pure_reports) = pure_run(&trace);
        let mut h = HybridVelodrome::with_config(HybridConfig {
            engine: VelodromeConfig {
                names: trace.names().clone(),
                ..VelodromeConfig::default()
            },
        });
        let warnings = run_tool(&mut h, &trace);
        assert_eq!(
            serde_json::to_string(&warnings).unwrap(),
            serde_json::to_string(&pure_warnings).unwrap()
        );
        assert_eq!(h.reports(), &pure_reports[..]);
        assert_eq!(h.stats().escalations, 1);
    }

    #[test]
    fn serializable_trace_never_engages_the_engine() {
        let trace = serializable_trace();
        let mut h = HybridVelodrome::new();
        let warnings = run_tool(&mut h, &trace);
        assert!(warnings.is_empty());
        assert!(!h.escalated(), "no graph engine on the fast path");
        assert_eq!(h.stats().escalations, 0);
        assert!(h.reports().is_empty());
    }

    #[test]
    fn configured_budget_disables_screening() {
        use velodrome_monitor::ResourceBudget;
        let trace = serializable_trace();
        let cfg = VelodromeConfig {
            names: trace.names().clone(),
            budget: ResourceBudget {
                max_alive_nodes: 1,
                ..ResourceBudget::UNLIMITED
            },
            ..VelodromeConfig::default()
        };
        let (pure_warnings, _) = check_trace_with(&trace, cfg.clone());
        let mut h = HybridVelodrome::with_config(HybridConfig { engine: cfg });
        let warnings = run_tool(&mut h, &trace);
        assert!(h.escalated(), "budgeted runs engage the engine from op 0");
        assert_eq!(h.stats().escalated_at, Some(0));
        assert_eq!(
            serde_json::to_string(&warnings).unwrap(),
            serde_json::to_string(&pure_warnings).unwrap(),
            "ladder transitions must match a pure budgeted run"
        );
    }
}
