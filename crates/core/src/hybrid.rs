//! Two-tier checking: vector-clock screen online, graph engine on demand.
//!
//! [`HybridVelodrome`] runs the AeroDrome-style vector-clock screen
//! ([`velodrome_vclock::AeroDrome`]) over every event and keeps the full
//! [`Velodrome`] graph engine dormant. Events are buffered as they are
//! screened; the first time the screen raises an escalation flag (a
//! definite own-time violation, or a join that grows the clock of an
//! observed active transaction — see the screen's module docs for why
//! those flags form a sound superset of the engine's detections), the
//! buffered window is replayed through a freshly constructed engine and
//! every subsequent event goes straight to it. The engine therefore sees
//! exactly the event stream (with original indices) an always-on run
//! would have seen, and its warnings, blame assignment, increasing-cycle
//! refutation, and [`CycleReport`]s are **byte-identical** to pure
//! Velodrome's — while serializable traces never pay for a single graph
//! node or edge.
//!
//! # Escalation window semantics
//!
//! With [`HybridConfig::max_window`] `0` (the default) the buffer is
//! unbounded and escalation replays the entire prefix: full fidelity.
//! A bounded window caps memory by evicting the oldest events; if any
//! were evicted by escalation time the replay starts mid-stream, the
//! checker emits a `Degraded` warning naming the number of lost events,
//! and completeness (never soundness — the engine only ever reports real
//! cycles of whatever suffix it sees) may be lost.
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

use crate::engine::{Velodrome, VelodromeConfig, VelodromeStats};
use crate::report::CycleReport;
use std::collections::VecDeque;
use std::fmt;
use velodrome_events::{Op, SymbolTable};
use velodrome_monitor::tool::{replay_ops, Tool, Warning, WarningCategory};
use velodrome_telemetry::{names, Telemetry};
use velodrome_vclock::{AeroDrome, AeroDromeStats};

/// Configuration for the two-tier checker.
#[derive(Debug, Clone, Default)]
pub struct HybridConfig {
    /// Configuration for the graph engine constructed at escalation. A
    /// non-unlimited [`budget`](VelodromeConfig::budget) disables
    /// screening (see the module docs).
    pub engine: VelodromeConfig,
    /// Maximum buffered events for the escalation replay; `0` (default)
    /// buffers the whole prefix and guarantees byte-identical output.
    pub max_window: usize,
    /// Report warnings under the `aerodrome` tool name with details
    /// stripped: the verdict-only linear-time backend. The default
    /// (`false`) reproduces pure Velodrome's warnings verbatim.
    pub verdict_only: bool,
}

/// Counters for one hybrid run.
#[derive(Debug, Clone, Copy, Default)]
pub struct HybridStats {
    /// Operations observed.
    pub ops: u64,
    /// Screen counters (meaningful up to the escalation point).
    pub screen: AeroDromeStats,
    /// Escalations taken (`0` or `1`; the engine stays engaged).
    pub escalations: u64,
    /// Trace index at which the engine was engaged, if it was.
    pub escalated_at: Option<usize>,
    /// Peak events held in the replay buffer.
    pub buffered_peak: u64,
    /// Events evicted from a bounded window before escalation.
    pub truncated: u64,
    /// Engine statistics, present once escalated.
    pub engine: Option<VelodromeStats>,
}

impl HybridStats {
    /// Graph node + edge operations actually performed: zero while the
    /// screen holds, the engaged engine's [`VelodromeStats::graph_ops`]
    /// after escalation.
    pub fn graph_ops(&self) -> u64 {
        self.engine.map(|e| e.graph_ops()).unwrap_or(0)
    }
}

impl fmt::Display for HybridStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ops, screen: {}", self.ops, self.screen)?;
        match self.escalated_at {
            Some(at) => write!(
                f,
                "; escalated at op {at} ({} buffered, {} truncated), engine: {}",
                self.buffered_peak,
                self.truncated,
                self.engine.unwrap_or_default()
            ),
            None => write!(f, "; never escalated"),
        }
    }
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
    buffer: VecDeque<(usize, Op)>,
    /// Warnings owned by the hybrid itself (window truncation).
    own_warnings: Vec<Warning>,
    ops: u64,
    escalations: u64,
    escalated_at: Option<usize>,
    buffered_peak: u64,
    truncated: u64,
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
            buffer: VecDeque::new(),
            own_warnings: Vec::new(),
            ops: 0,
            escalations: 0,
            escalated_at: None,
            buffered_peak: 0,
            truncated: 0,
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
            ops: self.ops,
            screen: self.screen.stats(),
            escalations: self.escalations,
            escalated_at: self.escalated_at,
            buffered_peak: self.buffered_peak,
            truncated: self.truncated,
            engine: self.engine.as_ref().map(|e| e.stats()),
        }
    }

    /// Full cycle reports from the engaged engine (empty while the screen
    /// holds — a never-escalated run found no cycles).
    pub fn reports(&self) -> &[CycleReport] {
        self.engine.as_ref().map(|e| e.reports()).unwrap_or(&[])
    }

    /// Replaces the symbol table warnings are rendered with (see
    /// [`Velodrome::set_names`]): in the live engine once escalated,
    /// otherwise in the config the engine will be built from.
    pub fn set_names(&mut self, names: SymbolTable) {
        match &mut self.engine {
            Some(engine) => engine.set_names(names),
            None => self.cfg.engine.names = names,
        }
    }

    /// Whether the graph engine has been engaged.
    pub fn escalated(&self) -> bool {
        self.engine.is_some()
    }

    /// Constructs the engine and replays the buffered window through it.
    fn engage(&mut self, idx: usize) {
        debug_assert!(self.engine.is_none());
        self.escalations += 1;
        self.escalated_at = Some(idx);
        let mut engine = Velodrome::with_config(self.cfg.engine.clone());
        if self.truncated > 0 {
            self.own_warnings.push(Warning {
                tool: self.name(),
                category: WarningCategory::Degraded,
                label: None,
                thread: self
                    .buffer
                    .front()
                    .map(|&(_, op)| op.tid())
                    .unwrap_or(velodrome_events::ThreadId::new(0)),
                op_index: idx,
                message: format!(
                    "escalation window truncated: {} events preceding op {} \
                     were evicted before the graph engine was engaged; \
                     completeness over the lost prefix is not guaranteed",
                    self.truncated,
                    self.buffer.front().map(|&(i, _)| i).unwrap_or(idx),
                ),
                details: None,
            });
        }
        let buffered: Vec<(usize, Op)> = self.buffer.drain(..).collect();
        replay_ops(&mut engine, &buffered);
        self.engine = Some(engine);
    }

    /// Mirrors the checker's statistics into a telemetry registry under
    /// the stable names in [`velodrome_telemetry::names`]. The engine's
    /// gauges and phases are always published — zeroed while the screen
    /// holds — so metrics contracts written against pure Velodrome keep
    /// verifying against hybrid runs.
    pub fn publish_telemetry_to(&self, t: &Telemetry) {
        if !t.is_enabled() {
            return;
        }
        let s = self.screen.stats();
        t.set_gauge(names::AERODROME_EVENTS, s.events);
        t.set_gauge(names::AERODROME_JOINS, s.joins);
        t.set_gauge(names::AERODROME_LIVE_JOINS, s.live_joins);
        t.set_gauge(names::AERODROME_EPOCH_HITS, s.epoch_hits);
        t.set_gauge(names::AERODROME_VIOLATIONS, s.violations);
        t.set_gauge(names::AERODROME_POTENTIAL_FLAGS, s.potential_flags);
        t.set_gauge(names::HYBRID_ESCALATIONS, self.escalations);
        t.set_gauge(names::HYBRID_BUFFERED_EVENTS, self.buffered_peak);
        t.set_gauge(names::HYBRID_TRUNCATED_EVENTS, self.truncated);
        t.set_gauge(names::HYBRID_GRAPH_OPS, self.stats().graph_ops());
        match &self.engine {
            Some(e) => e.publish_telemetry_to(t),
            None => {
                // Dormant engine: publish its gauges and phases as
                // explicit zeros.
                for name in [
                    names::ARENA_ALLOCATED,
                    names::ARENA_MAX_ALIVE,
                    names::ARENA_CUR_ALIVE,
                    names::ARENA_COLLECTED,
                    names::ARENA_EDGES_ADDED,
                    names::ARENA_EDGES_REPLACED,
                    names::ARENA_EDGES_ELIDED,
                    names::ENGINE_EPOCH_HITS,
                    names::ENGINE_MERGES_REUSED,
                    names::ENGINE_MERGES_BOTTOM,
                    names::ENGINE_CYCLES_DETECTED,
                    names::ENGINE_WARNINGS_SUPPRESSED,
                    names::ENGINE_VARS_QUARANTINED,
                    names::ENGINE_LADDER,
                ] {
                    t.set_gauge(name, 0);
                }
                for name in [
                    names::PHASE_ADVANCE,
                    names::PHASE_ADD_EDGE,
                    names::PHASE_CYCLE_CHECK,
                    names::PHASE_GC,
                ] {
                    t.set_phase(name, 0, 0, 0);
                }
                // The op count is real even while the engine is dormant.
                t.set_gauge(names::ENGINE_OPS, self.ops);
            }
        }
    }
}

impl Tool for HybridVelodrome {
    fn name(&self) -> &'static str {
        if self.cfg.verdict_only {
            "aerodrome"
        } else {
            "velodrome-hybrid"
        }
    }

    fn op(&mut self, index: usize, op: Op) {
        self.ops += 1;
        if let Some(engine) = &mut self.engine {
            engine.op(index, op);
            return;
        }
        if self.cfg.max_window > 0 && self.buffer.len() >= self.cfg.max_window {
            self.buffer.pop_front();
            self.truncated += 1;
        }
        self.buffer.push_back((index, op));
        self.buffered_peak = self.buffered_peak.max(self.buffer.len() as u64);
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
        let engine_warnings = self
            .engine
            .as_mut()
            .map(|e| e.take_warnings())
            .unwrap_or_default();
        let mut all = if self.own_warnings.is_empty() {
            // The common (unbounded-window) path: pure Velodrome's
            // warnings, byte for byte.
            engine_warnings
        } else {
            let mut merged = std::mem::take(&mut self.own_warnings);
            merged.extend(engine_warnings);
            merged.sort_by_key(|w| w.op_index);
            merged
        };
        if self.cfg.verdict_only {
            for w in &mut all {
                w.tool = "aerodrome";
                w.details = None;
            }
        }
        all
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
            ..HybridConfig::default()
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
        let stats = h.stats();
        assert!(!h.escalated());
        assert_eq!(stats.graph_ops(), 0, "no graph work on the fast path");
        assert!(h.reports().is_empty());
    }

    #[test]
    fn verdict_only_relabels_warnings() {
        let trace = violating_trace();
        let mut h = HybridVelodrome::with_config(HybridConfig {
            engine: VelodromeConfig {
                names: trace.names().clone(),
                ..VelodromeConfig::default()
            },
            verdict_only: true,
            ..HybridConfig::default()
        });
        let warnings = run_tool(&mut h, &trace);
        assert_eq!(warnings.len(), 1);
        assert_eq!(warnings[0].tool, "aerodrome");
        assert!(warnings[0].details.is_none());
        assert!(warnings[0].label.is_some(), "blame label preserved");
    }

    #[test]
    fn bounded_window_truncation_is_reported() {
        // Pad the prefix so a 4-op window must evict before the violation.
        let mut b = TraceBuilder::new();
        for _ in 0..8 {
            b.read("T3", "pad");
        }
        b.begin("T1", "inc").read("T1", "x");
        b.write("T2", "x");
        b.write("T1", "x").end("T1");
        let trace = b.finish();
        let mut h = HybridVelodrome::with_config(HybridConfig {
            engine: VelodromeConfig {
                names: trace.names().clone(),
                ..VelodromeConfig::default()
            },
            max_window: 4,
            ..HybridConfig::default()
        });
        let warnings = run_tool(&mut h, &trace);
        assert!(h.stats().truncated > 0);
        assert!(warnings
            .iter()
            .any(|w| w.category == WarningCategory::Degraded
                && w.message.contains("escalation window truncated")));
        // The violation is inside the window, so it is still found.
        assert!(warnings
            .iter()
            .any(|w| w.category == WarningCategory::Atomicity));
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
        let mut h = HybridVelodrome::with_config(HybridConfig {
            engine: cfg,
            ..HybridConfig::default()
        });
        let warnings = run_tool(&mut h, &trace);
        assert!(h.escalated(), "budgeted runs engage the engine from op 0");
        assert_eq!(h.stats().escalated_at, Some(0));
        assert_eq!(
            serde_json::to_string(&warnings).unwrap(),
            serde_json::to_string(&pure_warnings).unwrap(),
            "ladder transitions must match a pure budgeted run"
        );
    }

    #[test]
    fn telemetry_surface_is_published_even_while_dormant() {
        let t = Telemetry::registry();
        let trace = serializable_trace();
        let mut h = HybridVelodrome::new();
        run_tool(&mut h, &trace);
        assert!(!h.escalated());
        h.publish_telemetry_to(&t);
        let snap = t.snapshot(0, h.stats().ops).unwrap();
        let get = |n: &str| match snap.metrics.get(n) {
            Some(velodrome_telemetry::MetricValue::Gauge(v)) => *v,
            other => panic!("gauge {n} missing or wrong type: {other:?}"),
        };
        assert_eq!(get(names::HYBRID_ESCALATIONS), 0);
        assert_eq!(get(names::ARENA_ALLOCATED), 0);
        assert_eq!(get(names::ENGINE_OPS), h.stats().ops);
        assert!(get(names::AERODROME_JOINS) > 0);
        assert_eq!(
            snap.metrics.get(names::PHASE_ADVANCE),
            Some(&velodrome_telemetry::MetricValue::Phase {
                count: 0,
                total_nanos: 0,
                max_nanos: 0
            })
        );
    }
}
