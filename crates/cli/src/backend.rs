//! The backend table: the one place an analysis backend is defined.
//!
//! Every name `--backend=` accepts, every tool `compare` times, every
//! timed column of the paper's Table 1, and every backend the benches and
//! tests iterate is one entry of [`BACKENDS`]. An entry pairs a stable name
//! with a `run` function and the capability flags callers branch on. `run`
//! builds the concrete tool from the shared [`RunConfig`] and drives it
//! over the trace with static dispatch, so the per-event loop never goes
//! through a trait object.

use crate::{err, io_err, CliError, USAGE};
use velodrome::{HybridConfig, HybridVelodrome, Velodrome, VelodromeConfig};
use velodrome_atomizer::Atomizer;
use velodrome_events::Trace;
use velodrome_lockset::{Eraser, StrictTwoPhase};
use velodrome_monitor::{
    run_tool, AtomicitySpec, DegradationLevel, EmptyTool, ResourceBudget, SpecFilter, Tool, Warning,
};
use velodrome_sim::WatchdogStats;
use velodrome_telemetry::{JsonlExporter, SnapshotRing, Telemetry};
use velodrome_vclock::{FastTrack, HbRaceDetector};

/// Warnings plus analysis-health notes (metrics output, budget
/// suppression, degradation, screen escalation) that the text renderer
/// appends after the warning list.
#[derive(Debug)]
pub struct Analysis {
    /// The backend's warnings.
    pub warnings: Vec<Warning>,
    /// Analysis-health notes, in print order.
    pub notes: Vec<String>,
}

/// The one config every backend is built from. A backend ignores the
/// fields it has no use for (a race detector has no merge rule); symbol
/// names always come from the trace being checked.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Apply the merge optimization (`--no-merge` clears it).
    pub merge: bool,
    /// Collect dead transaction nodes (`--no-gc` clears it).
    pub gc: bool,
    /// Resource budget driving the engine's degradation ladder.
    pub budget: ResourceBudget,
    /// Escalation-replay window of the two-tier checkers (0 = unbounded).
    pub window: usize,
    /// Registry the engine records into and publishes its final gauges to.
    pub telemetry: Telemetry,
    /// Export JSON Lines snapshots of `telemetry` to this file during the
    /// run. Only meterable backends honor it.
    pub metrics_out: Option<String>,
    /// Events between two `metrics_out` snapshots (> 0).
    pub metrics_interval: u64,
    /// Scheduler watchdog gauges published with every snapshot.
    pub watchdog: WatchdogStats,
    /// Check only the atomic blocks this spec selects (the Table 1
    /// configuration); `None` checks every block.
    pub spec: Option<AtomicitySpec>,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            merge: true,
            gc: true,
            budget: ResourceBudget::UNLIMITED,
            window: 0,
            telemetry: Telemetry::disabled(),
            metrics_out: None,
            metrics_interval: 10_000,
            watchdog: WatchdogStats::default(),
            spec: None,
        }
    }
}

/// How an entry runs: build the tool from the config, check the trace.
pub type RunFn = fn(&Trace, &RunConfig) -> Result<Analysis, CliError>;

/// One analysis backend.
pub struct Backend {
    /// Stable name, as `--backend=` accepts it.
    pub name: &'static str,
    /// Builds the tool from the shared config and runs it over a trace.
    pub run: RunFn,
    /// Accepts `--metrics-out`: the tool publishes the engine's gauges.
    pub meterable: bool,
    /// Column in the paper's Table 1 timing (0 = Empty, the baseline).
    pub table1: Option<usize>,
    /// One of the tools `compare` times, in table order.
    pub compare: bool,
}

impl Backend {
    const fn new(name: &'static str, run: RunFn) -> Self {
        Self {
            name,
            run,
            meterable: false,
            table1: None,
            compare: false,
        }
    }

    const fn metered(mut self) -> Self {
        self.meterable = true;
        self
    }

    const fn in_table1(mut self, column: usize) -> Self {
        self.table1 = Some(column);
        self
    }

    const fn compared(mut self) -> Self {
        self.compare = true;
        self
    }
}

/// Every backend, in the order `compare` prints its rows.
pub static BACKENDS: &[Backend] = &[
    Backend::new("velodrome", |t, c| velodrome(t, c, c.merge))
        .metered()
        .in_table1(3)
        .compared(),
    Backend::new("velodrome-nomerge", |t, c| velodrome(t, c, false)).metered(),
    Backend::new("velodrome-hybrid", |t, c| hybrid(t, c, false)).metered(),
    Backend::new("aerodrome", |t, c| hybrid(t, c, true)).metered(),
    Backend::new("atomizer", |t, c| plain(t, c, Atomizer::new()))
        .in_table1(2)
        .compared(),
    Backend::new("s2pl", |t, c| plain(t, c, StrictTwoPhase::new())).compared(),
    Backend::new("eraser", |t, c| plain(t, c, Eraser::new()))
        .in_table1(1)
        .compared(),
    Backend::new("hb-race", |t, c| plain(t, c, HbRaceDetector::new())).compared(),
    Backend::new("fasttrack", |t, c| plain(t, c, FastTrack::new())).compared(),
    Backend::new("empty", |t, c| plain(t, c, EmptyTool::new())).in_table1(0),
    Backend::new("all", all).metered(),
];

/// The entry named `name`.
pub fn lookup(name: &str) -> Option<&'static Backend> {
    BACKENDS.iter().find(|b| b.name == name)
}

/// Resolves a `--backend=` value. A run that writes `--metrics-out` needs
/// a meterable backend; that check comes first, so it also answers for
/// unknown names.
pub(crate) fn resolve(name: &str, metered: bool) -> Result<&'static Backend, CliError> {
    let backend = lookup(name);
    if metered && !backend.is_some_and(|b| b.meterable) {
        return Err(err(format!(
            "--metrics-out requires a velodrome or hybrid backend, not `{name}`"
        )));
    }
    backend.ok_or_else(|| err(format!("unknown backend `{name}`\n{USAGE}")))
}

/// Feeds the whole trace to `tool`. With a metrics file configured, the
/// tool's statistics are mirrored into the registry and exported every
/// `metrics_interval` events plus once at the end, so at least one line is
/// always written; the last few snapshots are also kept in a
/// [`SnapshotRing`], as a long-running monitor would. Without one, the
/// final statistics are published once.
fn feed<T: Tool>(
    tool: &mut T,
    trace: &Trace,
    cfg: &RunConfig,
    publish: impl Fn(&T, &Telemetry),
    notes: &mut Vec<String>,
) -> Result<Vec<Warning>, CliError> {
    let telemetry = &cfg.telemetry;
    let Some(path) = cfg.metrics_out.as_deref() else {
        let warnings = run_tool(tool, trace);
        publish(tool, telemetry);
        return Ok(warnings);
    };
    let file = std::fs::File::create(path).map_err(|e| io_err(format!("creating {path}: {e}")))?;
    let mut exporter = JsonlExporter::new(std::io::BufWriter::new(file));
    let mut ring = SnapshotRing::new(64);
    let mut seq = 0u64;
    let mut emit = |tool: &T, events: u64| -> Result<(), CliError> {
        publish(tool, telemetry);
        cfg.watchdog.publish(telemetry);
        if let Some(snap) = telemetry.snapshot(seq, events) {
            exporter
                .export(&snap)
                .map_err(|e| io_err(format!("writing {path}: {e}")))?;
            ring.push(snap);
            seq += 1;
        }
        Ok(())
    };
    for (i, op) in trace.iter() {
        tool.op(i, op);
        let events = i as u64 + 1;
        if events % cfg.metrics_interval == 0 {
            emit(tool, events)?;
        }
    }
    tool.end_of_trace();
    emit(tool, trace.len() as u64)?;
    notes.push(format!(
        "{} metric snapshots written to {path}",
        exporter.lines_written()
    ));
    Ok(tool.take_warnings())
}

/// Runs `tool` over the trace, behind a [`SpecFilter`] when the config
/// carries a spec, and hands it back for its statistics.
fn drive<T: Tool>(
    trace: &Trace,
    cfg: &RunConfig,
    mut tool: T,
    publish: fn(&T, &Telemetry),
) -> Result<(T, Analysis), CliError> {
    let mut notes = Vec::new();
    let warnings = match cfg.spec.clone() {
        None => feed(&mut tool, trace, cfg, publish, &mut notes)?,
        Some(spec) => {
            let mut filtered = SpecFilter::new(spec, tool);
            let publish_inner = |f: &SpecFilter<T>, t: &Telemetry| publish(f.inner(), t);
            let warnings = feed(&mut filtered, trace, cfg, publish_inner, &mut notes)?;
            tool = filtered.into_inner();
            warnings
        }
    };
    Ok((tool, Analysis { warnings, notes }))
}

fn engine_config(trace: &Trace, cfg: &RunConfig, merge: bool) -> VelodromeConfig {
    VelodromeConfig {
        names: trace.names().clone(),
        merge,
        gc: cfg.gc,
        budget: cfg.budget,
        telemetry: cfg.telemetry.clone(),
        ..VelodromeConfig::default()
    }
}

/// The paper's graph engine, noting budget suppression and degradation.
fn velodrome(trace: &Trace, cfg: &RunConfig, merge: bool) -> Result<Analysis, CliError> {
    let engine = Velodrome::with_config(engine_config(trace, cfg, merge));
    let (engine, mut analysis) = drive(trace, cfg, engine, Velodrome::publish_telemetry_to)?;
    let stats = engine.stats();
    if stats.warnings_suppressed > 0 {
        analysis.notes.push(format!(
            "{} warnings suppressed (budget)",
            stats.warnings_suppressed
        ));
    }
    if stats.ladder != DegradationLevel::Full {
        analysis.notes.push(format!(
            "analysis degraded to {} ({} transitions, {} vars quarantined) — \
             warnings after the degradation point may be incomplete",
            stats.ladder, stats.degradations, stats.vars_quarantined
        ));
    }
    Ok(analysis)
}

/// The two-tier checker: vector-clock screen online, graph engine replayed
/// on escalation. `verdict_only` is the `aerodrome` trim.
fn hybrid(trace: &Trace, cfg: &RunConfig, verdict_only: bool) -> Result<Analysis, CliError> {
    let checker = HybridVelodrome::with_config(HybridConfig {
        engine: engine_config(trace, cfg, cfg.merge),
        max_window: cfg.window,
        verdict_only,
    });
    let (checker, mut analysis) =
        drive(trace, cfg, checker, HybridVelodrome::publish_telemetry_to)?;
    let stats = checker.stats();
    analysis.notes.push(match stats.escalated_at {
        Some(at) => format!(
            "vector-clock screen escalated to the graph engine at event {at} \
             ({} buffered events replayed, {} graph operations)",
            stats.buffered_peak,
            stats.graph_ops()
        ),
        None => format!(
            "vector-clock screen held for all {} events: 0 graph operations, \
             {} epoch fast-path hits",
            stats.ops, stats.screen.epoch_hits
        ),
    });
    if stats.truncated > 0 {
        analysis.notes.push(format!(
            "{} events were evicted from the bounded escalation window \
             (--window={}); warnings may be incomplete",
            stats.truncated, cfg.window
        ));
    }
    Ok(analysis)
}

/// A comparison tool: nothing to configure, publish or note.
fn plain<T: Tool>(trace: &Trace, cfg: &RunConfig, tool: T) -> Result<Analysis, CliError> {
    Ok(drive(trace, cfg, tool, |_, _| {})?.1)
}

/// The graph engine plus the Atomizer and the two race detectors, warnings
/// interleaved by event index. Only the engine is metered.
fn all(trace: &Trace, cfg: &RunConfig) -> Result<Analysis, CliError> {
    let mut result = velodrome(trace, cfg, cfg.merge)?;
    let cfg = RunConfig {
        metrics_out: None,
        ..cfg.clone()
    };
    for extra in [
        plain(trace, &cfg, Atomizer::new())?,
        plain(trace, &cfg, Eraser::new())?,
        plain(trace, &cfg, HbRaceDetector::new())?,
    ] {
        result.warnings.extend(extra.warnings);
    }
    result.warnings.sort_by_key(|w| w.op_index);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use velodrome_events::TraceBuilder;
    use velodrome_telemetry::names;

    fn rmw_trace() -> Trace {
        let mut b = TraceBuilder::new();
        b.begin("T1", "inc").read("T1", "x");
        b.write("T2", "x");
        b.write("T1", "x").end("T1");
        b.finish()
    }

    fn run(name: &str, trace: &Trace, cfg: &RunConfig) -> Analysis {
        (lookup(name).expect("backend in table").run)(trace, cfg).expect("backend runs")
    }

    #[test]
    fn all_backends_run() {
        let trace = rmw_trace();
        for backend in BACKENDS {
            (backend.run)(&trace, &RunConfig::default())
                .unwrap_or_else(|e| panic!("{}: {e}", backend.name));
        }
    }

    #[test]
    fn backend_names_are_unique_and_round_trip() {
        let mut seen = HashSet::new();
        for backend in BACKENDS {
            assert!(seen.insert(backend.name), "duplicate {}", backend.name);
            assert!(std::ptr::eq(lookup(backend.name).unwrap(), backend));
            assert!(USAGE.contains(backend.name), "{}", backend.name);
        }
        assert!(lookup("no-such-backend").is_none());
        let mut columns: Vec<_> = BACKENDS.iter().filter_map(|b| b.table1).collect();
        columns.sort_unstable();
        assert_eq!(columns, [0, 1, 2, 3], "one entry per Table 1 column");
        assert_eq!(lookup("empty").unwrap().table1, Some(0));
    }

    #[test]
    fn velodrome_variants_agree_and_expose_stats() {
        let trace = rmw_trace();
        let allocated = |name: &str| {
            let cfg = RunConfig {
                telemetry: Telemetry::registry(),
                ..RunConfig::default()
            };
            assert_eq!(run(name, &trace, &cfg).warnings.len(), 1, "{name}");
            let snap = cfg.telemetry.snapshot(0, trace.len() as u64).unwrap();
            snap.scalar(names::ARENA_ALLOCATED).unwrap()
        };
        assert!(allocated("velodrome-nomerge") >= allocated("velodrome"));
    }

    #[test]
    fn hybrid_matches_velodrome_byte_for_byte() {
        let trace = rmw_trace();
        let cfg = RunConfig::default();
        let pure = run("velodrome", &trace, &cfg);
        let hybrid = run("velodrome-hybrid", &trace, &cfg);
        assert_eq!(
            serde_json::to_string(&hybrid.warnings).unwrap(),
            serde_json::to_string(&pure.warnings).unwrap()
        );
        assert!(hybrid.notes[0].contains("escalated to the graph engine"));
        let aero = run("aerodrome", &trace, &cfg);
        assert_eq!(aero.warnings.len(), pure.warnings.len());
        assert!(aero.warnings.iter().all(|w| w.tool == "aerodrome"));
    }

    #[test]
    fn spec_exclusion_silences_the_block() {
        let trace = rmw_trace();
        let cfg = RunConfig {
            spec: Some(AtomicitySpec::excluding([velodrome_events::Label::new(0)])),
            ..RunConfig::default()
        };
        assert!(run("velodrome", &trace, &cfg).warnings.is_empty());
    }
}
