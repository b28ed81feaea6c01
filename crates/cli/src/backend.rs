//! The backend table: the one place an analysis backend is defined.
//!
//! Every name `--backend=` accepts, every tool `compare` times, every
//! timed column of the paper's Table 1, and every backend the benches and
//! tests iterate is one entry of [`BACKENDS`]. An entry pairs a stable name
//! with a `run` function and the capability flags callers branch on. `run`
//! builds the concrete tool from the shared [`RunConfig`] and drives it
//! over an [`Events`] source with static dispatch, so the per-event loop
//! never goes through a trait object. The source is an in-memory trace or
//! a trace file; a file is decoded one block at a time, and each block is
//! analyzed before the next is read.

use crate::{err, io_err, CliError, USAGE};
use std::time::{Duration, Instant};
use velodrome::{Velodrome, VelodromeConfig};
use velodrome_atomizer::Atomizer;
use velodrome_events::{Op, SymbolTable, Trace};
use velodrome_lockset::{Eraser, StrictTwoPhase};
use velodrome_monitor::{
    AtomicitySpec, DegradationLevel, EmptyTool, ResourceBudget, SpecFilter, Tool, Warning,
};
use velodrome_sim::WatchdogStats;
use velodrome_telemetry::{names, JsonlExporter, PhaseStat, Telemetry};
use velodrome_vclock::{FastTrack, HbRaceDetector};

/// Warnings plus analysis-health notes (metrics output, budget
/// suppression, degradation) that the text renderer appends after the
/// warning list.
#[derive(Debug)]
pub struct Analysis {
    /// The backend's warnings.
    pub warnings: Vec<Warning>,
    /// Analysis-health notes, in print order.
    pub notes: Vec<String>,
    /// Events analyzed.
    pub events: usize,
    /// Time spent reading and decoding a trace file between the blocks
    /// the tool analyzed (zero for an in-memory trace); published as
    /// `phase.decode`.
    pub decode: Duration,
}

/// Where a backend's events come from.
#[derive(Debug, Clone, Copy)]
pub enum Events<'a> {
    /// A trace already in memory.
    Trace(&'a Trace),
    /// A trace file in either format, decoded in blocks of at most
    /// [`velodrome_events::FRAME_OPS`] operations. Each block is analyzed
    /// before the next is read, so no [`Trace`] is built.
    File(&'a str),
}

impl<'a> From<&'a Trace> for Events<'a> {
    fn from(trace: &'a Trace) -> Self {
        Self::Trace(trace)
    }
}

/// What [`Events::stream`] knows once the last block is consumed.
struct Streamed {
    /// The symbol table. A JSON file may carry it after its last op.
    names: SymbolTable,
    events: usize,
    /// `phase.decode`: one call per block, every call timed; the times sum
    /// to [`Analysis::decode`].
    decode: PhaseStat,
}

impl Events<'_> {
    /// Hands the operations to `on_block(first_index, ops, decode)` in
    /// order, with the decode time so far. A malformed file fails here,
    /// possibly after some blocks were consumed; the caller then discards
    /// what it built from them.
    fn stream(
        self,
        mut on_block: impl FnMut(usize, &[Op], &PhaseStat),
    ) -> Result<Streamed, CliError> {
        let mut decode = PhaseStat::default();
        match self {
            Self::Trace(trace) => {
                on_block(0, trace.ops(), &decode);
                Ok(Streamed {
                    names: trace.names().clone(),
                    events: trace.len(),
                    decode,
                })
            }
            Self::File(path) => {
                // Decoding is the time outside `on_block`: from the start
                // (or the end of the last block's analysis) to each block,
                // and after the last block to the end of the file.
                let mut decoding = Instant::now();
                let summary = crate::stream_trace_file(path, |first, ops| {
                    decode.count += 1;
                    decode.end(Some(decoding));
                    on_block(first, ops, &decode);
                    decoding = Instant::now();
                })?;
                let tail = u64::try_from(decoding.elapsed().as_nanos()).unwrap_or(u64::MAX);
                decode.timed_nanos = decode.timed_nanos.saturating_add(tail);
                Ok(Streamed {
                    names: summary.names,
                    events: summary.ops,
                    decode,
                })
            }
        }
    }
}

/// The one config every backend is built from. A backend ignores the
/// fields it has no use for (a race detector has no merge rule); symbol
/// names always come from the events being checked.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Apply the merge optimization (`--no-merge` clears it).
    pub merge: bool,
    /// Collect dead transaction nodes (`--no-gc` clears it).
    pub gc: bool,
    /// Resource budget driving the engine's degradation ladder.
    pub budget: ResourceBudget,
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
            telemetry: Telemetry::disabled(),
            metrics_out: None,
            metrics_interval: 10_000,
            watchdog: WatchdogStats::default(),
            spec: None,
        }
    }
}

/// How an entry runs: build the tool from the config, check the events.
pub type RunFn = fn(Events<'_>, &RunConfig) -> Result<Analysis, CliError>;

/// One analysis backend.
pub struct Backend {
    /// Stable name, as `--backend=` accepts it.
    pub name: &'static str,
    /// Builds the tool from the shared config and runs it over the events.
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
    Backend::new("velodrome", |e, c| velodrome(e, c, c.merge))
        .metered()
        .in_table1(3)
        .compared(),
    Backend::new("velodrome-nomerge", |e, c| velodrome(e, c, false)).metered(),
    Backend::new("atomizer", |e, c| plain(e, c, Atomizer::new()))
        .in_table1(2)
        .compared(),
    Backend::new("s2pl", |e, c| plain(e, c, StrictTwoPhase::new())).compared(),
    Backend::new("eraser", |e, c| plain(e, c, Eraser::new()))
        .in_table1(1)
        .compared(),
    Backend::new("hb-race", |e, c| plain(e, c, HbRaceDetector::new())).compared(),
    Backend::new("fasttrack", |e, c| plain(e, c, FastTrack::new())).compared(),
    Backend::new("empty", |e, c| plain(e, c, EmptyTool::new())).in_table1(0),
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
        let meterable: Vec<&str> = BACKENDS
            .iter()
            .filter(|b| b.meterable)
            .map(|b| b.name)
            .collect();
        return Err(err(format!(
            "--metrics-out requires one of the backends {}, not `{name}`",
            meterable.join(", ")
        )));
    }
    backend.ok_or_else(|| err(format!("unknown backend `{name}`\n{USAGE}")))
}

/// A run's `--metrics-out` file.
struct MetricsFile<'a> {
    path: &'a str,
    exporter: JsonlExporter<std::io::BufWriter<std::fs::File>>,
    seq: u64,
}

impl<'a> MetricsFile<'a> {
    fn create(path: &'a str) -> Result<Self, CliError> {
        let file =
            std::fs::File::create(path).map_err(|e| io_err(format!("creating {path}: {e}")))?;
        Ok(Self {
            path,
            exporter: JsonlExporter::new(std::io::BufWriter::new(file)),
            seq: 0,
        })
    }

    /// Mirrors the tool's statistics and the decode time into the
    /// registry and exports one snapshot.
    fn emit<T>(
        &mut self,
        tool: &T,
        publish: &impl Fn(&T, &Telemetry),
        decode: &PhaseStat,
        cfg: &RunConfig,
        events: u64,
    ) -> Result<(), CliError> {
        let telemetry = &cfg.telemetry;
        publish(tool, telemetry);
        decode.publish(telemetry, names::PHASE_DECODE);
        cfg.watchdog.publish(telemetry);
        if let Some(snap) = telemetry.snapshot(self.seq, events) {
            self.exporter
                .export(&snap)
                .map_err(|e| io_err(format!("writing {}: {e}", self.path)))?;
            self.seq += 1;
        }
        Ok(())
    }
}

/// Feeds every event to `tool` and ends the trace. With a metrics file
/// configured, the tool's statistics and `phase.decode` are mirrored into
/// the registry and exported every `metrics_interval` events plus once at
/// the end, so at least one line is always written. Without one, the final
/// statistics are published once.
///
/// A file found malformed partway fails the run as if it had been read
/// whole before any analysis: the decode error wins over a metrics error,
/// and the metrics file is removed.
fn feed<T: Tool>(
    tool: &mut T,
    events: Events<'_>,
    cfg: &RunConfig,
    publish: impl Fn(&T, &Telemetry),
    notes: &mut Vec<String>,
) -> Result<Streamed, CliError> {
    let Some(path) = cfg.metrics_out.as_deref() else {
        let streamed = events.stream(|first, ops, _| {
            for (i, &op) in (first..).zip(ops) {
                tool.op(i, op);
            }
        })?;
        tool.end_of_trace();
        publish(tool, &cfg.telemetry);
        streamed.decode.publish(&cfg.telemetry, names::PHASE_DECODE);
        return Ok(streamed);
    };
    let mut metrics = MetricsFile::create(path);
    let created = metrics.is_ok();
    // After a metrics failure the remaining events are only decoded.
    let streamed = events.stream(|first, ops, decode| {
        let Ok(file) = &mut metrics else { return };
        for (i, &op) in (first..).zip(ops) {
            tool.op(i, op);
            let events = i as u64 + 1;
            if events % cfg.metrics_interval == 0 {
                if let Err(e) = file.emit(tool, &publish, decode, cfg, events) {
                    metrics = Err(e);
                    return;
                }
            }
        }
    });
    let streamed = match streamed {
        Ok(streamed) => streamed,
        Err(e) => {
            drop(metrics);
            if created {
                let _ = std::fs::remove_file(path);
            }
            return Err(e);
        }
    };
    let mut file = metrics?;
    tool.end_of_trace();
    file.emit(
        tool,
        &publish,
        &streamed.decode,
        cfg,
        streamed.events as u64,
    )?;
    notes.push(format!(
        "{} metric snapshots written to {path}",
        file.exporter.lines_written()
    ));
    Ok(streamed)
}

/// Runs `tool` over the events, behind a [`SpecFilter`] when the config
/// carries a spec, gives it the events' names and hands it back for its
/// statistics.
fn drive<T: Tool>(
    events: Events<'_>,
    cfg: &RunConfig,
    mut tool: T,
    publish: fn(&T, &Telemetry),
    set_names: fn(&mut T, SymbolTable),
) -> Result<(T, Analysis), CliError> {
    let mut notes = Vec::new();
    let streamed = match cfg.spec.clone() {
        None => feed(&mut tool, events, cfg, publish, &mut notes)?,
        Some(spec) => {
            let mut filtered = SpecFilter::new(spec, tool);
            let publish_inner = |f: &SpecFilter<T>, t: &Telemetry| publish(f.inner(), t);
            let streamed = feed(&mut filtered, events, cfg, publish_inner, &mut notes)?;
            tool = filtered.into_inner();
            streamed
        }
    };
    set_names(&mut tool, streamed.names);
    let analysis = Analysis {
        warnings: tool.take_warnings(),
        notes,
        events: streamed.events,
        decode: Duration::from_nanos(streamed.decode.timed_nanos),
    };
    Ok((tool, analysis))
}

fn engine_config(cfg: &RunConfig, merge: bool) -> VelodromeConfig {
    VelodromeConfig {
        merge,
        gc: cfg.gc,
        budget: cfg.budget,
        telemetry: cfg.telemetry.clone(),
        ..VelodromeConfig::default()
    }
}

/// The paper's graph engine, noting budget suppression and degradation.
fn velodrome(events: Events<'_>, cfg: &RunConfig, merge: bool) -> Result<Analysis, CliError> {
    let engine = Velodrome::with_config(engine_config(cfg, merge));
    let (engine, mut analysis) = drive(
        events,
        cfg,
        engine,
        Velodrome::publish_telemetry_to,
        Velodrome::set_names,
    )?;
    engine_notes(&engine, &mut analysis.notes);
    Ok(analysis)
}

fn engine_notes(engine: &Velodrome, notes: &mut Vec<String>) {
    let stats = engine.stats();
    if stats.warnings_suppressed > 0 {
        notes.push(format!(
            "{} warnings suppressed (budget)",
            stats.warnings_suppressed
        ));
    }
    if stats.ladder != DegradationLevel::Full {
        notes.push(format!(
            "analysis degraded to {} ({} transitions, {} vars quarantined) — \
             warnings after the degradation point may be incomplete",
            stats.ladder, stats.degradations, stats.vars_quarantined
        ));
    }
}

/// A comparison tool: nothing to configure, publish or name.
fn plain<T: Tool>(events: Events<'_>, cfg: &RunConfig, tool: T) -> Result<Analysis, CliError> {
    Ok(drive(events, cfg, tool, |_, _| {}, |_, _| {})?.1)
}

/// The tools of `all`, fed in one pass.
struct All {
    engine: Velodrome,
    atomizer: Atomizer,
    eraser: Eraser,
    hb_race: HbRaceDetector,
}

impl Tool for All {
    fn name(&self) -> &'static str {
        "all"
    }

    fn op(&mut self, index: usize, op: Op) {
        self.engine.op(index, op);
        self.atomizer.op(index, op);
        self.eraser.op(index, op);
        self.hb_race.op(index, op);
    }

    fn end_of_trace(&mut self) {
        self.engine.end_of_trace();
        self.atomizer.end_of_trace();
        self.eraser.end_of_trace();
        self.hb_race.end_of_trace();
    }

    /// Each tool's warnings in turn, stably sorted by event index.
    fn take_warnings(&mut self) -> Vec<Warning> {
        let mut warnings = self.engine.take_warnings();
        warnings.extend(self.atomizer.take_warnings());
        warnings.extend(self.eraser.take_warnings());
        warnings.extend(self.hb_race.take_warnings());
        warnings.sort_by_key(|w| w.op_index);
        warnings
    }
}

/// The graph engine plus the Atomizer and the two race detectors, warnings
/// interleaved by event index. Only the engine is metered.
fn all(events: Events<'_>, cfg: &RunConfig) -> Result<Analysis, CliError> {
    let tools = All {
        engine: Velodrome::with_config(engine_config(cfg, cfg.merge)),
        atomizer: Atomizer::new(),
        eraser: Eraser::new(),
        hb_race: HbRaceDetector::new(),
    };
    let (tools, mut analysis) = drive(
        events,
        cfg,
        tools,
        |a, t| a.engine.publish_telemetry_to(t),
        |a, names| a.engine.set_names(names),
    )?;
    engine_notes(&tools.engine, &mut analysis.notes);
    Ok(analysis)
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
        (lookup(name).expect("backend in table").run)(trace.into(), cfg).expect("backend runs")
    }

    #[test]
    fn all_backends_run() {
        let trace = rmw_trace();
        for backend in BACKENDS {
            (backend.run)((&trace).into(), &RunConfig::default())
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
    fn spec_exclusion_silences_the_block() {
        let trace = rmw_trace();
        let cfg = RunConfig {
            spec: Some(AtomicitySpec::excluding([velodrome_events::Label::new(0)])),
            ..RunConfig::default()
        };
        assert!(run("velodrome", &trace, &cfg).warnings.is_empty());
    }
}
