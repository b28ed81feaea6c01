//! The parallel batch runner behind `velodrome check-batch`.
//!
//! The unit of scaling for a fleet-checking service is the *set of traces*,
//! not the single trace: per-trace analysis is already linear, so aggregate
//! throughput comes from fanning a work queue of trace files over a fixed
//! worker pool. Each worker streams one trace file at a time (JSON or VBT,
//! sniffed by magic) into its backend, block by block, under the
//! monitor's panic-isolation shim
//! ([`velodrome_monitor::isolate`]), so one poisoned trace degrades only
//! its own verdict — the batch always completes and always reports.
//!
//! Guarantees:
//!
//! * **Byte-identical verdicts.** Every trace is analyzed by exactly the
//!   code path `velodrome trace <FILE>` uses, under the same analysis
//!   flags (`--no-merge`, `--no-gc`, `--max-alive`, `--max-vars`), with a
//!   worker-private telemetry registry, so per-trace warnings and notes
//!   are byte-identical to a serial single-trace run of the same backend.
//! * **Deterministic report order.** Workers claim work from an atomic
//!   queue, but hand each result to the sink in input order: a result
//!   that finishes before an earlier trace waits in a commit window, which
//!   is drained as soon as the gap closes.
//! * **Memory that follows the pool, not the batch.** A trace's report
//!   line goes out as soon as it and every earlier trace are done, and its
//!   metrics merge into the batch totals when it finishes. The runner
//!   holds `jobs` traces' analysis state plus the lines waiting in the
//!   window; the worst case is one slow early trace, behind which every
//!   later line waits.
//! * **Isolation.** A panicking analysis quarantines that trace (status
//!   `quarantined`, the panic message preserved); unreadable or malformed
//!   files fail that trace (status `error`); neither aborts the batch.

use crate::backend::{self, Backend, Events, RunConfig};
use crate::{err, io_err, remove_partial, write_err, CliError, Options, USAGE};
use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use velodrome_events::{json_string_len, push_json_string};
use velodrome_monitor::Warning;
use velodrome_sim::WatchdogStats;
use velodrome_telemetry::{names, JsonlExporter, MetricValue, Snapshot, Telemetry};

/// What to run: the trace files, the pool size, and the backend.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Trace files to check, in report order.
    pub paths: Vec<PathBuf>,
    /// Worker-pool size (`--jobs`), at least 1.
    pub jobs: usize,
    /// Backend name, as `--backend` accepts. [`run_batch`] resolves it once,
    /// before any worker starts; an unknown name is a usage error.
    pub backend: String,
    /// Collect per-trace telemetry and merge it into one batch snapshot.
    /// Requires a velodrome-family backend (the same restriction
    /// `--metrics-out` imposes on single-trace runs).
    pub collect_metrics: bool,
}

/// How one trace fared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceStatus {
    /// Loaded and analyzed; verdicts are in `warnings`.
    Ok,
    /// Could not be loaded (I/O or malformed input).
    Error,
    /// The analysis panicked; the panic message is preserved.
    Quarantined,
}

impl TraceStatus {
    fn as_str(self) -> &'static str {
        match self {
            Self::Ok => "ok",
            Self::Error => "error",
            Self::Quarantined => "quarantined",
        }
    }
}

/// Per-trace result, in input order.
#[derive(Debug)]
pub struct TraceOutcome {
    /// The trace file.
    pub path: String,
    /// How the trace fared.
    pub status: TraceStatus,
    /// Operations in the trace (0 unless [`TraceStatus::Ok`]).
    pub events: usize,
    /// Wall milliseconds spent loading + analyzing this trace.
    pub millis: u64,
    /// The part of `millis` spent reading and decoding the file: the sum,
    /// over its blocks, of the time to decode each.
    pub decode_ms: u64,
    /// The part of `millis` spent in the backend's analysis: the sum, over
    /// the blocks, of the time to analyze each, plus the end of the trace.
    pub analyze_ms: u64,
    /// The backend's warnings, byte-identical to a serial run.
    pub warnings: Vec<Warning>,
    /// Analysis-health notes (degradation, escalation, …).
    pub notes: Vec<String>,
    /// The load error or panic message, for non-`Ok` statuses.
    pub message: Option<String>,
}

impl TraceOutcome {
    /// Renders this trace's line of the JSONL report, newline included.
    pub(crate) fn to_json_line(&self) -> String {
        line_of(|out| self.write_json(out))
    }

    /// The line's JSON object: `path` and `status`, then the counts,
    /// timings, verdict, warnings and notes of an `ok` trace, or the
    /// `error` message of any other.
    fn write_json(&self, out: &mut dyn JsonOut) {
        out.raw(r#"{"path":"#);
        out.string(&self.path);
        out.raw(r#","status":"#);
        out.string(self.status.as_str());
        match self.status {
            TraceStatus::Ok => {
                for (key, value) in [
                    (r#","events":"#, self.events as u64),
                    (r#","millis":"#, self.millis),
                    (r#","decode_ms":"#, self.decode_ms),
                    (r#","analyze_ms":"#, self.analyze_ms),
                ] {
                    out.raw(key);
                    out.num(value);
                }
                out.raw(r#","serializable":"#);
                out.raw(if self.warnings.is_empty() {
                    "true"
                } else {
                    "false"
                });
                out.raw(r#","warnings":["#);
                for (i, warning) in self.warnings.iter().enumerate() {
                    if i > 0 {
                        out.raw(",");
                    }
                    write_warning(out, warning);
                }
                out.raw(r#"],"notes":["#);
                for (i, note) in self.notes.iter().enumerate() {
                    if i > 0 {
                        out.raw(",");
                    }
                    out.string(note);
                }
                out.raw("]");
            }
            TraceStatus::Error | TraceStatus::Quarantined => {
                out.raw(r#","error":"#);
                out.string(self.message.as_deref().unwrap_or_default());
            }
        }
        out.raw("}");
    }
}

/// One warning as its serde encoding gives it: the fields in declaration
/// order, a missing label or details as `null`.
fn write_warning(out: &mut dyn JsonOut, w: &Warning) {
    out.raw(r#"{"tool":"#);
    out.string(w.tool);
    out.raw(r#","category":"#);
    out.string(w.category.as_str());
    out.raw(r#","label":"#);
    match w.label {
        Some(label) => out.num(label.raw().into()),
        None => out.raw("null"),
    }
    out.raw(r#","thread":"#);
    out.num(w.thread.raw().into());
    out.raw(r#","op_index":"#);
    out.num(w.op_index as u64);
    out.raw(r#","message":"#);
    out.string(&w.message);
    out.raw(r#","details":"#);
    match &w.details {
        Some(details) => out.string(details),
        None => out.raw("null"),
    }
    out.raw("}");
}

/// Where a report line's JSON goes. The line is written twice by the
/// same code: into a byte count, to size it, then into the line itself.
trait JsonOut {
    /// JSON text that needs no escaping: punctuation, keys, literals.
    fn raw(&mut self, text: &str);
    /// A string value, quoted and escaped as the vendored `serde_json`
    /// escapes it.
    fn string(&mut self, s: &str);
    /// An unsigned integer.
    fn num(&mut self, v: u64);
}

impl JsonOut for usize {
    fn raw(&mut self, text: &str) {
        *self += text.len();
    }

    fn string(&mut self, s: &str) {
        *self += json_string_len(s);
    }

    fn num(&mut self, v: u64) {
        *self += v.checked_ilog10().map_or(1, |digits| digits as usize + 1);
    }
}

impl JsonOut for Vec<u8> {
    fn raw(&mut self, text: &str) {
        self.extend_from_slice(text.as_bytes());
    }

    fn string(&mut self, s: &str) {
        push_json_string(self, s);
    }

    fn num(&mut self, v: u64) {
        write!(self, "{v}").expect("writing to a Vec cannot fail");
    }
}

/// The line `write` writes, newline included, in a `String` allocated
/// once at its length.
fn line_of(write: impl Fn(&mut dyn JsonOut)) -> String {
    let mut len = 1;
    write(&mut len);
    let mut line = Vec::with_capacity(len);
    write(&mut line);
    line.push(b'\n');
    debug_assert_eq!(line.len(), len);
    String::from_utf8(line).expect("JSON text is UTF-8")
}

/// Aggregate counts over a batch, kept as a running tally while it runs.
#[derive(Debug, Clone, Default)]
pub struct BatchSummary {
    /// Traces checked.
    pub traces: usize,
    /// Traces with [`TraceStatus::Ok`].
    pub ok: usize,
    /// Traces with [`TraceStatus::Error`].
    pub failed: usize,
    /// Traces with [`TraceStatus::Quarantined`].
    pub quarantined: usize,
    /// Total operations across successfully checked traces.
    pub events: u64,
    /// Total warnings across successfully checked traces.
    pub warnings: u64,
    /// Wall milliseconds for the whole batch.
    pub wall_millis: u64,
    /// Worker-pool size the batch ran with.
    pub jobs: usize,
    /// Backend every trace was checked with.
    pub backend: String,
}

impl BatchSummary {
    fn count(&mut self, status: TraceStatus, events: u64, warnings: u64) {
        self.traces += 1;
        match status {
            TraceStatus::Ok => self.ok += 1,
            TraceStatus::Error => self.failed += 1,
            TraceStatus::Quarantined => self.quarantined += 1,
        }
        self.events += events;
        self.warnings += warnings;
    }

    /// Aggregate throughput in events per second of wall time.
    pub fn events_per_sec(&self) -> u64 {
        if self.wall_millis == 0 {
            return self.events * 1000;
        }
        self.events * 1000 / self.wall_millis
    }

    /// Renders the report's last line, `{"summary":…}`, newline included.
    pub(crate) fn to_json_line(&self) -> String {
        line_of(|out| {
            for (key, value) in [
                (r#"{"summary":{"traces":"#, self.traces as u64),
                (r#","ok":"#, self.ok as u64),
                (r#","failed":"#, self.failed as u64),
                (r#","quarantined":"#, self.quarantined as u64),
                (r#","events":"#, self.events),
                (r#","warnings":"#, self.warnings),
                (r#","wall_millis":"#, self.wall_millis),
                (r#","events_per_sec":"#, self.events_per_sec()),
                (r#","jobs":"#, self.jobs as u64),
            ] {
                out.raw(key);
                out.num(value);
            }
            out.raw(r#","backend":"#);
            out.string(&self.backend);
            out.raw("}}");
        })
    }

    /// One human-readable summary line.
    pub(crate) fn text_line(&self) -> String {
        format!(
            "checked {} traces ({} ok, {} failed, {} quarantined): {} events, \
             {} warnings, {} ms with {} jobs ({} events/sec)\n",
            self.traces,
            self.ok,
            self.failed,
            self.quarantined,
            self.events,
            self.warnings,
            self.wall_millis,
            self.jobs,
            self.events_per_sec(),
        )
    }

    /// The merged telemetry of the batch with the `batch.*` gauges added.
    fn snapshot(&self, mut metrics: BTreeMap<String, MetricValue>) -> Snapshot {
        for (name, value) in [
            (names::BATCH_TRACES_CHECKED, self.ok as u64),
            (names::BATCH_TRACES_FAILED, self.failed as u64),
            (names::BATCH_TRACES_QUARANTINED, self.quarantined as u64),
            (names::BATCH_EVENTS_TOTAL, self.events),
            (names::BATCH_EVENTS_PER_SEC, self.events_per_sec()),
            (names::BATCH_WARNINGS_TOTAL, self.warnings),
            (names::BATCH_JOBS, self.jobs as u64),
        ] {
            metrics.insert(name.into(), MetricValue::Gauge(value));
        }
        Snapshot {
            seq: 0,
            events: self.events,
            metrics,
        }
    }
}

/// Everything [`run_batch`] collects: per-trace outcomes plus aggregates.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-trace outcomes, in input order.
    pub outcomes: Vec<TraceOutcome>,
    /// Aggregate counts and timing.
    pub summary: BatchSummary,
    /// Merged telemetry snapshot (with `batch.*` gauges), when requested.
    pub merged: Option<Snapshot>,
}

/// Checks one trace file end to end: stream it (either format) into the
/// backend, configured by `run_cfg`, under a panic guard, and snapshot the
/// worker-private registry if metrics were requested.
fn check_one(
    path: &Path,
    backend: &Backend,
    run_cfg: &RunConfig,
    collect_metrics: bool,
) -> (TraceOutcome, Option<Snapshot>) {
    let start = std::time::Instant::now();
    let path_str = path.display().to_string();
    let fail = |status: TraceStatus, message: String| TraceOutcome {
        path: path_str.clone(),
        status,
        events: 0,
        millis: start.elapsed().as_millis() as u64,
        decode_ms: 0,
        analyze_ms: 0,
        warnings: Vec::new(),
        notes: Vec::new(),
        message: Some(message),
    };
    let telemetry = if collect_metrics {
        Telemetry::registry()
    } else {
        Telemetry::disabled()
    };
    let run_cfg = RunConfig {
        telemetry: telemetry.clone(),
        ..run_cfg.clone()
    };
    let events = Events::File(&path_str);
    let analysis =
        match velodrome_monitor::isolate::run_isolated(|| (backend.run)(events, &run_cfg)) {
            Err(panic) => {
                let msg = format!("analysis panicked: {panic}");
                return (fail(TraceStatus::Quarantined, msg), None);
            }
            Ok(Err(e)) => return (fail(TraceStatus::Error, e.message), None),
            Ok(Ok(analysis)) => analysis,
        };
    let ran = start.elapsed();
    let snapshot = if collect_metrics {
        // Batch runs have no scheduler, but the single-trace snapshot
        // contract includes the watchdog gauges; publish explicit zeros so
        // `metrics-verify` holds for batch metrics too.
        WatchdogStats::default().publish(&telemetry);
        telemetry.snapshot(0, analysis.events as u64)
    } else {
        None
    };
    let outcome = TraceOutcome {
        path: path_str,
        status: TraceStatus::Ok,
        events: analysis.events,
        millis: start.elapsed().as_millis() as u64,
        decode_ms: analysis.decode.as_millis() as u64,
        analyze_ms: ran.saturating_sub(analysis.decode).as_millis() as u64,
        warnings: analysis.warnings,
        notes: analysis.notes,
        message: None,
    };
    (outcome, snapshot)
}

/// Gauges that merge by maximum: a ladder rung and a peak mean the same
/// over a batch as over one trace, the worst one seen.
const MAX_GAUGES: [&str; 3] = [
    names::ENGINE_LADDER,
    names::RUNTIME_LADDER,
    names::ARENA_MAX_ALIVE,
];

/// Merges `from` into the accumulated batch metrics: the gauges in
/// [`MAX_GAUGES`] keep the maximum, other counters and gauges add, and
/// phases combine their summaries. (Summing is the useful batch semantics
/// for totals: `arena.allocated` over the batch is total allocation, not
/// one arbitrary trace's.)
fn merge_metrics(into: &mut BTreeMap<String, MetricValue>, from: &Snapshot) {
    for (name, value) in &from.metrics {
        match into.entry(name.clone()) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(value.clone());
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                match (e.get_mut(), value) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                    (MetricValue::Gauge(a), MetricValue::Gauge(b)) => {
                        if MAX_GAUGES.contains(&name.as_str()) {
                            *a = (*a).max(*b);
                        } else {
                            *a += b;
                        }
                    }
                    (
                        MetricValue::Phase {
                            count,
                            total_nanos,
                            max_nanos,
                        },
                        MetricValue::Phase {
                            count: c2,
                            total_nanos: t2,
                            max_nanos: m2,
                        },
                    ) => {
                        *count += c2;
                        *total_nanos += t2;
                        *max_nanos = (*max_nanos).max(*m2);
                    }
                    // Mismatched shapes under one name cannot happen with
                    // our registries; keep the first value if they do.
                    _ => {}
                }
            }
        }
    }
}

/// Checks what a batch needs before anything is read or created: the pool
/// size, then the backend name.
fn validate(cfg: &BatchConfig) -> Result<&'static Backend, CliError> {
    if cfg.jobs == 0 {
        return Err(err("check-batch requires --jobs >= 1"));
    }
    backend::resolve(&cfg.backend, cfg.collect_metrics)
}

/// The state the workers share behind one lock: the commit window and the
/// running totals.
struct Window<T, S> {
    /// Input index of the next result the sink takes.
    next: usize,
    /// Finished results waiting on an earlier trace, by input index.
    parked: BTreeMap<usize, T>,
    sink: S,
    /// The sink's first error; later results are dropped.
    error: Option<io::Error>,
    summary: BatchSummary,
    metrics: BTreeMap<String, MetricValue>,
}

impl<T, S: FnMut(T) -> io::Result<()>> Window<T, S> {
    /// Takes trace `i`'s result, then hands the sink every result that is
    /// now next in input order.
    fn commit(&mut self, i: usize, mut item: T) {
        if self.error.is_some() {
            return;
        }
        if i != self.next {
            self.parked.insert(i, item);
            return;
        }
        loop {
            if let Err(e) = (self.sink)(item) {
                self.error = Some(e);
                self.parked.clear();
                return;
            }
            self.next += 1;
            match self.parked.remove(&self.next) {
                Some(parked) => item = parked,
                None => return,
            }
        }
    }
}

/// The pool core: fans `cfg.paths` over `cfg.jobs` workers, each trace
/// analyzed under `run_cfg`. Each worker turns its outcome into a `T` with
/// `prepare` outside the lock, merges the trace's metrics and counts into
/// the running totals, and commits the `T`; `sink` takes the `T`s in input
/// order. After a sink error no new trace is started, and the error is
/// returned.
fn run_pool<T: Send>(
    cfg: &BatchConfig,
    backend: &Backend,
    run_cfg: &RunConfig,
    prepare: impl Fn(TraceOutcome) -> T + Sync,
    sink: impl FnMut(T) -> io::Result<()> + Send,
) -> io::Result<(BatchSummary, Option<Snapshot>)> {
    let start = std::time::Instant::now();
    let n = cfg.paths.len();
    let claim = AtomicUsize::new(0);
    let window = Mutex::new(Window {
        next: 0,
        parked: BTreeMap::new(),
        sink,
        error: None,
        summary: BatchSummary::default(),
        metrics: BTreeMap::new(),
    });
    std::thread::scope(|scope| {
        for _ in 0..cfg.jobs.min(n.max(1)) {
            scope.spawn(|| loop {
                // The cursor publishes no other data: Relaxed suffices.
                let i = claim.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let (outcome, snapshot) =
                    check_one(&cfg.paths[i], backend, run_cfg, cfg.collect_metrics);
                let (status, events) = (outcome.status, outcome.events as u64);
                let warnings = outcome.warnings.len() as u64;
                let item = prepare(outcome);
                let mut w = window.lock().expect("batch window poisoned");
                w.summary.count(status, events, warnings);
                if let Some(snap) = &snapshot {
                    merge_metrics(&mut w.metrics, snap);
                }
                w.commit(i, item);
                if w.error.is_some() {
                    claim.store(n, Ordering::Relaxed);
                }
            });
        }
    });
    let w = window.into_inner().expect("batch window poisoned");
    if let Some(e) = w.error {
        return Err(e);
    }
    let mut summary = w.summary;
    summary.wall_millis = start.elapsed().as_millis() as u64;
    summary.jobs = cfg.jobs;
    summary.backend = cfg.backend.clone();
    let merged = cfg.collect_metrics.then(|| summary.snapshot(w.metrics));
    Ok((summary, merged))
}

/// Runs the batch and collects every outcome: fans `cfg.paths` over a pool
/// of `cfg.jobs` workers and returns the per-trace outcomes (in input
/// order) plus, when requested, one merged telemetry snapshot carrying the
/// `batch.*` gauges. Every trace is analyzed with the default run config.
/// `check-batch` runs the same pool, under the command's analysis flags,
/// but streams each report line out instead of keeping the outcomes.
pub fn run_batch(cfg: &BatchConfig) -> Result<BatchReport, CliError> {
    let backend = validate(cfg)?;
    let mut outcomes = Vec::with_capacity(cfg.paths.len());
    let (summary, merged) = run_pool(
        cfg,
        backend,
        &RunConfig::default(),
        |o| o,
        |o| {
            outcomes.push(o);
            Ok(())
        },
    )
    .expect("collecting outcomes in memory cannot fail");
    Ok(BatchReport {
        outcomes,
        summary,
        merged,
    })
}

/// Expands the `check-batch` input argument into the work list: a
/// directory yields its `*.json` / `*.vbt` files sorted by name (skipping
/// `*.expect.json` oracle files); anything else is a manifest of trace
/// paths, one per line, `#` comments allowed, resolved relative to the
/// manifest's directory.
fn collect_paths(input: &str) -> Result<Vec<PathBuf>, CliError> {
    let root = Path::new(input);
    let meta = std::fs::metadata(root).map_err(|e| io_err(format!("reading {input}: {e}")))?;
    if meta.is_dir() {
        let entries =
            std::fs::read_dir(root).map_err(|e| io_err(format!("reading {input}: {e}")))?;
        let mut paths = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| io_err(format!("reading {input}: {e}")))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".expect.json") {
                continue;
            }
            if name.ends_with(".json") || name.ends_with(".vbt") {
                paths.push(path);
            }
        }
        paths.sort();
        Ok(paths)
    } else {
        let text =
            std::fs::read_to_string(root).map_err(|e| io_err(format!("reading {input}: {e}")))?;
        let base = root.parent().unwrap_or_else(|| Path::new("."));
        Ok(text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| {
                let p = Path::new(l);
                if p.is_absolute() {
                    p.to_path_buf()
                } else {
                    base.join(p)
                }
            })
            .collect())
    }
}

/// Streams the JSONL report into `out`: each trace's line as soon as it and
/// every earlier trace are done, then the summary line.
fn write_report(
    cfg: &BatchConfig,
    backend: &Backend,
    run_cfg: &RunConfig,
    out: &mut (impl Write + Send),
) -> io::Result<(BatchSummary, Option<Snapshot>)> {
    let (summary, merged) = run_pool(
        cfg,
        backend,
        run_cfg,
        |o| o.to_json_line(),
        |line| out.write_all(line.as_bytes()),
    )?;
    out.write_all(summary.to_json_line().as_bytes())?;
    out.flush()?;
    Ok((summary, merged))
}

/// The `check-batch` subcommand: collect the work list, check the flags,
/// create the output files, then run the pool, streaming the report (and
/// writing the merged metrics at the end). If the run fails after the
/// outputs were created, they are removed.
pub(crate) fn check_batch_cmd(opts: &Options) -> Result<String, CliError> {
    let input = opts.positional.first().ok_or_else(|| err(USAGE))?;
    let paths = collect_paths(input)?;
    if paths.is_empty() {
        return Err(err(format!("no trace files found in {input}")));
    }
    let cfg = BatchConfig {
        paths,
        jobs: opts.jobs,
        backend: opts.backend.clone(),
        collect_metrics: opts.metrics_out.is_some(),
    };
    let backend = validate(&cfg)?;
    let mut created = Vec::new();
    let result = check_batch_into(&cfg, backend, opts, &mut created);
    if result.is_err() {
        created.into_iter().for_each(remove_partial);
    }
    result
}

/// Creates `--report` and `--metrics-out` (noting each in `created`) and
/// runs the batch into them. Without `--report` the JSONL goes to stdout,
/// and is then built in memory whole, since the command returns it.
fn check_batch_into<'a>(
    cfg: &BatchConfig,
    backend: &Backend,
    opts: &'a Options,
    created: &mut Vec<&'a str>,
) -> Result<String, CliError> {
    let mut create = |path: &'a str| {
        let file = std::fs::File::create(path).map_err(|e| write_err(path, e))?;
        created.push(path);
        Ok::<_, CliError>((path, file))
    };
    let report = opts.report.as_deref().map(&mut create).transpose()?;
    let metrics = opts.metrics_out.as_deref().map(&mut create).transpose()?;
    let run_cfg = crate::run_config(opts);
    let (stdout, merged) = match report {
        Some((path, file)) => {
            let (summary, merged) = write_report(cfg, backend, &run_cfg, &mut BufWriter::new(file))
                .map_err(|e| write_err(path, e))?;
            (summary.text_line(), merged)
        }
        None => {
            let mut out = Vec::new();
            let (_, merged) = write_report(cfg, backend, &run_cfg, &mut out)
                .expect("writing to memory cannot fail");
            let out = String::from_utf8(out).expect("JSON lines are UTF-8");
            (out, merged)
        }
    };
    if let Some((path, file)) = metrics {
        let snap = merged.expect("collect_metrics was set");
        JsonlExporter::new(BufWriter::new(file))
            .export(&snap)
            .map_err(|e| write_err(path, e))?;
    }
    Ok(stdout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute;
    use serde::Serialize as _;
    use serde_json::{Map, Number, Value};
    use velodrome_events::{Label, ThreadId};
    use velodrome_monitor::WarningCategory;

    fn run(args: &[&str]) -> Result<String, CliError> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        execute(&owned)
    }

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("velodrome-batch-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn num(v: u64) -> Value {
        Value::Num(Number::from_u64(v))
    }

    /// A trace's report line as the `serde` value tree gave it before
    /// the lines were written directly: the oracle for their bytes.
    fn oracle_line(o: &TraceOutcome) -> String {
        let mut m = Map::new();
        m.insert("path".into(), Value::Str(o.path.clone()));
        m.insert("status".into(), Value::Str(o.status.as_str().into()));
        match o.status {
            TraceStatus::Ok => {
                m.insert("events".into(), num(o.events as u64));
                m.insert("millis".into(), num(o.millis));
                m.insert("decode_ms".into(), num(o.decode_ms));
                m.insert("analyze_ms".into(), num(o.analyze_ms));
                m.insert("serializable".into(), Value::Bool(o.warnings.is_empty()));
                m.insert("warnings".into(), o.warnings.serialize_value());
                m.insert(
                    "notes".into(),
                    Value::Array(o.notes.iter().map(|n| Value::Str(n.clone())).collect()),
                );
            }
            TraceStatus::Error | TraceStatus::Quarantined => {
                m.insert(
                    "error".into(),
                    Value::Str(o.message.clone().unwrap_or_default()),
                );
            }
        }
        serde_json::to_string(&Value::Object(m)).unwrap() + "\n"
    }

    /// The summary line as the `serde` value tree gave it.
    fn oracle_summary_line(s: &BatchSummary) -> String {
        let mut m = Map::new();
        m.insert("traces".into(), num(s.traces as u64));
        m.insert("ok".into(), num(s.ok as u64));
        m.insert("failed".into(), num(s.failed as u64));
        m.insert("quarantined".into(), num(s.quarantined as u64));
        m.insert("events".into(), num(s.events));
        m.insert("warnings".into(), num(s.warnings));
        m.insert("wall_millis".into(), num(s.wall_millis));
        m.insert("events_per_sec".into(), num(s.events_per_sec()));
        m.insert("jobs".into(), num(s.jobs as u64));
        m.insert("backend".into(), Value::Str(s.backend.clone()));
        let mut root = Map::new();
        root.insert("summary".into(), Value::Object(m));
        serde_json::to_string(&Value::Object(root)).unwrap() + "\n"
    }

    /// The directly written lines are the bytes the `serde` value tree
    /// gave, for every status, missing and present labels and details,
    /// empty and non-empty notes, numbers of 1 to 20 digits, and text that
    /// needs each kind of escape or none.
    #[test]
    fn report_lines_match_the_serde_encoding() {
        let odd = "q\"b\\s\nl\u{1}c\u{1b}e ü 😀";
        let warning = |category, label: Option<u32>, details: Option<String>| Warning {
            tool: "velodrome",
            category,
            label: label.map(Label::new),
            thread: ThreadId::new(7),
            op_index: 12_345,
            message: format!("{odd} is not atomic"),
            details,
        };
        let outcome = |status, warnings: Vec<Warning>, notes: Vec<String>, message| TraceOutcome {
            path: format!("dir/{odd}.json"),
            status,
            events: 1_000_000,
            millis: 0,
            decode_ms: 9,
            analyze_ms: 10,
            warnings,
            notes,
            message,
        };
        let mut wide = warning(WarningCategory::Other, Some(u32::MAX), None);
        wide.op_index = usize::MAX;
        wide.thread = ThreadId::new(0);
        let outcomes = [
            outcome(TraceStatus::Ok, Vec::new(), Vec::new(), None),
            outcome(
                TraceStatus::Ok,
                vec![
                    warning(
                        WarningCategory::Atomicity,
                        Some(3),
                        Some(format!("digraph {{\n  t0 [label=\"{odd}\"];\n}}\n")),
                    ),
                    warning(WarningCategory::Race, None, None),
                    warning(WarningCategory::Degraded, None, Some(String::new())),
                    wide,
                ],
                vec![odd.to_owned(), String::new()],
                None,
            ),
            outcome(TraceStatus::Ok, Vec::new(), vec![odd.to_owned()], None),
            outcome(
                TraceStatus::Error,
                Vec::new(),
                Vec::new(),
                Some(format!("byte 14: {odd}")),
            ),
            outcome(
                TraceStatus::Quarantined,
                Vec::new(),
                Vec::new(),
                Some(format!("analysis panicked: {odd}")),
            ),
            outcome(TraceStatus::Error, Vec::new(), Vec::new(), None),
        ];
        for o in &outcomes {
            assert_eq!(o.to_json_line(), oracle_line(o));
        }
        let summaries = [
            BatchSummary::default(),
            BatchSummary {
                traces: 330,
                ok: 328,
                failed: 1,
                quarantined: 1,
                events: 1_830_000,
                warnings: 2_568,
                wall_millis: 101,
                jobs: 2,
                backend: odd.to_owned(),
            },
        ];
        for s in &summaries {
            assert_eq!(s.to_json_line(), oracle_summary_line(s));
        }
    }

    /// Two traces' snapshots merge as a batch reads them: a ladder rung
    /// and a peak keep the worst trace's value, counters and other gauges
    /// add.
    #[test]
    fn merge_metrics_keeps_the_worst_rung_and_peak() {
        let snapshot = |ladder: u64, peak: u64, exhausted: u64, alive: u64| Snapshot {
            seq: 0,
            events: 0,
            metrics: [
                (names::ENGINE_LADDER, MetricValue::Gauge(ladder)),
                (names::ARENA_MAX_ALIVE, MetricValue::Gauge(peak)),
                (names::ARENA_EXHAUSTED, MetricValue::Counter(exhausted)),
                (names::ARENA_CUR_ALIVE, MetricValue::Gauge(alive)),
            ]
            .into_iter()
            .map(|(name, value)| (name.to_owned(), value))
            .collect(),
        };
        let mut merged = BTreeMap::new();
        merge_metrics(&mut merged, &snapshot(3, 70_001, 1, 5));
        merge_metrics(&mut merged, &snapshot(1, 12, 1, 7));
        assert_eq!(merged[names::ENGINE_LADDER], MetricValue::Gauge(3));
        assert_eq!(merged[names::ARENA_MAX_ALIVE], MetricValue::Gauge(70_001));
        assert_eq!(merged[names::ARENA_EXHAUSTED], MetricValue::Counter(2));
        assert_eq!(merged[names::ARENA_CUR_ALIVE], MetricValue::Gauge(12));
    }

    /// Records a couple of workload traces (one racy, one clean) into
    /// `dir`, in both encodings, and returns the recorded stems.
    fn record_corpus(dir: &Path) -> Vec<String> {
        let mut stems = Vec::new();
        for (workload, stem) in [("multiset", "a-multiset"), ("raja", "b-raja")] {
            let json = dir.join(format!("{stem}.json"));
            let vbt = dir.join(format!("{stem}.vbt"));
            run(&[
                "record",
                workload,
                "--seed=1",
                &format!("--out={}", json.display()),
            ])
            .unwrap();
            run(&["convert", json.to_str().unwrap(), vbt.to_str().unwrap()]).unwrap();
            stems.push(stem.to_owned());
        }
        stems
    }

    #[test]
    fn convert_roundtrips_and_infers_formats() {
        let dir = scratch_dir("convert");
        let json = dir.join("t.json");
        let vbt = dir.join("t.vbt");
        let back = dir.join("back.json");
        run(&[
            "record",
            "multiset",
            "--seed=1",
            &format!("--out={}", json.display()),
        ])
        .unwrap();
        let out = run(&["convert", json.to_str().unwrap(), vbt.to_str().unwrap()]).unwrap();
        assert!(out.contains("(vbt)"), "{out}");
        run(&["convert", vbt.to_str().unwrap(), back.to_str().unwrap()]).unwrap();
        // json -> vbt -> json is byte-identical.
        assert_eq!(
            std::fs::read_to_string(&json).unwrap(),
            std::fs::read_to_string(&back).unwrap()
        );
        // The binary file is smaller and every command accepts it.
        assert!(std::fs::metadata(&vbt).unwrap().len() < std::fs::metadata(&json).unwrap().len());
        let checked = run(&["trace", vbt.to_str().unwrap(), "--json"]).unwrap();
        let serial = run(&["trace", json.to_str().unwrap(), "--json"]).unwrap();
        assert_eq!(checked, serial);
        let e = run(&["convert", json.to_str().unwrap(), "out.bin"]).unwrap_err();
        assert_eq!(e.kind, crate::CliErrorKind::Usage, "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_vbt_inputs_exit_4_with_byte_offsets() {
        let dir = scratch_dir("bad-vbt");
        let path = dir.join("bad.vbt");
        let path_str = path.to_str().unwrap().to_owned();

        // Truncated frame: record a real VBT trace and cut it short.
        let json = dir.join("t.json");
        run(&[
            "record",
            "multiset",
            "--seed=1",
            &format!("--out={}", json.display()),
        ])
        .unwrap();
        run(&["convert", json.to_str().unwrap(), &path_str]).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let e = run(&["trace", &path_str]).unwrap_err();
        assert_eq!(e.kind, crate::CliErrorKind::MalformedInput, "{e}");
        assert_eq!(e.exit_code(), 4);
        assert!(e.message.contains(&path_str), "{e}");
        assert!(e.message.contains("byte"), "{e}");

        // Bad magic: the first byte decides the parser, so `VXTF…` falls
        // through to the JSON reader and still fails at byte 0.
        let mut bad = full.clone();
        bad[1] = b'X';
        std::fs::write(&path, &bad).unwrap();
        let e = run(&["trace", &path_str]).unwrap_err();
        assert_eq!(e.kind, crate::CliErrorKind::MalformedInput, "{e}");
        assert!(e.message.contains("byte 0"), "{e}");

        // String-table overflow: a crafted header claiming 2^30 entries.
        let mut crafted = b"VBTF\x01".to_vec();
        crafted.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x04]); // varint 2^30
        std::fs::write(&path, &crafted).unwrap();
        let e = run(&["trace", &path_str]).unwrap_err();
        assert_eq!(e.kind, crate::CliErrorKind::MalformedInput, "{e}");
        assert!(e.message.contains("string-table overflow"), "{e}");
        assert!(e.message.contains("byte"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_batch_matches_serial_runs_and_reports_jsonl() {
        let dir = scratch_dir("batch");
        record_corpus(&dir);
        let out = run(&[
            "check-batch",
            dir.to_str().unwrap(),
            "--jobs=4",
            "--backend=velodrome",
        ])
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        // 2 stems × 2 encodings + 1 summary line.
        assert_eq!(lines.len(), 5, "{out}");
        let mut per_trace = Vec::new();
        for line in &lines[..4] {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            assert_eq!(v["status"], "ok", "{line}");
            assert!(v["events"].as_u64().unwrap() > 0, "{line}");
            // The load/analysis split sits right after `millis` and never
            // exceeds it.
            let millis = v["millis"].as_u64().unwrap();
            let decode = v["decode_ms"].as_u64().expect("decode_ms");
            let analyze = v["analyze_ms"].as_u64().expect("analyze_ms");
            assert!(decode + analyze <= millis, "{line}");
            let at = |key: &str| line.find(&format!("\"{key}\":")).unwrap();
            assert!(at("millis") < at("decode_ms"), "{line}");
            assert!(at("decode_ms") < at("analyze_ms"), "{line}");
            assert!(at("analyze_ms") < at("serializable"), "{line}");
            per_trace.push(v);
        }
        // Paths are in sorted input order; json/vbt twins agree exactly.
        let path_of = |v: &serde_json::Value| v["path"].as_str().unwrap().to_owned();
        assert!(path_of(&per_trace[0]) < path_of(&per_trace[1]));
        for pair in per_trace.chunks(2) {
            assert_eq!(pair[0]["warnings"], pair[1]["warnings"]);
            assert_eq!(pair[0]["events"], pair[1]["events"]);
        }
        // The racy trace has warnings; each matches its serial run.
        assert!(per_trace[0]["warnings"]
            .as_array()
            .is_some_and(|w| !w.is_empty()));
        for v in &per_trace {
            let serial = run(&["trace", path_of(v).as_str(), "--json"]).unwrap();
            let serial_warnings: serde_json::Value = serde_json::from_str(&serial).unwrap();
            assert_eq!(
                serde_json::to_string(&v["warnings"]).unwrap(),
                serde_json::to_string(&serial_warnings).unwrap(),
                "batch verdict must be byte-identical to the serial run"
            );
        }
        let summary = serde_json::from_str::<serde_json::Value>(lines[4]).unwrap();
        let summary = &summary["summary"];
        assert_eq!(summary["traces"].as_u64(), Some(4));
        assert_eq!(summary["ok"].as_u64(), Some(4));
        assert_eq!(summary["failed"].as_u64(), Some(0));
        assert_eq!(summary["quarantined"].as_u64(), Some(0));
        assert_eq!(summary["jobs"].as_u64(), Some(4));
        assert!(summary["events_per_sec"].as_u64().is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_batch_isolates_bad_traces_and_writes_metrics() {
        let dir = scratch_dir("batch-isolate");
        record_corpus(&dir);
        std::fs::write(dir.join("c-broken.json"), "{\"ops\": 42}").unwrap();
        let report_path = dir.join("report.jsonl");
        let metrics_path = dir.join("metrics.jsonl");
        let out = run(&[
            "check-batch",
            dir.to_str().unwrap(),
            "--jobs=2",
            "--backend=velodrome",
            &format!("--report={}", report_path.display()),
            &format!("--metrics-out={}", metrics_path.display()),
        ])
        .unwrap();
        // --report moves the JSONL to the file; stdout is the summary.
        assert!(out.contains("checked 5 traces"), "{out}");
        assert!(out.contains("1 failed"), "{out}");
        let report = std::fs::read_to_string(&report_path).unwrap();
        let lines: Vec<&str> = report.lines().collect();
        assert_eq!(lines.len(), 6, "{report}");
        let broken: Vec<serde_json::Value> = lines
            .iter()
            .map(|l| serde_json::from_str(l).unwrap())
            .filter(|v: &serde_json::Value| v["status"] == "error")
            .collect();
        assert_eq!(broken.len(), 1, "{report}");
        assert!(
            broken[0]["error"].as_str().unwrap().contains("byte"),
            "{report}"
        );
        // The merged snapshot passes the standard contract plus batch.*.
        let verified = run(&[
            "metrics-verify",
            metrics_path.to_str().unwrap(),
            "--require=batch.traces_checked,batch.traces_failed,batch.traces_quarantined,\
             batch.events_total,batch.events_per_sec,batch.warnings_total,batch.jobs,\
             phase.advance,phase.decode",
        ])
        .unwrap();
        assert!(verified.contains("ok:"), "{verified}");
        let line = std::fs::read_to_string(&metrics_path).unwrap();
        let snap: serde_json::Value = serde_json::from_str(line.lines().next().unwrap()).unwrap();
        let gauge = |name: &str| snap["metrics"][name]["value"].as_u64();
        assert_eq!(gauge("batch.traces_checked"), Some(4), "{snap:?}");
        assert_eq!(gauge("batch.traces_failed"), Some(1), "{snap:?}");
        assert_eq!(gauge("batch.jobs"), Some(2), "{snap:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_batch_rejects_an_unknown_backend_before_checking() {
        let dir = scratch_dir("batch-unknown-backend");
        record_corpus(&dir);
        let report = dir.join("report.jsonl");
        let e = run(&[
            "check-batch",
            dir.to_str().unwrap(),
            "--backend=NOPE",
            &format!("--report={}", report.display()),
        ])
        .unwrap_err();
        assert_eq!(e.kind, crate::CliErrorKind::Usage, "{e}");
        assert_eq!(e.exit_code(), 2);
        assert!(e.message.starts_with("unknown backend `NOPE`"), "{e}");
        assert!(!report.exists(), "no report is written");
        let cfg = BatchConfig {
            paths: vec![dir.join("a-multiset.json")],
            jobs: 2,
            backend: "NOPE".to_owned(),
            collect_metrics: false,
        };
        let e = run_batch(&cfg).unwrap_err();
        assert_eq!(e.kind, crate::CliErrorKind::Usage, "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_batch_creates_its_outputs_before_checking() {
        let dir = scratch_dir("batch-unwritable");
        record_corpus(&dir);
        let report = dir.join("report.jsonl");
        let unwritable = dir.join("no-such-dir").join("out.jsonl");
        let input = dir.to_str().unwrap();
        // An unwritable --report fails before any trace is checked.
        let e = run(&[
            "check-batch",
            input,
            &format!("--report={}", unwritable.display()),
        ])
        .unwrap_err();
        assert_eq!(e.kind, crate::CliErrorKind::Io, "{e}");
        assert_eq!(e.exit_code(), 3);
        assert!(e.message.starts_with("writing "), "{e}");
        // So does an unwritable --metrics-out, and the report file already
        // created for the run is removed again.
        let e = run(&[
            "check-batch",
            input,
            &format!("--report={}", report.display()),
            &format!("--metrics-out={}", unwritable.display()),
        ])
        .unwrap_err();
        assert_eq!(e.exit_code(), 3, "{e}");
        assert!(!report.exists(), "no partial report is left");
        // A write that fails once checking is under way exits 3 too.
        if Path::new("/dev/full").exists() {
            let e = run(&["check-batch", input, "--report=/dev/full"]).unwrap_err();
            assert_eq!(e.exit_code(), 3, "{e}");
            assert!(
                Path::new("/dev/full").exists(),
                "only regular files are removed"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Removes the fields that time a run from a JSONL report.
    fn strip_timings(report: &str) -> String {
        let mut out = report.to_owned();
        for key in [
            "millis",
            "decode_ms",
            "analyze_ms",
            "wall_millis",
            "events_per_sec",
            "jobs",
        ] {
            let pat = format!("\"{key}\":");
            while let Some(at) = out.find(&pat) {
                let value = &out[at + pat.len()..];
                let mut end = at + pat.len() + value.bytes().take_while(u8::is_ascii_digit).count();
                if out[end..].starts_with(',') {
                    end += 1;
                }
                out.replace_range(at..end, "");
            }
        }
        out
    }

    /// One large trace first, then many tiny ones with a malformed file
    /// among them: with two workers the tiny ones finish while the large
    /// one runs and wait in the commit window. The report still lists
    /// every trace in input order, the error in its slot, and matches the
    /// one-worker run byte for byte apart from timings; the merged
    /// metrics match apart from phase timings.
    #[test]
    fn check_batch_commits_in_input_order_under_skew() {
        let dir = scratch_dir("batch-skew");
        let mut large = velodrome_events::TraceBuilder::new();
        for round in 0..10_000 {
            let t = format!("T{}", round % 4);
            large.begin(&t, "inc").acquire(&t, "m").read(&t, "x");
            large.write(&t, "x").release(&t, "m").end(&t);
        }
        std::fs::write(dir.join("large.json"), large.finish().to_json()).unwrap();
        let mut manifest = String::from("large.json\n");
        for i in 0..24 {
            let name = if i == 12 {
                std::fs::write(dir.join("broken.json"), "{\"ops\": [{\"Read\"").unwrap();
                "broken.json".to_owned()
            } else {
                let mut tiny = velodrome_events::TraceBuilder::new();
                for j in 0..=i % 3 {
                    let label = format!("inc{j}");
                    tiny.begin("T1", &label).read("T1", "x");
                    tiny.write("T2", "x");
                    tiny.write("T1", "x").end("T1");
                }
                let name = format!("tiny-{i}.json");
                std::fs::write(dir.join(&name), tiny.finish().to_json()).unwrap();
                name
            };
            manifest.push_str(&name);
            manifest.push('\n');
        }
        let manifest_path = dir.join("traces.txt");
        std::fs::write(&manifest_path, &manifest).unwrap();
        let files: Vec<&str> = manifest.lines().collect();
        let mut runs = Vec::new();
        for jobs in [1, 2] {
            let report = dir.join(format!("report-{jobs}.jsonl"));
            let metrics = dir.join(format!("metrics-{jobs}.jsonl"));
            run(&[
                "check-batch",
                manifest_path.to_str().unwrap(),
                &format!("--jobs={jobs}"),
                &format!("--report={}", report.display()),
                &format!("--metrics-out={}", metrics.display()),
            ])
            .unwrap();
            let report = std::fs::read_to_string(&report).unwrap();
            let lines: Vec<&str> = report.lines().collect();
            assert_eq!(lines.len(), files.len() + 1, "{report}");
            for (line, name) in lines.iter().zip(&files) {
                let v: serde_json::Value = serde_json::from_str(line).unwrap();
                assert!(v["path"].as_str().unwrap().ends_with(name), "{line}");
                let status = if *name == "broken.json" {
                    "error"
                } else {
                    "ok"
                };
                assert_eq!(v["status"], status, "{line}");
            }
            let metrics = std::fs::read_to_string(&metrics).unwrap();
            let snap: serde_json::Value = serde_json::from_str(metrics.trim_end()).unwrap();
            runs.push((strip_timings(&report), snap));
        }
        assert_eq!(runs[0].0, runs[1].0, "reports differ beyond timings");
        let (one, two) = (&runs[0].1["metrics"], &runs[1].1["metrics"]);
        let metric_names = |m: &serde_json::Value| {
            m.as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(metric_names(one), metric_names(two));
        for name in metric_names(one) {
            let (a, b) = (&one[name.as_str()], &two[name.as_str()]);
            if a["type"] == "phase" {
                assert_eq!(a["count"], b["count"], "{name}");
            } else if name != names::BATCH_EVENTS_PER_SEC && name != names::BATCH_JOBS {
                assert_eq!(a, b, "{name}");
            }
        }
        assert_eq!(runs[0].1["events"], runs[1].1["events"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_batch_manifest_mode_and_validation() {
        let dir = scratch_dir("batch-manifest");
        record_corpus(&dir);
        let manifest = dir.join("traces.txt");
        std::fs::write(
            &manifest,
            "# batch manifest\na-multiset.json\n\nb-raja.vbt\n",
        )
        .unwrap();
        let out = run(&["check-batch", manifest.to_str().unwrap(), "--jobs=1"]).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "{out}");
        // Manifest order is preserved (not sorted).
        assert!(lines[0].contains("a-multiset.json"), "{out}");
        assert!(lines[1].contains("b-raja.vbt"), "{out}");

        let empty = dir.join("empty");
        std::fs::create_dir_all(&empty).unwrap();
        let e = run(&["check-batch", empty.to_str().unwrap()]).unwrap_err();
        assert_eq!(e.kind, crate::CliErrorKind::Usage, "{e}");
        let e = run(&["check-batch", dir.to_str().unwrap(), "--jobs=0"]).unwrap_err();
        assert_eq!(e.kind, crate::CliErrorKind::Usage, "{e}");
        let e = run(&["check-batch", "/nonexistent/velodrome-corpus"]).unwrap_err();
        assert_eq!(e.kind, crate::CliErrorKind::Io, "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
