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
//!   code path `velodrome trace <FILE>` uses, with a worker-private
//!   telemetry registry, so per-trace warnings and notes are byte-identical
//!   to a serial single-trace run of the same backend.
//! * **Deterministic report order.** Workers claim work from an atomic
//!   queue, but results are stored by input index: the JSONL report lists
//!   traces in input order no matter how the pool interleaved.
//! * **Isolation.** A panicking analysis quarantines that trace (status
//!   `quarantined`, the panic message preserved); unreadable or malformed
//!   files fail that trace (status `error`); neither aborts the batch.

use crate::backend::{self, Backend, Events, RunConfig};
use crate::{err, io_err, CliError, Options, USAGE};
use serde::value::{Map, Number, Value};
use serde::Serialize as _;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use velodrome_monitor::Warning;
use velodrome_sim::WatchdogStats;
use velodrome_telemetry::{names, MetricValue, Snapshot, Telemetry};

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

/// Everything `check-batch` reports: per-trace outcomes plus aggregates.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-trace outcomes, in input order.
    pub outcomes: Vec<TraceOutcome>,
    /// Wall milliseconds for the whole batch.
    pub wall_millis: u64,
    /// Worker-pool size the batch ran with.
    pub jobs: usize,
    /// Backend every trace was checked with.
    pub backend: String,
    /// Merged telemetry snapshot (with `batch.*` gauges), when requested.
    pub merged: Option<Snapshot>,
}

impl BatchReport {
    /// Traces with [`TraceStatus::Ok`].
    pub fn ok(&self) -> usize {
        self.count(TraceStatus::Ok)
    }

    /// Traces with [`TraceStatus::Error`].
    pub fn failed(&self) -> usize {
        self.count(TraceStatus::Error)
    }

    /// Traces with [`TraceStatus::Quarantined`].
    pub fn quarantined(&self) -> usize {
        self.count(TraceStatus::Quarantined)
    }

    fn count(&self, status: TraceStatus) -> usize {
        self.outcomes.iter().filter(|o| o.status == status).count()
    }

    /// Total operations across successfully checked traces.
    pub fn events(&self) -> u64 {
        self.outcomes.iter().map(|o| o.events as u64).sum()
    }

    /// Total warnings across successfully checked traces.
    pub fn warnings_total(&self) -> u64 {
        self.outcomes.iter().map(|o| o.warnings.len() as u64).sum()
    }

    /// Aggregate throughput in events per second of wall time.
    pub fn events_per_sec(&self) -> u64 {
        if self.wall_millis == 0 {
            return self.events() * 1000;
        }
        self.events() * 1000 / self.wall_millis
    }

    /// Renders the machine-readable report: one JSON line per trace (in
    /// input order), then one `{"summary":…}` line.
    pub fn to_jsonl(&self) -> String {
        let num = |v: u64| Value::Num(Number::from_u64(v));
        let mut out = String::new();
        for o in &self.outcomes {
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
            out.push_str(&serde_json::to_string(&Value::Object(m)).expect("report serializes"));
            out.push('\n');
        }
        let mut s = Map::new();
        s.insert("traces".into(), num(self.outcomes.len() as u64));
        s.insert("ok".into(), num(self.ok() as u64));
        s.insert("failed".into(), num(self.failed() as u64));
        s.insert("quarantined".into(), num(self.quarantined() as u64));
        s.insert("events".into(), num(self.events()));
        s.insert("warnings".into(), num(self.warnings_total()));
        s.insert("wall_millis".into(), num(self.wall_millis));
        s.insert("events_per_sec".into(), num(self.events_per_sec()));
        s.insert("jobs".into(), num(self.jobs as u64));
        s.insert("backend".into(), Value::Str(self.backend.clone()));
        let mut root = Map::new();
        root.insert("summary".into(), Value::Object(s));
        out.push_str(&serde_json::to_string(&Value::Object(root)).expect("report serializes"));
        out.push('\n');
        out
    }

    /// One human-readable summary line.
    pub fn summary_line(&self) -> String {
        format!(
            "checked {} traces ({} ok, {} failed, {} quarantined): {} events, \
             {} warnings, {} ms with {} jobs ({} events/sec)\n",
            self.outcomes.len(),
            self.ok(),
            self.failed(),
            self.quarantined(),
            self.events(),
            self.warnings_total(),
            self.wall_millis,
            self.jobs,
            self.events_per_sec(),
        )
    }
}

/// Checks one trace file end to end: stream it (either format) into the
/// backend under a panic guard, snapshot the worker-private registry if
/// metrics were requested.
fn check_one(
    path: &Path,
    backend: &Backend,
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
        ..RunConfig::default()
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

/// Merges `from` into the accumulated batch metrics: counters and gauges
/// add, phases and histograms combine their summaries. (Summing gauges is
/// the useful batch semantics: `arena.allocated` over the batch is total
/// allocation, not one arbitrary trace's.)
fn merge_metrics(into: &mut BTreeMap<String, MetricValue>, from: &Snapshot) {
    for (name, value) in &from.metrics {
        match into.entry(name.clone()) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(value.clone());
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                match (e.get_mut(), value) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                    (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a += b,
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
                    (
                        MetricValue::Histogram {
                            count,
                            sum,
                            max,
                            buckets,
                        },
                        MetricValue::Histogram {
                            count: c2,
                            sum: s2,
                            max: m2,
                            buckets: b2,
                        },
                    ) => {
                        *count += c2;
                        *sum += s2;
                        *max = (*max).max(*m2);
                        if buckets.len() < b2.len() {
                            buckets.resize(b2.len(), 0);
                        }
                        for (slot, b) in buckets.iter_mut().zip(b2) {
                            *slot += b;
                        }
                    }
                    // Mismatched shapes under one name cannot happen with
                    // our registries; keep the first value if they do.
                    _ => {}
                }
            }
        }
    }
}

/// Runs the batch: fans `cfg.paths` over a pool of `cfg.jobs` workers and
/// aggregates per-trace outcomes (in input order) plus, when requested,
/// one merged telemetry snapshot carrying the `batch.*` gauges.
pub fn run_batch(cfg: &BatchConfig) -> Result<BatchReport, CliError> {
    if cfg.jobs == 0 {
        return Err(err("check-batch requires --jobs >= 1"));
    }
    let backend = backend::resolve(&cfg.backend, cfg.collect_metrics)?;
    type Slot = Option<(TraceOutcome, Option<Snapshot>)>;
    let start = std::time::Instant::now();
    let n = cfg.paths.len();
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Slot>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..cfg.jobs.min(n.max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = check_one(&cfg.paths[i], backend, cfg.collect_metrics);
                slots.lock().expect("batch results poisoned")[i] = Some(result);
            });
        }
    });
    let mut outcomes = Vec::with_capacity(n);
    let mut metrics = BTreeMap::new();
    for slot in slots.into_inner().expect("batch results poisoned") {
        let (outcome, snapshot) = slot.expect("every work item completes");
        if let Some(snap) = snapshot {
            merge_metrics(&mut metrics, &snap);
        }
        outcomes.push(outcome);
    }
    let mut report = BatchReport {
        outcomes,
        wall_millis: start.elapsed().as_millis() as u64,
        jobs: cfg.jobs,
        backend: cfg.backend.clone(),
        merged: None,
    };
    if cfg.collect_metrics {
        metrics.insert(
            names::BATCH_TRACES_CHECKED.into(),
            MetricValue::Gauge(report.ok() as u64),
        );
        metrics.insert(
            names::BATCH_TRACES_FAILED.into(),
            MetricValue::Gauge(report.failed() as u64),
        );
        metrics.insert(
            names::BATCH_TRACES_QUARANTINED.into(),
            MetricValue::Gauge(report.quarantined() as u64),
        );
        metrics.insert(
            names::BATCH_EVENTS_TOTAL.into(),
            MetricValue::Gauge(report.events()),
        );
        metrics.insert(
            names::BATCH_EVENTS_PER_SEC.into(),
            MetricValue::Gauge(report.events_per_sec()),
        );
        metrics.insert(
            names::BATCH_WARNINGS_TOTAL.into(),
            MetricValue::Gauge(report.warnings_total()),
        );
        metrics.insert(
            names::BATCH_JOBS.into(),
            MetricValue::Gauge(cfg.jobs as u64),
        );
        report.merged = Some(Snapshot {
            seq: 0,
            events: report.events(),
            metrics,
        });
    }
    Ok(report)
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

/// The `check-batch` subcommand: collect the work list, run the pool,
/// write the report (and merged metrics), print the summary.
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
    let report = run_batch(&cfg)?;
    if let Some(path) = opts.metrics_out.as_deref() {
        let snap = report.merged.as_ref().expect("collect_metrics was set");
        let file =
            std::fs::File::create(path).map_err(|e| io_err(format!("creating {path}: {e}")))?;
        let mut exporter = velodrome_telemetry::JsonlExporter::new(std::io::BufWriter::new(file));
        exporter
            .export(snap)
            .map_err(|e| io_err(format!("writing {path}: {e}")))?;
    }
    match opts.report.as_deref() {
        Some(path) => {
            std::fs::write(path, report.to_jsonl())
                .map_err(|e| io_err(format!("writing {path}: {e}")))?;
            Ok(report.summary_line())
        }
        None => Ok(report.to_jsonl()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute;

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
