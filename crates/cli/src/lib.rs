//! Command-line front end for the Velodrome checker.
//!
//! Mirrors the prototype's usage: "takes as input a compiled Java program
//! and a specification of which methods should be atomic, and reports an
//! error whenever it observes a non-serializable trace" — here the input is
//! a benchmark model or a recorded trace file.
//!
//! ```text
//! velodrome list
//! velodrome check <workload> [--scale=N] [--seed=S] [--backend=NAME] [--dot] [--adversarial]
//! velodrome record <workload> --out=FILE [--scale=N] [--seed=S]
//! velodrome trace <FILE> [--backend=NAME] [--dot]
//! velodrome oracle <FILE>
//! velodrome info <workload|FILE> [--scale=N] [--seed=S]
//! velodrome replay <workload> <FILE> [--scale=N]
//! velodrome compare <workload|FILE> [--scale=N] [--seed=S]
//! ```

pub mod backend;
pub mod batch;

use backend::{Analysis, Events, RunConfig, BACKENDS};
use std::fmt::Write as _;
use std::io::Write;
use velodrome_events::{oracle, Trace, TraceStats};
use velodrome_sim::{run_program, RandomScheduler, WatchdogStats};
use velodrome_telemetry::Telemetry;
use velodrome_workloads::adversarial::adversarial_scheduler;

/// What went wrong, determining the process exit code. Scripts (and
/// `scripts/ci-gate.sh`) rely on the distinction: a malformed trace file
/// must be distinguishable from a missing one or a bad flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CliErrorKind {
    /// Bad command line: unknown command/flag/workload/backend (exit 2).
    Usage,
    /// The file system failed us: unreadable or unwritable path (exit 3).
    Io,
    /// The input file was read but could not be parsed; the message names
    /// the file, the byte offset, and the reason (exit 4).
    MalformedInput,
}

impl CliErrorKind {
    /// Process exit code for this kind of error.
    pub fn exit_code(self) -> i32 {
        match self {
            Self::Usage => 2,
            Self::Io => 3,
            Self::MalformedInput => 4,
        }
    }
}

/// A user-facing error with a message suitable for stderr and a kind
/// determining the exit code.
#[derive(Debug)]
pub struct CliError {
    /// Classification, mapped to an exit code via [`CliErrorKind::exit_code`].
    pub kind: CliErrorKind,
    /// Human-readable diagnostic.
    pub message: String,
}

impl CliError {
    /// Process exit code for this error.
    pub fn exit_code(&self) -> i32 {
        self.kind.exit_code()
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError {
        kind: CliErrorKind::Usage,
        message: msg.into(),
    }
}

fn io_err(msg: impl Into<String>) -> CliError {
    CliError {
        kind: CliErrorKind::Io,
        message: msg.into(),
    }
}

fn input_err(msg: impl Into<String>) -> CliError {
    CliError {
        kind: CliErrorKind::MalformedInput,
        message: msg.into(),
    }
}

/// Parsed command-line options.
#[derive(Debug, Default)]
struct Options {
    positional: Vec<String>,
    scale: u32,
    seed: u64,
    backend: String,
    out: Option<String>,
    dot: bool,
    adversarial: bool,
    no_merge: bool,
    no_gc: bool,
    json: bool,
    max_alive: usize,
    max_vars: usize,
    metrics_out: Option<String>,
    metrics_interval: u64,
    require: Option<String>,
    jobs: usize,
    report: Option<String>,
    to: Option<String>,
}

fn parse(args: &[String]) -> Result<Options, CliError> {
    let mut o = Options {
        scale: 1,
        seed: 0,
        backend: "velodrome".into(),
        metrics_interval: 10_000,
        jobs: 4,
        ..Default::default()
    };
    for a in args {
        if let Some(v) = a.strip_prefix("--scale=") {
            o.scale = v.parse().map_err(|_| err(format!("bad --scale: {v}")))?;
        } else if let Some(v) = a.strip_prefix("--seed=") {
            o.seed = v.parse().map_err(|_| err(format!("bad --seed: {v}")))?;
        } else if let Some(v) = a.strip_prefix("--backend=") {
            o.backend = v.to_owned();
        } else if let Some(v) = a.strip_prefix("--out=") {
            o.out = Some(v.to_owned());
        } else if a == "--dot" {
            o.dot = true;
        } else if a == "--adversarial" {
            o.adversarial = true;
        } else if a == "--no-merge" {
            o.no_merge = true;
        } else if a == "--no-gc" {
            o.no_gc = true;
        } else if a == "--json" {
            o.json = true;
        } else if let Some(v) = a.strip_prefix("--max-alive=") {
            o.max_alive = v
                .parse()
                .map_err(|_| err(format!("bad --max-alive: {v}")))?;
        } else if let Some(v) = a.strip_prefix("--max-vars=") {
            o.max_vars = v.parse().map_err(|_| err(format!("bad --max-vars: {v}")))?;
        } else if let Some(v) = a.strip_prefix("--metrics-out=") {
            o.metrics_out = Some(v.to_owned());
        } else if let Some(v) = a.strip_prefix("--metrics-interval=") {
            o.metrics_interval = v
                .parse()
                .ok()
                .filter(|n| *n > 0)
                .ok_or_else(|| err(format!("bad --metrics-interval (want events > 0): {v}")))?;
        } else if let Some(v) = a.strip_prefix("--require=") {
            o.require = Some(v.to_owned());
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            o.jobs = v
                .parse()
                .ok()
                .filter(|n| *n > 0)
                .ok_or_else(|| err(format!("bad --jobs (want workers > 0): {v}")))?;
        } else if let Some(v) = a.strip_prefix("--report=") {
            o.report = Some(v.to_owned());
        } else if let Some(v) = a.strip_prefix("--to=") {
            o.to = Some(v.to_owned());
        } else if a.starts_with("--") {
            return Err(err(format!("unknown flag: {a}")));
        } else {
            o.positional.push(a.clone());
        }
    }
    Ok(o)
}

/// Usage text.
pub const USAGE: &str = "usage:
  velodrome list
  velodrome check <workload> [--scale=N] [--seed=S] [--backend=NAME] [--dot] [--adversarial]
  velodrome record <workload> --out=FILE [--scale=N] [--seed=S]
  velodrome trace <FILE> [--backend=NAME] [--dot]
  velodrome oracle <FILE>
  velodrome info <workload|FILE> [--scale=N] [--seed=S]
  velodrome replay <workload> <FILE> [--scale=N]
  velodrome compare <workload|FILE> [--scale=N] [--seed=S]
  velodrome convert <IN> <OUT> [--to=json|vbt]
  velodrome check-batch <DIR|MANIFEST> [--jobs=N] [--backend=NAME] [--report=FILE]
  velodrome metrics-verify <FILE> [--require=NAME,NAME]
trace files: JSON or binary VBT, sniffed by magic bytes; `convert`
  translates between the formats and every command accepts either
backends: velodrome (default), atomizer, eraser, hb-race, fasttrack, s2pl,
  empty, all (velodrome, atomizer, eraser and hb-race in one run)
velodrome flags: --no-merge (naive Figure 2 rule), --no-gc,
  --max-alive=N / --max-vars=N (resource budgets; tripping one degrades the
  analysis down an explicit ladder instead of growing without bound)
output flags: --dot (error graphs), --json (machine-readable warnings)
metrics flags: --metrics-out=FILE (JSON Lines telemetry snapshots;
  backends that run the graph engine), --metrics-interval=N (events per
  snapshot, default 10000; a final snapshot is always written)
batch flags: --jobs=N (worker-pool size, default 4), --report=FILE (JSONL
  per-trace report to FILE, human summary to stdout; without it the JSONL
  goes to stdout); with --metrics-out, check-batch writes one merged
  snapshot carrying batch.* gauges
exit codes: 0 ok, 2 usage error, 3 I/O error, 4 malformed input file";

/// Executes a CLI invocation, returning the text it writes to stdout: the
/// output of [`execute_to`], collected.
pub fn execute(args: &[String]) -> Result<String, CliError> {
    let mut out = Vec::new();
    execute_to(args, &mut out)?;
    Ok(String::from_utf8_lossy(&out).into_owned())
}

/// Executes a CLI invocation, writing its stdout text to `out`, then
/// flushing it. A command whose output is bounded builds its text and
/// writes it once; `check-batch` without `--report` writes each JSONL line
/// as it commits, from its worker threads, hence the `Send` bound. A failed
/// write or flush is an I/O error (exit 3), `writing stdout: …`; what was
/// written before an error stays written.
pub fn execute_to(args: &[String], out: &mut (dyn Write + Send)) -> Result<(), CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(err(USAGE));
    };
    let opts = parse(rest)?;
    let text = match cmd.as_str() {
        "list" => Ok(list()),
        "check" => check(&opts),
        "record" => record(&opts),
        "trace" => trace_cmd(&opts),
        "oracle" => oracle_cmd(&opts),
        "info" => info(&opts),
        "replay" => replay(&opts),
        "compare" => compare(&opts),
        "convert" => convert(&opts),
        "check-batch" => batch::check_batch_cmd(&opts, out),
        "metrics-verify" => metrics_verify(&opts),
        other => Err(err(format!("unknown command `{other}`\n{USAGE}"))),
    }?;
    out.write_all(text.as_bytes())
        .and_then(|()| out.flush())
        .map_err(|e| write_err("stdout", e))
}

fn list() -> String {
    let mut out = String::new();
    for w in velodrome_workloads::all(1) {
        let _ = writeln!(
            out,
            "{:<12} {:>7} lines  {} truly non-atomic methods  — {}",
            w.name,
            w.paper_lines,
            w.non_atomic.len(),
            w.description
        );
    }
    out
}

fn load_workload(opts: &Options) -> Result<velodrome_workloads::Workload, CliError> {
    let name = opts.positional.first().ok_or_else(|| err(USAGE))?;
    velodrome_workloads::build(name, opts.scale)
        .ok_or_else(|| err(format!("unknown workload `{name}`; try `velodrome list`")))
}

/// Runs the selected workload and returns its trace plus the scheduler's
/// watchdog statistics (all-zero under the random scheduler, which has no
/// watchdog). The stats feed the `watchdog.*` gauges of `--metrics-out`.
fn produce_trace(opts: &Options) -> Result<(Trace, WatchdogStats), CliError> {
    produce_trace_with(opts, &Telemetry::disabled())
}

/// [`produce_trace`] with a telemetry registry: each scheduler decision is
/// timed under `phase.scheduler_step`.
fn produce_trace_with(
    opts: &Options,
    telemetry: &Telemetry,
) -> Result<(Trace, WatchdogStats), CliError> {
    use velodrome_sim::run_program_with_telemetry;
    let w = load_workload(opts)?;
    let (result, watchdog) = if opts.adversarial {
        let mut sched = adversarial_scheduler(opts.seed, 400);
        let result = run_program_with_telemetry(&w.program, &mut sched, telemetry);
        let watchdog = sched.watchdog_stats();
        (result, watchdog)
    } else {
        let result =
            run_program_with_telemetry(&w.program, RandomScheduler::new(opts.seed), telemetry);
        (result, WatchdogStats::default())
    };
    if result.deadlocked {
        return Err(err(format!("workload {} deadlocked", w.name)));
    }
    Ok((result.trace, watchdog))
}

fn analyze(
    events: Events<'_>,
    opts: &Options,
    watchdog: &WatchdogStats,
) -> Result<Analysis, CliError> {
    let telemetry = if opts.metrics_out.is_some() {
        Telemetry::registry()
    } else {
        Telemetry::disabled()
    };
    analyze_with(events, opts, watchdog, &telemetry)
}

/// [`analyze`] against a caller-provided registry, so phases recorded
/// before the analysis (e.g. `phase.scheduler_step` during trace
/// production) appear in the same `--metrics-out` snapshots.
fn analyze_with(
    events: Events<'_>,
    opts: &Options,
    watchdog: &WatchdogStats,
    telemetry: &Telemetry,
) -> Result<Analysis, CliError> {
    let backend = backend::resolve(&opts.backend, opts.metrics_out.is_some())?;
    let cfg = RunConfig {
        telemetry: telemetry.clone(),
        metrics_out: opts.metrics_out.clone(),
        metrics_interval: opts.metrics_interval,
        watchdog: *watchdog,
        ..run_config(opts)
    };
    (backend.run)(events, &cfg)
}

/// The analysis flags (`--no-merge`, `--no-gc`, `--max-alive`,
/// `--max-vars`) as a run config, the rest at its defaults. Every command
/// that runs a backend starts from it.
fn run_config(opts: &Options) -> RunConfig {
    RunConfig {
        merge: !opts.no_merge,
        gc: !opts.no_gc,
        budget: velodrome_monitor::ResourceBudget {
            max_alive_nodes: opts.max_alive,
            max_tracked_vars: opts.max_vars,
            ..velodrome_monitor::ResourceBudget::UNLIMITED
        },
        ..RunConfig::default()
    }
}

fn info(opts: &Options) -> Result<String, CliError> {
    // Accept a workload name or a recorded trace file.
    let arg = opts.positional.first().ok_or_else(|| err(USAGE))?;
    let trace = if velodrome_workloads::build(arg, 1).is_some() {
        produce_trace(opts)?.0
    } else {
        load_trace(opts)?
    };
    Ok(format!("{}\n", TraceStats::compute(&trace)))
}

fn replay(opts: &Options) -> Result<String, CliError> {
    use velodrome_sim::ReplayScheduler;
    let w = load_workload(opts)?;
    let path = opts.positional.get(1).ok_or_else(|| err(USAGE))?;
    let recording = read_trace_file(path)?;
    let mut replayer = ReplayScheduler::new(&recording);
    let result = run_program(&w.program, &mut replayer);
    if replayer.diverged() {
        return Err(err(format!(
            "replay diverged after {} of {} recorded events — the program does not \
             match the recording",
            replayer.replayed(),
            recording.len()
        )));
    }
    let mut out = format!(
        "replayed {} recorded events deterministically\n",
        replayer.replayed()
    );
    let analysis = analyze((&result.trace).into(), opts, &WatchdogStats::default())?;
    out.push_str(&render_analysis(&analysis, opts.dot));
    Ok(out)
}

fn compare(opts: &Options) -> Result<String, CliError> {
    let arg = opts.positional.first().ok_or_else(|| err(USAGE))?;
    let trace = if velodrome_workloads::build(arg, 1).is_some() {
        produce_trace(opts)?.0
    } else {
        load_trace(opts)?
    };
    let mut out = format!("{} events; warnings per tool:\n", trace.len());
    let cfg = run_config(opts);
    for backend in BACKENDS.iter().filter(|b| b.compare) {
        let start = std::time::Instant::now();
        let analysis = (backend.run)((&trace).into(), &cfg)?;
        let elapsed = start.elapsed();
        let _ = writeln!(
            out,
            "  {:<10} {:>4} warnings   {:>8.2?}",
            backend.name,
            analysis.warnings.len(),
            elapsed
        );
    }
    Ok(out)
}

fn render_analysis(analysis: &Analysis, dot: bool) -> String {
    let mut out = String::new();
    if analysis.warnings.is_empty() {
        let _ = writeln!(
            out,
            "no warnings: every observed transaction is serializable"
        );
    }
    for w in &analysis.warnings {
        let _ = writeln!(out, "{w}");
        if dot {
            if let Some(details) = &w.details {
                let _ = writeln!(out, "{details}");
            }
        }
    }
    for note in &analysis.notes {
        let _ = writeln!(out, "{note}");
    }
    let _ = writeln!(out, "({} events analyzed)", analysis.events);
    out
}

fn check(opts: &Options) -> Result<String, CliError> {
    let telemetry = if opts.metrics_out.is_some() {
        Telemetry::registry()
    } else {
        Telemetry::disabled()
    };
    let (trace, watchdog) = produce_trace_with(opts, &telemetry)?;
    let analysis = analyze_with((&trace).into(), opts, &watchdog, &telemetry)?;
    Ok(print_analysis(&analysis, opts))
}

fn record(opts: &Options) -> Result<String, CliError> {
    let (trace, _) = produce_trace(opts)?;
    let path = opts
        .out
        .as_deref()
        .ok_or_else(|| err("record requires --out=FILE"))?;
    write_output(path, |file| {
        velodrome_events::write_json(file, &trace).map_err(|e| write_err(path, e))
    })?;
    Ok(format!("recorded {} events to {path}\n", trace.len()))
}

/// Creates `path` and fills it with `write`. If `write` fails, a regular
/// file it left half-written is deleted, so a failed run leaves no partial
/// output behind.
fn write_output<T>(
    path: &str,
    write: impl FnOnce(std::fs::File) -> Result<T, CliError>,
) -> Result<T, CliError> {
    let file = std::fs::File::create(path).map_err(|e| write_err(path, e))?;
    let result = write(file);
    if result.is_err() {
        remove_partial(path);
    }
    result
}

/// Deletes the output a failed run left at `path` if it is a regular file
/// (never, say, `/dev/stdout`).
fn remove_partial(path: &str) {
    if std::fs::metadata(path).is_ok_and(|m| m.is_file()) {
        let _ = std::fs::remove_file(path);
    }
}

fn write_err(path: &str, e: std::io::Error) -> CliError {
    io_err(format!("writing {path}: {e}"))
}

/// Decodes a trace file (either format, sniffed by magic bytes) and hands
/// its operations to `on_block(first_index, ops)` one block at a time,
/// with structured diagnostics: an unreadable path is an I/O error
/// (exit 3); unparseable contents are a malformed-input error (exit 4)
/// naming the file, byte offset, and reason. Peak allocation is one fixed
/// read buffer and one block, whatever the file's length.
fn stream_trace_file(
    path: &str,
    on_block: impl FnMut(usize, &[velodrome_events::Op]),
) -> Result<velodrome_events::TraceSummary, CliError> {
    let file = std::fs::File::open(path).map_err(|e| io_err(format!("reading {path}: {e}")))?;
    velodrome_events::stream_trace(file, on_block).map_err(|e| read_err(path, e))
}

/// Reads a whole trace file into memory, for the commands that need the
/// [`Trace`] itself (`oracle`, `info`, `replay`, `compare`, `convert` to
/// VBT).
/// Diagnostics as for [`stream_trace_file`].
fn read_trace_file(path: &str) -> Result<Trace, CliError> {
    let file = std::fs::File::open(path).map_err(|e| io_err(format!("reading {path}: {e}")))?;
    velodrome_events::read_trace(file).map_err(|e| read_err(path, e))
}

fn read_err(path: &str, e: velodrome_events::TraceReadError) -> CliError {
    match e {
        velodrome_events::TraceReadError::Io(e) => io_err(format!("reading {path}: {e}")),
        malformed => input_err(format!("malformed trace file {path}: {malformed}")),
    }
}

/// Translates a trace between the JSON and VBT encodings. The target
/// format comes from `--to=json|vbt` or, failing that, the output path's
/// extension. Converting to JSON streams: no [`Trace`] is built, and memory
/// use does not grow with the trace. A malformed input fails with exit
/// code 4 and leaves no output file.
fn convert(opts: &Options) -> Result<String, CliError> {
    let inp = opts.positional.first().ok_or_else(|| err(USAGE))?;
    let out = opts
        .positional
        .get(1)
        .ok_or_else(|| err("convert requires an input and an output path"))?;
    let target = match opts.to.as_deref() {
        Some("json") => "json",
        Some("vbt") => "vbt",
        Some(other) => return Err(err(format!("bad --to: {other} (want json or vbt)"))),
        None if out.ends_with(".vbt") => "vbt",
        None if out.ends_with(".json") => "json",
        None => {
            return Err(err(format!(
                "cannot infer the target format from `{out}`; pass --to=json|vbt"
            )))
        }
    };
    let same_file = match (std::fs::canonicalize(inp), std::fs::canonicalize(out)) {
        (Ok(a), Ok(b)) => a == b,
        _ => false,
    };
    if same_file {
        return Err(err(format!("convert: {inp} and {out} are the same file")));
    }
    let events = if target == "vbt" {
        // VBT puts its string tables before the ops, so the whole trace is
        // read first.
        let trace = read_trace_file(inp)?;
        write_output(out, |file| {
            let mut w = std::io::BufWriter::new(file);
            velodrome_events::write_vbt(&mut w, &trace)
                .and_then(|()| w.flush())
                .map_err(|e| write_err(out, e))
        })?;
        trace.len()
    } else {
        // JSON puts `names` after the ops, and the reader returns them at
        // the end, so each block is written as soon as it is decoded.
        let src = std::fs::File::open(inp).map_err(|e| io_err(format!("reading {inp}: {e}")))?;
        write_output(out, |file| {
            let mut writer = velodrome_events::JsonTraceWriter::new(file);
            let mut written = Ok(());
            let summary = velodrome_events::stream_trace(src, |_, ops| {
                if written.is_ok() {
                    written = writer.ops(ops);
                }
            })
            .map_err(|e| read_err(inp, e))?;
            written
                .and_then(|()| writer.finish(&summary.names, &summary.synthesized))
                .map_err(|e| write_err(out, e))?;
            Ok(summary.ops)
        })?
    };
    Ok(format!(
        "converted {events} events: {inp} -> {out} ({target})\n"
    ))
}

fn load_trace(opts: &Options) -> Result<Trace, CliError> {
    let path = opts.positional.first().ok_or_else(|| err(USAGE))?;
    read_trace_file(path)
}

/// Checks a trace file as it is read: the file's blocks go to the backend
/// one at a time and no [`Trace`] is built.
fn trace_cmd(opts: &Options) -> Result<String, CliError> {
    let path = opts.positional.first().ok_or_else(|| err(USAGE))?;
    let analysis = analyze(Events::File(path), opts, &WatchdogStats::default())?;
    Ok(print_analysis(&analysis, opts))
}

/// The analysis as `--json` warnings, or as text.
fn print_analysis(analysis: &Analysis, opts: &Options) -> String {
    if opts.json {
        return format!(
            "{}\n",
            serde_json::to_string_pretty(&analysis.warnings).expect("warnings serialize")
        );
    }
    render_analysis(analysis, opts.dot)
}

/// Metric names every snapshot line must carry for downstream dashboards;
/// `scripts/ci-gate.sh` runs `metrics-verify` against a fresh `--metrics-out`
/// file to keep the contract honest.
const REQUIRED_METRICS: &[&str] = &[
    "arena.allocated",
    "arena.cur_alive",
    "engine.ops",
    "engine.ladder",
    "watchdog.pauses_issued",
];

/// Validates a `--metrics-out` JSON Lines file: every line parses as JSON,
/// carries `seq`/`events`/`metrics`, `seq` counts up from 0, and each
/// snapshot contains the required metric names — [`REQUIRED_METRICS`] plus
/// any extra names given via `--require=a,b,c` (how `scripts/ci-gate.sh`
/// pins the `phase.*` and `batch.*` records).
fn metrics_verify(opts: &Options) -> Result<String, CliError> {
    let path = opts.positional.first().ok_or_else(|| err(USAGE))?;
    let mut required: Vec<&str> = REQUIRED_METRICS.to_vec();
    if let Some(extra) = opts.require.as_deref() {
        for name in extra.split(',').filter(|n| !n.is_empty()) {
            required.push(name);
        }
    }
    let text = std::fs::read_to_string(path).map_err(|e| io_err(format!("reading {path}: {e}")))?;
    let mut snapshots = 0u64;
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: serde_json::Value = serde_json::from_str(line)
            .map_err(|e| input_err(format!("{path}:{}: not valid JSON: {e}", n + 1)))?;
        let seq = v["seq"]
            .as_u64()
            .ok_or_else(|| input_err(format!("{path}:{}: missing `seq`", n + 1)))?;
        if seq != snapshots {
            return Err(input_err(format!(
                "{path}:{}: snapshot seq {seq} out of order (expected {snapshots})",
                n + 1
            )));
        }
        v["events"]
            .as_u64()
            .ok_or_else(|| input_err(format!("{path}:{}: missing `events`", n + 1)))?;
        let metrics = v["metrics"]
            .as_object()
            .ok_or_else(|| input_err(format!("{path}:{}: missing `metrics` object", n + 1)))?;
        for name in &required {
            if metrics.get(name).is_none() {
                return Err(input_err(format!(
                    "{path}:{}: snapshot is missing required metric `{name}`",
                    n + 1
                )));
            }
        }
        snapshots += 1;
    }
    if snapshots == 0 {
        return Err(input_err(format!("{path}: no snapshots found")));
    }
    Ok(format!(
        "ok: {snapshots} snapshots, all {} required metrics present\n",
        required.len()
    ))
}

fn oracle_cmd(opts: &Options) -> Result<String, CliError> {
    let trace = load_trace(opts)?;
    let result = oracle::check(&trace);
    Ok(if result.serializable {
        "serializable: an equivalent serial trace exists\n".to_owned()
    } else {
        format!(
            "NOT serializable: witness cycle of {} transactions\n",
            result.cycle.map(|c| c.len()).unwrap_or(0)
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<String, CliError> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        execute(&owned)
    }

    #[test]
    fn list_names_all_benchmarks() {
        let out = run(&["list"]).unwrap();
        for name in velodrome_workloads::NAMES {
            assert!(out.contains(name), "{name} missing from list");
        }
    }

    #[test]
    fn check_multiset_reports_defects() {
        let out = run(&["check", "multiset", "--seed=1"]).unwrap();
        assert!(out.contains("is not atomic"), "{out}");
    }

    #[test]
    fn check_raja_is_clean() {
        let out = run(&["check", "raja"]).unwrap();
        assert!(out.contains("no warnings"), "{out}");
    }

    #[test]
    fn dot_flag_includes_graph() {
        let out = run(&["check", "multiset", "--dot"]).unwrap();
        assert!(out.contains("digraph"), "{out}");
    }

    #[test]
    fn backend_selection_works() {
        let out = run(&["check", "jbb", "--backend=atomizer"]).unwrap();
        assert!(out.contains("atomizer"), "{out}");
        let all = run(&["check", "jbb", "--backend=all"]).unwrap();
        assert!(all.contains("atomizer") || all.contains("eraser"), "{all}");
    }

    #[test]
    fn record_and_replay_roundtrip() {
        let dir = std::env::temp_dir().join("velodrome-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("multiset.json");
        let path_str = path.to_str().unwrap();
        let out = run(&["record", "multiset", &format!("--out={path_str}")]).unwrap();
        assert!(out.contains("recorded"), "{out}");
        let replay = run(&["trace", path_str]).unwrap();
        assert!(replay.contains("is not atomic"), "{replay}");
        let oracle_out = run(&["oracle", path_str]).unwrap();
        assert!(oracle_out.contains("NOT serializable"), "{oracle_out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn replay_reproduces_recorded_violation() {
        let dir = std::env::temp_dir().join("velodrome-cli-replay");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rec.json");
        let path_str = path.to_str().unwrap();
        // Find a seed whose run shows the violation, record it, replay it.
        let rec = run(&[
            "record",
            "multiset",
            "--seed=1",
            &format!("--out={path_str}"),
        ])
        .unwrap();
        assert!(rec.contains("recorded"));
        let out = run(&["replay", "multiset", path_str]).unwrap();
        assert!(out.contains("replayed"), "{out}");
        assert!(out.contains("is not atomic"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn errors_are_reported() {
        assert!(run(&["check", "nonesuch"]).is_err());
        assert!(run(&["frobnicate"]).is_err());
        assert!(run(&["check", "multiset", "--backend=nope"]).is_err());
        assert!(run(&["check", "multiset", "--bogus"]).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn usage_errors_exit_2() {
        for args in [
            &["frobnicate"][..],
            &["check", "nonesuch"],
            &["check", "multiset", "--backend=nope"],
            &["check", "multiset", "--max-alive=xyz"],
        ] {
            let e = run(args).unwrap_err();
            assert_eq!(e.kind, CliErrorKind::Usage, "{args:?}: {e}");
            assert_eq!(e.exit_code(), 2);
        }
    }

    #[test]
    fn missing_trace_file_is_io_error_exit_3() {
        for cmd in ["trace", "oracle"] {
            let e = run(&[cmd, "/nonexistent/velodrome-trace.json"]).unwrap_err();
            assert_eq!(e.kind, CliErrorKind::Io, "{cmd}: {e}");
            assert_eq!(e.exit_code(), 3);
            assert!(
                e.message.contains("/nonexistent/velodrome-trace.json"),
                "{e}"
            );
        }
        let e = run(&["replay", "multiset", "/nonexistent/rec.json"]).unwrap_err();
        assert_eq!(e.kind, CliErrorKind::Io, "{e}");
    }

    #[test]
    fn truncated_trace_file_is_malformed_input_exit_4() {
        let dir = std::env::temp_dir().join("velodrome-cli-truncated");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("truncated.json");
        let path_str = path.to_str().unwrap();
        // Record a valid trace, then truncate it mid-document.
        run(&["record", "multiset", &format!("--out={path_str}")]).unwrap();
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        for cmd in [&["trace", path_str][..], &["oracle", path_str]] {
            let e = run(cmd).unwrap_err();
            assert_eq!(e.kind, CliErrorKind::MalformedInput, "{cmd:?}: {e}");
            assert_eq!(e.exit_code(), 4);
            assert!(e.message.contains(path_str), "names the file: {e}");
            assert!(e.message.contains("byte"), "gives a byte offset: {e}");
        }
        let e = run(&["replay", "multiset", path_str]).unwrap_err();
        assert_eq!(e.kind, CliErrorKind::MalformedInput, "{e}");
        // Garbage that is valid JSON but not a trace is also malformed
        // input, not a crash.
        std::fs::write(&path, "{\"ops\": 42}").unwrap();
        let e = run(&["trace", path_str]).unwrap_err();
        assert_eq!(e.kind, CliErrorKind::MalformedInput, "{e}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn budget_flags_degrade_and_report() {
        let out = run(&["check", "multiset", "--seed=1", "--max-vars=1"]).unwrap();
        assert!(out.contains("degraded"), "{out}");
        // Unbudgeted output is unchanged and says nothing about degradation.
        let clean = run(&["check", "multiset", "--seed=1"]).unwrap();
        assert!(!clean.contains("degraded"), "{clean}");
    }

    #[test]
    fn info_reports_stats() {
        let out = run(&["info", "multiset"]).unwrap();
        assert!(out.contains("transactions"), "{out}");
        assert!(out.contains("threads"), "{out}");
    }

    #[test]
    fn no_merge_flag_still_detects() {
        let out = run(&["check", "multiset", "--no-merge", "--seed=1"]).unwrap();
        assert!(out.contains("is not atomic"), "{out}");
    }

    #[test]
    fn fasttrack_backend_runs() {
        let out = run(&["check", "tsp", "--backend=fasttrack"]).unwrap();
        assert!(out.contains("events analyzed"), "{out}");
    }

    #[test]
    fn s2pl_backend_flags_sufficient_condition_violations() {
        let out = run(&["check", "multiset", "--backend=s2pl"]).unwrap();
        assert!(out.contains("strict two-phase"), "{out}");
    }

    #[test]
    fn compare_lists_all_tools() {
        let out = run(&["compare", "jbb"]).unwrap();
        let rows: Vec<&str> = out
            .lines()
            .skip(1)
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        let compared: Vec<&str> = BACKENDS
            .iter()
            .filter(|b| b.compare)
            .map(|b| b.name)
            .collect();
        assert_eq!(rows, compared, "{out}");
        assert_eq!(rows.len(), 6, "{out}");
    }

    #[test]
    fn json_output_is_machine_readable() {
        let out = run(&["check", "multiset", "--seed=1", "--json"]).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(parsed.as_array().is_some_and(|a| !a.is_empty()), "{out}");
        assert_eq!(parsed[0]["tool"], "velodrome");
        assert_eq!(parsed[0]["category"], "atomicity");
    }

    #[test]
    fn adversarial_flag_runs() {
        let out = run(&["check", "elevator", "--adversarial"]).unwrap();
        assert!(out.contains("events analyzed"), "{out}");
    }

    #[test]
    fn metrics_out_writes_verifiable_snapshots() {
        let dir = std::env::temp_dir().join("velodrome-cli-metrics");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.jsonl");
        let path_str = path.to_str().unwrap();
        let out = run(&[
            "check",
            "multiset",
            "--seed=1",
            "--scale=4",
            &format!("--metrics-out={path_str}"),
            "--metrics-interval=100",
        ])
        .unwrap();
        assert!(out.contains("metric snapshots written"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 2, "expected interval + final snapshots");
        for line in &lines {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            let metrics = v["metrics"].as_object().unwrap();
            for name in REQUIRED_METRICS {
                assert!(metrics.get(name).is_some(), "missing {name}: {line}");
            }
        }
        let verified = run(&["metrics-verify", path_str]).unwrap();
        assert!(verified.contains("ok:"), "{verified}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn metrics_out_verifies_required_names() {
        let dir = std::env::temp_dir().join("velodrome-cli-metrics-require");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("require.jsonl");
        let path_str = path.to_str().unwrap();
        let out = run(&[
            "check",
            "multiset",
            "--seed=1",
            "--scale=4",
            &format!("--metrics-out={path_str}"),
            "--metrics-interval=100",
        ])
        .unwrap();
        assert!(out.contains("metric snapshots written"), "{out}");
        // The base contract plus the engine's phase records all verify.
        let verified = run(&[
            "metrics-verify",
            path_str,
            "--require=phase.advance,phase.add_edge,phase.cycle_check,phase.gc,phase.decode",
        ])
        .unwrap();
        assert!(verified.contains("ok:"), "{verified}");
        // Demanding a metric nobody publishes fails with exit 4.
        let e = run(&["metrics-verify", path_str, "--require=no.such.metric"]).unwrap_err();
        assert_eq!(e.kind, CliErrorKind::MalformedInput, "{e}");
        assert_eq!(e.exit_code(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn metrics_final_snapshot_always_written() {
        let dir = std::env::temp_dir().join("velodrome-cli-metrics-final");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("one.jsonl");
        let path_str = path.to_str().unwrap();
        // Interval far larger than the trace: only the final snapshot fires.
        run(&[
            "check",
            "multiset",
            &format!("--metrics-out={path_str}"),
            "--metrics-interval=100000000",
        ])
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1, "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn metrics_flags_are_validated() {
        let e = run(&["check", "multiset", "--metrics-interval=0"]).unwrap_err();
        assert_eq!(e.kind, CliErrorKind::Usage, "{e}");
        let dir = std::env::temp_dir().join("velodrome-cli-metrics-validated");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.jsonl");
        let metrics_out = format!("--metrics-out={}", path.display());
        let meterable = "velodrome, all";
        for backend in BACKENDS {
            let flag = format!("--backend={}", backend.name);
            let result = run(&["check", "multiset", &flag, &metrics_out]);
            if backend.meterable {
                let out = result.unwrap_or_else(|e| panic!("{}: {e}", backend.name));
                assert!(out.contains("metric snapshots written"), "{out}");
            } else {
                let e = result.unwrap_err();
                assert_eq!(e.kind, CliErrorKind::Usage, "{e}");
                assert!(e.message.contains(meterable), "{e}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_listed_backend_is_accepted() {
        for backend in BACKENDS {
            let out = run(&["check", "jbb", &format!("--backend={}", backend.name)]).unwrap();
            assert!(out.contains("events analyzed"), "{}: {out}", backend.name);
        }
    }

    #[test]
    fn retired_backends_and_window_flag_are_usage_errors() {
        for args in [
            &["check", "multiset", "--backend=velodrome-hybrid"][..],
            &["check", "multiset", "--backend=aerodrome"],
            &["check", "multiset", "--backend=velodrome-nomerge"],
            &["check", "multiset", "--window=4"],
        ] {
            let e = run(args).unwrap_err();
            assert_eq!(e.kind, CliErrorKind::Usage, "{args:?}: {e}");
            assert_eq!(e.exit_code(), 2, "{args:?}");
        }
    }

    /// A stdout that takes `room` bytes, then fails as a closed pipe does.
    struct ClosedAfter {
        room: usize,
    }

    impl Write for ClosedAfter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.room == 0 {
                return Err(std::io::ErrorKind::BrokenPipe.into());
            }
            let n = buf.len().min(self.room);
            self.room -= n;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failed_stdout_write_is_an_io_error() {
        let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus");
        for (args, room) in [
            (&["list"][..], 0),
            (&["check-batch", corpus, "--jobs=2"], 1000),
        ] {
            let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let e = execute_to(&owned, &mut ClosedAfter { room }).unwrap_err();
            assert_eq!(e.kind, CliErrorKind::Io, "{args:?}: {e}");
            assert_eq!(e.exit_code(), 3);
            assert!(e.message.contains("writing stdout"), "{args:?}: {e}");
        }
    }

    #[test]
    fn metrics_verify_rejects_bad_files() {
        let e = run(&["metrics-verify", "/nonexistent/metrics.jsonl"]).unwrap_err();
        assert_eq!(e.kind, CliErrorKind::Io);
        let dir = std::env::temp_dir().join("velodrome-cli-metrics-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.jsonl");
        let path_str = path.to_str().unwrap();
        for (contents, why) in [
            ("not json at all", "unparseable line"),
            ("{\"seq\": 0}", "missing fields"),
            ("", "no snapshots"),
            (
                "{\"seq\":0,\"events\":1,\"metrics\":{\"engine.ops\":{\"type\":\"gauge\",\"value\":1}}}",
                "missing required metric",
            ),
        ] {
            std::fs::write(&path, contents).unwrap();
            let e = run(&["metrics-verify", path_str]).unwrap_err();
            assert_eq!(e.kind, CliErrorKind::MalformedInput, "{why}: {e}");
            assert_eq!(e.exit_code(), 4, "{why}");
        }
        std::fs::remove_file(&path).ok();
    }
}
