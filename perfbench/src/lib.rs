//! The repository benchmark for the Velodrome checker.
//!
//! Each workload ([`inputs::Workload`]) is generated from a seed and written
//! through the public encoders; the checker then sees only those files,
//! through the entry point the `velodrome` binary calls,
//! [`velodrome_cli::execute`]. An untraced run reports the end-to-end
//! metrics ([`e2e`]). A traced run times the public call into each layer
//! ([`layers`]), reports per-layer metrics from span self times
//! ([`spans`]), and reports the tracing overhead on the end-to-end check.

pub mod alloc;
pub mod e2e;
pub mod inputs;
pub mod layers;
pub mod spans;
pub mod verify;

use e2e::{at_reference_speed, calibration_s, E2e};
use inputs::{events, generate, write_all, Input, Size, Workload};
use spans::Tracer;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Where runs keep their inputs, reports and span files, relative to the
/// working directory, which is the repository root.
pub const WORK_DIR: &str = ".perfbench_work";

/// Times a run encodes and writes its inputs; `setup_s` is their median,
/// at reference speed.
const SETUP_REPEATS: usize = 5;

/// One run, as the command line asks for it.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// What to check.
    pub workload: Workload,
    /// Seed of the inputs.
    pub seed: u64,
    /// How long to repeat the end-to-end check.
    pub seconds: u64,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end ones.
    pub traced: bool,
}

/// A named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// Trace checks attempted and failed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Checks made.
    pub attempted: u64,
    /// Checks that errored or got a verdict the reference contradicts.
    pub failed: u64,
}

impl Tally {
    /// Counts one check.
    pub fn record(&mut self, ok: bool) {
        self.add(1, u64::from(!ok));
    }

    /// Counts `attempted` checks, `failed` of which failed.
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// `failed_ratio`: failed checks over attempted ones.
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Every trace check the run made.
    pub tally: Tally,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0 && self.tally.attempted > 0,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// Quartiles of `xs` as Python's `statistics.quantiles(xs, n=4)` computes
/// them (its default, exclusive method); zeros for no samples.
fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => [0.0; 3],
        1 => [s[0]; 3],
        len => [1, 2, 3].map(|i: i64| {
            let (n, m) = (len as i64, len as i64 + 1);
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m - j * 4) as f64;
            let j = j as usize;
            (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
        }),
    }
}

/// The median of `xs`; 0 for no samples.
pub(crate) fn median(xs: &[f64]) -> f64 {
    quartiles(xs)[1]
}

/// A run's scratch directory under [`WORK_DIR`], removed when the run
/// ends.
struct WorkDir {
    root: PathBuf,
    inputs: PathBuf,
    out: PathBuf,
}

impl WorkDir {
    fn create(workload: Workload) -> Result<Self, String> {
        let root = Path::new(WORK_DIR).join(format!("{}-{}", workload.name(), std::process::id()));
        let (inputs, out) = (root.join("inputs"), root.join("out"));
        for dir in [&inputs, &out] {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        Ok(Self { root, inputs, out })
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Generates the inputs and writes them [`SETUP_REPEATS`] times, then
/// measures the end-to-end check, or makes the traced run.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let work = WorkDir::create(cfg.workload)?;
    let inputs = generate(cfg.workload, cfg.seed, Size::FULL);
    let (mut setup_s, mut setup_calibration) = (Vec::new(), Vec::new());
    let mut bytes = 0;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        bytes = write_all(&work.inputs, &inputs).map_err(|e| format!("writing inputs: {e}"))?;
        setup_s.push(start.elapsed().as_secs_f64());
        setup_calibration.push(calibration_s());
    }
    println!(
        "{} (seed {}): {} traces, {} events, {bytes} bytes of input",
        cfg.workload.name(),
        cfg.seed,
        inputs.len(),
        events(&inputs)
    );
    let e2e = E2e::new(cfg.workload, &inputs, &work.inputs, &work.out);
    let budget = Duration::from_secs(cfg.seconds);
    let outcome = if cfg.traced {
        traced(cfg, &e2e, &inputs, &work, budget)?
    } else {
        let s = e2e.measure(budget, None);
        print_series("wall_s as measured", "s", &s.wall_s);
        print_series("calibration_s", "s", &s.calibration_s);
        print_series("peak_heap_mib", "MiB", &s.peak_heap_mib);
        print_series("setup_s as measured", "s", &setup_s);
        let metrics = vec![
            Metric::new("wall_s", s.wall(), "s"),
            Metric::new("peak_heap_mib", median(&s.peak_heap_mib), "MiB"),
            Metric::new(
                "setup_s",
                at_reference_speed(&setup_s, &setup_calibration),
                "s",
            ),
        ];
        for m in &metrics {
            println!("{:<30} {:>14.6} {}", m.name, m.value, m.unit);
        }
        Outcome {
            tally: s.tally,
            metrics,
        }
    };
    let t = outcome.tally;
    println!(
        "{:<30} {:>14.6} fraction  ({} of {} trace checks failed)",
        "failed_ratio",
        t.failed_ratio(),
        t.failed,
        t.attempted
    );
    Ok(outcome)
}

/// Prints a series' median, quartiles and sample count.
fn print_series(name: &str, unit: &str, xs: &[f64]) {
    let [q1, q2, q3] = quartiles(xs);
    println!(
        "{name:<30} {q2:>14.6} {unit:<8}  (median of {}; quartiles {q1:.6} .. {q3:.6})",
        xs.len()
    );
}

/// The traced run: the end-to-end check untraced and then inside spans,
/// for the tracing overhead, then every layer pass.
fn traced(
    cfg: &Config,
    e2e: &E2e,
    inputs: &[Input],
    work: &WorkDir,
    budget: Duration,
) -> Result<Outcome, String> {
    let half = generate(cfg.workload, cfg.seed, Size::FULL.half());
    let fanin_json = (cfg.workload == Workload::Fanin).then(|| {
        let size = Size::FULL.fanin_json();
        (
            generate(cfg.workload, cfg.seed, size),
            generate(cfg.workload, cfg.seed, size.half()),
        )
    });
    let (json_full, json_half) = match &fanin_json {
        Some((f, h)) => (&f[..], &h[..]),
        None => (inputs, &half[..]),
    };
    let mut tracer = Tracer::new();
    let untraced = e2e.measure(budget / 2, None);
    let traced = e2e.measure(budget / 2, Some(&mut tracer));
    let mut tally = untraced.tally;
    tally.add(traced.tally.attempted, traced.tally.failed);
    let probe = layers::Probe {
        full: inputs,
        half: &half,
        json_full,
        json_half,
        paths: inputs.iter().map(|i| work.inputs.join(&i.file)).collect(),
    };
    let mut metrics = tracer.span("perfbench::layers", 0, |t| {
        layers::run(t, &probe, &mut tally)
    });
    let (untraced_s, traced_s) = (untraced.wall(), traced.wall());
    metrics.extend([
        Metric::new("trace.untraced_wall_s", untraced_s, "s"),
        Metric::new("trace.traced_wall_s", traced_s, "s"),
        Metric::new("trace.overhead_s", traced_s - untraced_s, "s"),
    ]);
    for m in &metrics {
        println!("{:<30} {:>14.6} {}", m.name, m.value, m.unit);
    }
    let spans = Path::new(WORK_DIR).join(format!("spans-{}.jsonl", cfg.workload.name()));
    tracer
        .write_jsonl(&spans)
        .map_err(|e| format!("writing {}: {e}", spans.display()))?;
    println!("spans written to {}", spans.display());
    Ok(Outcome { tally, metrics })
}
