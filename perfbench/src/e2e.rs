//! The end-to-end check: one [`velodrome_cli::execute`] call over the
//! workload's whole input, as the `velodrome` binary makes it minus the
//! final print, timed, heap-measured and checked.

use crate::alloc::{self, MIB};
use crate::inputs::{events, Input, Workload};
use crate::spans::Tracer;
use crate::{median, verify, Tally};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Workers of the batch check: the machine's two CPUs.
const BATCH_JOBS: usize = 2;

/// Fewest timed checks a run makes, however long each takes.
const MIN_SAMPLES: usize = 5;

/// What [`calibration_s`] takes on the reference machine, a 2-vCPU x86-64
/// VM.
const REFERENCE_CALIBRATION_S: f64 = 0.040;

/// Times a fixed single-threaded task of the benchmark's own, unaffected
/// by any change to the program: sort a million pseudo-random integers and
/// count a quarter of them in a hash map. The host's memory-bound speed
/// drifts by tens of percent over minutes, on memory-heavy work and on this
/// task alike, so such work's time divided by the task's time measured
/// beside it is steady. A time reported "at reference speed" is
/// that ratio, over a run's medians, times [`REFERENCE_CALIBRATION_S`].
pub(crate) fn calibration_s() -> f64 {
    let start = Instant::now();
    let mut v: Vec<u64> = (0..1_000_000u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7)
        .collect();
    v.sort_unstable();
    let mut counts = std::collections::HashMap::new();
    for x in v.iter().step_by(4) {
        *counts.entry(x % 100_003).or_insert(0u64) += 1;
    }
    std::hint::black_box(&counts);
    start.elapsed().as_secs_f64()
}

/// The median of `seconds` at reference speed, given the [`calibration_s`]
/// runs interleaved with them. Medians are taken first: a ratio per sample
/// would add the calibration's own sample noise.
pub(crate) fn at_reference_speed(seconds: &[f64], calibrations: &[f64]) -> f64 {
    median(seconds) * REFERENCE_CALIBRATION_S / median(calibrations)
}

/// One workload's check, ready to repeat.
#[derive(Debug)]
pub struct E2e<'a> {
    inputs: &'a [Input],
    args: Vec<String>,
    /// Whether `wall_s` is reported at reference speed. The checks that
    /// stream tens of megabytes through memory (fan-in decodes a 24 MiB
    /// trace, the batch reads 44 MB of JSON) drift with the memory-heavy
    /// [`calibration_s`] task, and dividing by it cut their spread over
    /// seeds from 25% and 16% to 2-7% and 8-11%. The cache-resident
    /// long-transaction check did not track the task, and dividing widened
    /// its spread, so it is reported as measured.
    calibrated: bool,
    /// `check-batch`'s report and metrics files, on the batch workload.
    batch_files: Option<(PathBuf, PathBuf)>,
}

/// One check.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Wall time of the `execute` call.
    pub wall_s: f64,
    /// Peak live heap during the call, above the level before it.
    pub peak_heap_mib: f64,
    /// Traces the check got wrong.
    pub failed: u64,
}

/// A run's timed checks.
#[derive(Debug, Default)]
pub struct Samples {
    /// Wall time of each timed check, as measured.
    pub wall_s: Vec<f64>,
    /// Time of the [`calibration_s`] run after each timed check, if any.
    pub calibration_s: Vec<f64>,
    /// Peak heap of each timed check.
    pub peak_heap_mib: Vec<f64>,
    /// Trace checks of every call, the untimed warm-up included.
    pub tally: Tally,
}

impl Samples {
    /// The run's `wall_s`: the median check time, at reference speed when
    /// the check was calibrated.
    pub fn wall(&self) -> f64 {
        if self.calibration_s.is_empty() {
            median(&self.wall_s)
        } else {
            at_reference_speed(&self.wall_s, &self.calibration_s)
        }
    }
}

impl<'a> E2e<'a> {
    /// The check of `inputs`, already written to `input_dir`; the batch
    /// workload writes its report and metrics to `out_dir`.
    pub fn new(workload: Workload, inputs: &'a [Input], input_dir: &Path, out_dir: &Path) -> Self {
        let arg = |p: &Path| p.display().to_string();
        match workload {
            Workload::Fleet => {
                let report = out_dir.join("report.jsonl");
                let metrics = out_dir.join("metrics.jsonl");
                let args = vec![
                    "check-batch".to_owned(),
                    arg(input_dir),
                    format!("--jobs={BATCH_JOBS}"),
                    format!("--report={}", arg(&report)),
                    format!("--metrics-out={}", arg(&metrics)),
                ];
                Self {
                    inputs,
                    args,
                    calibrated: true,
                    batch_files: Some((report, metrics)),
                }
            }
            Workload::Fanin | Workload::Longtxn => Self {
                inputs,
                args: vec!["trace".to_owned(), arg(&input_dir.join(&inputs[0].file))],
                calibrated: workload == Workload::Fanin,
                batch_files: None,
            },
        }
    }

    /// Traces one check covers.
    pub fn traces(&self) -> u64 {
        self.inputs.len() as u64
    }

    /// Checks the whole input once.
    pub fn check(&self) -> Sample {
        let ((result, wall), peak) = alloc::peak_during(|| {
            let start = Instant::now();
            let result = velodrome_cli::execute(&self.args);
            (result, start.elapsed())
        });
        let failed = match (result, &self.batch_files) {
            (Err(e), _) => {
                eprintln!("perfbench: {} failed: {e}", self.args[0]);
                self.traces()
            }
            (Ok(stdout), None) => u64::from(!verify::trace_output_ok(&self.inputs[0], &stdout)),
            (Ok(_), Some((report, metrics))) => {
                let read = |p: &Path| std::fs::read_to_string(p).unwrap_or_default();
                verify::batch_failures(self.inputs, &read(report), &read(metrics))
            }
        };
        Sample {
            wall_s: wall.as_secs_f64(),
            peak_heap_mib: peak as f64 / MIB,
            failed,
        }
    }

    /// Checks once untimed, so caches are warm and the input files are in
    /// the page cache, then repeats the check for `budget`, and at least
    /// [`MIN_SAMPLES`] times, each followed by a [`calibration_s`] run when
    /// the check is calibrated.
    /// With a tracer, each timed check runs inside a span.
    pub fn measure(&self, budget: Duration, mut tracer: Option<&mut Tracer>) -> Samples {
        let mut s = Samples::default();
        s.tally.add(self.traces(), self.check().failed);
        let events = events(self.inputs);
        let start = Instant::now();
        while s.wall_s.len() < MIN_SAMPLES || start.elapsed() < budget {
            let sample = match tracer.as_deref_mut() {
                Some(t) => t.span("cli::execute", events, |_| self.check()),
                None => self.check(),
            };
            if self.calibrated {
                s.calibration_s.push(calibration_s());
            }
            s.tally.add(self.traces(), sample.failed);
            s.wall_s.push(sample.wall_s);
            s.peak_heap_mib.push(sample.peak_heap_mib);
        }
        s
    }
}
