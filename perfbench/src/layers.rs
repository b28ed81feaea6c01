//! The traced run's layer passes.
//!
//! Each pass calls one layer's public entry point over the workload's
//! traces inside a span, [`REPS`] times, and a metric is the median over
//! the repetitions of that span's self time. The calls are the ones
//! `execute` makes on its way through a check: decoding (`read_json_trace`,
//! `read_vbt`), analysis (`Velodrome::op`, through `run_tool`), cycle-report
//! rendering, encoding (`Trace::to_json`, `write_vbt`), telemetry, and the
//! batch runner; plus the hybrid and screen backends, which `execute` runs
//! only on request.
//!
//! Linearity probes compare a pass on the workload's inputs (2×) with the
//! same pass on a half-size input from the same generator (1×).

use crate::alloc::{self, MIB};
use crate::inputs::{events, Input};
use crate::spans::Tracer;
use crate::{median, verify, Metric, Tally};
use std::hint::black_box;
use std::path::PathBuf;
use velodrome::{
    CycleReport, HybridConfig, HybridVelodrome, Velodrome, VelodromeConfig, VelodromeStats,
};
use velodrome_cli::batch::{run_batch, BatchConfig, TraceStatus};
use velodrome_events::{read_json_trace, read_vbt, write_vbt, Op, Trace, TraceReadError};
use velodrome_monitor::{run_tool, Tool};
use velodrome_telemetry::Telemetry;
use velodrome_vclock::AeroDrome;

/// Repetitions of each pass.
const REPS: usize = 3;

/// What the traced run measures.
#[derive(Debug)]
pub struct Probe<'a> {
    /// The workload's inputs, as the untraced run checks them: the 2× side.
    pub full: &'a [Input],
    /// The same generator at half size: the 1× side.
    pub half: &'a [Input],
    /// Inputs of the JSON passes: `full`, except on fan-in, whose full
    /// trace is too large for the value tree `Trace::to_json` builds.
    pub json_full: &'a [Input],
    /// The half-size twin of `json_full`.
    pub json_half: &'a [Input],
    /// The written input files, for the batch runner.
    pub paths: Vec<PathBuf>,
}

/// Runs every pass and returns the per-layer metrics. Checks of what the
/// layers returned go into `tally`.
pub fn run(t: &mut Tracer, p: &Probe, tally: &mut Tally) -> Vec<Metric> {
    let mut m = Vec::new();
    formats(t, p, tally, &mut m);
    engine(t, p, tally, &mut m);
    backends(t, p, tally, &mut m);
    batch(t, p, tally, &mut m);
    m
}

fn config(trace: &Trace, telemetry: Telemetry) -> VelodromeConfig {
    VelodromeConfig {
        names: trace.names().clone(),
        telemetry,
        ..VelodromeConfig::default()
    }
}

/// `a / b`, or 0 when `b` is 0: a layer that did no work.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Median over the spans named `name` of self time per event, in ns.
fn ns_per_event(t: &Tracer, name: &str) -> f64 {
    let per: Vec<f64> = t
        .named(name)
        .iter()
        .map(|&(ns, events)| ratio(ns as f64, events as f64))
        .collect();
    median(&per)
}

/// Median self time, in ns, of the spans named `name`.
fn self_ns(t: &Tracer, name: &str) -> f64 {
    let all: Vec<f64> = t.named(name).iter().map(|&(ns, _)| ns as f64).collect();
    median(&all)
}

/// Cost growth per doubling of the input: `2^k` for a cost growing as
/// `events^k`, from a 1× and a 2× measurement. 2.0 is linear whatever the
/// exact event ratio of the two inputs.
fn doubling_ratio(cost_2x: f64, events_2x: u64, cost_1x: f64, events_1x: u64) -> f64 {
    let growth = events_2x as f64 / events_1x as f64;
    if cost_1x <= 0.0 || cost_2x <= 0.0 || growth <= 1.0 {
        return 0.0;
    }
    2f64.powf((cost_2x / cost_1x).ln() / growth.ln())
}

fn to_json(inputs: &[Input]) -> Vec<Vec<u8>> {
    inputs
        .iter()
        .map(|i| i.trace.to_json().into_bytes())
        .collect()
}

fn to_vbt(inputs: &[Input]) -> Vec<Vec<u8>> {
    inputs
        .iter()
        .map(|i| {
            let mut out = Vec::new();
            write_vbt(&mut out, &i.trace).expect("writing to memory cannot fail");
            out
        })
        .collect()
}

fn read_json(bytes: &[u8]) -> Result<Trace, TraceReadError> {
    read_json_trace(bytes)
}

fn read_binary(bytes: &[u8]) -> Result<Trace, TraceReadError> {
    read_vbt(bytes)
}

/// A trace format, as the decode probes see it.
struct Codec {
    span: &'static str,
    half_span: &'static str,
    ns_metric: &'static str,
    doubling_metric: &'static str,
    bytes_metric: &'static str,
    encode: fn(&[Input]) -> Vec<Vec<u8>>,
    read: fn(&[u8]) -> Result<Trace, TraceReadError>,
}

const STREAM: Codec = Codec {
    span: "events::read_json_trace",
    half_span: "events::read_json_trace(half)",
    ns_metric: "stream.decode_ns_per_event",
    doubling_metric: "stream.decode_doubling_ratio",
    bytes_metric: "stream.bytes_per_event",
    encode: to_json,
    read: read_json,
};

const VBT: Codec = Codec {
    span: "events::read_vbt",
    half_span: "events::read_vbt(half)",
    ns_metric: "vbt.decode_ns_per_event",
    doubling_metric: "vbt.decode_doubling_ratio",
    bytes_metric: "vbt.bytes_per_event",
    encode: to_vbt,
    read: read_binary,
};

/// Both trace formats: the encoders over the inputs `setup_s` writes, the
/// decoders over the 1× and 2× inputs.
fn formats(t: &mut Tracer, p: &Probe, tally: &mut Tally, m: &mut Vec<Metric>) {
    for _ in 0..REPS {
        black_box(t.span("events::Trace::to_json", events(p.json_full), |_| {
            to_json(p.json_full)
        }));
        black_box(t.span("events::write_vbt", events(p.full), |_| to_vbt(p.full)));
    }
    m.push(Metric::new(
        "trace.to_json_ns_per_event",
        ns_per_event(t, "events::Trace::to_json"),
        "ns/event",
    ));
    m.push(Metric::new(
        "vbt.encode_ns_per_event",
        ns_per_event(t, "events::write_vbt"),
        "ns/event",
    ));
    for (codec, full, half) in [(&STREAM, p.json_full, p.json_half), (&VBT, p.full, p.half)] {
        let encoded_full = (codec.encode)(full);
        let encoded_half = (codec.encode)(half);
        for _ in 0..REPS {
            for (span, inputs, encoded) in [
                (codec.span, full, &encoded_full),
                (codec.half_span, half, &encoded_half),
            ] {
                let decoded: Vec<_> = t.span(span, events(inputs), |_| {
                    encoded.iter().map(|b| (codec.read)(b)).collect()
                });
                for (trace, input) in decoded.iter().zip(inputs) {
                    tally.record(trace.as_ref().is_ok_and(|d| d.ops() == input.trace.ops()));
                }
            }
        }
        let bytes: usize = encoded_full.iter().map(Vec::len).sum();
        let growth = doubling_ratio(
            self_ns(t, codec.span),
            events(full),
            self_ns(t, codec.half_span),
            events(half),
        );
        m.push(Metric::new(
            codec.ns_metric,
            ns_per_event(t, codec.span),
            "ns/event",
        ));
        m.push(Metric::new(codec.doubling_metric, growth, "ratio"));
        m.push(Metric::new(
            codec.bytes_metric,
            ratio(bytes as f64, events(full) as f64),
            "bytes/event",
        ));
    }
}

/// The graph engine with telemetry disabled: its time per event, its
/// counters, its heap, its longest single `end`, and its linearity probe;
/// then the rendering of the cycle reports it produced.
fn engine(t: &mut Tracer, p: &Probe, tally: &mut Tally, m: &mut Vec<Metric>) {
    let n = events(p.full);
    let mut stats: Vec<VelodromeStats> = Vec::new();
    let mut reports: Vec<Vec<CycleReport>> = Vec::new();
    let (mut heap, mut violating) = (0, 0);
    for rep in 0..REPS {
        t.span("core::Velodrome::op", n, |_| {
            for input in p.full {
                let mut engine =
                    Velodrome::with_config(config(&input.trace, Telemetry::disabled()));
                // The trace is allocated already, so the peak is the
                // engine's own.
                let (warnings, peak) = alloc::peak_during(|| run_tool(&mut engine, &input.trace));
                if rep == 0 {
                    tally.record(verify::warnings_ok(input, &warnings));
                    violating += usize::from(!warnings.is_empty());
                    heap = heap.max(peak);
                    stats.push(engine.stats());
                    reports.push(engine.reports().to_vec());
                }
            }
        });
        t.span("core::Velodrome::op(half)", events(p.half), |_| {
            for input in p.half {
                let mut engine =
                    Velodrome::with_config(config(&input.trace, Telemetry::disabled()));
                black_box(run_tool(&mut engine, &input.trace));
            }
        });
    }
    println!("violating traces: {violating} of {}", p.full.len());
    // One more feed with a span around every `end`: the GC cascade runs
    // there, and its longest single stall is the metric.
    t.span("core::Velodrome::op(spans on end)", n, |t| {
        for input in p.full {
            let mut engine = Velodrome::with_config(config(&input.trace, Telemetry::disabled()));
            for (i, op) in input.trace.iter() {
                if matches!(op, Op::End { .. }) {
                    t.span("core::Velodrome::op(End)", 1, |_| engine.op(i, op));
                } else {
                    engine.op(i, op);
                }
            }
            engine.end_of_trace();
        }
    });
    let longest_end = t
        .named("core::Velodrome::op(End)")
        .iter()
        .map(|&(ns, _)| ns)
        .max()
        .unwrap_or(0);
    let sum = |f: fn(&VelodromeStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let (added, elided, hits) = (
        sum(|s| s.edges_added),
        sum(|s| s.edges_elided),
        sum(|s| s.epoch_hits),
    );
    let max_alive = stats.iter().map(|s| s.max_alive).max().unwrap_or(0);
    let growth = doubling_ratio(
        self_ns(t, "core::Velodrome::op"),
        n,
        self_ns(t, "core::Velodrome::op(half)"),
        events(p.half),
    );
    m.extend([
        Metric::new(
            "engine.ns_per_event",
            ns_per_event(t, "core::Velodrome::op"),
            "ns/event",
        ),
        Metric::new("engine.end_ms.max", longest_end as f64 / 1e6, "ms"),
        Metric::new("engine.doubling_ratio", growth, "ratio"),
        Metric::new("engine.peak_heap_mib", heap as f64 / MIB, "MiB"),
        Metric::new("arena.edges_added", added, "count"),
        Metric::new("arena.edges_elided", elided, "count"),
        Metric::new(
            "arena.elision_ratio",
            ratio(elided, added + elided),
            "ratio",
        ),
        Metric::new(
            "engine.epoch_hit_ratio",
            ratio(hits, hits + added + elided),
            "ratio",
        ),
        Metric::new("arena.max_alive", max_alive as f64, "count"),
        Metric::new(
            "engine.cycles_detected",
            sum(|s| s.cycles_detected),
            "count",
        ),
    ]);
    render(t, p, &reports, m);
}

/// The two renderings of a cycle report: its summary line and its DOT
/// error graph.
fn render(t: &mut Tracer, p: &Probe, reports: &[Vec<CycleReport>], m: &mut Vec<Metric>) {
    let count: u64 = reports.iter().map(|r| r.len() as u64).sum();
    let mut dot_bytes = 0;
    for _ in 0..REPS {
        dot_bytes = t.span("core::CycleReport::summary+to_dot", count, |_| {
            let mut bytes = 0;
            for (input, rs) in p.full.iter().zip(reports) {
                for r in rs {
                    black_box(r.summary(input.trace.names()));
                    bytes += r.to_dot(input.trace.names()).len();
                }
            }
            bytes
        });
    }
    m.push(Metric::new(
        "report.render_us_per_report",
        ns_per_event(t, "core::CycleReport::summary+to_dot") / 1e3,
        "us/report",
    ));
    m.push(Metric::new(
        "report.dot_bytes_per_report",
        ratio(dot_bytes as f64, count as f64),
        "bytes/report",
    ));
}

/// The engine with a live telemetry registry, the two-tier hybrid, and the
/// vector-clock screen alone, over the engine's traces.
fn backends(t: &mut Tracer, p: &Probe, tally: &mut Tally, m: &mut Vec<Metric>) {
    let n = events(p.full);
    let mut escalations = 0;
    for rep in 0..REPS {
        t.span("core::Velodrome::op(telemetry)", n, |_| {
            for input in p.full {
                let mut engine =
                    Velodrome::with_config(config(&input.trace, Telemetry::registry()));
                let warnings = run_tool(&mut engine, &input.trace);
                engine.publish_telemetry();
                if rep == 0 {
                    tally.record(verify::warnings_ok(input, &warnings));
                }
            }
        });
        t.span("core::HybridVelodrome::op", n, |_| {
            for input in p.full {
                let mut hybrid = HybridVelodrome::with_config(HybridConfig {
                    engine: config(&input.trace, Telemetry::disabled()),
                    ..HybridConfig::default()
                });
                let warnings = run_tool(&mut hybrid, &input.trace);
                if rep == 0 {
                    tally.record(verify::warnings_ok(input, &warnings));
                    escalations += hybrid.stats().escalations;
                }
            }
        });
        t.span("vclock::AeroDrome::op", n, |_| {
            for input in p.full {
                black_box(run_tool(&mut AeroDrome::new(), &input.trace));
            }
        });
    }
    let engine_ns = ns_per_event(t, "core::Velodrome::op");
    let telemetry_ns = ns_per_event(t, "core::Velodrome::op(telemetry)");
    let hybrid_ns = ns_per_event(t, "core::HybridVelodrome::op");
    m.extend([
        Metric::new("telemetry.engine_ns_per_event", telemetry_ns, "ns/event"),
        Metric::new(
            "telemetry.overhead_ratio",
            ratio(telemetry_ns, engine_ns),
            "ratio",
        ),
        Metric::new("hybrid.ns_per_event", hybrid_ns, "ns/event"),
        Metric::new("hybrid.escalations", escalations as f64, "count"),
        Metric::new(
            "aerodrome.ns_per_event",
            ns_per_event(t, "vclock::AeroDrome::op"),
            "ns/event",
        ),
        Metric::new(
            "hybrid.speedup_vs_engine",
            ratio(engine_ns, hybrid_ns),
            "ratio",
        ),
    ]);
}

/// The batch runner over the written input files with one and with two
/// workers, collecting metrics as `check-batch --metrics-out` does.
fn batch(t: &mut Tracer, p: &Probe, tally: &mut Tally, m: &mut Vec<Metric>) {
    const SPANS: [&str; 2] = [
        "cli::batch::run_batch(jobs=1)",
        "cli::batch::run_batch(jobs=2)",
    ];
    for _ in 0..REPS {
        for (jobs, span) in [1, 2].into_iter().zip(SPANS) {
            let cfg = BatchConfig {
                paths: p.paths.clone(),
                jobs,
                backend: "velodrome".to_owned(),
                collect_metrics: true,
            };
            match t.span(span, events(p.full), |_| run_batch(&cfg)) {
                Ok(report) => {
                    for (o, input) in report.outcomes.iter().zip(p.full) {
                        tally.record(
                            o.status == TraceStatus::Ok && verify::warnings_ok(input, &o.warnings),
                        );
                    }
                }
                Err(_) => tally.add(p.full.len() as u64, p.full.len() as u64),
            }
        }
    }
    let (one, two) = (self_ns(t, SPANS[0]), self_ns(t, SPANS[1]));
    m.push(Metric::new("batch.jobs1_wall_s", one / 1e9, "s"));
    m.push(Metric::new(
        "batch.parallel_speedup",
        ratio(one, two),
        "ratio",
    ));
}
