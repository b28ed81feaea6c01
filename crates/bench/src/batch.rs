//! Batch-throughput benchmark: JSON-serial vs. VBT-parallel checking.
//!
//! The `batch` binary builds a twin corpus — every generated trace written
//! once as pretty-agnostic JSON and once as the compact binary VBT format —
//! and then checks the whole corpus two ways:
//!
//! 1. **json-serial** — the pre-batch pipeline: slurp each `.json` file,
//!    parse it with [`Trace::from_json`] (the streaming JSON reader, over
//!    the in-memory text), and analyze traces one at a time on the calling
//!    thread;
//! 2. **vbt-parallel** — the `check-batch` pipeline: stream each `.vbt`
//!    twin through the zero-copy reader and fan the corpus over
//!    [`velodrome_cli::batch::run_batch`]'s worker pool.
//!
//! Both legs must produce byte-identical warning fingerprints per trace;
//! the binary asserts this before reporting. Results land in
//! `BENCH_batch.json` (see `EXPERIMENTS.md` for the methodology).

use serde::Serialize;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use velodrome_cli::backend::{lookup, RunConfig};
use velodrome_cli::batch::{BatchConfig, TraceStatus};
use velodrome_events::{vbt, Trace};
use velodrome_sim::{random_program, run_program, GenConfig, RandomScheduler};

/// One corpus trace: its twin files plus ground truth for the differential.
pub struct CorpusEntry {
    /// The JSON twin (`<stem>.json`).
    pub json_path: PathBuf,
    /// The VBT twin (`<stem>.vbt`).
    pub vbt_path: PathBuf,
    /// Operations in the trace.
    pub events: usize,
}

/// The generated corpus: twin files under one directory.
pub struct Corpus {
    /// Per-trace entries, in check order.
    pub entries: Vec<CorpusEntry>,
    /// Total bytes across the JSON twins.
    pub json_bytes: u64,
    /// Total bytes across the VBT twins.
    pub vbt_bytes: u64,
}

impl Corpus {
    /// Total operations across the corpus.
    pub fn events(&self) -> u64 {
        self.entries.iter().map(|e| e.events as u64).sum()
    }
}

/// Builds the benchmark corpus under `dir`: `traces` traces, the bulk of
/// them large serializable fan-in stress traces (ingestion-bound, so the
/// trace-format difference shows) and every fourth one a small
/// simulator-generated program run under a seeded random scheduler (so the
/// differential also covers warning-bearing traces). Each trace is written
/// twice: `<stem>.json` and a byte-equivalent `<stem>.vbt`.
pub fn build_corpus(dir: &Path, traces: u64, scale: u64, seed: u64) -> std::io::Result<Corpus> {
    std::fs::create_dir_all(dir)?;
    let mut corpus = Corpus {
        entries: Vec::new(),
        json_bytes: 0,
        vbt_bytes: 0,
    };
    for i in 0..traces {
        let trace = if i % 4 == 3 {
            sim_trace(seed + i)
        } else {
            crate::hotpath::fanin_stress_trace(2 + scale + i % 3, 4, 2 + scale)
        };
        let json_path = dir.join(format!("t{i:03}.json"));
        let vbt_path = dir.join(format!("t{i:03}.vbt"));
        let json = trace.to_json();
        std::fs::write(&json_path, &json)?;
        let file = BufWriter::new(std::fs::File::create(&vbt_path)?);
        vbt::write_vbt(file, &trace)?;
        corpus.json_bytes += json.len() as u64;
        corpus.vbt_bytes += std::fs::metadata(&vbt_path)?.len();
        corpus.entries.push(CorpusEntry {
            json_path,
            vbt_path,
            events: trace.len(),
        });
    }
    Ok(corpus)
}

/// A small simulator-generated trace (these carry the corpus's warnings).
fn sim_trace(seed: u64) -> Trace {
    let cfg = GenConfig {
        threads: 3,
        vars: 3,
        locks: 2,
        stmts_per_thread: 12,
        ..Default::default()
    };
    let program = random_program(&cfg, seed);
    run_program(&program, RandomScheduler::new(seed)).trace
}

/// One leg's timing plus its per-trace warning fingerprints.
pub struct LegResult {
    /// Wall milliseconds for the whole leg.
    pub millis: u64,
    /// `serde_json::to_string(&warnings)` per trace, in corpus order.
    pub fingerprints: Vec<String>,
}

impl LegResult {
    /// Aggregate throughput in events per second of wall time.
    pub fn events_per_sec(&self, events: u64) -> u64 {
        if self.millis == 0 {
            return events * 1000;
        }
        events * 1000 / self.millis
    }
}

/// The json-serial leg: slurp + parse + one-at-a-time analysis.
pub fn run_json_serial(corpus: &Corpus, backend: &str) -> LegResult {
    let backend = lookup(backend).expect("backend is in the table");
    let start = std::time::Instant::now();
    let mut fingerprints = Vec::with_capacity(corpus.entries.len());
    for entry in &corpus.entries {
        let json = std::fs::read_to_string(&entry.json_path).expect("corpus json twin reads");
        let trace = Trace::from_json(&json).expect("corpus json twin parses");
        let analysis =
            (backend.run)((&trace).into(), &RunConfig::default()).expect("serial analysis");
        fingerprints.push(serde_json::to_string(&analysis.warnings).expect("warnings serialize"));
    }
    LegResult {
        millis: start.elapsed().as_millis() as u64,
        fingerprints,
    }
}

/// The vbt-parallel leg: the `check-batch` worker pool over the VBT twins.
pub fn run_vbt_parallel(corpus: &Corpus, backend: &str, jobs: usize) -> LegResult {
    let cfg = BatchConfig {
        paths: corpus.entries.iter().map(|e| e.vbt_path.clone()).collect(),
        jobs,
        backend: backend.to_owned(),
        collect_metrics: false,
    };
    let start = std::time::Instant::now();
    let report = velodrome_cli::batch::run_batch(&cfg).expect("batch run succeeds");
    let millis = start.elapsed().as_millis() as u64;
    let fingerprints = report
        .outcomes
        .iter()
        .map(|o| {
            assert_eq!(o.status, TraceStatus::Ok, "{}: {:?}", o.path, o.message);
            serde_json::to_string(&o.warnings).expect("warnings serialize")
        })
        .collect();
    LegResult {
        millis,
        fingerprints,
    }
}

/// What `BENCH_batch.json` records.
#[derive(Serialize)]
pub struct BatchBenchReport {
    /// Traces in the generated corpus.
    pub corpus_traces: u64,
    /// Total operations across the corpus.
    pub corpus_events: u64,
    /// Generator seed (corpus is reproducible from it).
    pub seed: u64,
    /// Worker-pool size of the parallel leg.
    pub jobs: u64,
    /// Backend both legs checked with.
    pub backend: String,
    /// Total bytes across the JSON twins.
    pub json_bytes: u64,
    /// Total bytes across the VBT twins.
    pub vbt_bytes: u64,
    /// Wall milliseconds of the json-serial leg.
    pub json_serial_millis: u64,
    /// Aggregate events/sec of the json-serial leg.
    pub json_serial_events_per_sec: u64,
    /// Wall milliseconds of the vbt-parallel leg.
    pub vbt_parallel_millis: u64,
    /// Aggregate events/sec of the vbt-parallel leg.
    pub vbt_parallel_events_per_sec: u64,
    /// `vbt_parallel_events_per_sec / json_serial_events_per_sec`.
    pub speedup: f64,
    /// Whether every per-trace warning fingerprint matched across legs.
    pub outputs_identical: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legs_agree_on_a_small_corpus() {
        let dir = std::env::temp_dir().join("velodrome-bench-batch-test");
        let _ = std::fs::remove_dir_all(&dir);
        let corpus = build_corpus(&dir, 6, 1, 42).expect("corpus builds");
        assert_eq!(corpus.entries.len(), 6);
        assert!(
            corpus.vbt_bytes < corpus.json_bytes,
            "VBT should be smaller"
        );
        let serial = run_json_serial(&corpus, "velodrome-hybrid");
        let parallel = run_vbt_parallel(&corpus, "velodrome-hybrid", 2);
        assert_eq!(serial.fingerprints, parallel.fingerprints);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
