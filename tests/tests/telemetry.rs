//! Telemetry contract tests over the golden corpus.
//!
//! * The engine's `phase.*` records count exactly: `phase.advance` once per
//!   operation that reaches the happens-before machinery, `phase.gc` once
//!   per `Arena::finish`, `phase.cycle_check` once per detected cycle, and
//!   nothing at all when telemetry is disabled.
//! * Attaching a registry never changes what the checker reports: text,
//!   `--json` and `--dot` output and the analysis notes are byte-identical
//!   with and without one.
//! * The metric names of a `--metrics-out` snapshot, and the JSONL `type`
//!   of each, are pinned per meterable backend (`phase.decode` included,
//!   whatever the event source) and for the merged `check-batch`
//!   snapshot, which sums the per-trace phase counts, decoded blocks
//!   included, and keeps the maximum of the ladder and peak gauges.

use std::collections::BTreeMap;
use std::path::PathBuf;
use velodrome::{check_trace_with, VelodromeConfig};
use velodrome_cli::backend::{lookup, RunConfig, BACKENDS};
use velodrome_cli::execute;
use velodrome_events::{read_json_trace, vbt, Op, Trace};
use velodrome_monitor::DegradationLevel;
use velodrome_telemetry::{names, MetricValue, Telemetry};

const PHASES: [&str; 4] = [
    names::PHASE_ADVANCE,
    names::PHASE_ADD_EDGE,
    names::PHASE_CYCLE_CHECK,
    names::PHASE_GC,
];

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// Every corpus trace file, both encodings, sorted.
fn corpus_files() -> Vec<String> {
    let mut files: Vec<String> = std::fs::read_dir(corpus_dir())
        .expect("corpus dir exists")
        .map(|e| e.unwrap().path().display().to_string())
        .filter(|p| p.ends_with(".trace.json") || p.ends_with(".trace.vbt"))
        .collect();
    files.sort();
    assert!(files.len() >= 40, "corpus shrank to {}", files.len());
    files
}

fn corpus_path(name: &str) -> String {
    corpus_dir().join(name).display().to_string()
}

fn run(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|s| (*s).to_string()).collect();
    execute(&args).unwrap_or_else(|e| panic!("{args:?} failed: {e}"))
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("velodrome-telemetry-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Reads a corpus trace in either encoding.
fn load(path: &str) -> Trace {
    let file = std::fs::File::open(path).unwrap();
    let read = if path.ends_with(".vbt") {
        vbt::read_vbt(file)
    } else {
        read_json_trace(file)
    };
    read.unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The phase counts a registry holds after `publish`.
fn phase_counts(t: &Telemetry, events: u64) -> BTreeMap<&'static str, u64> {
    let snap = t.snapshot(0, events).expect("registry enabled");
    PHASES
        .iter()
        .map(|&name| match snap.metrics.get(name) {
            Some(MetricValue::Phase { count, .. }) => (name, *count),
            other => panic!("{name}: expected a phase, got {other:?}"),
        })
        .collect()
}

/// Outermost-block `end`s: each finishes a transaction node, which is the
/// only `Arena::finish` call site under the merge rule.
fn outermost_ends(trace: &Trace) -> u64 {
    let mut depth: BTreeMap<usize, u32> = BTreeMap::new();
    let mut ends = 0;
    for (_, op) in trace.iter() {
        match op {
            Op::Begin { t, .. } => *depth.entry(t.index()).or_default() += 1,
            Op::End { t } => {
                let d = depth.entry(t.index()).or_default();
                if *d == 1 {
                    ends += 1;
                }
                *d = d.saturating_sub(1);
            }
            _ => {}
        }
    }
    ends
}

#[test]
fn engine_phase_counts_are_exact_on_the_corpus() {
    for path in corpus_files().iter().filter(|p| p.ends_with(".json")) {
        let trace = load(path);
        let telemetry = Telemetry::registry();
        let cfg = VelodromeConfig {
            names: trace.names().clone(),
            telemetry: telemetry.clone(),
            ..VelodromeConfig::default()
        };
        let (_, engine) = check_trace_with(&trace, cfg);
        engine.publish_telemetry();
        let stats = engine.stats();
        // Unbudgeted and never degraded: every op reaches the machinery.
        assert_eq!(stats.ladder, DegradationLevel::Full, "{path}");
        let counts = phase_counts(&telemetry, trace.len() as u64);
        assert_eq!(counts[names::PHASE_ADVANCE], stats.ops, "{path}");
        assert_eq!(counts[names::PHASE_GC], outermost_ends(&trace), "{path}");
        assert_eq!(
            counts[names::PHASE_CYCLE_CHECK],
            stats.cycles_detected,
            "{path}"
        );
        // Every stored, elided or cycle-closing edge came from one call.
        assert!(
            counts[names::PHASE_ADD_EDGE]
                >= stats.edges_added + stats.edges_elided + stats.cycles_detected,
            "{path}: {counts:?} {stats:?}"
        );
    }
}

#[test]
fn disabled_telemetry_keeps_no_phase_records() {
    let trace = load(&corpus_path("multiset_small.trace.json"));
    let cfg = VelodromeConfig {
        names: trace.names().clone(),
        telemetry: Telemetry::disabled(),
        ..VelodromeConfig::default()
    };
    let (_, engine) = check_trace_with(&trace, cfg);
    assert!(engine.stats().ops > 0);
    // Published into a registry after the run, the phases read zero: the
    // disabled engine never counted a call or read the clock.
    let registry = Telemetry::registry();
    engine.publish_telemetry_to(&registry);
    let snap = registry.snapshot(0, 0).unwrap();
    for name in PHASES {
        assert_eq!(
            snap.metrics[name],
            MetricValue::Phase {
                count: 0,
                total_nanos: 0,
                max_nanos: 0
            },
            "{name}"
        );
    }
}

/// Drops the note `--metrics-out` adds; everything else must match.
fn without_metrics_note(out: &str) -> String {
    out.lines()
        .filter(|l| !l.contains("metric snapshots written to"))
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn telemetry_never_changes_a_verdict() {
    let dir = scratch_dir("verdicts");
    let metrics = dir.join("m.jsonl").display().to_string();
    let metrics_flag = format!("--metrics-out={metrics}");
    for path in corpus_files() {
        let backend = "velodrome";
        let backend_flag = format!("--backend={backend}");
        for format in ["--text", "--json", "--dot"] {
            let mut args = vec!["trace", path.as_str(), backend_flag.as_str()];
            if format != "--text" {
                args.push(format);
            }
            let plain = run(&args);
            args.push(&metrics_flag);
            let metered = run(&args);
            assert_eq!(
                without_metrics_note(&metered),
                plain,
                "{path} {backend} {format}"
            );
        }
        // The same through the backend table, notes included.
        let trace = load(&path);
        let entry = lookup(backend).unwrap();
        let with = |telemetry: Telemetry| {
            let cfg = RunConfig {
                telemetry,
                ..RunConfig::default()
            };
            let a = (entry.run)((&trace).into(), &cfg).unwrap();
            (serde_json::to_string(&a.warnings).unwrap(), a.notes)
        };
        assert_eq!(
            with(Telemetry::registry()),
            with(Telemetry::disabled()),
            "{path} {backend}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Each metric's JSONL `type`, by name, in one snapshot line.
fn line_types(line: &str) -> BTreeMap<String, String> {
    let v: serde_json::Value = serde_json::from_str(line).unwrap();
    v["metrics"]
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, m)| (k.clone(), m["type"].as_str().unwrap().to_owned()))
        .collect()
}

/// [`line_types`] of the last snapshot in a `--metrics-out` file.
fn snapshot_types(path: &str) -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(path).unwrap();
    line_types(text.lines().last().expect("at least one snapshot"))
}

/// The engine's scalars, published as gauges, except the three failure
/// counts, which keep the `counter` type.
const ENGINE_NAMES: [&str; 18] = [
    "arena.allocated",
    "arena.collected",
    "arena.cur_alive",
    "arena.edges_added",
    "arena.edges_elided",
    "arena.edges_replaced",
    "arena.exhausted",
    "arena.max_alive",
    "arena.ts_overflow",
    "engine.cycles_detected",
    "engine.degradations",
    "engine.epoch_hits",
    "engine.ladder",
    "engine.merges_bottom",
    "engine.merges_reused",
    "engine.ops",
    "engine.vars_quarantined",
    "engine.warnings_suppressed",
];

const ENGINE_COUNTERS: [&str; 3] = [
    names::ARENA_EXHAUSTED,
    names::ARENA_TS_OVERFLOW,
    names::ENGINE_DEGRADATIONS,
];

const WATCHDOG_NAMES: [&str; 4] = [
    "watchdog.forced_all_paused",
    "watchdog.forced_deadline",
    "watchdog.forced_sole_runnable",
    "watchdog.pauses_issued",
];

const BATCH_NAMES: [&str; 7] = [
    names::BATCH_TRACES_CHECKED,
    names::BATCH_TRACES_FAILED,
    names::BATCH_TRACES_QUARANTINED,
    names::BATCH_EVENTS_TOTAL,
    names::BATCH_EVENTS_PER_SEC,
    names::BATCH_WARNINGS_TOTAL,
    names::BATCH_JOBS,
];

/// The pinned `type` of every name a meterable backend's snapshot carries.
fn engine_snapshot_types() -> BTreeMap<String, String> {
    let mut types = BTreeMap::new();
    for name in ENGINE_NAMES.into_iter().chain(WATCHDOG_NAMES) {
        let kind = if ENGINE_COUNTERS.contains(&name) {
            "counter"
        } else {
            "gauge"
        };
        types.insert(name.to_owned(), kind.to_owned());
    }
    for name in PHASES.into_iter().chain([names::PHASE_DECODE]) {
        types.insert(name.to_owned(), "phase".to_owned());
    }
    types
}

#[test]
fn snapshot_name_sets_are_pinned() {
    let expected = engine_snapshot_types();
    assert_eq!(expected.len(), 27);
    let dir = scratch_dir("schema");
    let metrics = dir.join("m.jsonl").display().to_string();
    let metrics_flag = format!("--metrics-out={metrics}");
    let violating = corpus_path("figure1_rmw_violation.trace.json");
    let clean = corpus_path("figure1_serializable.trace.json");
    let mut checked = 0;
    for backend in BACKENDS.iter().filter(|b| b.meterable) {
        assert!(
            ["velodrome", "all"].contains(&backend.name),
            "meterable backend {} has no pinned name set",
            backend.name
        );
        let backend_flag = format!("--backend={}", backend.name);
        for trace in [&violating, &clean] {
            run(&["trace", trace, &backend_flag, &metrics_flag]);
            assert_eq!(
                snapshot_types(&metrics),
                expected,
                "{} {trace}",
                backend.name
            );
            // The same trace in memory: the set does not depend on the
            // event source.
            let cfg = RunConfig {
                telemetry: Telemetry::registry(),
                metrics_out: Some(metrics.clone()),
                ..RunConfig::default()
            };
            (backend.run)((&load(trace)).into(), &cfg).unwrap();
            assert_eq!(
                snapshot_types(&metrics),
                expected,
                "{} {trace} in memory",
                backend.name
            );
        }
        checked += 1;
    }
    assert_eq!(checked, 2);
    // The merged `check-batch` snapshot: the same types (the merge keeps
    // each kind) plus the `batch.*` gauges.
    let mut batch_expected = expected;
    for name in BATCH_NAMES {
        batch_expected.insert(name.to_owned(), "gauge".to_owned());
    }
    let corpus = corpus_dir().display().to_string();
    run(&["check-batch", &corpus, "--jobs=2", &metrics_flag]);
    let text = std::fs::read_to_string(&metrics).unwrap();
    assert_eq!(text.lines().count(), 1, "one merged snapshot");
    assert_eq!(line_types(&text), batch_expected, "check-batch");
    std::fs::remove_dir_all(&dir).ok();
}

/// The phase counts of a snapshot line, by name.
fn line_phase_counts(line: &str) -> BTreeMap<String, u64> {
    let v: serde_json::Value = serde_json::from_str(line).unwrap();
    PHASES
        .iter()
        .chain(&[names::PHASE_DECODE])
        .map(|&name| {
            let m = &v["metrics"][name];
            assert_eq!(m["type"], "phase", "{name} in {line}");
            (name.to_owned(), m["count"].as_u64().unwrap())
        })
        .collect()
}

#[test]
fn batch_snapshot_sums_phase_counts() {
    let dir = scratch_dir("batch");
    let merged = dir.join("merged.jsonl").display().to_string();
    let single = dir.join("single.jsonl").display().to_string();
    let corpus = corpus_dir().display().to_string();
    let backend = "velodrome";
    let backend_flag = format!("--backend={backend}");
    run(&[
        "check-batch",
        &corpus,
        "--jobs=2",
        &backend_flag,
        &format!("--metrics-out={merged}"),
    ]);
    let mut expected: BTreeMap<String, u64> = BTreeMap::new();
    for path in corpus_files() {
        run(&[
            "trace",
            &path,
            &backend_flag,
            &format!("--metrics-out={single}"),
        ]);
        let text = std::fs::read_to_string(&single).unwrap();
        for (name, count) in line_phase_counts(text.lines().last().unwrap()) {
            *expected.entry(name).or_default() += count;
        }
    }
    let text = std::fs::read_to_string(&merged).unwrap();
    let got = line_phase_counts(text.lines().next().unwrap());
    assert_eq!(got, expected, "{backend}");
    assert!(got[names::PHASE_ADVANCE] > 0, "{backend}: {got:?}");
    assert!(got[names::PHASE_DECODE] > 0, "{backend}: {got:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The merged `check-batch` snapshot keeps the meaning of a rung and of a
/// peak: `engine.ladder` and `arena.max_alive` merge by maximum, so two
/// traces that each exhaust the arena read rung 3 and one trace's peak,
/// while totals such as `engine.ops` still add.
#[test]
fn batch_snapshot_takes_the_max_of_ladder_and_peak_gauges() {
    let dir = scratch_dir("batch-max");
    let traces = dir.join("traces");
    std::fs::create_dir_all(&traces).unwrap();
    // T0 holds one block open around 70,000 short readers of x: more
    // alive nodes than the arena has slots.
    let mut ops = vec![
        r#"{"Begin":{"t":0,"l":0}}"#.to_owned(),
        r#"{"Write":{"t":0,"x":0}}"#.to_owned(),
    ];
    for _ in 0..70_000 {
        ops.push(r#"{"Begin":{"t":1,"l":1}},{"Read":{"t":1,"x":0}},{"End":{"t":1}}"#.to_owned());
    }
    ops.push(r#"{"End":{"t":0}}"#.to_owned());
    let json = format!(
        r#"{{"ops":[{}],"names":{{"threads":{{}},"vars":{{}},"locks":{{}},"labels":{{}}}}}}"#,
        ops.join(",")
    );
    for name in ["a.json", "b.json"] {
        std::fs::write(traces.join(name), &json).unwrap();
    }
    let single = dir.join("single.jsonl").display().to_string();
    run(&[
        "trace",
        &traces.join("a.json").display().to_string(),
        &format!("--metrics-out={single}"),
    ]);
    let merged = dir.join("merged.jsonl").display().to_string();
    run(&[
        "check-batch",
        &traces.display().to_string(),
        "--jobs=2",
        &format!("--metrics-out={merged}"),
    ]);
    let value = |path: &str, name: &str| -> u64 {
        let text = std::fs::read_to_string(path).unwrap();
        let v: serde_json::Value = serde_json::from_str(text.lines().last().unwrap()).unwrap();
        v["metrics"][name]["value"]
            .as_u64()
            .unwrap_or_else(|| panic!("{name} in {path}"))
    };
    assert_eq!(value(&single, names::ENGINE_LADDER), 3, "one trace");
    assert_eq!(value(&merged, names::ENGINE_LADDER), 3, "merged");
    let peak = value(&single, names::ARENA_MAX_ALIVE);
    assert!(peak > 60_000, "the readers fill the arena: {peak}");
    assert_eq!(value(&merged, names::ARENA_MAX_ALIVE), peak);
    assert_eq!(value(&single, names::ARENA_EXHAUSTED), 1);
    assert_eq!(value(&merged, names::ARENA_EXHAUSTED), 2, "counters add");
    assert_eq!(
        value(&merged, names::ENGINE_OPS),
        2 * value(&single, names::ENGINE_OPS),
        "totals add"
    );
    std::fs::remove_dir_all(&dir).ok();
}
