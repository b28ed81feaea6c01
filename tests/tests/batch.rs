//! Integration tests for the VBT trace format and the batch runner.
//!
//! Three layers of assurance:
//!
//! * every corpus trace has a `.trace.vbt` twin that is *semantically
//!   byte-identical* — same [`Trace::to_json`] bytes, and byte-identical
//!   warnings from the checker on both twins;
//! * `velodrome check-batch` over the whole corpus reports, per trace,
//!   exactly the warnings a serial `velodrome trace` run produces;
//! * a property test drives json → vbt → json over the simulator's
//!   generator space and demands byte equality.
//!
//! Regenerate the twins after changing a corpus program or the wire
//! format (bump [`vbt::VERSION`] for the latter):
//!
//! ```text
//! cargo test -p velodrome-integration --test corpus_conformance \
//!     regenerate_corpus -- --ignored
//! ```

use proptest::prelude::*;
use std::io::Cursor;
use std::path::PathBuf;
use velodrome_cli::execute;
use velodrome_events::{vbt, Trace};
use velodrome_sim::{random_program, run_program, GenConfig, RandomScheduler};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// Sorted corpus trace stems (paths without the `.trace.json` suffix).
fn corpus_stems() -> Vec<PathBuf> {
    let mut stems: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("corpus dir exists")
        .map(|e| e.unwrap().path())
        .filter_map(|p| {
            let name = p.file_name()?.to_str()?;
            let stem = name.strip_suffix(".trace.json")?;
            Some(p.with_file_name(stem))
        })
        .collect();
    stems.sort();
    assert!(stems.len() >= 20, "corpus shrank to {}", stems.len());
    stems
}

fn run(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|s| (*s).to_string()).collect();
    execute(&args).unwrap_or_else(|e| panic!("{args:?} failed: {e}"))
}

/// Every `.trace.json` has a `.trace.vbt` twin decoding to the identical
/// trace, and the checker's warnings are byte-identical across the twins.
#[test]
fn corpus_vbt_twins_are_verdict_identical() {
    for stem in corpus_stems() {
        let json_path = format!("{}.trace.json", stem.display());
        let vbt_path = format!("{}.trace.vbt", stem.display());
        let json = std::fs::read_to_string(&json_path).expect("json twin reads");
        let bytes = std::fs::read(&vbt_path)
            .unwrap_or_else(|_| panic!("{vbt_path} missing; regenerate_corpus -- --ignored"));

        let from_json = Trace::from_json(&json).expect("json twin parses");
        let from_vbt = vbt::read_vbt(Cursor::new(&bytes)).expect("vbt twin parses");
        assert_eq!(
            from_vbt.to_json(),
            from_json.to_json(),
            "{vbt_path}: twin decodes to a different trace"
        );
        assert_eq!(
            vbt::trace_to_vbt(&from_json),
            bytes,
            "{vbt_path}: stale twin; regenerate_corpus -- --ignored"
        );

        let serial = run(&["trace", &json_path, "--json"]);
        let twin = run(&["trace", &vbt_path, "--json"]);
        assert_eq!(serial, twin, "{vbt_path}: verdict diverges");
    }
}

/// `check-batch` over the whole corpus (both formats at once) reports
/// per-trace warnings byte-identical to serial single-trace runs, in
/// deterministic input order.
#[test]
fn check_batch_agrees_with_serial_runs_over_the_corpus() {
    let dir = corpus_dir();
    let out = run(&[
        "check-batch",
        dir.to_str().unwrap(),
        "--jobs=4",
        "--backend=velodrome",
    ]);
    let lines: Vec<&str> = out.lines().collect();
    // One line per .json + .vbt trace file plus the summary line.
    let expected_traces = 2 * corpus_stems().len();
    assert_eq!(lines.len(), expected_traces + 1, "{out}");

    for line in &lines[..expected_traces] {
        let entry: serde_json::Value = serde_json::from_str(line).expect("JSONL line parses");
        let path = entry["path"].as_str().expect("path field").to_owned();
        assert_eq!(entry["status"].as_str(), Some("ok"), "{path}");
        let serial = run(&["trace", &path, "--json", "--backend=velodrome"]);
        let serial: serde_json::Value = serde_json::from_str(&serial).expect("serial parses");
        assert_eq!(
            serde_json::to_string(&entry["warnings"]).unwrap(),
            serde_json::to_string(&serial).unwrap(),
            "{path}: batch warnings diverge from the serial run"
        );
    }

    let summary: serde_json::Value = serde_json::from_str(lines[expected_traces]).unwrap();
    assert_eq!(
        summary["summary"]["ok"].as_u64(),
        Some(expected_traces as u64),
        "{out}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// json → vbt → json is the identity (byte equality of the JSON
    /// encoding) over the simulator's generator space, including traces
    /// with synthesized close-out events.
    #[test]
    fn prop_vbt_roundtrip_is_identity(
        gen_seed in 0u64..10_000,
        sched_seed in 0u64..10_000,
        threads in 1usize..4,
        vars in 1usize..4,
        locks in 0usize..3,
        stmts in 2usize..10,
    ) {
        let cfg = GenConfig {
            threads,
            vars,
            locks,
            stmts_per_thread: stmts,
            ..GenConfig::default()
        };
        let program = random_program(&cfg, gen_seed);
        let trace = run_program(&program, RandomScheduler::new(sched_seed)).trace;
        let json = trace.to_json();

        let bytes = vbt::trace_to_vbt(&trace);
        let back = vbt::read_vbt(Cursor::new(&bytes)).expect("roundtrip decodes");
        prop_assert_eq!(back.to_json(), json);

        // And once more through the JSON twin, as `convert` would go.
        let reparsed = Trace::from_json(&json).expect("json reparses");
        prop_assert_eq!(vbt::trace_to_vbt(&reparsed), bytes);
    }
}
