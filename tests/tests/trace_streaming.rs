//! `velodrome trace FILE` and `check-batch` check a trace file as it is
//! read: the decoder hands the backend blocks of at most 256 operations
//! and never builds a `Trace`.
//! Two consequences are pinned here:
//!
//! * a file found malformed after some blocks were already analyzed fails
//!   exactly as a file read whole first would: exit code 4, the reader's
//!   message and byte offset, nothing on stdout, no `--metrics-out` file
//!   left behind, and the same `error` line in the batch report;
//! * a JSON trace may carry `names` before or after `ops`. Names that
//!   arrive after the last operation still render every warning, so both
//!   key orders print byte-identical output, and the same warnings as a
//!   library run that knows the names from the start;
//! * one bad op deep inside a canonical document, where the reader's
//!   canonical-shape fast path is active, fails with the same message and
//!   byte offset as when only the general parser runs.

use std::io::Read;
use std::path::{Path, PathBuf};
use velodrome_cli::{execute, CliErrorKind};
use velodrome_events::{read_json_trace, read_vbt, Op, ThreadId, Trace, TraceBuilder, FRAME_OPS};

fn run(args: &[&str]) -> Result<String, velodrome_cli::CliError> {
    let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    execute(&owned)
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("velodrome-streaming-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Several frames' worth of atomic read-modify-writes, with one
/// interleaved write so the engine has a warning to hold.
fn long_trace() -> Trace {
    let mut b = TraceBuilder::new();
    b.begin("T1", "inc").read("T1", "x");
    b.write("T2", "x");
    b.write("T1", "x").end("T1");
    for round in 0..1_000 {
        let t = format!("T{}", round % 3);
        b.begin(&t, "locked").acquire(&t, "m").read(&t, "y");
        b.write(&t, "y").release(&t, "m").end(&t);
    }
    let trace = b.finish();
    assert!(trace.len() > FRAME_OPS + 1_000, "{} ops", trace.len());
    trace
}

/// The JSON text of `ops` and `trace`'s names, with `names` first when
/// `names_first` is set.
fn json_with(trace: &Trace, ops: &[String], names_first: bool) -> String {
    let ops = format!("\"ops\":[{}]", ops.join(","));
    let names = format!(
        "\"names\":{}",
        serde_json::to_string(trace.names()).unwrap()
    );
    let mut keys = [ops, names];
    if names_first {
        keys.reverse();
    }
    let mut doc = format!("{{{},{}", keys[0], keys[1]);
    if !trace.synthesized().is_empty() {
        doc.push_str(&format!(
            ",\"synthesized\":{}",
            serde_json::to_string(trace.synthesized()).unwrap()
        ));
    }
    doc.push('}');
    doc
}

fn op_texts(trace: &Trace) -> Vec<String> {
    trace
        .ops()
        .iter()
        .map(|op: &Op| serde_json::to_string(op).unwrap())
        .collect()
}

/// Writes the three inputs that fail after at least one full block and
/// returns each path with the message the in-memory readers give for it.
fn malformed_inputs(dir: &Path) -> Vec<(PathBuf, String)> {
    let trace = long_trace();
    let vbt = velodrome_events::trace_to_vbt(&trace);
    let json = trace.to_json();
    let mut ops = op_texts(&trace);
    ops[FRAME_OPS + 100] = r#"{"Bogus":{"t":0}}"#.to_owned();
    let inputs = [
        ("cut-frames.vbt", vbt[..vbt.len() * 3 / 4].to_vec()),
        (
            "cut-ops.json",
            json.as_bytes()[..json.len() * 3 / 4].to_vec(),
        ),
        ("bad-op.json", json_with(&trace, &ops, false).into_bytes()),
    ];
    let mut out = Vec::new();
    for (name, bytes) in inputs {
        let path = dir.join(name);
        std::fs::write(&path, &bytes).unwrap();
        let e = if name.ends_with(".vbt") {
            read_vbt(&bytes[..]).unwrap_err()
        } else {
            read_json_trace(&bytes[..]).unwrap_err()
        };
        assert!(e.is_malformed(), "{name}: {e}");
        out.push((
            path.clone(),
            format!("malformed trace file {}: {e}", path.display()),
        ));
    }
    out
}

#[test]
fn failures_partway_through_the_stream_match_a_whole_read() {
    let dir = scratch_dir("partway");
    let inputs = malformed_inputs(&dir);
    let metrics = dir.join("metrics.jsonl");
    let metrics_flag = format!("--metrics-out={}", metrics.display());
    for (path, want) in &inputs {
        let path = path.to_str().unwrap();
        let e = run(&["trace", path]).unwrap_err();
        assert_eq!(e.kind, CliErrorKind::MalformedInput, "{e}");
        assert_eq!(e.exit_code(), 4);
        assert_eq!(&e.message, want);
        for backend in ["velodrome", "all"] {
            let e = run(&[
                "trace",
                path,
                &format!("--backend={backend}"),
                &metrics_flag,
                "--metrics-interval=1000",
            ])
            .unwrap_err();
            assert_eq!(&e.message, want, "{backend}");
            assert!(!metrics.exists(), "{backend}: metrics file left behind");
        }
    }
    let report = run(&["check-batch", dir.to_str().unwrap(), "--jobs=2"]).unwrap();
    let lines: Vec<serde_json::Value> = report
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(lines.len(), inputs.len() + 1, "{report}");
    for line in &lines[..inputs.len()] {
        let path = line["path"].as_str().unwrap();
        let (_, want) = inputs
            .iter()
            .find(|(p, _)| p.to_str() == Some(path))
            .expect("every input is reported");
        assert_eq!(line["status"], "error", "{line:?}");
        assert_eq!(line["error"].as_str(), Some(want.as_str()));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn names_before_or_after_ops_print_identically() {
    let dir = scratch_dir("key-order");
    let corpus = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut traces: Vec<PathBuf> = std::fs::read_dir(&corpus)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_str().is_some_and(|s| s.ends_with(".trace.json")))
        .collect();
    traces.sort();
    let mut violating = 0;
    for original in &traces {
        let trace = read_json_trace(std::fs::File::open(original).unwrap()).unwrap();
        let names_last = dir.join("names-last.json");
        let names_first = dir.join("names-first.json");
        let ops = op_texts(&trace);
        std::fs::write(&names_last, json_with(&trace, &ops, false)).unwrap();
        std::fs::write(&names_first, json_with(&trace, &ops, true)).unwrap();
        assert_eq!(
            std::fs::read_to_string(&names_last).unwrap(),
            std::fs::read_to_string(original).unwrap(),
            "the corpus writes names after ops"
        );
        // The library run knows the names from the start.
        let reference = serde_json::to_string_pretty(&velodrome::check_trace(&trace)).unwrap();
        let streamed = run(&["trace", names_first.to_str().unwrap(), "--json"]).unwrap();
        assert_eq!(streamed, format!("{reference}\n"), "{}", original.display());
        for mode in [&[][..], &["--json"], &["--dot"]] {
            let out = |path: &Path| {
                let mut args = vec!["trace", path.to_str().unwrap()];
                args.extend(mode);
                run(&args).unwrap()
            };
            let last = out(&names_last);
            assert_eq!(last, out(&names_first), "{}: {mode:?}", original.display());
            violating += usize::from(last.contains("digraph"));
        }
    }
    assert!(violating > 0, "the corpus has violating traces");
    std::fs::remove_dir_all(&dir).ok();
}

/// Hands out one byte per call, so the reader's buffer never holds the
/// fast path's margin and every op goes through the general parser.
struct OneByte<'a>(&'a [u8]);

impl Read for OneByte<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let Some((&b, rest)) = self.0.split_first() else {
            return Ok(0);
        };
        out[0] = b;
        self.0 = rest;
        Ok(1)
    }
}

#[test]
fn a_bad_op_deep_in_a_canonical_document_fails_as_the_general_parser_says() {
    let dir = scratch_dir("deep-bad-op");
    let trace = long_trace();
    let at = FRAME_OPS + 100;
    // Each bad op, the reason, and for the rejected keys the key the
    // error's offset names.
    let cases = [
        (
            r#"{"Reed":{"t":0,"x":0}}"#,
            "unknown operation `Reed`",
            None,
        ),
        (
            r#"{"Read":{"t":4294967296,"x":0}}"#,
            "thread id 4294967296 out of range",
            None,
        ),
        (r#"{"Read":{"t":0,"x":1.5}}"#, "non-integer number", None),
        (
            r#"{"Read":{"t":-1,"x":0}}"#,
            "expected an unsigned integer",
            None,
        ),
        (r#"{"Read":{"t":0}}"#, "missing field `x` in Read", None),
        (r#"{"Read":{"t":0,"x":0}"#, "expected a string", None),
        (
            r#"{"Read":{"t":0,"x":1},"Write":{"t":0,"x":1}}"#,
            "operation object has more than one entry",
            Some(r#""Write""#),
        ),
        (
            r#"{"Read":{"t":0,"t":5,"x":1}}"#,
            "duplicate field `t` in Read",
            Some(r#""t":5"#),
        ),
        (
            r#"{"Fork":{"child":1,"t":0,"child":2}}"#,
            "duplicate field `child` in Fork",
            Some(r#""child":2"#),
        ),
    ];
    let mut ops = op_texts(&trace);
    for (bad, reason, key) in cases {
        ops[at] = bad.to_owned();
        let doc = json_with(&trace, &ops, false);
        let e = read_json_trace(doc.as_bytes()).unwrap_err();
        assert!(
            e.is_malformed() && e.to_string().contains(reason),
            "{bad}: {e}"
        );
        if let Some(key) = key {
            let offset = doc.find(bad).unwrap() + bad.find(key).unwrap();
            assert_eq!(e.to_string(), format!("byte {offset}: {reason}"));
        }
        let general = read_json_trace(OneByte(doc.as_bytes())).unwrap_err();
        assert_eq!(e.to_string(), general.to_string(), "{bad}");
        let path = dir.join("bad.json");
        std::fs::write(&path, &doc).unwrap();
        let path = path.to_str().unwrap();
        let cli = run(&["trace", path]).unwrap_err();
        assert_eq!(cli.exit_code(), 4, "{bad}: {cli}");
        assert_eq!(cli.message, format!("malformed trace file {path}: {e}"));
    }
    // An unknown field in an op body is skipped, not rejected.
    ops[at] = r#"{"End":{"t":0,"x":1}}"#.to_owned();
    let doc = json_with(&trace, &ops, false);
    let fast = read_json_trace(doc.as_bytes()).unwrap();
    let general = read_json_trace(OneByte(doc.as_bytes())).unwrap();
    assert_eq!(fast.ops(), general.ops());
    assert_eq!(fast.to_json(), general.to_json());
    assert_eq!(
        fast.ops()[at],
        Op::End {
            t: ThreadId::new(0)
        }
    );
    let path = dir.join("extra-field.json");
    std::fs::write(&path, &doc).unwrap();
    run(&["trace", path.to_str().unwrap()]).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
