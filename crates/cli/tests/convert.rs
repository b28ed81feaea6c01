//! `velodrome convert`: JSON → VBT → JSON gives back the file's bytes,
//! and an input that turns out malformed partway fails with exit code 4
//! at the reader's byte offset and leaves no output file.

use std::path::{Path, PathBuf};
use velodrome_cli::{execute, CliError};
use velodrome_events::{Trace, TraceBuilder};

/// A fresh scratch directory for one test.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("velodrome-convert-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn convert(inp: &Path, out: &Path) -> Result<String, CliError> {
    execute(&[
        "convert".to_owned(),
        inp.display().to_string(),
        out.display().to_string(),
    ])
}

#[test]
fn corpus_roundtrips_through_vbt_byte_for_byte() {
    let dir = scratch("corpus");
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let mut files = 0;
    for entry in std::fs::read_dir(&corpus).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let Some(stem) = name.strip_suffix(".trace.json") else {
            continue;
        };
        let vbt = dir.join(format!("{stem}.vbt"));
        let back = dir.join(format!("{stem}.json"));
        convert(&path, &vbt).unwrap();
        convert(&vbt, &back).unwrap();
        assert!(
            std::fs::read(&back).unwrap() == std::fs::read(&path).unwrap(),
            "{name}: JSON → VBT → JSON changed the bytes"
        );
        files += 1;
    }
    assert!(files >= 20, "only {files} corpus traces found");
    std::fs::remove_dir_all(&dir).ok();
}

/// A trace of 24,000 ops: its JSON runs to several of the writer's 64 KiB
/// buffers and its VBT to several frames, so a cut at three quarters
/// comes after some output was written.
fn long_trace() -> Trace {
    let mut b = TraceBuilder::new();
    for round in 0..4_000 {
        let t = format!("T{}", round % 3);
        b.begin(&t, "inc").acquire(&t, "m").read(&t, "x");
        b.write(&t, "x").release(&t, "m").end(&t);
    }
    b.finish()
}

#[test]
fn truncated_input_fails_with_exit_4_and_leaves_no_output() {
    let dir = scratch("truncated");
    let trace = long_trace();
    for (ext, bytes) in [
        ("json", trace.to_json().into_bytes()),
        ("vbt", velodrome_events::trace_to_vbt(&trace)),
    ] {
        let cut = &bytes[..bytes.len() * 3 / 4];
        let inp = dir.join(format!("cut.{ext}"));
        std::fs::write(&inp, cut).unwrap();
        let reader = velodrome_events::read_trace(cut).unwrap_err().to_string();
        assert!(reader.starts_with("byte "), "{reader}");
        let out = dir.join(format!("from-{ext}.json"));
        let e = convert(&inp, &out).unwrap_err();
        assert_eq!(e.exit_code(), 4, "{ext}: {e}");
        assert!(
            e.message.ends_with(&reader),
            "{ext}: {e} (reader: {reader})"
        );
        assert!(
            !out.exists(),
            "{ext}: a partial output file was left behind"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn converting_a_file_onto_itself_is_refused() {
    let dir = scratch("same");
    let path = dir.join("a.json");
    let json = long_trace().to_json();
    std::fs::write(&path, &json).unwrap();
    let e = convert(&path, &path).unwrap_err();
    assert_eq!(e.exit_code(), 2, "{e}");
    assert!(std::fs::read_to_string(&path).unwrap() == json);
    std::fs::remove_dir_all(&dir).ok();
}
