//! Golden output of the comparison backends over the conformance corpus.
//!
//! `velodrome trace FILE --backend=B` for every corpus trace and every
//! baseline backend (plus `all`, which runs the engine beside three of
//! them), as plain text and as `--json`, must print exactly what
//! `tests/golden/baselines.txt` holds. The golden sits outside
//! `tests/corpus/`, so `check-batch` over that directory never picks it
//! up. Regenerate it after an intended change to what a baseline prints,
//! and review the diff:
//!
//! ```text
//! cargo test -p velodrome-integration --test baseline_golden \
//!     regenerate_golden -- --ignored
//! ```

use std::path::PathBuf;
use velodrome_cli::execute;

const BACKENDS: [&str; 6] = ["atomizer", "s2pl", "eraser", "hb-race", "fasttrack", "all"];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn golden_path() -> PathBuf {
    root().join("golden").join("baselines.txt")
}

/// Every run's output under a `== trace NAME --backend=B [--json]` header,
/// traces in name order.
fn render() -> String {
    let mut files: Vec<String> = std::fs::read_dir(root().join("corpus"))
        .expect("corpus dir exists")
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().ok()?;
            name.ends_with(".trace.json").then_some(name)
        })
        .collect();
    files.sort();
    assert!(files.len() >= 20, "corpus shrank to {}", files.len());
    let mut out = String::new();
    for file in &files {
        let path = root().join("corpus").join(file).display().to_string();
        for backend in BACKENDS {
            for json in [false, true] {
                let mut args = vec![
                    "trace".to_owned(),
                    path.clone(),
                    format!("--backend={backend}"),
                ];
                if json {
                    args.push("--json".to_owned());
                }
                let printed = execute(&args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
                let flag = if json { " --json" } else { "" };
                out.push_str(&format!("== trace {file} --backend={backend}{flag}\n"));
                out.push_str(&printed);
                if !printed.ends_with('\n') {
                    out.push('\n');
                }
            }
        }
    }
    out
}

#[test]
fn baselines_print_the_golden_output() {
    let golden = std::fs::read_to_string(golden_path())
        .unwrap_or_else(|e| panic!("{}: {e} (run regenerate_golden)", golden_path().display()));
    let actual = render();
    if actual != golden {
        let (line, (want, got)) = golden
            .lines()
            .zip(actual.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .unwrap_or((golden.lines().count().min(actual.lines().count()), ("", "")));
        panic!(
            "baseline output differs from {} at line {}:\n  golden: {want}\n  actual: {got}",
            golden_path().display(),
            line + 1
        );
    }
}

/// Every backend names threads, variables and blocks from the trace's name
/// table, which maps thread 1 to `T2`, var 0 to `x` and label 0 to `inc`.
#[test]
fn baselines_name_what_they_report() {
    let path = root()
        .join("corpus")
        .join("figure1_rmw_violation.trace.json")
        .display()
        .to_string();
    let s2pl = "atomic block inc violates strict two-phase locking";
    let eraser = "possible race on x: lockset empty";
    let race = "read-write race on x by T2";
    let expected = [
        ("s2pl", vec![s2pl]),
        ("eraser", vec![eraser]),
        ("hb-race", vec![race]),
        ("fasttrack", vec![race]),
        ("all", vec![eraser, race, "inc is not atomic"]),
    ];
    for (backend, messages) in expected {
        for json in [false, true] {
            let mut args = vec![
                "trace".to_owned(),
                path.clone(),
                format!("--backend={backend}"),
            ];
            if json {
                args.push("--json".to_owned());
            }
            let out = execute(&args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
            for message in &messages {
                assert!(out.contains(message), "{args:?} lacks {message:?}:\n{out}");
            }
            for id in ["x0", "L0", "by T1"] {
                assert!(!out.contains(id), "{args:?} prints the id {id}:\n{out}");
            }
        }
    }
}

#[test]
#[ignore = "rewrites tests/golden/baselines.txt"]
fn regenerate_golden() {
    std::fs::create_dir_all(golden_path().parent().unwrap()).unwrap();
    std::fs::write(golden_path(), render()).unwrap();
}
