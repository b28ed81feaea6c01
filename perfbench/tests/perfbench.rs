//! The benchmark's own checks: its inputs are a function of the seed, the
//! single-trace workloads are serializable as constructed, and the
//! correctness check catches a corrupted input, a wrong expected verdict
//! and a blamed method outside the ground truth.

use std::path::{Path, PathBuf};
use velodrome_events::oracle;
use velodrome_perfbench::e2e::E2e;
use velodrome_perfbench::inputs::{generate, write_all, Input, Size, Workload};

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// Writes the workload's inputs for `seed` to `dir` and reads the files back.
fn written(workload: Workload, seed: u64, dir: &Path) -> Vec<(String, Vec<u8>)> {
    let inputs = generate(workload, seed, Size::TINY);
    write_all(dir, &inputs).expect("inputs write");
    inputs
        .iter()
        .map(|i| {
            (
                i.file.clone(),
                std::fs::read(dir.join(&i.file)).expect("input reads"),
            )
        })
        .collect()
}

/// Traces one end-to-end check gets wrong.
fn failed(workload: Workload, inputs: &[Input], dir: &Path, out: &Path) -> u64 {
    E2e::new(workload, inputs, dir, out).check().failed
}

#[test]
fn the_same_seed_regenerates_byte_identical_inputs() {
    for w in Workload::ALL {
        let dir = |tag: &str| scratch(&format!("seed-{}-{tag}", w.name()));
        let first = written(w, 7, &dir("a"));
        assert_eq!(first, written(w, 7, &dir("b")), "{}", w.name());
        assert_ne!(
            first,
            written(w, 8, &dir("c")),
            "{}: the seed reaches the inputs",
            w.name()
        );
    }
}

#[test]
fn single_trace_workloads_are_serializable_by_the_oracle() {
    for w in [Workload::Fanin, Workload::Longtxn] {
        for input in generate(w, 3, Size::TINY) {
            assert!(oracle::is_serializable(&input.trace), "{}", input.file);
        }
    }
}

#[test]
fn a_corrupted_input_or_a_wrong_expected_verdict_counts_as_failed() {
    for w in Workload::ALL {
        let dir = scratch(&format!("fail-{}-in", w.name()));
        let out = scratch(&format!("fail-{}-out", w.name()));
        let mut inputs = generate(w, 5, Size::TINY);
        write_all(&dir, &inputs).unwrap();
        assert_eq!(
            failed(w, &inputs, &dir, &out),
            0,
            "{}: clean inputs pass",
            w.name()
        );

        let victim = dir.join(&inputs[0].file);
        let bytes = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
        assert!(
            failed(w, &inputs, &dir, &out) >= 1,
            "{}: a truncated input fails",
            w.name()
        );
        write_all(&dir, &inputs).unwrap();

        let known = inputs
            .iter()
            .position(|i| i.expect.serializable.is_some())
            .expect("a trace with a known verdict");
        let flipped = inputs[known].expect.serializable.map(|s| !s);
        inputs[known].expect.serializable = flipped;
        assert!(
            failed(w, &inputs, &dir, &out) >= 1,
            "{}: a wrong verdict fails",
            w.name()
        );
    }
}

#[test]
fn blaming_a_method_outside_the_ground_truth_counts_as_failed() {
    let (dir, out) = (scratch("blame-in"), scratch("blame-out"));
    let mut inputs = generate(Workload::Fleet, 5, Size::TINY);
    write_all(&dir, &inputs).unwrap();
    assert_eq!(failed(Workload::Fleet, &inputs, &dir, &out), 0);
    for input in &mut inputs {
        input.expect.may_blame.clear();
    }
    assert!(failed(Workload::Fleet, &inputs, &dir, &out) >= 1);
}
