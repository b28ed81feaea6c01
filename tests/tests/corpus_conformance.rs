//! Golden conformance corpus: ~20 recorded traces with expected verdicts,
//! replayed across every velodrome-family checker in one test.
//!
//! Each corpus entry is a trio of files in `tests/corpus/`:
//!
//! * `<name>.trace.json` — the recorded trace ([`Trace::to_json`]);
//! * `<name>.trace.vbt` — the same trace in the binary VBT format (the
//!   `batch` integration suite checks the twins verdict-identical);
//! * `<name>.expect.json` — the expected outcome: the oracle verdict, the
//!   warning count, the blamed transaction labels, and whether the hybrid
//!   checker's vector-clock screen escalated (pinning the screen's
//!   fast-path behavior, not just the verdict).
//!
//! The corpus is generated from the builder programs in
//! [`corpus_programs`] by the `#[ignore]`d `regenerate_corpus` test
//! (ground truth comes from the offline oracle, which shares no code with
//! the online checkers):
//!
//! ```text
//! cargo test -p velodrome-integration --test corpus_conformance \
//!     regenerate_corpus -- --ignored
//! ```

use std::collections::BTreeSet;
use std::path::PathBuf;
use velodrome::{check_trace_with, HybridConfig, HybridVelodrome, VelodromeConfig};
use velodrome_events::{oracle, semantics, Trace, TraceBuilder};
use velodrome_monitor::{run_tool, Warning};
use velodrome_sim::{run_program, RandomScheduler};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// The canonical corpus: `(name, trace)` pairs covering the engine's
/// structural cases — crossing conflicts, late dependencies, cycles
/// through finished and re-entered transactions, unary bridges, fork/join,
/// lock-edge cycles, nesting, open transactions at end of trace, and the
/// serializable fan-in pattern the hybrid screen must never escalate on.
fn corpus_programs() -> Vec<(&'static str, Trace)> {
    let mut out: Vec<(&'static str, Trace)> = Vec::new();

    // Figure 1: a read-modify-write transaction with an interleaved
    // foreign write. The canonical violation.
    let mut b = TraceBuilder::new();
    b.begin("T1", "inc").read("T1", "x");
    b.write("T2", "x");
    b.write("T1", "x").end("T1");
    out.push(("figure1_rmw_violation", b.finish()));

    // The same pattern with the foreign write after the transaction.
    let mut b = TraceBuilder::new();
    b.begin("T1", "inc")
        .read("T1", "x")
        .write("T1", "x")
        .end("T1");
    b.write("T2", "x");
    out.push(("figure1_serializable", b.finish()));

    // Two overlapping transactions with conflicts in both directions.
    let mut b = TraceBuilder::new();
    b.begin("T1", "left").read("T1", "x");
    b.begin("T2", "right").write("T2", "x").read("T2", "y");
    b.write("T1", "y").end("T1");
    b.end("T2");
    out.push(("two_txn_cycle", b.finish()));

    // A -> B -> C -> A: the dependency closing the cycle arrives only
    // after B and C committed — the late-edge case that defeats naive
    // vector-clock propagation.
    let mut b = TraceBuilder::new();
    b.begin("T1", "A").write("T1", "a");
    b.begin("T2", "B")
        .read("T2", "a")
        .write("T2", "b")
        .end("T2");
    b.begin("T3", "C")
        .read("T3", "b")
        .write("T3", "c")
        .end("T3");
    b.read("T1", "c").end("T1");
    out.push(("three_txn_late_edge", b.finish()));

    // The middle transaction of the cycle has already finished when the
    // closing edge lands on the still-active one.
    let mut b = TraceBuilder::new();
    b.begin("T1", "outer").write("T1", "x");
    b.begin("T2", "middle")
        .read("T2", "x")
        .write("T2", "y")
        .end("T2");
    b.read("T1", "y").end("T1");
    out.push(("finished_middle_txn", b.finish()));

    // The cycle runs through a thread's *own earlier* transaction: Q reads
    // from P's successor R, which read from Q — the self-entry case whose
    // closing edge can only be flagged from the other thread's side.
    let mut b = TraceBuilder::new();
    b.begin("T1", "P").write("T1", "x").end("T1");
    b.begin("T2", "Q").read("T2", "x").write("T2", "y");
    b.begin("T1", "R")
        .read("T1", "y")
        .write("T1", "z")
        .end("T1");
    b.read("T2", "z").end("T2");
    out.push(("self_entry_cycle", b.finish()));

    // Nested atomic blocks; the violation is against the outer block.
    let mut b = TraceBuilder::new();
    b.begin("T1", "outer").begin("T1", "inner").read("T1", "x");
    b.write("T2", "x");
    b.end("T1").write("T1", "x").end("T1");
    out.push(("nested_atomic_violation", b.finish()));

    // Nested atomic blocks with no interference.
    let mut b = TraceBuilder::new();
    b.begin("T1", "outer").begin("T1", "inner").read("T1", "x");
    b.end("T1").write("T1", "x").end("T1");
    b.write("T2", "x");
    out.push(("nested_atomic_clean", b.finish()));

    // The same label entered twice in a row by the same thread.
    let mut b = TraceBuilder::new();
    for _ in 0..2 {
        b.begin("T1", "work")
            .read("T1", "x")
            .write("T1", "x")
            .end("T1");
    }
    b.write("T2", "x");
    out.push(("reentrant_label_clean", b.finish()));

    // Non-transactional operations bridge the cycle: the unary accesses of
    // T2 sit between A's write and A's read.
    let mut b = TraceBuilder::new();
    b.begin("T1", "A").write("T1", "x");
    b.read("T2", "x");
    b.write("T2", "y");
    b.read("T1", "y").end("T1");
    out.push(("unary_bridge_cycle", b.finish()));

    // Fork and join inside a transaction: the child's conflicting accesses
    // are both after the fork and before the join, closing a cycle.
    let mut b = TraceBuilder::new();
    b.begin("T1", "spawn").write("T1", "x").fork("T1", "T2");
    b.read("T2", "x").write("T2", "y");
    b.join("T1", "T2").read("T1", "y").end("T1");
    out.push(("fork_join_cycle", b.finish()));

    // Fork/join used correctly: the transaction commits before the join.
    let mut b = TraceBuilder::new();
    b.begin("T1", "spawn").write("T1", "x").end("T1");
    b.fork("T1", "T2");
    b.read("T2", "x").write("T2", "y");
    b.join("T1", "T2");
    b.read("T1", "y");
    out.push(("fork_join_clean", b.finish()));

    // Lock edges close the cycle: T2 observes A's release, then A reads
    // T2's write.
    let mut b = TraceBuilder::new();
    b.begin("T1", "A").acquire("T1", "m").release("T1", "m");
    b.acquire("T2", "m").write("T2", "x").release("T2", "m");
    b.read("T1", "x").end("T1");
    out.push(("lock_release_acquire_cycle", b.finish()));

    // Lock-protected transactions: fully serialized by the lock.
    let mut b = TraceBuilder::new();
    for t in ["T1", "T2"] {
        b.begin(t, "guarded")
            .acquire(t, "m")
            .read(t, "x")
            .write(t, "x")
            .release(t, "m")
            .end(t);
    }
    out.push(("lock_protected_clean", b.finish()));

    // Many concurrent readers of a variable written once beforehand.
    let mut b = TraceBuilder::new();
    b.write("T1", "x");
    for t in ["T1", "T2", "T3"] {
        b.begin(t, "reader").read(t, "x").end(t);
    }
    out.push(("read_shared_clean", b.finish()));

    // Write skew: each transaction reads what the other writes.
    let mut b = TraceBuilder::new();
    b.begin("T1", "skew1").read("T1", "x");
    b.begin("T2", "skew2").read("T2", "y");
    b.write("T1", "y").end("T1");
    b.write("T2", "x").end("T2");
    out.push(("write_skew", b.finish()));

    // The trace ends with a transaction still open.
    let mut b = TraceBuilder::new();
    b.begin("T1", "open").read("T1", "x").write("T1", "x");
    b.write("T2", "y");
    out.push(("truncated_open_txn", b.finish()));

    // A chain of transactions each reading the previous one's write.
    let mut b = TraceBuilder::new();
    b.begin("T1", "c1").write("T1", "x").end("T1");
    b.begin("T2", "c2")
        .read("T2", "x")
        .write("T2", "y")
        .end("T2");
    b.begin("T3", "c3")
        .read("T3", "y")
        .write("T3", "z")
        .end("T3");
    out.push(("long_chain_clean", b.finish()));

    // Serializable fan-in stress wave: redundant orderings arrive already
    // implied, the redundant-edge worst case. The hybrid screen must hold
    // (its expect file pins `hybrid_escalated: false`).
    out.push((
        "fanin_wave",
        velodrome_bench::hotpath::fanin_stress_trace(2, 3, 2),
    ));

    // A small recorded run of the paper's multiset model.
    let w = velodrome_workloads::build("multiset", 1).expect("workload");
    let result = run_program(&w.program, RandomScheduler::new(1));
    assert!(!result.deadlocked, "multiset seed 1 must not deadlock");
    out.push(("multiset_small", result.trace));

    out
}

fn engine_config(trace: &Trace) -> VelodromeConfig {
    VelodromeConfig {
        names: trace.names().clone(),
        ..VelodromeConfig::default()
    }
}

fn blamed_labels(trace: &Trace, warnings: &[Warning]) -> BTreeSet<String> {
    warnings
        .iter()
        .filter_map(|w| w.label)
        .map(|l| trace.names().label(l))
        .collect()
}

/// Computes an entry's expected-outcome JSON from the oracle and the
/// checkers themselves (used by the regenerator; the conformance test
/// recomputes everything and compares against the stored file).
fn expectation(trace: &Trace) -> String {
    let serializable = oracle::is_serializable(trace);
    let (warnings, _) = check_trace_with(trace, engine_config(trace));
    let mut hybrid = HybridVelodrome::with_config(HybridConfig {
        engine: engine_config(trace),
    });
    run_tool(&mut hybrid, trace);
    let blamed: Vec<String> = blamed_labels(trace, &warnings).into_iter().collect();
    format!(
        "{{\n  \"serializable\": {},\n  \"warnings\": {},\n  \"blamed\": {},\n  \"hybrid_escalated\": {}\n}}\n",
        serializable,
        warnings.len(),
        serde_json::to_string(&blamed).expect("labels serialize"),
        hybrid.escalated(),
    )
}

#[test]
fn corpus_replays_identically_across_backends() {
    let dir = corpus_dir();
    let programs = corpus_programs();
    for (name, original) in &programs {
        let trace_path = dir.join(format!("{name}.trace.json"));
        let expect_path = dir.join(format!("{name}.expect.json"));
        let trace_json = std::fs::read_to_string(&trace_path)
            .unwrap_or_else(|e| panic!("{}: {e} (run regenerate_corpus)", trace_path.display()));
        let trace = Trace::from_json(&trace_json).expect("corpus trace parses");
        assert_eq!(semantics::validate(&trace), Ok(()), "{name}: ill-formed");
        assert_eq!(
            trace.ops(),
            original.ops(),
            "{name}: stored trace diverges from its builder program \
             (run regenerate_corpus)"
        );
        let expect: serde_json::Value = serde_json::from_str(
            &std::fs::read_to_string(&expect_path)
                .unwrap_or_else(|e| panic!("{}: {e}", expect_path.display())),
        )
        .expect("expect file parses");

        let serializable = expect["serializable"].as_bool().expect(name);
        assert_eq!(
            oracle::is_serializable(&trace),
            serializable,
            "{name}: oracle verdict changed"
        );

        // Pure Velodrome: sound and complete, so warnings iff a violation;
        // blame matches the recorded labels.
        let (pure_warnings, engine) = check_trace_with(&trace, engine_config(&trace));
        assert_eq!(
            pure_warnings.len() as u64,
            expect["warnings"].as_u64().expect(name),
            "{name}: warning count changed"
        );
        assert_eq!(pure_warnings.is_empty(), serializable, "{name}: soundness");
        let expected_blamed: BTreeSet<String> = expect["blamed"]
            .as_array()
            .expect(name)
            .iter()
            .map(|v| v.as_str().expect(name).to_owned())
            .collect();
        assert_eq!(
            blamed_labels(&trace, &pure_warnings),
            expected_blamed,
            "{name}: blame changed"
        );

        // The no-merge variant agrees on the verdict.
        let (nomerge_warnings, _) = check_trace_with(
            &trace,
            VelodromeConfig {
                merge: false,
                ..engine_config(&trace)
            },
        );
        assert_eq!(
            nomerge_warnings.is_empty(),
            serializable,
            "{name}: no-merge verdict diverges"
        );

        // The hybrid checker: byte-identical warnings and reports, and the
        // recorded escalation behavior (e.g. fanin_wave must stay on the
        // screen's fast path).
        let mut hybrid = HybridVelodrome::with_config(HybridConfig {
            engine: engine_config(&trace),
        });
        let hybrid_warnings = run_tool(&mut hybrid, &trace);
        assert_eq!(
            serde_json::to_string(&hybrid_warnings).unwrap(),
            serde_json::to_string(&pure_warnings).unwrap(),
            "{name}: hybrid warnings diverge"
        );
        assert_eq!(
            serde_json::to_string(hybrid.reports()).unwrap(),
            serde_json::to_string(engine.reports()).unwrap(),
            "{name}: hybrid reports diverge"
        );
        assert_eq!(
            hybrid.escalated(),
            expect["hybrid_escalated"].as_bool().expect(name),
            "{name}: screen escalation behavior changed"
        );
    }

    // No stray files: everything in the corpus directory belongs to a
    // known program (catches renamed entries whose old files linger).
    let known: BTreeSet<String> = programs
        .iter()
        .flat_map(|(name, _)| {
            [
                format!("{name}.trace.json"),
                format!("{name}.trace.vbt"),
                format!("{name}.expect.json"),
            ]
        })
        .collect();
    for entry in std::fs::read_dir(&dir).expect("corpus dir exists") {
        let file = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(known.contains(&file), "stray corpus file {file}");
    }
    assert!(programs.len() >= 20, "corpus shrank to {}", programs.len());
}

/// Rewrites the corpus from the builder programs. Run after intentionally
/// changing a program or the expected-output format:
///
/// ```text
/// cargo test -p velodrome-integration --test corpus_conformance \
///     regenerate_corpus -- --ignored
/// ```
#[test]
#[ignore = "writes tests/corpus; run explicitly to regenerate"]
fn regenerate_corpus() {
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir).expect("create corpus dir");
    for (name, trace) in corpus_programs() {
        assert_eq!(semantics::validate(&trace), Ok(()), "{name}: ill-formed");
        std::fs::write(dir.join(format!("{name}.trace.json")), trace.to_json())
            .expect("write trace");
        std::fs::write(
            dir.join(format!("{name}.trace.vbt")),
            velodrome_events::vbt::trace_to_vbt(&trace),
        )
        .expect("write vbt twin");
        std::fs::write(dir.join(format!("{name}.expect.json")), expectation(&trace))
            .expect("write expect");
    }
}
