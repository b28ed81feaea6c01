//! Benchmark and experiment harness regenerating the paper's evaluation.
//!
//! * [`table1`] — analysis overhead and node statistics (paper Table 1);
//! * [`table2`] — warning counts and false-alarm classification against
//!   ground truth (paper Table 2);
//! * [`injection`] — the defect-injection / adversarial-scheduling study
//!   (Section 6);
//! * [`report`] — plain-text table rendering.
//!
//! Every back-end is run through the CLI's backend table,
//! [`velodrome_cli::backend::BACKENDS`].
//!
//! Binaries `table1`, `table2`, `injection`, and `graph_stats` print the
//! paper-style tables; `cargo bench -p velodrome-bench` runs the Criterion
//! timing harness behind Table 1's performance columns. The `hotpath`
//! binary (module [`hotpath`]) measures the redundant-edge elision and
//! epoch-cache fast paths and emits `BENCH_hotpath.json`. The `chaos`
//! binary (module [`chaos`]) replays a fixed-seed trace under the built-in
//! fault-plan set and asserts the fault-tolerance contract. The `batch`
//! binary (module [`batch`]) measures aggregate checking throughput for a
//! JSON-serial pipeline against the VBT-parallel `check-batch` runner and
//! emits `BENCH_batch.json`.

pub mod batch;
pub mod chaos;
pub mod hotpath;
pub mod injection;
pub mod report;
pub mod table1;
pub mod table2;

/// Reads a `NAME=value` style `u64` argument from the process arguments
/// (`--scale=4`), falling back to `default`.
pub fn arg_u64(name: &str, default: u64) -> u64 {
    let prefix = format!("--{name}=");
    std::env::args()
        .find_map(|a| a.strip_prefix(&prefix).and_then(|v| v.parse().ok()))
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    #[test]
    fn arg_parsing_falls_back_to_default() {
        assert_eq!(super::arg_u64("nonexistent-flag", 7), 7);
    }
}
