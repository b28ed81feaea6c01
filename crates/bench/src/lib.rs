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
//! timing harness behind Table 1's performance columns. Module [`hotpath`]
//! builds the fan-in stress trace that the `hotpath` Criterion bench and
//! the repository benchmark (`perfbench`, which owns wall-time and heap
//! figures) share.

pub mod hotpath;
pub mod injection;
pub mod report;
pub mod table1;
pub mod table2;

/// Reads a `--name=value` style `u64` argument from the process arguments
/// (`--scale=4`), falling back to `default` when the flag is absent. A
/// present but malformed value prints `bad --name: value` and exits 2.
pub fn arg_u64(name: &str, default: u64) -> u64 {
    parse_u64_flag(std::env::args(), name, default).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// The value of the first `--name=` in `args`, `default` if there is none,
/// or the usage message for a value that is not a `u64`.
fn parse_u64_flag(
    args: impl IntoIterator<Item = String>,
    name: &str,
    default: u64,
) -> Result<u64, String> {
    let prefix = format!("--{name}=");
    match args
        .into_iter()
        .find_map(|a| a.strip_prefix(&prefix).map(str::to_owned))
    {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad --{name}: {v}")),
    }
}

#[cfg(test)]
mod tests {
    use super::parse_u64_flag;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arg_parsing_falls_back_to_default() {
        assert_eq!(super::arg_u64("nonexistent-flag", 7), 7);
        let argv = args(&["bin", "--scale=4", "--waves=abc", "--seeds="]);
        assert_eq!(parse_u64_flag(argv.clone(), "repeats", 3), Ok(3));
        assert_eq!(parse_u64_flag(argv.clone(), "scale", 8), Ok(4));
        assert_eq!(
            parse_u64_flag(argv.clone(), "waves", 2),
            Err("bad --waves: abc".to_owned())
        );
        assert_eq!(
            parse_u64_flag(argv, "seeds", 10),
            Err("bad --seeds: ".to_owned())
        );
    }
}
