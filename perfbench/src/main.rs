//! `perfbench --workload <fanin|longtxn|fleet> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the repository root. Prints a readable summary, then, as the
//! last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer ones
//! with `--trace 1`.

use std::process::ExitCode;
use velodrome_perfbench::inputs::Workload;
use velodrome_perfbench::{run, Config};

const USAGE: &str =
    "usage: perfbench --workload <fanin|longtxn|fleet> --seed <n> --seconds <s> --trace <0|1>";

fn parse(mut args: impl Iterator<Item = String>) -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed: {value}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| *s > 0)
                    .ok_or_else(|| format!("bad --seconds: {value}"))?
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace: {value}")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced,
    })
}

fn main() -> ExitCode {
    let cfg = match parse(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
