//! Engine-independent checks of the checker's verdicts.
//!
//! A trace check fails when the trace errors or is quarantined, or when its
//! verdict contradicts a reference that does not use the engine: a warning
//! on a trace serializable by construction, a warning blaming a method
//! outside the model's ground truth (the paper's zero-false-alarm claim),
//! or a verdict other than the oracle's on a trace short enough for it.

use crate::inputs::Input;
use serde_json::Value;
use velodrome_events::Label;
use velodrome_monitor::{Warning, WarningCategory};

/// Whether warnings, as (is an atomicity warning, blamed label) pairs,
/// agree with the input's reference.
fn verdict_ok(input: &Input, warnings: &[(bool, Option<u32>)]) -> bool {
    let expect = &input.expect;
    let verdict_agrees = match expect.serializable {
        Some(serializable) => serializable == warnings.is_empty(),
        None => true,
    };
    verdict_agrees
        && warnings.iter().all(|&(atomicity, label)| {
            atomicity
                && label.is_some_and(|l| {
                    let method = input.trace.names().label(Label::new(l));
                    expect.may_blame.contains(&method)
                })
        })
}

/// Checks warnings a backend returned in memory.
pub(crate) fn warnings_ok(input: &Input, warnings: &[Warning]) -> bool {
    let pairs: Vec<_> = warnings
        .iter()
        .map(|w| {
            (
                w.category == WarningCategory::Atomicity,
                w.label.map(Label::raw),
            )
        })
        .collect();
    verdict_ok(input, &pairs)
}

/// Checks what `trace FILE` printed. The single-trace workloads are
/// serializable by construction, so the only correct output is the clean
/// verdict over every event.
pub(crate) fn trace_output_ok(input: &Input, stdout: &str) -> bool {
    input.expect.serializable == Some(true)
        && stdout
            == format!(
                "no warnings: every observed transaction is serializable\n({} events analyzed)\n",
                input.trace.len()
            )
}

/// Counts the traces a `check-batch --report --metrics-out` run got wrong.
/// `report` holds one JSON line per trace, in input order, then a summary
/// line; `metrics` holds the merged telemetry snapshot. Missing or
/// malformed files fail every trace.
pub(crate) fn batch_failures(inputs: &[Input], report: &str, metrics: &str) -> u64 {
    let lines: Vec<&str> = report.lines().collect();
    let snapshot_ok = metrics
        .lines()
        .next()
        .and_then(|line| serde_json::from_str::<Value>(line).ok())
        .is_some_and(|v| {
            v["metrics"]["batch.traces_checked"]["value"]
                .as_u64()
                .is_some()
        });
    if !snapshot_ok || lines.len() != inputs.len() + 1 {
        return inputs.len() as u64;
    }
    inputs
        .iter()
        .zip(lines)
        .filter(|(input, line)| !report_line_ok(input, line))
        .count() as u64
}

fn report_line_ok(input: &Input, line: &str) -> bool {
    let Ok(v) = serde_json::from_str::<Value>(line) else {
        return false;
    };
    let Some(warnings) = v["warnings"].as_array() else {
        return false;
    };
    let pairs: Vec<_> = warnings
        .iter()
        .map(|w| {
            let label = w["label"].as_u64().and_then(|l| u32::try_from(l).ok());
            (w["category"] == "atomicity", label)
        })
        .collect();
    v["status"] == "ok"
        && v["path"].as_str().is_some_and(|p| p.ends_with(&input.file))
        && v["events"].as_u64() == Some(input.trace.len() as u64)
        && verdict_ok(input, &pairs)
}
