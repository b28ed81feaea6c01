//! Table 2: warnings produced by the Atomizer and Velodrome under the
//! assumption that all methods should be atomic.
//!
//! Following the paper's methodology, each benchmark is run several times
//! (distinct scheduler seeds standing in for distinct executions) and the
//! number of *distinct* methods warned about is counted. Ground truth from
//! the workload models classifies every warning as a real non-atomic
//! method or a false alarm; "missed" counts Atomizer-confirmed real
//! defects that Velodrome never observed.

use crate::report;
use serde::Serialize;
use std::collections::HashSet;
use velodrome::check_trace;
use velodrome_atomizer::Atomizer;
use velodrome_monitor::run_tool;
use velodrome_workloads::Workload;

/// One Table 2 row, with the paper's numbers alongside.
#[derive(Debug, Serialize)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: String,
    /// Distinct really-non-atomic methods the Atomizer warned about.
    pub atomizer_real: usize,
    /// Distinct Atomizer false alarms.
    pub atomizer_false: usize,
    /// Distinct really-non-atomic methods Velodrome reported.
    pub velodrome_real: usize,
    /// Distinct Velodrome false alarms (must be zero).
    pub velodrome_false: usize,
    /// Real defects found by the Atomizer but never witnessed by Velodrome.
    pub missed: usize,
    /// The paper's reported counts, for comparison.
    pub paper_atomizer_real: u32,
    /// The paper's Atomizer false alarms.
    pub paper_atomizer_false: u32,
    /// The paper's Velodrome count.
    pub paper_velodrome: u32,
    /// The paper's missed count.
    pub paper_missed: u32,
}

/// Runs the Table 2 measurement for one workload across `runs` seeds.
pub fn measure(workload: &Workload, runs: u64) -> Table2Row {
    let mut atomizer_labels: HashSet<String> = HashSet::new();
    let mut velodrome_labels: HashSet<String> = HashSet::new();
    for seed in 0..runs {
        let trace = workload.run(seed);
        for w in run_tool(&mut Atomizer::new(), &trace) {
            if let Some(l) = w.label {
                atomizer_labels.insert(trace.names().label(l));
            }
        }
        for w in check_trace(&trace) {
            if let Some(l) = w.label {
                velodrome_labels.insert(trace.names().label(l));
            }
        }
    }
    let real = |s: &HashSet<String>| s.iter().filter(|l| workload.is_non_atomic(l)).count();
    let atomizer_real_set: HashSet<&String> = atomizer_labels
        .iter()
        .filter(|l| workload.is_non_atomic(l))
        .collect();
    let missed = atomizer_real_set
        .iter()
        .filter(|l| !velodrome_labels.contains(**l))
        .count();
    Table2Row {
        name: workload.name.to_string(),
        atomizer_real: real(&atomizer_labels),
        atomizer_false: atomizer_labels.len() - real(&atomizer_labels),
        velodrome_real: real(&velodrome_labels),
        velodrome_false: velodrome_labels.len() - real(&velodrome_labels),
        missed,
        paper_atomizer_real: workload.paper.atomizer_real,
        paper_atomizer_false: workload.paper.atomizer_false,
        paper_velodrome: workload.paper.velodrome_found,
        paper_missed: workload.paper.missed,
    }
}

/// Runs Table 2 for every workload.
pub fn run_table2(scale: u32, runs: u64) -> Vec<Table2Row> {
    velodrome_workloads::all(scale)
        .iter()
        .map(|w| measure(w, runs))
        .collect()
}

/// Renders rows with measured and paper columns side by side.
pub fn render(rows: &[Table2Row]) -> String {
    let header = [
        "program",
        "atomizer real",
        "atomizer false",
        "velodrome real",
        "velodrome false",
        "missed",
        "(paper: A-real",
        "A-false",
        "V-real",
        "missed)",
    ];
    let mut body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.atomizer_real.to_string(),
                r.atomizer_false.to_string(),
                r.velodrome_real.to_string(),
                r.velodrome_false.to_string(),
                r.missed.to_string(),
                r.paper_atomizer_real.to_string(),
                r.paper_atomizer_false.to_string(),
                r.paper_velodrome.to_string(),
                r.paper_missed.to_string(),
            ]
        })
        .collect();
    let totals = |f: fn(&Table2Row) -> usize| rows.iter().map(f).sum::<usize>().to_string();
    body.push(vec![
        "TOTAL".into(),
        totals(|r| r.atomizer_real),
        totals(|r| r.atomizer_false),
        totals(|r| r.velodrome_real),
        totals(|r| r.velodrome_false),
        totals(|r| r.missed),
        rows.iter()
            .map(|r| r.paper_atomizer_real)
            .sum::<u32>()
            .to_string(),
        rows.iter()
            .map(|r| r.paper_atomizer_false)
            .sum::<u32>()
            .to_string(),
        rows.iter()
            .map(|r| r.paper_velodrome)
            .sum::<u32>()
            .to_string(),
        rows.iter().map(|r| r.paper_missed).sum::<u32>().to_string(),
    ]);
    report::table(&header, &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn velodrome_has_zero_false_alarms_everywhere() {
        for w in velodrome_workloads::all(1) {
            let row = measure(&w, 3);
            assert_eq!(
                row.velodrome_false, 0,
                "{}: velodrome must be complete",
                w.name
            );
        }
    }

    #[test]
    fn atomizer_false_alarms_on_fork_join_benchmarks() {
        let w = velodrome_workloads::build("jbb", 1).unwrap();
        let row = measure(&w, 2);
        assert!(
            row.atomizer_false > 10,
            "jbb is the paper's big false-alarm source"
        );
        assert_eq!(row.velodrome_false, 0);
    }

    #[test]
    fn multiset_defects_fully_found() {
        let w = velodrome_workloads::build("multiset", 1).unwrap();
        let row = measure(&w, 5);
        assert_eq!(row.velodrome_real, 5);
        assert_eq!(row.missed, 0);
    }

    #[test]
    fn render_includes_totals() {
        let w = velodrome_workloads::build("philo", 1).unwrap();
        let text = render(&[measure(&w, 2)]);
        assert!(text.contains("TOTAL"));
    }
}
