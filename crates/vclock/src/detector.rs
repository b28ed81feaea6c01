//! DJIT⁺-style happens-before race detector.
//!
//! Maintains one clock per thread, per lock, and per variable (separately
//! for reads and writes). A race is reported exactly when two conflicting
//! accesses are concurrent in the happens-before order induced by program
//! order, lock release→acquire edges, and fork/join — i.e., the detector is
//! precise for the observed trace.

use crate::clock::{SyncClocks, VectorClock};
use std::collections::{HashMap, HashSet};
use velodrome_events::{Op, SymbolTable, VarId};
use velodrome_monitor::tool::{RaceLog, Tool, Warning};

#[derive(Debug, Default)]
struct VarClocks {
    reads: VectorClock,
    writes: VectorClock,
}

/// The happens-before race detector back-end.
///
/// # Examples
///
/// ```
/// use velodrome_events::TraceBuilder;
/// use velodrome_monitor::run_tool;
/// use velodrome_vclock::HbRaceDetector;
///
/// let mut b = TraceBuilder::new();
/// b.acquire("T1", "m").write("T1", "x").release("T1", "m");
/// b.acquire("T2", "m").write("T2", "x").release("T2", "m");
/// let warnings = run_tool(&mut HbRaceDetector::new(), &b.finish());
/// assert!(warnings.is_empty(), "release/acquire orders the writes");
/// ```
#[derive(Debug, Default)]
pub struct HbRaceDetector {
    clocks: SyncClocks,
    vars: HashMap<VarId, VarClocks>,
    races: RaceLog,
}

impl HbRaceDetector {
    /// Creates a detector with empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total conflicting concurrent access pairs observed (before
    /// per-variable deduplication).
    pub fn races_detected(&self) -> u64 {
        self.races.races_detected()
    }

    /// The set of variables flagged racy so far.
    pub fn racy_vars(&self) -> &HashSet<VarId> {
        self.races.racy_vars()
    }
}

impl Tool for HbRaceDetector {
    fn name(&self) -> &'static str {
        "hb-race"
    }

    fn op(&mut self, index: usize, op: Op) {
        match op {
            Op::Read { t, x } => {
                let ct = self.clocks.thread(t);
                let vc = self.vars.entry(x).or_default();
                let racy = !vc.writes.le(ct);
                vc.reads.set(t, ct.get(t));
                if racy {
                    self.races.report(t, x, index, "write-read");
                }
            }
            Op::Write { t, x } => {
                let ct = self.clocks.thread(t);
                let vc = self.vars.entry(x).or_default();
                let racy_w = !vc.writes.le(ct);
                let racy_r = !vc.reads.le(ct);
                let my = ct.get(t);
                vc.writes.set(t, my);
                vc.reads.set(t, my);
                if racy_w {
                    self.races.report(t, x, index, "write-write");
                } else if racy_r {
                    self.races.report(t, x, index, "read-write");
                }
            }
            _ => self.clocks.sync(op),
        }
    }

    fn take_warnings(&mut self) -> Vec<Warning> {
        self.races
            .take_warnings("hb-race", |kind, x, t| format!("{kind} race on {x} by {t}"))
    }

    fn set_names(&mut self, names: SymbolTable) {
        self.races.set_names(names);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use velodrome_events::TraceBuilder;
    use velodrome_monitor::run_tool;

    fn races(build: impl FnOnce(&mut TraceBuilder)) -> usize {
        let mut b = TraceBuilder::new();
        build(&mut b);
        let mut d = HbRaceDetector::new();
        run_tool(&mut d, &b.finish()).len()
    }

    #[test]
    fn unsynchronized_write_write_is_a_race() {
        let n = races(|b| {
            b.write("T1", "x");
            b.write("T2", "x");
        });
        assert_eq!(n, 1);
    }

    #[test]
    fn lock_protected_accesses_do_not_race() {
        let n = races(|b| {
            b.acquire("T1", "m").write("T1", "x").release("T1", "m");
            b.acquire("T2", "m").write("T2", "x").release("T2", "m");
        });
        assert_eq!(n, 0);
    }

    #[test]
    fn read_read_never_races() {
        let n = races(|b| {
            b.read("T1", "x");
            b.read("T2", "x");
        });
        assert_eq!(n, 0);
    }

    #[test]
    fn unordered_read_write_is_a_race() {
        let n = races(|b| {
            b.read("T1", "x");
            b.write("T2", "x");
        });
        assert_eq!(n, 1);
    }

    #[test]
    fn fork_join_orders_accesses() {
        let n = races(|b| {
            b.write("T1", "x");
            b.fork("T1", "T2");
            b.write("T2", "x");
            b.join("T1", "T2");
            b.read("T1", "x");
        });
        assert_eq!(n, 0);
    }

    #[test]
    fn release_acquire_chain_orders_distant_threads() {
        let n = races(|b| {
            b.write("T1", "x");
            b.acquire("T1", "m").release("T1", "m");
            b.acquire("T2", "m").release("T2", "m");
            b.write("T2", "x");
        });
        assert_eq!(n, 0);
    }

    #[test]
    fn unrelated_lock_does_not_order() {
        let n = races(|b| {
            b.acquire("T1", "m1").write("T1", "x").release("T1", "m1");
            b.acquire("T2", "m2").write("T2", "x").release("T2", "m2");
        });
        assert_eq!(n, 1, "different locks do not synchronize");
    }

    #[test]
    fn races_deduplicated_per_variable() {
        let mut b = TraceBuilder::new();
        for _ in 0..5 {
            b.write("T1", "x").write("T2", "x");
        }
        let mut d = HbRaceDetector::new();
        let warnings = run_tool(&mut d, &b.finish());
        assert_eq!(warnings.len(), 1);
        assert!(d.races_detected() >= 5);
    }

    #[test]
    fn flag_handoff_races_under_pure_lock_hb() {
        // The Section 2 handoff synchronizes through a plain flag variable.
        // Plain accesses induce no happens-before edges for a race detector
        // (unlike for Velodrome's conflict-based relation), so both the flag
        // and the handed-off variable are flagged — one reason race checking
        // and serializability checking are complementary.
        let mut b = TraceBuilder::new();
        b.read("T2", "b");
        b.write("T1", "x");
        b.write("T1", "b");
        b.read("T2", "b");
        b.write("T2", "x");
        let mut d = HbRaceDetector::new();
        let warnings = run_tool(&mut d, &b.finish());
        assert_eq!(warnings.len(), 2, "{warnings:?}");
    }
}
