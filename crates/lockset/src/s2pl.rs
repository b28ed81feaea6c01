//! Strict two-phase-locking (S2PL) conformance checking.
//!
//! The paper's related work (Section 7) discusses Xu, Bodík & Hill's
//! serializability violation detector, which enforces Strict 2PL — "a
//! sufficient but not necessary condition for ensuring serializability.
//! Hence violations, while possibly worthy of investigation, do not
//! necessarily imply that the observed trace is not serializable." This
//! module implements that style of checker as a further incomplete
//! baseline to contrast with Velodrome's exactness:
//!
//! * **growing-phase rule**: within a transaction, no lock may be acquired
//!   after any lock has been released (2PL);
//! * **protection rule**: every shared access inside a transaction happens
//!   while at least one lock is held.
//!
//! Strictness (release only at the end) is checked through these two: an
//! early release is flagged once the transaction acquires again or touches
//! shared data unprotected.
//!
//! Any S2PL-conformant transaction is serializable, so this checker is
//! *sound for conformance* but flags many perfectly serializable
//! executions (every lock-free idiom, every early release).

use crate::LockSetState;
use std::collections::HashSet;
use velodrome_events::{Op, SymbolTable, ThreadId};
use velodrome_monitor::tool::{BlockLog, Tool, Warning};

/// The Strict 2PL conformance checker.
#[derive(Debug, Default)]
pub struct StrictTwoPhase {
    /// Locks held per thread (including ones acquired outside transactions).
    locks: LockSetState,
    blocks: BlockLog,
    /// Threads whose open transaction has released a lock (entered the
    /// shrinking phase).
    shrinking: HashSet<ThreadId>,
}

impl StrictTwoPhase {
    /// Creates a checker reporting each atomic-block label at most once.
    pub fn new() -> Self {
        Self::default()
    }

    /// Dynamic violations observed (before deduplication).
    pub fn violations_detected(&self) -> u64 {
        self.blocks.violations_detected()
    }
}

impl Tool for StrictTwoPhase {
    fn name(&self) -> &'static str {
        "s2pl"
    }

    fn op(&mut self, index: usize, op: Op) {
        match op {
            Op::Begin { t, l } => self.blocks.begin(t, l),
            Op::End { t } => {
                if self.blocks.end(t) {
                    self.shrinking.remove(&t);
                }
            }
            Op::Acquire { t, m } => {
                self.locks.acquire(t, m);
                if self.shrinking.contains(&t) {
                    let reason = "lock acquired after a release (growing phase over)";
                    self.blocks.violation(t, index, reason);
                }
            }
            Op::Release { t, m } => {
                self.locks.release(t, m);
                if self.blocks.in_block(t) {
                    self.shrinking.insert(t);
                }
            }
            Op::Read { t, .. } | Op::Write { t, .. } => {
                if self.blocks.in_block(t) && !self.locks.holds_any(t) {
                    self.blocks
                        .violation(t, index, "unprotected shared access inside transaction");
                }
            }
            Op::Fork { .. } | Op::Join { .. } => {}
        }
    }

    fn take_warnings(&mut self) -> Vec<Warning> {
        self.blocks
            .take_warnings("s2pl", "violates strict two-phase locking")
    }

    fn set_names(&mut self, names: SymbolTable) {
        self.blocks.set_names(names);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use velodrome_events::TraceBuilder;
    use velodrome_monitor::run_tool;

    fn warnings(build: impl FnOnce(&mut TraceBuilder)) -> Vec<Warning> {
        let mut b = TraceBuilder::new();
        build(&mut b);
        let mut tool = StrictTwoPhase::new();
        run_tool(&mut tool, &b.finish())
    }

    #[test]
    fn single_critical_section_conforms() {
        let w = warnings(|b| {
            b.begin("T1", "m").acquire("T1", "l").read("T1", "x");
            b.write("T1", "x").release("T1", "l").end("T1");
        });
        assert!(w.is_empty(), "{w:?}");
    }

    #[test]
    fn acquire_after_release_is_flagged() {
        let w = warnings(|b| {
            b.begin("T1", "Set.add");
            b.acquire("T1", "l").read("T1", "x").release("T1", "l");
            b.acquire("T1", "l").write("T1", "x").release("T1", "l");
            b.end("T1");
        });
        assert_eq!(w.len(), 1);
        assert!(w[0].message.contains("growing phase"), "{}", w[0].message);
    }

    #[test]
    fn unprotected_access_is_flagged() {
        let w = warnings(|b| {
            b.begin("T1", "inc")
                .read("T1", "x")
                .write("T1", "x")
                .end("T1");
        });
        assert_eq!(w.len(), 1);
        assert!(w[0].message.contains("unprotected"), "{}", w[0].message);
    }

    /// The checker is a *sufficient* condition: it flags the serializable
    /// flag-handoff idiom that Velodrome correctly accepts — the exact
    /// incompleteness the paper contrasts against.
    #[test]
    fn false_alarms_on_serializable_handoff() {
        let w = warnings(|b| {
            b.read("T1", "flag");
            b.begin("T1", "crit").read("T1", "x").write("T1", "x");
            b.write("T1", "flag").end("T1");
        });
        assert!(!w.is_empty(), "S2PL flags lock-free idioms");
    }

    #[test]
    fn code_outside_transactions_is_ignored() {
        let w = warnings(|b| {
            b.read("T1", "x").write("T2", "x");
            b.acquire("T1", "l").release("T1", "l");
        });
        assert!(w.is_empty());
    }

    #[test]
    fn dedup_per_label() {
        let mut b = TraceBuilder::new();
        for _ in 0..5 {
            b.begin("T1", "inc")
                .read("T1", "x")
                .write("T1", "x")
                .end("T1");
        }
        let mut tool = StrictTwoPhase::new();
        let w = run_tool(&mut tool, &b.finish());
        assert_eq!(w.len(), 1);
        assert_eq!(tool.violations_detected(), 10);
    }

    #[test]
    fn lock_held_across_whole_transaction_is_fine_nested() {
        let w = warnings(|b| {
            b.begin("T1", "outer").acquire("T1", "l");
            b.begin("T1", "inner").read("T1", "x").end("T1");
            b.write("T1", "x").release("T1", "l").end("T1");
        });
        assert!(w.is_empty(), "{w:?}");
    }
}
