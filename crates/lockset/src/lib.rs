//! Eraser-style lockset race analysis.
//!
//! Implements the classic Eraser algorithm (Savage et al., 1997): every
//! shared variable is expected to be consistently protected by some set of
//! locks; the candidate lockset starts as the set of locks held at the
//! first shared access and is intersected at every subsequent access. A
//! warning is raised when the candidate set of a *written* shared variable
//! becomes empty.
//!
//! Three consumers use this crate:
//!
//! * the [`Eraser`] back-end tool — the `Eraser` column of Table 1;
//! * the Atomizer, which classifies memory accesses as movers or non-movers
//!   based on [`AccessClass`]; and
//! * the Strict 2PL conformance checker ([`s2pl`]) — the related-work
//!   baseline of Section 7 (a sufficient-but-not-necessary condition for
//!   serializability).
//!
//! Eraser is *unsound and incomplete by design* (it neither understands
//! happens-before ordering nor non-lock synchronization); that imprecision
//! is what Velodrome's completeness is measured against.

pub mod s2pl;
pub mod state;

pub use s2pl::StrictTwoPhase;
pub use state::{AccessClass, LockSetState, VarState};

use velodrome_events::{Op, SymbolTable};
use velodrome_monitor::tool::{RaceLog, Tool, Warning};

/// The Eraser back-end tool: reports one race warning per variable whose
/// candidate lockset empties after it has been written by multiple threads.
///
/// A racy variable stays racy (an empty candidate set only shrinks), so
/// [`RaceLog`]'s first access per variable is the one that made it racy.
///
/// # Examples
///
/// ```
/// use velodrome_events::TraceBuilder;
/// use velodrome_lockset::Eraser;
/// use velodrome_monitor::run_tool;
///
/// let mut b = TraceBuilder::new();
/// b.write("T1", "x");
/// b.write("T2", "x"); // no common lock: candidate set is empty
/// let warnings = run_tool(&mut Eraser::new(), &b.finish());
/// assert_eq!(warnings.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct Eraser {
    state: LockSetState,
    races: RaceLog,
}

impl Eraser {
    /// Creates the tool with empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Shared access to the underlying lockset state.
    pub fn state(&self) -> &LockSetState {
        &self.state
    }

    /// Racy accesses observed (before per-variable deduplication).
    pub fn races_detected(&self) -> u64 {
        self.races.races_detected()
    }
}

impl Tool for Eraser {
    fn name(&self) -> &'static str {
        "eraser"
    }

    fn op(&mut self, index: usize, op: Op) {
        match op {
            Op::Acquire { t, m } => self.state.acquire(t, m),
            Op::Release { t, m } => self.state.release(t, m),
            Op::Read { t, x } | Op::Write { t, x } => {
                if self.state.access(t, x, op.is_write()) == AccessClass::Racy {
                    self.races.report(t, x, index, "possible");
                }
            }
            // Eraser ignores transaction markers and fork/join (a source of
            // its false alarms on fork/join programs, per Section 6).
            Op::Begin { .. } | Op::End { .. } | Op::Fork { .. } | Op::Join { .. } => {}
        }
    }

    fn take_warnings(&mut self) -> Vec<Warning> {
        self.races.take_warnings("eraser", |kind, x, _| {
            format!("{kind} race on {x}: lockset empty")
        })
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

    fn warnings(build: impl FnOnce(&mut TraceBuilder)) -> Vec<Warning> {
        let mut b = TraceBuilder::new();
        build(&mut b);
        let mut e = Eraser::new();
        run_tool(&mut e, &b.finish())
    }

    #[test]
    fn consistent_locking_is_silent() {
        let w = warnings(|b| {
            b.acquire("T1", "m").write("T1", "x").release("T1", "m");
            b.acquire("T2", "m").write("T2", "x").release("T2", "m");
        });
        assert!(w.is_empty(), "{w:?}");
    }

    #[test]
    fn unprotected_shared_write_is_flagged() {
        let w = warnings(|b| {
            b.write("T1", "x");
            b.write("T2", "x");
        });
        assert_eq!(w.len(), 1);
        assert!(w[0].message.contains("lockset empty"));
    }

    #[test]
    fn thread_local_data_is_silent() {
        let w = warnings(|b| {
            for _ in 0..5 {
                b.read("T1", "x").write("T1", "x");
            }
        });
        assert!(w.is_empty());
    }

    #[test]
    fn read_only_sharing_is_silent() {
        let w = warnings(|b| {
            b.write("T1", "x"); // initialization while exclusive
            b.read("T2", "x").read("T3", "x");
        });
        assert!(w.is_empty(), "read-shared data needs no locks: {w:?}");
    }

    #[test]
    fn inconsistent_locks_are_flagged() {
        let w = warnings(|b| {
            b.acquire("T1", "m1").write("T1", "x").release("T1", "m1");
            b.acquire("T2", "m2").write("T2", "x").release("T2", "m2");
            // Third access: candidate {m2} ∩ {m1} = ∅ → warning.
            b.acquire("T1", "m1").write("T1", "x").release("T1", "m1");
        });
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn flag_handoff_false_alarm() {
        // The Section 2 handoff is perfectly synchronized, but Eraser
        // cannot see flag-based synchronization: false alarms, as the paper
        // describes.
        let w = warnings(|b| {
            b.read("T1", "b");
            b.begin("T1", "c1")
                .read("T1", "x")
                .write("T1", "x")
                .write("T1", "b")
                .end("T1");
            b.read("T2", "b");
            b.begin("T2", "c2")
                .read("T2", "x")
                .write("T2", "x")
                .write("T2", "b")
                .end("T2");
        });
        assert!(!w.is_empty(), "Eraser false-alarms on the handoff idiom");
    }

    #[test]
    fn one_warning_per_variable() {
        let w = warnings(|b| {
            for _ in 0..5 {
                b.write("T1", "x").write("T2", "x");
            }
        });
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn fork_join_is_a_false_alarm_source() {
        // Parent writes, then forks a child that writes: genuinely ordered
        // (no race), but Eraser ignores fork edges.
        let w = warnings(|b| {
            b.write("T1", "x");
            b.fork("T1", "T2");
            b.write("T2", "x");
        });
        assert_eq!(w.len(), 1, "Eraser false-alarms on fork/join programs");
    }
}
