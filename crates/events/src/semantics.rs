//! Well-formedness of traces under the multithreaded semantics of Figure 1.
//!
//! A trace is *well formed* when it could have been produced by the paper's
//! transition relation: locks are acquired only when free and released only
//! by their holder ([ACT ACQUIRE]/[ACT RELEASE]), `end` operations match an
//! enclosing `begin`, forks start fresh threads, and joins happen only after
//! the joined thread's last operation. Atomic blocks left open at the end of
//! the trace are permitted — the paper treats an unmatched `begin` as a
//! transaction extending to the end of the trace.
//!
//! Re-entrant lock acquires are rejected here: RoadRunner (and our monitor
//! crate) filters redundant re-entrant acquires and releases before events
//! reach a back-end analysis, so well-formed back-end traces never contain
//! them.
//!
//! The rules are written once, in [`TraceChecker`], which checks one
//! operation at a time and so needs no look-ahead: a join that comes before
//! the child's last operation is reported at the child's first operation
//! after it. [`validate`] runs the checker over a whole trace.

use crate::ids::{LockId, ThreadId};
use crate::op::Op;
use crate::trace::Trace;
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

/// A violation of the Figure 1 semantics, with the index of the offending
/// operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidityError {
    /// `acq(t, m)` while `m` is held (by `holder`).
    LockNotFree {
        /// Index of the offending acquire.
        at: usize,
        /// The lock.
        m: LockId,
        /// The thread already holding it.
        holder: ThreadId,
    },
    /// `rel(t, m)` while `m` is free.
    LockNotHeld {
        /// Index of the offending release.
        at: usize,
        /// The lock.
        m: LockId,
    },
    /// `rel(t, m)` by a thread other than the holder.
    ReleaseByNonOwner {
        /// Index of the offending release.
        at: usize,
        /// The lock.
        m: LockId,
        /// The actual holder.
        holder: ThreadId,
    },
    /// `end(t)` with no open atomic block for `t`.
    EndWithoutBegin {
        /// Index of the offending end.
        at: usize,
        /// The thread.
        t: ThreadId,
    },
    /// `fork(t, c)` where `c` already performed operations or was forked.
    ForkOfActiveThread {
        /// Index of the offending fork.
        at: usize,
        /// The already-active child.
        child: ThreadId,
    },
    /// `fork(t, t)`.
    SelfFork {
        /// Index of the offending fork.
        at: usize,
        /// The thread forking itself.
        t: ThreadId,
    },
    /// `join(t, c)` but `c` performs an operation after the join.
    JoinBeforeChildFinished {
        /// Index of the offending join (the first, if `c` was joined twice).
        at: usize,
        /// The joined child.
        child: ThreadId,
        /// Index of the child's first operation after the join.
        child_op: usize,
    },
    /// `join(t, t)`.
    SelfJoin {
        /// Index of the offending join.
        at: usize,
        /// The thread joining itself.
        t: ThreadId,
    },
}

impl fmt::Display for ValidityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidityError::LockNotFree { at, m, holder } => {
                write!(f, "op {at}: acquire of {m} while held by {holder}")
            }
            ValidityError::LockNotHeld { at, m } => {
                write!(f, "op {at}: release of {m} while free")
            }
            ValidityError::ReleaseByNonOwner { at, m, holder } => {
                write!(f, "op {at}: release of {m} held by {holder}")
            }
            ValidityError::EndWithoutBegin { at, t } => {
                write!(f, "op {at}: end({t}) without matching begin")
            }
            ValidityError::ForkOfActiveThread { at, child } => {
                write!(f, "op {at}: fork of already-active thread {child}")
            }
            ValidityError::SelfFork { at, t } => write!(f, "op {at}: thread {t} forks itself"),
            ValidityError::JoinBeforeChildFinished {
                at,
                child,
                child_op,
            } => {
                write!(
                    f,
                    "op {at}: join of {child} which still runs at op {child_op}"
                )
            }
            ValidityError::SelfJoin { at, t } => write!(f, "op {at}: thread {t} joins itself"),
        }
    }
}

impl Error for ValidityError {}

/// Checks a whole trace against the Figure 1 semantics: [`TraceChecker`]
/// over its operations, stopping at the first violation.
pub fn validate(trace: &Trace) -> Result<(), ValidityError> {
    let mut checker = TraceChecker::new();
    trace.iter().try_for_each(|(_, op)| checker.check(op))
}

/// Incremental well-formedness checker for *online* monitoring: feed each
/// operation as it is observed. A join is checked when the joined thread
/// acts again, since whether the child had finished is only known then.
#[derive(Debug, Default)]
pub struct TraceChecker {
    holders: HashMap<LockId, ThreadId>,
    depth: HashMap<ThreadId, usize>,
    /// Threads that acted or were forked.
    seen: HashSet<ThreadId>,
    joined: HashMap<ThreadId, usize>,
    index: usize,
}

impl TraceChecker {
    /// Creates a checker in the initial state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Operations checked so far.
    pub fn checked(&self) -> usize {
        self.index
    }

    /// Checks the next operation, advancing the state on success.
    pub fn check(&mut self, op: Op) -> Result<(), ValidityError> {
        use crate::op::Op::*;
        let i = self.index;
        let t = op.tid();
        if let Some(&at) = self.joined.get(&t) {
            // A joined thread can never act again; report it as a join that
            // happened before the child finished.
            return Err(ValidityError::JoinBeforeChildFinished {
                at,
                child: t,
                child_op: i,
            });
        }
        match op {
            Acquire { m, .. } => {
                if let Some(&holder) = self.holders.get(&m) {
                    return Err(ValidityError::LockNotFree { at: i, m, holder });
                }
                self.holders.insert(m, t);
            }
            Release { m, .. } => match self.holders.get(&m) {
                None => return Err(ValidityError::LockNotHeld { at: i, m }),
                Some(&holder) if holder != t => {
                    return Err(ValidityError::ReleaseByNonOwner { at: i, m, holder })
                }
                Some(_) => {
                    self.holders.remove(&m);
                }
            },
            Begin { .. } => *self.depth.entry(t).or_insert(0) += 1,
            End { .. } => {
                let d = self.depth.entry(t).or_insert(0);
                if *d == 0 {
                    return Err(ValidityError::EndWithoutBegin { at: i, t });
                }
                *d -= 1;
            }
            Fork { child, .. } => {
                if child == t {
                    return Err(ValidityError::SelfFork { at: i, t });
                }
                if !self.seen.insert(child) {
                    return Err(ValidityError::ForkOfActiveThread { at: i, child });
                }
            }
            Join { child, .. } => {
                if child == t {
                    return Err(ValidityError::SelfJoin { at: i, t });
                }
                self.joined.entry(child).or_insert(i);
            }
            Read { .. } | Write { .. } => {}
        }
        self.seen.insert(t);
        self.index += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuilder;

    #[test]
    fn valid_lock_discipline_passes() {
        let mut b = TraceBuilder::new();
        b.acquire("T1", "m").read("T1", "x").release("T1", "m");
        b.acquire("T2", "m").write("T2", "x").release("T2", "m");
        assert_eq!(validate(&b.finish()), Ok(()));
    }

    #[test]
    fn double_acquire_rejected() {
        let mut b = TraceBuilder::new();
        b.acquire("T1", "m").acquire("T2", "m");
        let err = validate(&b.finish()).unwrap_err();
        assert!(matches!(err, ValidityError::LockNotFree { at: 1, .. }));
    }

    #[test]
    fn reentrant_acquire_rejected() {
        let mut b = TraceBuilder::new();
        b.acquire("T1", "m").acquire("T1", "m");
        let err = validate(&b.finish()).unwrap_err();
        assert!(matches!(err, ValidityError::LockNotFree { .. }));
    }

    #[test]
    fn release_free_lock_rejected() {
        let mut b = TraceBuilder::new();
        b.release("T1", "m");
        assert!(matches!(
            validate(&b.finish()).unwrap_err(),
            ValidityError::LockNotHeld { at: 0, .. }
        ));
    }

    #[test]
    fn release_by_other_thread_rejected() {
        let mut b = TraceBuilder::new();
        b.acquire("T1", "m").release("T2", "m");
        assert!(matches!(
            validate(&b.finish()).unwrap_err(),
            ValidityError::ReleaseByNonOwner { at: 1, .. }
        ));
    }

    #[test]
    fn end_without_begin_rejected() {
        let mut b = TraceBuilder::new();
        b.end("T1");
        assert!(matches!(
            validate(&b.finish()).unwrap_err(),
            ValidityError::EndWithoutBegin { at: 0, .. }
        ));
    }

    /// A trace may end inside a block and holding a lock: monitors may
    /// observe truncated executions.
    #[test]
    fn unclosed_begin_is_valid() {
        let mut b = TraceBuilder::new();
        b.begin("T1", "l").acquire("T1", "m").read("T1", "x");
        assert_eq!(validate(&b.finish()), Ok(()));
    }

    #[test]
    fn nested_blocks_are_valid() {
        let mut b = TraceBuilder::new();
        b.begin("T1", "p").begin("T1", "q").end("T1").end("T1");
        assert_eq!(validate(&b.finish()), Ok(()));
    }

    #[test]
    fn fork_of_running_thread_rejected() {
        let mut b = TraceBuilder::new();
        b.read("T2", "x").fork("T1", "T2");
        assert!(matches!(
            validate(&b.finish()).unwrap_err(),
            ValidityError::ForkOfActiveThread { at: 1, .. }
        ));
    }

    #[test]
    fn fork_then_child_runs_is_valid() {
        let mut b = TraceBuilder::new();
        b.fork("T1", "T2").read("T2", "x").join("T1", "T2");
        assert_eq!(validate(&b.finish()), Ok(()));
    }

    #[test]
    fn join_before_child_finished_rejected() {
        let mut b = TraceBuilder::new();
        b.fork("T1", "T2").join("T1", "T2").read("T2", "x");
        assert!(matches!(
            validate(&b.finish()).unwrap_err(),
            ValidityError::JoinBeforeChildFinished { at: 1, .. }
        ));
    }

    #[test]
    fn self_fork_and_self_join_rejected() {
        let mut b = TraceBuilder::new();
        b.fork("T1", "T1");
        assert!(matches!(
            validate(&b.finish()).unwrap_err(),
            ValidityError::SelfFork { .. }
        ));
        let mut b = TraceBuilder::new();
        b.join("T1", "T1");
        assert!(matches!(
            validate(&b.finish()).unwrap_err(),
            ValidityError::SelfJoin { .. }
        ));
    }

    #[test]
    fn incremental_checker_matches_offline_validation() {
        let mut good = TraceBuilder::new();
        good.fork("T1", "T2");
        good.acquire("T2", "m").begin("T2", "p").read("T2", "x");
        good.end("T2").release("T2", "m");
        good.join("T1", "T2");
        let mut checker = TraceChecker::new();
        for (_, op) in good.finish().iter() {
            checker.check(op).unwrap();
        }
        assert_eq!(checker.checked(), 7);
    }

    #[test]
    fn incremental_checker_rejects_bad_ops_online() {
        let mut checker = TraceChecker::new();
        let t1 = crate::ids::ThreadId::new(0);
        let t2 = crate::ids::ThreadId::new(1);
        let m = LockId::new(0);
        checker.check(crate::op::Op::Acquire { t: t1, m }).unwrap();
        assert!(matches!(
            checker.check(crate::op::Op::Acquire { t: t2, m }),
            Err(ValidityError::LockNotFree { .. })
        ));
        // State unchanged on failure: t1 can still release.
        checker.check(crate::op::Op::Release { t: t1, m }).unwrap();
    }

    #[test]
    fn incremental_checker_catches_acting_after_join() {
        let mut checker = TraceChecker::new();
        let t1 = crate::ids::ThreadId::new(0);
        let t2 = crate::ids::ThreadId::new(1);
        let x = crate::ids::VarId::new(0);
        checker
            .check(crate::op::Op::Fork { t: t1, child: t2 })
            .unwrap();
        checker.check(crate::op::Op::Write { t: t2, x }).unwrap();
        checker
            .check(crate::op::Op::Join { t: t1, child: t2 })
            .unwrap();
        assert!(checker.check(crate::op::Op::Write { t: t2, x }).is_err());
    }

    #[test]
    fn errors_display() {
        let mut b = TraceBuilder::new();
        b.release("T1", "m");
        let err = validate(&b.finish()).unwrap_err();
        assert!(err.to_string().contains("release"));
    }
}
