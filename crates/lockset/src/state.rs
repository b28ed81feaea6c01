//! The Eraser per-variable state machine and candidate locksets.

use std::collections::{HashMap, HashSet};
use velodrome_events::{LockId, ThreadId, VarId};

/// Eraser's per-variable protection state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VarState {
    /// Never accessed.
    Virgin,
    /// Accessed by a single thread only.
    Exclusive(ThreadId),
    /// Read-shared across threads (no writes since sharing began);
    /// the candidate lockset is tracked but emptiness is not reported.
    Shared(HashSet<LockId>),
    /// Written by multiple threads; an empty candidate lockset is a race.
    SharedModified(HashSet<LockId>),
}

/// How an access was classified, used both for Eraser reporting and for the
/// Atomizer's mover classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessClass {
    /// The variable is (still) thread-local.
    ThreadLocal,
    /// The access is consistently lock-protected (or read-only shared).
    Protected,
    /// The candidate lockset is empty on shared-modified data: a potential
    /// race.
    Racy,
}

/// Candidate locksets plus currently-held locks per thread.
#[derive(Debug, Default)]
pub struct LockSetState {
    held: HashMap<ThreadId, HashSet<LockId>>,
    vars: HashMap<VarId, VarState>,
}

impl LockSetState {
    /// Creates empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a lock acquisition by `t`.
    pub fn acquire(&mut self, t: ThreadId, m: LockId) {
        self.held.entry(t).or_default().insert(m);
    }

    /// Records a lock release by `t`.
    pub fn release(&mut self, t: ThreadId, m: LockId) {
        if let Some(set) = self.held.get_mut(&t) {
            set.remove(&m);
        }
    }

    /// The set of locks currently held by `t`.
    pub fn held(&self, t: ThreadId) -> HashSet<LockId> {
        self.held.get(&t).cloned().unwrap_or_default()
    }

    /// Whether `t` currently holds any lock.
    pub fn holds_any(&self, t: ThreadId) -> bool {
        self.held.get(&t).is_some_and(|s| !s.is_empty())
    }

    /// The current state of a variable.
    pub fn var_state(&self, x: VarId) -> &VarState {
        self.vars.get(&x).unwrap_or(&VarState::Virgin)
    }

    /// Whether the variable has already been classified racy.
    pub fn is_racy(&self, x: VarId) -> bool {
        matches!(self.vars.get(&x), Some(VarState::SharedModified(c)) if c.is_empty())
    }

    /// Processes a shared access, advancing the state machine and returning
    /// the access classification.
    pub fn access(&mut self, t: ThreadId, x: VarId, is_write: bool) -> AccessClass {
        let held = self.held(t);
        let state = self.vars.entry(x).or_insert(VarState::Virgin);
        let candidate = match state {
            VarState::Virgin => {
                *state = VarState::Exclusive(t);
                return AccessClass::ThreadLocal;
            }
            VarState::Exclusive(owner) if *owner == t => return AccessClass::ThreadLocal,
            // Second thread: the candidate set starts as the locks held now.
            VarState::Exclusive(_) => held,
            VarState::Shared(c) | VarState::SharedModified(c) => {
                c.intersection(&held).copied().collect()
            }
        };
        let modified = is_write || matches!(state, VarState::SharedModified(_));
        let racy = modified && candidate.is_empty();
        *state = if modified {
            VarState::SharedModified(candidate)
        } else {
            VarState::Shared(candidate)
        };
        if racy {
            AccessClass::Racy
        } else {
            AccessClass::Protected
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }
    fn x(i: u32) -> VarId {
        VarId::new(i)
    }
    fn m(i: u32) -> LockId {
        LockId::new(i)
    }

    #[test]
    fn virgin_to_exclusive() {
        let mut s = LockSetState::new();
        assert_eq!(s.access(t(0), x(0), true), AccessClass::ThreadLocal);
        assert_eq!(s.access(t(0), x(0), false), AccessClass::ThreadLocal);
        assert_eq!(*s.var_state(x(0)), VarState::Exclusive(t(0)));
    }

    #[test]
    fn second_thread_starts_candidate_set() {
        let mut s = LockSetState::new();
        s.access(t(0), x(0), true);
        s.acquire(t(1), m(0));
        assert_eq!(s.access(t(1), x(0), true), AccessClass::Protected);
        match s.var_state(x(0)) {
            VarState::SharedModified(c) => assert_eq!(c.len(), 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn intersection_empties_on_inconsistent_locks() {
        let mut s = LockSetState::new();
        s.access(t(0), x(0), true);
        s.acquire(t(1), m(0));
        s.access(t(1), x(0), true);
        s.release(t(1), m(0));
        s.acquire(t(0), m(1));
        assert_eq!(s.access(t(0), x(0), true), AccessClass::Racy);
        assert!(s.is_racy(x(0)));
    }

    #[test]
    fn read_shared_never_racy_without_writes() {
        let mut s = LockSetState::new();
        s.access(t(0), x(0), true);
        assert_eq!(s.access(t(1), x(0), false), AccessClass::Protected);
        assert_eq!(s.access(t(2), x(0), false), AccessClass::Protected);
        assert!(matches!(s.var_state(x(0)), VarState::Shared(_)));
    }

    #[test]
    fn write_after_read_shared_checks_lockset() {
        let mut s = LockSetState::new();
        s.access(t(0), x(0), true);
        s.access(t(1), x(0), false); // shared, candidate = {} (no locks held)
        assert_eq!(s.access(t(2), x(0), true), AccessClass::Racy);
    }

    #[test]
    fn held_locks_tracked_per_thread() {
        let mut s = LockSetState::new();
        s.acquire(t(0), m(0));
        s.acquire(t(0), m(1));
        s.release(t(0), m(0));
        assert_eq!(s.held(t(0)).len(), 1);
        assert!(s.holds_any(t(0)));
        assert!(!s.holds_any(t(1)));
    }
}
