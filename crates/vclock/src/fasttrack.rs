//! Epoch-optimized happens-before race detection (FastTrack-style).
//!
//! The full-vector detector in [`crate::detector`] pays `O(threads)` per
//! access. Almost all variables are read and written in a totally ordered
//! way, so their history compresses to a single *epoch* `c@t` — the clock
//! of the last access and the thread that performed it. Vectors are kept
//! only for genuinely read-shared variables. The two detectors report
//! exactly the same racy variables; the differential tests in the
//! integration crate verify that.
//!
//! The same compression idiom — cache the one access that dominates the
//! recent history and compare against it before doing full work — is reused
//! by the core engine's happens-before hot path: `velodrome`'s per-thread
//! epoch cache short-circuits edge insertions whose predecessor step was
//! already a no-op for the current transaction, exactly as an [`Epoch`]
//! short-circuits a full vector-clock comparison here.

use crate::clock::{thread_clock, VectorClock};
use std::collections::{HashMap, HashSet};
use velodrome_events::{LockId, Op, ThreadId, VarId};
use velodrome_monitor::tool::{Tool, Warning, WarningCategory};

/// A scalar clock value paired with the thread that produced it (`c@t`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Epoch {
    /// The thread.
    pub t: ThreadId,
    /// Its clock at the access.
    pub c: u64,
}

impl Epoch {
    /// The bottom epoch: happens-before everything.
    pub const BOTTOM: Epoch = Epoch {
        t: ThreadId::new(0),
        c: 0,
    };

    /// Does this epoch happen-before (or equal) the clock `vc`?
    pub fn le(self, vc: &VectorClock) -> bool {
        self.c <= vc.get(self.t)
    }
}

#[derive(Debug, Clone)]
enum ReadState {
    /// All reads so far are totally ordered; only the last matters.
    Epoch(Epoch),
    /// Concurrent readers: fall back to a full vector.
    Vector(VectorClock),
}

#[derive(Debug)]
struct VarState {
    write: Epoch,
    read: ReadState,
}

impl Default for VarState {
    fn default() -> Self {
        Self {
            write: Epoch::BOTTOM,
            read: ReadState::Epoch(Epoch::BOTTOM),
        }
    }
}

/// The epoch-optimized happens-before race detector.
///
/// # Examples
///
/// ```
/// use velodrome_events::TraceBuilder;
/// use velodrome_monitor::run_tool;
/// use velodrome_vclock::FastTrack;
///
/// let mut b = TraceBuilder::new();
/// b.write("T1", "x");
/// b.write("T2", "x"); // unsynchronized: concurrent writes
/// let mut detector = FastTrack::new();
/// let warnings = run_tool(&mut detector, &b.finish());
/// assert_eq!(warnings.len(), 1);
/// assert_eq!(detector.inflations(), 0, "no read sharing, no vectors");
/// ```
#[derive(Debug, Default)]
pub struct FastTrack {
    threads: HashMap<ThreadId, VectorClock>,
    locks: HashMap<LockId, VectorClock>,
    vars: HashMap<VarId, VarState>,
    reported: HashSet<VarId>,
    warnings: Vec<Warning>,
    races_detected: u64,
    /// Vector inflations performed (read-shared variables).
    inflations: u64,
}

impl FastTrack {
    /// Creates a detector with empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Racy accesses observed (before per-variable deduplication).
    pub fn races_detected(&self) -> u64 {
        self.races_detected
    }

    /// Number of read states inflated from epoch to vector.
    pub fn inflations(&self) -> u64 {
        self.inflations
    }

    /// The set of variables flagged racy so far.
    pub fn racy_vars(&self) -> &HashSet<VarId> {
        &self.reported
    }

    fn report(&mut self, t: ThreadId, x: VarId, index: usize, kind: &str) {
        self.races_detected += 1;
        if !self.reported.insert(x) {
            return;
        }
        self.warnings.push(Warning {
            tool: "fasttrack",
            category: WarningCategory::Race,
            label: None,
            thread: t,
            op_index: index,
            message: format!("{kind} race on {x} by {t}"),
            details: None,
        });
    }
}

impl Tool for FastTrack {
    fn name(&self) -> &'static str {
        "fasttrack"
    }

    fn op(&mut self, index: usize, op: Op) {
        match op {
            Op::Acquire { t, m } => {
                let ct = thread_clock(&mut self.threads, t);
                if let Some(lock) = self.locks.get(&m) {
                    ct.join(lock);
                }
            }
            Op::Release { t, m } => {
                let ct = thread_clock(&mut self.threads, t);
                self.locks.entry(m).or_default().clone_from(ct);
                ct.inc(t);
            }
            Op::Fork { t, child } => {
                let parent = thread_clock(&mut self.threads, t).clone();
                thread_clock(&mut self.threads, child).join(&parent);
                thread_clock(&mut self.threads, t).inc(t);
            }
            Op::Join { t, child } => {
                let done = thread_clock(&mut self.threads, child).clone();
                thread_clock(&mut self.threads, t).join(&done);
                thread_clock(&mut self.threads, child).inc(child);
            }
            Op::Read { t, x } => {
                let ct = &*thread_clock(&mut self.threads, t);
                let mine = Epoch { t, c: ct.get(t) };
                let st = self.vars.entry(x).or_default();
                let mut racy = false;
                if !st.write.le(ct) {
                    racy = true;
                }
                match &mut st.read {
                    ReadState::Epoch(e) => {
                        if *e == mine || e.le(ct) {
                            // Totally ordered: stay in epoch representation.
                            st.read = ReadState::Epoch(mine);
                        } else {
                            // Concurrent reader: inflate.
                            let mut v = VectorClock::new();
                            v.set(e.t, e.c);
                            v.set(t, mine.c);
                            st.read = ReadState::Vector(v);
                            self.inflations += 1;
                        }
                    }
                    ReadState::Vector(v) => v.set(t, mine.c),
                }
                if racy {
                    self.report(t, x, index, "write-read");
                }
            }
            Op::Write { t, x } => {
                let ct = &*thread_clock(&mut self.threads, t);
                let mine = Epoch { t, c: ct.get(t) };
                let st = self.vars.entry(x).or_default();
                let racy_w = !st.write.le(ct);
                let racy_r = match &st.read {
                    ReadState::Epoch(e) => !e.le(ct),
                    ReadState::Vector(v) => !v.le(ct),
                };
                st.write = mine;
                // Reads before this write are now ordered through it.
                st.read = ReadState::Epoch(Epoch::BOTTOM);
                if racy_w {
                    self.report(t, x, index, "write-write");
                } else if racy_r {
                    self.report(t, x, index, "read-write");
                }
            }
            Op::Begin { .. } | Op::End { .. } => {}
        }
    }

    fn take_warnings(&mut self) -> Vec<Warning> {
        std::mem::take(&mut self.warnings)
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
        let mut d = FastTrack::new();
        run_tool(&mut d, &b.finish()).len()
    }

    #[test]
    fn unsynchronized_write_write_is_a_race() {
        assert_eq!(
            races(|b| {
                b.write("T1", "x").write("T2", "x");
            }),
            1
        );
    }

    #[test]
    fn lock_protected_accesses_do_not_race() {
        assert_eq!(
            races(|b| {
                b.acquire("T1", "m").write("T1", "x").release("T1", "m");
                b.acquire("T2", "m").write("T2", "x").release("T2", "m");
            }),
            0
        );
    }

    #[test]
    fn read_shared_data_inflates_but_does_not_race() {
        let mut b = TraceBuilder::new();
        b.write("T1", "x"); // exclusive init
        b.acquire("T1", "m").release("T1", "m");
        b.acquire("T2", "m").release("T2", "m");
        b.acquire("T3", "m").release("T3", "m");
        // T2 and T3 read concurrently with each other (ordered after T1).
        b.read("T2", "x").read("T3", "x");
        let mut d = FastTrack::new();
        let warnings = run_tool(&mut d, &b.finish());
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(d.inflations(), 1, "concurrent readers inflate once");
    }

    #[test]
    fn exclusive_rereads_stay_in_epoch_representation() {
        let mut b = TraceBuilder::new();
        for _ in 0..10 {
            b.read("T1", "x").write("T1", "x");
        }
        let mut d = FastTrack::new();
        let warnings = run_tool(&mut d, &b.finish());
        assert!(warnings.is_empty());
        assert_eq!(d.inflations(), 0, "same-thread traffic needs no vectors");
    }

    #[test]
    fn concurrent_read_then_write_races() {
        assert_eq!(
            races(|b| {
                b.read("T1", "x");
                b.write("T2", "x");
            }),
            1
        );
    }

    #[test]
    fn fork_join_orders_accesses() {
        assert_eq!(
            races(|b| {
                b.write("T1", "x");
                b.fork("T1", "T2");
                b.write("T2", "x");
                b.join("T1", "T2");
                b.read("T1", "x");
            }),
            0
        );
    }

    #[test]
    fn epoch_bottom_precedes_everything() {
        let vc = VectorClock::new();
        assert!(Epoch::BOTTOM.le(&vc));
        let e = Epoch {
            t: ThreadId::new(1),
            c: 3,
        };
        assert!(!e.le(&vc));
    }
}
