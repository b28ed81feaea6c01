//! The Atomizer: a reduction-based dynamic atomicity checker
//! (Flanagan & Freund, POPL 2004), reimplemented as the paper's baseline.
//!
//! The Atomizer classifies each operation inside an atomic block using
//! Lipton's theory of reduction:
//!
//! * lock acquires are **right-movers**;
//! * lock releases are **left-movers**;
//! * race-free memory accesses (per the Eraser lockset analysis) are
//!   **both-movers**;
//! * racy accesses are **non-movers**.
//!
//! A transaction is reducible — hence serializable — when its operations
//! match `(right|both)* [non] (left|both)*`. Scanning left to right, the
//! checker is in the *pre-commit* phase until the first left-mover or
//! non-mover, after which it is *post-commit*; a right-mover or a second
//! non-mover in the post-commit phase is an atomicity warning.
//!
//! Because the underlying race information is lockset-based, the Atomizer
//! inherits Eraser's blindness to fork/join, flag handoff, and other
//! non-lock synchronization — the source of the false alarms that
//! Velodrome eliminates (Table 2).
//!
//! [`RmwAdvisor`] implements the commit-point heuristic used for the
//! paper's adversarial scheduling: a thread observed to read a variable
//! without holding locks inside an atomic block is flagged when it is about
//! to write that variable, inviting a conflicting interleaved write.

use std::collections::{HashMap, HashSet};
use velodrome_events::{Op, SymbolTable, ThreadId, VarId};
use velodrome_lockset::{AccessClass, LockSetState};
use velodrome_monitor::tool::{BlockLog, Tool, Warning};

/// The Atomizer back-end tool.
///
/// # Examples
///
/// The `Set.add` shape — two critical sections inside one atomic block —
/// is not reducible:
///
/// ```
/// use velodrome_events::TraceBuilder;
/// use velodrome_atomizer::Atomizer;
/// use velodrome_monitor::run_tool;
///
/// let mut b = TraceBuilder::new();
/// b.write("T2", "elems"); // make the variable shared-modified
/// b.begin("T1", "Set.add");
/// b.acquire("T1", "this").read("T1", "elems").release("T1", "this");
/// b.acquire("T1", "this").write("T1", "elems").release("T1", "this");
/// b.end("T1");
/// let warnings = run_tool(&mut Atomizer::new(), &b.finish());
/// assert_eq!(warnings.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct Atomizer {
    lockset: LockSetState,
    blocks: BlockLog,
    /// Threads whose open transaction is past its commit point (the
    /// post-commit phase). A thread inside a block and not here is still
    /// in the right-mover prefix (pre-commit).
    committed: HashSet<ThreadId>,
}

impl Atomizer {
    /// Creates an Atomizer that reports each atomic-block label at most
    /// once (the paper counts non-atomic *methods*).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an Atomizer reporting every dynamic violation.
    pub fn without_dedup() -> Self {
        Self {
            blocks: BlockLog::without_dedup(),
            ..Self::default()
        }
    }

    /// Dynamic violations observed (before deduplication).
    pub fn violations_detected(&self) -> u64 {
        self.blocks.violations_detected()
    }
}

impl Tool for Atomizer {
    fn name(&self) -> &'static str {
        "atomizer"
    }

    fn op(&mut self, index: usize, op: Op) {
        match op {
            Op::Begin { t, l } => self.blocks.begin(t, l),
            Op::End { t } => {
                if self.blocks.end(t) {
                    self.committed.remove(&t);
                }
            }
            Op::Acquire { t, m } => {
                self.lockset.acquire(t, m);
                if self.committed.contains(&t) {
                    let reason = "lock acquire (right-mover) after commit point";
                    self.blocks.violation(t, index, reason);
                }
            }
            Op::Release { t, m } => {
                self.lockset.release(t, m);
                if self.blocks.in_block(t) {
                    self.committed.insert(t);
                }
            }
            Op::Read { t, x } | Op::Write { t, x } => {
                // A racy access is the one non-mover a transaction may
                // hold: it commits the transaction, and a second one after
                // the commit point is a violation.
                let racy = self.lockset.access(t, x, op.is_write()) == AccessClass::Racy;
                if racy && self.blocks.in_block(t) && !self.committed.insert(t) {
                    let reason = "second racy access (non-mover) after commit point";
                    self.blocks.violation(t, index, reason);
                }
            }
            // The Atomizer does not model fork/join ordering.
            Op::Fork { .. } | Op::Join { .. } => {}
        }
    }

    fn take_warnings(&mut self) -> Vec<Warning> {
        self.blocks
            .take_warnings("atomizer", "may not be reducible")
    }

    fn set_names(&mut self, names: SymbolTable) {
        self.blocks.set_names(names);
    }
}

/// Which operations the adversarial scheduler may pause at. Section 5
/// mentions exploring several policies, "such as pausing writes but not
/// reads"; both are available here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdvisorConfig {
    /// Pause a thread about to complete a suspected unsynchronized
    /// read-modify-write (the default policy).
    pub delay_rmw_writes: bool,
    /// Additionally pause before racy reads inside atomic blocks.
    pub delay_racy_reads: bool,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        Self {
            delay_rmw_writes: true,
            delay_racy_reads: false,
        }
    }
}

/// Commit-point heuristic for adversarial scheduling (Section 5).
///
/// Flags a thread that, inside an atomic block, read a variable while
/// holding no locks and is now about to write it — the unsynchronized
/// read-modify-write pattern. Pausing the thread at that point gives other
/// threads a window to perform a conflicting write, turning the potential
/// violation into one Velodrome can witness.
#[derive(Debug, Default)]
pub struct RmwAdvisor {
    cfg: AdvisorConfig,
    lockset: LockSetState,
    txn_depth: HashMap<ThreadId, usize>,
    suspect_reads: HashMap<ThreadId, HashSet<VarId>>,
}

impl RmwAdvisor {
    /// Creates an advisor with the default (writes-only) policy.
    pub fn new() -> Self {
        Self {
            cfg: AdvisorConfig::default(),
            ..Self::default()
        }
    }

    /// Creates an advisor with an explicit pausing policy.
    pub fn with_config(cfg: AdvisorConfig) -> Self {
        Self {
            cfg,
            ..Self::default()
        }
    }

    /// Observes an emitted operation (feed every event in order).
    pub fn observe(&mut self, _index: usize, op: Op) {
        match op {
            Op::Begin { t, .. } => {
                *self.txn_depth.entry(t).or_insert(0) += 1;
            }
            Op::End { t } => {
                let d = self.txn_depth.entry(t).or_insert(0);
                *d = d.saturating_sub(1);
                if *d == 0 {
                    self.suspect_reads.remove(&t);
                }
            }
            Op::Acquire { t, m } => self.lockset.acquire(t, m),
            Op::Release { t, m } => self.lockset.release(t, m),
            Op::Read { t, x } => {
                let _ = self.lockset.access(t, x, false);
                let in_txn = self.txn_depth.get(&t).copied().unwrap_or(0) > 0;
                if in_txn && !self.lockset.holds_any(t) {
                    self.suspect_reads.entry(t).or_default().insert(x);
                }
            }
            Op::Write { t, x } => {
                let _ = self.lockset.access(t, x, true);
            }
            Op::Fork { .. } | Op::Join { .. } => {}
        }
    }

    /// Should the thread about to perform `op` be paused?
    pub fn should_delay(&mut self, t: ThreadId, op: Op) -> bool {
        match op {
            Op::Write { x, .. } => {
                self.cfg.delay_rmw_writes
                    && self.suspect_reads.get(&t).is_some_and(|s| s.contains(&x))
            }
            Op::Read { x, .. } => {
                self.cfg.delay_racy_reads
                    && self.txn_depth.get(&t).copied().unwrap_or(0) > 0
                    && self.lockset.is_racy(x)
                    && !self.lockset.holds_any(t)
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use velodrome_events::TraceBuilder;
    use velodrome_monitor::run_tool;

    fn atomizer_warnings(build: impl FnOnce(&mut TraceBuilder)) -> Vec<Warning> {
        let mut b = TraceBuilder::new();
        build(&mut b);
        let mut a = Atomizer::new();
        run_tool(&mut a, &b.finish())
    }

    #[test]
    fn reducible_locked_block_is_silent() {
        let w = atomizer_warnings(|b| {
            // acq (R), protected accesses (B), rel (L): R B B L — reducible.
            b.begin("T1", "m").acquire("T1", "l").read("T1", "x");
            b.write("T1", "x").release("T1", "l").end("T1");
            b.begin("T2", "m").acquire("T2", "l").read("T2", "x");
            b.write("T2", "x").release("T2", "l").end("T2");
        });
        assert!(w.is_empty(), "{w:?}");
    }

    #[test]
    fn two_critical_sections_in_one_block_warn() {
        // The Set.add shape: rel then acq inside one atomic block.
        let w = atomizer_warnings(|b| {
            b.write("T2", "elems"); // make elems shared-modified
            b.begin("T1", "Set.add");
            b.acquire("T1", "l").read("T1", "elems").release("T1", "l");
            b.acquire("T1", "l").write("T1", "elems").release("T1", "l");
            b.end("T1");
        });
        assert_eq!(w.len(), 1);
        assert!(w[0].message.contains("right-mover"), "{}", w[0].message);
    }

    #[test]
    fn unsynchronized_rmw_warns_after_two_racy_accesses() {
        let w = atomizer_warnings(|b| {
            // Make x racy first (shared-modified, empty lockset).
            b.write("T2", "x");
            b.write("T3", "x");
            b.begin("T1", "inc")
                .read("T1", "x")
                .write("T1", "x")
                .end("T1");
        });
        assert_eq!(w.len(), 1);
        assert!(w[0].message.contains("non-mover"), "{}", w[0].message);
    }

    #[test]
    fn handoff_idiom_is_a_false_alarm() {
        // Serializable flag handoff (cf. Velodrome staying silent): the
        // Atomizer warns because the flag accesses look racy to Eraser.
        let w = atomizer_warnings(|b| {
            for _ in 0..2 {
                b.read("T1", "flag");
                b.begin("T1", "c1").read("T1", "x").write("T1", "x");
                b.write("T1", "flag").end("T1");
                b.read("T2", "flag");
                b.begin("T2", "c2").read("T2", "x").write("T2", "x");
                b.write("T2", "flag").end("T2");
            }
        });
        assert!(!w.is_empty(), "Atomizer false-alarms on handoff");
    }

    #[test]
    fn dedup_counts_methods_not_occurrences() {
        let make = |b: &mut TraceBuilder| {
            b.write("T2", "x");
            b.write("T3", "x");
            for _ in 0..5 {
                b.begin("T1", "inc")
                    .read("T1", "x")
                    .write("T1", "x")
                    .end("T1");
            }
        };
        let w = atomizer_warnings(make);
        assert_eq!(w.len(), 1);

        let mut b = TraceBuilder::new();
        make(&mut b);
        let mut a = Atomizer::without_dedup();
        let w = run_tool(&mut a, &b.finish());
        assert_eq!(w.len(), 5);
        assert_eq!(a.violations_detected(), 5);
    }

    #[test]
    fn code_outside_blocks_is_ignored() {
        let w = atomizer_warnings(|b| {
            b.write("T1", "x");
            b.write("T2", "x");
            b.read("T1", "x");
            b.write("T1", "x");
        });
        assert!(w.is_empty(), "no atomic blocks, no atomicity warnings");
    }

    #[test]
    fn nested_blocks_attribute_outermost() {
        let w = atomizer_warnings(|b| {
            b.write("T2", "x");
            b.write("T3", "x");
            b.begin("T1", "outer").begin("T1", "inner");
            b.read("T1", "x").write("T1", "x");
            b.end("T1").end("T1");
        });
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].label.map(|l| l.index()), Some(0), "blames outer");
    }

    #[test]
    fn rmw_advisor_flags_unprotected_rmw_write() {
        let mut adv = RmwAdvisor::new();
        let mut b = TraceBuilder::new();
        b.begin("T1", "inc").read("T1", "x");
        let trace = b.finish();
        for (i, op) in trace.iter() {
            adv.observe(i, op);
        }
        let t1 = velodrome_events::ThreadId::new(0);
        let x = velodrome_events::VarId::new(0);
        assert!(adv.should_delay(t1, Op::Write { t: t1, x }));
        assert!(!adv.should_delay(t1, Op::Read { t: t1, x }));
        let y = velodrome_events::VarId::new(9);
        assert!(!adv.should_delay(t1, Op::Write { t: t1, x: y }));
    }

    #[test]
    fn rmw_advisor_resets_at_block_end() {
        let mut adv = RmwAdvisor::new();
        let mut b = TraceBuilder::new();
        b.begin("T1", "inc")
            .read("T1", "x")
            .write("T1", "x")
            .end("T1");
        let trace = b.finish();
        for (i, op) in trace.iter() {
            adv.observe(i, op);
        }
        let t1 = velodrome_events::ThreadId::new(0);
        let x = velodrome_events::VarId::new(0);
        assert!(
            !adv.should_delay(t1, Op::Write { t: t1, x }),
            "cleared after end"
        );
    }

    #[test]
    fn rmw_advisor_ignores_lock_protected_reads() {
        let mut adv = RmwAdvisor::new();
        let mut b = TraceBuilder::new();
        b.begin("T1", "inc").acquire("T1", "m").read("T1", "x");
        let trace = b.finish();
        for (i, op) in trace.iter() {
            adv.observe(i, op);
        }
        let t1 = velodrome_events::ThreadId::new(0);
        let x = velodrome_events::VarId::new(0);
        assert!(!adv.should_delay(t1, Op::Write { t: t1, x }));
    }
}
