//! Event-stream filters applied between the instrumented program and the
//! back-end analyses, mirroring RoadRunner's front-end filtering (Section 5):
//!
//! * re-entrant (and hence redundant) lock acquires and releases are
//!   filtered out, so back-ends never see nested acquires of a held lock;
//! * operations on thread-local data can be filtered, which dramatically
//!   improves performance although it is *slightly unsound*: when a variable
//!   is first touched by a second thread, its earlier (suppressed) history
//!   is lost.
//!
//! Each filter is a [`Tool`] combinator wrapping an inner tool, so the same
//! filter runs over a live stream and over a recorded trace.

use crate::spec::AtomicitySpec;
use crate::tool::{Tool, Warning};
use std::collections::HashMap;
use velodrome_events::{LockId, Op, ThreadId, VarId};

/// Suppresses re-entrant lock acquires and releases.
///
/// Only the first acquire and the matching last release of a lock held
/// re-entrantly by the same thread reach the inner tool.
#[derive(Debug)]
pub struct ReentrantLockFilter<T> {
    inner: T,
    /// Hold count per lock; the holder is implied by well-formedness.
    holds: HashMap<LockId, (ThreadId, u32)>,
    suppressed: u64,
}

impl<T: Tool> ReentrantLockFilter<T> {
    /// Wraps `inner` with re-entrancy filtering.
    pub fn new(inner: T) -> Self {
        Self {
            inner,
            holds: HashMap::new(),
            suppressed: 0,
        }
    }

    /// Number of suppressed redundant operations.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// Consumes the filter, returning the inner tool.
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// Borrows the inner tool.
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: Tool> Tool for ReentrantLockFilter<T> {
    fn name(&self) -> &'static str {
        "reentrant-filter"
    }

    fn op(&mut self, index: usize, op: Op) {
        match op {
            Op::Acquire { t, m } => {
                let entry = self.holds.entry(m).or_insert((t, 0));
                entry.1 += 1;
                if entry.1 > 1 {
                    self.suppressed += 1;
                    return;
                }
            }
            Op::Release { m, .. } => {
                if let Some(entry) = self.holds.get_mut(&m) {
                    entry.1 = entry.1.saturating_sub(1);
                    if entry.1 > 0 {
                        self.suppressed += 1;
                        return;
                    }
                    self.holds.remove(&m);
                }
            }
            _ => {}
        }
        self.inner.op(index, op);
    }

    fn end_of_trace(&mut self) {
        self.inner.end_of_trace();
    }

    fn take_warnings(&mut self) -> Vec<Warning> {
        self.inner.take_warnings()
    }
}

/// Per-variable sharing state used by [`ThreadLocalFilter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sharing {
    Local(ThreadId),
    Shared,
}

/// Suppresses accesses to variables that have (so far) been touched by a
/// single thread.
///
/// This reproduces RoadRunner's thread-local filtering, including its
/// documented unsoundness: once a second thread touches a variable, the
/// suppressed prefix of that variable's history is not replayed.
#[derive(Debug)]
pub struct ThreadLocalFilter<T> {
    inner: T,
    vars: HashMap<VarId, Sharing>,
    suppressed: u64,
}

impl<T: Tool> ThreadLocalFilter<T> {
    /// Wraps `inner` with thread-local filtering.
    pub fn new(inner: T) -> Self {
        Self {
            inner,
            vars: HashMap::new(),
            suppressed: 0,
        }
    }

    /// Number of suppressed thread-local accesses.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// Consumes the filter, returning the inner tool.
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// Borrows the inner tool.
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: Tool> Tool for ThreadLocalFilter<T> {
    fn name(&self) -> &'static str {
        "thread-local-filter"
    }

    fn op(&mut self, index: usize, op: Op) {
        if let (Some(x), t) = (op.var(), op.tid()) {
            match self.vars.get(&x) {
                None => {
                    self.vars.insert(x, Sharing::Local(t));
                    self.suppressed += 1;
                    return;
                }
                Some(Sharing::Local(owner)) if *owner == t => {
                    self.suppressed += 1;
                    return;
                }
                Some(Sharing::Local(_)) => {
                    self.vars.insert(x, Sharing::Shared);
                }
                Some(Sharing::Shared) => {}
            }
        }
        self.inner.op(index, op);
    }

    fn end_of_trace(&mut self) {
        self.inner.end_of_trace();
    }

    fn take_warnings(&mut self) -> Vec<Warning> {
        self.inner.take_warnings()
    }
}

/// Applies an [`AtomicitySpec`] by dropping the `begin`/`end` markers of
/// atomic blocks that should not be checked: their bodies then run as
/// non-transactional code (or as part of an enclosing checked block).
///
/// This is how the paper's Table 1 performance runs are configured: methods
/// already known to be non-atomic are excluded, so "program traces contain
/// many small transactions rather than a few monolithic ones".
#[derive(Debug)]
pub struct SpecFilter<T> {
    inner: T,
    spec: AtomicitySpec,
    /// Per-thread stack: `true` for begins forwarded to the inner tool.
    stacks: HashMap<ThreadId, Vec<bool>>,
    suppressed: u64,
}

impl<T: Tool> SpecFilter<T> {
    /// Wraps `inner`, checking only the blocks selected by `spec`.
    pub fn new(spec: AtomicitySpec, inner: T) -> Self {
        Self {
            inner,
            spec,
            stacks: HashMap::new(),
            suppressed: 0,
        }
    }

    /// Number of suppressed `begin`/`end` markers.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// Consumes the filter, returning the inner tool.
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// Borrows the inner tool.
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: Tool> Tool for SpecFilter<T> {
    fn name(&self) -> &'static str {
        "spec-filter"
    }

    fn op(&mut self, index: usize, op: Op) {
        match op {
            Op::Begin { t, l } => {
                let keep = self.spec.should_check(l);
                self.stacks.entry(t).or_default().push(keep);
                if !keep {
                    self.suppressed += 1;
                    return;
                }
            }
            Op::End { t } => {
                let keep = self.stacks.entry(t).or_default().pop().unwrap_or(true);
                if !keep {
                    self.suppressed += 1;
                    return;
                }
            }
            _ => {}
        }
        self.inner.op(index, op);
    }

    fn end_of_trace(&mut self) {
        self.inner.end_of_trace();
    }

    fn take_warnings(&mut self) -> Vec<Warning> {
        self.inner.take_warnings()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tool::run_tool;
    use velodrome_events::TraceBuilder;

    #[derive(Default)]
    struct Sink {
        ops: Vec<Op>,
    }

    impl Tool for Sink {
        fn name(&self) -> &'static str {
            "sink"
        }
        fn op(&mut self, _index: usize, op: Op) {
            self.ops.push(op);
        }
    }

    #[test]
    fn reentrant_acquires_suppressed() {
        let mut b = TraceBuilder::new();
        // T1 acquires m twice (re-entrant), releases twice.
        b.acquire("T1", "m").acquire("T1", "m").read("T1", "x");
        b.release("T1", "m").release("T1", "m");
        let mut filter = ReentrantLockFilter::new(Sink::default());
        run_tool(&mut filter, &b.finish());
        assert_eq!(filter.suppressed(), 2);
        let ops = &filter.inner().ops;
        assert_eq!(ops.len(), 3);
        assert!(matches!(ops[0], Op::Acquire { .. }));
        assert!(matches!(ops[1], Op::Read { .. }));
        assert!(matches!(ops[2], Op::Release { .. }));
    }

    #[test]
    fn non_reentrant_locking_passes_through() {
        let mut b = TraceBuilder::new();
        b.acquire("T1", "m")
            .release("T1", "m")
            .acquire("T2", "m")
            .release("T2", "m");
        let mut filter = ReentrantLockFilter::new(Sink::default());
        run_tool(&mut filter, &b.finish());
        assert_eq!(filter.suppressed(), 0);
        assert_eq!(filter.inner().ops.len(), 4);
    }

    #[test]
    fn thread_local_accesses_suppressed_until_shared() {
        let mut b = TraceBuilder::new();
        b.read("T1", "x").write("T1", "x"); // local: suppressed
        b.read("T2", "x"); // second thread: shared from here on
        b.write("T1", "x");
        let mut filter = ThreadLocalFilter::new(Sink::default());
        run_tool(&mut filter, &b.finish());
        assert_eq!(filter.suppressed(), 2);
        assert_eq!(filter.inner().ops.len(), 2);
    }

    #[test]
    fn thread_local_filter_passes_locks_and_markers() {
        let mut b = TraceBuilder::new();
        b.begin("T1", "p")
            .acquire("T1", "m")
            .release("T1", "m")
            .end("T1");
        let mut filter = ThreadLocalFilter::new(Sink::default());
        run_tool(&mut filter, &b.finish());
        assert_eq!(filter.inner().ops.len(), 4);
    }

    #[test]
    fn spec_filter_drops_excluded_blocks() {
        use velodrome_events::Label;
        let mut b = TraceBuilder::new();
        b.begin("T1", "keep").read("T1", "x").end("T1");
        b.begin("T1", "drop").read("T1", "x").end("T1");
        b.begin("T1", "drop")
            .begin("T1", "keep")
            .read("T1", "x")
            .end("T1")
            .end("T1");
        let spec = AtomicitySpec::excluding([Label::new(1)]); // "drop"
        let mut filter = SpecFilter::new(spec, Sink::default());
        run_tool(&mut filter, &b.finish());
        assert_eq!(filter.suppressed(), 4);
        let markers: Vec<String> = filter
            .inner()
            .ops
            .iter()
            .filter(|o| o.is_marker())
            .map(|o| o.to_string())
            .collect();
        // Only the two "keep" blocks' markers survive.
        assert_eq!(
            markers,
            vec!["begin_L0(T0)", "end(T0)", "begin_L0(T0)", "end(T0)"]
        );
        assert_eq!(filter.inner().ops.len(), 3 + 4);
    }
}
