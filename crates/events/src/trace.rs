//! Traces: finite sequences of operations observed from a multithreaded
//! execution, plus an ergonomic builder that interns human-readable names.

use crate::ids::{Label, LockId, SymbolTable, ThreadId, VarId};
use crate::op::Op;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// An execution trace: the interleaved sequence of operations performed by
/// all threads, in observation order.
///
/// The position of an operation in the trace serves as its unique identifier
/// (the paper assumes each operation carries one).
///
/// Operations can be *flagged as synthesized*: closing `end`/`rel` events
/// that a monitoring runtime inserted on shutdown for threads that died
/// mid-transaction were never performed by the program, and replay or
/// post-processing tools may want to treat them differently. Traces without
/// synthesized events serialize byte-identically to earlier versions (the
/// field is omitted when empty and tolerated when absent).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    ops: Vec<Op>,
    names: SymbolTable,
    /// Sorted indices of synthesized operations.
    synthesized: Vec<usize>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a trace from a sequence of operations, with no symbol names.
    pub fn from_ops(ops: impl IntoIterator<Item = Op>) -> Self {
        Self {
            ops: ops.into_iter().collect(),
            names: SymbolTable::new(),
            synthesized: Vec::new(),
        }
    }

    /// Assembles a trace from decoded parts. The readers have already
    /// sorted, deduplicated and bounds-checked `synthesized`.
    pub(crate) fn from_parts(ops: Vec<Op>, names: SymbolTable, synthesized: Vec<usize>) -> Self {
        Self {
            ops,
            names,
            synthesized,
        }
    }

    /// Flags the operation at `index` as synthesized (inserted by the
    /// runtime on shutdown rather than performed by the program).
    ///
    /// Out-of-bounds indices are ignored.
    pub fn mark_synthesized(&mut self, index: usize) {
        if index >= self.ops.len() {
            return;
        }
        if let Err(pos) = self.synthesized.binary_search(&index) {
            self.synthesized.insert(pos, index);
        }
    }

    /// Sorted indices of synthesized operations.
    pub fn synthesized(&self) -> &[usize] {
        &self.synthesized
    }

    /// Returns `true` when the operation at `index` is flagged as
    /// synthesized.
    pub fn is_synthesized(&self, index: usize) -> bool {
        self.synthesized.binary_search(&index).is_ok()
    }

    /// Appends an operation.
    pub fn push(&mut self, op: Op) {
        self.ops.push(op);
    }

    /// Number of operations in the trace.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if the trace contains no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operations, in observation order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Returns the operation at `index`, if in bounds.
    pub fn get(&self, index: usize) -> Option<Op> {
        self.ops.get(index).copied()
    }

    /// Iterates over `(index, op)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Op)> + '_ {
        self.ops.iter().copied().enumerate()
    }

    /// The symbol table used to render identifiers in reports.
    pub fn names(&self) -> &SymbolTable {
        &self.names
    }

    /// Mutable access to the symbol table.
    pub fn names_mut(&mut self) -> &mut SymbolTable {
        &mut self.names
    }

    /// The set of distinct threads appearing in the trace, in first-seen order.
    pub fn threads(&self) -> Vec<ThreadId> {
        let mut seen = HashSet::new();
        self.ops
            .iter()
            .flat_map(|op| {
                let child = match *op {
                    Op::Fork { child, .. } => Some(child),
                    _ => None,
                };
                std::iter::once(op.tid()).chain(child)
            })
            .filter(|&t| seen.insert(t))
            .collect()
    }

    /// Serializes the trace as JSON, with [`crate::write_json`].
    pub fn to_json(&self) -> String {
        // A canonical op takes 20 to 45 bytes.
        let mut out = Vec::with_capacity(24 * self.ops.len() + 128);
        crate::write_json(&mut out, self).expect("writing to memory cannot fail");
        String::from_utf8(out).expect("the JSON writer emits UTF-8")
    }

    /// Parses a trace from JSON, with the same streaming reader as
    /// [`crate::read_json_trace`].
    pub fn from_json(json: &str) -> Result<Self, crate::TraceReadError> {
        crate::read_json_trace(json.as_bytes())
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, op) in self.iter() {
            if self.is_synthesized(i) {
                writeln!(f, "{i:>5}: {op}  (synthesized)")?;
            } else {
                writeln!(f, "{i:>5}: {op}")?;
            }
        }
        Ok(())
    }
}

impl FromIterator<Op> for Trace {
    fn from_iter<I: IntoIterator<Item = Op>>(iter: I) -> Self {
        Self::from_ops(iter)
    }
}

/// Builds traces from human-readable names, interning threads, variables,
/// locks, and labels on first use.
///
/// # Examples
///
/// ```
/// use velodrome_events::TraceBuilder;
///
/// let mut b = TraceBuilder::new();
/// b.begin("T1", "Set.add");
/// b.read("T1", "elems");
/// b.write("T1", "elems");
/// b.end("T1");
/// let trace = b.finish();
/// assert_eq!(trace.len(), 4);
/// ```
#[derive(Debug, Default)]
pub struct TraceBuilder {
    trace: Trace,
    threads: HashMap<String, ThreadId>,
    vars: HashMap<String, VarId>,
    locks: HashMap<String, LockId>,
    labels: HashMap<String, Label>,
}

impl TraceBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a thread name.
    pub fn thread(&mut self, name: &str) -> ThreadId {
        if let Some(&t) = self.threads.get(name) {
            return t;
        }
        let t = ThreadId::new(self.threads.len() as u32);
        self.threads.insert(name.to_owned(), t);
        self.trace.names_mut().name_thread(t, name);
        t
    }

    /// Interns a variable name.
    pub fn var(&mut self, name: &str) -> VarId {
        if let Some(&x) = self.vars.get(name) {
            return x;
        }
        let x = VarId::new(self.vars.len() as u32);
        self.vars.insert(name.to_owned(), x);
        self.trace.names_mut().name_var(x, name);
        x
    }

    /// Interns a lock name.
    pub fn lock(&mut self, name: &str) -> LockId {
        if let Some(&m) = self.locks.get(name) {
            return m;
        }
        let m = LockId::new(self.locks.len() as u32);
        self.locks.insert(name.to_owned(), m);
        self.trace.names_mut().name_lock(m, name);
        m
    }

    /// Interns an atomic-block label.
    pub fn label(&mut self, name: &str) -> Label {
        if let Some(&l) = self.labels.get(name) {
            return l;
        }
        let l = Label::new(self.labels.len() as u32);
        self.labels.insert(name.to_owned(), l);
        self.trace.names_mut().name_label(l, name);
        l
    }

    /// Appends an already-built operation.
    pub fn push(&mut self, op: Op) -> &mut Self {
        self.trace.push(op);
        self
    }

    /// Appends `rd(t, x)`.
    pub fn read(&mut self, t: &str, x: &str) -> &mut Self {
        let op = Op::Read {
            t: self.thread(t),
            x: self.var(x),
        };
        self.push(op)
    }

    /// Appends `wr(t, x)`.
    pub fn write(&mut self, t: &str, x: &str) -> &mut Self {
        let op = Op::Write {
            t: self.thread(t),
            x: self.var(x),
        };
        self.push(op)
    }

    /// Appends `acq(t, m)`.
    pub fn acquire(&mut self, t: &str, m: &str) -> &mut Self {
        let op = Op::Acquire {
            t: self.thread(t),
            m: self.lock(m),
        };
        self.push(op)
    }

    /// Appends `rel(t, m)`.
    pub fn release(&mut self, t: &str, m: &str) -> &mut Self {
        let op = Op::Release {
            t: self.thread(t),
            m: self.lock(m),
        };
        self.push(op)
    }

    /// Appends `begin_l(t)`.
    pub fn begin(&mut self, t: &str, l: &str) -> &mut Self {
        let op = Op::Begin {
            t: self.thread(t),
            l: self.label(l),
        };
        self.push(op)
    }

    /// Appends `end(t)`.
    pub fn end(&mut self, t: &str) -> &mut Self {
        let op = Op::End { t: self.thread(t) };
        self.push(op)
    }

    /// Appends `fork(t, child)`.
    pub fn fork(&mut self, t: &str, child: &str) -> &mut Self {
        let op = Op::Fork {
            t: self.thread(t),
            child: self.thread(child),
        };
        self.push(op)
    }

    /// Appends `join(t, child)`.
    pub fn join(&mut self, t: &str, child: &str) -> &mut Self {
        let op = Op::Join {
            t: self.thread(t),
            child: self.thread(child),
        };
        self.push(op)
    }

    /// Consumes the builder and returns the trace.
    pub fn finish(self) -> Trace {
        self.trace
    }

    /// Returns the trace built so far without consuming the builder.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_interns_names_once() {
        let mut b = TraceBuilder::new();
        b.read("T1", "x").write("T2", "x").read("T1", "y");
        let trace = b.finish();
        assert_eq!(trace.len(), 3);
        match (trace.get(0).unwrap(), trace.get(1).unwrap()) {
            (Op::Read { x: x0, .. }, Op::Write { x: x1, .. }) => assert_eq!(x0, x1),
            other => panic!("unexpected ops {other:?}"),
        }
        assert_eq!(trace.threads().len(), 2);
        assert_eq!(trace.names().var(VarId::new(0)), "x");
        assert_eq!(trace.names().var(VarId::new(1)), "y");
    }

    #[test]
    fn threads_includes_forked_children_before_first_op() {
        let mut b = TraceBuilder::new();
        b.fork("main", "worker");
        let trace = b.finish();
        assert_eq!(trace.threads().len(), 2);
    }

    #[test]
    fn trace_json_roundtrip() {
        let mut b = TraceBuilder::new();
        b.begin("T1", "add").acquire("T1", "m").read("T1", "v");
        b.release("T1", "m").end("T1");
        let trace = b.finish();
        let back = Trace::from_json(&trace.to_json()).unwrap();
        assert_eq!(back.len(), trace.len());
        assert_eq!(back.ops(), trace.ops());
        assert_eq!(back.names().lock(LockId::new(0)), "m");
    }

    #[test]
    fn display_lists_all_ops() {
        let mut b = TraceBuilder::new();
        b.read("T1", "x").write("T2", "x");
        let shown = b.finish().to_string();
        assert!(shown.contains("rd(T0, x0)"));
        assert!(shown.contains("wr(T1, x0)"));
    }

    #[test]
    fn from_iter_collects() {
        let t = ThreadId::new(0);
        let trace: Trace = vec![
            Op::Begin {
                t,
                l: Label::new(0),
            },
            Op::End { t },
        ]
        .into_iter()
        .collect();
        assert_eq!(trace.len(), 2);
    }
}
