//! Identifier newtypes for the entities appearing in a trace.
//!
//! The paper's semantics (Figure 1) ranges over thread identifiers `t ∈ Tid`,
//! variables `x ∈ Var`, locks `m ∈ Lock`, and atomic-block labels `l ∈ Label`.
//! Each is a plain `u32` here. A recorded or generated trace numbers its
//! entities densely from 0, but a trace file may use any `u32`, such as
//! thread id 4,000,000,000. So an id is not an index: an analysis that
//! keeps per-entity tables must map each id to a dense row when it first
//! sees it (as the Velodrome engine does), or its memory follows the
//! largest id instead of the number of entities. Human-readable names live
//! in a side [`SymbolTable`] so the hot path never touches strings.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name(u32);

        impl $name {
            /// Creates an identifier from its raw value.
            pub const fn new(index: u32) -> Self {
                Self(index)
            }

            /// Returns the raw value as a `usize`. It is dense only where
            /// the trace numbers its entities densely (see the module
            /// docs).
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Returns the raw `u32` value.
            pub const fn raw(self) -> u32 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(raw: u32) -> Self {
                Self(raw)
            }
        }
    };
}

id_type!(
    /// A thread identifier (`t ∈ Tid`).
    ThreadId,
    "T"
);
id_type!(
    /// A shared-variable identifier (`x ∈ Var`).
    ///
    /// A variable stands for any memory location the monitored program can
    /// read or write: a field, a static, or an array element flattened to a
    /// scalar location.
    VarId,
    "x"
);
id_type!(
    /// A lock identifier (`m ∈ Lock`).
    LockId,
    "m"
);
id_type!(
    /// A label identifying a particular atomic block (`l ∈ Label`).
    ///
    /// Labels name the syntactic atomic block (typically a method declared
    /// `atomic`) so that warnings can be attributed to source constructs.
    Label,
    "L"
);

/// Maps identifiers back to human-readable names for error reports.
///
/// All lookups fall back to the identifier's `Display` form (`T0`, `x3`, …)
/// when no name was registered, so reports always render.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SymbolTable {
    threads: HashMap<u32, String>,
    vars: HashMap<u32, String>,
    locks: HashMap<u32, String>,
    labels: HashMap<u32, String>,
}

impl SymbolTable {
    /// Creates an empty symbol table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a display name for a thread.
    pub fn name_thread(&mut self, t: ThreadId, name: impl Into<String>) {
        self.threads.insert(t.raw(), name.into());
    }

    /// Registers a display name for a variable.
    pub fn name_var(&mut self, x: VarId, name: impl Into<String>) {
        self.vars.insert(x.raw(), name.into());
    }

    /// Registers a display name for a lock.
    pub fn name_lock(&mut self, m: LockId, name: impl Into<String>) {
        self.locks.insert(m.raw(), name.into());
    }

    /// Registers a display name for an atomic-block label.
    pub fn name_label(&mut self, l: Label, name: impl Into<String>) {
        self.labels.insert(l.raw(), name.into());
    }

    /// Returns the display name of a thread.
    pub fn thread(&self, t: ThreadId) -> String {
        self.threads
            .get(&t.raw())
            .cloned()
            .unwrap_or_else(|| t.to_string())
    }

    /// Returns the display name of a variable.
    pub fn var(&self, x: VarId) -> String {
        self.vars
            .get(&x.raw())
            .cloned()
            .unwrap_or_else(|| x.to_string())
    }

    /// Returns the display name of a lock.
    pub fn lock(&self, m: LockId) -> String {
        self.locks
            .get(&m.raw())
            .cloned()
            .unwrap_or_else(|| m.to_string())
    }

    /// Returns the display name of a label.
    pub fn label(&self, l: Label) -> String {
        self.labels
            .get(&l.raw())
            .cloned()
            .unwrap_or_else(|| l.to_string())
    }

    fn sorted_entries(map: &HashMap<u32, String>) -> Vec<(u32, &str)> {
        let mut entries: Vec<(u32, &str)> = map.iter().map(|(&k, v)| (k, v.as_str())).collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        entries
    }

    /// Registered `(id, name)` pairs for threads, sorted by id. Used by
    /// serializers that need a deterministic iteration order.
    pub fn thread_entries(&self) -> Vec<(u32, &str)> {
        Self::sorted_entries(&self.threads)
    }

    /// Registered `(id, name)` pairs for variables, sorted by id.
    pub fn var_entries(&self) -> Vec<(u32, &str)> {
        Self::sorted_entries(&self.vars)
    }

    /// Registered `(id, name)` pairs for locks, sorted by id.
    pub fn lock_entries(&self) -> Vec<(u32, &str)> {
        Self::sorted_entries(&self.locks)
    }

    /// Registered `(id, name)` pairs for labels, sorted by id.
    pub fn label_entries(&self) -> Vec<(u32, &str)> {
        Self::sorted_entries(&self.labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_roundtrip() {
        let t = ThreadId::new(7);
        assert_eq!(t.index(), 7);
        assert_eq!(t.raw(), 7);
        assert_eq!(ThreadId::from(7), t);
    }

    #[test]
    fn id_display_uses_prefix() {
        assert_eq!(ThreadId::new(2).to_string(), "T2");
        assert_eq!(VarId::new(0).to_string(), "x0");
        assert_eq!(LockId::new(5).to_string(), "m5");
        assert_eq!(Label::new(1).to_string(), "L1");
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(VarId::new(1) < VarId::new(2));
    }

    #[test]
    fn symbol_table_falls_back_to_display() {
        let mut names = SymbolTable::new();
        names.name_thread(ThreadId::new(0), "main");
        assert_eq!(names.thread(ThreadId::new(0)), "main");
        assert_eq!(names.thread(ThreadId::new(1)), "T1");
        assert_eq!(names.var(VarId::new(3)), "x3");
    }

    #[test]
    fn symbol_table_serde_roundtrip() {
        let mut names = SymbolTable::new();
        names.name_var(VarId::new(1), "Set.elems");
        names.name_lock(LockId::new(0), "this");
        let json = serde_json::to_string(&names).unwrap();
        let back: SymbolTable = serde_json::from_str(&json).unwrap();
        assert_eq!(back.var(VarId::new(1)), "Set.elems");
        assert_eq!(back.lock(LockId::new(0)), "this");
    }
}
