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

use serde::{Deserialize, Map, Serialize, Value};
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

/// The four name spaces of a [`SymbolTable`], in the order the VBT string
/// tables and the JSON `names` fields list them.
pub(crate) const KINDS: [&str; 4] = ["threads", "vars", "locks", "labels"];
const THREADS: usize = 0;
const VARS: usize = 1;
const LOCKS: usize = 2;
const LABELS: usize = 3;

/// One registered name: its id and the byte range of the name within the
/// table's text. Ordered by id, then by position, so that among entries
/// with one id the one appended last sorts last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    id: u32,
    start: u32,
    end: u32,
}

/// Maps identifiers back to human-readable names for error reports.
///
/// All lookups fall back to the identifier's `Display` form (`T0`, `x3`, …)
/// when no name was registered, so reports always render.
///
/// Every name's bytes sit back to back in one `String`; each kind keeps an
/// index of `(id, start, end)` sorted by id with one entry per id, which
/// lookups binary-search and the `*_entries` iterators walk in order. A
/// name costs its bytes plus 12 bytes of index. Registering an id again
/// replaces its name (the old bytes stay in the text, unreferenced).
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    text: String,
    index: [Vec<Entry>; 4],
}

/// The position `len` takes as a text offset. Offsets are `u32`, so one
/// table holds at most 4 GiB of names.
fn text_offset(len: usize) -> Option<u32> {
    u32::try_from(len).ok()
}

impl SymbolTable {
    /// Creates an empty symbol table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether no name of any kind has been registered.
    pub fn is_empty(&self) -> bool {
        self.index.iter().all(Vec::is_empty)
    }

    /// Registers `name` for `id` in `kind`, keeping the index sorted.
    /// Appending in rising id order (as interning does) costs O(1) per
    /// name; any other order shifts the entries after the insertion point.
    /// The trace readers take [`SymbolTableBuilder`] instead, which costs
    /// O(n log n) for any order.
    fn insert(&mut self, kind: usize, id: u32, name: &str) {
        self.text.push_str(name);
        let (start, end) = (self.text.len() - name.len(), self.text.len());
        let e = Entry {
            id,
            start: text_offset(start).expect("a symbol table holds at most 4 GiB of names"),
            end: text_offset(end).expect("a symbol table holds at most 4 GiB of names"),
        };
        let index = &mut self.index[kind];
        match index.last() {
            Some(last) if last.id >= id => match index.binary_search_by_key(&id, |e| e.id) {
                Ok(i) => index[i] = e,
                Err(i) => index.insert(i, e),
            },
            _ => index.push(e),
        }
    }

    /// The name registered for `id` in `kind`, if any.
    fn get(&self, kind: usize, id: u32) -> Option<&str> {
        let index = &self.index[kind];
        let i = index.binary_search_by_key(&id, |e| e.id).ok()?;
        Some(&self.text[index[i].start as usize..index[i].end as usize])
    }

    fn entries(&self, kind: usize) -> Entries<'_> {
        Entries {
            text: &self.text,
            entries: self.index[kind].iter(),
        }
    }

    /// Registers a display name for a thread.
    pub fn name_thread(&mut self, t: ThreadId, name: impl AsRef<str>) {
        self.insert(THREADS, t.raw(), name.as_ref());
    }

    /// Registers a display name for a variable.
    pub fn name_var(&mut self, x: VarId, name: impl AsRef<str>) {
        self.insert(VARS, x.raw(), name.as_ref());
    }

    /// Registers a display name for a lock.
    pub fn name_lock(&mut self, m: LockId, name: impl AsRef<str>) {
        self.insert(LOCKS, m.raw(), name.as_ref());
    }

    /// Registers a display name for an atomic-block label.
    pub fn name_label(&mut self, l: Label, name: impl AsRef<str>) {
        self.insert(LABELS, l.raw(), name.as_ref());
    }

    /// Returns the display name of a thread.
    pub fn thread(&self, t: ThreadId) -> String {
        self.get(THREADS, t.raw())
            .map_or_else(|| t.to_string(), str::to_owned)
    }

    /// Returns the display name of a variable.
    pub fn var(&self, x: VarId) -> String {
        self.get(VARS, x.raw())
            .map_or_else(|| x.to_string(), str::to_owned)
    }

    /// Returns the display name of a lock.
    pub fn lock(&self, m: LockId) -> String {
        self.get(LOCKS, m.raw())
            .map_or_else(|| m.to_string(), str::to_owned)
    }

    /// Returns the display name of a label.
    pub fn label(&self, l: Label) -> String {
        self.get(LABELS, l.raw())
            .map_or_else(|| l.to_string(), str::to_owned)
    }

    /// Registered `(id, name)` pairs for threads, in id order. Used by
    /// serializers that need a deterministic iteration order.
    pub fn thread_entries(&self) -> Entries<'_> {
        self.entries(THREADS)
    }

    /// Registered `(id, name)` pairs for variables, in id order.
    pub fn var_entries(&self) -> Entries<'_> {
        self.entries(VARS)
    }

    /// Registered `(id, name)` pairs for locks, in id order.
    pub fn lock_entries(&self) -> Entries<'_> {
        self.entries(LOCKS)
    }

    /// Registered `(id, name)` pairs for labels, in id order.
    pub fn label_entries(&self) -> Entries<'_> {
        self.entries(LABELS)
    }

    /// Each kind's entries in [`KINDS`] order.
    pub(crate) fn kinds(&self) -> [Entries<'_>; 4] {
        std::array::from_fn(|kind| self.entries(kind))
    }
}

/// The `(id, name)` pairs of one kind of a [`SymbolTable`], in id order.
#[derive(Debug, Clone)]
pub struct Entries<'a> {
    text: &'a str,
    entries: std::slice::Iter<'a, Entry>,
}

impl<'a> Iterator for Entries<'a> {
    type Item = (u32, &'a str);

    fn next(&mut self) -> Option<Self::Item> {
        let e = self.entries.next()?;
        Some((e.id, &self.text[e.start as usize..e.end as usize]))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.entries.size_hint()
    }
}

impl ExactSizeIterator for Entries<'_> {}

/// The sort key that orders ids as their decimal strings order (`"10"`
/// before `"2"`), the key order of a JSON object serde writes from a map:
/// the id scaled to ten digits, then its digit count, so that a prefix
/// (`1`) sorts before its extensions (`10`, `100`).
pub(crate) fn decimal_string_order(id: u32) -> u64 {
    let digits = id.checked_ilog10().unwrap_or(0) + 1;
    (u64::from(id) * 10u64.pow(10 - digits)) << 4 | u64::from(digits)
}

/// Builds a [`SymbolTable`] from names arriving in any order, as the trace
/// readers meet them: each name's bytes are appended to one buffer, each
/// entry to its kind's index, and [`Self::finish`] sorts each index once,
/// keeping the last entry of each id, as re-registering does.
#[derive(Debug, Default)]
pub(crate) struct SymbolTableBuilder {
    text: Vec<u8>,
    /// End of the last name pushed: bytes after it are not a name yet.
    pushed: usize,
    index: [Vec<Entry>; 4],
}

/// Why [`SymbolTableBuilder::push`] refused a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NameError {
    /// The name's bytes are not UTF-8.
    NotUtf8,
    /// The names outgrew the 4 GiB that `u32` offsets address.
    TooLong,
}

impl SymbolTableBuilder {
    /// The bytes of every name so far. A reader appends the next name's
    /// bytes here, then calls [`Self::push`].
    pub(crate) fn text(&mut self) -> &mut Vec<u8> {
        &mut self.text
    }

    /// Registers the bytes appended since the last push as the name of
    /// `id` in `kind` (an index into [`KINDS`]).
    pub(crate) fn push(&mut self, kind: usize, id: u32) -> Result<(), NameError> {
        let (start, end) = (self.pushed, self.text.len());
        std::str::from_utf8(&self.text[start..end]).map_err(|_| NameError::NotUtf8)?;
        let (Some(start), Some(end)) = (text_offset(start), text_offset(end)) else {
            return Err(NameError::TooLong);
        };
        self.index[kind].push(Entry { id, start, end });
        self.pushed = self.text.len();
        Ok(())
    }

    /// Sorts and deduplicates each index. Text is append-only, so among
    /// entries with one id the last pushed has the largest `(start, end)`:
    /// an unstable sort on the whole entry puts it last without a scratch
    /// buffer, and `dedup_by` keeps it.
    pub(crate) fn finish(mut self) -> SymbolTable {
        for index in &mut self.index {
            index.sort_unstable();
            index.dedup_by(|later, kept| {
                let same = later.id == kept.id;
                if same {
                    *kept = *later;
                }
                same
            });
            index.shrink_to_fit();
        }
        self.text.shrink_to_fit();
        SymbolTable {
            text: String::from_utf8(self.text).expect("every pushed name was checked as UTF-8"),
            index: self.index,
        }
    }
}

impl Serialize for SymbolTable {
    /// The encoding of four `HashMap<u32, String>` fields, each object's
    /// keys in decimal string order.
    fn serialize_value(&self) -> Value {
        let fields = KINDS.iter().zip(self.kinds()).map(|(&kind, entries)| {
            let mut entries: Vec<(u32, &str)> = entries.collect();
            entries.sort_unstable_by_key(|&(id, _)| decimal_string_order(id));
            let map = entries
                .into_iter()
                .map(|(id, name)| (id.to_string(), Value::Str(name.to_owned())))
                .collect();
            (kind.to_owned(), Value::Object(Map::from_entries(map)))
        });
        Value::Object(Map::from_entries(fields.collect()))
    }
}

impl Deserialize for SymbolTable {
    fn deserialize_value(v: &Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected an object"))?;
        let mut names = SymbolTableBuilder::default();
        for (kind, field) in KINDS.iter().enumerate() {
            let map = obj
                .get(field)
                .and_then(Value::as_object)
                .ok_or_else(|| serde::Error::custom("expected an object"))?;
            for (key, name) in map.iter() {
                let id = key
                    .parse()
                    .map_err(|_| serde::Error::custom("invalid integer map key"))?;
                let name = name
                    .as_str()
                    .ok_or_else(|| serde::Error::custom("expected a string"))?;
                names.text().extend_from_slice(name.as_bytes());
                names
                    .push(kind, id)
                    .map_err(|_| serde::Error::custom("names exceed 4 GiB"))?;
            }
        }
        Ok(names.finish())
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
