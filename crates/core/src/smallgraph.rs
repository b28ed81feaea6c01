//! Compact adjacency containers for the transaction graph.
//!
//! The arena's per-slot edge maps and ancestor sets sit on the hot path of
//! every `add_edge`. Merging and GC keep them small on most traces, but not
//! on all: while one long transaction is open, every short transaction it
//! orders stays alive (the `longtxn` benchmark holds 1,501 alive nodes).
//! Sorted vectors beat `HashMap`/`HashSet` here: membership is a binary
//! search over a contiguous `u16` run, iteration is linear and
//! allocation-free, and the order is deterministic — so path reconstruction
//! and collection cascades need no defensive re-sorting.

use crate::step::SlotIdx;

/// A map from slot index to `V`, stored as parallel sorted vectors.
#[derive(Debug, Clone, Default)]
pub(crate) struct SlotMap<V> {
    keys: Vec<SlotIdx>,
    vals: Vec<V>,
}

impl<V> SlotMap<V> {
    pub(crate) fn new() -> Self {
        SlotMap {
            keys: Vec::new(),
            vals: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    pub(crate) fn clear(&mut self) {
        self.keys.clear();
        self.vals.clear();
    }

    pub(crate) fn get(&self, key: SlotIdx) -> Option<&V> {
        self.keys.binary_search(&key).ok().map(|i| &self.vals[i])
    }

    pub(crate) fn get_mut(&mut self, key: SlotIdx) -> Option<&mut V> {
        self.keys
            .binary_search(&key)
            .ok()
            .map(|i| &mut self.vals[i])
    }

    pub(crate) fn contains_key(&self, key: SlotIdx) -> bool {
        self.keys.binary_search(&key).is_ok()
    }

    /// Inserts `val` under `key`, returning the previous value if any.
    pub(crate) fn insert(&mut self, key: SlotIdx, val: V) -> Option<V> {
        match self.keys.binary_search(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.vals[i], val)),
            Err(i) => {
                self.keys.insert(i, key);
                self.vals.insert(i, val);
                None
            }
        }
    }

    pub(crate) fn remove(&mut self, key: SlotIdx) -> Option<V> {
        match self.keys.binary_search(&key) {
            Ok(i) => {
                self.keys.remove(i);
                Some(self.vals.remove(i))
            }
            Err(_) => None,
        }
    }

    /// Entries in ascending key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (SlotIdx, &V)> + '_ {
        self.keys.iter().copied().zip(self.vals.iter())
    }

    /// Keys in ascending order.
    pub(crate) fn keys(&self) -> impl Iterator<Item = SlotIdx> + '_ {
        self.keys.iter().copied()
    }
}

/// A set of slot indices, stored as a sorted vector.
#[derive(Debug, Clone, Default)]
pub(crate) struct SlotSet {
    items: Vec<SlotIdx>,
}

impl SlotSet {
    pub(crate) fn new() -> Self {
        SlotSet { items: Vec::new() }
    }

    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub(crate) fn clear(&mut self) {
        self.items.clear();
    }

    pub(crate) fn contains(&self, item: SlotIdx) -> bool {
        self.items.binary_search(&item).is_ok()
    }

    /// Inserts one item; returns `true` if it was not already present.
    pub(crate) fn insert(&mut self, item: SlotIdx) -> bool {
        match self.items.binary_search(&item) {
            Ok(_) => false,
            Err(i) => {
                self.items.insert(i, item);
                true
            }
        }
    }

    /// Removes one item; returns `true` if it was present.
    pub(crate) fn remove(&mut self, item: SlotIdx) -> bool {
        match self.items.binary_search(&item) {
            Ok(i) => {
                self.items.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Keeps only the items for which `keep` returns `true`, in one pass.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(SlotIdx) -> bool) {
        self.items.retain(|&x| keep(x));
    }

    /// Items in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = SlotIdx> + '_ {
        self.items.iter().copied()
    }

    /// Adds every item of `other`; returns `true` if the set grew.
    ///
    /// Fast-paths the no-op case (all items already present), which is the
    /// common outcome during ancestor propagation once the graph is warm.
    pub(crate) fn merge(&mut self, other: &SlotSet) -> bool {
        if other.items.iter().all(|&x| self.contains(x)) {
            return false;
        }
        let mut merged = Vec::with_capacity(self.items.len() + other.items.len());
        let (a, b) = (&self.items, &other.items);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    merged.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        self.items = merged;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_insert_get_remove() {
        let mut m: SlotMap<u32> = SlotMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(5, 50), None);
        assert_eq!(m.insert(1, 10), None);
        assert_eq!(m.insert(9, 90), None);
        assert_eq!(m.insert(5, 55), Some(50), "replacement returns old value");
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(5), Some(&55));
        assert_eq!(m.get(2), None);
        assert!(m.contains_key(1));
        let keys: Vec<SlotIdx> = m.keys().collect();
        assert_eq!(keys, vec![1, 5, 9], "keys stay sorted");
        assert_eq!(m.remove(5), Some(55));
        assert_eq!(m.remove(5), None);
        assert_eq!(m.len(), 2);
        *m.get_mut(1).unwrap() += 1;
        assert_eq!(m.get(1), Some(&11));
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn map_iter_is_sorted_pairs() {
        let mut m: SlotMap<&str> = SlotMap::new();
        m.insert(3, "c");
        m.insert(1, "a");
        m.insert(2, "b");
        let pairs: Vec<(SlotIdx, &str)> = m.iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(pairs, vec![(1, "a"), (2, "b"), (3, "c")]);
    }

    #[test]
    fn set_insert_contains_remove() {
        let mut s = SlotSet::new();
        assert!(s.insert(4));
        assert!(s.insert(2));
        assert!(!s.insert(4), "duplicate insert is a no-op");
        assert!(s.contains(2));
        assert!(!s.contains(3));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![2, 4]);
        assert!(s.remove(2));
        assert!(!s.remove(2));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn set_merge_reports_growth() {
        let mut a = SlotSet::new();
        for x in [1, 3, 5] {
            a.insert(x);
        }
        let mut b = SlotSet::new();
        for x in [3, 5] {
            b.insert(x);
        }
        assert!(!a.merge(&b), "subset merge is a no-op");
        b.insert(4);
        assert!(a.merge(&b));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 3, 4, 5]);
        assert!(!a.merge(&b), "idempotent");
    }
}
