//! Compact adjacency containers for the transaction graph.
//!
//! The arena's per-slot out-edge maps sit on the hot path of every
//! `add_edge` (in-edges are only counted), and the visited sets of path
//! reconstruction and invariant checks are built per query. Sorted vectors
//! beat `HashMap`/`HashSet` here: membership is a binary search over a
//! contiguous `u16` run, iteration is linear and allocation-free, and the
//! order is deterministic — so path reconstruction and collection cascades
//! need no defensive re-sorting.

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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_insert_get() {
        let mut m: SlotMap<u32> = SlotMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(5, 50), None);
        assert_eq!(m.insert(1, 10), None);
        assert_eq!(m.insert(9, 90), None);
        assert_eq!(m.insert(5, 55), Some(50), "replacement returns old value");
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(5), Some(&55));
        assert_eq!(m.get(2), None);
        let keys: Vec<SlotIdx> = m.keys().collect();
        assert_eq!(keys, vec![1, 5, 9], "keys stay sorted");
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
    fn set_insert_contains() {
        let mut s = SlotSet::new();
        assert!(s.insert(4));
        assert!(s.insert(2));
        assert!(!s.insert(4), "duplicate insert is a no-op");
        assert!(s.contains(2));
        assert!(s.contains(4));
        assert!(!s.contains(3));
    }
}
