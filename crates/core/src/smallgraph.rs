//! The arena's per-slot out-edge lists.
//!
//! Out-edges sit on the hot path of every `add_edge` (in-edges are only
//! counted). A sorted vector beats a `HashMap` here: lookup is a binary
//! search over a contiguous run, iteration is linear and allocation-free,
//! and the order is deterministic — so path reconstruction and collection
//! cascades need no defensive re-sorting.
//!
//! Most alive nodes have one or two out-edges (a long transaction's readers
//! each have exactly one), so the list grows one record at a time while it
//! is small instead of jumping to `Vec`'s minimum capacity of four, and
//! each record carries its target slot and `implied` tag in one word
//! beside the edge's report metadata: 40 bytes per edge.

use crate::arena::EdgeInfo;
use crate::step::{SlotIdx, Ts};
use velodrome_events::Op;

/// Tag bit of [`EdgeRec::key`]: the edge was transitively implied at
/// insertion time. Slot indices take 24 bits, so the top bit is free.
const IMPLIED: u32 = 1 << 31;

/// A stored edge: the fields of its [`EdgeInfo`] plus its target slot and
/// whether it was transitively implied at insertion time. Implied edges
/// exist only when redundant-edge elision is disabled (the differential
/// baseline); they change no reachability and are skipped during path
/// reconstruction, so the baseline produces byte-identical reports to the
/// eliding configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EdgeRec {
    from_ts: Ts,
    to_ts: Ts,
    op_index: u64,
    op: Op,
    /// Target slot, with [`IMPLIED`] set for a tagged edge.
    key: u32,
}

impl EdgeRec {
    pub(crate) fn new(to: SlotIdx, info: EdgeInfo, implied: bool) -> Self {
        debug_assert_eq!(to & IMPLIED, 0, "slot index overlaps the tag bit");
        EdgeRec {
            from_ts: info.from_ts,
            to_ts: info.to_ts,
            op_index: info.op_index as u64,
            op: info.op,
            key: to | if implied { IMPLIED } else { 0 },
        }
    }

    /// The target slot.
    pub(crate) fn to(&self) -> SlotIdx {
        self.key & !IMPLIED
    }

    pub(crate) fn implied(&self) -> bool {
        self.key & IMPLIED != 0
    }

    pub(crate) fn info(&self) -> EdgeInfo {
        EdgeInfo {
            from_ts: self.from_ts,
            to_ts: self.to_ts,
            op: self.op,
            op_index: self.op_index as usize,
        }
    }

    /// Replaces the report metadata, keeping target and tag.
    pub(crate) fn refresh(&mut self, info: EdgeInfo) {
        self.from_ts = info.from_ts;
        self.to_ts = info.to_ts;
        self.op_index = info.op_index as u64;
        self.op = info.op;
    }
}

/// Lists up to this length grow by one record at a time.
const EXACT_UP_TO: usize = 4;

/// A slot's out-edges, sorted by target slot, at most one per target.
#[derive(Debug, Clone, Default)]
pub(crate) struct OutEdges {
    recs: Vec<EdgeRec>,
}

impl OutEdges {
    pub(crate) fn len(&self) -> usize {
        self.recs.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Empties the list, keeping its capacity for the slot's next node.
    pub(crate) fn clear(&mut self) {
        self.recs.clear();
    }

    fn find(&self, to: SlotIdx) -> Result<usize, usize> {
        self.recs.binary_search_by_key(&to, EdgeRec::to)
    }

    pub(crate) fn get(&self, to: SlotIdx) -> Option<&EdgeRec> {
        self.find(to).ok().map(|i| &self.recs[i])
    }

    pub(crate) fn get_mut(&mut self, to: SlotIdx) -> Option<&mut EdgeRec> {
        self.find(to).ok().map(|i| &mut self.recs[i])
    }

    /// Inserts `rec`, which must name a target not yet in the list.
    pub(crate) fn insert(&mut self, rec: EdgeRec) {
        let i = self
            .find(rec.to())
            .expect_err("one stored edge per ordered node pair");
        if self.recs.len() == self.recs.capacity() && self.recs.len() < EXACT_UP_TO {
            self.recs.reserve_exact(1);
        }
        self.recs.insert(i, rec);
    }

    /// Records in ascending target order.
    pub(crate) fn iter(&self) -> std::slice::Iter<'_, EdgeRec> {
        self.recs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use velodrome_events::{ThreadId, VarId};

    fn info(i: usize) -> EdgeInfo {
        EdgeInfo {
            from_ts: i as Ts,
            to_ts: i as Ts + 1,
            op: Op::Read {
                t: ThreadId::new(0),
                x: VarId::new(0),
            },
            op_index: i,
        }
    }

    #[test]
    fn map_insert_get() {
        let mut m = OutEdges::default();
        assert!(m.is_empty());
        m.insert(EdgeRec::new(5, info(50), false));
        m.insert(EdgeRec::new(1, info(10), true));
        m.insert(EdgeRec::new(9, info(90), false));
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(5).map(EdgeRec::info), Some(info(50)));
        assert!(m.get(1).unwrap().implied());
        assert!(!m.get(9).unwrap().implied());
        assert_eq!(m.get(2), None);
        m.get_mut(1).unwrap().refresh(info(11));
        let rec = m.get(1).unwrap();
        assert_eq!((rec.to(), rec.info()), (1, info(11)));
        assert!(rec.implied(), "a refresh keeps the tag");
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn map_iter_is_sorted_pairs() {
        let mut m = OutEdges::default();
        for to in [3, 1, crate::step::MAX_SLOT - 1, 2] {
            m.insert(EdgeRec::new(to, info(to as usize), false));
        }
        let pairs: Vec<(SlotIdx, EdgeInfo)> = m.iter().map(|r| (r.to(), r.info())).collect();
        let max = crate::step::MAX_SLOT - 1;
        assert_eq!(
            pairs,
            vec![
                (1, info(1)),
                (2, info(2)),
                (3, info(3)),
                (max, info(max as usize))
            ]
        );
    }

    #[test]
    fn small_lists_grow_exactly() {
        assert_eq!(std::mem::size_of::<EdgeRec>(), 40);
        let mut m = OutEdges::default();
        for to in 0..EXACT_UP_TO as SlotIdx {
            m.insert(EdgeRec::new(to, info(0), false));
            assert_eq!(m.recs.capacity(), m.len());
        }
        m.insert(EdgeRec::new(EXACT_UP_TO as SlotIdx, info(0), false));
        assert!(m.recs.capacity() > m.len(), "larger lists grow by doubling");
    }
}
