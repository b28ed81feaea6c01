//! The arena's per-slot out-edge lists.
//!
//! Out-edges sit on the hot path of every `add_edge` (in-edges are only
//! counted). A sorted vector beats a `HashMap` here: lookup is a binary
//! search over a contiguous run, iteration is linear and allocation-free,
//! and the order is deterministic — so path reconstruction and collection
//! cascades need no defensive re-sorting.
//!
//! Most alive nodes have at most one out-edge (a long transaction's readers
//! each have exactly one), so a list keeps its only edge in place, inside
//! the slot, and moves to the heap at its second: a node with one out-edge
//! allocates nothing beyond its slot. A heap list grows one record at a
//! time while it is small instead of jumping to `Vec`'s minimum capacity of
//! four. Each record packs its edge into 32 bytes (DESIGN.md §7, *Node
//! layout*), and a list, in place or on the heap, takes 32 bytes of its
//! slot.

use crate::arena::EdgeInfo;
use crate::step::{SlotIdx, MAX_TS};
use std::num::NonZeroU64;
use velodrome_events::{Label, LockId, Op, ThreadId, VarId};

/// Bits of a packed word that hold a timestamp; a slot index or the op's
/// tag sits above them.
const TS_BITS: u32 = 40;
/// [`EdgeRec::head`]: the op's 3-bit tag sits above `to_ts`.
const TAG_SHIFT: u32 = TS_BITS;
const TAG_MASK: u64 = 0b111;
/// [`EdgeRec::head`]: the edge was transitively implied at insertion time.
const IMPLIED: u64 = 1 << (TS_BITS + 3);
/// [`EdgeRec::head`]: always set, so the word is never zero. That spare
/// value is where [`OutEdges`] keeps its variant tag, which lets it hold
/// either one record or a heap list in the record's 32 bytes.
const PRESENT: NonZeroU64 = match NonZeroU64::new(1 << 63) {
    Some(bit) => bit,
    None => unreachable!(),
};

/// A stored edge: the fields of its [`EdgeInfo`] plus its target slot and
/// whether it was transitively implied at insertion time. Implied edges
/// exist only when redundant-edge elision is disabled (the differential
/// baseline); they change no reachability and are skipped during path
/// reconstruction, so the baseline produces byte-identical reports to the
/// eliding configuration.
///
/// Four words: a 40-bit timestamp shares each of two words, one with the
/// 24-bit target slot, the other with the op's tag and the `implied` bit;
/// the op's two `u32` operands and `op_index` take the rest. `head` is
/// last (`repr(C)`), so [`OutEdges`] can lay a `Vec` over the first three
/// words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub(crate) struct EdgeRec {
    /// `from_ts` in the low 40 bits, the target slot above them.
    tail: u64,
    /// The op's thread in the low 32 bits and its other operand (0 for
    /// `End`) in the high 32.
    operands: u64,
    op_index: u64,
    /// `to_ts` in the low 40 bits, then the op's tag, [`IMPLIED`] and
    /// [`PRESENT`].
    head: NonZeroU64,
}

/// An op as its tag and its two operands.
fn pack_op(op: Op) -> (u64, u64) {
    let (tag, t, v) = match op {
        Op::Read { t, x } => (0, t, x.raw()),
        Op::Write { t, x } => (1, t, x.raw()),
        Op::Acquire { t, m } => (2, t, m.raw()),
        Op::Release { t, m } => (3, t, m.raw()),
        Op::Begin { t, l } => (4, t, l.raw()),
        Op::End { t } => (5, t, 0),
        Op::Fork { t, child } => (6, t, child.raw()),
        Op::Join { t, child } => (7, t, child.raw()),
    };
    (tag, u64::from(t.raw()) | (u64::from(v) << 32))
}

/// The op [`pack_op`] packed.
fn unpack_op(tag: u64, operands: u64) -> Op {
    let t = ThreadId::new(operands as u32);
    let v = (operands >> 32) as u32;
    match tag {
        0 => Op::Read {
            t,
            x: VarId::new(v),
        },
        1 => Op::Write {
            t,
            x: VarId::new(v),
        },
        2 => Op::Acquire {
            t,
            m: LockId::new(v),
        },
        3 => Op::Release {
            t,
            m: LockId::new(v),
        },
        4 => Op::Begin {
            t,
            l: Label::new(v),
        },
        5 => Op::End { t },
        6 => Op::Fork {
            t,
            child: ThreadId::new(v),
        },
        _ => Op::Join {
            t,
            child: ThreadId::new(v),
        },
    }
}

impl EdgeRec {
    pub(crate) fn new(to: SlotIdx, info: EdgeInfo, implied: bool) -> Self {
        debug_assert!(to <= crate::step::MAX_SLOT, "slot index past 24 bits");
        let mut rec = EdgeRec {
            tail: u64::from(to) << TS_BITS,
            operands: 0,
            op_index: 0,
            head: PRESENT | if implied { IMPLIED } else { 0 },
        };
        rec.refresh(info);
        rec
    }

    /// The target slot.
    pub(crate) fn to(&self) -> SlotIdx {
        (self.tail >> TS_BITS) as SlotIdx
    }

    pub(crate) fn implied(&self) -> bool {
        self.head.get() & IMPLIED != 0
    }

    pub(crate) fn info(&self) -> EdgeInfo {
        let head = self.head.get();
        EdgeInfo {
            from_ts: self.tail & MAX_TS,
            to_ts: head & MAX_TS,
            op: unpack_op((head >> TAG_SHIFT) & TAG_MASK, self.operands),
            op_index: self.op_index as usize,
        }
    }

    /// Replaces the report metadata, keeping target and tag.
    pub(crate) fn refresh(&mut self, info: EdgeInfo) {
        debug_assert!(info.from_ts <= MAX_TS && info.to_ts <= MAX_TS);
        let (tag, operands) = pack_op(info.op);
        self.tail = (self.tail & !MAX_TS) | info.from_ts;
        self.operands = operands;
        self.op_index = info.op_index as u64;
        self.head = PRESENT | (self.head.get() & IMPLIED) | (tag << TAG_SHIFT) | info.to_ts;
    }
}

/// Heap lists up to this length grow by one record at a time.
const EXACT_UP_TO: usize = 4;

/// A slot's out-edges, sorted by target slot, at most one per target.
#[derive(Debug, Clone)]
pub(crate) enum OutEdges {
    /// Exactly one edge, stored in place.
    One(EdgeRec),
    /// Any other number of edges. An empty list owns no allocation unless
    /// [`clear`](Self::clear) kept a heap list's capacity for the slot's
    /// next node.
    Heap(Vec<EdgeRec>),
}

impl Default for OutEdges {
    fn default() -> Self {
        OutEdges::Heap(Vec::new())
    }
}

impl OutEdges {
    /// The records, in ascending target order.
    fn as_slice(&self) -> &[EdgeRec] {
        match self {
            OutEdges::One(rec) => std::slice::from_ref(rec),
            OutEdges::Heap(recs) => recs,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.as_slice().len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Empties the list, keeping a heap list's capacity for the slot's
    /// next node.
    pub(crate) fn clear(&mut self) {
        match self {
            OutEdges::One(_) => *self = OutEdges::default(),
            OutEdges::Heap(recs) => recs.clear(),
        }
    }

    pub(crate) fn get(&self, to: SlotIdx) -> Option<&EdgeRec> {
        let recs = self.as_slice();
        let i = recs.binary_search_by_key(&to, EdgeRec::to).ok()?;
        Some(&recs[i])
    }

    pub(crate) fn get_mut(&mut self, to: SlotIdx) -> Option<&mut EdgeRec> {
        match self {
            OutEdges::One(rec) => (rec.to() == to).then_some(rec),
            OutEdges::Heap(recs) => {
                let i = recs.binary_search_by_key(&to, EdgeRec::to).ok()?;
                Some(&mut recs[i])
            }
        }
    }

    /// Inserts `rec`, which must name a target not yet in the list.
    pub(crate) fn insert(&mut self, rec: EdgeRec) {
        match self {
            OutEdges::Heap(recs) if recs.capacity() == 0 => *self = OutEdges::One(rec),
            OutEdges::One(first) => {
                let first = *first;
                assert_ne!(
                    first.to(),
                    rec.to(),
                    "one stored edge per ordered node pair"
                );
                let pair = if first.to() < rec.to() {
                    [first, rec]
                } else {
                    [rec, first]
                };
                *self = OutEdges::Heap(pair.to_vec());
            }
            OutEdges::Heap(recs) => {
                let i = recs
                    .binary_search_by_key(&rec.to(), EdgeRec::to)
                    .expect_err("one stored edge per ordered node pair");
                if recs.len() == recs.capacity() && recs.len() < EXACT_UP_TO {
                    recs.reserve_exact(1);
                }
                recs.insert(i, rec);
            }
        }
    }

    /// Records in ascending target order.
    pub(crate) fn iter(&self) -> std::slice::Iter<'_, EdgeRec> {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::{Ts, MAX_SLOT};

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

    /// Heap bytes the list owns.
    fn heap_bytes(m: &OutEdges) -> usize {
        match m {
            OutEdges::One(_) => 0,
            OutEdges::Heap(recs) => recs.capacity() * std::mem::size_of::<EdgeRec>(),
        }
    }

    fn targets(m: &OutEdges) -> Vec<SlotIdx> {
        m.iter().map(EdgeRec::to).collect()
    }

    #[test]
    fn record_and_list_take_32_bytes() {
        assert_eq!(std::mem::size_of::<EdgeRec>(), 32);
        assert_eq!(std::mem::size_of::<OutEdges>(), 32);
    }

    #[test]
    fn every_op_and_extreme_field_roundtrips() {
        let (t, v) = (ThreadId::new(u32::MAX), u32::MAX - 1);
        let ops = [
            Op::Read {
                t,
                x: VarId::new(v),
            },
            Op::Write {
                t,
                x: VarId::new(v),
            },
            Op::Acquire {
                t,
                m: LockId::new(v),
            },
            Op::Release {
                t,
                m: LockId::new(v),
            },
            Op::Begin {
                t,
                l: Label::new(v),
            },
            Op::End { t },
            Op::Fork {
                t,
                child: ThreadId::new(v),
            },
            Op::Join {
                t,
                child: ThreadId::new(0),
            },
        ];
        for (i, op) in ops.into_iter().enumerate() {
            for (to, from_ts, to_ts, op_index) in [
                (0, 0, 0, 0),
                (MAX_SLOT - 1, MAX_TS, MAX_TS, usize::MAX),
                (MAX_SLOT - 1, MAX_TS - 1, 1, u32::MAX as usize + i),
                (1, 1, MAX_TS, (1 << 40) - 1),
            ] {
                let edge = EdgeInfo {
                    from_ts,
                    to_ts,
                    op,
                    op_index,
                };
                for implied in [false, true] {
                    let rec = EdgeRec::new(to, edge, implied);
                    assert_eq!(rec.to(), to, "{op:?}");
                    assert_eq!(rec.implied(), implied, "{op:?}");
                    assert_eq!(rec.info(), edge);
                }
            }
        }
    }

    #[test]
    fn refresh_keeps_target_and_tag() {
        let mut rec = EdgeRec::new(MAX_SLOT - 1, info(3), true);
        let later = EdgeInfo {
            from_ts: MAX_TS,
            to_ts: 0,
            op: Op::End {
                t: ThreadId::new(9),
            },
            op_index: usize::MAX,
        };
        rec.refresh(later);
        assert_eq!(
            (rec.to(), rec.implied(), rec.info()),
            (MAX_SLOT - 1, true, later)
        );
        rec.refresh(info(4));
        assert_eq!(
            (rec.to(), rec.implied(), rec.info()),
            (MAX_SLOT - 1, true, info(4))
        );
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
        for to in [3, 1, MAX_SLOT - 1, 2] {
            m.insert(EdgeRec::new(to, info(to as usize), false));
        }
        let pairs: Vec<(SlotIdx, EdgeInfo)> = m.iter().map(|r| (r.to(), r.info())).collect();
        let max = MAX_SLOT - 1;
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

    /// 0 → 1 → 2 → many edges and back through `clear`: the first edge is
    /// stored in place, the second moves the list to the heap, and every
    /// step keeps lookups, refreshes and ascending order.
    #[test]
    fn one_edge_stays_in_place_until_the_second() {
        let mut m = OutEdges::default();
        assert_eq!((m.len(), heap_bytes(&m)), (0, 0));
        assert_eq!(m.get(7), None);
        assert!(m.get_mut(7).is_none());

        m.insert(EdgeRec::new(7, info(70), true));
        assert!(matches!(m, OutEdges::One(_)));
        assert_eq!((m.len(), heap_bytes(&m)), (1, 0));
        assert_eq!(m.get(6), None);
        assert!(m.get_mut(8).is_none());
        m.get_mut(7).unwrap().refresh(info(71));
        let rec = m.get(7).unwrap();
        assert_eq!((rec.info(), rec.implied()), (info(71), true));

        // The second edge sorts before the first.
        m.insert(EdgeRec::new(2, info(20), false));
        assert_eq!(targets(&m), [2, 7]);
        assert_eq!(heap_bytes(&m), 2 * 32, "two records, exactly");
        assert!(m.get(7).unwrap().implied(), "moving keeps the tag");
        assert_eq!(m.get(7).map(EdgeRec::info), Some(info(71)));
        m.get_mut(2).unwrap().refresh(info(21));
        assert_eq!(m.get(2).map(EdgeRec::info), Some(info(21)));

        for to in [9, 0, 5, 8, 1] {
            m.insert(EdgeRec::new(to, info(to as usize), false));
        }
        assert_eq!(targets(&m), [0, 1, 2, 5, 7, 8, 9]);
        assert!(m.get(7).unwrap().implied() && !m.get(8).unwrap().implied());

        // A cleared heap list keeps its capacity for the slot's next node.
        let kept = heap_bytes(&m);
        m.clear();
        assert_eq!((m.len(), heap_bytes(&m)), (0, kept));
        assert_eq!(m.get(7), None);
        m.insert(EdgeRec::new(4, info(40), false));
        assert_eq!((targets(&m), heap_bytes(&m)), (vec![4], kept));

        // A cleared in-place edge leaves nothing behind.
        let mut one = OutEdges::default();
        one.insert(EdgeRec::new(3, info(30), false));
        one.clear();
        assert_eq!((one.len(), heap_bytes(&one)), (0, 0));
        one.insert(EdgeRec::new(1, info(10), false));
        assert!(matches!(one, OutEdges::One(_)));
        one.insert(EdgeRec::new(6, info(60), true));
        assert_eq!(targets(&one), [1, 6]);
    }

    #[test]
    #[should_panic(expected = "one stored edge per ordered node pair")]
    fn a_second_record_for_an_in_place_target_panics() {
        let mut m = OutEdges::default();
        m.insert(EdgeRec::new(3, info(0), false));
        m.insert(EdgeRec::new(3, info(1), false));
    }

    #[test]
    fn small_lists_grow_exactly() {
        let mut m = OutEdges::default();
        for to in 0..EXACT_UP_TO as SlotIdx {
            m.insert(EdgeRec::new(to, info(0), false));
            let exact = if m.len() == 1 { 0 } else { m.len() * 32 };
            assert_eq!(heap_bytes(&m), exact);
        }
        m.insert(EdgeRec::new(EXACT_UP_TO as SlotIdx, info(0), false));
        assert!(
            heap_bytes(&m) > m.len() * 32,
            "larger lists grow by doubling"
        );
    }
}
