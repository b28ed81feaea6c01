//! Packed step representation.
//!
//! Section 5 of the paper: "Each step is represented as a 64-bit integer
//! whose top 16 bits identify a particular Node object, and whose lower 48
//! bits represent a timestamp within that Node." A step is a pair of a
//! transaction node and the timestamp of one operation inside it; `⊥` (no
//! step) is a distinguished value.
//!
//! The split here is 24/40 instead: the top 24 bits name the node's slot
//! and the low 40 bits the timestamp. A step stays one `u64`, so the
//! per-variable state does not grow, while up to 2^24 − 1 nodes can be
//! alive at once (the paper's 16 bits stop at 65,535) and each slot still
//! has 2^40 timestamps. The split is a representation detail, not part of
//! the algorithm.
//!
//! Node slots are recycled: when a node is garbage collected, the slot
//! records the last timestamp it handed out, and any later dereference of a
//! step whose timestamp falls at or below that floor is interpreted as `⊥`.

use std::fmt;

/// Index of a node slot in the arena (the top 24 bits of a step).
pub type SlotIdx = u32;

/// A timestamp within a node (the low 40 bits of a step).
pub type Ts = u64;

/// Bits of a step that hold the timestamp.
const TS_BITS: u32 = 40;

/// Largest representable timestamp.
pub const MAX_TS: Ts = (1 << TS_BITS) - 1;

/// Largest slot index a step can carry. A step of this slot at
/// [`MAX_TS`] is the bit pattern of [`Step::NONE`], so the arena never
/// hands this index out.
pub const MAX_SLOT: SlotIdx = (1 << (64 - TS_BITS)) - 1;

/// A packed `(node, timestamp)` pair, or `⊥`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Step(u64);

impl Step {
    /// The distinguished "no step" value (`⊥`).
    pub const NONE: Step = Step(u64::MAX);

    /// Packs a slot index and timestamp into a step.
    ///
    /// # Panics
    ///
    /// Panics if `slot` exceeds 24 bits, `ts` exceeds 40 bits, or the
    /// packed value would collide with [`Step::NONE`].
    pub fn new(slot: SlotIdx, ts: Ts) -> Self {
        assert!(slot <= MAX_SLOT, "slot overflow: {slot}");
        assert!(ts <= MAX_TS, "timestamp overflow: {ts}");
        let packed = (u64::from(slot) << TS_BITS) | ts;
        assert_ne!(packed, u64::MAX, "step collides with NONE");
        Step(packed)
    }

    /// Returns `true` for the `⊥` step.
    pub const fn is_none(self) -> bool {
        self.0 == u64::MAX
    }

    /// Returns `true` for any step other than `⊥`.
    pub const fn is_some(self) -> bool {
        !self.is_none()
    }

    /// The node slot, or `None` for `⊥`.
    pub fn slot(self) -> Option<SlotIdx> {
        if self.is_none() {
            None
        } else {
            Some((self.0 >> TS_BITS) as SlotIdx)
        }
    }

    /// The timestamp, or `None` for `⊥`.
    pub fn ts(self) -> Option<Ts> {
        if self.is_none() {
            None
        } else {
            Some(self.0 & MAX_TS)
        }
    }

    /// Unpacks into `(slot, ts)`.
    ///
    /// # Panics
    ///
    /// Panics on `⊥`.
    pub fn unpack(self) -> (SlotIdx, Ts) {
        assert!(self.is_some(), "unpack of bottom step");
        ((self.0 >> TS_BITS) as SlotIdx, self.0 & MAX_TS)
    }

    /// The raw 64-bit representation.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl Default for Step {
    fn default() -> Self {
        Step::NONE
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.slot(), self.ts()) {
            (Some(slot), Some(ts)) => write!(f, "(n{slot}, {ts})"),
            _ => write!(f, "⊥"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let s = Step::new(42, 123_456_789);
        assert_eq!(s.unpack(), (42, 123_456_789));
        assert_eq!(s.slot(), Some(42));
        assert_eq!(s.ts(), Some(123_456_789));
        assert!(s.is_some());
    }

    #[test]
    fn none_is_bottom() {
        assert!(Step::NONE.is_none());
        assert_eq!(Step::NONE.slot(), None);
        assert_eq!(Step::NONE.ts(), None);
        assert_eq!(Step::default(), Step::NONE);
    }

    #[test]
    fn extreme_values_roundtrip() {
        assert_eq!(MAX_SLOT, (1 << 24) - 1);
        assert_eq!(MAX_TS, (1 << 40) - 1);
        let s = Step::new(MAX_SLOT, MAX_TS - 1);
        assert_eq!(s.unpack(), (MAX_SLOT, MAX_TS - 1));
        assert!(s.is_some());
        let s = Step::new(MAX_SLOT - 1, MAX_TS);
        assert_eq!(s.unpack(), (MAX_SLOT - 1, MAX_TS));
        let s = Step::new(0, 0);
        assert_eq!(s.unpack(), (0, 0));
    }

    #[test]
    #[should_panic(expected = "timestamp overflow")]
    fn timestamp_overflow_panics() {
        let _ = Step::new(0, MAX_TS + 1);
    }

    #[test]
    #[should_panic(expected = "slot overflow")]
    fn slot_overflow_panics() {
        let _ = Step::new(MAX_SLOT + 1, 0);
    }

    #[test]
    #[should_panic(expected = "collides with NONE")]
    fn max_slot_max_ts_collides_with_none() {
        let _ = Step::new(MAX_SLOT, MAX_TS);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Step::new(3, 7).to_string(), "(n3, 7)");
        assert_eq!(Step::NONE.to_string(), "⊥");
    }
}
