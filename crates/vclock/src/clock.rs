//! Vector clocks over thread identifiers.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use velodrome_events::ThreadId;

/// Thread `t`'s clock in `threads`, created in `t`'s first epoch on first
/// use. A free function over the map, so a caller can hold the clock while
/// it touches its other fields.
pub(crate) fn thread_clock(
    threads: &mut HashMap<ThreadId, VectorClock>,
    t: ThreadId,
) -> &mut VectorClock {
    threads.entry(t).or_insert_with(|| {
        let mut c = VectorClock::new();
        c.inc(t); // each thread starts in its own epoch
        c
    })
}

/// A vector clock: one logical timestamp per thread, absent entries being
/// zero.
///
/// Only the non-zero components are stored, as `(thread, value)` pairs
/// sorted by thread id. Thread ids are arbitrary `u32`s, so memory follows
/// the number of threads a clock has heard of, not the largest thread id;
/// [`get`](Self::get) is a binary search, and [`join`](Self::join) and
/// [`le`](Self::le) are sorted merges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VectorClock {
    entries: Vec<(ThreadId, u64)>,
}

impl VectorClock {
    /// The all-zero clock.
    pub fn new() -> Self {
        Self::default()
    }

    fn find(&self, t: ThreadId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&t, |&(u, _)| u)
    }

    /// The component for thread `t`.
    pub fn get(&self, t: ThreadId) -> u64 {
        self.find(t).map_or(0, |i| self.entries[i].1)
    }

    /// Sets the component for thread `t`.
    pub fn set(&mut self, t: ThreadId, value: u64) {
        match (self.find(t), value) {
            (Ok(i), 0) => {
                self.entries.remove(i);
            }
            (Ok(i), _) => self.entries[i].1 = value,
            (Err(_), 0) => {}
            (Err(i), _) => self.entries.insert(i, (t, value)),
        }
    }

    /// Increments thread `t`'s component.
    pub fn inc(&mut self, t: ThreadId) {
        match self.find(t) {
            Ok(i) => self.entries[i].1 += 1,
            Err(i) => self.entries.insert(i, (t, 1)),
        }
    }

    /// Pointwise maximum (join) with another clock.
    pub fn join(&mut self, other: &VectorClock) {
        let (a, b) = (&self.entries, &other.entries);
        let mut merged = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                Ordering::Less => {
                    merged.push(a[i]);
                    i += 1;
                }
                Ordering::Greater => {
                    merged.push(b[j]);
                    j += 1;
                }
                Ordering::Equal => {
                    merged.push((a[i].0, a[i].1.max(b[j].1)));
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        self.entries = merged;
    }

    /// Pointwise comparison: does every component of `self` not exceed the
    /// corresponding component of `other`?
    pub fn le(&self, other: &VectorClock) -> bool {
        let mut j = 0;
        self.entries.iter().all(|&(t, v)| {
            while j < other.entries.len() && other.entries[j].0 < t {
                j += 1;
            }
            other.entries.get(j).is_some_and(|&(u, w)| u == t && v <= w)
        })
    }

    /// Whether both clocks are incomparable (concurrent).
    pub fn concurrent_with(&self, other: &VectorClock) -> bool {
        !self.le(other) && !other.le(self)
    }

    /// Whether the clock is all zeros.
    pub fn is_zero(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Display for VectorClock {
    /// Every component from thread 0 up to the largest thread with a
    /// non-zero one, zeros included.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        let last = self
            .entries
            .last()
            .map_or(0, |&(t, _)| t.raw() as usize + 1);
        for i in 0..last {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", self.get(ThreadId::new(i as u32)))?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }

    #[test]
    fn get_set_inc() {
        let mut c = VectorClock::new();
        assert_eq!(c.get(t(3)), 0);
        c.set(t(3), 7);
        assert_eq!(c.get(t(3)), 7);
        c.inc(t(3));
        assert_eq!(c.get(t(3)), 8);
        c.inc(t(0));
        assert_eq!(c.get(t(0)), 1);
    }

    #[test]
    fn join_takes_pointwise_max() {
        let mut a = VectorClock::new();
        a.set(t(0), 5);
        a.set(t(1), 1);
        let mut b = VectorClock::new();
        b.set(t(1), 4);
        b.set(t(2), 2);
        a.join(&b);
        assert_eq!(a.get(t(0)), 5);
        assert_eq!(a.get(t(1)), 4);
        assert_eq!(a.get(t(2)), 2);
    }

    #[test]
    fn le_and_concurrency() {
        let mut a = VectorClock::new();
        a.set(t(0), 1);
        let mut b = VectorClock::new();
        b.set(t(0), 2);
        assert!(a.le(&b));
        assert!(!b.le(&a));
        assert!(!a.concurrent_with(&b));
        let mut c = VectorClock::new();
        c.set(t(1), 1);
        assert!(a.concurrent_with(&c));
    }

    #[test]
    fn le_handles_length_mismatch() {
        let mut a = VectorClock::new();
        a.set(t(5), 1);
        let b = VectorClock::new();
        assert!(b.le(&a));
        assert!(!a.le(&b));
        assert!(VectorClock::new().is_zero());
        assert!(!a.is_zero());
    }

    #[test]
    fn memory_follows_the_threads_not_the_largest_id() {
        let mut a = VectorClock::new();
        a.set(t(300_000_000), 2);
        a.inc(t(u32::MAX));
        let mut b = VectorClock::new();
        b.set(t(7), 1);
        b.join(&a);
        assert_eq!(
            b.entries,
            [(t(7), 1), (t(300_000_000), 2), (t(u32::MAX), 1)]
        );
        assert!(a.le(&b) && !b.le(&a));
        b.set(t(7), 0);
        assert_eq!(b, a, "a zero component is not stored");
    }

    #[test]
    fn display_renders_entries() {
        let mut a = VectorClock::new();
        a.set(t(1), 3);
        assert_eq!(a.to_string(), "⟨0, 3⟩");
    }
}
