//! Single-owner phase records.
//!
//! A [`PhaseStat`] lives inside the component whose phase it measures
//! (the engine, the simulator's executor) and is updated with plain
//! integer arithmetic: no `Arc`, no atomics, no registry lookup. The owner
//! publishes it pull-style with [`PhaseStat::publish`] just before a
//! snapshot, the same way stats structs are mirrored into gauges.
//!
//! The call count is exact. The clock is read only on sampled calls — the
//! first of every `period` calls — so a hot phase can be counted on every
//! call and timed on a fraction of them; `period = 1` times every call.

use crate::Telemetry;
use std::time::Instant;

/// Call count plus sampled timing of one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Calls of the phase (exact).
    pub count: u64,
    /// Calls whose duration was measured.
    pub timed: u64,
    /// Nanoseconds summed over the timed calls.
    pub timed_nanos: u64,
    /// Longest timed call, in nanoseconds.
    pub max_nanos: u64,
}

impl PhaseStat {
    /// Counts one call and reads the clock if the call is sampled (the
    /// first of every `period` calls). Pass the result to
    /// [`end`](Self::end) when the call returns.
    #[inline]
    pub fn begin(&mut self, period: u64) -> Option<Instant> {
        let sampled = self.count % period == 0;
        self.count += 1;
        sampled.then(Instant::now)
    }

    /// Closes a call opened by [`begin`](Self::begin): records its
    /// duration if it was sampled, and does nothing otherwise.
    #[inline]
    pub fn end(&mut self, start: Option<Instant>) {
        if let Some(start) = start {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.timed += 1;
            self.timed_nanos = self.timed_nanos.saturating_add(nanos);
            self.max_nanos = self.max_nanos.max(nanos);
        }
    }

    /// Estimated nanoseconds over all calls: the mean timed call scaled to
    /// the exact count (`timed_nanos × count / timed`; 0 before any call
    /// was timed).
    pub fn total_nanos(&self) -> u64 {
        if self.timed == 0 {
            return 0;
        }
        let total = u128::from(self.timed_nanos) * u128::from(self.count) / u128::from(self.timed);
        u64::try_from(total).unwrap_or(u64::MAX)
    }

    /// Writes the record into `t` as the phase metric `name`.
    pub fn publish(&self, t: &Telemetry, name: &str) {
        t.set_phase(name, self.count, self.total_nanos(), self.max_nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricValue;

    #[test]
    fn count_is_exact_and_one_call_in_period_is_timed() {
        let mut p = PhaseStat::default();
        let mut clock_reads = 0;
        for _ in 0..130 {
            let start = p.begin(64);
            clock_reads += u64::from(start.is_some());
            p.end(start);
        }
        assert_eq!(p.count, 130);
        // Calls 0, 64 and 128 are sampled; the rest never read the clock.
        assert_eq!(clock_reads, 3);
        assert_eq!(p.timed, 3);
    }

    #[test]
    fn period_one_times_every_call() {
        let mut p = PhaseStat::default();
        for _ in 0..5 {
            let start = p.begin(1);
            assert!(start.is_some());
            p.end(start);
        }
        assert_eq!((p.count, p.timed), (5, 5));
    }

    #[test]
    fn total_is_the_timed_mean_scaled_to_the_count() {
        let p = PhaseStat {
            count: 128,
            timed: 2,
            timed_nanos: 300,
            max_nanos: 200,
        };
        assert_eq!(p.total_nanos(), 300 * 128 / 2);
        assert_eq!(PhaseStat::default().total_nanos(), 0);
        let huge = PhaseStat {
            count: u64::MAX,
            timed: 1,
            timed_nanos: u64::MAX,
            max_nanos: u64::MAX,
        };
        assert_eq!(huge.total_nanos(), u64::MAX);
    }

    #[test]
    fn max_is_taken_over_timed_calls() {
        let mut p = PhaseStat::default();
        let start = p.begin(1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        p.end(start);
        let slow = p.max_nanos;
        assert!(slow >= 2_000_000, "{slow}");
        let start = p.begin(1);
        p.end(start);
        assert!(p.max_nanos >= slow, "a later call never lowers the max");
        assert!(p.timed_nanos >= slow);
        // Closing an unsampled call records nothing.
        p.end(None);
        assert_eq!((p.count, p.timed), (2, 2));
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn publish_overwrites_the_registered_phase() {
        let t = Telemetry::registry();
        let mut p = PhaseStat::default();
        for _ in 0..3 {
            let start = p.begin(64);
            p.end(start);
        }
        p.publish(&t, "work");
        p.count += 1;
        p.publish(&t, "work");
        let snap = t.snapshot(0, 4).unwrap();
        match &snap.metrics["work"] {
            MetricValue::Phase {
                count,
                total_nanos,
                max_nanos,
            } => {
                assert_eq!(*count, 4);
                assert_eq!(*total_nanos, p.total_nanos());
                assert_eq!(*max_nanos, p.max_nanos);
            }
            other => panic!("expected phase, got {other:?}"),
        }
    }
}
