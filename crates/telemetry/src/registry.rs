//! The metric registry: a map from name to the last published value.
//!
//! Every metric is owned by the component it describes, kept there in
//! plain integers (a stats struct, or a [`crate::PhaseStat`]), and copied
//! in with [`Telemetry::set_counter`], [`Telemetry::set_gauge`] or
//! [`Telemetry::set_phase`] just before a snapshot. The registry holds no
//! live handles, so its mutex is taken only to publish and to snapshot.

use crate::snapshot::{MetricValue, Snapshot};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Handle to a telemetry registry, or the no-op disabled handle. Cloning is
/// cheap (an `Arc` bump); all clones share the same registry.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<BTreeMap<String, MetricValue>>>>,
}

impl Telemetry {
    /// The no-op handle: publishing into it does nothing and it takes no
    /// snapshots. This is the default everywhere, so telemetry costs one
    /// never-taken branch unless a registry is explicitly attached.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Creates a fresh, enabled registry.
    pub fn registry() -> Self {
        Self {
            inner: Some(Arc::default()),
        }
    }

    /// `true` when values published into this handle are recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Stores `value` under `name`, overwriting the previous value. The
    /// name is copied only on its first insert.
    ///
    /// # Panics
    ///
    /// Panics if `name` already holds a different metric kind.
    fn set(&self, name: &str, value: MetricValue) {
        let Some(inner) = &self.inner else { return };
        let mut metrics = inner.lock().expect("telemetry registry poisoned");
        match metrics.get_mut(name) {
            Some(old) if old.kind() == value.kind() => *old = value,
            Some(old) => panic!("metric `{name}` already registered as {}", old.kind()),
            None => {
                metrics.insert(name.to_owned(), value);
            }
        }
    }

    /// Publishes the counter `name`: a count its owner only ever raises.
    ///
    /// # Panics
    ///
    /// Panics if `name` already holds a different metric kind.
    pub fn set_counter(&self, name: &str, value: u64) {
        self.set(name, MetricValue::Counter(value));
    }

    /// Publishes the gauge `name`: a value its owner may raise or lower.
    ///
    /// # Panics
    ///
    /// Panics if `name` already holds a different metric kind.
    pub fn set_gauge(&self, name: &str, value: u64) {
        self.set(name, MetricValue::Gauge(value));
    }

    /// Publishes the phase `name` with an owner's totals — the publish
    /// path of [`crate::PhaseStat`].
    ///
    /// # Panics
    ///
    /// Panics if `name` already holds a different metric kind.
    pub fn set_phase(&self, name: &str, count: u64, total_nanos: u64, max_nanos: u64) {
        self.set(
            name,
            MetricValue::Phase {
                count,
                total_nanos,
                max_nanos,
            },
        );
    }

    /// Collects a point-in-time copy of every published metric. Returns
    /// `None` on the disabled handle.
    pub fn snapshot(&self, seq: u64, events: u64) -> Option<Snapshot> {
        let inner = self.inner.as_ref()?;
        let metrics = inner.lock().expect("telemetry registry poisoned").clone();
        Some(Snapshot {
            seq,
            events,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_noops() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.set_counter("c", 5);
        t.set_gauge("g", 7);
        t.set_phase("p", 1, 2, 3);
        assert!(t.snapshot(0, 0).is_none());
    }

    #[test]
    fn counters_and_gauges_round_trip_through_clones() {
        let t = Telemetry::registry();
        t.set_counter("hits", 2);
        // A clone publishes into the same registry; the last value wins.
        let t2 = t.clone();
        t2.set_counter("hits", 3);
        t2.set_gauge("depth", 9);
        let snap = t.snapshot(1, 0).unwrap();
        assert_eq!(snap.metrics["hits"], MetricValue::Counter(3));
        assert_eq!(snap.metrics["depth"], MetricValue::Gauge(9));
        assert_eq!(snap.metrics.len(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let t = Telemetry::registry();
        t.set_counter("x", 1);
        t.set_gauge("x", 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn phase_over_a_gauge_panics() {
        let t = Telemetry::registry();
        t.set_gauge("x", 1);
        t.set_phase("x", 1, 0, 0);
    }
}
