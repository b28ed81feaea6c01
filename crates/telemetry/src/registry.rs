//! The metric registry and its lock-cheap update handles.
//!
//! The registry mutex is taken only when a metric is (re-)registered, a
//! phase is published, or a snapshot is collected; [`Counter`], [`Gauge`]
//! and [`Histogram`] handles hold an `Arc` straight to the metric's atomic
//! storage, so their updates are contention-free relaxed atomics. Phases
//! are not live handles: their owners keep a [`crate::PhaseStat`] and
//! publish it with [`Telemetry::set_phase`].

use crate::snapshot::{MetricValue, Snapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// Number of power-of-two histogram buckets: bucket 0 holds zeros, bucket
/// `i` holds values whose highest set bit is `i - 1` (so `1 << 63` lands in
/// the last bucket and nothing overflows).
pub(crate) const BUCKETS: usize = 65;

#[derive(Debug)]
pub(crate) struct HistInner {
    pub(crate) buckets: [AtomicU64; BUCKETS],
    pub(crate) count: AtomicU64,
    pub(crate) sum: AtomicU64,
    pub(crate) max: AtomicU64,
}

impl HistInner {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, v: u64) {
        let idx = if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        };
        self.buckets[idx].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }
}

#[derive(Debug)]
pub(crate) struct PhaseInner {
    pub(crate) count: AtomicU64,
    pub(crate) total_nanos: AtomicU64,
    pub(crate) max_nanos: AtomicU64,
}

impl PhaseInner {
    fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            total_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
        }
    }

    fn store(&self, count: u64, total_nanos: u64, max_nanos: u64) {
        self.count.store(count, Relaxed);
        self.total_nanos.store(total_nanos, Relaxed);
        self.max_nanos.store(max_nanos, Relaxed);
    }
}

/// One registered metric: the tag decides how a snapshot renders it.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistInner>),
    Phase(Arc<PhaseInner>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
            Metric::Phase(_) => "phase",
        }
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

/// Handle to a telemetry registry, or the no-op disabled handle. Cloning is
/// cheap (an `Arc` bump); all clones share the same registry.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<RegistryInner>>,
}

impl Telemetry {
    /// The no-op handle: every metric it hands out discards updates, and
    /// publishing into it does nothing. This is the default everywhere,
    /// so telemetry costs one never-taken branch unless a registry is
    /// explicitly attached.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Creates a fresh, enabled registry.
    ///
    /// With the (default-on) `enabled` cargo feature switched off this also
    /// returns the disabled handle, compiling telemetry out of the build
    /// without touching call sites.
    pub fn registry() -> Self {
        #[cfg(feature = "enabled")]
        {
            Self {
                inner: Some(Arc::new(RegistryInner::default())),
            }
        }
        #[cfg(not(feature = "enabled"))]
        {
            Self::disabled()
        }
    }

    /// `true` when updates on handles from this registry are recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn register(&self, name: &str, make: impl FnOnce() -> Metric) -> Option<Metric> {
        let inner = self.inner.as_ref()?;
        let mut metrics = inner.metrics.lock().expect("telemetry registry poisoned");
        let metric = metrics.entry(name.to_owned()).or_insert_with(make);
        Some(metric.clone())
    }

    /// Registers (or resolves) the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.register(name, || Metric::Counter(Arc::new(AtomicU64::new(0)))) {
            Some(Metric::Counter(c)) => Counter(Some(c)),
            Some(other) => panic!("metric `{name}` already registered as {}", other.kind()),
            None => Counter(None),
        }
    }

    /// Registers (or resolves) the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.register(name, || Metric::Gauge(Arc::new(AtomicU64::new(0)))) {
            Some(Metric::Gauge(g)) => Gauge(Some(g)),
            Some(other) => panic!("metric `{name}` already registered as {}", other.kind()),
            None => Gauge(None),
        }
    }

    /// Registers (or resolves) the histogram `name` (power-of-two buckets).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.register(name, || Metric::Histogram(Arc::new(HistInner::new()))) {
            Some(Metric::Histogram(h)) => Histogram(Some(h)),
            Some(other) => panic!("metric `{name}` already registered as {}", other.kind()),
            None => Histogram(None),
        }
    }

    /// Registers `name` as a gauge (if needed) and sets it — the one-shot
    /// publish path used by stat surfaces that push a whole struct at once.
    pub fn set_gauge(&self, name: &str, value: u64) {
        if self.inner.is_some() {
            self.gauge(name).set(value);
        }
    }

    /// Registers `name` as a phase (if needed) and overwrites it with an
    /// owner's totals — the publish path of [`crate::PhaseStat`].
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn set_phase(&self, name: &str, count: u64, total_nanos: u64, max_nanos: u64) {
        match self.register(name, || Metric::Phase(Arc::new(PhaseInner::new()))) {
            Some(Metric::Phase(p)) => p.store(count, total_nanos, max_nanos),
            Some(other) => panic!("metric `{name}` already registered as {}", other.kind()),
            None => {}
        }
    }

    /// Collects a point-in-time copy of every registered metric. Returns
    /// `None` on the disabled handle.
    pub fn snapshot(&self, seq: u64, events: u64) -> Option<Snapshot> {
        let inner = self.inner.as_ref()?;
        let metrics = inner.metrics.lock().expect("telemetry registry poisoned");
        let values = metrics
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.load(Relaxed)),
                    Metric::Gauge(g) => MetricValue::Gauge(g.load(Relaxed)),
                    Metric::Histogram(h) => {
                        let mut buckets: Vec<u64> =
                            h.buckets.iter().map(|b| b.load(Relaxed)).collect();
                        while buckets.last() == Some(&0) {
                            buckets.pop();
                        }
                        MetricValue::Histogram {
                            count: h.count.load(Relaxed),
                            sum: h.sum.load(Relaxed),
                            max: h.max.load(Relaxed),
                            buckets,
                        }
                    }
                    Metric::Phase(p) => MetricValue::Phase {
                        count: p.count.load(Relaxed),
                        total_nanos: p.total_nanos.load(Relaxed),
                        max_nanos: p.max_nanos.load(Relaxed),
                    },
                };
                (name.clone(), value)
            })
            .collect();
        Some(Snapshot {
            seq,
            events,
            metrics: values,
        })
    }
}

/// A monotonically increasing count. Updates are relaxed atomics; the
/// disabled handle discards them.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A no-op counter (what the disabled registry hands out).
    pub fn disabled() -> Self {
        Self(None)
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Relaxed);
        }
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (0 on the disabled handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Relaxed))
    }
}

/// A last-write-wins value. Updates are relaxed atomics; the disabled
/// handle discards them.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// A no-op gauge (what the disabled registry hands out).
    pub fn disabled() -> Self {
        Self(None)
    }

    /// Sets the value.
    pub fn set(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.store(v, Relaxed);
        }
    }

    /// Current value (0 on the disabled handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |g| g.load(Relaxed))
    }
}

/// A power-of-two-bucketed distribution of `u64` samples.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistInner>>);

impl Histogram {
    /// A no-op histogram (what the disabled registry hands out).
    pub fn disabled() -> Self {
        Self(None)
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.record(v);
        }
    }

    /// Number of samples recorded (0 on the disabled handle).
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.count.load(Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_noops() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        let c = t.counter("c");
        c.add(5);
        assert_eq!(c.get(), 0);
        t.gauge("g").set(7);
        assert_eq!(t.gauge("g").get(), 0);
        assert!(t.snapshot(0, 0).is_none());
        t.set_phase("p", 1, 2, 3);
        assert!(t.snapshot(0, 0).is_none());
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn counters_and_gauges_round_trip_through_clones() {
        let t = Telemetry::registry();
        let c = t.counter("hits");
        c.add(2);
        c.incr();
        // A second handle to the same name shares storage.
        assert_eq!(t.counter("hits").get(), 3);
        let t2 = t.clone();
        t2.gauge("depth").set(9);
        assert_eq!(t.gauge("depth").get(), 9);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn histogram_buckets_by_power_of_two() {
        let t = Telemetry::registry();
        let h = t.histogram("sizes");
        for v in [0, 1, 2, 3, 4, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        let snap = t.snapshot(1, 6).unwrap();
        match &snap.metrics["sizes"] {
            MetricValue::Histogram {
                count,
                sum,
                max,
                buckets,
            } => {
                assert_eq!(*count, 6);
                assert_eq!(*sum, 1034);
                assert_eq!(*max, 1024);
                // 0 → bucket 0; 1 → bucket 1; 2,3 → bucket 2; 4 → bucket 3;
                // 1024 → bucket 11; trailing zero buckets are trimmed.
                assert_eq!(buckets.len(), 12);
                assert_eq!(buckets[0], 1);
                assert_eq!(buckets[2], 2);
                assert_eq!(buckets[11], 1);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[cfg(feature = "enabled")]
    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let t = Telemetry::registry();
        t.counter("x");
        t.gauge("x");
    }

    #[cfg(feature = "enabled")]
    #[test]
    #[should_panic(expected = "already registered")]
    fn phase_over_a_gauge_panics() {
        let t = Telemetry::registry();
        t.set_gauge("x", 1);
        t.set_phase("x", 1, 0, 0);
    }
}
