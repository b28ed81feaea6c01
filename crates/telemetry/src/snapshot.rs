//! Point-in-time metric snapshots.

use serde::value::{Map, Number, Value};
use std::collections::BTreeMap;

/// A copy of one metric at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A monotonically increasing count.
    Counter(u64),
    /// A last-write-wins value.
    Gauge(u64),
    /// A phase summary (see [`crate::PhaseStat`]).
    Phase {
        /// Calls of the phase (exact).
        count: u64,
        /// Nanoseconds across all calls, estimated from the timed calls
        /// (exact for phases timed on every call).
        total_nanos: u64,
        /// Longest timed call, in nanoseconds.
        max_nanos: u64,
    },
}

impl MetricValue {
    /// The headline scalar for this metric: counter/gauge value or phase
    /// call count. What consumers that only want "the number" (bench bins,
    /// smoke checks) read.
    pub fn scalar(&self) -> u64 {
        match self {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => *v,
            MetricValue::Phase { count, .. } => *count,
        }
    }

    /// The kind's name, as the JSONL `type` field spells it.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Phase { .. } => "phase",
        }
    }

    fn to_json(&self) -> Value {
        let mut m = Map::new();
        let num = |v: u64| Value::Num(Number::from_u64(v));
        m.insert("type".into(), Value::Str(self.kind().into()));
        match self {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                m.insert("value".into(), num(*v));
            }
            MetricValue::Phase {
                count,
                total_nanos,
                max_nanos,
            } => {
                m.insert("count".into(), num(*count));
                m.insert("total_nanos".into(), num(*total_nanos));
                m.insert("max_nanos".into(), num(*max_nanos));
            }
        }
        Value::Object(m)
    }
}

/// A point-in-time copy of every registered metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Snapshot sequence number (0-based, per run).
    pub seq: u64,
    /// Events processed when the snapshot was taken.
    pub events: u64,
    /// Metric values, sorted by name.
    pub metrics: BTreeMap<String, MetricValue>,
}

impl Snapshot {
    /// Renders the snapshot as a JSON value:
    /// `{"seq":…,"events":…,"metrics":{name:{"type":…,…},…}}`.
    pub fn to_json(&self) -> Value {
        let mut metrics = Map::new();
        for (name, value) in &self.metrics {
            metrics.insert(name.clone(), value.to_json());
        }
        let mut root = Map::new();
        root.insert("seq".into(), Value::Num(Number::from_u64(self.seq)));
        root.insert("events".into(), Value::Num(Number::from_u64(self.events)));
        root.insert("metrics".into(), Value::Object(metrics));
        Value::Object(root)
    }

    /// Renders the snapshot as one compact JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(&self.to_json()).expect("snapshot serialization is infallible")
    }

    /// Convenience lookup of a metric's headline scalar by name.
    pub fn scalar(&self, name: &str) -> Option<u64> {
        self.metrics.get(name).map(MetricValue::scalar)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_round_trips() {
        let mut metrics = BTreeMap::new();
        metrics.insert("x.counter".to_owned(), MetricValue::Counter(3));
        metrics.insert("x.gauge".to_owned(), MetricValue::Gauge(7));
        metrics.insert(
            "x.phase".to_owned(),
            MetricValue::Phase {
                count: 2,
                total_nanos: 900,
                max_nanos: 600,
            },
        );
        let s = Snapshot {
            seq: 5,
            events: 5000,
            metrics,
        };
        let line = s.to_json_line();
        assert!(!line.contains('\n'));
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v["seq"].as_u64(), Some(5));
        assert_eq!(v["events"].as_u64(), Some(5000));
        assert_eq!(v["metrics"]["x.counter"]["value"].as_u64(), Some(3));
        assert_eq!(v["metrics"]["x.phase"]["type"], "phase");
        assert_eq!(s.scalar("x.gauge"), Some(7));
        assert_eq!(s.scalar("x.phase"), Some(2));
        assert_eq!(s.scalar("missing"), None);
    }
}
