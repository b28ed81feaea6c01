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
    /// A span-timer summary.
    Phase {
        /// Spans completed.
        count: u64,
        /// Total nanoseconds across completed spans.
        total_nanos: u64,
        /// Longest single span, in nanoseconds.
        max_nanos: u64,
    },
    /// A power-of-two-bucketed distribution.
    Histogram {
        /// Samples recorded.
        count: u64,
        /// Sum of all samples.
        sum: u64,
        /// Largest sample.
        max: u64,
        /// Bucket occupancy; bucket 0 holds zeros, bucket `i` holds values
        /// whose highest set bit is `i - 1`. Trailing empty buckets are
        /// trimmed.
        buckets: Vec<u64>,
    },
}

impl MetricValue {
    /// The headline scalar for this metric: counter/gauge value, phase span
    /// count, or histogram sample count. What consumers that only want "the
    /// number" (bench bins, smoke checks) read.
    pub fn scalar(&self) -> u64 {
        match self {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => *v,
            MetricValue::Phase { count, .. } | MetricValue::Histogram { count, .. } => *count,
        }
    }

    fn to_json(&self) -> Value {
        let mut m = Map::new();
        let num = |v: u64| Value::Num(Number::from_u64(v));
        match self {
            MetricValue::Counter(v) => {
                m.insert("type".into(), Value::Str("counter".into()));
                m.insert("value".into(), num(*v));
            }
            MetricValue::Gauge(v) => {
                m.insert("type".into(), Value::Str("gauge".into()));
                m.insert("value".into(), num(*v));
            }
            MetricValue::Phase {
                count,
                total_nanos,
                max_nanos,
            } => {
                m.insert("type".into(), Value::Str("phase".into()));
                m.insert("count".into(), num(*count));
                m.insert("total_nanos".into(), num(*total_nanos));
                m.insert("max_nanos".into(), num(*max_nanos));
            }
            MetricValue::Histogram {
                count,
                sum,
                max,
                buckets,
            } => {
                m.insert("type".into(), Value::Str("histogram".into()));
                m.insert("count".into(), num(*count));
                m.insert("sum".into(), num(*sum));
                m.insert("max".into(), num(*max));
                m.insert(
                    "buckets".into(),
                    Value::Array(buckets.iter().map(|&b| num(b)).collect()),
                );
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
        metrics.insert(
            "x.hist".to_owned(),
            MetricValue::Histogram {
                count: 1,
                sum: 4,
                max: 4,
                buckets: vec![0, 0, 0, 1],
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
        assert_eq!(
            v["metrics"]["x.hist"]["buckets"].as_array().unwrap().len(),
            4
        );
        assert_eq!(s.scalar("x.gauge"), Some(7));
        assert_eq!(s.scalar("x.phase"), Some(2));
        assert_eq!(s.scalar("missing"), None);
    }
}
