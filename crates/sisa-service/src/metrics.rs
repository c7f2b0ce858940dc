//! The metrics wire format: the [`MetricsSnapshot`] a `metrics` request
//! returns and its Prometheus text rendering.
//!
//! Nothing here stores a series. [`SisaService::metrics_snapshot`] reads
//! each one off the record that owns it — the tenant ledger, the admission
//! controller, the result cache or the dispatcher (the crate docs list
//! which) — the way the paper's SMB caches the one metadata entry of a set
//! instead of keeping a copy (§6.2.3).
//!
//! [`SisaService::metrics_snapshot`]: crate::SisaService::metrics_snapshot

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The upper bounds of a latency histogram's buckets: powers of four from
/// 1 µs to ~4.6 min in nanoseconds. An overflow bucket follows the last.
const LATENCY_BOUNDS_NS: [u64; 15] = {
    let mut bounds = [0; 15];
    let mut i = 0;
    while i < bounds.len() {
        bounds[i] = 1 << (2 * (i + 5));
        i += 1;
    }
    bounds
};

/// A fixed-bucket latency histogram over [`LATENCY_BOUNDS_NS`] plus an
/// overflow bucket, with nearest-rank percentiles over the bucket counts
/// (rank `ceil(p/100 · n)`; a bucketed observation reports its bucket's
/// upper bound).
#[derive(Debug, Default)]
pub(crate) struct Histogram {
    counts: [u64; LATENCY_BOUNDS_NS.len() + 1],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Records one observation.
    pub(crate) fn observe(&mut self, value: u64) {
        let idx = LATENCY_BOUNDS_NS
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(LATENCY_BOUNDS_NS.len());
        self.counts[idx] += 1;
        self.min = if self.count == 0 {
            value
        } else {
            self.min.min(value)
        };
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// The nearest-rank percentile (`pct` in 0..=100): the upper bound of
    /// the bucket holding the rank-`ceil(pct/100 · n)` observation, with the
    /// overflow bucket reporting the exact recorded maximum. Returns 0 with
    /// no observations.
    fn percentile(&self, pct: u64) -> u64 {
        let rank = (pct * self.count).div_ceil(100).max(1);
        let mut seen = 0;
        for (idx, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return LATENCY_BOUNDS_NS.get(idx).copied().unwrap_or(self.max);
            }
        }
        self.max
    }

    /// Writes the histogram into `snapshot` under `name` once it has an
    /// observation.
    pub(crate) fn export(&self, snapshot: &mut MetricsSnapshot, name: &str) {
        if self.count == 0 {
            return;
        }
        let buckets = LATENCY_BOUNDS_NS
            .iter()
            .copied()
            .chain(std::iter::once(u64::MAX))
            .zip(self.counts)
            .map(|(le, count)| BucketCount { le, count })
            .collect();
        let hist = HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            p50: self.percentile(50),
            p95: self.percentile(95),
            p99: self.percentile(99),
            buckets,
        };
        snapshot.histograms.insert(name.to_string(), hist);
    }
}

/// One bucket of a [`HistogramSnapshot`]; `le == u64::MAX` marks the
/// overflow (`+Inf`) bucket.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BucketCount {
    /// Inclusive upper bound of the bucket.
    pub le: u64,
    /// Observations that fell into this bucket.
    pub count: u64,
}

/// A serialisable point-in-time view of one histogram.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values (saturating).
    pub sum: u64,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Nearest-rank 50th percentile (bucket upper bound).
    pub p50: u64,
    /// Nearest-rank 95th percentile (bucket upper bound).
    pub p95: u64,
    /// Nearest-rank 99th percentile (bucket upper bound).
    pub p99: u64,
    /// Per-bucket counts, ascending by bound.
    pub buckets: Vec<BucketCount>,
}

/// A point-in-time view of every service series: the JSON form of the
/// service's `metrics` wire frame.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Writes the counter `name` once it is non-zero.
    pub(crate) fn count(&mut self, name: &str, value: u64) {
        if value > 0 {
            self.counters.insert(name.to_string(), value);
        }
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    /// Names may embed a label set (`name{label="v"}`); the `# TYPE` header
    /// uses the bare name before the label block.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut typed: BTreeMap<String, ()> = BTreeMap::new();
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            let base = name.split('{').next().unwrap_or(name);
            if typed.insert(base.to_string(), ()).is_none() {
                out.push_str(&format!("# TYPE {base} {kind}\n"));
            }
        };
        for (name, value) in &self.counters {
            type_line(&mut out, name, "counter");
            out.push_str(&format!("{name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            type_line(&mut out, name, "gauge");
            out.push_str(&format!("{name} {value}\n"));
        }
        for (name, hist) in &self.histograms {
            type_line(&mut out, name, "histogram");
            let mut cumulative = 0;
            for bucket in &hist.buckets {
                cumulative += bucket.count;
                let le = if bucket.le == u64::MAX {
                    "+Inf".to_string()
                } else {
                    bucket.le.to_string()
                };
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{name}_sum {}\n", hist.sum));
            out.push_str(&format!("{name}_count {}\n", hist.count));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_use_nearest_rank() {
        let mut h = Histogram::default();
        for v in [1, 2, 3, 2_000, 3_000, 5_000, 9_000, 15_000, 16_000, 1 << 40] {
            h.observe(v);
        }
        // rank(p50) = 5 -> the 5th observation (3 000) sits in the
        // (1 024, 4 096] bucket, reported as its upper bound.
        assert_eq!(h.percentile(50), 4_096);
        // rank(p95) = 10 -> overflow bucket reports the exact max.
        assert_eq!(h.percentile(95), 1 << 40);
        assert_eq!(h.percentile(99), 1 << 40);
        let mut snap = MetricsSnapshot::default();
        h.export(&mut snap, "h");
        let hist = &snap.histograms["h"];
        assert_eq!((hist.count, hist.min, hist.max), (10, 1, 1 << 40));
        assert_eq!(hist.buckets.iter().map(|b| b.count).sum::<u64>(), 10);
        assert_eq!(hist.buckets.last().unwrap().le, u64::MAX);

        let mut empty = MetricsSnapshot::default();
        Histogram::default().export(&mut empty, "h");
        assert!(empty.histograms.is_empty(), "no observation, no histogram");
    }

    #[test]
    fn snapshot_round_trips_and_renders_prometheus() {
        let mut snap = MetricsSnapshot::default();
        snap.count("sisa_queries_completed_total", 4);
        snap.count("sisa_queries_failed_total", 0);
        snap.gauges
            .insert("sisa_admission_in_flight".to_string(), 1);
        let mut latency = Histogram::default();
        latency.observe(1 << 11);
        latency.observe(1 << 21);
        latency.export(&mut snap, "sisa_query_latency_ns");
        assert!(!snap.counters.contains_key("sisa_queries_failed_total"));

        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);

        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE sisa_queries_completed_total counter"));
        assert!(text.contains("sisa_queries_completed_total 4\n"));
        assert!(text.contains("sisa_admission_in_flight 1\n"));
        assert!(text.contains("# TYPE sisa_query_latency_ns histogram"));
        assert!(text.contains("sisa_query_latency_ns_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("sisa_query_latency_ns_count 2\n"));
    }

    #[test]
    fn labelled_names_share_one_type_header() {
        let mut snap = MetricsSnapshot::default();
        for (tenant, depth) in [("a", 1), ("b", 2)] {
            let name = format!("sisa_wfq_queue_depth{{tenant=\"{tenant}\"}}");
            snap.gauges.insert(name, depth);
        }
        let text = snap.to_prometheus();
        assert_eq!(text.matches("# TYPE sisa_wfq_queue_depth gauge").count(), 1);
        assert!(text.contains("sisa_wfq_queue_depth{tenant=\"a\"} 1\n"));
    }
}
