//! End-to-end telemetry: span collection, Chrome-trace timelines and a
//! metrics registry.
//!
//! The paper's attribution story — *where* do cycles, stalls and inter-cube
//! transfers go — needs a live window into the pipeline, not just the
//! aggregate [`ExecStats`](crate::ExecStats) left behind after a run. This
//! module provides that window as a strictly observer-only layer:
//!
//! * [`Collector`] — the trait every sink implements. The default method
//!   bodies are no-ops, so [`NoopCollector`] is literally free, and a run
//!   with *any* collector attached must leave every result and every
//!   `ExecStats` field bit-exact (pinned by proptest in
//!   `tests/telemetry_properties.rs`).
//! * [`SharedCollector`] — the cloneable `Arc<Mutex<_>>` handle the runtime
//!   and the sharded engine carry; it is what
//!   [`SisaRuntime::attach_collector`](crate::SisaRuntime::attach_collector)
//!   and `ShardedEngine::attach_collector` accept.
//! * [`ChromeTraceCollector`] — records every event and renders the Chrome
//!   trace-event JSON that Perfetto (<https://ui.perfetto.dev>) loads
//!   directly: one track per vault lane, one per shard link, plus a counter
//!   track for issue-queue depth.
//! * [`MetricsRegistry`] — counters, gauges and fixed-bucket histograms with
//!   nearest-rank p50/p95/p99, a serialisable [`MetricsSnapshot`] and a
//!   Prometheus-style text rendering.
//!
//! Events carry the *simulated* clock of the issue pipeline (cycle `start`
//! and `finish`), so a rendered timeline reproduces the makespan exactly:
//! `ChromeTraceCollector::recorded_makespan()` equals
//! `ExecStats::makespan_cycles` for the captured engine.

use crate::pipeline::LaneKind;
use serde::{Deserialize, Serialize};
use sisa_isa::SisaOpcode;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// One instruction (or lane work item) as the issue pipeline timed it.
///
/// `start`/`finish` are simulated cycles on the engine's pipeline clock;
/// `finish - start` includes the dependence stall (`dep_stall`) the
/// scoreboard charged before the operation occupied its lane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InstructionEvent {
    /// The track group (shard index for sharded engines, 0 for a flat
    /// runtime) this event belongs to.
    pub group: u32,
    /// The SISA opcode, when the work item was a decoded instruction;
    /// `None` for host-loop charges and absorbed lane work.
    pub opcode: Option<SisaOpcode>,
    /// Which resource class executed the item.
    pub kind: LaneKind,
    /// The vault lane index the item occupied (`None` on the host path).
    pub lane: Option<usize>,
    /// Simulated cycle the item issued (after any dependence stall).
    pub start: u64,
    /// Simulated cycle the item retired.
    pub finish: u64,
    /// Occupancy cycles charged for the item itself.
    pub cycles: u64,
    /// True-dependence stall cycles charged before issue.
    pub dep_stall: u64,
    /// Items in flight in the issue window, sampled just after this issue.
    pub in_flight: usize,
}

/// One inter-shard link transfer, as priced by the link model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransferEvent {
    /// The track group of the engine that owns the link ledger.
    pub group: u32,
    /// Source shard.
    pub src: usize,
    /// Destination shard.
    pub dst: usize,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Link cycles charged for the transfer.
    pub cycles: u64,
}

/// A telemetry sink. All methods default to no-ops, so implementations opt
/// into exactly the events they care about and an attached collector can
/// never change results, work counters or energy — it only observes.
pub trait Collector {
    /// Called once per timed instruction or lane work item.
    fn instruction(&mut self, _event: &InstructionEvent) {}
    /// Called once per inter-shard link transfer.
    fn transfer(&mut self, _event: &TransferEvent) {}
}

/// The do-nothing sink: attaching it is observationally identical to
/// attaching nothing at all (pinned by proptest).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopCollector;

impl Collector for NoopCollector {}

/// A cheaply cloneable, thread-safe handle to one shared [`Collector`].
///
/// Engines hold one of these (the sharded engine clones it into every
/// shard, a service into every worker's engine), so events from engines on
/// different threads interleave safely under the mutex; every event carries
/// its own `group` and simulated timestamps, which makes the rendered
/// timeline independent of arrival order.
#[derive(Clone)]
pub struct SharedCollector(Arc<Mutex<dyn Collector + Send>>);

impl SharedCollector {
    /// Wraps a collector in a fresh shared handle.
    pub fn new(collector: impl Collector + Send + 'static) -> Self {
        SharedCollector(Arc::new(Mutex::new(collector)))
    }

    /// Wraps an existing `Arc<Mutex<_>>` so the caller keeps a typed handle
    /// to read the collector back after the run:
    ///
    /// ```
    /// use sisa_core::telemetry::{ChromeTraceCollector, SharedCollector};
    /// use std::sync::{Arc, Mutex};
    ///
    /// let trace = Arc::new(Mutex::new(ChromeTraceCollector::new()));
    /// let handle = SharedCollector::from_arc(trace.clone());
    /// // ... attach `handle`, run the workload ...
    /// let json = trace.lock().unwrap().render();
    /// assert!(json.contains("traceEvents"));
    /// ```
    #[must_use]
    pub fn from_arc(collector: Arc<Mutex<dyn Collector + Send>>) -> Self {
        SharedCollector(collector)
    }

    /// Forwards one instruction event to the shared sink.
    pub fn instruction(&self, event: &InstructionEvent) {
        self.0.lock().expect("collector lock").instruction(event);
    }

    /// Forwards one transfer event to the shared sink.
    pub fn transfer(&self, event: &TransferEvent) {
        self.0.lock().expect("collector lock").transfer(event);
    }
}

impl fmt::Debug for SharedCollector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SharedCollector(..)")
    }
}

/// Records every event and renders the Chrome trace-event JSON that
/// Perfetto and `chrome://tracing` load directly.
///
/// Track layout (one *process* per `group`, one *thread* per track):
///
/// * tid 0 — the host lane; tids 1..=L — the vault lanes. Instruction
///   events are `"X"` complete events positioned on the simulated clock.
/// * tids 1000+ — one per `(src, dst)` shard link, carrying transfer
///   occupancy back-to-back (link transfers are priced, not scheduled, so
///   their track shows cumulative busy time rather than wall position).
/// * a `"C"` counter track `queue depth` sampled at each issue.
#[derive(Clone, Debug, Default)]
pub struct ChromeTraceCollector {
    instructions: Vec<InstructionEvent>,
    transfers: Vec<TransferEvent>,
}

impl ChromeTraceCollector {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        ChromeTraceCollector::default()
    }

    /// Every recorded instruction event, in arrival order.
    #[must_use]
    pub fn instruction_events(&self) -> &[InstructionEvent] {
        &self.instructions
    }

    /// Every recorded transfer event, in arrival order.
    #[must_use]
    pub fn transfer_events(&self) -> &[TransferEvent] {
        &self.transfers
    }

    /// The maximum retire cycle over every recorded instruction event — by
    /// construction equal to the captured engine's
    /// `ExecStats::makespan_cycles`.
    #[must_use]
    pub fn recorded_makespan(&self) -> u64 {
        self.instructions
            .iter()
            .map(|e| e.finish)
            .max()
            .unwrap_or(0)
    }

    /// The maximum retire cycle recorded for one track group.
    #[must_use]
    pub fn recorded_makespan_for(&self, group: u32) -> u64 {
        self.instructions
            .iter()
            .filter(|e| e.group == group)
            .map(|e| e.finish)
            .max()
            .unwrap_or(0)
    }

    /// Renders the trace as Chrome trace-event JSON (the object form:
    /// `{"traceEvents": [...]}`), loadable in Perfetto unmodified. Durations
    /// are reported in microseconds-as-simulated-cycles (1 cycle = 1 µs on
    /// the viewer's axis).
    #[must_use]
    pub fn render(&self) -> String {
        let mut events: Vec<String> = Vec::new();
        let mut named_threads: BTreeMap<(u32, u64), String> = BTreeMap::new();
        let mut link_tids: BTreeMap<(u32, usize, usize), u64> = BTreeMap::new();
        let mut link_busy: BTreeMap<(u32, usize, usize), u64> = BTreeMap::new();

        for ev in &self.instructions {
            let tid = match (ev.kind, ev.lane) {
                (LaneKind::Host, _) | (_, None) => 0,
                (LaneKind::Vault, Some(lane)) => lane as u64 + 1,
            };
            let thread_name = if tid == 0 {
                "host".to_string()
            } else {
                format!("lane {}", tid - 1)
            };
            named_threads.entry((ev.group, tid)).or_insert(thread_name);
            let name = match ev.opcode {
                Some(op) => op.mnemonic().to_string(),
                None if ev.kind == LaneKind::Host => "host-ops".to_string(),
                None => "lane-work".to_string(),
            };
            events.push(format!(
                "{{\"name\":{},\"ph\":\"X\",\"pid\":{},\"tid\":{tid},\"ts\":{},\"dur\":{},\"args\":{{\"cycles\":{},\"dep_stall\":{}}}}}",
                json_string(&name),
                ev.group,
                ev.start,
                ev.finish.saturating_sub(ev.start).max(1),
                ev.cycles,
                ev.dep_stall,
            ));
            events.push(format!(
                "{{\"name\":\"queue depth\",\"ph\":\"C\",\"pid\":{},\"tid\":0,\"ts\":{},\"args\":{{\"in_flight\":{}}}}}",
                ev.group, ev.start, ev.in_flight
            ));
        }

        for ev in &self.transfers {
            let key = (ev.group, ev.src, ev.dst);
            let next_tid = 1000 + link_tids.len() as u64;
            let tid = *link_tids.entry(key).or_insert(next_tid);
            named_threads
                .entry((ev.group, tid))
                .or_insert_with(|| format!("link {}->{}", ev.src, ev.dst));
            let at = link_busy.entry(key).or_insert(0);
            events.push(format!(
                "{{\"name\":\"transfer\",\"ph\":\"X\",\"pid\":{},\"tid\":{tid},\"ts\":{},\"dur\":{},\"args\":{{\"bytes\":{},\"src\":{},\"dst\":{}}}}}",
                ev.group,
                *at,
                ev.cycles.max(1),
                ev.bytes,
                ev.src,
                ev.dst,
            ));
            *at += ev.cycles.max(1);
        }

        let mut meta: Vec<String> = Vec::new();
        let mut named_pids: BTreeMap<u32, ()> = BTreeMap::new();
        for ((pid, tid), name) in &named_threads {
            if named_pids.insert(*pid, ()).is_none() {
                meta.push(format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":{}}}}}",
                    json_string(&format!("track {pid}"))
                ));
            }
            meta.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
                json_string(name)
            ));
        }

        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for chunk in meta.iter().chain(events.iter()) {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(chunk);
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

impl Collector for ChromeTraceCollector {
    fn instruction(&mut self, event: &InstructionEvent) {
        self.instructions.push(*event);
    }

    fn transfer(&mut self, event: &TransferEvent) {
        self.transfers.push(*event);
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A fixed-bucket histogram: power-of-two upper bounds plus an overflow
/// bucket, with nearest-rank percentiles over the bucket counts (rank
/// `ceil(p/100 · n)`; a bucketed observation reports its bucket's upper
/// bound).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// A histogram over the given ascending upper bounds (an overflow
    /// bucket is appended automatically).
    ///
    /// # Panics
    ///
    /// Panics when `bounds` is empty or not strictly ascending.
    #[must_use]
    pub(crate) fn with_bounds(bounds: Vec<u64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let buckets = bounds.len() + 1;
        Histogram {
            bounds,
            counts: vec![0; buckets],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The default latency histogram: power-of-four bounds from 1 µs to
    /// ~4.6 min in nanoseconds.
    #[must_use]
    pub(crate) fn latency_ns() -> Self {
        Histogram::with_bounds((5..=19).map(|i| 1u64 << (2 * i)).collect())
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// The nearest-rank percentile (`pct` in 0..=100): the upper bound of
    /// the bucket holding the rank-`ceil(pct/100 · n)` observation, with the
    /// overflow bucket reporting the exact recorded maximum. Returns 0 with
    /// no observations.
    #[must_use]
    pub fn percentile(&self, pct: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (pct * self.count).div_ceil(100).max(1);
        let mut seen = 0;
        for (idx, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if idx < self.bounds.len() {
                    self.bounds[idx]
                } else {
                    self.max
                };
            }
        }
        self.max
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            p50: self.percentile(50),
            p95: self.percentile(95),
            p99: self.percentile(99),
            buckets: self
                .bounds
                .iter()
                .copied()
                .chain(std::iter::once(u64::MAX))
                .zip(self.counts.iter().copied())
                .map(|(le, count)| BucketCount { le, count })
                .collect(),
        }
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
    /// Smallest observation (0 when empty).
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

/// A point-in-time view of the whole registry: the JSON form of the
/// service's `metrics` wire frame.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-set gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
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

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

/// A thread-safe metrics registry: named counters, gauges and fixed-bucket
/// histograms, created lazily on first touch. The service's client handles,
/// dispatcher and worker pool write the series nothing else records here;
/// its metrics snapshot adds the ones it reads off the ledger, the admission
/// controller and the result cache.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the named monotonic counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut inner = self.inner.lock().expect("metrics lock");
        *inner.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Reads the named counter (0 if never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        let inner = self.inner.lock().expect("metrics lock");
        inner.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the named gauge.
    pub fn gauge_set(&self, name: &str, value: i64) {
        let mut inner = self.inner.lock().expect("metrics lock");
        inner.gauges.insert(name.to_string(), value);
    }

    /// Removes the named gauge entirely (it disappears from snapshots and
    /// the Prometheus exposition). Writers with per-entity labels — e.g. the
    /// service's `{tenant="..."}` gauges — call this when the entity's state
    /// is pruned, so label cardinality stays bounded by *active* entities
    /// instead of growing with every entity ever seen. Returns whether the
    /// gauge existed.
    pub fn gauge_remove(&self, name: &str) -> bool {
        let mut inner = self.inner.lock().expect("metrics lock");
        inner.gauges.remove(name).is_some()
    }

    /// Records one observation into the named latency histogram (created
    /// with `Histogram::latency_ns` bounds on first touch).
    pub fn observe(&self, name: &str, value: u64) {
        let mut inner = self.inner.lock().expect("metrics lock");
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(Histogram::latency_ns)
            .observe(value);
    }

    /// A consistent snapshot of every metric.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics lock");
        MetricsSnapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner
                .histograms
                .iter()
                .map(|(name, hist)| (name.clone(), hist.snapshot()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(group: u32, lane: Option<usize>, start: u64, finish: u64) -> InstructionEvent {
        InstructionEvent {
            group,
            opcode: Some(SisaOpcode::IntersectMerge),
            kind: if lane.is_some() {
                LaneKind::Vault
            } else {
                LaneKind::Host
            },
            lane,
            start,
            finish,
            cycles: finish - start,
            dep_stall: 0,
            in_flight: 1,
        }
    }

    #[test]
    fn chrome_trace_records_makespan_and_renders_tracks() {
        let mut trace = ChromeTraceCollector::new();
        trace.instruction(&event(0, Some(0), 0, 10));
        trace.instruction(&event(0, Some(1), 4, 25));
        trace.instruction(&event(1, None, 0, 7));
        trace.transfer(&TransferEvent {
            group: 0,
            src: 0,
            dst: 1,
            bytes: 64,
            cycles: 9,
        });
        assert_eq!(trace.recorded_makespan(), 25);
        assert_eq!(trace.recorded_makespan_for(1), 7);
        let json = trace.render();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"lane 1\""));
        assert!(json.contains("\"link 0->1\""));
        assert!(json.contains("\"queue depth\""));
        assert!(json.contains(&format!("\"{}\"", SisaOpcode::IntersectMerge.mnemonic())));
    }

    #[test]
    fn histogram_percentiles_use_nearest_rank() {
        let mut h = Histogram::with_bounds(vec![10, 100, 1000]);
        for v in [1, 2, 3, 50, 70, 200, 500, 900, 950, 5000] {
            h.observe(v);
        }
        assert_eq!(h.count, 10);
        // rank(p50) = 5 -> the 5th observation (70) sits in the (10, 100]
        // bucket, reported as its upper bound.
        assert_eq!(h.percentile(50), 100);
        // rank(p95) = 10 -> overflow bucket reports the exact max.
        assert_eq!(h.percentile(95), 5000);
        assert_eq!(h.percentile(99), 5000);
        let snap = h.snapshot();
        assert_eq!(snap.count, 10);
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 5000);
        assert_eq!(snap.buckets.iter().map(|b| b.count).sum::<u64>(), 10);
        assert_eq!(snap.buckets.last().unwrap().le, u64::MAX);
    }

    #[test]
    fn registry_snapshot_round_trips_and_renders_prometheus() {
        let reg = MetricsRegistry::new();
        reg.counter_add("sisa_queries_completed_total", 3);
        reg.counter_add("sisa_queries_completed_total", 1);
        reg.gauge_set("sisa_admission_in_flight", 2);
        reg.gauge_set("sisa_admission_in_flight", 1);
        reg.observe("sisa_query_latency_ns", 1 << 11);
        reg.observe("sisa_query_latency_ns", 1 << 21);
        assert_eq!(reg.counter("sisa_queries_completed_total"), 4);

        let snap = reg.snapshot();
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
    fn removed_gauges_disappear_from_snapshots() {
        let reg = MetricsRegistry::new();
        reg.gauge_set("sisa_tenant_in_flight{tenant=\"gone\"}", 3);
        reg.gauge_set("sisa_tenant_in_flight{tenant=\"kept\"}", 1);
        assert!(reg.gauge_remove("sisa_tenant_in_flight{tenant=\"gone\"}"));
        assert!(
            !reg.gauge_remove("sisa_tenant_in_flight{tenant=\"gone\"}"),
            "second removal reports absence"
        );
        let snap = reg.snapshot();
        assert!(!snap
            .gauges
            .contains_key("sisa_tenant_in_flight{tenant=\"gone\"}"));
        assert_eq!(snap.gauges["sisa_tenant_in_flight{tenant=\"kept\"}"], 1);
        assert!(!snap.to_prometheus().contains("gone"));
    }

    #[test]
    fn labelled_names_share_one_type_header() {
        let reg = MetricsRegistry::new();
        reg.gauge_set("sisa_tenant_in_flight{tenant=\"a\"}", 1);
        reg.gauge_set("sisa_tenant_in_flight{tenant=\"b\"}", 2);
        let text = reg.snapshot().to_prometheus();
        assert_eq!(
            text.matches("# TYPE sisa_tenant_in_flight gauge").count(),
            1
        );
        assert!(text.contains("sisa_tenant_in_flight{tenant=\"a\"} 1\n"));
    }

    #[test]
    fn shared_collector_fans_into_one_sink() {
        let trace = Arc::new(Mutex::new(ChromeTraceCollector::new()));
        let handle = SharedCollector::from_arc(trace.clone());
        let clone = handle.clone();
        handle.instruction(&event(0, Some(0), 0, 4));
        clone.instruction(&event(0, Some(1), 2, 9));
        assert_eq!(trace.lock().unwrap().instruction_events().len(), 2);
        assert_eq!(trace.lock().unwrap().recorded_makespan(), 9);
    }
}
