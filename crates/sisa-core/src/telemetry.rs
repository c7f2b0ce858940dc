//! End-to-end telemetry: span collection and Chrome-trace timelines.
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
//!
//! The simulator defines no service metrics: `sisa-service` owns its
//! metrics format and reads each series off the record that keeps it.
//!
//! Events carry the *simulated* clock of the issue pipeline (cycle `start`
//! and `finish`), so a rendered timeline reproduces the makespan exactly:
//! `ChromeTraceCollector::recorded_makespan()` equals
//! `ExecStats::makespan_cycles` for the captured engine.

use crate::pipeline::LaneKind;
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
