//! In-memory spans recorded around the benchmark's own calls into each layer.
//!
//! A span is a name, a start, an end, the span that caused it and the id of
//! the job or query it belongs to. Spans stay in memory while a workload runs
//! and are written out once it ends. A layer's *self time* is its span's
//! duration minus the part of that interval its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// One recorded interval, in nanoseconds since the workload's time base.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`; the layer is the crate or module entered.
    pub name: &'static str,
    /// The job or query this span belongs to.
    pub trace_id: u64,
    /// Index of the causing span in the log, `None` for a root.
    pub parent: Option<usize>,
    /// Start of the interval.
    pub start_ns: u64,
    /// End of the interval.
    pub end_ns: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A bounded span store. Once `cap` spans are held further pushes are counted
/// as dropped instead of growing without limit; the count is written into
/// the trace file so a truncated trace says so.
#[derive(Debug)]
pub struct SpanLog {
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
}

impl SpanLog {
    /// An empty log that keeps at most `cap` spans.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        SpanLog {
            spans: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    /// Records a finished span, returning its index (for use as a parent),
    /// or `None` when the log is full.
    pub fn push(&mut self, span: Span) -> Option<usize> {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return None;
        }
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Sets the end of span `index` (a span pushed when it began, so that
    /// its children could name it as their parent).
    pub fn close(&mut self, index: usize, end_ns: u64) {
        self.spans[index].end_ns = end_ns;
    }

    /// The recorded spans, in push order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans refused because the log was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals, each clipped to the parent. Overlapping
    /// children are counted once.
    #[must_use]
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent];
                let start = span.start_ns.clamp(p.start_ns, p.end_ns);
                let end = span.end_ns.clamp(p.start_ns, p.end_ns);
                if end > start {
                    children[parent].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| span.duration() - covered(kids))
            .collect()
    }

    /// Total self time per span name.
    #[must_use]
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            *totals.entry(span.name).or_insert(0) += own;
        }
        totals
    }

    /// Writes the log as one JSON document: a header, then one object per
    /// span with its self time already worked out.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating or writing the file.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"dropped_spans\":{},\"spans\":[",
            self.dropped
        )?;
        let own = self.self_times();
        for (i, (span, own)) in self.spans.iter().zip(own).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"span\":{i},\"parent\":{parent},\"id\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\"self\":{own}}}{comma}",
                span.trace_id, span.name, span.start_ns, span.end_ns
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Length of the union of the intervals (sorted in place).
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            trace_id: 1,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::with_capacity(16);
        let job = log.push(span("job", None, 0, 100)).unwrap();
        let algo = log.push(span("algo", Some(job), 10, 90)).unwrap();
        log.push(span("engine", Some(algo), 20, 40)).unwrap();
        log.push(span("engine", Some(algo), 50, 80)).unwrap();
        assert_eq!(log.self_times(), vec![20, 30, 20, 30]);
        let by_name = log.self_time_by_name();
        assert_eq!(by_name["job"], 20);
        assert_eq!(by_name["algo"], 30);
        assert_eq!(by_name["engine"], 50);
        // Self times of a tree sum to the root's duration.
        assert_eq!(log.self_times().iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let mut log = SpanLog::with_capacity(16);
        let root = log.push(span("root", None, 100, 200)).unwrap();
        // Two children overlapping on [130, 150], one hanging past the end,
        // one entirely outside the parent.
        log.push(span("a", Some(root), 110, 150)).unwrap();
        log.push(span("b", Some(root), 130, 170)).unwrap();
        log.push(span("c", Some(root), 190, 250)).unwrap();
        log.push(span("d", Some(root), 300, 400)).unwrap();
        // Covered: [110,170] = 60 and [190,200] = 10.
        assert_eq!(log.self_times()[root], 100 - 70);
    }

    #[test]
    fn a_full_log_counts_drops() {
        let mut log = SpanLog::with_capacity(1);
        assert_eq!(log.push(span("a", None, 0, 1)), Some(0));
        assert_eq!(log.push(span("b", None, 1, 2)), None);
        assert_eq!(log.spans().len(), 1);
        assert_eq!(log.dropped(), 1);
    }
}
