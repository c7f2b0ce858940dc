//! The load generator of the serving workloads: one TCP connection, two
//! threads. The calling thread writes request lines on a schedule (open
//! loop) or as replies free a slot (closed loop); a reader thread stamps
//! every terminal frame as it arrives. Neither shares the other's records
//! while a phase runs, so the generator adds no locks to the measurement.
//! A caller that waits for each reply before it sends again (sequential)
//! needs no second thread: it writes and reads in turn.

use crate::schedule::{Op, OpClass};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

/// How long the reader waits for a frame before it gives the phase up;
/// whatever has not arrived by then is counted as failed.
const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// Threads and connections the generator uses; it refuses to run on a
/// machine with fewer hardware threads.
pub const GENERATOR_THREADS: usize = 2;

/// Requests an open loop leaves unanswered before it holds the next one
/// back. The service refuses a tenant's 17th request in flight; when the
/// machine stalls the service for tens of milliseconds an unbounded sender
/// runs eight tenants into that limit. A request held back is sent late, and
/// its latency still counts from its due time.
pub const OPEN_WINDOW: usize = 96;

/// How a phase decides when to send.
#[derive(Clone, Copy, Debug)]
pub enum Pace {
    /// Send request `i` at `i / rate` seconds, whatever the replies do, short
    /// of [`OPEN_WINDOW`] unanswered ones.
    Open {
        /// Requests per second.
        rate: f64,
    },
    /// Keep this many requests outstanding until the time is up or the
    /// schedule is exhausted.
    Closed {
        /// Requests in flight.
        outstanding: usize,
        /// When to stop sending.
        run_for: Duration,
    },
    /// One request at a time, the next as soon as the reply is read, on the
    /// calling thread alone, until the time is up or the schedule is
    /// exhausted.
    Sequential {
        /// When to stop sending.
        run_for: Duration,
    },
}

/// What the writer knows about one request.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sent {
    /// When the schedule wanted it sent (equals `sent_ns` unless the loop is
    /// open).
    pub due_ns: u64,
    /// When the write began.
    pub sent_ns: u64,
    /// Mutations already acknowledged when it was sent.
    pub acked_mutations: u32,
}

/// The terminal frame kinds of the wire protocol.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FrameKind {
    /// No terminal frame arrived.
    #[default]
    Missing,
    /// `result`.
    Result,
    /// `rejected`.
    Rejected,
    /// `error`.
    Error,
}

/// What the reader learned about one request.
#[derive(Clone, Copy, Debug, Default)]
pub struct Reply {
    /// When the terminal frame had been read.
    pub recv_ns: u64,
    /// Which terminal frame.
    pub kind: FrameKind,
    /// The mined count.
    pub value: u64,
    /// Whether the budget truncated the search.
    pub truncated: bool,
    /// Whether the result cache answered.
    pub cache_hit: bool,
    /// The frame's span fields (parsed only on a traced phase).
    pub queue_ns: u64,
    /// See `queue_ns`.
    pub execute_ns: u64,
    /// See `queue_ns`.
    pub span_ns: u64,
}

/// The records of one phase; `sent[i]` and `replies[i]` belong to `ops[i]`.
#[derive(Debug, Default)]
pub struct Phase {
    /// Writer-side records, one per request actually sent.
    pub sent: Vec<Sent>,
    /// Reader-side records, as many as `sent`.
    pub replies: Vec<Reply>,
}

impl Phase {
    /// Latency of request `i` in milliseconds, from its due time.
    #[must_use]
    pub fn latency_ms(&self, i: usize) -> f64 {
        self.replies[i].recv_ns.saturating_sub(self.sent[i].due_ns) as f64 / 1e6
    }

    /// How late the writer sent each request, microseconds.
    #[must_use]
    pub fn lag_us(&self) -> Vec<f64> {
        self.sent
            .iter()
            .map(|s| s.sent_ns.saturating_sub(s.due_ns) as f64 / 1e3)
            .collect()
    }

    /// Completions per second in each `slice` of the phase, by arrival time,
    /// leaving out the partial slice at the end.
    #[must_use]
    pub fn slice_rates(&self, slice: Duration) -> Vec<f64> {
        let Some(first) = self.sent.first().map(|s| s.sent_ns) else {
            return Vec::new();
        };
        let width = slice.as_nanos() as u64;
        let mut counts: Vec<u64> = Vec::new();
        for r in self.replies.iter().filter(|r| r.kind != FrameKind::Missing) {
            let slot = (r.recv_ns.saturating_sub(first) / width) as usize;
            if slot >= counts.len() {
                counts.resize(slot + 1, 0);
            }
            counts[slot] += 1;
        }
        counts.pop();
        counts
            .into_iter()
            .map(|c| c as f64 / slice.as_secs_f64())
            .collect()
    }
}

/// One client connection.
pub struct Connection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Ids for the sentinel requests that end a phase; far above any
    /// scheduled id.
    next_sentinel: u64,
}

impl Connection {
    /// Connects to the service's TCP front-end.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of connecting or configuring the socket.
    pub fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let read_half = writer.try_clone()?;
        read_half.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Connection {
            writer,
            reader: BufReader::new(read_half),
            next_sentinel: 1 << 60,
        })
    }

    /// Sends one request and waits for its terminal frame. Returns the
    /// reply and the round-trip time.
    pub fn call(&mut self, line: &str, base: Instant) -> (Reply, Duration) {
        self.call_with(line, base, true)
    }

    fn call_with(&mut self, line: &str, base: Instant, spans: bool) -> (Reply, Duration) {
        let started = Instant::now();
        let mut reply = Reply::default();
        if self.writer.write_all(line.as_bytes()).is_err() {
            return (reply, started.elapsed());
        }
        let mut buf = String::new();
        loop {
            buf.clear();
            match self.reader.read_line(&mut buf) {
                Ok(n) if n > 0 => {}
                _ => break,
            }
            if let Some(kind) = terminal_kind(&buf) {
                reply = parse_reply(&buf, kind, spans, base);
                break;
            }
        }
        (reply, started.elapsed())
    }

    fn run_sequential(
        &mut self,
        ops: &[Op],
        run_for: Duration,
        base: Instant,
        spans: bool,
        acked: &AtomicU32,
    ) -> Phase {
        let mut phase = Phase::default();
        let start_ns = now_ns(base);
        for op in ops {
            let sent_ns = now_ns(base);
            if sent_ns - start_ns >= run_for.as_nanos() as u64 {
                break;
            }
            phase.sent.push(Sent {
                due_ns: sent_ns,
                sent_ns,
                acked_mutations: acked.load(Ordering::SeqCst),
            });
            let (reply, _) = self.call_with(&op.line, base, spans);
            phase.replies.push(reply);
            match reply.kind {
                // The connection is gone, or nothing came for READ_TIMEOUT.
                FrameKind::Missing => break,
                FrameKind::Result if matches!(op.class, OpClass::Mutate { .. }) => {
                    acked.fetch_add(1, Ordering::SeqCst);
                }
                _ => {}
            }
        }
        phase
    }

    /// Runs one phase over `ops` (ids `first_id..`), stamping times against
    /// `base`. `spans` makes the reader parse the frames' span fields too.
    /// `acked` counts acknowledged mutations across phases.
    pub fn run_phase(
        &mut self,
        ops: &[Op],
        first_id: u64,
        pace: Pace,
        base: Instant,
        spans: bool,
        acked: &AtomicU32,
    ) -> Phase {
        if let Pace::Sequential { run_for } = pace {
            return self.run_sequential(ops, run_for, base, spans, acked);
        }
        let sentinel = self.next_sentinel;
        self.next_sentinel += 1;
        let total_sent = AtomicU64::new(u64::MAX);
        let (token_tx, token_rx) = channel::<()>();
        let (reader, writer) = (&mut self.reader, &mut self.writer);
        let (sent, replies) = std::thread::scope(|scope| {
            let total = &total_sent;
            let reading = scope.spawn(move || {
                read_replies(
                    reader, ops, first_id, sentinel, total, &token_tx, base, spans, acked,
                )
            });
            let sent = write_requests(writer, ops, pace, base, acked, &token_rx);
            // The sentinel is answered inline, so it can overtake replies
            // still in flight; the reader leaves once it has seen it *and*
            // every reply the writer is owed.
            total_sent.store(sent.len() as u64, Ordering::SeqCst);
            let _ = writer
                .write_all(format!("{{\"id\":{sentinel},\"query\":\"metrics\"}}\n").as_bytes());
            let replies = reading.join().expect("the reader thread does not panic");
            (sent, replies)
        });
        let mut replies = replies;
        replies.truncate(sent.len());
        Phase { sent, replies }
    }
}

fn now_ns(base: Instant) -> u64 {
    base.elapsed().as_nanos() as u64
}

/// Waits for `due` (nanoseconds after `base`): sleeps while it is more than
/// `spin_below` away, then spins, so the send is not late by a scheduler
/// quantum (or, after a long sleep, by the wake-up of an idle virtual CPU).
fn wait_until(base: Instant, due_ns: u64, spin_below: u64) {
    loop {
        let now = now_ns(base);
        if now >= due_ns {
            return;
        }
        let left = due_ns - now;
        if left > spin_below {
            std::thread::sleep(Duration::from_nanos(left - spin_below));
        } else {
            std::hint::spin_loop();
        }
    }
}

fn write_requests(
    writer: &mut TcpStream,
    ops: &[Op],
    pace: Pace,
    base: Instant,
    acked: &AtomicU32,
    tokens: &Receiver<()>,
) -> Vec<Sent> {
    let mut sent = Vec::with_capacity(ops.len());
    let start_ns = now_ns(base);
    let mut in_flight = 0usize;
    for (i, op) in ops.iter().enumerate() {
        let due_ns = match pace {
            Pace::Open { rate } => {
                let due = start_ns + (i as f64 * 1e9 / rate) as u64;
                // Spin for under a third of the interval, 2 ms at most: the
                // writer shares the machine with the service.
                wait_until(base, due, ((0.3e9 / rate) as u64).min(2_000_000));
                while tokens.try_recv().is_ok() {
                    in_flight -= 1;
                }
                if in_flight >= OPEN_WINDOW {
                    if tokens.recv().is_err() {
                        break;
                    }
                    in_flight -= 1;
                }
                due
            }
            Pace::Closed {
                outstanding,
                run_for,
            } => {
                if in_flight >= outstanding {
                    if tokens.recv().is_err() {
                        break;
                    }
                    in_flight -= 1;
                }
                let now = now_ns(base);
                if now - start_ns >= run_for.as_nanos() as u64 {
                    break;
                }
                now
            }
            Pace::Sequential { .. } => unreachable!("a sequential phase has no writer thread"),
        };
        let record = Sent {
            due_ns,
            sent_ns: now_ns(base),
            acked_mutations: acked.load(Ordering::SeqCst),
        };
        if writer.write_all(op.line.as_bytes()).is_err() {
            break;
        }
        sent.push(record);
        in_flight += 1;
    }
    sent
}

#[allow(clippy::too_many_arguments)]
fn read_replies(
    reader: &mut BufReader<TcpStream>,
    ops: &[Op],
    first_id: u64,
    sentinel: u64,
    total_sent: &AtomicU64,
    tokens: &Sender<()>,
    base: Instant,
    spans: bool,
    acked: &AtomicU32,
) -> Vec<Reply> {
    let mut replies = vec![Reply::default(); ops.len()];
    let mut received = 0u64;
    let mut sentinel_seen = false;
    let mut line = String::new();
    loop {
        if sentinel_seen && received >= total_sent.load(Ordering::SeqCst) {
            break;
        }
        line.clear();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => {}
            // Closed, or nothing for READ_TIMEOUT: what is missing stays
            // `Missing` and is counted as failed.
            _ => break,
        }
        let Some(id) = field_u64(&line, "id") else {
            continue;
        };
        if id == sentinel {
            sentinel_seen = true;
            continue;
        }
        let Some(kind) = terminal_kind(&line) else {
            continue;
        };
        let Some(slot) = id.checked_sub(first_id).map(|i| i as usize) else {
            continue;
        };
        if slot >= replies.len() || replies[slot].kind != FrameKind::Missing {
            continue;
        }
        replies[slot] = parse_reply(&line, kind, spans, base);
        if matches!(ops[slot].class, OpClass::Mutate { .. }) {
            acked.fetch_add(1, Ordering::SeqCst);
        }
        received += 1;
        let _ = tokens.send(());
    }
    replies
}

fn parse_reply(line: &str, kind: FrameKind, spans: bool, base: Instant) -> Reply {
    let mut reply = Reply {
        recv_ns: now_ns(base),
        kind,
        ..Reply::default()
    };
    if kind == FrameKind::Result {
        reply.value = field_u64(line, "value").unwrap_or(u64::MAX);
        reply.truncated = field(line, "truncated") == Some("true");
        reply.cache_hit = field(line, "cache_hit") == Some("true");
        if spans {
            reply.queue_ns = field_u64(line, "queue_ns").unwrap_or(0);
            reply.execute_ns = field_u64(line, "execute_ns").unwrap_or(0);
            reply.span_ns = field_u64(line, "span_ns").unwrap_or(0);
        }
    }
    reply
}

/// The terminal kind of a frame line, `None` for `progress` and `metrics`.
fn terminal_kind(line: &str) -> Option<FrameKind> {
    match field(line, "frame")? {
        "\"result\"" => Some(FrameKind::Result),
        "\"rejected\"" => Some(FrameKind::Rejected),
        "\"error\"" => Some(FrameKind::Error),
        _ => None,
    }
}

/// The raw text of top-level field `key` of a one-line JSON object: from
/// after `"key":` to the next `,` or `}`. Enough for the numbers, booleans
/// and short strings of a frame, and far cheaper than a full parse at tens
/// of thousands of frames a second. The first occurrence wins; frames put
/// `id` and `frame` ahead of any free text.
#[must_use]
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let mut at = 0;
    loop {
        let found = line[at..].find(key)? + at;
        let after = found + key.len();
        let quoted = found > 0
            && line.as_bytes()[found - 1] == b'"'
            && line.as_bytes().get(after) == Some(&b'"');
        let rest = line.get(after + 1..)?;
        if quoted && rest.starts_with(':') {
            let rest = rest[1..].trim_start();
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            return Some(rest[..end].trim_end());
        }
        at = after;
    }
}

/// Field `key` as an unsigned integer.
#[must_use]
pub fn field_u64(line: &str, key: &str) -> Option<u64> {
    field(line, key)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisa_service::{Frame, QueryOutcome, QueryStats};

    #[test]
    fn fields_of_a_real_result_frame() {
        let outcome = QueryOutcome {
            value: 45731,
            truncated: true,
            stats: QueryStats {
                cache_hit: true,
                ..QueryStats::default()
            }
            .with_spans(11, 22, 33),
        };
        let line = serde_json::to_string(&Frame::result(907, &outcome)).unwrap();
        assert_eq!(field_u64(&line, "id"), Some(907));
        assert_eq!(terminal_kind(&line), Some(FrameKind::Result));
        assert_eq!(field_u64(&line, "value"), Some(45731));
        assert_eq!(field(&line, "truncated"), Some("true"));
        assert_eq!(field(&line, "cache_hit"), Some("true"));
        assert_eq!(field_u64(&line, "queue_ns"), Some(11));
        assert_eq!(field_u64(&line, "execute_ns"), Some(22));
        assert_eq!(field_u64(&line, "span_ns"), Some(33));
        let progress = serde_json::to_string(&Frame::progress(1, 2, 3, 4)).unwrap();
        assert_eq!(terminal_kind(&progress), None);
        let error = serde_json::to_string(&Frame::error(5, "bad \"value\": 9")).unwrap();
        assert_eq!(terminal_kind(&error), Some(FrameKind::Error));
        assert_eq!(field_u64(&error, "id"), Some(5));
    }

    #[test]
    fn field_skips_keys_that_are_suffixes_or_values() {
        let line = r#"{"span_id": 7, "id": 12, "note":"id", "last":3}"#;
        assert_eq!(field_u64(line, "id"), Some(12));
        assert_eq!(field_u64(line, "last"), Some(3));
        assert_eq!(field(line, "absent"), None);
    }

    #[test]
    fn slice_rates_drop_the_partial_tail() {
        let mut phase = Phase::default();
        for i in 0..25u64 {
            phase.sent.push(Sent {
                due_ns: i * 100,
                sent_ns: i * 100,
                acked_mutations: 0,
            });
            phase.replies.push(Reply {
                recv_ns: i * 100 + 50,
                kind: FrameKind::Result,
                ..Reply::default()
            });
        }
        // 1000 ns slices hold 10 replies each; the third is partial.
        let rates = phase.slice_rates(Duration::from_nanos(1000));
        assert_eq!(rates.len(), 2);
        assert!((rates[0] - 1e7).abs() < 1.0, "{rates:?}");
    }
}
