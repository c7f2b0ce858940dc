//! The TCP transport: line-delimited JSON over `std::net::TcpListener`.
//!
//! Each connection is served by its own thread and is *pipelined*: the
//! reader keeps accepting request lines while accepted queries drain on
//! scoped helper threads, so several queries submitted on one connection
//! execute concurrently. Every frame carries its request's `id` for
//! correlation, each frame is written atomically (one line under the shared
//! writer lock), and frames of different in-flight requests may interleave
//! on the wire in any order. Backpressure appears as `rejected` frames with
//! a `retry_after_ms` hint; malformed lines, including lines that are not
//! UTF-8, get `error` frames instead of a dropped connection;
//! `{"id": N, "query": "metrics"}` is answered inline with a `metrics`
//! snapshot frame without entering admission control. A line longer than
//! [`MAX_LINE_BYTES`] gets an `error` frame, and the connection closes once
//! its accepted queries have drained, so a line that never ends holds at
//! most that much memory.

use crate::protocol::{Frame, Request};
use crate::query::QueryEvent;
use crate::service::{QueryHandle, ServiceClient};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// The longest request line a connection reads, its `\n` included: 1 MiB,
/// which holds a `mutate` of 50 000 edge pairs.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// A running TCP front-end for a service.
pub struct TcpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl TcpServer {
    /// Binds `bind_addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting connections, serving queries through `client`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the address cannot be bound.
    pub fn serve(client: ServiceClient, bind_addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(bind_addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("sisa-service-accept".to_string())
                .spawn(move || accept_loop(&listener, &client, &stop))
                .expect("spawn accept thread")
        };
        Ok(TcpServer {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting new connections and joins the accept thread.
    /// Established connections keep draining on their own threads.
    pub fn stop(mut self) {
        self.stop_impl();
    }

    fn stop_impl(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(join) = self.accept.take() {
            let _ = join.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.stop_impl();
    }
}

fn accept_loop(listener: &TcpListener, client: &ServiceClient, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let client = client.clone();
                let _ = std::thread::Builder::new()
                    .name("sisa-service-conn".to_string())
                    .spawn(move || {
                        let _ = handle_connection(stream, &client);
                    });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
}

fn write_frame(stream: &mut TcpStream, frame: &Frame) -> std::io::Result<()> {
    let mut line = serde_json::to_string(frame)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e:?}")))?;
    line.push('\n');
    stream.write_all(line.as_bytes())?;
    stream.flush()
}

fn write_locked(writer: &Mutex<TcpStream>, frame: &Frame) -> std::io::Result<()> {
    let mut stream = writer.lock().expect("connection writer lock");
    write_frame(&mut stream, frame)
}

/// Sets up an accepted socket: blocking reads (the listener it came from
/// polls), and no Nagle delay — every frame is one complete `write`, and a
/// reply held back for the ACK of the one before it waits for the tenant's
/// *next* request on a pipelined connection.
fn configure_socket(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)
}

fn handle_connection(stream: TcpStream, client: &ServiceClient) -> std::io::Result<()> {
    configure_socket(&stream)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let writer = Arc::new(Mutex::new(stream));
    // The scope keeps reading new request lines while accepted queries drain
    // on their own threads; it joins every drain before the connection
    // closes, so no frame is ever lost to a disconnect race on our side.
    std::thread::scope(|scope| -> std::io::Result<()> {
        let mut buf = Vec::new();
        loop {
            buf.clear();
            let limit = MAX_LINE_BYTES as u64;
            if reader.by_ref().take(limit).read_until(b'\n', &mut buf)? == 0 {
                return Ok(());
            }
            if buf.len() == MAX_LINE_BYTES && !buf.ends_with(b"\n") {
                let error = format!("request line longer than {MAX_LINE_BYTES} bytes");
                return write_locked(&writer, &Frame::error(0, &error));
            }
            let line = buf.strip_suffix(b"\n").unwrap_or(&buf);
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            let Ok(line) = std::str::from_utf8(line) else {
                write_locked(&writer, &Frame::error(0, "request line is not UTF-8"))?;
                continue;
            };
            if line.trim().is_empty() {
                continue;
            }
            let request = match Request::parse(line) {
                Ok(request) => request,
                Err(error) => {
                    write_locked(&writer, &Frame::error(0, &error))?;
                    continue;
                }
            };
            if request.query == "metrics" {
                write_locked(
                    &writer,
                    &Frame::metrics(request.id, &client.metrics_snapshot()),
                )?;
                continue;
            }
            let spec = match request.spec() {
                Ok(spec) => spec,
                Err(error) => {
                    write_locked(&writer, &Frame::error(request.id, &error))?;
                    continue;
                }
            };
            match client.submit(&request.tenant, spec) {
                Err(rejection) => {
                    write_locked(&writer, &Frame::rejected(request.id, &rejection))?;
                }
                Ok(handle) => {
                    let writer = Arc::clone(&writer);
                    let id = request.id;
                    scope.spawn(move || drain_query(id, &handle, &writer));
                }
            }
        }
    })
}

/// Streams one accepted query's frames until its terminal frame (or until
/// the peer goes away — write errors just end the drain).
fn drain_query(id: u64, handle: &QueryHandle, writer: &Mutex<TcpStream>) {
    loop {
        let frame = match handle.next_event() {
            Some(QueryEvent::Progress {
                done_ops,
                total_ops,
                partial,
            }) => Frame::progress(id, done_ops, total_ops, partial),
            Some(QueryEvent::Done(outcome)) => Frame::result(id, &outcome),
            Some(QueryEvent::Failed(error)) => Frame::error(id, &error),
            None => Frame::error(id, "service shut down mid-query"),
        };
        let terminal = frame.is_terminal();
        if write_locked(writer, &frame).is_err() || terminal {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seen to fail with `set_nodelay(true)` dropped from `configure_socket`.
    #[test]
    fn accepted_sockets_send_without_nagle_delay() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let _peer = TcpStream::connect(listener.local_addr().expect("bound")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        assert!(
            !stream.nodelay().expect("readable option"),
            "off by default"
        );
        configure_socket(&stream).expect("configure");
        assert!(stream.nodelay().expect("readable option"));
    }
}
