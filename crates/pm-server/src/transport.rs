//! Transports: the same [`ServerCore`] served over stdin/stdout or TCP.
//!
//! Both speak the identical line protocol — one JSON [`Request`] per input
//! line, one or more JSON [`Response`] lines per request. Malformed lines
//! answer with an `Error` response and the connection keeps serving; blank
//! lines and `#`-prefixed comment lines are ignored (scripts interleave
//! them freely).
//!
//! Every transport, and the in-process [`serve`], runs a request through
//! one path: decode the line, call [`ServerCore::handle`], render all of
//! its response lines into one buffer, and hand that buffer to the output
//! in a single `write_all` followed by a flush, so clients can stream. Only
//! `handle` runs under the core lock; decoding, encoding and the socket
//! write happen outside it, so a connection blocked on a slow peer never
//! holds up another. Accepted TCP sockets also set `TCP_NODELAY`, so no
//! part of a reply waits for the peer's delayed ACK (~40 ms).
//!
//! The TCP transport is concurrent: every accepted connection gets its own
//! thread, all of them serializing `handle` calls through one shared
//! `Mutex<ServerCore>` (the core itself pumps sessions fairly, so one
//! client's long `run` cannot starve another session — only delay the
//! other client's next response). Connections read with a short timeout so
//! slow or silent clients hold no lock and every thread notices shutdown
//! promptly; repeated `accept` failures back off exponentially instead of
//! spinning. Both transports run the core's housekeeping (autosave,
//! idle-TTL eviction) on its configured cadence from a background tick
//! thread, and once more right before exiting, so a graceful shutdown
//! always leaves current checkpoint files behind.

use crate::protocol::{Request, Response};
use crate::server::ServerCore;
use crate::telemetry::{as_micros, ServerTelemetry};
use pm_telemetry::{error, info, trace, warn};
use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// The log target every transport-side line is tagged with.
const LOG: &str = "pm_server::transport";

/// How long a connection read blocks before re-checking the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(100);
/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(10);
/// Accept-error backoff bounds: doubles from the floor to the ceiling.
const BACKOFF_FLOOR: Duration = Duration::from_millis(20);
const BACKOFF_CEILING: Duration = Duration::from_secs(1);

/// Serves one connection: reads requests from `input` until EOF or a
/// `shutdown` verb, writing response lines to `output`. Returns `true` iff
/// the connection ended with `shutdown` (the caller should stop serving
/// entirely, not just this connection).
///
/// # Errors
///
/// Propagates I/O errors from the underlying reader or writer.
pub fn serve(
    core: &mut ServerCore,
    input: impl BufRead,
    mut output: impl Write,
) -> io::Result<bool> {
    let telemetry = core.telemetry();
    let mut reply = Reply::default();
    for line in input.lines() {
        let line = line?;
        let handle = |request, out: &mut Vec<Response>| core.handle(request, out);
        if handle_line_with(&telemetry, handle, &line, &mut reply, &mut output)? {
            return Ok(true);
        }
    }
    Ok(false)
}

/// One connection's reusable reply buffers: the responses to the request
/// being served and their rendered lines.
#[derive(Default)]
struct Reply {
    responses: Vec<Response>,
    text: String,
}

/// Parses and serves one request line, answering with all of its response
/// lines in one `write_all`. `handle` is the only step that needs the core
/// ([`ServerCore::handle`], behind the core lock on the concurrent
/// transports); decoding, encoding and writing run outside it. Returns
/// `true` iff the line was a `shutdown` verb. Blank and comment lines are
/// no-ops.
fn handle_line_with(
    telemetry: &ServerTelemetry,
    handle: impl FnOnce(Request, &mut Vec<Response>) -> bool,
    line: &str,
    reply: &mut Reply,
    output: &mut impl Write,
) -> io::Result<bool> {
    telemetry.bytes_read.add(line.len() as u64);
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(false);
    }
    reply.responses.clear();
    let shutdown = match serde_json::from_str::<Request>(line) {
        Ok(request) => handle(request, &mut reply.responses),
        Err(e) => {
            telemetry.malformed_requests.inc();
            reply.responses.push(Response::Error {
                message: format!("malformed request: {e}"),
            });
            false
        }
    };
    reply.text.clear();
    for response in &reply.responses {
        let json = serde_json::to_string(response)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        reply.text.push_str(&json);
        reply.text.push('\n');
    }
    telemetry.bytes_written.add(reply.text.len() as u64);
    let writing = Instant::now();
    output.write_all(reply.text.as_bytes())?;
    output.flush()?;
    telemetry.write_us.observe(as_micros(writing.elapsed()));
    Ok(shutdown)
}

/// The state every connection thread shares — protocol connections and the
/// HTTP observability listener alike.
pub(crate) struct Shared {
    core: Mutex<ServerCore>,
    /// The core's telemetry, reachable without the lock.
    telemetry: Arc<ServerTelemetry>,
    pub(crate) shutdown: AtomicBool,
}

impl Shared {
    pub(crate) fn new(core: ServerCore) -> Arc<Shared> {
        Arc::new(Shared {
            telemetry: core.telemetry(),
            core: Mutex::new(core),
            shutdown: AtomicBool::new(false),
        })
    }

    /// Locks the core, recording how long the caller waited for it.
    pub(crate) fn lock(&self) -> MutexGuard<'_, ServerCore> {
        let waiting = Instant::now();
        // A poisoned mutex means a handler panicked; the core's state is
        // still a valid set of sessions (handlers don't leave partial
        // state), so keep serving the remaining clients.
        let core = self
            .core
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        self.telemetry
            .core_lock_wait_us
            .observe(as_micros(waiting.elapsed()));
        core
    }

    /// Serves `request` on the core, holding the lock for the call alone.
    fn handle(&self, request: Request, out: &mut Vec<Response>) -> bool {
        self.lock().handle(request, out)
    }

    /// Runs one final housekeeping sweep so shutdown leaves current
    /// checkpoint files on disk.
    fn final_sweep(&self) {
        let mut core = self.lock();
        if core.wants_housekeeping() {
            core.housekeeping();
        }
    }

    /// Spawns the periodic housekeeping tick, if the core wants one.
    /// Returns the handle to join after the shutdown flag is raised.
    fn spawn_housekeeping(self: &Arc<Self>) -> Option<thread::JoinHandle<()>> {
        let interval = {
            let core = self.lock();
            core.wants_housekeeping().then(|| core.autosave_interval())
        }?;
        let shared = Arc::clone(self);
        Some(thread::spawn(move || {
            let mut due = Instant::now() + interval;
            while !shared.shutdown.load(Ordering::SeqCst) {
                thread::sleep(ACCEPT_POLL.min(interval));
                if Instant::now() >= due {
                    shared.lock().housekeeping();
                    due = Instant::now() + interval;
                }
            }
        }))
    }
}

/// Transport options beyond the protocol listener itself. The default
/// serves the protocol alone, exactly as before the options existed.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeOptions<'a> {
    /// Bind the HTTP observability listener (`/healthz`, `/metrics`,
    /// `/stats`, `/trace`) on this address alongside the transport.
    pub http: Option<&'a str>,
}

/// Serves the core over stdin/stdout until EOF or `shutdown`, running
/// housekeeping (autosave, eviction) on the core's cadence in the
/// background and once more before returning.
///
/// # Errors
///
/// Propagates I/O errors from the standard streams.
pub fn serve_stdio(core: ServerCore) -> io::Result<()> {
    serve_stdio_with(core, ServeOptions::default())
}

/// [`serve_stdio`] with transport options (the HTTP observability
/// listener).
///
/// # Errors
///
/// Propagates I/O errors from the standard streams, and bind errors from
/// the HTTP listener.
pub fn serve_stdio_with(core: ServerCore, options: ServeOptions<'_>) -> io::Result<()> {
    let shared = Shared::new(core);
    let telemetry = &shared.telemetry;
    let http = options
        .http
        .map(|addr| crate::http::spawn(Arc::clone(&shared), addr))
        .transpose()?;
    let housekeeper = shared.spawn_housekeeping();
    // The stdio pipe counts as one connection for its whole lifetime, so
    // the same dashboards cover both transports.
    telemetry.connections_total.inc();
    telemetry.active_connections.add(1);
    let conn_span = trace::span("transport", "connection");
    let stdin = io::stdin();
    let stdout = io::stdout();
    let mut output = stdout.lock();
    let mut reply = Reply::default();
    let mut result = Ok(());
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(line) => line,
            Err(e) => {
                result = Err(e);
                break;
            }
        };
        let handle = |request, out: &mut Vec<Response>| shared.handle(request, out);
        match handle_line_with(telemetry, handle, &line, &mut reply, &mut output) {
            Ok(false) => {}
            Ok(true) => break,
            Err(e) => {
                result = Err(e);
                break;
            }
        }
    }
    drop(conn_span);
    telemetry.active_connections.add(-1);
    shared.shutdown.store(true, Ordering::SeqCst);
    if let Some(housekeeper) = housekeeper {
        let _ = housekeeper.join();
    }
    if let Some(http) = http {
        let _ = http.join();
    }
    shared.final_sweep();
    result
}

/// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and serves
/// connections concurrently — one thread per connection over the shared
/// core — until one of them sends `shutdown`. Sessions persist across
/// connections: a client may submit, disconnect, and a later connection
/// resumes the same sessions. The bound address is announced on stderr as
/// an info-level log line containing `listening on ADDR` (tests scan for
/// that substring to learn the ephemeral port).
///
/// Per-connection I/O errors are logged to stderr with the peer address
/// and drop only that connection; `accept` errors back off exponentially.
/// On shutdown the listener stops accepting, every in-flight connection
/// thread drains and joins, and a final housekeeping sweep persists
/// whatever the autosave cadence had not yet written.
///
/// # Errors
///
/// Propagates bind errors and listener configuration failures.
pub fn serve_tcp(core: ServerCore, addr: &str) -> io::Result<SocketAddr> {
    serve_tcp_with(core, addr, ServeOptions::default())
}

/// [`serve_tcp`] with transport options (the HTTP observability listener).
/// The HTTP listener announces its own bound address the same way, as an
/// info log line containing `http listening on ADDR`.
///
/// # Errors
///
/// Propagates bind errors (protocol or HTTP) and listener configuration
/// failures.
pub fn serve_tcp_with(
    core: ServerCore,
    addr: &str,
    options: ServeOptions<'_>,
) -> io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    info!(LOG, "listening on {local}");

    let shared = Shared::new(core);
    let telemetry = &shared.telemetry;
    let http = options
        .http
        .map(|addr| crate::http::spawn(Arc::clone(&shared), addr))
        .transpose()?;
    let housekeeper = shared.spawn_housekeeping();
    let mut connections: Vec<thread::JoinHandle<()>> = Vec::new();
    let mut backoff = BACKOFF_FLOOR;
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, peer)) => {
                backoff = BACKOFF_FLOOR;
                let shared = Arc::clone(&shared);
                connections.push(thread::spawn(move || {
                    let telemetry = &shared.telemetry;
                    telemetry.connections_total.inc();
                    telemetry.active_connections.add(1);
                    let served = serve_connection(&shared, stream);
                    telemetry.active_connections.add(-1);
                    if let Err(e) = served {
                        // A dropped or misbehaving client is its own
                        // problem, not the server's: log and keep serving.
                        telemetry.connection_errors.inc();
                        warn!(LOG, "connection {peer}: {e}");
                    }
                }));
                connections.retain(|handle| !handle.is_finished());
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
            Err(e) => {
                telemetry.accept_errors.inc();
                error!(LOG, "accept error: {e} (backing off {backoff:?})");
                thread::sleep(backoff);
                backoff = (backoff * 2).min(BACKOFF_CEILING);
            }
        }
    }
    for handle in connections {
        let _ = handle.join();
    }
    if let Some(housekeeper) = housekeeper {
        let _ = housekeeper.join();
    }
    if let Some(http) = http {
        let _ = http.join();
    }
    shared.final_sweep();
    Ok(local)
}

/// Serves one TCP connection until EOF, error, or server shutdown. Reads
/// poll with a short timeout so a slow client never holds the core lock
/// and the thread notices shutdown raised elsewhere; a partial line
/// survives across polls until its newline arrives. Nagle is off: each
/// reply is one write, so there is nothing to coalesce and only the
/// delayed-ACK stall to lose.
fn serve_connection(shared: &Shared, stream: TcpStream) -> io::Result<()> {
    let _conn = trace::span("transport", "connection");
    stream.set_read_timeout(Some(READ_POLL))?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut line = String::new();
    let mut reply = Reply::default();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(()), // EOF: client hung up (possibly mid-line).
            Ok(_) => {
                let handle = |request, out: &mut Vec<Response>| shared.handle(request, out);
                let shutdown =
                    handle_line_with(&shared.telemetry, handle, &line, &mut reply, &mut writer)?;
                line.clear();
                if shutdown {
                    shared.shutdown.store(true, Ordering::SeqCst);
                    return Ok(());
                }
            }
            // Timeout (reported as either kind, platform-dependent): the
            // partial line stays buffered; go check the shutdown flag.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_scenarios::{GeneratorSpec, ScenarioSpec};

    #[test]
    fn malformed_and_comment_lines_keep_the_connection_serving() {
        let mut core = ServerCore::default();
        let script = "# a comment\n\nnot json\n\"Sessions\"\n";
        let mut out = Vec::new();
        let shutdown = serve(&mut core, script.as_bytes(), &mut out).unwrap();
        assert!(!shutdown);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("malformed request"));
        assert!(lines[1].contains("sessions"));
    }

    /// A `Write` that keeps every `write` call's bytes apart.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_multi_line_reply_is_one_write_of_the_per_line_rendering() {
        let submit = Request::Submit {
            spec: ScenarioSpec::new("s", GeneratorSpec::Hexagon { radius: 2 }),
        };
        let watch = Request::Watch {
            session: 1,
            rounds: 3,
        };
        // The reply as it used to be written: each response serialized and
        // newline-terminated on its own, computed on a twin core.
        let mut twin = ServerCore::default();
        let mut expected = Vec::new();
        for request in [submit.clone(), watch.clone()] {
            let mut responses = Vec::new();
            twin.handle(request, &mut responses);
            let mut text = String::new();
            for response in &responses {
                text.push_str(&serde_json::to_string(response).unwrap());
                text.push('\n');
            }
            expected.push(text.into_bytes());
        }

        let script = format!(
            "{}\n{}\n",
            serde_json::to_string(&submit).unwrap(),
            serde_json::to_string(&watch).unwrap()
        );
        let mut out = CountingWriter::default();
        serve(&mut ServerCore::default(), script.as_bytes(), &mut out).unwrap();
        assert_eq!(out.writes.len(), 2, "one write per request");
        let watch_lines = out.writes[1].iter().filter(|&&b| b == b'\n').count();
        assert_eq!(watch_lines, 4, "three Round lines and the final Status");
        assert_eq!(out.writes, expected);
    }

    #[test]
    fn lock_wait_and_write_time_are_recorded_per_request() {
        let shared = Shared::new(ServerCore::default());
        let mut reply = Reply::default();
        let mut out = Vec::new();
        for _ in 0..3 {
            let handle = |request, out: &mut Vec<Response>| shared.handle(request, out);
            let line = "\"Sessions\"";
            handle_line_with(&shared.telemetry, handle, line, &mut reply, &mut out).unwrap();
        }
        assert_eq!(shared.telemetry.core_lock_wait_us.count(), 3);
        assert_eq!(shared.telemetry.write_us.count(), 3);
        assert_eq!(
            shared.telemetry.bytes_written.get(),
            out.len() as u64,
            "every written byte is counted"
        );
    }

    #[test]
    fn shutdown_stops_the_stream_after_bye() {
        let mut core = ServerCore::default();
        let submit = serde_json::to_string(&Request::Submit {
            spec: ScenarioSpec::new("s", GeneratorSpec::Hexagon { radius: 2 }),
        })
        .unwrap();
        let script = format!("{submit}\n\"Shutdown\"\n\"Shutdown\"\n");
        let mut out = Vec::new();
        let shutdown = serve(&mut core, script.as_bytes(), &mut out).unwrap();
        assert!(shutdown);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 2, "nothing served after Bye");
        assert!(lines[1].contains("Bye"));
    }
}
