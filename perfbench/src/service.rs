//! The service path: a `pm-scenarios serve --tcp` child driven by a closed
//! loop of clients, each looping `submit` → `run` → `cancel` and waiting for
//! every reply. The traced run adds the client's per-verb round trips, the
//! connection's segment count per request, and an in-process replay of the same
//! request lines that times JSON decode, `ServerCore::handle`, JSON encode
//! and the whole `pm_server::serve` call — what the server does once a line
//! has arrived. Whatever the client waits beyond that is the transport.

use crate::elect::{self, report_ok};
use crate::host;
use crate::stats::{self, median, percentile, ratio};
use crate::Metrics;
use pm_core::api::RunReport;
use pm_core::SchedulerSpec;
use pm_scenarios::{GeneratorSpec, ScenarioSpec};
use pm_server::{Request, Response, ServerCore, ServerLimits, ServerStats};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// Concurrent client connections (one thread each).
pub const CLIENTS: usize = 2;
/// How many times set-up (server spawn to listening, connect, reference
/// report) is repeated in a measured run, at even intervals with the loop
/// paused; `setup_s` is the median.
const SETUP_REPS: usize = 21;
/// The fewest sessions a closed loop completes: enough `run` round trips
/// that ten lie beyond p90.
const MIN_SESSIONS: usize = 100;
/// No run keeps measuring past this, however few sessions completed.
const HARD_LIMIT: Duration = Duration::from_secs(120);
/// The server's scheduling knobs, passed explicitly so the in-process
/// replay core can match them.
const SLICE: u64 = 64;
const THREADS: usize = 1;
/// Response fields that hold wall-clock readings; the only fields a TCP
/// transcript and its in-process replay may disagree on.
const WALL_CLOCK_FIELDS: [&str; 1] = ["uptime_ms"];

/// The session every client runs: a radius-2 hexagon (n = 19) under the
/// seeded random scheduler.
pub fn spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec::new("service-small", GeneratorSpec::Hexagon { radius: 2 })
        .scheduler(SchedulerSpec::SeededRandom(seed))
}

/// The request verbs of one session, in order.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Verb {
    Submit,
    Run,
    Cancel,
}

const VERBS: [Verb; 3] = [Verb::Submit, Verb::Run, Verb::Cancel];

/// One request line (newline included) for `verb` on `session`.
fn request_line(verb: Verb, submit: &str, session: u64) -> String {
    match verb {
        Verb::Submit => submit.to_string(),
        Verb::Run => line(&Request::Run { session }),
        Verb::Cancel => line(&Request::Cancel { session }),
    }
}

fn line(request: &Request) -> String {
    let mut json = serde_json::to_string(request).expect("requests always serialize");
    json.push('\n');
    json
}

/// Checks one response against what `verb` must answer. Returns the
/// session id a `Submitted` assigns.
fn check(verb: Verb, session: u64, reference: &RunReport, response: &Response) -> Option<u64> {
    match (verb, response) {
        (Verb::Submit, Response::Submitted { session, .. }) => Some(*session),
        (Verb::Run, Response::Done { session: s, report })
            if *s == session && report == reference && report_ok(report) =>
        {
            Some(session)
        }
        (Verb::Cancel, Response::Cancelled { session: s }) if *s == session => Some(session),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// The server child and its connections
// ---------------------------------------------------------------------------

/// A running `pm-scenarios serve --tcp` child. Dropping it kills and reaps
/// the child if [`Server::shutdown`] did not already.
struct Server {
    child: Child,
    addr: SocketAddr,
    stderr: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Spawns the server and waits for its `listening on ADDR` log line.
    fn spawn(bin: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--tcp", "127.0.0.1:0", "--log-level", "info"])
            .args([
                "--slice",
                &SLICE.to_string(),
                "--threads",
                &THREADS.to_string(),
            ])
            .args(["--max-sessions", &CLIENTS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped")).lines();
        let addr = lines.by_ref().map_while(Result::ok).find_map(|l| {
            l.split_once("listening on ")
                .and_then(|(_, a)| a.trim().parse::<SocketAddr>().ok())
        });
        // Keep draining the log so the child never blocks on a full pipe.
        let stderr = thread::spawn(move || lines.map_while(Result::ok).for_each(drop));
        // Built before the address is checked, so that dropping it on the
        // error path reaps the child.
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr: Some(stderr),
        };
        server.addr = addr.ok_or("the server exited without announcing its address")?;
        Ok(server)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Sends `Shutdown` and waits for the child to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let mut conn = Conn::connect(self.addr)?;
        let (bye, _) = conn.request(&line(&Request::Shutdown))?;
        drop(conn);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if let Some(stderr) = self.stderr.take() {
            stderr.join().map_err(|_| "stderr drain panicked")?;
        }
        match (bye.trim(), status.success()) {
            ("\"Bye\"", true) => Ok(()),
            (bye, _) => Err(format!("shutdown answered {bye} and exited {status}")),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(stderr) = self.stderr.take() {
            let _ = stderr.join();
        }
    }
}

/// One protocol connection. Requests go out in one write each, with Nagle
/// off, so the client never holds a request back.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { reader, writer })
    }

    /// Sends one request line and reads one response line; returns the line
    /// and the round trip.
    fn request(&mut self, line: &str) -> Result<(String, Duration), String> {
        let mut response = String::new();
        let started = Instant::now();
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        match self.reader.read_line(&mut response) {
            Ok(0) => Err("the server closed the connection".to_string()),
            Ok(_) => Ok((response, started.elapsed())),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Set-up and the replay check
// ---------------------------------------------------------------------------

/// A listening server, its client connections and the reference report.
struct Ready {
    server: Server,
    clients: Vec<Conn>,
    control: Conn,
    reference: RunReport,
}

impl Ready {
    /// Closes the connections and shuts the server down.
    fn close(self) -> Result<(), String> {
        drop((self.clients, self.control));
        self.server.shutdown()
    }
}

/// Sets up once: spawns the server, connects every client and the control
/// connection, and computes the in-process reference report. Returns the
/// ready server and the seconds that took.
fn set_up(bin: &Path, seed: u64) -> Result<(Ready, f64), String> {
    let started = Instant::now();
    let server = Server::spawn(bin)?;
    let clients = (0..CLIENTS)
        .map(|_| Conn::connect(server.addr))
        .collect::<Result<Vec<_>, _>>()?;
    let control = Conn::connect(server.addr)?;
    let reference = elect::elect(&spec(seed).build_shape(), seed)?;
    let took = started.elapsed().as_secs_f64();
    if !report_ok(&reference) {
        return Err("the reference report fails its checks".to_string());
    }
    let ready = Ready {
        server,
        clients,
        control,
        reference,
    };
    Ok((ready, took))
}

/// A response line with its wall-clock fields removed, re-rendered.
fn normalized(line: &str) -> Result<String, String> {
    fn strip(value: &mut serde_json::Value) {
        match value {
            serde_json::Value::Object(fields) => {
                fields.retain(|(k, _)| !WALL_CLOCK_FIELDS.contains(&k.as_str()));
                fields.iter_mut().for_each(|(_, v)| strip(v));
            }
            serde_json::Value::Array(items) => items.iter_mut().for_each(strip),
            _ => {}
        }
    }
    let mut value: serde_json::Value =
        serde_json::from_str(line.trim()).map_err(|e| format!("unparseable `{line}`: {e}"))?;
    strip(&mut value);
    serde_json::to_string(&value).map_err(|e| e.0)
}

/// A fresh core configured like the server child.
fn replay_core() -> ServerCore {
    let mut core = ServerCore::new(SLICE, THREADS);
    core.set_limits(ServerLimits {
        max_sessions: Some(CLIENTS),
        idle_ttl: None,
    });
    core
}

/// Serves `script` through `pm_server::serve` on a fresh core and returns
/// its response lines.
fn replay_lines(script: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    pm_server::serve(&mut replay_core(), script.as_bytes(), &mut out).map_err(|e| e.to_string())?;
    let text = String::from_utf8(out).map_err(|e| e.to_string())?;
    Ok(text.lines().map(str::to_string).collect())
}

/// Runs one session over a connection to a server that has seen no other
/// session and checks its response lines against the in-process replay of
/// the same request lines, wall-clock fields excluded.
fn replay_matches_tcp(conn: &mut Conn, submit: &str) -> Result<bool, String> {
    let mut script = String::new();
    let mut tcp = Vec::new();
    let mut session = 0;
    for verb in VERBS {
        let request = request_line(verb, submit, session);
        let (response, _) = conn.request(&request)?;
        if let Ok(Response::Submitted { session: id, .. }) = serde_json::from_str(response.trim()) {
            session = id;
        }
        script.push_str(&request);
        tcp.push(response);
    }
    let replayed = replay_lines(&script)?;
    if replayed.len() != tcp.len() {
        return Ok(false);
    }
    for (a, b) in tcp.iter().zip(&replayed) {
        if normalized(a)? != normalized(b)? {
            return Ok(false);
        }
    }
    Ok(true)
}

// ---------------------------------------------------------------------------
// The closed loop
// ---------------------------------------------------------------------------

/// What one client thread saw.
#[derive(Default)]
struct ClientLog {
    /// Round trips in ms, per verb (indexed like [`VERBS`]).
    rtt_ms: [Vec<f64>; 3],
    /// Segments each request moved on the connection, when counted.
    segments: Vec<f64>,
    attempted: u64,
    failed: u64,
    busy: u64,
    sessions: u64,
}

impl ClientLog {
    /// Adds `other`'s samples and counts to this log.
    fn absorb(&mut self, other: ClientLog) {
        for (all, more) in self.rtt_ms.iter_mut().zip(other.rtt_ms) {
            all.extend(more);
        }
        self.segments.extend(other.segments);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.busy += other.busy;
        self.sessions += other.sessions;
    }

    /// Every operation so far failed, and enough of them to stop trying.
    fn hopeless(&self) -> bool {
        self.failed >= elect::GIVE_UP_AFTER && self.sessions == 0
    }
}

/// What every client of one closed loop runs.
struct LoopPlan<'a> {
    submit: &'a str,
    reference: &'a RunReport,
    /// Stop starting sessions after this...
    deadline: Instant,
    /// ...once the clients together completed this many.
    min_sessions: usize,
    /// Read the socket's segment counter after every reply.
    count_segments: bool,
}

/// One client's closed loop: whole sessions, each request sent only after
/// the previous reply arrived.
fn client_loop(conn: &mut Conn, plan: &LoopPlan<'_>, completed: &AtomicUsize) -> ClientLog {
    let started = Instant::now();
    let mut log = ClientLog::default();
    let segments = |conn: &Conn| {
        plan.count_segments
            .then(|| host::tcp_segments(&conn.writer))
            .flatten()
    };
    let mut last_segments = segments(conn);
    loop {
        let now = Instant::now();
        let enough = completed.load(Ordering::Relaxed) >= plan.min_sessions;
        if (now >= plan.deadline && enough) || now - started >= HARD_LIMIT || log.hopeless() {
            return log;
        }
        let mut session = 0;
        let mut ok = true;
        for (i, verb) in VERBS.into_iter().enumerate() {
            log.attempted += 1;
            let request = request_line(verb, plan.submit, session);
            let Ok((response, took)) = conn.request(&request) else {
                log.failed += 1;
                return log; // The connection is gone: nothing more to measure.
            };
            let now_segments = segments(conn);
            if let (Some(before), Some(after)) = (last_segments, now_segments) {
                log.segments.push((after - before) as f64);
            }
            last_segments = now_segments;
            let parsed = serde_json::from_str::<Response>(response.trim());
            if matches!(parsed, Ok(Response::Busy { .. })) {
                log.busy += 1;
            }
            match parsed
                .ok()
                .and_then(|r| check(verb, session, plan.reference, &r))
            {
                Some(id) => {
                    session = id;
                    log.rtt_ms[i].push(stats::ms(took));
                }
                None => {
                    log.failed += 1;
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            log.sessions += 1;
            completed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Runs every client's loop on its own thread; returns the merged log and
/// the loop's wall time.
fn run_clients(clients: &mut [Conn], plan: &LoopPlan<'_>) -> (ClientLog, Duration) {
    let completed = AtomicUsize::new(0);
    let started = Instant::now();
    let logs: Vec<ClientLog> = thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|conn| {
                let completed = &completed;
                scope.spawn(move || client_loop(conn, plan, completed))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed();
    let mut log = ClientLog::default();
    logs.into_iter().for_each(|part| log.absorb(part));
    (log, elapsed)
}

/// Sets up, checks the replay, and returns the ready server, the set-up's
/// seconds and the submit line, or the reason the run cannot start.
fn start(bin: &Path, seed: u64) -> Result<(Ready, f64, String, bool), String> {
    let (mut ready, took) = set_up(bin, seed)?;
    let submit = line(&Request::Submit { spec: spec(seed) });
    let replay_ok = replay_matches_tcp(&mut ready.control, &submit)?;
    Ok((ready, took, submit, replay_ok))
}

/// The per-layer timing metrics of one closed loop. The `run` verb is the
/// election as the service caller sees it, and each session runs one
/// election.
fn timing_metrics(log: &mut ClientLog, elapsed: Duration, m: &mut Metrics) -> Result<(), String> {
    let pct = |samples: &mut [f64], q| percentile(samples, q).map_err(|e| e.to_string());
    let per_s = log.sessions as f64 / elapsed.as_secs_f64();
    let mut all: Vec<f64> = log.rtt_ms.iter().flatten().copied().collect();
    let run = &mut log.rtt_ms[1];
    m.insert("elect_ms_p50", pct(run, 0.5)?);
    m.insert("elect_ms_p90", pct(run, 0.9)?);
    m.insert("run_rtt_ms_p90", pct(run, 0.9)?);
    m.insert("elections_per_s", per_s);
    m.insert("sessions_per_s", per_s);
    m.insert("rtt_ms_p50", pct(&mut all, 0.5)?);
    m.insert("rtt_ms_p90", pct(&mut all, 0.9)?);
    Ok(())
}

/// The end-to-end timings of a closed loop: the median round trip of `run`
/// (the election as the service caller sees it) and over every verb. The
/// median, not the fastest: the first requests on a connection are
/// acknowledged at once and come back far sooner than the loop's steady
/// state.
fn end_to_end_timings(log: &mut ClientLog, m: &mut Metrics) -> Result<(), String> {
    let p50 = |samples: &mut [f64]| percentile(samples, 0.5).map_err(|e| e.to_string());
    let mut all: Vec<f64> = log.rtt_ms.iter().flatten().copied().collect();
    m.insert("elect_ms", p50(&mut log.rtt_ms[1])?);
    m.insert("rtt_ms", p50(&mut all)?);
    Ok(())
}

/// The end-to-end metrics of the service workload: one server serves the
/// closed loop for `seconds`. The loop pauses at even intervals while the
/// set-up is repeated on a server of its own (whose reference report must
/// agree), so that `setup_s` is the median over the whole run and no
/// set-up is timed under load.
pub fn measure(bin: &Path, seed: u64, seconds: f64) -> Result<(Metrics, u64, u64, bool), String> {
    let (mut ready, took, submit, mut intact) = start(bin, seed)?;
    let mut setup_s = vec![took];
    let run = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut log = ClientLog::default();
    for segment in 1..=SETUP_REPS {
        if segment > 1 {
            let (extra, took) = set_up(bin, seed)?;
            setup_s.push(took);
            intact &= extra.reference == ready.reference;
            extra.close()?;
        }
        let last = segment == SETUP_REPS;
        let plan = LoopPlan {
            submit: &submit,
            reference: &ready.reference,
            deadline: started + run.mul_f64(segment as f64 / SETUP_REPS as f64),
            min_sessions: if last {
                MIN_SESSIONS.saturating_sub(log.sessions as usize)
            } else {
                0
            },
            count_segments: false,
        };
        log.absorb(run_clients(&mut ready.clients, &plan).0);
        if log.hopeless() {
            break;
        }
    }
    let rss = host::peak_rss_mb(&ready.server.pid()).ok_or("cannot read the server's VmHWM")?;
    let reference = ready.reference.clone();
    ready.close()?;

    let mut m = Metrics::new();
    // A loop that failed may lack the samples to time; its failures are the
    // result.
    let timed = end_to_end_timings(&mut log, &mut m);
    if log.failed == 0 {
        timed?;
    }
    m.insert("rounds_per_election", reference.total_rounds as f64);
    m.insert("setup_s", median(&mut setup_s).expect("set-up ran"));
    m.insert("peak_rss_mb", rss);
    Ok((m, log.attempted, log.failed, intact))
}

// ---------------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------------

/// The server's `Stats` counters, and the length of the reply line that
/// carried them.
fn server_stats(conn: &mut Conn) -> Result<(ServerStats, usize), String> {
    let (response, _) = conn.request(&line(&Request::Stats))?;
    match serde_json::from_str(response.trim()) {
        Ok(Response::Stats { stats }) => Ok((stats, response.len())),
        _ => Err(format!("`Stats` answered {}", response.trim())),
    }
}

/// In-process replay timings, per request.
#[derive(Default)]
struct Replay {
    decode_us: Vec<f64>,
    encode_us: Vec<f64>,
    handle_us: [Vec<f64>; 3],
    inproc_us: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// Replays whole sessions in process until `deadline`. Core `a` is driven
/// layer by layer (decode, `handle`, encode, each timed); core `b` serves
/// the identical lines through `pm_server::serve`, and its output must be
/// byte-identical to `a`'s encoded responses.
fn replay(submit: &str, reference: &RunReport, deadline: Instant) -> Result<Replay, String> {
    let mut a = replay_core();
    let mut b = replay_core();
    let mut out = Vec::new();
    let mut served = Vec::new();
    let mut r = Replay::default();
    while Instant::now() < deadline || r.inproc_us.len() < 100 {
        let mut session = 0;
        for (i, verb) in VERBS.into_iter().enumerate() {
            let request = request_line(verb, submit, session);
            r.attempted += 1;

            let t = Instant::now();
            let decoded = serde_json::from_str::<Request>(request.trim_end());
            r.decode_us.push(stats::us(t.elapsed()));
            let decoded = decoded.map_err(|e| e.0)?;

            out.clear();
            let t = Instant::now();
            a.handle(decoded, &mut out);
            r.handle_us[i].push(stats::us(t.elapsed()));

            let mut encoded = String::new();
            let t = Instant::now();
            for response in &out {
                encoded.push_str(&serde_json::to_string(response).map_err(|e| e.0)?);
                encoded.push('\n');
            }
            r.encode_us.push(stats::us(t.elapsed()));

            served.clear();
            let t = Instant::now();
            pm_server::serve(&mut b, request.as_bytes(), &mut served).map_err(|e| e.to_string())?;
            r.inproc_us.push(stats::us(t.elapsed()));

            let checked = match out.as_slice() {
                [response] => check(verb, session, reference, response),
                _ => None,
            };
            match checked {
                Some(id) if served == encoded.as_bytes() => session = id,
                _ => {
                    r.failed += 1;
                    break;
                }
            }
        }
    }
    Ok(r)
}

/// The client-side metrics of a traced loop: the timings, per-verb round
/// trips and segments per request.
fn client_metrics(log: &mut ClientLog, elapsed: Duration, m: &mut Metrics) -> Result<(), String> {
    let pct = |samples: &mut [f64]| percentile(samples, 0.5).map_err(|e| e.to_string());
    timing_metrics(log, elapsed, m)?;
    m.insert("client.submit_rtt_ms_p50", pct(&mut log.rtt_ms[0])?);
    m.insert("client.run_rtt_ms_p50", pct(&mut log.rtt_ms[1])?);
    m.insert("client.cancel_rtt_ms_p50", pct(&mut log.rtt_ms[2])?);
    m.insert("client.busy", log.busy as f64);
    m.insert("transport.segments_per_request", pct(&mut log.segments)?);
    Ok(())
}

/// The per-layer metrics of the service workload: the TCP loop with
/// counters around it, the in-process replay, then traced in-process
/// elections of the session's spec. Returns the attempted and failed
/// counts and whether every integrity check held.
pub fn trace(
    bin: &Path,
    seed: u64,
    seconds: f64,
    m: &mut Metrics,
) -> Result<(u64, u64, bool), String> {
    let (mut ready, _, submit, replay_ok) = start(bin, seed)?;
    let (before, stats_line) = server_stats(&mut ready.control)?;
    let plan = LoopPlan {
        submit: &submit,
        reference: &ready.reference,
        deadline: Instant::now() + Duration::from_secs_f64(seconds * 0.5),
        min_sessions: MIN_SESSIONS,
        count_segments: true,
    };
    let (mut log, elapsed) = run_clients(&mut ready.clients, &plan);
    let (after, _) = server_stats(&mut ready.control)?;
    let reference = ready.reference.clone();
    ready.close()?;

    let requests = log.attempted as f64;
    // A loop that failed may lack the samples to time; its failures are the
    // result.
    let timed = client_metrics(&mut log, elapsed, m);
    if log.failed == 0 {
        timed?;
    }
    // The first `Stats` reply was written after its own snapshot.
    let written = after.bytes_written - before.bytes_written - stats_line as u64;
    m.insert(
        "server.bytes_per_response",
        ratio(written as f64, requests).unwrap_or(0.0),
    );
    m.insert(
        "server.sweeps_per_session",
        ratio((after.sweeps - before.sweeps) as f64, log.sessions as f64).unwrap_or(0.0),
    );

    let replay_deadline = Instant::now() + Duration::from_secs_f64(seconds * 0.25);
    let mut r = replay(&submit, &reference, replay_deadline)?;
    let pct = |samples: &mut [f64]| percentile(samples, 0.5).map_err(|e| e.to_string());
    let inproc_p50 = pct(&mut r.inproc_us)?;
    m.insert("protocol.decode_us", pct(&mut r.decode_us)?);
    m.insert("protocol.encode_us", pct(&mut r.encode_us)?);
    m.insert("server.handle_submit_us", pct(&mut r.handle_us[0])?);
    m.insert("server.handle_run_us", pct(&mut r.handle_us[1])?);
    m.insert("server.handle_cancel_us", pct(&mut r.handle_us[2])?);
    m.insert("server.inproc_us", inproc_p50);
    if let Some(&rtt_p50) = m.get("rtt_ms_p50") {
        m.insert(
            "transport.gap_ms",
            stats::transport_gap_ms(rtt_p50, inproc_p50),
        );
    }

    let prepared = elect::prepare(&spec(seed).generator, seed)?;
    if prepared.reference != reference {
        return Err("the traced spec elects differently from the reference".to_string());
    }
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * 0.25);
    let elections = elect::trace_layers(&prepared, seed, deadline, m)?;
    Ok((
        log.attempted + r.attempted + elections.attempted,
        log.failed + r.failed + elections.failed,
        replay_ok && elections.intact,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_drops_only_wall_clock_fields() {
        let a = r#"{"Stats": {"stats": {"uptime_ms": 5, "sessions": 1}}}"#;
        let b = r#"{"Stats": {"stats": {"uptime_ms": 912, "sessions": 1}}}"#;
        let c = r#"{"Stats": {"stats": {"uptime_ms": 5, "sessions": 2}}}"#;
        assert_eq!(normalized(a).unwrap(), normalized(b).unwrap());
        assert_ne!(normalized(a).unwrap(), normalized(c).unwrap());
        assert!(normalized("not json").is_err());
    }

    /// The TCP transport (served in process here, the same code the server
    /// binary runs) answers exactly what the in-memory replay answers.
    #[test]
    fn tcp_transcript_matches_the_in_process_replay() {
        let port = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .unwrap()
            .port();
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        let server = thread::spawn(move || pm_server::serve_tcp(replay_core(), &addr.to_string()));
        let started = Instant::now();
        let mut conn = loop {
            match Conn::connect(addr) {
                Ok(conn) => break conn,
                Err(e) if started.elapsed() > Duration::from_secs(5) => panic!("{e}"),
                Err(_) => thread::sleep(Duration::from_millis(10)),
            }
        };
        let submit = line(&Request::Submit { spec: spec(7) });
        assert!(replay_matches_tcp(&mut conn, &submit).unwrap());
        let (bye, _) = conn.request(&line(&Request::Shutdown)).unwrap();
        assert_eq!(bye.trim(), "\"Bye\"");
        drop(conn);
        server.join().unwrap().unwrap();
    }

    #[test]
    fn in_process_replay_answers_every_verb() {
        let seed = 7;
        let submit = line(&Request::Submit { spec: spec(seed) });
        let reference = elect::elect(&spec(seed).build_shape(), seed).unwrap();
        let mut script = String::new();
        for verb in VERBS {
            script.push_str(&request_line(verb, &submit, 1));
        }
        let lines = replay_lines(&script).unwrap();
        assert_eq!(lines.len(), 3);
        for (verb, response) in VERBS.into_iter().zip(&lines) {
            let response: Response = serde_json::from_str(response).unwrap();
            assert_eq!(check(verb, 1, &reference, &response), Some(1), "{verb:?}");
        }
        let timed = replay(&submit, &reference, Instant::now()).unwrap();
        assert_eq!(timed.failed, 0);
        assert_eq!(
            timed.inproc_us.len(),
            102,
            "whole sessions up to 100 requests"
        );
    }
}
