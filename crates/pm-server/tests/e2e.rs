//! End-to-end suite over the real binary: the committed smoke script drives
//! a scripted session — submit, watch, mid-flight perturbation, run,
//! checkpoint, **fresh-process** restore, run again — and the transcript
//! must match the committed golden byte for byte, at every scheduler thread
//! count. Two more tests exercise the TCP transport against a live socket:
//! the same protocol over reconnects, and round trips without a stall.

use pm_server::{Request, Response};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_pm-scenarios");

fn manifest(relative: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(relative)
        .display()
        .to_string()
}

fn client_transcript(threads: usize) -> String {
    let output = Command::new(BIN)
        .args([
            "client",
            "--script",
            &manifest("scripts/server_smoke.jsonl"),
            "--threads",
            &threads.to_string(),
        ])
        .output()
        .expect("client runs");
    assert!(
        output.status.success(),
        "client failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("transcript is UTF-8")
}

fn responses(transcript: &str) -> Vec<Response> {
    transcript
        .lines()
        .filter(|line| !line.starts_with('#') && !line.is_empty())
        .map(|line| serde_json::from_str(line).expect("transcript line parses"))
        .collect()
}

#[test]
fn smoke_script_matches_golden_across_thread_counts() {
    let golden = std::fs::read_to_string(manifest("golden/server_smoke.jsonl"))
        .expect("committed golden transcript");
    for threads in [1, 2, 8] {
        let transcript = client_transcript(threads);
        assert_eq!(
            transcript, golden,
            "transcript diverged from golden at --threads {threads} \
             (regenerate: pm-scenarios client --script scripts/server_smoke.jsonl \
             > golden/server_smoke.jsonl)"
        );
    }
}

#[test]
fn smoke_transcript_proves_the_full_lifecycle() {
    let parsed = responses(&client_transcript(2));

    let rounds = parsed
        .iter()
        .filter(|r| matches!(r, Response::Round { .. }))
        .count();
    assert!(rounds >= 3, "watch streamed only {rounds} round lines");

    assert!(parsed
        .iter()
        .any(|r| matches!(r, Response::Perturbed { events: 1, .. })));

    // Restore replayed the checkpoint's exact cursor in a fresh process.
    assert!(parsed.iter().any(
        |r| matches!(r, Response::Restored { steps, rounds, .. } if *steps > 0 && *rounds > 0)
    ));

    // The mid-flight fault injection on the self-stab session was accepted.
    assert!(parsed
        .iter()
        .any(|r| matches!(r, Response::Faulted { processes: 2, .. })));

    // Three final reports — live run, fault-injected self-stab run, and the
    // restored-after-restart run. Live and restored must be byte-identical,
    // with a unique leader and the perturbation's removals reflected in the
    // survivors.
    let reports: Vec<_> = parsed
        .iter()
        .filter_map(|r| match r {
            Response::Done { report, .. } => Some(report),
            _ => None,
        })
        .collect();
    assert_eq!(
        reports.len(),
        3,
        "expected a live, a faulted and a restored report"
    );
    assert_eq!(
        serde_json::to_string(reports[0]).unwrap(),
        serde_json::to_string(reports[2]).unwrap(),
        "restored run diverged from the live run"
    );
    assert!(reports[0].unique_leader());
    assert_eq!(reports[0].undecided, 0);
    assert!(
        reports[0].final_positions.len() < reports[0].n,
        "the RemoveRandom perturbation removed no particles"
    );
    // The fault-injected session recovered a unique leader with no reset —
    // periodic removals plus injected corruption, absorbed in-stride.
    assert_eq!(reports[1].algorithm, "self-stab-max");
    assert!(reports[1].unique_leader());
    assert_eq!(reports[1].undecided, 0);
    assert!(
        reports[1].final_positions.len() < reports[1].n,
        "the periodic removal process removed no particles"
    );
    assert!(matches!(parsed.last(), Some(Response::Bye)));
}

/// A `serve --tcp` child on an ephemeral port, killed on drop so a failing
/// test leaves no server behind.
struct TcpServer {
    child: Child,
    addr: String,
}

impl TcpServer {
    /// Spawns the server and reads the address it announces on stderr (as
    /// a log line, so scan lines for the substring rather than assuming it
    /// comes first).
    fn spawn() -> TcpServer {
        let mut child = Command::new(BIN)
            .args(["serve", "--tcp", "127.0.0.1:0"])
            .stderr(Stdio::piped())
            .spawn()
            .expect("server spawns");
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
        let mut server = TcpServer {
            child,
            addr: String::new(),
        };
        let mut announcement = String::new();
        while stderr.read_line(&mut announcement).expect("announcement") > 0 {
            if let Some(at) = announcement.find("listening on ") {
                server.addr = announcement[at + "listening on ".len()..]
                    .trim()
                    .to_string();
                return server;
            }
            announcement.clear();
        }
        panic!("server never announced its address");
    }

    /// Waits for the server to exit after a `Shutdown` and checks it
    /// succeeded.
    fn wait(mut self) {
        let status = self.child.wait().expect("server exits");
        assert!(status.success(), "server exited with {status}");
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Connects with Nagle off, so a request never waits on the peer's
/// delayed ACK.
fn connect(addr: &str) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (stream, reader)
}

/// Sends one request line, newline included, in a single write and parses
/// the first response line.
fn exchange(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Response {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("send");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("receive");
    serde_json::from_str(reply.trim()).expect("response parses")
}

fn request_line(request: &Request) -> String {
    serde_json::to_string(request).unwrap()
}

#[test]
fn tcp_transport_serves_the_same_protocol() {
    let server = TcpServer::spawn();

    let spec = r#"{"Submit":{"spec":{"name":"tcp","tags":[],"generator":{"Hexagon":{"radius":3}},"algorithm":"Pipeline","scheduler":{"SeededRandom":7},"options":{"assume_outer_boundary_known":false,"reconnect":true,"track_connectivity":false,"round_budget":null,"seed":7,"occupancy":"Dense"},"perturbations":[],"faults":{"seed":0,"reset":"None","processes":[]}}}}"#;

    // First connection: submit, then drop the connection mid-session.
    let (mut first, mut reader) = connect(&server.addr);
    let submitted = exchange(&mut first, &mut reader, spec);
    assert!(
        matches!(submitted, Response::Submitted { session: 1, .. }),
        "unexpected response {submitted:?}"
    );
    drop(reader);
    drop(first);

    // Second connection: the session survived the disconnect; finish it
    // and shut the server down.
    let (mut second, mut reader) = connect(&server.addr);
    match exchange(
        &mut second,
        &mut reader,
        &request_line(&Request::Run { session: 1 }),
    ) {
        Response::Done { session: 1, report } => assert!(report.unique_leader()),
        other => panic!("expected Done, got {other:?}"),
    }
    assert!(matches!(
        exchange(&mut second, &mut reader, &request_line(&Request::Shutdown)),
        Response::Bye
    ));
    server.wait();
}

/// Sequential requests on one connection must not pay a delayed-ACK stall
/// each: with a reply split across writes under Nagle, every round trip
/// waits ~40 ms for the peer's ACK and 20 of them take at least 800 ms.
#[test]
fn sequential_requests_on_one_connection_do_not_stall() {
    let server = TcpServer::spawn();
    let (mut stream, mut reader) = connect(&server.addr);
    let sessions = request_line(&Request::Sessions);
    let started = Instant::now();
    for _ in 0..20 {
        assert!(matches!(
            exchange(&mut stream, &mut reader, &sessions),
            Response::Sessions { .. }
        ));
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(400),
        "20 sequential Sessions round trips took {elapsed:?}"
    );
    assert!(matches!(
        exchange(&mut stream, &mut reader, &request_line(&Request::Shutdown)),
        Response::Bye
    ));
    server.wait();
}
