//! Chaos suite over the real binary: SIGKILL between autosaves, torn
//! checkpoint files, connections dropped mid-line, and a 32-client
//! concurrency storm. The contract under every fault: an accepted session
//! either completes byte-identically after restart or is reported lost
//! with a typed error — never silently corrupted.

use pm_scenarios::{GeneratorSpec, ScenarioSpec};
use pm_server::{Request, Response};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_pm-scenarios");

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pm-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The three scenarios every crash test submits: distinct shapes so a
/// mixed-up restore could not accidentally produce matching reports.
fn chaos_specs() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec::new("chaos-hex", GeneratorSpec::Hexagon { radius: 3 }),
        ScenarioSpec::new("chaos-ring", GeneratorSpec::Annulus { outer: 4, inner: 2 }),
        ScenarioSpec::new("chaos-small", GeneratorSpec::Hexagon { radius: 2 }),
    ]
}

/// A `serve --stdio` child driven over its pipes.
struct StdioServer {
    child: Child,
    input: ChildStdin,
    output: BufReader<ChildStdout>,
}

impl StdioServer {
    fn spawn(extra: &[&str]) -> StdioServer {
        let mut child = Command::new(BIN)
            .args(["serve", "--stdio"])
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("server spawns");
        let input = child.stdin.take().expect("stdin piped");
        let output = BufReader::new(child.stdout.take().expect("stdout piped"));
        StdioServer {
            child,
            input,
            output,
        }
    }

    /// Sends one request and reads to its final response.
    fn request(&mut self, request: &Request) -> Response {
        let mut line = serde_json::to_string(request).expect("request serializes");
        line.push('\n');
        self.input
            .write_all(line.as_bytes())
            .expect("write to server");
        loop {
            let mut raw = String::new();
            assert_ne!(
                self.output.read_line(&mut raw).expect("read from server"),
                0,
                "server closed stdout mid-request"
            );
            let response: Response = serde_json::from_str(raw.trim()).expect("response parses");
            if response.is_final() {
                return response;
            }
        }
    }

    fn submit(&mut self, spec: &ScenarioSpec) -> u64 {
        match self.request(&Request::Submit { spec: spec.clone() }) {
            Response::Submitted { session, .. } => session,
            other => panic!("expected Submitted, got {other:?}"),
        }
    }

    fn run_report(&mut self, session: u64) -> String {
        match self.request(&Request::Run { session }) {
            Response::Done { report, .. } => serde_json::to_string(&report).unwrap(),
            other => panic!("expected Done for session {session}, got {other:?}"),
        }
    }

    /// The SIGKILL: no shutdown verb, no flush, no final autosave.
    fn kill(mut self) {
        self.child.kill().expect("SIGKILL the server");
        self.child.wait().expect("reap the server");
    }

    fn shutdown(mut self) {
        assert!(matches!(self.request(&Request::Shutdown), Response::Bye));
        let status = self.child.wait().expect("server exits");
        assert!(status.success(), "server exited with {status}");
    }
}

/// Reports from an uninterrupted submit-and-run of every spec, keyed by
/// scenario name — the byte-identical reference every crash run must hit.
fn golden_reports(threads: usize, specs: &[ScenarioSpec]) -> BTreeMap<String, String> {
    let mut server = StdioServer::spawn(&["--threads", &threads.to_string()]);
    let sessions: Vec<u64> = specs.iter().map(|spec| server.submit(spec)).collect();
    let reports = specs
        .iter()
        .zip(&sessions)
        .map(|(spec, &session)| (spec.name.clone(), server.run_report(session)))
        .collect();
    server.shutdown();
    reports
}

fn wait_for_files(dir: &PathBuf, count: usize) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let saved = std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter(|e| {
                        let name = e.file_name();
                        let name = name.to_string_lossy().into_owned();
                        name.starts_with("session-") && name.ends_with(".json")
                    })
                    .count()
            })
            .unwrap_or(0);
        if saved >= count {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "autosave produced {saved}/{count} checkpoint files within 20s"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The headline crash drill, at every scheduler thread count: submit and
/// partially advance sessions, SIGKILL the server between autosaves,
/// restart it on the same persist dir, and every session must come back
/// and finish with a report byte-identical to an uninterrupted run.
#[test]
fn sigkill_between_autosaves_restores_every_session_byte_identically() {
    let specs = chaos_specs();
    for threads in [1usize, 2, 8] {
        let golden = golden_reports(threads, &specs);

        let dir = temp_dir(&format!("sigkill-{threads}"));
        let threads_arg = threads.to_string();
        let dir_arg = dir.display().to_string();
        let flags = [
            "--threads",
            threads_arg.as_str(),
            "--persist-dir",
            dir_arg.as_str(),
            "--autosave-ms",
            "25",
        ];

        let mut server = StdioServer::spawn(&flags);
        let sessions: Vec<u64> = specs.iter().map(|spec| server.submit(spec)).collect();
        for &session in &sessions {
            match server.request(&Request::Watch { session, rounds: 2 }) {
                Response::Status { .. } | Response::Done { .. } => {}
                other => panic!("expected Status after watch, got {other:?}"),
            }
        }
        wait_for_files(&dir, specs.len());
        server.kill();

        let mut revived = StdioServer::spawn(&flags);
        let rows = match revived.request(&Request::Sessions) {
            Response::Sessions { sessions } => sessions,
            other => panic!("expected Sessions, got {other:?}"),
        };
        assert_eq!(
            rows.len(),
            specs.len(),
            "--threads {threads}: recovery lost sessions"
        );
        for row in rows {
            let report = revived.run_report(row.session);
            assert_eq!(
                Some(&report),
                golden.get(&row.name),
                "--threads {threads}: `{}` diverged after SIGKILL + recovery",
                row.name
            );
        }
        revived.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Torn, truncated, and garbage checkpoint files are rejected with a
/// logged typed error at startup — the server recovers what it can and
/// keeps serving, it never panics and never invents a corrupt session.
#[test]
fn torn_checkpoint_files_are_rejected_and_the_server_keeps_serving() {
    let dir = temp_dir("torn");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("session-1.json"), b"{\"spec\":{\"name\":\"half").unwrap();
    std::fs::write(dir.join("session-2.json"), b"not json at all\n").unwrap();

    let dir_arg = dir.display().to_string();
    let mut child = Command::new(BIN)
        .args(["serve", "--stdio", "--persist-dir", &dir_arg])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("server spawns");
    let input = child.stdin.take().expect("stdin piped");
    let output = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut server = StdioServer {
        child,
        input,
        output,
    };

    // Both corrupt files were skipped; the server is empty and healthy.
    match server.request(&Request::Sessions) {
        Response::Sessions { sessions } => assert!(sessions.is_empty()),
        other => panic!("expected Sessions, got {other:?}"),
    }
    let spec = ScenarioSpec::new("after-torn", GeneratorSpec::Hexagon { radius: 2 });
    let session = server.submit(&spec);
    server.run_report(session);

    let mut stderr = server.child.stderr.take().expect("stderr piped");
    server.shutdown();
    let mut log = String::new();
    std::io::Read::read_to_string(&mut stderr, &mut log).expect("stderr is UTF-8");
    assert!(
        log.contains("malformed checkpoint file"),
        "expected typed rejections in the log, got:\n{log}"
    );
    assert!(
        log.contains("recovered 0 session(s)") && log.contains("2 rejected"),
        "expected a recovery summary, got:\n{log}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Spawns a TCP server, returns its child, address, and the stderr
/// drain thread (the pipe must keep draining or connection-error logs
/// would eventually block the server).
fn spawn_tcp(extra: &[&str]) -> (Child, String, std::thread::JoinHandle<()>) {
    let mut child = Command::new(BIN)
        .args(["serve", "--tcp", "127.0.0.1:0"])
        .args(extra)
        .stderr(Stdio::piped())
        .spawn()
        .expect("server spawns");
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let mut addr = None;
    let mut line = String::new();
    while stderr.read_line(&mut line).expect("read stderr") > 0 {
        // The announcement is a log line now: match the substring.
        if let Some(at) = line.find("listening on ") {
            addr = Some(line[at + "listening on ".len()..].trim().to_string());
            break;
        }
        line.clear();
    }
    let drain = std::thread::spawn(move || {
        let mut rest = String::new();
        let _ = std::io::Read::read_to_string(&mut stderr, &mut rest);
    });
    (child, addr.expect("server announced its address"), drain)
}

/// Connects with Nagle off, so a request never waits on the peer's
/// delayed ACK.
fn connect(addr: &str) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (stream, reader)
}

/// Sends `request` as one line in a single write and reads to its final
/// response.
fn tcp_request(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    request: &Request,
) -> Response {
    let mut line = serde_json::to_string(request).unwrap();
    line.push('\n');
    stream.write_all(line.as_bytes()).expect("send");
    loop {
        let mut raw = String::new();
        assert_ne!(
            reader.read_line(&mut raw).expect("receive"),
            0,
            "server hung up"
        );
        let response: Response = serde_json::from_str(raw.trim()).expect("response parses");
        if response.is_final() {
            return response;
        }
    }
}

/// Clients that die mid-line (half a request, no newline, then a dropped
/// socket) must not take the server or anyone else's session with them.
#[test]
fn connections_killed_mid_line_leave_the_server_serving() {
    let (mut child, addr, drain) = spawn_tcp(&["--threads", "2"]);

    for _ in 0..3 {
        let mut victim = TcpStream::connect(&addr).expect("connect");
        victim
            .write_all(b"{\"Submit\":{\"spec\":{\"name\":\"never")
            .expect("half a line");
        victim.flush().ok();
        drop(victim); // hang up mid-line, newline never sent
    }

    let (mut clean, mut reader) = connect(&addr);
    let spec = ScenarioSpec::new("survivor", GeneratorSpec::Hexagon { radius: 2 });
    let session = match tcp_request(&mut clean, &mut reader, &Request::Submit { spec }) {
        Response::Submitted { session, .. } => session,
        other => panic!("expected Submitted, got {other:?}"),
    };
    match tcp_request(&mut clean, &mut reader, &Request::Run { session }) {
        Response::Done { report, .. } => assert!(report.unique_leader()),
        other => panic!("expected Done, got {other:?}"),
    }
    assert!(matches!(
        tcp_request(&mut clean, &mut reader, &Request::Shutdown),
        Response::Bye
    ));
    assert!(child.wait().expect("server exits").success());
    drain.join().unwrap();
}

/// 32 simultaneous TCP clients hammer one server whose session budget is
/// deliberately far smaller than the client count, so the retryable
/// `Busy` rejection is exercised for real — every client still completes
/// every one of its sessions with a unique leader.
#[test]
fn thirty_two_concurrent_clients_share_one_server() {
    const CLIENTS: usize = 32;
    const SESSIONS_EACH: usize = 2;
    let (mut child, addr, drain) = spawn_tcp(&["--threads", "4", "--max-sessions", "8"]);

    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let addr = &addr;
            scope.spawn(move || {
                let (mut stream, mut reader) = connect(addr);
                for index in 0..SESSIONS_EACH {
                    let spec = ScenarioSpec::new(
                        format!("storm-{client}-{index}"),
                        GeneratorSpec::Hexagon { radius: 2 },
                    );
                    let request = Request::Submit { spec };
                    let session = loop {
                        match tcp_request(&mut stream, &mut reader, &request) {
                            Response::Submitted { session, .. } => break session,
                            Response::Busy { .. } => std::thread::sleep(Duration::from_millis(2)),
                            other => panic!("client {client}: expected Submitted, got {other:?}"),
                        }
                    };
                    match tcp_request(&mut stream, &mut reader, &Request::Run { session }) {
                        Response::Done { report, .. } => assert!(report.unique_leader()),
                        other => panic!("client {client}: expected Done, got {other:?}"),
                    }
                    assert!(matches!(
                        tcp_request(&mut stream, &mut reader, &Request::Cancel { session }),
                        Response::Cancelled { .. }
                    ));
                }
            });
        }
    });

    let (mut control, mut reader) = connect(&addr);
    match tcp_request(&mut control, &mut reader, &Request::Stats) {
        Response::Stats { stats } => {
            assert_eq!(stats.sessions, 0, "every storm session was cancelled");
            assert!(stats.sweeps > 0);
        }
        other => panic!("expected Stats, got {other:?}"),
    }
    assert!(matches!(
        tcp_request(&mut control, &mut reader, &Request::Shutdown),
        Response::Bye
    ));
    assert!(child.wait().expect("server exits").success());
    drain.join().unwrap();
}
