//! End-to-end suite for the HTTP observability listener: boot the real
//! binary with `serve --tcp … --http …`, drive a session over the
//! protocol, and scrape `/healthz`, `/metrics`, `/stats` and `/trace` over
//! a plain TCP socket speaking hand-written HTTP/1.1 — exactly what `curl`
//! or a Prometheus scraper would send.

use pm_server::{Request, Response, ServerStats};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_pm-scenarios");

/// A running `serve --tcp --http` child plus both announced addresses.
struct HttpServer {
    child: Child,
    protocol_addr: String,
    http_addr: String,
}

impl HttpServer {
    /// Spawns the server and scans stderr for both listener announcements
    /// (`listening on ADDR` and `http listening on ADDR`).
    fn spawn() -> HttpServer {
        let mut child = Command::new(BIN)
            .args(["serve", "--tcp", "127.0.0.1:0", "--http", "127.0.0.1:0"])
            .stderr(Stdio::piped())
            .spawn()
            .expect("server spawns");
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
        let mut protocol_addr = None;
        let mut http_addr = None;
        let mut line = String::new();
        while stderr.read_line(&mut line).expect("read stderr") > 0 {
            if let Some(at) = line.find("http listening on ") {
                http_addr = Some(line[at + "http listening on ".len()..].trim().to_string());
            } else if let Some(at) = line.find("listening on ") {
                protocol_addr = Some(line[at + "listening on ".len()..].trim().to_string());
            }
            if protocol_addr.is_some() && http_addr.is_some() {
                break;
            }
            line.clear();
        }
        HttpServer {
            child,
            protocol_addr: protocol_addr.expect("protocol listener announced"),
            http_addr: http_addr.expect("http listener announced"),
        }
    }

    /// Sends one protocol request and returns its final response.
    fn request(&self, request: &Request) -> Response {
        let mut stream = TcpStream::connect(&self.protocol_addr).expect("connect protocol");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let line = format!("{}\n", serde_json::to_string(request).unwrap());
        stream.write_all(line.as_bytes()).expect("send");
        let mut line = String::new();
        loop {
            line.clear();
            assert!(reader.read_line(&mut line).expect("receive") > 0);
            let response: Response = serde_json::from_str(line.trim()).expect("response parses");
            if response.is_final() {
                return response;
            }
        }
    }

    /// Sends raw bytes to the HTTP listener and returns the full response
    /// (head + body) as text.
    fn http_raw(&self, request: &str) -> String {
        let mut stream = TcpStream::connect(&self.http_addr).expect("connect http");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        stream.write_all(request.as_bytes()).expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        response
    }

    /// A well-formed GET; returns `(status line, body)`.
    fn get(&self, path: &str) -> (String, String) {
        let raw = self.http_raw(&format!(
            "GET {path} HTTP/1.1\r\nHost: localhost\r\nAccept: */*\r\n\r\n"
        ));
        let (head, body) = raw.split_once("\r\n\r\n").expect("response has a head");
        let status = head.lines().next().expect("status line").to_string();
        (status, body.to_string())
    }

    fn shutdown(mut self) {
        let bye = self.request(&Request::Shutdown);
        assert!(matches!(bye, Response::Bye));
        let status = self.child.wait().expect("server exits");
        assert!(status.success());
    }
}

#[test]
fn live_server_serves_every_route_and_rejects_garbage() {
    let server = HttpServer::spawn();

    let (status, body) = server.get("/healthz");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(body, "ok\n");

    // Drive one fault-injected self-stab session so the scrape surfaces
    // have real content: verb latencies, harvested phases, trace spans.
    let spec = r#"{"Submit":{"spec":{"name":"http-e2e","tags":[],"generator":{"Hexagon":{"radius":3}},"algorithm":"SelfStabMax","scheduler":{"SeededRandom":7},"options":{"assume_outer_boundary_known":false,"reconnect":true,"track_connectivity":false,"round_budget":null,"seed":7,"occupancy":"Dense"},"perturbations":[],"faults":{"seed":7,"reset":"None","processes":[{"kind":"Removals","start":1,"period":2,"until":5,"count":2}]}}}}"#;
    let submitted = server.request(&serde_json::from_str(spec).expect("spec parses"));
    let Response::Submitted { session, .. } = submitted else {
        panic!("expected Submitted, got {submitted:?}");
    };
    match server.request(&Request::Run { session }) {
        Response::Done { report, .. } => assert!(report.unique_leader()),
        other => panic!("expected Done, got {other:?}"),
    }

    // /metrics serves the exact exposition the Metrics verb returns —
    // compare series presence, not bytes (latency counters keep moving).
    let (status, scraped) = server.get("/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let verb_metrics = match server.request(&Request::Metrics) {
        Response::Metrics { prometheus, .. } => prometheus,
        other => panic!("expected Metrics, got {other:?}"),
    };
    for line in verb_metrics.lines().filter(|l| l.starts_with("# ")) {
        assert!(
            scraped.contains(line),
            "verb exposition header `{line}` missing from the HTTP scrape"
        );
    }
    assert!(scraped.contains("pm_server_verb_latency_us"));
    assert!(scraped.contains("pm_election_phase_rounds_total"));
    assert!(scraped.contains("pm_trace_dropped_events 0"));

    let (status, stats_json) = server.get("/stats");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let stats: ServerStats = serde_json::from_str(&stats_json).expect("stats JSON parses");
    assert_eq!(stats.sessions, 1);
    assert!(stats.sweeps > 0);

    // /trace drains live spans: the run verb and its session slices are in
    // there, and the document is structurally valid Chrome trace JSON.
    let (status, trace_json) = server.get("/trace");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let trace: serde_json::Value = serde_json::from_str(&trace_json).expect("trace JSON parses");
    let events = trace
        .get("traceEvents")
        .and_then(serde_json::Value::as_array)
        .expect("traceEvents array");
    let names: Vec<String> = events
        .iter()
        .filter_map(|e| match e.get("name") {
            Some(serde_json::Value::Str(name)) => Some(name.clone()),
            _ => None,
        })
        .collect();
    assert!(names.iter().any(|n| n == "run"), "no `run` verb span");
    assert!(
        names.iter().any(|n| n.starts_with("session:")),
        "no session slice span"
    );
    assert!(
        names.iter().any(|n| n.starts_with("fault:")),
        "no fault-firing instant"
    );
    // A second drain starts empty (plus whatever the drain itself traced).
    let (_, drained_again) = server.get("/trace");
    let again: serde_json::Value =
        serde_json::from_str(&drained_again).expect("second drain parses");
    let remaining = again
        .get("traceEvents")
        .and_then(serde_json::Value::as_array)
        .expect("traceEvents array")
        .len();
    assert!(
        remaining < events.len(),
        "drain did not clear the rings ({remaining} >= {})",
        events.len()
    );

    let (status, body) = server.get("/nope");
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    assert!(body.contains("/metrics"), "404 lists the routes: {body}");

    let raw = server.http_raw("POST /metrics HTTP/1.1\r\n\r\n");
    assert!(raw.starts_with("HTTP/1.1 405 "), "POST got: {raw}");

    let raw = server.http_raw("complete garbage\r\n\r\n");
    assert!(raw.starts_with("HTTP/1.1 400 "), "garbage got: {raw}");

    server.shutdown();
}
