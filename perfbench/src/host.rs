//! What the benchmark reads from the host: provenance, peak memory and a
//! socket's TCP segment counts. Everything here is Linux (`/proc`, `/sys`
//! and `TCP_INFO`); a missing file reads as unknown rather than failing the
//! run.

use std::fs;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::process::Command;

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Segments sent plus segments received on `stream` so far, from the
/// kernel's per-socket `TCP_INFO` (`tcpi_segs_out + tcpi_segs_in`, Linux
/// 4.2 and later). Other traffic in the network namespace cannot leak into
/// it. On loopback the two ends mirror each other, so one end's sum is every
/// segment of the connection.
pub fn tcp_segments(stream: &TcpStream) -> Option<u64> {
    const SOL_TCP: i32 = 6;
    const TCP_INFO: i32 = 11;
    /// `offsetof(struct tcp_info, tcpi_segs_out)`; `tcpi_segs_in` follows.
    const SEGS_OUT: usize = 136;
    extern "C" {
        fn getsockopt(fd: i32, level: i32, name: i32, value: *mut u8, len: *mut u32) -> i32;
    }
    let mut info = [0u8; 256];
    let mut len = info.len() as u32;
    // SAFETY: `info` is valid for writes of `len` bytes and `len` points to
    // a live u32; the kernel writes at most `len` bytes of option data and
    // stores the written length back into `len`.
    let rc = unsafe {
        getsockopt(
            stream.as_raw_fd(),
            SOL_TCP,
            TCP_INFO,
            info.as_mut_ptr(),
            &mut len,
        )
    };
    if rc != 0 || (len as usize) < SEGS_OUT + 8 {
        return None;
    }
    let word = |at: usize| {
        let bytes: [u8; 4] = info[at..at + 4].try_into().expect("4-byte slice");
        u64::from(u32::from_ne_bytes(bytes))
    };
    Some(word(SEGS_OUT) + word(SEGS_OUT + 4))
}

/// The machine and build a result was measured on, as one JSON object.
pub fn provenance_json(workload: &str, seed: u64, held_out_seed: u64) -> String {
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string());
    format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {seed}, \"held_out_seed\": {held_out_seed}, \
         \"cpu\": {}, \"nproc\": {nproc}, \"l2\": {}, \"l3\": {}, \"rustc\": {}, \"git_head\": {}}}}}",
        json_str(Some(workload)),
        json_str(cpu.as_deref()),
        json_str(cache_size(2).as_deref()),
        json_str(cache_size(3).as_deref()),
        json_str(rustc.as_deref()),
        json_str(git_head().as_deref()),
    )
}

/// The size string (e.g. `2048K`) of cpu0's unified or data cache at
/// `level`.
fn cache_size(level: u32) -> Option<String> {
    (0..8).find_map(|index| {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |file: &str| fs::read_to_string(format!("{dir}/{file}")).ok();
        let kind = read("type")?;
        (read("level")?.trim() == level.to_string() && kind.trim() != "Instruction")
            .then(|| read("size"))
            .flatten()
            .map(|s| s.trim().to_string())
    })
}

/// The commit checked out in the working directory, read from `.git`
/// without leaving it. `None` outside a git checkout.
fn git_head() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(commit) = fs::read_to_string(format!(".git/{reference}")) {
        return Some(commit.trim().to_string());
    }
    let packed = fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// A JSON string literal, or `null`.
fn json_str(value: Option<&str>) -> String {
    match value {
        Some(text) => serde_json::to_string(&text).expect("strings always serialize"),
        None => "null".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_reads_this_process() {
        let rss = peak_rss_mb("self").expect("Linux /proc is mounted");
        assert!(rss > 0.0);
    }

    #[test]
    fn socket_segment_counts_mirror_across_a_loopback_pair() {
        use std::io::{Read, Write};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        // Deltas, not totals: the accepted socket never saw the SYN the
        // listener answered.
        let client_start = tcp_segments(&client).unwrap();
        let server_start = tcp_segments(&server).unwrap();
        for _ in 0..3 {
            client.write_all(b"ping").unwrap();
            let mut buf = [0u8; 4];
            server.read_exact(&mut buf).unwrap();
            server.write_all(b"pong").unwrap();
            client.read_exact(&mut buf).unwrap();
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
        let client_moved = tcp_segments(&client).unwrap() - client_start;
        assert!(client_moved >= 6, "three exchanges, two data segments each");
        assert_eq!(client_moved, tcp_segments(&server).unwrap() - server_start);
    }

    #[test]
    fn provenance_is_one_json_object() {
        let line = provenance_json("elect-annulus", 7, 13);
        let value: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        assert!(matches!(value, serde_json::Value::Object(_)));
        assert!(line.contains("\"seed\": 7"));
    }
}
