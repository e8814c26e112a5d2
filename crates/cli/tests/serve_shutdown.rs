//! Graceful-shutdown integration test: `POST /shutdown` must cancel
//! queued and in-flight jobs through their existing [`engine`] cancel
//! tokens and drain the worker pool promptly.
//!
//! This lives in its own test binary (hence its own process) because it
//! installs a global [`engine::log`] memory sink to observe the job
//! lifecycle; sharing a process with other serve tests would interleave
//! their log lines.

use engine::json::JsonValue;
use engine::log::{self, MemorySink};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use tmfrt_cli::serve::{start, ServeArgs};

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(
        format!(
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
    .expect("send request");
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).expect("read response");
    let text = String::from_utf8_lossy(&buf).into_owned();
    let status = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {text}"));
    (status, text)
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    request(addr, "POST", path, body)
}

/// Polls `GET /jobs` until some job is `running` (panics after `limit`).
fn wait_running(addr: SocketAddr, limit: Duration) {
    let start = Instant::now();
    loop {
        let (status, text) = request(addr, "GET", "/jobs", "");
        assert_eq!(status, 200, "{text}");
        let body = text.split_once("\r\n\r\n").map_or("", |(_, b)| b);
        let doc = JsonValue::parse(body).expect("job index is JSON");
        let jobs = doc.get("jobs").and_then(|j| j.as_array()).expect("jobs");
        if jobs
            .iter()
            .any(|j| j.get("state").and_then(|s| s.as_str()) == Some("running"))
        {
            return;
        }
        assert!(start.elapsed() < limit, "no job started: {body}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn shutdown_cancels_inflight_and_queued_jobs() {
    let mem = MemorySink::new();
    log::set_sink(Box::new(mem.clone()));
    log::set_level(Some(log::Level::Info));

    // One worker, three substantial jobs: the first occupies the worker
    // while the other two sit in the queue. s38417 takes long enough to
    // map, in a release build too, that the queued two cannot finish
    // before the shutdown lands.
    let args = ServeArgs::parse(&[
        "--addr".to_string(),
        "127.0.0.1:0".to_string(),
        "--jobs".to_string(),
        "1".to_string(),
    ])
    .unwrap();
    let handle = start(&args).expect("serve starts");
    let addr = handle.addr;
    let manifest = r#"{"jobs":[
        {"name":"busy0","source":"gen:s38417"},
        {"name":"busy1","source":"gen:s38417"},
        {"name":"busy2","source":"gen:s38417"}]}"#;
    let (status, body) = post(addr, "/jobs", manifest);
    assert_eq!(status, 202, "{body}");

    // Wait for the worker to pick up the first job, then pull the plug.
    wait_running(addr, Duration::from_secs(30));
    let started = Instant::now();
    let (status, _) = post(addr, "/shutdown", "");
    assert_eq!(status, 200);

    // The handle must drain and join without waiting for three full
    // mapping runs — cancelled jobs bail at their next token poll.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.shutdown();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(60))
        .expect("server drained and joined after /shutdown");
    let drained_in = started.elapsed();

    let logs = mem.contents();
    let count = |pat: &str| logs.lines().filter(|l| l.contains(pat)).count();
    assert_eq!(count("\"msg\":\"job queued\""), 3, "{logs}");
    // Cancellation must prevent the queued jobs from running to a clean
    // finish; at most the in-flight one could have squeaked through.
    let finished_ok = logs
        .lines()
        .filter(|l| l.contains("\"msg\":\"job finished\"") && l.contains("\"status\":\"ok\""))
        .count();
    assert!(
        finished_ok <= 1,
        "queued jobs ran to completion despite shutdown (drained in {drained_in:?}): {logs}"
    );
    assert!(logs.contains("\"msg\":\"shutdown requested\""), "{logs}");
    assert!(logs.contains("\"msg\":\"stopped\""), "{logs}");
}
