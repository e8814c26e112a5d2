//! End-to-end tests of `tmfrt serve`: boot the service on an ephemeral
//! port, submit the bundled `small.blif` over HTTP, poll the job to
//! completion, scrape and validate `/metrics`, watch the SSE event
//! stream, and shut down gracefully. One test additionally drives the
//! real `tmfrt` binary to check the stream discipline (logs on stderr,
//! stdout empty).

use engine::JsonValue;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tmfrt_cli::serve::{start, ServeArgs};

fn data_blif() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("data")
        .join("small.blif")
}

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

/// Sends one raw HTTP/1.1 request and returns `(status, body)`. The
/// server closes after every response, so read-to-end terminates.
fn request(addr: SocketAddr, raw: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(raw.as_bytes()).expect("send request");
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).expect("read response");
    let text = String::from_utf8_lossy(&buf).into_owned();
    let status = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {text}"));
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    request(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

fn post(addr: SocketAddr, path: &str, content_type: &str, body: &str) -> (u16, String) {
    request(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Type: {content_type}\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// Polls `GET /jobs/<id>` until the job reports `state: done` (panics
/// after `limit`), returning the final job document.
fn wait_done(addr: SocketAddr, id: u64, limit: Duration) -> JsonValue {
    let start = Instant::now();
    loop {
        let (status, body) = get(addr, &format!("/jobs/{id}"));
        assert_eq!(status, 200, "job {id} lookup failed: {body}");
        let doc = JsonValue::parse(&body).expect("job detail is JSON");
        if doc.get("state").and_then(|s| s.as_str()) == Some("done") {
            return doc;
        }
        assert!(
            start.elapsed() < limit,
            "job {id} did not finish in {limit:?}: {body}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Reads `GET /events` (SSE) until `pattern` appears in the stream or
/// `limit` expires, returning everything read.
fn sse_until(addr: SocketAddr, path: &str, pattern: &str, limit: Duration) -> String {
    let mut s = TcpStream::connect(addr).expect("connect sse");
    s.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: t\r\nAccept: text/event-stream\r\n\r\n").as_bytes(),
    )
    .expect("send sse request");
    s.set_read_timeout(Some(Duration::from_millis(100)))
        .expect("set timeout");
    let start = Instant::now();
    let mut acc = String::new();
    let mut buf = [0u8; 4096];
    while start.elapsed() < limit && !acc.contains(pattern) {
        match s.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => acc.push_str(&String::from_utf8_lossy(&buf[..n])),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => panic!("sse read failed: {e}"),
        }
    }
    assert!(
        acc.contains(pattern),
        "sse stream never sent `{pattern}`: {acc}"
    );
    acc
}

#[test]
fn serve_end_to_end() {
    let args = ServeArgs::parse(&argv("--addr 127.0.0.1:0 --jobs 2")).unwrap();
    let handle = start(&args).expect("serve starts");
    let addr = handle.addr;

    assert_eq!(get(addr, "/healthz"), (200, "ok\n".to_string()));
    assert_eq!(get(addr, "/readyz"), (200, "ready\n".to_string()));

    // Submit the bundled circuit as a raw BLIF body.
    let blif = std::fs::read_to_string(data_blif()).unwrap();
    let (status, body) = post(addr, "/jobs?name=small&verify=64", "text/plain", &blif);
    assert_eq!(status, 202, "{body}");
    let accepted = JsonValue::parse(&body).expect("202 body is JSON");
    let first = &accepted
        .get("accepted")
        .and_then(|a| a.as_array())
        .expect("accepted list")[0];
    let id = first.get("id").and_then(|i| i.as_u64()).expect("job id");
    assert_eq!(first.get("name").and_then(|n| n.as_str()), Some("small"));

    let done = wait_done(addr, id, Duration::from_secs(60));
    assert_eq!(
        done.get("status").and_then(|s| s.as_str()),
        Some("ok"),
        "{done:?}"
    );
    let report = done
        .get("report")
        .and_then(|r| r.as_str())
        .expect("ok job has a report");
    assert!(report.contains("input:"), "{report}");
    assert!(report.contains("verify: equivalent"), "{report}");
    // Final telemetry rides along: counters and the span table.
    assert!(done.get("counters").is_some(), "{done:?}");
    let phi_search = done
        .get("spans")
        .and_then(|s| s.get("phi_search"))
        .expect("phi_search span in the job's table");
    assert!(
        phi_search
            .get("count")
            .and_then(|c| c.as_u64())
            .unwrap_or(0)
            >= 1,
        "{done:?}"
    );
    assert!(phi_search.get("self_micros").is_some(), "{done:?}");

    // The index lists it as done.
    let (status, body) = get(addr, "/jobs");
    assert_eq!(status, 200);
    let index = JsonValue::parse(&body).unwrap();
    let jobs = index
        .get("jobs")
        .and_then(|j| j.as_array())
        .expect("jobs list");
    assert!(jobs
        .iter()
        .any(|j| j.get("id").and_then(|i| i.as_u64()) == Some(id)
            && j.get("state").and_then(|s| s.as_str()) == Some("done")));

    // /metrics validates under the strict checker and counts the job.
    let (status, text) = get(addr, "/metrics");
    assert_eq!(status, 200);
    engine::prom::validate_exposition(&text).expect("metrics must validate");
    assert!(text.contains("tmfrt_jobs{status=\"ok\"} 1\n"), "{text}");
    assert!(
        text.contains("tmfrt_jobs_inflight{state=\"running\"} 0\n"),
        "{text}"
    );
    assert!(
        text.contains("tmfrt_events{counter=\"flow_augmentations\"}"),
        "{text}"
    );

    // The event log replays the job lifecycle over SSE.
    let events = sse_until(
        addr,
        "/events?since=0",
        "\"state\":\"done\"",
        Duration::from_secs(10),
    );
    assert!(events.contains("\"type\":\"job\""), "{events}");
    assert!(events.contains("\"state\":\"queued\""), "{events}");
    assert!(events.contains("\"status\":\"ok\""), "{events}");

    // A deadline of zero seconds trips before any mapping phase ends.
    let manifest = r#"{"jobs":[{"name":"slow","source":"gen:s5378"}]}"#;
    let (status, body) = post(addr, "/jobs?timeout_secs=0", "application/json", manifest);
    assert_eq!(status, 202, "{body}");
    let slow_id = JsonValue::parse(&body)
        .unwrap()
        .get("accepted")
        .and_then(|a| a.as_array())
        .and_then(|a| a[0].get("id").and_then(|i| i.as_u64()))
        .unwrap();
    let slow = wait_done(addr, slow_id, Duration::from_secs(60));
    assert_eq!(
        slow.get("status").and_then(|s| s.as_str()),
        Some("deadline"),
        "{slow:?}"
    );

    // Unknown routes, bad ids, bad methods.
    assert_eq!(get(addr, "/jobs/9999").0, 404);
    assert_eq!(get(addr, "/jobs/abc").0, 400);
    assert_eq!(get(addr, "/nope").0, 404);
    assert_eq!(
        request(
            addr,
            "DELETE / HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .0,
        405
    );
    assert_eq!(post(addr, "/jobs", "text/plain", "").0, 400);
    assert_eq!(
        post(addr, "/jobs", "application/json", r#"{"jobs":[{}]}"#).0,
        400
    );

    // Graceful stop: an open SSE stream gets the shutdown terminator,
    // the handle's thread drains and joins.
    let (tx, rx) = std::sync::mpsc::channel();
    let sse_thread = std::thread::spawn(move || {
        tx.send(()).unwrap();
        sse_until(addr, "/events", "event: shutdown", Duration::from_secs(10))
    });
    rx.recv().unwrap();
    std::thread::sleep(Duration::from_millis(100)); // let the stream attach
    let (status, _) = post(addr, "/shutdown", "text/plain", "");
    assert_eq!(status, 200);
    sse_thread
        .join()
        .expect("sse stream saw the shutdown event");

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("server drained and joined after /shutdown");
}

#[test]
fn serve_trace_endpoint_and_mem_metrics() {
    let args = ServeArgs::parse(&argv("--addr 127.0.0.1:0 --jobs 1 --trace")).unwrap();
    let handle = start(&args).expect("serve starts");
    let addr = handle.addr;

    let blif = std::fs::read_to_string(data_blif()).unwrap();
    let (status, body) = post(addr, "/jobs?name=traced", "text/plain", &blif);
    assert_eq!(status, 202, "{body}");
    let id = JsonValue::parse(&body)
        .unwrap()
        .get("accepted")
        .and_then(|a| a.as_array())
        .and_then(|a| a[0].get("id").and_then(|i| i.as_u64()))
        .unwrap();
    let done = wait_done(addr, id, Duration::from_secs(60));
    assert_eq!(done.get("status").and_then(|s| s.as_str()), Some("ok"));
    // The job detail carries the process peak-RSS context (Linux).
    if engine::mem::peak_rss_kib().is_some() {
        assert!(done.get("process_peak_rss_kib").is_some(), "{done:?}");
    }

    // The finished job's trace is a well-formed Chrome-trace document:
    // the offline analyzer must accept it and see the mapper's spans,
    // and the inline BLIF loads through the same `parse` and `flatten`
    // spans as `tmfrt map`.
    let (status, body) = get(addr, &format!("/jobs/{id}/trace"));
    assert_eq!(status, 200, "{body}");
    let doc = JsonValue::parse(&body).expect("trace body is JSON");
    let mut profile = engine::profile::Profile::new();
    profile.add_trace(&doc).expect("trace is well-formed");
    for span in ["parse", "flatten", "phi_search"] {
        assert!(
            profile.spans.contains_key(span),
            "no {span} span in {:?}",
            profile.spans.keys().collect::<Vec<_>>()
        );
    }

    // Unknown job and bad ids on the trace route.
    assert_eq!(get(addr, "/jobs/9999/trace").0, 404);
    assert_eq!(get(addr, "/jobs/abc/trace").0, 400);

    // /metrics validates with the process-wide allocator gauges present.
    let (status, text) = get(addr, "/metrics");
    assert_eq!(status, 200);
    engine::prom::validate_exposition(&text).expect("metrics must validate");
    assert!(text.contains("tmfrt_process_heap_live_bytes"), "{text}");
    assert!(text.contains("tmfrt_process_heap_peak_bytes"), "{text}");
    assert!(
        text.contains("tmfrt_process_rss_kib{kind=\"peak\"}"),
        "{text}"
    );
    assert!(text.contains("tmfrt_mem_allocs_total"), "{text}");

    handle.shutdown();
}

#[test]
fn serve_report_endpoint_metrics_and_keepalive() {
    let args = ServeArgs::parse(&argv("--addr 127.0.0.1:0 --jobs 1 --trace")).unwrap();
    let handle = start(&args).expect("serve starts");
    let addr = handle.addr;

    // report=1 requires the turbomap-frt flow.
    let blif = std::fs::read_to_string(data_blif()).unwrap();
    let (status, body) = post(
        addr,
        "/jobs?report=1&algorithm=turbomap",
        "text/plain",
        &blif,
    );
    assert_eq!(status, 400, "{body}");
    let (status, body) = post(addr, "/jobs?report=2", "text/plain", &blif);
    assert_eq!(status, 400, "{body}");

    // Unknown parameters (a retired flag, a typo) are refused by name,
    // listing what is accepted, instead of running the job without them.
    for query in ["partition=4", "name=t&verfy=64"] {
        let (status, body) = post(addr, &format!("/jobs?{query}"), "text/plain", &blif);
        assert_eq!(status, 400, "{query}: {body}");
        let key = query.rsplit('&').next().unwrap().split('=').next().unwrap();
        assert!(body.contains(&format!("`{key}`")), "{body}");
        assert!(
            body.contains("name, algorithm, k, verify, report, timeout_secs"),
            "{body}"
        );
    }
    let (_, jobs) = get(addr, "/jobs");
    assert!(
        !jobs.contains("\"id\""),
        "a refused submission queued a job: {jobs}"
    );

    // A report=1 job records a turbomap-report/v2 document.
    let (status, body) = post(addr, "/jobs?name=certified&report=1", "text/plain", &blif);
    assert_eq!(status, 202, "{body}");
    let id = JsonValue::parse(&body)
        .unwrap()
        .get("accepted")
        .and_then(|a| a.as_array())
        .and_then(|a| a[0].get("id").and_then(|i| i.as_u64()))
        .unwrap();
    let done = wait_done(addr, id, Duration::from_secs(60));
    assert_eq!(
        done.get("status").and_then(|s| s.as_str()),
        Some("ok"),
        "{done:?}"
    );
    // The detail document advertises the report and surfaces the
    // headline quality counter and trace health explicitly.
    assert_eq!(
        done.get("report_available")
            .map(|v| matches!(v, JsonValue::Bool(true))),
        Some(true),
        "{done:?}"
    );
    assert!(done.get("frt_capped").and_then(|v| v.as_u64()).is_some());
    assert_eq!(
        done.get("trace_dropped_events").and_then(|v| v.as_u64()),
        Some(0),
        "{done:?}"
    );

    let (status, body) = get(addr, &format!("/jobs/{id}/report"));
    assert_eq!(status, 200, "{body}");
    let doc = JsonValue::parse(&body).expect("report body is JSON");
    assert_eq!(
        doc.get("schema").and_then(|s| s.as_str()),
        Some(report::SCHEMA),
        "{body}"
    );
    assert!(doc.get("witness").is_some(), "{body}");
    assert!(doc.get("timing").is_some(), "{body}");

    // A job submitted without report=1 serves a 404 with a hint.
    let (status, body) = post(addr, "/jobs?name=plain", "text/plain", &blif);
    assert_eq!(status, 202, "{body}");
    let plain_id = JsonValue::parse(&body)
        .unwrap()
        .get("accepted")
        .and_then(|a| a.as_array())
        .and_then(|a| a[0].get("id").and_then(|i| i.as_u64()))
        .unwrap();
    wait_done(addr, plain_id, Duration::from_secs(60));
    let (status, body) = get(addr, &format!("/jobs/{plain_id}/report"));
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("report=1"), "{body}");
    assert_eq!(get(addr, "/jobs/9999/report").0, 404);
    assert_eq!(get(addr, "/jobs/abc/report").0, 400);

    // The dedicated observability families ride /metrics and validate.
    let (status, text) = get(addr, "/metrics");
    assert_eq!(status, 200);
    engine::prom::validate_exposition(&text).expect("metrics must validate");
    assert!(text.contains("tmfrt_trace_dropped_events 0\n"), "{text}");
    assert!(
        text.contains("tmfrt_span_count_total{span=\"phi_search\"}"),
        "{text}"
    );
    assert!(text.contains("tmfrt_frt_capped_total"), "{text}");
    assert!(
        text.contains("tmfrt_events{counter=\"reports_generated\"} 1\n"),
        "{text}"
    );

    // An idle SSE stream emits comment-line keepalives about once per
    // second so proxies do not time the connection out between jobs.
    let acc = sse_until(addr, "/events", ": keepalive", Duration::from_secs(10));
    assert!(acc.contains(": keepalive\n\n"), "{acc}");

    handle.shutdown();
}

#[test]
fn serve_rejects_malformed_body_framing() {
    let args = ServeArgs::parse(&argv("--addr 127.0.0.1:0 --jobs 1")).unwrap();
    let handle = start(&args).expect("serve starts");
    let addr = handle.addr;

    // A body-carrying request without Content-Length must draw 411, not
    // be treated as an empty submission (which would read as a user
    // error, 400, and mask the client's framing bug).
    let (status, body) = request(
        addr,
        "POST /jobs HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 411, "{body}");
    assert!(body.contains("length required"), "{body}");

    // Claiming more bytes than the client sends is a 400 once the
    // half-close reveals the truncation.
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(b"POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\n.model x\n")
        .expect("send truncated request");
    s.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    assert!(out.starts_with("HTTP/1.1 400"), "{out}");

    // Neither malformed request queued a job or hurt the service.
    let (status, body) = get(addr, "/jobs");
    assert_eq!(status, 200);
    let index = JsonValue::parse(&body).unwrap();
    assert!(
        index
            .get("jobs")
            .and_then(|j| j.as_array())
            .is_some_and(|j| j.is_empty()),
        "{body}"
    );
    assert_eq!(get(addr, "/healthz").0, 200);
    handle.shutdown();
}

#[test]
fn serve_binary_logs_to_stderr_only() {
    // Drive the real binary: the startup log line reports the ephemeral
    // port, stdout stays empty (stream discipline), exit is clean.
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_tmfrt"))
        .args(["serve", "--addr", "127.0.0.1:0", "--jobs", "1"])
        .env("TMFRT_LOG", "info")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("tmfrt serve spawns");
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut line = String::new();
    let addr: SocketAddr = loop {
        line.clear();
        assert_ne!(
            stderr.read_line(&mut line).unwrap(),
            0,
            "serve exited early"
        );
        let doc = JsonValue::parse(line.trim()).expect("stderr lines are JSON");
        if doc.get("msg").and_then(|m| m.as_str()) == Some("listening") {
            break doc
                .get("fields")
                .and_then(|f| f.get("addr"))
                .and_then(|a| a.as_str())
                .expect("listening line carries addr")
                .parse()
                .expect("addr parses");
        }
    };
    // Keep draining stderr so the child never blocks on a full pipe,
    // collecting the lines for the JSON check below.
    let drain = std::thread::spawn(move || {
        let mut lines = Vec::new();
        let mut line = String::new();
        while stderr.read_line(&mut line).unwrap_or(0) != 0 {
            lines.push(line.trim().to_string());
            line.clear();
        }
        lines
    });

    assert_eq!(get(addr, "/healthz"), (200, "ok\n".to_string()));
    let blif = std::fs::read_to_string(data_blif()).unwrap();
    let (status, body) = post(addr, "/jobs?name=bin&verify=16", "text/plain", &blif);
    assert_eq!(status, 202, "{body}");
    let id = JsonValue::parse(&body)
        .unwrap()
        .get("accepted")
        .and_then(|a| a.as_array())
        .and_then(|a| a[0].get("id").and_then(|i| i.as_u64()))
        .unwrap();
    let done = wait_done(addr, id, Duration::from_secs(60));
    assert_eq!(done.get("status").and_then(|s| s.as_str()), Some("ok"));

    assert_eq!(post(addr, "/shutdown", "text/plain", "").0, 200);
    let out = child.wait_with_output().expect("serve exits");
    assert!(
        out.status.success(),
        "serve exited nonzero: {:?}",
        out.status
    );
    assert!(out.stdout.is_empty(), "serve wrote to stdout");
    for l in drain.join().unwrap() {
        let doc =
            JsonValue::parse(&l).unwrap_or_else(|e| panic!("non-JSON stderr line `{l}`: {e}"));
        assert!(
            doc.get("level").is_some() && doc.get("msg").is_some(),
            "{l}"
        );
    }
}
