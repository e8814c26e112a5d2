//! `tmfrt serve` — a live observability service over the batch engine.
//!
//! Boots the dependency-free [`engine::http`] server and accepts mapping
//! jobs over HTTP: `POST /jobs` with a BLIF body (or a JSON manifest of
//! several sources) enqueues each circuit on a long-lived
//! [`engine::Pool`], exactly as `tmfrt batch` does — panic-isolated,
//! deadline-bounded through [`engine::CancelToken`]s, with per-job
//! telemetry. While a job runs, its counters, spans, innermost open span
//! and heap-accounting peaks are readable by other threads through the
//! [`engine::telemetry::LiveTelemetry`] mirror, so `GET /jobs/<id>`
//! shows counters- and peak-heap-so-far, `GET /metrics` folds running
//! jobs into the Prometheus exposition (including the process-wide
//! allocator gauges from [`engine::mem`]), and `GET /events` streams
//! job-lifecycle and span-transition events as Server-Sent Events.
//! With `--trace`, every job also records its spans, and
//! `GET /jobs/<id>/trace` serves the finished job's Chrome-trace JSON
//! (loadable in Perfetto, analyzable offline with `tmfrt profile`).
//!
//! Shutdown is graceful and cooperative: `POST /shutdown` (or tripping
//! the handle's token programmatically) stops the accept loop, cancels
//! every queued and running job through its token, and drains workers.
//!
//! Discipline: nothing is ever written to stdout; all diagnostics are
//! structured JSON lines on stderr through [`engine::log`] (so `-q` and
//! `TMFRT_LOG` control them).

use crate::{load_circuit, run, Args};
use engine::cancel::{self, CancelReason};
use engine::http::{Request, Response, Server, ServerConfig};
use engine::telemetry::{self, Counter, LiveTelemetry, Telemetry, COUNTER_NAMES};
use engine::{log, trace, CancelToken, JsonValue, Pool, PromWriter};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Usage text for the `serve` subcommand.
pub const SERVE_USAGE: &str = "\
tmfrt serve — live mapping service with /metrics, /jobs and SSE events

USAGE: tmfrt serve [--addr HOST:PORT] [--jobs N] [--timeout-secs S]
                   [--trace] [-a ALGO] [-k K] [--verify N] [--pack]
                   [--strash] [--pushback] [--partitions K|auto] [-q]

  --addr A          listen address (default 127.0.0.1:7878; port 0 picks
                    an ephemeral port, reported in the startup log line)
  --jobs N          mapping worker threads (default 2)
  --timeout-secs S  default per-job soft deadline
  --trace           record spans per job; GET /jobs/<id>/trace serves the
                    finished job's Chrome-trace JSON
  remaining flags   default flow options for submitted jobs (overridable
                    per request via query parameters)

ENDPOINTS
  POST /jobs        submit a BLIF body (?name=&algorithm=&k=&verify=&
                    partition=&timeout_secs=&report=1
                    override defaults; partition=K|auto|off maps the job
                    partition-and-conquer) or a JSON manifest
                    {\"jobs\":[{\"name\":…,\"source\":\"gen:…|path\"|\"blif\":…}]}
                    report=1 (turbomap-frt only) also records a
                    turbomap-report/v1 certificate per job
  GET  /jobs        all jobs (id, state, status, wall)
  GET  /jobs/<id>   one job: spans, counters and peak heap so far plus
                    the innermost open span while running, final
                    telemetry and report when done
  GET  /jobs/<id>/report  the job's turbomap-report/v1 JSON (requires a
                    finished report=1 job; 404 otherwise)
  GET  /jobs/<id>/trace  the job's Chrome-trace JSON (requires --trace
                    and a finished job; 404 otherwise)
  GET  /metrics     Prometheus text exposition (live + finished jobs)
  GET  /events      Server-Sent Events: job lifecycle + span transitions
  GET  /healthz     liveness   GET /readyz  readiness
  POST /shutdown    graceful stop: cancels in-flight jobs, drains, exits

Logs are JSON lines on stderr (TMFRT_LOG=error|warn|info|debug|trace|off);
stdout stays empty.";

/// Parsed `serve` arguments.
#[derive(Debug, Clone)]
pub struct ServeArgs {
    /// Listen address.
    pub addr: String,
    /// Mapping worker threads.
    pub jobs: usize,
    /// Default per-job soft deadline.
    pub timeout: Option<Duration>,
    /// Record spans per job and serve them on `/jobs/<id>/trace`.
    pub trace: bool,
    /// Default flow options for submitted jobs.
    pub run: Args,
    /// Quiet: raises the log filter to `error` (unless `TMFRT_LOG` is
    /// set explicitly).
    pub quiet: bool,
}

impl ServeArgs {
    /// Parses `serve` arguments (everything after the subcommand word).
    ///
    /// # Errors
    ///
    /// Returns a usage message on malformed input.
    pub fn parse(raw: &[String]) -> Result<ServeArgs, String> {
        let mut out = ServeArgs {
            addr: "127.0.0.1:7878".to_string(),
            jobs: 2,
            timeout: None,
            trace: false,
            run: Args::parse(&["placeholder".to_string()]).expect("placeholder args parse"),
            quiet: false,
        };
        out.run.input = String::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--addr" => {
                    out.addr = it
                        .next()
                        .ok_or_else(|| "--addr needs HOST:PORT".to_string())?
                        .clone();
                }
                "--jobs" => {
                    out.jobs = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| "--jobs needs a number".to_string())?;
                }
                "--timeout-secs" => {
                    let s: u64 = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| "--timeout-secs needs a number".to_string())?;
                    out.timeout = Some(Duration::from_secs(s));
                }
                "--trace" => out.trace = true,
                "-a" | "--algorithm" => {
                    out.run.algorithm = it
                        .next()
                        .ok_or_else(|| "--algorithm needs a name".to_string())?
                        .parse()?;
                }
                "-k" => {
                    out.run.k = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| "-k needs a number ≥ 2".to_string())?;
                    if out.run.k < 2 {
                        return Err("-k must be at least 2".into());
                    }
                }
                "--verify" => {
                    out.run.verify = Some(
                        it.next()
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| "--verify needs a vector count".to_string())?,
                    );
                }
                "--pack" => out.run.pack = true,
                "--strash" => out.run.strash = true,
                "--pushback" => out.run.pushback = true,
                "--partitions" => {
                    let v = it
                        .next()
                        .ok_or_else(|| "--partitions needs a count or `auto`".to_string())?;
                    out.run.partitions = Some(crate::parse_partitions(v)?);
                }
                "-q" | "--quiet" => out.quiet = true,
                "-h" | "--help" => return Err(SERVE_USAGE.to_string()),
                other => return Err(format!("unexpected argument `{other}`\n{SERVE_USAGE}")),
            }
        }
        Ok(out)
    }
}

/// Job lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Done,
}

impl JobState {
    fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
        }
    }
}

/// One tracked job.
struct JobRecord {
    id: u64,
    name: String,
    state: JobState,
    /// Final status keyword (`ok`/`failed`/`panicked`/`deadline`).
    status: Option<&'static str>,
    /// Error message for non-ok outcomes.
    error: Option<String>,
    /// The run's human-readable report (ok outcomes).
    report: Option<String>,
    /// The run's rendered `turbomap-report/v1` document (`report=1`
    /// submissions, ok outcomes). Served on `GET /jobs/<id>/report`.
    report_json: Option<String>,
    started: Option<Instant>,
    wall: Option<Duration>,
    deadline: Option<Instant>,
    limit: Option<Duration>,
    token: CancelToken,
    live: Arc<LiveTelemetry>,
    final_telemetry: Option<Telemetry>,
    /// Spans harvested from the job thread (`--trace` runs only).
    trace: Option<trace::TraceBuffer>,
    /// Last innermost span published to the event stream (monitor
    /// state).
    last_span: Option<&'static str>,
}

/// Bounded in-memory event log backing `GET /events`.
struct EventLog {
    /// `(sequence, rendered JSON)` pairs, oldest first.
    entries: Vec<(u64, String)>,
    next_seq: u64,
}

const EVENT_CAPACITY: usize = 4096;

/// Shared state of one serve instance.
struct ServeState {
    jobs: Mutex<Vec<JobRecord>>,
    events: Mutex<EventLog>,
    /// The mapping pool; `None` once shutdown has drained it.
    pool: Mutex<Option<Pool>>,
    next_id: AtomicU64,
    shutdown: CancelToken,
    defaults: ServeArgs,
    epoch: Instant,
}

impl ServeState {
    fn push_event(&self, kind: &str, mut fields: Vec<(&str, JsonValue)>) {
        let mut pairs = vec![("type", JsonValue::str(kind))];
        pairs.append(&mut fields);
        pairs.push((
            "uptime_micros",
            JsonValue::UInt(self.epoch.elapsed().as_micros() as u64),
        ));
        let rendered = JsonValue::object(pairs).render();
        let mut log = self.events.lock().expect("events poisoned");
        let seq = log.next_seq;
        log.next_seq += 1;
        log.entries.push((seq, rendered));
        if log.entries.len() > EVENT_CAPACITY {
            let excess = log.entries.len() - EVENT_CAPACITY;
            log.entries.drain(..excess);
        }
    }

    /// Events with sequence number ≥ `from`.
    fn events_since(&self, from: u64) -> Vec<(u64, String)> {
        self.events
            .lock()
            .expect("events poisoned")
            .entries
            .iter()
            .filter(|(seq, _)| *seq >= from)
            .cloned()
            .collect()
    }
}

/// A running serve instance: address, shutdown token, join handle.
pub struct ServeHandle {
    /// The bound listen address.
    pub addr: std::net::SocketAddr,
    shutdown: CancelToken,
    thread: std::thread::JoinHandle<()>,
}

impl ServeHandle {
    /// A clone of the shutdown token (`POST /shutdown` trips the same
    /// one).
    pub fn shutdown_token(&self) -> CancelToken {
        self.shutdown.clone()
    }

    /// Requests shutdown and waits for the server to drain and exit.
    pub fn shutdown(self) {
        self.shutdown.cancel();
        let _ = self.thread.join();
    }
}

/// Boots the service on a background thread and returns its handle.
///
/// # Errors
///
/// Returns a message when the listen address cannot be bound.
pub fn start(args: &ServeArgs) -> Result<ServeHandle, String> {
    let server = Server::bind(&args.addr, ServerConfig::default())
        .map_err(|e| format!("binding `{}`: {e}", args.addr))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let shutdown = server.shutdown_token();
    let state = Arc::new(ServeState {
        jobs: Mutex::new(Vec::new()),
        events: Mutex::new(EventLog {
            entries: Vec::new(),
            next_seq: 0,
        }),
        pool: Mutex::new(Some(Pool::new(args.jobs))),
        next_id: AtomicU64::new(0),
        shutdown: shutdown.clone(),
        defaults: args.clone(),
        epoch: Instant::now(),
    });
    if args.trace {
        trace::set_enabled(true);
    }
    log::info(
        "tmfrt::serve",
        "listening",
        &[
            ("addr", JsonValue::str(addr.to_string())),
            ("workers", JsonValue::UInt(args.jobs.max(1) as u64)),
        ],
    );

    // Monitor thread: enforces job deadlines and publishes span
    // transitions of running jobs to the event stream.
    let monitor = {
        let state = Arc::clone(&state);
        std::thread::Builder::new()
            .name("tmfrt-serve-monitor".into())
            .spawn(move || monitor_loop(&state))
            .map_err(|e| format!("spawning monitor: {e}"))?
    };

    let handler_state = Arc::clone(&state);
    let thread = std::thread::Builder::new()
        .name("tmfrt-serve".into())
        .spawn(move || {
            let st = Arc::clone(&handler_state);
            let served = server.serve(Arc::new(move |req| route(&st, req)));
            if let Err(e) = served {
                log::error(
                    "tmfrt::serve",
                    "server error",
                    &[("error", JsonValue::str(e.to_string()))],
                );
            }
            // Drain: cancel anything still queued or running, then wait
            // for the pool so no worker outlives the service.
            for job in handler_state.jobs.lock().expect("jobs poisoned").iter() {
                if job.state != JobState::Done {
                    job.token.cancel();
                }
            }
            let pool = handler_state.pool.lock().expect("pool poisoned").take();
            drop(pool); // Pool::drop waits for in-flight jobs.
            let _ = monitor.join();
            log::info("tmfrt::serve", "stopped", &[]);
        })
        .map_err(|e| format!("spawning server thread: {e}"))?;
    Ok(ServeHandle {
        addr,
        shutdown,
        thread,
    })
}

/// Runs the service in the foreground until shutdown.
///
/// # Errors
///
/// Returns a message when the listen address cannot be bound.
pub fn run_serve(args: &ServeArgs) -> Result<(), String> {
    let handle = start(args)?;
    let _ = handle.thread.join();
    Ok(())
}

fn monitor_loop(state: &ServeState) {
    while !state.shutdown.is_cancelled() {
        let mut transitions: Vec<(u64, &'static str)> = Vec::new();
        {
            let mut jobs = state.jobs.lock().expect("jobs poisoned");
            let now = Instant::now();
            for job in jobs.iter_mut() {
                if job.state != JobState::Running {
                    continue;
                }
                if let Some(deadline) = job.deadline {
                    if deadline <= now && !job.token.is_cancelled() {
                        job.token.cancel_deadline();
                        log::warn(
                            "tmfrt::serve",
                            "deadline tripped",
                            &[("job", JsonValue::UInt(job.id))],
                        );
                    }
                }
                let span = job.live.current_span();
                if span != job.last_span {
                    if let Some(name) = span {
                        transitions.push((job.id, name));
                    }
                    job.last_span = span;
                }
            }
        }
        for (id, span) in transitions {
            state.push_event(
                "span",
                vec![("job", JsonValue::UInt(id)), ("span", JsonValue::str(span))],
            );
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Routes one request.
fn route(state: &Arc<ServeState>, req: Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/readyz") => {
            if state.shutdown.is_cancelled() {
                Response::text(503, "shutting down\n")
            } else {
                Response::text(200, "ready\n")
            }
        }
        ("GET", "/metrics") => Response {
            status: 200,
            content_type: "text/plain; version=0.0.4".into(),
            headers: Vec::new(),
            body: engine::http::Body::Bytes(render_metrics(state).into_bytes()),
        },
        ("GET", "/jobs") => Response::json(200, &jobs_index(state)),
        ("POST", "/jobs") => submit_jobs(state, &req),
        ("GET", path) if path.starts_with("/jobs/") && path.ends_with("/trace") => {
            let id = &path["/jobs/".len()..path.len() - "/trace".len()];
            match id.parse() {
                Ok(id) => job_trace(state, id),
                Err(_) => Response::bad_request("job id must be a number"),
            }
        }
        ("GET", path) if path.starts_with("/jobs/") && path.ends_with("/report") => {
            let id = &path["/jobs/".len()..path.len() - "/report".len()];
            match id.parse() {
                Ok(id) => job_report(state, id),
                Err(_) => Response::bad_request("job id must be a number"),
            }
        }
        ("GET", path) if path.starts_with("/jobs/") => match path["/jobs/".len()..].parse() {
            Ok(id) => match job_detail(state, id) {
                Some(v) => Response::json(200, &v),
                None => Response::not_found(),
            },
            Err(_) => Response::bad_request("job id must be a number"),
        },
        ("GET", "/events") => sse_events(state, &req),
        ("POST", "/shutdown") => {
            log::info("tmfrt::serve", "shutdown requested", &[]);
            for job in state.jobs.lock().expect("jobs poisoned").iter() {
                if job.state != JobState::Done {
                    job.token.cancel();
                }
            }
            state.shutdown.cancel();
            Response::text(200, "shutting down\n")
        }
        ("GET" | "POST", _) => Response::not_found(),
        _ => Response::method_not_allowed(),
    }
}

/// One submission parsed out of a `POST /jobs` request.
struct Submission {
    name: String,
    /// `gen:<preset>` or a file path (mutually exclusive with `blif`).
    source: Option<String>,
    /// Inline BLIF text.
    blif: Option<String>,
}

fn submit_jobs(state: &Arc<ServeState>, req: &Request) -> Response {
    if state.shutdown.is_cancelled() {
        return Response::text(503, "shutting down\n");
    }
    // A submission must declare its body: without Content-Length the
    // request legally has none (RFC 9112 §6.3), and treating it as an
    // empty submission would mask the client's framing bug as a 400.
    if !req.declares_body() {
        return Response::length_required();
    }
    // Per-request overrides of the serve-level defaults.
    let mut run_args = state.defaults.run.clone();
    if let Some(a) = req.query_param("algorithm") {
        match a.parse() {
            Ok(algo) => run_args.algorithm = algo,
            Err(e) => return Response::bad_request(e),
        }
    }
    if let Some(k) = req.query_param("k") {
        match k.parse::<usize>() {
            Ok(k) if k >= 2 => run_args.k = k,
            _ => return Response::bad_request("k must be a number ≥ 2"),
        }
    }
    if let Some(v) = req.query_param("verify") {
        match v.parse::<usize>() {
            Ok(n) => run_args.verify = Some(n),
            Err(_) => return Response::bad_request("verify must be a vector count"),
        }
    }
    if let Some(p) = req.query_param("partition") {
        match p {
            "0" | "off" => run_args.partitions = None,
            _ => match crate::parse_partitions(p) {
                Ok(n) => {
                    if run_args.algorithm != crate::Algorithm::TurboMapFrt {
                        return Response::bad_request(
                            "partition= is only available with turbomap-frt",
                        );
                    }
                    run_args.partitions = Some(n);
                }
                Err(_) => {
                    return Response::bad_request("partition must be a count ≥ 1, `auto`, or 0/off")
                }
            },
        }
    }
    if let Some(r) = req.query_param("report") {
        match r {
            "1" | "true" => {
                if run_args.algorithm != crate::Algorithm::TurboMapFrt {
                    return Response::bad_request("report=1 is only available with turbomap-frt");
                }
                run_args.report_inline = true;
            }
            "0" | "false" => run_args.report_inline = false,
            _ => return Response::bad_request("report must be 0 or 1"),
        }
    }
    let mut limit = state.defaults.timeout;
    if let Some(t) = req.query_param("timeout_secs") {
        match t.parse::<u64>() {
            Ok(s) => limit = Some(Duration::from_secs(s)),
            Err(_) => return Response::bad_request("timeout_secs must be a number"),
        }
    }

    let body = req.body_text();
    let is_manifest = req
        .header("content-type")
        .is_some_and(|t| t.contains("application/json"))
        || body.trim_start().starts_with('{');
    let submissions = if is_manifest {
        match parse_manifest(&body) {
            Ok(s) => s,
            Err(e) => return Response::bad_request(e),
        }
    } else {
        if body.trim().is_empty() {
            return Response::bad_request("empty body: expected BLIF text or a JSON manifest");
        }
        vec![Submission {
            name: req.query_param("name").unwrap_or("circuit").to_string(),
            source: None,
            blif: Some(body),
        }]
    };
    if submissions.is_empty() {
        return Response::bad_request("manifest has no jobs");
    }

    let mut accepted = Vec::new();
    for sub in submissions {
        let id = state.next_id.fetch_add(1, Ordering::Relaxed);
        let token = CancelToken::new();
        let live = Arc::new(LiveTelemetry::new());
        let record = JobRecord {
            id,
            name: sub.name.clone(),
            state: JobState::Queued,
            status: None,
            error: None,
            report: None,
            report_json: None,
            started: None,
            wall: None,
            deadline: None,
            limit,
            token: token.clone(),
            live: Arc::clone(&live),
            final_telemetry: None,
            trace: None,
            last_span: None,
        };
        state.jobs.lock().expect("jobs poisoned").push(record);
        state.push_event(
            "job",
            vec![
                ("job", JsonValue::UInt(id)),
                ("name", JsonValue::str(sub.name.clone())),
                ("state", JsonValue::str("queued")),
            ],
        );
        log::info(
            "tmfrt::serve",
            "job queued",
            &[
                ("job", JsonValue::UInt(id)),
                ("name", JsonValue::str(sub.name.clone())),
            ],
        );
        let worker_state = Arc::clone(state);
        let worker_args = run_args.clone();
        let sub_name = sub.name.clone();
        let mut pool = state.pool.lock().expect("pool poisoned");
        match pool.as_mut() {
            Some(pool) => {
                pool.spawn(move || execute_job(&worker_state, id, &worker_args, sub, token, live));
            }
            None => return Response::text(503, "shutting down\n"),
        }
        accepted.push(JsonValue::object(vec![
            ("id", JsonValue::UInt(id)),
            ("name", JsonValue::str(sub_name)),
        ]));
    }
    Response::json(
        202,
        &JsonValue::object(vec![("accepted", JsonValue::Array(accepted))]),
    )
}

fn parse_manifest(body: &str) -> Result<Vec<Submission>, String> {
    let doc = JsonValue::parse(body).map_err(|e| format!("manifest: {e}"))?;
    let jobs = doc
        .get("jobs")
        .and_then(|j| j.as_array())
        .ok_or("manifest needs a `jobs` array")?;
    let mut out = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let source = job.get("source").and_then(|s| s.as_str()).map(String::from);
        let blif = job.get("blif").and_then(|b| b.as_str()).map(String::from);
        if source.is_none() == blif.is_none() {
            return Err(format!(
                "manifest job {i}: exactly one of `source` or `blif` required"
            ));
        }
        let name = job
            .get("name")
            .and_then(|n| n.as_str())
            .map(String::from)
            .or_else(|| source.clone())
            .unwrap_or_else(|| format!("job{i}"));
        out.push(Submission { name, source, blif });
    }
    Ok(out)
}

/// Runs one job on a pool worker: the same isolation/telemetry protocol
/// as `engine::batch`, but reporting into the live registry.
fn execute_job(
    state: &Arc<ServeState>,
    id: u64,
    run_args: &Args,
    sub: Submission,
    token: CancelToken,
    live: Arc<LiveTelemetry>,
) {
    {
        let mut jobs = state.jobs.lock().expect("jobs poisoned");
        let job = jobs.iter_mut().find(|j| j.id == id).expect("job exists");
        if token.is_cancelled() {
            // Shutdown beat the queue: never started.
            job.state = JobState::Done;
            job.status = Some("failed");
            job.error = Some("cancelled before start".into());
            job.wall = Some(Duration::ZERO);
            return;
        }
        job.state = JobState::Running;
        let now = Instant::now();
        job.started = Some(now);
        job.deadline = job.limit.map(|l| now + l);
    }
    state.push_event(
        "job",
        vec![
            ("job", JsonValue::UInt(id)),
            ("name", JsonValue::str(sub.name.clone())),
            ("state", JsonValue::str("running")),
        ],
    );

    let guard = cancel::install(token.clone());
    telemetry::reset();
    trace::job_start();
    let log_guard = log::with_job(sub.name.clone());
    let mirror_guard = telemetry::install_mirror(Arc::clone(&live));
    let start = Instant::now();
    let mut run_args = run_args.clone();
    let caught = catch_unwind(AssertUnwindSafe(|| {
        let circuit = match &sub.blif {
            Some(text) => blifio::read_circuit_str(text).map_err(|e| e.to_string())?,
            None => {
                run_args.input = sub.source.clone().unwrap_or_default();
                load_circuit(&run_args)?
            }
        };
        run(&run_args, &circuit)
    }));
    let wall = start.elapsed();
    drop(mirror_guard);
    drop(log_guard);
    let final_telemetry = telemetry::take();
    let trace_buffer = trace::take_if_enabled();
    drop(guard);

    let deadline_hit = token.reason() == Some(CancelReason::Deadline);
    type Outcome = (&'static str, Option<String>, Option<String>, Option<String>);
    let (status, error, report, report_json): Outcome = match caught {
        Ok(Ok(outcome)) => ("ok", None, Some(outcome.report), outcome.report_json),
        Ok(Err(_)) if deadline_hit => ("deadline", Some("deadline exceeded".into()), None, None),
        Ok(Err(e)) => ("failed", Some(e), None, None),
        Err(_) if deadline_hit => ("deadline", Some("deadline exceeded".into()), None, None),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            ("panicked", Some(msg), None, None)
        }
    };
    {
        let mut jobs = state.jobs.lock().expect("jobs poisoned");
        let job = jobs.iter_mut().find(|j| j.id == id).expect("job exists");
        job.state = JobState::Done;
        job.status = Some(status);
        job.error = error.clone();
        job.report = report;
        job.report_json = report_json;
        job.wall = Some(wall);
        job.final_telemetry = Some(final_telemetry);
        job.trace = trace_buffer;
    }
    state.push_event(
        "job",
        vec![
            ("job", JsonValue::UInt(id)),
            ("name", JsonValue::str(sub.name.clone())),
            ("state", JsonValue::str("done")),
            ("status", JsonValue::str(status)),
        ],
    );
    log::info(
        "tmfrt::serve",
        "job finished",
        &[
            ("job", JsonValue::UInt(id)),
            ("status", JsonValue::str(status)),
            ("micros", JsonValue::UInt(wall.as_micros() as u64)),
        ],
    );
}

fn jobs_index(state: &ServeState) -> JsonValue {
    let jobs = state.jobs.lock().expect("jobs poisoned");
    let list = jobs
        .iter()
        .map(|j| {
            let mut pairs = vec![
                ("id", JsonValue::UInt(j.id)),
                ("name", JsonValue::str(j.name.clone())),
                ("state", JsonValue::str(j.state.as_str())),
            ];
            if let Some(status) = j.status {
                pairs.push(("status", JsonValue::str(status)));
            }
            if let Some(wall) = j.wall {
                pairs.push(("wall_micros", JsonValue::UInt(wall.as_micros() as u64)));
            }
            JsonValue::object(pairs)
        })
        .collect();
    JsonValue::object(vec![("jobs", JsonValue::Array(list))])
}

fn telemetry_json(
    t: &Telemetry,
    current_span: Option<&'static str>,
) -> Vec<(&'static str, JsonValue)> {
    let counters = COUNTER_NAMES
        .iter()
        .zip(t.counters.iter())
        .map(|(name, v)| (*name, JsonValue::UInt(*v)))
        .collect();
    let spans = t
        .spans
        .sorted()
        .into_iter()
        .map(|(name, s)| {
            let fields = JsonValue::object(vec![
                ("count", JsonValue::UInt(s.count)),
                ("wall_micros", JsonValue::UInt(s.wall_nanos / 1_000)),
                ("self_micros", JsonValue::UInt(s.self_nanos / 1_000)),
            ]);
            (name, fields)
        })
        .collect();
    // The headline quality counter also surfaces as an explicit field so
    // dashboards need not dig through the counters object.
    let mut pairs = vec![
        ("frt_capped", JsonValue::UInt(t.counter(Counter::FrtCapped))),
        ("counters", JsonValue::object(counters)),
        ("spans", JsonValue::object(spans)),
    ];
    if !t.mem.is_empty() {
        pairs.push((
            "mem",
            JsonValue::object(vec![
                ("peak_heap_bytes", JsonValue::UInt(t.mem.peak_bytes)),
                ("allocs", JsonValue::UInt(t.mem.allocs)),
                ("alloc_bytes", JsonValue::UInt(t.mem.alloc_bytes)),
            ]),
        ));
    }
    if let Some(span) = current_span {
        pairs.push(("span", JsonValue::str(span)));
    }
    pairs
}

/// `GET /jobs/<id>/trace`: the finished job's Chrome-trace document.
fn job_trace(state: &ServeState, id: u64) -> Response {
    let jobs = state.jobs.lock().expect("jobs poisoned");
    let Some(j) = jobs.iter().find(|j| j.id == id) else {
        return Response::not_found();
    };
    match &j.trace {
        Some(buffer) => {
            let doc = trace::chrome_trace(buffer, &j.name);
            Response::json(200, &doc)
        }
        None => Response::text(
            404,
            "no trace recorded: start the server with --trace and wait for the job to finish\n",
        ),
    }
}

/// `GET /jobs/<id>/report`: the finished job's `turbomap-report/v1`
/// certificate + attribution document.
fn job_report(state: &ServeState, id: u64) -> Response {
    let jobs = state.jobs.lock().expect("jobs poisoned");
    let Some(j) = jobs.iter().find(|j| j.id == id) else {
        return Response::not_found();
    };
    match &j.report_json {
        Some(doc) => Response {
            status: 200,
            content_type: "application/json".into(),
            headers: Vec::new(),
            body: engine::http::Body::Bytes(doc.clone().into_bytes()),
        },
        None => Response::text(
            404,
            "no report recorded: submit with ?report=1 (turbomap-frt) and wait for the job to \
             finish\n",
        ),
    }
}

fn job_detail(state: &ServeState, id: u64) -> Option<JsonValue> {
    let jobs = state.jobs.lock().expect("jobs poisoned");
    let j = jobs.iter().find(|j| j.id == id)?;
    let mut pairs = vec![
        ("id", JsonValue::UInt(j.id)),
        ("name", JsonValue::str(j.name.clone())),
        ("state", JsonValue::str(j.state.as_str())),
    ];
    if let Some(status) = j.status {
        pairs.push(("status", JsonValue::str(status)));
    }
    if let Some(err) = &j.error {
        pairs.push(("error", JsonValue::str(err.clone())));
    }
    if let Some(report) = &j.report {
        pairs.push(("report", JsonValue::str(report.clone())));
    }
    if j.report_json.is_some() {
        pairs.push(("report_available", JsonValue::Bool(true)));
    }
    if let Some(wall) = j.wall {
        pairs.push(("wall_micros", JsonValue::UInt(wall.as_micros() as u64)));
    } else if let Some(started) = j.started {
        pairs.push((
            "running_micros",
            JsonValue::UInt(started.elapsed().as_micros() as u64),
        ));
    }
    if let Some(limit) = j.limit {
        pairs.push(("timeout_secs", JsonValue::UInt(limit.as_secs())));
    }
    // Process-wide high-water RSS at the time of the query — context for
    // the per-job heap peaks below (the kernel counter is per-process).
    if let Some(kib) = engine::mem::peak_rss_kib() {
        pairs.push(("process_peak_rss_kib", JsonValue::UInt(kib)));
    }
    // Dropped trace events are an explicit top-level field: a non-zero
    // value means `/jobs/<id>/trace` is incomplete.
    if let Some(buffer) = &j.trace {
        pairs.push(("trace_dropped_events", JsonValue::UInt(buffer.dropped)));
    }
    // Telemetry: the final snapshot once done, counters and spans so far
    // through the live mirror while running.
    match (&j.final_telemetry, j.state) {
        (Some(t), _) => pairs.extend(telemetry_json(t, None)),
        (None, JobState::Running) => {
            pairs.extend(telemetry_json(&j.live.snapshot(), j.live.current_span()));
        }
        _ => {}
    }
    Some(JsonValue::object(pairs))
}

/// Renders the live Prometheus exposition: finished-job outcomes plus
/// in-flight gauges, with the shared telemetry families over finished
/// telemetry merged with live snapshots of running jobs.
fn render_metrics(state: &ServeState) -> String {
    let jobs = state.jobs.lock().expect("jobs poisoned");
    let mut status_counts = [0u64; engine::prom::JOB_STATUSES.len()];
    let mut queued = 0u64;
    let mut running = 0u64;
    let mut wall_total = 0.0f64;
    let mut trace_dropped = 0u64;
    let mut agg = Telemetry::default();
    for j in jobs.iter() {
        if let Some(buffer) = &j.trace {
            trace_dropped += buffer.dropped;
        }
        match j.state {
            JobState::Queued => queued += 1,
            JobState::Running => agg.merge(&j.live.snapshot()),
            JobState::Done => {}
        }
        if j.state == JobState::Running {
            running += 1;
        }
        if let Some(status) = j.status {
            if let Some(i) = engine::prom::JOB_STATUSES.iter().position(|s| *s == status) {
                status_counts[i] += 1;
            }
        }
        if let Some(wall) = j.wall {
            wall_total += wall.as_secs_f64();
        }
        if let Some(t) = &j.final_telemetry {
            agg.merge(t);
        }
    }
    drop(jobs);

    let mut w = PromWriter::new();
    w.family(
        "tmfrt_jobs",
        engine::prom::MetricKind::Counter,
        "Finished jobs by outcome status.",
    );
    for (i, status) in engine::prom::JOB_STATUSES.iter().enumerate() {
        w.sample_u64("tmfrt_jobs", &[("status", status)], status_counts[i]);
    }
    w.family(
        "tmfrt_jobs_inflight",
        engine::prom::MetricKind::Gauge,
        "Jobs currently queued or running.",
    );
    w.sample_u64("tmfrt_jobs_inflight", &[("state", "queued")], queued);
    w.sample_u64("tmfrt_jobs_inflight", &[("state", "running")], running);
    w.family(
        "tmfrt_job_wall_seconds",
        engine::prom::MetricKind::Counter,
        "Total wall-clock seconds spent by finished jobs.",
    );
    w.sample("tmfrt_job_wall_seconds", &[], wall_total);
    // Observability health + the headline quality counter as dedicated
    // families (the counter also appears inside tmfrt_events, but
    // dashboards alert on these two specifically).
    w.family(
        "tmfrt_trace_dropped_events",
        engine::prom::MetricKind::Counter,
        "Trace ring-buffer events dropped across recorded jobs (non-zero = incomplete traces).",
    );
    w.sample_u64("tmfrt_trace_dropped_events", &[], trace_dropped);
    w.family(
        "tmfrt_frt_capped_total",
        engine::prom::MetricKind::Counter,
        "FRT relocation-bound cap hits across all jobs.",
    );
    w.sample_u64(
        "tmfrt_frt_capped_total",
        &[],
        agg.counters[Counter::FrtCapped as usize],
    );
    // Process-wide allocator ledger (live when the counting allocator is
    // installed and enabled; zeros otherwise) and the kernel RSS probes.
    let g = engine::mem::global_stats();
    w.family(
        "tmfrt_process_heap_live_bytes",
        engine::prom::MetricKind::Gauge,
        "Live heap bytes across the whole process (counting allocator).",
    );
    w.sample_u64("tmfrt_process_heap_live_bytes", &[], g.live_bytes);
    w.family(
        "tmfrt_process_heap_peak_bytes",
        engine::prom::MetricKind::Gauge,
        "Peak live heap bytes across the whole process (counting allocator).",
    );
    w.sample_u64("tmfrt_process_heap_peak_bytes", &[], g.peak_bytes);
    w.family(
        "tmfrt_process_rss_kib",
        engine::prom::MetricKind::Gauge,
        "Resident set size in KiB (current and VmHWM peak).",
    );
    w.sample_u64(
        "tmfrt_process_rss_kib",
        &[("kind", "current")],
        engine::mem::current_rss_kib().unwrap_or(0),
    );
    w.sample_u64(
        "tmfrt_process_rss_kib",
        &[("kind", "peak")],
        engine::mem::peak_rss_kib().unwrap_or(0),
    );
    engine::prom::write_telemetry_families(&mut w, &agg);
    w.finish()
}

/// `GET /events`: streams the event log as Server-Sent Events, starting
/// at `?since=<seq>` (default: only new events), until the client
/// disconnects or the server shuts down.
fn sse_events(state: &Arc<ServeState>, req: &Request) -> Response {
    let state = Arc::clone(state);
    let mut cursor = match req.query_param("since") {
        Some(s) => match s.parse() {
            Ok(n) => n,
            Err(_) => return Response::bad_request("since must be a sequence number"),
        },
        None => state.events.lock().expect("events poisoned").next_seq,
    };
    Response::stream("text/event-stream", move |w| {
        let _ = w.write_all(b": tmfrt serve event stream\n\n");
        let _ = w.flush();
        let mut idle_ticks = 0u32;
        loop {
            let batch = state.events_since(cursor);
            for (seq, data) in &batch {
                cursor = seq + 1;
                if write!(w, "id: {seq}\ndata: {data}\n\n").is_err() {
                    return;
                }
            }
            if !batch.is_empty() {
                idle_ticks = 0;
                if w.flush().is_err() {
                    return;
                }
            } else {
                // SSE comment-line keepalive roughly once per second of
                // idle polling: ignored by clients, but keeps proxies
                // and kept-alive sockets from timing the stream out —
                // and detects disconnected clients between events.
                idle_ticks += 1;
                if idle_ticks >= 40 {
                    idle_ticks = 0;
                    if w.write_all(b": keepalive\n\n").is_err() || w.flush().is_err() {
                        return;
                    }
                }
            }
            if state.shutdown.is_cancelled() {
                let _ = w.write_all(b"event: shutdown\ndata: {}\n\n");
                let _ = w.flush();
                return;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_serve_flags() {
        let a = ServeArgs::parse(&argv(
            "--addr 0.0.0.0:9000 --jobs 4 --timeout-secs 60 -a turbomap -k 4 --verify 64 -q",
        ))
        .unwrap();
        assert_eq!(a.addr, "0.0.0.0:9000");
        assert_eq!(a.jobs, 4);
        assert_eq!(a.timeout, Some(Duration::from_secs(60)));
        assert_eq!(a.run.algorithm, crate::Algorithm::TurboMap);
        assert_eq!(a.run.k, 4);
        assert_eq!(a.run.verify, Some(64));
        assert!(a.quiet);
    }

    #[test]
    fn parses_serve_partitions() {
        let a = ServeArgs::parse(&argv("--partitions auto")).unwrap();
        assert_eq!(a.run.partitions, Some(0));
        let b = ServeArgs::parse(&argv("--partitions 4")).unwrap();
        assert_eq!(b.run.partitions, Some(4));
        assert!(ServeArgs::parse(&argv("--partitions 0")).is_err());
        assert_eq!(ServeArgs::parse(&[]).unwrap().run.partitions, None);
    }

    #[test]
    fn serve_defaults_and_rejects() {
        let a = ServeArgs::parse(&[]).unwrap();
        assert_eq!(a.addr, "127.0.0.1:7878");
        assert_eq!(a.jobs, 2);
        assert!(ServeArgs::parse(&argv("--bogus")).is_err());
        assert!(ServeArgs::parse(&argv("--addr")).is_err());
        let help = ServeArgs::parse(&argv("--help")).unwrap_err();
        assert!(help.contains("ENDPOINTS"));
    }

    #[test]
    fn manifest_parses_and_validates() {
        let subs = parse_manifest(
            r#"{"jobs":[{"name":"a","source":"gen:dk17"},{"blif":".model x\n.end\n"}]}"#,
        )
        .unwrap();
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[0].name, "a");
        assert_eq!(subs[0].source.as_deref(), Some("gen:dk17"));
        assert_eq!(subs[1].name, "job1");
        assert!(subs[1].blif.is_some());
        assert!(parse_manifest("{}").is_err());
        assert!(parse_manifest(r#"{"jobs":[{"name":"both","source":"x","blif":"y"}]}"#).is_err());
        assert!(parse_manifest(r#"{"jobs":[{"name":"neither"}]}"#).is_err());
    }
}
