//! Batch job runner: isolation, deadlines, telemetry, stable ordering.
//!
//! [`run_batch`] executes a vector of [`JobSpec`]s on a [`Pool`]:
//!
//! * **Panic isolation** — each job body runs under
//!   [`std::panic::catch_unwind`]; a panicking job becomes
//!   [`JobOutcome::Panicked`] with the panic message, and its siblings
//!   (and the suite) keep running.
//! * **Soft deadlines** — a watchdog thread trips the job's
//!   [`CancelToken`] when its deadline passes; the
//!   job observes the token cooperatively (deep loops poll
//!   [`cancel::cancelled`]) and unwinds with an
//!   error, reported as [`JobOutcome::DeadlineExceeded`].
//! * **Telemetry** — counters, spans and histograms are reset when the job
//!   starts on its worker and harvested into the report when it ends.
//! * **Deterministic ordering** — reports come back in submission order
//!   regardless of worker count or completion order.

use crate::cancel::{self, CancelReason, CancelToken};
use crate::pool::Pool;
use crate::telemetry::{self, Telemetry};
use crate::trace::{self, TraceBuffer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One job: a name, an optional per-job deadline, and the work closure.
pub struct JobSpec<T> {
    /// Display name (circuit name, file path, …).
    pub name: String,
    /// Per-job soft deadline; `None` falls back to
    /// [`BatchOptions::timeout`].
    pub timeout: Option<Duration>,
    work: Box<dyn FnOnce() -> Result<T, String> + Send + 'static>,
}

impl<T> JobSpec<T> {
    /// Creates a job with the batch-default deadline.
    pub fn new(
        name: impl Into<String>,
        work: impl FnOnce() -> Result<T, String> + Send + 'static,
    ) -> JobSpec<T> {
        JobSpec {
            name: name.into(),
            timeout: None,
            work: Box::new(work),
        }
    }

    /// Sets a per-job deadline overriding the batch default.
    pub fn with_timeout(mut self, timeout: Duration) -> JobSpec<T> {
        self.timeout = Some(timeout);
        self
    }
}

/// How a job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome<T> {
    /// The job returned a value.
    Completed(T),
    /// The job returned an error.
    Failed(String),
    /// The job panicked; the payload message is preserved.
    Panicked(String),
    /// The watchdog fired the job's deadline and the job observed it.
    DeadlineExceeded {
        /// The deadline that was exceeded.
        limit: Duration,
    },
}

impl<T> JobOutcome<T> {
    /// True for [`JobOutcome::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, JobOutcome::Completed(_))
    }

    /// The completed value, if any.
    pub fn completed(&self) -> Option<&T> {
        match self {
            JobOutcome::Completed(v) => Some(v),
            _ => None,
        }
    }

    /// A short status keyword: `ok`, `failed`, `panicked`, `deadline`.
    pub fn status(&self) -> &'static str {
        match self {
            JobOutcome::Completed(_) => "ok",
            JobOutcome::Failed(_) => "failed",
            JobOutcome::Panicked(_) => "panicked",
            JobOutcome::DeadlineExceeded { .. } => "deadline",
        }
    }
}

/// One job's report.
#[derive(Debug, Clone)]
pub struct JobReport<T> {
    /// The job's name, as given in its [`JobSpec`].
    pub name: String,
    /// How the job ended.
    pub outcome: JobOutcome<T>,
    /// Wall-clock time the job spent on its worker.
    pub wall: Duration,
    /// Telemetry harvested from the job's worker thread.
    pub telemetry: Telemetry,
    /// Trace events harvested from the job's worker thread, when
    /// tracing was enabled ([`trace::set_enabled`]); `None` otherwise.
    pub trace: Option<TraceBuffer>,
}

/// Batch execution options.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchOptions {
    /// Worker threads (0 → one worker).
    pub jobs: usize,
    /// Default per-job deadline (`None` → no deadline).
    pub timeout: Option<Duration>,
}

impl BatchOptions {
    /// Options with `jobs` workers and no deadline.
    pub fn with_jobs(jobs: usize) -> BatchOptions {
        BatchOptions {
            jobs,
            timeout: None,
        }
    }

    /// Sets the default per-job deadline.
    pub fn with_timeout(mut self, timeout: Duration) -> BatchOptions {
        self.timeout = Some(timeout);
        self
    }
}

/// A deadline registered with the watchdog.
struct Watch {
    deadline: Instant,
    token: CancelToken,
}

#[derive(Default)]
struct WatchdogState {
    watches: Vec<Watch>,
    closed: bool,
}

struct Watchdog {
    state: Mutex<WatchdogState>,
    changed: Condvar,
}

impl Watchdog {
    fn new() -> Arc<Watchdog> {
        Arc::new(Watchdog {
            state: Mutex::new(WatchdogState::default()),
            changed: Condvar::new(),
        })
    }

    /// Registers a deadline for `token`; returns after noting it.
    fn register(&self, deadline: Instant, token: CancelToken) {
        let mut st = self.state.lock().expect("watchdog poisoned");
        st.watches.push(Watch { deadline, token });
        drop(st);
        self.changed.notify_one();
    }

    fn close(&self) {
        self.state.lock().expect("watchdog poisoned").closed = true;
        self.changed.notify_one();
    }

    /// The watchdog loop: sleep until the earliest pending deadline,
    /// trip expired tokens, drop entries whose token is already tripped
    /// or whose deadline passed. Finished jobs leave their watches in
    /// place, so the loop ends on [`Watchdog::close`], which runs once
    /// every job has finished, not when the last watch expires.
    fn run(&self) {
        let mut st = self.state.lock().expect("watchdog poisoned");
        loop {
            if st.closed {
                return;
            }
            let now = Instant::now();
            st.watches.retain(|w| {
                if w.token.is_cancelled() {
                    return false;
                }
                if w.deadline <= now {
                    w.token.cancel_deadline();
                    return false;
                }
                true
            });
            let next = st.watches.iter().map(|w| w.deadline).min();
            st = match next {
                Some(when) => {
                    let wait = when.saturating_duration_since(Instant::now());
                    self.changed
                        .wait_timeout(st, wait)
                        .expect("watchdog poisoned")
                        .0
                }
                None => self.changed.wait(st).expect("watchdog poisoned"),
            };
        }
    }
}

/// The message a caught panic carried: its `&str` or `String` payload,
/// or a fixed placeholder for any other payload type.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `specs` on `opts.jobs` workers and returns one report per job,
/// **in submission order**.
pub fn run_batch<T: Send + 'static>(
    specs: Vec<JobSpec<T>>,
    opts: &BatchOptions,
) -> Vec<JobReport<T>> {
    let total = specs.len();
    let results: Arc<Mutex<Vec<Option<JobReport<T>>>>> =
        Arc::new(Mutex::new((0..total).map(|_| None).collect()));
    let watchdog = Watchdog::new();
    let watchdog_thread = {
        let wd = Arc::clone(&watchdog);
        std::thread::Builder::new()
            .name("engine-watchdog".into())
            .spawn(move || wd.run())
            .expect("spawn watchdog")
    };

    {
        let mut pool = Pool::new(opts.jobs);
        for (index, spec) in specs.into_iter().enumerate() {
            let results = Arc::clone(&results);
            let watchdog = Arc::clone(&watchdog);
            let timeout = spec.timeout.or(opts.timeout);
            let name = spec.name;
            let work = spec.work;
            pool.spawn(move || {
                let token = CancelToken::new();
                let limit = timeout;
                if let Some(t) = limit {
                    watchdog.register(Instant::now() + t, token.clone());
                }
                let guard = cancel::install(token.clone());
                telemetry::reset();
                trace::job_start();
                // Log lines emitted inside the job body carry its name.
                let log_guard = crate::log::with_job(name.clone());
                let start = Instant::now();
                let caught = catch_unwind(AssertUnwindSafe(work));
                let wall = start.elapsed();
                drop(log_guard);
                let telemetry = telemetry::take();
                let trace = trace::take_if_enabled();
                drop(guard);
                let deadline_hit = token.reason() == Some(CancelReason::Deadline);
                // A tripped deadline that the job outran is still a
                // success; only jobs that bailed out report it.
                let outcome = match caught {
                    Ok(Ok(v)) => JobOutcome::Completed(v),
                    Ok(Err(_)) if deadline_hit => JobOutcome::DeadlineExceeded {
                        limit: limit.unwrap_or(Duration::ZERO),
                    },
                    Ok(Err(e)) => JobOutcome::Failed(e),
                    Err(_) if deadline_hit => JobOutcome::DeadlineExceeded {
                        limit: limit.unwrap_or(Duration::ZERO),
                    },
                    Err(payload) => JobOutcome::Panicked(panic_message(payload)),
                };
                // Outrun deadlines leave the token tripped; cancel()ing
                // here is a no-op either way, so nothing to unwind.
                results.lock().expect("results poisoned")[index] = Some(JobReport {
                    name,
                    outcome,
                    wall,
                    telemetry,
                    trace,
                });
            });
        }
        // Pool drop waits for all jobs.
    }
    watchdog.close();
    let _ = watchdog_thread.join();

    Arc::try_unwrap(results)
        .unwrap_or_else(|_| panic!("batch results still shared"))
        .into_inner()
        .expect("results poisoned")
        .into_iter()
        .map(|r| r.expect("every job reports"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_submission_order_any_job_count() {
        for jobs in [1, 2, 8] {
            let specs: Vec<JobSpec<usize>> = (0..16)
                .map(|i| JobSpec::new(format!("j{i}"), move || Ok(i)))
                .collect();
            let reports = run_batch(specs, &BatchOptions::with_jobs(jobs));
            let values: Vec<usize> = reports
                .iter()
                .map(|r| *r.outcome.completed().unwrap())
                .collect();
            assert_eq!(values, (0..16).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn panicking_job_is_isolated() {
        let specs: Vec<JobSpec<u32>> = vec![
            JobSpec::new("ok1", || Ok(1)),
            JobSpec::new("boom", || panic!("deliberate test panic")),
            JobSpec::new("ok2", || Ok(2)),
        ];
        let reports = run_batch(specs, &BatchOptions::with_jobs(2));
        assert!(matches!(reports[0].outcome, JobOutcome::Completed(1)));
        match &reports[1].outcome {
            JobOutcome::Panicked(msg) => assert!(msg.contains("deliberate test panic")),
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert!(matches!(reports[2].outcome, JobOutcome::Completed(2)));
        assert_eq!(reports[1].outcome.status(), "panicked");
    }

    #[test]
    fn failing_job_reports_error() {
        let specs: Vec<JobSpec<u32>> =
            vec![JobSpec::new("bad", || Err("no such file".to_string()))];
        let reports = run_batch(specs, &BatchOptions::with_jobs(1));
        assert!(matches!(&reports[0].outcome, JobOutcome::Failed(e) if e == "no such file"));
    }

    #[test]
    fn deadline_fires_on_cooperative_slow_job() {
        let specs: Vec<JobSpec<u32>> = vec![
            JobSpec::new("slow", || {
                // A cooperative loop that polls its cancellation token,
                // the way the Φ search and FRTcheck sweeps do.
                let t0 = Instant::now();
                while !cancel::cancelled() {
                    if t0.elapsed() > Duration::from_secs(30) {
                        return Err("watchdog never fired".into());
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err("cancelled".into())
            })
            .with_timeout(Duration::from_millis(50)),
            JobSpec::new("fast", || Ok(7)),
        ];
        let reports = run_batch(specs, &BatchOptions::with_jobs(2));
        match reports[0].outcome {
            JobOutcome::DeadlineExceeded { limit } => {
                assert_eq!(limit, Duration::from_millis(50));
            }
            ref other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(reports[0].wall >= Duration::from_millis(50));
        assert!(matches!(reports[1].outcome, JobOutcome::Completed(7)));
    }

    #[test]
    fn job_that_outruns_deadline_still_completes() {
        // Deadline trips, but the job finishes with Ok anyway.
        let specs: Vec<JobSpec<u32>> = vec![JobSpec::new("outrun", || {
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_millis(40) {
                std::thread::sleep(Duration::from_millis(5));
            }
            Ok(9)
        })
        .with_timeout(Duration::from_millis(10))];
        let reports = run_batch(specs, &BatchOptions::with_jobs(1));
        assert!(matches!(reports[0].outcome, JobOutcome::Completed(9)));
    }

    #[test]
    fn batch_default_timeout_applies() {
        let opts = BatchOptions::with_jobs(1).with_timeout(Duration::from_millis(30));
        let specs: Vec<JobSpec<u32>> = vec![JobSpec::new("slow", || {
            let t0 = Instant::now();
            while !cancel::cancelled() {
                if t0.elapsed() > Duration::from_secs(30) {
                    return Err("watchdog never fired".into());
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err("cancelled".into())
        })];
        let reports = run_batch(specs, &opts);
        assert_eq!(reports[0].outcome.status(), "deadline");
    }

    #[test]
    fn finished_batch_does_not_wait_out_its_deadline() {
        let opts = BatchOptions::with_jobs(2).with_timeout(Duration::from_secs(5));
        let specs: Vec<JobSpec<u32>> = (0..4)
            .map(|i| JobSpec::new(format!("j{i}"), move || Ok(i)))
            .collect();
        let t0 = Instant::now();
        let reports = run_batch(specs, &opts);
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
        assert!(reports.iter().all(|r| r.outcome.completed().is_some()));
    }

    #[test]
    fn telemetry_is_per_job() {
        use crate::telemetry::Counter;
        let specs: Vec<JobSpec<u32>> = vec![
            JobSpec::new("a", || {
                telemetry::count(Counter::FrtSweeps, 5);
                Ok(0)
            }),
            JobSpec::new("b", || {
                telemetry::count(Counter::FrtSweeps, 11);
                Ok(0)
            }),
        ];
        // Single worker: both jobs share a thread; counts must not bleed.
        let reports = run_batch(specs, &BatchOptions::with_jobs(1));
        assert_eq!(reports[0].telemetry.counter(Counter::FrtSweeps), 5);
        assert_eq!(reports[1].telemetry.counter(Counter::FrtSweeps), 11);
    }

    #[test]
    fn span_tables_merge_across_pool_workers() {
        // Job i opens `block` once and `sweep` i + 1 times under it, on
        // whichever of the two workers picks it up.
        let specs: Vec<JobSpec<u32>> = (0..4u32)
            .map(|i| {
                JobSpec::new(format!("j{i}"), move || {
                    let _b = crate::trace::span("block");
                    for _ in 0..=i {
                        let _s = crate::trace::span("sweep");
                    }
                    Ok(i)
                })
            })
            .collect();
        let reports = run_batch(specs, &BatchOptions::with_jobs(2));
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.telemetry.spans.get("sweep").unwrap().count, i as u64 + 1);
        }
        // What `partition_map` does with its block reports.
        telemetry::reset();
        for r in &reports {
            telemetry::merge_local(&r.telemetry);
        }
        let merged = telemetry::take().spans;
        assert_eq!(merged.get("block").unwrap().count, 4);
        assert_eq!(merged.get("sweep").unwrap().count, 1 + 2 + 3 + 4);
        let wall: u64 = reports
            .iter()
            .map(|r| r.telemetry.spans.get("block").unwrap().wall_nanos)
            .sum();
        assert_eq!(merged.get("block").unwrap().wall_nanos, wall);
    }

    #[test]
    fn empty_batch_is_fine() {
        let reports = run_batch(Vec::<JobSpec<u32>>::new(), &BatchOptions::with_jobs(4));
        assert!(reports.is_empty());
    }
}
