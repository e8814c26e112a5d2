//! Parallel batch-execution engine for the TurboMap-frt reproduction.
//!
//! The repo's flows — the 18-circuit Table-1 suite, the ablation driver
//! and the `tmfrt` CLI — are batch jobs over independent circuits. This
//! crate executes such batches concurrently with production-grade
//! plumbing, using **only the standard library**:
//!
//! * [`pool`] — a work-stealing thread pool (per-worker deques plus a
//!   shared injector; idle workers steal from their siblings),
//! * [`batch`] — the job runner: one job protocol ([`batch::run_job`])
//!   with per-job panic isolation (`catch_unwind` turns a crash into
//!   [`batch::JobOutcome::Panicked`]) and soft deadlines enforced by a
//!   [`batch::Watchdog`] thread through cooperative [`cancel`] tokens;
//!   [`batch::run_batch`] adds **deterministic result ordering**
//!   regardless of worker count,
//! * [`cancel`] — cancellation tokens installed thread-locally so deep
//!   algorithm loops (the Φ binary search, the FRTcheck sweeps) can poll
//!   [`cancel::cancelled`] without threading a token through every call,
//! * [`telemetry`] — lock-free per-job counters, the per-name span
//!   table and streaming [`hist`] histograms accumulated in
//!   thread-locals and merged at job end,
//! * [`trace`] — spans, the one phase marker: each closing span adds its
//!   wall, self time and heap to the [`telemetry`] span table; with
//!   tracing on, spans and events also go into bounded per-thread ring
//!   buffers with Chrome-trace/Perfetto JSON export,
//! * [`mem`] — heap accounting: a counting `GlobalAlloc` wrapper the
//!   binaries install, per-span heap attribution, and the `VmHWM`
//!   peak-RSS probe; gated like tracing (one atomic load per allocation
//!   when off),
//! * [`profile`] — offline Chrome-trace analysis for `tmfrt profile`:
//!   self/total span aggregation, folded-stack export, and A/B
//!   differentials with phase attribution,
//! * [`prom`] — a Prometheus text-exposition writer and validator for
//!   batch-level metrics summaries,
//! * [`http`] — a dependency-free HTTP/1.1 server (thread-per-connection
//!   with a bounded handler pool, graceful shutdown through [`cancel`]
//!   tokens, streaming responses for SSE) backing `tmfrt serve`,
//! * [`log`] — structured JSON-lines logging with a `TMFRT_LOG` level
//!   filter; events carry the current job and trace span so log lines
//!   correlate with Chrome traces,
//! * [`json`] — a small deterministic JSON writer for versioned result
//!   artifacts (`BENCH_table1.json`),
//! * [`rng`] — a seeded splitmix64 generator backing the workload
//!   generators and randomized tests (replaces the external `rand`
//!   dependency, which is unresolvable offline).
//!
//! # Examples
//!
//! ```
//! use engine::batch::{run_batch, BatchOptions, JobOutcome, JobSpec};
//!
//! let jobs: Vec<JobSpec<u64>> = (0..8u64)
//!     .map(|i| JobSpec::new(format!("job{i}"), move || Ok(i * i)))
//!     .collect();
//! let reports = run_batch(jobs, &BatchOptions::with_jobs(4));
//! assert_eq!(reports.len(), 8);
//! // Results come back in submission order, whatever the thread count.
//! for (i, r) in reports.iter().enumerate() {
//!     assert!(matches!(r.outcome, JobOutcome::Completed(v) if v == (i * i) as u64));
//! }
//! ```

// `deny` rather than `forbid`: the one sanctioned exception is
// `mem`'s `GlobalAlloc` wrapper, which opts back in locally.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cancel;
pub mod hist;
pub mod http;
pub mod json;
pub mod log;
pub mod mem;
pub mod pool;
pub mod profile;
pub mod prom;
pub mod rng;
pub mod telemetry;
pub mod trace;

pub use batch::{run_batch, run_job, BatchOptions, JobOutcome, JobReport, JobSpec, Watchdog};
pub use cancel::CancelToken;
pub use hist::{Histogram, Metric};
pub use json::JsonValue;
pub use mem::{CountingAlloc, MemStats};
pub use pool::Pool;
pub use prom::PromWriter;
pub use rng::Rng64;
pub use telemetry::{Counter, SpanStats, SpanTable, Telemetry};
pub use trace::{SpanGuard, TraceBuffer};
