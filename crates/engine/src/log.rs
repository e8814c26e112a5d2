//! Structured JSON-lines logging (std-only).
//!
//! One log event is one JSON object on one line, written atomically to
//! the configured sink (stderr by default — stdout is reserved for
//! results, per the repo's stream discipline). Events carry a wall-clock
//! timestamp, a severity, a `target` (the emitting module), a message,
//! the current **job** name (installed by the batch runner and `tmfrt
//! serve` around each job body) and the current **span** (the innermost
//! open [`crate::trace`] span), so a log line can be
//! correlated with the Chrome-trace timeline of the same job. Arbitrary
//! extra fields ride along as a `fields` object of [`JsonValue`]s.
//!
//! The level filter comes from the `TMFRT_LOG` environment variable
//! (`off`, `error`, `warn`, `info`, `debug`, `trace`) via [`init`];
//! CLI `-q/--quiet` lowers the default to `error` but an explicit
//! `TMFRT_LOG` always wins. Filtering is one relaxed atomic load, so
//! disabled levels cost nothing measurable on hot paths.
//!
//! Each thread formats its line into a reusable thread-local buffer
//! (the "per-thread buffered writer": no allocation in steady state,
//! no partial lines), then takes the sink lock for exactly one
//! `write_all`, so concurrent workers never interleave bytes.

use crate::json::JsonValue;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Log severities, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum Level {
    /// The operation failed.
    Error = 0,
    /// Something surprising that the run survived.
    Warn = 1,
    /// Lifecycle progress (default filter).
    Info = 2,
    /// Per-iteration diagnostics (Φ probes, sweep counts).
    Debug = 3,
    /// Inner-loop detail (min-cut completions and the like).
    Trace = 4,
}

/// Sentinel for "no logging at all".
const OFF: usize = usize::MAX;

impl Level {
    /// Stable lowercase name (the JSON `level` field).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parses a `TMFRT_LOG` value (`None` for unknown strings).
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }
}

/// Current max level as usize (`OFF` disables everything). Defaults to
/// `Info` so libraries log sensibly even if `init` was never called.
static MAX_LEVEL: AtomicUsize = AtomicUsize::new(Level::Info as usize);

/// The sink every thread writes finished lines to.
static SINK: OnceLock<Mutex<Box<dyn std::io::Write + Send>>> = OnceLock::new();

fn sink() -> &'static Mutex<Box<dyn std::io::Write + Send>> {
    SINK.get_or_init(|| Mutex::new(Box::new(std::io::stderr())))
}

/// Replaces the global sink (stderr by default). Used by `tmfrt serve
/// --log-file` and by tests capturing output. The previous sink is
/// flushed and dropped.
pub fn set_sink(w: Box<dyn std::io::Write + Send>) {
    let mut guard = sink().lock().expect("log sink poisoned");
    let _ = guard.flush();
    *guard = w;
}

/// A cloneable in-memory sink for tests: install with
/// [`set_sink`]`(Box::new(buf.clone()))`, then read back what was logged.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    buf: Arc<Mutex<Vec<u8>>>,
}

impl MemorySink {
    /// An empty shared buffer.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Everything written so far, as (lossy) UTF-8.
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&self.buf.lock().expect("memory sink poisoned")).into_owned()
    }
}

impl std::io::Write for MemorySink {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf
            .lock()
            .expect("memory sink poisoned")
            .extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Sets the level filter explicitly (overrides any earlier value).
pub fn set_level(level: Option<Level>) {
    MAX_LEVEL.store(level.map(|l| l as usize).unwrap_or(OFF), Ordering::Relaxed);
}

/// Initialises the filter from the environment: `TMFRT_LOG` wins when
/// set (and parseable or `off`); otherwise `quiet` selects `error`,
/// and the default is `info`.
pub fn init(quiet: bool) {
    let level = match std::env::var("TMFRT_LOG") {
        Ok(v) if v.trim().eq_ignore_ascii_case("off") => None,
        Ok(v) => match Level::parse(&v) {
            Some(l) => Some(l),
            None => Some(if quiet { Level::Error } else { Level::Info }),
        },
        Err(_) => Some(if quiet { Level::Error } else { Level::Info }),
    };
    set_level(level);
}

/// True when `level` passes the current filter — one relaxed atomic
/// load, the only cost a disabled log site pays.
#[inline]
pub fn enabled(level: Level) -> bool {
    let max = MAX_LEVEL.load(Ordering::Relaxed);
    max != OFF && (level as usize) <= max
}

thread_local! {
    /// Job name installed around a job body (batch runner / serve).
    static JOB: RefCell<Option<String>> = const { RefCell::new(None) };
    /// Reusable line-format buffer.
    static LINE: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Installs `job` as the current thread's job context for the lifetime
/// of the returned guard (the previous context is restored on drop), so
/// every log line emitted by the job body carries its name.
pub fn with_job(job: impl Into<String>) -> JobGuard {
    let prev = JOB.with(|j| j.replace(Some(job.into())));
    JobGuard { prev }
}

/// RAII guard returned by [`with_job`].
#[derive(Debug)]
pub struct JobGuard {
    prev: Option<String>,
}

impl Drop for JobGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        JOB.with(|j| *j.borrow_mut() = prev);
    }
}

fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Emits one structured event. Prefer the level helpers ([`error`],
/// [`warn`], [`info`], [`debug`], [`trace`]); this is the common
/// implementation they share.
pub fn log(level: Level, target: &str, msg: &str, fields: &[(&str, JsonValue)]) {
    if !enabled(level) {
        return;
    }
    let micros = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    LINE.with(|line| {
        let mut out = line.borrow_mut();
        out.clear();
        let _ = write!(
            out,
            "{{\"ts_micros\":{micros},\"level\":\"{}\",",
            level.as_str()
        );
        out.push_str("\"target\":");
        write_json_str(&mut out, target);
        out.push_str(",\"msg\":");
        write_json_str(&mut out, msg);
        JOB.with(|j| {
            if let Some(job) = j.borrow().as_deref() {
                out.push_str(",\"job\":");
                write_json_str(&mut out, job);
            }
        });
        if let Some(span) = crate::trace::current_span() {
            out.push_str(",\"span\":");
            write_json_str(&mut out, span);
            let _ = write!(out, ",\"span_seq\":{}", crate::trace::current_span_seq());
        }
        if !fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_str(&mut out, k);
                out.push(':');
                out.push_str(&v.render());
            }
            out.push('}');
        }
        out.push_str("}\n");
        let mut sink = sink().lock().expect("log sink poisoned");
        let _ = sink.write_all(out.as_bytes());
        let _ = sink.flush();
    });
}

/// Logs at [`Level::Error`].
pub fn error(target: &str, msg: &str, fields: &[(&str, JsonValue)]) {
    log(Level::Error, target, msg, fields);
}

/// Logs at [`Level::Warn`].
pub fn warn(target: &str, msg: &str, fields: &[(&str, JsonValue)]) {
    log(Level::Warn, target, msg, fields);
}

/// Logs at [`Level::Info`].
pub fn info(target: &str, msg: &str, fields: &[(&str, JsonValue)]) {
    log(Level::Info, target, msg, fields);
}

/// Logs at [`Level::Debug`].
pub fn debug(target: &str, msg: &str, fields: &[(&str, JsonValue)]) {
    log(Level::Debug, target, msg, fields);
}

/// Logs at [`Level::Trace`].
pub fn trace(target: &str, msg: &str, fields: &[(&str, JsonValue)]) {
    log(Level::Trace, target, msg, fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    // The sink and level filter are global; run the whole suite as one
    // test so parallel test threads cannot race on them.
    #[test]
    fn log_lines_are_json_with_context() {
        let mem = MemorySink::new();
        set_sink(Box::new(mem.clone()));
        set_level(Some(Level::Debug));

        info("engine::test", "plain line", &[]);
        {
            let _job = with_job("s27");
            warn(
                "engine::test",
                "with fields \"quoted\"\n",
                &[
                    ("phi", JsonValue::UInt(7)),
                    ("note", JsonValue::str("a\tb")),
                ],
            );
        }
        trace("engine::test", "filtered out", &[]);
        info("engine::test", "after job", &[]);

        // Other tests in this binary may log concurrently (the sink is
        // global); only lines from this test's target count.
        let ours = |text: &str| -> Vec<String> {
            text.lines()
                .filter(|l| l.contains("\"target\":\"engine::test\""))
                .map(str::to_string)
                .collect()
        };
        let text = mem.contents();
        let lines = ours(&text);
        assert_eq!(lines.len(), 3, "trace line must be filtered: {text}");
        for line in &lines {
            let v = JsonValue::parse(line).expect("every log line parses as JSON");
            assert!(v.get("ts_micros").is_some());
            assert_eq!(
                v.get("target").and_then(|t| t.as_str()),
                Some("engine::test")
            );
        }
        let warn_line = JsonValue::parse(&lines[1]).unwrap();
        assert_eq!(
            warn_line.get("level").and_then(|l| l.as_str()),
            Some("warn")
        );
        assert_eq!(warn_line.get("job").and_then(|j| j.as_str()), Some("s27"));
        let fields = warn_line.get("fields").expect("fields object");
        assert_eq!(fields.get("phi").and_then(|p| p.as_u64()), Some(7));
        assert_eq!(fields.get("note").and_then(|n| n.as_str()), Some("a\tb"));
        // Job context is scoped: the line after the guard has no job.
        let after = JsonValue::parse(&lines[2]).unwrap();
        assert!(after.get("job").is_none());

        // Level parsing and the off switch.
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("bogus"), None);
        set_level(None);
        assert!(!enabled(Level::Error));
        error("engine::test", "dropped", &[]);
        assert_eq!(ours(&mem.contents()).len(), 3);
        set_level(Some(Level::Info));
        assert!(enabled(Level::Info));
        assert!(!enabled(Level::Debug));
    }
}
