//! Spans — the one phase marker — and event tracing into bounded
//! per-thread ring buffers with Chrome-trace export (std-only,
//! lock-free on the hot path).
//!
//! Every span, traced or not, feeds the thread's
//! [`SpanTable`](crate::telemetry::SpanTable) when it closes: its count,
//! wall time, self time (wall minus the wall of its direct child spans)
//! and, with [`crate::mem`] accounting on, its heap activity. That table
//! is where every per-phase number in the repo comes from. Spans are
//! hierarchical — `phi_search` → `phi_probe{phi}` → `frtcheck_sweep{n}`
//! → `expand{node}` — and a span costs two clock reads plus a few
//! thread-local writes, so spans mark phases, not per-item work
//! (counters and histograms carry per-item numbers).
//!
//! **Tracing** additionally records each span's enter and exit as
//! [`Event`]s into a fixed-capacity ring buffer (drop-oldest, counted in
//! `dropped_events` — no allocation and no locking once the buffer
//! exists), with timestamps from a monotonic clock anchored once per job
//! and up to two static key/value payloads per event. Tracing is off by
//! default; one relaxed load of one atomic flag ([`enabled`]) guards the
//! ring, and `--canonical` artifacts are byte-identical with tracing on
//! or off (proven by `crates/bench/tests/determinism.rs`).
//!
//! Harvesting is a job-boundary operation: the batch runner calls
//! [`job_start`] before the job body and [`take_thread`] after it, so a
//! [`TraceBuffer`] never spans two jobs.

use crate::json::JsonValue;
use crate::mem;
use crate::telemetry::{self, SpanStats};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Default per-thread ring capacity (events).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// True when tracing is globally enabled. One relaxed atomic load — the
/// single branch guarding every record site.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enables or disables tracing. Threads observe the flag on
/// their next record attempt; buffers are not cleared.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// What an [`Event`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Span enter (Chrome `"B"`).
    Enter,
    /// Span exit (Chrome `"E"`).
    Exit,
    /// Point event (Chrome `"i"`).
    Instant,
}

/// Up to two static key/value payload slots.
pub type Payload = [Option<(&'static str, u64)>; 2];

/// One trace record: fixed-size, `Copy`, no heap.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Enter / exit / instant.
    pub kind: EventKind,
    /// Static span or event name.
    pub name: &'static str,
    /// Nanoseconds since the job's clock anchor.
    pub nanos: u64,
    /// Small static key/value payload.
    pub args: Payload,
}

/// A harvested per-job event sequence.
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    /// Events in record order (oldest first).
    pub events: Vec<Event>,
    /// Events discarded because the ring was full (oldest-dropped).
    pub dropped: u64,
}

struct Ring {
    slots: Vec<Event>,
    capacity: usize,
    /// Index of the oldest event when the ring is full.
    head: usize,
    dropped: u64,
    anchor: Instant,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            slots: Vec::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            head: 0,
            dropped: 0,
            anchor: Instant::now(),
        }
    }

    #[inline]
    fn push(&mut self, ev: Event) {
        if self.slots.len() < self.capacity {
            self.slots.push(ev);
        } else {
            // Full: overwrite the oldest slot (drop-oldest).
            self.slots[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    fn reset(&mut self) {
        self.slots.clear();
        self.head = 0;
        self.dropped = 0;
        self.anchor = Instant::now();
    }

    fn take(&mut self) -> TraceBuffer {
        let mut events = Vec::with_capacity(self.slots.len());
        // Oldest-first: [head..] then [..head].
        events.extend_from_slice(&self.slots[self.head..]);
        events.extend_from_slice(&self.slots[..self.head]);
        let dropped = self.dropped;
        self.slots.clear();
        self.head = 0;
        self.dropped = 0;
        TraceBuffer { events, dropped }
    }
}

/// Open spans tracked per thread for self time and [`current_span`];
/// deeper nesting still records, with its self time uncorrected.
const MAX_DEPTH: usize = 64;

/// One open span: name, per-thread sequence number, and the wall of the
/// children closed under it so far.
#[derive(Clone, Copy)]
struct Frame {
    name: &'static str,
    seq: u64,
    child_nanos: u64,
}

struct OpenSpans {
    depth: usize,
    /// Spans opened on this thread so far (the last one's sequence
    /// number).
    opened: u64,
    frames: [Frame; MAX_DEPTH],
}

thread_local! {
    static RING: RefCell<Ring> = RefCell::new(Ring::new(DEFAULT_CAPACITY));
    static OPEN: RefCell<OpenSpans> = const {
        RefCell::new(OpenSpans {
            depth: 0,
            opened: 0,
            frames: [Frame { name: "", seq: 0, child_nanos: 0 }; MAX_DEPTH],
        })
    };
}

fn innermost() -> Option<Frame> {
    OPEN.with(|o| {
        let o = o.borrow();
        o.depth
            .checked_sub(1)
            .map(|d| o.frames[d.min(MAX_DEPTH - 1)])
    })
}

/// The innermost open span's name on this thread (log correlation).
pub fn current_span() -> Option<&'static str> {
    innermost().map(|f| f.name)
}

/// The innermost open span's per-thread sequence number (1-based;
/// 0 when no span is open). Paired with the span name this identifies
/// one specific span instance within a job.
pub fn current_span_seq() -> u64 {
    innermost().map_or(0, |f| f.seq)
}

/// Nanoseconds since this thread's job anchor.
#[inline]
fn now_nanos() -> u64 {
    RING.with(|r| r.borrow().anchor.elapsed().as_nanos() as u64)
}

#[inline]
fn push(ev: Event) {
    RING.with(|r| r.borrow_mut().push(ev));
}

/// Re-anchors this thread's monotonic clock and clears its ring — the
/// job-start boundary. Cheap no-op when tracing is disabled.
pub fn job_start() {
    if enabled() {
        RING.with(|r| r.borrow_mut().reset());
    }
}

/// Resizes this thread's ring buffer (tests and tools; clears it).
pub fn set_thread_capacity(capacity: usize) {
    RING.with(|r| *r.borrow_mut() = Ring::new(capacity));
}

/// Harvests this thread's events (oldest first) and drop count,
/// clearing the ring.
pub fn take_thread() -> TraceBuffer {
    RING.with(|r| r.borrow_mut().take())
}

/// [`take_thread`] when tracing is enabled, `None` otherwise — the shape
/// the batch runner stores in each job report.
pub fn take_if_enabled() -> Option<TraceBuffer> {
    if enabled() {
        Some(take_thread())
    } else {
        None
    }
}

/// RAII span: on drop, adds its count, wall, self time and (with
/// [`mem`] accounting on) heap activity to the thread's span table.
/// When tracing was enabled at creation it also records `Enter` and
/// `Exit` events.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    start: Instant,
    depth: usize,
    heap: Option<mem::SpanMark>,
    mirror_prev: Option<Option<&'static str>>,
    /// Whether the span recorded an `Enter` event.
    traced: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let wall = self.start.elapsed().as_nanos() as u64;
        let child = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            // `min`: a span dropped out of order never reopens frames
            // an enclosing span already closed.
            o.depth = o.depth.min(self.depth);
            if let Some(parent) = self.depth.checked_sub(1).filter(|&p| p < MAX_DEPTH) {
                o.frames[parent].child_nanos += wall;
            }
            if self.depth < MAX_DEPTH {
                o.frames[self.depth].child_nanos
            } else {
                0
            }
        });
        let mut stats = SpanStats {
            count: 1,
            wall_nanos: wall,
            self_nanos: wall.saturating_sub(child),
            ..SpanStats::ZERO
        };
        let thread_peak = self
            .heap
            .take()
            .map_or(0, |m| mem::span_exit(m, &mut stats));
        telemetry::span_closed(self.name, &stats, thread_peak, self.mirror_prev);
        if self.traced {
            push(Event {
                kind: EventKind::Exit,
                name: self.name,
                nanos: now_nanos(),
                args: [None, None],
            });
        }
    }
}

/// Opens a span with a payload (the payload rides on the trace's
/// `Enter` event).
#[inline]
pub fn span_with(name: &'static str, args: Payload) -> SpanGuard {
    let depth = OPEN.with(|o| {
        let mut o = o.borrow_mut();
        o.opened += 1;
        let d = o.depth;
        if d < MAX_DEPTH {
            o.frames[d] = Frame {
                name,
                seq: o.opened,
                child_nanos: 0,
            };
        }
        o.depth = d + 1;
        d
    });
    let traced = enabled();
    if traced {
        push(Event {
            kind: EventKind::Enter,
            name,
            nanos: now_nanos(),
            args,
        });
    }
    SpanGuard {
        name,
        depth,
        heap: mem::span_enter(),
        mirror_prev: telemetry::mirror_enter(name),
        traced,
        start: Instant::now(),
    }
}

/// Opens a payload-less span.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span_with(name, [None, None])
}

/// Opens a span with one key/value payload.
#[inline]
pub fn span1(name: &'static str, key: &'static str, value: u64) -> SpanGuard {
    span_with(name, [Some((key, value)), None])
}

/// Records a point event with a payload.
#[inline]
pub fn event_with(name: &'static str, args: Payload) {
    if !enabled() {
        return;
    }
    let nanos = now_nanos();
    push(Event {
        kind: EventKind::Instant,
        name,
        nanos,
        args,
    });
}

/// Records a point event with one key/value payload.
#[inline]
pub fn event1(name: &'static str, key: &'static str, value: u64) {
    event_with(name, [Some((key, value)), None]);
}

fn args_json(args: &Payload) -> JsonValue {
    JsonValue::Object(
        args.iter()
            .flatten()
            .map(|&(k, v)| (k.to_string(), JsonValue::UInt(v)))
            .collect(),
    )
}

/// Renders a harvested buffer as a Chrome trace-event JSON document
/// (loadable in Perfetto / `chrome://tracing`).
///
/// Spans become `"B"`/`"E"` duration events, instants become `"i"`.
/// Exits whose enters were dropped from the ring are **skipped** (no
/// orphaned `"E"`), and any span still open at the end of the buffer is
/// closed at the last timestamp, so the exported event stream is always
/// balanced. Timestamps are microseconds from the job anchor.
pub fn chrome_trace(buffer: &TraceBuffer, process_name: &str) -> JsonValue {
    let mut events: Vec<JsonValue> = Vec::with_capacity(buffer.events.len() + 2);
    events.push(JsonValue::object(vec![
        ("name", JsonValue::str("process_name")),
        ("ph", JsonValue::str("M")),
        ("pid", JsonValue::UInt(1)),
        ("tid", JsonValue::UInt(1)),
        (
            "args",
            JsonValue::object(vec![("name", JsonValue::str(process_name))]),
        ),
    ]));
    let mut stack: Vec<&'static str> = Vec::new();
    let mut last_ts = 0u64;
    for ev in &buffer.events {
        let ts = ev.nanos / 1_000;
        last_ts = last_ts.max(ts);
        let ph = match ev.kind {
            EventKind::Enter => {
                stack.push(ev.name);
                "B"
            }
            EventKind::Exit => {
                // An exit with no live enter means the enter was dropped
                // from the ring — skip it to keep the export balanced.
                if stack.last() != Some(&ev.name) {
                    continue;
                }
                stack.pop();
                "E"
            }
            EventKind::Instant => "i",
        };
        let mut pairs = vec![
            ("name", JsonValue::str(ev.name)),
            ("cat", JsonValue::str("tmfrt")),
            ("ph", JsonValue::str(ph)),
            ("ts", JsonValue::UInt(ts)),
            ("pid", JsonValue::UInt(1)),
            ("tid", JsonValue::UInt(1)),
        ];
        if ph == "i" {
            pairs.push(("s", JsonValue::str("t")));
        }
        if ph != "E" {
            pairs.push(("args", args_json(&ev.args)));
        }
        events.push(JsonValue::object(pairs));
    }
    // Close any span left open (cannot happen after a clean job, but the
    // export must stay balanced even on partial buffers).
    while let Some(name) = stack.pop() {
        events.push(JsonValue::object(vec![
            ("name", JsonValue::str(name)),
            ("cat", JsonValue::str("tmfrt")),
            ("ph", JsonValue::str("E")),
            ("ts", JsonValue::UInt(last_ts)),
            ("pid", JsonValue::UInt(1)),
            ("tid", JsonValue::UInt(1)),
        ]));
    }
    JsonValue::object(vec![
        ("traceEvents", JsonValue::Array(events)),
        ("displayTimeUnit", JsonValue::str("ms")),
        ("dropped_events", JsonValue::UInt(buffer.dropped)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serialises the tests that toggle the global flag or inspect the
    /// thread-local ring: `cargo test` may run them concurrently, and the
    /// enable flag is process-wide.
    static LOCK: Mutex<()> = Mutex::new(());

    fn with_tracing<R>(f: impl FnOnce() -> R) -> R {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        set_thread_capacity(DEFAULT_CAPACITY);
        job_start();
        let r = f();
        set_enabled(false);
        set_thread_capacity(DEFAULT_CAPACITY);
        r
    }

    #[test]
    fn spans_nest_and_balance() {
        let buffer = with_tracing(|| {
            let _outer = span1("phi_search", "upper", 7);
            {
                let _probe = span1("phi_probe", "phi", 4);
                event1("tick", "unit", 1);
            }
            drop(_outer);
            take_thread()
        });
        assert_eq!(buffer.dropped, 0);
        let kinds: Vec<(EventKind, &str)> =
            buffer.events.iter().map(|e| (e.kind, e.name)).collect();
        assert_eq!(
            kinds,
            vec![
                (EventKind::Enter, "phi_search"),
                (EventKind::Enter, "phi_probe"),
                (EventKind::Instant, "tick"),
                (EventKind::Exit, "phi_probe"),
                (EventKind::Exit, "phi_search"),
            ]
        );
        // Timestamps are monotone.
        for w in buffer.events.windows(2) {
            assert!(w[0].nanos <= w[1].nanos);
        }
        assert_eq!(buffer.events[0].args[0], Some(("upper", 7)));
    }

    #[test]
    fn disabled_records_nothing() {
        // With the flag off, record sites are no-ops. The flag is
        // process-wide, so hold the lock that `with_tracing` holds.
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        job_start();
        let _s = span("never");
        event1("nothing", "n", 0);
        drop(_s);
        let buffer = take_thread();
        assert!(buffer.events.is_empty());
        assert_eq!(buffer.dropped, 0);
    }

    #[test]
    fn ring_overflow_drops_oldest_exactly() {
        let buffer = with_tracing(|| {
            set_thread_capacity(1000);
            job_start();
            // 1500 instants: the first 500 must be dropped, one by one.
            for i in 0..1500u64 {
                event1("tick", "i", i);
            }
            take_thread()
        });
        assert_eq!(buffer.dropped, 500);
        assert_eq!(buffer.events.len(), 1000);
        // Oldest-dropped: the survivors are exactly ticks 500..1500, in order.
        for (slot, ev) in buffer.events.iter().enumerate() {
            assert_eq!(ev.args[0], Some(("i", slot as u64 + 500)));
        }
    }

    #[test]
    fn span_pairing_survives_drops() {
        let buffer = with_tracing(|| {
            set_thread_capacity(8);
            job_start();
            // Two full spans, then enough noise to drop both enters (and
            // one exit) out of an 8-slot ring.
            {
                let _a = span("early_a");
            }
            {
                let _b = span("early_b");
            }
            for _ in 0..7 {
                event1("noise", "n", 0);
            }
            {
                let _c = span("late");
            }
            take_thread()
        });
        assert!(buffer.dropped > 0);
        // The export must contain no orphaned "E": every E follows its B.
        let doc = chrome_trace(&buffer, "test").render();
        let b_count = doc.matches("\"ph\":\"B\"").count();
        let e_count = doc.matches("\"ph\":\"E\"").count();
        assert_eq!(b_count, e_count, "unbalanced export: {doc}");
        assert_eq!(b_count, 1, "only the late span survived whole: {doc}");
        assert!(doc.contains("\"late\""));
    }

    #[test]
    fn chrome_trace_shape() {
        let buffer = with_tracing(|| {
            let _s = span1("min_cut", "node", 42);
            event1("tick", "n", 1);
            drop(_s);
            take_thread()
        });
        let doc = chrome_trace(&buffer, "job1");
        let text = doc.render_pretty();
        assert!(text.contains("\"traceEvents\""));
        assert!(text.contains("\"ph\": \"B\""));
        assert!(text.contains("\"ph\": \"E\""));
        assert!(text.contains("\"ph\": \"i\""));
        assert!(text.contains("\"node\": 42"));
        assert!(text.contains("\"displayTimeUnit\": \"ms\""));
        assert!(text.contains("\"dropped_events\": 0"));
    }

    #[test]
    fn open_span_is_closed_by_export() {
        // A hand-built buffer with a dangling Enter (harvested mid-span
        // never happens in the runner, but the export must stay balanced).
        let buffer = TraceBuffer {
            events: vec![Event {
                kind: EventKind::Enter,
                name: "open",
                nanos: 10_000,
                args: [None, None],
            }],
            dropped: 0,
        };
        let doc = chrome_trace(&buffer, "x").render();
        assert_eq!(doc.matches("\"ph\":\"B\"").count(), 1);
        assert_eq!(doc.matches("\"ph\":\"E\"").count(), 1);
    }
}
