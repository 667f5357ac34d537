//! Outside-in instruments: a MAC decorator, a trace-sink decorator, and an
//! in-memory span log. None of them draws randomness, schedules events or
//! alters what it wraps, so a run through them produces the same report
//! and the same trace bytes as a run without them (the crate's tests check
//! this on every protocol).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use uasn_net::mac::{MacContext, MacProtocol, MaintenanceProfile, Reception, TimerToken};
use uasn_net::node::NodeId;
use uasn_net::packet::{Frame, Sdu};
use uasn_net::slots::SlotIndex;
use uasn_sim::hist::LogHistogram;
use uasn_sim::json::JsonValue;
use uasn_sim::time::SimDuration;
use uasn_sim::trace::{TraceRecord, TraceSink};

/// The MAC callbacks the decorator times, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Callback {
    /// `on_slot_start`.
    SlotStart,
    /// `on_frame_received`.
    FrameReceived,
    /// `on_enqueue`.
    Enqueue,
    /// `on_timer`.
    Timer,
    /// `on_frame_sent`.
    FrameSent,
    /// `on_start` (once per node).
    Start,
}

impl Callback {
    /// Every callback, in report order.
    pub const ALL: [Callback; 6] = [
        Callback::SlotStart,
        Callback::FrameReceived,
        Callback::Enqueue,
        Callback::Timer,
        Callback::FrameSent,
        Callback::Start,
    ];

    /// The metric-name segment (`mac.<segment>.calls`).
    pub fn name(self) -> &'static str {
        match self {
            Callback::SlotStart => "slot_start",
            Callback::FrameReceived => "frame_received",
            Callback::Enqueue => "enqueue",
            Callback::Timer => "timer",
            Callback::FrameSent => "frame_sent",
            Callback::Start => "start",
        }
    }
}

/// Calls, busy time and a nanosecond histogram for one kind of call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CallTally {
    /// Calls made.
    pub calls: u64,
    /// Host nanoseconds inside them.
    pub busy_ns: u64,
    /// Per-call host nanoseconds.
    pub hist: LogHistogram,
}

impl CallTally {
    fn record(&mut self, ns: u64) {
        self.calls += 1;
        self.busy_ns += ns;
        self.hist.record(ns);
    }

    /// Folds another tally in.
    pub fn merge(&mut self, other: &CallTally) {
        self.calls += other.calls;
        self.busy_ns += other.busy_ns;
        self.hist.merge(&other.hist);
    }

    /// `{calls, busy_ns, p50_ns, p99_ns, max_ns}` for the trace document.
    pub fn to_json(&self) -> JsonValue {
        let q = |v: Option<u64>| JsonValue::from_u64(v.unwrap_or(0));
        JsonValue::Object(vec![
            ("calls".to_string(), JsonValue::from_u64(self.calls)),
            ("busy_ns".to_string(), JsonValue::from_u64(self.busy_ns)),
            ("p50_ns".to_string(), q(self.hist.p50())),
            ("p99_ns".to_string(), q(self.hist.p99())),
            ("max_ns".to_string(), q(self.hist.max())),
        ])
    }
}

/// Everything the MAC decorators of one simulation recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MacTally {
    /// Per callback, indexed like [`Callback::ALL`].
    pub calls: [CallTally; 6],
    /// Host nanoseconds in `install_neighbors` and `install_two_hop`.
    pub install_ns: u64,
    /// Longest `queue_len()` seen after any callback.
    pub peak_queue: usize,
}

impl MacTally {
    /// Folds another simulation's tally in.
    pub fn merge(&mut self, other: &MacTally) {
        for (a, b) in self.calls.iter_mut().zip(&other.calls) {
            a.merge(b);
        }
        self.install_ns += other.install_ns;
        self.peak_queue = self.peak_queue.max(other.peak_queue);
    }

    /// Calls across every callback kind.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().map(|c| c.calls).sum()
    }

    /// Busy nanoseconds across every callback kind.
    pub fn total_busy_ns(&self) -> u64 {
        self.calls.iter().map(|c| c.busy_ns).sum()
    }
}

/// Times every [`MacProtocol`] callback of the MAC it wraps and forwards
/// all of them — defaulted ones included — unchanged.
pub struct TimedMac {
    inner: Box<dyn MacProtocol>,
    tally: Rc<RefCell<MacTally>>,
}

impl TimedMac {
    /// Wraps `inner`, recording into the simulation-wide `tally`.
    pub fn new(inner: Box<dyn MacProtocol>, tally: Rc<RefCell<MacTally>>) -> TimedMac {
        TimedMac { inner, tally }
    }

    fn timed(&mut self, which: Callback, call: impl FnOnce(&mut dyn MacProtocol)) {
        let started = Instant::now();
        call(self.inner.as_mut());
        let ns = started.elapsed().as_nanos() as u64;
        let queue = self.inner.queue_len();
        let mut tally = self.tally.borrow_mut();
        tally.calls[which as usize].record(ns);
        tally.peak_queue = tally.peak_queue.max(queue);
    }

    fn installing(&mut self, call: impl FnOnce(&mut dyn MacProtocol)) {
        let started = Instant::now();
        call(self.inner.as_mut());
        self.tally.borrow_mut().install_ns += started.elapsed().as_nanos() as u64;
    }
}

impl fmt::Debug for TimedMac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimedMac")
            .field("inner", &self.inner)
            .finish()
    }
}

impl MacProtocol for TimedMac {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn maintenance(&self) -> MaintenanceProfile {
        self.inner.maintenance()
    }

    fn on_start(&mut self, ctx: &mut MacContext<'_>) {
        self.timed(Callback::Start, |m| m.on_start(ctx));
    }

    fn install_neighbors(&mut self, neighbors: &[(NodeId, SimDuration)]) {
        self.installing(|m| m.install_neighbors(neighbors));
    }

    fn install_two_hop(&mut self, tables: &[(NodeId, Vec<(NodeId, SimDuration)>)]) {
        self.installing(|m| m.install_two_hop(tables));
    }

    fn install_clock_error(&mut self, bound: SimDuration) {
        self.inner.install_clock_error(bound);
    }

    fn on_slot_start(&mut self, ctx: &mut MacContext<'_>, slot: SlotIndex) {
        self.timed(Callback::SlotStart, |m| m.on_slot_start(ctx, slot));
    }

    fn on_enqueue(&mut self, ctx: &mut MacContext<'_>, sdu: Sdu) {
        self.timed(Callback::Enqueue, |m| m.on_enqueue(ctx, sdu));
    }

    fn on_frame_received(&mut self, ctx: &mut MacContext<'_>, rx: &Reception<'_>) {
        self.timed(Callback::FrameReceived, |m| m.on_frame_received(ctx, rx));
    }

    fn on_frame_sent(&mut self, ctx: &mut MacContext<'_>, frame: &Frame) {
        self.timed(Callback::FrameSent, |m| m.on_frame_sent(ctx, frame));
    }

    fn on_timer(&mut self, ctx: &mut MacContext<'_>, token: TimerToken) {
        self.timed(Callback::Timer, |m| m.on_timer(ctx, token));
    }

    fn queue_len(&self) -> usize {
        self.inner.queue_len()
    }

    fn state_label(&self) -> &'static str {
        self.inner.state_label()
    }
}

/// Times every record the wrapped sink accepts. The tally is published to
/// the shared handle when the sink is dropped (with its tracer), so the
/// per-record path takes no lock.
pub struct TimedSink {
    inner: Box<dyn TraceSink + Send>,
    tally: CallTally,
    publish: Arc<Mutex<CallTally>>,
}

impl TimedSink {
    /// Wraps `inner`; the tally lands in `publish` on drop.
    pub fn new(inner: Box<dyn TraceSink + Send>, publish: Arc<Mutex<CallTally>>) -> TimedSink {
        TimedSink {
            inner,
            tally: CallTally::default(),
            publish,
        }
    }
}

impl TraceSink for TimedSink {
    fn accept(&mut self, record: &TraceRecord) {
        let started = Instant::now();
        self.inner.accept(record);
        self.tally.record(started.elapsed().as_nanos() as u64);
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl Drop for TimedSink {
    fn drop(&mut self) {
        // A poisoned handle means the reader already panicked; losing the
        // tally then is harmless, and Drop must not panic.
        if let Ok(mut out) = self.publish.lock() {
            out.merge(&self.tally);
        }
    }
}

/// One timed interval of the traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run (from 1).
    pub id: u64,
    /// The enclosing span's id; 0 for the run span.
    pub parent: u64,
    /// Level name: `run`, `sweep`, `cell`, `sim`, `build`, `loop`.
    pub name: &'static str,
    /// Nanoseconds since the run began.
    pub start_ns: u64,
    /// Nanoseconds since the run began.
    pub end_ns: u64,
}

/// Spans kept in memory for the whole run and written out at exit.
#[derive(Debug)]
pub struct SpanLog {
    workload: &'static str,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new(workload: &'static str) -> SpanLog {
        SpanLog {
            workload,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh span id (allocate before the children so they can name it).
    pub fn id(&self) -> u64 {
        // A plain counter publishes no other data.
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// The instant span offsets count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Records span `id` over `[start, end]`.
    pub fn push(&self, id: u64, parent: u64, name: &'static str, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(Span {
                id,
                parent,
                name,
                start_ns: ns(start),
                end_ns: ns(end),
            });
    }

    /// Every recorded span, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// `[{id, parent, workload, name, start_ns, end_ns, self_ns}, ...]`.
    pub fn to_json(&self) -> JsonValue {
        let spans = self.spans();
        let self_ns = self_times(&spans);
        let span = |(s, own): (&Span, u64)| {
            JsonValue::Object(vec![
                ("id".to_string(), JsonValue::from_u64(s.id)),
                ("parent".to_string(), JsonValue::from_u64(s.parent)),
                (
                    "workload".to_string(),
                    JsonValue::from_string(self.workload),
                ),
                ("name".to_string(), JsonValue::from_string(s.name)),
                ("start_ns".to_string(), JsonValue::from_u64(s.start_ns)),
                ("end_ns".to_string(), JsonValue::from_u64(s.end_ns)),
                ("self_ns".to_string(), JsonValue::from_u64(own)),
            ])
        };
        JsonValue::Array(spans.iter().zip(self_ns).map(span).collect())
    }
}

/// Self time of each span, in input order: its duration minus the union
/// of its direct children's intervals (a sweep's cells run concurrently,
/// so overlapping children must not be subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for c in spans {
        children
            .entry(c.parent)
            .or_default()
            .push((c.start_ns, c.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            let mut reach = s.start_ns;
            let mut kids = children.get(&s.id).cloned().unwrap_or_default();
            kids.sort_unstable();
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}
