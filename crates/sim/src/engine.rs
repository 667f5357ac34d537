//! Generic discrete-event run loop.
//!
//! The [`Engine`] owns an [`EventQueue`] and drives a caller-supplied
//! [`World`]: pop the earliest event, hand it to the world together with a
//! scheduling handle, repeat until the horizon, an event budget, or queue
//! exhaustion. The world never touches the queue directly — it schedules via
//! the [`Schedule`] handle it receives, which keeps the "no scheduling into
//! the past" invariant enforceable in one place.

use std::time::{Duration, Instant};

use crate::event::EventQueue;
use crate::json::JsonValue;
use crate::profile::{EngineCost, KindCost};
use crate::time::SimTime;

/// One event in this many has its pop and handler wall time measured by
/// [`Engine::run_instrumented`] (must be a power of two). Sampling keeps the
/// clock reads off the common path — at ~30 ns per `Instant::now` and three
/// reads per sampled event, a stride of 16 bounds the engine's share of the
/// profiling tax to a few ns per event while still attributing cost per kind
/// accurately over any realistic run length.
pub const PROFILE_SAMPLE_STRIDE: u64 = 16;

/// The simulation logic driven by an [`Engine`].
pub trait World {
    /// The event payload type.
    type Event;

    /// Handles one event. `sched` is used to schedule follow-up events.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Schedule<'_, Self::Event>);

    /// Polled after every event; returning `true` ends the run with
    /// [`StopReason::StoppedByWorld`]. Used for goal-directed runs such as
    /// "stop when the whole batch is delivered".
    fn should_stop(&self) -> bool {
        false
    }
}

/// Scheduling handle passed to [`World::handle`].
#[derive(Debug)]
pub struct Schedule<'a, E> {
    queue: &'a mut EventQueue<E>,
    now: SimTime,
}

impl<'a, E> Schedule<'a, E> {
    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The packed `(time, seq)` key ([`crate::event::pack_key`]) of the
    /// event being handled.
    pub fn key(&self) -> u128 {
        self.queue.last_key()
    }

    /// The sequence number the next push takes; a batch's items take it
    /// and the numbers after it, in iteration order.
    pub fn next_seq(&self) -> u64 {
        self.queue.scheduled_count()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the current time.
    pub fn at(&mut self, at: SimTime, event: E) {
        self.queue.schedule(at, event);
    }

    /// Schedules `event` at absolute time `at` in the queue's FIFO lane
    /// `lane` (see [`EventQueue::schedule_in_lane`]): same firing order as
    /// [`Schedule::at`], cheaper when every event of the lane comes at a
    /// time no earlier than the lane's previous one.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the current time or the lane's last event.
    pub fn at_lane(&mut self, lane: usize, at: SimTime, event: E) {
        self.queue.schedule_in_lane(lane, at, event);
    }

    /// Schedules `event` after `delay` from now.
    pub fn after(&mut self, delay: crate::time::SimDuration, event: E) {
        self.queue.schedule(self.now + delay, event);
    }

    /// Schedules a batch of `(time, event)` pairs in iteration order.
    /// Equivalent to calling [`Schedule::at`] once per pair, but reserves
    /// queue space up front — the cheap path for transmission fan-outs that
    /// schedule one arrival pair per audible receiver.
    ///
    /// # Panics
    ///
    /// Panics if any pair's time precedes the current time.
    pub fn at_batch<I>(&mut self, events: I)
    where
        I: IntoIterator<Item = (SimTime, E)>,
    {
        self.queue.schedule_all(events);
    }
}

/// Why [`Engine::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// No events remained.
    QueueExhausted,
    /// The next event lay at or beyond the horizon.
    HorizonReached,
    /// The per-run event budget was consumed (runaway-protection).
    BudgetExhausted,
    /// The world's [`World::should_stop`] returned `true`.
    StoppedByWorld,
}

impl StopReason {
    /// Stable string form used in manifests and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            StopReason::QueueExhausted => "queue-exhausted",
            StopReason::HorizonReached => "horizon-reached",
            StopReason::BudgetExhausted => "budget-exhausted",
            StopReason::StoppedByWorld => "stopped-by-world",
        }
    }

    /// Parses the string form written by [`StopReason::as_str`].
    pub fn from_label(s: &str) -> Option<StopReason> {
        match s {
            "queue-exhausted" => Some(StopReason::QueueExhausted),
            "horizon-reached" => Some(StopReason::HorizonReached),
            "budget-exhausted" => Some(StopReason::BudgetExhausted),
            "stopped-by-world" => Some(StopReason::StoppedByWorld),
            _ => None,
        }
    }
}

/// Events that can name their kind for per-kind profiling counters.
///
/// Implemented by the network layer's event enum; [`Engine::run_profiled`]
/// uses it to break [`RunStats::kind_counts`] down by event kind. Kinds are
/// dense indices into [`EventLabel::LABELS`], so the run loop counts each
/// event with one array increment.
pub trait EventLabel {
    /// Every kind's short static name, e.g. `"tx-end"`, indexed by
    /// [`EventLabel::kind`].
    const LABELS: &'static [&'static str];

    /// This event's kind: an index below `LABELS.len()`.
    fn kind(&self) -> usize;
}

/// Profiling summary of one [`Engine::run_profiled`] call.
///
/// Queue-depth statistics are sampled after each pop (i.e. the number of
/// events still pending while one is being handled). Every count here
/// includes events the world pops and ignores as stale — in the network
/// layer, the superseded arms of re-armed or cancelled MAC timers.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Why the run stopped.
    pub stop_reason: StopReason,
    /// Events popped during this run call, stale ones included.
    pub events_processed: u64,
    /// Simulation clock when the run ended.
    pub sim_end: SimTime,
    /// Wall-clock time the run loop took.
    pub wall: Duration,
    /// Highest queue depth observed, pending stale events included.
    pub peak_queue_depth: usize,
    /// Mean queue depth over all processed events, pending stale events
    /// included.
    pub mean_queue_depth: f64,
    /// Events popped per kind, stale ones included, in first-seen order
    /// (empty when the run was not label-profiled).
    pub kind_counts: Vec<(&'static str, u64)>,
}

impl RunStats {
    /// Events processed (stale ones included) per simulated second (0 if no
    /// simulated time passed).
    pub fn events_per_sim_sec(&self) -> f64 {
        let secs = self.sim_end.as_secs_f64();
        if secs > 0.0 {
            self.events_processed as f64 / secs
        } else {
            0.0
        }
    }

    /// Events processed per wall-clock second (0 if the run was too fast to
    /// time).
    pub fn events_per_wall_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.events_processed as f64 / secs
        } else {
            0.0
        }
    }

    /// Serialises into a JSON object for run manifests.
    ///
    /// Wall-clock derived values vary between invocations; everything else
    /// is deterministic for a given seed.
    pub fn to_json(&self) -> JsonValue {
        let kinds = self
            .kind_counts
            .iter()
            .map(|&(label, count)| {
                JsonValue::Array(vec![
                    JsonValue::from_string(label),
                    JsonValue::from_u64(count),
                ])
            })
            .collect();
        JsonValue::Object(vec![
            (
                "stop_reason".to_string(),
                JsonValue::from_string(self.stop_reason.as_str()),
            ),
            (
                "events_processed".to_string(),
                JsonValue::from_u64(self.events_processed),
            ),
            (
                "sim_end_us".to_string(),
                JsonValue::from_u64(self.sim_end.as_micros()),
            ),
            (
                "wall_us".to_string(),
                JsonValue::from_u64(self.wall.as_micros() as u64),
            ),
            (
                "peak_queue_depth".to_string(),
                JsonValue::from_u64(self.peak_queue_depth as u64),
            ),
            (
                "mean_queue_depth".to_string(),
                JsonValue::from_f64(self.mean_queue_depth),
            ),
            (
                "events_per_sim_sec".to_string(),
                JsonValue::from_f64(self.events_per_sim_sec()),
            ),
            (
                "events_per_wall_sec".to_string(),
                JsonValue::from_f64(self.events_per_wall_sec()),
            ),
            ("kind_counts".to_string(), JsonValue::Array(kinds)),
        ])
    }

    /// Reconstructs run statistics from their [`RunStats::to_json`] form.
    ///
    /// Event-kind labels are interned (they are `&'static str` in the live
    /// struct); the intern table is deduplicated, so memory growth is
    /// bounded by the number of *distinct* labels ever parsed — a handful
    /// per protocol — not by the number of documents. The derived-rate
    /// fields (`events_per_sim_sec`, `events_per_wall_sec`) are recomputed
    /// rather than read back, so they always agree with the stored counts.
    ///
    /// Returns `None` on missing fields or an unknown stop reason.
    pub fn from_json(doc: &JsonValue) -> Option<RunStats> {
        let kind_counts = doc
            .get("kind_counts")?
            .as_array()?
            .iter()
            .map(|pair| {
                let [label, count] = pair.as_array()? else {
                    return None;
                };
                Some((intern_label(label.as_str()?), count.as_u64()?))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(RunStats {
            stop_reason: StopReason::from_label(doc.get("stop_reason")?.as_str()?)?,
            events_processed: doc.get("events_processed")?.as_u64()?,
            sim_end: SimTime::from_micros(doc.get("sim_end_us")?.as_u64()?),
            wall: Duration::from_micros(doc.get("wall_us")?.as_u64()?),
            peak_queue_depth: doc.get("peak_queue_depth")?.as_u64()? as usize,
            mean_queue_depth: doc.get("mean_queue_depth")?.as_f64()?,
            kind_counts,
        })
    }
}

/// Interns a label, returning a `&'static str` equal to it.
///
/// Labels (event kinds from [`EventLabel::LABELS`], stop reasons, profile
/// metric names) are `&'static str` in the live structs; parsing a
/// manifest back only ever re-encounters those same few strings, so the
/// leaked table stays tiny and is shared across every decoder and every
/// parsed document.
pub fn intern_label(label: &str) -> &'static str {
    static TABLE: std::sync::OnceLock<std::sync::Mutex<Vec<&'static str>>> =
        std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| std::sync::Mutex::new(Vec::new()));
    let mut table = table.lock().expect("label intern table poisoned");
    match table.iter().find(|&&l| l == label) {
        Some(&l) => l,
        None => {
            let leaked: &'static str = Box::leak(label.to_string().into_boxed_str());
            table.push(leaked);
            leaked
        }
    }
}

/// Discrete-event engine: event queue + run loop + accounting.
///
/// # Examples
///
/// ```
/// use uasn_sim::engine::{Engine, Schedule, StopReason, World};
/// use uasn_sim::time::{SimDuration, SimTime};
///
/// struct Counter {
///     fired: u32,
/// }
///
/// impl World for Counter {
///     type Event = ();
///     fn handle(&mut self, now: SimTime, _ev: (), sched: &mut Schedule<'_, ()>) {
///         self.fired += 1;
///         if self.fired < 5 {
///             sched.after(SimDuration::from_secs(1), ());
///         }
///     }
/// }
///
/// let mut engine = Engine::new();
/// engine.seed_event(SimTime::ZERO, ());
/// let mut world = Counter { fired: 0 };
/// let reason = engine.run(&mut world, SimTime::from_secs(100));
/// assert_eq!(world.fired, 5);
/// assert_eq!(reason, StopReason::QueueExhausted);
/// ```
#[derive(Debug)]
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
    budget: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine at t = 0 with a generous default event budget.
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
            // A 300 s, 200-node run processes a few hundred thousand events;
            // 500M is far beyond any legitimate configuration and exists only
            // to turn an accidental infinite event loop into a clean stop.
            budget: 500_000_000,
        }
    }

    /// Overrides the runaway-protection event budget.
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Pre-sizes the event queue for `capacity` simultaneously pending
    /// events, so steady-state push/pop never reallocates. Only a hint —
    /// the queue still grows past it if needed.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue = EventQueue::with_capacity(capacity);
        self
    }

    /// Schedules an initial event before the run starts.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the current time.
    pub fn seed_event(&mut self, at: SimTime, event: E) {
        self.queue.schedule(at, event);
    }

    /// Current simulation time (time of the last processed event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// The packed `(time, seq)` key ([`crate::event::pack_key`]) of the
    /// last event handled; 0 before the first.
    pub fn last_key(&self) -> u128 {
        self.queue.last_key()
    }

    /// Runs until the queue empties, the next event would land at or beyond
    /// `horizon`, or the event budget runs out. Returns why it stopped.
    ///
    /// Events exactly at the horizon are **not** processed — a horizon of
    /// 300 s means the simulated window is [0, 300).
    pub fn run<W: World<Event = E>>(&mut self, world: &mut W, horizon: SimTime) -> StopReason {
        self.run_loop::<W, Silent>(world, horizon).0
    }

    /// Like [`Engine::run`], but also profiles the run: per-kind event
    /// counts (via [`EventLabel`]), queue-depth statistics, and wall-clock.
    pub fn run_profiled<W: World<Event = E>>(&mut self, world: &mut W, horizon: SimTime) -> RunStats
    where
        E: EventLabel,
    {
        self.run_probed::<W, Counting>(world, horizon).0
    }

    /// Like [`Engine::run_profiled`], but additionally attributes wall time
    /// to each event kind's handler and to heap pop — the engine half of a
    /// [`crate::profile::ProfileReport`].
    ///
    /// Timing is sampled (one event in [`PROFILE_SAMPLE_STRIDE`]); counters
    /// are exact. The instrumentation reads the wall clock only — it never
    /// draws randomness, schedules events, or reorders anything, so a run
    /// under `run_instrumented` is event-for-event identical to the same run
    /// under [`Engine::run_profiled`].
    pub fn run_instrumented<W: World<Event = E>>(
        &mut self,
        world: &mut W,
        horizon: SimTime,
    ) -> (RunStats, EngineCost)
    where
        E: EventLabel,
    {
        let (stats, mut cost) = self.run_probed::<W, Timed>(world, horizon);
        cost.events_scheduled = self.queue.scheduled_count();
        (stats, cost)
    }

    /// Runs the loop under probe `P` and folds its accumulators into
    /// [`RunStats`] plus the (possibly empty) engine cost.
    fn run_probed<W: World<Event = E>, P: Probe<E>>(
        &mut self,
        world: &mut W,
        horizon: SimTime,
    ) -> (RunStats, EngineCost) {
        let started = Instant::now();
        let (stop_reason, profile) = self.run_loop::<W, P>(world, horizon);
        let stats = RunStats {
            stop_reason,
            events_processed: profile.processed,
            sim_end: self.now,
            wall: started.elapsed(),
            peak_queue_depth: profile.depth_peak,
            mean_queue_depth: if profile.processed > 0 {
                profile.depth_sum as f64 / profile.processed as f64
            } else {
                0.0
            },
            kind_counts: profile.kind_counts.labelled(P::LABELS),
        };
        let cost = EngineCost {
            handler: profile.handler.labelled(P::LABELS),
            ..profile.cost
        };
        (stats, cost)
    }

    /// The one event loop. `P` is a zero-sized probe, so each mode gets its
    /// own monomorphised copy and the product loop carries no per-event
    /// branch on a profiling mode: a counting probe compiles the timing out,
    /// a silent one the counting as well.
    fn run_loop<W: World<Event = E>, P: Probe<E>>(
        &mut self,
        world: &mut W,
        horizon: SimTime,
    ) -> (StopReason, RunProfile) {
        let mut profile = RunProfile {
            kind_counts: KindTally::new(P::LABELS.len()),
            handler: KindTally::new(P::LABELS.len()),
            ..RunProfile::default()
        };
        let reason = loop {
            if self.processed >= self.budget {
                break StopReason::BudgetExhausted;
            }
            let sampled = P::TIMED && profile.processed.is_multiple_of(PROFILE_SAMPLE_STRIDE);
            let popped_at = sampled.then(Instant::now);
            let Some((t, ev)) = self.queue.pop_before(horizon) else {
                if self.queue.is_empty() {
                    break StopReason::QueueExhausted;
                }
                self.now = horizon;
                break StopReason::HorizonReached;
            };
            self.now = t;
            self.processed += 1;
            profile.processed += 1;
            let depth = self.queue.len();
            profile.depth_sum += depth as u64;
            profile.depth_peak = profile.depth_peak.max(depth);
            let kind = P::kind(&ev);
            if let Some(kind) = kind {
                *profile.kind_counts.entry(kind) += 1;
            }
            let handled_at = popped_at.map(|popped| {
                let handled = Instant::now();
                profile.cost.pop_ns += (handled - popped).as_nanos() as u64;
                handled
            });
            let mut sched = Schedule {
                queue: &mut self.queue,
                now: t,
            };
            world.handle(t, ev, &mut sched);
            if let (Some(handled), Some(kind)) = (handled_at, kind) {
                let ns = handled.elapsed().as_nanos() as u64;
                profile.cost.sampled_events += 1;
                let kc = profile.handler.entry(kind);
                kc.sampled += 1;
                kc.total_ns += ns;
                kc.max_ns = kc.max_ns.max(ns);
            }
            if world.should_stop() {
                break StopReason::StoppedByWorld;
            }
        };
        (reason, profile)
    }
}

/// What the run loop records beyond the queue statistics. Implemented only
/// by zero-sized markers, so the mode is fixed at compile time.
trait Probe<E> {
    /// Whether one event in [`PROFILE_SAMPLE_STRIDE`] has its pop and
    /// handler wall time sampled.
    const TIMED: bool;

    /// The names of the kinds [`Probe::kind`] returns.
    const LABELS: &'static [&'static str];

    /// The kind to count the event under; `None` counts nothing.
    fn kind(ev: &E) -> Option<usize>;
}

/// [`Engine::run`]: queue statistics only.
struct Silent;

/// [`Engine::run_profiled`]: per-kind event counts.
struct Counting;

/// [`Engine::run_instrumented`]: per-kind counts plus sampled timing.
struct Timed;

impl<E> Probe<E> for Silent {
    const TIMED: bool = false;
    const LABELS: &'static [&'static str] = &[];
    fn kind(_: &E) -> Option<usize> {
        None
    }
}

impl<E: EventLabel> Probe<E> for Counting {
    const TIMED: bool = false;
    const LABELS: &'static [&'static str] = E::LABELS;
    fn kind(ev: &E) -> Option<usize> {
        Some(ev.kind())
    }
}

impl<E: EventLabel> Probe<E> for Timed {
    const TIMED: bool = true;
    const LABELS: &'static [&'static str] = E::LABELS;
    fn kind(ev: &E) -> Option<usize> {
        Some(ev.kind())
    }
}

/// Per-run-call accumulators of the run loop.
#[derive(Debug, Default)]
struct RunProfile {
    processed: u64,
    depth_sum: u64,
    depth_peak: usize,
    kind_counts: KindTally<u64>,
    handler: KindTally<KindCost>,
    cost: EngineCost,
}

/// One accumulator per event kind, indexed by [`EventLabel::kind`], that
/// remembers the order kinds were first touched in: manifests list kinds
/// in first-seen order, so that order is part of the output.
#[derive(Debug, Default)]
struct KindTally<T> {
    by_kind: Vec<Option<T>>,
    first_seen: Vec<usize>,
}

impl<T: Default + Copy> KindTally<T> {
    fn new(kinds: usize) -> Self {
        KindTally {
            by_kind: vec![None; kinds],
            first_seen: Vec::new(),
        }
    }

    /// `kind`'s accumulator, started at its default on first touch.
    fn entry(&mut self, kind: usize) -> &mut T {
        let slot = &mut self.by_kind[kind];
        if slot.is_none() {
            self.first_seen.push(kind);
        }
        slot.get_or_insert_with(T::default)
    }

    /// The touched accumulators under their kind names, in first-seen
    /// order.
    fn labelled(&self, labels: &[&'static str]) -> Vec<(&'static str, T)> {
        self.first_seen
            .iter()
            .map(|&kind| (labels[kind], self.by_kind[kind].expect("a seen kind")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn run_stats_round_trip_through_json() {
        let stats = RunStats {
            stop_reason: StopReason::HorizonReached,
            events_processed: 12_345,
            sim_end: SimTime::from_micros(987_654_321),
            wall: Duration::from_micros(4_567),
            peak_queue_depth: 42,
            mean_queue_depth: std::f64::consts::PI,
            kind_counts: vec![("tx-end", 7_000), ("rx-end", 5_345)],
        };
        let back = RunStats::from_json(&stats.to_json()).expect("parse");
        assert_eq!(back, stats);
        // Interned labels compare equal to the originals even though they
        // came from a parsed document, and a second parse reuses them.
        let again = RunStats::from_json(&stats.to_json()).expect("parse");
        assert!(std::ptr::eq(back.kind_counts[0].0, again.kind_counts[0].0));
        // Unknown stop reasons are rejected rather than guessed.
        let tampered = stats
            .to_json()
            .to_json()
            .replace("horizon-reached", "metaphysics");
        let doc = JsonValue::parse(&tampered).expect("json");
        assert_eq!(RunStats::from_json(&doc), None);
    }

    #[derive(Default)]
    struct Recorder {
        seen: Vec<(SimTime, u32)>,
    }

    impl World for Recorder {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Schedule<'_, u32>) {
            self.seen.push((now, ev));
            if ev == 1 {
                // fan out two children at +1 s
                sched.after(SimDuration::from_secs(1), 10);
                sched.after(SimDuration::from_secs(1), 11);
            }
        }
    }

    #[test]
    fn runs_events_in_order_until_exhausted() {
        let mut engine = Engine::new();
        engine.seed_event(SimTime::from_secs(1), 1);
        engine.seed_event(SimTime::from_secs(3), 2);
        let mut world = Recorder::default();
        let reason = engine.run(&mut world, SimTime::from_secs(100));
        assert_eq!(reason, StopReason::QueueExhausted);
        let evs: Vec<u32> = world.seen.iter().map(|&(_, e)| e).collect();
        assert_eq!(evs, [1, 10, 11, 2]);
        assert_eq!(engine.processed(), 4);
    }

    #[test]
    fn horizon_is_exclusive() {
        let mut engine = Engine::new();
        engine.seed_event(SimTime::from_secs(1), 1);
        engine.seed_event(SimTime::from_secs(5), 2);
        let mut world = Recorder::default();
        let reason = engine.run(&mut world, SimTime::from_secs(5));
        assert_eq!(reason, StopReason::HorizonReached);
        // event at exactly t=5 not processed; engine clock parked at horizon
        assert_eq!(engine.now(), SimTime::from_secs(5));
        let evs: Vec<u32> = world.seen.iter().map(|&(_, e)| e).collect();
        assert_eq!(evs, [1, 10, 11]);
    }

    #[test]
    fn budget_stops_runaway_loops() {
        struct Loopy;
        impl World for Loopy {
            type Event = ();
            fn handle(&mut self, _now: SimTime, _ev: (), sched: &mut Schedule<'_, ()>) {
                sched.after(SimDuration::from_micros(1), ());
            }
        }
        let mut engine = Engine::new().with_event_budget(1_000);
        engine.seed_event(SimTime::ZERO, ());
        let reason = engine.run(&mut Loopy, SimTime::MAX);
        assert_eq!(reason, StopReason::BudgetExhausted);
        assert_eq!(engine.processed(), 1_000);
    }

    #[test]
    fn resumable_runs_continue_from_horizon() {
        let mut engine = Engine::new();
        engine.seed_event(SimTime::from_secs(1), 1);
        engine.seed_event(SimTime::from_secs(10), 2);
        let mut world = Recorder::default();
        engine.run(&mut world, SimTime::from_secs(5));
        assert_eq!(world.seen.len(), 3);
        let reason = engine.run(&mut world, SimTime::from_secs(20));
        assert_eq!(reason, StopReason::QueueExhausted);
        assert_eq!(world.seen.len(), 4);
    }
}

#[cfg(test)]
mod profiling_tests {
    use super::*;
    use crate::time::SimDuration;

    #[derive(Clone, Copy)]
    enum Ev {
        Tick,
        Tock,
    }

    impl EventLabel for Ev {
        const LABELS: &'static [&'static str] = &["tick", "tock"];
        fn kind(&self) -> usize {
            *self as usize
        }
    }

    struct PingPong;
    impl World for PingPong {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Schedule<'_, Ev>) {
            if now >= SimTime::from_secs(9) {
                return;
            }
            match ev {
                Ev::Tick => {
                    sched.after(SimDuration::from_secs(1), Ev::Tock);
                }
                Ev::Tock => {
                    sched.after(SimDuration::from_secs(1), Ev::Tick);
                    sched.after(SimDuration::from_secs(2), Ev::Tick);
                }
            }
        }
    }

    #[test]
    fn run_profiled_counts_kinds_and_depths() {
        let mut engine = Engine::new();
        engine.seed_event(SimTime::ZERO, Ev::Tick);
        let stats = engine.run_profiled(&mut PingPong, SimTime::from_secs(30));
        assert_eq!(stats.stop_reason, StopReason::QueueExhausted);
        assert_eq!(stats.events_processed, engine.processed());
        let total_by_kind: u64 = stats.kind_counts.iter().map(|&(_, c)| c).sum();
        assert_eq!(total_by_kind, stats.events_processed);
        assert!(stats.kind_counts.iter().any(|&(l, _)| l == "tick"));
        assert!(stats.kind_counts.iter().any(|&(l, _)| l == "tock"));
        assert!(stats.peak_queue_depth >= 1);
        assert!(stats.mean_queue_depth > 0.0);
        assert!(stats.events_per_sim_sec() > 0.0);
    }

    #[test]
    fn run_profiled_matches_plain_run_semantics() {
        let mut plain = Engine::new();
        plain.seed_event(SimTime::ZERO, Ev::Tick);
        let reason = plain.run(&mut PingPong, SimTime::from_secs(5));

        let mut profiled = Engine::new();
        profiled.seed_event(SimTime::ZERO, Ev::Tick);
        let stats = profiled.run_profiled(&mut PingPong, SimTime::from_secs(5));

        assert_eq!(stats.stop_reason, reason);
        assert_eq!(stats.events_processed, plain.processed());
        assert_eq!(profiled.now(), plain.now());
    }

    #[test]
    fn run_instrumented_matches_run_profiled() {
        let mut plain = Engine::new();
        plain.seed_event(SimTime::ZERO, Ev::Tick);
        let baseline = plain.run_profiled(&mut PingPong, SimTime::from_secs(30));

        let mut instrumented = Engine::new();
        instrumented.seed_event(SimTime::ZERO, Ev::Tick);
        let (stats, cost) = instrumented.run_instrumented(&mut PingPong, SimTime::from_secs(30));

        // Everything deterministic must be identical to the uninstrumented
        // run — only wall-clock-derived fields may differ.
        assert_eq!(stats.stop_reason, baseline.stop_reason);
        assert_eq!(stats.events_processed, baseline.events_processed);
        assert_eq!(stats.sim_end, baseline.sim_end);
        assert_eq!(stats.kind_counts, baseline.kind_counts);
        assert_eq!(stats.peak_queue_depth, baseline.peak_queue_depth);
        assert_eq!(stats.mean_queue_depth, baseline.mean_queue_depth);
        assert_eq!(instrumented.now(), plain.now());

        // Attribution sampled one event in PROFILE_SAMPLE_STRIDE.
        let expected_samples = stats.events_processed.div_ceil(PROFILE_SAMPLE_STRIDE);
        assert_eq!(cost.sampled_events, expected_samples);
        let sampled_by_kind: u64 = cost.handler.iter().map(|&(_, c)| c.sampled).sum();
        assert_eq!(sampled_by_kind, cost.sampled_events);
        assert!(cost.handler.iter().all(|&(_, c)| c.max_ns >= c.mean_ns()));
    }

    /// Records the label of every event it handles, in handling order.
    #[derive(Default)]
    struct LabelLog(Vec<&'static str>);

    impl World for LabelLog {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Schedule<'_, Ev>) {
            self.0.push(Ev::LABELS[ev.kind()]);
            PingPong.handle(now, ev, sched);
        }
    }

    /// `labels` counted with a linear search, in first-seen order.
    fn recount<'a>(labels: impl Iterator<Item = &'a &'static str>) -> Vec<(&'static str, u64)> {
        let mut counts: Vec<(&'static str, u64)> = Vec::new();
        for &label in labels {
            match counts.iter_mut().find(|(l, _)| *l == label) {
                Some((_, n)) => *n += 1,
                None => counts.push((label, 1)),
            }
        }
        counts
    }

    #[test]
    fn kind_counts_equal_a_label_recount_in_first_seen_order() {
        // Seeded Tock first, so first-seen order differs from `LABELS`.
        let seeded = || {
            let mut engine = Engine::new();
            engine.seed_event(SimTime::ZERO, Ev::Tock);
            engine
        };
        let mut log = LabelLog::default();
        let stats = seeded().run_profiled(&mut log, SimTime::from_secs(30));
        assert_eq!(stats.kind_counts, recount(log.0.iter()));
        assert_eq!(stats.kind_counts[0].0, "tock");

        let mut log = LabelLog::default();
        let (stats, cost) = seeded().run_instrumented(&mut log, SimTime::from_secs(30));
        assert_eq!(stats.kind_counts, recount(log.0.iter()));
        // The handler cost lists the sampled events' kinds, first seen first.
        let sampled = recount(log.0.iter().step_by(PROFILE_SAMPLE_STRIDE as usize));
        let handler: Vec<(&'static str, u64)> =
            cost.handler.iter().map(|&(l, c)| (l, c.sampled)).collect();
        assert_eq!(handler, sampled);
    }

    #[test]
    fn run_stats_serialise_to_json() {
        let mut engine = Engine::new();
        engine.seed_event(SimTime::ZERO, Ev::Tick);
        let stats = engine.run_profiled(&mut PingPong, SimTime::from_secs(30));
        let json = stats.to_json();
        assert_eq!(
            json.get("stop_reason").and_then(JsonValue::as_str),
            Some("queue-exhausted")
        );
        assert_eq!(
            json.get("events_processed").and_then(JsonValue::as_u64),
            Some(stats.events_processed)
        );
        let text = json.to_json();
        let back = JsonValue::parse(&text).expect("round trip");
        assert_eq!(back, json);
    }

    #[test]
    fn stop_reason_strings_round_trip() {
        for reason in [
            StopReason::QueueExhausted,
            StopReason::HorizonReached,
            StopReason::BudgetExhausted,
            StopReason::StoppedByWorld,
        ] {
            assert_eq!(StopReason::from_label(reason.as_str()), Some(reason));
        }
        assert_eq!(StopReason::from_label("nonsense"), None);
    }
}

#[cfg(test)]
mod stop_tests {
    use super::*;
    use crate::time::SimDuration;

    struct StopAtThree(u32);
    impl World for StopAtThree {
        type Event = ();
        fn handle(&mut self, _now: SimTime, _ev: (), sched: &mut Schedule<'_, ()>) {
            self.0 += 1;
            sched.after(SimDuration::from_secs(1), ());
        }
        fn should_stop(&self) -> bool {
            self.0 >= 3
        }
    }

    #[test]
    fn world_can_request_stop() {
        let mut engine = Engine::new();
        engine.seed_event(SimTime::ZERO, ());
        let mut world = StopAtThree(0);
        let reason = engine.run(&mut world, SimTime::MAX);
        assert_eq!(reason, StopReason::StoppedByWorld);
        assert_eq!(world.0, 3);
    }
}
