//! Performance-observability registry and profile reports.
//!
//! This module is the measurement substrate for engine-cost work: a
//! [`MetricsRegistry`] of named counters, high-water gauges, and
//! log2-bucketed [`LogHistogram`] distributions, plus the [`ProfileReport`]
//! that a profiled run exports through manifests, the lab journal, and
//! `obs_report profile`.
//!
//! Two properties are contractual:
//!
//! * **Zero overhead when off.** A disabled registry allocates nothing at
//!   construction and every recording call early-returns on one branch.
//!   [`Stopwatch::start_if`] reads the clock only when enabled, so the
//!   simulation hot path pays a predictable-branch test and nothing else.
//! * **Never observable by the simulation.** The registry records wall-clock
//!   durations and pure counts. It draws no random numbers, schedules no
//!   events, and is never read back by protocol logic, so enabling profiling
//!   cannot perturb traces — goldens stay byte-identical either way.
//!
//! Snapshots merge associatively (counters add, gauges take the max,
//! histograms merge exactly), which lets a parallel sweep fold per-cell
//! profiles in any grouping and land on the same aggregate.
//!
//! # Examples
//!
//! ```
//! use uasn_sim::profile::{MetricsRegistry, Stopwatch};
//!
//! let mut reg = MetricsRegistry::new(true);
//! let clock = Stopwatch::start_if(reg.is_enabled());
//! reg.add("cache.hit", 3);
//! reg.observe("fanout", 17);
//! if let Some(ns) = clock.elapsed_ns() {
//!     reg.observe("section_ns", ns);
//! }
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("cache.hit"), 3);
//! ```

use std::time::Instant;

use crate::engine::intern_label;
use crate::hist::LogHistogram;
use crate::json::JsonValue;

/// A wall-clock stopwatch that only reads the clock when armed.
///
/// `start_if(false)` is free: no `Instant::now()` call, and
/// [`Stopwatch::elapsed_ns`] returns `None`. This is the idiom hot paths use
/// so a disabled profile costs one predictable branch.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// Starts the stopwatch when `enabled`, otherwise returns a dormant one.
    pub fn start_if(enabled: bool) -> Stopwatch {
        Stopwatch(enabled.then(Instant::now))
    }

    /// Nanoseconds since start, or `None` if the stopwatch was dormant.
    /// Saturates at `u64::MAX` (584 years); practical sections never get
    /// there.
    pub fn elapsed_ns(&self) -> Option<u64> {
        self.0
            .map(|at| u64::try_from(at.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }
}

/// Named counters, gauges, and distributions for one simulation run.
///
/// Names are `&'static str` by design: recording never allocates, and the
/// first-seen ordering of names makes every export deterministic for a
/// given code path. Use dotted `layer.thing` names (`"phy.cache.hit"`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    enabled: bool,
    snap: MetricsSnapshot,
}

impl MetricsRegistry {
    /// A registry; when `enabled` is false every recording call is a no-op
    /// and no storage is ever allocated.
    pub fn new(enabled: bool) -> MetricsRegistry {
        MetricsRegistry {
            enabled,
            snap: MetricsSnapshot::default(),
        }
    }

    /// A permanently disabled registry (the hot-path default).
    pub fn disabled() -> MetricsRegistry {
        MetricsRegistry::new(false)
    }

    /// Whether recording calls do anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Adds `delta` to the counter `name`.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        if !self.enabled {
            return;
        }
        match self.snap.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v += delta,
            None => self.snap.counters.push((name, delta)),
        }
    }

    /// Increments the counter `name` by one.
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Raises the high-water gauge `name` to at least `v`.
    ///
    /// Gauges are maxima rather than last-writes so that merging snapshots
    /// stays associative and order-independent.
    pub fn gauge_max(&mut self, name: &'static str, v: f64) {
        if !self.enabled {
            return;
        }
        match self.snap.gauges.iter_mut().find(|(n, _)| *n == name) {
            Some((_, g)) => *g = g.max(v),
            None => self.snap.gauges.push((name, v)),
        }
    }

    /// Records `v` into the distribution `name`.
    pub fn observe(&mut self, name: &'static str, v: u64) {
        if !self.enabled {
            return;
        }
        match self.snap.hists.iter_mut().find(|(n, _)| *n == name) {
            Some((_, h)) => h.record(v),
            None => {
                let mut h = LogHistogram::new();
                h.record(v);
                self.snap.hists.push((name, h));
            }
        }
    }

    /// A copy of everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.snap.clone()
    }

    /// Moves everything recorded out, leaving the registry empty (but still
    /// enabled/disabled as before).
    pub fn take(&mut self) -> MetricsSnapshot {
        std::mem::take(&mut self.snap)
    }
}

/// The recorded state of a [`MetricsRegistry`]: mergeable, serialisable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counts, in first-seen order.
    pub counters: Vec<(&'static str, u64)>,
    /// High-water gauges, in first-seen order.
    pub gauges: Vec<(&'static str, f64)>,
    /// Value distributions, in first-seen order.
    pub hists: Vec<(&'static str, LogHistogram)>,
}

impl MetricsSnapshot {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// The counter `name`, or 0 if it was never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// The gauge `name`, if it was ever raised.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The distribution `name`, if it ever saw a value.
    pub fn hist(&self, name: &str) -> Option<&LogHistogram> {
        self.hists.iter().find(|(n, _)| *n == name).map(|(_, h)| h)
    }

    /// Folds another snapshot in: counters add, gauges take the max,
    /// histograms merge exactly. Associative, so sweep aggregation can fold
    /// per-cell snapshots in any grouping.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for &(name, v) in &other.counters {
            match self.counters.iter_mut().find(|(n, _)| *n == name) {
                Some((_, a)) => *a += v,
                None => self.counters.push((name, v)),
            }
        }
        for &(name, v) in &other.gauges {
            match self.gauges.iter_mut().find(|(n, _)| *n == name) {
                Some((_, a)) => *a = a.max(v),
                None => self.gauges.push((name, v)),
            }
        }
        for &(name, ref h) in &other.hists {
            match self.hists.iter_mut().find(|(n, _)| *n == name) {
                Some((_, a)) => a.merge(h),
                None => self.hists.push((name, h.clone())),
            }
        }
    }

    /// Serialises into a JSON object (deterministic for a given recording
    /// order).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "counters".to_string(),
                JsonValue::Array(
                    self.counters
                        .iter()
                        .map(|&(n, v)| {
                            JsonValue::Array(vec![
                                JsonValue::from_string(n),
                                JsonValue::from_u64(v),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "gauges".to_string(),
                JsonValue::Array(
                    self.gauges
                        .iter()
                        .map(|&(n, v)| {
                            JsonValue::Array(vec![
                                JsonValue::from_string(n),
                                JsonValue::from_f64(v),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "hists".to_string(),
                JsonValue::Array(
                    self.hists
                        .iter()
                        .map(|(n, h)| {
                            JsonValue::Array(vec![JsonValue::from_string(*n), h.to_json()])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Reconstructs a snapshot from its [`MetricsSnapshot::to_json`] form.
    /// Names are interned back to `&'static str` (bounded by the number of
    /// distinct metric names in the codebase). Returns `None` on missing or
    /// malformed fields.
    pub fn from_json(doc: &JsonValue) -> Option<MetricsSnapshot> {
        let counters = doc
            .get("counters")?
            .as_array()?
            .iter()
            .map(|pair| {
                let [name, v] = pair.as_array()? else {
                    return None;
                };
                Some((intern_label(name.as_str()?), v.as_u64()?))
            })
            .collect::<Option<Vec<_>>>()?;
        let gauges = doc
            .get("gauges")?
            .as_array()?
            .iter()
            .map(|pair| {
                let [name, v] = pair.as_array()? else {
                    return None;
                };
                Some((intern_label(name.as_str()?), v.as_f64()?))
            })
            .collect::<Option<Vec<_>>>()?;
        let hists = doc
            .get("hists")?
            .as_array()?
            .iter()
            .map(|pair| {
                let [name, h] = pair.as_array()? else {
                    return None;
                };
                Some((intern_label(name.as_str()?), LogHistogram::from_json(h)?))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(MetricsSnapshot {
            counters,
            gauges,
            hists,
        })
    }
}

/// Sampled wall-clock cost of one event kind's handler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCost {
    /// Events of this kind whose handler was timed (a 1-in-`stride` sample).
    pub sampled: u64,
    /// Total handler nanoseconds across the sampled events.
    pub total_ns: u64,
    /// Slowest sampled handler invocation.
    pub max_ns: u64,
}

impl KindCost {
    /// Mean nanoseconds per sampled handler call (0 when nothing sampled).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.sampled).unwrap_or(0)
    }

    fn merge(&mut self, other: &KindCost) {
        self.sampled += other.sampled;
        self.total_ns += other.total_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// Engine-level cost attribution from one instrumented run: where the run
/// loop's wall time went.
///
/// Handler and pop timings are **sampled** (one event in
/// [`crate::engine::PROFILE_SAMPLE_STRIDE`]) so the clock reads stay off the
/// common path; the event count is exact.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineCost {
    /// Per-event-kind sampled handler cost, in first-seen order.
    pub handler: Vec<(&'static str, KindCost)>,
    /// Total nanoseconds spent popping the queue across sampled events.
    pub pop_ns: u64,
    /// Events whose iteration was timed.
    pub sampled_events: u64,
    /// Total events ever scheduled on the queue.
    pub events_scheduled: u64,
}

impl EngineCost {
    /// Folds another run's attribution in.
    pub fn merge(&mut self, other: &EngineCost) {
        for (name, cost) in &other.handler {
            match self.handler.iter_mut().find(|(n, _)| n == name) {
                Some((_, a)) => a.merge(cost),
                None => self.handler.push((name, *cost)),
            }
        }
        self.pop_ns += other.pop_ns;
        self.sampled_events += other.sampled_events;
        self.events_scheduled += other.events_scheduled;
    }
}

/// The exported profile of one (or a merged set of) instrumented runs:
/// engine cost attribution plus every registry metric the layers recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    /// Runs merged into this report.
    pub runs: u64,
    /// Engine run-loop attribution.
    pub engine: EngineCost,
    /// Layer metrics (phy cache counters, net distributions, ...).
    pub metrics: MetricsSnapshot,
}

impl ProfileReport {
    /// Assembles a single-run report.
    pub fn single(engine: EngineCost, metrics: MetricsSnapshot) -> ProfileReport {
        ProfileReport {
            runs: 1,
            engine,
            metrics,
        }
    }

    /// Folds another report in. Associative together with
    /// [`MetricsSnapshot::merge`], so sweeps can aggregate in any grouping.
    pub fn merge(&mut self, other: &ProfileReport) {
        self.runs += other.runs;
        self.engine.merge(&other.engine);
        self.metrics.merge(&other.metrics);
    }

    /// Event kinds by descending sampled handler cost.
    pub fn top_handlers(&self) -> Vec<(&'static str, KindCost)> {
        let mut v = self.engine.handler.clone();
        v.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(b.0)));
        v
    }

    /// Serialises into a JSON object for manifests and journals.
    pub fn to_json(&self) -> JsonValue {
        let handler = self
            .engine
            .handler
            .iter()
            .map(|(name, c)| {
                JsonValue::Array(vec![
                    JsonValue::from_string(*name),
                    JsonValue::from_u64(c.sampled),
                    JsonValue::from_u64(c.total_ns),
                    JsonValue::from_u64(c.max_ns),
                ])
            })
            .collect();
        JsonValue::Object(vec![
            ("runs".to_string(), JsonValue::from_u64(self.runs)),
            ("handler".to_string(), JsonValue::Array(handler)),
            (
                "pop_ns".to_string(),
                JsonValue::from_u64(self.engine.pop_ns),
            ),
            (
                "sampled_events".to_string(),
                JsonValue::from_u64(self.engine.sampled_events),
            ),
            (
                "events_scheduled".to_string(),
                JsonValue::from_u64(self.engine.events_scheduled),
            ),
            ("metrics".to_string(), self.metrics.to_json()),
        ])
    }

    /// Reconstructs a report from its [`ProfileReport::to_json`] form.
    pub fn from_json(doc: &JsonValue) -> Option<ProfileReport> {
        let handler = doc
            .get("handler")?
            .as_array()?
            .iter()
            .map(|entry| {
                let [name, sampled, total_ns, max_ns] = entry.as_array()? else {
                    return None;
                };
                Some((
                    intern_label(name.as_str()?),
                    KindCost {
                        sampled: sampled.as_u64()?,
                        total_ns: total_ns.as_u64()?,
                        max_ns: max_ns.as_u64()?,
                    },
                ))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(ProfileReport {
            runs: doc.get("runs")?.as_u64()?,
            engine: EngineCost {
                handler,
                pop_ns: doc.get("pop_ns")?.as_u64()?,
                sampled_events: doc.get("sampled_events")?.as_u64()?,
                events_scheduled: doc.get("events_scheduled")?.as_u64()?,
            },
            metrics: MetricsSnapshot::from_json(doc.get("metrics")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let mut reg = MetricsRegistry::disabled();
        reg.add("a", 5);
        reg.incr("a");
        reg.gauge_max("g", 1.0);
        reg.observe("h", 42);
        assert!(!reg.is_enabled());
        assert!(reg.snapshot().is_empty());
    }

    #[test]
    fn dormant_stopwatch_reports_nothing() {
        let sw = Stopwatch::start_if(false);
        assert_eq!(sw.elapsed_ns(), None);
        let sw = Stopwatch::start_if(true);
        assert!(sw.elapsed_ns().is_some());
    }

    #[test]
    fn registry_accumulates_in_first_seen_order() {
        let mut reg = MetricsRegistry::new(true);
        reg.incr("b");
        reg.add("a", 2);
        reg.incr("b");
        reg.gauge_max("g", 3.0);
        reg.gauge_max("g", 1.0);
        reg.observe("h", 10);
        reg.observe("h", 20);
        let snap = reg.snapshot();
        assert_eq!(snap.counters, vec![("b", 2), ("a", 2)]);
        assert_eq!(snap.gauge("g"), Some(3.0));
        assert_eq!(snap.hist("h").map(LogHistogram::count), Some(2));
        assert_eq!(snap.counter("missing"), 0);
        let taken = reg.take();
        assert_eq!(taken, snap);
        assert!(reg.snapshot().is_empty());
        assert!(reg.is_enabled(), "take keeps the registry armed");
    }

    fn sample_snapshot(seed: u64) -> MetricsSnapshot {
        let mut reg = MetricsRegistry::new(true);
        reg.add("alpha", seed);
        if seed.is_multiple_of(2) {
            reg.add("even", 1);
        }
        reg.gauge_max("peak", seed as f64 * 1.5);
        for v in 0..seed {
            reg.observe("dist", v * 37);
        }
        reg.take()
    }

    #[test]
    fn snapshot_merge_is_associative() {
        let (a, b, c) = (sample_snapshot(3), sample_snapshot(4), sample_snapshot(9));
        // (a ⊔ b) ⊔ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊔ (b ⊔ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        assert_eq!(left.counter("alpha"), 16);
        assert_eq!(left.counter("even"), 1);
        assert_eq!(left.gauge("peak"), Some(13.5));
        assert_eq!(left.hist("dist").map(LogHistogram::count), Some(3 + 4 + 9));
    }

    fn sample_report(seed: u64) -> ProfileReport {
        ProfileReport::single(
            EngineCost {
                handler: vec![(
                    "tx-start",
                    KindCost {
                        sampled: seed,
                        total_ns: seed * 100,
                        max_ns: 90 + seed,
                    },
                )],
                pop_ns: seed * 7,
                sampled_events: seed,
                events_scheduled: seed * 5,
            },
            sample_snapshot(seed),
        )
    }

    #[test]
    fn profile_report_merge_is_associative() {
        let (a, b, c) = (sample_report(2), sample_report(5), sample_report(11));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        assert_eq!(left.runs, 3);
        assert_eq!(left.engine.handler[0].1.sampled, 18);
    }

    #[test]
    fn profile_report_json_round_trips() {
        let mut report = sample_report(6);
        report.merge(&sample_report(1));
        let back = ProfileReport::from_json(&report.to_json()).expect("parse");
        assert_eq!(back, report);
        // And the serialised text itself parses back to the same document.
        let text = report.to_json().to_json();
        let doc = JsonValue::parse(&text).expect("json");
        assert_eq!(ProfileReport::from_json(&doc), Some(report));
    }

    #[test]
    fn empty_profile_report_round_trips() {
        let report = ProfileReport::default();
        assert_eq!(
            ProfileReport::from_json(&report.to_json()),
            Some(report.clone())
        );
        assert_eq!(report.top_handlers(), Vec::new());
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        let report = sample_report(4);
        let text = report.to_json().to_json().replace("\"runs\"", "\"ruins\"");
        let doc = JsonValue::parse(&text).expect("json");
        assert_eq!(ProfileReport::from_json(&doc), None);
    }

    #[test]
    fn top_handlers_sorts_by_cost() {
        let mut report = ProfileReport::default();
        report.engine.handler = vec![
            (
                "cheap",
                KindCost {
                    sampled: 10,
                    total_ns: 100,
                    max_ns: 20,
                },
            ),
            (
                "dear",
                KindCost {
                    sampled: 10,
                    total_ns: 9_000,
                    max_ns: 2_000,
                },
            ),
        ];
        let top = report.top_handlers();
        assert_eq!(top[0].0, "dear");
        assert_eq!(top[1].0, "cheap");
        assert_eq!(top[0].1.mean_ns(), 900);
    }
}
