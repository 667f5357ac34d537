//! Allocation gate for the monitored hot path: the world hands its typed
//! records straight to the streaming monitors, so attaching them must cost
//! (almost) no allocation per record — no rendered message, no field
//! vector, no decoded strings. A routed, monitored EW-MAC run is counted
//! against the same run unmonitored; the difference, spread over the
//! records the monitors saw, must stay under 1% of an allocation each.
//!
//! Uses a counting global allocator wrapping the system one. This lives in
//! an integration test (its own crate) because the library forbids unsafe
//! code and `GlobalAlloc` is an unsafe trait.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use uasn_audit::monitor::StreamingMonitor;
use uasn_ewmac::{EwMac, EwMacConfig};
use uasn_net::config::SimConfig;
use uasn_net::topology::Deployment;
use uasn_net::world::Simulation;
use uasn_net::MetricsReport;
use uasn_sim::time::SimDuration;
use uasn_sim::trace::{TraceLevel, Tracer};

struct CountingAllocator;

thread_local! {
    // Per thread, so allocations made by sibling tests running on other
    // threads never count against the run under test. A `const`
    // initialiser with no destructor is safe to touch from the allocator.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// A small routed cell: a three-layer column of 20 sensors running
/// convergecast rounds over depth routing with the reliable transport, so
/// relays, retries and routed losses stream alongside the frame records.
/// The monitors' one-off allocations (per-node queues, table growth) come
/// to under a hundred; ten minutes of traffic (~20k records) keeps them
/// well under the per-record gate, while any allocation per record — or
/// per routed copy, about one record in twenty-five — would still break
/// it.
fn routed_cfg() -> SimConfig {
    let mut cfg = SimConfig::paper_default()
        .with_sensors(20)
        .with_offered_load_kbps(0.5)
        .with_convergecast(30.0, 10.0)
        .with_reliable_route()
        .with_sim_time(SimDuration::from_secs(600))
        .with_seed(0xA110C);
    cfg.deployment = Deployment::LayeredColumn {
        extent_m: 2_000.0,
        layers: 3,
        layer_spacing_m: 1_200.0,
    };
    cfg
}

fn run(tracer: Tracer) -> MetricsReport {
    Simulation::new(routed_cfg(), &|id| {
        Box::new(EwMac::new(id, EwMacConfig::default()))
    })
    .expect("valid routed config")
    .with_tracer(tracer)
    .run()
}

#[test]
fn monitoring_adds_under_one_allocation_per_hundred_records() {
    let (plain, plain_allocs) = allocations_during(|| run(Tracer::disabled()));
    let monitor = StreamingMonitor::new();
    let sink = monitor.sink();
    let (monitored, monitored_allocs) =
        allocations_during(|| run(Tracer::new(TraceLevel::Debug).with_sink(sink)));
    let report = monitor.report();

    assert_eq!(plain, monitored, "monitoring must not perturb the run");
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert!(
        report.records_seen > 5_000,
        "too few records to gate on: {}",
        report.records_seen
    );
    let extra = monitored_allocs.saturating_sub(plain_allocs);
    assert!(
        extra * 100 < report.records_seen,
        "monitoring added {extra} allocations over {} records \
         ({plain_allocs} unmonitored, {monitored_allocs} monitored)",
        report.records_seen
    );
}
