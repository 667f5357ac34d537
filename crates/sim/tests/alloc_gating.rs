//! Verifies the observability layers' zero-allocation promises: when a
//! typed trace record's level is gated off, `record_event` must not render
//! it **and** the call itself must not allocate — hot simulation loops
//! trace at Debug density, so a disabled tracer has to be free. The profiling registry makes the same promise: a disabled
//! [`MetricsRegistry`] must not allocate on construction or on any
//! recording call.
//!
//! Uses a counting global allocator wrapping the system one. This lives in
//! an integration test (its own crate) because the library forbids unsafe
//! code and `GlobalAlloc` is an unsafe trait.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use uasn_sim::profile::{MetricsRegistry, Stopwatch};
use uasn_sim::time::SimTime;
use uasn_sim::trace::{field, Field, TraceEvent, TraceLevel, Tracer};

struct CountingAllocator;

thread_local! {
    // Per thread, so allocations made by sibling tests running on other
    // threads never count against the closure under test. A `const`
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

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

thread_local! {
    static RENDERS: Cell<u64> = const { Cell::new(0) };
}

/// A typed record whose text costs a `format!` and a field vector, like
/// the world's frame records; it counts its renders.
struct FrameEvent(u64);

impl TraceEvent for FrameEvent {
    fn render(&self) -> (String, Vec<Field>) {
        RENDERS.with(|n| n.set(n.get() + 1));
        (format!("frame {}", self.0), vec![field("bits", 2_048u64)])
    }
}

fn renders() -> u64 {
    RENDERS.with(Cell::get)
}

#[test]
fn disabled_tracer_allocates_nothing() {
    let mut tracer = Tracer::disabled();
    let before = renders();
    let count = allocations_during(|| {
        for i in 0..1_000u64 {
            let event = FrameEvent(i);
            tracer.record_event(
                SimTime::from_secs(i),
                TraceLevel::Debug,
                Some(3),
                "tx",
                &event,
            );
        }
    });
    assert_eq!(count, 0, "a gated-off record_event must not allocate");
    assert_eq!(
        renders(),
        before,
        "a gated-off record_event must not render"
    );
}

#[test]
fn level_gated_records_allocate_nothing() {
    // Error-only tracer: Debug traffic is gated off before any rendering.
    let mut tracer = Tracer::capturing(TraceLevel::Error);
    let before = renders();
    let count = allocations_during(|| {
        for i in 0..1_000u64 {
            let event = FrameEvent(i);
            tracer.record_event(SimTime::from_secs(i), TraceLevel::Debug, None, "rx", &event);
        }
    });
    assert_eq!(count, 0, "a below-threshold record_event must not allocate");
    assert_eq!(
        renders(),
        before,
        "a below-threshold record_event must not render"
    );
    assert_eq!(tracer.records().len(), 0);
}

#[test]
fn disabled_registry_allocates_nothing() {
    let count = allocations_during(|| {
        let mut reg = MetricsRegistry::disabled();
        for i in 0..1_000u64 {
            let clock = Stopwatch::start_if(reg.is_enabled());
            reg.incr("engine.pop");
            reg.add("phy.cache.hit", i);
            reg.gauge_max("net.queue_peak", i as f64);
            reg.observe("net.fanout", i % 17);
            if let Some(ns) = clock.elapsed_ns() {
                reg.observe("loop_ns", ns);
            }
        }
        assert!(reg.snapshot().is_empty());
    });
    assert_eq!(count, 0, "disabled registry must not allocate");
}

#[test]
fn enabled_records_do_allocate_and_are_captured() {
    // Sanity check that the counter actually counts: the same loop with the
    // level enabled must render, allocate and capture.
    let mut tracer = Tracer::capturing(TraceLevel::Debug);
    let before = renders();
    let count = allocations_during(|| {
        for i in 0..100u64 {
            let event = FrameEvent(i);
            tracer.record_event(
                SimTime::from_secs(i),
                TraceLevel::Debug,
                Some(1),
                "tx",
                &event,
            );
        }
    });
    assert!(count > 0, "enabled records allocate their strings");
    assert_eq!(renders() - before, 100, "one rendering per captured record");
    assert_eq!(tracer.records().len(), 100);
    assert_eq!(tracer.records()[7].message, "frame 7");
}
