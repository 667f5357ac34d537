//! Verifies the drop-forensics layer's allocation promises: the verdict
//! histogram a monitored run updates on every attributed loss is a fixed
//! array, so recording, merging, and reading it must never touch the
//! allocator — and when monitoring is off the world holds no histogram at
//! all (covered by `world::tests::monitoring_does_not_perturb_the_run`),
//! so the off path is a single branch.
//!
//! Uses a counting global allocator wrapping the system one. This lives in
//! an integration test (its own crate) because the library forbids unsafe
//! code and `GlobalAlloc` is an unsafe trait.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use uasn_net::metrics::{DropVerdict, VerdictHistogram};

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

#[test]
fn verdict_recording_allocates_nothing() {
    let mut hist = VerdictHistogram::new();
    let count = allocations_during(|| {
        for i in 0..1_000u64 {
            let verdict = DropVerdict::ALL[(i % DropVerdict::ALL.len() as u64) as usize];
            hist.record(verdict);
        }
        assert_eq!(hist.total(), 1_000);
    });
    assert_eq!(count, 0, "per-loss verdict recording must not allocate");
}

#[test]
fn verdict_merge_and_reads_allocate_nothing() {
    let mut a = VerdictHistogram::new();
    let mut b = VerdictHistogram::new();
    a.record(DropVerdict::MacDrop);
    b.add(DropVerdict::PerLoss, 41);
    let count = allocations_during(|| {
        for _ in 0..1_000 {
            a.merge(&b);
        }
        let mut seen = 0u64;
        for verdict in DropVerdict::ALL {
            seen += a.count(verdict);
            let _ = verdict.as_str();
        }
        assert_eq!(seen, a.total());
        assert!(!a.is_empty());
    });
    assert_eq!(count, 0, "histogram merge/read must not allocate");
}

#[test]
fn the_counter_actually_counts() {
    // Sanity check on the harness itself: a heap allocation is observed.
    let count = allocations_during(|| {
        let v: Vec<u64> = (0..64).collect();
        assert_eq!(v.len(), 64);
    });
    assert!(count > 0, "collecting into a Vec allocates");
}
