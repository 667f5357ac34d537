//! Allocation gate for the event loop: past construction, an unmonitored
//! Fig. 6 cell allocates at most [`PER_TX_BOUND`] times per transmission,
//! for every protocol the paper compares. The allocations a transmission
//! needs are its one shared `Rc<Frame>` and, for CS-MAC, the delay
//! snapshot its control frames announce; nothing on the per-event path
//! (event queue, reception bookkeeping, quiet windows, RTS answering, the
//! two-hop install) may add to them beyond amortized growth.
//!
//! The count is marginal: each cell runs at two horizons, and the extra
//! allocations of the longer run are divided by its extra transmissions
//! (`tx-start` events). Construction and the end-of-run report cost the
//! same at both horizons, so they cancel, and what remains is the event
//! loop's steady state.
//!
//! Uses a counting global allocator wrapping the system one, in a test
//! binary of its own because it replaces the allocator for the whole
//! binary and the libraries forbid unsafe code.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use uasn_bench::figures::by_id;
use uasn_bench::protocols::Protocol;
use uasn_bench::runner::run_once_full;
use uasn_sim::time::SimDuration;

/// Event-loop allocations allowed per transmission: the shared frame plus
/// CS-MAC's announcement. Measured on this gate's cells: S-FAMA and EW-MAC
/// 1.06, ROPA 1.16 and CS-MAC 1.79 allocations per transmission; the bound
/// is the highest reading plus a margin of 0.11. CS-MAC reuses its last
/// announcement while the announced delays stand, but these cells drift
/// (`paper_base` mobility), so most receptions re-measure a delay and the
/// next announcement is rebuilt.
const PER_TX_BOUND: f64 = 1.9;

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

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations and transmissions of one F6 cell run for `secs` simulated
/// seconds.
fn cell(protocol: Protocol, secs: u64) -> (u64, u64) {
    let figure = by_id("F6").expect("F6 is registered");
    // The 1.2 kbps point: loaded enough that every protocol negotiates,
    // overhears and collides.
    let cfg = (figure.configure)(1.2)
        .with_seed(11)
        .with_sim_time(SimDuration::from_secs(secs));
    let before = ALLOCATIONS.with(Cell::get);
    let out = run_once_full(&cfg, protocol);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let transmissions = out
        .stats
        .kind_counts
        .iter()
        .find(|&&(kind, _)| kind == "tx-start")
        .map_or(0, |&(_, n)| n);
    (allocations, transmissions)
}

#[test]
fn event_loop_allocates_at_most_two_per_transmission() {
    for protocol in Protocol::PAPER_SET {
        let (short_allocs, short_tx) = cell(protocol, 150);
        let (long_allocs, long_tx) = cell(protocol, 450);
        let transmissions = long_tx - short_tx;
        assert!(transmissions > 500, "{}: {transmissions}", protocol.name());
        let per_tx = (long_allocs - short_allocs) as f64 / transmissions as f64;
        eprintln!(
            "{}: {per_tx:.2} allocations per transmission over {transmissions}",
            protocol.name()
        );
        assert!(
            per_tx <= PER_TX_BOUND,
            "{}: {per_tx:.2} event-loop allocations per transmission (bound {PER_TX_BOUND})",
            protocol.name()
        );
    }
}
