//! Host-speed normalisation of the end-to-end timings.
//!
//! The reference host is a VM on a shared machine. Its speed moves by up to
//! 2× for minutes at a time as other tenants load the physical cores, with
//! no CPU steal to show for it, so raw seconds measured minutes apart do not
//! compare. Each round is therefore bracketed by a fixed reference kernel
//! that calls no simulator code, and the round's host times are
//! scaled by [`REFERENCE_KERNEL_S`] over the kernel's time around that
//! round: they read as seconds on the reference host at its usual speed. A
//! change to the program moves the round and leaves the kernel alone.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::median;

/// The kernel's host time on the reference host at its usual speed.
pub const REFERENCE_KERNEL_S: f64 = 0.025;

/// A xorshift64 stream: the kernel's inputs, the same on every call.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Times one pass of the reference kernel: the operations the simulator's
/// event loop is made of — pop and push on a binary-heap event queue,
/// insert and remove in a hash map — plus random reads from, and periodic
/// full scans of, a table larger than a core's L2 cache, as the monitors'
/// scans of their tracked state are. Fixed inputs; it allocates only up
/// front. Without the scans the kernel tracks the host's speed for
/// compute-bound rounds but overcorrects memory-bound ones.
fn kernel() -> Duration {
    const EVENTS: usize = 8_192;
    const KEYS: u64 = 16_384;
    const TABLE: usize = 262_144;
    const SCAN_EVERY: u32 = 2_048;
    const STEPS: u32 = 100_000;
    let started = Instant::now();
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    let mut queue = BinaryHeap::with_capacity(EVENTS);
    for id in 0..EVENTS {
        queue.push(Reverse((rng.next() % 1_000_000, id)));
    }
    let mut live: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(KEYS as usize, BuildHasherDefault::default());
    let table: Vec<u64> = (0..TABLE).map(|_| rng.next()).collect();
    let mut acc = 0u64;
    for step in 0..STEPS {
        let Reverse((time, id)) = queue.pop().expect("the queue never empties");
        queue.push(Reverse((time + rng.next() % 10_000, id)));
        let key = rng.next() % KEYS;
        if live.remove(&key).is_none() {
            live.insert(key, time);
        }
        acc = acc.wrapping_add(table[rng.next() as usize % TABLE]);
        if step % SCAN_EVERY == 0 {
            acc ^= table.iter().fold(key, |a, v| a.wrapping_add(v ^ key));
        }
    }
    black_box((acc, live.len()));
    started.elapsed()
}

/// Times the kernel on `threads` threads at once, seconds. With several
/// threads it returns the harmonic mean of their times: a pool that hands
/// out work from a shared queue, as the sweep's does, finishes when the
/// threads' summed speed has done the work, and each vCPU's speed moves on
/// its own.
fn sample(threads: usize) -> f64 {
    if threads <= 1 {
        return kernel().as_secs_f64();
    }
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(kernel)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("the kernel does not panic").as_secs_f64())
            .collect()
    });
    threads as f64 / times.iter().map(|t| 1.0 / t).sum::<f64>()
}

/// Kernel timings taken between consecutive rounds.
#[derive(Debug, Clone)]
pub struct HostSpeed {
    threads: usize,
    last: f64,
    samples: Vec<f64>,
}

impl HostSpeed {
    /// Warms the kernel up, then takes the timing before the first round.
    /// Every timing runs the kernel on `threads` threads.
    pub fn start(threads: usize) -> HostSpeed {
        sample(threads);
        let last = sample(threads);
        HostSpeed {
            threads,
            last,
            samples: vec![last],
        }
    }

    /// Times the kernel after a round and returns the factor that brings
    /// that round's host times to reference speed: [`REFERENCE_KERNEL_S`]
    /// over the mean of the kernel times before and after it.
    pub fn scale(&mut self) -> f64 {
        let now = sample(self.threads);
        let factor = REFERENCE_KERNEL_S / ((self.last + now) / 2.0);
        self.last = now;
        self.samples.push(now);
        factor
    }

    /// Median kernel time over the run, seconds.
    pub fn median_kernel_s(&self) -> f64 {
        median(&self.samples).unwrap_or(f64::NAN)
    }
}
