//! The paper-sweep workload measures the product's sweep path: a round
//! shrunk to 2 loads × 2 replications at seed 0 folds to exactly the values
//! `uasn_bench::grid::run_sweep` produces for the same grid, and to the same
//! `Summary` as the sequential reference `run_replicated`.

use std::time::Duration;

use uasn_bench::figures::{by_id, FigureSpec};
use uasn_bench::grid::{run_sweep, SweepOptions};
use uasn_bench::runner::{run_replicated, Summary};
use uasn_benchmark::workload::{sweep_round, untraced_cell, SweepShape, SWEEP_WORKERS};

fn without_wall(mut s: Summary) -> Summary {
    s.stats.wall = Duration::ZERO;
    s
}

#[test]
fn shrunk_paper_sweep_folds_like_run_sweep() {
    let f6 = by_id("F6").expect("F6 is registered");
    let shape = SweepShape {
        figure: f6,
        points: 2,
        replications: 2,
    };
    let journal = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("shrunk-sweep-{}.jsonl", std::process::id()));
    let round = sweep_round(&shape, 0, 0, &journal, &untraced_cell).expect("journal writes");
    std::fs::remove_file(&journal).expect("journal was written");
    assert!(round.sims.iter().all(|s| s.problem.is_none()));
    assert_eq!(round.pool.workers, SWEEP_WORKERS);

    let small: &'static FigureSpec = Box::leak(Box::new(FigureSpec {
        xs: &f6.xs[..2],
        ..*f6
    }));
    let outcome = run_sweep(
        &[small],
        &SweepOptions {
            seeds: 2,
            workers: SWEEP_WORKERS,
            ..SweepOptions::default()
        },
    )
    .expect("in-memory sweep");
    assert!(outcome.complete);
    let figure = &outcome.runs[0].figure;

    let mut summaries = round.summaries.into_iter();
    for (point, &x) in small.xs.iter().enumerate() {
        for (series, &protocol) in figure.series.iter().zip(small.protocols) {
            let ours = summaries.next().expect("one summary per cell");
            assert_eq!(ours.protocol, protocol);
            let (mean, ci) = f6.metric.extract(&ours);
            let (px, pmean, pci) = series.points[point];
            assert_eq!(px.to_bits(), x.to_bits());
            assert_eq!(mean.to_bits(), pmean.to_bits(), "{protocol:?} @ {x}");
            assert_eq!(ci.to_bits(), pci.to_bits(), "{protocol:?} @ {x}");
            let reference = run_replicated(&(f6.configure)(x), protocol, 2);
            assert_eq!(without_wall(ours), without_wall(reference));
        }
    }
    assert!(summaries.next().is_none());
}
