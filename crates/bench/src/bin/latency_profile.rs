//! Delivery-latency profile per protocol: mean and 95th percentile at one
//! operating point — the queueing cost behind the Figure-8 differences.
//!
//! Usage: `latency_profile [load_kbps] [seeds]`

use uasn_bench::runner::master_seed;
use uasn_bench::{run_once_full, Protocol, RunManifest, StatsAggregate};
use uasn_net::config::SimConfig;
use uasn_sim::hist::LogHistogram;
use uasn_sim::stats::Replications;

fn main() {
    let mut args = std::env::args().skip(1);
    let load: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.8);
    let seeds: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(6);

    println!("[LAT] MAC delivery latency at offered load {load} kbps\n");
    println!(
        "{:<10}{:>14}{:>14}{:>16}",
        "protocol", "mean (s)", "p95 (s)", "delivered SDUs"
    );
    let base_cfg = SimConfig::paper_default()
        .with_offered_load_kbps(load)
        .with_mobility(1.0);
    let mut stats = StatsAggregate::default();
    let mut delivery_hist = LogHistogram::new();
    let mut e2e_hist = LogHistogram::new();
    for p in Protocol::PAPER_SET {
        let mut mean = Replications::new();
        let mut p95 = Replications::new();
        let mut delivered = Replications::new();
        for seed in 0..seeds {
            let cfg = base_cfg.clone().with_seed(master_seed(seed));
            let out = run_once_full(&cfg, p);
            stats.absorb(&out.stats, &out.tracer.health(), out.profile.as_ref(), None);
            let report = out.report;
            delivery_hist.merge(&report.delivery_latency_us);
            e2e_hist.merge(&report.e2e_latency_us);
            mean.add(report.mean_latency_s);
            if let Some(q) = report.latency_p95_s {
                p95.add(q);
            }
            delivered.add(report.sdus_received as f64);
        }
        println!(
            "{:<10}{:>14.1}{:>14.1}{:>16.0}",
            p.name(),
            mean.mean(),
            p95.mean(),
            delivered.mean()
        );
    }
    let manifest = RunManifest::new(
        "LAT",
        format!("MAC delivery latency at offered load {load} kbps"),
        seeds,
        Protocol::PAPER_SET
            .iter()
            .map(|p| p.name().to_string())
            .collect(),
        &base_cfg,
        stats,
    )
    .with_latency(delivery_hist, e2e_hist);
    if let Err(e) = manifest.write(&uasn_bench::paths::results_dir()) {
        eprintln!("warning: could not write manifest: {e}");
    }
}
