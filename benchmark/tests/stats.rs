//! The statistics the benchmark reports and judges by, the host-speed
//! scale, and the metric list `BENCHMARK.json` declares.

use uasn_benchmark::spec::{BenchSpec, Better, MetricSpec};
use uasn_benchmark::speed::HostSpeed;
use uasn_benchmark::stats::{median, percentile, quartiles, relative_spread, tail_percentile};
use uasn_benchmark::suite::{judge, Verdict};
use uasn_benchmark::traced::Layers;
use uasn_benchmark::workload::Workload;

#[test]
fn median_of_odd_and_even_samples() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0]), Some(3.0));
    assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Expected values from `statistics.quantiles(values, n=4)`.
    let cases: [(&[f64], (f64, f64)); 4] = [
        (&[1.0, 2.0, 3.0, 4.0], (1.25, 3.75)),
        (
            &[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0],
            (1.75, 5.25),
        ),
        (&[1.0, 5.0], (0.0, 6.0)),
        (&[2.0, 4.0, 8.0], (2.0, 8.0)),
    ];
    for (values, expected) in cases {
        assert_eq!(quartiles(values), Some(expected), "{values:?}");
    }
    assert_eq!(quartiles(&[1.0]), None);
    let spread = relative_spread(&[1.0, 2.0, 3.0, 4.0]).expect("defined");
    assert!((spread - 1.0).abs() < 1e-12, "(3.75 - 1.25) / 2.5");
}

#[test]
fn tail_percentile_keeps_ten_samples_above_it() {
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(20), Some(50));
    assert_eq!(tail_percentile(100), Some(90));
    assert_eq!(tail_percentile(999), Some(98));
    assert_eq!(tail_percentile(1_000), Some(99));
    assert_eq!(tail_percentile(50_000), Some(99));
    for n in [20, 57, 100, 999, 1_000, 4_321] {
        let p = tail_percentile(n).expect("n >= 20");
        let above = n - (n * p as usize).div_ceil(100);
        assert!(above >= 10, "n={n} p={p} leaves {above} above");
    }
    let values: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&values, 90), Some(90.0));
    assert_eq!(percentile(&values, 99), Some(99.0));
    assert_eq!(percentile(&[], 50), None);
}

#[test]
fn host_speed_gives_a_finite_positive_scale() {
    for threads in [1, 2] {
        let mut speed = HostSpeed::start(threads);
        let factor = speed.scale();
        let kernel = speed.median_kernel_s();
        assert!(kernel.is_finite() && kernel > 0.0, "kernel {kernel}");
        assert!(factor.is_finite() && factor > 0.0, "factor {factor}");
    }
}

#[test]
fn judge_applies_the_bound_and_reports_unresolved() {
    let wall = MetricSpec {
        name: "wall_s".to_string(),
        unit: "s".to_string(),
        better: Better::Lower,
        bound: Some(0.10),
    };
    let base = [1.00, 1.01, 0.99, 1.00, 1.02];
    let same = [1.03, 1.02, 1.04, 1.01, 1.03];
    let slower = [1.20, 1.21, 1.19, 1.22, 1.20];
    let faster = [0.80, 0.81, 0.79, 0.80, 0.82];
    let noisy = [0.70, 1.40, 1.00, 0.90, 1.30];
    let verdict = |b: &[f64]| judge(&wall, &base, b).map(|(v, _)| v);
    assert_eq!(verdict(&same), Some(Verdict::Same));
    assert_eq!(verdict(&slower), Some(Verdict::Regressed));
    assert_eq!(verdict(&faster), Some(Verdict::Better));
    assert_eq!(verdict(&noisy), Some(Verdict::Unresolved));
    let unbounded = MetricSpec {
        bound: None,
        ..wall
    };
    assert_eq!(judge(&unbounded, &base, &same), None);
}

#[test]
fn benchmark_json_declares_what_the_benchmark_runs_and_measures() {
    let spec = BenchSpec::get();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(spec.workloads, names);
    let mut declared: Vec<&str> = spec.per_layer.iter().map(|m| m.name.as_str()).collect();
    declared.sort_unstable();
    let mut measured: Vec<String> = Layers::default()
        .metrics()
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    measured.sort();
    assert_eq!(measured, declared);
    assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
    assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    let setup = spec
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is declared");
    let largest = spec
        .end_to_end
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(largest));
}
