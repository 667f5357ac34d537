//! Order statistics for timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread computed here matches one
//! computed from the same numbers by a script.

/// Median of `values` (mean of the middle two for even counts); `None` when
/// empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartiles, by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`; `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    // Python's arithmetic verbatim: the index is clamped to 1..=n-1 before
    // the weight is taken, so tiny samples extrapolate just as it does.
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median: the run-to-run
/// spread the bounds are compared against. `None` when it cannot be formed.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// The highest reportable percentile of a sample of size `n`: the largest
/// whole percentile `p` (at most 99) that leaves at least ten samples
/// above it, or `None` when even the median would not.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99u32)
        .rev()
        .find(|&p| n as u64 * u64::from(100 - p) >= 1_000)
}

/// The `p`-th percentile (nearest rank) of `values`; `None` when empty.
pub fn percentile(values: &[f64], p: u32) -> Option<f64> {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p as f64 / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
