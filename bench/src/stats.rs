//! Order statistics for the report: medians, tail percentiles that refuse
//! to be read off too few samples, per-window rates, and the quartiles the
//! repeat table uses.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; below that it is one scheduler hiccup, not a distribution.
pub const MIN_BEYOND: usize = 10;

/// Equal windows a timed phase is cut into for its throughput median.
pub const WINDOWS: usize = 10;

/// Median of `values` (mean of the middle pair for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Nearest-rank percentile `p` (0 < p < 1) of an ascending slice, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn tail_percentile(sorted: &[u64], p: f64) -> Option<u64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n < rank + MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of an ascending slice of integer samples.
pub fn median_sorted(sorted: &[u64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2] as f64),
        _ => Some((sorted[n / 2 - 1] as f64 + sorted[n / 2] as f64) / 2.0),
    }
}

/// Events per second in each of [`WINDOWS`] equal windows of a phase that
/// lasted `phase_ns`. `ends_ns` are completion offsets from the phase
/// start, each carrying `weight` events (a batch reply counts its
/// queries). Completions at or past the phase end fall in no window.
pub fn window_rates(ends_ns: impl Iterator<Item = (u64, u64)>, phase_ns: u64) -> Vec<f64> {
    let mut counts = [0u64; WINDOWS];
    let width = (phase_ns / WINDOWS as u64).max(1);
    for (end, weight) in ends_ns {
        let w = (end / width) as usize;
        if w < WINDOWS {
            counts[w] += weight;
        }
    }
    counts
        .iter()
        .map(|&c| c as f64 * 1e9 / width as f64)
        .collect()
}

/// The three cut points Python's `statistics.quantiles(values, n=4)`
/// returns (its default "exclusive" method), so the repeat table reads
/// the same as the check that accepts this benchmark. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        // rank 990, ten samples (991..=1000) beyond it.
        assert_eq!(tail_percentile(&v, 0.99), Some(990));
        // One sample fewer and p99 is no longer supported...
        assert_eq!(tail_percentile(&v[..999], 0.99), None);
        // ...though p90 of the same data still is.
        assert_eq!(tail_percentile(&v[..999], 0.90), Some(900));
        assert_eq!(tail_percentile(&[], 0.5), None);
        assert_eq!(tail_percentile(&v[..10], 0.5), None);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median_sorted(&[1, 2, 10]), Some(2.0));
        assert_eq!(median_sorted(&[1, 3]), Some(2.0));
    }

    #[test]
    fn window_median_ignores_one_stalled_window() {
        // 10 windows of 100 ns; 5 events in each but window 3, which
        // stalled and completed nothing.
        let ends = (0..10u64)
            .filter(|w| *w != 3)
            .flat_map(|w| (0..5).map(move |i| (w * 100 + i * 10, 1)));
        let rates = window_rates(ends, 1000);
        assert_eq!(rates.len(), WINDOWS);
        assert_eq!(rates[3], 0.0);
        assert_eq!(median(&rates), Some(5.0 * 1e9 / 100.0));
        // A batch reply counts every query it answered; late ones none.
        let rates = window_rates([(50, 32), (1000, 7)].into_iter(), 1000);
        assert_eq!(rates[0], 32.0 * 1e9 / 100.0);
        assert_eq!(rates.iter().sum::<f64>(), rates[0]);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
