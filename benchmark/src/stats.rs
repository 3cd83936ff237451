//! Order statistics over small sample sets: medians of window figures and
//! nearest-rank percentiles of latency samples.

/// Median of `values` (mean of the two middle values for an even count).
/// Sorts in place. Panics on an empty slice: every caller measures at
/// least one window.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. `q` is clamped to `0..=1`.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The value a tenth of the samples are better than: the 90th percentile
/// when higher is better, the 10th when lower is. Nearest rank.
///
/// The hosts this runs on slow a process down for seconds at a time and
/// never speed it up, so a run's median says how much of the run was
/// disturbed, while its best decile says how fast the code is. With a
/// hundred windows, ten lie beyond the decile, which keeps a single lucky
/// window out of the figure.
pub fn best_decile(values: &mut [f64], higher_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "decile of no samples");
    values.sort_by(f64::total_cmp);
    let q = if higher_is_better { 0.9 } else { 0.1 };
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Relative amount by which `new` is worse than `old` (positive = worse),
/// for a metric where `higher_is_better` or not.
pub fn worsening(old: f64, new: f64, higher_is_better: bool) -> f64 {
    if old == 0.0 {
        return if new == old { 0.0 } else { f64::INFINITY };
    }
    if higher_is_better {
        (old - new) / old
    } else {
        (new - old) / old
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&mut [3.0]), 3.0);
        assert_eq!(median(&mut [5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        // One wild window does not move the median.
        assert_eq!(median(&mut [10.0, 10.0, 10.0, 10.0, 1e9]), 10.0);
    }

    #[test]
    #[should_panic(expected = "median of no samples")]
    fn median_of_nothing_panics() {
        median(&mut []);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&s, 0.5), 50);
        assert_eq!(percentile_sorted(&s, 0.99), 99);
        assert_eq!(percentile_sorted(&s, 1.0), 100);
        assert_eq!(percentile_sorted(&s, 0.0), 1);
        assert_eq!(percentile_sorted(&[7], 0.99), 7);
        assert_eq!(percentile_sorted(&[1, 2, 3, 4], 0.5), 2);
        assert_eq!(percentile_sorted(&[1, 2, 3, 4], 0.51), 3);
    }

    #[test]
    fn best_decile_ignores_the_disturbed_majority_and_the_lucky_few() {
        // 100 windows: 60 disturbed, 35 clean, 5 flukes.
        let mut v: Vec<f64> = std::iter::repeat_n(80.0, 60)
            .chain(std::iter::repeat_n(100.0, 35))
            .chain(std::iter::repeat_n(130.0, 5))
            .collect();
        assert_eq!(best_decile(&mut v, true), 100.0);
        let mut lat: Vec<f64> = v.iter().map(|x| 1e4 / x).collect();
        assert_eq!(best_decile(&mut lat, false), 100.0);
        assert_eq!(best_decile(&mut [7.0], true), 7.0);
        assert_eq!(best_decile(&mut [1.0, 2.0], false), 1.0);
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(100.0, 90.0, true) - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, true) + 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, false) - 0.1).abs() < 1e-12);
        assert_eq!(worsening(0.0, 0.0, false), 0.0);
    }
}
