//! Order statistics used by every workload.

/// Percentiles tried for a tail figure, highest first.
const TAIL_PERCENTILES: [f64; 8] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// A percentile read off a sample, with what it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported.
    pub percentile: f64,
    pub value: f64,
    /// Samples the figure was taken from.
    pub samples: usize,
    /// Samples strictly beyond the reported one.
    pub beyond: usize,
}

/// Nearest-rank index of percentile `p` in a sorted sample of `n`.
fn rank(p: f64, n: usize) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Percentile `p` (nearest rank) of `values`; 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(p, sorted.len())]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The highest percentile, at most `cap`, that has at least ten samples
/// beyond it. With fewer than eleven samples no percentile qualifies and
/// the maximum is reported (`beyond` then says how thin it is).
pub fn tail(values: &[f64], cap: f64) -> Tail {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return Tail {
            percentile: cap,
            value: 0.0,
            samples: 0,
            beyond: 0,
        };
    }
    for &p in TAIL_PERCENTILES.iter().filter(|&&p| p <= cap) {
        let i = rank(p, n);
        if n - 1 - i >= 10 {
            return Tail {
                percentile: p,
                value: sorted[i],
                samples: n,
                beyond: n - 1 - i,
            };
        }
    }
    Tail {
        percentile: 100.0,
        value: sorted[n - 1],
        samples: n,
        beyond: 0,
    }
}

/// Samples per window for the windowed figures.
pub const WINDOW: usize = 1000;

/// `values`, in arrival order, cut into `max(1, n / WINDOW)` consecutive
/// windows of (nearly) equal size.
pub fn windows(values: &[f64]) -> std::slice::Chunks<'_, f64> {
    let k = (values.len() / WINDOW).max(1);
    values.chunks(values.len().div_ceil(k).max(1))
}

/// The least of the windows' medians: host interference only adds time,
/// so the run's quietest stretch is the figure that repeats across runs.
pub fn fastest_window_median(values: &[f64]) -> f64 {
    windows(values).map(median).fold(f64::INFINITY, f64::min)
}

/// The median over windows of each window's tail: a stall or a burst of
/// costly requests moves one window's tail, not the figure.
pub fn windowed_tail(values: &[f64]) -> f64 {
    let tails: Vec<f64> = windows(values).map(|w| tail(w, 99.0).value).collect();
    median(&tails)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1100 samples: rank of p99 is 1089 (value 1089), 11 beyond.
        let t = tail(&ramp(1100), 99.0);
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 1089.0, 11));
        // 1000 samples: p99 has exactly 10 beyond, still allowed.
        let t = tail(&ramp(1000), 99.0);
        assert_eq!((t.percentile, t.beyond), (99.0, 10));
        // 999 samples: p99 would have 9 beyond, so fall back to p98.
        let t = tail(&ramp(999), 99.0);
        assert_eq!(t.percentile, 98.0);
        assert!(t.beyond >= 10);
    }

    #[test]
    fn tail_falls_back_to_lower_percentiles_then_max() {
        assert_eq!(tail(&ramp(100), 99.0).percentile, 90.0);
        assert_eq!(tail(&ramp(21), 99.0).percentile, 50.0);
        let t = tail(&ramp(5), 99.0);
        assert_eq!((t.percentile, t.value, t.beyond), (100.0, 5.0, 0));
        assert_eq!(tail(&[], 99.0).samples, 0);
    }

    #[test]
    fn tail_never_exceeds_its_cap() {
        assert_eq!(tail(&ramp(100_000), 99.0).percentile, 99.0);
        assert_eq!(tail(&ramp(100_000), 99.9).percentile, 99.9);
    }

    #[test]
    fn windowed_tail_ignores_one_bad_window() {
        let mut values = vec![1.0; 3000];
        values[..30].iter_mut().for_each(|v| *v = 100.0);
        assert_eq!(windows(&values).count(), 3);
        assert_eq!(windowed_tail(&values), 1.0);
        assert_eq!(windows(&values[..999]).count(), 1);
    }

    #[test]
    fn fastest_window_median_takes_the_quietest_window() {
        let mut values = vec![2.0; 3000];
        values[1000..2000].iter_mut().for_each(|v| *v = 1.0);
        assert_eq!(fastest_window_median(&values), 1.0);
        assert_eq!(fastest_window_median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
