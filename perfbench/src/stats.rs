//! Order statistics with the benchmark's reporting rule.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples
//! lie strictly beyond its rank; otherwise the sample cannot tell that
//! percentile from the maximum. Ranks use the nearest-rank definition
//! (`⌈q·n⌉`-th smallest), so "p99 of 100 samples" is the 99th value with
//! one sample beyond it — not reportable — rather than a rounded index
//! that silently lands on the maximum.

/// Samples that must lie beyond a reported percentile's rank.
pub const MIN_BEYOND: usize = 10;

/// Zero-based nearest-rank index of quantile `q` in `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    debug_assert!(n > 0 && (0.0..=1.0).contains(&q));
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly beyond the rank of quantile `q` in `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, q)
    }
}

/// The `q`-quantile of `samples` when at least [`MIN_BEYOND`] samples
/// lie beyond it, else `None`.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if beyond(samples.len(), q) < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q)])
}

/// Median of `samples` (mean of the middle two for even counts); NaN
/// when empty. Medians are exempt from the percentile rule: the rule
/// exists to keep tails honest, and every run reports its median.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Largest sample; NaN when empty.
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NAN, f64::max)
}

/// Smallest sample; NaN when empty.
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NAN, f64::min)
}

/// Arithmetic mean; NaN when empty.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Coefficient of variation (population standard deviation over mean).
pub fn cv(samples: &[f64]) -> f64 {
    let m = mean(samples);
    let var = samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / samples.len() as f64;
    var.sqrt() / m
}

/// Operations per second over a loop of `loop_s` seconds whose
/// operations completed at `done_s` (seconds since the loop started):
/// the median rate over equal windows of the loop, as many (up to
/// [`MAX_WINDOWS`]) as keep [`OPS_PER_WINDOW`] operations in each on
/// average. The median discounts a stall of a few hundred milliseconds
/// that a plain count over the loop would spread over the whole run;
/// with fewer than `2 · OPS_PER_WINDOW` operations it is the plain
/// rate. Returns the rate and the number of windows.
pub fn throughput(done_s: &[f64], loop_s: f64) -> (f64, usize) {
    let windows = (done_s.len() / OPS_PER_WINDOW).clamp(1, MAX_WINDOWS);
    let width = loop_s / windows as f64;
    let mut counts = vec![0.0; windows];
    for &t in done_s {
        counts[((t / width) as usize).min(windows - 1)] += 1.0;
    }
    (median(&counts) / width, windows)
}

/// Limits of [`throughput`]'s windows.
pub const OPS_PER_WINDOW: usize = 100;
pub const MAX_WINDOWS: usize = 30;

/// The largest count of failures that `n` trials with failure rate `p`
/// exceed with probability below `alpha`: the smallest `k` with
/// P(X > k) < `alpha` for X ~ Binomial(`n`, `p`).
pub fn allowed_failures(n: usize, p: f64, alpha: f64) -> usize {
    if p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    let mut pmf = (1.0 - p).powi(n as i32);
    let mut cdf = pmf;
    let mut k = 0;
    while k < n && 1.0 - cdf >= alpha {
        pmf *= (n - k) as f64 / (k + 1) as f64 * p / (1.0 - p);
        cdf += pmf;
        k += 1;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(percentile(&ramp(999), 0.99), None);
    }

    #[test]
    fn p99_of_a_hundred_is_refused_not_the_max() {
        // A rounded index `((n−1)·0.99).round()` reads a value with at
        // most one sample beyond it at n = 100; the rule refuses it.
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(percentile(&ramp(100), 0.99), None);
        assert_eq!(percentile(&ramp(100), 0.90), Some(90.0));
    }

    #[test]
    fn median_rank_needs_twenty_samples() {
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(21), 0.5), Some(11.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v = ramp(1000);
        v.reverse();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
    }

    #[test]
    fn allowed_failures_follow_the_binomial_tail() {
        assert_eq!(allowed_failures(1000, 0.0, 1e-4), 0);
        assert_eq!(allowed_failures(10, 1.0, 1e-4), 10);
        // 22 trials at 3 %: P(X > 4) = 4.2e-4, P(X > 5) = 3.6e-5.
        assert_eq!(allowed_failures(22, 0.03, 1e-4), 5);
        // 25 000 trials at 3e-4 (mean 7.5) allow about 3.5 sigma more.
        let k = allowed_failures(25_000, 3e-4, 1e-4);
        assert!((16..=20).contains(&k), "{k}");
        // A fivefold defect rate is caught at that count.
        assert!(allowed_failures(25_000, 1.5e-3, 1e-4) > 2 * k);
    }

    #[test]
    fn throughput_is_the_median_window_rate() {
        // Few operations: one window, the plain rate.
        assert_eq!(throughput(&[0.5, 1.5, 2.5], 3.0), (1.0, 1));
        // 110 per second over 30 s with a 1-s stall: 30 windows, one of
        // them empty; the median ignores the stall, the plain rate not.
        let done: Vec<f64> = (0..3300)
            .map(|i| (i as f64 + 0.5) / 110.0)
            .filter(|t| !(10.0..11.0).contains(t))
            .collect();
        assert_eq!(throughput(&done, 30.0), (110.0, 30));
        assert!(done.len() as f64 / 30.0 < 107.0);
    }

    #[test]
    fn median_and_spread_helpers() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(max(&[1.0, 5.0, 2.0]), 5.0);
        assert!((cv(&[1.0, 1.0, 1.0])).abs() < 1e-15);
        assert!((cv(&[1.0, 3.0]) - 0.5).abs() < 1e-15);
    }
}
