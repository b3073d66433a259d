//! Order statistics and the regression rule the benchmark reports with.

/// The median: the middle value, or the mean of the two middle values
/// for an even count. `None` for no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// The highest percentile that still has at least ten samples above it,
/// as `(percentile, value)`: with `n` samples that is the `(n − 10)`-th
/// smallest, the `100·(n − 10)/n`-th percentile. `None` below 11 samples,
/// where no such percentile exists.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    (n >= 11).then(|| (100.0 * (n - 10) as f64 / n as f64, v[n - 11]))
}

/// The three quartile cut points by the exclusive method, the default of
/// Python's `statistics.quantiles(values, n=4)`. `None` below 2 samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some([cut(1), cut(2), cut(3)])
}

/// Run-to-run spread: the interquartile distance as a share of the
/// median. `None` below 2 samples or for a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (latency, set-up time, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    /// Parses the `better` field of `BENCHMARK.json`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// Verdict of comparing a change's runs with a baseline's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change's median is within the bound of the baseline's.
    WithinBound,
    /// The change's median is worse than the bound allows.
    Regression,
    /// The baseline's own quartile spread exceeds the bound, so the
    /// comparison cannot resolve a regression of that size.
    Unresolved,
}

/// `true` when `new` is worse than `base` by more than `bound`, a
/// share of `base` (the `bound` field of `BENCHMARK.json`).
pub fn is_regression(base: f64, new: f64, better: Better, bound: f64) -> bool {
    let worse_by = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    worse_by > bound * base.abs()
}

/// Compares two sets of runs of one metric on one workload by their
/// medians. A comparison whose baseline spread is wider than the bound
/// is [`Verdict::Unresolved`] — unless every change run beats every
/// baseline run, which no spread can explain away.
pub fn compare(base: &[f64], change: &[f64], better: Better, bound: f64) -> Option<Verdict> {
    let (mb, mc) = (median(base)?, median(change)?);
    let beats = |c: f64, b: f64| match better {
        Better::Lower => c < b,
        Better::Higher => c > b,
    };
    if change.iter().all(|&c| base.iter().all(|&b| beats(c, b))) {
        return Some(Verdict::WithinBound);
    }
    if spread(base).is_some_and(|s| s > bound) {
        return Some(Verdict::Unresolved);
    }
    Some(if is_regression(mb, mc, better, bound) {
        Verdict::Regression
    } else {
        Verdict::WithinBound
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_averages_the_two_middle_values() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail(&[1.0; 10]), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (pct, value) = tail(&v).unwrap();
        assert_eq!(pct, 99.0);
        assert_eq!(value, 990.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        let (pct, value) = tail(&v[..11]).unwrap();
        assert!((pct - 100.0 / 11.0).abs() < 1e-12);
        assert_eq!(value, 1.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&v).unwrap();
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn regression_is_a_worsening_beyond_the_bound() {
        assert!(!is_regression(1.0, 1.09, Better::Lower, 0.1));
        assert!(is_regression(1.0, 1.2, Better::Lower, 0.1));
        assert!(!is_regression(1.0, 0.5, Better::Lower, 0.1));
        assert!(is_regression(100.0, 89.0, Better::Higher, 0.1));
        assert!(!is_regression(100.0, 91.0, Better::Higher, 0.1));
        assert!(!is_regression(100.0, 150.0, Better::Higher, 0.1));
        assert!(is_regression(0.0, 1e-9, Better::Lower, 0.0));
        assert!(!is_regression(0.0, 0.0, Better::Lower, 0.0));
    }

    #[test]
    fn compare_reports_noise_as_unresolved() {
        let b = 0.1;
        let steady = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98];
        assert_eq!(
            compare(&steady, &[1.3, 1.31, 1.29], Better::Lower, b),
            Some(Verdict::Regression)
        );
        assert_eq!(
            compare(&steady, &[1.02, 1.0, 1.01], Better::Lower, b),
            Some(Verdict::WithinBound)
        );
        let noisy = [1.0, 1.5, 0.7, 1.2, 0.8, 1.4];
        assert_eq!(
            compare(&noisy, &[1.3, 1.4, 1.2], Better::Lower, b),
            Some(Verdict::Unresolved)
        );
        assert_eq!(
            compare(&noisy, &[0.5, 0.6], Better::Lower, b),
            Some(Verdict::WithinBound)
        );
        assert_eq!(compare(&[], &[1.0], Better::Lower, b), None);
    }
}
