//! Order statistics for run reports: medians and the tail-percentile rule.
//!
//! A tail percentile is only reported when at least [`MIN_BEYOND`]
//! samples lie beyond it, so a single slow job can never *be* the tail.
//! Each workload fixes its percentile (in per-mille) up front and keeps
//! its timed window open until enough jobs completed for the rule to hold.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank position (1-based) of the `permille`-th percentile among
/// `n` samples.
fn rank(permille: u32, n: usize) -> usize {
    let r = (permille as usize * n).div_ceil(1000);
    r.clamp(1, n.max(1))
}

/// Smallest sample count at which the `permille`-th percentile has at
/// least [`MIN_BEYOND`] samples beyond it.
pub fn min_samples_for(permille: u32) -> usize {
    assert!(
        permille < 1000,
        "a tail percentile must leave samples beyond it"
    );
    (MIN_BEYOND..)
        .find(|&n| n - rank(permille, n) >= MIN_BEYOND)
        .expect("a finite sample count always suffices below the 100th percentile")
}

/// A reported tail: the percentile, its value, and the counts behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in per-mille (900 = p90).
    pub permille: u32,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond it.
    pub beyond: usize,
}

/// The `permille`-th percentile of `xs`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(xs: &[f64], permille: u32) -> Option<Tail> {
    if xs.is_empty() || permille >= 1000 {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let r = rank(permille, s.len());
    let beyond = s.len() - r;
    (beyond >= MIN_BEYOND).then(|| Tail {
        permille,
        value: s[r - 1],
        samples: s.len(),
        beyond,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        for permille in [500, 600, 750, 800, 900, 950, 990] {
            let n = min_samples_for(permille);
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let t = tail(&xs, permille).expect("enough samples at the minimum");
            assert!(t.beyond >= MIN_BEYOND, "p{permille}: {t:?}");
            assert_eq!(t.samples, n);
            // One sample fewer breaks the rule.
            assert!(tail(&xs[..n - 1], permille).is_none(), "p{permille} at n-1");
            // The reported value has exactly `beyond` samples above it.
            assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), t.beyond);
        }
    }

    #[test]
    fn tail_counts_are_reported() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs, 900).expect("p90 of 100 has 10 beyond");
        assert_eq!(t.value, 90.0);
        assert_eq!((t.samples, t.beyond), (100, 10));
        assert!(tail(&xs, 950).is_none(), "p95 of 100 has only 5 beyond");
        assert_eq!(min_samples_for(900), 100);
        assert_eq!(min_samples_for(500), 20);
    }
}
