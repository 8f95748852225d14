//! Tail percentiles. Every quantile in the benchmark is
//! `lifeguard_metrics::percentile` (linear interpolation between closest
//! ranks, the repository's one quantile rule). A tail percentile is
//! reported only when at least ten samples lie beyond it;
//! [`tail_percentile`] picks the highest one that does.

use lifeguard_metrics::percentile;

/// Number of samples strictly beyond the `per_mille / 1000` quantile of
/// `n` samples, counting by nearest rank (`ceil(p n)` samples at or
/// below it).
fn samples_beyond(n: usize, per_mille: u32) -> usize {
    let at_or_below = (per_mille as usize * n).div_ceil(1000);
    n - at_or_below.min(n)
}

/// The candidate tail percentiles, highest first, in per mille.
const TAILS: [u32; 3] = [999, 990, 900];

/// The highest of p99.9, p99 and p90 that has at least ten of `n`
/// samples beyond it, in per mille; `None` when even p90 has fewer.
fn tail_percentile(n: usize) -> Option<u32> {
    TAILS.into_iter().find(|&pm| samples_beyond(n, pm) >= 10)
}

/// The highest tail percentile `samples` supports, as
/// `(percentile, value)`.
pub fn tail_of(samples: &[f64]) -> Option<(f64, f64)> {
    let pct = f64::from(tail_percentile(samples.len())?) / 10.0;
    percentile(samples, pct).map(|v| (pct, v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(100, 900), 10);
        assert_eq!(samples_beyond(99, 900), 9);
        assert_eq!(samples_beyond(1000, 990), 10);
        assert_eq!(samples_beyond(10_000, 999), 10);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(900));
        assert_eq!(tail_percentile(999), Some(900));
        assert_eq!(tail_percentile(1000), Some(990));
        assert_eq!(tail_percentile(10_000), Some(999));
    }

    #[test]
    fn tail_of_reports_the_supported_percentile() {
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let (pct, value) = tail_of(&v).unwrap();
        assert_eq!(pct, 90.0);
        assert!((value - 180.1).abs() < 1e-9);
        assert_eq!(tail_of(&[1.0; 50]), None);
    }
}
