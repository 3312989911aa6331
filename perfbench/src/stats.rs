//! Order statistics for the benchmark's reports.
//!
//! Percentiles use the nearest-rank definition on the sorted sample: the
//! p-th percentile of n values is the value at rank ⌈p·n/100⌉ (1-based).
//! A tail percentile is only trustworthy when enough samples lie beyond
//! it, so every tail figure is reported together with the highest
//! percentile that has at least [`TAIL_BEYOND`] samples beyond it.

/// Samples that must lie beyond a tail percentile for it to count.
pub const TAIL_BEYOND: usize = 10;

/// Percentiles the tail rule may pick, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// 1-based nearest rank of percentile `p` in `n` samples. The epsilon
/// keeps binary rounding (99.9% of 10 000 is 9990.000000000002) from
/// moving an exact rank up by one.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of `values` (unsorted); 0 for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(p, sorted.len()) - 1]
}

/// Median (nearest-rank 50th percentile).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Largest value; 0 for no samples.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// The highest percentile of the ladder with at least [`TAIL_BEYOND`]
/// of `n` samples strictly beyond its rank, if any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n > 0 && n - rank(p, n) >= TAIL_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 95.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(max(&[1.0, 4.0, 2.0]), 4.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // Fewer than 11 samples: not even the median has ten beyond it.
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(10), None);
        // 20 samples: the median (rank 10) has exactly ten beyond.
        assert_eq!(tail_percentile(20), Some(50.0));
        // 40: p75 is rank 30, ten beyond; p90 (rank 36) has four.
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        // 199: p95 is rank 190 with nine beyond, so p90 it is.
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }
}
