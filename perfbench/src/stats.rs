//! Order statistics for the benchmark's reported numbers.
//!
//! Percentiles are nearest-rank. A tail percentile is only reported when at
//! least [`MIN_BEYOND`] samples lie beyond it, so a p99.9 needs 10,000
//! samples; [`highest_percentile`] picks the highest percentile a sample set
//! supports.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the benchmark may report, in parts per 10,000 (p50 … p99.99).
pub const LADDER: [u32; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// The p90 entry of [`LADDER`].
pub const P90: u32 = 9_000;
/// The p99 entry of [`LADDER`].
pub const P99: u32 = 9_900;
/// The p99.9 entry of [`LADDER`].
pub const P999: u32 = 9_990;

/// 1-based nearest rank of the percentile `q` (parts per 10,000) among `n`
/// samples.
fn rank(n: usize, q: u32) -> usize {
    ((q as usize * n).div_ceil(10_000)).max(1)
}

/// Number of samples strictly beyond the `q` percentile of `n` samples.
pub fn samples_beyond(n: usize, q: u32) -> usize {
    n.saturating_sub(rank(n, q))
}

/// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the median has too few.
pub fn highest_percentile(n: usize) -> Option<u32> {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|&q| samples_beyond(n, q) >= MIN_BEYOND)
}

/// Nearest-rank percentile `q` (parts per 10,000) of ascending `sorted`.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile<T: Copy>(sorted: &[T], q: u32) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// Decisions per block of [`block_percentile`]: the fewest that leave
/// [`MIN_BEYOND`] samples beyond a p99.9.
pub const BLOCK: usize = 10_000;

/// Split `samples` (in the order they were taken) into consecutive blocks
/// of at least `block` samples (a short remainder joins the last block),
/// take the `q` percentile of each block, and return the median of those and
/// the block count. A tail percentile of one pooled set is dominated by
/// whichever stretch of the run the host was busiest in; the median over
/// blocks is not. `None` when there are fewer than `block` samples.
pub fn block_percentile(samples: &[u64], block: usize, q: u32) -> Option<(f64, usize)> {
    let blocks = samples.len() / block.max(1);
    if blocks == 0 {
        return None;
    }
    let per_block: Vec<f64> = (0..blocks)
        .map(|b| {
            let end = if b + 1 == blocks {
                samples.len()
            } else {
                (b + 1) * block
            };
            let mut v = samples[b * block..end].to_vec();
            v.sort_unstable();
            percentile(&v, q) as f64
        })
        .collect();
    Some((median(&per_block), blocks))
}

/// Median (mean of the two middle values for an even count); 0 for no
/// values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p999_needs_ten_thousand_samples() {
        assert_eq!(samples_beyond(10_000, P999), 10);
        assert_eq!(samples_beyond(9_999, P999), 9);
        assert_eq!(highest_percentile(10_000), Some(P999));
        assert_eq!(highest_percentile(9_999), Some(9_900));
        assert_eq!(highest_percentile(100_000), Some(9_999));
    }

    #[test]
    fn small_sets_report_only_what_they_support() {
        assert_eq!(highest_percentile(1_000), Some(9_900));
        assert_eq!(highest_percentile(100), Some(9_000));
        assert_eq!(highest_percentile(20), Some(5_000));
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(0), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 5_000), 500);
        assert_eq!(percentile(&v, 9_000), 900);
        assert_eq!(percentile(&v, 9_990), 999);
        assert_eq!(percentile(&v, 9_999), 1000);
        assert_eq!(percentile(&[7u64], 9_999), 7);
        assert_eq!(percentile(&[1u64, 2], 5_000), 1);
    }

    #[test]
    fn block_percentile_takes_the_median_over_blocks() {
        // Three blocks of 10; the middle one is uniformly slow.
        let mut v: Vec<u64> = (1..=10).collect();
        v.extend((1..=10).map(|x| x * 100));
        v.extend(1..=10);
        v.extend([7, 8]); // joins the last block
        assert_eq!(block_percentile(&v, 10, 9_000), Some((9.0, 3)));
        assert_eq!(block_percentile(&v[..9], 10, 9_000), None);
        assert_eq!(block_percentile(&v[..10], 10, 5_000), Some((5.0, 1)));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
