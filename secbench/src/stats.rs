//! Percentiles and medians.

/// Latency recorded for a failed op: it misses every limit.
pub const FAILED_NS: u32 = u32::MAX;

/// Median and tail of one latency class.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Latency {
    /// Samples, failed ops included.
    pub samples: usize,
    /// Median, microseconds.
    pub p50_us: f64,
    /// 90th percentile, microseconds.
    pub p90_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
}

/// Nearest-rank percentile `q ∈ (0, 1]` of sorted samples.
fn nearest_rank(sorted: &[u32], q: f64) -> u32 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Summarizes nanosecond samples (sorting them in place); all-zero when
/// there are none.
pub fn latency(samples: &mut [u32]) -> Latency {
    if samples.is_empty() {
        return Latency::default();
    }
    samples.sort_unstable();
    Latency {
        samples: samples.len(),
        p50_us: f64::from(nearest_rank(samples, 0.50)) / 1e3,
        p90_us: f64::from(nearest_rank(samples, 0.90)) / 1e3,
        p99_us: f64::from(nearest_rank(samples, 0.99)) / 1e3,
    }
}

/// Median of a non-empty list (mean of the middle pair for even lengths).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 0 {
        (values[mid - 1] + values[mid]) / 2.0
    } else {
        values[mid]
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut samples: Vec<u32> = (1..=100).rev().map(|x| x * 1000).collect();
        let l = latency(&mut samples);
        assert_eq!(l.samples, 100);
        assert_eq!(l.p50_us, 50.0);
        assert_eq!(l.p99_us, 99.0);
        let mut failed = vec![1000, FAILED_NS];
        assert_eq!(latency(&mut failed).p99_us, f64::from(FAILED_NS) / 1e3);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
