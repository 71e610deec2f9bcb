//! Order statistics used by the report.

/// Number of samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// The tail percentile the report aims for.
pub const TAIL_TARGET: f64 = 0.95;

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// A tail percentile and the sample it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported, in percent.
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

/// The highest percentile, up to [`TAIL_TARGET`], that leaves at least
/// [`TAIL_SAMPLES_BEYOND`] samples beyond it (nearest-rank).
///
/// With 200 or more samples this is the plain p95; with fewer it is the
/// sample of rank `n - 10`.  `None` when there are not enough samples to
/// leave ten beyond any of them.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    let target_rank = (TAIL_TARGET * n as f64).ceil() as usize;
    let rank = target_rank.min(n.checked_sub(TAIL_SAMPLES_BEYOND)?);
    if rank == 0 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Tail { percentile: 100.0 * rank as f64 / n as f64, value: sorted[rank - 1], samples: n })
}

/// Nearest-rank percentile `p` in `[0, 1]`; `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1));
    sorted.get(rank - 1).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the functions must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&ramp(5)), Some(3.0));
        assert_eq!(median(&ramp(4)), Some(2.5));
    }

    #[test]
    fn tail_is_p95_once_ten_samples_lie_beyond_it() {
        let t = tail(&ramp(200)).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (95.0, 190.0, 200));
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.percentile, t.value), (95.0, 950.0));
    }

    #[test]
    fn tail_falls_back_to_rank_n_minus_ten_on_small_samples() {
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.percentile, t.value), (90.0, 90.0));
        let t = tail(&ramp(11)).unwrap();
        assert_eq!(t.value, 1.0);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-9);
        // At every size, exactly ten samples (or more) lie beyond.
        for n in 11..400 {
            let t = tail(&ramp(n)).unwrap();
            assert!(n - t.value as usize >= TAIL_SAMPLES_BEYOND, "n={n}");
        }
    }

    #[test]
    fn tail_needs_eleven_samples() {
        assert_eq!(tail(&ramp(10)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        assert_eq!(percentile(&ramp(10), 0.5), Some(5.0));
        assert_eq!(percentile(&ramp(10), 0.95), Some(10.0));
        assert_eq!(percentile(&ramp(10), 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
    }
}
