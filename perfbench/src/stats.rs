//! Percentiles over latency samples.

/// Percentiles tried for a tail figure, highest first.
const TAIL_LADDER: [u32; 5] = [99, 95, 90, 75, 50];

/// Samples a tail percentile needs beyond it to be reported.
const TAIL_MIN_BEYOND: usize = 10;

/// The `p`-th percentile of ascending `sorted` samples, interpolating
/// linearly between the two nearest ranks (0 samples give `None`).
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let rank = p.clamp(0.0, 100.0) / 100.0 * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// A latency distribution: its median and its highest trustworthy tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The highest percentile with at least ten samples beyond it, and
    /// its value (`None` under 20 samples).
    pub tail: Option<(u32, f64)>,
}

/// Summarizes unsorted samples (`None` when there are none).
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let p50 = percentile(&sorted, 50.0)?;
    let tail = TAIL_LADDER
        .into_iter()
        .find(|&p| n * (100 - p as usize) >= TAIL_MIN_BEYOND * 100)
        .and_then(|p| Some((p, percentile(&sorted, f64::from(p))?)));
    Some(Summary { n, p50, tail })
}

/// The median of unsorted samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    summarize(samples).map(|s| s.p50)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(summarize(&ramp(19)).unwrap().tail, None);
        assert_eq!(summarize(&ramp(20)).unwrap().tail.unwrap().0, 50);
        assert_eq!(summarize(&ramp(39)).unwrap().tail.unwrap().0, 50);
        assert_eq!(summarize(&ramp(40)).unwrap().tail.unwrap().0, 75);
        assert_eq!(summarize(&ramp(100)).unwrap().tail.unwrap().0, 90);
        assert_eq!(summarize(&ramp(199)).unwrap().tail.unwrap().0, 90);
        assert_eq!(summarize(&ramp(200)).unwrap().tail.unwrap().0, 95);
        assert_eq!(summarize(&ramp(1000)).unwrap().tail.unwrap().0, 99);
        let s = summarize(&ramp(200)).unwrap();
        assert_eq!(s.n, 200, "the sample count is reported");
        // Ten samples (191..=200) lie beyond p95 of 1..=200.
        let (_, p95) = s.tail.unwrap();
        assert_eq!(ramp(200).iter().filter(|&&v| v > p95).count(), 10);
    }

    #[test]
    fn percentiles_interpolate_and_ignore_input_order() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[4.0], 95.0), Some(4.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), Some(2.5));
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
    }
}
