//! Exact order statistics over raw samples.
//!
//! Every number the benchmark reports goes through this file: percentiles
//! are read off the sorted samples themselves (never a bucketed
//! histogram), a percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie beyond it, and a run's value is taken from
//! its quiet rounds with their spread beside it.

/// Samples that must lie strictly beyond a percentile before it is
/// reported: with fewer, the value is set by a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Percentiles tried, highest first, by [`highest_supported`].
const LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.90, 0.75, 0.50];

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// A percentile the sample is too small to support.
#[derive(Debug, Clone, PartialEq)]
pub struct Refused {
    pub percentile: f64,
    pub samples: usize,
    pub needed: usize,
}

impl std::fmt::Display for Refused {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p{} refused: {} samples, {} needed for {MIN_BEYOND} beyond it",
            self.percentile * 100.0,
            self.samples,
            self.needed
        )
    }
}

/// Smallest sample count that leaves [`MIN_BEYOND`] samples beyond `p`.
pub fn samples_needed(p: f64) -> usize {
    let mut n = (MIN_BEYOND as f64 / (1.0 - p)).floor() as usize;
    while n - rank(n, p) < MIN_BEYOND {
        n += 1;
    }
    n
}

/// Nearest-rank percentile of `samples` (sorted in place), refused when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &mut [f64], p: f64) -> Result<f64, Refused> {
    let n = samples.len();
    if n == 0 || n - rank(n, p) < MIN_BEYOND {
        return Err(Refused {
            percentile: p,
            samples: n,
            needed: samples_needed(p),
        });
    }
    Ok(nearest_rank(samples, p))
}

/// Nearest-rank percentile of a non-empty sample (sorted in place),
/// whatever its size.
pub fn nearest_rank(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[rank(samples.len(), p) - 1]
}

/// The highest percentile of the ladder that `n` samples support.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER
        .into_iter()
        .find(|&p| n > 0 && n - rank(n, p) >= MIN_BEYOND)
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(max − min) / median`: the spread printed beside every median.
pub fn rel_range(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(v, n=4)`
/// gives — the statistic the benchmark's bounds are judged by.
pub fn quartile_spread(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    let m = median(&v);
    if m == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)) / m
    }
}

/// The quiet rounds of a run, in the order they ran: the quarter of the
/// rounds whose median sample is lowest, and as many more of the next
/// lowest as it takes for them to hold `need` samples.
///
/// Load from outside the process only ever slows a round down, and on a
/// shared host it comes in stretches of seconds that can cover most of a
/// run; the median over all rounds then reports the host.  The rounds
/// with the lowest medians are the ones that measured the program.  They
/// are ranked by the median, which a round's tail does not move, so that
/// the tail percentile taken from them is not what chose them.
pub fn quiet_rounds(medians: &[f64], samples: &[usize], need: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..medians.len()).collect();
    order.sort_by(|&a, &b| medians[a].total_cmp(&medians[b]));
    let mut kept = medians.len().div_ceil(4);
    while kept < order.len() && order[..kept].iter().map(|&r| samples[r]).sum::<usize>() < need {
        kept += 1;
    }
    order.truncate(kept);
    order.sort_unstable();
    order
}

/// One reported number, how far the rounds it was taken from disagreed,
/// and how many samples it rests on.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub value: f64,
    pub spread: f64,
    pub samples: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed, so the functions must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn percentiles_are_exact_order_statistics() {
        let mut v = ramp(1000);
        assert_eq!(percentile(&mut v, 0.50), Ok(500.0));
        assert_eq!(percentile(&mut v, 0.95), Ok(950.0));
        assert_eq!(percentile(&mut v, 0.99), Ok(990.0));
        // 1000 samples leave one beyond p99.9.
        assert!(percentile(&mut v, 0.999).is_err());
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert_eq!(samples_needed(0.95), 200);
        assert_eq!(percentile(&mut ramp(200), 0.95), Ok(190.0));
        let refused = percentile(&mut ramp(199), 0.95).unwrap_err();
        assert_eq!((refused.samples, refused.needed), (199, 200));
        assert!(percentile(&mut [], 0.5).is_err());
    }

    #[test]
    fn highest_supported_walks_the_ladder() {
        assert_eq!(highest_supported(10), None);
        assert_eq!(highest_supported(20), Some(0.50));
        assert_eq!(highest_supported(199), Some(0.90));
        assert_eq!(highest_supported(200), Some(0.95));
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
    }

    #[test]
    fn the_quiet_rounds_are_the_lowest_medians_in_running_order() {
        // Eight rounds, two of them quiet: an outside load slowed the rest.
        let medians = [400.0, 390.0, 250.0, 410.0, 420.0, 248.0, 380.0, 430.0];
        assert_eq!(quiet_rounds(&medians, &[100; 8], 200), [2, 5]);
        // Too few samples in a quarter of the rounds: the next lowest join.
        assert_eq!(quiet_rounds(&medians, &[100; 8], 300), [2, 5, 6]);
        assert_eq!(quiet_rounds(&medians, &[10; 8], 200).len(), 8);
        // Never none: a run of fewer than four rounds keeps its best.
        assert_eq!(quiet_rounds(&[1.0, 3.0, 2.0], &[50; 3], 0), [0]);
        assert_eq!(quiet_rounds(&[5.0; 25], &[50; 25], 200).len(), 7);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert!((rel_range(&[248.0, 250.0]) - 2.0 / 249.0).abs() < 1e-12);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 11, 12, 14, 20], n=4) == [10.5, 12.0, 17.0]
        let v = [20.0, 10.0, 12.0, 11.0, 14.0];
        assert!((quartile_spread(&v) - 6.5 / 12.0).abs() < 1e-12);
    }
}
