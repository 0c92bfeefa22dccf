//! Log-bucketed latency histograms with exact counts.
//!
//! Observations are non-negative integers (the engine feeds microseconds)
//! bucketed by magnitude: bucket 0 holds the value 0, bucket *i* (for
//! `i ≥ 1`) holds values in `(2^(i-2), 2^(i-1)]` — i.e. each bucket's
//! inclusive upper bound is the next power of two.  Sixty-five buckets
//! cover the whole `u64` range, so **every observation lands in exactly
//! one bucket and the bucket counts always sum to the observation
//! count** — the invariant the report binary and the golden tests assert.
//!
//! Quantiles are answered from the bucket array: `quantile(q)` returns
//! the upper bound of the bucket containing the `⌈q·count⌉`-th smallest
//! observation.  Because ranks are monotone in `q` and bucket bounds are
//! monotone in the index, `p50 ≤ p95 ≤ p99` holds by construction; the
//! answer is exact to within one power-of-two bucket (and `min`/`max`/
//! `sum` are tracked exactly alongside).

/// Number of buckets: the zero bucket plus one per `u64` bit.
pub(crate) const BUCKETS: usize = 65;

/// A log-bucketed histogram of non-negative integer observations.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for one observation: 0 for 0, else `1 + ⌈log2(v)⌉`
/// adjusted so the bucket's upper bound is inclusive.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        // Smallest i with v <= 2^(i-1), i.e. position of the highest set
        // bit, +1 when v is not already a power of two.
        let bits = 64 - v.leading_zeros() as usize;
        if v.is_power_of_two() {
            bits
        } else {
            // The last bucket is open-ended: values above 2^63 that are
            // not a power of two would index 65, so they share bucket 64
            // (bound u64::MAX).
            (bits + 1).min(BUCKETS - 1)
        }
    }
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last bucket).
pub(crate) fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        1u64 << (i - 1)
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean observation (0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest observation (`None` when empty).
    pub(crate) fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of the bucket counts — always equal to [`Histogram::count`];
    /// exposed so tests and the report binary can assert the invariant
    /// from outside.
    pub fn bucket_sum(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The upper bound of the bucket holding the `⌈q·count⌉`-th smallest
    /// observation (clamped to the exact `max` so `quantile(1.0)` is
    /// exact).  Returns 0 for an empty histogram; `q` outside `[0, 1]` is
    /// clamped.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Fold another histogram into this one: bucket-wise count addition,
    /// exact sum/min/max combination.  Because both sides bucket by the
    /// same bounds, the merged quantiles are exactly what a single
    /// histogram fed both observation streams would answer — the property
    /// the per-session telemetry relies on when sessions merge into the
    /// server-wide registry on close.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// `{"count":…,"sum":…,"mean":…,"min":…,"max":…,"p50":…,"p95":…,
    /// "p99":…,"buckets":[{"le":…,"count":…},…]}` — non-empty buckets
    /// only, in bound order.
    pub fn to_json(&self) -> String {
        let buckets: Vec<String> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| format!("{{\"le\":{},\"count\":{c}}}", bucket_bound(i)))
            .collect();
        format!(
            "{{\"count\":{},\"sum\":{},\"mean\":{},\"min\":{},\"max\":{},\
             \"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[{}]}}",
            self.count,
            self.sum,
            excess_core::json::number(self.mean()),
            self.min().unwrap_or(0),
            self.max().unwrap_or(0),
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
            buckets.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_magnitude() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 3);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(5), 4);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn every_value_lands_in_its_bound() {
        for v in [0u64, 1, 2, 3, 7, 8, 9, 1023, 1024, 1025, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_bound(i), "{v} > bound of bucket {i}");
            if i > 0 {
                assert!(v > bucket_bound(i - 1), "{v} fits bucket {}", i - 1);
            }
        }
    }

    #[test]
    fn bucket_counts_sum_to_observation_count() {
        let mut h = Histogram::new();
        for v in 0..1000u64 {
            h.observe(v * 37 % 4096);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.bucket_sum(), 1000);
    }

    #[test]
    fn quantiles_are_monotone_and_bracket_the_data() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.observe(v);
        }
        let (p50, p95, p99) = (h.quantile(0.5), h.quantile(0.95), h.quantile(0.99));
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        // The 50th of 1..=100 is 50, inside (32, 64].
        assert_eq!(p50, 64);
        assert_eq!(h.quantile(1.0), 100);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
    }

    #[test]
    fn empty_histogram_answers_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn single_observation_is_every_quantile() {
        let mut h = Histogram::new();
        h.observe(42);
        assert_eq!(h.quantile(0.0), 42);
        assert_eq!(h.quantile(0.5), 42);
        assert_eq!(h.quantile(1.0), 42);
    }

    #[test]
    fn merge_is_equivalent_to_one_stream() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut one = Histogram::new();
        for v in [0u64, 1, 7, 8, 100, 5000] {
            a.observe(v);
            one.observe(v);
        }
        for v in [3u64, 900, 65_536] {
            b.observe(v);
            one.observe(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), one.count());
        assert_eq!(a.sum(), one.sum());
        assert_eq!(a.min(), one.min());
        assert_eq!(a.max(), one.max());
        assert_eq!(a.buckets, one.buckets);
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(a.quantile(q), one.quantile(q));
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Histogram::new();
        a.observe(42);
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.min(), before.min());
        let mut empty = Histogram::new();
        empty.merge(&before);
        assert_eq!(empty.count(), 1);
        assert_eq!(empty.min(), Some(42));
    }

    #[test]
    fn json_shape_has_required_keys() {
        let mut h = Histogram::new();
        h.observe(3);
        h.observe(900);
        let j = h.to_json();
        let v = excess_core::json::parse_json(&j).unwrap();
        assert_eq!(v.get("count").unwrap().as_f64(), Some(2.0));
        assert_eq!(v.get("buckets").unwrap().as_arr().unwrap().len(), 2);
        assert!(v.get("p50").is_some() && v.get("p99").is_some());
    }
}
