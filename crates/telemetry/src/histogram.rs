//! Fixed-bucket log2 histograms.
//!
//! Values are `u64` (for durations: nanoseconds). Bucket `b` covers the
//! half-open value range `(2^(b-1), 2^b]`, bucket 0 covers `[0, 1]`, and
//! the last bucket absorbs everything above `2^(NUM_BUCKETS-2)`. Bucket
//! selection is a `leading_zeros` instruction — no allocation, no
//! branching on data — so recording on the forwarding hot path costs two
//! relaxed atomic adds and one atomic increment.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log2 buckets. 64 covers the full `u64` range: nanosecond
/// recordings up to ~584 years land in a real bucket before overflow.
pub const NUM_BUCKETS: usize = 64;

/// A lock-free histogram with log2 bucket boundaries.
///
/// `scale` converts recorded integer values to exposition units (e.g.
/// `1e-9` when recording nanoseconds but exposing seconds, the
/// Prometheus convention for `_seconds` histograms).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    /// Largest recorded value. Quantile interpolation aims at bucket
    /// upper bounds, which can overshoot the data by up to a factor of
    /// two; clamping to the running max keeps every reported quantile
    /// inside the observed range (`p99 <= max`, always).
    max: AtomicU64,
    scale: f64,
}

/// Index of the bucket a value lands in: `0` for `v <= 1`, otherwise
/// `ceil(log2(v))`, clamped into the last bucket.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        ((64 - (v - 1).leading_zeros()) as usize).min(NUM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `b` in recorded (unscaled) units.
#[inline]
pub fn bucket_bound(b: usize) -> u64 {
    if b >= 63 {
        u64::MAX
    } else {
        1u64 << b
    }
}

impl Histogram {
    /// A histogram exposing raw recorded values (`scale = 1`).
    pub fn new() -> Histogram {
        Histogram::with_scale(1.0)
    }

    /// A histogram whose exposition multiplies bounds and sum by `scale`.
    pub fn with_scale(scale: f64) -> Histogram {
        Histogram {
            buckets: [(); NUM_BUCKETS].map(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            scale,
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record every value of `values`, ending in exactly the state one
    /// [`Histogram::record`] per value would (the sum wraps the same
    /// way). The values are folded on the stack first and flushed with
    /// one atomic add per bucket they touched plus three for count, sum
    /// and max — a burst of packets costs a handful of atomics, not four
    /// per packet.
    pub fn record_all(&self, values: impl IntoIterator<Item = u64>) {
        let mut buckets = [0u64; NUM_BUCKETS];
        let (mut count, mut sum, mut max) = (0u64, 0u64, 0u64);
        for v in values {
            buckets[bucket_index(v)] += 1;
            count += 1;
            sum = sum.wrapping_add(v);
            max = max.max(v);
        }
        if count == 0 {
            return;
        }
        for (bucket, &add) in self.buckets.iter().zip(&buckets) {
            if add != 0 {
                bucket.fetch_add(add, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(count, Ordering::Relaxed);
        self.sum.fetch_add(sum, Ordering::Relaxed);
        self.max.fetch_max(max, Ordering::Relaxed);
    }

    /// Record a duration in nanoseconds (pair with `scale = 1e-9` to
    /// expose seconds).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values in exposition units (scaled).
    pub fn sum_scaled(&self) -> f64 {
        self.sum.load(Ordering::Relaxed) as f64 * self.scale
    }

    /// The exposition scale factor.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Largest recorded value in exposition units, 0 when empty.
    pub fn max_scaled(&self) -> f64 {
        self.max.load(Ordering::Relaxed) as f64 * self.scale
    }

    /// Per-bucket counts (not cumulative).
    pub fn bucket_counts(&self) -> [u64; NUM_BUCKETS] {
        let mut out = [0u64; NUM_BUCKETS];
        for (o, b) in out.iter_mut().zip(&self.buckets) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// Cumulative `(upper_bound_scaled, count_le)` pairs up to and
    /// including the highest non-empty bucket — the shape Prometheus
    /// `_bucket{le=...}` lines and the JSON snapshot both want.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let counts = self.bucket_counts();
        let last = match counts.iter().rposition(|&c| c > 0) {
            Some(i) => i,
            None => return Vec::new(),
        };
        let mut cum = 0u64;
        (0..=last)
            .map(|b| {
                cum += counts[b];
                (bucket_bound(b) as f64 * self.scale, cum)
            })
            .collect()
    }

    /// Mean of recorded values in exposition units, 0 when empty.
    pub fn mean_scaled(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_scaled() / n as f64
        }
    }

    /// Estimate the `q`-quantile (`0 < q <= 1`) of recorded values in
    /// exposition units; 0 when empty.
    ///
    /// The rank is located in the log2 buckets and linearly interpolated
    /// between the bucket's bounds, so the estimate is exact to within
    /// the bucket's factor-of-two width — plenty for latency tails,
    /// where the decade matters more than the digit. The open-ended last
    /// bucket interpolates toward twice its lower bound. Interpolation
    /// aims at bucket upper bounds, so the raw estimate can exceed every
    /// recorded value; the result is clamped to the running maximum,
    /// guaranteeing `quantile(q) <= max_scaled()` for any `q`.
    pub fn quantile(&self, q: f64) -> f64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        // 1-based rank of the target observation.
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut below = 0u64;
        for (b, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if below + c >= rank {
                let lower = if b == 0 {
                    0.0
                } else {
                    bucket_bound(b - 1) as f64
                };
                let upper = if b >= NUM_BUCKETS - 1 {
                    lower * 2.0
                } else {
                    bucket_bound(b) as f64
                };
                let frac = (rank - below) as f64 / c as f64;
                let estimate = (lower + frac * (upper - lower)) * self.scale;
                // Never report a quantile above the observed maximum.
                return estimate.min(self.max_scaled());
            }
            below += c;
        }
        unreachable!("rank is clamped to the total count")
    }

    /// The (p50, p90, p99) estimates in exposition units.
    pub fn quantiles(&self) -> (f64, f64, f64) {
        (
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.99),
        )
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        // Bucket 0 is [0, 1]; bucket b is (2^(b-1), 2^b].
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(8), 3);
        assert_eq!(bucket_index(9), 4);
        for b in 1..62 {
            let bound = 1u64 << b;
            assert_eq!(bucket_index(bound), b, "2^{b} belongs to bucket {b}");
            assert_eq!(bucket_index(bound + 1), b + 1, "2^{b}+1 spills over");
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_are_powers_of_two() {
        assert_eq!(bucket_bound(0), 1);
        assert_eq!(bucket_bound(10), 1024);
        assert_eq!(bucket_bound(63), u64::MAX);
        // Every value is <= its bucket's bound and > the previous bound.
        for v in [0u64, 1, 2, 3, 7, 100, 1_000_000, u64::MAX / 2] {
            let b = bucket_index(v);
            assert!(v <= bucket_bound(b));
            if b > 0 {
                assert!(v > bucket_bound(b - 1));
            }
        }
    }

    #[test]
    fn count_sum_and_mean() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 10] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum_scaled(), 16.0);
        assert_eq!(h.mean_scaled(), 4.0);
    }

    #[test]
    fn cumulative_buckets_are_monotone_and_end_at_count() {
        let h = Histogram::new();
        for v in 0..100u64 {
            h.record(v);
        }
        let cum = h.cumulative_buckets();
        assert!(!cum.is_empty());
        for w in cum.windows(2) {
            assert!(w[0].0 < w[1].0, "bounds increase");
            assert!(w[0].1 <= w[1].1, "counts are cumulative");
        }
        assert_eq!(cum.last().unwrap().1, h.count());
    }

    #[test]
    fn empty_histogram_has_no_buckets() {
        let h = Histogram::new();
        assert!(h.cumulative_buckets().is_empty());
        assert_eq!(h.mean_scaled(), 0.0);
    }

    #[test]
    fn scale_applies_to_bounds_and_sum() {
        let h = Histogram::with_scale(1e-9);
        h.record_duration(Duration::from_nanos(1500));
        assert_eq!(h.count(), 1);
        assert!((h.sum_scaled() - 1.5e-6).abs() < 1e-15);
        let cum = h.cumulative_buckets();
        // 1500 ns lands in bucket (1024, 2048]; bound exposed in seconds.
        assert!((cum.last().unwrap().0 - 2048e-9).abs() < 1e-15);
    }

    #[test]
    fn quantiles_of_a_uniform_fill_interpolate_exactly() {
        // 1..=1000 fills every log2 bucket uniformly, so linear
        // interpolation inside a bucket recovers the true rank value.
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert!(
            (h.quantile(0.5) - 500.0).abs() < 1.0,
            "p50 = {}",
            h.quantile(0.5)
        );
        let (p50, p90, p99) = h.quantiles();
        assert!(p50 <= p90 && p90 <= p99, "quantiles are monotone");
        // p99 (rank 990) lands in bucket (512, 1024]; interpolation
        // cannot leave the bucket.
        assert!(p99 > 512.0 && p99 <= 1024.0, "p99 = {p99}");
    }

    #[test]
    fn quantile_of_a_single_value_is_that_value() {
        // One observation in bucket (64, 128]: interpolation aims at the
        // bucket bound (128), but the clamp pulls every quantile back to
        // the one value actually recorded.
        let h = Histogram::new();
        h.record(100);
        for q in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 100.0);
        }
    }

    #[test]
    fn quantiles_respect_the_scale() {
        let h = Histogram::with_scale(1e-9);
        h.record_duration(Duration::from_nanos(1500)); // bucket (1024, 2048]
        assert!((h.quantile(0.99) - 1500e-9).abs() < 1e-15);
        assert!((h.max_scaled() - 1500e-9).abs() < 1e-15);
    }

    #[test]
    fn quantiles_never_exceed_the_recorded_max() {
        // Why the clamp exists: interpolating inside a sparse tail
        // bucket would put a lone straggler's p99 above the worst value
        // ever observed.
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(10);
        }
        h.record(1000); // tail bucket (512, 1024]
        let (p50, p90, p99) = h.quantiles();
        assert!(p50 <= p90 && p90 <= p99, "quantiles are monotone");
        assert!(
            p99 <= h.max_scaled(),
            "p99 = {p99} > max = {}",
            h.max_scaled()
        );
        assert_eq!(h.quantile(1.0), 1000.0);
    }

    #[test]
    fn max_tracks_the_largest_observation() {
        let h = Histogram::new();
        assert_eq!(h.max_scaled(), 0.0, "empty histogram has max 0");
        h.record(7);
        h.record(3);
        assert_eq!(h.max_scaled(), 7.0);
        h.record(100);
        assert_eq!(h.max_scaled(), 100.0);
        h.record(50);
        assert_eq!(h.max_scaled(), 100.0, "max never decreases");
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.99), 0.0);
        assert_eq!(h.quantiles(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn last_bucket_quantile_stays_finite() {
        let h = Histogram::new();
        h.record(u64::MAX);
        let p = h.quantile(0.99);
        assert!(p.is_finite());
        assert!(p >= bucket_bound(NUM_BUCKETS - 2) as f64);
    }

    #[test]
    fn huge_durations_clamp_instead_of_panicking() {
        let h = Histogram::new();
        h.record_duration(Duration::from_secs(u64::MAX / 2));
        assert_eq!(h.count(), 1);
    }

    mod properties {
        use super::super::Histogram;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// For any sample set, quantiles are monotone in q and never
            /// exceed the recorded maximum (the clamp invariant: every
            /// reported `p99 <= max`).
            #[test]
            fn quantiles_monotone_and_bounded_by_max(
                samples in proptest::collection::vec(0u64..=1u64 << 48, 1..200),
                qs in proptest::collection::vec(0.0f64..=1.0, 2..8),
            ) {
                let h = Histogram::new();
                let mut max = 0u64;
                for &s in &samples {
                    h.record(s);
                    max = max.max(s);
                }
                prop_assert_eq!(h.max_scaled(), max as f64);
                let mut qs = qs;
                qs.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let mut prev = 0.0f64;
                for &q in &qs {
                    let v = h.quantile(q);
                    prop_assert!(v >= prev, "quantile({}) = {} < {}", q, v, prev);
                    prop_assert!(
                        v <= max as f64,
                        "quantile({}) = {} exceeds max {}", q, v, max
                    );
                    prev = v;
                }
            }

            /// `record_all` ends in the state per-value `record` does —
            /// buckets, count, (wrapping) sum and max — on top of
            /// whatever was recorded before, for values that include
            /// both ends of the range and an empty batch.
            #[test]
            fn record_all_matches_per_value_record(
                batches in proptest::collection::vec(
                    proptest::collection::vec(
                        prop_oneof![
                            Just(0u64), Just(1u64), Just(u64::MAX),
                            0u64..64, any::<u64>()
                        ],
                        0..150,
                    ),
                    1..4,
                ),
            ) {
                let (folded, single) = (Histogram::new(), Histogram::new());
                for batch in &batches {
                    folded.record_all(batch.iter().copied());
                    batch.iter().for_each(|&v| single.record(v));
                    prop_assert_eq!(folded.bucket_counts(), single.bucket_counts());
                    prop_assert_eq!(folded.count(), single.count());
                    prop_assert_eq!(folded.sum_scaled(), single.sum_scaled());
                    prop_assert_eq!(folded.max_scaled(), single.max_scaled());
                }
            }
        }
    }
}
