//! Log2-bucketed histograms.
//!
//! The bucketing scheme is the classic power-of-two latency histogram:
//! bucket 0 counts exact zeros, bucket `i` (1..=64) counts values in
//! `[2^(i-1), 2^i)`. Fixed bucket boundaries make merges exact — merging
//! two histograms is bucket-wise addition, so merge is associative and
//! commutative (property-tested), which is what lets per-task histograms
//! aggregate up to per-job and per-cluster ones in any order.

use hl_common::writable::{read_vu64, write_vu64, Writable};
use hl_common::{HlError, Result};

/// Number of buckets: one for zero plus one per bit of a `u64`.
const NUM_BUCKETS: usize = 65;

/// A log2-bucketed histogram over `u64` samples.
///
/// Tracks exact `count`, saturating `sum`, exact `min`/`max`, and the
/// per-bucket counts. Quantiles are bucket upper bounds (within 2x of the
/// true value), the resolution the 1.x web UIs worked at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; NUM_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

/// Bucket index for a sample: 0 for 0, else `bit_length(v)`.
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

impl Histogram {
    /// Empty histogram.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub(crate) fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample (`None` when empty).
    pub(crate) fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean sample, rounded down (`None` when empty).
    pub(crate) fn mean(&self) -> Option<u64> {
        (self.count > 0).then(|| self.sum / self.count)
    }

    /// Upper bound of the bucket holding the `q`-quantile (`q` in
    /// per-mille, e.g. 500 = median, 950 = p95). `None` when empty.
    pub(crate) fn quantile_bound(&self, q_per_mille: u64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q_per_mille.min(1000);
        // Rank of the target sample, 1-based, rounding up.
        let rank = ((self.count * q).div_ceil(1000)).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_upper_bound(i));
            }
        }
        Some(bucket_upper_bound(NUM_BUCKETS - 1))
    }

    /// Merge another histogram into this one (bucket-wise addition;
    /// associative and commutative).
    pub(crate) fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(bucket index, count)` in index order.
    fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets.iter().enumerate().filter(|(_, &c)| c > 0).map(|(i, &c)| (i, c))
    }
}

/// Inclusive upper bound of bucket `i` (0 for the zero bucket).
fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Writable for Histogram {
    /// Sparse encoding: count, sum, min, max, then `(index, count)` pairs
    /// for the non-empty buckets — compact and canonical (index order).
    fn write(&self, buf: &mut Vec<u8>) {
        write_vu64(self.count, buf);
        write_vu64(self.sum, buf);
        write_vu64(self.min, buf);
        write_vu64(self.max, buf);
        let nonzero = self.buckets.iter().filter(|&&c| c > 0).count() as u64;
        write_vu64(nonzero, buf);
        for (i, c) in self.nonzero_buckets() {
            write_vu64(i as u64, buf);
            write_vu64(c, buf);
        }
    }

    fn read(buf: &mut &[u8]) -> Result<Self> {
        let count = read_vu64(buf)?;
        let sum = read_vu64(buf)?;
        let min = read_vu64(buf)?;
        let max = read_vu64(buf)?;
        let nonzero = read_vu64(buf)?;
        let mut buckets = [0u64; NUM_BUCKETS];
        for _ in 0..nonzero {
            let i = read_vu64(buf)?;
            let c = read_vu64(buf)?;
            let slot =
                buckets.get_mut(usize::try_from(i).unwrap_or(usize::MAX)).ok_or_else(|| {
                    HlError::Codec(format!("histogram bucket index {i} out of range"))
                })?;
            *slot = c;
        }
        Ok(Histogram { buckets, count, sum, min, max })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucketing_follows_powers_of_two() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.min, 0);
        assert_eq!(h.max(), Some(u64::MAX));
        let got: Vec<(usize, u64)> = h.nonzero_buckets().collect();
        // 0→b0, 1→b1, {2,3}→b2, {4,7}→b3, 8→b4, 1023→b10, 1024→b11, MAX→b64.
        assert_eq!(got, vec![(0, 1), (1, 1), (2, 2), (3, 2), (4, 1), (10, 1), (11, 1), (64, 1)]);
    }

    #[test]
    fn quantiles_return_bucket_upper_bounds() {
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record(100); // bucket 7, bound 127
        }
        for _ in 0..10 {
            h.record(5000); // bucket 13, bound 8191
        }
        assert_eq!(h.quantile_bound(500), Some(127));
        assert_eq!(h.quantile_bound(900), Some(127));
        assert_eq!(h.quantile_bound(950), Some(8191));
        assert_eq!(h.quantile_bound(1000), Some(8191));
        assert_eq!(Histogram::new().quantile_bound(500), None);
    }

    #[test]
    fn empty_histogram_has_no_extrema() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let mut a = Histogram::new();
        a.record(3);
        a.record(100);
        let mut b = Histogram::new();
        b.record(3);
        b.record(0);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!((a.sum, a.min), (106, 0));
        assert_eq!(a.max(), Some(100));
        let got: Vec<(usize, u64)> = a.nonzero_buckets().collect();
        assert_eq!(got, vec![(0, 1), (2, 2), (7, 1)]);
    }

    #[test]
    fn histogram_round_trips() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 5, 5, 900, u64::MAX, 42] {
            h.record(v);
        }
        let bytes = h.to_bytes();
        assert_eq!(Histogram::from_bytes(&bytes).unwrap(), h);
        let empty = Histogram::new();
        assert_eq!(Histogram::from_bytes(&empty.to_bytes()).unwrap(), empty);
    }

    #[test]
    fn bad_bucket_index_is_a_codec_error() {
        let mut h = Histogram::new();
        h.record(7);
        let mut bytes = h.to_bytes();
        // The encoding ends with (index, count); index 3 sits two varint
        // bytes from the end. Corrupt it past NUM_BUCKETS.
        let n = bytes.len();
        bytes[n - 2] = 80;
        assert!(Histogram::from_bytes(&bytes).is_err());
    }

    fn arb_histogram() -> impl Strategy<Value = Histogram> {
        proptest::collection::vec(any::<u64>(), 0..40).prop_map(|vs| {
            let mut h = Histogram::new();
            for v in vs {
                h.record(v);
            }
            h
        })
    }

    proptest! {
        #[test]
        fn prop_merge_is_associative(a in arb_histogram(), b in arb_histogram(), c in arb_histogram()) {
            // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            prop_assert_eq!(left, right);
        }

        #[test]
        fn prop_merge_is_commutative(a in arb_histogram(), b in arb_histogram()) {
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(ab, ba);
        }

        #[test]
        fn prop_round_trip(h in arb_histogram()) {
            prop_assert_eq!(Histogram::from_bytes(&h.to_bytes()).unwrap(), h);
        }
    }
}
