//! Custom `Writable` value classes.
//!
//! Both assignments force students to write one: the averaging combiner
//! needs a `(sum, count)` partial aggregate (averages are not associative,
//! partial sums are — the "monoidify" move), and the most-active-user
//! question needs a value carrying several fields per key.

use hl_common::error::Result;
use hl_common::writable::{read_vu64, write_vu64, Writable};

/// A partial average: `(sum, count)`. The monoid the averaging combiner
/// needs — combine by component-wise addition, finish with `sum/count`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SumCount {
    /// Sum of observations.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

impl SumCount {
    /// A single observation.
    pub(crate) fn of(value: f64) -> Self {
        SumCount { sum: value, count: 1 }
    }

    /// Monoid combine.
    pub(crate) fn merge(self, other: SumCount) -> SumCount {
        SumCount { sum: self.sum + other.sum, count: self.count + other.count }
    }

    /// The final average (`None` for the empty aggregate).
    pub(crate) fn mean(self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}

impl Writable for SumCount {
    fn write(&self, buf: &mut Vec<u8>) {
        self.sum.write(buf);
        write_vu64(self.count, buf);
    }
    fn read(buf: &mut &[u8]) -> Result<Self> {
        Ok(SumCount { sum: f64::read(buf)?, count: read_vu64(buf)? })
    }
}

/// Full descriptive statistics: count / sum / min / max — assignment 1's
/// "number of descriptive statistics calculations".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Observations.
    pub count: u64,
    /// Sum.
    pub sum: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Default for Stats {
    fn default() -> Self {
        Stats { count: 0, sum: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }
}

impl Stats {
    /// A single observation.
    pub(crate) fn of(value: f64) -> Self {
        Stats { count: 1, sum: value, min: value, max: value }
    }

    /// Monoid combine.
    pub(crate) fn merge(self, other: Stats) -> Stats {
        Stats {
            count: self.count + other.count,
            sum: self.sum + other.sum,
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// Mean (`None` when empty).
    pub(crate) fn mean(self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}

impl Writable for Stats {
    fn write(&self, buf: &mut Vec<u8>) {
        write_vu64(self.count, buf);
        self.sum.write(buf);
        self.min.write(buf);
        self.max.write(buf);
    }
    fn read(buf: &mut &[u8]) -> Result<Self> {
        Ok(Stats {
            count: read_vu64(buf)?,
            sum: f64::read(buf)?,
            min: f64::read(buf)?,
            max: f64::read(buf)?,
        })
    }
}

/// One rating event for the most-active-user question: the genres of the
/// rated movie. The reducer counts events per user and tallies genres —
/// several values per key, hence the custom class.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RatingEvent {
    /// Genres of the movie this rating touched.
    pub genres: Vec<String>,
}

impl Writable for RatingEvent {
    fn write(&self, buf: &mut Vec<u8>) {
        self.genres.write(buf);
    }
    fn read(buf: &mut &[u8]) -> Result<Self> {
        Ok(RatingEvent { genres: Vec::<String>::read(buf)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sumcount_monoid_laws() {
        let a = SumCount::of(2.0);
        let b = SumCount::of(4.0);
        let c = SumCount::of(9.0);
        // associativity
        assert_eq!(a.merge(b).merge(c), a.merge(b.merge(c)));
        // identity
        assert_eq!(a.merge(SumCount::default()), a);
        assert_eq!(a.merge(b).mean(), Some(3.0));
        assert_eq!(SumCount::default().mean(), None);
    }

    #[test]
    fn stats_merge_tracks_extremes() {
        let s = Stats::of(5.0).merge(Stats::of(-2.0)).merge(Stats::of(9.0));
        assert_eq!(s.count, 3);
        assert_eq!(s.min, -2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.mean(), Some(4.0));
        assert_eq!(Stats::default().mean(), None);
        assert_eq!(Stats::of(1.0).merge(Stats::default()).count, 1);
    }

    #[test]
    fn writable_round_trips() {
        for v in [SumCount::of(3.5), SumCount { sum: -1e9, count: u64::MAX / 2 }] {
            assert_eq!(SumCount::from_bytes(&v.to_bytes()).unwrap(), v);
        }
        let s = Stats::of(7.25).merge(Stats::of(-3.0));
        assert_eq!(Stats::from_bytes(&s.to_bytes()).unwrap(), s);
        let e = RatingEvent { genres: vec!["Drama".into(), "Sci-Fi".into()] };
        assert_eq!(RatingEvent::from_bytes(&e.to_bytes()).unwrap(), e);
        assert_eq!(
            RatingEvent::from_bytes(&RatingEvent::default().to_bytes()).unwrap(),
            RatingEvent::default()
        );
    }

    proptest::proptest! {
        #[test]
        fn prop_sumcount_round_trip(sum in -1e12f64..1e12, count in 0u64..1_000_000) {
            let v = SumCount { sum, count };
            proptest::prop_assert_eq!(SumCount::from_bytes(&v.to_bytes()).unwrap(), v);
        }

        #[test]
        fn prop_merge_commutes(a in -1e6f64..1e6, b in -1e6f64..1e6) {
            let (x, y) = (SumCount::of(a), SumCount::of(b));
            proptest::prop_assert_eq!(x.merge(y), y.merge(x));
        }
    }
}
