//! A log-linear latency histogram fine enough for tail percentiles: every
//! power of two is split into 128 equal sub-buckets, so no bucket is wider
//! than 1/128 (< 0.8%) of its lower bound. Values below 128 are exact.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Octaves 2^7 .. 2^63, plus the exact range 0..128.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Counts of nanosecond values in log-linear buckets.
#[derive(Clone, Debug)]
pub struct FineHist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for FineHist {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

fn index(value: u64) -> usize {
    if value < SUB as u64 {
        return value as usize;
    }
    let shift = 63 - value.leading_zeros() - SUB_BITS;
    let sub = (value >> shift) as usize - SUB;
    (shift as usize + 1) * SUB + sub
}

/// `(lower bound, width)` of bucket `i`.
fn bounds(i: usize) -> (f64, f64) {
    if i < SUB {
        return (i as f64, 1.0);
    }
    let shift = (i / SUB - 1) as i32;
    let sub = (i % SUB) as f64;
    let width = 2f64.powi(shift);
    ((SUB as f64 + sub) * width, width)
}

impl FineHist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[index(value)] += 1;
        self.total += 1;
    }

    /// Adds `other`'s counts into `self`.
    pub fn merge(&mut self, other: &FineHist) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The value at quantile `q` (`0 < q <= 1`), interpolated linearly
    /// inside the bucket that holds that rank; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = (q * self.total as f64).clamp(0.0, self.total as f64);
        let mut below = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            if count > 0 && (below + count) as f64 >= rank {
                let (lo, width) = bounds(i);
                let within = ((rank - below as f64) / count as f64).clamp(0.0, 1.0);
                return lo + within * width;
            }
            below += count;
        }
        let (lo, width) = bounds(BUCKETS - 1);
        lo + width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_bucket_is_narrower_than_one_percent() {
        for i in SUB..BUCKETS {
            let (lo, width) = bounds(i);
            assert!(
                width / lo <= 1.0 / 128.0 + 1e-12,
                "bucket {i}: {lo} + {width}"
            );
        }
    }

    #[test]
    fn values_land_in_their_own_bucket() {
        for value in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1_000,
            123_456_789,
            u64::MAX / 3,
        ] {
            let (lo, width) = bounds(index(value));
            assert!(lo <= value as f64 && (value as f64) < lo + width, "{value}");
        }
        assert_eq!(index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_of_a_uniform_range_are_within_one_percent() {
        let mut hist = FineHist::new();
        for value in 1..=100_000u64 {
            hist.record(value);
        }
        for (q, expect) in [(0.5, 50_000.0), (0.99, 99_000.0), (0.01, 1_000.0)] {
            let got = hist.quantile(q);
            assert!((got - expect).abs() / expect < 0.01, "q{q}: {got}");
        }
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = FineHist::new();
        let mut b = FineHist::new();
        a.record(10);
        b.record(1_000);
        b.record(1_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!(a.quantile(1.0) >= 1_000.0);
        assert!(a.quantile(0.2) < 11.0);
    }
}
