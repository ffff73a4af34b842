//! Log-bucketed latency histogram with bounded quantile error.
//!
//! The bucket layout is HdrHistogram-style: values below 16 are exact
//! (one bucket per value); above that, each power-of-two range splits
//! into 8 sub-buckets, so a bucket's width is 1/8 of its lower bound and
//! any quantile estimate is within 12.5% of a true recorded value. 496
//! buckets cover the full `u64` range, so a histogram is ~4 KiB of
//! atomics — cheap enough to keep one per latency series per node.
//!
//! Recording is a single relaxed `fetch_add` per bucket plus the
//! count/sum/min/max atomics — no locks, safe from any thread. Reads go
//! through [`Histogram::snapshot`], which is a relaxed scan: snapshots
//! taken concurrently with writes are internally *approximately*
//! consistent (count may trail the buckets by in-flight increments),
//! which is fine for monitoring and exact once writers quiesce.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// log2 of the sub-bucket count per power-of-two range.
const SUB_BITS: u32 = 3;
/// Sub-buckets per power-of-two range.
const SUBS: usize = 1 << SUB_BITS;
/// Values below this index straight into their own bucket.
const LINEAR: u64 = (2 * SUBS) as u64;

/// Total bucket count: 16 exact buckets + 60 ranges × 8 sub-buckets.
pub const BUCKETS: usize = 2 * SUBS + (63 - SUB_BITS as usize) * SUBS;

/// Maps a value to its bucket index. Total over `u64`.
fn bucket_index(value: u64) -> usize {
    if value < LINEAR {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros(); // >= 4 here
    let shift = msb - SUB_BITS;
    let sub = ((value >> shift) & (SUBS as u64 - 1)) as usize;
    shift as usize * SUBS + sub + SUBS
}

/// The inclusive `[lower, upper]` value range a bucket covers.
fn bucket_bounds(index: usize) -> (u64, u64) {
    if (index as u64) < LINEAR {
        return (index as u64, index as u64);
    }
    let shift = ((index - SUBS) / SUBS) as u32;
    let sub = ((index - SUBS) % SUBS) as u64;
    let lower = (SUBS as u64 + sub) << shift;
    let upper = lower + ((1u64 << shift) - 1);
    (lower, upper)
}

/// A mergeable, lock-free latency histogram. See the module docs for the
/// bucket layout and consistency model.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value. Lock-free; callable from any thread.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds (saturating past ~584 years).
    pub fn record_duration(&self, elapsed: Duration) {
        self.record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Total values recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy suitable for merging and quantile queries.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        // Derive the count from the buckets so a snapshot is internally
        // consistent even when taken mid-record.
        let count = buckets.iter().sum();
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An owned, mergeable copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value; 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value; 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded values; 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Folds another snapshot in. Associative and commutative, so
    /// per-thread or per-node histograms merge in any order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        // Wrapping, matching the atomic `fetch_add` on the live sum:
        // merge(snapshot(a), snapshot(b)) must equal snapshot(a ∪ b)
        // bit-for-bit. Nanosecond latencies take ~584 years to wrap.
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket holding the rank-`⌈q·count⌉` value. Within 12.5% of a true
    /// recorded value, and monotone non-decreasing in `q`. Returns 0 for
    /// an empty snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Never report past the true maximum: the top bucket's
                // upper bound can overshoot a lone max by up to 12.5%.
                return bucket_bounds(index).1.min(self.max);
            }
        }
        self.max
    }

    /// The quantile summary the text exposition renders.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: self.min(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            max: self.max(),
        }
    }
}

/// A histogram as the exposition shows it: count, sum and the quantile
/// estimates. Displays as
/// `count=N sum=S min=m mean=a p50=x p90=y p99=z max=M`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub mean: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub max: u64,
}

impl HistogramSummary {
    /// The field names in display order.
    pub(crate) const FIELDS: [&'static str; 8] =
        ["count", "sum", "min", "mean", "p50", "p90", "p99", "max"];
}

impl fmt::Display for HistogramSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let HistogramSummary {
            count,
            sum,
            min,
            mean,
            p50,
            p90,
            p99,
            max,
        } = self;
        write!(
            f,
            "count={count} sum={sum} min={min} mean={mean} p50={p50} p90={p90} p99={p99} max={max}"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 16);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 15);
        // Below LINEAR every bucket holds exactly its own value.
        for v in 0..16 {
            assert_eq!(bucket_bounds(bucket_index(v)), (v, v));
        }
    }

    #[test]
    fn bucket_bounds_invert_bucket_index() {
        let probes = [
            0u64,
            1,
            15,
            16,
            17,
            100,
            1000,
            65_535,
            1 << 20,
            (1 << 40) + 12345,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &probes {
            let idx = bucket_index(v);
            let (lower, upper) = bucket_bounds(idx);
            assert!(lower <= v && v <= upper, "{v} outside [{lower}, {upper}]");
            // Bucket width never exceeds 1/8 of its lower bound.
            if v >= LINEAR {
                assert!(upper - lower <= lower / SUBS as u64);
            }
        }
        // Adjacent buckets tile the value space with no gaps.
        for idx in 0..BUCKETS - 1 {
            let (_, upper) = bucket_bounds(idx);
            let (next_lower, _) = bucket_bounds(idx + 1);
            assert_eq!(upper + 1, next_lower, "gap after bucket {idx}");
        }
        assert_eq!(bucket_bounds(BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn quantiles_track_a_known_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        let p50 = s.quantile(0.5);
        let p99 = s.quantile(0.99);
        assert!((450..=563).contains(&p50), "p50={p50}");
        assert!((900..=1000).contains(&p99), "p99={p99}");
        assert_eq!(s.quantile(0.0), 1);
        assert_eq!(s.quantile(1.0), 1000);
        assert_eq!(s.mean(), 500);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in 0..500u64 {
            let x = v.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20;
            if v % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            all.record(x);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
    }

    #[test]
    fn empty_snapshot_is_all_zeroes() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0);
        assert_eq!(s.quantile(0.99), 0);
    }
}
