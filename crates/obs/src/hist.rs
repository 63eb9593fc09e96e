//! Log-linear latency histograms with per-worker shards.
//!
//! The bucketing follows the HdrHistogram scheme without the dependency:
//! values below `2 * SUB_BUCKETS` get one bucket each (exact), and every
//! further power-of-two range is split into `SUB_BUCKETS` linear
//! sub-buckets, so the relative quantisation error of any recorded value is
//! bounded by `1 / SUB_BUCKETS` regardless of magnitude. With
//! `SUB_BITS = 5` (32 sub-buckets) the bound is ~3.1% and the whole `u64`
//! range fits in [`BUCKETS`] buckets — small enough to keep one bucket
//! array per worker shard and merge on snapshot.
//!
//! Recording is a single relaxed `fetch_add` on the recording worker's own
//! cache-padded shard, the same single-writer discipline `RuntimeStats`
//! uses; reads sum across shards into an owned [`HistogramSnapshot`].

use atm_sync::atomic::{AtomicU64, Ordering};

/// Number of linear sub-buckets per power-of-two range, as a shift.
pub const SUB_BITS: u32 = 5;
/// Number of linear sub-buckets per power-of-two range.
pub const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// Bound on the relative quantisation error of any recorded value.
pub const RELATIVE_ERROR_BOUND: f64 = 1.0 / SUB_BUCKETS as f64;
/// Total bucket count covering the full `u64` range: the two exact
/// power-of-two ranges plus `SUB_BUCKETS` sub-buckets for each of the
/// remaining 58 ranges (highest index `((58 + 1) << SUB_BITS) + 31`).
pub const BUCKETS: usize = ((64 - SUB_BITS) as usize + 1) << SUB_BITS;

/// Number of shards (histograms, decision rings and capture logs alike).
/// Workers map onto shards by `worker % SHARDS`, so any realistic worker
/// count gets a private lane.
pub const SHARDS: usize = 16;

/// Bucket index of a value.
fn bucket_index(value: u64) -> usize {
    if value < 2 * SUB_BUCKETS {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let shift = msb - SUB_BITS;
    ((((shift + 1) as usize) << SUB_BITS) + ((value >> shift) - SUB_BUCKETS) as usize)
        .min(BUCKETS - 1)
}

/// Inclusive lower bound of a bucket.
fn bucket_low(index: usize) -> u64 {
    if index < (2 * SUB_BUCKETS) as usize {
        return index as u64;
    }
    let shift = (index >> SUB_BITS) as u32 - 1;
    let sub = (index as u64 & (SUB_BUCKETS - 1)) + SUB_BUCKETS;
    sub << shift
}

/// Representative (midpoint) value of a bucket, used when reading
/// quantiles back out.
fn bucket_mid(index: usize) -> u64 {
    let low = bucket_low(index);
    if index < (2 * SUB_BUCKETS) as usize {
        return low; // exact buckets
    }
    let shift = (index >> SUB_BITS) as u32 - 1;
    low + (1u64 << shift) / 2
}

/// One worker's private bucket array. The hot counters live behind a
/// cache-line-aligned header so two workers never write the same line
/// through the struct head; the bucket `Vec` is its own allocation.
#[repr(align(128))]
struct Shard {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: Vec<AtomicU64>,
}

impl Shard {
    fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// A concurrent log-linear histogram sharded per worker.
pub struct Histogram {
    shards: Vec<Shard>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram with [`SHARDS`] worker shards.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Shard::new()).collect(),
        }
    }

    /// Records one value on `worker`'s shard (any `worker` index is valid;
    /// it is reduced modulo the shard count).
    pub fn record(&self, worker: usize, value: u64) {
        let shard = &self.shards[worker % SHARDS];
        shard.count.fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(value, Ordering::Relaxed);
        shard.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Sums every shard into an owned snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::empty();
        for shard in &self.shards {
            snap.count += shard.count.load(Ordering::Relaxed);
            // `fetch_add` on the shard already wraps; stay consistent
            // instead of panicking on astronomically large totals.
            snap.sum = snap.sum.wrapping_add(shard.sum.load(Ordering::Relaxed));
            for (acc, bucket) in snap.buckets.iter_mut().zip(&shard.buckets) {
                *acc += bucket.load(Ordering::Relaxed);
            }
        }
        snap
    }
}

/// Owned point-in-time copy of a [`Histogram`], mergeable and queryable.
#[derive(Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (see [`BUCKETS`]).
    buckets: Vec<u64>,
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
}

impl std::fmt::Debug for HistogramSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramSnapshot")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .finish()
    }
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn empty() -> Self {
        Self {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Folds another snapshot into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        for (acc, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *acc += b;
        }
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded value's bucket lower bound (0 when empty).
    pub fn min(&self) -> u64 {
        self.buckets
            .iter()
            .position(|&c| c > 0)
            .map_or(0, bucket_low)
    }

    /// Largest recorded value's bucket representative (0 when empty).
    pub fn max(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, bucket_mid)
    }

    /// The value at quantile `q` in `[0, 1]`: the representative value of
    /// the bucket holding the `ceil(q * count)`-th recorded value. Returns
    /// 0 for an empty snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_mid(i);
            }
        }
        self.max()
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn small_values_are_exact() {
        for v in 0..2 * SUB_BUCKETS {
            let i = bucket_index(v);
            assert_eq!(bucket_low(i), v);
            assert_eq!(bucket_mid(i), v);
        }
    }

    #[test]
    fn bucket_bounds_are_consistent() {
        // Every value maps into a bucket whose [low, next low) range
        // contains it, across the whole dynamic range.
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            for probe in [v, v + v / 3] {
                let i = bucket_index(probe);
                assert!(bucket_low(i) <= probe, "low({i}) > {probe}");
                if i + 1 < BUCKETS {
                    assert!(bucket_low(i + 1) > probe, "next low({i}) <= {probe}");
                }
            }
            v *= 2;
        }
    }

    /// Property: the representative value of any recorded value's bucket is
    /// within the configured relative error bound.
    #[test]
    fn bucket_error_is_within_configured_precision() {
        let mut seed = 0x9e3779b97f4a7c15u64;
        for _ in 0..20_000 {
            // xorshift64* — deterministic pseudo-random probe values.
            seed ^= seed >> 12;
            seed ^= seed << 25;
            seed ^= seed >> 27;
            let v = seed.wrapping_mul(0x2545f4914f6cdd1d) >> (seed % 48);
            let mid = bucket_mid(bucket_index(v));
            let err = (mid as f64 - v as f64).abs() / (v.max(1) as f64);
            assert!(
                err <= RELATIVE_ERROR_BOUND,
                "value {v}: representative {mid} off by {err:.4} > {RELATIVE_ERROR_BOUND}"
            );
        }
    }

    /// Property: quantiles are monotone in `q`.
    #[test]
    fn quantiles_are_monotone() {
        let h = Histogram::new();
        let mut seed = 42u64;
        for _ in 0..5_000 {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            h.record((seed % 7) as usize, seed >> (seed % 40));
        }
        let snap = h.snapshot();
        let mut last = 0u64;
        for step in 0..=100 {
            let q = step as f64 / 100.0;
            let v = snap.quantile(q);
            assert!(
                v >= last,
                "quantile({q}) = {v} < quantile of previous step {last}"
            );
            last = v;
        }
        assert!(snap.min() <= snap.quantile(0.0));
        assert!(snap.quantile(1.0) <= snap.max());
    }

    /// Property: no recorded value is lost or duplicated when many workers
    /// record concurrently onto different shards and the shards are merged.
    #[test]
    fn concurrent_recording_conserves_counts() {
        let h = Arc::new(Histogram::new());
        let threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        h.record(w, (w as u64 + 1) * 1000 + i % 97);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, threads as u64 * per_thread);
        // The per-bucket counts must account for every record too.
        assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count);
    }

    #[test]
    fn merge_adds_counts_and_preserves_quantiles() {
        let a = Histogram::new();
        let b = Histogram::new();
        for i in 0..1000 {
            a.record(0, i);
            b.record(1, 10 * i);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count, 2000);
        assert_eq!(merged.sum, a.snapshot().sum + b.snapshot().sum);
        assert!(merged.p999() >= a.snapshot().p999());
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.p50(), 0);
        assert_eq!(snap.p999(), 0);
        assert_eq!(snap.min(), 0);
        assert_eq!(snap.max(), 0);
        assert_eq!(snap.mean(), 0.0);
    }
}
