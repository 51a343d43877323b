//! Log-linear latency/size histograms (HDR-style fixed bucket layout).
//!
//! A [`Histogram`] records `u64` values (microseconds, bytes, batch sizes)
//! into a fixed array of lock-free buckets. The layout is *log-linear*: each
//! power-of-two octave `[2^e, 2^(e+1))` is divided into [`SUB_BUCKETS`]
//! equal-width linear sub-buckets, so the relative quantisation error is
//! bounded by `1/SUB_BUCKETS` (~3.1%) at any magnitude, while values below
//! [`SUB_BUCKETS`] are recorded exactly. The bucket layout is **fixed** —
//! identical for every histogram in every process — which makes snapshots
//! mergeable across shards and across machines by bucket-wise addition.
//!
//! Recording is three relaxed `fetch_add`s (bucket, count, sum): safe to call
//! from the ingest hot path. Reading is done through an owned
//! [`HistogramSnapshot`], which carries only the non-empty buckets and
//! answers exact-rank percentile queries (p50/p99/p999) against the recorded
//! distribution.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of linear sub-buckets per power-of-two octave (2^5).
pub const SUB_BUCKETS: u64 = 32;

/// Total number of buckets: indexes `0..SUB_BUCKETS` hold exact values, and
/// each of the 59 remaining octaves (`2^5 ..= 2^63`) contributes
/// [`SUB_BUCKETS`] sub-buckets. Index `N_BUCKETS - 1` holds `u64::MAX`.
pub const N_BUCKETS: usize = 60 * SUB_BUCKETS as usize;

/// Maps a recorded value to its bucket index. Total and monotone: every
/// `u64` maps to exactly one index in `0..N_BUCKETS`, and larger values never
/// map to smaller indexes.
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS {
        value as usize
    } else {
        // Highest set bit e >= 5; octave group g >= 1; the top 5 bits below
        // the leading bit select the linear sub-bucket within the octave.
        let e = 63 - value.leading_zeros() as u64;
        let g = e - 4;
        (g * SUB_BUCKETS + ((value >> (e - 5)) - SUB_BUCKETS)) as usize
    }
}

/// Inclusive `(lower, upper)` value bounds of bucket `index`.
///
/// Buckets below [`SUB_BUCKETS`] are exact (`lower == upper`); bucket
/// `N_BUCKETS - 1` ends at `u64::MAX`.
///
/// # Panics
///
/// Panics if `index >= N_BUCKETS`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < N_BUCKETS, "bucket index {index} out of range");
    let i = index as u64;
    if i < SUB_BUCKETS {
        (i, i)
    } else {
        let g = i / SUB_BUCKETS;
        let sub = i % SUB_BUCKETS;
        let width = 1u64 << (g - 1);
        let lower = (SUB_BUCKETS + sub) << (g - 1);
        (lower, lower + (width - 1))
    }
}

pub(crate) struct HistogramCore {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        let mut buckets = Vec::with_capacity(N_BUCKETS);
        buckets.resize_with(N_BUCKETS, || AtomicU64::new(0));
        HistogramCore {
            buckets: buckets.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A shareable handle to one lock-free histogram. Cloning is cheap (an `Arc`
/// bump); all clones record into the same buckets.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.core.count.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates a detached histogram (not registered anywhere). Registered
    /// histograms are obtained from [`Registry::histogram`](crate::Registry::histogram).
    pub fn new() -> Self {
        Histogram {
            core: Arc::new(HistogramCore::new()),
        }
    }

    /// Records one value. Three relaxed atomic adds; never blocks.
    pub fn record(&self, value: u64) {
        self.core.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.core.count.fetch_add(1, Ordering::Relaxed);
        self.core.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] in whole microseconds.
    pub fn record_micros(&self, elapsed: std::time::Duration) {
        self.record(elapsed.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Records a [`std::time::Duration`] in whole nanoseconds.
    pub fn record_nanos(&self, elapsed: std::time::Duration) {
        self.record(elapsed.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Captures an owned, mergeable snapshot of the current distribution.
    ///
    /// Concurrent recorders may land between the bucket reads, so `count` is
    /// re-derived from the bucket sums to keep the snapshot internally
    /// consistent (ranks always resolve to a bucket).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (i, b) in self.core.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((i as u32, n));
                count += n;
            }
        }
        HistogramSnapshot {
            count,
            sum: self.core.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// An owned point-in-time view of a [`Histogram`]: total count, value sum,
/// and the sparse list of non-empty `(bucket index, count)` pairs, sorted by
/// index. Snapshots from different shards (or machines) merge losslessly
/// because every histogram shares the same fixed bucket layout.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total number of recorded values.
    pub count: u64,
    /// Sum of all recorded values (wrapping on overflow is not handled; the
    /// instrumented quantities — microseconds, bytes — stay far below 2^64).
    pub sum: u64,
    /// Non-empty buckets as `(index, count)`, strictly ascending by index.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// `true` if no values were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean recorded value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest possible recorded value: the inclusive upper bound of the
    /// highest non-empty bucket (0 when empty).
    pub fn max(&self) -> u64 {
        match self.buckets.last() {
            Some(&(i, _)) => bucket_bounds(i as usize).1,
            None => 0,
        }
    }

    /// Value at percentile `p` (`0.0 ..= 100.0`), computed by exact rank
    /// walk over the buckets; returns the inclusive upper bound of the
    /// bucket holding that rank (exact for values below [`SUB_BUCKETS`],
    /// within ~3.1% otherwise). Returns 0 for an empty snapshot.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(i, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_bounds(i as usize).1;
            }
        }
        // Unreachable when counts are consistent; fall back to the max.
        self.max()
    }

    /// Adds `other`'s distribution into `self` (bucket-wise). Merging is
    /// commutative and associative, so per-shard snapshots can be combined
    /// in any order into a fleet-wide distribution.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, na)), Some(&&(ib, nb))) => {
                    if ia == ib {
                        merged.push((ia, na + nb));
                        a.next();
                        b.next();
                    } else if ia < ib {
                        merged.push((ia, na));
                        a.next();
                    } else {
                        merged.push((ib, nb));
                        b.next();
                    }
                }
                (Some(&&x), None) => {
                    merged.push(x);
                    a.next();
                }
                (None, Some(&&x)) => {
                    merged.push(x);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
    }
}
