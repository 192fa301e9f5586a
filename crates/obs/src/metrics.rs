//! The metric primitive: a fixed-bucket log2 histogram. It is
//! `const`-constructible (so the global registry is a plain `static`),
//! built from `AtomicU64` only, and lock-free on the record path.

use std::sync::atomic::{AtomicU64, Ordering};

/// Buckets per [`Histogram`]. Bucket `i` holds observations with upper
/// bound `2^i` (inclusive); the last bucket is unbounded above.
pub const NUM_BUCKETS: usize = 32;

/// A fixed-bucket log2 histogram of `u64` observations (nanoseconds, in
/// this crate's use). Recording is two relaxed `fetch_add`s — one bucket,
/// one sum — with the bucket picked by a leading-zeros computation, so
/// the hot path has no branches on data-dependent loops, no floats, and
/// no allocation.
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
}

/// The bucket index for observation `v`: 0 for `v ≤ 1`, else the
/// smallest `i ≤ 31` with `v ≤ 2^i`. Observations above `2^31` all land
/// in the last bucket — at nanosecond resolution that is ≈ 2.1 s, past
/// every solve budget in the workspace.
#[inline]
pub const fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        // ceil(log2(v)) for v ≥ 2, clamped into the bucket range.
        let i = (64 - (v - 1).leading_zeros()) as usize;
        if i > NUM_BUCKETS - 1 {
            NUM_BUCKETS - 1
        } else {
            i
        }
    }
}

/// The inclusive upper bound of bucket `i` (`2^i`), saturating at
/// `u64::MAX` conceptually for the final catch-all bucket.
#[inline]
pub const fn bucket_bound(i: usize) -> u64 {
    1u64 << i
}

impl Histogram {
    /// A zeroed histogram, usable in `static` position.
    pub const fn new() -> Self {
        const Z: AtomicU64 = AtomicU64::new(0);
        Histogram {
            buckets: [Z; NUM_BUCKETS],
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The raw count in bucket `i` (not cumulative).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i].load(Ordering::Relaxed)
    }

    /// The highest bucket index holding at least one observation, or
    /// `None` for an empty histogram. Rendering stops here instead of
    /// emitting 32 lines of zeros per stage.
    pub fn highest_nonempty(&self) -> Option<usize> {
        (0..NUM_BUCKETS).rev().find(|&i| self.bucket(i) > 0)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(8), 3);
        assert_eq!(bucket_index(9), 4);
        // Every power of two lands in its own bound's bucket...
        for i in 1..NUM_BUCKETS - 1 {
            assert_eq!(bucket_index(bucket_bound(i)), i, "bound 2^{i}");
            // ...and the next value spills into the next bucket.
            assert_eq!(bucket_index(bucket_bound(i) + 1), i + 1, "2^{i}+1");
        }
        // The top bucket is a catch-all.
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn histogram_count_sum_and_highest() {
        let h = Histogram::new();
        assert_eq!(h.highest_nonempty(), None);
        h.record(1);
        h.record(100);
        h.record(100);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 201);
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(bucket_index(100)), 2);
        assert_eq!(h.highest_nonempty(), Some(bucket_index(100)));
    }
}
