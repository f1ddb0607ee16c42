//! Zero-dependency log-bucketed latency histograms for the wall-clock
//! telemetry layer (see `ARCHITECTURE` §11).
//!
//! The step-clocked probe counts the quantities the paper argues about —
//! passes, parallel steps — and is deterministic by construction. Real
//! disks additionally live in *wall-clock*: per-operation service times,
//! queue depths, stall durations. Those are timing-dependent, so they are
//! collected **beside** the probe, never inside it, and excluded from
//! `replay()` equivalence.
//!
//! [`LatencyHist`] is the live recorder: a fixed array of atomic bucket
//! counters shared (`Arc`) between the storage's worker threads and the
//! harvesting machine, so recording is a single relaxed `fetch_add` with
//! no locks on the I/O path. [`HistSnapshot`] is the frozen form stored
//! in [`crate::stats::WallStats`]: sparse (only non-empty buckets),
//! mergeable, and queryable for p50/p95/p99/max.
//!
//! Bucketing is HdrHistogram-style: values below [`SUB_COUNT`] get exact
//! unit buckets; above that, each power-of-two octave is split into
//! [`SUB_COUNT`] linear sub-buckets, bounding the relative quantile error
//! at `1/SUB_COUNT` ≈ 1.6% — about two significant digits — across the
//! full `u64` nanosecond range with a few thousand buckets.

use std::sync::atomic::{AtomicU64, Ordering};

/// log2 of the per-octave sub-bucket count.
const SUB_BITS: u32 = 6;
/// Linear sub-buckets per power-of-two octave (quantile error ≤ 1/64).
pub const SUB_COUNT: u64 = 1 << SUB_BITS;
/// Total bucket count covering the whole `u64` range.
pub const NUM_BUCKETS: usize = (SUB_COUNT as usize) * (64 - SUB_BITS as usize + 1);

/// Bucket index of a value (total order preserved between buckets).
fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // ≥ SUB_BITS
    let mantissa = ((v >> (exp - SUB_BITS)) - SUB_COUNT) as usize;
    ((exp - SUB_BITS + 1) as usize) << SUB_BITS | mantissa
}

/// Upper edge of a bucket: the largest value mapping into it. Quantiles
/// report this edge, so `value_at_quantile(q)` is an upper bound on the
/// true q-quantile with ≤ 1/[`SUB_COUNT`] relative error.
fn bucket_upper(idx: usize) -> u64 {
    let oct = (idx >> SUB_BITS) as u32;
    let mantissa = (idx as u64) & (SUB_COUNT - 1);
    if oct == 0 {
        return mantissa;
    }
    // widen: the topmost bucket's edge is 2^64, which saturates
    let edge = (u128::from(SUB_COUNT + mantissa + 1) << (oct - 1)) - 1;
    u64::try_from(edge).unwrap_or(u64::MAX)
}

/// Live, thread-shared latency recorder. All counters are relaxed
/// atomics: the histogram answers "what did the service-time distribution
/// look like", not "what happened before what", so no ordering is needed.
#[derive(Debug)]
pub struct LatencyHist {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Exact sum of recorded values — kept beside the buckets so derived
    /// totals (e.g. per-disk cumulative service nanos) stay exact even
    /// though individual samples are bucketed.
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample (typically nanoseconds).
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Freeze the current contents into a sparse snapshot.
    pub fn snapshot(&self) -> HistSnapshot {
        let buckets: Vec<(u32, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i as u32, n))
            })
            .collect();
        HistSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Frozen histogram: sparse `(bucket index, count)` pairs plus exact
/// count/sum/max. The `--stats` run artifact carries it as a flat
/// `[index, count, …]` array beside the three totals; it merges across
/// disks and answers quantiles.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Non-empty buckets as `(index, count)`, ascending by index.
    pub buckets: Vec<(u32, u64)>,
    /// Total samples.
    pub count: u64,
    /// Exact sum of all samples (not reconstructed from buckets).
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
}

impl HistSnapshot {
    /// Whether any sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fold another snapshot into this one (e.g. merging per-disk
    /// histograms into a device-wide view).
    pub fn merge(&mut self, other: &HistSnapshot) {
        let mut merged: Vec<(u32, u64)> =
            Vec::with_capacity(self.buckets.len() + other.buckets.len());
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
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Upper bound on the `q`-quantile (`0.0 ≤ q ≤ 1.0`) with
    /// ≤ 1/[`SUB_COUNT`] relative error; 0 when empty. `q = 1.0` returns
    /// the exact recorded max.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q.max(0.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(idx, n) in &self.buckets {
            seen = seen.saturating_add(n);
            if seen >= rank {
                // never report past the exact max (the top bucket's upper
                // edge can overshoot it)
                return bucket_upper(idx as usize).min(self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.value_at_quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.value_at_quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.value_at_quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_self_inverse() {
        let mut vals: Vec<u64> = Vec::new();
        for shift in 0..64u32 {
            for off in [0u64, 1, 3] {
                vals.push((1u64 << shift).saturating_add(off << shift.saturating_sub(7)));
            }
        }
        vals.sort_unstable();
        vals.dedup();
        let mut last = 0usize;
        for v in vals {
            let idx = bucket_index(v);
            assert!(idx >= last, "index regressed at {v}");
            last = idx;
            assert!(bucket_upper(idx) >= v, "upper edge below value at {v}");
            assert!(idx < NUM_BUCKETS);
        }
        // exact unit buckets below SUB_COUNT
        for v in 0..SUB_COUNT {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper(v as usize), v);
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [100u64, 999, 12_345, 1 << 20, 987_654_321, u64::MAX / 3] {
            let upper = bucket_upper(bucket_index(v));
            assert!(upper >= v);
            let err = (upper - v) as f64 / v as f64;
            assert!(err <= 1.0 / SUB_COUNT as f64 + 1e-12, "err {err} at {v}");
        }
    }

    #[test]
    fn quantiles_track_a_known_distribution() {
        let h = LatencyHist::new();
        for v in 1..=1000u64 {
            h.record(v * 1000); // 1µs .. 1ms in 1µs steps
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1_000_000);
        assert_eq!(s.sum, (1..=1000u64).map(|v| v * 1000).sum::<u64>());
        let tol = 1.0 + 1.0 / SUB_COUNT as f64;
        for (q, want) in [(0.5, 500_000.0), (0.95, 950_000.0), (0.99, 990_000.0)] {
            let got = s.value_at_quantile(q) as f64;
            assert!(
                got >= want && got <= want * tol,
                "q{q}: got {got}, want ~{want}"
            );
        }
        assert_eq!(s.value_at_quantile(1.0), 1_000_000);
        assert!(s.p50() <= s.p95() && s.p95() <= s.p99() && s.p99() <= s.max);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let a = LatencyHist::new();
        let b = LatencyHist::new();
        let both = LatencyHist::new();
        for v in [5u64, 70, 3000, 5, 123_456] {
            a.record(v);
            both.record(v);
        }
        for v in [70u64, 999_999, 7] {
            b.record(v);
            both.record(v);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m, both.snapshot());
    }

    #[test]
    fn empty_and_edge_cases() {
        let s = HistSnapshot::default();
        assert!(s.is_empty());
        assert_eq!(s.p50(), 0);
        assert_eq!(s.mean(), 0.0);
        let h = LatencyHist::new();
        h.record(0);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.value_at_quantile(1.0), u64::MAX);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        use std::sync::Arc;
        let h = Arc::new(LatencyHist::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1_000_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4000);
        assert_eq!(s.buckets.iter().map(|&(_, n)| n).sum::<u64>(), 4000);
    }
}
