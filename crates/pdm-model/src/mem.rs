//! Tracked internal memory.
//!
//! Out-of-core algorithms are only honest if the "internal memory of `M`
//! keys" is actually enforced. [`MemTracker`] is a capacity-limited arena:
//! every working buffer an algorithm holds is registered against it, the
//! peak residency is recorded, and exceeding the configured limit is an
//! error — so an algorithm claiming to sort `M√M` keys with memory `M`
//! demonstrably never holds more than (a constant times) `M` keys.

use crate::error::{PdmError, Result};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Shared, thread-safe accountant for internal-memory residency (in keys).
#[derive(Debug)]
pub struct MemTracker {
    limit: usize,
    current: AtomicUsize,
    peak: AtomicUsize,
}

impl MemTracker {
    /// A tracker enforcing `limit` resident keys.
    pub fn new(limit: usize) -> Arc<Self> {
        Arc::new(Self {
            limit,
            current: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        })
    }

    /// The enforced limit in keys.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Keys currently registered as resident.
    pub fn current(&self) -> usize {
        self.current.load(Ordering::Relaxed)
    }

    /// High-water mark of resident keys.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Reset the high-water mark to the current residency (not to zero, so
    /// live allocations keep counting).
    pub fn reset_peak(&self) {
        self.peak
            .store(self.current.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Register `n` resident keys; fails if the limit would be exceeded.
    pub fn acquire(self: &Arc<Self>, n: usize) -> Result<MemGuard> {
        let prev = self.current.fetch_add(n, Ordering::Relaxed);
        let now = prev + n;
        if now > self.limit {
            self.current.fetch_sub(n, Ordering::Relaxed);
            return Err(PdmError::MemoryExceeded {
                requested: now,
                limit: self.limit,
            });
        }
        self.peak.fetch_max(now, Ordering::Relaxed);
        Ok(MemGuard {
            tracker: Arc::clone(self),
            n,
        })
    }
}

/// RAII registration of `n` resident keys; releases on drop.
#[derive(Debug)]
pub struct MemGuard {
    tracker: Arc<MemTracker>,
    n: usize,
}

impl MemGuard {
    /// Number of keys this guard accounts for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the guard covers zero keys.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Shrink the registration to `new_n ≤ n` keys (e.g. after flushing part
    /// of a buffer to disk).
    pub fn shrink_to(&mut self, new_n: usize) {
        assert!(new_n <= self.n, "MemGuard::shrink_to may only shrink");
        self.tracker
            .current
            .fetch_sub(self.n - new_n, Ordering::Relaxed);
        self.n = new_n;
    }
}

impl Drop for MemGuard {
    fn drop(&mut self) {
        self.tracker.current.fetch_sub(self.n, Ordering::Relaxed);
    }
}

/// A `Vec<K>` working buffer bundled with its memory registration.
///
/// This is the standard shape for algorithm working sets: the buffer's
/// capacity is what counts against the machine's internal memory.
#[derive(Debug)]
pub struct TrackedBuf<K> {
    buf: Vec<K>,
    _guard: MemGuard,
}

impl<K> TrackedBuf<K> {
    /// Allocate a buffer of capacity `cap` keys registered against `tracker`.
    pub fn with_capacity(tracker: &Arc<MemTracker>, cap: usize) -> Result<Self> {
        let guard = tracker.acquire(cap)?;
        Ok(Self {
            buf: Vec::with_capacity(cap),
            _guard: guard,
        })
    }

    /// The underlying vector.
    pub fn as_vec(&self) -> &Vec<K> {
        &self.buf
    }

    /// The underlying vector, mutably. Growing it beyond the registered
    /// capacity is a logic error in the calling algorithm; debug builds
    /// assert against it on [`TrackedBuf::check`].
    pub fn as_vec_mut(&mut self) -> &mut Vec<K> {
        &mut self.buf
    }

    /// Assert the buffer has not outgrown its registration.
    pub fn check(&self) {
        debug_assert!(
            self.buf.len() <= self._guard.len(),
            "TrackedBuf outgrew its memory registration: {} > {}",
            self.buf.len(),
            self._guard.len()
        );
    }
}

impl<K> std::ops::Deref for TrackedBuf<K> {
    type Target = Vec<K>;
    fn deref(&self) -> &Vec<K> {
        &self.buf
    }
}

impl<K> std::ops::DerefMut for TrackedBuf<K> {
    fn deref_mut(&mut self) -> &mut Vec<K> {
        &mut self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_and_release_track_residency() {
        let t = MemTracker::new(100);
        let g1 = t.acquire(40).unwrap();
        assert_eq!(t.current(), 40);
        let g2 = t.acquire(60).unwrap();
        assert_eq!(t.current(), 100);
        assert_eq!(t.peak(), 100);
        drop(g1);
        assert_eq!(t.current(), 60);
        assert_eq!(t.peak(), 100);
        drop(g2);
        assert_eq!(t.current(), 0);
    }

    #[test]
    fn over_limit_fails_and_rolls_back() {
        let t = MemTracker::new(10);
        let _g = t.acquire(8).unwrap();
        let e = t.acquire(3).unwrap_err();
        assert!(matches!(
            e,
            PdmError::MemoryExceeded {
                requested: 11,
                limit: 10
            }
        ));
        // the failed acquire must not leak residency
        assert_eq!(t.current(), 8);
        let _g2 = t.acquire(2).unwrap();
    }

    #[test]
    fn shrink_releases_partially() {
        let t = MemTracker::new(10);
        let mut g = t.acquire(10).unwrap();
        g.shrink_to(4);
        assert_eq!(t.current(), 4);
        let _g2 = t.acquire(6).unwrap();
        assert_eq!(t.current(), 10);
    }

    #[test]
    #[should_panic(expected = "only shrink")]
    fn shrink_cannot_grow() {
        let t = MemTracker::new(10);
        let mut g = t.acquire(2).unwrap();
        g.shrink_to(5);
    }

    #[test]
    fn reset_peak_keeps_live_allocations() {
        let t = MemTracker::new(100);
        {
            let _g = t.acquire(80).unwrap();
        }
        assert_eq!(t.peak(), 80);
        let _g = t.acquire(30).unwrap();
        t.reset_peak();
        assert_eq!(t.peak(), 30);
    }

    #[test]
    fn tracked_buf_registers_capacity() {
        let t = MemTracker::new(16);
        let mut b: TrackedBuf<u64> = TrackedBuf::with_capacity(&t, 16).unwrap();
        assert_eq!(t.current(), 16);
        b.push(1);
        b.check();
        assert!(TrackedBuf::<u64>::with_capacity(&t, 1).is_err());
        drop(b);
        assert_eq!(t.current(), 0);
    }

    #[test]
    fn concurrent_acquires_respect_limit() {
        use std::sync::atomic::AtomicUsize;
        let t = MemTracker::new(1000);
        let successes = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..100 {
                        if let Ok(g) = t.acquire(10) {
                            successes.fetch_add(1, Ordering::Relaxed);
                            std::hint::black_box(&g);
                        }
                    }
                });
            }
        });
        assert_eq!(t.current(), 0);
        assert!(t.peak() <= 1000);
        assert!(successes.load(Ordering::Relaxed) > 0);
    }
}
