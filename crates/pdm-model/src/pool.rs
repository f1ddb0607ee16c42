//! Recyclable block-buffer pool for the worker engine
//! ([`crate::storage_worker`], under the threaded and async-file backends).
//!
//! Allocating a fresh `Vec<K>` for every read reply and write payload would
//! put the allocator on the hot path of every I/O step. A [`BlockPool`] is
//! shared between the storage handle and its disk workers: buffers travel
//! inside channel messages and come back to the free list when the
//! recipient is done, so a steady-state sort recycles the same handful of
//! allocations for millions of blocks.
//!
//! The pool is deliberately simple — a mutexed free list plus atomic
//! counters — because contention is bounded by the caller and the two
//! workers, and the critical section is a `Vec` push/pop.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Occupancy and traffic counters for a [`BlockPool`], snapshot atomically
/// enough for telemetry (individual counters are exact; cross-counter skew
/// is possible while workers are in flight).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `get` calls served from the free list.
    pub hits: u64,
    /// `get` calls that had to allocate.
    pub misses: u64,
    /// Buffers returned via `put` (retained or dropped).
    pub returns: u64,
    /// Buffers currently sitting in the free list.
    pub free: usize,
}

impl PoolStats {
    /// Fraction of `get` calls served without allocating; 0 when idle.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A free list of `Vec<K>` block buffers shared by reference-counted clones.
#[derive(Debug)]
pub struct BlockPool<K> {
    free: Mutex<Vec<Vec<K>>>,
    /// Buffers beyond this many are dropped on `put` instead of retained,
    /// bounding idle memory at `max_retained × B` keys. Grows monotonically
    /// via [`BlockPool::reserve_retained`] as callers observe how many
    /// buffers a dispatch actually keeps in flight.
    max_retained: AtomicUsize,
    /// The one buffer capacity this pool recycles. A `put` of a buffer with
    /// any other capacity drops it instead of retaining it, so two machines
    /// with different block sizes sharing a process can never hand each
    /// other mis-sized blocks or over-retain memory.
    expected: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    returns: AtomicU64,
}

impl<K> BlockPool<K> {
    /// Pool retaining at most `max_retained` idle buffers, all of exactly
    /// `block_capacity` keys. Mis-sized buffers are dropped on `put`.
    pub fn for_blocks(max_retained: usize, block_capacity: usize) -> Self {
        Self {
            free: Mutex::new(Vec::new()),
            max_retained: AtomicUsize::new(max_retained),
            expected: block_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            returns: AtomicU64::new(0),
        }
    }

    /// Grow the retention cap to at least `n` buffers (never shrinks).
    ///
    /// A fixed cap sized for single-block traffic silently degrades batch
    /// dispatch: a batch larger than the cap drops its excess buffers on
    /// `put` and re-allocates them on the next batch, every batch. Callers
    /// that know their in-flight count announce it here instead.
    pub fn reserve_retained(&self, n: usize) {
        self.max_retained.fetch_max(n, Ordering::Relaxed);
    }

    /// Take an empty buffer with at least `capacity` reserved. Served from
    /// the free list when possible; the returned buffer always has len 0.
    pub fn get(&self, capacity: usize) -> Vec<K> {
        let recycled = self.free.lock().expect("pool lock").pop();
        match recycled {
            Some(mut v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                v.clear();
                if v.capacity() < capacity {
                    v.reserve_exact(capacity - v.len());
                }
                v
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(capacity)
            }
        }
    }

    /// Return a buffer to the free list (cleared), or drop it if the list
    /// is already at `max_retained` or the buffer's capacity doesn't match
    /// the pool's block capacity (a foreign-geometry buffer).
    pub fn put(&self, mut v: Vec<K>) {
        self.returns.fetch_add(1, Ordering::Relaxed);
        v.clear();
        if v.capacity() != self.expected {
            return;
        }
        let mut free = self.free.lock().expect("pool lock");
        if free.len() < self.max_retained.load(Ordering::Relaxed) {
            free.push(v);
        }
    }

    /// Snapshot the traffic counters and current free-list depth.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            returns: self.returns.load(Ordering::Relaxed),
            free: self.free.lock().expect("pool lock").len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_put_recycles_allocations() {
        let pool = BlockPool::<u64>::for_blocks(8, 16);
        let a = pool.get(16);
        let cap = a.capacity();
        assert!(cap >= 16);
        pool.put(a);
        let b = pool.get(16);
        assert_eq!(b.capacity(), cap, "second get must reuse the first buffer");
        let st = pool.stats();
        assert_eq!((st.hits, st.misses, st.returns), (1, 1, 1));
        assert!((st.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn retention_cap_bounds_idle_memory() {
        let pool = BlockPool::<u64>::for_blocks(2, 8);
        let bufs: Vec<_> = (0..4).map(|_| pool.get(8)).collect();
        for b in bufs {
            pool.put(b);
        }
        let st = pool.stats();
        assert_eq!(st.free, 2, "free list capped at max_retained");
        assert_eq!(st.returns, 4, "all returns counted, retained or not");
    }

    #[test]
    fn reserve_retained_grows_but_never_shrinks() {
        let pool = BlockPool::<u64>::for_blocks(1, 8);
        pool.reserve_retained(3);
        pool.reserve_retained(2); // no-op: cap only grows
        let bufs: Vec<_> = (0..5).map(|_| pool.get(8)).collect();
        for b in bufs {
            pool.put(b);
        }
        assert_eq!(pool.stats().free, 3, "cap grew to 3 and stayed there");
    }

    #[test]
    fn foreign_geometry_buffers_are_dropped_on_put() {
        // A pool pinned to 64-key blocks must not retain a buffer from a
        // machine with a different B: recycling it would hand an oversized
        // (or undersized) block to the next get and over-retain memory.
        let pool = BlockPool::<u64>::for_blocks(8, 64);
        let native = pool.get(64);
        assert_eq!(native.capacity(), 64);
        pool.put(native);
        assert_eq!(pool.stats().free, 1);

        let foreign = Vec::with_capacity(128);
        pool.put(foreign);
        let st = pool.stats();
        assert_eq!(st.free, 1, "mis-sized buffer must be dropped, not retained");
        assert_eq!(st.returns, 2, "drops still count as returns");

        // And the surviving buffer keeps its exact pinned capacity.
        assert_eq!(pool.get(64).capacity(), 64);
    }

    #[test]
    fn buffers_come_back_empty() {
        let pool = BlockPool::<u64>::for_blocks(4, 4);
        let mut v = pool.get(4);
        v.extend_from_slice(&[1, 2, 3]);
        pool.put(v);
        assert!(pool.get(4).is_empty());
    }
}
