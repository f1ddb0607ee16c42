//! Block-buffer pool counters.
//!
//! No backend recycles block buffers: a batch moves in one key buffer,
//! the caller's own on the caller driver and one per message on the
//! worker driver, so there is no pool and [`crate::storage::Storage::pool_stats`]
//! answers `None` everywhere. [`PoolStats`] stays for callers that still
//! report a pool.

/// Occupancy and traffic counters of a block-buffer pool.
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
