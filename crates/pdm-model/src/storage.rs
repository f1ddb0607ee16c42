//! Storage backends: where simulated disk blocks actually live.
//!
//! The trait is deliberately synchronous and block-granular — all policy
//! (batching, step accounting, memory enforcement) lives in the machine
//! layer. Backends only move bytes.

use crate::error::{PdmError, Result};
use crate::key::PdmKey;

/// What a storage backend can actually do, beyond moving blocks.
///
/// A single boolean (`supports_overlap`) could not describe the real-disk
/// backends: a backend may use direct I/O on some mounts but not others,
/// or verify checksums only when the feature is compiled in. Capabilities
/// are *runtime* facts — e.g. [`StorageCaps::direct_io`] reflects whether
/// `O_DIRECT` actually opened, not whether it was requested — so callers
/// can branch on what the stack in front of them really provides. Whether
/// a backend recycles block buffers is [`Storage::pool_stats`] being
/// `Some`.
///
/// Wrapper backends (fault injection, retry) report their inner backend's
/// capabilities unchanged: they forward `start_*_batch` after applying
/// their per-block policy at issue time, so `overlap` survives the full
/// assembled stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StorageCaps {
    /// `start_read_batch` / `start_write_batch` return genuinely
    /// asynchronous tokens — I/O proceeds while the caller computes, with
    /// reads and writes on independent (duplex) queues.
    pub overlap: bool,
    /// Block transfers bypass the page cache (`O_DIRECT` open succeeded on
    /// every disk file).
    pub direct_io: bool,
    /// Blocks carry persisted checksums verified on read-back.
    pub checksums: bool,
}

/// A physical store of `D` disks, each an array of block slots of `B` keys.
pub trait Storage<K: PdmKey>: Send {
    /// Number of disks.
    fn num_disks(&self) -> usize;

    /// Block size in keys.
    fn block_size(&self) -> usize;

    /// Grow disk `disk` to at least `slots` block slots (zero/`MAX`-filled).
    fn ensure_capacity(&mut self, disk: usize, slots: usize) -> Result<()>;

    /// Read block `(disk, slot)` into `out` (`out.len() == B`).
    fn read_block(&mut self, disk: usize, slot: usize, out: &mut [K]) -> Result<()>;

    /// Write `data` (`data.len() == B`) to block `(disk, slot)`.
    fn write_block(&mut self, disk: usize, slot: usize, data: &[K]) -> Result<()>;

    /// Read a batch of blocks; `reqs[i]` is `(disk, slot)` and fills
    /// `out[i*B..(i+1)*B]`. Backends with real per-disk parallelism override
    /// this to service different disks concurrently.
    fn read_batch(&mut self, reqs: &[(usize, usize)], out: &mut [K]) -> Result<()> {
        let b = self.block_size();
        debug_assert_eq!(out.len(), reqs.len() * b);
        for (i, &(disk, slot)) in reqs.iter().enumerate() {
            self.read_block(disk, slot, &mut out[i * b..(i + 1) * b])?;
        }
        Ok(())
    }

    /// Write a batch of blocks; `reqs[i]` is `(disk, slot)` taking
    /// `data[i*B..(i+1)*B]`.
    fn write_batch(&mut self, reqs: &[(usize, usize)], data: &[K]) -> Result<()> {
        let b = self.block_size();
        debug_assert_eq!(data.len(), reqs.len() * b);
        for (i, &(disk, slot)) in reqs.iter().enumerate() {
            self.write_block(disk, slot, &data[i * b..(i + 1) * b])?;
        }
        Ok(())
    }

    /// Flush any buffered state to the underlying medium.
    fn sync(&mut self) -> Result<()> {
        Ok(())
    }

    /// Block-buffer pool counters, for backends that recycle block buffers
    /// (the worker-engine backends: threaded and async-file). `None` means
    /// the backend has no pool — not that the pool is idle.
    fn pool_stats(&self) -> Option<crate::pool::PoolStats> {
        None
    }

    /// What this backend can do (see [`StorageCaps`]).
    ///
    /// The all-false default means [`Storage::start_read_batch`] /
    /// [`Storage::start_write_batch`] fall back to the eager (blocking)
    /// paths — correct but with no latency hiding. The threaded and
    /// async-file backends override this; wrapper layers (fault injection,
    /// retry) forward their inner backend's caps unchanged — they apply
    /// their per-block policies inside forwarded `start_*_batch` calls
    /// (and, on the async-file backend, again at completion time).
    fn caps(&self) -> StorageCaps {
        StorageCaps::default()
    }

    /// Cumulative wall-clock telemetry recorded by this backend's workers
    /// (per-disk latency histograms, queue high-water marks, uring
    /// counters), or `None` for backends that do not time their I/O. The
    /// machine harvests this into [`crate::stats::WallStats`] at phase
    /// boundaries and sync points. Purely observational: nothing in the
    /// step accounting depends on it.
    fn wall_snapshot(&self) -> Option<crate::stats::StorageWallSnapshot> {
        None
    }

    /// Attach a shared span sink; backends that time their I/O record one
    /// span per service operation into it (for Chrome trace export).
    /// Default: ignored. Attach before issuing I/O that should be traced —
    /// spans are timestamped against the sink's epoch.
    fn attach_span_sink(&mut self, _sink: std::sync::Arc<crate::stats::SpanSink>) {}

    /// Begin an asynchronous batch read; the returned token is redeemed
    /// with [`crate::overlap::PendingRead::wait`]. The default performs the
    /// read eagerly via [`Storage::read_batch`]. Wrapper backends (retry,
    /// fault injection) override this to apply their per-operation policy
    /// at issue time and then *forward* to the inner backend, so overlap
    /// survives the wrappers; failures that only materialise at `wait`
    /// time are healed by the async-file backend's completion-time retry.
    fn start_read_batch(
        &mut self,
        reqs: &[(usize, usize)],
    ) -> Result<Box<dyn crate::overlap::PendingRead<K> + Send>> {
        let b = self.block_size();
        let mut data = vec![K::MAX; reqs.len() * b];
        self.read_batch(reqs, &mut data)?;
        Ok(Box::new(crate::overlap::EagerPending::new(data)))
    }

    /// Begin an asynchronous batch write of `data` (`reqs.len() * B` keys).
    ///
    /// Contract: the borrow of `data` ends when this returns, so every
    /// implementation must have copied (or written) the payload by then —
    /// the caller's buffer is immediately reusable. The default writes
    /// eagerly via [`Storage::write_batch`].
    fn start_write_batch(
        &mut self,
        reqs: &[(usize, usize)],
        data: &[K],
    ) -> Result<Box<dyn crate::overlap::PendingWrite + Send>> {
        self.write_batch(reqs, data)?;
        Ok(Box::new(crate::overlap::EagerWriteDone))
    }
}

/// Boxed backends delegate, so a machine can be built over
/// `Box<dyn Storage<K>>` when the backend stack is chosen at runtime
/// (e.g. the CLI layering retry and fault injection over a file store).
impl<K: PdmKey, S: Storage<K> + ?Sized> Storage<K> for Box<S> {
    fn num_disks(&self) -> usize {
        (**self).num_disks()
    }

    fn block_size(&self) -> usize {
        (**self).block_size()
    }

    fn ensure_capacity(&mut self, disk: usize, slots: usize) -> Result<()> {
        (**self).ensure_capacity(disk, slots)
    }

    fn read_block(&mut self, disk: usize, slot: usize, out: &mut [K]) -> Result<()> {
        (**self).read_block(disk, slot, out)
    }

    fn write_block(&mut self, disk: usize, slot: usize, data: &[K]) -> Result<()> {
        (**self).write_block(disk, slot, data)
    }

    fn read_batch(&mut self, reqs: &[(usize, usize)], out: &mut [K]) -> Result<()> {
        (**self).read_batch(reqs, out)
    }

    fn write_batch(&mut self, reqs: &[(usize, usize)], data: &[K]) -> Result<()> {
        (**self).write_batch(reqs, data)
    }

    fn sync(&mut self) -> Result<()> {
        (**self).sync()
    }

    fn pool_stats(&self) -> Option<crate::pool::PoolStats> {
        (**self).pool_stats()
    }

    fn caps(&self) -> StorageCaps {
        (**self).caps()
    }

    fn wall_snapshot(&self) -> Option<crate::stats::StorageWallSnapshot> {
        (**self).wall_snapshot()
    }

    fn attach_span_sink(&mut self, sink: std::sync::Arc<crate::stats::SpanSink>) {
        (**self).attach_span_sink(sink)
    }

    fn start_read_batch(
        &mut self,
        reqs: &[(usize, usize)],
    ) -> Result<Box<dyn crate::overlap::PendingRead<K> + Send>> {
        (**self).start_read_batch(reqs)
    }

    fn start_write_batch(
        &mut self,
        reqs: &[(usize, usize)],
        data: &[K],
    ) -> Result<Box<dyn crate::overlap::PendingWrite + Send>> {
        (**self).start_write_batch(reqs, data)
    }
}

/// In-memory backend: each disk is a flat `Vec<K>` of block slots.
///
/// This is the default backend for experiments — it is exact with respect to
/// the PDM *cost model* (the machine layer counts steps identically for all
/// backends) while being fast enough for large parameter sweeps.
#[derive(Debug)]
pub struct MemStorage<K: PdmKey> {
    disks: Vec<Vec<K>>,
    block_size: usize,
}

impl<K: PdmKey> MemStorage<K> {
    /// An empty store of `num_disks` disks with block size `block_size`.
    pub fn new(num_disks: usize, block_size: usize) -> Self {
        Self {
            disks: vec![Vec::new(); num_disks],
            block_size,
        }
    }

    fn check_disk(&self, disk: usize) -> Result<()> {
        if disk >= self.disks.len() {
            return Err(PdmError::BadDisk {
                disk,
                num_disks: self.disks.len(),
            });
        }
        Ok(())
    }

    fn check_slot(&self, disk: usize, slot: usize) -> Result<()> {
        let allocated = self.disks[disk].len() / self.block_size;
        if slot >= allocated {
            return Err(PdmError::BadSlot {
                disk,
                slot,
                allocated,
            });
        }
        Ok(())
    }
}

impl<K: PdmKey> Storage<K> for MemStorage<K> {
    fn num_disks(&self) -> usize {
        self.disks.len()
    }

    fn block_size(&self) -> usize {
        self.block_size
    }

    fn ensure_capacity(&mut self, disk: usize, slots: usize) -> Result<()> {
        self.check_disk(disk)?;
        let want = slots * self.block_size;
        if self.disks[disk].len() < want {
            self.disks[disk].resize(want, K::MAX);
        }
        Ok(())
    }

    fn read_block(&mut self, disk: usize, slot: usize, out: &mut [K]) -> Result<()> {
        self.check_disk(disk)?;
        self.check_slot(disk, slot)?;
        if out.len() != self.block_size {
            return Err(PdmError::BadBlockLen {
                got: out.len(),
                expected: self.block_size,
            });
        }
        let off = slot * self.block_size;
        out.copy_from_slice(&self.disks[disk][off..off + self.block_size]);
        Ok(())
    }

    fn write_block(&mut self, disk: usize, slot: usize, data: &[K]) -> Result<()> {
        self.check_disk(disk)?;
        self.check_slot(disk, slot)?;
        if data.len() != self.block_size {
            return Err(PdmError::BadBlockLen {
                got: data.len(),
                expected: self.block_size,
            });
        }
        let off = slot * self.block_size;
        self.disks[disk][off..off + self.block_size].copy_from_slice(data);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_block() {
        let mut s: MemStorage<u64> = MemStorage::new(2, 4);
        s.ensure_capacity(1, 3).unwrap();
        s.write_block(1, 2, &[5, 6, 7, 8]).unwrap();
        let mut out = [0u64; 4];
        s.read_block(1, 2, &mut out).unwrap();
        assert_eq!(out, [5, 6, 7, 8]);
    }

    #[test]
    fn fresh_blocks_read_as_max_padding() {
        let mut s: MemStorage<u32> = MemStorage::new(1, 2);
        s.ensure_capacity(0, 1).unwrap();
        let mut out = [0u32; 2];
        s.read_block(0, 0, &mut out).unwrap();
        assert_eq!(out, [u32::MAX, u32::MAX]);
    }

    #[test]
    fn bad_addresses_are_rejected() {
        let mut s: MemStorage<u64> = MemStorage::new(2, 4);
        s.ensure_capacity(0, 1).unwrap();
        let mut out = [0u64; 4];
        assert!(matches!(
            s.read_block(5, 0, &mut out),
            Err(PdmError::BadDisk { .. })
        ));
        assert!(matches!(
            s.read_block(0, 9, &mut out),
            Err(PdmError::BadSlot { .. })
        ));
        let mut small = [0u64; 3];
        assert!(matches!(
            s.read_block(0, 0, &mut small),
            Err(PdmError::BadBlockLen { .. })
        ));
        assert!(matches!(
            s.write_block(0, 0, &[1, 2, 3]),
            Err(PdmError::BadBlockLen { .. })
        ));
    }

    #[test]
    fn batch_default_impl_round_trips() {
        let mut s: MemStorage<u64> = MemStorage::new(3, 2);
        for d in 0..3 {
            s.ensure_capacity(d, 2).unwrap();
        }
        let reqs = [(0, 0), (1, 0), (2, 1)];
        let data = [10u64, 11, 20, 21, 30, 31];
        s.write_batch(&reqs, &data).unwrap();
        let mut out = [0u64; 6];
        s.read_batch(&reqs, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn ensure_capacity_is_monotone() {
        let mut s: MemStorage<u64> = MemStorage::new(1, 4);
        s.ensure_capacity(0, 2).unwrap();
        s.write_block(0, 1, &[1, 2, 3, 4]).unwrap();
        // shrinking request must not lose data
        s.ensure_capacity(0, 1).unwrap();
        let mut out = [0u64; 4];
        s.read_block(0, 1, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4]);
    }
}
