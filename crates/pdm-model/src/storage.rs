//! Storage backends: where simulated disk blocks actually live.
//!
//! The trait moves batches only: a batch is a list of `(disk, slot)`
//! addresses with `B` keys each, read or written in one blocking call
//! ([`Storage::read_batch`] / [`Storage::write_batch`]) or issued as one
//! overlapped submission ([`Storage::start_read_batch`] /
//! [`Storage::start_write_batch`]). All policy (step accounting, memory
//! enforcement) lives in the machine layer; backends only move bytes. The
//! four base backends are two media (RAM, one file per disk) under two
//! drivers (the caller thread, or a read and a write worker thread), all
//! written once in [`crate::storage_worker`]; the fault and retry wrappers
//! apply their per-block policy by forwarding one-block batches.

use crate::error::{PdmError, Result};
use crate::key::PdmKey;
use crate::storage_threaded::RamDisks;
use crate::storage_worker::CallerStorage;
use std::time::Duration;

/// What a storage backend can actually do, beyond moving blocks.
///
/// A single boolean (`supports_overlap`) could not describe the real-disk
/// backends: a backend may use direct I/O on some mounts but not others,
/// or verify checksums only when the feature is compiled in. Capabilities
/// are *runtime* facts — e.g. [`StorageCaps::direct_io`] reflects whether
/// `O_DIRECT` actually opened, not whether it was requested — so callers
/// can branch on what the stack in front of them really provides.
/// `overlap` is the driver's: true exactly on the worker driver.
/// `direct_io` and `checksums` are the medium's.
///
/// Wrapper backends (fault injection, retry) report their inner backend's
/// capabilities unchanged: they forward `start_*_batch` after applying
/// their per-block policy at issue time, so `overlap` survives the full
/// assembled stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StorageCaps {
    /// `start_read_batch` / `start_write_batch` return genuinely
    /// asynchronous tokens — I/O proceeds while the caller computes, with
    /// reads and writes on independent (duplex) queues (the worker
    /// driver).
    pub overlap: bool,
    /// Block transfers bypass the page cache (`O_DIRECT` open succeeded on
    /// every disk file).
    pub direct_io: bool,
    /// Blocks carry persisted checksums verified on read-back.
    pub checksums: bool,
}

/// `keys` must be exactly `blocks` whole blocks of `block_size` keys.
pub(crate) fn check_batch_len(blocks: usize, block_size: usize, keys: usize) -> Result<()> {
    let expected = blocks * block_size;
    if keys != expected {
        return Err(PdmError::BadBlockLen {
            got: keys,
            expected,
        });
    }
    Ok(())
}

/// A physical store of `D` disks, each an array of block slots of `B` keys.
pub trait Storage<K: PdmKey>: Send {
    /// Number of disks.
    fn num_disks(&self) -> usize;

    /// Block size in keys.
    fn block_size(&self) -> usize;

    /// Grow disk `disk` to at least `slots` block slots (zero/`MAX`-filled).
    fn ensure_capacity(&mut self, disk: usize, slots: usize) -> Result<()>;

    /// Read a batch of blocks; `reqs[i]` is `(disk, slot)` and fills
    /// `out[i*B..(i+1)*B]` (`out.len() == reqs.len() × B`). A failed block
    /// fails the call; the batch's other blocks may already have been
    /// read.
    fn read_batch(&mut self, reqs: &[(usize, usize)], out: &mut [K]) -> Result<()>;

    /// Write a batch of blocks; `reqs[i]` is `(disk, slot)` taking
    /// `data[i*B..(i+1)*B]` (`data.len() == reqs.len() × B`). A failed
    /// block fails the call; the batch's other blocks may already be
    /// written.
    fn write_batch(&mut self, reqs: &[(usize, usize)], data: &[K]) -> Result<()>;

    /// Flush any buffered state to the underlying medium.
    fn sync(&mut self) -> Result<()> {
        Ok(())
    }

    /// Block-buffer pool counters: `None` on every backend, since blocks
    /// move through one key buffer per batch and nothing recycles block
    /// buffers. The method stays for callers that still report a pool.
    fn pool_stats(&self) -> Option<crate::pool::PoolStats> {
        None
    }

    /// What this backend can do (see [`StorageCaps`]).
    ///
    /// Without `overlap`, [`Storage::start_read_batch`] /
    /// [`Storage::start_write_batch`] fall back to the eager (blocking)
    /// paths — correct but with no latency hiding. Wrapper layers (fault
    /// injection, retry) forward their inner backend's caps unchanged —
    /// they apply their per-block policies inside forwarded
    /// `start_*_batch` calls (and, on the async-file backend, again at
    /// completion time).
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

    fn read_batch(&mut self, reqs: &[(usize, usize)], out: &mut [K]) -> Result<()> {
        (**self).read_batch(reqs, out)
    }

    fn write_batch(&mut self, reqs: &[(usize, usize)], data: &[K]) -> Result<()> {
        (**self).write_batch(reqs, data)
    }

    fn sync(&mut self) -> Result<()> {
        (**self).sync()
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

/// In-memory backend: the RAM medium
/// ([`crate::storage_threaded::RamDisks`], one flat `Vec<K>` of block slots
/// per disk) driven on the caller thread.
///
/// This is the default backend for experiments — it is exact with respect to
/// the PDM *cost model* (the machine layer counts steps identically for all
/// backends) while being fast enough for large parameter sweeps.
pub type MemStorage<K> = CallerStorage<K, RamDisks<K>>;

impl<K: PdmKey> MemStorage<K> {
    /// An empty store of `num_disks` disks with block size `block_size`.
    pub fn new(num_disks: usize, block_size: usize) -> Self {
        let medium = RamDisks::new(num_disks, block_size, Duration::ZERO);
        let worker = medium.worker();
        Self::with_worker(medium, block_size, vec![0; num_disks], worker)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_blocks_read_as_max_padding() {
        let mut s: MemStorage<u32> = MemStorage::new(1, 2);
        s.ensure_capacity(0, 1).unwrap();
        let mut out = [0u32; 2];
        s.read_batch(&[(0, 0)], &mut out).unwrap();
        assert_eq!(out, [u32::MAX, u32::MAX]);
    }

    #[test]
    fn ensure_capacity_is_monotone() {
        let mut s: MemStorage<u64> = MemStorage::new(1, 4);
        s.ensure_capacity(0, 2).unwrap();
        s.write_batch(&[(0, 1)], &[1, 2, 3, 4]).unwrap();
        // shrinking request must not lose data
        s.ensure_capacity(0, 1).unwrap();
        let mut out = [0u64; 4];
        s.read_batch(&[(0, 1)], &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4]);
    }
}
