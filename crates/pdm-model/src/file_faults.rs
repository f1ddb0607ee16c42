//! Deterministic fault injection at the *physical file* layer.
//!
//! [`crate::storage_flaky::FlakyStorage`] injects faults at the logical
//! block-operation layer, above any backend — good for exercising retry and
//! checkpoint logic, but blind to the failure modes only real files have:
//! a write that tears halfway through a block when power is lost, an fsync
//! the kernel refuses, a short `read(2)`. [`FileFaults`] models those at the
//! point where the file medium
//! ([`crate::storage_async_file::FileDisks`], under both
//! [`crate::storage_file::FileStorage`] and
//! [`crate::storage_async_file::AsyncFileStorage`]) actually touches the
//! file:
//!
//! * **short transfer** — a pseudo-random fraction of block transfers fails
//!   with [`std::io::ErrorKind::Interrupted`] *before* touching the file.
//!   Transient: a retry draws a fresh schedule index and (almost always)
//!   heals, exactly like `FlakyStorage::TransientRate`.
//! * **EIO** — the nth block transfer fails permanently with raw OS error 5.
//! * **torn write** — the nth block *write* persists only the first half of
//!   the block and reports success, simulating a crash mid-write. With the
//!   `block-checksums` feature on, the checksum table still records the sum
//!   of the *intended* bytes, so the next read of that slot surfaces
//!   [`crate::PdmError::Corrupt`]; without checksums this is silent
//!   corruption, which is precisely the failure the feature exists to catch.
//! * **fsync failure** — the nth per-disk fsync fails with a transient
//!   error, healed by the retry layer's reissue of `sync`.
//!
//! The schedule is a pure function of the shared operation counter: the
//! *set* of operation indices that fault is fixed by the mode (and seed).
//! Both file backends draw in the order of the medium's
//! [`crate::storage_async_file::FileWorker`]: a batch's kernel rounds in
//! order, a round's disks in disk order with every block of the round
//! drawn, and one fsync verdict per disk at a sync, so a `sync` over `D`
//! disks draws `D` verdicts. `FileStorage` runs that worker on the caller
//! thread, so the mapping from logical operation to index is fully
//! deterministic. Under `AsyncFileStorage` the read worker and the write
//! worker share the counter, and while overlap keeps both busy their draws
//! interleave, so which transfer lands on a faulting index depends on
//! thread timing — the fault *count* for nth-op modes is still exactly
//! one, and rate modes still converge to the configured rate.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::rng::splitmix64;

/// Which physical-file fault to inject, and when. Counters are 0-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileFaultMode {
    /// Fail `rate_ppm` parts-per-million of block transfers (reads and
    /// writes combined) with a transient short-transfer error. The draw for
    /// operation `i` is `splitmix64(seed ^ i) % 1_000_000 < rate_ppm`, so a
    /// reissued operation draws a fresh index and heals.
    ShortRate {
        /// Seed mixed into every draw.
        seed: u64,
        /// Failure rate in parts per million.
        rate_ppm: u32,
    },
    /// The `n`th block transfer (reads and writes combined) fails
    /// permanently with EIO (raw OS error 5).
    Eio(u64),
    /// The `n`th block *write* persists only the first half of the block
    /// and reports success — a torn write across a simulated crash.
    TornWrite(u64),
    /// The `n`th per-disk fsync fails with a transient error.
    FsyncFail(u64),
    /// Inject nothing (useful to keep the shim in place with faults off).
    Never,
}

/// Verdict for one physical block transfer, drawn from the shared schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BlockFault {
    /// Perform the transfer normally.
    None,
    /// Fail with a transient short-transfer error; nothing touches the file.
    ShortTransfer,
    /// Fail permanently with EIO; nothing touches the file.
    Eio,
    /// Writes only: persist the first half of the block, report success.
    Torn,
}

/// Shared, seeded fault schedule consulted by file-backed storage at every
/// physical block transfer and fsync. One instance is shared (via `Arc`)
/// between a backend handle and its worker threads.
#[derive(Debug)]
pub struct FileFaults {
    mode: FileFaultMode,
    /// Block transfers drawn so far (reads + writes).
    ops: AtomicU64,
    /// Block writes drawn so far (torn-write schedule).
    writes: AtomicU64,
    /// Fsyncs drawn so far.
    syncs: AtomicU64,
    /// Faults actually injected.
    injected: AtomicU64,
}

impl FileFaults {
    /// New schedule in the given mode; counters start at zero.
    pub fn new(mode: FileFaultMode) -> Self {
        Self {
            mode,
            ops: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// Number of faults injected so far (all kinds).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// The configured mode.
    pub fn mode(&self) -> FileFaultMode {
        self.mode
    }

    /// Draw the verdict for the next physical block transfer. Advances the
    /// operation counter (and the write counter when `write`), so every
    /// attempt — including a retry of a failed one — consumes an index.
    pub(crate) fn block_fault(&self, write: bool) -> BlockFault {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        let wr = if write {
            self.writes.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        let verdict = match self.mode {
            FileFaultMode::ShortRate { seed, rate_ppm } => {
                if splitmix64(seed ^ op) % 1_000_000 < u64::from(rate_ppm) {
                    BlockFault::ShortTransfer
                } else {
                    BlockFault::None
                }
            }
            FileFaultMode::Eio(n) if op == n => BlockFault::Eio,
            FileFaultMode::TornWrite(n) if write && wr == n => BlockFault::Torn,
            _ => BlockFault::None,
        };
        if verdict != BlockFault::None {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        verdict
    }

    /// Draw the verdict for the next fsync: `Err` if it should fail.
    /// Advances the sync counter, so a retried sync draws afresh.
    pub(crate) fn sync_fault(&self) -> std::io::Result<()> {
        let s = self.syncs.fetch_add(1, Ordering::Relaxed);
        if matches!(self.mode, FileFaultMode::FsyncFail(n) if s == n) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Err(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "injected fsync failure",
            ));
        }
        Ok(())
    }

    /// The transient error a [`BlockFault::ShortTransfer`] verdict turns into.
    pub(crate) fn short_transfer_error(write: bool) -> std::io::Error {
        std::io::Error::new(
            std::io::ErrorKind::Interrupted,
            if write {
                "injected short write"
            } else {
                "injected short read"
            },
        )
    }

    /// The permanent error a [`BlockFault::Eio`] verdict turns into.
    pub(crate) fn eio_error() -> std::io::Error {
        std::io::Error::from_raw_os_error(5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_mode_injects_nothing() {
        let f = FileFaults::new(FileFaultMode::Never);
        for i in 0..100 {
            assert_eq!(f.block_fault(i % 2 == 0), BlockFault::None);
        }
        assert!(f.sync_fault().is_ok());
        assert_eq!(f.injected(), 0);
    }

    #[test]
    fn eio_fires_exactly_once_on_the_nth_op() {
        let f = FileFaults::new(FileFaultMode::Eio(3));
        let verdicts: Vec<_> = (0..8).map(|_| f.block_fault(false)).collect();
        assert_eq!(
            verdicts.iter().filter(|v| **v == BlockFault::Eio).count(),
            1
        );
        assert_eq!(verdicts[3], BlockFault::Eio);
        assert_eq!(f.injected(), 1);
        let e = FileFaults::eio_error();
        assert_eq!(e.raw_os_error(), Some(5));
    }

    #[test]
    fn torn_write_counts_writes_only() {
        let f = FileFaults::new(FileFaultMode::TornWrite(1));
        assert_eq!(f.block_fault(false), BlockFault::None); // read
        assert_eq!(f.block_fault(true), BlockFault::None); // write 0
        assert_eq!(f.block_fault(false), BlockFault::None); // read
        assert_eq!(f.block_fault(true), BlockFault::Torn); // write 1
        assert_eq!(f.block_fault(true), BlockFault::None); // write 2
        assert_eq!(f.injected(), 1);
    }

    #[test]
    fn short_rate_is_deterministic_and_roughly_calibrated() {
        let a = FileFaults::new(FileFaultMode::ShortRate {
            seed: 42,
            rate_ppm: 100_000,
        });
        let b = FileFaults::new(FileFaultMode::ShortRate {
            seed: 42,
            rate_ppm: 100_000,
        });
        let va: Vec<_> = (0..10_000).map(|_| a.block_fault(false)).collect();
        let vb: Vec<_> = (0..10_000).map(|_| b.block_fault(false)).collect();
        assert_eq!(va, vb, "same seed, same schedule");
        let faults = va
            .iter()
            .filter(|v| **v == BlockFault::ShortTransfer)
            .count();
        // 10% +- generous slack over 10k draws.
        assert!((500..2000).contains(&faults), "got {faults} faults");
        assert!(FileFaults::short_transfer_error(false).kind() == std::io::ErrorKind::Interrupted);
    }

    #[test]
    fn fsync_fault_fires_on_the_nth_sync_and_is_transient() {
        let f = FileFaults::new(FileFaultMode::FsyncFail(1));
        assert!(f.sync_fault().is_ok());
        let e = f.sync_fault().unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::Interrupted);
        assert!(f.sync_fault().is_ok(), "retried sync heals");
        assert_eq!(f.injected(), 1);
    }
}
