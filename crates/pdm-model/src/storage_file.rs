//! Synchronous file-backed storage: the file medium
//! ([`crate::storage_async_file::FileDisks`], one host file per disk)
//! under the caller driver ([`crate::storage_worker::CallerStorage`]).
//!
//! This is `pdmsort sort`'s default backend. It demonstrates the algorithms
//! genuinely operating out-of-core: the working set on the host never
//! exceeds the machine's tracked internal memory plus the medium's staging
//! buffers. Keys are serialized with their fixed-width little-endian
//! [`PdmKey`] encoding.
//!
//! The files are the medium's, shared with
//! [`crate::storage_async_file::AsyncFileStorage`]: their opening, the
//! `meta.pdm` manifest, the checksum tables, the fault hook, the cleanup of
//! temporary directories, the crash-consistency contract described there,
//! and the [`crate::storage_async_file::FileWorker`] that moves blocks.
//! This driver runs one such worker on the caller thread, always on
//! positioned I/O and always buffered, so each batch moves straight
//! between the caller's keys and the files, with no threads and no
//! overlap.
//!
//! It is the durable half of checkpoint/resume (see [`crate::checkpoint`]):
//! [`crate::storage::Storage::sync`] makes every block written so far
//! durable, with its checksum, before the machine persists a checkpoint
//! manifest, and [`FileStorage::create_readback`] restores the allocation
//! and the checksums a synced directory records.

use crate::error::Result;
use crate::file_faults::FileFaults;
use crate::key::PdmKey;
use crate::overlap::DEFAULT_QUEUE_DEPTH;
use crate::storage_async_file::FileDisks;
use crate::storage_worker::CallerStorage;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One file per disk, blocks stored back-to-back, moved on the caller
/// thread.
pub type FileStorage<K> = CallerStorage<K, FileDisks>;

impl<K: PdmKey> FileStorage<K> {
    /// Serve an opened medium through one positioned-I/O worker.
    fn on((medium, allocated): (FileDisks, Vec<usize>)) -> Result<Self> {
        let block_size = medium.block_size;
        let worker = medium.worker(block_size * K::WIDTH, DEFAULT_QUEUE_DEPTH, false)?;
        Ok(Self::with_worker(medium, block_size, allocated, worker))
    }

    /// Create disk files `disk-0.pdm … disk-{D-1}.pdm` under `dir`
    /// (truncating existing ones).
    pub fn create(dir: impl AsRef<Path>, num_disks: usize, block_size: usize) -> Result<Self> {
        Self::on(FileDisks::open(
            dir.as_ref(),
            num_disks,
            block_size,
            K::WIDTH,
            true,
            false,
        )?)
    }

    /// Open existing disk files under `dir` (as written by
    /// [`FileStorage::create`]) without truncating — for reading data back
    /// in a later process or via a fresh handle. When the directory holds a
    /// `meta.pdm` manifest (written by `sync`), its geometry and key width
    /// are validated against the request and the exact per-disk allocation
    /// is restored from it.
    pub fn create_readback(
        dir: impl AsRef<Path>,
        num_disks: usize,
        block_size: usize,
    ) -> Result<Self> {
        Self::on(FileDisks::open(
            dir.as_ref(),
            num_disks,
            block_size,
            K::WIDTH,
            false,
            false,
        )?)
    }

    /// Create under a fresh unique directory in the OS temp dir; the files
    /// are removed when the storage is dropped.
    pub fn create_temp(num_disks: usize, block_size: usize) -> Result<Self> {
        Self::on(FileDisks::create_temp(
            num_disks,
            block_size,
            K::WIDTH,
            false,
        )?)
    }

    /// Paths of the disk files.
    pub fn paths(&self) -> &[PathBuf] {
        self.medium.paths()
    }

    /// Arm real-file fault injection: subsequent block transfers and
    /// `sync` calls consult `faults` and can surface
    /// injected EIO, short transfers, torn writes, and fsync failures.
    /// [`crate::storage_builder::StorageBuilder::inject_file`] calls this
    /// right after construction, before any I/O; a second call is ignored.
    pub fn set_file_faults(&mut self, faults: Arc<FileFaults>) {
        self.medium.set_file_faults(faults);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PdmConfig;
    use crate::error::PdmError;
    use crate::key::Tagged;
    use crate::machine::Pdm;
    use crate::storage::Storage;
    #[cfg(feature = "block-checksums")]
    use std::fs::OpenOptions;
    #[cfg(feature = "block-checksums")]
    use std::io::{Seek, SeekFrom, Write};

    fn scratch_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pdm-file-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn round_trip_tagged_records() {
        let mut s: FileStorage<Tagged> = FileStorage::create_temp(1, 2).unwrap();
        s.ensure_capacity(0, 1).unwrap();
        let blk = [Tagged::new(3, 30), Tagged::new(1, 10)];
        s.write_batch(&[(0, 0)], &blk).unwrap();
        let mut out = [Tagged::new(0, 0); 2];
        s.read_batch(&[(0, 0)], &mut out).unwrap();
        assert_eq!(out, blk);
    }

    #[test]
    fn works_as_machine_backend() {
        let cfg = PdmConfig::new(2, 8, 64);
        let storage = FileStorage::<u64>::create_temp(2, 8).unwrap();
        let mut pdm = Pdm::with_storage(cfg, storage).unwrap();
        let r = pdm.alloc_region_for_keys(48).unwrap();
        let data: Vec<u64> = (0..48).rev().collect();
        pdm.ingest(&r, &data).unwrap();
        let mut out = Vec::new();
        pdm.read_region(&r, &mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(pdm.stats().blocks_read, 6);
        pdm.sync().unwrap();
    }

    #[test]
    fn temp_files_are_removed_on_drop() {
        let paths;
        {
            let s: FileStorage<u64> = FileStorage::create_temp(2, 4).unwrap();
            paths = s.paths().to_vec();
            assert!(paths.iter().all(|p| p.exists()));
        }
        assert!(paths.iter().all(|p| !p.exists()));
    }

    #[test]
    fn sync_persists_geometry_manifest_for_readback() {
        let dir = scratch_dir("meta");
        {
            let mut s: FileStorage<u64> = FileStorage::create(&dir, 2, 4).unwrap();
            s.ensure_capacity(0, 3).unwrap();
            s.ensure_capacity(1, 2).unwrap();
            s.write_batch(&[(0, 2)], &[5, 5, 5, 5]).unwrap();
            s.sync().unwrap();
        }
        assert!(dir.join("meta.pdm").is_file());
        assert!(!dir.join("meta.pdm.tmp").exists(), "temp file renamed away");
        // Exact allocation is restored from the manifest.
        let mut s: FileStorage<u64> = FileStorage::create_readback(&dir, 2, 4).unwrap();
        let mut out = [0u64; 4];
        s.read_batch(&[(0, 2)], &mut out).unwrap();
        assert_eq!(out, [5, 5, 5, 5]);
        assert!(
            matches!(
                s.read_batch(&[(0, 3)], &mut out),
                Err(PdmError::BadSlot { .. })
            ),
            "allocation boundary survives reopen"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn readback_refuses_mismatched_geometry() {
        let dir = scratch_dir("meta-mismatch");
        {
            let mut s: FileStorage<u64> = FileStorage::create(&dir, 2, 4).unwrap();
            s.ensure_capacity(0, 1).unwrap();
            s.sync().unwrap();
        }
        let wrong_block = FileStorage::<u64>::create_readback(&dir, 2, 8);
        assert!(matches!(wrong_block, Err(PdmError::BadConfig(_))));
        let wrong_disks = FileStorage::<u64>::create_readback(&dir, 4, 4);
        assert!(matches!(wrong_disks, Err(PdmError::BadConfig(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn readback_without_manifest_derives_allocation_from_lengths() {
        let dir = scratch_dir("no-meta");
        {
            let mut s: FileStorage<u64> = FileStorage::create(&dir, 1, 4).unwrap();
            s.ensure_capacity(0, 2).unwrap();
            s.write_batch(&[(0, 1)], &[1, 2, 3, 4]).unwrap();
            // No sync: no meta.pdm is ever written.
        }
        assert!(!dir.join("meta.pdm").exists());
        let mut s: FileStorage<u64> = FileStorage::create_readback(&dir, 1, 4).unwrap();
        let mut out = [0u64; 4];
        s.read_batch(&[(0, 1)], &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(feature = "block-checksums")]
    #[test]
    fn bit_rot_is_detected_and_rewrites_heal() {
        let mut s: FileStorage<u64> = FileStorage::create_temp(1, 4).unwrap();
        s.ensure_capacity(0, 2).unwrap();
        s.write_batch(&[(0, 0)], &[1, 2, 3, 4]).unwrap();
        s.write_batch(&[(0, 1)], &[5, 6, 7, 8]).unwrap();
        s.sync().unwrap();
        // Flip a byte of slot 1 behind the backend's back.
        {
            let mut f = OpenOptions::new().write(true).open(&s.paths()[0]).unwrap();
            f.seek(SeekFrom::Start(4 * 8 + 3)).unwrap();
            f.write_all(&[0xFF]).unwrap();
        }
        let mut out = [0u64; 4];
        s.read_batch(&[(0, 0)], &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4], "untouched block still verifies");
        let err = s.read_batch(&[(0, 1)], &mut out).unwrap_err();
        assert!(
            matches!(
                err,
                PdmError::Corrupt {
                    disk: 0,
                    slot: 1,
                    ..
                }
            ),
            "got: {err}"
        );
        assert!(!err.is_transient(), "corruption must not be retried");
        // Rewriting the block refreshes the checksum.
        s.write_batch(&[(0, 1)], &[5, 6, 7, 8]).unwrap();
        s.read_batch(&[(0, 1)], &mut out).unwrap();
        assert_eq!(out, [5, 6, 7, 8]);
    }

    #[cfg(feature = "block-checksums")]
    #[test]
    fn never_written_slots_are_unchecked_not_corrupt() {
        let mut s: FileStorage<u64> = FileStorage::create_temp(1, 4).unwrap();
        s.ensure_capacity(0, 2).unwrap();
        let mut out = [0u64; 4];
        // Slot 0 was allocated (zero-filled) but never written: readable,
        // sidecar entry is the zero sentinel.
        s.read_batch(&[(0, 0)], &mut out).unwrap();
        assert_eq!(out, [0, 0, 0, 0]);
    }

    #[test]
    fn injected_eio_fires_once_then_heals() {
        use crate::file_faults::{FileFaultMode, FileFaults};
        let mut s: FileStorage<u64> = FileStorage::create_temp(1, 4).unwrap();
        s.ensure_capacity(0, 1).unwrap();
        s.write_batch(&[(0, 0)], &[1, 2, 3, 4]).unwrap();
        let faults = Arc::new(FileFaults::new(FileFaultMode::Eio(1)));
        s.set_file_faults(Arc::clone(&faults));
        let mut out = [0u64; 4];
        s.read_batch(&[(0, 0)], &mut out).unwrap();
        let err = s.read_batch(&[(0, 0)], &mut out).unwrap_err();
        assert!(!err.is_transient(), "EIO is permanent: {err}");
        assert_eq!(faults.injected(), 1);
        // The op index advanced past the scheduled fault: retries succeed.
        s.read_batch(&[(0, 0)], &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4]);
    }

    #[test]
    fn injected_short_write_is_transient() {
        use crate::file_faults::{FileFaultMode, FileFaults};
        let mut s: FileStorage<u64> = FileStorage::create_temp(1, 4).unwrap();
        s.ensure_capacity(0, 1).unwrap();
        // rate_ppm = 1_000_000: every draw injects a short transfer.
        s.set_file_faults(Arc::new(FileFaults::new(FileFaultMode::ShortRate {
            seed: 1,
            rate_ppm: 1_000_000,
        })));
        let err = s.write_batch(&[(0, 0)], &[1, 2, 3, 4]).unwrap_err();
        assert!(err.is_transient(), "short transfers retry: {err}");
    }

    #[test]
    fn injected_fsync_failure_surfaces_and_heals() {
        use crate::file_faults::{FileFaultMode, FileFaults};
        let mut s: FileStorage<u64> = FileStorage::create_temp(1, 4).unwrap();
        s.ensure_capacity(0, 1).unwrap();
        s.set_file_faults(Arc::new(FileFaults::new(FileFaultMode::FsyncFail(0))));
        let err = s.sync().unwrap_err();
        assert!(err.is_transient(), "injected fsync failure: {err}");
        s.sync().unwrap();
    }

    #[cfg(feature = "block-checksums")]
    #[test]
    fn torn_write_reports_success_but_read_detects_corruption() {
        use crate::file_faults::{FileFaultMode, FileFaults};
        let mut s: FileStorage<u64> = FileStorage::create_temp(1, 4).unwrap();
        s.ensure_capacity(0, 1).unwrap();
        s.write_batch(&[(0, 0)], &[1, 2, 3, 4]).unwrap();
        s.set_file_faults(Arc::new(FileFaults::new(FileFaultMode::TornWrite(0))));
        // The torn write itself reports success — that is the failure model.
        s.write_batch(&[(0, 0)], &[9, 9, 9, 9]).unwrap();
        let mut out = [0u64; 4];
        let err = s.read_batch(&[(0, 0)], &mut out).unwrap_err();
        assert!(
            matches!(
                err,
                PdmError::Corrupt {
                    disk: 0,
                    slot: 0,
                    ..
                }
            ),
            "got: {err}"
        );
        // Rewriting (no fault scheduled at this index) heals the slot.
        s.write_batch(&[(0, 0)], &[9, 9, 9, 9]).unwrap();
        s.read_batch(&[(0, 0)], &mut out).unwrap();
        assert_eq!(out, [9, 9, 9, 9]);
    }
}
