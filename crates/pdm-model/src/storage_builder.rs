//! Shared backend assembly: one place that knows how to stack a storage
//! from a base backend plus the optional wrapper layers.
//!
//! The CLI, the bench harness, and the fault-matrix tests all need the
//! same ladder — base backend (mem / file / threaded / async-file), then
//! fault injection, then transient-fault retry, each layer optional and
//! erased to `Box<dyn Storage>` — and each used to hand-roll its own copy.
//! [`StorageBuilder`] is that ladder, written once:
//!
//! ```
//! use pdm_model::prelude::*;
//!
//! let built = StorageBuilder::new(BackendKind::Mem, 2, 8)
//!     .inject(FailMode::EveryNth(64))
//!     .retry(RetryPolicy::default())
//!     .build::<u64>()
//!     .unwrap();
//! let mut pdm = Pdm::with_storage(PdmConfig::square(2, 8), built.storage).unwrap();
//! pdm.set_overlap(built.caps.overlap);
//! if let Some(c) = built.retry_counters {
//!     pdm.attach_retry_counters(c);
//! }
//! ```
//!
//! Overlap is deliberately *not* a builder layer: it is a machine setting,
//! resolved by the caller from the assembled stack's [`StorageCaps`]
//! (surfaced in [`BuiltStorage::caps`]). Wrappers pass `overlap` through:
//! fault injection draws its schedule and retry classifies failures at
//! *issue* time, and the async-file backend finishes the job at
//! *completion* time — the builder arms it with the same shared retry
//! counters it hands the issue-time layer, so `--overlap on --retry N`
//! keeps latency hiding and fault tolerance together.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::error::{PdmError, Result};
use crate::file_faults::{FileFaultMode, FileFaults};
use crate::key::PdmKey;
use crate::overlap::DEFAULT_QUEUE_DEPTH;
use crate::storage::{MemStorage, Storage, StorageCaps};
use crate::storage_async_file::AsyncFileStorage;
use crate::storage_file::FileStorage;
use crate::storage_flaky::{FailMode, FlakyStorage};
use crate::storage_retry::{RetryCounters, RetryPolicy, RetryingStorage};
use crate::storage_threaded::ThreadedStorage;

/// Which base backend anchors the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// [`MemStorage`]: the RAM medium on the caller driver, the reference
    /// cost-model backend.
    Mem,
    /// [`FileStorage`]: the file medium (one file per disk) on the caller
    /// driver, on positioned I/O.
    File,
    /// [`ThreadedStorage`]: the RAM medium on the worker driver (one read
    /// and one write worker thread for all disks, optional emulated
    /// latency).
    Threaded,
    /// [`AsyncFileStorage`]: the file medium on the worker driver (io_uring
    /// with the `uring` feature).
    AsyncFile,
}

impl BackendKind {
    /// Whether this backend persists to a host directory (and therefore
    /// accepts [`StorageBuilder::dir`] / readback).
    pub fn is_file_backed(self) -> bool {
        matches!(self, BackendKind::File | BackendKind::AsyncFile)
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match s {
            "mem" => Ok(BackendKind::Mem),
            "file" => Ok(BackendKind::File),
            "threaded" => Ok(BackendKind::Threaded),
            "async-file" => Ok(BackendKind::AsyncFile),
            _ => Err(format!(
                "unknown storage backend '{s}' (mem | file | threaded | async-file)"
            )),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BackendKind::Mem => "mem",
            BackendKind::File => "file",
            BackendKind::Threaded => "threaded",
            BackendKind::AsyncFile => "async-file",
        })
    }
}

/// The assembled stack plus the handles callers need from its layers.
pub struct BuiltStorage<K: PdmKey> {
    /// The full stack, outermost layer first, type-erased.
    pub storage: Box<dyn Storage<K>>,
    /// Capabilities of the assembled stack (wrappers already folded in);
    /// callers resolve machine overlap from `caps.overlap`.
    pub caps: StorageCaps,
    /// Live counter handle of the retry layer, when one was stacked.
    pub retry_counters: Option<RetryCounters>,
}

impl<K: PdmKey> std::fmt::Debug for BuiltStorage<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuiltStorage")
            .field("caps", &self.caps)
            .field("retry", &self.retry_counters.is_some())
            .finish_non_exhaustive()
    }
}

/// Builder for the standard storage ladder: base backend → fault
/// injection → retry. See the module docs for the rationale and an
/// example.
#[derive(Debug, Clone)]
pub struct StorageBuilder {
    kind: BackendKind,
    num_disks: usize,
    block_size: usize,
    dir: Option<PathBuf>,
    readback: bool,
    inject: Option<FailMode>,
    inject_file: Option<FileFaultMode>,
    retry: Option<RetryPolicy>,
    queue_depth: usize,
}

impl StorageBuilder {
    /// Start a stack over `kind` with the given geometry.
    pub fn new(kind: BackendKind, num_disks: usize, block_size: usize) -> Self {
        Self {
            kind,
            num_disks,
            block_size,
            dir: None,
            readback: false,
            inject: None,
            inject_file: None,
            retry: None,
            queue_depth: DEFAULT_QUEUE_DEPTH,
        }
    }

    /// Per-disk submission queue depth for the async-file backend: max
    /// blocks of one disk per kernel round (each worker's io_uring ring,
    /// with the `uring` feature, holds `D ×` that). Ignored by the other
    /// backends.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Put the disk files under `dir` instead of a self-cleaning temp
    /// directory. Only meaningful for file-backed kinds; [`Self::build`]
    /// rejects it otherwise.
    pub fn dir(mut self, dir: impl AsRef<Path>) -> Self {
        self.dir = Some(dir.as_ref().to_path_buf());
        self
    }

    /// Open existing disk files (validated against a `meta.pdm` manifest
    /// when present) instead of truncating. Requires [`Self::dir`].
    pub fn readback(mut self, readback: bool) -> Self {
        self.readback = readback;
        self
    }

    /// Stack a [`FlakyStorage`] fault-injection layer over the base.
    pub fn inject(mut self, mode: FailMode) -> Self {
        self.inject = Some(mode);
        self
    }

    /// Arm *real-file* fault injection inside the base backend itself:
    /// EIO, short transfers, torn writes, and fsync failures surface from
    /// the actual `read`/`write`/`fsync` calls rather than from a wrapper.
    /// Only meaningful for file-backed kinds; [`Self::build`] rejects it
    /// otherwise.
    pub fn inject_file(mut self, mode: FileFaultMode) -> Self {
        self.inject_file = Some(mode);
        self
    }

    /// Stack a [`RetryingStorage`] transient-fault retry layer (outermost).
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Assemble the stack.
    pub fn build<K: PdmKey>(self) -> Result<BuiltStorage<K>> {
        let (d, b) = (self.num_disks, self.block_size);
        if !self.kind.is_file_backed() {
            if self.dir.is_some() {
                return Err(PdmError::BadConfig(format!(
                    "the '{}' backend is not file-backed and takes no scratch directory",
                    self.kind
                )));
            }
            if self.readback {
                return Err(PdmError::BadConfig(format!(
                    "the '{}' backend is not file-backed and cannot read back",
                    self.kind
                )));
            }
        }
        if self.readback && self.dir.is_none() {
            return Err(PdmError::BadConfig(
                "readback needs a directory to read back from".into(),
            ));
        }
        if self.inject_file.is_some() && !self.kind.is_file_backed() {
            return Err(PdmError::BadConfig(format!(
                "the '{}' backend is not file-backed and cannot inject file faults",
                self.kind
            )));
        }
        // One counter set shared by the issue-time retry layer and (on the
        // async-file backend) the completion-time retry in the workers, so
        // `IoStats.retry` folds both together.
        let counters = RetryCounters::new();
        let mut storage: Box<dyn Storage<K>> = match self.kind {
            BackendKind::Mem => Box::new(MemStorage::new(d, b)),
            BackendKind::Threaded => Box::new(ThreadedStorage::new(d, b)),
            BackendKind::File => {
                let mut s = match (&self.dir, self.readback) {
                    (Some(dir), true) => FileStorage::create_readback(dir, d, b)?,
                    (Some(dir), false) => FileStorage::create(dir, d, b)?,
                    (None, _) => FileStorage::create_temp(d, b)?,
                };
                if let Some(mode) = self.inject_file {
                    s.set_file_faults(Arc::new(FileFaults::new(mode)));
                }
                Box::new(s)
            }
            BackendKind::AsyncFile => {
                let depth = self.queue_depth;
                let mut s = match (&self.dir, self.readback) {
                    (Some(dir), true) => AsyncFileStorage::create_readback_with(dir, d, b, depth)?,
                    (Some(dir), false) => AsyncFileStorage::create_with(dir, d, b, depth)?,
                    (None, _) => AsyncFileStorage::create_temp_with(d, b, depth)?,
                };
                if let Some(mode) = self.inject_file {
                    s.set_file_faults(Arc::new(FileFaults::new(mode)));
                }
                if let Some(policy) = self.retry {
                    s.set_completion_retry(policy, counters.clone());
                }
                Box::new(s)
            }
        };
        if let Some(mode) = self.inject {
            storage = Box::new(FlakyStorage::new(storage, mode));
        }
        let mut retry_counters = None;
        if let Some(policy) = self.retry {
            retry_counters = Some(counters.clone());
            storage = Box::new(RetryingStorage::with_counters(storage, policy, counters));
        }
        let caps = storage.caps();
        Ok(BuiltStorage {
            storage,
            caps,
            retry_counters,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PdmConfig;
    use crate::machine::Pdm;

    fn round_trip(built: BuiltStorage<u64>) {
        let mut pdm = Pdm::with_storage(PdmConfig::square(2, 8), built.storage).unwrap();
        let r = pdm.alloc_region_for_keys(128).unwrap();
        let data: Vec<u64> = (0..128).rev().collect();
        pdm.ingest(&r, &data).unwrap();
        let mut out = Vec::new();
        pdm.read_region(&r, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn every_backend_kind_builds_and_round_trips() {
        for kind in [
            BackendKind::Mem,
            BackendKind::File,
            BackendKind::Threaded,
            BackendKind::AsyncFile,
        ] {
            round_trip(StorageBuilder::new(kind, 2, 8).build().unwrap());
        }
    }

    #[test]
    fn caps_reflect_the_assembled_stack() {
        let bare = StorageBuilder::new(BackendKind::Threaded, 2, 8)
            .build::<u64>()
            .unwrap();
        assert!(bare.caps.overlap, "threaded backend natively overlaps");
        // Wrappers pass overlap through: fault/retry policy is applied at
        // issue time inside start_*_batch, so latency hiding survives.
        let wrapped = StorageBuilder::new(BackendKind::Threaded, 2, 8)
            .retry(RetryPolicy::default())
            .build::<u64>()
            .unwrap();
        assert!(wrapped.caps.overlap, "retry layer must not disable overlap");
        assert!(wrapped.retry_counters.is_some());
        assert!(bare.retry_counters.is_none());
    }

    #[test]
    fn uring_tuning_knobs_build_and_round_trip() {
        // The queue depth is perf-only: whatever ring the kernel grants
        // (or none), data-path behavior is identical.
        round_trip(
            StorageBuilder::new(BackendKind::AsyncFile, 2, 8)
                .queue_depth(4)
                .build()
                .unwrap(),
        );
        // Non-async kinds just ignore them.
        round_trip(
            StorageBuilder::new(BackendKind::Mem, 2, 8)
                .queue_depth(7)
                .build()
                .unwrap(),
        );
    }

    #[test]
    fn non_file_kinds_reject_file_fault_injection() {
        for kind in [BackendKind::Mem, BackendKind::Threaded] {
            let e = StorageBuilder::new(kind, 2, 8)
                .inject_file(FileFaultMode::Eio(0))
                .build::<u64>()
                .unwrap_err();
            assert!(matches!(e, PdmError::BadConfig(_)), "{kind}: {e}");
        }
    }

    #[test]
    fn file_faults_heal_under_the_stacked_retry_layer() {
        for kind in [BackendKind::File, BackendKind::AsyncFile] {
            let built = StorageBuilder::new(kind, 2, 8)
                .inject_file(FileFaultMode::ShortRate {
                    seed: 7,
                    rate_ppm: 100_000,
                })
                .retry(RetryPolicy {
                    max_attempts: 10,
                    backoff_steps: 1,
                })
                .build::<u64>()
                .unwrap();
            let counters = built.retry_counters.clone().unwrap();
            round_trip(built);
            let snap = counters.snapshot();
            assert_eq!(snap.exhausted, 0, "{kind}: retries must heal the faults");
        }
    }

    #[test]
    fn faults_heal_under_the_stacked_retry_layer() {
        let built = StorageBuilder::new(BackendKind::Mem, 2, 8)
            .inject(FailMode::EveryNth(2))
            .retry(RetryPolicy::default())
            .build::<u64>()
            .unwrap();
        let counters = built.retry_counters.clone().unwrap();
        round_trip(built);
        let snap = counters.snapshot();
        assert!(snap.total_retries() > 0, "EveryNth(2) must have fired");
        assert_eq!(snap.exhausted, 0);
    }

    #[test]
    fn non_file_kinds_reject_dir_and_readback() {
        for kind in [BackendKind::Mem, BackendKind::Threaded] {
            let e = StorageBuilder::new(kind, 2, 8)
                .dir("/tmp/nope")
                .build::<u64>()
                .unwrap_err();
            assert!(matches!(e, PdmError::BadConfig(_)), "{kind}: {e}");
            let e = StorageBuilder::new(kind, 2, 8)
                .readback(true)
                .build::<u64>()
                .unwrap_err();
            assert!(matches!(e, PdmError::BadConfig(_)), "{kind}: {e}");
        }
        let e = StorageBuilder::new(BackendKind::File, 2, 8)
            .readback(true)
            .build::<u64>()
            .unwrap_err();
        assert!(matches!(e, PdmError::BadConfig(_)), "readback without dir");
    }

    #[test]
    fn dir_backed_stacks_persist_across_builds() {
        let dir = std::env::temp_dir().join(format!("pdm-builder-rb-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let built = StorageBuilder::new(BackendKind::File, 2, 8)
                .dir(&dir)
                .build::<u64>()
                .unwrap();
            let mut s = built.storage;
            s.ensure_capacity(0, 1).unwrap();
            s.write_batch(&[(0, 0)], &[7; 8]).unwrap();
            s.sync().unwrap();
        }
        // Read the same directory back through the *async* backend: the
        // manifest format is shared.
        let built = StorageBuilder::new(BackendKind::AsyncFile, 2, 8)
            .dir(&dir)
            .readback(true)
            .build::<u64>()
            .unwrap();
        let mut s = built.storage;
        let mut out = [0u64; 8];
        s.read_batch(&[(0, 0)], &mut out).unwrap();
        assert_eq!(out, [7; 8]);
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backend_kind_parses_and_displays() {
        for (text, kind) in [
            ("mem", BackendKind::Mem),
            ("file", BackendKind::File),
            ("threaded", BackendKind::Threaded),
            ("async-file", BackendKind::AsyncFile),
        ] {
            assert_eq!(text.parse::<BackendKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), text);
        }
        assert!("floppy".parse::<BackendKind>().is_err());
    }
}
