//! # pdm-model — a Parallel Disk Model simulator
//!
//! Substrate for reproducing *Rajasekaran & Sen, "PDM Sorting Algorithms
//! That Take A Small Number Of Passes" (IPPS 2005)*.
//!
//! The **Parallel Disk Model** (Vitter–Shriver) has a computer with internal
//! memory of `M` keys attached to `D` independent disks; one parallel I/O
//! step transfers at most one block of `B` keys per disk. Algorithm cost is
//! the number of parallel I/O steps; the paper's unit is the *pass* —
//! `N/(D·B)` read steps plus the same number of write steps.
//!
//! This crate simulates such a machine faithfully at the cost-model level:
//!
//! * [`machine::Pdm`] — the machine: striped regions, batch block I/O with
//!   exact step accounting, and a capacity-enforced internal memory.
//! * [`storage`] — pluggable backends: two media, RAM and host files, under
//!   the two drivers of [`storage_worker`]. On the caller thread they are
//!   [`storage::MemStorage`] and [`storage_file::FileStorage`]; on one read
//!   and one write worker thread for all disks they are
//!   [`storage_threaded::ThreadedStorage`], for real wall-clock disk
//!   parallelism, and [`storage_async_file::AsyncFileStorage`] (io_uring
//!   behind the `uring` feature). Each
//!   backend advertises what it can do through [`storage::StorageCaps`];
//!   [`storage_builder::StorageBuilder`] stacks base backends with the
//!   fault/retry wrappers.
//! * [`stream`] — stripe-aligned sequential readers/writers and the k-way
//!   merge kernel, all charging their staging buffers to internal memory.
//! * [`stats::IoStats`] — per-disk and total block/step counters, phase
//!   bracketing, and the pass metrics used in every experiment.
//!
//! ## Example
//!
//! ```
//! use pdm_model::prelude::*;
//!
//! // A machine with D = 4 disks, B = √M = 16, M = 256 keys.
//! let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(4, 16)).unwrap();
//!
//! // The input resides on disk (ingest is not charged I/O).
//! let input: Vec<u64> = (0..1024).rev().collect();
//! let region = pdm.alloc_region_for_keys(input.len()).unwrap();
//! pdm.ingest(&region, &input).unwrap();
//!
//! // Stream it back in one pass: 64 blocks over 4 disks = 16 steps.
//! let mut reader = RunReader::striped(&pdm, region).unwrap();
//! let mut buf = Vec::new();
//! reader.take_into(&mut pdm, 1024, &mut buf).unwrap();
//! assert_eq!(pdm.stats().read_steps, 16);
//! assert_eq!(pdm.stats().read_passes(1024, 4, 16), 1.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod config;
pub mod error;
pub mod file_faults;
pub mod hist;
pub mod key;
pub mod layout;
pub mod machine;
pub mod mem;
pub mod overlap;
pub mod pool;
pub mod probe;
pub mod rng;
pub mod stats;
pub mod storage;
pub mod storage_async_file;
pub mod storage_builder;
pub mod storage_file;
pub mod storage_flaky;
pub mod storage_retry;
pub mod storage_threaded;
pub mod storage_worker;
pub mod stream;

/// Convenient re-exports of the types nearly every consumer needs.
pub mod prelude {
    pub use crate::checkpoint::{fnv1a, Checkpoint, CheckpointStore, Manifest, FNV_OFFSET};
    pub use crate::config::PdmConfig;
    pub use crate::error::{PdmError, Result};
    pub use crate::file_faults::{FileFaultMode, FileFaults};
    pub use crate::hist::{HistSnapshot, LatencyHist};
    pub use crate::key::{PdmKey, RankedKey, StrN, Tagged};
    pub use crate::layout::{BlockAddr, Region};
    pub use crate::machine::Pdm;
    pub use crate::mem::{MemGuard, MemTracker, TrackedBuf};
    pub use crate::overlap::{
        PendingRead, PendingWrite, ReadAhead, TrackedRead, TrackedWrite, WriteBehind,
        DEFAULT_QUEUE_DEPTH,
    };
    pub use crate::pool::PoolStats;
    pub use crate::probe::{replay, sparkline, Probe, ProbeEvent, ReplayedPhase, ReplayedStats};
    pub use crate::stats::{
        DiskWall, IoStats, OverlapCounters, PhaseStall, PhaseStats, RetrySnapshot, Span, SpanSink,
        UringWall, WallStats,
    };
    pub use crate::storage::{MemStorage, Storage, StorageCaps};
    pub use crate::storage_async_file::AsyncFileStorage;
    pub use crate::storage_builder::{BackendKind, StorageBuilder};
    pub use crate::storage_file::FileStorage;
    pub use crate::storage_flaky::{FailMode, FlakyStorage};
    pub use crate::storage_retry::{RetryCounters, RetryPolicy, RetryingStorage};
    pub use crate::storage_threaded::ThreadedStorage;
    pub use crate::stream::{RunReader, RunWriter};
}

pub use prelude::*;
