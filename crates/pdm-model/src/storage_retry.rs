//! Transient-fault retry layer over any storage backend.
//!
//! [`RetryingStorage`] wraps a backend and reissues block operations that
//! fail with a *transient* error
//! ([`crate::error::PdmError::is_transient`]): interrupted syscalls,
//! timeouts, injected [`crate::storage_flaky::FailMode`] transient faults.
//! Permanent errors (bad addresses, dead disks,
//! [`crate::error::PdmError::Corrupt`]) propagate immediately — retrying
//! them would return the same failure and hide the bug.
//!
//! Retries are charged *deterministic simulated backoff*: retry `k` of an
//! operation costs `k · backoff_steps` parallel steps, accumulated in a
//! [`RetryCounters`] handle that the machine folds into
//! [`crate::stats::IoStats::retry`] at phase boundaries. Backoff steps
//! live beside — not inside — the read/write step counters, so a run's
//! pass counts stay directly comparable with and without fault injection
//! while the retry cost remains visible in reports and probe gauges.
//!
//! The counters are shared through an [`std::sync::Arc`] of atomics:
//! cloning the handle before moving the storage into a machine keeps a
//! live view from outside, exactly like [`crate::mem::MemTracker`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::error::Result;
use crate::key::PdmKey;
use crate::stats::RetrySnapshot;
use crate::storage::Storage;

/// How many attempts a block operation gets and what each retry costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation (first try included). `1` disables
    /// retrying; `0` is treated as `1`.
    pub max_attempts: u32,
    /// Simulated parallel steps charged for the `k`-th retry of an
    /// operation: `k · backoff_steps` (linear backoff). Purely an
    /// accounting figure — no wall-clock sleeping happens.
    pub backoff_steps: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            backoff_steps: 1,
        }
    }
}

#[derive(Debug, Default)]
struct RetryInner {
    reads_retried: AtomicU64,
    writes_retried: AtomicU64,
    completion_reads: AtomicU64,
    completion_writes: AtomicU64,
    exhausted: AtomicU64,
    backoff_steps: AtomicU64,
    /// Retries charged to the disk that originated the operation,
    /// grown on demand (sync retries carry no disk and are not charged).
    per_disk: Mutex<Vec<u64>>,
}

/// Shared live counters of a [`RetryingStorage`]. Clone the handle to
/// observe retries from outside the machine that owns the storage.
#[derive(Debug, Clone, Default)]
pub struct RetryCounters(Arc<RetryInner>);

impl RetryCounters {
    /// A fresh all-zero counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy the current counter values.
    pub fn snapshot(&self) -> RetrySnapshot {
        RetrySnapshot {
            reads_retried: self.0.reads_retried.load(Ordering::Relaxed),
            writes_retried: self.0.writes_retried.load(Ordering::Relaxed),
            exhausted: self.0.exhausted.load(Ordering::Relaxed),
            backoff_steps: self.0.backoff_steps.load(Ordering::Relaxed),
            per_disk_retries: self.0.per_disk.lock().unwrap().clone(),
            completion_reads_retried: self.0.completion_reads.load(Ordering::Relaxed),
            completion_writes_retried: self.0.completion_writes.load(Ordering::Relaxed),
        }
    }

    fn record_retry(&self, write: bool, disk: Option<usize>, attempt: u64, policy: &RetryPolicy) {
        let ctr = if write {
            &self.0.writes_retried
        } else {
            &self.0.reads_retried
        };
        ctr.fetch_add(1, Ordering::Relaxed);
        self.charge(disk, attempt, policy);
    }

    /// Record one *completion-time* reissue: an async disk worker classified
    /// a grouped-batch failure after the I/O completed and re-ran just the
    /// failed block. Backoff and per-disk attribution are charged exactly
    /// like issue-time retries; only the read/write counter differs, so
    /// reports can split the two.
    pub(crate) fn record_completion_retry(
        &self,
        write: bool,
        disk: usize,
        attempt: u64,
        policy: &RetryPolicy,
    ) {
        let ctr = if write {
            &self.0.completion_writes
        } else {
            &self.0.completion_reads
        };
        ctr.fetch_add(1, Ordering::Relaxed);
        self.charge(Some(disk), attempt, policy);
    }

    fn charge(&self, disk: Option<usize>, attempt: u64, policy: &RetryPolicy) {
        self.0
            .backoff_steps
            .fetch_add(attempt * policy.backoff_steps, Ordering::Relaxed);
        if let Some(d) = disk {
            let mut per_disk = self.0.per_disk.lock().unwrap();
            if per_disk.len() <= d {
                per_disk.resize(d + 1, 0);
            }
            per_disk[d] += 1;
        }
    }

    pub(crate) fn record_exhausted(&self) {
        self.0.exhausted.fetch_add(1, Ordering::Relaxed);
    }
}

/// A storage wrapper that retries transient block-operation failures.
///
/// Blocking batches move block by block, each block forwarded as a
/// one-block batch with its own retry budget; a single bad block in a
/// batch costs one reissue, not a whole-batch replay.
pub struct RetryingStorage<S> {
    inner: S,
    policy: RetryPolicy,
    counters: RetryCounters,
}

impl<S> RetryingStorage<S> {
    /// Wrap `inner` with the given retry policy.
    pub fn new(inner: S, policy: RetryPolicy) -> Self {
        Self::with_counters(inner, policy, RetryCounters::new())
    }

    /// Wrap `inner`, folding retries into an externally created counter
    /// set. [`crate::storage_builder::StorageBuilder`] uses this to share
    /// one counter set between this issue-time layer and a backend's
    /// completion-time retry (the async path), so `IoStats.retry` sees a
    /// single unified stream.
    pub fn with_counters(inner: S, policy: RetryPolicy, counters: RetryCounters) -> Self {
        Self {
            inner,
            policy,
            counters,
        }
    }

    /// A live handle to this layer's retry counters.
    pub fn counters(&self) -> RetryCounters {
        self.counters.clone()
    }

    /// The active policy.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// The wrapped backend.
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn with_retry<T>(
        &mut self,
        write: bool,
        disk: Option<usize>,
        mut op: impl FnMut(&mut S) -> Result<T>,
    ) -> Result<T> {
        let attempts = self.policy.max_attempts.max(1);
        let mut attempt: u32 = 0;
        loop {
            match op(&mut self.inner) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() => {
                    attempt += 1;
                    if attempt >= attempts {
                        self.counters.record_exhausted();
                        return Err(e);
                    }
                    self.counters
                        .record_retry(write, disk, u64::from(attempt), &self.policy);
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl<K: PdmKey, S: Storage<K>> Storage<K> for RetryingStorage<S> {
    fn num_disks(&self) -> usize {
        self.inner.num_disks()
    }

    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn ensure_capacity(&mut self, disk: usize, slots: usize) -> Result<()> {
        self.with_retry(true, Some(disk), |s| s.ensure_capacity(disk, slots))
    }

    /// Each block is forwarded as its own one-block batch with its own
    /// retry budget: a single bad block in a batch costs one reissue, not
    /// a whole-batch replay.
    fn read_batch(&mut self, reqs: &[(usize, usize)], out: &mut [K]) -> Result<()> {
        let b = self.inner.block_size();
        for (i, &req) in reqs.iter().enumerate() {
            let block = &mut out[i * b..(i + 1) * b];
            self.with_retry(false, Some(req.0), |s| s.read_batch(&[req], block))?;
        }
        Ok(())
    }

    /// See [`RetryingStorage`]'s `read_batch`; same protocol for writes.
    fn write_batch(&mut self, reqs: &[(usize, usize)], data: &[K]) -> Result<()> {
        let b = self.inner.block_size();
        for (i, &req) in reqs.iter().enumerate() {
            let block = &data[i * b..(i + 1) * b];
            self.with_retry(true, Some(req.0), |s| s.write_batch(&[req], block))?;
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.with_retry(true, None, |s| s.sync())
    }

    fn wall_snapshot(&self) -> Option<crate::stats::StorageWallSnapshot> {
        self.inner.wall_snapshot()
    }

    fn attach_span_sink(&mut self, sink: std::sync::Arc<crate::stats::SpanSink>) {
        self.inner.attach_span_sink(sink)
    }

    /// Inner caps, unchanged. Overlap survives the retry layer: an
    /// issue-time failure of a `start_*_batch` call degrades that one
    /// batch to the blocking per-block path (see `start_read_batch`), and
    /// backends that advertise `overlap` handle per-block *completion*
    /// failures themselves (the async backend's workers reissue failed
    /// blocks and fold them into the same shared [`RetryCounters`]).
    fn caps(&self) -> crate::storage::StorageCaps {
        self.inner.caps()
    }

    /// Forwarded to the inner backend so overlap stays live. A transient
    /// failure of the *start* call itself (an injected issue-time fault)
    /// fails the whole batch before anything was issued, so retrying the
    /// start would re-draw *every* block's fault schedule per attempt —
    /// the effective failure rate scales with the batch size and a budget
    /// that is bulletproof per block can exhaust per batch. Instead the
    /// one faulted batch degrades to the blocking per-block path (this
    /// layer's `read_batch`, which gives each block its own budget)
    /// behind an eager completion token; only that batch
    /// loses latency hiding. The degradation itself is recorded as one
    /// unattributed retry so healing stays visible in the counters.
    fn start_read_batch(
        &mut self,
        reqs: &[(usize, usize)],
    ) -> Result<Box<dyn crate::overlap::PendingRead<K> + Send>> {
        match self.inner.start_read_batch(reqs) {
            Ok(pending) => Ok(pending),
            Err(e) if e.is_transient() => {
                self.counters.record_retry(false, None, 1, &self.policy);
                let b = self.block_size();
                let mut data = vec![K::MAX; reqs.len() * b];
                self.read_batch(reqs, &mut data)?;
                Ok(Box::new(crate::overlap::EagerPending::new(data)))
            }
            Err(e) => Err(e),
        }
    }

    /// See [`RetryingStorage`]'s `start_read_batch`; same protocol for
    /// writes. Safe to re-drive because a failed start issued nothing.
    fn start_write_batch(
        &mut self,
        reqs: &[(usize, usize)],
        data: &[K],
    ) -> Result<Box<dyn crate::overlap::PendingWrite + Send>> {
        match self.inner.start_write_batch(reqs, data) {
            Ok(pending) => Ok(pending),
            Err(e) if e.is_transient() => {
                self.counters.record_retry(true, None, 1, &self.policy);
                self.write_batch(reqs, data)?;
                Ok(Box::new(crate::overlap::EagerWriteDone))
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use crate::storage_flaky::{FailMode, FlakyStorage};

    fn store(
        mode: FailMode,
        policy: RetryPolicy,
    ) -> RetryingStorage<FlakyStorage<MemStorage<u64>>> {
        let mut inner = MemStorage::new(1, 4);
        inner.ensure_capacity(0, 8).unwrap();
        RetryingStorage::new(FlakyStorage::new(inner, mode), policy)
    }

    #[test]
    fn transient_faults_heal_within_budget() {
        // EveryNth(2) fails ops 0, 2, 4, …; one retry always lands on an
        // odd index and succeeds.
        let mut s = store(FailMode::EveryNth(2), RetryPolicy::default());
        let mut out = [0u64; 4];
        for i in 0..10 {
            s.read_batch(&[(0, i % 8)], &mut out).unwrap();
        }
        let snap = s.counters().snapshot();
        assert!(snap.reads_retried >= 1);
        assert_eq!(snap.exhausted, 0);
        assert_eq!(
            snap.backoff_steps, snap.reads_retried,
            "first retries cost 1 step each"
        );
    }

    #[test]
    fn permanent_faults_are_not_retried() {
        let mut s = store(FailMode::NthRead(0), RetryPolicy::default());
        let mut out = [0u64; 4];
        assert!(s.read_batch(&[(0, 0)], &mut out).is_err());
        let snap = s.counters().snapshot();
        assert_eq!(snap.total_retries(), 0);
        assert_eq!(
            snap.exhausted, 0,
            "permanent failure is not an exhausted retry"
        );
        // the schedule fired once; the very next attempt (op 1) succeeds
        assert!(s.read_batch(&[(0, 0)], &mut out).is_ok());
    }

    #[test]
    fn exhaustion_is_counted_and_propagates_transient_error() {
        // EveryNth(1) fails every attempt: the budget must run out.
        let policy = RetryPolicy {
            max_attempts: 3,
            backoff_steps: 2,
        };
        let mut s = store(FailMode::EveryNth(1), policy);
        let mut out = [0u64; 4];
        let e = s.read_batch(&[(0, 0)], &mut out).unwrap_err();
        assert!(e.is_transient());
        let snap = s.counters().snapshot();
        assert_eq!(snap.reads_retried, 2, "3 attempts = 2 retries");
        assert_eq!(snap.exhausted, 1);
        // linear backoff: retry 1 costs 2 steps, retry 2 costs 4
        assert_eq!(snap.backoff_steps, 6);
    }

    #[test]
    fn writes_count_separately_from_reads() {
        let mut s = store(FailMode::EveryNth(2), RetryPolicy::default());
        s.write_batch(&[(0, 0)], &[1, 2, 3, 4]).unwrap();
        let snap = s.counters().snapshot();
        assert_eq!(snap.writes_retried, 1);
        assert_eq!(snap.reads_retried, 0);
    }

    #[test]
    fn batch_retries_are_charged_to_the_originating_disk() {
        // Two disks; the fault schedule is shared, so retried blocks come
        // from whichever disk the failing op targeted. Every reissue must
        // land on that disk's per-disk counter — re-issued async batches
        // used to lose this attribution entirely.
        let mut inner = MemStorage::<u64>::new(2, 4);
        inner.ensure_capacity(0, 8).unwrap();
        inner.ensure_capacity(1, 8).unwrap();
        let mut s = RetryingStorage::new(
            FlakyStorage::new(inner, FailMode::EveryNth(2)),
            RetryPolicy::default(),
        );
        // A cross-disk write batch followed by a read batch; the retry
        // layer reissues batches block by block, so each retry knows its
        // originating disk.
        let reqs = [(0, 0), (1, 0), (0, 1), (1, 1)];
        let data: Vec<u64> = (0..16).collect();
        s.write_batch(&reqs, &data).unwrap();
        let mut out = vec![0u64; 16];
        s.read_batch(&reqs, &mut out).unwrap();
        assert_eq!(out, data);
        let snap = s.counters().snapshot();
        assert!(snap.total_retries() > 0, "EveryNth(2) must have fired");
        let attributed: u64 = snap.per_disk_retries.iter().sum();
        assert_eq!(
            attributed,
            snap.total_retries(),
            "every block retry must be charged to exactly one disk"
        );
        assert!(snap.per_disk_retries.len() <= 2);
    }

    #[test]
    fn sync_retries_carry_no_disk_attribution() {
        // Sync is a whole-storage barrier; its retries are counted but
        // charged to no disk. FlakyStorage does not inject into sync, so
        // use a stub whose first sync fails transiently.
        struct FlakySync {
            inner: MemStorage<u64>,
            failed_once: bool,
        }
        impl Storage<u64> for FlakySync {
            fn num_disks(&self) -> usize {
                self.inner.num_disks()
            }
            fn block_size(&self) -> usize {
                self.inner.block_size()
            }
            fn ensure_capacity(&mut self, disk: usize, slots: usize) -> Result<()> {
                self.inner.ensure_capacity(disk, slots)
            }
            fn read_batch(&mut self, reqs: &[(usize, usize)], out: &mut [u64]) -> Result<()> {
                self.inner.read_batch(reqs, out)
            }
            fn write_batch(&mut self, reqs: &[(usize, usize)], data: &[u64]) -> Result<()> {
                self.inner.write_batch(reqs, data)
            }
            fn sync(&mut self) -> Result<()> {
                if !self.failed_once {
                    self.failed_once = true;
                    return Err(crate::error::PdmError::Io(std::io::Error::new(
                        std::io::ErrorKind::Interrupted,
                        "sync interrupted",
                    )));
                }
                self.inner.sync()
            }
        }
        let mut s = RetryingStorage::new(
            FlakySync {
                inner: MemStorage::new(2, 4),
                failed_once: false,
            },
            RetryPolicy::default(),
        );
        s.sync().unwrap();
        let snap = s.counters().snapshot();
        assert_eq!(snap.writes_retried, 1);
        assert_eq!(snap.per_disk_retries.iter().sum::<u64>(), 0);
    }

    #[test]
    fn max_attempts_zero_still_attempts_once() {
        let policy = RetryPolicy {
            max_attempts: 0,
            backoff_steps: 1,
        };
        let mut s = store(FailMode::Never, policy);
        let mut out = [0u64; 4];
        assert!(s.read_batch(&[(0, 0)], &mut out).is_ok());
    }
}
