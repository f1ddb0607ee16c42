//! I/O–computation overlap (the Dementiev–Sanders idea the paper cites:
//! "a sorting algorithm based on multi-way merge that overlaps I/O and
//! computation optimally").
//!
//! The synchronous [`Storage`] batch calls make every read blocking; real
//! disk controllers let you *issue* a batch and keep computing until you
//! need the data. [`Storage::start_read_batch`] /
//! [`Storage::start_write_batch`] add exactly that: they dispatch the
//! requests and return a [`PendingRead`] / [`PendingWrite`] token whose
//! `wait` blocks only for whatever hasn't completed yet. Synchronous
//! backends fall back to eager completion (correct, no latency hiding);
//! the worker-engine backends ([`crate::storage_worker`]: threaded and
//! async-file) service the token on their read or write worker thread.
//!
//! Algorithms do not touch storage tokens directly — they go through
//! [`Pdm::start_read_blocks`](crate::machine::Pdm::start_read_blocks) /
//! [`Pdm::start_write_blocks`](crate::machine::Pdm::start_write_blocks),
//! which take a list of batches (each a list of `(Region, block)` pairs,
//! as the blocking calls take them), charge each batch as its own step
//! once the storage call has returned, and wrap the one storage token in
//! a [`TrackedRead`] / [`TrackedWrite`].
//! The tracked wrappers carry the machine's in-flight counter (checkpoint
//! boundaries refuse to persist a manifest while it is non-zero) and the
//! probe-event id pairing each `OverlapComplete` with its `OverlapIssue`.
//!
//! Pipeline-facing helpers, all gated on
//! [`Pdm::overlap`](crate::machine::Pdm::overlap):
//!
//! - [`ReadAhead`]: runs a precomputed schedule of read batches a bounded
//!   window ahead of the consumer. Each schedule entry is exactly one
//!   blocking batch, so the step accounting is identical with overlap on
//!   or off.
//! - [`WriteBehind`]: stages write batches, issues them asynchronously in
//!   coalesced groups and retires them as the window fills (or at
//!   `finish`).
//!
//! Both bound their in-flight data by the machine's block window
//! ([`Pdm::set_overlap_window`](crate::machine::Pdm::set_overlap_window));
//! a window of one batch is classic double buffering.
//!
//! Accounting note: parallel-step costs are charged at *issue* time with
//! the same batch rule as blocking reads, so overlap changes wall-clock
//! only, never the pass counts.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::error::{PdmError, Result};
use crate::key::PdmKey;
use crate::layout::Region;
use crate::machine::Pdm;
use crate::storage::Storage;

/// A handle to an in-flight batch of block reads.
pub trait PendingRead<K> {
    /// Block until every request completes, writing the blocks (in request
    /// order) into `out`, which must hold exactly `requests × B` keys.
    fn wait(self: Box<Self>, out: &mut [K]) -> Result<()>;

    /// Whether every request has already completed, so `wait` would not
    /// block. Purely observational (feeds the overlap hit/stall counters in
    /// [`crate::stats::OverlapCounters`]); eager backends are always ready.
    fn is_ready(&self) -> bool {
        true
    }
}

/// Trivial pending read for any synchronous storage: the read completed
/// eagerly at issue. Lets pipeline code run unchanged (just without the
/// wall-clock benefit) on the memory and file backends.
pub struct EagerPending<K> {
    data: Vec<K>,
}

impl<K> EagerPending<K> {
    /// Wrap an eagerly-read payload.
    pub fn new(data: Vec<K>) -> Self {
        Self { data }
    }
}

impl<K: PdmKey> PendingRead<K> for EagerPending<K> {
    fn wait(self: Box<Self>, out: &mut [K]) -> Result<()> {
        if out.len() != self.data.len() {
            return Err(PdmError::BadBlockLen {
                got: out.len(),
                expected: self.data.len(),
            });
        }
        out.copy_from_slice(&self.data);
        Ok(())
    }
}

/// A handle to an in-flight batch of block writes.
pub trait PendingWrite {
    /// Block until every write completes.
    fn wait(self: Box<Self>) -> Result<()>;

    /// Whether every write has already retired (see
    /// [`PendingRead::is_ready`]).
    fn is_ready(&self) -> bool {
        true
    }
}

/// Eagerly-completed write (synchronous backends).
pub struct EagerWriteDone;

impl PendingWrite for EagerWriteDone {
    fn wait(self: Box<Self>) -> Result<()> {
        Ok(())
    }
}

/// RAII increment of the machine's in-flight operation counter. Created
/// at issue, released when the owning token is waited on *or* abandoned —
/// either way the count returns to zero, so a leak-free error path never
/// wedges the checkpoint guard. (An abandoned token may still have
/// physical I/O in flight on a worker-engine backend; abandonment only
/// happens on error propagation, where no manifest is written anyway.)
pub(crate) struct PendingGuard {
    ctr: Arc<AtomicUsize>,
}

impl PendingGuard {
    pub(crate) fn new(ctr: &Arc<AtomicUsize>) -> Self {
        ctr.fetch_add(1, Ordering::Relaxed);
        Self {
            ctr: Arc::clone(ctr),
        }
    }
}

impl Drop for PendingGuard {
    fn drop(&mut self) {
        self.ctr.fetch_sub(1, Ordering::Relaxed);
    }
}

/// An in-flight read issued through
/// [`Pdm::start_read_blocks`](crate::machine::Pdm::start_read_blocks);
/// retire it with
/// [`Pdm::finish_read_blocks`](crate::machine::Pdm::finish_read_blocks).
///
/// During checkpoint replay the token carries no storage operation at
/// all: retiring it yields `K::MAX` filler, mirroring the blocking replay
/// path.
pub struct TrackedRead<K> {
    inner: Option<Box<dyn PendingRead<K> + Send>>,
    expected: usize,
    id: u64,
    deferred: Option<Box<DeferredReadCharge>>,
    _guard: PendingGuard,
}

/// Accounting a *speculative* read postponed from issue to consumption
/// (see [`Pdm::start_read_blocks_speculative`]). The blocking path
/// only ever charges batches it actually consumes — a data-dependent
/// early abort (e.g. `expected_two_pass`'s pass-2 cleanliness check)
/// never reads past the aborting window — so a speculative issue must
/// not charge anything until the consumer commits to the batch. Dropping
/// an unconsumed token abandons the physical read without touching any
/// counter or probe stream.
pub(crate) struct DeferredReadCharge {
    /// Per-disk block multiplicities of the batch, captured at issue.
    pub(crate) counts: Vec<u64>,
    /// Total blocks in the batch.
    pub(crate) blocks: u64,
}

impl<K: PdmKey> TrackedRead<K> {
    pub(crate) fn live(
        inner: Box<dyn PendingRead<K> + Send>,
        expected: usize,
        id: u64,
        guard: PendingGuard,
    ) -> Self {
        Self {
            inner: Some(inner),
            expected,
            id,
            deferred: None,
            _guard: guard,
        }
    }

    pub(crate) fn live_deferred(
        inner: Box<dyn PendingRead<K> + Send>,
        expected: usize,
        charge: DeferredReadCharge,
        guard: PendingGuard,
    ) -> Self {
        Self {
            inner: Some(inner),
            expected,
            id: 0,
            deferred: Some(Box::new(charge)),
            _guard: guard,
        }
    }

    pub(crate) fn replay(expected: usize, guard: PendingGuard) -> Self {
        Self {
            inner: None,
            expected,
            id: 0,
            deferred: None,
            _guard: guard,
        }
    }

    pub(crate) fn take_deferred(&mut self) -> Option<Box<DeferredReadCharge>> {
        self.deferred.take()
    }

    pub(crate) fn is_replay(&self) -> bool {
        self.inner.is_none()
    }

    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Whether waiting would not block (replay fillers are always ready).
    pub fn is_ready(&self) -> bool {
        self.inner.as_ref().is_none_or(|p| p.is_ready())
    }

    /// Keys this read will deliver.
    pub fn expected_keys(&self) -> usize {
        self.expected
    }

    pub(crate) fn wait(self, out: &mut [K]) -> Result<()> {
        if out.len() != self.expected {
            return Err(PdmError::BadBlockLen {
                got: out.len(),
                expected: self.expected,
            });
        }
        match self.inner {
            Some(p) => p.wait(out),
            None => {
                out.fill(K::MAX);
                Ok(())
            }
        }
    }
}

/// An in-flight write issued through
/// [`Pdm::start_write_blocks`](crate::machine::Pdm::start_write_blocks);
/// retire it with
/// [`Pdm::finish_write_blocks`](crate::machine::Pdm::finish_write_blocks).
/// The payload was copied (or written) at issue, so only completion is
/// outstanding.
pub struct TrackedWrite {
    inner: Option<Box<dyn PendingWrite + Send>>,
    id: u64,
    _guard: PendingGuard,
}

impl TrackedWrite {
    pub(crate) fn live(inner: Box<dyn PendingWrite + Send>, id: u64, guard: PendingGuard) -> Self {
        Self {
            inner: Some(inner),
            id,
            _guard: guard,
        }
    }

    pub(crate) fn replay(guard: PendingGuard) -> Self {
        Self {
            inner: None,
            id: 0,
            _guard: guard,
        }
    }

    pub(crate) fn is_replay(&self) -> bool {
        self.inner.is_none()
    }

    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Whether waiting would not block.
    pub fn is_ready(&self) -> bool {
        self.inner.as_ref().is_none_or(|p| p.is_ready())
    }

    pub(crate) fn wait(self) -> Result<()> {
        match self.inner {
            Some(p) => p.wait(),
            None => Ok(()),
        }
    }
}

/// Default per-disk submit-queue depth: the number of blocks one disk
/// comfortably keeps in flight. It doubles as the default io_uring ring
/// size on the real-disk backend and as the per-disk factor of the
/// default overlap window budget (`D × DEFAULT_QUEUE_DEPTH` blocks), which
/// is also the batch bound of [`crate::machine::Pdm::ingest`] and
/// [`crate::machine::Pdm::inspect`].
pub const DEFAULT_QUEUE_DEPTH: usize = 32;

/// The pipeline helpers bound their in-flight window in **blocks**, not
/// batches (see [`Pdm::overlap_window_blocks`]). A fixed batch count is
/// the wrong unit: a coarse three-pass load issues full-stripe batches
/// (where a couple of batches are already classic double buffering),
/// while `seven_pass`'s fine-grained sub-batch emission issues `D`-block
/// slivers — at the same batch depth it keeps an order of magnitude less
/// data in flight and stalls on most retirements. A block budget gives
/// both the same bytes-in-flight, so the fine-grained pipelines go deep
/// enough to hide ~100µs device latency. One batch is always admitted
/// even when it alone exceeds the budget (progress guarantee).
///
/// Deepening the window changes wall-clock only: step costs are charged
/// at issue with the blocking batch rule, and writes to the same slot
/// stay ordered (each disk's write stream is one FIFO queue).
///
/// Batch-schedule read-ahead: runs a precomputed list of read batches a
/// bounded window ahead of the consumer. Every schedule entry keeps its
/// own step charge (the blocking batch rule, applied per entry), so pass
/// and step accounting are byte-identical with overlap on or off — the
/// only difference is *when* the data movement happens relative to
/// compute.
///
/// Consecutive entries are *coalesced* into one storage submission up to
/// half the window budget ([`Pdm::start_read_blocks`]): emulated
/// backends then pay their per-batch seek latency once per group instead
/// of once per sliver, and the real-disk backend gets deep submissions.
/// Half the budget keeps two groups alive — one being consumed while the
/// next is in flight — which is the classic double buffer at group
/// granularity. Speculative schedules never coalesce: a data-dependent
/// abort mid-group would have charged steps the blocking path never
/// reaches.
///
/// Completion stays FIFO here deliberately: the consumer needs batches in
/// schedule order, so out-of-order retirement could only reorder waits,
/// not deliveries, and would buy nothing.
///
/// With overlap disabled ([`Pdm::overlap`](crate::machine::Pdm::overlap)
/// is false) every `next_into` degenerates to a blocking
/// [`Pdm::read_blocks`], so pipelines wire this in unconditionally.
///
/// Memory note: single-step groups wait the pending read directly into
/// the *caller's* buffer; multi-step groups land in an untracked staging
/// vector — the same accounting bucket as the backend-owned in-flight
/// copies — so a pipeline's tracked peak is unchanged by enabling
/// overlap.
pub struct ReadAhead<K: PdmKey> {
    steps: Vec<Vec<(Region, usize)>>,
    next: usize,
    /// In-flight groups: the pending read, per-step key counts, and the
    /// group's total block count.
    inflight: std::collections::VecDeque<(TrackedRead<K>, Vec<usize>, usize)>,
    inflight_blocks: usize,
    budget_blocks: usize,
    /// Retired multi-step group data not yet handed to the consumer
    /// (untracked; served front to back).
    staged: Vec<K>,
    staged_pos: usize,
    staged_steps: std::collections::VecDeque<usize>,
    /// Defer batch accounting to consumption time (see
    /// [`ReadAhead::new_speculative`]).
    speculative: bool,
    enabled: bool,
}

impl<K: PdmKey> ReadAhead<K> {
    /// Schedule `steps`, issuing the leading window immediately when the
    /// machine has overlap enabled. Every step must be non-empty, so that
    /// each `next_into` call maps to exactly one schedule entry in both
    /// the overlapped and the blocking mode.
    pub fn new<S: Storage<K>>(
        pdm: &mut Pdm<K, S>,
        steps: Vec<Vec<(Region, usize)>>,
    ) -> Result<Self> {
        Self::with_mode(pdm, steps, false)
    }

    /// Like [`ReadAhead::new`], but every batch is issued *speculatively*:
    /// nothing is charged to the step counters or probe stream until the
    /// consumer actually retires the batch, and dropping the helper
    /// abandons unconsumed batches without a trace. This is the only safe
    /// shape for schedules a data-dependent abort may cut short — the
    /// blocking path never charges batches past the abort point, and
    /// neither does this one.
    pub fn new_speculative<S: Storage<K>>(
        pdm: &mut Pdm<K, S>,
        steps: Vec<Vec<(Region, usize)>>,
    ) -> Result<Self> {
        Self::with_mode(pdm, steps, true)
    }

    fn with_mode<S: Storage<K>>(
        pdm: &mut Pdm<K, S>,
        steps: Vec<Vec<(Region, usize)>>,
        speculative: bool,
    ) -> Result<Self> {
        debug_assert!(steps.iter().all(|s| !s.is_empty()), "empty read-ahead step");
        let mut ra = Self {
            steps,
            next: 0,
            inflight: std::collections::VecDeque::new(),
            inflight_blocks: 0,
            budget_blocks: pdm.overlap_window_blocks(),
            staged: Vec::new(),
            staged_pos: 0,
            staged_steps: std::collections::VecDeque::new(),
            speculative,
            enabled: pdm.overlap(),
        };
        if ra.enabled {
            ra.top_up(pdm)?;
        }
        Ok(ra)
    }

    fn top_up<S: Storage<K>>(&mut self, pdm: &mut Pdm<K, S>) -> Result<()> {
        // Coalescing grain: half the window, so at least two groups stay
        // alive. Speculative schedules submit step by step (see above).
        let group_cap = if self.speculative {
            0
        } else {
            self.budget_blocks / 2
        };
        while self.next < self.steps.len() {
            let blocks = self.steps[self.next].len();
            if !self.inflight.is_empty() && self.inflight_blocks + blocks > self.budget_blocks {
                break;
            }
            let start = self.next;
            let mut group_blocks = blocks;
            self.next += 1;
            while self.next < self.steps.len() {
                let b = self.steps[self.next].len();
                if group_blocks + b > group_cap
                    || self.inflight_blocks + group_blocks + b > self.budget_blocks
                {
                    break;
                }
                group_blocks += b;
                self.next += 1;
            }
            let (pending, step_keys) = {
                let group = &self.steps[start..self.next];
                let step_keys: Vec<usize> = group
                    .iter()
                    .map(|s| s.len() * pdm.cfg().block_size)
                    .collect();
                let pending = if self.speculative {
                    pdm.start_read_blocks_speculative(&group[0])?
                } else {
                    pdm.start_read_blocks(group)?
                };
                (pending, step_keys)
            };
            self.inflight.push_back((pending, step_keys, group_blocks));
            self.inflight_blocks += group_blocks;
        }
        Ok(())
    }

    /// Batches in the schedule.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Append the next batch's keys to `out` and keep the read-ahead
    /// window full. Returns false when the schedule is exhausted (every
    /// issued batch has then been retired — nothing is left pending).
    pub fn next_into<S: Storage<K>>(
        &mut self,
        pdm: &mut Pdm<K, S>,
        out: &mut Vec<K>,
    ) -> Result<bool> {
        if !self.enabled {
            if self.next >= self.steps.len() {
                return Ok(false);
            }
            pdm.read_blocks(self.steps[self.next].iter().copied(), out)?;
            self.next += 1;
            return Ok(true);
        }
        // Serve steps still staged from the last retired group first.
        if let Some(keys) = self.staged_steps.pop_front() {
            out.extend_from_slice(&self.staged[self.staged_pos..self.staged_pos + keys]);
            self.staged_pos += keys;
            if self.staged_steps.is_empty() {
                self.staged.clear();
                self.staged_pos = 0;
            }
            return Ok(true);
        }
        let Some((pending, step_keys, blocks)) = self.inflight.pop_front() else {
            return Ok(false);
        };
        self.inflight_blocks -= blocks;
        let keys: usize = step_keys.iter().sum();
        if step_keys.len() == 1 {
            let base = out.len();
            out.resize(base + keys, K::MAX);
            pdm.finish_read_blocks(pending, &mut out[base..])?;
        } else {
            self.staged.resize(keys, K::MAX);
            pdm.finish_read_blocks(pending, &mut self.staged)?;
            out.extend_from_slice(&self.staged[..step_keys[0]]);
            self.staged_pos = step_keys[0];
            self.staged_steps = step_keys[1..].iter().copied().collect();
        }
        self.top_up(pdm)?;
        Ok(true)
    }
}

/// Write-behind for batch-shaped writers: each `write` is staged (the
/// payload is copied immediately, so the caller's buffer is reusable the
/// moment the call returns) and consecutive batches are *coalesced* into
/// one storage submission up to half the window budget
/// ([`Pdm::start_write_blocks`]) — every staged batch keeps its own
/// step charge, but emulated backends pay per-batch seek latency once per
/// group and the real-disk backend gets deep submissions. Once the
/// in-flight window exceeds the machine's block budget
/// ([`Pdm::overlap_window_blocks`]) the helper retires submissions to
/// make room, and `finish` drains the rest.
///
/// Room is made by retiring the oldest submission, blocking on it if need
/// be, until the incoming one fits. The worker driver's one write worker
/// completes submissions in issue order, so a younger submission is never
/// done while an older one waits, and a sweep for completed tokens could
/// only find a prefix whose length depends on timing. Retiring by count
/// alone keeps every `OverlapComplete` probe event at the same position on
/// every backend and in every run; only its `stalled` flag is wall-clock.
///
/// The staging buffers are untracked, like the backend-owned in-flight
/// copies the unstaged path already makes: a pipeline's tracked peak is
/// unchanged by enabling overlap.
///
/// With overlap disabled every call degenerates to the blocking
/// [`Pdm::write_blocks`].
pub struct WriteBehind<K: PdmKey> {
    /// In-flight submissions with their block counts.
    inflight: std::collections::VecDeque<(TrackedWrite, usize)>,
    inflight_blocks: usize,
    budget_blocks: usize,
    /// Staged batches awaiting coalesced submission (untracked).
    staged_steps: Vec<Vec<(Region, usize)>>,
    staged_data: Vec<K>,
    staged_blocks: usize,
    /// Coalescing grain in blocks (half the window); 0 submits every
    /// batch as soon as it is staged.
    group_cap: usize,
    enabled: bool,
}

impl<K: PdmKey> WriteBehind<K> {
    /// A writer gated on the machine's overlap switch.
    pub fn new<S: Storage<K>>(pdm: &Pdm<K, S>) -> Self {
        let budget_blocks = pdm.overlap_window_blocks();
        Self {
            inflight: std::collections::VecDeque::new(),
            inflight_blocks: 0,
            budget_blocks,
            staged_steps: Vec::new(),
            staged_data: Vec::new(),
            staged_blocks: 0,
            group_cap: budget_blocks / 2,
            enabled: pdm.overlap(),
        }
    }

    fn retire_oldest<S: Storage<K>>(&mut self, pdm: &mut Pdm<K, S>) -> Result<()> {
        if let Some((p, blocks)) = self.inflight.pop_front() {
            self.inflight_blocks -= blocks;
            pdm.finish_write_blocks(p)?;
        }
        Ok(())
    }

    /// Make room for an `incoming`-block submission by retiring the oldest
    /// ones (FIFO). One submission is always admitted even when it alone
    /// exceeds the budget (progress guarantee).
    fn make_room<S: Storage<K>>(&mut self, pdm: &mut Pdm<K, S>, incoming: usize) -> Result<()> {
        while !self.inflight.is_empty() && self.inflight_blocks + incoming > self.budget_blocks {
            self.retire_oldest(pdm)?;
        }
        Ok(())
    }

    /// Submit the staged group as one storage batch (each staged step
    /// keeps its own charge).
    fn flush_staged<S: Storage<K>>(&mut self, pdm: &mut Pdm<K, S>) -> Result<()> {
        if self.staged_steps.is_empty() {
            return Ok(());
        }
        self.make_room(pdm, self.staged_blocks)?;
        let pending = pdm.start_write_blocks(&self.staged_steps, &self.staged_data)?;
        self.inflight.push_back((pending, self.staged_blocks));
        self.inflight_blocks += self.staged_blocks;
        self.staged_steps.clear();
        self.staged_data.clear();
        self.staged_blocks = 0;
        Ok(())
    }

    /// Stage one batch, submitting the accumulated group when it reaches
    /// the coalescing grain.
    fn push_step<S: Storage<K>>(
        &mut self,
        pdm: &mut Pdm<K, S>,
        step: Vec<(Region, usize)>,
        data: &[K],
    ) -> Result<()> {
        let blocks = step.len();
        if self.staged_blocks > 0 && self.staged_blocks + blocks > self.group_cap {
            self.flush_staged(pdm)?;
        }
        self.staged_steps.push(step);
        self.staged_data.extend_from_slice(data);
        self.staged_blocks += blocks;
        if self.staged_blocks >= self.group_cap {
            self.flush_staged(pdm)?;
        }
        Ok(())
    }

    /// Write one batch, named as [`Pdm::write_blocks`] takes it.
    pub fn write<S: Storage<K>>(
        &mut self,
        pdm: &mut Pdm<K, S>,
        blocks: impl IntoIterator<Item = (Region, usize)>,
        data: &[K],
    ) -> Result<()> {
        if !self.enabled {
            return pdm.write_blocks(blocks, data);
        }
        self.push_step(pdm, blocks.into_iter().collect(), data)
    }

    /// Submit any staged batches and retire every in-flight submission
    /// without consuming the writer — for writers that live across a
    /// phase boundary and keep emitting after it. Must be called before
    /// the phase ends so the checkpoint boundary sees a settled disk
    /// image.
    pub fn drain<S: Storage<K>>(&mut self, pdm: &mut Pdm<K, S>) -> Result<()> {
        self.flush_staged(pdm)?;
        while !self.inflight.is_empty() {
            self.retire_oldest(pdm)?;
        }
        Ok(())
    }

    /// Submit any staged batches and retire every remaining in-flight
    /// submission. Must be called before the phase ends so the checkpoint
    /// boundary sees a settled disk image.
    pub fn finish<S: Storage<K>>(mut self, pdm: &mut Pdm<K, S>) -> Result<()> {
        self.drain(pdm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PdmConfig;
    use crate::storage_threaded::ThreadedStorage;
    use std::sync::{Mutex, PoisonError};
    use std::time::{Duration, Instant};

    /// Held by each wall-clock test, so two never run at once and skew
    /// each other's timings.
    static WALL_CLOCK: Mutex<()> = Mutex::new(());

    /// The wall-clock tests' simulated disk latency per block, and their
    /// compute per stripe: long enough that scheduler noise on a loaded
    /// host stays small beside it.
    const TICK: Duration = Duration::from_millis(6);

    /// `r` as a read schedule of `batch`-block steps.
    fn batch_steps(r: Region, batch: usize) -> Vec<Vec<(Region, usize)>> {
        (0..r.len_blocks())
            .step_by(batch)
            .map(|s| {
                (s..(s + batch).min(r.len_blocks()))
                    .map(|i| (r, i))
                    .collect()
            })
            .collect()
    }

    /// A machine whose overlap window holds exactly one `batch`-block
    /// batch: the classic double buffer.
    fn one_batch_window<S: Storage<u64>>(pdm: &mut Pdm<u64, S>, batch: usize) {
        pdm.set_overlap(true);
        pdm.set_overlap_window(Some(batch));
    }

    /// The fastest of three timed runs of `leg`, with that run's result.
    /// Scheduler noise on a loaded host only ever adds time, so each leg's
    /// minimum is its cleanest reading.
    fn fastest<R>(mut leg: impl FnMut() -> (Duration, R)) -> (Duration, R) {
        (0..3)
            .map(|_| leg())
            .min_by_key(|(t, _)| *t)
            .expect("three runs")
    }

    #[test]
    fn overlap_hides_disk_latency_on_threaded_backend() {
        // Per-block latency 6ms; 32 blocks in batches of 4 over 4 disks →
        // 8 stripes ≈ 48ms of pure disk time. With ~6ms of compute per
        // stripe, blocking ≈ 96ms; overlapped ≈ max(disk, compute) + ε.
        let _serial = WALL_CLOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let (d, b) = (4usize, 16usize);
        let lat = TICK;
        let n = 32 * b;
        let data: Vec<u64> = (0..n as u64).collect();
        let compute = |chunk: &[u64]| -> u64 {
            // deterministic checksum + 6ms of "compute" per stripe. Slept,
            // not spun: on a single-core host a spinning consumer starves
            // the disk workers' reply sends, which would measure scheduler
            // contention instead of I/O overlap (real disk completion is
            // interrupt-driven and doesn't contend with the CPU this way).
            let mut acc = 0u64;
            for &k in chunk {
                acc = acc.wrapping_add(k).rotate_left(7);
            }
            std::thread::sleep(TICK);
            acc
        };

        // blocking
        let (blocking, acc) = fastest(|| {
            let storage = ThreadedStorage::<u64>::with_latency(d, b, lat);
            let mut pdm = Pdm::with_storage(PdmConfig::new(d, b, 8 * d * b), storage).unwrap();
            let r = pdm.alloc_region_for_keys(n).unwrap();
            pdm.ingest(&r, &data).unwrap();
            let t0 = Instant::now();
            let mut rd = crate::stream::RunReader::new(&pdm, r, n, d).unwrap();
            let mut buf = Vec::new();
            let mut acc = 0u64;
            loop {
                buf.clear();
                if rd.take_into(&mut pdm, d * b, &mut buf).unwrap() == 0 {
                    break;
                }
                acc ^= compute(&buf);
            }
            (t0.elapsed(), acc)
        });

        // overlapped: the next stripe is in flight while this one computes
        let (overlapped, acc2) = fastest(|| {
            let storage = ThreadedStorage::<u64>::with_latency(d, b, lat);
            let mut pdm = Pdm::with_storage(PdmConfig::new(d, b, 8 * d * b), storage).unwrap();
            one_batch_window(&mut pdm, d);
            let r = pdm.alloc_region_for_keys(n).unwrap();
            pdm.ingest(&r, &data).unwrap();
            let t0 = Instant::now();
            let mut ra = ReadAhead::new(&mut pdm, batch_steps(r, d)).unwrap();
            let mut buf = Vec::new();
            let mut acc2 = 0u64;
            loop {
                buf.clear();
                if !ra.next_into(&mut pdm, &mut buf).unwrap() {
                    break;
                }
                acc2 ^= compute(&buf);
            }
            (t0.elapsed(), acc2)
        });

        assert_eq!(acc, acc2);
        assert!(
            overlapped.as_secs_f64() < blocking.as_secs_f64() * 0.8,
            "overlap gave no benefit: blocking {blocking:?}, overlapped {overlapped:?}"
        );
    }

    #[test]
    fn write_behind_hides_latency_on_threaded_backend() {
        let _serial = WALL_CLOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let (d, b) = (4usize, 16usize);
        let lat = TICK;
        let n = 32 * b;
        let data: Vec<u64> = (0..n as u64).collect();

        // blocking writes (RunWriter waits out each stripe)
        let (blocking, written) = fastest(|| {
            let storage = ThreadedStorage::<u64>::with_latency(d, b, lat);
            let mut pdm = Pdm::with_storage(PdmConfig::new(d, b, 8 * d * b), storage).unwrap();
            let r = pdm.alloc_region_for_keys(n).unwrap();
            let t0 = Instant::now();
            let mut w = crate::stream::RunWriter::new(&pdm, r, d).unwrap();
            for chunk in data.chunks(d * b) {
                w.push_slice(&mut pdm, chunk).unwrap();
                std::thread::sleep(TICK); // producer compute
            }
            w.finish(&mut pdm).unwrap();
            (t0.elapsed(), pdm.inspect_prefix(&r, n).unwrap())
        });

        // write-behind
        let (overlapped, written2) = fastest(|| {
            let storage = ThreadedStorage::<u64>::with_latency(d, b, lat);
            let mut pdm2 = Pdm::with_storage(PdmConfig::new(d, b, 8 * d * b), storage).unwrap();
            one_batch_window(&mut pdm2, d);
            let r2 = pdm2.alloc_region_for_keys(n).unwrap();
            let t0 = Instant::now();
            let mut wb = WriteBehind::new(&pdm2);
            for (step, chunk) in data.chunks(d * b).enumerate() {
                let blocks = (step * d..(step + 1) * d).map(|i| (r2, i));
                wb.write(&mut pdm2, blocks, chunk).unwrap();
                std::thread::sleep(TICK);
            }
            wb.finish(&mut pdm2).unwrap();
            (t0.elapsed(), pdm2.inspect_prefix(&r2, n).unwrap())
        });

        assert_eq!(written, written2);
        assert!(
            overlapped.as_secs_f64() < blocking.as_secs_f64() * 0.8,
            "write-behind gave no benefit: {blocking:?} vs {overlapped:?}"
        );
    }

    #[test]
    fn eager_pending_checks_length() {
        let p = Box::new(EagerPending {
            data: vec![1u64, 2],
        });
        let mut small = [0u64; 1];
        assert!(p.wait(&mut small).is_err());
    }

    #[test]
    fn overlap_counters_track_batches_hits_and_stalls() {
        // eager backend: every retirement is a hit, never a stall
        let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::new(4, 8, 256)).unwrap();
        one_batch_window(&mut pdm, 4);
        let n = 512usize;
        let data: Vec<u64> = (0..n as u64).collect();
        let r = pdm.alloc_region_for_keys(n).unwrap();
        pdm.ingest(&r, &data).unwrap();
        let mut ra = ReadAhead::new(&mut pdm, batch_steps(r, 4)).unwrap();
        let mut out = Vec::new();
        while ra.next_into(&mut pdm, &mut out).unwrap() {}
        assert_eq!(out, data);
        let ov = pdm.stats().overlap;
        assert_eq!(ov.prefetch_batches, 16, "64 blocks in 4-block batches");
        assert_eq!(ov.prefetch_hits, 16, "every issued batch retires once");
        assert_eq!(ov.prefetch_stalls, 0, "eager backend never stalls");

        let r2 = pdm.alloc_region_for_keys(n).unwrap();
        let mut wb = WriteBehind::new(&pdm);
        for (step, chunk) in data.chunks(4 * 8).enumerate() {
            let blocks = (step * 4..step * 4 + 4).map(|i| (r2, i));
            wb.write(&mut pdm, blocks, chunk).unwrap();
        }
        wb.finish(&mut pdm).unwrap();
        let ov = pdm.stats().overlap;
        assert_eq!(ov.flush_batches, 16);
        assert_eq!(
            ov.flush_hits + ov.flush_stalls,
            16,
            "every issued batch retires"
        );
        assert_eq!(ov.flush_stalls, 0, "eager backend never stalls");
    }

    #[test]
    fn overlap_counters_balance_on_threaded_backend() {
        // hit/stall split is timing-dependent, but every issued batch must
        // retire exactly once
        let (d, b) = (4usize, 8usize);
        let storage = ThreadedStorage::<u64>::new(d, b);
        let mut pdm = Pdm::with_storage(PdmConfig::new(d, b, 8 * d * b), storage).unwrap();
        one_batch_window(&mut pdm, d);
        let n = 16 * b;
        let data: Vec<u64> = (0..n as u64).collect();
        let r = pdm.alloc_region_for_keys(n).unwrap();
        pdm.ingest(&r, &data).unwrap();
        let mut ra = ReadAhead::new(&mut pdm, batch_steps(r, d)).unwrap();
        let mut out = Vec::new();
        while ra.next_into(&mut pdm, &mut out).unwrap() {}
        assert_eq!(out, data);
        let ov = pdm.stats().overlap;
        assert_eq!(ov.prefetch_batches, 4);
        assert_eq!(ov.prefetch_hits + ov.prefetch_stalls, 4);
    }

    #[test]
    fn read_ahead_matches_blocking_path_exactly() {
        let n = 512usize;
        let data: Vec<u64> = (0..n as u64).map(|i| i * 7 % 509).collect();
        let run = |overlap: bool| {
            let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::new(4, 8, 256)).unwrap();
            pdm.set_overlap(overlap);
            let r = pdm.alloc_region_for_keys(n).unwrap();
            pdm.ingest(&r, &data).unwrap();
            let mut ra = ReadAhead::new(&mut pdm, batch_steps(r, 4)).unwrap();
            let mut out = Vec::new();
            while ra.next_into(&mut pdm, &mut out).unwrap() {}
            assert_eq!(pdm.pending_io(), 0, "schedule exhausted → nothing pending");
            (out, pdm)
        };
        let (on, pdm_on) = run(true);
        let (off, pdm_off) = run(false);
        assert_eq!(on, data);
        assert_eq!(on, off);
        // identical accounting with overlap on or off
        assert_eq!(pdm_on.stats().blocks_read, pdm_off.stats().blocks_read);
        assert_eq!(pdm_on.stats().read_steps, pdm_off.stats().read_steps);
        // the overlap leg actually went through the async machinery; the
        // 16 four-block steps coalesce into one 64-block submission under
        // the 128-block default window (group grain = budget / 2)
        let ov = pdm_on.stats().overlap;
        assert_eq!(ov.prefetch_batches, 1);
        assert_eq!(ov.prefetch_hits + ov.prefetch_stalls, 1);
        assert_eq!(pdm_off.stats().overlap.prefetch_batches, 0);
    }

    #[test]
    fn write_behind_matches_blocking_path_exactly() {
        let n = 256usize;
        let data: Vec<u64> = (0..n as u64).map(|i| i * 11 % 251).collect();
        let run = |overlap: bool| {
            let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::new(4, 8, 256)).unwrap();
            pdm.set_overlap(overlap);
            let r = pdm.alloc_region_for_keys(n).unwrap();
            let mut wb = WriteBehind::new(&pdm);
            for (step, chunk) in data.chunks(4 * 8).enumerate() {
                let blocks = (step * 4..step * 4 + 4).map(|i| (r, i));
                wb.write(&mut pdm, blocks, chunk).unwrap();
            }
            wb.finish(&mut pdm).unwrap();
            assert_eq!(pdm.pending_io(), 0, "finish drains the last batch");
            (pdm.inspect(&r).unwrap(), pdm)
        };
        let (on, pdm_on) = run(true);
        let (off, pdm_off) = run(false);
        assert_eq!(on, off);
        assert_eq!(
            pdm_on.stats().blocks_written,
            pdm_off.stats().blocks_written
        );
        assert_eq!(pdm_on.stats().write_steps, pdm_off.stats().write_steps);
        // the 8 four-block batches coalesce into one 32-block submission
        // under the 128-block default window (group grain = budget / 2)
        let ov = pdm_on.stats().overlap;
        assert_eq!(ov.flush_batches, 1);
        assert_eq!(ov.flush_hits + ov.flush_stalls, 1);
        assert_eq!(pdm_off.stats().overlap.flush_batches, 0);
    }

    #[test]
    fn pending_io_counter_tracks_tokens() {
        let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::new(2, 4, 64)).unwrap();
        let n = 8usize;
        let data: Vec<u64> = (0..n as u64).collect();
        let r = pdm.alloc_region_for_keys(n).unwrap();
        pdm.ingest(&r, &data).unwrap();

        let tok = pdm.start_read_blocks(&[vec![(r, 0), (r, 1)]]).unwrap();
        assert_eq!(pdm.pending_io(), 1);
        let mut out = vec![0u64; 8];
        pdm.finish_read_blocks(tok, &mut out).unwrap();
        assert_eq!(pdm.pending_io(), 0);
        assert_eq!(out, data);

        // abandoned tokens (error-path teardown) also release their slot
        let tok = pdm.start_write_blocks(&[vec![(r, 0)]], &[9u64; 4]).unwrap();
        assert_eq!(pdm.pending_io(), 1);
        drop(tok);
        assert_eq!(pdm.pending_io(), 0);
    }
}
