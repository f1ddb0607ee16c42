//! The PDM machine: storage + I/O accounting + tracked internal memory.
//!
//! [`Pdm`] is what algorithms program against. It exposes:
//!
//! * region allocation on the striped disks ([`Pdm::alloc_region`]), and
//!   the release of a region no later pass reads ([`Pdm::release_region`]),
//!   whose levels the next allocations reuse,
//! * **accounted** batch block I/O — every call updates [`IoStats`] with
//!   block counts and parallel-step costs. A batch is a list of
//!   `(Region, logical block)` pairs, costing `max(per-disk blocks)`
//!   steps: [`Pdm::read_blocks`] / [`Pdm::write_blocks`] move one batch
//!   and block, [`Pdm::read_region`] / [`Pdm::write_region`] move a whole
//!   region as one, and [`Pdm::start_read_blocks`] /
//!   [`Pdm::start_write_blocks`] issue a list of batches as one overlapped
//!   storage submission (plus [`Pdm::start_read_blocks_speculative`]),
//!   retired by [`Pdm::finish_read_blocks`] / [`Pdm::finish_write_blocks`].
//!   Each batch is charged as its own step once the storage call has
//!   returned `Ok`, so a refused call charges nothing,
//! * **tracked** internal-memory buffers ([`Pdm::alloc_buf`]),
//! * unaccounted `ingest`/`inspect` escape hatches for placing the input on
//!   disk and reading the output back (the input "already resides on the
//!   disks" in the model, so materializing it must not count as I/O).

use crate::checkpoint::{Checkpoint, CheckpointStore, Manifest};
use crate::config::PdmConfig;
use crate::error::{PdmError, Result};
use crate::key::PdmKey;
use crate::layout::Region;
use crate::mem::{MemTracker, TrackedBuf};
use crate::overlap::{
    DeferredReadCharge, PendingGuard, TrackedRead, TrackedWrite, DEFAULT_QUEUE_DEPTH,
};
use crate::stats::{IoStats, SpanSink};
use crate::storage::{check_batch_len, MemStorage, Storage};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Checkpoint wiring of a machine: the store manifests are written to,
/// how many phases to replay without I/O, and bookkeeping carried between
/// the infallible phase boundaries.
struct CheckpointState {
    store: CheckpointStore,
    /// Identity of the run, filled into every emitted manifest; on resume
    /// also the frontier and free list the replay must land on.
    base: Manifest,
    /// Phases to replay without storage I/O (from the resume manifest).
    skip_phases: usize,
    /// Phases begun so far (replayed and live).
    phases_seen: usize,
    /// Whether a replayed phase is open: its close stands for the
    /// manifest the original run saved there.
    replay_open: bool,
    /// Names of completed phases (carried over on resume, then appended).
    completed_names: Vec<String>,
    /// First error deferred from an infallible boundary (manifest write
    /// failure, or frontier or free-list drift). Surfaced via
    /// [`Checkpoint::take_checkpoint_error`].
    deferred: Option<PdmError>,
    /// The frontier or free-list mismatch found at the last replayed
    /// boundary: every storage call after it fails with this message.
    drift: Option<String>,
}

/// A simulated parallel-disk machine over storage backend `S`.
pub struct Pdm<K: PdmKey, S: Storage<K> = MemStorage<K>> {
    cfg: PdmConfig,
    storage: S,
    stats: IoStats,
    mem: Arc<MemTracker>,
    /// Slot levels: the high-water mark, the free list, live regions.
    levels: Levels,
    /// Scratch: per-disk multiplicities of the current batch.
    disk_counts: Vec<u64>,
    /// Scratch: physical addresses of the current batch.
    addr_buf: Vec<(usize, usize)>,
    /// Live view of an attached retry layer's counters, folded into
    /// `stats.retry` at phase boundaries and sync points.
    retry: Option<crate::storage_retry::RetryCounters>,
    /// Checkpoint wiring, when attached (see [`Checkpoint`]).
    ckpt: Option<Box<CheckpointState>>,
    /// Whether algorithm pipelines should issue overlapped I/O
    /// (see [`Pdm::set_overlap`]). Off by default: overlap changes
    /// wall-clock only, never the accounted pass counts.
    overlap: bool,
    /// Explicit overlap window budget in blocks, when configured (see
    /// [`Pdm::set_overlap_window`]); `None` derives the default from the
    /// disk count and [`DEFAULT_QUEUE_DEPTH`].
    overlap_window: Option<usize>,
    /// Overlap tokens issued but not yet retired. Checkpoint boundaries
    /// refuse to persist a manifest while this is non-zero — a pending
    /// write means the disks are not settled.
    pending_io: Arc<AtomicUsize>,
    /// Span sink for wall-clock trace export, when attached (see
    /// [`Pdm::attach_span_sink`]): the machine records one span per named
    /// phase; the backend records per-service spans.
    span_sink: Option<Arc<SpanSink>>,
    /// The open phase's wall-clock span, closed at the next boundary.
    open_phase_wall: Option<(String, Instant)>,
    _key: std::marker::PhantomData<K>,
}

impl<K: PdmKey> Pdm<K, MemStorage<K>> {
    /// A machine with the default in-memory backend.
    pub fn new(cfg: PdmConfig) -> Result<Self> {
        let storage = MemStorage::new(cfg.num_disks, cfg.block_size);
        Self::with_storage(cfg, storage)
    }
}

impl<K: PdmKey, S: Storage<K>> Pdm<K, S> {
    /// A machine over an explicit storage backend (file-backed, threaded, …).
    pub fn with_storage(cfg: PdmConfig, storage: S) -> Result<Self> {
        cfg.validate()?;
        if storage.num_disks() != cfg.num_disks || storage.block_size() != cfg.block_size {
            return Err(PdmError::BadConfig(format!(
                "storage geometry ({} disks, B = {}) does not match config ({} disks, B = {})",
                storage.num_disks(),
                storage.block_size(),
                cfg.num_disks,
                cfg.block_size
            )));
        }
        Ok(Self {
            stats: IoStats::new(cfg.num_disks),
            mem: MemTracker::new(cfg.mem_limit()),
            levels: Levels::default(),
            disk_counts: vec![0; cfg.num_disks],
            addr_buf: Vec::new(),
            retry: None,
            ckpt: None,
            overlap: false,
            overlap_window: None,
            pending_io: Arc::new(AtomicUsize::new(0)),
            span_sink: None,
            open_phase_wall: None,
            cfg,
            storage,
            _key: std::marker::PhantomData,
        })
    }

    /// Machine configuration.
    pub fn cfg(&self) -> &PdmConfig {
        &self.cfg
    }

    /// Cumulative I/O counters.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Mutable access to the counters (for phase bracketing).
    pub fn stats_mut(&mut self) -> &mut IoStats {
        &mut self.stats
    }

    /// Reset all I/O counters (memory peak included). Probe enablement
    /// survives the reset with its original cap, so callers that reset
    /// between staging and measurement keep observability on.
    pub fn reset_stats(&mut self) {
        let probe_cap = self.stats.probe_capacity();
        self.stats = IoStats::new(self.cfg.num_disks);
        if let Some(cap) = probe_cap {
            self.stats.enable_probe(cap);
        }
        self.mem.reset_peak();
    }

    /// Attach a live view of a [`crate::storage_retry::RetryingStorage`]'s
    /// counters (obtained from
    /// [`crate::storage_retry::RetryingStorage::counters`] before the
    /// storage moves into the machine). The machine folds a snapshot into
    /// [`IoStats::retry`] — and drops `retry.*` probe gauges when the
    /// counters moved — at every phase boundary and sync point.
    pub fn attach_retry_counters(&mut self, counters: crate::storage_retry::RetryCounters) {
        self.retry = Some(counters);
    }

    /// Fold the attached retry counters (if any) into `stats.retry`,
    /// emitting probe gauges when they changed since the last fold.
    fn refresh_retry_stats(&mut self) {
        if let Some(c) = &self.retry {
            let snap = c.snapshot();
            if snap != self.stats.retry {
                self.stats
                    .probe_gauge("retry.retries", snap.total_retries() as i64);
                if snap.completion_retries() > 0 {
                    self.stats
                        .probe_gauge("retry.completion", snap.completion_retries() as i64);
                }
                self.stats
                    .probe_gauge("retry.exhausted", snap.exhausted as i64);
                self.stats
                    .probe_gauge("retry.backoff_steps", snap.backoff_steps as i64);
                for (d, &n) in snap.per_disk_retries.iter().enumerate() {
                    if n > 0 {
                        self.stats
                            .probe_gauge(&format!("retry.disk{d}.retries"), n as i64);
                    }
                }
                self.stats.retry = snap;
            }
        }
    }

    /// Harvest the backend's cumulative wall-clock telemetry (per-disk
    /// latency histograms, queue gauges, uring counters) into
    /// [`IoStats::wall`]. The snapshot is cumulative, so each harvest
    /// overwrites the previous one — mirroring the retry fold above.
    /// Wall-clock only: no probe events, no step-counter effect.
    fn refresh_wall_stats(&mut self) {
        if let Some(w) = self.storage.wall_snapshot() {
            self.stats.wall.disks = w.disks;
            self.stats.wall.uring = w.uring;
        }
    }

    /// Attach a shared span sink for wall-clock trace export: the machine
    /// records one span per named phase on [`SpanSink::PHASE_TRACK`], and
    /// backends that time their I/O record one span per service operation
    /// on per-disk tracks. Purely observational — probe streams and step
    /// counters are identical with and without a sink attached.
    pub fn attach_span_sink(&mut self, sink: Arc<SpanSink>) {
        sink.register_track(SpanSink::PHASE_TRACK, "phases");
        self.storage.attach_span_sink(Arc::clone(&sink));
        self.span_sink = Some(sink);
    }

    /// Close the open phase span (if tracing) and optionally open a new one.
    fn roll_phase_span(&mut self, next: Option<String>) {
        if let Some(sink) = &self.span_sink {
            let now = Instant::now();
            if let Some((name, t0)) = self.open_phase_wall.take() {
                sink.record(SpanSink::PHASE_TRACK, &name, t0, now);
            }
            self.open_phase_wall = next.map(|n| (n, now));
        }
    }

    /// Block-buffer pool counters of the backend: `None`, since no
    /// backend pools block buffers (see [`Storage::pool_stats`]).
    pub fn pool_stats(&self) -> Option<crate::pool::PoolStats> {
        self.storage.pool_stats()
    }

    /// Whether the machine is replaying already-checkpointed phases: block
    /// I/O and stats are elided until the first incomplete phase opens.
    fn replaying(&self) -> bool {
        self.ckpt
            .as_deref()
            .is_some_and(|c| c.skip_phases > 0 && c.phases_seen <= c.skip_phases)
    }

    /// Open a named phase, sampling memory gauges from the machine's
    /// [`MemTracker`] at the boundary (see [`IoStats::begin_phase_gauged`]).
    /// Algorithms should prefer this over `stats_mut().begin_phase` so that
    /// per-phase residency shows up in reports and probe streams (and so
    /// checkpoint replay can count phases).
    pub fn begin_phase(&mut self, name: impl Into<String>) {
        let name = name.into();
        self.close_replayed_phase();
        if let Some(c) = self.ckpt.as_deref_mut() {
            c.phases_seen += 1;
            if c.skip_phases > 0 && c.phases_seen <= c.skip_phases {
                c.replay_open = true;
                return; // replayed phase: no stats, no storage I/O
            }
        }
        self.refresh_retry_stats();
        self.refresh_wall_stats();
        self.roll_phase_span(Some(name.clone()));
        let (cur, peak) = (self.mem.current(), self.mem.peak());
        self.stats.begin_phase_gauged(name, cur, peak);
        // Opening a phase auto-closes the previous one at the stats layer;
        // checkpoint the just-closed phase so algorithms that bracket with
        // back-to-back begin_phase calls still checkpoint every pass.
        self.write_checkpoint();
    }

    /// Close the open phase with memory gauges sampled at the boundary.
    /// With a checkpoint attached, a completed live phase syncs the
    /// backend and atomically persists a manifest; failures there are
    /// deferred (see [`Checkpoint::take_checkpoint_error`]) so the phase
    /// boundary itself stays infallible.
    pub fn end_phase(&mut self) {
        if self.replaying() {
            self.close_replayed_phase();
            return;
        }
        self.refresh_retry_stats();
        self.refresh_wall_stats();
        self.roll_phase_span(None);
        let (cur, peak) = (self.mem.current(), self.mem.peak());
        self.stats.end_phase_gauged(cur, peak);
        self.write_checkpoint();
    }

    /// Close the open replayed phase, if any, as the original run closed
    /// it: that run saved a manifest here, which made the levels released
    /// during the phase reusable. At the last replayed phase the algorithm
    /// has replayed every allocation and release the completed phases
    /// made, so the frontier and the free list must match the manifest's.
    /// Drift means the allocation order differs from the checkpointed
    /// run's (a nondeterministic sorter, or a manifest written by another
    /// layout), so the resumed run would read the wrong regions: from here
    /// on every storage call fails with the mismatch (see
    /// [`Pdm::check_drift`]), and the error is also deferred.
    fn close_replayed_phase(&mut self) {
        let Some(c) = self.ckpt.as_deref_mut().filter(|c| c.replay_open) else {
            return;
        };
        c.replay_open = false;
        self.levels.make_held_reusable();
        if c.phases_seen != c.skip_phases || c.deferred.is_some() {
            return;
        }
        let (frontier, free) = (self.levels.top, &self.levels.free);
        let drift = if frontier != c.base.frontier {
            format!(
                "resume frontier mismatch: replayed allocations reached slot {frontier}, \
                 checkpoint recorded {}",
                c.base.frontier
            )
        } else if *free != c.base.free {
            format!(
                "resume free list mismatch: replayed releases left levels {free:?} free, \
                 checkpoint recorded {:?}",
                c.base.free
            )
        } else {
            return;
        };
        c.deferred = Some(PdmError::BadConfig(drift.clone()));
        c.drift = Some(drift);
    }

    /// Refuse a storage call once a resume has drifted from its manifest
    /// (see [`Pdm::close_replayed_phase`]): nothing is read or written
    /// live over a layout the checkpointed run did not have.
    fn check_drift(&self) -> Result<()> {
        match self.ckpt.as_deref().and_then(|c| c.drift.as_deref()) {
            Some(drift) => Err(PdmError::BadConfig(drift.to_string())),
            None => Ok(()),
        }
    }

    /// Persist a manifest for the just-closed phase, if a checkpoint store
    /// is attached and a new live phase actually closed. The manifest
    /// records the levels released since the last one as free, and only a
    /// durable save makes them reusable: if this save fails, a resume
    /// starts from an earlier manifest and re-runs phases that read those
    /// levels, so they stay unused for the rest of the run.
    fn write_checkpoint(&mut self) {
        let Some(c) = self.ckpt.as_deref() else {
            return;
        };
        let total = c.skip_phases + self.stats.phases.len();
        if total <= c.completed_names.len() {
            return; // end_phase without a newly closed phase
        }
        if let Err(e) = self.save_manifest() {
            let c = self.ckpt.as_deref_mut().expect("checked above");
            c.deferred.get_or_insert(e);
        }
        self.levels.held.clear();
    }

    /// Sync the backend and save the manifest of every phase closed so
    /// far; on success the held levels become reusable.
    fn save_manifest(&mut self) -> Result<()> {
        // The manifest asserts the pass's output is settled on disk; an
        // unretired overlap read/write means it is not. Refuse to persist a
        // manifest in that state rather than record a stale frontier.
        let pending = self.pending_io.load(Ordering::Relaxed);
        if pending > 0 {
            return Err(PdmError::PendingIo { pending });
        }
        // Flush the backend before writing the manifest.
        self.check_drift()?;
        self.storage.sync()?;
        let mut free = self.levels.free.clone();
        for r in &self.levels.held {
            insert_range(&mut free, r.clone());
        }
        let phases = &self.stats.phases;
        let c = self
            .ckpt
            .as_deref_mut()
            .expect("checked by write_checkpoint");
        for p in &phases[(c.completed_names.len() - c.skip_phases)..] {
            c.completed_names.push(p.name.clone());
        }
        let mut m = c.base.clone();
        m.completed = c.skip_phases + phases.len();
        m.frontier = self.levels.top;
        m.free = free;
        m.phases = c.completed_names.clone();
        c.store.save(&m)?;
        self.levels.free = m.free;
        Ok(())
    }

    /// Attach a structured event probe to the machine's counters (see
    /// [`IoStats::enable_probe`]).
    pub fn enable_probe(&mut self, cap: usize) {
        self.stats.enable_probe(cap);
    }

    /// The internal-memory accountant.
    pub fn mem(&self) -> &Arc<MemTracker> {
        &self.mem
    }

    /// Allocate a tracked working buffer of `cap` keys.
    pub fn alloc_buf(&self, cap: usize) -> Result<TrackedBuf<K>> {
        TrackedBuf::with_capacity(&self.mem, cap)
    }

    /// Allocate a striped region of `num_blocks` blocks starting on disk 0.
    pub fn alloc_region(&mut self, num_blocks: usize) -> Result<Region> {
        self.alloc_region_at(num_blocks, 0)
    }

    /// Allocate a striped region whose logical block 0 lands on `start_disk`
    /// (diagonal striping for layouts that need rotated starts). The
    /// region takes the lowest free range of levels that fits it (see
    /// [`Pdm::release_region`]), else new levels at the top, so placement
    /// depends only on the sequence of allocations and releases.
    pub fn alloc_region_at(&mut self, num_blocks: usize, start_disk: usize) -> Result<Region> {
        let (d, b) = (self.cfg.num_disks, self.cfg.block_size);
        if start_disk >= d {
            return Err(PdmError::BadDisk {
                disk: start_disk,
                num_disks: d,
            });
        }
        self.check_drift()?;
        let levels = Region::new(0, start_disk, num_blocks, d, b).max_slot() + 1;
        let base = self.levels.take(levels);
        let region = Region::new(base, start_disk, num_blocks, d, b);
        for disk in 0..d {
            self.storage.ensure_capacity(disk, self.levels.top)?;
        }
        self.levels.live.insert(base, region);
        Ok(region)
    }

    /// Return a whole region's levels to the free list, once no later
    /// phase reads it: the next allocations write over them. Refuses a
    /// sub-region, a region that is not currently allocated (a double
    /// release), and any call while overlap I/O is outstanding
    /// ([`PdmError::PendingIo`]) — nothing else stops a later write from
    /// landing in a slot an in-flight read still covers. With a
    /// checkpoint store attached, the levels become reusable only once a
    /// durable manifest records the release (see [`Checkpoint`]).
    pub fn release_region(&mut self, region: &Region) -> Result<()> {
        let pending = self.pending_io();
        if pending > 0 {
            return Err(PdmError::PendingIo { pending });
        }
        self.check_whole_region(region)?;
        let base = region.base_slot();
        self.levels.live.remove(&base);
        let list = if self.ckpt.is_some() {
            &mut self.levels.held
        } else {
            &mut self.levels.free
        };
        insert_range(list, base..region.max_slot() + 1);
        Ok(())
    }

    /// Refuse a region that [`Pdm::release_region`] would refuse as not a
    /// whole allocated region (a sub-region, one never allocated, one
    /// already released), with the same error. A sorter that releases its
    /// input checks it with this before any I/O.
    pub fn check_whole_region(&self, region: &Region) -> Result<()> {
        let base = region.base_slot();
        if self.levels.live.get(&base) != Some(region) {
            return Err(PdmError::BadConfig(format!(
                "release of levels {base}..{}: not a whole allocated region",
                region.max_slot() + 1
            )));
        }
        Ok(())
    }

    /// Whether a checkpoint store is attached (see [`Checkpoint`]). A
    /// resumed pass re-reads its source from the first block, so a sorter
    /// that would write a pass over the blocks the pass reads keeps them
    /// apart while a store is attached.
    pub fn checkpoint_attached(&self) -> bool {
        self.ckpt.is_some()
    }

    /// The disks' high-water mark in slots: no level at or above it has
    /// ever been allocated. Releases never lower it.
    pub fn next_slot(&self) -> usize {
        self.levels.top
    }

    /// Allocate a region just large enough for `n` keys (the last block is
    /// implicitly padded with `K::MAX`).
    pub fn alloc_region_for_keys(&mut self, n: usize) -> Result<Region> {
        self.alloc_region(self.cfg.blocks_for(n))
    }

    /// Resolve `blocks` to physical addresses in `addr_buf`, in order.
    fn gather(&mut self, blocks: impl IntoIterator<Item = (Region, usize)>) -> Result<()> {
        self.addr_buf.clear();
        for (region, i) in blocks {
            let a = region.addr(i)?;
            self.addr_buf.push((a.disk, a.slot));
        }
        Ok(())
    }

    /// Per-disk block counts of `addr_buf[at..at + len]` in `disk_counts`.
    fn count_disks(&mut self, at: usize, len: usize) {
        self.disk_counts.fill(0);
        for &(disk, _) in &self.addr_buf[at..at + len] {
            self.disk_counts[disk] += 1;
        }
    }

    /// Charge `addr_buf` as consecutive batches of `lens` blocks, each
    /// costing `max(per-disk blocks)` steps. Every entry point calls this
    /// only once the storage call has returned `Ok`, so a refused batch
    /// charges nothing.
    fn charge(&mut self, write: bool, lens: impl IntoIterator<Item = usize>) {
        let mut at = 0;
        for len in lens {
            self.count_disks(at, len);
            at += len;
            if write {
                self.stats.record_write_batch(&self.disk_counts);
            } else {
                self.stats.record_read_batch(&self.disk_counts);
            }
        }
    }

    /// Read one batch of blocks, each named as `(region, logical block)`,
    /// appending `B` keys per block to `out` in request order. The blocks
    /// may come from many regions; a single-region caller maps its range,
    /// `(lo..hi).map(|i| (region, i))`. Accounted: the batch costs
    /// `max(per-disk block count)` parallel read steps, which is how
    /// algorithms reading one block from each of many staggered regions
    /// keep full disk parallelism.
    ///
    /// # Example
    ///
    /// ```
    /// use pdm_model::prelude::*;
    /// let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::new(4, 8, 64)).unwrap();
    /// // four regions staggered across the four disks
    /// let regions: Vec<Region> = (0..4)
    ///     .map(|i| pdm.alloc_region_at(2, i).unwrap())
    ///     .collect();
    /// let blocks = || regions.iter().map(|r| (*r, 0));
    /// pdm.write_blocks(blocks(), &vec![7u64; 32]).unwrap();
    /// // block 0 of each region is on a distinct disk → one parallel step
    /// assert_eq!(pdm.stats().write_steps, 1);
    /// let mut out = Vec::new();
    /// pdm.read_blocks(blocks(), &mut out).unwrap();
    /// assert_eq!(pdm.stats().read_steps, 1);
    /// ```
    pub fn read_blocks(
        &mut self,
        blocks: impl IntoIterator<Item = (Region, usize)>,
        out: &mut Vec<K>,
    ) -> Result<()> {
        self.check_drift()?;
        let b = self.cfg.block_size;
        if self.replaying() {
            // Checkpoint replay: the phase already ran; hand back `K::MAX`
            // filler (monotone, so downstream sortedness checks stay
            // satisfied) without touching storage or stats.
            let n = blocks.into_iter().count();
            out.resize(out.len() + n * b, K::MAX);
            return Ok(());
        }
        self.gather(blocks)?;
        let (start, n) = (out.len(), self.addr_buf.len());
        out.resize(start + n * b, K::MAX);
        self.storage.read_batch(&self.addr_buf, &mut out[start..])?;
        self.charge(false, [n]);
        Ok(())
    }

    /// Write `data` (exactly `B` keys per block) to one batch of blocks.
    /// Accounted like [`Pdm::read_blocks`].
    pub fn write_blocks(
        &mut self,
        blocks: impl IntoIterator<Item = (Region, usize)>,
        data: &[K],
    ) -> Result<()> {
        self.check_drift()?;
        if self.replaying() {
            // Checkpoint replay: the write already happened.
            let n = blocks.into_iter().count();
            return check_batch_len(n, self.cfg.block_size, data.len());
        }
        self.gather(blocks)?;
        let n = self.addr_buf.len();
        check_batch_len(n, self.cfg.block_size, data.len())?;
        self.storage.write_batch(&self.addr_buf, data)?;
        self.charge(true, [n]);
        Ok(())
    }

    /// Read the entire region (accounted). The caller is responsible for the
    /// result fitting in internal memory; pair with [`Pdm::alloc_buf`].
    pub fn read_region(&mut self, region: &Region, out: &mut Vec<K>) -> Result<()> {
        self.read_blocks((0..region.len_blocks()).map(|i| (*region, i)), out)
    }

    /// Write an entire region (accounted); `data` is padded to a whole number
    /// of blocks with `K::MAX`.
    pub fn write_region(&mut self, region: &Region, data: &[K]) -> Result<()> {
        let total = region.len_keys();
        if data.len() > total {
            return Err(PdmError::RegionOutOfBounds {
                index: data.len(),
                len: total,
            });
        }
        let blocks = (0..region.len_blocks()).map(|i| (*region, i));
        self.write_blocks(blocks, &pad_with_max(data, total))
    }

    /// Place input data into a region **without** I/O accounting: in the PDM
    /// the input already resides on the disks. Pads the final block with
    /// `K::MAX`. `data` longer than the region fails with
    /// [`PdmError::RegionOutOfBounds`] before anything is written.
    ///
    /// The region moves in blocking [`Storage::write_batch`] calls of at
    /// most `D × DEFAULT_QUEUE_DEPTH` blocks: one service round per disk,
    /// and on the worker driver one bounded message buffer. The retry and
    /// fault-injection wrappers still move each batch block by block. No
    /// stats, probe events or checkpoint replay apply.
    pub fn ingest(&mut self, region: &Region, data: &[K]) -> Result<()> {
        self.check_drift()?;
        let total = region.len_keys();
        if data.len() > total {
            return Err(PdmError::RegionOutOfBounds {
                index: data.len(),
                len: total,
            });
        }
        let (b, n) = (self.cfg.block_size, data.len());
        for blocks in self.unaccounted_batches(region) {
            let keys = &data[(blocks.start * b).min(n)..(blocks.end * b).min(n)];
            let payload = pad_with_max(keys, blocks.len() * b);
            self.gather(blocks.map(|i| (*region, i)))?;
            self.storage.write_batch(&self.addr_buf, &payload)?;
        }
        Ok(())
    }

    /// Read back a whole region **without** I/O accounting: the CLI's
    /// write-back of the sorted output, and verification. Moves the region
    /// in the same bounded [`Storage::read_batch`] calls as
    /// [`Pdm::ingest`].
    pub fn inspect(&mut self, region: &Region) -> Result<Vec<K>> {
        self.check_drift()?;
        let b = self.cfg.block_size;
        let mut out = vec![K::MAX; region.len_keys()];
        for blocks in self.unaccounted_batches(region) {
            let keys = blocks.start * b..blocks.end * b;
            self.gather(blocks.map(|i| (*region, i)))?;
            self.storage.read_batch(&self.addr_buf, &mut out[keys])?;
        }
        Ok(out)
    }

    /// The logical block ranges [`Pdm::ingest`] and [`Pdm::inspect`] hand
    /// to storage, in order: `D × DEFAULT_QUEUE_DEPTH` blocks each (the
    /// default overlap window), the last possibly shorter.
    fn unaccounted_batches(&self, region: &Region) -> impl Iterator<Item = Range<usize>> {
        let step = self.cfg.num_disks * DEFAULT_QUEUE_DEPTH;
        let len = region.len_blocks();
        (0..len)
            .step_by(step)
            .map(move |lo| lo..(lo + step).min(len))
    }

    /// Read back the first `n` keys of a region without accounting (drops
    /// `K::MAX` padding of the tail).
    pub fn inspect_prefix(&mut self, region: &Region, n: usize) -> Result<Vec<K>> {
        let mut v = self.inspect(region)?;
        v.truncate(n);
        Ok(v)
    }

    /// Ask algorithm pipelines to drive the disks with overlapped I/O
    /// (prefetch read-ahead and flush-behind writes) instead of blocking
    /// batches. Purely a wall-clock lever: the step and pass accounting of
    /// every batch is charged at issue time with the same rules, so
    /// enabling overlap never changes the counted quantities. Defaults
    /// off; callers typically enable it when [`Storage::caps`] reports
    /// `overlap` — a genuinely asynchronous backend.
    pub fn set_overlap(&mut self, on: bool) {
        self.overlap = on;
    }

    /// Whether algorithm pipelines should issue overlapped I/O.
    pub fn overlap(&self) -> bool {
        self.overlap
    }

    /// Override the overlap window budget, in **blocks** (`None` restores
    /// the derived default, `D × DEFAULT_QUEUE_DEPTH`). The budget bounds
    /// how much data [`crate::overlap::ReadAhead`] /
    /// [`crate::overlap::WriteBehind`] keep in flight; like
    /// [`Pdm::set_overlap`] it is purely a wall-clock lever — batches are
    /// charged at issue with the blocking rules at every budget, so the
    /// accounted pass and step counts never move. Values are clamped to at
    /// least one block; a budget smaller than one batch still admits one
    /// batch at a time (progress guarantee in the helpers).
    pub fn set_overlap_window(&mut self, blocks: Option<usize>) {
        self.overlap_window = blocks.map(|b| b.max(1));
    }

    /// The current overlap window budget in blocks: the configured
    /// override, else `D × DEFAULT_QUEUE_DEPTH` — deep enough that `D`-block
    /// sub-batches pipeline `DEFAULT_QUEUE_DEPTH` deep per disk, while a
    /// full-stripe pipeline at the same budget keeps the classic handful
    /// of batches in flight.
    pub fn overlap_window_blocks(&self) -> usize {
        self.overlap_window
            .unwrap_or(self.cfg.num_disks * DEFAULT_QUEUE_DEPTH)
            .max(1)
    }

    /// Overlap operations issued but not yet retired (reads and writes).
    pub fn pending_io(&self) -> usize {
        self.pending_io.load(Ordering::Relaxed)
    }

    /// Issue one or more read batches without waiting for the data (see
    /// [`crate::overlap`]). `steps[i]` is one batch as
    /// [`Pdm::read_blocks`] takes it, and each is charged exactly as that
    /// blocking call would charge it: one `Io` probe event and
    /// `max(per-disk blocks)` read steps per batch, in step order, once
    /// the storage call has returned. The storage layer sees the steps as
    /// one submission, so emulated backends pay their per-batch latency
    /// once per issue and the real-disk backend gets one deep submission.
    /// The returned token yields the blocks, concatenated in step order,
    /// when retired via [`Pdm::finish_read_blocks`]. During checkpoint
    /// replay the token is a filler: retiring it yields `K::MAX` keys and
    /// no storage or stats are touched.
    ///
    /// [`crate::overlap::ReadAhead`] reads through this call; speculative
    /// schedules use [`Pdm::start_read_blocks_speculative`] instead (a
    /// data-dependent abort after a multi-step issue would have charged
    /// steps the blocking path never reaches).
    pub fn start_read_blocks(&mut self, steps: &[Vec<(Region, usize)>]) -> Result<TrackedRead<K>> {
        debug_assert!(!steps.is_empty(), "empty read issue");
        self.check_drift()?;
        let blocks: usize = steps.iter().map(Vec::len).sum();
        let expected = blocks * self.cfg.block_size;
        if self.replaying() {
            return Ok(TrackedRead::replay(
                expected,
                PendingGuard::new(&self.pending_io),
            ));
        }
        self.gather(steps.iter().flatten().copied())?;
        let pending = self.storage.start_read_batch(&self.addr_buf)?;
        self.charge(false, steps.iter().map(Vec::len));
        let id = self.stats.overlap_issue(false, blocks as u64);
        Ok(TrackedRead::live(
            pending,
            expected,
            id,
            PendingGuard::new(&self.pending_io),
        ))
    }

    /// Issue one read batch *speculatively*: the physical reads dispatch
    /// now, but **nothing is charged** — no step cost, no probe event, no
    /// overlap counter — until the token is retired through
    /// [`Pdm::finish_read_blocks`], which then charges the batch exactly
    /// as a blocking read at the consumption point would have, followed by
    /// the usual overlap issue/complete pair. Dropping an unconsumed token
    /// abandons the read with zero accounting trace, which is what makes
    /// this safe for schedules a data-dependent abort may cut short
    /// (`expected_two_pass`'s pass 2): the blocking path never charges
    /// batches past the abort, and neither does the speculative one.
    pub fn start_read_blocks_speculative(
        &mut self,
        step: &[(Region, usize)],
    ) -> Result<TrackedRead<K>> {
        self.check_drift()?;
        let expected = step.len() * self.cfg.block_size;
        if self.replaying() {
            return Ok(TrackedRead::replay(
                expected,
                PendingGuard::new(&self.pending_io),
            ));
        }
        self.gather(step.iter().copied())?;
        let pending = self.storage.start_read_batch(&self.addr_buf)?;
        self.count_disks(0, step.len());
        let charge = DeferredReadCharge {
            counts: self.disk_counts.clone(),
            blocks: step.len() as u64,
        };
        Ok(TrackedRead::live_deferred(
            pending,
            expected,
            charge,
            PendingGuard::new(&self.pending_io),
        ))
    }

    /// Retire an overlapped read, writing its blocks (request order) into
    /// `out`, which must hold exactly the issued `blocks × B` keys.
    /// Records the hit/stall split in [`crate::stats::OverlapCounters`]
    /// and emits the paired `OverlapComplete` probe event. A speculative
    /// token first charges its deferred batch cost here, so the step
    /// counters and probe stream are position-identical to the blocking
    /// path that would have read the batch at this point.
    pub fn finish_read_blocks(&mut self, mut pending: TrackedRead<K>, out: &mut [K]) -> Result<()> {
        let live = !pending.is_replay();
        let id = match pending.take_deferred() {
            Some(charge) if live => {
                self.stats.record_read_batch(&charge.counts);
                self.stats.overlap_issue(false, charge.blocks)
            }
            _ => pending.id(),
        };
        let stalled = !pending.is_ready();
        let t0 = (live && stalled).then(Instant::now);
        pending.wait(out)?;
        if live {
            if let Some(t0) = t0 {
                self.stats
                    .record_overlap_stall(false, t0.elapsed().as_nanos() as u64);
            }
            self.stats.overlap_complete(false, id, stalled);
        }
        Ok(())
    }

    /// Write-side twin of [`Pdm::start_read_blocks`]: `data` is the
    /// concatenation of the steps' payloads in step order, each step is
    /// charged exactly as its own [`Pdm::write_blocks`] call, and the
    /// storage layer sees one batch. The payload is handed off at issue:
    /// [`Storage::start_write_batch`] copies (or writes) it before
    /// returning, so the caller's buffer is immediately reusable. Per-disk
    /// issue order follows step order, keeping same-slot writes as
    /// ordered as they were unbatched. Retire the token with
    /// [`Pdm::finish_write_blocks`].
    pub fn start_write_blocks(
        &mut self,
        steps: &[Vec<(Region, usize)>],
        data: &[K],
    ) -> Result<TrackedWrite> {
        debug_assert!(!steps.is_empty(), "empty write issue");
        self.check_drift()?;
        let blocks: usize = steps.iter().map(Vec::len).sum();
        check_batch_len(blocks, self.cfg.block_size, data.len())?;
        if self.replaying() {
            return Ok(TrackedWrite::replay(PendingGuard::new(&self.pending_io)));
        }
        self.gather(steps.iter().flatten().copied())?;
        let pending = self.storage.start_write_batch(&self.addr_buf, data)?;
        self.charge(true, steps.iter().map(Vec::len));
        let id = self.stats.overlap_issue(true, blocks as u64);
        Ok(TrackedWrite::live(
            pending,
            id,
            PendingGuard::new(&self.pending_io),
        ))
    }

    /// Retire an overlapped write (see [`Pdm::finish_read_blocks`]).
    pub fn finish_write_blocks(&mut self, pending: TrackedWrite) -> Result<()> {
        let live = !pending.is_replay();
        let stalled = !pending.is_ready();
        let id = pending.id();
        let t0 = (live && stalled).then(Instant::now);
        pending.wait()?;
        if live {
            if let Some(t0) = t0 {
                self.stats
                    .record_overlap_stall(true, t0.elapsed().as_nanos() as u64);
            }
            self.stats.overlap_complete(true, id, stalled);
        }
        Ok(())
    }

    /// Open an I/O scheduling group (see [`IoStats::begin_group`]): until
    /// [`Pdm::end_io_group`], block batches are charged as one concurrent
    /// window — `max(per-disk blocks)` parallel steps at close.
    ///
    /// # Example
    ///
    /// ```
    /// use pdm_model::prelude::*;
    /// let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::new(4, 8, 64)).unwrap();
    /// let r = pdm.alloc_region(4).unwrap();
    /// let block = vec![1u64; 8];
    /// pdm.begin_io_group();
    /// for i in 0..4 {
    ///     // four single-block writes — ungrouped they would cost 4 steps
    ///     pdm.write_blocks([(r, i)], &block).unwrap();
    /// }
    /// pdm.end_io_group();
    /// // striped round-robin, issued concurrently: one parallel step
    /// assert_eq!(pdm.stats().write_steps, 1);
    /// ```
    pub fn begin_io_group(&mut self) {
        if self.replaying() {
            return;
        }
        self.stats.begin_group();
    }

    /// Close the open I/O group, charging its deferred step cost.
    pub fn end_io_group(&mut self) {
        if self.replaying() {
            return;
        }
        self.stats.end_group();
    }

    /// Flush the storage backend.
    pub fn sync(&mut self) -> Result<()> {
        self.check_drift()?;
        self.refresh_retry_stats();
        self.refresh_wall_stats();
        self.storage.sync()
    }

    /// Consume the machine, returning backend and final counters.
    pub fn into_parts(mut self) -> (S, IoStats) {
        self.refresh_retry_stats();
        self.refresh_wall_stats();
        self.roll_phase_span(None);
        (self.storage, self.stats)
    }
}

/// `data` followed by `K::MAX` up to `len` keys, copied only when short.
fn pad_with_max<K: PdmKey>(data: &[K], len: usize) -> Cow<'_, [K]> {
    if data.len() == len {
        return Cow::Borrowed(data);
    }
    let mut padded = Vec::with_capacity(len);
    padded.extend_from_slice(data);
    padded.resize(len, K::MAX);
    Cow::Owned(padded)
}

/// Slot levels handed out to regions. Every disk allocates in lockstep,
/// so a level is one slot on every disk.
#[derive(Debug, Default)]
struct Levels {
    /// First level never handed out: the disks' high-water mark.
    top: usize,
    /// Released levels that allocation reuses: sorted, coalesced ranges.
    free: Vec<Range<usize>>,
    /// Released levels waiting for a durable manifest before reuse (only
    /// with a checkpoint store attached).
    held: Vec<Range<usize>>,
    /// The regions currently allocated, by first level.
    live: BTreeMap<usize, Region>,
}

impl Levels {
    /// First level of `n` levels: the start of the lowest free range that
    /// fits, else new levels at the top, which then rises. Those begin in
    /// the free range that reaches the top, if one does, so the top rises
    /// only by what that range lacks.
    fn take(&mut self, n: usize) -> usize {
        let Some(i) = self.free.iter().position(|r| r.len() >= n) else {
            let base = match self.free.last() {
                Some(r) if r.end == self.top => r.start,
                _ => self.top,
            };
            if base < self.top {
                self.free.pop();
            }
            self.top = base + n;
            return base;
        };
        let base = self.free[i].start;
        self.free[i].start += n;
        if self.free[i].is_empty() {
            self.free.remove(i);
        }
        base
    }

    /// Move every held range onto the free list.
    fn make_held_reusable(&mut self) {
        for r in std::mem::take(&mut self.held) {
            insert_range(&mut self.free, r);
        }
    }
}

/// Insert `r` into a sorted list of disjoint ranges, merging it with the
/// neighbours it touches.
fn insert_range(list: &mut Vec<Range<usize>>, r: Range<usize>) {
    let mut i = list.partition_point(|x| x.start < r.start);
    list.insert(i, r);
    if i > 0 && list[i - 1].end == list[i].start {
        list[i - 1].end = list[i].end;
        list.remove(i);
        i -= 1;
    }
    if i + 1 < list.len() && list[i].end == list[i + 1].start {
        list[i].end = list[i + 1].end;
        list.remove(i + 1);
    }
}

impl<K: PdmKey, S: Storage<K>> Checkpoint for Pdm<K, S> {
    fn attach_checkpoint(&mut self, store: CheckpointStore, manifest: Manifest) {
        self.ckpt = Some(Box::new(CheckpointState {
            skip_phases: manifest.completed,
            phases_seen: 0,
            replay_open: false,
            completed_names: manifest.phases.clone(),
            deferred: None,
            drift: None,
            base: manifest,
            store,
        }));
    }

    fn take_checkpoint_error(&mut self) -> Option<PdmError> {
        self.ckpt.as_deref_mut().and_then(|c| c.deferred.take())
    }

    fn completed_phases(&self) -> usize {
        self.ckpt.as_deref().map_or(0, |c| c.completed_names.len())
    }

    fn skipped_phases(&self) -> usize {
        self.ckpt.as_deref().map_or(0, |c| c.skip_phases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Pdm<u64> {
        // D = 4, B = 8, M = 64 (limit 128 with default workspace factor 2)
        Pdm::new(PdmConfig::new(4, 8, 64)).unwrap()
    }

    #[test]
    fn geometry_mismatch_is_rejected() {
        let cfg = PdmConfig::new(4, 8, 64);
        let bad = MemStorage::<u64>::new(2, 8);
        assert!(Pdm::with_storage(cfg, bad).is_err());
    }

    #[test]
    fn ingest_then_read_region_counts_only_reads() {
        let mut pdm = machine();
        let data: Vec<u64> = (0..64).collect();
        let r = pdm.alloc_region_for_keys(64).unwrap();
        pdm.ingest(&r, &data).unwrap();
        assert_eq!(pdm.stats().blocks_read, 0);
        assert_eq!(pdm.stats().blocks_written, 0);

        let mut out = Vec::new();
        pdm.read_region(&r, &mut out).unwrap();
        assert_eq!(out, data);
        // 8 blocks over 4 disks, striped → 2 parallel steps
        assert_eq!(pdm.stats().blocks_read, 8);
        assert_eq!(pdm.stats().read_steps, 2);
    }

    #[test]
    fn one_full_stripe_is_one_step() {
        let mut pdm = machine();
        let r = pdm.alloc_region(4).unwrap();
        let mut out = Vec::new();
        pdm.read_blocks((0..4).map(|i| (r, i)), &mut out).unwrap();
        assert_eq!(pdm.stats().read_steps, 1);
        assert_eq!(pdm.stats().blocks_read, 4);
    }

    #[test]
    fn same_disk_batch_costs_multiple_steps() {
        let mut pdm = machine();
        let r = pdm.alloc_region(8).unwrap();
        // blocks 0 and 4 both live on disk 0
        let mut out = Vec::new();
        pdm.read_blocks([(r, 0), (r, 4)], &mut out).unwrap();
        assert_eq!(pdm.stats().read_steps, 2);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut pdm = machine();
        let r = pdm.alloc_region(4).unwrap();
        let data: Vec<u64> = (100..132).collect();
        pdm.write_region(&r, &data).unwrap();
        let mut out = Vec::new();
        pdm.read_region(&r, &mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(pdm.stats().write_steps, 1);
    }

    #[test]
    fn write_region_pads_with_max() {
        let mut pdm = machine();
        let r = pdm.alloc_region_for_keys(10).unwrap(); // 2 blocks = 16 keys
        pdm.write_region(&r, &(0..10).collect::<Vec<u64>>())
            .unwrap();
        let all = pdm.inspect(&r).unwrap();
        assert_eq!(&all[..10], &(0..10).collect::<Vec<u64>>()[..]);
        assert!(all[10..].iter().all(|&k| k == u64::MAX));
        let pre = pdm.inspect_prefix(&r, 10).unwrap();
        assert_eq!(pre.len(), 10);
    }

    #[test]
    fn ingest_pads_partial_final_block() {
        let mut pdm = machine();
        let r = pdm.alloc_region_for_keys(9).unwrap();
        pdm.ingest(&r, &[1u64; 9]).unwrap();
        let all = pdm.inspect(&r).unwrap();
        assert_eq!(all.len(), 16);
        assert!(all[9..].iter().all(|&k| k == u64::MAX));
        // Data longer than the region is refused before any block moves.
        assert!(matches!(
            pdm.ingest(&r, &[2u64; 17]),
            Err(PdmError::RegionOutOfBounds { index: 17, len: 16 })
        ));
        assert_eq!(pdm.inspect(&r).unwrap(), all);
    }

    #[test]
    fn regions_do_not_overlap() {
        let mut pdm = machine();
        let r1 = pdm.alloc_region(5).unwrap();
        let r2 = pdm.alloc_region(5).unwrap();
        pdm.ingest(&r1, &[7u64; 40]).unwrap();
        pdm.ingest(&r2, &[9u64; 40]).unwrap();
        assert!(pdm.inspect(&r1).unwrap().iter().all(|&k| k == 7));
        assert!(pdm.inspect(&r2).unwrap().iter().all(|&k| k == 9));
    }

    #[test]
    fn released_levels_are_reused_lowest_first_and_coalesced() {
        let mut pdm = machine(); // D = 4: one level holds four blocks
        let a = pdm.alloc_region(4).unwrap(); // level 0
        let b = pdm.alloc_region_at(8, 1).unwrap(); // levels 1..3
        let c = pdm.alloc_region(4).unwrap(); // level 3
        assert_eq!(pdm.next_slot(), 4);
        pdm.release_region(&b).unwrap();
        pdm.release_region(&a).unwrap();
        assert_eq!(pdm.levels.free, vec![0..3], "neighbours coalesce");
        // Too big for the hole: new levels at the top.
        let d = pdm.alloc_region(16).unwrap();
        assert_eq!((d.base_slot(), pdm.next_slot()), (4, 8));
        // Fits: the lowest free range, then what is left of it.
        let e = pdm.alloc_region(5).unwrap();
        let f = pdm.alloc_region_at(1, 3).unwrap();
        assert_eq!((e.base_slot(), f.base_slot(), pdm.next_slot()), (0, 2, 8));
        assert!(pdm.levels.free.is_empty());
        // The reused levels hold what is written to them.
        pdm.ingest(&e, &[5u64; 40]).unwrap();
        pdm.ingest(&c, &[3u64; 32]).unwrap();
        assert!(pdm.inspect(&e).unwrap().iter().all(|&k| k == 5));
        assert!(pdm.inspect(&c).unwrap().iter().all(|&k| k == 3));
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init, reason = "a free list of one range")]
    fn new_levels_start_in_a_free_range_that_reaches_the_top() {
        let mut pdm = machine(); // D = 4: one level holds four blocks
        let a = pdm.alloc_region(4).unwrap(); // level 0
        let b = pdm.alloc_region(8).unwrap(); // levels 1..3
        pdm.release_region(&b).unwrap();
        // Three levels fit nowhere: they start in the free range 1..3,
        // which reaches the top, so the top rises by one level, not three.
        let c = pdm.alloc_region(12).unwrap();
        assert_eq!((c.base_slot(), pdm.next_slot()), (1, 4));
        assert!(pdm.levels.free.is_empty());
        // A free range below a live region does not reach the top.
        pdm.release_region(&a).unwrap();
        let d = pdm.alloc_region(8).unwrap();
        assert_eq!((d.base_slot(), pdm.next_slot()), (4, 6));
        assert_eq!(pdm.levels.free, vec![0..1]);
        // A sub-region of an allocation is not a whole region either.
        let e = pdm.check_whole_region(&d.sub(0, 4).unwrap()).unwrap_err();
        assert!(
            e.to_string().contains("not a whole allocated region"),
            "{e}"
        );
        pdm.check_whole_region(&d).unwrap();
    }

    #[test]
    fn release_refuses_a_sub_region_and_a_double_release() {
        let mut pdm = machine();
        let r = pdm.alloc_region(8).unwrap();
        for sub in [r.sub(0, 4).unwrap(), r.sub(4, 4).unwrap()] {
            let e = pdm.release_region(&sub).unwrap_err();
            assert!(
                e.to_string().contains("not a whole allocated region"),
                "{e}"
            );
        }
        pdm.release_region(&r).unwrap();
        let e = pdm.release_region(&r).unwrap_err();
        assert!(
            e.to_string().contains("not a whole allocated region"),
            "{e}"
        );
        // A region that was never allocated is refused the same way.
        assert!(pdm.release_region(&Region::new(7, 0, 4, 4, 8)).is_err());
    }

    #[test]
    fn release_refuses_while_overlap_io_is_pending() {
        let mut pdm = machine();
        let r = pdm.alloc_region(4).unwrap();
        let read = pdm.start_read_blocks(&[vec![(r, 0), (r, 1)]]).unwrap();
        assert!(matches!(
            pdm.release_region(&r),
            Err(PdmError::PendingIo { pending: 1 })
        ));
        let mut out = vec![0u64; 16];
        pdm.finish_read_blocks(read, &mut out).unwrap();
        pdm.release_region(&r).unwrap();
    }

    #[test]
    fn a_release_is_reusable_only_after_a_durable_manifest() {
        let dir = ckpt_dir("durable");
        let store = CheckpointStore::create(&dir).unwrap();
        let mut pdm = machine();
        pdm.attach_checkpoint(store.clone(), fresh_manifest("x", pdm.cfg(), 32));
        pdm.begin_phase("p1");
        let r1 = pdm.alloc_region(4).unwrap();
        pdm.write_region(&r1, &[1u64; 32]).unwrap();
        pdm.begin_phase("p2");
        let r2 = pdm.alloc_region(4).unwrap();
        pdm.release_region(&r1).unwrap();
        // Not yet recorded: a crash in p2 resumes from p1's manifest and
        // re-runs p2, which reads r1, so p2 must not write over it.
        assert_eq!(pdm.alloc_region(4).unwrap().base_slot(), 2);
        pdm.begin_phase("p3");
        assert!(pdm.take_checkpoint_error().is_none());
        assert_eq!(store.load_latest().unwrap().unwrap().free, vec![0..1]);
        assert_eq!(
            pdm.alloc_region(4).unwrap().base_slot(),
            0,
            "recorded, so reused"
        );
        // A manifest that fails to save strands what was released since
        // the last durable one: its resume would re-run phases that read it.
        pdm.release_region(&r2).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        pdm.begin_phase("p4");
        assert!(pdm.take_checkpoint_error().is_some(), "the save failed");
        assert_eq!(
            pdm.alloc_region(4).unwrap().base_slot(),
            3,
            "r2's level is not reused"
        );
        std::fs::create_dir_all(&dir).unwrap();
        pdm.end_phase();
        assert!(pdm.take_checkpoint_error().is_none());
        let m = store.load_latest().unwrap().unwrap();
        assert_eq!((m.completed, m.frontier, m.free), (4, 4, Vec::new()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Three phases: the second reads the first's region and releases it,
    /// and the third writes over the released levels. The arithmetic wraps:
    /// a resumed run replays completed phases, whose reads return filler.
    fn three_phase_with_release(pdm: &mut Pdm<u64>) -> Result<Region> {
        pdm.begin_phase("p1");
        let r1 = pdm.alloc_region(4)?;
        pdm.write_region(&r1, &(0..32).collect::<Vec<u64>>())?;
        pdm.begin_phase("p2");
        let r2 = pdm.alloc_region(4)?;
        let mut buf = Vec::new();
        pdm.read_region(&r1, &mut buf)?;
        pdm.write_region(
            &r2,
            &buf.iter().map(|k| k.wrapping_add(1)).collect::<Vec<_>>(),
        )?;
        pdm.release_region(&r1)?;
        pdm.begin_phase("p3");
        let r3 = pdm.alloc_region(4)?;
        buf.clear();
        pdm.read_region(&r2, &mut buf)?;
        pdm.write_region(
            &r3,
            &buf.iter().map(|k| k.wrapping_mul(2)).collect::<Vec<_>>(),
        )?;
        pdm.end_phase();
        Ok(r3)
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init, reason = "free lists of one range")]
    fn resume_replays_releases_onto_the_recorded_free_list() {
        let dir = ckpt_dir("replay-free");
        let store = CheckpointStore::create(&dir).unwrap();
        let mut pdm = machine();
        pdm.attach_checkpoint(store.clone(), fresh_manifest("x", pdm.cfg(), 32));
        let r3 = three_phase_with_release(&mut pdm).unwrap();
        assert!(pdm.take_checkpoint_error().is_none());
        assert_eq!(r3.base_slot(), 0, "p3 writes over p1's released level");
        let want = pdm.inspect(&r3).unwrap();
        let (storage, _) = pdm.into_parts();

        // Resume from p2's manifest: the replay must rebuild p1's release.
        let text = std::fs::read_to_string(dir.join("pass-2.ckpt")).unwrap();
        let mut m = Manifest::from_text(&text).unwrap();
        assert_eq!(
            (m.completed, m.frontier, m.free.clone()),
            (2, 2, vec![0..1])
        );
        let p2 = m.clone();
        let mut pdm = Pdm::with_storage(PdmConfig::new(4, 8, 64), storage).unwrap();
        pdm.attach_checkpoint(store.clone(), p2);
        let again = three_phase_with_release(&mut pdm).unwrap();
        assert!(pdm.take_checkpoint_error().is_none());
        assert_eq!((again, pdm.stats().phases.len()), (r3, 1));
        assert_eq!(pdm.inspect(&again).unwrap(), want);

        // A manifest whose free list the replay does not reproduce is
        // refused at the first live storage call, and deferred as well.
        m.free = vec![5..6];
        let mut pdm = machine();
        pdm.attach_checkpoint(store, m);
        let e = three_phase_with_release(&mut pdm).unwrap_err();
        assert!(e.to_string().contains("free list mismatch"), "{e}");
        let e = pdm
            .take_checkpoint_error()
            .expect("free-list drift must be flagged");
        assert!(e.to_string().contains("free list mismatch"), "{e}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn alloc_region_at_rotates_start_disk() {
        let mut pdm = machine();
        let r = pdm.alloc_region_at(4, 2).unwrap();
        assert_eq!(r.addr(0).unwrap().disk, 2);
        assert_eq!(r.addr(2).unwrap().disk, 0);
        assert!(pdm.alloc_region_at(1, 99).is_err());
    }

    #[test]
    fn multi_region_batch_counts_one_step_when_staggered() {
        let mut pdm = machine();
        // four regions staggered across the four disks; block 0 of each
        // lands on a distinct disk → one parallel step for the batch
        let regions: Vec<_> = (0..4).map(|i| pdm.alloc_region_at(2, i).unwrap()).collect();
        let data: Vec<u64> = (0..32).collect();
        let targets: Vec<_> = regions.iter().map(|r| (*r, 0usize)).collect();
        pdm.write_blocks(targets.iter().copied(), &data).unwrap();
        assert_eq!(pdm.stats().write_steps, 1);
        assert_eq!(pdm.stats().blocks_written, 4);
        let mut out = Vec::new();
        pdm.read_blocks(targets, &mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(pdm.stats().read_steps, 1);
    }

    #[test]
    fn multi_region_unstaggered_loses_parallelism() {
        let mut pdm = machine();
        let regions: Vec<_> = (0..4).map(|_| pdm.alloc_region(2).unwrap()).collect();
        let targets: Vec<_> = regions.iter().map(|r| (*r, 0usize)).collect();
        // every region's block 0 is on disk 0 → 4 steps
        let data: Vec<u64> = (0..32).collect();
        pdm.write_blocks(targets, &data).unwrap();
        assert_eq!(pdm.stats().write_steps, 4);
    }

    #[test]
    fn write_blocks_rejects_ragged_data() {
        let mut pdm = machine();
        let r = pdm.alloc_region(2).unwrap();
        assert!(pdm.write_blocks([(r, 0)], &[1u64; 5]).is_err());
    }

    #[test]
    fn buffers_enforce_memory_limit() {
        let pdm = machine();
        let limit = pdm.cfg().mem_limit(); // 2*64 + 2*4*8 = 192
        assert_eq!(limit, 192);
        let b1 = pdm.alloc_buf(limit - 10).unwrap();
        assert!(pdm.alloc_buf(11).is_err());
        drop(b1);
        assert!(pdm.alloc_buf(limit).is_ok());
        assert_eq!(pdm.mem().peak(), limit);
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut pdm = machine();
        let r = pdm.alloc_region(4).unwrap();
        let mut out = Vec::new();
        pdm.read_region(&r, &mut out).unwrap();
        pdm.reset_stats();
        assert_eq!(pdm.stats().blocks_read, 0);
        assert_eq!(pdm.stats().read_steps, 0);
    }

    #[test]
    fn phase_bracketing_via_stats_mut() {
        let mut pdm = machine();
        let r = pdm.alloc_region(4).unwrap();
        pdm.stats_mut().begin_phase("p1");
        let mut out = Vec::new();
        pdm.read_region(&r, &mut out).unwrap();
        pdm.stats_mut().end_phase();
        assert_eq!(pdm.stats().phases.len(), 1);
        assert_eq!(pdm.stats().phases[0].blocks_read, 4);
    }

    #[test]
    fn machine_phases_sample_memory_gauges() {
        let mut pdm = machine();
        let r = pdm.alloc_region(4).unwrap();
        let buf = pdm.alloc_buf(32).unwrap();
        pdm.begin_phase("with-buf");
        let mut out = Vec::new();
        pdm.read_region(&r, &mut out).unwrap();
        pdm.end_phase();
        drop(buf);
        pdm.begin_phase("after-drop");
        pdm.end_phase();
        let ph = &pdm.stats().phases;
        assert_eq!(ph[0].mem_begin, 32);
        assert_eq!(ph[0].mem_end, 32);
        assert!(ph[0].mem_peak >= 32);
        assert_eq!(ph[1].mem_begin, 0);
        assert!(ph[1].mem_peak >= 32, "peak is a high-water mark");
    }

    #[test]
    fn reset_stats_preserves_trace_and_probe_enablement() {
        let mut pdm = machine();
        pdm.enable_probe(256);
        let r = pdm.alloc_region(4).unwrap();
        let mut out = Vec::new();
        pdm.read_region(&r, &mut out).unwrap();
        pdm.reset_stats();
        assert_eq!(pdm.stats().blocks_read, 0);
        assert_eq!(
            pdm.stats().probe().map(|p| (p.events().len(), p.cap())),
            Some((0, 256))
        );
        out.clear();
        pdm.read_region(&r, &mut out).unwrap();
        assert_eq!(pdm.stats().probe().unwrap().events().len(), 1);
    }

    #[test]
    fn probe_stream_matches_machine_accounting() {
        let mut pdm = machine();
        pdm.enable_probe(1 << 12);
        let r = pdm.alloc_region(8).unwrap();
        pdm.begin_phase("write");
        pdm.write_region(&r, &(0..64u64).collect::<Vec<_>>())
            .unwrap();
        pdm.begin_phase("grouped");
        let block = vec![1u64; 8];
        pdm.begin_io_group();
        for i in 0..4 {
            pdm.write_blocks([(r, i)], &block).unwrap();
        }
        pdm.end_io_group();
        pdm.end_phase();
        let replayed =
            crate::probe::replay(pdm.stats().probe().unwrap().events(), pdm.cfg().num_disks);
        assert_eq!(replayed.write_steps, pdm.stats().write_steps);
        assert_eq!(replayed.blocks_written, pdm.stats().blocks_written);
        assert_eq!(replayed.per_disk_writes, pdm.stats().per_disk_writes);
        assert_eq!(replayed.phases.len(), 2);
        assert_eq!(
            replayed.phases[1].write_steps, 1,
            "grouped stripe is one step"
        );
    }

    #[test]
    fn wall_stats_harvest_from_threaded_backend() {
        let cfg = PdmConfig::new(2, 8, 64);
        let storage = crate::storage_threaded::ThreadedStorage::<u64>::new(2, 8);
        let mut pdm = Pdm::with_storage(cfg, storage).unwrap();
        let sink = Arc::new(SpanSink::new(1 << 10));
        pdm.attach_span_sink(Arc::clone(&sink));
        let r = pdm.alloc_region(4).unwrap();
        pdm.begin_phase("p");
        pdm.write_region(&r, &(0..32u64).collect::<Vec<_>>())
            .unwrap();
        pdm.end_phase();
        assert!(
            pdm.stats().wall.has_samples(),
            "end_phase harvests the backend"
        );
        let (_s, stats) = pdm.into_parts();
        assert_eq!(stats.wall.disks.len(), 2);
        // the 4-block region goes out as one batch: one round per disk
        assert!(stats.wall.disks.iter().all(|d| d.write.count == 1));
        // the phase produced one span on the phase track, the workers one
        // span per disk per batch
        let spans = sink.spans();
        assert_eq!(
            spans
                .iter()
                .filter(|s| s.tid == SpanSink::PHASE_TRACK)
                .count(),
            1
        );
        assert_eq!(spans.iter().filter(|s| s.name == "write").count(), 2);
    }

    fn fresh_manifest(algo: &str, cfg: &PdmConfig, num_keys: usize) -> Manifest {
        Manifest::new(algo, cfg, num_keys, 0xfeed)
    }

    fn ckpt_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("pdm-machine-ckpt-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// A deterministic two-phase "algorithm": pass 1 materializes data into
    /// a fresh region, pass 2 reads it back and writes a transformed copy.
    fn two_phase(pdm: &mut Pdm<u64>) -> Result<Region> {
        pdm.begin_phase("pass-1");
        let r1 = pdm.alloc_region(4)?;
        let data: Vec<u64> = (100..132).collect();
        pdm.write_blocks((0..4).map(|i| (r1, i)), &data)?;
        pdm.end_phase();

        pdm.begin_phase("pass-2");
        let r2 = pdm.alloc_region(4)?;
        let mut buf = Vec::new();
        pdm.read_blocks((0..4).map(|i| (r1, i)), &mut buf)?;
        let out: Vec<u64> = buf.iter().map(|x| x.wrapping_add(1)).collect();
        pdm.write_blocks((0..4).map(|i| (r2, i)), &out)?;
        pdm.end_phase();
        Ok(r2)
    }

    #[test]
    fn fresh_run_checkpoints_every_phase() {
        let dir = ckpt_dir("fresh");
        let store = CheckpointStore::create(&dir).unwrap();
        let mut pdm = machine();
        let m = fresh_manifest("two-phase", pdm.cfg(), 32);
        pdm.attach_checkpoint(store.clone(), m);
        let r2 = two_phase(&mut pdm).unwrap();
        assert!(pdm.take_checkpoint_error().is_none());
        assert_eq!(pdm.completed_phases(), 2);
        assert_eq!(pdm.skipped_phases(), 0);
        let latest = store.load_latest().unwrap().unwrap();
        assert_eq!(latest.completed, 2);
        assert_eq!(
            latest.phases,
            vec!["pass-1".to_string(), "pass-2".to_string()]
        );
        assert_eq!(
            latest.frontier, 2,
            "two 4-block regions, one slot level each"
        );
        assert!(dir.join("pass-1.ckpt").is_file(), "per-pass history kept");
        assert!(dir.join("pass-2.ckpt").is_file());
        let mut check = Vec::new();
        pdm.read_blocks([(r2, 0)], &mut check).unwrap();
        assert_eq!(check[0], 101);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_replays_completed_phase_without_io() {
        let dir = ckpt_dir("resume");
        let store = CheckpointStore::create(&dir).unwrap();
        // Run pass 1 only, then "crash": keep the storage, drop the machine.
        let mut pdm = machine();
        pdm.attach_checkpoint(store.clone(), fresh_manifest("two-phase", pdm.cfg(), 32));
        pdm.begin_phase("pass-1");
        let r1 = pdm.alloc_region(4).unwrap();
        let data: Vec<u64> = (100..132).collect();
        pdm.write_blocks((0..4).map(|i| (r1, i)), &data).unwrap();
        pdm.end_phase();
        assert!(pdm.take_checkpoint_error().is_none());
        let (storage, stats_before) = pdm.into_parts();
        assert_eq!(stats_before.phases.len(), 1);

        // Resume: same storage, manifest loaded back from the store.
        let m = store.load_latest().unwrap().unwrap();
        assert_eq!(m.completed, 1);
        let mut pdm = Pdm::with_storage(PdmConfig::new(4, 8, 64), storage).unwrap();
        pdm.attach_checkpoint(store.clone(), m);
        let r2 = two_phase(&mut pdm).unwrap();
        assert!(
            pdm.take_checkpoint_error().is_none(),
            "replayed allocations must land on the recorded frontier"
        );
        assert_eq!(pdm.skipped_phases(), 1);
        assert_eq!(pdm.completed_phases(), 2);
        // Replayed pass 1 cost nothing; only pass 2 executed and counted.
        assert_eq!(pdm.stats().phases.len(), 1);
        assert_eq!(pdm.stats().phases[0].name, "pass-2");
        assert_eq!(pdm.stats().blocks_read, 4);
        assert_eq!(pdm.stats().blocks_written, 4);
        // Pass 2 read the *real* pass-1 output out of the resumed storage.
        let mut check = Vec::new();
        pdm.read_blocks((0..4).map(|i| (r2, i)), &mut check)
            .unwrap();
        let expect: Vec<u64> = (101..133).collect();
        assert_eq!(check, expect);
        let latest = store.load_latest().unwrap().unwrap();
        assert_eq!(latest.completed, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_frontier_drift_is_detected() {
        let dir = ckpt_dir("drift");
        let store = CheckpointStore::create(&dir).unwrap();
        let mut pdm = machine();
        let mut m = fresh_manifest("two-phase", pdm.cfg(), 32);
        m.completed = 1;
        m.frontier = 999; // deliberately wrong
        m.phases = vec!["pass-1".to_string()];
        pdm.attach_checkpoint(store, m);
        let e = two_phase(&mut pdm).unwrap_err();
        assert!(e.to_string().contains("frontier mismatch"), "got: {e}");
        let e = pdm.take_checkpoint_error().expect("drift must be flagged");
        assert!(e.to_string().contains("frontier mismatch"), "got: {e}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_drifted_resume_moves_no_block_live() {
        let dir = ckpt_dir("drift-live");
        let store = CheckpointStore::create(&dir).unwrap();
        // Pass 1 completes and checkpoints; the run stops there.
        let mut pdm = machine();
        pdm.attach_checkpoint(store.clone(), fresh_manifest("two-phase", pdm.cfg(), 32));
        pdm.begin_phase("pass-1");
        let r1 = pdm.alloc_region(4).unwrap();
        pdm.write_blocks((0..4).map(|i| (r1, i)), &(100..132).collect::<Vec<u64>>())
            .unwrap();
        pdm.end_phase();
        let (storage, _) = pdm.into_parts();
        let m = store.load_latest().unwrap().unwrap();
        assert_eq!((m.completed, m.frontier), (1, 1));

        // The resume allocates one region the checkpointed run did not, so
        // the replayed pass 1 lands a level higher than it did.
        let mut pdm = Pdm::with_storage(PdmConfig::new(4, 8, 64), storage).unwrap();
        let extra = pdm.alloc_region(4).unwrap();
        pdm.attach_checkpoint(store, m);
        let e = two_phase(&mut pdm).unwrap_err();
        let want = "resume frontier mismatch: replayed allocations reached slot 2, \
                    checkpoint recorded 1";
        assert_eq!(e.to_string(), format!("bad PDM configuration: {want}"));
        // Every storage call after the replay fails the same way.
        let mut buf = Vec::new();
        for e in [
            pdm.read_blocks([(r1, 0)], &mut buf).unwrap_err(),
            pdm.write_blocks([(extra, 0)], &[7u64; 8]).unwrap_err(),
            pdm.start_read_blocks(&[vec![(r1, 0)]])
                .map(|_| ())
                .unwrap_err(),
            pdm.start_write_blocks(&[vec![(extra, 0)]], &[7u64; 8])
                .map(|_| ())
                .unwrap_err(),
            pdm.inspect(&r1).map(|_| ()).unwrap_err(),
            pdm.ingest(&extra, &[7u64; 8]).unwrap_err(),
            pdm.sync().unwrap_err(),
            pdm.alloc_region(4).map(|_| ()).unwrap_err(),
        ] {
            assert!(e.to_string().contains(want), "{e}");
        }
        // Nothing was read or written live: no counter moved, and the
        // levels pass 2 would have written over still hold pass 1's data
        // and the never-written padding.
        let s = pdm.stats();
        assert_eq!((s.blocks_read, s.blocks_written), (0, 0));
        assert!(s.phases.is_empty());
        let (mut storage, _) = pdm.into_parts();
        let mut level = |slot: usize| {
            let addrs: Vec<(usize, usize)> = (0..4).map(|d| (d, slot)).collect();
            let mut keys = vec![0u64; 32];
            storage.read_batch(&addrs, &mut keys).unwrap();
            keys
        };
        assert_eq!(level(0), (100..132).collect::<Vec<u64>>());
        assert!(level(1).iter().all(|&k| k == u64::MAX));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_elides_grouped_and_multi_region_io() {
        let mut pdm = machine();
        let mut m = fresh_manifest("x", pdm.cfg(), 0);
        m.completed = 1;
        m.frontier = 8;
        m.phases = vec!["p1".to_string()];
        // No store needed to exercise replay gating: attach with a store in
        // a directory we never write to (phase 2 is never reached).
        let dir = ckpt_dir("gates");
        pdm.attach_checkpoint(CheckpointStore::create(&dir).unwrap(), m);
        pdm.begin_phase("p1");
        let a = pdm.alloc_region(4).unwrap();
        let b = pdm.alloc_region(4).unwrap();
        pdm.begin_io_group();
        let mut buf = Vec::new();
        pdm.read_blocks([(a, 0), (b, 0)], &mut buf).unwrap();
        assert_eq!(buf.len(), 16, "replay reads still size their buffers");
        assert!(
            buf.iter().all(|&k| k == u64::MAX),
            "replay reads return MAX filler"
        );
        pdm.write_blocks([(a, 1), (b, 1)], &[0u64; 16]).unwrap();
        pdm.end_io_group();
        pdm.end_phase();
        assert_eq!(pdm.stats().blocks_read, 0);
        assert_eq!(pdm.stats().blocks_written, 0);
        assert_eq!(pdm.stats().read_steps, 0);
        assert_eq!(
            pdm.stats().phases.len(),
            0,
            "replayed phase opens no stats phase"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
