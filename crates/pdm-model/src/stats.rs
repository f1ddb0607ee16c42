//! I/O accounting: block counts, parallel-step counts, and passes.
//!
//! The PDM cost model charges one unit per *parallel I/O step*, during which
//! each of the `D` disks may transfer at most one block. The paper measures
//! algorithms in *passes*: one pass over `N` keys is `N/(D·B)` parallel read
//! steps plus the same number of write steps.
//!
//! [`IoStats`] tracks, per disk and in total, block reads/writes and the
//! parallel steps actually consumed (a batch touching one disk `k` times
//! costs `k` steps — lost parallelism is visible, not hidden).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::hist::HistSnapshot;
use crate::probe::Probe;

/// Cumulative I/O counters for a PDM machine.
///
/// Equality deliberately ignores [`IoStats::wall`]: the step-clocked
/// counters must compare identical across backends and with telemetry on
/// or off, while wall-clock telemetry is timing-dependent by nature.
#[derive(Debug, Clone)]
pub struct IoStats {
    /// Total blocks read.
    pub blocks_read: u64,
    /// Total blocks written.
    pub blocks_written: u64,
    /// Parallel read steps consumed.
    pub read_steps: u64,
    /// Parallel write steps consumed.
    pub write_steps: u64,
    /// Per-disk block read counts (length `D`).
    pub per_disk_reads: Vec<u64>,
    /// Per-disk block write counts (length `D`).
    pub per_disk_writes: Vec<u64>,
    /// Completed named phases, in order.
    pub phases: Vec<PhaseStats>,
    open_phase: Option<(String, Snapshot)>,
    /// Open I/O group accumulators (reads, writes), when grouping.
    group: Option<(Vec<u64>, Vec<u64>)>,
    /// Overlap-layer counters (prefetch / flush-behind), updated centrally
    /// by the machine's overlap issue/retire paths
    /// ([`crate::machine::Pdm::start_read_blocks`] and friends).
    pub overlap: OverlapCounters,
    /// Retry-layer counters, refreshed from an attached
    /// [`crate::storage_retry::RetryCounters`] at phase boundaries and
    /// sync points. Simulated backoff steps are kept here, *outside*
    /// `read_steps`/`write_steps`, so pass counts stay comparable with
    /// and without faults; the report adds them as a separate line.
    pub retry: RetrySnapshot,
    /// Structured event probe, when enabled (see [`IoStats::enable_probe`]).
    probe: Option<Box<Probe>>,
    /// Wall-clock telemetry harvested from the storage backend at phase
    /// boundaries and sync points (see [`WallStats`]). Timing-dependent by
    /// nature, so — like [`OverlapCounters`] hit/stall splits — it lives
    /// entirely outside the probe's deterministic event stream and is
    /// ignored by [`crate::probe::replay`].
    pub wall: WallStats,
}

impl PartialEq for IoStats {
    fn eq(&self, other: &Self) -> bool {
        self.blocks_read == other.blocks_read
            && self.blocks_written == other.blocks_written
            && self.read_steps == other.read_steps
            && self.write_steps == other.write_steps
            && self.per_disk_reads == other.per_disk_reads
            && self.per_disk_writes == other.per_disk_writes
            && self.phases == other.phases
            && self.open_phase == other.open_phase
            && self.group == other.group
            && self.overlap == other.overlap
            && self.retry == other.retry
            && self.probe == other.probe
    }
}

impl Eq for IoStats {}

/// Wall-clock telemetry for one run: per-disk service-latency histograms,
/// queue-depth high-water marks, io_uring batching counters, and wall time
/// spent blocked in overlap waits. Everything here measures *when* I/O
/// happened on the host, not *how much* — the step-clocked counters above
/// are byte-identical whether or not any of this is recorded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WallStats {
    /// Per-disk latency histograms and queue gauges (length `D` once
    /// harvested from a backend that records them; empty otherwise).
    pub disks: Vec<DiskWall>,
    /// io_uring submit/reap batching counters (all zero unless the
    /// async-file backend ran with a live ring).
    pub uring: UringWall,
    /// Wall nanoseconds the consuming thread spent blocked waiting for an
    /// overlapped *read* that had not completed when needed.
    pub read_stall_nanos: u64,
    /// Wall nanoseconds blocked waiting for an overlapped *write*.
    pub write_stall_nanos: u64,
    /// Stall time attributed to the phase that was open when the wait
    /// happened, in phase-open order.
    pub phase_stalls: Vec<PhaseStall>,
    /// Total wall nanoseconds of the run, stamped by the driver (CLI or
    /// bench) after the sort returns; zero when nobody stamped it. Enables
    /// stall-share computation in reports.
    pub run_nanos: u64,
}

impl WallStats {
    /// Whether any disk recorded at least one latency sample.
    pub fn has_samples(&self) -> bool {
        self.disks
            .iter()
            .any(|d| !d.read.is_empty() || !d.write.is_empty())
    }

    /// Total wall nanoseconds blocked in overlap waits (read + write).
    pub fn total_stall_nanos(&self) -> u64 {
        self.read_stall_nanos.saturating_add(self.write_stall_nanos)
    }

    /// Fraction of the stamped run wall time spent blocked in overlap
    /// waits; 0.0 when [`WallStats::run_nanos`] was never stamped.
    pub fn stall_share(&self) -> f64 {
        if self.run_nanos == 0 {
            return 0.0;
        }
        self.total_stall_nanos() as f64 / self.run_nanos as f64
    }
}

/// Wall-clock telemetry for one disk: service-time histograms split by
/// direction plus the deepest submitted-not-completed queue observed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiskWall {
    /// Read service-time histogram (nanoseconds per service unit; see the
    /// recording backend for what one sample covers).
    pub read: HistSnapshot,
    /// Write service-time histogram.
    pub write: HistSnapshot,
    /// High-water mark of blocks submitted to this disk's workers but not
    /// yet completed.
    pub queue_high_water: u64,
    /// Block reads whose FNV-1a checksum was verified against the sidecar
    /// on completion (only nonzero with the `block-checksums` feature on a
    /// checksumming backend; a slot never written is unchecked, not
    /// verified).
    pub checksums_verified: u64,
}

/// io_uring batching counters, summed across all disk workers. The
/// interesting ratios are ops-per-submit (how well submissions batch) and
/// ops-per-reap (how bursty completions are).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UringWall {
    /// `io_uring_enter` calls that submitted at least one SQE.
    pub submit_calls: u64,
    /// SQEs submitted in total.
    pub submitted_sqes: u64,
    /// Completion-drain rounds that reaped at least one CQE.
    pub reap_rounds: u64,
    /// CQEs reaped in total.
    pub reaped_cqes: u64,
}

/// Overlap stall wall time attributed to one named phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseStall {
    /// Phase label (matches the [`PhaseStats`] entry of the same name).
    pub name: String,
    /// Nanoseconds blocked waiting on overlapped reads during the phase.
    pub read_nanos: u64,
    /// Nanoseconds blocked waiting on overlapped writes during the phase.
    pub write_nanos: u64,
}

/// Live, thread-shared wall recorder for one disk: the mutable counterpart
/// of [`DiskWall`]. A backend allocates one per disk, hands clones of the
/// `Arc` to the worker threads that serve the disk, and snapshots it on
/// demand. All counters
/// are relaxed atomics — this sits on the I/O service path.
#[derive(Debug, Default)]
pub struct DiskWallRec {
    /// Read service-time histogram (nanoseconds).
    pub read: crate::hist::LatencyHist,
    /// Write service-time histogram (nanoseconds).
    pub write: crate::hist::LatencyHist,
    queue: AtomicU64,
    queue_high: AtomicU64,
    verified: AtomicU64,
}

impl DiskWallRec {
    /// Fresh recorder with empty histograms and a zero queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Note `n` blocks submitted to this disk's workers (dispatch side).
    pub fn queue_add(&self, n: u64) {
        let cur = self.queue.fetch_add(n, Ordering::Relaxed) + n;
        self.queue_high.fetch_max(cur, Ordering::Relaxed);
    }

    /// Note `n` blocks completed by this disk's workers (service side).
    pub fn queue_sub(&self, n: u64) {
        self.queue.fetch_sub(n, Ordering::Relaxed);
    }

    /// Deepest submitted-not-completed queue observed so far.
    pub fn queue_high_water(&self) -> u64 {
        self.queue_high.load(Ordering::Relaxed)
    }

    /// Note `n` block reads checksum-verified against the sidecar.
    pub fn add_verified(&self, n: u64) {
        self.verified.fetch_add(n, Ordering::Relaxed);
    }

    /// Block reads checksum-verified so far.
    pub fn checksums_verified(&self) -> u64 {
        self.verified.load(Ordering::Relaxed)
    }

    /// Point-in-time copy.
    pub fn snapshot(&self) -> DiskWall {
        DiskWall {
            read: self.read.snapshot(),
            write: self.write.snapshot(),
            queue_high_water: self.queue_high_water(),
            checksums_verified: self.checksums_verified(),
        }
    }
}

/// Storage-side wall-clock snapshot, harvested by the machine into
/// [`WallStats`] at phase boundaries and sync points (cumulative: each
/// harvest overwrites the previous one, mirroring how retry counters fold).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StorageWallSnapshot {
    /// Per-disk histograms and gauges, indexed by disk.
    pub disks: Vec<DiskWall>,
    /// io_uring batching counters summed over workers (zero when the
    /// backend has no ring).
    pub uring: UringWall,
}

/// One completed wall-clock span destined for a trace track (Chrome
/// trace-event `B`/`E` pair). Times are nanoseconds since the owning
/// [`SpanSink`]'s epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Track id: disk `d`'s read worker is `2d`, its write worker `2d + 1`;
    /// higher layers use [`SpanSink::PHASE_TRACK`] and up.
    pub tid: u32,
    /// Span label (e.g. `"read 32"` for a 32-block service chunk).
    pub name: String,
    /// Start, nanoseconds since the sink's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Shared collector for wall-clock spans, attached (optionally) to storage
/// workers and the machine via `attach_span_sink`. Thread-safe and bounded:
/// spans past the cap are dropped and counted rather than growing without
/// limit. Purely observational — nothing in the deterministic step
/// accounting reads it.
#[derive(Debug)]
pub struct SpanSink {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    tracks: Mutex<Vec<(u32, String)>>,
    cap: usize,
    dropped: AtomicU64,
}

impl SpanSink {
    /// Track id used for algorithm phase spans (disk workers use `2d` /
    /// `2d + 1`, far below this).
    pub const PHASE_TRACK: u32 = 1_000_000;

    /// New sink retaining at most `cap` spans.
    pub fn new(cap: usize) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            tracks: Mutex::new(Vec::new()),
            cap: cap.min(1 << 22),
            dropped: AtomicU64::new(0),
        }
    }

    /// Name a track so the trace writer can emit thread-name metadata.
    /// Idempotent per tid (first registration wins).
    pub fn register_track(&self, tid: u32, name: &str) {
        let mut t = self.tracks.lock().unwrap();
        if !t.iter().any(|(id, _)| *id == tid) {
            t.push((tid, name.to_string()));
        }
    }

    /// Record a span that ran from `start` to `end` on track `tid`.
    pub fn record(&self, tid: u32, name: &str, start: Instant, end: Instant) {
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let dur_ns = end.saturating_duration_since(start).as_nanos() as u64;
        let mut s = self.spans.lock().unwrap();
        if s.len() < self.cap {
            s.push(Span {
                tid,
                name: name.to_string(),
                start_ns,
                dur_ns,
            });
        } else {
            drop(s);
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// All registered `(tid, name)` tracks, in registration order.
    pub fn tracks(&self) -> Vec<(u32, String)> {
        self.tracks.lock().unwrap().clone()
    }

    /// Copy out all recorded spans (recording may continue afterwards).
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap().clone()
    }

    /// Spans dropped because the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Counters for the asynchronous-overlap layer: how often the double
/// buffering actually hid latency. `hits` count rotations where the
/// in-flight I/O had already completed when needed; `stalls` count
/// rotations that had to wait. On the eager (memory / file) backends
/// every rotation is a hit; on the threaded backend the split is
/// timing-dependent, which is why these live outside the probe's
/// deterministic event stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverlapCounters {
    /// Read batches issued asynchronously by a prefetch reader.
    pub prefetch_batches: u64,
    /// Prefetch rotations where the data was already resident.
    pub prefetch_hits: u64,
    /// Prefetch rotations that blocked on the in-flight read.
    pub prefetch_stalls: u64,
    /// Write batches issued asynchronously by a flush-behind writer.
    pub flush_batches: u64,
    /// Flush rotations where the previous write had already retired.
    pub flush_hits: u64,
    /// Flush rotations that blocked on the in-flight write.
    pub flush_stalls: u64,
}

/// Point-in-time copy of a retry layer's counters (see
/// [`crate::storage_retry::RetryCounters::snapshot`]). All zeros when no
/// retry layer is attached.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RetrySnapshot {
    /// Block reads reissued at *issue time* after a transient failure
    /// (the retry wrapper re-calls the inner backend synchronously).
    pub reads_retried: u64,
    /// Block writes reissued at issue time after a transient failure.
    pub writes_retried: u64,
    /// Operations that kept failing until the attempt budget ran out.
    pub exhausted: u64,
    /// Simulated backoff parallel steps accumulated across all retries.
    pub backoff_steps: u64,
    /// Reissued operations charged to the disk that originated them,
    /// indexed by disk (issue-time and completion-time retries alike;
    /// issue-time retries of a failed batch *start* have no single disk
    /// and are not attributed). Empty when nothing was retried (the
    /// vector grows on demand).
    pub per_disk_retries: Vec<u64>,
    /// Block reads reissued at *completion time*: the async backend's disk
    /// workers classified a grouped-batch failure after the I/O had been
    /// issued asynchronously and re-ran just the failed block, off the
    /// caller's critical path.
    pub completion_reads_retried: u64,
    /// Block writes reissued at completion time by the async backend's
    /// disk workers.
    pub completion_writes_retried: u64,
}

impl RetrySnapshot {
    /// Total reissued operations (reads + writes, issue- and
    /// completion-time).
    pub fn total_retries(&self) -> u64 {
        self.issue_retries()
            .saturating_add(self.completion_retries())
    }

    /// Reissued operations classified at completion time (async path).
    pub fn completion_retries(&self) -> u64 {
        self.completion_reads_retried
            .saturating_add(self.completion_writes_retried)
    }

    /// Reissued operations classified at issue time (blocking path).
    pub fn issue_retries(&self) -> u64 {
        self.reads_retried.saturating_add(self.writes_retried)
    }
}

/// Counter deltas attributed to one named algorithm phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStats {
    /// Phase label supplied by the algorithm.
    pub name: String,
    /// Blocks read during the phase.
    pub blocks_read: u64,
    /// Blocks written during the phase.
    pub blocks_written: u64,
    /// Parallel read steps during the phase.
    pub read_steps: u64,
    /// Parallel write steps during the phase.
    pub write_steps: u64,
    /// Tracked internal-memory residency (keys) when the phase opened.
    /// Zero unless the phase was opened through a gauge-sampling caller
    /// such as [`crate::machine::Pdm::begin_phase`].
    pub mem_begin: usize,
    /// Tracked residency (keys) when the phase closed.
    pub mem_end: usize,
    /// High-water residency (keys) observed by the phase close — the
    /// machine-lifetime peak so far, sampled at the boundary.
    pub mem_peak: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Snapshot {
    blocks_read: u64,
    blocks_written: u64,
    read_steps: u64,
    write_steps: u64,
    mem_begin: usize,
}

impl IoStats {
    /// Fresh counters for a machine with `num_disks` disks.
    pub fn new(num_disks: usize) -> Self {
        Self {
            blocks_read: 0,
            blocks_written: 0,
            read_steps: 0,
            write_steps: 0,
            per_disk_reads: vec![0; num_disks],
            per_disk_writes: vec![0; num_disks],
            phases: Vec::new(),
            open_phase: None,
            group: None,
            overlap: OverlapCounters::default(),
            retry: RetrySnapshot::default(),
            probe: None,
            wall: WallStats::default(),
        }
    }

    /// Add wall time spent blocked waiting for an overlapped batch (read
    /// when `write` is false) to the stall totals, attributing it to the
    /// currently open phase if any. Wall-clock only: no probe event, no
    /// step-counter effect.
    pub(crate) fn record_overlap_stall(&mut self, write: bool, nanos: u64) {
        if write {
            self.wall.write_stall_nanos += nanos;
        } else {
            self.wall.read_stall_nanos += nanos;
        }
        if let Some((name, _)) = &self.open_phase {
            let entry = match self.wall.phase_stalls.last_mut() {
                Some(e) if e.name == *name => e,
                _ => {
                    self.wall.phase_stalls.push(PhaseStall {
                        name: name.clone(),
                        read_nanos: 0,
                        write_nanos: 0,
                    });
                    self.wall.phase_stalls.last_mut().unwrap()
                }
            };
            if write {
                entry.write_nanos += nanos;
            } else {
                entry.read_nanos += nanos;
            }
        }
    }

    /// Record an overlapped batch issue (read when `write` is false),
    /// returning the token id that pairs it with its completion. Bumps the
    /// issued-batch overlap counter and emits an `OverlapIssue` probe
    /// event; the batch's block/step accounting is recorded separately by
    /// `record_read_batch`/`record_write_batch` at the same instant.
    pub(crate) fn overlap_issue(&mut self, write: bool, blocks: u64) -> u64 {
        // Each overlapped batch bumps exactly one batch counter, so their sum is the
        // next token id.
        let id = self.overlap.prefetch_batches + self.overlap.flush_batches;
        if write {
            self.overlap.flush_batches += 1;
        } else {
            self.overlap.prefetch_batches += 1;
        }
        if let Some(p) = &mut self.probe {
            p.on_overlap_issue(write, blocks, id);
        }
        id
    }

    /// Record an overlapped batch retiring: a hit when the I/O had already
    /// completed, a stall when the consumer had to wait. Emits the paired
    /// `OverlapComplete` probe event.
    pub(crate) fn overlap_complete(&mut self, write: bool, id: u64, stalled: bool) {
        let c = &mut self.overlap;
        match (write, stalled) {
            (false, false) => c.prefetch_hits += 1,
            (false, true) => c.prefetch_stalls += 1,
            (true, false) => c.flush_hits += 1,
            (true, true) => c.flush_stalls += 1,
        }
        if let Some(p) = &mut self.probe {
            p.on_overlap_complete(write, id, stalled);
        }
    }

    /// Attach a structured event probe retaining at most `cap` events; every
    /// subsequent batch, phase boundary, group boundary, and gauge sample is
    /// recorded as a [`crate::probe::ProbeEvent`]. Default-off: when no probe
    /// is attached the accounting hot path pays one `Option` check.
    pub fn enable_probe(&mut self, cap: usize) {
        self.probe = Some(Box::new(Probe::new(cap)));
    }

    /// The attached probe, if any.
    pub fn probe(&self) -> Option<&Probe> {
        self.probe.as_deref()
    }

    /// The probe's event cap, if a probe is attached.
    pub fn probe_capacity(&self) -> Option<usize> {
        self.probe.as_ref().map(|p| p.cap())
    }

    /// Detach and return the probe (e.g. to serialize its events).
    pub fn take_probe(&mut self) -> Option<Box<Probe>> {
        self.probe.take()
    }

    /// Record a named scalar gauge into the probe (no-op when disabled).
    /// Used by higher layers for algorithm-specific telemetry such as
    /// cleanup carry occupancy or boundary-check margins.
    pub fn probe_gauge(&mut self, name: &str, value: i64) {
        if let Some(p) = &mut self.probe {
            p.on_gauge(name, value);
        }
    }

    /// Open an *I/O group*: until [`IoStats::end_group`], batches accumulate
    /// into one scheduling window and the parallel-step cost is charged once
    /// at close as `max(per-disk blocks)` — modeling a controller with a
    /// deep command queue that schedules all queued blocks disk-parallel
    /// ("as few parallel write steps as possible", paper §7). Block and
    /// per-disk counters still update per batch. Groups do not nest.
    pub fn begin_group(&mut self) {
        assert!(self.group.is_none(), "I/O groups do not nest");
        let d = self.per_disk_reads.len();
        self.group = Some((vec![0; d], vec![0; d]));
        if let Some(p) = &mut self.probe {
            p.on_group_begin();
        }
    }

    /// Close the open I/O group, charging its deferred step cost.
    pub fn end_group(&mut self) {
        if let Some((reads, writes)) = self.group.take() {
            let r = reads.iter().copied().max().unwrap_or(0);
            let w = writes.iter().copied().max().unwrap_or(0);
            self.read_steps += r;
            self.write_steps += w;
            if let Some(p) = &mut self.probe {
                p.on_group_settle(r, w, false);
            }
        }
    }

    /// Charge the open group's accumulated cost *now*, without closing the
    /// group: the accumulators reset and keep collecting. Called from
    /// [`IoStats::end_phase`] so that steps deferred inside a group are
    /// attributed to the phase that issued them rather than silently leaking
    /// into whichever phase happens to call `end_group` later.
    fn settle_open_group(&mut self) {
        if let Some((reads, writes)) = &mut self.group {
            let r = reads.iter().copied().max().unwrap_or(0);
            let w = writes.iter().copied().max().unwrap_or(0);
            reads.iter_mut().for_each(|c| *c = 0);
            writes.iter_mut().for_each(|c| *c = 0);
            self.read_steps += r;
            self.write_steps += w;
            if let Some(p) = &mut self.probe {
                p.on_group_settle(r, w, true);
            }
        }
    }

    fn snapshot(&self, mem_begin: usize) -> Snapshot {
        Snapshot {
            blocks_read: self.blocks_read,
            blocks_written: self.blocks_written,
            read_steps: self.read_steps,
            write_steps: self.write_steps,
            mem_begin,
        }
    }

    /// Record a batch of block reads whose per-disk multiplicities are given
    /// in `disk_counts`; the batch costs `max(disk_counts)` parallel steps
    /// (deferred to [`IoStats::end_group`] while a group is open).
    pub fn record_read_batch(&mut self, disk_counts: &[u64]) {
        let mut total = 0;
        let mut max = 0;
        for (d, &c) in disk_counts.iter().enumerate() {
            self.per_disk_reads[d] += c;
            total += c;
            max = max.max(c);
        }
        self.blocks_read += total;
        let grouped = if let Some((reads, _)) = &mut self.group {
            for (g, &c) in reads.iter_mut().zip(disk_counts) {
                *g += c;
            }
            true
        } else {
            self.read_steps += max;
            false
        };
        if let Some(p) = &mut self.probe {
            p.on_batch(false, total, if grouped { 0 } else { max }, disk_counts);
        }
    }

    /// Record a batch of block writes (see [`IoStats::record_read_batch`]).
    pub fn record_write_batch(&mut self, disk_counts: &[u64]) {
        let mut total = 0;
        let mut max = 0;
        for (d, &c) in disk_counts.iter().enumerate() {
            self.per_disk_writes[d] += c;
            total += c;
            max = max.max(c);
        }
        self.blocks_written += total;
        let grouped = if let Some((_, writes)) = &mut self.group {
            for (g, &c) in writes.iter_mut().zip(disk_counts) {
                *g += c;
            }
            true
        } else {
            self.write_steps += max;
            false
        };
        if let Some(p) = &mut self.probe {
            p.on_batch(true, total, if grouped { 0 } else { max }, disk_counts);
        }
    }

    /// Open a named phase; counter deltas until [`IoStats::end_phase`] are
    /// attributed to it. Phases may not nest; opening a new phase closes the
    /// previous one. Memory gauges record as zero — use
    /// [`crate::machine::Pdm::begin_phase`] (or
    /// [`IoStats::begin_phase_gauged`]) to sample real residency.
    pub fn begin_phase(&mut self, name: impl Into<String>) {
        self.begin_phase_gauged(name, 0, 0);
    }

    /// [`IoStats::begin_phase`] with memory gauges sampled by the caller:
    /// `mem_current`/`mem_peak` are tracked residency and high-water (keys)
    /// at the boundary, typically from [`crate::mem::MemTracker`].
    pub fn begin_phase_gauged(
        &mut self,
        name: impl Into<String>,
        mem_current: usize,
        mem_peak: usize,
    ) {
        self.end_phase_gauged(mem_current, mem_peak);
        let name = name.into();
        if let Some(p) = &mut self.probe {
            p.on_phase_begin(&name, mem_current as u64, mem_peak as u64);
        }
        self.open_phase = Some((name, self.snapshot(mem_current)));
    }

    /// Close the open phase, if any, pushing its deltas onto `phases`.
    ///
    /// If an I/O group is still open, its deferred steps are charged here
    /// (and the group keeps collecting), so the phase that issued grouped
    /// batches is the phase billed for them.
    pub fn end_phase(&mut self) {
        self.end_phase_gauged(0, 0);
    }

    /// [`IoStats::end_phase`] with caller-sampled memory gauges.
    pub fn end_phase_gauged(&mut self, mem_current: usize, mem_peak: usize) {
        if self.open_phase.is_some() {
            self.settle_open_group();
        }
        if let Some((name, snap)) = self.open_phase.take() {
            if let Some(p) = &mut self.probe {
                p.on_phase_end(mem_current as u64, mem_peak as u64);
            }
            self.phases.push(PhaseStats {
                name,
                blocks_read: self.blocks_read - snap.blocks_read,
                blocks_written: self.blocks_written - snap.blocks_written,
                read_steps: self.read_steps - snap.read_steps,
                write_steps: self.write_steps - snap.write_steps,
                mem_begin: snap.mem_begin,
                mem_end: mem_current,
                mem_peak,
            });
        }
    }

    /// Read passes over `n` keys: `read_steps / (n / (D·B))`.
    ///
    /// This is the paper's pass metric; an algorithm achieving full disk
    /// parallelism and reading the data `p` times reports exactly `p`.
    pub fn read_passes(&self, n: usize, num_disks: usize, block_size: usize) -> f64 {
        let steps_per_pass = (n as f64) / (num_disks as f64 * block_size as f64);
        self.read_steps as f64 / steps_per_pass
    }

    /// Write passes over `n` keys (see [`IoStats::read_passes`]).
    pub fn write_passes(&self, n: usize, num_disks: usize, block_size: usize) -> f64 {
        let steps_per_pass = (n as f64) / (num_disks as f64 * block_size as f64);
        self.write_steps as f64 / steps_per_pass
    }

    /// Pass count by the *block volume* metric: `blocks_read·B / n`. Equal to
    /// [`IoStats::read_passes`] when every step keeps all `D` disks busy;
    /// smaller when parallelism is lost.
    pub fn read_volume_passes(&self, n: usize, block_size: usize) -> f64 {
        self.blocks_read as f64 * block_size as f64 / n as f64
    }

    /// Fraction of read-step disk capacity actually used:
    /// `blocks_read / (read_steps · D)`. 1.0 means full striping parallelism.
    pub fn read_parallel_efficiency(&self, num_disks: usize) -> f64 {
        if self.read_steps == 0 {
            return 1.0;
        }
        self.blocks_read as f64 / (self.read_steps as f64 * num_disks as f64)
    }

    /// Fraction of write-step disk capacity actually used.
    pub fn write_parallel_efficiency(&self, num_disks: usize) -> f64 {
        if self.write_steps == 0 {
            return 1.0;
        }
        self.blocks_written as f64 / (self.write_steps as f64 * num_disks as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::ProbeEvent;

    #[test]
    fn batch_step_cost_is_max_per_disk() {
        let mut s = IoStats::new(4);
        // 4 blocks spread one per disk: one step.
        s.record_read_batch(&[1, 1, 1, 1]);
        assert_eq!(s.read_steps, 1);
        assert_eq!(s.blocks_read, 4);
        // 4 blocks all on disk 0: four steps.
        s.record_read_batch(&[4, 0, 0, 0]);
        assert_eq!(s.read_steps, 5);
        assert_eq!(s.blocks_read, 8);
        assert_eq!(s.per_disk_reads, vec![5, 1, 1, 1]);
    }

    #[test]
    fn passes_metric_matches_definition() {
        let mut s = IoStats::new(2);
        // N = 64 keys, D = 2, B = 8 → one pass = 4 steps.
        for _ in 0..4 {
            s.record_read_batch(&[1, 1]);
        }
        assert!((s.read_passes(64, 2, 8) - 1.0).abs() < 1e-12);
        assert!((s.read_volume_passes(64, 8) - 1.0).abs() < 1e-12);
        assert!((s.read_parallel_efficiency(2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lost_parallelism_inflates_step_passes_only() {
        let mut s = IoStats::new(2);
        // 8 blocks, all on disk 0: 8 steps instead of 4.
        s.record_read_batch(&[8, 0]);
        assert!((s.read_passes(64, 2, 8) - 2.0).abs() < 1e-12);
        assert!((s.read_volume_passes(64, 8) - 1.0).abs() < 1e-12);
        assert!((s.read_parallel_efficiency(2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn phases_record_deltas() {
        let mut s = IoStats::new(2);
        s.begin_phase("a");
        s.record_read_batch(&[1, 1]);
        s.begin_phase("b"); // implicitly closes "a"
        s.record_write_batch(&[2, 2]);
        s.end_phase();
        assert_eq!(s.phases.len(), 2);
        assert_eq!(s.phases[0].name, "a");
        assert_eq!(s.phases[0].blocks_read, 2);
        assert_eq!(s.phases[0].blocks_written, 0);
        assert_eq!(s.phases[1].name, "b");
        assert_eq!(s.phases[1].blocks_written, 4);
        assert_eq!(s.phases[1].write_steps, 2);
    }

    #[test]
    fn trace_records_batches_and_caps() {
        let mut s = IoStats::new(4);
        s.enable_probe(3);
        s.record_read_batch(&[1, 1, 1, 1]);
        s.record_write_batch(&[2, 0, 0, 0]);
        s.record_read_batch(&[1, 0, 0, 0]);
        s.record_read_batch(&[1, 0, 0, 0]); // beyond cap: dropped
        let p = s.probe().unwrap();
        assert_eq!(p.events().len(), 3);
        assert_eq!(p.dropped, 1);
        assert!(matches!(
            &p.events()[1],
            ProbeEvent::Io { write: true, blocks: 2, steps: 2, per_disk, .. } if per_disk == &[2, 0, 0, 0]
        ));
        // full stripe, then two quarter stripes averaged into one cell
        assert_eq!(crate::probe::sparkline(p.events(), 4, 2), "█▃");
    }

    #[test]
    fn trace_disabled_by_default() {
        let mut s = IoStats::new(2);
        s.record_read_batch(&[1, 1]);
        assert!(s.probe().is_none());
        assert_eq!(crate::probe::sparkline(&[], 2, 10), "");
    }

    #[test]
    fn io_group_defers_and_merges_step_cost() {
        let mut s = IoStats::new(4);
        s.begin_group();
        // three separate single-block batches on distinct disks: without a
        // group they'd cost 3 steps; grouped they cost 1.
        s.record_write_batch(&[1, 0, 0, 0]);
        s.record_write_batch(&[0, 1, 0, 0]);
        s.record_write_batch(&[0, 0, 1, 0]);
        assert_eq!(s.write_steps, 0, "steps deferred while group open");
        s.end_group();
        assert_eq!(s.write_steps, 1);
        assert_eq!(s.blocks_written, 3);
        // imbalance inside a group is still charged
        s.begin_group();
        s.record_read_batch(&[3, 1, 0, 0]);
        s.record_read_batch(&[2, 0, 0, 0]);
        s.end_group();
        assert_eq!(s.read_steps, 5);
    }

    #[test]
    fn empty_group_is_free() {
        let mut s = IoStats::new(2);
        s.begin_group();
        s.end_group();
        assert_eq!(s.read_steps + s.write_steps, 0);
        s.end_group(); // double close is a no-op
    }

    #[test]
    #[should_panic(expected = "do not nest")]
    fn groups_do_not_nest() {
        let mut s = IoStats::new(2);
        s.begin_group();
        s.begin_group();
    }

    #[test]
    fn end_phase_without_open_is_noop() {
        let mut s = IoStats::new(1);
        s.end_phase();
        assert!(s.phases.is_empty());
    }

    #[test]
    fn trace_cap_is_exact_and_drops_are_counted() {
        let mut s = IoStats::new(2);
        s.enable_probe(5);
        for _ in 0..9 {
            s.record_read_batch(&[1, 1]);
        }
        assert_eq!(s.probe().unwrap().events().len(), 5);
        assert_eq!(s.probe().unwrap().dropped, 4);
    }

    #[test]
    fn phase_closed_over_open_group_keeps_its_deferred_steps() {
        // regression: steps deferred in an open I/O group used to be charged
        // only at end_group, so a phase boundary inside the group lost them
        let mut s = IoStats::new(4);
        s.begin_phase("early");
        s.begin_group();
        s.record_write_batch(&[1, 0, 0, 0]);
        s.record_write_batch(&[0, 1, 0, 0]);
        s.begin_phase("late"); // closes "early" while the group is open
        s.record_write_batch(&[0, 0, 1, 0]);
        s.end_group();
        s.end_phase();
        assert_eq!(s.phases[0].name, "early");
        assert_eq!(
            s.phases[0].write_steps, 1,
            "early phase keeps its grouped step"
        );
        assert_eq!(s.phases[1].name, "late");
        assert_eq!(s.phases[1].write_steps, 1);
        assert_eq!(s.write_steps, 2);
        assert_eq!(s.blocks_written, 3);
    }

    #[test]
    fn phase_group_split_does_not_change_ungrouped_totals() {
        // a group wholly inside one phase is charged identically with and
        // without the settlement path
        let mut s = IoStats::new(4);
        s.begin_phase("p");
        s.begin_group();
        s.record_write_batch(&[1, 0, 0, 0]);
        s.record_write_batch(&[0, 1, 0, 0]);
        s.end_group();
        s.end_phase();
        assert_eq!(s.write_steps, 1);
        assert_eq!(s.phases[0].write_steps, 1);
    }

    #[test]
    fn probe_stream_replays_to_aggregate_counters() {
        let mut s = IoStats::new(4);
        s.enable_probe(1 << 12);
        s.begin_phase("a");
        s.record_read_batch(&[1, 1, 1, 1]);
        s.record_write_batch(&[3, 0, 1, 0]);
        s.begin_phase("b");
        s.begin_group();
        s.record_write_batch(&[1, 0, 0, 0]);
        s.record_write_batch(&[0, 1, 0, 0]);
        s.end_group();
        s.record_read_batch(&[2, 2, 2, 2]);
        s.end_phase();
        let p = s.probe().unwrap();
        let r = crate::probe::replay(p.events(), 4);
        assert_eq!(r.blocks_read, s.blocks_read);
        assert_eq!(r.blocks_written, s.blocks_written);
        assert_eq!(r.read_steps, s.read_steps);
        assert_eq!(r.write_steps, s.write_steps);
        assert_eq!(r.per_disk_reads, s.per_disk_reads);
        assert_eq!(r.per_disk_writes, s.per_disk_writes);
        assert_eq!(r.phases.len(), s.phases.len());
        for (rp, sp) in r.phases.iter().zip(&s.phases) {
            assert_eq!(rp.name, sp.name);
            assert_eq!(rp.blocks_read, sp.blocks_read);
            assert_eq!(rp.blocks_written, sp.blocks_written);
            assert_eq!(rp.read_steps, sp.read_steps);
            assert_eq!(rp.write_steps, sp.write_steps);
        }
    }

    #[test]
    fn probe_replays_phase_split_groups_exactly() {
        // the settlement path must also round-trip through replay
        let mut s = IoStats::new(2);
        s.enable_probe(1 << 10);
        s.begin_phase("early");
        s.begin_group();
        s.record_write_batch(&[1, 0]);
        s.begin_phase("late");
        s.record_write_batch(&[0, 1]);
        s.end_group();
        s.end_phase();
        let r = crate::probe::replay(s.probe().unwrap().events(), 2);
        assert_eq!(r.write_steps, s.write_steps);
        assert_eq!(r.phases[0].write_steps, s.phases[0].write_steps);
        assert_eq!(r.phases[1].write_steps, s.phases[1].write_steps);
    }

    #[test]
    fn phase_memory_gauges_record_boundary_samples() {
        let mut s = IoStats::new(2);
        s.begin_phase_gauged("a", 128, 256);
        s.record_read_batch(&[1, 1]);
        s.end_phase_gauged(64, 300);
        assert_eq!(s.phases[0].mem_begin, 128);
        assert_eq!(s.phases[0].mem_end, 64);
        assert_eq!(s.phases[0].mem_peak, 300);
    }

    #[test]
    fn probe_gauge_is_noop_when_disabled() {
        let mut s = IoStats::new(2);
        s.probe_gauge("cleaner.carry", 7);
        assert!(s.probe().is_none());
        s.enable_probe(8);
        s.probe_gauge("cleaner.carry", 7);
        assert_eq!(s.probe().unwrap().events().len(), 1);
    }

    #[test]
    fn efficiency_with_no_io_is_one() {
        let s = IoStats::new(3);
        assert_eq!(s.read_parallel_efficiency(3), 1.0);
        assert_eq!(s.write_parallel_efficiency(3), 1.0);
    }

    #[test]
    fn overlap_stalls_attribute_to_open_phase() {
        let mut s = IoStats::new(2);
        s.record_overlap_stall(false, 100); // no phase open: totals only
        s.begin_phase("a");
        s.record_overlap_stall(false, 10);
        s.record_overlap_stall(true, 20);
        s.begin_phase("b");
        s.record_overlap_stall(true, 5);
        s.end_phase();
        assert_eq!(s.wall.read_stall_nanos, 110);
        assert_eq!(s.wall.write_stall_nanos, 25);
        assert_eq!(s.wall.total_stall_nanos(), 135);
        assert_eq!(s.wall.phase_stalls.len(), 2);
        assert_eq!(s.wall.phase_stalls[0].name, "a");
        assert_eq!(s.wall.phase_stalls[0].read_nanos, 10);
        assert_eq!(s.wall.phase_stalls[0].write_nanos, 20);
        assert_eq!(s.wall.phase_stalls[1].name, "b");
        assert_eq!(s.wall.phase_stalls[1].write_nanos, 5);
    }

    #[test]
    fn stall_share_requires_a_stamped_run_time() {
        let mut s = IoStats::new(1);
        s.record_overlap_stall(false, 500);
        assert_eq!(s.wall.stall_share(), 0.0, "unstamped run divides safely");
        s.wall.run_nanos = 1000;
        assert!((s.wall.stall_share() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn span_sink_records_caps_and_names_tracks() {
        let sink = SpanSink::new(2);
        sink.register_track(0, "disk0.read");
        sink.register_track(0, "ignored-duplicate");
        sink.register_track(SpanSink::PHASE_TRACK, "phases");
        let t0 = Instant::now();
        sink.record(0, "read 4", t0, t0 + std::time::Duration::from_micros(5));
        sink.record(0, "read 2", t0, t0);
        sink.record(0, "read 1", t0, t0); // past cap: dropped
        let spans = sink.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "read 4");
        assert!(spans[0].dur_ns >= 5_000);
        assert_eq!(sink.dropped(), 1);
        assert_eq!(
            sink.tracks(),
            vec![
                (0, "disk0.read".to_string()),
                (SpanSink::PHASE_TRACK, "phases".to_string())
            ]
        );
    }
}
