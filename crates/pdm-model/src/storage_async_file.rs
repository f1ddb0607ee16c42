//! The file medium, and the asynchronous real-disk storage built on it.
//!
//! [`FileDisks`] is one host file per disk under one directory. It owns
//! what both file-backed backends share: opening the files (with the
//! `O_DIRECT` probe), the `meta.pdm` geometry manifest, the per-disk
//! checksum tables, the physical-file fault hook and the cleanup of
//! temporary directories, and, in [`FileWorker`], the one path that moves
//! blocks. The two drivers of [`crate::storage_worker`] run it:
//! [`AsyncFileStorage`], the worker driver, whose read and write worker
//! threads each hold a [`FileWorker`] for all disks and whose
//! `start_*_batch` calls return at once so the machine's `--overlap`
//! pipelines hide real disk latency; and
//! [`crate::storage_file::FileStorage`], the caller driver, which holds one
//! [`FileWorker`] on the caller thread.
//!
//! ## Submission and alignment
//!
//! Each [`FileWorker`] holds its own handle on every disk file (private
//! cursors — no shared-seek races), an aligned staging buffer per disk
//! and, on the worker driver with the `uring` feature on Linux, one plain
//! io_uring ring for all disks (the caller driver always uses positioned
//! I/O). A kernel round takes at most the
//! queue depth of blocks from each disk, and never two writes to one slot.
//! With a ring, a round holds the next blocks of every disk a message
//! touches and goes to the kernel in one submission, so the disks of a
//! batch move concurrently. Ring setup failing (pre-5.6 kernel,
//! seccomp-filtered container) silently degrades that worker to
//! synchronous positioned I/O, which moves a message's disks one after
//! another; behavior is identical either way, only the submission
//! mechanism and its concurrency differ.
//!
//! The engine's files are opened with `O_DIRECT` when the block payload is
//! a multiple of 4096 bytes, so the benches measure the device rather than
//! the page cache; filesystems that refuse it (tmpfs) fall back to buffered
//! opens at creation time. Worker staging buffers are over-allocated and
//! sliced at a 4096-byte boundary so the buffer-address alignment
//! `O_DIRECT` demands holds without any unsafe code; file offsets are
//! `slot · block_bytes` and therefore aligned whenever the payload is.
//! [`crate::storage::Storage::caps`] reports the outcome in `direct_io`.
//!
//! ## Faults, retry and durability
//!
//! An armed [`FileFaults`] schedule draws one verdict per block transfer
//! and one per disk at every fsync, in the worker's order on both drivers;
//! an armed completion-time retry policy reissues transient per-block
//! failures on the worker, after the async I/O completed. With
//! `block-checksums`, each successful write records the FNV-1a sum of the
//! intended bytes in its disk's in-memory table, and each read verifies
//! against it before decoding.
//!
//! Both drivers keep one durability contract: [`crate::storage::Storage::sync`]
//! fsyncs every disk file, then rewrites each disk's `disk-<d>.sum` sidecar
//! from its table (fsynced), and only then the `meta.pdm` manifest (temp
//! file + fsync + rename + directory fsync). Sums recorded since the last
//! sync are lost in a crash. The machine syncs before every checkpoint
//! manifest, so a checkpoint always sees durable sums, and a resumed phase
//! rewrites each slot written after its checkpoint before it reads it.

#[cfg(feature = "block-checksums")]
use crate::checkpoint::{fnv1a, FNV_OFFSET};
use crate::error::{PdmError, Result};
use crate::file_faults::{BlockFault, FileFaults};
use crate::key::PdmKey;
use crate::overlap::DEFAULT_QUEUE_DEPTH;
use crate::stats::UringWall;
use crate::storage::StorageCaps;
use crate::storage_retry::{RetryCounters, RetryPolicy};
#[cfg(feature = "block-checksums")]
use crate::storage_worker::POISONED;
use crate::storage_worker::{Entry, Medium, MediumWorker, Split, Station, WorkerStorage};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::mem::take;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(feature = "block-checksums")]
use std::sync::Mutex;
use std::sync::{Arc, OnceLock};

/// Buffer-address / file-offset / transfer-length alignment `O_DIRECT`
/// requires (the logical block size is at most this on any disk we care
/// about; 4096 also covers 4Kn drives).
const DIRECT_ALIGN: usize = 4096;

/// `O_DIRECT` open flag value (asm-generic; aarch64 deviates).
const O_DIRECT_FLAG: i32 = if cfg!(target_arch = "aarch64") {
    0x10000
} else {
    0x4000
};

/// A byte staging area whose blocks start at a `DIRECT_ALIGN` boundary:
/// the backing `Vec` is over-allocated by one alignment unit and sliced
/// from the first aligned address, so no unsafe allocation tricks are
/// needed. The offset is recomputed whenever growth reallocates.
struct AlignedBuf {
    raw: Vec<u8>,
    block_bytes: usize,
    align: usize,
    /// Byte index of the first aligned address in `raw`.
    start: usize,
}

impl AlignedBuf {
    fn new(block_bytes: usize, align: usize) -> Self {
        Self {
            raw: Vec::new(),
            block_bytes,
            align: align.max(1),
            start: 0,
        }
    }

    /// Grow to hold at least `count` blocks (plus alignment slack).
    fn ensure(&mut self, count: usize) {
        let want = count * self.block_bytes + self.align;
        if self.raw.len() < want {
            self.raw.resize(want, 0);
            self.start = (self.align - (self.raw.as_ptr() as usize % self.align)) % self.align;
        }
    }

    /// Byte index of the first aligned address in `raw`.
    fn offset(&self) -> usize {
        self.start
    }

    /// Staged block `i`.
    fn block(&self, i: usize) -> &[u8] {
        let start = self.offset() + i * self.block_bytes;
        &self.raw[start..start + self.block_bytes]
    }

    fn block_mut(&mut self, i: usize) -> &mut [u8] {
        let start = self.offset() + i * self.block_bytes;
        &mut self.raw[start..start + self.block_bytes]
    }
}

/// How a worker hands its rounds to the kernel.
enum Driver {
    /// A round goes to the kernel in one `io_uring_enter`, every disk's
    /// blocks together; the ring's counters are folded into the
    /// storage-wide totals after each round.
    #[cfg(all(feature = "uring", target_os = "linux"))]
    Uring(pdm_uring::Ring, Arc<UringShared>),
    /// Positioned read/write per block on each disk's private handle.
    Sync,
}

/// Cumulative io_uring submit/reap batching counters, summed over every
/// worker ring of the storage (wall-clock telemetry; plain atomics so
/// workers fold their per-ring deltas in without coordination).
#[derive(Default)]
struct UringShared {
    submit_calls: AtomicU64,
    submitted_sqes: AtomicU64,
    reap_rounds: AtomicU64,
    reaped_cqes: AtomicU64,
}

impl UringShared {
    fn snapshot(&self) -> UringWall {
        UringWall {
            submit_calls: self.submit_calls.load(Ordering::Relaxed),
            submitted_sqes: self.submitted_sqes.load(Ordering::Relaxed),
            reap_rounds: self.reap_rounds.load(Ordering::Relaxed),
            reaped_cqes: self.reaped_cqes.load(Ordering::Relaxed),
        }
    }

    /// Fold one round's counter deltas in.
    #[cfg(all(feature = "uring", target_os = "linux"))]
    fn add(&self, before: pdm_uring::RingStats, after: pdm_uring::RingStats) {
        let add = |ctr: &AtomicU64, a: u64, b: u64| {
            ctr.fetch_add(a.wrapping_sub(b), Ordering::Relaxed);
        };
        add(&self.submit_calls, after.submit_calls, before.submit_calls);
        add(
            &self.submitted_sqes,
            after.submitted_sqes,
            before.submitted_sqes,
        );
        add(&self.reap_rounds, after.reap_rounds, before.reap_rounds);
        add(&self.reaped_cqes, after.reaped_cqes, before.reaped_cqes);
    }
}

/// One file disk as one [`FileWorker`] sees it: a private handle (its own
/// cursor, so no shared-seek races) and an aligned staging buffer.
struct FileDisk {
    file: File,
    staging: AlignedBuf,
    /// This disk's live checksum table (slot → FNV-1a, 0 = unchecked),
    /// shared between both workers and the medium.
    #[cfg(feature = "block-checksums")]
    sums: Arc<Mutex<Vec<u64>>>,
}

/// One thread's service state over every file disk: each disk's handle,
/// staging buffer and checksum table, and one kernel submission path for
/// all of them.
pub struct FileWorker {
    disks: Vec<FileDisk>,
    /// Keys per block.
    block_size: usize,
    /// Max blocks of one disk per kernel round: the configured queue depth.
    depth: usize,
    driver: Driver,
    /// Physical-file fault schedule, armed before any I/O is dispatched
    /// (empty in production). Consulted per block transfer and per fsync.
    faults: Arc<OnceLock<Arc<FileFaults>>>,
    /// Completion-time retry config, armed by the builder when a retry
    /// policy wraps this backend. Transient per-block failures are
    /// reissued right here on the worker — after the async I/O completed,
    /// off the caller's critical path — and folded into the same counters
    /// as the issue-time retry layer's.
    retry: Arc<OnceLock<(RetryPolicy, RetryCounters)>>,
    /// The kernel rounds of the batch being served.
    plan: Plan,
    /// One round's transfer results.
    results: Vec<std::io::Result<()>>,
}

/// A batch's kernel rounds, kept from batch to batch so planning one
/// allocates nothing once the buffers have grown. A round is a list of
/// parts, each a disk and a run of the split's entries on it (positions in
/// [`Split::entries`]), disks in order.
#[derive(Default)]
struct Plan {
    parts: Vec<(usize, Range<usize>)>,
    /// Where each round ends in `parts`.
    ends: Vec<usize>,
    /// Each share's disk, next uncut entry and end, while planning.
    next: Vec<(usize, usize, usize)>,
}

impl Plan {
    /// Cut every share of `split` into runs of at most `depth` blocks; a
    /// write run also ends before a slot it already holds, since two
    /// writes to one slot must not share a kernel submission (the kernel
    /// may reorder within a batch). Round `r` takes the `r`-th run of every
    /// share.
    fn make(&mut self, split: &Split, depth: usize, write: bool) {
        let entries = split.entries();
        self.parts.clear();
        self.ends.clear();
        self.next.clear();
        let mut start = 0;
        for (disk, share) in split.shares() {
            self.next.push((disk, start, start + share.len()));
            start += share.len();
        }
        let mut left = entries.len();
        while left > 0 {
            for (disk, at, end) in &mut self.next {
                if *at == *end {
                    continue;
                }
                let run = &entries[*at..(*end).min(*at + depth.max(1))];
                let stop = *at + if write { write_cut(run) } else { run.len() };
                self.parts.push((*disk, *at..stop));
                left -= stop - *at;
                *at = stop;
            }
            self.ends.push(self.parts.len());
        }
    }

    /// Every round's parts, in order.
    fn rounds(&self) -> impl Iterator<Item = &[(usize, Range<usize>)]> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let round = &self.parts[start..end];
            start = end;
            round
        })
    }
}

/// How many leading entries of `run` one kernel submission can write: up
/// to the first slot it already holds, or all of them.
fn write_cut(run: &[Entry]) -> usize {
    let mut top = None;
    for (k, &(slot, _)) in run.iter().enumerate() {
        // Slots mostly rise along a share, which rules a repeat out.
        if top.is_some_and(|t| slot <= t) && run[..k].iter().any(|e| e.0 == slot) {
            return k;
        }
        top = top.max(Some(slot));
    }
    run.len()
}

/// Each part's disk and block count, as [`Station::round`] records them.
fn blocks(round: &[(usize, Range<usize>)]) -> impl Iterator<Item = (usize, usize)> + '_ {
    round.iter().map(|(disk, run)| (*disk, run.len()))
}

/// The first failure of a batch in disk order: by position in
/// [`Split::entries`].
#[derive(Default)]
struct FirstErr(Option<(usize, PdmError)>);

impl FirstErr {
    /// Keep `res` if it fails before the failure kept so far.
    fn note(&mut self, at: usize, res: Result<()>) {
        if let Err(e) = res {
            if self.0.as_ref().is_none_or(|(first, _)| at < *first) {
                self.0 = Some((at, e));
            }
        }
    }

    fn into_result(self) -> Result<()> {
        self.0.map_or(Ok(()), |(_, e)| Err(e))
    }
}

impl FileWorker {
    /// Transfer one kernel round between each part's staging buffer and
    /// its file, one result per entry, parts in order. The staging buffers
    /// hold the payloads (writes) or receive them (reads). A ring takes
    /// the whole round in one submission, so its disks move concurrently;
    /// positioned I/O moves one block after another.
    ///
    /// When a fault schedule is armed, one verdict is drawn per block up
    /// front, in round order (the ring and positioned paths share the
    /// schedule): faulted blocks never reach the kernel — short transfers
    /// and EIO fail immediately, torn writes submit only the first half of
    /// the block and report success.
    fn transfer(
        &mut self,
        entries: &[Entry],
        round: &[(usize, Range<usize>)],
        write: bool,
        results: &mut Vec<std::io::Result<()>>,
    ) {
        results.clear();
        let blocks: usize = round.iter().map(|(_, run)| run.len()).sum();
        let verdicts: Option<Vec<BlockFault>> = self
            .faults
            .get()
            .map(|f| (0..blocks).map(|_| f.block_fault(write)).collect());
        let verdict = |i: usize| verdicts.as_ref().map_or(BlockFault::None, |v| v[i]);
        match &mut self.driver {
            #[cfg(all(feature = "uring", target_os = "linux"))]
            Driver::Uring(ring, shared) => {
                use std::os::fd::AsRawFd;
                let mut ops: Vec<pdm_uring::Op<'_>> = Vec::with_capacity(blocks);
                let mut i = 0;
                // Each part's disk, borrowed once: the parts come in disk
                // order.
                let mut pick = self.disks.iter_mut().enumerate();
                for (d, run) in round {
                    let disk = pick
                        .find_map(|(i, disk)| (i == *d).then_some(disk))
                        .expect("round parts in disk order");
                    let fd = disk.file.as_raw_fd();
                    let bb = disk.staging.block_bytes;
                    let off = disk.staging.offset();
                    let staged = &mut disk.staging.raw[off..];
                    for (chunk, &(slot, _)) in staged.chunks_mut(bb).zip(&entries[run.clone()]) {
                        let offset = slot as u64 * bb as u64;
                        let fault = verdict(i);
                        i += 1;
                        ops.push(match (write, fault) {
                            (_, BlockFault::ShortTransfer | BlockFault::Eio) => continue,
                            (true, BlockFault::Torn) => pdm_uring::Op::Write {
                                fd,
                                buf: &chunk[..bb / 2],
                                offset,
                            },
                            (true, _) => pdm_uring::Op::Write {
                                fd,
                                buf: chunk,
                                offset,
                            },
                            (false, _) => pdm_uring::Op::Read {
                                fd,
                                buf: chunk,
                                offset,
                            },
                        });
                    }
                }
                let before = ring.stats();
                let completions = ring.run(&mut ops);
                shared.add(before, ring.stats());
                // Scatter ring completions back over the blocks that were
                // actually submitted; faulted blocks get their injected
                // error in place.
                let mut completions = completions.into_iter();
                results.extend((0..blocks).map(|i| {
                    match verdict(i) {
                        BlockFault::ShortTransfer => Err(FileFaults::short_transfer_error(write)),
                        BlockFault::Eio => Err(FileFaults::eio_error()),
                        BlockFault::None | BlockFault::Torn => completions
                            .next()
                            .unwrap_or_else(|| Err(std::io::Error::other("lost ring completion"))),
                    }
                }));
            }
            Driver::Sync => {
                for (d, run) in round {
                    let disk = &mut self.disks[*d];
                    let bb = disk.staging.block_bytes;
                    let off = disk.staging.offset();
                    let staged = &mut disk.staging.raw[off..];
                    for (chunk, &(slot, _)) in staged.chunks_mut(bb).zip(&entries[run.clone()]) {
                        let i = results.len();
                        results.push(positioned(&disk.file, chunk, slot, write, verdict(i)));
                    }
                }
            }
        }
    }

    /// Completion-time retry: given the failed transfer `err` of block `i`
    /// of disk `disk`'s run in this round, reissue it while it keeps
    /// failing transiently,
    /// up to the armed policy's attempt budget. Runs on the worker — the
    /// async I/O already completed, so the caller's pipeline keeps
    /// draining other blocks while this one is re-driven. Mirrors the
    /// issue-time layer's accounting exactly: retry `k` charges
    /// `k · backoff_steps`, each reissue lands on this disk's per-disk
    /// counter, and a spent budget records one exhaustion.
    fn retry(
        &mut self,
        disk: usize,
        i: usize,
        slot: usize,
        write: bool,
        mut err: std::io::Error,
    ) -> std::io::Result<()> {
        let Some((policy, counters)) = self.retry.get().cloned() else {
            return Err(err);
        };
        let attempts = policy.max_attempts.max(1);
        let mut attempt: u32 = 0;
        loop {
            if !crate::error::io_error_transient(&err) {
                return Err(err);
            }
            attempt += 1;
            if attempt >= attempts {
                counters.record_exhausted();
                return Err(err);
            }
            counters.record_completion_retry(write, disk, u64::from(attempt), &policy);
            // Retries are rare, so they skip the batch driver; the fault
            // schedule still advances per attempt, which is what lets
            // injected transient faults heal on reissue.
            let verdict = self
                .faults
                .get()
                .map_or(BlockFault::None, |f| f.block_fault(write));
            let d = &mut self.disks[disk];
            let chunk = d.staging.block_mut(i);
            match positioned(&d.file, chunk, slot, write, verdict) {
                Ok(()) => return Ok(()),
                Err(e) => err = e,
            }
        }
    }

    /// Decode block `i` of disk `disk`'s staged round into `block`,
    /// verifying its checksum first when the feature is on.
    fn decode_block<K: PdmKey>(
        &self,
        station: &Station,
        disk: usize,
        i: usize,
        slot: usize,
        block: &mut [K],
    ) -> Result<()> {
        let bytes = self.disks[disk].staging.block(i);
        #[cfg(feature = "block-checksums")]
        if verify_sum(&self.disks[disk].sums, disk, slot, bytes)? {
            station.verified(disk);
        }
        #[cfg(not(feature = "block-checksums"))]
        let _ = (station, slot);
        for (key, bytes) in block.iter_mut().zip(bytes.chunks_exact(K::WIDTH)) {
            *key = K::read_bytes(bytes);
        }
        Ok(())
    }
}

/// Check one read block's bytes against its disk's checksum table:
/// `Ok(true)` when verified, `Ok(false)` when the slot is unchecked (a zero
/// entry, or one past the table: never written under checksumming), and
/// [`PdmError::Corrupt`] on a mismatch.
#[cfg(feature = "block-checksums")]
fn verify_sum(table: &Mutex<Vec<u64>>, disk: usize, slot: usize, bytes: &[u8]) -> Result<bool> {
    let stored = table
        .lock()
        .expect(POISONED)
        .get(slot)
        .copied()
        .unwrap_or(0);
    if stored == 0 {
        return Ok(false);
    }
    let computed = fnv1a(FNV_OFFSET, bytes);
    if stored != computed {
        return Err(PdmError::Corrupt {
            disk,
            slot,
            detail: format!(
                "block checksum mismatch: stored {stored:016x}, computed {computed:016x}"
            ),
        });
    }
    Ok(true)
}

/// Record the checksum of a block's *intended* bytes once its write
/// reported success. A torn write reports success too — that is the
/// point: its entry won't match the half-written block, so the next read
/// surfaces Corrupt instead of wrong data.
#[cfg(feature = "block-checksums")]
fn record_sum(table: &Mutex<Vec<u64>>, slot: usize, bytes: &[u8]) {
    let sum = fnv1a(FNV_OFFSET, bytes);
    let mut sums = table.lock().expect(POISONED);
    if sums.len() <= slot {
        sums.resize(slot + 1, 0);
    }
    sums[slot] = sum;
}

/// Draw the next fsync-fault verdict, when a schedule is armed.
fn sync_fault(faults: &OnceLock<Arc<FileFaults>>) -> std::io::Result<()> {
    faults.get().map_or(Ok(()), |f| f.sync_fault())
}

/// One positioned block transfer on `file` under a fault verdict: one
/// `pread`/`pwrite` on Unix, a seek and a transfer elsewhere.
fn positioned(
    file: &File,
    chunk: &mut [u8],
    slot: usize,
    write: bool,
    verdict: BlockFault,
) -> std::io::Result<()> {
    let len = match verdict {
        BlockFault::None => chunk.len(),
        BlockFault::Torn => chunk.len() / 2,
        BlockFault::ShortTransfer => return Err(FileFaults::short_transfer_error(write)),
        BlockFault::Eio => return Err(FileFaults::eio_error()),
    };
    let offset = slot as u64 * chunk.len() as u64;
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        if write {
            file.write_all_at(&chunk[..len], offset)
        } else {
            file.read_exact_at(chunk, offset)
        }
    }
    #[cfg(not(unix))]
    {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = file;
        file.seek(SeekFrom::Start(offset))?;
        if write {
            file.write_all(&chunk[..len])
        } else {
            file.read_exact(chunk)
        }
    }
}

impl<K: PdmKey> MediumWorker<K> for FileWorker {
    /// Reads go to the kernel at most `depth` blocks per disk per round.
    /// Transient per-block failures are reissued here (completion-time
    /// retry); with `block-checksums`, surviving reads are verified before
    /// decode and mismatches surface as [`PdmError::Corrupt`].
    fn read(&mut self, station: &Station, split: &Split, out: &mut [K]) -> Result<()> {
        let b = self.block_size;
        let entries = split.entries();
        let (mut plan, mut results) = (take(&mut self.plan), take(&mut self.results));
        plan.make(split, self.depth, false);
        let mut first = FirstErr::default();
        for round in plan.rounds() {
            for (disk, run) in round {
                self.disks[*disk].staging.ensure(run.len());
            }
            station.round(blocks(round), || {
                self.transfer(entries, round, false, &mut results)
            });
            let mut done = results.drain(..);
            for (disk, run) in round {
                for (i, (at, res)) in run.clone().zip(done.by_ref()).enumerate() {
                    let (slot, index) = entries[at];
                    let res = match res.or_else(|e| self.retry(*disk, i, slot, false, e)) {
                        Ok(()) => {
                            let block = &mut out[index * b..(index + 1) * b];
                            self.decode_block(station, *disk, i, slot, block)
                        }
                        Err(e) => Err(PdmError::Io(e)),
                    };
                    first.note(at, res);
                }
            }
        }
        (self.plan, self.results) = (plan, results);
        first.into_result()
    }

    /// Writes go to the kernel at most `depth` blocks per disk per round,
    /// and a disk's run is also cut before a slot it already stages (see
    /// `Plan::make`).
    fn write(&mut self, station: &Station, split: &Split, data: &[K]) -> Result<()> {
        let b = self.block_size;
        let entries = split.entries();
        let (mut plan, mut results) = (take(&mut self.plan), take(&mut self.results));
        plan.make(split, self.depth, true);
        let mut first = FirstErr::default();
        for round in plan.rounds() {
            for (disk, run) in round {
                let staging = &mut self.disks[*disk].staging;
                staging.ensure(run.len());
                for (i, &(_, index)) in entries[run.clone()].iter().enumerate() {
                    let bytes = staging.block_mut(i);
                    for (key, dst) in data[index * b..(index + 1) * b]
                        .iter()
                        .zip(bytes.chunks_exact_mut(K::WIDTH))
                    {
                        key.write_bytes(dst);
                    }
                }
            }
            station.round(blocks(round), || {
                self.transfer(entries, round, true, &mut results)
            });
            let mut done = results.drain(..);
            for (disk, run) in round {
                for (i, (at, res)) in run.clone().zip(done.by_ref()).enumerate() {
                    let slot = entries[at].0;
                    // Completion-time retry before the checksum is recorded:
                    // the worker still holds the staged payload, so a failed
                    // write can be re-driven without any caller involvement.
                    let res = res.or_else(|e| self.retry(*disk, i, slot, true, e));
                    #[cfg(feature = "block-checksums")]
                    if res.is_ok() {
                        let d = &self.disks[*disk];
                        record_sum(&d.sums, slot, d.staging.block(i));
                    }
                    first.note(at, res.map_err(PdmError::Io));
                }
            }
        }
        (self.plan, self.results) = (plan, results);
        first.into_result()
    }

    /// Every disk draws one fsync verdict and syncs, in disk order, even
    /// after one fails.
    fn sync(&mut self) -> Result<()> {
        let faults = &self.faults;
        self.disks
            .iter()
            .map(|d| {
                sync_fault(faults)
                    .and_then(|()| d.file.sync_all())
                    .map_err(PdmError::Io)
            })
            .fold(Ok(()), Result::and)
    }
}

/// Open one disk file; when `direct` is requested, try `O_DIRECT` first
/// and fall back to a buffered open where the filesystem refuses it
/// (tmpfs). Returns the handle and whether direct I/O is actually on.
fn open_disk(path: &Path, truncate: bool, direct: bool) -> Result<(File, bool)> {
    #[cfg(unix)]
    if direct {
        use std::os::unix::fs::OpenOptionsExt;
        let attempt = OpenOptions::new()
            .read(true)
            .write(true)
            .create(truncate)
            .truncate(truncate)
            .custom_flags(O_DIRECT_FLAG)
            .open(path);
        if let Ok(f) = attempt {
            return Ok((f, true));
        }
    }
    #[cfg(not(unix))]
    let _ = direct;
    let f = OpenOptions::new()
        .read(true)
        .write(true)
        .create(truncate)
        .truncate(truncate)
        .open(path)?;
    Ok((f, false))
}

/// Load one disk's checksum sidecar: slot-indexed little-endian u64 words
/// (`disk-<d>.sum`). A missing file means nothing was ever checksummed
/// (empty table); short files simply leave later slots unchecked.
#[cfg(feature = "block-checksums")]
fn load_sums(dir: &Path, disk: usize) -> Result<Vec<u64>> {
    match std::fs::read(dir.join(format!("disk-{disk}.sum"))) {
        Ok(bytes) => Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e.into()),
    }
}

/// Persist one disk's checksum table to its sidecar, fsynced: sums must
/// be durable before the geometry manifest commits, or a crash could
/// leave fresh data guarded by stale checksums (false corruption on
/// resume).
#[cfg(feature = "block-checksums")]
fn store_sums(dir: &Path, disk: usize, table: &[u64]) -> Result<()> {
    let mut bytes = Vec::with_capacity(table.len() * 8);
    for s in table {
        bytes.extend_from_slice(&s.to_le_bytes());
    }
    let mut f = File::create(dir.join(format!("disk-{disk}.sum")))?;
    f.write_all(&bytes)?;
    f.sync_all()?;
    Ok(())
}

/// The most entries the kernel grants one io_uring ring
/// (`IORING_MAX_ENTRIES`); a round larger than its ring submits in turns.
const MAX_RING_ENTRIES: usize = 32768;

/// Set up one worker's submission path: a plain io_uring ring of
/// `entries` entries with the `uring` feature when the kernel grants one,
/// positioned I/O otherwise.
#[cfg_attr(
    not(all(feature = "uring", target_os = "linux")),
    allow(unused_variables)
)]
fn driver(entries: usize, uring: &Arc<UringShared>) -> Driver {
    #[cfg(all(feature = "uring", target_os = "linux"))]
    {
        use std::sync::atomic::AtomicBool;
        // ENOSYS/seccomp verdicts are process-wide facts: once one worker
        // classifies setup as permanently unavailable, later workers skip
        // the doomed syscall.
        static URING_UNAVAILABLE: AtomicBool = AtomicBool::new(false);
        if !URING_UNAVAILABLE.load(Ordering::Relaxed) {
            match pdm_uring::Ring::new(entries as u32) {
                Ok(ring) => return Driver::Uring(ring, Arc::clone(uring)),
                // No io_uring here: positioned I/O gives identical
                // behavior, just per-block syscalls. Transient setup
                // failures (e.g. ENOMEM) only downgrade this worker;
                // permanent ones (old kernel, seccomp) downgrade the
                // process.
                Err(e) => {
                    if pdm_uring::ring_unavailable(&e) {
                        URING_UNAVAILABLE.store(true, Ordering::Relaxed);
                    }
                }
            }
        }
    }
    Driver::Sync
}

/// Magic first line of the `meta.pdm` geometry manifest.
const META_MAGIC: &str = "pdm-disk-meta-v1";

/// Parse and validate a `meta.pdm` manifest, returning the per-disk
/// allocation it records.
fn parse_meta(
    text: &str,
    num_disks: usize,
    block_size: usize,
    key_width: usize,
) -> Result<Vec<usize>> {
    let bad = |msg: String| PdmError::BadConfig(format!("disk meta manifest: {msg}"));
    let mut lines = text.lines();
    if lines.next() != Some(META_MAGIC) {
        return Err(bad("missing or wrong magic line".into()));
    }
    let (mut disks, mut block, mut width, mut allocated) = (None, None, None, None);
    for line in lines.map(str::trim).filter(|l| !l.is_empty()) {
        let (k, v) = line
            .split_once('=')
            .ok_or_else(|| bad("line without '='".into()))?;
        let (k, v) = (k.trim(), v.trim());
        let num = |key: &str| v.parse::<usize>().map_err(|_| bad(format!("bad {key}")));
        match k {
            "disks" => disks = Some(num(k)?),
            "block" => block = Some(num(k)?),
            "width" => width = Some(num(k)?),
            "allocated" => {
                let list: std::result::Result<Vec<usize>, _> =
                    v.split_whitespace().map(str::parse).collect();
                allocated = Some(list.map_err(|_| bad("bad allocated list".into()))?);
            }
            _ => return Err(bad(format!("unknown key '{k}'"))),
        }
    }
    let missing = |key: &str| bad(format!("missing {key}"));
    let disks = disks.ok_or_else(|| missing("disks"))?;
    let block = block.ok_or_else(|| missing("block"))?;
    let width = width.ok_or_else(|| missing("width"))?;
    let allocated: Vec<usize> = allocated.ok_or_else(|| missing("allocated"))?;
    if disks != num_disks || block != block_size || width != key_width {
        return Err(bad(format!(
            "geometry mismatch: manifest has {disks} disks, B = {block}, \
             key width {width}; caller wants {num_disks} disks, B = {block_size}, \
             key width {key_width}"
        )));
    }
    if allocated.len() != disks {
        return Err(bad("allocated list length disagrees with disks".into()));
    }
    Ok(allocated)
}

/// Atomically persist a geometry manifest under `dir`: temp file + fsync +
/// rename + directory fsync.
fn write_meta(
    dir: &Path,
    num_disks: usize,
    block_size: usize,
    key_width: usize,
    allocated: &[usize],
) -> Result<()> {
    let allocated: String = allocated.iter().map(|a| format!(" {a}")).collect();
    let text = format!(
        "{META_MAGIC}\ndisks = {num_disks}\nblock = {block_size}\nwidth = {key_width}\n\
         allocated ={allocated}\n"
    );
    let tmp = dir.join("meta.pdm.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, dir.join("meta.pdm"))?;
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// The file medium: one host file per disk under one directory.
pub struct FileDisks {
    /// Caller-thread handles: growth (every transfer goes through a
    /// [`FileWorker`]'s own handles).
    files: Vec<File>,
    paths: Vec<PathBuf>,
    dir: PathBuf,
    /// Keys per block.
    pub(crate) block_size: usize,
    direct_io: bool,
    remove_on_drop: bool,
    uring: Arc<UringShared>,
    faults: Arc<OnceLock<Arc<FileFaults>>>,
    retry: Arc<OnceLock<(RetryPolicy, RetryCounters)>>,
    /// Per-disk live checksum tables, shared with the disk's read and
    /// write [`FileWorker`]; persisted to `disk-<d>.sum` sidecars at sync.
    #[cfg(feature = "block-checksums")]
    sums: Vec<Arc<Mutex<Vec<u64>>>>,
}

impl FileDisks {
    /// Open the disk files `disk-0.pdm … disk-{D-1}.pdm` under `dir`:
    /// created (and truncated) when `truncate`, otherwise opened as they
    /// are, with a found `meta.pdm` validated against the geometry and key
    /// `width` and the persisted checksum tables loaded. `direct` asks for
    /// `O_DIRECT` where the block payload allows it. Returns the medium
    /// and each disk's allocation: zero on create, the manifest's on
    /// readback, or derived from file lengths when there is no manifest.
    pub(crate) fn open(
        dir: &Path,
        num_disks: usize,
        block_size: usize,
        width: usize,
        truncate: bool,
        direct: bool,
    ) -> Result<(Self, Vec<usize>)> {
        let block_bytes = block_size * width;
        let meta_allocated = if truncate {
            std::fs::create_dir_all(dir)?;
            None
        } else {
            match std::fs::read_to_string(dir.join("meta.pdm")) {
                Ok(text) => Some(parse_meta(&text, num_disks, block_size, width)?),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
                Err(e) => return Err(e.into()),
            }
        };
        // O_DIRECT is only attempted when every transfer (length and file
        // offset alike) would be aligned; otherwise the kernel would
        // reject each op with EINVAL.
        let want_direct = direct && cfg!(unix) && block_bytes % DIRECT_ALIGN == 0;
        let mut disks = FileDisks {
            files: Vec::with_capacity(num_disks),
            paths: Vec::with_capacity(num_disks),
            dir: dir.to_path_buf(),
            block_size,
            direct_io: num_disks > 0,
            remove_on_drop: false,
            uring: Arc::default(),
            faults: Arc::default(),
            retry: Arc::default(),
            #[cfg(feature = "block-checksums")]
            sums: Vec::with_capacity(num_disks),
        };
        let mut allocated = Vec::with_capacity(num_disks);
        for d in 0..num_disks {
            let path = dir.join(format!("disk-{d}.pdm"));
            // This open probes O_DIRECT support; worker handles reuse the
            // verdict.
            let (file, opened_direct) = open_disk(&path, truncate, want_direct)?;
            disks.direct_io &= opened_direct;
            allocated.push(match &meta_allocated {
                Some(a) => a[d],
                None if truncate => 0,
                None => (file.metadata()?.len() / block_bytes as u64) as usize,
            });
            // A readback restores each disk's persisted checksum table; a
            // fresh create starts unchecked (all-zero).
            #[cfg(feature = "block-checksums")]
            disks.sums.push(Arc::new(Mutex::new(if truncate {
                Vec::new()
            } else {
                load_sums(dir, d)?
            })));
            disks.files.push(file);
            disks.paths.push(path);
        }
        Ok((disks, allocated))
    }

    /// [`FileDisks::open`] creating under a fresh unique directory
    /// `pdm-<pid>-<n>` in the OS temp dir, which is removed with the
    /// medium.
    pub(crate) fn create_temp(
        num_disks: usize,
        block_size: usize,
        width: usize,
        direct: bool,
    ) -> Result<(Self, Vec<usize>)> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = format!(
            "pdm-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        );
        let dir = std::env::temp_dir().join(unique);
        let (mut disks, allocated) = Self::open(&dir, num_disks, block_size, width, true, direct)?;
        disks.remove_on_drop = true;
        Ok((disks, allocated))
    }

    /// Paths of the disk files.
    pub(crate) fn paths(&self) -> &[PathBuf] {
        &self.paths
    }

    /// Arm the physical-file fault schedule. Must be called before any
    /// I/O is dispatched; a second call is ignored.
    pub(crate) fn set_file_faults(&self, faults: Arc<FileFaults>) {
        let _ = self.faults.set(faults);
    }

    /// One thread's service state: a private handle and an aligned staging
    /// buffer per disk, and one submission path for all disks that takes
    /// `depth` blocks of every disk in one round: a ring when `ring` asks
    /// for one and the kernel grants it, positioned I/O otherwise.
    pub(crate) fn worker(
        &self,
        block_bytes: usize,
        depth: usize,
        ring: bool,
    ) -> Result<FileWorker> {
        let align = if self.direct_io { DIRECT_ALIGN } else { 1 };
        let disks = (0..self.paths.len())
            .map(|d| {
                let (file, _) = open_disk(&self.paths[d], false, self.direct_io)?;
                Ok(FileDisk {
                    file,
                    staging: AlignedBuf::new(block_bytes, align),
                    #[cfg(feature = "block-checksums")]
                    sums: Arc::clone(&self.sums[d]),
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(FileWorker {
            driver: if ring {
                driver((disks.len() * depth).min(MAX_RING_ENTRIES), &self.uring)
            } else {
                Driver::Sync
            },
            disks,
            block_size: self.block_size,
            depth,
            faults: Arc::clone(&self.faults),
            retry: Arc::clone(&self.retry),
            plan: Plan::default(),
            results: Vec::new(),
        })
    }
}

impl<K: PdmKey> Medium<K> for FileDisks {
    type Worker = FileWorker;

    fn grow(&mut self, disk: usize, slots: usize) -> Result<()> {
        let block_bytes = (self.block_size * K::WIDTH) as u64;
        Ok(self.files[disk].set_len(slots as u64 * block_bytes)?)
    }

    /// Checksum sidecars go durable before the manifest: a resume must
    /// never see new data guarded by older checksums.
    fn commit(&mut self, allocated: &[usize]) -> Result<()> {
        #[cfg(feature = "block-checksums")]
        for (d, table) in self.sums.iter().enumerate() {
            store_sums(&self.dir, d, &table.lock().expect(POISONED))?;
        }
        write_meta(
            &self.dir,
            self.files.len(),
            self.block_size,
            K::WIDTH,
            allocated,
        )
    }

    /// `direct_io` reports the actual open outcome probed at creation;
    /// `checksums` follows the `block-checksums` feature — reads verify
    /// against the per-disk FNV-1a tables in the [`FileWorker`].
    fn caps(&self) -> StorageCaps {
        StorageCaps {
            direct_io: self.direct_io,
            checksums: cfg!(feature = "block-checksums"),
            ..StorageCaps::default()
        }
    }

    fn uring(&self) -> UringWall {
        self.uring.snapshot()
    }
}

impl Drop for FileDisks {
    /// Both drivers drop their [`FileWorker`]s first.
    fn drop(&mut self) {
        if self.remove_on_drop {
            for (d, p) in self.paths.iter().enumerate() {
                let _ = std::fs::remove_file(p);
                let _ = std::fs::remove_file(self.dir.join(format!("disk-{d}.sum")));
            }
            let _ = std::fs::remove_file(self.dir.join("meta.pdm"));
            let _ = std::fs::remove_file(self.dir.join("meta.pdm.tmp"));
            let _ = std::fs::remove_dir(&self.dir);
        }
    }
}

/// Asynchronous file-backed storage: real disk files, one read and one
/// write worker thread for all disks, batched kernel submission (one
/// io_uring ring per worker with the `uring` feature), `O_DIRECT` where
/// the geometry and filesystem allow.
pub type AsyncFileStorage<K> = WorkerStorage<K, FileDisks>;

impl<K: PdmKey> AsyncFileStorage<K> {
    /// Create disk files `disk-0.pdm … disk-{D-1}.pdm` under `dir`
    /// (truncating existing ones) and spawn the worker threads.
    pub fn create(dir: impl AsRef<Path>, num_disks: usize, block_size: usize) -> Result<Self> {
        Self::create_with(dir, num_disks, block_size, DEFAULT_QUEUE_DEPTH)
    }

    /// [`AsyncFileStorage::create`] with an explicit per-disk queue depth:
    /// max blocks of one disk per kernel round. With the `uring` feature,
    /// each worker's ring is sized to take a round of every disk at once
    /// (`D ×` the depth).
    pub fn create_with(
        dir: impl AsRef<Path>,
        num_disks: usize,
        block_size: usize,
        queue_depth: usize,
    ) -> Result<Self> {
        let medium = FileDisks::open(dir.as_ref(), num_disks, block_size, K::WIDTH, true, true)?;
        Self::on(medium, queue_depth)
    }

    /// Open existing disk files under `dir` without truncating. A
    /// `meta.pdm` manifest is validated against the requested geometry
    /// and restores the exact per-disk allocation; without one, allocation
    /// derives from file lengths.
    pub fn create_readback(
        dir: impl AsRef<Path>,
        num_disks: usize,
        block_size: usize,
    ) -> Result<Self> {
        Self::create_readback_with(dir, num_disks, block_size, DEFAULT_QUEUE_DEPTH)
    }

    /// [`AsyncFileStorage::create_readback`] with an explicit queue depth.
    pub fn create_readback_with(
        dir: impl AsRef<Path>,
        num_disks: usize,
        block_size: usize,
        queue_depth: usize,
    ) -> Result<Self> {
        let medium = FileDisks::open(dir.as_ref(), num_disks, block_size, K::WIDTH, false, true)?;
        Self::on(medium, queue_depth)
    }

    /// Create under a fresh unique directory in the OS temp dir; the files
    /// are removed when the storage is dropped.
    pub fn create_temp(num_disks: usize, block_size: usize) -> Result<Self> {
        Self::create_temp_with(num_disks, block_size, DEFAULT_QUEUE_DEPTH)
    }

    /// [`AsyncFileStorage::create_temp`] with an explicit queue depth.
    pub fn create_temp_with(
        num_disks: usize,
        block_size: usize,
        queue_depth: usize,
    ) -> Result<Self> {
        let medium = FileDisks::create_temp(num_disks, block_size, K::WIDTH, true)?;
        Self::on(medium, queue_depth)
    }

    /// Open the read and the write [`FileWorker`] over an opened medium
    /// and spawn the two worker threads.
    fn on((medium, allocated): (FileDisks, Vec<usize>), queue_depth: usize) -> Result<Self> {
        let (block_size, depth) = (medium.block_size, queue_depth.max(1));
        let worker = || medium.worker(block_size * K::WIDTH, depth, true);
        let workers = (worker()?, worker()?);
        Ok(Self::spawn(medium, block_size, allocated, workers))
    }

    /// Arm the physical-file fault schedule. Must be called before any
    /// I/O is dispatched (the builder does this right after construction);
    /// a second call is ignored.
    pub fn set_file_faults(&mut self, faults: Arc<FileFaults>) {
        self.medium.set_file_faults(faults);
    }

    /// Arm completion-time retry: the workers will classify
    /// failed blocks of asynchronously issued batches at completion and
    /// reissue the transient ones under `policy`, recording into
    /// `counters` — share the counter set with the issue-time
    /// [`crate::storage_retry::RetryingStorage`] wrapper so
    /// `IoStats.retry` sees one unified stream. Must be called before any
    /// I/O is dispatched; a second call is ignored.
    pub fn set_completion_retry(&mut self, policy: RetryPolicy, counters: RetryCounters) {
        let _ = self.medium.retry.set((policy, counters));
    }

    /// Paths of the disk files.
    pub fn paths(&self) -> &[PathBuf] {
        self.medium.paths()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file_faults::FileFaultMode;
    use crate::storage::Storage;

    #[test]
    fn aligned_buf_blocks_start_on_the_alignment_boundary() {
        let mut b = AlignedBuf::new(4096, DIRECT_ALIGN);
        for count in [1, 3, 17] {
            b.ensure(count);
            let off = b.offset();
            assert_eq!((b.raw.as_ptr() as usize + off) % DIRECT_ALIGN, 0);
            assert!(b.raw.len() - off >= count * 4096, "room for {count} blocks");
        }
    }

    #[test]
    fn misaligned_geometry_falls_back_to_buffered_io() {
        // 4 keys × 8 bytes = 32-byte blocks: O_DIRECT must not even be
        // attempted, and everything still round-trips.
        let mut s = AsyncFileStorage::<u64>::create_temp(1, 4).unwrap();
        assert!(!s.caps().direct_io, "32-byte blocks cannot be O_DIRECT");
        s.ensure_capacity(0, 2).unwrap();
        s.write_batch(&[(0, 1)], &[9, 8, 7, 6]).unwrap();
        let mut out = [0u64; 4];
        s.read_batch(&[(0, 1)], &mut out).unwrap();
        assert_eq!(out, [9, 8, 7, 6]);
    }

    #[test]
    fn aligned_geometry_round_trips_with_or_without_o_direct() {
        // 512 keys × 8 bytes = 4096-byte blocks: O_DIRECT is attempted;
        // whether it sticks depends on the filesystem (tmpfs refuses), and
        // behavior must be identical either way.
        let b = 512;
        let mut s = AsyncFileStorage::<u64>::create_temp(2, b).unwrap();
        for disk in 0..2 {
            s.ensure_capacity(disk, 4).unwrap();
        }
        let reqs: Vec<(usize, usize)> = (0..8).map(|i| (i % 2, i / 2)).collect();
        let data: Vec<u64> = (0..reqs.len() * b).map(|i| i as u64).collect();
        s.write_batch(&reqs, &data).unwrap();
        let mut out = vec![0u64; data.len()];
        s.read_batch(&reqs, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn sync_persists_manifest_for_readback() {
        let dir = std::env::temp_dir().join(format!("pdm-async-meta-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut s = AsyncFileStorage::<u64>::create(&dir, 2, 4).unwrap();
            s.ensure_capacity(0, 3).unwrap();
            s.ensure_capacity(1, 2).unwrap();
            s.write_batch(&[(0, 2)], &[5, 5, 5, 5]).unwrap();
            s.sync().unwrap();
        }
        assert!(dir.join("meta.pdm").is_file());
        // The synchronous file backend reads the same manifest and data.
        let mut back =
            crate::storage_file::FileStorage::<u64>::create_readback(&dir, 2, 4).unwrap();
        let mut out = [0u64; 4];
        back.read_batch(&[(0, 2)], &mut out).unwrap();
        assert_eq!(out, [5, 5, 5, 5]);
        drop(back);
        // And so does a fresh async handle.
        let mut s = AsyncFileStorage::<u64>::create_readback(&dir, 2, 4).unwrap();
        s.read_batch(&[(0, 2)], &mut out).unwrap();
        assert_eq!(out, [5, 5, 5, 5]);
        assert!(matches!(
            s.read_batch(&[(0, 3)], &mut out),
            Err(PdmError::BadSlot { .. })
        ));
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn temp_files_are_removed_on_drop() {
        let paths;
        {
            let s = AsyncFileStorage::<u64>::create_temp(2, 4).unwrap();
            paths = s.paths().to_vec();
            assert!(paths.iter().all(|p| p.exists()));
        }
        assert!(paths.iter().all(|p| !p.exists()));
    }

    /// The slots an `Eio(1)` fault leaves unwritten on `s` when a write
    /// batch lists disk 1 before disk 0, out of every slot written before.
    fn unwritten_after_eio<S: Storage<u64>>(
        mut s: S,
        faults: impl FnOnce(&mut S),
    ) -> Vec<(usize, usize)> {
        let reqs = [(1, 0), (0, 0), (1, 1), (0, 1)];
        for disk in 0..2 {
            s.ensure_capacity(disk, 2).unwrap();
        }
        s.write_batch(&reqs, &[1; 16]).unwrap();
        faults(&mut s);
        let err = s.write_batch(&reqs, &[2; 16]).unwrap_err();
        assert!(!err.is_transient(), "EIO is permanent: {err}");
        let mut out = [0u64; 16];
        s.read_batch(&reqs, &mut out).unwrap();
        reqs.iter()
            .zip(out.chunks(4))
            .filter(|(_, block)| block[0] == 1)
            .map(|(&addr, _)| addr)
            .collect()
    }

    #[test]
    fn both_file_drivers_draw_block_faults_in_the_same_order() {
        use crate::storage_file::FileStorage;
        let arm = || Arc::new(FileFaults::new(FileFaultMode::Eio(1)));
        let file = unwritten_after_eio(FileStorage::<u64>::create_temp(2, 4).unwrap(), |s| {
            s.set_file_faults(arm())
        });
        let async_file =
            unwritten_after_eio(AsyncFileStorage::<u64>::create_temp(2, 4).unwrap(), |s| {
                s.set_file_faults(arm())
            });
        // Disk 0's blocks draw first, in request order, and every other
        // block of the batch is still written.
        assert_eq!(file, [(0, 1)]);
        assert_eq!(async_file, file);
    }

    #[test]
    fn both_file_drivers_draw_one_fsync_verdict_per_disk() {
        use crate::storage_file::FileStorage;
        fn syncs<S: Storage<u64>>(mut s: S) -> Vec<bool> {
            (0..2).map(|_| s.sync().is_ok()).collect()
        }
        let arm = || Arc::new(FileFaults::new(FileFaultMode::FsyncFail(1)));
        let mut file = FileStorage::<u64>::create_temp(2, 4).unwrap();
        file.set_file_faults(arm());
        let mut async_file = AsyncFileStorage::<u64>::create_temp(2, 4).unwrap();
        async_file.set_file_faults(arm());
        // Disk 1's fsync of the first sync is the second verdict drawn.
        assert_eq!(syncs(file), [false, true]);
        assert_eq!(syncs(async_file), [false, true]);
    }

    #[test]
    fn rounds_are_cut_at_the_queue_depth() {
        // 10 blocks per disk at depth 4: 3 kernel rounds
        // (4 + 4 + 2) per disk and direction, one sample each.
        let (d, b) = (2, 4);
        let mut s = AsyncFileStorage::<u64>::create_temp_with(d, b, 4).unwrap();
        for disk in 0..d {
            s.ensure_capacity(disk, 10).unwrap();
        }
        let reqs: Vec<(usize, usize)> = (0..20).map(|i| (i % d, i / d)).collect();
        let data: Vec<u64> = (0..reqs.len() * b).map(|i| i as u64).collect();
        s.write_batch(&reqs, &data).unwrap();
        let mut out = vec![0u64; data.len()];
        s.read_batch(&reqs, &mut out).unwrap();
        assert_eq!(out, data);
        let w = s.wall_snapshot().unwrap();
        for dw in &w.disks {
            assert_eq!((dw.read.count, dw.write.count), (3, 3));
        }
        // uring counters only move when a ring actually serviced the
        // batch; when they do, submissions balance completions, and each
        // round hands both disks' blocks to the kernel in one submission.
        assert_eq!(w.uring.submitted_sqes, w.uring.reaped_cqes);
        if w.uring.submitted_sqes > 0 {
            assert_eq!(w.uring.submitted_sqes, 40, "{:?}", w.uring);
            assert_eq!(
                w.uring.submit_calls, 6,
                "3 rounds a direction: {:?}",
                w.uring
            );
        }
    }
}
