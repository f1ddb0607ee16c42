//! The two storage drivers, written once over a pluggable medium.
//!
//! What a disk *is* comes from a [`Medium`]: RAM
//! ([`crate::storage_threaded::RamDisks`]) or one host file per disk
//! ([`crate::storage_async_file::FileDisks`]). How its blocks move is
//! the medium's [`MediumWorker`], which serves a whole batch split by disk
//! ([`Split`]): the RAM medium copies the shares in disk order, and the
//! file medium's ring takes every disk's blocks in one kernel submission.
//! Who runs the worker is the driver, so the four `--storage` backends are
//! the 2 × 2 of medium and driver:
//!
//! | driver | RAM medium | file medium |
//! |---|---|---|
//! | [`CallerStorage`], on the caller thread | `mem` | `file` |
//! | [`WorkerStorage`], on a read and a write worker thread | `threaded` | `async-file` |
//!
//! Both drivers check a batch against one caller-side allocation table
//! (disk, slot, payload length) before anything moves, and split it by
//! disk the same way. The caller driver then serves it inline, straight
//! between the caller's keys and the medium, and records no wall-clock
//! telemetry. The worker driver adds what overlap needs:
//!
//! - **Grouped dispatch.** Two worker threads serve all `D` disks: a
//!   *read worker* and a *write worker*. A caller batch is one message to
//!   one of them, carrying every touched disk's share, and one reply back,
//!   so a parallel I/O step of the PDM costs one hand-off each way however
//!   many disks it touches. With overlap enabled, prefetches and
//!   flush-behinds run side by side on the two workers instead of
//!   convoying in one queue. A bad request fails the whole batch at issue,
//!   before anything is sent.
//! - **Message buffers.** A write message carries one copy of the batch's
//!   keys, made before `start_write_batch` returns; the read worker fills
//!   one buffer per message, which the completion token copies out.
//! - **The read/write hazard gate.** Separate read and write workers make
//!   read-overtakes-write possible, so every issued write registers its
//!   slot and the write worker retires the entry only after the bytes are
//!   committed. A read of a slot whose write has not retired is refused
//!   ([`PdmError::ReadDuringFlush`]) rather than returning whichever bytes
//!   win the race. The pipeline discipline (write-behind drained before its
//!   region is re-read, enforced at every phase boundary by the checkpoint
//!   guard) keeps correct code off that path entirely.
//! - **Completion tokens.** A token waits for its one reply, which is the
//!   first error in disk order or the batch. The blocking
//!   `read_batch`/`write_batch` are `start_*_batch(..)?.wait(..)`. One
//!   worker completes its messages in issue order.
//! - **Emulated access.** A medium with an access time
//!   ([`Medium::access`]) has the worker sleep it once per read or write
//!   message, before the disks move; a message queued behind another
//!   starts its access when that one's ends (see [`Station`]).
//! - **Telemetry.** One service *round* (a medium's unit of work: one
//!   disk's copy, one kernel submission) is one sample in the latency
//!   histogram of every disk it moves and one [`SpanSink`] span on each of
//!   their tracks, the message's access wait included; the queue gauge
//!   counts blocks submitted but not yet serviced.
//! - **`sync`** is one FIFO barrier on the write queue: the write worker
//!   reaches it once every previously queued write is committed, syncs
//!   every disk, and replies; the medium then persists its own metadata.

use crate::error::{PdmError, Result};
use crate::key::PdmKey;
use crate::overlap::{PendingRead, PendingWrite, DEFAULT_QUEUE_DEPTH};
use crate::stats::{DiskWallRec, SpanSink, StorageWallSnapshot, UringWall};
use crate::storage::{check_batch_len, Storage, StorageCaps};
use std::cell::{Cell, OnceCell};
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The caller-side half of a medium: what a driver asks of the disks as a
/// whole. What moves blocks lives in [`Medium::Worker`].
pub trait Medium<K: PdmKey>: Send + 'static {
    /// One thread's service state over every disk: the caller driver holds
    /// one, and the worker driver's read and write worker each get one.
    type Worker: MediumWorker<K>;

    /// Grow disk `disk` to `slots` block slots (called on the caller
    /// thread, only when the allocation grows).
    fn grow(&mut self, disk: usize, slots: usize) -> Result<()>;

    /// Persist metadata once every disk has synced (the tail of
    /// [`Storage::sync`]); `allocated` is the per-disk allocation.
    fn commit(&mut self, _allocated: &[usize]) -> Result<()> {
        Ok(())
    }

    /// What the medium itself provides: `direct_io` and `checksums`.
    /// `overlap` is the driver's.
    fn caps(&self) -> StorageCaps;

    /// io_uring batching counters summed over the workers (zero for media
    /// without rings).
    fn uring(&self) -> UringWall {
        UringWall::default()
    }

    /// The emulated access time a worker-driven read or write message
    /// waits out before its disks move: zero on a real medium.
    fn access(&self) -> Duration {
        Duration::ZERO
    }
}

/// One thread's service state over every disk: moves the blocks of a
/// batch's shares between the disks and one key buffer, block `i` of the
/// batch being keys `i·B..(i+1)·B` of the buffer. Every block is
/// attempted; the answer is the first failure in disk order (then in
/// request order within a disk), or success.
pub trait MediumWorker<K: PdmKey>: Send + 'static {
    /// Read every share's slots (already bounds-checked) into `out`. Each
    /// service round runs inside the station's `round`.
    fn read(&mut self, station: &Station, split: &Split, out: &mut [K]) -> Result<()>;

    /// Commit every share's blocks from `data`, in entry order within a
    /// share, so a slot written twice keeps its last write.
    fn write(&mut self, station: &Station, split: &Split, data: &[K]) -> Result<()>;

    /// Make every disk's committed writes durable (the worker's half of
    /// [`Storage::sync`]): every disk syncs, even after one fails, and the
    /// first error in disk order is the answer.
    fn sync(&mut self) -> Result<()> {
        Ok(())
    }
}

/// A block of a batch: its slot, and its index in the batch.
pub type Entry = (usize, usize);

/// A batch split by disk: each touched disk's [`Entry`]s in request
/// order, disks in order. Refilling reuses the buffers.
#[derive(Debug, Default)]
pub struct Split {
    /// Every entry, grouped by disk.
    entries: Vec<Entry>,
    /// Each touched disk, and where its entries end in `entries`.
    ends: Vec<(usize, usize)>,
    /// Per-disk fill positions while filling.
    at: Vec<usize>,
}

impl Split {
    /// An empty split with room for a batch of `blocks` blocks over
    /// `num_disks` disks.
    fn with_capacity(num_disks: usize, blocks: usize) -> Self {
        Self {
            entries: Vec::with_capacity(blocks),
            ends: Vec::with_capacity(num_disks),
            at: Vec::with_capacity(num_disks),
        }
    }

    /// Check `reqs`, `(disk, slot)` addresses, against the per-disk
    /// allocation `allocated`, then split them by disk.
    fn fill(&mut self, allocated: &[usize], reqs: &[(usize, usize)]) -> Result<()> {
        self.at.clear();
        self.at.resize(allocated.len(), 0);
        for &(disk, slot) in reqs {
            check_slot(allocated, disk, slot)?;
            self.at[disk] += 1;
        }
        self.ends.clear();
        let mut end = 0;
        for (disk, at) in self.at.iter_mut().enumerate() {
            let count = std::mem::replace(at, end);
            if count > 0 {
                end += count;
                self.ends.push((disk, end));
            }
        }
        self.entries.clear();
        self.entries.resize(reqs.len(), (0, 0));
        for (i, &(disk, slot)) in reqs.iter().enumerate() {
            self.entries[self.at[disk]] = (slot, i);
            self.at[disk] += 1;
        }
        Ok(())
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Every entry, grouped by disk, disks in order.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Every share, disks in order: its disk and its entries.
    pub fn shares(&self) -> impl Iterator<Item = (usize, &[Entry])> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&(disk, end)| {
            let entries = &self.entries[start..end];
            start = end;
            (disk, entries)
        })
    }
}

/// One thread's service state: its direction, every disk's wall-clock
/// recorder, the trace sink and the medium's emulated access time. A
/// [`MediumWorker`] reports its service rounds through it.
pub struct Station {
    write: bool,
    /// Every disk's recorder; empty on the caller driver, which records
    /// nothing.
    wall: Vec<Arc<DiskWallRec>>,
    sink: Arc<OnceLock<Arc<SpanSink>>>,
    /// Emulated access time per message (zero on a real medium).
    access: Duration,
    /// When the emulated disks finish the access of the last message.
    free_at: Cell<Instant>,
    /// How long this thread waited out the access of the message being
    /// served.
    waited: Cell<Duration>,
}

impl Station {
    /// A station that records no telemetry and waits out no access.
    fn untimed() -> Self {
        Self {
            write: false,
            wall: Vec::new(),
            sink: Arc::default(),
            access: Duration::ZERO,
            free_at: Cell::new(Instant::now()),
            waited: Cell::new(Duration::ZERO),
        }
    }

    /// Wait out the emulated access of a message issued at `issued`: one
    /// access per message, since a message is one parallel step whose
    /// disks wait side by side. A message issued while the previous one's
    /// access was still running is queued: its access starts the moment
    /// that one's ends, as a device starts its next queued request at once,
    /// even if this thread is still waking from the last sleep. So the
    /// thread's wake-up lag does not pile up along a queue. A message that
    /// found the disks idle starts its access when this thread takes it
    /// up.
    fn wait_access(&self, issued: Instant) {
        if self.access.is_zero() {
            return;
        }
        let now = Instant::now();
        let free_at = self.free_at.get();
        let start = if issued < free_at { free_at } else { now };
        let done = start + self.access;
        self.free_at.set(done);
        if let Some(left) = done.checked_duration_since(now) {
            std::thread::sleep(left);
        }
        self.waited.set(now.elapsed());
    }

    /// Note one block read of disk `disk` checksum-verified.
    #[cfg(feature = "block-checksums")]
    pub(crate) fn verified(&self, disk: usize) {
        if let Some(wall) = self.wall.get(disk) {
            wall.add_verified(1);
        }
    }

    /// Run one service round that moves the blocks of each listed
    /// `(disk, blocks)`. For every one of those disks, the round's wall
    /// time plus the message's access wait is one latency-histogram sample
    /// and, when a sink is attached, one span on the disk's track (`2·disk`
    /// read, `2·disk + 1` write); its blocks then retire from the queue
    /// gauge.
    #[inline]
    pub(crate) fn round<R>(
        &self,
        parts: impl IntoIterator<Item = (usize, usize)>,
        f: impl FnOnce() -> R,
    ) -> R {
        if self.wall.is_empty() {
            return f();
        }
        let t0 = Instant::now();
        let res = f();
        self.record(parts, t0, Instant::now());
        res
    }

    /// Record a round that ran from `t0` to `t1` (see [`Station::round`]).
    fn record(&self, parts: impl IntoIterator<Item = (usize, usize)>, t0: Instant, t1: Instant) {
        let waited = self.waited.get();
        let ns = (t1.saturating_duration_since(t0) + waited).as_nanos() as u64;
        let start = t0.checked_sub(waited).unwrap_or(t0);
        let name = if self.write { "write" } else { "read" };
        for (disk, blocks) in parts {
            let wall = &self.wall[disk];
            if self.write {
                wall.write.record(ns);
            } else {
                wall.read.record(ns);
            }
            if let Some(sink) = self.sink.get() {
                let track = (2 * disk + usize::from(self.write)) as u32;
                sink.record(track, name, start, t1);
            }
            wall.queue_sub(blocks as u64);
        }
    }
}

/// Why a lock shared with a disk worker can fail: the worker panicked
/// while holding it.
pub(crate) const POISONED: &str = "a disk worker panicked holding a shared lock";

/// Bounds-check `(disk, slot)` against a per-disk allocation table.
fn check_slot(allocated: &[usize], disk: usize, slot: usize) -> Result<()> {
    match allocated.get(disk) {
        Some(&slots) if slot < slots => Ok(()),
        Some(&slots) => Err(PdmError::BadSlot {
            disk,
            slot,
            allocated: slots,
        }),
        None => Err(PdmError::BadDisk {
            disk,
            num_disks: allocated.len(),
        }),
    }
}

/// Grow disk `disk` of `medium` to `slots` slots when that is more than
/// its entry in `allocated`, keeping the table in step (the medium's
/// [`Storage::ensure_capacity`]).
fn grow<K: PdmKey, M: Medium<K>>(
    medium: &mut M,
    allocated: &mut [usize],
    disk: usize,
    slots: usize,
) -> Result<()> {
    let num_disks = allocated.len();
    let current = allocated
        .get_mut(disk)
        .ok_or(PdmError::BadDisk { disk, num_disks })?;
    if slots > *current {
        medium.grow(disk, slots)?;
        *current = slots;
    }
    Ok(())
}

/// Storage whose `D` disks are served on the caller thread by one
/// [`MediumWorker`] over the medium `M` (see the module docs). A batch
/// moves straight between the caller's keys and the medium, and a
/// steady-state batch allocates nothing.
pub struct CallerStorage<K: PdmKey, M: Medium<K>> {
    /// Dropped before the medium (and any files it removes).
    worker: M::Worker,
    pub(crate) medium: M,
    block_size: usize,
    /// Allocation per disk; every request is checked against it.
    allocated: Vec<usize>,
    split: Split,
    station: Station,
}

impl<K: PdmKey, M: Medium<K>> CallerStorage<K, M> {
    /// Serve `medium`, whose disks start with `allocated` slots each,
    /// through `worker`.
    pub(crate) fn with_worker(
        medium: M,
        block_size: usize,
        allocated: Vec<usize>,
        worker: M::Worker,
    ) -> Self {
        Self {
            worker,
            medium,
            block_size,
            // Room for the largest batch the machine issues (`ingest` and
            // `inspect`), so a sort's batches allocate nothing.
            split: Split::with_capacity(allocated.len(), allocated.len() * DEFAULT_QUEUE_DEPTH),
            allocated,
            station: Station::untimed(),
        }
    }

    /// Check a batch of `keys` keys and split it by disk.
    fn check(&mut self, reqs: &[(usize, usize)], keys: usize) -> Result<()> {
        check_batch_len(reqs.len(), self.block_size, keys)?;
        self.split.fill(&self.allocated, reqs)
    }
}

impl<K: PdmKey, M: Medium<K>> Storage<K> for CallerStorage<K, M> {
    fn num_disks(&self) -> usize {
        self.allocated.len()
    }

    fn block_size(&self) -> usize {
        self.block_size
    }

    fn ensure_capacity(&mut self, disk: usize, slots: usize) -> Result<()> {
        grow(&mut self.medium, &mut self.allocated, disk, slots)
    }

    fn read_batch(&mut self, reqs: &[(usize, usize)], out: &mut [K]) -> Result<()> {
        self.check(reqs, out.len())?;
        self.worker.read(&self.station, &self.split, out)
    }

    fn write_batch(&mut self, reqs: &[(usize, usize)], data: &[K]) -> Result<()> {
        self.check(reqs, data.len())?;
        self.worker.write(&self.station, &self.split, data)
    }

    fn sync(&mut self) -> Result<()> {
        self.worker.sync()?;
        self.medium.commit(&self.allocated)
    }

    /// The medium's: the caller driver does not overlap.
    fn caps(&self) -> StorageCaps {
        self.medium.caps()
    }
}

/// One message carries every touched disk's share of a caller batch: one
/// send, one worker wake-up and one reply per batch. Reads and writes
/// carry the instant they were issued, which places their emulated access.
enum Request<K> {
    Read {
        split: Split,
        /// Keys in the batch.
        keys: usize,
        issued: Instant,
        reply: Sender<Result<Vec<K>>>,
    },
    Write {
        split: Split,
        data: Vec<K>,
        issued: Instant,
        reply: Sender<Result<()>>,
    },
    /// FIFO barrier: every write queued before it is committed when it is
    /// served.
    Sync { reply: Sender<Result<()>> },
}

/// The caller's end of one worker reply. `ready` sets an arrived message
/// aside, so the overlap counters can ask without blocking or losing it.
struct Reply<T> {
    rx: Receiver<T>,
    got: OnceCell<T>,
}

impl<T> Reply<T> {
    /// A reply and the sender its worker answers through.
    fn new() -> (Sender<T>, Self) {
        let (tx, rx) = channel();
        (
            tx,
            Reply {
                rx,
                got: OnceCell::new(),
            },
        )
    }

    /// Whether the message has arrived.
    fn ready(&self) -> bool {
        if self.got.get().is_none() {
            if let Ok(v) = self.rx.try_recv() {
                let _ = self.got.set(v);
            }
        }
        self.got.get().is_some()
    }

    /// The message, waiting for it if need be; `None` if the worker hung
    /// up without answering.
    fn take(self) -> Option<T> {
        self.got.into_inner().or_else(|| self.rx.recv().ok())
    }
}

/// In-flight write slots (`(disk, slot)` → outstanding writes).
type Hazards = Arc<Mutex<HashMap<(usize, usize), usize>>>;

fn hung_up() -> PdmError {
    PdmError::BadConfig("disk worker hung up".into())
}

/// A worker thread's loop over its [`MediumWorker`]; returns when the
/// engine drops its sender.
fn serve<K: PdmKey, W: MediumWorker<K>>(
    mut worker: W,
    station: Station,
    hazards: Hazards,
    rx: Receiver<Request<K>>,
) {
    while let Ok(req) = rx.recv() {
        match req {
            Request::Read {
                split,
                keys,
                issued,
                reply,
            } => {
                if !split.is_empty() {
                    station.wait_access(issued);
                }
                let mut out = vec![K::MAX; keys];
                let res = worker.read(&station, &split, &mut out);
                let _ = reply.send(res.map(|()| out));
            }
            Request::Write {
                split,
                data,
                issued,
                reply,
            } => {
                if !split.is_empty() {
                    station.wait_access(issued);
                }
                let res = worker.write(&station, &split, &data);
                // The bytes are committed: only now may a read of these
                // slots pass the hazard gate.
                let mut pending = hazards.lock().expect(POISONED);
                for (disk, entries) in split.shares() {
                    for &(slot, _) in entries {
                        if let Some(count) = pending.get_mut(&(disk, slot)) {
                            *count -= 1;
                            if *count == 0 {
                                pending.remove(&(disk, slot));
                            }
                        }
                    }
                }
                drop(pending);
                let _ = reply.send(res);
            }
            Request::Sync { reply } => {
                let _ = reply.send(worker.sync());
            }
        }
    }
}

/// Storage whose `D` disks are served by one read worker and one write
/// worker thread over the medium `M` (see the module docs).
pub struct WorkerStorage<K: PdmKey, M> {
    pub(crate) medium: M,
    block_size: usize,
    /// Caller-side allocation per disk; every request is checked against
    /// it at issue.
    allocated: Vec<usize>,
    /// The read worker's queue, then the write worker's.
    queues: Vec<Sender<Request<K>>>,
    handles: Vec<JoinHandle<()>>,
    hazards: Hazards,
    /// Per-disk wall-clock recorders shared with both workers (telemetry
    /// only — never consulted for correctness).
    wall: Vec<Arc<DiskWallRec>>,
    sink: Arc<OnceLock<Arc<SpanSink>>>,
}

impl<K: PdmKey, M: Medium<K>> WorkerStorage<K, M> {
    /// Spawn the read worker and the write worker over `medium`, whose
    /// disks start with `allocated` slots each; `workers` holds the read
    /// worker's and the write worker's service state.
    pub(crate) fn spawn(
        medium: M,
        block_size: usize,
        allocated: Vec<usize>,
        workers: (M::Worker, M::Worker),
    ) -> Self {
        let num_disks = allocated.len();
        let mut s = Self {
            medium,
            block_size,
            allocated,
            queues: Vec::with_capacity(2),
            handles: Vec::with_capacity(2),
            hazards: Arc::default(),
            wall: (0..num_disks)
                .map(|_| Arc::new(DiskWallRec::new()))
                .collect(),
            sink: Arc::new(OnceLock::new()),
        };
        let (reader, writer) = workers;
        for (write, worker) in [(false, reader), (true, writer)] {
            let station = Station {
                write,
                wall: s.wall.clone(),
                sink: Arc::clone(&s.sink),
                access: s.medium.access(),
                free_at: Cell::new(Instant::now()),
                waited: Cell::new(Duration::ZERO),
            };
            let (tx, rx) = channel();
            let hazards = Arc::clone(&s.hazards);
            let side = if write { 'w' } else { 'r' };
            let handle = std::thread::Builder::new()
                .name(format!("pdm-disks-{side}"))
                .spawn(move || serve(worker, station, hazards, rx))
                .expect("spawn disk worker");
            s.queues.push(tx);
            s.handles.push(handle);
        }
        s
    }

    /// Send one message to the read or the write worker.
    fn send(&self, write: bool, req: Request<K>) -> Result<()> {
        self.queues[usize::from(write)]
            .send(req)
            .map_err(|_| hung_up())
    }

    /// Check `reqs` against the allocation and split them by disk.
    fn split(&self, reqs: &[(usize, usize)]) -> Result<Split> {
        let mut split = Split::default();
        split.fill(&self.allocated, reqs)?;
        Ok(split)
    }

    /// Count each share of `split` into its disk's queue gauge, which the
    /// worker retires round by round.
    fn queue(&self, split: &Split) {
        for (disk, entries) in split.shares() {
            self.wall[disk].queue_add(entries.len() as u64);
        }
    }
}

/// Completion token for a grouped read batch: the one reply.
struct GroupedPending<K> {
    reply: Reply<Result<Vec<K>>>,
    keys: usize,
}

impl<K: PdmKey> PendingRead<K> for GroupedPending<K> {
    fn wait(self: Box<Self>, out: &mut [K]) -> Result<()> {
        let reply = self.reply.take();
        if out.len() != self.keys {
            return Err(PdmError::BadBlockLen {
                got: out.len(),
                expected: self.keys,
            });
        }
        out.copy_from_slice(&reply.ok_or_else(hung_up)??);
        Ok(())
    }

    fn is_ready(&self) -> bool {
        self.reply.ready()
    }
}

/// Completion token for a grouped write batch: the first error in disk
/// order, or success.
struct GroupedWritePending {
    reply: Reply<Result<()>>,
}

impl PendingWrite for GroupedWritePending {
    fn wait(self: Box<Self>) -> Result<()> {
        self.reply.take().unwrap_or_else(|| Err(hung_up()))
    }

    fn is_ready(&self) -> bool {
        self.reply.ready()
    }
}

impl<K: PdmKey, M: Medium<K>> Storage<K> for WorkerStorage<K, M> {
    fn num_disks(&self) -> usize {
        self.allocated.len()
    }

    fn block_size(&self) -> usize {
        self.block_size
    }

    fn ensure_capacity(&mut self, disk: usize, slots: usize) -> Result<()> {
        grow(&mut self.medium, &mut self.allocated, disk, slots)
    }

    fn read_batch(&mut self, reqs: &[(usize, usize)], out: &mut [K]) -> Result<()> {
        self.start_read_batch(reqs)?.wait(out)
    }

    fn write_batch(&mut self, reqs: &[(usize, usize)], data: &[K]) -> Result<()> {
        self.start_write_batch(reqs, data)?.wait()
    }

    fn sync(&mut self) -> Result<()> {
        let (reply, rx) = channel();
        self.send(true, Request::Sync { reply })?;
        rx.recv().map_err(|_| hung_up())??;
        self.medium.commit(&self.allocated)
    }

    /// The medium's, and overlap: the workers move blocks while the
    /// caller computes.
    fn caps(&self) -> StorageCaps {
        StorageCaps {
            overlap: true,
            ..self.medium.caps()
        }
    }

    fn wall_snapshot(&self) -> Option<StorageWallSnapshot> {
        Some(StorageWallSnapshot {
            disks: self.wall.iter().map(|w| w.snapshot()).collect(),
            uring: self.medium.uring(),
        })
    }

    fn attach_span_sink(&mut self, sink: Arc<SpanSink>) {
        for d in 0..self.allocated.len() {
            sink.register_track(2 * d as u32, &format!("disk{d} read"));
            sink.register_track(2 * d as u32 + 1, &format!("disk{d} write"));
        }
        let _ = self.sink.set(sink);
    }

    fn start_read_batch(
        &mut self,
        reqs: &[(usize, usize)],
    ) -> Result<Box<dyn PendingRead<K> + Send>> {
        let split = self.split(reqs)?;
        {
            let hazards = self.hazards.lock().expect(POISONED);
            for &(disk, slot) in reqs {
                if hazards.contains_key(&(disk, slot)) {
                    return Err(PdmError::ReadDuringFlush { disk, slot });
                }
            }
        }
        self.queue(&split);
        let keys = reqs.len() * self.block_size;
        let (reply, rx) = Reply::new();
        self.send(
            false,
            Request::Read {
                split,
                keys,
                issued: Instant::now(),
                reply,
            },
        )?;
        Ok(Box::new(GroupedPending { reply: rx, keys }))
    }

    fn start_write_batch(
        &mut self,
        reqs: &[(usize, usize)],
        data: &[K],
    ) -> Result<Box<dyn PendingWrite + Send>> {
        check_batch_len(reqs.len(), self.block_size, data.len())?;
        let split = self.split(reqs)?;
        // Registered before the worker can possibly see the request.
        let mut hazards = self.hazards.lock().expect(POISONED);
        for &(disk, slot) in reqs {
            *hazards.entry((disk, slot)).or_insert(0) += 1;
        }
        drop(hazards);
        self.queue(&split);
        let (reply, rx) = Reply::new();
        self.send(
            true,
            Request::Write {
                split,
                data: data.to_vec(),
                issued: Instant::now(),
                reply,
            },
        )?;
        Ok(Box::new(GroupedWritePending { reply: rx }))
    }
}

impl<K: PdmKey, M> Drop for WorkerStorage<K, M> {
    /// Closing the queues stops the workers; join them before the medium
    /// (and any files it removes) is dropped.
    fn drop(&mut self) {
        self.queues.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Driver behaviours, run from one list over the four backends.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PdmConfig;
    use crate::machine::Pdm;
    use crate::storage::MemStorage;
    use crate::storage_async_file::AsyncFileStorage;
    use crate::storage_file::FileStorage;
    use crate::storage_threaded::ThreadedStorage;
    use std::thread::ThreadId;

    /// Writes queued ahead of the block under test, so that block's write
    /// is still in flight when the caller looks (the RAM medium also
    /// sleeps its latency once per queued batch).
    const BACKLOG: usize = 16384;
    const LAT: Duration = Duration::from_millis(30);
    /// Tries of a timing-dependent check before it counts as failed.
    const ATTEMPTS: usize = 5;

    macro_rules! backend_tests {
        ($backend:ident, $make:expr; $($test:ident),* $(,)?) => {
            mod $backend {
                use super::*;
                $(
                    #[test]
                    fn $test() {
                        super::$test($make)
                    }
                )*
            }
        };
    }

    /// The 2 × 2: `caller_ram` is `mem` and `caller_file` is `file` (the
    /// caller driver); `ram` is `threaded` and `file` is `async-file` (the
    /// worker driver). The worker column also runs the cases that need
    /// worker threads.
    macro_rules! for_each_backend {
        (all: $($all:ident),* ; worker: $($worker:ident),* $(,)?) => {
            backend_tests!(caller_ram, |d, b, _| MemStorage::<u64>::new(d, b); $($all),*);
            backend_tests!(caller_file, |d, b, _| FileStorage::<u64>::create_temp(d, b).unwrap(); $($all),*);
            backend_tests!(ram, |d, b, lat| ThreadedStorage::<u64>::with_latency(d, b, lat); $($all,)* $($worker),*);
            backend_tests!(file, |d, b, _| AsyncFileStorage::<u64>::create_temp(d, b).unwrap(); $($all,)* $($worker),*);
        };
    }

    for_each_backend!(
        all:
        round_trip_via_machine,
        batched_round_trip_many_blocks_per_disk,
        repeated_slot_in_one_batch_keeps_the_last_write,
        bounds_and_disk_index_in_errors,
        overlapped_issue_rejects_bad_slots_with_their_disk;
        worker:
        read_of_slot_with_write_in_flight_is_refused,
        duplex_read_overtakes_queued_writes,
        drop_joins_workers_after_draining_queued_writes,
        wall_telemetry_is_one_sample_and_span_per_disk_per_batch,
    );

    /// One service round a [`Recorder`] disk saw: the thread that made it,
    /// what it was, the disk and the blocks.
    #[derive(Debug, PartialEq)]
    struct Call {
        thread: ThreadId,
        kind: &'static str,
        disk: usize,
        blocks: usize,
    }

    type Log = Arc<Mutex<Vec<Call>>>;

    fn log(log: &Log, kind: &'static str, disk: usize, blocks: usize) {
        log.lock().unwrap().push(Call {
            thread: std::thread::current().id(),
            kind,
            disk,
            blocks,
        });
    }

    /// A test medium that keeps no bytes (a read returns blocks filled
    /// with the disk's index) and logs every service round.
    struct Recorder(Log);

    /// One [`Recorder`] thread's service state over `disks` disks.
    struct RecordingWorker {
        disks: usize,
        log: Log,
    }

    impl Medium<u64> for Recorder {
        type Worker = RecordingWorker;

        fn grow(&mut self, _disk: usize, _slots: usize) -> Result<()> {
            Ok(())
        }

        fn commit(&mut self, _allocated: &[usize]) -> Result<()> {
            log(&self.0, "commit", 0, 0);
            Ok(())
        }

        fn caps(&self) -> StorageCaps {
            StorageCaps::default()
        }
    }

    impl MediumWorker<u64> for RecordingWorker {
        fn read(&mut self, station: &Station, split: &Split, out: &mut [u64]) -> Result<()> {
            for (disk, entries) in split.shares() {
                station.round([(disk, entries.len())], || {
                    log(&self.log, "read", disk, entries.len());
                    for &(_, i) in entries {
                        out[i * 4..(i + 1) * 4].fill(disk as u64);
                    }
                });
            }
            Ok(())
        }

        fn write(&mut self, station: &Station, split: &Split, _data: &[u64]) -> Result<()> {
            for (disk, entries) in split.shares() {
                station.round([(disk, entries.len())], || {
                    log(&self.log, "write", disk, entries.len());
                });
            }
            Ok(())
        }

        fn sync(&mut self) -> Result<()> {
            for disk in 0..self.disks {
                log(&self.log, "sync", disk, 0);
            }
            Ok(())
        }
    }

    #[test]
    fn one_read_worker_and_one_write_worker_serve_every_disk() {
        let (d, b) = (8, 4);
        let calls: Log = Arc::default();
        let worker = || RecordingWorker {
            disks: d,
            log: Arc::clone(&calls),
        };
        let workers = (worker(), worker());
        let mut s = WorkerStorage::spawn(Recorder(Arc::clone(&calls)), b, vec![2; d], workers);
        assert_eq!(
            s.handles.len(),
            2,
            "a {d}-disk storage runs two worker threads"
        );
        let take = || std::mem::take(&mut *calls.lock().unwrap());

        // One striped batch each way, two blocks per disk.
        let reqs: Vec<(usize, usize)> = (0..2 * d).map(|i| (i % d, i / d)).collect();
        s.write_batch(&reqs, &vec![1; reqs.len() * b]).unwrap();
        let mut out = vec![0u64; reqs.len() * b];
        s.read_batch(&reqs, &mut out).unwrap();
        // The one reply lands in request order.
        for (i, &(disk, _)) in reqs.iter().enumerate() {
            assert_eq!(out[i * b..(i + 1) * b], [disk as u64; 4], "request {i}");
        }
        let log = take();
        assert_eq!(log.len(), 2 * d, "{log:?}");
        let (writes, reads) = log.split_at(d);
        let (writer, reader) = (writes[0].thread, reads[0].thread);
        let caller = std::thread::current().id();
        assert!(writer != reader && writer != caller && reader != caller);
        // Each batch is one service round per disk, in disk order, all on
        // one thread.
        for disk in 0..d {
            let round = |thread, kind| Call {
                thread,
                kind,
                disk,
                blocks: 2,
            };
            assert_eq!(writes[disk], round(writer, "write"));
            assert_eq!(reads[disk], round(reader, "read"));
        }

        // `sync` is one barrier on the write queue: the write queued ahead
        // of it is served first, then every disk syncs on the write worker,
        // then the medium commits on the caller.
        let pending = s.start_write_batch(&reqs[..d], &vec![2; d * b]).unwrap();
        s.sync().unwrap();
        assert!(pending.is_ready(), "the barrier overtook a queued write");
        pending.wait().unwrap();
        let log = take();
        assert_eq!(log.len(), 2 * d + 1, "{log:?}");
        for disk in 0..d {
            let call = |kind, blocks| Call {
                thread: writer,
                kind,
                disk,
                blocks,
            };
            assert_eq!(log[disk], call("write", 1));
            assert_eq!(log[d + disk], call("sync", 0));
        }
        assert_eq!(
            log[2 * d],
            Call {
                thread: caller,
                kind: "commit",
                disk: 0,
                blocks: 0
            }
        );
    }

    #[test]
    fn the_caller_driver_serves_every_disk_on_the_caller_thread() {
        let (d, b) = (4, 4);
        let calls: Log = Arc::default();
        let worker = RecordingWorker {
            disks: d,
            log: Arc::clone(&calls),
        };
        let mut s = CallerStorage::with_worker(Recorder(Arc::clone(&calls)), b, vec![2; d], worker);
        // Disks out of order: the split serves them in disk order, and
        // the reads land in request order.
        let reqs: Vec<(usize, usize)> = (0..2 * d).map(|i| (d - 1 - i % d, i / d)).collect();
        s.write_batch(&reqs, &vec![1; reqs.len() * b]).unwrap();
        let mut out = vec![0u64; reqs.len() * b];
        s.read_batch(&reqs, &mut out).unwrap();
        for (i, &(disk, _)) in reqs.iter().enumerate() {
            assert_eq!(out[i * b..(i + 1) * b], [disk as u64; 4], "request {i}");
        }
        s.sync().unwrap();
        let caller = std::thread::current().id();
        let call = |kind, disk, blocks| Call {
            thread: caller,
            kind,
            disk,
            blocks,
        };
        let mut expect: Vec<Call> = (0..d).map(|disk| call("write", disk, 2)).collect();
        expect.extend((0..d).map(|disk| call("read", disk, 2)));
        expect.extend((0..d).map(|disk| call("sync", disk, 0)));
        expect.push(call("commit", 0, 0));
        assert_eq!(*calls.lock().unwrap(), expect);
        assert!(!s.caps().overlap && s.wall_snapshot().is_none());
    }

    #[test]
    fn a_split_groups_each_disk_in_request_order_and_reuses_its_buffers() {
        let mut split = Split::default();
        split
            .fill(&[8; 4], &[(2, 7), (0, 1), (2, 3), (0, 1)])
            .unwrap();
        let shares: Vec<_> = split.shares().collect();
        assert_eq!(
            shares,
            [(0, &[(1, 1), (1, 3)][..]), (2, &[(7, 0), (3, 2)][..])]
        );
        let capacity = split.entries.capacity();
        split.fill(&[8; 4], &[(3, 0)]).unwrap();
        assert_eq!(split.shares().collect::<Vec<_>>(), [(3, &[(0, 0)][..])]);
        assert_eq!(split.entries.capacity(), capacity);
        split.fill(&[8; 4], &[]).unwrap();
        assert!(split.is_empty());
    }

    #[test]
    fn queued_messages_start_their_access_when_the_last_one_ends() {
        let access = Duration::from_millis(2);
        let station = Station {
            access,
            ..Station::untimed()
        };
        // A message that finds the disks idle waits out a whole access
        // from when the worker takes it up.
        let issued = Instant::now();
        station.wait_access(issued);
        assert!(station.waited.get() >= access, "{:?}", station.waited.get());
        let done = station.free_at.get();
        // Messages issued while that access ran are queued: each access
        // starts when the previous one ends, however late the thread woke,
        // so the queue drains at exactly one access per message.
        for k in 1..=3 {
            station.wait_access(issued);
            assert_eq!(station.free_at.get(), done + k * access, "message {k}");
        }
        assert!(Instant::now() >= done + 3 * access);
    }

    /// `s` with every disk grown to `slots` slots.
    fn sized<S: Storage<u64>>(mut s: S, slots: usize) -> S {
        for disk in 0..s.num_disks() {
            s.ensure_capacity(disk, slots).unwrap();
        }
        s
    }

    fn round_trip_via_machine<S: Storage<u64>>(make: impl Fn(usize, usize, Duration) -> S) {
        let (d, b) = (4, 8);
        let mut pdm =
            Pdm::with_storage(PdmConfig::new(d, b, 64), make(d, b, Duration::ZERO)).unwrap();
        // Two whole `ingest`/`inspect` batches plus one partial block.
        let batch = d * DEFAULT_QUEUE_DEPTH;
        let n = 2 * batch * b + 5;
        let r = pdm.alloc_region_for_keys(n).unwrap();
        let data: Vec<u64> = (0..n as u64).map(|i| i * 7 % 1000).collect();
        pdm.ingest(&r, &data).unwrap();
        let all = pdm.inspect(&r).unwrap();
        assert_eq!(all[..n], data[..]);
        assert_eq!(all.len(), (2 * batch + 1) * b);
        assert!(all[n..].iter().all(|&k| k == u64::MAX));
        let tail_disk = r.addr(2 * batch).unwrap().disk;
        let (s, _) = pdm.into_parts();
        // Exactly the worker driver overlaps and records telemetry.
        let Some(snap) = s.wall_snapshot() else {
            assert!(!s.caps().overlap);
            return;
        };
        assert!(s.caps().overlap);
        // Each batch is one service round on every disk it touches, each
        // way; only the partial block's disk sees the third batch.
        for (disk, dw) in snap.disks.iter().enumerate() {
            let rounds = 2 + u64::from(disk == tail_disk);
            assert_eq!(dw.write.count, rounds, "disk {disk}: write rounds");
            assert_eq!(dw.read.count, rounds, "disk {disk}: read rounds");
        }
    }

    fn batched_round_trip_many_blocks_per_disk<S: Storage<u64>>(
        make: impl Fn(usize, usize, Duration) -> S,
    ) {
        let (d, b) = (2, 8);
        // 64 slots per disk against the default queue depth of 32 takes
        // more than one kernel round per disk on the file medium.
        let mut s = sized(make(d, b, Duration::ZERO), 64);
        let reqs: Vec<(usize, usize)> = (0..128).map(|i| (i % d, i / d)).collect();
        let data: Vec<u64> = (0..reqs.len() * b).map(|i| i as u64 * 31).collect();
        s.write_batch(&reqs, &data).unwrap();
        let mut out = vec![0u64; data.len()];
        s.read_batch(&reqs, &mut out).unwrap();
        assert_eq!(out, data);
        // The overlapped path places the blocks of a reversed batch by
        // request order too.
        let rev: Vec<(usize, usize)> = reqs.iter().rev().copied().collect();
        let w = s.start_write_batch(&rev, &data).unwrap();
        w.wait().unwrap();
        let r = s.start_read_batch(&reqs).unwrap();
        r.wait(&mut out).unwrap();
        let expect: Vec<u64> = data.chunks(b).rev().flatten().copied().collect();
        assert_eq!(out, expect);
    }

    fn repeated_slot_in_one_batch_keeps_the_last_write<S: Storage<u64>>(
        make: impl Fn(usize, usize, Duration) -> S,
    ) {
        let mut s = sized(make(1, 2, Duration::ZERO), 2);
        s.write_batch(&[(0, 1), (0, 0), (0, 1)], &[1, 1, 2, 2, 3, 3])
            .unwrap();
        let mut out = [0u64; 4];
        s.read_batch(&[(0, 0), (0, 1)], &mut out).unwrap();
        assert_eq!(out, [2, 2, 3, 3]);
    }

    fn bounds_and_disk_index_in_errors<S: Storage<u64>>(
        make: impl Fn(usize, usize, Duration) -> S,
    ) {
        let mut s = make(2, 4, Duration::ZERO);
        s.ensure_capacity(0, 1).unwrap();
        assert!(matches!(
            s.ensure_capacity(2, 1),
            Err(PdmError::BadDisk {
                disk: 2,
                num_disks: 2
            })
        ));
        let mut out = [0u64; 4];
        assert!(matches!(
            s.read_batch(&[(3, 0)], &mut out),
            Err(PdmError::BadDisk { disk: 3, .. })
        ));
        assert!(matches!(
            s.read_batch(&[(0, 5)], &mut out),
            Err(PdmError::BadSlot {
                disk: 0,
                slot: 5,
                allocated: 1
            })
        ));
        assert!(matches!(
            s.write_batch(&[(1, 0)], &[1, 2, 3, 4]),
            Err(PdmError::BadSlot {
                disk: 1,
                slot: 0,
                allocated: 0
            })
        ));
        let mut bad = [0u64; 2];
        assert!(matches!(
            s.read_batch(&[(0, 0)], &mut bad),
            Err(PdmError::BadBlockLen {
                got: 2,
                expected: 4
            })
        ));
        assert!(matches!(
            s.write_batch(&[(0, 0)], &[1, 2]),
            Err(PdmError::BadBlockLen {
                got: 2,
                expected: 4
            })
        ));
    }

    fn overlapped_issue_rejects_bad_slots_with_their_disk<S: Storage<u64>>(
        make: impl Fn(usize, usize, Duration) -> S,
    ) {
        let mut s = sized(make(2, 4, Duration::ZERO), 1);
        s.write_batch(&[(0, 0)], &[1, 2, 3, 4]).unwrap();
        match s.start_read_batch(&[(1, 0), (1, 5)]) {
            Err(PdmError::BadSlot {
                disk: 1,
                slot: 5,
                allocated: 1,
            }) => {}
            Err(e) => panic!("expected BadSlot on disk 1 at issue, got {e:?}"),
            Ok(_) => panic!("a bad slot must fail at issue, not at wait"),
        }
        match s.start_write_batch(&[(0, 0), (1, 5)], &[7; 8]) {
            Err(PdmError::BadSlot {
                disk: 1,
                slot: 5,
                allocated: 1,
            }) => {}
            Err(e) => panic!("expected BadSlot on disk 1 at issue, got {e:?}"),
            Ok(_) => panic!("a bad slot must fail at issue, not at wait"),
        }
        // Nothing of the refused write reached the disk.
        let mut out = [0u64; 4];
        s.read_batch(&[(0, 0)], &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4]);
    }

    fn read_of_slot_with_write_in_flight_is_refused<S: Storage<u64>>(
        make: impl Fn(usize, usize, Duration) -> S,
    ) {
        let b = 4;
        let mut s = sized(make(1, b, LAT), BACKLOG + 1);
        let backlog: Vec<(usize, usize)> = (1..=BACKLOG).map(|slot| (0, slot)).collect();
        let payload = vec![9u64; b];
        let mut out = vec![0u64; b];
        let mut refused = false;
        // A read that finds the writes already retired lost the race
        // (a descheduled test thread): try again.
        for _ in 0..ATTEMPTS {
            let w1 = s
                .start_write_batch(&backlog, &vec![1u64; BACKLOG * b])
                .unwrap();
            let w2 = s.start_write_batch(&[(0, 0)], &payload).unwrap();
            match s.read_batch(&[(0, 0)], &mut out) {
                Err(PdmError::ReadDuringFlush { disk: 0, slot: 0 }) => refused = true,
                Ok(()) => {}
                Err(e) => panic!("expected ReadDuringFlush, got {e:?}"),
            }
            w1.wait().unwrap();
            w2.wait().unwrap();
            if refused {
                break;
            }
        }
        assert!(
            refused,
            "a read of a slot with a write in flight was served"
        );
        // Once the write retires, the same read is clean.
        s.read_batch(&[(0, 0)], &mut out).unwrap();
        assert_eq!(out, payload);
    }

    fn duplex_read_overtakes_queued_writes<S: Storage<u64>>(
        make: impl Fn(usize, usize, Duration) -> S,
    ) {
        let b = 4;
        let mut s = sized(make(1, b, LAT), BACKLOG + 1);
        let payload = vec![3u64; b];
        s.write_batch(&[(0, 0)], &payload).unwrap();
        // Two write batches queue on the disk's write worker; a read of a
        // disjoint slot goes to its read worker and finishes first. A
        // single shared queue would serve it only after both writes.
        let backlog: Vec<(usize, usize)> = (1..=BACKLOG).map(|slot| (0, slot)).collect();
        let data = vec![1u64; BACKLOG * b];
        let mut overtook = false;
        for _ in 0..ATTEMPTS {
            let w1 = s.start_write_batch(&backlog, &data).unwrap();
            let w2 = s.start_write_batch(&backlog, &data).unwrap();
            let r = s.start_read_batch(&[(0, 0)]).unwrap();
            let mut out = vec![0u64; b];
            r.wait(&mut out).unwrap();
            assert_eq!(out, payload);
            overtook = !w2.is_ready();
            w1.wait().unwrap();
            w2.wait().unwrap();
            if overtook {
                break;
            }
        }
        assert!(overtook, "the read waited behind the queued writes");
    }

    fn drop_joins_workers_after_draining_queued_writes<S: Storage<u64>>(
        make: impl Fn(usize, usize, Duration) -> S,
    ) {
        drop(make(8, 16, Duration::ZERO)); // must not hang or panic
        let mut s = sized(make(2, 4, Duration::ZERO), 4);
        let reqs: Vec<(usize, usize)> = (0..8).map(|i| (i % 2, i / 2)).collect();
        let w = s.start_write_batch(&reqs, &[5; 32]).unwrap();
        drop(s);
        w.wait().unwrap();
    }

    fn wall_telemetry_is_one_sample_and_span_per_disk_per_batch<S: Storage<u64>>(
        make: impl Fn(usize, usize, Duration) -> S,
    ) {
        let d = 2;
        let mut s = make(d, 4, Duration::from_millis(2));
        let sink = Arc::new(SpanSink::new(1 << 12));
        s.attach_span_sink(Arc::clone(&sink));
        let mut s = sized(s, 2);
        let reqs: Vec<(usize, usize)> = (0..2 * d).map(|i| (i % d, i / d)).collect();
        let data = vec![1u64; reqs.len() * 4];
        let mut out = vec![0u64; reqs.len() * 4];
        s.write_batch(&reqs, &data).unwrap();
        s.read_batch(&reqs, &mut out).unwrap();
        assert_eq!(out, data);
        let snap = s.wall_snapshot().unwrap();
        assert_eq!(snap.disks.len(), d);
        for (disk, dw) in snap.disks.iter().enumerate() {
            assert_eq!(dw.read.count, 1, "disk {disk}: one read round per batch");
            assert_eq!(dw.write.count, 1, "disk {disk}: one write round per batch");
            // both blocks of a batch are queued before its round retires
            assert!(
                dw.queue_high_water >= 2,
                "disk {disk} queue high-water {} < 2",
                dw.queue_high_water
            );
        }
        // one span per disk per batch, on the right named tracks
        let spans = sink.spans();
        assert_eq!(spans.len(), 2 * d);
        let tracks = sink.tracks();
        assert_eq!(tracks.len(), 2 * d);
        assert!(tracks.contains(&(0, "disk0 read".to_string())));
        assert!(tracks.contains(&(3, "disk1 write".to_string())));
        assert!(spans.iter().any(|sp| sp.tid == 1 && sp.name == "write"));
        assert!(spans.iter().any(|sp| sp.tid == 2 && sp.name == "read"));
    }
}
