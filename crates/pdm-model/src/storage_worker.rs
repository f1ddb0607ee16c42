//! The worker storage engine shared by the threaded and async-file
//! backends.
//!
//! Two worker threads serve all `D` disks: a *read worker* and a *write
//! worker*. A caller batch is one message to one of them, carrying every
//! touched disk's share, and one reply back, so a parallel I/O step of the
//! PDM costs one hand-off each way however many disks it touches. With
//! overlap enabled, prefetches and flush-behinds run side by side on the
//! two workers instead of convoying in one queue. What a disk *is* comes
//! from a pluggable [`Medium`]: RAM with an emulated access latency
//! ([`crate::storage_threaded::ThreadedStorage`]) or a host file driven by
//! positioned I/O or io_uring
//! ([`crate::storage_async_file::AsyncFileStorage`]). Each worker thread
//! owns one [`MediumWorker`], which serves a whole message: the RAM medium
//! copies the shares in disk order, and the file medium's ring takes every
//! disk's blocks in one kernel submission. Everything else is written
//! once, here:
//!
//! - **Grouped dispatch.** A caller batch is validated against the
//!   caller-side allocation table (disk, slot, payload length), split by
//!   disk, and sent as *one* message. A bad request fails the whole batch
//!   at issue, before anything is sent.
//! - **Copy-at-issue writes.** Write payloads are copied into buffers from
//!   a shared [`BlockPool`] before `start_write_batch` returns; the write
//!   worker returns them after committing. Read replies travel in pooled
//!   buffers that the completion token returns.
//! - **The read/write hazard gate.** Separate read and write workers make
//!   read-overtakes-write possible, so every issued write registers its
//!   slot and the write worker retires the entry only after the bytes are
//!   committed. A read of a slot whose write has not retired is refused
//!   ([`PdmError::ReadDuringFlush`]) rather than returning whichever bytes
//!   win the race. The pipeline discipline (write-behind drained before its
//!   region is re-read, enforced at every phase boundary by the checkpoint
//!   guard) keeps correct code off that path entirely.
//! - **Completion tokens.** A token waits for its one reply and returns
//!   every pooled buffer before it reports the first error (in disk
//!   order), so an error never strands buffers inside a reply channel. The
//!   blocking `read_batch`/`write_batch` are `start_*_batch(..)?.wait(..)`.
//!   One worker completes its messages in issue order.
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
use crate::overlap::{PendingRead, PendingWrite};
use crate::pool::{BlockPool, PoolStats};
use crate::stats::{DiskWallRec, SpanSink, StorageWallSnapshot, UringWall};
use crate::storage::{check_batch_len, Storage, StorageCaps};
use std::cell::{Cell, OnceCell};
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The caller-side half of a medium: what the engine asks of the disks as
/// a whole. What moves blocks lives in [`Medium::Worker`].
pub trait Medium<K: PdmKey>: Send + 'static {
    /// One worker thread's service state over every disk; the read worker
    /// and the write worker each get one.
    type Worker: MediumWorker<K>;

    /// Grow disk `disk` to `slots` block slots (called on the caller
    /// thread, only when the allocation grows).
    fn grow(&mut self, disk: usize, slots: usize) -> Result<()>;

    /// Persist metadata once the write queue has drained and every disk
    /// has synced (the tail of [`Storage::sync`]); `allocated` is the
    /// per-disk allocation.
    fn commit(&mut self, _allocated: &[usize]) -> Result<()> {
        Ok(())
    }

    /// Capabilities of a storage over this medium.
    fn caps(&self) -> StorageCaps;

    /// io_uring batching counters summed over the workers (zero for media
    /// without rings).
    fn uring(&self) -> UringWall {
        UringWall::default()
    }

    /// The emulated access time a read or write message waits out before
    /// its disks move: zero on a real medium.
    fn access(&self) -> Duration {
        Duration::ZERO
    }
}

/// One worker thread's service state over every disk: moves the blocks of
/// a message's shares.
pub trait MediumWorker<K: PdmKey>: Send + 'static {
    /// Read every share's slots (already bounds-checked) into pooled
    /// buffers, pushing one result per slot onto `out`, shares in order.
    /// Each service round runs inside the station's `round`.
    fn read(&mut self, station: &Station<K>, shares: &[Share<usize>], out: &mut BlockResults<K>);

    /// Commit every share's `(slot, payload)` pairs (in issue order within
    /// a share), pushing one result per block onto `out`, shares in order.
    /// The engine returns the payloads to the pool and retires their
    /// hazard entries afterwards.
    fn write(
        &mut self,
        station: &Station<K>,
        shares: &[Share<(usize, Vec<K>)>],
        out: &mut Vec<Result<()>>,
    );

    /// Make every disk's committed writes durable (the write worker's half
    /// of [`Storage::sync`]): every disk syncs, even after one fails, and
    /// the first error in disk order is the answer.
    fn sync(&mut self) -> Result<()> {
        Ok(())
    }
}

/// One worker thread's state: its direction, the block pool, every disk's
/// wall-clock recorder, the trace sink and the medium's emulated access
/// time. A [`MediumWorker`] reports its service rounds through it.
pub struct Station<K> {
    write: bool,
    /// The pool read replies are drawn from.
    pub(crate) pool: Arc<BlockPool<K>>,
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

impl<K> Station<K> {
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

    /// Disk `disk`'s wall-clock recorder.
    #[cfg(feature = "block-checksums")]
    pub(crate) fn wall(&self, disk: usize) -> &DiskWallRec {
        &self.wall[disk]
    }

    /// Run one service round that moves `blocks` blocks of each listed
    /// `(disk, blocks)`. For every one of those disks, the round's wall
    /// time plus the message's access wait is one latency-histogram sample
    /// and, when a sink is attached, one span on the disk's track (`2·disk`
    /// read, `2·disk + 1` write); its blocks then retire from the queue
    /// gauge.
    pub(crate) fn round<R>(&self, disks: &[(usize, usize)], f: impl FnOnce() -> R) -> R {
        let waited = self.waited.get();
        let t0 = Instant::now();
        let res = f();
        let t1 = Instant::now();
        let ns = (t1.saturating_duration_since(t0) + waited).as_nanos() as u64;
        let start = t0.checked_sub(waited).unwrap_or(t0);
        let name = if self.write { "write" } else { "read" };
        for &(disk, blocks) in disks {
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
        res
    }
}

/// One message carries every touched disk's share of a caller batch, in
/// disk order: one send, one worker wake-up and one reply per batch.
/// Reads and writes carry the instant they were issued, which places
/// their emulated access.
enum Request<K> {
    Read {
        shares: Vec<Share<usize>>,
        issued: Instant,
        reply: Sender<BlockResults<K>>,
    },
    Write {
        shares: Vec<Share<(usize, Vec<K>)>>,
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

/// Why a lock shared with a disk worker can fail: the worker panicked
/// while holding it.
pub(crate) const POISONED: &str = "a disk worker panicked holding a shared lock";

/// One disk's share of a message: the disk, and its slots (or
/// `(slot, payload)` pairs) in issue order.
pub type Share<T> = (usize, Vec<T>);

/// A read message's answer: a block or an error per slot, in share order.
pub type BlockResults<K> = Vec<Result<Vec<K>>>;

/// In-flight write slots (`(disk, slot)` → outstanding writes).
type Hazards = Arc<Mutex<HashMap<(usize, usize), usize>>>;

fn hung_up() -> PdmError {
    PdmError::BadConfig("disk worker hung up".into())
}

/// Bounds-check `(disk, slot)` against a per-disk allocation table.
pub(crate) fn check_slot(allocated: &[usize], disk: usize, slot: usize) -> Result<()> {
    let slots = *allocated.get(disk).ok_or(PdmError::BadDisk {
        disk,
        num_disks: allocated.len(),
    })?;
    if slot >= slots {
        return Err(PdmError::BadSlot {
            disk,
            slot,
            allocated: slots,
        });
    }
    Ok(())
}

/// Grow disk `disk` of `medium` to `slots` slots when that is more than
/// its entry in `allocated`, keeping the table in step (the medium's
/// [`Storage::ensure_capacity`]).
pub(crate) fn grow<K: PdmKey, M: Medium<K>>(
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

/// A worker thread's loop over its [`MediumWorker`]; returns when the
/// engine drops its sender.
fn serve<K: PdmKey, W: MediumWorker<K>>(
    mut worker: W,
    station: Station<K>,
    hazards: Hazards,
    rx: Receiver<Request<K>>,
) {
    while let Ok(req) = rx.recv() {
        match req {
            Request::Read {
                shares,
                issued,
                reply,
            } => {
                if !shares.is_empty() {
                    station.wait_access(issued);
                }
                let mut out = Vec::with_capacity(shares.iter().map(|(_, s)| s.len()).sum());
                worker.read(&station, &shares, &mut out);
                let _ = reply.send(out);
            }
            Request::Write {
                shares,
                issued,
                reply,
            } => {
                if !shares.is_empty() {
                    station.wait_access(issued);
                }
                let mut out = Vec::with_capacity(shares.iter().map(|(_, b)| b.len()).sum());
                worker.write(&station, &shares, &mut out);
                // The bytes are committed: only now may a read of these
                // slots pass the hazard gate.
                let mut pending = hazards.lock().expect(POISONED);
                for (disk, batch) in &shares {
                    for (slot, _) in batch {
                        if let Some(count) = pending.get_mut(&(*disk, *slot)) {
                            *count -= 1;
                            if *count == 0 {
                                pending.remove(&(*disk, *slot));
                            }
                        }
                    }
                }
                drop(pending);
                for (_, batch) in shares {
                    for (_, buf) in batch {
                        station.pool.put(buf);
                    }
                }
                let _ = reply.send(out.into_iter().find(Result::is_err).unwrap_or(Ok(())));
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
    pool: Arc<BlockPool<K>>,
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
            // Steady state keeps ~2 buffers per disk in flight; 4×D gives
            // slack for the overlap layer's double-buffering and grows per
            // dispatch via reserve_retained. Pinned to this block size so a
            // buffer from another geometry is never recycled here.
            pool: Arc::new(BlockPool::for_blocks(4 * num_disks.max(1), block_size)),
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
                pool: Arc::clone(&s.pool),
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

    /// Split `items` (each tagged with its disk) into per-disk shares in
    /// disk order, counting each share's blocks into its disk's queue
    /// gauge (the worker retires them round by round).
    fn shares<T>(&self, items: impl Iterator<Item = (usize, T)>) -> Vec<Share<T>> {
        let mut groups: Vec<Vec<T>> = (0..self.allocated.len()).map(|_| Vec::new()).collect();
        for (disk, item) in items {
            groups[disk].push(item);
        }
        let mut shares = Vec::new();
        for (disk, share) in groups.into_iter().enumerate() {
            if !share.is_empty() {
                self.wall[disk].queue_add(share.len() as u64);
                shares.push((disk, share));
            }
        }
        shares
    }
}

/// Completion token for a grouped read batch: the one reply, and the
/// request index each of its results scatters back to.
struct GroupedPending<K> {
    order: Vec<usize>,
    reply: Reply<BlockResults<K>>,
    keys: usize,
    block_size: usize,
    pool: Arc<BlockPool<K>>,
}

impl<K: PdmKey> PendingRead<K> for GroupedPending<K> {
    /// Returns every delivered buffer to the pool before reporting the
    /// first error (in disk order).
    fn wait(self: Box<Self>, out: &mut [K]) -> Result<()> {
        let b = self.block_size;
        let mut first_err = (out.len() != self.keys).then_some(PdmError::BadBlockLen {
            got: out.len(),
            expected: self.keys,
        });
        let Some(results) = self.reply.take() else {
            return Err(first_err.unwrap_or_else(hung_up));
        };
        for (i, res) in self.order.into_iter().zip(results) {
            match res {
                Ok(data) => {
                    if first_err.is_none() {
                        out[i * b..(i + 1) * b].copy_from_slice(&data);
                    }
                    self.pool.put(data);
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        first_err.map_or(Ok(()), Err)
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

    fn pool_stats(&self) -> Option<PoolStats> {
        Some(self.pool.stats())
    }

    fn caps(&self) -> StorageCaps {
        self.medium.caps()
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
        {
            let hazards = self.hazards.lock().expect(POISONED);
            for &(disk, slot) in reqs {
                check_slot(&self.allocated, disk, slot)?;
                if hazards.contains_key(&(disk, slot)) {
                    return Err(PdmError::ReadDuringFlush { disk, slot });
                }
            }
        }
        // A whole batch's reply buffers are in flight at once — and with
        // overlap enabled, a write batch may be too. Retaining less than
        // that re-allocates the excess on every batch.
        self.pool
            .reserve_retained(2 * reqs.len() + self.allocated.len());
        let shares = self.shares(
            reqs.iter()
                .enumerate()
                .map(|(i, &(disk, slot))| (disk, (i, slot))),
        );
        let mut order = Vec::with_capacity(reqs.len());
        let shares = shares
            .into_iter()
            .map(|(disk, share)| {
                let (idx, slots): (Vec<usize>, Vec<usize>) = share.into_iter().unzip();
                order.extend(idx);
                (disk, slots)
            })
            .collect();
        let (reply, rx) = Reply::new();
        let issued = Instant::now();
        self.send(
            false,
            Request::Read {
                shares,
                issued,
                reply,
            },
        )?;
        Ok(Box::new(GroupedPending {
            order,
            reply: rx,
            keys: reqs.len() * self.block_size,
            block_size: self.block_size,
            pool: Arc::clone(&self.pool),
        }))
    }

    fn start_write_batch(
        &mut self,
        reqs: &[(usize, usize)],
        data: &[K],
    ) -> Result<Box<dyn PendingWrite + Send>> {
        let b = self.block_size;
        check_batch_len(reqs.len(), b, data.len())?;
        for &(disk, slot) in reqs {
            check_slot(&self.allocated, disk, slot)?;
        }
        self.pool
            .reserve_retained(2 * reqs.len() + self.allocated.len());
        // Registered before the worker can possibly see the request.
        let mut hazards = self.hazards.lock().expect(POISONED);
        for &(disk, slot) in reqs {
            *hazards.entry((disk, slot)).or_insert(0) += 1;
        }
        drop(hazards);
        let shares = self.shares(reqs.iter().zip(data.chunks_exact(b)).map(
            |(&(disk, slot), payload)| {
                let mut block = self.pool.get(b);
                block.extend_from_slice(payload);
                (disk, (slot, block))
            },
        ));
        let (reply, rx) = Reply::new();
        let issued = Instant::now();
        self.send(
            true,
            Request::Write {
                shares,
                issued,
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

/// Engine behaviours, run once per medium from one list.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PdmConfig;
    use crate::machine::Pdm;
    use crate::overlap::DEFAULT_QUEUE_DEPTH;
    use crate::storage_async_file::AsyncFileStorage;
    use crate::storage_threaded::ThreadedStorage;
    use std::thread::ThreadId;

    /// Writes queued ahead of the block under test, so that block's write
    /// is still in flight when the caller looks (the RAM medium also
    /// sleeps its latency once per queued batch).
    const BACKLOG: usize = 16384;
    const LAT: Duration = Duration::from_millis(30);
    /// Tries of a timing-dependent check before it counts as failed.
    const ATTEMPTS: usize = 5;

    macro_rules! engine_tests {
        ($medium:ident, $make:expr; $($test:ident),* $(,)?) => {
            mod $medium {
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

    macro_rules! for_each_medium {
        ($($test:ident),* $(,)?) => {
            engine_tests!(ram, |d, b, lat| ThreadedStorage::<u64>::with_latency(d, b, lat); $($test),*);
            engine_tests!(file, |d, b, _| AsyncFileStorage::<u64>::create_temp(d, b).unwrap(); $($test),*);
        };
    }

    for_each_medium!(
        round_trip_via_machine,
        batched_round_trip_many_blocks_per_disk,
        repeated_slot_in_one_batch_keeps_the_last_write,
        bounds_and_disk_index_in_errors,
        overlapped_issue_rejects_bad_slots_with_their_disk,
        read_of_slot_with_write_in_flight_is_refused,
        duplex_read_overtakes_queued_writes,
        drop_joins_workers_after_draining_queued_writes,
        block_buffers_are_recycled_across_batches,
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

    /// One [`Recorder`] worker thread's service state over `disks` disks.
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
        fn read(
            &mut self,
            station: &Station<u64>,
            shares: &[Share<usize>],
            out: &mut BlockResults<u64>,
        ) {
            for (disk, slots) in shares {
                station.round(&[(*disk, slots.len())], || {
                    log(&self.log, "read", *disk, slots.len());
                    for _ in slots {
                        let mut buf = station.pool.get(4);
                        buf.resize(4, *disk as u64);
                        out.push(Ok(buf));
                    }
                });
            }
        }

        fn write(
            &mut self,
            station: &Station<u64>,
            shares: &[Share<(usize, Vec<u64>)>],
            out: &mut Vec<Result<()>>,
        ) {
            for (disk, batch) in shares {
                station.round(&[(*disk, batch.len())], || {
                    log(&self.log, "write", *disk, batch.len());
                    out.extend(batch.iter().map(|_| Ok(())));
                });
            }
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
        // The one reply scatters back to request order.
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
    fn queued_messages_start_their_access_when_the_last_one_ends() {
        let access = Duration::from_millis(2);
        let station = Station::<u64> {
            write: true,
            pool: Arc::new(BlockPool::for_blocks(1, 4)),
            wall: Vec::new(),
            sink: Arc::default(),
            access,
            free_at: Cell::new(Instant::now()),
            waited: Cell::new(Duration::ZERO),
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
        // Each batch is one service round on every disk it touches, each
        // way; only the partial block's disk sees the third batch.
        let tail_disk = r.addr(2 * batch).unwrap().disk;
        let (s, _) = pdm.into_parts();
        for (disk, dw) in s.wall_snapshot().unwrap().disks.iter().enumerate() {
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
        // more than one kernel round per worker on the file medium.
        let mut s = sized(make(d, b, Duration::ZERO), 64);
        let reqs: Vec<(usize, usize)> = (0..128).map(|i| (i % d, i / d)).collect();
        let data: Vec<u64> = (0..reqs.len() * b).map(|i| i as u64 * 31).collect();
        s.write_batch(&reqs, &data).unwrap();
        let mut out = vec![0u64; data.len()];
        s.read_batch(&reqs, &mut out).unwrap();
        assert_eq!(out, data);
        // The overlapped path delivers the same bytes.
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
        let st = s.pool_stats().unwrap();
        assert_eq!(
            st.returns,
            st.hits + st.misses,
            "refused batches leaked buffers: {st:?}"
        );
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

    fn block_buffers_are_recycled_across_batches<S: Storage<u64>>(
        make: impl Fn(usize, usize, Duration) -> S,
    ) {
        let d = 4;
        let mut s = sized(make(d, 8, Duration::ZERO), 4);
        let reqs: Vec<(usize, usize)> = (0..2 * d).map(|i| (i % d, i / d)).collect();
        let data = vec![7u64; reqs.len() * 8];
        let mut out = vec![0u64; reqs.len() * 8];
        // Warmup primes the pool; everything after should be hits.
        s.write_batch(&reqs, &data).unwrap();
        s.read_batch(&reqs, &mut out).unwrap();
        let warm = s.pool_stats().unwrap();
        for _ in 0..20 {
            s.write_batch(&reqs, &data).unwrap();
            s.read_batch(&reqs, &mut out).unwrap();
        }
        let st = s.pool_stats().unwrap();
        assert_eq!(out, data);
        // A get can race ahead of the puts of in-flight buffers from the
        // same batch, so steady state may add a few buffers — but each
        // extra miss grows the pool permanently, so growth is bounded by
        // one batch's worth, never per-iteration.
        assert!(
            st.misses - warm.misses <= reqs.len() as u64,
            "steady state kept allocating block buffers: {st:?} after warmup {warm:?}"
        );
        assert!(
            st.hit_rate() > 0.9,
            "pool hit rate {:.3} ≤ 0.9: {st:?}",
            st.hit_rate()
        );
        assert_eq!(
            st.returns,
            st.hits + st.misses,
            "every buffer handed out came back"
        );
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
