//! Threaded storage: the worker engine ([`crate::storage_worker`]) over RAM
//! disks with an optional emulated access latency.
//!
//! The logical cost model is identical across backends (the machine layer
//! does all accounting); this backend exists to show the *wall-clock*
//! `D`-way scaling that the PDM's parallel-step metric predicts — the
//! property the paper's "full parallelism" claims (Thm 3.1 proof, §7) are
//! about — and to give the overlap A/B in `pdm-bench` a latency to hide.
//! The access latency is paid once per message, i.e. once per batch: the
//! batch is one parallel step, whose disks wait out their access side by
//! side, and each disk it touches is charged the latency in its service
//! time. A batch queued behind another starts its access when that one's
//! ends, so a queue streams at the nominal latency, not at the latency plus
//! whatever the OS adds to each sleep. The latency is slept *outside* the
//! lock on a disk's data, so the read worker and the write worker genuinely
//! overlap. Synchronous callers can't tell: a
//! blocking batch is all-reads or all-writes and waits for its reply
//! before returning, so the two workers only run side by side once the
//! overlap layer keeps both streams in flight.

use crate::error::Result;
use crate::key::PdmKey;
use crate::storage::StorageCaps;
use crate::storage_worker::{
    BlockResults, Medium, MediumWorker, Share, Station, WorkerStorage, POISONED,
};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Storage whose `D` RAM disks are served by two worker threads: one read
/// worker and one write worker for all disks.
pub type ThreadedStorage<K> = WorkerStorage<K, RamDisks<K>>;

/// The RAM medium: one flat key array per disk, shared by the two workers
/// behind a mutex per disk. Only the copy in or out holds the lock.
pub struct RamDisks<K> {
    disks: Vec<Arc<Mutex<Vec<K>>>>,
    block_size: usize,
    latency: Duration,
}

/// One worker thread's view of the RAM disks: every disk's array.
pub struct RamWorker<K> {
    disks: Vec<Arc<Mutex<Vec<K>>>>,
    block_size: usize,
}

impl<K: PdmKey> Medium<K> for RamDisks<K> {
    type Worker = RamWorker<K>;

    fn grow(&mut self, disk: usize, slots: usize) -> Result<()> {
        self.disks[disk]
            .lock()
            .expect(POISONED)
            .resize(slots * self.block_size, K::MAX);
        Ok(())
    }

    /// The workers service requests while the caller computes, so overlap
    /// genuinely hides (emulated) latency here.
    fn caps(&self) -> StorageCaps {
        StorageCaps {
            overlap: true,
            ..StorageCaps::default()
        }
    }

    fn access(&self) -> Duration {
        self.latency
    }
}

/// Each disk's share is one service round.
impl<K: PdmKey> MediumWorker<K> for RamWorker<K> {
    fn read(&mut self, station: &Station<K>, shares: &[Share<usize>], out: &mut BlockResults<K>) {
        let b = self.block_size;
        for (disk, slots) in shares {
            station.round(&[(*disk, slots.len())], || {
                let data = self.disks[*disk].lock().expect(POISONED);
                for &slot in slots {
                    let mut buf = station.pool.get(b);
                    buf.extend_from_slice(&data[slot * b..(slot + 1) * b]);
                    out.push(Ok(buf));
                }
            });
        }
    }

    fn write(
        &mut self,
        station: &Station<K>,
        shares: &[Share<(usize, Vec<K>)>],
        out: &mut Vec<Result<()>>,
    ) {
        let b = self.block_size;
        for (disk, batch) in shares {
            station.round(&[(*disk, batch.len())], || {
                let mut data = self.disks[*disk].lock().expect(POISONED);
                for (slot, payload) in batch {
                    data[slot * b..(slot + 1) * b].copy_from_slice(payload);
                    out.push(Ok(()));
                }
            });
        }
    }
}

impl<K: PdmKey> ThreadedStorage<K> {
    /// Spawn the two workers with zero emulated latency.
    pub fn new(num_disks: usize, block_size: usize) -> Self {
        Self::with_latency(num_disks, block_size, Duration::ZERO)
    }

    /// Spawn workers that sleep `latency` per serviced batch, emulating
    /// disks with that access time.
    pub fn with_latency(num_disks: usize, block_size: usize, latency: Duration) -> Self {
        let disks: Vec<Arc<Mutex<Vec<K>>>> = (0..num_disks).map(|_| Arc::default()).collect();
        let worker = || RamWorker {
            disks: disks.clone(),
            block_size,
        };
        let workers = (worker(), worker());
        Self::spawn(
            RamDisks {
                disks,
                block_size,
                latency,
            },
            block_size,
            vec![0; num_disks],
            workers,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::Storage;
    use std::time::Instant;

    /// Total service time per disk (read + write histogram sums).
    fn service_nanos(s: &ThreadedStorage<u64>) -> Vec<u64> {
        let snap = s.wall_snapshot().unwrap();
        snap.disks
            .iter()
            .map(|d| d.read.sum + d.write.sum)
            .collect()
    }

    #[test]
    fn batch_io_is_disk_parallel_in_wall_clock() {
        let d = 4;
        let lat = Duration::from_millis(3);
        let mut s = ThreadedStorage::<u64>::with_latency(d, 4, lat);
        for disk in 0..d {
            s.ensure_capacity(disk, 1).unwrap();
        }
        let reqs: Vec<(usize, usize)> = (0..d).map(|disk| (disk, 0)).collect();
        let mut out = vec![0u64; d * 4];
        // warm-up
        s.read_batch(&reqs, &mut out).unwrap();
        let t = Instant::now();
        for _ in 0..5 {
            s.read_batch(&reqs, &mut out).unwrap();
        }
        let parallel = t.elapsed();
        // Sequential lower bound would be 5 * D * lat = 60ms; parallel should
        // be near 5 * lat = 15ms. Use a generous threshold for CI noise.
        assert!(
            parallel < Duration::from_millis(45),
            "batch across {d} disks took {parallel:?}, expected ~{:?}",
            lat * 5
        );
    }

    #[test]
    fn latency_is_charged_per_batch_not_per_block() {
        let d = 4;
        let lat = Duration::from_millis(10);
        let mut s = ThreadedStorage::<u64>::with_latency(d, 4, lat);
        for disk in 0..d {
            s.ensure_capacity(disk, 2).unwrap();
        }
        assert_eq!(service_nanos(&s), vec![0; d], "no I/O yet");
        // 3 blocks per disk, striped, dispatched as ONE batch: each disk
        // charges its access latency once for the whole batch.
        let reqs: Vec<(usize, usize)> = (0..3 * d).map(|i| (i % d, i / d % 2)).collect();
        let mut out = vec![0u64; reqs.len() * 4];
        s.read_batch(&reqs, &mut out).unwrap();
        let floor = lat.as_nanos() as u64;
        let ceiling = (3 * lat).as_nanos() as u64;
        for (disk, ns) in service_nanos(&s).into_iter().enumerate() {
            assert!(
                ns >= floor,
                "disk {disk} joined a batch at {lat:?} access cost but logged only {ns}ns"
            );
            assert!(
                ns < ceiling,
                "disk {disk} logged {ns}ns for a 3-block batch — latency is being \
                 charged per block again instead of per batch"
            );
        }
    }

    #[test]
    fn separate_batches_each_charge_latency() {
        let lat = Duration::from_millis(5);
        let mut s = ThreadedStorage::<u64>::with_latency(1, 4, lat);
        s.ensure_capacity(0, 1).unwrap();
        let mut out = vec![0u64; 4];
        for _ in 0..3 {
            s.read_batch(&[(0, 0)], &mut out).unwrap();
        }
        let ns = service_nanos(&s)[0];
        assert!(
            ns >= (3 * lat).as_nanos() as u64,
            "3 one-block batches must pay 3 access latencies, logged {ns}ns"
        );
    }

    #[test]
    fn fresh_blocks_read_as_max_padding() {
        let mut s = ThreadedStorage::<u32>::new(1, 2);
        s.ensure_capacity(0, 2).unwrap();
        s.write_block(0, 0, &[1, 2]).unwrap();
        // growing keeps the data and pads the new slots
        s.ensure_capacity(0, 3).unwrap();
        let mut out = [0u32; 6];
        s.read_batch(&[(0, 0), (0, 1), (0, 2)], &mut out).unwrap();
        assert_eq!(out, [1, 2, u32::MAX, u32::MAX, u32::MAX, u32::MAX]);
    }
}
