//! The RAM medium, and threaded storage: the worker driver
//! ([`crate::storage_worker`]) over RAM disks with an optional emulated
//! access latency. The caller driver over the same medium is
//! [`crate::storage::MemStorage`].
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
//! lock on the disks' data, so the read worker and the write worker
//! genuinely overlap. Synchronous callers can't tell: a
//! blocking batch is all-reads or all-writes and waits for its reply
//! before returning, so the two workers only run side by side once the
//! overlap layer keeps both streams in flight.

use crate::error::Result;
use crate::key::PdmKey;
use crate::storage::StorageCaps;
use crate::storage_worker::{Medium, MediumWorker, Split, Station, WorkerStorage, POISONED};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Storage whose `D` RAM disks are served by two worker threads: one read
/// worker and one write worker for all disks.
pub type ThreadedStorage<K> = WorkerStorage<K, RamDisks<K>>;

/// The RAM medium: one flat key array per disk, every disk behind one
/// mutex shared by the threads that serve it. A batch takes the lock once,
/// for its copies only.
pub struct RamDisks<K> {
    disks: Arc<Mutex<Vec<Vec<K>>>>,
    block_size: usize,
    latency: Duration,
}

/// One thread's view of the RAM disks: every disk's array.
pub struct RamWorker<K> {
    disks: Arc<Mutex<Vec<Vec<K>>>>,
    block_size: usize,
}

impl<K: PdmKey> RamDisks<K> {
    /// `num_disks` empty disks whose worker-driven messages each wait out
    /// `latency`.
    pub(crate) fn new(num_disks: usize, block_size: usize, latency: Duration) -> Self {
        Self {
            disks: Arc::new(Mutex::new(vec![Vec::new(); num_disks])),
            block_size,
            latency,
        }
    }

    /// One thread's service state over every disk.
    pub(crate) fn worker(&self) -> RamWorker<K> {
        RamWorker {
            disks: Arc::clone(&self.disks),
            block_size: self.block_size,
        }
    }
}

impl<K: PdmKey> Medium<K> for RamDisks<K> {
    type Worker = RamWorker<K>;

    fn grow(&mut self, disk: usize, slots: usize) -> Result<()> {
        self.disks.lock().expect(POISONED)[disk].resize(slots * self.block_size, K::MAX);
        Ok(())
    }

    /// RAM has neither direct I/O nor checksums.
    fn caps(&self) -> StorageCaps {
        StorageCaps::default()
    }

    fn access(&self) -> Duration {
        self.latency
    }
}

/// Each disk's share is one service round.
impl<K: PdmKey> MediumWorker<K> for RamWorker<K> {
    fn read(&mut self, station: &Station, split: &Split, out: &mut [K]) -> Result<()> {
        let b = self.block_size;
        let disks = self.disks.lock().expect(POISONED);
        for (disk, entries) in split.shares() {
            let data = &disks[disk];
            station.round([(disk, entries.len())], || {
                for &(slot, i) in entries {
                    out[i * b..(i + 1) * b].copy_from_slice(&data[slot * b..(slot + 1) * b]);
                }
            });
        }
        Ok(())
    }

    fn write(&mut self, station: &Station, split: &Split, data: &[K]) -> Result<()> {
        let b = self.block_size;
        let mut disks = self.disks.lock().expect(POISONED);
        for (disk, entries) in split.shares() {
            let blocks = &mut disks[disk];
            station.round([(disk, entries.len())], || {
                for &(slot, i) in entries {
                    blocks[slot * b..(slot + 1) * b].copy_from_slice(&data[i * b..(i + 1) * b]);
                }
            });
        }
        Ok(())
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
        let medium = RamDisks::new(num_disks, block_size, latency);
        let workers = (medium.worker(), medium.worker());
        Self::spawn(medium, block_size, vec![0; num_disks], workers)
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
        s.write_batch(&[(0, 0)], &[1, 2]).unwrap();
        // growing keeps the data and pads the new slots
        s.ensure_capacity(0, 3).unwrap();
        let mut out = [0u32; 6];
        s.read_batch(&[(0, 0), (0, 1), (0, 2)], &mut out).unwrap();
        assert_eq!(out, [1, 2, u32::MAX, u32::MAX, u32::MAX, u32::MAX]);
    }
}
