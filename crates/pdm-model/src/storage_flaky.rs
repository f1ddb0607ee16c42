//! Fault-injecting storage wrapper for robustness testing.
//!
//! [`FlakyStorage`] wraps any backend and fails block operations per a
//! deterministic schedule, letting tests prove that every algorithm
//! propagates storage errors as `Err` instead of panicking, corrupting its
//! output, or leaking tracked memory. All schedules — including the
//! probabilistic-looking [`FailMode::TransientRate`] — are pure functions
//! of a counter (and a seed), never a live coin flip, so failures are
//! reproducible and shrinkable.
//!
//! Two fault *classes* are injected:
//!
//! * **transient** ([`FailMode::TransientRate`], [`FailMode::EveryNth`]) —
//!   the error kind is `Interrupted`, so [`PdmError::is_transient`] is
//!   true. Because the operation counter advances on every attempt, the
//!   reissued operation draws a fresh schedule slot and (for any
//!   `EveryNth(n)` with `n > 1`, and with high probability for
//!   `TransientRate`) succeeds: faults *heal on retry*, which is what
//!   makes [`crate::storage_retry::RetryingStorage`] testable end-to-end.
//! * **permanent** ([`FailMode::NthRead`], [`FailMode::NthWrite`],
//!   [`FailMode::Disk`], [`FailMode::DiskAfter`]) — the error kind is
//!   `Other`; retry layers must give up immediately.

use crate::error::{PdmError, Result};
use crate::key::PdmKey;
use crate::rng::splitmix64;
use crate::storage::Storage;

/// Which operations to fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailMode {
    /// Fail the `n`-th block read (0-based, counting reads only).
    NthRead(u64),
    /// Fail the `n`-th block write.
    NthWrite(u64),
    /// Fail every operation touching the given disk.
    Disk(usize),
    /// Fail every operation touching disk `.0` from combined operation
    /// index `.1` onward (0-based over reads + writes): the disk works,
    /// then dies for good — a permanent mid-run failure, unlike the
    /// heal-on-retry transient modes.
    DiskAfter(usize, u64),
    /// Fail each operation independently with probability `rate_ppm` per
    /// million, drawn deterministically from `seed` and the combined
    /// operation index. Failures are transient (`Interrupted`): the retry
    /// is a new operation index and draws afresh.
    TransientRate {
        /// Seed mixed into every per-operation draw.
        seed: u64,
        /// Failure probability in parts per million (1% = 10_000).
        rate_ppm: u32,
    },
    /// Fail every `n`-th combined operation (indices `0, n, 2n, …`;
    /// `n = 0` is treated as `Never`). Transient: the retry lands on a
    /// non-multiple index and succeeds — except `n = 1`, which fails
    /// every attempt and so exercises retry *exhaustion*.
    EveryNth(u64),
    /// Never fail (pass-through; useful as a control).
    Never,
}

/// A storage wrapper that injects [`PdmError::Io`] failures per a
/// deterministic schedule.
pub struct FlakyStorage<S> {
    inner: S,
    mode: FailMode,
    reads: u64,
    writes: u64,
    /// Operations failed so far.
    pub injected: u64,
}

impl<S> FlakyStorage<S> {
    /// Wrap `inner` with the given failure schedule.
    pub fn new(inner: S, mode: FailMode) -> Self {
        Self {
            inner,
            mode,
            reads: 0,
            writes: 0,
            injected: 0,
        }
    }

    /// The wrapped backend.
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn fail(&mut self) -> PdmError {
        self.injected += 1;
        PdmError::Io(std::io::Error::other("injected fault"))
    }

    fn fail_transient(&mut self) -> PdmError {
        self.injected += 1;
        PdmError::Io(std::io::Error::new(
            std::io::ErrorKind::Interrupted,
            "injected transient fault",
        ))
    }

    /// Apply the disk-independent schedules that count reads and writes
    /// together; `op` is the combined 0-based operation index.
    fn check_combined(&mut self, disk: usize, op: u64) -> Result<()> {
        match self.mode {
            FailMode::Disk(d) if d == disk => Err(self.fail()),
            FailMode::DiskAfter(d, n) if d == disk && op >= n => Err(self.fail()),
            FailMode::TransientRate { seed, rate_ppm } => {
                if splitmix64(seed ^ op) % 1_000_000 < u64::from(rate_ppm) {
                    Err(self.fail_transient())
                } else {
                    Ok(())
                }
            }
            FailMode::EveryNth(n) if n > 0 && op % n == 0 => Err(self.fail_transient()),
            _ => Ok(()),
        }
    }

    /// Advance the read schedule by one block and apply it. Called once per
    /// block whether the block travels in a `read_batch` or a
    /// `start_read_batch`, so overlapped and blocking runs draw identical
    /// fault schedules.
    fn check_read_op(&mut self, disk: usize) -> Result<()> {
        let n = self.reads;
        let op = self.reads + self.writes;
        self.reads += 1;
        if let FailMode::NthRead(k) = self.mode {
            if n == k {
                return Err(self.fail());
            }
        }
        self.check_combined(disk, op)
    }

    /// Advance the write schedule by one block and apply it; see
    /// [`FlakyStorage::check_read_op`].
    fn check_write_op(&mut self, disk: usize) -> Result<()> {
        let n = self.writes;
        let op = self.reads + self.writes;
        self.writes += 1;
        if let FailMode::NthWrite(k) = self.mode {
            if n == k {
                return Err(self.fail());
            }
        }
        self.check_combined(disk, op)
    }
}

impl<K: PdmKey, S: Storage<K>> Storage<K> for FlakyStorage<S> {
    fn num_disks(&self) -> usize {
        self.inner.num_disks()
    }

    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn ensure_capacity(&mut self, disk: usize, slots: usize) -> Result<()> {
        self.inner.ensure_capacity(disk, slots)
    }

    /// One schedule draw per block, each block forwarded as its own
    /// one-block batch, so a fault stops the batch at that block: the
    /// blocks before it are read and nothing from it on.
    fn read_batch(&mut self, reqs: &[(usize, usize)], out: &mut [K]) -> Result<()> {
        let b = self.inner.block_size();
        for (i, &req) in reqs.iter().enumerate() {
            self.check_read_op(req.0)?;
            self.inner
                .read_batch(&[req], &mut out[i * b..(i + 1) * b])?;
        }
        Ok(())
    }

    /// See [`FlakyStorage`]'s `read_batch`: the blocks before a faulted
    /// one are written and nothing from it on.
    fn write_batch(&mut self, reqs: &[(usize, usize)], data: &[K]) -> Result<()> {
        let b = self.inner.block_size();
        for (i, &req) in reqs.iter().enumerate() {
            self.check_write_op(req.0)?;
            self.inner.write_batch(&[req], &data[i * b..(i + 1) * b])?;
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.inner.sync()
    }

    fn wall_snapshot(&self) -> Option<crate::stats::StorageWallSnapshot> {
        self.inner.wall_snapshot()
    }

    fn attach_span_sink(&mut self, sink: std::sync::Arc<crate::stats::SpanSink>) {
        self.inner.attach_span_sink(sink)
    }

    /// Inner caps, unchanged. Overlap survives fault injection: the
    /// `start_*_batch` forwards below apply the per-block schedule at
    /// issue time (advancing the same counters as the blocking path) and
    /// then hand the whole batch to the inner backend asynchronously.
    fn caps(&self) -> crate::storage::StorageCaps {
        self.inner.caps()
    }

    /// Apply the per-block read schedule at issue time — one draw per
    /// block, identical to the blocking decomposition — then forward the
    /// intact batch to the inner backend. A scheduled fault fails the
    /// whole start (nothing is issued), matching how a blocking batch
    /// stops at its first failed block.
    fn start_read_batch(
        &mut self,
        reqs: &[(usize, usize)],
    ) -> Result<Box<dyn crate::overlap::PendingRead<K> + Send>> {
        for &(disk, _) in reqs {
            self.check_read_op(disk)?;
        }
        self.inner.start_read_batch(reqs)
    }

    /// See [`FlakyStorage`]'s `start_read_batch`; same protocol for writes.
    fn start_write_batch(
        &mut self,
        reqs: &[(usize, usize)],
        data: &[K],
    ) -> Result<Box<dyn crate::overlap::PendingWrite + Send>> {
        for &(disk, _) in reqs {
            self.check_write_op(disk)?;
        }
        self.inner.start_write_batch(reqs, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PdmConfig;
    use crate::machine::Pdm;
    use crate::probe::ProbeEvent;
    use crate::storage::MemStorage;
    use crate::storage_threaded::ThreadedStorage;

    fn flaky_machine(mode: FailMode) -> Pdm<u64, FlakyStorage<MemStorage<u64>>> {
        let inner = MemStorage::new(2, 8);
        Pdm::with_storage(PdmConfig::new(2, 8, 64), FlakyStorage::new(inner, mode)).unwrap()
    }

    #[test]
    fn passthrough_mode_behaves_normally() {
        let mut pdm = flaky_machine(FailMode::Never);
        let r = pdm.alloc_region_for_keys(32).unwrap();
        let data: Vec<u64> = (0..32).collect();
        pdm.write_region(&r, &data).unwrap();
        let mut out = Vec::new();
        pdm.read_region(&r, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn nth_read_fails_exactly_once() {
        let mut pdm = flaky_machine(FailMode::NthRead(2));
        let r = pdm.alloc_region_for_keys(64).unwrap();
        pdm.ingest(&r, &(0..64u64).collect::<Vec<_>>()).unwrap();
        let mut out = Vec::new();
        // blocks 0,1 fine; block 2 fails
        assert!(pdm.read_blocks([(r, 0), (r, 1)], &mut out).is_ok());
        assert!(matches!(
            pdm.read_blocks([(r, 2)], &mut out),
            Err(PdmError::Io(_))
        ));
        // subsequent reads succeed (one-shot failure)
        assert!(pdm.read_blocks([(r, 3)], &mut out).is_ok());
    }

    #[test]
    fn a_refused_batch_or_issue_charges_nothing() {
        // The fault refuses each call's first block, so nothing moved and
        // nothing may be charged: not a blocking batch, not a one-step
        // overlapped issue, not a two-step one.
        for mode in [FailMode::NthRead(0), FailMode::NthWrite(0)] {
            for call in 0..3 {
                let mut pdm = flaky_machine(mode);
                pdm.set_overlap(true);
                pdm.enable_probe(64);
                let r = pdm.alloc_region(4).unwrap();
                let step = |lo: usize| vec![(r, lo), (r, lo + 1)];
                let data = [7u64; 32];
                let refused = match (mode, call) {
                    (FailMode::NthRead(_), 0) => pdm.read_blocks(step(0), &mut Vec::new()),
                    (FailMode::NthRead(_), 1) => pdm.start_read_blocks(&[step(0)]).map(drop),
                    (FailMode::NthRead(_), _) => {
                        pdm.start_read_blocks(&[step(0), step(2)]).map(drop)
                    }
                    (_, 0) => pdm.write_blocks(step(0), &data[..16]),
                    (_, 1) => pdm.start_write_blocks(&[step(0)], &data[..16]).map(drop),
                    _ => pdm.start_write_blocks(&[step(0), step(2)], &data).map(drop),
                };
                assert!(
                    matches!(refused, Err(PdmError::Io(_))),
                    "{mode:?}, call {call}"
                );
                let st = pdm.stats();
                assert_eq!(
                    (
                        st.blocks_read,
                        st.read_steps,
                        st.blocks_written,
                        st.write_steps
                    ),
                    (0, 0, 0, 0),
                    "{mode:?}, call {call}"
                );
                let events = st.probe().unwrap().events();
                assert!(
                    !events.iter().any(|e| matches!(e, ProbeEvent::Io { .. })),
                    "{mode:?}, call {call}"
                );
            }
        }
    }

    #[test]
    fn disk_mode_fails_only_that_disk() {
        let mut pdm = flaky_machine(FailMode::Disk(1));
        let r = pdm.alloc_region_for_keys(64).unwrap();
        // block 0 → disk 0 (ok), block 1 → disk 1 (fails)
        let mut out = Vec::new();
        assert!(pdm.read_blocks([(r, 0)], &mut out).is_ok());
        assert!(pdm.read_blocks([(r, 1)], &mut out).is_err());
    }

    #[test]
    fn ingest_faults_surface_too() {
        let mut pdm = flaky_machine(FailMode::NthWrite(0));
        let r = pdm.alloc_region_for_keys(16).unwrap();
        assert!(pdm.ingest(&r, &[1u64; 16]).is_err());
    }

    #[test]
    fn batched_ingest_over_the_engine_still_fails_at_the_nth_block() {
        // The wrapper splits `ingest`'s engine batches into single blocks,
        // so a fault lands where it did when staging went block by block:
        // blocks `0..k` are written and nothing from block `k` on.
        let (d, b, k) = (4, 8, 150);
        let flaky = FlakyStorage::new(ThreadedStorage::new(d, b), FailMode::NthWrite(k));
        let mut pdm = Pdm::with_storage(PdmConfig::new(d, b, 64), flaky).unwrap();
        let r = pdm.alloc_region(200).unwrap();
        let data: Vec<u64> = (0..200 * b as u64).collect();
        assert!(matches!(pdm.ingest(&r, &data), Err(PdmError::Io(_))));
        let all = pdm.inspect(&r).unwrap();
        let at = k as usize * b;
        assert_eq!(all[..at], data[..at]);
        assert!(all[at..].iter().all(|&x| x == u64::MAX));
        assert_eq!(pdm.into_parts().0.injected, 1);
    }

    #[test]
    fn disk_after_works_then_dies_permanently() {
        let mut s = FlakyStorage::new(MemStorage::<u64>::new(2, 4), FailMode::DiskAfter(1, 3));
        s.ensure_capacity(0, 4).unwrap();
        s.ensure_capacity(1, 4).unwrap();
        let mut out = [0u64; 4];
        // ops 0,1,2 on disk 1 succeed; from op 3 the disk is gone for good
        assert!(s.read_batch(&[(1, 0)], &mut out).is_ok());
        assert!(s.read_batch(&[(1, 1)], &mut out).is_ok());
        assert!(s.read_batch(&[(1, 2)], &mut out).is_ok());
        let e = s.read_batch(&[(1, 3)], &mut out).unwrap_err();
        assert!(!e.is_transient(), "DiskAfter faults are permanent");
        assert!(s.read_batch(&[(1, 0)], &mut out).is_err());
        assert!(s.write_batch(&[(1, 0)], &[0; 4]).is_err());
        // the other disk is unaffected
        assert!(s.read_batch(&[(0, 0)], &mut out).is_ok());
        assert_eq!(s.injected, 3);
    }

    #[test]
    fn transient_rate_is_deterministic_and_transient() {
        let mk = || {
            FlakyStorage::new(
                MemStorage::<u64>::new(1, 4),
                FailMode::TransientRate {
                    seed: 42,
                    rate_ppm: 200_000, // 20%: a few K ops will surely hit
                },
            )
        };
        let run = |s: &mut FlakyStorage<MemStorage<u64>>| {
            s.ensure_capacity(0, 8).unwrap();
            let mut out = [0u64; 4];
            let mut fails = Vec::new();
            for i in 0..2_000u64 {
                if let Err(e) = s.read_batch(&[(0, (i % 8) as usize)], &mut out) {
                    assert!(e.is_transient());
                    fails.push(i);
                }
            }
            fails
        };
        let (f1, f2) = (run(&mut mk()), run(&mut mk()));
        assert_eq!(f1, f2, "same seed, same schedule");
        assert!(!f1.is_empty(), "20% over 2000 ops must fire");
        assert!(f1.len() < 1_000, "and must not fire every time");
    }

    #[test]
    fn every_nth_heals_on_the_next_attempt() {
        let mut s = FlakyStorage::new(MemStorage::<u64>::new(1, 4), FailMode::EveryNth(3));
        s.ensure_capacity(0, 4).unwrap();
        let mut out = [0u64; 4];
        // op 0 fails, ops 1,2 succeed, op 3 fails, …
        let e = s.read_batch(&[(0, 0)], &mut out).unwrap_err();
        assert!(e.is_transient());
        assert!(s.read_batch(&[(0, 0)], &mut out).is_ok(), "retry heals");
        assert!(s.write_batch(&[(0, 0)], &[1; 4]).is_ok());
        assert!(s.read_batch(&[(0, 1)], &mut out).is_err());
        assert_eq!(s.injected, 2);
    }
}
