//! Sequential block streams over striped regions.
//!
//! [`RunReader`] and [`RunWriter`] turn a striped [`Region`] into a
//! key-granular sequential stream while doing block-granular, stripe-aligned
//! I/O underneath (default batch: one full stripe of `D` blocks per parallel
//! step). Each refill or flush is one machine batch, its block range mapped
//! to `(region, block)` pairs as [`Pdm::read_blocks`] and
//! [`Pdm::write_blocks`] take them. Their staging buffers are registered
//! against the machine's internal memory, so holding `l` open readers costs
//! `l · D · B` tracked keys — exactly the memory a real multiway merge
//! would pin.
//!
//! A reader streams its keys forward, or — from [`RunReader::backward`] —
//! back to front, so a run stored in descending order reads as ascending.
//! Mergers take whole buffered batches with [`RunReader::buffered`] and
//! [`RunReader::consume`] instead of pulling one key at a time. A merger
//! that prefetches issues the read [`RunReader::next_step`] names and hands
//! the data back with [`RunReader::install`].
//!
//! A writer's full batches go out through a [`WriteBehind`], so with the
//! machine's overlap switch on they are in flight while the caller keeps
//! pushing. [`RunWriter::finish`] retires them; call it before the phase
//! ends.

use crate::error::Result;
use crate::key::PdmKey;
use crate::layout::Region;
use crate::machine::Pdm;
use crate::mem::TrackedBuf;
use crate::overlap::WriteBehind;
use crate::storage::Storage;

/// Buffered sequential writer into a region.
pub struct RunWriter<K: PdmKey> {
    region: Region,
    next_block: usize,
    buf: TrackedBuf<K>,
    batch_keys: usize,
    written: usize,
    behind: WriteBehind<K>,
}

impl<K: PdmKey> RunWriter<K> {
    /// Writer over `region` staging `batch_blocks` blocks (default: pass
    /// `pdm.cfg().num_disks` for one-stripe batches).
    pub fn new<S: Storage<K>>(
        pdm: &Pdm<K, S>,
        region: Region,
        batch_blocks: usize,
    ) -> Result<Self> {
        let b = pdm.cfg().block_size;
        let batch_keys = batch_blocks.max(1) * b;
        Ok(Self {
            region,
            next_block: 0,
            buf: pdm.alloc_buf(batch_keys)?,
            batch_keys,
            written: 0,
            behind: WriteBehind::new(pdm),
        })
    }

    /// Writer with the default one-stripe batch.
    pub fn striped<S: Storage<K>>(pdm: &Pdm<K, S>, region: Region) -> Result<Self> {
        let d = pdm.cfg().num_disks;
        Self::new(pdm, region, d)
    }

    /// Keys pushed so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// The region being written.
    pub fn region(&self) -> &Region {
        &self.region
    }

    fn flush_full_blocks<S: Storage<K>>(&mut self, pdm: &mut Pdm<K, S>) -> Result<()> {
        let b = self.region.block_size();
        let full = self.buf.len() / b;
        if full == 0 {
            return Ok(());
        }
        let blocks = (self.next_block..self.next_block + full).map(|i| (self.region, i));
        self.behind.write(pdm, blocks, &self.buf[..full * b])?;
        self.next_block += full;
        // move the ragged tail to the front
        let rem = self.buf.len() - full * b;
        self.buf.copy_within(full * b.., 0);
        self.buf.truncate(rem);
        Ok(())
    }

    /// Append one key, flushing staged full blocks when the batch fills.
    pub fn push<S: Storage<K>>(&mut self, pdm: &mut Pdm<K, S>, k: K) -> Result<()> {
        self.buf.push(k);
        self.written += 1;
        if self.buf.len() >= self.batch_keys {
            self.flush_full_blocks(pdm)?;
        }
        Ok(())
    }

    /// Append a slice of keys.
    pub fn push_slice<S: Storage<K>>(&mut self, pdm: &mut Pdm<K, S>, ks: &[K]) -> Result<()> {
        for chunk in ks.chunks(self.batch_keys) {
            self.buf.extend_from_slice(chunk);
            self.written += chunk.len();
            if self.buf.len() >= self.batch_keys {
                self.flush_full_blocks(pdm)?;
            }
        }
        Ok(())
    }

    /// Key slots used so far, padding included: the offset in the region
    /// where the next key lands.
    pub fn position(&self) -> usize {
        self.next_block * self.region.block_size() + self.buf.len()
    }

    /// Pad the current partial block with `K::MAX` so the next key starts
    /// a fresh block (a run boundary); a batch this fills is flushed.
    pub fn pad_block<S: Storage<K>>(&mut self, pdm: &mut Pdm<K, S>) -> Result<()> {
        let padded = self.buf.len().next_multiple_of(self.region.block_size());
        self.buf.resize(padded, K::MAX);
        if self.buf.len() >= self.batch_keys {
            self.flush_full_blocks(pdm)?;
        }
        Ok(())
    }

    /// Flush remaining keys, padding the final partial block with `K::MAX`,
    /// retire every write still in flight, and return the number of *keys*
    /// written (padding excluded).
    pub fn finish<S: Storage<K>>(mut self, pdm: &mut Pdm<K, S>) -> Result<usize> {
        self.pad_block(pdm)?;
        self.flush_full_blocks(pdm)?;
        self.behind.finish(pdm)?;
        Ok(self.written)
    }
}

/// Buffered sequential reader over the first `total_keys` keys of a region.
pub struct RunReader<K: PdmKey> {
    region: Region,
    /// Blocks fetched so far (from the back when `backward`).
    next_block: usize,
    buf: TrackedBuf<K>,
    pos: usize,
    batch_blocks: usize,
    remaining: usize,
    backward: bool,
}

impl<K: PdmKey> RunReader<K> {
    /// Reader over the first `total_keys` keys of `region`, staging
    /// `batch_blocks` blocks per refill.
    pub fn new<S: Storage<K>>(
        pdm: &Pdm<K, S>,
        region: Region,
        total_keys: usize,
        batch_blocks: usize,
    ) -> Result<Self> {
        let b = pdm.cfg().block_size;
        let batch_blocks = batch_blocks.max(1);
        Ok(Self {
            region,
            next_block: 0,
            buf: pdm.alloc_buf(batch_blocks * b)?,
            pos: 0,
            batch_blocks,
            remaining: total_keys,
            backward: false,
        })
    }

    /// Reader that yields the first `total_keys` keys of `region` back to
    /// front: batches are fetched from the last block down and reversed in
    /// memory, and the tail block's padding is skipped by count. A run
    /// written in descending order streams out ascending.
    pub fn backward<S: Storage<K>>(
        pdm: &Pdm<K, S>,
        region: Region,
        total_keys: usize,
        batch_blocks: usize,
    ) -> Result<Self> {
        let region = region.sub(0, total_keys.div_ceil(region.block_size()))?;
        Ok(Self {
            backward: true,
            ..Self::new(pdm, region, total_keys, batch_blocks)?
        })
    }

    /// Reader with the default one-stripe batch over the whole region.
    pub fn striped<S: Storage<K>>(pdm: &Pdm<K, S>, region: Region) -> Result<Self> {
        let d = pdm.cfg().num_disks;
        let keys = region.len_keys();
        Self::new(pdm, region, keys, d)
    }

    /// Keys not yet yielded.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Whether the stream is exhausted.
    pub fn is_exhausted(&self) -> bool {
        self.remaining == 0
    }

    /// The fetched keys not yet consumed; empty until [`RunReader::peek`]
    /// fetches a batch, and again once that batch is used up.
    pub fn buffered(&self) -> &[K] {
        let end = self.buf.len().min(self.pos + self.remaining);
        &self.buf[self.pos..end]
    }

    /// Consume the first `n` keys of [`RunReader::buffered`].
    pub fn consume(&mut self, n: usize) {
        assert!(n <= self.buffered().len(), "consume past the fetched batch");
        self.pos += n;
        self.remaining -= n;
    }

    /// The next refill's blocks as `(first, count)`; `count` is 0 once
    /// every block has been fetched.
    fn next_blocks(&self) -> (usize, usize) {
        let blocks = self.region.len_blocks();
        let take = self.batch_blocks.min(blocks - self.next_block);
        let first = if self.backward {
            blocks - self.next_block - take
        } else {
            self.next_block
        };
        (first, take)
    }

    /// The blocks the next refill reads, as one read batch in the order
    /// [`RunReader::install`] expects them; empty once every block has
    /// been fetched.
    pub fn next_step(&self) -> Vec<(Region, usize)> {
        let (first, take) = self.next_blocks();
        (first..first + take).map(|i| (self.region, i)).collect()
    }

    /// Install a refill read elsewhere: `data` holds the blocks
    /// [`RunReader::next_step`] names, in that order. Call it only once
    /// the buffered keys are used up, as [`RunReader::peek`] would refill.
    pub fn install(&mut self, data: &[K]) {
        debug_assert!(self.pos >= self.buf.len(), "install over unconsumed keys");
        let (_, take) = self.next_blocks();
        assert_eq!(
            data.len(),
            take * self.region.block_size(),
            "not the batch next_step names"
        );
        self.buf.clear();
        self.pos = 0;
        self.buf.extend_from_slice(data);
        self.settle(take);
    }

    fn refill<S: Storage<K>>(&mut self, pdm: &mut Pdm<K, S>) -> Result<()> {
        debug_assert!(self.pos >= self.buf.len());
        let (first, take) = self.next_blocks();
        self.buf.clear();
        self.pos = 0;
        if take == 0 {
            return Ok(());
        }
        let blocks = (first..first + take).map(|i| (self.region, i));
        pdm.read_blocks(blocks, self.buf.as_vec_mut())?;
        self.settle(take);
        Ok(())
    }

    /// Orient a freshly fetched batch of `take` blocks and move past it.
    fn settle(&mut self, take: usize) {
        if self.backward {
            self.buf.reverse();
            if self.next_block == 0 {
                // The tail block's padding surfaces first once reversed.
                self.pos = self.region.len_blocks() * self.region.block_size() - self.remaining;
            }
        }
        self.next_block += take;
    }

    /// The next key without consuming it.
    pub fn peek<S: Storage<K>>(&mut self, pdm: &mut Pdm<K, S>) -> Result<Option<K>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        if self.pos >= self.buf.len() {
            self.refill(pdm)?;
            if self.buf.is_empty() {
                self.remaining = 0;
                return Ok(None);
            }
        }
        Ok(Some(self.buf[self.pos]))
    }

    /// Consume and return the next key.
    pub fn next_key<S: Storage<K>>(&mut self, pdm: &mut Pdm<K, S>) -> Result<Option<K>> {
        let k = self.peek(pdm)?;
        if k.is_some() {
            self.pos += 1;
            self.remaining -= 1;
        }
        Ok(k)
    }

    /// Consume up to `n` keys, appending them to `out`.
    pub fn take_into<S: Storage<K>>(
        &mut self,
        pdm: &mut Pdm<K, S>,
        n: usize,
        out: &mut Vec<K>,
    ) -> Result<usize> {
        let mut taken = 0;
        while taken < n {
            if self.remaining == 0 {
                break;
            }
            if self.pos >= self.buf.len() {
                self.refill(pdm)?;
                if self.buf.is_empty() {
                    self.remaining = 0;
                    break;
                }
            }
            let avail = (self.buf.len() - self.pos)
                .min(n - taken)
                .min(self.remaining);
            out.extend_from_slice(&self.buf[self.pos..self.pos + avail]);
            self.pos += avail;
            self.remaining -= avail;
            taken += avail;
        }
        Ok(taken)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PdmConfig;

    fn machine() -> Pdm<u64> {
        Pdm::new(PdmConfig::new(4, 8, 256)).unwrap()
    }

    #[test]
    fn writer_reader_round_trip() {
        let mut pdm = machine();
        let r = pdm.alloc_region_for_keys(100).unwrap();
        let mut w = RunWriter::striped(&pdm, r).unwrap();
        for i in 0..100u64 {
            w.push(&mut pdm, i).unwrap();
        }
        assert_eq!(w.finish(&mut pdm).unwrap(), 100);

        let mut rd = RunReader::new(&pdm, r, 100, 4).unwrap();
        let mut got = Vec::new();
        while let Some(k) = rd.next_key(&mut pdm).unwrap() {
            got.push(k);
        }
        assert_eq!(got, (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn push_slice_matches_push() {
        let mut pdm = machine();
        let data: Vec<u64> = (0..75).rev().collect();
        let r1 = pdm.alloc_region_for_keys(75).unwrap();
        let r2 = pdm.alloc_region_for_keys(75).unwrap();
        let mut w1 = RunWriter::striped(&pdm, r1).unwrap();
        let mut w2 = RunWriter::striped(&pdm, r2).unwrap();
        for &k in &data {
            w1.push(&mut pdm, k).unwrap();
        }
        w2.push_slice(&mut pdm, &data).unwrap();
        w1.finish(&mut pdm).unwrap();
        w2.finish(&mut pdm).unwrap();
        assert_eq!(pdm.inspect(&r1).unwrap(), pdm.inspect(&r2).unwrap());
    }

    #[test]
    fn writer_pads_with_max() {
        let mut pdm = machine();
        let r = pdm.alloc_region_for_keys(10).unwrap();
        let mut w = RunWriter::striped(&pdm, r).unwrap();
        w.push_slice(&mut pdm, &[1u64; 10]).unwrap();
        w.finish(&mut pdm).unwrap();
        let all = pdm.inspect(&r).unwrap();
        assert!(all[10..].iter().all(|&k| k == u64::MAX));
    }

    #[test]
    fn reader_take_into_bulk() {
        let mut pdm = machine();
        let r = pdm.alloc_region_for_keys(64).unwrap();
        pdm.ingest(&r, &(0..64).collect::<Vec<u64>>()).unwrap();
        let mut rd = RunReader::new(&pdm, r, 64, 2).unwrap();
        let mut out = Vec::new();
        assert_eq!(rd.take_into(&mut pdm, 40, &mut out).unwrap(), 40);
        assert_eq!(rd.remaining(), 24);
        assert_eq!(rd.take_into(&mut pdm, 100, &mut out).unwrap(), 24);
        assert!(rd.is_exhausted());
        assert_eq!(out, (0..64).collect::<Vec<u64>>());
    }

    #[test]
    fn reader_respects_total_keys_not_region_padding() {
        let mut pdm = machine();
        let r = pdm.alloc_region_for_keys(10).unwrap(); // 2 blocks = 16 slots
        pdm.ingest(&r, &(0..10).collect::<Vec<u64>>()).unwrap();
        let mut rd = RunReader::new(&pdm, r, 10, 4).unwrap();
        let mut got = Vec::new();
        while let Some(k) = rd.next_key(&mut pdm).unwrap() {
            got.push(k);
        }
        assert_eq!(got.len(), 10);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut pdm = machine();
        let r = pdm.alloc_region_for_keys(8).unwrap();
        pdm.ingest(&r, &[3u64, 1, 4, 1, 5, 9, 2, 6]).unwrap();
        let mut rd = RunReader::striped(&pdm, r).unwrap();
        assert_eq!(rd.peek(&mut pdm).unwrap(), Some(3));
        assert_eq!(rd.peek(&mut pdm).unwrap(), Some(3));
        assert_eq!(rd.next_key(&mut pdm).unwrap(), Some(3));
        assert_eq!(rd.peek(&mut pdm).unwrap(), Some(1));
    }

    #[test]
    fn backward_reader_streams_a_descending_run_ascending() {
        let mut pdm = machine();
        // 21 keys in 3 blocks of 8: the tail block carries 3 pads
        let r = pdm.alloc_region_for_keys(21).unwrap();
        let keys: Vec<u64> = (0..21).rev().collect();
        pdm.ingest(&r, &keys).unwrap();
        let mut rd = RunReader::backward(&pdm, r, 21, 2).unwrap();
        let mut got = Vec::new();
        while let Some(k) = rd.next_key(&mut pdm).unwrap() {
            got.push(k);
        }
        assert_eq!(got, (0..21).collect::<Vec<u64>>());
        // two refills: blocks [1, 2] then block [0]
        assert_eq!(pdm.stats().read_steps, 2);
        assert!(
            RunReader::backward(&pdm, r, 25, 2).is_err(),
            "past the region"
        );
    }

    #[test]
    fn installed_refills_match_fetched_ones_both_ways() {
        let mut pdm = machine();
        // 21 keys in 3 blocks of 8, read 2 blocks at a time
        let r = pdm.alloc_region_for_keys(21).unwrap();
        pdm.ingest(&r, &(0..21).rev().collect::<Vec<u64>>())
            .unwrap();
        for backward in [false, true] {
            let open = |pdm: &Pdm<u64>| {
                if backward {
                    RunReader::backward(pdm, r, 21, 2).unwrap()
                } else {
                    RunReader::new(pdm, r, 21, 2).unwrap()
                }
            };
            let mut fetched = open(&pdm);
            let mut want = Vec::new();
            while let Some(k) = fetched.next_key(&mut pdm).unwrap() {
                want.push(k);
            }
            let mut installed = open(&pdm);
            let mut got = Vec::new();
            loop {
                let step = installed.next_step();
                if step.is_empty() {
                    break;
                }
                let mut data = Vec::new();
                pdm.read_blocks(step, &mut data).unwrap();
                installed.install(&data);
                got.extend_from_slice(installed.buffered());
                installed.consume(installed.buffered().len());
            }
            assert_eq!(got, want, "backward = {backward}");
            assert!(installed.is_exhausted());
        }
    }

    #[test]
    fn batch_access_and_block_padding() {
        let mut pdm = machine();
        let r = pdm.alloc_region_for_keys(16).unwrap();
        let mut w = RunWriter::striped(&pdm, r).unwrap();
        w.push_slice(&mut pdm, &[1, 2, 3, 4, 5]).unwrap();
        w.pad_block(&mut pdm).unwrap();
        assert_eq!(w.position(), 8, "the next run starts on a block boundary");
        w.push_slice(&mut pdm, &[6, 7, 8]).unwrap();
        assert_eq!((w.position(), w.written()), (11, 8));
        w.finish(&mut pdm).unwrap();
        let all = pdm.inspect(&r).unwrap();
        assert_eq!(&all[..8], &[1, 2, 3, 4, 5, u64::MAX, u64::MAX, u64::MAX]);
        assert_eq!(&all[8..11], &[6, 7, 8]);

        let mut rd = RunReader::new(&pdm, r, 5, 1).unwrap();
        assert!(rd.buffered().is_empty(), "nothing fetched before peek");
        rd.peek(&mut pdm).unwrap();
        assert_eq!(rd.buffered(), &[1, 2, 3, 4, 5], "pads past total_keys");
        rd.consume(2);
        assert_eq!((rd.buffered(), rd.remaining()), (&[3u64, 4, 5][..], 3));
        rd.consume(3);
        assert!(rd.is_exhausted() && rd.peek(&mut pdm).unwrap().is_none());
    }

    #[test]
    fn streams_account_memory() {
        let pdm = machine();
        // B = 8, batch 4 blocks → 32 keys per stream buffer
        let before = pdm.mem().current();
        {
            let r = Region::new(0, 0, 4, 4, 8);
            let _rd = RunReader::new(&pdm, r, 32, 4).unwrap();
            assert_eq!(pdm.mem().current(), before + 32);
        }
        assert_eq!(pdm.mem().current(), before);
    }

    #[test]
    fn sequential_stream_achieves_full_parallelism() {
        let mut pdm = machine();
        let n = 256;
        let r = pdm.alloc_region_for_keys(n).unwrap();
        pdm.ingest(&r, &(0..n as u64).collect::<Vec<u64>>())
            .unwrap();
        let mut rd = RunReader::striped(&pdm, r).unwrap();
        let mut out = Vec::new();
        rd.take_into(&mut pdm, n, &mut out).unwrap();
        assert!((pdm.stats().read_parallel_efficiency(4) - 1.0).abs() < 1e-9);
    }
}
