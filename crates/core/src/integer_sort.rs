//! `IntegerSort` (paper §7, Theorem 7.1): distribution sort for integer
//! keys in `[0, R)` with `R ≤ M/B`, achieving full disk parallelism in
//! `(1+µ)` passes (distribution only) or `2(1+µ)` passes with the final
//! compaction (step A).
//!
//! Each phase reads `M` keys, groups them by value into `R` buckets in
//! memory, and writes every bucket's blocks — the last one per phase
//! possibly non-full, exactly as the paper specifies — striped across the
//! disks. The write-step count per phase is `maxᵢ ⌈Nᵢ/B⌉`, which Chernoff
//! keeps at `(1+ε)·M/(D·B)` for random keys; `µ` is the measured loss from
//! those non-full blocks.
//!
//! [`FlushMode::Packed`] is the ablation: carry partial blocks in memory
//! across phases so every written block (except per-bucket finals) is
//! full — `µ → 0` at the cost of `R·B ≤ M` extra resident keys.

use crate::common::{Algorithm, SortReport};
use pdm_model::key::RankedKey;
use pdm_model::prelude::*;

/// When partially-filled bucket blocks go to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushMode {
    /// Flush every bucket's tail at the end of each `M`-key phase (the
    /// paper's algorithm; wastes up to `R` part-blocks per phase).
    PerPhase,
    /// Keep tails resident (`≤ R·B ≤ M` keys) and flush once at the end.
    Packed,
}

/// The maximum bucket count the paper's scheme supports: `R = M/B`.
pub fn max_buckets(cfg: &PdmConfig) -> usize {
    cfg.mem_capacity / cfg.block_size
}

/// An append-only on-disk sequence of blocks with per-block occupancy,
/// growing by fixed-size extents. The unit of bucket storage.
pub struct BucketRun {
    regions: Vec<Region>,
    extent_blocks: usize,
    /// Keys in each written block (`≤ B`; non-full blocks are `MAX`-padded).
    pub block_keys: Vec<usize>,
    /// Total keys in the run.
    pub total: usize,
    stagger: usize,
}

impl BucketRun {
    fn new(stagger: usize, extent_blocks: usize) -> Self {
        Self {
            regions: Vec::new(),
            extent_blocks: extent_blocks.max(1),
            block_keys: Vec::new(),
            total: 0,
            stagger,
        }
    }

    /// Number of blocks written so far.
    pub fn blocks(&self) -> usize {
        self.block_keys.len()
    }

    fn ensure_next<K: PdmKey, S: Storage<K>>(
        &mut self,
        pdm: &mut Pdm<K, S>,
    ) -> Result<(Region, usize)> {
        let g = self.block_keys.len();
        let (ext, off) = (g / self.extent_blocks, g % self.extent_blocks);
        while self.regions.len() <= ext {
            let d = pdm.cfg().num_disks;
            // keep the run's striping phase continuous across extents
            let start = (self.stagger + self.regions.len() * self.extent_blocks) % d;
            let r = pdm.alloc_region_at(self.extent_blocks, start)?;
            self.regions.push(r);
        }
        Ok((self.regions[ext], off))
    }

    /// Address of written block `g`.
    pub fn block_addr(&self, g: usize) -> (Region, usize) {
        (self.regions[g / self.extent_blocks], g % self.extent_blocks)
    }
}

/// Result of a distribution pass: `R` bucket runs plus occupancy stats.
pub struct Buckets {
    /// The per-bucket on-disk runs.
    pub runs: Vec<BucketRun>,
    /// Keys distributed.
    pub total: usize,
}

impl Buckets {
    /// Largest bucket, in keys.
    pub fn max_bucket(&self) -> usize {
        self.runs.iter().map(|r| r.total).max().unwrap_or(0)
    }

    /// Fraction of written block capacity actually holding keys (1.0 = no
    /// padding waste; the paper's `µ` is roughly `1/fill − 1`).
    pub fn fill_factor(&self, block_size: usize) -> f64 {
        let blocks: usize = self.runs.iter().map(BucketRun::blocks).sum();
        if blocks == 0 {
            return 1.0;
        }
        self.total as f64 / (blocks * block_size) as f64
    }
}

/// A readable source of keys for distribution: either a contiguous region
/// prefix or an existing bucket run (for radix-sort recursion).
pub enum Source<'a> {
    /// First `n` keys of a region.
    Region(&'a Region, usize),
    /// An existing bucket run (reads honor per-block occupancy).
    Run(&'a BucketRun),
}

impl<'a> Source<'a> {
    /// Keys in the source.
    pub fn len(&self) -> usize {
        match self {
            Source::Region(_, n) => *n,
            Source::Run(r) => r.total,
        }
    }

    /// Whether the source is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stream the source through `f` in chunks of at most `chunk_keys`
    /// (each chunk read with one batched, accounted I/O).
    pub fn for_each_chunk<K: PdmKey, S: Storage<K>>(
        &self,
        pdm: &mut Pdm<K, S>,
        chunk_keys: usize,
        mut f: impl FnMut(&mut Pdm<K, S>, &[K]) -> Result<()>,
    ) -> Result<()> {
        let b = pdm.cfg().block_size;
        let chunk_blocks = (chunk_keys / b).max(1);
        match self {
            Source::Region(region, n) => {
                let mut buf = pdm.alloc_buf(chunk_blocks * b)?;
                let total_blocks = n.div_ceil(b).min(region.len_blocks());
                let mut done_keys = 0usize;
                let mut blk = 0usize;
                while blk < total_blocks {
                    let take = chunk_blocks.min(total_blocks - blk);
                    buf.clear();
                    let blocks = (blk..blk + take).map(|i| (**region, i));
                    pdm.read_blocks(blocks, buf.as_vec_mut())?;
                    let valid = (take * b).min(n - done_keys);
                    f(pdm, &buf[..valid])?;
                    done_keys += valid;
                    blk += take;
                }
                Ok(())
            }
            Source::Run(run) => {
                let mut buf = pdm.alloc_buf(chunk_blocks * b)?;
                let nblocks = run.blocks();
                let mut g = 0usize;
                while g < nblocks {
                    let take = chunk_blocks.min(nblocks - g);
                    buf.clear();
                    let blocks = (g..g + take).map(|i| run.block_addr(i));
                    pdm.read_blocks(blocks, buf.as_vec_mut())?;
                    // squeeze out the MAX padding of non-full blocks in
                    // place (forward copy is safe: write ≤ read position)
                    let mut w = 0usize;
                    for (i, gi) in (g..g + take).enumerate() {
                        let k = run.block_keys[gi];
                        buf.copy_within(i * b..i * b + k, w);
                        w += k;
                    }
                    buf.truncate(w);
                    f(pdm, &buf)?;
                    g += take;
                }
                Ok(())
            }
        }
    }
}

/// One distribution pass: stream `src` and scatter keys into `buckets`
/// runs keyed by `bucket_of` (which must return `< buckets`).
pub fn distribute<K: PdmKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    src: &Source<'_>,
    buckets: usize,
    mode: FlushMode,
    bucket_of: impl Fn(&K) -> usize,
) -> Result<Buckets> {
    let cfg = *pdm.cfg();
    let (b, d, m) = (cfg.block_size, cfg.num_disks, cfg.mem_capacity);
    if buckets == 0 || buckets > max_buckets(&cfg) {
        return Err(PdmError::UnsupportedInput(format!(
            "bucket count {buckets} outside 1..=M/B = {}",
            max_buckets(&cfg)
        )));
    }
    let n = src.len();
    // extent: a few phases' expected growth per bucket
    let extent_blocks = (n / (buckets * b)).clamp(1, 4 * d.max(1) * ((n / b).max(1)));
    let mut runs: Vec<BucketRun> = (0..buckets)
        .map(|i| BucketRun::new(i % d, extent_blocks))
        .collect();

    // tails: per-bucket partial blocks held in memory (≤ R·B ≤ M keys)
    let _tail_guard = pdm.mem().acquire(buckets * b)?;
    let mut tails: Vec<Vec<K>> = vec![Vec::with_capacity(b); buckets];
    let mut total = 0usize;

    /// Append one (possibly padded) block to a run's tail end.
    fn put_block<K: PdmKey, S: Storage<K>>(
        pdm: &mut Pdm<K, S>,
        run: &mut BucketRun,
        data: &[K],
        count: usize,
    ) -> Result<()> {
        let (region, off) = run.ensure_next(pdm)?;
        pdm.write_blocks([(region, off)], data)?;
        run.block_keys.push(count);
        run.total += count;
        Ok(())
    }

    // Each M-key phase is one I/O scheduling window: the paper writes
    // each phase's blocks "using as few parallel write steps as possible",
    // i.e. max_i ⌈N_i/B⌉ steps. (Read buffer M + resident tails ≤ M stay
    // within the tracked 2M workspace.)
    src.for_each_chunk(pdm, m, |pdm, keys| {
        pdm.begin_io_group();
        for &k in keys {
            let v = bucket_of(&k);
            if v >= buckets {
                pdm.end_io_group();
                return Err(PdmError::UnsupportedInput(format!(
                    "key maps to bucket {v} ≥ {buckets}"
                )));
            }
            tails[v].push(k);
            if tails[v].len() == b {
                let tail = std::mem::take(&mut tails[v]);
                put_block(pdm, &mut runs[v], &tail, b)?;
                tails[v] = tail;
                tails[v].clear();
            }
        }
        total += keys.len();
        if mode == FlushMode::PerPhase {
            // the paper's per-phase flush: pad every non-empty tail
            for (v, tail) in tails.iter_mut().enumerate() {
                if tail.is_empty() {
                    continue;
                }
                let cnt = tail.len();
                tail.resize(b, K::MAX);
                let t = std::mem::take(tail);
                put_block(pdm, &mut runs[v], &t, cnt)?;
                *tail = t;
                tail.clear();
            }
        }
        pdm.end_io_group();
        Ok(())
    })?;

    // final tail flush (Packed mode; PerPhase already flushed)
    pdm.begin_io_group();
    for (v, tail) in tails.iter_mut().enumerate() {
        if tail.is_empty() {
            continue;
        }
        let cnt = tail.len();
        tail.resize(b, K::MAX);
        let t = std::mem::take(tail);
        put_block(pdm, &mut runs[v], &t, cnt)?;
        *tail = t;
        tail.clear();
    }
    pdm.end_io_group();

    Ok(Buckets { runs, total })
}

/// Step A: read the buckets in order and write the keys contiguously.
pub fn gather<K: PdmKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    buckets: &Buckets,
    writer: &mut RunWriter<K>,
) -> Result<()> {
    let d = pdm.cfg().num_disks;
    let b = pdm.cfg().block_size;
    let mut buf = pdm.alloc_buf(d * b)?;
    for run in &buckets.runs {
        let mut g = 0usize;
        while g < run.blocks() {
            let take = d.min(run.blocks() - g);
            buf.clear();
            pdm.read_blocks((g..g + take).map(|i| run.block_addr(i)), buf.as_vec_mut())?;
            for (i, gi) in (g..g + take).enumerate() {
                writer.push_slice(pdm, &buf[i * b..i * b + run.block_keys[gi]])?;
            }
            g += take;
        }
    }
    Ok(())
}

/// Sort `n` integer keys with ranks in `[0, range)`, `range ≤ M/B`, per
/// Theorem 7.1 (distribution + step A). Keys sharing a rank come out
/// adjacent but in arbitrary relative order — for rank = full key (the
/// paper's setting) that *is* sorted order.
pub fn integer_sort<K: PdmKey + RankedKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    input: &Region,
    n: usize,
    range: u64,
) -> Result<SortReport> {
    integer_sort_with(pdm, input, n, range, FlushMode::PerPhase)
}

/// [`integer_sort`] with an explicit [`FlushMode`] (the E10 ablation).
pub fn integer_sort_with<K: PdmKey + RankedKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    input: &Region,
    n: usize,
    range: u64,
    mode: FlushMode,
) -> Result<SortReport> {
    if n == 0 {
        return Err(PdmError::UnsupportedInput("empty input".into()));
    }
    pdm.begin_phase("IS: distribute");
    let src = Source::Region(input, n);
    let buckets = distribute(pdm, &src, range as usize, mode, |k| k.rank() as usize)?;
    pdm.begin_phase("IS: gather (step A)");
    let out = pdm.alloc_region_for_keys(n)?;
    let mut writer = RunWriter::striped(pdm, out)?;
    gather(pdm, &buckets, &mut writer)?;
    let written = writer.finish(pdm)?;
    pdm.end_phase();
    debug_assert_eq!(written, n);
    Ok(SortReport::from_stats(
        pdm,
        out,
        n,
        Algorithm::IntegerSort,
        false,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_model::rng::SplitMix64;

    fn machine(d: usize, b: usize) -> Pdm<u64> {
        Pdm::new(PdmConfig::square(d, b)).unwrap()
    }

    fn run_sort(pdm: &mut Pdm<u64>, data: &[u64], range: u64, mode: FlushMode) -> SortReport {
        let input = pdm.alloc_region_for_keys(data.len()).unwrap();
        pdm.ingest(&input, data).unwrap();
        pdm.reset_stats();
        integer_sort_with(pdm, &input, data.len(), range, mode).unwrap()
    }

    fn check_sorted(pdm: &mut Pdm<u64>, rep: &SortReport, data: &[u64]) {
        let mut want = data.to_vec();
        want.sort_unstable();
        let got = pdm.inspect_prefix(&rep.output, data.len()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn max_buckets_is_m_over_b() {
        assert_eq!(max_buckets(&PdmConfig::square(4, 16)), 16);
        assert_eq!(max_buckets(&PdmConfig::new(2, 8, 128)), 16);
    }

    #[test]
    fn sorts_random_bounded_integers() {
        // M = 256, B = 16, R = 16 buckets
        let mut pdm = machine(4, 16);
        let mut rng = SplitMix64::seed_from_u64(81);
        let data: Vec<u64> = (0..4096).map(|_| rng.gen_range(0..16)).collect();
        let rep = run_sort(&mut pdm, &data, 16, FlushMode::PerPhase);
        check_sorted(&mut pdm, &rep, &data);
        assert_eq!(rep.algorithm, Algorithm::IntegerSort);
    }

    #[test]
    fn passes_match_theorem_7_1() {
        // Random keys: distribution ≈ 1 read pass + (1+µ) write passes;
        // gather ≈ (1+µ) read + 1 write. Total reads ≤ 2(1+µ), µ < 1.
        let mut pdm = machine(4, 16);
        let mut rng = SplitMix64::seed_from_u64(82);
        let n = 16384; // 64 phases of M = 256
        let data: Vec<u64> = (0..n).map(|_| rng.gen_range(0..16)).collect();
        let rep = run_sort(&mut pdm, &data, 16, FlushMode::PerPhase);
        check_sorted(&mut pdm, &rep, &data);
        assert!(
            rep.read_passes < 2.0 * (1.0 + 0.9),
            "read passes {}",
            rep.read_passes
        );
        assert!(rep.read_passes >= 2.0 - 1e-9);
        assert!(rep.write_passes < 2.0 * (1.0 + 0.9));
        // µ at this scale: each phase pads ≤ R part-blocks out of M/B = 16
        // full ones... fill factor quantifies the waste
        assert!(rep.peak_mem <= pdm.cfg().mem_limit());
    }

    #[test]
    fn packed_mode_eliminates_padding_waste() {
        let mut rng = SplitMix64::seed_from_u64(83);
        let n = 8192;
        let data: Vec<u64> = (0..n).map(|_| rng.gen_range(0..16)).collect();

        let mut pdm1 = machine(2, 16);
        let rep1 = run_sort(&mut pdm1, &data, 16, FlushMode::PerPhase);
        check_sorted(&mut pdm1, &rep1, &data);
        let mut pdm2 = machine(2, 16);
        let rep2 = run_sort(&mut pdm2, &data, 16, FlushMode::Packed);
        check_sorted(&mut pdm2, &rep2, &data);
        assert!(
            pdm2.stats().blocks_written < pdm1.stats().blocks_written,
            "packed {} vs per-phase {}",
            pdm2.stats().blocks_written,
            pdm1.stats().blocks_written
        );
    }

    #[test]
    fn skewed_distribution_still_sorts() {
        let mut pdm = machine(2, 16);
        let mut rng = SplitMix64::seed_from_u64(84);
        // 90% of keys in bucket 3
        let data: Vec<u64> = (0..4096)
            .map(|_| {
                if rng.gen_bool(0.9) {
                    3
                } else {
                    rng.gen_range(0..16)
                }
            })
            .collect();
        let rep = run_sort(&mut pdm, &data, 16, FlushMode::PerPhase);
        check_sorted(&mut pdm, &rep, &data);
    }

    #[test]
    fn constant_and_extreme_buckets() {
        let mut pdm = machine(2, 8);
        let data = vec![0u64; 1000];
        let rep = run_sort(&mut pdm, &data, 8, FlushMode::PerPhase);
        check_sorted(&mut pdm, &rep, &data);
        let data: Vec<u64> = (0..1000).map(|i| (i % 8) as u64).collect();
        let rep = run_sort(&mut pdm, &data, 8, FlushMode::Packed);
        check_sorted(&mut pdm, &rep, &data);
    }

    #[test]
    fn rejects_out_of_range_keys_and_bad_bucket_counts() {
        let mut pdm = machine(2, 8); // M/B = 8
        let input = pdm.alloc_region_for_keys(64).unwrap();
        pdm.ingest(&input, &vec![100u64; 64]).unwrap();
        // key 100 ≥ range 8
        assert!(integer_sort(&mut pdm, &input, 64, 8).is_err());
        // range > M/B
        assert!(integer_sort(&mut pdm, &input, 64, 9).is_err());
        assert!(integer_sort(&mut pdm, &input, 0, 8).is_err());
    }

    #[test]
    fn small_input_single_phase() {
        let mut pdm = machine(2, 8);
        let data: Vec<u64> = vec![5, 3, 7, 0, 3, 5, 1, 2, 6, 4];
        let rep = run_sort(&mut pdm, &data, 8, FlushMode::PerPhase);
        check_sorted(&mut pdm, &rep, &data);
    }

    #[test]
    fn bucket_run_extends_across_extents() {
        let mut pdm = machine(2, 8);
        let data: Vec<u64> = vec![1; 2048]; // one bucket swallows everything
        let rep = run_sort(&mut pdm, &data, 8, FlushMode::Packed);
        check_sorted(&mut pdm, &rep, &data);
    }

    #[test]
    fn fill_factor_reflects_padding() {
        let mut pdm = machine(2, 16);
        let mut rng = SplitMix64::seed_from_u64(85);
        let data: Vec<u64> = (0..4096).map(|_| rng.gen_range(0..16)).collect();
        let input = pdm.alloc_region_for_keys(data.len()).unwrap();
        pdm.ingest(&input, &data).unwrap();
        let src = Source::Region(&input, data.len());
        let per_phase =
            distribute(&mut pdm, &src, 16, FlushMode::PerPhase, |k| *k as usize).unwrap();
        let src = Source::Region(&input, data.len());
        let packed = distribute(&mut pdm, &src, 16, FlushMode::Packed, |k| *k as usize).unwrap();
        assert!(per_phase.fill_factor(16) < packed.fill_factor(16));
        assert!(packed.fill_factor(16) > 0.95);
        assert_eq!(per_phase.total, 4096);
        assert_eq!(
            per_phase.max_bucket(),
            per_phase.runs.iter().map(|r| r.total).max().unwrap()
        );
    }
}
