//! `RadixSort` (paper §7, Theorem 7.2): forward (MSD) radix sort of
//! arbitrarily many integer keys in `(1+ν)·log(N/M)/log(M/B) + 1` passes.
//!
//! Each round buckets the keys of every segment larger than `M` by their
//! next `log₂(M/B)` most-significant bits, using the `IntegerSort`
//! distribution machinery (Theorem 7.1 gives each round `(1+µ)` passes).
//! Keys sharing all processed bits form a *bucket/segment*; once a segment
//! fits in memory it is sorted in one read and streamed to the output (the
//! paper's final "step A"). Segments are refined depth-first in key order,
//! so the output stream is written exactly once, in order.

use crate::common::{Algorithm, SortReport};
use crate::integer_sort::{distribute, BucketRun, FlushMode, Source};
use pdm_model::key::RankedKey;
use pdm_model::prelude::*;

/// Extended report for radix sort: the pass accounting plus the recursion
/// shape Theorem 7.2 predicts.
#[derive(Debug, Clone)]
pub struct RadixReport {
    /// The standard sort report.
    pub report: SortReport,
    /// Deepest distribution round applied to any key (the theorem predicts
    /// `≈ (1+δ)·log(N/M)/log(M/B)` rounds).
    pub max_rounds: usize,
    /// Segments small enough to finish in memory (step A units).
    pub segments_sorted: usize,
}

/// The digit width used on a machine: `⌊log₂(M/B)⌋` bits.
pub fn digit_bits(cfg: &PdmConfig) -> u32 {
    let r = (cfg.mem_capacity / cfg.block_size).max(2);
    (usize::BITS - 1) - r.leading_zeros()
}

/// Theorem 7.2's predicted distribution rounds for `n` keys of `key_bits`
/// significant bits.
pub fn predicted_rounds(cfg: &PdmConfig, n: usize, key_bits: u32) -> f64 {
    let m = cfg.mem_capacity as f64;
    let digits = digit_bits(cfg) as f64;
    // log(N/M)/log(M/B), but never more rounds than the key has digits
    let size_rounds = ((n as f64 / m).log2() / digits).max(0.0);
    let bit_rounds = key_bits as f64 / digits;
    size_rounds.min(bit_rounds)
}

enum Seg {
    /// First `n` keys of a region.
    Reg(Region, usize),
    /// A bucket run from a previous round.
    Run(BucketRun),
}

impl Seg {
    fn len(&self) -> usize {
        match self {
            Seg::Reg(_, n) => *n,
            Seg::Run(r) => r.total,
        }
    }
}

struct Ctx<'w, K: PdmKey> {
    writer: &'w mut RunWriter<K>,
    mode: FlushMode,
    key_bits: u32,
    digit_bits: u32,
    max_rounds: usize,
    segments_sorted: usize,
}

fn refine<K: PdmKey + RankedKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    seg: Seg,
    bits_done: u32,
    depth: usize,
    ctx: &mut Ctx<'_, K>,
) -> Result<()> {
    let m = pdm.cfg().mem_capacity;
    let n = seg.len();
    if n == 0 {
        return Ok(());
    }
    let src = match &seg {
        Seg::Reg(r, n) => Source::Region(r, *n),
        Seg::Run(run) => Source::Run(run),
    };
    if n <= m {
        // Step A: in-memory sort of a finished segment, streamed out.
        let mut buf = pdm.alloc_buf(m)?;
        let chunk = (m / 2).max(pdm.cfg().block_size);
        // collect (for_each_chunk's scratch lives alongside `buf`; chunk
        // M/2 keeps the sum within the tracked workspace)
        {
            let collected = buf.as_vec_mut();
            src.for_each_chunk(pdm, chunk, |_pdm, keys| {
                collected.extend_from_slice(keys);
                Ok(())
            })?;
        }
        debug_assert_eq!(buf.len(), n);
        buf.sort_unstable();
        ctx.writer.push_slice(pdm, &buf)?;
        ctx.segments_sorted += 1;
        return Ok(());
    }
    if bits_done >= ctx.key_bits {
        // all significant bits consumed: every key in the segment is equal
        let chunk = (m / 2).max(pdm.cfg().block_size);
        let writer = &mut *ctx.writer;
        src.for_each_chunk(pdm, chunk, |pdm, keys| writer.push_slice(pdm, keys))?;
        return Ok(());
    }

    let remaining = ctx.key_bits - bits_done;
    let dbits = ctx.digit_bits.min(remaining);
    let shift = remaining - dbits;
    let buckets = distribute(pdm, &src, 1usize << dbits, ctx.mode, |k| {
        k.digit(shift, dbits) as usize
    })?;
    drop(seg);
    ctx.max_rounds = ctx.max_rounds.max(depth + 1);
    for run in buckets.runs {
        refine(pdm, Seg::Run(run), bits_done + dbits, depth + 1, ctx)?;
    }
    Ok(())
}

/// Sort `n` integer keys whose significant bits number at most `key_bits`
/// (e.g. 32 for u32-range data), per Theorem 7.2. Works for any `n` the
/// disks can hold.
///
/// # Example
///
/// ```
/// use pdm_model::prelude::*;
/// let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(4, 16)).unwrap();
/// let data: Vec<u64> = (0..5000u64).map(|i| (i * 2654435761) % 65536).collect();
/// let input = pdm.alloc_region_for_keys(data.len()).unwrap();
/// pdm.ingest(&input, &data).unwrap();
/// let rep = pdm_sort::radix_sort(&mut pdm, &input, data.len(), 16).unwrap();
/// let out = pdm.inspect_prefix(&rep.report.output, data.len()).unwrap();
/// assert!(out.windows(2).all(|w| w[0] <= w[1]));
/// ```
pub fn radix_sort<K: PdmKey + RankedKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    input: &Region,
    n: usize,
    key_bits: u32,
) -> Result<RadixReport> {
    radix_sort_with(pdm, input, n, key_bits, FlushMode::PerPhase)
}

/// [`radix_sort`] with an explicit distribution [`FlushMode`].
pub fn radix_sort_with<K: PdmKey + RankedKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    input: &Region,
    n: usize,
    key_bits: u32,
    mode: FlushMode,
) -> Result<RadixReport> {
    if n == 0 {
        return Err(PdmError::UnsupportedInput("empty input".into()));
    }
    if key_bits == 0 || key_bits > K::domain_bits() {
        return Err(PdmError::UnsupportedInput(format!(
            "key_bits {key_bits} outside 1..={}",
            K::domain_bits()
        )));
    }
    let out = pdm.alloc_region_for_keys(n)?;
    let mut writer = RunWriter::striped(pdm, out)?;
    let mut ctx = Ctx {
        writer: &mut writer,
        mode,
        key_bits,
        digit_bits: digit_bits(pdm.cfg()),
        max_rounds: 0,
        segments_sorted: 0,
    };
    pdm.begin_phase("RS: refine");
    refine(pdm, Seg::Reg(*input, n), 0, 0, &mut ctx)?;
    let (max_rounds, segments_sorted) = (ctx.max_rounds, ctx.segments_sorted);
    // the writer's final flush is still refine-phase I/O
    let written = writer.finish(pdm)?;
    pdm.end_phase();
    debug_assert_eq!(written, n);
    Ok(RadixReport {
        report: SortReport::from_stats(pdm, out, n, Algorithm::RadixSort, false),
        max_rounds,
        segments_sorted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_model::rng::SplitMix64;

    fn machine(d: usize, b: usize) -> Pdm<u64> {
        Pdm::new(PdmConfig::square(d, b)).unwrap()
    }

    fn run_sort(pdm: &mut Pdm<u64>, data: &[u64], bits: u32) -> RadixReport {
        let input = pdm.alloc_region_for_keys(data.len()).unwrap();
        pdm.ingest(&input, data).unwrap();
        pdm.reset_stats();
        radix_sort(pdm, &input, data.len(), bits).unwrap()
    }

    fn check_sorted(pdm: &mut Pdm<u64>, rep: &RadixReport, data: &[u64]) {
        let mut want = data.to_vec();
        want.sort_unstable();
        let got = pdm.inspect_prefix(&rep.report.output, data.len()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn digit_bits_is_log_m_over_b() {
        assert_eq!(digit_bits(&PdmConfig::square(4, 16)), 4); // M/B = 16
        assert_eq!(digit_bits(&PdmConfig::square(2, 8)), 3); // M/B = 8
        assert_eq!(digit_bits(&PdmConfig::new(2, 8, 128)), 4); // M/B = 16
    }

    #[test]
    fn sorts_small_input_without_distribution() {
        let mut pdm = machine(2, 8); // M = 64
        let mut rng = SplitMix64::seed_from_u64(91);
        let data: Vec<u64> = (0..60).map(|_| rng.gen_range(0..1u64 << 32)).collect();
        let rep = run_sort(&mut pdm, &data, 32);
        check_sorted(&mut pdm, &rep, &data);
        assert_eq!(rep.max_rounds, 0);
        assert_eq!(rep.segments_sorted, 1);
    }

    #[test]
    fn sorts_random_32_bit_keys() {
        let mut pdm = machine(4, 16); // M = 256, R = 16
        let mut rng = SplitMix64::seed_from_u64(92);
        let n = 8192; // N/M = 32 → expect ~2 rounds at 4 bits/digit? log2(32)/4 = 1.25
        let data: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1u64 << 32)).collect();
        let rep = run_sort(&mut pdm, &data, 32);
        check_sorted(&mut pdm, &rep, &data);
        assert!(rep.max_rounds >= 1);
    }

    #[test]
    fn rounds_track_the_theorem() {
        // random keys: rounds ≈ ⌈log2(N/M)/digit_bits⌉ (+1 slack)
        let mut pdm = machine(2, 16); // M = 256, digit = 4 bits
        let mut rng = SplitMix64::seed_from_u64(93);
        let n = 65536; // log2(N/M) = 8 → 2 rounds
        let data: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1u64 << 32)).collect();
        let rep = run_sort(&mut pdm, &data, 32);
        check_sorted(&mut pdm, &rep, &data);
        assert!(
            rep.max_rounds <= 3,
            "max rounds {} too deep for N/M = 256",
            rep.max_rounds
        );
        // paper example (Obs 7.2 shape): passes stay small — each round
        // costs ≈ 2(1+µ) read passes here (distribute + re-read)
        assert!(
            rep.report.read_passes < 6.5,
            "read passes {}",
            rep.report.read_passes
        );
        // the Packed ablation cuts the padding waste µ
        let mut pdm2 = machine(2, 16);
        let input2 = pdm2.alloc_region_for_keys(n).unwrap();
        pdm2.ingest(&input2, &data).unwrap();
        pdm2.reset_stats();
        let rep2 = radix_sort_with(&mut pdm2, &input2, n, 32, FlushMode::Packed).unwrap();
        check_sorted(&mut pdm2, &rep2, &data);
        assert!(
            rep2.report.read_passes < rep.report.read_passes,
            "packed {} vs per-phase {}",
            rep2.report.read_passes,
            rep.report.read_passes
        );
    }

    #[test]
    fn skewed_keys_recurse_deeper_but_sort() {
        let mut pdm = machine(2, 8); // M = 64, digit = 3 bits
        let mut rng = SplitMix64::seed_from_u64(94);
        // keys concentrated in a narrow high range: first digits identical
        let data: Vec<u64> = (0..2048)
            .map(|_| (0xFFFF_0000u64) | rng.gen_range(0..256))
            .collect();
        let rep = run_sort(&mut pdm, &data, 32);
        check_sorted(&mut pdm, &rep, &data);
        assert!(rep.max_rounds >= 2);
    }

    #[test]
    fn all_equal_keys_terminate() {
        // > M equal keys exhaust every digit: the equal-segment stream path
        let mut pdm = machine(2, 8);
        let data = vec![42u64; 1024];
        let rep = run_sort(&mut pdm, &data, 8);
        check_sorted(&mut pdm, &rep, &data);
    }

    #[test]
    fn narrow_key_domains() {
        let mut pdm = machine(2, 8);
        let mut rng = SplitMix64::seed_from_u64(95);
        let data: Vec<u64> = (0..1500).map(|_| rng.gen_range(0..2)).collect();
        let rep = run_sort(&mut pdm, &data, 1);
        check_sorted(&mut pdm, &rep, &data);
    }

    #[test]
    fn rejects_bad_parameters() {
        let mut pdm = machine(2, 8);
        let input = pdm.alloc_region_for_keys(64).unwrap();
        assert!(radix_sort(&mut pdm, &input, 0, 32).is_err());
        assert!(radix_sort(&mut pdm, &input, 64, 0).is_err());
        assert!(radix_sort(&mut pdm, &input, 64, 65).is_err());
    }

    #[test]
    fn works_on_u32_and_tagged_keys() {
        let mut rng = SplitMix64::seed_from_u64(96);
        let mut pdm: Pdm<u32> = Pdm::new(PdmConfig::square(2, 8)).unwrap();
        let data: Vec<u32> = (0..1024).map(|_| rng.gen()).collect();
        let input = pdm.alloc_region_for_keys(data.len()).unwrap();
        pdm.ingest(&input, &data).unwrap();
        let rep = radix_sort(&mut pdm, &input, data.len(), 32).unwrap();
        let mut want = data.clone();
        want.sort_unstable();
        assert_eq!(
            pdm.inspect_prefix(&rep.report.output, data.len()).unwrap(),
            want
        );

        let mut pdm: Pdm<Tagged> = Pdm::new(PdmConfig::square(2, 8)).unwrap();
        let data: Vec<Tagged> = (0..1024)
            .map(|i| Tagged::new(rng.gen_range(0..1u64 << 16), i))
            .collect();
        let input = pdm.alloc_region_for_keys(data.len()).unwrap();
        pdm.ingest(&input, &data).unwrap();
        let rep = radix_sort(&mut pdm, &input, data.len(), 16).unwrap();
        let got = pdm.inspect_prefix(&rep.report.output, data.len()).unwrap();
        // sorted by key; payloads arbitrary within equal keys
        assert!(got.windows(2).all(|w| w[0].key <= w[1].key));
    }

    #[test]
    fn signed_keys_sort_correctly() {
        // i64 ranks are sign-bias-flipped: negatives must come out first
        let mut rng = SplitMix64::seed_from_u64(98);
        let mut pdm: Pdm<i64> = Pdm::new(PdmConfig::square(2, 8)).unwrap();
        let data: Vec<i64> = (0..2000).map(|_| rng.gen_range(-1000..1000)).collect();
        let input = pdm.alloc_region_for_keys(data.len()).unwrap();
        pdm.ingest(&input, &data).unwrap();
        let rep = radix_sort(&mut pdm, &input, data.len(), 64).unwrap();
        let got = pdm.inspect_prefix(&rep.report.output, data.len()).unwrap();
        let mut want = data.clone();
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(got.first().unwrap() < &0 && got.last().unwrap() > &0);
    }

    #[test]
    fn memory_stays_bounded_for_large_n() {
        let mut pdm = machine(2, 8); // M = 64
        let mut rng = SplitMix64::seed_from_u64(97);
        let n = 16384; // N/M = 256
        let data: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1u64 << 24)).collect();
        let rep = run_sort(&mut pdm, &data, 24);
        check_sorted(&mut pdm, &rep, &data);
        assert!(
            rep.report.peak_mem <= pdm.cfg().mem_limit(),
            "peak {} vs limit {}",
            rep.report.peak_mem,
            pdm.cfg().mem_limit()
        );
    }
}
