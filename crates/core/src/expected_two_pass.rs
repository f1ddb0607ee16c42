//! `ExpectedTwoPass` (paper §5, Theorem 5.1): sorts
//! `N ≤ M√M/√((α+2)·ln M + 2)` keys in two passes on a `≥ 1 − M^{−α}`
//! fraction of all inputs, falling back to the deterministic
//! [`crate::three_pass2`](mod@crate::three_pass2) (three additional
//! passes) when the online check detects a bad input.
//!
//! * **Pass 1 — runs.** Form `N₁ = N/M` sorted runs of `M` keys; write run
//!   `i`'s `t`-th chunk (of `M/N₁` keys) into window region `t` — the
//!   shuffle `Z` of the runs is materialized window-by-window at write
//!   time, so pass 2 reads each window with one stripe scan.
//! * **Pass 2 — shuffle + local sort.** Stream the windows through the
//!   [`Cleaner`] (sort carry+window, emit the smallest `M`). By the
//!   shuffling lemma (Lemma 4.2), with probability `≥ 1 − M^{−α}` every
//!   key of `Z` is within `M` of its sorted position, so the stream is
//!   sorted. The cleaner performs the paper's abort check online; on
//!   detection the algorithm stops and re-sorts the original input with
//!   `ThreePass2` — expected passes `2(1 − M^{−α}) + 5·M^{−α} ≈ 2`.

use crate::common::{
    alloc_staggered, capacity_expected_two_pass, require_square_cfg, Algorithm, Cleaner, Emit,
    RegionEmitter, SortReport,
};
use crate::three_pass2;
use pdm_model::prelude::*;

/// The Theorem 5.1 capacity for memory `m` and confidence parameter `α`.
pub fn capacity(m: usize, alpha: f64) -> usize {
    capacity_expected_two_pass(m, alpha)
}

/// Smallest divisor of `b` that is `≥ want` (run-count rounding so window
/// chunks stay block-aligned). `b` is a block size, typically a power of 2.
fn round_up_to_divisor(b: usize, want: usize) -> Option<usize> {
    (want..=b).find(|&x| b % x == 0)
}

pub(crate) struct RunsPlan {
    pub b: usize,
    pub m: usize,
    /// Effective run count, a divisor of `b`.
    pub n1: usize,
    /// Blocks per window chunk: `b / n1`.
    pub chunk_blocks: usize,
    /// Run length in keys: `⌈n / (n1·chunk)⌉ · chunk ≤ M`. Rounding the
    /// run length (not the run count) keeps total `K::MAX` padding below
    /// one window, so padding never poisons the cleanup carry.
    pub run_len: usize,
    /// Windows (= chunks per run): `run_len / chunk`.
    pub windows: usize,
}

pub(crate) fn runs_plan<K: PdmKey, S: Storage<K>>(pdm: &Pdm<K, S>, n: usize) -> Result<RunsPlan> {
    let b = require_square_cfg(pdm.cfg())?;
    let m = pdm.cfg().mem_capacity;
    if n == 0 {
        return Err(PdmError::UnsupportedInput("empty input".into()));
    }
    let want = n.div_ceil(m);
    let n1 = round_up_to_divisor(b, want).ok_or_else(|| {
        PdmError::UnsupportedInput(format!(
            "ExpectedTwoPass needs ≤ √M = {b} runs; got ⌈n/M⌉ = {want}"
        ))
    })?;
    let chunk_blocks = b / n1;
    let chunk = chunk_blocks * b;
    let run_len = n.div_ceil(n1 * chunk) * chunk;
    debug_assert!(run_len <= m && n1 * run_len >= n);
    debug_assert!(
        n1 * run_len - n < n1 * chunk,
        "padding must stay below one window"
    );
    Ok(RunsPlan {
        b,
        m,
        n1,
        chunk_blocks,
        run_len,
        windows: run_len / chunk,
    })
}

/// Pass 1: form `n1` sorted runs of `run_len` keys and scatter window
/// chunks (chunk `t` of run `i` → window region `t`, block offset
/// `i·chunk_blocks`).
pub(crate) fn pass1_runs_shuffled<K: PdmKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    input: &Region,
    n: usize,
    p: &RunsPlan,
    windows: &[Region],
) -> Result<()> {
    let RunsPlan {
        b,
        n1,
        chunk_blocks,
        run_len,
        ..
    } = *p;
    debug_assert_eq!(windows.len(), p.windows);
    let in_blocks = input.len_blocks();
    let run_blocks = run_len / b;
    // Reads run one run ahead and chunk writes retire behind. Tail runs
    // can be pure padding (no real blocks) — schedule read-ahead only
    // where the blocking path reads, mirroring the `lo < hi` guard.
    let steps: Vec<Vec<(Region, usize)>> = (0..n1)
        .filter_map(|i| {
            let lo = i * run_blocks;
            let hi = ((i + 1) * run_blocks).min(in_blocks);
            (lo < hi).then(|| (lo..hi).map(|j| (*input, j)).collect())
        })
        .collect();
    let mut ra = ReadAhead::new(pdm, steps)?;
    let mut wb = WriteBehind::new(pdm);
    for i in 0..n1 {
        let mut run = pdm.alloc_buf(run_len)?;
        let lo = i * run_blocks;
        let hi = ((i + 1) * run_blocks).min(in_blocks);
        if lo < hi {
            ra.next_into(pdm, run.as_vec_mut())?;
        }
        run.truncate(n.saturating_sub(lo * b).min(run_len));
        run.resize(run_len, K::MAX);
        run.sort_unstable();
        let base = i * chunk_blocks;
        let blocks = windows
            .iter()
            .flat_map(|w| (base..base + chunk_blocks).map(move |j| (*w, j)));
        wb.write(pdm, blocks, &run)?;
    }
    wb.finish(pdm) // drain before the caller's phase boundary
}

/// Outcome of the streaming pass: emitted count and whether it stayed clean.
pub(crate) fn pass2_stream<K: PdmKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    p: &RunsPlan,
    windows: &[Region],
    emit: &mut Emit<'_, K, S>,
) -> Result<(usize, bool)> {
    let RunsPlan { b, m, .. } = *p;
    let mut cleaner = Cleaner::new(pdm, m)?;
    // Speculative bucket prefetch: every window's location is known the
    // moment pass 1 settles, so the reads are issued ahead of consumption
    // — but *charged* only at consumption, because the cleanliness check
    // below may abort mid-schedule and the blocking path never reads (or
    // charges) past the aborting window. Dropping the read-ahead on abort
    // abandons the unconsumed in-flight batches with zero accounting
    // trace, so output, pass counts, and probe streams stay byte-identical
    // to the blocking path. A window holds n1 chunks of chunk_blocks
    // blocks = b blocks = M keys.
    let steps: Vec<Vec<(Region, usize)>> = windows
        .iter()
        .map(|w| (0..b).map(|i| (*w, i)).collect())
        .collect();
    let mut ra = ReadAhead::new_speculative(pdm, steps)?;
    for _ in windows {
        cleaner.feed_from(pdm, &mut ra)?;
        cleaner.process(pdm, emit)?;
        if !cleaner.clean() {
            // Abort early, as the paper prescribes — the fallback re-sorts
            // from the original input, so the partial output is discarded
            // (and `ra` drops its speculative in-flight batches uncharged).
            return Ok((cleaner.emitted(), false));
        }
    }
    cleaner.finish(pdm, emit)
}

/// Sort `n` keys in an expected two passes (Theorem 5.1). For the
/// guarantee, keep `n ≤ capacity(M, α)`; larger `n` (up to `M√M`) is
/// accepted but falls back more often.
///
/// The sort owns `input`, which must be a whole allocated region (else it
/// is refused before any I/O, with [`Pdm::release_region`]'s error). The
/// fallback reads it, so the sort keeps it until then; on a detected bad
/// input it releases its windows and output, and the fallback `ThreePass2`
/// sorts over the input, which is then the output region. Apart from
/// reading the output, the caller must not read, write or release `input`
/// afterwards.
///
/// # Example
///
/// ```
/// use pdm_model::prelude::*;
/// let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(4, 16)).unwrap();
/// let mut data: Vec<u64> = (0..512).collect();
/// pdm_model::rng::SplitMix64::seed_from_u64(7).shuffle(&mut data);
/// let input = pdm.alloc_region_for_keys(data.len()).unwrap();
/// pdm.ingest(&input, &data).unwrap();
/// let rep = pdm_sort::expected_two_pass(&mut pdm, &input, data.len()).unwrap();
/// assert!(rep.read_passes <= 5.0); // 2 normally; ≤ 5 on a detected bad input
/// ```
pub fn expected_two_pass<K: PdmKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    input: &Region,
    n: usize,
) -> Result<SortReport> {
    pdm.check_whole_region(input)?;
    let p = runs_plan(pdm, n)?;
    let windows = alloc_staggered(pdm, p.windows, p.b)?;
    let out = pdm.alloc_region_for_keys(p.n1 * p.run_len)?;

    pdm.begin_phase("E2P: runs+shuffle");
    pass1_runs_shuffled(pdm, input, n, &p, &windows)?;
    // Pass 2's reads are issued speculatively inside `pass2_stream` (see
    // there): its data-dependent early abort means an eagerly-*charged*
    // read-ahead would count batches the blocking path never charges, so
    // the charges ride with consumption instead. The emission is issued
    // at the same points either way, so it rides a write-behind safely —
    // even on an aborted run.
    pdm.begin_phase("E2P: stream+verify");
    let mut emitter = RegionEmitter::new(out);
    let mut wb = WriteBehind::new(pdm);
    let (_, clean) = pass2_stream(pdm, &p, &windows, &mut |pd, ks| {
        emitter.emit_behind(pd, &mut wb, ks)
    })?;
    wb.finish(pdm)?;
    pdm.end_phase();

    if clean {
        return Ok(SortReport::from_stats(
            pdm,
            out,
            n,
            Algorithm::ExpectedTwoPass,
            false,
        ));
    }
    // Bad input detected: abort and fall back (paper: +3 passes), over
    // the levels of the windows and the discarded output.
    for r in windows.iter().chain([&out]) {
        pdm.release_region(r)?;
    }
    pdm.begin_phase("E2P: fallback ThreePass2");
    let rep = three_pass2::three_pass2(pdm, input, n)?;
    pdm.end_phase();
    Ok(SortReport {
        algorithm: Algorithm::ExpectedTwoPass,
        fell_back: true,
        ..SortReport::from_stats(pdm, rep.output, n, Algorithm::ExpectedTwoPass, true)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_model::rng::SplitMix64;

    fn machine(d: usize, b: usize) -> Pdm<u64> {
        Pdm::new(PdmConfig::square(d, b)).unwrap()
    }

    fn run_sort(pdm: &mut Pdm<u64>, data: &[u64]) -> SortReport {
        let input = pdm.alloc_region_for_keys(data.len()).unwrap();
        pdm.ingest(&input, data).unwrap();
        pdm.reset_stats();
        expected_two_pass(pdm, &input, data.len()).unwrap()
    }

    fn check_sorted(pdm: &mut Pdm<u64>, rep: &SortReport, data: &[u64]) {
        let mut want = data.to_vec();
        want.sort_unstable();
        let got = pdm.inspect_prefix(&rep.output, data.len()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn divisor_rounding() {
        assert_eq!(round_up_to_divisor(16, 3), Some(4));
        assert_eq!(round_up_to_divisor(16, 4), Some(4));
        assert_eq!(round_up_to_divisor(16, 5), Some(8));
        assert_eq!(round_up_to_divisor(12, 5), Some(6));
        assert_eq!(round_up_to_divisor(16, 17), None);
    }

    #[test]
    fn capacity_below_structural_max() {
        let m = 1 << 12;
        let cap = capacity(m, 2.0);
        assert!(cap < m * (1 << 6));
        assert!(cap > m); // still superlinear in M
    }

    #[test]
    fn sorts_random_input_in_two_passes() {
        // M = 256, capacity(α=2) ≈ 4096/√(4·5.5+2) ≈ M^1.5/4.9 ≈ 835 →
        // use N = 512 = 2 runs, comfortably within capacity.
        let mut pdm = machine(4, 16);
        let mut rng = SplitMix64::seed_from_u64(31);
        let mut data: Vec<u64> = (0..512).collect();
        rng.shuffle(&mut data);
        let rep = run_sort(&mut pdm, &data);
        check_sorted(&mut pdm, &rep, &data);
        assert!(!rep.fell_back, "random input should not fall back");
        assert!(
            (rep.read_passes - 2.0).abs() < 1e-9,
            "read {}",
            rep.read_passes
        );
        assert!((rep.write_passes - 2.0).abs() < 1e-9);
        assert!(rep.peak_mem <= 2 * 256);
    }

    #[test]
    fn random_inputs_rarely_fall_back() {
        let mut rng = SplitMix64::seed_from_u64(32);
        let mut fallbacks = 0;
        for _ in 0..30 {
            let mut pdm = machine(2, 16);
            let mut data: Vec<u64> = (0..768).collect(); // 3→4 runs
            rng.shuffle(&mut data);
            let rep = run_sort(&mut pdm, &data);
            check_sorted(&mut pdm, &rep, &data);
            fallbacks += usize::from(rep.fell_back);
        }
        assert!(fallbacks <= 2, "{fallbacks}/30 fallbacks on random inputs");
    }

    #[test]
    fn adversarial_input_falls_back_and_still_sorts() {
        // Reverse-sorted input maximizes displacement after run shuffle:
        // run i holds the globally largest-first segment, so the shuffled
        // windows interleave badly → detector must fire, fallback sorts.
        let mut pdm = machine(4, 16);
        let n = 4096; // full M√M: far beyond the expected-2-pass capacity
        let data: Vec<u64> = (0..n as u64).rev().collect();
        let rep = run_sort(&mut pdm, &data);
        check_sorted(&mut pdm, &rep, &data);
        assert!(rep.fell_back, "reverse input must trigger the abort check");
        // aborted pass 2 + 3 fallback passes: total read passes in (2, 5]
        assert!(rep.read_passes > 2.0 && rep.read_passes <= 5.0 + 1e-9);
    }

    #[test]
    fn sorted_input_stays_two_passes() {
        let mut pdm = machine(2, 16);
        let data: Vec<u64> = (0..512).collect();
        let rep = run_sort(&mut pdm, &data);
        check_sorted(&mut pdm, &rep, &data);
        assert!(!rep.fell_back);
    }

    #[test]
    fn partial_input_with_padding() {
        let mut pdm = machine(2, 16);
        let mut rng = SplitMix64::seed_from_u64(33);
        for n in [100usize, 256, 300, 700] {
            let data: Vec<u64> = (0..n as u64).map(|_| rng.gen_range(0..10_000)).collect();
            let rep = run_sort(&mut pdm, &data);
            check_sorted(&mut pdm, &rep, &data);
        }
    }

    #[test]
    fn output_is_correct_even_when_falling_back() {
        // all-equal keys with a single out-of-place small key cannot break
        // anything; meanwhile duplicates stress the detector's ≥ logic
        let mut pdm = machine(2, 8);
        let mut data = vec![5u64; 512];
        data[511] = 1;
        let rep = run_sort(&mut pdm, &data);
        check_sorted(&mut pdm, &rep, &data);
    }

    #[test]
    fn overlap_changes_nothing_but_wall_clock() {
        // Clean two-pass path and the abort→fallback path must both be
        // byte-identical in output and accounting with overlap on or off.
        let mut rng = SplitMix64::seed_from_u64(34);
        let mut shuffled: Vec<u64> = (0..512).collect();
        rng.shuffle(&mut shuffled);
        let reversed: Vec<u64> = (0..4096u64).rev().collect();
        for data in [&shuffled, &reversed] {
            let run = |overlap: bool| {
                let mut pdm = machine(4, 16);
                pdm.set_overlap(overlap);
                let input = pdm.alloc_region_for_keys(data.len()).unwrap();
                pdm.ingest(&input, data).unwrap();
                pdm.reset_stats();
                let rep = expected_two_pass(&mut pdm, &input, data.len()).unwrap();
                assert_eq!(pdm.pending_io(), 0, "phases must drain all overlap I/O");
                let got = pdm.inspect_prefix(&rep.output, data.len()).unwrap();
                let s = pdm.stats();
                (
                    got,
                    rep.fell_back,
                    s.blocks_read,
                    s.blocks_written,
                    s.read_steps,
                    s.write_steps,
                )
            };
            let on = run(true);
            let off = run(false);
            assert_eq!(
                on, off,
                "overlap must be invisible to output and accounting"
            );
        }
    }

    #[test]
    fn empty_input_rejected() {
        let mut pdm = machine(2, 8);
        let input = pdm.alloc_region_for_keys(8).unwrap();
        assert!(expected_two_pass(&mut pdm, &input, 0).is_err());
    }

    #[test]
    fn phase_names_reflect_fallback() {
        let mut pdm = machine(4, 16);
        let data: Vec<u64> = (0..4096u64).rev().collect();
        let _ = run_sort(&mut pdm, &data);
        let names: Vec<&str> = pdm.stats().phases.iter().map(|p| p.name.as_str()).collect();
        assert!(names.contains(&"E2P: fallback ThreePass2"));
    }
}
