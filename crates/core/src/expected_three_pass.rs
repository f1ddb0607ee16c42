//! `ExpectedThreePass` (paper §6, Theorem 6.1): sorts
//! `≈ M^{1.75}/((α+2)·ln M+2)^{3/4}` keys in three passes on a
//! `≥ 1 − M^{−α}` fraction of inputs.
//!
//! Structure:
//!
//! 1–2. Form `N₂` long runs of `q = m'·M` keys each with
//!      [`crate::expected_two_pass`](mod@crate::expected_two_pass)'s
//!      two-pass machinery (per-run fallback to `ThreePass2` on
//!      detection). Each run's sorted stream is
//!      scattered chunk-wise into the final window regions as it is
//!      emitted (the shuffle of the `N₂` runs, folded into the write).
//! 3.   One streaming cleanup pass with window `M`: by the shuffling lemma
//!      with part size `q`, every key is within
//!      `N₂·M^{3/4}·((α+2)ln M+2)^{1/4} ≤ M` of its sorted position whp.
//!      The online check catches the bad inputs; the paper's prescribed
//!      fallback is `SevenPass`.

use crate::common::{
    alloc_staggered, alloc_staggered_stride, capacity_expected_three_pass, expected_run_len,
    require_square_cfg, Algorithm, Cleaner, RegionEmitter, SortReport,
};
use crate::expected_two_pass::{pass1_runs_shuffled, pass2_stream, runs_plan};
use crate::seven_pass::seven_pass;
use crate::three_pass2::three_pass2_core;
use pdm_model::prelude::*;

/// The Theorem 6.1 capacity for memory `m` and confidence `α`.
pub fn capacity(m: usize, alpha: f64) -> usize {
    capacity_expected_three_pass(m, alpha)
}

/// Structural maximum for the layout: `√M` runs of the expected-two-pass
/// run length (beyond the theorem's capacity the fallback rate grows).
pub fn structural_capacity(m: usize, alpha: f64) -> usize {
    let b = (m as f64).sqrt() as usize;
    b * expected_run_len(m, b, alpha)
}

/// The capacity the *implementation* can guarantee: the theorem's formula
/// assumes runs of the full Theorem 5.1 length, but the layout rounds the
/// run length down to `m\'·M` with `m\' | √M` — shorter runs mean a larger
/// shuffle displacement, so the run count `N₂` must satisfy the Lemma 4.2
/// bound `(N/√q)·√((α+2)·ln N + 1) + N/q ≤ M` at the rounded `q`.
/// Returns the largest `N₂·q` (with `N₂ | √M`) meeting it. Conservative:
/// E5 measures the bound ≈ 2.5–3x above typical displacements.
pub fn effective_capacity(m: usize, alpha: f64) -> usize {
    let b = (m as f64).sqrt() as usize;
    let q = expected_run_len(m, b, alpha);
    let mut best = q; // a single run always satisfies the bound trivially
    for n2 in 1..=b {
        if b % n2 != 0 {
            continue;
        }
        let n = (n2 * q) as f64;
        let disp = n / (q as f64).sqrt() * ((alpha + 2.0) * n.ln() + 1.0).sqrt() + n / q as f64;
        if disp <= m as f64 {
            best = n2 * q;
        } else {
            break;
        }
    }
    best
}

/// Scatters run `i`'s emitted sorted stream into the final windows:
/// the run's `c`-th chunk of `M/N₂` keys goes to window `c`, block offset
/// `i·chunk_blocks`.
struct ChunkScatterEmitter<'a> {
    wins: &'a [Region],
    chunk_blocks: usize,
    block_base: usize,
    next_chunk: usize,
}

impl<'a> ChunkScatterEmitter<'a> {
    fn new(wins: &'a [Region], chunk_blocks: usize, run_idx: usize) -> Self {
        Self {
            wins,
            chunk_blocks,
            block_base: run_idx * chunk_blocks,
            next_chunk: 0,
        }
    }

    fn reset(&mut self) {
        self.next_chunk = 0;
    }

    fn emit<K: PdmKey, S: Storage<K>>(&mut self, pdm: &mut Pdm<K, S>, ks: &[K]) -> Result<()> {
        let b = self.wins[0].block_size();
        let chunk_keys = self.chunk_blocks * b;
        assert_eq!(ks.len() % chunk_keys, 0, "emission must be whole chunks");
        let chunks = ks.len() / chunk_keys;
        let wins = &self.wins[self.next_chunk..self.next_chunk + chunks];
        let (base, chunk_blocks) = (self.block_base, self.chunk_blocks);
        let blocks = wins
            .iter()
            .flat_map(|w| (base..base + chunk_blocks).map(move |i| (*w, i)));
        pdm.write_blocks(blocks, ks)?;
        self.next_chunk += chunks;
        Ok(())
    }
}

/// Sort `n` keys in an expected three passes (Theorem 6.1). For the
/// guarantee keep `n ≤ capacity(M, α)`; up to [`structural_capacity`] is
/// accepted with a growing fallback rate.
///
/// The sort owns `input`, which must be a whole allocated region (else it
/// is refused before any I/O, with [`Pdm::release_region`]'s error). Each
/// run releases its inner windows once its stream has read them, so the
/// next run writes over their levels. On a detected bad input the sort
/// releases its windows and output before the fallback `SevenPass` runs.
/// The caller must not read, write or release `input` afterwards.
pub fn expected_three_pass<K: PdmKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    input: &Region,
    n: usize,
    alpha: f64,
) -> Result<SortReport> {
    pdm.check_whole_region(input)?;
    let b = require_square_cfg(pdm.cfg())?;
    let m = pdm.cfg().mem_capacity;
    if n == 0 {
        return Err(PdmError::UnsupportedInput("empty input".into()));
    }
    let run_len = expected_run_len(m, b, alpha);
    let m_prime = run_len / m;
    let want_runs = n.div_ceil(run_len);
    // effective run count: smallest divisor of b ≥ want (padding runs)
    let n2 = match (want_runs..=b).find(|&x| b % x == 0) {
        Some(x) => x,
        None => {
            return Err(PdmError::UnsupportedInput(format!(
                "ExpectedThreePass needs ≤ √M = {b} runs of {run_len}; n = {n} gives {want_runs}"
            )))
        }
    };
    let chunk_blocks = b / n2;
    let win_count = n2 * m_prime; // = N_eff / M
    let wins = alloc_staggered_stride(pdm, win_count, b, chunk_blocks)?;
    let out = pdm.alloc_region_for_keys(n2 * run_len)?;
    let run_blocks = run_len / b;
    let mut fell_back = false;

    // Passes 1–2: expected-two-pass run formation, chunk-scattered.
    for i in 0..n2 {
        let seg_start = i * run_blocks;
        let seg_blocks = run_blocks.min(input.len_blocks().saturating_sub(seg_start));
        let seg = input.sub(seg_start.min(input.len_blocks()), seg_blocks)?;
        let seg_n = n.saturating_sub(seg_start * b).min(run_len).max(1);
        // Plan the run former for the full run length so short segments
        // pad to exactly the layout's expectations.
        let rp = runs_plan(pdm, run_len)?;
        debug_assert_eq!(rp.n1 * rp.run_len, run_len);
        let mut emitter = ChunkScatterEmitter::new(&wins, chunk_blocks, i);
        // Segments padded by more than one cleanup window would poison the
        // expected former's carry with early MAX keys — go deterministic.
        let mut need_deterministic = run_len.saturating_sub(seg_n) > m;
        if !need_deterministic {
            let inner_wins = alloc_staggered(pdm, rp.windows, rp.b)?;
            pdm.begin_phase("E3P: run formation");
            pass1_runs_shuffled(pdm, &seg, seg_n, &rp, &inner_wins)?;
            let (_, clean) =
                pass2_stream(pdm, &rp, &inner_wins, &mut |pd, ks| emitter.emit(pd, ks))?;
            pdm.end_phase();
            // The stream was the windows' last reader: the next run (or
            // this run's fallback) writes over their levels.
            for w in &inner_wins {
                pdm.release_region(w)?;
            }
            if !clean {
                fell_back = true;
                emitter.reset();
                need_deterministic = true;
            }
        }
        if need_deterministic {
            // Plan for the full run length so the emitter covers every
            // chunk the layout expects (short segments pad inside).
            pdm.begin_phase("E3P: run fallback 3P2");
            let (emitted, clean2) =
                three_pass2_core(pdm, &seg, run_len, &mut |pd, ks| emitter.emit(pd, ks))?;
            pdm.end_phase();
            debug_assert_eq!(emitted, run_len);
            if !clean2 {
                return Err(PdmError::UnsupportedInput(
                    "fallback run formation produced an inversion".into(),
                ));
            }
        }
    }

    // Pass 3: shuffle + cleanup.
    pdm.begin_phase("E3P: final cleanup");
    let mut cleaner = Cleaner::new(pdm, m)?;
    let mut emitter = RegionEmitter::new(out);
    let mut emit = |pd: &mut Pdm<K, S>, ks: &[K]| emitter.emit(pd, ks);
    for w in &wins {
        cleaner.feed_blocks(pdm, (0..b).map(|i| (*w, i)))?;
        cleaner.process(pdm, &mut emit)?;
        if !cleaner.clean() {
            break;
        }
    }
    let clean = if cleaner.clean() {
        let (_, c) = cleaner.finish(pdm, &mut emit)?;
        c
    } else {
        drop(cleaner); // release the 2M window before the fallback runs
        false
    };
    pdm.end_phase();

    if clean {
        return Ok(SortReport {
            fell_back,
            ..SortReport::from_stats(pdm, out, n, Algorithm::ExpectedThreePass, fell_back)
        });
    }
    // The paper's prescribed alternate for a detected bad input: SevenPass,
    // over the levels of the windows and the discarded output.
    for r in wins.iter().chain([&out]) {
        pdm.release_region(r)?;
    }
    pdm.begin_phase("E3P: fallback SevenPass");
    let rep = seven_pass(pdm, input, n)?;
    pdm.end_phase();
    Ok(SortReport {
        algorithm: Algorithm::ExpectedThreePass,
        fell_back: true,
        ..SortReport::from_stats(pdm, rep.output, n, Algorithm::ExpectedThreePass, true)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_model::rng::SplitMix64;

    fn machine(d: usize, b: usize) -> Pdm<u64> {
        Pdm::new(PdmConfig::square(d, b)).unwrap()
    }

    fn run_sort(pdm: &mut Pdm<u64>, data: &[u64], alpha: f64) -> SortReport {
        let input = pdm.alloc_region_for_keys(data.len()).unwrap();
        pdm.ingest(&input, data).unwrap();
        pdm.reset_stats();
        expected_three_pass(pdm, &input, data.len(), alpha).unwrap()
    }

    fn check_sorted(pdm: &mut Pdm<u64>, rep: &SortReport, data: &[u64]) {
        let mut want = data.to_vec();
        want.sort_unstable();
        let got = pdm.inspect_prefix(&rep.output, data.len()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn capacity_sits_between_two_pass_and_structural() {
        let m = 1 << 14;
        let c = capacity(m, 2.0);
        let s = structural_capacity(m, 2.0);
        assert!(c > 0 && s > 0);
        assert!(
            crate::common::capacity_expected_two_pass(m, 2.0) < s,
            "three-pass structural capacity should exceed two-pass capacity"
        );
    }

    #[test]
    fn sorts_random_input_in_three_passes() {
        let mut pdm = machine(2, 16); // M = 256, run_len = 512 (m' = 2)
        let mut rng = SplitMix64::seed_from_u64(61);
        let n = 1024; // 2 runs
        let mut data: Vec<u64> = (0..n as u64).collect();
        rng.shuffle(&mut data);
        let rep = run_sort(&mut pdm, &data, 2.0);
        check_sorted(&mut pdm, &rep, &data);
        if !rep.fell_back {
            assert!(
                (rep.read_passes - 3.0).abs() < 1e-9,
                "read passes {}",
                rep.read_passes
            );
            assert!((rep.write_passes - 3.0).abs() < 1e-9);
        }
        assert!(rep.peak_mem <= 2 * 256 + 64);
    }

    #[test]
    fn random_inputs_rarely_fall_back() {
        let mut rng = SplitMix64::seed_from_u64(62);
        let mut fallbacks = 0;
        for _ in 0..20 {
            let mut pdm = machine(2, 16);
            let mut data: Vec<u64> = (0..1024).collect();
            rng.shuffle(&mut data);
            let rep = run_sort(&mut pdm, &data, 2.0);
            check_sorted(&mut pdm, &rep, &data);
            fallbacks += usize::from(rep.fell_back);
        }
        assert!(fallbacks <= 2, "{fallbacks}/20 fell back");
    }

    #[test]
    fn adversarial_input_still_sorts() {
        let mut pdm = machine(2, 16);
        let n = 2048;
        let data: Vec<u64> = (0..n as u64).rev().collect();
        let rep = run_sort(&mut pdm, &data, 2.0);
        check_sorted(&mut pdm, &rep, &data);
        // reverse input defeats the shuffle: must have fallen back somewhere
        assert!(rep.fell_back);
    }

    #[test]
    fn partial_and_duplicate_inputs() {
        let mut rng = SplitMix64::seed_from_u64(63);
        for n in [100usize, 600, 1500] {
            let mut pdm = machine(2, 16);
            let data: Vec<u64> = (0..n).map(|_| rng.gen_range(0..50)).collect();
            let rep = run_sort(&mut pdm, &data, 2.0);
            check_sorted(&mut pdm, &rep, &data);
        }
    }

    #[test]
    fn rejects_oversized_and_empty() {
        let mut pdm = machine(2, 16);
        let cap = structural_capacity(256, 2.0);
        let input = pdm.alloc_region_for_keys(64).unwrap();
        assert!(expected_three_pass(&mut pdm, &input, cap + 1, 2.0).is_err());
        assert!(expected_three_pass(&mut pdm, &input, 0, 2.0).is_err());
    }
}
