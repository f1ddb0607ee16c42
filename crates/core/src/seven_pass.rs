//! `SevenPass` (paper §6.1, Theorem 6.2) and `ExpectedSixPass` (§6.2,
//! Theorem 6.3): sorting up to `M²` keys.
//!
//! Both instantiate the same outer `(l, m) = (√M, √M)`-merge; they differ
//! only in how the `l ≤ √M` outer runs are formed:
//!
//! * `SevenPass` forms runs of `M√M` keys with `ThreePass2` (3 passes);
//! * `ExpectedSixPass` forms runs of `≈ M√M/√((α+2)ln M+2)` keys with
//!   `ExpectedTwoPass` (2 passes expected, falling back per-run).
//!
//! Pass layout (run length `R`, `m' = R/M` inner fan-out, `l` runs):
//!
//! 1–3. **Run formation**, with the *outer unshuffle folded into the final
//!      write*: run `i`'s sorted stream is scattered into `√M` parts
//!      `L_i^j` (positions `≡ j mod √M`) as it is emitted.
//! 4.   **Inner unshuffle** (1 pass): each `L_i^j` is unshuffled into `m'`
//!      one-block-per-sub-merge pieces.
//! 5.   **Sub-merges** (1 pass): each group of `l` blocks (`≤ M` keys) is
//!      merged in memory.
//! 6.   **Inner shuffle + cleanup** (1 pass): produces each `Q_j` =
//!      `merge(L_1^j … L_l^j)` as a verified stream, scattered into the
//!      final window regions (the outer shuffle, folded into the write).
//! 7.   **Outer cleanup** (1 pass): the outer dirty bound `l·√M ≤ M` lets
//!      one streaming window finish the sort.

use crate::common::{
    alloc_staggered, expected_run_len, require_square_cfg, Algorithm, Cleaner, RegionEmitter,
    SortReport,
};
use crate::expected_two_pass::{pass1_runs_shuffled, pass2_stream, runs_plan};
use crate::three_pass2::three_pass2_core;
use pdm_model::prelude::*;

/// Maximum keys `SevenPass` sorts on a machine with memory `m`: `M²`.
pub fn capacity(m: usize) -> usize {
    m * m
}

/// Keys `ExpectedSixPass` sorts (after rounding the run length down to the
/// layout's divisibility requirements).
pub fn capacity_six(m: usize, alpha: f64) -> usize {
    let b = (m as f64).sqrt() as usize;
    let run = expected_run_len(m, b, alpha);
    b * run
}

/// How outer runs are formed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunFormer {
    ThreePass,
    ExpectedTwoPass,
}

/// Scatters an emitted sorted stream into `√M` part regions — the outer
/// unshuffle, written in disk-parallel groups of `D` blocks.
struct UnshuffleEmitter<'a, K: PdmKey> {
    parts: &'a [Region],
    next_idx: usize,
    scratch: TrackedBuf<K>,
    wb: WriteBehind<K>,
    b: usize,
    d: usize,
}

impl<'a, K: PdmKey> UnshuffleEmitter<'a, K> {
    fn new<S: Storage<K>>(pdm: &Pdm<K, S>, parts: &'a [Region]) -> Result<Self> {
        let b = pdm.cfg().block_size;
        let d = pdm.cfg().num_disks;
        Ok(Self {
            parts,
            next_idx: 0,
            scratch: pdm.alloc_buf(d * b)?,
            wb: WriteBehind::new(pdm),
            b,
            d,
        })
    }

    /// Reset to block 0 (for deterministic overwrite after a fallback).
    fn reset(&mut self) {
        self.next_idx = 0;
    }

    /// Retire the in-flight part write. The emitter survives phase
    /// boundaries (fallback re-runs it), so callers drain it before every
    /// `end_phase`.
    fn drain<S: Storage<K>>(&mut self, pdm: &mut Pdm<K, S>) -> Result<()> {
        self.wb.drain(pdm)
    }

    fn emit<S: Storage<K>>(&mut self, pdm: &mut Pdm<K, S>, ks: &[K]) -> Result<()> {
        let (b, d) = (self.b, self.d);
        assert_eq!(ks.len() % b, 0, "emission must be block-aligned");
        // Emissions are M = b² keys (b blocks, one per part); handle any
        // block-multiple length by treating each b·b slice independently.
        for window in ks.chunks(b * b) {
            assert_eq!(window.len(), b * b, "emission must be M-key windows");
            for group in (0..b).step_by(d) {
                let ge = (group + d).min(b);
                let v = self.scratch.as_vec_mut();
                v.clear();
                for j in group..ge {
                    for k in 0..b {
                        v.push(window[k * b + j]);
                    }
                }
                let blocks = (group..ge).map(|j| (self.parts[j], self.next_idx));
                // Write-behind: the scratch payload is copied at issue, so
                // refilling it for the next group is safe immediately.
                self.wb.write(pdm, blocks, &self.scratch)?;
            }
            self.next_idx += 1;
        }
        Ok(())
    }
}

struct OuterPlan {
    b: usize,
    m: usize,
    /// Outer run count `≤ √M`.
    l: usize,
    /// Run length in keys (`m'·M`).
    run_len: usize,
    /// Inner fan-out `m' = run_len / M`, a divisor of `√M`.
    m_prime: usize,
}

fn outer_plan<K: PdmKey, S: Storage<K>>(
    pdm: &Pdm<K, S>,
    n: usize,
    run_len: usize,
) -> Result<OuterPlan> {
    let b = require_square_cfg(pdm.cfg())?;
    let m = pdm.cfg().mem_capacity;
    if n == 0 {
        return Err(PdmError::UnsupportedInput("empty input".into()));
    }
    if run_len % m != 0 || run_len == 0 {
        return Err(PdmError::BadConfig(format!(
            "run length {run_len} must be a positive multiple of M = {m}"
        )));
    }
    let m_prime = run_len / m;
    if b % m_prime != 0 {
        return Err(PdmError::BadConfig(format!(
            "inner fan-out m' = {m_prime} must divide √M = {b}"
        )));
    }
    if run_len > m * b {
        return Err(PdmError::BadConfig(format!(
            "run length {run_len} exceeds the run former's capacity M√M = {}",
            m * b
        )));
    }
    let l = n.div_ceil(run_len);
    if l > b {
        return Err(PdmError::UnsupportedInput(format!(
            "needs ≤ √M = {b} outer runs of {run_len}; n = {n} gives {l}"
        )));
    }
    Ok(OuterPlan {
        b,
        m,
        l,
        run_len,
        m_prime,
    })
}

/// The shared engine. Returns the report and whether any run fell back.
fn outer_merge_sort<K: PdmKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    input: &Region,
    n: usize,
    run_len: usize,
    former: RunFormer,
    algorithm: Algorithm,
) -> Result<SortReport> {
    let p = outer_plan(pdm, n, run_len)?;
    let OuterPlan {
        b,
        m,
        l,
        run_len,
        m_prime,
    } = p;
    let part_blocks = run_len / (b * b); // blocks per L_i^j = m'·... = run_len/b keys
    debug_assert_eq!(part_blocks * b * b, run_len);

    // Region inventory.
    let parts: Vec<Vec<Region>> = (0..l)
        .map(|_| alloc_staggered(pdm, b, part_blocks))
        .collect::<Result<_>>()?;
    // sub-merge (j, u): l blocks each
    let submerge: Vec<Vec<Region>> = (0..b)
        .map(|_| alloc_staggered(pdm, m_prime, l))
        .collect::<Result<_>>()?;
    // inner window (j, t): m' blocks each, t in 0..l
    let inner_win: Vec<Vec<Region>> = (0..b)
        .map(|_| alloc_staggered(pdm, l, m_prime))
        .collect::<Result<_>>()?;
    // final windows: one per M keys of output
    let final_wins = alloc_staggered(pdm, l * m_prime, b)?;
    let out = pdm.alloc_region_for_keys(l * run_len)?;

    let mut fell_back = false;

    // Steps 1–3: run formation with folded outer unshuffle.
    let run_blocks = run_len / b;
    for (i, run_parts) in parts.iter().enumerate() {
        let seg_start = i * run_blocks;
        let seg_blocks = run_blocks.min(input.len_blocks().saturating_sub(seg_start));
        // Virtual segment: real blocks of the input plus implicit MAX
        // padding; the run formers already pad short inputs.
        let seg = if seg_blocks > 0 {
            input.sub(seg_start, seg_blocks)?
        } else {
            input.sub(0, 0)?
        };
        let seg_n = n.saturating_sub(seg_start * b).min(run_len);
        let mut emitter = UnshuffleEmitter::new(pdm, run_parts)?;
        // The run former must always emit exactly run_len keys so every
        // part block gets written — plan it for run_len, not seg_n; short
        // segments pad with K::MAX inside the former.
        // A segment padded by more than one cleanup window would poison
        // the expected former's carry with early MAX keys, so such
        // segments (only ever the last run) go straight to the
        // deterministic former.
        let heavy_padding = run_len.saturating_sub(seg_n) > m;
        let use_expected = former == RunFormer::ExpectedTwoPass && !heavy_padding;
        let mut need_deterministic = !use_expected;
        if use_expected {
            let rp = runs_plan(pdm, run_len)?;
            debug_assert_eq!(rp.n1 * rp.run_len, run_len);
            let windows = alloc_staggered(pdm, rp.windows, rp.b)?;
            pdm.begin_phase("6P: E2P runs");
            pass1_runs_shuffled(pdm, &seg, seg_n.max(1), &rp, &windows)?;
            pdm.begin_phase("6P: E2P stream");
            let (_, clean) = pass2_stream(pdm, &rp, &windows, &mut |pd, ks| emitter.emit(pd, ks))?;
            emitter.drain(pdm)?; // settle part writes before the boundary
            pdm.end_phase();
            if !clean {
                // Per-run fallback (paper: the aborted run is re-sorted
                // deterministically, +3 passes for this run's data).
                fell_back = true;
                emitter.reset();
                need_deterministic = true;
            }
        }
        if need_deterministic {
            pdm.begin_phase("7P: run formation 3P2");
            let (emitted, clean) =
                three_pass2_core(pdm, &seg, run_len, &mut |pd, ks| emitter.emit(pd, ks))?;
            emitter.drain(pdm)?; // settle part writes before the boundary
            pdm.end_phase();
            debug_assert_eq!(emitted, run_len);
            if !clean {
                return Err(PdmError::UnsupportedInput(
                    "deterministic run formation produced an inversion".into(),
                ));
            }
        }
    }

    // Step 4 (pass 4): inner unshuffle of each L_i^j into m' pieces.
    // Reads run one part ahead; piece writes retire behind.
    pdm.begin_phase("7P: inner unshuffle");
    let part_len = run_len / b;
    let steps: Vec<Vec<(Region, usize)>> = parts
        .iter()
        .flat_map(|run_parts| {
            run_parts
                .iter()
                .map(|part| (0..part_blocks).map(|k| (*part, k)).collect())
        })
        .collect();
    let mut ra = ReadAhead::new(pdm, steps)?;
    let mut wb = WriteBehind::new(pdm);
    for i in 0..l {
        for sub in &submerge {
            let mut buf = pdm.alloc_buf(part_len)?;
            ra.next_into(pdm, buf.as_vec_mut())?;
            // piece u of L_i^j: positions ≡ u (mod m'), length b = 1 block
            let mut wbuf = pdm.alloc_buf(part_len)?;
            {
                let v = wbuf.as_vec_mut();
                v.resize(part_len, K::MAX);
                for u in 0..m_prime {
                    for k in 0..b {
                        v[u * b + k] = buf[k * m_prime + u];
                    }
                }
            }
            wb.write(pdm, (0..m_prime).map(|u| (sub[u], i)), &wbuf)?;
        }
    }
    wb.finish(pdm)?;

    // Step 5 (pass 5): the b·m' sub-merges, each l blocks ≤ M keys.
    // When l < D a single sub-merge cannot fill a stripe, so sub-merges
    // are batched ⌊D/l⌋ at a time, picking u-indices spaced l apart — their
    // staggered disk ranges (u+i mod D) then tile the disks exactly.
    pdm.begin_phase("7P: sub-merges");
    let d = pdm.cfg().num_disks;
    let group_max = (d / l).clamp(1, m_prime);
    // Precompute the (j, group) schedule so the read batches can run one
    // group ahead of the in-memory merges.
    let mut sched: Vec<(usize, Vec<usize>)> = Vec::new();
    for j in 0..b {
        let mut processed = vec![false; m_prime];
        for r in 0..m_prime {
            if processed[r] {
                continue;
            }
            let mut group = Vec::with_capacity(group_max);
            let mut u = r;
            while group.len() < group_max && u < m_prime && !processed[u] {
                group.push(u);
                processed[u] = true;
                u += l;
            }
            sched.push((j, group));
        }
    }
    // one read batch per group, covering every member's l blocks
    let steps: Vec<Vec<(Region, usize)>> = sched
        .iter()
        .map(|(j, group)| {
            let row = &submerge[*j];
            group
                .iter()
                .flat_map(|&u| (0..l).map(move |i| (row[u], i)))
                .collect()
        })
        .collect();
    let mut ra = ReadAhead::new(pdm, steps)?;
    let mut wb = WriteBehind::new(pdm);
    for (j, group) in &sched {
        let mut buf = pdm.alloc_buf(group.len() * l * b)?;
        ra.next_into(pdm, buf.as_vec_mut())?;
        // merge each member in memory, streaming straight into the
        // write buffer (no per-member staging copy)
        let mut merged = pdm.alloc_buf(group.len() * l * b)?;
        {
            let mv = merged.as_vec_mut();
            for (gi, _) in group.iter().enumerate() {
                let seg = &buf[gi * l * b..(gi + 1) * l * b];
                let mut tree = crate::merge::LoserTree::new(seg.chunks(b).collect());
                tree.merge_into(mv);
            }
        }
        drop(buf);
        // one write batch: chunk t of L'_u (b keys) → inner window
        // (j, t), block u — same disk tiling as the reads
        let wins_row = &inner_win[*j];
        let blocks = group
            .iter()
            .flat_map(|&u| (0..l).map(move |t| (wins_row[t], u)));
        wb.write(pdm, blocks, &merged)?;
    }
    wb.finish(pdm)?;

    // Step 6 (pass 6): inner shuffle + cleanup per j, scattering Q_j chunks
    // into the final windows (outer shuffle fold).
    pdm.begin_phase("7P: inner cleanup");
    let inner_window_keys = m_prime * b;
    // One read-ahead schedule spans all b merges — the windows are
    // disjoint, so prefetching across a j boundary is safe.
    let iw = &inner_win;
    let steps: Vec<Vec<(Region, usize)>> = (0..b)
        .flat_map(|j| (0..l).map(move |t| (0..m_prime).map(|u| (iw[j][t], u)).collect()))
        .collect();
    let mut ra = ReadAhead::new(pdm, steps)?;
    let mut wb = WriteBehind::new(pdm);
    for j in 0..b {
        let mut cleaner = Cleaner::new(pdm, inner_window_keys)?;
        let mut next_chunk = 0usize; // global b-key chunk counter of Q_j
        let wins = &final_wins;
        let d = pdm.cfg().num_disks;
        let wbr = &mut wb;
        let mut emit = |pd: &mut Pdm<K, S>, ks: &[K]| -> Result<()> {
            debug_assert_eq!(ks.len() % b, 0);
            let chunks = ks.len() / b;
            let mut c0 = 0usize;
            while c0 < chunks {
                let c1 = (c0 + d).min(chunks);
                let blocks = (c0..c1).map(|c| (wins[next_chunk + c], j));
                wbr.write(pd, blocks, &ks[c0 * b..c1 * b])?;
                c0 = c1;
            }
            next_chunk += chunks;
            Ok(())
        };
        for _ in 0..l {
            cleaner.feed_from(pdm, &mut ra)?;
            cleaner.process(pdm, &mut emit)?;
        }
        let (_, clean) = cleaner.finish(pdm, &mut emit)?;
        if !clean {
            return Err(PdmError::UnsupportedInput(
                "inner (l,m')-merge cleanup detected an inversion".into(),
            ));
        }
    }
    wb.finish(pdm)?;

    // Step 7 (pass 7): outer cleanup into the output region.
    pdm.begin_phase("7P: outer cleanup");
    let mut cleaner = Cleaner::new(pdm, m)?;
    let mut emitter = RegionEmitter::new(out);
    let steps: Vec<Vec<(Region, usize)>> = final_wins
        .iter()
        .map(|w| (0..b).map(|i| (*w, i)).collect())
        .collect();
    let mut ra = ReadAhead::new(pdm, steps)?;
    let mut wb = WriteBehind::new(pdm);
    let mut emit = |pd: &mut Pdm<K, S>, ks: &[K]| emitter.emit_behind(pd, &mut wb, ks);
    for _ in 0..final_wins.len() {
        cleaner.feed_from(pdm, &mut ra)?;
        cleaner.process(pdm, &mut emit)?;
    }
    let (emitted, clean) = cleaner.finish(pdm, &mut emit)?;
    wb.finish(pdm)?;
    pdm.end_phase();
    debug_assert_eq!(emitted, l * run_len);
    if !clean {
        return Err(PdmError::UnsupportedInput(
            "outer cleanup detected an inversion — outer dirty bound violated".into(),
        ));
    }

    Ok(SortReport {
        fell_back,
        ..SortReport::from_stats(pdm, out, n, algorithm, fell_back)
    })
}

/// Sort `n ≤ M²` keys in seven passes (Theorem 6.2).
pub fn seven_pass<K: PdmKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    input: &Region,
    n: usize,
) -> Result<SortReport> {
    let b = require_square_cfg(pdm.cfg())?;
    let m = pdm.cfg().mem_capacity;
    outer_merge_sort(
        pdm,
        input,
        n,
        m * b,
        RunFormer::ThreePass,
        Algorithm::SevenPass,
    )
}

/// Sort `n ≤ capacity_six(M, α)` keys in an expected six passes
/// (Theorem 6.3). Runs that fail the online check individually fall back to
/// deterministic formation.
pub fn expected_six_pass<K: PdmKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    input: &Region,
    n: usize,
    alpha: f64,
) -> Result<SortReport> {
    let b = require_square_cfg(pdm.cfg())?;
    let m = pdm.cfg().mem_capacity;
    let run_len = expected_run_len(m, b, alpha);
    outer_merge_sort(
        pdm,
        input,
        n,
        run_len,
        RunFormer::ExpectedTwoPass,
        Algorithm::ExpectedSixPass,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_model::rng::SplitMix64;

    fn machine(d: usize, b: usize) -> Pdm<u64> {
        Pdm::new(PdmConfig::square(d, b)).unwrap()
    }

    fn check_sorted(pdm: &mut Pdm<u64>, rep: &SortReport, data: &[u64]) {
        let mut want = data.to_vec();
        want.sort_unstable();
        let got = pdm.inspect_prefix(&rep.output, data.len()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn seven_pass_sorts_m_squared_keys() {
        let mut pdm = machine(4, 8); // M = 64, N = 4096
        let mut rng = SplitMix64::seed_from_u64(41);
        let n = 4096;
        let mut data: Vec<u64> = (0..n as u64).collect();
        rng.shuffle(&mut data);
        let input = pdm.alloc_region_for_keys(n).unwrap();
        pdm.ingest(&input, &data).unwrap();
        pdm.reset_stats();
        let rep = seven_pass(&mut pdm, &input, n).unwrap();
        check_sorted(&mut pdm, &rep, &data);
        assert_eq!(rep.algorithm, Algorithm::SevenPass);
    }

    #[test]
    fn seven_pass_takes_exactly_seven_passes() {
        let mut pdm = machine(4, 8);
        let mut rng = SplitMix64::seed_from_u64(42);
        let n = 4096;
        let mut data: Vec<u64> = (0..n as u64).collect();
        rng.shuffle(&mut data);
        let input = pdm.alloc_region_for_keys(n).unwrap();
        pdm.ingest(&input, &data).unwrap();
        pdm.reset_stats();
        let rep = seven_pass(&mut pdm, &input, n).unwrap();
        assert!(
            (rep.read_passes - 7.0).abs() < 1e-9,
            "read passes {}",
            rep.read_passes
        );
        assert!(
            (rep.write_passes - 7.0).abs() < 1e-9,
            "write passes {}",
            rep.write_passes
        );
        assert!(rep.peak_mem <= 2 * 64 + 64, "peak {}", rep.peak_mem);
        assert!(pdm.stats().read_parallel_efficiency(4) > 0.99);
    }

    #[test]
    fn seven_pass_adversarial_inputs() {
        for data in [
            (0..4096u64).rev().collect::<Vec<_>>(),
            vec![9u64; 4096],
            (0..4096u64).map(|i| i % 3).collect::<Vec<_>>(),
        ] {
            let mut pdm = machine(2, 8);
            let input = pdm.alloc_region_for_keys(data.len()).unwrap();
            pdm.ingest(&input, &data).unwrap();
            let rep = seven_pass(&mut pdm, &input, data.len()).unwrap();
            check_sorted(&mut pdm, &rep, &data);
        }
    }

    #[test]
    fn seven_pass_binary_thresholds() {
        let mut rng = SplitMix64::seed_from_u64(43);
        for k in [0usize, 1, 1000, 2048, 4095] {
            let mut pdm = machine(2, 8);
            let n = 4096;
            let mut data: Vec<u64> = (0..n).map(|i| u64::from(i >= k)).collect();
            rng.shuffle(&mut data);
            let input = pdm.alloc_region_for_keys(n).unwrap();
            pdm.ingest(&input, &data).unwrap();
            let rep = seven_pass(&mut pdm, &input, n).unwrap();
            check_sorted(&mut pdm, &rep, &data);
        }
    }

    #[test]
    fn seven_pass_partial_input() {
        let mut pdm = machine(2, 8);
        let mut rng = SplitMix64::seed_from_u64(44);
        let n = 2500; // not a multiple of anything convenient
        let data: Vec<u64> = (0..n).map(|_| rng.gen_range(0..100_000)).collect();
        let input = pdm.alloc_region_for_keys(n).unwrap();
        pdm.ingest(&input, &data).unwrap();
        let rep = seven_pass(&mut pdm, &input, n).unwrap();
        check_sorted(&mut pdm, &rep, &data);
    }

    #[test]
    fn seven_pass_rejects_oversized() {
        let mut pdm = machine(2, 8);
        let input = pdm.alloc_region_for_keys(64).unwrap();
        assert!(seven_pass(&mut pdm, &input, 4097).is_err());
    }

    #[test]
    fn expected_six_pass_sorts_random_input() {
        // D = 2 so the inner fan-out m' = 2 still fills every stripe; at
        // realistic M the capacity formula gives m' ≥ D and this is moot.
        let mut pdm = machine(2, 16); // M = 256
        let mut rng = SplitMix64::seed_from_u64(45);
        let n = capacity_six(256, 2.0).min(4096);
        let mut data: Vec<u64> = (0..n as u64).collect();
        rng.shuffle(&mut data);
        let input = pdm.alloc_region_for_keys(n).unwrap();
        pdm.ingest(&input, &data).unwrap();
        pdm.reset_stats();
        let rep = expected_six_pass(&mut pdm, &input, n, 2.0).unwrap();
        check_sorted(&mut pdm, &rep, &data);
        assert_eq!(rep.algorithm, Algorithm::ExpectedSixPass);
        if !rep.fell_back {
            assert!(
                rep.read_passes < 6.6,
                "six-pass read passes {}",
                rep.read_passes
            );
        }
    }

    #[test]
    fn expected_six_pass_beats_seven_on_random_input() {
        let mut rng = SplitMix64::seed_from_u64(46);
        let n = 8192; // 2 runs of 4096? depends on run length at M=256
        let mut data: Vec<u64> = (0..n as u64).collect();
        rng.shuffle(&mut data);

        let mut pdm6 = machine(2, 16);
        let input6 = pdm6.alloc_region_for_keys(n).unwrap();
        pdm6.ingest(&input6, &data).unwrap();
        pdm6.reset_stats();
        let rep6 = expected_six_pass(&mut pdm6, &input6, n, 2.0).unwrap();
        check_sorted(&mut pdm6, &rep6, &data);

        let mut pdm7 = machine(2, 16);
        let input7 = pdm7.alloc_region_for_keys(n).unwrap();
        pdm7.ingest(&input7, &data).unwrap();
        pdm7.reset_stats();
        let rep7 = seven_pass(&mut pdm7, &input7, n).unwrap();
        check_sorted(&mut pdm7, &rep7, &data);

        if !rep6.fell_back {
            assert!(
                rep6.read_passes < rep7.read_passes,
                "six {} vs seven {}",
                rep6.read_passes,
                rep7.read_passes
            );
        }
    }

    #[test]
    fn overlap_changes_nothing_but_wall_clock() {
        let mut rng = SplitMix64::seed_from_u64(47);
        let n = 4096;
        let mut data: Vec<u64> = (0..n as u64).collect();
        rng.shuffle(&mut data);
        let run = |overlap: bool| {
            let mut pdm = machine(4, 8);
            pdm.set_overlap(overlap);
            let input = pdm.alloc_region_for_keys(n).unwrap();
            pdm.ingest(&input, &data).unwrap();
            pdm.reset_stats();
            let rep = seven_pass(&mut pdm, &input, n).unwrap();
            assert_eq!(pdm.pending_io(), 0, "phases must drain all overlap I/O");
            let got = pdm.inspect_prefix(&rep.output, n).unwrap();
            let s = pdm.stats();
            (
                got,
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

    #[test]
    fn overlap_is_invisible_to_expected_six_pass() {
        let mut rng = SplitMix64::seed_from_u64(48);
        let n = capacity_six(256, 2.0).min(4096);
        let mut data: Vec<u64> = (0..n as u64).collect();
        rng.shuffle(&mut data);
        let run = |overlap: bool| {
            let mut pdm = machine(2, 16);
            pdm.set_overlap(overlap);
            let input = pdm.alloc_region_for_keys(n).unwrap();
            pdm.ingest(&input, &data).unwrap();
            pdm.reset_stats();
            let rep = expected_six_pass(&mut pdm, &input, n, 2.0).unwrap();
            assert_eq!(pdm.pending_io(), 0, "phases must drain all overlap I/O");
            let got = pdm.inspect_prefix(&rep.output, n).unwrap();
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

    #[test]
    fn capacity_six_below_m_squared() {
        let m = 1 << 12;
        assert!(capacity_six(m, 2.0) < m * m);
        assert!(capacity_six(m, 2.0) > m); // non-trivial
    }

    #[test]
    fn six_pass_run_len_divides_layout() {
        for b in [8usize, 16, 32, 64] {
            let m = b * b;
            let run = expected_run_len(m, b, 2.0);
            assert_eq!(run % m, 0);
            assert_eq!(b % (run / m), 0);
            assert!(run <= m * b);
        }
    }
}
