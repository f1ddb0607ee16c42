//! Subblock columnsort (paper Observation 6.1, after Chaudhry–Cormen–Hamon):
//! four passes, capacity `≈ M^{5/3}/4^{2/3}` keys.
//!
//! Columnsort with an extra step between steps 3 and 4: partition the
//! `r × s` matrix into `√s × √s` subblocks, convert each subblock into a
//! column, and sort the columns. The bit of Revsort inside: subblock
//! conversion spreads every column's content across `√s` columns, which
//! shrinks the dirty region from `O(s²)` rows (what steps 1–3 alone
//! guarantee) to `O(√s·s)` — relaxing the size condition from
//! `r ≥ 2(s−1)²` to `r ≥ 4s^{3/2}` and lifting capacity from `M√M/√2`
//! to `M^{5/3}/4^{2/3}`.
//!
//! Pass map (each pass = sort columns in memory + scatter):
//! 1. steps 1–2 (sort + transpose) — shared with `cc_columnsort`;
//! 2. step 3 + subblock conversion (sort + spread; within-target order is
//!    absorbed by the next pass's sort, so the conversion is a bucketed
//!    append);
//! 3. subblock-column sort + step 4 (untranspose) — shared scatter;
//! 4. steps 5–8 (sort + half-column shift merge) — shared.
//!
//! The paper notes this scheme *cannot* be made expected-two-pass by
//! skipping steps 1–2 (the monotonicity the subblock step needs would be
//! lost) — tested below.

use crate::cc_columnsort::{pass1_transpose, pass2_untranspose, pass3_shift_merge_window};
use pdm_model::prelude::*;

/// Report mirroring [`crate::cc_columnsort::CcReport`].
pub use crate::cc_columnsort::CcReport;

/// Largest legal column count: the biggest power of four `s` (so `√s` is a
/// power-of-two integer) with `4·s^{3/2} ≤ M` that divides `M/B`.
pub fn plan_cols(cfg: &PdmConfig) -> usize {
    let m = cfg.mem_capacity;
    let mut s = 1usize;
    loop {
        let next = s * 4;
        let rt = (next as f64).sqrt() as usize;
        if 4 * next * rt > m || (m / cfg.block_size) % next != 0 {
            return s;
        }
        s = next;
    }
}

/// Keys subblock columnsort sorts here: `M · plan_cols` (`≈ M^{5/3}/4^{2/3}`
/// up to power-of-four rounding).
pub fn capacity(cfg: &PdmConfig) -> usize {
    cfg.mem_capacity * plan_cols(cfg)
}

/// Sort `n ≤ capacity(cfg)` keys in four passes (Observation 6.1 baseline).
pub fn subblock_columnsort<K: PdmKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    input: &Region,
    n: usize,
) -> Result<CcReport> {
    let m = pdm.cfg().mem_capacity;
    let b = pdm.cfg().block_size;
    let dd = pdm.cfg().num_disks;
    // column count: smallest legal power of four covering n
    let s_max = plan_cols(pdm.cfg());
    let want = n.div_ceil(m);
    let mut s = 1usize;
    while s < want {
        s *= 4;
    }
    if n == 0 {
        return Err(PdmError::UnsupportedInput("empty input".into()));
    }
    if s > s_max {
        return Err(PdmError::UnsupportedInput(format!(
            "subblock columnsort sorts at most M·s = {} keys here; got {n}",
            m * s_max
        )));
    }
    let rt = (s as f64).sqrt() as usize;
    debug_assert_eq!(rt * rt, s);
    // reuse the cc dims for the shared passes (the cc condition 2(s−1)² ≤ M
    // may NOT hold here — that is the point — so build Dims directly)
    let d = crate::cc_columnsort::Dims {
        s,
        m,
        col_blocks: m / b,
        chunk: m / s,
    };
    if d.chunk % b != 0 {
        return Err(PdmError::BadConfig(format!(
            "column chunk M/s = {} is not block aligned",
            d.chunk
        )));
    }

    let tcols: Vec<Region> = (0..s)
        .map(|i| pdm.alloc_region_at(d.col_blocks, i % dd))
        .collect::<Result<_>>()?;
    let ccols: Vec<Region> = (0..s)
        .map(|i| pdm.alloc_region_at(d.col_blocks, i % dd))
        .collect::<Result<_>>()?;
    let ocols: Vec<Region> = (0..s)
        .map(|i| pdm.alloc_region_at(d.col_blocks, i % dd))
        .collect::<Result<_>>()?;
    let out = pdm.alloc_region(s * d.col_blocks)?;

    // Pass 1: steps 1-2.
    pdm.begin_phase("SB: steps 1-2");
    pass1_transpose(pdm, input, n, &d, &tcols)?;

    // Pass 2: step 3 + subblock conversion.
    pdm.begin_phase("SB: step 3 + subblock");
    {
        let _tail_guard = pdm.mem().acquire(s * b)?;
        let mut tails: Vec<Vec<K>> = vec![Vec::with_capacity(b); s];
        let mut next_block = vec![0usize; s];
        for (c, tcol) in tcols.iter().enumerate() {
            let mut buf = pdm.alloc_buf(m)?;
            let idx: Vec<usize> = (0..d.col_blocks).collect();
            pdm.read_blocks(tcol, &idx, buf.as_vec_mut())?;
            buf.sort_unstable(); // step 3
            pdm.begin_io_group();
            let cc0 = c / rt;
            for (i, &k) in buf.iter().enumerate() {
                // Subblock (brow, bcol) = (i/√s, c/√s) → target column
                // (brow + bcol·√s) mod s: the rotation sends the ≤ 2√s
                // dirty subblocks of the monotone 0-1 staircase to
                // *distinct* target columns and gives every target an
                // exact share of each block-column's clean subblocks —
                // that balance is what shrinks the dirty band to O(√s)
                // rows (Observation 6.1 / Revsort's idea).
                let tc = ((i / rt) + cc0 * rt) % s;
                tails[tc].push(k);
                if tails[tc].len() == b {
                    pdm.write_blocks(&ccols[tc], &[next_block[tc]], &tails[tc])?;
                    next_block[tc] += 1;
                    tails[tc].clear();
                }
            }
            pdm.end_io_group();
        }
        debug_assert!(
            tails.iter().all(Vec::is_empty),
            "per-source contributions are B-aligned; tails must drain"
        );
        debug_assert!(next_block.iter().all(|&nb| nb == d.col_blocks));
    }

    // Pass 3: sort converted columns + step 4 untranspose.
    pdm.begin_phase("SB: subblock sort + step 4");
    pass2_untranspose(pdm, &ccols, s * m, &d, &ocols)?;

    // Pass 4: steps 5-8, with a full-column sliding window: our oblivious
    // subblock conversion balances zeros to ~s elements per column (CCH's
    // exact conversion reaches 2√s rows), so the cleanup needs the same 2M
    // workspace the paper's own algorithms use.
    pdm.begin_phase("SB: steps 5-8");
    let clean = pass3_shift_merge_window(pdm, &ocols, &d, out, m)?;
    pdm.end_phase();
    if !clean {
        return Err(PdmError::UnsupportedInput(
            "subblock columnsort shift-merge produced an inversion".into(),
        ));
    }
    Ok(CcReport {
        output: out,
        n,
        read_passes: pdm.stats().read_passes(n, dd, b),
        write_passes: pdm.stats().write_passes(n, dd, b),
        fell_back: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_model::rng::SplitMix64;

    /// B = M^{1/3} machine with M = 4096: subblock s = 64 — beyond plain
    /// columnsort's 2(s−1)² ≤ M limit (s ≤ 46), inside 4·s^{3/2} ≤ M.
    fn machine() -> Pdm<u64> {
        Pdm::new(PdmConfig::new(4, 16, 4096)).unwrap()
    }

    fn sort_and_check(pdm: &mut Pdm<u64>, data: &[u64]) -> CcReport {
        let input = pdm.alloc_region_for_keys(data.len()).unwrap();
        pdm.ingest(&input, data).unwrap();
        pdm.reset_stats();
        let rep = subblock_columnsort(pdm, &input, data.len()).unwrap();
        let mut want = data.to_vec();
        want.sort_unstable();
        assert_eq!(pdm.inspect_prefix(&rep.output, data.len()).unwrap(), want);
        rep
    }

    #[test]
    fn plan_cols_satisfies_subblock_condition() {
        let cfg = PdmConfig::new(2, 16, 4096);
        let s = plan_cols(&cfg);
        assert_eq!(s, 64);
        let rt = (s as f64).sqrt() as usize;
        assert_eq!(rt * rt, s);
        assert!(4 * s * rt <= 4096); // r ≥ 4 s^{3/2}

        // and it exceeds plain columnsort's legal range
        assert!(2 * (s - 1) * (s - 1) > 4096);
    }

    #[test]
    fn capacity_exceeds_cc_columnsort() {
        let cfg = PdmConfig::new(2, 16, 4096);
        let sub = capacity(&cfg);
        let cc = crate::cc_columnsort::capacity(&cfg);
        assert!(sub > cc, "subblock {sub} ≤ cc {cc}");
    }

    #[test]
    fn sorts_beyond_plain_columnsort_capacity_in_four_passes() {
        let mut pdm = machine();
        let mut rng = SplitMix64::seed_from_u64(131);
        let n = 4096 * 64; // full subblock capacity
        let mut data: Vec<u64> = (0..n as u64).collect();
        rng.shuffle(&mut data);
        let rep = sort_and_check(&mut pdm, &data);
        assert!(
            (rep.read_passes - 4.0).abs() < 1e-9,
            "read {}",
            rep.read_passes
        );
        assert!((rep.write_passes - 4.0).abs() < 1e-9);
    }

    #[test]
    fn sorts_binary_threshold_inputs_at_full_width() {
        let mut rng = SplitMix64::seed_from_u64(132);
        let n = 4096 * 64;
        for k in [1usize, n / 3, n / 2, n - 1] {
            let mut pdm = machine();
            let mut data: Vec<u64> = (0..n).map(|i| u64::from(i >= k)).collect();
            rng.shuffle(&mut data);
            sort_and_check(&mut pdm, &data);
        }
    }

    #[test]
    fn sorts_adversarial_inputs() {
        let n = 4096 * 16; // s = 16 (legal for plain too, but exercises path)
        for data in [
            (0..n as u64).rev().collect::<Vec<_>>(),
            vec![1u64; n],
            (0..n as u64).map(|i| i % 97).collect::<Vec<_>>(),
        ] {
            let mut pdm = machine();
            sort_and_check(&mut pdm, &data);
        }
    }

    #[test]
    fn partial_inputs_pad() {
        let mut rng = SplitMix64::seed_from_u64(133);
        for n in [100usize, 5000, 100_000] {
            let mut pdm = machine();
            let data: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1u64 << 30)).collect();
            sort_and_check(&mut pdm, &data);
        }
    }

    #[test]
    fn rejects_oversized() {
        let mut pdm = machine();
        let cap = capacity(pdm.cfg());
        let input = pdm.alloc_region_for_keys(64).unwrap();
        assert!(subblock_columnsort(&mut pdm, &input, cap + 1).is_err());
    }
}

#[cfg(test)]
mod diag {
    use super::*;
    use crate::cc_columnsort::{pass1_transpose, pass2_untranspose};
    use pdm_model::rng::SplitMix64;

    #[test]
    #[ignore]
    fn trace_dirty_band_k14336() {
        let mut rng = SplitMix64::seed_from_u64(131);
        let n = 4096 * 64;
        let mut data: Vec<u64> = (0..n as u64).collect();
        rng.shuffle(&mut data);
        let proj: Vec<u64> = data
            .iter()
            .map(|&x| u64::from((x as usize) >= 14336))
            .collect();
        let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::new(4, 16, 4096)).unwrap();
        let input = pdm.alloc_region_for_keys(n).unwrap();
        pdm.ingest(&input, &proj).unwrap();

        let (m, b, s, rt) = (4096usize, 16usize, 64usize, 8usize);
        let d = crate::cc_columnsort::Dims {
            s,
            m,
            col_blocks: m / b,
            chunk: m / s,
        };
        let tcols: Vec<Region> = (0..s)
            .map(|i| pdm.alloc_region_at(d.col_blocks, i % 4).unwrap())
            .collect();
        let ccols: Vec<Region> = (0..s)
            .map(|i| pdm.alloc_region_at(d.col_blocks, i % 4).unwrap())
            .collect();
        let ocols: Vec<Region> = (0..s)
            .map(|i| pdm.alloc_region_at(d.col_blocks, i % 4).unwrap())
            .collect();

        pass1_transpose(&mut pdm, &input, n, &d, &tcols).unwrap();
        let z: Vec<usize> = (0..s)
            .map(|c| {
                pdm.inspect(&tcols[c])
                    .unwrap()
                    .iter()
                    .filter(|&&x| x == 0)
                    .count()
            })
            .collect();
        println!(
            "tcol zeros: min {} max {}",
            z.iter().min().unwrap(),
            z.iter().max().unwrap()
        );

        // pass 2: subblock
        let mut tails: Vec<Vec<u64>> = vec![Vec::with_capacity(b); s];
        let mut next_block = vec![0usize; s];
        for (c, tcol) in tcols.iter().enumerate() {
            let mut buf = pdm.alloc_buf(m).unwrap();
            let idx: Vec<usize> = (0..d.col_blocks).collect();
            pdm.read_blocks(tcol, &idx, buf.as_vec_mut()).unwrap();
            buf.sort_unstable();
            let cc0 = c / rt;
            for (i, &k) in buf.iter().enumerate() {
                let tc = ((i / rt) + cc0 * rt) % s;
                tails[tc].push(k);
                if tails[tc].len() == b {
                    pdm.write_blocks(&ccols[tc], &[next_block[tc]], &tails[tc])
                        .unwrap();
                    next_block[tc] += 1;
                    tails[tc].clear();
                }
            }
        }
        let z2: Vec<usize> = (0..s)
            .map(|c| {
                pdm.inspect(&ccols[c])
                    .unwrap()
                    .iter()
                    .filter(|&&x| x == 0)
                    .count()
            })
            .collect();
        println!(
            "ccol zeros: min {} max {}",
            z2.iter().min().unwrap(),
            z2.iter().max().unwrap()
        );

        pass2_untranspose(&mut pdm, &ccols, s * m, &d, &ocols).unwrap();
        let z3: Vec<usize> = (0..s)
            .map(|c| {
                pdm.inspect(&ocols[c])
                    .unwrap()
                    .iter()
                    .filter(|&&x| x == 0)
                    .count()
            })
            .collect();
        println!("ocol zeros: {:?}", z3);
    }
}
