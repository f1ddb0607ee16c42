//! `ExpTwoPassMesh` (paper §3.2, Theorem 3.2): `ThreePass1` with pass 1
//! removed — two passes for `N ≈ M√M/(c·α·ln M)` keys on a `≥ 1 − M^{−α}`
//! fraction of inputs.
//!
//! The input is arranged into the `(N/√M) × √M` mesh *column-major*, so a
//! full mesh column is a contiguous, block-aligned `≤ M`-key segment of
//! the input:
//!
//! * **Pass 1 — column sorts.** Sort each column; scatter its band
//!   segments (one block per `√M`-row band).
//! * **Pass 2 — cleanup.** For a random input the columns are a uniform
//!   random partition of the keys, so after sorting them the 0-1 dirty
//!   band has `O(√((α+2)·rows·ln N))` rows (balls-in-bins/Chernoff, the
//!   paper's proof of Theorem 3.2) — under the capacity bound that is at
//!   most `√M` rows = one `M`-key band, which the streaming [`Cleaner`]
//!   absorbs. The online check catches bad inputs; fallback is the
//!   deterministic `ThreePass2` (Lemma 4.1), as the paper prescribes.

use crate::common::{
    alloc_staggered, require_square_cfg, Algorithm, Cleaner, RegionEmitter, SortReport,
};
use crate::three_pass2;
use pdm_model::prelude::*;

/// Theorem 3.2 capacity estimate: `M√M / (3·(α+2)·ln M)` keys (the paper
/// leaves the constant unspecified; 3 matches the Chernoff-based dirty-band
/// bound `√(2(α+2)·rows·ln N) ≤ √M` and is validated empirically in E3).
pub fn capacity(m: usize, alpha: f64) -> usize {
    let mf = m as f64;
    (mf * mf.sqrt() / (3.0 * (alpha + 2.0) * mf.ln())) as usize
}

/// Sort `n` keys in an expected two passes (Theorem 3.2). For the
/// guarantee keep `n ≤ capacity(M, α)`; larger inputs (up to `M√M`) are
/// accepted but fall back increasingly often.
pub fn exp_two_pass_mesh<K: PdmKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    input: &Region,
    n: usize,
) -> Result<SortReport> {
    let b = require_square_cfg(pdm.cfg())?;
    let m = pdm.cfg().mem_capacity;
    if n == 0 {
        return Err(PdmError::UnsupportedInput("empty input".into()));
    }
    // rows per column, rounded up to whole bands of b rows
    let rows = n.div_ceil(b).div_ceil(b) * b;
    if rows > m {
        return Err(PdmError::UnsupportedInput(format!(
            "ExpTwoPassMesh sorts at most M√M = {} keys; got {n}",
            m * b
        )));
    }
    let bands = rows / b; // each band: b rows × b cols = M keys
    let col_blocks = rows / b;
    let band_regions = alloc_staggered(pdm, bands, b)?;
    let out = pdm.alloc_region_for_keys(rows * b)?;
    let in_blocks = input.len_blocks();

    // Pass 1: sort columns (column c = input positions [c·rows, (c+1)·rows)).
    pdm.begin_phase("E2PM: column sorts");
    for c in 0..b {
        let mut buf = pdm.alloc_buf(rows)?;
        let lo = c * col_blocks;
        let hi = ((c + 1) * col_blocks).min(in_blocks);
        if lo < hi {
            pdm.read_blocks((lo..hi).map(|i| (*input, i)), buf.as_vec_mut())?;
        }
        buf.truncate(n.saturating_sub(lo * b).min(rows));
        buf.resize(rows, K::MAX);
        buf.sort_unstable();
        // band t's segment is buf[t*b..(t+1)*b] — contiguous
        pdm.write_blocks(band_regions.iter().map(|t| (*t, c)), &buf)?;
    }

    // Pass 2: streaming cleanup with online verification.
    pdm.begin_phase("E2PM: cleanup+verify");
    let mut cleaner = Cleaner::new(pdm, m)?;
    let mut emitter = RegionEmitter::new(out);
    let mut emit = |pd: &mut Pdm<K, S>, ks: &[K]| emitter.emit(pd, ks);
    let mut aborted = false;
    for band in &band_regions {
        cleaner.feed_blocks(pdm, (0..b).map(|i| (*band, i)))?;
        cleaner.process(pdm, &mut emit)?;
        if !cleaner.clean() {
            aborted = true;
            break;
        }
    }
    let clean = if aborted {
        drop(cleaner);
        false
    } else {
        let (_, c) = cleaner.finish(pdm, &mut emit)?;
        c
    };
    pdm.end_phase();

    if clean {
        return Ok(SortReport::from_stats(
            pdm,
            out,
            n,
            Algorithm::ExpTwoPassMesh,
            false,
        ));
    }
    pdm.begin_phase("E2PM: fallback ThreePass2");
    let rep = three_pass2::three_pass2(pdm, input, n)?;
    pdm.end_phase();
    Ok(SortReport {
        algorithm: Algorithm::ExpTwoPassMesh,
        fell_back: true,
        ..SortReport::from_stats(pdm, rep.output, n, Algorithm::ExpTwoPassMesh, true)
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
        exp_two_pass_mesh(pdm, &input, data.len()).unwrap()
    }

    fn check_sorted(pdm: &mut Pdm<u64>, rep: &SortReport, data: &[u64]) {
        let mut want = data.to_vec();
        want.sort_unstable();
        let got = pdm.inspect_prefix(&rep.output, data.len()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn capacity_is_sublinear_in_ln_m() {
        let m = 1 << 16;
        let c = capacity(m, 1.0);
        assert!(c > m, "capacity {c} should exceed M");
        assert!(c < m * (1 << 8), "capacity {c} should be below M√M");
        assert!(capacity(m, 2.0) < c);
    }

    #[test]
    fn sorts_random_input_in_two_passes() {
        // M = 1024, b = 32, N = 2048 → rows = 64, 2 blocks per column
        // read: D = 2 keeps the short column reads stripe-full (at real
        // scale rows ≫ D·B and any D works).
        let mut pdm = machine(2, 32);
        let mut rng = SplitMix64::seed_from_u64(71);
        let mut data: Vec<u64> = (0..2048).collect();
        rng.shuffle(&mut data);
        let rep = run_sort(&mut pdm, &data);
        check_sorted(&mut pdm, &rep, &data);
        assert!(!rep.fell_back, "random input fell back");
        assert!(
            (rep.read_passes - 2.0).abs() < 1e-9,
            "read {}",
            rep.read_passes
        );
        assert!(rep.peak_mem <= 2 * 1024 + 256);
        assert!(pdm.stats().read_parallel_efficiency(2) > 0.99);
    }

    #[test]
    fn random_inputs_rarely_fall_back() {
        let mut rng = SplitMix64::seed_from_u64(72);
        let mut fallbacks = 0;
        for _ in 0..20 {
            let mut pdm = machine(2, 16);
            let mut data: Vec<u64> = (0..1024).collect(); // rows = 64 ≤ M/4
            rng.shuffle(&mut data);
            let rep = run_sort(&mut pdm, &data);
            check_sorted(&mut pdm, &rep, &data);
            fallbacks += usize::from(rep.fell_back);
        }
        assert!(fallbacks <= 2, "{fallbacks}/20 fell back");
    }

    #[test]
    fn adversarial_input_falls_back_and_sorts() {
        // Column-major reverse order puts each column in a disjoint range →
        // dirty band spans everything → must abort and fall back.
        let mut pdm = machine(2, 16);
        let n = 4096; // full M√M
        let data: Vec<u64> = (0..n as u64).rev().collect();
        let rep = run_sort(&mut pdm, &data);
        check_sorted(&mut pdm, &rep, &data);
        assert!(rep.fell_back);
        assert!(rep.read_passes <= 5.0 + 1e-9, "read {}", rep.read_passes);
    }

    #[test]
    fn partial_inputs_with_padding() {
        let mut rng = SplitMix64::seed_from_u64(73);
        for n in [10usize, 255, 256, 1000] {
            let mut pdm = machine(2, 16);
            let data: Vec<u64> = (0..n).map(|_| rng.gen_range(0..10_000)).collect();
            let rep = run_sort(&mut pdm, &data);
            check_sorted(&mut pdm, &rep, &data);
        }
    }

    #[test]
    fn rejects_oversized_and_empty() {
        let mut pdm = machine(2, 8);
        let input = pdm.alloc_region_for_keys(64).unwrap();
        assert!(exp_two_pass_mesh(&mut pdm, &input, 513).is_err());
        assert!(exp_two_pass_mesh(&mut pdm, &input, 0).is_err());
    }
}
