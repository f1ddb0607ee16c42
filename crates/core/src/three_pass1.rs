//! `ThreePass1` (paper §3.1, Theorem 3.1): the mesh-based three-pass sort
//! of up to `M·√M` keys with `B = √M`.
//!
//! The input is viewed as an `(N/√M) × √M` mesh, processed as stacked
//! `√M × √M` submeshes (one submesh = `M` keys = one memory load):
//!
//! * **Pass 1 — submesh sorts.** Sort each submesh into row-major order,
//!   with the row direction alternating between consecutive submeshes
//!   (the Shearsort trick). Write each submesh *column* as one block into
//!   the per-column regions.
//! * **Pass 2 — column sorts.** Each full mesh column is `N/√M ≤ M` keys:
//!   read it, sort vertically, and scatter its band segments (one block
//!   per `√M`-row band) into the per-band regions.
//! * **Pass 3 — cleanup.** After pass 2 at most `√M/2 + O(1)` *contiguous*
//!   rows are dirty (submesh sorting leaves ≤ 1 dirty row each; the
//!   alternating directions halve them under the column sort — the
//!   Shearsort principle). A band of `√M` rows is `M` keys, so the
//!   streaming [`Cleaner`] with window `M` (tolerance ±`√M` rows) finishes
//!   deterministically.
//!
//! `ExpTwoPassMesh` (§3.2) is this algorithm minus pass 1 — see
//! [`crate::exp_two_pass_mesh`](mod@crate::exp_two_pass_mesh).

use crate::common::{
    alloc_staggered, require_square_cfg, Algorithm, Cleaner, RegionEmitter, SortReport,
};
use pdm_mesh::{layout_sorted_rows, Direction};
use pdm_model::prelude::*;

/// Maximum keys `ThreePass1` sorts on a machine with memory `m`: `M·√M`.
pub fn capacity(m: usize) -> usize {
    let b = (m as f64).sqrt() as usize;
    m * b
}

/// Tuning knobs, exposed for the ablation experiments.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Alternate the row direction between consecutive submeshes in pass 1
    /// (the paper's scheme). Disabling it is the E2 ablation: correctness
    /// is retained by the wide cleanup window, but the dirty band after
    /// pass 2 roughly doubles.
    pub alternate_directions: bool,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            alternate_directions: true,
        }
    }
}

struct MeshPlan {
    /// `√M`: mesh width, block size, band height.
    b: usize,
    /// Submesh count `= N/M ≤ √M` (also the band count).
    s_count: usize,
    /// `M`.
    m: usize,
}

fn mesh_plan<K: PdmKey, S: Storage<K>>(pdm: &Pdm<K, S>, n: usize) -> Result<MeshPlan> {
    let b = require_square_cfg(pdm.cfg())?;
    let m = pdm.cfg().mem_capacity;
    if n == 0 {
        return Err(PdmError::UnsupportedInput("empty input".into()));
    }
    let s_count = n.div_ceil(m);
    if s_count > b {
        return Err(PdmError::UnsupportedInput(format!(
            "ThreePass1 sorts at most M√M = {} keys; got {n}",
            capacity(m)
        )));
    }
    Ok(MeshPlan { b, s_count, m })
}

/// Sort `n ≤ M√M` keys from `input` in three passes (Theorem 3.1) with the
/// default options.
pub fn three_pass1<K: PdmKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    input: &Region,
    n: usize,
) -> Result<SortReport> {
    three_pass1_with(pdm, input, n, Options::default())
}

/// [`three_pass1`] with explicit [`Options`].
pub fn three_pass1_with<K: PdmKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    input: &Region,
    n: usize,
    opts: Options,
) -> Result<SortReport> {
    let MeshPlan { b, s_count, m } = mesh_plan(pdm, n)?;
    let cols = alloc_staggered(pdm, b, s_count)?;
    let bands = alloc_staggered(pdm, s_count, b)?;
    let out = pdm.alloc_region_for_keys(s_count * m)?;
    let in_blocks = input.len_blocks();

    // Pass 1: sort submeshes, write column-major blocks. Reads run one
    // submesh ahead and column writes retire behind (input and column
    // regions are disjoint, so the reorder is safe); with overlap off
    // both helpers degenerate to the blocking batches.
    pdm.begin_phase("3P1: submesh sorts");
    let steps: Vec<Vec<(Region, usize)>> = (0..s_count)
        .map(|s| {
            let lo = s * b;
            let hi = ((s + 1) * b).min(in_blocks);
            (lo..hi).map(|i| (*input, i)).collect()
        })
        .collect();
    let mut ra = ReadAhead::new(pdm, steps)?;
    let mut wb = WriteBehind::new(pdm);
    for s in 0..s_count {
        let mut buf = pdm.alloc_buf(m)?;
        let lo = s * b;
        ra.next_into(pdm, buf.as_vec_mut())?;
        buf.truncate(n.saturating_sub(lo * b).min(m));
        buf.resize(m, K::MAX);
        buf.sort_unstable();
        let dir = if opts.alternate_directions && s % 2 == 1 {
            Direction::Desc
        } else {
            Direction::Asc
        };
        let rows = layout_sorted_rows(&buf, b, |_| dir);
        // Column c of this submesh (one block): wbuf[c*b + r] = rows[r*b + c].
        let mut wbuf = pdm.alloc_buf(m)?;
        {
            let v = wbuf.as_vec_mut();
            v.resize(m, K::MAX);
            for c in 0..b {
                for r in 0..b {
                    v[c * b + r] = rows[r * b + c];
                }
            }
        }
        wb.write(pdm, cols.iter().map(|c| (*c, s)), &wbuf)?;
    }
    wb.finish(pdm)?; // drain before the phase boundary

    // Pass 2: sort full columns vertically, scatter band segments.
    pdm.begin_phase("3P1: column sorts");
    let col_len = s_count * b;
    let steps: Vec<Vec<(Region, usize)>> = cols
        .iter()
        .map(|col| (0..s_count).map(|i| (*col, i)).collect())
        .collect();
    let mut ra = ReadAhead::new(pdm, steps)?;
    let mut wb = WriteBehind::new(pdm);
    for c in 0..cols.len() {
        let mut buf = pdm.alloc_buf(col_len)?;
        ra.next_into(pdm, buf.as_vec_mut())?;
        buf.sort_unstable();
        // band t's segment is buf[t*b..(t+1)*b] — already contiguous.
        wb.write(pdm, bands.iter().map(|t| (*t, c)), &buf)?;
    }
    wb.finish(pdm)?;

    // Pass 3: stream bands through the cleanup window.
    pdm.begin_phase("3P1: cleanup");
    let mut cleaner = Cleaner::new(pdm, m)?;
    let mut emitter = RegionEmitter::new(out);
    let steps: Vec<Vec<(Region, usize)>> = bands
        .iter()
        .map(|band| (0..b).map(|i| (*band, i)).collect())
        .collect();
    let mut ra = ReadAhead::new(pdm, steps)?;
    let mut wb = WriteBehind::new(pdm);
    let mut emit = |pd: &mut Pdm<K, S>, ks: &[K]| emitter.emit_behind(pd, &mut wb, ks);
    for _ in 0..bands.len() {
        cleaner.feed_from(pdm, &mut ra)?;
        cleaner.process(pdm, &mut emit)?;
    }
    let (emitted, clean) = cleaner.finish(pdm, &mut emit)?;
    wb.finish(pdm)?;
    pdm.end_phase();

    debug_assert_eq!(emitted, s_count * m);
    if !clean {
        return Err(PdmError::UnsupportedInput(
            "ThreePass1 cleanup detected an inversion — dirty band exceeded one submesh".into(),
        ));
    }
    Ok(SortReport::from_stats(
        pdm,
        out,
        n,
        Algorithm::ThreePass1,
        false,
    ))
}

/// Measure the dirty band (in rows) of a 0-1 input after pass 2 — the
/// quantity Theorem 3.1's proof bounds by `√M/2`. Used by experiment E2's
/// ablation; runs passes 1–2 only, reading the mesh state back unaccounted.
pub fn dirty_rows_after_pass2<K: PdmKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    input: &Region,
    n: usize,
    opts: Options,
    zero: K,
    one: K,
) -> Result<usize> {
    let MeshPlan { b, s_count, m } = mesh_plan(pdm, n)?;
    if n != s_count * m {
        return Err(PdmError::UnsupportedInput(
            "dirty-row measurement requires n to be a multiple of M".into(),
        ));
    }
    let cols = alloc_staggered(pdm, b, s_count)?;
    let in_blocks = input.len_blocks();
    // pass 1 (as in the sort)
    for s in 0..s_count {
        let mut buf = pdm.alloc_buf(m)?;
        let lo = s * b;
        let hi = ((s + 1) * b).min(in_blocks);
        pdm.read_blocks((lo..hi).map(|i| (*input, i)), buf.as_vec_mut())?;
        buf.sort_unstable();
        let dir = if opts.alternate_directions && s % 2 == 1 {
            Direction::Desc
        } else {
            Direction::Asc
        };
        let rows = layout_sorted_rows(&buf, b, |_| dir);
        let mut wbuf = pdm.alloc_buf(m)?;
        {
            let v = wbuf.as_vec_mut();
            v.resize(m, K::MAX);
            for c in 0..b {
                for r in 0..b {
                    v[c * b + r] = rows[r * b + c];
                }
            }
        }
        pdm.write_blocks(cols.iter().map(|c| (*c, s)), &wbuf)?;
    }
    // pass 2, keeping the sorted columns to measure dirtiness
    let col_len = s_count * b;
    let mut sorted_cols: Vec<Vec<K>> = Vec::with_capacity(b);
    for col in &cols {
        let mut buf = pdm.alloc_buf(col_len)?;
        pdm.read_blocks((0..s_count).map(|i| (*col, i)), buf.as_vec_mut())?;
        buf.sort_unstable();
        sorted_cols.push(buf.as_vec().clone());
        // (measurement only — columns are not written back)
    }
    // a row is dirty iff it mixes zero and one across the b columns
    let rows_total = col_len;
    let mut dirty = 0usize;
    for r in 0..rows_total {
        let mut has_zero = false;
        let mut has_one = false;
        for col in &sorted_cols {
            if col[r] == zero {
                has_zero = true;
            } else if col[r] == one {
                has_one = true;
            }
        }
        dirty += usize::from(has_zero && has_one);
    }
    Ok(dirty)
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
        three_pass1(pdm, &input, data.len()).unwrap()
    }

    fn check_sorted(pdm: &mut Pdm<u64>, rep: &SortReport, data: &[u64]) {
        let mut want = data.to_vec();
        want.sort_unstable();
        let got = pdm.inspect_prefix(&rep.output, data.len()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn sorts_full_capacity_random_input() {
        let mut pdm = machine(4, 8);
        let mut rng = SplitMix64::seed_from_u64(21);
        let data: Vec<u64> = (0..512).map(|_| rng.gen_range(0..1u64 << 40)).collect();
        let rep = run_sort(&mut pdm, &data);
        check_sorted(&mut pdm, &rep, &data);
        assert_eq!(rep.algorithm, Algorithm::ThreePass1);
    }

    #[test]
    fn takes_exactly_three_passes_at_full_capacity() {
        let mut pdm = machine(4, 16); // M = 256, N = 4096
        let mut rng = SplitMix64::seed_from_u64(22);
        let mut data: Vec<u64> = (0..4096).collect();
        rng.shuffle(&mut data);
        let rep = run_sort(&mut pdm, &data);
        check_sorted(&mut pdm, &rep, &data);
        assert!(
            (rep.read_passes - 3.0).abs() < 1e-9,
            "read {}",
            rep.read_passes
        );
        assert!(
            (rep.write_passes - 3.0).abs() < 1e-9,
            "write {}",
            rep.write_passes
        );
        assert!(rep.peak_mem <= 2 * 256, "peak {}", rep.peak_mem);
        assert!(pdm.stats().read_parallel_efficiency(4) > 0.99);
    }

    #[test]
    fn sorts_binary_inputs_all_thresholds() {
        let mut pdm = machine(2, 8);
        let mut rng = SplitMix64::seed_from_u64(23);
        for k in [0usize, 1, 64, 200, 256, 300, 511, 512] {
            let mut data: Vec<u64> = (0..512).map(|i| u64::from(i >= k)).collect();
            rng.shuffle(&mut data);
            let rep = run_sort(&mut pdm, &data);
            check_sorted(&mut pdm, &rep, &data);
        }
    }

    #[test]
    fn sorts_adversarial_and_partial_inputs() {
        let mut pdm = machine(2, 8);
        for data in [
            (0..512u64).rev().collect::<Vec<_>>(),
            vec![1u64; 512],
            (0..300u64).rev().collect::<Vec<_>>(), // partial (padded)
            (0..65u64).collect::<Vec<_>>(),
        ] {
            let rep = run_sort(&mut pdm, &data);
            check_sorted(&mut pdm, &rep, &data);
        }
    }

    #[test]
    fn exhaustive_small_binary_meshes() {
        // b = 4 (M = 16, N up to 64): all 2^16 binary inputs at N = 16 (one
        // submesh — degenerate but must work), plus sampled N = 64.
        let mut rng = SplitMix64::seed_from_u64(24);
        for trial in 0..2000 {
            let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(2, 4)).unwrap();
            let n = 64;
            let k = rng.gen_range(0..=n);
            let mut data: Vec<u64> = (0..n).map(|i| u64::from(i >= k)).collect();
            rng.shuffle(&mut data);
            let rep = run_sort(&mut pdm, &data);
            let got = pdm.inspect_prefix(&rep.output, n).unwrap();
            assert!(
                got.windows(2).all(|w| w[0] <= w[1]),
                "trial {trial} k={k} unsorted"
            );
        }
    }

    #[test]
    fn dirty_band_bounded_by_half_submesh_with_alternation() {
        let mut rng = SplitMix64::seed_from_u64(25);
        let b = 16usize;
        let n = b * b * b; // full capacity
        let mut worst_alt = 0usize;
        let mut worst_no_alt = 0usize;
        for _ in 0..10 {
            let k = rng.gen_range(0..=n);
            let mut data: Vec<u64> = (0..n).map(|i| u64::from(i >= k)).collect();
            rng.shuffle(&mut data);
            for (alternate, worst) in [(true, &mut worst_alt), (false, &mut worst_no_alt)] {
                let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(4, b)).unwrap();
                let input = pdm.alloc_region_for_keys(n).unwrap();
                pdm.ingest(&input, &data).unwrap();
                let d = dirty_rows_after_pass2(
                    &mut pdm,
                    &input,
                    n,
                    Options {
                        alternate_directions: alternate,
                    },
                    0,
                    1,
                )
                .unwrap();
                *worst = (*worst).max(d);
            }
        }
        // Theorem 3.1 proof: ≤ b/2 dirty rows with alternation (allow +1
        // slack for parity effects); without alternation only ≤ b holds.
        assert!(
            worst_alt <= b / 2 + 1,
            "alternating: {worst_alt} dirty rows > b/2"
        );
        assert!(worst_no_alt <= b, "non-alternating: {worst_no_alt} > b");
    }

    #[test]
    fn rejects_oversized_input() {
        let mut pdm = machine(2, 8);
        let input = pdm.alloc_region_for_keys(513).unwrap();
        assert!(three_pass1(&mut pdm, &input, 513).is_err());
    }

    #[test]
    fn overlap_changes_nothing_but_wall_clock() {
        let mut rng = SplitMix64::seed_from_u64(27);
        let data: Vec<u64> = (0..512).map(|_| rng.gen_range(0..1u64 << 40)).collect();
        let run = |overlap: bool| {
            let mut pdm = machine(4, 8);
            pdm.set_overlap(overlap);
            let input = pdm.alloc_region_for_keys(data.len()).unwrap();
            pdm.ingest(&input, &data).unwrap();
            pdm.reset_stats();
            let rep = three_pass1(&mut pdm, &input, data.len()).unwrap();
            assert_eq!(pdm.pending_io(), 0, "phases must drain all overlap I/O");
            let got = pdm.inspect_prefix(&rep.output, data.len()).unwrap();
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
    fn agrees_with_three_pass2() {
        let mut rng = SplitMix64::seed_from_u64(26);
        let data: Vec<u64> = (0..512).map(|_| rng.gen_range(0..1000)).collect();
        let mut pdm1 = machine(4, 8);
        let rep1 = run_sort(&mut pdm1, &data);
        let got1 = pdm1.inspect_prefix(&rep1.output, 512).unwrap();
        let mut pdm2 = machine(4, 8);
        let input = pdm2.alloc_region_for_keys(512).unwrap();
        pdm2.ingest(&input, &data).unwrap();
        let rep2 = crate::three_pass2::three_pass2(&mut pdm2, &input, 512).unwrap();
        let got2 = pdm2.inspect_prefix(&rep2.output, 512).unwrap();
        assert_eq!(got1, got2);
    }
}
