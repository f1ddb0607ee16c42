//! `ThreePass2` (paper §4, Lemma 4.1): the LMM-based three-pass sort of up
//! to `M·√M` keys with `B = √M`.
//!
//! Specialization of the `(l, m)`-merge sort with `l = N/M ≤ √M` runs and
//! `m = √M`:
//!
//! * **Pass 1 — runs + unshuffle.** Read `M` keys at a time, sort in
//!   memory ([`kernels::sort_run`], which radix-sorts integer keys through
//!   the write buffer), and write each run *already unshuffled* into
//!   `m = √M` parts of one block each (part `j` takes sorted positions
//!   `≡ j (mod m)`). Part `j` of run `i` is block `i` of column `j`.
//! * **Pass 2 — column merges.** For each `j`: read column `j` (`l` sorted
//!   blocks, `≤ M` keys), merge in memory into `L_j` (integer keys are
//!   radix-sorted instead, [`kernels::sort_segments`]; the result is the
//!   same), and write `L_j`'s `√M`-key chunks as the *windows*' blocks —
//!   chunk `t` is window `t`, block `j`.
//! * **Pass 3 — shuffle + cleanup.** Window `t` holds exactly the keys of
//!   `Z_t` (the `t`-th `M`-key window of the shuffled sequence `Z`). Since
//!   the cleanup sorts each window anyway, the shuffle permutation never
//!   needs materializing — stream the windows through the [`Cleaner`]
//!   (carry one window, emit the smallest `M` per step). The `(l, m)`-merge
//!   dirty bound `l·m ≤ M` guarantees the stream comes out sorted.
//!
//! Each pass reads every block once and writes every block once, so
//! [`three_pass2`] writes each pass over the blocks it has read. Its work
//! area is the input, plus a tail with the blocks a short last run lacks
//! when `N` is not a multiple of `M`, and part `j` of run `i` lives in
//! block `cell(i, j) = i·√M + (i + j) mod √M`. Pass 1 writes run `i`'s
//! parts over run `i`'s blocks; pass 2 writes column `j`'s chunk `t` back
//! into `cell(t, j)`, so window `t` is run `t`'s blocks; pass 3 writes
//! output chunk `t` over window `t`, which the cleanup has consumed by
//! then. The output region is the input, and the sort holds 1.00× the
//! input plus the tail.
//!
//! `cell(i, j)` lies on disk `(i + j) mod D`, the disk a staggered region
//! start gives column `j`'s block `i` and window `i`'s block `j`, so all
//! three passes do stripe-parallel I/O either way. The columns and windows
//! take staggered regions of their own in two cases. With a checkpoint
//! store attached, a resumed pass re-reads its source from the first
//! block, so no pass may write over it: each pass writes into the levels
//! of the region the pass before it was the last to read
//! ([`Pdm::release_region`]), the windows over the input and the output
//! over the columns, each allocated after the phase boundary that frees
//! those levels, and the sort holds 2.00× the input. The inner sorts of
//! `SevenPass` and of the expected three-pass sort, whose input is a part
//! of a region, allocate them up front and release none.

use crate::common::{
    require_square_cfg, Algorithm, Cells, Cleaner, Emit, RegionEmitter, SortReport,
};
use crate::kernels;
use pdm_model::prelude::*;

/// Maximum keys `ThreePass2` sorts on a machine with memory `m`: `M·√M`.
pub fn capacity(m: usize) -> usize {
    let b = (m as f64).sqrt() as usize;
    m * b
}

/// Plan shared by `ThreePass2` and the run-formation stage of `SevenPass`.
pub(crate) struct Plan {
    /// `√M` — block size, parts per run, merge fan-in.
    pub b: usize,
    /// Number of runs, `⌈n / M⌉ ≤ √M`.
    pub l: usize,
    /// Memory size `M = b²`.
    pub m: usize,
}

pub(crate) fn plan<K: PdmKey, S: Storage<K>>(pdm: &Pdm<K, S>, n: usize) -> Result<Plan> {
    let b = require_square_cfg(pdm.cfg())?;
    let m = pdm.cfg().mem_capacity;
    if n == 0 {
        return Err(PdmError::UnsupportedInput("empty input".into()));
    }
    let l = n.div_ceil(m);
    if l > b {
        return Err(PdmError::UnsupportedInput(format!(
            "ThreePass2 sorts at most M√M = {} keys; got {n}",
            capacity(m)
        )));
    }
    Ok(Plan { b, l, m })
}

/// Pass 1: form `l` sorted runs of `M` keys (padding the tail with `K::MAX`)
/// and write them unshuffled, part `j` of run `i` to `cells.col(i, j)`.
pub(crate) fn pass1_runs_unshuffled<K: PdmKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    input: &Region,
    n: usize,
    p: &Plan,
    cells: &Cells,
) -> Result<()> {
    let Plan { b, l, m } = *p;
    let in_blocks = input.len_blocks();
    // Reads run one submesh ahead and the part writes retire behind: run
    // `i`'s parts land in separate columns or over run `i`'s own blocks,
    // which are read by then, never in a later run's blocks.
    // SevenPass hands short (even empty) segments whose tail runs are all
    // padding — schedule read-ahead only where the blocking path reads.
    let steps: Vec<Vec<(Region, usize)>> = (0..l)
        .filter_map(|i| {
            let lo = i * b;
            let hi = ((i + 1) * b).min(in_blocks);
            (lo < hi).then(|| (lo..hi).map(|j| (*input, j)).collect())
        })
        .collect();
    let mut ra = ReadAhead::new(pdm, steps)?;
    let mut wb = WriteBehind::new(pdm);
    for i in 0..l {
        let mut run = pdm.alloc_buf(m)?;
        let lo = i * b;
        let hi = ((i + 1) * b).min(in_blocks);
        if lo < hi {
            ra.next_into(pdm, run.as_vec_mut())?;
        }
        // Sort the real keys, then pad: a `MAX` key would make every byte
        // of a radix key vary. The write buffer is the sort's scratch.
        run.truncate(n.saturating_sub(lo * b).min(m));
        let mut wbuf = pdm.alloc_buf(m)?;
        kernels::sort_run(run.as_vec_mut(), wbuf.as_vec_mut());
        run.resize(m, K::MAX);

        // Unshuffle: part j gets sorted positions j, j+b, j+2b, … — a b×b
        // transpose into the write buffer (block j contiguous).
        {
            let v = wbuf.as_vec_mut();
            v.resize(m, K::MAX);
            for j in 0..b {
                for k in 0..b {
                    v[j * b + k] = run[k * b + j];
                }
            }
        }
        wb.write(pdm, (0..b).map(|j| cells.col(i, j)), &wbuf)?;
    }
    wb.finish(pdm) // drain before the caller's phase boundary
}

/// Pass 2: merge each column's `l` sorted blocks into `L_j` and scatter its
/// `√M`-key chunks across the windows, chunk `t` to `cells.win(t, j)`.
/// Integer keys are sorted rather than merged ([`kernels::sort_segments`]).
pub(crate) fn pass2_column_merges<K: PdmKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    p: &Plan,
    cells: &Cells,
) -> Result<()> {
    let Plan { b, l, .. } = *p;
    let steps: Vec<Vec<(Region, usize)>> = (0..b)
        .map(|j| (0..l).map(|i| cells.col(i, j)).collect())
        .collect();
    let mut ra = ReadAhead::new(pdm, steps)?;
    let mut wb = WriteBehind::new(pdm);
    for j in 0..b {
        let mut buf = pdm.alloc_buf(l * b)?;
        ra.next_into(pdm, buf.as_vec_mut())?;
        let mut scratch = pdm.alloc_buf(l * b)?;
        kernels::sort_segments(buf.as_vec_mut(), b, scratch.as_vec_mut());
        wb.write(pdm, (0..l).map(|t| cells.win(t, j)), &buf)?;
    }
    wb.finish(pdm)
}

/// Pass 3: stream the windows through the cleanup engine into `emit`.
/// Returns `(keys_emitted, clean)`.
pub(crate) fn pass3_cleanup<K: PdmKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    p: &Plan,
    cells: &Cells,
    emit: &mut Emit<'_, K, S>,
) -> Result<(usize, bool)> {
    let Plan { b, l, m } = *p;
    let mut cleaner = Cleaner::new(pdm, m)?;
    let steps: Vec<Vec<(Region, usize)>> = (0..l)
        .map(|t| (0..b).map(|j| cells.win(t, j)).collect())
        .collect();
    let mut ra = ReadAhead::new(pdm, steps)?;
    for _ in 0..l {
        cleaner.feed_from(pdm, &mut ra)?;
        cleaner.process(pdm, emit)?;
    }
    cleaner.finish(pdm, emit)
}

/// The three passes with a caller-supplied emitter for the final sorted
/// stream (emitted in `M`-key slices) — `SevenPass` folds its outer
/// unshuffle into this emission. Returns `(keys_emitted, clean)`. The
/// columns and windows take regions of their own, allocated up front, and
/// none is released: `input` may be a part of a region the caller keeps.
///
/// The final phase is left *open*: the caller must drain whatever
/// write-behind its emitter holds and then call
/// [`Pdm::end_phase`](pdm_model::machine::Pdm::end_phase), so the
/// checkpoint boundary only ever sees settled output.
pub(crate) fn three_pass2_core<K: PdmKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    input: &Region,
    n: usize,
    emit: &mut Emit<'_, K, S>,
) -> Result<(usize, bool)> {
    let p = plan(pdm, n)?;
    let cells = Cells::regions(pdm, p.l, p.b)?;
    pdm.begin_phase("3P2: runs+unshuffle");
    pass1_runs_unshuffled(pdm, input, n, &p, &cells)?;
    pdm.begin_phase("3P2: column merges");
    pass2_column_merges(pdm, &p, &cells)?;
    pdm.begin_phase("3P2: shuffle+cleanup");
    pass3_cleanup(pdm, &p, &cells, emit)
}

/// Sort `n ≤ M√M` keys from `input` in three passes (Lemma 4.1). The output
/// region's first `n` keys are the sorted data.
///
/// The sort owns `input`, which must be a whole allocated region (else it
/// is refused before any I/O, with [`Pdm::release_region`]'s error), and
/// writes every pass over it: the output region is `input`. With a
/// checkpoint store attached, each pass writes regions of its own, `input`
/// is released once pass 1 has read it, and the output is a new region.
/// Apart from reading the output, the caller must not read, write or
/// release `input` afterwards.
///
/// # Example
///
/// ```
/// use pdm_model::prelude::*;
/// let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(4, 16)).unwrap();
/// let data: Vec<u64> = (0..4096u64).rev().collect(); // N = M√M
/// let input = pdm.alloc_region_for_keys(data.len()).unwrap();
/// pdm.ingest(&input, &data).unwrap();
/// let rep = pdm_sort::three_pass2(&mut pdm, &input, data.len()).unwrap();
/// assert_eq!(rep.read_passes, 3.0);
/// assert_eq!(pdm.next_slot(), input.len_blocks() / 4); // N on D = 4 disks
/// assert_eq!(rep.output, input);
/// assert!(pdm.inspect_prefix(&rep.output, 4096).unwrap().windows(2).all(|w| w[0] <= w[1]));
/// ```
pub fn three_pass2<K: PdmKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    input: &Region,
    n: usize,
) -> Result<SortReport> {
    pdm.check_whole_region(input)?;
    let p = plan(pdm, n)?;
    let mut cells = Cells::owned(pdm, input, p.l, p.b)?;
    pdm.begin_phase("3P2: runs+unshuffle");
    pass1_runs_unshuffled(pdm, input, n, &p, &cells)?;
    cells.begin_pass2(pdm, input, "3P2: column merges")?;
    pass2_column_merges(pdm, &p, &cells)?;
    let area = cells.begin_pass3(pdm, "3P2: shuffle+cleanup")?;
    let mut emitter = RegionEmitter::over(area);
    let mut wb = WriteBehind::new(pdm);
    let (emitted, clean) = pass3_cleanup(pdm, &p, &cells, &mut |pd, ks| {
        emitter.emit_behind(pd, &mut wb, ks)
    })?;
    wb.finish(pdm)?;
    pdm.end_phase();
    let out = area.into_output(pdm)?;

    debug_assert_eq!(emitted, p.l * p.m);
    if !clean {
        return Err(PdmError::UnsupportedInput(
            "ThreePass2 cleanup detected an inversion — (l,m)-merge invariant violated".into(),
        ));
    }
    Ok(SortReport::from_stats(
        pdm,
        out,
        n,
        Algorithm::ThreePass2,
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

    fn run_sort(pdm: &mut Pdm<u64>, data: &[u64]) -> SortReport {
        let input = pdm.alloc_region_for_keys(data.len()).unwrap();
        pdm.ingest(&input, data).unwrap();
        pdm.reset_stats();
        three_pass2(pdm, &input, data.len()).unwrap()
    }

    fn check_sorted(pdm: &mut Pdm<u64>, rep: &SortReport, data: &[u64]) {
        let mut want = data.to_vec();
        want.sort_unstable();
        let got = pdm.inspect_prefix(&rep.output, data.len()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn capacity_is_m_sqrt_m() {
        assert_eq!(capacity(64), 512);
        assert_eq!(capacity(4096), 262144);
    }

    #[test]
    fn sorts_full_capacity_random_input() {
        let mut pdm = machine(4, 8); // M = 64, N = 512
        let mut rng = SplitMix64::seed_from_u64(1);
        let data: Vec<u64> = (0..512).map(|_| rng.gen_range(0..1u64 << 40)).collect();
        let rep = run_sort(&mut pdm, &data);
        check_sorted(&mut pdm, &rep, &data);
    }

    #[test]
    fn takes_exactly_three_passes_at_full_capacity() {
        let mut pdm = machine(4, 16); // M = 256, N = 4096
        let mut rng = SplitMix64::seed_from_u64(2);
        let mut data: Vec<u64> = (0..4096).collect();
        rng.shuffle(&mut data);
        let rep = run_sort(&mut pdm, &data);
        check_sorted(&mut pdm, &rep, &data);
        assert!(
            (rep.read_passes - 3.0).abs() < 1e-9,
            "read passes = {}",
            rep.read_passes
        );
        assert!(
            (rep.write_passes - 3.0).abs() < 1e-9,
            "write passes = {}",
            rep.write_passes
        );
    }

    #[test]
    fn memory_stays_within_two_m() {
        let mut pdm = machine(4, 16);
        let mut rng = SplitMix64::seed_from_u64(3);
        let mut data: Vec<u64> = (0..4096).collect();
        rng.shuffle(&mut data);
        let rep = run_sort(&mut pdm, &data);
        assert!(
            rep.peak_mem <= 2 * 256,
            "peak memory {} exceeds 2M",
            rep.peak_mem
        );
    }

    #[test]
    fn full_disk_parallelism() {
        let mut pdm = machine(4, 16);
        let mut rng = SplitMix64::seed_from_u64(4);
        let mut data: Vec<u64> = (0..4096).collect();
        rng.shuffle(&mut data);
        let _ = run_sort(&mut pdm, &data);
        let eff_r = pdm.stats().read_parallel_efficiency(4);
        let eff_w = pdm.stats().write_parallel_efficiency(4);
        assert!(eff_r > 0.99, "read efficiency {eff_r}");
        assert!(eff_w > 0.99, "write efficiency {eff_w}");
    }

    #[test]
    fn sorts_partial_inputs_with_padding() {
        let mut pdm = machine(2, 8); // M = 64, capacity 512
        let mut rng = SplitMix64::seed_from_u64(5);
        for n in [1usize, 7, 63, 64, 65, 100, 500] {
            let data: Vec<u64> = (0..n as u64).map(|_| rng.gen_range(0..1000)).collect();
            let rep = run_sort(&mut pdm, &data);
            check_sorted(&mut pdm, &rep, &data);
        }
        // An input whose block 0 is on disk 1: the tail continues its
        // striping from there.
        let data: Vec<u64> = (0..300u64).rev().collect();
        let input = pdm.alloc_region_at(pdm.cfg().blocks_for(300), 1).unwrap();
        pdm.ingest(&input, &data).unwrap();
        let rep = three_pass2(&mut pdm, &input, 300).unwrap();
        check_sorted(&mut pdm, &rep, &data);
    }

    #[test]
    fn sorts_adversarial_inputs() {
        let mut pdm = machine(4, 8);
        for data in [
            (0..512u64).rev().collect::<Vec<_>>(),
            (0..512u64).collect::<Vec<_>>(),
            vec![7u64; 512],
            (0..512u64).map(|i| i % 2).collect::<Vec<_>>(),
            (0..512u64).map(|i| i / 37).collect::<Vec<_>>(),
        ] {
            let rep = run_sort(&mut pdm, &data);
            check_sorted(&mut pdm, &rep, &data);
        }
    }

    #[test]
    fn zero_one_inputs_at_every_split_point() {
        // 0-1 principle style stress: all threshold patterns under random
        // permutation of positions.
        let mut pdm = machine(2, 8);
        let mut rng = SplitMix64::seed_from_u64(6);
        let n = 512;
        for k in [0usize, 1, 17, 256, 511, 512] {
            let mut data: Vec<u64> = (0..n).map(|i| u64::from(i >= k)).collect();
            rng.shuffle(&mut data);
            let rep = run_sort(&mut pdm, &data);
            check_sorted(&mut pdm, &rep, &data);
        }
    }

    #[test]
    fn rejects_oversized_input() {
        let mut pdm = machine(2, 8);
        let input = pdm.alloc_region_for_keys(513).unwrap();
        assert!(three_pass2(&mut pdm, &input, 513).is_err());
    }

    #[test]
    fn rejects_empty_input() {
        let mut pdm = machine(2, 8);
        let input = pdm.alloc_region_for_keys(8).unwrap();
        assert!(three_pass2(&mut pdm, &input, 0).is_err());
    }

    #[test]
    fn rejects_non_square_config() {
        let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::new(2, 4, 64)).unwrap();
        let input = pdm.alloc_region_for_keys(64).unwrap();
        assert!(three_pass2(&mut pdm, &input, 64).is_err());
    }

    #[test]
    fn phases_are_recorded() {
        let mut pdm = machine(4, 8);
        let data: Vec<u64> = (0..512).rev().collect();
        let _ = run_sort(&mut pdm, &data);
        let names: Vec<&str> = pdm.stats().phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "3P2: runs+unshuffle",
                "3P2: column merges",
                "3P2: shuffle+cleanup"
            ]
        );
        // each phase reads the data once
        for ph in &pdm.stats().phases {
            assert_eq!(ph.blocks_read, 64, "phase {} blocks", ph.name);
        }
    }

    #[test]
    fn overlap_changes_nothing_but_wall_clock() {
        let mut rng = SplitMix64::seed_from_u64(10);
        let data: Vec<u64> = (0..512).map(|_| rng.gen_range(0..1u64 << 40)).collect();
        let run = |overlap: bool| {
            let mut pdm = machine(4, 8);
            pdm.set_overlap(overlap);
            let input = pdm.alloc_region_for_keys(data.len()).unwrap();
            pdm.ingest(&input, &data).unwrap();
            pdm.reset_stats();
            let rep = three_pass2(&mut pdm, &input, data.len()).unwrap();
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
    fn works_on_tagged_records() {
        let mut pdm: Pdm<Tagged> = Pdm::new(PdmConfig::square(2, 8)).unwrap();
        let mut rng = SplitMix64::seed_from_u64(9);
        let data: Vec<Tagged> = (0..512)
            .map(|i| Tagged::new(rng.gen_range(0..100), i))
            .collect();
        let input = pdm.alloc_region_for_keys(512).unwrap();
        pdm.ingest(&input, &data).unwrap();
        let rep = three_pass2(&mut pdm, &input, 512).unwrap();
        let got = pdm.inspect_prefix(&rep.output, 512).unwrap();
        let mut want = data;
        want.sort_unstable();
        assert_eq!(got, want);
    }
}
