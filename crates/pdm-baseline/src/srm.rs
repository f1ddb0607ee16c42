//! Simple Randomized Mergesort (Barve–Grove–Vitter, the paper's \[5\]):
//! memory-frugal multiway merging whose disk parallelism comes from
//! *randomized striping*.
//!
//! A buffer-rich merge (one stripe of buffers per run, like
//! `pdm_sort::merge_sort`) gets full parallelism trivially but needs
//! `f·D·B` keys of reader memory. SRM instead gives each run ~one block of
//! buffer and recovers parallelism probabilistically: each run is striped
//! starting at a **random** disk, and a forecasting scheduler fetches, per
//! parallel step, the most urgently needed block on each disk into a small
//! shared pool. With aligned (deterministic, same-phase) striping the
//! merge's lockstep consumption makes every run need the *same* disk at
//! the same time and reads serialize — the ablation
//! [`Striping::Aligned`] measures exactly that collapse.

use pdm_model::prelude::*;
use pdm_model::rng::SplitMix64;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Run placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Striping {
    /// Each run starts on an independently random disk (SRM proper).
    Randomized,
    /// Every run starts on disk 0 — the adversarial lockstep layout.
    Aligned,
}

/// Outcome of an SRM sort, with the parallelism evidence.
#[derive(Debug, Clone)]
pub struct SrmReport {
    /// Sorted output region.
    pub output: Region,
    /// Keys sorted.
    pub n: usize,
    /// Read passes (parallel-step metric).
    pub read_passes: f64,
    /// Write passes.
    pub write_passes: f64,
    /// Read parallel efficiency (1.0 = every step moved `D` blocks).
    pub read_efficiency: f64,
}

struct RunState {
    region: Region,
    len: usize,
    /// Next block index to fetch.
    next_block: usize,
    /// Buffered keys, consumed front-to-back.
    buf: std::collections::VecDeque<u64>,
    /// Forecast: the largest key already buffered/consumed (the run needs
    /// its next block no later than when the merge output reaches this).
    horizon: u64,
    consumed: usize,
}

impl RunState {
    fn exhausted_disk(&self) -> bool {
        self.next_block * self.region.block_size()
            >= self.len.next_multiple_of(self.region.block_size())
            || self.next_block >= self.region.len_blocks()
    }

    fn done(&self) -> bool {
        self.consumed >= self.len
    }
}

/// Sort `n` keys by SRM with merge fan-in `f ≈ M/(2B)` and a prefetch pool
/// of `D` blocks beyond the per-run singles.
pub fn srm_merge_sort<S: Storage<u64>>(
    pdm: &mut Pdm<u64, S>,
    input: &Region,
    n: usize,
    striping: Striping,
    seed: u64,
) -> Result<SrmReport> {
    if n == 0 {
        return Err(PdmError::UnsupportedInput("empty input".into()));
    }
    let cfg = *pdm.cfg();
    let (m, b, d) = (cfg.mem_capacity, cfg.block_size, cfg.num_disks);
    let mut rng = SplitMix64::seed_from_u64(seed);

    // Pass 1: run formation with randomized (or aligned) striping.
    pdm.begin_phase("SRM: run formation");
    let mut runs: Vec<(Region, usize)> = Vec::new();
    let in_blocks = input.len_blocks();
    let run_blocks = m / b;
    let mut blk = 0usize;
    let mut remaining = n;
    while remaining > 0 {
        let take = run_blocks.min(in_blocks - blk);
        let mut buf = pdm.alloc_buf(m)?;
        let idx: Vec<usize> = (blk..blk + take).collect();
        pdm.read_blocks(input, &idx, buf.as_vec_mut())?;
        let valid = (take * b).min(remaining);
        buf.truncate(valid);
        buf.sort_unstable();
        let start_disk = match striping {
            Striping::Randomized => rng.gen_range(0..d),
            Striping::Aligned => 0,
        };
        let reg = pdm.alloc_region_at(cfg.blocks_for(valid), start_disk)?;
        pdm.write_region(&reg, &buf)?;
        runs.push((reg, valid));
        remaining -= valid;
        blk += take;
    }

    // Merge levels with fan-in f: one block of buffer per run + D pool.
    let fanin = (m / (2 * b)).max(2);
    let mut level = 0usize;
    while runs.len() > 1 {
        level += 1;
        pdm.begin_phase(format!("SRM: merge level {level}"));
        let mut next: Vec<(Region, usize)> = Vec::new();
        let groups: Vec<Vec<(Region, usize)>> = runs.chunks(fanin).map(|c| c.to_vec()).collect();
        for group in groups {
            if group.len() == 1 {
                next.push(group[0]);
                continue;
            }
            let total: usize = group.iter().map(|(_, l)| l).sum();
            let out_start = match striping {
                Striping::Randomized => rng.gen_range(0..d),
                Striping::Aligned => 0,
            };
            let out = pdm.alloc_region_at(cfg.blocks_for(total), out_start)?;
            merge_group(pdm, &group, out, total)?;
            next.push((out, total));
        }
        runs = next;
    }
    pdm.end_phase();

    let (out, total) = runs[0];
    debug_assert_eq!(total, n);
    Ok(SrmReport {
        output: out,
        n,
        read_passes: pdm.stats().read_passes(n, d, b),
        write_passes: pdm.stats().write_passes(n, d, b),
        read_efficiency: pdm.stats().read_parallel_efficiency(d),
    })
}

/// Merge one group with single-block run buffers + forecasting scheduler.
fn merge_group<S: Storage<u64>>(
    pdm: &mut Pdm<u64, S>,
    group: &[(Region, usize)],
    out: Region,
    total: usize,
) -> Result<()> {
    let b = pdm.cfg().block_size;
    // memory: one block per run + writer stripe (tracked)
    let _guard = pdm.mem().acquire(group.len() * b)?;
    let mut states: Vec<RunState> = group
        .iter()
        .map(|&(region, len)| RunState {
            region,
            len,
            next_block: 0,
            buf: std::collections::VecDeque::new(),
            horizon: 0,
            consumed: 0,
        })
        .collect();

    let mut writer = RunWriter::striped(pdm, out)?;
    let mut block_buf: Vec<u64> = Vec::with_capacity(b);

    // Initial fill: every run needs its first block (urgency maximal).
    fetch_batch(pdm, &mut states, &mut block_buf, true)?;

    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    for (i, st) in states.iter_mut().enumerate() {
        if let Some(k) = st.buf.pop_front() {
            st.consumed += 1;
            heap.push(Reverse((k, i)));
        }
    }

    let mut emitted = 0usize;
    while let Some(Reverse((k, i))) = heap.pop() {
        writer.push(pdm, k)?;
        emitted += 1;
        let st = &mut states[i];
        if st.buf.is_empty() && !st.done() && !st.exhausted_disk() {
            // this run is empty: schedule a forecasting batch (one block
            // per disk, most urgent first)
            fetch_batch(pdm, &mut states, &mut block_buf, false)?;
        }
        let st = &mut states[i];
        if let Some(k2) = st.buf.pop_front() {
            st.consumed += 1;
            heap.push(Reverse((k2, i)));
        }
    }
    debug_assert_eq!(emitted, total);
    writer.finish(pdm)?;
    Ok(())
}

/// One forecasting step: for each disk, fetch the most urgent pending block
/// (the block of the run with the smallest horizon whose next block lives
/// on that disk). `initial` fetches every run's first block instead.
fn fetch_batch<S: Storage<u64>>(
    pdm: &mut Pdm<u64, S>,
    states: &mut [RunState],
    block_buf: &mut Vec<u64>,
    initial: bool,
) -> Result<()> {
    let d = pdm.cfg().num_disks;
    let b = pdm.cfg().block_size;
    loop {
        // candidate per disk: (horizon, run index)
        let mut pick: Vec<Option<(u64, usize)>> = vec![None; d];
        let mut any_empty_unserved = false;
        for (i, st) in states.iter().enumerate() {
            if st.done() || st.exhausted_disk() {
                continue;
            }
            // low-water prefetch: fetch for any run at/below half a block
            // of lookahead (BGV fill the D per-step buffers by forecast,
            // not only on exhaustion); cap at one buffered block per run
            if st.buf.len() >= b {
                continue;
            }
            if !initial && st.buf.len() > b / 2 {
                continue;
            }
            let addr = st.region.addr(st.next_block)?;
            let cand = (st.horizon, i);
            match pick[addr.disk] {
                Some(best) if best <= cand => {
                    if st.buf.is_empty() {
                        any_empty_unserved = true;
                    }
                }
                _ => pick[addr.disk] = Some(cand),
            }
        }
        let chosen: Vec<usize> = pick.iter().flatten().map(|&(_, i)| i).collect();
        if chosen.is_empty() {
            return Ok(());
        }
        // one parallel step: ≤ 1 block per disk by construction
        let targets: Vec<(Region, usize)> = chosen
            .iter()
            .map(|&i| (states[i].region, states[i].next_block))
            .collect();
        block_buf.clear();
        pdm.read_blocks_multi(&targets, block_buf)?;
        for (slot, &i) in chosen.iter().enumerate() {
            let st = &mut states[i];
            let lo = slot * b;
            let valid = (st.len - st.next_block * b).min(b);
            for &k in &block_buf[lo..lo + valid] {
                st.buf.push_back(k);
                st.horizon = st.horizon.max(k);
            }
            st.next_block += 1;
        }
        // keep batching until every empty run got a block (collisions on a
        // disk force extra steps — that is exactly the measured cost)
        if !any_empty_unserved {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(d: usize, b: usize, m: usize) -> Pdm<u64> {
        Pdm::new(PdmConfig::new(d, b, m)).unwrap()
    }

    fn sort_and_check(pdm: &mut Pdm<u64>, data: &[u64], striping: Striping) -> SrmReport {
        let input = pdm.alloc_region_for_keys(data.len()).unwrap();
        pdm.ingest(&input, data).unwrap();
        pdm.reset_stats();
        let rep = srm_merge_sort(pdm, &input, data.len(), striping, 7).unwrap();
        let mut want = data.to_vec();
        want.sort_unstable();
        assert_eq!(pdm.inspect_prefix(&rep.output, data.len()).unwrap(), want);
        rep
    }

    #[test]
    fn sorts_random_inputs_both_stripings() {
        let mut rng = SplitMix64::seed_from_u64(51);
        for n in [100usize, 1000, 5000, 20000] {
            let data: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1u64 << 40)).collect();
            for striping in [Striping::Randomized, Striping::Aligned] {
                let mut pdm = machine(4, 16, 256);
                sort_and_check(&mut pdm, &data, striping);
            }
        }
    }

    #[test]
    fn sorts_adversarial_inputs() {
        for data in [
            (0..8192u64).rev().collect::<Vec<_>>(),
            vec![5u64; 8192],
            (0..8192u64).collect::<Vec<_>>(),
        ] {
            let mut pdm = machine(4, 16, 256);
            sort_and_check(&mut pdm, &data, Striping::Randomized);
        }
    }

    #[test]
    fn randomized_striping_beats_aligned_on_lockstep_merges() {
        // identical runs (interleaved ranges) make the merge consume all
        // runs in lockstep — the worst case for aligned striping
        let f = 8usize; // fan-in at M = 256, B = 16
        let run = 256usize;
        let n = f * run;
        // run r gets keys ≡ r (mod f): all runs advance together
        let data: Vec<u64> = (0..n).map(|i| ((i % run) * f + i / run) as u64).collect();
        let mut pdm_r = machine(4, 16, 256);
        let rep_r = sort_and_check(&mut pdm_r, &data, Striping::Randomized);
        let mut pdm_a = machine(4, 16, 256);
        let rep_a = sort_and_check(&mut pdm_a, &data, Striping::Aligned);
        assert!(
            rep_r.read_efficiency > rep_a.read_efficiency,
            "randomized {:.3} should beat aligned {:.3}",
            rep_r.read_efficiency,
            rep_a.read_efficiency
        );
        assert!(
            rep_r.read_passes < rep_a.read_passes,
            "randomized {:.3} passes should beat aligned {:.3}",
            rep_r.read_passes,
            rep_a.read_passes
        );
    }

    #[test]
    fn memory_stays_bounded() {
        let mut rng = SplitMix64::seed_from_u64(53);
        let mut data: Vec<u64> = (0..16384).collect();
        rng.shuffle(&mut data);
        let mut pdm = machine(4, 16, 256);
        let _ = sort_and_check(&mut pdm, &data, Striping::Randomized);
        assert!(pdm.mem().peak() <= pdm.cfg().mem_limit());
    }

    #[test]
    fn rejects_empty() {
        let mut pdm = machine(2, 8, 64);
        let input = pdm.alloc_region_for_keys(8).unwrap();
        assert!(srm_merge_sort(&mut pdm, &input, 0, Striping::Randomized, 1).is_err());
    }
}
