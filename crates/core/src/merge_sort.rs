//! External multiway merge sort — the asymptotically optimal yardstick
//! the paper's algorithms are measured against (Aggarwal–Vitter bound;
//! the synchronous skeleton of Dementiev–Sanders' sorter).
//!
//! One run-formation pass, then merge levels of fan-in
//! `f = M/(D·B) − 1` ([`max_fanin`]) over the [`LoserTree`] kernel. Two
//! run formers feed the same merge levels:
//!
//! * [`merge_sort`] loads `M` keys, sorts them and stores them as one run,
//!   so it takes `1 + ⌈log_f ⌈N/M⌉⌉` passes ([`predicted_passes`]) on every
//!   input. The sort is [`kernels::sort_run`]: integer keys are
//!   radix-sorted through an `M`-key scratch buffer, allocated for them
//!   only, so run formation holds `2M` keys for them and `M` for the
//!   others;
//! * [`updown_merge_sort`] runs the alternating up/down replacement
//!   selection of Bender et al. ("Run Generation Revisited"): it keeps `M`
//!   keys resident, extends the current run with the nearest key that still
//!   fits it, and flips direction when none does. Every run but the last
//!   holds at least `M` keys, nearly sorted, reversed and duplicate-heavy
//!   inputs collapse to a few runs far longer than `M`, and a sorted input
//!   is one run: 1 read + 1 write pass.
//!
//! Runs are block-aligned: each starts on a fresh block, and its tail block
//! is padded with `K::MAX` that readers skip by key count. Descending runs
//! are stored as emitted and read back to front ([`RunReader::backward`]),
//! so they merge as ascending streams at no extra I/O.
//!
//! Run formation is the last pass to read the input, and each level reads
//! its input runs once, so the sort releases the input once its runs are
//! formed (or when the first level closes, if that level's outputs need
//! more levels than the input holds) and each level's runs when the level
//! closes ([`Pdm::release_region`]), and the level after writes into them.
//! A region stays while a run that was carried unmerged into the next
//! level still lies in it. The sort holds about two levels' worth of disk
//! space, the input's included.
//!
//! [`merge_sort`]'s runs, levels, allocations and releases depend only on
//! `N`, `M`, `D` and `B`, so it is checkpoint-resumable. How many runs
//! up/down run formation makes depends on the data, so
//! [`updown_merge_sort`] is not.
//!
//! With the machine's overlap switch on, the I/O runs behind the compute:
//! load-sort-store loads through a [`ReadAhead`] and stores through a
//! [`WriteBehind`], every run and merge output streams through a
//! [`RunWriter`] (which writes behind), and merge refills are requested in
//! the order the runs will empty. Every refill and store stays one batch
//! charged at issue, so blocks, steps, per-disk counts and passes match
//! the blocking path at every window; only the wall clock moves. Up/down
//! run formation keeps blocking reads, because how much it reads depends
//! on the data.

use crate::common::{Algorithm, SortReport};
use crate::kernels;
use crate::merge::LoserTree;
use pdm_model::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One sorted run on disk: `keys` keys in `region` (exactly `⌈keys/B⌉`
/// blocks), stored ascending or descending.
#[derive(Debug, Clone, Copy)]
struct Run {
    region: Region,
    /// The allocation `region` lies in: itself, or up/down's scratch.
    alloc: Region,
    keys: usize,
    ascending: bool,
}

/// Largest merge fan-in for a machine: one stripe-sized reader buffer per
/// run plus the writer's stripe must fit in `M`.
pub fn max_fanin(cfg: &PdmConfig) -> usize {
    let stripe = cfg.num_disks * cfg.block_size;
    (cfg.mem_capacity / stripe).saturating_sub(1).max(2)
}

/// Merge levels that reduce `runs` runs to one at fan-in `fan`.
fn merge_levels(mut runs: usize, fan: usize) -> usize {
    let mut levels = 0;
    while runs > 1 {
        runs = runs.div_ceil(fan);
        levels += 1;
    }
    levels
}

/// Predicted passes of [`merge_sort`]: run formation plus
/// `⌈log_f ⌈N/M⌉⌉` merge levels.
pub fn predicted_passes(cfg: &PdmConfig, n: usize) -> usize {
    1 + merge_levels(n.div_ceil(cfg.mem_capacity), max_fanin(cfg))
}

/// Sort `n` keys of `input` by external merge sort over load-sort-store
/// runs of `M` keys. Any `n ≥ 1` on any valid machine.
///
/// The sort owns `input`, which must be a whole allocated region (else it
/// is refused before any I/O, with [`Pdm::release_region`]'s error), and
/// releases it once run formation has read it, unless run formation is
/// the only pass. The caller must not read, write or release `input`
/// afterwards.
///
/// # Example
///
/// ```
/// use pdm_model::prelude::*;
/// let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::new(2, 16, 256)).unwrap();
/// let data: Vec<u64> = (0..2000u64).rev().collect();
/// let input = pdm.alloc_region_for_keys(data.len()).unwrap();
/// pdm.ingest(&input, &data).unwrap();
/// let rep = pdm_sort::merge_sort(&mut pdm, &input, data.len()).unwrap();
/// assert!(rep.read_passes >= 2.0); // run formation + ≥1 merge level
/// assert!(pdm.inspect_prefix(&rep.output, 2000).unwrap().windows(2).all(|w| w[0] <= w[1]));
/// ```
pub fn merge_sort<K: PdmKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    input: &Region,
    n: usize,
) -> Result<SortReport> {
    external_sort(pdm, input, n, Algorithm::MergeSort)
}

/// Sort `n` keys of `input` by external merge sort over up/down
/// replacement-selection runs. Any `n ≥ 1` on any valid machine. It owns
/// `input` as [`merge_sort`] does.
pub fn updown_merge_sort<K: PdmKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    input: &Region,
    n: usize,
) -> Result<SortReport> {
    external_sort(pdm, input, n, Algorithm::UpDownMergeSort)
}

fn external_sort<K: PdmKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    input: &Region,
    n: usize,
    algorithm: Algorithm,
) -> Result<SortReport> {
    pdm.check_whole_region(input)?;
    if n == 0 || n > input.len_keys() {
        return Err(PdmError::RegionOutOfBounds {
            index: n,
            len: input.len_keys(),
        });
    }
    pdm.begin_phase("MS: run formation");
    let mut runs = if algorithm == Algorithm::MergeSort {
        load_sort_store(pdm, input, n)?
    } else {
        up_down_runs(pdm, input, n)?
    };
    for run in &runs {
        pdm.stats_mut()
            .probe_gauge("rungen.run_len", run.keys as i64);
    }
    pdm.stats_mut()
        .probe_gauge("rungen.runs", runs.len() as i64);

    let fan = max_fanin(pdm.cfg());
    let levels = merge_levels(runs.len(), fan);
    // Release the input before the first merge level if that level's
    // outputs fit in its levels, else once that level closes (if another
    // follows): an output that does not fit takes new levels above the
    // runs, where it strands what is left of the input's levels for the
    // rest of the sort (up/down runs pad to whole blocks, so a level's
    // outputs can need more levels than the input holds).
    let fits = first_level_fits(pdm.cfg(), input, &runs, fan);
    if levels > 0 && fits {
        pdm.release_region(input)?;
    }
    for level in 1..=levels {
        pdm.begin_phase(format!("MS: merge level {level}"));
        let mut next = Vec::with_capacity(runs.len().div_ceil(fan));
        for group in runs.chunks(fan) {
            next.push(match group {
                [run] => *run,
                _ => merge_group(pdm, group, level == levels)?,
            });
        }
        release_merged(pdm, &runs, &next)?;
        if level == 1 && !fits && levels > 1 {
            pdm.release_region(input)?;
        }
        runs = next;
    }
    pdm.end_phase();
    pdm.stats_mut()
        .probe_gauge("rungen.merge_levels", levels as i64);
    // Both formers open with an ascending run, and merges emit ascending.
    debug_assert!(runs.len() == 1 && runs[0].ascending);
    Ok(SortReport::from_stats(
        pdm,
        runs[0].region,
        n,
        algorithm,
        false,
    ))
}

/// Whether the outputs of the first merge level over `runs` fit in the
/// levels of `input`, each taking the whole levels its own region needs.
fn first_level_fits(cfg: &PdmConfig, input: &Region, runs: &[Run], fan: usize) -> bool {
    let d = cfg.num_disks;
    let outputs: usize = runs
        .chunks(fan)
        .filter(|group| group.len() > 1)
        .map(|group| {
            let keys = group.iter().map(|r| r.keys).sum();
            cfg.blocks_for(keys).div_ceil(d)
        })
        .sum();
    outputs <= input.max_slot() + 1 - input.base_slot()
}

/// Release the allocations of a closing level's input runs that no run of
/// the next level lies in: no later level reads them.
fn release_merged<K: PdmKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    inputs: &[Run],
    next: &[Run],
) -> Result<()> {
    let mut released: Vec<Region> = Vec::new();
    for alloc in inputs.iter().map(|r| r.alloc) {
        if !next.iter().any(|r| r.alloc == alloc) && !released.contains(&alloc) {
            pdm.release_region(&alloc)?;
            released.push(alloc);
        }
    }
    Ok(())
}

/// Load-sort-store: read `M` keys, sort them, write them out as one run.
/// Each run is one read batch and one write batch, read ahead and written
/// behind.
fn load_sort_store<K: PdmKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    input: &Region,
    n: usize,
) -> Result<Vec<Run>> {
    let cfg = *pdm.cfg();
    let (b, in_blocks) = (cfg.block_size, cfg.blocks_for(n));
    let run_blocks = cfg.mem_capacity / b;
    let mut buf = pdm.alloc_buf(cfg.mem_capacity)?;
    let mut scratch = pdm.alloc_buf(kernels::scratch_len::<K>(cfg.mem_capacity))?;
    let loads = (0..in_blocks)
        .step_by(run_blocks)
        .map(|first| {
            (first..(first + run_blocks).min(in_blocks))
                .map(|i| (*input, i))
                .collect()
        })
        .collect();
    let mut loads = ReadAhead::new(pdm, loads)?;
    let mut stores = WriteBehind::new(pdm);
    let mut runs = Vec::with_capacity(in_blocks.div_ceil(run_blocks));
    let mut read_keys = 0;
    loop {
        buf.clear();
        if !loads.next_into(pdm, buf.as_vec_mut())? {
            break;
        }
        let blocks = buf.len() / b;
        let keys = buf.len().min(n - read_keys);
        read_keys += keys;
        buf.truncate(keys);
        kernels::sort_run(buf.as_vec_mut(), scratch.as_vec_mut());
        buf.resize(blocks * b, K::MAX);
        let region = pdm.alloc_region_for_keys(keys)?;
        stores.write(pdm, (0..blocks).map(|i| (region, i)), &buf)?;
        runs.push(Run {
            region,
            alloc: region,
            keys,
            ascending: true,
        });
    }
    stores.finish(pdm)?;
    Ok(runs)
}

/// The resident keys of up/down replacement selection: those that can
/// still extend the current run, in a heap ordered for its direction, and
/// those that wait for the next run.
struct UpDown<K> {
    up: BinaryHeap<Reverse<K>>,
    down: BinaryHeap<K>,
    waiting: Vec<K>,
    ascending: bool,
    /// The current run's last key; `None` before the first run opens.
    last: Option<K>,
}

impl<K: PdmKey> UpDown<K> {
    fn len(&self) -> usize {
        self.up.len() + self.down.len() + self.waiting.len()
    }

    /// A key joins the current run if it does not undercut (ascending) or
    /// overshoot (descending) the run's last key; otherwise it waits.
    fn insert(&mut self, k: K) {
        match self.last {
            Some(last) if self.ascending && k >= last => self.up.push(Reverse(k)),
            Some(last) if !self.ascending && k <= last => self.down.push(k),
            _ => self.waiting.push(k),
        }
    }

    /// Flip direction and open a run over every waiting key. Called only
    /// when no resident key can extend the current run; the first call
    /// opens the first run, ascending.
    fn open_run(&mut self) {
        self.ascending = !self.ascending;
        self.last = None;
        let keys = std::mem::take(&mut self.waiting);
        if self.ascending {
            self.up = keys.into_iter().map(Reverse).collect();
        } else {
            self.down = keys.into();
        }
    }

    /// The nearest key that extends the current run, if any.
    fn pop(&mut self) -> Option<K> {
        let k = if self.ascending {
            self.up.pop().map(|Reverse(k)| k)
        } else {
            self.down.pop()
        };
        self.last = k.or(self.last);
        k
    }
}

/// Up/down run formation. The input streams in `D` blocks at a time
/// whenever a block of the `M`-key budget is free, and each step emits just
/// enough keys to fill the writer's stripe, so every I/O batch spans all
/// disks. Runs are laid back to back in one scratch region.
fn up_down_runs<K: PdmKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    input: &Region,
    n: usize,
) -> Result<Vec<Run>> {
    let cfg = *pdm.cfg();
    let (d, b, m) = (cfg.num_disks, cfg.block_size, cfg.mem_capacity);
    let stripe = d * b;
    let in_blocks = cfg.blocks_for(n);
    // Every run but the last holds ≥ M keys, so padding costs at most one
    // block per run: ⌈n/M⌉ blocks of slack cover the worst case.
    let scratch = pdm.alloc_region(in_blocks + n.div_ceil(m))?;
    let mut writer = RunWriter::striped(pdm, scratch)?;
    let mut batch = pdm.alloc_buf(stripe)?;
    let _resident = pdm.mem().acquire(m)?;
    let mut sel = UpDown {
        up: BinaryHeap::new(),
        down: BinaryHeap::new(),
        waiting: Vec::with_capacity(m),
        ascending: false,
        last: None,
    };
    // (first block, keys, ascending) per run
    let mut runs: Vec<(usize, usize, bool)> = Vec::new();
    let (mut next_block, mut read_keys) = (0, 0);
    loop {
        while next_block < in_blocks {
            let nb = d.min(in_blocks - next_block).min((m - sel.len()) / b);
            if nb == 0 {
                break;
            }
            batch.clear();
            let blocks = (next_block..next_block + nb).map(|i| (*input, i));
            pdm.read_blocks(blocks, batch.as_vec_mut())?;
            next_block += nb;
            // The final input block is padded; keep only the real keys.
            let real = (n - read_keys).min(batch.len());
            read_keys += real;
            batch[..real].iter().for_each(|&k| sel.insert(k));
        }
        if sel.len() == 0 {
            break;
        }
        if sel.up.is_empty() && sel.down.is_empty() {
            writer.pad_block(pdm)?;
            sel.open_run();
            runs.push((writer.position() / b, 0, sel.ascending));
        }
        let want = stripe - writer.position() % stripe;
        let mut taken = 0;
        while taken < want {
            let Some(k) = sel.pop() else { break };
            writer.push(pdm, k)?;
            taken += 1;
        }
        runs.last_mut().expect("a run is open").1 += taken;
    }
    writer.finish(pdm)?;
    runs.into_iter()
        .map(|(first, keys, ascending)| {
            let region = scratch.sub(first, keys.div_ceil(b))?;
            Ok(Run {
                region,
                alloc: scratch,
                keys,
                ascending,
            })
        })
        .collect()
}

/// Where a run's next stripe is (see [`Forecast`]).
#[derive(Debug, Clone, Copy)]
enum Ahead {
    /// Not requested: every block of the run has been fetched.
    Idle,
    /// Requested, not yet submitted.
    Queued,
    /// Submitted in group `slot`, at keys `at..at + len` of its data.
    Sent { slot: usize, at: usize, len: usize },
}

/// One coalesced submission of stripes for several runs.
struct Group<K> {
    /// The pending read; `None` once retired into `data`.
    read: Option<TrackedRead<K>>,
    data: Vec<K>,
    /// Stripes not yet handed to their runs.
    left: usize,
}

/// A requested stripe: the run's last buffered key (`None` for a first
/// stripe, needed at once), the run, and its read batch.
type StripeRequest<K> = (Option<K>, usize, Vec<(Region, usize)>);

/// Forecast refills for one merge, with overlap on. A run's next stripe
/// is needed when the merge passes the last key the run has buffered, so
/// runs empty in the order of those keys. Each run requests its next
/// stripe as soon as it installs one; requests go out smallest key first,
/// coalesced into one [`Pdm::start_read_blocks`] submission once
/// `grain` blocks have queued (half the window, or half the runs' stripes
/// if that is fewer). They also go out at once when the run holding the
/// smallest last key, which empties this round, still waits on its
/// request; that happens every round when the merge drains one run at a
/// time, as on presorted input. A run that empties before its request
/// went out forces a submission. A retired group's stripes stay staged
/// until their runs empty. Blocks in flight plus staged stay within the
/// overlap window, except that a forced submission always admits the
/// stripe that forced it.
///
/// Each stripe is the batch the blocking refill would read, charged at
/// issue; a merge consumes every key it fetches, so every issued stripe is
/// installed and the counters match the blocking path. Staged stripes are
/// untracked transit memory, like [`ReadAhead`]'s coalesced groups.
struct Forecast<K: PdmKey> {
    budget: usize,
    grain: usize,
    /// Blocks in flight or staged.
    ahead: usize,
    /// Requested stripes, not yet submitted.
    queue: Vec<StripeRequest<K>>,
    queued_blocks: usize,
    next: Vec<Ahead>,
    groups: Vec<Option<Group<K>>>,
}

impl<K: PdmKey> Forecast<K> {
    /// Queue every run's first stripe.
    fn new<S: Storage<K>>(pdm: &Pdm<K, S>, readers: &[RunReader<K>]) -> Self {
        let budget = pdm.overlap_window_blocks();
        let stripe = pdm.cfg().num_disks;
        let mut fc = Self {
            budget,
            grain: (budget / 2).min(readers.len() * stripe / 2).max(1),
            ahead: 0,
            queue: Vec::with_capacity(readers.len()),
            queued_blocks: 0,
            next: vec![Ahead::Idle; readers.len()],
            groups: Vec::new(),
        };
        for (i, r) in readers.iter().enumerate() {
            fc.request(i, r, None);
        }
        fc
    }

    fn request(&mut self, run: usize, r: &RunReader<K>, key: Option<K>) {
        let step = r.next_step();
        if step.is_empty() {
            return;
        }
        self.queued_blocks += step.len();
        self.queue.push((key, run, step));
        self.next[run] = Ahead::Queued;
    }

    /// Submit queued requests at the top of a merge round: once a grain's
    /// worth has queued, or at once if the run that empties this round
    /// still waits on its request (it would force a submission next round).
    fn submit_due<S: Storage<K>>(
        &mut self,
        pdm: &mut Pdm<K, S>,
        readers: &[RunReader<K>],
    ) -> Result<()> {
        let due = readers
            .iter()
            .enumerate()
            .filter(|(_, r)| r.remaining() > r.buffered().len())
            .min_by_key(|(_, r)| r.buffered().last().copied())
            .is_some_and(|(i, _)| matches!(self.next[i], Ahead::Queued));
        if due || self.queued_blocks >= self.grain {
            self.submit(pdm, None)?;
        }
        Ok(())
    }

    /// Submit queued requests, smallest key first, as far as the window
    /// allows. Forced by an emptied run, that run's request goes first and
    /// is always admitted.
    fn submit<S: Storage<K>>(&mut self, pdm: &mut Pdm<K, S>, force: Option<usize>) -> Result<()> {
        if self.queue.is_empty() {
            return Ok(());
        }
        self.queue.sort_unstable_by_key(|q| (q.0, q.1));
        // With equal keys another run's fresh request can sort first.
        if let Some(run) = force {
            let at = self
                .queue
                .iter()
                .position(|q| q.1 == run)
                .expect("the forcing run is queued");
            self.queue[..=at].rotate_right(1);
        }
        let (mut take, mut blocks) = (0, 0);
        for (_, _, step) in &self.queue {
            let fits = self.ahead + blocks + step.len() <= self.budget;
            if !fits && (force.is_none() || take != 0) {
                break;
            }
            take += 1;
            blocks += step.len();
        }
        if take == 0 {
            return Ok(());
        }
        let (runs, steps): (Vec<usize>, Vec<Vec<(Region, usize)>>) = self
            .queue
            .drain(..take)
            .map(|(_, run, step)| (run, step))
            .unzip();
        let read = pdm.start_read_blocks(&steps)?;
        let slot = self
            .groups
            .iter()
            .position(Option::is_none)
            .unwrap_or_else(|| {
                self.groups.push(None);
                self.groups.len() - 1
            });
        let b = pdm.cfg().block_size;
        let mut at = 0;
        for (&run, step) in runs.iter().zip(&steps) {
            let len = step.len() * b;
            self.next[run] = Ahead::Sent { slot, at, len };
            at += len;
        }
        self.groups[slot] = Some(Group {
            read: Some(read),
            data: Vec::new(),
            left: take,
        });
        self.ahead += blocks;
        self.queued_blocks -= blocks;
        Ok(())
    }

    /// If run `i` has used up its buffer and has keys on disk, install
    /// its next stripe (submitting or retiring as needed) and request the
    /// one after.
    fn refill<S: Storage<K>>(
        &mut self,
        pdm: &mut Pdm<K, S>,
        i: usize,
        r: &mut RunReader<K>,
    ) -> Result<()> {
        if !r.buffered().is_empty() || r.remaining() == 0 {
            return Ok(());
        }
        if matches!(self.next[i], Ahead::Queued) {
            self.submit(pdm, Some(i))?;
        }
        let Ahead::Sent { slot, at, len } = self.next[i] else {
            unreachable!("a run with keys on disk has its next stripe requested");
        };
        let g = self.groups[slot]
            .as_mut()
            .expect("a sent stripe's group is live");
        if let Some(read) = g.read.take() {
            g.data.resize(read.expected_keys(), K::MAX);
            pdm.finish_read_blocks(read, &mut g.data)?;
        }
        r.install(&g.data[at..at + len]);
        g.left -= 1;
        if g.left == 0 {
            self.groups[slot] = None;
        }
        self.ahead -= len / pdm.cfg().block_size;
        self.next[i] = Ahead::Idle;
        if r.remaining() > r.buffered().len() {
            self.request(i, r, r.buffered().last().copied());
        }
        Ok(())
    }
}

/// Merge a group of runs into one ascending run in a fresh region. Each
/// round takes, from every run, the fetched keys no larger than the
/// smallest last fetched key among runs with keys still on disk (no unread
/// key can undercut them), merges those prefixes through a loser tree, and
/// refills the runs it emptied: blocking with overlap off, from a
/// [`Forecast`] with it on. With `verify`, the output order is checked as
/// it is written.
fn merge_group<K: PdmKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    group: &[Run],
    verify: bool,
) -> Result<Run> {
    let d = pdm.cfg().num_disks;
    let stripe = d * pdm.cfg().block_size;
    let mut readers = Vec::with_capacity(group.len());
    for run in group {
        readers.push(if run.ascending {
            RunReader::new(pdm, run.region, run.keys, d)?
        } else {
            RunReader::backward(pdm, run.region, run.keys, d)?
        });
    }
    let keys = group.iter().map(|r| r.keys).sum();
    let region = pdm.alloc_region_for_keys(keys)?;
    let mut writer = RunWriter::striped(pdm, region)?;
    let mut out = pdm.alloc_buf(stripe)?;
    let mut prev: Option<K> = None;
    let mut forecast = pdm.overlap().then(|| Forecast::new(pdm, &readers));
    loop {
        match forecast.as_mut() {
            Some(fc) => {
                for (i, r) in readers.iter_mut().enumerate() {
                    fc.refill(pdm, i, r)?;
                }
                fc.submit_due(pdm, &readers)?;
            }
            None => {
                for r in &mut readers {
                    r.peek(pdm)?; // fetches the next batch once the last is used up
                }
            }
        }
        let bound = readers
            .iter()
            .filter(|r| r.remaining() > r.buffered().len())
            .filter_map(|r| r.buffered().last().copied())
            .min();
        let segs: Vec<&[K]> = readers
            .iter()
            .map(|r| {
                let s = r.buffered();
                bound.map_or(s, |x| &s[..s.partition_point(|k| *k <= x)])
            })
            .collect();
        let taken: Vec<usize> = segs.iter().map(|s| s.len()).collect();
        let mut tree = LoserTree::new(segs);
        if tree.is_empty() {
            break;
        }
        // Chunks fill the writer's stripe exactly, so every write is one
        // full-parallelism step.
        while tree.next_chunk(out.as_vec_mut(), stripe - writer.position() % stripe) > 0 {
            if verify {
                let sorted = out.windows(2).all(|w| w[0] <= w[1]);
                if !sorted || prev.is_some_and(|p| out[0] < p) {
                    return Err(PdmError::UnsupportedInput(
                        "merge produced out-of-order output".into(),
                    ));
                }
                prev = out.last().copied();
            }
            writer.push_slice(pdm, &out)?;
            out.clear();
        }
        for (r, t) in readers.iter_mut().zip(taken) {
            r.consume(t);
        }
    }
    writer.finish(pdm)?;
    Ok(Run {
        region,
        alloc: region,
        keys,
        ascending: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_model::rng::SplitMix64;

    fn staged(cfg: PdmConfig, keys: &[u64]) -> (Pdm<u64>, Region) {
        let mut pdm = Pdm::new(cfg).unwrap();
        let input = pdm.alloc_region_for_keys(keys.len()).unwrap();
        pdm.ingest(&input, keys).unwrap();
        (pdm, input)
    }

    /// Sort `keys` with `algo` on `cfg`, check the output, return the report.
    fn sort_and_check(algo: Algorithm, cfg: PdmConfig, keys: &[u64]) -> SortReport {
        let (mut pdm, input) = staged(cfg, keys);
        let rep = algo.run(&mut pdm, &input, keys.len(), 2.0).unwrap();
        assert_eq!(rep.algorithm, algo);
        let mut want = keys.to_vec();
        want.sort_unstable();
        assert_eq!(
            pdm.inspect_prefix(&rep.output, keys.len()).unwrap(),
            want,
            "{algo}"
        );
        assert_eq!(pdm.mem().current(), 0, "{algo}: leaked tracked memory");
        rep
    }

    /// The up/down runs of `keys` on `cfg`, each read back in stored order.
    fn up_down(cfg: PdmConfig, keys: &[u64]) -> Vec<(Vec<u64>, bool)> {
        let (mut pdm, input) = staged(cfg, keys);
        let runs = up_down_runs(&mut pdm, &input, keys.len()).unwrap();
        runs.iter()
            .map(|r| (pdm.inspect_prefix(&r.region, r.keys).unwrap(), r.ascending))
            .collect()
    }

    const BOTH: [Algorithm; 2] = [Algorithm::MergeSort, Algorithm::UpDownMergeSort];

    #[test]
    fn fanin_formula() {
        // M = 256, D = 2, B = 16 → stripe 32 → f = 7
        assert_eq!(max_fanin(&PdmConfig::new(2, 16, 256)), 7);
        // tiny memory clamps to 2
        assert_eq!(max_fanin(&PdmConfig::new(2, 16, 64)), 2);
    }

    #[test]
    fn both_formers_sort_random_inputs_of_every_size() {
        let mut rng = SplitMix64::seed_from_u64(111);
        for n in [1usize, 7, 63, 64, 65, 100, 1000, 5000, 20000] {
            let data: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1u64 << 40)).collect();
            for algo in BOTH {
                sort_and_check(algo, PdmConfig::new(2, 16, 256), &data);
                sort_and_check(algo, PdmConfig::square(4, 8), &data);
            }
        }
    }

    #[test]
    fn duplicates_sorted_and_tagged_inputs() {
        for algo in BOTH {
            sort_and_check(algo, PdmConfig::new(2, 8, 64), &[7u64; 1000]);
            sort_and_check(
                algo,
                PdmConfig::new(2, 8, 64),
                &(0..1000u64).collect::<Vec<_>>(),
            );
            let mut pdm: Pdm<Tagged> = Pdm::new(PdmConfig::square(2, 16)).unwrap();
            let keys: Vec<Tagged> = (0..6000u64)
                .map(|i| Tagged::new((i.wrapping_mul(0x9E3779B9) >> 9) % 100, i))
                .collect();
            let input = pdm.alloc_region_for_keys(keys.len()).unwrap();
            pdm.ingest(&input, &keys).unwrap();
            let rep = algo.run(&mut pdm, &input, keys.len(), 2.0).unwrap();
            let mut want = keys.clone();
            want.sort_unstable();
            assert_eq!(
                pdm.inspect_prefix(&rep.output, keys.len()).unwrap(),
                want,
                "{algo}"
            );
        }
    }

    #[test]
    fn load_sort_store_single_run_costs_one_pass_each_way() {
        let mut data: Vec<u64> = (0..256).collect();
        SplitMix64::seed_from_u64(112).shuffle(&mut data);
        let rep = sort_and_check(Algorithm::MergeSort, PdmConfig::new(2, 16, 256), &data);
        assert!(
            (rep.read_passes - 1.0).abs() < 1e-9,
            "read passes {}",
            rep.read_passes
        );
        assert!(
            (rep.write_passes - 1.0).abs() < 1e-9,
            "write passes {}",
            rep.write_passes
        );
    }

    #[test]
    fn measured_passes_match_the_prediction_around_exact_powers_of_the_fanin() {
        // (config, fan-in, k): run counts f^k − 1, f^k and f^k + 1. Exact
        // powers are where a float logarithm overshoots: log₅ 125 comes
        // out as 3.0000000000000004, one level too many.
        for (cfg, f, k) in [
            (PdmConfig::new(1, 8, 24), 2usize, 3u32),
            (PdmConfig::new(2, 8, 64), 3, 2),
            (PdmConfig::square(4, 24), 5, 3),
        ] {
            assert_eq!(max_fanin(&cfg), f);
            for runs in [f.pow(k) - 1, f.pow(k), f.pow(k) + 1] {
                let n = runs * cfg.mem_capacity;
                let mut data: Vec<u64> = (0..n as u64).collect();
                SplitMix64::seed_from_u64(113).shuffle(&mut data);
                let rep = sort_and_check(Algorithm::MergeSort, cfg, &data);
                let pred = predicted_passes(&cfg, n) as f64;
                assert!(
                    rep.read_passes <= pred + 1e-9 && rep.read_passes > pred - 1.0,
                    "f = {f}, {runs} runs: measured {} vs predicted {pred}",
                    rep.read_passes
                );
            }
        }
        assert_eq!(predicted_passes(&PdmConfig::square(4, 24), 72000), 4);
    }

    #[test]
    fn needs_more_passes_than_three_pass2_at_m_sqrt_m() {
        // The comparison the paper's Conclusions make: at N = M√M the LMM
        // algorithm does 3 passes; plain mergesort needs ⌈log_f(√M)⌉ + 1.
        let mut data: Vec<u64> = (0..4096).collect(); // M√M for M = 256
        SplitMix64::seed_from_u64(114).shuffle(&mut data);
        let rep = sort_and_check(Algorithm::MergeSort, PdmConfig::new(2, 16, 256), &data);
        // f = 7, 16 runs → 2 merge levels → 3 passes: comparable here; the
        // gap appears at N = M² (see E13) — assert sane bounds only.
        assert!(
            rep.read_passes >= 2.0 && rep.read_passes <= 4.0,
            "{}",
            rep.read_passes
        );
    }

    #[test]
    fn n_past_the_input_region_fails_fast() {
        // 1000 keys staged in 63 blocks of 16 = 1008 slots. A run former
        // that trusts n past the region appends empty runs forever, so the
        // sorts run on a thread the test can give up on.
        let (tx, rx) = std::sync::mpsc::channel();
        let sorts = std::thread::spawn(move || {
            for algo in BOTH {
                let (mut pdm, input) = staged(PdmConfig::new(2, 16, 256), &[1u64; 1000]);
                let past = algo.run(&mut pdm, &input, 1009, 2.0).map(|_| ());
                let empty = algo.run(&mut pdm, &input, 0, 2.0).map(|_| ());
                tx.send((algo, past, empty)).unwrap();
            }
        });
        for _ in BOTH {
            let (algo, past, empty) = rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("sort hung");
            assert!(
                matches!(
                    past,
                    Err(PdmError::RegionOutOfBounds {
                        index: 1009,
                        len: 1008
                    })
                ),
                "{algo}: {past:?}"
            );
            assert!(empty.is_err(), "{algo} accepted an empty input");
        }
        sorts.join().expect("sort thread panicked");
    }

    #[test]
    fn sorted_input_is_one_ascending_run_at_one_pass_each_way() {
        let keys: Vec<u64> = (0..8192).collect();
        let runs = up_down(PdmConfig::square(4, 16), &keys);
        assert_eq!(runs, vec![(keys.clone(), true)]);
        let rep = sort_and_check(Algorithm::UpDownMergeSort, PdmConfig::square(4, 16), &keys);
        assert!(
            (rep.read_passes - 1.0).abs() < 1e-9 && (rep.write_passes - 1.0).abs() < 1e-9,
            "one run ⇒ 1 read + 1 write pass, got {} + {}",
            rep.read_passes,
            rep.write_passes
        );
    }

    #[test]
    fn reversed_input_is_an_m_key_up_run_then_one_down_run() {
        // Ascending-only replacement selection degenerates to n/M runs on
        // reverse-sorted input; alternating yields exactly two.
        let keys: Vec<u64> = (0..8192u64).rev().collect();
        let runs = up_down(PdmConfig::square(4, 16), &keys);
        assert_eq!(runs.len(), 2);
        assert!(runs[0].1 && !runs[1].1, "up, then down");
        assert_eq!((runs[0].0.len(), runs[1].0.len()), (256, 8192 - 256));
        assert!(runs[0].0.windows(2).all(|w| w[0] <= w[1]));
        assert!(runs[1].0.windows(2).all(|w| w[0] >= w[1]));
        let rep = sort_and_check(Algorithm::UpDownMergeSort, PdmConfig::square(4, 16), &keys);
        assert!(
            rep.read_passes <= 2.5,
            "read passes {} should be ≈2",
            rep.read_passes
        );
    }

    #[test]
    fn runs_hold_m_keys_alternate_and_lose_nothing() {
        let cfg = PdmConfig::square(4, 16);
        let mut input: Vec<u64> = (0..10_000).collect();
        SplitMix64::seed_from_u64(115).shuffle(&mut input);
        let runs = up_down(cfg, &input);
        let mut all: Vec<u64> = Vec::new();
        for (i, (run, asc)) in runs.iter().enumerate() {
            if i + 1 < runs.len() {
                assert!(run.len() >= 256, "run {i} has {} < M keys", run.len());
            }
            assert_eq!(*asc, i % 2 == 0, "run {i} direction");
            if *asc {
                assert!(run.windows(2).all(|w| w[0] <= w[1]));
            } else {
                assert!(run.windows(2).all(|w| w[0] >= w[1]));
            }
            all.extend_from_slice(run);
        }
        assert!(runs.len() > 2 && runs.len() <= input.len().div_ceil(256));
        all.sort_unstable();
        let mut want = input.clone();
        want.sort_unstable();
        assert_eq!(all, want);
        let mut big: Vec<u64> = (0..40_000).collect();
        SplitMix64::seed_from_u64(116).shuffle(&mut big);
        sort_and_check(Algorithm::UpDownMergeSort, cfg, &big);
    }

    #[test]
    fn duplicate_heavy_and_nearly_sorted_inputs_collapse() {
        // Ties keep the boundary key eligible in both directions, so runs
        // outlast the buffer (the classic ≈2M behavior).
        let dups: Vec<u64> = (0..20_000u64)
            .map(|i| (i.wrapping_mul(0x2545F491) >> 7) % 8)
            .collect();
        let runs = up_down(PdmConfig::square(2, 32), &dups);
        assert!(
            runs.len() < 20,
            "got {} runs, load-sort-store cuts 20",
            runs.len()
        );
        assert!(20_000 / runs.len() > 1024, "average run should exceed M");
        let rep = sort_and_check(Algorithm::UpDownMergeSort, PdmConfig::square(2, 32), &dups);
        assert!(
            rep.read_passes <= 3.5,
            "got {} read passes",
            rep.read_passes
        );

        let mut nearly: Vec<u64> = (0..16384).collect();
        let mut rng = SplitMix64::seed_from_u64(0x1234_5678);
        for _ in 0..160 {
            let (i, j) = (
                rng.gen_range(0..nearly.len()),
                rng.gen_range(0..nearly.len()),
            );
            nearly.swap(i, j);
        }
        let rep = sort_and_check(
            Algorithm::UpDownMergeSort,
            PdmConfig::square(4, 16),
            &nearly,
        );
        assert!(
            rep.read_passes <= 3.0,
            "got {} read passes",
            rep.read_passes
        );
    }

    /// Sort `keys` with `algo` on threaded disks, overlap on at a `window`
    /// of blocks, or off with `None`. Returns the output, the counters, and
    /// the overlap operations in flight at each phase boundary, replayed
    /// from the probe stream.
    fn threaded_leg(
        algo: Algorithm,
        cfg: PdmConfig,
        keys: &[u64],
        window: Option<usize>,
    ) -> (Vec<u64>, IoStats, Vec<i64>) {
        let storage = ThreadedStorage::<u64>::new(cfg.num_disks, cfg.block_size);
        let mut pdm = Pdm::with_storage(cfg, storage).unwrap();
        pdm.set_overlap(window.is_some());
        pdm.set_overlap_window(window);
        let input = pdm.alloc_region_for_keys(keys.len()).unwrap();
        pdm.ingest(&input, keys).unwrap();
        pdm.reset_stats();
        pdm.enable_probe(1 << 20);
        let rep = algo.run(&mut pdm, &input, keys.len(), 2.0).unwrap();
        assert_eq!(pdm.pending_io(), 0, "{algo}: overlap I/O left in flight");
        let out = pdm.inspect_prefix(&rep.output, keys.len()).unwrap();
        let stats = pdm.stats().clone();
        let mut inflight = 0i64;
        let mut at_boundaries = Vec::new();
        for e in stats.probe().expect("probe enabled").events() {
            match e {
                ProbeEvent::OverlapIssue { .. } => inflight += 1,
                ProbeEvent::OverlapComplete { .. } => inflight -= 1,
                ProbeEvent::PhaseBegin { .. } | ProbeEvent::PhaseEnd { .. } => {
                    at_boundaries.push(inflight)
                }
                _ => {}
            }
        }
        (out, stats, at_boundaries)
    }

    #[test]
    fn overlapped_merge_io_matches_the_blocking_path_on_threaded_disks() {
        // Fan-in 3 over several merge levels. The reversed input is an up
        // run and a down run under up/down, so one reader streams backward.
        let cfg = PdmConfig::square(4, 16);
        let mut random: Vec<u64> = (0..4096).collect();
        SplitMix64::seed_from_u64(117).shuffle(&mut random);
        let reversed: Vec<u64> = (0..4096).rev().collect();
        // equal last keys: several runs empty in the same round
        let dups: Vec<u64> = random.iter().map(|k| k % 7).collect();
        for algo in BOTH {
            for keys in [&random, &reversed, &dups] {
                let (want, base, _) = threaded_leg(algo, cfg, keys, None);
                assert!(want.windows(2).all(|w| w[0] <= w[1]), "{algo}: unsorted");
                // one block: only forced submissions; huge: every run ahead
                for window in [1, 1 << 20] {
                    let label = format!("{algo}, window {window}");
                    let (out, got, boundaries) = threaded_leg(algo, cfg, keys, Some(window));
                    assert_eq!(out, want, "{label}: output differs");
                    assert_eq!(got.blocks_read, base.blocks_read, "{label}");
                    assert_eq!(got.blocks_written, base.blocks_written, "{label}");
                    assert_eq!(got.read_steps, base.read_steps, "{label}");
                    assert_eq!(got.write_steps, base.write_steps, "{label}");
                    assert_eq!(got.per_disk_reads, base.per_disk_reads, "{label}");
                    assert_eq!(got.per_disk_writes, base.per_disk_writes, "{label}");
                    assert!(
                        got.overlap.prefetch_batches > 0,
                        "{label}: no overlapped read"
                    );
                    assert!(
                        got.overlap.flush_batches > 0,
                        "{label}: no overlapped write"
                    );
                    assert!(boundaries.len() >= 4, "{label}: phases {boundaries:?}");
                    assert!(
                        boundaries.iter().all(|&n| n == 0),
                        "{label}: I/O in flight at a phase boundary: {boundaries:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn probe_records_run_lengths() {
        let keys: Vec<u64> = (0..4096u64).rev().collect();
        let (mut pdm, input) = staged(PdmConfig::square(4, 16), &keys);
        pdm.enable_probe(1 << 16);
        updown_merge_sort(&mut pdm, &input, keys.len()).unwrap();
        let gauges = |name: &str| -> Vec<i64> {
            pdm.stats()
                .probe()
                .expect("probe enabled")
                .events()
                .iter()
                .filter_map(|e| match e {
                    ProbeEvent::Gauge { name: g, value, .. } if g == name => Some(*value),
                    _ => None,
                })
                .collect()
        };
        let lens = gauges("rungen.run_len");
        assert_eq!(
            lens.iter().sum::<i64>(),
            keys.len() as i64,
            "gauges cover every key"
        );
        assert!(
            lens.iter().all(|&l| l >= 256),
            "every run ≥ M keys: {lens:?}"
        );
        assert_eq!(gauges("rungen.runs"), vec![2]);
        assert_eq!(gauges("rungen.merge_levels"), vec![1]);
    }
}
