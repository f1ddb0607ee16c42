//! Shared machinery for the paper's algorithms: the sort report, the
//! streaming cleanup engine, capacity formulas, and in-memory kernels.

use pdm_model::prelude::*;

/// Which algorithm produced a result (for reports and the dispatcher).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// §3.1 mesh-based three-pass sort.
    ThreePass1,
    /// §3.2 expected two-pass mesh sort.
    ExpTwoPassMesh,
    /// §4 LMM-based three-pass sort.
    ThreePass2,
    /// §5 expected two-pass sort.
    ExpectedTwoPass,
    /// §6 expected three-pass sort.
    ExpectedThreePass,
    /// §6.1 seven-pass sort of `M²` keys.
    SevenPass,
    /// §6.2 expected six-pass sort.
    ExpectedSixPass,
    /// §7 bucket sort of bounded integers.
    IntegerSort,
    /// §7 forward radix sort.
    RadixSort,
    /// Input fit in internal memory; sorted in one read + one write pass.
    InMemory,
    /// External multiway merge sort over load-sort-store runs (baseline).
    MergeSort,
    /// External multiway merge sort over up/down replacement-selection runs.
    UpDownMergeSort,
}

/// The sorter table: every consumer (the dispatcher, the CLI, the bench)
/// reads names, capacities, and runners from here instead of keeping its
/// own list.
impl Algorithm {
    /// Every variant: the paper's sorters in paper order, then the
    /// merge-sort baselines.
    pub const ALL: [Algorithm; 12] = [
        Algorithm::ThreePass1,
        Algorithm::ExpTwoPassMesh,
        Algorithm::ThreePass2,
        Algorithm::ExpectedTwoPass,
        Algorithm::ExpectedThreePass,
        Algorithm::SevenPass,
        Algorithm::ExpectedSixPass,
        Algorithm::IntegerSort,
        Algorithm::RadixSort,
        Algorithm::InMemory,
        Algorithm::MergeSort,
        Algorithm::UpDownMergeSort,
    ];

    /// The sorters `auto` chooses among, in tie-break order: §8's capacity
    /// ladder, cheapest first, then the merge-sort baseline.
    /// [`crate::choose`] takes the smallest [`Algorithm::pass_bound`].
    pub const CANDIDATES: [Algorithm; 7] = [
        Algorithm::InMemory,
        Algorithm::ExpectedTwoPass,
        Algorithm::ThreePass2,
        Algorithm::ExpectedThreePass,
        Algorithm::ExpectedSixPass,
        Algorithm::SevenPass,
        Algorithm::MergeSort,
    ];

    /// The kebab-case spelling used by `--algo` and stored in checkpoint
    /// manifests (so existing spellings must never change).
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::ThreePass1 => "three-pass1",
            Algorithm::ExpTwoPassMesh => "exp-two-pass-mesh",
            Algorithm::ThreePass2 => "three-pass2",
            Algorithm::ExpectedTwoPass => "expected-two-pass",
            Algorithm::ExpectedThreePass => "expected-three-pass",
            Algorithm::SevenPass => "seven-pass",
            Algorithm::ExpectedSixPass => "expected-six-pass",
            Algorithm::IntegerSort => "integer-sort",
            Algorithm::RadixSort => "radix",
            Algorithm::InMemory => "in-memory",
            Algorithm::MergeSort => "mergesort",
            Algorithm::UpDownMergeSort => "updown-mergesort",
        }
    }

    /// Whether the sorter needs integer-ranked keys (`K: RankedKey`); these
    /// are called directly, never through [`Algorithm::run`].
    pub fn ranked(self) -> bool {
        matches!(self, Algorithm::IntegerSort | Algorithm::RadixSort)
    }

    /// Whether control flow, phase structure, and the order of allocations
    /// and releases are data-independent — the only sorters checkpoint
    /// resume is sound for (replayed reads return filler; see
    /// `pdm_model::checkpoint`). `MergeSort` qualifies: its runs and levels
    /// depend only on `N`, `M`, `D` and `B`, and its loser tree stops on a
    /// key count, so replay's `K::MAX` filler does not end a merge early.
    pub fn deterministic(self) -> bool {
        matches!(
            self,
            Algorithm::ThreePass1
                | Algorithm::ThreePass2
                | Algorithm::SevenPass
                | Algorithm::MergeSort
        )
    }

    /// Largest `N` the sorter's guarantee covers on `cfg` at confidence
    /// `α` (`usize::MAX` for the integer and merge sorts, which take any
    /// `N`).
    pub fn capacity(self, cfg: &PdmConfig, alpha: f64) -> usize {
        let m = cfg.mem_capacity;
        match self {
            Algorithm::ThreePass1 => crate::three_pass1::capacity(m),
            Algorithm::ExpTwoPassMesh => crate::exp_two_pass_mesh::capacity(m, alpha),
            Algorithm::ThreePass2 => crate::three_pass2::capacity(m),
            Algorithm::ExpectedTwoPass => crate::expected_two_pass::capacity(m, alpha),
            Algorithm::ExpectedThreePass => {
                crate::expected_three_pass::effective_capacity(m, alpha)
            }
            Algorithm::SevenPass => crate::seven_pass::capacity(m),
            Algorithm::ExpectedSixPass => crate::seven_pass::capacity_six(m, alpha),
            Algorithm::IntegerSort
            | Algorithm::RadixSort
            | Algorithm::MergeSort
            | Algorithm::UpDownMergeSort => usize::MAX,
            Algorithm::InMemory => m,
        }
    }

    /// The passes this sorter takes on `n` keys on `cfg` at confidence `α`,
    /// or `None` past its capacity. The paper's sorters report their
    /// theorem's count, the merge sorts
    /// [`crate::merge_sort::predicted_passes`]. The ranked sorters report
    /// none: their rounds depend on the key values.
    pub fn pass_bound(self, cfg: &PdmConfig, n: usize, alpha: f64) -> Option<PassBound> {
        if n > self.capacity(cfg, alpha) {
            return None;
        }
        let (passes, expected) = match self {
            Algorithm::InMemory => (1, false),
            Algorithm::ThreePass1 | Algorithm::ThreePass2 => (3, false),
            Algorithm::ExpTwoPassMesh | Algorithm::ExpectedTwoPass => (2, true),
            Algorithm::ExpectedThreePass => (3, true),
            Algorithm::ExpectedSixPass => (6, true),
            Algorithm::SevenPass => (7, false),
            Algorithm::MergeSort | Algorithm::UpDownMergeSort => {
                (crate::merge_sort::predicted_passes(cfg, n), false)
            }
            Algorithm::IntegerSort | Algorithm::RadixSort => return None,
        };
        Some(PassBound { passes, expected })
    }

    /// Sort `n` keys of `input` with this sorter (`α` feeds the expected
    /// three- and six-pass sorts). The ranked integer sorts return
    /// `UnsupportedInput`: they need `K: RankedKey` and are called directly.
    pub fn run<K: PdmKey, S: Storage<K>>(
        self,
        pdm: &mut Pdm<K, S>,
        input: &Region,
        n: usize,
        alpha: f64,
    ) -> Result<SortReport> {
        match self {
            Algorithm::ThreePass1 => crate::three_pass1(pdm, input, n),
            Algorithm::ExpTwoPassMesh => crate::exp_two_pass_mesh(pdm, input, n),
            Algorithm::ThreePass2 => crate::three_pass2(pdm, input, n),
            Algorithm::ExpectedTwoPass => crate::expected_two_pass(pdm, input, n),
            Algorithm::ExpectedThreePass => crate::expected_three_pass(pdm, input, n, alpha),
            Algorithm::SevenPass => crate::seven_pass(pdm, input, n),
            Algorithm::ExpectedSixPass => crate::expected_six_pass(pdm, input, n, alpha),
            Algorithm::IntegerSort | Algorithm::RadixSort => Err(PdmError::UnsupportedInput(
                format!("{self} needs integer-ranked keys; call it directly"),
            )),
            Algorithm::InMemory => in_memory_sort(pdm, input, n),
            Algorithm::MergeSort => crate::merge_sort(pdm, input, n),
            Algorithm::UpDownMergeSort => crate::updown_merge_sort(pdm, input, n),
        }
    }
}

impl std::str::FromStr for Algorithm {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        Algorithm::ALL
            .into_iter()
            .find(|a| a.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
                format!("unknown algorithm '{s}' ({})", names.join("|"))
            })
    }
}

/// The variant's own name (`ThreePass2`, …), as reports print it.
impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self, f)
    }
}

/// A sorter's predicted read passes (and as many write passes) at some `N`.
/// Orders by passes, then a bound that holds on every input before one
/// that holds only in expectation — the order `auto` ranks by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PassBound {
    /// Passes each way.
    pub passes: usize,
    /// Whether the bound holds only on a `≥ 1 − M^{−α}` fraction of inputs,
    /// the rest taking the sorter's fallback. Separate from
    /// [`Algorithm::deterministic`], which is about resumability.
    pub expected: bool,
}

/// `3`, or `2 expected`.
impl std::fmt::Display for PassBound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.passes)?;
        if self.expected {
            write!(f, " expected")?;
        }
        Ok(())
    }
}

/// Result of a PDM sort: where the output lives and what it cost.
#[derive(Debug, Clone)]
pub struct SortReport {
    /// Region holding the sorted output (first `n` keys).
    pub output: Region,
    /// Number of keys sorted.
    pub n: usize,
    /// Algorithm that produced the output.
    pub algorithm: Algorithm,
    /// Read passes consumed, by the parallel-step metric.
    pub read_passes: f64,
    /// Write passes consumed.
    pub write_passes: f64,
    /// Peak internal-memory residency in keys.
    pub peak_mem: usize,
    /// Whether an expected-case algorithm detected failure and fell back
    /// to its deterministic alternative.
    pub fell_back: bool,
}

impl SortReport {
    /// Assemble a report from the machine's counters (call right after the
    /// algorithm finishes, before other I/O). Deliberately snapshot-free:
    /// per-phase breakdowns stay in [`IoStats::phases`] on the machine, so
    /// building a report costs no allocation — consumers that want the
    /// waterfall read (or take) the phases from the machine they already
    /// hold instead of paying a `Vec<PhaseStats>` clone per sort.
    pub fn from_stats<K: PdmKey, S: Storage<K>>(
        pdm: &Pdm<K, S>,
        output: Region,
        n: usize,
        algorithm: Algorithm,
        fell_back: bool,
    ) -> Self {
        let d = pdm.cfg().num_disks;
        let b = pdm.cfg().block_size;
        Self {
            output,
            n,
            algorithm,
            read_passes: pdm.stats().read_passes(n, d, b),
            write_passes: pdm.stats().write_passes(n, d, b),
            peak_mem: pdm.mem().peak(),
            fell_back,
        }
    }
}

/// Validate the paper's standing assumptions for the `B = √M` algorithms:
/// `M` a perfect square, `B = √M`, and `D | √M` so stripe math is exact.
/// Returns `b = √M`.
pub fn require_square_cfg(cfg: &PdmConfig) -> Result<usize> {
    let b = cfg.sqrt_m()?;
    if cfg.block_size != b {
        return Err(PdmError::BadConfig(format!(
            "algorithm requires B = √M (B = {}, √M = {b})",
            cfg.block_size
        )));
    }
    if b % cfg.num_disks != 0 {
        return Err(PdmError::BadConfig(format!(
            "algorithm requires D | √M (D = {}, √M = {b})",
            cfg.num_disks
        )));
    }
    Ok(b)
}

/// The §5 capacity: `ExpectedTwoPass` sorts `M√M / √((α+2)·ln M + 2)` keys.
pub fn capacity_expected_two_pass(m: usize, alpha: f64) -> usize {
    let mf = m as f64;
    (mf * mf.sqrt() / ((alpha + 2.0) * mf.ln() + 2.0).sqrt()) as usize
}

/// The §6 capacity: `ExpectedThreePass` sorts
/// `M^1.75 / ((α+2)·ln M + 2)^{3/4}` keys.
pub fn capacity_expected_three_pass(m: usize, alpha: f64) -> usize {
    let mf = m as f64;
    (mf.powf(1.75) / ((alpha + 2.0) * mf.ln() + 2.0).powf(0.75)) as usize
}

/// Expected pass count of an expected-case algorithm: succeeds with
/// `p_ok` passes on `≥ 1 − M^{−α}` of inputs and pays `p_fallback` on the
/// rest — `p_ok·(1 − M^{−α}) + p_fallback·M^{−α}` (proofs of Theorems
/// 5.1/6.1). The paper's running example: `M = 10^8, α = 2` gives
/// `ExpectedTwoPass` exactly `2 + 3·10^{−16}`.
pub fn expected_passes(p_ok: f64, p_fallback: f64, m: usize, alpha: f64) -> f64 {
    let fail = (m as f64).powf(-alpha);
    p_ok * (1.0 - fail) + p_fallback * fail
}

/// Allocate `count` regions of `blocks_each` blocks, region `i` starting on
/// disk `i mod D`. Staggered starts make "one block into each region"
/// batches hit every disk evenly — the striping discipline behind the
/// paper's full-parallelism claims (Theorem 3.1 proof, \[23\]).
pub fn alloc_staggered<K: PdmKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    count: usize,
    blocks_each: usize,
) -> Result<Vec<Region>> {
    let d = pdm.cfg().num_disks;
    (0..count)
        .map(|i| pdm.alloc_region_at(blocks_each, i % d))
        .collect()
}

/// Like [`alloc_staggered`], but region `i` starts on disk
/// `(i·stride) mod D` — used when consumers write `stride`-block chunks
/// into consecutive regions, so one batch still walks the disks evenly.
pub fn alloc_staggered_stride<K: PdmKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    count: usize,
    blocks_each: usize,
    stride: usize,
) -> Result<Vec<Region>> {
    let d = pdm.cfg().num_disks;
    (0..count)
        .map(|i| pdm.alloc_region_at(blocks_each, (i * stride) % d))
        .collect()
}

/// The largest run length `m'·M ≤` the Theorem 5.1 expected-two-pass
/// capacity, with `m'` a divisor of `√M` (the layout divisibility the
/// expected three- and six-pass algorithms need).
pub(crate) fn expected_run_len(m: usize, b: usize, alpha: f64) -> usize {
    let cap = capacity_expected_two_pass(m, alpha);
    let m_prime_max = (cap / m).max(1).min(b);
    let m_prime = (1..=m_prime_max).rev().find(|x| b % x == 0).unwrap_or(1);
    m_prime * m
}

/// Merge `l` equal-length sorted segments laid back-to-back in `buf`
/// (`buf.len() = l·part_len`) into `out` (cleared first).
///
/// Runs on the [`crate::merge::LoserTree`] kernel; the previous
/// `BinaryHeap` implementation survives as
/// [`crate::merge::merge_equal_segments_heap`] for equivalence tests and
/// the before/after bench.
pub fn merge_equal_segments<K: PdmKey>(buf: &[K], part_len: usize, out: &mut Vec<K>) {
    assert!(part_len > 0 && buf.len() % part_len == 0);
    out.clear();
    let mut tree = crate::merge::LoserTree::new(buf.chunks(part_len).collect());
    tree.merge_into(out);
}

/// Where a sorter's cleanup pass hands each sorted window of output.
pub type Emit<'a, K, S> = dyn FnMut(&mut Pdm<K, S>, &[K]) -> Result<()> + 'a;

/// The streaming cleanup engine shared by every shuffle-then-clean phase
/// (ThreePass2 pass 3, ExpectedTwoPass pass 2, SevenPass steps 4–5, …).
///
/// Feed it windows of `w` keys; it holds the running carry (kept sorted),
/// sorts each incoming window and merges it in — `≤ 2w` resident keys,
/// the paper's "two successive `Z_i`'s in memory" — emits the smallest
/// `w` once warmed up, and *verifies* the
/// emitted stream: the paper's abort check ("the smallest key currently
/// being shipped out is smaller than the largest key shipped out in the
/// previous I/O") maps to [`Cleaner::clean`] going false.
pub struct Cleaner<K: PdmKey> {
    buf: TrackedBuf<K>,
    w: usize,
    /// Length of the already-sorted carry prefix of `buf`. Keys fed after
    /// the last `process` sit behind it unsorted; `process` sorts only
    /// that tail and merges it into the carry in place — the carry never
    /// pays a re-sort.
    sorted: usize,
    last_max: Option<K>,
    clean: bool,
    emitted: usize,
    telemetry: CleanerTelemetry,
}

/// Observational counters for one [`Cleaner`] run: how hard the cleanup
/// phase actually worked, and how close it came to the abort threshold —
/// the paper's `1 − M^{−α}` success bound made observable. Gauges are also
/// streamed into the machine's probe (as `cleaner.margin` /
/// `cleaner.carry`) when one is enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CleanerTelemetry {
    /// Emissions performed (windows shipped out).
    pub emissions: u64,
    /// Emissions that violated the boundary check (stream went unsorted).
    pub violations: u64,
    /// Largest carry occupancy (keys still resident) right after an
    /// emission; bounded by `w` when the input satisfies the displacement
    /// bound.
    pub max_carry: usize,
    /// Smallest boundary margin observed: `min(head − prev_max)` across
    /// emissions, via [`PdmKey::gauge_distance`]. Negative means at least
    /// one boundary check failed; small positive means a near-abort.
    /// `None` until a second emission happens.
    pub min_margin: Option<i64>,
}

impl<K: PdmKey> Cleaner<K> {
    /// A cleaner with window `w` (peak residency `2w`).
    pub fn new<S: Storage<K>>(pdm: &Pdm<K, S>, w: usize) -> Result<Self> {
        Ok(Self {
            buf: pdm.alloc_buf(2 * w)?,
            w,
            sorted: 0,
            last_max: None,
            clean: true,
            emitted: 0,
            telemetry: CleanerTelemetry::default(),
        })
    }

    /// Whether the emitted stream has stayed globally sorted so far.
    pub fn clean(&self) -> bool {
        self.clean
    }

    /// Keys emitted so far.
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    /// Telemetry gathered so far (read before [`Cleaner::finish`], which
    /// consumes the cleaner; the same data also streams into the probe).
    pub fn telemetry(&self) -> CleanerTelemetry {
        self.telemetry
    }

    /// Read one batch of blocks (see [`Pdm::read_blocks`]) straight into
    /// the cleanup buffer.
    pub fn feed_blocks<S: Storage<K>>(
        &mut self,
        pdm: &mut Pdm<K, S>,
        blocks: impl IntoIterator<Item = (Region, usize)>,
    ) -> Result<()> {
        pdm.read_blocks(blocks, self.buf.as_vec_mut())
    }

    /// Pull the next read-ahead batch straight into the cleanup buffer
    /// (the prefetched data lands in the `2w` budget — no extra staging).
    /// Returns false when the schedule is exhausted.
    pub fn feed_from<S: Storage<K>>(
        &mut self,
        pdm: &mut Pdm<K, S>,
        ra: &mut ReadAhead<K>,
    ) -> Result<bool> {
        ra.next_into(pdm, self.buf.as_vec_mut())
    }

    /// Append keys directly (for in-memory feeds).
    pub fn feed_keys(&mut self, keys: &[K]) {
        self.buf.extend_from_slice(keys);
    }

    /// Sort the newly fed keys, merge them into the already-sorted carry
    /// (in place — the `2w` budget has no room for scratch), and if more
    /// than one window is resident, emit the smallest `w` through `emit`.
    /// Call once per fed window.
    pub fn process<S: Storage<K>>(
        &mut self,
        pdm: &mut Pdm<K, S>,
        emit: &mut Emit<'_, K, S>,
    ) -> Result<()> {
        self.sort_resident();
        if self.buf.len() > self.w {
            self.emit_front(pdm, self.w, emit)?;
        }
        Ok(())
    }

    /// Restore the sorted invariant over everything resident: sort the
    /// unsorted tail (keys fed since the last call) and symmerge it with
    /// the sorted carry. Equivalent to — and byte-identical with — the
    /// old whole-buffer `sort_unstable`, at the cost of one window sort
    /// plus an O(1)-space merge instead of a `2w` re-sort.
    fn sort_resident(&mut self) {
        let mid = self.sorted.min(self.buf.len());
        self.buf[mid..].sort_unstable();
        crate::merge::merge_in_place(self.buf.as_vec_mut(), mid);
        self.sorted = self.buf.len();
    }

    fn emit_front<S: Storage<K>>(
        &mut self,
        pdm: &mut Pdm<K, S>,
        count: usize,
        emit: &mut Emit<'_, K, S>,
    ) -> Result<()> {
        if count == 0 {
            return Ok(());
        }
        if let Some(prev) = self.last_max {
            let margin = self.buf[0].gauge_distance(&prev);
            if self.buf[0] < prev {
                self.clean = false;
                self.telemetry.violations += 1;
            }
            self.telemetry.min_margin =
                Some(self.telemetry.min_margin.map_or(margin, |m| m.min(margin)));
            pdm.stats_mut().probe_gauge("cleaner.margin", margin);
        }
        self.last_max = Some(self.buf[count - 1]);
        emit(pdm, &self.buf[..count])?;
        self.emitted += count;
        self.buf.drain(..count);
        self.sorted = self.sorted.saturating_sub(count);
        self.telemetry.emissions += 1;
        let carry = self.buf.len();
        self.telemetry.max_carry = self.telemetry.max_carry.max(carry);
        pdm.stats_mut().probe_gauge("cleaner.carry", carry as i64);
        Ok(())
    }

    /// Flush whatever remains (sorting any keys fed since the last
    /// `process`).
    pub fn finish<S: Storage<K>>(
        mut self,
        pdm: &mut Pdm<K, S>,
        emit: &mut Emit<'_, K, S>,
    ) -> Result<(usize, bool)> {
        self.sort_resident();
        let rest = self.buf.len();
        self.emit_front(pdm, rest, emit)?;
        Ok((self.emitted, self.clean))
    }
}

/// An emitter that appends emitted keys to an output region sequentially,
/// block-aligned. Emitted slices must be whole blocks (all cleanup windows
/// in this crate are block multiples).
pub struct RegionEmitter {
    region: Region,
    next_block: usize,
}

impl RegionEmitter {
    /// Emit into `region` from block 0.
    pub fn new(region: Region) -> Self {
        Self {
            region,
            next_block: 0,
        }
    }

    /// Blocks written so far.
    pub fn blocks_written(&self) -> usize {
        self.next_block
    }

    /// The emit callback.
    pub fn emit<K: PdmKey, S: Storage<K>>(
        &mut self,
        pdm: &mut Pdm<K, S>,
        keys: &[K],
    ) -> Result<()> {
        let b = self.region.block_size();
        assert_eq!(keys.len() % b, 0, "emit must be block-aligned");
        let nblocks = keys.len() / b;
        let blocks = (self.next_block..self.next_block + nblocks).map(|i| (self.region, i));
        pdm.write_blocks(blocks, keys)?;
        self.next_block += nblocks;
        Ok(())
    }

    /// Like [`RegionEmitter::emit`], but routed through a [`WriteBehind`]
    /// so the write retires while the producer keeps computing (the
    /// payload is copied at issue — `keys` is immediately reusable).
    pub fn emit_behind<K: PdmKey, S: Storage<K>>(
        &mut self,
        pdm: &mut Pdm<K, S>,
        wb: &mut WriteBehind<K>,
        keys: &[K],
    ) -> Result<()> {
        let b = self.region.block_size();
        assert_eq!(keys.len() % b, 0, "emit must be block-aligned");
        let nblocks = keys.len() / b;
        let blocks = (self.next_block..self.next_block + nblocks).map(|i| (self.region, i));
        wb.write(pdm, blocks, keys)?;
        self.next_block += nblocks;
        Ok(())
    }
}

/// Sort `n` keys that fit in internal memory: one read pass + one write
/// pass. The trivial case of the dispatcher.
pub fn in_memory_sort<K: PdmKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    input: &Region,
    n: usize,
) -> Result<SortReport> {
    if n > pdm.cfg().mem_capacity {
        return Err(PdmError::UnsupportedInput(format!(
            "in_memory_sort: n = {n} exceeds M = {}",
            pdm.cfg().mem_capacity
        )));
    }
    let mut buf = pdm.alloc_buf(input.len_keys())?;
    pdm.begin_phase("IM: read+sort");
    pdm.read_region(input, buf.as_vec_mut())?;
    buf.truncate(n);
    buf.sort_unstable();
    pdm.begin_phase("IM: write");
    let out = pdm.alloc_region_for_keys(n)?;
    pdm.write_region(&out, &buf)?;
    pdm.end_phase();
    Ok(SortReport::from_stats(
        pdm,
        out,
        n,
        Algorithm::InMemory,
        false,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Pdm<u64> {
        Pdm::new(PdmConfig::square(4, 8)).unwrap() // D=4, B=8, M=64
    }

    #[test]
    fn require_square_cfg_accepts_and_rejects() {
        assert_eq!(require_square_cfg(&PdmConfig::square(4, 8)).unwrap(), 8);
        // B != sqrt(M)
        assert!(require_square_cfg(&PdmConfig::new(4, 4, 64)).is_err());
        // D does not divide sqrt(M)
        assert!(require_square_cfg(&PdmConfig::square(3, 8)).is_err());
        // M not a perfect square
        assert!(require_square_cfg(&PdmConfig::new(2, 10, 1000)).is_err());
    }

    #[test]
    fn capacities_are_monotone_and_sane() {
        let m = 1 << 16;
        let c2 = capacity_expected_two_pass(m, 2.0);
        let c3 = capacity_expected_three_pass(m, 2.0);
        let c6 = crate::seven_pass::capacity_six(m, 2.0);
        let m15 = ((m as f64).powf(1.5)) as usize;
        let m2 = m * m;
        assert!(c2 < m15, "c2 {c2} < M^1.5 {m15}");
        assert!(c3 > c2, "c3 {c3} should exceed c2 {c2}");
        assert!(c6 > c3 && c6 < m2);
        // the M^1.75 capacity overtakes M^1.5 once M is large enough
        let big = 1usize << 20;
        let m15_big = ((big as f64).powf(1.5)) as usize;
        assert!(capacity_expected_three_pass(big, 2.0) > m15_big);
        // higher alpha shrinks capacity
        assert!(capacity_expected_two_pass(m, 3.0) < c2);
    }

    #[test]
    fn papers_running_example_is_reproduced_exactly() {
        // §5: "when M = 10^8 and α = 2, the expected number of passes is
        // 2 + 3 × 10^−16"
        let e = expected_passes(2.0, 5.0, 100_000_000, 2.0);
        assert!((e - (2.0 + 3e-16)).abs() < 1e-18, "got {e:.20}");
        // §6: ExpectedThreePass → 3(1−M^−α) + 7·M^−α ≈ 3
        let e3 = expected_passes(3.0, 7.0, 100_000_000, 2.0);
        assert!((e3 - 3.0).abs() < 1e-14);
        // §1's fraction claim: at most 10^-14 % of inputs take more passes
        let fail_pct = 100.0 * (100_000_000f64).powf(-2.0);
        assert!((fail_pct - 1e-14).abs() < 1e-28);
    }

    #[test]
    fn merge_equal_segments_merges() {
        let buf = vec![1u64, 4, 7, 2, 5, 8, 3, 6, 9];
        let mut out = Vec::new();
        merge_equal_segments(&buf, 3, &mut out);
        assert_eq!(out, (1..=9).collect::<Vec<u64>>());
    }

    #[test]
    fn merge_with_duplicates() {
        let buf = vec![1u64, 1, 2, 1, 1, 2];
        let mut out = Vec::new();
        merge_equal_segments(&buf, 3, &mut out);
        assert_eq!(out, vec![1, 1, 1, 1, 2, 2]);
    }

    #[test]
    fn cleaner_streams_sorted_windows() {
        let mut pdm = machine();
        let out_reg = pdm.alloc_region_for_keys(64).unwrap();
        let mut emitter = RegionEmitter::new(out_reg);
        let mut cleaner = Cleaner::new(&pdm, 16).unwrap();
        // windows deliberately straddle: values interleaved across windows
        // but displaced < 16
        let data: Vec<u64> = (0..64).collect();
        for chunk in data.chunks(16) {
            let mut w: Vec<u64> = chunk.to_vec();
            w.reverse();
            cleaner.feed_keys(&w);
            cleaner
                .process(&mut pdm, &mut |p, ks| emitter.emit(p, ks))
                .unwrap();
        }
        let (n, clean) = cleaner
            .finish(&mut pdm, &mut |p, ks| emitter.emit(p, ks))
            .unwrap();
        assert_eq!(n, 64);
        assert!(clean);
        assert_eq!(pdm.inspect_prefix(&out_reg, 64).unwrap(), data);
    }

    #[test]
    fn cleaner_detects_excessive_displacement() {
        let mut pdm = machine();
        let out_reg = pdm.alloc_region_for_keys(64).unwrap();
        let mut emitter = RegionEmitter::new(out_reg);
        let mut cleaner = Cleaner::new(&pdm, 8).unwrap();
        // key 0 arrives three windows late: displacement 3w > w
        let windows: Vec<Vec<u64>> = vec![
            (8..16).collect(),
            (16..24).collect(),
            (24..32).collect(),
            vec![0, 32, 33, 34, 35, 36, 37, 38],
        ];
        for w in &windows {
            cleaner.feed_keys(w);
            cleaner
                .process(&mut pdm, &mut |p, ks| emitter.emit(p, ks))
                .unwrap();
        }
        let (_, clean) = cleaner
            .finish(&mut pdm, &mut |p, ks| emitter.emit(p, ks))
            .unwrap();
        assert!(!clean, "cleanup should have flagged the late key");
    }

    #[test]
    fn cleaner_telemetry_tracks_margins_and_carry() {
        let mut pdm = machine();
        pdm.enable_probe(1 << 10);
        let out_reg = pdm.alloc_region_for_keys(64).unwrap();
        let mut emitter = RegionEmitter::new(out_reg);
        let mut cleaner = Cleaner::new(&pdm, 16).unwrap();
        for chunk in (0..64u64).collect::<Vec<_>>().chunks(16) {
            let mut w: Vec<u64> = chunk.to_vec();
            w.reverse();
            cleaner.feed_keys(&w);
            cleaner
                .process(&mut pdm, &mut |p, ks| emitter.emit(p, ks))
                .unwrap();
        }
        let t = cleaner.telemetry();
        assert_eq!(t.emissions, 3, "4 windows fed, first buffers");
        assert_eq!(t.violations, 0);
        assert!(t.max_carry <= 16, "carry bounded by one window");
        // windows are disjoint ranges, so every boundary margin is +1
        assert_eq!(t.min_margin, Some(1));
        cleaner
            .finish(&mut pdm, &mut |p, ks| emitter.emit(p, ks))
            .unwrap();
        // gauges streamed into the probe alongside the telemetry struct
        let gauges = pdm
            .stats()
            .probe()
            .unwrap()
            .events()
            .iter()
            .filter(|e| matches!(e, ProbeEvent::Gauge { .. }))
            .count();
        assert!(gauges >= 6, "margin + carry per emission, got {gauges}");
    }

    #[test]
    fn cleaner_telemetry_counts_violations_with_negative_margin() {
        let mut pdm = machine();
        let out_reg = pdm.alloc_region_for_keys(64).unwrap();
        let mut emitter = RegionEmitter::new(out_reg);
        let mut cleaner = Cleaner::new(&pdm, 8).unwrap();
        let windows: Vec<Vec<u64>> = vec![
            (8..16).collect(),
            (16..24).collect(),
            (24..32).collect(),
            vec![0, 32, 33, 34, 35, 36, 37, 38],
        ];
        for w in &windows {
            cleaner.feed_keys(w);
            cleaner
                .process(&mut pdm, &mut |p, ks| emitter.emit(p, ks))
                .unwrap();
        }
        let t = cleaner.telemetry();
        assert!(t.violations >= 1);
        assert!(
            t.min_margin.unwrap() < 0,
            "violated boundary has negative margin"
        );
        let (_, clean) = cleaner
            .finish(&mut pdm, &mut |p, ks| emitter.emit(p, ks))
            .unwrap();
        assert!(!clean);
    }

    #[test]
    fn cleaner_memory_stays_at_two_windows() {
        let pdm = machine();
        let before = pdm.mem().current();
        let _cleaner: Cleaner<u64> = Cleaner::new(&pdm, 32).unwrap();
        assert_eq!(pdm.mem().current(), before + 64);
    }

    #[test]
    fn in_memory_sort_small_input() {
        let mut pdm = machine();
        let data: Vec<u64> = (0..50).rev().collect();
        let r = pdm.alloc_region_for_keys(50).unwrap();
        pdm.ingest(&r, &data).unwrap();
        let rep = in_memory_sort(&mut pdm, &r, 50).unwrap();
        assert_eq!(rep.algorithm, Algorithm::InMemory);
        let got = pdm.inspect_prefix(&rep.output, 50).unwrap();
        assert_eq!(got, (0..50).collect::<Vec<u64>>());
        assert!(rep.read_passes <= 1.5, "read passes {}", rep.read_passes);
        assert!(!rep.fell_back);
    }

    #[test]
    fn in_memory_sort_rejects_oversized() {
        let mut pdm = machine();
        let r = pdm.alloc_region_for_keys(100).unwrap();
        assert!(in_memory_sort(&mut pdm, &r, 100).is_err());
    }

    #[test]
    fn algorithm_display_names() {
        assert_eq!(Algorithm::ThreePass2.to_string(), "ThreePass2");
        assert_eq!(Algorithm::RadixSort.to_string(), "RadixSort");
    }

    #[test]
    fn every_table_name_round_trips_and_unknown_names_list_them_all() {
        for a in Algorithm::ALL {
            assert_eq!(a.name().parse::<Algorithm>(), Ok(a));
        }
        // checkpoint manifests store these spellings
        assert_eq!(Algorithm::ThreePass1.name(), "three-pass1");
        assert_eq!(Algorithm::ThreePass2.name(), "three-pass2");
        assert_eq!(Algorithm::ExpectedTwoPass.name(), "expected-two-pass");
        assert_eq!(Algorithm::SevenPass.name(), "seven-pass");
        let err = "bogosort".parse::<Algorithm>().unwrap_err();
        assert!(err.contains("bogosort"), "{err}");
        for a in Algorithm::ALL {
            assert!(err.contains(a.name()), "{err} misses {}", a.name());
        }
    }

    #[test]
    fn exactly_the_resumable_sorters_are_deterministic() {
        let det: Vec<Algorithm> = Algorithm::ALL
            .into_iter()
            .filter(|a| a.deterministic())
            .collect();
        assert_eq!(
            det,
            vec![
                Algorithm::ThreePass1,
                Algorithm::ThreePass2,
                Algorithm::SevenPass,
                Algorithm::MergeSort
            ]
        );
    }

    #[test]
    fn merge_sorts_take_any_n_and_only_mergesort_is_an_auto_candidate() {
        let cfg = PdmConfig::square(4, 16);
        for a in [Algorithm::MergeSort, Algorithm::UpDownMergeSort] {
            assert!(Algorithm::ALL.contains(&a), "{a}");
            assert_eq!(a.capacity(&cfg, 2.0), usize::MAX);
            assert!(!a.ranked(), "{a}");
            // resumable only with runs fixed by N and M
            assert_eq!(a.deterministic(), a == Algorithm::MergeSort, "{a}");
            // the same bound on every input
            let passes = crate::merge_sort::predicted_passes(&cfg, 5000);
            let want = PassBound {
                passes,
                expected: false,
            };
            assert_eq!(a.pass_bound(&cfg, 5000, 2.0), Some(want), "{a}");
        }
        // up/down was 2× slower on random input, so `auto` leaves it out
        assert!(Algorithm::CANDIDATES.contains(&Algorithm::MergeSort));
        assert!(!Algorithm::CANDIDATES.contains(&Algorithm::UpDownMergeSort));
        assert_eq!(Algorithm::MergeSort.name(), "mergesort");
        assert_eq!(Algorithm::UpDownMergeSort.name(), "updown-mergesort");
    }

    #[test]
    fn pass_bounds_are_the_theorem_counts_within_capacity() {
        let cfg = PdmConfig::square(4, 64);
        let m = cfg.mem_capacity;
        let bound = |a: Algorithm, n| a.pass_bound(&cfg, n, 2.0);
        let exact = |passes| {
            Some(PassBound {
                passes,
                expected: false,
            })
        };
        let expected = |passes| {
            Some(PassBound {
                passes,
                expected: true,
            })
        };
        assert_eq!(bound(Algorithm::InMemory, m), exact(1));
        assert_eq!(bound(Algorithm::InMemory, m + 1), None);
        assert_eq!(bound(Algorithm::ExpectedTwoPass, m + 1), expected(2));
        assert_eq!(bound(Algorithm::ThreePass2, m * 64), exact(3));
        assert_eq!(bound(Algorithm::ThreePass2, m * 64 + 1), None);
        assert_eq!(bound(Algorithm::ExpectedSixPass, m * 64 + 1), expected(6));
        assert_eq!(bound(Algorithm::SevenPass, m * m), exact(7));
        assert_eq!(bound(Algorithm::SevenPass, m * m + 1), None);
        assert_eq!(bound(Algorithm::RadixSort, 100), None);
        // passes first, then a bound on every input before an expected one
        assert!(exact(2) < expected(2) && expected(2) < exact(3));
        assert_eq!(expected(2).unwrap().to_string(), "2 expected");
        assert_eq!(exact(7).unwrap().to_string(), "7");
    }

    #[test]
    fn ranked_sorters_refuse_the_generic_runner() {
        let mut pdm = machine();
        let r = pdm.alloc_region_for_keys(50).unwrap();
        for a in Algorithm::ALL.into_iter().filter(|a| a.ranked()) {
            assert!(a.run(&mut pdm, &r, 50, 2.0).is_err(), "{a}");
        }
        let rep = Algorithm::InMemory.run(&mut pdm, &r, 50, 2.0).unwrap();
        assert_eq!(rep.algorithm, Algorithm::InMemory);
    }
}
