//! The in-memory sort kernels, and the kernel thread setting behind the
//! CLI's `--threads` flag.
//!
//! [`sort_run`] orders a run in memory, and [`sort_segments`] a column of
//! sorted segments (ThreePass2's pass 2). Keys with a
//! [`PdmKey::RADIX_KEY`] word (the integers of at most 64 bits) take a
//! least-significant-digit radix sort over the bytes of that word that vary
//! in the run, through a scratch buffer the caller tracks. Two scans decide
//! first, and where radix loses the kernels keep the comparison kernel the
//! sorters used before, `sort_unstable` for a run and the loser-tree merge
//! ([`merge_equal_segments`]) for a column:
//!
//! * the run is ascending: it is left as it is;
//! * it turns up and down at fewer than one key in [`RADIX_MIN_TURN`] (a
//!   column: the first keys of its segments do), as descending, nearly
//!   sorted and reversed-column inputs do. Their digits cycle through the
//!   buckets in step, which makes the scatter slow;
//! * more than [`RADIX_MAX_BYTES`] bytes vary: each byte costs a counting
//!   pass and a scatter, and past that many the comparison sort is faster
//!   (63-bit random keys vary in all eight, and the byte scan stops early
//!   on them).
//!
//! Every other key type (`Tagged`, ordered by key then payload, and `StrN`)
//! goes straight to the comparison kernels, unscanned. The choice is made
//! per key type at compile time. A run of radix keys has one sorted order,
//! so output bytes do not depend on which path ran.
//!
//! ThreePass2's run and column sorts (and through them SevenPass's and the
//! expected tiers') and the merge sort's load-sort-store runs use these
//! kernels. The Cleaner's window sort keeps `sort_unstable`: its `2w`
//! buffer fills the memory limit, so a scratch buffer does not fit.
//!
//! The kernels are sequential. At the run sizes measured here
//! (`M ≤ 2¹⁶` keys) no multi-threaded variant paid (ARCHITECTURE.md,
//! "Sequential in-memory kernels").

use crate::common::merge_equal_segments;
use pdm_model::prelude::*;

/// Most bytes of the [`PdmKey::RADIX_KEY`] word that may vary in a run for
/// [`sort_run`] to radix-sort it; a run whose keys vary in more bytes is
/// sorted by `sort_unstable`. Each byte costs one counting pass and one
/// scatter, about 1.8 ns a key, while the comparison sort's cost grows with
/// the run: 4 bytes is the most that beat it on runs of both 4,096 and
/// 65,536 keys (`pdm-bench`'s `sort_run` rows time 3, 4, 5 and 8 bytes).
pub const RADIX_MAX_BYTES: usize = 4;

/// The keys of scratch [`sort_run`] needs beside a run of `m` keys: `m` for
/// key types that take the radix path, none for the others.
pub fn scratch_len<K: PdmKey>(m: usize) -> usize {
    if K::RADIX_KEY.is_some() {
        m
    } else {
        0
    }
}

/// Sort `run` ascending, with `scratch` (at least [`scratch_len`] keys of
/// capacity, contents ignored) as the radix sort's second buffer. The two
/// vectors may trade their storage: the sorted keys end in `run`, and
/// `scratch` is left holding keys of no use.
pub fn sort_run<K: PdmKey>(run: &mut Vec<K>, scratch: &mut Vec<K>) {
    let Some(word) = K::RADIX_KEY else {
        return run.sort_unstable();
    };
    match plan(run, 1, word) {
        Plan::Ascending => {}
        Plan::Compare => run.sort_unstable(),
        Plan::Radix(varying) => radix_sort(run, scratch, word, varying),
    }
}

/// Sort `run`, which holds sorted segments of `part_len` keys back to back
/// (ThreePass2's column step), with `scratch` (`run.len()` keys of
/// capacity) as the second buffer. A column of radix keys is radix-sorted
/// as [`sort_run`] would, or left as it is if ascending; every other column
/// keeps the loser-tree merge ([`merge_equal_segments`]). As in
/// [`sort_run`], the sorted keys end in `run`.
pub fn sort_segments<K: PdmKey>(run: &mut Vec<K>, part_len: usize, scratch: &mut Vec<K>) {
    if let Some(word) = K::RADIX_KEY {
        match plan(run, part_len, word) {
            Plan::Ascending => return,
            Plan::Radix(varying) => return radix_sort(run, scratch, word, varying),
            Plan::Compare => {}
        }
    }
    merge_equal_segments(run, part_len, scratch);
    std::mem::swap(run, scratch);
}

/// How many bytes [`sort_run`] radix-sorts `run` over, or `None` when it
/// sorts the run by comparison or finds it ascending. With `part_len > 1`,
/// the same for [`sort_segments`] on a column of that many keys a segment.
pub fn radix_bytes<K: PdmKey>(run: &[K], part_len: usize) -> Option<usize> {
    match plan(run, part_len, K::RADIX_KEY?) {
        Plan::Radix(varying) => Some(byte_count(varying)),
        Plan::Ascending | Plan::Compare => None,
    }
}

/// How the kernels order a run.
enum Plan {
    /// Not at all: the run is already ascending.
    Ascending,
    /// By comparison.
    Compare,
    /// By an LSD radix sort over the nonzero bytes of this mask, the bits
    /// in which the run's [`PdmKey::RADIX_KEY`] words differ.
    Radix(u64),
}

/// The radix path needs a run to turn up and down at no fewer than one in
/// this many keys (on a column, of its segments' first keys). A run that
/// turns less is mostly long ascending or descending stretches, such as a
/// nearly sorted run or the column of a reversed input (its segments in
/// descending order): their digits cycle through the buckets in step, the
/// scatter's writes then collide in the cache, and a 2-byte radix sort
/// took as long as the comparison kernels on both.
pub const RADIX_MIN_TURN: usize = 8;

/// Keys the byte scan reads between checks for an early exit: once a run's
/// keys vary in more than [`RADIX_MAX_BYTES`] bytes, the rest cannot bring
/// it back under.
const SCAN_CHUNK: usize = 256;

/// Choose how to order `run`: count how often it turns up and down (on a
/// column of `part_len`-key segments, the sequence of the segments' first
/// keys does), then find the bytes its words vary in.
fn plan<K: Ord>(run: &[K], part_len: usize, word: fn(&K) -> u64) -> Plan {
    let heads = run.len().div_ceil(part_len);
    let need = heads / RADIX_MIN_TURN;
    let mut words = run.iter().step_by(part_len).map(word);
    let Some(mut prev) = words.next() else {
        return Plan::Ascending;
    };
    let (mut ups, mut downs) = (0, 0);
    for w in words {
        ups += usize::from(prev < w);
        downs += usize::from(prev > w);
        prev = w;
        if ups.min(downs) >= need.max(1) {
            break;
        }
    }
    if downs == 0 && (part_len == 1 || run.is_sorted()) {
        return Plan::Ascending;
    }
    if ups.min(downs) < need {
        return Plan::Compare;
    }
    let (mut same, mut any) = (u64::MAX, 0);
    for chunk in run.chunks(SCAN_CHUNK) {
        for w in chunk.iter().map(word) {
            same &= w;
            any |= w;
        }
        if byte_count(same ^ any) > RADIX_MAX_BYTES {
            return Plan::Compare;
        }
    }
    Plan::Radix(same ^ any)
}

/// The number of nonzero bytes of `x`.
fn byte_count(x: u64) -> usize {
    x.to_le_bytes().iter().filter(|&&b| b != 0).count()
}

/// LSD radix sort of `run` over the bytes `varying` marks, one counting
/// pass and one scatter per byte, alternating between `run` and `scratch`.
fn radix_sort<K: PdmKey>(
    run: &mut Vec<K>,
    scratch: &mut Vec<K>,
    word: fn(&K) -> u64,
    varying: u64,
) {
    scratch.clear();
    scratch.resize(run.len(), run[0]);
    let (mut src, mut dst) = (&mut *run, &mut *scratch);
    for shift in (0..64).step_by(8).filter(|s| (varying >> s) & 0xff != 0) {
        let digit = |k: &K| ((word(k) >> shift) & 0xff) as usize;
        let mut next = [0usize; 256];
        for k in src.iter() {
            next[digit(k)] += 1;
        }
        let mut start = 0;
        for slot in next.iter_mut() {
            let count = *slot;
            *slot = start;
            start += count;
        }
        for k in src.iter() {
            let d = digit(k);
            dst[next[d]] = *k;
            next[d] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    if byte_count(varying) % 2 == 1 {
        std::mem::swap(run, scratch);
    }
}

/// Accept the kernel thread count `1` (sequential, the default) and refuse
/// every other value.
pub fn configure_threads(threads: usize) -> std::result::Result<(), String> {
    if threads == 1 {
        return Ok(());
    }
    Err(format!(
        "--threads {threads}: the parallel kernels were removed; only 1 (sequential) is accepted"
    ))
}
