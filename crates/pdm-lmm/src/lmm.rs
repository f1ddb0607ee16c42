//! The `(l, m)`-merge sort of Rajasekaran \[23\] — in-memory reference
//! implementation.
//!
//! LMM sort partitions the input into `l` subsequences, sorts them
//! recursively, and merges with the `(l, m)`-merge:
//!
//! 1. **Unshuffle** each sorted input `X_i` into `m` parts
//!    `X_i^1 … X_i^m` (`X_i^j` takes positions `j, j+m, j+2m, …`).
//! 2. **Recursively merge** `X_1^j, …, X_l^j` into `L_j`, for each `j`.
//! 3. **Shuffle** (interleave) `L_1, …, L_m` into `Z`.
//! 4. **Cleanup**: every key of `Z` is within `l·m` of its sorted position;
//!    a local windowed sort finishes.
//!
//! Batcher's odd-even merge sort (`l = m = 2`), Thompson–Kung `s²-way`
//! merge sort (`l = m = s`), and columnsort are special cases. The paper's
//! `ThreePass2` and `SevenPass` are its PDM specializations (built in the
//! `pdm-sort` crate on top of this reference).

use pdm_theory::shuffling::{shuffle_parts, unshuffle};

/// The dirty-sequence bound of the `(l, m)`-merge: after shuffling, each
/// key is at distance ≤ `l·m` from its sorted position.
pub fn dirty_bound(l: usize, m: usize) -> usize {
    l * m
}

/// Sort a sequence in which every key is within `d` of its sorted position
/// (Observation 4.2): split into windows of `d`, sort windows, merge
/// odd-aligned neighbor pairs, then even-aligned neighbor pairs.
pub fn cleanup_displaced<K: Ord + Copy>(xs: &mut [K], d: usize) {
    let n = xs.len();
    if n <= 1 {
        return;
    }
    let d = d.clamp(1, n);
    // sort each window of size d
    for w in xs.chunks_mut(d) {
        w.sort_unstable();
    }
    // merge (Z1,Z2), (Z3,Z4), …
    merge_adjacent(xs, d, 0);
    // merge (Z2,Z3), (Z4,Z5), …
    merge_adjacent(xs, d, d);
}

/// Merge consecutive window pairs of width `d` starting at `offset`.
///
/// One scratch buffer (at most `2d` keys) serves every pair, so the pass
/// allocates once instead of once per pair.
fn merge_adjacent<K: Ord + Copy>(xs: &mut [K], d: usize, offset: usize) {
    let n = xs.len();
    let mut scratch: Vec<K> = Vec::with_capacity((2 * d).min(n));
    let mut start = offset;
    while start + d < n {
        let end = (start + 2 * d).min(n);
        // two sorted windows [start, start+d) and [start+d, end)
        scratch.clear();
        {
            let (a, b) = xs[start..end].split_at(d);
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                if a[i] <= b[j] {
                    scratch.push(a[i]);
                    i += 1;
                } else {
                    scratch.push(b[j]);
                    j += 1;
                }
            }
            scratch.extend_from_slice(&a[i..]);
            scratch.extend_from_slice(&b[j..]);
        }
        xs[start..end].copy_from_slice(&scratch);
        start += 2 * d;
    }
}

/// Direct k-way merge of sorted sequences (the recursion base case).
pub fn direct_merge<K: Ord + Copy>(parts: &[Vec<K>]) -> Vec<K> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let total: usize = parts.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let mut heap: BinaryHeap<Reverse<(K, usize, usize)>> = parts
        .iter()
        .enumerate()
        .filter(|(_, p)| !p.is_empty())
        .map(|(i, p)| Reverse((p[0], i, 0)))
        .collect();
    while let Some(Reverse((k, i, j))) = heap.pop() {
        out.push(k);
        if j + 1 < parts[i].len() {
            heap.push(Reverse((parts[i][j + 1], i, j + 1)));
        }
    }
    out
}

/// `(l, m)`-merge: merge `l` sorted sequences of equal length. Falls back to
/// [`direct_merge`] when the total fits `base` or the lengths stop dividing
/// evenly by `m`.
pub fn lmm_merge<K: Ord + Copy>(parts: &[Vec<K>], m: usize, base: usize) -> Vec<K> {
    let l = parts.len();
    let total: usize = parts.iter().map(Vec::len).sum();
    if l <= 1 {
        return parts.first().cloned().unwrap_or_default();
    }
    let part_len = parts[0].len();
    let uniform = parts.iter().all(|p| p.len() == part_len);
    if total <= base || m <= 1 || !uniform || part_len % m != 0 || part_len < m {
        return direct_merge(parts);
    }

    // Step 1: unshuffle each X_i into m parts; column j collects X_i^j.
    let mut columns: Vec<Vec<Vec<K>>> = vec![Vec::with_capacity(l); m];
    for p in parts {
        for (j, piece) in unshuffle(p, m).into_iter().enumerate() {
            columns[j].push(piece);
        }
    }

    // Step 2: recursively merge each column into L_j.
    let ls: Vec<Vec<K>> = columns
        .into_iter()
        .map(|col| lmm_merge(&col, m, base))
        .collect();

    // Step 3: shuffle L_1 … L_m.
    let mut z = shuffle_parts(&ls);

    // Step 4: cleanup — keys are within l·m of their sorted position.
    cleanup_displaced(&mut z, dirty_bound(l, m));
    z
}

/// Full `(l, m)`-merge sort: split into `l` runs, sort runs, `(l, m)`-merge.
///
/// # Example
///
/// ```
/// let data: Vec<u32> = (0..1000).rev().collect();
/// let sorted = pdm_lmm::lmm_sort(&data, 4, 4, 64);
/// assert_eq!(sorted, (0..1000).collect::<Vec<u32>>());
/// ```
pub fn lmm_sort<K: Ord + Copy>(xs: &[K], l: usize, m: usize, base: usize) -> Vec<K> {
    if xs.len() <= base || l <= 1 || xs.len() < l {
        let mut v = xs.to_vec();
        v.sort_unstable();
        return v;
    }
    let run = xs.len().div_ceil(l);
    let parts: Vec<Vec<K>> = xs.chunks(run).map(|c| lmm_sort(c, l, m, base)).collect();
    lmm_merge(&parts, m, base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_model::rng::SplitMix64;

    #[test]
    fn cleanup_fixes_d_displaced_sequences() {
        let mut rng = SplitMix64::seed_from_u64(11);
        for _ in 0..50 {
            // construct a d-displaced sequence: sorted, then local shuffles
            let n = 256;
            let d = 16;
            let mut xs: Vec<u32> = (0..n).collect();
            for w in xs.chunks_mut(d) {
                rng.shuffle(w);
            }
            // every key moved < d within its window
            cleanup_displaced(&mut xs, d);
            assert_eq!(xs, (0..n).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn cleanup_with_displacement_crossing_windows() {
        // keys may be up to d away across a window boundary
        let d = 4;
        let mut xs = vec![4u32, 5, 6, 7, 0, 1, 2, 3, 8, 9, 10, 11];
        cleanup_displaced(&mut xs, d);
        assert_eq!(xs, (0..12).collect::<Vec<u32>>());
    }

    #[test]
    fn cleanup_degenerate_inputs() {
        let mut empty: Vec<u32> = vec![];
        cleanup_displaced(&mut empty, 4);
        let mut one = vec![5u32];
        cleanup_displaced(&mut one, 0);
        assert_eq!(one, vec![5]);
        let mut two = vec![2u32, 1];
        cleanup_displaced(&mut two, 10); // d > n clamps
        assert_eq!(two, vec![1, 2]);
    }

    #[test]
    fn direct_merge_merges() {
        let parts = vec![vec![1u32, 4, 7], vec![2, 5, 8], vec![3, 6, 9]];
        assert_eq!(direct_merge(&parts), (1..=9).collect::<Vec<u32>>());
        assert_eq!(direct_merge::<u32>(&[]), Vec::<u32>::new());
        assert_eq!(direct_merge(&[vec![], vec![1u32]]), vec![1]);
    }

    #[test]
    fn lmm_merge_equals_direct_merge() {
        let mut rng = SplitMix64::seed_from_u64(5);
        for (l, m, part_len) in [
            (4usize, 4usize, 64usize),
            (8, 4, 32),
            (2, 2, 128),
            (16, 16, 256),
        ] {
            let mut parts = Vec::new();
            for _ in 0..l {
                let mut p: Vec<u64> = (0..part_len).map(|_| rng.gen_range(0..10_000)).collect();
                p.sort_unstable();
                parts.push(p);
            }
            let got = lmm_merge(&parts, m, m); // tiny base forces recursion
            let want = direct_merge(&parts);
            assert_eq!(got, want, "l={l} m={m}");
        }
    }

    #[test]
    fn lmm_sort_sorts_random_inputs() {
        let mut rng = SplitMix64::seed_from_u64(17);
        for (n, l, m) in [(1024usize, 4usize, 4usize), (4096, 8, 8), (512, 2, 2)] {
            let xs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1_000_000)).collect();
            let mut want = xs.clone();
            want.sort_unstable();
            assert_eq!(lmm_sort(&xs, l, m, 64), want, "n={n} l={l} m={m}");
        }
    }

    #[test]
    fn lmm_sort_with_duplicates_and_sorted_input() {
        let xs = vec![3u32; 500];
        assert_eq!(lmm_sort(&xs, 4, 4, 16), xs);
        let sorted: Vec<u32> = (0..1000).collect();
        assert_eq!(lmm_sort(&sorted, 8, 8, 32), sorted);
        let rev: Vec<u32> = (0..1000).rev().collect();
        assert_eq!(lmm_sort(&rev, 8, 8, 32), (0..1000).collect::<Vec<u32>>());
    }

    #[test]
    fn batcher_is_the_l2_m2_special_case() {
        // l = m = 2 with base 2 is structurally odd-even merge sort; verify
        // it sorts all binary inputs of length 16 (0-1 principle check).
        for bits in 0u32..(1 << 16) {
            let xs: Vec<u8> = (0..16).map(|i| ((bits >> i) & 1) as u8).collect();
            let got = lmm_sort(&xs, 2, 2, 2);
            assert!(got.windows(2).all(|w| w[0] <= w[1]), "bits {bits:#x}");
        }
    }

    #[test]
    fn dirty_bound_after_shuffle_is_respected() {
        // Empirically confirm the l·m displacement bound the cleanup relies
        // on: shuffle of recursively merged columns.
        let mut rng = SplitMix64::seed_from_u64(23);
        let (l, m, part_len) = (8usize, 8usize, 64usize);
        for _ in 0..20 {
            let mut parts = Vec::new();
            for _ in 0..l {
                let mut p: Vec<u64> = (0..part_len).map(|_| rng.gen_range(0..100_000)).collect();
                p.sort_unstable();
                parts.push(p);
            }
            let mut columns: Vec<Vec<Vec<u64>>> = vec![Vec::new(); m];
            for p in &parts {
                for (j, piece) in unshuffle(p, m).into_iter().enumerate() {
                    columns[j].push(piece);
                }
            }
            let ls: Vec<Vec<u64>> = columns.iter().map(|c| direct_merge(c)).collect();
            let z = shuffle_parts(&ls);
            let disp = pdm_theory::max_displacement(&z);
            assert!(
                disp <= dirty_bound(l, m),
                "displacement {disp} exceeds l*m = {}",
                dirty_bound(l, m)
            );
        }
    }
}
