//! Cache-friendly k-way merge kernels: the loser tree behind
//! [`crate::common::merge_equal_segments`], an in-place two-run merge for
//! the [`crate::common::Cleaner`], and the `BinaryHeap` reference
//! implementation the equivalence tests and benches compare against.
//!
//! A loser tree (tournament tree) keeps the *losers* of each match in a
//! flat array of `k` internal nodes and replays exactly one leaf-to-root
//! path per extracted key: `⌈log₂ k⌉` comparisons against keys cached
//! inside the nodes themselves, no sift-down branching and no per-pop
//! allocation — the standard kernel of external-memory merge sorters
//! (Knuth Vol. 3 §5.4.1; Rahn–Sanders–Singler).
//!
//! Exhausted segments are represented by the `K::MAX` sentinel rather
//! than a liveness flag, which turns every match into a plain key compare
//! that compiles to a branch-free min/max — the difference between ~45
//! and ~15 ns/key at `k = 64` on a modern out-of-order core, where the
//! data-dependent "did the climber lose?" branch of the flagged variant
//! mispredicts roughly half the time.
//!
//! Why the sentinel is sound even though `K::MAX` legitimately occurs in
//! the input (block padding): the merge emits *keys only*, so which of
//! several equal keys is emitted first is unobservable in the output.
//! Once a sentinel wins while real keys remain, every live head must also
//! equal `K::MAX` (segments are sorted), the rest of the output is all
//! `K::MAX`, and `remaining` — counted at construction — still stops the
//! merge after exactly the right number of keys. The equivalence tests
//! against [`kway_merge_heap`] pin this down.

use pdm_model::PdmKey;

/// One tournament entry: a leaf index plus that leaf's current key, cached
/// together so a match costs a single contiguous load instead of an
/// indirect lookup through the segment arrays. Exhausted (and padding)
/// leaves carry `K::MAX` as their key.
#[derive(Clone, Copy)]
struct Node<K> {
    key: K,
    leaf: u32,
}

/// Replay one leaf-to-root path after the previous winner `win` was
/// consumed; returns the new overall winner (callers store it in
/// `nodes[0]`).
///
/// Each level is branch-free: the smaller entry climbs, the larger stays
/// as that match's loser, both sides written unconditionally so the
/// compiler lowers the selects to cmov. On equal keys the climber keeps
/// climbing — legal because equal keys are interchangeable in the
/// key-only output.
#[inline(always)]
fn replay<K: PdmKey>(
    nodes: &mut [Node<K>],
    tails: &mut [&[K]],
    cap: usize,
    win: Node<K>,
) -> Node<K> {
    let wi = win.leaf as usize;
    let tail = &mut tails[wi];
    let mut cur = match tail.split_first() {
        Some((&next, rest)) => {
            *tail = rest;
            Node {
                key: next,
                leaf: win.leaf,
            }
        }
        // Exhausted: the leaf re-enters the tournament as a sentinel and
        // loses every future match against live keys.
        None => Node {
            key: K::MAX,
            leaf: win.leaf,
        },
    };
    let mut node = (cap + wi) >> 1;
    while node != 0 {
        let other = nodes[node];
        let swap = other.key < cur.key;
        let stay_leaf = if swap { cur.leaf } else { other.leaf };
        let climb_leaf = if swap { other.leaf } else { cur.leaf };
        let lo = if swap { other.key } else { cur.key };
        let hi = if swap { cur.key } else { other.key };
        nodes[node] = Node {
            key: hi,
            leaf: stay_leaf,
        };
        cur = Node {
            key: lo,
            leaf: climb_leaf,
        };
        node >>= 1;
    }
    cur
}

/// A k-way merge over borrowed sorted segments.
///
/// Construction is `O(k)`; each [`LoserTree::pop`] is `⌈log₂ k⌉`
/// branch-free comparisons. Keys are cached inside the tree nodes (the
/// Rahn–Sanders–Singler layout), so the leaf-to-root replay touches one
/// flat array and the winner's segment — never the other `k - 1` heads.
pub struct LoserTree<'a, K: PdmKey> {
    /// Unread suffix per segment, *after* the key currently cached in the
    /// tree for that leaf. Padded to `cap` so every leaf index a sentinel
    /// node may carry stays in bounds.
    tails: Vec<&'a [K]>,
    /// `nodes[0]` is the overall winner; `nodes[1..cap]` hold the loser of
    /// each internal match.
    nodes: Vec<Node<K>>,
    /// Leaf count padded to a power of two.
    cap: usize,
    remaining: usize,
}

impl<'a, K: PdmKey> LoserTree<'a, K> {
    /// Build a tree over `segs`; empty segments are allowed and simply
    /// start exhausted.
    pub fn new(segs: Vec<&'a [K]>) -> Self {
        let k = segs.len();
        let cap = k.next_power_of_two().max(1);
        let remaining = segs.iter().map(|s| s.len()).sum();
        let dead = Node {
            key: K::MAX,
            leaf: 0,
        };
        let mut tails: Vec<&'a [K]> = Vec::with_capacity(cap);
        // Play the tournament bottom-up: `winner[n]` is the survivor of
        // the subtree under node `n`, the defeated side stays in `nodes`.
        let mut winner = vec![dead; 2 * cap];
        for (i, w) in winner[cap..].iter_mut().enumerate() {
            match segs.get(i).and_then(|s| s.split_first()) {
                Some((&head, rest)) => {
                    *w = Node {
                        key: head,
                        leaf: i as u32,
                    };
                    tails.push(rest);
                }
                None => {
                    *w = Node {
                        key: K::MAX,
                        leaf: i as u32,
                    };
                    tails.push(&[][..]);
                }
            }
        }
        let mut nodes = vec![dead; cap];
        for n in (1..cap).rev() {
            let (a, b) = (winner[2 * n], winner[2 * n + 1]);
            if a.key <= b.key {
                nodes[n] = b;
                winner[n] = a;
            } else {
                nodes[n] = a;
                winner[n] = b;
            }
        }
        nodes[0] = winner[1];
        Self {
            tails,
            nodes,
            cap,
            remaining,
        }
    }

    /// Keys not yet extracted.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Whether every segment is exhausted.
    pub fn is_empty(&self) -> bool {
        self.remaining == 0
    }

    /// Extract the next key in merge order, replaying one leaf-to-root
    /// path of matches.
    #[inline]
    pub fn pop(&mut self) -> Option<K> {
        if self.remaining == 0 {
            return None;
        }
        let win = self.nodes[0];
        self.nodes[0] = replay(&mut self.nodes, &mut self.tails, self.cap, win);
        self.remaining -= 1;
        Some(win.key)
    }

    /// Streaming variant: append up to `max` keys of merge output to
    /// `out`; returns how many were appended (0 only at exhaustion).
    ///
    /// The hot loop keeps the current winner in a register across
    /// iterations (writing `nodes[0]` back once at the end) so consecutive
    /// replays are not serialized through a store-to-load on the root.
    pub fn next_chunk(&mut self, out: &mut Vec<K>, max: usize) -> usize {
        let take = max.min(self.remaining);
        if take == 0 {
            return 0;
        }
        out.reserve(take);
        let cap = self.cap;
        let nodes = &mut self.nodes[..];
        let tails = &mut self.tails[..];
        let mut win = nodes[0];
        for _ in 0..take {
            out.push(win.key);
            win = replay(nodes, tails, cap, win);
        }
        nodes[0] = win;
        self.remaining -= take;
        take
    }

    /// Drain the whole merge into `out` (appending).
    pub fn merge_into(&mut self, out: &mut Vec<K>) {
        let n = self.remaining;
        self.next_chunk(out, n);
    }
}

/// Merge arbitrary sorted segments into `out` (cleared first).
pub fn kway_merge<K: PdmKey>(segs: &[&[K]], out: &mut Vec<K>) {
    out.clear();
    let mut tree = LoserTree::new(segs.to_vec());
    tree.merge_into(out);
}

/// Reference k-way merge via `BinaryHeap`, kept as the baseline the
/// equivalence tests and the `kway_merge_64` bench compare the loser tree
/// against. Not used on any production path.
pub fn kway_merge_heap<K: Copy + Ord>(segs: &[&[K]], out: &mut Vec<K>) {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    out.clear();
    let mut heap: BinaryHeap<Reverse<(K, usize, usize)>> = segs
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.is_empty())
        .map(|(i, s)| Reverse((s[0], i, 0)))
        .collect();
    while let Some(Reverse((k, i, j))) = heap.pop() {
        out.push(k);
        if j + 1 < segs[i].len() {
            heap.push(Reverse((segs[i][j + 1], i, j + 1)));
        }
    }
}

/// Heap-based `merge_equal_segments` (the pre-loser-tree implementation),
/// kept so equivalence stays assertable from integration tests and the
/// kernels bench can report the before/after delta.
pub fn merge_equal_segments_heap<K: Copy + Ord>(buf: &[K], part_len: usize, out: &mut Vec<K>) {
    assert!(part_len > 0 && buf.len() % part_len == 0);
    let segs: Vec<&[K]> = buf.chunks(part_len).collect();
    kway_merge_heap(&segs, out);
}

/// Merge the two consecutive sorted runs `v[..mid]` and `v[mid..]` in
/// place with O(1) auxiliary space (the SymMerge algorithm of Kim &
/// Kutzner, "Stable Minimum Storage Merging by Symmetric Comparisons").
///
/// Used by the [`crate::common::Cleaner`], whose `≤ 2w` resident-key
/// budget (the paper's "two successive Z_i's in memory") leaves no room
/// for a scratch buffer.
pub fn merge_in_place<K: Ord>(v: &mut [K], mid: usize) {
    let n = v.len();
    if mid == 0 || mid == n || v[mid - 1] <= v[mid] {
        return;
    }
    sym_merge(v, 0, mid, n);
}

fn sym_merge<K: Ord>(v: &mut [K], a: usize, m: usize, b: usize) {
    // Single-element run: binary-insert it into the other run.
    if m - a == 1 {
        let mut i = m;
        let mut j = b;
        while i < j {
            let h = (i + j) / 2;
            if v[h] < v[a] {
                i = h + 1;
            } else {
                j = h;
            }
        }
        v[a..i].rotate_left(1);
        return;
    }
    if b - m == 1 {
        let mut i = a;
        let mut j = m;
        while i < j {
            let h = (i + j) / 2;
            if v[m] < v[h] {
                j = h;
            } else {
                i = h + 1;
            }
        }
        v[i..=m].rotate_right(1);
        return;
    }
    // Symmetric decomposition: find the split point around the midpoint,
    // rotate the middle sections, recurse on both halves.
    let mid = (a + b) / 2;
    let n = mid + m;
    let (mut start, mut r) = if m > mid { (n - b, mid) } else { (a, m) };
    let p = n - 1;
    while start < r {
        let c = (start + r) / 2;
        if v[p - c] < v[c] {
            r = c;
        } else {
            start = c + 1;
        }
    }
    let end = n - start;
    if start < m && m < end {
        v[start..end].rotate_left(m - start);
    }
    if a < start && start < mid {
        sym_merge(v, a, start, mid);
    }
    if mid < end && end < b {
        sym_merge(v, mid, end, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_model::rng::SplitMix64;

    fn check_against_sorted(segs: &[Vec<u64>]) {
        let refs: Vec<&[u64]> = segs.iter().map(|s| s.as_slice()).collect();
        let mut want: Vec<u64> = segs.iter().flatten().copied().collect();
        want.sort_unstable();
        let mut got = Vec::new();
        kway_merge(&refs, &mut got);
        assert_eq!(got, want);
        let mut heap_out = Vec::new();
        kway_merge_heap(&refs, &mut heap_out);
        assert_eq!(got, heap_out, "loser tree and heap must agree exactly");
    }

    #[test]
    fn merges_basic_segments() {
        check_against_sorted(&[vec![1, 4, 7], vec![2, 5, 8], vec![3, 6, 9]]);
    }

    #[test]
    fn handles_duplicates_and_max_padding() {
        check_against_sorted(&[
            vec![1, 1, u64::MAX, u64::MAX],
            vec![1, 2, 2, u64::MAX],
            vec![u64::MAX, u64::MAX, u64::MAX, u64::MAX],
        ]);
    }

    #[test]
    fn handles_empty_and_uneven_segments() {
        check_against_sorted(&[vec![], vec![5], vec![], vec![1, 2, 3, 4, 9], vec![0]]);
        check_against_sorted(&[vec![], vec![], vec![]]);
        check_against_sorted(&[]);
        check_against_sorted(&[vec![3, 3, 3]]);
    }

    #[test]
    fn non_power_of_two_segment_counts() {
        let mut rng = SplitMix64::seed_from_u64(7);
        for k in [1usize, 2, 3, 5, 6, 7, 9, 13, 17, 64, 65] {
            let segs: Vec<Vec<u64>> = (0..k)
                .map(|_| {
                    let len = rng.gen_range(0..20);
                    let mut s: Vec<u64> = (0..len).map(|_| rng.gen_range(0..50)).collect();
                    s.sort_unstable();
                    s
                })
                .collect();
            check_against_sorted(&segs);
        }
    }

    #[test]
    fn streaming_chunks_concatenate_to_full_merge() {
        let segs = [vec![1u64, 3, 5, 7], vec![2, 4, 6, 8], vec![0, 9]];
        let refs: Vec<&[u64]> = segs.iter().map(|s| s.as_slice()).collect();
        let mut tree = LoserTree::new(refs);
        assert_eq!(tree.remaining(), 10);
        let mut out = Vec::new();
        while tree.next_chunk(&mut out, 3) > 0 {}
        assert!(tree.is_empty());
        assert_eq!(out, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn merge_in_place_agrees_with_sort() {
        let mut rng = SplitMix64::seed_from_u64(11);
        for _ in 0..200 {
            let n = rng.gen_range(0..64);
            let mid = if n == 0 { 0 } else { rng.gen_range(0..n + 1) };
            let mut v: Vec<u64> = (0..n).map(|_| rng.gen_range(0..16)).collect();
            v[..mid].sort_unstable();
            v[mid..].sort_unstable();
            let mut want = v.clone();
            want.sort_unstable();
            merge_in_place(&mut v, mid);
            assert_eq!(v, want, "mid = {mid}");
        }
    }

    #[test]
    fn merge_in_place_edge_cases() {
        let mut v: Vec<u64> = vec![];
        merge_in_place(&mut v, 0);
        let mut v = vec![1u64];
        merge_in_place(&mut v, 0);
        merge_in_place(&mut v, 1);
        assert_eq!(v, [1]);
        let mut v = vec![2u64, 1];
        merge_in_place(&mut v, 1);
        assert_eq!(v, [1, 2]);
        // already ordered: the fast path
        let mut v = vec![1u64, 2, 3, 4];
        merge_in_place(&mut v, 2);
        assert_eq!(v, [1, 2, 3, 4]);
    }
}
