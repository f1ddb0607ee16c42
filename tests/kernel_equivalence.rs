//! Cross-kernel equivalence: the hot-path sort and merge kernels are
//! drop-in replacements.
//!
//! The loser-tree k-way merge (whole and streamed in chunks) and the
//! in-place merge replaced slower reference implementations on the hot
//! path, and the radix run sort (`kernels::sort_run`) replaced
//! `sort_unstable` in run formation and, for integer keys, the loser-tree
//! column merge of ThreePass2's pass 2 (`kernels::sort_segments`). Their
//! outputs must equal the references' byte for byte, on both sides of the
//! radix kernel's byte gate and on presorted runs, so no sorter's output or
//! pass count can notice the swap. The last test pins the CLI's `--threads`
//! contract: the kernels are sequential and only 1 is accepted.

use pdm_model::rng::SplitMix64;
use pdm_model::{PdmKey, StrN, Tagged};
use pdm_sort::kernels::{self, RADIX_MAX_BYTES};
use pdm_sort::merge;

/// The run shapes the radix kernel is pinned on, as `u64` words of `n`
/// keys.
fn runs(n: usize, seed: u64) -> Vec<(&'static str, Vec<u64>)> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut permuted: Vec<u64> = (0..n as u64).collect();
    rng.shuffle(&mut permuted);
    let random63 = (0..n).map(|_| rng.next_u64() >> 1).collect();
    let two_value = (0..n)
        .map(|_| if rng.gen_bool(0.5) { 3 } else { 1 << 40 })
        .collect();
    let dup_heavy = (0..n)
        .map(|_| rng.gen_range(0..(n as u64 / 64).max(2)))
        .collect();
    let mut nearly: Vec<u64> = (0..n as u64).map(|i| 3 * i).collect();
    for _ in 0..(n / 100).max(1) {
        let (i, j) = (rng.gen_range(0..n.max(1)), rng.gen_range(0..n.max(1)));
        if n > 0 {
            nearly.swap(i, j);
        }
    }
    vec![
        ("permuted", permuted),
        ("random63", random63),
        ("all-equal", vec![42; n]),
        ("two-value", two_value),
        ("dup-heavy", dup_heavy),
        ("ascending", (0..n as u64).map(|i| 5 * i).collect()),
        ("descending", (0..n as u64).rev().collect()),
        ("nearly-sorted", nearly),
    ]
}

/// The keys' bytes in the file encoding.
fn encoded<K: PdmKey>(keys: &[K]) -> Vec<u8> {
    let mut out = vec![0u8; keys.len() * K::WIDTH];
    for (k, chunk) in keys.iter().zip(out.chunks_mut(K::WIDTH)) {
        k.write_bytes(chunk);
    }
    out
}

/// `sort_run` and `sort_unstable` give the same bytes on `keys`.
fn assert_sort_run_matches<K: PdmKey>(keys: Vec<K>, what: &str) {
    let mut want = keys.clone();
    want.sort_unstable();
    let mut run = keys;
    let mut scratch = Vec::with_capacity(kernels::scratch_len::<K>(run.len()));
    kernels::sort_run(&mut run, &mut scratch);
    assert_eq!(encoded(&run), encoded(&want), "{what}");
}

/// Pin `sort_run` on one integer key type: every run shape at every length,
/// mapped onto `K` by `to` (narrow types wrap, so they see duplicates).
fn pin_sort_run<K: PdmKey>(name: &str, to: fn(u64) -> K) {
    let (b, m) = (64, 4096);
    for n in [0, 1, 2, b, m - 1, m, 65_536] {
        for (shape, words) in runs(n, n as u64 + 11) {
            let keys: Vec<K> = words.into_iter().map(to).collect();
            assert_sort_run_matches(keys, &format!("{name}, {shape}, n = {n}"));
        }
    }
}

#[test]
fn radix_run_sort_matches_sort_unstable_on_every_integer_key() {
    pin_sort_run::<u64>("u64", |w| w);
    pin_sort_run::<u32>("u32", |w| w as u32);
    pin_sort_run::<u16>("u16", |w| w as u16);
    pin_sort_run::<u8>("u8", |w| w as u8);
    // Signed keys straddle zero, where every byte of the word varies.
    pin_sort_run::<i64>("i64", |w| (w as i64).wrapping_sub(1 << 20));
    pin_sort_run::<i32>("i32", |w| (w as i32).wrapping_sub(1 << 12));
    pin_sort_run::<i16>("i16", |w| (w as i16).wrapping_sub(1 << 10));
    pin_sort_run::<i8>("i8", |w| (w as i8).wrapping_sub(64));
}

#[test]
fn radix_run_sort_takes_each_side_of_its_byte_gate() {
    let mut rng = SplitMix64::seed_from_u64(12);
    for n in [64, 4096, 65_536] {
        for bytes in [1, RADIX_MAX_BYTES, RADIX_MAX_BYTES + 1, 8] {
            // Keys below 2^(8·bytes), in no order, whose top byte varies.
            let keys: Vec<u64> = (0..n)
                .map(|i| {
                    let low = rng.next_u64() & ((1 << (8 * bytes - 8)) - 1);
                    let top = (i as u64 * 167 % 256) << (8 * bytes - 8);
                    low | top
                })
                .collect();
            let want = (bytes <= RADIX_MAX_BYTES).then_some(bytes);
            assert_eq!(
                kernels::radix_bytes(&keys, 1),
                want,
                "{bytes} bytes, n = {n}"
            );
            assert_sort_run_matches(keys, &format!("{bytes} varying bytes, n = {n}"));
        }
    }
    // Presorted runs are left to the comparison sort (or as they are), and
    // so are runs and columns that turn too rarely.
    let ascending: Vec<u64> = (0..4096).collect();
    let descending: Vec<u64> = (0..4096).rev().collect();
    assert_eq!(kernels::radix_bytes(&ascending, 1), None);
    assert_eq!(kernels::radix_bytes(&descending, 1), None);
    let (_, nearly) = runs(4096, 15).swap_remove(7);
    assert_eq!(kernels::radix_bytes(&nearly, 1), None, "nearly sorted run");
    let reversed_column: Vec<u64> = (0..64u64)
        .rev()
        .flat_map(|i| (0..256).map(move |k| (i << 16) + 256 * k))
        .collect();
    assert_eq!(kernels::radix_bytes(&reversed_column, 256), None);
    assert_column_matches(reversed_column, 256, "a reversed input's column");
    let mut permuted: Vec<u64> = (0..16_384).collect();
    SplitMix64::seed_from_u64(16).shuffle(&mut permuted);
    for seg in permuted.chunks_mut(256) {
        seg.sort_unstable();
    }
    assert_eq!(
        kernels::radix_bytes(&permuted, 256),
        Some(2),
        "permuted column"
    );
}

#[test]
fn radix_run_sort_keeps_real_max_keys() {
    let mut rng = SplitMix64::seed_from_u64(13);
    // Near the top of the domain only the low bytes vary, so the radix
    // path sorts runs that hold real `u64::MAX` keys.
    let mut high: Vec<u64> = (0..4096)
        .map(|_| u64::MAX - rng.gen_range(0..1000u64))
        .collect();
    high[17] = u64::MAX;
    assert_eq!(kernels::radix_bytes(&high, 1), Some(2));
    assert_sort_run_matches(high, "keys near u64::MAX");
    // A MAX key among small keys makes every byte vary: comparison path.
    let mut mixed: Vec<u64> = (0..4096).map(|_| rng.gen_range(0..1 << 20)).collect();
    mixed[100] = u64::MAX;
    mixed[3000] = u64::MAX;
    assert_eq!(kernels::radix_bytes(&mixed, 1), None);
    assert_sort_run_matches(mixed, "u64::MAX among small keys");
    let top: Vec<i64> = (0..300).map(|i| i64::MAX - (i * 7919) % 256).collect();
    assert_sort_run_matches(top, "keys near i64::MAX");
}

#[test]
fn comparison_keys_keep_the_comparison_kernels() {
    let mut rng = SplitMix64::seed_from_u64(14);
    let tagged: Vec<Tagged> = (0..4096)
        .map(|i| Tagged::new(rng.gen_range(0..64), i))
        .collect();
    assert_eq!(kernels::scratch_len::<Tagged>(4096), 0);
    assert_eq!(kernels::radix_bytes(&tagged, 1), None);
    assert_sort_run_matches(tagged, "tagged");
    let strings: Vec<StrN<24>> = (0..1000)
        .map(|_| StrN::from_str_padded(&format!("{:x}", rng.next_u64() % 4099)))
        .collect();
    assert_eq!(kernels::scratch_len::<StrN<24>>(4096), 0);
    assert_sort_run_matches(strings, "str24");
}

/// ThreePass2's pass-2 step: `sort_segments` on a column of `k` sorted
/// segments of `part` keys gives the loser-tree merge's bytes.
fn assert_column_matches<K: PdmKey>(mut column: Vec<K>, part: usize, what: &str) {
    for seg in column.chunks_mut(part) {
        seg.sort_unstable();
    }
    let mut want = Vec::new();
    pdm_sort::common::merge_equal_segments(&column, part, &mut want);
    let mut scratch = Vec::with_capacity(column.len());
    kernels::sort_segments(&mut column, part, &mut scratch);
    assert_eq!(encoded(&column), encoded(&want), "{what}");
}

#[test]
fn column_sort_matches_the_loser_tree_merge() {
    for &(k, part) in &[(1usize, 16usize), (4, 1), (7, 33), (64, 64), (64, 256)] {
        for (shape, words) in runs(k * part, (k * part) as u64) {
            let what = format!("{shape}, k = {k}, part = {part}");
            assert_column_matches(words.clone(), part, &format!("u64 {what}"));
            let signed = words
                .iter()
                .map(|&w| (w as i32).wrapping_sub(1 << 9))
                .collect();
            assert_column_matches::<i32>(signed, part, &format!("i32 {what}"));
            let tagged = words.iter().map(|&w| Tagged::new(w % 97, w)).collect();
            assert_column_matches::<Tagged>(tagged, part, &format!("tagged {what}"));
        }
    }
}

#[test]
fn loser_tree_merge_matches_heap_merge() {
    let mut rng = SplitMix64::seed_from_u64(7);
    for trial in 0..40 {
        let k = rng.gen_range(1..18usize);
        let segs: Vec<Vec<u64>> = (0..k)
            .map(|_| {
                let len = rng.gen_range(0..65usize);
                let mut s: Vec<u64> = (0..len).map(|_| rng.gen_range(0..100)).collect();
                s.sort_unstable();
                s
            })
            .collect();
        let refs: Vec<&[u64]> = segs.iter().map(Vec::as_slice).collect();
        let (mut tree_out, mut heap_out) = (Vec::new(), Vec::new());
        merge::kway_merge(&refs, &mut tree_out);
        merge::kway_merge_heap(&refs, &mut heap_out);
        assert_eq!(tree_out, heap_out, "trial {trial}: k = {k}");
        assert!(tree_out.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(tree_out.len(), segs.iter().map(Vec::len).sum::<usize>());
    }
}

#[test]
fn equal_segment_merge_agrees_between_tree_and_heap() {
    let mut rng = SplitMix64::seed_from_u64(8);
    for &(k, part) in &[(1usize, 16usize), (4, 1), (7, 33), (16, 64), (33, 8)] {
        let mut buf: Vec<u64> = (0..k * part).map(|_| rng.gen_range(0..50)).collect();
        for seg in buf.chunks_mut(part) {
            seg.sort_unstable();
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        pdm_sort::common::merge_equal_segments(&buf, part, &mut a);
        merge::merge_equal_segments_heap(&buf, part, &mut b);
        assert_eq!(a, b, "k = {k}, part = {part}");
    }
}

#[test]
fn streaming_merge_chunks_reassemble_the_full_merge() {
    let mut rng = SplitMix64::seed_from_u64(9);
    let segs: Vec<Vec<u64>> = (0..9)
        .map(|_| {
            let mut s: Vec<u64> = (0..rng.gen_range(1..80usize))
                .map(|_| rng.gen_range(0..1000))
                .collect();
            s.sort_unstable();
            s
        })
        .collect();
    let refs: Vec<&[u64]> = segs.iter().map(Vec::as_slice).collect();
    let mut whole = Vec::new();
    merge::kway_merge(&refs, &mut whole);

    let mut tree = merge::LoserTree::new(refs);
    let mut streamed = Vec::new();
    let mut chunk = Vec::new();
    loop {
        chunk.clear();
        if tree.next_chunk(&mut chunk, 13) == 0 {
            break;
        }
        streamed.extend_from_slice(&chunk);
    }
    assert_eq!(streamed, whole);
    assert!(tree.is_empty());
}

#[test]
fn in_place_merge_matches_sorting_the_concatenation() {
    let mut rng = SplitMix64::seed_from_u64(10);
    for _ in 0..30 {
        let la = rng.gen_range(0..120usize);
        let lb = rng.gen_range(0..120usize);
        let mut a: Vec<u64> = (0..la).map(|_| rng.gen_range(0..40)).collect();
        let mut b: Vec<u64> = (0..lb).map(|_| rng.gen_range(0..40)).collect();
        a.sort_unstable();
        b.sort_unstable();
        let mut v = a.clone();
        v.extend_from_slice(&b);
        let mut expect = v.clone();
        expect.sort_unstable();
        merge::merge_in_place(&mut v, la);
        assert_eq!(v, expect, "la = {la}, lb = {lb}");
    }
}

#[test]
fn configure_threads_one_is_always_accepted() {
    // --threads 1 means "sequential" and is the only accepted value.
    kernels::configure_threads(1).unwrap();
    for refused in [0, 2] {
        let err = kernels::configure_threads(refused).unwrap_err();
        assert!(err.contains("removed"), "--threads {refused}: {err}");
    }
}
