//! Property tests: sortedness + multiset preservation for every algorithm
//! under arbitrary inputs, plus the analysis lemmas' invariants.
//!
//! Each property runs [`CASES`] seeded cases. Case `s` draws its input from
//! `SplitMix64::seed_from_u64(s)`, so every failure replays exactly; the panic
//! names the property, the seed and the input length. A case whose input
//! misses a property's precondition is skipped.

use pdm_model::prelude::*;
use pdm_model::rng::SplitMix64;
use pdm_sort::Algorithm;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};

/// Cases per property.
const CASES: u64 = 48;

/// One seeded case: its generator, and the input length a failure reports.
struct Case {
    rng: SplitMix64,
    len: usize,
}

impl Case {
    /// A vector whose length is drawn from `lens` and whose elements come
    /// from `draw`; its length becomes the reported input length.
    fn vec<T>(&mut self, lens: Range<usize>, mut draw: impl FnMut(&mut SplitMix64) -> T) -> Vec<T> {
        self.len = self.rng.gen_range(lens);
        (0..self.len).map(|_| draw(&mut self.rng)).collect()
    }

    /// `vec` of uniformly drawn `u64` keys.
    fn keys(&mut self, lens: Range<usize>) -> Vec<u64> {
        self.vec(lens, |r| r.gen::<u64>())
    }
}

/// Run `body` on [`CASES`] seeded cases, re-raising a failure with the
/// property name, the seed and the case's input length.
fn forall(property: &str, mut body: impl FnMut(&mut Case)) {
    for seed in 0..CASES {
        let mut case = Case {
            rng: SplitMix64::seed_from_u64(seed),
            len: 0,
        };
        if let Err(e) = panic::catch_unwind(AssertUnwindSafe(|| body(&mut case))) {
            let msg = e
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| e.downcast_ref::<&str>().copied())
                .unwrap_or("(non-string panic)");
            panic!("{property}: seed {seed}, input length {}: {msg}", case.len);
        }
    }
}

/// `fn name(c) { body }` items become `#[test] fn name()` running `body`
/// through [`forall`] with the case bound to `c`.
macro_rules! property {
    ($(fn $name:ident($c:ident) $body:block)*) => {$(
        #[test]
        fn $name() {
            forall(stringify!($name), |$c: &mut Case| $body);
        }
    )*};
}

fn check_sorts(
    data: &[u64],
    f: impl FnOnce(&mut Pdm<u64>, &Region, usize) -> Region,
    d: usize,
    b: usize,
) {
    let n = data.len();
    let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(d, b)).unwrap();
    let input = pdm.alloc_region_for_keys(n).unwrap();
    pdm.ingest(&input, data).unwrap();
    let out = f(&mut pdm, &input, n);
    let got = pdm.inspect_prefix(&out, n).unwrap();
    let mut want = data.to_vec();
    want.sort_unstable();
    assert_eq!(got, want);
}

property! {
    fn three_pass1_sorts_anything(c) {
        let data = c.keys(1..512);
        check_sorts(&data, |p, r, n| pdm_sort::three_pass1(p, r, n).unwrap().output, 2, 8);
    }

    fn three_pass2_sorts_anything(c) {
        let data = c.keys(1..512);
        check_sorts(&data, |p, r, n| pdm_sort::three_pass2(p, r, n).unwrap().output, 2, 8);
    }

    fn expected_two_pass_sorts_anything(c) {
        let data = c.keys(1..512);
        check_sorts(&data, |p, r, n| pdm_sort::expected_two_pass(p, r, n).unwrap().output, 2, 8);
    }

    fn exp_two_pass_mesh_sorts_anything(c) {
        let data = c.keys(1..512);
        check_sorts(&data, |p, r, n| pdm_sort::exp_two_pass_mesh(p, r, n).unwrap().output, 2, 8);
    }

    fn seven_pass_sorts_anything(c) {
        let data = c.keys(1..2048);
        check_sorts(&data, |p, r, n| pdm_sort::seven_pass(p, r, n).unwrap().output, 2, 8);
    }

    fn dispatcher_sorts_anything(c) {
        let data = c.keys(1..3000);
        check_sorts(&data, |p, r, n| pdm_sort::pdm_sort(p, r, n).unwrap().output, 2, 8);
    }

    fn radix_sort_sorts_any_integers(c) {
        let data = c.keys(1..1500);
        check_sorts(&data, |p, r, n| pdm_sort::radix_sort(p, r, n, 64).unwrap().report.output, 2, 8);
    }

    fn integer_sort_sorts_bounded(c) {
        let data = c.vec(1..1500, |r| r.gen_range(0..8u64));
        check_sorts(&data, |p, r, n| pdm_sort::integer_sort(p, r, n, 8).unwrap().output, 2, 8);
    }

    fn mergesort_baseline_sorts_anything(c) {
        let data = c.keys(1..2000);
        for algo in [Algorithm::MergeSort, Algorithm::UpDownMergeSort] {
            check_sorts(&data, |p, r, n| algo.run(p, r, n, 2.0).unwrap().output, 2, 8);
        }
    }

    fn cc_columnsort_sorts_anything(c) {
        let data = c.keys(1..2000);
        // B = 8 = M^{1/3}, M = 512; capacity = 2048
        let n = data.len();
        let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::new(2, 8, 512)).unwrap();
        let input = pdm.alloc_region_for_keys(n).unwrap();
        pdm.ingest(&input, &data).unwrap();
        let rep = pdm_baseline::cc_columnsort(&mut pdm, &input, n).unwrap();
        let got = pdm.inspect_prefix(&rep.output, n).unwrap();
        let mut want = data.clone();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    // ---- analysis invariants ----

    fn lmm_sort_equals_std_sort(c) {
        let data = c.vec(0..2000, |r| r.gen::<u32>());
        let l = c.rng.gen_range(2..6usize);
        let m = c.rng.gen_range(2..6usize);
        let got = pdm_lmm::lmm_sort(&data, l, m, 32);
        let mut want = data.clone();
        want.sort_unstable();
        assert_eq!(got, want, "l = {l}, m = {m}");
    }

    fn cleanup_fixes_any_window_shuffle(c) {
        let perm_seed = c.rng.gen_range(0..1000u64);
        let d = 1usize << c.rng.gen_range(2..6u32);
        let n = d * 16;
        c.len = n;
        let mut rng = SplitMix64::seed_from_u64(perm_seed);
        let mut xs: Vec<u32> = (0..n as u32).collect();
        for w in xs.chunks_mut(d) {
            rng.shuffle(w);
        }
        pdm_lmm::cleanup_displaced(&mut xs, d);
        assert!(xs.windows(2).all(|w| w[0] <= w[1]), "perm_seed = {perm_seed}, d = {d}");
    }

    fn shuffle_unshuffle_roundtrip(c) {
        let data = c.vec(1..512, |r| r.gen::<u32>());
        let m = c.rng.gen_range(1..8usize);
        let n = data.len() - data.len() % m;
        if n == 0 {
            return;
        }
        let parts = pdm_theory::unshuffle(&data[..n], m);
        let z = pdm_theory::shuffle_parts(&parts);
        assert_eq!(&z[..], &data[..n], "m = {m}");
    }

    fn batcher_network_sorts_random(c) {
        let data = c.vec(1..64, |r| r.gen::<u16>());
        let net = pdm_theory::odd_even_merge_sort(data.len());
        let mut v = data.clone();
        net.apply(&mut v);
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
    }

    fn displacement_bound_after_shuffle(c) {
        let seed = c.rng.gen_range(0..500u64);
        let (n, q) = (1usize << 12, 1usize << 6);
        c.len = n;
        let mut rng = SplitMix64::seed_from_u64(seed);
        let d = pdm_theory::shuffling::trial_max_displacement(n, q, &mut rng);
        let bound = pdm_theory::displacement_bound(n, q, 2.0);
        // probability of violation ≤ n^-2 per trial — treat as never
        assert!((d as f64) <= bound, "trial seed {seed}: displacement {d} > bound {bound}");
    }

    fn mem_tracker_never_exceeds_limit(c) {
        let ops = c.vec(0..64, |r| (r.gen_range(1..64usize), r.gen::<bool>()));
        let t = pdm_model::mem::MemTracker::new(256);
        let mut guards = Vec::new();
        for (sz, release) in ops {
            if release && !guards.is_empty() {
                guards.pop();
            } else if let Ok(g) = t.acquire(sz) {
                guards.push(g);
            }
            assert!(t.current() <= 256);
            assert!(t.peak() <= 256);
        }
    }

    fn region_addressing_is_a_bijection(c) {
        let nb = c.rng.gen_range(1..64usize);
        let d = c.rng.gen_range(1..8usize);
        let start = c.rng.gen_range(0..8usize) % d;
        c.len = nb;
        let r = pdm_model::Region::new(0, start, nb, d, 4);
        let mut seen = std::collections::HashSet::new();
        for i in 0..nb {
            let a = r.addr(i).unwrap();
            assert!(a.disk < d);
            assert!(seen.insert((a.disk, a.slot)), "duplicate physical address");
        }
    }

    fn distribute_preserves_multiset_and_occupancy(c) {
        use pdm_sort::integer_sort::{distribute, FlushMode, Source};
        let data = c.vec(1..2000, |r| r.gen_range(0..8u64));
        let packed = c.rng.gen::<bool>();
        let mode = if packed { FlushMode::Packed } else { FlushMode::PerPhase };
        let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(2, 8)).unwrap();
        let input = pdm.alloc_region_for_keys(data.len()).unwrap();
        pdm.ingest(&input, &data).unwrap();
        let src = Source::Region(&input, data.len());
        let buckets = distribute(&mut pdm, &src, 8, mode, |k| *k as usize).unwrap();
        // per-bucket totals match the histogram
        let mut hist = [0usize; 8];
        for &k in &data {
            hist[k as usize] += 1;
        }
        assert_eq!(buckets.total, data.len());
        for (v, run) in buckets.runs.iter().enumerate() {
            assert_eq!(run.total, hist[v], "bucket {v}, {mode:?}");
            // block occupancy sums to the run total, each ≤ B
            let occ: usize = run.block_keys.iter().sum();
            assert_eq!(occ, run.total);
            assert!(run.block_keys.iter().all(|&cnt| cnt <= 8 && cnt > 0));
        }
        // reading the runs back yields exactly the keys of each bucket
        for (v, run) in buckets.runs.iter().enumerate() {
            let mut got = Vec::new();
            let rsrc = Source::Run(run);
            rsrc.for_each_chunk(&mut pdm, 64, |_p, ks| {
                got.extend_from_slice(ks);
                Ok(())
            })
            .unwrap();
            assert_eq!(got.len(), hist[v]);
            assert!(got.iter().all(|&k| k == v as u64));
        }
    }

    fn cleaner_is_exactly_a_sorter_for_small_displacement(c) {
        use pdm_sort::common::{Cleaner, RegionEmitter};
        // Feed w-key windows of a sequence where every key is within w of
        // its sorted position (constructed by sorting then window-local
        // shuffles): the cleaner must emit the global sort.
        let w = 8usize;
        let windows = c.vec(1..12, |r| (0..w).map(|_| r.gen::<u16>()).collect::<Vec<_>>());
        let mut all: Vec<u64> = windows.iter().flatten().map(|&x| x as u64).collect();
        all.sort_unstable();
        // local shuffle within windows (displacement < w)
        let mut local = all.clone();
        for chunk in local.chunks_mut(w) {
            chunk.reverse();
        }
        let n = local.len();
        c.len = n;

        let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(2, 8)).unwrap();
        let out = pdm.alloc_region_for_keys(n.next_multiple_of(w)).unwrap();
        let mut em = RegionEmitter::new(out);
        let mut cleaner = Cleaner::new(&pdm, w).unwrap();
        for chunk in local.chunks(w) {
            let mut padded = chunk.to_vec();
            padded.resize(w, u64::MAX);
            cleaner.feed_keys(&padded);
            cleaner.process(&mut pdm, &mut |p, ks| em.emit(p, ks)).unwrap();
        }
        let (emitted, clean) = cleaner.finish(&mut pdm, &mut |p, ks| em.emit(p, ks)).unwrap();
        assert!(clean);
        let got = pdm.inspect_prefix(&out, n).unwrap();
        assert_eq!(&got[..], &all[..]);
        assert!(emitted >= n);
    }

    fn region_split_partitions_physical_blocks(c) {
        let nb = c.rng.gen_range(1..96usize);
        let parts = c.rng.gen_range(1..8usize);
        c.len = nb;
        if nb % parts != 0 {
            return;
        }
        let r = pdm_model::Region::new(0, 0, nb, 4, 8);
        let subs = r.split(parts).unwrap();
        let mut all: Vec<_> = Vec::new();
        for s in &subs {
            for i in 0..s.len_blocks() {
                all.push(s.addr(i).unwrap());
            }
        }
        let direct: Vec<_> = (0..nb).map(|i| r.addr(i).unwrap()).collect();
        assert_eq!(all, direct, "parts = {parts}");
    }

    fn stream_roundtrip_any_data(c) {
        let data = c.keys(0..600);
        let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::new(2, 8, 128)).unwrap();
        let r = pdm.alloc_region_for_keys(data.len().max(1)).unwrap();
        let mut w = RunWriter::striped(&pdm, r).unwrap();
        w.push_slice(&mut pdm, &data).unwrap();
        w.finish(&mut pdm).unwrap();
        let mut rd = RunReader::new(&pdm, r, data.len(), 2).unwrap();
        let mut got = Vec::new();
        rd.take_into(&mut pdm, data.len(), &mut got).unwrap();
        assert_eq!(got, data);
    }
}
