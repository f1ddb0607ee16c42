//! Large-scale stress tests — `#[ignore]`d by default; run with
//! `cargo test --release -p pdm-integration --test stress -- --ignored`.
//!
//! These push the algorithms to `b = 64` (`M = 4096`, `N` up to `M² ≈ 16.7M`
//! keys ≈ 134 MB of u64), where constant-factor issues that toy sizes hide
//! (striping phase errors, window off-by-ones at scale, memory blowups)
//! would surface.

use pdm_model::prelude::*;
use pdm_model::rng::SplitMix64;

fn big_permutation(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut v: Vec<u64> = (0..n as u64).collect();
    rng.shuffle(&mut v);
    v
}

fn spot_check_sorted<S: Storage<u64>>(pdm: &mut Pdm<u64, S>, out: &Region, n: usize) {
    // full inspection of 16M keys is fine in release; also verify the
    // multiset by the sum-of-ranks identity (input was a permutation)
    let got = pdm.inspect_prefix(out, n).unwrap();
    assert!(got.windows(2).all(|w| w[0] <= w[1]), "output not sorted");
    assert_eq!(got.first(), Some(&0));
    assert_eq!(got.last(), Some(&((n - 1) as u64)));
    let sum: u128 = got.iter().map(|&k| k as u128).sum();
    assert_eq!(sum, (n as u128) * (n as u128 - 1) / 2, "multiset damaged");
}

#[test]
#[ignore = "large: ~135MB working set"]
fn seven_pass_at_m_squared_b64() {
    let b = 64usize;
    let m = b * b;
    let n = m * m; // 16_777_216
    let data = big_permutation(n, 1);
    let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(8, b)).unwrap();
    let input = pdm.alloc_region_for_keys(n).unwrap();
    pdm.ingest(&input, &data).unwrap();
    drop(data);
    pdm.reset_stats();
    let rep = pdm_sort::seven_pass(&mut pdm, &input, n).unwrap();
    assert!(
        (rep.read_passes - 7.0).abs() < 1e-9,
        "read {}",
        rep.read_passes
    );
    assert!((rep.write_passes - 7.0).abs() < 1e-9);
    assert!(rep.peak_mem <= pdm.cfg().mem_limit());
    spot_check_sorted(&mut pdm, &rep.output, n);
}

#[test]
#[ignore = "large: ~20MB working set"]
fn three_passes_at_m_sqrt_m_b64() {
    let b = 64usize;
    let n = b * b * b; // 262144
    let data = big_permutation(n, 2);
    for which in ["tp1", "tp2"] {
        let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(8, b)).unwrap();
        let input = pdm.alloc_region_for_keys(n).unwrap();
        pdm.ingest(&input, &data).unwrap();
        pdm.reset_stats();
        let rep = match which {
            "tp1" => pdm_sort::three_pass1(&mut pdm, &input, n).unwrap(),
            _ => pdm_sort::three_pass2(&mut pdm, &input, n).unwrap(),
        };
        assert!(
            (rep.read_passes - 3.0).abs() < 1e-9,
            "{which}: {}",
            rep.read_passes
        );
        assert!(pdm.stats().read_parallel_efficiency(8) > 0.999, "{which}");
        spot_check_sorted(&mut pdm, &rep.output, n);
    }
}

#[test]
#[ignore = "large: Monte-Carlo at b = 64"]
fn expected_two_pass_success_rate_at_scale() {
    let b = 64usize;
    let m = b * b;
    let cap = pdm_sort::expected_two_pass::capacity(m, 2.0);
    let n = (cap / m) * m;
    let mut fallbacks = 0;
    for seed in 0..10u64 {
        let data = big_permutation(n, 100 + seed);
        let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(8, b)).unwrap();
        let input = pdm.alloc_region_for_keys(n).unwrap();
        pdm.ingest(&input, &data).unwrap();
        pdm.reset_stats();
        let rep = pdm_sort::expected_two_pass(&mut pdm, &input, n).unwrap();
        fallbacks += usize::from(rep.fell_back);
        spot_check_sorted(&mut pdm, &rep.output, n);
        if !rep.fell_back {
            assert!((rep.read_passes - 2.0).abs() < 1e-9);
        }
    }
    assert_eq!(fallbacks, 0, "α=2 capacity should essentially never fail");
}

#[test]
#[ignore = "large: radix at 4M keys"]
fn radix_sort_4m_keys() {
    let b = 64usize;
    let n = 4_000_000usize;
    let mut rng = SplitMix64::seed_from_u64(3);
    let data: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() >> 1).collect();
    let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(8, b)).unwrap();
    let input = pdm.alloc_region_for_keys(n).unwrap();
    pdm.ingest(&input, &data).unwrap();
    pdm.reset_stats();
    let rep = pdm_sort::radix_sort(&mut pdm, &input, n, 63).unwrap();
    let got = pdm.inspect_prefix(&rep.report.output, n).unwrap();
    let mut want = data;
    want.sort_unstable();
    assert_eq!(got, want);
    assert!(rep.report.peak_mem <= pdm.cfg().mem_limit());
}

#[test]
#[ignore = "large: file-backed out-of-core run"]
fn file_backed_sort_really_stays_out_of_core() {
    // M = 4096 keys = 32 KiB of tracked memory sorting 2M keys = 16 MB on
    // real disk files: peak tracked memory must stay ≤ the limit while the
    // disk files carry the full data volume.
    let b = 64usize;
    let n = 2_000_000usize;
    let data = big_permutation(n, 4);
    let storage = FileStorage::<u64>::create_temp(4, b).unwrap();
    let mut pdm = Pdm::with_storage(PdmConfig::square(4, b), storage).unwrap();
    let input = pdm.alloc_region_for_keys(n).unwrap();
    pdm.ingest(&input, &data).unwrap();
    drop(data);
    pdm.reset_stats();
    let rep = pdm_sort::pdm_sort(&mut pdm, &input, n).unwrap();
    assert!(
        rep.peak_mem <= pdm.cfg().mem_limit(),
        "peak {} exceeds limit {}",
        rep.peak_mem,
        pdm.cfg().mem_limit()
    );
    spot_check_sorted(&mut pdm, &rep.output, n);
}
