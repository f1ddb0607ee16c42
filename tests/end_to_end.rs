//! End-to-end integration tests: every public sorting entry point, against
//! a reference sort, across input sizes and distributions.

use pdm_model::prelude::*;
use pdm_model::rng::SplitMix64;
use pdm_sort::Algorithm;

fn reference(data: &[u64]) -> Vec<u64> {
    let mut v = data.to_vec();
    v.sort_unstable();
    v
}

fn ingest(pdm: &mut Pdm<u64>, data: &[u64]) -> Region {
    let r = pdm.alloc_region_for_keys(data.len()).unwrap();
    pdm.ingest(&r, data).unwrap();
    r
}

fn distributions(n: usize, seed: u64) -> Vec<(&'static str, Vec<u64>)> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut perm: Vec<u64> = (0..n as u64).collect();
    rng.shuffle(&mut perm);
    vec![
        ("permutation", perm),
        ("sorted", (0..n as u64).collect()),
        ("reversed", (0..n as u64).rev().collect()),
        ("constant", vec![7; n]),
        (
            "few_distinct",
            (0..n).map(|_| rng.gen_range(0..4u64)).collect(),
        ),
        (
            "wide_random",
            (0..n).map(|_| rng.gen::<u64>() >> 1).collect(),
        ),
    ]
}

#[test]
fn all_comparison_algorithms_sort_all_distributions() {
    let b = 16usize;
    let n = b * b * b; // M√M
    for (name, data) in distributions(n, 1) {
        for algo in [
            "three_pass1",
            "three_pass2",
            "expected_two_pass",
            "exp_two_pass_mesh",
        ] {
            let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(4, b)).unwrap();
            let input = ingest(&mut pdm, &data);
            let out = match algo {
                "three_pass1" => pdm_sort::three_pass1(&mut pdm, &input, n).unwrap().output,
                "three_pass2" => pdm_sort::three_pass2(&mut pdm, &input, n).unwrap().output,
                "expected_two_pass" => {
                    pdm_sort::expected_two_pass(&mut pdm, &input, n)
                        .unwrap()
                        .output
                }
                _ => {
                    pdm_sort::exp_two_pass_mesh(&mut pdm, &input, n)
                        .unwrap()
                        .output
                }
            };
            assert_eq!(
                pdm.inspect_prefix(&out, n).unwrap(),
                reference(&data),
                "{algo} failed on {name}"
            );
        }
    }
}

#[test]
fn m_squared_algorithms_sort_all_distributions() {
    let b = 8usize;
    let n = b * b * b * b; // M² = 4096
    for (name, data) in distributions(n, 2) {
        // SevenPass at full M²
        let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(2, b)).unwrap();
        let input = ingest(&mut pdm, &data);
        let out = pdm_sort::seven_pass(&mut pdm, &input, n).unwrap().output;
        assert_eq!(
            pdm.inspect_prefix(&out, n).unwrap(),
            reference(&data),
            "seven_pass failed on {name}"
        );
        // ExpectedSixPass at its (smaller) capacity
        let nn = n.min(pdm_sort::seven_pass::capacity_six(b * b, 2.0));
        let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(2, b)).unwrap();
        let input = ingest(&mut pdm, &data[..nn]);
        let out = pdm_sort::expected_six_pass(&mut pdm, &input, nn, 2.0)
            .unwrap()
            .output;
        assert_eq!(
            pdm.inspect_prefix(&out, nn).unwrap(),
            reference(&data[..nn]),
            "expected_six_pass failed on {name}"
        );
    }
}

#[test]
fn dispatcher_handles_every_size_band() {
    let mut rng = SplitMix64::seed_from_u64(3);
    let b = 16usize;
    // sizes crossing every dispatcher tier for M = 256
    for n in [1usize, 200, 256, 257, 800, 1000, 4096, 5000, 16000, 65536] {
        let data: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1u64 << 48)).collect();
        let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(2, b)).unwrap();
        let input = ingest(&mut pdm, &data);
        let rep = pdm_sort::pdm_sort(&mut pdm, &input, n).unwrap();
        assert_eq!(
            pdm.inspect_prefix(&rep.output, n).unwrap(),
            reference(&data),
            "dispatcher failed at n = {n} via {}",
            rep.algorithm
        );
    }
}

#[test]
fn integer_and_radix_sorts_end_to_end() {
    let mut rng = SplitMix64::seed_from_u64(4);
    let b = 16usize;
    let n = 20_000usize;
    let bounded: Vec<u64> = (0..n).map(|_| rng.gen_range(0..b as u64)).collect();
    let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(4, b)).unwrap();
    let input = ingest(&mut pdm, &bounded);
    let rep = pdm_sort::integer_sort(&mut pdm, &input, n, b as u64).unwrap();
    assert_eq!(
        pdm.inspect_prefix(&rep.output, n).unwrap(),
        reference(&bounded)
    );

    let wide: Vec<u64> = (0..n).map(|_| rng.gen::<u64>()).collect();
    let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(4, b)).unwrap();
    let input = ingest(&mut pdm, &wide);
    let rep = pdm_sort::radix_sort(&mut pdm, &input, n, 64).unwrap();
    assert_eq!(
        pdm.inspect_prefix(&rep.report.output, n).unwrap(),
        reference(&wide)
    );
}

#[test]
fn baselines_end_to_end() {
    let mut rng = SplitMix64::seed_from_u64(5);
    let m = 512usize; // B = 8 = M^{1/3}
    let cfg = PdmConfig::new(2, 8, m);
    let n = pdm_baseline::cc_columnsort::capacity(&cfg);
    let mut data: Vec<u64> = (0..n as u64).collect();
    rng.shuffle(&mut data);
    let mut pdm: Pdm<u64> = Pdm::new(cfg).unwrap();
    let input = ingest(&mut pdm, &data);
    let rep = pdm_baseline::cc_columnsort(&mut pdm, &input, n).unwrap();
    assert_eq!(
        pdm.inspect_prefix(&rep.output, n).unwrap(),
        reference(&data)
    );

    for algo in [Algorithm::MergeSort, Algorithm::UpDownMergeSort] {
        let mut pdm: Pdm<u64> = Pdm::new(cfg).unwrap();
        let input = ingest(&mut pdm, &data);
        let rep = algo.run(&mut pdm, &input, n, 2.0).unwrap();
        let got = pdm.inspect_prefix(&rep.output, n).unwrap();
        assert_eq!(got, reference(&data), "{algo}");
        assert!(rep.read_passes > 0.0 && rep.write_passes > 0.0, "{algo}");
    }
}

#[test]
fn sort_reports_are_internally_consistent() {
    let b = 16usize;
    let n = 4096usize;
    let mut rng = SplitMix64::seed_from_u64(6);
    let mut data: Vec<u64> = (0..n as u64).collect();
    rng.shuffle(&mut data);
    let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(4, b)).unwrap();
    let input = ingest(&mut pdm, &data);
    pdm.reset_stats();
    let rep = pdm_sort::three_pass2(&mut pdm, &input, n).unwrap();
    let d = pdm.cfg().num_disks;
    let bb = pdm.cfg().block_size;
    assert_eq!(rep.read_passes, pdm.stats().read_passes(n, d, bb));
    assert_eq!(rep.n, n);
    assert!(rep.peak_mem <= pdm.cfg().mem_limit());
    // phase deltas sum to the totals
    let phase_reads: u64 = pdm.stats().phases.iter().map(|p| p.blocks_read).sum();
    assert_eq!(phase_reads, pdm.stats().blocks_read);
}

#[test]
fn tagged_records_sort_by_key_everywhere() {
    let mut rng = SplitMix64::seed_from_u64(7);
    let b = 16usize;
    let n = 4096usize;
    let data: Vec<Tagged> = (0..n as u64)
        .map(|i| Tagged::new(rng.gen_range(0..1000), i))
        .collect();
    let mut pdm: Pdm<Tagged> = Pdm::new(PdmConfig::square(4, b)).unwrap();
    let r = pdm.alloc_region_for_keys(n).unwrap();
    pdm.ingest(&r, &data).unwrap();
    let rep = pdm_sort::three_pass2(&mut pdm, &r, n).unwrap();
    let got = pdm.inspect_prefix(&rep.output, n).unwrap();
    assert!(got.windows(2).all(|w| w[0] <= w[1]));
    let mut got_payloads: Vec<u64> = got.iter().map(|t| t.payload).collect();
    got_payloads.sort_unstable();
    assert_eq!(got_payloads, (0..n as u64).collect::<Vec<_>>());
}
