//! Front-end dispatcher: pick the sorter with the fewest predicted passes
//! for a given input size, as §8's conclusions suggest.
//!
//! Every candidate in [`Algorithm::CANDIDATES`] reports its
//! [`Algorithm::pass_bound`] at `N`:
//!
//! | Candidate | Covers `N ≤` | Pass bound |
//! |---|---|---|
//! | in-memory | `M` | 1 |
//! | `ExpectedTwoPass` | `cap₂(M, α)` | 2 expected |
//! | `ThreePass2` | `M√M` | 3 |
//! | `ExpectedThreePass` | `cap₃ᵉᶠᶠ(M, α)` | 3 expected |
//! | `ExpectedSixPass` | `cap₆(M, α)` | 6 expected |
//! | `SevenPass` | `M²` | 7 |
//! | `MergeSort` | any | `1 + ⌈log_f ⌈N/M⌉⌉`, `f = M/(DB) − 1` |
//!
//! `auto` takes the smallest bound. On a tie, a bound that holds on every
//! input beats one that holds only in expectation, then table order
//! decides, so the paper's sorters come first. Which sorter wins depends
//! on the regime, as E13 shows: at `D = 4, B = 64` the merge fan-in is 15,
//! so the merge sort takes 4 passes on 3M keys where seven-pass takes 7,
//! and ties the expected two-pass sort at 2 with a bound that holds on
//! every input; at `D = 16` the fan-in is 3 and the paper's sorters keep
//! their ranges. Bounds compare as integers: a merge sort whose last run
//! skips a level reads slightly under its bound, but its levels still cost
//! what they cost.
//!
//! Integer keys with a known bounded domain should use
//! [`crate::integer_sort`](fn@crate::integer_sort) /
//! [`crate::radix_sort`](fn@crate::radix_sort) directly — the
//! dispatcher is comparison-based and makes no assumption on key values.

use crate::common::{require_square_cfg, PassBound, SortReport};
use crate::Algorithm;
use pdm_model::prelude::*;

/// Default confidence parameter: failure probability `≤ M^{−2}` (the
/// paper's running example uses `α = 2`).
pub const DEFAULT_ALPHA: f64 = 2.0;

/// Every `auto` candidate that covers `n` keys, with its pass bound, best
/// first: fewest passes, then a bound on every input before an expected
/// one, then table order. Refuses `n = 0` and machines off the paper's
/// `B = √M`, `D | √M` geometry.
pub fn rank(cfg: &PdmConfig, n: usize, alpha: f64) -> Result<Vec<(Algorithm, PassBound)>> {
    require_square_cfg(cfg)?;
    if n == 0 {
        return Err(PdmError::UnsupportedInput("empty input".into()));
    }
    let mut ranked: Vec<(Algorithm, PassBound)> = Algorithm::CANDIDATES
        .into_iter()
        .filter_map(|a| Some((a, a.pass_bound(cfg, n, alpha)?)))
        .collect();
    // stable: exact ties keep table order
    ranked.sort_by_key(|&(_, bound)| bound);
    Ok(ranked)
}

/// Which algorithm [`pdm_sort`] would choose for `n` keys (without running
/// anything): the first of [`rank`]. The merge sort covers every `N`, so
/// this only fails where [`rank`] does.
pub fn choose(cfg: &PdmConfig, n: usize, alpha: f64) -> Result<Algorithm> {
    Ok(rank(cfg, n, alpha)?[0].0)
}

/// Sort `n` keys with the sorter [`choose`] picks (α = 2).
pub fn pdm_sort<K: PdmKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    input: &Region,
    n: usize,
) -> Result<SortReport> {
    pdm_sort_with_alpha(pdm, input, n, DEFAULT_ALPHA)
}

/// [`pdm_sort`] with an explicit confidence parameter `α`.
pub fn pdm_sort_with_alpha<K: PdmKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    input: &Region,
    n: usize,
    alpha: f64,
) -> Result<SortReport> {
    choose(pdm.cfg(), n, alpha)?.run(pdm, input, n, alpha)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::capacity_expected_two_pass;
    use crate::merge_sort::{max_fanin, predicted_passes};
    use pdm_model::rng::SplitMix64;

    #[test]
    fn choose_ladder_is_monotone() {
        let cfg = PdmConfig::square(4, 64); // M = 4096, merge fan-in 15
        let m = 4096usize;
        assert_eq!(choose(&cfg, 100, 2.0).unwrap(), Algorithm::InMemory);
        assert_eq!(choose(&cfg, m, 2.0).unwrap(), Algorithm::InMemory);
        // two passes on every input beat two in expectation
        assert_eq!(choose(&cfg, m + 1, 2.0).unwrap(), Algorithm::MergeSort);
        let cap2 = capacity_expected_two_pass(m, 2.0);
        assert_eq!(choose(&cfg, cap2, 2.0).unwrap(), Algorithm::MergeSort);
        assert_eq!(
            choose(&cfg, 15 * m + 1, 2.0).unwrap(),
            Algorithm::ThreePass2
        );
        // M√M: both take three passes, and the paper's sorter comes first
        assert_eq!(choose(&cfg, m * 64, 2.0).unwrap(), Algorithm::ThreePass2);
        assert_eq!(choose(&cfg, m * 64 + 1, 2.0).unwrap(), Algorithm::MergeSort);
        assert_eq!(choose(&cfg, m * m, 2.0).unwrap(), Algorithm::MergeSort);
        assert_eq!(choose(&cfg, m * m + 1, 2.0).unwrap(), Algorithm::MergeSort);
        assert!(choose(&cfg, 0, 2.0).is_err());
        // the pick's bound never falls as N grows
        let mut last = 0;
        for n in (1..=m * m + 1).step_by(997).chain([m * m, m * m + 1]) {
            let passes = rank(&cfg, n, 2.0).unwrap()[0].1.passes;
            assert!(passes >= last, "n = {n}: {passes} < {last}");
            last = passes;
        }
        // past M² the merge sort still covers N
        assert_eq!(
            choose(&PdmConfig::square(2, 8), 4097, 2.0).unwrap(),
            Algorithm::MergeSort
        );
    }

    /// The rule as an explicit chain: the old ladder's first rung that fits
    /// `n`, unless the merge sort predicts fewer passes, or as many where
    /// the rung's bound holds only in expectation.
    fn choose_reference(cfg: &PdmConfig, n: usize, alpha: f64) -> Result<Algorithm> {
        use crate::Algorithm::*;
        let b = require_square_cfg(cfg)?;
        let m = cfg.mem_capacity;
        if n == 0 {
            return Err(PdmError::UnsupportedInput("empty input".into()));
        }
        let merge = predicted_passes(cfg, n);
        let (rung, passes, expected) = if n <= m {
            (InMemory, 1, false)
        } else if n <= capacity_expected_two_pass(m, alpha) {
            (ExpectedTwoPass, 2, true)
        } else if n <= m * b {
            (ThreePass2, 3, false)
        } else if n <= crate::expected_three_pass::effective_capacity(m, alpha) {
            (ExpectedThreePass, 3, true)
        } else if n <= crate::seven_pass::capacity_six(m, alpha) {
            (ExpectedSixPass, 6, true)
        } else if n <= m * m {
            (SevenPass, 7, false)
        } else {
            return Ok(MergeSort);
        };
        Ok(if merge < passes || (merge == passes && expected) {
            MergeSort
        } else {
            rung
        })
    }

    #[test]
    fn table_choose_matches_the_reference_chain_at_every_boundary() {
        for cfg in [
            PdmConfig::square(2, 16),
            PdmConfig::square(4, 64),
            PdmConfig::square(16, 64),
        ] {
            let m = cfg.mem_capacity;
            let f = max_fanin(&cfg);
            for alpha in [1.0, 2.0, 4.0] {
                let mut probes = vec![0, 1, m * m, m * m + 1];
                for a in Algorithm::CANDIDATES
                    .into_iter()
                    .filter(|a| *a != Algorithm::MergeSort)
                {
                    let cap = a.capacity(&cfg, alpha);
                    probes.extend([cap - 1, cap, cap + 1]);
                }
                // where the merge sort gains a level
                let mut runs = 1;
                while runs * m <= 2 * m * m {
                    probes.extend([runs * m, runs * m + 1]);
                    runs *= f;
                }
                for n in probes {
                    let got = choose(&cfg, n, alpha);
                    let want = choose_reference(&cfg, n, alpha);
                    assert_eq!(got.is_ok(), want.is_ok(), "n = {n}, α = {alpha}");
                    if let (Ok(g), Ok(w)) = (got, want) {
                        assert_eq!(g, w, "n = {n}, α = {alpha}, M = {m}");
                    }
                }
            }
        }
        // non-square machines are refused the same way
        assert!(choose(&PdmConfig::square(3, 16), 100, 2.0).is_err());
    }

    #[test]
    fn alpha_moves_the_expected_tier_boundaries() {
        // At D = 16 the merge fan-in is 3, so the merge sort needs 4 passes
        // here and the expected two-pass sort keeps its range.
        let cfg = PdmConfig::square(16, 64);
        let m = 4096usize;
        // higher α shrinks the expected-two-pass capacity, so a mid-band N
        // dispatches differently under α = 1 vs α = 4
        let n = capacity_expected_two_pass(m, 1.0);
        assert_eq!(choose(&cfg, n, 1.0).unwrap(), Algorithm::ExpectedTwoPass);
        assert_eq!(choose(&cfg, n, 4.0).unwrap(), Algorithm::ThreePass2);
    }

    #[test]
    fn choose_mirrors_e13_at_two_geometries() {
        let pick = |cfg: &PdmConfig, n: usize| {
            let ranked = rank(cfg, n, 2.0).unwrap();
            let runner_up = ranked.get(1).map(|&(a, p)| (a, p.passes));
            (ranked[0].0, ranked[0].1.passes, runner_up)
        };
        // D = 4, B = 64: fan-in 15
        let cfg = PdmConfig::square(4, 64);
        let m = cfg.mem_capacity;
        let seven = Some((Algorithm::SevenPass, 7));
        assert_eq!(pick(&cfg, 3_000_000), (Algorithm::MergeSort, 4, seven));
        assert_eq!(pick(&cfg, m * m), (Algorithm::MergeSort, 5, seven));
        // D = 4, B = 256: 4M keys tie at three passes
        let big = PdmConfig::square(4, 256);
        let tie = Some((Algorithm::MergeSort, 3));
        assert_eq!(pick(&big, 4 << 20), (Algorithm::ThreePass2, 3, tie));
        // D = 16, B = 64: fan-in 3, and the paper's sorters keep each range
        let wide = PdmConfig::square(16, 64);
        assert_eq!(
            choose(&wide, 40_000, 2.0).unwrap(),
            Algorithm::ExpectedTwoPass
        );
        assert_eq!(choose(&wide, m * 64, 2.0).unwrap(), Algorithm::ThreePass2);
        assert_eq!(
            pick(&wide, m * m),
            (Algorithm::SevenPass, 7, Some((Algorithm::MergeSort, 9)))
        );
    }

    #[test]
    fn auto_stays_within_its_predicted_passes_across_every_pick() {
        // Sizes that cross every pick on each machine, most of them not a
        // multiple of M. A pick reads at most its bound plus one partly
        // filled step per pass, and the paper's sorters also pay the
        // padding of their run plan on each pass, up to bound × padded N / N
        // (run lengths are not yet planned per N). The merge sort pads
        // nothing past a block.
        let mut rng = SplitMix64::seed_from_u64(103);
        for (cfg, sizes) in [
            (
                PdmConfig::square(2, 16),
                [200, 256, 300, 1000, 1792, 1793, 4096, 4097, 20_000],
            ),
            (
                PdmConfig::square(4, 16),
                [256, 500, 800, 2000, 4096, 5000, 30_000, 63_000, 70_000],
            ),
        ] {
            let (m, b) = (cfg.mem_capacity, cfg.block_size);
            let mut picks = Vec::new();
            for n in sizes {
                let (algo, bound) = rank(&cfg, n, 2.0).unwrap()[0];
                let mut pdm: Pdm<u64> = Pdm::new(cfg).unwrap();
                let mut data: Vec<u64> = (0..n as u64).collect();
                rng.shuffle(&mut data);
                let input = pdm.alloc_region_for_keys(n).unwrap();
                pdm.ingest(&input, &data).unwrap();
                pdm.reset_stats();
                let rep = pdm_sort(&mut pdm, &input, n).unwrap();
                assert_eq!(rep.algorithm, algo);
                let padded = match algo {
                    Algorithm::ExpectedTwoPass => {
                        let plan = crate::expected_two_pass::runs_plan(&pdm, n).unwrap();
                        plan.n1 * plan.run_len
                    }
                    Algorithm::ThreePass2 => n.next_multiple_of(m),
                    Algorithm::SevenPass => n.next_multiple_of(m * b),
                    _ => n,
                };
                let passes = bound.passes as f64;
                let rounding = passes / cfg.steps_per_pass(n) as f64;
                let allowed = passes * padded as f64 / n as f64 + rounding;
                assert!(
                    rep.read_passes <= allowed + 1e-9,
                    "n = {n}: {algo} read {} passes, predicted {bound}",
                    rep.read_passes
                );
                let got = pdm.inspect_prefix(&rep.output, n).unwrap();
                assert!(got.windows(2).all(|w| w[0] <= w[1]), "n = {n} via {algo}");
                if !picks.contains(&algo) {
                    picks.push(algo);
                }
            }
            for a in Algorithm::CANDIDATES {
                if (1..=m * m + 1).any(|n| choose(&cfg, n, 2.0).unwrap() == a) {
                    assert!(picks.contains(&a), "{cfg:?}: no size picked {a}");
                }
            }
        }
    }

    #[test]
    fn dispatched_sorts_are_correct_at_each_tier() {
        let mut rng = SplitMix64::seed_from_u64(101);
        // M = 256: tiers at 256, ~830, 4096, …
        for n in [200usize, 500, 2000, 4096, 6000] {
            let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(2, 16)).unwrap();
            let mut data: Vec<u64> = (0..n as u64).collect();
            rng.shuffle(&mut data);
            let input = pdm.alloc_region_for_keys(n).unwrap();
            pdm.ingest(&input, &data).unwrap();
            let rep = pdm_sort(&mut pdm, &input, n).unwrap();
            let got = pdm.inspect_prefix(&rep.output, n).unwrap();
            let mut want = data.clone();
            want.sort_unstable();
            assert_eq!(got, want, "n = {n} via {}", rep.algorithm);
            assert_eq!(rep.algorithm, choose(pdm.cfg(), n, 2.0).unwrap());
        }
    }

    #[test]
    fn bigger_inputs_cost_more_passes() {
        let mut rng = SplitMix64::seed_from_u64(102);
        let mut last_passes = 0.0f64;
        for n in [256usize, 800, 4000, 16384] {
            let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(2, 16)).unwrap();
            let mut data: Vec<u64> = (0..n as u64).collect();
            rng.shuffle(&mut data);
            let input = pdm.alloc_region_for_keys(n).unwrap();
            pdm.ingest(&input, &data).unwrap();
            pdm.reset_stats();
            let rep = pdm_sort(&mut pdm, &input, n).unwrap();
            if !rep.fell_back {
                assert!(
                    rep.read_passes + 1e-9 >= last_passes,
                    "passes regressed at n = {n}: {} < {last_passes}",
                    rep.read_passes
                );
                last_passes = rep.read_passes;
            }
        }
    }
}
