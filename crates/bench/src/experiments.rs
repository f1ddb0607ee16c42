//! Experiments E1–E13: one function per table/claim of the paper.
//!
//! Every function prints a table with the paper's claim next to the
//! measured value. Scales are chosen so `--release` finishes each
//! experiment in seconds; the shapes (who wins, by what factor, where
//! crossovers fall) are the reproduction target, not absolute numbers.

use crate::data;
use crate::table::{f2, f3, int, Table};
use pdm_model::prelude::*;
use pdm_sort::{exp_two_pass_mesh, expected_three_pass, expected_two_pass};
use pdm_sort::{integer_sort, radix_sort, seven_pass, three_pass1, three_pass2, Algorithm};

/// The list of experiment ids understood by [`run_experiment`].
pub const EXPERIMENTS: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "x1",
];

/// Run one experiment by id (e.g. `"e5"`). Unknown ids return `false`.
pub fn run_experiment(id: &str) -> bool {
    match id {
        "e1" => e1_lower_bounds(),
        "e2" => e2_three_pass1(),
        "e3" => e3_exp_two_pass_mesh(),
        "e4" => e4_three_pass2_vs_cc(),
        "e5" => e5_shuffling_lemma(),
        "e6" => e6_expected_two_pass(),
        "e7" => e7_expected_three_pass(),
        "e8" => e8_seven_pass(),
        "e9" => e9_expected_six_pass(),
        "e10" => e10_integer_sort(),
        "e11" => e11_radix_sort(),
        "e12" => e12_generalized_zero_one(),
        "e13" => e13_summary(),
        "x1" => x1_srm_striping(),
        _ => return false,
    }
    true
}

fn banner(id: &str, claim: &str) {
    println!("\n=== {id}: {claim}");
}

fn sorted_ok(pdm: &mut Pdm<u64>, out: &Region, data: &[u64]) -> bool {
    let got = pdm.inspect_prefix(out, data.len()).unwrap();
    let mut want = data.to_vec();
    want.sort_unstable();
    got == want
}

/// E1 — Lemma 2.1: pass lower bounds at `B = √M`.
pub fn e1_lower_bounds() {
    banner(
        "E1 (Lemma 2.1)",
        "≥2 passes for N = M√M and ≥3 for N = M² at B = √M (claim col = paper)",
    );
    let mut t = Table::new(&[
        "log2 M",
        "N",
        "AKL passes",
        "AV passes",
        "ceil",
        "paper claim",
    ]);
    for log_m in [12u32, 16, 20, 24] {
        let m = 1usize << log_m;
        let b = 1usize << (log_m / 2);
        for (n, claim) in [(m * b, 2usize), (m * m, 3usize)] {
            t.row(&[
                int(log_m as usize),
                (if n == m * b { "M^1.5" } else { "M^2" }).to_string(),
                f3(pdm_theory::min_passes(n, m, b)),
                f3(pdm_theory::av_min_passes(n, m, b)),
                int(pdm_theory::min_passes_ceil(n, m, b)
                    .max((pdm_theory::av_min_passes(n, m, b) - 1e-9).ceil() as usize)),
                int(claim),
            ]);
        }
    }
    t.print();
}

/// E2 — Theorem 3.1: `ThreePass1` sorts `M√M` keys in exactly 3 passes;
/// dirty-band ablation for the alternating-direction trick.
pub fn e2_three_pass1() {
    banner(
        "E2 (Thm 3.1)",
        "ThreePass1 sorts M√M keys in exactly 3 passes (all inputs)",
    );
    let mut t = Table::new(&[
        "b=√M",
        "N",
        "input",
        "read passes",
        "write passes",
        "sorted",
        "claim",
    ]);
    for b in [16usize, 32, 64] {
        let n = b * b * b;
        for (name, input) in [
            ("random", data::permutation(n, 42)),
            ("reversed", data::reversed(n)),
            ("0-1", data::binary_threshold(n, n / 3, 7)),
        ] {
            let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(4, b)).unwrap();
            let reg = pdm.alloc_region_for_keys(n).unwrap();
            pdm.ingest(&reg, &input).unwrap();
            pdm.reset_stats();
            let rep = three_pass1::three_pass1(&mut pdm, &reg, n).unwrap();
            let ok = sorted_ok(&mut pdm, &rep.output, &input);
            t.row(&[
                int(b),
                int(n),
                name.into(),
                f3(rep.read_passes),
                f3(rep.write_passes),
                ok.to_string(),
                "3".into(),
            ]);
        }
    }
    t.print();

    println!("\nAblation: dirty rows after pass 2 (0-1 inputs; bound √M/2 with alternation):");
    let mut t = Table::new(&["b=√M", "alternating", "worst dirty rows", "bound b/2"]);
    for b in [16usize, 32] {
        let n = b * b * b;
        for alternate in [true, false] {
            let worst = (0..8u64)
                .map(|seed| {
                    let k = (seed as usize * n / 8).max(1).min(n - 1);
                    let input = data::binary_threshold(n, k, seed);
                    let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(4, b)).unwrap();
                    let reg = pdm.alloc_region_for_keys(n).unwrap();
                    pdm.ingest(&reg, &input).unwrap();
                    three_pass1::dirty_rows_after_pass2(
                        &mut pdm,
                        &reg,
                        n,
                        three_pass1::Options {
                            alternate_directions: alternate,
                        },
                        0,
                        1,
                    )
                    .unwrap()
                })
                .max()
                .unwrap();
            t.row(&[int(b), alternate.to_string(), int(worst), int(b / 2)]);
        }
    }
    t.print();
}

/// E3 — Theorem 3.2: the mesh variant finishes in 2 passes whp below
/// capacity; success decays beyond it. Emits a success-fraction series.
pub fn e3_exp_two_pass_mesh() {
    banner(
        "E3 (Thm 3.2)",
        "ExpTwoPassMesh: 2 passes on ≥ 1−M^-α of inputs below capacity ≈ M√M/(cα ln M)",
    );
    let b = 32usize;
    let m = b * b;
    let cap = exp_two_pass_mesh::capacity(m, 1.0);
    println!("M = {m}, analytic capacity(α=1) = {cap} (constants are conservative —");
    println!("the table sweeps N up to the structural max M√M to show the success crossover)");
    let mut t = Table::new(&["N/M", "N", "trials", "2-pass fraction", "mean read passes"]);
    for n_over_m in [2usize, 4, 8, 16, 24, 32] {
        let n = n_over_m * m;
        let trials = 30u64;
        let results: Vec<(bool, f64)> = (0..trials)
            .map(|seed| {
                let input = data::permutation(n, 1000 + seed);
                let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(2, b)).unwrap();
                let reg = pdm.alloc_region_for_keys(n).unwrap();
                pdm.ingest(&reg, &input).unwrap();
                pdm.reset_stats();
                let rep = exp_two_pass_mesh::exp_two_pass_mesh(&mut pdm, &reg, n).unwrap();
                assert!(sorted_ok(&mut pdm, &rep.output, &input));
                (!rep.fell_back, rep.read_passes)
            })
            .collect();
        let succ = results.iter().filter(|(ok, _)| *ok).count();
        let mean: f64 = results.iter().map(|(_, p)| p).sum::<f64>() / trials as f64;
        t.row(&[
            int(n_over_m),
            int(n),
            int(trials as usize),
            f3(succ as f64 / trials as f64),
            f3(mean),
        ]);
    }
    t.print();
    println!("(claim shape: fraction 1.0 well below M√M, decaying to 0 as the dirty band outgrows √M rows)");
}

/// E4 — Lemma 4.1 / Observation 4.1: `ThreePass2` vs CC columnsort
/// capacity at equal (three) passes.
pub fn e4_three_pass2_vs_cc() {
    banner(
        "E4 (Lemma 4.1 / Obs 4.1)",
        "both take 3 passes; ThreePass2 sorts M^1.5 keys vs columnsort's ≈ M^1.5/√2",
    );
    let mut t = Table::new(&[
        "M",
        "algo",
        "B",
        "capacity",
        "cap/M^1.5",
        "read passes",
        "sorted",
    ]);
    for b in [16usize, 32] {
        let m = b * b;
        let m15 = (m as f64).powf(1.5);
        // ThreePass2 at its capacity
        {
            let n = three_pass2::capacity(m);
            let input = data::permutation(n, 11);
            let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(4, b)).unwrap();
            let reg = pdm.alloc_region_for_keys(n).unwrap();
            pdm.ingest(&reg, &input).unwrap();
            pdm.reset_stats();
            let rep = three_pass2::three_pass2(&mut pdm, &reg, n).unwrap();
            t.row(&[
                int(m),
                "ThreePass2".into(),
                format!("√M = {b}"),
                int(n),
                f3(n as f64 / m15),
                f3(rep.read_passes),
                sorted_ok(&mut pdm, &rep.output, &input).to_string(),
            ]);
        }
        // CC columnsort at its capacity, B = M^{1/3}
        {
            let bcc = 1usize << (m.trailing_zeros() / 3); // power-of-two Θ(M^{1/3})
            let cfg = PdmConfig::new(4, bcc, m);
            let n = pdm_baseline::cc_columnsort::capacity(&cfg);
            let input = data::permutation(n, 12);
            let mut pdm: Pdm<u64> = Pdm::new(cfg).unwrap();
            let reg = pdm.alloc_region_for_keys(n).unwrap();
            pdm.ingest(&reg, &input).unwrap();
            pdm.reset_stats();
            let rep = pdm_baseline::cc_columnsort(&mut pdm, &reg, n).unwrap();
            t.row(&[
                int(m),
                "CC columnsort".into(),
                format!("M^1/3 = {bcc}"),
                int(n),
                f3(n as f64 / m15),
                f3(rep.read_passes),
                sorted_ok(&mut pdm, &rep.output, &input).to_string(),
            ]);
        }
    }
    t.print();
    println!("(claim: capacity ratio ≈ √2 ≈ 1.41; power-of-two column rounding gives 2.0)");
}

/// E5 — Lemma 4.2 (shuffling lemma): measured max displacement vs the
/// analytic bound; violations should be ≈ 0.
pub fn e5_shuffling_lemma() {
    banner(
        "E5 (Lemma 4.2)",
        "after shuffling sorted parts, max displacement ≤ (n/√q)√((α+2)ln n+1) + n/q whp",
    );
    let mut t = Table::new(&[
        "n",
        "q",
        "alpha",
        "trials",
        "worst",
        "mean",
        "bound",
        "bound/worst",
        "violations",
    ]);
    for (n, q) in [
        (1usize << 12, 1usize << 6),
        (1 << 14, 1 << 7),
        (1 << 16, 1 << 8),
        (1 << 18, 1 << 9),
        (1 << 16, 1 << 12),
    ] {
        for alpha in [1.0f64, 2.0] {
            let mut rng = pdm_model::rng::SplitMix64::seed_from_u64(5000 + n as u64 + q as u64);
            let res = pdm_theory::shuffling::run_trials(n, q, alpha, 25, &mut rng);
            t.row(&[
                int(n),
                int(q),
                f2(alpha),
                int(res.trials),
                int(res.worst),
                f2(res.mean),
                f2(res.bound),
                f2(res.bound / res.worst.max(1) as f64),
                int(res.violations),
            ]);
        }
    }
    t.print();
    println!("(claim: 0 violations; bound/worst > 1 shows the constant-factor slack)");
}

/// E6 — Theorem 5.1: `ExpectedTwoPass` passes and fallback fraction around
/// the capacity; the fallback ablation (cost of a detected bad input).
pub fn e6_expected_two_pass() {
    banner(
        "E6 (Thm 5.1)",
        "ExpectedTwoPass: 2 passes whp for N ≤ M√M/√((α+2)ln M+2); fallback costs +3",
    );
    let b = 32usize;
    let m = b * b;
    let cap = expected_two_pass::capacity(m, 2.0);
    println!("M = {m}, capacity(α=2) = {cap}, structural max = {}", m * b);
    let mut t = Table::new(&[
        "N",
        "N/cap",
        "trials",
        "fallback frac",
        "mean read passes",
        "expected (paper)",
    ]);
    for mult in [0.5f64, 1.0, 1.5, 2.0, 3.0] {
        let n = (((cap as f64 * mult) as usize) / m).max(1) * m;
        if n > m * b {
            continue;
        }
        let trials = 40u64;
        let results: Vec<(bool, f64)> = (0..trials)
            .map(|seed| {
                let input = data::permutation(n, 2000 + seed);
                let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(4, b)).unwrap();
                let reg = pdm.alloc_region_for_keys(n).unwrap();
                pdm.ingest(&reg, &input).unwrap();
                pdm.reset_stats();
                let rep = expected_two_pass::expected_two_pass(&mut pdm, &reg, n).unwrap();
                assert!(sorted_ok(&mut pdm, &rep.output, &input));
                (rep.fell_back, rep.read_passes)
            })
            .collect();
        let fb = results.iter().filter(|(f, _)| *f).count();
        let p_fb = fb as f64 / trials as f64;
        let mean: f64 = results.iter().map(|(_, p)| p).sum::<f64>() / trials as f64;
        t.row(&[
            int(n),
            f2(mult),
            int(trials as usize),
            f3(p_fb),
            f3(mean),
            f3(2.0 * (1.0 - p_fb) + 5.0 * p_fb),
        ]);
    }
    t.print();

    // α sweep: the capacity/confidence dial of all the expected theorems
    let mut t = Table::new(&[
        "alpha",
        "capacity(M,α)",
        "fallback frac at cap",
        "paper fail bound M^-α",
    ]);
    for alpha in [1.0f64, 2.0, 3.0, 4.0] {
        let capa = expected_two_pass::capacity(m, alpha);
        let n = (capa / m).max(1) * m;
        let trials = 30u64;
        let fb = (0..trials)
            .filter(|&seed| {
                let input = data::permutation(n, 7000 + seed);
                let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(4, b)).unwrap();
                let reg = pdm.alloc_region_for_keys(n).unwrap();
                pdm.ingest(&reg, &input).unwrap();
                let rep = expected_two_pass::expected_two_pass(&mut pdm, &reg, n).unwrap();
                assert!(sorted_ok(&mut pdm, &rep.output, &input));
                rep.fell_back
            })
            .count();
        t.row(&[
            f2(alpha),
            int(n),
            f3(fb as f64 / trials as f64),
            format!("{:.1e}", (m as f64).powf(-alpha)),
        ]);
    }
    t.print();
    println!("(paper example: M = 10^8, α = 2 → expected passes 2 + 3·10^-16)");
    println!(
        "Obs 5.1 comparison: modified columnsort capacity = {} (≈4x smaller)",
        pdm_baseline::cc_columnsort::capacity_skip12(m, 2.0)
    );
}

/// E7 — Theorem 6.1: `ExpectedThreePass` around `M^1.75`, vs subblock
/// columnsort's 4 passes at `M^{5/3}` (Obs 6.1).
pub fn e7_expected_three_pass() {
    banner(
        "E7 (Thm 6.1 / Obs 6.1)",
        "ExpectedThreePass: 3 passes whp for ≈ M^1.75 keys; subblock columnsort needs 4",
    );
    let b = 16usize;
    let m = b * b;
    let cap = expected_three_pass::capacity(m, 2.0);
    let ecap = expected_three_pass::effective_capacity(m, 2.0);
    let scap = expected_three_pass::structural_capacity(m, 2.0);
    println!(
        "M = {m}, theorem capacity = {cap}, effective (rounded runs) = {ecap}, structural = {scap}"
    );
    let mut t = Table::new(&["N", "trials", "fallback frac", "mean read passes", "claim"]);
    for n in [ecap, scap / 2, scap] {
        let n = (n / m).max(1) * m;
        let trials = 20u64;
        let results: Vec<(bool, f64)> = (0..trials)
            .map(|seed| {
                let input = data::permutation(n, 3000 + seed);
                let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(2, b)).unwrap();
                let reg = pdm.alloc_region_for_keys(n).unwrap();
                pdm.ingest(&reg, &input).unwrap();
                pdm.reset_stats();
                let rep = expected_three_pass::expected_three_pass(&mut pdm, &reg, n, 2.0).unwrap();
                assert!(sorted_ok(&mut pdm, &rep.output, &input));
                (rep.fell_back, rep.read_passes)
            })
            .collect();
        let fb = results.iter().filter(|(f, _)| *f).count();
        let mean: f64 = results.iter().map(|(_, p)| p).sum::<f64>() / trials as f64;
        t.row(&[
            int(n),
            int(trials as usize),
            f3(fb as f64 / trials as f64),
            f3(mean),
            "3".into(),
        ]);
    }
    t.print();

    // subblock columnsort comparison point
    let cfg = PdmConfig::new(4, 16, 4096);
    let n = pdm_baseline::subblock::capacity(&cfg);
    let input = data::permutation(n, 99);
    let mut pdm: Pdm<u64> = Pdm::new(cfg).unwrap();
    let reg = pdm.alloc_region_for_keys(n).unwrap();
    pdm.ingest(&reg, &input).unwrap();
    pdm.reset_stats();
    let rep = pdm_baseline::subblock_columnsort(&mut pdm, &reg, n).unwrap();
    println!(
        "subblock columnsort (M = 4096, B = M^1/3): N = {n} (= M^5/3/4^2/3 class), read passes = {:.3} (claim 4)",
        rep.read_passes
    );
}

/// E8 — Theorem 6.2: `SevenPass` sorts `M²` keys in exactly 7 passes.
pub fn e8_seven_pass() {
    banner(
        "E8 (Thm 6.2)",
        "SevenPass sorts M² keys in exactly 7 passes",
    );
    let mut t = Table::new(&[
        "b=√M",
        "N = M²",
        "read passes",
        "write passes",
        "parallel eff",
        "sorted",
        "claim",
    ]);
    let mut breakdown: Vec<PhaseStats> = Vec::new();
    let mut breakdown_n = 0usize;
    for b in [8usize, 16, 32] {
        let m = b * b;
        let n = m * m;
        let input = data::permutation(n, 55);
        let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(4, b)).unwrap();
        let reg = pdm.alloc_region_for_keys(n).unwrap();
        pdm.ingest(&reg, &input).unwrap();
        pdm.reset_stats();
        let rep = seven_pass::seven_pass(&mut pdm, &reg, n).unwrap();
        t.row(&[
            int(b),
            int(n),
            f3(rep.read_passes),
            f3(rep.write_passes),
            f3(pdm.stats().read_parallel_efficiency(4)),
            sorted_ok(&mut pdm, &rep.output, &input).to_string(),
            "7".into(),
        ]);
        if b == 32 {
            // Snapshot straight off the machine: SortReport no longer
            // carries a phase clone (one per sort was pure waste).
            breakdown = pdm.stats().phases.clone();
            breakdown_n = n;
        }
    }
    t.print();
    print_phase_breakdown("b = 32", breakdown_n, 4, 32, &breakdown);
}

/// Print the per-phase pass breakdown from the machine's
/// [`IoStats::phases`]: where each of the budgeted passes went. A phase
/// that ran more than once (SevenPass runs the inner ThreePass2 phases
/// once per run) is one row, in first-seen order: its steps summed, its
/// memory peak the largest.
fn print_phase_breakdown(label: &str, n: usize, d: usize, b: usize, phases: &[PhaseStats]) {
    if phases.is_empty() {
        return;
    }
    println!("per-phase passes ({label}):");
    let mut rows: Vec<(&str, u64, u64, usize)> = Vec::new();
    for p in phases {
        match rows.iter_mut().find(|r| r.0 == p.name) {
            Some(r) => {
                r.1 += p.read_steps;
                r.2 += p.write_steps;
                r.3 = r.3.max(p.mem_peak);
            }
            None => rows.push((&p.name, p.read_steps, p.write_steps, p.mem_peak)),
        }
    }
    let pass_steps = (n.max(1) as f64 / (d * b) as f64).max(1e-9);
    let mut t = Table::new(&["phase", "read passes", "write passes", "mem peak"]);
    for (name, read_steps, write_steps, mem_peak) in rows {
        t.row(&[
            name.to_string(),
            f3(read_steps as f64 / pass_steps),
            f3(write_steps as f64 / pass_steps),
            int(mem_peak),
        ]);
    }
    t.print();
}

/// E9 — Theorem 6.3: `ExpectedSixPass` for `≈ M²/√((α+2)ln M+2)` keys.
pub fn e9_expected_six_pass() {
    banner(
        "E9 (Thm 6.3)",
        "ExpectedSixPass: 6 passes whp for M²/√((α+2)ln M+2) keys",
    );
    let b = 16usize;
    let m = b * b;
    let cap = seven_pass::capacity_six(m, 2.0);
    println!("M = {m}, capacity(α=2) = {cap} (M² = {})", m * m);
    let mut t = Table::new(&["N", "trials", "fallback frac", "mean read passes", "claim"]);
    for n in [cap / 2, cap] {
        let trials = 10u64;
        let results: Vec<(bool, f64)> = (0..trials)
            .map(|seed| {
                let input = data::permutation(n, 4000 + seed);
                let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(2, b)).unwrap();
                let reg = pdm.alloc_region_for_keys(n).unwrap();
                pdm.ingest(&reg, &input).unwrap();
                pdm.reset_stats();
                let rep = seven_pass::expected_six_pass(&mut pdm, &reg, n, 2.0).unwrap();
                assert!(sorted_ok(&mut pdm, &rep.output, &input));
                (rep.fell_back, rep.read_passes)
            })
            .collect();
        let fb = results.iter().filter(|(f, _)| *f).count();
        let mean: f64 = results.iter().map(|(_, p)| p).sum::<f64>() / trials as f64;
        t.row(&[
            int(n),
            int(trials as usize),
            f3(fb as f64 / trials as f64),
            f3(mean),
            "6".into(),
        ]);
    }
    t.print();
}

/// E10 — Theorem 7.1: `IntegerSort` passes and the bucket-occupancy tail;
/// per-phase vs packed flush ablation.
pub fn e10_integer_sort() {
    banner(
        "E10 (Thm 7.1)",
        "IntegerSort: (1+µ) write passes distributing, 2(1+µ) with step A; µ < 1",
    );
    let mut t = Table::new(&[
        "b",
        "N/M",
        "mode",
        "read passes",
        "write passes",
        "fill factor",
        "claim total",
    ]);
    for b in [16usize, 32] {
        let m = b * b;
        let range = (m / b) as u64; // R = M/B = b
        for n_over_m in [16usize, 64] {
            let n = n_over_m * m;
            for mode in [
                integer_sort::FlushMode::PerPhase,
                integer_sort::FlushMode::Packed,
            ] {
                let input = data::uniform(n, range, 77);
                let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(4, b)).unwrap();
                let reg = pdm.alloc_region_for_keys(n).unwrap();
                pdm.ingest(&reg, &input).unwrap();
                // measure fill factor via a bare distribution first
                let src = pdm_sort::integer_sort::Source::Region(&reg, n);
                let buckets =
                    pdm_sort::integer_sort::distribute(&mut pdm, &src, range as usize, mode, |k| {
                        *k as usize
                    })
                    .unwrap();
                let fill = buckets.fill_factor(b);
                // distribution-only passes (the paper's "without step A"):
                // measured on the bare distribute run above
                let dd = pdm.cfg().num_disks;
                let dist_read = pdm.stats().read_passes(n, dd, b);
                let dist_write = pdm.stats().write_passes(n, dd, b);
                t.row(&[
                    int(b),
                    int(n_over_m),
                    format!("{mode:?} (no step A)"),
                    f3(dist_read),
                    f3(dist_write),
                    f3(fill),
                    "(1+µ)".into(),
                ]);
                pdm.reset_stats();
                let rep = pdm_sort::integer_sort::integer_sort_with(&mut pdm, &reg, n, range, mode)
                    .unwrap();
                assert!(sorted_ok(&mut pdm, &rep.output, &input));
                t.row(&[
                    int(b),
                    int(n_over_m),
                    format!("{mode:?}"),
                    f3(rep.read_passes),
                    f3(rep.write_passes),
                    f3(fill),
                    "≤ 2(1+µ), µ<1".into(),
                ]);
            }
        }
    }
    t.print();
    println!("(figure series: µ ≈ 1/fill − 1; Packed mode drives µ → 0)");
}

/// E11 — Theorem 7.2 / Observation 7.2: `RadixSort` passes, including the
/// worked example `N = M², B = √M, C = 4 → ≤ 3.6 passes`.
pub fn e11_radix_sort() {
    banner(
        "E11 (Thm 7.2 / Obs 7.2)",
        "RadixSort: (1+ν)·log(N/M)/log(M/B)+1 passes; example N=M², C=4 → ≤ 3.6",
    );
    let mut t = Table::new(&[
        "b",
        "D",
        "mode",
        "N",
        "rounds",
        "pred rounds",
        "passes (r+w)/2",
        "paper example",
    ]);
    for (b, d) in [(16usize, 4usize), (32, 8)] {
        let m = b * b;
        let n = m * m; // the Obs 7.2 example: N = M², C = M/(DB) = b/D = 4
        let cfg = PdmConfig::square(d, b);
        for mode in [
            integer_sort::FlushMode::PerPhase,
            integer_sort::FlushMode::Packed,
        ] {
            let input = data::uniform(n, u64::MAX, 123);
            let mut pdm: Pdm<u64> = Pdm::new(cfg).unwrap();
            let reg = pdm.alloc_region_for_keys(n).unwrap();
            pdm.ingest(&reg, &input).unwrap();
            pdm.reset_stats();
            let rep = radix_sort::radix_sort_with(&mut pdm, &reg, n, 64, mode).unwrap();
            assert!(sorted_ok(&mut pdm, &rep.report.output, &input));
            let passes = (rep.report.read_passes + rep.report.write_passes) / 2.0;
            t.row(&[
                int(b),
                int(d),
                format!("{mode:?}"),
                int(n),
                int(rep.max_rounds),
                f2(radix_sort::predicted_rounds(&cfg, n, 64)),
                f3(passes),
                "≤ 3.6".into(),
            ]);
        }
    }
    t.print();
    println!("(per-phase padding µ and boundary-size buckets (the paper's δ slack, rounds 3 vs 2)");
    println!(" inflate the small-M constant; Packed mode shows µ → 0. Shape: rounds·(1+µ) + 1.)");
}

/// E12 — Theorem 3.3: the generalized 0-1 principle bound vs measured
/// permutation success fractions on almost-sorting networks.
pub fn e12_generalized_zero_one() {
    banner(
        "E12 (Thm 3.3)",
        "circuit sorting ≥α of every k-set sorts ≥ 1−(1−α)(n+1) of permutations",
    );
    use pdm_theory::network::odd_even_transposition;
    use pdm_theory::zero_one;
    let mut t = Table::new(&[
        "n",
        "comparators cut",
        "alpha (min k-frac)",
        "bound",
        "measured perm frac",
        "holds",
    ]);
    for n in [8usize, 9] {
        let full = odd_even_transposition(n);
        for cut in [1usize, 2, 3, 4, 6] {
            let net = full.truncated(cut);
            let alpha = zero_one::alpha_exhaustive(&net);
            let bound = zero_one::generalized_bound(alpha, n);
            let measured = zero_one::permutation_fraction_exhaustive(&net);
            t.row(&[
                int(n),
                int(cut),
                f3(alpha),
                f3(bound),
                f3(measured),
                (measured + 1e-12 >= bound).to_string(),
            ]);
        }
    }
    t.print();

    // larger n, sampled
    let mut t = Table::new(&[
        "n",
        "cut",
        "alpha (sampled)",
        "bound",
        "perm frac (sampled)",
        "holds",
    ]);
    let mut rng = pdm_model::rng::SplitMix64::seed_from_u64(999);
    for (n, cut) in [(16usize, 2usize), (16, 8), (24, 4)] {
        let net = odd_even_transposition(n).truncated(cut);
        let alpha = (0..=n)
            .map(|k| zero_one::binary_fraction_sampled(&net, k, 3000, &mut rng))
            .fold(f64::INFINITY, f64::min);
        let bound = zero_one::generalized_bound(alpha, n);
        let measured = zero_one::permutation_fraction_sampled(&net, 20000, &mut rng);
        t.row(&[
            int(n),
            int(cut),
            f3(alpha),
            f3(bound),
            f3(measured),
            (measured + 0.02 >= bound).to_string(),
        ]);
    }
    t.print();
}

/// E13 — §8 Conclusions: the head-to-head summary table.
pub fn e13_summary() {
    banner(
        "E13 (§8)",
        "summary: algorithm × capacity × passes at M = 1024 (b = 32), D = 4",
    );
    let b = 32usize;
    let m = b * b;
    let mut t = Table::new(&[
        "algorithm",
        "B",
        "N sorted",
        "read passes",
        "write passes",
        "fell back",
        "LB passes",
    ]);

    let mut run = |a: Algorithm, n: usize| {
        let input = data::permutation(n, 2024);
        let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(4, b)).unwrap();
        let reg = pdm.alloc_region_for_keys(n).unwrap();
        pdm.ingest(&reg, &input).unwrap();
        pdm.reset_stats();
        let rep = a.run(&mut pdm, &reg, n, 2.0).unwrap();
        assert!(sorted_ok(&mut pdm, &rep.output, &input), "{a} mis-sorted");
        t.row(&[
            a.to_string(),
            format!("{b}"),
            int(n),
            f3(rep.read_passes),
            f3(rep.write_passes),
            rep.fell_back.to_string(),
            f2(pdm_theory::av_min_passes(n, m, b)),
        ]);
    };

    // Each table sorter at (a memory-load multiple of) its capacity here.
    let cap = |a: Algorithm| a.capacity(&PdmConfig::square(4, b), 2.0);
    for (a, n) in [
        (
            Algorithm::ExpectedTwoPass,
            cap(Algorithm::ExpectedTwoPass) / m * m,
        ),
        (Algorithm::ThreePass1, m * b),
        (Algorithm::ThreePass2, m * b),
        (
            Algorithm::ExpectedThreePass,
            cap(Algorithm::ExpectedThreePass) / m * m,
        ),
        (
            Algorithm::ExpectedSixPass,
            cap(Algorithm::ExpectedSixPass).min(m * m / 4),
        ),
        (Algorithm::SevenPass, m * m / 4),
        (Algorithm::MergeSort, m * m / 4),
    ] {
        run(a, n);
    }
    t.print();
    println!("(dispatcher choice for each N: see pdm_sort::choose; integer keys: see E10/E11)");

    // The paper's regime is M = C·D·B for a *small* constant C; there a
    // multiway merge has tiny fan-in and loses to SevenPass. Show the
    // crossover with C = 2 (D = 16, B = 32, M = 1024):
    println!("\nCrossover in the paper's regime (M = 2·D·B → merge fan-in 2):");
    let mut t = Table::new(&["algorithm", "D", "C=M/DB", "N", "read passes"]);
    let (d, n) = (16, m * m / 4);
    let input = data::permutation(n, 2025);
    for a in [Algorithm::SevenPass, Algorithm::MergeSort] {
        let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(d, b)).unwrap();
        let reg = pdm.alloc_region_for_keys(n).unwrap();
        pdm.ingest(&reg, &input).unwrap();
        pdm.reset_stats();
        let rep = a.run(&mut pdm, &reg, n, 2.0).unwrap();
        assert!(sorted_ok(&mut pdm, &rep.output, &input));
        t.row(&[
            a.to_string(),
            int(d),
            int(m / (d * b)),
            int(n),
            f3(rep.read_passes),
        ]);
    }
    t.print();
}

/// X1 (extension) — randomized vs aligned striping in SRM merging (the
/// paper's citation \[5\]): the forecasting merge keeps full parallelism
/// only when run placement is randomized.
pub fn x1_srm_striping() {
    banner(
        "X1 (extension, BGV [5])",
        "SRM: randomized run striping recovers D-parallel merging with 1-block buffers",
    );
    use pdm_baseline::Striping;
    let (d, b, m) = (4usize, 16usize, 256usize);
    let mut t = Table::new(&["workload", "striping", "read passes", "read efficiency"]);
    let f = m / (2 * b);
    let run = m;
    let n = 8 * f * run;
    // lockstep workload: run r holds keys ≡ r (mod f) — all runs advance
    // together, the adversarial case for aligned striping
    let mut lockstep = vec![0u64; n];
    for (i, v) in lockstep.iter_mut().enumerate() {
        let r = (i / run) % f;
        let j = i % run + (i / (f * run)) * run;
        *v = (j * f + r) as u64;
    }
    for (name, data) in [
        ("random", data::permutation(n, 321)),
        ("lockstep", lockstep),
    ] {
        for striping in [Striping::Randomized, Striping::Aligned] {
            let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::new(d, b, m)).unwrap();
            let input = pdm.alloc_region_for_keys(n).unwrap();
            pdm.ingest(&input, &data).unwrap();
            pdm.reset_stats();
            let rep = pdm_baseline::srm_merge_sort(&mut pdm, &input, n, striping, 99).unwrap();
            assert!(sorted_ok(&mut pdm, &rep.output, &data));
            t.row(&[
                name.into(),
                format!("{striping:?}"),
                f3(rep.read_passes),
                f3(rep.read_efficiency),
            ]);
        }
    }
    t.print();
    println!("(claim shape: aligned striping serializes the lockstep merge; randomization restores ~D-parallel reads)");
}

/// Smoke coverage for the harness itself.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_rejected() {
        assert!(!run_experiment("e99"));
        assert!(!run_experiment(""));
    }

    #[test]
    fn experiment_list_is_complete() {
        assert_eq!(EXPERIMENTS.len(), 14);
    }

    #[test]
    fn e1_runs() {
        e1_lower_bounds();
    }

    #[test]
    fn e5_runs_small() {
        let mut rng = pdm_model::rng::SplitMix64::seed_from_u64(1);
        let r = pdm_theory::shuffling::run_trials(1 << 10, 1 << 5, 1.0, 3, &mut rng);
        assert_eq!(r.violations, 0);
    }

    #[test]
    fn e12_bound_holds_small() {
        use pdm_theory::network::odd_even_transposition;
        use pdm_theory::zero_one;
        let net = odd_even_transposition(7).truncated(2);
        let alpha = zero_one::alpha_exhaustive(&net);
        let bound = zero_one::generalized_bound(alpha, 7);
        let measured = zero_one::permutation_fraction_exhaustive(&net);
        assert!(measured + 1e-12 >= bound);
    }
}
