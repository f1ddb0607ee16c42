//! Pass budgets in action: the expected-two-pass algorithm, its online
//! verification, and the fallback — the paper's central "good expected
//! performance" story (§5).
//!
//! Runs `ExpectedTwoPass` on (a) many random inputs and (b) an adversarial
//! reverse-sorted input, showing the detector catching the bad case and
//! the deterministic fallback rescuing it.
//!
//! ```text
//! cargo run --release -p pdm-integration --example pass_budget
//! ```

use pdm_model::prelude::*;
use pdm_model::rng::SplitMix64;

fn main() -> Result<()> {
    let cfg = PdmConfig::square(4, 64); // M = 4096
    let m = cfg.mem_capacity;
    let cap = pdm_sort::expected_two_pass::capacity(m, 2.0);
    let n = (cap / m) * m;
    println!("M = {m}, Theorem 5.1 capacity(α=2) = {cap}; using N = {n}");
    println!("paper: expected passes = 2(1−M^−α) + 5·M^−α (for M = 10^8: 2 + 3·10^−16)\n");

    // (a) random inputs
    let trials = 25;
    let mut fallbacks = 0;
    let mut total_passes = 0.0;
    let mut rng = SplitMix64::seed_from_u64(5);
    for t in 0..trials {
        let mut data: Vec<u64> = (0..n as u64).collect();
        rng.shuffle(&mut data);
        let mut pdm: Pdm<u64> = Pdm::new(cfg)?;
        let input = pdm.alloc_region_for_keys(n)?;
        pdm.ingest(&input, &data)?;
        pdm.reset_stats();
        let rep = pdm_sort::expected_two_pass(&mut pdm, &input, n)?;
        fallbacks += usize::from(rep.fell_back);
        total_passes += rep.read_passes;
        if t < 3 {
            println!(
                "random trial {t}: {:.3} read passes{}",
                rep.read_passes,
                if rep.fell_back { " (fell back!)" } else { "" }
            );
        }
    }
    println!(
        "…{trials} random trials: {fallbacks} fallbacks, mean {:.3} read passes\n",
        total_passes / trials as f64
    );

    // (b) the adversarial case
    let data: Vec<u64> = (0..(m * 64) as u64).rev().collect();
    let n_bad = data.len();
    let mut pdm: Pdm<u64> = Pdm::new(cfg)?;
    let input = pdm.alloc_region_for_keys(n_bad)?;
    pdm.ingest(&input, &data)?;
    pdm.reset_stats();
    let rep = pdm_sort::expected_two_pass(&mut pdm, &input, n_bad)?;
    println!(
        "adversarial reverse input (N = {n_bad}): fell_back = {}, {:.3} read passes",
        rep.fell_back, rep.read_passes
    );
    let out = pdm.inspect_prefix(&rep.output, n_bad)?;
    assert!(out.windows(2).all(|w| w[0] <= w[1]));
    println!("output still correct ✓ (abort check + ThreePass2 fallback, ≤ 5 passes total)");

    // phase breakdown of the adversarial run
    println!("\nphase breakdown:");
    for ph in &pdm.stats().phases {
        println!(
            "  {:<28} {:>8} blocks read, {:>8} written",
            ph.name, ph.blocks_read, ph.blocks_written
        );
    }

    // stripe-efficiency timeline of a fresh, probed run (█ = full stripes)
    let mut pdm: Pdm<u64> = Pdm::new(cfg)?;
    let input = pdm.alloc_region_for_keys(n)?;
    let mut data: Vec<u64> = (0..n as u64).collect();
    rng.shuffle(&mut data);
    pdm.ingest(&input, &data)?;
    pdm.reset_stats();
    pdm.enable_probe(1 << 16);
    let _ = pdm_sort::expected_two_pass(&mut pdm, &input, n)?;
    let events = pdm.stats().probe().map_or(&[][..], |p| p.events());
    println!("\nstripe efficiency over time (ExpectedTwoPass, mean of its I/O batches per cell):");
    println!("{}", sparkline(events, cfg.num_disks, 96));
    Ok(())
}
