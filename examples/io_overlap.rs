//! I/O–computation overlap on the threaded backend — the
//! Dementiev–Sanders idea the paper cites ("overlaps I/O and computation
//! optimally", [11]).
//!
//! Streams the same data twice over disks with an emulated 500 µs/block
//! latency: once with blocking reads, once through a [`ReadAhead`] whose
//! overlap window holds one stripe (double buffering), doing a fixed slice
//! of "computation" per stripe.
//!
//! ```text
//! cargo run --release -p pdm-integration --example io_overlap
//! ```

use pdm_model::prelude::*;
use std::time::{Duration, Instant};

fn main() -> Result<()> {
    let (d, b) = (4usize, 64usize);
    let latency = Duration::from_micros(500);
    let n = 256 * b; // 64 stripes
    let data: Vec<u64> = (0..n as u64).collect();
    let compute_per_stripe = Duration::from_millis(1);

    println!(
        "streaming {n} keys over {d} disks with {latency:?}/block latency, \
         {compute_per_stripe:?} of compute per stripe\n"
    );

    // blocking
    let storage = ThreadedStorage::<u64>::with_latency(d, b, latency);
    let mut pdm = Pdm::with_storage(PdmConfig::new(d, b, 8 * d * b), storage)?;
    let r = pdm.alloc_region_for_keys(n)?;
    pdm.ingest(&r, &data)?;
    let t0 = Instant::now();
    let mut rd = RunReader::new(&pdm, r, n, d)?;
    let mut buf = Vec::new();
    let mut acc = 0u64;
    loop {
        buf.clear();
        if rd.take_into(&mut pdm, d * b, &mut buf)? == 0 {
            break;
        }
        acc ^= checksum(&buf);
        std::thread::sleep(compute_per_stripe);
    }
    let blocking = t0.elapsed();
    println!("blocking reads:   {blocking:>10.2?}   (I/O and compute serialized)");

    // overlapped: one stripe in flight while the previous one computes
    let storage = ThreadedStorage::<u64>::with_latency(d, b, latency);
    let mut pdm = Pdm::with_storage(PdmConfig::new(d, b, 8 * d * b), storage)?;
    pdm.set_overlap(true);
    pdm.set_overlap_window(Some(d));
    let r = pdm.alloc_region_for_keys(n)?;
    pdm.ingest(&r, &data)?;
    let t0 = Instant::now();
    let stripes = (0..r.len_blocks())
        .step_by(d)
        .map(|s| (s..(s + d).min(r.len_blocks())).map(|i| (r, i)).collect())
        .collect();
    let mut ra = ReadAhead::new(&mut pdm, stripes)?;
    let mut buf = Vec::new();
    let mut acc2 = 0u64;
    loop {
        buf.clear();
        if !ra.next_into(&mut pdm, &mut buf)? {
            break;
        }
        acc2 ^= checksum(&buf);
        std::thread::sleep(compute_per_stripe);
    }
    let overlapped = t0.elapsed();
    println!("prefetch overlap: {overlapped:>10.2?}   (next stripe in flight during compute)");
    assert_eq!(acc, acc2, "both paths must read identical data");
    println!(
        "\nspeedup: {:.2}x (ideal: {:.2}x — max(io, compute) vs io + compute)",
        blocking.as_secs_f64() / overlapped.as_secs_f64(),
        (latency.as_secs_f64() + compute_per_stripe.as_secs_f64())
            / latency.as_secs_f64().max(compute_per_stripe.as_secs_f64())
    );
    println!("note: pass counts are identical either way — overlap buys wall-clock, not I/O.");
    Ok(())
}

fn checksum(chunk: &[u64]) -> u64 {
    chunk
        .iter()
        .fold(0u64, |acc, &k| acc.wrapping_add(k).rotate_left(7))
}
