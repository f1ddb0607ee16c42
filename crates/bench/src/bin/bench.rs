//! `pdm-bench` — tracked wall-clock benchmarks for the hot-path kernels.
//!
//! Times the in-memory kernels (run-formation sort, k-way merge, cleaner
//! window maintenance) and whole-algorithm runs on the mem and threaded
//! backends, then writes a machine-readable JSON artifact. The committed
//! copy at the repo root (`BENCH_kernels.json`) is the tracked baseline;
//! `scripts/check_bench.py` validates a fresh run against it.
//!
//! ```text
//! cargo run --release -p pdm-bench --bin pdm-bench              # full suite
//! cargo run --release -p pdm-bench --bin pdm-bench -- --quick  # CI smoke
//! cargo run --release -p pdm-bench --bin pdm-bench -- --out f.json
//! ```
//!
//! It is the cheap, dependency-free tracker that runs everywhere and emits
//! one comparable artifact.

use pdm_model::prelude::*;
use pdm_sort::dispatch::DEFAULT_ALPHA;
use pdm_sort::{merge, Algorithm};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Counting allocator: allocation counts are part of the artifact, so the
// zero-alloc claims about the pooled/recycled hot paths are checkable
// numbers, not prose.
// ---------------------------------------------------------------------------

mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    struct Counting;

    // SAFETY: delegates every operation to `System` unchanged; the counter
    // is a relaxed atomic increment with no other side effects.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, l: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc(l)
        }
        unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
            System.dealloc(p, l)
        }
        unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.realloc(p, l, new)
        }
    }

    #[global_allocator]
    static A: Counting = Counting;

    /// Total heap allocations (allocs + reallocs) since process start.
    pub fn allocations() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }
}

/// Run `f` once per rep, returning (best wall nanos, allocations in the
/// best rep). Best-of-N is the standard microbenchmark estimator here:
/// the minimum is the run least disturbed by the machine.
fn time_best<F: FnMut()>(reps: usize, mut f: F) -> (u64, u64) {
    let mut best = u64::MAX;
    let mut best_allocs = u64::MAX;
    for _ in 0..reps.max(1) {
        let a0 = alloc_counter::allocations();
        let t0 = Instant::now();
        f();
        let ns = t0.elapsed().as_nanos() as u64;
        let allocs = alloc_counter::allocations() - a0;
        if ns < best {
            best = ns;
            best_allocs = allocs;
        }
    }
    (best, best_allocs)
}

// ---------------------------------------------------------------------------
// Hand-rolled JSON: the artifact is flat and numeric; no serde needed.
// ---------------------------------------------------------------------------

/// Format a float as JSON (finite, fixed precision).
fn jf(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.4}")
    } else {
        "0.0".into()
    }
}

struct KernelRow {
    name: String,
    n: usize,
    ns_per_key: f64,
    allocs: u64,
}

struct MergeRow {
    name: String,
    n: usize,
    k: usize,
    heap_ns_per_key: f64,
    loser_ns_per_key: f64,
}

struct AlgoRow {
    name: String,
    backend: BackendKind,
    n: usize,
    wall_ms: f64,
    read_passes: f64,
    write_passes: f64,
    pool_hit_rate: Option<f64>,
}

/// One workload's greedy-vs-up/down run-formation A/B on the mem backend:
/// the greedy leg is seven-pass (fixed `M√M`-key runs, 7 passes on every
/// input), the up/down leg the up/down merge sort, whose pass count adapts
/// to the input's presortedness.
struct RunGenRow {
    workload: &'static str,
    n: usize,
    /// Memory capacity in keys (M = B²) — the greedy run length.
    m: usize,
    greedy_runs: u64,
    greedy_read_passes: f64,
    greedy_write_passes: f64,
    updown_runs: u64,
    updown_avg_run_len: f64,
    updown_merge_levels: u64,
    updown_read_passes: f64,
    updown_write_passes: f64,
}

/// The run-formation workloads, in the order they appear in the artifact.
const RUN_GEN_WORKLOADS: [&str; 4] = ["random", "nearly-sorted", "dup-heavy", "zipf"];

/// A sorter's row name in the artifacts: its table name in snake case
/// (`three-pass2` → `three_pass2`), the keys `check_bench.py` gates on.
fn row_name(alg: Algorithm) -> String {
    alg.name().replace('-', "_")
}

/// Latency percentiles and stall share folded from the wall-clock
/// telemetry the backend recorded during a leg (µs units; all zero when
/// the backend recorded no samples). One sample covers one kernel round
/// of blocks, not one block — see the recording backend.
#[derive(Default)]
struct WallPercentiles {
    read_p50_us: f64,
    read_p99_us: f64,
    write_p50_us: f64,
    write_p99_us: f64,
    stall_share: f64,
}

/// Merge the per-disk histograms of `w` and extract the headline
/// percentiles for a bench row.
fn wall_percentiles(w: &WallStats) -> WallPercentiles {
    let mut read = HistSnapshot::default();
    let mut write = HistSnapshot::default();
    for d in &w.disks {
        read.merge(&d.read);
        write.merge(&d.write);
    }
    WallPercentiles {
        read_p50_us: read.p50() as f64 / 1e3,
        read_p99_us: read.p99() as f64 / 1e3,
        write_p50_us: write.p50() as f64 / 1e3,
        write_p99_us: write.p99() as f64 / 1e3,
        stall_share: w.stall_share(),
    }
}

struct RealDiskRow {
    name: String,
    n: usize,
    wall_ms_blocking: f64,
    wall_ms_overlap: f64,
    improvement: f64,
    read_passes: f64,
    write_passes: f64,
    wall: WallPercentiles,
}

struct OverlapRow {
    name: String,
    n: usize,
    latency_us: u64,
    wall_ms_blocking: f64,
    wall_ms_overlap: f64,
    improvement: f64,
    read_passes: f64,
    write_passes: f64,
    prefetch_batches: u64,
    prefetch_stalls: u64,
    flush_batches: u64,
    flush_stalls: u64,
    wall: WallPercentiles,
}

/// The five wall-percentile JSON fields shared by the overlap and
/// real-disk rows (leading comma-space included).
fn render_wall_fields(w: &WallPercentiles) -> String {
    format!(
        ", \"read_p50_us\": {}, \"read_p99_us\": {}, \
         \"write_p50_us\": {}, \"write_p99_us\": {}, \"stall_share\": {}",
        jf(w.read_p50_us),
        jf(w.read_p99_us),
        jf(w.write_p50_us),
        jf(w.write_p99_us),
        jf(w.stall_share),
    )
}

fn render_json(
    quick: bool,
    kernels_rows: &[KernelRow],
    merge_rows: &[MergeRow],
    cleaner: &(usize, usize, f64, f64),
    algo_rows: &[AlgoRow],
    run_gen_rows: &[RunGenRow],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema_version\": 1,\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str("  \"kernels\": [\n");
    for (i, r) in kernels_rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"n\": {}, \"ns_per_key\": {}, \"allocs\": {}}}{}\n",
            r.name,
            r.n,
            jf(r.ns_per_key),
            r.allocs,
            if i + 1 < kernels_rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"merges\": [\n");
    for (i, r) in merge_rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"n\": {}, \"k\": {}, \"heap_ns_per_key\": {}, \
             \"loser_ns_per_key\": {}, \"speedup\": {}}}{}\n",
            r.name,
            r.n,
            r.k,
            jf(r.heap_ns_per_key),
            jf(r.loser_ns_per_key),
            jf(r.heap_ns_per_key / r.loser_ns_per_key.max(1e-9)),
            if i + 1 < merge_rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    let (carry, window, resort, incremental) = *cleaner;
    s.push_str(&format!(
        "  \"cleaner\": {{\"carry\": {carry}, \"window\": {window}, \
         \"resort_ns_per_key\": {}, \"incremental_ns_per_key\": {}}},\n",
        jf(resort),
        jf(incremental)
    ));
    s.push_str("  \"algorithms\": [\n");
    for (i, r) in algo_rows.iter().enumerate() {
        let pool = match r.pool_hit_rate {
            Some(h) => format!(", \"pool_hit_rate\": {}", jf(h)),
            None => String::new(),
        };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"backend\": \"{}\", \"n\": {}, \"wall_ms\": {}, \
             \"read_passes\": {}, \"write_passes\": {}{}}}{}\n",
            r.name,
            r.backend,
            r.n,
            jf(r.wall_ms),
            jf(r.read_passes),
            jf(r.write_passes),
            pool,
            if i + 1 < algo_rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"run_gen\": [\n");
    for (i, r) in run_gen_rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workload\": \"{}\", \"n\": {}, \"m\": {}, \
             \"greedy_runs\": {}, \"greedy_read_passes\": {}, \"greedy_write_passes\": {}, \
             \"updown_runs\": {}, \"updown_avg_run_len\": {}, \"updown_merge_levels\": {}, \
             \"updown_read_passes\": {}, \"updown_write_passes\": {}}}{}\n",
            r.workload,
            r.n,
            r.m,
            r.greedy_runs,
            jf(r.greedy_read_passes),
            jf(r.greedy_write_passes),
            r.updown_runs,
            jf(r.updown_avg_run_len),
            r.updown_merge_levels,
            jf(r.updown_read_passes),
            jf(r.updown_write_passes),
            if i + 1 < run_gen_rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// `BENCH_overlap.json`: the overlap A/B artifact. Separate file from the
/// kernel artifact so the latency-injected legs (seconds, not micros) can
/// be run and gated independently.
fn render_overlap_json(quick: bool, rows: &[OverlapRow]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema_version\": 1,\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str("  \"overlap\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"n\": {}, \"latency_us\": {}, \
             \"wall_ms_blocking\": {}, \"wall_ms_overlap\": {}, \"improvement\": {}, \
             \"read_passes\": {}, \"write_passes\": {}, \
             \"prefetch_batches\": {}, \"prefetch_stalls\": {}, \
             \"flush_batches\": {}, \"flush_stalls\": {}{}}}{}\n",
            r.name,
            r.n,
            r.latency_us,
            jf(r.wall_ms_blocking),
            jf(r.wall_ms_overlap),
            jf(r.improvement),
            jf(r.read_passes),
            jf(r.write_passes),
            r.prefetch_batches,
            r.prefetch_stalls,
            r.flush_batches,
            r.flush_stalls,
            render_wall_fields(&r.wall),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

// ---------------------------------------------------------------------------
// Benchmark sections
// ---------------------------------------------------------------------------

fn bench_sort_kernel(n: usize, reps: usize, rows: &mut Vec<KernelRow>) {
    let data = pdm_bench::data::permutation(n, 41);
    let mut scratch = data.clone();
    let (ns, allocs) = time_best(reps, || {
        scratch.copy_from_slice(&data);
        scratch.sort_unstable();
    });
    rows.push(KernelRow {
        name: "run_sort_seq".into(),
        n,
        ns_per_key: ns as f64 / n as f64,
        allocs,
    });
}

fn bench_kway_merge(n: usize, k: usize, reps: usize, rows: &mut Vec<MergeRow>) {
    // k equal sorted segments totalling n keys — exactly the shape
    // `merge_equal_segments` sees in the three-pass merge step.
    let part = n / k;
    let mut buf = pdm_bench::data::uniform(part * k, u64::MAX >> 1, 42);
    for seg in buf.chunks_mut(part) {
        seg.sort_unstable();
    }
    let segs: Vec<&[u64]> = buf.chunks(part).collect();
    let mut out: Vec<u64> = Vec::with_capacity(buf.len());
    let (heap_ns, _) = time_best(reps, || {
        merge::kway_merge_heap(&segs, &mut out);
    });
    let (loser_ns, _) = time_best(reps, || {
        merge::kway_merge(&segs, &mut out);
    });
    rows.push(MergeRow {
        name: format!("kway_merge_{k}"),
        n: part * k,
        k,
        heap_ns_per_key: heap_ns as f64 / (part * k) as f64,
        loser_ns_per_key: loser_ns as f64 / (part * k) as f64,
    });
}

/// The Cleaner's buffer maintenance: a sorted carry of `carry` keys plus a
/// fresh window of `window` keys. Resorting everything vs sorting only the
/// window and merging in place (what `Cleaner::sort_resident` now does).
/// In `Cleaner::process`'s steady state the carry is one window, so the
/// suite times `carry == window`.
fn bench_cleaner(carry: usize, window: usize, reps: usize) -> (usize, usize, f64, f64) {
    let mut base = pdm_bench::data::uniform(carry, u64::MAX >> 1, 43);
    base.sort_unstable();
    let fresh = pdm_bench::data::uniform(window, u64::MAX >> 1, 44);
    let mut v: Vec<u64> = Vec::with_capacity(carry + window);

    let (resort_ns, _) = time_best(reps, || {
        v.clear();
        v.extend_from_slice(&base);
        v.extend_from_slice(&fresh);
        v.sort_unstable();
    });
    let (inc_ns, _) = time_best(reps, || {
        v.clear();
        v.extend_from_slice(&base);
        v.extend_from_slice(&fresh);
        v[carry..].sort_unstable();
        merge::merge_in_place(&mut v, carry);
    });
    let total = (carry + window) as f64;
    (
        carry,
        window,
        resort_ns as f64 / total,
        inc_ns as f64 / total,
    )
}

fn bench_algorithm(
    alg: Algorithm,
    backend: BackendKind,
    b: usize,
    n: usize,
    rows: &mut Vec<AlgoRow>,
) {
    let data = pdm_bench::data::permutation(n, 45);
    let cfg = PdmConfig::square(4, b);
    let run = |pdm: &mut Pdm<u64, Box<dyn Storage<u64>>>| -> (f64, f64, f64) {
        let region = pdm.alloc_region_for_keys(n).unwrap();
        pdm.ingest(&region, &data).unwrap();
        pdm.reset_stats();
        let t0 = Instant::now();
        let rep = alg.run(pdm, &region, n, DEFAULT_ALPHA).unwrap();
        let wall = t0.elapsed().as_secs_f64() * 1e3;
        assert!(!rep.fell_back, "{alg}: unexpected fallback in benchmark");
        (wall, rep.read_passes, rep.write_passes)
    };
    let built = StorageBuilder::new(backend, cfg.num_disks, cfg.block_size)
        .build::<u64>()
        .unwrap();
    let mut pdm: Pdm<u64, Box<dyn Storage<u64>>> = Pdm::with_storage(cfg, built.storage).unwrap();
    let (wall_ms, read_passes, write_passes) = run(&mut pdm);
    rows.push(AlgoRow {
        name: row_name(alg),
        backend,
        n,
        wall_ms,
        read_passes,
        write_passes,
        pool_hit_rate: pdm.pool_stats().map(|p| p.hit_rate()),
    });
}

/// A/B greedy vs up/down run formation on one workload: seven-pass against
/// the up/down merge sort. The up/down leg's run census comes from the
/// probe gauges the merge sort emits (`rungen.runs`, `rungen.merge_levels`);
/// the greedy leg always cuts ⌈n/M⌉ memory-sized runs.
fn bench_run_gen(workload: &'static str, b: usize, n: usize, rows: &mut Vec<RunGenRow>) {
    let m = b * b;
    let data: Vec<u64> = match workload {
        "random" => pdm_bench::data::permutation(n, 48),
        "nearly-sorted" => pdm_bench::data::nearly_sorted(n, (n / 100).max(1), 48),
        "dup-heavy" => pdm_bench::data::duplicate_heavy(n, (n as u64 / 64).max(1), 48),
        "zipf" => pdm_bench::data::skewed(n, n as u64, 48),
        other => unreachable!("unknown run-gen workload '{other}'"),
    };
    let leg = |alg: Algorithm| {
        let cfg = PdmConfig::square(4, b);
        let built = StorageBuilder::new(BackendKind::Mem, cfg.num_disks, cfg.block_size)
            .build::<u64>()
            .unwrap();
        let mut pdm: Pdm<u64, Box<dyn Storage<u64>>> =
            Pdm::with_storage(cfg, built.storage).unwrap();
        pdm.enable_probe(1 << 16);
        let region = pdm.alloc_region_for_keys(n).unwrap();
        pdm.ingest(&region, &data).unwrap();
        pdm.reset_stats();
        let rep = alg.run(&mut pdm, &region, n, DEFAULT_ALPHA).unwrap();
        assert!(!rep.fell_back, "run-gen {workload}: unexpected fallback");
        let gauge = |name: &str| {
            pdm.stats().probe().and_then(|p| {
                p.events().iter().rev().find_map(|e| match e {
                    ProbeEvent::Gauge { name: g, value, .. } if g == name => Some(*value as u64),
                    _ => None,
                })
            })
        };
        (
            rep.read_passes,
            rep.write_passes,
            gauge("rungen.runs"),
            gauge("rungen.merge_levels"),
        )
    };
    let (grp, gwp, _, _) = leg(Algorithm::SevenPass);
    let (urp, uwp, uruns, ulevels) = leg(Algorithm::UpDownMergeSort);
    let uruns = uruns.expect("up/down leg emitted no rungen.runs gauge");
    rows.push(RunGenRow {
        workload,
        n,
        m,
        greedy_runs: n.div_ceil(m) as u64,
        greedy_read_passes: grp,
        greedy_write_passes: gwp,
        updown_runs: uruns,
        updown_avg_run_len: n as f64 / uruns.max(1) as f64,
        updown_merge_levels: ulevels.unwrap_or(0),
        updown_read_passes: urp,
        updown_write_passes: uwp,
    });
}

/// A/B one algorithm on the threaded backend with per-batch disk latency:
/// blocking I/O vs read-ahead + write-behind. The pass counters must be
/// byte-identical across the legs — overlap may only move wall-clock.
fn bench_overlap(alg: Algorithm, b: usize, n: usize, latency_us: u64, rows: &mut Vec<OverlapRow>) {
    let name = row_name(alg);
    let data = pdm_bench::data::permutation(n, 46);
    let cfg = PdmConfig::square(4, b);
    let latency = std::time::Duration::from_micros(latency_us);
    let leg = |overlap: bool| {
        let storage: Box<dyn Storage<u64>> = Box::new(ThreadedStorage::<u64>::with_latency(
            cfg.num_disks,
            cfg.block_size,
            latency,
        ));
        let mut pdm: Pdm<u64, Box<dyn Storage<u64>>> = Pdm::with_storage(cfg, storage).unwrap();
        pdm.set_overlap(overlap);
        let region = pdm.alloc_region_for_keys(n).unwrap();
        pdm.ingest(&region, &data).unwrap();
        pdm.reset_stats();
        let t0 = Instant::now();
        let rep = alg.run(&mut pdm, &region, n, DEFAULT_ALPHA).unwrap();
        let el = t0.elapsed();
        assert!(
            !rep.fell_back,
            "{name}: unexpected fallback in overlap benchmark"
        );
        // Stamp the run wall time so stall_share() has a denominator.
        pdm.stats_mut().wall.run_nanos = el.as_nanos() as u64;
        let stats = pdm.stats();
        (
            el.as_secs_f64() * 1e3,
            rep.read_passes,
            rep.write_passes,
            stats.overlap,
            stats.wall.clone(),
        )
    };
    let (wall_blocking, rp0, wp0, ov0, _) = leg(false);
    let (wall_overlap, rp1, wp1, ov1, wall1) = leg(true);
    assert_eq!(
        (rp0, wp0),
        (rp1, wp1),
        "{name}: overlap changed the pass counts"
    );
    assert_eq!(
        ov0.prefetch_batches + ov0.flush_batches,
        0,
        "{name}: blocking leg issued overlapped batches"
    );
    rows.push(OverlapRow {
        name,
        n,
        latency_us,
        wall_ms_blocking: wall_blocking,
        wall_ms_overlap: wall_overlap,
        improvement: (wall_blocking - wall_overlap) / wall_blocking.max(1e-9),
        read_passes: rp0,
        write_passes: wp0,
        prefetch_batches: ov1.prefetch_batches,
        prefetch_stalls: ov1.prefetch_stalls,
        flush_batches: ov1.flush_batches,
        flush_stalls: ov1.flush_stalls,
        wall: wall_percentiles(&wall1),
    });
}

/// `BENCH_realdisk.json`: A/B the async real-disk backend, overlap on vs
/// off, plus the naive external-mergesort baseline on the same backend.
fn render_realdisk_json(
    quick: bool,
    direct_io: bool,
    rows: &[RealDiskRow],
    baseline: &RealDiskRow,
) -> String {
    let row = |r: &RealDiskRow| {
        format!(
            "{{\"name\": \"{}\", \"n\": {}, \"wall_ms_blocking\": {}, \
             \"wall_ms_overlap\": {}, \"improvement\": {}, \
             \"read_passes\": {}, \"write_passes\": {}{}}}",
            r.name,
            r.n,
            jf(r.wall_ms_blocking),
            jf(r.wall_ms_overlap),
            jf(r.improvement),
            jf(r.read_passes),
            jf(r.write_passes),
            render_wall_fields(&r.wall),
        )
    };
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema_version\": 1,\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str("  \"backend\": \"async-file\",\n");
    s.push_str(&format!("  \"direct_io\": {direct_io},\n"));
    s.push_str("  \"real_disk\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {}{}\n",
            row(r),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!("  \"baseline\": {}\n", row(baseline)));
    s.push_str("}\n");
    s
}

/// One timed run of `alg` over a fresh [`AsyncFileStorage`] stack. Under
/// `dir`, the disks live in a fresh subdirectory that is removed when the
/// leg ends, so the run leaves nothing under `dir`.
/// Returns (wall ms, read passes, write passes, direct_io in effect,
/// harvested wall-clock telemetry with `run_nanos` stamped).
fn real_disk_leg(
    alg: Algorithm,
    b: usize,
    n: usize,
    dir: Option<&str>,
    overlap: bool,
    data: &[u64],
) -> (f64, f64, f64, bool, WallStats) {
    static LEGS: AtomicUsize = AtomicUsize::new(0);
    let leg_dir = dir.map(|d| {
        let leg = LEGS.fetch_add(1, Ordering::Relaxed);
        let sub = Path::new(d).join(format!("leg-{}-{leg}", std::process::id()));
        std::fs::create_dir_all(d).expect("real-disk dir");
        std::fs::create_dir(&sub).expect("fresh real-disk leg dir");
        sub
    });
    let cfg = PdmConfig::square(4, b);
    let mut builder = StorageBuilder::new(BackendKind::AsyncFile, cfg.num_disks, cfg.block_size);
    if let Some(d) = &leg_dir {
        builder = builder.dir(d);
    }
    let built = builder.build::<u64>().expect("async-file storage");
    let direct_io = built.caps.direct_io;
    let mut pdm: Pdm<u64, Box<dyn Storage<u64>>> = Pdm::with_storage(cfg, built.storage).unwrap();
    pdm.set_overlap(overlap);
    let region = pdm.alloc_region_for_keys(n).unwrap();
    pdm.ingest(&region, data).unwrap();
    pdm.reset_stats();
    let t0 = Instant::now();
    let rep = alg.run(&mut pdm, &region, n, DEFAULT_ALPHA).unwrap();
    assert!(!rep.fell_back, "{alg}: unexpected fallback on real disk");
    let el = t0.elapsed();
    pdm.stats_mut().wall.run_nanos = el.as_nanos() as u64;
    let wall = pdm.stats().wall.clone();
    drop(pdm); // closes the disks before their directory goes
    if let Some(d) = &leg_dir {
        std::fs::remove_dir_all(d).expect("remove real-disk leg dir");
    }
    (
        el.as_secs_f64() * 1e3,
        rep.read_passes,
        rep.write_passes,
        direct_io,
        wall,
    )
}

/// A/B one algorithm on the real-disk backend: best-of-`reps` per leg,
/// with the legs alternated so cache warm-up and scheduler noise spread
/// evenly instead of favoring whichever leg runs second.
fn bench_real_disk(
    alg: Algorithm,
    b: usize,
    n: usize,
    dir: Option<&str>,
    reps: usize,
    rows: &mut Vec<RealDiskRow>,
) -> bool {
    let data = pdm_bench::data::permutation(n, 47);
    let mut best_blocking = f64::MAX;
    let mut best_overlap = f64::MAX;
    let mut best_wall = WallStats::default();
    let mut passes = (0.0, 0.0);
    let mut direct_io = false;
    for _ in 0..reps.max(1) {
        let (wall, rp, wp, direct, _) = real_disk_leg(alg, b, n, dir, false, &data);
        best_blocking = best_blocking.min(wall);
        let (wall2, rp2, wp2, _, w2) = real_disk_leg(alg, b, n, dir, true, &data);
        if wall2 < best_overlap {
            best_overlap = wall2;
            best_wall = w2;
        }
        assert_eq!(
            (rp, wp),
            (rp2, wp2),
            "{alg}: overlap changed the pass counts on real disk"
        );
        passes = (rp, wp);
        direct_io = direct;
    }
    rows.push(RealDiskRow {
        name: row_name(alg),
        n,
        wall_ms_blocking: best_blocking,
        wall_ms_overlap: best_overlap,
        improvement: (best_blocking - best_overlap) / best_blocking.max(1e-9),
        read_passes: passes.0,
        write_passes: passes.1,
        wall: wall_percentiles(&best_wall),
    });
    direct_io
}

fn run_real_disk_suite(quick: bool, dir: Option<&str>, out_path: &str) {
    let b = if quick { 16 } else { 32 };
    let n = b * b * b;
    let reps = if quick { 3 } else { 5 };
    let mut rows = Vec::new();
    let mut direct_io = bench_real_disk(Algorithm::SevenPass, b, n, dir, reps, &mut rows);
    direct_io |= bench_real_disk(Algorithm::ThreePass2, b, n, dir, reps, &mut rows);
    // Naive external mergesort on the same backend, overlap off: the
    // honest "what a straightforward external sort costs" yardstick.
    let data = pdm_bench::data::permutation(n, 47);
    let mut best = f64::MAX;
    let mut best_wall = WallStats::default();
    let mut passes = (0.0, 0.0);
    for _ in 0..reps {
        let (wall, rp, wp, _, w) = real_disk_leg(Algorithm::MergeSort, b, n, dir, false, &data);
        if wall < best {
            best = wall;
            best_wall = w;
        }
        passes = (rp, wp);
    }
    let baseline = RealDiskRow {
        name: "mergesort".into(),
        n,
        wall_ms_blocking: best,
        wall_ms_overlap: best,
        improvement: 0.0,
        read_passes: passes.0,
        write_passes: passes.1,
        wall: wall_percentiles(&best_wall),
    };
    std::fs::write(
        out_path,
        render_realdisk_json(quick, direct_io, &rows, &baseline),
    )
    .expect("write artifact");
    eprintln!("wrote {out_path} (direct_io: {direct_io})");
    for r in rows.iter().chain(std::iter::once(&baseline)) {
        eprintln!(
            "  {:<16} [async-file] n = {:>7}  blocking {:>8.2} ms vs overlap {:>8.2} ms \
             ({:.1}% better; read p50 {:.0}/p99 {:.0} µs, write p50 {:.0}/p99 {:.0} µs, \
             {:.1}% stalled)",
            r.name,
            r.n,
            r.wall_ms_blocking,
            r.wall_ms_overlap,
            r.improvement * 100.0,
            r.wall.read_p50_us,
            r.wall.read_p99_us,
            r.wall.write_p50_us,
            r.wall.write_p99_us,
            r.wall.stall_share * 100.0,
        );
    }
}

/// One timed overlap-on run of `alg` over an async-file stack, optionally
/// with the full fault-tolerance stack armed (file fault shim + completion
/// retry in the disk workers; checksum verification rides on the
/// compile-time `block-checksums` feature). `rate_ppm = 0` arms the
/// machinery without ever firing a fault — the zero-fault leg the
/// `check_bench.py --fault` overhead gate measures.
fn fault_leg(
    alg: Algorithm,
    b: usize,
    n: usize,
    armed: bool,
    rate_ppm: u32,
    data: &[u64],
) -> (f64, f64, f64, u64) {
    let cfg = PdmConfig::square(4, b);
    let mut builder = StorageBuilder::new(BackendKind::AsyncFile, cfg.num_disks, cfg.block_size);
    if armed {
        builder = builder
            .inject_file(FileFaultMode::ShortRate {
                seed: 0xFA57,
                rate_ppm,
            })
            .retry(RetryPolicy::default());
    }
    let built = builder.build::<u64>().expect("async-file fault stack");
    assert!(built.caps.overlap, "fault stack must keep overlap on");
    let counters = built.retry_counters.clone();
    let mut pdm: Pdm<u64, Box<dyn Storage<u64>>> = Pdm::with_storage(cfg, built.storage).unwrap();
    pdm.set_overlap(true);
    let region = pdm.alloc_region_for_keys(n).unwrap();
    pdm.ingest(&region, data).unwrap();
    pdm.reset_stats();
    let t0 = Instant::now();
    let rep = alg.run(&mut pdm, &region, n, DEFAULT_ALPHA).unwrap();
    let wall = t0.elapsed().as_secs_f64() * 1e3;
    let retries = counters.map_or(0, |c| c.snapshot().total_retries());
    (wall, rep.read_passes, rep.write_passes, retries)
}

struct FaultRow {
    name: String,
    n: usize,
    wall_ms_plain: f64,
    wall_ms_armed: f64,
    overhead: f64,
    wall_ms_injected: f64,
    retries_healed: u64,
    read_passes: f64,
    write_passes: f64,
}

/// `BENCH_fault.json`: what fault tolerance costs when nothing goes
/// wrong. Three legs per algorithm on the async real-disk backend with
/// overlap on: plain stack, armed stack with a zero fault rate (the
/// gated overhead figure), and armed stack healing a 1% transient rate
/// (informative — shows the machinery actually firing).
fn render_fault_json(quick: bool, rows: &[FaultRow]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema_version\": 1,\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str("  \"backend\": \"async-file\",\n");
    s.push_str(&format!(
        "  \"checksums\": {},\n",
        cfg!(feature = "block-checksums")
    ));
    s.push_str("  \"fault\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"n\": {}, \"wall_ms_plain\": {}, \
             \"wall_ms_armed\": {}, \"overhead\": {}, \"wall_ms_injected\": {}, \
             \"retries_healed\": {}, \"read_passes\": {}, \"write_passes\": {}}}{}\n",
            r.name,
            r.n,
            jf(r.wall_ms_plain),
            jf(r.wall_ms_armed),
            jf(r.overhead),
            jf(r.wall_ms_injected),
            r.retries_healed,
            jf(r.read_passes),
            jf(r.write_passes),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}

fn run_fault_suite(quick: bool, out_path: &str) {
    let b = if quick { 16 } else { 32 };
    let n = b * b * b;
    let reps = if quick { 5 } else { 7 };
    let mut rows = Vec::new();
    for alg in [Algorithm::SevenPass, Algorithm::ThreePass2] {
        let name = row_name(alg);
        let data = pdm_bench::data::permutation(n, 47);
        let mut best_plain = f64::MAX;
        let mut best_armed = f64::MAX;
        let mut best_injected = f64::MAX;
        let mut retries_healed = 0u64;
        let mut passes = (0.0, 0.0);
        // Legs alternate within each rep so cache warm-up and scheduler
        // noise spread evenly instead of favoring whichever runs last.
        for _ in 0..reps {
            let (w0, rp, wp, r0) = fault_leg(alg, b, n, false, 0, &data);
            assert_eq!(r0, 0);
            best_plain = best_plain.min(w0);
            let (w1, rp1, wp1, r1) = fault_leg(alg, b, n, true, 0, &data);
            assert_eq!(r1, 0, "{name}: the zero-fault leg retried an operation");
            assert_eq!(
                (rp, wp),
                (rp1, wp1),
                "{name}: arming fault tolerance changed the pass counts"
            );
            best_armed = best_armed.min(w1);
            let (w2, rp2, wp2, r2) = fault_leg(alg, b, n, true, 10_000, &data);
            assert_eq!(
                (rp, wp),
                (rp2, wp2),
                "{name}: healed faults changed the pass counts"
            );
            best_injected = best_injected.min(w2);
            retries_healed = retries_healed.max(r2);
            passes = (rp, wp);
        }
        rows.push(FaultRow {
            name,
            n,
            wall_ms_plain: best_plain,
            wall_ms_armed: best_armed,
            overhead: (best_armed - best_plain) / best_plain.max(1e-9),
            wall_ms_injected: best_injected,
            retries_healed,
            read_passes: passes.0,
            write_passes: passes.1,
        });
    }
    std::fs::write(out_path, render_fault_json(quick, &rows)).expect("write artifact");
    eprintln!("wrote {out_path}");
    for r in &rows {
        eprintln!(
            "  {:<16} [async-file] n = {:>7}  plain {:>8.2} ms vs armed {:>8.2} ms \
             ({:+.1}% overhead; 1% faults {:>8.2} ms, {} retries healed)",
            r.name,
            r.n,
            r.wall_ms_plain,
            r.wall_ms_armed,
            r.overhead * 100.0,
            r.wall_ms_injected,
            r.retries_healed,
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out_path = "BENCH_kernels.json".to_string();
    let mut overlap_out: Option<String> = None;
    let mut real_disk = false;
    let mut real_disk_dir: Option<String> = None;
    let mut fault_out: Option<String> = None;
    let mut workload: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--workload" => {
                i += 1;
                let w = args.get(i).expect("--workload needs a name").clone();
                if !RUN_GEN_WORKLOADS.contains(&w.as_str()) {
                    eprintln!(
                        "pdm-bench: unknown workload '{w}' (valid: {})",
                        RUN_GEN_WORKLOADS.join(", ")
                    );
                    std::process::exit(2);
                }
                workload = Some(w);
            }
            "--out" => {
                i += 1;
                out_path = args.get(i).expect("--out needs a path").clone();
            }
            "--overlap-out" => {
                i += 1;
                overlap_out = Some(args.get(i).expect("--overlap-out needs a path").clone());
            }
            "--real-disk" => real_disk = true,
            "--real-disk-dir" => {
                i += 1;
                real_disk_dir = Some(args.get(i).expect("--real-disk-dir needs a path").clone());
            }
            "--fault-out" => {
                i += 1;
                fault_out = Some(args.get(i).expect("--fault-out needs a path").clone());
            }
            other => {
                eprintln!(
                    "usage: pdm-bench [--quick] [--out FILE.json] [--overlap-out FILE.json] \
                     [--fault-out FILE.json] [--workload NAME] \
                     [--real-disk [--real-disk-dir DIR] [--out FILE.json]] (got '{other}')"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if real_disk {
        // Real-disk mode is its own suite: point --real-disk-dir at the
        // device under test (default: the temp dir) and --out at the
        // artifact (default: BENCH_realdisk.json).
        let out = if out_path == "BENCH_kernels.json" {
            "BENCH_realdisk.json".to_string()
        } else {
            out_path
        };
        run_real_disk_suite(quick, real_disk_dir.as_deref(), &out);
        return;
    }
    if let Some(path) = &fault_out {
        // Fault mode is its own suite: A/B the armed fault-tolerance
        // stack against a plain one on the async backend, overlap on.
        run_fault_suite(quick, path);
        return;
    }
    let reps = if quick { 3 } else { 7 };

    let mut kernel_rows = Vec::new();
    bench_sort_kernel(
        if quick { 1 << 14 } else { 1 << 17 },
        reps,
        &mut kernel_rows,
    );

    let mut merge_rows = Vec::new();
    bench_kway_merge(1 << 14, 64, reps, &mut merge_rows);
    if !quick {
        bench_kway_merge(1 << 17, 64, reps, &mut merge_rows);
        bench_kway_merge(1 << 17, 256, reps, &mut merge_rows);
    }

    let w = if quick { 1 << 12 } else { 1 << 15 };
    let cleaner = bench_cleaner(w, w, reps);

    let mut algo_rows = Vec::new();
    let b = if quick { 16 } else { 32 };
    let n = b * b * b; // N = M√M, every three-pass sorter's full capacity
    bench_algorithm(
        Algorithm::ThreePass2,
        BackendKind::Mem,
        b,
        n,
        &mut algo_rows,
    );
    bench_algorithm(Algorithm::SevenPass, BackendKind::Mem, b, n, &mut algo_rows);
    bench_algorithm(
        Algorithm::ThreePass2,
        BackendKind::Threaded,
        b,
        n,
        &mut algo_rows,
    );

    // Run-formation A/B: greedy memory-sized runs vs the adaptive up/down
    // strategy, across the skew spectrum. `--workload` narrows to one row.
    let mut run_gen_rows = Vec::new();
    for w in RUN_GEN_WORKLOADS {
        if workload.as_deref().is_none_or(|sel| sel == w) {
            bench_run_gen(w, b, n, &mut run_gen_rows);
        }
    }

    let mut overlap_rows = Vec::new();
    if let Some(path) = &overlap_out {
        // Overlap hides disk latency behind compute and behind the *other*
        // I/O direction: the duplex threaded backend services the
        // prefetch stream and the flush stream concurrently, which blocking
        // callers (read, compute, write, strictly in turn) can never
        // exploit. B = 64 makes each batch carry M = 4096 keys (~100µs of
        // kernel work) beside 100µs of emulated per-batch disk latency —
        // both material, neither drowning the other.
        let ob = 64;
        for alg in [
            Algorithm::SevenPass,
            Algorithm::ThreePass2,
            Algorithm::ThreePass1,
        ] {
            bench_overlap(alg, ob, ob * ob * ob, 100, &mut overlap_rows);
        }
        // expected_two_pass caps out near M^1.5/√((α+2)lnM+2) ≈ 44k keys
        // at M = 4096, so its row runs below the three-pass rows' N.
        bench_overlap(
            Algorithm::ExpectedTwoPass,
            ob,
            1 << 15,
            100,
            &mut overlap_rows,
        );
        // The merge sort's forecast refills and write-behind: fan-in 15,
        // 64 runs over two merge levels.
        bench_overlap(
            Algorithm::MergeSort,
            ob,
            ob * ob * ob,
            100,
            &mut overlap_rows,
        );
        std::fs::write(path, render_overlap_json(quick, &overlap_rows)).expect("write artifact");
        eprintln!("wrote {path}");
    }

    let json = render_json(
        quick,
        &kernel_rows,
        &merge_rows,
        &cleaner,
        &algo_rows,
        &run_gen_rows,
    );
    std::fs::write(&out_path, &json).expect("write artifact");
    eprintln!("wrote {out_path}");
    // Human-readable one-liners for the log.
    for r in &kernel_rows {
        eprintln!(
            "  {:<16} n = {:>7}  {:>8.2} ns/key  {} allocs",
            r.name, r.n, r.ns_per_key, r.allocs
        );
    }
    for r in &merge_rows {
        eprintln!(
            "  {:<16} n = {:>7}  heap {:>7.2} vs loser {:>7.2} ns/key ({:.2}x)",
            r.name,
            r.n,
            r.heap_ns_per_key,
            r.loser_ns_per_key,
            r.heap_ns_per_key / r.loser_ns_per_key.max(1e-9)
        );
    }
    eprintln!(
        "  cleaner          carry {} + window {}: resort {:.2} vs incremental {:.2} ns/key",
        cleaner.0, cleaner.1, cleaner.2, cleaner.3
    );
    for r in &overlap_rows {
        eprintln!(
            "  {:<16} [threaded +{}µs] n = {:>7}  blocking {:>8.2} ms vs overlap {:>8.2} ms \
             ({:.1}% better; prefetch {}/{} stalls, flush {}/{} stalls)",
            r.name,
            r.latency_us,
            r.n,
            r.wall_ms_blocking,
            r.wall_ms_overlap,
            r.improvement * 100.0,
            r.prefetch_stalls,
            r.prefetch_batches,
            r.flush_stalls,
            r.flush_batches,
        );
    }
    for r in &algo_rows {
        eprintln!(
            "  {:<16} [{}] n = {:>7}  {:>8.2} ms  {:.2}R/{:.2}W passes{}",
            r.name,
            r.backend,
            r.n,
            r.wall_ms,
            r.read_passes,
            r.write_passes,
            r.pool_hit_rate
                .map(|h| format!("  pool hit rate {:.1}%", h * 100.0))
                .unwrap_or_default()
        );
    }
    for r in &run_gen_rows {
        eprintln!(
            "  run_gen {:<13} n = {:>7}  greedy {} runs {:.2}R vs updown {} runs \
             (avg len {:.0} = {:.1}×M, {} merge levels) {:.2}R passes",
            r.workload,
            r.n,
            r.greedy_runs,
            r.greedy_read_passes,
            r.updown_runs,
            r.updown_avg_run_len,
            r.updown_avg_run_len / r.m as f64,
            r.updown_merge_levels,
            r.updown_read_passes,
        );
    }
}
