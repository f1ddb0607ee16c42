//! Backend equivalence: the cost model is backend-independent.
//!
//! The same algorithm on the same input must produce identical output AND
//! identical I/O statistics on the in-memory, file-backed, threaded,
//! and async real-disk backends — the backends only change where bytes
//! live, never what the machine charges for moving them.

use pdm_model::prelude::*;
use pdm_model::rng::SplitMix64;
use pdm_sort::Algorithm;

fn workload(n: usize) -> Vec<u64> {
    let mut rng = SplitMix64::seed_from_u64(21);
    let mut v: Vec<u64> = (0..n as u64).collect();
    rng.shuffle(&mut v);
    v
}

fn run_on<S: Storage<u64>>(storage: S, data: &[u64], b: usize) -> (Vec<u64>, IoStats, usize) {
    let n = data.len();
    let mut pdm = Pdm::with_storage(PdmConfig::square(4, b), storage).unwrap();
    let input = pdm.alloc_region_for_keys(n).unwrap();
    pdm.ingest(&input, data).unwrap();
    pdm.reset_stats();
    let rep = pdm_sort::three_pass2(&mut pdm, &input, n).unwrap();
    let out = pdm.inspect_prefix(&rep.output, n).unwrap();
    let peak = pdm.mem().peak();
    let (_, stats) = pdm.into_parts();
    (out, stats, peak)
}

#[test]
fn all_backends_agree_bit_for_bit_and_step_for_step() {
    let b = 16usize;
    let n = b * b * b;
    let data = workload(n);

    let (out_mem, stats_mem, peak_mem) = run_on(MemStorage::new(4, b), &data, b);
    let (out_file, stats_file, peak_file) =
        run_on(FileStorage::<u64>::create_temp(4, b).unwrap(), &data, b);
    let (out_thr, stats_thr, peak_thr) = run_on(ThreadedStorage::<u64>::new(4, b), &data, b);

    assert_eq!(out_mem, out_file, "file backend output differs");
    assert_eq!(out_mem, out_thr, "threaded backend output differs");

    // identical cost-model accounting
    assert_eq!(stats_mem.blocks_read, stats_file.blocks_read);
    assert_eq!(stats_mem.read_steps, stats_file.read_steps);
    assert_eq!(stats_mem.write_steps, stats_file.write_steps);
    assert_eq!(stats_mem.per_disk_reads, stats_file.per_disk_reads);
    assert_eq!(stats_mem.blocks_read, stats_thr.blocks_read);
    assert_eq!(stats_mem.read_steps, stats_thr.read_steps);
    assert_eq!(stats_mem.per_disk_writes, stats_thr.per_disk_writes);

    // identical memory profile
    assert_eq!(peak_mem, peak_file);
    assert_eq!(peak_mem, peak_thr);
}

#[test]
fn async_file_backend_matches_mem_on_both_overlap_legs() {
    // The real-disk async backend is still a cost-model citizen: same
    // output bytes, same step accounting, same memory profile as the
    // in-memory reference — with overlap off AND on (overlap may only
    // move wall-clock, never counters).
    let b = 16usize;
    let n = b * b * b;
    let data = workload(n);
    let (out_mem, stats_mem, peak_mem) = run_on(MemStorage::new(4, b), &data, b);

    for overlap in [false, true] {
        let storage = AsyncFileStorage::<u64>::create_temp(4, b).unwrap();
        let mut pdm = Pdm::with_storage(PdmConfig::square(4, b), storage).unwrap();
        pdm.set_overlap(overlap);
        let input = pdm.alloc_region_for_keys(n).unwrap();
        pdm.ingest(&input, &data).unwrap();
        pdm.reset_stats();
        let rep = pdm_sort::three_pass2(&mut pdm, &input, n).unwrap();
        let out = pdm.inspect_prefix(&rep.output, n).unwrap();
        let peak = pdm.mem().peak();
        let (_, stats) = pdm.into_parts();

        assert_eq!(
            out, out_mem,
            "async-file output differs (overlap={overlap})"
        );
        assert_eq!(
            stats.blocks_read, stats_mem.blocks_read,
            "overlap={overlap}"
        );
        assert_eq!(
            stats.blocks_written, stats_mem.blocks_written,
            "overlap={overlap}"
        );
        assert_eq!(stats.read_steps, stats_mem.read_steps, "overlap={overlap}");
        assert_eq!(
            stats.write_steps, stats_mem.write_steps,
            "overlap={overlap}"
        );
        assert_eq!(
            stats.per_disk_reads, stats_mem.per_disk_reads,
            "overlap={overlap}"
        );
        assert_eq!(
            stats.per_disk_writes, stats_mem.per_disk_writes,
            "overlap={overlap}"
        );
        assert_eq!(peak, peak_mem, "overlap={overlap}");
        if overlap {
            assert!(
                stats.overlap.prefetch_batches + stats.overlap.flush_batches > 0,
                "overlap leg never actually issued an overlapped batch"
            );
        }
    }
}

fn run_probed<S: Storage<u64>>(storage: S, data: &[u64], b: usize) -> (IoStats, Box<Probe>) {
    let n = data.len();
    let mut pdm = Pdm::with_storage(PdmConfig::square(4, b), storage).unwrap();
    let input = pdm.alloc_region_for_keys(n).unwrap();
    pdm.ingest(&input, data).unwrap();
    pdm.reset_stats();
    pdm.enable_probe(1 << 20);
    pdm_sort::three_pass2(&mut pdm, &input, n).unwrap();
    let (_, mut stats) = pdm.into_parts();
    let probe = stats.take_probe().expect("probe was enabled");
    (stats, probe)
}

#[test]
fn probe_event_streams_are_identical_across_backends_and_replay_exactly() {
    let b = 16usize;
    let n = b * b * b;
    let data = workload(n);

    let (stats_mem, probe_mem) = run_probed(MemStorage::new(4, b), &data, b);
    let (stats_file, probe_file) =
        run_probed(FileStorage::<u64>::create_temp(4, b).unwrap(), &data, b);
    let (stats_thr, probe_thr) = run_probed(ThreadedStorage::<u64>::new(4, b), &data, b);

    // The structured event stream carries no wall-clock, so it must be
    // identical — event for event — on every backend.
    assert_eq!(probe_mem.dropped, 0, "cap should be ample for this run");
    assert_eq!(probe_mem, probe_file, "file backend event stream differs");
    assert_eq!(
        probe_mem, probe_thr,
        "threaded backend event stream differs"
    );

    // Replaying the stream reconstructs the aggregate counters exactly.
    let rep = replay(probe_mem.events(), 4);
    assert_eq!(rep.blocks_read, stats_mem.blocks_read);
    assert_eq!(rep.blocks_written, stats_mem.blocks_written);
    assert_eq!(rep.read_steps, stats_mem.read_steps);
    assert_eq!(rep.write_steps, stats_mem.write_steps);
    assert_eq!(rep.per_disk_reads, stats_mem.per_disk_reads);
    assert_eq!(rep.per_disk_writes, stats_mem.per_disk_writes);

    // ... and the per-phase attribution, including grouped batches.
    assert_eq!(rep.phases.len(), stats_mem.phases.len());
    for (got, want) in rep.phases.iter().zip(&stats_mem.phases) {
        assert_eq!(got.name, want.name);
        assert_eq!(got.read_steps, want.read_steps, "phase {}", want.name);
        assert_eq!(got.write_steps, want.write_steps, "phase {}", want.name);
        assert_eq!(got.blocks_read, want.blocks_read, "phase {}", want.name);
        assert_eq!(
            got.blocks_written, want.blocks_written,
            "phase {}",
            want.name
        );
    }

    // Overlap counters: batch counts are deterministic everywhere; the
    // hit/stall split is timing-dependent on the threaded backend, but
    // every rotation is exactly one of the two.
    for s in [&stats_file, &stats_thr] {
        let (a, b) = (&stats_mem.overlap, &s.overlap);
        assert_eq!(a.prefetch_batches, b.prefetch_batches);
        assert_eq!(a.flush_batches, b.flush_batches);
        assert_eq!(
            a.prefetch_hits + a.prefetch_stalls,
            b.prefetch_hits + b.prefetch_stalls
        );
        assert_eq!(a.flush_hits + a.flush_stalls, b.flush_hits + b.flush_stalls);
    }
}

fn run_probed_telemetry<S: Storage<u64>>(
    storage: S,
    data: &[u64],
    b: usize,
    telemetry: bool,
) -> (IoStats, Box<Probe>) {
    let n = data.len();
    let mut pdm = Pdm::with_storage(PdmConfig::square(4, b), storage).unwrap();
    if telemetry {
        pdm.attach_span_sink(std::sync::Arc::new(SpanSink::new(1 << 20)));
    }
    let input = pdm.alloc_region_for_keys(n).unwrap();
    pdm.ingest(&input, data).unwrap();
    pdm.reset_stats();
    pdm.enable_probe(1 << 20);
    pdm_sort::three_pass2(&mut pdm, &input, n).unwrap();
    let (_, mut stats) = pdm.into_parts();
    let probe = stats.take_probe().expect("probe was enabled");
    (stats, probe)
}

#[test]
fn telemetry_never_perturbs_the_event_stream_or_counters() {
    // Wall-clock telemetry (latency histograms, queue gauges, span sinks)
    // rides beside the step clock, never inside it: enabling it must leave
    // the probe's structured event stream and every deterministic counter
    // identical on every backend. `IoStats` equality deliberately ignores
    // the `wall` field, so the whole-struct compares below encode exactly
    // that contract.
    let b = 16usize;
    let n = b * b * b;
    let data = workload(n);

    let (base_stats, base_probe) = run_probed_telemetry(MemStorage::new(4, b), &data, b, false);

    let (mem_on, p_mem_on) = run_probed_telemetry(MemStorage::new(4, b), &data, b, true);
    assert_eq!(
        base_probe, p_mem_on,
        "telemetry changed the mem event stream"
    );
    assert_eq!(base_stats, mem_on, "telemetry changed the mem counters");
    assert!(
        !mem_on.wall.has_samples(),
        "step-clocked mem backend records no wall samples"
    );

    let (thr_off, p_thr_off) =
        run_probed_telemetry(ThreadedStorage::<u64>::new(4, b), &data, b, false);
    let (thr_on, p_thr_on) =
        run_probed_telemetry(ThreadedStorage::<u64>::new(4, b), &data, b, true);
    assert_eq!(
        p_thr_off, p_thr_on,
        "telemetry changed the threaded event stream"
    );
    assert_eq!(thr_off, thr_on, "telemetry changed the threaded counters");
    assert_eq!(
        base_probe, p_thr_on,
        "threaded event stream differs from mem"
    );
    assert!(
        thr_on.wall.has_samples(),
        "threaded backend should record latency samples"
    );

    let (af_off, p_af_off) = run_probed_telemetry(
        AsyncFileStorage::<u64>::create_temp(4, b).unwrap(),
        &data,
        b,
        false,
    );
    let (af_on, p_af_on) = run_probed_telemetry(
        AsyncFileStorage::<u64>::create_temp(4, b).unwrap(),
        &data,
        b,
        true,
    );
    assert_eq!(
        p_af_off, p_af_on,
        "telemetry changed the async-file event stream"
    );
    assert_eq!(af_off, af_on, "telemetry changed the async-file counters");
    assert_eq!(
        base_probe, p_af_on,
        "async-file event stream differs from mem"
    );
    assert!(
        af_on.wall.has_samples(),
        "async-file backend should record latency samples"
    );

    // Replaying the telemetry-on stream still reconstructs the counters.
    let rep = replay(p_af_on.events(), 4);
    assert_eq!(rep.blocks_read, base_stats.blocks_read);
    assert_eq!(rep.blocks_written, base_stats.blocks_written);
    assert_eq!(rep.read_steps, base_stats.read_steps);
    assert_eq!(rep.write_steps, base_stats.write_steps);
    assert_eq!(rep.per_disk_reads, base_stats.per_disk_reads);
    assert_eq!(rep.per_disk_writes, base_stats.per_disk_writes);
}

#[test]
fn file_backend_survives_every_algorithm() {
    let b = 8usize;
    let n = b * b * b;
    let data = workload(n);
    let mut want = data.clone();
    want.sort_unstable();

    macro_rules! run {
        ($f:expr) => {{
            let storage = FileStorage::<u64>::create_temp(2, b).unwrap();
            let mut pdm = Pdm::with_storage(PdmConfig::square(2, b), storage).unwrap();
            let input = pdm.alloc_region_for_keys(n).unwrap();
            pdm.ingest(&input, &data).unwrap();
            #[allow(clippy::redundant_closure_call)]
            let out = $f(&mut pdm, &input, n);
            assert_eq!(pdm.inspect_prefix(&out, n).unwrap(), want);
        }};
    }
    run!(
        |p: &mut Pdm<u64, FileStorage<u64>>, r: &Region, n| pdm_sort::three_pass1(p, r, n)
            .unwrap()
            .output
    );
    run!(
        |p: &mut Pdm<u64, FileStorage<u64>>, r: &Region, n| pdm_sort::expected_two_pass(p, r, n)
            .unwrap()
            .output
    );
    run!(
        |p: &mut Pdm<u64, FileStorage<u64>>, r: &Region, n| pdm_sort::radix_sort(p, r, n, 64)
            .unwrap()
            .report
            .output
    );
    for algo in [Algorithm::MergeSort, Algorithm::UpDownMergeSort] {
        run!(|p: &mut Pdm<u64, FileStorage<u64>>, r: &Region, n| algo
            .run(p, r, n, 2.0)
            .unwrap()
            .output);
    }
}

#[test]
fn file_backend_data_is_really_on_disk() {
    // write through one storage handle, read through a fresh one on the
    // same directory — proves the bytes hit the filesystem
    let dir = std::env::temp_dir().join(format!("pdm-persist-{}", std::process::id()));
    let b = 8usize;
    {
        let storage = FileStorage::<u64>::create(&dir, 2, b).unwrap();
        let mut pdm = Pdm::with_storage(PdmConfig::square(2, b), storage).unwrap();
        let r = pdm.alloc_region_for_keys(64).unwrap();
        pdm.write_region(&r, &(0..64u64).collect::<Vec<_>>())
            .unwrap();
        pdm.sync().unwrap();
    }
    {
        let mut storage = FileStorage::<u64>::create_readback(&dir, 2, b).unwrap();
        let mut out = vec![0u64; b];
        storage.read_batch(&[(0, 0)], &mut out).unwrap();
        // block 0 of a region starting at disk 0 = first B keys
        assert_eq!(out, (0..b as u64).collect::<Vec<_>>());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn threaded_backend_handles_concurrent_batches() {
    // many stripes in flight — exercises the read and write worker queues
    let b = 16usize;
    let storage = ThreadedStorage::<u64>::new(8, b);
    let mut pdm = Pdm::with_storage(PdmConfig::new(8, b, 2 * 8 * b), storage).unwrap();
    let n = 8 * b * 64;
    let data = workload(n);
    let r = pdm.alloc_region_for_keys(n).unwrap();
    pdm.ingest(&r, &data).unwrap();
    let mut out = Vec::new();
    for chunk_start in (0..r.len_blocks()).step_by(8) {
        let take = 8.min(r.len_blocks() - chunk_start);
        let blocks = (chunk_start..chunk_start + take).map(|i| (r, i));
        pdm.read_blocks(blocks, &mut out).unwrap();
    }
    assert_eq!(out[..n], data[..]);
}
