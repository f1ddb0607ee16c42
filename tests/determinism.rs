//! Determinism: identical runs produce identical I/O traces (the whole
//! reproduction depends on it).

use pdm_model::prelude::*;
use pdm_model::rng::SplitMix64;

fn run_once(seed: u64) -> (Vec<u64>, IoStats, usize) {
    let b = 16usize;
    let n = b * b * b;
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut data: Vec<u64> = (0..n as u64).collect();
    rng.shuffle(&mut data);
    let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(4, b)).unwrap();
    let input = pdm.alloc_region_for_keys(n).unwrap();
    pdm.ingest(&input, &data).unwrap();
    pdm.reset_stats();
    let rep = pdm_sort::pdm_sort(&mut pdm, &input, n).unwrap();
    let out = pdm.inspect_prefix(&rep.output, n).unwrap();
    let peak = pdm.mem().peak();
    (out, pdm.stats().clone(), peak)
}

#[test]
fn identical_runs_produce_identical_io_traces() {
    let (out1, stats1, peak1) = run_once(42);
    let (out2, stats2, peak2) = run_once(42);
    assert_eq!(out1, out2);
    assert_eq!(stats1, stats2, "I/O trace must be bit-for-bit reproducible");
    assert_eq!(peak1, peak2);
}

#[test]
fn different_seeds_still_agree_on_costs_for_oblivious_algorithms() {
    // the comparison algorithms are oblivious: the I/O *schedule* is input
    // independent, so two different permutations cost identical steps
    let (_, stats1, _) = run_once(1);
    let (_, stats2, _) = run_once(2);
    assert_eq!(stats1.read_steps, stats2.read_steps);
    assert_eq!(stats1.write_steps, stats2.write_steps);
    assert_eq!(stats1.blocks_read, stats2.blocks_read);
    assert_eq!(stats1.per_disk_reads, stats2.per_disk_reads);
}

#[test]
fn expected_algorithms_have_input_independent_schedules_too() {
    // ExpectedTwoPass without fallback is oblivious as well — both random
    // inputs cost the same steps (the fallback path differs, of course)
    let b = 16usize;
    let n = 2048usize;
    let mut traces = Vec::new();
    for seed in [10u64, 11] {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut data: Vec<u64> = (0..n as u64).collect();
        rng.shuffle(&mut data);
        let mut pdm: Pdm<u64> = Pdm::new(PdmConfig::square(4, b)).unwrap();
        let input = pdm.alloc_region_for_keys(n).unwrap();
        pdm.ingest(&input, &data).unwrap();
        pdm.reset_stats();
        let rep = pdm_sort::expected_two_pass(&mut pdm, &input, n).unwrap();
        assert!(!rep.fell_back);
        traces.push((pdm.stats().read_steps, pdm.stats().write_steps));
    }
    assert_eq!(traces[0], traces[1]);
}

#[test]
fn transient_fault_schedule_is_identical_across_backends_and_kernel_legs() {
    // `FailMode::TransientRate` derives its fault schedule purely from
    // (seed, operation index), and the operation sequence is fixed by the
    // I/O schedule — which the storage backend may not perturb. The hard
    // equality below pins the schedule and the healed retry counters to be
    // identical across backends and across repeat runs.
    let cfg = PdmConfig::square(2, 8);
    let n = 512usize;
    let policy = RetryPolicy {
        max_attempts: 6,
        backoff_steps: 1,
    };
    let dir = std::env::temp_dir().join(format!("pdm-det-transient-{}", std::process::id()));

    let mut data: Vec<u64> = (0..n as u64).collect();
    SplitMix64::seed_from_u64(0xD15C).shuffle(&mut data);
    let mut want = data.clone();
    want.sort_unstable();

    let mut legs: Vec<(&str, Vec<u64>, RetrySnapshot, IoStats)> = Vec::new();
    // "mem" runs twice: the repeat proves the schedule is a function of the
    // run, not of ambient state left behind by the first execution.
    for label in ["mem", "file", "threaded", "mem"] {
        let inner: Box<dyn Storage<u64>> = match label {
            "mem" => Box::new(MemStorage::new(cfg.num_disks, cfg.block_size)),
            "file" => Box::new(FileStorage::create(&dir, cfg.num_disks, cfg.block_size).unwrap()),
            _ => Box::new(ThreadedStorage::new(cfg.num_disks, cfg.block_size)),
        };
        let flaky = FlakyStorage::new(
            inner,
            FailMode::TransientRate {
                seed: 0xD15C,
                rate_ppm: 20_000,
            },
        );
        let retrying = RetryingStorage::new(flaky, policy);
        let counters = retrying.counters();
        let storage: Box<dyn Storage<u64>> = Box::new(retrying);
        let mut pdm = Pdm::with_storage(cfg, storage).unwrap();
        let input = pdm.alloc_region_for_keys(n).unwrap();
        pdm.ingest(&input, &data).unwrap();
        pdm.reset_stats();
        let rep = pdm_sort::seven_pass(&mut pdm, &input, n).unwrap();
        let got = pdm.inspect_prefix(&rep.output, n).unwrap();
        assert_eq!(
            got, want,
            "{label}: corrupted output under transient faults"
        );
        legs.push((label, got, counters.snapshot(), pdm.stats().clone()));
    }
    std::fs::remove_dir_all(&dir).ok();

    let (_, out0, retry0, stats0) = &legs[0];
    assert!(
        retry0.total_retries() > 0,
        "transient rate never fired — the schedule assertion below is vacuous"
    );
    for (label, out, retry, stats) in &legs[1..] {
        assert_eq!(out, out0, "{label}: output diverged");
        assert_eq!(
            retry, retry0,
            "{label}: fault schedule diverged from mem backend"
        );
        assert_eq!(
            stats, stats0,
            "{label}: I/O trace diverged from mem backend"
        );
    }
}

/// The probe stream of one overlapped sort, with every
/// `OverlapComplete.stalled` masked: whether retiring a batch had to wait
/// is the one wall-clock field in the stream.
fn overlapped_events<S: Storage<u64>>(
    storage: S,
    data: &[u64],
    b: usize,
    algo: pdm_sort::Algorithm,
) -> Vec<ProbeEvent> {
    let n = data.len();
    let mut pdm = Pdm::with_storage(PdmConfig::square(4, b), storage).unwrap();
    pdm.set_overlap(true);
    let input = pdm.alloc_region_for_keys(n).unwrap();
    pdm.ingest(&input, data).unwrap();
    pdm.reset_stats();
    pdm.enable_probe(1 << 20);
    algo.run(&mut pdm, &input, n, 2.0).unwrap();
    let (_, mut stats) = pdm.into_parts();
    let probe = stats.take_probe().expect("probe was enabled");
    assert_eq!(probe.dropped, 0, "cap should be ample for this run");
    probe
        .events()
        .iter()
        .map(|e| match *e {
            ProbeEvent::OverlapComplete {
                step, write, id, ..
            } => ProbeEvent::OverlapComplete {
                step,
                write,
                id,
                stalled: false,
            },
            ref e => e.clone(),
        })
        .collect()
}

#[test]
fn overlapped_runs_on_worker_storage_produce_identical_event_streams() {
    // Write-behind retires its submissions by count, never by which ones
    // the workers happen to have finished, so overlapped runs on the
    // threaded backend place every event identically, and where the
    // eager in-memory backend places it.
    use pdm_sort::Algorithm;
    let b = 16usize;
    let lat = std::time::Duration::from_micros(50);
    for (algo, n) in [
        (Algorithm::ThreePass2, b * b * b),
        (Algorithm::MergeSort, 4 * b * b * b),
    ] {
        let mut rng = SplitMix64::seed_from_u64(7);
        let mut data: Vec<u64> = (0..n as u64).collect();
        rng.shuffle(&mut data);
        let mem = overlapped_events(MemStorage::new(4, b), &data, b, algo);
        let flushes = mem
            .iter()
            .filter(|e| matches!(e, ProbeEvent::OverlapComplete { write: true, .. }))
            .count();
        assert!(
            flushes > 2,
            "{algo:?}: write-behind retired {flushes} batches"
        );
        for run in 0..3 {
            let threaded =
                overlapped_events(ThreadedStorage::with_latency(4, b, lat), &data, b, algo);
            assert!(
                threaded == mem,
                "{algo:?}: run {run} on the threaded backend placed its events differently"
            );
        }
    }
}
