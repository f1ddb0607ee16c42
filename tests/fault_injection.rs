//! Fault injection: every algorithm must turn a storage failure into a
//! clean `Err` — no panic, no corrupted-but-Ok output, and no leaked
//! tracked memory (all `MemGuard`s released on the error path).

use pdm_model::prelude::*;
use pdm_model::rng::SplitMix64;
use pdm_sort::Algorithm;

type FlakyPdm = Pdm<u64, FlakyStorage<MemStorage<u64>>>;

fn machine(mode: FailMode, d: usize, b: usize) -> FlakyPdm {
    let inner = MemStorage::new(d, b);
    Pdm::with_storage(PdmConfig::square(d, b), FlakyStorage::new(inner, mode)).unwrap()
}

fn workload(n: usize) -> Vec<u64> {
    let mut rng = SplitMix64::seed_from_u64(77);
    let mut v: Vec<u64> = (0..n as u64).collect();
    rng.shuffle(&mut v);
    v
}

/// Run `algo` against a machine that fails the `k`-th read; the result must
/// be either a clean success (fault landed outside the algorithm's reads —
/// possible for later k) or a clean error. Either way the memory tracker
/// must drain back to zero.
fn check_fault_at<F>(k: u64, algo: F)
where
    F: FnOnce(&mut FlakyPdm, &Region, usize) -> Result<Region>,
{
    let b = 8usize;
    let n = 512usize;
    let data = workload(n);
    let mut pdm = machine(FailMode::NthRead(k), 2, b);
    let input = pdm.alloc_region_for_keys(n).unwrap();
    pdm.ingest(&input, &data).unwrap();
    let result = algo(&mut pdm, &input, n);
    match result {
        Ok(out) => {
            // fault didn't hit this run's reads — output must still be right
            let got = pdm.inspect_prefix(&out, n).unwrap();
            let mut want = data.clone();
            want.sort_unstable();
            assert_eq!(got, want, "fault at read {k} silently corrupted output");
        }
        Err(e) => {
            assert!(
                matches!(e, PdmError::Io(_)),
                "fault at read {k} surfaced as unexpected error: {e}"
            );
        }
    }
    assert_eq!(
        pdm.mem().current(),
        0,
        "fault at read {k} leaked tracked memory"
    );
}

#[test]
fn three_pass2_fails_cleanly_at_any_read() {
    // sweep fault positions across all three passes (192 block reads total)
    for k in [0u64, 1, 30, 64, 100, 128, 170, 191, 10_000] {
        check_fault_at(k, |pdm, r, n| {
            pdm_sort::three_pass2(pdm, r, n).map(|rep| rep.output)
        });
    }
}

#[test]
fn three_pass1_fails_cleanly_at_any_read() {
    for k in [0u64, 40, 90, 150, 191] {
        check_fault_at(k, |pdm, r, n| {
            pdm_sort::three_pass1(pdm, r, n).map(|rep| rep.output)
        });
    }
}

#[test]
fn expected_two_pass_fails_cleanly_at_any_read() {
    for k in [0u64, 50, 100, 127] {
        check_fault_at(k, |pdm, r, n| {
            pdm_sort::expected_two_pass(pdm, r, n).map(|rep| rep.output)
        });
    }
}

#[test]
fn seven_pass_fails_cleanly_at_any_read() {
    for k in [0u64, 100, 300, 447] {
        check_fault_at(k, |pdm, r, n| {
            pdm_sort::seven_pass(pdm, r, n).map(|rep| rep.output)
        });
    }
}

#[test]
fn radix_and_integer_sorts_fail_cleanly() {
    for k in [0u64, 64, 130] {
        check_fault_at(k, |pdm, r, n| {
            pdm_sort::radix_sort(pdm, r, n, 64).map(|rep| rep.report.output)
        });
    }
    let b = 8usize;
    let n = 512usize;
    let data: Vec<u64> = (0..n).map(|i| (i % 8) as u64).collect();
    let mut pdm = machine(FailMode::NthRead(20), 2, b);
    let input = pdm.alloc_region_for_keys(n).unwrap();
    pdm.ingest(&input, &data).unwrap();
    let res = pdm_sort::integer_sort(&mut pdm, &input, n, 8);
    assert!(res.is_err() || pdm.mem().current() == 0);
    assert_eq!(pdm.mem().current(), 0);
}

#[test]
fn write_faults_fail_cleanly_too() {
    let b = 8usize;
    let n = 512usize;
    let data = workload(n);
    for k in [0u64, 32, 100, 180] {
        let inner = MemStorage::new(2, b);
        let mut pdm: FlakyPdm = Pdm::with_storage(
            PdmConfig::square(2, b),
            FlakyStorage::new(inner, FailMode::NthWrite(k)),
        )
        .unwrap();
        let input = pdm.alloc_region_for_keys(n).unwrap();
        // the ingest itself writes; skip configs where it eats the fault
        if pdm.ingest(&input, &data).is_err() {
            continue;
        }
        let res = pdm_sort::three_pass2(&mut pdm, &input, n);
        assert!(res.is_err(), "write fault at {k} was swallowed");
        assert_eq!(pdm.mem().current(), 0, "write fault at {k} leaked memory");
    }
}

#[test]
fn dead_disk_fails_every_algorithm_cleanly() {
    let b = 8usize;
    let n = 512usize;
    let data = workload(n);
    let mut pdm = machine(FailMode::Disk(1), 2, b);
    let input = pdm.alloc_region_for_keys(n).unwrap();
    // ingest hits disk 1 immediately
    assert!(pdm.ingest(&input, &data).is_err());
    assert_eq!(pdm.mem().current(), 0);
}

#[test]
fn retried_batches_charge_the_originating_disk_in_probe_stream() {
    // Sort through a flaky + retrying stack with the probe on, then check
    // that the `retry.disk{d}.retries` gauges account for every retry:
    // re-issued batch blocks must be charged to the disk that failed, not
    // dropped on the floor (sync retries carry no disk by design, but
    // FlakyStorage never injects into sync, so the sums match exactly).
    let b = 8usize;
    let n = 512usize;
    let built = StorageBuilder::new(BackendKind::Mem, 2, b)
        .inject(FailMode::TransientRate {
            seed: 0xD15C,
            rate_ppm: 20_000,
        })
        .retry(RetryPolicy {
            max_attempts: 6,
            backoff_steps: 1,
        })
        .build::<u64>()
        .unwrap();
    let counters = built.retry_counters.clone().unwrap();
    let mut pdm = Pdm::with_storage(PdmConfig::square(2, b), built.storage).unwrap();
    pdm.attach_retry_counters(counters.clone());
    pdm.enable_probe(1 << 14);
    let data = workload(n);
    let input = pdm.alloc_region_for_keys(n).unwrap();
    pdm.ingest(&input, &data).unwrap();
    let rep = pdm_sort::three_pass2(&mut pdm, &input, n).unwrap();
    // Snapshot before the verification reads below: those go through the
    // same retrying stack and would advance the counters past the
    // machine's last phase-boundary fold (and thus past the last gauges).
    let snap = counters.snapshot();
    let mut want = data.clone();
    want.sort_unstable();
    assert_eq!(pdm.inspect_prefix(&rep.output, n).unwrap(), want);
    assert!(snap.total_retries() > 0, "2% fault rate never fired");
    assert_eq!(
        snap.per_disk_retries.iter().sum::<u64>(),
        snap.total_retries(),
        "every retried block op must be attributed to a disk"
    );

    // The probe stream carries the same attribution: the last
    // `retry.disk{d}.retries` gauge per disk equals the final counter.
    let mut last_gauge = [None::<i64>; 2];
    for ev in pdm.stats().probe().unwrap().events() {
        if let ProbeEvent::Gauge { name, value, .. } = ev {
            for (d, slot) in last_gauge.iter_mut().enumerate() {
                if name == &format!("retry.disk{d}.retries") {
                    *slot = Some(*value);
                }
            }
        }
    }
    for (d, &n_retries) in snap.per_disk_retries.iter().enumerate() {
        if n_retries > 0 {
            assert_eq!(
                last_gauge[d],
                Some(n_retries as i64),
                "probe gauge for disk {d} must match the final per-disk count"
            );
        }
    }
}

#[test]
fn grouped_completion_error_is_permanent_eio() {
    // A permanent EIO surfacing at completion time aborts a grouped read
    // batch on the async backend (no retry layer armed), and the batch's
    // one reply carries it back as a permanent error.
    use std::sync::Arc;
    let d = 2usize;
    let b = 8usize;
    let mut s = AsyncFileStorage::<u64>::create_temp(d, b).unwrap();
    for disk in 0..d {
        s.ensure_capacity(disk, 4).unwrap();
    }
    let reqs: Vec<(usize, usize)> = (0..8).map(|i| (i % d, i / d)).collect();
    let data: Vec<u64> = (0..(reqs.len() * b) as u64).collect();
    s.write_batch(&reqs, &data).unwrap();
    // Arm the fault after the writes: op indices restart at zero, so the
    // EIO lands on the 4th block op of the read batch below.
    s.set_file_faults(Arc::new(FileFaults::new(FileFaultMode::Eio(3))));
    let mut out = vec![0u64; data.len()];
    let err = s.read_batch(&reqs, &mut out).unwrap_err();
    assert!(
        !err.is_transient(),
        "an injected EIO must classify as permanent, got: {err}"
    );
}

#[test]
fn baseline_mergesort_fails_cleanly() {
    for algo in [Algorithm::MergeSort, Algorithm::UpDownMergeSort] {
        for k in [0u64, 64, 128] {
            check_fault_at(k, |pdm, r, n| {
                algo.run(pdm, r, n, 2.0).map(|rep| rep.output)
            });
        }
    }
}
