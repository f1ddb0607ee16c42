//! Fault matrix: every algorithm in the workspace × every injected fault
//! mode. Each cell must resolve to a clean outcome — either `Ok` with a
//! correctly sorted output (the fault landed outside the run's I/O
//! schedule) or a clean `Err` — and in both cases the memory tracker must
//! drain back to zero. A panic anywhere fails the whole matrix.
//!
//! A second sweep wraps the same flaky backends in `RetryingStorage` with
//! a seeded transient-fault rate and demands that every algorithm then
//! completes *correctly*, proving the retry layer heals what the fault
//! layer injects.

use pdm_model::prelude::*;
use pdm_model::rng::SplitMix64;
use pdm_sort::Algorithm;

/// All matrix cells run over a boxed storage stack so one runner type
/// covers MemStorage, MemStorage+Flaky, and MemStorage+Flaky+Retry.
type DynPdm = Pdm<u64, Box<dyn Storage<u64>>>;
type Runner = fn(&mut DynPdm, &Region, usize) -> Result<Region>;

struct Case {
    name: &'static str,
    cfg: PdmConfig,
    n: usize,
    /// Bounded key range for rank-based sorts; `None` = full-width keys.
    key_range: Option<u64>,
    run: Runner,
}

fn cases() -> Vec<Case> {
    let square = PdmConfig::square(2, 8);
    let cube = PdmConfig::new(2, 8, 512); // B = 8 = M^{1/3}, columnsort territory
    let cc_n = pdm_baseline::cc_columnsort::capacity(&cube);
    vec![
        Case {
            name: "three_pass1",
            cfg: square,
            n: 512,
            key_range: None,
            run: |p, r, n| pdm_sort::three_pass1(p, r, n).map(|rep| rep.output),
        },
        Case {
            name: "three_pass2",
            cfg: square,
            n: 512,
            key_range: None,
            run: |p, r, n| pdm_sort::three_pass2(p, r, n).map(|rep| rep.output),
        },
        Case {
            name: "expected_two_pass",
            cfg: square,
            n: 512,
            key_range: None,
            run: |p, r, n| pdm_sort::expected_two_pass(p, r, n).map(|rep| rep.output),
        },
        Case {
            name: "expected_three_pass",
            cfg: square,
            n: 512,
            key_range: None,
            run: |p, r, n| pdm_sort::expected_three_pass(p, r, n, 2.0).map(|rep| rep.output),
        },
        Case {
            name: "seven_pass",
            cfg: square,
            n: 512,
            key_range: None,
            run: |p, r, n| pdm_sort::seven_pass(p, r, n).map(|rep| rep.output),
        },
        Case {
            name: "expected_six_pass",
            cfg: square,
            n: 512,
            key_range: None,
            run: |p, r, n| pdm_sort::expected_six_pass(p, r, n, 2.0).map(|rep| rep.output),
        },
        Case {
            name: "exp_two_pass_mesh",
            cfg: square,
            n: 512,
            key_range: None,
            run: |p, r, n| pdm_sort::exp_two_pass_mesh(p, r, n).map(|rep| rep.output),
        },
        Case {
            name: "radix_sort",
            cfg: square,
            n: 512,
            key_range: None,
            run: |p, r, n| pdm_sort::radix_sort(p, r, n, 64).map(|rep| rep.report.output),
        },
        Case {
            name: "integer_sort",
            cfg: square,
            n: 512,
            key_range: Some(8),
            run: |p, r, n| pdm_sort::integer_sort(p, r, n, 8).map(|rep| rep.output),
        },
        Case {
            name: "merge_sort",
            cfg: cube,
            n: cc_n,
            key_range: None,
            run: |p, r, n| Algorithm::MergeSort.run(p, r, n, 2.0).map(|rep| rep.output),
        },
        Case {
            name: "updown_merge_sort",
            cfg: cube,
            n: cc_n,
            key_range: None,
            run: |p, r, n| {
                Algorithm::UpDownMergeSort
                    .run(p, r, n, 2.0)
                    .map(|rep| rep.output)
            },
        },
        Case {
            name: "cc_columnsort",
            cfg: cube,
            n: cc_n,
            key_range: None,
            run: |p, r, n| pdm_baseline::cc_columnsort(p, r, n).map(|rep| rep.output),
        },
        Case {
            name: "cc_columnsort_skip12",
            cfg: cube,
            n: cc_n,
            key_range: None,
            run: |p, r, n| pdm_baseline::cc_columnsort_skip12(p, r, n).map(|rep| rep.output),
        },
        Case {
            name: "subblock_columnsort",
            cfg: cube,
            n: cc_n,
            key_range: None,
            run: |p, r, n| pdm_baseline::subblock_columnsort(p, r, n).map(|rep| rep.output),
        },
        Case {
            name: "srm_merge_sort",
            cfg: cube,
            n: cc_n,
            key_range: None,
            run: |p, r, n| {
                pdm_baseline::srm_merge_sort(p, r, n, pdm_baseline::Striping::Randomized, 7)
                    .map(|rep| rep.output)
            },
        },
    ]
}

fn workload(case: &Case) -> Vec<u64> {
    let mut rng = SplitMix64::seed_from_u64(0xFA17);
    match case.key_range {
        Some(range) => (0..case.n).map(|i| (i as u64 * 7 + 3) % range).collect(),
        None => {
            let mut v: Vec<u64> = (0..case.n as u64).collect();
            rng.shuffle(&mut v);
            v
        }
    }
}

/// Drive one matrix cell. Returns whether the run succeeded, so sweeps can
/// assert coverage (e.g. the no-fault leg must always succeed).
fn drive(case: &Case, storage: Box<dyn Storage<u64>>, label: &str) -> bool {
    let data = workload(case);
    let mut pdm: DynPdm = Pdm::with_storage(case.cfg, storage)
        .unwrap_or_else(|e| panic!("{}/{label}: config rejected: {e}", case.name));
    let input = match pdm.alloc_region_for_keys(case.n) {
        Ok(r) => r,
        Err(_) => {
            assert_eq!(pdm.mem().current(), 0, "{}/{label}: alloc leak", case.name);
            return false;
        }
    };
    if pdm.ingest(&input, &data).is_err() {
        // Fault landed inside ingest — clean error, nothing leaked.
        assert_eq!(pdm.mem().current(), 0, "{}/{label}: ingest leak", case.name);
        return false;
    }
    match (case.run)(&mut pdm, &input, case.n) {
        Ok(out) => {
            match pdm.inspect_prefix(&out, case.n) {
                Ok(got) => {
                    let mut want = data;
                    want.sort_unstable();
                    assert_eq!(
                        got, want,
                        "{}/{label}: silently corrupted output",
                        case.name
                    );
                    assert_eq!(
                        pdm.mem().current(),
                        0,
                        "{}/{label}: success leak",
                        case.name
                    );
                    true
                }
                Err(_) => {
                    // The sort's own I/O dodged the fault but the
                    // verification read tripped it — still a clean error.
                    assert_eq!(
                        pdm.mem().current(),
                        0,
                        "{}/{label}: inspect leak",
                        case.name
                    );
                    false
                }
            }
        }
        Err(_) => {
            assert_eq!(
                pdm.mem().current(),
                0,
                "{}/{label}: error path leaked tracked memory",
                case.name
            );
            false
        }
    }
}

fn flaky(cfg: &PdmConfig, mode: FailMode) -> Box<dyn Storage<u64>> {
    StorageBuilder::new(BackendKind::Mem, cfg.num_disks, cfg.block_size)
        .inject(mode)
        .build::<u64>()
        .expect("mem + flaky stack")
        .storage
}

#[test]
fn no_fault_leg_succeeds_for_every_algorithm() {
    for case in cases() {
        assert!(
            drive(&case, flaky(&case.cfg, FailMode::Never), "never"),
            "{}: clean run failed — matrix geometry is wrong",
            case.name
        );
    }
}

#[test]
fn read_faults_resolve_cleanly_across_the_matrix() {
    for case in cases() {
        for k in [0u64, 7, 63, 200, 1000] {
            drive(
                &case,
                flaky(&case.cfg, FailMode::NthRead(k)),
                &format!("nth-read:{k}"),
            );
        }
    }
}

#[test]
fn write_faults_resolve_cleanly_across_the_matrix() {
    for case in cases() {
        for k in [0u64, 7, 63, 200, 1000] {
            drive(
                &case,
                flaky(&case.cfg, FailMode::NthWrite(k)),
                &format!("nth-write:{k}"),
            );
        }
    }
}

#[test]
fn dead_disk_resolves_cleanly_across_the_matrix() {
    for case in cases() {
        for d in 0..case.cfg.num_disks {
            drive(
                &case,
                flaky(&case.cfg, FailMode::Disk(d)),
                &format!("disk:{d}"),
            );
        }
    }
}

#[test]
fn disk_death_mid_run_resolves_cleanly_across_the_matrix() {
    for case in cases() {
        for after in [0u64, 32, 128, 512] {
            drive(
                &case,
                flaky(&case.cfg, FailMode::DiskAfter(1, after)),
                &format!("disk-after:1:{after}"),
            );
        }
    }
}

/// Drive `three_pass2` with overlap enabled over a prebuilt storage
/// stack; returns the sorted output and the final counters.
fn overlap_run(
    storage: Box<dyn Storage<u64>>,
    data: &[u64],
    d: usize,
    b: usize,
) -> (Vec<u64>, IoStats) {
    let n = data.len();
    let mut pdm: DynPdm = Pdm::with_storage(PdmConfig::square(d, b), storage).unwrap();
    pdm.set_overlap(true);
    let input = pdm.alloc_region_for_keys(n).unwrap();
    pdm.ingest(&input, data).unwrap();
    pdm.reset_stats();
    let rep = pdm_sort::three_pass2(&mut pdm, &input, n).unwrap();
    let out = pdm.inspect_prefix(&rep.output, n).unwrap();
    let (_, stats) = pdm.into_parts();
    (out, stats)
}

#[test]
fn overlap_stays_on_through_the_retry_stack_and_heals_faults() {
    // The point of completion-time retry: `--overlap on --retry N` must
    // keep genuinely overlapped batches AND heal transient faults, with
    // output and pass counters identical to a clean in-memory run.
    let d = 4usize;
    let b = 16usize;
    let n = b * b * b;
    let mut rng = SplitMix64::seed_from_u64(0x0E11A);
    let mut data: Vec<u64> = (0..n as u64).collect();
    rng.shuffle(&mut data);
    let policy = RetryPolicy {
        max_attempts: 8,
        backoff_steps: 1,
    };

    let clean = StorageBuilder::new(BackendKind::Mem, d, b)
        .build::<u64>()
        .unwrap();
    let (want, ref_stats) = overlap_run(clean.storage, &data, d, b);
    assert!(
        ref_stats.overlap.prefetch_batches + ref_stats.overlap.flush_batches > 0,
        "reference leg never issued an overlapped batch"
    );

    // Leg 1: threaded backend, logical transient faults healed at issue
    // time by the forwarding retry wrapper.
    let built = StorageBuilder::new(BackendKind::Threaded, d, b)
        .inject(FailMode::TransientRate {
            seed: 0xBEEF,
            rate_ppm: 20_000,
        })
        .retry(policy)
        .build::<u64>()
        .unwrap();
    assert!(
        built.caps.overlap,
        "flaky+retry wrappers must pass the threaded backend's overlap capability through"
    );
    let counters = built.retry_counters.clone().unwrap();
    let (out, stats) = overlap_run(built.storage, &data, d, b);
    let snap = counters.snapshot();
    assert_eq!(out, want, "threaded overlap+retry leg corrupted output");
    assert_eq!(
        stats.read_steps, ref_stats.read_steps,
        "threaded leg pass count drifted"
    );
    assert_eq!(
        stats.write_steps, ref_stats.write_steps,
        "threaded leg pass count drifted"
    );
    assert_eq!(stats.blocks_read, ref_stats.blocks_read);
    assert_eq!(stats.blocks_written, ref_stats.blocks_written);
    assert_eq!(stats.per_disk_reads, ref_stats.per_disk_reads);
    assert_eq!(stats.per_disk_writes, ref_stats.per_disk_writes);
    assert_eq!(snap.exhausted, 0, "threaded leg exhausted a retry budget");
    assert!(
        snap.total_retries() > 0,
        "2% transient rate never fired on the threaded leg"
    );

    // Leg 2: async real-disk backend, real file-level faults (short
    // transfers) healed at *completion time* inside the disk workers.
    let built = StorageBuilder::new(BackendKind::AsyncFile, d, b)
        .inject_file(FileFaultMode::ShortRate {
            seed: 0xF00D,
            rate_ppm: 20_000,
        })
        .retry(policy)
        .build::<u64>()
        .unwrap();
    assert!(
        built.caps.overlap,
        "completion-time retry must keep the async backend's overlap capability on"
    );
    let counters = built.retry_counters.clone().unwrap();
    let (out, stats) = overlap_run(built.storage, &data, d, b);
    let snap = counters.snapshot();
    assert_eq!(out, want, "async-file overlap+retry leg corrupted output");
    assert_eq!(
        stats.read_steps, ref_stats.read_steps,
        "async-file leg pass count drifted"
    );
    assert_eq!(
        stats.write_steps, ref_stats.write_steps,
        "async-file leg pass count drifted"
    );
    assert_eq!(stats.blocks_read, ref_stats.blocks_read);
    assert_eq!(stats.blocks_written, ref_stats.blocks_written);
    assert_eq!(stats.per_disk_reads, ref_stats.per_disk_reads);
    assert_eq!(stats.per_disk_writes, ref_stats.per_disk_writes);
    assert_eq!(snap.exhausted, 0, "async-file leg exhausted a retry budget");
    assert!(
        snap.completion_retries() > 0,
        "2% file fault rate never triggered a completion-time retry"
    );
    #[cfg(feature = "block-checksums")]
    {
        assert!(
            built.caps.checksums,
            "async backend must checksum under the feature"
        );
        let verified: u64 = stats
            .wall
            .disks
            .iter()
            .map(|dw| dw.checksums_verified)
            .sum();
        assert!(
            verified > 0,
            "checksummed reads were never verified on completion"
        );
    }
}

#[test]
fn transient_faults_heal_under_retry_for_every_algorithm() {
    // 2 % per-op transient rate; 6 attempts give odds of full-run survival
    // indistinguishable from certainty at these op counts.
    let policy = RetryPolicy {
        max_attempts: 6,
        backoff_steps: 1,
    };
    let mut total_retries = 0u64;
    for case in cases() {
        let built = StorageBuilder::new(BackendKind::Mem, case.cfg.num_disks, case.cfg.block_size)
            .inject(FailMode::TransientRate {
                seed: 0xC0FFEE,
                rate_ppm: 20_000,
            })
            .retry(policy)
            .build::<u64>()
            .expect("mem + flaky + retry stack");
        let counters = built.retry_counters.clone().expect("retry layer present");
        let ok = drive(&case, built.storage, "transient+retry");
        assert!(
            ok,
            "{}: retry layer failed to heal a 2% transient fault rate",
            case.name
        );
        let snap = counters.snapshot();
        assert_eq!(snap.exhausted, 0, "{}: retry budget exhausted", case.name);
        total_retries += snap.total_retries();
    }
    assert!(
        total_retries > 0,
        "transient sweep never actually injected a fault — rate wiring is broken"
    );
}
