//! Checkpoint/resume torture tests: kill a sort mid-pass (via injected
//! disk death), then restart against the surviving disk files and the
//! last checkpoint manifest. The resumed run must replay completed
//! passes without I/O, re-execute the interrupted pass, and land on
//! output byte-identical to an uninterrupted run.

use pdm_model::prelude::*;
use pdm_model::rng::SplitMix64;
use pdm_sort::Algorithm;
use std::path::Path;

const D: usize = 2;
const B: usize = 8;
const N: usize = 512;

fn workload_of(n: usize) -> Vec<u64> {
    let mut rng = SplitMix64::seed_from_u64(0x0C0FFEE);
    let mut v: Vec<u64> = (0..n as u64).collect();
    rng.shuffle(&mut v);
    v
}

fn workload() -> Vec<u64> {
    workload_of(N)
}

fn digest_of(data: &[u64]) -> u64 {
    data.iter()
        .fold(FNV_OFFSET, |st, k| fnv1a(st, &k.to_le_bytes()))
}

fn fresh_manifest(cfg: &PdmConfig, digest: u64) -> Manifest {
    Manifest::new("three-pass1", cfg, N, digest)
}

fn unique_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static C: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "pdm-ckres-{tag}-{}-{}",
        std::process::id(),
        C.fetch_add(1, Ordering::Relaxed)
    ))
}

/// One sweep case: a resumable sorter on `n` keys.
#[derive(Debug, Clone, Copy)]
struct Case {
    algo: Algorithm,
    n: usize,
}

const THREE_PASS1: Case = Case {
    algo: Algorithm::ThreePass1,
    n: N,
};

/// Reference: uninterrupted sorted output, the number of phases, and the
/// block operations the run makes (staging included), which is what
/// `FailMode::DiskAfter` counts.
fn reference_run(case: Case, data: &[u64], overlap: bool) -> (Vec<u64>, usize, u64) {
    let r = reference_phases(case, data, overlap);
    let ops = r.staged + r.phase_ops.iter().sum::<u64>();
    (r.out, r.phase_ops.len(), ops)
}

/// An uninterrupted run on `mem`, pass by pass, with a checkpoint store
/// attached as the interrupted and resumed runs have, so it lays the sort
/// out as they do (ThreePass1 and ThreePass2 run in place only without
/// one).
struct Reference {
    out: Vec<u64>,
    /// Blocks staged before the sort.
    staged: u64,
    /// Block operations of each phase, in order.
    phase_ops: Vec<u64>,
    /// The disks' high-water mark, and the levels the input takes.
    high: usize,
    input_levels: usize,
}

fn reference_phases(case: Case, data: &[u64], overlap: bool) -> Reference {
    let cfg = PdmConfig::square(D, B);
    let mut pdm: Pdm<u64> = Pdm::new(cfg).unwrap();
    pdm.set_overlap(overlap);
    let input = pdm.alloc_region_for_keys(case.n).unwrap();
    pdm.ingest(&input, data).unwrap();
    let ckdir = unique_dir("ref");
    let manifest = Manifest::new(case.algo.name(), &cfg, case.n, digest_of(data));
    pdm.attach_checkpoint(CheckpointStore::create(&ckdir).unwrap(), manifest);
    let rep = case.algo.run(&mut pdm, &input, case.n, 2.0).unwrap();
    std::fs::remove_dir_all(&ckdir).ok();
    Reference {
        out: pdm.inspect_prefix(&rep.output, case.n).unwrap(),
        staged: input.len_blocks() as u64,
        phase_ops: (pdm.stats().phases.iter())
            .map(|p| p.blocks_read + p.blocks_written)
            .collect(),
        high: pdm.next_slot(),
        input_levels: input.len_blocks().div_ceil(D),
    }
}

/// Run `case` over persistent `kind` disks with a disk that dies after
/// `kill_after` block operations, checkpointing each pass. Returns the
/// completed-pass count recorded by the last durable checkpoint, or
/// `None` if the run actually survived (fault landed past its I/O).
#[allow(clippy::too_many_arguments)]
fn interrupted_run(
    case: Case,
    kind: BackendKind,
    scratch: &Path,
    ckdir: &Path,
    data: &[u64],
    digest: u64,
    kill_after: u64,
    overlap: bool,
) -> Option<usize> {
    let cfg = PdmConfig::square(D, B);
    let storage = StorageBuilder::new(kind, D, B)
        .dir(scratch)
        .inject(FailMode::DiskAfter(1, kill_after))
        .build::<u64>()
        .unwrap()
        .storage;
    let mut pdm = Pdm::with_storage(cfg, storage).unwrap();
    pdm.set_overlap(overlap);
    let input = pdm.alloc_region_for_keys(case.n).unwrap();
    if pdm.ingest(&input, data).is_err() {
        assert_eq!(pdm.mem().current(), 0, "kill@{kill_after}: ingest leak");
        return Some(0);
    }
    let store = CheckpointStore::create(ckdir).unwrap();
    pdm.attach_checkpoint(store, Manifest::new(case.algo.name(), &cfg, case.n, digest));
    match case.algo.run(&mut pdm, &input, case.n, 2.0) {
        Ok(_) => None,
        Err(_) => {
            // The "crash": machine dropped here, disks and manifests stay.
            assert_eq!(
                pdm.mem().current(),
                0,
                "kill@{kill_after}: error path leaked tracked memory"
            );
            let latest = CheckpointStore::create(ckdir)
                .unwrap()
                .load_latest()
                .unwrap();
            Some(latest.map_or(0, |m| m.completed))
        }
    }
}

/// Restart from the surviving files + manifest and finish the sort.
/// Returns the output, the phases replayed and run live, and the disks'
/// high-water mark.
fn resumed_run(
    case: Case,
    kind: BackendKind,
    scratch: &Path,
    ckdir: &Path,
    digest: u64,
    overlap: bool,
) -> (Vec<u64>, usize, usize, usize) {
    let cfg = PdmConfig::square(D, B);
    let store = CheckpointStore::create(ckdir).unwrap();
    let manifest = store
        .load_latest()
        .unwrap()
        .expect("interrupted run left no checkpoint");
    manifest
        .check_compatible(case.algo.name(), &cfg, case.n, digest)
        .unwrap();
    let storage = StorageBuilder::new(kind, D, B)
        .dir(scratch)
        .readback(true)
        .build::<u64>()
        .unwrap()
        .storage;
    let mut pdm = Pdm::with_storage(cfg, storage).unwrap();
    pdm.set_overlap(overlap);
    let input = pdm.alloc_region_for_keys(case.n).unwrap();
    // No ingest: the keys are already on disk from before the crash.
    let skipped = manifest.completed;
    pdm.attach_checkpoint(store, manifest);
    let rep = case.algo.run(&mut pdm, &input, case.n, 2.0).unwrap();
    if let Some(e) = pdm.take_checkpoint_error() {
        panic!("{case:?}: resume left a deferred checkpoint error: {e}");
    }
    let out = pdm.inspect_prefix(&rep.output, case.n).unwrap();
    let live = pdm.stats().phases.len();
    (out, skipped, live, pdm.next_slot())
}

#[test]
fn kill_mid_pass_then_resume_is_byte_identical() {
    // Every sorter resume is sound for, plus a merge sort whose levels
    // carry an unmerged run (10 runs at fan-in 3), so a region that still
    // holds a live run is kept while the rest are reused.
    let mut cases: Vec<Case> = Algorithm::ALL
        .into_iter()
        .filter(|a| a.deterministic())
        .map(|algo| Case { algo, n: N })
        .collect();
    cases.push(Case {
        algo: Algorithm::MergeSort,
        n: 640,
    });
    for case in cases {
        let data = workload_of(case.n);
        let digest = digest_of(&data);
        // Both overlap legs run the same sweep: with overlap on, the
        // pipelines' read-ahead/write-behind wrappers are live, so the
        // drain-before-checkpoint discipline and the resume path run with
        // in-flight tokens in play, and must land on the same bytes and
        // pass counts. async-file's workers complete them asynchronously.
        for (kind, overlap) in [BackendKind::File, BackendKind::AsyncFile]
            .into_iter()
            .flat_map(|k| [(k, false), (k, true)])
        {
            let (want, total_passes, ops) = reference_run(case, &data, overlap);
            let tag = format!("{case:?} {kind} overlap={overlap}");
            // Kill points across the whole I/O schedule, every pass
            // included, and one past the end (the run survives).
            let mut resumed_with_progress = 0usize;
            for kill_after in (1..=9).map(|i| ops * i / 10).chain([ops + 100]) {
                let scratch = unique_dir("scratch");
                let ckdir = unique_dir("ck");
                let run = interrupted_run(
                    case, kind, &scratch, &ckdir, &data, digest, kill_after, overlap,
                );
                if let Some(completed) = run {
                    assert!(
                        completed < total_passes,
                        "{tag} kill@{kill_after}: checkpoint claims a finished run that errored"
                    );
                    if completed > 0 {
                        let (got, skipped, live, _) =
                            resumed_run(case, kind, &scratch, &ckdir, digest, overlap);
                        assert_eq!(got, want, "{tag} kill@{kill_after}: resumed output differs");
                        assert_eq!(skipped, completed, "{tag} kill@{kill_after}");
                        assert_eq!(
                            live,
                            total_passes - completed,
                            "{tag} kill@{kill_after}: wrong number of live re-executed passes"
                        );
                        resumed_with_progress += 1;
                    }
                } else {
                    assert!(
                        kill_after > ops,
                        "{tag} kill@{kill_after}: the fault never fired"
                    );
                }
                std::fs::remove_dir_all(&scratch).ok();
                std::fs::remove_dir_all(&ckdir).ok();
            }
            assert!(
                resumed_with_progress >= 2,
                "{tag}: sweep never exercised a genuine mid-run resume"
            );
        }
    }
}

#[test]
fn a_stop_in_every_pass_resumes_across_each_release() {
    // The sorters that release a region between passes, stopped halfway
    // through each pass. The resume replays every release the completed
    // passes made, so the live passes write over the same levels the
    // stopped run would have: the same bytes, on the same high-water mark.
    // ThreePass1 and ThreePass2 release the input after pass 1 and their
    // columns after pass 2; the merge sort (10 runs at fan-in 3, so levels
    // carry a run) the input after run formation and each level's runs.
    for (case, space) in [
        (THREE_PASS1, Some(2)),
        (
            Case {
                algo: Algorithm::ThreePass2,
                n: N,
            },
            Some(2),
        ),
        (
            Case {
                algo: Algorithm::MergeSort,
                n: 640,
            },
            None,
        ),
    ] {
        let data = workload_of(case.n);
        let digest = digest_of(&data);
        let r = reference_phases(case, &data, false);
        if let Some(times) = space {
            assert_eq!(r.high, times * r.input_levels, "{case:?}");
        }
        let mut at = r.staged;
        for (pass, ops) in r.phase_ops.iter().enumerate() {
            let kill_after = at + ops / 2;
            at += ops;
            let tag = format!("{case:?} stopped in pass {}", pass + 1);
            let (scratch, ckdir) = (unique_dir("scratch"), unique_dir("ck"));
            let completed = interrupted_run(
                case,
                BackendKind::File,
                &scratch,
                &ckdir,
                &data,
                digest,
                kill_after,
                false,
            );
            assert_eq!(completed, Some(pass), "{tag}");
            // A stop in the first pass leaves nothing to resume from.
            if pass > 0 {
                let (got, skipped, live, high) =
                    resumed_run(case, BackendKind::File, &scratch, &ckdir, digest, false);
                assert_eq!(got, r.out, "{tag}: resumed output differs");
                assert_eq!((skipped, live), (pass, r.phase_ops.len() - pass), "{tag}");
                assert_eq!(high, r.high, "{tag}: resumed onto other levels");
            }
            std::fs::remove_dir_all(&scratch).ok();
            std::fs::remove_dir_all(&ckdir).ok();
        }
    }
}

#[test]
fn three_pass_sorts_run_in_place_unless_a_store_is_attached() {
    // ThreePass1 and ThreePass2 at D = 4, B = 16 (M = 256), at M√M and on
    // 4,000 keys, whose short last run lacks 6 blocks. A plain run writes
    // every pass over the input, plus a 2-level tail for those blocks, and
    // returns the input as its output. With a checkpoint store attached a
    // resumed pass re-reads its source, so each pass writes regions of its
    // own and the sort holds 2.00× the input. Only the levels differ: the
    // output, the counters (blocks, steps, per-disk counts, phases) and the
    // probe stream are the same.
    let (d, b) = (4, 16);
    let cfg = PdmConfig::square(d, b);
    for algo in [Algorithm::ThreePass1, Algorithm::ThreePass2] {
        for (n, plain_levels, store_levels) in [(4096, 64, 128), (4000, 65, 131)] {
            let data = workload_of(n);
            for kind in [BackendKind::Mem, BackendKind::File] {
                let run = |store: bool| {
                    let built = StorageBuilder::new(kind, d, b).build::<u64>().unwrap();
                    let mut pdm = Pdm::with_storage(cfg, built.storage).unwrap();
                    let input = pdm.alloc_region_for_keys(n).unwrap();
                    pdm.ingest(&input, &data).unwrap();
                    pdm.reset_stats();
                    pdm.enable_probe(1 << 20);
                    let ckdir = unique_dir("in-place");
                    if store {
                        let manifest = Manifest::new(algo.name(), &cfg, n, digest_of(&data));
                        pdm.attach_checkpoint(CheckpointStore::create(&ckdir).unwrap(), manifest);
                    }
                    let rep = algo.run(&mut pdm, &input, n, 2.0).unwrap();
                    assert!(pdm.take_checkpoint_error().is_none());
                    assert_eq!(rep.output == input, !store, "{algo} {n} {kind}");
                    let out = pdm.inspect_prefix(&rep.output, n).unwrap();
                    let high = pdm.next_slot();
                    let (_, mut stats) = pdm.into_parts();
                    let probe = stats.take_probe().unwrap();
                    std::fs::remove_dir_all(&ckdir).ok();
                    (out, stats, probe, high)
                };
                let tag = format!("{algo} on {n} keys, {kind}");
                let (out, stats, probe, high) = run(false);
                let (ck_out, ck_stats, ck_probe, ck_high) = run(true);
                let mut want = data.clone();
                want.sort_unstable();
                assert_eq!(out, want, "{tag}");
                assert_eq!(ck_out, want, "{tag} with a store");
                assert_eq!(stats, ck_stats, "{tag}: the I/O moved");
                assert_eq!(probe.dropped, 0, "{tag}");
                assert_eq!(probe, ck_probe, "{tag}: the probe stream moved");
                assert_eq!((high, ck_high), (plain_levels, store_levels), "{tag}");
            }
        }
    }
}

#[test]
fn resume_refuses_a_mismatched_manifest() {
    let data = workload();
    let digest = digest_of(&data);
    let scratch = unique_dir("scratch");
    let ckdir = unique_dir("ck");
    // Interrupt mid-pass-2 so a real checkpoint exists.
    let completed = interrupted_run(
        THREE_PASS1,
        BackendKind::File,
        &scratch,
        &ckdir,
        &data,
        digest,
        200,
        false,
    )
    .expect("kill@200 should interrupt the run");
    assert!(completed > 0, "kill@200 should land after pass 1");
    let store = CheckpointStore::create(&ckdir).unwrap();
    let manifest = store.load_latest().unwrap().unwrap();
    let cfg = PdmConfig::square(D, B);
    assert!(manifest
        .check_compatible("three-pass2", &cfg, N, digest)
        .is_err());
    assert!(manifest
        .check_compatible("three-pass1", &PdmConfig::square(4, B), N, digest)
        .is_err());
    assert!(manifest
        .check_compatible("three-pass1", &cfg, N - 1, digest)
        .is_err());
    assert!(manifest
        .check_compatible("three-pass1", &cfg, N, digest ^ 1)
        .is_err());
    assert!(manifest
        .check_compatible("three-pass1", &cfg, N, digest)
        .is_ok());
    std::fs::remove_dir_all(&scratch).ok();
    std::fs::remove_dir_all(&ckdir).ok();
}

/// Torn-write sweep on both file-backed backends: a torn write persists
/// half a block but reports success, so only the checksum table can catch
/// it — and only at the next read of that block. Every outcome, in the
/// interrupted run and after resume, must be either byte-correct output or
/// a clean `Corrupt` error naming the block. Silently wrong bytes fail the
/// sweep.
#[cfg(feature = "block-checksums")]
#[test]
fn torn_writes_on_the_file_backends_surface_as_corrupt_never_wrong_bytes() {
    let data = workload();
    let digest = digest_of(&data);
    let (want, _, _) = reference_run(THREE_PASS1, &data, true);
    let cfg = PdmConfig::square(D, B);
    for kind in [BackendKind::File, BackendKind::AsyncFile] {
        let mut corrupt_seen = 0usize;
        for torn_after in [0u64, 50, 130, 210, 300, 100_000] {
            let scratch = unique_dir("torn-scratch");
            let ckdir = unique_dir("torn-ck");
            let outcome = {
                let storage = StorageBuilder::new(kind, D, B)
                    .dir(&scratch)
                    .inject_file(FileFaultMode::TornWrite(torn_after))
                    .build::<u64>()
                    .unwrap()
                    .storage;
                let mut pdm = Pdm::with_storage(cfg, storage).unwrap();
                pdm.set_overlap(true);
                let input = pdm.alloc_region_for_keys(N).unwrap();
                let store = CheckpointStore::create(&ckdir).unwrap();
                pdm.attach_checkpoint(store, fresh_manifest(&cfg, digest));
                (|| {
                    pdm.ingest(&input, &data)?;
                    let rep = pdm_sort::three_pass1(&mut pdm, &input, N)?;
                    pdm.inspect_prefix(&rep.output, N)
                })()
            };
            match outcome {
                // The torn block was overwritten before any read saw it (a
                // rewrite re-records the checksum over what was persisted),
                // or the nth op landed past the run: output must be right.
                Ok(got) => assert_eq!(got, want, "{kind} torn@{torn_after}: silently wrong bytes"),
                Err(e) => {
                    assert!(
                        matches!(e, PdmError::Corrupt { .. }),
                        "{kind} torn@{torn_after}: expected Corrupt, got: {e}"
                    );
                    corrupt_seen += 1;
                    // Resume over the surviving files + sidecars. The torn
                    // block either gets rewritten by the re-executed pass
                    // (healed — output must be byte-correct) or is read
                    // again (the sidecar must re-detect the corruption).
                    let store = CheckpointStore::create(&ckdir).unwrap();
                    if let Some(manifest) = store.load_latest().unwrap() {
                        if manifest.completed > 0 {
                            manifest
                                .check_compatible("three-pass1", &cfg, N, digest)
                                .unwrap();
                            let storage = StorageBuilder::new(kind, D, B)
                                .dir(&scratch)
                                .readback(true)
                                .build::<u64>()
                                .unwrap()
                                .storage;
                            let mut pdm = Pdm::with_storage(cfg, storage).unwrap();
                            pdm.set_overlap(true);
                            let input = pdm.alloc_region_for_keys(N).unwrap();
                            pdm.attach_checkpoint(store, manifest);
                            let resumed = (|| {
                                let rep = pdm_sort::three_pass1(&mut pdm, &input, N)?;
                                pdm.inspect_prefix(&rep.output, N)
                            })();
                            match resumed {
                                Ok(got) => assert_eq!(
                                    got, want,
                                    "{kind} torn@{torn_after}: resume produced wrong bytes"
                                ),
                                Err(e) => assert!(
                                    matches!(e, PdmError::Corrupt { .. }),
                                    "{kind} torn@{torn_after}: resume must re-detect corruption, got: {e}"
                                ),
                            }
                        }
                    }
                }
            }
            std::fs::remove_dir_all(&scratch).ok();
            std::fs::remove_dir_all(&ckdir).ok();
        }
        assert!(
            corrupt_seen >= 1,
            "{kind}: sweep never tripped a checksum — torn-write points need retuning"
        );
    }
}

#[test]
fn full_stack_transient_faults_retry_and_checkpoints_compose() {
    // The production CLI stack: FileStorage → FlakyStorage(transient) →
    // RetryingStorage, with checkpoints on. The run must complete
    // correctly, record every pass, and show healed retries.
    let data = workload();
    let digest = digest_of(&data);
    let (want, total_passes, _) = reference_run(THREE_PASS1, &data, false);
    let scratch = unique_dir("scratch");
    let ckdir = unique_dir("ck");
    let cfg = PdmConfig::square(D, B);
    let file = FileStorage::<u64>::create(&scratch, D, B).unwrap();
    let flaky = FlakyStorage::new(
        file,
        FailMode::TransientRate {
            seed: 99,
            rate_ppm: 10_000,
        },
    );
    let retrying = RetryingStorage::new(
        flaky,
        RetryPolicy {
            max_attempts: 6,
            backoff_steps: 2,
        },
    );
    let counters = retrying.counters();
    let mut pdm = Pdm::with_storage(cfg, retrying).unwrap();
    pdm.attach_retry_counters(counters.clone());
    let input = pdm.alloc_region_for_keys(N).unwrap();
    pdm.ingest(&input, &data).unwrap();
    let store = CheckpointStore::create(&ckdir).unwrap();
    pdm.attach_checkpoint(store, fresh_manifest(&cfg, digest));
    let rep = pdm_sort::three_pass1(&mut pdm, &input, N).unwrap();
    assert!(pdm.take_checkpoint_error().is_none());
    // Snapshot before `inspect_prefix`: the verification reads below go
    // through the same retrying stack and would advance the live counters
    // past the machine's last phase-boundary fold.
    let snap = counters.snapshot();
    assert!(snap.total_retries() > 0, "1% fault rate never fired");
    assert_eq!(snap.exhausted, 0);
    // Retries show up in the machine's own stats at phase boundaries.
    let folded = pdm.stats().retry.clone();
    assert_eq!(folded.reads_retried, snap.reads_retried);
    assert_eq!(folded.writes_retried, snap.writes_retried);
    assert_eq!(pdm.inspect_prefix(&rep.output, N).unwrap(), want);
    // Every pass got a durable checkpoint.
    let latest = CheckpointStore::create(&ckdir)
        .unwrap()
        .load_latest()
        .unwrap()
        .unwrap();
    assert_eq!(latest.completed, total_passes);
    assert_eq!(latest.phases.len(), total_passes);
    std::fs::remove_dir_all(&scratch).ok();
    std::fs::remove_dir_all(&ckdir).ok();
}
