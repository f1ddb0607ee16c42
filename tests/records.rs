//! Wide-record coverage on the real-disk paths: the storage layer is
//! WIDTH-driven, never hardwired to 8-byte keys.
//!
//! `Tagged` (16-byte key–payload records) and `StrN<24>` (fixed-width
//! string keys in memcmp order) run through `FileStorage` and
//! `AsyncFileStorage` — including block sizes whose byte width defeats
//! O_DIRECT alignment, forcing the buffered fallback — and must agree
//! bit-for-bit and step-for-step with the in-memory reference. A
//! checkpointed `Tagged` run killed mid-pass must resume to output
//! byte-identical to an uninterrupted run.

use pdm_model::prelude::*;
use pdm_model::rng::SplitMix64;

fn tagged_workload(n: usize, seed: u64) -> Vec<Tagged> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut keys: Vec<u64> = (0..n as u64).collect();
    rng.shuffle(&mut keys);
    // Payload = original position: after sorting, payloads must be a
    // permutation proving every record survived intact.
    keys.into_iter()
        .enumerate()
        .map(|(i, k)| Tagged::new(k, i as u64))
        .collect()
}

fn str24_workload(n: usize, seed: u64) -> Vec<StrN<24>> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut keys: Vec<u64> = (0..n as u64).collect();
    rng.shuffle(&mut keys);
    // Zero-padded fixed-width decimal: string order == numeric order.
    keys.iter()
        .map(|k| StrN::from_str_padded(&format!("{k:020}")))
        .collect()
}

/// Sort `data` with `three_pass2` on `storage`, returning output bytes,
/// deterministic counters, and the peak of the memory accountant.
fn run_on<K: PdmKey, S: Storage<K>>(storage: S, data: &[K], b: usize) -> (Vec<K>, IoStats, usize) {
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

/// The backend-equivalence contract for one record type: mem, file and
/// async-file (both overlap legs) agree on bytes, counters and memory.
fn assert_backends_agree<K: PdmKey>(data: &[K], b: usize) {
    let n = data.len();
    let mut want = data.to_vec();
    want.sort_unstable();

    let (out_mem, stats_mem, peak_mem) = run_on(MemStorage::<K>::new(4, b), data, b);
    assert_eq!(out_mem, want, "mem reference is not sorted");

    let (out_file, stats_file, peak_file) =
        run_on(FileStorage::<K>::create_temp(4, b).unwrap(), data, b);
    assert_eq!(out_mem, out_file, "file backend output differs");
    assert_eq!(stats_mem.blocks_read, stats_file.blocks_read);
    assert_eq!(stats_mem.read_steps, stats_file.read_steps);
    assert_eq!(stats_mem.write_steps, stats_file.write_steps);
    assert_eq!(stats_mem.per_disk_reads, stats_file.per_disk_reads);
    assert_eq!(peak_mem, peak_file);

    for overlap in [false, true] {
        let storage = AsyncFileStorage::<K>::create_temp(4, b).unwrap();
        let mut pdm = Pdm::with_storage(PdmConfig::square(4, b), storage).unwrap();
        pdm.set_overlap(overlap);
        let input = pdm.alloc_region_for_keys(n).unwrap();
        pdm.ingest(&input, data).unwrap();
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
    }
}

#[test]
fn tagged_records_agree_across_file_and_async_file_backends() {
    // B = 16 ⇒ 256-byte blocks for 16-byte records: not a multiple of the
    // 4096-byte O_DIRECT alignment, so the async backend must take its
    // buffered fallback — and still match the cost model exactly.
    let b = 16usize;
    assert_backends_agree(&tagged_workload(b * b * b, 0xA11CE), b);
}

#[test]
fn str24_records_agree_across_file_and_async_file_backends() {
    // 24-byte records at B = 16 ⇒ 384-byte blocks, again misaligned.
    let b = 16usize;
    assert_backends_agree(&str24_workload(b * b * b, 0xB0B), b);
}

#[test]
fn misaligned_wide_blocks_fall_back_from_direct_io() {
    // 16-byte records at B = 16 can never satisfy O_DIRECT's alignment,
    // so the capability must report the buffered fallback...
    let s = AsyncFileStorage::<Tagged>::create_temp(2, 16).unwrap();
    assert!(!s.caps().direct_io, "256-byte blocks cannot be O_DIRECT");
    drop(s);
    // ...while B = 256 (4096-byte blocks) is alignment-eligible; whether
    // O_DIRECT actually opens depends on the filesystem, so only the
    // sort result is asserted.
    let b = 256usize;
    let n = 4 * b * 2;
    let data = tagged_workload(n, 0xD1CE);
    let mut want = data.clone();
    want.sort_unstable();
    let storage = AsyncFileStorage::<Tagged>::create_temp(4, b).unwrap();
    let mut pdm = Pdm::with_storage(PdmConfig::square(4, b), storage).unwrap();
    let input = pdm.alloc_region_for_keys(n).unwrap();
    pdm.ingest(&input, &data).unwrap();
    let rep = pdm_sort::three_pass2(&mut pdm, &input, n).unwrap();
    assert_eq!(pdm.inspect_prefix(&rep.output, n).unwrap(), want);
}

#[test]
fn tagged_sentinel_values_survive_the_async_backend() {
    // Records equal to the padding sentinels (MIN, MAX) are legitimate
    // data; block padding must never swallow or duplicate them.
    let b = 16usize;
    let n = b * b * b;
    let mut data = tagged_workload(n, 0x5E17);
    for i in 0..8 {
        data[i] = Tagged::MAX;
        data[n - 1 - i] = Tagged::MIN;
        data[64 + i] = Tagged::new(u64::MAX, i as u64);
        data[128 + i] = Tagged::new(0, i as u64 + 1);
    }
    let mut want = data.clone();
    want.sort_unstable();
    let (out, _, _) = run_on(
        AsyncFileStorage::<Tagged>::create_temp(4, b).unwrap(),
        &data,
        b,
    );
    assert_eq!(out, want, "sentinel-laden input came back altered");
    assert_eq!(
        out.iter().filter(|&&t| t == Tagged::MAX).count(),
        8,
        "MAX sentinels were swallowed or duplicated by padding"
    );
    assert_eq!(out.iter().filter(|&&t| t == Tagged::MIN).count(), 8);
}

fn digest_of(data: &[Tagged]) -> u64 {
    let mut buf = [0u8; 16];
    data.iter().fold(FNV_OFFSET, |st, k| {
        k.write_bytes(&mut buf);
        fnv1a(st, &buf)
    })
}

#[test]
fn tagged_checkpoint_resume_is_byte_identical() {
    // Kill a checkpointed Tagged sort mid-run via an injected disk death,
    // then resume from the surviving 16-byte-record files + manifest.
    const D: usize = 2;
    const B: usize = 8;
    const N: usize = 512;
    let data = tagged_workload(N, 0xC0FFEE);
    let digest = digest_of(&data);
    let cfg = PdmConfig::square(D, B);

    let mut reference = data.clone();
    reference.sort_unstable();

    let manifest = || Manifest::new("three-pass1", &cfg, N, digest);
    let unique =
        |tag: &str| std::env::temp_dir().join(format!("pdm-rec-{tag}-{}", std::process::id()));

    let mut resumed_with_progress = 0usize;
    for kill_after in [96u64, 128, 160, 192, 224, 256] {
        let scratch = unique(&format!("scratch-{kill_after}"));
        let ckdir = unique(&format!("ck-{kill_after}"));
        std::fs::remove_dir_all(&scratch).ok();
        std::fs::remove_dir_all(&ckdir).ok();

        // None: the fault fired during ingest, before any checkpoint —
        // nothing to resume. Some(false): the run survived outright.
        let interrupted = {
            let file = FileStorage::<Tagged>::create(&scratch, D, B).unwrap();
            let flaky = FlakyStorage::new(file, FailMode::DiskAfter(1, kill_after));
            let mut pdm = Pdm::with_storage(cfg, flaky).unwrap();
            let input = pdm.alloc_region_for_keys(N).unwrap();
            if pdm.ingest(&input, &data).is_err() {
                None
            } else {
                let store = CheckpointStore::create(&ckdir).unwrap();
                pdm.attach_checkpoint(store, manifest());
                Some(pdm_sort::three_pass1(&mut pdm, &input, N).is_err())
            }
        };
        if interrupted != Some(true) {
            std::fs::remove_dir_all(&scratch).ok();
            std::fs::remove_dir_all(&ckdir).ok();
            continue;
        }

        let store = CheckpointStore::create(&ckdir).unwrap();
        let m = match store.load_latest().unwrap() {
            Some(m) => m,
            // Killed before the first pass's checkpoint became durable:
            // a restart-from-scratch scenario, not a resume.
            None => {
                std::fs::remove_dir_all(&scratch).ok();
                std::fs::remove_dir_all(&ckdir).ok();
                continue;
            }
        };
        m.check_compatible("three-pass1", &cfg, N, digest).unwrap();
        if m.completed > 0 {
            resumed_with_progress += 1;
        }
        let file = FileStorage::<Tagged>::create_readback(&scratch, D, B).unwrap();
        let mut pdm = Pdm::with_storage(cfg, file).unwrap();
        let input = pdm.alloc_region_for_keys(N).unwrap();
        pdm.attach_checkpoint(store, m);
        let rep = pdm_sort::three_pass1(&mut pdm, &input, N).unwrap();
        if let Some(e) = pdm.take_checkpoint_error() {
            panic!("resume left a deferred checkpoint error: {e}");
        }
        assert_eq!(
            pdm.inspect_prefix(&rep.output, N).unwrap(),
            reference,
            "kill@{kill_after}: resumed Tagged output differs from uninterrupted run"
        );
        std::fs::remove_dir_all(&scratch).ok();
        std::fs::remove_dir_all(&ckdir).ok();
    }
    assert!(
        resumed_with_progress >= 1,
        "sweep never exercised a resume with completed passes to replay"
    );
}

/// With the `block-checksums` feature, every block read back on the
/// checksumming backends verifies a sidecar FNV over the record's full
/// WIDTH bytes — wide records included.
#[cfg(feature = "block-checksums")]
#[test]
fn wide_records_verify_checksums_on_readback() {
    let b = 16usize;
    let n = b * b * b;
    let data = tagged_workload(n, 0xC4EC);
    let storage = AsyncFileStorage::<Tagged>::create_temp(4, b).unwrap();
    assert!(storage.caps().checksums);
    let (out, stats, _) = run_on(storage, &data, b);
    let mut want = data.clone();
    want.sort_unstable();
    assert_eq!(out, want);
    let verified: u64 = stats
        .wall
        .disks
        .iter()
        .map(|dw| dw.checksums_verified)
        .sum();
    assert!(
        verified > 0,
        "no block read was checksum-verified on the async backend"
    );
}
