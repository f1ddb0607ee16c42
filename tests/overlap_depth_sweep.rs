//! Overlap-window depth sweep: the budget shapes *when* blocks move,
//! never *which* blocks move.
//!
//! For every window budget — one block (degenerate, no lookahead beyond
//! the batch in hand), one batch (a stripe of D blocks), the default
//! (D × DEFAULT_QUEUE_DEPTH), and an effectively unbounded budget — and
//! on every backend, a sort with overlap forced on must produce
//! byte-identical output, identical pass/step counters, and an identical
//! structured probe event stream. The merge sorts' forecast refills join
//! the sweep: which runs' stripes are in flight depends on the window, the
//! stripes read do not.

use pdm_model::prelude::*;
use pdm_model::rng::SplitMix64;

const D: usize = 4;

fn workload(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut v: Vec<u64> = (0..n as u64).collect();
    rng.shuffle(&mut v);
    v
}

/// The sweep: explicit budgets plus `None` (default).
fn budgets(b: usize) -> Vec<(&'static str, Option<usize>)> {
    vec![
        ("1-block", Some(1)),
        ("1-batch", Some(D)),
        ("default", None),
        ("huge", Some(D * b * b * 64)),
    ]
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Backend {
    Mem,
    Threaded,
    AsyncFile,
}

fn make_storage(kind: Backend, b: usize) -> Box<dyn Storage<u64>> {
    match kind {
        Backend::Mem => Box::new(MemStorage::new(D, b)),
        Backend::Threaded => Box::new(ThreadedStorage::<u64>::new(D, b)),
        Backend::AsyncFile => Box::new(AsyncFileStorage::<u64>::create_temp(D, b).unwrap()),
    }
}

/// A sorter under test, on the boxed backend every leg runs.
type Sorter = fn(
    &mut Pdm<u64, Box<dyn Storage<u64>>>,
    &Region,
    usize,
) -> pdm_model::Result<pdm_sort::SortReport>;

struct Leg {
    out: Vec<u64>,
    stats: IoStats,
    probe: Box<Probe>,
    read_passes: f64,
    write_passes: f64,
}

fn run_leg(kind: Backend, b: usize, data: &[u64], window: Option<usize>, algo: Sorter) -> Leg {
    let n = data.len();
    let mut pdm = Pdm::with_storage(PdmConfig::square(D, b), make_storage(kind, b)).unwrap();
    pdm.set_overlap(true);
    pdm.set_overlap_window(window);
    let input = pdm.alloc_region_for_keys(n).unwrap();
    pdm.ingest(&input, data).unwrap();
    pdm.reset_stats();
    pdm.enable_probe(1 << 20);
    let rep = algo(&mut pdm, &input, n).unwrap();
    assert!(!rep.fell_back, "unexpected fallback in depth sweep");
    let out = pdm.inspect_prefix(&rep.output, n).unwrap();
    let (_, mut stats) = pdm.into_parts();
    let probe = stats.take_probe().expect("probe was enabled");
    Leg {
        out,
        stats,
        probe,
        read_passes: rep.read_passes,
        write_passes: rep.write_passes,
    }
}

fn assert_legs_match(label: &str, base: &Leg, got: &Leg) {
    assert_eq!(
        got.out, base.out,
        "{label}: window budget changed the sorted output"
    );
    assert_eq!(
        got.read_passes, base.read_passes,
        "{label}: read passes differ"
    );
    assert_eq!(
        got.write_passes, base.write_passes,
        "{label}: write passes differ"
    );
    assert_eq!(got.stats.blocks_read, base.stats.blocks_read, "{label}");
    assert_eq!(
        got.stats.blocks_written, base.stats.blocks_written,
        "{label}"
    );
    assert_eq!(got.stats.read_steps, base.stats.read_steps, "{label}");
    assert_eq!(got.stats.write_steps, base.stats.write_steps, "{label}");
    assert_eq!(
        got.stats.per_disk_reads, base.stats.per_disk_reads,
        "{label}"
    );
    assert_eq!(
        got.stats.per_disk_writes, base.stats.per_disk_writes,
        "{label}"
    );
    // The budget shifts *when* overlapped batches are issued, so the event
    // interleaving may differ — but every leg's stream must still replay
    // to exactly the shared counters.
    let rep = replay(got.probe.events(), D);
    assert_eq!(
        rep.blocks_read, base.stats.blocks_read,
        "{label}: replay drifted"
    );
    assert_eq!(
        rep.blocks_written, base.stats.blocks_written,
        "{label}: replay drifted"
    );
    assert_eq!(
        rep.read_steps, base.stats.read_steps,
        "{label}: replay drifted"
    );
    assert_eq!(
        rep.write_steps, base.stats.write_steps,
        "{label}: replay drifted"
    );
    assert_eq!(
        rep.per_disk_reads, base.stats.per_disk_reads,
        "{label}: replay drifted"
    );
    assert_eq!(
        rep.per_disk_writes, base.stats.per_disk_writes,
        "{label}: replay drifted"
    );
}

/// Sweep every budget on every backend against the blocking anchor. With
/// `must_overlap`, the legs on the worker-engine backends must also have
/// issued overlapped reads and writes.
fn sweep(algo_name: &str, n: usize, b: usize, must_overlap: bool, algo: Sorter) {
    let data = workload(n, 37);
    // Fixed-depth reference: the default window on the mem backend. Every
    // budget on every backend must reproduce its cost-model stream.
    let base = run_leg(Backend::Mem, b, &data, None, algo);

    // Anchor: overlap (any window) never changes the sorted output or the
    // aggregate counters relative to a fully blocking run. The *ordering*
    // of Io charges does shift — read-ahead charges reads at issue, which
    // runs ahead of consumption — so streams compare within overlap legs
    // only.
    let mut pdm =
        Pdm::with_storage(PdmConfig::square(D, b), make_storage(Backend::Mem, b)).unwrap();
    pdm.set_overlap(false);
    let input = pdm.alloc_region_for_keys(n).unwrap();
    pdm.ingest(&input, &data).unwrap();
    pdm.reset_stats();
    let rep = algo(&mut pdm, &input, n).unwrap();
    let blocking_out = pdm.inspect_prefix(&rep.output, n).unwrap();
    let (_, blocking_stats) = pdm.into_parts();
    assert_eq!(
        base.out, blocking_out,
        "{algo_name}: overlap changed the sorted output"
    );
    assert_eq!(
        (base.read_passes, base.write_passes),
        (rep.read_passes, rep.write_passes),
        "{algo_name}: overlap changed the pass counts"
    );
    assert_eq!(
        base.stats.read_steps, blocking_stats.read_steps,
        "{algo_name}"
    );
    assert_eq!(
        base.stats.write_steps, blocking_stats.write_steps,
        "{algo_name}"
    );
    assert_eq!(
        base.stats.blocks_read, blocking_stats.blocks_read,
        "{algo_name}"
    );
    assert_eq!(
        base.stats.blocks_written, blocking_stats.blocks_written,
        "{algo_name}"
    );

    for kind in [Backend::Mem, Backend::Threaded, Backend::AsyncFile] {
        for (bname, window) in budgets(b) {
            let leg = run_leg(kind, b, &data, window, algo);
            let label = format!("{algo_name}/{kind:?}/{bname}");
            assert_legs_match(&label, &base, &leg);
            if must_overlap && kind != Backend::Mem {
                let ov = leg.stats.overlap;
                assert!(ov.prefetch_batches > 0, "{label}: no overlapped read");
                assert!(ov.flush_batches > 0, "{label}: no overlapped write");
            }
        }
    }
}

#[test]
fn seven_pass_is_invariant_across_window_budgets_and_backends() {
    let b = 16;
    sweep("seven_pass", b * b * b, b, false, pdm_sort::seven_pass);
}

#[test]
fn three_pass2_is_invariant_across_window_budgets_and_backends() {
    let b = 16;
    sweep("three_pass2", b * b * b, b, false, pdm_sort::three_pass2);
}

#[test]
fn speculative_two_pass_is_invariant_across_window_budgets_and_backends() {
    // expected_two_pass's pass 2 issues speculative bucket prefetches;
    // abandoning or consuming them must never leak into the counters.
    // Its capacity at M = 256 is under a thousand keys, so N sits below
    // the three-pass sweeps'.
    let b = 16;
    sweep(
        "expected_two_pass",
        768,
        b,
        false,
        pdm_sort::expected_two_pass,
    );
}

#[test]
fn merge_sorts_are_invariant_across_window_budgets_and_backends() {
    // Fan-in 3 at D = 4, B = 16: 16 runs over 3 merge levels, so forecast
    // groups span several levels' runs.
    let b = 16;
    sweep("merge_sort", b * b * b, b, true, pdm_sort::merge_sort);
    sweep("updown_merge_sort", b * b * b, b, true, |p, r, n| {
        pdm_sort::updown_merge_sort(p, r, n)
    });
}

#[test]
fn tiny_window_still_overlaps_on_async_file() {
    // Even the degenerate one-block budget must keep the machinery live:
    // batches still flow through the read-ahead/write-behind queues (the
    // budget bounds *outstanding* blocks, not participation).
    let b = 16;
    let n = b * b * b;
    let data = workload(n, 41);
    let leg = run_leg(Backend::AsyncFile, b, &data, Some(1), |p, r, n| {
        pdm_sort::seven_pass(p, r, n)
    });
    assert!(
        leg.stats.overlap.prefetch_batches + leg.stats.overlap.flush_batches > 0,
        "one-block window disabled overlap entirely"
    );
}
