//! The `pdmsort report` renderer.
//!
//! `pdmsort sort --stats run.jsonl` writes a `pdm-run-v1` artifact (see
//! [`crate::artifact`]); this module reads one back and renders the
//! observability views: a per-phase pass/efficiency table, a per-disk
//! read/write heatmap, the stripe efficiency sparkline over the probe's
//! `Io` events, and a pass-budget waterfall comparing the measured passes
//! against the paper's budget for the algorithm.

use crate::artifact::{read_artifact, StatsArtifact};
use pdm_model::prelude::*;
use pdm_sort::dispatch::DEFAULT_ALPHA;
use pdm_sort::Algorithm;
use std::io::Write;

/// The table sorter an artifact's algorithm label names.
fn sorter(label: &str) -> Option<Algorithm> {
    Algorithm::ALL.into_iter().find(|a| a.to_string() == label)
}

/// The pass budget for the run in `art`: [`Algorithm::pass_bound`] at its
/// `N` and geometry, the prediction `sort` prints for `auto`. An expected
/// two-pass sort that fell back also pays three-pass2's 3 passes. Sorters
/// without a bound (radix, integer sort) are measured-only, and a paper
/// sorter has none past its capacity.
pub fn pass_budget(art: &StatsArtifact) -> Option<usize> {
    let algo = sorter(&art.algorithm)?;
    let bound = algo.pass_bound(&art.config, art.n, DEFAULT_ALPHA)?;
    let fallback = match algo {
        Algorithm::ExpectedTwoPass | Algorithm::ExpTwoPassMesh if art.fell_back => 3,
        _ => 0,
    };
    Some(bound.passes + fallback)
}

/// Load a `--stats` artifact from `path` and render it to `out`.
pub fn report_cmd(
    path: &str,
    out: &mut dyn Write,
) -> std::result::Result<(), Box<dyn std::error::Error>> {
    let file = std::io::BufReader::new(std::fs::File::open(path)?);
    let art = read_artifact(file).map_err(|e| format!("{path}: {e}"))?;
    render_report(&art, out)?;
    Ok(())
}

/// Render the full report for `art` to `out`.
pub fn render_report(art: &StatsArtifact, out: &mut dyn Write) -> std::io::Result<()> {
    let cfg = &art.config;
    let d = cfg.num_disks.max(1);
    // One pass is N/(D·B) parallel steps.
    let pass_steps = (art.n.max(1) as f64 / (d * cfg.block_size.max(1)) as f64).max(1e-9);
    let s = &art.stats;

    writeln!(
        out,
        "pdmsort report — {} on {} keys (D = {}, B = {}, M = {})",
        art.algorithm, art.n, cfg.num_disks, cfg.block_size, cfg.mem_capacity
    )?;
    writeln!(
        out,
        "totals: {} blocks read / {} written in {} + {} parallel steps \
         ({:.3} read passes, {:.3} write passes)",
        s.blocks_read,
        s.blocks_written,
        s.read_steps,
        s.write_steps,
        s.read_steps as f64 / pass_steps,
        s.write_steps as f64 / pass_steps,
    )?;
    writeln!(
        out,
        "peak memory: {} keys (limit {})",
        art.peak_mem_keys,
        cfg.mem_limit()
    )?;
    if s.blocks_read == 0 && s.blocks_written == 0 {
        writeln!(
            out,
            "no I/O: the run touched no disk blocks (empty input or a fully \
             in-memory sort); pass and efficiency figures below are vacuous"
        )?;
    }
    if art.fell_back {
        writeln!(
            out,
            "note: expected-case check failed; deterministic fallback ran"
        )?;
    }
    let rt = &s.retry;
    if rt.total_retries() > 0 || rt.exhausted > 0 {
        writeln!(
            out,
            "fault tolerance: {} reads + {} writes reissued after transient \
             faults ({} at issue time, {} at completion time), {} exhausted \
             retry budgets, {} simulated backoff steps (charged beside the \
             pass counters)",
            rt.reads_retried.saturating_add(rt.completion_reads_retried),
            rt.writes_retried
                .saturating_add(rt.completion_writes_retried),
            rt.issue_retries(),
            rt.completion_retries(),
            rt.exhausted,
            rt.backoff_steps,
        )?;
    }
    let verified = s
        .wall
        .disks
        .iter()
        .fold(0u64, |t, dw| t.saturating_add(dw.checksums_verified));
    if verified > 0 {
        let per_disk: Vec<String> = s
            .wall
            .disks
            .iter()
            .enumerate()
            .map(|(i, dw)| format!("disk {i}: {}", dw.checksums_verified))
            .collect();
        writeln!(
            out,
            "checksums verified on read completion: {verified} ({})",
            per_disk.join(", ")
        )?;
    }
    let ov = &s.overlap;
    if ov.prefetch_batches > 0 || ov.flush_batches > 0 {
        writeln!(
            out,
            "overlap: prefetch {} batches ({} hits / {} stalls), \
             flush-behind {} batches ({} hits / {} stalls)",
            ov.prefetch_batches,
            ov.prefetch_hits,
            ov.prefetch_stalls,
            ov.flush_batches,
            ov.flush_hits,
            ov.flush_stalls,
        )?;
        // Hit rate = batches already settled when the consumer asked for
        // them; 100% means the compute side never waited on the disks.
        let rate = |hits: u64, total: u64| {
            if total == 0 {
                100.0
            } else {
                hits as f64 / total as f64 * 100.0
            }
        };
        writeln!(
            out,
            "overlap efficiency: {:.0}% of prefetches and {:.0}% of flushes \
             completed before they were needed",
            rate(ov.prefetch_hits, ov.prefetch_batches),
            rate(ov.flush_hits, ov.flush_batches),
        )?;
    }

    // --- per-phase pass/efficiency table -------------------------------
    if s.phases.is_empty() {
        writeln!(out, "\nno phases recorded")?;
    } else {
        writeln!(out, "\nper-phase breakdown:")?;
        writeln!(
            out,
            "  {:<26} {:>9} {:>9} {:>8} {:>8} {:>5}  mem begin→end (peak)",
            "phase", "rd steps", "wr steps", "rd pass", "wr pass", "eff"
        )?;
        for p in &s.phases {
            let steps = p.read_steps.saturating_add(p.write_steps);
            let blocks = p.blocks_read.saturating_add(p.blocks_written);
            let eff = if steps == 0 {
                1.0
            } else {
                blocks as f64 / (steps as f64 * d as f64)
            };
            writeln!(
                out,
                "  {:<26} {:>9} {:>9} {:>8.3} {:>8.3} {:>4.0}%  {}→{} ({})",
                truncate(&p.name, 26),
                p.read_steps,
                p.write_steps,
                p.read_steps as f64 / pass_steps,
                p.write_steps as f64 / pass_steps,
                eff * 100.0,
                p.mem_begin,
                p.mem_end,
                p.mem_peak,
            )?;
        }
    }

    // --- per-disk read/write heatmap -----------------------------------
    writeln!(out, "\nper-disk I/O (blocks):")?;
    let max_rw = s
        .per_disk_reads
        .iter()
        .chain(s.per_disk_writes.iter())
        .copied()
        .max()
        .unwrap_or(0)
        .max(1) as f64;
    for i in 0..cfg.num_disks {
        let r = s.per_disk_reads.get(i).copied().unwrap_or(0);
        let w = s.per_disk_writes.get(i).copied().unwrap_or(0);
        writeln!(
            out,
            "  disk {i:>2}  R {:<20} {:>8}   W {:<20} {:>8}",
            bar(r as f64, max_rw, 20),
            r,
            bar(w as f64, max_rw, 20),
            w
        )?;
    }
    writeln!(
        out,
        "  imbalance (max/mean): reads {:.3}, writes {:.3}",
        imbalance(&s.per_disk_reads),
        imbalance(&s.per_disk_writes)
    )?;

    // --- wall-clock telemetry ------------------------------------------
    // Only rendered when the backend recorded samples (real-disk and
    // threaded runs); step-clocked artifacts skip it entirely.
    let wall = &s.wall;
    if wall.has_samples() || wall.total_stall_nanos() > 0 {
        writeln!(
            out,
            "\nwall-clock latency per disk (one sample per kernel round):"
        )?;
        writeln!(
            out,
            "  {:<5} {:<5} {:>7} {:>9} {:>9} {:>9} {:>9} {:>7}",
            "disk", "dir", "rounds", "p50", "p95", "p99", "max", "queue≤"
        )?;
        for (i, dw) in wall.disks.iter().enumerate() {
            for (dir, h) in [("read", &dw.read), ("write", &dw.write)] {
                if h.is_empty() {
                    continue;
                }
                writeln!(
                    out,
                    "  {:<5} {:<5} {:>7} {:>9} {:>9} {:>9} {:>9} {:>7}",
                    i,
                    dir,
                    h.count,
                    fmt_ns(h.p50()),
                    fmt_ns(h.p95()),
                    fmt_ns(h.p99()),
                    fmt_ns(h.max),
                    dw.queue_high_water
                )?;
            }
        }
        let u = &wall.uring;
        if u.submitted_sqes > 0 {
            writeln!(
                out,
                "  io_uring: {} SQEs over {} submits ({:.1}/call), \
                 {} CQEs over {} reap rounds ({:.1}/round)",
                u.submitted_sqes,
                u.submit_calls,
                u.submitted_sqes as f64 / u.submit_calls.max(1) as f64,
                u.reaped_cqes,
                u.reap_rounds,
                u.reaped_cqes as f64 / u.reap_rounds.max(1) as f64
            )?;
        }
        let stalls = wall.total_stall_nanos();
        if stalls > 0 {
            if wall.run_nanos > 0 {
                writeln!(
                    out,
                    "  stalls: {} blocked on in-flight reads + {} on writes \
                     ({:.1}% of the {} run)",
                    fmt_ns(wall.read_stall_nanos),
                    fmt_ns(wall.write_stall_nanos),
                    wall.stall_share() * 100.0,
                    fmt_ns(wall.run_nanos)
                )?;
            } else {
                writeln!(
                    out,
                    "  stalls: {} blocked on in-flight reads + {} on writes",
                    fmt_ns(wall.read_stall_nanos),
                    fmt_ns(wall.write_stall_nanos)
                )?;
            }
            for ps in &wall.phase_stalls {
                writeln!(
                    out,
                    "    {:<26} {} read-wait + {} write-wait",
                    truncate(&ps.name, 26),
                    fmt_ns(ps.read_nanos),
                    fmt_ns(ps.write_nanos)
                )?;
            }
        } else if wall.run_nanos > 0 {
            writeln!(
                out,
                "  stalls: none — compute never waited on in-flight I/O"
            )?;
        }
    }

    // --- stripe efficiency sparkline -----------------------------------
    let batches = art
        .events
        .iter()
        .filter(|ev| matches!(ev, ProbeEvent::Io { .. }))
        .count();
    if batches > 0 {
        writeln!(
            out,
            "\nstripe efficiency over time ({batches} I/O batches):"
        )?;
        writeln!(out, "  {}", sparkline(&art.events, d, 60))?;
    }
    if art.events_dropped > 0 {
        writeln!(
            out,
            "  ({} events past the probe cap were not recorded)",
            art.events_dropped
        )?;
    }

    // --- pass-budget waterfall -----------------------------------------
    writeln!(
        out,
        "\npass-budget waterfall (read+write passes per phase):"
    )?;
    let total_passes = (s.read_steps as f64 + s.write_steps as f64) / pass_steps;
    let mut cum = 0.0;
    for p in &s.phases {
        let pp = (p.read_steps as f64 + p.write_steps as f64) / pass_steps;
        cum += pp;
        writeln!(
            out,
            "  {:<26} {:<20} {:>6.3} (cum {:>6.3})",
            truncate(&p.name, 26),
            bar(pp, total_passes.max(1e-9), 20),
            pp,
            cum
        )?;
    }
    match pass_budget(art) {
        Some(b) => {
            let verdict = if Algorithm::within_passes(cfg, art.n, b, s.read_steps) {
                "within budget"
            } else {
                "OVER budget"
            };
            writeln!(
                out,
                "  budget: {b} read passes — measured {:.3} read + {:.3} write ({verdict})",
                art.read_passes, art.write_passes
            )?;
        }
        None => match sorter(&art.algorithm)
            .map(|a| a.capacity(cfg, DEFAULT_ALPHA))
            .filter(|&cap| art.n > cap)
        {
            Some(cap) => writeln!(
                out,
                "  budget: none (N = {} is past {}'s capacity of {cap} keys at α = {DEFAULT_ALPHA})",
                art.n, art.algorithm
            )?,
            None => writeln!(out, "  budget: none (measured-only baseline)")?,
        },
    }
    Ok(())
}

/// Human-readable duration from nanoseconds.
fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// A left-aligned bar of `value` scaled to `max` over `width` cells.
fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 || value <= 0.0 {
        return String::new();
    }
    let filled = ((value / max) * width as f64).round() as usize;
    "█".repeat(filled.clamp(1, width))
}

/// Max over mean of `counts` (1.0 = perfectly balanced; 0 when empty/idle).
fn imbalance(counts: &[u64]) -> f64 {
    let total = counts.iter().fold(0u64, |t, &c| t.saturating_add(c));
    if counts.is_empty() || total == 0 {
        return 0.0;
    }
    let mean = total as f64 / counts.len() as f64;
    *counts.iter().max().unwrap() as f64 / mean
}

/// Truncate a label to `width` characters, marking the cut with `…`.
fn truncate(s: &str, width: usize) -> String {
    if s.chars().count() <= width {
        return s.to_string();
    }
    let mut t: String = s.chars().take(width.saturating_sub(1)).collect();
    t.push('…');
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_artifact() -> StatsArtifact {
        let mut stats = IoStats::new(4);
        stats.blocks_read = 128;
        stats.blocks_written = 128;
        stats.read_steps = 32;
        stats.write_steps = 32;
        stats.per_disk_reads = vec![32, 32, 32, 32];
        stats.per_disk_writes = vec![40, 32, 32, 24];
        stats.phases = vec![
            PhaseStats {
                name: "3P2: form runs".into(),
                blocks_read: 64,
                blocks_written: 64,
                read_steps: 16,
                write_steps: 16,
                mem_begin: 0,
                mem_end: 0,
                mem_peak: 200,
            },
            PhaseStats {
                name: "3P2: merge".into(),
                blocks_read: 64,
                blocks_written: 64,
                read_steps: 16,
                write_steps: 16,
                mem_begin: 0,
                mem_end: 0,
                mem_peak: 256,
            },
        ];
        let io = |write, blocks, per_disk: [u64; 4]| ProbeEvent::Io {
            step: 0,
            write,
            blocks,
            steps: 1,
            per_disk: per_disk.to_vec(),
            phase: None,
            group: None,
        };
        StatsArtifact {
            algorithm: "ThreePass2".into(),
            n: 2048,
            config: PdmConfig::square(4, 16),
            peak_mem_keys: 256,
            fell_back: false,
            read_passes: 1.0,
            write_passes: 1.0,
            stats,
            events: vec![
                io(false, 4, [1, 1, 1, 1]),
                io(true, 2, [1, 1, 0, 0]),
                io(false, 4, [1, 1, 1, 1]),
            ],
            events_dropped: 0,
        }
    }

    #[test]
    fn pass_budget_matches_the_paper() {
        // D = 4, B = 16, M = 256 (the sample artifact's geometry), α = 2:
        // each sorter at an N inside its capacity, and past it where the
        // bound stops.
        let cases = [
            ("ThreePass1", 2048, false, Some(3)),
            ("ThreePass2", 2048, false, Some(3)),
            ("ExpectedThreePass", 1024, false, Some(3)),
            ("ExpectedTwoPass", 512, false, Some(2)),
            ("ExpectedTwoPass", 512, true, Some(5)),
            ("ExpectedTwoPass", 2048, false, None),
            ("ExpTwoPassMesh", 48, false, Some(2)),
            ("ExpTwoPassMesh", 48, true, Some(5)),
            ("ExpectedSixPass", 2048, false, Some(6)),
            ("SevenPass", 2048, false, Some(7)),
            ("InMemory", 256, false, Some(1)),
            ("InMemory", 2048, false, None),
            // 8 runs merge at fan-in M/(D·B) − 1 = 3 in two levels after
            // the run-formation pass
            ("MergeSort", 2048, false, Some(3)),
            ("UpDownMergeSort", 2048, false, Some(3)),
            ("RadixSort", 2048, false, None),
            ("IntegerSort", 2048, false, None),
        ];
        for (label, n, fell_back, want) in cases {
            let art = StatsArtifact {
                algorithm: label.into(),
                n,
                fell_back,
                ..sample_artifact()
            };
            assert_eq!(
                pass_budget(&art),
                want,
                "{label} at N = {n}, fell back = {fell_back}"
            );
        }
    }

    #[test]
    fn render_shows_phases_heatmap_sparkline_and_budget() {
        let art = sample_artifact();
        let mut buf = Vec::new();
        render_report(&art, &mut buf).unwrap();
        let txt = String::from_utf8(buf).unwrap();
        assert!(txt.contains("per-phase breakdown"), "{txt}");
        assert!(txt.contains("3P2: form runs"), "{txt}");
        assert!(txt.contains("per-disk I/O"), "{txt}");
        assert!(txt.contains("disk  0"), "{txt}");
        assert!(txt.contains("stripe efficiency over time"), "{txt}");
        assert!(txt.contains("pass-budget waterfall"), "{txt}");
        assert!(txt.contains("within budget"), "{txt}");
        // 32 steps on a 2048-key machine with D·B = 64 is exactly one pass.
        assert!(txt.contains("1.000 read passes"), "{txt}");
    }

    #[test]
    fn budget_counts_whole_steps_per_pass() {
        // The threaded-u64-7pass shape: 3,000,000 u64 keys, D = 4, B = 64,
        // which `auto` sorts with the merge sort in 4 passes. A pass takes
        // ⌈N/(D·B)⌉ = 11,719 steps where 11,718.75 are due, so its 46,876
        // read steps read as 4.0000853 passes and are within the bound.
        let cfg = PdmConfig::square(4, 64);
        let n = 3_000_000;
        assert_eq!(cfg.steps_per_pass(n), 11_719);
        for (read_steps, verdict) in [(46_876, "within budget"), (46_877, "OVER budget")] {
            let mut art = sample_artifact();
            art.algorithm = "MergeSort".into();
            art.n = n;
            art.config = cfg;
            art.stats.read_steps = read_steps;
            art.stats.write_steps = read_steps;
            art.read_passes = art.stats.read_passes(n, 4, 64);
            art.write_passes = art.read_passes;
            assert_eq!(pass_budget(&art), Some(4));
            let mut buf = Vec::new();
            render_report(&art, &mut buf).unwrap();
            let txt = String::from_utf8(buf).unwrap();
            assert!(
                txt.contains(&format!(
                    "budget: 4 read passes — measured {:.3} read",
                    art.read_passes
                )),
                "{txt}"
            );
            assert!(txt.contains(verdict), "{read_steps} steps: {txt}");
        }
    }

    #[test]
    fn render_flags_measured_only_baselines_and_dropped_trace() {
        let mut art = sample_artifact();
        art.algorithm = "RadixSort".into();
        art.events_dropped = 7;
        let mut buf = Vec::new();
        render_report(&art, &mut buf).unwrap();
        let txt = String::from_utf8(buf).unwrap();
        assert!(txt.contains("measured-only baseline"), "{txt}");
        assert!(txt.contains("7 events past the probe cap"), "{txt}");
    }

    #[test]
    fn render_names_a_paper_sorter_past_its_capacity() {
        // The sample's N = 2048 is past the expected two-pass sort's α = 2
        // capacity on M = 256: it has a bound, just not at this N.
        let mut art = sample_artifact();
        art.algorithm = "ExpectedTwoPass".into();
        let mut buf = Vec::new();
        render_report(&art, &mut buf).unwrap();
        let txt = String::from_utf8(buf).unwrap();
        assert!(
            txt.contains(
                "budget: none (N = 2048 is past ExpectedTwoPass's capacity of 832 keys at α = 2)"
            ),
            "{txt}"
        );
        assert!(!txt.contains("measured-only baseline"), "{txt}");
    }

    #[test]
    fn render_survives_zero_io_artifact() {
        // Regression: a run that never touched the disks (empty input, or a
        // sort that fit in memory) must render a "no I/O" note instead of
        // dividing by zero anywhere in the efficiency/imbalance math.
        let mut art = sample_artifact();
        art.n = 0;
        art.peak_mem_keys = 0;
        art.stats = IoStats::new(4);
        art.events.clear();
        let mut buf = Vec::new();
        render_report(&art, &mut buf).unwrap();
        let txt = String::from_utf8(buf).unwrap();
        assert!(txt.contains("no I/O"), "{txt}");
        assert!(txt.contains("no phases recorded"), "{txt}");
        assert!(
            txt.contains("imbalance (max/mean): reads 0.000, writes 0.000"),
            "{txt}"
        );
        assert!(!txt.contains("NaN") && !txt.contains("inf"), "{txt}");
    }

    #[test]
    fn render_shows_overlap_efficiency_when_batches_overlap() {
        let mut art = sample_artifact();
        art.stats.overlap.prefetch_batches = 8;
        art.stats.overlap.prefetch_hits = 6;
        art.stats.overlap.prefetch_stalls = 2;
        art.stats.overlap.flush_batches = 4;
        art.stats.overlap.flush_hits = 4;
        let mut buf = Vec::new();
        render_report(&art, &mut buf).unwrap();
        let txt = String::from_utf8(buf).unwrap();
        assert!(
            txt.contains("overlap: prefetch 8 batches (6 hits / 2 stalls)"),
            "{txt}"
        );
        assert!(
            txt.contains("overlap efficiency: 75% of prefetches and 100% of flushes"),
            "{txt}"
        );
        // ...and the line is absent entirely when nothing overlapped
        let quiet = sample_artifact();
        let mut buf = Vec::new();
        render_report(&quiet, &mut buf).unwrap();
        let txt = String::from_utf8(buf).unwrap();
        assert!(!txt.contains("overlap"), "{txt}");
    }

    #[test]
    fn render_shows_wall_latency_table_and_stall_share() {
        let mut art = sample_artifact();
        let h = LatencyHist::new();
        for ns in [50_000u64, 80_000, 120_000] {
            h.record(ns);
        }
        art.stats.wall.disks = vec![DiskWall {
            read: h.snapshot(),
            write: HistSnapshot::default(),
            queue_high_water: 7,
            checksums_verified: 0,
        }];
        art.stats.wall.read_stall_nanos = 2_000_000;
        art.stats.wall.run_nanos = 100_000_000;
        art.stats.wall.phase_stalls = vec![PhaseStall {
            name: "3P2: merge".into(),
            read_nanos: 2_000_000,
            write_nanos: 0,
        }];
        art.stats.wall.uring = UringWall {
            submit_calls: 4,
            submitted_sqes: 64,
            reap_rounds: 8,
            reaped_cqes: 64,
        };
        let mut buf = Vec::new();
        render_report(&art, &mut buf).unwrap();
        let txt = String::from_utf8(buf).unwrap();
        assert!(txt.contains("wall-clock latency per disk"), "{txt}");
        assert!(txt.contains("p50"), "{txt}");
        assert!(txt.contains("read"), "{txt}");
        assert!(txt.contains("64 SQEs over 4 submits (16.0/call)"), "{txt}");
        assert!(txt.contains("2.0% of the 100.0ms run"), "{txt}");
        assert!(txt.contains("3P2: merge"), "{txt}");
        assert!(!txt.contains("NaN") && !txt.contains("inf"), "{txt}");
        // write histogram is empty, so no write row is printed
        assert!(!txt.contains("0     write"), "{txt}");
    }

    #[test]
    fn wall_section_absent_without_samples_or_stalls() {
        let art = sample_artifact();
        let mut buf = Vec::new();
        render_report(&art, &mut buf).unwrap();
        let txt = String::from_utf8(buf).unwrap();
        assert!(!txt.contains("wall-clock latency"), "{txt}");
        assert!(!txt.contains("stalls:"), "{txt}");
    }

    #[test]
    fn render_splits_issue_and_completion_retries_and_shows_checksums() {
        let mut art = sample_artifact();
        art.stats.retry = RetrySnapshot {
            reads_retried: 3,
            writes_retried: 1,
            completion_reads_retried: 2,
            completion_writes_retried: 4,
            exhausted: 0,
            backoff_steps: 10,
            per_disk_retries: vec![5, 5, 0, 0],
        };
        art.stats.wall.disks = vec![
            DiskWall {
                read: HistSnapshot::default(),
                write: HistSnapshot::default(),
                queue_high_water: 0,
                checksums_verified: 7,
            },
            DiskWall {
                read: HistSnapshot::default(),
                write: HistSnapshot::default(),
                queue_high_water: 0,
                checksums_verified: 9,
            },
        ];
        let mut buf = Vec::new();
        render_report(&art, &mut buf).unwrap();
        let txt = String::from_utf8(buf).unwrap();
        assert!(
            txt.contains("5 reads + 5 writes reissued"),
            "issue+completion totals: {txt}"
        );
        assert!(
            txt.contains("(4 at issue time, 6 at completion time)"),
            "{txt}"
        );
        assert!(
            txt.contains("checksums verified on read completion: 16 (disk 0: 7, disk 1: 9)"),
            "{txt}"
        );
        // Both lines are absent from a quiet artifact.
        let quiet = sample_artifact();
        let mut buf = Vec::new();
        render_report(&quiet, &mut buf).unwrap();
        let txt = String::from_utf8(buf).unwrap();
        assert!(!txt.contains("fault tolerance"), "{txt}");
        assert!(!txt.contains("checksums verified"), "{txt}");
    }

    #[test]
    fn fmt_ns_picks_a_sane_unit() {
        assert_eq!(fmt_ns(0), "0ns");
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_300_000), "2.3ms");
        assert_eq!(fmt_ns(1_250_000_000), "1.25s");
    }

    #[test]
    fn bars_and_sparklines_are_bounded() {
        assert_eq!(bar(0.0, 10.0, 20), "");
        assert_eq!(bar(10.0, 10.0, 20).chars().count(), 20);
        assert_eq!(
            bar(0.001, 10.0, 20).chars().count(),
            1,
            "nonzero shows a cell"
        );
        assert_eq!(imbalance(&[2, 2, 2, 2]), 1.0);
        assert_eq!(imbalance(&[]), 0.0);
        assert_eq!(truncate("abcdef", 4), "abc…");
    }
}
