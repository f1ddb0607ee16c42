//! Orchestration: wire key files through the file-backed PDM machine.
//!
//! Every subcommand is generic over the key shape (the `CliKey` trait): the file's
//! `pdm-keys-v1` header (or its absence, meaning bare `u64`) picks the
//! monomorphized code path, so `sort`, `verify`, and `compare` handle
//! key–payload records and string keys without the caller saying anything.

use crate::args::{
    Algo, Algorithm, BackendKind, Command, Dist, Geometry, KeyKind, Overlap, OverlapWindow,
};
use crate::artifact::{write_artifact, StatsArtifact};
use crate::fingerprint::{self, Fingerprint};
use crate::keyfile;
use pdm_model::prelude::*;
use pdm_model::rng::SplitMix64;
use pdm_sort::dispatch::DEFAULT_ALPHA;
use std::io::Write;

/// A key shape the CLI can drive end-to-end: a [`PdmKey`] plus the glue
/// the subcommands need — its [`KeyKind`] tag, how `gen` maps a sampled
/// `u64` into it, and whether the rank-based radix sort applies.
trait CliKey: PdmKey {
    /// The `--key` tag and header name for this shape.
    const KIND: KeyKind;

    /// Build a key from `gen`'s distribution sample and its running record
    /// index. The mapping must be order-preserving in `sample` so every
    /// distribution keeps its shape across key types.
    fn from_sample(sample: u64, index: u64) -> Self;

    /// Run the radix sort, for shapes with a faithful integer rank.
    /// Comparison-only shapes keep this default, `UnsupportedInput`: a
    /// tagged record's rank covers its key alone, so radix would scramble
    /// equal-key payload order, and str24 keys have no integer rank at all.
    fn radix(
        _pdm: &mut Pdm<Self, Box<dyn Storage<Self>>>,
        _input: &Region,
        _n: usize,
    ) -> pdm_model::Result<pdm_sort::RadixReport> {
        Err(PdmError::UnsupportedInput(format!(
            "radix sort needs a faithful integer rank; {} records are comparison-only",
            Self::KIND
        )))
    }
}

impl CliKey for u64 {
    const KIND: KeyKind = KeyKind::U64;

    fn from_sample(sample: u64, _index: u64) -> Self {
        sample
    }

    fn radix(
        pdm: &mut Pdm<Self, Box<dyn Storage<Self>>>,
        input: &Region,
        n: usize,
    ) -> pdm_model::Result<pdm_sort::RadixReport> {
        pdm_sort::radix_sort(pdm, input, n, 64)
    }
}

impl CliKey for Tagged {
    const KIND: KeyKind = KeyKind::Tagged;

    fn from_sample(sample: u64, index: u64) -> Self {
        Tagged::new(sample, index)
    }
}

impl CliKey for StrN<24> {
    const KIND: KeyKind = KeyKind::Str24;

    fn from_sample(sample: u64, _index: u64) -> Self {
        // Zero-padded fixed-width decimal: memcmp order == numeric order,
        // so the distribution's shape survives the mapping.
        StrN::from_str_padded(&format!("{sample:020}"))
    }
}

/// Monomorphize `$body` over the key type `$K` named by a [`KeyKind`].
macro_rules! with_key_kind {
    ($kind:expr, $K:ident, $body:expr) => {
        match $kind {
            KeyKind::U64 => {
                type $K = u64;
                $body
            }
            KeyKind::Tagged => {
                type $K = Tagged;
                $body
            }
            KeyKind::Str24 => {
                type $K = StrN<24>;
                $body
            }
        }
    };
}

/// Resolve the key kind a file holds (its header, or bare-`u64`), and check
/// it against an explicit `--key` assertion if one was given.
fn resolve_kind(
    path: &str,
    expect: Option<KeyKind>,
) -> std::result::Result<KeyKind, Box<dyn std::error::Error>> {
    let meta = keyfile::read_meta(path)?;
    let kind = KeyKind::from_name(&meta.kind).ok_or_else(|| {
        format!(
            "{path} holds '{}' records ({} bytes each), which this build does not know \
             (known kinds: u64, tagged, str24)",
            meta.kind, meta.width
        )
    })?;
    if let Some(want) = expect {
        if want != kind {
            return Err(
                format!("{path} holds '{kind}' records, but --key {want} was requested").into(),
            );
        }
    }
    Ok(kind)
}

/// Top-level driver; returns a process exit code.
pub fn run(cmd: Command, out: &mut dyn Write) -> i32 {
    match dispatch(cmd, out) {
        Ok(code) => code,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            1
        }
    }
}

fn dispatch(
    cmd: Command,
    out: &mut dyn Write,
) -> std::result::Result<i32, Box<dyn std::error::Error>> {
    match cmd {
        Command::Help => {
            writeln!(out, "{}", crate::args::USAGE)?;
            Ok(0)
        }
        Command::Gen {
            n,
            out: path,
            dist,
            seed,
            key,
        } => {
            with_key_kind!(key, K, gen_typed::<K>(n, &path, dist, seed))?;
            writeln!(out, "wrote {n} {key} keys to {path}")?;
            Ok(0)
        }
        Command::Compare {
            input,
            geo,
            threads,
        } => {
            pdm_sort::kernels::configure_threads(threads)?;
            let kind = resolve_kind(&input, None)?;
            with_key_kind!(kind, K, compare::<K>(&input, geo, out))?;
            Ok(0)
        }
        Command::Verify { file, input } => {
            let kind = resolve_kind(&file, None)?;
            let (ok, n, violation) = with_key_kind!(kind, K, keyfile::check_sorted::<K>(&file))?;
            if !ok {
                writeln!(
                    out,
                    "{file}: {n} {kind} keys, NOT sorted (first violation at index {})",
                    violation.expect("an unsorted file has a first violation")
                )?;
                return Ok(1);
            }
            writeln!(out, "{file}: {n} {kind} keys, sorted ✓")?;
            let Some(input) = input else { return Ok(0) };
            let in_kind = resolve_kind(&input, None)?;
            let (_, want, in_n) = fingerprint::scan_file(&input)?;
            let (_, got, _) = fingerprint::scan_file(&file)?;
            if (in_kind, want) != (kind, got) {
                writeln!(
                    out,
                    "{file}: NOT a permutation of {input} ({in_n} {in_kind} keys): \
                     fingerprint {got}, input's {want}"
                )?;
                return Ok(1);
            }
            writeln!(out, "{file}: the records of {input} ✓ (fingerprint {got})")?;
            Ok(0)
        }
        Command::Info { geo } => {
            info(geo, out)?;
            Ok(0)
        }
        Command::Sort {
            input,
            out: output,
            geo,
            algo,
            scratch,
            stats,
            trace_out,
            checkpoint_dir,
            resume,
            inject,
            retry,
            backoff,
            threads,
            overlap,
            overlap_window,
            queue_depth,
            storage,
            key,
        } => {
            pdm_sort::kernels::configure_threads(threads)?;
            let kind = resolve_kind(&input, key)?;
            if algo == Algo::Radix && kind != KeyKind::U64 {
                return Err(format!(
                    "--algo radix sorts by integer rank, which '{kind}' records lack; \
                     use a comparison algorithm (auto, seven-pass, three-pass1, …)"
                )
                .into());
            }
            let job = SortJob {
                input: &input,
                output: &output,
                geo,
                algo,
                scratch: scratch.as_deref(),
                stats_path: stats.as_deref(),
                trace_path: trace_out.as_deref(),
                checkpoint_dir: checkpoint_dir.as_deref(),
                resume,
                inject: inject.as_deref(),
                retry,
                backoff,
                overlap,
                overlap_window,
                queue_depth,
                storage,
            };
            with_key_kind!(kind, K, sort::<K>(job, out))?;
            Ok(0)
        }
        Command::Report { stats } => {
            crate::report::report_cmd(&stats, out)?;
            Ok(0)
        }
    }
}

fn gen_typed<K: CliKey>(n: usize, path: &str, dist: Dist, seed: u64) -> std::io::Result<()> {
    let mut w = keyfile::KeyFileWriter::<K>::create(path, K::KIND.name())?;
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut index = 0u64;
    let mut keys: Vec<K> = Vec::with_capacity(keyfile::STREAM_KEYS);
    // Each distribution produces u64 samples; `from_sample` lifts them into
    // the key shape (identity for u64, so bare files are byte-stable).
    let mut emit = |w: &mut keyfile::KeyFileWriter<K>, samples: &[u64]| -> std::io::Result<()> {
        keys.clear();
        for &s in samples {
            keys.push(K::from_sample(s, index));
            index += 1;
        }
        w.write_keys(&keys)
    };
    match dist {
        Dist::Random => {
            let mut buf = vec![0u64; keyfile::STREAM_KEYS];
            let mut left = n;
            while left > 0 {
                let take = left.min(buf.len());
                for k in &mut buf[..take] {
                    *k = rng.gen::<u64>() >> 1;
                }
                emit(&mut w, &buf[..take])?;
                left -= take;
            }
        }
        Dist::Permutation => {
            // a permutation needs global state; cap at memory-friendly sizes
            let mut v: Vec<u64> = (0..n as u64).collect();
            rng.shuffle(&mut v);
            for chunk in v.chunks(keyfile::STREAM_KEYS) {
                emit(&mut w, chunk)?;
            }
        }
        Dist::Reversed => {
            let mut buf = Vec::with_capacity(keyfile::STREAM_KEYS);
            let mut next = n as u64;
            while next > 0 {
                buf.clear();
                let take = (next as usize).min(keyfile::STREAM_KEYS);
                for _ in 0..take {
                    next -= 1;
                    buf.push(next);
                }
                emit(&mut w, &buf)?;
            }
        }
        Dist::Sorted => {
            let mut buf = Vec::with_capacity(keyfile::STREAM_KEYS);
            let mut next = 0u64;
            while (next as usize) < n {
                buf.clear();
                let take = (n - next as usize).min(keyfile::STREAM_KEYS);
                for _ in 0..take {
                    buf.push(next);
                    next += 1;
                }
                emit(&mut w, &buf)?;
            }
        }
        Dist::Zipf => {
            let mut buf = vec![0u64; keyfile::STREAM_KEYS];
            let mut left = n;
            while left > 0 {
                let take = left.min(buf.len());
                for k in &mut buf[..take] {
                    *k = if rng.gen_bool(0.8) {
                        rng.gen_range(0..(1u64 << 30))
                    } else {
                        rng.gen_range(0..(1u64 << 32))
                    };
                }
                emit(&mut w, &buf[..take])?;
                left -= take;
            }
        }
        Dist::NearlySorted => {
            // Sorted 0..n with n/100 random transpositions — the workload
            // where up/down run formation shines (runs ≫ M).
            let mut v: Vec<u64> = (0..n as u64).collect();
            let swaps = (n / 100).max(1);
            if n > 1 {
                for _ in 0..swaps {
                    let i = rng.gen_range(0..n);
                    let j = rng.gen_range(0..n);
                    v.swap(i, j);
                }
            }
            for chunk in v.chunks(keyfile::STREAM_KEYS) {
                emit(&mut w, chunk)?;
            }
        }
        Dist::DupHeavy => {
            // Tiny value range: every key repeats ~64 times on average.
            let distinct = ((n / 64).max(1)) as u64;
            let mut buf = vec![0u64; keyfile::STREAM_KEYS];
            let mut left = n;
            while left > 0 {
                let take = left.min(buf.len());
                for k in &mut buf[..take] {
                    *k = rng.gen_range(0..distinct);
                }
                emit(&mut w, &buf[..take])?;
                left -= take;
            }
        }
    }
    w.finish()?;
    Ok(())
}

/// `auto`'s pick for `n` keys and why, as `sort` prints it:
/// `predicted 4 passes, seven-pass 7` names the pick's bound and the
/// runner-up's.
fn auto_pick(cfg: &PdmConfig, n: usize) -> pdm_model::Result<(Algorithm, String)> {
    let ranked = pdm_sort::rank(cfg, n, DEFAULT_ALPHA)?;
    let (pick, bound) = ranked[0];
    let mut why = format!("predicted {} passes", bound.passes);
    if bound.expected {
        why.push_str(" in expectation");
    }
    if let Some((next, next_bound)) = ranked.get(1) {
        why.push_str(&format!(", {} {next_bound}", next.name()));
    }
    Ok((pick, why))
}

/// Print each `auto` candidate's capacity and predicted passes at
/// `N = M√M` and `N = M²`, and the pick at each, refusing geometries every
/// sorter would refuse (the same checks `sort` hits).
fn info(geo: Geometry, out: &mut dyn Write) -> std::result::Result<(), Box<dyn std::error::Error>> {
    let cfg = PdmConfig::square(geo.disks, geo.b);
    cfg.validate()?;
    pdm_sort::common::require_square_cfg(&cfg)?;
    let m = cfg.mem_capacity;
    writeln!(
        out,
        "machine: D = {}, B = √M = {}, M = {m} keys ({} bytes of u64)",
        geo.disks,
        geo.b,
        m * 8
    )?;
    writeln!(
        out,
        "auto candidates (α = {DEFAULT_ALPHA}): the fewest predicted passes wins; on a tie, a \
         bound on every input beats an expected one, then this order"
    )?;
    let sizes = [("M√M", m * geo.b), ("M²", m * m)];
    let header = ("sorter", "capacity", "passes at M√M", "at M²");
    writeln!(
        out,
        "  {:<21} {:>12} {:>14} {:>14}",
        header.0, header.1, header.2, header.3
    )?;
    for a in Algorithm::CANDIDATES {
        let cap = match a.capacity(&cfg, DEFAULT_ALPHA) {
            usize::MAX => "any".to_string(),
            cap => cap.to_string(),
        };
        let [p1, p2] = sizes.map(|(_, n)| {
            a.pass_bound(&cfg, n, DEFAULT_ALPHA)
                .map_or("-".to_string(), |p| p.to_string())
        });
        writeln!(out, "  {:<21} {cap:>12} {p1:>14} {p2:>14}", a.name())?;
    }
    for (label, n) in sizes {
        let (pick, why) = auto_pick(&cfg, n)?;
        writeln!(out, "auto at N = {label} = {n}: {} ({why})", pick.name())?;
    }
    writeln!(
        out,
        "lower bound: {:.2} passes at N = M√M, {:.2} at N = M²",
        pdm_theory::av_min_passes(m * geo.b, m, geo.b),
        pdm_theory::av_min_passes(m * m, m, geo.b)
    )?;
    Ok(())
}

/// Everything `pdmsort sort` needs, bundled so the fault-tolerance flags
/// don't balloon the argument list.
struct SortJob<'a> {
    input: &'a str,
    output: &'a str,
    geo: Geometry,
    algo: Algo,
    scratch: Option<&'a str>,
    stats_path: Option<&'a str>,
    trace_path: Option<&'a str>,
    checkpoint_dir: Option<&'a str>,
    resume: bool,
    inject: Option<&'a str>,
    retry: Option<u32>,
    backoff: u64,
    overlap: Overlap,
    overlap_window: OverlapWindow,
    queue_depth: Option<usize>,
    storage: BackendKind,
}

/// A parsed `--inject` spec: either a logical fault applied by the
/// [`FlakyStorage`] wrapper, or a real-file fault armed inside the
/// file-backed base backend itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InjectSpec {
    /// Wrapper-level fault ([`StorageBuilder::inject`]).
    Logical(FailMode),
    /// In-backend file fault ([`StorageBuilder::inject_file`]); only valid
    /// with the `file` / `async-file` backends.
    File(FileFaultMode),
}

/// Parse an `--inject` spec into an [`InjectSpec`].
fn parse_inject(spec: &str) -> std::result::Result<InjectSpec, String> {
    let bad = || {
        format!(
            "bad --inject '{spec}' (nth-read:K | nth-write:K | disk:D | \
             disk-after:D:N | transient:SEED:RATE_PPM | every-nth:N | never | \
             file-transient:SEED:RATE_PPM | file-eio:N | torn-write:N | \
             fsync-fail:N)"
        )
    };
    let mut parts = spec.split(':');
    let kind = parts.next().ok_or_else(bad)?;
    let mut num = |_: &str| -> std::result::Result<u64, String> {
        parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())
    };
    let mode = match kind {
        "nth-read" => InjectSpec::Logical(FailMode::NthRead(num("k")?)),
        "nth-write" => InjectSpec::Logical(FailMode::NthWrite(num("k")?)),
        "disk" => InjectSpec::Logical(FailMode::Disk(num("d")? as usize)),
        "disk-after" => InjectSpec::Logical(FailMode::DiskAfter(num("d")? as usize, num("n")?)),
        "transient" => InjectSpec::Logical(FailMode::TransientRate {
            seed: num("seed")?,
            rate_ppm: num("rate")? as u32,
        }),
        "every-nth" => InjectSpec::Logical(FailMode::EveryNth(num("n")?)),
        "never" => InjectSpec::Logical(FailMode::Never),
        "file-transient" => InjectSpec::File(FileFaultMode::ShortRate {
            seed: num("seed")?,
            rate_ppm: num("rate")? as u32,
        }),
        "file-eio" => InjectSpec::File(FileFaultMode::Eio(num("n")?)),
        "torn-write" => InjectSpec::File(FileFaultMode::TornWrite(num("n")?)),
        "fsync-fail" => InjectSpec::File(FileFaultMode::FsyncFail(num("n")?)),
        _ => return Err(bad()),
    };
    if parts.next().is_some() {
        return Err(bad());
    }
    Ok(mode)
}

fn sort<K: CliKey>(
    job: SortJob<'_>,
    out: &mut dyn Write,
) -> std::result::Result<(), Box<dyn std::error::Error>> {
    let SortJob {
        input,
        output,
        geo,
        algo,
        ..
    } = job;
    let n = keyfile::count_keys::<K>(input)?;
    if n == 0 {
        if job.stats_path.is_some() {
            return Err("--stats records a sort's counters and probe events; \
                        an empty input has neither (0 keys)"
                .into());
        }
        keyfile::KeyFileWriter::<K>::create(output, K::KIND.name())?.finish()?;
        writeln!(out, "0 keys: wrote empty {output}")?;
        return Ok(());
    }
    let cfg = PdmConfig::square(geo.disks, geo.b);
    cfg.validate()?;
    // Arguments are checked before the checkpoint block below, which may
    // clear what an earlier run left resumable.
    let inject = job.inject.map(parse_inject).transpose()?;
    // `auto` picks before anything runs, so checkpointing can ask whether
    // its pick resumes.
    let auto = match algo {
        Algo::Auto => Some(auto_pick(&cfg, n)?),
        _ => None,
    };
    let sorter = match algo {
        Algo::Sorter(a) => Some(a),
        Algo::Auto => auto.as_ref().map(|(a, _)| *a),
        Algo::Radix => None,
    };

    // Checkpoint identity: fresh manifest, or the one the crashed run left.
    // The same read of the input gives the fingerprint a resume checks the
    // output against, since it does not stage the input.
    let mut input_fp = Fingerprint::default();
    let ckpt: Option<(CheckpointStore, Manifest)> = match job.checkpoint_dir {
        Some(dir) => {
            let Some(sorter) = sorter.filter(|a| a.deterministic()) else {
                let det: Vec<&str> = Algorithm::ALL
                    .into_iter()
                    .filter(|a| a.deterministic())
                    .map(Algorithm::name)
                    .collect();
                return Err(format!(
                    "--checkpoint-dir and --resume are only sound for the deterministic \
                     algorithms ({}), not '{}'",
                    det.join("|"),
                    sorter.map_or(algo.to_string(), |a| a.name().to_string())
                )
                .into());
            };
            let store = CheckpointStore::create(dir)?;
            let (digest, fp, _) = fingerprint::scan_file(input)?;
            input_fp = fp;
            let manifest = if job.resume {
                let m = store
                    .load_latest()?
                    .ok_or("no checkpoint found to resume from")?;
                m.check_compatible(sorter.name(), &cfg, n, digest)?;
                m
            } else {
                // Whatever an earlier run left here describes other disks:
                // a later --resume must not trust it.
                store.clear()?;
                Manifest::new(sorter.name(), &cfg, n, digest)
            };
            Some((store, manifest))
        }
        None => None,
    };
    let resuming = ckpt.as_ref().is_some_and(|(_, m)| m.completed > 0);

    // Storage stack, innermost first: base backend → fault injection →
    // transient-fault retry, assembled by the shared StorageBuilder.
    let mut builder = StorageBuilder::new(job.storage, geo.disks, geo.b).readback(job.resume);
    if let Some(dir) = job.scratch {
        builder = builder.dir(dir);
    }
    if let Some(depth) = job.queue_depth {
        builder = builder.queue_depth(depth);
    }
    match inject {
        Some(InjectSpec::Logical(mode)) => builder = builder.inject(mode),
        Some(InjectSpec::File(mode)) => builder = builder.inject_file(mode),
        None => {}
    }
    if let Some(attempts) = job.retry {
        builder = builder.retry(RetryPolicy {
            max_attempts: attempts,
            backoff_steps: job.backoff,
        });
    }
    let built = builder.build::<K>()?;
    // A torn write persists half a block and reports success: only block
    // checksums notice it, so without them the run would exit 0 with wrong
    // output.
    let torn = matches!(inject, Some(InjectSpec::File(FileFaultMode::TornWrite(_))));
    if torn && !built.caps.checksums {
        return Err(
            "--inject torn-write needs block checksums to detect the torn block; \
                    build with the block-checksums feature"
                .into(),
        );
    }
    let retry_counters = built.retry_counters;

    // Overlap resolves against the *assembled* stack's caps. Wrapper
    // layers (injection, retry) pass the base backend's overlap through —
    // they apply their policies at issue time and the async-file backend
    // heals transient completions in its workers — so `auto` keeps latency
    // hiding even under the full robustness stack. `on` still works
    // anywhere: backends without support complete eagerly, with identical
    // accounting and output.
    let native_overlap = built.caps.overlap;
    let mut pdm = Pdm::with_storage(cfg, built.storage)?;
    pdm.set_overlap(match job.overlap {
        Overlap::Auto => native_overlap,
        Overlap::On => true,
        Overlap::Off => false,
    });
    // The window shapes *when* blocks move, never *which* blocks move: pass
    // counts, probe streams, and output bytes are identical for any budget.
    match job.overlap_window {
        OverlapWindow::Default => {}
        OverlapWindow::Blocks(n) => pdm.set_overlap_window(Some(n)),
    }
    if let Some(c) = &retry_counters {
        pdm.attach_retry_counters(c.clone());
    }
    if job.stats_path.is_some() {
        pdm.enable_probe(1 << 20);
    }
    // Wall-clock trace: the sink outlives the machine (spans live in the
    // Arc), so the trace file can be written after the sort regardless of
    // whether the stats artifact consumes the machine.
    let span_sink = job
        .trace_path
        .map(|_| std::sync::Arc::new(SpanSink::new(1 << 20)));
    if let Some(sink) = &span_sink {
        pdm.attach_span_sink(std::sync::Arc::clone(sink));
    }
    let region = pdm.alloc_region_for_keys(n)?;

    // Stage the input file onto the disks (the model's "input resides on
    // the disks"; not charged). On resume the disks already hold it.
    if !resuming {
        input_fp = stage(&mut pdm, &region, input, n)?;
    }

    if let Some((store, manifest)) = ckpt {
        if resuming {
            writeln!(
                out,
                "resuming: {} pass(es) already complete ({}); replaying without I/O",
                manifest.completed,
                manifest.phases.join(", ")
            )?;
        }
        pdm.attach_checkpoint(store, manifest);
    }
    let checkpointing = job.checkpoint_dir.is_some();

    let t0 = std::time::Instant::now();
    let (out_region, label, fell_back, read_passes, write_passes) = match algo {
        Algo::Auto => {
            let (pick, why) = auto.expect("auto picked above");
            let rep = pick.run(&mut pdm, &region, n, DEFAULT_ALPHA)?;
            writeln!(out, "algorithm: {} (auto; {why})", rep.algorithm)?;
            summarize(out, rep, &pdm, &region)?
        }
        Algo::Sorter(a) => {
            let rep = a.run(&mut pdm, &region, n, DEFAULT_ALPHA)?;
            summarize(out, rep, &pdm, &region)?
        }
        Algo::Radix => {
            let rep = K::radix(&mut pdm, &region, n)?;
            writeln!(
                out,
                "rounds: {} (predicted {:.2}), segments: {}",
                rep.max_rounds,
                pdm_sort::radix_sort::predicted_rounds(&cfg, n, 64),
                rep.segments_sorted
            )?;
            summarize(out, rep.report, &pdm, &region)?
        }
    };
    let elapsed = t0.elapsed();
    // Stamp the run's wall time so stall shares have a denominator; like
    // all of WallStats this never feeds back into the step counters.
    pdm.stats_mut().wall.run_nanos = elapsed.as_nanos() as u64;

    // A deferred checkpoint failure (manifest write error, or frontier
    // drift on resume) makes the recovery state — and on drift, the output
    // itself — untrustworthy. Surface it before writing anything.
    if let Some(e) = pdm.take_checkpoint_error() {
        return Err(format!("checkpoint failure: {e}").into());
    }
    if checkpointing {
        writeln!(
            out,
            "checkpoint: {} pass(es) recorded complete ({} replayed, {} executed live)",
            pdm.completed_phases(),
            pdm.skipped_phases(),
            pdm.stats().phases.len()
        )?;
    }
    if let Some(c) = &retry_counters {
        let snap = c.snapshot();
        if snap.total_retries() + snap.exhausted > 0 {
            writeln!(
                out,
                "retries: {} reads + {} writes reissued, {} exhausted, \
                 {} simulated backoff steps",
                snap.reads_retried + snap.completion_reads_retried,
                snap.writes_retried + snap.completion_writes_retried,
                snap.exhausted,
                snap.backoff_steps
            )?;
            if snap.completion_retries() > 0 {
                writeln!(
                    out,
                    "  of which at completion (async workers): {} reads + {} writes",
                    snap.completion_reads_retried, snap.completion_writes_retried
                )?;
            }
        }
    }

    // Stream the sorted region back out to the output file, fingerprinting
    // what it holds.
    let mut w = keyfile::KeyFileWriter::<K>::create(output, K::KIND.name())?;
    let mut output_fp = Fingerprint::default();
    {
        let b = cfg.block_size;
        let mut remaining = n;
        let mut blk = 0usize;
        let mut buf: Vec<K> = Vec::new();
        let chunk_blocks = (keyfile::STREAM_KEYS / b).max(1);
        while remaining > 0 {
            buf.clear();
            let take = chunk_blocks.min(out_region.len_blocks() - blk);
            let sub = out_region.sub(blk, take)?;
            buf = pdm.inspect(&sub)?;
            let valid = remaining.min(take * b);
            output_fp.add_keys(&buf[..valid]);
            w.write_keys(&buf[..valid])?;
            remaining -= valid;
            blk += take;
        }
    }
    let written = w.finish()?;
    if output_fp != input_fp {
        return Err(format!(
            "{output} is not a permutation of {input}: its records fingerprint to \
             {output_fp}, the input's to {input_fp}"
        )
        .into());
    }
    writeln!(
        out,
        "{label}: {written} keys → {output} in {:.2?} (simulation wall clock)",
        elapsed
    )?;
    if let (Some(path), Some(sink)) = (job.trace_path, &span_sink) {
        let spans = crate::trace::write_chrome_trace(path, sink)?;
        writeln!(
            out,
            "{spans} trace spans written to {path} ({} dropped past the cap); \
             open in Perfetto or chrome://tracing",
            sink.dropped()
        )?;
    }
    if let Some(path) = job.stats_path {
        // The machine is finished, so the artifact takes ownership of the
        // counters and the probe's events instead of copying them.
        let peak_mem_keys = pdm.mem().peak();
        let (_storage, mut stats) = pdm.into_parts();
        let probe = stats.take_probe().ok_or("probe unexpectedly disabled")?;
        let events_dropped = probe.dropped;
        let art = StatsArtifact {
            algorithm: label,
            n,
            config: cfg,
            peak_mem_keys,
            fell_back,
            read_passes,
            write_passes,
            stats,
            events: probe.into_events(),
            events_dropped,
        };
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        write_artifact(&art, &mut f)?;
        f.flush()?;
        writeln!(
            out,
            "stats written to {path}: {} probe events, {events_dropped} dropped past the cap \
             (render with `pdmsort report {path}`)",
            art.events.len()
        )?;
    }
    Ok(())
}

/// Stage a key file onto the disks, block-aligned, into `region` (the
/// model's "input resides on the disks"; not charged to any pass), and
/// return the fingerprint of its records. `n` is the key count the region
/// was sized from; a file that no longer holds exactly `n` keys fails the
/// run instead of sorting missing or stray keys.
fn stage<K: PdmKey, S: Storage<K>>(
    pdm: &mut Pdm<K, S>,
    region: &Region,
    input: &str,
    n: usize,
) -> std::result::Result<Fingerprint, Box<dyn std::error::Error>> {
    let b = pdm.cfg().block_size;
    let mut off_blocks = 0usize;
    let mut seen = 0usize;
    let mut pending: Vec<K> = Vec::with_capacity(keyfile::STREAM_KEYS + b);
    let mut fp = Fingerprint::default();
    keyfile::for_each_chunk::<K>(input, |keys| {
        seen += keys.len();
        if seen > n {
            return Ok(()); // the file grew: counted, refused below
        }
        fp.add_keys(keys);
        pending.extend_from_slice(keys);
        let full = pending.len() / b * b;
        if full > 0 {
            let sub = region
                .sub(off_blocks, full / b)
                .map_err(std::io::Error::other)?;
            pdm.ingest(&sub, &pending[..full])
                .map_err(std::io::Error::other)?;
            off_blocks += full / b;
            pending.drain(..full);
        }
        Ok(())
    })?;
    if seen != n {
        return Err(format!("input changed while staging: counted {n} keys, read {seen}").into());
    }
    if !pending.is_empty() {
        let sub = region.sub(off_blocks, 1)?;
        pdm.ingest(&sub, &pending)?;
    }
    Ok(fp)
}

fn compare<K: CliKey>(
    input: &str,
    geo: Geometry,
    out: &mut dyn Write,
) -> std::result::Result<(), Box<dyn std::error::Error>> {
    let n = keyfile::count_keys::<K>(input)?;
    if n == 0 {
        writeln!(out, "empty input")?;
        return Ok(());
    }
    let cfg = PdmConfig::square(geo.disks, geo.b);
    cfg.validate()?;
    writeln!(
        out,
        "comparing algorithms on {n} {} keys (D = {}, B = √M = {}, M = {}):",
        K::KIND,
        geo.disks,
        geo.b,
        cfg.mem_capacity
    )?;
    match auto_pick(&cfg, n) {
        Ok((a, why)) => writeln!(out, "auto would pick: {} ({why})", a.name())?,
        Err(e) => writeln!(out, "auto: not applicable ({e})")?,
    }
    writeln!(
        out,
        "{:<20} {:>10} {:>12} {:>13} {:>10} {:>10}",
        "algorithm", "predicted", "read passes", "write passes", "peak mem", "wall"
    )?;
    // One row per comparison sorter in the table, then radix.
    let rows = Algorithm::ALL
        .into_iter()
        .filter(|a| !a.ranked())
        .map(|a| (a.name(), Algo::Sorter(a)))
        .chain([("radix (64-bit)", Algo::Radix)]);
    let passes = |rep: pdm_sort::SortReport| (rep.read_passes, rep.write_passes, rep.peak_mem);
    for (name, algo) in rows {
        let built = StorageBuilder::new(BackendKind::File, geo.disks, geo.b).build::<K>()?;
        let mut pdm = Pdm::with_storage(cfg, built.storage)?;
        let region = pdm.alloc_region_for_keys(n)?;
        stage(&mut pdm, &region, input, n)?;
        pdm.reset_stats();
        let t0 = std::time::Instant::now();
        let got = match algo {
            Algo::Sorter(a) => a.run(&mut pdm, &region, n, DEFAULT_ALPHA).map(passes),
            // Comparison-only key shapes report "not applicable" here.
            Algo::Radix => K::radix(&mut pdm, &region, n).map(|rep| passes(rep.report)),
            Algo::Auto => unreachable!("auto is reported above the table"),
        };
        let predicted = match algo {
            Algo::Sorter(a) => a.pass_bound(&cfg, n, DEFAULT_ALPHA),
            _ => None,
        };
        let predicted = predicted.map_or("-".to_string(), |p| p.to_string());
        match got {
            Ok((rp, wp, peak)) => {
                writeln!(
                    out,
                    "{:<20} {:>10} {:>12.3} {:>13.3} {:>10} {:>9.0?}",
                    name,
                    predicted,
                    rp,
                    wp,
                    peak,
                    t0.elapsed()
                )?;
            }
            Err(e) => {
                writeln!(out, "{:<20} not applicable ({e})", name)?;
            }
        }
    }
    Ok(())
}

/// Print a sort report's pass, memory and disk-space lines, and flatten it
/// into what the rest of `sort` needs: output region, label, fallback
/// flag, passes. Disk space is the slot high-water mark per disk, also as
/// a multiple of the levels the staged `input` takes.
fn summarize<K: PdmKey, S: Storage<K>>(
    out: &mut dyn Write,
    rep: pdm_sort::SortReport,
    pdm: &Pdm<K, S>,
    input: &Region,
) -> std::io::Result<(Region, String, bool, f64, f64)> {
    writeln!(out, "read passes:  {:.3}", rep.read_passes)?;
    writeln!(out, "write passes: {:.3}", rep.write_passes)?;
    writeln!(
        out,
        "peak memory:  {} keys (limit {})",
        rep.peak_mem,
        pdm.cfg().mem_limit()
    )?;
    let input_slots = input.len_blocks().div_ceil(pdm.cfg().num_disks);
    writeln!(
        out,
        "disk space:   {} slots per disk ({:.2}× the input)",
        pdm.next_slot(),
        pdm.next_slot() as f64 / input_slots as f64
    )?;
    if rep.fell_back {
        writeln!(
            out,
            "note: online check detected a bad input; deterministic fallback ran"
        )?;
    }
    Ok((
        rep.output,
        rep.algorithm.to_string(),
        rep.fell_back,
        rep.read_passes,
        rep.write_passes,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("pdmcli-run-{}-{}", std::process::id(), name))
            .to_string_lossy()
            .into_owned()
    }

    fn run_args(args: &[&str]) -> (i32, String) {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let cmd = parse(&argv).unwrap();
        let mut buf = Vec::new();
        let code = run(cmd, &mut buf);
        (code, String::from_utf8(buf).unwrap())
    }

    #[test]
    fn gen_sort_verify_pipeline() {
        let inp = tmp("in.keys");
        let outp = tmp("out.keys");
        let (c, _) = run_args(&["gen", "5000", &inp, "--dist", "permutation"]);
        assert_eq!(c, 0);
        let (c, log) = run_args(&["sort", &inp, &outp, "--disks", "2", "--b", "16"]);
        assert_eq!(c, 0, "{log}");
        assert!(log.contains("read passes"), "{log}");
        let (c, log) = run_args(&["verify", &outp]);
        assert_eq!(c, 0, "{log}");
        assert!(log.contains("sorted ✓"));
        // and the input, being a permutation, is almost surely not sorted
        let (c, _) = run_args(&["verify", &inp]);
        assert_eq!(c, 1);
        std::fs::remove_file(&inp).ok();
        std::fs::remove_file(&outp).ok();
    }

    #[test]
    fn forced_algorithms_agree() {
        let inp = tmp("in2.keys");
        let (c, _) = run_args(&["gen", "4096", &inp, "--dist", "random", "--seed", "9"]);
        assert_eq!(c, 0);
        let mut outputs = Vec::new();
        for algo in [
            "three-pass1",
            "three-pass2",
            "seven-pass",
            "radix",
            "mergesort",
        ] {
            let outp = tmp(&format!("out-{algo}.keys"));
            let (c, log) = run_args(&[
                "sort", &inp, &outp, "--disks", "2", "--b", "16", "--algo", algo,
            ]);
            assert_eq!(c, 0, "{algo}: {log}");
            outputs.push(std::fs::read(&outp).unwrap());
            std::fs::remove_file(&outp).ok();
        }
        for o in &outputs[1..] {
            assert_eq!(o, &outputs[0]);
        }
        std::fs::remove_file(&inp).ok();
    }

    #[test]
    fn every_storage_backend_sorts_to_identical_output() {
        let inp = tmp("st-in.keys");
        let (c, _) = run_args(&["gen", "4096", &inp, "--dist", "random", "--seed", "11"]);
        assert_eq!(c, 0);
        let mut outputs = Vec::new();
        for backend in ["file", "mem", "threaded", "async-file"] {
            let outp = tmp(&format!("st-out-{backend}.keys"));
            let (c, log) = run_args(&[
                "sort",
                &inp,
                &outp,
                "--disks",
                "2",
                "--b",
                "16",
                "--storage",
                backend,
            ]);
            assert_eq!(c, 0, "{backend}: {log}");
            outputs.push(std::fs::read(&outp).unwrap());
            std::fs::remove_file(&outp).ok();
        }
        for o in &outputs[1..] {
            assert_eq!(o, &outputs[0], "backends must be interchangeable");
        }
        std::fs::remove_file(&inp).ok();
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let inp = tmp("empty.keys");
        let outp = tmp("empty-out.keys");
        std::fs::write(&inp, []).unwrap();
        let (c, log) = run_args(&["sort", &inp, &outp]);
        assert_eq!(c, 0, "{log}");
        assert_eq!(std::fs::metadata(&outp).unwrap().len(), 0);
        std::fs::remove_file(&inp).ok();
        std::fs::remove_file(&outp).ok();
    }

    #[test]
    fn stats_on_an_empty_input_is_refused_rather_than_left_unwritten() {
        let (inp, outp, statsp) = (tmp("es.keys"), tmp("es-out.keys"), tmp("es.jsonl"));
        std::fs::write(&inp, []).unwrap();
        let (c, log) = run_args(&["sort", &inp, &outp, "--stats", &statsp]);
        assert_eq!(c, 1, "{log}");
        assert!(log.contains("--stats") && log.contains("0 keys"), "{log}");
        assert!(!std::path::Path::new(&statsp).exists());
        std::fs::remove_file(&inp).ok();
    }

    #[test]
    fn verify_input_catches_one_changed_key() {
        let (inp, outp, bad) = (tmp("vi-in.keys"), tmp("vi-out.keys"), tmp("vi-bad.keys"));
        run_args(&["gen", "5000", &inp, "--dist", "permutation", "--seed", "4"]);
        let (c, log) = run_args(&["sort", &inp, &outp, "--disks", "2", "--b", "16"]);
        assert_eq!(c, 0, "{log}");
        let (c, log) = run_args(&["verify", &outp, "--input", &inp]);
        assert_eq!(c, 0, "{log}");
        assert!(log.contains("the records of"), "{log}");
        // Key 1000 becomes 1001: still sorted, no longer the input's keys.
        let mut bytes = std::fs::read(&outp).unwrap();
        bytes[1000 * 8..1001 * 8].copy_from_slice(&1001u64.to_le_bytes());
        std::fs::write(&bad, &bytes).unwrap();
        let (c, log) = run_args(&["verify", &bad]);
        assert_eq!(c, 0, "order alone cannot tell: {log}");
        let (c, log) = run_args(&["verify", &bad, "--input", &inp]);
        assert_eq!(c, 1, "{log}");
        assert!(log.contains("NOT a permutation"), "{log}");
        for f in [&inp, &outp, &bad] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn auto_resumes_its_merge_sort_and_checkpoints_only_what_can_resume() {
        let (inp, clean, resumed) = (tmp("ar-in.keys"), tmp("ar-clean.keys"), tmp("ar-res.keys"));
        let (scratch, ckdir, refused) = (tmp("ar-scratch"), tmp("ar-manifests"), tmp("ar-refused"));
        // 20000 keys on D = 2, √M = 16: `auto` picks the merge sort, four
        // passes of 1250 blocks read and 1250 written after 1250 staged.
        run_args(&["gen", "20000", &inp, "--dist", "permutation", "--seed", "5"]);
        let geo = ["--disks", "2", "--b", "16"];
        let (c, log) = run_args(&[&["sort", &inp, &clean][..], &geo].concat());
        assert_eq!(c, 0, "{log}");
        assert!(log.contains("MergeSort (auto"), "{log}");
        // The merge levels write over the input and over the runs of the
        // level before: two levels' worth of disk space, the input's included.
        let space = "disk space:   1250 slots per disk (2.00× the input)";
        assert!(log.contains(space), "{log}");
        let ck = ["--scratch", &scratch, "--checkpoint-dir", &ckdir];
        let (c, log) = run_args(
            &[
                &["sort", &inp, &resumed][..],
                &geo,
                &ck,
                &["--inject", "disk-after:1:9000"],
            ]
            .concat(),
        );
        assert_eq!(c, 1, "the injected crash must fail the run: {log}");
        let (c, log) =
            run_args(&[&["sort", &inp, &resumed][..], &geo, &ck, &["--resume"]].concat());
        assert_eq!(c, 0, "{log}");
        assert!(log.contains("resuming: 3 pass(es)"), "{log}");
        assert!(
            log.contains(space),
            "checkpointed runs reuse levels too: {log}"
        );
        assert_eq!(
            std::fs::read(&resumed).unwrap(),
            std::fs::read(&clean).unwrap()
        );
        // A sorter that cannot resume is refused before anything runs.
        let (c, log) = run_args(
            &[
                &["sort", &inp, &resumed][..],
                &geo,
                &[
                    "--algo",
                    "updown-mergesort",
                    "--scratch",
                    &scratch,
                    "--checkpoint-dir",
                    &refused,
                ],
            ]
            .concat(),
        );
        assert_eq!(c, 1, "{log}");
        assert!(
            log.contains("deterministic") && log.contains("updown-mergesort"),
            "{log}"
        );
        assert!(
            !std::path::Path::new(&refused).exists(),
            "the refused run made {refused}"
        );
        for f in [&inp, &clean, &resumed] {
            std::fs::remove_file(f).ok();
        }
        std::fs::remove_dir_all(&scratch).ok();
        std::fs::remove_dir_all(&ckdir).ok();
    }

    /// The run artifact at `path`, as `report` reads it.
    fn artifact(path: &str) -> crate::artifact::StatsArtifact {
        let f = std::io::BufReader::new(std::fs::File::open(path).unwrap());
        crate::artifact::read_artifact(f).unwrap()
    }

    #[test]
    fn stats_json_is_written_and_parses() {
        let inp = tmp("sj-in.keys");
        let outp = tmp("sj-out.keys");
        let statsp = tmp("sj.jsonl");
        run_args(&["gen", "2000", &inp, "--dist", "permutation"]);
        let (c, log) = run_args(&[
            "sort", &inp, &outp, "--disks", "2", "--b", "16", "--stats", &statsp,
        ]);
        assert_eq!(c, 0, "{log}");
        let txt = std::fs::read_to_string(&statsp).unwrap();
        assert!(
            txt.starts_with(r#"{"rec":"run","format":"pdm-run-v1","#),
            "{txt}"
        );
        let art = artifact(&statsp);
        assert_eq!(art.n, 2000);
        assert!(art.stats.blocks_read > 0);
        assert_eq!(art.config.block_size, 16);
        for f in [&inp, &outp, &statsp] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn events_stream_is_written_and_replays_to_the_stats_counters() {
        let inp = tmp("ev-in.keys");
        let outp = tmp("ev-out.keys");
        let statsp = tmp("ev.jsonl");
        run_args(&["gen", "2000", &inp, "--dist", "permutation", "--seed", "3"]);
        let (c, log) = run_args(&[
            "sort", &inp, &outp, "--disks", "4", "--b", "16", "--stats", &statsp,
        ]);
        assert_eq!(c, 0, "{log}");
        assert!(
            log.contains("probe events, 0 dropped past the cap"),
            "{log}"
        );

        // the artifact's own events replay to its own exact counters
        let art = artifact(&statsp);
        assert!(!art.events.is_empty());
        let rep = replay(&art.events, art.config.num_disks);
        assert_eq!(rep.blocks_read, art.stats.blocks_read);
        assert_eq!(rep.blocks_written, art.stats.blocks_written);
        assert_eq!(rep.read_steps, art.stats.read_steps);
        assert_eq!(rep.write_steps, art.stats.write_steps);
        assert_eq!(rep.per_disk_reads, art.stats.per_disk_reads);
        assert_eq!(rep.per_disk_writes, art.stats.per_disk_writes);
        assert_eq!(rep.phases.len(), art.stats.phases.len());
        for f in [&inp, &outp, &statsp] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn report_renders_tables_for_every_forced_algorithm() {
        let inp = tmp("rp-in.keys");
        run_args(&["gen", "4096", &inp, "--dist", "random", "--seed", "5"]);
        for algo in [
            "three-pass1",
            "three-pass2",
            "seven-pass",
            "radix",
            "mergesort",
        ] {
            let outp = tmp(&format!("rp-out-{algo}.keys"));
            let statsp = tmp(&format!("rp-{algo}.jsonl"));
            let (c, log) = run_args(&[
                "sort", &inp, &outp, "--disks", "2", "--b", "16", "--algo", algo, "--stats",
                &statsp,
            ]);
            assert_eq!(c, 0, "{algo}: {log}");
            let (c, rendered) = run_args(&["report", &statsp]);
            assert_eq!(c, 0, "{algo}: {rendered}");
            assert!(rendered.contains("pdmsort report"), "{algo}: {rendered}");
            assert!(rendered.contains("per-disk I/O"), "{algo}: {rendered}");
            assert!(
                rendered.contains("stripe efficiency over time"),
                "{algo}: {rendered}"
            );
            assert!(
                rendered.contains("pass-budget waterfall"),
                "{algo}: {rendered}"
            );
            if algo != "mergesort" {
                assert!(
                    rendered.contains("per-phase breakdown"),
                    "{algo}: {rendered}"
                );
            }
            std::fs::remove_file(&outp).ok();
            std::fs::remove_file(&statsp).ok();
        }
        std::fs::remove_file(&inp).ok();
    }

    #[test]
    fn stats_artifact_exposes_the_sort_report_fields() {
        let inp = tmp("sa-in.keys");
        let outp = tmp("sa-out.keys");
        let statsp = tmp("sa.jsonl");
        run_args(&["gen", "2000", &inp, "--dist", "permutation"]);
        let (c, log) = run_args(&[
            "sort", &inp, &outp, "--disks", "2", "--b", "16", "--stats", &statsp,
        ]);
        assert_eq!(c, 0, "{log}");
        // the header line carries what check_golden.py reads
        let txt = std::fs::read_to_string(&statsp).unwrap();
        let head = crate::artifact::Record::parse(1, txt.lines().next().unwrap()).unwrap();
        assert!(head.field::<String>("algorithm").is_ok());
        assert!(head.field::<f64>("read_passes").unwrap() > 0.0);
        assert!(head.field::<f64>("write_passes").unwrap() > 0.0);
        assert!(head.field::<bool>("fell_back").is_ok());
        assert!(head.field::<u64>("peak_mem_keys").unwrap() > 0);
        assert!(!artifact(&statsp).stats.phases.is_empty());
        for f in [&inp, &outp, &statsp] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn stats_and_report_run_on_every_backend_auto_and_forced() {
        let inp = tmp("sb-in.keys");
        run_args(&["gen", "4096", &inp, "--dist", "random", "--seed", "43"]);
        for backend in ["mem", "file", "threaded", "async-file"] {
            for algo in ["auto", "seven-pass"] {
                let (outp, statsp) = (tmp("sb-out.keys"), tmp("sb.jsonl"));
                let (c, log) = run_args(&[
                    "sort",
                    &inp,
                    &outp,
                    "--disks",
                    "2",
                    "--b",
                    "16",
                    "--storage",
                    backend,
                    "--algo",
                    algo,
                    "--stats",
                    &statsp,
                ]);
                assert_eq!(c, 0, "{backend}/{algo}: {log}");
                let (c, rendered) = run_args(&["report", &statsp]);
                assert_eq!(c, 0, "{backend}/{algo}: {rendered}");
                let read_passes = read_passes_of(&log);
                assert!(
                    rendered.contains(&format!("measured {read_passes:.3} read")),
                    "{backend}/{algo}: {rendered}"
                );
                std::fs::remove_file(&outp).ok();
                std::fs::remove_file(&statsp).ok();
            }
        }
        std::fs::remove_file(&inp).ok();
    }

    #[test]
    fn report_of_a_fixed_mem_run_is_pinned() {
        let (inp, outp, statsp) = (tmp("gold-in.keys"), tmp("gold-out.keys"), tmp("gold.jsonl"));
        run_args(&["gen", "4096", &inp, "--dist", "reversed"]);
        let (c, log) = run_args(&[
            "sort",
            &inp,
            &outp,
            "--disks",
            "4",
            "--b",
            "16",
            "--storage",
            "mem",
            "--algo",
            "three-pass2",
            "--stats",
            &statsp,
        ]);
        assert_eq!(c, 0, "{log}");
        let (c, rendered) = run_args(&["report", &statsp]);
        assert_eq!(c, 0, "{rendered}");
        let want = "\
pdmsort report — ThreePass2 on 4096 keys (D = 4, B = 16, M = 256)
totals: 768 blocks read / 768 written in 192 + 192 parallel steps (3.000 read passes, 3.000 write passes)
peak memory: 512 keys (limit 640)

per-phase breakdown:
  phase                       rd steps  wr steps  rd pass  wr pass   eff  mem begin→end (peak)
  3P2: runs+unshuffle               64        64    1.000    1.000  100%  0→0 (512)
  3P2: column merges                64        64    1.000    1.000  100%  0→0 (512)
  3P2: shuffle+cleanup              64        64    1.000    1.000  100%  0→0 (512)

per-disk I/O (blocks):
  disk  0  R ████████████████████      192   W ████████████████████      192
  disk  1  R ████████████████████      192   W ████████████████████      192
  disk  2  R ████████████████████      192   W ████████████████████      192
  disk  3  R ████████████████████      192   W ████████████████████      192
  imbalance (max/mean): reads 1.000, writes 1.000

stripe efficiency over time (96 I/O batches):
  ████████████████████████████████████████████████████████████

pass-budget waterfall (read+write passes per phase):
  3P2: runs+unshuffle        ███████               2.000 (cum  2.000)
  3P2: column merges         ███████               2.000 (cum  4.000)
  3P2: shuffle+cleanup       ███████               2.000 (cum  6.000)
  budget: 3 read passes — measured 3.000 read + 3.000 write (within budget)
";
        assert_eq!(rendered, want);
        for f in [&inp, &outp, &statsp] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn report_refuses_a_stats_file_from_an_older_build() {
        let legacy = tmp("legacy.json");
        std::fs::write(
            &legacy,
            "{\n  \"algorithm\": \"ThreePass2\",\n  \"n\": 8\n}\n",
        )
        .unwrap();
        let (c, log) = run_args(&["report", &legacy]);
        assert_eq!(c, 1, "{log}");
        assert!(log.contains("line 1: not a pdm-run-v1 artifact"), "{log}");
        std::fs::remove_file(&legacy).ok();
    }

    #[test]
    fn inject_specs_parse_and_reject() {
        use InjectSpec::{File, Logical};
        assert_eq!(
            parse_inject("nth-read:3").unwrap(),
            Logical(FailMode::NthRead(3))
        );
        assert_eq!(
            parse_inject("nth-write:0").unwrap(),
            Logical(FailMode::NthWrite(0))
        );
        assert_eq!(parse_inject("disk:1").unwrap(), Logical(FailMode::Disk(1)));
        assert_eq!(
            parse_inject("disk-after:2:100").unwrap(),
            Logical(FailMode::DiskAfter(2, 100))
        );
        assert_eq!(
            parse_inject("transient:42:10000").unwrap(),
            Logical(FailMode::TransientRate {
                seed: 42,
                rate_ppm: 10_000
            })
        );
        assert_eq!(
            parse_inject("every-nth:7").unwrap(),
            Logical(FailMode::EveryNth(7))
        );
        assert_eq!(parse_inject("never").unwrap(), Logical(FailMode::Never));
        assert_eq!(
            parse_inject("file-transient:9:5000").unwrap(),
            File(FileFaultMode::ShortRate {
                seed: 9,
                rate_ppm: 5_000
            })
        );
        assert_eq!(
            parse_inject("file-eio:12").unwrap(),
            File(FileFaultMode::Eio(12))
        );
        assert_eq!(
            parse_inject("torn-write:4").unwrap(),
            File(FileFaultMode::TornWrite(4))
        );
        assert_eq!(
            parse_inject("fsync-fail:0").unwrap(),
            File(FileFaultMode::FsyncFail(0))
        );
        for bad in [
            "",
            "disk",
            "disk:x",
            "transient:1",
            "nth-read:1:2",
            "bogus:3",
            "file-eio",
            "torn-write:x",
            "file-transient:1",
        ] {
            assert!(parse_inject(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn file_faults_heal_under_retry_and_reject_ram_backends() {
        let inp = tmp("ff-in.keys");
        let clean = tmp("ff-clean.keys");
        let faulty = tmp("ff-faulty.keys");
        run_args(&["gen", "4096", &inp, "--dist", "random", "--seed", "29"]);
        let (c, log) = run_args(&[
            "sort",
            &inp,
            &clean,
            "--disks",
            "2",
            "--b",
            "16",
            "--algo",
            "three-pass2",
        ]);
        assert_eq!(c, 0, "{log}");
        // Real-file short transfers at 1 %, healed by the retry layer.
        let (c, log) = run_args(&[
            "sort",
            &inp,
            &faulty,
            "--disks",
            "2",
            "--b",
            "16",
            "--algo",
            "three-pass2",
            "--inject",
            "file-transient:42:10000",
            "--retry",
            "8",
        ]);
        assert_eq!(c, 0, "{log}");
        assert_eq!(
            std::fs::read(&clean).unwrap(),
            std::fs::read(&faulty).unwrap(),
            "file-fault run must produce byte-identical output"
        );
        // File faults need a file-backed base: mem is rejected cleanly.
        let (c, log) = run_args(&[
            "sort",
            &inp,
            &faulty,
            "--disks",
            "2",
            "--b",
            "16",
            "--storage",
            "mem",
            "--inject",
            "file-eio:0",
        ]);
        assert_eq!(c, 1, "{log}");
        assert!(log.contains("not file-backed"), "{log}");
        for f in [&inp, &clean, &faulty] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn stage_refuses_a_file_whose_key_count_changed() {
        // The region holds n = 100 keys in 7 blocks of 16, so 12 keys of
        // padding: a file 5 keys short and one 5 keys long (whose extra
        // keys would land in that padding) are both refused.
        let n = 100;
        for len in [n - 5, n + 5] {
            let path = tmp(&format!("stage-{len}.keys"));
            let mut w = keyfile::KeyFileWriter::<u64>::create(&path, "u64").unwrap();
            w.write_keys(&(0..len as u64).collect::<Vec<_>>()).unwrap();
            w.finish().unwrap();
            let mut pdm = Pdm::<u64>::new(PdmConfig::square(2, 16)).unwrap();
            let region = pdm.alloc_region_for_keys(n).unwrap();
            let err = stage(&mut pdm, &region, &path, n).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("input changed while staging: counted {n} keys, read {len}")
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        let a = tmp("dg-a.keys");
        let b = tmp("dg-b.keys");
        std::fs::write(&a, [1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        std::fs::write(&b, [1, 2, 3, 4, 5, 6, 7, 9]).unwrap();
        let digest = |p: &str| fingerprint::scan_file(p).unwrap().0;
        assert_eq!(digest(&a), digest(&a));
        assert_ne!(digest(&a), digest(&b));
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
    }

    #[test]
    fn transient_faults_heal_under_retry_and_output_matches_clean_run() {
        let inp = tmp("rt-in.keys");
        let clean = tmp("rt-clean.keys");
        let faulty = tmp("rt-faulty.keys");
        run_args(&["gen", "4096", &inp, "--dist", "random", "--seed", "11"]);
        let (c, log) = run_args(&[
            "sort",
            &inp,
            &clean,
            "--disks",
            "2",
            "--b",
            "16",
            "--algo",
            "three-pass2",
        ]);
        assert_eq!(c, 0, "{log}");
        // 1 % transient fault rate, healed by up to 4 attempts per block op.
        let (c, log) = run_args(&[
            "sort",
            &inp,
            &faulty,
            "--disks",
            "2",
            "--b",
            "16",
            "--algo",
            "three-pass2",
            "--inject",
            "transient:42:10000",
            "--retry",
            "4",
        ]);
        assert_eq!(c, 0, "{log}");
        assert!(log.contains("retries:"), "retry summary missing: {log}");
        assert_eq!(
            std::fs::read(&clean).unwrap(),
            std::fs::read(&faulty).unwrap(),
            "retried run must produce byte-identical output"
        );
        // Without --retry the same schedule is fatal — but clean, not a panic.
        let (c, log) = run_args(&[
            "sort",
            &inp,
            &faulty,
            "--disks",
            "2",
            "--b",
            "16",
            "--algo",
            "three-pass2",
            "--inject",
            "transient:42:10000",
        ]);
        assert_eq!(c, 1, "{log}");
        assert!(log.contains("error"), "{log}");
        for f in [&inp, &clean, &faulty] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn checkpointed_run_resumes_to_identical_output() {
        let inp = tmp("ck-in.keys");
        let out1 = tmp("ck-out1.keys");
        let out2 = tmp("ck-out2.keys");
        let scratch = tmp("ck-scratch");
        let ckdir = tmp("ck-manifests");
        run_args(&["gen", "4096", &inp, "--dist", "permutation", "--seed", "13"]);
        let (c, log) = run_args(&[
            "sort",
            &inp,
            &out1,
            "--disks",
            "2",
            "--b",
            "16",
            "--algo",
            "three-pass1",
            "--scratch",
            &scratch,
            "--checkpoint-dir",
            &ckdir,
        ]);
        assert_eq!(c, 0, "{log}");
        assert!(log.contains("checkpoint:"), "{log}");
        assert!(std::path::Path::new(&ckdir).join("latest.ckpt").is_file());
        // Resume against the completed run: every pass replays, and the
        // output is rebuilt byte-identically from the settled disks.
        let (c, log) = run_args(&[
            "sort",
            &inp,
            &out2,
            "--disks",
            "2",
            "--b",
            "16",
            "--algo",
            "three-pass1",
            "--scratch",
            &scratch,
            "--checkpoint-dir",
            &ckdir,
            "--resume",
        ]);
        assert_eq!(c, 0, "{log}");
        assert!(log.contains("resuming:"), "{log}");
        assert!(log.contains("0 executed live"), "{log}");
        assert_eq!(std::fs::read(&out1).unwrap(), std::fs::read(&out2).unwrap());
        // Resume under a different algorithm or input is refused.
        let (c, log) = run_args(&[
            "sort",
            &inp,
            &out2,
            "--disks",
            "2",
            "--b",
            "16",
            "--algo",
            "three-pass2",
            "--scratch",
            &scratch,
            "--checkpoint-dir",
            &ckdir,
            "--resume",
        ]);
        assert_eq!(c, 1);
        assert!(log.contains("algorithm"), "{log}");
        let (c, log) = run_args(&[
            "sort",
            &inp,
            &out2,
            "--disks",
            "2",
            "--b",
            "16",
            "--algo",
            "radix",
            "--scratch",
            &scratch,
            "--checkpoint-dir",
            &ckdir,
            "--resume",
        ]);
        assert_eq!(c, 1);
        assert!(log.contains("deterministic"), "{log}");
        for f in [&inp, &out1, &out2] {
            std::fs::remove_file(f).ok();
        }
        std::fs::remove_dir_all(&scratch).ok();
        std::fs::remove_dir_all(&ckdir).ok();
    }

    #[test]
    fn a_fresh_checkpointed_run_clears_the_manifests_of_an_earlier_one() {
        // A clean checkpointed run, then the same command crashing in pass
        // 1: its resume must not replay the first run's manifests over the
        // second run's disks (that exited 0 with wrong output).
        let (inp, clean, resumed) = (tmp("st-in.keys"), tmp("st-clean.keys"), tmp("st-res.keys"));
        let (scratch, ckdir) = (tmp("st-scratch"), tmp("st-manifests"));
        run_args(&["gen", "65536", &inp, "--dist", "permutation", "--seed", "7"]);
        let sort = |out: &str, extra: &[&str]| {
            let mut args = vec![
                "sort",
                &inp,
                out,
                "--disks",
                "4",
                "--b",
                "64",
                "--algo",
                "three-pass1",
                "--scratch",
                &scratch,
                "--checkpoint-dir",
                &ckdir,
            ];
            args.extend_from_slice(extra);
            run_args(&args)
        };
        let (c, log) = sort(&clean, &[]);
        assert_eq!(c, 0, "{log}");
        let (c, log) = sort(&resumed, &["--inject", "disk-after:2:1500"]);
        assert_eq!(c, 1, "the injected crash must fail the run: {log}");
        let (c, log) = sort(&resumed, &["--resume"]);
        assert_eq!(c, 1, "{log}");
        assert!(log.contains("no checkpoint found to resume from"), "{log}");
        for f in [&inp, &clean, &resumed] {
            std::fs::remove_file(f).ok();
        }
        std::fs::remove_dir_all(&scratch).ok();
        std::fs::remove_dir_all(&ckdir).ok();
    }

    #[test]
    fn a_bad_inject_spec_leaves_a_resumable_checkpoint_in_place() {
        // A run that crashes in pass 2 leaves a resumable checkpoint; a
        // fresh run whose --inject spec does not parse must not clear it.
        let (inp, clean, resumed) = (tmp("bi-in.keys"), tmp("bi-clean.keys"), tmp("bi-res.keys"));
        let (scratch, ckdir) = (tmp("bi-scratch"), tmp("bi-manifests"));
        run_args(&["gen", "65536", &inp, "--dist", "permutation", "--seed", "7"]);
        let (c, log) = run_args(&[
            "sort",
            &inp,
            &clean,
            "--disks",
            "4",
            "--b",
            "64",
            "--algo",
            "three-pass1",
        ]);
        assert_eq!(c, 0, "{log}");
        let sort = |extra: &[&str]| {
            let mut args = vec![
                "sort",
                &inp,
                &resumed,
                "--disks",
                "4",
                "--b",
                "64",
                "--algo",
                "three-pass1",
                "--scratch",
                &scratch,
                "--checkpoint-dir",
                &ckdir,
            ];
            args.extend_from_slice(extra);
            run_args(&args)
        };
        let (c, log) = sort(&["--inject", "disk-after:2:3500"]);
        assert_eq!(c, 1, "the injected crash must fail the run: {log}");
        let latest = std::path::Path::new(&ckdir).join("latest.ckpt");
        assert!(latest.exists(), "the crashed run left no manifest");
        let (c, log) = sort(&["--inject", "disk-aftr:2:3500"]);
        assert_eq!(c, 1, "{log}");
        assert!(log.contains("bad --inject"), "{log}");
        assert!(latest.exists(), "a refused run cleared the manifests");
        let (c, log) = sort(&["--resume"]);
        assert_eq!(c, 0, "{log}");
        assert_eq!(
            std::fs::read(&resumed).unwrap(),
            std::fs::read(&clean).unwrap()
        );
        for f in [&inp, &clean, &resumed] {
            std::fs::remove_file(f).ok();
        }
        std::fs::remove_dir_all(&scratch).ok();
        std::fs::remove_dir_all(&ckdir).ok();
    }

    #[test]
    fn torn_writes_are_refused_without_block_checksums() {
        let (inp, outp) = (tmp("tw-in.keys"), tmp("tw-out.keys"));
        run_args(&["gen", "4096", &inp, "--dist", "permutation", "--seed", "7"]);
        let (c, log) = run_args(&[
            "sort",
            &inp,
            &outp,
            "--disks",
            "2",
            "--b",
            "16",
            "--algo",
            "three-pass1",
            "--inject",
            "torn-write:70",
        ]);
        if cfg!(feature = "block-checksums") {
            // accepted: the checksums turn the torn block into an error
            assert_eq!(c, 1, "{log}");
            assert!(log.contains("corrupt block"), "{log}");
        } else {
            assert_eq!(c, 1, "{log}");
            assert!(
                log.contains("build with the block-checksums feature"),
                "{log}"
            );
        }
        for f in [&inp, &outp] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn overlap_flag_is_invisible_to_output_and_pass_counts() {
        let inp = tmp("ov-in.keys");
        run_args(&["gen", "4096", &inp, "--dist", "random", "--seed", "17"]);
        // Compare the sorted bytes and the logged pass counts.
        let passes = |log: &str| -> Vec<String> {
            log.lines()
                .filter(|l| l.contains("passes"))
                .map(|l| l.to_string())
                .collect()
        };
        for algo in [
            "three-pass1",
            "three-pass2",
            "expected-two-pass",
            "seven-pass",
        ] {
            let mut legs = Vec::new();
            for mode in ["off", "on", "auto"] {
                let outp = tmp(&format!("ov-out-{algo}-{mode}.keys"));
                let (c, log) = run_args(&[
                    "sort",
                    &inp,
                    &outp,
                    "--disks",
                    "2",
                    "--b",
                    "16",
                    "--algo",
                    algo,
                    "--overlap",
                    mode,
                ]);
                assert_eq!(c, 0, "{algo}/{mode}: {log}");
                legs.push((std::fs::read(&outp).unwrap(), passes(&log)));
                std::fs::remove_file(&outp).ok();
            }
            assert_eq!(
                legs[0], legs[1],
                "{algo}: --overlap on changed output or passes"
            );
            assert_eq!(
                legs[0], legs[2],
                "{algo}: --overlap auto changed output or passes"
            );
        }
        std::fs::remove_file(&inp).ok();
    }

    #[test]
    fn overlap_window_and_uring_flags_are_invisible_to_output() {
        let inp = tmp("ow-in.keys");
        run_args(&["gen", "4096", &inp, "--dist", "random", "--seed", "31"]);
        let base = tmp("ow-base.keys");
        let (c, log) = run_args(&[
            "sort",
            &inp,
            &base,
            "--disks",
            "2",
            "--b",
            "16",
            "--algo",
            "seven-pass",
            "--storage",
            "async-file",
            "--overlap",
            "on",
        ]);
        assert_eq!(c, 0, "{log}");
        let baseline = std::fs::read(&base).unwrap();
        // Every window shape — tiny, explicit — and every queue depth
        // produces byte-identical output.
        let legs: Vec<Vec<&str>> = vec![
            vec!["--overlap-window", "1"],
            vec!["--overlap-window", "96"],
            vec!["--queue-depth", "4"],
        ];
        for extra in legs {
            let outp = tmp("ow-leg.keys");
            let mut args = vec![
                "sort",
                &inp,
                &outp,
                "--disks",
                "2",
                "--b",
                "16",
                "--algo",
                "seven-pass",
                "--storage",
                "async-file",
                "--overlap",
                "on",
            ];
            args.extend_from_slice(&extra);
            let (c, log) = run_args(&args);
            assert_eq!(c, 0, "{extra:?}: {log}");
            assert_eq!(
                std::fs::read(&outp).unwrap(),
                baseline,
                "{extra:?} changed the sorted output"
            );
            std::fs::remove_file(&outp).ok();
        }
        std::fs::remove_file(&inp).ok();
        std::fs::remove_file(&base).ok();
    }

    #[test]
    fn checkpointed_run_resumes_with_overlap_enabled() {
        // Overlap composes with the robustness stack: a checkpointed run
        // with forced overlap drains at every boundary, so its manifests
        // stay valid and a resume replays to byte-identical output.
        let inp = tmp("ovck-in.keys");
        let out1 = tmp("ovck-out1.keys");
        let out2 = tmp("ovck-out2.keys");
        let scratch = tmp("ovck-scratch");
        let ckdir = tmp("ovck-manifests");
        run_args(&["gen", "4096", &inp, "--dist", "permutation", "--seed", "19"]);
        let (c, log) = run_args(&[
            "sort",
            &inp,
            &out1,
            "--disks",
            "2",
            "--b",
            "16",
            "--algo",
            "seven-pass",
            "--scratch",
            &scratch,
            "--checkpoint-dir",
            &ckdir,
            "--overlap",
            "on",
        ]);
        assert_eq!(c, 0, "{log}");
        assert!(log.contains("checkpoint:"), "{log}");
        let (c, log) = run_args(&[
            "sort",
            &inp,
            &out2,
            "--disks",
            "2",
            "--b",
            "16",
            "--algo",
            "seven-pass",
            "--scratch",
            &scratch,
            "--checkpoint-dir",
            &ckdir,
            "--resume",
            "--overlap",
            "on",
        ]);
        assert_eq!(c, 0, "{log}");
        assert!(log.contains("0 executed live"), "{log}");
        assert_eq!(std::fs::read(&out1).unwrap(), std::fs::read(&out2).unwrap());
        for f in [&inp, &out1, &out2] {
            std::fs::remove_file(f).ok();
        }
        std::fs::remove_dir_all(&scratch).ok();
        std::fs::remove_dir_all(&ckdir).ok();
    }

    #[test]
    fn trace_out_writes_a_chrome_trace_without_changing_output() {
        let inp = tmp("tr-in.keys");
        let plain = tmp("tr-plain.keys");
        let traced = tmp("tr-traced.keys");
        let tracep = tmp("tr-trace.json");
        run_args(&["gen", "4096", &inp, "--dist", "random", "--seed", "23"]);
        let (c, log) = run_args(&[
            "sort",
            &inp,
            &plain,
            "--disks",
            "2",
            "--b",
            "16",
            "--storage",
            "threaded",
        ]);
        assert_eq!(c, 0, "{log}");
        let (c, log) = run_args(&[
            "sort",
            &inp,
            &traced,
            "--disks",
            "2",
            "--b",
            "16",
            "--storage",
            "threaded",
            "--overlap",
            "on",
            "--trace-out",
            &tracep,
        ]);
        assert_eq!(c, 0, "{log}");
        assert!(log.contains("trace spans written"), "{log}");
        assert_eq!(
            std::fs::read(&plain).unwrap(),
            std::fs::read(&traced).unwrap(),
            "tracing must not change the sorted output"
        );
        let txt = std::fs::read_to_string(&tracep).unwrap();
        assert!(txt.starts_with("{\"traceEvents\":["), "{txt}");
        assert!(txt.contains("phases"), "phase track missing");
        assert!(txt.contains("disk0 read") && txt.contains("disk1 write"));
        let begins = txt.matches("\"ph\":\"B\"").count();
        assert!(begins > 0, "no spans recorded");
        assert_eq!(
            begins,
            txt.matches("\"ph\":\"E\"").count(),
            "unbalanced B/E"
        );
        for f in [&inp, &plain, &traced, &tracep] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn info_prints_ladder() {
        // (D, the pick at M√M, the pick at M² with the runner-up's passes)
        for (disks, at_m15, at_m2) in [
            (
                "4",
                "three-pass2 (predicted 3 passes, mergesort 3)",
                "mergesort (predicted 5 passes, seven-pass 7)",
            ),
            (
                "16",
                "three-pass2 (predicted 3 passes, mergesort 5)",
                "seven-pass (predicted 7 passes, mergesort 9)",
            ),
        ] {
            let (c, log) = run_args(&["info", "--disks", disks, "--b", "64"]);
            assert_eq!(c, 0, "{log}");
            assert!(log.contains("auto candidates"), "{log}");
            // one row per candidate: capacity, then passes at M√M and M²
            let cfg = PdmConfig::square(disks.parse().unwrap(), 64);
            let m = cfg.mem_capacity;
            for a in Algorithm::CANDIDATES {
                let row = log
                    .lines()
                    .find(|l| l.split_whitespace().next() == Some(a.name()))
                    .unwrap_or_else(|| panic!("no {} row in {log}", a.name()));
                let cap = match a.capacity(&cfg, DEFAULT_ALPHA) {
                    usize::MAX => "any".to_string(),
                    cap => cap.to_string(),
                };
                let cells = [m * 64, m * m].map(|n| {
                    a.pass_bound(&cfg, n, DEFAULT_ALPHA)
                        .map_or("-".to_string(), |p| p.to_string())
                });
                let want = format!("{} {cap} {} {}", a.name(), cells[0], cells[1]);
                assert_eq!(row.split_whitespace().collect::<Vec<_>>().join(" "), want);
            }
            assert!(
                log.contains(&format!("auto at N = M√M = {}: {at_m15}", m * 64)),
                "{log}"
            );
            assert!(
                log.contains(&format!("auto at N = M² = {}: {at_m2}", m * m)),
                "{log}"
            );
        }
        // machines every sorter refuses are refused here too
        let (c, log) = run_args(&["info", "--disks", "0", "--b", "64"]);
        assert_eq!(c, 1, "{log}");
        assert!(log.contains("D must be positive"), "{log}");
        let (c, log) = run_args(&["info", "--disks", "3", "--b", "64"]);
        assert_eq!(c, 1, "{log}");
        assert!(log.contains("D | √M"), "{log}");
    }

    #[test]
    fn auto_sorts_past_m_squared_with_the_merge_sort() {
        // M = 64, so 4097 keys are past M² = 4096: no paper sorter covers
        // them, and the merge sort takes any N.
        let (inp, outp) = (tmp("past-m2.keys"), tmp("past-m2.out"));
        run_args(&["gen", "4097", &inp, "--dist", "permutation"]);
        let (c, log) = run_args(&["sort", &inp, &outp, "--disks", "2", "--b", "8"]);
        assert_eq!(c, 0, "{log}");
        assert!(
            log.contains("algorithm: MergeSort (auto; predicted 5 passes)\n"),
            "{log}"
        );
        let (c, log) = run_args(&["verify", &outp]);
        assert_eq!(c, 0, "{log}");
        assert!(log.contains("4097 u64 keys, sorted"), "{log}");
        for f in [&inp, &outp] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn missing_file_reports_error() {
        let (c, log) = run_args(&["verify", "/nonexistent/nope.keys"]);
        assert_eq!(c, 1);
        assert!(log.contains("error"));
    }

    #[test]
    fn gen_distributions_have_right_shape() {
        type Shape = fn(&[u64]) -> bool;
        let cases: Vec<(&str, Shape)> = vec![
            ("sorted", |v| v.windows(2).all(|w| w[0] <= w[1])),
            ("reversed", |v| v.windows(2).all(|w| w[0] >= w[1])),
            // nearly-sorted: at most 2·(n/100) positions disturbed
            ("nearly-sorted", |v| {
                v.windows(2).filter(|w| w[0] > w[1]).count() <= 20
                    && v.windows(2).any(|w| w[0] > w[1])
            }),
            // dup-heavy: far fewer distinct values than keys
            ("dup-heavy", |v| {
                let mut u: Vec<u64> = v.to_vec();
                u.sort_unstable();
                u.dedup();
                u.len() <= 1000 / 64 + 1
            }),
        ];
        for (dist, check) in cases {
            let p = tmp(&format!("dist-{dist}.keys"));
            let (c, _) = run_args(&["gen", "1000", &p, "--dist", dist]);
            assert_eq!(c, 0);
            let mut got: Vec<u64> = Vec::new();
            keyfile::for_each_chunk::<u64>(&p, |ks| {
                got.extend_from_slice(ks);
                Ok(())
            })
            .unwrap();
            assert_eq!(got.len(), 1000);
            assert!(check(&got), "{dist} shape wrong");
            std::fs::remove_file(&p).ok();
        }
    }

    /// The pass counters logged by `sort` ("read passes: X").
    fn logged_passes(log: &str) -> Vec<String> {
        log.lines()
            .filter(|l| l.contains("passes"))
            .map(|l| l.to_string())
            .collect()
    }

    fn read_passes_of(log: &str) -> f64 {
        log.lines()
            .find(|l| l.starts_with("read passes:"))
            .expect("no read-pass line")
            .split_whitespace()
            .last()
            .unwrap()
            .parse()
            .unwrap()
    }

    #[test]
    fn tagged_and_str24_sort_identically_across_real_disk_backends() {
        // The issue's acceptance bar: non-u64 records complete on the real
        // async-file path with byte-identical output and identical pass
        // counters versus the in-RAM reference backend.
        for key in ["tagged", "str24"] {
            let inp = tmp(&format!("kk-in-{key}.keys"));
            let (c, log) = run_args(&[
                "gen", "4096", &inp, "--dist", "random", "--seed", "41", "--key", key,
            ]);
            assert_eq!(c, 0, "{log}");
            let mut legs = Vec::new();
            for backend in ["mem", "file", "async-file"] {
                let outp = tmp(&format!("kk-out-{key}-{backend}.keys"));
                let (c, log) = run_args(&[
                    "sort",
                    &inp,
                    &outp,
                    "--disks",
                    "2",
                    "--b",
                    "16",
                    "--storage",
                    backend,
                ]);
                assert_eq!(c, 0, "{key}/{backend}: {log}");
                legs.push((std::fs::read(&outp).unwrap(), logged_passes(&log)));
                // the sorted file advertises its own kind
                let (c, vlog) = run_args(&["verify", &outp]);
                assert_eq!(c, 0, "{key}/{backend}: {vlog}");
                assert!(vlog.contains(&format!("{key} keys, sorted ✓")), "{vlog}");
                std::fs::remove_file(&outp).ok();
            }
            for leg in &legs[1..] {
                assert_eq!(leg, &legs[0], "{key}: backends disagree");
            }
            std::fs::remove_file(&inp).ok();
        }
    }

    #[test]
    fn key_flag_asserts_against_the_file_header() {
        let inp = tmp("ka-in.keys");
        let outp = tmp("ka-out.keys");
        let (c, log) = run_args(&["gen", "256", &inp, "--key", "tagged", "--seed", "3"]);
        assert_eq!(c, 0, "{log}");
        // wrong assertion: clean error naming both kinds
        let (c, log) = run_args(&["sort", &inp, &outp, "--b", "16", "--key", "u64"]);
        assert_eq!(c, 1);
        assert!(log.contains("holds 'tagged'"), "{log}");
        // right assertion (and no assertion) both work
        let (c, log) = run_args(&[
            "sort", &inp, &outp, "--disks", "2", "--b", "16", "--key", "tagged",
        ]);
        assert_eq!(c, 0, "{log}");
        // rank-based sorts reject comparison-only shapes up front
        let (c, log) = run_args(&[
            "sort", &inp, &outp, "--disks", "2", "--b", "16", "--algo", "radix",
        ]);
        assert_eq!(c, 1);
        assert!(log.contains("radix"), "{log}");
        std::fs::remove_file(&inp).ok();
        std::fs::remove_file(&outp).ok();
    }

    #[test]
    fn tagged_sentinel_records_survive_a_file_backed_sort() {
        // Tagged::MIN/MAX double as block-padding sentinels inside the
        // sorter. Real records holding those exact values must still come
        // back — count tracking, not value filtering, separates pads from
        // payload. 1000 keys on B = 16 forces padded tail blocks.
        let inp = tmp("sen-in.keys");
        let outp = tmp("sen-out.keys");
        let mut data: Vec<Tagged> = Vec::new();
        for i in 0..5u64 {
            data.push(Tagged::MAX);
            data.push(Tagged::MIN);
            data.push(Tagged::new(u64::MAX, i));
            data.push(Tagged::new(0, i + 1));
        }
        let mut x = 11u64;
        while data.len() < 1000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            data.push(Tagged::new(x >> 1, x & 0xffff));
        }
        let mut w = keyfile::KeyFileWriter::<Tagged>::create(&inp, "tagged").unwrap();
        w.write_keys(&data).unwrap();
        w.finish().unwrap();

        let (c, log) = run_args(&[
            "sort",
            &inp,
            &outp,
            "--disks",
            "2",
            "--b",
            "16",
            "--algo",
            "seven-pass",
        ]);
        assert_eq!(c, 0, "{log}");

        let mut got: Vec<Tagged> = Vec::new();
        keyfile::for_each_chunk::<Tagged>(&outp, |ks| {
            got.extend_from_slice(ks);
            Ok(())
        })
        .unwrap();
        data.sort();
        assert_eq!(
            got, data,
            "sentinel-valued records were dropped or duplicated"
        );

        // Byte-level: the output is exactly the header plus the sorted
        // records' encodings — no pad records leaked into the file.
        let expect = tmp("sen-expect.keys");
        let mut w = keyfile::KeyFileWriter::<Tagged>::create(&expect, "tagged").unwrap();
        w.write_keys(&data).unwrap();
        w.finish().unwrap();
        assert_eq!(
            std::fs::read(&outp).unwrap(),
            std::fs::read(&expect).unwrap()
        );
        for f in [&inp, &outp, &expect] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn updown_mergesort_beats_seven_pass_on_nearly_sorted_input() {
        let inp = tmp("ud-in.keys");
        let outg = tmp("ud-greedy.keys");
        let outu = tmp("ud-updown.keys");
        run_args(&[
            "gen",
            "8192",
            &inp,
            "--dist",
            "nearly-sorted",
            "--seed",
            "7",
        ]);
        let (c, log_g) = run_args(&[
            "sort",
            &inp,
            &outg,
            "--disks",
            "2",
            "--b",
            "16",
            "--algo",
            "seven-pass",
        ]);
        assert_eq!(c, 0, "{log_g}");
        let (c, log_u) = run_args(&[
            "sort",
            &inp,
            &outu,
            "--disks",
            "2",
            "--b",
            "16",
            "--algo",
            "updown-mergesort",
        ]);
        assert_eq!(c, 0, "{log_u}");
        assert!(log_u.contains("UpDownMergeSort: 8192 keys"), "{log_u}");
        let (rg, ru) = (read_passes_of(&log_g), read_passes_of(&log_u));
        assert!(
            ru < rg,
            "up/down runs should beat seven-pass's fixed {rg} read passes on nearly-sorted \
             input, got {ru}"
        );
        assert_eq!(
            std::fs::read(&outg).unwrap(),
            std::fs::read(&outu).unwrap(),
            "run formation must not change the sorted output"
        );
        for f in [&inp, &outg, &outu] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn updown_mergesort_works_on_async_file_storage() {
        let inp = tmp("uda-in.keys");
        let out1 = tmp("uda-out1.keys");
        let out2 = tmp("uda-out2.keys");
        run_args(&[
            "gen",
            "4096",
            &inp,
            "--dist",
            "dup-heavy",
            "--seed",
            "5",
            "--key",
            "tagged",
        ]);
        let (c, log) = run_args(&["sort", &inp, &out1, "--disks", "2", "--b", "16"]);
        assert_eq!(c, 0, "{log}");
        let (c, log) = run_args(&[
            "sort",
            &inp,
            &out2,
            "--disks",
            "2",
            "--b",
            "16",
            "--algo",
            "updown-mergesort",
            "--storage",
            "async-file",
        ]);
        assert_eq!(c, 0, "{log}");
        assert_eq!(std::fs::read(&out1).unwrap(), std::fs::read(&out2).unwrap());
        for f in [&inp, &out1, &out2] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn compare_runs_on_tagged_files_and_skips_radix() {
        let inp = tmp("cmp-tagged.keys");
        run_args(&["gen", "2048", &inp, "--key", "tagged", "--seed", "13"]);
        let (c, log) = run_args(&["compare", &inp, "--disks", "2", "--b", "16"]);
        assert_eq!(c, 0, "{log}");
        assert!(log.contains("tagged keys"), "{log}");
        assert!(log.contains("updown-mergesort "), "{log}");
        // radix has no faithful rank for key–payload records
        let radix_line = log.lines().find(|l| l.starts_with("radix")).unwrap();
        assert!(radix_line.contains("not applicable"), "{radix_line}");
        std::fs::remove_file(&inp).ok();
    }

    #[test]
    fn compare_prints_predictions_the_merge_sort_meets() {
        // fan-in 7 at D = 2, B = 16: 8 runs of M take two merge levels
        let inp = tmp("cmp-predicted.keys");
        run_args(&["gen", "2048", &inp, "--seed", "19"]);
        let (c, log) = run_args(&["compare", &inp, "--disks", "2", "--b", "16"]);
        assert_eq!(c, 0, "{log}");
        assert!(
            log.contains("auto would pick: three-pass2 (predicted 3 passes, mergesort 3)"),
            "{log}"
        );
        // a row's cells after its name: predicted, read passes, …
        let cells = |name: &str| -> Vec<String> {
            let row = log
                .lines()
                .find_map(|l| l.strip_prefix(&format!("{name} ")))
                .unwrap();
            row.split_whitespace().map(String::from).collect()
        };
        let merge = cells("mergesort");
        let (predicted, read): (f64, f64) = (merge[0].parse().unwrap(), merge[1].parse().unwrap());
        assert_eq!(predicted, 3.0, "{log}");
        assert!(
            read <= predicted,
            "measured {read} > predicted {predicted}: {log}"
        );
        assert_eq!(
            cells("expected-two-pass")[0],
            "-",
            "2048 keys are past its capacity"
        );
        assert_eq!(cells("radix (64-bit)")[0], "-", "{log}");
        std::fs::remove_file(&inp).ok();
    }

    #[test]
    fn compare_prints_one_row_per_table_sorter_plus_radix() {
        let inp = tmp("cmp-rows.keys");
        run_args(&["gen", "2048", &inp, "--seed", "17"]);
        let (c, log) = run_args(&["compare", &inp, "--disks", "2", "--b", "16"]);
        assert_eq!(c, 0, "{log}");
        assert!(log.contains("auto would pick: three-pass2"), "{log}");
        let rows: Vec<&str> = log
            .lines()
            .skip_while(|l| !l.starts_with("algorithm"))
            .skip(1)
            .collect();
        let mut want: Vec<String> = Algorithm::ALL
            .into_iter()
            .filter(|a| !a.ranked())
            .map(|a| a.name().to_string())
            .collect();
        want.push("radix (64-bit)".into());
        assert_eq!(rows.len(), want.len(), "{log}");
        for (row, name) in rows.iter().zip(&want) {
            assert!(
                row.starts_with(&format!("{name} ")),
                "{row} should be {name}"
            );
        }
        // the u64 radix row actually runs
        assert!(!rows[want.len() - 1].contains("not applicable"), "{log}");
        std::fs::remove_file(&inp).ok();
    }
}
