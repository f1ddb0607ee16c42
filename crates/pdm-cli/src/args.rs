//! Hand-rolled argument parsing (no external CLI dependency).

use std::fmt;

pub use pdm_model::BackendKind;
pub use pdm_sort::Algorithm;

/// Machine geometry flags shared by `sort` and `info`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Number of disks `D`.
    pub disks: usize,
    /// `√M` (block size; memory is `b²`).
    pub b: usize,
}

impl Default for Geometry {
    fn default() -> Self {
        Self { disks: 4, b: 64 }
    }
}

/// Input distributions `gen` can synthesize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dist {
    /// Uniform random u64 (half range, so `MAX` stays a sentinel).
    Random,
    /// A random permutation of `0..n`.
    Permutation,
    /// Reverse-sorted `n-1..=0`.
    Reversed,
    /// Already sorted `0..n`.
    Sorted,
    /// Skewed: 80 % of keys from the bottom 20 % of a 32-bit range.
    Zipf,
    /// Sorted `0..n` perturbed by `n/100` random transpositions.
    NearlySorted,
    /// Uniform random over a tiny value range (`n/64` distinct values),
    /// so nearly every key repeats many times.
    DupHeavy,
}

impl std::str::FromStr for Dist {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "random" => Ok(Dist::Random),
            "permutation" => Ok(Dist::Permutation),
            "reversed" => Ok(Dist::Reversed),
            "sorted" => Ok(Dist::Sorted),
            "zipf" => Ok(Dist::Zipf),
            "nearly-sorted" => Ok(Dist::NearlySorted),
            "dup-heavy" => Ok(Dist::DupHeavy),
            other => Err(format!(
                "unknown distribution '{other}' \
                 (random|permutation|reversed|sorted|zipf|nearly-sorted|dup-heavy)"
            )),
        }
    }
}

/// Key shape for `gen` and `sort`: the record type a key file holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KeyKind {
    /// Bare little-endian `u64` (8 bytes/record, headerless v0 files).
    #[default]
    U64,
    /// `Tagged` key–payload record: u64 key + u64 payload (16 bytes).
    Tagged,
    /// `StrN<24>` fixed-width string key, memcmp-ordered (24 bytes).
    Str24,
}

impl KeyKind {
    /// Name written into / matched against the `pdm-keys-v1` header.
    pub fn name(self) -> &'static str {
        match self {
            KeyKind::U64 => "u64",
            KeyKind::Tagged => "tagged",
            KeyKind::Str24 => "str24",
        }
    }

    /// On-disk record width in bytes.
    pub fn width(self) -> usize {
        match self {
            KeyKind::U64 => 8,
            KeyKind::Tagged => 16,
            KeyKind::Str24 => 24,
        }
    }

    /// Resolve a header kind name back to a `KeyKind`.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "u64" => Some(KeyKind::U64),
            "tagged" => Some(KeyKind::Tagged),
            "str24" => Some(KeyKind::Str24),
            _ => None,
        }
    }
}

impl std::str::FromStr for KeyKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        KeyKind::from_name(s).ok_or_else(|| format!("unknown key kind '{s}' (u64|tagged|str24)"))
    }
}

impl fmt::Display for KeyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which sorting entry point `sort` should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Let the dispatcher choose by `N` (default).
    Auto,
    /// Force one comparison sorter from the [`Algorithm`] table.
    Sorter(Algorithm),
    /// Force `RadixSort` (64-bit keys).
    Radix,
}

impl std::str::FromStr for Algo {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "auto" => Ok(Algo::Auto),
            _ => match s
                .parse::<Algorithm>()
                .map_err(|e| format!("{e}, or auto"))?
            {
                Algorithm::RadixSort => Ok(Algo::Radix),
                Algorithm::IntegerSort => {
                    Err("integer-sort needs keys bounded by M/B; it has no CLI entry point".into())
                }
                a => Ok(Algo::Sorter(a)),
            },
        }
    }
}

impl fmt::Display for Algo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Algo::Auto => "auto",
            Algo::Sorter(a) => a.name(),
            Algo::Radix => Algorithm::RadixSort.name(),
        })
    }
}

/// Overlapped-I/O switch for `sort`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Overlap {
    /// Enable when the storage backend natively supports overlap
    /// (currently the threaded backend) — the default.
    #[default]
    Auto,
    /// Force overlap on; backends without native support fall back to
    /// eager completion (same accounting, no wall-clock gain).
    On,
    /// Force overlap off: every batch blocks.
    Off,
}

impl std::str::FromStr for Overlap {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "auto" => Ok(Overlap::Auto),
            "on" => Ok(Overlap::On),
            "off" => Ok(Overlap::Off),
            other => Err(format!("unknown overlap mode '{other}' (auto|on|off)")),
        }
    }
}

impl fmt::Display for Overlap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Overlap::Auto => "auto",
            Overlap::On => "on",
            Overlap::Off => "off",
        })
    }
}

/// `--overlap-window` argument: how deep the overlap pipelines may run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverlapWindow {
    /// Default window: `D × queue-depth` blocks (see
    /// `pdm_model::DEFAULT_QUEUE_DEPTH`).
    #[default]
    Default,
    /// Fixed budget of this many in-flight blocks per pipeline.
    Blocks(usize),
}

impl std::str::FromStr for OverlapWindow {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "default" => Ok(OverlapWindow::Default),
            n => n
                .parse::<usize>()
                .map(|v| OverlapWindow::Blocks(v.max(1)))
                .map_err(|_| format!("unknown overlap window '{n}' (BLOCKS | default)")),
        }
    }
}

impl fmt::Display for OverlapWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OverlapWindow::Default => f.write_str("default"),
            OverlapWindow::Blocks(n) => write!(f, "{n}"),
        }
    }
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `pdmsort gen <n> <out> [--dist D] [--seed S] [--key K]`
    Gen {
        /// Keys to generate.
        n: usize,
        /// Output path.
        out: String,
        /// Distribution.
        dist: Dist,
        /// RNG seed.
        seed: u64,
        /// Record shape to write (u64 files stay headerless v0).
        key: KeyKind,
    },
    /// `pdmsort sort <in> <out> [--disks D] [--b B] [--algo A] [--scratch DIR]`
    Sort {
        /// Input key file.
        input: String,
        /// Output key file.
        out: String,
        /// Machine geometry.
        geo: Geometry,
        /// Algorithm selection.
        algo: Algo,
        /// Scratch directory for the simulated disks (default: temp dir).
        scratch: Option<String>,
        /// Optional path to write the run artifact: `pdm-run-v1` JSON
        /// Lines holding the exact counters and the probe's events.
        stats: Option<String>,
        /// Optional path to write a Chrome trace-event JSON file (one
        /// track per disk and direction plus a phase track; load in
        /// Perfetto).
        trace_out: Option<String>,
        /// Directory to write pass-level checkpoint manifests into.
        checkpoint_dir: Option<String>,
        /// Resume from the latest checkpoint in `checkpoint_dir` (requires
        /// `--scratch` so the partial run's disks survive).
        resume: bool,
        /// Fault-injection spec (see `parse_inject` in run.rs), e.g.
        /// `transient:42:10000` or `nth-read:100`.
        inject: Option<String>,
        /// Enable transient-fault retrying with this many attempts per
        /// block operation.
        retry: Option<u32>,
        /// Simulated backoff steps charged per retry (linear).
        backoff: u64,
        /// In-memory kernel threads. Only 1 (the default) is accepted: the
        /// kernels are sequential.
        threads: usize,
        /// Overlapped I/O (read-ahead + write-behind). Never changes
        /// output or pass counts — only wall-clock.
        overlap: Overlap,
        /// Overlap pipeline depth budget in blocks. Never
        /// changes output or pass counts — only wall-clock.
        overlap_window: OverlapWindow,
        /// Per-disk submission queue depth for the async-file backend
        /// (blocks of one disk per kernel round).
        queue_depth: Option<usize>,
        /// Storage backend for the simulated disks (default: `file`).
        storage: BackendKind,
        /// Expected record shape; `None` trusts the file's own header
        /// (bare files sort as u64). An explicit `--key` is asserted
        /// against the header before any work starts.
        key: Option<KeyKind>,
    },
    /// `pdmsort report <run.jsonl>` — render phase table, per-disk
    /// heatmap, sparkline, and pass-budget waterfall from a run artifact.
    Report {
        /// Run artifact written by `pdmsort sort --stats`.
        stats: String,
    },
    /// `pdmsort compare <in> [--disks D] [--b B]` — run every applicable
    /// algorithm on the same input and tabulate passes.
    Compare {
        /// Input key file.
        input: String,
        /// Machine geometry.
        geo: Geometry,
        /// In-memory kernel threads (see [`Command::Sort::threads`]).
        threads: usize,
    },
    /// `pdmsort verify <file> [--input IN]`
    Verify {
        /// Key file to check.
        file: String,
        /// Input the file should be a permutation of (checked by
        /// fingerprint).
        input: Option<String>,
    },
    /// `pdmsort info [--disks D] [--b B]`
    Info {
        /// Machine geometry.
        geo: Geometry,
    },
    /// `pdmsort help`
    Help,
}

/// Usage text.
pub const USAGE: &str = "\
pdmsort — out-of-core sorting on a simulated parallel-disk machine

USAGE:
  pdmsort gen <n> <out.keys> [--dist random|permutation|reversed|sorted|zipf|
               nearly-sorted|dup-heavy] [--seed S] [--key u64|tagged|str24]
  pdmsort sort <in.keys> <out.keys> [--disks D] [--b SQRT_M] [--algo A]
               [--key u64|tagged|str24]
               [--storage mem|file|threaded|async-file] [--scratch DIR]
               [--stats FILE.jsonl] [--trace-out FILE.json]
               [--checkpoint-dir DIR] [--resume] [--inject SPEC]
               [--retry N] [--backoff STEPS] [--threads N] [--overlap auto|on|off]
               [--overlap-window BLOCKS|default] [--queue-depth N]
  pdmsort report <run.jsonl>
  pdmsort compare <in.keys> [--disks D] [--b SQRT_M] [--threads N]
  pdmsort verify <file.keys> [--input IN.keys]
  pdmsort info [--disks D] [--b SQRT_M]

Bare key files are flat little-endian u64 (v0). Files made with --key
tagged|str24 start with a 32-byte pdm-keys-v1 header naming the record
shape; sort and verify read it back, so --key is only needed when writing
(gen) or to assert what you expect a file to hold. Defaults: --disks 4
--b 64 (M = 4096 keys), --algo auto. The sorter stages data through D real
files (one per simulated disk) and reports the pass counts of the chosen
algorithm.

Key shapes:
  u64      bare 8-byte little-endian integers (default; headerless files)
  tagged   16-byte key+payload records: sorts by the u64 key, carries a u64
           payload untouched (gen fills it with the record's input index)
  str24    24-byte fixed-width byte-string keys, memcmp order, NUL-padded
           (radix/integer sorts need integer keys and reject tagged/str24)

Algorithms (--algo):
  auto                 the sorter with the fewest predicted passes at N
                       among the paper's and mergesort; on a tie, a bound on
                       every input beats an expected one, then the paper's
                       sorter (default; `pdmsort info` prints the candidates)
  in-memory | three-pass1 | exp-two-pass-mesh | three-pass2 |
  expected-two-pass | expected-three-pass | seven-pass | expected-six-pass
                       force one of the paper's comparison sorters
  radix                forward radix sort (u64 keys only)
  mergesort            external multiway merge sort of M-key runs (baseline)
  updown-mergesort     the same merge sort over alternating up/down
                       replacement-selection runs: nearly sorted, reversed or
                       duplicate-heavy inputs yield runs far longer than M
                       and fewer merge levels

Fault tolerance:
  --checkpoint-dir DIR   write an atomic manifest after every completed pass
                         (the algorithms --resume takes)
  --resume               skip passes the latest manifest records as complete
                         (needs --scratch from the interrupted run; only
                         deterministic algorithms: three-pass1, three-pass2,
                         seven-pass, mergesort, and auto when it picks one)
  --inject SPEC          inject storage faults: nth-read:K | nth-write:K |
                         disk:D | disk-after:D:N | transient:SEED:RATE_PPM |
                         every-nth:N; real-file faults (file/async-file
                         backends only, injected inside the backend itself):
                         file-transient:SEED:RATE_PPM (short reads/writes) |
                         file-eio:N | torn-write:N (half block persisted,
                         success reported) | fsync-fail:N
  --retry N              retry transient faults up to N attempts per block op
                         (on async-file this also arms completion-time retry
                         in the disk workers, so --overlap on stays on)
  --backoff STEPS        simulated steps charged per retry (default 1)

Performance:
  --threads N            kernel threads; only 1 (the default) is accepted
  --overlap auto|on|off  overlapped I/O: read-ahead feeds each pass one batch
                         early and writes retire behind the compute. `auto`
                         (default) enables it when the backend natively
                         overlaps (threaded, async-file); `on` forces the
                         wiring on any backend (eager completion elsewhere).
                         Output and pass counts are identical in every mode.
  --overlap-window W     overlap pipeline depth budget, in in-flight blocks:
                         a number fixes it, `default` derives it from the
                         geometry (D x queue-depth blocks). Wall-clock
                         only: output, pass counts, and the probe event
                         stream are identical for every window.
  --queue-depth N        async-file only: blocks of one disk per kernel
                         round (default 32); built with io_uring, each
                         worker's ring takes a round of every disk at once
  --storage KIND         disk backend: file (default, synchronous one file
                         per disk), async-file (one read and one write
                         worker thread for all disks, io_uring where built
                         in), threaded (RAM on the same two workers), mem
                         (plain RAM reference).
                         mem and threaded take no --scratch/--resume.
  --trace-out FILE.json  write wall-clock spans (one track per disk and
                         direction, one span per service round, plus a phase
                         track) as Chrome trace-event JSON — open in
                         Perfetto or chrome://tracing. Timing-only: never changes output,
                         pass counts, or the probe events that --stats
                         writes.";

fn parse_flag<T: std::str::FromStr>(args: &[String], i: &mut usize, name: &str) -> Result<T, String>
where
    T::Err: fmt::Display,
{
    *i += 1;
    let v = args
        .get(*i)
        .ok_or_else(|| format!("{name} needs a value"))?;
    v.parse::<T>().map_err(|e| format!("bad {name}: {e}"))
}

/// Parse a command line (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    match cmd {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "gen" => {
            let mut pos = Vec::new();
            let mut dist = Dist::Random;
            let mut seed = 42u64;
            let mut key = KeyKind::U64;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--dist" => dist = parse_flag(args, &mut i, "--dist")?,
                    "--seed" => seed = parse_flag(args, &mut i, "--seed")?,
                    "--key" => key = parse_flag(args, &mut i, "--key")?,
                    other if other.starts_with("--") => {
                        return Err(format!("unknown flag {other}"))
                    }
                    other => pos.push(other.to_string()),
                }
                i += 1;
            }
            if pos.len() != 2 {
                return Err("gen needs <n> <out>".into());
            }
            let n: usize = pos[0].parse().map_err(|e| format!("bad n: {e}"))?;
            Ok(Command::Gen {
                n,
                out: pos[1].clone(),
                dist,
                seed,
                key,
            })
        }
        "sort" => {
            let mut pos = Vec::new();
            let mut geo = Geometry::default();
            let mut algo = Algo::Auto;
            let mut scratch = None;
            let mut stats = None;
            let mut trace_out = None;
            let mut checkpoint_dir = None;
            let mut resume = false;
            let mut inject = None;
            let mut retry = None;
            let mut backoff = 1u64;
            let mut threads = 1usize;
            let mut overlap = Overlap::Auto;
            let mut overlap_window = OverlapWindow::Default;
            let mut queue_depth = None;
            let mut storage = BackendKind::File;
            let mut key = None;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--disks" => geo.disks = parse_flag(args, &mut i, "--disks")?,
                    "--b" => geo.b = parse_flag(args, &mut i, "--b")?,
                    "--algo" => algo = parse_flag(args, &mut i, "--algo")?,
                    "--storage" => storage = parse_flag(args, &mut i, "--storage")?,
                    "--scratch" => scratch = Some(parse_flag::<String>(args, &mut i, "--scratch")?),
                    "--stats" => stats = Some(parse_flag::<String>(args, &mut i, "--stats")?),
                    "--trace-out" => {
                        trace_out = Some(parse_flag::<String>(args, &mut i, "--trace-out")?)
                    }
                    "--checkpoint-dir" => {
                        checkpoint_dir =
                            Some(parse_flag::<String>(args, &mut i, "--checkpoint-dir")?)
                    }
                    "--resume" => resume = true,
                    "--inject" => inject = Some(parse_flag::<String>(args, &mut i, "--inject")?),
                    "--retry" => retry = Some(parse_flag(args, &mut i, "--retry")?),
                    "--backoff" => backoff = parse_flag(args, &mut i, "--backoff")?,
                    "--threads" => threads = parse_flag(args, &mut i, "--threads")?,
                    "--overlap" => overlap = parse_flag(args, &mut i, "--overlap")?,
                    "--overlap-window" => {
                        overlap_window = parse_flag(args, &mut i, "--overlap-window")?
                    }
                    "--queue-depth" => {
                        queue_depth = Some(parse_flag::<usize>(args, &mut i, "--queue-depth")?)
                    }
                    "--key" => key = Some(parse_flag(args, &mut i, "--key")?),
                    other if other.starts_with("--") => {
                        return Err(format!("unknown flag {other}"))
                    }
                    other => pos.push(other.to_string()),
                }
                i += 1;
            }
            if pos.len() != 2 {
                return Err("sort needs <in> <out>".into());
            }
            if resume && checkpoint_dir.is_none() {
                return Err("--resume needs --checkpoint-dir".into());
            }
            if resume && scratch.is_none() {
                return Err("--resume needs --scratch (the interrupted run's disk files)".into());
            }
            if !storage.is_file_backed() && (scratch.is_some() || resume) {
                return Err(format!(
                    "--storage {storage} keeps the disks in RAM; --scratch/--resume need a \
                     file-backed backend (file or async-file)"
                ));
            }
            if queue_depth == Some(0) {
                return Err("--queue-depth must be at least 1".into());
            }
            Ok(Command::Sort {
                input: pos[0].clone(),
                out: pos[1].clone(),
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
            })
        }
        "report" => {
            if args.len() != 2 {
                return Err("report needs <run.jsonl>".into());
            }
            Ok(Command::Report {
                stats: args[1].clone(),
            })
        }
        "compare" => {
            let mut pos = Vec::new();
            let mut geo = Geometry::default();
            let mut threads = 1usize;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--disks" => geo.disks = parse_flag(args, &mut i, "--disks")?,
                    "--b" => geo.b = parse_flag(args, &mut i, "--b")?,
                    "--threads" => threads = parse_flag(args, &mut i, "--threads")?,
                    other if other.starts_with("--") => {
                        return Err(format!("unknown flag {other}"))
                    }
                    other => pos.push(other.to_string()),
                }
                i += 1;
            }
            if pos.len() != 1 {
                return Err("compare needs <in>".into());
            }
            Ok(Command::Compare {
                input: pos[0].clone(),
                geo,
                threads,
            })
        }
        "verify" => {
            let mut pos = Vec::new();
            let mut input = None;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--input" => input = Some(parse_flag::<String>(args, &mut i, "--input")?),
                    other if other.starts_with("--") => {
                        return Err(format!("unknown flag {other}"))
                    }
                    other => pos.push(other.to_string()),
                }
                i += 1;
            }
            if pos.len() != 1 {
                return Err("verify needs <file>".into());
            }
            Ok(Command::Verify {
                file: pos[0].clone(),
                input,
            })
        }
        "info" => {
            let mut geo = Geometry::default();
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--disks" => geo.disks = parse_flag(args, &mut i, "--disks")?,
                    "--b" => geo.b = parse_flag(args, &mut i, "--b")?,
                    other => return Err(format!("unknown flag {other}")),
                }
                i += 1;
            }
            Ok(Command::Info { geo })
        }
        other => Err(format!("unknown command '{other}'; try pdmsort help")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_gen() {
        let c = parse(&v(&[
            "gen", "1000", "x.keys", "--dist", "zipf", "--seed", "7",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Gen {
                n: 1000,
                out: "x.keys".into(),
                dist: Dist::Zipf,
                seed: 7,
                key: KeyKind::U64,
            }
        );
    }

    #[test]
    fn parses_key_kind_flags() {
        let c = parse(&v(&["gen", "10", "x.keys", "--key", "tagged"])).unwrap();
        assert!(matches!(
            c,
            Command::Gen {
                key: KeyKind::Tagged,
                ..
            }
        ));
        let c = parse(&v(&[
            "gen",
            "10",
            "x.keys",
            "--key",
            "str24",
            "--dist",
            "nearly-sorted",
        ]))
        .unwrap();
        assert!(matches!(
            c,
            Command::Gen {
                key: KeyKind::Str24,
                dist: Dist::NearlySorted,
                ..
            }
        ));
        // sort defaults to trusting the file header; --key asserts a shape
        let c = parse(&v(&["sort", "a", "b"])).unwrap();
        assert!(matches!(c, Command::Sort { key: None, .. }));
        let c = parse(&v(&["sort", "a", "b", "--key", "str24"])).unwrap();
        assert!(matches!(
            c,
            Command::Sort {
                key: Some(KeyKind::Str24),
                ..
            }
        ));
        assert!(parse(&v(&["gen", "10", "x", "--key", "utf8"])).is_err());
        assert!(parse(&v(&["sort", "a", "b", "--key"])).is_err());
        for s in ["u64", "tagged", "str24"] {
            let k: KeyKind = s.parse().unwrap();
            assert_eq!(k.to_string(), s);
            assert_eq!(KeyKind::from_name(s), Some(k));
        }
        assert_eq!(KeyKind::U64.width(), 8);
        assert_eq!(KeyKind::Tagged.width(), 16);
        assert_eq!(KeyKind::Str24.width(), 24);
    }

    #[test]
    fn merge_sorts_are_table_sorters() {
        for (name, a) in [
            ("mergesort", Algorithm::MergeSort),
            ("updown-mergesort", Algorithm::UpDownMergeSort),
        ] {
            let c = parse(&v(&["sort", "a", "b", "--algo", name])).unwrap();
            assert!(
                matches!(c, Command::Sort { algo: Algo::Sorter(x), .. } if x == a),
                "{name}"
            );
        }
        // up/down run formation is its own table entry, not an option
        assert!(parse(&v(&["sort", "a", "b", "--run-gen", "updown"])).is_err());
    }

    #[test]
    fn parses_sort_with_defaults_and_flags() {
        let c = parse(&v(&["sort", "a", "b"])).unwrap();
        match c {
            Command::Sort {
                geo,
                algo,
                scratch,
                stats,
                threads,
                ..
            } => {
                assert_eq!(geo, Geometry::default());
                assert_eq!(algo, Algo::Auto);
                assert!(scratch.is_none());
                assert!(stats.is_none());
                assert_eq!(threads, 1, "sequential kernels by default");
            }
            _ => panic!(),
        }
        let c = parse(&v(&[
            "sort",
            "a",
            "b",
            "--disks",
            "8",
            "--b",
            "32",
            "--algo",
            "seven-pass",
            "--scratch",
            "/tmp/x",
            "--stats",
            "s.jsonl",
        ]))
        .unwrap();
        match c {
            Command::Sort {
                geo,
                algo,
                scratch,
                stats,
                ..
            } => {
                assert_eq!(geo, Geometry { disks: 8, b: 32 });
                assert_eq!(algo, Algo::Sorter(Algorithm::SevenPass));
                assert_eq!(scratch.as_deref(), Some("/tmp/x"));
                assert_eq!(stats.as_deref(), Some("s.jsonl"));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_fault_tolerance_flags() {
        let c = parse(&v(&[
            "sort",
            "a",
            "b",
            "--checkpoint-dir",
            "/tmp/ck",
            "--scratch",
            "/tmp/sc",
            "--resume",
            "--inject",
            "transient:42:10000",
            "--retry",
            "5",
            "--backoff",
            "3",
        ]))
        .unwrap();
        match c {
            Command::Sort {
                checkpoint_dir,
                resume,
                inject,
                retry,
                backoff,
                ..
            } => {
                assert_eq!(checkpoint_dir.as_deref(), Some("/tmp/ck"));
                assert!(resume);
                assert_eq!(inject.as_deref(), Some("transient:42:10000"));
                assert_eq!(retry, Some(5));
                assert_eq!(backoff, 3);
            }
            _ => panic!(),
        }
        // --resume without its prerequisites is rejected up front
        assert!(parse(&v(&["sort", "a", "b", "--resume"])).is_err());
        assert!(parse(&v(&["sort", "a", "b", "--resume", "--scratch", "/tmp/x"])).is_err());
        assert!(parse(&v(&[
            "sort",
            "a",
            "b",
            "--resume",
            "--checkpoint-dir",
            "/tmp/ck"
        ]))
        .is_err());
    }

    #[test]
    fn parses_threads_flag() {
        let c = parse(&v(&["sort", "a", "b", "--threads", "8"])).unwrap();
        assert!(matches!(c, Command::Sort { threads: 8, .. }));
        let c = parse(&v(&["sort", "a", "b", "--threads", "0"])).unwrap();
        assert!(matches!(c, Command::Sort { threads: 0, .. }));
        let c = parse(&v(&["compare", "f", "--threads", "4"])).unwrap();
        assert!(matches!(c, Command::Compare { threads: 4, .. }));
        assert!(parse(&v(&["sort", "a", "b", "--threads", "lots"])).is_err());
        assert!(parse(&v(&["sort", "a", "b", "--threads"])).is_err());
    }

    #[test]
    fn parses_overlap_flag() {
        let c = parse(&v(&["sort", "a", "b"])).unwrap();
        assert!(matches!(
            c,
            Command::Sort {
                overlap: Overlap::Auto,
                ..
            }
        ));
        let c = parse(&v(&["sort", "a", "b", "--overlap", "on"])).unwrap();
        assert!(matches!(
            c,
            Command::Sort {
                overlap: Overlap::On,
                ..
            }
        ));
        let c = parse(&v(&["sort", "a", "b", "--overlap", "off"])).unwrap();
        assert!(matches!(
            c,
            Command::Sort {
                overlap: Overlap::Off,
                ..
            }
        ));
        assert!(parse(&v(&["sort", "a", "b", "--overlap", "maybe"])).is_err());
        assert!(parse(&v(&["sort", "a", "b", "--overlap"])).is_err());
        for s in ["auto", "on", "off"] {
            let o: Overlap = s.parse().unwrap();
            assert_eq!(o.to_string(), s);
        }
    }

    #[test]
    fn parses_overlap_window_and_uring_flags() {
        let c = parse(&v(&["sort", "a", "b"])).unwrap();
        match c {
            Command::Sort {
                overlap_window,
                queue_depth,
                ..
            } => {
                assert_eq!(overlap_window, OverlapWindow::Default);
                assert!(queue_depth.is_none());
            }
            _ => panic!(),
        }
        let c = parse(&v(&["sort", "a", "b", "--overlap-window", "96"])).unwrap();
        assert!(matches!(
            c,
            Command::Sort {
                overlap_window: OverlapWindow::Blocks(96),
                ..
            }
        ));
        // 0 blocks clamps to the 1-block minimum instead of erroring.
        let c = parse(&v(&["sort", "a", "b", "--overlap-window", "0"])).unwrap();
        assert!(matches!(
            c,
            Command::Sort {
                overlap_window: OverlapWindow::Blocks(1),
                ..
            }
        ));
        assert!(parse(&v(&["sort", "a", "b", "--overlap-window", "wide"])).is_err());
        assert!(parse(&v(&["sort", "a", "b", "--overlap-window"])).is_err());
        let c = parse(&v(&[
            "sort",
            "a",
            "b",
            "--storage",
            "async-file",
            "--queue-depth",
            "64",
        ]))
        .unwrap();
        assert!(matches!(
            c,
            Command::Sort {
                queue_depth: Some(64),
                ..
            }
        ));
        assert!(parse(&v(&["sort", "a", "b", "--queue-depth", "0"])).is_err());
        assert!(parse(&v(&["sort", "a", "b", "--queue-depth"])).is_err());
        for s in ["default", "17"] {
            let w: OverlapWindow = s.parse().unwrap();
            assert_eq!(w.to_string(), s);
        }
    }

    #[test]
    fn parses_storage_flag() {
        let c = parse(&v(&["sort", "a", "b"])).unwrap();
        assert!(matches!(
            c,
            Command::Sort {
                storage: BackendKind::File,
                ..
            }
        ));
        for (s, kind) in [
            ("mem", BackendKind::Mem),
            ("file", BackendKind::File),
            ("threaded", BackendKind::Threaded),
            ("async-file", BackendKind::AsyncFile),
        ] {
            let c = parse(&v(&["sort", "a", "b", "--storage", s])).unwrap();
            match c {
                Command::Sort { storage, .. } => assert_eq!(storage, kind),
                _ => panic!(),
            }
        }
        assert!(parse(&v(&["sort", "a", "b", "--storage", "floppy"])).is_err());
        assert!(parse(&v(&["sort", "a", "b", "--storage"])).is_err());
        // RAM backends cannot take a scratch dir or resume
        assert!(parse(&v(&[
            "sort",
            "a",
            "b",
            "--storage",
            "mem",
            "--scratch",
            "/tmp/x"
        ]))
        .is_err());
        assert!(parse(&v(&[
            "sort",
            "a",
            "b",
            "--storage",
            "threaded",
            "--checkpoint-dir",
            "/tmp/ck",
            "--scratch",
            "/tmp/x",
            "--resume",
        ]))
        .is_err());
        // ...but the file-backed ones can
        assert!(parse(&v(&[
            "sort",
            "a",
            "b",
            "--storage",
            "async-file",
            "--scratch",
            "/tmp/x",
        ]))
        .is_ok());
    }

    #[test]
    fn parses_trace_out_flag() {
        let c = parse(&v(&["sort", "a", "b"])).unwrap();
        match c {
            Command::Sort { trace_out, .. } => assert!(trace_out.is_none()),
            _ => panic!(),
        }
        let c = parse(&v(&["sort", "a", "b", "--trace-out", "t.json"])).unwrap();
        match c {
            Command::Sort { trace_out, .. } => assert_eq!(trace_out.as_deref(), Some("t.json")),
            _ => panic!(),
        }
        assert!(parse(&v(&["sort", "a", "b", "--trace-out"])).is_err());
    }

    #[test]
    fn parses_report() {
        assert_eq!(
            parse(&v(&["report", "s.json"])).unwrap(),
            Command::Report {
                stats: "s.json".into()
            }
        );
        assert!(parse(&v(&["report"])).is_err());
    }

    #[test]
    fn parses_verify_info_help() {
        assert_eq!(
            parse(&v(&["verify", "f"])).unwrap(),
            Command::Verify {
                file: "f".into(),
                input: None
            }
        );
        assert_eq!(
            parse(&v(&["verify", "f", "--input", "in"])).unwrap(),
            Command::Verify {
                file: "f".into(),
                input: Some("in".into())
            }
        );
        assert!(parse(&v(&["verify", "f", "g"])).is_err());
        assert!(parse(&v(&["verify", "f", "--input"])).is_err());
        assert!(matches!(
            parse(&v(&["info"])).unwrap(),
            Command::Info { .. }
        ));
        assert!(matches!(
            parse(&v(&["compare", "f", "--b", "16"])).unwrap(),
            Command::Compare { .. }
        ));
        assert!(parse(&v(&["compare"])).is_err());
        assert_eq!(parse(&v(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&v(&["gen", "x.keys"])).is_err());
        assert!(parse(&v(&["gen", "ten", "x"])).is_err());
        assert!(parse(&v(&["sort", "a"])).is_err());
        assert!(parse(&v(&["sort", "a", "b", "--algo", "bogosort"])).is_err());
        assert!(parse(&v(&["frobnicate"])).is_err());
        assert!(parse(&v(&["gen", "1", "x", "--dist"])).is_err());
    }

    #[test]
    fn unknown_flags_are_named_not_taken_as_positionals() {
        for (args, flag) in [
            (&["gen", "10", "x.keys", "--sed", "7"][..], "--sed"),
            (
                &["sort", "in.keys", "out.keys", "--events", "e.jsonl"],
                "--events",
            ),
            (&["sort", "in.keys", "--events", "out.keys"], "--events"),
            (&["compare", "in.keys", "--events", "e.jsonl"], "--events"),
            (&["verify", "out.keys", "--inputs", "in.keys"], "--inputs"),
            (&["info", "--events"], "--events"),
        ] {
            assert_eq!(
                parse(&v(args)),
                Err(format!("unknown flag {flag}")),
                "{args:?}"
            );
        }
    }

    #[test]
    fn dist_and_algo_round_trip_strings() {
        for s in [
            "random",
            "permutation",
            "reversed",
            "sorted",
            "zipf",
            "nearly-sorted",
            "dup-heavy",
        ] {
            assert!(s.parse::<Dist>().is_ok());
        }
        for s in [
            "auto",
            "in-memory",
            "three-pass1",
            "exp-two-pass-mesh",
            "three-pass2",
            "expected-two-pass",
            "expected-three-pass",
            "seven-pass",
            "expected-six-pass",
            "radix",
            "mergesort",
            "updown-mergesort",
        ] {
            let a: Algo = s.parse().unwrap();
            assert_eq!(a.to_string(), s);
        }
        // the ranked bounded-integer sort has no CLI entry point
        assert!("integer-sort".parse::<Algo>().is_err());
        // ...and every forceable table name is documented
        for a in Algorithm::ALL
            .into_iter()
            .filter(|&a| a != Algorithm::IntegerSort)
        {
            assert!(USAGE.contains(a.name()), "USAGE misses {}", a.name());
        }
        let err = "bogosort".parse::<Algo>().unwrap_err();
        assert!(
            err.contains("seven-pass") && err.contains("mergesort"),
            "{err}"
        );
    }
}
