//! Pass-level checkpoint and resume.
//!
//! The paper's algorithms are *pass-structured*: after every pass the whole
//! dataset is settled on disk, and the machine brackets passes with
//! [`crate::machine::Pdm::begin_phase`] / `end_phase`. That makes phase
//! boundaries natural checkpoints — the on-disk region state between
//! phases is the recovery unit (the run-persistence discipline of external
//! sorters). This module supplies:
//!
//! * [`Manifest`] — what a completed-pass checkpoint records: machine
//!   geometry, the input digest and length, the completed-pass index, the
//!   region layout, and the completed phase names. The layout is the slot
//!   high-water mark (`frontier`) and the free list of released levels:
//!   the machine places each region in the lowest free range that fits,
//!   else at the frontier, so those two plus the algorithm's deterministic
//!   sequence of allocations and releases reproduce every region.
//! * [`CheckpointStore`] — atomic manifest persistence: write to a temp
//!   file, fsync, rename over `latest.ckpt`, fsync the directory. A crash
//!   at any point leaves either the old or the new manifest, never a torn
//!   one.
//! * [`Checkpoint`] — the trait [`crate::machine::Pdm`] implements:
//!   attach a store (optionally resuming from a manifest) and the machine
//!   emits a manifest at every `end_phase` and *replays* already-completed
//!   phases without touching storage.
//!
//! Manifests use a deliberately tiny line-based text format (`key = value`,
//! one per line, `phase =` repeated) rather than JSON: it is stable,
//! greppable, and needs no serializer. See ARCHITECTURE.md §7.
//!
//! ## Resume model and its limits
//!
//! Resume replays the algorithm from the start with storage I/O and stats
//! elided for the first `completed` phases; reads during replay return
//! `K::MAX` filler. This is only sound for algorithms whose *control flow,
//! allocations and releases do not depend on the data read* — the
//! deterministic oblivious sorts (three-pass, seven-pass, columnsort,
//! mergesort over fixed runs). Algorithms that branch on key values
//! (integer/radix bucket counts, the expected sorts' abort check, up/down
//! run formation) are not resumable and must be gated off by the caller;
//! the CLI does so.
//!
//! A released region's levels become reusable only once a durable
//! manifest records the release. Re-running phase `k` after a crash reads
//! what phase `k` read, and the run a resume starts from never wrote over
//! it: the levels phase `k` frees are written only after manifest `k`
//! holds. When a save fails, the levels released since the last durable
//! manifest stay unused for the rest of the run.

use std::fs;
use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::config::PdmConfig;
use crate::error::{PdmError, Result};

/// Magic first line of a manifest file; bump the suffix on format changes.
const MAGIC: &str = "pdm-checkpoint-v2";

/// The format before the free list, which this build refuses to resume.
const MAGIC_V1: &str = "pdm-checkpoint-v1";

/// Everything a resumed run needs to know about a prior partial run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Algorithm label (the CLI's `--algo` value); a resume under a
    /// different algorithm is refused.
    pub algo: String,
    /// Disks `D` of the machine that wrote the checkpoint.
    pub num_disks: usize,
    /// Block size `B` in keys.
    pub block_size: usize,
    /// Internal memory `M` in keys.
    pub mem_capacity: usize,
    /// Input length in keys.
    pub num_keys: usize,
    /// FNV-1a digest of the raw input bytes (see [`fnv1a`]).
    pub digest: u64,
    /// Number of phases fully completed (and settled on disk).
    pub completed: usize,
    /// The machine's slot high-water mark (`next_slot`) when the last
    /// completed phase closed — verified against the replayed frontier
    /// when the last replayed phase closes, to catch allocation drift.
    pub frontier: usize,
    /// The released slot levels below `frontier` that allocation may
    /// reuse, as sorted, coalesced ranges — verified like `frontier`.
    pub free: Vec<Range<usize>>,
    /// Names of the completed phases, in order.
    pub phases: Vec<String>,
}

impl Manifest {
    /// The identity manifest of a fresh run: nothing completed, nothing
    /// allocated.
    pub fn new(algo: &str, cfg: &PdmConfig, num_keys: usize, digest: u64) -> Self {
        Manifest {
            algo: algo.into(),
            num_disks: cfg.num_disks,
            block_size: cfg.block_size,
            mem_capacity: cfg.mem_capacity,
            num_keys,
            digest,
            completed: 0,
            frontier: 0,
            free: Vec::new(),
            phases: Vec::new(),
        }
    }

    /// Serialize to the line-based manifest text.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str(MAGIC);
        s.push('\n');
        s.push_str(&format!("algo = {}\n", self.algo));
        s.push_str(&format!("disks = {}\n", self.num_disks));
        s.push_str(&format!("block = {}\n", self.block_size));
        s.push_str(&format!("mem = {}\n", self.mem_capacity));
        s.push_str(&format!("keys = {}\n", self.num_keys));
        s.push_str(&format!("digest = {:016x}\n", self.digest));
        s.push_str(&format!("completed = {}\n", self.completed));
        s.push_str(&format!("frontier = {}\n", self.frontier));
        let free: Vec<String> = self
            .free
            .iter()
            .map(|r| format!("{}..{}", r.start, r.end))
            .collect();
        s.push_str(&format!("free = {}\n", free.join(" ")));
        for p in &self.phases {
            s.push_str(&format!("phase = {p}\n"));
        }
        s
    }

    /// Parse manifest text (strict: unknown or missing keys are errors,
    /// so a truncated manifest never half-loads).
    pub fn from_text(text: &str) -> Result<Self> {
        let bad = |msg: &str| PdmError::BadConfig(format!("checkpoint manifest: {msg}"));
        let mut lines = text.lines();
        match lines.next() {
            Some(MAGIC) => {}
            Some(MAGIC_V1) => {
                return Err(bad(&format!(
                    "{MAGIC_V1} predates the free list; this build reads {MAGIC} \
                     (start a fresh run)"
                )))
            }
            _ => return Err(bad("missing or wrong magic line")),
        }
        let mut algo = None;
        let mut free = None;
        const KEYS: [&str; 6] = ["disks", "block", "mem", "keys", "completed", "frontier"];
        let mut nums: [Option<usize>; 6] = [None; 6];
        let mut phases = Vec::new();
        let mut digest = None;
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (k, v) = line
                .split_once('=')
                .ok_or_else(|| bad("line without '='"))?;
            let (k, v) = (k.trim(), v.trim());
            match k {
                "algo" => algo = Some(v.to_string()),
                "phase" => phases.push(v.to_string()),
                "free" => {
                    let range = |r: &str| {
                        let (a, b) = r.split_once("..")?;
                        Some(a.parse().ok()?..b.parse().ok()?)
                    };
                    let ranges: Option<Vec<Range<usize>>> =
                        v.split_whitespace().map(range).collect();
                    free = Some(ranges.ok_or_else(|| bad("free list not ranges a..b"))?);
                }
                "digest" => {
                    digest = Some(u64::from_str_radix(v, 16).map_err(|_| bad("digest not hex"))?);
                }
                _ => {
                    let i = KEYS
                        .iter()
                        .position(|&n| n == k)
                        .ok_or_else(|| bad("unknown key"))?;
                    nums[i] = Some(v.parse::<usize>().map_err(|_| bad("value not a number"))?);
                }
            }
        }
        let take = |i: usize| nums[i].ok_or_else(|| bad("missing required key"));
        let m = Manifest {
            algo: algo.ok_or_else(|| bad("missing algo"))?,
            num_disks: take(0)?,
            block_size: take(1)?,
            mem_capacity: take(2)?,
            num_keys: take(3)?,
            digest: digest.ok_or_else(|| bad("missing digest"))?,
            completed: take(4)?,
            frontier: take(5)?,
            free: free.ok_or_else(|| bad("missing free list"))?,
            phases,
        };
        if m.phases.len() != m.completed {
            return Err(bad("phase list length disagrees with completed count"));
        }
        Ok(m)
    }

    /// Refuse to resume against a machine or input that differs from the
    /// one that wrote the checkpoint.
    pub fn check_compatible(
        &self,
        algo: &str,
        cfg: &PdmConfig,
        num_keys: usize,
        digest: u64,
    ) -> Result<()> {
        let mismatch = |what: &str| {
            PdmError::BadConfig(format!(
                "checkpoint does not match this run: {what} differs"
            ))
        };
        if self.algo != algo {
            return Err(mismatch("algorithm"));
        }
        if self.num_disks != cfg.num_disks
            || self.block_size != cfg.block_size
            || self.mem_capacity != cfg.mem_capacity
        {
            return Err(mismatch("machine geometry"));
        }
        if self.num_keys != num_keys {
            return Err(mismatch("input length"));
        }
        if self.digest != digest {
            return Err(mismatch("input digest"));
        }
        Ok(())
    }
}

/// FNV-1a over raw bytes; feed chunks in order via fold. Used to fingerprint
/// the input so a checkpoint is never resumed against different data.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = state;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// The FNV-1a offset basis: the initial `state` for [`fnv1a`].
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Atomic manifest persistence in a directory.
///
/// The store keeps one `latest.ckpt` (the resume point) plus a
/// `pass-<k>.ckpt` history. Writes go through a temp file + fsync +
/// rename + directory fsync, so a crash mid-checkpoint leaves the
/// previous manifest intact.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Open (creating if needed) a checkpoint directory.
    pub fn create(dir: impl AsRef<Path>) -> Result<Self> {
        fs::create_dir_all(dir.as_ref())?;
        Ok(Self {
            dir: dir.as_ref().to_path_buf(),
        })
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn write_atomic(&self, name: &str, text: &str) -> Result<()> {
        let tmp = self.dir.join(format!("{name}.tmp"));
        let fin = self.dir.join(name);
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &fin)?;
        // Persist the rename itself: fsync the directory entry.
        fs::File::open(&self.dir)?.sync_all()?;
        Ok(())
    }

    /// Persist `m` as both `pass-<completed>.ckpt` and `latest.ckpt`,
    /// atomically.
    pub fn save(&self, m: &Manifest) -> Result<()> {
        let text = m.to_text();
        self.write_atomic(&format!("pass-{}.ckpt", m.completed), &text)?;
        self.write_atomic("latest.ckpt", &text)
    }

    /// Remove the manifests this store writes (`latest.ckpt` and every
    /// `pass-<k>.ckpt`) and nothing else, so a fresh run cannot leave an
    /// earlier run's manifest for a later resume to trust.
    pub fn clear(&self) -> Result<()> {
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            let pass = name
                .strip_prefix("pass-")
                .and_then(|k| k.strip_suffix(".ckpt"));
            if name == "latest.ckpt" || pass.is_some_and(|k| k.parse::<usize>().is_ok()) {
                fs::remove_file(self.dir.join(&*name))?;
            }
        }
        fs::File::open(&self.dir)?.sync_all()?;
        Ok(())
    }

    /// Load the most recent manifest, or `None` if the directory holds no
    /// checkpoint yet.
    pub fn load_latest(&self) -> Result<Option<Manifest>> {
        let path = self.dir.join("latest.ckpt");
        match fs::read_to_string(&path) {
            Ok(text) => Manifest::from_text(&text).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

/// Checkpoint/resume surface of a PDM machine (implemented by
/// [`crate::machine::Pdm`]).
pub trait Checkpoint {
    /// Attach a checkpoint store driven by `manifest`. With
    /// `manifest.completed == 0` (a fresh identity manifest) the machine
    /// starts from scratch and emits a manifest at every phase close.
    /// With `completed > 0` (a manifest loaded from a store, after
    /// [`Manifest::check_compatible`]) the machine additionally *replays*
    /// that many phases without performing storage I/O or charging stats,
    /// then goes live — the caller must have reopened the storage that
    /// holds the completed passes' on-disk state. Replay returns `K::MAX`
    /// filler from reads, so it is only sound for algorithms whose
    /// control flow, phase structure, and allocation and release order are
    /// data-independent. Overlap I/O composes: replayed phases hand out
    /// filler tokens, and live phases must drain every pending
    /// read/write before the phase ends or the boundary defers
    /// [`PdmError::PendingIo`] instead of persisting a stale manifest.
    fn attach_checkpoint(&mut self, store: CheckpointStore, manifest: Manifest);

    /// A checkpoint failure deferred from an infallible phase boundary
    /// (manifest write error, frontier or free-list drift detected when
    /// the last replayed phase closes, or overlap I/O still pending at the
    /// boundary —
    /// [`PdmError::PendingIo`]). Sorting is unaffected; callers decide
    /// whether a failed checkpoint is fatal. Clears on read.
    fn take_checkpoint_error(&mut self) -> Option<PdmError>;

    /// Phases completed so far in checkpoint terms: replayed phases plus
    /// live phases closed since.
    fn completed_phases(&self) -> usize;

    /// Phases that were replayed (skipped) rather than executed.
    fn skipped_phases(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Manifest {
        let cfg = PdmConfig::new(4, 16, 256);
        let mut m = Manifest::new("threepass2", &cfg, 4096, 0xDEAD_BEEF_1234_5678);
        m.completed = 2;
        m.frontier = 192;
        m.free = vec![16..64, 80..96];
        m.phases = vec!["runs+unshuffle".into(), "column-merge".into()];
        m
    }

    #[test]
    fn manifest_round_trips_through_text() {
        let m = manifest();
        let back = Manifest::from_text(&m.to_text()).unwrap();
        assert_eq!(back, m);
        assert!(m.to_text().contains("free = 16..64 80..96\n"));
        let fresh = Manifest::new("x", &PdmConfig::new(2, 8, 64), 1, 2);
        assert_eq!(
            Manifest::from_text(&fresh.to_text()).unwrap(),
            fresh,
            "empty free list"
        );
    }

    #[test]
    fn a_v1_manifest_is_refused_naming_both_versions() {
        let v1 = manifest()
            .to_text()
            .replace(MAGIC, MAGIC_V1)
            .replace("free = 16..64 80..96\n", "");
        let e = Manifest::from_text(&v1).unwrap_err().to_string();
        assert!(
            e.contains("pdm-checkpoint-v1") && e.contains("pdm-checkpoint-v2"),
            "{e}"
        );
    }

    #[test]
    fn truncated_or_corrupt_manifests_are_rejected() {
        let m = manifest();
        let text = m.to_text();
        // magic torn off
        assert!(Manifest::from_text(&text[5..]).is_err());
        // manifest torn off mid-write
        let torn = &text[..text.len() / 3];
        assert!(Manifest::from_text(torn).is_err());
        // a torn-off phase line disagrees with the completed count
        let no_phase = text.replace("phase = column-merge\n", "");
        assert!(Manifest::from_text(&no_phase).is_err());
        // unknown key
        let mut junk = text.clone();
        junk.push_str("surprise = 1\n");
        assert!(Manifest::from_text(&junk).is_err());
        // a missing or malformed free list
        assert!(Manifest::from_text(&text.replace("free = 16..64 80..96\n", "")).is_err());
        assert!(Manifest::from_text(&text.replace("16..64", "16-64")).is_err());
    }

    #[test]
    fn compatibility_check_catches_each_mismatch() {
        let m = manifest();
        let cfg = PdmConfig::new(4, 16, 256);
        assert!(m
            .check_compatible("threepass2", &cfg, 4096, m.digest)
            .is_ok());
        assert!(m
            .check_compatible("sevenpass", &cfg, 4096, m.digest)
            .is_err());
        assert!(m
            .check_compatible("threepass2", &PdmConfig::new(2, 16, 256), 4096, m.digest)
            .is_err());
        assert!(m
            .check_compatible("threepass2", &cfg, 4097, m.digest)
            .is_err());
        assert!(m.check_compatible("threepass2", &cfg, 4096, 1).is_err());
    }

    #[test]
    fn store_saves_and_reloads_latest() {
        let dir = std::env::temp_dir().join(format!("pdm-ckpt-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::create(&dir).unwrap();
        assert!(store.load_latest().unwrap().is_none());
        let mut m = manifest();
        store.save(&m).unwrap();
        m.completed = 3;
        m.phases.push("cleanup".into());
        store.save(&m).unwrap();
        let latest = store.load_latest().unwrap().unwrap();
        assert_eq!(latest.completed, 3);
        // per-pass history retained
        assert!(dir.join("pass-2.ckpt").exists());
        assert!(dir.join("pass-3.ckpt").exists());
        // no temp litter left behind
        assert!(!dir.join("latest.ckpt.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_removes_only_the_manifests() {
        let dir = std::env::temp_dir().join(format!("pdm-ckpt-clear-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::create(&dir).unwrap();
        let mut m = manifest();
        store.save(&m).unwrap();
        m.completed = 3;
        m.phases.push("cleanup".into());
        store.save(&m).unwrap();
        for other in ["notes.txt", "pass-x.ckpt", "disk-0.pdm"] {
            fs::write(dir.join(other), b"keep").unwrap();
        }
        store.clear().unwrap();
        assert!(store.load_latest().unwrap().is_none());
        assert!(!dir.join("pass-2.ckpt").exists() && !dir.join("pass-3.ckpt").exists());
        for other in ["notes.txt", "pass-x.ckpt", "disk-0.pdm"] {
            assert!(dir.join(other).exists(), "{other} was removed");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fnv1a_is_order_sensitive_and_chunk_invariant() {
        let whole = fnv1a(FNV_OFFSET, b"hello world");
        let split = fnv1a(fnv1a(FNV_OFFSET, b"hello "), b"world");
        assert_eq!(whole, split);
        assert_ne!(whole, fnv1a(FNV_OFFSET, b"world hello"));
    }
}
