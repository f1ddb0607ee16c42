//! Binary key files: streaming read/write with bounded buffers (the CLI
//! must not slurp a file the simulator is proud of sorting out-of-core).
//!
//! Two on-disk layouts are accepted:
//!
//! * **bare** — a flat array of little-endian `u64` keys, the original
//!   format. Headerless files are always parsed as `u64` for back-compat.
//! * **`pdm-keys-v1`** — a 32-byte header (magic, record width, key-kind
//!   name) followed by a flat array of fixed-width records encoded with
//!   [`PdmKey::write_bytes`]. This is what non-`u64` key types (`tagged`
//!   key–payload records, `str24` string keys) use, and it lets `sort`,
//!   `verify`, and `compare` recover the key type from the file itself.
//!
//! Every reader validates the file's record width against `K::WIDTH` and
//! returns an `InvalidData` error naming the expected width on mismatch —
//! a `tagged` file fed to a `u64` sort fails loudly, not at key 0.

use pdm_model::prelude::PdmKey;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::marker::PhantomData;
use std::path::Path;

/// Keys per I/O buffer while streaming files.
pub const STREAM_KEYS: usize = 1 << 16;

/// Magic prefix of a `pdm-keys-v1` header.
pub const MAGIC: &[u8; 12] = b"pdm-keys-v1\n";

/// Total header length in bytes (magic + u32 width + NUL-padded kind name).
pub const HEADER_LEN: usize = 32;

/// What a key file claims to contain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyFileMeta {
    /// Key-kind name (`"u64"`, `"tagged"`, `"str24"`, …). Bare headerless
    /// files report `"u64"`.
    pub kind: String,
    /// Record width in bytes.
    pub width: usize,
    /// Bytes to skip before the first record (0 for bare files).
    pub header_len: usize,
}

impl KeyFileMeta {
    fn bare() -> Self {
        Self {
            kind: "u64".into(),
            width: 8,
            header_len: 0,
        }
    }
}

/// Read a file's key-type metadata. Files that don't start with the
/// `pdm-keys-v1` magic are bare little-endian `u64` (the v0 format).
pub fn read_meta(path: impl AsRef<Path>) -> io::Result<KeyFileMeta> {
    let mut f = File::open(path)?;
    let mut head = [0u8; HEADER_LEN];
    let mut filled = 0usize;
    while filled < HEADER_LEN {
        match f.read(&mut head[filled..])? {
            0 => break,
            k => filled += k,
        }
    }
    if filled < HEADER_LEN || &head[..MAGIC.len()] != MAGIC {
        return Ok(KeyFileMeta::bare());
    }
    let width = u32::from_le_bytes(head[12..16].try_into().unwrap()) as usize;
    let name_bytes = &head[16..28];
    let end = name_bytes
        .iter()
        .position(|&b| b == 0)
        .unwrap_or(name_bytes.len());
    let kind = String::from_utf8_lossy(&name_bytes[..end]).into_owned();
    if width == 0 || kind.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed pdm-keys-v1 header (zero width or empty kind)",
        ));
    }
    Ok(KeyFileMeta {
        kind,
        width,
        header_len: HEADER_LEN,
    })
}

/// Validate that the file's records match `K`; returns the metadata.
fn expect_width<K: PdmKey>(path: impl AsRef<Path>) -> io::Result<KeyFileMeta> {
    let path = path.as_ref();
    let meta = read_meta(path)?;
    if meta.width != K::WIDTH {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "key file holds {}-byte '{}' records, expected {}-byte records \
                 (pass the matching --key, or regenerate the file)",
                meta.width,
                meta.kind,
                K::WIDTH
            ),
        ));
    }
    let len = std::fs::metadata(path)?.len();
    let payload = len.saturating_sub(meta.header_len as u64);
    if payload % K::WIDTH as u64 != 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "payload size {payload} is not a multiple of the {}-byte record width",
                K::WIDTH
            ),
        ));
    }
    Ok(meta)
}

/// Number of keys in a key file (errors if the payload size is not a
/// multiple of `K::WIDTH`, or if the file's header names a different
/// record width).
pub fn count_keys<K: PdmKey>(path: impl AsRef<Path>) -> io::Result<usize> {
    let path = path.as_ref();
    let meta = expect_width::<K>(path)?;
    let len = std::fs::metadata(path)?.len();
    Ok(((len - meta.header_len as u64) / K::WIDTH as u64) as usize)
}

/// Stream a key file through `f` in chunks of at most [`STREAM_KEYS`] keys.
pub fn for_each_chunk<K: PdmKey>(
    path: impl AsRef<Path>,
    mut f: impl FnMut(&[K]) -> io::Result<()>,
) -> io::Result<usize> {
    let path = path.as_ref();
    let meta = expect_width::<K>(path)?;
    let file = File::open(path)?;
    let mut rd = BufReader::new(file);
    if meta.header_len > 0 {
        let mut skip = vec![0u8; meta.header_len];
        rd.read_exact(&mut skip)?;
    }
    let w = K::WIDTH;
    let mut bytes = vec![0u8; STREAM_KEYS * w];
    let mut keys: Vec<K> = Vec::with_capacity(STREAM_KEYS);
    let mut total = 0usize;
    loop {
        let mut filled = 0usize;
        // read_exact-ish loop tolerating short reads at EOF
        while filled < bytes.len() {
            match rd.read(&mut bytes[filled..])? {
                0 => break,
                k => filled += k,
            }
        }
        if filled == 0 {
            break;
        }
        if filled % w != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("trailing partial record (expected {w}-byte records)"),
            ));
        }
        let n = filled / w;
        keys.clear();
        for i in 0..n {
            keys.push(K::read_bytes(&bytes[i * w..(i + 1) * w]));
        }
        f(&keys[..n])?;
        total += n;
        if filled < bytes.len() {
            break;
        }
    }
    Ok(total)
}

/// An incremental key-file writer.
pub struct KeyFileWriter<K: PdmKey> {
    w: BufWriter<File>,
    written: usize,
    buf: [u8; 64],
    _k: PhantomData<K>,
}

impl<K: PdmKey> KeyFileWriter<K> {
    /// Create/truncate `path`. `kind` is the key-kind name recorded in the
    /// header; `"u64"` files are written **bare** (no header) so the v0
    /// flat-LE-`u64` format stays byte-identical.
    pub fn create(path: impl AsRef<Path>, kind: &str) -> io::Result<Self> {
        assert!(K::WIDTH <= 64, "encode buffer caps records at 64 bytes");
        let mut w = BufWriter::new(File::create(path)?);
        if kind != "u64" {
            let mut head = [0u8; HEADER_LEN];
            head[..MAGIC.len()].copy_from_slice(MAGIC);
            head[12..16].copy_from_slice(&(K::WIDTH as u32).to_le_bytes());
            let name = kind.as_bytes();
            assert!(name.len() <= 12, "key-kind name caps at 12 bytes");
            head[16..16 + name.len()].copy_from_slice(name);
            w.write_all(&head)?;
        }
        Ok(Self {
            w,
            written: 0,
            buf: [0u8; 64],
            _k: PhantomData,
        })
    }

    /// Append keys.
    pub fn write_keys(&mut self, keys: &[K]) -> io::Result<()> {
        for k in keys {
            k.write_bytes(&mut self.buf[..K::WIDTH]);
            self.w.write_all(&self.buf[..K::WIDTH])?;
        }
        self.written += keys.len();
        Ok(())
    }

    /// Flush and return the key count.
    pub fn finish(mut self) -> io::Result<usize> {
        self.w.flush()?;
        Ok(self.written)
    }
}

/// Whether the file's keys are non-decreasing; returns
/// `(sorted, key_count, first_violation_index)`.
pub fn check_sorted<K: PdmKey>(path: impl AsRef<Path>) -> io::Result<(bool, usize, Option<usize>)> {
    let mut prev: Option<K> = None;
    let mut idx = 0usize;
    let mut violation = None;
    let total = for_each_chunk::<K>(path, |keys| {
        for &k in keys {
            if violation.is_none() {
                if let Some(p) = prev {
                    if k < p {
                        violation = Some(idx);
                    }
                }
            }
            prev = Some(k);
            idx += 1;
        }
        Ok(())
    })?;
    Ok((violation.is_none(), total, violation))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_model::prelude::{StrN, Tagged};

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("pdmcli-{}-{}", std::process::id(), name))
    }

    #[test]
    fn round_trip_small() {
        let p = tmp("rt");
        let mut w = KeyFileWriter::<u64>::create(&p, "u64").unwrap();
        w.write_keys(&[3, 1, 4, 1, 5]).unwrap();
        assert_eq!(w.finish().unwrap(), 5);
        assert_eq!(count_keys::<u64>(&p).unwrap(), 5);
        let mut got = Vec::new();
        let n = for_each_chunk::<u64>(&p, |ks| {
            got.extend_from_slice(ks);
            Ok(())
        })
        .unwrap();
        assert_eq!(n, 5);
        assert_eq!(got, vec![3, 1, 4, 1, 5]);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn u64_files_stay_bare_for_back_compat() {
        let p = tmp("bare");
        let mut w = KeyFileWriter::<u64>::create(&p, "u64").unwrap();
        w.write_keys(&[7, 8]).unwrap();
        w.finish().unwrap();
        // v0 layout: 16 raw bytes, no header, little-endian.
        let bytes = std::fs::read(&p).unwrap();
        assert_eq!(bytes.len(), 16);
        assert_eq!(&bytes[..8], &7u64.to_le_bytes());
        let meta = read_meta(&p).unwrap();
        assert_eq!(
            meta,
            KeyFileMeta {
                kind: "u64".into(),
                width: 8,
                header_len: 0
            }
        );
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn tagged_files_carry_a_header() {
        let p = tmp("tagged");
        let data: Vec<Tagged> = (0..100).map(|i| Tagged::new(99 - i, i)).collect();
        let mut w = KeyFileWriter::<Tagged>::create(&p, "tagged").unwrap();
        w.write_keys(&data).unwrap();
        w.finish().unwrap();

        let meta = read_meta(&p).unwrap();
        assert_eq!(meta.kind, "tagged");
        assert_eq!(meta.width, 16);
        assert_eq!(meta.header_len, HEADER_LEN);
        assert_eq!(count_keys::<Tagged>(&p).unwrap(), 100);

        let mut got = Vec::new();
        for_each_chunk::<Tagged>(&p, |ks| {
            got.extend_from_slice(ks);
            Ok(())
        })
        .unwrap();
        assert_eq!(got, data);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn strn_files_round_trip_and_sort_check() {
        type S = StrN<24>;
        let p = tmp("strn");
        let data: Vec<S> = ["apple", "banana", "cherry"]
            .iter()
            .map(|s| S::from_str_padded(s))
            .collect();
        let mut w = KeyFileWriter::<S>::create(&p, "str24").unwrap();
        w.write_keys(&data).unwrap();
        w.finish().unwrap();
        assert_eq!(read_meta(&p).unwrap().width, 24);
        assert_eq!(check_sorted::<S>(&p).unwrap(), (true, 3, None));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn width_mismatch_is_a_clear_invalid_data_error() {
        let p = tmp("mismatch");
        let mut w = KeyFileWriter::<Tagged>::create(&p, "tagged").unwrap();
        w.write_keys(&[Tagged::new(1, 2)]).unwrap();
        w.finish().unwrap();

        let err = count_keys::<u64>(&p).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("16-byte 'tagged'"), "message: {msg}");
        assert!(msg.contains("expected 8-byte"), "message: {msg}");

        let err2 = for_each_chunk::<u64>(&p, |_| Ok(())).unwrap_err();
        assert_eq!(err2.kind(), io::ErrorKind::InvalidData);

        // And the reverse direction: a bare u64 file fed to a Tagged reader.
        let q = tmp("mismatch2");
        let mut w = KeyFileWriter::<u64>::create(&q, "u64").unwrap();
        w.write_keys(&[1, 2, 3, 4]).unwrap();
        w.finish().unwrap();
        let err3 = count_keys::<Tagged>(&q).unwrap_err();
        assert_eq!(err3.kind(), io::ErrorKind::InvalidData);
        assert!(err3.to_string().contains("expected 16-byte"), "{err3}");
        std::fs::remove_file(&p).ok();
        std::fs::remove_file(&q).ok();
    }

    #[test]
    fn round_trip_larger_than_buffer() {
        let p = tmp("big");
        let data: Vec<u64> = (0..(STREAM_KEYS * 2 + 17) as u64).collect();
        let mut w = KeyFileWriter::<u64>::create(&p, "u64").unwrap();
        for chunk in data.chunks(1000) {
            w.write_keys(chunk).unwrap();
        }
        w.finish().unwrap();
        let mut got = Vec::new();
        for_each_chunk::<u64>(&p, |ks| {
            got.extend_from_slice(ks);
            Ok(())
        })
        .unwrap();
        assert_eq!(got, data);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn check_sorted_detects_violations() {
        let p = tmp("sorted");
        let mut w = KeyFileWriter::<u64>::create(&p, "u64").unwrap();
        w.write_keys(&[1, 2, 3, 4]).unwrap();
        w.finish().unwrap();
        assert_eq!(check_sorted::<u64>(&p).unwrap(), (true, 4, None));

        let mut w = KeyFileWriter::<u64>::create(&p, "u64").unwrap();
        w.write_keys(&[1, 2, 0, 4]).unwrap();
        w.finish().unwrap();
        assert_eq!(check_sorted::<u64>(&p).unwrap(), (false, 4, Some(2)));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn ragged_file_rejected() {
        let p = tmp("ragged");
        std::fs::write(&p, [1u8, 2, 3]).unwrap();
        assert!(count_keys::<u64>(&p).is_err());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn empty_file_is_fine() {
        let p = tmp("empty");
        std::fs::write(&p, []).unwrap();
        assert_eq!(count_keys::<u64>(&p).unwrap(), 0);
        assert_eq!(check_sorted::<u64>(&p).unwrap(), (true, 0, None));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn truncated_header_only_file_errors_for_nonzero_payload() {
        // A headered file whose payload is cut mid-record.
        let p = tmp("cut");
        let mut w = KeyFileWriter::<Tagged>::create(&p, "tagged").unwrap();
        w.write_keys(&[Tagged::new(1, 1), Tagged::new(2, 2)])
            .unwrap();
        w.finish().unwrap();
        let full = std::fs::read(&p).unwrap();
        std::fs::write(&p, &full[..full.len() - 5]).unwrap();
        assert!(count_keys::<Tagged>(&p).is_err());
        std::fs::remove_file(&p).ok();
    }
}
