//! An order-independent fingerprint of a key file's records, so that a
//! sort whose output is not a permutation of its input cannot exit 0.
//!
//! The fingerprint is the wrapping sum of a mixed 64-bit hash of each
//! record's key-file bytes, in the manner of the Sort Benchmark's
//! `valsort` checksum (<http://sortbenchmark.org>). A sum ignores the
//! order records arrive in, so staging can add the input and write-back
//! the output as each streams past; a dropped, duplicated or altered
//! record moves it. `sort` compares the two sides, and `verify --input`
//! compares two files.

use crate::keyfile;
use pdm_model::prelude::{fnv1a, PdmKey, FNV_OFFSET};
use pdm_model::rng::splitmix64;
use std::fmt;
use std::io::{self, Read};
use std::path::Path;

/// Wrapping sum of a mixed 64-bit hash of each record's key-file bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// Add one record, given as its key-file bytes: each 8-byte word
    /// (the last zero-padded) is mixed into a hash seeded by the width.
    #[inline]
    fn add_record(&mut self, bytes: &[u8]) {
        let mut h = bytes.len() as u64;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            h = splitmix64(h ^ u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        if !words.remainder().is_empty() {
            let mut w = [0u8; 8];
            w[..words.remainder().len()].copy_from_slice(words.remainder());
            h = splitmix64(h ^ u64::from_le_bytes(w));
        }
        self.0 = self.0.wrapping_add(h);
    }

    /// Add records, hashing the bytes each is written to a key file as.
    #[inline]
    pub fn add_keys<K: PdmKey>(&mut self, keys: &[K]) {
        let mut buf = [0u8; 64];
        let rec = &mut buf[..K::WIDTH];
        for k in keys {
            k.write_bytes(rec);
            self.add_record(rec);
        }
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One read of a key file: the FNV-1a digest of its raw bytes (header
/// included; what a checkpoint records as the input's identity), the
/// fingerprint of its records, and their count.
pub fn scan_file(path: impl AsRef<Path>) -> io::Result<(u64, Fingerprint, usize)> {
    let path = path.as_ref();
    let meta = keyfile::read_meta(path)?;
    let mut f = std::fs::File::open(path)?;
    let mut head = vec![0u8; meta.header_len];
    f.read_exact(&mut head)?;
    let mut digest = fnv1a(FNV_OFFSET, &head);
    let (mut fp, mut records) = (Fingerprint::default(), 0usize);
    let mut buf = vec![0u8; keyfile::STREAM_KEYS * meta.width];
    loop {
        let mut filled = 0;
        while filled < buf.len() {
            match f.read(&mut buf[filled..])? {
                0 => break,
                got => filled += got,
            }
        }
        if filled % meta.width != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "trailing partial record (expected {}-byte records)",
                    meta.width
                ),
            ));
        }
        digest = fnv1a(digest, &buf[..filled]);
        for rec in buf[..filled].chunks(meta.width) {
            fp.add_record(rec);
        }
        records += filled / meta.width;
        if filled < buf.len() {
            return Ok((digest, fp, records));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_model::prelude::Tagged;

    fn fp<K: PdmKey>(keys: &[K]) -> Fingerprint {
        let mut f = Fingerprint::default();
        f.add_keys(keys);
        f
    }

    #[test]
    fn ignores_order_and_catches_a_dropped_duplicated_or_altered_record() {
        let keys: Vec<u64> = (0..1000).map(|i| i * 7919 % 1009).collect();
        let base = fp(&keys);
        let mut shuffled = keys.clone();
        shuffled.reverse();
        shuffled.swap(3, 700);
        assert_eq!(fp(&shuffled), base, "order must not matter");
        // Split across calls, as staging and write-back stream it.
        let mut parts = Fingerprint::default();
        parts.add_keys(&keys[..333]);
        parts.add_keys(&keys[333..]);
        assert_eq!(parts, base);

        assert_ne!(fp(&keys[1..]), base, "dropped record");
        let mut dup = keys.clone();
        dup.push(keys[10]);
        assert_ne!(fp(&dup), base, "duplicated record");
        let mut altered = keys.clone();
        altered[500] ^= 1;
        assert_ne!(fp(&altered), base, "altered record");
        // A record replaced by a duplicate of another: same count, same
        // order statistics as far as `verify`'s order check goes.
        let mut replaced = keys.clone();
        replaced[500] = replaced[501];
        assert_ne!(fp(&replaced), base, "replaced record");
    }

    #[test]
    fn tagged_payloads_count_and_the_file_scan_agrees_with_the_keys() {
        let recs: Vec<Tagged> = (0..300).map(|i| Tagged::new(i % 7, i)).collect();
        let mut moved = recs.clone();
        moved[0].payload = 299;
        moved[299].payload = 0;
        assert_ne!(fp(&moved), fp(&recs), "a payload is part of the record");

        let p = std::env::temp_dir().join(format!("pdmcli-fp-{}", std::process::id()));
        let mut w = keyfile::KeyFileWriter::<Tagged>::create(&p, "tagged").unwrap();
        w.write_keys(&recs).unwrap();
        w.finish().unwrap();
        let (digest, scanned, n) = scan_file(&p).unwrap();
        assert_eq!((scanned, n), (fp(&recs), 300));
        let raw = std::fs::read(&p).unwrap();
        assert_eq!(
            digest,
            fnv1a(FNV_OFFSET, &raw),
            "digest covers the header too"
        );
        std::fs::remove_file(&p).ok();
    }
}
