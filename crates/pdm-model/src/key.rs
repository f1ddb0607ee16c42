//! The key (record) trait stored on simulated disks.
//!
//! PDM algorithms are comparison-based (except the integer sorts, which
//! additionally need a bounded integer *rank*), so the trait is mostly
//! `Ord + Copy`. File-backed storage needs a fixed-width byte encoding.

use std::fmt::Debug;

/// A fixed-width, totally ordered record usable on a simulated PDM disk.
///
/// `MIN`/`MAX` act as padding sentinels for non-full blocks: algorithms pad
/// with `MAX` so padding sorts to the end (or `MIN` for the reverse).
pub trait PdmKey: Copy + Ord + Send + Sync + Debug + 'static {
    /// Encoded width in bytes (used by the file-backed storage).
    const WIDTH: usize;
    /// Smallest value of the type.
    const MIN: Self;
    /// Largest value of the type (used to pad non-full blocks).
    const MAX: Self;

    /// Serialize into exactly `WIDTH` bytes (little-endian convention).
    fn write_bytes(&self, out: &mut [u8]);
    /// Deserialize from exactly `WIDTH` bytes.
    fn read_bytes(bytes: &[u8]) -> Self;

    /// Signed distance gauge `self − other` for telemetry: positive when
    /// `self > other`, saturating at `±i64::MAX`. Purely observational —
    /// algorithms must never branch on it. The default (always 0) is
    /// correct for key types with no meaningful numeric distance.
    fn gauge_distance(&self, _other: &Self) -> i64 {
        0
    }

    /// The key as a `u64` word whose order is the key's order, for key
    /// types that map one-to-one onto such a word: the integers of at most
    /// 64 bits, through [`RankedKey::rank`]. `None` (the default) for every
    /// other key type. The in-memory sort kernel (`pdm_sort::kernels`)
    /// radix-sorts the bytes of these words, and sorts keys without one by
    /// comparison; the choice is made per key type at compile time.
    const RADIX_KEY: Option<fn(&Self) -> u64> = None;
}

macro_rules! impl_int_key {
    ($radix_key:expr; $($t:ty),*) => {$(
        impl PdmKey for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            const MIN: Self = <$t>::MIN;
            const MAX: Self = <$t>::MAX;
            const RADIX_KEY: Option<fn(&Self) -> u64> = $radix_key;

            fn write_bytes(&self, out: &mut [u8]) {
                out[..Self::WIDTH].copy_from_slice(&self.to_le_bytes());
            }

            fn read_bytes(bytes: &[u8]) -> Self {
                let mut buf = [0u8; std::mem::size_of::<$t>()];
                buf.copy_from_slice(&bytes[..Self::WIDTH]);
                <$t>::from_le_bytes(buf)
            }

            fn gauge_distance(&self, other: &Self) -> i64 {
                // abs_diff works uniformly for signed and unsigned widths
                // (including 128-bit, where `as` casts would wrap)
                let mag = i64::try_from(self.abs_diff(*other)).unwrap_or(i64::MAX);
                if *self >= *other { mag } else { -mag }
            }
        }
    )*};
}

impl_int_key!(Some(<Self as RankedKey>::rank); u8, u16, u32, u64, i8, i16, i32, i64);
impl_int_key!(None; u128, i128);

/// A key–payload record: ordered by `key` alone, carrying an opaque 64-bit
/// payload (e.g. a pointer into a record store). This is the usual shape for
/// out-of-core sorting benchmarks where full records are sorted indirectly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tagged {
    /// Sort key.
    pub key: u64,
    /// Carried payload, ignored by comparisons.
    pub payload: u64,
}

impl Tagged {
    /// Construct a record.
    pub fn new(key: u64, payload: u64) -> Self {
        Self { key, payload }
    }
}

impl PartialOrd for Tagged {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tagged {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Payload participates only as a tiebreaker so that `Ord` stays
        // consistent with `Eq` (a requirement for sound sorting).
        (self.key, self.payload).cmp(&(other.key, other.payload))
    }
}

impl PdmKey for Tagged {
    const WIDTH: usize = 16;
    const MIN: Self = Tagged { key: 0, payload: 0 };
    const MAX: Self = Tagged {
        key: u64::MAX,
        payload: u64::MAX,
    };

    fn write_bytes(&self, out: &mut [u8]) {
        out[..8].copy_from_slice(&self.key.to_le_bytes());
        out[8..16].copy_from_slice(&self.payload.to_le_bytes());
    }

    fn read_bytes(bytes: &[u8]) -> Self {
        let mut k = [0u8; 8];
        let mut p = [0u8; 8];
        k.copy_from_slice(&bytes[..8]);
        p.copy_from_slice(&bytes[8..16]);
        Tagged {
            key: u64::from_le_bytes(k),
            payload: u64::from_le_bytes(p),
        }
    }

    fn gauge_distance(&self, other: &Self) -> i64 {
        self.key.gauge_distance(&other.key)
    }
}

/// A fixed-width string key: `W` bytes compared as an unsigned byte array
/// (memcmp order). Shorter strings are padded with `0x00`, which sorts before
/// every printable byte, so prefix order matches lexicographic order on the
/// original strings. There is no meaningful numeric distance between string
/// keys, so `gauge_distance` keeps the trait's zero default.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct StrN<const W: usize> {
    /// Raw key bytes; compared left to right as unsigned bytes.
    pub bytes: [u8; W],
}

impl<const W: usize> StrN<W> {
    /// Build a key from a string, truncating to `W` bytes and padding the
    /// remainder with `0x00`.
    pub fn from_str_padded(s: &str) -> Self {
        let mut bytes = [0u8; W];
        let take = s.len().min(W);
        bytes[..take].copy_from_slice(&s.as_bytes()[..take]);
        Self { bytes }
    }

    /// The key as a string slice with trailing NUL padding stripped, or
    /// `None` if the payload bytes are not valid UTF-8.
    pub fn as_str(&self) -> Option<&str> {
        let end = self
            .bytes
            .iter()
            .rposition(|&b| b != 0)
            .map_or(0, |i| i + 1);
        std::str::from_utf8(&self.bytes[..end]).ok()
    }
}

impl<const W: usize> Debug for StrN<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.as_str() {
            Some(s) => write!(f, "StrN<{W}>({s:?})"),
            None => write!(f, "StrN<{W}>({:02x?})", self.bytes),
        }
    }
}

impl<const W: usize> PdmKey for StrN<W> {
    const WIDTH: usize = W;
    const MIN: Self = StrN { bytes: [0x00; W] };
    const MAX: Self = StrN { bytes: [0xff; W] };

    fn write_bytes(&self, out: &mut [u8]) {
        out[..W].copy_from_slice(&self.bytes);
    }

    fn read_bytes(bytes: &[u8]) -> Self {
        let mut buf = [0u8; W];
        buf.copy_from_slice(&bytes[..W]);
        StrN { bytes: buf }
    }
}

/// An integer key whose *rank* in a bounded range is known — required by the
/// paper's `IntegerSort`/`RadixSort` (§7), which bucket keys by value.
pub trait RankedKey: PdmKey {
    /// The key as an unsigned integer rank.
    fn rank(&self) -> u64;
    /// Extract `bits` bits starting `shift` bits from the least-significant
    /// end — used by forward radix sort on MSB digit groups.
    fn digit(&self, shift: u32, bits: u32) -> u64 {
        if bits == 0 {
            return 0;
        }
        let mask = if bits >= 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        (self.rank() >> shift) & mask
    }
    /// Total number of significant bits in the key domain.
    fn domain_bits() -> u32;
}

macro_rules! impl_ranked {
    ($($t:ty => $bits:expr),*) => {$(
        impl RankedKey for $t {
            fn rank(&self) -> u64 {
                *self as u64
            }
            fn domain_bits() -> u32 {
                $bits
            }
        }
    )*};
}

impl_ranked!(u8 => 8, u16 => 16, u32 => 32, u64 => 64);

/// Signed integers rank by an order-preserving bias (flip the sign bit):
/// `i::MIN → 0`, `-1 → 2^{w-1}-1`, `0 → 2^{w-1}`, `i::MAX → 2^w - 1` —
/// so radix/bucket sorting by rank sorts signed keys correctly.
macro_rules! impl_ranked_signed {
    ($($t:ty : $u:ty => $bits:expr),*) => {$(
        impl RankedKey for $t {
            fn rank(&self) -> u64 {
                ((*self as $u) ^ (1 << ($bits - 1))) as u64
            }
            fn domain_bits() -> u32 {
                $bits
            }
        }
    )*};
}

impl_ranked_signed!(i8 : u8 => 8, i16 : u16 => 16, i32 : u32 => 32, i64 : u64 => 64);

impl RankedKey for Tagged {
    fn rank(&self) -> u64 {
        self.key
    }
    fn domain_bits() -> u32 {
        64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_round_trip() {
        let mut buf = [0u8; 16];
        for v in [0u64, 1, 42, u64::MAX] {
            v.write_bytes(&mut buf);
            assert_eq!(u64::read_bytes(&buf), v);
        }
        for v in [i32::MIN, -1, 0, 7, i32::MAX] {
            v.write_bytes(&mut buf);
            assert_eq!(i32::read_bytes(&buf), v);
        }
    }

    #[test]
    fn tagged_orders_by_key_then_payload() {
        let a = Tagged::new(1, 99);
        let b = Tagged::new(2, 0);
        let c = Tagged::new(1, 100);
        assert!(a < b);
        assert!(a < c);
        assert!(c < b);
    }

    #[test]
    fn tagged_round_trip() {
        let mut buf = [0u8; 16];
        let t = Tagged::new(0xdead_beef, 0x1234_5678_9abc_def0);
        t.write_bytes(&mut buf);
        assert_eq!(Tagged::read_bytes(&buf), t);
    }

    #[test]
    fn sentinels_bound_the_domain() {
        assert_eq!(
            (<u32 as PdmKey>::MIN, <u32 as PdmKey>::MAX),
            (u32::MIN, u32::MAX)
        );
        assert_eq!(
            (<u64 as PdmKey>::MIN, <u64 as PdmKey>::MAX),
            (u64::MIN, u64::MAX)
        );
        let t = Tagged::new(5, 5);
        assert!(<Tagged as PdmKey>::MIN <= t && t <= <Tagged as PdmKey>::MAX);
    }

    #[test]
    fn digit_extraction() {
        let k = 0b1011_0110u8;
        assert_eq!(k.digit(0, 4), 0b0110);
        assert_eq!(k.digit(4, 4), 0b1011);
        assert_eq!(k.digit(0, 8), 0b1011_0110);
        assert_eq!(k.digit(0, 0), 0);
        let big = u64::MAX;
        assert_eq!(big.digit(0, 64), u64::MAX);
    }

    #[test]
    fn signed_ranks_preserve_order() {
        let samples = [i64::MIN, -1_000_000, -1, 0, 1, 7, i64::MAX];
        for w in samples.windows(2) {
            assert!(w[0].rank() < w[1].rank(), "{} !< {}", w[0], w[1]);
        }
        assert_eq!(i64::MIN.rank(), 0);
        assert_eq!(i64::MAX.rank(), u64::MAX);
        assert_eq!(0i64.rank(), 1u64 << 63);
        // and for narrow types
        assert_eq!(i8::MIN.rank(), 0);
        assert_eq!(i8::MAX.rank(), 255);
        assert!((-5i16).rank() < 5i16.rank());
    }

    #[test]
    fn gauge_distance_is_signed_and_saturating() {
        assert_eq!(10u64.gauge_distance(&3), 7);
        assert_eq!(3u64.gauge_distance(&10), -7);
        assert_eq!(5u32.gauge_distance(&5), 0);
        assert_eq!((-4i64).gauge_distance(&4), -8);
        assert_eq!(u64::MAX.gauge_distance(&0), i64::MAX, "saturates");
        assert_eq!(u128::MAX.gauge_distance(&0), i64::MAX);
        assert_eq!(i128::MIN.gauge_distance(&i128::MAX), i64::MIN + 1);
        assert_eq!(Tagged::new(9, 0).gauge_distance(&Tagged::new(2, 7)), 7);
    }

    #[test]
    fn strn_orders_like_memcmp_and_round_trips() {
        type S = StrN<24>;
        let a = S::from_str_padded("apple");
        let b = S::from_str_padded("applesauce");
        let c = S::from_str_padded("banana");
        assert!(a < b, "prefix sorts first under NUL padding");
        assert!(b < c);
        assert!(<S as PdmKey>::MIN <= a && c <= <S as PdmKey>::MAX);
        assert_eq!(<S as PdmKey>::WIDTH, 24);

        let mut buf = [0u8; 24];
        b.write_bytes(&mut buf);
        assert_eq!(S::read_bytes(&buf), b);
        assert_eq!(b.as_str(), Some("applesauce"));
        assert_eq!(format!("{a:?}"), "StrN<24>(\"apple\")");
        // gauge_distance keeps the trait's zero default for strings
        assert_eq!(c.gauge_distance(&a), 0);
    }

    #[test]
    fn strn_truncates_at_width() {
        type S = StrN<4>;
        let long = S::from_str_padded("abcdefgh");
        assert_eq!(long.bytes, *b"abcd");
        assert_eq!(<S as PdmKey>::MAX.as_str(), None, "0xff is not UTF-8");
    }

    #[test]
    fn radix_keys_are_one_to_one_and_keep_the_order() {
        fn word<K: PdmKey>(k: K) -> u64 {
            K::RADIX_KEY.expect("an integer key has a radix word")(&k)
        }
        for w in [i64::MIN, -1, 0, 1, i64::MAX].windows(2) {
            assert!(word(w[0]) < word(w[1]), "{} !< {}", w[0], w[1]);
        }
        assert!(word(-1i8) < word(0i8) && word(i32::MIN) < word(i32::MIN + 1));
        assert_eq!((word(0u64), word(u64::MAX)), (0, u64::MAX));
        assert_eq!(word(u32::MAX), u64::from(u32::MAX));
        // wider keys and keys ordered by more than one word compare
        assert!(<u128 as PdmKey>::RADIX_KEY.is_none());
        assert!(<Tagged as PdmKey>::RADIX_KEY.is_none());
        assert!(<StrN<8> as PdmKey>::RADIX_KEY.is_none());
    }

    #[test]
    fn domain_bits_match_types() {
        assert_eq!(<u8 as RankedKey>::domain_bits(), 8);
        assert_eq!(<u64 as RankedKey>::domain_bits(), 64);
        assert_eq!(<Tagged as RankedKey>::domain_bits(), 64);
    }
}
