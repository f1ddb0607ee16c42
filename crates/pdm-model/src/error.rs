//! Error type for PDM simulator operations.

use std::fmt;

/// Errors raised by the PDM machine and its storage backends.
#[derive(Debug)]
pub enum PdmError {
    /// An algorithm attempted to hold more keys in internal memory than the
    /// machine allows (`workspace_factor * mem_capacity`).
    MemoryExceeded {
        /// Keys requested to be resident after the failing allocation.
        requested: usize,
        /// The enforced limit in keys.
        limit: usize,
    },
    /// A block address referenced a disk outside `0..num_disks`.
    BadDisk {
        /// The offending disk index.
        disk: usize,
        /// Number of disks in the machine.
        num_disks: usize,
    },
    /// A block address referenced a slot that was never allocated.
    BadSlot {
        /// Disk the slot was addressed on.
        disk: usize,
        /// The offending slot index.
        slot: usize,
        /// Number of allocated slots on that disk.
        allocated: usize,
    },
    /// A buffer passed to a block read/write had the wrong length.
    BadBlockLen {
        /// Length supplied.
        got: usize,
        /// Block size `B` expected.
        expected: usize,
    },
    /// A region operation addressed a logical block outside the region.
    RegionOutOfBounds {
        /// Logical block index requested.
        index: usize,
        /// Region length in blocks.
        len: usize,
    },
    /// The machine configuration is internally inconsistent.
    BadConfig(String),
    /// The input size is not supported by the selected algorithm
    /// (e.g. exceeds its capacity formula or is not properly divisible).
    UnsupportedInput(String),
    /// An underlying file-backed storage operation failed.
    Io(std::io::Error),
    /// Overlapped (asynchronous) I/O was still in flight at a point that
    /// requires a settled disk image — a checkpoint boundary, a region
    /// release, or a resume into a phase with an unretired write. The
    /// manifest is *not* written and the region is *not* released in this
    /// state; draining pending reads/writes first clears it.
    PendingIo {
        /// Number of overlap operations still in flight.
        pending: usize,
    },
    /// A read addressed a slot that still has an unretired overlapped
    /// write in flight. The full-duplex worker backends service reads
    /// and writes on independent workers, so such a read could observe the
    /// pre-write bytes; the pipeline discipline (drain write-behind before
    /// re-reading a region) makes this unreachable in correct code, and
    /// the backend turns a violation into this error instead of silently
    /// returning stale data.
    ReadDuringFlush {
        /// Disk the contended slot lives on.
        disk: usize,
        /// The slot with a write still in flight.
        slot: usize,
    },
    /// A block read back from storage failed its integrity check (torn
    /// write or bit flip). Never transient: the data on the medium is
    /// wrong, so retrying the read returns the same corrupt bytes.
    Corrupt {
        /// Disk the corrupt block lives on.
        disk: usize,
        /// Slot of the corrupt block.
        slot: usize,
        /// What the check observed (expected vs actual checksum).
        detail: String,
    },
}

impl PdmError {
    /// Whether this failure is *transient* — worth retrying, because the
    /// operation may succeed if reissued (interrupted syscall, timeout,
    /// would-block). Everything else is permanent: logic errors
    /// (`BadDisk`, `BadSlot`, …) would fail identically on retry, and
    /// [`PdmError::Corrupt`] means the medium itself holds bad bytes.
    ///
    /// [`crate::storage_retry::RetryingStorage`] consults this to decide
    /// whether a failed block operation is reissued.
    pub fn is_transient(&self) -> bool {
        match self {
            PdmError::Io(e) => io_error_transient(e),
            _ => false,
        }
    }
}

/// Transience classification for a raw `std::io::Error`, shared between
/// [`PdmError::is_transient`] and backend worker threads that must decide
/// whether to reissue an operation *before* wrapping the error.
pub(crate) fn io_error_transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::WouldBlock
    )
}

impl fmt::Display for PdmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PdmError::MemoryExceeded { requested, limit } => write!(
                f,
                "internal memory exceeded: {requested} keys requested, limit {limit}"
            ),
            PdmError::BadDisk { disk, num_disks } => {
                write!(f, "disk index {disk} out of range (D = {num_disks})")
            }
            PdmError::BadSlot {
                disk,
                slot,
                allocated,
            } => write!(
                f,
                "slot {slot} on disk {disk} out of range ({allocated} allocated)"
            ),
            PdmError::BadBlockLen { got, expected } => {
                write!(f, "block buffer length {got}, expected B = {expected}")
            }
            PdmError::RegionOutOfBounds { index, len } => {
                write!(
                    f,
                    "logical block {index} out of region bounds ({len} blocks)"
                )
            }
            PdmError::BadConfig(msg) => write!(f, "bad PDM configuration: {msg}"),
            PdmError::UnsupportedInput(msg) => write!(f, "unsupported input: {msg}"),
            PdmError::Io(e) => write!(f, "I/O error: {e}"),
            PdmError::PendingIo { pending } => write!(
                f,
                "{pending} overlap I/O operation(s) still in flight at a \
                 checkpoint boundary or region release; drain pending \
                 reads/writes first"
            ),
            PdmError::ReadDuringFlush { disk, slot } => write!(
                f,
                "read of disk {disk} slot {slot} while a write-behind to the \
                 same slot is still in flight; drain the writer before \
                 re-reading the region"
            ),
            PdmError::Corrupt { disk, slot, detail } => {
                write!(f, "corrupt block at disk {disk} slot {slot}: {detail}")
            }
        }
    }
}

impl std::error::Error for PdmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PdmError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PdmError {
    fn from(e: std::io::Error) -> Self {
        PdmError::Io(e)
    }
}

/// Convenience result alias used across the workspace.
pub type Result<T> = std::result::Result<T, PdmError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = PdmError::MemoryExceeded {
            requested: 100,
            limit: 64,
        };
        assert!(e.to_string().contains("100"));
        assert!(e.to_string().contains("64"));

        let e = PdmError::BadDisk {
            disk: 9,
            num_disks: 4,
        };
        assert!(e.to_string().contains("9"));

        let e = PdmError::BadBlockLen {
            got: 3,
            expected: 8,
        };
        assert!(e.to_string().contains("B = 8"));
    }

    #[test]
    fn io_error_converts_and_sources() {
        let io = std::io::Error::other("boom");
        let e: PdmError = io.into();
        assert!(matches!(e, PdmError::Io(_)));
        use std::error::Error;
        assert!(e.source().is_some());
    }

    #[test]
    fn non_io_errors_have_no_source() {
        use std::error::Error;
        let e = PdmError::BadConfig("x".into());
        assert!(e.source().is_none());
    }

    #[test]
    fn transient_classification_follows_io_kind() {
        let transient = PdmError::Io(std::io::Error::new(
            std::io::ErrorKind::Interrupted,
            "interrupted",
        ));
        assert!(transient.is_transient());
        let timeout = PdmError::Io(std::io::Error::new(std::io::ErrorKind::TimedOut, "timeout"));
        assert!(timeout.is_transient());

        let permanent = PdmError::Io(std::io::Error::other("device gone"));
        assert!(!permanent.is_transient());
        let pending = PdmError::PendingIo { pending: 2 };
        assert!(
            !pending.is_transient(),
            "pending I/O is a logic error, not transient"
        );
        assert!(pending.to_string().contains("2 overlap"));
        assert!(!PdmError::BadConfig("x".into()).is_transient());
        let corrupt = PdmError::Corrupt {
            disk: 0,
            slot: 3,
            detail: "checksum mismatch".into(),
        };
        assert!(!corrupt.is_transient());
        assert!(corrupt.to_string().contains("slot 3"));
    }
}
