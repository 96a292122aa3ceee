use std::fmt;

/// Errors surfaced by the PM substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PmError {
    /// The pool's heap is exhausted; the requested allocation cannot be
    /// satisfied.
    OutOfMemory { requested: usize },
    /// An image passed to [`crate::PmemPool::open`] failed validation.
    PoolCorrupt(&'static str),
    /// The image is a pool, but of another format generation: its header
    /// carries stamp `found` where this build writes (and only reads)
    /// `expected`. Nothing was modified.
    PoolFormat { found: u16, expected: u16 },
    /// A configuration parameter is out of its supported range.
    InvalidConfig(&'static str),
    /// A redo-log transaction exceeded [`crate::MAX_TX_WRITES`] writes.
    TxTooLarge,
    /// The in-flight allocation table is full (too many concurrent
    /// allocate–activate sequences).
    TooManyInflightAllocs,
    /// A file-backed pool operation failed (open/map/sync).
    Io(&'static str),
}

impl fmt::Display for PmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PmError::OutOfMemory { requested } => {
                write!(f, "persistent pool out of memory (requested {requested} bytes)")
            }
            PmError::PoolCorrupt(why) => write!(f, "pool image corrupt: {why}"),
            PmError::PoolFormat { found, expected } => write!(
                f,
                "pool image has format stamp {found:04x}, this build reads only {expected:04x}"
            ),
            PmError::InvalidConfig(why) => write!(f, "invalid pool configuration: {why}"),
            PmError::TxTooLarge => write!(f, "redo-log transaction exceeds capacity"),
            PmError::TooManyInflightAllocs => {
                write!(f, "in-flight allocation table full")
            }
            PmError::Io(why) => write!(f, "file-backed pool I/O error: {why}"),
        }
    }
}

impl std::error::Error for PmError {}

pub type Result<T> = std::result::Result<T, PmError>;
