//! The one error type every fallible stream path returns.

use cellrel_ingest::DecodeError;
use cellrel_store::PersistError;

/// Why a stream operation failed. Decoding is **total**: hostile
/// checkpoint, segment, or manifest bytes map onto one of these variants,
/// never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// A configuration constraint was violated (e.g. window width not a
    /// multiple of the store bucket width).
    Config(&'static str),
    /// Input ended before the frame said it would.
    Truncated,
    /// The frame does not start with the expected magic bytes.
    BadMagic,
    /// The frame's schema version is newer than this build understands.
    BadVersion(u8),
    /// The CRC-32 trailer does not match the payload.
    BadCrc { computed: u32, stored: u32 },
    /// A field decoded but its value is impossible.
    Malformed(&'static str),
    /// Bytes remained after a complete, CRC-valid frame.
    TrailingBytes,
    /// The embedded collector checkpoint failed to restore.
    Collector(DecodeError),
    /// An embedded store image failed to restore.
    Store(PersistError),
    /// The manifest names a segment the backend cannot produce.
    SegmentMissing(String),
    /// A reloaded segment disagrees with its manifest entry.
    SegmentMismatch(String),
    /// A filesystem-backed segment store hit an I/O error.
    Io(String),
    /// A delta checkpoint link does not extend the standby's newest link
    /// (wrong link number or a different parent).
    DetachedLink {
        /// The standby's newest link number.
        standby: u64,
        /// The refused link's number.
        link: u64,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Config(why) => write!(f, "bad stream config: {why}"),
            StreamError::Truncated => write!(f, "truncated stream frame"),
            StreamError::BadMagic => write!(f, "bad stream frame magic"),
            StreamError::BadVersion(v) => write!(f, "unsupported stream frame version {v}"),
            StreamError::BadCrc { computed, stored } => {
                write!(
                    f,
                    "stream frame crc mismatch: computed {computed:08x}, stored {stored:08x}"
                )
            }
            StreamError::Malformed(field) => write!(f, "malformed stream frame field: {field}"),
            StreamError::TrailingBytes => write!(f, "trailing bytes after stream frame"),
            StreamError::Collector(e) => write!(f, "collector checkpoint: {e}"),
            StreamError::Store(e) => write!(f, "store image: {e}"),
            StreamError::SegmentMissing(name) => write!(f, "segment missing from backend: {name}"),
            StreamError::SegmentMismatch(name) => {
                write!(f, "segment disagrees with manifest: {name}")
            }
            StreamError::Io(e) => write!(f, "segment backend i/o: {e}"),
            StreamError::DetachedLink { standby, link } => {
                write!(
                    f,
                    "delta link {link} does not extend standby link {standby}"
                )
            }
        }
    }
}

impl std::error::Error for StreamError {}

impl From<DecodeError> for StreamError {
    fn from(e: DecodeError) -> Self {
        StreamError::Collector(e)
    }
}

impl From<PersistError> for StreamError {
    fn from(e: PersistError) -> Self {
        StreamError::Store(e)
    }
}

/// Read one varint, mapping codec errors onto stream errors.
pub(crate) fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, StreamError> {
    cellrel_ingest::codec::read_varint(bytes, pos).map_err(|e| match e {
        DecodeError::Truncated => StreamError::Truncated,
        _ => StreamError::Malformed("varint"),
    })
}

/// Narrow a decoded `u64` into a smaller integer type.
pub(crate) fn narrow<T: TryFrom<u64>>(v: u64, field: &'static str) -> Result<T, StreamError> {
    T::try_from(v).map_err(|_| StreamError::Malformed(field))
}

/// Split a frame into payload and verified CRC-32 trailer. Checked before
/// any field parsing so field errors are only reported for intact frames.
pub(crate) fn check_crc(bytes: &[u8], min_len: usize) -> Result<&[u8], StreamError> {
    if bytes.len() < min_len + 4 {
        return Err(StreamError::Truncated);
    }
    let (payload, trailer) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let computed = cellrel_ingest::codec::crc32(payload);
    if computed != stored {
        return Err(StreamError::BadCrc { computed, stored });
    }
    Ok(payload)
}

/// Take `len` bytes at `*pos`, advancing it.
pub(crate) fn take<'a>(
    bytes: &'a [u8],
    pos: &mut usize,
    len: usize,
) -> Result<&'a [u8], StreamError> {
    let end = pos.checked_add(len).ok_or(StreamError::Truncated)?;
    let s = bytes.get(*pos..end).ok_or(StreamError::Truncated)?;
    *pos = end;
    Ok(s)
}
