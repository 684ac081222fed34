//! The `CR` replication + federation wire format.
//!
//! One frame family carries both halves of the cluster's traffic: the
//! leader→follower replication stream (sealed segments, pipeline
//! checkpoints, catch-up) and the router↔shard query fan-out (typed
//! queries out, partial aggregates back). The layout mirrors the queryd
//! `CQ` family byte for byte in spirit:
//!
//! ```text
//! magic "CR" | version u8 | kind u8 | payload... | CRC-32 (LE)
//! ```
//!
//! Varints, zigzag, and the CRC are the ingest codec's; the query grammar
//! inside [`Message::Query`] is queryd's own `write_query`/`read_query`,
//! shared verbatim so a query means the same thing on every wire in the
//! system. Partial aggregates ride as the store's [`PartialResultSet`]
//! wire form.
//!
//! Decoding is **total**: truncation, bit flips, length lies, and garbage
//! map onto a typed [`RepError`], never a panic, and never an over-read —
//! every length field is bounds-checked against the remaining payload
//! before use. `crates/cluster/tests/properties.rs` proves this under
//! proptest; `tests/golden_cluster.rs` pins the exact bytes.

use crate::error::ClusterError;
use cellrel_ingest::codec::{crc32, read_varint, write_varint};
use cellrel_ingest::DecodeError;
use cellrel_queryd::proto::{read_query, write_query};
use cellrel_store::{decode_partial, encode_partial, PartialResultSet, PersistError, Query};

/// Frame magic: `"CR"` (Cellrel Replication).
pub const MAGIC: [u8; 2] = *b"CR";
/// Wire schema version this build speaks.
pub const VERSION: u8 = 1;
/// Hard ceiling on a frame we will decode. Segment frames dominate: a
/// sealed window over the full fleet is a few MiB; 64 MiB leaves an order
/// of magnitude of headroom while bounding hostile allocation.
pub const MAX_FRAME_LEN: usize = 1 << 26;
/// Magic + version + kind + CRC trailer.
const MIN_FRAME_LEN: usize = 2 + 1 + 1 + 4;

/// Leader → follower: one sealed segment (`SG` frame) at a log position.
pub const KIND_SEGMENT: u8 = 0x01;
/// Leader → follower: a pipeline checkpoint link (`SP` base or `SD`
/// delta) at a log position.
pub const KIND_CHECKPOINT: u8 = 0x02;
/// Follower → leader: replay the manifest suffix from a log position.
pub const KIND_CATCHUP: u8 = 0x03;
/// Router → shard: evaluate a typed query, return a partial aggregate.
pub const KIND_QUERY: u8 = 0x04;
/// Follower → leader: a frame was applied; carries the verified digest.
pub const KIND_ACK: u8 = 0x81;
/// Leader → follower: catch-up reply, the requested segment frames.
pub const KIND_SEGMENTS: u8 = 0x82;
/// Shard → router: the partial aggregate for one query.
pub const KIND_PARTIAL: u8 = 0x84;
/// Either direction: the peer rejected the frame; code + detail.
pub const KIND_ERROR: u8 = 0xEE;

/// Rejection code: the frame failed to decode.
pub const ERR_MALFORMED: u8 = 1;
/// Rejection code: unknown kind or unsupported version.
pub const ERR_UNSUPPORTED: u8 = 2;
/// Rejection code: the query failed store-side validation; the detail is
/// the store's `QueryError` display string.
pub const ERR_BAD_QUERY: u8 = 4;
/// Rejection code: the frame exceeds [`MAX_FRAME_LEN`].
pub const ERR_TOO_LARGE: u8 = 5;
/// Rejection code: a replication frame decoded but could not be applied
/// (sequence gap, digest mismatch, corrupt segment or checkpoint).
pub const ERR_APPLY: u8 = 6;
/// Rejection code: a well-formed frame arrived at an endpoint that does
/// not serve it (e.g. a catch-up request sent to a follower).
pub const ERR_UNEXPECTED: u8 = 7;

/// One decoded `CR` frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A sealed segment at replication position `seq` (1-based, dense).
    ShipSegment {
        /// Log position; a follower only applies `applied + 1`.
        seq: u64,
        /// The complete `SG` segment frame, digest included.
        frame: Vec<u8>,
    },
    /// A pipeline checkpoint covering positions `1..=seq`.
    ShipCheckpoint {
        /// Replication position the checkpoint's manifest extends to.
        seq: u64,
        /// The complete checkpoint link: an `SP` base or an `SD` delta.
        checkpoint: Vec<u8>,
    },
    /// Request the manifest suffix after `from_seq` (0 = everything).
    Catchup {
        /// Positions `from_seq + 1..` are wanted.
        from_seq: u64,
    },
    /// A typed store query, in queryd's query grammar.
    Query(Query),
    /// A replication frame was applied and verified.
    Ack {
        /// The applied position.
        seq: u64,
        /// Segment digest (or checkpoint CRC) verified on apply.
        digest: u64,
    },
    /// Catch-up reply: segment frames for `from_seq + 1..`.
    Segments {
        /// Echo of the request position.
        from_seq: u64,
        /// `SG` frames, in log order.
        frames: Vec<Vec<u8>>,
    },
    /// A per-shard partial aggregate, pre-finalize.
    Partial {
        /// Snapshot epoch the shard answered from.
        epoch: u64,
        /// The partial (mergeable) aggregate.
        partial: PartialResultSet,
    },
    /// The peer rejected the frame.
    Rejection {
        /// One of the `ERR_*` codes.
        code: u8,
        /// Human-readable detail.
        detail: String,
    },
}

/// Why `CR` bytes failed to decode. Total over arbitrary input.
#[derive(Debug, Clone, PartialEq)]
pub enum RepError {
    /// Input ended before the frame said it would.
    Truncated,
    /// The first two bytes are not `"CR"`.
    BadMagic {
        /// What was found instead.
        found: [u8; 2],
    },
    /// The frame's version is newer than this build understands.
    UnsupportedVersion(u8),
    /// The kind byte names no known frame.
    UnknownKind(u8),
    /// The CRC-32 trailer does not match the payload.
    BadCrc {
        /// CRC computed over the received payload.
        expected: u32,
        /// CRC stored in the trailer.
        found: u32,
    },
    /// The frame exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge(u64),
    /// A field decoded but its value is impossible (length lies included).
    InvalidField(&'static str),
    /// Bytes remained after a complete, CRC-valid frame.
    TrailingBytes,
    /// The embedded query failed queryd's grammar.
    Query(cellrel_queryd::ProtoError),
    /// The embedded partial aggregate failed the store's wire form.
    Partial(PersistError),
}

impl std::fmt::Display for RepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepError::Truncated => write!(f, "truncated CR frame"),
            RepError::BadMagic { found } => {
                write!(f, "bad CR magic: {:02x}{:02x}", found[0], found[1])
            }
            RepError::UnsupportedVersion(v) => write!(f, "unsupported CR version {v}"),
            RepError::UnknownKind(k) => write!(f, "unknown CR frame kind {k:#04x}"),
            RepError::BadCrc { expected, found } => {
                write!(
                    f,
                    "CR crc mismatch: computed {expected:08x}, stored {found:08x}"
                )
            }
            RepError::FrameTooLarge(n) => write!(f, "CR frame of {n} bytes exceeds limit"),
            RepError::InvalidField(field) => write!(f, "invalid CR field: {field}"),
            RepError::TrailingBytes => write!(f, "trailing bytes after CR frame"),
            RepError::Query(e) => write!(f, "CR query payload: {e}"),
            RepError::Partial(e) => write!(f, "CR partial payload: {e}"),
        }
    }
}

impl std::error::Error for RepError {}

/// Read one varint, mapping codec errors onto `CR` errors.
fn rv(bytes: &[u8], pos: &mut usize) -> Result<u64, RepError> {
    read_varint(bytes, pos).map_err(|e| match e {
        DecodeError::Truncated => RepError::Truncated,
        _ => RepError::InvalidField("varint"),
    })
}

/// Read one length-prefixed blob. The length is bounds-checked against the
/// remaining payload *before* any allocation, so a length lie cannot
/// amplify into an over-read or an oversized reservation.
fn read_blob(bytes: &[u8], pos: &mut usize, field: &'static str) -> Result<Vec<u8>, RepError> {
    let len = rv(bytes, pos)?;
    let remaining = bytes.len().saturating_sub(*pos) as u64;
    if len > remaining {
        return Err(RepError::InvalidField(field));
    }
    let len = len as usize;
    let blob = bytes[*pos..*pos + len].to_vec();
    *pos += len;
    Ok(blob)
}

/// Encode one message as a complete `CR` frame.
pub fn encode_frame(msg: &Message) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    match msg {
        Message::ShipSegment { seq, frame } => {
            out.push(KIND_SEGMENT);
            write_varint(&mut out, *seq);
            write_varint(&mut out, frame.len() as u64);
            out.extend_from_slice(frame);
        }
        Message::ShipCheckpoint { seq, checkpoint } => {
            out.push(KIND_CHECKPOINT);
            write_varint(&mut out, *seq);
            write_varint(&mut out, checkpoint.len() as u64);
            out.extend_from_slice(checkpoint);
        }
        Message::Catchup { from_seq } => {
            out.push(KIND_CATCHUP);
            write_varint(&mut out, *from_seq);
        }
        Message::Query(q) => {
            out.push(KIND_QUERY);
            write_query(&mut out, q);
        }
        Message::Ack { seq, digest } => {
            out.push(KIND_ACK);
            write_varint(&mut out, *seq);
            write_varint(&mut out, *digest);
        }
        Message::Segments { from_seq, frames } => {
            out.push(KIND_SEGMENTS);
            write_varint(&mut out, *from_seq);
            write_varint(&mut out, frames.len() as u64);
            for f in frames {
                write_varint(&mut out, f.len() as u64);
                out.extend_from_slice(f);
            }
        }
        Message::Partial { epoch, partial } => {
            out.push(KIND_PARTIAL);
            write_varint(&mut out, *epoch);
            let body = encode_partial(partial);
            write_varint(&mut out, body.len() as u64);
            out.extend_from_slice(&body);
        }
        Message::Rejection { code, detail } => {
            out.push(KIND_ERROR);
            write_varint(&mut out, u64::from(*code));
            write_varint(&mut out, detail.len() as u64);
            out.extend_from_slice(detail.as_bytes());
        }
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Decode one complete `CR` frame. Total: any byte string yields `Ok` or a
/// typed [`RepError`]. The CRC is verified before any field parsing, so
/// field errors are only ever reported for intact frames.
pub fn decode_frame(bytes: &[u8]) -> Result<Message, RepError> {
    if bytes.len() > MAX_FRAME_LEN {
        return Err(RepError::FrameTooLarge(bytes.len() as u64));
    }
    if bytes.len() < MIN_FRAME_LEN {
        return Err(RepError::Truncated);
    }
    let (payload, trailer) = bytes.split_at(bytes.len() - 4);
    let found = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let expected = crc32(payload);
    if expected != found {
        return Err(RepError::BadCrc { expected, found });
    }
    if payload[0..2] != MAGIC {
        return Err(RepError::BadMagic {
            found: [payload[0], payload[1]],
        });
    }
    if payload[2] != VERSION {
        return Err(RepError::UnsupportedVersion(payload[2]));
    }
    let kind = payload[3];
    let body = &payload[4..];
    let mut pos = 0usize;
    let msg = match kind {
        KIND_SEGMENT => {
            let seq = rv(body, &mut pos)?;
            let frame = read_blob(body, &mut pos, "segment length")?;
            Message::ShipSegment { seq, frame }
        }
        KIND_CHECKPOINT => {
            let seq = rv(body, &mut pos)?;
            let checkpoint = read_blob(body, &mut pos, "checkpoint length")?;
            Message::ShipCheckpoint { seq, checkpoint }
        }
        KIND_CATCHUP => Message::Catchup {
            from_seq: rv(body, &mut pos)?,
        },
        KIND_QUERY => Message::Query(read_query(body, &mut pos).map_err(RepError::Query)?),
        KIND_ACK => {
            let seq = rv(body, &mut pos)?;
            let digest = rv(body, &mut pos)?;
            Message::Ack { seq, digest }
        }
        KIND_SEGMENTS => {
            let from_seq = rv(body, &mut pos)?;
            let n = rv(body, &mut pos)?;
            // Every frame needs at least a length byte; a count claiming
            // more is a lie regardless of what follows.
            if n > body.len().saturating_sub(pos) as u64 {
                return Err(RepError::InvalidField("segment count"));
            }
            let mut frames = Vec::with_capacity(n as usize);
            for _ in 0..n {
                frames.push(read_blob(body, &mut pos, "segment length")?);
            }
            Message::Segments { from_seq, frames }
        }
        KIND_PARTIAL => {
            let epoch = rv(body, &mut pos)?;
            let blob = read_blob(body, &mut pos, "partial length")?;
            Message::Partial {
                epoch,
                partial: decode_partial(&blob).map_err(RepError::Partial)?,
            }
        }
        KIND_ERROR => {
            let code = rv(body, &mut pos)?;
            if code > u64::from(u8::MAX) {
                return Err(RepError::InvalidField("error code"));
            }
            let blob = read_blob(body, &mut pos, "detail length")?;
            let detail =
                String::from_utf8(blob).map_err(|_| RepError::InvalidField("detail utf8"))?;
            Message::Rejection {
                code: code as u8,
                detail,
            }
        }
        k => return Err(RepError::UnknownKind(k)),
    };
    if pos != body.len() {
        return Err(RepError::TrailingBytes);
    }
    Ok(msg)
}

/// The rejection frame a total server half answers with when a request
/// fails to decode.
pub fn rejection_for(e: &RepError) -> Message {
    let code = match e {
        RepError::FrameTooLarge(_) => ERR_TOO_LARGE,
        RepError::UnsupportedVersion(_) | RepError::UnknownKind(_) => ERR_UNSUPPORTED,
        _ => ERR_MALFORMED,
    };
    Message::Rejection {
        code,
        detail: e.to_string(),
    }
}

/// Whether `frame` is headed as a checkpoint-link ship
/// ([`KIND_CHECKPOINT`]); the rest of the frame is not checked.
pub fn is_checkpoint_frame(frame: &[u8]) -> bool {
    frame.get(MAGIC.len() + 1) == Some(&KIND_CHECKPOINT)
}

/// Decode a reply that must be an [`Message::Ack`]; anything else is a
/// replication fault on `shard`.
pub fn expect_ack(shard: usize, reply: &[u8]) -> Result<(u64, u64), ClusterError> {
    match decode_frame(reply)? {
        Message::Ack { seq, digest } => Ok((seq, digest)),
        Message::Rejection { code, detail } => Err(ClusterError::Replication {
            shard,
            detail: format!("rejected (code {code}): {detail}"),
        }),
        other => Err(ClusterError::Replication {
            shard,
            detail: format!("expected ack, got {other:?}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let frame = encode_frame(&msg);
        assert_eq!(decode_frame(&frame), Ok(msg));
    }

    #[test]
    fn every_message_kind_roundtrips() {
        roundtrip(Message::ShipSegment {
            seq: 3,
            frame: vec![1, 2, 3, 250],
        });
        roundtrip(Message::ShipCheckpoint {
            seq: 9,
            checkpoint: Vec::new(),
        });
        roundtrip(Message::Catchup { from_seq: 0 });
        roundtrip(Message::Ack {
            seq: u64::MAX,
            digest: 0xdead_beef,
        });
        roundtrip(Message::Segments {
            from_seq: 2,
            frames: vec![vec![7; 5], Vec::new(), vec![0]],
        });
        roundtrip(Message::Rejection {
            code: ERR_APPLY,
            detail: "segment seq 4 does not follow applied seq 2".into(),
        });
    }

    #[test]
    fn query_and_partial_kinds_roundtrip() {
        use cellrel_store::{Dim, Metric};
        roundtrip(Message::Query(Query {
            filters: Vec::new(),
            group_by: vec![Dim::Isp, Dim::Rat],
            window_ms: 86_400_000,
            metric: Metric::Count,
            top_k: 5,
        }));
        roundtrip(Message::Partial {
            epoch: 17,
            partial: PartialResultSet {
                window_ms: 1,
                groups: Vec::new(),
                cells_scanned: 40,
                cells_matched: 0,
            },
        });
    }

    #[test]
    fn hostile_bytes_yield_typed_errors() {
        assert_eq!(decode_frame(&[]), Err(RepError::Truncated));
        let mut good = encode_frame(&Message::Catchup { from_seq: 7 });
        // Bit flip anywhere → BadCrc (or Truncated for short prefixes).
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            assert!(decode_frame(&bad).is_err(), "flip at {i} must not decode");
        }
        // Truncations never panic.
        for n in 0..good.len() {
            assert!(decode_frame(&good[..n]).is_err());
        }
        // A length lie inside a CRC-valid frame is an InvalidField.
        let mut lie = Vec::new();
        lie.extend_from_slice(&MAGIC);
        lie.push(VERSION);
        lie.push(KIND_SEGMENT);
        write_varint(&mut lie, 1);
        write_varint(&mut lie, 1_000_000); // claims 1 MB, carries none
        let crc = crc32(&lie);
        lie.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(
            decode_frame(&lie),
            Err(RepError::InvalidField("segment length"))
        );
        // Trailing garbage after a complete message is rejected.
        good.truncate(good.len() - 4);
        good.push(0);
        let crc = crc32(&good);
        good.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(decode_frame(&good), Err(RepError::TrailingBytes));
    }

    #[test]
    fn oversized_frames_are_rejected_before_any_parse() {
        let huge = vec![0u8; MAX_FRAME_LEN + 1];
        assert_eq!(
            decode_frame(&huge),
            Err(RepError::FrameTooLarge((MAX_FRAME_LEN + 1) as u64))
        );
    }
}
