//! The binary wire codec for trace batches (§2.2's "compressed upload").
//!
//! A batch is every record one device ships in one upload. The format is a
//! compact, self-delimiting binary layout built from three primitives:
//!
//! * **LEB128 varints** — small integers (counts, codes, BS fields) cost one
//!   byte instead of a fixed-width word;
//! * **delta-of-timestamps** — records are sorted by start time at encode
//!   time and each start is stored as the (non-negative) varint delta from
//!   its predecessor, so an 8-byte millisecond timestamp shrinks to a few
//!   bytes;
//! * **per-batch framing** — magic + schema version + device id + batch
//!   sequence number up front, CRC-32 of everything at the back, so the
//!   collector can reject truncated or corrupted uploads without panicking
//!   and deduplicate re-delivered batches by `(device, seq)`.
//!
//! ```text
//! batch := "CB" version:u8 device:varint seq:varint count:varint record* crc32:u32le
//! record := kind:u8 delta_start:varint duration_ms:varint cause:varint
//!           rat:u8 signal:u8 apn:u8 bs_tag:u8 bs_fields* isp:u8
//! ```
//!
//! `cause` is `0` for none, otherwise `1 + zigzag(code)`. `bs_tag` is 0/1/2
//! for none/GSM/CDMA, followed by the identity fields as varints. Records
//! within a batch are canonically ordered (by start, then kind, duration,
//! cause, context), which both maximises delta compression and makes the
//! encoding a pure function of the record *set* — two uploads of the same
//! records encode to identical bytes.
//!
//! Decoding is total: every failure mode maps to a [`DecodeError`], never a
//! panic, no matter how adversarial the input.

use cellrel_types::{
    Apn, BsId, DataFailCause, DeviceId, FailureEvent, FailureKind, InSituInfo, Isp, Rat,
    SignalLevel, SimDuration, SimTime,
};

/// First framing byte.
pub const MAGIC: [u8; 2] = *b"CB";
/// Current schema version.
pub const SCHEMA_VERSION: u8 = 1;

/// Why a batch failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the structure was complete.
    Truncated,
    /// The framing magic is wrong — not a trace batch.
    BadMagic,
    /// Schema version this decoder does not understand.
    UnsupportedVersion(u8),
    /// The CRC-32 trailer does not match the received bytes.
    BadCrc {
        /// CRC computed over the received bytes.
        computed: u32,
        /// CRC carried in the trailer.
        stored: u32,
    },
    /// A varint ran past 10 bytes (cannot be a `u64`).
    VarintOverflow,
    /// A field held a value outside its domain (named for diagnostics).
    InvalidField(&'static str),
    /// Well-formed structure followed by unexpected trailing bytes.
    TrailingBytes,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated batch"),
            DecodeError::BadMagic => write!(f, "bad framing magic"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported schema version {v}"),
            DecodeError::BadCrc { computed, stored } => {
                write!(
                    f,
                    "crc mismatch (computed {computed:08x}, stored {stored:08x})"
                )
            }
            DecodeError::VarintOverflow => write!(f, "varint overflow"),
            DecodeError::InvalidField(name) => write!(f, "invalid field: {name}"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after batch"),
        }
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------------
// Primitives: varint, zigzag, CRC-32.
// ---------------------------------------------------------------------------

/// Append `v` as an LEB128 varint (1–10 bytes).
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read an LEB128 varint from `bytes[*pos..]`, advancing `pos`.
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &b = bytes.get(*pos).ok_or(DecodeError::Truncated)?;
        *pos += 1;
        if shift == 63 && b > 1 {
            return Err(DecodeError::VarintOverflow);
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(DecodeError::VarintOverflow);
        }
    }
}

/// Map a signed value onto an unsigned one with small magnitudes staying
/// small (0,-1,1,-2 → 0,1,2,3).
pub const fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub const fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// CRC-32 (IEEE, reflected) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc: u32 = !0;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

// ---------------------------------------------------------------------------
// Batch encode.
// ---------------------------------------------------------------------------

/// A decoded upload batch: one device's records, in canonical order.
#[derive(Debug, Clone, PartialEq)]
pub struct WireBatch {
    /// The uploading device.
    pub device: DeviceId,
    /// Per-device upload sequence number (dedup key).
    pub seq: u64,
    /// The records, sorted by the canonical ordering.
    pub records: Vec<FailureEvent>,
}

/// The canonical intra-batch ordering: start, kind, duration, cause code,
/// then radio context. Total, so encoding is a function of the record set.
fn canonical_key(e: &FailureEvent) -> (u64, usize, u64, i64, u8, u8, u8, u64, u8) {
    (
        e.start.as_millis(),
        e.kind.index(),
        e.duration.as_millis(),
        e.cause.map_or(i64::MIN, |c| i64::from(c.code())),
        e.ctx.rat.index() as u8,
        e.ctx.signal.value(),
        e.ctx.apn.index() as u8,
        e.ctx.bs.map_or(u64::MAX, |b| b.as_u64()),
        e.ctx.isp.index() as u8,
    )
}

/// Append one record in the batch layout (everything but the device),
/// its start stored as the delta from `prev_start_ms`, which must not
/// exceed it. Other frames that carry records (the stream crate's delta
/// checkpoint links) reuse this layout with `prev_start_ms = 0`.
#[inline]
pub fn write_record(out: &mut Vec<u8>, e: &FailureEvent, prev_start_ms: u64) {
    out.push(e.kind.index() as u8);
    write_varint(out, e.start.as_millis() - prev_start_ms);
    write_varint(out, e.duration.as_millis());
    match e.cause {
        None => out.push(0),
        Some(c) => write_varint(out, 1 + zigzag(i64::from(c.code()))),
    }
    out.push(e.ctx.rat.index() as u8);
    out.push(e.ctx.signal.value());
    out.push(e.ctx.apn.index() as u8);
    match e.ctx.bs {
        None => out.push(0),
        Some(BsId::Gsm { mcc, mnc, lac, cid }) => {
            out.push(1);
            write_varint(out, u64::from(mcc));
            write_varint(out, u64::from(mnc));
            write_varint(out, u64::from(lac));
            write_varint(out, u64::from(cid));
        }
        Some(BsId::Cdma { sid, nid, bid }) => {
            out.push(2);
            write_varint(out, u64::from(sid));
            write_varint(out, u64::from(nid));
            write_varint(out, u64::from(bid));
        }
    }
    out.push(e.ctx.isp.index() as u8);
}

/// Encode one device's records as a wire batch.
///
/// The `device` in the header is authoritative; per-record device ids are
/// not serialized (a batch is single-device by construction — debug builds
/// assert it). Records are sorted into canonical order first, so the same
/// record set always produces the same bytes.
pub fn encode_batch(device: DeviceId, seq: u64, records: &[FailureEvent]) -> Vec<u8> {
    debug_assert!(
        records.iter().all(|r| r.device == device),
        "batch contains records from another device"
    );
    let mut sorted: Vec<&FailureEvent> = records.iter().collect();
    sorted.sort_by_key(|e| canonical_key(e));

    let mut out = Vec::with_capacity(16 + records.len() * 24);
    out.extend_from_slice(&MAGIC);
    out.push(SCHEMA_VERSION);
    write_varint(&mut out, u64::from(device.0));
    write_varint(&mut out, seq);
    write_varint(&mut out, sorted.len() as u64);

    let mut prev_start = 0u64;
    for e in sorted {
        write_record(&mut out, e, prev_start);
        prev_start = e.start.as_millis();
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

// ---------------------------------------------------------------------------
// Batch decode.
// ---------------------------------------------------------------------------

fn read_u8(bytes: &[u8], pos: &mut usize) -> Result<u8, DecodeError> {
    let &b = bytes.get(*pos).ok_or(DecodeError::Truncated)?;
    *pos += 1;
    Ok(b)
}

fn narrow<T: TryFrom<u64>>(v: u64, field: &'static str) -> Result<T, DecodeError> {
    T::try_from(v).map_err(|_| DecodeError::InvalidField(field))
}

/// Read one record written by [`write_record`] for `device`, its start
/// relative to `prev_start_ms`. Total: malformed input is a
/// [`DecodeError`].
#[inline]
pub fn read_record(
    bytes: &[u8],
    pos: &mut usize,
    device: DeviceId,
    prev_start_ms: u64,
) -> Result<FailureEvent, DecodeError> {
    let kind = FailureKind::from_index(usize::from(read_u8(bytes, pos)?))
        .ok_or(DecodeError::InvalidField("kind"))?;
    let delta = read_varint(bytes, pos)?;
    let start = prev_start_ms
        .checked_add(delta)
        .ok_or(DecodeError::InvalidField("start"))?;
    let duration = read_varint(bytes, pos)?;
    let cause = match read_varint(bytes, pos)? {
        0 => None,
        c => {
            let code =
                i32::try_from(unzigzag(c - 1)).map_err(|_| DecodeError::InvalidField("cause"))?;
            Some(DataFailCause::from_code(code))
        }
    };
    let rat = Rat::from_index(usize::from(read_u8(bytes, pos)?))
        .ok_or(DecodeError::InvalidField("rat"))?;
    let signal_raw = read_u8(bytes, pos)?;
    if signal_raw > 5 {
        return Err(DecodeError::InvalidField("signal"));
    }
    let signal = SignalLevel::new(signal_raw);
    let apn = Apn::from_index(usize::from(read_u8(bytes, pos)?))
        .ok_or(DecodeError::InvalidField("apn"))?;
    let bs = match read_u8(bytes, pos)? {
        0 => None,
        1 => Some(BsId::Gsm {
            mcc: narrow(read_varint(bytes, pos)?, "mcc")?,
            mnc: narrow(read_varint(bytes, pos)?, "mnc")?,
            lac: narrow(read_varint(bytes, pos)?, "lac")?,
            cid: narrow(read_varint(bytes, pos)?, "cid")?,
        }),
        2 => Some(BsId::Cdma {
            sid: narrow(read_varint(bytes, pos)?, "sid")?,
            nid: narrow(read_varint(bytes, pos)?, "nid")?,
            bid: narrow(read_varint(bytes, pos)?, "bid")?,
        }),
        _ => return Err(DecodeError::InvalidField("bs_tag")),
    };
    let isp = Isp::from_index(usize::from(read_u8(bytes, pos)?))
        .ok_or(DecodeError::InvalidField("isp"))?;
    Ok(FailureEvent {
        device,
        kind,
        start: SimTime::from_millis(start),
        duration: SimDuration::from_millis(duration),
        cause,
        ctx: InSituInfo {
            rat,
            signal,
            apn,
            bs,
            isp,
        },
    })
}

/// Decode a wire batch. Total: any malformed input yields a [`DecodeError`].
pub fn decode_batch(bytes: &[u8]) -> Result<WireBatch, DecodeError> {
    // Frame: payload then 4-byte CRC trailer. Check the CRC before parsing
    // so field errors are only reported for intact batches.
    if bytes.len() < MAGIC.len() + 1 + 4 {
        return Err(DecodeError::Truncated);
    }
    let (payload, trailer) = bytes.split_at(bytes.len() - 4);
    if payload[..2] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let computed = crc32(payload);
    if computed != stored {
        return Err(DecodeError::BadCrc { computed, stored });
    }
    let mut pos = 2;
    let version = read_u8(payload, &mut pos)?;
    if version != SCHEMA_VERSION {
        return Err(DecodeError::UnsupportedVersion(version));
    }
    let device = DeviceId(narrow::<u32>(read_varint(payload, &mut pos)?, "device")?);
    let seq = read_varint(payload, &mut pos)?;
    let count = read_varint(payload, &mut pos)?;
    // An upper bound that any genuine batch satisfies (each record is ≥ 8
    // bytes on the wire) — rejects absurd counts before allocating.
    if count > (payload.len() as u64) / 8 + 1 {
        return Err(DecodeError::InvalidField("count"));
    }

    let mut records = Vec::with_capacity(count as usize);
    let mut prev_start = 0u64;
    for _ in 0..count {
        let e = read_record(payload, &mut pos, device, prev_start)?;
        prev_start = e.start.as_millis();
        records.push(e);
    }
    if pos != payload.len() {
        return Err(DecodeError::TrailingBytes);
    }
    Ok(WireBatch {
        device,
        seq,
        records,
    })
}

/// Peek at a batch header without validating the CRC or parsing records —
/// the router uses this to shard batches by device cheaply.
pub fn peek_device(bytes: &[u8]) -> Result<DeviceId, DecodeError> {
    if bytes.len() < 3 {
        return Err(DecodeError::Truncated);
    }
    if bytes[..2] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let mut pos = 3;
    Ok(DeviceId(narrow::<u32>(
        read_varint(bytes, &mut pos)?,
        "device",
    )?))
}

/// The raw (pre-codec) size estimate of one record, bytes — the fixed-width
/// row the monitor budgets storage with. The codec's win is measured
/// against this.
pub const RAW_RECORD_BYTES: u64 = 35;

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(start_ms: u64, kind: FailureKind, cause: Option<DataFailCause>) -> FailureEvent {
        FailureEvent {
            device: DeviceId(42),
            kind,
            start: SimTime::from_millis(start_ms),
            duration: SimDuration::from_secs(12),
            cause,
            ctx: InSituInfo {
                rat: Rat::G4,
                signal: SignalLevel::L3,
                apn: Apn::Internet,
                bs: Some(BsId::gsm_cn(1, 500, 77)),
                isp: Isp::B,
            },
        }
    }

    #[test]
    fn varint_round_trips() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123456, 98765] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn batch_round_trips_sorted() {
        let records = vec![
            ev(5_000, FailureKind::DataStall, None),
            ev(
                1_000,
                FailureKind::DataSetupError,
                Some(DataFailCause::PppTimeout),
            ),
            ev(9_000, FailureKind::OutOfService, None),
        ];
        let bytes = encode_batch(DeviceId(42), 7, &records);
        let decoded = decode_batch(&bytes).expect("round trip");
        assert_eq!(decoded.device, DeviceId(42));
        assert_eq!(decoded.seq, 7);
        assert_eq!(decoded.records.len(), 3);
        // Canonical order: sorted by start.
        assert_eq!(decoded.records[0].start.as_millis(), 1_000);
        assert_eq!(decoded.records[1].start.as_millis(), 5_000);
        assert_eq!(decoded.records[2].start.as_millis(), 9_000);
        assert_eq!(decoded.records[0].cause, Some(DataFailCause::PppTimeout));
        assert_eq!(decoded.records[1].ctx.isp, Isp::B);
    }

    #[test]
    fn encoding_beats_raw_rows() {
        let records: Vec<FailureEvent> = (0..100)
            .map(|i| ev(i * 30_000, FailureKind::DataStall, None))
            .collect();
        let bytes = encode_batch(DeviceId(42), 0, &records);
        let raw = records.len() as u64 * RAW_RECORD_BYTES;
        assert!(
            (bytes.len() as u64) < raw,
            "encoded {} vs raw {raw}",
            bytes.len()
        );
    }

    #[test]
    fn empty_batch_round_trips() {
        let bytes = encode_batch(DeviceId(3), 1, &[]);
        let decoded = decode_batch(&bytes).expect("empty batch");
        assert_eq!(decoded.records.len(), 0);
        assert_eq!(decoded.seq, 1);
    }

    #[test]
    fn truncation_is_an_error_never_a_panic() {
        let bytes = encode_batch(DeviceId(42), 0, &[ev(10, FailureKind::DataStall, None)]);
        for cut in 0..bytes.len() {
            let err = decode_batch(&bytes[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes decoded");
        }
    }

    #[test]
    fn corruption_is_detected_by_crc() {
        let bytes = encode_batch(DeviceId(42), 0, &[ev(10, FailureKind::DataStall, None)]);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            let r = decode_batch(&bad);
            assert!(r.is_err(), "flipping byte {i} went unnoticed");
        }
    }

    #[test]
    fn wrong_magic_and_version() {
        let mut bytes = encode_batch(DeviceId(1), 0, &[]);
        bytes[0] = b'X';
        assert_eq!(decode_batch(&bytes), Err(DecodeError::BadMagic));

        let mut v2 = encode_batch(DeviceId(1), 0, &[]);
        v2[2] = 9;
        let crc = crc32(&v2[..v2.len() - 4]).to_le_bytes();
        let n = v2.len();
        v2[n - 4..].copy_from_slice(&crc);
        assert_eq!(decode_batch(&v2), Err(DecodeError::UnsupportedVersion(9)));
    }

    #[test]
    fn peek_device_reads_header_only() {
        let bytes = encode_batch(DeviceId(1234), 9, &[]);
        assert_eq!(peek_device(&bytes).unwrap(), DeviceId(1234));
        assert!(peek_device(&bytes[..2]).is_err());
    }
}
