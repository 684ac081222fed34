//! Checkpoint / restore of collector state.
//!
//! A 243-day campaign's ingestion should survive a backend restart without
//! replaying months of uploads, so the full collector state — per-shard
//! aggregates, sketches (in sparse form), dedup maps, and watermarks —
//! serializes to a versioned byte format framed exactly like the wire
//! codec: magic + version up front, CRC-32 at the back, varints throughout.
//! Restoring a checkpoint and continuing a stream produces the same digest
//! as ingesting the whole stream in one run (the pipeline test asserts it).
//!
//! ```text
//! ckpt  := "CK" version:u8 virtual_shards:varint lateness_ms:varint
//!          unroutable:varint shard* crc32:u32le
//! shard := counters:varint^9 watermark:varint
//!          nseq:varint (device:varint seq:varint)*
//!          agg
//! agg   := records:varint by_kind:varint^5 by_isp:varint^3 by_rat:varint^4
//!          duration_ms_total:varint under_30s:varint max_duration_ms:varint
//!          sketch sketch^5
//! sketch:= count:varint min:varint max:varint nnz:varint
//!          (delta_index:varint count:varint)*
//! ```
//!
//! Sketches serialize sparsely — only non-empty buckets, with delta-coded
//! indices — so an idle shard costs a handful of bytes, not 58 KiB.
//! Each `shard` section is self-contained, so [`CheckpointParts`] can hold
//! a checkpoint as per-shard sections, replace the ones a batch touched
//! ([`save_shard`], validated by [`check_shard`]), and reassemble the
//! exact [`save_checkpoint`] bytes.
//! Restore is total: corrupt or truncated checkpoints yield a
//! [`DecodeError`], never a panic or a half-restored collector.

use crate::codec::{crc32, read_varint, write_varint, DecodeError};
use crate::collector::{Collector, IngestAggregate, IngestCounters, ShardState};
use cellrel_sim::sketch::QuantileSketch;
use std::collections::BTreeMap;

/// Checkpoint framing magic.
pub const CKPT_MAGIC: [u8; 2] = *b"CK";
/// Current checkpoint format version.
pub const CKPT_VERSION: u8 = 1;

fn write_sketch(out: &mut Vec<u8>, s: &QuantileSketch) {
    write_varint(out, s.count());
    write_varint(out, s.min().unwrap_or(0));
    write_varint(out, s.max().unwrap_or(0));
    let pairs: Vec<(usize, u64)> = s.nonzero_buckets().collect();
    write_varint(out, pairs.len() as u64);
    let mut prev = 0usize;
    for (i, c) in pairs {
        write_varint(out, (i - prev) as u64);
        prev = i;
        write_varint(out, c);
    }
}

fn read_sketch(bytes: &[u8], pos: &mut usize) -> Result<QuantileSketch, DecodeError> {
    let count = read_varint(bytes, pos)?;
    let min = read_varint(bytes, pos)?;
    let max = read_varint(bytes, pos)?;
    let nnz = read_varint(bytes, pos)?;
    // Each pair costs ≥ 2 bytes on the wire; bound before allocating.
    if nnz > (bytes.len() as u64) / 2 + 1 {
        return Err(DecodeError::InvalidField("sketch nnz"));
    }
    let mut pairs = Vec::with_capacity(nnz as usize);
    let mut index = 0u64;
    for i in 0..nnz {
        let delta = read_varint(bytes, pos)?;
        if i > 0 && delta == 0 {
            return Err(DecodeError::InvalidField("sketch index delta"));
        }
        index = index
            .checked_add(delta)
            .ok_or(DecodeError::InvalidField("sketch index"))?;
        let c = read_varint(bytes, pos)?;
        pairs.push((index as usize, c));
    }
    let s = QuantileSketch::from_parts(min, max, pairs)
        .ok_or(DecodeError::InvalidField("sketch buckets"))?;
    if s.count() != count {
        return Err(DecodeError::InvalidField("sketch count"));
    }
    Ok(s)
}

fn write_agg(out: &mut Vec<u8>, a: &IngestAggregate) {
    write_varint(out, a.records);
    for c in a.by_kind.iter().chain(&a.by_isp).chain(&a.by_rat) {
        write_varint(out, *c);
    }
    write_varint(out, a.duration_ms_total);
    write_varint(out, a.under_30s);
    write_varint(out, a.max_duration_ms);
    write_sketch(out, &a.sketch_all);
    for s in &a.sketch_by_kind {
        write_sketch(out, s);
    }
}

fn read_agg(bytes: &[u8], pos: &mut usize) -> Result<IngestAggregate, DecodeError> {
    let mut a = IngestAggregate {
        records: read_varint(bytes, pos)?,
        ..IngestAggregate::default()
    };
    for c in a
        .by_kind
        .iter_mut()
        .chain(&mut a.by_isp)
        .chain(&mut a.by_rat)
    {
        *c = read_varint(bytes, pos)?;
    }
    a.duration_ms_total = read_varint(bytes, pos)?;
    a.under_30s = read_varint(bytes, pos)?;
    a.max_duration_ms = read_varint(bytes, pos)?;
    a.sketch_all = read_sketch(bytes, pos)?;
    for s in &mut a.sketch_by_kind {
        *s = read_sketch(bytes, pos)?;
    }
    Ok(a)
}

fn write_header(out: &mut Vec<u8>, virtual_shards: usize, lateness_ms: u64, unroutable: u64) {
    out.extend_from_slice(&CKPT_MAGIC);
    out.push(CKPT_VERSION);
    write_varint(out, virtual_shards as u64);
    write_varint(out, lateness_ms);
    write_varint(out, unroutable);
}

fn write_shard(out: &mut Vec<u8>, s: &ShardState) {
    let k = &s.counters;
    for v in [
        k.batches,
        k.bytes,
        k.records,
        k.decode_errors,
        k.duplicate_batches,
        k.duplicate_records,
        k.filtered_noise,
        k.late_records,
        k.out_of_order_batches,
    ] {
        write_varint(out, v);
    }
    write_varint(out, s.watermark_ms);
    write_varint(out, s.last_seq.len() as u64);
    for (&dev, &seq) in &s.last_seq {
        write_varint(out, u64::from(dev));
        write_varint(out, seq);
    }
    write_agg(out, &s.agg);
}

fn read_shard(payload: &[u8], pos: &mut usize) -> Result<ShardState, DecodeError> {
    let mut k = IngestCounters::default();
    for v in [
        &mut k.batches,
        &mut k.bytes,
        &mut k.records,
        &mut k.decode_errors,
        &mut k.duplicate_batches,
        &mut k.duplicate_records,
        &mut k.filtered_noise,
        &mut k.late_records,
        &mut k.out_of_order_batches,
    ] {
        *v = read_varint(payload, pos)?;
    }
    let watermark_ms = read_varint(payload, pos)?;
    let nseq = read_varint(payload, pos)?;
    // Each entry costs ≥ 2 bytes; bound before allocating.
    if nseq > (payload.len() as u64) / 2 + 1 {
        return Err(DecodeError::InvalidField("nseq"));
    }
    let mut last_seq = BTreeMap::new();
    for _ in 0..nseq {
        let dev = read_varint(payload, pos)?;
        let dev = u32::try_from(dev).map_err(|_| DecodeError::InvalidField("device"))?;
        let seq = read_varint(payload, pos)?;
        last_seq.insert(dev, seq);
    }
    let agg = read_agg(payload, pos)?;
    Ok(ShardState {
        agg,
        counters: k,
        last_seq,
        watermark_ms,
    })
}

fn seal(mut out: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Serialize the collector's full state.
pub fn save_checkpoint(c: &Collector) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    write_header(&mut out, c.virtual_shards, c.lateness_ms, c.unroutable);
    for s in &c.shards {
        write_shard(&mut out, s);
    }
    seal(out)
}

/// Encode one virtual shard's section of the checkpoint — the `shard`
/// production of the layout. Panics if `shard` is out of range.
pub fn save_shard(c: &Collector, shard: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    write_shard(&mut out, &c.shards[shard]);
    out
}

/// Decode one virtual shard's section totally, as [`restore_checkpoint`]
/// would, and discard it: malformed, truncated, or over-long sections are
/// a [`DecodeError`].
pub fn check_shard(bytes: &[u8]) -> Result<(), DecodeError> {
    let mut pos = 0;
    read_shard(bytes, &mut pos)?;
    if pos != bytes.len() {
        return Err(DecodeError::TrailingBytes);
    }
    Ok(())
}

/// A collector checkpoint split at virtual-shard boundaries: the header
/// fields plus each shard's encoded section. A holder can replace single
/// sections (see [`save_shard`], checked by [`check_shard`]) and
/// [`encode`](Self::encode) the whole — byte-identical to
/// [`save_checkpoint`] of the collector whose sections it holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointParts {
    /// Lateness window, ms.
    pub lateness_ms: u64,
    /// Batches whose header could not be peeked for routing.
    pub unroutable: u64,
    /// One encoded section per virtual shard, in shard order.
    pub shards: Vec<Vec<u8>>,
}

impl CheckpointParts {
    /// Split `CK` bytes into sections, decoding each one totally as
    /// [`restore_checkpoint`] would — but one shard at a time, so the
    /// whole dense collector is never built. Accepts exactly what
    /// `restore_checkpoint` accepts.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let (lateness_ms, unroutable, shards) = read_checkpoint(bytes, |payload, pos| {
            let start = *pos;
            read_shard(payload, pos)?;
            Ok(payload[start..*pos].to_vec())
        })?;
        Ok(CheckpointParts {
            lateness_ms,
            unroutable,
            shards,
        })
    }

    /// The complete `CK` checkpoint.
    pub fn encode(&self) -> Vec<u8> {
        let body: usize = self.shards.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(body + 32);
        write_header(
            &mut out,
            self.shards.len(),
            self.lateness_ms,
            self.unroutable,
        );
        for s in &self.shards {
            out.extend_from_slice(s);
        }
        seal(out)
    }
}

/// Rebuild a collector from checkpoint bytes. Total: malformed input yields
/// a [`DecodeError`].
pub fn restore_checkpoint(bytes: &[u8]) -> Result<Collector, DecodeError> {
    let (lateness_ms, unroutable, shards) = read_checkpoint(bytes, read_shard)?;
    Ok(Collector {
        virtual_shards: shards.len(),
        lateness_ms,
        shards,
        unroutable,
    })
}

/// Check framing and header, then read every shard section with `shard`:
/// `(lateness_ms, unroutable, sections)`.
fn read_checkpoint<T>(
    bytes: &[u8],
    mut shard: impl FnMut(&[u8], &mut usize) -> Result<T, DecodeError>,
) -> Result<(u64, u64, Vec<T>), DecodeError> {
    if bytes.len() < CKPT_MAGIC.len() + 1 + 4 {
        return Err(DecodeError::Truncated);
    }
    let (payload, trailer) = bytes.split_at(bytes.len() - 4);
    if payload[..2] != CKPT_MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let computed = crc32(payload);
    if computed != stored {
        return Err(DecodeError::BadCrc { computed, stored });
    }
    let mut pos = 2;
    let version = payload[pos];
    pos += 1;
    if version != CKPT_VERSION {
        return Err(DecodeError::UnsupportedVersion(version));
    }
    let virtual_shards = read_varint(payload, &mut pos)?;
    if virtual_shards == 0 || virtual_shards > 1 << 20 {
        return Err(DecodeError::InvalidField("virtual_shards"));
    }
    let lateness_ms = read_varint(payload, &mut pos)?;
    let unroutable = read_varint(payload, &mut pos)?;
    let mut shards = Vec::with_capacity(virtual_shards as usize);
    for _ in 0..virtual_shards {
        shards.push(shard(payload, &mut pos)?);
    }
    if pos != payload.len() {
        return Err(DecodeError::TrailingBytes);
    }
    Ok((lateness_ms, unroutable, shards))
}

/// [`save_checkpoint`] with telemetry: counts the save and the encoded
/// bytes under `ingest.checkpoint.*`.
pub fn save_checkpoint_with(c: &Collector, tele: &cellrel_sim::Telemetry) -> Vec<u8> {
    let bytes = save_checkpoint(c);
    tele.inc("ingest.checkpoint.save");
    tele.add("ingest.checkpoint.save_bytes", bytes.len() as u64);
    bytes
}

/// [`restore_checkpoint`] with telemetry: counts successful restores and
/// typed-error rejections under `ingest.checkpoint.*`.
pub fn restore_checkpoint_with(
    bytes: &[u8],
    tele: &cellrel_sim::Telemetry,
) -> Result<Collector, DecodeError> {
    match restore_checkpoint(bytes) {
        Ok(c) => {
            tele.inc("ingest.checkpoint.restore");
            Ok(c)
        }
        Err(e) => {
            tele.inc("ingest.checkpoint.restore_error");
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_batch;
    use crate::collector::CollectorConfig;
    use cellrel_types::{
        Apn, BsId, DeviceId, FailureEvent, FailureKind, InSituInfo, Isp, Rat, SignalLevel,
        SimDuration, SimTime,
    };

    fn ev(device: u32, start_s: u64, dur_s: u64) -> FailureEvent {
        FailureEvent {
            device: DeviceId(device),
            kind: FailureKind::DataStall,
            start: SimTime::from_secs(start_s),
            duration: SimDuration::from_secs(dur_s),
            cause: None,
            ctx: InSituInfo {
                rat: Rat::G4,
                signal: SignalLevel::L2,
                apn: Apn::Internet,
                bs: Some(BsId::gsm_cn(0, 3, 9)),
                isp: Isp::C,
            },
        }
    }

    fn populated() -> Collector {
        let cfg = CollectorConfig {
            virtual_shards: 8,
            ..CollectorConfig::default()
        };
        let mut c = Collector::new(&cfg);
        for d in 0..40u32 {
            let records: Vec<FailureEvent> = (0..6)
                .map(|i| ev(d, 100 * i + u64::from(d), 3 + i))
                .collect();
            c.ingest(&encode_batch(DeviceId(d), 0, &records));
        }
        c
    }

    #[test]
    fn round_trip_preserves_digest() {
        let c = populated();
        let bytes = save_checkpoint(&c);
        let r = restore_checkpoint(&bytes).expect("restore");
        assert_eq!(r.digest(), c.digest());
        assert_eq!(r.report().counters, c.report().counters);
    }

    #[test]
    fn restored_collector_continues_identically() {
        let mut full = populated();
        let mut resumed = restore_checkpoint(&save_checkpoint(&populated())).unwrap();
        for d in 0..40u32 {
            let b = encode_batch(DeviceId(d), 1, &[ev(d, 10_000 + u64::from(d), 9)]);
            full.ingest(&b);
            resumed.ingest(&b);
        }
        assert_eq!(full.digest(), resumed.digest());
    }

    #[test]
    fn empty_collector_round_trips_small() {
        let c = Collector::new(&CollectorConfig::default());
        let bytes = save_checkpoint(&c);
        // ~51 bytes per empty shard (sparse sketches), not 58 KiB each.
        assert!(
            bytes.len() < 4096,
            "empty checkpoint is {} bytes",
            bytes.len()
        );
        let r = restore_checkpoint(&bytes).unwrap();
        assert_eq!(r.digest(), c.digest());
    }

    #[test]
    fn corruption_and_truncation_are_errors() {
        let bytes = save_checkpoint(&populated());
        for cut in 0..bytes.len().min(64) {
            assert!(restore_checkpoint(&bytes[..cut]).is_err());
            assert!(CheckpointParts::decode(&bytes[..cut]).is_err());
        }
        for i in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x20;
            assert!(restore_checkpoint(&bad).is_err(), "flip at {i} undetected");
            assert!(
                CheckpointParts::decode(&bad).is_err(),
                "flip at {i} undetected"
            );
        }
    }

    #[test]
    fn parts_reassemble_the_checkpoint_and_sections_decode_totally() {
        let c = populated();
        let bytes = save_checkpoint(&c);
        let mut parts = CheckpointParts::decode(&bytes).expect("own checkpoint splits");
        assert_eq!(parts.encode(), bytes);
        for s in &parts.shards {
            check_shard(s).expect("own section decodes");
            for cut in 0..s.len() {
                assert!(check_shard(&s[..cut]).is_err(), "prefix {cut} accepted");
            }
            let mut long = s.clone();
            long.push(0);
            assert_eq!(check_shard(&long), Err(DecodeError::TrailingBytes));
        }
        // Replacing one section with a later state of that shard gives the
        // later collector's checkpoint.
        let mut later = c.clone();
        later.ingest(&encode_batch(DeviceId(3), 9, &[ev(3, 50_000, 4)]));
        let shard = later.shard_of(DeviceId(3));
        parts.shards[shard] = save_shard(&later, shard);
        assert_eq!(parts.encode(), save_checkpoint(&later));
    }

    /// An empty sketch recorded with a nonzero min restores, digests,
    /// re-checkpoints and keeps ingesting like an empty one.
    #[test]
    fn empty_sketch_with_a_stray_min_restores_cleanly() {
        let cfg = CollectorConfig {
            virtual_shards: 1,
            ..CollectorConfig::default()
        };
        let empty = Collector::new(&cfg);
        let mut parts = CheckpointParts::decode(&save_checkpoint(&empty)).expect("own");
        // The section ends in six empty sketches: count, min, max, nnz = 0.
        let section = &mut parts.shards[0];
        assert!(section.ends_with(&[0; 24]));
        section.truncate(section.len() - 24);
        for _ in 0..6 {
            section.push(0);
            write_varint(section, 1000);
            section.extend_from_slice(&[0, 0]);
        }
        check_shard(&parts.shards[0]).expect("section decodes");
        let bytes = parts.encode();
        assert_eq!(CheckpointParts::decode(&bytes).expect("splits"), parts);
        let mut r = restore_checkpoint(&bytes).expect("restores");
        assert_eq!(r.digest(), empty.digest());
        assert_eq!(save_checkpoint(&r), save_checkpoint(&empty));
        let mut e = empty.clone();
        let b = encode_batch(DeviceId(1), 0, &[ev(1, 500, 7)]);
        r.ingest(&b);
        e.ingest(&b);
        assert_eq!(r.digest(), e.digest());
        assert_eq!(save_checkpoint(&r), save_checkpoint(&e));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = save_checkpoint(&Collector::new(&CollectorConfig::default()));
        bytes[2] = 99;
        let n = bytes.len();
        let crc = crc32(&bytes[..n - 4]).to_le_bytes();
        bytes[n - 4..].copy_from_slice(&crc);
        assert_eq!(
            restore_checkpoint(&bytes),
            Err(DecodeError::UnsupportedVersion(99))
        );
    }
}
