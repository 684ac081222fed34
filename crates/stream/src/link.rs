//! Delta checkpoint links: a leader ships what changed, a standby applies it.
//!
//! A replicated pipeline checkpoints often (every seal, every few batches),
//! but one batch touches one virtual collector shard, a few pending
//! windows and maybe the late lane. Re-sending the whole `SP` checkpoint
//! each time makes replication cost grow with the state held, and makes
//! every follower re-validate that state with a full restore. Links make
//! both proportional to the change instead:
//!
//! - [`StreamPipeline::checkpoint_link`] returns the full `SP` checkpoint
//!   (the **base**) on its first call, then an `SD` **delta** per call,
//!   each naming the link it extends. The pipeline journals what the
//!   deltas need — dirty virtual shards and the records routed since the
//!   previous link — only once links are on, so a pipeline that never
//!   links pays one branch per record.
//! - A [`Standby`] holds the checkpoint in encoded form — per-shard `CK`
//!   sections rather than a dense collector — plus the pending-window and
//!   late-lane stores, the manifest and the link identity. It takes a base after the same checks
//!   [`StreamPipeline::restore`] makes, and applies a delta by decoding
//!   every carried part and checking its manifest suffix against the
//!   holder's own verified segment entries — no restore, no dense
//!   collector. [`Standby::checkpoint`] reassembles the `SP` bytes, equal
//!   byte for byte to the leader's [`StreamPipeline::checkpoint`] at the
//!   same link, so promotion keeps the one restore path.
//!
//! The byte layout is in the [`checkpoint`](crate::checkpoint) module docs.

use crate::checkpoint::{load_segment, read_counters, write_counters, CheckpointView, Decoded};
use crate::error::{check_crc, narrow, read_varint, take};
use crate::pipeline::{StreamConfig, StreamCounters, StreamPipeline};
use crate::segment::{decode_manifest, encode_manifest, SegmentEntry, SegmentStore};
use crate::StreamError;
use cellrel_ingest::codec::{crc32, read_record, write_record, write_varint};
use cellrel_ingest::{check_shard, save_shard, CheckpointParts, DecodeError};
use cellrel_store::{save_store, DeviceDirectory, Store};
use cellrel_types::{DeviceId, FailureEvent};
use std::collections::{BTreeMap, BTreeSet};

/// Magic bytes opening a delta checkpoint link.
pub const LINK_MAGIC: [u8; 2] = *b"SD";
/// Current delta link schema version.
pub const LINK_VERSION: u8 = 1;

/// Smallest encoded record: device, kind, start, duration and cause
/// varints plus five one-byte context fields.
const MIN_RECORD_BYTES: usize = 10;

/// True when `bytes` open like a delta link (an `SP` base does not).
pub fn is_delta_link(bytes: &[u8]) -> bool {
    bytes.starts_with(&LINK_MAGIC)
}

/// What changed in a linking pipeline since its last link.
#[derive(Debug, Default)]
pub(crate) struct LinkJournal {
    /// Number of the last link taken (0 = the base).
    link: u64,
    /// CRC-32 trailer of the last link taken — its identity.
    crc: u32,
    /// Manifest length at the last link.
    manifest_len: usize,
    /// Virtual collector shards a batch was routed to since.
    pub(crate) dirty: BTreeSet<usize>,
    /// Records routed into each still-pending window since, in order.
    pub(crate) windows: BTreeMap<u64, Vec<FailureEvent>>,
    /// Records routed into the late lane since, or since its last flush.
    pub(crate) late: Vec<FailureEvent>,
}

impl LinkJournal {
    fn after(link: u64, bytes: &[u8], manifest_len: usize) -> Self {
        LinkJournal {
            link,
            crc: trailer_crc(bytes),
            manifest_len,
            ..LinkJournal::default()
        }
    }
}

/// The CRC-32 trailer of a framed checkpoint or link.
fn trailer_crc(bytes: &[u8]) -> u32 {
    let t = &bytes[bytes.len() - 4..];
    u32::from_le_bytes([t[0], t[1], t[2], t[3]])
}

impl StreamPipeline<'_> {
    /// The next checkpoint link: the full [`checkpoint`](Self::checkpoint)
    /// on the first call (or the first after
    /// [`rebase_links`](Self::rebase_links)), an `SD` delta over the
    /// previous link after that. Only resets the change journal; the
    /// pipeline's stream state is untouched. Once links are on, every
    /// routed record is also journaled until the next link, so links are
    /// meant to be taken on a cadence (the cluster takes one on every seal
    /// and every few batches).
    pub fn checkpoint_link(&mut self) -> Vec<u8> {
        let manifest_len = self.manifest.len();
        let (bytes, link) = match self.links.take() {
            None => (self.checkpoint(), 0),
            Some(j) => (self.encode_delta(&j), j.link + 1),
        };
        self.links = Some(LinkJournal::after(link, &bytes, manifest_len));
        bytes
    }

    /// Forget the link history: the next
    /// [`checkpoint_link`](Self::checkpoint_link) is a full base again.
    pub fn rebase_links(&mut self) {
        self.links = None;
    }

    fn encode_delta(&self, j: &LinkJournal) -> Vec<u8> {
        let mut out = Vec::with_capacity(4096);
        out.extend_from_slice(&LINK_MAGIC);
        out.push(LINK_VERSION);
        write_varint(&mut out, j.link + 1);
        write_varint(&mut out, u64::from(j.crc));
        write_varint(&mut out, self.cursor);
        write_varint(&mut out, self.sealed_before);
        write_varint(&mut out, self.late_seq);
        write_varint(&mut out, self.collector.unroutable());
        write_counters(&mut out, &self.counters);
        encode_manifest(&self.manifest[j.manifest_len..], &mut out);
        write_varint(&mut out, j.dirty.len() as u64);
        for &shard in &j.dirty {
            let section = save_shard(&self.collector, shard);
            write_varint(&mut out, shard as u64);
            write_varint(&mut out, section.len() as u64);
            out.extend_from_slice(&section);
        }
        write_varint(&mut out, j.windows.len() as u64);
        for (&w, records) in &j.windows {
            debug_assert!(self.pending.contains_key(&w), "journal window {w} sealed");
            write_varint(&mut out, w);
            write_records(&mut out, records);
        }
        write_records(&mut out, &j.late);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }
}

fn write_records(out: &mut Vec<u8>, records: &[FailureEvent]) {
    write_varint(out, records.len() as u64);
    for e in records {
        write_varint(out, u64::from(e.device.0));
        write_record(out, e, 0);
    }
}

fn read_records(bytes: &[u8], pos: &mut usize) -> Result<Vec<FailureEvent>, StreamError> {
    let n: usize = narrow(read_varint(bytes, pos)?, "link record count")?;
    if n > bytes.len().saturating_sub(*pos) / MIN_RECORD_BYTES {
        return Err(StreamError::Malformed("link record count"));
    }
    let mut records = Vec::with_capacity(n);
    for _ in 0..n {
        let device = DeviceId(narrow(read_varint(bytes, pos)?, "link record device")?);
        let e = read_record(bytes, pos, device, 0).map_err(|e| match e {
            DecodeError::Truncated => StreamError::Truncated,
            _ => StreamError::Malformed("link record"),
        })?;
        records.push(e);
    }
    Ok(records)
}

/// A follower's copy of its leader's newest checkpoint — the collector as
/// encoded per-shard sections, never a dense collector — advanced by delta
/// links. See the module docs.
#[derive(Debug, Clone)]
pub struct Standby {
    cfg: StreamConfig,
    /// Number of the newest applied link (0 = the base).
    link: u64,
    /// CRC-32 trailer of the newest applied link.
    crc: u32,
    cursor: u64,
    sealed_before: u64,
    late_seq: u64,
    counters: StreamCounters,
    collector: CheckpointParts,
    manifest: Vec<SegmentEntry>,
    /// Open windows' stores, by window index. Kept decoded so a delta's
    /// records fold in at their own cost, not the window's.
    pending: BTreeMap<u64, Store>,
    late: Store,
}

impl Standby {
    /// Take an `SP` base after checking it as
    /// [`StreamPipeline::restore`] would: every field decodes (the
    /// collector one virtual shard at a time, never as a whole dense
    /// collector) and every manifest entry's segment is present in `segs`
    /// and matches it.
    pub fn from_base(bytes: &[u8], segs: &dyn SegmentStore) -> Result<Self, StreamError> {
        let d = Decoded::decode(bytes)?;
        let collector = CheckpointParts::decode(d.collector)?;
        let (pending, late) = d.restore_stores()?;
        for entry in &d.manifest {
            load_segment(entry, &d.cfg, segs)?;
        }
        Ok(Standby {
            cfg: d.cfg,
            link: 0,
            crc: trailer_crc(bytes),
            cursor: d.cursor,
            sealed_before: d.sealed_before,
            late_seq: d.late_seq,
            counters: d.counters,
            collector,
            manifest: d.manifest,
            pending,
            late,
        })
    }

    /// Apply an `SD` delta link. `verified` is the holder's own list of
    /// segment entries it has received and verified, in log order; the
    /// delta's manifest suffix must match it position for position.
    /// `dir` resolves the dimensions of the carried records (the same
    /// directory view the leader routes with). Every part is decoded and
    /// checked before anything changes, so a refused delta — including
    /// one that does not extend this standby's newest link
    /// ([`StreamError::DetachedLink`]) — leaves the standby as it was.
    pub fn apply(
        &mut self,
        bytes: &[u8],
        verified: &[SegmentEntry],
        dir: &DeviceDirectory,
    ) -> Result<(), StreamError> {
        let payload = check_crc(bytes, LINK_MAGIC.len() + 1)?;
        if payload[..2] != LINK_MAGIC {
            return Err(StreamError::BadMagic);
        }
        if payload[2] != LINK_VERSION {
            return Err(StreamError::BadVersion(payload[2]));
        }
        let mut pos = 3usize;
        let link = read_varint(payload, &mut pos)?;
        let parent = read_varint(payload, &mut pos)?;
        if link != self.link + 1 || parent != u64::from(self.crc) {
            return Err(StreamError::DetachedLink {
                standby: self.link,
                link,
            });
        }
        let cursor = read_varint(payload, &mut pos)?;
        let sealed_before = read_varint(payload, &mut pos)?;
        let late_seq = read_varint(payload, &mut pos)?;
        let unroutable = read_varint(payload, &mut pos)?;
        if cursor < self.cursor
            || sealed_before < self.sealed_before
            || late_seq < self.late_seq
            || unroutable < self.collector.unroutable
        {
            return Err(StreamError::Malformed("link position moves backwards"));
        }
        let counters = read_counters(payload, &mut pos)?;

        let suffix = decode_manifest(payload, &mut pos)?;
        for (k, entry) in suffix.iter().enumerate() {
            match verified.get(self.manifest.len() + k) {
                Some(v) if v == entry => {}
                Some(_) => return Err(StreamError::SegmentMismatch(entry.name())),
                None => return Err(StreamError::SegmentMissing(entry.name())),
            }
        }

        let shards = self.collector.shards.len();
        let ndirty: usize = narrow(read_varint(payload, &mut pos)?, "dirty shard count")?;
        if ndirty > shards {
            return Err(StreamError::Malformed("dirty shard count"));
        }
        let mut dirty = Vec::with_capacity(ndirty);
        for _ in 0..ndirty {
            let shard: usize = narrow(read_varint(payload, &mut pos)?, "dirty shard")?;
            if shard >= shards || dirty.last().is_some_and(|&(p, _)| shard <= p) {
                return Err(StreamError::Malformed("dirty shard order"));
            }
            let len: usize = narrow(read_varint(payload, &mut pos)?, "shard section length")?;
            let section = take(payload, &mut pos, len)?;
            check_shard(section)?;
            dirty.push((shard, section));
        }

        let nwindows: usize = narrow(read_varint(payload, &mut pos)?, "link window count")?;
        if nwindows > payload.len().saturating_sub(pos) / 2 {
            return Err(StreamError::Malformed("link window count"));
        }
        let mut windows: Vec<(u64, Vec<FailureEvent>)> = Vec::with_capacity(nwindows);
        for _ in 0..nwindows {
            let w = read_varint(payload, &mut pos)?;
            if w < sealed_before || windows.last().is_some_and(|&(p, _)| w <= p) {
                return Err(StreamError::Malformed("link window order"));
            }
            windows.push((w, read_records(payload, &mut pos)?));
        }
        let late = read_records(payload, &mut pos)?;
        if pos != payload.len() {
            return Err(StreamError::TrailingBytes);
        }

        // Everything decoded: commit.
        self.manifest.extend_from_slice(&suffix);
        for (shard, section) in dirty {
            self.collector.shards[shard] = section.to_vec();
        }
        self.collector.unroutable = unroutable;
        // Windows below the new seal point became segments.
        self.pending.retain(|&w, _| w >= sealed_before);
        for (w, records) in windows {
            let store = self
                .pending
                .entry(w)
                .or_insert_with(|| Store::new(&self.cfg.store));
            for e in &records {
                store.record(e, dir.dim_of(e.device));
            }
        }
        if late_seq != self.late_seq {
            // The lane flushed since the parent; the carried records are
            // those routed after the last flush.
            self.late = Store::new(&self.cfg.store);
        }
        for e in &late {
            self.late.record(e, dir.dim_of(e.device));
        }
        self.link = link;
        self.crc = trailer_crc(bytes);
        self.cursor = cursor;
        self.sealed_before = sealed_before;
        self.late_seq = late_seq;
        self.counters = counters;
        Ok(())
    }

    /// The `SP` checkpoint this standby stands for — byte-identical to the
    /// leader's [`StreamPipeline::checkpoint`] at the newest applied link.
    pub fn checkpoint(&self) -> Vec<u8> {
        let pending = self
            .pending
            .iter()
            .map(|(&w, store)| (w, save_store(store)))
            .collect();
        CheckpointView {
            cfg: &self.cfg,
            cursor: self.cursor,
            sealed_before: self.sealed_before,
            late_seq: self.late_seq,
            counters: &self.counters,
            collector: &self.collector.encode(),
            manifest: &self.manifest,
            pending: &pending,
            late: &save_store(&self.late),
        }
        .encode()
    }

    /// Number of the newest applied link (0 = the base).
    pub fn link(&self) -> u64 {
        self.link
    }
}
