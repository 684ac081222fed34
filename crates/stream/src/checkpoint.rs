//! Versioned pipeline checkpoint: the whole stream state as one frame.
//!
//! Layout (all integers LEB128 varints unless noted):
//!
//! ```text
//! "SP" version(u8)
//! window_ms lateness_ms hot_windows late_flush        stream config
//! virtual_shards collector_lateness_ms                collector config
//! bucket_ms rollup_buckets partitions auto_compact    store config
//! cursor sealed_before late_seq                       replay position
//! counters x9                                         bookkeeping
//! len collector_checkpoint                            embedded "CK" frame
//! manifest                                            see segment module
//! n (window_index len store_image)*                   pending windows
//! len store_image                                     late lane
//! crc32 (u32 LE)                                      over all prior bytes
//! ```
//!
//! The checkpoint carries everything except sealed segment *contents* —
//! those reload from the [`SegmentStore`](crate::SegmentStore) backend and
//! are cross-checked against the manifest. Restore is total: truncated,
//! bit-flipped, or garbage bytes yield a typed [`StreamError`].
//!
//! A replicated pipeline ships checkpoints as links
//! ([`StreamPipeline::checkpoint_link`], see [`link`](crate::link)): the
//! first is the `SP` frame above, the base; each later one is a delta that
//! carries only what changed since the link it extends:
//!
//! ```text
//! "SD" version(u8)
//! link parent_crc                                   this link's number (base = 0),
//!                                                   CRC-32 trailer of the parent
//! cursor sealed_before late_seq unroutable          replay position
//! counters x9                                       bookkeeping
//! manifest_suffix                                   entries sealed since the parent
//! n (shard len ck_shard_section)*                   dirty virtual shards, ascending
//! n (window records)*                               records routed into open windows
//! records                                           records routed into the late lane
//! crc32 (u32 LE)                                    over all prior bytes
//!
//! records := n (device record)*                     ingest batch record layout,
//!                                                   start absolute, arrival order
//! ```
//!
//! A `ck_shard_section` is one virtual shard's part of the embedded `CK`
//! frame (`cellrel_ingest::CheckpointParts`). Windows below
//! `sealed_before` became segments; when `late_seq` moved, the late-lane
//! records are those since the lane's last flush. A
//! [`Standby`](crate::Standby) applying base and deltas reassembles the
//! leader's `SP` bytes exactly.

use crate::error::{check_crc, narrow, read_varint, take};
use crate::pipeline::{StreamConfig, StreamCounters, StreamPipeline};
use crate::segment::{
    decode_manifest, decode_segment, encode_manifest, SegmentEntry, SegmentStore,
};
use crate::StreamError;
use cellrel_ingest::codec::{crc32, write_varint};
use cellrel_ingest::{restore_checkpoint, save_checkpoint, CollectorConfig};
use cellrel_store::{restore_store, save_store, DeviceDirectory, Store, StoreConfig};
use cellrel_types::SimDuration;
use std::collections::BTreeMap;

/// Magic bytes opening a pipeline checkpoint.
pub const CKPT_STREAM_MAGIC: [u8; 2] = *b"SP";
/// Current pipeline checkpoint schema version.
pub const CKPT_STREAM_VERSION: u8 = 1;

impl<'d> StreamPipeline<'d> {
    /// Serialize the full pipeline state. Pure: checkpointing never
    /// mutates the pipeline, so any cadence (every seal, every batch) is
    /// behaviour-neutral.
    pub fn checkpoint(&self) -> Vec<u8> {
        let pending = self
            .pending
            .iter()
            .map(|(&w, delta)| (w, save_store(delta)))
            .collect();
        CheckpointView {
            cfg: &self.cfg,
            cursor: self.cursor,
            sealed_before: self.sealed_before,
            late_seq: self.late_seq,
            counters: &self.counters,
            collector: &save_checkpoint(&self.collector),
            manifest: &self.manifest,
            pending: &pending,
            late: &save_store(&self.late),
        }
        .encode()
    }

    /// Rebuild a pipeline from a checkpoint and its segment backend.
    /// Every manifest entry is reloaded and verified (missing or tampered
    /// segments are typed errors); the hot/base tiers are rebuilt by
    /// replaying the manifest in seal order, so the merged view — and the
    /// behaviour of every subsequent [`offer`](StreamPipeline::offer) — is
    /// exactly what the uninterrupted pipeline would have produced.
    pub fn restore(
        bytes: &[u8],
        dir: &'d DeviceDirectory,
        segs: &dyn SegmentStore,
    ) -> Result<Self, StreamError> {
        let d = Decoded::decode(bytes)?;
        let (pending, late) = d.restore_stores()?;
        let mut p = StreamPipeline {
            cfg: d.cfg,
            dir,
            collector: restore_checkpoint(d.collector)?,
            cursor: d.cursor,
            sealed_before: d.sealed_before,
            pending,
            late,
            late_seq: d.late_seq,
            base: Store::new(&d.cfg.store),
            hot: Default::default(),
            manifest: Vec::with_capacity(d.manifest.len()),
            counters: StreamCounters::default(),
            links: None,
        };
        // Replay the manifest in seal order, verifying each segment
        // against its entry; this reproduces the hot/base tier split.
        for entry in d.manifest {
            let delta = load_segment(&entry, &d.cfg, segs)?;
            p.manifest.push(entry);
            p.tier_insert(entry, delta, false);
        }
        p.counters = d.counters;
        p.counters.restores += 1;
        Ok(p)
    }
}

/// Reload one manifest entry's segment and check it against the entry and
/// the stream's store configuration.
pub(crate) fn load_segment(
    entry: &SegmentEntry,
    cfg: &StreamConfig,
    segs: &dyn SegmentStore,
) -> Result<Store, StreamError> {
    let seg_bytes = segs.get(&entry.name())?;
    let (got, delta) = decode_segment(&seg_bytes)?;
    if got != *entry || *delta.config() != cfg.store {
        return Err(StreamError::SegmentMismatch(entry.name()));
    }
    Ok(delta)
}

/// Everything an `SP` checkpoint carries, borrowed from a live pipeline or
/// from a follower's standby (see the `link` module), so both encode
/// through one writer.
pub(crate) struct CheckpointView<'a> {
    pub(crate) cfg: &'a StreamConfig,
    pub(crate) cursor: u64,
    pub(crate) sealed_before: u64,
    pub(crate) late_seq: u64,
    pub(crate) counters: &'a StreamCounters,
    /// The embedded `CK` collector checkpoint.
    pub(crate) collector: &'a [u8],
    pub(crate) manifest: &'a [SegmentEntry],
    /// Open windows' store images, by window index.
    pub(crate) pending: &'a BTreeMap<u64, Vec<u8>>,
    /// The late lane's store image.
    pub(crate) late: &'a [u8],
}

impl CheckpointView<'_> {
    /// The `SP` bytes.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let cfg = self.cfg;
        let mut out = Vec::with_capacity(1024 + self.collector.len());
        out.extend_from_slice(&CKPT_STREAM_MAGIC);
        out.push(CKPT_STREAM_VERSION);
        write_varint(&mut out, cfg.window_ms);
        write_varint(&mut out, cfg.lateness_ms);
        write_varint(&mut out, cfg.hot_windows as u64);
        write_varint(&mut out, cfg.late_flush);
        write_varint(&mut out, cfg.collector.virtual_shards as u64);
        write_varint(&mut out, cfg.collector.lateness.as_millis());
        write_varint(&mut out, cfg.store.bucket_ms);
        write_varint(&mut out, u64::from(cfg.store.rollup_buckets));
        write_varint(&mut out, cfg.store.partitions as u64);
        write_varint(&mut out, cfg.store.auto_compact_every);
        write_varint(&mut out, self.cursor);
        write_varint(&mut out, self.sealed_before);
        write_varint(&mut out, self.late_seq);
        write_counters(&mut out, self.counters);
        write_varint(&mut out, self.collector.len() as u64);
        out.extend_from_slice(self.collector);
        encode_manifest(self.manifest, &mut out);
        write_varint(&mut out, self.pending.len() as u64);
        for (&w, img) in self.pending {
            write_varint(&mut out, w);
            write_varint(&mut out, img.len() as u64);
            out.extend_from_slice(img);
        }
        write_varint(&mut out, self.late.len() as u64);
        out.extend_from_slice(self.late);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }
}

/// An `SP` checkpoint decoded into parts: the embedded collector
/// checkpoint and store images still encoded (CRC-checked, fields not
/// yet decoded), the segments not yet reloaded.
pub(crate) struct Decoded<'a> {
    pub(crate) cfg: StreamConfig,
    pub(crate) cursor: u64,
    pub(crate) sealed_before: u64,
    pub(crate) late_seq: u64,
    pub(crate) counters: StreamCounters,
    /// The embedded `CK` frame; its CRC is checked, its fields are not.
    pub(crate) collector: &'a [u8],
    pub(crate) manifest: Vec<SegmentEntry>,
    /// Open windows' store images, in ascending window order.
    pub(crate) pending: Vec<(u64, &'a [u8])>,
    /// The late lane's store image.
    pub(crate) late: &'a [u8],
}

impl<'a> Decoded<'a> {
    /// Decode `SP` bytes. Total: malformed input is a typed error. The
    /// caller decodes [`collector`](Self::collector) and the store images
    /// in the form it needs.
    pub(crate) fn decode(bytes: &'a [u8]) -> Result<Self, StreamError> {
        let payload = check_crc(bytes, CKPT_STREAM_MAGIC.len() + 1)?;
        if payload[..2] != CKPT_STREAM_MAGIC {
            return Err(StreamError::BadMagic);
        }
        if payload[2] != CKPT_STREAM_VERSION {
            return Err(StreamError::BadVersion(payload[2]));
        }
        let mut pos = 3usize;
        let window_ms = read_varint(payload, &mut pos)?;
        let lateness_ms = read_varint(payload, &mut pos)?;
        let hot_windows: usize = narrow(read_varint(payload, &mut pos)?, "hot_windows")?;
        let late_flush = read_varint(payload, &mut pos)?;
        let virtual_shards: usize = narrow(read_varint(payload, &mut pos)?, "virtual_shards")?;
        let collector_lateness = read_varint(payload, &mut pos)?;
        let store = StoreConfig {
            bucket_ms: read_varint(payload, &mut pos)?,
            rollup_buckets: narrow(read_varint(payload, &mut pos)?, "rollup_buckets")?,
            partitions: narrow(read_varint(payload, &mut pos)?, "partitions")?,
            auto_compact_every: read_varint(payload, &mut pos)?,
        };
        let cfg = StreamConfig {
            window_ms,
            lateness_ms,
            hot_windows,
            late_flush,
            collector: CollectorConfig {
                virtual_shards,
                lateness: SimDuration::from_millis(collector_lateness),
                ..CollectorConfig::default()
            },
            store,
        };
        cfg.validate()?;
        let cursor = read_varint(payload, &mut pos)?;
        let sealed_before = read_varint(payload, &mut pos)?;
        let late_seq = read_varint(payload, &mut pos)?;
        let counters = read_counters(payload, &mut pos)?;

        let ck_len: usize = narrow(read_varint(payload, &mut pos)?, "collector length")?;
        let collector = take(payload, &mut pos, ck_len)?;
        let manifest = decode_manifest(payload, &mut pos)?;

        let npending: usize = narrow(read_varint(payload, &mut pos)?, "pending count")?;
        if npending > payload.len().saturating_sub(pos) / 2 + 1 {
            return Err(StreamError::Malformed("pending count"));
        }
        let mut pending: Vec<(u64, &[u8])> = Vec::with_capacity(npending);
        for _ in 0..npending {
            let w = read_varint(payload, &mut pos)?;
            if w < sealed_before || pending.last().is_some_and(|&(p, _)| w <= p) {
                return Err(StreamError::Malformed("pending window order"));
            }
            let len: usize = narrow(read_varint(payload, &mut pos)?, "pending image length")?;
            pending.push((w, take(payload, &mut pos, len)?));
        }
        let late_len: usize = narrow(read_varint(payload, &mut pos)?, "late image length")?;
        let late = take(payload, &mut pos, late_len)?;
        if pos != payload.len() {
            return Err(StreamError::TrailingBytes);
        }
        Ok(Decoded {
            cfg,
            cursor,
            sealed_before,
            late_seq,
            counters,
            collector,
            manifest,
            pending,
            late,
        })
    }

    /// Restore the open windows' and the late lane's store images, each
    /// checked to have the stream's store configuration.
    pub(crate) fn restore_stores(&self) -> Result<(BTreeMap<u64, Store>, Store), StreamError> {
        let restore = |img: &[u8], field| {
            let store = restore_store(img)?;
            if *store.config() != self.cfg.store {
                return Err(StreamError::Malformed(field));
            }
            Ok(store)
        };
        let mut pending = BTreeMap::new();
        for &(w, img) in &self.pending {
            pending.insert(w, restore(img, "pending window store config")?);
        }
        Ok((pending, restore(self.late, "late lane store config")?))
    }
}

pub(crate) fn write_counters(out: &mut Vec<u8>, c: &StreamCounters) {
    for v in counters_fields(c) {
        write_varint(out, v);
    }
}

pub(crate) fn read_counters(bytes: &[u8], pos: &mut usize) -> Result<StreamCounters, StreamError> {
    let mut f = [0u64; 9];
    for v in f.iter_mut() {
        *v = read_varint(bytes, pos)?;
    }
    Ok(counters_from_fields(f))
}

fn counters_fields(c: &StreamCounters) -> [u64; 9] {
    [
        c.batches,
        c.records,
        c.late_records,
        c.windows_sealed,
        c.empty_windows,
        c.late_segments,
        c.segments_persisted,
        c.base_folds,
        c.restores,
    ]
}

fn counters_from_fields(f: [u64; 9]) -> StreamCounters {
    StreamCounters {
        batches: f[0],
        records: f[1],
        late_records: f[2],
        windows_sealed: f[3],
        empty_windows: f[4],
        late_segments: f[5],
        segments_persisted: f[6],
        base_folds: f[7],
        restores: f[8],
    }
}
