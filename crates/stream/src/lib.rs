//! Continuously running windowed pipeline over the collector and the store.
//!
//! The batch pipeline runs simulate → ingest → store once; a nationwide
//! monitoring platform never stops. This crate turns the same deterministic
//! parts into a long-running stream processor:
//!
//! - [`StreamPipeline`] pulls encoded upload batches through the sharded
//!   collector and routes every accepted record into an event-time window
//!   (`start_ms / window_ms`). Windows **seal** when the collector's
//!   watermark — the newest accepted timestamp across shards — has moved
//!   past the window end by the configured lateness bound.
//! - Sealing persists the window's store delta as a CRC-framed **segment**
//!   (see [`segment`]) through a [`SegmentStore`] backend and appends a
//!   [`SegmentEntry`] to the manifest. Sealed segments live in a bounded
//!   hot in-memory tier; older ones fold into a compacted base tier.
//!   Records arriving for already-sealed windows land in a bounded
//!   **late lane** that flushes as its own segment kind, so nothing is
//!   ever dropped and the merged view stays byte-identical to batch.
//! - Tables 1/2 re-derive incrementally from the merged view after every
//!   seal ([`StreamPipeline::tables`]), and [`publish::run_published`]
//!   pushes a snapshot into a `queryd` core per sealed window.
//! - [`StreamPipeline::checkpoint`] serializes the whole pipeline —
//!   collector checkpoint, segment manifest, pending (unsealed) window
//!   deltas, late lane, cursor — as one versioned CRC-framed blob;
//!   [`StreamPipeline::restore`] rebuilds from that blob plus the segment
//!   backend. Restart is **digest-transparent**: replaying the remaining
//!   batches yields byte-identical store digests, manifests, and tables,
//!   even when the kill lands mid-window ([`campaign::run_kill_restart`]).
//! - [`StreamPipeline::checkpoint_link`] is the replicated form: one full
//!   checkpoint, then small delta links that a [`Standby`] applies without
//!   a restore and reassembles into the same checkpoint bytes ([`link`]).
//!
//! Everything is std-only and deterministic; all decode paths are total
//! (malformed checkpoint/segment/manifest bytes yield a typed
//! [`StreamError`], never a panic).

pub mod campaign;
pub mod checkpoint;
pub mod link;
pub mod pipeline;
pub mod publish;
pub mod segment;
pub mod source;

mod error;

pub use campaign::{run_kill_restart, KillOutcome, KillRestartConfig, KillRestartReport};
pub use checkpoint::{CKPT_STREAM_MAGIC, CKPT_STREAM_VERSION};
pub use error::StreamError;
pub use link::{is_delta_link, Standby, LINK_MAGIC, LINK_VERSION};
pub use pipeline::{StreamConfig, StreamCounters, StreamPipeline};
pub use publish::run_published;
pub use segment::{
    decode_manifest, decode_segment, encode_manifest, encode_segment, DirSegments, MemSegments,
    SegmentEntry, SegmentKind, SegmentStore, SEG_MAGIC, SEG_VERSION,
};
pub use source::batches_from_events;
