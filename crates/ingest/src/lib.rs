//! # cellrel-ingest
//!
//! The fleet telemetry **ingestion pipeline**: the backend half of the
//! paper's nationwide measurement platform (§2.2), which collected 2.32 B
//! failure records from 70 M devices as compressed uploads.
//!
//! Three layers, bottom up:
//!
//! * [`codec`] — the compact binary wire format for trace batches: LEB128
//!   varints, delta-of-timestamps, per-batch framing (magic, schema
//!   version, device id, upload sequence number) and a CRC-32 trailer.
//!   Encoding is a pure function of the record set; decoding is total —
//!   adversarial bytes yield a [`codec::DecodeError`], never a panic.
//!   The device-side `Uploader` in `cellrel-monitor` ships these bytes, so
//!   the network-overhead numbers in the monitor are measured, not
//!   estimated with a compression fudge factor.
//! * [`collector`] — the sharded collector: batches route to
//!   `device % virtual_shards`, workers behind bounded channels apply
//!   dedup (per-device upload seq), §2.1 noise filtering, and
//!   late/out-of-order accounting, then fold into constant-memory
//!   aggregates whose digest is identical at 1, 2, or 8 ingest threads.
//!   Durations are summarised with the mergeable quantile sketches from
//!   `cellrel_sim::sketch`. Downstream consumers (the `cellrel-store`
//!   analytics cube) attach via [`collector::AcceptedSink`] /
//!   [`run_ingest_with`] and observe exactly the accepted record stream.
//! * [`checkpoint`] — versioned, CRC-framed serialization of the full
//!   collector state, so ingestion survives restarts without replay.
//!
//! [`cellrel_monitor::Uploader`]: https://docs.rs/cellrel-monitor

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod codec;
pub mod collector;

pub use checkpoint::{
    check_shard, restore_checkpoint, restore_checkpoint_with, save_checkpoint,
    save_checkpoint_with, save_shard, CheckpointParts,
};
pub use codec::{decode_batch, encode_batch, peek_device, DecodeError, WireBatch};
pub use collector::{
    run_ingest, run_ingest_with, AcceptedSink, Collector, CollectorConfig, IngestAggregate,
    IngestCounters, IngestReport,
};
