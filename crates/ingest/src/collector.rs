//! The sharded trace collector — the backend half of the paper's platform.
//!
//! Encoded upload batches stream in from millions of devices; the collector
//! decodes, deduplicates, noise-filters (§2.1) and folds them into
//! constant-memory aggregates. Two drivers share one state machine:
//!
//! * [`Collector::ingest`] — the sequential path: route a batch to its
//!   virtual shard and fold it in.
//! * [`run_ingest`] — the parallel path: N workers behind **bounded**
//!   channels (`std::sync::mpsc::sync_channel`, so a slow worker
//!   back-pressures the producer instead of buffering unboundedly), each
//!   owning a fixed subset of virtual shards.
//!
//! **Determinism.** Batches are routed to `device % virtual_shards`; each
//! virtual shard is owned by exactly one worker, and a single producer
//! emits batches in a fixed order, so every shard sees the same batch
//! subsequence in the same order at *any* worker count. Folding shard
//! states in shard-index order therefore yields a bit-identical
//! [`Collector::digest`] at 1, 2, or 8 workers — the property CI enforces.
//!
//! **Dedup / noise / lateness.** Re-delivered batches are dropped by the
//! per-device upload sequence number (`seq` must strictly increase);
//! identical records inside one batch are collapsed; records whose cause
//! codes mark rational rejections (the §2.1 false-positive classes) are
//! filtered out; and each shard tracks a high-water mark over record
//! timestamps so late / out-of-order arrivals (devices upload when WiFi
//! appears, often hours after the failure) are surfaced as counters
//! instead of silently skewing the stream.

use crate::codec::{decode_batch, peek_device};
use cellrel_sim::sketch::QuantileSketch;
use cellrel_sim::{resolve_threads, Digest64, Merge, Telemetry};
use cellrel_types::{DeviceId, FailureEvent, SimDuration};
use std::collections::BTreeMap;
use std::sync::mpsc::sync_channel;

/// A consumer of the records the collector **accepts** — i.e. after batch
/// decode, per-device sequence dedup, intra-batch duplicate collapse, and
/// §2.1 false-positive noise filtering. Downstream consumers (the
/// `cellrel-store` analytics cube, test capture buffers) hook in here so
/// they observe exactly the record stream the aggregates are built from.
///
/// [`run_ingest_with`] keeps one sink per *virtual shard* and folds them in
/// shard-index order, so a sink that implements `Merge` sees a
/// deterministic observation sequence at any worker count.
pub trait AcceptedSink {
    /// Observe one accepted record.
    fn accepted(&mut self, e: &FailureEvent);
}

/// The no-op sink: plain ingestion with no downstream consumer.
impl AcceptedSink for () {
    fn accepted(&mut self, _: &FailureEvent) {}
}

/// Capture sink for tests and replay tooling.
impl AcceptedSink for Vec<FailureEvent> {
    fn accepted(&mut self, e: &FailureEvent) {
        self.push(*e);
    }
}

/// Collector tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct CollectorConfig {
    /// Ingest workers for [`run_ingest`] (0 = auto via `CELLREL_THREADS`).
    pub workers: usize,
    /// Bounded-channel capacity per worker (batches in flight before the
    /// producer blocks — the backpressure knob).
    pub queue_depth: usize,
    /// Fixed routing domain. Must not change across a campaign: shard
    /// layout is part of the deterministic state.
    pub virtual_shards: usize,
    /// How far behind a shard's timestamp high-water mark a record may be
    /// before it counts as late.
    pub lateness: SimDuration,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig {
            workers: 0,
            queue_depth: 256,
            virtual_shards: 64,
            lateness: SimDuration::from_mins(30),
        }
    }
}

/// Stream bookkeeping counters (summed across shards in the report).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestCounters {
    /// Batches accepted (decoded, not duplicates).
    pub batches: u64,
    /// Encoded bytes of accepted batches.
    pub bytes: u64,
    /// Records folded into the aggregate.
    pub records: u64,
    /// Batches that failed to decode (truncated / corrupt / bad version).
    pub decode_errors: u64,
    /// Batches dropped by the per-device sequence dedup.
    pub duplicate_batches: u64,
    /// Identical records collapsed within accepted batches.
    pub duplicate_records: u64,
    /// Records dropped by §2.1 noise filtering (rational-rejection causes).
    pub filtered_noise: u64,
    /// Records older than the shard watermark minus the lateness window.
    pub late_records: u64,
    /// Accepted batches whose newest record predates the shard watermark.
    pub out_of_order_batches: u64,
}

impl Merge for IngestCounters {
    fn merge(&mut self, o: Self) {
        self.batches += o.batches;
        self.bytes += o.bytes;
        self.records += o.records;
        self.decode_errors += o.decode_errors;
        self.duplicate_batches += o.duplicate_batches;
        self.duplicate_records += o.duplicate_records;
        self.filtered_noise += o.filtered_noise;
        self.late_records += o.late_records;
        self.out_of_order_batches += o.out_of_order_batches;
    }
}

/// The constant-memory aggregate a shard (and, merged, the fleet) keeps.
///
/// The duration sketches are the dense [`QuantileSketch`] (up to 58 KiB
/// each, six per virtual shard) on purpose: every accepted record pushes
/// into two of them, and a dense push is one array increment. Swapping in
/// the sparse form was measured on the pipeline benchmark (`perfbench`, 2
/// vCPUs of a shared host): `cluster_dump` ingest rose from 8.9–11.9k to
/// 21–29.8k records/s and its peak memory fell from 70.7 to 7.9 MB, but
/// `serve_live`'s upload latency rose from 7.5–7.7 to 11.2–12.6 µs at the
/// median and from 47–51 to 66–72 µs at p99, beyond that benchmark's 25 %
/// bound — `SparseSketch::push` is a binary search plus a `Vec` insert.
/// The costs the dense form brought are paid elsewhere instead: a restored
/// sketch holds only its `min..=max` span until a push lands outside it;
/// checkpoints encode the sketches sparsely, scanning only that span;
/// replicated checkpoints re-send only the virtual shards that changed
/// (`cellrel_stream::link`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestAggregate {
    /// Records aggregated.
    pub records: u64,
    /// Counts by kind (index = `FailureKind::index`).
    pub by_kind: [u64; 5],
    /// Counts by ISP.
    pub by_isp: [u64; 3],
    /// Counts by RAT.
    pub by_rat: [u64; 4],
    /// Exact total duration, integer milliseconds.
    pub duration_ms_total: u64,
    /// Failures shorter than 30 s (§3.1's 70.8 % headline).
    pub under_30s: u64,
    /// Longest single failure, milliseconds.
    pub max_duration_ms: u64,
    /// Duration sketch over all kinds (milliseconds).
    pub sketch_all: QuantileSketch,
    /// Per-kind duration sketches (Figs. 6–7 CDm inputs).
    pub sketch_by_kind: [QuantileSketch; 5],
}

impl IngestAggregate {
    /// Fold one record in.
    pub fn push(&mut self, e: &FailureEvent) {
        let ms = e.duration.as_millis();
        self.records += 1;
        self.by_kind[e.kind.index()] += 1;
        self.by_isp[e.ctx.isp.index()] += 1;
        self.by_rat[e.ctx.rat.index()] += 1;
        self.duration_ms_total += ms;
        if ms < 30_000 {
            self.under_30s += 1;
        }
        self.max_duration_ms = self.max_duration_ms.max(ms);
        self.sketch_all.push(ms);
        self.sketch_by_kind[e.kind.index()].push(ms);
    }

    /// Absorb into a content digest.
    pub fn absorb_into(&self, d: &mut Digest64) {
        d.write_u64(self.records);
        for c in self.by_kind.iter().chain(&self.by_isp).chain(&self.by_rat) {
            d.write_u64(*c);
        }
        d.write_u64(self.duration_ms_total);
        d.write_u64(self.under_30s);
        d.write_u64(self.max_duration_ms);
        self.sketch_all.absorb_into(d);
        for s in &self.sketch_by_kind {
            s.absorb_into(d);
        }
    }
}

impl Merge for IngestAggregate {
    fn merge(&mut self, o: Self) {
        self.records += o.records;
        self.by_kind.merge(o.by_kind);
        self.by_isp.merge(o.by_isp);
        self.by_rat.merge(o.by_rat);
        self.duration_ms_total += o.duration_ms_total;
        self.under_30s += o.under_30s;
        self.max_duration_ms = self.max_duration_ms.max(o.max_duration_ms);
        self.sketch_all.merge(o.sketch_all);
        let [a, b, c, d, e] = o.sketch_by_kind;
        self.sketch_by_kind[0].merge(a);
        self.sketch_by_kind[1].merge(b);
        self.sketch_by_kind[2].merge(c);
        self.sketch_by_kind[3].merge(d);
        self.sketch_by_kind[4].merge(e);
    }
}

/// One virtual shard's deterministic state.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ShardState {
    pub(crate) agg: IngestAggregate,
    pub(crate) counters: IngestCounters,
    /// Per-device last accepted upload sequence number (dedup).
    pub(crate) last_seq: BTreeMap<u32, u64>,
    /// High-water mark over accepted record timestamps, ms.
    pub(crate) watermark_ms: u64,
}

impl ShardState {
    /// Decode and fold one routed batch.
    fn accept(&mut self, bytes: &[u8], lateness_ms: u64) {
        self.accept_with(bytes, lateness_ms, &mut ());
    }

    /// Decode and fold one routed batch, echoing each accepted record into
    /// `sink` (after dedup and noise filtering, before anything else sees it).
    fn accept_with<S: AcceptedSink>(&mut self, bytes: &[u8], lateness_ms: u64, sink: &mut S) {
        let batch = match decode_batch(bytes) {
            Ok(b) => b,
            Err(_) => {
                self.counters.decode_errors += 1;
                return;
            }
        };
        // Per-device sequence dedup: a re-delivered (or replayed) batch
        // carries a seq at or below the last accepted one.
        if let Some(&last) = self.last_seq.get(&batch.device.0) {
            if batch.seq <= last {
                self.counters.duplicate_batches += 1;
                return;
            }
        }
        self.last_seq.insert(batch.device.0, batch.seq);
        self.counters.batches += 1;
        self.counters.bytes += bytes.len() as u64;

        let batch_max = batch
            .records
            .iter()
            .map(|e| e.start.as_millis())
            .max()
            .unwrap_or(0);
        if !batch.records.is_empty() && batch_max < self.watermark_ms {
            self.counters.out_of_order_batches += 1;
        }

        let mut prev: Option<&FailureEvent> = None;
        for e in &batch.records {
            // Canonical order puts identical records adjacent.
            if prev == Some(e) {
                self.counters.duplicate_records += 1;
                continue;
            }
            prev = Some(e);
            if e.cause_is_false_positive() {
                self.counters.filtered_noise += 1;
                continue;
            }
            if e.start.as_millis() + lateness_ms < self.watermark_ms {
                self.counters.late_records += 1;
            }
            self.counters.records += 1;
            self.agg.push(e);
            sink.accepted(e);
        }
        self.watermark_ms = self.watermark_ms.max(batch_max);
    }

    fn absorb_into(&self, d: &mut Digest64) {
        self.agg.absorb_into(d);
        d.write_u64(self.counters.batches);
        d.write_u64(self.counters.bytes);
        d.write_u64(self.counters.records);
        d.write_u64(self.counters.decode_errors);
        d.write_u64(self.counters.duplicate_batches);
        d.write_u64(self.counters.duplicate_records);
        d.write_u64(self.counters.filtered_noise);
        d.write_u64(self.counters.late_records);
        d.write_u64(self.counters.out_of_order_batches);
        d.write_u64(self.watermark_ms);
        d.write_u64(self.last_seq.len() as u64);
        for (&dev, &seq) in &self.last_seq {
            d.write_u64(u64::from(dev));
            d.write_u64(seq);
        }
    }
}

/// The collector: virtual-sharded ingestion state.
#[derive(Debug, Clone, PartialEq)]
pub struct Collector {
    pub(crate) virtual_shards: usize,
    pub(crate) lateness_ms: u64,
    pub(crate) shards: Vec<ShardState>,
    /// Batches whose header could not even be peeked for routing.
    pub(crate) unroutable: u64,
}

impl Collector {
    /// Fresh collector for a config.
    pub fn new(cfg: &CollectorConfig) -> Self {
        let vs = cfg.virtual_shards.max(1);
        Collector {
            virtual_shards: vs,
            lateness_ms: cfg.lateness.as_millis(),
            shards: vec![ShardState::default(); vs],
            unroutable: 0,
        }
    }

    /// The virtual shard a device's batches route to.
    pub fn shard_of(&self, device: DeviceId) -> usize {
        device.0 as usize % self.virtual_shards
    }

    /// Ingest one encoded batch (the sequential path).
    pub fn ingest(&mut self, bytes: &[u8]) {
        match peek_device(bytes) {
            Ok(device) => {
                let shard = self.shard_of(device);
                self.shards[shard].accept(bytes, self.lateness_ms);
            }
            Err(_) => self.unroutable += 1,
        }
    }

    /// Ingest one encoded batch, echoing accepted records into `sink`.
    /// Sequential counterpart of [`run_ingest_with`]; with a single shared
    /// sink the observation order is batch arrival order.
    pub fn ingest_with<S: AcceptedSink>(&mut self, bytes: &[u8], sink: &mut S) {
        match peek_device(bytes) {
            Ok(device) => {
                let shard = self.shard_of(device);
                self.shards[shard].accept_with(bytes, self.lateness_ms, sink);
            }
            Err(_) => self.unroutable += 1,
        }
    }

    /// Batches whose header could not even be peeked for routing.
    pub fn unroutable(&self) -> u64 {
        self.unroutable
    }

    /// Devices seen so far (shards partition devices, so this is exact).
    pub fn devices(&self) -> u64 {
        self.shards.iter().map(|s| s.last_seq.len() as u64).sum()
    }

    /// The collector-wide event-time watermark: the newest accepted record
    /// timestamp across all shards, in ms. Monotone over ingestion; a
    /// streaming consumer seals a time window once the watermark has moved
    /// past its end by the lateness bound.
    pub fn watermark_ms(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.watermark_ms)
            .max()
            .unwrap_or(0)
    }

    /// Per-shard event-time watermarks in shard-index order (ms). The
    /// fleet watermark in [`Collector::watermark_ms`] is their max.
    pub fn shard_watermarks_ms(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.watermark_ms).collect()
    }

    /// Content digest over the full collector state, folding shards in
    /// index order — bit-identical at any worker count.
    pub fn digest(&self) -> u64 {
        let mut d = Digest64::new();
        d.write_u64(self.virtual_shards as u64);
        d.write_u64(self.lateness_ms);
        d.write_u64(self.unroutable);
        for s in &self.shards {
            s.absorb_into(&mut d);
        }
        d.finish()
    }

    /// Mirror the collector's stream bookkeeping into a telemetry registry:
    /// batches decoded, records deduped/filtered/late, and the fleet
    /// duration sketch as an `ingest.duration` histogram. Shard workers
    /// keep their own deterministic counters during the run (telemetry
    /// handles are single-threaded by design), so the mirror is taken from
    /// the folded state — bit-identical at any worker count.
    pub fn record_metrics(&self, tele: &Telemetry) {
        if !tele.is_enabled() {
            return;
        }
        let r = self.report();
        let c = &r.counters;
        for (name, v) in [
            ("ingest.batches", c.batches),
            ("ingest.bytes", c.bytes),
            ("ingest.records", c.records),
            ("ingest.decode_errors", c.decode_errors),
            ("ingest.duplicate_batches", c.duplicate_batches),
            ("ingest.duplicate_records", c.duplicate_records),
            ("ingest.filtered_noise", c.filtered_noise),
            ("ingest.late_records", c.late_records),
            ("ingest.out_of_order_batches", c.out_of_order_batches),
            ("ingest.unroutable", r.unroutable),
            ("ingest.devices", r.devices),
        ] {
            tele.add(name, v);
        }
        tele.merge_histogram("ingest.duration", r.aggregate.sketch_all);
    }

    /// Merge shard states into the fleet-level report.
    pub fn report(&self) -> IngestReport {
        let mut aggregate = IngestAggregate::default();
        let mut counters = IngestCounters::default();
        for s in &self.shards {
            aggregate.merge(s.agg.clone());
            counters.merge(s.counters);
        }
        IngestReport {
            aggregate,
            counters,
            devices: self.devices(),
            unroutable: self.unroutable,
            digest: self.digest(),
        }
    }
}

/// The fleet-level ingestion summary.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Merged aggregate across all shards.
    pub aggregate: IngestAggregate,
    /// Summed stream counters.
    pub counters: IngestCounters,
    /// Distinct uploading devices.
    pub devices: u64,
    /// Batches that could not be routed (unreadable header).
    pub unroutable: u64,
    /// The collector state digest (see [`Collector::digest`]).
    pub digest: u64,
}

impl IngestReport {
    /// Mean encoded bytes per accepted record.
    pub fn bytes_per_record(&self) -> f64 {
        if self.counters.records == 0 {
            0.0
        } else {
            self.counters.bytes as f64 / self.counters.records as f64
        }
    }

    /// Human-readable summary block.
    pub fn render(&self) -> String {
        let c = &self.counters;
        let mut out = String::new();
        out.push_str(&format!(
            "devices {} | batches {} | records {} | encoded {} B ({:.1} B/record vs {} raw)\n",
            self.devices,
            c.batches,
            c.records,
            c.bytes,
            self.bytes_per_record(),
            crate::codec::RAW_RECORD_BYTES,
        ));
        out.push_str(&format!(
            "dedup: {} dup batches, {} dup records | noise filtered {} | late {} | ooo batches {} | decode errors {} | unroutable {}\n",
            c.duplicate_batches,
            c.duplicate_records,
            c.filtered_noise,
            c.late_records,
            c.out_of_order_batches,
            c.decode_errors,
            self.unroutable,
        ));
        let a = &self.aggregate;
        if let (Some(p50), Some(p90), Some(p99)) = (
            a.sketch_all.quantile(0.50),
            a.sketch_all.quantile(0.90),
            a.sketch_all.quantile(0.99),
        ) {
            out.push_str(&format!(
                "duration p50 {:.1} s | p90 {:.1} s | p99 {:.1} s | max {:.1} s | <30 s {:.1}%\n",
                p50 as f64 / 1000.0,
                p90 as f64 / 1000.0,
                p99 as f64 / 1000.0,
                a.max_duration_ms as f64 / 1000.0,
                if a.records > 0 {
                    a.under_30s as f64 / a.records as f64 * 100.0
                } else {
                    0.0
                },
            ));
        }
        out
    }
}

/// Run the full ingestion pipeline: `produce` emits encoded batches on the
/// caller's thread; up to `cfg.workers` scoped worker threads decode and
/// aggregate behind bounded channels. Returns the finished [`Collector`]
/// (its [`Collector::digest`] is independent of the worker count).
pub fn run_ingest<F>(cfg: &CollectorConfig, produce: F) -> Collector
where
    F: FnOnce(&mut dyn FnMut(Vec<u8>)),
{
    run_ingest_with(cfg, || (), produce).0
}

/// [`run_ingest`] with a downstream [`AcceptedSink`] attached.
///
/// `make_sink` builds one sink **per virtual shard** (created lazily on the
/// owning worker when the shard first accepts a record); after the run the
/// per-shard sinks are folded in shard-index order into one. Because shard
/// routing, per-shard record order, and the fold order are all independent
/// of the worker count, the folded sink observes the exact same
/// deterministic sequence at 1, 2, or 8 workers — the same argument that
/// makes [`Collector::digest`] thread-invariant.
pub fn run_ingest_with<S, MS, F>(cfg: &CollectorConfig, make_sink: MS, produce: F) -> (Collector, S)
where
    S: AcceptedSink + Merge + Send,
    MS: Fn() -> S + Sync,
    F: FnOnce(&mut dyn FnMut(Vec<u8>)),
{
    let vs = cfg.virtual_shards.max(1);
    let workers = resolve_threads(cfg.workers).min(vs);
    let lateness_ms = cfg.lateness.as_millis();
    let mut unroutable = 0u64;
    let mut shards: Vec<ShardState> = vec![ShardState::default(); vs];
    let mut sinks: BTreeMap<u32, S> = BTreeMap::new();

    if workers <= 1 {
        let mut emit = |bytes: Vec<u8>| match peek_device(&bytes) {
            Ok(device) => {
                let shard = device.0 as usize % vs;
                let sink = sinks.entry(shard as u32).or_insert_with(&make_sink);
                shards[shard].accept_with(&bytes, lateness_ms, sink);
            }
            Err(_) => unroutable += 1,
        };
        produce(&mut emit);
    } else {
        std::thread::scope(|scope| {
            let make_sink = &make_sink;
            let mut senders = Vec::with_capacity(workers);
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let (tx, rx) = sync_channel::<(u32, Vec<u8>)>(cfg.queue_depth.max(1));
                senders.push(tx);
                handles.push(scope.spawn(move || {
                    let mut owned: BTreeMap<u32, (ShardState, S)> = BTreeMap::new();
                    while let Ok((shard, bytes)) = rx.recv() {
                        let (state, sink) = owned
                            .entry(shard)
                            .or_insert_with(|| (ShardState::default(), make_sink()));
                        state.accept_with(&bytes, lateness_ms, sink);
                    }
                    owned
                }));
            }

            // Producer runs on the caller's thread; a full worker queue blocks
            // the send — that *is* the backpressure.
            let mut emit = |bytes: Vec<u8>| match peek_device(&bytes) {
                Ok(device) => {
                    let shard = device.0 as usize % vs;
                    senders[shard % workers]
                        .send((shard as u32, bytes))
                        .expect("ingest worker hung up");
                }
                Err(_) => unroutable += 1,
            };
            produce(&mut emit);
            drop(senders);

            for h in handles {
                let owned = h.join().expect("ingest worker panicked");
                for (shard, (state, sink)) in owned {
                    shards[shard as usize] = state;
                    sinks.insert(shard, sink);
                }
            }
        });
    }

    let mut folded = make_sink();
    for (_, s) in sinks {
        folded.merge(s);
    }
    (
        Collector {
            virtual_shards: vs,
            lateness_ms,
            shards,
            unroutable,
        },
        folded,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_batch;
    use cellrel_types::{
        Apn, BsId, DataFailCause, FailureKind, InSituInfo, Isp, Rat, SignalLevel, SimTime,
    };

    fn ev(device: u32, start_s: u64, dur_s: u64, kind: FailureKind) -> FailureEvent {
        FailureEvent {
            device: DeviceId(device),
            kind,
            start: SimTime::from_secs(start_s),
            duration: SimDuration::from_secs(dur_s),
            cause: (kind == FailureKind::DataSetupError).then_some(DataFailCause::SignalLost),
            ctx: InSituInfo {
                rat: Rat::G4,
                signal: SignalLevel::L3,
                apn: Apn::Internet,
                bs: Some(BsId::gsm_cn(0, 7, 7)),
                isp: Isp::A,
            },
        }
    }

    fn batches(devices: u32, per_device: u64) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for d in 0..devices {
            let records: Vec<FailureEvent> = (0..per_device)
                .map(|i| {
                    ev(
                        d,
                        100 * i + u64::from(d),
                        5 + i % 40,
                        if i % 2 == 0 {
                            FailureKind::DataStall
                        } else {
                            FailureKind::DataSetupError
                        },
                    )
                })
                .collect();
            out.push(encode_batch(DeviceId(d), 0, &records));
        }
        out
    }

    #[test]
    fn sequential_and_parallel_digests_match() {
        let cfg = CollectorConfig::default();
        let data = batches(200, 12);
        let mut seq = Collector::new(&cfg);
        for b in &data {
            seq.ingest(b);
        }
        for workers in [1usize, 2, 8] {
            let cfg = CollectorConfig {
                workers,
                ..CollectorConfig::default()
            };
            let par = run_ingest(&cfg, |emit| {
                for b in &data {
                    emit(b.clone());
                }
            });
            assert_eq!(par.digest(), seq.digest(), "workers={workers}");
        }
    }

    #[test]
    fn accepted_sink_sees_the_same_stream_at_any_worker_count() {
        let data = batches(60, 8);
        let mut first: Option<Vec<FailureEvent>> = None;
        for workers in [1usize, 2, 8] {
            let cfg = CollectorConfig {
                workers,
                ..CollectorConfig::default()
            };
            let (c, sink) = run_ingest_with(&cfg, Vec::new, |emit| {
                for b in &data {
                    emit(b.clone());
                }
            });
            // The sink observes exactly the accepted records (post-dedup,
            // post-noise-filter), in a worker-count-independent order.
            assert_eq!(sink.len() as u64, c.report().counters.records);
            match &first {
                None => first = Some(sink),
                Some(f) => assert_eq!(&sink, f, "workers={workers}"),
            }
        }
    }

    #[test]
    fn sequential_sink_skips_noise_and_duplicates() {
        let cfg = CollectorConfig::default();
        let mut c = Collector::new(&cfg);
        let mut sink: Vec<FailureEvent> = Vec::new();
        let mut noisy = ev(1, 10, 5, FailureKind::DataSetupError);
        noisy.cause = Some(DataFailCause::InsufficientResources);
        let keep = ev(1, 20, 5, FailureKind::DataStall);
        let b = encode_batch(DeviceId(1), 0, &[noisy, keep, keep]);
        c.ingest_with(&b, &mut sink);
        assert_eq!(sink, vec![keep]);
    }

    #[test]
    fn duplicate_batches_are_dropped_by_seq() {
        let cfg = CollectorConfig::default();
        let mut c = Collector::new(&cfg);
        let b0 = encode_batch(DeviceId(1), 0, &[ev(1, 10, 5, FailureKind::DataStall)]);
        let b1 = encode_batch(DeviceId(1), 1, &[ev(1, 20, 5, FailureKind::DataStall)]);
        c.ingest(&b0);
        c.ingest(&b0); // redelivery
        c.ingest(&b1);
        c.ingest(&b0); // stale replay
        let r = c.report();
        assert_eq!(r.counters.batches, 2);
        assert_eq!(r.counters.duplicate_batches, 2);
        assert_eq!(r.aggregate.records, 2);
    }

    #[test]
    fn intra_batch_duplicates_collapse() {
        let cfg = CollectorConfig::default();
        let mut c = Collector::new(&cfg);
        let e = ev(1, 10, 5, FailureKind::DataStall);
        let b = encode_batch(DeviceId(1), 0, &[e, e, e]);
        c.ingest(&b);
        let r = c.report();
        assert_eq!(r.aggregate.records, 1);
        assert_eq!(r.counters.duplicate_records, 2);
    }

    #[test]
    fn noise_is_filtered_by_cause_class() {
        let cfg = CollectorConfig::default();
        let mut c = Collector::new(&cfg);
        let mut noisy = ev(1, 10, 5, FailureKind::DataSetupError);
        noisy.cause = Some(DataFailCause::InsufficientResources); // BS overload
        let b = encode_batch(
            DeviceId(1),
            0,
            &[noisy, ev(1, 20, 5, FailureKind::DataStall)],
        );
        c.ingest(&b);
        let r = c.report();
        assert_eq!(r.counters.filtered_noise, 1);
        assert_eq!(r.aggregate.records, 1);
    }

    #[test]
    fn late_records_are_counted_not_dropped() {
        let cfg = CollectorConfig {
            lateness: SimDuration::from_mins(10),
            virtual_shards: 1,
            ..CollectorConfig::default()
        };
        let mut c = Collector::new(&cfg);
        // Device 1 advances the watermark to t=2h.
        c.ingest(&encode_batch(
            DeviceId(0),
            0,
            &[ev(0, 7200, 5, FailureKind::DataStall)],
        ));
        // Device 2's record from t=10s is far behind the watermark.
        c.ingest(&encode_batch(
            DeviceId(1),
            0,
            &[ev(1, 10, 5, FailureKind::DataStall)],
        ));
        let r = c.report();
        assert_eq!(r.counters.late_records, 1);
        assert_eq!(r.counters.out_of_order_batches, 1);
        assert_eq!(r.aggregate.records, 2, "late records still aggregate");
    }

    #[test]
    fn corrupt_batches_count_as_decode_errors() {
        let cfg = CollectorConfig::default();
        let mut c = Collector::new(&cfg);
        let mut b = encode_batch(DeviceId(1), 0, &[ev(1, 10, 5, FailureKind::DataStall)]);
        let n = b.len();
        b[n - 1] ^= 0xff; // break the CRC
        c.ingest(&b);
        assert_eq!(c.report().counters.decode_errors, 1);
        // A header too short to route at all:
        c.ingest(&[0x00]);
        assert_eq!(c.report().unroutable, 1);
    }

    #[test]
    fn report_counts_devices_and_bytes() {
        let cfg = CollectorConfig::default();
        let data = batches(50, 10);
        let total_bytes: u64 = data.iter().map(|b| b.len() as u64).sum();
        let mut c = Collector::new(&cfg);
        for b in &data {
            c.ingest(b);
        }
        let r = c.report();
        assert_eq!(r.devices, 50);
        assert_eq!(r.counters.bytes, total_bytes);
        assert_eq!(r.counters.records, 500);
        assert!(r.bytes_per_record() < crate::codec::RAW_RECORD_BYTES as f64);
        assert!(r.render().contains("devices 50"));
    }
}
