//! `stream_daily`: one `StreamPipeline` fed a mostly in-order daily arrival.
//!
//! Each device uploads each day's records shortly after the day ends; 3 %
//! of device-days upload one to three days late and take the late lane
//! (an assumed pattern, see `arrival`).
//! A durable checkpoint is taken at every seal only. Every sealed segment
//! ships to a read replica (`Follower`), which republishes and serves the
//! canonical query mix once per seal through the in-process `CQ` path
//! (`QuerydCore::handle_frame`, one closed-loop client). The
//! iteration ends with `RESTORES` restores from the last durable
//! checkpoint. The
//! collector, window routing, seal and columnar compaction do nearly all
//! the work; checkpointing, the late lane, replication and serving little.
//! Iterations cycle over independent fleets (see `common::part_seed`).

use crate::arrival::{daily_uploads, Upload};
use crate::common::{
    apply_frame, canonical, fleet, part_seed, stream_config, us_since, Fleet, Gate, Inputs,
    Metrics, Reference, Run, Samples, TABLE2_K,
};
use crate::stats::{median, percentile, samples_for};
use crate::trace::Tracer;
use cellrel::cluster::proto::{encode_frame, Message};
use cellrel::cluster::Follower;
use cellrel::queryd::proto::{decode_response, encode_request};
use cellrel::queryd::{Request, Response};
use cellrel::store::{Query, ResultSet};
use cellrel::stream::{MemSegments, SegmentEntry, SegmentStore, StreamPipeline};
use std::time::{Duration, Instant};

/// Independent fleets per run: records per upload and devices per record
/// differ between fleets of one size, and with them the cost per upload.
const PARTS: usize = 4;
/// About 2,000 phones' worth of records over two weeks, per fleet.
const RECORDS: usize = 60_000;
const MAX_DEVICES: usize = 8_000;
const DAYS: u64 = 14;
const LATE_SHARE: f64 = 0.03;
/// Restores timed per iteration: one restore is about a fifth of a
/// fleet's ingest, so a handful of crashes per iteration gives each fleet's
/// recovery figure enough samples for a steady quartile.
const RESTORES: usize = 3;

pub struct Part<'f> {
    fleet: &'f Fleet,
    uploads: Vec<Upload>,
    reference: Reference,
}

pub struct Ctx<'f> {
    parts: Vec<Part<'f>>,
    encode_s: f64,
}

pub fn fleets(seed: u64) -> Vec<Fleet> {
    (0..PARTS)
        .map(|i| fleet(MAX_DEVICES, DAYS, RECORDS, part_seed(seed, i)))
        .collect()
}

pub fn setup(fleets: &[Fleet], seed: u64) -> Ctx<'_> {
    let mut encode_s = 0.0;
    let parts = fleets
        .iter()
        .enumerate()
        .map(|(i, fleet)| {
            let seed = part_seed(seed, i);
            let t = Instant::now();
            let uploads = daily_uploads(&fleet.events, seed, LATE_SHARE);
            encode_s += t.elapsed().as_secs_f64();
            let reference =
                Reference::build(&fleet.dir, uploads.iter().map(|u| u.bytes.as_slice()));
            Part {
                fleet,
                uploads,
                reference,
            }
        })
        .collect();
    Ctx { parts, encode_s }
}

pub fn inputs<'a>(ctx: &'a Ctx<'_>) -> Inputs<'a> {
    let mut inputs = Inputs::of_parts(ctx.parts.iter().map(|p| {
        let uploads = p.uploads.iter().map(|u| u.bytes.as_slice()).collect();
        (p.fleet, uploads, &p.reference)
    }));
    inputs.encode_s = ctx.encode_s;
    inputs
}

/// Iterate whole streams, cycling over the fleets, until `budget` is spent,
/// every fleet ran equally often and every reported percentile has its
/// samples.
pub fn run(ctx: &Ctx<'_>, budget: Duration, mut tr: Tracer) -> Run {
    let start = Instant::now();
    let mut s = Samples::default();
    let mut layer = Metrics::new();
    let mut gate = Gate::default();
    let mut unit_s = Vec::new();
    let mut digests = Vec::new();
    let mut seal_offer_us = Vec::new();
    let mut plain_offer_us = Vec::new();
    // Byte counts and late records over the first pass of every fleet.
    let (mut records, mut late, mut checkpoint, mut replication, mut segment) = (0, 0, 0, 0, 0);
    let queries = canonical();
    while start.elapsed() < budget
        || unit_s.len() < PARTS
        || unit_s.len() % PARTS != 0
        || s.query.len() < samples_for(0.99)
        || seal_offer_us.len() < samples_for(0.9)
    {
        let iter = unit_s.len();
        let part = &ctx.parts[iter % PARTS];
        let t = Instant::now();
        tr.group("phase.stream_daily", iter as u64);
        let replica = tr.span("cluster.follower_new", 0, || {
            Follower::new(&stream_config(), &part.fleet.dir, 0)
        });
        let mut it = Iteration {
            part,
            index: iter % PARTS,
            queries: &queries,
            tr: &mut tr,
            gate: &mut gate,
            s: &mut s,
            replica,
            shipped: 0,
            replication_bytes: 0,
            query_id: (iter as u64) << 32,
            passes: 0,
            cells_scanned: 0,
            cells_matched: 0,
        };
        let out = it.stream(&mut plain_offer_us, &mut seal_offer_us);
        let (scanned, matched) = (it.cells_scanned, it.cells_matched);
        tr.exit();
        unit_s.push(t.elapsed().as_secs_f64());
        digests.push(out.digest);
        if iter < PARTS {
            records += part.fleet.events.len() as u64;
            late += out.late_records;
            checkpoint += out.checkpoint_bytes;
            replication += out.replication_bytes;
            segment += out.segment_bytes;
        }
        if iter == 0 {
            layer = out.layer;
            layer.insert(
                "store.cells_scanned_per_query",
                scanned as f64 / out.queries as f64,
            );
            layer.insert("store.match_ratio", matched as f64 / scanned.max(1) as f64);
        }
    }
    let records = records as f64;
    s.checkpoint_bytes_per_record = checkpoint as f64 / records;
    s.replication_bytes_per_record = replication as f64 / records;
    s.segment_bytes_per_record = segment as f64 / records;
    layer.insert("stream.plain_offer_p50_us", median(&plain_offer_us));
    layer.insert(
        "stream.seal_offer_p90_us",
        percentile(&seal_offer_us, 0.9).unwrap_or(0.0),
    );
    Run {
        samples: s,
        layer,
        tracer: tr,
        unit_s,
        digests,
        gate,
        late_share: late as f64 / records,
    }
}

struct Iteration<'a> {
    part: &'a Part<'a>,
    index: usize,
    queries: &'a [(&'static str, Query)],
    tr: &'a mut Tracer,
    gate: &'a mut Gate,
    s: &'a mut Samples,
    replica: Follower,
    shipped: u64,
    replication_bytes: u64,
    query_id: u64,
    /// Passes over the mix served so far this iteration.
    passes: usize,
    cells_scanned: u64,
    cells_matched: u64,
}

struct Outcome {
    digest: u64,
    checkpoint_bytes: u64,
    replication_bytes: u64,
    segment_bytes: u64,
    late_records: u64,
    queries: u64,
    layer: Metrics,
}

impl Iteration<'_> {
    fn stream(&mut self, plain_us: &mut Vec<f64>, seal_us: &mut Vec<f64>) -> Outcome {
        let part = self.part;
        let dir = &part.fleet.dir;
        let mut segs = MemSegments::new();
        let mut p = self.tr.span("stream.new", 0, || {
            StreamPipeline::new(&stream_config(), dir).expect("valid stream config")
        });
        let mut durable = self.tr.span("stream.checkpoint", 0, || p.checkpoint());
        let mut checkpoints = 1u64;
        let mut checkpoint_bytes = durable.len() as u64;
        let mut busy_us = 0.0;
        let queries_before = self.s.query.len();
        let offers_before = self.s.offer.len();
        for (i, up) in part.uploads.iter().enumerate() {
            let t = Instant::now();
            let sealed = match self
                .tr
                .span("stream.offer", i as u64, || p.offer(&up.bytes, &mut segs))
            {
                Ok(sealed) => sealed,
                Err(e) => {
                    self.gate.check(false, || format!("offer {i} refused: {e}"));
                    continue;
                }
            };
            if !sealed.is_empty() {
                durable = self
                    .tr
                    .span("stream.checkpoint", i as u64, || p.checkpoint());
                checkpoints += 1;
                checkpoint_bytes += durable.len() as u64;
                self.ship(&segs, &sealed, i as u64);
            }
            let us = us_since(t);
            busy_us += us;
            self.s.offer.push(us);
            if sealed.is_empty() {
                plain_us.push(us);
            } else {
                seal_us.push(us);
                self.serve(None);
            }
        }
        let t = Instant::now();
        let end = part.uploads.len() as u64;
        match self.tr.span("stream.flush", end, || p.flush(&mut segs)) {
            Ok(sealed) => {
                durable = self.tr.span("stream.checkpoint", end, || p.checkpoint());
                checkpoints += 1;
                checkpoint_bytes += durable.len() as u64;
                self.ship(&segs, &sealed, end);
            }
            Err(e) => {
                self.gate.check(false, || format!("flush refused: {e}"));
            }
        }
        busy_us += us_since(t);
        let rate = part.fleet.events.len() as f64 / (busy_us / 1e6);
        self.s.ingest_rate.push((self.index, rate));
        // The replica's final answers must equal the batch reference's.
        self.serve(Some(&part.reference.answers));
        self.s.offer.end_unit(self.index, offers_before);

        let digest = self.tr.span("bench.verify", 0, || p.digest());
        for k in 0..RESTORES as u64 {
            let t = Instant::now();
            let restored = self.tr.span("stream.restore", k, || {
                StreamPipeline::restore(&durable, dir, &segs)
            });
            self.s.recovery_ms.push((self.index, us_since(t) / 1e3));
            self.tr.enter("bench.verify", k);
            match restored {
                Ok(restored) => {
                    let d = restored.digest();
                    self.gate.check(d == digest, || {
                        format!("restored digest {d:016x} != live {digest:016x}")
                    });
                }
                Err(e) => {
                    self.gate.check(false, || format!("restore failed: {e}"));
                }
            }
            self.tr.exit();
        }

        self.tr.enter("bench.verify", 0);
        let r = &part.reference;
        self.gate.check(digest == r.digest, || {
            format!("streamed digest {digest:016x} != batch {:016x}", r.digest)
        });
        let replica = self.replica.sealed_store().digest();
        self.gate.check(replica == digest, || {
            format!("replica digest {replica:016x} != leader {digest:016x}")
        });
        match p.tables(TABLE2_K) {
            Ok((t1, t2)) => {
                self.gate.check(t1.render() == r.table1, || {
                    "table 1 differs from batch".into()
                });
                self.gate.check(t2.render() == r.table2, || {
                    "table 2 differs from batch".into()
                });
            }
            Err(e) => {
                self.gate.check(false, || format!("tables failed: {e}"));
            }
        }
        self.tr.exit();

        let c = *p.counters();
        let m = self.replica.core();
        let m = m.metrics();
        let layer = Metrics::from([
            (
                "stream.late_share",
                c.late_records as f64 / c.records.max(1) as f64,
            ),
            ("stream.late_segments", c.late_segments as f64),
            ("stream.base_folds", c.base_folds as f64),
            ("stream.checkpoints", checkpoints as f64),
            (
                "stream.checkpoint_bytes_mean",
                checkpoint_bytes as f64 / checkpoints as f64,
            ),
            ("stream.restore_segments", segs.len() as f64),
            ("cluster.segment_frames", self.shipped as f64),
            ("cluster.segment_bytes", self.replication_bytes as f64),
            ("queryd.wire_errors", m.wire_errors() as f64),
            ("queryd.query_rejects", m.query_rejects() as f64),
        ]);
        Outcome {
            digest,
            checkpoint_bytes,
            replication_bytes: self.replication_bytes,
            segment_bytes: segs.bytes(),
            late_records: c.late_records,
            queries: (self.s.query.len() - queries_before) as u64,
            layer,
        }
    }

    /// Ship freshly sealed segments to the replica as `CR` frames.
    fn ship(&mut self, segs: &MemSegments, sealed: &[SegmentEntry], id: u64) {
        for entry in sealed {
            self.tr.group("cluster.ship", id);
            let seg = self.tr.span("stream.segment_get", id, || {
                segs.get(&entry.name()).expect("a sealed segment is stored")
            });
            self.shipped += 1;
            let seq = self.shipped;
            let frame = self.tr.span("cluster.encode_frame", id, || {
                encode_frame(&Message::ShipSegment { seq, frame: seg })
            });
            self.replication_bytes += frame.len() as u64;
            apply_frame(&mut self.replica, 0, &frame, id, self.tr, self.gate);
            self.tr.exit();
        }
    }

    /// Republish the replica and run the query mix against it once, each
    /// answer checked against `Store::query` on the snapshot that served it
    /// (and, when given, against the batch reference).
    fn serve(&mut self, want: Option<&[ResultSet]>) {
        let replica = &self.replica;
        self.tr
            .span("cluster.follower_publish", 0, || replica.publish());
        let core = replica.core();
        let snap = core.snapshot();
        let from = self.s.query.len();
        for (qi, (name, q)) in self.queries.iter().enumerate() {
            self.query_id += 1;
            let id = self.query_id;
            let t = Instant::now();
            self.tr.group("queryd.query", id);
            let frame = self.tr.span("queryd.encode_request", id, || {
                encode_request(&Request::Query(q.clone()))
            });
            let reply = self
                .tr
                .span("queryd.handle_frame", id, || core.handle_frame(&frame));
            let answer = self
                .tr
                .span("queryd.decode_response", id, || decode_response(&reply));
            self.tr.exit();
            let us = us_since(t);
            self.s.query.push(us);
            let local = self.tr.span("store.query", id, || snap.store.query(q));
            match (answer, local) {
                (Ok(Response::Rows { epoch, result }), Ok(local)) => {
                    self.cells_scanned += result.cells_scanned;
                    self.cells_matched += result.cells_matched;
                    let ok = epoch == snap.epoch
                        && result == local
                        && want.is_none_or(|w| w[qi] == result);
                    self.gate
                        .check(ok, || format!("served {name} differs from Store::query"));
                }
                (answer, local) => {
                    self.gate.check(false, || {
                        format!("{name}: served {answer:?}, local {local:?}")
                    });
                }
            }
        }
        // The replica grows through the stream, so only the same pass of
        // the same fleet's iterations do the same work.
        let group = self.passes * PARTS + self.index;
        self.s.query.end_unit(group, from);
        self.passes += 1;
    }
}
