//! `cluster_dump`: whole-history uploads through a replicated 2-shard tier.
//!
//! The arrival is `stream::batches_from_events` — each device's history in
//! 48-record chunks — so about half the records take the late lane. The
//! benchmark drives the tier through the calls `Cluster::offer` makes
//! (`shard_of_batch` → `ShardLeader::offer` → `Follower::apply` →
//! `expect_ack`), so it can count and time every replication frame, at the
//! default checkpoint cadence. Mid-stream shard 0's leader is killed and
//! its follower promoted through the calls `Cluster::promote` makes; the
//! lost suffix is replayed. A closed-loop router phase then runs the
//! canonical mix through `ClusterRouter`. The late lane, `SP` checkpoints,
//! `CR` replication, failover and federation do most of the work here.

use crate::common::{
    apply_frame, canonical, fleet, part_seed, stream_config, us_since, Fleet, Gate, Inputs,
    Metrics, Reference, Run, Samples, TABLE2_K,
};
use crate::stats::samples_for;
use crate::trace::Tracer;
use cellrel::cluster::proto::{self, decode_frame, encode_frame, Message};
use cellrel::cluster::{
    shard_of, shard_of_batch, ClusterConfig, ClusterRouter, Follower, ShardHandle, ShardLeader,
};
use cellrel::store::{merge_partials, DeviceDirectory, Query, ResultSet};
use cellrel::stream::batches_from_events;
use std::time::{Duration, Instant};

/// Independent fleets per run, dumped in turn. Checkpoint and late-lane
/// sizes hang on a few devices with long histories, so one fleet's byte
/// counts per record swing by a fifth between seeds; the dump's cost grows
/// faster than the fleet, so several small fleets average more cheaply
/// than one large one.
const PARTS: usize = 6;
/// About 500 phones' worth of records over a week, per fleet.
const RECORDS: usize = 16_000;
const MAX_DEVICES: usize = 2_000;
const DAYS: u64 = 7;
const SHARDS: usize = 2;
const BATCH_RECORDS: usize = 48;
/// Router rounds of the 11-query mix per iteration.
const ROUNDS: usize = 20;
/// Timed promotions per leader kill, each of the dead leader's follower
/// into a fresh leader and follower: one gives too few samples per fleet
/// for a steady quartile.
const PROMOTIONS: usize = 3;

pub struct Part<'f> {
    fleet: &'f Fleet,
    batches: Vec<Vec<u8>>,
    dirs: Vec<DeviceDirectory>,
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

pub fn setup(fleets: &[Fleet], _seed: u64) -> Ctx<'_> {
    let mut encode_s = 0.0;
    let parts = fleets
        .iter()
        .map(|fleet| {
            let t = Instant::now();
            let batches = batches_from_events(&fleet.events, BATCH_RECORDS);
            encode_s += t.elapsed().as_secs_f64();
            // `shard_directories` would re-filter the whole population and
            // drop the fleet's device cut-off, so both masks are applied.
            let n = fleet.devices;
            let dirs = (0..SHARDS)
                .map(|s| fleet.dir.filtered(|d| d.0 < n && shard_of(d, SHARDS) == s))
                .collect();
            let reference = Reference::build(&fleet.dir, batches.iter().map(Vec::as_slice));
            Part {
                fleet,
                batches,
                dirs,
                reference,
            }
        })
        .collect();
    Ctx { parts, encode_s }
}

pub fn inputs<'a>(ctx: &'a Ctx<'_>) -> Inputs<'a> {
    let mut inputs = Inputs::of_parts(ctx.parts.iter().map(|p| {
        let batches = p.batches.iter().map(Vec::as_slice).collect();
        (p.fleet, batches, &p.reference)
    }));
    inputs.encode_s = ctx.encode_s;
    inputs
}

pub fn run(ctx: &Ctx<'_>, budget: Duration, mut tr: Tracer) -> Run {
    let start = Instant::now();
    let mut s = Samples::default();
    let mut layer = Metrics::new();
    let mut gate = Gate::default();
    let mut unit_s = Vec::new();
    let mut digests = Vec::new();
    // Byte counts and late records over the first dump of every fleet.
    let (mut records, mut late, mut checkpoint, mut replication, mut segment) = (0, 0, 0, 0, 0);
    while start.elapsed() < budget
        || unit_s.len() < PARTS
        || unit_s.len() % PARTS != 0
        || s.query.len() < samples_for(0.99)
    {
        let iter = unit_s.len();
        let part = &ctx.parts[iter % PARTS];
        let t = Instant::now();
        tr.group("phase.cluster_dump", iter as u64);
        let mut it = Iteration::new(part, iter % PARTS, &mut tr, &mut gate, &mut s);
        let out = it.ingest();
        let query_layer = it.route(iter as u64);
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
            layer.extend(query_layer);
        }
    }
    let records = records as f64;
    s.checkpoint_bytes_per_record = checkpoint as f64 / records;
    s.replication_bytes_per_record = replication as f64 / records;
    s.segment_bytes_per_record = segment as f64 / records;
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
    tr: &'a mut Tracer,
    gate: &'a mut Gate,
    s: &'a mut Samples,
    leaders: Vec<ShardLeader<'a>>,
    followers: Vec<Follower>,
    checkpoint_every: u64,
    segment_frames: u64,
    segment_frame_bytes: u64,
    checkpoint_frames: u64,
    checkpoint_frame_bytes: u64,
    catchup_bytes: u64,
    ack_failures: u64,
    /// Segments the promoted pipeline was restored over.
    restore_segments: u64,
}

struct Outcome {
    digest: u64,
    checkpoint_bytes: u64,
    replication_bytes: u64,
    segment_bytes: u64,
    late_records: u64,
    layer: Metrics,
}

impl<'a> Iteration<'a> {
    fn new(
        part: &'a Part<'a>,
        index: usize,
        tr: &'a mut Tracer,
        gate: &'a mut Gate,
        s: &'a mut Samples,
    ) -> Self {
        let cfg = stream_config();
        let checkpoint_every = ClusterConfig::default().checkpoint_every;
        let leaders = part
            .dirs
            .iter()
            .enumerate()
            .map(|(shard, d)| {
                tr.span("cluster.leader_new", shard as u64, || {
                    ShardLeader::new(&cfg, d, shard, checkpoint_every).expect("leader")
                })
            })
            .collect();
        let followers = part
            .dirs
            .iter()
            .enumerate()
            .map(|(shard, d)| {
                tr.span("cluster.follower_new", shard as u64, || {
                    Follower::new(&cfg, d, shard)
                })
            })
            .collect();
        Iteration {
            part,
            index,
            tr,
            gate,
            s,
            leaders,
            followers,
            checkpoint_every,
            segment_frames: 0,
            segment_frame_bytes: 0,
            checkpoint_frames: 0,
            checkpoint_frame_bytes: 0,
            catchup_bytes: 0,
            ack_failures: 0,
            restore_segments: 0,
        }
    }

    /// Deliver a leader's frames to its follower in order.
    fn replicate(&mut self, shard: usize, frames: &[Vec<u8>], id: u64) {
        for f in frames {
            if f.get(3) == Some(&proto::KIND_CHECKPOINT) {
                self.checkpoint_frames += 1;
                self.checkpoint_frame_bytes += f.len() as u64;
            } else {
                self.segment_frames += 1;
                self.segment_frame_bytes += f.len() as u64;
            }
            if !apply_frame(&mut self.followers[shard], shard, f, id, self.tr, self.gate) {
                self.ack_failures += 1;
            }
        }
    }

    /// One batch through its shard leader and follower.
    fn offer_to(&mut self, shard: usize, batch: &[u8], id: u64) {
        let leader = &mut self.leaders[shard];
        match self
            .tr
            .span("cluster.leader_offer", id, || leader.offer(batch))
        {
            Ok(frames) => self.replicate(shard, &frames, id),
            Err(e) => {
                self.gate
                    .check(false, || format!("shard {shard} refused batch {id}: {e}"));
            }
        }
    }

    fn ingest(&mut self) -> Outcome {
        let part = self.part;
        let kill_at = part.batches.len() / 2;
        let mut seen: Vec<Vec<usize>> = vec![Vec::new(); SHARDS];
        let mut busy_us = 0.0;
        let offers_before = self.s.offer.len();
        for (i, b) in part.batches.iter().enumerate() {
            if i == kill_at {
                self.kill(0, &seen[0]);
            }
            let t = Instant::now();
            self.tr.group("cluster.offer", i as u64);
            match self
                .tr
                .span("cluster.route", i as u64, || shard_of_batch(b, SHARDS))
            {
                Ok(shard) => {
                    self.offer_to(shard, b, i as u64);
                    seen[shard].push(i);
                }
                Err(e) => {
                    self.gate
                        .check(false, || format!("batch {i} unroutable: {e}"));
                }
            }
            self.tr.exit();
            let us = us_since(t);
            busy_us += us;
            self.s.offer.push(us);
        }
        self.s.offer.end_unit(self.index, offers_before);
        let t = Instant::now();
        for shard in 0..SHARDS {
            let leader = &mut self.leaders[shard];
            match self
                .tr
                .span("cluster.leader_flush", shard as u64, || leader.flush())
            {
                Ok(frames) => self.replicate(shard, &frames, part.batches.len() as u64),
                Err(e) => {
                    self.gate
                        .check(false, || format!("shard {shard} flush failed: {e}"));
                }
            }
        }
        busy_us += us_since(t);
        let rate = part.fleet.events.len() as f64 / (busy_us / 1e6);
        self.s.ingest_rate.push((self.index, rate));

        // Publish serving snapshots, then check the tier against batch.
        for shard in 0..SHARDS {
            let (l, f) = (&self.leaders[shard], &self.followers[shard]);
            self.tr
                .span("cluster.leader_publish", shard as u64, || l.publish());
            self.tr
                .span("cluster.follower_publish", shard as u64, || f.publish());
        }
        self.tr.enter("bench.verify", 0);
        let mut merged = self.leaders[0].pipeline().store();
        for l in &self.leaders[1..] {
            cellrel::sim::Merge::merge(&mut merged, l.pipeline().store());
        }
        let digest = merged.digest();
        let want = part.reference.digest;
        self.gate.check(digest == want, || {
            format!("merged shard digest {digest:016x} != batch {want:016x}")
        });
        for shard in 0..SHARDS {
            let (l, f) = (
                self.leaders[shard].digest(),
                self.followers[shard].sealed_store().digest(),
            );
            self.gate.check(l == f, || {
                format!("shard {shard} follower sealed digest {f:016x} != leader {l:016x}")
            });
        }
        self.tr.exit();

        let counters: Vec<_> = self
            .leaders
            .iter()
            .map(|l| *l.pipeline().counters())
            .collect();
        let records: Vec<f64> = counters.iter().map(|c| c.records as f64).collect();
        let total: f64 = records.iter().sum();
        let late: u64 = counters.iter().map(|c| c.late_records).sum();
        let segment_bytes: u64 = self
            .leaders
            .iter()
            .flat_map(|l| l.pipeline().manifest().iter().map(|e| e.bytes))
            .sum();
        let layer = Metrics::from([
            ("stream.late_share", late as f64 / total.max(1.0)),
            (
                "stream.late_segments",
                counters.iter().map(|c| c.late_segments).sum::<u64>() as f64,
            ),
            (
                "stream.base_folds",
                counters.iter().map(|c| c.base_folds).sum::<u64>() as f64,
            ),
            ("stream.checkpoints", self.checkpoint_frames as f64),
            ("stream.restore_segments", self.restore_segments as f64),
            (
                "stream.checkpoint_bytes_mean",
                self.checkpoint_frame_bytes as f64 / self.checkpoint_frames.max(1) as f64,
            ),
            (
                "cluster.shard_skew",
                records.iter().cloned().fold(0.0, f64::max) / (total / SHARDS as f64),
            ),
            ("cluster.segment_frames", self.segment_frames as f64),
            ("cluster.segment_bytes", self.segment_frame_bytes as f64),
            ("cluster.checkpoint_frames", self.checkpoint_frames as f64),
            (
                "cluster.checkpoint_bytes",
                self.checkpoint_frame_bytes as f64,
            ),
            ("cluster.ack_failures", self.ack_failures as f64),
        ]);
        Outcome {
            digest,
            checkpoint_bytes: self.checkpoint_frame_bytes,
            replication_bytes: self.segment_frame_bytes
                + self.checkpoint_frame_bytes
                + self.catchup_bytes,
            segment_bytes,
            late_records: late,
            layer,
        }
    }

    /// Kill `shard`'s leader and promote its follower the way
    /// `Cluster::promote` does, [`PROMOTIONS`] times over, then replay the
    /// shard's batches the restored pipeline had not yet consumed. `seen` lists the batches the
    /// dead leader had taken.
    fn kill(&mut self, shard: usize, seen: &[usize]) {
        let part = self.part;
        let live = self
            .tr
            .span("bench.verify", 0, || self.leaders[shard].digest());
        let cfg = stream_config();
        let dir = &part.dirs[shard];
        // The dead leader's follower; `promote` leaves it as it was, so
        // every repetition promotes the same state.
        let mut dead = None;
        let mut cursor = 0;
        for k in 0..PROMOTIONS {
            let t = Instant::now();
            self.tr.group("cluster.promote", shard as u64);
            let fresh = self.tr.span("cluster.follower_new", shard as u64, || {
                Follower::new(&cfg, dir, shard)
            });
            let replaced = std::mem::replace(&mut self.followers[shard], fresh);
            let old = dead.get_or_insert(replaced);
            let promoted = self
                .tr
                .span("stream.restore", shard as u64, || old.promote(dir));
            cursor = match promoted {
                Ok((pipeline, segs)) => {
                    let cursor = pipeline.cursor();
                    self.restore_segments = segs.len() as u64;
                    let every = self.checkpoint_every;
                    self.leaders[shard] =
                        self.tr.span("cluster.leader_from_parts", shard as u64, || {
                            ShardLeader::from_parts(pipeline, segs, shard, every)
                        });
                    let (leader, fresh) = (&self.leaders[shard], &mut self.followers[shard]);
                    let reply = self.tr.span("cluster.catchup", shard as u64, || {
                        leader.handle(&fresh.catchup_request())
                    });
                    if k == 0 {
                        self.catchup_bytes += reply.len() as u64;
                    }
                    let caught = self.tr.span("cluster.follower_catchup", shard as u64, || {
                        fresh.ingest_catchup(&reply)
                    });
                    self.gate
                        .check(caught.is_ok(), || format!("catch-up failed: {caught:?}"));
                    cursor
                }
                Err(e) => {
                    self.gate
                        .check(false, || format!("promotion of shard {shard} failed: {e}"));
                    0
                }
            };
            self.tr.exit();
            self.s.recovery_ms.push((self.index, us_since(t) / 1e3));
        }

        self.tr.group("cluster.replay", shard as u64);
        for &i in seen.iter().skip(cursor as usize) {
            self.offer_to(shard, &part.batches[i], i as u64);
        }
        self.tr.exit();
        let promoted = self
            .tr
            .span("bench.verify", 0, || self.leaders[shard].digest());
        self.gate.check(promoted == live, || {
            format!("promoted shard {shard} digest {promoted:016x} != live {live:016x}")
        });
    }

    /// The closed-loop router phase: `ROUNDS` passes over the mix, every
    /// answer checked against `Store::query` on the batch reference.
    fn route(&mut self, iter: u64) -> Metrics {
        let part = self.part;
        let leaders = &self.leaders;
        let (router, handles) = self.tr.span("cluster.router_new", iter, || {
            let handles: Vec<ShardHandle> =
                leaders.iter().map(|l| ShardHandle::new(l.core())).collect();
            (ClusterRouter::new(handles.clone()), handles)
        });
        let queries = canonical();
        let mut partial_bytes = 0u64;
        let mut partial_frames = 0u64;
        let mut scanned = 0u64;
        let mut matched = 0u64;
        let mut id = iter << 32;
        for _ in 0..ROUNDS {
            let from = self.s.query.len();
            for (qi, (name, q)) in queries.iter().enumerate() {
                id += 1;
                let t = Instant::now();
                let got = if self.tr.is_on() {
                    self.tr.group("cluster.router_query", id);
                    let r = scatter_gather(&handles, q, id, self.tr, &mut partial_bytes);
                    self.tr.exit();
                    partial_frames += SHARDS as u64;
                    r
                } else {
                    router.query(q).map(|a| a.result).map_err(|e| e.to_string())
                };
                let us = us_since(t);
                self.s.query.push(us);
                let want = &part.reference.answers[qi];
                if let Ok(rs) = &got {
                    scanned += rs.cells_scanned;
                    matched += rs.cells_matched;
                }
                // Scan counts depend on the shard layout; the rows must not.
                let same = got.as_ref().is_ok_and(|rs| {
                    (&rs.group_by, &rs.metric, &rs.rows)
                        == (&want.group_by, &want.metric, &want.rows)
                });
                self.gate.check(same, || {
                    format!("routed {name} rows differ from Store::query on the batch store")
                });
            }
            self.s.query.end_unit(self.index, from);
        }
        let reference = &part.reference.store;
        for (i, (_, q)) in queries.iter().enumerate() {
            // In-process `Store::query` on the single-node store, no wire.
            let _ = self.tr.span("store.query", i as u64, || reference.query(q));
        }
        let tables = self.tr.span("bench.verify", 0, || router.tables(TABLE2_K));
        match tables {
            Ok((t1, t2)) => {
                let r = &part.reference;
                self.gate
                    .check(t1.render() == r.table1, || "routed table 1 differs".into());
                self.gate
                    .check(t2.render() == r.table2, || "routed table 2 differs".into());
            }
            Err(e) => {
                self.gate
                    .check(false, || format!("routed tables failed: {e}"));
            }
        }
        let n = (ROUNDS * queries.len()) as f64;
        let mut m = Metrics::from([
            ("store.cells_scanned_per_query", scanned as f64 / n),
            ("store.match_ratio", matched as f64 / scanned.max(1) as f64),
        ]);
        if partial_frames > 0 {
            m.insert(
                "cluster.partial_frame_bytes",
                partial_bytes as f64 / partial_frames as f64,
            );
        }
        m
    }
}

/// `ClusterRouter::query` as its public parts: one `CR` query frame to
/// every shard handle, then `merge_partials` over the replies.
fn scatter_gather(
    handles: &[ShardHandle],
    q: &Query,
    id: u64,
    tr: &mut Tracer,
    partial_bytes: &mut u64,
) -> Result<ResultSet, String> {
    let frame = tr.span("cluster.encode_frame", id, || {
        encode_frame(&Message::Query(q.clone()))
    });
    let mut partials = Vec::with_capacity(handles.len());
    for h in handles {
        let reply = tr.span("cluster.shard_handle", id, || h.handle(&frame));
        *partial_bytes += reply.len() as u64;
        match tr.span("cluster.decode_frame", id, || decode_frame(&reply)) {
            Ok(Message::Partial { partial, .. }) => partials.push(partial),
            other => return Err(format!("expected a partial, got {other:?}")),
        }
    }
    Ok(tr.span("cluster.gather_merge", id, || merge_partials(q, &partials)))
}
