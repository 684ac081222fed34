//! A follower replica: replays the leader's log, serves reads, stands by.
//!
//! Durable state is exactly what survives a follower restart: the segment
//! bytes, the manifest they decode to, and the standby checkpoint.
//! The merged store, applied position, and serving snapshot are volatile
//! and rebuilt by [`Follower::recover`]. Every applied segment is
//! digest-verified by the segment codec before it merges, so a corrupt or
//! torn ship is rejected at the wire, not discovered at failover.
//!
//! Checkpoints arrive as links (see `cellrel_stream::link`). A full `SP`
//! base is checked on arrival the way a restore would check it — a blob
//! that cannot rebuild a pipeline is refused while the leader is still
//! alive to resend it — and becomes the [`Standby`]. Each `SD` delta after
//! it is decoded in full, its manifest suffix checked against this
//! follower's own verified entries, and applied to the standby in encoded
//! form; a delta that does not extend the standby is refused with
//! `ERR_APPLY` and changes nothing, and the leader answers a refused link
//! with a base next (`ShardLeader::rebase_links`). Promotion reassembles the `SP` bytes
//! from the standby and restores from them.

use std::sync::Arc;

use crate::error::ClusterError;
use crate::proto::{self, Message};
use crate::router;
use cellrel_ingest::codec::crc32;
use cellrel_queryd::QuerydCore;
use cellrel_sim::Merge;
use cellrel_store::{DeviceDirectory, Store};
use cellrel_stream::{
    decode_segment, is_delta_link, MemSegments, SegmentEntry, SegmentStore, Standby, StreamConfig,
    StreamError, StreamPipeline,
};

/// One shard's read replica and failover target.
pub struct Follower {
    shard: usize,
    dir: DeviceDirectory,
    cfg: StreamConfig,
    // -- durable --
    segs: MemSegments,
    manifest: Vec<SegmentEntry>,
    /// The newest checkpoint link and the replication position it covers.
    standby: Option<(u64, Standby)>,
    // -- volatile --
    applied: u64,
    base: Store,
    core: Arc<QuerydCore>,
}

impl Follower {
    /// An empty replica for `shard` over the shard's directory view.
    pub fn new(cfg: &StreamConfig, dir: &DeviceDirectory, shard: usize) -> Self {
        let f = Follower {
            shard,
            dir: dir.clone(),
            cfg: *cfg,
            segs: MemSegments::new(),
            manifest: Vec::new(),
            standby: None,
            applied: 0,
            base: Store::new(&cfg.store),
            core: QuerydCore::new(Store::new(&cfg.store)),
        };
        f.publish();
        f
    }

    /// This shard's index.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The serving core (for read scale-out routers).
    pub fn core(&self) -> Arc<QuerydCore> {
        Arc::clone(&self.core)
    }

    /// Highest replication position applied.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Replication position of the newest applied checkpoint link.
    pub fn checkpoint_seq(&self) -> Option<u64> {
        self.standby.as_ref().map(|(seq, _)| *seq)
    }

    /// The `SP` checkpoint a promotion would restore from, reassembled from
    /// the standby — byte-identical to the leader's checkpoint at the
    /// newest applied link. `None` before the first base arrives.
    pub fn standby_checkpoint(&self) -> Option<Vec<u8>> {
        self.standby.as_ref().map(|(_, s)| s.checkpoint())
    }

    /// The replayed manifest.
    pub fn manifest(&self) -> &[SegmentEntry] {
        &self.manifest
    }

    /// The shard store this follower can serve: every applied segment
    /// merged, the shard's devices registered, columnar-sealed — the same
    /// shape the leader's sealed history has after a flush.
    pub fn sealed_store(&self) -> Store {
        let mut s = self.base.clone();
        s.register_population(&self.dir);
        s.seal_columnar();
        s
    }

    /// Swap a fresh snapshot into the serving core, tagged with the
    /// applied replication position.
    pub fn publish(&self) -> bool {
        self.core.publish_at(self.sealed_store(), self.applied)
    }

    /// Apply one replication or query frame. Total: every outcome is a
    /// reply frame (ack, partial, or rejection), never a panic.
    pub fn apply(&mut self, frame: &[u8]) -> Vec<u8> {
        let msg = match proto::decode_frame(frame) {
            Ok(m) => m,
            Err(e) => return proto::encode_frame(&proto::rejection_for(&e)),
        };
        let reply = match msg {
            Message::ShipSegment { seq, frame } => self.apply_segment(seq, &frame),
            Message::ShipCheckpoint { seq, checkpoint } => self.apply_checkpoint(seq, checkpoint),
            Message::Query(q) => return router::answer_query(&self.core, &q),
            _ => Message::Rejection {
                code: proto::ERR_UNEXPECTED,
                detail: "followers accept segments, checkpoints, and queries only".into(),
            },
        };
        proto::encode_frame(&reply)
    }

    /// Verify and merge one shipped segment at the next dense position.
    fn apply_segment(&mut self, seq: u64, bytes: &[u8]) -> Message {
        if seq != self.applied + 1 {
            return Message::Rejection {
                code: proto::ERR_APPLY,
                detail: format!(
                    "segment seq {seq} does not follow applied seq {}",
                    self.applied
                ),
            };
        }
        // decode_segment cross-checks the embedded digest and record
        // count, so `entry` here is verified, not merely claimed.
        let (entry, delta) = match decode_segment(bytes) {
            Ok(x) => x,
            Err(e) => {
                return Message::Rejection {
                    code: proto::ERR_APPLY,
                    detail: format!("segment rejected: {e}"),
                }
            }
        };
        if let Err(e) = self.segs.put(&entry.name(), bytes) {
            return Message::Rejection {
                code: proto::ERR_APPLY,
                detail: format!("segment store: {e}"),
            };
        }
        self.base.merge(delta);
        self.manifest.push(entry);
        self.applied = seq;
        Message::Ack {
            seq,
            digest: entry.digest,
        }
    }

    /// Apply a checkpoint link covering the applied prefix: a base
    /// replaces the standby, a delta advances it.
    fn apply_checkpoint(&mut self, seq: u64, bytes: Vec<u8>) -> Message {
        if seq > self.applied {
            return Message::Rejection {
                code: proto::ERR_APPLY,
                detail: format!(
                    "checkpoint seq {seq} is ahead of applied seq {}",
                    self.applied
                ),
            };
        }
        let applied = if is_delta_link(&bytes) {
            match &mut self.standby {
                Some((at, standby)) => standby
                    .apply(&bytes, &self.manifest, &self.dir)
                    .map(|()| *at = seq)
                    .map_err(|e| e.to_string()),
                None => Err("delta link arrived before any base".to_string()),
            }
        } else {
            // Check now, against the segments we actually hold: a
            // checkpoint that cannot rebuild a pipeline is useless at
            // promotion time and must be refused while it is still cheap to.
            Standby::from_base(&bytes, &self.segs)
                .map(|s| self.standby = Some((seq, s)))
                .map_err(|e| e.to_string())
        };
        if let Err(e) = applied {
            return Message::Rejection {
                code: proto::ERR_APPLY,
                detail: format!("checkpoint rejected: {e}"),
            };
        }
        let digest = u64::from(crc32(&bytes));
        Message::Ack { seq, digest }
    }

    /// The catch-up request this follower would send its leader.
    pub fn catchup_request(&self) -> Vec<u8> {
        proto::encode_frame(&Message::Catchup {
            from_seq: self.applied,
        })
    }

    /// Apply a leader's catch-up reply: the manifest suffix after our
    /// applied position, replayed through the normal verified-apply path.
    pub fn ingest_catchup(&mut self, reply: &[u8]) -> Result<u64, ClusterError> {
        match proto::decode_frame(reply)? {
            Message::Segments { from_seq, frames } => {
                if from_seq != self.applied {
                    return Err(ClusterError::Replication {
                        shard: self.shard,
                        detail: format!(
                            "catch-up reply starts at {from_seq}, expected {}",
                            self.applied
                        ),
                    });
                }
                for f in frames {
                    let seq = self.applied + 1;
                    match self.apply_segment(seq, &f) {
                        Message::Ack { .. } => {}
                        Message::Rejection { code, detail } => {
                            return Err(ClusterError::Replication {
                                shard: self.shard,
                                detail: format!("catch-up apply (code {code}): {detail}"),
                            })
                        }
                        other => {
                            return Err(ClusterError::Replication {
                                shard: self.shard,
                                detail: format!("catch-up apply: unexpected {other:?}"),
                            })
                        }
                    }
                }
                self.publish();
                Ok(self.applied)
            }
            Message::Rejection { code, detail } => Err(ClusterError::Replication {
                shard: self.shard,
                detail: format!("catch-up refused (code {code}): {detail}"),
            }),
            other => Err(ClusterError::Replication {
                shard: self.shard,
                detail: format!("expected segments, got {other:?}"),
            }),
        }
    }

    /// Simulate a restart: drop all volatile state and rebuild it from the
    /// durable segment log, re-verifying every segment against its
    /// manifest entry on the way back in.
    pub fn recover(&mut self) -> Result<(), ClusterError> {
        let mut base = Store::new(&self.cfg.store);
        for entry in &self.manifest {
            let bytes = self.segs.get(&entry.name())?;
            let (decoded, delta) = decode_segment(&bytes)?;
            if decoded != *entry {
                return Err(ClusterError::Stream(StreamError::SegmentMismatch(
                    entry.name(),
                )));
            }
            base.merge(delta);
        }
        self.base = base;
        self.applied = self.manifest.len() as u64;
        self.core = QuerydCore::new(Store::new(&self.cfg.store));
        self.publish();
        Ok(())
    }

    /// Promotion: rebuild a leader-grade pipeline from the durable
    /// checkpoint — the `SP` bytes reassembled from the standby — (or from
    /// scratch if none arrived yet) plus the segment log. Returns the
    /// pipeline and the segment backend the new leader takes over; the
    /// caller replays the shard's batches from `pipeline.cursor()`.
    pub fn promote<'d>(
        &self,
        dir: &'d DeviceDirectory,
    ) -> Result<(StreamPipeline<'d>, MemSegments), ClusterError> {
        let segs = self.segs.clone();
        let pipeline = match &self.standby {
            Some((_, standby)) => StreamPipeline::restore(&standby.checkpoint(), dir, &segs)?,
            None => StreamPipeline::new(&self.cfg, dir)?,
        };
        Ok((pipeline, segs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::ShardLeader;
    use crate::partition::{shard_directories, shard_of_batch};
    use cellrel_stream::batches_from_events;
    use cellrel_workload::{run_macro_study, PopulationConfig, StudyConfig};

    fn fixture() -> (DeviceDirectory, Vec<Vec<u8>>, StreamConfig) {
        let data = run_macro_study(&StudyConfig {
            seed: 2021,
            population: PopulationConfig {
                devices: 200,
                ..Default::default()
            },
            days: 3,
            bs_count: 80,
        });
        let dir = DeviceDirectory::from_population(&data.population);
        let cfg = StreamConfig {
            window_ms: 86_400_000,
            lateness_ms: 2 * 3_600_000,
            hot_windows: 2,
            late_flush: 256,
            ..Default::default()
        };
        (dir, batches_from_events(&data.events, 32), cfg)
    }

    /// At every link of a 2-shard run — base, deltas, the flush — the
    /// standby reassembles exactly the leader's `SP` checkpoint, and only
    /// the first link of each shard is a full base.
    #[test]
    fn standby_reassembles_the_leader_checkpoint_at_every_link() {
        let (dir, batches, cfg) = fixture();
        let dirs = shard_directories(&dir, 2);
        let mut leaders: Vec<ShardLeader> = dirs
            .iter()
            .enumerate()
            .map(|(s, d)| ShardLeader::new(&cfg, d, s, 4).expect("leader"))
            .collect();
        let mut followers: Vec<Follower> = dirs
            .iter()
            .enumerate()
            .map(|(s, d)| Follower::new(&cfg, d, s))
            .collect();
        let mut links = [0usize; 2];
        let mut deltas = 0;
        let mut deliver = |shard: usize, frames: Vec<Vec<u8>>, leader: &ShardLeader| {
            for frame in frames {
                proto::expect_ack(shard, &followers[shard].apply(&frame)).expect("acked");
                if proto::is_checkpoint_frame(&frame) {
                    let Message::ShipCheckpoint { checkpoint, .. } =
                        proto::decode_frame(&frame).expect("decodes")
                    else {
                        unreachable!("kind byte says checkpoint");
                    };
                    assert_eq!(is_delta_link(&checkpoint), links[shard] > 0);
                    deltas += usize::from(links[shard] > 0);
                    links[shard] += 1;
                    let standby = followers[shard].standby_checkpoint().expect("standby");
                    assert!(
                        standby == leader.pipeline().checkpoint(),
                        "shard {shard} link {} reassembles different bytes",
                        links[shard] - 1
                    );
                }
            }
        };
        for b in &batches {
            let shard = shard_of_batch(b, 2).expect("routable");
            let frames = leaders[shard].offer(b).expect("offer");
            deliver(shard, frames, &leaders[shard]);
        }
        for (shard, leader) in leaders.iter_mut().enumerate() {
            let frames = leader.flush().expect("flush");
            deliver(shard, frames, leader);
        }
        assert!(links.iter().all(|&n| n > 2), "links per shard {links:?}");
        assert!(deltas > 0);
    }

    /// A delta that does not extend the standby — replayed, skipped ahead,
    /// or sent with no base — is refused with `ERR_APPLY` and leaves the
    /// standby unchanged.
    #[test]
    fn a_delta_that_does_not_extend_the_standby_is_refused() {
        let (dir, batches, cfg) = fixture();
        let dirs = shard_directories(&dir, 1);
        let mut leader = ShardLeader::new(&cfg, &dirs[0], 0, 1).expect("leader");
        let mut follower = Follower::new(&cfg, &dirs[0], 0);
        let mut kept: Vec<Vec<u8>> = Vec::new();
        for b in &batches[..12] {
            for frame in leader.offer(b).expect("offer") {
                proto::expect_ack(0, &follower.apply(&frame)).expect("acked");
                if proto::is_checkpoint_frame(&frame) {
                    kept.push(frame);
                }
            }
        }
        assert!(kept.len() >= 4, "a base and deltas");
        let before = follower.standby_checkpoint().expect("standby");
        let seq = follower.checkpoint_seq();
        let rejected = |reply: &[u8]| {
            matches!(
                proto::decode_frame(reply),
                Ok(Message::Rejection {
                    code: proto::ERR_APPLY,
                    ..
                })
            )
        };
        // Replays of an applied delta, and a delta from further back.
        for old in [&kept[kept.len() - 1], &kept[1]] {
            assert!(rejected(&follower.apply(old)));
            assert_eq!(follower.standby_checkpoint().as_deref(), Some(&before[..]));
            assert_eq!(follower.checkpoint_seq(), seq);
        }
        // Skipping a link: the leader's next delta after one that never
        // arrived.
        let mut skipped = false;
        for b in &batches[12..] {
            let frames = leader.offer(b).expect("offer");
            if frames.iter().any(|f| proto::is_checkpoint_frame(f)) {
                if !skipped {
                    skipped = true;
                    // Segments still go through; the delta is dropped.
                    for f in frames.iter().filter(|f| !proto::is_checkpoint_frame(f)) {
                        proto::expect_ack(0, &follower.apply(f)).expect("acked");
                    }
                    continue;
                }
                for f in &frames {
                    let reply = follower.apply(f);
                    if proto::is_checkpoint_frame(f) {
                        assert!(rejected(&reply), "a skipped-ahead delta is refused");
                    }
                }
                break;
            }
            for f in &frames {
                proto::expect_ack(0, &follower.apply(f)).expect("acked");
            }
        }
        assert!(skipped);
        assert_eq!(follower.standby_checkpoint().as_deref(), Some(&before[..]));
        // A delta with no base to extend (at a position the empty replica
        // covers, so only the missing base can refuse it).
        let Ok(Message::ShipCheckpoint { checkpoint, .. }) =
            proto::decode_frame(kept.last().expect("kept"))
        else {
            unreachable!("kept frames are checkpoints");
        };
        assert!(is_delta_link(&checkpoint));
        let mut fresh = Follower::new(&cfg, &dirs[0], 0);
        let frame = proto::encode_frame(&Message::ShipCheckpoint { seq: 0, checkpoint });
        assert!(rejected(&fresh.apply(&frame)));
        assert_eq!(fresh.standby_checkpoint(), None);
    }
}
