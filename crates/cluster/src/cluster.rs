//! The assembled tier: shard leaders, replica sets, routers.
//!
//! [`Cluster`] wires the three layers together for in-process use (tests,
//! benches, `repro --cluster`): batches route by device hash to their
//! shard leader, every replication frame a leader emits is delivered to
//! the shard's followers **in order** with acks checked, and routers fan
//! queries across either the leaders or the follower tier. Leader failure
//! is a first-class operation: [`Cluster::promote`] rebuilds the shard
//! from its first follower's durable state and spins up a replacement
//! replica that catches up over the wire.

use crate::error::ClusterError;
use crate::node::ShardLeader;
use crate::partition::shard_of_batch;
use crate::proto;
use crate::replica::Follower;
use crate::router::{ClusterRouter, ShardHandle};
use cellrel_sim::Merge;
use cellrel_store::{DeviceDirectory, Store};
use cellrel_stream::StreamConfig;

/// Cluster shape: how many shards, how many replicas behind each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Independent shard pipelines the fleet is hash-partitioned over.
    pub shards: usize,
    /// Follower replicas per shard (0 = no replication, no failover).
    pub replicas: usize,
    /// Ship a checkpoint every this many batches even without a seal
    /// (0 = only on seals and flush). Bounds replay work at promotion.
    pub checkpoint_every: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 2,
            replicas: 1,
            checkpoint_every: 4,
        }
    }
}

/// An in-process sharded, replicated serving tier.
pub struct Cluster<'d> {
    stream_cfg: StreamConfig,
    cluster_cfg: ClusterConfig,
    dirs: &'d [DeviceDirectory],
    leaders: Vec<ShardLeader<'d>>,
    followers: Vec<Vec<Follower>>,
}

impl<'d> Cluster<'d> {
    /// Build a cluster over per-shard directory views (one per shard, from
    /// [`crate::partition::shard_directories`] on the fleet directory).
    pub fn new(
        stream_cfg: &StreamConfig,
        cluster_cfg: &ClusterConfig,
        dirs: &'d [DeviceDirectory],
    ) -> Result<Self, ClusterError> {
        if cluster_cfg.shards == 0 {
            return Err(ClusterError::Config("cluster needs at least one shard"));
        }
        if dirs.len() != cluster_cfg.shards {
            return Err(ClusterError::Config(
                "one shard directory view per shard required",
            ));
        }
        let leaders = dirs
            .iter()
            .enumerate()
            .map(|(s, d)| ShardLeader::new(stream_cfg, d, s, cluster_cfg.checkpoint_every))
            .collect::<Result<Vec<_>, _>>()?;
        let followers = dirs
            .iter()
            .enumerate()
            .map(|(s, d)| {
                (0..cluster_cfg.replicas)
                    .map(|_| Follower::new(stream_cfg, d, s))
                    .collect()
            })
            .collect();
        Ok(Cluster {
            stream_cfg: *stream_cfg,
            cluster_cfg: *cluster_cfg,
            dirs,
            leaders,
            followers,
        })
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.leaders.len()
    }

    /// The leader of `shard`.
    pub fn leader(&self, shard: usize) -> &ShardLeader<'d> {
        &self.leaders[shard]
    }

    /// The follower set of `shard`.
    pub fn followers_of(&self, shard: usize) -> &[Follower] {
        &self.followers[shard]
    }

    /// Mutable follower set of `shard` (restart/recovery tests).
    pub fn followers_of_mut(&mut self, shard: usize) -> &mut Vec<Follower> {
        &mut self.followers[shard]
    }

    /// Route one encoded batch to its shard, replicate the resulting
    /// frames, and return the shard it landed on.
    pub fn offer(&mut self, batch: &[u8]) -> Result<usize, ClusterError> {
        let shard = shard_of_batch(batch, self.leaders.len())?;
        let frames = self.leaders[shard].offer(batch)?;
        self.replicate(shard, &frames)?;
        Ok(shard)
    }

    /// Deliver replication frames to every follower of `shard`, in order,
    /// checking each ack. A refused checkpoint link makes the leader's
    /// next link a base, so the follower re-syncs from it.
    fn replicate(&mut self, shard: usize, frames: &[Vec<u8>]) -> Result<(), ClusterError> {
        for frame in frames {
            for follower in &mut self.followers[shard] {
                let reply = follower.apply(frame);
                if let Err(e) = proto::expect_ack(shard, &reply) {
                    if proto::is_checkpoint_frame(frame) {
                        self.leaders[shard].rebase_links();
                    }
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// End of stream: flush every shard and replicate the tail.
    pub fn flush(&mut self) -> Result<(), ClusterError> {
        for shard in 0..self.leaders.len() {
            let frames = self.leaders[shard].flush()?;
            self.replicate(shard, &frames)?;
        }
        Ok(())
    }

    /// Publish fresh serving snapshots on every leader and follower.
    pub fn publish(&self) {
        for l in &self.leaders {
            l.publish();
        }
        for fs in &self.followers {
            for f in fs {
                f.publish();
            }
        }
    }

    /// A scatter-gather router over the shard leaders.
    pub fn router(&self) -> ClusterRouter {
        ClusterRouter::new(
            self.leaders
                .iter()
                .map(|l| ShardHandle::new(l.core()))
                .collect(),
        )
    }

    /// A router over the first follower of every shard — read scale-out
    /// with the leaders untouched. Requires every shard to have a replica.
    pub fn follower_router(&self) -> Result<ClusterRouter, ClusterError> {
        let mut handles = Vec::with_capacity(self.followers.len());
        for fs in &self.followers {
            let f = fs
                .first()
                .ok_or(ClusterError::Config("a shard has no follower to read from"))?;
            handles.push(ShardHandle::new(f.core()));
        }
        Ok(ClusterRouter::new(handles))
    }

    /// The merged global store: every shard's full view folded together.
    /// Byte-identical (digest included) to a single-node store that
    /// ingested the whole fleet, because shard record sets and registered
    /// populations partition the global ones exactly.
    pub fn store(&self) -> Store {
        let mut iter = self.leaders.iter().map(|l| l.pipeline().store());
        let mut merged = iter.next().expect("cluster has at least one shard");
        for s in iter {
            merged.merge(s);
        }
        merged
    }

    /// Digest of the merged global store.
    pub fn digest(&self) -> u64 {
        self.store().digest()
    }

    /// Kill the leader of `shard` and promote its first follower: the old
    /// leader (volatile state included) is dropped, a pipeline is restored
    /// from the follower's durable checkpoint + segment log, and a fresh
    /// replacement follower catches up from the promoted leader over the
    /// wire. Returns the restored pipeline cursor — the caller must replay
    /// the shard's batches from that position.
    pub fn promote(&mut self, shard: usize) -> Result<u64, ClusterError> {
        if shard >= self.leaders.len() {
            return Err(ClusterError::Config("no such shard"));
        }
        if self.followers[shard].is_empty() {
            return Err(ClusterError::Failover(format!(
                "shard {shard} has no follower to promote"
            )));
        }
        let promoted = self.followers[shard].remove(0);
        let (pipeline, segs) = promoted.promote(&self.dirs[shard])?;
        let cursor = pipeline.cursor();
        self.leaders[shard] =
            ShardLeader::from_parts(pipeline, segs, shard, self.cluster_cfg.checkpoint_every);
        // Backfill the replica slot: a fresh follower, caught up from the
        // promoted leader's durable log through the catch-up protocol.
        let mut fresh = Follower::new(&self.stream_cfg, &self.dirs[shard], shard);
        let reply = self.leaders[shard].handle(&fresh.catchup_request());
        fresh.ingest_catchup(&reply)?;
        self.followers[shard].push(fresh);
        Ok(cursor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::shard_directories;
    use cellrel_store::{workload, DeviceDirectory};
    use cellrel_stream::{batches_from_events, MemSegments, StreamPipeline};
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
        let batches = batches_from_events(&data.events, 32);
        let cfg = StreamConfig {
            window_ms: 86_400_000,
            lateness_ms: 2 * 3_600_000,
            hot_windows: 2,
            late_flush: 256,
            ..Default::default()
        };
        (dir, batches, cfg)
    }

    /// Core federation identity, small scale: a 3-shard cluster's merged
    /// store and routed answers equal a single pipeline's, byte for byte.
    #[test]
    fn cluster_is_transparent_to_a_single_pipeline() {
        let (dir, batches, cfg) = fixture();
        let mut single = StreamPipeline::new(&cfg, &dir).expect("single");
        let mut segs = MemSegments::new();
        for b in &batches {
            single.offer(b, &mut segs).expect("offer");
        }
        single.flush(&mut segs).expect("flush");
        let mut reference = single.store();
        reference.seal_columnar();

        let dirs = shard_directories(&dir, 3);
        let ccfg = ClusterConfig {
            shards: 3,
            replicas: 1,
            checkpoint_every: 4,
        };
        let mut cluster = Cluster::new(&cfg, &ccfg, &dirs).expect("cluster");
        for b in &batches {
            cluster.offer(b).expect("offer");
        }
        cluster.flush().expect("flush");
        cluster.publish();

        assert_eq!(cluster.digest(), single.digest(), "merged digest");

        let router = cluster.router();
        assert_eq!(router.fan_out(), 3);
        let follower_router = cluster.follower_router().expect("replicas exist");
        for (name, q) in workload::canonical(7 * 86_400_000) {
            let want = reference.query(&q).expect("reference");
            let got = router.query(&q).expect("routed");
            assert_eq!(got.result, want, "leader-routed {name}");
            let via_followers = follower_router.query(&q).expect("follower-routed");
            assert_eq!(via_followers.result, want, "follower-routed {name}");
        }
    }

    /// A follower that loses its volatile state rebuilds an identical
    /// sealed view from its durable segment log.
    #[test]
    fn follower_recovery_rebuilds_the_same_sealed_view() {
        let (dir, batches, cfg) = fixture();
        let dirs = shard_directories(&dir, 2);
        let ccfg = ClusterConfig::default();
        let mut cluster = Cluster::new(&cfg, &ccfg, &dirs).expect("cluster");
        for b in &batches {
            cluster.offer(b).expect("offer");
        }
        cluster.flush().expect("flush");
        for shard in 0..cluster.shards() {
            let before = cluster.followers_of(shard)[0].sealed_store().digest();
            let leader = cluster.leader(shard).digest();
            assert_eq!(before, leader, "flushed follower tracks its leader");
            let f = &mut cluster.followers_of_mut(shard)[0];
            f.recover().expect("recover");
            assert_eq!(f.sealed_store().digest(), before, "recovery is lossless");
        }
    }

    /// A follower that missed one delta refuses the next, the leader's
    /// link after that is a base, and the follower converges on it.
    #[test]
    fn a_follower_that_missed_a_delta_resyncs_from_the_next_base() {
        let (dir, batches, cfg) = fixture();
        let dirs = shard_directories(&dir, 1);
        let ccfg = ClusterConfig {
            shards: 1,
            replicas: 1,
            checkpoint_every: 1,
        };
        let mut cluster = Cluster::new(&cfg, &ccfg, &dirs).expect("cluster");
        let mut rest = batches.iter();
        for b in rest.by_ref().take(6) {
            cluster.offer(b).expect("offer");
        }
        // One batch's frames never reach the follower; it catches up on
        // the segments but not on the delta that batch shipped.
        let mut away = cluster.followers_of_mut(0).pop().expect("replica");
        cluster.offer(rest.next().expect("batch")).expect("offer");
        away.ingest_catchup(&cluster.leader(0).handle(&away.catchup_request()))
            .expect("catch-up");
        let stale = away.standby_checkpoint();
        cluster.followers_of_mut(0).push(away);
        assert!(matches!(
            cluster.offer(rest.next().expect("batch")),
            Err(ClusterError::Replication { shard: 0, .. })
        ));
        assert_eq!(cluster.followers_of(0)[0].standby_checkpoint(), stale);
        cluster
            .offer(rest.next().expect("batch"))
            .expect("the base applies");
        let leader = cluster.leader(0).pipeline().checkpoint();
        assert_eq!(
            cluster.followers_of(0)[0].standby_checkpoint(),
            Some(leader)
        );
        for b in rest {
            cluster.offer(b).expect("deltas apply again");
        }
        cluster.flush().expect("flush");
        let leader = cluster.leader(0).pipeline().checkpoint();
        assert_eq!(
            cluster.followers_of(0)[0].standby_checkpoint(),
            Some(leader)
        );
    }

    /// Structural misuse is a typed error, not a panic.
    #[test]
    fn bad_shapes_are_rejected() {
        let (dir, _, cfg) = fixture();
        let dirs = shard_directories(&dir, 2);
        assert!(matches!(
            Cluster::new(
                &cfg,
                &ClusterConfig {
                    shards: 3,
                    ..ClusterConfig::default()
                },
                &dirs
            ),
            Err(ClusterError::Config(_))
        ));
        let mut cluster = Cluster::new(&cfg, &ClusterConfig::default(), &dirs).expect("cluster");
        assert!(matches!(cluster.promote(9), Err(ClusterError::Config(_))));
        assert!(matches!(cluster.offer(&[]), Err(ClusterError::Batch(_))));
    }
}
