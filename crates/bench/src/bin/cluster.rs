//! `cluster` — drive the sharded, replicated serving tier end to end:
//! partition a fleet's upload stream across shard leaders, replicate every
//! sealed segment to followers, federate the canonical query workload
//! through the scatter-gather router, and run the leader-kill failover
//! campaign — proving at every step that the sharded tier answers
//! byte-identically to one single-node store over the same records.
//!
//! ```sh
//! cargo run --release -p cellrel-bench --bin cluster
//! cargo run --release -p cellrel-bench --bin cluster -- --shards 4 --kills 8
//! ```
//!
//! Flags: `--devices N` (default 2,000), `--days D` (default 7), `--seed S`
//! (default 2021), `--shards P` (default 2), `--batch K` (records per
//! upload batch, default 48), `--rounds R` (workload repetitions for the
//! router throughput measurement, default 24), `--kills F` (failover
//! campaign size, default 8; 0 skips the campaign).
//!
//! Deterministic results (identity verdicts, the merged store digest, the
//! campaign digest) go to stdout; throughput and latency (router
//! queries/s, scatter fan-out p50/p99 µs, follower apply time per
//! replication frame, failover recovery ms) go to stderr and
//! `BENCH_cluster.json`. Exits non-zero on
//! any divergence from the single-node ground truth.

// Wall-clock is the *measurement* here (scatter latency, follower apply
// time, recovery time), not simulation state — benches are outside the
// Instant/SystemTime gate.
#![allow(clippy::disallowed_types)]

use cellrel::analysis::store_tables::{table1_from_store, table2_from_store};
use cellrel::cluster::{
    run_failover, shard_directories, Cluster, ClusterConfig, FailoverConfig, Follower, ShardLeader,
};
use cellrel::ingest::CollectorConfig;
use cellrel::sim::QuantileSketch;
use cellrel::store::{workload, DeviceDirectory, Store, StoreConfig};
use cellrel::stream::{batches_from_events, MemSegments, StreamConfig, StreamPipeline};
use cellrel::workload::{run_macro_study, PopulationConfig, StudyConfig};
use std::time::Instant;

/// Rollup granularity of the default store config (one week).
const WEEK_MS: u64 = 7 * 86_400_000;

/// Table 2's top-k, matching the failover campaign's fixed value.
const TABLE2_K: usize = 8;

fn parse_flag<T: std::str::FromStr>(args: &mut Vec<String>, flag: &str) -> Option<T> {
    let pos = args.iter().position(|a| a == flag)?;
    let value = args
        .get(pos + 1)
        .unwrap_or_else(|| panic!("{flag} needs a value"))
        .parse::<T>()
        .unwrap_or_else(|_| panic!("{flag}: bad value"));
    args.drain(pos..pos + 2);
    Some(value)
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "MISMATCH"
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let devices = parse_flag::<usize>(&mut args, "--devices").unwrap_or(2_000);
    let days = parse_flag::<u64>(&mut args, "--days").unwrap_or(7);
    let seed = parse_flag::<u64>(&mut args, "--seed").unwrap_or(2021);
    let shards = parse_flag::<usize>(&mut args, "--shards")
        .unwrap_or(2)
        .max(1);
    let batch_cap = parse_flag::<usize>(&mut args, "--batch")
        .unwrap_or(48)
        .max(1);
    let rounds = parse_flag::<usize>(&mut args, "--rounds")
        .unwrap_or(24)
        .max(1);
    let kills = parse_flag::<usize>(&mut args, "--kills").unwrap_or(8);
    assert!(args.is_empty(), "unrecognised arguments: {args:?}");

    eprintln!("cluster: generating {devices} devices over {days} days (seed {seed}) ...");
    let t0 = Instant::now();
    let data = run_macro_study(&StudyConfig {
        population: PopulationConfig {
            devices,
            ..Default::default()
        },
        days,
        bs_count: 1_000,
        seed,
    });
    let dir = DeviceDirectory::from_population(&data.population);
    let batches = batches_from_events(&data.events, batch_cap);
    eprintln!(
        "cluster: {} events -> {} upload batches in {:.2} s",
        data.events.len(),
        batches.len(),
        t0.elapsed().as_secs_f64()
    );

    let scfg = StreamConfig {
        window_ms: 86_400_000,
        lateness_ms: 2 * 3_600_000,
        hot_windows: 3,
        late_flush: 512,
        collector: CollectorConfig::default(),
        store: StoreConfig::default(),
    };
    let ccfg = ClusterConfig {
        shards,
        replicas: 1,
        checkpoint_every: 8,
    };
    let dirs = shard_directories(&dir, shards);

    // Single-node ground truth: one pipeline over the whole fleet.
    let mut single = StreamPipeline::new(&scfg, &dir).expect("single pipeline");
    let mut segs = MemSegments::new();
    for b in &batches {
        single.offer(b, &mut segs).expect("offer");
    }
    single.flush(&mut segs).expect("flush");
    let reference_digest = single.digest();
    let mut reference: Store = single.store();
    reference.seal_columnar();
    let ref_t1 = table1_from_store(&reference).expect("valid query");
    let ref_t2 = table2_from_store(&reference, TABLE2_K).expect("valid query");

    // The sharded run: every batch routed by device hash, every sealed
    // segment replicated to the shard's follower before the next offer.
    let t_ingest = Instant::now();
    let mut cluster = Cluster::new(&scfg, &ccfg, &dirs).expect("cluster");
    for b in &batches {
        cluster.offer(b).expect("offer");
    }
    cluster.flush().expect("flush");
    cluster.publish();
    let ingest_wall = t_ingest.elapsed().as_secs_f64();
    let batches_per_sec = batches.len() as f64 / ingest_wall.max(1e-9);
    eprintln!(
        "cluster: {} batches through {shards} shard(s) (+1 replica each) in {ingest_wall:.2} s \
         ({batches_per_sec:.0} batches/s, replication inline)",
        batches.len(),
    );

    let digest_ok = cluster.digest() == reference_digest;
    println!(
        "cluster: {shards}-shard merged store identical to single-node: {}",
        verdict(digest_ok)
    );

    // Scatter-gather: the canonical workload through the router, repeated
    // for a stable throughput figure; every answer checked against the
    // single-node store on the first round.
    let router = cluster.router();
    let canonical = workload::canonical(WEEK_MS);
    let mut scatter_lat = QuantileSketch::new();
    let mut rows_ok = true;
    let t_query = Instant::now();
    for round in 0..rounds {
        for (name, q) in &canonical {
            let t = Instant::now();
            let routed = router.query(q).expect("canonical queries are legal");
            scatter_lat.push(t.elapsed().as_micros() as u64);
            if round == 0 {
                let want = reference.query(q).expect("canonical queries are legal");
                if routed.result.rows != want.rows {
                    rows_ok = false;
                    eprintln!("cluster: federated rows diverged on workload query {name}");
                }
            }
        }
    }
    let query_wall = t_query.elapsed().as_secs_f64();
    let queries = (rounds * canonical.len()) as f64;
    let queries_per_sec = queries / query_wall.max(1e-9);
    let scatter_p50 = scatter_lat.quantile(0.5).unwrap_or(0);
    let scatter_p99 = scatter_lat.quantile(0.99).unwrap_or(0);
    eprintln!(
        "cluster: {queries:.0} federated queries in {query_wall:.2} s \
         ({queries_per_sec:.0} queries/s, scatter p50 {scatter_p50} us, p99 {scatter_p99} us)",
    );
    println!(
        "cluster: federated workload rows identical to single-node: {}",
        verdict(rows_ok)
    );

    // Federated Tables 1/2 versus the single-node renders.
    let (t1, t2) = router.tables(TABLE2_K).expect("valid queries");
    let tables_ok = t1.render() == ref_t1.render() && t2.render() == ref_t2.render();
    println!(
        "cluster: federated tables 1/2 identical to single-node: {}",
        verdict(tables_ok)
    );

    // Follower apply time: a dedicated one-shard leader/follower pair over
    // the same stream, timing every replication frame's apply.
    let dirs1 = shard_directories(&dir, 1);
    let mut leader = ShardLeader::new(&scfg, &dirs1[0], 0, ccfg.checkpoint_every).expect("leader");
    let mut follower = Follower::new(&scfg, &dirs1[0], 0);
    let mut rep_lat = QuantileSketch::new();
    let mut rep_frames = 0u64;
    let mut rep_bytes = 0u64;
    let mut rep_wall = 0.0f64;
    for b in &batches {
        for frame in leader.offer(b).expect("offer") {
            rep_frames += 1;
            rep_bytes += frame.len() as u64;
            let t = Instant::now();
            follower.apply(&frame);
            let dt = t.elapsed();
            rep_wall += dt.as_secs_f64();
            rep_lat.push(dt.as_micros() as u64);
        }
    }
    for frame in leader.flush().expect("flush") {
        rep_frames += 1;
        rep_bytes += frame.len() as u64;
        let t = Instant::now();
        follower.apply(&frame);
        let dt = t.elapsed();
        rep_wall += dt.as_secs_f64();
        rep_lat.push(dt.as_micros() as u64);
    }
    let replica_ok = follower.sealed_store().digest() == leader.digest();
    let rep_p50 = rep_lat.quantile(0.5).unwrap_or(0);
    let rep_p99 = rep_lat.quantile(0.99).unwrap_or(0);
    let rep_apply_ms = rep_wall * 1e3 / (rep_frames.max(1) as f64);
    eprintln!(
        "cluster: replicated {rep_frames} frames ({} KB) — follower apply mean {rep_apply_ms:.3} ms, \
         p50 {rep_p50} us, p99 {rep_p99} us",
        rep_bytes / 1024,
    );
    println!(
        "cluster: follower sealed view identical to leader: {}",
        verdict(replica_ok)
    );

    // Failover recovery: run a fresh cluster to mid-stream, kill shard 0's
    // leader and time the promotion (checkpoint restore + segment replay +
    // replacement-follower backfill over the wire).
    let mut victim = Cluster::new(&scfg, &ccfg, &dirs).expect("cluster");
    for b in &batches[..batches.len() / 2] {
        victim.offer(b).expect("offer");
    }
    let t_promote = Instant::now();
    victim.promote(0).expect("promote");
    let recovery_ms = t_promote.elapsed().as_secs_f64() * 1e3;
    eprintln!("cluster: leader kill at mid-stream -> follower promoted in {recovery_ms:.1} ms");

    // The full campaign: every kill must converge to the baseline bytes.
    let mut campaign_failures = 0u64;
    let mut campaign_digest = 0u64;
    if kills > 0 {
        let fcfg = FailoverConfig { kills, seed };
        let t_campaign = Instant::now();
        let report = run_failover(&scfg, &ccfg, &fcfg, &dirs, &batches).expect("campaign");
        eprintln!(
            "cluster: failover campaign ({kills} kills) in {:.2} s",
            t_campaign.elapsed().as_secs_f64()
        );
        campaign_failures = report.failures;
        campaign_digest = report.digest;
        println!(
            "cluster: failover campaign: {} kills, {} failures, {} mid-window",
            report.outcomes.len(),
            report.failures,
            report.mid_window_kills
        );
        println!("campaign digest: {:016x}", report.digest);
    }
    println!("digest: {:016x}", cluster.digest());

    let converged = digest_ok && rows_ok && tables_ok && replica_ok && campaign_failures == 0;
    if !converged {
        eprintln!("cluster: FAIL — sharded tier diverged from the single-node ground truth");
        std::process::exit(1);
    }

    let snap = cellrel_bench::BenchSnapshot::new("cluster")
        .config("devices", devices)
        .config("days", days)
        .config("seed", seed)
        .config("shards", shards)
        .config("batch", batch_cap)
        .config("rounds", rounds)
        .config("kills", kills)
        .metric("batches", batches.len() as f64)
        .metric("ingest_batches_per_sec", batches_per_sec)
        .metric("router_queries_per_sec", queries_per_sec)
        .metric("scatter_p50_us", scatter_p50 as f64)
        .metric("scatter_p99_us", scatter_p99 as f64)
        .metric("replication_frames", rep_frames as f64)
        .metric("follower_apply_ms", rep_apply_ms)
        .metric("follower_apply_p50_us", rep_p50 as f64)
        .metric("follower_apply_p99_us", rep_p99 as f64)
        .metric("failover_recovery_ms", recovery_ms)
        .metric("campaign_kills", kills as f64)
        .metric("campaign_failures", campaign_failures as f64)
        .metric(
            "campaign_digest_low32",
            (campaign_digest & 0xffff_ffff) as f64,
        )
        .wall_seconds(t0.elapsed().as_secs_f64());
    let path = snap.write().expect("write bench snapshot");
    eprintln!("cluster: wrote {}", path.display());
}
