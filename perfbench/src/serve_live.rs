//! `serve_live`: queryd on loopback TCP, one closed-loop client, live feed.
//!
//! Set-up preloads a daily-cadence upload stream but for its last 3,000
//! uploads (about a fifth), so every timed query sees a store of nearly
//! constant size. During the run one client runs the canonical mix over
//! TCP while a feed thread takes those last uploads, `FEED_PASSES` times
//! over from the preloaded state, through the collector into a `StoreSink`
//! and, at a fixed cadence, builds a snapshot (`seal_columnar`) and
//! publishes it (`QuerydCore::publish`) — the calls `feed_events` makes,
//! each record appended once. Outside the timed feed work, a second
//! collector rebuilds each first-pass publish's delta, which ships as an
//! `SG` segment in a `CR` frame to a standby `Follower`. After the run
//! the final snapshot is saved as a store image and the daemon restarted
//! from it. Store scans, the `CQ` wire path and snapshot build/publish do
//! the work; the stream layer does none.

use crate::arrival::{daily_uploads, Upload};
use crate::common::{
    apply_frame, canonical, fleet, result_digest, stream_config, us_since, Fleet, Gate, Inputs,
    Metrics, Reference, Run, Samples, TABLE2_K,
};
use crate::stats::samples_for;
use crate::trace::Tracer;
use cellrel::analysis::store_tables::{
    table1_from_results, table1_queries, table2_from_result, table2_query,
};
use cellrel::cluster::proto::{encode_frame, Message};
use cellrel::cluster::Follower;
use cellrel::ingest::{AcceptedSink, Collector, CollectorConfig};
use cellrel::queryd::proto::{decode_response, encode_request};
use cellrel::queryd::{serve, QuerydCore, Request, Response, TcpClient};
use cellrel::store::{restore_store, save_store, Query, ResultSet, Store, StoreConfig, StoreSink};
use cellrel::stream::{encode_segment, SegmentEntry, SegmentKind};
use cellrel::types::FailureEvent;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// About 6,500 phones' worth of records over two weeks.
const RECORDS: usize = 200_000;
const MAX_DEVICES: usize = 8_000;
const DAYS: u64 = 14;
const LATE_SHARE: f64 = 0.03;
/// Uploads fed during the run (the rest are preloaded in set-up): enough
/// for a p99 upload latency.
const LIVE_UPLOADS: usize = 3_000;
/// Times the feed replays the live uploads, each pass from the preloaded
/// state: one pass gives too few uploads for a steady p99 upload latency.
const FEED_PASSES: usize = 3;
/// Snapshots the feed publishes per pass.
const PUBLISHES: usize = 24;
/// Share of the run over which the feed's publishes are spread.
const FEED_SPAN: f64 = 0.8;
/// Daemon restarts timed after the run.
const RESTARTS: usize = 40;

pub struct Ctx<'f> {
    fleet: &'f Fleet,
    uploads: Vec<Upload>,
    reference: Reference,
    encode_s: f64,
    /// Uploads before this index are preloaded.
    split: usize,
    collector: Collector,
    sink: StoreSink<'f>,
    /// The preloaded snapshot the daemon starts with (epoch 0).
    base: Store,
    /// Result digests of the mix on `base`.
    base_answers: Vec<u64>,
    /// The preloaded records as the standby's first `CR` segment frame.
    base_frame: Vec<u8>,
    base_segment_bytes: u64,
}

pub fn fleets(seed: u64) -> Vec<Fleet> {
    vec![fleet(MAX_DEVICES, DAYS, RECORDS, seed)]
}

pub fn setup(fleets: &[Fleet], seed: u64) -> Ctx<'_> {
    let fleet = &fleets[0];
    let t = Instant::now();
    let uploads = daily_uploads(&fleet.events, seed, LATE_SHARE);
    let encode_s = t.elapsed().as_secs_f64();
    let reference = Reference::build(&fleet.dir, uploads.iter().map(|u| u.bytes.as_slice()));
    let split = uploads.len().saturating_sub(LIVE_UPLOADS);
    let mut collector = Collector::new(&CollectorConfig::default());
    let mut sink = StoreSink::new(&StoreConfig::default(), &fleet.dir);
    for u in &uploads[..split] {
        collector.ingest_with(&u.bytes, &mut sink);
    }
    let mut base = sink.clone().into_store();
    base.seal_columnar();
    let base_answers = canonical()
        .iter()
        .map(|(_, q)| result_digest(&base.query(q).expect("canonical queries are legal")))
        .collect();
    let segment = delta_segment(sink.store(), 0, collector.watermark_ms());
    let base_segment_bytes = segment.len() as u64;
    let base_frame = encode_frame(&Message::ShipSegment {
        seq: 1,
        frame: segment,
    });
    Ctx {
        fleet,
        uploads,
        reference,
        encode_s,
        split,
        collector,
        sink,
        base,
        base_answers,
        base_frame,
        base_segment_bytes,
    }
}

pub fn inputs<'a>(ctx: &'a Ctx<'_>) -> Inputs<'a> {
    let uploads = ctx.uploads.iter().map(|u| u.bytes.as_slice()).collect();
    let mut inputs = Inputs::of_parts(std::iter::once((ctx.fleet, uploads, &ctx.reference)));
    inputs.encode_s = ctx.encode_s;
    inputs
}

/// One published delta as an `SG` window segment.
fn delta_segment(delta: &Store, index: u64, watermark_ms: u64) -> Vec<u8> {
    let entry = SegmentEntry {
        kind: SegmentKind::Window,
        index,
        watermark_ms,
        records: delta.inserted(),
        digest: delta.digest(),
        bytes: 0,
    };
    encode_segment(&entry, delta)
}

/// The live sink, each append under its own span.
struct Traced<'s, 'f> {
    sink: &'s mut StoreSink<'f>,
    tr: &'s mut Tracer,
}

impl AcceptedSink for Traced<'_, '_> {
    fn accepted(&mut self, e: &FailureEvent) {
        let sink = &mut *self.sink;
        self.tr.span("store.sink_append", 0, || sink.accepted(e));
    }
}

struct ClientOut {
    latency_us: Vec<f64>,
    /// (epoch, query index, result digest) of every answer.
    answers: Vec<(u64, usize, u64)>,
    errors: u64,
    scanned: u64,
    matched: u64,
    tracer: Tracer,
}

/// The closed-loop client: the mix over one connection until `stop`.
fn client_loop(
    addr: SocketAddr,
    queries: &[(&'static str, Query)],
    stop: &AtomicBool,
    mut tr: Tracer,
) -> ClientOut {
    let mut out = ClientOut {
        latency_us: Vec::new(),
        answers: Vec::new(),
        errors: 0,
        scanned: 0,
        matched: 0,
        tracer: Tracer::new(false, Instant::now(), 1),
    };
    tr.group("phase.serve_live.client", 0);
    match tr.span("queryd.connect", 0, || TcpClient::connect(addr)) {
        Ok(mut c) => {
            let mut id = 0u64;
            'run: loop {
                for (qi, (_, q)) in queries.iter().enumerate() {
                    if stop.load(Ordering::Relaxed) && out.latency_us.len() >= samples_for(0.99) {
                        break 'run;
                    }
                    id += 1;
                    let t = Instant::now();
                    let r = tr.span("queryd.tcp_query", id, || c.query(q));
                    out.latency_us.push(us_since(t));
                    match r {
                        Ok((epoch, rs)) => {
                            out.scanned += rs.cells_scanned;
                            out.matched += rs.cells_matched;
                            let d = tr.span("bench.verify", id, || result_digest(&rs));
                            out.answers.push((epoch, qi, d));
                        }
                        Err(e) => {
                            out.errors += 1;
                            eprintln!("perfbench: query {id} failed: {e}");
                        }
                    }
                }
            }
        }
        Err(e) => {
            out.errors += 1;
            eprintln!("perfbench: client cannot connect: {e}");
        }
    }
    tr.exit();
    out.tracer = tr;
    out
}

pub fn run(ctx: &Ctx<'_>, budget: Duration, mut tr: Tracer) -> Run {
    let mut s = Samples::default();
    let mut gate = Gate::default();
    let queries = canonical();
    let dir = &ctx.fleet.dir;
    let tail = &ctx.uploads[ctx.split..];

    // Fresh daemon, feed and standby state from the preloaded set-up.
    tr.group("phase.serve_live.prepare", 0);
    let core = tr.span("queryd.start", 0, || QuerydCore::new(ctx.base.clone()));
    let server = tr
        .span("queryd.serve", 0, || serve(core.clone(), "127.0.0.1:0"))
        .expect("bind a loopback port");
    let addr = server.addr();
    // Accepts what `collector` accepts, to rebuild each publish's delta.
    let mut shadow = tr.span("bench.standby_delta", 0, || ctx.collector.clone());
    let mut standby = tr.span("cluster.follower_new", 0, || {
        Follower::new(&stream_config(), dir, 0)
    });
    apply_frame(&mut standby, 0, &ctx.base_frame, 0, &mut tr, &mut gate);
    tr.exit();
    let mut shipped = 1u64;
    let mut replication_bytes = ctx.base_frame.len() as u64;
    let mut segment_bytes = ctx.base_segment_bytes;
    // Epoch → result digest of each query on the snapshot published then.
    let mut expected: BTreeMap<u64, Vec<u64>> = BTreeMap::from([(0, ctx.base_answers.clone())]);
    let mut handle_mismatches = 0u64;

    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let client_tr = tr.fork(1);
    let client = std::thread::scope(|sc| {
        let client = sc.spawn(|| client_loop(addr, &queries, &stop, client_tr));
        tr.group("phase.serve_live.feed", 0);
        let per_publish = tail.len().div_ceil(PUBLISHES);
        let mut k = 0u64;
        for pass in 0..FEED_PASSES {
            let mut collector = tr.span("ingest.clone", 0, || ctx.collector.clone());
            let mut sink = tr.span("store.clone", 0, || ctx.sink.clone());
            for (c, chunk) in tail.chunks(per_publish).enumerate() {
                k += 1;
                let mut busy_us = 0.0;
                let offers_before = s.offer.len();
                for (j, up) in chunk.iter().enumerate() {
                    let id = (ctx.split + c * per_publish + j) as u64;
                    let t = Instant::now();
                    tr.enter("ingest.collector", id);
                    let mut live = Traced {
                        sink: &mut sink,
                        tr: &mut tr,
                    };
                    collector.ingest_with(&up.bytes, &mut live);
                    tr.exit();
                    let us = us_since(t);
                    busy_us += us;
                    s.offer.push(us);
                }
                s.offer.end_unit(0, offers_before);
                let t = Instant::now();
                let snap = tr.span("store.snapshot_build", k, || {
                    let mut snap = sink.clone().into_store();
                    snap.seal_columnar();
                    snap
                });
                let epoch = tr.span("queryd.publish", k, || core.publish(snap));
                busy_us += us_since(t);
                let records: usize = chunk.iter().map(|u| u.records).sum();
                s.ingest_rate.push((0, records as f64 / (busy_us / 1e6)));

                // Ship the first pass's deltas to the standby, untimed.
                if pass == 0 {
                    let delta = tr.span("bench.standby_delta", k, || {
                        let mut delta = StoreSink::new(&StoreConfig::default(), dir);
                        for up in chunk {
                            shadow.ingest_with(&up.bytes, &mut delta);
                        }
                        delta.into_store()
                    });
                    tr.group("cluster.ship", k);
                    let segment = tr.span("stream.segment_encode", k, || {
                        delta_segment(&delta, k, collector.watermark_ms())
                    });
                    segment_bytes += segment.len() as u64;
                    shipped += 1;
                    let frame = tr.span("cluster.encode_frame", k, || {
                        encode_frame(&Message::ShipSegment {
                            seq: shipped,
                            frame: segment,
                        })
                    });
                    replication_bytes += frame.len() as u64;
                    apply_frame(&mut standby, 0, &frame, k, &mut tr, &mut gate);
                    tr.exit();
                }

                // The answers this epoch must give, from `Store::query` on the
                // published snapshot, and the in-process `CQ` path beside it.
                tr.enter("bench.verify", k);
                let current = core.snapshot();
                let mut digests = Vec::with_capacity(queries.len());
                for (name, q) in &queries {
                    let local = tr.span("store.query", k, || current.store.query(q));
                    let frame = encode_request(&Request::Query(q.clone()));
                    let reply = tr.span("queryd.handle_frame", k, || core.handle_frame(&frame));
                    let local = local.expect("canonical queries are legal");
                    match decode_response(&reply) {
                        Ok(Response::Rows { result, .. }) if result == local => {}
                        other => {
                            handle_mismatches += 1;
                            eprintln!("perfbench: handle_frame {name} gave {other:?}");
                        }
                    }
                    digests.push(result_digest(&local));
                }
                expected.insert(epoch, digests);
                tr.exit();

                let share = k as f64 / (FEED_PASSES * PUBLISHES) as f64;
                let wait = budget
                    .mul_f64(FEED_SPAN * share)
                    .saturating_sub(t0.elapsed());
                tr.span("bench.idle", k, || std::thread::sleep(wait));
            }
        }
        // The client runs on to the end of the budget.
        tr.span("bench.idle", 0, || {
            std::thread::sleep(budget.saturating_sub(t0.elapsed()))
        });
        stop.store(true, Ordering::Relaxed);
        tr.exit();
        client.join().expect("client thread panicked")
    });
    let client_answers = client.answers.len();
    tr.absorb(client.tracer);

    // Every answer equals `Store::query` on the snapshot that served it.
    tr.group("phase.serve_live.check", 0);
    tr.enter("bench.verify", 0);
    let mut wrong = 0u64;
    for &(epoch, qi, d) in &client.answers {
        if expected.get(&epoch).map(|e| e[qi]) != Some(d) {
            wrong += 1;
        }
    }
    gate.attempted += client_answers as u64 + client.errors;
    gate.failed += wrong + client.errors;
    if wrong > 0 {
        eprintln!("perfbench: MISMATCH: {wrong} served answers differ from Store::query");
    }
    gate.check(handle_mismatches == 0, || {
        format!("{handle_mismatches} in-process answers differ from Store::query")
    });
    let r = &ctx.reference;
    let final_digest = core.snapshot().store.digest();
    gate.check(final_digest == r.digest, || {
        format!(
            "served digest {final_digest:016x} != batch {:016x}",
            r.digest
        )
    });
    let last = expected.values().next_back().expect("epoch 0 is known");
    let want: Vec<u64> = r.answers.iter().map(result_digest).collect();
    gate.check(*last == want, || {
        "final snapshot answers differ from batch".into()
    });
    let standby_digest = standby.sealed_store().digest();
    gate.check(standby_digest == r.digest, || {
        format!(
            "standby digest {standby_digest:016x} != batch {:016x}",
            r.digest
        )
    });
    check_tables(addr, r, &mut gate);
    tr.exit();
    let m = core.metrics();
    let (wire_errors, query_rejects) = (m.wire_errors(), m.query_rejects());
    tr.span("queryd.shutdown", 0, || server.shutdown());
    tr.exit();

    let records = ctx.fleet.events.len() as f64;
    s.segment_bytes_per_record = segment_bytes as f64 / records;
    s.replication_bytes_per_record = replication_bytes as f64 / records;
    tr.group("phase.serve_live.recover", 0);
    let final_store = core.snapshot();
    let image = tr.span("store.save", 0, || save_store(&final_store.store));
    s.checkpoint_bytes_per_record = image.len() as f64 / records;
    restart(
        &image,
        &queries[0].1,
        &r.answers[0],
        &mut s,
        &mut tr,
        &mut gate,
    );
    tr.exit();

    let layer = Metrics::from([
        ("queryd.publishes", (expected.len() - 1) as f64),
        ("queryd.wire_errors", wire_errors as f64),
        ("queryd.query_rejects", query_rejects as f64),
        ("cluster.segment_frames", shipped as f64),
        ("cluster.segment_bytes", replication_bytes as f64),
        (
            "store.cells_scanned_per_query",
            client.scanned as f64 / client_answers.max(1) as f64,
        ),
        (
            "store.match_ratio",
            client.matched as f64 / client.scanned.max(1) as f64,
        ),
    ]);
    let delayed: usize = ctx
        .uploads
        .iter()
        .filter(|u| u.delayed)
        .map(|u| u.records)
        .sum();
    s.query.us = client.latency_us;
    // One unit per whole pass over the mix.
    let pass = queries.len();
    for k in 0..s.query.len() / pass {
        s.query.units.push((0, k * pass..(k + 1) * pass));
    }
    Run {
        unit_s: s.query.us.iter().map(|us| us / 1e6).collect(),
        samples: s,
        layer,
        tracer: tr,
        digests: vec![final_digest],
        gate,
        late_share: delayed as f64 / records,
    }
}

/// Tables 1 and 2 served over TCP must render as the batch ones do.
fn check_tables(addr: SocketAddr, r: &Reference, gate: &mut Gate) {
    let fetch = || -> Result<(String, String), String> {
        let mut c = TcpClient::connect(addr).map_err(|e| e.to_string())?;
        let mut ask = |q: &Query| -> Result<ResultSet, String> {
            c.query(q).map(|(_, rs)| rs).map_err(|e| e.to_string())
        };
        let [q0, q1, q2] = table1_queries();
        let t1 = table1_from_results(&[ask(&q0)?, ask(&q1)?, ask(&q2)?]);
        let t2 = table2_from_result(&ask(&table2_query())?, TABLE2_K);
        Ok((t1.render(), t2.render()))
    };
    match fetch() {
        Ok((t1, t2)) => {
            gate.check(t1 == r.table1, || {
                "served table 1 differs from batch".into()
            });
            gate.check(t2 == r.table2, || {
                "served table 2 differs from batch".into()
            });
        }
        Err(e) => {
            gate.check(false, || format!("served tables failed: {e}"));
        }
    }
}

/// Crash recovery: a fresh daemon from the saved image, timed until it
/// has answered its first query over TCP.
fn restart(
    image: &[u8],
    q: &Query,
    want: &ResultSet,
    s: &mut Samples,
    tr: &mut Tracer,
    gate: &mut Gate,
) {
    for i in 0..RESTARTS as u64 {
        let t = Instant::now();
        tr.group("queryd.restart", i);
        let store = tr.span("store.restore", i, || restore_store(image));
        let served = store.map_err(|e| e.to_string()).and_then(|store| {
            let core = tr.span("queryd.start", i, || QuerydCore::new(store));
            let server = tr
                .span("queryd.serve", i, || serve(core, "127.0.0.1:0"))
                .map_err(|e| e.to_string())?;
            let answer = tr
                .span("queryd.connect", i, || TcpClient::connect(server.addr()))
                .map_err(|e| e.to_string())
                .and_then(|mut c| {
                    tr.span("queryd.tcp_query", i, || c.query(q))
                        .map_err(|e| e.to_string())
                });
            Ok((server, answer))
        });
        tr.exit();
        s.recovery_ms.push((0, us_since(t) / 1e3));
        match served {
            Ok((server, answer)) => {
                gate.check(answer.as_ref().map(|a| &a.1) == Ok(want), || {
                    format!("restarted daemon answered {answer:?}")
                });
                tr.span("queryd.shutdown", i, || server.shutdown());
            }
            Err(e) => {
                gate.check(false, || format!("restart failed: {e}"));
            }
        }
    }
}
