//! Pieces every workload shares: the fleet, the one-shot batch reference
//! its outputs are checked against, the correctness gate, and the sample
//! sets the end-to-end metrics are computed from.

use crate::stats::{median, percentile, quantile};
use crate::trace::Tracer;
use cellrel::analysis::store_tables::{table1_from_store, table2_from_store};
use cellrel::cluster::{proto, Follower};
use cellrel::ingest::{Collector, CollectorConfig};
use cellrel::sim::Digest64;
use cellrel::store::{workload, DeviceDirectory, Query, ResultSet, Store, StoreConfig, StoreSink};
use cellrel::stream::StreamConfig;
use cellrel::types::FailureEvent;
use cellrel::workload::{run_macro_study, PopulationConfig, StudyConfig};
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

/// Table 2's top-k in every table check.
pub const TABLE2_K: usize = 10;

/// Metric name → value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// A generated fleet. A workload's context borrows the fleets it was set
/// up from, since the pipelines, leaders and sinks it builds borrow the
/// device directory.
pub struct Fleet {
    /// Lists devices `0..devices`.
    pub dir: DeviceDirectory,
    pub devices: u32,
    pub events: Vec<FailureEvent>,
    pub fleet_s: f64,
}

/// Simulate up to `devices` phones over `days` days and keep the devices
/// `0..k` for the smallest `k` whose histories hold at least `records`
/// failure records. Failure counts per device are heavy-tailed, so a fixed
/// device count gives fleets whose record count (and with it every cost
/// and byte count per record) swings by a quarter between seeds; a fixed
/// record count compares like with like. Whole device histories are kept.
pub fn fleet(devices: usize, days: u64, records: usize, seed: u64) -> Fleet {
    let t = Instant::now();
    let data = run_macro_study(&StudyConfig {
        population: PopulationConfig {
            devices,
            ..Default::default()
        },
        days,
        bs_count: 1_000,
        seed,
    });
    let mut per_device = vec![0usize; devices];
    for e in &data.events {
        per_device[e.device.0 as usize] += 1;
    }
    let mut kept = 0;
    let cutoff = per_device
        .iter()
        .position(|&n| {
            kept += n;
            kept >= records
        })
        .map_or(devices, |d| d + 1) as u32;
    let dir = DeviceDirectory::from_population(&data.population).filtered(|d| d.0 < cutoff);
    let events = data
        .events
        .into_iter()
        .filter(|e| e.device.0 < cutoff)
        .collect();
    Fleet {
        dir,
        devices: cutoff,
        events,
        fleet_s: t.elapsed().as_secs_f64(),
    }
}

/// Seed of part `i` of a run's input. A run that processes several
/// independent fleets averages over their heavy tails, which one fleet of
/// the same cost would not do as well for work that grows faster than the
/// fleet.
pub fn part_seed(seed: u64, part: usize) -> u64 {
    let mut d = Digest64::new();
    d.write_u64(seed);
    d.write_u64(part as u64);
    d.finish()
}

/// What a run's fingerprint line reports about its generated input.
pub struct Inputs<'a> {
    pub uploads: Vec<&'a [u8]>,
    pub records: usize,
    pub fleet_s: f64,
    pub encode_s: f64,
    pub store_cells: u64,
    pub batch_digest: u64,
}

impl<'a> Inputs<'a> {
    /// The inputs of several independent parts, in part order.
    pub fn of_parts(
        parts: impl Iterator<Item = (&'a Fleet, Vec<&'a [u8]>, &'a Reference)>,
    ) -> Self {
        let mut all = Inputs {
            uploads: Vec::new(),
            records: 0,
            fleet_s: 0.0,
            encode_s: 0.0,
            store_cells: 0,
            batch_digest: 0,
        };
        let mut d = Digest64::new();
        for (fleet, uploads, reference) in parts {
            all.uploads.extend(uploads);
            all.records += fleet.events.len();
            all.fleet_s += fleet.fleet_s;
            all.store_cells += reference.store.cells();
            d.write_u64(reference.digest);
        }
        all.batch_digest = d.finish();
        all
    }
}

/// Daily windows, a 2 h lateness bound, the `stream` bin's tiering.
pub fn stream_config() -> StreamConfig {
    StreamConfig {
        window_ms: 86_400_000,
        lateness_ms: 2 * 3_600_000,
        hot_windows: 3,
        late_flush: 512,
        collector: CollectorConfig::default(),
        store: StoreConfig::default(),
    }
}

/// The canonical 11-query mix at the default store's rollup granularity.
pub fn canonical() -> Vec<(&'static str, Query)> {
    let cfg = StoreConfig::default();
    workload::canonical(u64::from(cfg.rollup_buckets) * cfg.bucket_ms)
}

/// The one-shot batch reference: every upload through one collector into
/// one `StoreSink`, no windows, shards or snapshots in between.
pub struct Reference {
    pub store: Store,
    pub digest: u64,
    pub table1: String,
    pub table2: String,
    /// `Store::query` of each canonical query, in mix order.
    pub answers: Vec<ResultSet>,
}

impl Reference {
    pub fn build<'u>(dir: &DeviceDirectory, uploads: impl Iterator<Item = &'u [u8]>) -> Self {
        let mut collector = Collector::new(&CollectorConfig::default());
        let mut sink = StoreSink::new(&StoreConfig::default(), dir);
        for u in uploads {
            collector.ingest_with(u, &mut sink);
        }
        let mut store = sink.into_store();
        store.seal_columnar();
        Self::of(store)
    }

    /// The reference answers of an already built store.
    pub fn of(store: Store) -> Self {
        let answers = canonical()
            .iter()
            .map(|(_, q)| store.query(q).expect("canonical queries are legal"))
            .collect();
        Reference {
            digest: store.digest(),
            table1: table1_from_store(&store).expect("valid").render(),
            table2: table2_from_store(&store, TABLE2_K).expect("valid").render(),
            answers,
            store,
        }
    }
}

/// Digest of a whole result set: rows, labels, values and scan counts, so
/// two answers with equal digests are byte-identical for every purpose a
/// client has.
pub fn result_digest(rs: &ResultSet) -> u64 {
    let mut d = Digest64::new();
    d.write_bytes(format!("{:?}|{:?}", rs.group_by, rs.metric).as_bytes());
    for r in &rs.rows {
        for &k in &r.key {
            d.write_u64(k);
        }
        for l in &r.labels {
            d.write_bytes(l.as_bytes());
        }
        d.write_u64(r.value.to_bits());
        d.write_u64(r.count);
    }
    d.write_u64(rs.cells_scanned);
    d.write_u64(rs.cells_matched);
    d.finish()
}

/// Fingerprint of a run's generated inputs: every upload's bytes in
/// order, then the query list.
pub fn input_digest<'u>(uploads: impl Iterator<Item = &'u [u8]>) -> u64 {
    let mut d = Digest64::new();
    for u in uploads {
        d.write_u64(u.len() as u64);
        d.write_bytes(u);
    }
    for (name, q) in canonical() {
        d.write_bytes(format!("{name}={q:?}").as_bytes());
    }
    d.finish()
}

/// Counts attempted and failed operations; every output check is one
/// operation, and a mismatch is a failure reported on stderr.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
}

impl Gate {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: MISMATCH: {}", what());
        }
        ok
    }
}

/// Per-request latencies, in the units of work that measured them.
#[derive(Debug, Default)]
pub struct Latencies {
    /// µs per request, in the order measured.
    pub us: Vec<f64>,
    /// (group, span of `us`) of each unit: an iteration's uploads (a
    /// publish's in `serve_live`), or one pass over the query mix. Units
    /// of one group do the same work: the same fleet part, and in
    /// `stream_daily` the same pass of its stream.
    pub units: Vec<(usize, Range<usize>)>,
}

impl Latencies {
    pub fn push(&mut self, us: f64) {
        self.us.push(us);
    }

    pub fn len(&self) -> usize {
        self.us.len()
    }

    /// Close the unit of `group` whose first request is `us[from]`.
    pub fn end_unit(&mut self, group: usize, from: usize) {
        self.units.push((group, from..self.us.len()));
    }

    /// `f` of each unit's latencies, by group.
    fn per_unit(&self, f: fn(&[f64]) -> f64) -> Vec<(usize, f64)> {
        self.units
            .iter()
            .map(|(group, span)| (*group, f(&self.us[span.clone()])))
            .collect()
    }

    /// The median request: each unit's median, at quantile `quiet` of
    /// each group's units, averaged over groups.
    fn p50(&self, quiet: f64) -> f64 {
        per_part(&self.per_unit(median), quiet)
    }

    /// Requests per second of a closed loop: each unit's count over its
    /// summed latency, at quantile `1 - quiet` of each group's units,
    /// averaged over groups.
    fn rate(&self, quiet: f64) -> f64 {
        per_part(
            &self.per_unit(|us| us.len() as f64 / (us.iter().sum::<f64>() / 1e6)),
            1.0 - quiet,
        )
    }

    /// Pooled nearest-rank percentile `q`.
    fn pct(&self, q: f64) -> f64 {
        percentile(&self.us, q)
            .unwrap_or_else(|| panic!("too few samples ({}) for p{q}", self.us.len()))
    }
}

/// Samples behind the end-to-end metrics, pooled over a run's iterations.
#[derive(Debug, Default)]
pub struct Samples {
    /// (part, records per second of ingest busy time), one per iteration.
    pub ingest_rate: Vec<(usize, f64)>,
    /// Each upload until acked.
    pub offer: Latencies,
    /// (part, ms from crash to serving again).
    pub recovery_ms: Vec<(usize, f64)>,
    /// Each query, client side.
    pub query: Latencies,
    /// Exact byte counts per input record, from the first iteration.
    pub checkpoint_bytes_per_record: f64,
    pub replication_bytes_per_record: f64,
    pub segment_bytes_per_record: f64,
}

impl Samples {
    /// The end-to-end metrics (all but `setup_s` and `peak_rss_mb`).
    ///
    /// The host's speed flips while other tenants run: memory-bound work
    /// such as a store scan runs up to twice as slow in stretches of tens
    /// of milliseconds, and the share of slow time shifts over minutes,
    /// while an ALU loop moves by a tenth. So repeated identical units of
    /// work come out bimodal and a pooled median lands in either mode.
    /// Per-unit figures — ingest rate per iteration, recovery time per
    /// crash, median upload latency per iteration, median latency and
    /// rate per pass over the query mix — are therefore taken at a
    /// quantile on the undisturbed side of each group's units, then
    /// averaged over the groups (which do different work). The p99s need
    /// more samples than a unit holds and stay pooled.
    pub fn metrics(&self) -> Metrics {
        // A few iterations per part: their lower quartile.
        const ITERATION_Q: f64 = 0.25;
        // A pass over the mix takes about a millisecond and a group has
        // about a hundred, so a lower quantile still rests on several and
        // keeps clear of runs that are mostly slow.
        const PASS_Q: f64 = 0.1;
        Metrics::from([
            (
                "ingest_records_per_s",
                per_part(&self.ingest_rate, 1.0 - ITERATION_Q),
            ),
            ("ingest_offer_p50_us", self.offer.p50(ITERATION_Q)),
            ("ingest_offer_p99_us", self.offer.pct(0.99)),
            ("recovery_ms", per_part(&self.recovery_ms, ITERATION_Q)),
            (
                "checkpoint_bytes_per_record",
                self.checkpoint_bytes_per_record,
            ),
            (
                "replication_bytes_per_record",
                self.replication_bytes_per_record,
            ),
            ("segment_bytes_per_record", self.segment_bytes_per_record),
            ("query_qps", self.query.rate(PASS_Q)),
            ("query_p50_us", self.query.p50(PASS_Q)),
            ("query_p99_us", self.query.pct(0.99)),
        ])
    }
}

/// Mean over groups of like units (a fleet part, or finer) of each
/// group's quantile `q`.
fn per_part(samples: &[(usize, f64)], q: f64) -> f64 {
    let mut parts: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(part, v) in samples {
        parts.entry(part).or_default().push(v);
    }
    parts.values().map(|v| quantile(v, q)).sum::<f64>() / parts.len() as f64
}

/// What one measured phase of a workload hands back.
pub struct Run {
    pub samples: Samples,
    /// Per-layer counts and byte totals (timings come from the spans).
    pub layer: Metrics,
    pub tracer: Tracer,
    /// Wall seconds of each repeated unit of work, for the trace overhead.
    pub unit_s: Vec<f64>,
    /// Final store digest of each iteration.
    pub digests: Vec<u64>,
    pub gate: Gate,
    /// Share of records that took the late lane (or, without a stream
    /// layer, that arrived in delayed uploads).
    pub late_share: f64,
}

/// Microseconds elapsed since `t`.
pub fn us_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

/// Deliver one `CR` frame to a follower and check its ack, under a span
/// named for the frame kind. Returns whether the follower acked.
pub fn apply_frame(
    follower: &mut Follower,
    shard: usize,
    frame: &[u8],
    id: u64,
    tr: &mut Tracer,
    gate: &mut Gate,
) -> bool {
    let name = if frame.get(3) == Some(&proto::KIND_CHECKPOINT) {
        "cluster.follower_apply_checkpoint"
    } else {
        "cluster.follower_apply_segment"
    };
    let reply = tr.span(name, id, || follower.apply(frame));
    let ack = tr.span("cluster.expect_ack", id, || {
        proto::expect_ack(shard, &reply)
    });
    gate.check(ack.is_ok(), || {
        format!("shard {shard} follower refused a frame: {ack:?}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_figures_take_the_undisturbed_quartile_of_each_part() {
        let mut l = Latencies::default();
        // Part 0: four units with medians 10, 40, 20, 30 µs; part 1: one
        // unit with median 100 µs.
        for (part, unit) in [
            (0, [9.0, 10.0, 11.0]),
            (0, [40.0, 40.0, 40.0]),
            (1, [100.0, 100.0, 100.0]),
            (0, [20.0, 20.0, 20.0]),
            (0, [30.0, 30.0, 30.0]),
        ] {
            let from = l.len();
            unit.iter().for_each(|&us| l.push(us));
            l.end_unit(part, from);
        }
        assert_eq!(l.p50(0.25), (10.0 + 100.0) / 2.0);
        // Part 0's units take 30, 120, 60 and 90 µs for 3 requests; the
        // upper quartile of their rates is 3 per 60 µs.
        let rate = (3.0 / 60e-6 + 3.0 / 300e-6) / 2.0;
        assert!((l.rate(0.25) - rate).abs() < 1e-6 * rate);
    }
}
