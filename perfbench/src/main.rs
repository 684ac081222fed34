//! `perfbench` — the repository's end-to-end pipeline benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cluster_dump --seed 2021 --seconds 50 --trace 0
//! ```
//!
//! One run generates a fleet and its uploads from `--seed` (three times,
//! the set-up time reported as their median), then measures one workload
//! for `--seconds`, checking every output against the one-shot batch
//! reference (collector + `StoreSink`). `--trace 0` prints the end-to-end
//! metrics; `--trace 1` measures half the time untraced and half traced,
//! prints the per-layer metrics and writes a Chrome trace to
//! `perfbench/out/`. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Any mismatch is a failed operation and the exit code is then 1.

// Wall-clock time is what this program measures.
#![allow(clippy::disallowed_types)]

mod arrival;
mod cluster_dump;
mod common;
mod serve_live;
mod stats;
mod stream_daily;
mod trace;

use common::{input_digest, Fleet, Gate, Inputs, Metrics, Run};
use stats::{median, peak_rss_mb, percentile, reset_peak_rss};
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Largest share of a traced phase's wall time (less its `bench.*` spans)
/// that the self times of its calls may leave unaccounted: the time the
/// benchmark spends between calls.
const TRACE_TOLERANCE: f64 = 0.05;
/// Spans written to a Chrome trace file at most.
const MAX_TRACE_SPANS: usize = 250_000;

/// End-to-end metrics and their units, as in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("ingest_records_per_s", "records/s"),
    ("ingest_offer_p50_us", "us"),
    ("ingest_offer_p99_us", "us"),
    ("recovery_ms", "ms"),
    ("checkpoint_bytes_per_record", "B"),
    ("replication_bytes_per_record", "B"),
    ("segment_bytes_per_record", "B"),
    ("query_qps", "queries/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and their units, as in `BENCHMARK.json`. A metric a
/// workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 42] = [
    ("workload.fleet_s", "s"),
    ("ingest.encode_s", "s"),
    ("ingest.wire_bytes_per_record", "B"),
    ("stream.offer_s", "s"),
    ("stream.plain_offer_p50_us", "us"),
    ("stream.seal_offer_p90_us", "us"),
    ("stream.late_share", "ratio"),
    ("stream.late_segments", "count"),
    ("stream.base_folds", "count"),
    ("stream.checkpoint_s", "s"),
    ("stream.checkpoints", "count"),
    ("stream.checkpoint_bytes_mean", "B"),
    ("stream.restore_ms", "ms"),
    ("stream.restore_segments", "count"),
    ("store.query_p50_us", "us"),
    ("store.cells_scanned_per_query", "count"),
    ("store.match_ratio", "ratio"),
    ("store.sink_append_s", "s"),
    ("store.snapshot_build_ms", "ms"),
    ("queryd.handle_p50_us", "us"),
    ("queryd.publish_us", "us"),
    ("queryd.publishes", "count"),
    ("queryd.wire_errors", "count"),
    ("queryd.query_rejects", "count"),
    ("cluster.shard_skew", "ratio"),
    ("cluster.leader_offer_s", "s"),
    ("cluster.segment_frames", "count"),
    ("cluster.segment_bytes", "B"),
    ("cluster.checkpoint_frames", "count"),
    ("cluster.checkpoint_bytes", "B"),
    ("cluster.follower_apply_s", "s"),
    ("cluster.follower_apply_segment_p50_us", "us"),
    ("cluster.follower_apply_checkpoint_p50_us", "us"),
    ("cluster.follower_apply_p99_us", "us"),
    ("cluster.ack_failures", "count"),
    ("cluster.promote_ms", "ms"),
    ("cluster.shard_handle_p50_us", "us"),
    ("cluster.partial_frame_bytes", "B"),
    ("cluster.gather_merge_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
    ("error_rate", "ratio"),
];

/// A benchmark workload: set-up from a seed, then a measured phase.
trait Workload {
    const NAME: &'static str;
    /// The set-up's output; it borrows the fleets it was built from.
    type Ctx<'f>;
    /// Simulate the fleets of a run's input.
    fn fleets(seed: u64) -> Vec<Fleet>;
    /// Encode the fleets' uploads and build what the run measures against.
    fn setup(fleets: &[Fleet], seed: u64) -> Self::Ctx<'_>;
    fn run(ctx: &Self::Ctx<'_>, budget: Duration, tr: Tracer) -> Run;
    fn inputs<'a>(ctx: &'a Self::Ctx<'_>) -> Inputs<'a>;
}

struct StreamDaily;
struct ClusterDump;
struct ServeLive;

macro_rules! workload {
    ($t:ty, $name:literal, $m:ident) => {
        impl Workload for $t {
            const NAME: &'static str = $name;
            type Ctx<'f> = $m::Ctx<'f>;
            fn fleets(seed: u64) -> Vec<Fleet> {
                $m::fleets(seed)
            }
            fn setup(fleets: &[Fleet], seed: u64) -> Self::Ctx<'_> {
                $m::setup(fleets, seed)
            }
            fn run(ctx: &Self::Ctx<'_>, budget: Duration, tr: Tracer) -> Run {
                $m::run(ctx, budget, tr)
            }
            fn inputs<'a>(ctx: &'a Self::Ctx<'_>) -> Inputs<'a> {
                $m::inputs(ctx)
            }
        }
    };
}

workload!(StreamDaily, "stream_daily", stream_daily);
workload!(ClusterDump, "cluster_dump", cluster_dump);
workload!(ServeLive, "serve_live", serve_live);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut a = Args {
            workload: String::new(),
            seed: 2021,
            seconds: 10,
            trace: false,
        };
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |_| format!("{flag}: bad value {value:?}");
            match flag.as_str() {
                "--workload" => a.workload = value.clone(),
                "--seed" => a.seed = value.parse().map_err(bad)?,
                "--seconds" => a.seconds = value.parse().map_err(bad)?,
                "--trace" => {
                    a.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace: expected 0 or 1, got {value:?}")),
                    }
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        if a.seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(a)
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload stream_daily|cluster_dump|serve_live \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    let code = match args.workload.as_str() {
        "stream_daily" => drive::<StreamDaily>(&args),
        "cluster_dump" => drive::<ClusterDump>(&args),
        "serve_live" => drive::<ServeLive>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            2
        }
    };
    std::process::exit(code);
}

/// The figures recorded from each set-up repetition.
#[derive(Default)]
struct Setups {
    setup_s: Vec<f64>,
    fleet_s: Vec<f64>,
    encode_s: Vec<f64>,
    fingerprints: Vec<u64>,
}

impl Setups {
    fn record(&mut self, setup_s: f64, inputs: Inputs<'_>) {
        self.setup_s.push(setup_s);
        self.fleet_s.push(inputs.fleet_s);
        self.encode_s.push(inputs.encode_s);
        self.fingerprints
            .push(input_digest(inputs.uploads.into_iter()));
    }
}

fn drive<W: Workload>(a: &Args) -> i32 {
    let mut gate = Gate::default();
    let mut setups = Setups::default();
    // All set-ups but the last are timed and dropped; the run uses the last.
    for _ in 1..SETUPS {
        let t = Instant::now();
        let fleets = W::fleets(a.seed);
        let ctx = W::setup(&fleets, a.seed);
        setups.record(t.elapsed().as_secs_f64(), W::inputs(&ctx));
    }
    let t = Instant::now();
    let fleets = W::fleets(a.seed);
    let ctx = W::setup(&fleets, a.seed);
    setups.record(t.elapsed().as_secs_f64(), W::inputs(&ctx));
    let fingerprints = &setups.fingerprints;
    gate.check(fingerprints.windows(2).all(|w| w[0] == w[1]), || {
        format!("set-ups from one seed generated different inputs: {fingerprints:x?}")
    });
    // Peak memory counts what the measured phase adds to the set-up's.
    let setup_rss_mb = reset_peak_rss();

    let budget = Duration::from_secs(a.seconds);
    let origin = Instant::now();
    let (mut metrics, table, run) = if a.trace {
        // Half the time untraced, half traced: the difference is the
        // tracing overhead, and both must reach the same digests.
        let plain = W::run(&ctx, budget / 2, Tracer::new(false, origin, 0));
        let traced = W::run(&ctx, budget / 2, Tracer::new(true, origin, 0));
        gate.attempted += plain.gate.attempted + plain.samples.offer.len() as u64;
        gate.failed += plain.gate.failed;
        // Both halves start at the same fleet and cycle in the same order.
        gate.check(
            plain
                .digests
                .iter()
                .zip(&traced.digests)
                .all(|(a, b)| a == b),
            || "traced and untraced runs reached different digests".into(),
        );
        let mut m = layer_metrics::<W>(&ctx, &traced, &setups, &mut gate);
        let (base, with) = (median(&plain.unit_s), median(&traced.unit_s));
        m.insert("trace.overhead_pct", (with - base) / base * 100.0);
        write_trace(W::NAME, a.seed, traced.tracer.spans());
        (m, &PER_LAYER[..], traced)
    } else {
        let run = W::run(&ctx, budget, Tracer::new(false, origin, 0));
        let mut m = run.samples.metrics();
        m.insert("setup_s", median(&setups.setup_s));
        m.insert("peak_rss_mb", peak_rss_mb() - setup_rss_mb);
        (m, &END_TO_END[..], run)
    };
    gate.attempted += run.gate.attempted + run.samples.offer.len() as u64;
    gate.failed += run.gate.failed;
    if a.trace {
        metrics.insert("error_rate", gate.failed as f64 / gate.attempted as f64);
    }

    let inputs = W::inputs(&ctx);
    println!(
        "input: workload={} seed={} digest={:016x} uploads={} records={} late_share={:.4} \
         store_cells={} batch_digest={:016x}",
        W::NAME,
        a.seed,
        fingerprints[0],
        inputs.uploads.len(),
        inputs.records,
        run.late_share,
        inputs.store_cells,
        inputs.batch_digest,
    );
    for (name, unit) in table {
        println!(
            "metric: {name} = {} {unit}",
            metrics.get(name).copied().unwrap_or(0.0)
        );
    }
    println!(
        "gate: attempted={} failed={} error_rate={}",
        gate.attempted,
        gate.failed,
        gate.failed as f64 / gate.attempted.max(1) as f64
    );
    println!("{}", result_json(&gate, &metrics, table));
    i32::from(gate.failed > 0)
}

/// Per-layer metrics of a traced phase: counts the workload reported,
/// span self times and durations, and the trace consistency check.
fn layer_metrics<W: Workload>(
    ctx: &W::Ctx<'_>,
    run: &Run,
    setups: &Setups,
    gate: &mut Gate,
) -> Metrics {
    let spans = run.tracer.spans();
    let layers = trace::by_name(spans);
    let units = run.digests.len() as f64;
    let self_s = |names: &[&str]| {
        names
            .iter()
            .filter_map(|n| layers.get(n))
            .fold(0.0, |sum, l| sum + l.self_ns as f64 / 1e9)
            / units
    };
    let durations_us = |names: &[&str]| -> Vec<f64> {
        names
            .iter()
            .filter_map(|n| layers.get(n))
            .flat_map(|l| l.durations_ns.iter().map(|&d| d as f64 / 1e3))
            .collect()
    };
    let median_us = |name: &str| {
        let d = durations_us(&[name]);
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    };
    const APPLY: [&str; 2] = [
        "cluster.follower_apply_segment",
        "cluster.follower_apply_checkpoint",
    ];
    let inputs = W::inputs(ctx);
    let wire_bytes: usize = inputs.uploads.iter().map(|u| u.len()).sum();
    let mut m = run.layer.clone();
    m.extend([
        ("workload.fleet_s", median(&setups.fleet_s)),
        ("ingest.encode_s", median(&setups.encode_s)),
        (
            "ingest.wire_bytes_per_record",
            wire_bytes as f64 / inputs.records as f64,
        ),
        ("stream.offer_s", self_s(&["stream.offer"])),
        ("stream.checkpoint_s", self_s(&["stream.checkpoint"])),
        ("stream.restore_ms", median_us("stream.restore") / 1e3),
        ("store.query_p50_us", median_us("store.query")),
        ("store.sink_append_s", self_s(&["store.sink_append"])),
        (
            "store.snapshot_build_ms",
            median_us("store.snapshot_build") / 1e3,
        ),
        ("queryd.handle_p50_us", median_us("queryd.handle_frame")),
        ("queryd.publish_us", median_us("queryd.publish")),
        ("cluster.leader_offer_s", self_s(&["cluster.leader_offer"])),
        ("cluster.follower_apply_s", self_s(&APPLY)),
        ("cluster.follower_apply_segment_p50_us", median_us(APPLY[0])),
        (
            "cluster.follower_apply_checkpoint_p50_us",
            median_us(APPLY[1]),
        ),
        (
            "cluster.follower_apply_p99_us",
            percentile(&durations_us(&APPLY), 0.99).unwrap_or(0.0),
        ),
        ("cluster.promote_ms", median_us("cluster.promote") / 1e3),
        (
            "cluster.shard_handle_p50_us",
            median_us("cluster.shard_handle"),
        ),
        ("cluster.gather_merge_us", median_us("cluster.gather_merge")),
    ]);
    // Each phase's wall time, less the benchmark's own checking and
    // waiting, must be accounted for by the self times of its calls, up to
    // the bookkeeping the benchmark does between calls.
    let mut worst = 0.0f64;
    for c in trace::phase_cover(spans) {
        let gap = 1.0 - c.covered_ns as f64 / c.wall_ns.max(1) as f64;
        worst = worst.max(gap);
        gate.check(gap <= TRACE_TOLERANCE, || {
            format!(
                "{}: calls cover {:.1} % of {:.3} s, below {:.0} %",
                c.phase,
                100.0 * (1.0 - gap),
                c.wall_ns as f64 / 1e9,
                100.0 * (1.0 - TRACE_TOLERANCE)
            )
        });
    }
    m.insert("trace.unattributed_pct", worst * 100.0);
    m
}

/// Write the traced phase as Chrome trace-event JSON under `perfbench/out`.
fn write_trace(workload: &str, seed: u64, spans: &[trace::Span]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{workload}-seed{seed}.trace.json"));
    let spans = &spans[..spans.len().min(MAX_TRACE_SPANS)];
    match std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(&path, trace::chrome_json(spans)))
    {
        Ok(()) => eprintln!(
            "perfbench: wrote {} ({} spans)",
            path.display(),
            spans.len()
        ),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

/// The result line: every metric of `table`, by name, with its unit.
fn result_json(gate: &Gate, metrics: &Metrics, table: &[(&str, &str)]) -> String {
    let fields: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = metrics.get(name).copied().unwrap_or(0.0);
            assert!(v.is_finite(), "metric {name} is not finite: {v}");
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.failed == 0,
        gate.attempted,
        gate.failed,
        fields.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names every metric this program prints, with the
    /// same unit, and nothing else, and lists the workloads the bounds are
    /// checked on.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = json.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            compact.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for w in ["cluster_dump", "serve_live"] {
            assert!(
                compact.contains(&format!("\"name\":\"{w}\"")),
                "workload {w}"
            );
        }
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut m = Metrics::new();
        m.insert("setup_s", 1.25);
        let g = Gate {
            attempted: 3,
            failed: 0,
        };
        let line = result_json(&g, &m, &END_TO_END[..1]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn arguments_parse_strictly() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload serve_live --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_live", 7, 3, true)
        );
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--bogus 1").is_err());
    }
}
