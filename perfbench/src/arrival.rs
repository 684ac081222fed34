//! Upload arrival patterns built from a fleet's failure log.
//!
//! `stream::batches_from_events` (used by `cluster_dump`) ships each
//! device's whole history in 48-record chunks, so about half the records
//! reach the pipeline after their window sealed. [`daily_uploads`] gives a
//! mostly in-order arrival instead: a device uploads each day's records
//! once the day is over, most within hours and a small share days later.
//!
//! This cadence is an assumption of the benchmark, not a figure from the
//! paper: the paper's monitor uploads when the phone is on WiFi (see
//! `monitor::uploader`) and reports no upload delays. The delays below are
//! chosen so that the late lane carries a few percent of the records.

use cellrel::ingest::encode_batch;
use cellrel::sim::SimRng;
use cellrel::types::{DeviceId, FailureEvent};
use std::collections::BTreeMap;

/// One day, the stream window and the upload period.
pub const DAY_MS: u64 = 86_400_000;
/// Records per upload batch, as in `batches_from_events`.
pub const MAX_RECORDS: usize = 48;

/// One encoded upload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Upload {
    /// When the upload reaches the collector (ms of simulated time).
    pub at_ms: u64,
    /// The uploading device.
    pub device: u32,
    /// Per-device upload sequence number.
    pub seq: u64,
    /// Records in the batch.
    pub records: usize,
    /// Whether the batch is one of the delayed (late) uploads.
    pub delayed: bool,
    /// The `encode_batch` wire bytes.
    pub bytes: Vec<u8>,
}

/// Daily uploads: each device's records of day `d` are uploaded at
/// `(d + 1) · DAY + delay`, where the delay is 10 min – 4 h, or, with
/// probability `late_share`, 1 – 3 days (the device stayed offline). A
/// window seals once uploads of the following day arrive, so the delayed
/// uploads land in the late lane and the rest in open windows. Uploads
/// come out in arrival order; sequence numbers rise in that order per
/// device.
pub fn daily_uploads(events: &[FailureEvent], seed: u64, late_share: f64) -> Vec<Upload> {
    let mut per_device: BTreeMap<u32, Vec<FailureEvent>> = BTreeMap::new();
    for e in events {
        per_device.entry(e.device.0).or_default().push(*e);
    }
    // (arrival, device, day, chunk) orders the uploads totally.
    let mut pending: Vec<(u64, u32, u64, usize, bool, Vec<FailureEvent>)> = Vec::new();
    for (device, mut evs) in per_device {
        evs.sort_by_key(|e| e.start.as_millis());
        let mut rng = SimRng::for_substream(seed, u64::from(device));
        for day_events in
            evs.chunk_by(|a, b| a.start.as_millis() / DAY_MS == b.start.as_millis() / DAY_MS)
        {
            let day = day_events[0].start.as_millis() / DAY_MS;
            let delayed = rng.chance(late_share);
            let delay = if delayed {
                rng.range_u64(DAY_MS, 3 * DAY_MS)
            } else {
                rng.range_u64(10 * 60_000, 4 * 3_600_000)
            };
            let at_ms = (day + 1) * DAY_MS + delay;
            for (c, chunk) in day_events.chunks(MAX_RECORDS).enumerate() {
                pending.push((at_ms, device, day, c, delayed, chunk.to_vec()));
            }
        }
    }
    pending.sort_by_key(|u| (u.0, u.1, u.2, u.3));
    let mut next_seq: BTreeMap<u32, u64> = BTreeMap::new();
    pending
        .into_iter()
        .map(|(at_ms, device, _, _, delayed, records)| {
            let seq = next_seq.entry(device).or_insert(0);
            let upload = Upload {
                at_ms,
                device,
                seq: *seq,
                records: records.len(),
                delayed,
                bytes: encode_batch(DeviceId(device), *seq, &records),
            };
            *seq += 1;
            upload
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellrel::ingest::decode_batch;
    use cellrel::workload::{run_macro_study, PopulationConfig, StudyConfig};

    fn fleet() -> Vec<FailureEvent> {
        run_macro_study(&StudyConfig {
            population: PopulationConfig {
                devices: 300,
                ..Default::default()
            },
            days: 7,
            bs_count: 100,
            seed: 7,
        })
        .events
    }

    #[test]
    fn every_event_is_uploaded_exactly_once() {
        let events = fleet();
        let uploads = daily_uploads(&events, 7, 0.05);
        let mut sent: Vec<String> = Vec::new();
        for u in &uploads {
            let b = decode_batch(&u.bytes).expect("uploads decode");
            assert_eq!((b.device.0, b.seq), (u.device, u.seq));
            assert_eq!(b.records.len(), u.records);
            assert!(u.records <= MAX_RECORDS);
            sent.extend(b.records.iter().map(|e| format!("{e:?}")));
        }
        let mut want: Vec<String> = events.iter().map(|e| format!("{e:?}")).collect();
        sent.sort();
        want.sort();
        assert_eq!(sent, want);
    }

    #[test]
    fn sequence_rises_per_device_and_arrival_never_goes_back() {
        let uploads = daily_uploads(&fleet(), 7, 0.05);
        let mut last: BTreeMap<u32, u64> = BTreeMap::new();
        for pair in uploads.windows(2) {
            assert!(
                pair[0].at_ms <= pair[1].at_ms,
                "arrival order goes backwards"
            );
        }
        for u in &uploads {
            if let Some(prev) = last.insert(u.device, u.seq) {
                assert!(
                    u.seq > prev,
                    "device {} seq {} after {prev}",
                    u.device,
                    u.seq
                );
            } else {
                assert_eq!(u.seq, 0);
            }
        }
    }

    #[test]
    fn delayed_share_follows_the_parameter_and_the_seed() {
        let events = fleet();
        let a = daily_uploads(&events, 7, 0.05);
        let delayed = a.iter().filter(|u| u.delayed).count() as f64 / a.len() as f64;
        assert!((0.02..0.09).contains(&delayed), "delayed share {delayed}");
        assert_eq!(a, daily_uploads(&events, 7, 0.05));
        assert_ne!(a, daily_uploads(&events, 8, 0.05));
        assert!(daily_uploads(&events, 7, 0.0).iter().all(|u| !u.delayed));
    }
}
