//! Device-hash partitioning: which shard owns which device.
//!
//! Shard membership is a pure function of the device id, independent of
//! arrival order, batch boundaries, and shard-local state. That purity is
//! what makes the federation identity hold: the per-shard record sets form
//! an exact partition of the global record set, and the per-shard
//! directory views ([`shard_directories`]) partition the fleet the same
//! way, so merged shard stores are indistinguishable from one store that
//! saw everything.

use crate::error::ClusterError;
use cellrel_ingest::peek_device;
use cellrel_store::DeviceDirectory;
use cellrel_types::DeviceId;

/// SplitMix64 finalizer over the device id. The simulator keeps its own
/// copy private; the constants are restated here because the shard map is
/// part of this crate's wire-level contract — it must never drift with
/// simulator internals, or replicated history would re-route on upgrade.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The shard that owns `device` in a cluster of `shards` shards.
///
/// # Panics
///
/// Panics if `shards` is zero — a cluster with no shards is a
/// construction-time configuration error, not a runtime condition.
pub fn shard_of(device: DeviceId, shards: usize) -> usize {
    assert!(shards > 0, "shard count must be positive");
    (mix64(u64::from(device.0)) % shards as u64) as usize
}

/// Route an encoded upload batch by peeking its device header. The batch
/// body is not validated here; the owning shard's collector performs full
/// decode (and rejects hostile payloads) downstream.
pub fn shard_of_batch(batch: &[u8], shards: usize) -> Result<usize, ClusterError> {
    Ok(shard_of(peek_device(batch)?, shards))
}

/// Per-shard views of the fleet directory: view `s` yields exactly the
/// devices [`shard_of`] assigns to shard `s`, while still answering
/// dimension lookups for the whole fleet. Registering view `s` into shard
/// `s`'s store and merging all shards reproduces a full-fleet
/// registration exactly.
pub fn shard_directories(dir: &DeviceDirectory, shards: usize) -> Vec<DeviceDirectory> {
    (0..shards)
        .map(|s| dir.filtered(|d| shard_of(d, shards) == s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shard map is a frozen contract: these values can only change
    /// with a protocol version bump, never silently.
    #[test]
    fn shard_map_is_pinned() {
        let got: Vec<usize> = (0..8).map(|i| shard_of(DeviceId(i), 4)).collect();
        assert_eq!(got, vec![3, 1, 2, 1, 2, 2, 0, 3]);
        for i in 0..64 {
            assert_eq!(shard_of(DeviceId(i), 1), 0);
        }
    }

    #[test]
    fn shard_views_partition_a_real_fleet() {
        use cellrel_workload::{run_macro_study, PopulationConfig, StudyConfig};

        let data = run_macro_study(&StudyConfig {
            seed: 7,
            population: PopulationConfig {
                devices: 60,
                ..Default::default()
            },
            days: 1,
            bs_count: 40,
        });
        let dir = DeviceDirectory::from_population(&data.population);
        for shards in [1usize, 2, 4, 5] {
            let views = shard_directories(&dir, shards);
            let mut seen = std::collections::BTreeSet::new();
            for (s, view) in views.iter().enumerate() {
                for (device, _) in view.iter() {
                    assert_eq!(shard_of(device, shards), s);
                    assert!(seen.insert(device), "device owned by two shards");
                }
            }
            assert_eq!(
                seen.len(),
                dir.iter().count(),
                "shard views must cover the fleet"
            );
        }
    }

    /// Shard views of an already filtered directory split exactly the
    /// devices it kept: a device the filter dropped never comes back.
    #[test]
    fn shard_views_of_a_filtered_directory_split_the_kept_devices() {
        use cellrel_workload::{run_macro_study, PopulationConfig, StudyConfig};

        let data = run_macro_study(&StudyConfig {
            seed: 7,
            population: PopulationConfig {
                devices: 60,
                ..Default::default()
            },
            days: 1,
            bs_count: 40,
        });
        let dir = DeviceDirectory::from_population(&data.population);
        let kept_dir = dir.filtered(|d| d.0 % 3 != 0);
        let kept: Vec<DeviceId> = kept_dir.iter().map(|(d, _)| d).collect();
        assert_eq!(kept.len(), 40);
        for shards in [1usize, 2, 4] {
            let mut split: Vec<DeviceId> = shard_directories(&kept_dir, shards)
                .iter()
                .enumerate()
                .flat_map(|(s, view)| {
                    view.iter()
                        .map(|(d, _)| d)
                        .inspect(move |&d| assert_eq!(shard_of(d, shards), s))
                        .collect::<Vec<_>>()
                })
                .collect();
            split.sort();
            assert_eq!(
                split, kept,
                "{shards} shard views of the filtered directory"
            );
        }
    }
}
