//! Order statistics over measured samples, and the process's peak memory.

/// Samples a reported percentile must leave beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `q` (0 < q < 1) of `samples`, or `None` when
/// fewer than [`TAIL_SAMPLES`] samples lie beyond it — a percentile that
/// rests on fewer is not reported.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank.min(n) < TAIL_SAMPLES {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Fewest samples for which [`percentile`] reports `q`.
pub fn samples_for(q: f64) -> usize {
    (1..)
        .find(|&n| {
            let rank = (q * n as f64).ceil() as usize;
            rank > 0 && n - rank.min(n) >= TAIL_SAMPLES
        })
        .expect("some sample count suffices")
}

/// Nearest-rank quantile `q` of `samples`, without the tail rule of
/// [`percentile`]; `NaN` when empty. For per-iteration figures of
/// repeated, identical work.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median (mean of the middle pair for an even count); `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

extern "C" {
    /// glibc: return the allocator's free memory to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// A `kB` field of `/proc/self/status`, in MiB.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no {field}"));
    kb / 1024.0
}

/// Start measuring peak memory from here: hand the memory freed so far
/// back to the kernel, reset the resident high-water mark to the current
/// resident set (`/proc/self/clear_refs`), and return that set in MiB.
/// Memory the process later allocates then shows in [`peak_rss_mb`].
pub fn reset_peak_rss() -> f64 {
    // SAFETY: `malloc_trim` only releases free heap pages; it takes no
    // pointers and is safe to call at any time.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5").expect("reset the resident high-water mark");
    status_mb("VmRSS")
}

/// Peak resident set size of this process since the last
/// [`reset_peak_rss`] (or since start), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_reported_percentile_has_ten_samples_beyond_it() {
        for &q in &[0.5, 0.9, 0.99] {
            for n in 1..3000usize {
                let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
                match percentile(&v, q) {
                    Some(x) => {
                        let beyond = v.iter().filter(|&&s| s > x).count();
                        assert!(beyond >= TAIL_SAMPLES, "q={q} n={n}: {beyond} beyond");
                    }
                    None => assert!(n < samples_for(q), "q={q} n={n} refused"),
                }
            }
        }
        assert_eq!(samples_for(0.5), 20);
        assert_eq!(samples_for(0.9), 100);
        assert_eq!(samples_for(0.99), 1000);
    }

    #[test]
    fn nearest_rank_and_median() {
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn peak_rss_counts_memory_touched_after_a_reset() {
        // Tests on other threads may free memory meanwhile, so the check
        // leaves a wide margin below the 128 MiB touched.
        let base = reset_peak_rss();
        assert!(base > 0.0 && peak_rss_mb() >= base);
        let block = std::hint::black_box(vec![1u8; 128 << 20]);
        let peak = peak_rss_mb();
        assert!(peak >= base + 96.0, "peak {peak} MiB from {base} MiB");
        drop(block);
    }
}
