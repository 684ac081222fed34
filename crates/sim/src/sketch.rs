//! Mergeable streaming quantile sketches for failure durations.
//!
//! The analysis layer draws per-kind duration CDFs (Figs. 4, 6–7, 10) and
//! headline percentiles. Materialising every duration sample defeats the
//! constant-memory goal, so the backend summarises each duration stream
//! with a [`QuantileSketch`] instead.
//!
//! **Why not KLL/GK/CKMS?** Those sketches give tight worst-case rank
//! bounds, but their compaction state depends on the order items and merges
//! happen — two shard layouts of the same stream can produce different
//! internal states and (slightly) different quantile answers. The ingest
//! pipeline's headline guarantee is a *bit-identical aggregate digest at
//! any worker count*, so we use a sketch whose merge is exactly
//! commutative and associative: a logarithmically-bucketed rank histogram
//! (HDR-histogram style). Bucket counts add like integers, so any shard
//! order, any merge tree, and any thread count produce the same bytes.
//!
//! Resolution: values below [`LINEAR_MAX`] get exact unit buckets; above,
//! each power-of-two octave is split into [`SUBBUCKETS`] equal slots, so
//! the relative value error of any reported quantile is at most
//! `1/SUBBUCKETS` ≈ 0.78 %. On the continuous duration distributions the
//! fleet produces, that value resolution translates into well under 1 %
//! rank error for the headline percentiles (asserted against exact
//! materialised values in the analysis tests).
//!
//! Two representations share the bucket geometry:
//!
//! * [`QuantileSketch`] — dense `BUCKETS` u64 slots (~58 KiB), O(1) push;
//!   the right shape for a handful of long-lived fleet aggregates. Every
//!   non-empty bucket lies in `bucket_of(min)..=bucket_of(max)`, so scans
//!   (quantiles, digests, the sparse export, merges) walk only that span
//!   and skip an empty sketch outright. A sketch rebuilt from the sparse
//!   form holds only that span (an empty one, no slots) until a push or
//!   merge lands outside it — restoring a checkpoint of many sketches
//!   costs their spans, not 58 KiB each.
//! * [`SparseSketch`] — a sorted `(bucket, count)` vector, memory
//!   proportional to the *distinct buckets touched*; the right shape for
//!   the analytics cube in `cellrel-store`, which keeps one sketch per
//!   cell across hundreds of thousands of cells. Both answer every
//!   quantile query identically (same rank walk over the same buckets).

use crate::campaign::Digest64;
use crate::par::Merge;

/// Sub-buckets per power-of-two octave (the relative-error knob).
pub const SUBBUCKETS: u64 = 128;
const SUB_SHIFT: u32 = 7; // log2(SUBBUCKETS)
/// Values `< LINEAR_MAX` get an exact bucket each.
pub const LINEAR_MAX: u64 = SUBBUCKETS;
/// Number of octaves above the linear region for the full `u64` range.
const OCTAVES: usize = 64 - SUB_SHIFT as usize;
/// Total bucket count.
pub const BUCKETS: usize = LINEAR_MAX as usize + OCTAVES * SUBBUCKETS as usize;

/// A mergeable, deterministic streaming quantile sketch over `u64` values
/// (the workspace uses integer milliseconds).
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    count: u64,
    min: u64,
    max: u64,
    /// Bucket index of `buckets[0]`.
    offset: usize,
    /// Counts of buckets `offset..offset + buckets.len()`: all `BUCKETS`
    /// for a new sketch (so a fresh aggregate's pushes never allocate),
    /// just the `min..=max` span for one rebuilt by `from_parts` (none when
    /// empty), widened to all once a push or merge lands outside it. Every
    /// non-empty bucket lies inside it.
    buckets: Box<[u64]>,
}

/// Equal content: the same samples in the same buckets, however much of
/// the dense array each side has allocated.
impl PartialEq for QuantileSketch {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count
            && self.min == other.min
            && self.max == other.max
            && self.nonzero_buckets().eq(other.nonzero_buckets())
    }
}

impl Eq for QuantileSketch {}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a value.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < LINEAR_MAX {
        return v as usize;
    }
    // Octave = floor(log2 v) − SUB_SHIFT ≥ 0; slot = the top SUB_SHIFT bits
    // below the leading one.
    let octave = (63 - v.leading_zeros()) - SUB_SHIFT;
    let slot = (v >> octave) - SUBBUCKETS;
    LINEAR_MAX as usize + (octave as usize) * SUBBUCKETS as usize + slot as usize
}

/// The lower edge of a bucket (inverse of [`bucket_of`] up to resolution).
#[inline]
fn bucket_low(i: usize) -> u64 {
    if i < LINEAR_MAX as usize {
        return i as u64;
    }
    let rel = i - LINEAR_MAX as usize;
    let octave = (rel / SUBBUCKETS as usize) as u32;
    let slot = (rel % SUBBUCKETS as usize) as u64;
    (SUBBUCKETS + slot) << octave
}

/// Exclusive upper edge of a bucket.
#[inline]
fn bucket_high(i: usize) -> u64 {
    if i < LINEAR_MAX as usize {
        return i as u64 + 1;
    }
    let rel = i - LINEAR_MAX as usize;
    let octave = (rel / SUBBUCKETS as usize) as u32;
    bucket_low(i).saturating_add(1u64 << octave)
}

/// The shared rank walk: the value at quantile `q` given the sketch's
/// summary stats and its non-empty buckets in ascending index order. Both
/// sketch representations call this, so their answers are identical by
/// construction.
///
/// `q <= 0` and `q >= 1` return the *exact* recorded min/max: the interior
/// path returns a bucket representative, and when several values share the
/// top (or bottom) bucket the representative can differ from the true
/// extreme even after clamping into `[min, max]`.
fn quantile_over(
    count: u64,
    min: u64,
    max: u64,
    q: f64,
    pairs: impl Iterator<Item = (usize, u64)>,
) -> Option<u64> {
    if count == 0 {
        return None;
    }
    if q <= 0.0 {
        return Some(min);
    }
    if q >= 1.0 {
        return Some(max);
    }
    // Target rank in 1..=count ("the ⌈qn⌉-th smallest").
    let target = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut cum = 0u64;
    for (i, c) in pairs {
        cum += c;
        if cum >= target {
            let v = if i < LINEAR_MAX as usize {
                i as u64
            } else {
                let (lo, hi) = (bucket_low(i), bucket_high(i));
                lo + (hi - lo) / 2
            };
            return Some(v.clamp(min, max));
        }
    }
    Some(max) // unreachable in practice: counts sum to `count`
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        QuantileSketch {
            count: 0,
            min: u64::MAX,
            max: 0,
            offset: 0,
            buckets: vec![0u64; BUCKETS].into_boxed_slice(),
        }
    }

    /// Absorb one value.
    pub fn push(&mut self, v: u64) {
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let i = bucket_of(v);
        match self.buckets.get_mut(i.wrapping_sub(self.offset)) {
            Some(c) => *c += 1,
            None => {
                self.widen();
                self.buckets[i] += 1;
            }
        }
    }

    /// Hold all `BUCKETS` slots from here on.
    #[cold]
    fn widen(&mut self) {
        let mut all = vec![0u64; BUCKETS].into_boxed_slice();
        all[self.offset..self.offset + self.buckets.len()].copy_from_slice(&self.buckets);
        self.buckets = all;
        self.offset = 0;
    }

    /// The held counts of the buckets in `span`, which must lie inside the
    /// held window.
    fn slots(&self, span: std::ops::Range<usize>) -> &[u64] {
        &self.buckets[span.start - self.offset..span.end - self.offset]
    }

    /// The bucket span that can hold counts: `bucket_of(min)..=bucket_of(max)`,
    /// empty for an empty sketch. Every constructor keeps all non-empty
    /// buckets inside it.
    fn span(&self) -> std::ops::Range<usize> {
        if self.count == 0 {
            return 0..0;
        }
        bucket_of(self.min)..bucket_of(self.max) + 1
    }

    /// Samples absorbed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest absorbed value (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest absorbed value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The value at quantile `q ∈ [0, 1]` (`None` when empty).
    ///
    /// `q <= 0` and `q >= 1` return the exact recorded min/max. Interior
    /// quantiles return a representative of the bucket containing the
    /// target rank: exact for values below [`LINEAR_MAX`], the bucket
    /// midpoint above — so the reported value is within `1/SUBBUCKETS` of a
    /// true order statistic at that rank. Clamped into `[min, max]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        quantile_over(self.count, self.min, self.max, q, self.nonzero_buckets())
    }

    /// Exact number of absorbed values `< v`'s bucket lower edge — the rank
    /// machinery quality tests use.
    pub fn rank_below_bucket_of(&self, v: u64) -> u64 {
        let end = bucket_of(v);
        self.nonzero_buckets()
            .take_while(|&(i, _)| i < end)
            .map(|(_, c)| c)
            .sum()
    }

    /// Fold the sketch into a content digest: count, min, max, then every
    /// non-empty bucket as an (index, count) pair.
    pub fn absorb_into(&self, d: &mut Digest64) {
        d.write_u64(self.count);
        d.write_u64(if self.count > 0 { self.min } else { 0 });
        d.write_u64(self.max);
        for (i, c) in self.nonzero_buckets() {
            d.write_u64(i as u64);
            d.write_u64(c);
        }
    }

    /// Non-empty `(bucket index, count)` pairs in index order — the sparse
    /// form checkpoints serialize.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let span = self.span();
        self.slots(span.clone())
            .iter()
            .zip(span)
            .filter(|(&c, _)| c != 0)
            .map(|(&c, i)| (i, c))
    }

    /// Rebuild from the sparse form (inverse of [`Self::nonzero_buckets`],
    /// with min/max carried separately). Returns `None` if an index is out
    /// of range, the counts overflow, or a counted bucket lies outside
    /// `bucket_of(min)..=bucket_of(max)` (which no recorded stream can
    /// produce, and which the bounded scans rely on).
    pub fn from_parts(
        min: u64,
        max: u64,
        pairs: impl IntoIterator<Item = (usize, u64)>,
    ) -> Option<Self> {
        // Hold just the span; with min > max no bucket may be counted.
        let (lo, hi) = (bucket_of(min), bucket_of(max));
        let mut s = QuantileSketch {
            count: 0,
            min: u64::MAX,
            max: 0,
            offset: lo,
            buckets: vec![0u64; (hi + 1).saturating_sub(lo)].into_boxed_slice(),
        };
        for (i, c) in pairs {
            if i >= BUCKETS {
                return None;
            }
            if c == 0 {
                continue;
            }
            let slot = s.buckets.get_mut(i.wrapping_sub(s.offset))?;
            *slot = slot.checked_add(c)?;
            s.count = s.count.checked_add(c)?;
        }
        if s.count == 0 {
            // Whatever min/max said, an empty sketch holds no span.
            s.offset = 0;
            s.buckets = Box::default();
            return Some(s);
        }
        if min > max {
            return None;
        }
        s.min = min;
        s.max = max;
        Some(s)
    }
}

impl Merge for QuantileSketch {
    fn merge(&mut self, other: Self) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other;
            return;
        }
        let span = other.span();
        if span.start < self.offset || span.end > self.offset + self.buckets.len() {
            self.widen();
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        let offset = self.offset;
        for (a, b) in self.buckets[span.start - offset..span.end - offset]
            .iter_mut()
            .zip(other.slots(span))
        {
            *a += b;
        }
    }
}

/// The sparse counterpart of [`QuantileSketch`]: identical bucket geometry
/// and identical quantile answers, but storing only the buckets actually
/// touched, as a sorted `(bucket, count)` vector.
///
/// A fleet duration stream touches a few hundred of the 7 424 buckets; a
/// single analytics-cube *cell* typically touches one to three. At ~12
/// bytes per touched bucket a sparse sketch costs tens of bytes where the
/// dense form costs 58 KiB — the difference between a cube that fits in
/// memory and one that does not. Push is `O(log nnz)` (binary search +
/// insert), merge is a linear two-pointer walk, and — like the dense form —
/// merge is exact bucket addition: commutative, associative, bit-identical
/// at any shard order. [`SparseSketch::absorb_into`] emits the same digest
/// stream as the dense form over the same data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseSketch {
    count: u64,
    min: u64,
    max: u64,
    /// Non-empty buckets, strictly ascending by index.
    buckets: Vec<(u32, u64)>,
}

impl Default for SparseSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl SparseSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        SparseSketch {
            count: 0,
            min: u64::MAX,
            max: 0,
            buckets: Vec::new(),
        }
    }

    /// Absorb one value.
    pub fn push(&mut self, v: u64) {
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let b = bucket_of(v) as u32;
        match self.buckets.binary_search_by_key(&b, |&(i, _)| i) {
            Ok(p) => self.buckets[p].1 += 1,
            Err(p) => self.buckets.insert(p, (b, 1)),
        }
    }

    /// Samples absorbed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest absorbed value (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest absorbed value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Number of distinct buckets touched (the memory footprint knob).
    pub fn nnz(&self) -> usize {
        self.buckets.len()
    }

    /// The value at quantile `q ∈ [0, 1]` (`None` when empty) — same
    /// contract and same answer as [`QuantileSketch::quantile`] over the
    /// same data, including exact min/max at the endpoints.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        quantile_over(
            self.count,
            self.min,
            self.max,
            q,
            self.buckets.iter().map(|&(i, c)| (i as usize, c)),
        )
    }

    /// Non-empty `(bucket index, count)` pairs in index order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets.iter().map(|&(i, c)| (i as usize, c))
    }

    /// Fold into a content digest — byte-compatible with
    /// [`QuantileSketch::absorb_into`] over the same data.
    pub fn absorb_into(&self, d: &mut Digest64) {
        d.write_u64(self.count);
        d.write_u64(if self.count > 0 { self.min } else { 0 });
        d.write_u64(self.max);
        for &(i, c) in &self.buckets {
            d.write_u64(u64::from(i));
            d.write_u64(c);
        }
    }

    /// Expand into the dense representation. `None` when the buckets
    /// are not a recorded stream's (see [`QuantileSketch::from_parts`]).
    pub fn to_dense(&self) -> Option<QuantileSketch> {
        QuantileSketch::from_parts(self.min, self.max, self.nonzero_buckets())
    }

    /// Rebuild from `(index, count)` pairs in strictly ascending index
    /// order (min/max carried separately). Returns `None` on out-of-range
    /// or non-ascending indices, zero counts, or count overflow — restore
    /// paths must stay total.
    pub fn from_parts(
        min: u64,
        max: u64,
        pairs: impl IntoIterator<Item = (usize, u64)>,
    ) -> Option<Self> {
        let mut s = SparseSketch::new();
        let mut prev: Option<usize> = None;
        for (i, c) in pairs {
            if i >= BUCKETS || c == 0 || prev.is_some_and(|p| i <= p) {
                return None;
            }
            prev = Some(i);
            s.count = s.count.checked_add(c)?;
            s.buckets.push((i as u32, c));
        }
        if s.count > 0 {
            s.min = min;
            s.max = max;
        }
        Some(s)
    }
}

impl SparseSketch {
    /// [`Merge::merge`] without consuming the other sketch — the hot path
    /// for query-time group accumulation, where cloning every scanned
    /// cell's bucket vector just to consume it would dominate the scan.
    pub fn merge_ref(&mut self, other: &SparseSketch) {
        self.merge_run(other.count, other.min, other.max, &other.buckets);
    }

    /// Merge a raw sketch run — `(count, min, max)` header plus strictly
    /// ascending `(bucket, count)` pairs — without materializing the other
    /// side as a `SparseSketch`. Sealed columnar segments pool their sketch
    /// buckets in one contiguous arena; query-time accumulation merges pool
    /// slices directly through this entry point. The run must be valid
    /// sketch content (as produced by a sketch's own bucket vector).
    pub fn merge_run(&mut self, count: u64, min: u64, max: u64, run: &[(u32, u64)]) {
        if count == 0 {
            return;
        }
        self.count += count;
        if self.buckets.is_empty() {
            self.min = min;
            self.max = max;
            self.buckets = run.to_vec();
            return;
        }
        self.min = self.min.min(min);
        self.max = self.max.max(max);
        // Folding a small sketch into a large accumulator is the query hot
        // path: patch the accumulator in place instead of rebuilding its
        // whole bucket vector per merge.
        if run.len() * 8 <= self.buckets.len() {
            for &(i, c) in run {
                match self.buckets.binary_search_by_key(&i, |&(j, _)| j) {
                    Ok(p) => self.buckets[p].1 += c,
                    Err(p) => self.buckets.insert(p, (i, c)),
                }
            }
            return;
        }
        let mut merged = Vec::with_capacity(self.buckets.len() + run.len());
        let (mut a, mut b) = (self.buckets.iter().peekable(), run.iter());
        let mut next_b = b.next();
        while let Some(&&(ai, ac)) = a.peek() {
            match next_b {
                Some(&(bi, bc)) if bi < ai => {
                    merged.push((bi, bc));
                    next_b = b.next();
                }
                Some(&(bi, bc)) if bi == ai => {
                    merged.push((ai, ac + bc));
                    next_b = b.next();
                    a.next();
                }
                _ => {
                    merged.push((ai, ac));
                    a.next();
                }
            }
        }
        if let Some(&p) = next_b {
            merged.push(p);
        }
        merged.extend(b.copied());
        self.buckets = merged;
    }
}

impl Merge for SparseSketch {
    fn merge(&mut self, other: Self) {
        self.merge_ref(&other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_consistent() {
        for v in [0u64, 1, 127, 128, 129, 255, 256, 1000, 60_000, u64::MAX] {
            let i = bucket_of(v);
            assert!(i < BUCKETS, "index {i} for {v}");
            assert!(bucket_low(i) <= v, "low edge of {i} above {v}");
            assert!(
                v < bucket_high(i) || bucket_high(i) == u64::MAX,
                "{v} outside bucket {i}"
            );
        }
        // Linear region is exact.
        for v in 0..LINEAR_MAX {
            assert_eq!(bucket_low(bucket_of(v)), v);
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [200u64, 5_000, 123_456, 90_000_000, 1 << 40] {
            let i = bucket_of(v);
            let mid = bucket_low(i) + (bucket_high(i) - bucket_low(i)) / 2;
            let err = (mid as f64 - v as f64).abs() / v as f64;
            assert!(err <= 1.0 / SUBBUCKETS as f64, "err {err} at {v}");
        }
    }

    #[test]
    fn quantiles_of_a_uniform_ramp() {
        let mut s = QuantileSketch::new();
        for v in 1..=100_000u64 {
            s.push(v);
        }
        for (q, expect) in [(0.5, 50_000.0), (0.9, 90_000.0), (0.99, 99_000.0)] {
            let got = s.quantile(q).unwrap() as f64;
            assert!(
                (got - expect).abs() / expect < 0.01,
                "q={q}: got {got}, expect {expect}"
            );
        }
        assert_eq!(s.quantile(0.0), Some(1));
        assert_eq!(s.quantile(1.0), Some(s.max().unwrap()));
    }

    #[test]
    fn small_values_are_exact() {
        let mut s = QuantileSketch::new();
        for v in [3u64, 3, 3, 7, 9] {
            s.push(v);
        }
        assert_eq!(s.quantile(0.5), Some(3));
        assert_eq!(s.quantile(0.8), Some(7));
        assert_eq!(s.quantile(1.0), Some(9));
    }

    #[test]
    fn quantile_endpoints_are_exact_within_a_shared_bucket() {
        // Regression: 1000 and 1003 share one log bucket (lo 1000, hi 1004,
        // midpoint 1002). The interior walk reports 1002 for any rank in the
        // bucket — acceptable resolution mid-range, but quantile(1.0) must
        // be the *exact* max and quantile(0.0) the exact min, not a
        // midpoint that clamping cannot fix.
        let mut s = QuantileSketch::new();
        s.push(1000);
        s.push(1003);
        assert_eq!(s.quantile(0.0), Some(1000));
        assert_eq!(s.quantile(1.0), Some(1003));

        // Same at the low end: min above the bucket representative.
        let mut t = QuantileSketch::new();
        t.push(1001);
        t.push(1003);
        assert_eq!(t.quantile(0.0), Some(1001));
        assert_eq!(t.quantile(1.0), Some(1003));

        // Out-of-range q behaves like the endpoints.
        assert_eq!(t.quantile(-0.5), Some(1001));
        assert_eq!(t.quantile(1.5), Some(1003));

        // Single-value sketches answer that value at every quantile.
        let mut u = QuantileSketch::new();
        u.push(987_654);
        for q in [0.0, 0.3, 1.0] {
            assert_eq!(u.quantile(q), Some(987_654));
        }
    }

    #[test]
    fn empty_sketch_is_quiet() {
        let s = QuantileSketch::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.quantile(0.0), None);
        assert_eq!(s.quantile(1.0), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    /// An empty sketch rebuilt from parts holds no span whatever min/max
    /// it was given, and behaves like a new one.
    #[test]
    fn empty_sketch_from_parts_is_a_new_sketch() {
        assert_eq!(SparseSketch::new().to_dense(), Some(QuantileSketch::new()));
        let mut e = QuantileSketch::from_parts(1000, 0, []).expect("empty");
        assert_eq!(e, QuantileSketch::new());
        assert_eq!(e.nonzero_buckets().count(), 0);
        assert_eq!(e.quantile(0.5), None);
        let (mut de, mut dn) = (Digest64::new(), Digest64::new());
        e.absorb_into(&mut de);
        QuantileSketch::new().absorb_into(&mut dn);
        assert_eq!(de.finish(), dn.finish());
        let mut m = QuantileSketch::from_parts(1000, 5000, [(0, 0)]).expect("empty");
        m.merge(e.clone());
        assert_eq!(m, QuantileSketch::new());
        e.push(70_000);
        let mut fresh = QuantileSketch::new();
        fresh.push(70_000);
        assert_eq!(e, fresh);
        assert_eq!(e.quantile(0.5), Some(70_000));
    }

    #[test]
    fn merge_is_commutative_bitwise() {
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        for v in 0..5_000u64 {
            a.push(v * 17 % 90_000);
            b.push(v * 31 % 123_456);
        }
        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ba = b.clone();
        ba.merge(a.clone());
        assert_eq!(ab, ba);
        let mut da = Digest64::new();
        ab.absorb_into(&mut da);
        let mut db = Digest64::new();
        ba.absorb_into(&mut db);
        assert_eq!(da.finish(), db.finish());
    }

    #[test]
    fn merge_equals_single_stream() {
        let values: Vec<u64> = (0..10_000u64).map(|v| v * v % 1_000_003).collect();
        let mut whole = QuantileSketch::new();
        for &v in &values {
            whole.push(v);
        }
        let mut parts = QuantileSketch::new();
        for chunk in values.chunks(777) {
            let mut p = QuantileSketch::new();
            for &v in chunk {
                p.push(v);
            }
            parts.merge(p);
        }
        assert_eq!(whole, parts);
    }

    #[test]
    fn sparse_round_trip() {
        let mut s = QuantileSketch::new();
        for v in [1u64, 60_000, 60_000, 91_770_000, 5] {
            s.push(v);
        }
        let pairs: Vec<_> = s.nonzero_buckets().collect();
        let r = QuantileSketch::from_parts(s.min().unwrap(), s.max().unwrap(), pairs).unwrap();
        assert_eq!(r, s);
        assert!(QuantileSketch::from_parts(0, 0, [(BUCKETS, 1)]).is_none());
        // Counts outside bucket_of(min)..=bucket_of(max), or min > max,
        // cannot come from a recorded stream and are rejected.
        assert!(QuantileSketch::from_parts(10, 20, [(9, 1)]).is_none());
        assert!(QuantileSketch::from_parts(10, 20, [(21, 1)]).is_none());
        assert!(QuantileSketch::from_parts(20, 10, [(15, 1)]).is_none());
        assert!(QuantileSketch::from_parts(10, 20, [(10, 1), (20, 2)]).is_some());
    }

    /// The span-bounded scans answer exactly what a full scan would, and an
    /// empty sketch merges, digests and exports as nothing.
    #[test]
    fn bounded_scans_match_full_scans() {
        let mut s = QuantileSketch::new();
        for v in [700u64, 701, 9_000, 9_000, 123_456] {
            s.push(v);
        }
        let full: Vec<(usize, u64)> = s
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (i, c))
            .collect();
        assert_eq!(s.nonzero_buckets().collect::<Vec<_>>(), full);
        assert_eq!(QuantileSketch::new().nonzero_buckets().count(), 0);

        let mut merged = QuantileSketch::new();
        merged.merge(QuantileSketch::new());
        assert_eq!(merged, QuantileSketch::new());
        merged.merge(s.clone());
        merged.merge(QuantileSketch::new());
        assert_eq!(merged, s);
    }

    /// A sketch rebuilt from its sparse form holds only its span, answers
    /// exactly like the original, and keeps doing so as pushes and merges
    /// land outside that span.
    #[test]
    fn a_rebuilt_sketch_holds_its_span_and_widens_on_demand() {
        let mut s = QuantileSketch::new();
        for v in [700u64, 701, 9_000, 9_000, 123_456] {
            s.push(v);
        }
        let mut r = QuantileSketch::from_parts(700, 123_456, s.nonzero_buckets()).expect("valid");
        assert_eq!(r, s);
        assert_eq!(r.buckets.len(), bucket_of(123_456) - bucket_of(700) + 1);
        for q in [0.0, 0.3, 0.5, 0.9, 1.0] {
            assert_eq!(r.quantile(q), s.quantile(q));
        }
        assert_eq!(r.rank_below_bucket_of(9_000), s.rank_below_bucket_of(9_000));
        // Inside the span: no growth. Outside: widened, same content.
        r.push(5_000);
        s.push(5_000);
        assert_eq!(r.buckets.len(), bucket_of(123_456) - bucket_of(700) + 1);
        r.push(3);
        s.push(3);
        assert_eq!((r.buckets.len(), &r), (BUCKETS, &s));
        let mut narrow = QuantileSketch::from_parts(10, 10, [(10, 2)]).expect("valid");
        narrow.merge(r.clone());
        let mut wide = s.clone();
        wide.push(10);
        wide.push(10);
        assert_eq!(narrow, wide);
    }

    #[test]
    fn sparse_sketch_matches_dense_exactly() {
        let mut dense = QuantileSketch::new();
        let mut sparse = SparseSketch::new();
        for v in (0..20_000u64).map(|v| v * v % 777_777) {
            dense.push(v);
            sparse.push(v);
        }
        assert_eq!(sparse.count(), dense.count());
        assert_eq!(sparse.min(), dense.min());
        assert_eq!(sparse.max(), dense.max());
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(sparse.quantile(q), dense.quantile(q), "q={q}");
        }
        let sp: Vec<_> = sparse.nonzero_buckets().collect();
        let dp: Vec<_> = dense.nonzero_buckets().collect();
        assert_eq!(sp, dp);
        assert_eq!(sparse.to_dense(), Some(dense.clone()));
        let mut ds = Digest64::new();
        sparse.absorb_into(&mut ds);
        let mut dd = Digest64::new();
        dense.absorb_into(&mut dd);
        assert_eq!(ds.finish(), dd.finish());
        // Far below the 7 424 dense slots — the memory argument for sparse.
        assert!(sparse.nnz() < BUCKETS / 4, "nnz {}", sparse.nnz());
    }

    #[test]
    fn sparse_merge_is_commutative_and_matches_single_stream() {
        let values: Vec<u64> = (0..6_000u64).map(|v| v * 13 % 250_000).collect();
        let mut whole = SparseSketch::new();
        for &v in &values {
            whole.push(v);
        }
        let (lo, hi) = values.split_at(1_234);
        let mut a = SparseSketch::new();
        let mut b = SparseSketch::new();
        for &v in lo {
            a.push(v);
        }
        for &v in hi {
            b.push(v);
        }
        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ba = b.clone();
        ba.merge(a.clone());
        assert_eq!(ab, ba);
        assert_eq!(ab, whole);
        // Merging an empty sketch in either direction is the identity.
        let mut e = SparseSketch::new();
        e.merge(whole.clone());
        assert_eq!(e, whole);
        let mut w = whole.clone();
        w.merge(SparseSketch::new());
        assert_eq!(w, whole);
    }

    #[test]
    fn sparse_from_parts_is_total() {
        let mut s = SparseSketch::new();
        for v in [4u64, 4, 999, 70_000] {
            s.push(v);
        }
        let pairs: Vec<_> = s.nonzero_buckets().collect();
        let r = SparseSketch::from_parts(s.min().unwrap(), s.max().unwrap(), pairs).unwrap();
        assert_eq!(r, s);
        // Out of range, unsorted, duplicate, and zero-count inputs are rejected.
        assert!(SparseSketch::from_parts(0, 0, [(BUCKETS, 1)]).is_none());
        assert!(SparseSketch::from_parts(0, 0, [(5, 1), (3, 1)]).is_none());
        assert!(SparseSketch::from_parts(0, 0, [(5, 1), (5, 1)]).is_none());
        assert!(SparseSketch::from_parts(0, 0, [(5, 0)]).is_none());
        assert!(SparseSketch::from_parts(0, 0, [(1, u64::MAX), (2, 1)]).is_none());
    }

    #[test]
    fn sparse_endpoints_are_exact_within_a_shared_bucket() {
        let mut s = SparseSketch::new();
        s.push(1000);
        s.push(1003);
        assert_eq!(s.quantile(0.0), Some(1000));
        assert_eq!(s.quantile(1.0), Some(1003));
        assert_eq!(SparseSketch::new().quantile(0.5), None);
    }
}
