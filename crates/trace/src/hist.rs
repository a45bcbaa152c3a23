//! Log2-bucketed latency histograms per access class.
//!
//! Fig 10-style latency breakdowns need distributions, not means: a
//! workload whose accesses are mostly TLB hits plus a long walk tail has
//! the same mean as one with uniform medium-cost accesses but a completely
//! different story. Each simulated machine keeps one histogram per
//! [`AccessClass`] and records every access's cycle cost.

use crate::event::AccessOp;
use crate::metrics::MetricsRegistry;

/// The access classes a machine histograms separately: operation kind ×
/// whether the TLB served it or a walk was needed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessClass {
    /// Load served by the TLB.
    ReadTlbHit,
    /// Load that required a page walk.
    ReadWalk,
    /// Store served by the TLB.
    WriteTlbHit,
    /// Store that required a page walk.
    WriteWalk,
    /// Fetch served by the TLB.
    FetchTlbHit,
    /// Fetch that required a page walk.
    FetchWalk,
}

impl AccessClass {
    /// Every class, in display order.
    pub const ALL: [AccessClass; 6] = [
        AccessClass::ReadTlbHit,
        AccessClass::ReadWalk,
        AccessClass::WriteTlbHit,
        AccessClass::WriteWalk,
        AccessClass::FetchTlbHit,
        AccessClass::FetchWalk,
    ];

    /// Stable label used in JSON and metric names.
    pub fn label(self) -> &'static str {
        match self {
            AccessClass::ReadTlbHit => "read_tlb_hit",
            AccessClass::ReadWalk => "read_walk",
            AccessClass::WriteTlbHit => "write_tlb_hit",
            AccessClass::WriteWalk => "write_walk",
            AccessClass::FetchTlbHit => "fetch_tlb_hit",
            AccessClass::FetchWalk => "fetch_walk",
        }
    }

    /// The class of an access given its operation and whether the TLB
    /// served it.
    #[inline]
    pub fn classify(op: AccessOp, tlb_hit: bool) -> AccessClass {
        match (op, tlb_hit) {
            (AccessOp::Read, true) => AccessClass::ReadTlbHit,
            (AccessOp::Read, false) => AccessClass::ReadWalk,
            (AccessOp::Write, true) => AccessClass::WriteTlbHit,
            (AccessOp::Write, false) => AccessClass::WriteWalk,
            (AccessOp::Fetch, true) => AccessClass::FetchTlbHit,
            (AccessOp::Fetch, false) => AccessClass::FetchWalk,
        }
    }

    /// Dense index into per-class arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            AccessClass::ReadTlbHit => 0,
            AccessClass::ReadWalk => 1,
            AccessClass::WriteTlbHit => 2,
            AccessClass::WriteWalk => 3,
            AccessClass::FetchTlbHit => 4,
            AccessClass::FetchWalk => 5,
        }
    }
}

/// Number of buckets: bucket 0 is the exact value 0, bucket `k` (1 ≤ k ≤
/// 64) covers `[2^(k-1), 2^k)`.
pub const HIST_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples (cycle latencies).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index for a sample: 0 for 0, else `floor(log2(v)) + 1`.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive-exclusive bounds `[lo, hi)` of a bucket (bucket 0 is the
    /// single value 0; bucket 64's upper bound saturates at `u64::MAX`).
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        match index {
            0 => (0, 1),
            64 => (1 << 63, u64::MAX),
            k => (1 << (k - 1), 1 << k),
        }
    }

    /// Record one sample. The running sum saturates at `u64::MAX` rather
    /// than overflowing (only reachable with samples near the top bucket).
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest sample (None when empty).
    pub fn min(&self) -> Option<u64> {
        (!self.is_empty()).then_some(self.min)
    }

    /// Largest sample (None when empty).
    pub fn max(&self) -> Option<u64> {
        (!self.is_empty()).then_some(self.max)
    }

    /// Mean sample value (None when empty).
    pub fn mean(&self) -> Option<f64> {
        (!self.is_empty()).then(|| self.sum as f64 / self.count as f64)
    }

    /// Count in one bucket.
    pub fn bucket(&self, index: usize) -> u64 {
        self.buckets[index]
    }

    /// The upper bound (exclusive) of the bucket containing the `p`-th
    /// percentile sample, `p` in `[0, 100]`. None when empty.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.is_empty() {
            return None;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(Self::bucket_bounds(i).1);
            }
        }
        Some(Self::bucket_bounds(HIST_BUCKETS - 1).1)
    }

    /// Rebuild a histogram from `(bucket lower bound, count)` pairs plus the
    /// sample sum, as exported by [`LatencyHistograms::export`] and parsed
    /// back from a metrics snapshot.
    ///
    /// Exact for `count`, `sum`, bucket occupancy and therefore every
    /// [`LatencyHistogram::percentile`]; `min`/`max` are only known to
    /// bucket resolution, so they are reconstructed conservatively as the
    /// bounds of the outermost occupied buckets.
    pub fn from_bucket_counts(
        pairs: impl IntoIterator<Item = (u64, u64)>,
        sum: u64,
    ) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for (lo, n) in pairs {
            if n == 0 {
                continue;
            }
            let index = Self::bucket_index(lo);
            h.buckets[index] += n;
            h.count += n;
            let (bucket_lo, bucket_hi) = Self::bucket_bounds(index);
            h.min = h.min.min(bucket_lo);
            h.max = h.max.max(bucket_hi - 1);
        }
        h.sum = sum;
        h
    }

    /// Add every sample of `other` into `self`.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, &o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Reset to empty.
    pub fn reset(&mut self) {
        *self = LatencyHistogram::new();
    }

    /// Export non-empty buckets as `{"count":..,"sum":..,"buckets":{"lo":n}}`
    /// where each bucket is keyed by its inclusive lower bound.
    pub fn to_json(&self) -> String {
        let mut buckets = String::new();
        let mut first = true;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if !first {
                buckets.push(',');
            }
            first = false;
            buckets.push_str(&format!("\"{}\":{}", Self::bucket_bounds(i).0, n));
        }
        format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":{{{}}}}}",
            self.count,
            self.sum,
            self.min().unwrap_or(0),
            self.max().unwrap_or(0),
            buckets
        )
    }
}

/// One histogram per [`AccessClass`].
///
/// Exported bucket names are sticky: once a bucket was non-zero at an
/// [`LatencyHistograms::export`], every later export writes it, so a
/// [`LatencyHistograms::reset`] shows up as an explicit zero rather than a
/// vanished counter. A bucket that is recorded and reset between two
/// exports never appears.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencyHistograms {
    hists: [LatencyHistogram; 6],
    /// Per class, bit `i` set when bucket `i` was non-zero at an earlier
    /// export. Not cleared by [`LatencyHistograms::reset`].
    exported: [u128; 6],
}

impl LatencyHistograms {
    /// All-empty histograms.
    pub fn new() -> LatencyHistograms {
        LatencyHistograms::default()
    }

    /// Record one access latency under its class.
    #[inline]
    pub fn record(&mut self, class: AccessClass, cycles: u64) {
        self.hists[class.index()].record(cycles);
    }

    /// The histogram for one class.
    pub fn class(&self, class: AccessClass) -> &LatencyHistogram {
        &self.hists[class.index()]
    }

    /// Total samples across classes.
    pub fn total_count(&self) -> u64 {
        self.hists.iter().map(LatencyHistogram::count).sum()
    }

    /// Merge another set class-wise.
    pub fn merge(&mut self, other: &LatencyHistograms) {
        for (h, o) in self.hists.iter_mut().zip(other.hists.iter()) {
            h.merge(o);
        }
    }

    /// Reset every class.
    pub fn reset(&mut self) {
        for h in &mut self.hists {
            h.reset();
        }
    }

    /// Export summary counters (`<prefix>.<class>.count|cycles`) plus the
    /// raw bucket occupancy (`<prefix>.<class>.bucket.<lo>`, keyed by the
    /// bucket's inclusive lower bound) into a registry.
    ///
    /// Bucket counts — unlike percentile values — are plain counters, so
    /// they stay correct under [`crate::Snapshot::merge`] and
    /// [`crate::Snapshot::delta`]; analysis tools rebuild the distribution
    /// with [`LatencyHistogram::from_bucket_counts`] and compute percentiles
    /// at read time.
    ///
    /// A bucket is written when it is non-zero now or was at an earlier
    /// export (see the type docs).
    pub fn export(&mut self, reg: &mut MetricsRegistry, prefix: &str) {
        for class in AccessClass::ALL {
            let (idx, label) = (class.index(), class.label());
            let h = &self.hists[idx];
            reg.set(format!("{prefix}.{label}.count"), h.count());
            reg.set(format!("{prefix}.{label}.cycles"), h.sum());
            for (i, &n) in h.buckets.iter().enumerate() {
                self.exported[idx] |= u128::from(n != 0) << i;
                if self.exported[idx] & (1 << i) != 0 {
                    let lo = LatencyHistogram::bucket_bounds(i).0;
                    reg.set(format!("{prefix}.{label}.bucket.{lo}"), n);
                }
            }
        }
    }

    /// Export every class as JSON, keyed by class label.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = AccessClass::ALL
            .iter()
            .map(|&c| format!("\"{}\":{}", c.label(), self.class(c).to_json()))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 1);
        assert_eq!(LatencyHistogram::bucket_index(2), 2);
        assert_eq!(LatencyHistogram::bucket_index(3), 2);
        assert_eq!(LatencyHistogram::bucket_index(4), 3);
        assert_eq!(LatencyHistogram::bucket_index(1023), 10);
        assert_eq!(LatencyHistogram::bucket_index(1024), 11);
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bounds_cover_the_line_without_overlap() {
        let mut prev_hi = 0;
        for i in 0..HIST_BUCKETS {
            let (lo, hi) = LatencyHistogram::bucket_bounds(i);
            assert_eq!(lo, prev_hi, "bucket {i} must start where {} ended", i - 1);
            assert!(hi > lo);
            prev_hi = hi;
        }
        assert_eq!(prev_hi, u64::MAX);
    }

    #[test]
    fn record_tracks_summary_stats() {
        let mut h = LatencyHistogram::new();
        for v in [3, 14, 57, 3] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 77);
        assert_eq!(h.min(), Some(3));
        assert_eq!(h.max(), Some(57));
        assert_eq!(h.bucket(2), 2, "two samples in [2,4)");
        assert_eq!(h.bucket(4), 1, "one sample in [8,16)");
        assert_eq!(h.bucket(6), 1, "one sample in [32,64)");
    }

    #[test]
    fn merge_equals_recording_both_streams() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut both = LatencyHistogram::new();
        for v in [1u64, 9, 200] {
            a.record(v);
            both.record(v);
        }
        for v in [0u64, 64, 1_000_000] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn percentile_finds_the_right_bucket() {
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(3); // bucket [2,4)
        }
        h.record(1000); // bucket [512,1024)
        assert_eq!(h.percentile(50.0), Some(4));
        assert_eq!(h.percentile(100.0), Some(1024));
        assert_eq!(LatencyHistogram::new().percentile(50.0), None);
    }

    #[test]
    fn class_set_records_and_exports() {
        let mut set = LatencyHistograms::new();
        set.record(AccessClass::ReadTlbHit, 3);
        set.record(AccessClass::ReadWalk, 57);
        set.record(AccessClass::ReadWalk, 61);
        let mut reg = MetricsRegistry::new();
        set.export(&mut reg, "hist");
        assert_eq!(reg.value("hist.read_tlb_hit.count"), 1);
        assert_eq!(reg.value("hist.read_walk.count"), 2);
        assert_eq!(reg.value("hist.read_walk.cycles"), 118);
        assert_eq!(set.total_count(), 3);
        assert!(set.to_json().contains("\"read_walk\":{\"count\":2"));
    }

    #[test]
    fn export_includes_bucket_occupancy() {
        let mut set = LatencyHistograms::new();
        set.record(AccessClass::ReadWalk, 3); // bucket [2,4), lo = 2
        set.record(AccessClass::ReadWalk, 3);
        set.record(AccessClass::ReadWalk, 57); // bucket [32,64), lo = 32
        let mut reg = MetricsRegistry::new();
        set.export(&mut reg, "hist");
        assert_eq!(reg.value("hist.read_walk.bucket.2"), 2);
        assert_eq!(reg.value("hist.read_walk.bucket.32"), 1);
        assert_eq!(
            reg.value("hist.read_walk.bucket.4"),
            0,
            "empty buckets omitted"
        );
    }

    #[test]
    fn from_bucket_counts_preserves_percentiles() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 3, 3, 14, 57, 57, 57, 1000] {
            h.record(v);
        }
        let pairs: Vec<(u64, u64)> = (0..HIST_BUCKETS)
            .filter(|&i| h.bucket(i) != 0)
            .map(|i| (LatencyHistogram::bucket_bounds(i).0, h.bucket(i)))
            .collect();
        let back = LatencyHistogram::from_bucket_counts(pairs, h.sum());
        assert_eq!(back.count(), h.count());
        assert_eq!(back.sum(), h.sum());
        for p in [0.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(back.percentile(p), h.percentile(p), "p{p}");
        }
    }

    // Satellite: percentile edge cases.

    #[test]
    fn percentile_single_bucket() {
        // Every sample in one bucket: every percentile is that bucket's
        // upper bound.
        let mut h = LatencyHistogram::new();
        for _ in 0..17 {
            h.record(5); // bucket [4,8)
        }
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), Some(8), "p{p}");
        }
    }

    #[test]
    fn percentile_saturating_top_bucket() {
        // Samples in the top bucket [2^63, u64::MAX]: its exclusive upper
        // bound saturates at u64::MAX instead of wrapping.
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(1 << 63);
        assert_eq!(h.percentile(50.0), Some(u64::MAX));
        assert_eq!(h.percentile(100.0), Some(u64::MAX));
    }

    #[test]
    fn percentile_p0_and_p100() {
        let mut h = LatencyHistogram::new();
        h.record(0); // bucket 0, upper bound 1
        for _ in 0..9 {
            h.record(100); // bucket [64,128)
        }
        // p0 clamps its rank to the first sample: the zero bucket.
        assert_eq!(h.percentile(0.0), Some(1));
        // p100 is the bucket of the largest sample.
        assert_eq!(h.percentile(100.0), Some(128));
    }

    #[test]
    fn percentile_zero_only_histogram() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        assert_eq!(h.percentile(0.0), Some(1));
        assert_eq!(h.percentile(100.0), Some(1));
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(0));
    }

    #[test]
    fn export_keeps_seen_buckets_across_resets() {
        let mut set = LatencyHistograms::new();
        set.record(AccessClass::ReadWalk, 3);
        set.record(AccessClass::WriteTlbHit, 100);
        let mut reg = MetricsRegistry::new();
        set.export(&mut reg, "hist");
        assert_eq!(reg.value("hist.read_walk.bucket.2"), 1);
        assert_eq!(reg.value("hist.write_tlb_hit.bucket.64"), 1);

        // After a reset, previously-exported buckets are written as zero.
        set.reset();
        let mut reg = MetricsRegistry::new();
        set.export(&mut reg, "hist");
        let snap = reg.snapshot();
        assert_eq!(snap.get("hist.read_walk.bucket.2"), Some(0));
        assert_eq!(snap.get("hist.write_tlb_hit.bucket.64"), Some(0));
        assert_eq!(snap.get("hist.read_walk.count"), Some(0));
    }

    #[test]
    fn bucket_recorded_and_reset_before_any_export_stays_absent() {
        let mut set = LatencyHistograms::new();
        set.record(AccessClass::ReadWalk, 3);
        set.reset();
        set.record(AccessClass::ReadWalk, 57);
        let mut reg = MetricsRegistry::new();
        set.export(&mut reg, "hist");
        let snap = reg.snapshot();
        assert_eq!(snap.get("hist.read_walk.bucket.2"), None);
        assert_eq!(snap.get("hist.read_walk.bucket.32"), Some(1));
        assert_eq!(snap.get("hist.read_walk.count"), Some(1));
    }
}
