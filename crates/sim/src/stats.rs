//! Latency and throughput statistics.

/// Exact 1-cycle bins covering latencies 0..=1024.
const LINEAR_BINS: usize = 1025;
/// Geometric tail resolution: bins per factor-of-two of latency.
const BINS_PER_OCTAVE: usize = 8;
/// Octaves covered by the tail (up to 1024 * 2^20 ≈ 10^9 cycles; anything
/// beyond clamps into the last bin).
const TAIL_OCTAVES: usize = 20;
const TAIL_BINS: usize = BINS_PER_OCTAVE * TAIL_OCTAVES;

/// Aggregated latency statistics over measured packets.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyStats {
    count: u64,
    total: f64,
    max: f64,
    /// Latency histogram used for percentile estimates without storing
    /// every sample: 1-cycle bins up to 1024 cycles, then geometric bins
    /// ([`BINS_PER_OCTAVE`] per factor of two) so congested runs report
    /// real tail percentiles instead of clamping to 1024.
    histogram: Vec<u64>,
}

/// `Default` must produce the same ready-to-record state as [`new`]: the
/// derived implementation used to yield an *empty* histogram, so
/// `LatencyStats::default().record(x)` underflowed on
/// `self.histogram.len() - 1`.
///
/// [`new`]: LatencyStats::new
impl Default for LatencyStats {
    fn default() -> Self {
        LatencyStats::new()
    }
}

impl LatencyStats {
    /// Empty statistics.
    pub fn new() -> Self {
        LatencyStats {
            count: 0,
            total: 0.0,
            max: 0.0,
            histogram: vec![0; LINEAR_BINS + TAIL_BINS],
        }
    }

    /// The histogram bin for a latency: exact below the linear range,
    /// geometric above it.
    fn bin_of(latency_cycles: f64) -> usize {
        let rounded = latency_cycles.round().max(0.0);
        if rounded < LINEAR_BINS as f64 {
            rounded as usize
        } else {
            let octaves = (rounded / (LINEAR_BINS - 1) as f64).log2();
            let tail = (octaves * BINS_PER_OCTAVE as f64) as usize;
            LINEAR_BINS + tail.min(TAIL_BINS - 1)
        }
    }

    /// The representative latency of a bin: the bin itself in the linear
    /// range, the log-space midpoint of a geometric tail bin.
    fn bin_value(bin: usize) -> f64 {
        if bin < LINEAR_BINS {
            bin as f64
        } else {
            let tail = (bin - LINEAR_BINS) as f64;
            (LINEAR_BINS - 1) as f64 * ((tail + 0.5) / BINS_PER_OCTAVE as f64).exp2()
        }
    }

    /// Record one packet latency (in cycles).
    pub fn record(&mut self, latency_cycles: f64) {
        self.count += 1;
        self.total += latency_cycles;
        if latency_cycles > self.max {
            self.max = latency_cycles;
        }
        self.histogram[Self::bin_of(latency_cycles)] += 1;
    }

    /// Number of recorded packets.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in cycles (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total / self.count as f64
        }
    }

    /// Maximum observed latency in cycles.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Approximate percentile (e.g. 0.99) from the histogram.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (bin, &c) in self.histogram.iter().enumerate() {
            seen += c;
            if seen >= target {
                // A geometric bin's midpoint can overshoot the largest
                // sample actually seen; the true value never can.
                return Self::bin_value(bin).min(self.max);
            }
        }
        self.max
    }

    /// Merge another set of statistics into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.count += other.count;
        self.total += other.total;
        self.max = self.max.max(other.max);
        if self.histogram.len() < other.histogram.len() {
            self.histogram.resize(other.histogram.len(), 0);
        }
        for (bin, &c) in other.histogram.iter().enumerate() {
            self.histogram[bin] += c;
        }
    }

    /// Merge statistics recorded in another time unit, multiplying each of
    /// their latencies by `factor`: `1 / freq_scale` reads a downclocked
    /// run's cycles at the nominal clock.  Each bin's representative value
    /// is scaled and re-binned; the total and the maximum are scaled
    /// exactly.  A factor of 1.0 gives exactly [`LatencyStats::merge`]'s
    /// result: every bin's value re-bins to the bin itself.
    pub fn merge_scaled(&mut self, other: &LatencyStats, factor: f64) {
        self.count += other.count;
        self.total += other.total * factor;
        self.max = self.max.max(other.max * factor);
        for (bin, &c) in other.histogram.iter().enumerate() {
            if c > 0 {
                self.histogram[Self::bin_of(Self::bin_value(bin) * factor)] += c;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_max_and_count() {
        let mut s = LatencyStats::new();
        for l in [10.0, 20.0, 30.0] {
            s.record(l);
        }
        assert_eq!(s.count(), 3);
        assert!((s.mean() - 20.0).abs() < 1e-9);
        assert_eq!(s.max(), 30.0);
    }

    #[test]
    fn percentile_is_monotone() {
        let mut s = LatencyStats::new();
        for i in 0..100 {
            s.record(i as f64);
        }
        assert!(s.percentile(0.5) <= s.percentile(0.9));
        assert!(s.percentile(0.9) <= s.percentile(1.0) + 1e-9);
        assert!(s.percentile(0.99) >= 90.0);
    }

    #[test]
    fn merge_combines_counts_and_means() {
        let mut a = LatencyStats::new();
        a.record(10.0);
        let mut b = LatencyStats::new();
        b.record(30.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = LatencyStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentile(0.99), 0.0);
    }

    #[test]
    fn tail_percentiles_are_not_clamped_to_1024() {
        // Regression: with 1-cycle bins ending at 1024, every latency
        // above the range fell into the last bin and p95/p99 reported
        // exactly 1024 on congested runs.
        let mut s = LatencyStats::new();
        for i in 0..100 {
            s.record(2_000.0 + 40.0 * i as f64); // 2000..=5960
        }
        let p50 = s.percentile(0.5);
        let p95 = s.percentile(0.95);
        let p99 = s.percentile(0.99);
        assert!(p50 > 1024.0, "p50 clamped: {p50}");
        assert!(p95 > 1024.0, "p95 clamped: {p95}");
        // Geometric bins are ~9% wide; allow that much error around the
        // exact sample percentiles.
        assert!((p50 - 3_980.0).abs() / 3_980.0 < 0.10, "p50 = {p50}");
        assert!((p95 - 5_760.0).abs() / 5_760.0 < 0.10, "p95 = {p95}");
        assert!(p95 <= p99 && p99 <= s.max() + 1e-9);
    }

    #[test]
    fn extreme_latencies_clamp_into_the_last_bin() {
        let mut s = LatencyStats::new();
        s.record(1e18);
        s.record(5.0);
        assert_eq!(s.count(), 2);
        // The sample lands in the last geometric bin (~10^9 cycles): the
        // estimate keeps its order of magnitude floor instead of clamping
        // to 1024, and never exceeds the observed max.
        let p = s.percentile(1.0);
        assert!(p >= 1e8 && p <= s.max(), "p100 = {p}");
    }

    #[test]
    fn linear_range_percentiles_stay_exact() {
        let mut s = LatencyStats::new();
        for i in 0..=1000 {
            s.record(i as f64);
        }
        assert_eq!(s.percentile(0.95), 950.0);
        assert_eq!(s.percentile(0.99), 990.0);
    }

    #[test]
    fn merge_combines_tail_histograms() {
        let mut a = LatencyStats::new();
        a.record(4_000.0);
        let mut b = LatencyStats::new();
        b.record(4_000.0);
        b.record(8_000.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        let p = a.percentile(0.5);
        assert!((p - 4_000.0).abs() / 4_000.0 < 0.10, "median = {p}");
    }

    #[test]
    fn merge_scaled_by_one_is_the_plain_merge() {
        let mut base = LatencyStats::new();
        base.record(3.0);
        // One sample in every bin, linear and geometric, plus one beyond
        // the last tail bin.
        let mut other = LatencyStats::new();
        for bin in 0..LINEAR_BINS + TAIL_BINS {
            other.record(LatencyStats::bin_value(bin));
        }
        other.record(1e12);
        let mut plain = base.clone();
        plain.merge(&other);
        let mut scaled = base;
        scaled.merge_scaled(&other, 1.0);
        assert_eq!(scaled, plain);
        assert_eq!(scaled.total.to_bits(), plain.total.to_bits());
    }

    #[test]
    fn merge_scaled_multiplies_every_latency() {
        let mut slow = LatencyStats::new();
        for l in [10.0, 20.0, 30.0, 3_000.0] {
            slow.record(l);
        }
        let mut s = LatencyStats::new();
        s.merge_scaled(&slow, 2.0);
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), 2.0 * slow.mean());
        assert_eq!(s.max(), 6_000.0);
        // Linear-range bins land on the exact doubled latencies.
        assert_eq!(s.percentile(0.25), 20.0);
        assert_eq!(s.percentile(0.5), 40.0);
        assert_eq!(s.percentile(0.75), 60.0);
        // A tail bin keeps its ~9% resolution around the doubled value.
        let top = s.percentile(1.0);
        assert!((top - 6_000.0).abs() / 6_000.0 < 0.10, "p100 = {top}");
    }

    #[test]
    fn default_can_record_without_panicking() {
        // Regression: the derived Default produced an empty histogram and
        // `record` underflowed on `histogram.len() - 1`.
        let mut s = LatencyStats::default();
        s.record(12.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s, {
            let mut n = LatencyStats::new();
            n.record(12.0);
            n
        });
    }
}
