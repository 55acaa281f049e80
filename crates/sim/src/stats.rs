//! Measurement primitives: latency summaries and utilization meters.
//!
//! These back the simulated EV7 performance counters that the paper's Xmesh
//! tool reads (Figs. 10–11, 20, 22, 24, 27).

use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimTime};

/// Mean, median, and p99 of a stream of durations.
///
/// The mean streams (running sum); the quantiles are the nearest-rank-below
/// rule `sorted[(n - 1) * p / 100]`, which needs the sample order, so
/// samples are kept and sorted once when the accumulator is consumed by
/// [`finish`](Self::finish) or [`finish_full`](Self::finish_full). This is
/// the one shared implementation behind every latency summary — the
/// fault-campaign resilience sweep, the telemetry experiment, and the
/// per-window latency series of the timeline artifact all report exactly
/// these numbers.
///
/// # Examples
///
/// ```
/// use alphasim_kernel::stats::MeanP50P99;
/// use alphasim_kernel::SimDuration;
///
/// let mut q = MeanP50P99::new();
/// for ns in [10.0, 20.0, 30.0] {
///     q.record(SimDuration::from_ns(ns));
/// }
/// let (mean, p50, p99) = q.finish_full();
/// assert_eq!(mean, SimDuration::from_ns(20.0));
/// assert_eq!(p50, SimDuration::from_ns(20.0)); // rank (3-1)*50/100 = 1
/// assert_eq!(p99, SimDuration::from_ns(20.0)); // rank (3-1)*99/100 = 1
/// ```
#[derive(Debug, Clone, Default)]
pub struct MeanP50P99 {
    samples: Vec<SimDuration>,
}

/// The accumulator's historical name, kept so existing call sites and
/// docs keep reading naturally where only `(mean, p99)` is consumed.
pub type MeanP99 = MeanP50P99;

impl MeanP50P99 {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty accumulator with room for `cap` samples.
    pub fn with_capacity(cap: usize) -> Self {
        MeanP50P99 {
            samples: Vec::with_capacity(cap),
        }
    }

    /// Add one sample.
    pub fn record(&mut self, d: SimDuration) {
        self.samples.push(d);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Consume the accumulator, returning `(mean, p99)` — both
    /// [`SimDuration::ZERO`] when empty. The historical two-value summary;
    /// byte-compatible with every committed artifact.
    pub fn finish(self) -> (SimDuration, SimDuration) {
        let (mean, _, p99) = self.finish_full();
        (mean, p99)
    }

    /// Consume the accumulator, returning `(mean, p50, p99)` — all
    /// [`SimDuration::ZERO`] when empty. The quantiles share the
    /// nearest-rank-below rule, so the p99 is bit-identical to what
    /// [`finish`](Self::finish) has always reported.
    pub fn finish_full(mut self) -> (SimDuration, SimDuration, SimDuration) {
        self.samples.sort_unstable();
        let mean = if self.samples.is_empty() {
            SimDuration::ZERO
        } else {
            self.samples.iter().copied().sum::<SimDuration>() / self.samples.len() as u64
        };
        let rank = |p: usize| {
            self.samples
                .get(self.samples.len().saturating_sub(1) * p / 100)
                .copied()
                .unwrap_or(SimDuration::ZERO)
        };
        (mean, rank(50), rank(99))
    }
}

/// Tracks busy time of a resource (a link, a Zbox) to report utilization:
/// the fraction of wall-clock simulation time the resource spent serving.
///
/// # Examples
///
/// ```
/// use alphasim_kernel::stats::UtilizationMeter;
/// use alphasim_kernel::{SimTime, SimDuration};
/// let mut m = UtilizationMeter::new();
/// m.add_busy(SimDuration::from_ns(25.0));
/// assert_eq!(m.utilization(SimTime::from_ps(100_000)), 0.25);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct UtilizationMeter {
    busy: SimDuration,
    bytes: u64,
}

impl UtilizationMeter {
    /// A meter with no accumulated busy time.
    pub fn new() -> Self {
        Self::default()
    }

    /// Account `d` of busy (serving) time.
    pub fn add_busy(&mut self, d: SimDuration) {
        self.busy += d;
    }

    /// Account `n` bytes transferred (for bandwidth reporting).
    pub fn add_bytes(&mut self, n: u64) {
        self.bytes += n;
    }

    /// Accumulated busy time.
    pub fn busy(&self) -> SimDuration {
        self.busy
    }

    /// Bytes transferred.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Busy fraction of the interval `[0, now]`, clamped to `[0, 1]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        (self.busy.as_ps() as f64 / now.as_ps() as f64).min(1.0)
    }

    /// Achieved bandwidth in GB/s over `[0, now]`.
    pub fn bandwidth_gbps(&self, now: SimTime) -> f64 {
        let secs = now.as_secs();
        if secs == 0.0 {
            0.0
        } else {
            self.bytes as f64 / 1e9 / secs
        }
    }

    /// Reset both accumulators (used at sampling boundaries).
    pub fn reset(&mut self) {
        self.busy = SimDuration::ZERO;
        self.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_p99_empty_is_zero() {
        let q = MeanP99::new();
        assert!(q.is_empty());
        assert_eq!(q.finish(), (SimDuration::ZERO, SimDuration::ZERO));
    }

    #[test]
    fn mean_p99_matches_sort_based_reference() {
        // The nearest-rank-below rule the resilience sweep has always used:
        // sorted[(n - 1) * 99 / 100].
        let mut q = MeanP99::with_capacity(200);
        let mut reference: Vec<SimDuration> = Vec::new();
        let mut x = 7u64;
        for _ in 0..200 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let d = SimDuration::from_ps(x % 1_000_000);
            q.record(d);
            reference.push(d);
        }
        assert_eq!(q.count(), 200);
        reference.sort_unstable();
        let want_mean = reference.iter().copied().sum::<SimDuration>() / reference.len() as u64;
        let want_p99 = reference[(reference.len() - 1) * 99 / 100];
        assert_eq!(q.finish(), (want_mean, want_p99));
    }

    #[test]
    fn p50_uses_the_same_rank_rule_and_leaves_p99_untouched() {
        // The satellite's contract: adding the median must not move the
        // two historically committed numbers by a single bit.
        let mut q = MeanP50P99::with_capacity(101);
        let mut reference: Vec<SimDuration> = Vec::new();
        let mut x = 99u64;
        for _ in 0..101 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let d = SimDuration::from_ps(x % 5_000_000);
            q.record(d);
            reference.push(d);
        }
        let legacy = q.clone().finish();
        let (mean, p50, p99) = q.finish_full();
        assert_eq!((mean, p99), legacy, "finish() must be unchanged");
        reference.sort_unstable();
        assert_eq!(p50, reference[(reference.len() - 1) * 50 / 100]);
        assert!(p50 <= p99, "quantiles must be monotone");
    }

    #[test]
    fn finish_full_empty_is_all_zero() {
        assert_eq!(
            MeanP50P99::new().finish_full(),
            (SimDuration::ZERO, SimDuration::ZERO, SimDuration::ZERO)
        );
    }

    #[test]
    fn utilization_meter_fraction_and_bandwidth() {
        let mut m = UtilizationMeter::new();
        m.add_busy(SimDuration::from_ns(30.0));
        m.add_bytes(64);
        let now = SimTime::from_ps(60_000); // 60 ns
        assert!((m.utilization(now) - 0.5).abs() < 1e-12);
        // 64 bytes in 60ns = 1.0667 GB/s
        assert!((m.bandwidth_gbps(now) - 64.0 / 60.0).abs() < 1e-9);
        m.reset();
        assert_eq!(m.utilization(now), 0.0);
        assert_eq!(m.bytes(), 0);
    }

    #[test]
    fn utilization_clamped_to_one() {
        let mut m = UtilizationMeter::new();
        m.add_busy(SimDuration::from_ns(100.0));
        assert_eq!(m.utilization(SimTime::from_ps(50_000)), 1.0);
        assert_eq!(m.utilization(SimTime::ZERO), 0.0);
    }
}
