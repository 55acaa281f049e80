//! Order statistics, the tail-percentile rule, digests and metric names.

/// Percentiles the tail rule may pick, lowest first, in hundredths of a
/// percent so that ranks are exact integer arithmetic.
const TAIL_LADDER: [u64; 7] = [5000, 7500, 9000, 9500, 9900, 9990, 9999];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of the percentile `hundredths / 100` among `n`
/// sorted samples.
fn nearest_rank(hundredths: u64, n: usize) -> usize {
    let n64 = n as u64;
    (hundredths * n64).div_ceil(10_000).clamp(1, n64) as usize
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`] of `n`
/// samples above its nearest rank, or `None` when even the median has
/// fewer than that beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rfind(|&p| n - nearest_rank(p, n) >= TAIL_MIN_BEYOND)
        .map(|p| p as f64 / 100.0)
}

/// The nearest-rank percentile `p` (in percent, to 0.01) of `values`,
/// which need not be sorted.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank((p * 100.0).round() as u64, sorted.len()) - 1]
}

/// The median of `values`, averaging the middle pair for even counts.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// FNV-1a over 64-bit words: a stable digest of simulated statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word into the digest.
    pub fn word(mut self, w: u64) -> Self {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Fold a float by its exact bit pattern.
    pub fn float(self, x: f64) -> Self {
        self.word(x.to_bits())
    }
}

/// SplitMix64 of `seed` salted by `salt`: independent per-unit seeds from
/// the one workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether `name` is a legal metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond_the_pick() {
        // Fewer than 20 samples: not even the median has ten beyond it.
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(47), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(158), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 20..3000 {
            let p = (tail_percentile(n).unwrap() * 100.0).round() as u64;
            assert!(n - nearest_rank(p, n) >= TAIL_MIN_BEYOND, "n={n} p={p}");
            if let Some(&next) = TAIL_LADDER.iter().find(|&&q| q > p) {
                assert!(
                    n - nearest_rank(next, n) < TAIL_MIN_BEYOND,
                    "n={n} skipped {next}"
                );
            }
        }
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn metric_name_rule() {
        assert!(valid_metric_name("cache.ns_per_load.subline"));
        assert!(valid_metric_name("unit_ns_per_op_p50"));
        assert!(!valid_metric_name(".hidden"));
        assert!(!valid_metric_name("a b"));
        assert!(!valid_metric_name("x/y"));
        assert!(!valid_metric_name(&"a".repeat(65)));
    }

    #[test]
    fn digest_and_mix_are_stable() {
        assert_eq!(Digest::default().word(1), Digest::default().word(1));
        assert_ne!(Digest::default().word(1), Digest::default().word(2));
        assert_eq!(mix(7, 3), mix(7, 3));
        assert_ne!(mix(7, 3), mix(8, 3));
        assert_ne!(mix(7, 3), mix(7, 4));
    }
}
