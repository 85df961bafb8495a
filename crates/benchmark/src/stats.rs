//! Order statistics: percentiles with the "ten samples beyond" rule, medians
//! and the quartile spread the repeatability criterion is stated in.

/// Percentiles a latency distribution is reported at, lowest first.
pub const REPORTED_PERCENTILES: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// A percentile is only as good as the samples beyond it: with fewer than
/// this many above the cut, the value is a handful of outliers, not a tail.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Wall times of one kind of driver call.
///
/// Stored as whole nanoseconds in a buffer reserved once at its cap, so the
/// harness's own memory neither reallocates mid-run nor grows without bound
/// when the program gets faster — `peak_rss_mb` should move with the
/// program, not with how many samples the benchmark kept. Calls beyond the
/// cap are still counted and summed, just not kept for the percentiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Samples {
    ns: Vec<u32>,
    count: u64,
    total_ns: u64,
}

impl Samples {
    /// Samples kept for the percentiles (4 MiB of address space, touched
    /// only as far as it fills).
    pub const CAP: usize = 1 << 20;

    /// Records one call.
    pub fn push(&mut self, elapsed: std::time::Duration) {
        let ns = elapsed.as_nanos();
        self.count += 1;
        self.total_ns += ns as u64;
        if self.ns.len() < Self::CAP {
            self.ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
        }
    }

    /// Calls recorded, kept or not.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Summed wall time of all calls, in seconds.
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// The kept samples in µs, ascending.
    pub fn sorted_us(&self) -> Vec<f64> {
        let mut ns = self.ns.clone();
        ns.sort_unstable();
        ns.into_iter().map(|ns| f64::from(ns) / 1e3).collect()
    }
}

impl Default for Samples {
    fn default() -> Self {
        Self {
            ns: Vec::with_capacity(Self::CAP),
            count: 0,
            total_ns: 0,
        }
    }
}

/// Sorts values ascending (`NaN`-free by construction: they are measured).
fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the distribution at or below it. `0.0` for no samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match nearest_rank(sorted.len(), p) {
        0 => 0.0,
        rank => sorted[rank - 1],
    }
}

/// The 1-based nearest rank of percentile `p` among `n` ascending samples
/// (`0` only for `n == 0`).
pub fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(usize::from(n > 0), n)
}

/// Number of samples strictly beyond the nearest-rank cut of percentile `p`
/// among `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// The highest of [`REPORTED_PERCENTILES`] that still has at least
/// [`MIN_SAMPLES_BEYOND`] samples beyond it, or `None` when not even the
/// median does (fewer than 20 samples).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    REPORTED_PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|&p| samples_beyond(n, p) >= MIN_SAMPLES_BEYOND)
}

/// Median of unsorted values (mean of the two middle ones for an even
/// count). `0.0` for no values.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values.to_vec());
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (default *exclusive* method) gives
/// them — the definition the repeatability criterion uses. `None` for
/// fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values.to_vec());
    let m = data.len();
    if m < 2 {
        return None;
    }
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(cuts)
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// of one metric. `None` for fewer than two values or a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), 50.0);
        assert_eq!(percentile(&samples, 0.99), 99.0);
        assert_eq!(percentile(&samples, 1.0), 100.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // 1000 samples: exactly ten lie beyond p99, one beyond p999.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(1000, 0.999), 1);
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        // One sample fewer and p99 has only nine beyond: fall back to p90.
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(highest_supported_percentile(999), Some(0.9));
        assert_eq!(highest_supported_percentile(448), Some(0.9));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(99), Some(0.5));
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(1_250_000), Some(0.9999));
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn samples_keep_nanoseconds_and_count_beyond_the_cap() {
        let mut samples = Samples::default();
        for ns in [3_000u64, 1_500, 2_250] {
            samples.push(std::time::Duration::from_nanos(ns));
        }
        assert_eq!(samples.sorted_us(), vec![1.5, 2.25, 3.0]);
        assert_eq!(samples.count(), 3);
        assert!((samples.total_s() - 6.75e-6).abs() < 1e-15);
        for _ in 0..Samples::CAP {
            samples.push(std::time::Duration::from_nanos(10));
        }
        assert_eq!(samples.count(), 3 + Samples::CAP as u64);
        assert_eq!(samples.sorted_us().len(), Samples::CAP);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = quartile_spread(&values).unwrap();
        assert!((spread - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[0.0, 0.0, 0.0]), None);
    }
}
