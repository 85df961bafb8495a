//! Per-attribute value statistics: numeric histograms and categorical
//! frequency tables.

use pubsub_core::Value;
use std::collections::HashMap;

/// Default number of buckets used by [`NumericHistogram`].
pub const DEFAULT_BUCKETS: usize = 64;

/// An equi-width histogram over numeric attribute values.
///
/// The histogram answers three questions about a *random observed value* of
/// the attribute: which fraction lies below a threshold, above a threshold,
/// or exactly equals a constant. Fractions are relative to the number of
/// numeric observations recorded in the histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct NumericHistogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    total: u64,
    /// Exact counts for a limited number of distinct values, used to answer
    /// equality selectivities more precisely than a bucket-width heuristic.
    exact: HashMap<u64, u64>,
    exact_overflow: bool,
}

const MAX_EXACT_VALUES: usize = 1024;

impl NumericHistogram {
    /// Builds a histogram from observed values with the default bucket count.
    pub fn from_values(values: &[f64]) -> Self {
        Self::with_buckets(values, DEFAULT_BUCKETS)
    }

    /// Builds a histogram from observed values with a custom bucket count.
    ///
    /// Non-finite observations are ignored. An empty observation list yields
    /// a histogram that reports selectivity 0 for every question.
    pub fn with_buckets(values: &[f64], bucket_count: usize) -> Self {
        let bucket_count = bucket_count.max(1);
        let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        if finite.is_empty() {
            return Self {
                lo: 0.0,
                hi: 0.0,
                buckets: vec![0; bucket_count],
                total: 0,
                exact: HashMap::new(),
                exact_overflow: false,
            };
        }
        let lo = finite.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut hist = Self {
            lo,
            hi,
            buckets: vec![0; bucket_count],
            total: 0,
            exact: HashMap::new(),
            exact_overflow: false,
        };
        for v in finite {
            hist.record(v);
        }
        hist
    }

    fn record(&mut self, v: f64) {
        let idx = self.bucket_of(v);
        self.buckets[idx] += 1;
        self.total += 1;
        if !self.exact_overflow {
            *self.exact.entry(v.to_bits()).or_insert(0) += 1;
            if self.exact.len() > MAX_EXACT_VALUES {
                self.exact.clear();
                self.exact_overflow = true;
            }
        }
    }

    fn bucket_of(&self, v: f64) -> usize {
        if self.hi <= self.lo {
            return 0;
        }
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        let idx = ((v - self.lo) / width).floor() as isize;
        idx.clamp(0, self.buckets.len() as isize - 1) as usize
    }

    /// Number of observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Smallest observed value.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Largest observed value.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Fraction of observations strictly below (`inclusive == false`) or at
    /// most (`inclusive == true`) the threshold.
    pub fn fraction_below(&self, threshold: f64, inclusive: bool) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        if threshold < self.lo || (threshold == self.lo && !inclusive) {
            return 0.0;
        }
        if threshold > self.hi || (threshold == self.hi && inclusive) {
            return 1.0;
        }
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        if width == 0.0 {
            // All mass at one point.
            return if threshold > self.lo || (threshold == self.lo && inclusive) {
                1.0
            } else {
                0.0
            };
        }
        let pos = (threshold - self.lo) / width;
        let full_buckets = pos.floor() as usize;
        let partial = pos - pos.floor();
        let mut count = 0.0;
        for (i, b) in self.buckets.iter().enumerate() {
            if i < full_buckets {
                count += *b as f64;
            } else if i == full_buckets {
                count += *b as f64 * partial;
            }
        }
        let mut frac = count / self.total as f64;
        if inclusive {
            frac += self.fraction_eq(threshold) * 0.5;
        }
        frac.clamp(0.0, 1.0)
    }

    /// Fraction of observations strictly above (`inclusive == false`) or at
    /// least (`inclusive == true`) the threshold.
    pub fn fraction_above(&self, threshold: f64, inclusive: bool) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        (1.0 - self.fraction_below(threshold, !inclusive)).clamp(0.0, 1.0)
    }

    /// Probability that two independently drawn observations are equal —
    /// the Simpson index of the observed value distribution.
    ///
    /// This is the expected selectivity of an equality predicate whose
    /// constant is itself drawn from the event stream, which makes it the
    /// natural score for ranking *discrimination* attributes: a low
    /// collision probability means an equality test on this attribute
    /// separates events well. Computed exactly (`Σ (c/total)²`) while the
    /// exact value table is intact; after overflow it falls back to the
    /// bucket counts, which upper-bounds the true probability.
    pub fn collision_probability(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let total = self.total as f64;
        let sum_sq: f64 = if self.exact_overflow {
            self.buckets
                .iter()
                .map(|&c| (c as f64 / total).powi(2))
                .sum()
        } else {
            self.exact
                .values()
                .map(|&c| (c as f64 / total).powi(2))
                .sum()
        };
        sum_sq.clamp(0.0, 1.0)
    }

    /// Fraction of observations exactly equal to the constant.
    pub fn fraction_eq(&self, constant: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        if !self.exact_overflow {
            return self
                .exact
                .get(&constant.to_bits())
                .map(|c| *c as f64 / self.total as f64)
                .unwrap_or(0.0);
        }
        if constant < self.lo || constant > self.hi {
            return 0.0;
        }
        // Fall back to assuming a uniform distribution inside the bucket.
        let bucket = self.buckets[self.bucket_of(constant)] as f64;
        let per_bucket_distinct = 16.0;
        (bucket / per_bucket_distinct / self.total as f64).clamp(0.0, 1.0)
    }
}

/// Frequency statistics over categorical (string or boolean) attribute values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CategoricalStats {
    counts: HashMap<String, u64>,
    total: u64,
}

impl CategoricalStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds statistics from observed string values.
    pub fn from_values<S: AsRef<str>>(values: &[S]) -> Self {
        let mut stats = Self::new();
        for v in values {
            stats.record(v.as_ref());
        }
        stats
    }

    /// Records one observation.
    pub fn record(&mut self, value: &str) {
        *self.counts.entry(value.to_owned()).or_insert(0) += 1;
        self.total += 1;
    }

    /// Number of observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct observed values.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Probability that two independently drawn observations are equal (the
    /// Simpson index, `Σ (c/total)²`). See
    /// [`NumericHistogram::collision_probability`] for why this scores
    /// discrimination attributes.
    pub fn collision_probability(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let total = self.total as f64;
        self.counts
            .values()
            .map(|&c| (c as f64 / total).powi(2))
            .sum::<f64>()
            .clamp(0.0, 1.0)
    }

    /// Fraction of observations equal to the constant.
    pub fn fraction_eq(&self, constant: &str) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.counts
            .get(constant)
            .map(|c| *c as f64 / self.total as f64)
            .unwrap_or(0.0)
    }

    /// Fraction of observations fulfilling an arbitrary string test. Used for
    /// prefix / suffix / contains predicates.
    pub fn fraction_matching(&self, mut test: impl FnMut(&str) -> bool) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let matching: u64 = self
            .counts
            .iter()
            .filter(|(v, _)| test(v))
            .map(|(_, c)| *c)
            .sum();
        matching as f64 / self.total as f64
    }

    /// Fraction of observations comparing as specified against a constant,
    /// used for ordering predicates over string values.
    pub fn fraction_cmp(&self, constant: &str, accept: impl Fn(std::cmp::Ordering) -> bool) -> f64 {
        self.fraction_matching(|v| accept(v.cmp(constant)))
    }
}

/// Helper converting a [`Value`] to an f64 observation if it is numeric.
pub(crate) fn numeric_observation(value: &Value) -> Option<f64> {
    value.as_f64().filter(|v| v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_0_99() -> NumericHistogram {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        NumericHistogram::from_values(&values)
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = NumericHistogram::from_values(&[]);
        assert_eq!(h.total(), 0);
        assert_eq!(h.fraction_below(10.0, true), 0.0);
        assert_eq!(h.fraction_above(10.0, true), 0.0);
        assert_eq!(h.fraction_eq(10.0), 0.0);
    }

    #[test]
    fn uniform_distribution_fractions() {
        let h = uniform_0_99();
        assert_eq!(h.total(), 100);
        assert_eq!(h.lo(), 0.0);
        assert_eq!(h.hi(), 99.0);
        let below_50 = h.fraction_below(50.0, false);
        assert!((below_50 - 0.5).abs() < 0.05, "got {below_50}");
        let above_75 = h.fraction_above(75.0, false);
        assert!((above_75 - 0.25).abs() < 0.05, "got {above_75}");
        // Out-of-range thresholds saturate.
        assert_eq!(h.fraction_below(-5.0, true), 0.0);
        assert_eq!(h.fraction_below(200.0, true), 1.0);
        assert_eq!(h.fraction_above(200.0, true), 0.0);
        assert_eq!(h.fraction_above(-5.0, true), 1.0);
    }

    #[test]
    fn exact_equality_counts() {
        let values = vec![1.0, 1.0, 1.0, 2.0, 3.0, 3.0, 4.0, 4.0, 4.0, 4.0];
        let h = NumericHistogram::from_values(&values);
        assert!((h.fraction_eq(1.0) - 0.3).abs() < 1e-9);
        assert!((h.fraction_eq(2.0) - 0.1).abs() < 1e-9);
        assert!((h.fraction_eq(4.0) - 0.4).abs() < 1e-9);
        assert_eq!(h.fraction_eq(9.0), 0.0);
    }

    #[test]
    fn single_point_distribution() {
        let h = NumericHistogram::from_values(&[5.0; 20]);
        assert_eq!(h.fraction_eq(5.0), 1.0);
        assert_eq!(h.fraction_below(4.9, true), 0.0);
        assert_eq!(h.fraction_above(5.1, true), 0.0);
        assert_eq!(h.fraction_below(5.0, false), 0.0);
        assert!(h.fraction_below(5.0, true) > 0.0);
    }

    #[test]
    fn non_finite_values_are_ignored() {
        let h = NumericHistogram::from_values(&[1.0, f64::NAN, 2.0, f64::INFINITY]);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn below_and_above_are_complementary() {
        let h = uniform_0_99();
        for t in [0.0, 10.0, 33.3, 50.0, 77.7, 99.0] {
            let below = h.fraction_below(t, false);
            let above = h.fraction_above(t, true);
            assert!(
                (below + above - 1.0).abs() < 1e-9,
                "below({t})+above_inclusive({t}) = {}",
                below + above
            );
        }
    }

    #[test]
    fn collision_probability_ranks_discrimination() {
        // 100 distinct values: collision probability 1/100.
        let spread = uniform_0_99();
        assert!((spread.collision_probability() - 0.01).abs() < 1e-9);
        // One repeated value: certain collision.
        let point = NumericHistogram::from_values(&[5.0; 20]);
        assert_eq!(point.collision_probability(), 1.0);
        // Empty: zero.
        assert_eq!(
            NumericHistogram::from_values(&[]).collision_probability(),
            0.0
        );
        // Skewed beats nothing, spread beats skewed.
        let skewed = NumericHistogram::from_values(
            &(0..100)
                .map(|i| if i < 90 { 1.0 } else { i as f64 })
                .collect::<Vec<_>>(),
        );
        assert!(skewed.collision_probability() > spread.collision_probability());
        assert!(skewed.collision_probability() < point.collision_probability());

        let cats = CategoricalStats::from_values(&["a", "a", "b", "b"]);
        assert!((cats.collision_probability() - 0.5).abs() < 1e-9);
        assert_eq!(CategoricalStats::new().collision_probability(), 0.0);
        let uniform_cats = CategoricalStats::from_values(&["a", "b", "c", "d"]);
        assert!(uniform_cats.collision_probability() < cats.collision_probability());
    }

    #[test]
    fn categorical_fractions() {
        let stats = CategoricalStats::from_values(&["books", "books", "music", "games", "books"]);
        assert_eq!(stats.total(), 5);
        assert_eq!(stats.distinct(), 3);
        assert!((stats.fraction_eq("books") - 0.6).abs() < 1e-9);
        assert!((stats.fraction_eq("music") - 0.2).abs() < 1e-9);
        assert_eq!(stats.fraction_eq("movies"), 0.0);
    }

    #[test]
    fn categorical_pattern_and_ordering_fractions() {
        let stats = CategoricalStats::from_values(&["alpha", "beta", "gamma", "alphabet"]);
        let prefix_alpha = stats.fraction_matching(|v| v.starts_with("alpha"));
        assert!((prefix_alpha - 0.5).abs() < 1e-9);
        let contains_a = stats.fraction_matching(|v| v.contains('a'));
        assert_eq!(contains_a, 1.0);
        let lt_beta = stats.fraction_cmp("beta", |o| o == std::cmp::Ordering::Less);
        assert!((lt_beta - 0.5).abs() < 1e-9, "alpha and alphabet < beta");
    }

    #[test]
    fn empty_categorical_reports_zero() {
        let stats = CategoricalStats::new();
        assert_eq!(stats.fraction_eq("x"), 0.0);
        assert_eq!(stats.fraction_matching(|_| true), 0.0);
    }
}
