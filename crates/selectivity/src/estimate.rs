//! The `(min, avg, max)` selectivity estimate and its Boolean combinators.

/// A selectivity estimate `sel≈(s)` of a subscription (or subexpression).
///
/// Selectivity is the probability that a random event *matches* the
/// subscription, so values lie in `[0, 1]` and pruning can only increase
/// them. Following the paper, the estimate carries three components:
///
/// * `min` — a lower bound on the selectivity,
/// * `avg` — the expected selectivity under an attribute-independence
///   assumption,
/// * `max` — an upper bound on the selectivity.
///
/// Bounds are propagated through AND/OR with the Fréchet inequalities, which
/// hold regardless of correlations between predicates; `avg` uses the product
/// rules that hold under independence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectivityEstimate {
    /// Minimal possible selectivity.
    pub min: f64,
    /// Average (expected) selectivity under independence.
    pub avg: f64,
    /// Maximal possible selectivity.
    pub max: f64,
}

impl SelectivityEstimate {
    /// An estimate with all three components equal (used for predicate leaves
    /// whose selectivity is read directly from the event statistics).
    pub fn exact(p: f64) -> Self {
        let p = p.clamp(0.0, 1.0);
        Self {
            min: p,
            avg: p,
            max: p,
        }
    }

    /// The estimate of an always-true filter (an empty subscription).
    pub fn always() -> Self {
        Self::exact(1.0)
    }

    /// The estimate of a never-matching filter.
    pub fn never() -> Self {
        Self::exact(0.0)
    }

    /// Creates an estimate from explicit components, clamping each into
    /// `[0, 1]` and restoring `min <= avg <= max` ordering if violated.
    pub fn new(min: f64, avg: f64, max: f64) -> Self {
        let mut min = min.clamp(0.0, 1.0);
        let mut max = max.clamp(0.0, 1.0);
        if min > max {
            std::mem::swap(&mut min, &mut max);
        }
        let avg = avg.clamp(min, max);
        Self { min, avg, max }
    }

    /// Combines the estimates of the children of an AND node.
    ///
    /// * `max`: Fréchet upper bound — the conjunction cannot match more often
    ///   than its most selective conjunct: `min_i(max_i)`.
    /// * `min`: Fréchet lower bound — `max(0, Σ min_i − (n−1))`.
    /// * `avg`: product of the children's averages (independence).
    pub fn and(children: &[SelectivityEstimate]) -> Self {
        if children.is_empty() {
            return Self::always();
        }
        let n = children.len() as f64;
        let min = (children.iter().map(|c| c.min).sum::<f64>() - (n - 1.0)).max(0.0);
        let avg = children.iter().map(|c| c.avg).product::<f64>();
        let max = children.iter().map(|c| c.max).fold(f64::INFINITY, f64::min);
        Self::new(min, avg, max)
    }

    /// Combines the estimates of the children of an OR node.
    ///
    /// * `min`: Fréchet lower bound — `max_i(min_i)`.
    /// * `max`: Fréchet upper bound — `min(1, Σ max_i)`.
    /// * `avg`: inclusion–exclusion under independence —
    ///   `1 − Π (1 − avg_i)`.
    pub fn or(children: &[SelectivityEstimate]) -> Self {
        if children.is_empty() {
            return Self::never();
        }
        let min = children
            .iter()
            .map(|c| c.min)
            .fold(f64::NEG_INFINITY, f64::max);
        let avg = 1.0 - children.iter().map(|c| 1.0 - c.avg).product::<f64>();
        let max = children.iter().map(|c| c.max).sum::<f64>().min(1.0);
        Self::new(min, avg, max)
    }

    /// The estimate of the negation of an expression with this estimate.
    // Named for the Boolean connective it propagates, alongside `and`/`or`;
    // the `!` operator would read wrong on a probability triple.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        Self::new(1.0 - self.max, 1.0 - self.avg, 1.0 - self.min)
    }

    /// The *estimated selectivity degradation* `Δ≈sel(sx, sy)` of the paper:
    /// the maximum of the component-wise increases when going from the
    /// original estimate `self` (sx) to the pruned estimate `pruned` (sy).
    pub fn degradation_to(&self, pruned: &SelectivityEstimate) -> f64 {
        (pruned.min - self.min)
            .max(pruned.avg - self.avg)
            .max(pruned.max - self.max)
    }

    /// Returns `true` if the three components are ordered `min <= avg <= max`
    /// and all lie within `[0, 1]` (every constructor upholds this).
    pub fn is_consistent(&self) -> bool {
        (0.0..=1.0).contains(&self.min)
            && (0.0..=1.0).contains(&self.max)
            && self.min <= self.avg + 1e-12
            && self.avg <= self.max + 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn exact_and_constants() {
        let e = SelectivityEstimate::exact(0.3);
        assert!(approx(e.min, 0.3) && approx(e.avg, 0.3) && approx(e.max, 0.3));
        assert!(e.is_consistent());
        assert_eq!(SelectivityEstimate::always().avg, 1.0);
        assert_eq!(SelectivityEstimate::never().avg, 0.0);
        // Out-of-range inputs are clamped.
        assert_eq!(SelectivityEstimate::exact(7.0).max, 1.0);
        assert_eq!(SelectivityEstimate::exact(-1.0).min, 0.0);
    }

    #[test]
    fn new_restores_ordering() {
        let e = SelectivityEstimate::new(0.9, 0.5, 0.1);
        assert!(e.is_consistent());
        assert!(e.min <= e.max);
    }

    #[test]
    fn and_combinator() {
        let a = SelectivityEstimate::exact(0.5);
        let b = SelectivityEstimate::exact(0.4);
        let e = SelectivityEstimate::and(&[a, b]);
        // avg = 0.2 (independence), max = 0.4 (Fréchet), min = max(0, 0.9 - 1) = 0
        assert!(approx(e.avg, 0.2));
        assert!(approx(e.max, 0.4));
        assert!(approx(e.min, 0.0));
        assert!(e.is_consistent());

        // Highly selective conjuncts: min bound becomes positive.
        let a = SelectivityEstimate::exact(0.9);
        let b = SelectivityEstimate::exact(0.8);
        let e = SelectivityEstimate::and(&[a, b]);
        assert!(approx(e.min, 0.7));
        assert!(approx(e.avg, 0.72));
        assert!(approx(e.max, 0.8));
    }

    #[test]
    fn or_combinator() {
        let a = SelectivityEstimate::exact(0.5);
        let b = SelectivityEstimate::exact(0.4);
        let e = SelectivityEstimate::or(&[a, b]);
        // avg = 1 - 0.5*0.6 = 0.7, min = 0.5, max = 0.9
        assert!(approx(e.avg, 0.7));
        assert!(approx(e.min, 0.5));
        assert!(approx(e.max, 0.9));
        assert!(e.is_consistent());

        // Saturation of the upper bound.
        let e = SelectivityEstimate::or(&[
            SelectivityEstimate::exact(0.8),
            SelectivityEstimate::exact(0.7),
        ]);
        assert!(approx(e.max, 1.0));
    }

    #[test]
    fn empty_children_edge_cases() {
        assert_eq!(SelectivityEstimate::and(&[]), SelectivityEstimate::always());
        assert_eq!(SelectivityEstimate::or(&[]), SelectivityEstimate::never());
    }

    #[test]
    fn not_combinator() {
        let e = SelectivityEstimate::new(0.2, 0.3, 0.6).not();
        assert!(approx(e.min, 0.4));
        assert!(approx(e.avg, 0.7));
        assert!(approx(e.max, 0.8));
        assert!(e.is_consistent());
        // Double negation restores the original.
        let original = SelectivityEstimate::new(0.2, 0.3, 0.6);
        let back = original.not().not();
        assert!(approx(back.min, original.min));
        assert!(approx(back.avg, original.avg));
        assert!(approx(back.max, original.max));
    }

    #[test]
    fn degradation_is_max_componentwise_increase() {
        let original = SelectivityEstimate::new(0.1, 0.2, 0.3);
        let pruned = SelectivityEstimate::new(0.15, 0.45, 0.5);
        assert!(approx(original.degradation_to(&pruned), 0.25));
        // No degradation when nothing changes.
        assert!(approx(original.degradation_to(&original), 0.0));
    }

    #[test]
    fn and_or_bounds_contain_truth_for_correlated_predicates() {
        // Two perfectly correlated predicates with selectivity 0.5:
        // true conjunction selectivity is 0.5, which must lie within [min, max].
        let p = SelectivityEstimate::exact(0.5);
        let and = SelectivityEstimate::and(&[p, p]);
        assert!(and.min <= 0.5 && 0.5 <= and.max);
        // Two mutually exclusive predicates with selectivity 0.5:
        // true disjunction selectivity is 1.0, within [min, max].
        let or = SelectivityEstimate::or(&[p, p]);
        assert!(or.min <= 1.0 && 1.0 <= or.max);
        // True conjunction selectivity 0.0 also within bounds.
        assert!(and.min <= 0.0 + and.max);
    }
}
