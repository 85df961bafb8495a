//! Discrimination hints: which attributes make good pre-filter keys.
//!
//! `filtering::CountingEngine` reaches a subscription through **one**
//! required equality — its *access clause* — and its stage-0 pre-filter
//! tests one more, killing a candidate when the event's value at that
//! attribute differs from the predicate's constant. Which required equality
//! goes where matters: `condition` (four distinct values) barely
//! discriminates, while `title` (tens of thousands of Zipf-distributed
//! values) rules out almost everything.
//!
//! [`DiscriminationHint`] distils an [`EventStatistics`] sample into one
//! score per attribute: the probability that a random event *passes* an
//! equality test on that attribute whose constant is itself drawn from the
//! stream — presence probability times value-collision probability. Lower
//! scores discriminate better. The hint is computed once from a sample and
//! handed to the engine at configuration time; the engine consults it at
//! pre-filter (re)build time, never per event.

use crate::EventStatistics;
use pubsub_core::{AttrId, EventMessage};

/// Per-attribute discrimination scores distilled from an event sample.
///
/// `score(attr)` estimates the probability that a random event fulfils an
/// equality predicate on `attr` with a stream-drawn constant:
///
/// ```text
/// score = P(event carries attr) × P(two draws of attr collide)
/// ```
///
/// **Lower is better** — a low score means an equality constraint on this
/// attribute lets almost nothing through, so it is the best stage-0 kill
/// test. Attributes the sample never carried score `None`; consumers fall
/// back to structural heuristics (e.g. the equality-index cardinality).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DiscriminationHint {
    /// Indexed by `AttrId::index()`; `NaN`-free: unsampled attributes hold
    /// `f64::INFINITY` as the "no information" sentinel.
    scores: Vec<f64>,
}

/// Sentinel stored for attributes the sample never carried.
const UNSAMPLED: f64 = f64::INFINITY;

impl DiscriminationHint {
    /// Builds a hint from precomputed event statistics.
    pub fn from_statistics(stats: &EventStatistics) -> Self {
        let mut scores = Vec::new();
        for (index, attr) in stats.iter_attributes() {
            if index >= scores.len() {
                scores.resize(index + 1, UNSAMPLED);
            }
            let present = attr.present as f64;
            if present == 0.0 {
                continue;
            }
            // Collision probability of the attribute's full value
            // distribution: two draws collide only when they have the same
            // type, so weight each per-type collision by the squared
            // fraction of observations of that type.
            let bools = (attr.bool_true + attr.bool_false) as f64;
            let bool_collision = if bools == 0.0 {
                0.0
            } else {
                let t = attr.bool_true as f64 / bools;
                let f = attr.bool_false as f64 / bools;
                t * t + f * f
            };
            let collision = (attr.numeric.total() as f64 / present).powi(2)
                * attr.numeric.collision_probability()
                + (attr.strings.total() as f64 / present).powi(2)
                    * attr.strings.collision_probability()
                + (bools / present).powi(2) * bool_collision;
            let presence = if stats.event_count() == 0 {
                0.0
            } else {
                present / stats.event_count() as f64
            };
            scores[index] = (presence * collision).clamp(0.0, 1.0);
        }
        Self { scores }
    }

    /// Builds a hint directly from a sample of events.
    pub fn from_events(events: &[EventMessage]) -> Self {
        Self::from_statistics(&EventStatistics::from_events(events))
    }

    /// The discrimination score of an attribute: the estimated probability
    /// that a random event passes an equality test on it (lower = more
    /// discriminating), or `None` if the sample never carried the attribute.
    #[inline]
    pub fn score(&self, attr: AttrId) -> Option<f64> {
        match self.scores.get(attr.index()) {
            Some(&s) if s != UNSAMPLED => Some(s),
            _ => None,
        }
    }

    /// Number of attributes with a score (sampled attributes).
    pub fn len(&self) -> usize {
        self.scores.iter().filter(|&&s| s != UNSAMPLED).count()
    }

    /// Returns `true` if no attribute has a score.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_core::attr;

    fn sample() -> Vec<EventMessage> {
        (0..100)
            .map(|i| {
                let mut b = EventMessage::builder()
                    // Near-unique key: discriminates strongly.
                    .attr("hint_title", format!("t-{}", i % 97).as_str())
                    // Four values: discriminates weakly.
                    .attr("hint_condition", ["new", "used", "worn", "fair"][i % 4])
                    // Boolean: collision ≥ 1/2.
                    .attr("hint_flag", i % 3 == 0);
                if i % 2 == 0 {
                    // Present half the time, near-unique when present.
                    b = b.attr("hint_rare", i as i64);
                }
                b.build()
            })
            .collect()
    }

    #[test]
    fn scores_order_attributes_by_discrimination() {
        let hint = DiscriminationHint::from_events(&sample());
        let score = |name: &str| hint.score(attr::intern(name)).expect("sampled");
        assert!(
            score("hint_title") < score("hint_condition"),
            "title {} should beat condition {}",
            score("hint_title"),
            score("hint_condition")
        );
        assert!(score("hint_condition") < score("hint_flag"));
        // Half-present but unique values: better than the 4-value always-on
        // attribute (presence 0.5 × collision ~1/50 ≪ 1.0 × 0.25).
        assert!(score("hint_rare") < score("hint_condition"));
        assert!(!hint.is_empty());
        assert_eq!(hint.len(), 4);
    }

    #[test]
    fn unsampled_attributes_have_no_score() {
        let hint = DiscriminationHint::from_events(&sample());
        let unseen = attr::intern("hint_never_observed");
        assert_eq!(hint.score(unseen), None);
        let empty = DiscriminationHint::from_events(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty.score(attr::intern("hint_title")), None);
    }

    #[test]
    fn scores_are_probabilities() {
        let hint = DiscriminationHint::from_events(&sample());
        for name in ["hint_title", "hint_condition", "hint_flag", "hint_rare"] {
            let s = hint.score(attr::intern(name)).unwrap();
            assert!((0.0..=1.0).contains(&s), "{name} score {s} out of range");
        }
    }
}
