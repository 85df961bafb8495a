//! The common interface of all matching engines.

use crate::{FilterStats, MatchSink, VecSink};
use pubsub_core::{EventBatch, EventMessage, Subscription, SubscriptionId};

/// A point-in-time summary of an engine's contents, used by the memory
/// experiments (Figures 1(c) and 1(f) of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineReport {
    /// Number of registered subscriptions.
    pub subscription_count: usize,
    /// Number of predicate/subscription associations, i.e. the total number
    /// of predicate leaves registered across all subscriptions. This is the
    /// quantity whose *proportional reduction* the paper plots as "memory
    /// usage".
    pub association_count: usize,
    /// Estimated memory footprint of all subscription trees in bytes.
    pub tree_bytes: usize,
    /// Distinct `attribute = constant` pairs the predicate index holds a
    /// bucket for. Bounded by the live subscriptions: a constant whose last
    /// subscription left is gone from the index too.
    pub equality_constants: usize,
}

impl EngineReport {
    /// Proportional reduction in predicate/subscription associations relative
    /// to a baseline report (the un-optimized engine). `0.5` means half of
    /// the associations have disappeared.
    pub fn association_reduction_vs(&self, baseline: &EngineReport) -> f64 {
        if baseline.association_count == 0 {
            return 0.0;
        }
        1.0 - self.association_count as f64 / baseline.association_count as f64
    }

    /// Proportional reduction in estimated tree bytes relative to a baseline.
    pub fn bytes_reduction_vs(&self, baseline: &EngineReport) -> f64 {
        if baseline.tree_bytes == 0 {
            return 0.0;
        }
        1.0 - self.tree_bytes as f64 / baseline.tree_bytes as f64
    }
}

/// A filtering engine: stores subscriptions and matches events against them.
///
/// The API is **batch-first**: [`match_batch`](Self::match_batch) is the
/// primary entry point — it drives a whole [`EventBatch`] through the engine
/// and streams every `(event index, subscription, subscriber)` match into a
/// [`MatchSink`]. The single-event methods
/// [`match_event`](Self::match_event) /
/// [`match_event_into`](Self::match_event_into) are provided as thin
/// wrappers over a one-event batch so that existing callers keep working;
/// engines with a cheap dedicated single-event path may override them.
///
/// Implementations must be deterministic: matching the same events against
/// the same set of subscriptions always yields the same matches, with each
/// event's matches emitted sorted by subscription id.
pub trait MatchingEngine {
    /// Registers a subscription, replacing any existing subscription with the
    /// same id.
    fn insert(&mut self, subscription: Subscription);

    /// Removes a subscription. Returns the removed subscription if present.
    fn remove(&mut self, id: SubscriptionId) -> Option<Subscription>;

    /// Returns the registered subscription with the given id, if any.
    fn get(&self, id: SubscriptionId) -> Option<&Subscription>;

    /// Matches every event of a batch, streaming each match into `sink`.
    ///
    /// The engine calls [`MatchSink::begin_batch`] exactly once, then
    /// [`MatchSink::on_match`] once per match, with event indexes
    /// non-decreasing and each event's matches sorted by subscription id.
    /// Engines keep their per-event scratch hot across the whole batch, so
    /// driving one large batch is strictly cheaper than looping
    /// [`match_event`](Self::match_event).
    fn match_batch(&mut self, batch: &EventBatch, sink: &mut dyn MatchSink);

    /// Matches a single event, returning the ids of all fulfilled
    /// subscriptions sorted by id.
    ///
    /// Compatibility wrapper over a one-event batch; prefer
    /// [`match_batch`](Self::match_batch) on hot paths.
    fn match_event(&mut self, event: &EventMessage) -> Vec<SubscriptionId> {
        // Small initial capacity: most events match few subscriptions, and
        // the vector grows geometrically for the rest.
        let mut matches = Vec::with_capacity(8);
        self.match_event_into(event, &mut matches);
        matches
    }

    /// Matches a single event into a caller-provided buffer, *replacing* its
    /// contents.
    ///
    /// Callers that keep one buffer alive across events avoid the result
    /// allocation; the batch construction of this default wrapper still
    /// clones the event, so engines with allocation-free single-event
    /// internals override it.
    fn match_event_into(&mut self, event: &EventMessage, matches: &mut Vec<SubscriptionId>) {
        let batch = EventBatch::builder().event(event.clone()).build();
        let mut sink = VecSink::new();
        self.match_batch(&batch, &mut sink);
        matches.clear();
        matches.extend(sink.matches().iter().map(|&(_, id)| id));
    }

    /// Number of registered subscriptions.
    fn len(&self) -> usize;

    /// Returns `true` if no subscriptions are registered.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative filtering statistics since construction (or the last
    /// [`reset_stats`](Self::reset_stats)).
    fn stats(&self) -> &FilterStats;

    /// Resets the cumulative filtering statistics.
    fn reset_stats(&mut self);

    /// A point-in-time summary of the engine contents.
    fn report(&self) -> EngineReport;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn association_reduction_is_proportional() {
        let baseline = EngineReport {
            subscription_count: 10,
            association_count: 100,
            tree_bytes: 1000,
            equality_constants: 0,
        };
        let pruned = EngineReport {
            subscription_count: 10,
            association_count: 40,
            tree_bytes: 400,
            ..baseline
        };
        assert!((pruned.association_reduction_vs(&baseline) - 0.6).abs() < 1e-12);
        assert!((pruned.bytes_reduction_vs(&baseline) - 0.6).abs() < 1e-12);
        assert_eq!(baseline.association_reduction_vs(&baseline), 0.0);
    }

    #[test]
    fn zero_baseline_yields_zero_reduction() {
        let empty = EngineReport {
            subscription_count: 0,
            association_count: 0,
            tree_bytes: 0,
            equality_constants: 0,
        };
        assert_eq!(empty.association_reduction_vs(&empty), 0.0);
        assert_eq!(empty.bytes_reduction_vs(&empty), 0.0);
    }
}
