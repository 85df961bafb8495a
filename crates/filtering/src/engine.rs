//! The common interface of all matching engines, and the configuration-time
//! choice between the two production engines.

use crate::{ATreeEngine, CountingEngine, EngineConfig, FilterStats, MatchSink, VecSink};
use pubsub_core::{EventBatch, EventMessage, Subscription, SubscriptionId};
use selectivity::DiscriminationHint;

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

/// Which matching engine a component should construct.
///
/// The broker stack (`RoutingTable`, `Broker`, `Simulation` in the `broker`
/// crate) accepts an `EngineKind` so experiments can switch between the
/// counting engine and the shared-subexpression engine without code changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// The [`CountingEngine`].
    #[default]
    Counting,
    /// The shared-subexpression [`ATreeEngine`].
    ATree,
}

impl EngineKind {
    /// Builds an empty engine of this kind.
    pub fn build(self) -> AnyEngine {
        self.build_with_capacity(0)
    }

    /// Builds an empty engine of this kind with capacity for roughly `n`
    /// subscriptions.
    pub fn build_with_capacity(self, n: usize) -> AnyEngine {
        self.build_with_config_and_capacity(EngineConfig::default(), n)
    }

    /// Builds an empty engine of this kind with the given pipeline
    /// configuration.
    pub fn build_with_config(self, config: EngineConfig) -> AnyEngine {
        self.build_with_config_and_capacity(config, 0)
    }

    /// Builds an empty engine of this kind with the given pipeline
    /// configuration and capacity for roughly `n` subscriptions.
    pub fn build_with_config_and_capacity(self, config: EngineConfig, n: usize) -> AnyEngine {
        match self {
            EngineKind::Counting => {
                AnyEngine::Counting(CountingEngine::with_config_and_capacity(config, n))
            }
            EngineKind::ATree => AnyEngine::ATree(ATreeEngine::with_config_and_capacity(config, n)),
        }
    }
}

/// A [`MatchingEngine`] built from an [`EngineKind`]: a [`CountingEngine`] or
/// an [`ATreeEngine`], with the non-trait accessors (configuration,
/// subscription iteration) available on both arms.
// Both variants are large engine structs, and the enum is held once per
// routing-table destination — never in bulk arrays — so the per-value
// footprint difference does not matter and boxing would only add an
// indirection to every dispatch.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum AnyEngine {
    /// The counting engine.
    Counting(CountingEngine),
    /// The shared-subexpression engine.
    ATree(ATreeEngine),
}

impl Default for AnyEngine {
    fn default() -> Self {
        EngineKind::default().build()
    }
}

macro_rules! delegate {
    ($self:ident, $e:ident => $body:expr) => {
        match $self {
            AnyEngine::Counting($e) => $body,
            AnyEngine::ATree($e) => $body,
        }
    };
}

impl AnyEngine {
    /// The kind this engine was built as.
    pub fn kind(&self) -> EngineKind {
        match self {
            AnyEngine::Counting(_) => EngineKind::Counting,
            AnyEngine::ATree(_) => EngineKind::ATree,
        }
    }

    /// Iterates over the registered subscriptions (slot order for the
    /// counting arm, unspecified for the A-Tree; callers that need a
    /// canonical order sort by id).
    pub fn subscriptions(&self) -> Box<dyn Iterator<Item = &Subscription> + '_> {
        match self {
            AnyEngine::Counting(e) => Box::new(e.subscriptions()),
            AnyEngine::ATree(e) => Box::new(e.subscriptions()),
        }
    }

    /// The pipeline configuration the engine is running with.
    pub fn config(&self) -> EngineConfig {
        delegate!(self, e => e.config())
    }

    /// Replaces the pipeline configuration.
    pub fn set_config(&mut self, config: EngineConfig) {
        delegate!(self, e => e.set_config(config))
    }

    /// Installs (or clears) the selectivity hint that steers the choice of
    /// access clauses and stage-0 keys.
    pub fn set_discrimination_hint(&mut self, hint: Option<DiscriminationHint>) {
        delegate!(self, e => e.set_discrimination_hint(hint))
    }
}

impl MatchingEngine for AnyEngine {
    fn insert(&mut self, subscription: Subscription) {
        delegate!(self, e => e.insert(subscription))
    }

    fn remove(&mut self, id: SubscriptionId) -> Option<Subscription> {
        delegate!(self, e => e.remove(id))
    }

    fn get(&self, id: SubscriptionId) -> Option<&Subscription> {
        delegate!(self, e => e.get(id))
    }

    fn match_batch(&mut self, batch: &EventBatch, sink: &mut dyn MatchSink) {
        delegate!(self, e => e.match_batch(batch, sink))
    }

    fn match_event_into(&mut self, event: &EventMessage, matches: &mut Vec<SubscriptionId>) {
        delegate!(self, e => e.match_event_into(event, matches))
    }

    fn len(&self) -> usize {
        delegate!(self, e => e.len())
    }

    fn stats(&self) -> &FilterStats {
        delegate!(self, e => e.stats())
    }

    fn reset_stats(&mut self) {
        delegate!(self, e => e.reset_stats())
    }

    fn report(&self) -> EngineReport {
        delegate!(self, e => e.report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PrefilterMode;
    use pubsub_core::{Expr, SubscriberId};

    fn sub(id: u64, expr: &Expr) -> Subscription {
        Subscription::from_expr(
            SubscriptionId::from_raw(id),
            SubscriberId::from_raw(id),
            expr,
        )
    }

    fn book_event(category: &str, price: i64) -> EventMessage {
        EventMessage::builder()
            .attr("category", category)
            .attr("price", price)
            .build()
    }

    #[test]
    fn engine_kind_builds_the_requested_engine() {
        assert_eq!(EngineKind::default(), EngineKind::Counting);
        let engine = EngineKind::Counting.build();
        assert!(matches!(engine, AnyEngine::Counting(_)));
        assert_eq!(engine.kind(), EngineKind::Counting);
        let engine = EngineKind::ATree.build_with_capacity(100);
        assert!(matches!(engine, AnyEngine::ATree(_)));
        assert_eq!(engine.kind(), EngineKind::ATree);
    }

    #[test]
    fn config_and_hint_reach_the_engine() {
        let config = EngineConfig::with_prefilter(PrefilterMode::On);
        let stage0_on = |any: &mut AnyEngine| match any {
            AnyEngine::Counting(e) => e.prefilter_enabled(),
            AnyEngine::ATree(_) => unreachable!("built as a counting engine"),
        };
        // Forced on: the counting engine runs stage 0 even while empty.
        let mut any = EngineKind::Counting.build_with_config(config);
        assert_eq!(any.config().prefilter, PrefilterMode::On);
        assert!(stage0_on(&mut any));
        any.set_config(EngineConfig::with_prefilter(PrefilterMode::Off));
        assert_eq!(any.config().prefilter, PrefilterMode::Off);
        assert!(!stage0_on(&mut any));
        any.set_discrimination_hint(None);
        // The A-Tree carries the config but has no stage-0 pre-filter (the
        // DAG evaluates every touched node exactly).
        let mut any = EngineKind::ATree.build_with_config(config);
        assert_eq!(any.config().prefilter, PrefilterMode::On);
        any.set_config(EngineConfig::with_prefilter(PrefilterMode::Off));
        assert_eq!(any.config().prefilter, PrefilterMode::Off);
        any.set_discrimination_hint(None);
    }

    #[test]
    fn any_engine_delegates_the_full_engine_api() {
        for kind in [EngineKind::Counting, EngineKind::ATree] {
            let mut engine = kind.build();
            engine.insert(sub(1, &Expr::eq("category", "books")));
            engine.insert(sub(2, &Expr::le("price", 10i64)));
            assert_eq!(engine.len(), 2, "{kind:?}");
            assert!(engine.get(SubscriptionId::from_raw(1)).is_some());
            assert_eq!(engine.subscriptions().count(), 2);
            let hits = engine.match_event(&book_event("books", 5));
            assert_eq!(
                hits,
                vec![SubscriptionId::from_raw(1), SubscriptionId::from_raw(2)],
                "{kind:?}"
            );
            assert_eq!(engine.report().subscription_count, 2);
            assert!(engine.stats().matches > 0);
            engine.reset_stats();
            assert_eq!(engine.stats().matches, 0);
            assert!(engine.remove(SubscriptionId::from_raw(1)).is_some());
            assert_eq!(engine.len(), 1);
        }
    }

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
