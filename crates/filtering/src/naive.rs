//! Brute-force baseline matcher.

use crate::{EngineConfig, EngineReport, FilterStats, MatchSink, MatchingEngine};
use pubsub_core::{EventBatch, EventMessage, Subscription, SubscriptionId};
use std::collections::BTreeMap;
use std::time::Instant;

/// A baseline engine that evaluates every registered subscription tree
/// against every event.
///
/// It is intentionally index-free: its only purpose is differential testing
/// of [`CountingEngine`](crate::CountingEngine) and serving as the unindexed
/// baseline in the micro-benchmarks. Subscriptions are kept in a sorted map
/// so that results and timings are deterministic.
#[derive(Debug, Default)]
pub struct NaiveEngine {
    subscriptions: BTreeMap<SubscriptionId, Subscription>,
    config: EngineConfig,
    stats: FilterStats,
}

impl NaiveEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty engine carrying the given pipeline configuration.
    ///
    /// The naive engine is the **null pipeline**: it records the
    /// configuration (so differential harnesses can construct every engine
    /// kind uniformly) but never pre-filters, probes in batches, or skips an
    /// evaluation — every registered tree is evaluated against every event
    /// regardless of `config.prefilter`. That is exactly what makes it the
    /// reference oracle for the staged engines. `config.analyze` *is*
    /// honored, at registration only: it is semantics-preserving, so the
    /// oracle property is unaffected.
    pub fn with_config(config: EngineConfig) -> Self {
        Self {
            config,
            ..Self::default()
        }
    }

    /// The pipeline configuration this engine carries (and ignores).
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Replaces the carried pipeline configuration. Has no effect on
    /// matching: the naive engine evaluates every tree unconditionally.
    pub fn set_config(&mut self, config: EngineConfig) {
        self.config = config;
    }

    /// Iterates over the registered subscriptions in id order.
    pub fn subscriptions(&self) -> impl Iterator<Item = &Subscription> {
        self.subscriptions.values()
    }
}

impl MatchingEngine for NaiveEngine {
    fn insert(&mut self, subscription: Subscription) {
        let id = subscription.id();
        match crate::analyze::analyze_for_insert(self.config, None, &mut self.stats, subscription) {
            Some(subscription) => {
                self.subscriptions.insert(id, subscription);
            }
            None => {
                self.subscriptions.remove(&id);
            }
        }
    }

    fn remove(&mut self, id: SubscriptionId) -> Option<Subscription> {
        self.subscriptions.remove(&id)
    }

    fn get(&self, id: SubscriptionId) -> Option<&Subscription> {
        self.subscriptions.get(&id)
    }

    fn match_batch(&mut self, batch: &EventBatch, sink: &mut dyn MatchSink) {
        let start = Instant::now();
        sink.begin_batch(batch.len());
        for index in 0..batch.len() {
            let pairs = batch.resolved_pairs(index);
            // BTreeMap iteration is id-sorted, so each event's matches are
            // emitted in subscription-id order as the trait requires.
            for (id, sub) in &self.subscriptions {
                self.stats.trees_evaluated += 1;
                if sub.tree().evaluate_pairs(pairs) {
                    self.stats.matches += 1;
                    sink.on_match(index, *id, sub.subscriber());
                }
            }
        }
        self.stats.batches_filtered += 1;
        self.stats.events_filtered += batch.len() as u64;
        self.stats.filter_time += start.elapsed();
    }

    fn match_event(&mut self, event: &EventMessage) -> Vec<SubscriptionId> {
        // Dedicated single-event path: same evaluation loop as `match_batch`
        // without the batch construction the default wrapper would pay.
        let start = Instant::now();
        let mut matches = Vec::new();
        for (id, sub) in &self.subscriptions {
            self.stats.trees_evaluated += 1;
            if sub.matches(event) {
                matches.push(*id);
            }
        }
        self.stats.batches_filtered += 1;
        self.stats.events_filtered += 1;
        self.stats.matches += matches.len() as u64;
        self.stats.filter_time += start.elapsed();
        matches
    }

    fn match_event_into(&mut self, event: &EventMessage, matches: &mut Vec<SubscriptionId>) {
        matches.clear();
        matches.append(&mut self.match_event(event));
    }

    fn len(&self) -> usize {
        self.subscriptions.len()
    }

    fn stats(&self) -> &FilterStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = FilterStats::new();
    }

    fn report(&self) -> EngineReport {
        EngineReport {
            subscription_count: self.subscriptions.len(),
            association_count: self
                .subscriptions
                .values()
                .map(|s| s.tree().predicate_count())
                .sum(),
            tree_bytes: self
                .subscriptions
                .values()
                .map(|s| s.tree().size_bytes())
                .sum(),
            // No predicate index.
            equality_constants: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_core::{Expr, SubscriberId};

    fn sub(id: u64, expr: &Expr) -> Subscription {
        Subscription::from_expr(
            SubscriptionId::from_raw(id),
            SubscriberId::from_raw(id),
            expr,
        )
    }

    #[test]
    fn matches_and_statistics() {
        let mut e = NaiveEngine::new();
        e.insert(sub(1, &Expr::eq("category", "books")));
        e.insert(sub(2, &Expr::eq("category", "music")));
        e.insert(sub(3, &Expr::le("price", 10i64)));
        assert_eq!(e.len(), 3);

        let ev = EventMessage::builder()
            .attr("category", "books")
            .attr("price", 5i64)
            .build();
        let mut hits = e.match_event(&ev);
        hits.sort();
        assert_eq!(
            hits,
            vec![SubscriptionId::from_raw(1), SubscriptionId::from_raw(3)]
        );
        assert_eq!(e.stats().events_filtered, 1);
        assert_eq!(e.stats().matches, 2);
        assert_eq!(e.stats().trees_evaluated, 3);

        e.reset_stats();
        assert_eq!(e.stats().events_filtered, 0);
    }

    #[test]
    fn insert_replaces_same_id() {
        let mut e = NaiveEngine::new();
        e.insert(sub(1, &Expr::eq("category", "books")));
        e.insert(sub(1, &Expr::eq("category", "music")));
        assert_eq!(e.len(), 1);
        let ev = EventMessage::builder().attr("category", "music").build();
        assert_eq!(e.match_event(&ev), vec![SubscriptionId::from_raw(1)]);
    }

    #[test]
    fn remove_and_get() {
        let mut e = NaiveEngine::new();
        e.insert(sub(1, &Expr::eq("a", 1i64)));
        assert!(e.get(SubscriptionId::from_raw(1)).is_some());
        let removed = e.remove(SubscriptionId::from_raw(1));
        assert!(removed.is_some());
        assert!(e.is_empty());
        assert!(e.remove(SubscriptionId::from_raw(1)).is_none());
    }

    #[test]
    fn config_is_carried_but_never_prunes() {
        use crate::PrefilterMode;
        let mut e = NaiveEngine::with_config(EngineConfig::with_prefilter(PrefilterMode::On));
        assert_eq!(e.config().prefilter, PrefilterMode::On);
        e.insert(sub(1, &Expr::eq("category", "books")));
        e.insert(sub(2, &Expr::eq("category", "music")));
        // An event without `category` would be killed by a real pre-filter;
        // the null pipeline still evaluates both trees.
        let ev = EventMessage::builder().attr("price", 1i64).build();
        assert!(e.match_event(&ev).is_empty());
        assert_eq!(e.stats().trees_evaluated, 2);
        assert_eq!(e.stats().killed_by_prefilter, 0);
        e.set_config(EngineConfig::with_prefilter(PrefilterMode::Off));
        assert_eq!(e.config().prefilter, PrefilterMode::Off);
    }

    #[test]
    fn report_counts_associations() {
        let mut e = NaiveEngine::new();
        e.insert(sub(
            1,
            &Expr::and(vec![Expr::eq("a", 1i64), Expr::eq("b", 2i64)]),
        ));
        e.insert(sub(2, &Expr::eq("c", 3i64)));
        let report = e.report();
        assert_eq!(report.subscription_count, 2);
        assert_eq!(report.association_count, 3);
        assert!(report.tree_bytes > 0);
    }
}
