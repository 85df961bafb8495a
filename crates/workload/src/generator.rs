//! The combined workload generator: events plus subscriptions from one
//! configuration and seed.

use crate::{AuctionSchema, ClassMix, EventGenerator, SubscriptionGenerator};
use pubsub_core::{EventBatch, EventMessage, Subscription};

/// Configuration of a [`WorkloadGenerator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Seed for all random draws (events and subscriptions).
    pub seed: u64,
    /// The auction catalog shape.
    pub schema: AuctionSchema,
    /// The subscription class mix.
    pub mix: ClassMix,
    /// Number of distinct subscribers the subscriptions are spread over.
    pub subscriber_count: usize,
}

impl WorkloadConfig {
    /// A small configuration suitable for tests and quick experiments.
    pub fn small() -> Self {
        Self {
            seed: 42,
            schema: AuctionSchema::small(),
            mix: ClassMix::default_mix(),
            subscriber_count: 100,
        }
    }

    /// The paper-scale configuration (200,000 subscriptions / 100,000 events
    /// are then requested from the generator by the harness).
    pub fn paper() -> Self {
        Self {
            seed: 42,
            schema: AuctionSchema::paper(),
            mix: ClassMix::default_mix(),
            subscriber_count: 10_000,
        }
    }

    /// The skewed hot-key configuration: the paper-sized catalog with Zipf
    /// popularity pushed to ~1.6 ([`AuctionSchema::hot_key`]) and a
    /// title-watcher-heavy subscription mix ([`ClassMix::title_heavy`]).
    /// Most events then carry one of a few hot title keys — the cell where
    /// the stage-0 pre-filter's secondary key pays off most.
    pub fn hot_key() -> Self {
        Self {
            seed: 42,
            schema: AuctionSchema::hot_key(),
            mix: ClassMix::title_heavy(),
            subscriber_count: 10_000,
        }
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self::small()
    }
}

/// Generates the auction workload: event messages and subscriptions.
///
/// Event and subscription streams are seeded independently (derived from the
/// configured seed), so requesting more events does not perturb the generated
/// subscriptions and vice versa.
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    config: WorkloadConfig,
    events: EventGenerator,
    subscriptions: SubscriptionGenerator,
}

impl WorkloadGenerator {
    /// Creates a generator from a configuration.
    pub fn new(config: WorkloadConfig) -> Self {
        Self {
            events: EventGenerator::new(config.schema, config.seed.wrapping_mul(2) + 1),
            subscriptions: SubscriptionGenerator::new(
                config.schema,
                config.mix,
                config.seed.wrapping_mul(2),
            ),
            config,
        }
    }

    /// The configuration this generator was built from.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// Generates `count` auction events.
    pub fn events(&mut self, count: usize) -> Vec<EventMessage> {
        self.events.events(count)
    }

    /// Generates one auction event.
    pub fn next_event(&mut self) -> EventMessage {
        self.events.next_event()
    }

    /// Generates `count` auction events as an [`EventBatch`], ready for
    /// `MatchingEngine::match_batch` / `Simulation::publish_batch`.
    pub fn event_batch(&mut self, count: usize) -> EventBatch {
        self.events.event_batch(count)
    }

    /// Clears `batch` and refills it with the next `count` auction events,
    /// reusing the batch's allocations.
    pub fn fill_event_batch(&mut self, count: usize, batch: &mut EventBatch) {
        self.events.fill_event_batch(count, batch)
    }

    /// Generates `count` subscriptions spread over the configured subscribers.
    pub fn subscriptions(&mut self, count: usize) -> Vec<Subscription> {
        self.subscriptions
            .subscriptions(count, self.config.subscriber_count)
    }

    /// Direct access to the underlying event generator.
    pub fn event_generator(&mut self) -> &mut EventGenerator {
        &mut self.events
    }

    /// Direct access to the underlying subscription generator.
    pub fn subscription_generator(&mut self) -> &mut SubscriptionGenerator {
        &mut self.subscriptions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_counts() {
        let mut g = WorkloadGenerator::new(WorkloadConfig::small());
        assert_eq!(g.events(25).len(), 25);
        assert_eq!(g.subscriptions(40).len(), 40);
        assert_eq!(g.config().subscriber_count, 100);
    }

    #[test]
    fn batch_generation_matches_event_generation() {
        let mut a = WorkloadGenerator::new(WorkloadConfig::small());
        let mut b = WorkloadGenerator::new(WorkloadConfig::small());
        let batch = a.event_batch(30);
        let events = b.events(30);
        assert_eq!(batch.events(), &events[..]);
        // Refilling a kept batch continues the stream and reuses the arena.
        let mut batch = batch;
        a.fill_event_batch(30, &mut batch);
        let capacity = batch.capacity();
        assert_eq!(batch.events(), &b.events(30)[..]);
        a.fill_event_batch(30, &mut batch);
        assert_eq!(batch.capacity(), capacity);
    }

    #[test]
    fn event_and_subscription_streams_are_independent() {
        // Generating extra events must not change the subscriptions produced.
        let mut a = WorkloadGenerator::new(WorkloadConfig::small());
        let mut b = WorkloadGenerator::new(WorkloadConfig::small());
        let _ = a.events(500);
        let subs_a = a.subscriptions(20);
        let subs_b = b.subscriptions(20);
        assert_eq!(subs_a, subs_b);
    }

    #[test]
    fn different_seeds_produce_different_workloads() {
        let mut a = WorkloadGenerator::new(WorkloadConfig::small());
        let mut b = WorkloadGenerator::new(WorkloadConfig::small().with_seed(7));
        assert_ne!(a.events(10), b.events(10));
        assert_ne!(a.subscriptions(10), b.subscriptions(10));
    }

    #[test]
    fn subscriptions_match_a_reasonable_share_of_events() {
        // Sanity check on workload calibration: the generated subscriptions
        // must be neither unsatisfiable nor trivially satisfied.
        let mut g = WorkloadGenerator::new(WorkloadConfig::small());
        let events = g.events(400);
        let subs = g.subscriptions(200);
        let mut total_matches = 0usize;
        let mut matched_subs = 0usize;
        for s in &subs {
            let hits = events.iter().filter(|e| s.matches(e)).count();
            total_matches += hits;
            if hits > 0 {
                matched_subs += 1;
            }
        }
        let avg_selectivity = total_matches as f64 / (events.len() as f64 * subs.len() as f64);
        assert!(
            avg_selectivity > 0.0001,
            "subscriptions should match something ({avg_selectivity})"
        );
        assert!(
            avg_selectivity < 0.5,
            "subscriptions should be selective ({avg_selectivity})"
        );
        assert!(
            matched_subs > subs.len() / 20,
            "at least a few percent of subscriptions should ever match ({matched_subs})"
        );
    }

    #[test]
    fn hot_key_workload_concentrates_title_popularity() {
        use std::collections::HashMap;
        let share_of_top_title = |config: WorkloadConfig| {
            let mut g = WorkloadGenerator::new(config);
            let events = g.events(2_000);
            let mut counts: HashMap<String, usize> = HashMap::new();
            for event in &events {
                if let Some(pubsub_core::Value::Str(title)) = event.get(crate::attributes::TITLE) {
                    *counts.entry(title.to_string()).or_insert(0) += 1;
                }
            }
            let total: usize = counts.values().sum();
            let top = counts.values().copied().max().unwrap_or(0);
            assert!(total > 0, "events must carry titles");
            top as f64 / total as f64
        };
        let hot = share_of_top_title(WorkloadConfig::hot_key());
        let uniform = share_of_top_title(WorkloadConfig::paper());
        // The Zipf exponent of 1.6 must make the hottest title clearly
        // dominant compared to the paper's 1.1 over the same catalog.
        assert!(
            hot > 2.0 * uniform,
            "expected hot-key concentration: hot={hot:.4}, paper={uniform:.4}"
        );
        assert!(
            hot > 0.1,
            "hottest title should carry >10% of events ({hot:.4})"
        );
    }

    #[test]
    fn paper_config_is_larger_than_small() {
        let paper = WorkloadConfig::paper();
        let small = WorkloadConfig::small();
        assert!(paper.schema.title_count > small.schema.title_count);
        assert!(paper.subscriber_count > small.subscriber_count);
        assert_eq!(WorkloadConfig::default(), small);
    }
}
