//! End-to-end experiment scenarios (workload scale plus topology shape).

use crate::WorkloadConfig;

/// A complete experiment scenario: how many subscriptions and events to
/// generate, how many brokers to run, and how many events to sample for the
/// selectivity statistics the heuristics work from.
///
/// The two `paper_*` presets reproduce the scale of the paper's evaluation
/// (200,000 subscriptions, 100,000 events, five brokers in a line); the
/// `small_*` presets keep the same structure at a size suitable for laptops
/// and CI.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// The workload generator configuration.
    pub workload: WorkloadConfig,
    /// Number of subscriptions to register.
    pub subscription_count: usize,
    /// Number of events to publish.
    pub event_count: usize,
    /// Number of brokers (1 = centralized).
    pub broker_count: usize,
    /// Number of events sampled to build the selectivity statistics.
    pub stats_sample: usize,
}

impl ScenarioConfig {
    /// The paper's centralized setting: one broker, 200,000 subscriptions,
    /// 100,000 events.
    pub fn paper_centralized() -> Self {
        Self {
            workload: WorkloadConfig::paper(),
            subscription_count: 200_000,
            event_count: 100_000,
            broker_count: 1,
            stats_sample: 10_000,
        }
    }

    /// The paper's distributed setting: five brokers connected as a line.
    pub fn paper_distributed() -> Self {
        Self {
            broker_count: 5,
            ..Self::paper_centralized()
        }
    }

    /// The skewed hot-key centralized cell used by the staged-matching
    /// benchmarks: 10,000 subscriptions drawn title-watcher-heavy from the
    /// hot-key catalog ([`WorkloadConfig::hot_key`]), one broker.
    pub fn hot_key_centralized() -> Self {
        Self {
            workload: WorkloadConfig::hot_key(),
            subscription_count: 10_000,
            event_count: 5_000,
            broker_count: 1,
            stats_sample: 2_000,
        }
    }

    /// A laptop-scale centralized scenario.
    pub fn small_centralized() -> Self {
        Self {
            workload: WorkloadConfig::small(),
            subscription_count: 5_000,
            event_count: 2_000,
            broker_count: 1,
            stats_sample: 1_000,
        }
    }

    /// A laptop-scale distributed scenario (five brokers in a line).
    pub fn small_distributed() -> Self {
        Self {
            broker_count: 5,
            ..Self::small_centralized()
        }
    }

    /// Returns a copy scaled by the given factor (subscription, event, and
    /// sample counts are multiplied; at least one of each is kept).
    pub fn scaled(mut self, factor: f64) -> Self {
        let scale = |x: usize| ((x as f64 * factor).round() as usize).max(1);
        self.subscription_count = scale(self.subscription_count);
        self.event_count = scale(self.event_count);
        self.stats_sample = scale(self.stats_sample);
        self
    }

    /// Returns `true` for single-broker (centralized) scenarios.
    pub fn is_centralized(&self) -> bool {
        self.broker_count <= 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_presets_match_the_evaluation_scale() {
        let c = ScenarioConfig::paper_centralized();
        assert_eq!(c.subscription_count, 200_000);
        assert_eq!(c.event_count, 100_000);
        assert_eq!(c.broker_count, 1);
        assert!(c.is_centralized());

        let d = ScenarioConfig::paper_distributed();
        assert_eq!(d.broker_count, 5);
        assert!(!d.is_centralized());
        assert_eq!(d.subscription_count, c.subscription_count);
    }

    #[test]
    fn small_presets_are_small() {
        let c = ScenarioConfig::small_centralized();
        assert!(c.subscription_count <= 10_000);
        assert!(c.event_count <= 10_000);
        let d = ScenarioConfig::small_distributed();
        assert_eq!(d.broker_count, 5);
    }

    #[test]
    fn hot_key_preset_is_centralized_and_skewed() {
        let c = ScenarioConfig::hot_key_centralized();
        assert!(c.is_centralized());
        assert_eq!(c.subscription_count, 10_000);
        assert!(c.workload.schema.popularity_skew >= 1.5);
        assert!(c.workload.mix.title_watcher > c.workload.mix.category_browser);
    }

    #[test]
    fn scaling_preserves_structure() {
        let base = ScenarioConfig::small_distributed();
        let tiny = base.scaled(0.1);
        assert_eq!(tiny.broker_count, base.broker_count);
        assert!(tiny.subscription_count < base.subscription_count);
        assert!(tiny.subscription_count >= 1);
        let zero = base.scaled(0.0);
        assert_eq!(zero.subscription_count, 1);
    }
}
