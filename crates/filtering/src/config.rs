//! Engine configuration: staged-pipeline knobs.

/// When the stage-0 pre-filter is active.
///
/// The pre-filter (see [`PreFilter`](crate::PreFilter)) decides candidates
/// stage 1 emitted before stage 2 looks at them, from one compiled residual
/// per subscription: an attribute-presence bitmask and its required
/// equalities and exact numeric bounds. It kills those that cannot match
/// and matches gated conjunctions it compiled whole. It pays off when the subscription population is large and
/// constrained; on tiny or constraint-free populations the fingerprinting
/// overhead buys nothing, which is what the `Auto` heuristic accounts for.
///
/// The mode governs that test alone. Registering a subscription under its
/// access clause — one required equality, see
/// [`CountingEngine`](crate::CountingEngine) — is how the index is laid out,
/// and happens in every mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PrefilterMode {
    /// Always pre-filter, regardless of engine size.
    On,
    /// No stage-0 test (stages 1–2, access clauses included, run
    /// unchanged).
    Off,
    /// Pre-filter when it is likely to pay: at least 32 registered
    /// subscriptions of which at least half carry a stage-0 constraint.
    /// Both counts are kept running, so the decision follows every
    /// subscribe and unsubscribe.
    #[default]
    Auto,
}

/// When registration-time static analysis of subscription trees is active.
///
/// With analysis on, every inserted subscription is normalized by
/// [`pubsub_core::analysis::Analyzer`] (constant folding, flattening,
/// redundancy elimination, interval analysis) before it is indexed, and an
/// unsatisfiable subscription is counted in
/// [`FilterStats::unsatisfiable_rejected`](crate::FilterStats) and never
/// indexed at all. Match output is unaffected either way — normalization is
/// semantics-preserving and unsatisfiable trees can never match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AnalyzeMode {
    /// Analyze and normalize every subscription at insertion.
    #[default]
    On,
    /// Index subscriptions exactly as registered.
    Off,
}

impl AnalyzeMode {
    /// Whether analysis is active.
    pub fn is_on(self) -> bool {
        self == AnalyzeMode::On
    }
}

/// Configuration of a matching engine's staged pipeline.
///
/// Passed at construction time (`CountingEngine::with_config`,
/// `EngineKind::build_with_config`) or updated later via `set_config`; every
/// setting is semantics-preserving — match output is byte-identical across
/// all configurations, only the work done to produce it changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct EngineConfig {
    /// When the stage-0 pre-filter is active.
    pub prefilter: PrefilterMode,
    /// When registration-time subscription analysis is active.
    pub analyze: AnalyzeMode,
}

impl EngineConfig {
    /// The default configuration (`prefilter: Auto`, `analyze: On`).
    pub fn new() -> Self {
        Self::default()
    }

    /// A configuration with the given pre-filter mode.
    pub fn with_prefilter(prefilter: PrefilterMode) -> Self {
        Self {
            prefilter,
            ..Self::default()
        }
    }

    /// A configuration with the given analysis mode.
    pub fn with_analyze(analyze: AnalyzeMode) -> Self {
        Self {
            analyze,
            ..Self::default()
        }
    }

    /// Returns this configuration with the analysis mode replaced.
    pub fn analyze(mut self, analyze: AnalyzeMode) -> Self {
        self.analyze = analyze;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_to_auto() {
        assert_eq!(EngineConfig::default().prefilter, PrefilterMode::Auto);
        assert_eq!(EngineConfig::default().analyze, AnalyzeMode::On);
        assert_eq!(EngineConfig::new(), EngineConfig::default());
        assert_eq!(
            EngineConfig::with_prefilter(PrefilterMode::On).prefilter,
            PrefilterMode::On
        );
        assert_eq!(
            EngineConfig::with_prefilter(PrefilterMode::On).analyze,
            AnalyzeMode::On
        );
    }

    #[test]
    fn analyze_builders() {
        let cfg = EngineConfig::with_analyze(AnalyzeMode::Off);
        assert_eq!(cfg.analyze, AnalyzeMode::Off);
        assert_eq!(cfg.prefilter, PrefilterMode::Auto);
        assert!(!AnalyzeMode::Off.is_on());
        assert!(AnalyzeMode::On.is_on());
        let flipped = EngineConfig::default().analyze(AnalyzeMode::Off);
        assert_eq!(flipped.analyze, AnalyzeMode::Off);
    }
}
