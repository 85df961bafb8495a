//! The centralized experiments: Figures 1(a), 1(b), and 1(c).

use filtering::{AnalyzeMode, CountSink, CountingEngine, EngineConfig, MatchingEngine};
use pruning::{Dimension, Pruner, PrunerConfig};
use pubsub_core::{EventBatch, EventMessage, Subscription};
use selectivity::SelectivityEstimator;
use std::collections::HashMap;
use workload::{ScenarioConfig, WorkloadGenerator};

/// One measurement of the centralized setting: a `(heuristic, fraction)`
/// point carrying the y-values of all three centralized panels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CentralizedPoint {
    /// The pruning heuristic (`sel`, `eff`, or `mem` in the paper's labels).
    pub dimension: Dimension,
    /// Proportional number of prunings (0 = unoptimized, 1 = exhausted).
    pub fraction: f64,
    /// Absolute number of prunings applied at this point.
    pub prunings: usize,
    /// Figure 1(a): average filtering time per event, in seconds.
    pub filter_time_secs: f64,
    /// Figure 1(b): proportional number of matching events — the average
    /// fraction of subscriptions fulfilled per published event.
    pub matching_fraction: f64,
    /// Figure 1(c): proportional reduction in predicate/subscription
    /// associations relative to the unoptimized engine.
    pub association_reduction: f64,
}

/// Runs the centralized experiment for one heuristic over the given pruning
/// fractions, returning one [`CentralizedPoint`] per fraction.
///
/// The procedure mirrors the paper's setup: register all subscriptions,
/// compute the heuristic's full pruning sequence, then for each requested
/// fraction install the corresponding prefix of prunings and filter the whole
/// event set through the counting engine.
pub fn run_centralized(
    scenario: &ScenarioConfig,
    dimension: Dimension,
    fractions: &[f64],
) -> Vec<CentralizedPoint> {
    let mut generator = WorkloadGenerator::new(scenario.workload);
    let subscriptions = generator.subscriptions(scenario.subscription_count);
    let events = generator.events(scenario.event_count);
    let stats_sample = generator.events(scenario.stats_sample);
    let estimator = SelectivityEstimator::from_events(&stats_sample);

    run_centralized_with(&subscriptions, &events, &estimator, dimension, fractions)
}

/// Runs the centralized experiment on explicitly provided subscriptions and
/// events (used by the ablation binary and by integration tests that need to
/// share a workload across runs).
pub fn run_centralized_with(
    subscriptions: &[Subscription],
    events: &[EventMessage],
    estimator: &SelectivityEstimator,
    dimension: Dimension,
    fractions: &[f64],
) -> Vec<CentralizedPoint> {
    // Compute the heuristic's full pruning sequence once.
    let mut pruner = Pruner::new(PrunerConfig::for_dimension(dimension), estimator.clone());
    pruner.register_all(subscriptions.iter().cloned());
    let originals = pruner.original_trees();
    pruner.prune_all();
    let plan = pruner.plan().clone();
    let total = plan.len().max(1);

    // Baseline engine (unoptimized) for the association-reduction reference.
    // Analysis is pinned off: these experiments measure the pruning
    // heuristics in isolation, so trees must enter the engine verbatim.
    let mut engine = CountingEngine::with_config_and_capacity(
        EngineConfig::with_analyze(AnalyzeMode::Off),
        subscriptions.len(),
    );
    for s in subscriptions {
        engine.insert(s.clone());
    }
    let baseline_report = engine.report();

    // Walk the fractions in ascending order, applying the plan incrementally.
    let mut sorted_fractions: Vec<f64> = fractions.to_vec();
    sorted_fractions.sort_by(f64::total_cmp);
    let mut current_trees = originals.clone();
    let mut applied = 0usize;
    let mut points = Vec::with_capacity(sorted_fractions.len());
    let subscription_index: HashMap<_, _> = subscriptions.iter().map(|s| (s.id(), s)).collect();

    // The whole event set as one batch, built once and matched per fraction
    // through the batch-first hot path.
    let event_batch: EventBatch = events.iter().cloned().collect();
    let mut sink = CountSink::new();

    for fraction in sorted_fractions {
        let target = ((fraction.clamp(0.0, 1.0)) * total as f64).round() as usize;
        if target > applied {
            // Apply the additional prunings and push the changed trees into
            // the engine.
            let changed: Vec<_> = plan.as_slice()[applied..target]
                .iter()
                .map(|p| p.subscription)
                .collect();
            plan.apply_range(&mut current_trees, applied, target);
            for id in changed {
                let tree = current_trees[&id].clone();
                let original = subscription_index[&id];
                engine.insert(original.with_tree(tree));
            }
            applied = target;
        }

        engine.reset_stats();
        engine.match_batch(&event_batch, &mut sink);
        let stats = *engine.stats();
        let report = engine.report();
        let matching_fraction = if events.is_empty() || subscriptions.is_empty() {
            0.0
        } else {
            stats.matches as f64 / (events.len() as f64 * subscriptions.len() as f64)
        };
        points.push(CentralizedPoint {
            dimension,
            fraction: applied as f64 / total as f64,
            prunings: applied,
            filter_time_secs: stats.avg_filter_time().as_secs_f64(),
            matching_fraction,
            association_reduction: report.association_reduction_vs(&baseline_report),
        });
    }
    points
}

/// CSV header for centralized points.
pub fn centralized_csv_header() -> String {
    "panel,dimension,fraction,prunings,filter_time_secs,matching_fraction,association_reduction"
        .to_owned()
}

/// Formats one centralized point as a CSV row.
pub fn centralized_csv_row(point: &CentralizedPoint) -> String {
    format!(
        "centralized,{},{:.4},{},{},{},{}",
        point.dimension.label(),
        point.fraction,
        point.prunings,
        crate::csv_cell(point.filter_time_secs),
        crate::csv_cell(point.matching_fraction),
        crate::csv_cell(point.association_reduction),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scenario() -> ScenarioConfig {
        let mut scenario = ScenarioConfig::small_centralized().scaled(0.05);
        scenario.workload.seed = 3;
        scenario
    }

    #[test]
    fn centralized_run_produces_monotone_trends() {
        let scenario = tiny_scenario();
        let fractions = [0.0, 0.5, 1.0];
        let points = run_centralized(&scenario, Dimension::NetworkLoad, &fractions);
        assert_eq!(points.len(), 3);
        // Fraction 0 is the unoptimized system.
        assert_eq!(points[0].prunings, 0);
        assert_eq!(points[0].association_reduction, 0.0);
        // More pruning can only admit more matches and free more memory.
        assert!(points[2].matching_fraction >= points[0].matching_fraction - 1e-9);
        assert!(points[2].association_reduction >= points[1].association_reduction - 1e-9);
        assert!(points[2].association_reduction > 0.0);
        assert!((0.99..=1.01).contains(&points[2].fraction));
    }

    #[test]
    fn all_dimensions_share_the_unoptimized_starting_point() {
        let scenario = tiny_scenario();
        let fractions = [0.0];
        let sel = run_centralized(&scenario, Dimension::NetworkLoad, &fractions);
        let eff = run_centralized(&scenario, Dimension::Throughput, &fractions);
        let mem = run_centralized(&scenario, Dimension::Memory, &fractions);
        assert!((sel[0].matching_fraction - eff[0].matching_fraction).abs() < 1e-12);
        assert!((sel[0].matching_fraction - mem[0].matching_fraction).abs() < 1e-12);
        assert_eq!(sel[0].association_reduction, 0.0);
        assert_eq!(mem[0].association_reduction, 0.0);
    }

    #[test]
    fn csv_rows_are_well_formed() {
        let point = CentralizedPoint {
            dimension: Dimension::Memory,
            fraction: 0.5,
            prunings: 10,
            filter_time_secs: 0.001,
            matching_fraction: 0.2,
            association_reduction: 0.3,
        };
        let header = centralized_csv_header();
        let row = centralized_csv_row(&point);
        assert_eq!(header.split(',').count(), row.split(',').count());
        assert!(row.starts_with("centralized,mem,0.5"));
    }
}
