//! The distributed experiments: Figures 1(d), 1(e), and 1(f).

use broker::{BrokerId, Simulation, SimulationConfig, Topology};
use filtering::{AnalyzeMode, EngineConfig, EngineKind};
use pruning::{Dimension, Pruner, PrunerConfig, PruningPlan};
use pubsub_core::{EventMessage, Subscription, SubscriptionId, SubscriptionTree};
use selectivity::SelectivityEstimator;
use std::collections::HashMap;
use workload::{ScenarioConfig, WorkloadGenerator};

/// One measurement of the distributed setting: a `(heuristic, fraction)`
/// point carrying the y-values of all three distributed panels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistributedPoint {
    /// The pruning heuristic.
    pub dimension: Dimension,
    /// Proportional number of prunings (0 = unoptimized, 1 = exhausted).
    pub fraction: f64,
    /// Absolute number of prunings applied across all brokers.
    pub prunings: usize,
    /// Figure 1(d): average filtering time per event summed over the brokers
    /// that handled it, in seconds.
    pub filter_time_secs: f64,
    /// Figure 1(e): proportional increase in routed (inter-broker) events
    /// relative to the unoptimized run (1.0 = doubled traffic).
    pub network_increase: f64,
    /// Figure 1(f): proportional reduction in predicate/subscription
    /// associations of non-local (remote) routing entries.
    pub remote_association_reduction: f64,
    /// Total notifications delivered — identical across all fractions, which
    /// the harness asserts as a routing-correctness check.
    pub deliveries: u64,
}

/// Per-broker pruning state used while sweeping the fractions.
struct BrokerPlan {
    broker: BrokerId,
    plan: PruningPlan,
    trees: HashMap<SubscriptionId, SubscriptionTree>,
    applied: usize,
}

/// Runs the distributed experiment (five-broker line by default) for one
/// heuristic over the given pruning fractions, with every broker matching
/// through the counting engine.
pub fn run_distributed(
    scenario: &ScenarioConfig,
    dimension: Dimension,
    fractions: &[f64],
) -> Vec<DistributedPoint> {
    run_distributed_with_engine(scenario, dimension, fractions, EngineKind::Counting)
}

/// Runs the distributed experiment with every broker's routing table built
/// as the given [`EngineKind`] — what the harness binaries' `--engine` flag
/// selects. The match results (and therefore the deliveries every point is
/// checked against) are engine-independent; only the filter-time panel
/// moves.
pub fn run_distributed_with_engine(
    scenario: &ScenarioConfig,
    dimension: Dimension,
    fractions: &[f64],
    engine: EngineKind,
) -> Vec<DistributedPoint> {
    let mut generator = WorkloadGenerator::new(scenario.workload);
    let subscriptions = generator.subscriptions(scenario.subscription_count);
    let events = generator.events(scenario.event_count);
    let stats_sample = generator.events(scenario.stats_sample);
    let estimator = SelectivityEstimator::from_events(&stats_sample);
    run_distributed_with(
        scenario.broker_count.max(2),
        &subscriptions,
        &events,
        &estimator,
        dimension,
        fractions,
        engine,
    )
}

/// Runs the distributed experiment on explicitly provided subscriptions and
/// events.
pub fn run_distributed_with(
    broker_count: usize,
    subscriptions: &[Subscription],
    events: &[EventMessage],
    estimator: &SelectivityEstimator,
    dimension: Dimension,
    fractions: &[f64],
    engine: EngineKind,
) -> Vec<DistributedPoint> {
    // The pruning experiments measure the dimension heuristics in
    // isolation: registration-time analysis (tree normalization and
    // subsumption-based flood suppression) would perturb both the traffic
    // baseline and the remote entries the pruner mutates, so it is pinned
    // off here — the analyzer has its own panel in `matching_panel`.
    let config = SimulationConfig::new(Topology::line(broker_count))
        .with_engine(engine)
        .with_engine_config(EngineConfig::with_analyze(AnalyzeMode::Off));
    let mut sim = Simulation::new(config);
    sim.register_all(subscriptions.iter().cloned());

    // Baseline run (unoptimized routing tables).
    let baseline_memory = sim.memory_report();
    let baseline_run = sim.publish_all(events);
    let baseline_messages = baseline_run.network.messages.max(1);

    // One pruner per broker over its remote (non-local) routing entries.
    let mut broker_plans: Vec<BrokerPlan> = Vec::new();
    for broker in sim.topology().broker_ids().collect::<Vec<_>>() {
        let remote = sim.remote_subscriptions(broker);
        if remote.is_empty() {
            continue;
        }
        let mut pruner = Pruner::new(PrunerConfig::for_dimension(dimension), estimator.clone());
        pruner.register_all(remote);
        let trees = pruner.original_trees();
        pruner.prune_all();
        broker_plans.push(BrokerPlan {
            broker,
            plan: pruner.plan().clone(),
            trees,
            applied: 0,
        });
    }
    let total: usize = broker_plans
        .iter()
        .map(|b| b.plan.len())
        .sum::<usize>()
        .max(1);

    let mut sorted_fractions: Vec<f64> = fractions.to_vec();
    sorted_fractions.sort_by(f64::total_cmp);

    let mut points = Vec::with_capacity(sorted_fractions.len());
    for fraction in sorted_fractions {
        let fraction = fraction.clamp(0.0, 1.0);
        // Advance every broker to its share of the global pruning fraction.
        for state in &mut broker_plans {
            let target = (fraction * state.plan.len() as f64).round() as usize;
            if target > state.applied {
                let changed: Vec<SubscriptionId> = state.plan.as_slice()[state.applied..target]
                    .iter()
                    .map(|p| p.subscription)
                    .collect();
                state
                    .plan
                    .apply_range(&mut state.trees, state.applied, target);
                for id in changed {
                    let tree = state.trees[&id].clone();
                    assert!(
                        sim.install_remote_tree(state.broker, id, tree),
                        "remote entry {id} must exist at {}",
                        state.broker
                    );
                }
                state.applied = target;
            }
        }
        let applied_total: usize = broker_plans.iter().map(|b| b.applied).sum();

        sim.reset_metrics();
        let run = sim.publish_all(events);
        let memory = sim.memory_report();
        points.push(DistributedPoint {
            dimension,
            fraction: applied_total as f64 / total as f64,
            prunings: applied_total,
            filter_time_secs: run.filter_time_per_event().as_secs_f64(),
            network_increase: run.network.messages as f64 / baseline_messages as f64 - 1.0,
            remote_association_reduction: memory.remote_reduction_vs(&baseline_memory),
            deliveries: run.deliveries,
        });
    }

    // Routing correctness: pruning must never change what is delivered.
    let reference = points.first().map(|p| p.deliveries).unwrap_or(0);
    for p in &points {
        assert_eq!(
            p.deliveries, reference,
            "pruning changed the delivered notifications"
        );
    }
    points
}

/// CSV header for distributed points.
pub fn distributed_csv_header() -> String {
    "panel,dimension,fraction,prunings,filter_time_secs,network_increase,remote_association_reduction,deliveries"
        .to_owned()
}

/// Formats one distributed point as a CSV row.
pub fn distributed_csv_row(point: &DistributedPoint) -> String {
    format!(
        "distributed,{},{:.4},{},{},{},{},{}",
        point.dimension.label(),
        point.fraction,
        point.prunings,
        crate::csv_cell(point.filter_time_secs),
        crate::csv_cell(point.network_increase),
        crate::csv_cell(point.remote_association_reduction),
        point.deliveries,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scenario() -> ScenarioConfig {
        let mut scenario = ScenarioConfig::small_distributed().scaled(0.02);
        scenario.workload.seed = 5;
        scenario
    }

    #[test]
    fn distributed_run_is_delivery_preserving_and_trending() {
        let scenario = tiny_scenario();
        let fractions = [0.0, 0.5, 1.0];
        let points = run_distributed(&scenario, Dimension::NetworkLoad, &fractions);
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].prunings, 0);
        assert!(points[0].network_increase.abs() < 1e-9);
        assert_eq!(points[0].remote_association_reduction, 0.0);
        // Deliveries identical at every fraction (asserted inside the runner
        // as well).
        assert_eq!(points[0].deliveries, points[2].deliveries);
        // Pruning can only add traffic and can only shrink routing tables.
        assert!(points[2].network_increase >= -1e-9);
        assert!(points[2].remote_association_reduction > 0.0);
        assert!(
            points[2].remote_association_reduction >= points[1].remote_association_reduction - 1e-9
        );
    }

    #[test]
    fn memory_heuristic_increases_network_load_fastest() {
        let scenario = tiny_scenario();
        let fractions = [0.3];
        let sel = run_distributed(&scenario, Dimension::NetworkLoad, &fractions);
        let mem = run_distributed(&scenario, Dimension::Memory, &fractions);
        // The paper's headline qualitative result: at the same pruning
        // fraction, network-based pruning admits no more traffic than
        // memory-based pruning.
        assert!(sel[0].network_increase <= mem[0].network_increase + 1e-9);
    }

    #[test]
    fn csv_rows_are_well_formed() {
        let point = DistributedPoint {
            dimension: Dimension::Throughput,
            fraction: 0.25,
            prunings: 3,
            filter_time_secs: 0.002,
            network_increase: 0.1,
            remote_association_reduction: 0.15,
            deliveries: 42,
        };
        assert_eq!(
            distributed_csv_header().split(',').count(),
            distributed_csv_row(&point).split(',').count()
        );
        assert!(distributed_csv_row(&point).starts_with("distributed,eff,0.25"));
    }
}
