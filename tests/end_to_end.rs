//! Cross-crate integration tests: workload → matching → pruning → distributed
//! routing, checked end to end.

use dimension_pruning::matching::MatchingEngine;
use dimension_pruning::net::{Simulation, SimulationConfig, Topology};
use dimension_pruning::prelude::*;

fn workload(
    subs: usize,
    events: usize,
) -> (Vec<Subscription>, Vec<EventMessage>, SelectivityEstimator) {
    let mut generator = WorkloadGenerator::new(WorkloadConfig::small().with_seed(17));
    let subscriptions = generator.subscriptions(subs);
    let events = generator.events(events);
    let sample = generator.events(500);
    (
        subscriptions,
        events,
        SelectivityEstimator::from_events(&sample),
    )
}

#[test]
fn counting_and_naive_engines_agree_on_the_auction_workload() {
    let (subscriptions, events, _) = workload(400, 150);
    let mut counting = CountingEngine::with_capacity(subscriptions.len());
    let mut naive = NaiveEngine::new();
    for s in &subscriptions {
        counting.insert(s.clone());
        naive.insert(s.clone());
    }
    for event in &events {
        let mut a = counting.match_event(event);
        let mut b = naive.match_event(event);
        a.sort();
        b.sort();
        assert_eq!(a, b, "engines disagree on event {}", event.id());
    }
    // The index actually saves work on this workload: every auction
    // subscription is reached through its access clause only, so far fewer
    // trees are evaluated than the naive one per subscription and event.
    assert!(counting.stats().trees_evaluated * 4 < naive.stats().trees_evaluated);
}

#[test]
fn pruning_preserves_every_original_match_for_all_dimensions() {
    let (subscriptions, events, estimator) = workload(250, 120);
    for dimension in [
        Dimension::NetworkLoad,
        Dimension::Memory,
        Dimension::Throughput,
    ] {
        let mut pruner = Pruner::new(PrunerConfig::for_dimension(dimension), estimator.clone());
        pruner.register_all(subscriptions.iter().cloned());
        pruner.prune_all();
        for original in &subscriptions {
            let pruned = pruner.current_tree(original.id()).unwrap();
            for event in &events {
                if original.matches(event) {
                    assert!(
                        pruned.evaluate(event),
                        "{dimension}: lost a match of {} on event {}",
                        original.id(),
                        event.id()
                    );
                }
            }
        }
    }
}

#[test]
fn pruned_engine_matches_are_a_superset_of_unpruned_matches() {
    let (subscriptions, events, estimator) = workload(300, 100);
    let mut exact = CountingEngine::with_capacity(subscriptions.len());
    for s in &subscriptions {
        exact.insert(s.clone());
    }
    let mut pruner = Pruner::new(
        PrunerConfig::for_dimension(Dimension::NetworkLoad),
        estimator,
    );
    pruner.register_all(subscriptions.iter().cloned());
    pruner.prune_batch(subscriptions.len());
    let mut pruned = CountingEngine::with_capacity(subscriptions.len());
    for s in pruner.pruned_subscriptions() {
        pruned.insert(s);
    }
    let mut total_exact = 0usize;
    let mut total_pruned = 0usize;
    for event in &events {
        let exact_matches: std::collections::HashSet<SubscriptionId> =
            exact.match_event(event).into_iter().collect();
        let pruned_matches: std::collections::HashSet<SubscriptionId> =
            pruned.match_event(event).into_iter().collect();
        assert!(
            exact_matches.is_subset(&pruned_matches),
            "pruned engine lost matches on event {}",
            event.id()
        );
        total_exact += exact_matches.len();
        total_pruned += pruned_matches.len();
    }
    assert!(
        total_pruned >= total_exact,
        "pruning can only add false positives"
    );
}

#[test]
fn distributed_routing_delivers_exactly_the_centralized_matches() {
    let (subscriptions, events, _) = workload(300, 80);
    // Centralized reference.
    let mut engine = CountingEngine::with_capacity(subscriptions.len());
    for s in &subscriptions {
        engine.insert(s.clone());
    }
    // Distributed system.
    let mut sim = Simulation::new(SimulationConfig::new(Topology::line(5)));
    sim.register_all(subscriptions.iter().cloned());

    for event in &events {
        let mut expected = engine.match_event(event);
        expected.sort();
        let outcome = sim.publish(event.clone());
        let mut got: Vec<SubscriptionId> = outcome.deliveries.iter().map(|(_, id)| *id).collect();
        got.sort();
        assert_eq!(got, expected, "event {}", event.id());
    }
}

#[test]
fn batch_publishing_delivers_exactly_the_centralized_batch_matches() {
    // The batch pipeline end to end: workload batch → centralized
    // match_batch reference → distributed publish_batch, all through the
    // batch-first API.
    let mut generator = WorkloadGenerator::new(WorkloadConfig::small().with_seed(17));
    let subscriptions = generator.subscriptions(300);
    let batch = generator.event_batch(80);

    let mut engine = CountingEngine::with_capacity(subscriptions.len());
    for s in &subscriptions {
        engine.insert(s.clone());
    }
    let mut sink = PerEventSink::new();
    engine.match_batch(&batch, &mut sink);

    let mut sim = Simulation::new(SimulationConfig::new(Topology::line(5)));
    sim.register_all(subscriptions.iter().cloned());
    let report = sim.publish_batch(&batch);

    assert_eq!(report.events_published, batch.len() as u64);
    assert_eq!(report.deliveries as usize, sink.total_matches());
    // The distributed run drove whole batches through the engines: far fewer
    // engine invocations than events filtered.
    assert!(report.filter_stats.batches_filtered < report.filter_stats.events_filtered);
}

#[test]
fn distributed_deliveries_survive_full_pruning_on_every_topology() {
    let (subscriptions, events, estimator) = workload(150, 60);
    for topology in [
        Topology::line(5),
        Topology::star(4),
        Topology::balanced_tree(7, 2),
    ] {
        let mut sim = Simulation::new(SimulationConfig::new(topology.clone()));
        sim.register_all(subscriptions.iter().cloned());
        let baseline: Vec<usize> = events
            .iter()
            .map(|e| sim.publish(e.clone()).deliveries.len())
            .collect();

        // Exhaustively prune every broker's remote entries.
        for broker in sim.topology().broker_ids().collect::<Vec<_>>() {
            let remote = sim.remote_subscriptions(broker);
            if remote.is_empty() {
                continue;
            }
            let mut pruner = Pruner::new(
                PrunerConfig::for_dimension(Dimension::Memory),
                estimator.clone(),
            );
            pruner.register_all(remote);
            pruner.prune_all();
            for sub in pruner.pruned_subscriptions() {
                assert!(sim.install_remote_tree(broker, sub.id(), sub.tree().clone()));
            }
        }
        let pruned: Vec<usize> = events
            .iter()
            .map(|e| sim.publish(e.clone()).deliveries.len())
            .collect();
        assert_eq!(baseline, pruned, "topology {topology:?}");
    }
}

#[test]
fn memory_dimension_wins_on_memory_and_network_dimension_wins_on_traffic() {
    // A compact, deterministic check of the paper's core qualitative claims.
    let (subscriptions, events, estimator) = workload(400, 120);
    let fraction = 0.4;

    let mut per_dimension = std::collections::BTreeMap::new();
    for dimension in [
        Dimension::NetworkLoad,
        Dimension::Memory,
        Dimension::Throughput,
    ] {
        let mut pruner = Pruner::new(PrunerConfig::for_dimension(dimension), estimator.clone());
        pruner.register_all(subscriptions.iter().cloned());
        let budget = (pruner.total_possible_prunings() as f64 * fraction) as usize;
        pruner.prune_batch(budget);
        let snapshot = pruner.snapshot();

        let mut engine = CountingEngine::with_capacity(subscriptions.len());
        for s in pruner.pruned_subscriptions() {
            engine.insert(s);
        }
        let mut matches = 0u64;
        for event in &events {
            matches += engine.match_event(event).len() as u64;
        }
        per_dimension.insert(
            dimension.label(),
            (snapshot.association_reduction(), matches),
        );
    }

    let (mem_reduction, _) = per_dimension["mem"];
    let (sel_reduction, sel_matches) = per_dimension["sel"];
    let (_, mem_matches) = per_dimension["mem"];
    let (eff_reduction, _) = per_dimension["eff"];
    // Memory-based pruning frees at least as many associations as the others.
    assert!(mem_reduction + 1e-9 >= sel_reduction);
    assert!(mem_reduction + 1e-9 >= eff_reduction);
    // Network-based pruning admits no more additional matches than
    // memory-based pruning at the same pruning fraction.
    assert!(sel_matches <= mem_matches);
}

#[test]
fn covering_and_merging_apply_only_to_the_conjunctive_subset() {
    use dimension_pruning::baseline::{merge_subscriptions, CoveringIndex, MergeConfig};
    let (subscriptions, _, _) = workload(300, 10);
    let conjunctive = subscriptions
        .iter()
        .filter(|s| s.tree().to_expr().is_conjunctive())
        .count();
    assert!(conjunctive > 0);
    assert!(conjunctive < subscriptions.len());

    let mut covering = CoveringIndex::new();
    covering.insert_all(subscriptions.iter().cloned());
    let report = covering.report();
    assert_eq!(report.total, subscriptions.len());
    assert_eq!(report.conjunctive, conjunctive);

    let (_, merge_report) = merge_subscriptions(&subscriptions, MergeConfig::default());
    assert_eq!(merge_report.conjunctive, conjunctive);
    // Every replaced subscription was conjunctive, so merging can never reach
    // the workload's disjunctive subscriptions.
    assert!(merge_report.replaced <= conjunctive);
}
