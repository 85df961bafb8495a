//! The paper's 5-broker line against a centralized oracle, under churn.
//!
//! Brokers answer most forwarding decisions from witnesses — entries that
//! matched recently — so the dangerous moments are the ones that change an
//! entry a witness was cloned from: unsubscribes, new subscriptions, pruned
//! trees installed over live entries. After each such round, for every
//! engine kind, the delivery log must equal what a centralized
//! `NaiveEngine` over the live original subscriptions delivers, and the
//! event copies on every link must equal what `NaiveEngine`s holding each
//! broker's entries per direction (in their pruned form) let through.

use broker::{BrokerId, EngineKind, Simulation, SimulationConfig, Topology};
use filtering::{AnalyzeMode, EngineConfig, MatchingEngine, NaiveEngine};
use pubsub_core::{
    EventBatch, EventId, Expr, SubscriberId, Subscription, SubscriptionId, SubscriptionTree,
};
use std::collections::BTreeMap;
use workload::{WorkloadConfig, WorkloadGenerator};

const BROKERS: u32 = 5;

type Delivery = (EventId, SubscriberId, SubscriptionId);
type Links = BTreeMap<(BrokerId, BrokerId), u64>;

fn b(i: u32) -> BrokerId {
    BrokerId::from_raw(i)
}

fn naive() -> NaiveEngine {
    // Analysis off: the oracle evaluates trees exactly as given.
    NaiveEngine::with_config(EngineConfig::with_analyze(AnalyzeMode::Off))
}

/// What the network should hold, kept beside it.
#[derive(Default)]
struct Model {
    /// Live subscriptions in their original form.
    live: BTreeMap<SubscriptionId, Subscription>,
    /// Pruned remote entries, per broker holding them.
    pruned: BTreeMap<(BrokerId, SubscriptionId), Subscription>,
    /// Events published so far (publishers are assigned round-robin).
    published: u64,
}

impl Model {
    /// The oracle's deliveries and per-link event copies for `batch`.
    fn expect(&self, sim: &Simulation, batch: &EventBatch) -> (Vec<Delivery>, Links) {
        let mut central = naive();
        // `toward[(a, n)]`: the entries of broker `a` pointing at neighbor `n`.
        let mut toward: BTreeMap<(BrokerId, BrokerId), NaiveEngine> = BTreeMap::new();
        for (id, original) in &self.live {
            central.insert(original.clone());
            let home = sim.home_broker_of(original.subscriber()).raw();
            for a in (0..BROKERS).filter(|a| *a != home) {
                let next = if home > a { a + 1 } else { a - 1 };
                let entry = self.pruned.get(&(b(a), *id)).unwrap_or(original);
                toward
                    .entry((b(a), b(next)))
                    .or_insert_with(naive)
                    .insert(entry.clone());
            }
        }
        let mut deliveries = Vec::new();
        let mut links = Links::new();
        for (index, event) in batch.events().iter().enumerate() {
            for id in central.match_event(event) {
                deliveries.push((event.id(), self.live[&id].subscriber(), id));
            }
            let origin = sim.publisher_broker(self.published + index as u64).raw();
            for step in [1i64, -1] {
                let mut at = origin as i64;
                loop {
                    let next = at + step;
                    let forwarded = (0..BROKERS as i64).contains(&next)
                        && toward
                            .get_mut(&(b(at as u32), b(next as u32)))
                            .is_some_and(|entries| !entries.match_event(event).is_empty());
                    if !forwarded {
                        break;
                    }
                    *links
                        .entry((b(at.min(next) as u32), b(at.max(next) as u32)))
                        .or_insert(0) += 1;
                    at = next;
                }
            }
        }
        deliveries.sort();
        (deliveries, links)
    }

    /// Publishes `batch` and compares the network with the oracle.
    fn publish_and_check(&mut self, sim: &mut Simulation, batch: &EventBatch, what: &str) {
        let (deliveries, links) = self.expect(sim, batch);
        let report = sim.publish_batch(batch);
        self.published += batch.len() as u64;
        let mut log = sim.take_delivery_log();
        log.sort();
        if log != deliveries {
            let missing: Vec<_> = deliveries.iter().filter(|d| !log.contains(d)).collect();
            let spurious: Vec<_> = log.iter().filter(|d| !deliveries.contains(d)).collect();
            panic!("{what}: deliveries; missing {missing:?}, spurious or duplicate {spurious:?}");
        }
        let mut per_link = report.network.per_link;
        per_link.retain(|_, copies| *copies > 0);
        assert_eq!(per_link, links, "{what}: event copies per link");
    }
}

/// The entry's conjunction minus its last conjunct, if it is one.
fn generalised(entry: &Subscription) -> Option<Subscription> {
    match entry.tree().to_expr() {
        Expr::And(mut children) if children.len() >= 2 => {
            children.pop();
            Some(entry.with_tree(SubscriptionTree::from_expr(&Expr::and(children))))
        }
        _ => None,
    }
}

fn churned_line_agrees_with_the_oracle(kind: EngineKind) {
    let mut generator = WorkloadGenerator::new(WorkloadConfig::small().with_seed(7));
    let mut sim = Simulation::new(SimulationConfig::new(Topology::line(5)).with_engine(kind));
    sim.enable_delivery_log();
    let mut model = Model::default();

    for subscription in generator.subscriptions(240) {
        model.live.insert(subscription.id(), subscription.clone());
        sim.register_subscription(subscription);
    }
    let what = |round: usize, step: &str| format!("{kind:?} round {round} {step}");
    model.publish_and_check(&mut sim, &generator.event_batch(64), &what(0, "initial"));

    for round in 1..=3 {
        // Unsubscribe a slice of the population — witnesses among them.
        let leaving: Vec<Subscription> = model
            .live
            .values()
            .skip(round)
            .step_by(5)
            .cloned()
            .collect();
        for subscription in leaving {
            let id = subscription.id();
            let home = sim.home_broker_of(subscription.subscriber());
            sim.unregister_subscription(id, home);
            model.live.remove(&id);
            model.pruned.retain(|(_, pruned), _| *pruned != id);
        }
        model.publish_and_check(&mut sim, &generator.event_batch(64), &what(round, "left"));

        // Prune every third remote entry of every broker.
        for a in 0..BROKERS {
            for entry in sim.remote_subscriptions(b(a)).iter().skip(round).step_by(3) {
                if let Some(pruned) = generalised(entry) {
                    assert!(sim.install_remote_tree(b(a), entry.id(), pruned.tree().clone()));
                    model.pruned.insert((b(a), entry.id()), pruned);
                }
            }
        }
        model.publish_and_check(&mut sim, &generator.event_batch(64), &what(round, "pruned"));

        // New subscribers.
        for subscription in generator.subscriptions(40) {
            model.live.insert(subscription.id(), subscription.clone());
            sim.register_subscription(subscription);
        }
        // One two-event batch and single events, then a full batch.
        model.publish_and_check(&mut sim, &generator.event_batch(2), &what(round, "pair"));
        for _ in 0..8 {
            model.publish_and_check(&mut sim, &generator.event_batch(1), &what(round, "single"));
        }
        model.publish_and_check(&mut sim, &generator.event_batch(64), &what(round, "joined"));
    }
    // The witnesses did answer: the run is not vacuous.
    assert!(sim.filter_stats().witness_hits > 0, "{kind:?}");
}

#[test]
fn counting_line_agrees_with_the_oracle_after_churn() {
    churned_line_agrees_with_the_oracle(EngineKind::Counting);
}

#[test]
fn sharded_line_agrees_with_the_oracle_after_churn() {
    churned_line_agrees_with_the_oracle(EngineKind::Sharded(2));
}

#[test]
fn atree_line_agrees_with_the_oracle_after_churn() {
    churned_line_agrees_with_the_oracle(EngineKind::ATree);
}

#[test]
fn sharded_atree_line_agrees_with_the_oracle_after_churn() {
    churned_line_agrees_with_the_oracle(EngineKind::ShardedATree(2));
}
