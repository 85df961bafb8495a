//! Churn soak: what a network holds is a function of its live
//! subscriptions, not of how many came and went.
//!
//! A `line(3)` goes through a few thousand unsubscribe + subscribe cycles in
//! which every subscription brings constants no earlier one used. Afterwards
//! each broker's routing memory — entries, the engines' distinct `=`
//! constants, the entries filed in the flood-suppression indexes — and its
//! suppression records must equal those of a network that only ever saw the
//! survivors.

use broker::{BrokerId, Simulation, SimulationConfig, Topology};
use pubsub_core::{EventMessage, Expr, SubscriberId, Subscription, SubscriptionId};
use std::collections::VecDeque;

const LIVE: u64 = 240;
const CYCLES: u64 = 3_000;

/// Every fourth subscription watches a fresh topic; the others watch a
/// recent topic (whose watcher may be gone by now) and a fresh author, so
/// each has at most one subsumer and none subsumes another.
fn subscription(i: u64) -> Subscription {
    let topic = |k: u64| Expr::eq("soak_topic", format!("topic-{k}"));
    let expr = if i % 4 == 0 {
        topic(i / 4)
    } else {
        let recent = (i / 4).saturating_sub(7 * (i % 3));
        Expr::and(vec![
            topic(recent),
            Expr::eq("soak_author", format!("author-{i}")),
        ])
    };
    Subscription::from_expr(
        SubscriptionId::from_raw(i),
        SubscriberId::from_raw(i % 7),
        &expr,
    )
}

fn line3() -> Simulation {
    Simulation::new(SimulationConfig::new(Topology::line(3)))
}

#[test]
fn churned_network_holds_what_a_fresh_one_does() {
    let mut churned = line3();
    let mut live: VecDeque<Subscription> = (0..LIVE).map(subscription).collect();
    for sub in &live {
        churned.register_subscription(sub.clone());
    }
    let mut reflooded_under_churn = false;
    for i in LIVE..LIVE + CYCLES {
        let oldest = live.pop_front().expect("the population is never empty");
        let home = churned.home_broker_of(oldest.subscriber());
        let before = churned.analysis_stats().reflooded;
        churned.unregister_subscription(oldest.id(), home);
        reflooded_under_churn |= churned.analysis_stats().reflooded > before;
        let fresh = subscription(i);
        churned.register_subscription(fresh.clone());
        live.push_back(fresh);
    }
    assert!(
        reflooded_under_churn,
        "no watcher left before its followers"
    );

    let mut fresh = line3();
    for sub in &live {
        fresh.register_subscription(sub.clone());
    }

    let brokers: Vec<BrokerId> = churned.topology().broker_ids().collect();
    let mut suppressed = 0;
    for &id in &brokers {
        let (old, new) = (
            churned.broker(id).expect("part of the line"),
            fresh.broker(id).expect("part of the line"),
        );
        assert_eq!(old.memory_report(), new.memory_report(), "{id}");
        assert!(old.memory_report().subsumption_entries > 0, "{id}");
        for &neighbor in old.neighbors() {
            assert_eq!(
                old.suppressed_toward(neighbor),
                new.suppressed_toward(neighbor),
                "{id} toward {neighbor}"
            );
            suppressed += old.suppressed_toward(neighbor);
        }
    }
    assert!(suppressed > 0, "the soak suppressed nothing");
    // One bucket per live constant: a topic per watcher or follower's
    // topic, an author per follower — nothing of the 3,000 that left.
    let constants = churned.memory_report().equality_constants;
    assert!(constants <= 2 * 3 * LIVE as usize, "{constants} constants");

    let event = EventMessage::builder()
        .attr("soak_topic", format!("topic-{}", (LIVE + CYCLES - 4) / 4))
        .attr("soak_author", "nobody")
        .build();
    let delivered = churned.publish_at(event.clone(), brokers[0]).deliveries;
    assert!(!delivered.is_empty());
    assert_eq!(delivered, fresh.publish_at(event, brokers[0]).deliveries);
}
