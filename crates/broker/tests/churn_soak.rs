//! Churn soak: what a network holds is a function of its live
//! subscriptions, not of how many came and went.
//!
//! A `line(3)` goes through a few thousand unsubscribe + subscribe cycles in
//! which every subscription brings constants no earlier one used. Afterwards
//! each broker's routing memory — entries, the engines' distinct `=`
//! constants, the entries filed in the flood-suppression indexes — and its
//! suppression records must equal those of a network that only ever saw the
//! survivors. The same goes for what it stores: each broker's snapshot plus
//! log stay within twice a snapshot of its table as it stands, and a
//! whole-cluster restart reads the tables back from them.

use broker::durability::Storage as _;
use broker::durability::{LOG_OBJECT, SNAPSHOT_OBJECT};
use broker::{
    Broker, BrokerId, DurabilityConfig, DurableLog, MemoryStorage, Simulation, SimulationConfig,
    Topology,
};
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
    Simulation::new(
        SimulationConfig::new(Topology::line(3))
            .with_reliability(true)
            .with_durability(DurabilityConfig::new()),
    )
}

/// Snapshot plus log bytes a log's backend holds.
fn stored_bytes(log: &DurableLog) -> usize {
    [SNAPSHOT_OBJECT, LOG_OBJECT]
        .into_iter()
        .filter_map(|name| log.storage().read(name))
        .map(|bytes| bytes.len())
        .sum()
}

/// A broker's table: every entry with the link it arrived on, by id.
fn table_of(broker: &Broker) -> Vec<(Option<BrokerId>, Subscription)> {
    let mut table: Vec<(Option<BrokerId>, Subscription)> = broker
        .routing_table()
        .entries()
        .map(|(origin, sub)| (origin, sub.clone()))
        .collect();
    table.sort_by_key(|(_, sub)| sub.id());
    table
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
    assert_eq!(
        delivered,
        fresh.publish_at(event.clone(), brokers[0]).deliveries
    );

    // 6,000 records per broker later, what is stored is bounded by what is
    // live: compaction fires once the log is as long as the last snapshot
    // (and at least a period of 64 records, the slack allowed here).
    let record = {
        let mut scratch = DurableLog::in_memory(DurabilityConfig::new());
        scratch.append_subscribe(&subscription(LIVE + CYCLES), None);
        stored_bytes(&scratch)
    };
    let mut tables = Vec::new();
    for &id in &brokers {
        let broker = churned.broker(id).expect("part of the line");
        let stored = stored_bytes(broker.durable_log().expect("durability is on"));
        let live = {
            let mut scratch = DurableLog::in_memory(DurabilityConfig::new());
            scratch.compact(broker.routing_table().entries());
            stored_bytes(&scratch)
        };
        assert!(live > 0, "{id}");
        assert!(
            stored <= 2 * live + 64 * record,
            "{id}: {stored} bytes stored for a {live}-byte table"
        );
        tables.push(table_of(broker));
    }
    assert!(churned.network_stats().snapshot_compactions > 0);

    // What a broker stored is its table: a lone broker opening a copy of
    // the storage replays exactly the entries, links included.
    for (&id, before) in brokers.iter().zip(&tables) {
        let broker = churned.broker(id).expect("part of the line");
        let stored = broker.durable_log().expect("durability is on").storage();
        let mut copy = MemoryStorage::new();
        for name in [SNAPSHOT_OBJECT, LOG_OBJECT] {
            if let Some(bytes) = stored.read(name) {
                copy.write(name, &bytes);
            }
        }
        let mut lone = Broker::new(id, broker.neighbors().to_vec());
        lone.attach_durable_log(DurableLog::new(Box::new(copy), DurabilityConfig::new()));
        assert!(lone.recover() > 0, "{id}");
        assert_eq!(&table_of(&lone), before, "{id}");
    }

    // Everybody down at once, then back up. Each broker replays the same
    // storage and then syncs with its neighbours, which may hand it entries
    // it never held: a neighbour rebuilds its suppression records in replay
    // order, where a follower can precede the watcher that used to block it.
    // Nothing a broker held may be missing, and no delivery may change.
    for &id in &brokers {
        churned.crash_broker(id);
    }
    for &id in &brokers {
        churned.restart_broker(id);
    }
    for (&id, before) in brokers.iter().zip(&tables) {
        let after = table_of(churned.broker(id).expect("part of the line"));
        for entry in before {
            assert!(after.contains(entry), "{id} lost {}", entry.1.id());
        }
        let locals = |table: &[(Option<BrokerId>, Subscription)]| {
            table.iter().filter(|(origin, _)| origin.is_none()).count()
        };
        assert_eq!(locals(&after), locals(before), "{id}");
    }
    assert_eq!(
        delivered,
        churned.publish_at(event, brokers[0]).deliveries,
        "the restart changed a delivery"
    );
}
