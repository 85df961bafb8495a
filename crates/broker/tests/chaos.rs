//! Chaos soak: thousands of events through a lossy, reordering,
//! occasionally corrupting network with a broker crash/restart mid-run.
//!
//! The reliable-link layer's whole contract is that **faults change the
//! wire traffic, never the outcome**: the set of `(event, subscriber,
//! subscription)` deliveries under any fault plan — including losing a
//! broker and recovering it — must equal the fault-free run exactly. This
//! suite drives that end to end with the auction workload generator and
//! compares full delivery logs, not just counts. Every scenario runs once
//! with the counting engine and once with the A-Tree.

use broker::{
    BrokerId, ChannelTransport, DurabilityConfig, EngineKind, FaultPlan, FaultyTransport,
    Simulation, SimulationConfig, StorageFaultPlan, Topology,
};
use pubsub_core::{EventBatch, EventId, SubscriberId, Subscription, SubscriptionId};
use workload::{AuctionSchema, ClassMix, EventGenerator, SubscriptionGenerator};

const BROKERS: usize = 7;
const FANOUT: usize = 2;
const SUBSCRIPTIONS: usize = 60;
const SUBSCRIBERS: usize = 56;
const BATCH: usize = 256;
const BATCHES: usize = 20; // 5120 events
const CRASH_AFTER_BATCH: usize = 10;
const OUTAGE_BATCHES: usize = 2;
const CRASHED: BrokerId = BrokerId::from_raw(1); // internal tree broker

fn workload() -> (Vec<Subscription>, Vec<EventBatch>) {
    let schema = AuctionSchema::default();
    let subs = SubscriptionGenerator::new(schema, ClassMix::default_mix(), 42)
        .subscriptions(SUBSCRIPTIONS, SUBSCRIBERS);
    let mut events = EventGenerator::new(schema, 43);
    let batches = (0..BATCHES).map(|_| events.event_batch(BATCH)).collect();
    (subs, batches)
}

fn sorted_log(sim: &mut Simulation) -> Vec<(EventId, SubscriberId, SubscriptionId)> {
    let mut log = sim.take_delivery_log();
    log.sort();
    log
}

/// The ground truth: same engine, topology, subscriptions and batches, a
/// lossless transport, and no crash.
fn baseline(kind: EngineKind) -> (Vec<(EventId, SubscriberId, SubscriptionId)>, u64) {
    let (subs, batches) = workload();
    let topology = Topology::balanced_tree(BROKERS, FANOUT);
    let mut sim = Simulation::new(SimulationConfig::new(topology).with_engine(kind));
    sim.enable_delivery_log();
    sim.register_all(subs);
    for batch in &batches {
        let _ = sim.publish_batch(batch);
    }
    let deliveries = sim.deliveries();
    (sorted_log(&mut sim), deliveries)
}

#[test]
fn chaos_soak_delivers_exactly_the_fault_free_set() {
    chaos_soak(EngineKind::Counting);
}

#[test]
fn atree_chaos_soak_delivers_exactly_the_fault_free_set() {
    chaos_soak(EngineKind::ATree);
}

fn chaos_soak(kind: EngineKind) {
    let (expected_log, expected_deliveries) = baseline(kind);
    assert!(
        expected_deliveries > 0,
        "the workload must produce deliveries for the comparison to mean anything"
    );

    let (subs, batches) = workload();
    let topology = Topology::balanced_tree(BROKERS, FANOUT);
    // Every link: 10% drop, 5% duplication, reordering within a window of
    // 8 arrival slots, and a sprinkle of byte corruption.
    let mut transport = FaultyTransport::new(Box::new(ChannelTransport::new()));
    for (a, b) in topology.links() {
        transport.set_link_plan(
            a,
            b,
            FaultPlan::new(1000 + a.raw() as u64 * 31 + b.raw() as u64)
                .with_drop(0.10)
                .with_duplicate(0.05)
                .with_reorder(8)
                .with_corrupt(0.02),
        );
    }
    let config = SimulationConfig::new(topology)
        .with_engine(kind)
        .with_reliability(true);
    let mut sim = Simulation::with_transport(config, Box::new(transport));
    sim.enable_delivery_log();
    // Even the subscription flood crosses the lossy links: reliability must
    // get the routing state installed exactly despite drops and corruption.
    sim.register_all(subs);

    for (index, batch) in batches.iter().enumerate() {
        if index == CRASH_AFTER_BATCH {
            sim.crash_broker(CRASHED);
        }
        if index == CRASH_AFTER_BATCH + OUTAGE_BATCHES {
            sim.restart_broker(CRASHED);
        }
        let _ = sim.publish_batch(batch);
    }

    assert_eq!(
        sorted_log(&mut sim),
        expected_log,
        "fault injection changed the delivered set"
    );
    assert_eq!(sim.deliveries(), expected_deliveries);

    let stats = sim.network_stats();
    assert!(stats.retransmits > 0, "10% drop must force retransmissions");
    assert!(stats.dup_suppressed > 0, "duplicates must be suppressed");
    assert!(stats.corrupt_dropped > 0, "corruption must be detected");
    assert_eq!(stats.resyncs, 1, "exactly one crash/restart cycle ran");
    assert_eq!(
        stats.queue_drops, 0,
        "the outage traffic must fit the pending queue"
    );
    assert_eq!(
        stats.decode_errors, 0,
        "the checksum must stop corruption before the codec sees it"
    );
}

#[test]
fn chaos_outage_events_survive_via_publisher_failover_and_link_queues() {
    outage_failover(EngineKind::Counting);
}

#[test]
fn atree_chaos_outage_events_survive_via_publisher_failover_and_link_queues() {
    outage_failover(EngineKind::ATree);
}

fn outage_failover(kind: EngineKind) {
    // Focused variant: ONLY the outage (no link faults). Every event
    // published while the internal broker is down must still arrive —
    // publishers fail over to live brokers, and traffic routed toward the
    // crashed broker waits in the link queues until recovery.
    let topology = Topology::balanced_tree(BROKERS, FANOUT);
    let (subs, _) = workload();
    let mut events = EventGenerator::new(AuctionSchema::default(), 47);

    let mut plain = Simulation::new(SimulationConfig::new(topology.clone()).with_engine(kind));
    plain.enable_delivery_log();
    plain.register_all(subs.clone());

    let config = SimulationConfig::new(topology)
        .with_engine(kind)
        .with_reliability(true);
    let mut faulty = Simulation::new(config);
    faulty.enable_delivery_log();
    faulty.register_all(subs);

    let batches: Vec<EventBatch> = (0..4).map(|_| events.event_batch(128)).collect();
    let _ = plain.publish_batch(&batches[0]);
    let _ = faulty.publish_batch(&batches[0]);

    faulty.crash_broker(CRASHED);
    for batch in &batches[1..3] {
        let _ = plain.publish_batch(batch);
        let _ = faulty.publish_batch(batch);
    }
    faulty.restart_broker(CRASHED);

    let _ = plain.publish_batch(&batches[3]);
    let _ = faulty.publish_batch(&batches[3]);

    assert_eq!(sorted_log(&mut faulty), sorted_log(&mut plain));
    assert_eq!(faulty.network_stats().resyncs, 1);
}

// ---------------------------------------------------------------------
// Durability: whole-cluster crash + restart from the brokers' own logs
// ---------------------------------------------------------------------

const DURABILITY_BATCHES: usize = 8; // 2048 events
const CLUSTER_CRASH_AFTER: usize = 4;

/// Whole-cluster outage: every broker crashes at once, so the first
/// restarts happen with **zero live neighbors** — only the durable log can
/// restore their routing tables. The delivery log for publishes after the
/// restart must be byte-identical to a run that never crashed, under every
/// storage fault plan (torn tail write, tail bit corruption, interrupted
/// compaction).
#[test]
fn whole_cluster_restart_is_equivalent_under_every_storage_fault_plan() {
    whole_cluster_restart(EngineKind::Counting);
}

#[test]
fn atree_whole_cluster_restart_is_equivalent_under_every_storage_fault_plan() {
    whole_cluster_restart(EngineKind::ATree);
}

fn whole_cluster_restart(kind: EngineKind) {
    let (subs, batches) = workload();
    let topology = Topology::balanced_tree(BROKERS, FANOUT);

    // Fault-free, crash-free ground truth over the same batch subset.
    let mut clean = Simulation::new(SimulationConfig::new(topology.clone()).with_engine(kind));
    clean.enable_delivery_log();
    clean.register_all(subs.clone());
    for batch in &batches[..DURABILITY_BATCHES] {
        let _ = clean.publish_batch(batch);
    }
    let expected_deliveries = clean.deliveries();
    let expected_log = sorted_log(&mut clean);
    assert!(expected_deliveries > 0, "workload must produce deliveries");

    let variants: Vec<(&str, Option<StorageFaultPlan>)> = vec![
        ("fault-free storage", None),
        (
            "torn tail write",
            Some(StorageFaultPlan::new(0).with_torn_write(1.0)),
        ),
        (
            "tail bit corruption",
            Some(StorageFaultPlan::new(0).with_corrupt(1.0)),
        ),
        (
            "crash during compaction",
            Some(StorageFaultPlan::new(0).with_crash_compaction(1.0)),
        ),
        (
            "all storage faults",
            Some(
                StorageFaultPlan::new(0)
                    .with_torn_write(0.5)
                    .with_corrupt(0.5)
                    .with_crash_compaction(0.5),
            ),
        ),
    ];

    for (name, plan) in variants {
        let config = SimulationConfig::new(topology.clone())
            .with_engine(kind)
            .with_reliability(true)
            .with_durability(DurabilityConfig::new().with_compact_every(16));
        let mut sim = Simulation::new(config);
        sim.enable_delivery_log();
        sim.register_all(subs.clone());
        if let Some(plan) = plan {
            for broker in topology.broker_ids() {
                // Per-broker seeds, like FaultyTransport's per-link plans.
                sim.set_storage_fault_plan(
                    broker,
                    StorageFaultPlan {
                        seed: plan.seed + 100 + broker.raw() as u64,
                        ..plan
                    },
                );
            }
        }
        for batch in &batches[..CLUSTER_CRASH_AFTER] {
            let _ = sim.publish_batch(batch);
        }

        let first = BrokerId::from_raw(0);
        let pre_crash_remote = {
            let mut ids: Vec<SubscriptionId> = sim
                .broker(first)
                .unwrap()
                .remote_subscriptions()
                .iter()
                .map(Subscription::id)
                .collect();
            ids.sort();
            ids
        };
        for broker in topology.broker_ids() {
            sim.crash_broker(broker);
        }
        for broker in topology.broker_ids() {
            sim.restart_broker(broker);
        }
        if plan.is_none() {
            // The log-only proof: broker 0 restarted while both of its
            // neighbors were still crashed, client re-injection restores
            // only local entries, and sync answers could not have arrived
            // yet at the moment of replay — so matching pre-crash remote
            // state can only have come from its own log.
            let mut recovered: Vec<SubscriptionId> = sim
                .broker(first)
                .unwrap()
                .remote_subscriptions()
                .iter()
                .map(Subscription::id)
                .collect();
            recovered.sort();
            assert_eq!(
                recovered, pre_crash_remote,
                "{name}: log-only recovery lost remote entries"
            );
        }

        for batch in &batches[CLUSTER_CRASH_AFTER..DURABILITY_BATCHES] {
            let _ = sim.publish_batch(batch);
        }

        assert_eq!(
            sorted_log(&mut sim),
            expected_log,
            "{name}: whole-cluster restart changed the delivered set"
        );
        assert_eq!(sim.deliveries(), expected_deliveries, "{name}");
        let stats = sim.network_stats();
        assert_eq!(stats.resyncs, BROKERS as u64, "{name}");
        assert!(stats.log_records_replayed > 0, "{name}: nothing replayed");
        assert!(stats.log_bytes > 0, "{name}: nothing journaled");
        assert_eq!(stats.queue_drops, 0, "{name}");
        match name {
            "fault-free storage" => {
                assert!(stats.snapshot_compactions > 0, "{name}: never compacted");
                assert_eq!(stats.log_corrupt_truncations, 0, "{name}");
            }
            "tail bit corruption" => {
                // Every broker's log tail was bit-flipped at crash time:
                // replay must have truncated at least one of them.
                assert!(
                    stats.log_corrupt_truncations > 0,
                    "{name}: corruption went undetected"
                );
            }
            _ => {}
        }
    }
}
