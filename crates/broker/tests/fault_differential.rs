//! Differential property test: for *random* fault plans over line, star,
//! and tree topologies — random drop/duplicate/reorder/corrupt rates,
//! random seeds, and a mid-run crash/restart of a randomly chosen broker —
//! the delivered `(event, subscriber, subscription)` set must be identical
//! to the same workload on a clean, fault-free network. Each property runs
//! once with the counting engine and once with the A-Tree.

use broker::{
    BrokerId, ChannelTransport, DurabilityConfig, EngineKind, FaultPlan, FaultyTransport,
    Simulation, SimulationConfig, StorageFaultPlan, Topology,
};
use proptest::prelude::*;
use pubsub_core::{EventBatch, EventId, SubscriberId, Subscription, SubscriptionId};
use workload::{AuctionSchema, ClassMix, EventGenerator, SubscriptionGenerator};

const SUBSCRIPTIONS: usize = 12;
const SUBSCRIBERS: usize = 10;
const PHASE_EVENTS: usize = 12;

fn topology(index: usize) -> Topology {
    match index % 3 {
        0 => Topology::line(4),
        1 => Topology::star(5),
        _ => Topology::balanced_tree(7, 2),
    }
}

/// The subscriptions and the three publish phases of one run.
fn workload(workload_seed: u64) -> (Vec<Subscription>, Vec<EventBatch>) {
    let schema = AuctionSchema::default();
    let subs = SubscriptionGenerator::new(schema, ClassMix::default_mix(), workload_seed)
        .subscriptions(SUBSCRIPTIONS, SUBSCRIBERS);
    let mut generator = EventGenerator::new(schema, workload_seed.wrapping_add(1));
    let phases = (0..3)
        .map(|_| generator.event_batch(PHASE_EVENTS))
        .collect();
    (subs, phases)
}

/// The sorted delivery log of the workload on a clean, fault-free network.
fn fault_free_log(
    kind: EngineKind,
    topology: &Topology,
    subs: &[Subscription],
    phases: &[EventBatch],
) -> Vec<(EventId, SubscriberId, SubscriptionId)> {
    let mut clean = Simulation::new(SimulationConfig::new(topology.clone()).with_engine(kind));
    clean.enable_delivery_log();
    clean.register_all(subs.to_vec());
    for phase in phases {
        let _ = clean.publish_batch(phase);
    }
    sorted_log(&mut clean)
}

fn sorted_log(sim: &mut Simulation) -> Vec<(EventId, SubscriberId, SubscriptionId)> {
    let mut log = sim.take_delivery_log();
    log.sort();
    log
}

/// Topology index, workload seed, fault seed, drop rate, duplicate rate;
/// corrupt rate, reorder window and two crash picks.
type LinkFaults = ((usize, u64, u64, f64, f64), (f64, u64, u64, u64));

fn link_faults() -> impl Strategy<Value = LinkFaults> {
    (
        (
            0usize..3,
            0u64..1_000,
            0u64..=u64::MAX,
            0.0..0.3f64,
            0.0..0.2f64,
        ),
        (0.0..0.1f64, 0u64..=8, 0u64..=u64::MAX, 0u64..=u64::MAX),
    )
}

fn any_fault_plan_run(kind: EngineKind, case: LinkFaults) -> Result<(), TestCaseError> {
    let (
        (topology_index, workload_seed, fault_seed, drop, duplicate),
        (corrupt, reorder, crash_pick, crash_pick2),
    ) = case;
    let topology = topology(topology_index);
    let (subs, phases) = workload(workload_seed);
    // Any broker may crash: publishers fail over, local clients re-subscribe
    // on restart, neighbors queue in-flight traffic. Half the runs crash a
    // second, distinct broker at the same time — including *adjacent*
    // pairs, where the pair must recover from neighbor sync alone (no
    // durable log in this test).
    let brokers: Vec<_> = topology.broker_ids().collect();
    let mut crashes = vec![brokers[(crash_pick % brokers.len() as u64) as usize]];
    if crash_pick2 % 2 == 1 {
        let offset = 1 + (crash_pick2 / 2) % (brokers.len() as u64 - 1);
        crashes.push(brokers[((crash_pick + offset) % brokers.len() as u64) as usize]);
    }
    let expected = fault_free_log(kind, &topology, &subs, &phases);

    // Same run under a random fault plan with a mid-run outage.
    let mut transport = FaultyTransport::new(Box::new(ChannelTransport::new()));
    for (a, b) in topology.links() {
        transport.set_link_plan(
            a,
            b,
            FaultPlan::new(fault_seed ^ (a.raw() as u64) << 32 ^ b.raw() as u64)
                .with_drop(drop)
                .with_duplicate(duplicate)
                .with_corrupt(corrupt)
                .with_reorder(reorder),
        );
    }
    let config = SimulationConfig::new(topology)
        .with_engine(kind)
        .with_reliability(true);
    let mut faulty = Simulation::with_transport(config, Box::new(transport));
    faulty.enable_delivery_log();
    faulty.register_all(subs);
    let _ = faulty.publish_batch(&phases[0]);
    for broker in &crashes {
        faulty.crash_broker(*broker);
    }
    let _ = faulty.publish_batch(&phases[1]);
    for broker in &crashes {
        faulty.restart_broker(*broker);
    }
    let _ = faulty.publish_batch(&phases[2]);

    prop_assert_eq!(sorted_log(&mut faulty), expected);
    prop_assert_eq!(faulty.network_stats().resyncs, crashes.len() as u64);
    prop_assert_eq!(faulty.network_stats().decode_errors, 0);
    prop_assert_eq!(faulty.network_stats().queue_drops, 0);
    Ok(())
}

/// Topology index, workload seed, storage seed, torn-write, corrupt and
/// crash-during-compaction rates, crash mask and compaction period.
type StorageFaults = (usize, u64, u64, f64, f64, f64, u64, u64);

fn storage_faults() -> impl Strategy<Value = StorageFaults> {
    (
        0usize..3,
        0u64..1_000,
        0u64..=u64::MAX,
        0.0..1.0f64,
        0.0..1.0f64,
        0.0..1.0f64,
        0u64..=u64::MAX,
        0u64..5,
    )
}

fn any_crash_set_run(kind: EngineKind, case: StorageFaults) -> Result<(), TestCaseError> {
    let (
        topology_index,
        workload_seed,
        storage_seed,
        torn,
        corrupt,
        crash_compaction,
        crash_mask,
        compact_every,
    ) = case;
    let topology = topology(topology_index);
    let (subs, phases) = workload(workload_seed);
    let brokers: Vec<BrokerId> = topology.broker_ids().collect();
    // Crash subset from the mask bits; every eighth mask crashes the whole
    // cluster, so the zero-live-neighbors case is routinely hit.
    let mut crashes: Vec<BrokerId> = if crash_mask % 8 == 0 {
        brokers.clone()
    } else {
        brokers
            .iter()
            .enumerate()
            .filter(|(i, _)| crash_mask >> i & 1 == 1)
            .map(|(_, b)| *b)
            .collect()
    };
    if crashes.is_empty() {
        crashes.push(brokers[(crash_mask % brokers.len() as u64) as usize]);
    }
    let whole_cluster = crashes.len() == brokers.len();
    // Restart in a mask-dependent rotation of crash order, so recovery is
    // exercised both inward-out and outward-in.
    let rotation = (crash_mask >> 32) as usize % crashes.len();
    crashes.rotate_left(rotation);
    let expected = fault_free_log(kind, &topology, &subs, &phases);

    let config = SimulationConfig::new(topology)
        .with_engine(kind)
        .with_reliability(true)
        .with_durability(DurabilityConfig::new().with_compact_every(compact_every * 8));
    let mut durable = Simulation::new(config);
    durable.enable_delivery_log();
    durable.register_all(subs);
    for (index, broker) in brokers.iter().enumerate() {
        durable.set_storage_fault_plan(
            *broker,
            StorageFaultPlan::new(storage_seed ^ index as u64)
                .with_torn_write(torn)
                .with_corrupt(corrupt)
                .with_crash_compaction(crash_compaction),
        );
    }

    let _ = durable.publish_batch(&phases[0]);
    for broker in &crashes {
        durable.crash_broker(*broker);
    }
    // With at least one live broker, keep publishing through the outage; a
    // whole-cluster outage has nowhere to publish, so that phase moves after
    // recovery.
    if !whole_cluster {
        let _ = durable.publish_batch(&phases[1]);
    }
    for broker in &crashes {
        durable.restart_broker(*broker);
    }
    if whole_cluster {
        let _ = durable.publish_batch(&phases[1]);
    }
    let _ = durable.publish_batch(&phases[2]);

    prop_assert_eq!(sorted_log(&mut durable), expected);
    let stats = durable.network_stats();
    prop_assert_eq!(stats.resyncs, crashes.len() as u64);
    prop_assert_eq!(stats.decode_errors, 0);
    prop_assert_eq!(stats.queue_drops, 0);
    prop_assert!(stats.log_records_replayed > 0);
    prop_assert!(stats.log_bytes > 0);
    Ok(())
}

proptest! {
    #[test]
    fn any_fault_plan_delivers_the_fault_free_set(case in link_faults()) {
        any_fault_plan_run(EngineKind::Counting, case)?;
    }

    #[test]
    fn atree_any_fault_plan_delivers_the_fault_free_set(case in link_faults()) {
        any_fault_plan_run(EngineKind::ATree, case)?;
    }

    /// Durability differential: random crash *sets* — up to and including
    /// every broker in the topology at once — with per-broker storage fault
    /// plans (torn tail writes, tail bit corruption, interrupted
    /// compactions) and random compaction periods. Whatever the durable log
    /// loses, replay-then-reconcile recovery must restore: the delivered set
    /// must equal the clean run exactly.
    #[test]
    fn any_crash_set_with_storage_faults_delivers_the_fault_free_set(case in storage_faults()) {
        any_crash_set_run(EngineKind::Counting, case)?;
    }

    #[test]
    fn atree_any_crash_set_with_storage_faults_delivers_the_fault_free_set(
        case in storage_faults(),
    ) {
        any_crash_set_run(EngineKind::ATree, case)?;
    }
}
