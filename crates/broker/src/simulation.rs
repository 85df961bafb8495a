//! The deterministic, single-process simulation of the broker network.

use crate::broker_node::{Broker, MessageHandling};
use crate::durability::{DurabilityConfig, DurableLog, StorageFaultPlan};
use crate::metrics::{AnalysisStats, NetworkStats, RoutingMemoryReport, RunReport};
use crate::reliable::{ReliableSession, SendOutcome};
use crate::topology::Topology;
use crate::wire::{ChannelTransport, Codec, Transport, WireMessage};
use filtering::{EngineConfig, EngineKind, FilterStats};
use pubsub_core::{
    BrokerId, EventBatch, EventId, EventMessage, SubscriberId, Subscription, SubscriptionId,
    SubscriptionTree,
};
use std::collections::{BTreeMap, BTreeSet};

/// Configuration of a [`Simulation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimulationConfig {
    /// The broker topology.
    pub topology: Topology,
    /// Whether events published at a broker are also matched against that
    /// broker's own routing table before being forwarded (always true in real
    /// systems; kept configurable for micro-benchmarks of pure forwarding).
    pub deliver_at_origin: bool,
    /// The matching-engine kind every broker's routing table is built with
    /// ([`EngineKind::Counting`] by default; `EngineKind::Sharded(n)`
    /// matches each hop's batch on `n` cores; `EngineKind::ATree` /
    /// `EngineKind::ShardedATree(n)` match through the shared-subexpression
    /// DAG engine).
    pub engine: EngineKind,
    /// The staged-pipeline configuration (stage-0 pre-filter mode) every
    /// broker's destination engines run with.
    pub engine_config: EngineConfig,
    /// Runs every broker→broker frame over the reliable-link protocol
    /// ([`crate::reliable`]): sequence numbers, cumulative acks,
    /// retransmission with backoff, duplicate suppression. Off by default —
    /// the in-memory transport is lossless, so plain frames suffice — and
    /// required for fault injection ([`crate::fault`]) and for
    /// [`crash_broker`](Simulation::crash_broker) /
    /// [`restart_broker`](Simulation::restart_broker).
    pub reliability: bool,
    /// Gives every broker a durable subscription log
    /// ([`crate::durability`], in-memory backend): accepted
    /// subscribe/unsubscribe operations are journaled, compacted into
    /// snapshots, and replayed by
    /// [`restart_broker`](Simulation::restart_broker) *before* the neighbor
    /// sync — so a whole-cluster restart recovers every routing table even
    /// with zero live neighbors. `None` (the default) keeps brokers purely
    /// volatile, as in PR 7's neighbor-sync-only recovery.
    pub durability: Option<DurabilityConfig>,
}

impl SimulationConfig {
    /// Creates a configuration over the given topology with default options.
    pub fn new(topology: Topology) -> Self {
        Self {
            topology,
            deliver_at_origin: true,
            engine: EngineKind::Counting,
            engine_config: EngineConfig::default(),
            reliability: false,
            durability: None,
        }
    }

    /// Enables (or disables) the reliable-link protocol on every
    /// broker→broker link.
    pub fn with_reliability(mut self, enabled: bool) -> Self {
        self.reliability = enabled;
        self
    }

    /// Gives every broker a durable subscription log with the given
    /// configuration (see [`SimulationConfig::durability`]).
    pub fn with_durability(mut self, config: DurabilityConfig) -> Self {
        self.durability = Some(config);
        self
    }

    /// Selects the matching-engine kind the brokers use.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Selects the staged-pipeline configuration the brokers' engines run
    /// with (e.g. forcing the stage-0 pre-filter on or off).
    pub fn with_engine_config(mut self, config: EngineConfig) -> Self {
        self.engine_config = config;
        self
    }

    /// The paper's distributed setting: five brokers connected as a line.
    pub fn paper_line() -> Self {
        Self::new(Topology::line(5))
    }

    /// The centralized setting: a single broker.
    pub fn centralized() -> Self {
        Self::new(Topology::single())
    }
}

/// The outcome of publishing a single event.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PublishOutcome {
    /// Notifications delivered to local subscribers, across all brokers.
    pub deliveries: Vec<(SubscriberId, SubscriptionId)>,
    /// Number of inter-broker event copies the event caused.
    pub broker_messages: u64,
    /// Exact encoded bytes of the wire frames that carried those copies.
    pub bytes: u64,
}

/// A deterministic simulation of the distributed publish/subscribe network.
///
/// Everything between brokers travels as **encoded wire frames**: the
/// simulation owns a [`Transport`] (an in-memory [`ChannelTransport`] by
/// default) and a [`Codec`], and every hop — link setup, subscription
/// forwarding, event routing — is a [`WireMessage`] encoded into a frame,
/// delivered over the transport, decoded, and handed to the addressed
/// broker's [`handle_message`](Broker::handle_message) ingress. Byte
/// accounting in [`NetworkStats`] is therefore *exact*: it sums the real
/// encoded frame lengths, not per-event size estimates.
///
/// Subscriptions are assigned to home brokers by subscriber id (round-robin)
/// and registered by injecting a [`Subscribe`](WireMessage::Subscribe) frame
/// at the home broker; the brokers flood it through the acyclic topology
/// themselves (subscription forwarding), each one recording the arrival link
/// as the next hop towards the home broker. Published events are routed
/// hop-by-hop as [`PublishBatch`](WireMessage::PublishBatch) frames: each
/// broker delivers to its matching local clients and emits one regrouped
/// frame per matching neighbor direction, never back over the link the
/// events arrived on.
#[derive(Debug)]
pub struct Simulation {
    config: SimulationConfig,
    brokers: BTreeMap<BrokerId, Broker>,
    network: NetworkStats,
    publish_counter: u64,
    events_published: u64,
    deliveries: u64,
    /// Wire machinery: the codec and the frame transport, plus reusable
    /// buffers so the steady-state hop loop re-decodes into the same batch
    /// arena and re-encodes into the same frame buffer.
    codec: Codec,
    transport: Box<dyn Transport>,
    recv_frame: Vec<u8>,
    send_frame: Vec<u8>,
    message: WireMessage,
    handling: MessageHandling,
    /// Recycled one-event batches for `publish_at`.
    batch_pool: Vec<EventBatch>,
    /// The reliable-link protocol state (`Some` when
    /// [`SimulationConfig::reliability`] is on) and its outer-frame scratch
    /// buffer.
    reliable: Option<ReliableSession>,
    wrap_frame: Vec<u8>,
    /// Brokers currently crashed: frames addressed to them vanish, live
    /// neighbors queue traffic for them on the down links.
    crashed: BTreeSet<BrokerId>,
    /// Restarted brokers whose inbound pending-queue flush is deferred
    /// because a neighbor is still crashed: absent a durable log their
    /// tables lack every entry behind the dead side, so flushing early
    /// would drop the queued events that need those routes. Flushed by
    /// [`flush_ready`](Self::flush_ready) once the whole neighborhood is
    /// back.
    flush_deferred: BTreeSet<BrokerId>,
    /// Client subscriptions by home broker and id, re-injected (in id order)
    /// after a restart. An id lives under one home at a time. Only tracked
    /// under reliability — recovery is meaningless without it.
    client_subs: BTreeMap<BrokerId, BTreeMap<SubscriptionId, Subscription>>,
    /// When enabled, every local delivery as `(event, subscriber,
    /// subscription)` — the ground truth for fault-equivalence checks.
    delivery_log: Option<Vec<(EventId, SubscriberId, SubscriptionId)>>,
}

impl Simulation {
    /// Builds an empty simulation over the configured topology, running on
    /// an in-memory [`ChannelTransport`].
    pub fn new(config: SimulationConfig) -> Self {
        Self::with_transport(config, Box::new(ChannelTransport::new()))
    }

    /// Builds an empty simulation that moves its frames over the given
    /// transport. The transport must deliver frames FIFO per link and must
    /// start empty; construction performs the `Hello`/`Ack` link handshake
    /// over it (recorded as control traffic).
    pub fn with_transport(config: SimulationConfig, transport: Box<dyn Transport>) -> Self {
        let brokers = config
            .topology
            .broker_ids()
            .map(|id| {
                (
                    id,
                    Broker::with_engine_config(
                        id,
                        config.topology.neighbors(id),
                        config.engine,
                        config.engine_config,
                    ),
                )
            })
            .collect();
        let mut sim = Self {
            config,
            brokers,
            network: NetworkStats::new(),
            publish_counter: 0,
            events_published: 0,
            deliveries: 0,
            codec: Codec::new(),
            transport,
            recv_frame: Vec::new(),
            send_frame: Vec::new(),
            message: WireMessage::Ack {
                broker: BrokerId::from_raw(0),
            },
            handling: MessageHandling::new(),
            batch_pool: Vec::new(),
            reliable: None,
            wrap_frame: Vec::new(),
            crashed: BTreeSet::new(),
            flush_deferred: BTreeSet::new(),
            client_subs: BTreeMap::new(),
            delivery_log: None,
        };
        if sim.config.reliability {
            sim.reliable = Some(ReliableSession::new());
        }
        if let Some(durability) = sim.config.durability {
            for broker in sim.brokers.values_mut() {
                broker.attach_durable_log(DurableLog::in_memory(durability));
            }
        }
        sim.handshake();
        sim
    }

    /// Brings every link up by exchanging `Hello`/`Ack` frames in both
    /// directions.
    fn handshake(&mut self) {
        for (a, b) in self.config.topology.links() {
            for (from, to) in [(a, b), (b, a)] {
                self.send_frame.clear();
                self.codec
                    .encode_into(&WireMessage::Hello { broker: from }, &mut self.send_frame);
                let wire = self.transmit(from, to);
                self.network.record_control(wire);
            }
        }
        let _ = self.pump(&mut None);
    }

    /// Puts the inner frame currently in `send_frame` on the wire for the
    /// directed link `from → to`, wrapping it into a reliable outer frame
    /// when the protocol is on. Returns the number of bytes that hit (or,
    /// for a down link, will eventually hit) the wire — `0` when the frame
    /// was dropped by a full pending queue.
    fn transmit(&mut self, from: BrokerId, to: BrokerId) -> usize {
        match self.reliable.as_mut() {
            Some(session) => match session.wrap_send(
                from,
                to,
                &self.send_frame,
                &mut self.wrap_frame,
                &mut self.network,
            ) {
                SendOutcome::Sent(len) => {
                    self.transport.send(Some(from), to, &self.wrap_frame);
                    len
                }
                // Queued for the post-restart flush: account for it now, at
                // the length it will occupy on the wire, so per-batch byte
                // deltas see mid-outage traffic when it is caused.
                SendOutcome::Queued(len) => len,
                SendOutcome::Dropped => 0,
            },
            None => {
                self.transport.send(Some(from), to, &self.send_frame);
                self.send_frame.len()
            }
        }
    }

    /// Drains the transport: every in-flight frame is decoded, handled by
    /// the addressed broker, and the broker's responses are encoded and sent
    /// — recording data-plane frames (event copies + exact bytes) and
    /// control frames as they hit the wire. Under reliability the drain
    /// alternates with virtual-time ticks until every live link's
    /// retransmission queue is empty, so a single call still runs the
    /// network to quiescence even when the transport injects faults.
    /// Returns the number of local-subscriber deliveries the drained frames
    /// caused (suppressing origin deliveries when configured); each delivery
    /// is also appended to `deliveries_out` when provided.
    fn pump(
        &mut self,
        deliveries_out: &mut Option<&mut Vec<(SubscriberId, SubscriptionId)>>,
    ) -> u64 {
        let mut delivered = 0u64;
        let mut ticks = 0u64;
        let mut inner_frames = Vec::new();
        let mut acks = Vec::new();
        let mut retransmit = Vec::new();
        loop {
            while let Some((from, to)) = self.transport.recv_into(&mut self.recv_frame) {
                // A crashed broker neither receives nor sends: frames
                // addressed to it die with it, frames claiming to come from
                // it are stale remnants of the lost incarnation.
                if self.crashed.contains(&to)
                    || from.is_some_and(|from| self.crashed.contains(&from))
                {
                    continue;
                }
                match (from, self.reliable.as_mut()) {
                    (Some(from), Some(session)) => {
                        // Broker→broker under reliability: an outer frame.
                        // Unwrap it (dup suppression, reordering, corruption
                        // detection), answer with the cumulative ack, and
                        // handle whatever inner frames came in sequence.
                        session.recv(
                            from,
                            to,
                            &self.recv_frame,
                            &mut inner_frames,
                            &mut acks,
                            &mut self.network,
                        );
                        for (ack_from, ack_to, frame) in acks.drain(..) {
                            self.network.record_control(frame.len());
                            self.transport.send(Some(ack_from), ack_to, &frame);
                        }
                        for inner in inner_frames.drain(..) {
                            self.recv_frame.clear();
                            self.recv_frame.extend_from_slice(&inner);
                            delivered += self.handle_frame(Some(from), to, deliveries_out);
                        }
                    }
                    // Client injections (and everything when reliability is
                    // off) are bare codec frames.
                    _ => delivered += self.handle_frame(from, to, deliveries_out),
                }
            }
            // Transport drained. Under reliability, lost frames may still be
            // owed: advance virtual time until retransmissions come due, put
            // them back on the wire, and drain again.
            let Some(session) = self.reliable.as_mut() else {
                break;
            };
            if !session.has_unacked() {
                break;
            }
            ticks += 1;
            assert!(
                ticks < 1_000_000,
                "reliable drain did not converge: a link is dropping every \
                 retransmission (drop rate 1.0 on a live link?)"
            );
            session.tick(&mut retransmit, &mut self.network);
            for (from, to, frame) in retransmit.drain(..) {
                // Retransmissions are not new traffic: `retransmits` counts
                // them, `frames`/`bytes` keep reflecting the fault-free cost.
                self.transport.send(Some(from), to, &frame);
            }
        }
        self.absorb_durability_stats();
        delivered
    }

    /// Drains every broker's durability counters into the cumulative
    /// network statistics. Runs at the end of each [`pump`](Self::pump) —
    /// the single funnel every frame (and therefore every journal append)
    /// goes through.
    fn absorb_durability_stats(&mut self) {
        if self.config.durability.is_none() {
            return;
        }
        for broker in self.brokers.values_mut() {
            if let Some(journal) = broker.durable_log_mut() {
                let stats = journal.drain_stats();
                self.network.log_records_replayed += stats.log_records_replayed;
                self.network.snapshot_compactions += stats.snapshot_compactions;
                self.network.log_bytes += stats.log_bytes;
                self.network.log_corrupt_truncations += stats.log_corrupt_truncations;
            }
        }
    }

    /// Installs a deterministic storage fault plan on one broker's durable
    /// log (see [`StorageFaultPlan`]): subsequent crashes may tear or
    /// corrupt the unsynced log tail, and compactions may be interrupted
    /// mid-swap.
    ///
    /// # Panics
    /// Panics if the broker is unknown or the simulation runs without
    /// [`SimulationConfig::with_durability`].
    pub fn set_storage_fault_plan(&mut self, broker: BrokerId, plan: StorageFaultPlan) {
        let journal = self
            .brokers
            .get_mut(&broker)
            .unwrap_or_else(|| panic!("{broker} is not part of the topology"))
            .durable_log_mut()
            .expect("set_storage_fault_plan requires SimulationConfig::with_durability");
        journal.storage_mut().set_fault_plan(plan);
    }

    /// Decodes and handles the inner frame in `recv_frame`, addressed to
    /// broker `to` over the link from `from`, and puts the broker's
    /// responses on the wire. A frame the codec rejects is counted in
    /// [`NetworkStats::decode_errors`] and dropped — corruption must never
    /// take the simulation down. Returns the local deliveries caused.
    fn handle_frame(
        &mut self,
        from: Option<BrokerId>,
        to: BrokerId,
        deliveries_out: &mut Option<&mut Vec<(SubscriberId, SubscriptionId)>>,
    ) -> u64 {
        if self
            .codec
            .decode_into(&self.recv_frame, &mut self.message)
            .is_err()
        {
            self.network.decode_errors += 1;
            return 0;
        }
        let broker = self
            .brokers
            .get_mut(&to)
            .expect("frame addressed to a known broker");
        let mut handling = std::mem::take(&mut self.handling);
        broker.handle_message_into(&self.message, from, &mut handling);
        let mut delivered = 0u64;
        if let WireMessage::PublishBatch { events } = &self.message {
            let suppress = from.is_none() && !self.config.deliver_at_origin;
            if !suppress {
                delivered += handling.deliveries.len() as u64;
                if let Some(out) = deliveries_out.as_deref_mut() {
                    out.extend(
                        handling
                            .deliveries
                            .iter()
                            .map(|&(_, subscriber, id)| (subscriber, id)),
                    );
                }
                if let Some(log) = self.delivery_log.as_mut() {
                    log.extend(handling.deliveries.iter().map(|&(index, subscriber, id)| {
                        (events.event(index).id(), subscriber, id)
                    }));
                }
            }
        }
        for index in 0..handling.outgoing.len() {
            let (neighbor, response) = &handling.outgoing[index];
            let neighbor = *neighbor;
            self.send_frame.clear();
            self.codec.encode_into(response, &mut self.send_frame);
            let events = match response {
                WireMessage::PublishBatch { events } => Some(events.len() as u64),
                _ => None,
            };
            let wire = self.transmit(to, neighbor);
            if wire == 0 {
                continue; // dropped by a full pending queue — already counted
            }
            match events {
                Some(events) => self.network.record_frame(to, neighbor, events, wire),
                None => self.network.record_control(wire),
            }
        }
        self.handling = handling;
        delivered
    }

    /// The simulation's configuration.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// The broker topology.
    pub fn topology(&self) -> &Topology {
        &self.config.topology
    }

    /// Number of brokers.
    pub fn broker_count(&self) -> usize {
        self.brokers.len()
    }

    /// Read access to one broker.
    pub fn broker(&self, id: BrokerId) -> Option<&Broker> {
        self.brokers.get(&id)
    }

    /// The home broker of a subscriber: subscribers are distributed over the
    /// brokers round-robin by subscriber id.
    pub fn home_broker_of(&self, subscriber: SubscriberId) -> BrokerId {
        let index = (subscriber.raw() % self.brokers.len() as u64) as usize;
        self.config
            .topology
            .broker_ids()
            .nth(index)
            .expect("index is within broker count")
    }

    /// The broker a publisher uses for the `n`-th published event
    /// (round-robin over all brokers).
    pub fn publisher_broker(&self, n: u64) -> BrokerId {
        let index = (n % self.brokers.len() as u64) as usize;
        self.config
            .topology
            .broker_ids()
            .nth(index)
            .expect("index is within broker count")
    }

    /// Registers a subscription: a [`Subscribe`](WireMessage::Subscribe)
    /// frame is injected at the subscriber's home broker, and the brokers
    /// flood it through the topology (subscription forwarding).
    pub fn register_subscription(&mut self, subscription: Subscription) {
        let home = self.home_broker_of(subscription.subscriber());
        self.register_subscription_at(subscription, home);
    }

    /// Registers a subscription with an explicit home broker.
    ///
    /// # Panics
    /// Panics if `home` is not part of the topology, or if the subscription
    /// tree is deeper than the wire protocol's
    /// [`MAX_TREE_DEPTH`](crate::wire::MAX_TREE_DEPTH) — such a tree could
    /// be encoded but would be rejected by every decoding broker.
    pub fn register_subscription_at(&mut self, subscription: Subscription, home: BrokerId) {
        assert!(
            self.brokers.contains_key(&home),
            "{home} is not part of the topology"
        );
        assert!(
            subscription.tree().depth() <= crate::wire::MAX_TREE_DEPTH,
            "subscription {} tree depth {} exceeds the wire protocol's MAX_TREE_DEPTH ({})",
            subscription.id(),
            subscription.tree().depth(),
            crate::wire::MAX_TREE_DEPTH
        );
        assert!(
            !self.crashed.contains(&home),
            "{home} is crashed; clients cannot subscribe at a dead broker"
        );
        if self.reliable.is_some() {
            // Remember the client's subscription so a crash of its home
            // broker can re-install it after the restart; a re-registered
            // id replaces the body remembered for it, wherever that was.
            self.forget_client_subscription(subscription.id());
            self.client_subs
                .entry(home)
                .or_default()
                .insert(subscription.id(), subscription.clone());
        }
        self.send_frame.clear();
        self.codec.encode_into(
            &WireMessage::Subscribe { subscription },
            &mut self.send_frame,
        );
        // Client injection: not inter-broker traffic, so not recorded. The
        // flooding between brokers is recorded as control frames by `pump`.
        self.transport.send(None, home, &self.send_frame);
        let _ = self.pump(&mut None);
    }

    fn forget_client_subscription(&mut self, id: SubscriptionId) {
        for subs in self.client_subs.values_mut() {
            subs.remove(&id);
        }
    }

    /// Registers many subscriptions.
    pub fn register_all(&mut self, subscriptions: impl IntoIterator<Item = Subscription>) {
        for s in subscriptions {
            self.register_subscription(s);
        }
    }

    /// Removes a subscription everywhere by flooding an
    /// [`Unsubscribe`](WireMessage::Unsubscribe) frame from the given broker.
    pub fn unregister_subscription(&mut self, id: SubscriptionId, at: BrokerId) {
        assert!(
            self.brokers.contains_key(&at),
            "{at} is not part of the topology"
        );
        self.forget_client_subscription(id);
        self.send_frame.clear();
        self.codec
            .encode_into(&WireMessage::Unsubscribe { id }, &mut self.send_frame);
        self.transport.send(None, at, &self.send_frame);
        let _ = self.pump(&mut None);
    }

    /// Publishes one event at its round-robin publisher broker.
    pub fn publish(&mut self, event: EventMessage) -> PublishOutcome {
        let origin = self.publisher_broker(self.publish_counter);
        self.publish_counter += 1;
        self.publish_at(event, origin)
    }

    /// Publishes one event at an explicit broker and routes it through the
    /// network as encoded single-event frames.
    pub fn publish_at(&mut self, event: EventMessage, origin: BrokerId) -> PublishOutcome {
        assert!(
            self.brokers.contains_key(&origin),
            "{origin} is not part of the topology"
        );
        let origin = self.live_origin(origin);
        let messages_before = self.network.messages;
        let bytes_before = self.network.bytes;

        let mut batch = self.batch_pool.pop().unwrap_or_default();
        batch.clear();
        batch.push(event);
        self.send_frame.clear();
        self.codec
            .encode_publish_batch(&batch, &mut self.send_frame);
        if self.batch_pool.len() < 4 {
            self.batch_pool.push(batch);
        }
        self.transport.send(None, origin, &self.send_frame);

        let mut deliveries = Vec::new();
        let delivered = self.pump(&mut Some(&mut deliveries));
        self.events_published += 1;
        self.deliveries += delivered;
        PublishOutcome {
            deliveries,
            broker_messages: self.network.messages - messages_before,
            bytes: self.network.bytes - bytes_before,
        }
    }

    /// Publishes a batch of events (round-robin over publisher brokers) and
    /// returns a run report covering exactly this batch.
    ///
    /// Compatibility wrapper over [`publish_batch`](Self::publish_batch).
    pub fn publish_all(&mut self, events: &[EventMessage]) -> RunReport {
        let mut batch = self.batch_pool.pop().unwrap_or_default();
        batch.clear();
        batch.extend(events.iter().cloned());
        let report = self.publish_batch(&batch);
        if self.batch_pool.len() < 4 {
            self.batch_pool.push(batch);
        }
        report
    }

    /// Publishes a whole [`EventBatch`] (round-robin over publisher brokers)
    /// and returns a run report covering exactly this batch.
    ///
    /// This is the primary publishing path: the batch is grouped by origin
    /// broker, each group is encoded **once** as a `PublishBatch` frame read
    /// directly out of the batch arena, and the frames are routed hop by hop
    /// — every broker a frame visits matches all of its events against the
    /// local and per-neighbor engines in one `match_batch` call and emits
    /// one regrouped frame per matching neighbor. Event-copy counts
    /// (`messages`, `per_link`) are identical to publishing the events one
    /// by one; `bytes` is the exact total of the encoded frame lengths, so
    /// batched routing genuinely spends fewer bytes (and far fewer frames)
    /// than per-event routing.
    pub fn publish_batch(&mut self, batch: &EventBatch) -> RunReport {
        let network_before = self.network.clone();
        let filter_before: BTreeMap<BrokerId, FilterStats> = self
            .brokers
            .iter()
            .map(|(id, b)| (*id, b.filter_stats()))
            .collect();

        // Group the batch by origin broker, preserving the round-robin
        // publisher assignment of the single-event path, and inject one
        // encoded frame per origin.
        let mut origin_groups: BTreeMap<BrokerId, Vec<usize>> = BTreeMap::new();
        for index in 0..batch.len() {
            let origin = self.publisher_broker(self.publish_counter + index as u64);
            // Publisher failover: a client whose round-robin broker is
            // crashed connects to the next live one instead.
            let origin = self.live_origin(origin);
            origin_groups.entry(origin).or_default().push(index);
        }
        self.publish_counter += batch.len() as u64;
        for (origin, indexes) in &origin_groups {
            self.send_frame.clear();
            self.codec
                .encode_publish_batch_indexes(batch, Some(indexes), &mut self.send_frame);
            self.transport.send(None, *origin, &self.send_frame);
        }

        let deliveries = self.pump(&mut None);
        self.events_published += batch.len() as u64;
        self.deliveries += deliveries;

        let mut per_broker_filter = BTreeMap::new();
        let mut filter_stats = FilterStats::new();
        for (id, broker) in &self.brokers {
            // Report only the delta caused by this batch.
            let stats = broker.filter_stats().since(&filter_before[id]);
            filter_stats.merge(&stats);
            per_broker_filter.insert(*id, stats);
        }
        let mut network = self.network.clone();
        network.subtract(&network_before);
        RunReport {
            events_published: batch.len() as u64,
            deliveries,
            network,
            filter_stats,
            analysis: self.analysis_stats(),
            per_broker_filter,
        }
    }

    /// Cumulative inter-broker traffic since construction (or the last
    /// [`reset_metrics`](Self::reset_metrics)).
    pub fn network_stats(&self) -> &NetworkStats {
        &self.network
    }

    /// Merged filtering statistics of all brokers.
    pub fn filter_stats(&self) -> FilterStats {
        let mut stats = FilterStats::new();
        for broker in self.brokers.values() {
            stats.merge(&broker.filter_stats());
        }
        stats
    }

    /// Merged registration-time analysis statistics of all brokers.
    ///
    /// Cumulative since construction: like the routing tables themselves
    /// (and unlike the traffic counters), registration-time analysis
    /// describes the subscription population, which
    /// [`reset_metrics`](Self::reset_metrics) explicitly keeps.
    pub fn analysis_stats(&self) -> AnalysisStats {
        let mut stats = AnalysisStats::default();
        for broker in self.brokers.values() {
            stats.merge(&broker.analysis_stats());
        }
        stats
    }

    /// Total events published since construction (or the last reset).
    pub fn events_published(&self) -> u64 {
        self.events_published
    }

    /// Total notifications delivered since construction (or the last reset).
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// Resets traffic and filtering statistics (routing tables are kept).
    pub fn reset_metrics(&mut self) {
        self.network = NetworkStats::new();
        self.events_published = 0;
        self.deliveries = 0;
        for broker in self.brokers.values_mut() {
            broker.reset_filter_stats();
        }
    }

    /// Aggregated memory report over all brokers.
    pub fn memory_report(&self) -> RoutingMemoryReport {
        let mut total = RoutingMemoryReport::default();
        for broker in self.brokers.values() {
            total.merge(&broker.memory_report());
        }
        total
    }

    /// Per-broker memory reports.
    pub fn memory_report_per_broker(&self) -> BTreeMap<BrokerId, RoutingMemoryReport> {
        self.brokers
            .iter()
            .map(|(id, b)| (*id, b.memory_report()))
            .collect()
    }

    /// The remote (prunable) routing entries of one broker in their current
    /// form.
    pub fn remote_subscriptions(&self, broker: BrokerId) -> Vec<Subscription> {
        self.brokers
            .get(&broker)
            .map(|b| b.remote_subscriptions())
            .unwrap_or_default()
    }

    /// Installs a (pruned) tree for a remote entry of one broker. Returns
    /// `false` if the broker or entry is unknown.
    pub fn install_remote_tree(
        &mut self,
        broker: BrokerId,
        id: SubscriptionId,
        tree: SubscriptionTree,
    ) -> bool {
        self.brokers
            .get_mut(&broker)
            .map(|b| b.install_remote_tree(id, tree))
            .unwrap_or(false)
    }

    // ------------------------------------------------------------------
    // Fault tolerance: crash, recovery, delivery ground truth
    // ------------------------------------------------------------------

    /// Starts recording every local delivery as `(event, subscriber,
    /// subscription)` — the ground truth that fault-injection runs are
    /// compared against. Idempotent; an existing log is kept.
    pub fn enable_delivery_log(&mut self) {
        self.delivery_log.get_or_insert_with(Vec::new);
    }

    /// Takes the recorded deliveries (the log keeps recording afterwards,
    /// empty again). Order is arrival order; sort before comparing runs —
    /// faults legitimately reorder deliveries, they must never change the
    /// set.
    pub fn take_delivery_log(&mut self) -> Vec<(EventId, SubscriberId, SubscriptionId)> {
        match self.delivery_log.as_mut() {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// Whether a broker is currently crashed.
    pub fn is_crashed(&self, broker: BrokerId) -> bool {
        self.crashed.contains(&broker)
    }

    /// The next live broker at or after `origin` in broker-id order
    /// (wrapping) — where a publisher whose broker crashed reconnects.
    fn live_origin(&self, origin: BrokerId) -> BrokerId {
        if !self.crashed.contains(&origin) {
            return origin;
        }
        let ids: Vec<BrokerId> = self.config.topology.broker_ids().collect();
        let start = ids
            .iter()
            .position(|&id| id == origin)
            .expect("origin is part of the topology");
        for offset in 1..ids.len() {
            let candidate = ids[(start + offset) % ids.len()];
            if !self.crashed.contains(&candidate) {
                return candidate;
            }
        }
        panic!("every broker in the topology is crashed");
    }

    /// Crashes a broker: its volatile state (routing table, filter engines,
    /// link state) is lost, frames addressed to it vanish, and every live
    /// neighbor marks its link down — traffic toward the crashed broker is
    /// queued at the link (bounded; overflow counts
    /// [`NetworkStats::queue_drops`]) until
    /// [`restart_broker`](Self::restart_broker).
    ///
    /// # Panics
    /// Panics if the broker is unknown, already crashed, or if the
    /// simulation runs without [`SimulationConfig::reliability`] — without
    /// sequenced links and retransmission a crash would silently lose
    /// events, so the simulation refuses to model one.
    pub fn crash_broker(&mut self, broker: BrokerId) {
        assert!(
            self.brokers.contains_key(&broker),
            "{broker} is not part of the topology"
        );
        assert!(
            self.reliable.is_some(),
            "crash_broker requires SimulationConfig::reliability"
        );
        assert!(self.crashed.insert(broker), "{broker} is already crashed");
        // The durable log survives the crash, but the crash may damage the
        // unsynced tail of its most recent write (storage fault plans).
        if let Some(journal) = self
            .brokers
            .get_mut(&broker)
            .expect("asserted above")
            .durable_log_mut()
        {
            journal.crash();
        }
        let session = self.reliable.as_mut().expect("asserted above");
        for neighbor in self.config.topology.neighbors(broker) {
            // The live neighbor holds on to everything it has not seen
            // acked; the crashed side's own protocol state is gone.
            session.peer_crashed(neighbor, broker);
            session.crash_link(broker, neighbor);
        }
    }

    /// Restarts a crashed broker and runs the recovery protocol:
    ///
    /// 0. under [`SimulationConfig::with_durability`], the fresh instance
    ///    first replays its own durable log (snapshot + log tail, truncated
    ///    at the first torn/corrupt record) — recovery of the routing table
    ///    does not depend on any neighbor being alive;
    /// 1. a fresh broker instance comes up
    ///    and re-establishes its links (`Hello`/`Ack`, sequence numbers
    ///    reset); links to *still-crashed* neighbors stay down, so frames
    ///    toward them queue and are flushed when those neighbors restart —
    ///    correlated crashes recover pairwise, in any restart order;
    /// 2. it sends a [`SyncRequest`](WireMessage::SyncRequest) to every
    ///    neighbor; each live one answers with a
    ///    [`SyncState`](WireMessage::SyncState) summarizing the
    ///    subscriptions reachable through *its* side of the tree, which the
    ///    restarted broker installs as remote entries;
    /// 3. the subscriptions of the broker's own local clients are
    ///    re-injected and re-flooded (registration is idempotent at every
    ///    broker that still remembers them);
    /// 4. only then are the neighbors' pending queues flushed — events
    ///    published mid-outage, plus any `Hello`/`SyncRequest` a neighbor
    ///    queued while *this* broker was the dead one. A broker whose
    ///    neighborhood is not fully live yet has its flush *deferred* until
    ///    the last neighbor restarts, so everything queued is routable on
    ///    arrival.
    ///
    /// Counts one [`NetworkStats::resyncs`]; the sync and re-subscription
    /// frames are recorded as control traffic.
    ///
    /// # Panics
    /// Panics if the broker is not currently crashed.
    pub fn restart_broker(&mut self, broker: BrokerId) {
        assert!(
            self.crashed.remove(&broker),
            "{broker} is not crashed; nothing to restart"
        );
        self.network.resyncs += 1;
        // A fresh instance: everything volatile is gone.
        let mut previous = self
            .brokers
            .insert(
                broker,
                Broker::with_engine_config(
                    broker,
                    self.config.topology.neighbors(broker),
                    self.config.engine,
                    self.config.engine_config,
                ),
            )
            .expect("restart of a known broker");
        // 0. The durable log outlives the crashed incarnation: move it to
        //    the fresh instance and replay it *before* talking to anyone.
        if let Some(journal) = previous.take_durable_log() {
            let fresh = self.brokers.get_mut(&broker).expect("just inserted");
            fresh.attach_durable_log(journal);
            fresh.recover();
        }
        let neighbors: Vec<BrokerId> = self.config.topology.neighbors(broker);
        let session = self.reliable.as_mut().expect("crash required reliability");
        for &neighbor in &neighbors {
            // A still-crashed neighbor's links stay down: its sender state
            // died with it, and our frames toward it must queue (not fly
            // into the void) until its own restart flushes them.
            if self.crashed.contains(&neighbor) {
                continue;
            }
            session.reset_link(broker, neighbor);
            session.reset_link(neighbor, broker);
        }
        // 1. Links back up.
        for &neighbor in &neighbors {
            self.send_frame.clear();
            self.codec
                .encode_into(&WireMessage::Hello { broker }, &mut self.send_frame);
            let wire = self.transmit(broker, neighbor);
            self.network.record_control(wire);
        }
        let _ = self.pump(&mut None);
        // 2. Re-learn the rest of the network from the neighbors.
        for &neighbor in &neighbors {
            self.send_frame.clear();
            self.codec
                .encode_into(&WireMessage::SyncRequest { broker }, &mut self.send_frame);
            let wire = self.transmit(broker, neighbor);
            self.network.record_control(wire);
        }
        let _ = self.pump(&mut None);
        // 3. Local clients reconnect and re-subscribe.
        let resubscribe = self.client_subs.get(&broker).cloned().unwrap_or_default();
        for subscription in resubscribe.into_values() {
            self.send_frame.clear();
            self.codec.encode_into(
                &WireMessage::Subscribe { subscription },
                &mut self.send_frame,
            );
            self.transport.send(None, broker, &self.send_frame);
        }
        let _ = self.pump(&mut None);
        // 4. Release the mid-outage traffic the neighbors queued — the
        //    restarted broker can route it now. Bytes and event copies were
        //    recorded when the frames were queued. With a neighbor still
        //    crashed the flush is deferred: without a durable log the
        //    broker holds no entries toward the dead side yet, and even
        //    with one the flushed exchange below completes neighbor tables
        //    first — so the flush waits for the whole neighborhood.
        self.flush_deferred.insert(broker);
        self.flush_ready(broker);
    }

    /// Whether every neighbor of `broker` is currently live.
    fn all_neighbors_live(&self, broker: BrokerId) -> bool {
        self.config
            .topology
            .neighbors(broker)
            .iter()
            .all(|neighbor| !self.crashed.contains(neighbor))
    }

    /// Flushes the inbound pending queues of every restart-deferred broker
    /// whose neighborhood is fully live again, starting with `first` — the
    /// broker that just restarted. Its inbound queues hold the
    /// `Hello`/`SyncRequest` frames earlier-restarted neighbors queued
    /// while it was the dead one; answering those completes *their*
    /// routing tables before their own deferred flushes run, so the
    /// mid-outage events released afterwards are routable everywhere.
    fn flush_ready(&mut self, first: BrokerId) {
        loop {
            let next = if self.flush_deferred.contains(&first) && self.all_neighbors_live(first) {
                first
            } else {
                match self
                    .flush_deferred
                    .iter()
                    .copied()
                    .find(|&deferred| self.all_neighbors_live(deferred))
                {
                    Some(deferred) => deferred,
                    None => return,
                }
            };
            self.flush_deferred.remove(&next);
            let neighbors: Vec<BrokerId> = self.config.topology.neighbors(next);
            let mut flushed = Vec::new();
            let session = self.reliable.as_mut().expect("crash required reliability");
            for &neighbor in &neighbors {
                session.flush_pending(neighbor, next, &mut flushed, &mut self.network);
            }
            for (from, to, frame) in flushed {
                self.transport.send(Some(from), to, &frame);
            }
            // Mid-outage events delivered now belong to the cumulative
            // totals just like deliveries at publish time.
            let delivered = self.pump(&mut None);
            self.deliveries += delivered;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_core::Expr;

    fn b(i: u32) -> BrokerId {
        BrokerId::from_raw(i)
    }

    fn sub(id: u64, subscriber: u64, expr: &Expr) -> Subscription {
        Subscription::from_expr(
            SubscriptionId::from_raw(id),
            SubscriberId::from_raw(subscriber),
            expr,
        )
    }

    fn books(price: i64) -> EventMessage {
        EventMessage::builder()
            .attr("category", "books")
            .attr("price", price)
            .build()
    }

    fn line_simulation() -> Simulation {
        Simulation::new(SimulationConfig::new(Topology::line(5)))
    }

    #[test]
    fn assignment_is_round_robin() {
        let sim = line_simulation();
        assert_eq!(sim.broker_count(), 5);
        assert_eq!(sim.home_broker_of(SubscriberId::from_raw(0)), b(0));
        assert_eq!(sim.home_broker_of(SubscriberId::from_raw(3)), b(3));
        assert_eq!(sim.home_broker_of(SubscriberId::from_raw(7)), b(2));
        assert_eq!(sim.publisher_broker(0), b(0));
        assert_eq!(sim.publisher_broker(6), b(1));
    }

    #[test]
    fn construction_handshakes_every_link() {
        let sim = line_simulation();
        // Two Hello + two Ack frames per link, all control traffic.
        assert_eq!(sim.network_stats().control_frames, 4 * 4);
        assert!(sim.network_stats().control_bytes > 0);
        assert_eq!(sim.network_stats().messages, 0);
        assert_eq!(sim.network_stats().frames, 0);
        for (a, b) in sim.topology().links() {
            assert!(sim.broker(a).unwrap().link_ready(b), "{a} -> {b}");
            assert!(sim.broker(b).unwrap().link_ready(a), "{b} -> {a}");
        }
    }

    #[test]
    fn subscription_forwarding_installs_entries_everywhere() {
        let mut sim = line_simulation();
        let control_before = sim.network_stats().control_frames;
        // Subscriber 0 -> home broker 0.
        sim.register_subscription(sub(1, 0, &Expr::eq("category", "books")));
        assert_eq!(sim.broker(b(0)).unwrap().local_subscriptions().len(), 1);
        assert!(sim.broker(b(0)).unwrap().remote_subscriptions().is_empty());
        for i in 1..5u32 {
            let broker = sim.broker(b(i)).unwrap();
            assert_eq!(broker.remote_subscriptions().len(), 1, "broker {i}");
            assert!(broker.local_subscriptions().is_empty(), "broker {i}");
            // The remote entry points towards broker 0, i.e. to the neighbor
            // the Subscribe frame flooded in from.
            assert_eq!(
                broker
                    .routing_table()
                    .remote_destination(SubscriptionId::from_raw(1)),
                Some(b(i - 1))
            );
        }
        // The flood crossed each of the four links once, as control frames —
        // never as event messages.
        assert_eq!(sim.network_stats().control_frames - control_before, 4);
        assert_eq!(sim.network_stats().messages, 0);
    }

    #[test]
    fn unsubscribe_floods_and_removes_everywhere() {
        let mut sim = line_simulation();
        sim.register_subscription(sub(1, 0, &Expr::eq("category", "books")));
        sim.unregister_subscription(SubscriptionId::from_raw(1), b(0));
        for i in 0..5u32 {
            let broker = sim.broker(b(i)).unwrap();
            assert!(broker.local_subscriptions().is_empty(), "broker {i}");
            assert!(broker.remote_subscriptions().is_empty(), "broker {i}");
        }
        assert!(sim.publish_at(books(1), b(4)).deliveries.is_empty());
    }

    #[test]
    fn events_are_routed_only_towards_interested_brokers() {
        let mut sim = line_simulation();
        sim.register_subscription(sub(1, 0, &Expr::eq("category", "books")));

        // Published at broker 4, the event must travel the whole line (4 hops).
        let outcome = sim.publish_at(books(5), b(4));
        assert_eq!(outcome.broker_messages, 4);
        assert!(outcome.bytes > 0);
        assert_eq!(
            outcome.deliveries,
            vec![(SubscriberId::from_raw(0), SubscriptionId::from_raw(1))]
        );

        // Published at broker 0 itself, no inter-broker traffic is needed.
        let outcome = sim.publish_at(books(5), b(0));
        assert_eq!(outcome.broker_messages, 0);
        assert_eq!(outcome.bytes, 0);
        assert_eq!(outcome.deliveries.len(), 1);

        // A non-matching event generates no traffic and no deliveries.
        let outcome = sim.publish_at(
            EventMessage::builder().attr("category", "music").build(),
            b(4),
        );
        assert_eq!(outcome.broker_messages, 0);
        assert!(outcome.deliveries.is_empty());
    }

    #[test]
    fn deliveries_match_centralized_matching() {
        // The distributed system must deliver exactly the notifications a
        // centralized matcher would produce.
        let mut sim = line_simulation();
        let subs = vec![
            sub(
                1,
                0,
                &Expr::and(vec![
                    Expr::eq("category", "books"),
                    Expr::le("price", 10i64),
                ]),
            ),
            sub(2, 1, &Expr::eq("category", "books")),
            sub(3, 7, &Expr::gt("price", 50i64)),
        ];
        sim.register_all(subs.clone());
        for price in [5i64, 20, 80] {
            let event = books(price);
            let mut expected: Vec<SubscriptionId> = subs
                .iter()
                .filter(|s| s.matches(&event))
                .map(|s| s.id())
                .collect();
            expected.sort();
            let mut got: Vec<SubscriptionId> = sim
                .publish_at(event, b(2))
                .deliveries
                .iter()
                .map(|(_, id)| *id)
                .collect();
            got.sort();
            assert_eq!(got, expected, "price {price}");
        }
    }

    #[test]
    fn pruned_remote_entries_increase_traffic_but_not_deliveries() {
        let mut sim = line_simulation();
        let original = sub(
            1,
            0,
            &Expr::and(vec![
                Expr::eq("category", "books"),
                Expr::le("price", 10i64),
            ]),
        );
        sim.register_all(vec![original.clone()]);

        // Baseline: an expensive book does not travel at all.
        let outcome = sim.publish_at(books(100), b(4));
        assert_eq!(outcome.broker_messages, 0);

        // Prune the remote entries at every broker (drop the price predicate).
        let pruned_tree = SubscriptionTree::from_expr(&Expr::eq("category", "books"));
        for i in 1..5u32 {
            assert!(sim.install_remote_tree(
                b(i),
                SubscriptionId::from_raw(1),
                pruned_tree.clone()
            ));
        }

        // The expensive book now travels the line (post-filtering happens at
        // the home broker) but is still not delivered.
        let outcome = sim.publish_at(books(100), b(4));
        assert_eq!(outcome.broker_messages, 4);
        assert!(outcome.deliveries.is_empty());

        // A matching event is still delivered exactly once.
        let outcome = sim.publish_at(books(5), b(4));
        assert_eq!(outcome.deliveries.len(), 1);
    }

    #[test]
    fn publish_all_reports_the_batch_delta() {
        let mut sim = line_simulation();
        sim.register_subscription(sub(1, 0, &Expr::eq("category", "books")));
        // Warm up with some traffic that must not leak into the report.
        let _ = sim.publish_at(books(1), b(4));

        let events: Vec<EventMessage> = (0..10).map(books).collect();
        let report = sim.publish_all(&events);
        assert_eq!(report.events_published, 10);
        assert_eq!(report.deliveries, 10);
        assert!(report.network.messages > 0);
        assert!(report.network.frames > 0);
        assert!(report.network.bytes > 0);
        assert_eq!(report.network.control_frames, 0);
        assert!(report.filter_stats.events_filtered > 0);
        assert_eq!(report.per_broker_filter.len(), 5);
        // Cumulative counters keep including the warm-up event.
        assert_eq!(sim.events_published(), 11);
        assert_eq!(sim.deliveries(), 11);
    }

    #[test]
    fn a_second_batch_report_excludes_the_first() {
        use filtering::PrefilterMode;
        type Counter = (&'static str, fn(&FilterStats) -> u64);
        // Conjunctions sharing a subtree, and events lacking an attribute
        // they require: stage 0 kills on the counting engine, the A-Tree
        // saves node evaluations, and witnesses answer on both.
        let common: [Counter; 3] = [
            ("events_filtered", |s| s.events_filtered),
            ("stage2_candidates", |s| s.stage2_candidates),
            ("witness_evals", |s| s.witness_evals),
        ];
        let killed: Counter = ("killed_by_prefilter", |s| s.killed_by_prefilter);
        let saved: Counter = ("node_evals_saved", |s| s.node_evals_saved);
        for (kind, counter) in [(EngineKind::Counting, killed), (EngineKind::ATree, saved)] {
            let config = SimulationConfig::new(Topology::line(5))
                .with_engine(kind)
                .with_engine_config(EngineConfig::with_prefilter(PrefilterMode::On));
            let mut sim = Simulation::new(config);
            let shared = Expr::and(vec![
                Expr::eq("category", "books"),
                Expr::le("price", 30i64),
            ]);
            for i in 0..12u64 {
                sim.register_subscription(sub(
                    i,
                    i,
                    &Expr::and(vec![shared.clone(), Expr::ge("price", (i * 3) as i64)]),
                ));
            }
            let no_price = EventMessage::builder().attr("category", "books").build();
            let batch: EventBatch = (0..20)
                .map(|i| {
                    if i % 4 == 3 {
                        no_price.clone()
                    } else {
                        books(i * 2)
                    }
                })
                .collect();

            let first = sim.publish_batch(&batch).filter_stats;
            let before = sim.filter_stats();
            let second = sim.publish_batch(&batch).filter_stats;
            let after = sim.filter_stats();
            for (name, read) in common.into_iter().chain([counter]) {
                assert!(read(&first) > 0, "{kind:?}: {name} did not move");
                assert_eq!(
                    read(&second),
                    read(&after) - read(&before),
                    "{kind:?}: {name} is not the second batch's"
                );
            }
            assert!(second.witness_hits > 0, "{kind:?}");
            // Gauges are levels, not deltas.
            assert_eq!(second.dag_nodes, after.dag_nodes, "{kind:?}");
        }
    }

    #[test]
    fn rehoming_a_subscription_moves_its_routing_entries() {
        let mut sim = line_simulation();
        let id = SubscriptionId::from_raw(1);
        let subscription = sub(1, 0, &Expr::eq("category", "books"));
        sim.register_subscription_at(subscription.clone(), b(0));
        // The subscriber reconnects at the other end of the line.
        sim.register_subscription_at(subscription, b(4));
        for i in 0..5u32 {
            let broker = sim.broker(b(i)).unwrap();
            let (local, remote) = if i == 4 { (1, 0) } else { (0, 1) };
            assert_eq!(broker.local_subscriptions().len(), local, "broker {i}");
            assert_eq!(broker.remote_subscriptions().len(), remote, "broker {i}");
            let toward = (i < 4).then(|| b(i + 1));
            assert_eq!(broker.routing_table().remote_destination(id), toward);
        }
        // Delivered once, at the new home, travelling only towards it.
        let outcome = sim.publish_at(books(5), b(2));
        assert_eq!(outcome.deliveries.len(), 1);
        assert_eq!(outcome.broker_messages, 2);
        assert_eq!(sim.network_stats().link_messages(b(1), b(2)), 0);
        // One unsubscribe ends it everywhere.
        sim.unregister_subscription(id, b(4));
        let outcome = sim.publish_at(books(5), b(2));
        assert!(outcome.deliveries.is_empty());
        assert_eq!(outcome.broker_messages, 0);
    }

    #[test]
    fn publish_batch_agrees_with_per_event_publishing() {
        // The batch pipeline must produce exactly the deliveries, event-copy
        // counts, and per-link traffic of the per-event path. Bytes are
        // exact encoded frame lengths now, so batching — which packs many
        // copies into one frame — must spend *fewer* frames and bytes.
        let subs = vec![
            sub(1, 0, &Expr::eq("category", "books")),
            sub(
                2,
                3,
                &Expr::and(vec![
                    Expr::eq("category", "books"),
                    Expr::le("price", 10i64),
                ]),
            ),
            sub(3, 9, &Expr::gt("price", 40i64)),
        ];
        let events: Vec<EventMessage> = (0..24).map(|i| books((i * 5) % 60)).collect();

        let mut batched = line_simulation();
        batched.register_all(subs.clone());
        let batch: pubsub_core::EventBatch = events.iter().cloned().collect();
        let report = batched.publish_batch(&batch);

        let mut reference = line_simulation();
        reference.register_all(subs);
        reference.reset_metrics();
        let mut expected_deliveries = 0u64;
        for event in &events {
            expected_deliveries += reference.publish(event.clone()).deliveries.len() as u64;
        }

        assert_eq!(report.events_published, events.len() as u64);
        assert_eq!(report.deliveries, expected_deliveries);
        assert_eq!(report.network.messages, reference.network_stats().messages);
        assert_eq!(report.network.per_link, reference.network_stats().per_link);
        assert!(report.network.frames < reference.network_stats().frames);
        assert!(report.network.bytes < reference.network_stats().bytes);
        assert!(report.network.bytes > 0);
        assert_eq!(batched.events_published(), reference.events_published());
        assert_eq!(batched.deliveries(), reference.deliveries());
        // Both paths filtered the same number of events; the batch path did
        // it in far fewer engine invocations.
        assert_eq!(
            report.filter_stats.events_filtered,
            reference.filter_stats().events_filtered
        );
        assert!(report.filter_stats.batches_filtered < report.filter_stats.events_filtered);
    }

    #[test]
    fn publish_batch_respects_deliver_at_origin() {
        let mut config = SimulationConfig::new(Topology::line(2));
        config.deliver_at_origin = false;
        let mut sim = Simulation::new(config);
        // Subscriber 0 -> home broker 0.
        sim.register_subscription(sub(1, 0, &Expr::eq("category", "books")));
        let batch: pubsub_core::EventBatch = vec![books(1), books(2)].into_iter().collect();
        // Round-robin origins: event 0 at broker 0 (origin delivery is
        // suppressed), event 1 at broker 1 (delivered at broker 0 after one
        // hop).
        let report = sim.publish_batch(&batch);
        assert_eq!(report.deliveries, 1);
        assert_eq!(report.network.messages, 1);
    }

    #[test]
    fn sharded_engine_simulation_matches_counting_simulation() {
        // The whole distributed pipeline — deliveries, copy counts, exact
        // frame bytes, per-link traffic — must be identical whether the
        // brokers match with the single-threaded or the sharded engine.
        let subs = vec![
            sub(1, 0, &Expr::eq("category", "books")),
            sub(
                2,
                3,
                &Expr::and(vec![
                    Expr::eq("category", "books"),
                    Expr::le("price", 10i64),
                ]),
            ),
            sub(3, 9, &Expr::gt("price", 40i64)),
            sub(4, 4, &Expr::not(Expr::eq("category", "books"))),
        ];
        let events: Vec<EventMessage> = (0..30).map(|i| books((i * 5) % 60)).collect();
        let batch: pubsub_core::EventBatch = events.iter().cloned().collect();

        let mut counting = line_simulation();
        counting.register_all(subs.clone());
        let reference = counting.publish_batch(&batch);

        let config = SimulationConfig::new(Topology::line(5)).with_engine(EngineKind::Sharded(3));
        let mut sharded = Simulation::new(config);
        assert_eq!(
            sharded.broker(b(0)).unwrap().engine_kind(),
            EngineKind::Sharded(3)
        );
        sharded.register_all(subs);
        let report = sharded.publish_batch(&batch);

        assert_eq!(report.deliveries, reference.deliveries);
        assert_eq!(report.network.messages, reference.network.messages);
        assert_eq!(report.network.frames, reference.network.frames);
        assert_eq!(report.network.bytes, reference.network.bytes);
        assert_eq!(report.network.per_link, reference.network.per_link);
        assert_eq!(report.filter_stats.matches, reference.filter_stats.matches);
    }

    #[test]
    fn atree_engine_simulation_matches_counting_simulation() {
        // Same whole-pipeline equivalence as the sharded test, but for the
        // shared-subexpression engine — alone and sharded. The workload is
        // deliberately redundant so the DAG actually shares subtrees, and
        // the per-broker DAG gauges must surface in the merged report.
        let common = Expr::and(vec![
            Expr::eq("category", "books"),
            Expr::le("price", 30i64),
        ]);
        let mut subs = vec![
            sub(1, 0, &Expr::eq("category", "books")),
            sub(2, 3, &common),
            sub(3, 9, &Expr::gt("price", 40i64)),
            sub(4, 4, &Expr::not(Expr::eq("category", "books"))),
        ];
        for i in 0..12u64 {
            subs.push(sub(
                10 + i,
                i % 10,
                &Expr::and(vec![common.clone(), Expr::ge("price", (i * 3) as i64)]),
            ));
        }
        let events: Vec<EventMessage> = (0..30).map(|i| books((i * 5) % 60)).collect();
        let batch: pubsub_core::EventBatch = events.iter().cloned().collect();

        let mut counting = line_simulation();
        counting.register_all(subs.clone());
        let reference = counting.publish_batch(&batch);

        for kind in [EngineKind::ATree, EngineKind::ShardedATree(3)] {
            let config = SimulationConfig::new(Topology::line(5)).with_engine(kind);
            let mut atree = Simulation::new(config);
            assert_eq!(atree.broker(b(0)).unwrap().engine_kind(), kind);
            atree.register_all(subs.clone());
            let report = atree.publish_batch(&batch);

            assert_eq!(report.deliveries, reference.deliveries, "{kind:?}");
            assert_eq!(report.network.messages, reference.network.messages);
            assert_eq!(report.network.frames, reference.network.frames);
            assert_eq!(report.network.bytes, reference.network.bytes);
            assert_eq!(report.network.per_link, reference.network.per_link);
            assert_eq!(report.filter_stats.matches, reference.filter_stats.matches);
            assert!(report.filter_stats.dag_nodes > 0, "{kind:?}");
            assert!(report.filter_stats.shared_subtrees > 0, "{kind:?}");
        }
    }

    #[test]
    fn memory_reports_aggregate_over_brokers() {
        let mut sim = line_simulation();
        sim.register_subscription(sub(
            1,
            0,
            &Expr::and(vec![
                Expr::eq("category", "books"),
                Expr::le("price", 10i64),
            ]),
        ));
        let report = sim.memory_report();
        // 1 local entry (2 predicates) + 4 remote entries (2 predicates each).
        assert_eq!(report.local_subscriptions, 1);
        assert_eq!(report.remote_subscriptions, 4);
        assert_eq!(report.local_associations, 2);
        assert_eq!(report.remote_associations, 8);
        let per_broker = sim.memory_report_per_broker();
        assert_eq!(per_broker.len(), 5);
        assert_eq!(per_broker[&b(0)].local_subscriptions, 1);
        assert_eq!(per_broker[&b(3)].remote_subscriptions, 1);
    }

    #[test]
    fn reset_metrics_clears_counters_but_keeps_entries() {
        let mut sim = line_simulation();
        sim.register_subscription(sub(1, 0, &Expr::eq("category", "books")));
        let _ = sim.publish_at(books(1), b(4));
        assert!(sim.network_stats().messages > 0);
        assert!(sim.network_stats().control_frames > 0);
        sim.reset_metrics();
        assert_eq!(sim.network_stats().messages, 0);
        assert_eq!(sim.network_stats().control_frames, 0);
        assert_eq!(sim.events_published(), 0);
        assert_eq!(sim.filter_stats().events_filtered, 0);
        assert_eq!(sim.memory_report().remote_subscriptions, 4);
    }

    #[test]
    fn centralized_configuration_has_no_network_traffic() {
        let mut sim = Simulation::new(SimulationConfig::centralized());
        sim.register_subscription(sub(1, 0, &Expr::eq("category", "books")));
        sim.register_subscription(sub(2, 1, &Expr::eq("category", "music")));
        let outcome = sim.publish(books(3));
        assert_eq!(outcome.broker_messages, 0);
        assert_eq!(outcome.deliveries.len(), 1);
        assert_eq!(sim.memory_report().remote_subscriptions, 0);
        assert_eq!(sim.network_stats().control_frames, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds the wire protocol's MAX_TREE_DEPTH")]
    fn over_deep_subscriptions_are_rejected_at_registration() {
        // A tree the codec could encode but no broker could decode must be
        // rejected up front with a clear message, not a decode panic
        // mid-flood.
        let mut expr = Expr::eq("a", 1i64);
        for _ in 0..crate::wire::MAX_TREE_DEPTH {
            expr = Expr::not(expr);
        }
        let mut sim = line_simulation();
        sim.register_subscription(sub(1, 0, &expr));
    }

    #[test]
    #[should_panic(expected = "not part of the topology")]
    fn publishing_at_an_unknown_broker_panics() {
        let mut sim = line_simulation();
        let _ = sim.publish_at(books(1), b(99));
    }

    #[test]
    fn paper_line_preset() {
        let config = SimulationConfig::paper_line();
        assert_eq!(config.topology.len(), 5);
        assert!(config.deliver_at_origin);
        let config = SimulationConfig::centralized();
        assert_eq!(config.topology.len(), 1);
    }

    // ------------------------------------------------------------------
    // Reliability and fault tolerance
    // ------------------------------------------------------------------

    use crate::fault::{FaultPlan, FaultyTransport};

    fn id_books(id: u64, price: i64) -> EventMessage {
        EventMessage::builder()
            .id(EventId::from_raw(id))
            .attr("category", "books")
            .attr("price", price)
            .build()
    }

    fn test_subs() -> Vec<Subscription> {
        vec![
            sub(1, 0, &Expr::eq("category", "books")),
            sub(
                2,
                3,
                &Expr::and(vec![
                    Expr::eq("category", "books"),
                    Expr::le("price", 10i64),
                ]),
            ),
            sub(3, 9, &Expr::gt("price", 40i64)),
        ]
    }

    fn test_events(n: u64) -> Vec<EventMessage> {
        (0..n).map(|i| id_books(i, ((i * 5) % 60) as i64)).collect()
    }

    fn sorted_log(sim: &mut Simulation) -> Vec<(EventId, SubscriberId, SubscriptionId)> {
        let mut log = sim.take_delivery_log();
        log.sort();
        log
    }

    fn baseline_log(
        topology: Topology,
        subs: &[Subscription],
        events: &[EventMessage],
    ) -> Vec<(EventId, SubscriberId, SubscriptionId)> {
        let mut sim = Simulation::new(SimulationConfig::new(topology));
        sim.enable_delivery_log();
        sim.register_all(subs.to_vec());
        let batch: EventBatch = events.iter().cloned().collect();
        let _ = sim.publish_batch(&batch);
        sorted_log(&mut sim)
    }

    #[test]
    fn analysis_preserves_deliveries_and_reduces_control_traffic() {
        use filtering::AnalyzeMode;
        let subs = vec![
            sub(1, 0, &Expr::eq("category", "books")),
            sub(
                2,
                3,
                &Expr::and(vec![
                    Expr::eq("category", "books"),
                    Expr::le("price", 10i64),
                ]),
            ),
            sub(
                3,
                9,
                &Expr::and(vec![
                    Expr::eq("category", "books"),
                    Expr::le("price", 10i64),
                    Expr::le("price", 20i64),
                ]),
            ),
            // Unsatisfiable: rejected at its home broker, never flooded.
            sub(
                4,
                6,
                &Expr::and(vec![Expr::gt("price", 5i64), Expr::lt("price", 3i64)]),
            ),
        ];
        let events = test_events(30);
        let run = |config: EngineConfig| {
            let mut sim = Simulation::new(
                SimulationConfig::new(Topology::line(4)).with_engine_config(config),
            );
            sim.enable_delivery_log();
            sim.register_all(subs.clone());
            let control_bytes = sim.network_stats().control_bytes;
            let batch: EventBatch = events.iter().cloned().collect();
            let report = sim.publish_batch(&batch);
            let analysis = report.analysis;
            (sorted_log(&mut sim), control_bytes, analysis, sim)
        };

        let (log_on, control_on, analysis_on, sim_on) = run(EngineConfig::default());
        let (log_off, control_off, analysis_off, _) =
            run(EngineConfig::with_analyze(AnalyzeMode::Off));

        assert_eq!(log_on, log_off, "analysis changed the delivery set");
        assert!(!log_on.is_empty());
        assert_eq!(analysis_off, AnalysisStats::default());
        assert_eq!(analysis_on, sim_on.analysis_stats());
        // Exactly one broker ever saw the unsatisfiable subscription.
        assert_eq!(analysis_on.unsatisfiable_rejected, 1);
        assert!(analysis_on.subsumed_not_flooded > 0);
        assert!(analysis_on.subs_simplified > 0);
        assert!(
            control_on < control_off,
            "analysis should shrink subscribe traffic: {control_on} vs {control_off}"
        );
    }

    #[test]
    fn reliability_on_a_clean_transport_is_transparent() {
        // Same deliveries and event-copy counts; only the frame framing
        // (and so the byte totals) differs.
        let subs = test_subs();
        let events = test_events(24);
        let batch: EventBatch = events.iter().cloned().collect();

        let mut plain = line_simulation();
        plain.enable_delivery_log();
        plain.register_all(subs.clone());
        let plain_report = plain.publish_batch(&batch);

        let config = SimulationConfig::new(Topology::line(5)).with_reliability(true);
        let mut reliable = Simulation::new(config);
        reliable.enable_delivery_log();
        reliable.register_all(subs);
        let report = reliable.publish_batch(&batch);

        assert_eq!(sorted_log(&mut reliable), sorted_log(&mut plain));
        assert_eq!(report.deliveries, plain_report.deliveries);
        assert_eq!(report.network.messages, plain_report.network.messages);
        assert_eq!(report.network.frames, plain_report.network.frames);
        assert_eq!(report.network.per_link, plain_report.network.per_link);
        // The outer framing costs exactly RELIABLE_OVERHEAD - 4 extra bytes
        // per frame (its own length prefix replaces none) plus the acks, all
        // of which are control traffic.
        assert!(report.network.bytes > plain_report.network.bytes);
        assert_eq!(report.network.retransmits, 0);
        assert_eq!(report.network.dup_suppressed, 0);
        assert_eq!(report.network.corrupt_dropped, 0);
        assert_eq!(report.network.decode_errors, 0);
    }

    #[test]
    fn reliable_links_heal_drop_duplicate_and_reorder() {
        let subs = test_subs();
        let events = test_events(40);
        let expected = baseline_log(Topology::line(3), &subs, &events);

        let mut transport = FaultyTransport::new(Box::new(ChannelTransport::new()));
        let topology = Topology::line(3);
        for (a, b) in topology.links() {
            transport.set_link_plan(
                a,
                b,
                FaultPlan::new(7 + a.raw() as u64)
                    .with_drop(0.2)
                    .with_duplicate(0.1)
                    .with_reorder(4),
            );
        }
        let config = SimulationConfig::new(topology).with_reliability(true);
        let mut sim = Simulation::with_transport(config, Box::new(transport));
        sim.enable_delivery_log();
        sim.register_all(subs);
        let batch: EventBatch = events.iter().cloned().collect();
        let _ = sim.publish_batch(&batch);

        assert_eq!(sorted_log(&mut sim), expected);
        let stats = sim.network_stats();
        assert!(stats.retransmits > 0, "drops must force retransmissions");
        assert!(stats.dup_suppressed > 0, "duplicates must be suppressed");
        assert_eq!(stats.decode_errors, 0);
    }

    #[test]
    fn corruption_is_dropped_and_healed_by_retransmission() {
        let subs = test_subs();
        let events = test_events(20);
        let expected = baseline_log(Topology::line(3), &subs, &events);

        let topology = Topology::line(3);
        let mut transport = FaultyTransport::new(Box::new(ChannelTransport::new()));
        for (a, b) in topology.links() {
            transport.set_link_plan(a, b, FaultPlan::new(3).with_corrupt(0.15));
        }
        let config = SimulationConfig::new(topology).with_reliability(true);
        let mut sim = Simulation::with_transport(config, Box::new(transport));
        sim.enable_delivery_log();
        sim.register_all(subs);
        let batch: EventBatch = events.iter().cloned().collect();
        let _ = sim.publish_batch(&batch);

        assert_eq!(sorted_log(&mut sim), expected);
        let stats = sim.network_stats();
        assert!(stats.corrupt_dropped > 0, "corruption must be detected");
        assert!(stats.retransmits > 0, "corrupted frames must be resent");
        // The checksum catches damage before the codec ever sees it.
        assert_eq!(stats.decode_errors, 0);
    }

    #[test]
    fn crash_and_restart_preserves_the_delivery_set() {
        let subs = test_subs();
        let events = test_events(30);
        let expected = baseline_log(Topology::line(3), &subs, &events);

        let config = SimulationConfig::new(Topology::line(3)).with_reliability(true);
        let mut sim = Simulation::new(config);
        sim.enable_delivery_log();
        sim.register_all(subs);

        // Phase 1 normally, phase 2 with the middle broker down (its
        // neighbors queue traffic for it; publishers fail over), phase 3
        // after recovery.
        let phases: Vec<EventBatch> = events
            .chunks(10)
            .map(|chunk| chunk.iter().cloned().collect())
            .collect();
        let _ = sim.publish_batch(&phases[0]);
        sim.crash_broker(b(1));
        assert!(sim.is_crashed(b(1)));
        let _ = sim.publish_batch(&phases[1]);
        sim.restart_broker(b(1));
        assert!(!sim.is_crashed(b(1)));
        let _ = sim.publish_batch(&phases[2]);

        assert_eq!(sorted_log(&mut sim), expected);
        assert_eq!(sim.network_stats().resyncs, 1);
        assert_eq!(sim.network_stats().queue_drops, 0);
        // The restarted broker re-learned exactly the routing state an
        // uncrashed run would hold.
        let mut reference = Simulation::new(SimulationConfig::new(Topology::line(3)));
        reference.register_all(test_subs());
        let mut recovered: Vec<SubscriptionId> = sim
            .broker(b(1))
            .unwrap()
            .remote_subscriptions()
            .iter()
            .map(Subscription::id)
            .collect();
        recovered.sort();
        let mut expected_remote: Vec<SubscriptionId> = reference
            .broker(b(1))
            .unwrap()
            .remote_subscriptions()
            .iter()
            .map(Subscription::id)
            .collect();
        expected_remote.sort();
        assert_eq!(recovered, expected_remote);
    }

    #[test]
    fn crash_of_a_leaf_with_local_subscribers_recovers_them() {
        // Subscriber 0 lives at broker 0 (a leaf of the line). Crash and
        // restart broker 0: its client re-subscribes, and events published
        // at the far end are delivered again.
        let config = SimulationConfig::new(Topology::line(3)).with_reliability(true);
        let mut sim = Simulation::new(config);
        sim.register_subscription(sub(1, 0, &Expr::eq("category", "books")));

        sim.crash_broker(b(0));
        // Mid-outage: the event is routed toward broker 0 and queued at the
        // link by broker 1.
        let outcome = sim.publish_at(id_books(1, 5), b(2));
        assert!(outcome.deliveries.is_empty(), "crashed broker delivered");
        sim.restart_broker(b(0));
        // The queued event arrived after recovery.
        assert_eq!(sim.deliveries(), 1);
        // New traffic flows normally.
        let outcome = sim.publish_at(id_books(2, 5), b(2));
        assert_eq!(outcome.deliveries.len(), 1);
    }

    #[test]
    fn a_re_registered_id_is_re_injected_once_after_a_restart() {
        let local_at = |sim: &Simulation, broker: BrokerId| {
            sim.broker(broker)
                .expect("part of the line")
                .local_subscriptions()
                .len()
        };
        let restart_frames = |bodies: &[&str]| {
            let config = SimulationConfig::new(Topology::line(3)).with_reliability(true);
            let mut sim = Simulation::new(config);
            for body in bodies {
                sim.register_subscription(sub(1, 0, &Expr::eq("category", *body)));
            }
            sim.crash_broker(b(0));
            let before = sim.network_stats().control_frames;
            sim.restart_broker(b(0));
            assert_eq!(local_at(&sim, b(0)), 1);
            assert_eq!(sim.publish_at(id_books(1, 5), b(2)).deliveries.len(), 1);
            sim.network_stats().control_frames - before
        };
        // Only the body the client holds now comes back: the restart of a
        // broker whose client re-registered floods what a single
        // registration would.
        assert_eq!(
            restart_frames(&["music", "games", "books"]),
            restart_frames(&["books"])
        );

        // An id registered again at another home left its old one for good.
        let config = SimulationConfig::new(Topology::line(3)).with_reliability(true);
        let mut sim = Simulation::new(config);
        sim.register_subscription_at(sub(1, 0, &Expr::eq("category", "books")), b(0));
        sim.register_subscription_at(sub(1, 0, &Expr::eq("category", "books")), b(2));
        sim.crash_broker(b(0));
        sim.restart_broker(b(0));
        assert_eq!(local_at(&sim, b(0)), 0);
        assert_eq!(local_at(&sim, b(2)), 1);
        sim.unregister_subscription(SubscriptionId::from_raw(1), b(1));
        sim.crash_broker(b(2));
        sim.restart_broker(b(2));
        assert_eq!(local_at(&sim, b(2)), 0);
    }

    #[test]
    fn decode_errors_are_counted_not_fatal() {
        // Without the reliable layer, corruption reaches the codec: the
        // simulation must count the rejects and keep running, not panic.
        let topology = Topology::line(3);
        let mut transport = FaultyTransport::new(Box::new(ChannelTransport::new()));
        for (a, b) in topology.links() {
            transport.set_link_plan(a, b, FaultPlan::new(99).with_corrupt(1.0));
        }
        let config = SimulationConfig::new(topology);
        let mut sim = Simulation::with_transport(config, Box::new(transport));
        sim.register_all(test_subs());
        for event in test_events(20) {
            let _ = sim.publish(event);
        }
        assert!(
            sim.network_stats().decode_errors > 0,
            "every inter-broker frame was corrupted; some must fail decoding"
        );
    }

    #[test]
    fn crash_without_reliability_is_refused() {
        let mut sim = line_simulation();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.crash_broker(b(1));
        }));
        assert!(result.is_err(), "crash must require reliability");
    }

    #[test]
    fn publisher_failover_skips_crashed_brokers() {
        let config = SimulationConfig::new(Topology::line(3)).with_reliability(true);
        let mut sim = Simulation::new(config);
        sim.crash_broker(b(0));
        assert_eq!(sim.live_origin(b(0)), b(1));
        assert_eq!(sim.live_origin(b(2)), b(2));
        sim.crash_broker(b(1));
        assert_eq!(sim.live_origin(b(0)), b(2));
    }

    #[test]
    #[should_panic(expected = "is already crashed")]
    fn crashing_a_crashed_broker_panics() {
        let config = SimulationConfig::new(Topology::line(3)).with_reliability(true);
        let mut sim = Simulation::new(config);
        sim.crash_broker(b(1));
        sim.crash_broker(b(1));
    }

    #[test]
    #[should_panic(expected = "is not crashed")]
    fn restarting_a_live_broker_panics() {
        // Re-running the handshake on a live broker would double-count
        // resyncs and re-flood client subscriptions — refuse loudly.
        let config = SimulationConfig::new(Topology::line(3)).with_reliability(true);
        let mut sim = Simulation::new(config);
        sim.restart_broker(b(1));
    }

    #[test]
    fn correlated_crash_of_adjacent_brokers_recovers_via_sync_alone() {
        // Two adjacent brokers down at once, durability OFF: each restart
        // syncs from its live side, and the queued Hello/SyncRequest toward
        // the still-dead neighbor completes the pairwise handshake when
        // that neighbor comes back — neighbor state alone rebuilds both
        // tables.
        let subs = test_subs();
        let events = test_events(30);
        let expected = baseline_log(Topology::line(4), &subs, &events);

        let config = SimulationConfig::new(Topology::line(4)).with_reliability(true);
        let mut sim = Simulation::new(config);
        sim.enable_delivery_log();
        sim.register_all(subs);

        let phases: Vec<EventBatch> = events
            .chunks(10)
            .map(|chunk| chunk.iter().cloned().collect())
            .collect();
        let _ = sim.publish_batch(&phases[0]);
        sim.crash_broker(b(1));
        sim.crash_broker(b(2));
        let _ = sim.publish_batch(&phases[1]);
        sim.restart_broker(b(1));
        sim.restart_broker(b(2));
        let _ = sim.publish_batch(&phases[2]);

        assert_eq!(sorted_log(&mut sim), expected);
        assert_eq!(sim.network_stats().resyncs, 2);
        assert_eq!(sim.network_stats().queue_drops, 0);
        // Both restarted brokers hold exactly the remote state an uncrashed
        // run would: the first-restarted one re-learned the second's side
        // through the flushed sync exchange.
        let mut reference = Simulation::new(SimulationConfig::new(Topology::line(4)));
        reference.register_all(test_subs());
        for broker in [b(1), b(2)] {
            let mut recovered: Vec<SubscriptionId> = sim
                .broker(broker)
                .unwrap()
                .remote_subscriptions()
                .iter()
                .map(Subscription::id)
                .collect();
            recovered.sort();
            let mut expected_remote: Vec<SubscriptionId> = reference
                .broker(broker)
                .unwrap()
                .remote_subscriptions()
                .iter()
                .map(Subscription::id)
                .collect();
            expected_remote.sort();
            assert_eq!(recovered, expected_remote, "{broker} state diverged");
        }
    }

    #[test]
    fn whole_cluster_restart_recovers_from_logs_alone() {
        // Every broker crashes; the first one restarts with zero live
        // neighbors. Its routing table — including *remote* entries, which
        // client re-injection cannot restore and no neighbor can provide —
        // must come back from its own durable log.
        let subs = test_subs();
        let events = test_events(30);
        let expected = baseline_log(Topology::line(3), &subs, &events);

        let config = SimulationConfig::new(Topology::line(3))
            .with_reliability(true)
            .with_durability(DurabilityConfig::default());
        let mut sim = Simulation::new(config);
        sim.enable_delivery_log();
        sim.register_all(subs);

        let phases: Vec<EventBatch> = events
            .chunks(15)
            .map(|chunk| chunk.iter().cloned().collect())
            .collect();
        let _ = sim.publish_batch(&phases[0]);

        let reference_remote: Vec<SubscriptionId> = {
            let mut ids: Vec<SubscriptionId> = sim
                .broker(b(1))
                .unwrap()
                .remote_subscriptions()
                .iter()
                .map(Subscription::id)
                .collect();
            ids.sort();
            ids
        };
        for broker in [b(0), b(1), b(2)] {
            sim.crash_broker(broker);
        }
        // Restart the middle broker first: both its neighbors are dead, so
        // only the log can restore its remote entries.
        sim.restart_broker(b(1));
        let mut recovered: Vec<SubscriptionId> = sim
            .broker(b(1))
            .unwrap()
            .remote_subscriptions()
            .iter()
            .map(Subscription::id)
            .collect();
        recovered.sort();
        assert_eq!(
            recovered, reference_remote,
            "log-only recovery lost remote entries"
        );
        sim.restart_broker(b(0));
        sim.restart_broker(b(2));
        let _ = sim.publish_batch(&phases[1]);

        assert_eq!(sorted_log(&mut sim), expected);
        let stats = sim.network_stats();
        assert!(stats.log_records_replayed > 0, "nothing was replayed");
        assert!(stats.log_bytes > 0, "nothing was journaled");
        assert_eq!(stats.log_corrupt_truncations, 0);
        assert_eq!(stats.queue_drops, 0);
    }

    #[test]
    fn compaction_under_simulation_load_is_counted_and_lossless() {
        // A tiny compaction period forces several snapshot swaps during
        // registration; the table and deliveries must be unaffected.
        let subs = test_subs();
        let events = test_events(20);
        let expected = baseline_log(Topology::line(3), &subs, &events);

        let config = SimulationConfig::new(Topology::line(3))
            .with_reliability(true)
            .with_durability(DurabilityConfig::new().with_compact_every(2));
        let mut sim = Simulation::new(config);
        sim.enable_delivery_log();
        sim.register_all(subs);
        let batch: EventBatch = events.iter().cloned().collect();
        let _ = sim.publish_batch(&batch);
        assert_eq!(sorted_log(&mut sim), expected);
        assert!(
            sim.network_stats().snapshot_compactions > 0,
            "a 2-record period never compacted"
        );

        // Crash + whole-cluster restart on top of compacted state.
        for broker in [b(0), b(1), b(2)] {
            sim.crash_broker(broker);
        }
        for broker in [b(0), b(1), b(2)] {
            sim.restart_broker(broker);
        }
        let expected_after = {
            let mut reference = Simulation::new(SimulationConfig::new(Topology::line(3)));
            reference.enable_delivery_log();
            reference.register_all(test_subs());
            let batch: EventBatch = test_events(20).iter().cloned().collect();
            let _ = reference.publish_batch(&batch);
            let _ = sorted_log(&mut reference);
            let _ = reference.publish_batch(&batch);
            sorted_log(&mut reference)
        };
        let _ = sim.publish_batch(&batch);
        assert_eq!(sorted_log(&mut sim), expected_after);
    }
}
