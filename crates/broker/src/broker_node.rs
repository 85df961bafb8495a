//! A single broker node.

use crate::durability::DurableLog;
use crate::metrics::{AnalysisStats, RoutingMemoryReport};
use crate::routing_table::RoutingTable;
use crate::subsumption::SubsumptionQuery;
use crate::wire::WireMessage;
use filtering::{EngineConfig, EngineKind, FilterStats};
use pubsub_core::analysis::Analyzer;
#[cfg(test)]
use pubsub_core::EventMessage;
use pubsub_core::{
    BrokerId, EventBatch, SubscriberId, Subscription, SubscriptionId, SubscriptionTree,
};
use std::collections::BTreeMap;

/// Where a routing entry's matches must be sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Destination {
    /// A subscriber connected directly to this broker.
    LocalClient(SubscriberId),
    /// The neighbor broker on the path towards the subscriber's home broker.
    Neighbor(BrokerId),
}

/// The result of a broker processing one incoming event.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EventHandling {
    /// Notifications to deliver to local subscribers.
    pub deliveries: Vec<(SubscriberId, SubscriptionId)>,
    /// Neighbors that need their own copy of the event.
    pub forward_to: Vec<BrokerId>,
}

/// The result of a broker processing one incoming event batch.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BatchHandling {
    /// Notifications to deliver to local subscribers, tagged with the batch
    /// index of the triggering event.
    pub deliveries: Vec<(usize, SubscriberId, SubscriptionId)>,
    /// Per batch event, the neighbors that need their own copy
    /// (`forward_to[i]` belongs to the event at batch index `i`).
    pub forward_to: Vec<Vec<BrokerId>>,
}

/// The result of a broker processing one incoming [`WireMessage`].
///
/// Reusable: hot paths keep one instance alive and refill it through
/// [`Broker::handle_message_into`]; the outgoing `PublishBatch` bodies are
/// recycled back into the handling broker's batch pool on the next call.
#[derive(Debug, Default)]
pub struct MessageHandling {
    /// Notifications to deliver to this broker's local subscribers, tagged
    /// with the batch index of the triggering event (always `0` for
    /// control-plane messages, which deliver nothing).
    pub deliveries: Vec<(usize, SubscriberId, SubscriptionId)>,
    /// Messages this broker wants sent to its neighbors in response, in
    /// ascending neighbor order.
    pub outgoing: Vec<(BrokerId, WireMessage)>,
}

impl MessageHandling {
    /// Creates an empty handling buffer.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One broker of the distributed publish/subscribe network.
///
/// A broker owns a [`RoutingTable`] and knows its neighbors. Its ingress is
/// **message-passing**: every interaction with the rest of the network —
/// link setup, subscription registration, event traffic — arrives as a
/// [`WireMessage`] through [`handle_message`](Broker::handle_message), and
/// everything the broker wants sent in response comes back as wire messages
/// addressed to neighbors. The broker does no I/O itself: a
/// [`Transport`](crate::wire::Transport) (driven by the
/// [`Simulation`](crate::Simulation) or the
/// [`ParallelNetwork`](crate::ParallelNetwork)) moves the encoded frames,
/// which keeps experiments deterministic and independent of the host's
/// networking stack.
#[derive(Debug)]
pub struct Broker {
    id: BrokerId,
    neighbors: Vec<BrokerId>,
    table: RoutingTable,
    /// Neighbors whose link completed the Hello/Ack handshake.
    links_up: Vec<BrokerId>,
    /// Recycled bodies for outgoing `PublishBatch` messages.
    batch_pool: Vec<EventBatch>,
    /// Reusable per-event forwarding buckets for the batch path.
    forward_scratch: Vec<Vec<BrokerId>>,
    /// Flood-suppression records, per neighbor: `suppressed[n][s] = g` means
    /// the `Subscribe` for `s` was NOT flooded toward neighbor `n` because
    /// the already-propagated subscription `g` subsumes it (every event `s`
    /// needs already flows here for `g`). When `g` goes away, `s` is either
    /// re-blocked by another subsumer or re-flooded.
    suppressed: BTreeMap<BrokerId, BTreeMap<SubscriptionId, SubscriptionId>>,
    /// Registration-time analysis counters of this broker.
    analysis: AnalysisStats,
    /// Durable subscription log, when durability is enabled. Every accepted
    /// `Subscribe`/`Unsubscribe` (and installed sync state) is appended
    /// post-analysis; `None` during replay so recovery does not re-append.
    journal: Option<DurableLog>,
}

impl Broker {
    /// Creates a broker with the given id and neighbor set, matching with
    /// the default single-threaded engines.
    pub fn new(id: BrokerId, neighbors: Vec<BrokerId>) -> Self {
        Self::with_engine(id, neighbors, EngineKind::Counting)
    }

    /// Creates a broker whose routing-table engines are built as the given
    /// [`EngineKind`] (e.g. `EngineKind::Sharded(4)` to match incoming
    /// batches on four cores).
    pub fn with_engine(id: BrokerId, neighbors: Vec<BrokerId>, engine: EngineKind) -> Self {
        Self::with_engine_config(id, neighbors, engine, EngineConfig::default())
    }

    /// Creates a broker whose routing-table engines are built as the given
    /// [`EngineKind`], all running the given staged-pipeline configuration.
    pub fn with_engine_config(
        id: BrokerId,
        neighbors: Vec<BrokerId>,
        engine: EngineKind,
        config: EngineConfig,
    ) -> Self {
        Self {
            id,
            neighbors,
            table: RoutingTable::with_engine_config(engine, config),
            links_up: Vec::new(),
            batch_pool: Vec::new(),
            forward_scratch: Vec::new(),
            suppressed: BTreeMap::new(),
            analysis: AnalysisStats::default(),
            journal: None,
        }
    }

    /// Installs (or clears) the durable log. Crate-internal plumbing behind
    /// the public [`attach_durable_log`](Self::attach_durable_log).
    pub(crate) fn set_journal(&mut self, journal: Option<DurableLog>) {
        self.journal = journal;
    }

    /// Detaches the durable log, if any.
    pub(crate) fn take_journal(&mut self) -> Option<DurableLog> {
        self.journal.take()
    }

    /// The attached durable log.
    pub(crate) fn journal(&self) -> Option<&DurableLog> {
        self.journal.as_ref()
    }

    /// The attached durable log, mutably.
    pub(crate) fn journal_mut(&mut self) -> Option<&mut DurableLog> {
        self.journal.as_mut()
    }

    /// Runs a snapshot compaction if the journal accumulated enough records.
    fn maybe_compact(&mut self) {
        if let Some(journal) = self.journal.as_mut() {
            if journal.wants_compaction() {
                journal.compact(self.table.entries());
            }
        }
    }

    /// The engine kind this broker's routing table uses.
    pub fn engine_kind(&self) -> EngineKind {
        self.table.engine_kind()
    }

    /// The staged-pipeline configuration this broker's engines run with.
    pub fn engine_config(&self) -> EngineConfig {
        self.table.engine_config()
    }

    /// This broker's id.
    pub fn id(&self) -> BrokerId {
        self.id
    }

    /// This broker's neighbors.
    pub fn neighbors(&self) -> &[BrokerId] {
        &self.neighbors
    }

    /// Registers a subscription of a client connected to this broker.
    pub fn register_local(&mut self, subscription: Subscription) {
        self.table.add_local(subscription);
    }

    /// Registers a forwarded subscription whose home broker lies towards the
    /// given neighbor.
    ///
    /// This is a bootstrap/snapshot helper (used when rebuilding a broker
    /// from another broker's state, e.g. for
    /// [`ParallelNetwork::from_brokers`](crate::ParallelNetwork::from_brokers));
    /// live registration arrives as
    /// [`WireMessage::Subscribe`] through
    /// [`handle_message`](Broker::handle_message), which records the arrival
    /// link as the next hop.
    ///
    /// # Panics
    /// Panics if `toward` is not one of this broker's neighbors — that would
    /// mean subscription forwarding computed a bogus next hop.
    pub fn register_remote(&mut self, subscription: Subscription, toward: BrokerId) {
        assert!(
            self.neighbors.contains(&toward),
            "{}: {toward} is not a neighbor",
            self.id
        );
        self.table.add_remote(subscription, toward);
    }

    /// Removes a subscription from this broker's routing table.
    pub fn unregister(&mut self, id: SubscriptionId) -> Option<Subscription> {
        self.table.remove(id)
    }

    /// Installs a (pruned) tree for a remote entry. Returns `false` if the
    /// subscription is not a remote entry of this broker.
    pub fn install_remote_tree(&mut self, id: SubscriptionId, tree: SubscriptionTree) -> bool {
        self.table.install_remote_tree(id, tree)
    }

    /// The current remote entries of this broker (the candidates for
    /// pruning).
    pub fn remote_subscriptions(&self) -> Vec<Subscription> {
        self.table.remote_subscriptions()
    }

    /// The local-client entries of this broker.
    pub fn local_subscriptions(&self) -> Vec<Subscription> {
        self.table.local_subscriptions()
    }

    /// Returns `true` if the link to `neighbor` completed the
    /// [`Hello`](WireMessage::Hello)/[`Ack`](WireMessage::Ack) handshake.
    pub fn link_ready(&self, neighbor: BrokerId) -> bool {
        self.links_up.contains(&neighbor)
    }

    /// Processes one wire message — the broker's public ingress.
    ///
    /// `from` is the neighbor the message arrived from (`None` when a local
    /// client of this broker injected it). The returned
    /// [`MessageHandling`] carries the local-subscriber deliveries the
    /// message caused plus every response message, addressed by neighbor,
    /// that the caller must encode and put on the wire:
    ///
    /// * [`Hello`](WireMessage::Hello) marks the link up and answers with an
    ///   [`Ack`](WireMessage::Ack); an `Ack` marks the link up silently;
    /// * [`Subscribe`](WireMessage::Subscribe) registers a local entry
    ///   (client origin) or a remote entry pointing back over the arrival
    ///   link (the next hop towards the subscriber's home broker), then
    ///   floods the subscription to every *other* neighbor — subscription
    ///   forwarding over the acyclic topology;
    /// * [`Unsubscribe`](WireMessage::Unsubscribe) removes the entry and
    ///   propagates the removal the same way;
    /// * [`PublishBatch`](WireMessage::PublishBatch) matches the whole batch
    ///   once against the local and per-neighbor engines, reports the local
    ///   deliveries, and emits one regrouped `PublishBatch` per neighbor
    ///   that needs event copies (never back over the arrival link).
    pub fn handle_message(
        &mut self,
        message: &WireMessage,
        from: Option<BrokerId>,
    ) -> MessageHandling {
        let mut handling = MessageHandling::default();
        self.handle_message_into(message, from, &mut handling);
        handling
    }

    /// Like [`handle_message`](Self::handle_message), but refills a
    /// caller-provided [`MessageHandling`] (replacing its contents). The
    /// previous call's outgoing `PublishBatch` bodies are recycled into this
    /// broker's batch pool, so steady-state hop handling reuses its batch
    /// allocations.
    pub fn handle_message_into(
        &mut self,
        message: &WireMessage,
        from: Option<BrokerId>,
        handling: &mut MessageHandling,
    ) {
        handling.deliveries.clear();
        for (_, message) in handling.outgoing.drain(..) {
            if let WireMessage::PublishBatch { mut events } = message {
                if self.batch_pool.len() < 8 {
                    events.clear();
                    self.batch_pool.push(events);
                }
            }
        }
        // Frames claiming to arrive over a link this broker does not have
        // (a misrouted or hostile peer on a real transport) are dropped
        // wholesale — the broker must never panic on ingress.
        if let Some(from) = from {
            if !self.neighbors.contains(&from) {
                return;
            }
        }
        match message {
            WireMessage::Hello { broker } => {
                if self.neighbors.contains(broker) {
                    if !self.links_up.contains(broker) {
                        self.links_up.push(*broker);
                    }
                    handling
                        .outgoing
                        .push((*broker, WireMessage::Ack { broker: self.id }));
                }
            }
            WireMessage::Ack { broker } => {
                if self.neighbors.contains(broker) && !self.links_up.contains(broker) {
                    self.links_up.push(*broker);
                }
            }
            WireMessage::Subscribe { subscription } => {
                let analyze = self.table.engine_config().analyze.is_on();
                let subscription = if analyze {
                    let (normalized, report) = Analyzer::new().analyze_subscription(subscription);
                    match normalized {
                        Some(normalized) => {
                            if report.changed {
                                self.analysis.subs_simplified += 1;
                                self.analysis.nodes_eliminated += report.nodes_eliminated() as u64;
                            }
                            normalized
                        }
                        None => {
                            // Unsatisfiable: counted, diagnosable through
                            // the analysis stats, never indexed, never
                            // flooded. Replacing an existing id with an
                            // unsatisfiable body acts like an unsubscribe.
                            self.analysis.unsatisfiable_rejected += 1;
                            let id = subscription.id();
                            if self.unregister(id).is_some() {
                                self.release_suppression(id, handling);
                                if let Some(journal) = self.journal.as_mut() {
                                    journal.append_unsubscribe(id, from);
                                }
                                for neighbor in &self.neighbors {
                                    if Some(*neighbor) != from {
                                        handling
                                            .outgoing
                                            .push((*neighbor, WireMessage::Unsubscribe { id }));
                                    }
                                }
                                self.maybe_compact();
                            }
                            return;
                        }
                    }
                } else {
                    subscription.clone()
                };
                let id = subscription.id();
                let replaced = self.table.subscription(id).is_some();
                match from {
                    Some(toward) => self.register_remote(subscription.clone(), toward),
                    None => self.register_local(subscription.clone()),
                }
                if replaced {
                    // The superseded body's suppression records — in either
                    // role — are stale; blocked peers get re-evaluated.
                    self.release_suppression(id, handling);
                }
                if let Some(journal) = self.journal.as_mut() {
                    // The *normalized* body is what's persisted: replay goes
                    // through this same ingress, so the analyzer's normal
                    // form is a fixed point.
                    journal.append_subscribe(&subscription, from);
                }
                self.flood(&subscription, from, handling);
                self.maybe_compact();
            }
            WireMessage::Unsubscribe { id } => {
                if self.unregister(*id).is_some() {
                    self.release_suppression(*id, handling);
                    if let Some(journal) = self.journal.as_mut() {
                        journal.append_unsubscribe(*id, from);
                    }
                    for neighbor in &self.neighbors {
                        if Some(*neighbor) != from {
                            handling
                                .outgoing
                                .push((*neighbor, WireMessage::Unsubscribe { id: *id }));
                        }
                    }
                    self.maybe_compact();
                }
            }
            WireMessage::PublishBatch { events } => {
                self.table
                    .match_local_batch(events, &mut handling.deliveries);
                let mut forward = std::mem::take(&mut self.forward_scratch);
                self.table.forward_batch(events, from, &mut forward);
                // One regrouped sub-batch per neighbor that matched at least
                // one event, in ascending neighbor order (`forward` buckets
                // are already ascending per event).
                for neighbor in &self.neighbors {
                    if Some(*neighbor) == from {
                        continue;
                    }
                    let mut out_batch: Option<EventBatch> = None;
                    for (index, neighbors) in forward.iter().enumerate() {
                        if neighbors.contains(neighbor) {
                            out_batch
                                .get_or_insert_with(|| {
                                    let mut b = self.batch_pool.pop().unwrap_or_default();
                                    b.clear();
                                    b
                                })
                                .push_from(events, index);
                        }
                    }
                    if let Some(events) = out_batch {
                        handling
                            .outgoing
                            .push((*neighbor, WireMessage::PublishBatch { events }));
                    }
                }
                self.forward_scratch = forward;
            }
            WireMessage::SyncRequest { broker } => {
                // A restarted neighbor asking to re-learn its routing state.
                // Reply with every subscription this broker would have
                // flooded toward it: all local-client entries plus every
                // remote entry whose next hop is NOT the requester (entries
                // pointing at the requester describe *its* side of the tree
                // and would create a routing loop if reflected back).
                let Some(from) = from else {
                    return;
                };
                if *broker != from {
                    return;
                }
                let mut subscriptions = self.table.local_subscriptions();
                subscriptions.extend(
                    self.table
                        .remote_subscriptions()
                        .into_iter()
                        .filter(|sub| self.table.remote_destination(sub.id()) != Some(from)),
                );
                // Entries whose flood was suppressed toward the requester
                // stay suppressed in the snapshot too: their subsuming
                // subscription is in the reply (a blocker never points
                // toward the requester and is never itself suppressed), so
                // the requester re-learns exactly the state it would hold
                // had it never crashed.
                if let Some(records) = self.suppressed.get(&from) {
                    subscriptions.retain(|sub| !records.contains_key(&sub.id()));
                }
                subscriptions.sort_by_key(Subscription::id);
                handling
                    .outgoing
                    .push((from, WireMessage::SyncState { subscriptions }));
            }
            WireMessage::SyncState { subscriptions } => {
                // Recovery state from a neighbor: install each entry as a
                // remote subscription routed back over the arrival link.
                //
                // Entries this broker did NOT already hold are then flooded
                // onward exactly like a fresh `Subscribe`. That looks
                // redundant — a restarted broker asks every neighbor itself —
                // but it is what makes recovery *epidemic*: when several
                // adjacent brokers restart with damaged logs, a neighbor may
                // have answered this broker's own `SyncRequest` before that
                // neighbor was itself repaired, and the requester never asks
                // twice. Re-learned entries propagating hop by hop close
                // exactly that gap, while already-known entries stay quiet so
                // a routine single-broker restart does not ripple through the
                // network.
                let Some(from) = from else {
                    return;
                };
                for subscription in subscriptions {
                    let id = subscription.id();
                    let replaced = self.table.subscription(id).is_some();
                    self.register_remote(subscription.clone(), from);
                    if replaced {
                        self.release_suppression(id, handling);
                    }
                    if let Some(journal) = self.journal.as_mut() {
                        // Sync-installed state is journaled too, so a broker
                        // that crashes *again* before any neighbor survives
                        // still recovers the reconciled table from its log.
                        journal.append_subscribe(subscription, Some(from));
                    }
                    if replaced {
                        continue;
                    }
                    self.flood(subscription, Some(from), handling);
                }
                self.maybe_compact();
            }
        }
    }

    /// Processes one event: matches it against the routing table and reports
    /// local deliveries plus the neighbors that need a copy.
    ///
    /// `from` is the neighbor the event arrived from (`None` when the event
    /// was published by a local client); it is excluded from forwarding.
    /// Internal helper behind the [`handle_message`](Self::handle_message)
    /// ingress.
    #[cfg(test)]
    pub(crate) fn handle_event(
        &mut self,
        event: &EventMessage,
        from: Option<BrokerId>,
    ) -> EventHandling {
        EventHandling {
            deliveries: self.table.match_local(event),
            forward_to: self.table.neighbors_to_forward(event, from),
        }
    }

    /// Processes a whole batch of events that arrived over one link: each
    /// local and per-neighbor engine is driven once for the entire batch.
    /// Internal helper behind the [`handle_message`](Self::handle_message)
    /// ingress.
    #[cfg(test)]
    pub(crate) fn handle_batch(
        &mut self,
        batch: &EventBatch,
        from: Option<BrokerId>,
    ) -> BatchHandling {
        let mut handling = BatchHandling::default();
        self.handle_batch_into(batch, from, &mut handling);
        handling
    }

    /// Like `handle_batch`, but refills a caller-provided [`BatchHandling`]
    /// (replacing its contents) so the delivery and forwarding buffers are
    /// reused hop after hop. Internal helper behind
    /// [`handle_message`](Self::handle_message).
    #[cfg(test)]
    pub(crate) fn handle_batch_into(
        &mut self,
        batch: &EventBatch,
        from: Option<BrokerId>,
        handling: &mut BatchHandling,
    ) {
        self.table
            .match_local_batch(batch, &mut handling.deliveries);
        self.table
            .forward_batch(batch, from, &mut handling.forward_to);
    }

    /// Memory accounting of this broker's routing table.
    pub fn memory_report(&self) -> RoutingMemoryReport {
        self.table.memory_report()
    }

    /// Merged filtering statistics of this broker's engines.
    pub fn filter_stats(&self) -> FilterStats {
        self.table.filter_stats()
    }

    /// Resets this broker's filtering statistics.
    pub fn reset_filter_stats(&mut self) {
        self.table.reset_filter_stats()
    }

    /// Direct access to the routing table (used by tests and advanced
    /// experiment setups).
    pub fn routing_table(&self) -> &RoutingTable {
        &self.table
    }

    /// Registration-time analysis counters of this broker (simplifications,
    /// unsatisfiable rejections, suppressed and re-issued floods).
    pub fn analysis_stats(&self) -> AnalysisStats {
        self.analysis
    }

    /// Number of `Subscribe` floods currently suppressed toward `neighbor`.
    pub fn suppressed_toward(&self, neighbor: BrokerId) -> usize {
        self.suppressed.get(&neighbor).map_or(0, BTreeMap::len)
    }

    /// Floods the (normalized) subscription to every neighbor but `from`,
    /// except where an already-propagated subscription subsumes it — those
    /// links already receive every event this subscription needs.
    fn flood(
        &mut self,
        subscription: &Subscription,
        from: Option<BrokerId>,
        handling: &mut MessageHandling,
    ) {
        let analyze = self.table.engine_config().analyze.is_on();
        // Prepared for the first neighbor that needs it: a broker with
        // nobody to flood to pays nothing.
        let mut query = None;
        for i in 0..self.neighbors.len() {
            let neighbor = self.neighbors[i];
            if Some(neighbor) == from {
                continue;
            }
            if analyze {
                let query = query.get_or_insert_with(|| SubsumptionQuery::new(subscription));
                if let Some(blocker) = self.find_blocker(neighbor, query) {
                    self.analysis.subsumed_not_flooded += 1;
                    self.suppressed
                        .entry(neighbor)
                        .or_default()
                        .insert(subscription.id(), blocker);
                    continue;
                }
            }
            handling.outgoing.push((
                neighbor,
                WireMessage::Subscribe {
                    subscription: subscription.clone(),
                },
            ));
        }
    }

    /// Finds the registered subscription that makes flooding the query's
    /// subscription toward `neighbor` redundant:
    /// [`RoutingTable::subsumer`], skipping the entries whose own flood
    /// toward `neighbor` is suppressed.
    fn find_blocker(
        &mut self,
        neighbor: BrokerId,
        query: &SubsumptionQuery,
    ) -> Option<SubscriptionId> {
        let suppressed = self.suppressed.get(&neighbor);
        self.table.subsumer(query, neighbor, |id| {
            suppressed.is_some_and(|records| records.contains_key(&id))
        })
    }

    /// Clears every flood-suppression record involving `id` after its body
    /// was removed or replaced. Records where `id` was the *blocker* are
    /// re-evaluated: each blocked subscription either finds another
    /// subsumer or its `Subscribe` is re-issued toward the neighbor, so
    /// routing completeness is preserved.
    fn release_suppression(&mut self, id: SubscriptionId, handling: &mut MessageHandling) {
        let mut orphaned: Vec<(BrokerId, SubscriptionId)> = Vec::new();
        for (neighbor, records) in &mut self.suppressed {
            records.remove(&id);
            records.retain(|blocked, blocker| {
                if *blocker != id {
                    return true;
                }
                orphaned.push((*neighbor, *blocked));
                false
            });
        }
        self.suppressed.retain(|_, records| !records.is_empty());
        for (neighbor, blocked) in orphaned {
            let Some(subscription) = self.table.subscription(blocked).cloned() else {
                continue;
            };
            match self.find_blocker(neighbor, &SubsumptionQuery::new(&subscription)) {
                Some(blocker) => {
                    self.suppressed
                        .entry(neighbor)
                        .or_default()
                        .insert(blocked, blocker);
                }
                None => {
                    self.analysis.reflooded += 1;
                    handling
                        .outgoing
                        .push((neighbor, WireMessage::Subscribe { subscription }));
                }
            }
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

    fn broker() -> Broker {
        Broker::new(b(1), vec![b(0), b(2)])
    }

    fn books_event() -> EventMessage {
        EventMessage::builder()
            .attr("category", "books")
            .attr("price", 9i64)
            .build()
    }

    #[test]
    fn identity_and_neighbors() {
        let broker = broker();
        assert_eq!(broker.id(), b(1));
        assert_eq!(broker.neighbors(), &[b(0), b(2)]);
    }

    #[test]
    fn local_delivery_and_forwarding() {
        let mut broker = broker();
        broker.register_local(sub(1, 11, &Expr::eq("category", "books")));
        broker.register_remote(sub(2, 22, &Expr::eq("category", "books")), b(0));
        broker.register_remote(sub(3, 33, &Expr::eq("category", "music")), b(2));

        let handling = broker.handle_event(&books_event(), None);
        assert_eq!(
            handling.deliveries,
            vec![(SubscriberId::from_raw(11), SubscriptionId::from_raw(1))]
        );
        assert_eq!(handling.forward_to, vec![b(0)]);

        // An event arriving from broker 0 is not forwarded back there.
        let handling = broker.handle_event(&books_event(), Some(b(0)));
        assert!(handling.forward_to.is_empty());
        assert_eq!(handling.deliveries.len(), 1);
    }

    #[test]
    fn batch_handling_agrees_with_per_event_handling() {
        let mut broker = broker();
        broker.register_local(sub(1, 11, &Expr::eq("category", "books")));
        broker.register_remote(sub(2, 22, &Expr::eq("category", "books")), b(0));
        broker.register_remote(sub(3, 33, &Expr::le("price", 5i64)), b(2));

        let events = [
            books_event(),
            EventMessage::builder()
                .attr("category", "music")
                .attr("price", 3i64)
                .build(),
        ];
        let batch: EventBatch = events.iter().cloned().collect();
        let handling = broker.handle_batch(&batch, Some(b(0)));
        assert_eq!(handling.forward_to.len(), 2);
        for (i, event) in events.iter().enumerate() {
            let single = broker.handle_event(event, Some(b(0)));
            let batch_deliveries: Vec<(SubscriberId, SubscriptionId)> = handling
                .deliveries
                .iter()
                .filter(|(e, _, _)| *e == i)
                .map(|&(_, subscriber, id)| (subscriber, id))
                .collect();
            assert_eq!(batch_deliveries, single.deliveries, "event {i}");
            assert_eq!(handling.forward_to[i], single.forward_to, "event {i}");
        }
    }

    #[test]
    fn hello_marks_the_link_up_and_acks() {
        let mut broker = broker();
        assert!(!broker.link_ready(b(0)));
        let handling = broker.handle_message(&WireMessage::Hello { broker: b(0) }, Some(b(0)));
        assert!(broker.link_ready(b(0)));
        assert_eq!(
            handling.outgoing,
            vec![(b(0), WireMessage::Ack { broker: b(1) })]
        );
        assert!(handling.deliveries.is_empty());
        // An Ack marks the link up silently.
        let handling = broker.handle_message(&WireMessage::Ack { broker: b(2) }, Some(b(2)));
        assert!(broker.link_ready(b(2)));
        assert!(handling.outgoing.is_empty());
        // A Hello from a non-neighbor is ignored.
        let handling = broker.handle_message(&WireMessage::Hello { broker: b(9) }, Some(b(9)));
        assert!(handling.outgoing.is_empty());
        assert!(!broker.link_ready(b(9)));
    }

    #[test]
    fn subscribe_messages_register_and_flood() {
        let mut broker = broker();
        // From a local client: a local entry, flooded to every neighbor.
        let local = sub(1, 11, &Expr::eq("category", "books"));
        let handling = broker.handle_message(
            &WireMessage::Subscribe {
                subscription: local.clone(),
            },
            None,
        );
        assert_eq!(broker.local_subscriptions().len(), 1);
        let targets: Vec<BrokerId> = handling.outgoing.iter().map(|(to, _)| *to).collect();
        assert_eq!(targets, vec![b(0), b(2)]);
        // From a neighbor: a remote entry pointing back over the arrival
        // link, flooded everywhere else.
        let remote = sub(2, 22, &Expr::eq("category", "music"));
        let handling = broker.handle_message(
            &WireMessage::Subscribe {
                subscription: remote,
            },
            Some(b(0)),
        );
        assert_eq!(
            broker
                .routing_table()
                .remote_destination(SubscriptionId::from_raw(2)),
            Some(b(0))
        );
        let targets: Vec<BrokerId> = handling.outgoing.iter().map(|(to, _)| *to).collect();
        assert_eq!(targets, vec![b(2)]);
        // Unsubscribe removes and propagates; a second one is a no-op.
        let handling =
            broker.handle_message(&WireMessage::Unsubscribe { id: local.id() }, Some(b(2)));
        assert_eq!(handling.outgoing.len(), 1);
        assert!(broker.local_subscriptions().is_empty());
        let handling =
            broker.handle_message(&WireMessage::Unsubscribe { id: local.id() }, Some(b(2)));
        assert!(handling.outgoing.is_empty());
    }

    #[test]
    fn subscribe_for_a_known_id_over_another_link_rehomes_the_entry() {
        let mut broker = broker();
        let subscription = sub(1, 11, &Expr::eq("category", "books"));
        let subscribe = WireMessage::Subscribe { subscription };
        let publish = WireMessage::PublishBatch {
            events: std::iter::once(books_event()).collect(),
        };
        let forwarded_to = |broker: &mut Broker| -> Vec<BrokerId> {
            let handling = broker.handle_message(&publish, None);
            handling.outgoing.iter().map(|(to, _)| *to).collect()
        };
        broker.handle_message(&subscribe, Some(b(0)));
        assert_eq!(forwarded_to(&mut broker), [b(0)]);
        // The subscriber moved: the same id now arrives over the other link.
        broker.handle_message(&subscribe, Some(b(2)));
        assert_eq!(broker.remote_subscriptions().len(), 1);
        assert_eq!(broker.memory_report().remote_subscriptions, 1);
        assert_eq!(forwarded_to(&mut broker), [b(2)]);
        // One Unsubscribe ends all forwarding for it.
        let id = SubscriptionId::from_raw(1);
        broker.handle_message(&WireMessage::Unsubscribe { id }, Some(b(2)));
        assert!(forwarded_to(&mut broker).is_empty());
        assert_eq!(broker.memory_report().remote_subscriptions, 0);
    }

    #[test]
    fn publish_batch_messages_agree_with_batch_handling() {
        let mut broker = broker();
        broker.register_local(sub(1, 11, &Expr::eq("category", "books")));
        broker.register_remote(sub(2, 22, &Expr::eq("category", "books")), b(0));
        broker.register_remote(sub(3, 33, &Expr::le("price", 5i64)), b(2));

        let events = [
            books_event(),
            EventMessage::builder()
                .attr("category", "music")
                .attr("price", 3i64)
                .build(),
        ];
        let batch: EventBatch = events.iter().cloned().collect();
        let reference = broker.handle_batch(&batch, None);
        let handling = broker.handle_message(
            &WireMessage::PublishBatch {
                events: batch.clone(),
            },
            None,
        );
        assert_eq!(handling.deliveries, reference.deliveries);
        // The per-event forwarding sets regroup into one sub-batch per
        // neighbor, in ascending neighbor order.
        let mut expected: Vec<(BrokerId, Vec<usize>)> = Vec::new();
        for (i, neighbors) in reference.forward_to.iter().enumerate() {
            for n in neighbors {
                match expected.iter_mut().find(|(to, _)| to == n) {
                    Some((_, idx)) => idx.push(i),
                    None => expected.push((*n, vec![i])),
                }
            }
        }
        expected.sort_by_key(|(to, _)| *to);
        assert_eq!(handling.outgoing.len(), expected.len());
        for ((to, message), (expected_to, indexes)) in handling.outgoing.iter().zip(&expected) {
            assert_eq!(to, expected_to);
            let WireMessage::PublishBatch { events } = message else {
                panic!("expected a PublishBatch, got {message:?}");
            };
            assert_eq!(events.len(), indexes.len());
            for (got, &source) in events.events().iter().zip(indexes) {
                assert_eq!(got, &batch.events()[source]);
            }
        }
        // The arrival link is excluded from forwarding.
        let handling = broker.handle_message(
            &WireMessage::PublishBatch {
                events: batch.clone(),
            },
            Some(b(0)),
        );
        assert!(handling.outgoing.iter().all(|(to, _)| *to != b(0)));
    }

    #[test]
    fn frames_from_non_neighbors_are_dropped_not_panicked() {
        // handle_message is the public ingress behind arbitrary transports:
        // a misrouted frame claiming to come over a link this broker does
        // not have must be ignored, never panic.
        let mut broker = broker(); // neighbors 0 and 2
        let stranger = Some(b(9));
        let handling = broker.handle_message(
            &WireMessage::Subscribe {
                subscription: sub(1, 11, &Expr::eq("category", "books")),
            },
            stranger,
        );
        assert!(handling.outgoing.is_empty());
        assert!(broker.remote_subscriptions().is_empty());
        let handling = broker.handle_message(
            &WireMessage::PublishBatch {
                events: std::iter::once(books_event()).collect(),
            },
            stranger,
        );
        assert!(handling.deliveries.is_empty());
        assert!(handling.outgoing.is_empty());
        let handling = broker.handle_message(
            &WireMessage::Unsubscribe {
                id: sub(1, 11, &Expr::eq("a", 1i64)).id(),
            },
            stranger,
        );
        assert!(handling.outgoing.is_empty());
    }

    #[test]
    fn reused_message_handling_recycles_outgoing_batches() {
        let mut broker = broker();
        broker.register_remote(sub(1, 11, &Expr::eq("category", "books")), b(0));
        let batch: EventBatch = std::iter::once(books_event()).collect();
        let message = WireMessage::PublishBatch {
            events: batch.clone(),
        };
        let mut handling = MessageHandling::new();
        // Warm up, then drive the same message repeatedly through the same
        // handling buffer: the outgoing batch bodies must come back out of
        // the broker's pool instead of being reallocated.
        for _ in 0..3 {
            broker.handle_message_into(&message, None, &mut handling);
        }
        let capacities: Vec<usize> = handling
            .outgoing
            .iter()
            .map(|(_, m)| match m {
                WireMessage::PublishBatch { events } => events.capacity(),
                _ => 0,
            })
            .collect();
        for _ in 0..5 {
            broker.handle_message_into(&message, None, &mut handling);
            let now: Vec<usize> = handling
                .outgoing
                .iter()
                .map(|(_, m)| match m {
                    WireMessage::PublishBatch { events } => events.capacity(),
                    _ => 0,
                })
                .collect();
            assert_eq!(now, capacities, "outgoing batch reallocated");
        }
    }

    #[test]
    #[should_panic(expected = "not a neighbor")]
    fn remote_registration_requires_a_neighbor() {
        let mut broker = broker();
        broker.register_remote(sub(1, 1, &Expr::eq("a", 1i64)), b(7));
    }

    #[test]
    fn pruned_remote_entry_changes_forwarding() {
        let mut broker = broker();
        broker.register_remote(
            sub(
                1,
                11,
                &Expr::and(vec![Expr::eq("category", "books"), Expr::le("price", 5i64)]),
            ),
            b(2),
        );
        assert!(broker
            .handle_event(&books_event(), None)
            .forward_to
            .is_empty());
        assert!(broker.install_remote_tree(
            SubscriptionId::from_raw(1),
            SubscriptionTree::from_expr(&Expr::eq("category", "books")),
        ));
        assert_eq!(
            broker.handle_event(&books_event(), None).forward_to,
            vec![b(2)]
        );
        // Local entries cannot be replaced through this API.
        broker.register_local(sub(5, 55, &Expr::eq("x", 1i64)));
        assert!(!broker.install_remote_tree(
            SubscriptionId::from_raw(5),
            SubscriptionTree::from_expr(&Expr::eq("x", 2i64)),
        ));
    }

    #[test]
    fn unregister_and_listings() {
        let mut broker = broker();
        broker.register_local(sub(1, 11, &Expr::eq("a", 1i64)));
        broker.register_remote(sub(2, 22, &Expr::eq("b", 1i64)), b(0));
        assert_eq!(broker.local_subscriptions().len(), 1);
        assert_eq!(broker.remote_subscriptions().len(), 1);
        assert!(broker.unregister(SubscriptionId::from_raw(2)).is_some());
        assert!(broker.remote_subscriptions().is_empty());
    }

    #[test]
    fn stats_and_memory_reports() {
        let mut broker = broker();
        broker.register_local(sub(1, 11, &Expr::eq("category", "books")));
        broker.register_remote(sub(2, 22, &Expr::eq("category", "books")), b(0));
        let _ = broker.handle_event(&books_event(), None);
        assert!(broker.filter_stats().events_filtered > 0);
        broker.reset_filter_stats();
        assert_eq!(broker.filter_stats().events_filtered, 0);
        let memory = broker.memory_report();
        assert_eq!(memory.local_subscriptions, 1);
        assert_eq!(memory.remote_subscriptions, 1);
        assert_eq!(broker.routing_table().local_len(), 1);
    }

    #[test]
    fn sync_request_reports_everything_except_the_requesters_side() {
        // Broker 1 (neighbors 0 and 2) holds: a local client sub, a remote
        // sub routed toward 0, and a remote sub routed toward 2. A restarted
        // broker 0 asking for sync state must get the local sub and the one
        // routed toward 2 — but never the one routed toward itself.
        let mut broker = broker();
        broker.register_local(sub(1, 10, &Expr::eq("category", "books")));
        broker.register_remote(sub(2, 20, &Expr::eq("category", "music")), b(0));
        broker.register_remote(sub(3, 30, &Expr::eq("category", "tools")), b(2));

        let handling =
            broker.handle_message(&WireMessage::SyncRequest { broker: b(0) }, Some(b(0)));
        assert!(handling.deliveries.is_empty());
        assert_eq!(handling.outgoing.len(), 1);
        let (to, message) = &handling.outgoing[0];
        assert_eq!(*to, b(0));
        let WireMessage::SyncState { subscriptions } = message else {
            panic!("expected SyncState, got {message:?}");
        };
        let ids: Vec<u64> = subscriptions.iter().map(|s| s.id().raw()).collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn sync_request_with_mismatched_origin_is_dropped() {
        // A SyncRequest naming a broker other than the sender smells like a
        // routing error; it must not leak another link's state.
        let mut broker = broker();
        broker.register_local(sub(1, 10, &Expr::eq("category", "books")));
        let handling =
            broker.handle_message(&WireMessage::SyncRequest { broker: b(2) }, Some(b(0)));
        assert!(handling.outgoing.is_empty());
        // Client-injected sync requests are equally meaningless.
        let handling = broker.handle_message(&WireMessage::SyncRequest { broker: b(1) }, None);
        assert!(handling.outgoing.is_empty());
    }

    #[test]
    fn sync_state_floods_new_entries_and_stays_quiet_on_known_ones() {
        let mut broker = broker();
        let handling = broker.handle_message(
            &WireMessage::SyncState {
                subscriptions: vec![
                    sub(7, 70, &Expr::eq("category", "books")),
                    sub(8, 80, &Expr::eq("category", "music")),
                ],
            },
            Some(b(2)),
        );
        // Entries this broker did not hold are flooded onward (epidemic
        // repair for multi-broker outages), but never back to the sender.
        assert_eq!(handling.outgoing.len(), 2);
        for (to, message) in &handling.outgoing {
            assert_eq!(*to, b(0));
            assert!(matches!(message, WireMessage::Subscribe { .. }));
        }
        let remote = broker.remote_subscriptions();
        assert_eq!(remote.len(), 2);
        assert_eq!(
            broker
                .routing_table()
                .remote_destination(SubscriptionId::from_raw(7)),
            Some(b(2))
        );
        // Re-delivering the same state is idempotent AND quiet: known
        // entries were already propagated, so a routine single-broker
        // restart does not ripple through the network.
        let handling = broker.handle_message(
            &WireMessage::SyncState {
                subscriptions: vec![sub(7, 70, &Expr::eq("category", "books"))],
            },
            Some(b(2)),
        );
        assert!(handling.outgoing.is_empty());
        assert_eq!(broker.remote_subscriptions().len(), 2);
    }

    #[test]
    fn unsatisfiable_subscribe_is_rejected_and_never_flooded() {
        let mut broker = broker();
        let unsat = sub(
            1,
            11,
            &Expr::and(vec![Expr::gt("price", 5i64), Expr::lt("price", 3i64)]),
        );
        let handling = broker.handle_message(
            &WireMessage::Subscribe {
                subscription: unsat,
            },
            None,
        );
        assert!(
            handling.outgoing.is_empty(),
            "unsatisfiable sub was flooded"
        );
        assert!(broker.local_subscriptions().is_empty());
        assert_eq!(broker.analysis_stats().unsatisfiable_rejected, 1);
        // It never reached an engine, so the engine-level counter is silent.
        assert_eq!(broker.filter_stats().unsatisfiable_rejected, 0);
    }

    #[test]
    fn subscribe_flood_carries_the_normalized_tree() {
        let mut broker = broker();
        let redundant = sub(
            1,
            11,
            &Expr::and(vec![
                Expr::gt("price", 1i64),
                Expr::gt("price", 1i64),
                Expr::gt("price", 3i64),
            ]),
        );
        let handling = broker.handle_message(
            &WireMessage::Subscribe {
                subscription: redundant.clone(),
            },
            None,
        );
        assert_eq!(broker.analysis_stats().subs_simplified, 1);
        assert!(broker.analysis_stats().nodes_eliminated >= 2);
        // The engines receive the already-normal tree: no double counting.
        assert_eq!(broker.filter_stats().subs_simplified, 0);
        assert_eq!(handling.outgoing.len(), 2);
        for (_, message) in &handling.outgoing {
            let WireMessage::Subscribe { subscription } = message else {
                panic!("expected a Subscribe, got {message:?}");
            };
            assert!(
                subscription.tree().node_count() < redundant.tree().node_count(),
                "flooded tree was not normalized"
            );
        }
    }

    #[test]
    fn subsumed_subscriptions_are_not_flooded_and_reflood_on_unsubscribe() {
        let mut broker = broker(); // neighbors 0 and 2
        let general = sub(1, 11, &Expr::eq("category", "books"));
        let specific = sub(
            2,
            22,
            &Expr::and(vec![
                Expr::eq("category", "books"),
                Expr::le("price", 10i64),
            ]),
        );
        let handling = broker.handle_message(
            &WireMessage::Subscribe {
                subscription: general.clone(),
            },
            None,
        );
        assert_eq!(handling.outgoing.len(), 2);
        let handling = broker.handle_message(
            &WireMessage::Subscribe {
                subscription: specific.clone(),
            },
            None,
        );
        assert!(handling.outgoing.is_empty(), "subsumed sub was flooded");
        assert_eq!(broker.analysis_stats().subsumed_not_flooded, 2);
        assert_eq!(broker.suppressed_toward(b(0)), 1);
        assert_eq!(broker.suppressed_toward(b(2)), 1);
        // The suppressed subscription is fully registered locally.
        let event_handling = broker.handle_event(&books_event(), None);
        assert_eq!(event_handling.deliveries.len(), 2);

        // Removing the subsumer re-issues the blocked flood alongside the
        // unsubscribe propagation, so downstream routing stays complete.
        let handling = broker.handle_message(&WireMessage::Unsubscribe { id: general.id() }, None);
        assert_eq!(broker.analysis_stats().reflooded, 2);
        assert_eq!(broker.suppressed_toward(b(0)), 0);
        assert_eq!(broker.suppressed_toward(b(2)), 0);
        let mut refloods = 0;
        let mut unsubscribes = 0;
        for (_, message) in &handling.outgoing {
            match message {
                WireMessage::Subscribe { subscription } => {
                    assert_eq!(subscription.id(), specific.id());
                    refloods += 1;
                }
                WireMessage::Unsubscribe { id } => {
                    assert_eq!(*id, general.id());
                    unsubscribes += 1;
                }
                other => panic!("unexpected outgoing message {other:?}"),
            }
        }
        assert_eq!(refloods, 2);
        assert_eq!(unsubscribes, 2);
    }

    #[test]
    fn suppression_ignores_entries_pointing_at_the_target_link() {
        let mut broker = broker();
        // The general subscription arrives over the link to 0: it becomes a
        // remote entry *toward* 0 and is flooded to 2 only.
        let general = sub(1, 11, &Expr::eq("category", "books"));
        let handling = broker.handle_message(
            &WireMessage::Subscribe {
                subscription: general,
            },
            Some(b(0)),
        );
        let targets: Vec<BrokerId> = handling.outgoing.iter().map(|(to, _)| *to).collect();
        assert_eq!(targets, vec![b(2)]);
        // A more specific local subscription: toward 2 the general one was
        // propagated, so the flood is redundant; toward 0 the general entry
        // merely *points*, proving nothing about 0's side — it must flood.
        let specific = sub(
            2,
            22,
            &Expr::and(vec![
                Expr::eq("category", "books"),
                Expr::le("price", 10i64),
            ]),
        );
        let handling = broker.handle_message(
            &WireMessage::Subscribe {
                subscription: specific,
            },
            None,
        );
        let targets: Vec<BrokerId> = handling.outgoing.iter().map(|(to, _)| *to).collect();
        assert_eq!(targets, vec![b(0)]);
        assert_eq!(broker.analysis_stats().subsumed_not_flooded, 1);
        assert_eq!(broker.suppressed_toward(b(2)), 1);
        assert_eq!(broker.suppressed_toward(b(0)), 0);
    }

    #[test]
    fn a_pruned_entry_suppresses_no_flood() {
        let mut broker = broker();
        let cheap_books = Expr::and(vec![
            Expr::eq("category", "books"),
            Expr::le("price", 10i64),
        ]);
        // Arrives from 0, is flooded to 2 as it is, then pruned here.
        broker.handle_message(
            &WireMessage::Subscribe {
                subscription: sub(1, 11, &cheap_books),
            },
            Some(b(0)),
        );
        assert!(broker.install_remote_tree(
            SubscriptionId::from_raw(1),
            SubscriptionTree::from_expr(&Expr::eq("category", "books"))
        ));
        // The pruned tree subsumes this subscription, but broker 2 holds the
        // exact one, which does not: the flood must go out.
        let all_books_under_50 = Expr::and(vec![
            Expr::eq("category", "books"),
            Expr::le("price", 50i64),
        ]);
        let handling = broker.handle_message(
            &WireMessage::Subscribe {
                subscription: sub(2, 22, &all_books_under_50),
            },
            Some(b(0)),
        );
        let targets: Vec<BrokerId> = handling.outgoing.iter().map(|(to, _)| *to).collect();
        assert_eq!(targets, vec![b(2)]);
        assert_eq!(broker.suppressed_toward(b(2)), 0);
        // Registered again in its exact form, the entry blocks as before.
        broker.handle_message(
            &WireMessage::Subscribe {
                subscription: sub(1, 11, &Expr::eq("category", "books")),
            },
            Some(b(0)),
        );
        let handling = broker.handle_message(
            &WireMessage::Subscribe {
                subscription: sub(3, 33, &cheap_books),
            },
            Some(b(0)),
        );
        assert!(handling.outgoing.is_empty());
        assert_eq!(broker.suppressed_toward(b(2)), 1);
    }

    #[test]
    fn sync_reply_respects_suppression() {
        let mut broker = broker();
        let general = sub(1, 11, &Expr::eq("category", "books"));
        let specific = sub(
            2,
            22,
            &Expr::and(vec![
                Expr::eq("category", "books"),
                Expr::le("price", 10i64),
            ]),
        );
        broker.handle_message(
            &WireMessage::Subscribe {
                subscription: general,
            },
            None,
        );
        broker.handle_message(
            &WireMessage::Subscribe {
                subscription: specific,
            },
            None,
        );
        assert_eq!(broker.suppressed_toward(b(0)), 1);
        // A restarted neighbor 0 gets the blocker but not the blocked entry
        // — exactly what it would hold had it never crashed.
        let handling =
            broker.handle_message(&WireMessage::SyncRequest { broker: b(0) }, Some(b(0)));
        let (_, message) = &handling.outgoing[0];
        let WireMessage::SyncState { subscriptions } = message else {
            panic!("expected SyncState, got {message:?}");
        };
        let ids: Vec<u64> = subscriptions.iter().map(|s| s.id().raw()).collect();
        assert_eq!(ids, vec![1]);
    }

    #[test]
    fn analyze_off_restores_exact_flooding() {
        use filtering::AnalyzeMode;
        let mut broker = Broker::with_engine_config(
            b(1),
            vec![b(0), b(2)],
            EngineKind::Counting,
            EngineConfig::with_analyze(AnalyzeMode::Off),
        );
        broker.handle_message(
            &WireMessage::Subscribe {
                subscription: sub(1, 11, &Expr::eq("category", "books")),
            },
            None,
        );
        let specific = sub(
            2,
            22,
            &Expr::and(vec![
                Expr::eq("category", "books"),
                Expr::le("price", 10i64),
            ]),
        );
        let handling = broker.handle_message(
            &WireMessage::Subscribe {
                subscription: specific,
            },
            None,
        );
        assert_eq!(handling.outgoing.len(), 2, "analyze-off must flood");
        let unsat = sub(
            3,
            33,
            &Expr::and(vec![Expr::gt("price", 5i64), Expr::lt("price", 3i64)]),
        );
        let handling = broker.handle_message(
            &WireMessage::Subscribe {
                subscription: unsat,
            },
            None,
        );
        assert_eq!(handling.outgoing.len(), 2);
        assert_eq!(broker.analysis_stats(), AnalysisStats::default());
        assert_eq!(broker.local_subscriptions().len(), 3);
    }
}
