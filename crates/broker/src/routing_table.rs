//! Per-broker routing tables: local-client entries and per-neighbor remote
//! entries.
//!
//! # Forwarding decisions
//!
//! A remote entry is only a forwarding filter: the broker needs to know
//! *whether* any entry towards a neighbor matches an event, never *which* —
//! that is why the paper may prune those entries. So the table does not run
//! a neighbor's whole engine to learn that one bit. Per neighbor it keeps a
//! move-to-front list of at most [`MAX_WITNESSES`] **witnesses**: clones of
//! remote entries that recently matched. [`RoutingTable::forward_batch`]
//! evaluates the witnesses directly against each event's pairs in the batch
//! arena ([`SubscriptionTree::evaluate_pairs`]); the first hit decides
//! "forward". Only the
//! events no witness matched are copied into a pooled sub-batch and run
//! through the neighbor's engine, and the first entry the engine reports for
//! an event becomes the newest witness.
//!
//! **Exact.** A witness is a clone of what the engine currently indexes
//! under that id (its normalized, possibly pruned form), and every mutation
//! of the table — `add_local`, `add_remote`, `remove`, `install_remote_tree`
//! — goes through one `evict`, which drops the witness together with the
//! entry. A witness therefore never outlives or lags its entry: a hit means
//! the engine would have reported that very entry, and a miss falls through
//! to the engine itself. Forwarding decisions are those of the engines
//! alone, pruned trees included.
//!
//! **Break-even.** Measured at 1,000 of the paper's entries towards one
//! neighbor, in batches of 64, best of 7 on a 2-core x86-64 host, with the
//! stage-0 residuals that decide most matches without a tree walk: an
//! engine pass over events no entry matches costs ~1.3 µs per event, a
//! decision a witness answers ~0.4 µs (6.4 evaluations on average), and an
//! event that misses a full list pays all [`MAX_WITNESSES`] evaluations,
//! ~1.6 µs, on top of its engine pass. Taking the miss pass as the price of
//! a decision, the cache pays off once more than ~62 % of the events
//! reaching a link are forwarded over it; the pass it saves on a forwarded
//! event is dearer, ~2.3 µs (the engine enumerates every match), which
//! lowers that share to ~45 %. On the paper's 5-broker line 95 % are
//! forwarded, and 98.8 % of those hit a witness after 8.4 evaluations on
//! average. The list
//! only ever holds entries that did match, so a table whose entries never
//! match pays nothing — its batches go to the engine as they are. The
//! witnesses (at most 32 cloned trees per link) are not part of
//! [`RoutingTable::memory_report`].
//!
//! # Flood suppression
//!
//! [`RoutingTable::subsumer`] names the entry that makes flooding a new
//! subscription towards a neighbor redundant. It runs `implies` only on the
//! entries the [subsumption indexes](crate::subsumption) — one per origin,
//! maintained by the same `evict` — cannot rule out.

use crate::metrics::RoutingMemoryReport;
use crate::subsumption::{SubsumptionIndex, SubsumptionQuery};
use filtering::{
    AnyEngine, DiscriminationHint, EngineConfig, EngineKind, FilterStats, MatchSink, MatchingEngine,
};
use pubsub_core::analysis::implies;
use pubsub_core::{
    BrokerId, EventBatch, SubscriberId, Subscription, SubscriptionId, SubscriptionTree,
};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Upper bound on the witnesses kept per neighbor. A constant rather than a
/// setting: on the paper's workload 4 / 8 / 16 / 32 witnesses answered
/// 40 / 61 / 86 / 99 % of the forwardable link-events, and a longer list only
/// raises the price of a miss. The rates depend only on which entry an
/// engine reports first for an event (the lowest id), not on how it finds
/// it, so gating the engines' index left them unchanged.
const MAX_WITNESSES: usize = 32;

/// A [`MatchSink`] that only remembers the *first* entry each batch event
/// matched — whether an event matched at all is what the per-neighbor
/// forwarding decision needs, and that entry is its witness. Reused across
/// neighbors and batches, so batch routing allocates nothing in steady state.
#[derive(Debug, Default)]
struct AnyMatchSink {
    first: Vec<Option<SubscriptionId>>,
}

impl MatchSink for AnyMatchSink {
    fn begin_batch(&mut self, batch_len: usize) {
        self.first.clear();
        self.first.resize(batch_len, None);
    }

    fn on_match(&mut self, event_index: usize, sub: SubscriptionId, _subscriber: SubscriberId) {
        if let Some(first) = self.first.get_mut(event_index) {
            first.get_or_insert(sub);
        }
    }
}

/// A [`MatchSink`] that appends every local match to the caller's delivery
/// list as an `(event index, subscriber, subscription)` triple, in the
/// engine's emission order.
struct DeliverySink<'a>(&'a mut Vec<(usize, SubscriberId, SubscriptionId)>);

impl MatchSink for DeliverySink<'_> {
    fn on_match(&mut self, event_index: usize, sub: SubscriptionId, subscriber: SubscriberId) {
        self.0.push((event_index, subscriber, sub));
    }
}

/// The remote entries pointing towards one neighbor.
#[derive(Debug)]
struct Link {
    engine: AnyEngine,
    /// Clones of entries of `engine` that recently matched an event, most
    /// recent first; see the [module documentation](self).
    witnesses: Vec<Subscription>,
    /// The unpruned entries of `engine`, filed for
    /// [`RoutingTable::subsumer`]; built by the first lookup that may
    /// report an entry of this link.
    subsumers: Option<SubsumptionIndex>,
}

impl Link {
    /// Makes the entry registered under `id` the first witness.
    fn promote(&mut self, id: SubscriptionId) {
        match self.witnesses.iter().position(|w| w.id() == id) {
            Some(at) => self.witnesses[..=at].rotate_right(1),
            None => {
                if let Some(entry) = self.engine.get(id) {
                    self.witnesses.truncate(MAX_WITNESSES - 1);
                    self.witnesses.insert(0, entry.clone());
                }
            }
        }
    }
}

/// The routing table of one broker.
///
/// Subscription forwarding installs each subscription in two kinds of places:
///
/// * at the subscriber's **home broker** as a *local entry* — these are exact
///   and are never pruned (otherwise notifications could be lost);
/// * at every **other broker** as a *remote entry* pointing towards the
///   neighbor that leads to the home broker — these are the entries the
///   pruning optimization may generalize, because any false positive they
///   admit is post-filtered closer to (or at) the home broker.
///
/// Each destination is backed by its own matching engine (a `CountingEngine`
/// by default, or an `ATreeEngine` — see [`RoutingTable::with_engine`] and
/// [`EngineKind`]), so matching an
/// event against the routing table answers both "which local subscribers get
/// a notification" and "which neighbors need a copy of this event" — the
/// latter mostly from the per-neighbor witness cache described in the
/// `routing_table` module documentation.
#[derive(Debug, Default)]
pub struct RoutingTable {
    /// The engine kind new per-destination engines are built as.
    engine_kind: EngineKind,
    /// The staged-pipeline configuration every destination engine runs with
    /// (applied to lazily-built per-neighbor engines too).
    engine_config: EngineConfig,
    /// Selectivity hint handed to every destination engine, including ones
    /// built after the hint was installed.
    hint: Option<DiscriminationHint>,
    local: AnyEngine,
    /// The local entries, filed for [`subsumer`](Self::subsumer); built by
    /// the first lookup, so a broker that never floods keeps none.
    local_subsumers: Option<SubsumptionIndex>,
    per_neighbor: BTreeMap<BrokerId, Link>,
    /// Where each remote entry currently lives (subscription id → neighbor).
    remote_destination: BTreeMap<SubscriptionId, BrokerId>,
    /// Remote entries currently holding a tree installed by
    /// [`install_remote_tree`](Self::install_remote_tree) rather than the one
    /// they were registered (and flooded onward) with.
    pruned: BTreeSet<SubscriptionId>,
    /// Reusable per-event first matches for the per-neighbor forwarding
    /// decision.
    any_match: AnyMatchSink,
    /// Batch indexes of the events no witness of the current neighbor
    /// matched, and the pooled sub-batch they are copied into for its engine.
    undecided: Vec<usize>,
    undecided_batch: EventBatch,
    /// What the witness cache did: the forwarding decisions it answered
    /// (`witness_hits`, counted in `events_filtered` as well), the
    /// evaluations and the time it spent, and the batches it answered whole.
    /// Merged into [`filter_stats`](Self::filter_stats).
    witness_stats: FilterStats,
    /// Spare per-event forwarding buckets parked here when `forward_batch`
    /// shrinks its output to a smaller batch, so alternating hop sizes do
    /// not free and reallocate the nested buffers.
    forward_spares: Vec<Vec<BrokerId>>,
    /// Reusable candidate list of [`subsumer`](Self::subsumer).
    subsumer_scratch: Vec<SubscriptionId>,
}

impl RoutingTable {
    /// Creates an empty routing table backed by single-threaded
    /// [`EngineKind::Counting`] engines.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty routing table whose local and per-neighbor engines
    /// are built as the given [`EngineKind`] with the default pipeline
    /// configuration.
    pub fn with_engine(kind: EngineKind) -> Self {
        Self::with_engine_config(kind, EngineConfig::default())
    }

    /// Creates an empty routing table whose local and per-neighbor engines
    /// are built as the given [`EngineKind`], all running the given
    /// staged-pipeline configuration — including per-neighbor engines built
    /// lazily when the first remote entry towards that neighbor arrives.
    pub fn with_engine_config(kind: EngineKind, config: EngineConfig) -> Self {
        Self {
            engine_kind: kind,
            engine_config: config,
            local: kind.build_with_config(config),
            ..Self::default()
        }
    }

    /// The engine kind this table builds its destination engines as.
    pub fn engine_kind(&self) -> EngineKind {
        self.engine_kind
    }

    /// The staged-pipeline configuration this table's engines run with.
    pub fn engine_config(&self) -> EngineConfig {
        self.engine_config
    }

    /// Replaces the staged-pipeline configuration on every existing
    /// destination engine and for every engine built afterwards.
    pub fn set_engine_config(&mut self, config: EngineConfig) {
        self.engine_config = config;
        self.local.set_config(config);
        for link in self.per_neighbor.values_mut() {
            link.engine.set_config(config);
        }
    }

    /// Installs (or clears) the selectivity hint steering each engine's
    /// choice of access clauses. Every destination engine —
    /// current and future — receives its own copy.
    pub fn set_discrimination_hint(&mut self, hint: Option<DiscriminationHint>) {
        self.local.set_discrimination_hint(hint.clone());
        for link in self.per_neighbor.values_mut() {
            link.engine.set_discrimination_hint(hint.clone());
        }
        self.hint = hint;
    }

    /// Registers a local-client subscription, replacing any entry — local or
    /// remote — registered under the same id.
    pub fn add_local(&mut self, subscription: Subscription) {
        let id = subscription.id();
        self.evict(id);
        self.local.insert(subscription);
        if let Some(index) = &mut self.local_subsumers {
            if let Some(entry) = self.local.get(id) {
                index.insert(entry);
            }
        }
    }

    /// Registers a remote entry whose matches must be forwarded towards the
    /// given neighbor, replacing any entry — local, or remote towards any
    /// neighbor — registered under the same id.
    pub fn add_remote(&mut self, subscription: Subscription, toward: BrokerId) {
        let id = subscription.id();
        self.evict(id);
        if let Some(Link {
            engine,
            subsumers: Some(index),
            ..
        }) = self.place_remote(subscription, toward)
        {
            if let Some(entry) = engine.get(id) {
                index.insert(entry);
            }
        }
    }

    /// Indexes `subscription` in the engine towards `toward` and records its
    /// destination. Returns the link if the engine accepted the entry, which
    /// is not yet filed as a possible subsumer.
    fn place_remote(&mut self, subscription: Subscription, toward: BrokerId) -> Option<&mut Link> {
        let id = subscription.id();
        let kind = self.engine_kind;
        let config = self.engine_config;
        let hint = &self.hint;
        let link = self.per_neighbor.entry(toward).or_insert_with(|| {
            let mut engine = kind.build_with_config(config);
            if hint.is_some() {
                engine.set_discrimination_hint(hint.clone());
            }
            Link {
                engine,
                witnesses: Vec::new(),
                subsumers: None,
            }
        });
        link.engine.insert(subscription);
        // The engine's registration-time analysis may have rejected the tree
        // as unsatisfiable; the destination map records only what is
        // actually indexed.
        link.engine.get(id)?;
        self.remote_destination.insert(id, toward);
        Some(link)
    }

    /// Removes a subscription from wherever it is registered.
    pub fn remove(&mut self, id: SubscriptionId) -> Option<Subscription> {
        self.evict(id)
    }

    /// Takes the entry registered under `id` out of the table: out of the
    /// local engine, or out of the engine, *the witness list and the
    /// subsumption index* of the neighbor it points towards. Every mutation
    /// starts here, so no copy of an entry survives in a second engine, no
    /// witness outlives or lags the entry it was cloned from, and no replaced
    /// or removed entry is reported as a subsumer.
    fn evict(&mut self, id: SubscriptionId) -> Option<Subscription> {
        if let Some(sub) = self.local.remove(id) {
            if let Some(index) = &mut self.local_subsumers {
                index.remove(&sub);
            }
            return Some(sub);
        }
        let toward = self.remote_destination.remove(&id)?;
        let pruned = self.pruned.remove(&id);
        let link = self.per_neighbor.get_mut(&toward)?;
        link.witnesses.retain(|w| w.id() != id);
        let sub = link.engine.remove(id)?;
        if let (Some(index), false) = (&mut link.subsumers, pruned) {
            index.remove(&sub);
        }
        Some(sub)
    }

    /// Replaces the tree of a remote entry (installing a pruned version).
    /// Returns `false` if the subscription is not a remote entry of this
    /// table.
    pub fn install_remote_tree(&mut self, id: SubscriptionId, tree: SubscriptionTree) -> bool {
        let Some(&toward) = self.remote_destination.get(&id) else {
            return false;
        };
        let Some(existing) = self.evict(id) else {
            return false;
        };
        // Not filed as a subsumer: a pruned entry matches more than the
        // copies of it downstream do.
        if self
            .place_remote(existing.with_tree(tree), toward)
            .is_some()
        {
            self.pruned.insert(id);
        }
        true
    }

    /// Returns `true` if the entry holds a tree installed by
    /// [`install_remote_tree`](Self::install_remote_tree): a generalization
    /// of what this broker registered and flooded onward, so what it matches
    /// says nothing about what the brokers downstream of it match.
    pub fn is_pruned(&self, id: SubscriptionId) -> bool {
        self.pruned.contains(&id)
    }

    /// The entry that makes flooding the query's subscription towards
    /// `toward` redundant: one that did not arrive over that link (so it
    /// *was* propagated towards it), is registered under another id, is not
    /// `is_suppressed` towards it itself, still holds the tree it was
    /// propagated with (see [`is_pruned`](Self::is_pruned)), and is implied
    /// by the subscription. Of several, **the one with the lowest id** — a
    /// rule that depends on the entries alone, so a broker and its
    /// log-replayed twin record the same blocker. Sound but incomplete: a
    /// `None` only means [`implies`] found no subsumer.
    ///
    /// `implies` runs on the few entries the per-origin
    /// [subsumption indexes](crate::subsumption) cannot rule out; each index
    /// is built by the first lookup that needs it.
    pub fn subsumer(
        &mut self,
        query: &SubsumptionQuery,
        toward: BrokerId,
        is_suppressed: impl Fn(SubscriptionId) -> bool,
    ) -> Option<SubscriptionId> {
        let mut candidates = std::mem::take(&mut self.subsumer_scratch);
        candidates.clear();
        let pruned = &self.pruned;
        self.local_subsumers
            .get_or_insert_with(|| file_all(&self.local, pruned))
            .candidates(query, &mut candidates);
        for (neighbor, link) in &mut self.per_neighbor {
            if *neighbor != toward {
                link.subsumers
                    .get_or_insert_with(|| file_all(&link.engine, pruned))
                    .candidates(query, &mut candidates);
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        let found = candidates.iter().copied().find(|&id| {
            id != query.id
                && !is_suppressed(id)
                && self
                    .subscription(id)
                    .is_some_and(|entry| implies(&query.expr, &entry.tree().to_expr()))
        });
        self.subsumer_scratch = candidates;
        found
    }

    /// The current remote entries (their possibly pruned form), in
    /// subscription-id order.
    pub fn remote_subscriptions(&self) -> Vec<Subscription> {
        let mut subs: Vec<Subscription> = self
            .per_neighbor
            .values()
            .flat_map(|link| link.engine.subscriptions().cloned())
            .collect();
        subs.sort_by_key(Subscription::id);
        subs
    }

    /// The current local entries, in subscription-id order.
    pub fn local_subscriptions(&self) -> Vec<Subscription> {
        let mut subs: Vec<Subscription> = self.local.subscriptions().cloned().collect();
        subs.sort_by_key(Subscription::id);
        subs
    }

    /// The neighbor a remote entry currently points towards.
    pub fn remote_destination(&self, id: SubscriptionId) -> Option<BrokerId> {
        self.remote_destination.get(&id).copied()
    }

    /// Looks up a registered subscription — local or remote — by id,
    /// returning its currently indexed (possibly normalized or pruned) form.
    pub fn subscription(&self, id: SubscriptionId) -> Option<&Subscription> {
        if let Some(sub) = self.local.get(id) {
            return Some(sub);
        }
        let toward = self.remote_destination.get(&id)?;
        self.per_neighbor.get(toward)?.engine.get(id)
    }

    /// Iterates over every registered entry as `(origin, subscription)`:
    /// `None` for local-client entries, `Some(neighbor)` for remote entries
    /// pointing towards that neighbor.
    ///
    /// The order is deterministic, so a journal snapshot's bytes depend on
    /// the table alone: local entries first, then each neighbor's in
    /// broker-id order; within one engine, a counting engine's slot order
    /// and an A-Tree's id order (its id map has no order of its own).
    pub fn entries(&self) -> impl Iterator<Item = (Option<BrokerId>, &Subscription)> {
        deterministic_order(&self.local)
            .map(|sub| (None, sub))
            .chain(self.per_neighbor.iter().flat_map(|(neighbor, link)| {
                deterministic_order(&link.engine).map(move |sub| (Some(*neighbor), sub))
            }))
    }

    /// Matches a whole batch against the local entries, replacing `out` with
    /// `(event index, subscriber, subscription)` triples to notify: grouped
    /// by event, id-sorted within one.
    ///
    /// The local engine is driven once for the whole batch and writes each
    /// match into `out` as it emits it, subscriber included — every engine
    /// holds the subscriber where it decides a match, so no entry is looked
    /// up again. Allocation-free in steady state apart from growing `out`.
    pub fn match_local_batch(
        &mut self,
        batch: &EventBatch,
        out: &mut Vec<(usize, SubscriberId, SubscriptionId)>,
    ) {
        out.clear();
        self.local.match_batch(batch, &mut DeliverySink(out));
    }

    /// Determines, per batch event, which neighbors need a copy: for each
    /// event `i` of the batch, `out[i]` lists every neighbor (except
    /// `exclude`, the link the batch arrived on) with at least one matching
    /// remote entry, in ascending broker-id order.
    ///
    /// Per neighbor, the witnesses answer what they can and the engine is
    /// driven once over the remaining events (see the `routing_table` module
    /// documentation); the nested buffers of `out` are reused across calls.
    pub fn forward_batch(
        &mut self,
        batch: &EventBatch,
        exclude: Option<BrokerId>,
        out: &mut Vec<Vec<BrokerId>>,
    ) {
        for neighbors in out.iter_mut() {
            neighbors.clear();
        }
        // Resize to exactly `batch.len()` entries without freeing nested
        // buffers: shrinking parks the (cleared) tail buckets in the spare
        // pool, growing takes them back before allocating fresh ones.
        while out.len() > batch.len() {
            self.forward_spares
                .push(out.pop().expect("len checked above"));
        }
        while out.len() < batch.len() {
            out.push(self.forward_spares.pop().unwrap_or_default());
        }
        for (neighbor, link) in &mut self.per_neighbor {
            if Some(*neighbor) == exclude {
                continue;
            }
            let start = Instant::now();
            self.undecided.clear();
            for (index, neighbors) in out.iter_mut().enumerate() {
                let pairs = batch.resolved_pairs(index);
                let mut evals = 0;
                let hit = link.witnesses.iter().position(|witness| {
                    evals += 1;
                    witness.tree().evaluate_pairs(pairs)
                });
                self.witness_stats.witness_evals += evals;
                match hit {
                    Some(at) => {
                        link.witnesses[..=at].rotate_right(1);
                        neighbors.push(*neighbor);
                    }
                    None => self.undecided.push(index),
                }
            }
            let hits = batch.len() - self.undecided.len();
            self.witness_stats.witness_hits += hits as u64;
            self.witness_stats.events_filtered += hits as u64;
            // The engine sees only the undecided events — the batch itself
            // when no witness matched anything.
            let undecided = if hits == 0 {
                batch
            } else {
                self.undecided_batch.clear();
                for &index in &self.undecided {
                    self.undecided_batch.push_from(batch, index);
                }
                &self.undecided_batch
            };
            self.witness_stats.filter_time += start.elapsed();
            if hits == batch.len() {
                self.witness_stats.batches_filtered += 1;
                continue;
            }
            link.engine.match_batch(undecided, &mut self.any_match);
            for (first, &index) in self.any_match.first.iter().zip(&self.undecided) {
                if let Some(id) = *first {
                    out[index].push(*neighbor);
                    link.promote(id);
                }
            }
        }
    }

    /// Number of local entries.
    pub fn local_len(&self) -> usize {
        self.local.len()
    }

    /// Number of remote entries.
    pub fn remote_len(&self) -> usize {
        self.remote_destination.len()
    }

    /// Memory accounting for this routing table.
    pub fn memory_report(&self) -> RoutingMemoryReport {
        let local = self.local.report();
        let mut memory = RoutingMemoryReport {
            local_subscriptions: local.subscription_count,
            local_associations: local.association_count,
            local_bytes: local.tree_bytes,
            equality_constants: local.equality_constants,
            subsumption_entries: self.local_subsumers.as_ref().map_or(0, |index| index.len()),
            ..RoutingMemoryReport::default()
        };
        for link in self.per_neighbor.values() {
            let report = link.engine.report();
            memory.remote_associations += report.association_count;
            memory.remote_bytes += report.tree_bytes;
            memory.remote_subscriptions += report.subscription_count;
            memory.equality_constants += report.equality_constants;
            memory.subsumption_entries += link.subsumers.as_ref().map_or(0, |index| index.len());
        }
        memory
    }

    /// Merged filtering statistics of all engines in this table, plus what
    /// the witness cache answered in their place: every forwarding decision
    /// is in `events_filtered` and all witness time in `filter_time`,
    /// whoever made the decision.
    pub fn filter_stats(&self) -> FilterStats {
        let mut stats = *self.local.stats();
        for link in self.per_neighbor.values() {
            stats.merge(link.engine.stats());
        }
        stats.merge(&self.witness_stats);
        stats
    }

    /// Resets the filtering statistics of all engines and of the witness
    /// cache (the witnesses themselves are kept).
    pub fn reset_filter_stats(&mut self) {
        self.local.reset_stats();
        for link in self.per_neighbor.values_mut() {
            link.engine.reset_stats();
        }
        self.witness_stats = FilterStats::new();
    }
}

/// The entries of `engine` in the order [`RoutingTable::entries`] lists
/// them: as the counting engine iterates them, sorted by id for the A-Tree,
/// whose id map iterates in a different order on every run.
fn deterministic_order(engine: &AnyEngine) -> Box<dyn Iterator<Item = &Subscription> + '_> {
    match engine {
        AnyEngine::Counting(_) => engine.subscriptions(),
        AnyEngine::ATree(_) => {
            let mut subs: Vec<&Subscription> = engine.subscriptions().collect();
            subs.sort_unstable_by_key(|sub| sub.id());
            Box::new(subs.into_iter())
        }
    }
}

/// Files every unpruned entry of `engine`, in the order of
/// [`deterministic_order`]: where an entry is filed depends on what was
/// filed before it.
fn file_all(engine: &AnyEngine, pruned: &BTreeSet<SubscriptionId>) -> SubsumptionIndex {
    let mut index = SubsumptionIndex::default();
    for entry in deterministic_order(engine) {
        if !pruned.contains(&entry.id()) {
            index.insert(entry);
        }
    }
    index
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_core::{EventMessage, Expr};

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

    fn books_event(price: i64) -> EventMessage {
        EventMessage::builder()
            .attr("category", "books")
            .attr("price", price)
            .build()
    }

    /// `match_local_batch` for a batch of one.
    fn match_local_one(
        table: &mut RoutingTable,
        event: &EventMessage,
    ) -> Vec<(SubscriberId, SubscriptionId)> {
        let mut out = Vec::new();
        table.match_local_batch(&std::iter::once(event.clone()).collect(), &mut out);
        out.into_iter()
            .map(|(_, subscriber, id)| (subscriber, id))
            .collect()
    }

    /// `forward_batch` for a batch of one.
    fn forward_one(
        table: &mut RoutingTable,
        event: &EventMessage,
        exclude: Option<BrokerId>,
    ) -> Vec<BrokerId> {
        let mut out = Vec::new();
        table.forward_batch(&std::iter::once(event.clone()).collect(), exclude, &mut out);
        out.pop().unwrap_or_default()
    }

    #[test]
    fn local_matching_reports_subscribers() {
        let mut table = RoutingTable::new();
        table.add_local(sub(1, 10, &Expr::eq("category", "books")));
        table.add_local(sub(2, 20, &Expr::eq("category", "music")));
        let hits = match_local_one(&mut table, &books_event(5));
        assert_eq!(
            hits,
            vec![(SubscriberId::from_raw(10), SubscriptionId::from_raw(1))]
        );
        assert_eq!(table.local_len(), 2);
        assert_eq!(table.remote_len(), 0);
    }

    #[test]
    fn forwarding_targets_only_matching_neighbors() {
        let mut table = RoutingTable::new();
        table.add_remote(sub(1, 10, &Expr::eq("category", "books")), b(1));
        table.add_remote(sub(2, 20, &Expr::eq("category", "music")), b(2));
        let forward = forward_one(&mut table, &books_event(5), None);
        assert_eq!(forward, vec![b(1)]);
        // The link the event arrived on is excluded even if it matches.
        let forward = forward_one(&mut table, &books_event(5), Some(b(1)));
        assert!(forward.is_empty());
    }

    #[test]
    fn install_remote_tree_generalizes_entry() {
        let mut table = RoutingTable::new();
        let original = sub(
            1,
            10,
            &Expr::and(vec![
                Expr::eq("category", "books"),
                Expr::le("price", 10i64),
            ]),
        );
        table.add_remote(original.clone(), b(1));
        // An expensive book does not match the exact entry.
        assert!(forward_one(&mut table, &books_event(50), None).is_empty());
        // Install the pruned entry (price constraint removed).
        let pruned_tree = SubscriptionTree::from_expr(&Expr::eq("category", "books"));
        assert!(table.install_remote_tree(SubscriptionId::from_raw(1), pruned_tree));
        assert_eq!(forward_one(&mut table, &books_event(50), None), vec![b(1)]);
        // Destination is unchanged.
        assert_eq!(
            table.remote_destination(SubscriptionId::from_raw(1)),
            Some(b(1))
        );
        // Installing for an unknown subscription fails.
        assert!(!table.install_remote_tree(
            SubscriptionId::from_raw(99),
            SubscriptionTree::from_expr(&Expr::eq("category", "books"))
        ));
    }

    #[test]
    fn memory_report_separates_local_and_remote() {
        let mut table = RoutingTable::new();
        table.add_local(sub(
            1,
            10,
            &Expr::and(vec![
                Expr::eq("category", "books"),
                Expr::le("price", 10i64),
            ]),
        ));
        table.add_remote(sub(2, 20, &Expr::eq("category", "music")), b(1));
        table.add_remote(
            sub(
                3,
                30,
                &Expr::and(vec![Expr::eq("a", 1i64), Expr::eq("b", 2i64)]),
            ),
            b(2),
        );
        let report = table.memory_report();
        assert_eq!(report.local_subscriptions, 1);
        assert_eq!(report.local_associations, 2);
        assert_eq!(report.remote_subscriptions, 2);
        assert_eq!(report.remote_associations, 3);
        assert!(report.remote_bytes > 0);
        assert_eq!(report.total_associations(), 5);
    }

    #[test]
    fn remove_works_for_both_kinds() {
        let mut table = RoutingTable::new();
        table.add_local(sub(1, 10, &Expr::eq("a", 1i64)));
        table.add_remote(sub(2, 20, &Expr::eq("b", 2i64)), b(1));
        assert!(table.remove(SubscriptionId::from_raw(1)).is_some());
        assert!(table.remove(SubscriptionId::from_raw(2)).is_some());
        assert!(table.remove(SubscriptionId::from_raw(2)).is_none());
        assert_eq!(table.local_len(), 0);
        assert_eq!(table.remote_len(), 0);
    }

    #[test]
    fn registering_a_known_id_elsewhere_moves_the_entry() {
        let id = SubscriptionId::from_raw(1);
        let books = sub(1, 10, &Expr::eq("category", "books"));
        let mut table = RoutingTable::new();
        // Re-homed towards another neighbor: no copy stays behind.
        table.add_remote(books.clone(), b(0));
        table.add_remote(books.clone(), b(2));
        assert_eq!(table.remote_len(), 1);
        assert_eq!(table.remote_subscriptions().len(), 1);
        assert_eq!(forward_one(&mut table, &books_event(5), None), [b(2)]);
        assert!(table.remove(id).is_some());
        assert_eq!(table.remote_len(), 0);
        assert!(forward_one(&mut table, &books_event(5), None).is_empty());
        assert!(table.remove(id).is_none());
        // Remote, then local: delivered, no longer forwarded.
        table.add_remote(books.clone(), b(0));
        table.add_local(books.clone());
        assert_eq!((table.local_len(), table.remote_len()), (1, 0));
        assert!(forward_one(&mut table, &books_event(5), None).is_empty());
        assert_eq!(match_local_one(&mut table, &books_event(5)).len(), 1);
        // Local, then remote: forwarded, no longer delivered.
        table.add_remote(books, b(1));
        assert_eq!((table.local_len(), table.remote_len()), (0, 1));
        assert_eq!(table.remote_destination(id), Some(b(1)));
        assert!(match_local_one(&mut table, &books_event(5)).is_empty());
        assert_eq!(forward_one(&mut table, &books_event(5), None), [b(1)]);
        assert_eq!(table.entries().count(), 1);
    }

    #[test]
    fn the_subsumer_is_the_lowest_id_among_the_entries_that_qualify() {
        let books = Expr::eq("category", "books");
        let cheap_books = Expr::and(vec![books.clone(), Expr::le("price", 10i64)]);
        let mut table = RoutingTable::new();
        // Registered highest id first, across three origins.
        table.add_remote(sub(7, 10, &books), b(0));
        table.add_remote(sub(5, 10, &books), b(2));
        table.add_local(sub(3, 10, &books));
        table.add_local(sub(4, 10, &Expr::eq("category", "music")));
        // Nobody asked yet, so nothing is filed.
        assert_eq!(table.memory_report().subsumption_entries, 0);

        let query = SubsumptionQuery::new(&sub(9, 10, &cheap_books));
        let id = SubscriptionId::from_raw;
        let nobody = |_| false;
        assert_eq!(table.subsumer(&query, b(1), nobody), Some(id(3)));
        assert_eq!(table.memory_report().subsumption_entries, 4);
        // Suppressed entries and entries that arrived over the link do not
        // count; neither does an entry registered under the query's own id.
        assert_eq!(table.subsumer(&query, b(1), |s| s == id(3)), Some(id(5)));
        assert_eq!(table.subsumer(&query, b(2), |s| s == id(3)), Some(id(7)));
        let own = SubsumptionQuery::new(&sub(3, 10, &cheap_books));
        assert_eq!(table.subsumer(&own, b(1), nobody), Some(id(5)));
        // Nor does an entry holding a pruned tree, until it is registered
        // again.
        let wider = Expr::or(vec![books.clone(), Expr::eq("category", "music")]);
        assert!(table.install_remote_tree(id(5), SubscriptionTree::from_expr(&wider)));
        assert_eq!(table.subsumer(&query, b(1), |s| s == id(3)), Some(id(7)));
        table.add_remote(sub(5, 10, &books), b(2));
        assert_eq!(table.subsumer(&query, b(1), |s| s == id(3)), Some(id(5)));
        // A replaced body is judged as it is now; a removed one not at all.
        table.add_local(sub(3, 10, &Expr::eq("category", "music")));
        assert_eq!(table.subsumer(&query, b(1), nobody), Some(id(5)));
        table.remove(id(5));
        table.remove(id(7));
        assert_eq!(table.subsumer(&query, b(1), nobody), None);
        assert_eq!(table.memory_report().subsumption_entries, 2);
    }

    fn witness_ids(table: &RoutingTable, neighbor: BrokerId) -> Vec<u64> {
        table.per_neighbor[&neighbor]
            .witnesses
            .iter()
            .map(|w| w.id().raw())
            .collect()
    }

    #[test]
    fn a_removed_or_replaced_entry_is_no_witness_any_more() {
        let books = Expr::eq("category", "books");
        let cheap_books = Expr::and(vec![books.clone(), Expr::le("price", 10i64)]);
        let mut table = RoutingTable::new();
        table.add_remote(sub(1, 10, &books), b(1));
        assert_eq!(forward_one(&mut table, &books_event(50), None), [b(1)]);
        assert_eq!(witness_ids(&table, b(1)), [1]);
        // The second decision is the witness's.
        assert_eq!(forward_one(&mut table, &books_event(50), None), [b(1)]);
        assert_eq!(table.filter_stats().witness_hits, 1);

        // Installing another tree drops the witness cloned from the old
        // one — here a narrower tree, so a stale witness would show.
        let id = SubscriptionId::from_raw(1);
        assert!(table.install_remote_tree(id, SubscriptionTree::from_expr(&cheap_books)));
        assert!(witness_ids(&table, b(1)).is_empty());
        assert!(forward_one(&mut table, &books_event(50), None).is_empty());
        assert_eq!(forward_one(&mut table, &books_event(5), None), [b(1)]);
        assert_eq!(witness_ids(&table, b(1)), [1]);

        // So does re-registering the id, towards this or another neighbor…
        table.add_remote(sub(1, 10, &Expr::eq("category", "music")), b(1));
        assert!(witness_ids(&table, b(1)).is_empty());
        assert!(forward_one(&mut table, &books_event(5), None).is_empty());
        table.add_remote(sub(1, 10, &books), b(1));
        assert_eq!(forward_one(&mut table, &books_event(5), None), [b(1)]);
        table.add_remote(sub(1, 10, &books), b(2));
        assert!(witness_ids(&table, b(1)).is_empty());
        assert_eq!(forward_one(&mut table, &books_event(5), None), [b(2)]);

        // …and removing it.
        assert!(table.remove(id).is_some());
        assert!(witness_ids(&table, b(2)).is_empty());
        assert!(forward_one(&mut table, &books_event(5), None).is_empty());
        assert_eq!(table.filter_stats().witness_hits, 1);
    }

    #[test]
    fn witness_and_engine_decisions_add_up_to_the_events_filtered() {
        let mut table = RoutingTable::new();
        // More distinct matchers than the witness list holds, one neighbor
        // whose entries never match, and one that is excluded.
        let entries = 2 * MAX_WITNESSES as u64;
        for price in 0..entries {
            table.add_remote(sub(price, 10, &Expr::eq("price", price as i64)), b(1));
        }
        table.add_remote(sub(1000, 10, &Expr::eq("category", "music")), b(2));
        table.add_remote(sub(1001, 10, &Expr::eq("category", "books")), b(3));
        let batch: EventBatch = (0..entries as i64 + 8).map(books_event).collect();
        let mut out = Vec::new();
        let rounds = 3;
        for _ in 0..rounds {
            table.forward_batch(&batch, Some(b(3)), &mut out);
            for (price, forward) in out.iter().enumerate() {
                let expected: &[BrokerId] = if (price as u64) < entries {
                    &[b(1)]
                } else {
                    &[]
                };
                assert_eq!(forward, expected, "price {price}");
            }
            assert_eq!(
                table.per_neighbor[&b(1)].witnesses.len(),
                MAX_WITNESSES,
                "the list is bounded"
            );
            assert!(witness_ids(&table, b(2)).is_empty(), "nothing matched yet");
        }
        let stats = table.filter_stats();
        let engine_decided: u64 = table
            .per_neighbor
            .values()
            .map(|link| link.engine.stats().events_filtered)
            .sum();
        // Two neighbors decide every event of every round.
        assert_eq!(stats.events_filtered, 2 * rounds * batch.len() as u64);
        assert_eq!(stats.witness_hits + engine_decided, stats.events_filtered);
        assert!(stats.witness_hits > 0 && engine_decided > 0);
        assert!(stats.witness_evals >= stats.witness_hits);
        // A neighbor without witnesses costs no evaluation and hands the
        // engine the batch as it is.
        let silent = table.per_neighbor[&b(2)].engine.stats();
        assert_eq!(silent.events_filtered, rounds * batch.len() as u64);
        assert_eq!(silent.batches_filtered, rounds);
        // Each neighbor's share of a batch counts as one batch, whoever
        // decided its events.
        assert_eq!(stats.batches_filtered, 2 * rounds);

        // A batch the witnesses answer whole never reaches the engine.
        let before = table.filter_stats();
        let repeat: EventBatch = (0..4).map(|_| books_event(entries as i64 - 1)).collect();
        table.forward_batch(&repeat, Some(b(2)), &mut out);
        table.forward_batch(&repeat, Some(b(2)), &mut out);
        let delta = table.filter_stats().since(&before);
        assert_eq!(delta.events_filtered, 4 * 4);
        assert_eq!(delta.batches_filtered, 4);
        assert_eq!(
            delta.witness_hits,
            4 * 4 - 4,
            "b3's first batch is its engine's"
        );
        table.reset_filter_stats();
        assert_eq!(table.filter_stats(), FilterStats::new());
    }

    #[test]
    fn subscription_listings_are_sorted() {
        let mut table = RoutingTable::new();
        table.add_remote(sub(5, 20, &Expr::eq("b", 2i64)), b(1));
        table.add_remote(sub(3, 20, &Expr::eq("c", 2i64)), b(2));
        table.add_local(sub(9, 10, &Expr::eq("a", 1i64)));
        table.add_local(sub(4, 10, &Expr::eq("a", 2i64)));
        let remote_ids: Vec<u64> = table
            .remote_subscriptions()
            .iter()
            .map(|s| s.id().raw())
            .collect();
        assert_eq!(remote_ids, vec![3, 5]);
        let local_ids: Vec<u64> = table
            .local_subscriptions()
            .iter()
            .map(|s| s.id().raw())
            .collect();
        assert_eq!(local_ids, vec![4, 9]);
    }

    #[test]
    fn batch_matching_agrees_with_per_event_matching() {
        let mut table = RoutingTable::new();
        table.add_local(sub(1, 10, &Expr::eq("category", "books")));
        table.add_local(sub(2, 20, &Expr::le("price", 3i64)));
        table.add_remote(sub(3, 30, &Expr::eq("category", "books")), b(1));
        table.add_remote(sub(4, 40, &Expr::ge("price", 100i64)), b(2));

        let events: Vec<EventMessage> = vec![books_event(2), books_event(50), books_event(200)];
        let batch: pubsub_core::EventBatch = events.iter().cloned().collect();

        let mut local = Vec::new();
        table.match_local_batch(&batch, &mut local);
        let mut forward = Vec::new();
        table.forward_batch(&batch, None, &mut forward);
        assert_eq!(forward.len(), batch.len());

        for (i, event) in events.iter().enumerate() {
            let expected_local: Vec<(SubscriberId, SubscriptionId)> =
                match_local_one(&mut table, event);
            let got_local: Vec<(SubscriberId, SubscriptionId)> = local
                .iter()
                .filter(|(e, _, _)| *e == i)
                .map(|&(_, subscriber, id)| (subscriber, id))
                .collect();
            assert_eq!(got_local, expected_local, "event {i}");
            let expected_forward = forward_one(&mut table, event, None);
            assert_eq!(forward[i], expected_forward, "event {i}");
        }

        // Exclusion applies to every event of the batch.
        table.forward_batch(&batch, Some(b(1)), &mut forward);
        assert!(forward.iter().all(|n| !n.contains(&b(1))));
    }

    #[test]
    fn forward_batch_resizes_and_clears_reused_buffers() {
        let mut table = RoutingTable::new();
        table.add_remote(sub(1, 10, &Expr::eq("category", "books")), b(1));
        let big: pubsub_core::EventBatch = (0..4).map(|_| books_event(1)).collect();
        let mut out = Vec::new();
        table.forward_batch(&big, None, &mut out);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|n| n == &vec![b(1)]));
        // A smaller follow-up batch must not leak entries from the big one.
        let small: pubsub_core::EventBatch =
            std::iter::once(EventMessage::builder().attr("category", "music").build()).collect();
        table.forward_batch(&small, None, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].is_empty());
    }

    #[test]
    fn atree_table_routes_and_matches_like_the_default_table() {
        let mut counting = RoutingTable::new();
        let mut atree = RoutingTable::with_engine(EngineKind::ATree);
        assert_eq!(atree.engine_kind(), EngineKind::ATree);
        for table in [&mut counting, &mut atree] {
            table.add_local(sub(1, 10, &Expr::eq("category", "books")));
            table.add_local(sub(2, 20, &Expr::le("price", 3i64)));
            table.add_remote(sub(3, 30, &Expr::eq("category", "books")), b(1));
            table.add_remote(sub(4, 40, &Expr::ge("price", 100i64)), b(2));
        }
        let batch: pubsub_core::EventBatch =
            vec![books_event(2), books_event(50), books_event(200)]
                .into_iter()
                .collect();
        let mut expected_local = Vec::new();
        counting.match_local_batch(&batch, &mut expected_local);
        let mut got_local = Vec::new();
        atree.match_local_batch(&batch, &mut got_local);
        assert_eq!(got_local, expected_local);
        let mut expected_forward = Vec::new();
        counting.forward_batch(&batch, None, &mut expected_forward);
        let mut got_forward = Vec::new();
        atree.forward_batch(&batch, None, &mut got_forward);
        assert_eq!(got_forward, expected_forward);
        // Removal and listings work through the A-Tree engines too.
        assert!(atree.remove(SubscriptionId::from_raw(3)).is_some());
        assert_eq!(atree.remote_len(), 1);
        assert_eq!(atree.local_subscriptions().len(), 2);
    }

    #[test]
    fn engine_config_reaches_every_destination_engine() {
        use filtering::PrefilterMode;
        let mut table = RoutingTable::with_engine_config(
            EngineKind::Counting,
            EngineConfig::with_prefilter(PrefilterMode::On),
        );
        assert_eq!(table.engine_config().prefilter, PrefilterMode::On);
        let conjunction = Expr::and(vec![
            Expr::eq("category", "books"),
            Expr::le("price", 10i64),
        ]);
        table.add_local(sub(1, 10, &conjunction));
        // Neighbor engines are built lazily *after* construction and must
        // still pick up the configured mode (and hint, were one installed).
        table.set_discrimination_hint(None);
        table.add_remote(sub(2, 20, &conjunction), b(1));
        // A partial match — the category predicate fires but the required
        // `price` attribute is absent — is killed by stage 0 on both the
        // local and the per-neighbor engine, and the stage counters must
        // surface in the merged stats.
        let no_price = EventMessage::builder().attr("category", "books").build();
        assert!(match_local_one(&mut table, &no_price).is_empty());
        assert!(forward_one(&mut table, &no_price, None).is_empty());
        let stats = table.filter_stats();
        assert_eq!(stats.killed_by_prefilter, 2);
        assert_eq!(stats.stage2_candidates, 0);
        // Switching the mode off propagates to existing engines: the same
        // event now reaches stage 2 (and is rejected there by evaluating the
        // tree).
        table.set_engine_config(EngineConfig::with_prefilter(PrefilterMode::Off));
        assert_eq!(table.engine_config().prefilter, PrefilterMode::Off);
        assert!(match_local_one(&mut table, &no_price).is_empty());
        assert!(forward_one(&mut table, &no_price, None).is_empty());
        let stats = table.filter_stats();
        assert_eq!(stats.killed_by_prefilter, 2, "stage 0 no longer killing");
        assert_eq!(stats.stage2_candidates, 2);
    }

    #[test]
    fn filter_stats_accumulate_and_reset() {
        let mut table = RoutingTable::new();
        table.add_local(sub(1, 10, &Expr::eq("category", "books")));
        table.add_remote(sub(2, 20, &Expr::eq("category", "books")), b(1));
        let _ = match_local_one(&mut table, &books_event(1));
        let _ = forward_one(&mut table, &books_event(1), None);
        let stats = table.filter_stats();
        assert_eq!(stats.events_filtered, 2); // one per engine touched
        assert_eq!(stats.matches, 2);
        table.reset_filter_stats();
        assert_eq!(table.filter_stats().events_filtered, 0);
    }
}
