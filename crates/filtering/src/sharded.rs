//! Sharded parallel matching: the subscription slab partitioned across
//! cores.
//!
//! [`ShardedEngine`] partitions the registered subscriptions over N shards
//! of any [`ShardEngine`] — [`CountingEngine`] by default, [`ATreeEngine`]
//! optionally. Each shard owns its own dense sub-slab,
//! [`AttributeIndex`](crate::AttributeIndex), and generation-stamped scratch,
//! so matching a batch fans out with **zero shared mutable state**: every
//! worker gets an exclusive `&mut` to its shard and a shared `&` to the
//! [`EventBatch`], emits into a per-shard sink buffer, and the calling thread
//! merges the id-sorted per-shard streams into the caller's
//! [`MatchSink`] — producing output byte-identical to a single shard engine
//! holding all subscriptions, regardless of shard count.
//!
//! Workers run on [`std::thread::scope`]: shard 0 is matched on the calling
//! thread (a one-shard engine spawns nothing), shards 1..N on scoped worker
//! threads. The per-shard sink buffers and each shard's scratch are reused
//! across batches, so a warmed-up sharded batch performs no steady-state
//! allocation on any shard.

use crate::{
    ATreeEngine, CountingEngine, EngineConfig, EngineReport, FilterStats, MatchSink, MatchingEngine,
};
use pubsub_core::{EventBatch, SubscriberId, Subscription, SubscriptionId};
use selectivity::DiscriminationHint;
use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::time::Instant;

/// Batches at or below this size are matched inline on the calling thread —
/// the work cannot amortize a thread spawn. The single-event compatibility
/// wrappers (one-event batches) always take this path.
const SEQUENTIAL_BATCH_MAX: usize = 4;

/// Which matching engine a component should construct.
///
/// The broker stack (`RoutingTable`, `Broker`, `Simulation` in the `broker`
/// crate) accepts an `EngineKind` so experiments can switch between the
/// single-threaded counting engine and the sharded parallel engine without
/// code changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// The single-threaded [`CountingEngine`].
    #[default]
    Counting,
    /// A [`ShardedEngine`] of [`CountingEngine`] shards with the given shard
    /// count; `0` means "use the host's available parallelism".
    Sharded(usize),
    /// The single-threaded shared-subexpression [`ATreeEngine`].
    ATree,
    /// A [`ShardedEngine`] of [`ATreeEngine`] shards with the given shard
    /// count; `0` means "use the host's available parallelism".
    ShardedATree(usize),
}

impl EngineKind {
    /// Builds an empty engine of this kind.
    pub fn build(self) -> AnyEngine {
        self.build_with_capacity(0)
    }

    /// Builds an empty engine of this kind with capacity for roughly `n`
    /// subscriptions.
    pub fn build_with_capacity(self, n: usize) -> AnyEngine {
        self.build_with_config_and_capacity(EngineConfig::default(), n)
    }

    /// Builds an empty engine of this kind with the given pipeline
    /// configuration.
    pub fn build_with_config(self, config: EngineConfig) -> AnyEngine {
        self.build_with_config_and_capacity(config, 0)
    }

    /// Builds an empty engine of this kind with the given pipeline
    /// configuration and capacity for roughly `n` subscriptions.
    pub fn build_with_config_and_capacity(self, config: EngineConfig, n: usize) -> AnyEngine {
        match self {
            EngineKind::Counting => {
                AnyEngine::Counting(CountingEngine::with_config_and_capacity(config, n))
            }
            EngineKind::Sharded(shards) => {
                let shards = if shards == 0 {
                    default_shards()
                } else {
                    shards
                };
                AnyEngine::Sharded(ShardedEngine::with_config_shards_and_capacity(
                    config, shards, n,
                ))
            }
            EngineKind::ATree => AnyEngine::ATree(ATreeEngine::with_config_and_capacity(config, n)),
            EngineKind::ShardedATree(shards) => {
                let shards = if shards == 0 {
                    default_shards()
                } else {
                    shards
                };
                AnyEngine::ShardedATree(ShardedEngine::with_shard_engine(config, shards, n))
            }
        }
    }
}

/// The host's available parallelism (1 if it cannot be determined).
fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// A [`MatchingEngine`] built from an [`EngineKind`]: a [`CountingEngine`],
/// an [`ATreeEngine`], or a [`ShardedEngine`] over either, with the non-trait
/// accessors (subscription iteration) available on every arm.
// All variants are large engine structs, and the enum is held once per
// routing-table destination — never in bulk arrays — so the per-value
// footprint difference does not matter and boxing would only add an
// indirection to every dispatch.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum AnyEngine {
    /// The single-threaded counting engine.
    Counting(CountingEngine),
    /// The sharded parallel engine over counting shards.
    Sharded(ShardedEngine),
    /// The single-threaded shared-subexpression engine.
    ATree(ATreeEngine),
    /// The sharded parallel engine over A-Tree shards.
    ShardedATree(ShardedEngine<ATreeEngine>),
}

impl Default for AnyEngine {
    fn default() -> Self {
        EngineKind::default().build()
    }
}

macro_rules! delegate {
    ($self:ident, $e:ident => $body:expr) => {
        match $self {
            AnyEngine::Counting($e) => $body,
            AnyEngine::Sharded($e) => $body,
            AnyEngine::ATree($e) => $body,
            AnyEngine::ShardedATree($e) => $body,
        }
    };
}

impl AnyEngine {
    /// The kind this engine was built as.
    pub fn kind(&self) -> EngineKind {
        match self {
            AnyEngine::Counting(_) => EngineKind::Counting,
            AnyEngine::Sharded(e) => EngineKind::Sharded(e.shard_count()),
            AnyEngine::ATree(_) => EngineKind::ATree,
            AnyEngine::ShardedATree(e) => EngineKind::ShardedATree(e.shard_count()),
        }
    }

    /// Iterates over the registered subscriptions (shard-major for the
    /// sharded arms, unspecified for the A-Tree ones; callers that need a
    /// canonical order sort by id).
    pub fn subscriptions(&self) -> Box<dyn Iterator<Item = &Subscription> + '_> {
        match self {
            AnyEngine::Counting(e) => Box::new(e.subscriptions()),
            AnyEngine::Sharded(e) => Box::new(e.subscriptions()),
            AnyEngine::ATree(e) => Box::new(e.subscriptions()),
            AnyEngine::ShardedATree(e) => Box::new(e.subscriptions()),
        }
    }

    /// The pipeline configuration the engine is running with.
    pub fn config(&self) -> EngineConfig {
        delegate!(self, e => e.config())
    }

    /// Replaces the pipeline configuration (applied to every shard on the
    /// sharded arm).
    pub fn set_config(&mut self, config: EngineConfig) {
        delegate!(self, e => e.set_config(config))
    }

    /// Installs (or clears) the selectivity hint that steers the choice of
    /// access clauses and stage-0 keys.
    pub fn set_discrimination_hint(&mut self, hint: Option<DiscriminationHint>) {
        delegate!(self, e => e.set_discrimination_hint(hint))
    }

    /// Whether the stage-0 pre-filter is active for the current
    /// configuration and subscription population (any shard, for the
    /// sharded arm).
    pub fn prefilter_enabled(&mut self) -> bool {
        delegate!(self, e => e.prefilter_enabled())
    }
}

impl MatchingEngine for AnyEngine {
    fn insert(&mut self, subscription: Subscription) {
        delegate!(self, e => e.insert(subscription))
    }

    fn remove(&mut self, id: SubscriptionId) -> Option<Subscription> {
        delegate!(self, e => e.remove(id))
    }

    fn get(&self, id: SubscriptionId) -> Option<&Subscription> {
        delegate!(self, e => e.get(id))
    }

    fn match_batch(&mut self, batch: &EventBatch, sink: &mut dyn MatchSink) {
        delegate!(self, e => e.match_batch(batch, sink))
    }

    fn match_event_into(
        &mut self,
        event: &pubsub_core::EventMessage,
        matches: &mut Vec<SubscriptionId>,
    ) {
        delegate!(self, e => e.match_event_into(event, matches))
    }

    fn len(&self) -> usize {
        delegate!(self, e => e.len())
    }

    fn stats(&self) -> &FilterStats {
        delegate!(self, e => e.stats())
    }

    fn reset_stats(&mut self) {
        delegate!(self, e => e.reset_stats())
    }

    fn report(&self) -> EngineReport {
        delegate!(self, e => e.report())
    }
}

/// The per-shard engine interface [`ShardedEngine`] is generic over.
///
/// A shard engine is a full [`MatchingEngine`] that can additionally be
/// constructed from an [`EngineConfig`], reconfigured in place, and observed
/// for scratch reuse. [`CountingEngine`] (the default shard) and
/// [`ATreeEngine`] implement it; the trait is what lets one fan-out/merge
/// implementation serve both.
pub trait ShardEngine: MatchingEngine + Send {
    /// Creates an empty shard with the given pipeline configuration and
    /// capacity for roughly `n` subscriptions.
    fn shard_new(config: EngineConfig, n: usize) -> Self
    where
        Self: Sized;

    /// The pipeline configuration the shard runs with.
    fn config(&self) -> EngineConfig;

    /// Replaces the pipeline configuration.
    fn set_config(&mut self, config: EngineConfig);

    /// Installs (or clears) the selectivity hint that steers the choice of
    /// access clauses and stage-0 keys.
    fn set_discrimination_hint(&mut self, hint: Option<DiscriminationHint>);

    /// Whether the stage-0 pre-filter is active for the current
    /// configuration and subscription population.
    fn prefilter_enabled(&mut self) -> bool;

    /// Reusable scratch currently allocated by the shard, in bytes.
    fn scratch_capacity(&self) -> usize;

    /// Number of times the shard's scratch had to grow since construction.
    fn scratch_grows(&self) -> u64;

    /// Iterates over the subscriptions registered on this shard.
    fn subscriptions(&self) -> impl Iterator<Item = &Subscription> + '_;
}

impl ShardEngine for CountingEngine {
    fn shard_new(config: EngineConfig, n: usize) -> Self {
        CountingEngine::with_config_and_capacity(config, n)
    }

    fn config(&self) -> EngineConfig {
        CountingEngine::config(self)
    }

    fn set_config(&mut self, config: EngineConfig) {
        CountingEngine::set_config(self, config);
    }

    fn set_discrimination_hint(&mut self, hint: Option<DiscriminationHint>) {
        CountingEngine::set_discrimination_hint(self, hint);
    }

    fn prefilter_enabled(&mut self) -> bool {
        CountingEngine::prefilter_enabled(self)
    }

    fn scratch_capacity(&self) -> usize {
        CountingEngine::scratch_capacity(self)
    }

    fn scratch_grows(&self) -> u64 {
        CountingEngine::scratch_grows(self)
    }

    fn subscriptions(&self) -> impl Iterator<Item = &Subscription> + '_ {
        CountingEngine::subscriptions(self)
    }
}

impl ShardEngine for ATreeEngine {
    fn shard_new(config: EngineConfig, n: usize) -> Self {
        ATreeEngine::with_config_and_capacity(config, n)
    }

    fn config(&self) -> EngineConfig {
        ATreeEngine::config(self)
    }

    fn set_config(&mut self, config: EngineConfig) {
        ATreeEngine::set_config(self, config);
    }

    fn set_discrimination_hint(&mut self, hint: Option<DiscriminationHint>) {
        ATreeEngine::set_discrimination_hint(self, hint);
    }

    fn prefilter_enabled(&mut self) -> bool {
        ATreeEngine::prefilter_enabled(self)
    }

    fn scratch_capacity(&self) -> usize {
        ATreeEngine::scratch_capacity(self)
    }

    fn scratch_grows(&self) -> u64 {
        ATreeEngine::scratch_grows(self)
    }

    fn subscriptions(&self) -> impl Iterator<Item = &Subscription> + '_ {
        ATreeEngine::subscriptions(self)
    }
}

/// One shard's matches of the current batch as `(event index, id,
/// subscriber)` triples in emission order — the input of the merge, which
/// hands each subscriber on with its match. Reused across batches.
#[derive(Debug, Default)]
struct ShardSink {
    matches: Vec<(usize, SubscriptionId, SubscriberId)>,
}

impl MatchSink for ShardSink {
    fn begin_batch(&mut self, _batch_len: usize) {
        self.matches.clear();
    }

    fn on_match(&mut self, event_index: usize, sub: SubscriptionId, subscriber: SubscriberId) {
        self.matches.push((event_index, sub, subscriber));
    }
}

/// The parallel matching engine: N shards of a [`ShardEngine`]
/// ([`CountingEngine`] by default), one batch fan-out per
/// [`match_batch`](MatchingEngine::match_batch) call, and a deterministic
/// id-sorted merge.
///
/// Subscriptions are assigned to the shard with the fewest entries at
/// registration time (ties to the lowest shard index), which keeps the
/// per-shard slot ranges dense and balanced under churn. The assignment is
/// recorded so replacement, removal, and lookup route to the owning shard.
///
/// ## Determinism
///
/// Each shard emits its batch matches grouped by event (indexes
/// non-decreasing) and id-sorted within an event — the [`MatchingEngine`]
/// contract. Because every subscription lives on exactly one shard, the
/// per-shard streams are disjoint, and the k-way merge on
/// `(event index, subscription id)` reproduces exactly the stream a single
/// shard engine holding the union would emit. The differential test suite
/// pins this for 1, 2, and 4 shards, including churn between batches.
#[derive(Debug)]
pub struct ShardedEngine<E: ShardEngine = CountingEngine> {
    shards: Vec<E>,
    /// Per-shard sink buffers the workers emit into; reused across batches.
    shard_sinks: Vec<ShardSink>,
    /// Owning shard of each registered subscription.
    owner: HashMap<SubscriptionId, u32>,
    /// Reusable buffer for the single-event path (`match_event_into`), so
    /// per-event matching through a sharded engine stays allocation-free in
    /// steady state like the counting engine's.
    event_scratch: Vec<SubscriptionId>,
    stats: FilterStats,
}

impl Default for ShardedEngine {
    /// A sharded engine with one shard per available core.
    fn default() -> Self {
        Self::new()
    }
}

// Constructors on the default (counting-sharded) engine. These live in a
// non-generic impl block so existing call sites like
// `ShardedEngine::with_shards(4)` keep inferring `<CountingEngine>`; type
// parameter defaults do not participate in expression inference.
impl ShardedEngine {
    /// Creates an engine with one shard per available core.
    pub fn new() -> Self {
        Self::with_shards(default_shards())
    }

    /// Creates an engine with exactly `shards` shards (clamped to at least
    /// one).
    pub fn with_shards(shards: usize) -> Self {
        Self::with_shards_and_capacity(shards, 0)
    }

    /// Creates an engine with `shards` shards and capacity for roughly `n`
    /// subscriptions in total.
    pub fn with_shards_and_capacity(shards: usize, n: usize) -> Self {
        Self::with_config_shards_and_capacity(EngineConfig::default(), shards, n)
    }

    /// Creates an engine with one shard per available core, every shard
    /// running the given pipeline configuration.
    pub fn with_config(config: EngineConfig) -> Self {
        Self::with_config_shards_and_capacity(config, default_shards(), 0)
    }

    /// Creates an engine with `shards` shards (clamped to at least one) and
    /// capacity for roughly `n` subscriptions in total, every shard running
    /// the given pipeline configuration.
    pub fn with_config_shards_and_capacity(config: EngineConfig, shards: usize, n: usize) -> Self {
        Self::with_shard_engine(config, shards, n)
    }
}

impl<E: ShardEngine> ShardedEngine<E> {
    /// Creates an engine with `shards` shards (clamped to at least one) of
    /// the chosen [`ShardEngine`] and capacity for roughly `n` subscriptions
    /// in total. The generic counterpart of
    /// [`with_config_shards_and_capacity`](ShardedEngine::with_config_shards_and_capacity);
    /// name the shard type at the call site:
    /// `ShardedEngine::<ATreeEngine>::with_shard_engine(..)`.
    pub fn with_shard_engine(config: EngineConfig, shards: usize, n: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = n / shards;
        Self {
            shards: (0..shards)
                .map(|_| E::shard_new(config, per_shard))
                .collect(),
            shard_sinks: (0..shards).map(|_| ShardSink::default()).collect(),
            owner: HashMap::with_capacity(n),
            event_scratch: Vec::new(),
            stats: FilterStats::new(),
        }
    }

    /// The pipeline configuration every shard runs with.
    pub fn config(&self) -> EngineConfig {
        self.shards[0].config()
    }

    /// Replaces the pipeline configuration on every shard.
    pub fn set_config(&mut self, config: EngineConfig) {
        for shard in &mut self.shards {
            shard.set_config(config);
        }
    }

    /// Installs (or clears) the selectivity hint on every shard. Each shard
    /// keeps its own copy so workers stay free of shared state.
    pub fn set_discrimination_hint(&mut self, hint: Option<DiscriminationHint>) {
        for shard in &mut self.shards {
            shard.set_discrimination_hint(hint.clone());
        }
    }

    /// Whether the stage-0 pre-filter is active on any shard for the
    /// current configuration and subscription population. Under
    /// [`PrefilterMode::Auto`](crate::PrefilterMode::Auto) shards can
    /// disagree — each gates on its own slot population.
    pub fn prefilter_enabled(&mut self) -> bool {
        self.shards.iter_mut().any(|s| s.prefilter_enabled())
    }

    /// Number of shards the subscription set is partitioned into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of subscriptions currently owned by each shard.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.len()).collect()
    }

    /// Iterates over the registered subscriptions, shard-major (shard 0's
    /// first, then shard 1's, …), each shard in its own order: slot order
    /// for counting shards, unspecified for A-Tree ones.
    pub fn subscriptions(&self) -> impl Iterator<Item = &Subscription> {
        self.shards.iter().flat_map(|s| s.subscriptions())
    }

    /// Total reusable scratch currently allocated across all shards and the
    /// per-shard merge sinks. Constant across `match_batch` calls once the
    /// engine has warmed up.
    pub fn scratch_capacity(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.scratch_capacity())
            .sum::<usize>()
            + self
                .shard_sinks
                .iter()
                .map(|sink| sink.matches.capacity())
                .sum::<usize>()
            + self.event_scratch.capacity()
    }

    /// The reusable scratch currently allocated by each shard (engine
    /// scratch only, excluding the merge sinks). Steady-state matching keeps
    /// every entry constant; the regression tests assert exactly that.
    pub fn shard_scratch_capacities(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.scratch_capacity()).collect()
    }

    /// Total number of times any shard's scratch had to grow since
    /// construction. Does not move in steady state.
    pub fn scratch_grows(&self) -> u64 {
        self.shards.iter().map(|s| s.scratch_grows()).sum()
    }

    /// The shard that owns the subscription with the given id, if it is
    /// registered. Exposed so tests (and shard-layout debugging) can observe
    /// the deterministic assignment.
    pub fn shard_of(&self, id: SubscriptionId) -> Option<usize> {
        self.owner.get(&id).map(|&shard| shard as usize)
    }

    /// The shard that owns the next new subscription: fewest entries, ties
    /// to the **lowest shard index**.
    ///
    /// The tie rule is a determinism guarantee, not an implementation
    /// accident: replaying the same subscription stream (e.g. re-applying a
    /// recorded sequence of wire `Subscribe`/`Unsubscribe` frames) must
    /// reproduce the identical shard layout. The strict `<` below keeps the
    /// first — lowest-indexed — shard among the least-loaded ones; a pinned
    /// test (`tie_break_assigns_to_the_lowest_shard_index`) guards it.
    fn least_loaded_shard(&self) -> u32 {
        let mut best = 0u32;
        let mut best_len = usize::MAX;
        for (i, shard) in self.shards.iter().enumerate() {
            let len = shard.len();
            if len < best_len {
                best = i as u32;
                best_len = len;
            }
        }
        best
    }

    /// Sums the per-shard phase counters into the engine-level statistics.
    /// Batch/event/match counts and wall-clock time are tracked at the
    /// sharded level (a shard-summed `filter_time` would count each core's
    /// time, not elapsed time).
    fn refresh_detail_stats(&mut self) {
        let mut trees = 0;
        let mut skipped = 0;
        let mut fulfilled = 0;
        let mut killed = 0;
        let mut candidates = 0;
        let mut simplified = 0;
        let mut eliminated = 0;
        let mut rejected = 0;
        let mut dag_nodes = 0;
        let mut shared = 0;
        let mut saved = 0;
        for shard in &self.shards {
            let s = shard.stats();
            trees += s.trees_evaluated;
            skipped += s.skipped_by_pmin;
            fulfilled += s.predicates_fulfilled;
            killed += s.killed_by_prefilter;
            candidates += s.stage2_candidates;
            simplified += s.subs_simplified;
            eliminated += s.nodes_eliminated;
            rejected += s.unsatisfiable_rejected;
            dag_nodes += s.dag_nodes;
            shared += s.shared_subtrees;
            saved += s.node_evals_saved;
        }
        self.stats.trees_evaluated = trees;
        self.stats.skipped_by_pmin = skipped;
        self.stats.predicates_fulfilled = fulfilled;
        self.stats.killed_by_prefilter = killed;
        self.stats.stage2_candidates = candidates;
        self.stats.subs_simplified = simplified;
        self.stats.nodes_eliminated = eliminated;
        self.stats.unsatisfiable_rejected = rejected;
        self.stats.dag_nodes = dag_nodes;
        self.stats.shared_subtrees = shared;
        self.stats.node_evals_saved = saved;
    }
}

impl<E: ShardEngine> MatchingEngine for ShardedEngine<E> {
    fn insert(&mut self, subscription: Subscription) {
        let id = subscription.id();
        let shard = match self.owner.get(&id) {
            // Replacement routes to the owning shard.
            Some(&shard) => shard,
            None => {
                let shard = self.least_loaded_shard();
                self.owner.insert(id, shard);
                shard
            }
        };
        self.shards[shard as usize].insert(subscription);
        if self.shards[shard as usize].get(id).is_none() {
            // The shard's registration-time analysis rejected the tree as
            // unsatisfiable (dropping any previous version); mirror that in
            // the owner map so `len()` stays truthful.
            self.owner.remove(&id);
        }
        self.refresh_detail_stats();
    }

    fn remove(&mut self, id: SubscriptionId) -> Option<Subscription> {
        let shard = self.owner.remove(&id)?;
        let removed = self.shards[shard as usize].remove(id);
        self.refresh_detail_stats();
        removed
    }

    fn get(&self, id: SubscriptionId) -> Option<&Subscription> {
        let shard = *self.owner.get(&id)?;
        self.shards[shard as usize].get(id)
    }

    fn match_batch(&mut self, batch: &EventBatch, sink: &mut dyn MatchSink) {
        let start = Instant::now();

        // Fan out: shard 0 on the calling thread, the rest on scoped
        // workers. Every worker has exclusive access to its shard (slab,
        // index, scratch) and its sink buffer; the batch is shared
        // read-only. A one-shard engine — and any batch too small to pay a
        // thread spawn for — never spawns and matches every shard inline,
        // which produces the identical merged output.
        if self.shards.len() == 1 || batch.len() <= SEQUENTIAL_BATCH_MAX {
            for (shard, shard_sink) in self.shards.iter_mut().zip(self.shard_sinks.iter_mut()) {
                shard.match_batch(batch, shard_sink);
            }
        } else {
            let (shard0, rest_shards) = self
                .shards
                .split_first_mut()
                .expect("engine has at least one shard");
            let (sink0, rest_sinks) = self
                .shard_sinks
                .split_first_mut()
                .expect("one sink per shard");
            std::thread::scope(|scope| {
                for (shard, shard_sink) in rest_shards.iter_mut().zip(rest_sinks.iter_mut()) {
                    scope.spawn(move || shard.match_batch(batch, shard_sink));
                }
                shard0.match_batch(batch, sink0);
            });
        }

        // Deterministic merge: per-shard streams are sorted by
        // (event index, id) and disjoint, so a k-way min-merge reproduces
        // the exact stream a single engine over the union would emit. (The
        // pair is unique, so the subscriber never decides a comparison.)
        sink.begin_batch(batch.len());
        let mut cursors = vec![0usize; self.shard_sinks.len()];
        let mut matches = 0u64;
        loop {
            let mut best: Option<(usize, (usize, SubscriptionId, SubscriberId))> = None;
            for (shard, &cursor) in cursors.iter().enumerate() {
                if let Some(&entry) = self.shard_sinks[shard].matches.get(cursor) {
                    if best.map_or(true, |(_, b)| entry < b) {
                        best = Some((shard, entry));
                    }
                }
            }
            let Some((shard, (event_index, id, subscriber))) = best else {
                break;
            };
            cursors[shard] += 1;
            matches += 1;
            sink.on_match(event_index, id, subscriber);
        }

        self.stats.batches_filtered += 1;
        self.stats.events_filtered += batch.len() as u64;
        self.stats.matches += matches;
        self.stats.filter_time += start.elapsed();
        self.refresh_detail_stats();
    }

    fn match_event_into(
        &mut self,
        event: &pubsub_core::EventMessage,
        matches: &mut Vec<SubscriptionId>,
    ) {
        let start = Instant::now();
        matches.clear();
        // Single events never pay the fan-out: each shard is matched inline
        // through its own allocation-free single-event path into one reused
        // buffer. The per-shard results are disjoint and id-sorted, so the
        // concatenation only needs one final sort to reproduce the exact
        // output of a single engine.
        for shard in &mut self.shards {
            shard.match_event_into(event, &mut self.event_scratch);
            matches.extend_from_slice(&self.event_scratch);
        }
        matches.sort_unstable();
        self.stats.batches_filtered += 1;
        self.stats.events_filtered += 1;
        self.stats.matches += matches.len() as u64;
        self.stats.filter_time += start.elapsed();
        self.refresh_detail_stats();
    }

    fn len(&self) -> usize {
        self.owner.len()
    }

    fn stats(&self) -> &FilterStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = FilterStats::new();
        for shard in &mut self.shards {
            shard.reset_stats();
        }
    }

    fn report(&self) -> EngineReport {
        let mut report = EngineReport {
            subscription_count: 0,
            association_count: 0,
            tree_bytes: 0,
            equality_constants: 0,
        };
        for shard in &self.shards {
            let r = shard.report();
            report.subscription_count += r.subscription_count;
            report.association_count += r.association_count;
            report.tree_bytes += r.tree_bytes;
            report.equality_constants += r.equality_constants;
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PerEventSink;
    use pubsub_core::{EventMessage, Expr, SubscriberId};

    fn sub(id: u64, expr: &Expr) -> Subscription {
        Subscription::from_expr(
            SubscriptionId::from_raw(id),
            SubscriberId::from_raw(id),
            expr,
        )
    }

    fn book_event(category: &str, price: i64) -> EventMessage {
        EventMessage::builder()
            .attr("category", category)
            .attr("price", price)
            .build()
    }

    #[test]
    fn shards_are_balanced_and_routed() {
        let mut e = ShardedEngine::with_shards(4);
        assert_eq!(e.shard_count(), 4);
        for i in 0..10u64 {
            e.insert(sub(i, &Expr::eq("category", "books")));
        }
        assert_eq!(e.len(), 10);
        let lens = e.shard_lens();
        assert_eq!(lens.iter().sum::<usize>(), 10);
        assert!(
            lens.iter().all(|&l| l == 2 || l == 3),
            "unbalanced: {lens:?}"
        );
        // Lookup and replacement route to the owning shard.
        assert!(e.get(SubscriptionId::from_raw(7)).is_some());
        e.insert(sub(7, &Expr::eq("category", "music")));
        assert_eq!(e.len(), 10);
        assert_eq!(e.shard_lens(), lens, "replacement moved a subscription");
        assert!(e.remove(SubscriptionId::from_raw(7)).is_some());
        assert!(e.remove(SubscriptionId::from_raw(7)).is_none());
        assert_eq!(e.len(), 9);
    }

    #[test]
    fn tie_break_assigns_to_the_lowest_shard_index() {
        // From an empty engine, every shard has the same load, so inserts
        // must round-robin 0, 1, 2, 3 — each tie resolved to the lowest
        // shard index.
        let mut e = ShardedEngine::with_shards(4);
        for i in 0..8u64 {
            e.insert(sub(i, &Expr::eq("category", "books")));
            assert_eq!(
                e.shard_of(SubscriptionId::from_raw(i)),
                Some((i % 4) as usize),
                "insert {i}"
            );
        }
        // After removing one subscription from shard 2, shard 2 is the
        // unique least-loaded shard and must win outright...
        assert!(e.remove(SubscriptionId::from_raw(2)).is_some());
        e.insert(sub(100, &Expr::eq("category", "music")));
        assert_eq!(e.shard_of(SubscriptionId::from_raw(100)), Some(2));
        // ...and on the next full tie, assignment returns to shard 0.
        e.insert(sub(101, &Expr::eq("category", "music")));
        assert_eq!(e.shard_of(SubscriptionId::from_raw(101)), Some(0));
        assert_eq!(e.shard_of(SubscriptionId::from_raw(999)), None);
    }

    #[test]
    fn replayed_subscription_streams_reproduce_identical_layouts() {
        // Wire-replayed registration (the broker's Subscribe/Unsubscribe
        // frames) must land every subscription on the same shard on every
        // replay, including under churn.
        let build = || {
            let mut e = ShardedEngine::with_shards(3);
            for i in 0..40u64 {
                e.insert(sub(i, &Expr::le("price", (i % 20) as i64)));
            }
            for i in (0..40u64).step_by(3) {
                e.remove(SubscriptionId::from_raw(i));
            }
            for i in (0..40u64).step_by(6) {
                e.insert(sub(i, &Expr::eq("category", "books")));
            }
            e
        };
        let a = build();
        let b = build();
        assert_eq!(a.shard_lens(), b.shard_lens());
        for i in 0..40u64 {
            let id = SubscriptionId::from_raw(i);
            assert_eq!(a.shard_of(id), b.shard_of(id), "subscription {i}");
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let e = ShardedEngine::with_shards(0);
        assert_eq!(e.shard_count(), 1);
    }

    #[test]
    fn matches_agree_with_counting_engine_across_shard_counts() {
        let exprs: Vec<Expr> = (0..40)
            .map(|i| match i % 4 {
                0 => Expr::eq("category", if i % 8 == 0 { "books" } else { "music" }),
                1 => Expr::le("price", (i * 3 % 50) as i64),
                2 => Expr::and(vec![
                    Expr::eq("category", "books"),
                    Expr::ge("price", (i % 30) as i64),
                ]),
                _ => Expr::not(Expr::eq("category", "games")),
            })
            .collect();
        let batch: EventBatch = (0..25)
            .map(|i| book_event(["books", "music", "games"][i % 3], (i as i64 * 7) % 60))
            .collect();

        let mut reference = CountingEngine::new();
        for (i, expr) in exprs.iter().enumerate() {
            reference.insert(sub(i as u64, expr));
        }
        let mut expected = PerEventSink::new();
        reference.match_batch(&batch, &mut expected);

        for shards in [1usize, 2, 3, 8] {
            let mut sharded = ShardedEngine::with_shards(shards);
            for (i, expr) in exprs.iter().enumerate() {
                sharded.insert(sub(i as u64, expr));
            }
            let mut got = PerEventSink::new();
            sharded.match_batch(&batch, &mut got);
            assert_eq!(got.len(), expected.len());
            for event in 0..batch.len() {
                assert_eq!(
                    got.for_event(event),
                    expected.for_event(event),
                    "divergence at {shards} shards, event {event}"
                );
            }
        }
    }

    #[test]
    fn empty_batch_and_empty_engine_are_safe() {
        let mut e = ShardedEngine::with_shards(4);
        let mut sink = PerEventSink::new();
        // Empty slab, non-empty batch.
        let batch: EventBatch = std::iter::once(book_event("books", 1)).collect();
        e.match_batch(&batch, &mut sink);
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.total_matches(), 0);
        // Non-empty slab, empty batch.
        e.insert(sub(1, &Expr::eq("category", "books")));
        e.match_batch(&EventBatch::new(), &mut sink);
        assert_eq!(sink.len(), 0);
        assert_eq!(e.stats().batches_filtered, 2);
        assert_eq!(e.stats().events_filtered, 1);
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let mut e = ShardedEngine::with_shards(2);
        e.insert(sub(1, &Expr::eq("category", "books")));
        e.insert(sub(2, &Expr::eq("category", "books")));
        let batch: EventBatch = vec![book_event("books", 1), book_event("music", 2)]
            .into_iter()
            .collect();
        let mut sink = PerEventSink::new();
        e.match_batch(&batch, &mut sink);
        assert_eq!(e.stats().matches, 2);
        assert_eq!(e.stats().events_filtered, 2);
        assert_eq!(e.stats().batches_filtered, 1);
        assert!(e.stats().predicates_fulfilled >= 2);
        assert!(e.stats().filter_time.as_nanos() > 0);
        e.reset_stats();
        assert_eq!(e.stats().matches, 0);
        assert_eq!(e.stats().predicates_fulfilled, 0);
        // Report aggregates shard contents.
        let report = e.report();
        assert_eq!(report.subscription_count, 2);
        assert_eq!(report.association_count, 2);
    }

    #[test]
    fn single_event_path_agrees_with_counting_and_reuses_scratch() {
        let mut sharded = ShardedEngine::with_shards(3);
        let mut counting = CountingEngine::new();
        for i in 0..30u64 {
            let expr = if i % 2 == 0 {
                Expr::eq("category", "books")
            } else {
                Expr::le("price", (i % 20) as i64)
            };
            sharded.insert(sub(i, &expr));
            counting.insert(sub(i, &expr));
        }
        let events: Vec<EventMessage> = (0..10)
            .map(|i| book_event(if i % 2 == 0 { "books" } else { "music" }, i))
            .collect();
        let mut buf = Vec::new();
        // Warm-up pass sizes the reused buffers.
        for event in &events {
            sharded.match_event_into(event, &mut buf);
            assert_eq!(buf, counting.match_event(event));
        }
        let capacity = sharded.scratch_capacity();
        let grows = sharded.scratch_grows();
        // Steady state: the per-event path grows nothing on any shard or in
        // the engine's own event buffer.
        for _ in 0..3 {
            for event in &events {
                sharded.match_event_into(event, &mut buf);
            }
        }
        assert_eq!(sharded.scratch_capacity(), capacity);
        assert_eq!(sharded.scratch_grows(), grows);
    }

    #[test]
    fn engine_kind_builds_the_requested_engine() {
        assert_eq!(EngineKind::default(), EngineKind::Counting);
        let engine = EngineKind::Counting.build();
        assert!(matches!(engine, AnyEngine::Counting(_)));
        assert_eq!(engine.kind(), EngineKind::Counting);
        let engine = EngineKind::Sharded(3).build_with_capacity(100);
        assert_eq!(engine.kind(), EngineKind::Sharded(3));
        // Shard count 0 resolves to the host's parallelism (at least 1).
        let engine = EngineKind::Sharded(0).build();
        match engine.kind() {
            EngineKind::Sharded(n) => assert!(n >= 1),
            other => panic!("expected sharded, got {other:?}"),
        }
        let engine = EngineKind::ATree.build();
        assert!(matches!(engine, AnyEngine::ATree(_)));
        assert_eq!(engine.kind(), EngineKind::ATree);
        let engine = EngineKind::ShardedATree(3).build_with_capacity(100);
        assert!(matches!(engine, AnyEngine::ShardedATree(_)));
        assert_eq!(engine.kind(), EngineKind::ShardedATree(3));
        let engine = EngineKind::ShardedATree(0).build();
        match engine.kind() {
            EngineKind::ShardedATree(n) => assert!(n >= 1),
            other => panic!("expected sharded atree, got {other:?}"),
        }
    }

    #[test]
    fn config_and_hint_propagate_to_every_shard() {
        use crate::PrefilterMode;
        let config = EngineConfig::with_prefilter(PrefilterMode::On);
        let mut e = ShardedEngine::with_config_shards_and_capacity(config, 3, 0);
        assert_eq!(e.config().prefilter, PrefilterMode::On);
        // Forced on: active on every shard even while empty.
        assert!(e.prefilter_enabled());
        e.set_config(EngineConfig::with_prefilter(PrefilterMode::Off));
        assert_eq!(e.config().prefilter, PrefilterMode::Off);
        assert!(!e.prefilter_enabled());
        // The kind-level constructor forwards the config too, on both
        // counting arms.
        for kind in [EngineKind::Counting, EngineKind::Sharded(2)] {
            let mut any = kind.build_with_config(config);
            assert_eq!(any.config().prefilter, PrefilterMode::On);
            assert!(any.prefilter_enabled());
            any.set_config(EngineConfig::with_prefilter(PrefilterMode::Off));
            assert!(!any.prefilter_enabled());
            any.set_discrimination_hint(None);
        }
        // The A-Tree arms carry the config but never run the stage-0
        // pre-filter (the DAG evaluates every touched node exactly).
        for kind in [EngineKind::ATree, EngineKind::ShardedATree(2)] {
            let mut any = kind.build_with_config(config);
            assert_eq!(any.config().prefilter, PrefilterMode::On);
            assert!(!any.prefilter_enabled());
            any.set_config(EngineConfig::with_prefilter(PrefilterMode::Off));
            assert_eq!(any.config().prefilter, PrefilterMode::Off);
            any.set_discrimination_hint(None);
        }
    }

    #[test]
    fn sharded_atree_agrees_with_counting_across_shard_counts() {
        let exprs: Vec<Expr> = (0..40)
            .map(|i| match i % 4 {
                0 => Expr::eq("category", if i % 8 == 0 { "books" } else { "music" }),
                1 => Expr::le("price", (i * 3 % 50) as i64),
                2 => Expr::and(vec![
                    Expr::eq("category", "books"),
                    Expr::ge("price", (i % 30) as i64),
                ]),
                _ => Expr::not(Expr::eq("category", "games")),
            })
            .collect();
        let batch: EventBatch = (0..25)
            .map(|i| book_event(["books", "music", "games"][i % 3], (i as i64 * 7) % 60))
            .collect();

        let mut reference = CountingEngine::new();
        for (i, expr) in exprs.iter().enumerate() {
            reference.insert(sub(i as u64, expr));
        }
        let mut expected = PerEventSink::new();
        reference.match_batch(&batch, &mut expected);

        for shards in [1usize, 2, 3, 8] {
            let mut sharded = ShardedEngine::<crate::ATreeEngine>::with_shard_engine(
                EngineConfig::default(),
                shards,
                0,
            );
            for (i, expr) in exprs.iter().enumerate() {
                sharded.insert(sub(i as u64, expr));
            }
            let mut got = PerEventSink::new();
            sharded.match_batch(&batch, &mut got);
            assert_eq!(got.len(), expected.len());
            for event in 0..batch.len() {
                assert_eq!(
                    got.for_event(event),
                    expected.for_event(event),
                    "divergence at {shards} atree shards, event {event}"
                );
            }
            // The DAG gauges surface through the sharded aggregation.
            assert!(sharded.stats().dag_nodes > 0);
            assert!(sharded.stats().trees_evaluated > 0);
        }
    }

    #[test]
    fn any_engine_delegates_the_full_engine_api() {
        let mut engine = EngineKind::Sharded(2).build();
        engine.insert(sub(1, &Expr::eq("category", "books")));
        engine.insert(sub(2, &Expr::le("price", 10i64)));
        assert_eq!(engine.len(), 2);
        assert!(engine.get(SubscriptionId::from_raw(1)).is_some());
        assert_eq!(engine.subscriptions().count(), 2);
        let hits = engine.match_event(&book_event("books", 5));
        assert_eq!(
            hits,
            vec![SubscriptionId::from_raw(1), SubscriptionId::from_raw(2)]
        );
        assert_eq!(engine.report().subscription_count, 2);
        assert!(engine.stats().matches > 0);
        engine.reset_stats();
        assert_eq!(engine.stats().matches, 0);
        assert!(engine.remove(SubscriptionId::from_raw(1)).is_some());
        assert_eq!(engine.len(), 1);
    }
}
