//! The counting matcher with per-attribute predicate indexes and the `pmin`
//! shortcut, organised as a staged pipeline:
//!
//! * **Stage 1 — index probing**: fulfilled predicates are resolved through
//!   the [`AttributeIndex`], one event at a time (a batch is a loop over its
//!   events). A subscription with an access clause (see below) is registered
//!   under that clause alone, so it is emitted only for events that fulfil
//!   it; every other subscription has all its leaves registered.
//! * **Stage 0 — pre-filter** ([`PreFilter`]), applied at a slot's first
//!   emission of an event: every test of the slot's compiled residual runs
//!   (required attributes present, required equalities and exact bounds
//!   held). A candidate that fails one is killed. A gated candidate whose
//!   tree is its access clause plus compiled leaves — an *exact* slot —
//!   matches when it passes, and is emitted straight away.
//! * **Stage 2 — evaluation**: every other surviving candidate's tree is
//!   evaluated against the event itself, through a dense per-event
//!   `AttrId → value` view, with the leaves of its access clause taken as
//!   true. An ungated candidate is evaluated only once its emissions reach
//!   the tree's `pmin`. Subscriptions with `pmin == 0` are evaluated for
//!   every event.
//!
//! Every stage is semantics-preserving: match output is byte-identical with
//! any [`EngineConfig`], stages only change how much work it takes.
//!
//! ## Access clauses
//!
//! A subscription with a required equality is only worth looking at for
//! events that fulfil it. Following the *access predicates* of Fabret et al.
//! (SIGMOD 2001), the engine indexes such a subscription under **one**
//! required clause alone. That clause is a required equality leaf with an
//! equality bucket (`title = T`), or else a required `Or` of equalities on
//! one attribute (`category ∈ {a, b}`) every child of which has a bucket or
//! can never be true (a `NaN` constant). Among them the engine picks the one
//! with the lowest [`DiscriminationHint`] score, or without a hint the one
//! whose equality buckets currently hold the fewest entries. A subscription
//! without such a clause (pure ranges, `Not`-only trees, a `NaN` constant,
//! an equality on an int beyond ±2^53) is *ungated*: all its leaves stay
//! registered and stage 2 counts them against `pmin`.
//!
//! The rule that makes gating exact is that the index holds exactly the
//! leaves whose firing makes the access clause true: stage 2 takes an
//! emission of a gated slot as proof that its clause holds. A clause is a
//! range of the tree's preorder node array — the leaf, or the group's
//! children, which are consecutive leaves — so stage 2 tells an access leaf
//! by two compares.

use crate::config::EngineConfig;
use crate::index::{equality_key, AttributeIndex, EqKey, PredicateKey, SubSlot};
use crate::prefilter::{for_each_required_item, PreFilter, RequiredItem, Verdict};
use crate::{EngineReport, FilterStats, MatchSink, MatchingEngine};
use pubsub_core::{
    AttrId, EventBatch, EventMessage, NodeId, NodeKind, Predicate, SubscriberId, Subscription,
    SubscriptionId, SubscriptionTree, Value,
};
use selectivity::DiscriminationHint;
use std::collections::HashMap;
use std::ops::Range;
use std::time::Instant;

/// Sentinel meaning "this slot is not in the zero-pmin list".
const NOT_IN_ZERO: u32 = u32::MAX;

/// Per-subscription bookkeeping kept by the engine, one per occupied slot.
#[derive(Debug)]
struct SlotEntry {
    subscription: Subscription,
    /// The clause the subscription is indexed under; `None` when every leaf
    /// is (an ungated subscription).
    access: Option<AccessClause>,
    /// `pmin` of the current tree, cached at insertion time.
    pmin: u32,
}

impl SlotEntry {
    /// Stage 2's one evaluator, for every kind of candidate: the tree
    /// against the event `pairs` loaded into `view`. An emitted gated slot's
    /// access clause holds, so its leaves are taken as true — a fired leaf
    /// is, and an equality group is true when one child fired (taking every
    /// child as true changes no other node).
    fn matches(&self, view: &EventView, pairs: &[(AttrId, Value)]) -> bool {
        let fired = self.access.as_ref().map_or(0..0, |a| a.nodes.clone());
        self.subscription.tree().evaluate_leaves(&mut |node, p| {
            fired.contains(&node.0)
                || view
                    .get(pairs, p.attr_id())
                    .is_some_and(|value| p.evaluate_value(value))
        })
    }
}

/// The one required clause a gated subscription is indexed under.
#[derive(Debug, PartialEq, Eq)]
struct AccessClause {
    /// The clause's leaves as a node range: the leaf itself, or the
    /// children of an equality group. Those that can be true (all but `NaN`
    /// constants) are registered in the index, and any one of them firing
    /// makes the clause true.
    nodes: Range<u32>,
}

/// Picks the access clause of `tree` (see the [module docs](self)), or
/// `None` when it has none: lowest hint score first (an equality group
/// scores its attribute's score once per constant), then fewest entries in
/// the clause's equality buckets of `index`, then lowest attribute id and
/// node.
fn access_clause(
    tree: &SubscriptionTree,
    index: &AttributeIndex,
    hint: Option<&DiscriminationHint>,
) -> Option<AccessClause> {
    // (score, (bucket entries, attribute, first node)) of the best clause so
    // far, and the clause itself.
    let mut best: Option<(f64, (usize, u32, NodeId), AccessClause)> = None;
    for_each_required_item(tree, &mut Vec::new(), |item| {
        let (nodes, leaves) = match item {
            RequiredItem::Leaf(node, p) => (
                node.0..node.0 + 1,
                equality_key(p).map(|key| vec![(node, key)]),
            ),
            RequiredItem::AnyEq(_, or) => {
                let group = tree.subtree_range(or);
                let children = group.start as u32 + 1..group.end as u32;
                (children, group_leaves(tree, or))
            }
        };
        let Some(leaves) = leaves else {
            return;
        };
        let Some(&(first, _)) = leaves.first() else {
            return;
        };
        let attr = item.attr();
        let entries = leaves
            .iter()
            .map(|(_, key)| index.equality_entries(attr, key))
            .sum();
        let score = hint
            .and_then(|h| h.score(attr))
            .map_or(f64::INFINITY, |s| s * leaves.len() as f64);
        let rank = (entries, attr.raw(), first);
        let better = best.as_ref().map_or(true, |(s, r, _)| {
            score.total_cmp(s).then(rank.cmp(r)).is_lt()
        });
        if better {
            best = Some((score, rank, AccessClause { nodes }));
        }
    });
    best.map(|(_, _, clause)| clause)
}

/// The leaves of the required equality group `or`, with their bucket keys,
/// or `None` when the group cannot be an access clause. A child with a `NaN`
/// constant can never be true, so it is left out. A child without a bucket
/// for any other reason (an int beyond ±2^53, kept in the scan list) can be
/// true while no bucketed sibling fires, so the group cannot gate.
fn group_leaves(tree: &SubscriptionTree, or: NodeId) -> Option<Vec<(NodeId, EqKey)>> {
    let mut leaves = Vec::new();
    for node in tree.children(or) {
        let Some(NodeKind::Predicate(p)) = tree.node(node).map(|n| n.kind()) else {
            return None;
        };
        match equality_key(p) {
            Some(key) => leaves.push((node, key)),
            None if never_true(p) => {}
            None => return None,
        }
    }
    Some(leaves)
}

/// An equality with a `NaN` constant, which no value fulfils.
fn never_true(p: &Predicate) -> bool {
    matches!(p.constant(), Value::Float(f) if f.is_nan())
}

/// The predicate leaves stage 1 reaches `subscription` through: those of its
/// access clause that can be true, or all of them without one.
fn indexed_leaves<'a>(
    subscription: &'a Subscription,
    access: Option<&'a AccessClause>,
) -> impl Iterator<Item = (NodeId, &'a Predicate)> {
    subscription.tree().predicates().filter(move |(node, p)| {
        access.map_or(true, |a| a.nodes.contains(&node.0) && !never_true(p))
    })
}

/// Dense view of one event: `AttrId::index()` → position of the attribute's
/// pair in the event's resolved pairs. Entries left over from earlier events
/// are told apart by the attribute stored at the position, so loading an
/// event writes its own attributes and nothing else.
#[derive(Debug, Default)]
struct EventView {
    positions: Vec<u32>,
}

impl EventView {
    fn load(&mut self, pairs: &[(AttrId, Value)]) {
        for (pos, (attr, _)) in pairs.iter().enumerate() {
            let i = attr.index();
            if self.positions.len() <= i {
                self.positions.resize(i + 1, u32::MAX);
            }
            self.positions[i] = pos as u32;
        }
    }

    /// The event's value of `attr`; valid for the `pairs` last loaded.
    #[inline]
    fn get<'a>(&self, pairs: &'a [(AttrId, Value)], attr: AttrId) -> Option<&'a Value> {
        let &pos = self.positions.get(attr.index())?;
        match pairs.get(pos as usize) {
            Some((a, value)) if *a == attr => Some(value),
            _ => None,
        }
    }
}

/// Reusable per-event scratch. All buffers are indexed by [`SubSlot`] and
/// grow only when subscriptions are added — after warmup, matching an event
/// performs no heap allocation here.
#[derive(Debug, Default)]
struct MatchScratch {
    /// Fulfilled-predicate count per slot, valid only where `gen` carries
    /// the current generation; `KILLED` or `DECIDED` once the stage-0
    /// pre-filter killed or matched the slot for the current event, so its
    /// tests run once per touched slot and later emissions take one branch.
    counts: Vec<u32>,
    /// Generation stamp per slot; stamping replaces clearing the counters.
    gen: Vec<u32>,
    /// The generation of the event currently being matched.
    current_gen: u32,
    /// Slots with at least one fulfilled predicate this event, in first-touch
    /// order.
    touched: Vec<u32>,
    /// Reusable per-event match buffer: each event's `(id, subscriber)`
    /// matches are sorted here before they are emitted.
    match_buf: Vec<(SubscriptionId, SubscriberId)>,
    /// Stage-0 fingerprint of the event being matched.
    fingerprint: Vec<u64>,
    /// The event gated candidates are evaluated against.
    view: EventView,
    /// Number of times any scratch buffer had to grow (reallocate). Stable
    /// across calls in steady state; tests assert on it.
    grows: u64,
}

/// The `MatchScratch::counts` entry of a slot killed by stage 0.
const KILLED: u32 = u32::MAX;
/// The `MatchScratch::counts` entry of an exact slot stage 0 matched. An
/// equality group with twin constants (`= 3`, `= 3.0`) emits its slot twice
/// for one event; the match is pushed once.
const DECIDED: u32 = u32::MAX - 1;

impl MatchScratch {
    /// Starts a new event: bumps the generation and sizes the per-slot
    /// buffers to cover `slots` entries.
    fn advance(&mut self, slots: usize) {
        if self.counts.len() < slots {
            // Growth is accounted for centrally in `match_events` via the
            // before/after capacity comparison, not here, so one reallocation
            // is never counted twice.
            self.counts.resize(slots, 0);
            self.gen.resize(slots, 0);
        }
        self.current_gen = self.current_gen.wrapping_add(1);
        if self.current_gen == 0 {
            // Generation wrap (once per 2³² events): physically reset the
            // stamps so ancient generations cannot alias the new one.
            self.gen.fill(0);
            self.current_gen = 1;
        }
        self.touched.clear();
    }

    /// Total number of scratch elements currently allocated.
    fn capacity(&self) -> usize {
        self.counts.capacity()
            + self.gen.capacity()
            + self.touched.capacity()
            + self.match_buf.capacity()
            + self.fingerprint.capacity()
            + self.view.positions.capacity()
    }
}

/// The production matching engine.
///
/// Subscriptions are registered in an [`AttributeIndex`]: a subscription
/// with an access clause under that clause alone, any other one under every
/// predicate leaf. Matching an event proceeds in two phases:
///
/// 1. **Predicate phase** — the index reports every fulfilled registered
///    predicate as a `(subscription slot, leaf node)` pair. At its slot's
///    first emission the stage-0 residual kills it, matches it (an exact
///    slot), or makes it a candidate; the engine bumps a flat per-slot
///    counter.
/// 2. **Subscription phase** — every candidate's tree is evaluated against
///    the event, through one dense per-event view of it, with a gated
///    slot's access leaves taken as true. An ungated candidate is evaluated
///    only if its number of fulfilled leaves reaches the tree's `pmin`.
///
/// Subscriptions are stored in a slab: each [`SubscriptionId`] maps to a dense
/// [`SubSlot`] so that all per-event state lives in flat arrays. Counters are
/// generation-stamped — "clearing" them between events is a single integer
/// increment — which together with the reusable `touched` list makes the
/// steady-state hot path allocation-free.
///
/// The primary entry point is `match_batch`: the scratch state — counters,
/// stamps, touch list, event view, and the per-event match buffer — stays hot
/// across the whole batch, with a single generation bump per event and one
/// timestamp pair per batch, so a warmed-up batch performs no heap
/// allocation at all regardless of its size.
///
/// The `pmin` shortcut is exactly what makes the paper's throughput heuristic
/// meaningful: pruning that *raises* `pmin` makes the subscription cheaper to
/// filter because it is evaluated for fewer events.
///
/// Matches are returned sorted by subscription id, so results are
/// reproducible regardless of registration order or slot assignment.
#[derive(Debug, Default)]
pub struct CountingEngine {
    /// Slab of registered subscriptions, indexed by slot.
    slots: Vec<Option<SlotEntry>>,
    /// Slots freed by removals, reused by later insertions.
    free_slots: Vec<u32>,
    /// Identity → slot mapping, touched only on registration/removal.
    id_to_slot: HashMap<SubscriptionId, u32>,
    /// Slots of subscriptions with `pmin == 0` (only possible with
    /// negations). They can match events that fulfil none of their predicates
    /// and therefore have to be evaluated for every event.
    zero_pmin: Vec<u32>,
    /// Position of each slot inside `zero_pmin` (or [`NOT_IN_ZERO`]), for
    /// O(1) membership updates instead of an O(n) scan.
    zero_pmin_pos: Vec<u32>,
    index: AttributeIndex,
    /// Predicate leaves over all registered trees — the paper's
    /// predicate/subscription associations, whichever of them the index
    /// holds.
    associations: usize,
    scratch: MatchScratch,
    stats: FilterStats,
    /// Staged-pipeline configuration (stage-0 mode).
    config: EngineConfig,
    /// Sampled discrimination hint guiding the choice of access clauses, if
    /// any.
    hint: Option<DiscriminationHint>,
    /// Compiled stage-0 pre-filter. Follows `insert`/`remove` one
    /// subscription at a time once built;
    /// [`refresh_prefilter`](Self::refresh_prefilter) rebuilds it in full at
    /// the start of a match when it says it is not.
    prefilter: PreFilter,
}

impl CountingEngine {
    /// Creates an empty engine with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty engine with capacity for roughly `n` subscriptions.
    pub fn with_capacity(n: usize) -> Self {
        Self::with_config_and_capacity(EngineConfig::default(), n)
    }

    /// Creates an empty engine with the given staged-pipeline configuration.
    pub fn with_config(config: EngineConfig) -> Self {
        Self::with_config_and_capacity(config, 0)
    }

    /// Creates an empty engine with the given configuration and capacity for
    /// roughly `n` subscriptions.
    pub fn with_config_and_capacity(config: EngineConfig, n: usize) -> Self {
        Self {
            slots: Vec::with_capacity(n),
            id_to_slot: HashMap::with_capacity(n),
            config,
            ..Self::default()
        }
    }

    /// The engine's staged-pipeline configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Replaces the staged-pipeline configuration. Takes effect at the next
    /// match call; match output is unaffected (only the work done changes).
    pub fn set_config(&mut self, config: EngineConfig) {
        if self.config != config {
            self.config = config;
            self.prefilter.invalidate();
        }
    }

    /// Installs (or clears) the sampled discrimination hint that ranks the
    /// access clauses of subscriptions inserted from now on. Without a hint,
    /// access clauses go to the emptiest equality buckets.
    pub fn set_discrimination_hint(&mut self, hint: Option<DiscriminationHint>) {
        self.hint = hint;
    }

    /// Whether the stage-0 pre-filter is currently active (after resolving
    /// [`PrefilterMode::Auto`](crate::PrefilterMode::Auto) against the
    /// registered population).
    pub fn prefilter_enabled(&mut self) -> bool {
        self.refresh_prefilter();
        self.prefilter.enabled()
    }

    /// Rebuilds the stage-0 pre-filter in full when it does not reflect the
    /// population: never built (bulk load compiles once, here), configuration
    /// changed, or due for its amortised re-rank.
    fn refresh_prefilter(&mut self) {
        if self.prefilter.is_built() {
            return;
        }
        let Self {
            slots,
            prefilter,
            config,
            ..
        } = self;
        prefilter.rebuild(slots.len(), occupied_slots(slots), config.prefilter);
    }

    /// Iterates over the registered subscriptions in slot order.
    pub fn subscriptions(&self) -> impl Iterator<Item = &Subscription> {
        self.slots.iter().flatten().map(|entry| &entry.subscription)
    }

    /// Direct access to the underlying predicate index (read-only), mainly
    /// for inspection in tests and benchmarks.
    pub fn index(&self) -> &AttributeIndex {
        &self.index
    }

    /// Size of the reusable scratch currently allocated for the per-event
    /// match state (per-slot elements; an opaque grow-only figure). Constant
    /// across match calls once the engine has warmed up (no subscriptions
    /// added in between).
    pub fn scratch_capacity(&self) -> usize {
        self.scratch.capacity()
    }

    /// Number of times the per-event scratch had to grow since construction.
    /// In steady state (matching without re-registration) this counter does
    /// not move; the regression tests assert exactly that.
    pub fn scratch_grows(&self) -> u64 {
        self.scratch.grows
    }

    fn alloc_slot(&mut self) -> u32 {
        if let Some(slot) = self.free_slots.pop() {
            return slot;
        }
        let slot = u32::try_from(self.slots.len()).expect("subscription slab exceeds u32 range");
        self.slots.push(None);
        if self.zero_pmin_pos.len() < self.slots.len() {
            self.zero_pmin_pos.resize(self.slots.len(), NOT_IN_ZERO);
        }
        slot
    }

    /// Undoes everything registering `entry` in `slot` did, except freeing
    /// the slot itself.
    fn unregister(&mut self, slot: u32, entry: &SlotEntry) {
        for (node, predicate) in indexed_leaves(&entry.subscription, entry.access.as_ref()) {
            self.index
                .remove(predicate, PredicateKey::new(SubSlot(slot), node));
        }
        self.associations -= entry.subscription.tree().predicate_count();
        self.prefilter.remove(slot, &entry.subscription);
        self.zero_pmin_remove(slot);
    }

    fn zero_pmin_insert(&mut self, slot: u32) {
        if self.zero_pmin_pos[slot as usize] != NOT_IN_ZERO {
            return;
        }
        self.zero_pmin_pos[slot as usize] =
            u32::try_from(self.zero_pmin.len()).expect("zero-pmin list exceeds u32 range");
        self.zero_pmin.push(slot);
    }

    /// Matches one event — given as its resolved `(AttrId, Value)` pairs —
    /// into `matches` (replacing its contents, id-sorted).
    ///
    /// This is the per-event core of `match_events`; it takes the engine's
    /// fields piecewise so the loop there can hold the borrows across
    /// events. Stage 0 is applied inline: the event is fingerprinted once up
    /// front, and each slot's verdict is memoised in a generation-stamped
    /// array so it costs one branch after first touch. An exact slot's match
    /// is pushed there and then; only the other survivors reach stage 2.
    #[allow(clippy::too_many_arguments)] // engine fields passed piecewise, see above
    fn match_one(
        slots: &[Option<SlotEntry>],
        zero_pmin: &[u32],
        index: &AttributeIndex,
        scratch: &mut MatchScratch,
        stats: &mut FilterStats,
        prefilter: &PreFilter,
        pairs: &[(AttrId, Value)],
        matches: &mut Vec<(SubscriptionId, SubscriberId)>,
    ) {
        matches.clear();
        let resolved = || pairs.iter().map(|(attr, value)| (*attr, value));

        // Stage 0: fingerprint the event once; the residual's tests run
        // lazily per touched slot inside the probe callback below.
        scratch.advance(slots.len());
        let MatchScratch {
            counts,
            gen,
            current_gen,
            touched,
            fingerprint,
            view,
            ..
        } = scratch;
        let current_gen = *current_gen;
        let pf_on = prefilter.enabled();
        let ev_mask = if pf_on {
            prefilter.fingerprint(resolved(), fingerprint)
        } else {
            0
        };

        // Stage 1: resolve fulfilled predicates through the index and count
        // them per slot in flat generation-stamped arrays. On a slot's first
        // touch stage 0 decides its fate for the whole event: killed,
        // matched, or a stage-2 candidate. (The index emits a leaf at most
        // once per event: an event carries each attribute once.)
        let mut fulfilled_count = 0u64;
        let mut killed_count = 0u64;
        index.fulfilled_pairs(resolved(), |key: PredicateKey| {
            let s = key.slot.index();
            if gen[s] != current_gen {
                gen[s] = current_gen;
                let verdict = if pf_on {
                    prefilter.verdict(s, ev_mask, fingerprint)
                } else {
                    Verdict::Candidate
                };
                match verdict {
                    Verdict::Killed => {
                        counts[s] = KILLED;
                        killed_count += 1;
                        return;
                    }
                    Verdict::Matched => {
                        counts[s] = DECIDED;
                        fulfilled_count += 1;
                        if let Some(entry) = &slots[s] {
                            let sub = &entry.subscription;
                            matches.push((sub.id(), sub.subscriber()));
                        }
                        return;
                    }
                    Verdict::Candidate => {}
                }
                counts[s] = 0;
                touched.push(key.slot.0);
            } else if counts[s] >= DECIDED {
                match counts[s] {
                    KILLED => killed_count += 1,
                    _ => fulfilled_count += 1,
                }
                return;
            }
            counts[s] += 1;
            fulfilled_count += 1;
        });
        stats.predicates_fulfilled += fulfilled_count;
        stats.killed_by_prefilter += killed_count;

        // Stage 2: evaluate the candidate subscriptions (ungated ones only
        // once they reach their `pmin`) and the always-evaluated zero-`pmin`
        // subscriptions against the event, and emit id-sorted matches, stage
        // 0's among them.
        stats.stage2_candidates += touched.len() as u64;
        // The event view is loaded for the first tree evaluated, at most
        // once per event: an event without candidates never pays for it.
        let mut view_loaded = false;
        let mut evaluate = |entry: &SlotEntry| {
            if !view_loaded {
                view.load(pairs);
                view_loaded = true;
            }
            entry.matches(view, pairs)
        };
        for &slot in touched.iter() {
            let entry = slots[slot as usize]
                .as_ref()
                .expect("touched slots are occupied");
            if entry.access.is_none() && counts[slot as usize] < entry.pmin {
                stats.skipped_by_pmin += 1;
                continue;
            }
            stats.trees_evaluated += 1;
            if evaluate(entry) {
                matches.push((entry.subscription.id(), entry.subscription.subscriber()));
            }
        }
        // Subscriptions with pmin == 0 (possible only with negations) are
        // evaluated for every event, because they can match an event that
        // fulfils none of their predicates. Slots already touched above were
        // evaluated there (pmin 0 always passes the count check). (They are
        // never gated, nor killed by stage 0: a required leaf implies
        // pmin ≥ 1.)
        for &slot in zero_pmin.iter() {
            if gen[slot as usize] == current_gen {
                continue;
            }
            let entry = slots[slot as usize]
                .as_ref()
                .expect("zero-pmin slots are occupied");
            stats.trees_evaluated += 1;
            if evaluate(entry) {
                matches.push((entry.subscription.id(), entry.subscription.subscriber()));
            }
        }

        // Deterministic output: emit in subscription-id order, independent of
        // slot assignment and probe emission order.
        matches.sort_unstable_by_key(|&(id, _)| id);
        stats.matches += matches.len() as u64;
    }

    /// Matches `events`, each given as its resolved pairs, one after the
    /// other as one batch, handing each event's id-sorted
    /// `(id, subscriber)` matches to `emit` with the event's position.
    fn match_events<'a>(
        &mut self,
        events: impl ExactSizeIterator<Item = &'a [(AttrId, Value)]>,
        mut emit: impl FnMut(usize, &[(SubscriptionId, SubscriberId)]),
    ) {
        let start = Instant::now();
        let count = events.len() as u64;
        // Close the mutation epoch: merge pending interval insertions once,
        // so every probe of the batch takes the sorted fast path, and rebuild
        // the stage-0 pre-filter if it is due.
        self.index.ensure_built();
        self.refresh_prefilter();
        let scratch_capacity_before = self.scratch.capacity();

        // The match buffer is taken out of the scratch so the remaining
        // scratch can be borrowed mutably alongside it; it is restored (with
        // its possibly grown allocation) before the capacity check below.
        let mut buf = std::mem::take(&mut self.scratch.match_buf);
        let Self {
            slots,
            zero_pmin,
            index,
            scratch,
            stats,
            prefilter,
            ..
        } = self;
        // One generation bump per event; every other piece of scratch —
        // counters, stamps, touch list, event view, match buffer — stays hot
        // across the whole batch, so a warmed-up batch allocates nothing.
        for (i, pairs) in events.enumerate() {
            Self::match_one(
                slots, zero_pmin, index, scratch, stats, prefilter, pairs, &mut buf,
            );
            emit(i, &buf);
        }
        self.scratch.match_buf = buf;

        if self.scratch.capacity() > scratch_capacity_before {
            self.scratch.grows += 1;
        }
        self.stats.batches_filtered += 1;
        self.stats.events_filtered += count;
        self.stats.filter_time += start.elapsed();
    }

    /// O(1) removal from the zero-pmin list via the position map and
    /// `swap_remove` (replacing the former O(n) `retain`).
    fn zero_pmin_remove(&mut self, slot: u32) {
        let pos = self.zero_pmin_pos[slot as usize];
        if pos == NOT_IN_ZERO {
            return;
        }
        self.zero_pmin_pos[slot as usize] = NOT_IN_ZERO;
        self.zero_pmin.swap_remove(pos as usize);
        if let Some(&moved) = self.zero_pmin.get(pos as usize) {
            self.zero_pmin_pos[moved as usize] = pos;
        }
    }
}

/// Every occupied `(slot, subscription, access clause nodes)` of the slab,
/// in slot order.
fn occupied_slots(
    slots: &[Option<SlotEntry>],
) -> impl Iterator<Item = (u32, &Subscription, Option<&Range<u32>>)> + Clone {
    slots.iter().enumerate().filter_map(|(slot, entry)| {
        entry.as_ref().map(|e| {
            (
                slot as u32,
                &e.subscription,
                e.access.as_ref().map(|a| &a.nodes),
            )
        })
    })
}

impl MatchingEngine for CountingEngine {
    fn insert(&mut self, subscription: Subscription) {
        let id = subscription.id();
        let subscription = match crate::analyze::analyze_for_insert(
            self.config,
            self.hint.as_ref(),
            &mut self.stats,
            subscription,
        ) {
            Some(subscription) => subscription,
            None => {
                // Unsatisfiable: never indexed. Dropping any previous
                // version keeps replacement semantics — the id now matches
                // nothing, exactly as the rejected tree would.
                self.remove(id);
                return;
            }
        };
        let slot = match self.id_to_slot.get(&id) {
            Some(&slot) => {
                // Replacement: unregister the old tree first, so the new
                // access clause is chosen against the buckets without it.
                let old = self.slots[slot as usize]
                    .take()
                    .expect("mapped slot is occupied");
                self.unregister(slot, &old);
                slot
            }
            None => {
                let slot = self.alloc_slot();
                self.id_to_slot.insert(id, slot);
                slot
            }
        };
        let tree = subscription.tree();
        let access = access_clause(tree, &self.index, self.hint.as_ref());
        for (node, predicate) in indexed_leaves(&subscription, access.as_ref()) {
            self.index
                .insert(predicate, PredicateKey::new(SubSlot(slot), node));
        }
        self.associations += tree.predicate_count();
        let pmin = u32::try_from(tree.pmin()).expect("pmin exceeds u32 range");
        if pmin == 0 {
            self.zero_pmin_insert(slot);
        }
        self.prefilter
            .insert(slot, &subscription, access.as_ref().map(|a| &a.nodes));
        self.slots[slot as usize] = Some(SlotEntry {
            subscription,
            access,
            pmin,
        });
    }

    fn remove(&mut self, id: SubscriptionId) -> Option<Subscription> {
        let slot = self.id_to_slot.remove(&id)?;
        let entry = self.slots[slot as usize]
            .take()
            .expect("mapped slot is occupied");
        self.unregister(slot, &entry);
        self.free_slots.push(slot);
        Some(entry.subscription)
    }

    fn get(&self, id: SubscriptionId) -> Option<&Subscription> {
        let slot = *self.id_to_slot.get(&id)?;
        self.slots[slot as usize]
            .as_ref()
            .map(|entry| &entry.subscription)
    }

    fn match_batch(&mut self, batch: &EventBatch, sink: &mut dyn MatchSink) {
        sink.begin_batch(batch.len());
        self.match_events(batch.iter().map(|e| e.resolved_pairs()), |i, matches| {
            for &(id, subscriber) in matches {
                sink.on_match(i, id, subscriber);
            }
        });
    }

    fn match_event_into(&mut self, event: &EventMessage, matches: &mut Vec<SubscriptionId>) {
        self.match_events(std::iter::once(event.resolved_pairs()), |_, found| {
            matches.clear();
            matches.extend(found.iter().map(|&(id, _)| id));
        });
    }

    fn len(&self) -> usize {
        self.id_to_slot.len()
    }

    fn stats(&self) -> &FilterStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = FilterStats::new();
    }

    fn report(&self) -> EngineReport {
        EngineReport {
            subscription_count: self.id_to_slot.len(),
            association_count: self.associations,
            tree_bytes: self.subscriptions().map(|s| s.tree().size_bytes()).sum(),
            equality_constants: self.index.equality_constants(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NaiveEngine, PrefilterMode};
    use pubsub_core::{Expr, SubscriberId};

    fn sub(id: u64, expr: &Expr) -> Subscription {
        Subscription::from_expr(
            SubscriptionId::from_raw(id),
            SubscriberId::from_raw(id),
            expr,
        )
    }

    fn book_event(category: &str, price: i64, bids: i64) -> EventMessage {
        EventMessage::builder()
            .attr("category", category)
            .attr("price", price)
            .attr("bids", bids)
            .build()
    }

    fn attr(name: &str) -> AttrId {
        pubsub_core::attr::intern(name)
    }

    /// The attribute the access clause `clause` of `tree` constrains.
    fn clause_attr(tree: &SubscriptionTree, clause: &AccessClause) -> AttrId {
        match tree.node(NodeId(clause.nodes.start)).map(|n| n.kind()) {
            Some(NodeKind::Predicate(p)) => p.attr_id(),
            other => panic!("a clause starts at a leaf, not {other:?}"),
        }
    }

    #[test]
    fn equality_groups_are_access_clauses() {
        // `category ∈ {books, cds}` as a required Or is an access clause
        // made of both equalities: stage 1 reaches the subscription only
        // through one of them.
        let mut index = AttributeIndex::new();
        let group = sub(
            1,
            &Expr::and(vec![
                Expr::or(vec![
                    Expr::eq("ac_cat", "books"),
                    Expr::eq("ac_cat", "cds"),
                    Expr::eq("ac_cat", f64::NAN),
                ]),
                Expr::le("ac_price", 10i64),
            ]),
        );
        let access = access_clause(group.tree(), &index, None).expect("the group gates");
        assert_eq!(clause_attr(group.tree(), &access), attr("ac_cat"));
        // The clause spans the group's three children, but the `NaN` child
        // can never be true, so it is not registered.
        assert_eq!(access.nodes.len(), 3);
        assert_eq!(indexed_leaves(&group, Some(&access)).count(), 2);
        for (node, p) in indexed_leaves(&group, Some(&access)) {
            index.insert(p, PredicateKey::new(SubSlot(0), node));
        }
        let cds = EqKey::from_value(&"cds".into()).expect("strings have keys");
        assert_eq!(index.equality_entries(attr("ac_cat"), &cds), 1);

        // Mixed-attribute and mixed-operator Ors are not groups (they are
        // satisfiable without the attribute), and a child kept in the scan
        // list (an int beyond ±2^53) can be true while no bucket fires: none
        // of these gates.
        let big = 1i64 << 53;
        for ungated in [
            Expr::or(vec![
                Expr::eq("ac_cat", "books"),
                Expr::le("ac_price", 1i64),
            ]),
            Expr::or(vec![Expr::eq("ac_cat", "books"), Expr::ne("ac_cat", "cds")]),
            Expr::or(vec![Expr::eq("ac_x", 5i64), Expr::eq("ac_x", big + 1)]),
            Expr::or(vec![Expr::eq("ac_x", -big - 1), Expr::eq("ac_x", 3.5f64)]),
            Expr::eq("ac_price", f64::NAN),
            Expr::eq("ac_x", big),
            Expr::not(Expr::eq("ac_cat", "books")),
        ] {
            let s = sub(
                2,
                &Expr::and(vec![ungated.clone(), Expr::ge("ac_price", 0i64)]),
            );
            assert_eq!(access_clause(s.tree(), &index, None), None, "{ungated:?}");
        }
        // Beside such a group, another required equality still gates.
        let s = sub(
            3,
            &Expr::and(vec![
                Expr::or(vec![Expr::eq("ac_x", 5i64), Expr::eq("ac_x", big + 1)]),
                Expr::eq("ac_cat", "cds"),
            ]),
        );
        let access = access_clause(s.tree(), &index, None).map(|a| clause_attr(s.tree(), &a));
        assert_eq!(access, Some(attr("ac_cat")));
    }

    #[test]
    fn access_clause_prefers_the_hint_then_the_emptiest_bucket() {
        let title = attr("ac_title");
        let cond = attr("ac_cond");
        let watcher = |t: &str, c: &str| {
            sub(
                1,
                &Expr::and(vec![
                    Expr::eq("ac_title", t),
                    Expr::eq("ac_cond", c),
                    Expr::le("ac_price", 10i64),
                ]),
            )
        };
        let file = |index: &mut AttributeIndex, s: &Subscription, slot: u32| {
            let access = access_clause(s.tree(), index, None).expect("gated");
            for (node, p) in indexed_leaves(s, Some(&access)) {
                index.insert(p, PredicateKey::new(SubSlot(slot), node));
            }
            clause_attr(s.tree(), &access)
        };
        // Empty index: a tie on zero entries goes to the lower attribute id.
        let mut index = AttributeIndex::new();
        let first = file(&mut index, &watcher("a", "new"), 0);
        assert_eq!(first, title.min(cond));
        // Afterwards the other attribute's bucket is the emptier one, and a
        // different title is emptier than a shared condition.
        let second = file(&mut index, &watcher("a", "new"), 1);
        assert_eq!(second, title.max(cond));
        assert_eq!(file(&mut index, &watcher("b", "new"), 2), title);

        // A hint overrides the bucket sizes: the lower score wins.
        let events: Vec<EventMessage> = (0..40)
            .map(|i| {
                EventMessage::builder()
                    .attr("ac_title", format!("t{i}").as_str())
                    .attr("ac_cond", ["new", "used"][i % 2])
                    .build()
            })
            .collect();
        let hint = DiscriminationHint::from_events(&events);
        let s = watcher("a", "new");
        assert_eq!(
            access_clause(s.tree(), &index, Some(&hint)).map(|a| clause_attr(s.tree(), &a)),
            Some(title)
        );
    }

    #[test]
    fn basic_conjunction_matching() {
        let mut e = CountingEngine::new();
        e.insert(sub(
            1,
            &Expr::and(vec![
                Expr::eq("category", "books"),
                Expr::le("price", 20i64),
            ]),
        ));
        assert_eq!(
            e.match_event(&book_event("books", 10, 0)),
            vec![SubscriptionId::from_raw(1)]
        );
        assert!(e.match_event(&book_event("books", 30, 0)).is_empty());
        assert!(e.match_event(&book_event("music", 10, 0)).is_empty());
    }

    #[test]
    fn disjunction_matching_and_pmin_shortcut() {
        let mut e = CountingEngine::new();
        // OR of two conjunctions -> pmin = 2.
        e.insert(sub(
            1,
            &Expr::or(vec![
                Expr::and(vec![
                    Expr::eq("category", "books"),
                    Expr::le("price", 20i64),
                ]),
                Expr::and(vec![Expr::eq("category", "music"), Expr::ge("bids", 5i64)]),
            ]),
        ));
        // Event fulfilling only one predicate is skipped by pmin, not evaluated.
        assert!(e.match_event(&book_event("books", 50, 0)).is_empty());
        assert_eq!(e.stats().skipped_by_pmin, 1);
        assert_eq!(e.stats().trees_evaluated, 0);
        // Event fulfilling a whole branch matches.
        assert_eq!(
            e.match_event(&book_event("music", 50, 7)),
            vec![SubscriptionId::from_raw(1)]
        );
    }

    #[test]
    fn negation_only_subscriptions_are_always_evaluated() {
        let mut e = CountingEngine::new();
        // NOT(category = books): matches events that are not books,
        // including events that fulfil none of the registered predicates.
        e.insert(sub(1, &Expr::not(Expr::eq("category", "books"))));
        assert_eq!(
            e.match_event(&book_event("music", 10, 0)),
            vec![SubscriptionId::from_raw(1)]
        );
        assert!(e.match_event(&book_event("books", 10, 0)).is_empty());
        // An event without the attribute at all still matches the negation.
        let bare = EventMessage::builder().attr("other", 1i64).build();
        assert_eq!(e.match_event(&bare), vec![SubscriptionId::from_raw(1)]);
    }

    #[test]
    fn insert_with_same_id_replaces_and_reindexes() {
        let mut e = CountingEngine::new();
        e.insert(sub(
            1,
            &Expr::and(vec![
                Expr::eq("category", "books"),
                Expr::le("price", 20i64),
            ]),
        ));
        assert_eq!(e.report().association_count, 2);
        // Replace with a pruned version (only the category predicate).
        e.insert(sub(1, &Expr::eq("category", "books")));
        assert_eq!(e.len(), 1);
        assert_eq!(e.report().association_count, 1);
        // The pruned subscription now matches expensive books too.
        assert_eq!(
            e.match_event(&book_event("books", 100, 0)),
            vec![SubscriptionId::from_raw(1)]
        );
    }

    #[test]
    fn remove_unregisters_predicates() {
        let mut e = CountingEngine::new();
        e.insert(sub(1, &Expr::eq("category", "books")));
        e.insert(sub(2, &Expr::eq("category", "books")));
        assert_eq!(e.report().association_count, 2);
        assert!(e.remove(SubscriptionId::from_raw(1)).is_some());
        assert_eq!(e.report().association_count, 1);
        assert_eq!(
            e.match_event(&book_event("books", 1, 0)),
            vec![SubscriptionId::from_raw(2)]
        );
        assert!(e.remove(SubscriptionId::from_raw(1)).is_none());
    }

    #[test]
    fn slots_are_reused_after_removal() {
        let mut e = CountingEngine::new();
        for i in 1..=4u64 {
            e.insert(sub(i, &Expr::eq("category", "books")));
        }
        e.remove(SubscriptionId::from_raw(2)).unwrap();
        e.remove(SubscriptionId::from_raw(3)).unwrap();
        // Two freed slots get reused by the next two insertions.
        let slab_len_before = e.slots.len();
        e.insert(sub(5, &Expr::eq("category", "books")));
        e.insert(sub(6, &Expr::eq("category", "music")));
        assert_eq!(e.slots.len(), slab_len_before);
        let mut hits = e.match_event(&book_event("books", 1, 0));
        hits.sort();
        assert_eq!(
            hits,
            vec![
                SubscriptionId::from_raw(1),
                SubscriptionId::from_raw(4),
                SubscriptionId::from_raw(5)
            ]
        );
    }

    #[test]
    fn zero_pmin_position_map_handles_churn() {
        let mut e = CountingEngine::new();
        // Three negation-only subscriptions plus one positive one.
        e.insert(sub(1, &Expr::not(Expr::eq("a", 1i64))));
        e.insert(sub(2, &Expr::not(Expr::eq("b", 1i64))));
        e.insert(sub(3, &Expr::not(Expr::eq("c", 1i64))));
        e.insert(sub(4, &Expr::eq("a", 1i64)));
        assert_eq!(e.zero_pmin.len(), 3);
        // Remove the middle one; the swap must keep positions consistent.
        e.remove(SubscriptionId::from_raw(2)).unwrap();
        assert_eq!(e.zero_pmin.len(), 2);
        for (pos, &slot) in e.zero_pmin.iter().enumerate() {
            assert_eq!(e.zero_pmin_pos[slot as usize] as usize, pos);
        }
        // Replacing a zero-pmin subscription with a positive tree drops it
        // from the list.
        e.insert(sub(3, &Expr::eq("c", 1i64)));
        assert_eq!(e.zero_pmin.len(), 1);
        let ev = EventMessage::builder().attr("x", 9i64).build();
        // Only sub 1 (NOT a=1) still matches the unrelated event.
        assert_eq!(e.match_event(&ev), vec![SubscriptionId::from_raw(1)]);
    }

    #[test]
    fn matches_are_sorted_by_subscription_id() {
        let mut e = CountingEngine::new();
        // Insert in descending id order so slot order disagrees with id order.
        for id in (1..=20u64).rev() {
            e.insert(sub(id, &Expr::eq("category", "books")));
        }
        let hits = e.match_event(&book_event("books", 1, 0));
        let expected: Vec<SubscriptionId> = (1..=20).map(SubscriptionId::from_raw).collect();
        assert_eq!(hits, expected);
    }

    #[test]
    fn match_event_into_reuses_the_buffer() {
        let mut e = CountingEngine::new();
        e.insert(sub(1, &Expr::eq("category", "books")));
        let mut out = Vec::with_capacity(4);
        e.match_event_into(&book_event("books", 1, 0), &mut out);
        assert_eq!(out, vec![SubscriptionId::from_raw(1)]);
        out.clear();
        e.match_event_into(&book_event("music", 1, 0), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn duplicate_predicates_within_one_subscription() {
        let mut e = CountingEngine::new();
        // The same predicate appears in both OR branches.
        e.insert(sub(
            1,
            &Expr::or(vec![
                Expr::and(vec![
                    Expr::eq("category", "books"),
                    Expr::le("price", 10i64),
                ]),
                Expr::and(vec![Expr::eq("category", "books"), Expr::ge("bids", 3i64)]),
            ]),
        ));
        assert_eq!(e.report().association_count, 4);
        assert_eq!(
            e.match_event(&book_event("books", 5, 0)),
            vec![SubscriptionId::from_raw(1)]
        );
        assert_eq!(
            e.match_event(&book_event("books", 50, 5)),
            vec![SubscriptionId::from_raw(1)]
        );
        assert!(e.match_event(&book_event("books", 50, 0)).is_empty());
    }

    #[test]
    fn agrees_with_naive_engine_on_a_deterministic_workload() {
        // Differential test: a grid of subscriptions of varying shapes matched
        // against a grid of events must give identical results in both engines.
        let mut counting = CountingEngine::new();
        let mut naive = NaiveEngine::new();
        let categories = ["books", "music", "games"];
        let mut next_id = 0u64;
        let mut add = |expr: &Expr, counting: &mut CountingEngine, naive: &mut NaiveEngine| {
            next_id += 1;
            counting.insert(sub(next_id, expr));
            naive.insert(sub(next_id, expr));
        };
        for (i, cat) in categories.iter().enumerate() {
            for price in [5i64, 15, 25] {
                add(
                    &Expr::and(vec![Expr::eq("category", *cat), Expr::le("price", price)]),
                    &mut counting,
                    &mut naive,
                );
                add(
                    &Expr::or(vec![
                        Expr::eq("category", *cat),
                        Expr::gt("bids", (i as i64) * 2),
                    ]),
                    &mut counting,
                    &mut naive,
                );
                add(
                    &Expr::and(vec![
                        Expr::ne("category", *cat),
                        Expr::not(Expr::ge("price", price)),
                    ]),
                    &mut counting,
                    &mut naive,
                );
            }
        }
        for cat in ["books", "music", "games", "tools"] {
            for price in 0..30i64 {
                let ev = book_event(cat, price, price % 7);
                let mut a = counting.match_event(&ev);
                let mut b = naive.match_event(&ev);
                a.sort();
                b.sort();
                assert_eq!(a, b, "divergence for category={cat} price={price}");
            }
        }
    }

    #[test]
    fn report_tracks_index_size() {
        let mut e = CountingEngine::new();
        for i in 0..10u64 {
            e.insert(sub(
                i,
                &Expr::and(vec![
                    Expr::eq("category", "books"),
                    Expr::le("price", i as i64),
                    Expr::ge("bids", 1i64),
                ]),
            ));
        }
        let r = e.report();
        assert_eq!(r.subscription_count, 10);
        assert_eq!(r.association_count, 30);
        assert!(r.tree_bytes > 0);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut e = CountingEngine::new();
        e.insert(sub(1, &Expr::eq("category", "books")));
        e.match_event(&book_event("books", 1, 1));
        e.match_event(&book_event("music", 1, 1));
        assert_eq!(e.stats().events_filtered, 2);
        assert_eq!(e.stats().matches, 1);
        assert!(e.stats().filter_time.as_nanos() > 0);
        e.reset_stats();
        assert_eq!(e.stats().events_filtered, 0);
    }

    #[test]
    fn steady_state_matching_reuses_scratch() {
        let mut e = CountingEngine::new();
        for i in 0..200u64 {
            e.insert(sub(
                i,
                &Expr::and(vec![
                    Expr::eq("category", if i % 2 == 0 { "books" } else { "music" }),
                    Expr::le("price", (i % 30) as i64),
                ]),
            ));
        }
        // Warm-up: one pass over a representative event set.
        let events: Vec<EventMessage> = (0..40)
            .map(|i| book_event(if i % 2 == 0 { "books" } else { "music" }, i, i % 7))
            .collect();
        for ev in &events {
            e.match_event(ev);
        }
        let grows = e.scratch_grows();
        let capacity = e.scratch_capacity();
        // Steady state: repeated matching must not grow any scratch buffer.
        for _ in 0..5 {
            for ev in &events {
                e.match_event(ev);
            }
        }
        assert_eq!(
            e.scratch_grows(),
            grows,
            "scratch reallocated in steady state"
        );
        assert_eq!(e.scratch_capacity(), capacity);
    }

    /// A pre-filter rebuilt from scratch over the engine's current slab.
    fn fresh_prefilter(e: &CountingEngine) -> PreFilter {
        let mut fresh = PreFilter::new();
        fresh.rebuild(e.slots.len(), occupied_slots(&e.slots), e.config.prefilter);
        fresh
    }

    /// The keys an index rebuilt from the slab holds: the access leaves of
    /// every gated subscription and every leaf of every ungated one.
    fn fresh_index_keys(e: &CountingEngine) -> Vec<PredicateKey> {
        let mut keys: Vec<PredicateKey> = (0u32..)
            .zip(&e.slots)
            .filter_map(|(slot, entry)| Some((slot, entry.as_ref()?)))
            .flat_map(|(slot, entry)| {
                indexed_leaves(&entry.subscription, entry.access.as_ref())
                    .map(move |(node, _)| PredicateKey::new(SubSlot(slot), node))
            })
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Drives one engine through ~1,300 unsubscribe / subscribe / replace
    /// steps with a single-event match after each (the churn shape), over
    /// `attrs` equality attributes plus one numeric one. Four phases move an
    /// `Auto` population across both thresholds in both directions:
    /// constrained bodies arrive (past 32 subscriptions: on), unconstrained
    /// bodies replace them (below 50 %: off), constrained ones come back
    /// (on), everything leaves (below 32: off).
    ///
    /// After every step the matches equal `NaiveEngine`'s, the association
    /// count equals the trees' leaves (and the naive engine's report), the
    /// index holds exactly the keys one rebuilt from the slab would — the
    /// access leaves of gated slots, every leaf of ungated ones, nothing of
    /// freed slots — and whatever the incrementally maintained pre-filter
    /// holds that cannot depend on arrival order equals a pre-filter built
    /// fresh from the survivors: always the per-attribute reference counts and
    /// the population, and — while every required attribute fits a presence
    /// bit, `exact` — the tracked set, the interned constants with their
    /// references, each slot's compiled tests and exact flag, the
    /// constrained count and `enabled`. Returns the number of full rebuilds
    /// the engine's pre-filter ran.
    fn churn_against_fresh_prefilter(mode: PrefilterMode, attrs: usize, exact: bool) -> usize {
        let mut rng = proptest::TestRng::deterministic(attrs as u64 ^ 0x5EED);
        let names: Vec<String> = (0..attrs).map(|i| format!("s0c{attrs}_{i}")).collect();
        let price = format!("s0c{attrs}_p");
        let body = |rng: &mut proptest::TestRng, constrained: bool| {
            let a = names[rng.index(attrs)].as_str();
            let b = names[rng.index(attrs)].as_str();
            let (c, d, n) = (
                rng.index(4) as i64,
                rng.index(4) as i64,
                rng.index(10) as i64,
            );
            // Whichever bucket was emptier on arrival, the access clause is
            // recorded in the slot, and a fresh pre-filter reads it too: the
            // compiled tests cannot depend on when the body was compiled.
            // Bodies 0-3 and the clause alone are exact, 4 keeps its walk.
            match (constrained, rng.index(6)) {
                (true, 0) => Expr::and(vec![Expr::eq(a, c), Expr::le(price.as_str(), n)]),
                (true, 1) if a != b => Expr::and(vec![
                    Expr::eq(a, c),
                    Expr::eq(b, d),
                    Expr::ge(price.as_str(), n),
                ]),
                (true, 2) => Expr::and(vec![
                    Expr::or(vec![Expr::eq(a, c), Expr::eq(a, c + 1)]),
                    Expr::lt(price.as_str(), n),
                ]),
                (true, 3) => Expr::and(vec![
                    Expr::eq(a, c),
                    Expr::ge(price.as_str(), n),
                    Expr::le(price.as_str(), n + 3),
                ]),
                (true, 4) => Expr::and(vec![
                    Expr::eq(a, c),
                    Expr::le(price.as_str(), n),
                    Expr::not(Expr::eq(b, d)),
                ]),
                (true, _) => Expr::eq(a, c),
                (false, 0) => Expr::or(vec![Expr::eq(a, c), Expr::le(price.as_str(), n)]),
                (false, 1) => {
                    Expr::and(vec![Expr::ge(price.as_str(), n), Expr::not(Expr::eq(a, c))])
                }
                (false, _) => Expr::not(Expr::eq(a, c)),
            }
        };

        let mut e = CountingEngine::with_config(EngineConfig::with_prefilter(mode));
        let mut naive = NaiveEngine::new();
        let mut enabled = false;
        let (mut switched_on, mut switched_off, mut incremental_checks) = (0, 0, 0);
        let mut rebuilds = 0;
        for step in 0..1300 {
            let mut id = 1 + rng.index(160) as u64;
            let phase = step / 325;
            let remove = match phase {
                // The last phase drains: it removes a live id, mostly.
                3 => {
                    let live: Vec<u64> = e.subscriptions().map(|s| s.id().raw()).collect();
                    if !live.is_empty() {
                        id = live[rng.index(live.len())];
                    }
                    rng.index(10) < 7
                }
                _ => rng.index(10) < 2,
            };
            if remove {
                let id = SubscriptionId::from_raw(id);
                assert_eq!(e.remove(id).is_some(), naive.remove(id).is_some());
            } else {
                let s = sub(id, &body(&mut rng, phase != 1));
                e.insert(s.clone());
                naive.insert(s);
            }

            let mut event = EventMessage::builder().attr(price.as_str(), rng.index(10) as i64);
            for _ in 0..3 {
                event = event.attr(names[rng.index(attrs)].as_str(), rng.index(4) as i64);
            }
            let event = event.build();
            let mut expected = naive.match_event(&event);
            expected.sort();
            assert_eq!(e.match_event(&event), expected, "step {step}");
            let leaves: usize = e.subscriptions().map(|s| s.tree().predicate_count()).sum();
            assert_eq!(e.report().association_count, leaves, "step {step}");
            let (got, want) = (e.report(), naive.report());
            assert_eq!(
                (
                    got.subscription_count,
                    got.association_count,
                    got.tree_bytes
                ),
                (
                    want.subscription_count,
                    want.association_count,
                    want.tree_bytes
                ),
                "step {step}"
            );
            assert_eq!(
                e.index.registered_keys(),
                fresh_index_keys(&e),
                "step {step}"
            );

            let got = e.prefilter.snapshot();
            let fresh = fresh_prefilter(&e).snapshot();
            assert_eq!(got.occupied, e.len(), "step {step}");
            assert_eq!(got.attr_refs, fresh.attr_refs, "step {step}");
            if exact {
                assert_eq!(got, fresh, "step {step}");
            }
            let rebuilt = e.prefilter.rebuilds() != rebuilds;
            rebuilds = e.prefilter.rebuilds();
            if !rebuilt {
                incremental_checks += 1;
                if got.enabled != enabled {
                    if got.enabled {
                        switched_on += 1;
                    } else {
                        switched_off += 1;
                    }
                }
            }
            enabled = got.enabled;
        }
        // The checks above compared a maintained state, not a rebuilt one.
        assert!(incremental_checks > 1000, "{incremental_checks}");
        if mode == PrefilterMode::Auto {
            assert!(
                switched_on >= 2 && switched_off >= 2,
                "{switched_on} on, {switched_off} off"
            );
        } else {
            assert_eq!((switched_on, switched_off), (0, 0));
        }
        rebuilds
    }

    #[test]
    fn incremental_prefilter_equals_a_fresh_one_under_churn() {
        // 25 attributes all hold a presence bit: no re-rank is ever due, so
        // the first match's rebuild is the only one.
        for mode in [PrefilterMode::On, PrefilterMode::Auto] {
            assert_eq!(churn_against_fresh_prefilter(mode, 24, true), 1, "{mode:?}");
        }
    }

    #[test]
    fn incremental_prefilter_survives_more_attributes_than_bits() {
        // 91 required attributes for 64 bits: which ones are tracked now
        // depends on arrival order, so only order-free state is compared;
        // the kills stay sound (matches equal the naive engine's), and the
        // amortised re-rank still runs.
        for mode in [PrefilterMode::On, PrefilterMode::Auto] {
            let rebuilds = churn_against_fresh_prefilter(mode, 90, false);
            assert!(rebuilds > 1, "{mode:?}: {rebuilds}");
        }
    }
}
