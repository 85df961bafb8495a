//! The counting matcher with per-attribute predicate indexes and the `pmin`
//! shortcut, organised as a staged pipeline:
//!
//! * **Stage 0 — pre-filter** ([`PreFilter`]): candidate subscriptions that
//!   provably cannot match (required attribute absent, or discrimination
//!   equality key mismatched) are killed before any counting.
//! * **Stage 1 — index probing**: fulfilled predicates are resolved through
//!   the [`AttributeIndex`] — per event on the single-event path, per
//!   *attribute group* across a whole batch via [`ProbePlan`].
//! * **Stage 2 — counting/evaluation**: surviving fulfilled predicates are
//!   counted per slot, and only subscriptions reaching their tree's `pmin`
//!   are evaluated against the leaf mask.
//!
//! Every stage is semantics-preserving: match output is byte-identical with
//! any [`EngineConfig`], stages only change how much work it takes.

use crate::config::EngineConfig;
use crate::index::{AttributeIndex, PredicateKey, SubSlot};
use crate::prefilter::PreFilter;
use crate::probe::ProbePlan;
use crate::{EngineReport, FilterStats, MatchSink, MatchingEngine};
use pubsub_core::{
    AttrId, EventBatch, EventMessage, LeafMask, Subscription, SubscriptionId, Value,
};
use selectivity::DiscriminationHint;
use std::collections::HashMap;
use std::time::Instant;

/// Sentinel meaning "this slot is not in the zero-pmin list".
const NOT_IN_ZERO: u32 = u32::MAX;

/// Per-subscription bookkeeping kept by the engine, one per occupied slot.
#[derive(Debug)]
struct SlotEntry {
    subscription: Subscription,
    /// `pmin` of the current tree, cached at insertion time.
    pmin: u32,
    /// Reusable truth mask over the tree's nodes, allocated at insertion
    /// time and generation-cleared between events.
    mask: LeafMask,
}

/// Reusable per-event scratch. All buffers are indexed by [`SubSlot`] and
/// grow only when subscriptions are added — after warmup, matching an event
/// performs no heap allocation here.
#[derive(Debug, Default)]
struct MatchScratch {
    /// Fulfilled-predicate count per slot, valid only where `gen` carries
    /// the current generation.
    counts: Vec<u32>,
    /// Generation stamp per slot; stamping replaces clearing the counters.
    gen: Vec<u32>,
    /// The generation of the event currently being matched.
    current_gen: u32,
    /// Slots with at least one fulfilled predicate this event, in first-touch
    /// order.
    touched: Vec<u32>,
    /// Reusable per-event match buffer used by `match_batch` to sort each
    /// event's matches before emitting them to the sink.
    match_buf: Vec<SubscriptionId>,
    /// Generation stamp per slot recording "killed by the stage-0 pre-filter
    /// for the current event", so the kill test runs once per touched slot on
    /// the single-event path and later emissions take one branch.
    dead_gen: Vec<u32>,
    /// Stage-0 fingerprint keys of the event being matched (single-event
    /// path; the batch path keeps per-event fingerprints in the probe plan).
    fp_keys: Vec<u32>,
    /// Number of times any scratch buffer had to grow (reallocate). Stable
    /// across calls in steady state; tests assert on it.
    grows: u64,
}

impl MatchScratch {
    /// Starts a new event: bumps the generation and sizes the per-slot
    /// buffers to cover `slots` entries.
    fn advance(&mut self, slots: usize) {
        if self.counts.len() < slots {
            // Growth is accounted for centrally in `match_event_into` via the
            // before/after capacity comparison, not here, so one reallocation
            // is never counted twice.
            self.counts.resize(slots, 0);
            self.gen.resize(slots, 0);
            self.dead_gen.resize(slots, 0);
        }
        self.current_gen = self.current_gen.wrapping_add(1);
        if self.current_gen == 0 {
            // Generation wrap (once per 2³² events): physically reset the
            // stamps so ancient generations cannot alias the new one.
            self.gen.fill(0);
            self.dead_gen.fill(0);
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
            + self.dead_gen.capacity()
            + self.fp_keys.capacity()
    }
}

/// The production matching engine.
///
/// All predicate leaves are registered in an [`AttributeIndex`]. Matching an
/// event proceeds in two phases:
///
/// 1. **Predicate phase** — the index reports every fulfilled predicate as a
///    `(subscription slot, leaf node)` pair; the engine bumps a flat per-slot
///    counter and marks the leaf in the subscription's reusable [`LeafMask`].
/// 2. **Subscription phase** — only subscriptions whose number of fulfilled
///    leaves reaches the tree's `pmin` are evaluated; the tree is evaluated
///    directly against the leaf mask discovered in phase 1, so no predicate
///    is evaluated twice.
///
/// Subscriptions are stored in a slab: each [`SubscriptionId`] maps to a dense
/// [`SubSlot`] so that all per-event state lives in flat arrays. Counters and
/// masks are generation-stamped — "clearing" them between events is a single
/// integer increment — which together with the reusable `touched` list makes
/// the steady-state hot path allocation-free.
///
/// The primary entry point is `match_batch`: the scratch state — counters,
/// stamps, touch list, leaf masks, and the per-event match buffer — stays hot
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
    scratch: MatchScratch,
    stats: FilterStats,
    /// Staged-pipeline configuration (stage-0 mode).
    config: EngineConfig,
    /// Sampled discrimination hint guiding stage-0 key selection, if any.
    hint: Option<DiscriminationHint>,
    /// Compiled stage-0 pre-filter. Follows `insert`/`remove` one
    /// subscription at a time once built;
    /// [`refresh_prefilter`](Self::refresh_prefilter) rebuilds it in full at
    /// the start of a match when it says it is not.
    prefilter: PreFilter,
    /// Batch-probing scratch (stage 1 of `match_batch`).
    probe: ProbePlan,
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

    /// Installs (or clears) the sampled discrimination hint that guides the
    /// stage-0 pre-filter's choice of equality kill keys. Without a hint the
    /// pre-filter falls back to local equality-index cardinalities.
    pub fn set_discrimination_hint(&mut self, hint: Option<DiscriminationHint>) {
        self.hint = hint;
        self.prefilter.invalidate();
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
    /// or hint changed, or due for its amortised re-rank.
    fn refresh_prefilter(&mut self) {
        if self.prefilter.is_built() {
            return;
        }
        let Self {
            slots,
            index,
            prefilter,
            hint,
            config,
            ..
        } = self;
        prefilter.rebuild(
            slots.len(),
            occupied_slots(slots),
            index,
            hint.as_ref(),
            config.prefilter,
        );
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
    /// and per-batch match state (per-slot elements plus batch-probe bytes;
    /// an opaque grow-only figure). Constant across match calls once the
    /// engine has warmed up (no subscriptions added in between).
    pub fn scratch_capacity(&self) -> usize {
        self.scratch.capacity() + self.probe.capacity_bytes()
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

    fn register_predicates(index: &mut AttributeIndex, slot: u32, subscription: &Subscription) {
        for (node, predicate) in subscription.tree().predicates() {
            index.insert(predicate, PredicateKey::new(SubSlot(slot), node));
        }
    }

    fn unregister_predicates(index: &mut AttributeIndex, slot: u32, subscription: &Subscription) {
        for (node, predicate) in subscription.tree().predicates() {
            index.remove(predicate, PredicateKey::new(SubSlot(slot), node));
        }
    }

    fn zero_pmin_insert(&mut self, slot: u32) {
        if self.zero_pmin_pos[slot as usize] != NOT_IN_ZERO {
            return;
        }
        self.zero_pmin_pos[slot as usize] =
            u32::try_from(self.zero_pmin.len()).expect("zero-pmin list exceeds u32 range");
        self.zero_pmin.push(slot);
    }

    /// Matches one event — given as a stream of resolved `(AttrId, &Value)`
    /// pairs — into `matches` (replacing its contents, id-sorted).
    ///
    /// This is the per-event core of the single-event path (and of
    /// single-event batches); it takes the engine's fields piecewise so a
    /// caller loop can hold the borrows across events. The stage-0 kill is
    /// applied inline: the event is fingerprinted once up front (hence the
    /// `Clone` pairs), and each slot's kill verdict is memoised in a
    /// generation-stamped array so it costs one branch after first touch.
    #[allow(clippy::too_many_arguments)] // engine fields passed piecewise, see above
    fn match_one<'a>(
        slots: &mut [Option<SlotEntry>],
        zero_pmin: &[u32],
        index: &AttributeIndex,
        scratch: &mut MatchScratch,
        stats: &mut FilterStats,
        prefilter: &PreFilter,
        pairs: impl Iterator<Item = (AttrId, &'a Value)> + Clone,
        matches: &mut Vec<SubscriptionId>,
    ) {
        matches.clear();

        // Stage 0: fingerprint the event once; the kill test itself runs
        // lazily per touched slot inside the probe callback below.
        scratch.advance(slots.len());
        let MatchScratch {
            counts,
            gen,
            current_gen,
            touched,
            dead_gen,
            fp_keys,
            ..
        } = scratch;
        let current_gen = *current_gen;
        let pf_on = prefilter.enabled();
        let ev_mask = if pf_on {
            prefilter.fingerprint(pairs.clone(), fp_keys)
        } else {
            0
        };

        // Stage 1: resolve fulfilled predicates through the index, counting
        // surviving fulfilled leaves per slot in flat generation-stamped
        // arrays and marking them in the subscription's reusable leaf mask.
        let mut fulfilled_count = 0u64;
        let mut killed_count = 0u64;
        index.fulfilled_pairs(pairs, |key: PredicateKey| {
            let s = key.slot.index();
            if pf_on {
                if dead_gen[s] == current_gen {
                    killed_count += 1;
                    return;
                }
                if gen[s] != current_gen && prefilter.kills(s, ev_mask, fp_keys) {
                    dead_gen[s] = current_gen;
                    killed_count += 1;
                    return;
                }
            }
            let Some(entry) = slots.get_mut(s).and_then(|e| e.as_mut()) else {
                return;
            };
            if gen[s] != current_gen {
                gen[s] = current_gen;
                counts[s] = 0;
                entry.mask.clear();
                touched.push(key.slot.0);
            }
            if !entry.mask.contains(key.node) {
                entry.mask.set(key.node);
                counts[s] += 1;
                fulfilled_count += 1;
            }
        });
        stats.predicates_fulfilled += fulfilled_count;
        stats.killed_by_prefilter += killed_count;

        Self::finish_event(slots, zero_pmin, scratch, stats, matches);
    }

    /// Matches one event whose fulfilled predicate keys were already probed
    /// (and stage-0-filtered) by a [`ProbePlan`] — the batch path's stage 2.
    fn match_keys(
        slots: &mut [Option<SlotEntry>],
        zero_pmin: &[u32],
        scratch: &mut MatchScratch,
        stats: &mut FilterStats,
        keys: &[PredicateKey],
        matches: &mut Vec<SubscriptionId>,
    ) {
        matches.clear();
        scratch.advance(slots.len());
        let current_gen = scratch.current_gen;
        let mut fulfilled_count = 0u64;
        for &key in keys {
            let s = key.slot.index();
            let Some(entry) = slots.get_mut(s).and_then(|e| e.as_mut()) else {
                continue;
            };
            if scratch.gen[s] != current_gen {
                scratch.gen[s] = current_gen;
                scratch.counts[s] = 0;
                entry.mask.clear();
                scratch.touched.push(key.slot.0);
            }
            if !entry.mask.contains(key.node) {
                entry.mask.set(key.node);
                scratch.counts[s] += 1;
                fulfilled_count += 1;
            }
        }
        stats.predicates_fulfilled += fulfilled_count;

        Self::finish_event(slots, zero_pmin, scratch, stats, matches);
    }

    /// Stage 2, shared by every probe front-end: evaluate the candidate
    /// subscriptions (touched slots reaching their `pmin`), always-evaluated
    /// zero-`pmin` subscriptions, and emit id-sorted matches.
    fn finish_event(
        slots: &[Option<SlotEntry>],
        zero_pmin: &[u32],
        scratch: &mut MatchScratch,
        stats: &mut FilterStats,
        matches: &mut Vec<SubscriptionId>,
    ) {
        let current_gen = scratch.current_gen;
        stats.stage2_candidates += scratch.touched.len() as u64;
        for &slot in &scratch.touched {
            let entry = slots[slot as usize]
                .as_ref()
                .expect("touched slots are occupied");
            if scratch.counts[slot as usize] < entry.pmin {
                stats.skipped_by_pmin += 1;
                continue;
            }
            stats.trees_evaluated += 1;
            if entry.subscription.tree().evaluate_with_mask(&entry.mask) {
                matches.push(entry.subscription.id());
            }
        }
        // Subscriptions with pmin == 0 (possible only with negations) are
        // evaluated for every event, because they can match an event that
        // fulfils none of their predicates. Slots already touched above were
        // evaluated with their real mask (pmin 0 always passes the count
        // check); the rest see the all-false mask. (They are also never
        // killed by stage 0: a required leaf implies pmin ≥ 1.)
        for &slot in zero_pmin.iter() {
            if scratch.gen[slot as usize] == current_gen {
                continue;
            }
            let entry = slots[slot as usize]
                .as_ref()
                .expect("zero-pmin slots are occupied");
            stats.trees_evaluated += 1;
            if entry
                .subscription
                .tree()
                .evaluate_with_mask(LeafMask::empty())
            {
                matches.push(entry.subscription.id());
            }
        }

        // Deterministic output: emit in subscription-id order, independent of
        // slot assignment and probe emission order — this is what makes the
        // staged batch path byte-identical to the per-event path.
        matches.sort_unstable();
        stats.matches += matches.len() as u64;
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

/// Every occupied `(slot, subscription)` of the slab, in slot order.
fn occupied_slots(
    slots: &[Option<SlotEntry>],
) -> impl Iterator<Item = (u32, &Subscription)> + Clone {
    slots
        .iter()
        .enumerate()
        .filter_map(|(slot, entry)| entry.as_ref().map(|e| (slot as u32, &e.subscription)))
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
                // Replacement: unregister the old tree first.
                let old = self.slots[slot as usize]
                    .take()
                    .expect("mapped slot is occupied");
                Self::unregister_predicates(&mut self.index, slot, &old.subscription);
                self.prefilter.remove(slot, &old.subscription);
                self.zero_pmin_remove(slot);
                slot
            }
            None => {
                let slot = self.alloc_slot();
                self.id_to_slot.insert(id, slot);
                slot
            }
        };
        Self::register_predicates(&mut self.index, slot, &subscription);
        let pmin = u32::try_from(subscription.tree().pmin()).expect("pmin exceeds u32 range");
        if pmin == 0 {
            self.zero_pmin_insert(slot);
        }
        self.prefilter
            .insert(slot, &subscription, &self.index, self.hint.as_ref());
        let mask = LeafMask::new(subscription.tree().node_count());
        self.slots[slot as usize] = Some(SlotEntry {
            subscription,
            pmin,
            mask,
        });
    }

    fn remove(&mut self, id: SubscriptionId) -> Option<Subscription> {
        let slot = self.id_to_slot.remove(&id)?;
        let entry = self.slots[slot as usize]
            .take()
            .expect("mapped slot is occupied");
        Self::unregister_predicates(&mut self.index, slot, &entry.subscription);
        self.prefilter.remove(slot, &entry.subscription);
        self.zero_pmin_remove(slot);
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
        let start = Instant::now();
        sink.begin_batch(batch.len());
        // Close the mutation epoch: merge pending interval insertions once,
        // so every probe of the batch takes the sorted fast path, and rebuild
        // the stage-0 pre-filter if it is due.
        self.index.ensure_built();
        self.refresh_prefilter();
        let scratch_capacity_before = self.scratch.capacity() + self.probe.capacity_bytes();

        // The match buffer is taken out of the scratch so the remaining
        // scratch can be borrowed mutably alongside it; it is restored (with
        // its possibly grown allocation) before the capacity check below.
        let mut buf = std::mem::take(&mut self.scratch.match_buf);
        {
            let Self {
                slots,
                zero_pmin,
                index,
                scratch,
                stats,
                prefilter,
                probe,
                ..
            } = self;
            if batch.len() >= 2 {
                // Staged batch path: probe the whole batch attribute-group
                // by attribute-group (stage 1, with the stage-0 kill applied
                // at emission time), then run stage 2 per event over the
                // plan's CSR slices.
                let mut killed = 0u64;
                probe.run(batch, index, prefilter, &mut killed);
                stats.killed_by_prefilter += killed;
                for index_in_batch in 0..batch.len() {
                    Self::match_keys(
                        slots,
                        zero_pmin,
                        scratch,
                        stats,
                        probe.emitted(index_in_batch),
                        &mut buf,
                    );
                    for &id in buf.iter() {
                        sink.on_match(index_in_batch, id);
                    }
                }
            } else {
                // One generation bump per event; every other piece of
                // scratch — counters, stamps, touch list, leaf masks, match
                // buffer — stays hot across the whole batch, so a warmed-up
                // batch allocates nothing.
                for index_in_batch in 0..batch.len() {
                    Self::match_one(
                        slots,
                        zero_pmin,
                        index,
                        scratch,
                        stats,
                        prefilter,
                        batch.resolved(index_in_batch),
                        &mut buf,
                    );
                    for &id in buf.iter() {
                        sink.on_match(index_in_batch, id);
                    }
                }
            }
        }
        self.scratch.match_buf = buf;

        if self.scratch.capacity() + self.probe.capacity_bytes() > scratch_capacity_before {
            self.scratch.grows += 1;
        }
        self.stats.batches_filtered += 1;
        self.stats.events_filtered += batch.len() as u64;
        self.stats.filter_time += start.elapsed();
    }

    fn match_event_into(&mut self, event: &EventMessage, matches: &mut Vec<SubscriptionId>) {
        let start = Instant::now();
        self.index.ensure_built();
        self.refresh_prefilter();
        let scratch_capacity_before = self.scratch.capacity();

        let Self {
            slots,
            zero_pmin,
            index,
            scratch,
            stats,
            prefilter,
            ..
        } = self;
        Self::match_one(
            slots,
            zero_pmin,
            index,
            scratch,
            stats,
            prefilter,
            event.iter_resolved(),
            matches,
        );

        if self.scratch.capacity() > scratch_capacity_before {
            self.scratch.grows += 1;
        }
        self.stats.batches_filtered += 1;
        self.stats.events_filtered += 1;
        self.stats.filter_time += start.elapsed();
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
            association_count: self.index.len(),
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
        fresh.rebuild(
            e.slots.len(),
            occupied_slots(&e.slots),
            &e.index,
            e.hint.as_ref(),
            e.config.prefilter,
        );
        fresh
    }

    /// Drives one engine through ~1,300 unsubscribe / subscribe / replace
    /// steps with a single-event match after each (the churn shape), over
    /// `attrs` equality attributes plus one numeric one. Four phases move an
    /// `Auto` population across both thresholds in both directions:
    /// constrained bodies arrive (past 32 subscriptions: on), unconstrained
    /// bodies replace them (below 50 %: off), constrained ones come back
    /// (on), everything leaves (below 32: off).
    ///
    /// After every step the matches equal `NaiveEngine`'s, and whatever the
    /// incrementally maintained pre-filter holds that cannot depend on
    /// arrival order equals a pre-filter built fresh from the survivors:
    /// always the per-attribute reference counts and the population, and —
    /// while every required attribute fits a presence bit, `exact` — the
    /// tracked set, the interned constants with their references, the
    /// constrained count and `enabled`.
    fn churn_against_fresh_prefilter(mode: PrefilterMode, attrs: usize, exact: bool) {
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
            // At most two required equalities per body, so which ones become
            // kill keys cannot depend on when the body was compiled.
            match (constrained, rng.index(4)) {
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
                (true, _) => Expr::eq(a, c),
                (false, 0) => Expr::or(vec![Expr::eq(a, c), Expr::le(price.as_str(), n)]),
                (false, _) => Expr::not(Expr::eq(a, c)),
            }
        };

        let mut e = CountingEngine::with_config(EngineConfig::with_prefilter(mode));
        let mut naive = NaiveEngine::new();
        let mut enabled = false;
        let (mut switched_on, mut switched_off, mut incremental_checks) = (0, 0, 0);
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

            let got = e.prefilter.snapshot();
            let fresh = fresh_prefilter(&e).snapshot();
            assert_eq!(got.occupied, e.len(), "step {step}");
            assert_eq!(got.attr_refs, fresh.attr_refs, "step {step}");
            if exact {
                assert_eq!(got, fresh, "step {step}");
            }
            if e.prefilter.absorbed() > 0 {
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
    }

    #[test]
    fn incremental_prefilter_equals_a_fresh_one_under_churn() {
        churn_against_fresh_prefilter(PrefilterMode::On, 24, true);
        churn_against_fresh_prefilter(PrefilterMode::Auto, 24, true);
    }

    #[test]
    fn incremental_prefilter_survives_more_attributes_than_bits() {
        // 91 required attributes for 64 bits: which ones are tracked now
        // depends on arrival order, so only order-free state is compared;
        // the kills stay sound (matches equal the naive engine's).
        churn_against_fresh_prefilter(PrefilterMode::On, 90, false);
        churn_against_fresh_prefilter(PrefilterMode::Auto, 90, false);
    }
}
