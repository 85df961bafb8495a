//! Stage 0 of the staged matching pipeline, and the walk over a tree's
//! required clauses that it shares with the choice of access clauses.
//!
//! The counting engine indexes a subscription that has a required equality
//! under that one *access clause* (see [`CountingEngine`](crate::CountingEngine)),
//! so stage 1 emits it only for events that fulfil the clause. Stage 0 is
//! told the clause's attribute alone, and leaves it out of its key test.
//!
//! Before a candidate reaches stage 2, the pre-filter kills subscriptions
//! that *provably cannot match* an event, using three cheap per-subscription
//! tests:
//!
//! 1. **Attribute presence.** Every *required* predicate leaf of a
//!    subscription (a leaf that must be true for the whole tree to be true)
//!    names an attribute the event must carry: a predicate on an absent
//!    attribute evaluates to `false` for every operator. The required
//!    attributes of up to 64 tracked attributes are folded into one `u64`
//!    bitmask per subscription, and an event is fingerprinted once into the
//!    same bit space — the presence test is `required & !present != 0`.
//! 2. **Secondary equality key.** The most selective required equality leaf
//!    *other than the access clause* (per the sampled
//!    [`DiscriminationHint`], else the lowest attribute id) is compiled to an
//!    interned constant id. The event's value at that attribute is interned
//!    through the same table during fingerprinting; a mismatch means the
//!    equality cannot hold. This is what separates subscriptions that share
//!    an access bucket (a Zipf-popular title) but disagree on a secondary
//!    equality (condition, buy-now flag, ...).
//! 3. **Exact numeric bound.** One required `<`, `≤`, `>` or `≥` leaf whose
//!    threshold compares through `f64` exactly as
//!    [`Operator::evaluate`](pubsub_core::Operator::evaluate) does — a float
//!    constant, or an int strictly inside ±2^53 — is compiled with its
//!    threshold. The event's numeric value is fingerprinted beside its key
//!    (`NaN` when it is not a number, which fails every bound exactly as it
//!    fails every comparison in the engine). An int constant beyond ±2^53
//!    rounds in `f64`, so it is never compiled and never kills.
//!
//! *Required* leaves are found by a conservative tree walk: the root is
//! required; every child of a required `And` is required; the only child of a
//! required single-child `Or` is required; nothing under a `Not` (or a
//! multi-child `Or`) is claimed. This under-approximates — it never marks a
//! leaf required unless its falsehood forces the tree false — which is what
//! makes both the gating and the kill sound for *any* Boolean structure.
//!
//! A subscription is compiled when it arrives and releases what it took when
//! it leaves (see [`PreFilter`]); the whole population is recompiled only
//! when the ranking behind the 64 presence bits is due for a refresh.
//!
//! The tests reject without touching the counting arrays or the subscription
//! tree; surviving candidates flow into stage 2 unchanged, so match output is
//! byte-identical with the pre-filter on or off.

use crate::config::PrefilterMode;
use crate::index::{equality_key, exact_threshold, EqKey};
use pubsub_core::{
    AttrId, NodeId, NodeKind, Operator, Predicate, Subscription, SubscriptionTree, Value,
};
use selectivity::DiscriminationHint;
use std::collections::HashMap;

/// Sentinel bit for attributes outside the tracked set.
const NO_BIT: u8 = u8::MAX;
/// Sentinel key for event values that match no registered equality constant
/// (or are not internable, e.g. `NaN`).
const NO_KEY: u32 = u32::MAX;
/// Width of the presence bitmask: at most this many attributes are tracked.
const MAX_TRACKED: usize = 64;

/// Per-subscription compiled stage-0 filter.
#[derive(Debug, Clone, Copy)]
struct SlotFilter {
    /// Bits of tracked attributes this subscription requires present.
    required_mask: u64,
    /// Threshold of the numeric bound (meaningless while `bound_bit` is
    /// [`NO_BIT`]).
    bound: f64,
    /// Interned constant the secondary key attribute must carry.
    key: u32,
    /// Bit of the secondary key attribute, or [`NO_BIT`] when the
    /// subscription has no required internable equality on a tracked
    /// attribute besides its access clause.
    key_bit: u8,
    /// Bit of the numeric bound's attribute, or [`NO_BIT`] when the
    /// subscription has no exact required bound on a tracked attribute.
    bound_bit: u8,
    /// `event value <op> bound` must hold.
    bound_op: Operator,
}

impl Default for SlotFilter {
    fn default() -> Self {
        // The default filter kills nothing.
        Self {
            required_mask: 0,
            bound: 0.0,
            key: NO_KEY,
            key_bit: NO_BIT,
            bound_bit: NO_BIT,
            bound_op: Operator::Lt,
        }
    }
}

/// One interned secondary-key constant.
#[derive(Debug)]
struct InternedConstant {
    /// The constant; `None` while the id sits in the free list.
    key: Option<EqKey>,
    /// Compiled filters using the id as their key.
    refs: u32,
}

/// The stage-0 pre-filter of a [`CountingEngine`](crate::CountingEngine).
///
/// Maintained per mutation: once a full `rebuild` has compiled the
/// population, `insert` compiles the arriving subscription alone and
/// `remove` gives back exactly what
/// that compilation took — presence bits and interned constants are
/// reference-counted, so neither leaks under churn, and the counts behind
/// [`PrefilterMode::Auto`] are kept running. A full rebuild (the same
/// per-subscription compilation, after re-ranking which attributes earn a
/// presence bit) runs for a configuration or hint change, for a population
/// loaded before the first match, and once the mutations absorbed since the
/// last one reach the population — amortised O(1) per mutation, and what
/// keeps the tracked attributes honest. Queried once per `(event, candidate)`
/// emission on the hot path. See the `prefilter` module docs for the
/// semantics.
#[derive(Debug, Default)]
pub struct PreFilter {
    /// Whether the compiled state reflects the engine's population. `false`
    /// until the first rebuild and after [`invalidate`](Self::invalidate);
    /// mutations are then ignored, the next rebuild covers them.
    built: bool,
    /// The mode of the last rebuild.
    mode: PrefilterMode,
    /// Whether stage 0 runs at all (`mode` resolved against the running
    /// population counts; `Auto` decides from the population shape).
    enabled: bool,
    /// Presence bits handed out since the last rebuild: bits `0..bits` are
    /// each held by an attribute or listed in `free_bits`.
    bits: u8,
    /// Bits whose attribute lost its last requirer since the last rebuild.
    free_bits: Vec<u8>,
    /// `AttrId::index()` → presence bit, [`NO_BIT`] for untracked attributes.
    /// An attribute's bit never changes while any compiled subscription
    /// requires it, so [`remove`](Self::remove) sees the bits
    /// [`compile`](Self::compile) saw.
    attr_bit: Vec<u8>,
    /// `AttrId::index()` → required clauses naming the attribute, over all
    /// compiled subscriptions (tracked or not). Same length as `attr_bit`.
    attr_refs: Vec<u32>,
    /// Interning table over the secondary-key constants of all
    /// subscriptions. Event values are looked up through the same table, so
    /// key equality is exactly engine equality ([`EqKey`] semantics,
    /// including the `Int -> Float` widening).
    constants: HashMap<EqKey, u32>,
    /// Indexed by interned id.
    constant_slab: Vec<InternedConstant>,
    /// Ids of `constant_slab` whose last reference was released.
    free_constants: Vec<u32>,
    /// Indexed by engine slot.
    slot_filters: Vec<SlotFilter>,
    /// Compiled subscriptions.
    occupied: usize,
    /// Compiled subscriptions with a non-empty presence mask.
    constrained: usize,
    /// Mutations absorbed since the last rebuild.
    absorbed: usize,
    /// Reusable traversal stack.
    stack: Vec<NodeId>,
}

impl PreFilter {
    /// Creates a pre-filter that kills nothing (disabled, no subscriptions).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether stage 0 is active. When `false`, fingerprinting is skipped
    /// entirely and every candidate survives.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Number of attributes currently holding a presence bit.
    pub fn tracked_attributes(&self) -> usize {
        self.bits as usize - self.free_bits.len()
    }

    /// Length of the fingerprint [`fingerprint`](Self::fingerprint) fills:
    /// one entry per presence bit handed out, free or not.
    pub(crate) fn key_width(&self) -> usize {
        self.bits as usize
    }

    /// Whether the compiled state reflects the engine's population; when
    /// `false` the engine runs [`rebuild`](Self::rebuild) before matching.
    pub(crate) fn is_built(&self) -> bool {
        self.built
    }

    /// Forces a full rebuild before the next match (configuration or hint
    /// changed).
    pub(crate) fn invalidate(&mut self) {
        self.built = false;
    }

    /// Recompiles everything from the current subscription set.
    ///
    /// `subs` yields every occupied `(slot, subscription, access attribute)`;
    /// `slot_count` is the slab length (filters of free slots stay at the
    /// never-kill default). The iterator is walked twice — once to rank
    /// attributes for the 64 tracked bits, once to compile each subscription
    /// — hence `Clone`.
    pub(crate) fn rebuild<'a>(
        &mut self,
        slot_count: usize,
        subs: impl Iterator<Item = (u32, &'a Subscription, Option<AttrId>)> + Clone,
        hint: Option<&DiscriminationHint>,
        mode: PrefilterMode,
    ) {
        self.built = true;
        self.mode = mode;
        self.bits = 0;
        self.free_bits.clear();
        self.attr_bit.fill(NO_BIT);
        self.attr_refs.fill(0);
        self.constants.clear();
        self.constant_slab.clear();
        self.free_constants.clear();
        self.slot_filters.clear();
        self.occupied = 0;
        self.constrained = 0;
        self.absorbed = 0;
        if mode == PrefilterMode::Off {
            self.enabled = false;
            return;
        }

        // Pass A: rank attributes by how many required clauses name them, so
        // the (at most 64) presence bits go to the most load-bearing ones.
        let mut stack = std::mem::take(&mut self.stack);
        let mut ranked: Vec<AttrId> = Vec::new();
        for (_, sub, _) in subs.clone() {
            for_each_required_item(sub.tree(), &mut stack, |item| {
                let attr = item.attr();
                if self.retain_attr(attr) {
                    ranked.push(attr);
                }
            });
        }
        self.stack = stack;
        if ranked.len() > MAX_TRACKED {
            ranked.sort_unstable_by_key(|attr| {
                (std::cmp::Reverse(self.attr_refs[attr.index()]), attr.raw())
            });
            ranked.truncate(MAX_TRACKED);
        }
        // Deterministic bit assignment regardless of arrival order.
        ranked.sort_unstable_by_key(|attr| attr.raw());
        for attr in ranked {
            self.assign_bit(attr);
        }

        // Pass B: compile each subscription against those bits.
        self.slot_filters.resize(slot_count, SlotFilter::default());
        for (slot, sub, access) in subs {
            self.compile(slot, sub, access, hint);
        }
        self.update_enabled();
    }

    /// Compiles one subscription that entered slot `slot`, indexed under an
    /// access clause on `access` (if gated). An attribute nobody required so
    /// far takes a presence bit if one is left; an attribute that has
    /// requirers but no bit stays untracked until the next rebuild, which
    /// keeps every compiled mask valid.
    pub(crate) fn insert(
        &mut self,
        slot: u32,
        sub: &Subscription,
        access: Option<AttrId>,
        hint: Option<&DiscriminationHint>,
    ) {
        if !self.built || self.mode == PrefilterMode::Off {
            return;
        }
        let mut stack = std::mem::take(&mut self.stack);
        for_each_required_item(sub.tree(), &mut stack, |item| {
            let attr = item.attr();
            if self.retain_attr(attr) {
                self.assign_bit(attr);
            }
        });
        self.stack = stack;
        if self.slot_filters.len() <= slot as usize {
            self.slot_filters
                .resize(slot as usize + 1, SlotFilter::default());
        }
        self.compile(slot, sub, access, hint);
        self.absorb_mutation();
    }

    /// Gives back what compiling `sub` into slot `slot` took. `sub` must be
    /// the subscription that was compiled there.
    pub(crate) fn remove(&mut self, slot: u32, sub: &Subscription) {
        if !self.built || self.mode == PrefilterMode::Off {
            return;
        }
        let mut stack = std::mem::take(&mut self.stack);
        for_each_required_item(sub.tree(), &mut stack, |item| {
            self.release_attr(item.attr())
        });
        self.stack = stack;
        let filter = std::mem::take(&mut self.slot_filters[slot as usize]);
        if filter.key_bit != NO_BIT {
            self.release_constant(filter.key);
        }
        self.occupied -= 1;
        if filter.required_mask != 0 {
            self.constrained -= 1;
        }
        self.absorb_mutation();
    }

    /// Counts one incrementally applied mutation; once as many were absorbed
    /// as there are subscriptions, the next match re-ranks from scratch.
    fn absorb_mutation(&mut self) {
        self.absorbed += 1;
        if self.absorbed >= self.occupied {
            self.built = false;
        }
        self.update_enabled();
    }

    fn update_enabled(&mut self) {
        self.enabled = match self.mode {
            PrefilterMode::On => true,
            PrefilterMode::Off => false,
            PrefilterMode::Auto => self.occupied >= 32 && self.constrained * 2 >= self.occupied,
        };
    }

    /// Counts one more required clause on `attr`; `true` if it is the first.
    fn retain_attr(&mut self, attr: AttrId) -> bool {
        let i = attr.index();
        if self.attr_refs.len() <= i {
            self.attr_refs.resize(i + 1, 0);
            self.attr_bit.resize(i + 1, NO_BIT);
        }
        self.attr_refs[i] += 1;
        self.attr_refs[i] == 1
    }

    /// Counts one required clause on `attr` less; the last one frees the
    /// attribute's presence bit.
    fn release_attr(&mut self, attr: AttrId) {
        let i = attr.index();
        self.attr_refs[i] -= 1;
        let bit = self.attr_bit[i];
        if self.attr_refs[i] == 0 && bit != NO_BIT {
            self.attr_bit[i] = NO_BIT;
            self.free_bits.push(bit);
        }
    }

    /// Gives `attr` a presence bit if fewer than [`MAX_TRACKED`] are taken.
    fn assign_bit(&mut self, attr: AttrId) {
        let bit = match self.free_bits.pop() {
            Some(bit) => bit,
            None if (self.bits as usize) < MAX_TRACKED => {
                self.bits += 1;
                self.bits - 1
            }
            None => return,
        };
        self.attr_bit[attr.index()] = bit;
    }

    /// Interns `key`, taking one reference on its id.
    fn intern(&mut self, key: EqKey) -> u32 {
        if let Some(&id) = self.constants.get(&key) {
            self.constant_slab[id as usize].refs += 1;
            return id;
        }
        let constant = InternedConstant {
            key: Some(key.clone()),
            refs: 1,
        };
        let id = match self.free_constants.pop() {
            Some(id) => {
                self.constant_slab[id as usize] = constant;
                id
            }
            None => {
                self.constant_slab.push(constant);
                (self.constant_slab.len() - 1) as u32
            }
        };
        self.constants.insert(key, id);
        id
    }

    /// Drops one reference on an interned id; the last one frees the id.
    fn release_constant(&mut self, id: u32) {
        let constant = &mut self.constant_slab[id as usize];
        constant.refs -= 1;
        if constant.refs == 0 {
            if let Some(key) = constant.key.take() {
                self.constants.remove(&key);
            }
            self.free_constants.push(id);
        }
    }

    /// Compiles one subscription's presence mask, its secondary key (the
    /// best required equality off the `access` attribute) and its numeric
    /// bound (the exact required bound of lowest `(attribute, operator,
    /// threshold)`), against the current presence bits.
    fn compile(
        &mut self,
        slot: u32,
        sub: &Subscription,
        access: Option<AttrId>,
        hint: Option<&DiscriminationHint>,
    ) {
        let mut filter = SlotFilter::default();
        // (score, attribute, bit, constant): lowest wins; the score is "the
        // probability a random event survives this key".
        let mut key: Option<(f64, u32, u8, EqKey)> = None;
        // ((attribute, operator), threshold, bit): lowest wins.
        let mut bound: Option<((u32, Operator), f64, u8)> = None;
        let mut stack = std::mem::take(&mut self.stack);
        for_each_required_item(sub.tree(), &mut stack, |item| {
            let attr = item.attr();
            let bit = self.attr_bit[attr.index()];
            if bit == NO_BIT {
                return;
            }
            filter.required_mask |= 1 << bit;
            let RequiredItem::Leaf(_, p) = item else {
                return;
            };
            if let Some(threshold) = exact_threshold(p) {
                let rank = (attr.raw(), p.operator());
                let better = bound.map_or(true, |(r, t, _)| {
                    rank.cmp(&r).then(threshold.total_cmp(&t)).is_lt()
                });
                if better {
                    bound = Some((rank, threshold, bit));
                }
            } else if let Some(eq_key) = equality_key(p).filter(|_| Some(attr) != access) {
                let score = hint.and_then(|h| h.score(attr)).unwrap_or(f64::INFINITY);
                let better = key.as_ref().map_or(true, |(s, raw, _, _)| {
                    score.total_cmp(s).then(attr.raw().cmp(raw)).is_lt()
                });
                if better {
                    key = Some((score, attr.raw(), bit, eq_key));
                }
            }
        });
        self.stack = stack;
        if let Some(((_, op), threshold, bit)) = bound {
            filter.bound_bit = bit;
            filter.bound_op = op;
            filter.bound = threshold;
        }
        if let Some((_, _, bit, eq_key)) = key {
            filter.key_bit = bit;
            filter.key = self.intern(eq_key);
        }
        self.slot_filters[slot as usize] = filter;
        self.occupied += 1;
        if filter.required_mask != 0 {
            self.constrained += 1;
        }
    }

    /// Fingerprints one event: fills `fp` (per presence bit, the interned
    /// key of the event's value — [`NO_KEY`] when absent or unknown — and
    /// its numeric value, `NaN` when absent or not a number) and returns the
    /// presence bitmask. `fp` is caller-owned scratch, grow-only.
    pub(crate) fn fingerprint<'a>(
        &self,
        pairs: impl Iterator<Item = (AttrId, &'a Value)>,
        fp: &mut Vec<(u32, f64)>,
    ) -> u64 {
        fp.clear();
        fp.resize(self.bits as usize, (NO_KEY, f64::NAN));
        let mut mask = 0u64;
        for (attr, value) in pairs {
            let bit = self.attr_bit.get(attr.index()).copied().unwrap_or(NO_BIT);
            if bit == NO_BIT {
                continue;
            }
            mask |= 1 << bit;
            let key = EqKey::from_value(value)
                .and_then(|k| self.constants.get(&k).copied())
                .unwrap_or(NO_KEY);
            fp[bit as usize] = (key, value.as_f64().unwrap_or(f64::NAN));
        }
        mask
    }

    /// Stage-0 kill test for one `(event, slot)` pair against a fingerprint
    /// produced by [`fingerprint`](Self::fingerprint). `true` means the slot
    /// provably cannot match the event.
    #[inline]
    pub(crate) fn kills(&self, slot: usize, mask: u64, fp: &[(u32, f64)]) -> bool {
        let f = &self.slot_filters[slot];
        f.required_mask & !mask != 0
            || (f.key_bit != NO_BIT && fp[f.key_bit as usize].0 != f.key)
            || (f.bound_bit != NO_BIT
                && !bound_holds(f.bound_op, fp[f.bound_bit as usize].1, f.bound))
    }
}

/// `value <op> bound` in `f64`; `false` for a `NaN` value, as for every
/// comparison the engine makes with a non-number.
#[inline]
fn bound_holds(op: Operator, value: f64, bound: f64) -> bool {
    match op {
        Operator::Lt => value < bound,
        Operator::Le => value <= bound,
        Operator::Gt => value > bound,
        Operator::Ge => value >= bound,
        _ => true,
    }
}

/// Everything about a [`PreFilter`] that does not depend on the order its
/// subscriptions arrived in, for comparing an incrementally maintained one
/// with one rebuilt from the same population.
#[cfg(test)]
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Snapshot {
    pub(crate) enabled: bool,
    pub(crate) occupied: usize,
    pub(crate) constrained: usize,
    /// `(attribute, required clauses)` of every attribute with any.
    pub(crate) attr_refs: Vec<(u32, u32)>,
    /// The attributes holding a presence bit, ascending.
    pub(crate) tracked: Vec<u32>,
    /// Live interned constants, and the references on them.
    pub(crate) constants: usize,
    pub(crate) constant_refs: u64,
    /// `(slot, attribute, operator, threshold bits)` of every compiled bound.
    pub(crate) bounds: Vec<(u32, u32, Operator, u64)>,
}

#[cfg(test)]
impl PreFilter {
    /// The order-independent state, after checking the invariants that tie
    /// the redundant structures together.
    pub(crate) fn snapshot(&self) -> Snapshot {
        // Every bit handed out is held by exactly one attribute that has a
        // requirer, or is free.
        let mut held = self.free_bits.clone();
        let mut tracked = Vec::new();
        for (attr, (&bit, &refs)) in (0u32..).zip(self.attr_bit.iter().zip(&self.attr_refs)) {
            if bit != NO_BIT {
                assert!(refs > 0, "bit held by nobody");
                held.push(bit);
                tracked.push(attr);
            }
        }
        held.sort_unstable();
        assert_eq!(held, (0..self.bits).collect::<Vec<u8>>());
        assert_eq!(tracked.len(), self.tracked_attributes());
        let live = self.constant_slab.iter().filter(|c| c.refs > 0);
        assert_eq!(live.clone().count(), self.constants.len());
        assert_eq!(
            self.constant_slab.len(),
            self.constants.len() + self.free_constants.len()
        );
        Snapshot {
            enabled: self.enabled,
            occupied: self.occupied,
            constrained: self.constrained,
            attr_refs: (0u32..)
                .zip(&self.attr_refs)
                .filter(|(_, &refs)| refs > 0)
                .map(|(attr, &refs)| (attr, refs))
                .collect(),
            tracked,
            constants: self.constants.len(),
            constant_refs: live.map(|c| u64::from(c.refs)).sum(),
            bounds: (0u32..)
                .zip(&self.slot_filters)
                .filter(|(_, f)| f.bound_bit != NO_BIT)
                .map(|(slot, f)| {
                    let attr = self.attr_bit.iter().position(|&b| b == f.bound_bit);
                    let attr = attr.expect("a bound sits on a tracked attribute") as u32;
                    (slot, attr, f.bound_op, f.bound.to_bits())
                })
                .collect(),
        }
    }

    /// Mutations absorbed since the last full rebuild.
    pub(crate) fn absorbed(&self) -> usize {
        self.absorbed
    }
}

/// A required clause surfaced by [`for_each_required_item`].
#[derive(Clone, Copy)]
pub(crate) enum RequiredItem<'a> {
    /// A predicate leaf that must itself be true.
    Leaf(NodeId, &'a Predicate),
    /// A required `Or` (the node) whose children are all equality predicates
    /// on one attribute: the attribute must be present and its value must
    /// equal one of the children's constants.
    AnyEq(AttrId, NodeId),
}

impl RequiredItem<'_> {
    /// The attribute the clause needs the event to carry.
    pub(crate) fn attr(&self) -> AttrId {
        match self {
            RequiredItem::Leaf(_, p) => p.attr_id(),
            RequiredItem::AnyEq(attr, _) => *attr,
        }
    }
}

/// Walks the *required* clauses of a tree: root required, `And` propagates
/// to all children, `Not` to none. A required `Or` (it has two children or
/// more) is surfaced as [`RequiredItem::AnyEq`] when all its children are
/// equalities on one attribute, and dropped otherwise. See the
/// [module docs](self) for why this under-approximation is sound.
pub(crate) fn for_each_required_item<'a>(
    tree: &'a SubscriptionTree,
    stack: &mut Vec<NodeId>,
    mut f: impl FnMut(RequiredItem<'a>),
) {
    stack.clear();
    stack.push(tree.root());
    while let Some(id) = stack.pop() {
        let Some(node) = tree.node(id) else {
            continue;
        };
        match node.kind() {
            NodeKind::Predicate(p) => f(RequiredItem::Leaf(id, p)),
            NodeKind::And => stack.extend(tree.children(id)),
            NodeKind::Or => {
                if let Some(attr) = single_attr_equality_group(tree, id) {
                    f(RequiredItem::AnyEq(attr, id));
                }
            }
            NodeKind::Not => {}
        }
    }
}

/// Returns the common attribute when every child of `or` is an equality
/// predicate on the same attribute, `None` otherwise.
fn single_attr_equality_group(tree: &SubscriptionTree, or: NodeId) -> Option<AttrId> {
    let mut attr = None;
    for id in tree.children(or) {
        let Some(NodeKind::Predicate(p)) = tree.node(id).map(|n| n.kind()) else {
            return None;
        };
        if p.operator() != Operator::Eq {
            return None;
        }
        match attr {
            None => attr = Some(p.attr_id()),
            Some(a) if a == p.attr_id() => {}
            Some(_) => return None,
        }
    }
    attr
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_core::{EventMessage, Expr, SubscriberId, SubscriptionId};

    fn sub(id: u64, expr: &Expr) -> Subscription {
        Subscription::from_expr(
            SubscriptionId::from_raw(id),
            SubscriberId::from_raw(1),
            expr,
        )
    }

    fn attr(name: &str) -> AttrId {
        pubsub_core::attr::intern(name)
    }

    /// Rebuilds over `subs`, each gated on the given access attribute.
    fn rebuild_gated(
        pf: &mut PreFilter,
        subs: &[(Subscription, Option<AttrId>)],
        mode: PrefilterMode,
    ) {
        pf.rebuild(
            subs.len(),
            subs.iter().enumerate().map(|(i, (s, a))| (i as u32, s, *a)),
            None,
            mode,
        );
    }

    /// Rebuilds over ungated `subs`.
    fn rebuild(pf: &mut PreFilter, subs: &[Subscription], mode: PrefilterMode) {
        let subs: Vec<_> = subs.iter().map(|s| (s.clone(), None)).collect();
        rebuild_gated(pf, &subs, mode);
    }

    fn fingerprint_event(pf: &PreFilter, ev: &EventMessage) -> (u64, Vec<(u32, f64)>) {
        let mut fp = Vec::new();
        let mask = pf.fingerprint(ev.iter_resolved(), &mut fp);
        (mask, fp)
    }

    #[test]
    fn required_leaves_follow_and_single_or_and_skip_not() {
        let expr = Expr::and(vec![
            Expr::eq("pf_title", "war and peace"),
            Expr::or(vec![Expr::le("pf_price", 10i64)]),
            Expr::or(vec![Expr::eq("pf_cat", "books"), Expr::eq("pf_cat", "cds")]),
            Expr::not(Expr::eq("pf_cond", "worn")),
        ]);
        let s = sub(1, &expr);
        let mut attrs = Vec::new();
        let mut stack = Vec::new();
        for_each_required_item(s.tree(), &mut stack, |item| match item {
            RequiredItem::Leaf(_, p) => {
                attrs.push(pubsub_core::attr::name(p.attr_id()).to_string());
            }
            RequiredItem::AnyEq(attr, or) => {
                attrs.push(format!(
                    "any({}, {})",
                    pubsub_core::attr::name(attr),
                    s.tree().children(or).count()
                ));
            }
        });
        attrs.sort();
        // `pf_cond` (negated) is not required; the `pf_cat` equality-`Or`
        // surfaces as a disjunctive group.
        assert_eq!(attrs, vec!["any(pf_cat, 2)", "pf_price", "pf_title"]);
    }

    #[test]
    fn kills_on_missing_attribute_and_wrong_discrimination_key() {
        let subs = vec![sub(
            1,
            &Expr::and(vec![
                Expr::eq("pf_title", "moby dick"),
                Expr::le("pf_price", 10i64),
            ]),
        )];
        let mut pf = PreFilter::new();
        rebuild(&mut pf, &subs, PrefilterMode::On);
        assert!(pf.enabled());
        assert_eq!(pf.tracked_attributes(), 2);

        let matching = EventMessage::builder()
            .attr("pf_title", "moby dick")
            .attr("pf_price", 5i64)
            .build();
        let (mask, fp) = fingerprint_event(&pf, &matching);
        assert!(!pf.kills(0, mask, &fp));

        // Wrong title: the discrimination key mismatches.
        let wrong_key = EventMessage::builder()
            .attr("pf_title", "ulysses")
            .attr("pf_price", 5i64)
            .build();
        let (mask, fp) = fingerprint_event(&pf, &wrong_key);
        assert!(pf.kills(0, mask, &fp));

        // Missing price: the presence mask mismatches even though the price
        // bound itself is not an equality.
        let missing_attr = EventMessage::builder()
            .attr("pf_title", "moby dick")
            .build();
        let (mask, fp) = fingerprint_event(&pf, &missing_attr);
        assert!(pf.kills(0, mask, &fp));

        // A surviving event may still carry *more* attributes than required.
        let extra = EventMessage::builder()
            .attr("pf_title", "moby dick")
            .attr("pf_price", 10i64)
            .attr("pf_other", true)
            .build();
        let (mask, fp) = fingerprint_event(&pf, &extra);
        assert!(!pf.kills(0, mask, &fp));
    }

    #[test]
    fn second_discrimination_key_kills_hot_key_survivors() {
        // Two subscriptions gated on the hot title disagree on a secondary
        // equality; the key (the equality off the access attribute) must
        // separate them.
        let title = attr("pf2_title");
        let subs = vec![
            (
                sub(
                    1,
                    &Expr::and(vec![
                        Expr::eq("pf2_title", "moby dick"),
                        Expr::eq("pf2_cond", "new"),
                        Expr::le("pf2_price", 10i64),
                    ]),
                ),
                Some(title),
            ),
            (
                sub(
                    2,
                    &Expr::and(vec![
                        Expr::eq("pf2_title", "moby dick"),
                        Expr::eq("pf2_cond", "worn"),
                        Expr::le("pf2_price", 10i64),
                    ]),
                ),
                Some(title),
            ),
        ];
        let mut pf = PreFilter::new();
        rebuild_gated(&mut pf, &subs, PrefilterMode::On);
        let ev = EventMessage::builder()
            .attr("pf2_title", "moby dick")
            .attr("pf2_cond", "new")
            .attr("pf2_price", 5i64)
            .build();
        let (mask, fp) = fingerprint_event(&pf, &ev);
        assert!(!pf.kills(0, mask, &fp));
        assert!(pf.kills(1, mask, &fp), "condition disagrees on sub 2");
        // Only the secondary constants were interned: the access clause is
        // stage 1's business.
        assert_eq!(pf.snapshot().constants, 2);

        // A gated subscription with no other equality has no key at all.
        let one = vec![(sub(3, &Expr::eq("pf2_title", "moby dick")), Some(title))];
        rebuild_gated(&mut pf, &one, PrefilterMode::On);
        let ev = EventMessage::builder().attr("pf2_title", "ulysses").build();
        let (mask, fp) = fingerprint_event(&pf, &ev);
        assert!(!pf.kills(0, mask, &fp));
        assert_eq!(pf.snapshot().constants, 0);
    }

    #[test]
    fn exact_bound_kills_only_where_f64_is_exact() {
        let big = (1i64 << 53) + 1;
        let subs = vec![
            sub(1, &Expr::le("pf5_x", 10i64)),
            sub(2, &Expr::gt("pf5_x", 2.5f64)),
            // Beyond ±2^53 an int threshold rounds in `f64`: never compiled.
            sub(3, &Expr::lt("pf5_x", big)),
            sub(4, &Expr::ge("pf5_x", -big)),
        ];
        let mut pf = PreFilter::new();
        rebuild(&mut pf, &subs, PrefilterMode::On);
        assert_eq!(pf.snapshot().bounds.len(), 2);
        let kills = |value: Value| {
            let ev = EventMessage::builder().attr("pf5_x", value.clone()).build();
            let (mask, fp) = fingerprint_event(&pf, &ev);
            let verdicts: Vec<bool> = (0..subs.len()).map(|s| pf.kills(s, mask, &fp)).collect();
            // Never a kill where the engine's own comparison holds.
            for (s, killed) in verdicts.iter().enumerate() {
                if *killed {
                    assert!(!subs[s].matches(&ev), "sub {s} killed on {value:?}");
                }
            }
            verdicts
        };
        assert_eq!(kills(Value::Int(10)), [false, false, false, false]);
        assert_eq!(kills(Value::Float(10.0)), [false, false, false, false]);
        assert_eq!(kills(Value::Int(11)), [true, false, false, false]);
        assert_eq!(kills(Value::Float(2.5)), [false, true, false, false]);
        assert_eq!(kills(Value::Float(-0.0)), [false, true, false, false]);
        // Not a number: no bound holds, exactly as no comparison does.
        assert_eq!(kills(Value::Float(f64::NAN)), [true, true, false, false]);
        assert_eq!(kills(Value::from("10")), [true, true, false, false]);
        // `Int(2^53)` is below `2^53 + 1` although their `f64` images are
        // equal; the uncompiled bound lets it through.
        assert_eq!(kills(Value::Int(1 << 53)), [true, false, false, false]);
        assert!(subs[2].matches(&EventMessage::builder().attr("pf5_x", 1i64 << 53).build()));
    }

    #[test]
    fn equality_keys_use_engine_equality_semantics() {
        // `= 3` (int) and an event carrying `3.0` (float) must agree, like
        // the engine's equality buckets do.
        let subs = vec![sub(1, &Expr::eq("pf_num", 3i64))];
        let mut pf = PreFilter::new();
        rebuild(&mut pf, &subs, PrefilterMode::On);
        let ev = EventMessage::builder().attr("pf_num", 3.0f64).build();
        let (mask, fp) = fingerprint_event(&pf, &ev);
        assert!(!pf.kills(0, mask, &fp));
        let ev = EventMessage::builder().attr("pf_num", f64::NAN).build();
        let (mask, fp) = fingerprint_event(&pf, &ev);
        assert!(pf.kills(0, mask, &fp), "NaN can never fulfil an equality");
    }

    #[test]
    fn auto_mode_requires_a_large_constrained_population() {
        let constrained: Vec<Subscription> = (0..32)
            .map(|i| sub(i, &Expr::eq("pf_auto_a", i as i64)))
            .collect();
        let mut pf = PreFilter::new();
        rebuild(&mut pf, &constrained[..31], PrefilterMode::Auto);
        assert!(!pf.enabled(), "below the population floor");
        rebuild(&mut pf, &constrained, PrefilterMode::Auto);
        assert!(pf.enabled());

        // Mostly unconstrained population: NOT roots have no required leaves.
        let unconstrained: Vec<Subscription> = (0..32)
            .map(|i| {
                if i < 8 {
                    sub(i, &Expr::eq("pf_auto_a", i as i64))
                } else {
                    sub(i, &Expr::not(Expr::eq("pf_auto_b", i as i64)))
                }
            })
            .collect();
        rebuild(&mut pf, &unconstrained, PrefilterMode::Auto);
        assert!(!pf.enabled(), "constraint coverage below half");

        rebuild(&mut pf, &constrained, PrefilterMode::Off);
        assert!(!pf.enabled());
    }

    #[test]
    fn tracked_attributes_cap_at_sixty_four() {
        // 70 distinct attributes; the popular one must keep its bit.
        let mut subs: Vec<Subscription> = (0..70)
            .map(|i| sub(i, &Expr::eq(format!("pf_cap_{i}").as_str(), 1i64)))
            .collect();
        for i in 70..80 {
            subs.push(sub(i, &Expr::eq("pf_cap_0", 1i64)));
        }
        let mut pf = PreFilter::new();
        rebuild(&mut pf, &subs, PrefilterMode::On);
        assert_eq!(pf.tracked_attributes(), 64);
        let ev = EventMessage::builder().attr("pf_cap_0", 1i64).build();
        let (mask, fp) = fingerprint_event(&pf, &ev);
        assert!(!pf.kills(0, mask, &fp));
        assert!(pf.kills(1, mask, &fp), "pf_cap_1 is required but absent");
    }
}
