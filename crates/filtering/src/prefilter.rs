//! Stage 0 of the staged matching pipeline: per-event pre-filtering.
//!
//! Before any predicate counting happens, the pre-filter kills candidate
//! subscriptions that *provably cannot match* an event, using two cheap
//! per-subscription tests:
//!
//! 1. **Attribute presence.** Every *required* predicate leaf of a
//!    subscription (a leaf that must be true for the whole tree to be true)
//!    names an attribute the event must carry: a predicate on an absent
//!    attribute evaluates to `false` for every operator. The required
//!    attributes of up to 64 tracked attributes are folded into one `u64`
//!    bitmask per subscription, and an event is fingerprinted once into the
//!    same bit space — the presence test is `required & !present != 0`.
//! 2. **Discrimination keys.** Among a subscription's required *equality*
//!    leaves, the two most selective ones (per the sampled
//!    [`DiscriminationHint`](selectivity::DiscriminationHint), falling back
//!    to the local equality-index cardinality) are compiled to interned
//!    constant ids. The event's values for those attributes are interned
//!    through the same table during fingerprinting; a mismatch on either
//!    means a required equality cannot hold, so the subscription is dead for
//!    this event. The second key is what separates subscriptions that agree
//!    on a hot primary key (e.g. a Zipf-popular title) but disagree on a
//!    secondary equality (condition, buy-now flag, ...).
//! 3. **Disjunctive signature.** A required `Or` whose children are all
//!    equalities on *one* attribute (`category = a ∨ category = b ∨ ...`)
//!    requires that attribute present with a value from the allowed set. The
//!    allowed constants are folded into a 64-bit signature over their
//!    interned ids; an event key whose bit is absent provably satisfies no
//!    child, so the subscription dies. Hash collisions only let candidates
//!    *survive* (one-sided error), never kill a real match.
//!
//! *Required* leaves are found by a conservative tree walk: the root is
//! required; every child of a required `And` is required; the only child of a
//! required single-child `Or` is required; nothing under a `Not` (or a
//! multi-child `Or`) is claimed. This under-approximates — it never marks a
//! leaf required unless its falsehood forces the tree false — which is what
//! makes the kill sound for *any* Boolean structure.
//!
//! A subscription is compiled when it arrives and releases what it took when
//! it leaves (see [`PreFilter`]); the whole population is recompiled only
//! when the ranking behind the 64 presence bits is due for a refresh.
//!
//! Both tests reject without touching the attribute index, the counting
//! arrays, or the subscription tree; surviving candidates flow into stage 1
//! (index probing) and stage 2 (counting) unchanged, so match output is
//! byte-identical with the pre-filter on or off.

use crate::config::PrefilterMode;
use crate::index::{AttributeIndex, EqKey};
use pubsub_core::{AttrId, NodeId, NodeKind, Predicate, Subscription, SubscriptionTree, Value};
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
    /// Bit of the primary discrimination attribute, or [`NO_BIT`] when the
    /// subscription has no required internable equality on a tracked
    /// attribute.
    disc_bit: u8,
    /// Interned constant the primary discrimination attribute must carry.
    disc_key: u32,
    /// Bit of the secondary discrimination attribute ([`NO_BIT`] when the
    /// subscription has fewer than two required internable equalities).
    disc2_bit: u8,
    /// Interned constant the secondary discrimination attribute must carry.
    disc2_key: u32,
    /// Bit of the disjunctive-signature attribute ([`NO_BIT`] when the
    /// subscription has no required single-attribute equality `Or`).
    sig_bit: u8,
    /// Signature of the interned constants the signature attribute may
    /// carry: bit `id & 63` is set for each allowed constant id.
    sig: u64,
}

impl Default for SlotFilter {
    fn default() -> Self {
        // The default filter kills nothing.
        Self {
            required_mask: 0,
            disc_bit: NO_BIT,
            disc_key: NO_KEY,
            disc2_bit: NO_BIT,
            disc2_key: NO_KEY,
            sig_bit: NO_BIT,
            sig: 0,
        }
    }
}

/// One interned discrimination constant.
#[derive(Debug)]
struct InternedConstant {
    /// The constant; `None` while the id sits in the free list.
    key: Option<EqKey>,
    /// Compiled filters referring to the id (a kill key, or one child of an
    /// equality group folded into a signature).
    refs: u32,
}

/// The stage-0 pre-filter of a [`CountingEngine`](crate::CountingEngine).
///
/// Maintained per mutation: once a full [`rebuild`](Self::rebuild) has
/// compiled the population, [`insert`](Self::insert) compiles the arriving
/// subscription alone and [`remove`](Self::remove) gives back exactly what
/// that compilation took — presence bits and interned constants are
/// reference-counted, so neither leaks under churn, and the counts behind
/// [`PrefilterMode::Auto`] are kept running. A full rebuild (the same
/// per-subscription compilation, after re-ranking which attributes earn a
/// presence bit) runs for a configuration or hint change, for a population
/// loaded before the first match, and once the mutations absorbed since the
/// last one reach the population — amortised O(1) per mutation, and what
/// keeps kill-key scores and the tracked attributes honest. Queried once per
/// `(event, candidate)` emission on the hot path. See the
/// [module docs](self) for the semantics.
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
    /// Interning table over the discrimination constants of all
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

    /// Length of the key array [`fingerprint`](Self::fingerprint) fills: one
    /// entry per presence bit handed out, free or not.
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
    /// `subs` yields every occupied `(slot, subscription)`; `slot_count` is
    /// the slab length (filters of free slots stay at the never-kill
    /// default). The iterator is walked twice — once to rank attributes for
    /// the 64 tracked bits, once to compile each subscription — hence
    /// `Clone`.
    pub(crate) fn rebuild<'a>(
        &mut self,
        slot_count: usize,
        subs: impl Iterator<Item = (u32, &'a Subscription)> + Clone,
        index: &AttributeIndex,
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
        for (_, sub) in subs.clone() {
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
        for (slot, sub) in subs {
            self.compile(slot, sub, index, hint);
        }
        self.update_enabled();
    }

    /// Compiles one subscription that entered slot `slot` (already registered
    /// in `index`). An attribute nobody required so far takes a presence bit
    /// if one is left; an attribute that has requirers but no bit stays
    /// untracked until the next rebuild, which keeps every compiled mask
    /// valid.
    pub(crate) fn insert(
        &mut self,
        slot: u32,
        sub: &Subscription,
        index: &AttributeIndex,
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
        self.compile(slot, sub, index, hint);
        self.absorb_mutation();
    }

    /// Gives back what compiling `sub` into slot `slot` took. `sub` must be
    /// the subscription that was compiled there.
    pub(crate) fn remove(&mut self, slot: u32, sub: &Subscription) {
        if !self.built || self.mode == PrefilterMode::Off {
            return;
        }
        let tree = sub.tree();
        let mut stack = std::mem::take(&mut self.stack);
        for_each_required_item(tree, &mut stack, |item| {
            let attr = item.attr();
            if let RequiredItem::AnyEq(_, children) = item {
                if self.attr_bit[attr.index()] != NO_BIT {
                    for key in group_keys(tree, children) {
                        if let Some(&id) = self.constants.get(&key) {
                            self.release_constant(id);
                        }
                    }
                }
            }
            self.release_attr(attr);
        });
        self.stack = stack;
        let filter = std::mem::take(&mut self.slot_filters[slot as usize]);
        if filter.disc_bit != NO_BIT {
            self.release_constant(filter.disc_key);
        }
        if filter.disc2_bit != NO_BIT {
            self.release_constant(filter.disc2_key);
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

    /// Compiles one subscription's presence mask and picks its two most
    /// discriminating required equalities as the kill keys, against the
    /// current presence bits.
    fn compile(
        &mut self,
        slot: u32,
        sub: &Subscription,
        index: &AttributeIndex,
        hint: Option<&DiscriminationHint>,
    ) {
        let tree = sub.tree();
        let mut mask = 0u64;
        // Best two candidates: (score, attr raw id) minimal wins; score is
        // "probability a random event survives this key", so lower is more
        // discriminating. Candidates on the *same attribute bit* are never
        // kept twice — the second slot must add information.
        let mut best: Option<(f64, u32, u8, EqKey)> = None;
        let mut second: Option<(f64, u32, u8, EqKey)> = None;
        // Best disjunctive group: fewest allowed constants wins.
        let mut best_group: Option<(usize, u32, u8, u64)> = None;
        let mut stack = std::mem::take(&mut self.stack);
        for_each_required_item(tree, &mut stack, |item| {
            let attr = item.attr();
            let bit = self.attr_bit[attr.index()];
            if bit == NO_BIT {
                return;
            }
            mask |= 1 << bit;
            let p = match item {
                RequiredItem::Leaf(p) => p,
                RequiredItem::AnyEq(_, children) => {
                    // Fold the allowed constants into a signature.
                    let mut sig = 0u64;
                    let mut allowed = 0usize;
                    for key in group_keys(tree, children) {
                        sig |= 1 << (self.intern(key) & 63);
                        allowed += 1;
                    }
                    let better = match &best_group {
                        Some((n, raw, _, _)) => (allowed, attr.raw()) < (*n, *raw),
                        None => true,
                    };
                    if better {
                        best_group = Some((allowed, attr.raw(), bit, sig));
                    }
                    return;
                }
            };
            if p.operator() != pubsub_core::Operator::Eq {
                return;
            }
            let Some(eq_key) = EqKey::from_value(p.constant()) else {
                return;
            };
            let score = hint
                .and_then(|h| h.score(attr))
                .unwrap_or_else(|| 1.0 / (index.equality_cardinality(attr) as f64 + 1.0));
            let cand = (score, attr.raw(), bit, eq_key);
            let beats = |held: &Option<(f64, u32, u8, EqKey)>| match held {
                Some((s, raw, _, _)) => (cand.0, cand.1) < (*s, *raw),
                None => true,
            };
            if beats(&best) {
                // Only demote the old best if it sits on a different bit;
                // two keys on one attribute are either redundant or (with
                // different constants) an unsatisfiable tree the counting
                // stage rejects anyway.
                if !matches!(&best, Some((_, _, b, _)) if *b == cand.2) {
                    second = best.take();
                }
                best = Some(cand);
            } else if !matches!(&best, Some((_, _, b, _)) if *b == cand.2) && beats(&second) {
                second = Some(cand);
            }
        });
        self.stack = stack;
        let mut filter = SlotFilter {
            required_mask: mask,
            ..SlotFilter::default()
        };
        if let Some((_, _, bit, eq_key)) = best {
            filter.disc_bit = bit;
            filter.disc_key = self.intern(eq_key);
        }
        if let Some((_, _, bit, eq_key)) = second {
            filter.disc2_bit = bit;
            filter.disc2_key = self.intern(eq_key);
        }
        if let Some((_, _, bit, sig)) = best_group {
            filter.sig_bit = bit;
            filter.sig = sig;
        }
        self.slot_filters[slot as usize] = filter;
        self.occupied += 1;
        if mask != 0 {
            self.constrained += 1;
        }
    }

    /// Fingerprints one event: fills `keys` (one interned key per presence
    /// bit, [`NO_KEY`] when absent or unknown) and returns the presence
    /// bitmask. `keys` is caller-owned scratch, grow-only.
    pub(crate) fn fingerprint<'a>(
        &self,
        pairs: impl Iterator<Item = (AttrId, &'a Value)>,
        keys: &mut Vec<u32>,
    ) -> u64 {
        keys.clear();
        keys.resize(self.bits as usize, NO_KEY);
        let mut mask = 0u64;
        for (attr, value) in pairs {
            let bit = self.attr_bit.get(attr.index()).copied().unwrap_or(NO_BIT);
            if bit == NO_BIT {
                continue;
            }
            mask |= 1 << bit;
            keys[bit as usize] = EqKey::from_value(value)
                .and_then(|k| self.constants.get(&k).copied())
                .unwrap_or(NO_KEY);
        }
        mask
    }

    /// Stage-0 kill test for one `(event, slot)` pair against a fingerprint
    /// produced by [`fingerprint`](Self::fingerprint). `true` means the slot
    /// provably cannot match the event.
    #[inline]
    pub(crate) fn kills(&self, slot: usize, mask: u64, keys: &[u32]) -> bool {
        let f = &self.slot_filters[slot];
        f.required_mask & !mask != 0
            || (f.disc_bit != NO_BIT && keys[f.disc_bit as usize] != f.disc_key)
            || (f.disc2_bit != NO_BIT && keys[f.disc2_bit as usize] != f.disc2_key)
            || (f.sig_bit != NO_BIT && {
                // An unregistered event value ([`NO_KEY`]) equals none of the
                // allowed constants; a registered one must have its bit set.
                let key = keys[f.sig_bit as usize];
                key == NO_KEY || f.sig & (1 << (key & 63)) == 0
            })
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
        }
    }

    /// Mutations absorbed since the last full rebuild.
    pub(crate) fn absorbed(&self) -> usize {
        self.absorbed
    }
}

/// A required clause surfaced by [`for_each_required_item`].
enum RequiredItem<'a> {
    /// A predicate leaf that must itself be true.
    Leaf(&'a Predicate),
    /// A required `Or` whose children are all equality predicates on one
    /// attribute: the attribute must be present and its value must equal one
    /// of the children's constants.
    AnyEq(AttrId, &'a [NodeId]),
}

impl RequiredItem<'_> {
    /// The attribute the clause needs the event to carry.
    fn attr(&self) -> AttrId {
        match self {
            RequiredItem::Leaf(p) => p.attr_id(),
            RequiredItem::AnyEq(attr, _) => *attr,
        }
    }
}

/// The internable constants of an equality group's children. A child whose
/// constant cannot be interned (NaN) can never be true, so it yields none.
fn group_keys<'a>(
    tree: &'a SubscriptionTree,
    children: &'a [NodeId],
) -> impl Iterator<Item = EqKey> + 'a {
    children
        .iter()
        .filter_map(move |&id| match tree.node(id)?.kind() {
            NodeKind::Predicate(p) => EqKey::from_value(p.constant()),
            _ => None,
        })
}

/// Walks the *required* clauses of a tree: root required, `And` propagates
/// to all children, a single-child `Or` to its only child, `Not` to none. A
/// required multi-child `Or` is surfaced as [`RequiredItem::AnyEq`] when all
/// its children are equalities on one attribute, and dropped otherwise. See
/// the [module docs](self) for why this under-approximation is sound.
fn for_each_required_item<'a>(
    tree: &'a SubscriptionTree,
    stack: &mut Vec<NodeId>,
    mut f: impl FnMut(RequiredItem<'a>),
) {
    stack.clear();
    stack.push(tree.root());
    while let Some(id) = stack.pop() {
        let node = tree.node(id).expect("tree nodes are internally consistent");
        match node.kind() {
            NodeKind::Predicate(p) => f(RequiredItem::Leaf(p)),
            NodeKind::And => stack.extend_from_slice(node.children()),
            NodeKind::Or => match node.children() {
                [only] => stack.push(*only),
                children => {
                    if let Some(attr) = single_attr_equality_group(tree, children) {
                        f(RequiredItem::AnyEq(attr, children));
                    }
                }
            },
            NodeKind::Not => {}
        }
    }
}

/// Returns the common attribute when every node in `children` is an equality
/// predicate on the same attribute, `None` otherwise.
fn single_attr_equality_group(tree: &SubscriptionTree, children: &[NodeId]) -> Option<AttrId> {
    let mut attr = None;
    for &id in children {
        let node = tree.node(id).expect("tree nodes are internally consistent");
        let NodeKind::Predicate(p) = node.kind() else {
            return None;
        };
        if p.operator() != pubsub_core::Operator::Eq {
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
    use pubsub_core::{Expr, SubscriberId, SubscriptionId};

    fn sub(id: u64, expr: &Expr) -> Subscription {
        Subscription::from_expr(
            SubscriptionId::from_raw(id),
            SubscriberId::from_raw(1),
            expr,
        )
    }

    fn rebuild(pf: &mut PreFilter, subs: &[Subscription], mode: PrefilterMode) {
        let index = AttributeIndex::new();
        pf.rebuild(
            subs.len(),
            subs.iter().enumerate().map(|(i, s)| (i as u32, s)),
            &index,
            None,
            mode,
        );
    }

    fn fingerprint_event(pf: &PreFilter, ev: &pubsub_core::EventMessage) -> (u64, Vec<u32>) {
        let mut keys = Vec::new();
        let mask = pf.fingerprint(ev.iter_resolved(), &mut keys);
        (mask, keys)
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
            RequiredItem::Leaf(p) => {
                attrs.push(pubsub_core::attr::name(p.attr_id()).to_string());
            }
            RequiredItem::AnyEq(attr, children) => {
                attrs.push(format!(
                    "any({}, {})",
                    pubsub_core::attr::name(attr),
                    children.len()
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

        let matching = pubsub_core::EventMessage::builder()
            .attr("pf_title", "moby dick")
            .attr("pf_price", 5i64)
            .build();
        let (mask, keys) = fingerprint_event(&pf, &matching);
        assert!(!pf.kills(0, mask, &keys));

        // Wrong title: the discrimination key mismatches.
        let wrong_key = pubsub_core::EventMessage::builder()
            .attr("pf_title", "ulysses")
            .attr("pf_price", 5i64)
            .build();
        let (mask, keys) = fingerprint_event(&pf, &wrong_key);
        assert!(pf.kills(0, mask, &keys));

        // Missing price: the presence mask mismatches even though the price
        // bound itself is not an equality.
        let missing_attr = pubsub_core::EventMessage::builder()
            .attr("pf_title", "moby dick")
            .build();
        let (mask, keys) = fingerprint_event(&pf, &missing_attr);
        assert!(pf.kills(0, mask, &keys));

        // A killed event may still carry *more* attributes than required.
        let extra = pubsub_core::EventMessage::builder()
            .attr("pf_title", "moby dick")
            .attr("pf_price", 500i64)
            .attr("pf_other", true)
            .build();
        let (mask, keys) = fingerprint_event(&pf, &extra);
        assert!(!pf.kills(0, mask, &keys));
    }

    #[test]
    fn second_discrimination_key_kills_hot_key_survivors() {
        // Two subscriptions agree on the hot primary key (title) but differ
        // on a secondary equality; the second key must separate them.
        let subs = vec![
            sub(
                1,
                &Expr::and(vec![
                    Expr::eq("pf2_title", "moby dick"),
                    Expr::eq("pf2_cond", "new"),
                    Expr::le("pf2_price", 10i64),
                ]),
            ),
            sub(
                2,
                &Expr::and(vec![
                    Expr::eq("pf2_title", "moby dick"),
                    Expr::eq("pf2_cond", "worn"),
                    Expr::le("pf2_price", 10i64),
                ]),
            ),
        ];
        let mut pf = PreFilter::new();
        rebuild(&mut pf, &subs, PrefilterMode::On);
        let ev = pubsub_core::EventMessage::builder()
            .attr("pf2_title", "moby dick")
            .attr("pf2_cond", "new")
            .attr("pf2_price", 5i64)
            .build();
        let (mask, keys) = fingerprint_event(&pf, &ev);
        assert!(!pf.kills(0, mask, &keys));
        assert!(pf.kills(1, mask, &keys), "condition disagrees on sub 2");

        // A single required equality must leave the second slot inert.
        let one = vec![sub(3, &Expr::eq("pf2_title", "moby dick"))];
        rebuild(&mut pf, &one, PrefilterMode::On);
        let ev = pubsub_core::EventMessage::builder()
            .attr("pf2_title", "moby dick")
            .build();
        let (mask, keys) = fingerprint_event(&pf, &ev);
        assert!(!pf.kills(0, mask, &keys));
    }

    #[test]
    fn disjunctive_signature_kills_values_outside_the_allowed_set() {
        // `category ∈ {books, cds}` as a required Or: an event in a third
        // category (or missing the attribute) provably cannot match, even
        // though no single equality is required.
        let subs = vec![sub(
            1,
            &Expr::and(vec![
                Expr::or(vec![
                    Expr::eq("pf3_cat", "books"),
                    Expr::eq("pf3_cat", "cds"),
                ]),
                Expr::le("pf3_price", 10i64),
            ]),
        )];
        let mut pf = PreFilter::new();
        rebuild(&mut pf, &subs, PrefilterMode::On);
        assert_eq!(pf.tracked_attributes(), 2, "the Or attribute earns a bit");

        let allowed = pubsub_core::EventMessage::builder()
            .attr("pf3_cat", "cds")
            .attr("pf3_price", 5i64)
            .build();
        let (mask, keys) = fingerprint_event(&pf, &allowed);
        assert!(!pf.kills(0, mask, &keys));

        let outside = pubsub_core::EventMessage::builder()
            .attr("pf3_cat", "stamps")
            .attr("pf3_price", 5i64)
            .build();
        let (mask, keys) = fingerprint_event(&pf, &outside);
        assert!(pf.kills(0, mask, &keys), "category outside the allowed set");

        let absent = pubsub_core::EventMessage::builder()
            .attr("pf3_price", 5i64)
            .build();
        let (mask, keys) = fingerprint_event(&pf, &absent);
        assert!(pf.kills(0, mask, &keys), "the Or attribute is required");

        // Mixed-attribute and mixed-operator Ors must NOT compile a
        // signature (they are satisfiable without the attribute).
        let mixed = vec![sub(
            2,
            &Expr::and(vec![
                Expr::or(vec![
                    Expr::eq("pf3_cat", "books"),
                    Expr::le("pf3_price", 1i64),
                ]),
                Expr::ge("pf3_price", 0i64),
            ]),
        )];
        rebuild(&mut pf, &mixed, PrefilterMode::On);
        let no_cat = pubsub_core::EventMessage::builder()
            .attr("pf3_price", 0i64)
            .build();
        let (mask, keys) = fingerprint_event(&pf, &no_cat);
        assert!(!pf.kills(0, mask, &keys), "mixed Or is not a group");
    }

    #[test]
    fn equality_keys_use_engine_equality_semantics() {
        // `= 3` (int) and an event carrying `3.0` (float) must agree, like
        // the engine's equality buckets do.
        let subs = vec![sub(1, &Expr::eq("pf_num", 3i64))];
        let mut pf = PreFilter::new();
        rebuild(&mut pf, &subs, PrefilterMode::On);
        let ev = pubsub_core::EventMessage::builder()
            .attr("pf_num", 3.0f64)
            .build();
        let (mask, keys) = fingerprint_event(&pf, &ev);
        assert!(!pf.kills(0, mask, &keys));
        let ev = pubsub_core::EventMessage::builder()
            .attr("pf_num", f64::NAN)
            .build();
        let (mask, keys) = fingerprint_event(&pf, &ev);
        assert!(pf.kills(0, mask, &keys), "NaN can never fulfil an equality");
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
        let ev = pubsub_core::EventMessage::builder()
            .attr("pf_cap_0", 1i64)
            .build();
        let (mask, keys) = fingerprint_event(&pf, &ev);
        assert!(!pf.kills(0, mask, &keys));
        assert!(pf.kills(1, mask, &keys), "pf_cap_1 is required but absent");
    }
}
