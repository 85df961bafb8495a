//! Stage 0 of the staged matching pipeline, and the walk over a tree's
//! required clauses that it shares with the choice of access clauses.
//!
//! The counting engine indexes a subscription that has a required equality
//! under that one *access clause* (see [`CountingEngine`](crate::CountingEngine)),
//! so stage 1 emits it only for events that fulfil the clause. Stage 0 is
//! told the clause's nodes, and leaves them out of its tests.
//!
//! Each subscription is compiled once, when it arrives, to one *residual*:
//!
//! * **Attribute presence.** Every *required* predicate leaf of a
//!   subscription (a leaf that must be true for the whole tree to be true)
//!   names an attribute the event must carry: a predicate on an absent
//!   attribute evaluates to `false` for every operator. The required
//!   attributes of up to 64 tracked attributes are folded into one `u64`
//!   bitmask per subscription, and an event is fingerprinted once into the
//!   same bit space — the presence test is `required & !present != 0`.
//! * **Leaf tests.** Every required leaf off the access clause, on a tracked
//!   attribute, that compiles *exactly* — up to `MAX_TESTS` of them — as an
//!   interval the event's fingerprint must fall in:
//!   - an `=` with an equality-bucket key, as its constant's interned id.
//!     The event's value at the attribute is interned through the same
//!     table while fingerprinting (`EqKey` semantics: `Int` widens to
//!     `Float`, `-0.0` folds into `0.0`, as in the index buckets), so the
//!     ids agree exactly when the engine's equality holds;
//!   - a `<`, `≤`, `>` or `≥` whose threshold compares through `f64` exactly
//!     as [`Operator::evaluate`] does (a float, or an int strictly inside
//!     ±2^53), as the positions, in the order of `f64`, of the values that
//!     fulfil it. The position of the event's numeric value is fingerprinted
//!     beside its id.
//!
//!   A value that is absent, `NaN` or of another type fingerprints as an
//!   entry above every interval, exactly as `partial_cmp_value` returning
//!   `None` fails every comparison. An int constant beyond ±2^53 rounds in
//!   `f64`, so it never compiles. Every test of a slot runs at once, without
//!   a branch.
//!
//! A candidate that fails any of its tests provably cannot match and is
//! killed. A slot is **exact** when it is gated and its tree is its access
//! clause alone, or an `And` of the clause and compiled leaves: a stage-1
//! emission proves the clause, so surviving the tests *is* the match, and
//! the engine emits it without a tree walk. Every other shape — a `≠`, a
//! pattern operator, a `Not`, a nested `Or` or `And`, a leaf on an untracked
//! attribute, more leaves than `MAX_TESTS`, an ungated tree — keeps its
//! stage-2 walk.
//!
//! *Required* leaves are found by a conservative tree walk: the root is
//! required; every child of a required `And` is required; a required `Or`
//! of equalities on one attribute is one required clause; nothing under a
//! `Not` (or any other `Or`) is claimed. This under-approximates — it never
//! marks a leaf required unless its falsehood forces the tree false — which
//! is what makes both the gating and the kill sound for *any* Boolean
//! structure.
//!
//! A subscription is compiled when it arrives and releases what it took when
//! it leaves (see [`PreFilter`]); the whole population is recompiled only
//! when an attribute with required clauses went without a presence bit.
//!
//! A test kills only what cannot match and decides only what must, so match
//! output is byte-identical with the pre-filter on or off.

use crate::config::PrefilterMode;
use crate::index::{equality_key, exact_threshold, EqKey};
use pubsub_core::{
    AttrId, NodeId, NodeKind, Operator, Predicate, Subscription, SubscriptionTree, Value,
};
use std::collections::HashMap;
use std::ops::Range;

/// Sentinel bit for attributes outside the tracked set.
const NO_BIT: u8 = u8::MAX;
/// Width of the presence bitmask: at most this many attributes are tracked.
const MAX_TRACKED: usize = 64;
/// Leaf tests compiled per subscription. Three cover every residual of the
/// paper's §4 classes beside their access clause: a title watcher's price
/// bound, condition and buy-now flag, and a category browser's price,
/// rating and shipping bounds.
const MAX_TESTS: usize = 3;
/// The fingerprint entry an unused test reads: always `0`, which passes
/// the test's `[0, 0]`. Presence bit `b` fingerprints into entries `2b + 1`
/// (the interned id of the event's value) and `2b + 2` (the position of its
/// numeric value, see [`position`]).
const UNUSED: u8 = 0;
/// The fingerprint entry of a value with no interned id, or no number
/// (absent, `NaN` or another type): above every id and position, so no
/// test passes it.
const ABSENT: u64 = u64::MAX;

/// Per-subscription compiled stage-0 residual. A test passes when the
/// fingerprint entry it reads lies in `[lo, lo + span]`: an `=` reads an
/// interned id, and its interval is its constant's id; an ordering reads a
/// numeric value's position, and its interval is the positions of the
/// values that fulfil it.
#[derive(Debug, Clone, Copy)]
struct SlotFilter {
    /// Bits of tracked attributes this subscription requires present.
    required_mask: u64,
    /// Per test, the fingerprint entry it reads ([`UNUSED`] for none).
    reads: [u8; MAX_TESTS],
    /// Whether passing the tests is the match (see the module docs).
    exact: bool,
    /// Per test, the lowest entry that passes.
    lo: [u64; MAX_TESTS],
    /// Per test, how far above `lo` entries still pass.
    span: [u64; MAX_TESTS],
}

impl Default for SlotFilter {
    fn default() -> Self {
        // The default filter kills nothing and decides nothing.
        Self {
            required_mask: 0,
            reads: [UNUSED; MAX_TESTS],
            exact: false,
            lo: [0; MAX_TESTS],
            span: [0; MAX_TESTS],
        }
    }
}

impl SlotFilter {
    /// The tests in use, as `(fingerprint entry, lo, span)`.
    fn tests(&self) -> impl Iterator<Item = (u8, u64, u64)> + '_ {
        (0..MAX_TESTS)
            .filter(|&i| self.reads[i] != UNUSED)
            .map(|i| (self.reads[i], self.lo[i], self.span[i]))
    }
}

/// Stage 0's decision on one `(event, slot)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// The slot provably cannot match the event.
    Killed,
    /// The slot matches the event: its residual is exact and holds.
    Matched,
    /// Stage 2 decides.
    Candidate,
}

/// One interned equality constant.
#[derive(Debug)]
struct InternedConstant {
    /// The constant; `None` while the id sits in the free list.
    key: Option<EqKey>,
    /// Compiled tests comparing against the id.
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
/// presence bit) runs for a configuration change, for a population loaded
/// before the first match, and once the mutations absorbed since the last
/// one reach the population while some attribute with required clauses
/// holds no bit — amortised O(1) per mutation, and what keeps the tracked
/// attributes honest. While every such attribute holds a bit, a re-rank
/// would track the same set, so none runs. Queried once per slot's first
/// emission of an event on the hot path. See the `prefilter` module docs for
/// the semantics.
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
    /// Interning table over the equality constants of all compiled tests.
    /// Event values are looked up through the same table, so key equality
    /// is exactly engine equality ([`EqKey`] semantics, including the
    /// `Int -> Float` widening).
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
    /// Mutations absorbed since the last rebuild or re-rank check.
    absorbed: usize,
    /// Reusable traversal stack.
    stack: Vec<NodeId>,
    /// Full rebuilds run so far.
    #[cfg(test)]
    rebuilds: usize,
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

    /// Whether the compiled state reflects the engine's population; when
    /// `false` the engine runs [`rebuild`](Self::rebuild) before matching.
    pub(crate) fn is_built(&self) -> bool {
        self.built
    }

    /// Forces a full rebuild before the next match (configuration changed).
    pub(crate) fn invalidate(&mut self) {
        self.built = false;
    }

    /// Recompiles everything from the current subscription set.
    ///
    /// `subs` yields every occupied `(slot, subscription, access clause
    /// nodes)`; `slot_count` is the slab length (filters of free slots stay
    /// at the never-kill default). The iterator is walked twice — once to
    /// rank attributes for the 64 tracked bits, once to compile each
    /// subscription — hence `Clone`.
    pub(crate) fn rebuild<'a>(
        &mut self,
        slot_count: usize,
        subs: impl Iterator<Item = (u32, &'a Subscription, Option<&'a Range<u32>>)> + Clone,
        mode: PrefilterMode,
    ) {
        #[cfg(test)]
        {
            self.rebuilds += 1;
        }
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
            self.compile(slot, sub, access);
        }
        self.update_enabled();
    }

    /// Compiles one subscription that entered slot `slot`, indexed under the
    /// access clause spanning `access` (if gated). An attribute nobody
    /// required so far takes a presence bit if one is left; an attribute
    /// that has requirers but no bit stays untracked until the next rebuild,
    /// which keeps every compiled mask valid.
    pub(crate) fn insert(&mut self, slot: u32, sub: &Subscription, access: Option<&Range<u32>>) {
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
        self.compile(slot, sub, access);
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
        for (read, id, _) in filter.tests() {
            if read % 2 == 1 {
                self.release_constant(id as u32);
            }
        }
        self.occupied -= 1;
        if filter.required_mask != 0 {
            self.constrained -= 1;
        }
        self.absorb_mutation();
    }

    /// Counts one incrementally applied mutation. Once as many were absorbed
    /// as there are subscriptions, the next match re-ranks from scratch if
    /// an attribute with required clauses went without a presence bit;
    /// otherwise the count starts over.
    fn absorb_mutation(&mut self) {
        self.absorbed += 1;
        if self.absorbed >= self.occupied {
            let all_tracked = (self.attr_refs.iter().zip(&self.attr_bit))
                .all(|(&refs, &bit)| refs == 0 || bit != NO_BIT);
            if all_tracked {
                self.absorbed = 0;
            } else {
                self.built = false;
            }
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

    /// Compiles one subscription's residual against the current presence
    /// bits: its presence mask, the first [`MAX_TESTS`] exactly compiling
    /// required leaves off the access clause spanning `access`, in walk
    /// order, and whether those tests are the whole tree.
    fn compile(&mut self, slot: u32, sub: &Subscription, access: Option<&Range<u32>>) {
        let tree = sub.tree();
        let mut filter = SlotFilter::default();
        let mut tests = 0;
        // Nodes of the access clause's subtree, once the walk met it.
        let mut clause_nodes = 0;
        // Whether every required clause but the access clause became a test.
        let mut all_compiled = true;
        let mut stack = std::mem::take(&mut self.stack);
        for_each_required_item(tree, &mut stack, |item| {
            let bit = self.attr_bit[item.attr().index()];
            if bit != NO_BIT {
                filter.required_mask |= 1 << bit;
            }
            if let Some(nodes) = access.and_then(|a| clause_span(item, a)) {
                clause_nodes = nodes;
                return;
            }
            let test = match item {
                RequiredItem::Leaf(_, p) if bit != NO_BIT && tests < MAX_TESTS => {
                    self.compile_leaf(p)
                }
                _ => None,
            };
            let Some((numeric, lo, span)) = test else {
                all_compiled = false;
                return;
            };
            filter.reads[tests] = 2 * bit + 1 + u8::from(numeric);
            (filter.lo[tests], filter.span[tests]) = (lo, span);
            tests += 1;
        });
        self.stack = stack;
        // The tree is the clause, or an `And` of the clause and the tested
        // leaves, exactly when no other node is left over.
        let root_and = matches!(
            tree.node(tree.root()).map(|n| n.kind()),
            Some(NodeKind::And)
        );
        filter.exact = all_compiled
            && clause_nodes > 0
            && tree.node_count() == usize::from(root_and) + clause_nodes + tests;
        self.slot_filters[slot as usize] = filter;
        self.occupied += 1;
        if filter.required_mask != 0 {
            self.constrained += 1;
        }
    }

    /// The test of a leaf that compiles exactly (see the module docs), as
    /// `(whether it reads the numeric value, lo, span)`: an `=` interns its
    /// constant, taking a reference on it.
    fn compile_leaf(&mut self, p: &Predicate) -> Option<(bool, u64, u64)> {
        let Some(t) = exact_threshold(p) else {
            let id = self.intern(equality_key(p)?);
            return Some((false, u64::from(id), 0));
        };
        let (t, min, max) = (
            position(t),
            position(f64::NEG_INFINITY),
            position(f64::INFINITY),
        );
        let (lo, hi) = match p.operator() {
            Operator::Lt => (min, t - 1),
            Operator::Le => (min, t),
            Operator::Gt => (t + 1, max),
            _ => (t, max),
        };
        // `< -∞` and `> ∞` hold for no value: `[0, 0]` lies below every
        // position.
        let (lo, span) = hi.checked_sub(lo).map_or((0, 0), |span| (lo, span));
        Some((true, lo, span))
    }

    /// Fingerprints one event: fills `fp` (per presence bit, the interned
    /// id of the event's value and the position of its numeric value, each
    /// [`ABSENT`] when there is none; see [`UNUSED`]) and returns the
    /// presence bitmask. `fp` is caller-owned scratch, grow-only.
    pub(crate) fn fingerprint<'a>(
        &self,
        pairs: impl Iterator<Item = (AttrId, &'a Value)>,
        fp: &mut Vec<u64>,
    ) -> u64 {
        fp.clear();
        fp.resize(1 + 2 * self.bits as usize, ABSENT);
        fp[UNUSED as usize] = 0;
        let mut mask = 0u64;
        for (attr, value) in pairs {
            let bit = self.attr_bit.get(attr.index()).copied().unwrap_or(NO_BIT);
            if bit == NO_BIT {
                continue;
            }
            mask |= 1 << bit;
            let id = EqKey::from_value(value).and_then(|k| self.constants.get(&k).copied());
            let at = 2 * bit as usize + 1;
            fp[at] = id.map_or(ABSENT, u64::from);
            let number = value.as_f64().filter(|v| !v.is_nan());
            fp[at + 1] = number.map_or(ABSENT, position);
        }
        mask
    }

    /// Stage-0 verdict for one `(event, slot)` pair against a fingerprint
    /// produced by [`fingerprint`](Self::fingerprint): every test of the
    /// slot's residual runs, unused ones included, without a branch.
    #[inline]
    pub(crate) fn verdict(&self, slot: usize, mask: u64, fp: &[u64]) -> Verdict {
        let f = &self.slot_filters[slot];
        // How far each entry lies above its interval, or-ed with the
        // missing required attributes: zero when every test passes.
        let mut above = f.required_mask & !mask;
        for i in 0..MAX_TESTS {
            above |= (fp[f.reads[i] as usize].wrapping_sub(f.lo[i])).saturating_sub(f.span[i]);
        }
        match (above == 0, f.exact) {
            (false, _) => Verdict::Killed,
            (true, true) => Verdict::Matched,
            (true, false) => Verdict::Candidate,
        }
    }
}

/// The position of a number that is not `NaN` in the order of `f64`: two
/// positions compare as their numbers do, `-0.0` and `0.0` alike, and
/// every position lies strictly between `0` and [`ABSENT`].
fn position(value: f64) -> u64 {
    let bits = (value + 0.0).to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// The number of nodes `item` spans when it is the access clause whose
/// leaves span `access` — `1` for the leaf, the group's node and children
/// for an equality group — or `None` for any other clause. The walk never
/// surfaces a group's children as leaves, so a leaf inside the range is the
/// clause itself.
fn clause_span(item: RequiredItem<'_>, access: &Range<u32>) -> Option<usize> {
    match item {
        RequiredItem::Leaf(node, _) => access.contains(&node.0).then_some(1),
        RequiredItem::AnyEq(_, or) => (access.start == or.0 + 1).then(|| access.len() + 1),
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
    /// Every slot with a test or an exact flag.
    pub(crate) residuals: Vec<Residual>,
}

/// `(slot, exact, tests)`; a test is `(attribute, what it passes)`.
#[cfg(test)]
pub(crate) type Residual = (u32, bool, Vec<(u32, Passes)>);

/// What a compiled test passes, resolved from the arrival-dependent ids and
/// bits.
#[cfg(test)]
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Passes {
    /// The interned constant of an `=`.
    Key(EqKey),
    /// The interval of an ordering, as `(lo, span)`.
    Range(u64, u64),
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
        let test = |(read, lo, span): (u8, u64, u64)| {
            let attr = self.attr_bit.iter().position(|&b| b == (read - 1) / 2);
            let attr = attr.expect("a test reads a tracked attribute") as u32;
            let passes = if read % 2 == 1 {
                let key = self.constant_slab[lo as usize].key.clone();
                Passes::Key(key.expect("a test holds its constant"))
            } else {
                Passes::Range(lo, span)
            };
            (attr, passes)
        };
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
            residuals: (0u32..)
                .zip(&self.slot_filters)
                .filter(|(_, f)| f.tests().next().is_some() || f.exact)
                .map(|(slot, f)| (slot, f.exact, f.tests().map(test).collect()))
                .collect(),
        }
    }

    /// Full rebuilds run so far.
    pub(crate) fn rebuilds(&self) -> usize {
        self.rebuilds
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

    /// The node range of the first `=` leaf on `attr` in `s`: the access
    /// clause a gated subscription with a leaf clause is indexed under.
    fn leaf_clause(s: &Subscription, attr: AttrId) -> Range<u32> {
        let (node, _) = s
            .tree()
            .predicates()
            .find(|(_, p)| p.attr_id() == attr && p.operator() == Operator::Eq)
            .expect("the clause leaf exists");
        node.0..node.0 + 1
    }

    /// Rebuilds over `subs`, each gated on the given access clause nodes.
    fn rebuild_gated(
        pf: &mut PreFilter,
        subs: &[(Subscription, Option<Range<u32>>)],
        mode: PrefilterMode,
    ) {
        pf.rebuild(
            subs.len(),
            subs.iter()
                .enumerate()
                .map(|(i, (s, a))| (i as u32, s, a.as_ref())),
            mode,
        );
    }

    /// Rebuilds over ungated `subs`.
    fn rebuild(pf: &mut PreFilter, subs: &[Subscription], mode: PrefilterMode) {
        let subs: Vec<_> = subs.iter().map(|s| (s.clone(), None)).collect();
        rebuild_gated(pf, &subs, mode);
    }

    fn fingerprint_event(pf: &PreFilter, ev: &EventMessage) -> (u64, Vec<u64>) {
        let mut fp = Vec::new();
        let mask = pf.fingerprint(ev.iter_resolved(), &mut fp);
        (mask, fp)
    }

    fn kills(pf: &PreFilter, slot: usize, mask: u64, fp: &[u64]) -> bool {
        pf.verdict(slot, mask, fp) == Verdict::Killed
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
        assert!(!kills(&pf, 0, mask, &fp));

        // Wrong title: the discrimination key mismatches.
        let wrong_key = EventMessage::builder()
            .attr("pf_title", "ulysses")
            .attr("pf_price", 5i64)
            .build();
        let (mask, fp) = fingerprint_event(&pf, &wrong_key);
        assert!(kills(&pf, 0, mask, &fp));

        // Missing price: the presence mask mismatches even though the price
        // bound itself is not an equality.
        let missing_attr = EventMessage::builder()
            .attr("pf_title", "moby dick")
            .build();
        let (mask, fp) = fingerprint_event(&pf, &missing_attr);
        assert!(kills(&pf, 0, mask, &fp));

        // A surviving event may still carry *more* attributes than required.
        let extra = EventMessage::builder()
            .attr("pf_title", "moby dick")
            .attr("pf_price", 10i64)
            .attr("pf_other", true)
            .build();
        let (mask, fp) = fingerprint_event(&pf, &extra);
        assert!(!kills(&pf, 0, mask, &fp));
    }

    #[test]
    fn second_discrimination_key_kills_hot_key_survivors() {
        // Two subscriptions gated on the hot title disagree on a secondary
        // equality; its test (an equality off the access clause) must
        // separate them. Both trees are the clause plus compiled leaves, so
        // the survivor is decided by stage 0.
        let title = attr("pf2_title");
        let gated = |s: Subscription| {
            let clause = leaf_clause(&s, title);
            (s, Some(clause))
        };
        let watcher = |id, cond: &str| {
            gated(sub(
                id,
                &Expr::and(vec![
                    Expr::eq("pf2_title", "moby dick"),
                    Expr::eq("pf2_cond", cond),
                    Expr::le("pf2_price", 10i64),
                ]),
            ))
        };
        let subs = vec![watcher(1, "new"), watcher(2, "worn")];
        let mut pf = PreFilter::new();
        rebuild_gated(&mut pf, &subs, PrefilterMode::On);
        let ev = EventMessage::builder()
            .attr("pf2_title", "moby dick")
            .attr("pf2_cond", "new")
            .attr("pf2_price", 5i64)
            .build();
        let (mask, fp) = fingerprint_event(&pf, &ev);
        assert_eq!(pf.verdict(0, mask, &fp), Verdict::Matched);
        assert!(kills(&pf, 1, mask, &fp), "condition disagrees on sub 2");
        // Only the secondary constants were interned: the access clause is
        // stage 1's business.
        assert_eq!(pf.snapshot().constants, 2);
        // A value no test names has no id, which fails them.
        let fair = EventMessage::builder()
            .attr("pf2_title", "moby dick")
            .attr("pf2_cond", "fair")
            .attr("pf2_price", 5i64)
            .build();
        let (mask, fp) = fingerprint_event(&pf, &fair);
        assert!(kills(&pf, 0, mask, &fp) && kills(&pf, 1, mask, &fp));

        // A gated subscription that is its clause alone has no test: every
        // emission is a match.
        let one = vec![gated(sub(3, &Expr::eq("pf2_title", "moby dick")))];
        rebuild_gated(&mut pf, &one, PrefilterMode::On);
        let ev = EventMessage::builder()
            .attr("pf2_title", "moby dick")
            .build();
        let (mask, fp) = fingerprint_event(&pf, &ev);
        assert_eq!(pf.verdict(0, mask, &fp), Verdict::Matched);
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
        let residuals = pf.snapshot().residuals;
        let slots: Vec<u32> = residuals.iter().map(|&(slot, _, _)| slot).collect();
        assert_eq!(slots, [0, 1]);
        let kills = |value: Value| {
            let ev = EventMessage::builder().attr("pf5_x", value.clone()).build();
            let (mask, fp) = fingerprint_event(&pf, &ev);
            let verdicts: Vec<bool> = (0..subs.len()).map(|s| kills(&pf, s, mask, &fp)).collect();
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
    fn exact_only_for_the_clause_and_compiled_leaves() {
        let title = attr("pf6_title");
        let cat = attr("pf6_cat");
        let t = || Expr::eq("pf6_title", "t");
        let group = || Expr::or(vec![Expr::eq("pf6_cat", "a"), Expr::eq("pf6_cat", "b")]);
        let le = |name: &str, v: i64| Expr::le(name, v);
        let big = (1i64 << 53) + 1;
        // (shape, exact)
        let shapes = [
            (t(), true),
            (Expr::and(vec![t(), le("pf6_price", 10)]), true),
            (
                Expr::and(vec![
                    t(),
                    Expr::eq("pf6_cond", "new"),
                    Expr::eq("pf6_buy", true),
                    Expr::ge("pf6_price", 2.5f64),
                ]),
                true,
            ),
            (group(), true),
            (
                Expr::and(vec![
                    group(),
                    le("pf6_price", 10),
                    Expr::ge("pf6_rating", 3.5f64),
                    le("pf6_ship", 4),
                ]),
                true,
            ),
            // One leaf over the cap.
            (
                Expr::and(vec![
                    t(),
                    le("pf6_price", 10),
                    Expr::eq("pf6_cond", "new"),
                    Expr::eq("pf6_buy", true),
                    Expr::ge("pf6_rating", 3i64),
                ]),
                false,
            ),
            (
                Expr::and(vec![t(), Expr::not(Expr::eq("pf6_cond", "worn"))]),
                false,
            ),
            (Expr::and(vec![t(), Expr::ne("pf6_cond", "worn")]), false),
            (Expr::and(vec![t(), Expr::prefix("pf6_name", "ab")]), false),
            (
                Expr::and(vec![
                    t(),
                    Expr::or(vec![le("pf6_price", 1), le("pf6_bids", 2)]),
                ]),
                false,
            ),
            (
                Expr::and(vec![
                    t(),
                    Expr::and(vec![le("pf6_price", 1), le("pf6_bids", 2)]),
                ]),
                false,
            ),
            (Expr::and(vec![t(), group()]), false),
            (Expr::and(vec![t(), Expr::eq("pf6_x", big)]), false),
            (Expr::and(vec![t(), Expr::lt("pf6_x", f64::NAN)]), false),
        ];
        let gated: Vec<(Subscription, Option<Range<u32>>)> = (0u64..)
            .zip(&shapes)
            .map(|(id, (expr, _))| {
                let s = sub(id, expr);
                let tree = s.tree();
                let clause = match tree.predicates().any(|(_, p)| p.attr_id() == title) {
                    true => leaf_clause(&s, title),
                    false => {
                        let or = tree.node_ids().find(|&n| {
                            matches!(tree.node(n).map(|n| n.kind()), Some(NodeKind::Or))
                        });
                        let group = tree.subtree_range(or.expect("a group"));
                        assert!(tree.predicates().any(|(_, p)| p.attr_id() == cat));
                        group.start as u32 + 1..group.end as u32
                    }
                };
                (s, Some(clause))
            })
            .collect();
        let mut pf = PreFilter::new();
        rebuild_gated(&mut pf, &gated, PrefilterMode::On);
        let exact: Vec<u32> = (pf.snapshot().residuals.iter())
            .filter(|&&(_, exact, _)| exact)
            .map(|&(slot, _, _)| slot)
            .collect();
        let want: Vec<u32> = (0u32..)
            .zip(&shapes)
            .filter(|(_, (_, exact))| *exact)
            .map(|(slot, _)| slot)
            .collect();
        assert_eq!(exact, want);
        // Ungated, the same conjunction is not exact: its emission proves
        // nothing.
        let ungated = [sub(99, &Expr::and(vec![t(), le("pf6_price", 10)]))];
        rebuild(&mut pf, &ungated, PrefilterMode::On);
        assert_eq!(pf.snapshot().residuals.len(), 1);
        assert!(!pf.snapshot().residuals[0].1);
    }

    #[test]
    fn compiled_tests_equal_the_engine_comparison() {
        // Every `=` and ordering over thresholds at the edges of `f64` — the
        // zeros, the smallest subnormal, `MAX`, the infinities, ints around
        // ±2^53 — against values of every type: a compiled test holds
        // exactly when `Operator::evaluate` does; an uncompiled one (a `NaN`
        // or beyond-±2^53 constant) kills nothing.
        let big = 1i64 << 53;
        let tiny = f64::from_bits(1);
        let floats = [
            f64::NEG_INFINITY,
            -f64::MAX,
            -1.5,
            -tiny,
            -0.0,
            0.0,
            tiny,
            1.0,
            2.5,
        ];
        let floats = floats
            .into_iter()
            .chain([f64::MAX, f64::INFINITY, f64::NAN]);
        let ints = [-big - 1, -big, -1, 0, 1, 3, big - 1, big, big + 1];
        let numbers: Vec<Value> = (floats.map(Value::Float))
            .chain(ints.into_iter().map(Value::Int))
            .collect();
        let mut values = numbers.clone();
        values.extend([Value::from("1"), Value::Bool(true)]);
        let ops = [
            Operator::Eq,
            Operator::Lt,
            Operator::Le,
            Operator::Gt,
            Operator::Ge,
        ];
        let subs: Vec<Subscription> = (0u64..)
            .zip(
                ops.iter()
                    .flat_map(|&op| numbers.iter().map(move |n| (op, n))),
            )
            .map(|(id, (op, n))| sub(id, &Expr::pred(Predicate::new("pf7_x", op, n.clone()))))
            .collect();
        let mut pf = PreFilter::new();
        rebuild(&mut pf, &subs, PrefilterMode::On);
        for value in &values {
            let ev = EventMessage::builder().attr("pf7_x", value.clone()).build();
            let (mask, fp) = fingerprint_event(&pf, &ev);
            for (slot, s) in subs.iter().enumerate() {
                let (_, p) = s.tree().predicates().next().expect("one leaf");
                let compiled = exact_threshold(p).is_some() || equality_key(p).is_some();
                let killed = kills(&pf, slot, mask, &fp);
                assert_eq!(killed, compiled && !s.matches(&ev), "{p:?} on {value:?}");
            }
        }
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
        assert!(!kills(&pf, 0, mask, &fp));
        let ev = EventMessage::builder().attr("pf_num", f64::NAN).build();
        let (mask, fp) = fingerprint_event(&pf, &ev);
        assert!(kills(&pf, 0, mask, &fp), "NaN can never fulfil an equality");
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
        assert!(!kills(&pf, 0, mask, &fp));
        assert!(kills(&pf, 1, mask, &fp), "pf_cap_1 is required but absent");
    }
}
