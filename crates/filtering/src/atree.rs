//! The A-Tree engine: shared-subexpression DAG matching.
//!
//! The counting matcher shares work at the *predicate* level — two
//! subscriptions with the same leaf share one index entry, but each still
//! evaluates its own tree. Ad-exchange-scale workloads (100k–1M Boolean
//! targeting expressions) are heavily redundant *above* the leaves: whole
//! conjunctions and disjunctions recur across subscriptions. The A-Tree
//! (Mohapatra & Suresh's structure for boolean-expression matching at
//! millions of expressions) shares those subexpressions instead.
//!
//! [`ATreeEngine`] stores every registered tree in one slab-backed DAG:
//!
//! * **Hash-consing.** Each subtree is keyed by its structural
//!   [`expr_fingerprint`](pubsub_core::analysis::expr_fingerprint) (computed
//!   bottom-up via the public combiners, verified structurally on bucket
//!   collision). Identical subtrees across subscriptions — and the analyzer
//!   already normalizes inserted trees into a flattened, deduped,
//!   commutative-stable form, maximizing hits — become **one node** carrying
//!   an id-sorted list of `(subscription, subscriber)` pairs, so a match is
//!   delivered straight from the node that decided it.
//! * **Hot facts beside the slab, edge lists in arenas.** A node's children
//!   never change after it is created, so its operator, arity, level,
//!   default value (its value under "no predicate fulfilled") and `base` —
//!   how many of its child edges are default-true, duplicates counted — are
//!   fixed then. They live in one array parallel to the slab, with the
//!   node's reference count and whether it has subscribers. Its children,
//!   parent edges and subscribers live in three engine-owned arenas, each
//!   holding every node's list back to back in one vector, addressed by a
//!   span per slab slot. Matching reads that array, the spans and the
//!   arenas, never the slab, which keeps only the predicate and the
//!   fingerprint. A list that outgrows its span moves to the end of its
//!   arena at double capacity; a freed node's span becomes garbage, and once
//!   garbage passes an eighth of an arena its live lists are rewritten in
//!   slot order.
//! * **Leaves reuse the existing machinery.** Each distinct predicate leaf is
//!   registered once in the [`AttributeIndex`], keyed by its DAG node id, so
//!   the index's per-event probe serves both engines unchanged.
//! * **Counter evaluation, at most once per node per event.** Matching
//!   touches the fulfilled leaves, then sweeps scheduled interior nodes
//!   bottom-up in level order. A node whose value leaves its default adds
//!   ±1 to a per-event counter of every parent edge, in the same loop that
//!   schedules the parent; a scheduled node then knows how many of its child
//!   edges are true, `base + count`, without reading a child: an And is true
//!   when that equals its arity, an Or when it is positive, a Not when it is
//!   zero. A node is scheduled once per event however many children change,
//!   and one whose children all hold their defaults is never scheduled —
//!   its value is its default — so an event pays only for the part of the
//!   DAG it perturbs.
//! * **Access children.** Following the *access predicates* of Fabret et
//!   al. (SIGMOD 2001) that the counting engine files subscriptions under,
//!   an And with at least one default-false child is *gated*: when it is
//!   created it picks one such child as its access child — an equality
//!   leaf first, then a default-false interior node, then any other
//!   default-false leaf, the lowest id among equals — and registers a
//!   parent edge on that child alone (once, even if the child is listed
//!   twice). It is scheduled only when its access child comes out true;
//!   otherwise the access child is false and so is the And, its default.
//!   A scheduled gated And scans its children: a fulfilled leaf is true, a
//!   scheduled node holds the value its level computed, and an unscheduled
//!   one holds its default. That is exact because every child sits at a
//!   lower, already swept level, and by induction an unscheduled node holds
//!   its default. A leaf fulfilled by an event thus schedules only the Ands
//!   it is the access child of, not every And it appears in, and a gated
//!   node is still evaluated at most once per event. Or, Not and Ands whose
//!   children are all default-true keep an edge per child and the counter.
//! * **Removal reference-counts.** Every parent edge and every subscriber
//!   holds one reference; releasing the last one frees the slab slot,
//!   unregisters the leaf, and cascades to children, so churn never leaks.
//! * **One body per distinct tree.** Beside the DAG, the engine keeps each
//!   registered [`Subscription`] for `get`. A subscription whose tree
//!   equals that of one already rooted at the same node takes that one's
//!   tree, which shares its node array, so the subscribers of one root
//!   share one body per distinct tree. Equal roots alone do not suffice:
//!   `a ∧ b` and `b ∧ a` intern to one node but are kept as inserted.
//!
//! Match output is **byte-identical** to [`CountingEngine`](crate::CountingEngine):
//! id-sorted per event, deterministic, and differential-tested across batch
//! and single-event paths, churn, and analyze on/off. The ids of one event
//! are distinct (subscriber lists are disjoint across roots), so they are
//! ordered by an LSD radix sort over only the span of bits in which they
//! differ.
//!
//! The stage-0 pre-filter is per-*subscription* (kill a subscription before
//! counting); a shared leaf has no single owning subscription, so this engine
//! has none. The lazy default-value scheduling plays the same role: untouched
//! regions of the DAG cost nothing.

use crate::config::EngineConfig;
use crate::index::{AttributeIndex, PredicateKey, SubSlot};
use crate::{EngineReport, FilterStats, MatchSink, MatchingEngine};
use pubsub_core::analysis::{
    and_fingerprint, not_fingerprint, or_fingerprint, predicate_fingerprint,
};
use pubsub_core::{
    AttrId, EventBatch, EventMessage, Expr, NodeId, Operator, Predicate, SubscriberId,
    Subscription, SubscriptionId, Value,
};
use selectivity::DiscriminationHint;
use std::collections::HashMap;
use std::mem::size_of;
use std::time::Instant;

/// Sentinel meaning "this node is not in the default-true root list".
const NOT_IN_LIST: u32 = u32::MAX;

/// The operator of one DAG node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Op {
    /// A predicate leaf (level 0), registered in the [`AttributeIndex`].
    #[default]
    Leaf,
    /// Conjunction over the children; empty conjunctions are vacuously true.
    And,
    /// Disjunction over the children; empty disjunctions are false.
    Or,
    /// Negation of the single child.
    Not,
}

/// The per-node facts the sweep reads, one per slab slot (parallel to
/// `ATreeEngine::nodes`). Everything but `refs` and `has_subscribers` is
/// fixed when the node is created; a freed slot holds the default, and
/// nothing reads it until the slot is reused.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct NodeMeta {
    op: Op,
    /// The node's value under "no predicate fulfilled": the statically known
    /// result whenever it is not scheduled.
    default: bool,
    /// Whether any subscription is rooted here.
    has_subscribers: bool,
    /// Whether this is an And with an access child: it has one parent edge,
    /// on that child, and is evaluated by a child scan whose result is kept
    /// in its `count` slot (see the module docs).
    gated: bool,
    /// Child edges, duplicates counted.
    arity: u32,
    /// Child edges whose child is default-true, duplicates counted.
    base: u32,
    /// 0 for leaves, `1 + max(child levels)` otherwise.
    level: u32,
    /// Live references: one per parent edge plus one per subscriber. The
    /// node is freed when this reaches zero.
    refs: u32,
}

impl NodeMeta {
    /// The value of an interior node `true_edges` of whose child edges hold
    /// true.
    #[inline]
    fn value(&self, true_edges: u32) -> bool {
        match self.op {
            Op::And => true_edges == self.arity,
            Op::Or => true_edges > 0,
            // Leaves sit at level 0 and are never scheduled.
            Op::Not | Op::Leaf => true_edges == 0,
        }
    }
}

/// The cold facts of one live DAG node, read by interning and removal.
#[derive(Debug)]
struct DagNode {
    /// The predicate of a leaf; `None` for an interior node.
    pred: Option<Predicate>,
    /// Structural fingerprint — the hash-consing key.
    fp: u64,
}

/// An [`Arena`] rewrites its live lists once more than
/// `1 / GARBAGE_DIVISOR` of its data is garbage. Building the
/// 100k-subscription benchmark population (seed 42, 2-core x86-64 host),
/// a trigger at one half ran no compaction and left 149k of the subscriber
/// arena's 308k elements garbage, 1.2 MiB more peak RSS than one heap
/// vector per list; one at an eighth ran 42 compactions and 0.4 MiB less.
/// At an eighth with exactly sized lists, every compacted list relocated on
/// its next push: 801 compactions copied 15M elements and inserting took
/// 40 % longer.
const GARBAGE_DIVISOR: usize = 8;

/// Where one slab slot's list sits in its [`Arena`]: `len` elements from
/// `start`, inside room for `cap`. A freed slot's span is the default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Span {
    start: usize,
    len: u32,
    cap: u32,
}

impl Span {
    fn range(self) -> std::ops::Range<usize> {
        self.start..self.start + self.len as usize
    }
}

/// One list per slab slot, every list stored back to back in one vector,
/// so reading a node's list touches its span and its elements rather than a
/// heap block of its own. A push onto a full list moves it to the end of
/// `data` at double capacity (or grows it in place when it already ends
/// there); removal is in place. Lists moved away and lists of freed slots
/// are garbage, and compaction rewrites the live lists in slot order once
/// garbage exceeds `1 / GARBAGE_DIVISOR` of `data`.
#[derive(Debug)]
struct Arena<T> {
    data: Vec<T>,
    /// One span per slab slot, parallel to `ATreeEngine::meta`.
    spans: Vec<Span>,
    /// Elements of `data` inside no live span.
    garbage: usize,
    /// Compactions run so far; the structure tests read it.
    #[cfg_attr(not(test), allow(dead_code))]
    compactions: u64,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self {
            data: Vec::new(),
            spans: Vec::new(),
            garbage: 0,
            compactions: 0,
        }
    }
}

impl<T: Copy> Arena<T> {
    /// Adds an empty list for a new slab slot.
    fn push_slot(&mut self) {
        self.spans.push(Span::default());
    }

    /// The list of `slot`; empty for a slot out of range.
    #[inline]
    fn get(&self, slot: u32) -> &[T] {
        self.spans
            .get(slot as usize)
            .and_then(|s| self.data.get(s.range()))
            .unwrap_or_default()
    }

    /// Gives the empty list of `slot` the elements `items`, exactly sized,
    /// at the end of `data`.
    fn fill(&mut self, slot: u32, items: &[T]) {
        let Some(span) = self.spans.get_mut(slot as usize) else {
            return;
        };
        // A list's length is counted in u32, as a node's arity is.
        let len = u32::try_from(items.len()).unwrap_or(u32::MAX);
        *span = Span {
            start: self.data.len(),
            len,
            cap: len,
        };
        self.data.extend_from_slice(&items[..len as usize]);
    }

    /// Appends `value` to the list of `slot`.
    fn push(&mut self, slot: u32, value: T) {
        self.insert(slot, self.get(slot).len(), value);
    }

    /// Inserts `value` at position `pos` (at most the length) of the list
    /// of `slot`, first making room if the list is full.
    fn insert(&mut self, slot: u32, pos: usize, value: T) {
        let Some(&old) = self.spans.get(slot as usize) else {
            return;
        };
        let mut span = old;
        if span.len == span.cap {
            if span.start + span.cap as usize != self.data.len() {
                span.start = self.data.len();
                self.data.extend_from_within(old.range());
                self.garbage += old.cap as usize;
            }
            span.cap = span.cap.saturating_mul(2).max(1);
            self.data.resize(span.start + span.cap as usize, value);
        }
        let at = span.start + pos;
        self.data
            .copy_within(at..span.start + span.len as usize, at + 1);
        self.data[at] = value;
        span.len += 1;
        self.spans[slot as usize] = span;
        self.compact_if_wasteful();
    }

    /// Removes the element at `pos` of the list of `slot`, keeping the
    /// order of the rest.
    fn remove(&mut self, slot: u32, pos: usize) {
        let Some(span) = self.spans.get_mut(slot as usize) else {
            return;
        };
        if pos < span.len as usize {
            let at = span.start + pos;
            self.data
                .copy_within(at + 1..span.start + span.len as usize, at);
            span.len -= 1;
        }
    }

    /// Drops the list of `slot`, whose node is freed: its span becomes
    /// garbage.
    fn free(&mut self, slot: u32) {
        let Some(span) = self.spans.get_mut(slot as usize) else {
            return;
        };
        self.garbage += span.cap as usize;
        *span = Span::default();
        self.compact_if_wasteful();
    }

    fn compact_if_wasteful(&mut self) {
        if self.garbage > self.data.len() / GARBAGE_DIVISOR {
            self.compact();
        }
    }

    /// Rewrites the live lists into a fresh `data`, in slot order, each
    /// keeping its room up to the next power of two of its length (the room
    /// pushing alone would have given it); an empty list gets the default
    /// span.
    fn compact(&mut self) {
        let room = |s: &Span| s.cap.min(s.len.next_power_of_two());
        let total = self
            .spans
            .iter()
            .filter(|s| s.len > 0)
            .map(|s| room(s) as usize)
            .sum();
        let mut data = Vec::with_capacity(total);
        for span in &mut self.spans {
            let old = std::mem::take(span);
            let list = &self.data[old.range()];
            let Some(&last) = list.last() else {
                continue;
            };
            *span = Span {
                start: data.len(),
                len: old.len,
                cap: room(&old),
            };
            data.extend_from_slice(list);
            data.resize(span.start + span.cap as usize, last);
        }
        self.data = data;
        self.garbage = 0;
        self.compactions += 1;
    }

    /// Total number of list elements, live ones only.
    fn live_len(&self) -> usize {
        self.spans.iter().map(|s| s.len as usize).sum()
    }

    /// Bytes allocated for the data (garbage and spare room included) and
    /// the spans.
    fn bytes(&self) -> usize {
        self.data.capacity() * size_of::<T>() + self.spans.capacity() * size_of::<Span>()
    }
}

/// One node's per-event scratch. The two fields are read and written
/// together, so they share a cache line.
#[derive(Debug, Clone, Copy, Default)]
struct Stamp {
    /// The generation of the event that last fulfilled the node (a leaf) or
    /// scheduled it (an interior node).
    gen: u32,
    /// Per scheduled counter node, its child edges that left their default
    /// for true minus those that left it for false; per swept gated node,
    /// its value (0 or 1). Valid only where `gen` is current.
    count: i32,
}

/// Reusable per-event scratch, indexed by DAG node id. Generation-stamped:
/// "clearing" between events is one integer increment, and steady-state
/// matching performs no heap allocation here.
#[derive(Debug, Default)]
struct AtreeScratch {
    /// One stamp per node.
    stamps: Vec<Stamp>,
    /// The generation of the event currently being matched.
    current_gen: u32,
    /// Scheduled interior nodes, bucketed by DAG level; swept ascending.
    pending: Vec<Vec<u32>>,
    /// Nodes with subscribers that came out true this event.
    true_roots: Vec<u32>,
    /// The current event's `(id, subscriber)` matches, id-sorted once the
    /// event is done.
    match_buf: Vec<(SubscriptionId, SubscriberId)>,
    /// The radix sort's second buffer; swapped with `match_buf` per pass.
    sort_spare: Vec<(SubscriptionId, SubscriberId)>,
    /// Number of times any scratch buffer had to grow. Stable across calls
    /// in steady state; tests assert on it.
    grows: u64,
}

impl AtreeScratch {
    /// Starts a new event: bumps the generation and sizes the per-node
    /// buffers to cover `nodes` slab entries and `max_level` levels.
    fn advance(&mut self, nodes: usize, max_level: u32) {
        if self.stamps.len() < nodes {
            self.stamps.resize(nodes, Stamp::default());
        }
        let want_levels = max_level as usize + 1;
        if self.pending.len() < want_levels {
            self.pending.resize_with(want_levels, Vec::new);
        }
        self.current_gen = self.current_gen.wrapping_add(1);
        if self.current_gen == 0 {
            // Generation wrap (once per 2³² events): physically reset the
            // stamps so ancient generations cannot alias the new one.
            self.stamps.fill(Stamp::default());
            self.current_gen = 1;
        }
        self.true_roots.clear();
        self.match_buf.clear();
    }

    /// Adds `delta` to the counter of every edge in `parents`, scheduling
    /// each parent (with a zeroed counter) the first time this event.
    #[inline]
    fn schedule(&mut self, parents: &[u32], delta: i32, meta: &[NodeMeta]) {
        let gen = self.current_gen;
        for &p in parents {
            let i = p as usize;
            let stamp = &mut self.stamps[i];
            if stamp.gen != gen {
                *stamp = Stamp { gen, count: 0 };
                self.pending[meta[i].level as usize].push(p);
            }
            stamp.count += delta;
        }
    }

    /// The value node `c` holds this event, once its level has been swept.
    #[inline]
    fn value_of(&self, c: u32, meta: &[NodeMeta]) -> bool {
        let i = c as usize;
        let m = meta[i];
        let stamp = self.stamps[i];
        if stamp.gen != self.current_gen {
            return m.default;
        }
        match m.op {
            Op::Leaf => true,
            _ if m.gated => stamp.count != 0,
            _ => m.value(m.base.wrapping_add_signed(stamp.count)),
        }
    }

    /// Total number of scratch elements currently allocated.
    fn capacity(&self) -> usize {
        self.stamps.capacity()
            + self.pending.capacity()
            + self.pending.iter().map(Vec::capacity).sum::<usize>()
            + self.true_roots.capacity()
            + self.match_buf.capacity()
            + self.sort_spare.capacity()
    }
}

/// Below this many matches [`sort_by_id`] falls back to the comparison
/// sort. Sorting shuffled distinct ids from 0..100k on a 2-core x86-64 host,
/// the radix sort (two passes) broke even with `sort_unstable_by_key` at
/// ~100 matches, was ~1.1x faster at 128 and ~3x faster at 2,700 (27 vs
/// 85 µs).
const RADIX_CUTOFF: usize = 128;

/// The widest radix digit: 2,048 counters.
const RADIX_MAX_BITS: u32 = 11;

/// Sorts `buf` by id with an LSD radix sort over only the span of id bits
/// that differ within it, in as few passes of at most [`RADIX_MAX_BITS`]
/// bits as cover the span, scattering through `spare`. The ids must be
/// distinct (the order is then the one a comparison sort gives).
fn sort_by_id(
    buf: &mut Vec<(SubscriptionId, SubscriberId)>,
    spare: &mut Vec<(SubscriptionId, SubscriberId)>,
) {
    let Some(&first) = buf.first() else {
        return;
    };
    if buf.len() < RADIX_CUTOFF {
        buf.sort_unstable_by_key(|&(id, _)| id);
        return;
    }
    let (or, and) = buf.iter().fold((0u64, u64::MAX), |(or, and), &(id, _)| {
        (or | id.raw(), and & id.raw())
    });
    let differ = or ^ and;
    if differ == 0 {
        return;
    }
    let low = differ.trailing_zeros();
    let span = u64::BITS - differ.leading_zeros() - low;
    let passes = span.div_ceil(RADIX_MAX_BITS);
    let width = span.div_ceil(passes);
    let mask = (1usize << width) - 1;
    spare.clear();
    spare.resize(buf.len(), first);
    let mut counters = [0usize; 1 << RADIX_MAX_BITS];
    for pass in 0..passes {
        let shift = low + pass * width;
        let digit = |id: SubscriptionId| (id.raw() >> shift) as usize & mask;
        let offsets = &mut counters[..=mask];
        offsets.fill(0);
        for &(id, _) in buf.iter() {
            offsets[digit(id)] += 1;
        }
        let mut sum = 0;
        for slot in offsets.iter_mut() {
            let n = *slot;
            *slot = sum;
            sum += n;
        }
        for &pair in buf.iter() {
            let slot = &mut offsets[digit(pair.0)];
            spare[*slot] = pair;
            *slot += 1;
        }
        std::mem::swap(buf, spare);
    }
}

/// Point-in-time memory footprint of the DAG, for the benchmark panel's
/// per-engine accounting. `slab_bytes` covers the matching structure itself —
/// node slab and its parallel per-node arrays, the child/parent/subscriber
/// arenas, string-constant heap of the leaf predicates, the interning table,
/// and the id → root mapping — and deliberately excludes the engine-API
/// `Subscription` storage, which is identical across engines and never
/// touched while matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtreeMemory {
    /// Live DAG nodes.
    pub node_count: usize,
    /// Parent→child edges (sum of child-list lengths).
    pub edge_count: usize,
    /// Bytes held by the DAG slab and its side tables. The child, parent
    /// and subscriber arenas count at their allocated capacity, so garbage
    /// not yet compacted away and room for growth are included.
    pub slab_bytes: usize,
}

/// The shared-subexpression (A-Tree) matching engine. See the module docs
/// for the DAG layout and evaluation order.
#[derive(Debug, Default)]
pub struct ATreeEngine {
    /// Slab of DAG nodes; freed slots are recycled via `free_nodes`.
    nodes: Vec<Option<DagNode>>,
    /// The hot per-node facts, parallel to `nodes`.
    meta: Vec<NodeMeta>,
    /// Each node's child ids, **sorted** (duplicates retained so arity is
    /// preserved). Sorting makes structural equality a plain slice compare
    /// and absorbs `And(a, b)` vs `And(b, a)`, matching the commutative
    /// fingerprint.
    children: Arena<u32>,
    /// Each node's parent *edges* (duplicates allowed when an ungated
    /// parent lists the node twice; a gated And has one edge, on its access
    /// child). Used to propagate non-default values upward.
    parents: Arena<u32>,
    /// The subscriptions rooted at each node with their subscribers, sorted
    /// by id.
    subscribers: Arena<(SubscriptionId, SubscriberId)>,
    free_nodes: Vec<u32>,
    /// The work stack of [`release`](Self::release), kept between calls.
    release_work: Vec<u32>,
    /// Highest level currently in the DAG (monotone; slots keep it simple).
    max_level: u32,
    /// Hash-consing table: fingerprint → candidate node ids (verified
    /// structurally, so a fingerprint collision costs a compare, not
    /// correctness).
    interned: HashMap<u64, Vec<u32>>,
    /// Registered subscriptions with their root node (backs `get`,
    /// `subscriptions` and replacement). Root-mates with equal trees share
    /// one tree body (see [`share_body`](Self::share_body)).
    subs: HashMap<SubscriptionId, (u32, Subscription)>,
    /// Roots with subscribers whose default value is *true* — like the
    /// counting engine's zero-`pmin` list, they match events that fulfil
    /// none of their predicates, but here an untouched root is emitted
    /// without any evaluation at all.
    default_true_roots: Vec<u32>,
    /// Position of each node inside `default_true_roots` (or
    /// [`NOT_IN_LIST`]), for O(1) membership updates.
    default_true_pos: Vec<u32>,
    /// Live node count (gauge source for `FilterStats::dag_nodes`).
    live_nodes: u64,
    /// Nodes with more than one reference (gauge source for
    /// `FilterStats::shared_subtrees`).
    shared_count: u64,
    index: AttributeIndex,
    scratch: AtreeScratch,
    stats: FilterStats,
    config: EngineConfig,
    /// Selectivity oracle for the registration-time analyzer, if any.
    hint: Option<DiscriminationHint>,
}

impl ATreeEngine {
    /// Creates an empty engine with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty engine with capacity for roughly `n` subscriptions.
    pub fn with_capacity(n: usize) -> Self {
        Self::with_config_and_capacity(EngineConfig::default(), n)
    }

    /// Creates an empty engine with the given configuration.
    pub fn with_config(config: EngineConfig) -> Self {
        Self::with_config_and_capacity(config, 0)
    }

    /// Creates an empty engine with the given configuration and capacity for
    /// roughly `n` subscriptions.
    pub fn with_config_and_capacity(config: EngineConfig, n: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(n),
            meta: Vec::with_capacity(n),
            subs: HashMap::with_capacity(n),
            config,
            ..Self::default()
        }
    }

    /// The engine's configuration. Only the `analyze` half has an effect
    /// here; the stage-0 pre-filter mode is ignored (see the module docs).
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Replaces the configuration. Affects subsequent insertions only;
    /// match output is unaffected.
    pub fn set_config(&mut self, config: EngineConfig) {
        self.config = config;
    }

    /// Installs (or clears) the sampled discrimination hint. The A-Tree
    /// uses it only as the analyzer's selectivity oracle at registration.
    pub fn set_discrimination_hint(&mut self, hint: Option<DiscriminationHint>) {
        self.hint = hint;
    }

    /// Iterates over the registered subscriptions in unspecified order
    /// (that of the id map; callers that need a canonical order sort by
    /// id).
    pub fn subscriptions(&self) -> impl Iterator<Item = &Subscription> {
        self.subs.values().map(|(_, sub)| sub)
    }

    /// Direct access to the underlying predicate index (read-only).
    pub fn index(&self) -> &AttributeIndex {
        &self.index
    }

    /// Size of the reusable per-event scratch currently allocated (an opaque
    /// grow-only figure). Constant across match calls once the engine has
    /// warmed up.
    pub fn scratch_capacity(&self) -> usize {
        self.scratch.capacity()
    }

    /// Number of times the per-event scratch had to grow since construction.
    pub fn scratch_grows(&self) -> u64 {
        self.scratch.grows
    }

    /// Point-in-time memory footprint of the DAG (see [`AtreeMemory`]).
    pub fn memory(&self) -> AtreeMemory {
        let mut bytes = self.nodes.capacity() * size_of::<Option<DagNode>>()
            + self.meta.capacity() * size_of::<NodeMeta>()
            + self.children.bytes()
            + self.parents.bytes()
            + self.subscribers.bytes();
        for node in self.nodes.iter().flatten() {
            if let Some(p) = &node.pred {
                bytes += p.size_bytes();
            }
        }
        bytes += (self.free_nodes.capacity()
            + self.release_work.capacity()
            + self.default_true_pos.capacity()
            + self.default_true_roots.capacity())
            * size_of::<u32>()
            + self.interned.capacity() * size_of::<(u64, Vec<u32>)>()
            + self
                .interned
                .values()
                .map(|b| b.capacity() * size_of::<u32>())
                .sum::<usize>()
            + self.subs.capacity() * size_of::<(SubscriptionId, u32)>();
        AtreeMemory {
            node_count: self.live_nodes as usize,
            edge_count: self.children.live_len(),
            slab_bytes: bytes,
        }
    }

    /// Gives `subscription` the tree of a subscription already rooted at
    /// `root` when the two trees are equal, so root-mates with equal trees
    /// hold one body. Equality, not the shared root, decides: the And/Or
    /// fingerprints ignore child order, so `a ∧ b` and `b ∧ a` may share a
    /// root while `get` must return each tree as it was inserted.
    fn share_body(&self, root: u32, subscription: Subscription) -> Subscription {
        let equal = self
            .subscribers
            .get(root)
            .iter()
            .filter_map(|(mate, _)| self.subs.get(mate))
            .map(|(_, mate)| mate.tree())
            .find(|&tree| tree == subscription.tree());
        match equal {
            Some(tree) => subscription.with_tree(tree.clone()),
            None => subscription,
        }
    }

    /// Refreshes the structural gauges exposed through [`FilterStats`].
    fn refresh_gauges(&mut self) {
        self.stats.dag_nodes = self.live_nodes;
        self.stats.shared_subtrees = self.shared_count;
    }

    fn alloc_node(&mut self) -> u32 {
        if let Some(n) = self.free_nodes.pop() {
            return n;
        }
        let n = u32::try_from(self.nodes.len()).expect("DAG node slab exceeds u32 range");
        self.nodes.push(None);
        self.meta.push(NodeMeta::default());
        self.children.push_slot();
        self.parents.push_slot();
        self.subscribers.push_slot();
        self.default_true_pos.push(NOT_IN_LIST);
        n
    }

    /// The fingerprint of a live node (0 for a vacant slot — callers only
    /// pass ids they just interned).
    fn node_fp(&self, n: u32) -> u64 {
        self.nodes
            .get(n as usize)
            .and_then(|e| e.as_ref())
            .map_or(0, |e| e.fp)
    }

    /// Adds one reference to `n`, maintaining the shared gauge.
    fn bump_ref(&mut self, n: u32) {
        if let Some(m) = self.meta.get_mut(n as usize) {
            m.refs += 1;
            if m.refs == 2 {
                self.shared_count += 1;
            }
        }
    }

    /// Returns the node for `(fp, op, pred, children)`, reusing a
    /// structurally identical existing node or creating a fresh one. Because
    /// equality compares child *ids*, a hit guarantees every child of the
    /// candidate is exactly the child we interned — fresh children are never
    /// orphaned by a hit (a live candidate cannot reference a just-allocated
    /// id).
    fn intern(&mut self, fp: u64, op: Op, pred: Option<&Predicate>, children: &[u32]) -> u32 {
        if let Some(bucket) = self.interned.get(&fp) {
            for &cand in bucket {
                let hit = self.meta.get(cand as usize).is_some_and(|m| m.op == op)
                    && self.children.get(cand) == children
                    && self
                        .nodes
                        .get(cand as usize)
                        .and_then(|e| e.as_ref())
                        .is_some_and(|n| n.pred.as_ref() == pred);
                if hit {
                    return cand;
                }
            }
        }
        self.create_node(fp, op, pred, children)
    }

    fn create_node(&mut self, fp: u64, op: Op, pred: Option<&Predicate>, children: &[u32]) -> u32 {
        let mut meta = NodeMeta {
            op,
            ..NodeMeta::default()
        };
        if op != Op::Leaf {
            let mut child_level = 0;
            for &c in children {
                let child = self.meta.get(c as usize).copied().unwrap_or_default();
                child_level = child_level.max(child.level);
                meta.arity += 1;
                meta.base += u32::from(child.default);
            }
            meta.level = child_level + 1;
            meta.default = meta.value(meta.base);
        }
        let access = self.access_child(op, children);
        meta.gated = access.is_some();
        let id = self.alloc_node();
        for &c in access.as_ref().map_or(children, std::slice::from_ref) {
            self.parents.push(c, id);
        }
        for &c in children {
            self.bump_ref(c);
        }
        if let Some(p) = pred {
            self.index
                .insert(p, PredicateKey::new(SubSlot(id), NodeId(0)));
        }
        let i = id as usize;
        self.meta[i] = meta;
        self.max_level = self.max_level.max(meta.level);
        self.children.fill(id, children);
        self.nodes[i] = Some(DagNode {
            pred: pred.cloned(),
            fp,
        });
        self.interned.entry(fp).or_default().push(id);
        self.live_nodes += 1;
        id
    }

    /// The access child of an `op` node over the live `children`: for an
    /// And with a default-false child, an equality leaf if it has one, else a
    /// default-false interior node, else another default-false leaf, the
    /// lowest id among equals. `None` for every other node, which is
    /// evaluated by its counter. A function of the children's fixed facts,
    /// so creation and release agree on it.
    fn access_child(&self, op: Op, children: &[u32]) -> Option<u32> {
        if op != Op::And {
            return None;
        }
        let rank = |c: u32| {
            let m = self.meta.get(c as usize)?;
            if m.default {
                return None;
            }
            let pred = self.nodes.get(c as usize)?.as_ref()?.pred.as_ref();
            Some(match (m.op, pred) {
                (Op::Leaf, Some(p)) if p.operator() == Operator::Eq => 0u8,
                (Op::Leaf, _) => 2,
                _ => 1,
            })
        };
        children
            .iter()
            .filter_map(|&c| Some((rank(c)?, c)))
            .min()
            .map(|(_, c)| c)
    }

    /// Interns `expr` bottom-up, returning its DAG node.
    fn intern_expr(&mut self, expr: &Expr) -> u32 {
        match expr {
            Expr::Pred(p) => self.intern(predicate_fingerprint(p), Op::Leaf, Some(p), &[]),
            Expr::And(children) => {
                let mut kids: Vec<u32> = children.iter().map(|c| self.intern_expr(c)).collect();
                let fps: Vec<u64> = kids.iter().map(|&k| self.node_fp(k)).collect();
                let fp = and_fingerprint(&fps);
                kids.sort_unstable();
                self.intern(fp, Op::And, None, &kids)
            }
            Expr::Or(children) => {
                let mut kids: Vec<u32> = children.iter().map(|c| self.intern_expr(c)).collect();
                let fps: Vec<u64> = kids.iter().map(|&k| self.node_fp(k)).collect();
                let fp = or_fingerprint(&fps);
                kids.sort_unstable();
                self.intern(fp, Op::Or, None, &kids)
            }
            Expr::Not(child) => {
                let k = self.intern_expr(child);
                let fp = not_fingerprint(self.node_fp(k));
                self.intern(fp, Op::Not, None, &[k])
            }
        }
    }

    fn default_true_insert(&mut self, n: u32) {
        let i = n as usize;
        if self.default_true_pos.get(i).copied() != Some(NOT_IN_LIST) {
            return;
        }
        self.default_true_pos[i] = u32::try_from(self.default_true_roots.len())
            .expect("default-true list exceeds u32 range");
        self.default_true_roots.push(n);
    }

    /// O(1) removal from the default-true root list via the position map and
    /// `swap_remove`.
    fn default_true_remove(&mut self, n: u32) {
        let i = n as usize;
        let Some(&pos) = self.default_true_pos.get(i) else {
            return;
        };
        if pos == NOT_IN_LIST {
            return;
        }
        self.default_true_pos[i] = NOT_IN_LIST;
        self.default_true_roots.swap_remove(pos as usize);
        if let Some(&moved) = self.default_true_roots.get(pos as usize) {
            self.default_true_pos[moved as usize] = pos;
        }
    }

    /// Whether slab slot `n` holds a live node.
    fn is_live(&self, n: u32) -> bool {
        self.nodes.get(n as usize).is_some_and(Option::is_some)
    }

    fn add_subscriber(&mut self, root: u32, id: SubscriptionId, subscriber: SubscriberId) {
        if !self.is_live(root) {
            return;
        }
        let list = self.subscribers.get(root);
        if let Err(pos) = list.binary_search_by_key(&id, |&(s, _)| s) {
            self.subscribers.insert(root, pos, (id, subscriber));
        }
        let m = &mut self.meta[root as usize];
        let first = !m.has_subscribers;
        m.has_subscribers = true;
        if first && m.default {
            self.default_true_insert(root);
        }
        self.bump_ref(root);
    }

    fn remove_subscriber(&mut self, root: u32, id: SubscriptionId) {
        if !self.is_live(root) {
            return;
        }
        let list = self.subscribers.get(root);
        if let Ok(pos) = list.binary_search_by_key(&id, |&(s, _)| s) {
            self.subscribers.remove(root, pos);
        }
        if self.subscribers.get(root).is_empty() {
            self.meta[root as usize].has_subscribers = false;
            self.default_true_remove(root);
        }
        self.release(root);
    }

    /// Drops one reference from `node`, freeing it (and cascading to its
    /// children) when the last reference goes away.
    fn release(&mut self, node: u32) {
        let mut work = std::mem::take(&mut self.release_work);
        work.push(node);
        while let Some(n) = work.pop() {
            let i = n as usize;
            if !self.is_live(n) {
                continue;
            }
            let m = &mut self.meta[i];
            m.refs = m.refs.saturating_sub(1);
            if m.refs == 1 {
                self.shared_count = self.shared_count.saturating_sub(1);
            }
            if m.refs > 0 {
                continue;
            }
            let op = m.op;
            *m = NodeMeta::default();
            let Some(entry) = self.nodes[i].take() else {
                continue;
            };
            let access = self.access_child(op, self.children.get(n));
            if let Some(bucket) = self.interned.get_mut(&entry.fp) {
                if let Some(pos) = bucket.iter().position(|&x| x == n) {
                    bucket.swap_remove(pos);
                }
                if bucket.is_empty() {
                    self.interned.remove(&entry.fp);
                }
            }
            if let Some(p) = &entry.pred {
                self.index
                    .remove(p, PredicateKey::new(SubSlot(n), NodeId(0)));
            }
            self.default_true_remove(n);
            for &c in access
                .as_ref()
                .map_or(self.children.get(n), std::slice::from_ref)
            {
                if let Some(pos) = self.parents.get(c).iter().position(|&x| x == n) {
                    self.parents.remove(c, pos);
                }
            }
            work.extend_from_slice(self.children.get(n));
            self.children.free(n);
            self.parents.free(n);
            self.subscribers.free(n);
            self.free_nodes.push(n);
            self.live_nodes = self.live_nodes.saturating_sub(1);
        }
        self.release_work = work;
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
        self.index.ensure_built();
        let scratch_capacity_before = self.scratch.capacity();

        let Self {
            meta,
            children,
            parents,
            subscribers,
            max_level,
            default_true_roots,
            index,
            scratch,
            stats,
            ..
        } = self;
        for (i, pairs) in events.enumerate() {
            Self::match_event_core(
                meta,
                children,
                parents,
                subscribers,
                *max_level,
                default_true_roots,
                scratch,
                stats,
                index,
                pairs,
            );
            emit(i, &scratch.match_buf);
        }

        if self.scratch.capacity() > scratch_capacity_before {
            self.scratch.grows += 1;
        }
        self.stats.batches_filtered += 1;
        self.stats.events_filtered += count;
        self.stats.filter_time += start.elapsed();
    }

    /// The per-event core of `match_events`.
    ///
    /// The index probe of the event's resolved `pairs` delivers its
    /// fulfilled leaf nodes; the core then sweeps the scheduled interior
    /// nodes bottom-up in level order, evaluating each from its counter or,
    /// if gated, from its children, and leaves the id-sorted
    /// `(id, subscriber)` matches in `scratch.match_buf`.
    #[allow(clippy::too_many_arguments)] // engine fields passed piecewise
    fn match_event_core(
        meta: &[NodeMeta],
        children: &Arena<u32>,
        parents: &Arena<u32>,
        subscribers: &Arena<(SubscriptionId, SubscriberId)>,
        max_level: u32,
        default_true_roots: &[u32],
        scratch: &mut AtreeScratch,
        stats: &mut FilterStats,
        index: &AttributeIndex,
        pairs: &[(AttrId, Value)],
    ) {
        scratch.advance(meta.len(), max_level);
        let gen = scratch.current_gen;
        let mut fulfilled = 0u64;
        let mut evaluated = 0u64;
        let mut saved = 0u64;
        let mut candidates = 0u64;

        // Stage 1: touch the fulfilled leaves. Idempotent per node (the
        // index may report a leaf more than once); a leaf's true differs
        // from its false default by construction, so every parent edge
        // counts +1.
        {
            let mut touch = |n: u32| {
                let i = n as usize;
                let Some(&m) = meta.get(i) else {
                    return;
                };
                if scratch.stamps[i].gen == gen {
                    return;
                }
                scratch.stamps[i].gen = gen;
                fulfilled += 1;
                saved += u64::from(m.refs.saturating_sub(1));
                if m.has_subscribers {
                    candidates += 1;
                    scratch.true_roots.push(n);
                }
                scratch.schedule(parents.get(n), 1, meta);
            };
            index.fulfilled_pairs(pairs.iter().map(|(a, v)| (*a, v)), |key| touch(key.slot.0));
        }

        // Stage 2: bottom-up level sweep. A node is only ever scheduled by a
        // strictly lower level, so each level's queue — and each counter in
        // it — is complete when its turn comes; by induction an
        // *unscheduled* node holds its default: a counter node's children
        // all hold theirs, and a gated And's access child is false. A gated
        // And reads its children, all at lower, already swept levels.
        let mut lvl = 1usize;
        while lvl < scratch.pending.len() {
            let mut idx = 0usize;
            while let Some(&n) = scratch.pending[lvl].get(idx) {
                idx += 1;
                let i = n as usize;
                let m = meta[i];
                let v = if m.gated {
                    let v = children.get(n).iter().all(|&c| scratch.value_of(c, meta));
                    scratch.stamps[i].count = i32::from(v);
                    v
                } else {
                    m.value(m.base.wrapping_add_signed(scratch.stamps[i].count))
                };
                evaluated += 1;
                saved += u64::from(m.refs.saturating_sub(1));
                if m.has_subscribers {
                    candidates += 1;
                    if v {
                        scratch.true_roots.push(n);
                    }
                }
                if v != m.default {
                    scratch.schedule(parents.get(n), if v { 1 } else { -1 }, meta);
                }
            }
            scratch.pending[lvl].clear();
            lvl += 1;
        }

        stats.predicates_fulfilled += fulfilled;
        stats.trees_evaluated += evaluated;
        stats.node_evals_saved += saved;
        stats.stage2_candidates += candidates;

        // Emit: computed roots that came out true, plus unscheduled
        // default-true roots (their value is statically true). Subscriber
        // lists are disjoint across roots, so the ids are distinct and a
        // radix sort gives the deterministic id order that keeps this engine
        // byte-identical to the counting engine.
        let AtreeScratch {
            stamps,
            true_roots,
            match_buf,
            sort_spare,
            ..
        } = scratch;
        for &r in true_roots.iter() {
            match_buf.extend_from_slice(subscribers.get(r));
        }
        for &r in default_true_roots {
            if stamps[r as usize].gen != gen {
                match_buf.extend_from_slice(subscribers.get(r));
            }
        }
        sort_by_id(match_buf, sort_spare);
        stats.matches += match_buf.len() as u64;
    }
}

impl MatchingEngine for ATreeEngine {
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
                // Unsatisfiable: never interned. Dropping any previous
                // version keeps replacement semantics.
                self.remove(id);
                return;
            }
        };
        if let Some((old_root, _)) = self.subs.remove(&id) {
            // Replacement: detach the old tree first so its now-unshared
            // nodes are freed before the new tree interns.
            self.remove_subscriber(old_root, id);
        }
        let root = self.intern_expr(&subscription.tree().to_expr());
        let subscription = self.share_body(root, subscription);
        self.add_subscriber(root, id, subscription.subscriber());
        self.subs.insert(id, (root, subscription));
        self.refresh_gauges();
    }

    fn remove(&mut self, id: SubscriptionId) -> Option<Subscription> {
        let (root, sub) = self.subs.remove(&id)?;
        self.remove_subscriber(root, id);
        self.refresh_gauges();
        Some(sub)
    }

    fn get(&self, id: SubscriptionId) -> Option<&Subscription> {
        self.subs.get(&id).map(|(_, sub)| sub)
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
        self.subs.len()
    }

    fn stats(&self) -> &FilterStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = FilterStats::new();
        self.refresh_gauges();
    }

    fn report(&self) -> EngineReport {
        EngineReport {
            subscription_count: self.subs.len(),
            association_count: self.index.len(),
            tree_bytes: self.memory().slab_bytes,
            equality_constants: self.index.equality_constants(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnalyzeMode, CountingEngine, NaiveEngine, VecSink};
    use pubsub_core::{Expr, SubscriberId, SubscriptionTree};
    use std::collections::BTreeSet;

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
        let mut e = ATreeEngine::new();
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
    fn negation_only_subscriptions_are_always_matched_by_default() {
        let mut e = ATreeEngine::new();
        e.insert(sub(1, &Expr::not(Expr::eq("category", "books"))));
        assert_eq!(
            e.match_event(&book_event("music", 10, 0)),
            vec![SubscriptionId::from_raw(1)]
        );
        assert!(e.match_event(&book_event("books", 10, 0)).is_empty());
        // An event without the attribute still matches the negation — the
        // untouched default-true root is emitted without any evaluation.
        let bare = EventMessage::builder().attr("other", 1i64).build();
        assert_eq!(e.match_event(&bare), vec![SubscriptionId::from_raw(1)]);
    }

    #[test]
    fn identical_subscriptions_share_one_root() {
        let mut e = ATreeEngine::new();
        let expr = Expr::and(vec![
            Expr::eq("category", "books"),
            Expr::le("price", 20i64),
        ]);
        for id in 1..=10u64 {
            e.insert(sub(id, &expr));
        }
        // Two leaves + one And node, regardless of subscription count.
        let mem = e.memory();
        assert_eq!(mem.node_count, 3);
        assert_eq!(mem.edge_count, 2);
        assert_eq!(e.stats().dag_nodes, 3);
        // The root carries 10 subscriber references — shared.
        assert_eq!(e.stats().shared_subtrees, 1);
        let hits = e.match_event(&book_event("books", 5, 0));
        assert_eq!(hits.len(), 10);
        // One shared root evaluation instead of ten tree evaluations.
        assert_eq!(e.stats().trees_evaluated, 1);
        assert!(e.stats().node_evals_saved >= 9);
    }

    #[test]
    fn overlapping_subscriptions_share_subexpressions() {
        let mut e = ATreeEngine::new();
        let common = Expr::and(vec![
            Expr::eq("category", "books"),
            Expr::le("price", 20i64),
        ]);
        // Each subscription shares `common` but adds its own disjunct.
        for id in 1..=8u64 {
            e.insert(sub(
                id,
                &Expr::or(vec![common.clone(), Expr::ge("bids", id as i64 + 10)]),
            ));
        }
        assert!(e.stats().shared_subtrees > 0);
        // Far fewer live nodes than 8 independent trees (8 × 4 nodes).
        assert!(e.stats().dag_nodes < 24);
        let hits = e.match_event(&book_event("books", 5, 0));
        assert_eq!(hits.len(), 8);
        assert!(e.stats().node_evals_saved > 0);
    }

    #[test]
    fn insert_with_same_id_replaces_and_reindexes() {
        let mut e = ATreeEngine::new();
        e.insert(sub(
            1,
            &Expr::and(vec![
                Expr::eq("category", "books"),
                Expr::le("price", 20i64),
            ]),
        ));
        assert_eq!(e.report().association_count, 2);
        assert_eq!(e.memory().node_count, 3);
        e.insert(sub(1, &Expr::eq("category", "books")));
        assert_eq!(e.len(), 1);
        // The old And and the price leaf were released; only the shared
        // category leaf (now the root) survives.
        assert_eq!(e.report().association_count, 1);
        assert_eq!(e.memory().node_count, 1);
        assert_eq!(
            e.match_event(&book_event("books", 100, 0)),
            vec![SubscriptionId::from_raw(1)]
        );
    }

    #[test]
    fn churn_never_leaks_slab_entries() {
        let mut e = ATreeEngine::new();
        let exprs: Vec<Expr> = (0..20)
            .map(|i| {
                Expr::and(vec![
                    Expr::eq("category", if i % 2 == 0 { "books" } else { "music" }),
                    Expr::le("price", (i % 5) as i64),
                ])
            })
            .collect();
        for (i, expr) in exprs.iter().enumerate() {
            e.insert(sub(i as u64 + 1, expr));
        }
        let slab_len = e.nodes.len();
        for i in 0..20u64 {
            e.remove(SubscriptionId::from_raw(i + 1)).unwrap();
        }
        assert_eq!(e.memory().node_count, 0);
        assert_eq!(e.stats().dag_nodes, 0);
        assert_eq!(e.stats().shared_subtrees, 0);
        assert!(e.interned.is_empty());
        assert_eq!(e.index.len(), 0);
        // Re-inserting the same population reuses the freed slots.
        for (i, expr) in exprs.iter().enumerate() {
            e.insert(sub(i as u64 + 1, expr));
        }
        assert_eq!(e.nodes.len(), slab_len);
        // Five insert/remove cycles later the slab still has not grown.
        for _ in 0..5 {
            for i in 0..20u64 {
                e.remove(SubscriptionId::from_raw(i + 1)).unwrap();
            }
            for (i, expr) in exprs.iter().enumerate() {
                e.insert(sub(i as u64 + 1, expr));
            }
        }
        assert_eq!(e.nodes.len(), slab_len);
    }

    #[test]
    fn duplicate_predicates_within_one_subscription() {
        let mut e = ATreeEngine::new();
        // The same predicate appears in both OR branches — one shared leaf.
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
        // Three distinct leaves (category shared), two Ands, one Or.
        assert_eq!(e.report().association_count, 3);
        assert!(e.stats().shared_subtrees >= 1);
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
    fn matches_are_sorted_by_subscription_id() {
        let mut e = ATreeEngine::new();
        for id in (1..=20u64).rev() {
            e.insert(sub(id, &Expr::eq("category", "books")));
        }
        let hits = e.match_event(&book_event("books", 1, 0));
        let expected: Vec<SubscriptionId> = (1..=20).map(SubscriptionId::from_raw).collect();
        assert_eq!(hits, expected);
    }

    #[test]
    fn unsatisfiable_subscriptions_are_rejected() {
        let mut e = ATreeEngine::new();
        e.insert(sub(
            1,
            &Expr::and(vec![Expr::gt("x", 5i64), Expr::lt("x", 3i64)]),
        ));
        assert_eq!(e.len(), 0);
        assert_eq!(e.stats().unsatisfiable_rejected, 1);
        assert_eq!(e.memory().node_count, 0);
        let ev = EventMessage::builder().attr("x", 4i64).build();
        assert!(e.match_event(&ev).is_empty());
    }

    #[test]
    fn batch_path_agrees_with_single_event_path() {
        let mut batch_engine = ATreeEngine::new();
        let mut single_engine = ATreeEngine::new();
        for i in 0..50u64 {
            let expr = Expr::or(vec![
                Expr::and(vec![
                    Expr::eq("category", if i % 3 == 0 { "books" } else { "music" }),
                    Expr::le("price", (i % 20) as i64),
                ]),
                Expr::not(Expr::ge("bids", (i % 7) as i64)),
            ]);
            batch_engine.insert(sub(i + 1, &expr));
            single_engine.insert(sub(i + 1, &expr));
        }
        let events: Vec<EventMessage> = (0..30)
            .map(|i| book_event(if i % 2 == 0 { "books" } else { "music" }, i, i % 9))
            .collect();
        let batch: EventBatch = events.iter().cloned().collect();
        let mut sink = VecSink::new();
        batch_engine.match_batch(&batch, &mut sink);
        let mut from_batch: Vec<Vec<SubscriptionId>> = vec![Vec::new(); events.len()];
        for &(i, id) in sink.matches() {
            from_batch[i].push(id);
        }
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(from_batch[i], single_engine.match_event(ev), "event {i}");
        }
    }

    #[test]
    fn agrees_with_counting_and_naive_on_a_deterministic_workload() {
        let mut atree = ATreeEngine::new();
        let mut counting = CountingEngine::new();
        let mut naive = NaiveEngine::new();
        let categories = ["books", "music", "games"];
        let mut next_id = 0u64;
        for (i, cat) in categories.iter().enumerate() {
            for price in [5i64, 15, 25] {
                for expr in [
                    Expr::and(vec![Expr::eq("category", *cat), Expr::le("price", price)]),
                    Expr::or(vec![
                        Expr::eq("category", *cat),
                        Expr::gt("bids", (i as i64) * 2),
                    ]),
                    Expr::and(vec![
                        Expr::ne("category", *cat),
                        Expr::not(Expr::ge("price", price)),
                    ]),
                ] {
                    next_id += 1;
                    atree.insert(sub(next_id, &expr));
                    counting.insert(sub(next_id, &expr));
                    naive.insert(sub(next_id, &expr));
                }
            }
        }
        for cat in ["books", "music", "games", "tools"] {
            for price in 0..30i64 {
                let ev = book_event(cat, price, price % 7);
                let a = atree.match_event(&ev);
                let b = counting.match_event(&ev);
                let c = naive.match_event(&ev);
                assert_eq!(a, b, "atree vs counting for category={cat} price={price}");
                assert_eq!(a, c, "atree vs naive for category={cat} price={price}");
            }
        }
    }

    #[test]
    fn analyze_off_still_inserts_raw_trees_correctly() {
        let config = EngineConfig::default().analyze(AnalyzeMode::Off);
        let mut atree = ATreeEngine::with_config(config);
        let mut counting = CountingEngine::with_config(config);
        // Raw, non-normalized shapes: nested Ands, duplicate children,
        // double negation.
        let exprs = [
            Expr::and(vec![
                Expr::and(vec![Expr::eq("category", "books"), Expr::le("price", 9i64)]),
                Expr::eq("category", "books"),
            ]),
            Expr::not(Expr::not(Expr::ge("bids", 2i64))),
            Expr::or(vec![
                Expr::eq("category", "music"),
                Expr::eq("category", "music"),
            ]),
        ];
        for (i, expr) in exprs.iter().enumerate() {
            atree.insert(sub(i as u64 + 1, expr));
            counting.insert(sub(i as u64 + 1, expr));
        }
        for cat in ["books", "music", "tools"] {
            for price in 0..12i64 {
                let ev = book_event(cat, price, price % 4);
                assert_eq!(
                    atree.match_event(&ev),
                    counting.match_event(&ev),
                    "category={cat} price={price}"
                );
            }
        }
    }

    #[test]
    fn stats_accumulate_and_reset_preserving_gauges() {
        let mut e = ATreeEngine::new();
        let expr = Expr::eq("category", "books");
        e.insert(sub(1, &expr));
        e.insert(sub(2, &expr));
        e.match_event(&book_event("books", 1, 1));
        e.match_event(&book_event("music", 1, 1));
        assert_eq!(e.stats().events_filtered, 2);
        assert_eq!(e.stats().matches, 2);
        assert_eq!(e.stats().dag_nodes, 1);
        assert_eq!(e.stats().shared_subtrees, 1);
        e.reset_stats();
        assert_eq!(e.stats().events_filtered, 0);
        assert_eq!(e.stats().node_evals_saved, 0);
        // Gauges describe the registered population, not the traffic — they
        // survive a stats reset.
        assert_eq!(e.stats().dag_nodes, 1);
        assert_eq!(e.stats().shared_subtrees, 1);
    }

    #[test]
    fn report_and_memory_track_the_dag() {
        let mut e = ATreeEngine::new();
        for i in 0..10u64 {
            e.insert(sub(
                i + 1,
                &Expr::and(vec![
                    Expr::eq("category", "books"),
                    Expr::le("price", (i % 3) as i64),
                    Expr::ge("bids", 1i64),
                ]),
            ));
        }
        let r = e.report();
        assert_eq!(r.subscription_count, 10);
        // Distinct leaves: category, bids, and three price thresholds.
        assert_eq!(r.association_count, 5);
        assert!(r.tree_bytes > 0);
        let mem = e.memory();
        assert_eq!(mem.node_count as u64, e.stats().dag_nodes);
        assert!(mem.edge_count >= mem.node_count - e.report().association_count);
        assert_eq!(mem.slab_bytes, r.tree_bytes);
    }

    /// The access child the gating rule gives an `op` node over `children`,
    /// recomputed from the children's metas and predicates: for an And, its
    /// lowest default-false equality leaf, else its lowest default-false
    /// interior node, else its lowest default-false leaf.
    fn expected_access(e: &ATreeEngine, op: Op, children: &[u32]) -> Option<u32> {
        if op != Op::And {
            return None;
        }
        let default_false = || {
            children
                .iter()
                .copied()
                .filter(|&c| !e.meta[c as usize].default)
        };
        let eq_leaf = |&c: &u32| {
            e.nodes[c as usize]
                .as_ref()
                .and_then(|n| n.pred.as_ref())
                .is_some_and(|p| p.operator() == Operator::Eq)
        };
        let interior = |&c: &u32| e.meta[c as usize].op != Op::Leaf;
        default_false()
            .filter(eq_leaf)
            .min()
            .or_else(|| default_false().filter(interior).min())
            .or_else(|| default_false().min())
    }

    /// The node `e` holds for `expr`, with its fingerprint, found bottom-up
    /// by fingerprint, operator and predicate alone, never through the
    /// arenas. Records each node's child ids, sorted, in `children`, and
    /// checks that a node reached twice is given the same list both times.
    fn rebuild_node(e: &ATreeEngine, expr: &Expr, children: &mut [Option<Vec<u32>>]) -> (u32, u64) {
        let mut below = |kids: &[Expr]| -> (Vec<u32>, Vec<u64>) {
            kids.iter().map(|c| rebuild_node(e, c, children)).unzip()
        };
        let (op, pred, mut kids, fp) = match expr {
            Expr::Pred(p) => (Op::Leaf, Some(p), Vec::new(), predicate_fingerprint(p)),
            Expr::And(cs) => {
                let (kids, fps) = below(cs);
                (Op::And, None, kids, and_fingerprint(&fps))
            }
            Expr::Or(cs) => {
                let (kids, fps) = below(cs);
                (Op::Or, None, kids, or_fingerprint(&fps))
            }
            Expr::Not(c) => {
                let (kids, fps) = below(std::slice::from_ref(c));
                (Op::Not, None, kids, not_fingerprint(fps[0]))
            }
        };
        kids.sort_unstable();
        let found: Vec<u32> = e
            .interned
            .get(&fp)
            .into_iter()
            .flatten()
            .copied()
            .filter(|&c| {
                e.meta[c as usize].op == op
                    && e.nodes[c as usize]
                        .as_ref()
                        .is_some_and(|node| node.fp == fp && node.pred.as_ref() == pred)
            })
            .collect();
        assert_eq!(found.len(), 1, "{expr:?} is not interned exactly once");
        let n = found[0];
        if let Some(seen) = &children[n as usize] {
            assert_eq!(seen, &kids, "node {n} rebuilt twice differently");
        }
        children[n as usize] = Some(kids);
        (n, fp)
    }

    /// Checks the layout of `arena`: one span per slab slot; every live
    /// list's span inside `data`, its length within its room, overlapping no
    /// other live span; a garbage count equal to the data no live span
    /// covers and within the compaction bound; and the default span on every
    /// freed slot.
    fn assert_arena_sound<T: Copy>(arena: &Arena<T>, nodes: &[Option<DagNode>], name: &str) {
        assert_eq!(arena.spans.len(), nodes.len(), "{name}: one span per slot");
        let mut live: Vec<Span> = Vec::new();
        for (i, (&span, node)) in arena.spans.iter().zip(nodes).enumerate() {
            if node.is_none() {
                assert_eq!(span, Span::default(), "{name}: freed slot {i}");
                continue;
            }
            assert!(
                span.len <= span.cap && span.start + span.cap as usize <= arena.data.len(),
                "{name}: node {i} has {span:?} over {} elements",
                arena.data.len()
            );
            if span.cap > 0 {
                live.push(span);
            }
        }
        live.sort_unstable_by_key(|s| s.start);
        for w in live.windows(2) {
            assert!(
                w[0].start + w[0].cap as usize <= w[1].start,
                "{name}: {:?} overlaps {:?}",
                w[0],
                w[1]
            );
        }
        let covered: usize = live.iter().map(|s| s.cap as usize).sum();
        assert_eq!(arena.garbage, arena.data.len() - covered, "{name}: garbage");
        assert!(
            arena.garbage <= arena.data.len() / GARBAGE_DIVISOR,
            "{name}: {} garbage of {}",
            arena.garbage,
            arena.data.len()
        );
    }

    /// Compactions run so far by the three arenas together.
    fn compactions(e: &ATreeEngine) -> u64 {
        e.children.compactions + e.parents.compactions + e.subscribers.compactions
    }

    /// Checks the incrementally kept structure against one recomputed from
    /// scratch: every live node's children (from the registered trees),
    /// subscribers (from the id map) and parent edges (the ones the gating
    /// rule gives over those children: a gated And's one edge on its access
    /// child, an edge per child occurrence otherwise), read through the
    /// arenas; every live node's meta from its children and subscribers; the
    /// default-true list and the gauges; each arena's layout; and that every
    /// freed slot is inert (default meta, off every list, never interned).
    fn assert_meta_equals_rebuild(e: &ATreeEngine) {
        let slots = e.nodes.len();
        let mut children: Vec<Option<Vec<u32>>> = vec![None; slots];
        let mut subscribers: Vec<Vec<(SubscriptionId, SubscriberId)>> = vec![Vec::new(); slots];
        for (&id, (root, sub)) in &e.subs {
            let (n, _) = rebuild_node(e, &sub.tree().to_expr(), &mut children);
            assert_eq!(n, *root, "root of {id:?}");
            subscribers[n as usize].push((id, sub.subscriber()));
        }
        for list in &mut subscribers {
            list.sort_unstable_by_key(|&(id, _)| id);
        }
        let mut child_refs = vec![0u32; slots];
        let mut expected_parents: Vec<Vec<u32>> = vec![Vec::new(); slots];
        for (i, kids) in children.iter().enumerate() {
            let Some(kids) = kids else { continue };
            for &c in kids {
                child_refs[c as usize] += 1;
            }
            match expected_access(e, e.meta[i].op, kids) {
                Some(a) => expected_parents[a as usize].push(i as u32),
                None => {
                    for &c in kids {
                        expected_parents[c as usize].push(i as u32);
                    }
                }
            }
        }
        let mut shared = 0;
        let mut default_true: Vec<u32> = Vec::new();
        for (i, slot) in e.nodes.iter().enumerate() {
            let n = i as u32;
            let m = e.meta[i];
            let Some(node) = slot else {
                assert_eq!(m, NodeMeta::default(), "freed slot {i} keeps meta");
                assert_eq!(e.default_true_pos[i], NOT_IN_LIST, "freed slot {i} listed");
                assert!(e.free_nodes.contains(&n), "freed slot {i} not recyclable");
                assert!(
                    e.interned.values().all(|bucket| !bucket.contains(&n)),
                    "freed slot {i} still interned"
                );
                continue;
            };
            let Some(kids) = &children[i] else {
                panic!("live node {i} is in no registered tree");
            };
            assert_eq!(e.children.get(n), &kids[..], "children of node {i}");
            assert_eq!(
                e.subscribers.get(n),
                &subscribers[i][..],
                "subscribers of node {i}"
            );
            let mut parents = e.parents.get(n).to_vec();
            parents.sort_unstable();
            assert_eq!(parents, expected_parents[i], "parent edges of node {i}");
            let kid_metas: Vec<NodeMeta> = kids.iter().map(|&c| e.meta[c as usize]).collect();
            let defaults = kid_metas.iter().map(|k| k.default);
            let (op, default) = match (&node.pred, m.op) {
                (Some(_), _) => (Op::Leaf, false),
                (None, Op::And) => (Op::And, defaults.clone().all(|d| d)),
                (None, Op::Or) => (Op::Or, defaults.clone().any(|d| d)),
                (None, Op::Not) => (Op::Not, !kid_metas[0].default),
                (None, Op::Leaf) => panic!("node {i} is a leaf without a predicate"),
            };
            let rebuilt = NodeMeta {
                op,
                default,
                has_subscribers: !subscribers[i].is_empty(),
                arity: kids.len() as u32,
                base: defaults.filter(|&d| d).count() as u32,
                level: kid_metas
                    .iter()
                    .map(|k| k.level + 1)
                    .max()
                    .unwrap_or(u32::from(op != Op::Leaf)),
                refs: child_refs[i] + subscribers[i].len() as u32,
                gated: expected_access(e, op, kids).is_some(),
            };
            assert_eq!(m, rebuilt, "node {i} meta");
            assert!(m.refs > 0, "live node {i} without references");
            shared += u64::from(m.refs > 1);
            if m.has_subscribers && m.default {
                default_true.push(n);
            }
        }
        let mut listed = e.default_true_roots.clone();
        listed.sort_unstable();
        assert_eq!(listed, default_true, "default-true roots");
        assert_eq!(e.live_nodes as usize, e.nodes.iter().flatten().count());
        assert_eq!(e.shared_count, shared);
        assert_arena_sound(&e.children, &e.nodes, "children");
        assert_arena_sound(&e.parents, &e.nodes, "parents");
        assert_arena_sound(&e.subscribers, &e.nodes, "subscribers");
    }

    /// A random tree over a few attributes, drawn from a small pool of
    /// leaves and nested at most `depth` deep, so trees share subexpressions
    /// and repeat children (`And(p, p)`) often.
    fn random_expr(rng: &mut proptest::TestRng, depth: usize) -> Expr {
        if depth == 0 || rng.index(3) == 0 {
            let v = rng.index(3) as i64;
            return match rng.index(3) {
                0 => Expr::eq("a", v),
                1 => Expr::le("b", v),
                _ => Expr::ne("c", v),
            };
        }
        let kids = |rng: &mut proptest::TestRng| {
            (0..1 + rng.index(3))
                .map(|_| random_expr(rng, depth - 1))
                .collect::<Vec<_>>()
        };
        match rng.index(3) {
            0 => Expr::and(kids(rng)),
            1 => Expr::or(kids(rng)),
            _ => Expr::not(random_expr(rng, depth - 1)),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// The structure kept incrementally through random insert / replace
        /// / remove sequences equals a rebuild after every step, with
        /// analysis on and off (off keeps duplicate children), and the
        /// counter sweep it drives agrees with the naive engine. The churn
        /// compacts the child and subscriber arenas along the way.
        #[test]
        fn incremental_meta_equals_a_rebuild(seed in 0u64..1024) {
            let mut rng = proptest::TestRng::deterministic(seed);
            for analyze in [AnalyzeMode::Off, AnalyzeMode::On] {
                let config = EngineConfig::default().analyze(analyze);
                let mut e = ATreeEngine::with_config(config);
                let mut naive = NaiveEngine::with_config(config);
                for step in 0..150 {
                    let id = SubscriptionId::from_raw(rng.index(24) as u64);
                    if rng.index(4) == 0 {
                        e.remove(id);
                        naive.remove(id);
                    } else {
                        let subscriber = SubscriberId::from_raw(rng.index(6) as u64);
                        let s = Subscription::from_expr(id, subscriber, &random_expr(&mut rng, 3));
                        e.insert(s.clone());
                        naive.insert(s);
                    }
                    assert_meta_equals_rebuild(&e);
                    let event = EventMessage::builder()
                        .attr("a", rng.index(3) as i64)
                        .attr("b", rng.index(4) as i64)
                        .attr("c", rng.index(3) as i64)
                        .build();
                    proptest::prop_assert_eq!(
                        e.match_event(&event),
                        naive.match_event(&event),
                        "{:?} seed {} step {}", analyze, seed, step
                    );
                }
                proptest::prop_assert!(
                    e.children.compactions > 0 && e.subscribers.compactions > 0,
                    "{:?} seed {} never compacted", analyze, seed
                );
            }
        }
    }

    /// Whether two trees share one node array.
    fn same_body(a: &SubscriptionTree, b: &SubscriptionTree) -> bool {
        std::ptr::eq(a.nodes(), b.nodes())
    }

    /// Shapes for the shared-body churn: repeats, commutative twins that
    /// intern to one root (`a ∧ b` / `b ∧ a`, at the top and nested), and
    /// trees the analyzer rewrites into another shape of the pool.
    fn body_shapes() -> Vec<Expr> {
        let (a, b, c) = (
            Expr::eq("a", 1i64),
            Expr::le("b", 2i64),
            Expr::ne("c", 0i64),
        );
        let and = |x: &Expr, y: &Expr| Expr::and(vec![x.clone(), y.clone()]);
        let or = |x: &Expr, y: &Expr| Expr::or(vec![x.clone(), y.clone()]);
        vec![
            a.clone(),
            and(&a, &b),
            and(&b, &a),
            and(&or(&a, &c), &b),
            and(&or(&c, &a), &b),
            and(&b, &or(&a, &c)),
            Expr::not(and(&a, &b)),
            Expr::not(and(&b, &a)),
            and(&a, &a),
            and(&b, &Expr::le("b", 5i64)),
            b.clone(),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// Root-mates share bodies exactly when their trees are equal.
        /// Through random insert / replace / remove over a pool of shapes
        /// with repeats and commutative twins, with analysis on and off,
        /// after every step: `get` returns what the naive engine holds;
        /// equal trees under one root share one body and unequal trees
        /// never do; the subscriptions the step did not touch keep their
        /// bodies; and the DAG still equals a rebuild.
        #[test]
        fn shared_bodies_equal_rebuilt(seed in 0u64..1024) {
            let shapes = body_shapes();
            let mut rng = proptest::TestRng::deterministic(seed);
            for analyze in [AnalyzeMode::Off, AnalyzeMode::On] {
                let config = EngineConfig::default().analyze(analyze);
                let mut e = ATreeEngine::with_config(config);
                let mut naive = NaiveEngine::with_config(config);
                // Pairs of distinct root-mates seen sharing and not sharing.
                let (mut shared_mates, mut unequal_mates) = (0, 0);
                for step in 0..120 {
                    let before: Vec<Subscription> = e.subscriptions().cloned().collect();
                    let id = SubscriptionId::from_raw(rng.index(16) as u64);
                    if rng.index(4) == 0 {
                        e.remove(id);
                        naive.remove(id);
                    } else {
                        let subscriber = SubscriberId::from_raw(rng.index(4) as u64);
                        let shape = &shapes[rng.index(shapes.len())];
                        let s = Subscription::from_expr(id, subscriber, shape);
                        e.insert(s.clone());
                        naive.insert(s);
                    }
                    let ctx = format!("{analyze:?} seed {seed} step {step}");
                    for raw in 0..16 {
                        let id = SubscriptionId::from_raw(raw);
                        proptest::prop_assert_eq!(e.get(id), naive.get(id), "{}", ctx);
                    }
                    for old in before.iter().filter(|s| s.id() != id) {
                        let now = e.get(old.id()).map(Subscription::tree);
                        proptest::prop_assert!(
                            now.is_some_and(|t| same_body(t, old.tree())),
                            "{} lost the body of {:?}", ctx, old.id()
                        );
                    }
                    let live: Vec<(u32, &Subscription)> =
                        e.subs.values().map(|(root, sub)| (*root, sub)).collect();
                    for &(root_x, x) in &live {
                        for &(root_y, y) in &live {
                            let shared = same_body(x.tree(), y.tree());
                            let equal = naive.get(x.id()).map(Subscription::tree)
                                == naive.get(y.id()).map(Subscription::tree);
                            if root_x == root_y {
                                proptest::prop_assert_eq!(shared, equal, "{} {:?} {:?}", ctx, x.id(), y.id());
                                shared_mates += usize::from(shared && x.id() != y.id());
                                unequal_mates += usize::from(!equal);
                            } else {
                                proptest::prop_assert!(!shared || equal, "{}", ctx);
                            }
                        }
                    }
                    assert_meta_equals_rebuild(&e);
                }
                proptest::prop_assert!(
                    shared_mates > 0 && unequal_mates > 0,
                    "{:?} seed {}: {} shared, {} unequal root-mate pairs",
                    analyze, seed, shared_mates, unequal_mates
                );
            }
        }
    }

    fn node_of(e: &ATreeEngine, id: u64) -> u32 {
        e.subs[&SubscriptionId::from_raw(id)].0
    }

    fn parents_of(e: &ATreeEngine, n: u32) -> &[u32] {
        e.parents.get(n)
    }

    #[test]
    fn and_of_negations_stays_ungated() {
        let mut e = ATreeEngine::new();
        e.insert(sub(
            1,
            &Expr::and(vec![
                Expr::not(Expr::eq("category", "books")),
                Expr::not(Expr::le("price", 5i64)),
            ]),
        ));
        let root = node_of(&e, 1);
        assert!(!e.meta[root as usize].gated);
        let kids = e.children.get(root).to_vec();
        for c in kids {
            assert_eq!(parents_of(&e, c), &[root][..], "edge {root} -> {c}");
        }
        assert_meta_equals_rebuild(&e);
        let hits =
            |e: &mut ATreeEngine, cat, price| !e.match_event(&book_event(cat, price, 0)).is_empty();
        assert!(hits(&mut e, "music", 10));
        assert!(!hits(&mut e, "books", 10));
        assert!(!hits(&mut e, "music", 1));
    }

    #[test]
    fn duplicated_access_child_gets_one_edge() {
        // Analysis off keeps the duplicate: `And(a, a, b)` has arity 3.
        let mut e = ATreeEngine::with_config(EngineConfig::default().analyze(AnalyzeMode::Off));
        let a = Expr::eq("category", "books");
        e.insert(sub(
            1,
            &Expr::and(vec![a.clone(), a, Expr::le("price", 20i64)]),
        ));
        let root = node_of(&e, 1);
        assert!(e.meta[root as usize].gated);
        let kids = e.children.get(root).to_vec();
        let is_eq = |&c: &u32| {
            e.nodes[c as usize]
                .as_ref()
                .and_then(|n| n.pred.as_ref())
                .is_some_and(|p| p.operator() == Operator::Eq)
        };
        let access = kids.iter().copied().find(is_eq).unwrap();
        let other = kids.iter().copied().find(|c| !is_eq(c)).unwrap();
        assert_eq!(kids.iter().filter(|&&c| c == access).count(), 2);
        assert_eq!(parents_of(&e, access), &[root][..]);
        assert!(parents_of(&e, other).is_empty());
        // Both occurrences still hold a reference.
        assert_eq!(e.meta[access as usize].refs, 2);
        assert_meta_equals_rebuild(&e);
        assert_eq!(e.match_event(&book_event("books", 10, 0)).len(), 1);
        assert!(e.match_event(&book_event("music", 10, 0)).is_empty());
        assert!(e.match_event(&book_event("books", 30, 0)).is_empty());
        e.remove(SubscriptionId::from_raw(1));
        assert_eq!(e.memory().node_count, 0);
        assert_eq!(e.parents.live_len(), 0);
    }

    #[test]
    fn gated_and_under_not_and_or_when_only_a_non_access_child_fires() {
        let gated = Expr::and(vec![
            Expr::eq("category", "books"),
            Expr::le("price", 20i64),
        ]);
        let exprs = [
            Expr::not(gated.clone()),
            Expr::or(vec![gated.clone(), Expr::ge("bids", 5i64)]),
            Expr::and(vec![Expr::not(gated.clone()), Expr::ge("bids", 1i64)]),
            gated,
        ];
        for analyze in [AnalyzeMode::Off, AnalyzeMode::On] {
            let config = EngineConfig::default().analyze(analyze);
            let mut e = ATreeEngine::with_config(config);
            let mut naive = NaiveEngine::with_config(config);
            for (i, expr) in exprs.iter().enumerate() {
                e.insert(sub(i as u64 + 1, expr));
                naive.insert(sub(i as u64 + 1, expr));
            }
            let root = node_of(&e, 4);
            assert!(e.meta[root as usize].gated, "{analyze:?}");
            assert_meta_equals_rebuild(&e);
            // `price <= 20` fires without `category = books`, with and
            // without the Or's other child, and then both fire.
            for (cat, price, bids) in [
                ("music", 10, 0),
                ("music", 10, 7),
                ("music", 30, 7),
                ("books", 10, 0),
                ("books", 30, 2),
                ("books", 10, 7),
            ] {
                let ev = book_event(cat, price, bids);
                assert_eq!(
                    e.match_event(&ev),
                    naive.match_event(&ev),
                    "{analyze:?} {cat} {price} {bids}"
                );
            }
        }
    }

    #[test]
    fn replacing_or_removing_a_gated_and_leaves_no_edge_on_its_access_child() {
        let gated = Expr::and(vec![
            Expr::eq("category", "books"),
            Expr::le("price", 20i64),
        ]);
        let mut e = ATreeEngine::new();
        // Subscription 2 keeps the access leaf alive on its own.
        e.insert(sub(1, &gated));
        e.insert(sub(2, &Expr::eq("category", "books")));
        let leaf = node_of(&e, 2);
        assert_eq!(parents_of(&e, leaf), &[node_of(&e, 1)][..]);
        e.insert(sub(1, &Expr::ge("bids", 3i64)));
        assert!(parents_of(&e, leaf).is_empty(), "replace left an edge");
        assert_meta_equals_rebuild(&e);
        e.insert(sub(1, &gated));
        assert_eq!(parents_of(&e, leaf).len(), 1);
        e.remove(SubscriptionId::from_raw(1));
        assert!(parents_of(&e, leaf).is_empty(), "remove left an edge");
        assert_meta_equals_rebuild(&e);
        assert_eq!(
            e.match_event(&book_event("books", 10, 0)),
            vec![SubscriptionId::from_raw(2)]
        );
    }

    #[test]
    fn radix_sort_orders_like_the_comparison_sort() {
        let mut rng = proptest::TestRng::deterministic(7);
        let (mut buf, mut spare) = (Vec::new(), Vec::new());
        for len in [0, 1, RADIX_CUTOFF - 1, RADIX_CUTOFF, 300, 3000] {
            // Ids that differ in the low bytes only, in scattered bytes, and
            // in the top byte alone.
            for mask in [0xffff, 0x00ff_00ff_0000_ff00, 0xff00_0000_0000_0000u64] {
                let mut ids = BTreeSet::new();
                while ids.len() < len.min(1 << mask.count_ones().min(16)) {
                    ids.insert(0x1234_0000 | (rng.next_u64() & mask));
                }
                buf.clear();
                buf.extend(
                    ids.iter()
                        .rev()
                        .map(|&id| (SubscriptionId::from_raw(id), SubscriberId::from_raw(id % 7))),
                );
                let mut want = buf.clone();
                want.sort_unstable_by_key(|&(id, _)| id);
                sort_by_id(&mut buf, &mut spare);
                assert_eq!(buf, want, "len {len} mask {mask:#x}");
            }
        }
    }

    #[test]
    fn steady_state_matching_reuses_scratch() {
        let mut e = ATreeEngine::new();
        for i in 0..400u64 {
            e.insert(sub(
                i,
                &Expr::and(vec![
                    Expr::eq("category", if i % 2 == 0 { "books" } else { "music" }),
                    Expr::le("price", (i % 30) as i64),
                ]),
            ));
        }
        let events: Vec<EventMessage> = (0..40)
            .map(|i| book_event(if i % 2 == 0 { "books" } else { "music" }, i, i % 7))
            .collect();
        let mut most = 0;
        for ev in &events {
            most = most.max(e.match_event(ev).len());
        }
        assert!(most >= RADIX_CUTOFF, "no event took the radix sort");
        let grows = e.scratch_grows();
        let capacity = e.scratch_capacity();
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
        // Churn that leaves the population as it was compacts the arenas;
        // matching afterwards still grows nothing.
        let before = compactions(&e);
        let all: Vec<Subscription> = (0..400u64)
            .map(|i| e.remove(SubscriptionId::from_raw(i)).unwrap())
            .collect();
        for s in all {
            e.insert(s);
        }
        assert!(compactions(&e) > before, "the churn never compacted");
        for ev in &events {
            e.match_event(ev);
        }
        assert_eq!(e.scratch_grows(), grows, "scratch grew after compaction");
        assert_eq!(e.scratch_capacity(), capacity);
    }

    /// Collects every match of a batch with its subscriber.
    #[derive(Default)]
    struct TripleSink(Vec<(usize, SubscriptionId, SubscriberId)>);

    impl MatchSink for TripleSink {
        fn on_match(&mut self, event: usize, id: SubscriptionId, subscriber: SubscriberId) {
            self.0.push((event, id, subscriber));
        }
    }

    #[test]
    fn compaction_is_invisible_to_matching() {
        let mut e = ATreeEngine::new();
        let mut naive = NaiveEngine::new();
        let kept = |i: u64| {
            Expr::or(vec![
                Expr::and(vec![
                    Expr::eq("category", if i % 3 == 0 { "books" } else { "music" }),
                    Expr::le("price", (i % 20) as i64),
                ]),
                Expr::not(Expr::ge("bids", (i % 7) as i64)),
            ])
        };
        for i in 0..60u64 {
            e.insert(sub(i, &kept(i)));
            naive.insert(sub(i, &kept(i)));
        }
        let batch: EventBatch = (0..24)
            .map(|i| book_event(if i % 2 == 0 { "books" } else { "music" }, i, i % 9))
            .collect();
        let run = |engine: &mut dyn MatchingEngine| {
            let mut sink = TripleSink::default();
            engine.match_batch(&batch, &mut sink);
            sink.0
        };
        let before = run(&mut e);
        assert!(!before.is_empty());
        assert_eq!(before, run(&mut naive));
        // Short-lived subscriptions with shapes of their own come and go
        // until an arena compacts.
        let start = compactions(&e);
        let mut next = 1_000u64;
        while compactions(&e) == start {
            for k in 0..8 {
                let id = next + k;
                e.insert(sub(
                    id,
                    &Expr::and(vec![
                        Expr::eq("category", format!("c{id}")),
                        Expr::ge("bids", id as i64),
                    ]),
                ));
            }
            for k in 0..8 {
                e.remove(SubscriptionId::from_raw(next + k)).unwrap();
            }
            next += 8;
            assert!(next < 100_000, "no compaction");
        }
        assert_meta_equals_rebuild(&e);
        assert_eq!(run(&mut e), before);
    }
}
