//! Per-attribute predicate indexes.
//!
//! The counting matcher registers every predicate leaf of every subscription
//! in an [`AttributeIndex`]. For an incoming event the index reports, per
//! attribute–value pair carried by the event, which registered predicates are
//! fulfilled — without touching subscriptions whose predicates cannot match.
//!
//! The index is keyed by dense [`AttrId`]s: the top level is a plain `Vec`
//! indexed by the interned attribute id, so probing an event attribute is an
//! array access instead of a string hash. Predicate owners are identified by
//! dense [`SubSlot`]s handed out by the engine's subscription slab, which is
//! what lets the match loop count fulfilled predicates in flat arrays.
//!
//! Three sub-indexes are kept per attribute, in the spirit of the
//! one-dimensional index structures of Fabret et al. (SIGMOD 2001):
//!
//! * an **equality index** (hash map from constant to predicate keys) for
//!   `=` predicates;
//! * an **interval index** (flat sorted threshold arrays) for `<`, `≤`, `>`,
//!   `≥` predicates on numeric constants;
//! * a **scan list** for everything else (string pattern operators, `≠`,
//!   ordering on strings), which is evaluated predicate-by-predicate but only
//!   for events that actually carry the attribute.
//!
//! ## Interval micro-layout
//!
//! The interval side keeps, per attribute and per predicate class
//! (`<`/`≤`/`>`/`≥`), one **flat array of `(threshold, key)` entries sorted
//! by threshold**. Probing an event value is a single binary search followed
//! by a contiguous suffix (upper bounds) or prefix (lower bounds) emission:
//! every fulfilled predicate of the class sits in one cache-linear slice, so
//! the count of fulfilled entries is available by aggregation
//! (`len - index` / `index`) before a single key is touched.
//!
//! Mutations never re-sort eagerly: `insert`/`remove` append to (or
//! `swap_remove` from) the unsorted source arrays and mark the attribute
//! dirty, and the sorted mirror is rebuilt lazily at the start of the next
//! mutation epoch — [`AttributeIndex::ensure_built`], which the engines call
//! once per batch. Probing a dirty attribute through the shared-reference
//! path stays correct by scanning the (unsorted) source entries directly.

use pubsub_core::{AttrId, EventMessage, NodeId, Operator, Predicate, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Dense slot of a registered subscription inside the matching engine's slab.
///
/// Slots are engine-local: the engine maps each [`SubscriptionId`]
/// (`pubsub_core::SubscriptionId`) to a small dense integer at registration
/// time so that per-event state (fulfilled-predicate counters, generation
/// stamps) lives in flat arrays indexed by slot instead of hash maps keyed by
/// id. Slots are reused after removal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubSlot(pub u32);

impl SubSlot {
    /// Returns this slot as an index into dense per-subscription tables.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SubSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot-{}", self.0)
    }
}

/// Identifies one registered predicate leaf: the dense slot of the owning
/// subscription and the leaf's node id inside that subscription's tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredicateKey {
    /// The owning subscription's dense slot.
    pub slot: SubSlot,
    /// The predicate leaf inside the subscription's tree.
    pub node: NodeId,
}

impl PredicateKey {
    /// Creates a new predicate key.
    pub fn new(slot: SubSlot, node: NodeId) -> Self {
        Self { slot, node }
    }
}

/// Key for the equality hash index.
///
/// Crate-visible because the stage-0 pre-filter and the batch probe plan
/// must intern event values with **exactly** these semantics (including the
/// `Int -> Float` widening) to stay byte-identical with the per-event probe.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum EqKey {
    Bool(bool),
    /// Numeric constants are normalized to their bit pattern after an
    /// `Int -> Float` widening so that `= 3` and `= 3.0` share a bucket.
    Num(u64),
    /// Strings share the value's `Arc` — registration never copies the text.
    Str(Arc<str>),
}

impl EqKey {
    pub(crate) fn from_value(v: &Value) -> Option<EqKey> {
        match v {
            Value::Bool(b) => Some(EqKey::Bool(*b)),
            Value::Int(i) => Some(EqKey::Num((*i as f64).to_bits())),
            Value::Float(f) if !f.is_nan() => Some(EqKey::Num(f.to_bits())),
            Value::Float(_) => None,
            Value::Str(s) => Some(EqKey::Str(Arc::clone(s))),
        }
    }
}

/// One interval predicate class of one attribute (all `< t` predicates, all
/// `≤ t` predicates, …): an unsorted mutation-side array plus a flat sorted
/// mirror rebuilt lazily.
#[derive(Debug, Default)]
pub(crate) struct IntervalClass {
    /// Source of truth, in mutation order. `insert` pushes, `remove`
    /// swap-removes; neither touches the sorted mirror.
    entries: Vec<(f64, PredicateKey)>,
    /// Thresholds of `entries` sorted ascending, rebuilt by
    /// [`IntervalClass::rebuild`]. Parallel to `sorted_keys`.
    sorted_thresholds: Vec<f64>,
    /// Keys of `entries` in threshold order, parallel to
    /// `sorted_thresholds`. A probe emits one contiguous slice of this.
    sorted_keys: Vec<PredicateKey>,
}

impl IntervalClass {
    fn insert(&mut self, threshold: f64, key: PredicateKey) {
        self.entries.push((threshold, key));
    }

    fn remove(&mut self, key: PredicateKey) -> bool {
        match self.entries.iter().position(|(_, k)| *k == key) {
            Some(pos) => {
                self.entries.swap_remove(pos);
                true
            }
            None => false,
        }
    }

    /// Rebuilds the sorted mirror from the source entries. Called once per
    /// mutation epoch, not per mutation.
    fn rebuild(&mut self) {
        self.sorted_thresholds.clear();
        self.sorted_keys.clear();
        self.sorted_thresholds
            .extend(self.entries.iter().map(|&(t, _)| t));
        self.sorted_keys
            .extend(self.entries.iter().map(|&(_, k)| k));
        // Thresholds are NaN-free (rejected at registration), so a plain
        // total-order sort over the index permutation is safe. The relative
        // order of equal thresholds is unspecified (unstable sort) — nothing
        // may depend on it; determinism comes from the engine's id-sort of
        // each event's matches, not from emission order.
        let mut order: Vec<u32> = (0..self.entries.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            self.entries[a as usize]
                .0
                .partial_cmp(&self.entries[b as usize].0)
                .expect("NaN thresholds are rejected at registration")
        });
        for (slot, &src) in order.iter().enumerate() {
            self.sorted_thresholds[slot] = self.entries[src as usize].0;
            self.sorted_keys[slot] = self.entries[src as usize].1;
        }
    }

    /// Emits the keys of the suffix whose thresholds satisfy `pred` being
    /// false — i.e. the first index where `pred(threshold)` turns false,
    /// found by binary search, starts the fulfilled suffix.
    #[inline]
    fn emit_suffix(&self, first_false: usize, on_fulfilled: &mut impl FnMut(PredicateKey)) {
        for &k in &self.sorted_keys[first_false..] {
            on_fulfilled(k);
        }
    }

    #[inline]
    fn emit_prefix(&self, end: usize, on_fulfilled: &mut impl FnMut(PredicateKey)) {
        for &k in &self.sorted_keys[..end] {
            on_fulfilled(k);
        }
    }

    /// Index of the first sorted threshold for which `pred` is false.
    #[inline]
    pub(crate) fn partition(&self, pred: impl Fn(f64) -> bool) -> usize {
        self.sorted_thresholds.partition_point(|&t| pred(t))
    }

    /// The keys in threshold order. Only meaningful after
    /// [`AttributeIndex::ensure_built`]; the batch probe plan slices this
    /// directly to emit a whole run of events against one partition point.
    #[inline]
    pub(crate) fn sorted_keys(&self) -> &[PredicateKey] {
        &self.sorted_keys
    }
}

/// The per-attribute sub-indexes.
///
/// Crate-visible so the batch probe plan ([`crate::probe`]) can walk one
/// attribute's sub-indexes for a whole batch at a time instead of going
/// through the per-event [`AttributeIndex::fulfilled_pairs`] entry point.
#[derive(Debug, Default)]
pub(crate) struct AttributeBuckets {
    /// `attribute = constant` predicates, keyed by the constant.
    pub(crate) equality: HashMap<EqKey, Vec<PredicateKey>>,
    /// `attribute < t` predicates: fulfilled by event values strictly below
    /// the threshold (suffix of the sorted thresholds).
    pub(crate) lt: IntervalClass,
    /// `attribute <= t` predicates (suffix).
    pub(crate) le: IntervalClass,
    /// `attribute > t` predicates: fulfilled by event values strictly above
    /// the threshold (prefix of the sorted thresholds).
    pub(crate) gt: IntervalClass,
    /// `attribute >= t` predicates (prefix).
    pub(crate) ge: IntervalClass,
    /// Everything else, checked by direct evaluation against the event value.
    pub(crate) scan: Vec<(Predicate, PredicateKey)>,
    /// Set when an interval class mutated since the last rebuild; probes on a
    /// dirty attribute fall back to scanning the source entries.
    interval_dirty: bool,
}

/// The top-level predicate index: dense `AttrId` → per-attribute buckets.
#[derive(Debug, Default)]
pub struct AttributeIndex {
    /// Indexed by `AttrId::index()`. `None` for interned attributes that
    /// carry no predicates (e.g. attributes only events use).
    attributes: Vec<Option<Box<AttributeBuckets>>>,
    /// Number of `Some` entries in `attributes`.
    attributes_in_use: usize,
    registered: usize,
    /// Number of attributes whose interval mirror is stale. Makes
    /// [`ensure_built`](Self::ensure_built) O(1) in the steady state.
    dirty_attributes: usize,
}

impl AttributeIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered predicates (predicate/subscription associations).
    pub fn len(&self) -> usize {
        self.registered
    }

    /// Returns `true` if no predicates are registered.
    pub fn is_empty(&self) -> bool {
        self.registered == 0
    }

    /// Number of distinct attributes that have carried at least one predicate.
    pub fn attribute_count(&self) -> usize {
        self.attributes_in_use
    }

    fn buckets_mut(&mut self, id: AttrId) -> &mut AttributeBuckets {
        let idx = id.index();
        if idx >= self.attributes.len() {
            self.attributes.resize_with(idx + 1, || None);
        }
        let entry = &mut self.attributes[idx];
        if entry.is_none() {
            *entry = Some(Box::default());
            self.attributes_in_use += 1;
        }
        entry.as_mut().expect("just populated")
    }

    pub(crate) fn buckets(&self, id: AttrId) -> Option<&AttributeBuckets> {
        self.attributes.get(id.index())?.as_deref()
    }

    /// Number of distinct equality constants registered for the attribute.
    ///
    /// Used by the stage-0 pre-filter as a local discrimination proxy when no
    /// sampled [`DiscriminationHint`](selectivity::DiscriminationHint) covers
    /// the attribute: more distinct constants means a random event key kills
    /// a larger fraction of candidates.
    pub(crate) fn equality_cardinality(&self, id: AttrId) -> usize {
        self.buckets(id).map_or(0, |b| b.equality.len())
    }

    /// Number of distinct `attribute = constant` pairs with a bucket in the
    /// equality index, over all attributes.
    pub fn equality_constants(&self) -> usize {
        self.attributes
            .iter()
            .flatten()
            .map(|buckets| buckets.equality.len())
            .sum()
    }

    /// Registers a predicate under the given key.
    pub fn insert(&mut self, predicate: &Predicate, key: PredicateKey) {
        let buckets = self.buckets_mut(predicate.attr_id());
        let mut interval_mutated = false;
        match predicate.operator() {
            Operator::Eq => {
                if let Some(eq_key) = EqKey::from_value(predicate.constant()) {
                    buckets.equality.entry(eq_key).or_default().push(key);
                } else {
                    buckets.scan.push((predicate.clone(), key));
                }
            }
            op @ (Operator::Lt | Operator::Le | Operator::Gt | Operator::Ge) => {
                match predicate.constant().as_f64() {
                    Some(t) if !t.is_nan() => {
                        interval_class_mut(buckets, op).insert(t, key);
                        interval_mutated = true;
                    }
                    _ => buckets.scan.push((predicate.clone(), key)),
                }
            }
            _ => buckets.scan.push((predicate.clone(), key)),
        }
        if interval_mutated && !buckets.interval_dirty {
            buckets.interval_dirty = true;
            self.dirty_attributes += 1;
        }
        self.registered += 1;
    }

    /// Unregisters a predicate previously inserted under the given key.
    ///
    /// The predicate must be identical to the one passed to
    /// [`insert`](Self::insert); returns `true` if an entry was removed.
    pub fn remove(&mut self, predicate: &Predicate, key: PredicateKey) -> bool {
        let idx = predicate.attr_id().index();
        let Some(Some(buckets)) = self.attributes.get_mut(idx) else {
            return false;
        };
        let mut interval_mutated = false;
        let removed = match predicate.operator() {
            Operator::Eq => match EqKey::from_value(predicate.constant()) {
                Some(eq_key) => match buckets.equality.get_mut(&eq_key) {
                    Some(keys) => {
                        let removed = remove_key(keys, key);
                        // A constant nobody subscribes to any more must not
                        // stay allocated, nor count as a distinct constant.
                        if keys.is_empty() {
                            buckets.equality.remove(&eq_key);
                        }
                        removed
                    }
                    None => false,
                },
                None => remove_scan(&mut buckets.scan, key),
            },
            op @ (Operator::Lt | Operator::Le | Operator::Gt | Operator::Ge) => {
                match predicate.constant().as_f64() {
                    Some(t) if !t.is_nan() => {
                        let removed = interval_class_mut(buckets, op).remove(key);
                        interval_mutated = removed;
                        removed
                    }
                    _ => remove_scan(&mut buckets.scan, key),
                }
            }
            _ => remove_scan(&mut buckets.scan, key),
        };
        if interval_mutated && !buckets.interval_dirty {
            buckets.interval_dirty = true;
            self.dirty_attributes += 1;
        }
        if removed {
            self.registered -= 1;
        }
        removed
    }

    /// Rebuilds the flat sorted interval mirrors of every attribute that
    /// mutated since the last call. O(1) when nothing changed; the engines
    /// call this once per batch so steady-state probes always take the
    /// binary-search + contiguous-slice path.
    pub fn ensure_built(&mut self) {
        if self.dirty_attributes == 0 {
            return;
        }
        for buckets in self.attributes.iter_mut().flatten() {
            if !buckets.interval_dirty {
                continue;
            }
            buckets.lt.rebuild();
            buckets.le.rebuild();
            buckets.gt.rebuild();
            buckets.ge.rebuild();
            buckets.interval_dirty = false;
        }
        self.dirty_attributes = 0;
    }

    /// Reports every registered predicate fulfilled by the event, by calling
    /// `on_fulfilled` once per fulfilled predicate key.
    pub fn fulfilled(&self, event: &EventMessage, on_fulfilled: impl FnMut(PredicateKey)) {
        self.fulfilled_pairs(event.iter_resolved(), on_fulfilled);
    }

    /// Reports every registered predicate fulfilled by a stream of resolved
    /// `(AttrId, &Value)` pairs — one event's attribute entries, wherever
    /// they are stored (an [`EventMessage`], or a span of an
    /// `EventBatch` arena).
    ///
    /// This is the phase-1 hot path: the attribute ids were resolved at
    /// build time, the top-level probe is a `Vec` index, and no allocation
    /// takes place.
    pub fn fulfilled_pairs<'a>(
        &self,
        pairs: impl Iterator<Item = (AttrId, &'a Value)>,
        mut on_fulfilled: impl FnMut(PredicateKey),
    ) {
        for (attribute, value) in pairs {
            let Some(buckets) = self.buckets(attribute) else {
                continue;
            };
            // Equality index.
            if let Some(eq_key) = EqKey::from_value(value) {
                if let Some(keys) = buckets.equality.get(&eq_key) {
                    for k in keys {
                        on_fulfilled(*k);
                    }
                }
            }
            // Interval indexes only apply to numeric event values.
            if let Some(v) = value.as_f64() {
                if !v.is_nan() {
                    if buckets.interval_dirty {
                        // Mutation epoch in progress and nobody called
                        // `ensure_built` yet: stay correct by scanning the
                        // unsorted source entries. Engines rebuild before
                        // their batch loops, so this path is cold.
                        for &(t, k) in &buckets.lt.entries {
                            if v < t {
                                on_fulfilled(k);
                            }
                        }
                        for &(t, k) in &buckets.le.entries {
                            if v <= t {
                                on_fulfilled(k);
                            }
                        }
                        for &(t, k) in &buckets.gt.entries {
                            if v > t {
                                on_fulfilled(k);
                            }
                        }
                        for &(t, k) in &buckets.ge.entries {
                            if v >= t {
                                on_fulfilled(k);
                            }
                        }
                    } else {
                        // Flat sorted layout: one binary search per class,
                        // then a contiguous, branch-free slice emission.
                        // `value < t` fulfilled for the suffix of t > value.
                        let lt = buckets.lt.partition(|t| t <= v);
                        buckets.lt.emit_suffix(lt, &mut on_fulfilled);
                        // `value <= t` fulfilled for the suffix of t >= value.
                        let le = buckets.le.partition(|t| t < v);
                        buckets.le.emit_suffix(le, &mut on_fulfilled);
                        // `value > t` fulfilled for the prefix of t < value.
                        let gt = buckets.gt.partition(|t| t < v);
                        buckets.gt.emit_prefix(gt, &mut on_fulfilled);
                        // `value >= t` fulfilled for the prefix of t <= value.
                        let ge = buckets.ge.partition(|t| t <= v);
                        buckets.ge.emit_prefix(ge, &mut on_fulfilled);
                    }
                }
            }
            // Scan list.
            for (predicate, k) in &buckets.scan {
                if predicate.evaluate_value(value) {
                    on_fulfilled(*k);
                }
            }
        }
    }

    /// Convenience wrapper collecting the fulfilled keys into a vector.
    pub fn fulfilled_keys(&self, event: &EventMessage) -> Vec<PredicateKey> {
        let mut out = Vec::new();
        self.fulfilled(event, |k| out.push(k));
        out
    }
}

/// The interval class storing predicates of the given ordering operator.
fn interval_class_mut(buckets: &mut AttributeBuckets, op: Operator) -> &mut IntervalClass {
    match op {
        Operator::Lt => &mut buckets.lt,
        Operator::Le => &mut buckets.le,
        Operator::Gt => &mut buckets.gt,
        Operator::Ge => &mut buckets.ge,
        other => unreachable!("{other:?} is not an interval operator"),
    }
}

fn remove_key(keys: &mut Vec<PredicateKey>, key: PredicateKey) -> bool {
    match keys.iter().position(|k| *k == key) {
        Some(pos) => {
            keys.swap_remove(pos);
            true
        }
        None => false,
    }
}

fn remove_scan(scan: &mut Vec<(Predicate, PredicateKey)>, key: PredicateKey) -> bool {
    match scan.iter().position(|(_, k)| *k == key) {
        Some(pos) => {
            scan.swap_remove(pos);
            true
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_core::EventMessage;

    fn key(slot: u32, node: u32) -> PredicateKey {
        PredicateKey::new(SubSlot(slot), NodeId(node))
    }

    fn event(price: i64, category: &str) -> EventMessage {
        EventMessage::builder()
            .attr("price", price)
            .attr("category", category)
            .build()
    }

    #[test]
    fn equality_index_matches_exact_values() {
        let mut idx = AttributeIndex::new();
        idx.insert(
            &Predicate::new("category", Operator::Eq, "books"),
            key(1, 0),
        );
        idx.insert(
            &Predicate::new("category", Operator::Eq, "music"),
            key(2, 0),
        );
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.attribute_count(), 1);

        let hits = idx.fulfilled_keys(&event(10, "books"));
        assert_eq!(hits, vec![key(1, 0)]);
        let hits = idx.fulfilled_keys(&event(10, "music"));
        assert_eq!(hits, vec![key(2, 0)]);
        let hits = idx.fulfilled_keys(&event(10, "games"));
        assert!(hits.is_empty());
    }

    #[test]
    fn integer_and_float_equality_share_buckets() {
        let mut idx = AttributeIndex::new();
        idx.insert(&Predicate::new("price", Operator::Eq, 3.0f64), key(1, 0));
        let ev = EventMessage::builder().attr("price", 3i64).build();
        assert_eq!(idx.fulfilled_keys(&ev), vec![key(1, 0)]);
    }

    #[test]
    fn interval_index_upper_bounds() {
        let mut idx = AttributeIndex::new();
        idx.insert(&Predicate::new("price", Operator::Lt, 10i64), key(1, 0));
        idx.insert(&Predicate::new("price", Operator::Le, 10i64), key(2, 0));
        idx.insert(&Predicate::new("price", Operator::Lt, 20i64), key(3, 0));

        let mut hits = idx.fulfilled_keys(&event(10, "x"));
        hits.sort();
        // price=10 fulfils `<= 10` and `< 20`, but not `< 10`.
        assert_eq!(hits, vec![key(2, 0), key(3, 0)]);

        let mut hits = idx.fulfilled_keys(&event(5, "x"));
        hits.sort();
        assert_eq!(hits, vec![key(1, 0), key(2, 0), key(3, 0)]);

        let hits = idx.fulfilled_keys(&event(25, "x"));
        assert!(hits.is_empty());
    }

    #[test]
    fn interval_index_lower_bounds() {
        let mut idx = AttributeIndex::new();
        idx.insert(&Predicate::new("price", Operator::Gt, 10i64), key(1, 0));
        idx.insert(&Predicate::new("price", Operator::Ge, 10i64), key(2, 0));
        idx.insert(&Predicate::new("price", Operator::Ge, 30i64), key(3, 0));

        let mut hits = idx.fulfilled_keys(&event(10, "x"));
        hits.sort();
        assert_eq!(hits, vec![key(2, 0)]);

        let mut hits = idx.fulfilled_keys(&event(40, "x"));
        hits.sort();
        assert_eq!(hits, vec![key(1, 0), key(2, 0), key(3, 0)]);

        let hits = idx.fulfilled_keys(&event(3, "x"));
        assert!(hits.is_empty());
    }

    #[test]
    fn scan_list_handles_string_and_ne_operators() {
        let mut idx = AttributeIndex::new();
        idx.insert(
            &Predicate::new("category", Operator::Ne, "books"),
            key(1, 0),
        );
        idx.insert(
            &Predicate::new("category", Operator::Prefix, "mus"),
            key(2, 0),
        );
        idx.insert(
            &Predicate::new("category", Operator::Contains, "oo"),
            key(3, 0),
        );

        let mut hits = idx.fulfilled_keys(&event(1, "music"));
        hits.sort();
        assert_eq!(hits, vec![key(1, 0), key(2, 0)]);

        let mut hits = idx.fulfilled_keys(&event(1, "books"));
        hits.sort();
        assert_eq!(hits, vec![key(3, 0)]);
    }

    #[test]
    fn events_without_the_attribute_fulfil_nothing() {
        let mut idx = AttributeIndex::new();
        idx.insert(&Predicate::new("rating", Operator::Ge, 4i64), key(1, 0));
        assert!(idx.fulfilled_keys(&event(10, "books")).is_empty());
    }

    #[test]
    fn removal_unregisters_predicates() {
        let mut idx = AttributeIndex::new();
        let p_eq = Predicate::new("category", Operator::Eq, "books");
        let p_le = Predicate::new("price", Operator::Le, 10i64);
        let p_ne = Predicate::new("category", Operator::Ne, "music");
        idx.insert(&p_eq, key(1, 0));
        idx.insert(&p_le, key(1, 1));
        idx.insert(&p_ne, key(1, 2));
        assert_eq!(idx.len(), 3);

        assert!(idx.remove(&p_eq, key(1, 0)));
        assert!(idx.remove(&p_le, key(1, 1)));
        assert!(idx.remove(&p_ne, key(1, 2)));
        assert_eq!(idx.len(), 0);
        assert!(idx.fulfilled_keys(&event(5, "books")).is_empty());

        // Double removal reports false and does not underflow.
        assert!(!idx.remove(&p_eq, key(1, 0)));
        assert_eq!(idx.len(), 0);
    }

    #[test]
    fn removed_constants_leave_no_equality_bucket_behind() {
        let mut idx = AttributeIndex::new();
        let title = pubsub_core::attr::intern("index_test_title");
        let predicates: Vec<Predicate> = (0..200)
            .map(|i| Predicate::new("index_test_title", Operator::Eq, format!("t{i}")))
            .collect();
        for (i, p) in predicates.iter().enumerate() {
            idx.insert(p, key(i as u32, 0));
            idx.insert(p, key(i as u32, 1));
        }
        assert_eq!(idx.equality_cardinality(title), predicates.len());
        for (i, p) in predicates.iter().enumerate() {
            assert!(idx.remove(p, key(i as u32, 0)));
        }
        // Every constant still has one subscriber.
        assert_eq!(idx.equality_cardinality(title), predicates.len());
        for (i, p) in predicates.iter().enumerate() {
            assert!(idx.remove(p, key(i as u32, 1)));
        }
        assert_eq!(idx.equality_cardinality(title), 0);
        assert!(idx.is_empty());
    }

    #[test]
    fn removal_of_unknown_attribute_is_noop() {
        let mut idx = AttributeIndex::new();
        assert!(!idx.remove(
            &Predicate::new("zzz_index_test_unused", Operator::Eq, 1i64),
            key(1, 0)
        ));
    }

    #[test]
    fn duplicate_predicates_under_different_keys_both_fire() {
        let mut idx = AttributeIndex::new();
        let p = Predicate::new("price", Operator::Le, 10i64);
        idx.insert(&p, key(1, 0));
        idx.insert(&p, key(2, 5));
        let mut hits = idx.fulfilled_keys(&event(5, "x"));
        hits.sort();
        assert_eq!(hits, vec![key(1, 0), key(2, 5)]);
        assert!(idx.remove(&p, key(1, 0)));
        assert_eq!(idx.fulfilled_keys(&event(5, "x")), vec![key(2, 5)]);
    }

    #[test]
    fn dirty_interval_probes_agree_with_rebuilt_probes() {
        // Probing between a mutation and `ensure_built` must give the same
        // answers as the rebuilt flat layout (via the unsorted-scan
        // fallback), and rebuilding must not change any result.
        let mut idx = AttributeIndex::new();
        let thresholds = [10i64, 5, 20, 5, 15];
        for (i, t) in thresholds.iter().enumerate() {
            idx.insert(&Predicate::new("price", Operator::Lt, *t), key(i as u32, 0));
            idx.insert(&Predicate::new("price", Operator::Ge, *t), key(i as u32, 1));
        }
        let probe = |idx: &AttributeIndex, v: i64| {
            let mut hits = idx.fulfilled_keys(&event(v, "x"));
            hits.sort();
            hits
        };
        let dirty: Vec<_> = (0..25).map(|v| probe(&idx, v)).collect();
        idx.ensure_built();
        let clean: Vec<_> = (0..25).map(|v| probe(&idx, v)).collect();
        assert_eq!(dirty, clean);
        // A removal re-opens the epoch; both paths must again agree.
        assert!(idx.remove(&Predicate::new("price", Operator::Lt, 10i64), key(0, 0)));
        let dirty: Vec<_> = (0..25).map(|v| probe(&idx, v)).collect();
        idx.ensure_built();
        idx.ensure_built(); // idempotent
        let clean: Vec<_> = (0..25).map(|v| probe(&idx, v)).collect();
        assert_eq!(dirty, clean);
        assert!(!dirty[11].contains(&key(0, 0)));
    }

    #[test]
    fn duplicate_thresholds_sort_stably_and_probe_correctly() {
        let mut idx = AttributeIndex::new();
        // Many predicates sharing thresholds, mixed strict/inclusive.
        for i in 0..8u32 {
            idx.insert(
                &Predicate::new("price", Operator::Le, (i % 2) as i64 * 10),
                key(i, 0),
            );
        }
        idx.ensure_built();
        let hits = idx.fulfilled_keys(&event(5, "x"));
        // Only the `<= 10` group (odd i) is fulfilled at price=5.
        assert_eq!(hits.len(), 4);
        assert!(hits.iter().all(|k| k.slot.0 % 2 == 1));
        let hits = idx.fulfilled_keys(&event(0, "x"));
        assert_eq!(hits.len(), 8);
    }

    #[test]
    fn index_results_agree_with_direct_evaluation() {
        // Differential test over a deterministic grid of predicates/events.
        let mut idx = AttributeIndex::new();
        let mut predicates = Vec::new();
        let ops = [
            Operator::Eq,
            Operator::Ne,
            Operator::Lt,
            Operator::Le,
            Operator::Gt,
            Operator::Ge,
        ];
        let mut next = 0u32;
        for op in ops {
            for threshold in [0i64, 5, 10, 15] {
                let p = Predicate::new("price", op, threshold);
                let k = key(next, 0);
                idx.insert(&p, k);
                predicates.push((p, k));
                next += 1;
            }
        }
        for value in -2i64..20 {
            let ev = EventMessage::builder().attr("price", value).build();
            let mut expected: Vec<PredicateKey> = predicates
                .iter()
                .filter(|(p, _)| p.evaluate(&ev))
                .map(|(_, k)| *k)
                .collect();
            expected.sort();
            let mut got = idx.fulfilled_keys(&ev);
            got.sort();
            assert_eq!(got, expected, "mismatch for price={value}");
        }
    }
}
