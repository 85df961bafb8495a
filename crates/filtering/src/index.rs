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
//! A mutation costs what it changes. `insert` appends to the class's small
//! unsorted `pending` tail; `remove` binary-searches the sorted arrays (which
//! are ordered by `(threshold, key)`, so the search is exact) and shifts the
//! suffix down in place. [`AttributeIndex::ensure_built`], which the engines
//! call once per batch, sorts each touched class's tail and merges it into
//! the arrays — untouched classes and attributes are not visited. A probe
//! taken through the shared-reference path before that merge stays correct
//! by also testing the tail's few entries one by one; no probe ever scans a
//! whole class, and no interval predicate is stored twice.

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
    /// `Int -> Float` widening so that `= 3` and `= 3.0` share a bucket, as
    /// do `= 0.0` and `= -0.0`.
    Num(u64),
    /// Strings share the value's `Arc` — registration never copies the text.
    Str(Arc<str>),
}

impl EqKey {
    pub(crate) fn from_value(v: &Value) -> Option<EqKey> {
        match v {
            Value::Bool(b) => Some(EqKey::Bool(*b)),
            Value::Int(i) => Some(EqKey::Num((*i as f64).to_bits())),
            // `+ 0.0` folds `-0.0` into `0.0`: the two compare equal.
            Value::Float(f) if !f.is_nan() => Some(EqKey::Num((f + 0.0).to_bits())),
            Value::Float(_) => None,
            Value::Str(s) => Some(EqKey::Str(Arc::clone(s))),
        }
    }
}

/// One interval predicate class of one attribute (all `< t` predicates, all
/// `≤ t` predicates, …): flat parallel arrays sorted by `(threshold, key)`
/// plus the unsorted tail of entries inserted since the last merge.
#[derive(Debug, Default)]
pub(crate) struct IntervalClass {
    /// Thresholds in ascending order (`f64::total_cmp`; NaN is rejected at
    /// registration). Parallel to `keys`.
    thresholds: Vec<f64>,
    /// Keys in `(threshold, key)` order, parallel to `thresholds`. A probe
    /// emits one contiguous slice of this.
    keys: Vec<PredicateKey>,
    /// Entries inserted since the last [`merge_pending`](Self::merge_pending),
    /// in arrival order. Holds one mutation epoch's insertions, not a copy of
    /// the class.
    pending: Vec<(f64, PredicateKey)>,
}

/// The order of the sorted arrays. `-0.0` sorts before `+0.0`, which every
/// probe comparison treats as equal — adjacent entries, so probes still see a
/// partitioned array.
fn entry_order(a: (f64, PredicateKey), b: (f64, PredicateKey)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1))
}

/// Capacity a merged-away pending tail keeps for the next epoch's
/// insertions; a bulk load's tail is given back.
const PENDING_KEEP: usize = 16;

impl IntervalClass {
    fn insert(&mut self, threshold: f64, key: PredicateKey) {
        self.pending.push((threshold, key));
    }

    /// First index in the sorted arrays' prefix `..end` whose entry is not
    /// below `(threshold, key)`.
    fn lower_bound(&self, end: usize, threshold: f64, key: PredicateKey) -> usize {
        let (mut lo, mut hi) = (0, end);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let entry = (self.thresholds[mid], self.keys[mid]);
            if entry_order(entry, (threshold, key)).is_lt() {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    fn remove(&mut self, threshold: f64, key: PredicateKey) -> bool {
        let pos = self.lower_bound(self.keys.len(), threshold, key);
        if self.keys.get(pos) == Some(&key) && self.thresholds[pos].to_bits() == threshold.to_bits()
        {
            self.thresholds.remove(pos);
            self.keys.remove(pos);
            return true;
        }
        match self.pending.iter().position(|(_, k)| *k == key) {
            Some(pos) => {
                self.pending.swap_remove(pos);
                true
            }
            None => false,
        }
    }

    /// Sorts the pending tail and merges it into the sorted arrays: one
    /// binary search per pending entry plus one block move per gap between
    /// them, so a single insertion costs a `memmove` of the entries above it.
    ///
    /// The relative order of equal thresholds follows the keys — nothing may
    /// depend on it; determinism comes from the engine's id-sort of each
    /// event's matches, not from emission order.
    fn merge_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let mut pending = std::mem::take(&mut self.pending);
        pending.sort_unstable_by(|&a, &b| entry_order(a, b));
        let old_len = self.thresholds.len();
        self.thresholds.resize(old_len + pending.len(), 0.0);
        self.keys.resize(
            old_len + pending.len(),
            PredicateKey::new(SubSlot(0), NodeId(0)),
        );
        // Back to front: `end` is how much of the old arrays is still to be
        // placed, `above` how many pending entries sit below the current one.
        let mut end = old_len;
        for (above, &(threshold, key)) in pending.iter().enumerate().rev() {
            let pos = self.lower_bound(end, threshold, key);
            self.thresholds.copy_within(pos..end, pos + above + 1);
            self.keys.copy_within(pos..end, pos + above + 1);
            self.thresholds[pos + above] = threshold;
            self.keys[pos + above] = key;
            end = pos;
        }
        pending.clear();
        pending.shrink_to(PENDING_KEEP);
        self.pending = pending;
    }

    /// Emits the keys of the suffix whose thresholds satisfy `pred` being
    /// false — i.e. the first index where `pred(threshold)` turns false,
    /// found by binary search, starts the fulfilled suffix.
    #[inline]
    fn emit_suffix(&self, first_false: usize, on_fulfilled: &mut impl FnMut(PredicateKey)) {
        for &k in &self.keys[first_false..] {
            on_fulfilled(k);
        }
    }

    #[inline]
    fn emit_prefix(&self, end: usize, on_fulfilled: &mut impl FnMut(PredicateKey)) {
        for &k in &self.keys[..end] {
            on_fulfilled(k);
        }
    }

    /// Emits the not-yet-merged entries whose threshold the event value
    /// fulfils. Empty once [`AttributeIndex::ensure_built`] ran.
    #[inline]
    fn emit_pending(
        &self,
        fulfilled: impl Fn(f64) -> bool,
        on_fulfilled: &mut impl FnMut(PredicateKey),
    ) {
        for &(t, k) in &self.pending {
            if fulfilled(t) {
                on_fulfilled(k);
            }
        }
    }

    /// Index of the first sorted threshold for which `pred` is false.
    #[inline]
    pub(crate) fn partition(&self, pred: impl Fn(f64) -> bool) -> usize {
        self.thresholds.partition_point(|&t| pred(t))
    }

    /// The merged keys in threshold order. Complete only after
    /// [`AttributeIndex::ensure_built`]; the batch probe plan slices this
    /// directly to emit a whole run of events against one partition point.
    #[inline]
    pub(crate) fn sorted_keys(&self) -> &[PredicateKey] {
        &self.keys
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
    /// Set while this attribute is listed in
    /// [`AttributeIndex::pending_attributes`].
    interval_pending: bool,
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
    /// The attributes an interval insertion touched since the last
    /// [`ensure_built`](Self::ensure_built), which visits these and nothing
    /// else.
    pending_attributes: Vec<AttrId>,
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
        let in_use = &mut self.attributes_in_use;
        self.attributes[idx].get_or_insert_with(|| {
            *in_use += 1;
            Box::default()
        })
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
        let attr = predicate.attr_id();
        let buckets = self.buckets_mut(attr);
        let mut interval_inserted = false;
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
                        interval_inserted = true;
                    }
                    _ => buckets.scan.push((predicate.clone(), key)),
                }
            }
            _ => buckets.scan.push((predicate.clone(), key)),
        }
        if interval_inserted && !buckets.interval_pending {
            buckets.interval_pending = true;
            self.pending_attributes.push(attr);
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
                    Some(t) if !t.is_nan() => interval_class_mut(buckets, op).remove(t, key),
                    _ => remove_scan(&mut buckets.scan, key),
                }
            }
            _ => remove_scan(&mut buckets.scan, key),
        };
        if removed {
            self.registered -= 1;
        }
        removed
    }

    /// Merges the pending interval insertions of every attribute touched
    /// since the last call into its sorted arrays. O(1) when nothing was
    /// inserted and proportional to the touched classes otherwise; the
    /// engines call this once per batch so steady-state probes take the
    /// binary-search + contiguous-slice path alone.
    pub fn ensure_built(&mut self) {
        for attr in self.pending_attributes.drain(..) {
            let Some(Some(buckets)) = self.attributes.get_mut(attr.index()) else {
                continue;
            };
            buckets.lt.merge_pending();
            buckets.le.merge_pending();
            buckets.gt.merge_pending();
            buckets.ge.merge_pending();
            buckets.interval_pending = false;
        }
    }

    /// Whether every interval insertion has been merged, i.e. whether
    /// [`IntervalClass::sorted_keys`] is the whole class.
    pub(crate) fn is_built(&self) -> bool {
        self.pending_attributes.is_empty()
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
                    // Flat sorted layout: one binary search per class, then a
                    // contiguous, branch-free slice emission; entries not yet
                    // merged (none once `ensure_built` ran) are tested singly.
                    // `value < t` fulfilled for the suffix of t > value.
                    let lt = buckets.lt.partition(|t| t <= v);
                    buckets.lt.emit_suffix(lt, &mut on_fulfilled);
                    buckets.lt.emit_pending(|t| v < t, &mut on_fulfilled);
                    // `value <= t` fulfilled for the suffix of t >= value.
                    let le = buckets.le.partition(|t| t < v);
                    buckets.le.emit_suffix(le, &mut on_fulfilled);
                    buckets.le.emit_pending(|t| v <= t, &mut on_fulfilled);
                    // `value > t` fulfilled for the prefix of t < value.
                    let gt = buckets.gt.partition(|t| t < v);
                    buckets.gt.emit_prefix(gt, &mut on_fulfilled);
                    buckets.gt.emit_pending(|t| v > t, &mut on_fulfilled);
                    // `value >= t` fulfilled for the prefix of t <= value.
                    let ge = buckets.ge.partition(|t| t <= v);
                    buckets.ge.emit_prefix(ge, &mut on_fulfilled);
                    buckets.ge.emit_pending(|t| v >= t, &mut on_fulfilled);
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
        // The two zeros compare equal, so they share a bucket too.
        idx.insert(&Predicate::new("price", Operator::Eq, -0.0f64), key(2, 0));
        let ev = EventMessage::builder().attr("price", 0i64).build();
        assert_eq!(idx.fulfilled_keys(&ev), vec![key(2, 0)]);
        assert!(idx.remove(&Predicate::new("price", Operator::Eq, 0.0f64), key(2, 0)));
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
    fn pending_interval_probes_agree_with_merged_probes() {
        // Probing between an insertion and `ensure_built` must give the same
        // answers as the merged layout (the pending tail is tested entry by
        // entry), and merging must not change any result.
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
        assert!(!idx.is_built());
        let pending: Vec<_> = (0..25).map(|v| probe(&idx, v)).collect();
        idx.ensure_built();
        assert!(idx.is_built());
        let merged: Vec<_> = (0..25).map(|v| probe(&idx, v)).collect();
        assert_eq!(pending, merged);
        // A removal from the merged arrays happens in place and leaves
        // nothing pending; one from the tail (key 9) leaves the other
        // pending entry (key 8) probe-able.
        assert!(idx.remove(&Predicate::new("price", Operator::Lt, 10i64), key(0, 0)));
        assert!(idx.is_built());
        idx.insert(&Predicate::new("price", Operator::Lt, 12i64), key(8, 0));
        idx.insert(&Predicate::new("price", Operator::Lt, 12i64), key(9, 0));
        assert!(idx.remove(&Predicate::new("price", Operator::Lt, 12i64), key(9, 0)));
        let pending: Vec<_> = (0..25).map(|v| probe(&idx, v)).collect();
        idx.ensure_built();
        idx.ensure_built(); // idempotent
        let merged: Vec<_> = (0..25).map(|v| probe(&idx, v)).collect();
        assert_eq!(pending, merged);
        assert!(!pending[9].contains(&key(0, 0)));
        assert!(pending[11].contains(&key(8, 0)));
        assert!(!pending[11].contains(&key(9, 0)));
        assert_eq!(idx.len(), 10);
    }

    #[test]
    fn merging_keeps_threshold_order_whatever_the_arrival_order() {
        // Several epochs of insertions landing below, between and above the
        // merged entries; after each merge the class is sorted by
        // (threshold, key) and holds exactly the live entries.
        let mut class = IntervalClass::default();
        let mut live: Vec<(f64, PredicateKey)> = Vec::new();
        let epochs: [&[f64]; 4] = [
            &[5.0, 1.0, 9.0],
            &[0.0, 5.0, 10.0, 5.0, -0.0],
            &[7.5],
            &[-3.0, 20.0, 6.0, 6.0],
        ];
        let mut next = 0u32;
        for epoch in epochs {
            for &t in epoch {
                class.insert(t, key(next, 0));
                live.push((t, key(next, 0)));
                next += 1;
            }
            class.merge_pending();
            live.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            let merged: Vec<(f64, PredicateKey)> = class
                .thresholds
                .iter()
                .copied()
                .zip(class.keys.iter().copied())
                .collect();
            assert_eq!(
                merged
                    .iter()
                    .map(|e| (e.0.to_bits(), e.1))
                    .collect::<Vec<_>>(),
                live.iter()
                    .map(|e| (e.0.to_bits(), e.1))
                    .collect::<Vec<_>>()
            );
            assert!(class.pending.is_empty());
            // Drop one entry per epoch from the middle of the arrays.
            let (t, k) = live.remove(live.len() / 2);
            assert!(class.remove(t, k));
            assert!(!class.remove(t, k));
        }
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

    mod interleavings {
        use super::*;
        use crate::prefilter::PreFilter;
        use crate::probe::ProbePlan;
        use proptest::prelude::*;
        use pubsub_core::EventBatch;

        /// Thresholds and probe values: duplicates are the norm, `3`/`3.0`
        /// and `7`/`7.0` are `Int`/`Float` twins, and both zeros appear.
        fn pool() -> Vec<Value> {
            vec![
                Value::Int(-1),
                Value::Float(-0.0),
                Value::Float(0.0),
                Value::Int(0),
                Value::Float(2.5),
                Value::Int(3),
                Value::Float(3.0),
                Value::Int(7),
                Value::Float(7.0),
                Value::Float(7.25),
            ]
        }

        const OPS: [Operator; 6] = [
            Operator::Lt,
            Operator::Le,
            Operator::Gt,
            Operator::Ge,
            Operator::Eq,
            Operator::Ne,
        ];

        fn probe_event(v: &Value) -> EventMessage {
            EventMessage::builder().attr("ivp_x", v.clone()).build()
        }

        fn brute_force(live: &[(Predicate, PredicateKey)], ev: &EventMessage) -> Vec<PredicateKey> {
            let mut expected: Vec<PredicateKey> = live
                .iter()
                .filter(|(p, _)| p.evaluate(ev))
                .map(|(_, k)| *k)
                .collect();
            expected.sort();
            expected
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(192))]

            /// Any interleaving of insert / remove / probe / merge: every
            /// probe — taken over a pending tail or not — equals a
            /// brute-force evaluation of the live predicates, and after the
            /// final merge the batch plan equals the per-event probe.
            #[test]
            fn probes_equal_brute_force(
                steps in prop::collection::vec((0usize..10, 0usize..64, 0usize..10), 1..120),
            ) {
                let pool = pool();
                let mut idx = AttributeIndex::new();
                let mut live: Vec<(Predicate, PredicateKey)> = Vec::new();
                let mut next = 0u32;
                for (kind, a, b) in steps {
                    match kind {
                        // Insert (weighted: the tail must get long enough to
                        // hold duplicates before a merge).
                        0..=4 => {
                            let p = Predicate::new("ivp_x", OPS[a % OPS.len()], pool[b].clone());
                            let k = key(next, (a % 3) as u32);
                            next += 1;
                            idx.insert(&p, k);
                            live.push((p, k));
                        }
                        5 | 6 if !live.is_empty() => {
                            let (p, k) = live.swap_remove(a % live.len());
                            prop_assert!(idx.remove(&p, k));
                            prop_assert!(!idx.remove(&p, k));
                        }
                        7 => idx.ensure_built(),
                        _ => {
                            let ev = probe_event(&pool[b]);
                            let mut got = idx.fulfilled_keys(&ev);
                            got.sort();
                            prop_assert_eq!(got, brute_force(&live, &ev));
                        }
                    }
                    prop_assert_eq!(idx.len(), live.len());
                }

                idx.ensure_built();
                let mut batch = EventBatch::new();
                let events: Vec<EventMessage> = pool.iter().map(probe_event).collect();
                for ev in &events {
                    batch.push(ev.clone());
                }
                let mut plan = ProbePlan::new();
                let mut killed = 0u64;
                plan.run(&batch, &idx, &PreFilter::new(), &mut killed);
                for (i, ev) in events.iter().enumerate() {
                    let expected = brute_force(&live, ev);
                    let mut single = idx.fulfilled_keys(ev);
                    single.sort();
                    prop_assert_eq!(&single, &expected);
                    let mut batched = plan.emitted(i).to_vec();
                    batched.sort();
                    prop_assert_eq!(&batched, &expected);
                }
            }
        }
    }
}
