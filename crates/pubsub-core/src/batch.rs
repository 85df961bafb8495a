//! Reusable, arena-backed batches of events.
//!
//! The paper's figures are throughput curves over sustained event streams,
//! and the matching engines are fastest when they are driven a *batch* at a
//! time: per-event dispatch, timestamping, and buffer handling amortize over
//! the whole batch, and the engine's scratch state stays cache-hot between
//! consecutive events. [`EventBatch`] is the carrier type for that style of
//! operation.
//!
//! A batch stores **one copy of each event**: its id, and its pre-resolved
//! `(AttrId, Value)` pairs in one flat **arena** (`Vec`) with a span per
//! event. Matching iterates the arena contiguously — no per-event pointer
//! chasing — and [`EventBatch::event`] hands out a borrowed [`EventRef`]
//! view instead of an owned message. [`EventBatch::push`] moves an event's
//! pairs into the arena, the wire codec decodes straight into it
//! ([`EventBatch::try_push_with`]), and [`EventBatch::clear`] retains every
//! allocation, so a batch that is cleared and refilled to a similar size
//! allocates nothing in steady state (string values are `Arc<str>`, so
//! copying a pair between batches is a refcount bump).
//!
//! Batches are built three ways:
//!
//! * [`EventBatch::builder`] for hand-assembled batches,
//! * collecting (`FromIterator`) / [`From`] a `Vec<EventMessage>`,
//! * the workload generator's `event_batch` / `fill_event_batch`
//!   (`workload::WorkloadGenerator`), which refills a caller-owned batch.
//!
//! ```
//! use pubsub_core::{EventBatch, EventMessage};
//!
//! let events: Vec<EventMessage> = (0..3)
//!     .map(|i| {
//!         EventMessage::builder()
//!             .id(i as u64)
//!             .attr("price", i as i64)
//!             .build()
//!     })
//!     .collect();
//! let batch: EventBatch = events.iter().cloned().collect();
//! assert_eq!(batch.len(), 3);
//! // Each event's view reads the arena and agrees with the pushed message.
//! for (event, message) in batch.iter().zip(&events) {
//!     assert_eq!(event.id(), message.id());
//!     assert_eq!(&event.to_message(), message);
//! }
//! ```

use crate::event::{find_value, is_name_sorted, pairs_size_bytes};
use crate::{AttrId, EventId, EventMessage, Value};

/// A reusable, arena-backed collection of events.
///
/// See the `batch` module documentation for the design rationale. The batch
/// is the unit the matching engines consume (`MatchingEngine::match_batch` in
/// the `filtering` crate) and the unit the broker simulation routes between
/// brokers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventBatch {
    /// The event ids, in push order.
    ids: Vec<EventId>,
    /// Flat arena of every event's resolved attribute pairs, concatenated.
    arena: Vec<(AttrId, Value)>,
    /// Per-event `(start, len)` span into `arena`, parallel to `ids`.
    spans: Vec<(u32, u32)>,
}

/// A borrowed view of one event of an [`EventBatch`]: its id and its
/// resolved pairs, read straight out of the batch arena.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventRef<'a> {
    id: EventId,
    pairs: &'a [(AttrId, Value)],
}

impl<'a> EventRef<'a> {
    /// The identifier of this event.
    pub fn id(self) -> EventId {
        self.id
    }

    /// Looks up the value of an attribute by its interned id.
    #[inline]
    pub fn get_id(self, id: AttrId) -> Option<&'a Value> {
        find_value(self.pairs, id)
    }

    /// The `(AttrId, Value)` pairs in attribute-name order, one per
    /// attribute — the same shape as [`EventMessage::resolved_pairs`].
    #[inline]
    pub fn resolved_pairs(self) -> &'a [(AttrId, Value)] {
        self.pairs
    }

    /// Copies the event out of the batch as an owned message.
    pub fn to_message(self) -> EventMessage {
        EventMessage::from_sorted_pairs(self.id, self.pairs.to_vec())
    }
}

/// Appends the pairs of one event under construction to a batch arena; see
/// [`EventBatch::try_push_with`].
#[derive(Debug)]
pub struct PairWriter<'a> {
    arena: &'a mut Vec<(AttrId, Value)>,
}

impl PairWriter<'_> {
    /// Appends one pair. Pairs must come in strictly ascending
    /// attribute-name order.
    #[inline]
    pub fn push(&mut self, attr: AttrId, value: Value) {
        self.arena.push((attr, value));
    }
}

impl EventBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty batch with room for `events` events of roughly
    /// `width` attributes each.
    pub fn with_capacity(events: usize, width: usize) -> Self {
        Self {
            ids: Vec::with_capacity(events),
            arena: Vec::with_capacity(events * width),
            spans: Vec::with_capacity(events),
        }
    }

    /// Starts building a batch event by event.
    pub fn builder() -> EventBatchBuilder {
        EventBatchBuilder {
            batch: EventBatch::new(),
        }
    }

    /// Appends an event to the batch, moving its resolved attribute pairs
    /// into the arena.
    pub fn push(&mut self, event: EventMessage) {
        let start = self.arena.len();
        let (id, pairs) = event.into_parts();
        self.arena.extend(pairs);
        self.close_event(id, start);
    }

    /// Appends an event whose pairs `fill` writes straight into the arena —
    /// the wire codec's decode path. The pairs must be in strictly
    /// ascending attribute-name order. If `fill` fails, the pairs it wrote
    /// are removed, the batch is left as it was, and the error is returned.
    pub fn try_push_with<E>(
        &mut self,
        id: EventId,
        fill: impl FnOnce(&mut PairWriter<'_>) -> Result<(), E>,
    ) -> Result<(), E> {
        let start = self.arena.len();
        match fill(&mut PairWriter {
            arena: &mut self.arena,
        }) {
            Ok(()) => {
                debug_assert!(
                    is_name_sorted(&self.arena[start..]),
                    "event pairs must be name-sorted and deduplicated"
                );
                self.close_event(id, start);
                Ok(())
            }
            Err(error) => {
                self.arena.truncate(start);
                Err(error)
            }
        }
    }

    /// Copies the event at `index` of another batch into this one. This is
    /// how brokers build per-neighbor forward batches.
    ///
    /// # Panics
    /// Panics if `index` is out of range for `source`.
    pub fn push_from(&mut self, source: &EventBatch, index: usize) {
        let start = self.arena.len();
        self.arena.extend_from_slice(source.resolved_pairs(index));
        self.close_event(source.ids[index], start);
    }

    /// Records the pairs from `start` to the arena's end as event `id`.
    fn close_event(&mut self, id: EventId, start: usize) {
        let len = self.arena.len() - start;
        let start = u32::try_from(start).expect("batch arena exceeds u32 range");
        let len = u32::try_from(len).expect("event width exceeds u32 range");
        self.spans.push((start, len));
        self.ids.push(id);
    }

    /// Number of events in the batch.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns `true` if the batch holds no events.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The event at `index`.
    ///
    /// # Panics
    /// Panics if `index >= len()`.
    #[inline]
    pub fn event(&self, index: usize) -> EventRef<'_> {
        EventRef {
            id: self.ids[index],
            pairs: self.resolved_pairs(index),
        }
    }

    /// The events of this batch, in push order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = EventRef<'_>> {
        (0..self.len()).map(|index| self.event(index))
    }

    /// Iterates over the pre-resolved `(AttrId, &Value)` pairs of the event
    /// at `index`, reading the flat arena.
    ///
    /// This is what batch matching consumes: the pairs of consecutive events
    /// are adjacent in memory, so a whole-batch match walks the arena front
    /// to back.
    ///
    /// # Panics
    /// Panics if `index >= len()`.
    #[inline]
    pub fn resolved(&self, index: usize) -> impl Iterator<Item = (AttrId, &Value)> + Clone {
        self.resolved_pairs(index).iter().map(|(id, v)| (*id, v))
    }

    /// The arena slice holding the resolved pairs of the event at `index` —
    /// the borrowed form matching and the wire codec's encoder consume.
    ///
    /// # Panics
    /// Panics if `index >= len()`.
    #[inline]
    pub fn resolved_pairs(&self, index: usize) -> &[(AttrId, Value)] {
        let (start, len) = self.spans[index];
        &self.arena[start as usize..(start + len) as usize]
    }

    /// Removes all events while retaining the id, span, and arena
    /// allocations, so the batch can be refilled without reallocating.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.arena.clear();
        self.spans.clear();
    }

    /// Total number of elements currently allocated across the batch's
    /// internal buffers. Constant across `clear`/refill cycles of similar
    /// size; the scratch-reuse regression tests assert on it.
    pub fn capacity(&self) -> usize {
        self.ids.capacity() + self.arena.capacity() + self.spans.capacity()
    }

    /// The whole resolved-pair arena: every event's `(AttrId, Value)` pairs
    /// concatenated in push order. [`AttrGroups`] entries index into this
    /// slice, so batch-aware consumers can look a pair up by its arena
    /// position without re-walking the per-event spans.
    #[inline]
    pub fn arena_pairs(&self) -> &[(AttrId, Value)] {
        &self.arena
    }

    /// Sum of the estimated wire sizes ([`EventMessage::size_bytes`]) of
    /// all events in the batch.
    pub fn size_bytes(&self) -> usize {
        (0..self.len())
            .map(|index| pairs_size_bytes(self.resolved_pairs(index)))
            .sum()
    }
}

impl From<Vec<EventMessage>> for EventBatch {
    fn from(events: Vec<EventMessage>) -> Self {
        let mut batch = EventBatch::with_capacity(events.len(), 8);
        batch.extend(events);
        batch
    }
}

impl FromIterator<EventMessage> for EventBatch {
    fn from_iter<I: IntoIterator<Item = EventMessage>>(iter: I) -> Self {
        let mut batch = EventBatch::new();
        batch.extend(iter);
        batch
    }
}

impl Extend<EventMessage> for EventBatch {
    fn extend<I: IntoIterator<Item = EventMessage>>(&mut self, iter: I) {
        for event in iter {
            self.push(event);
        }
    }
}

/// The batch arena regrouped by attribute: `pairs_by_attr` for batch-aware
/// index probing.
///
/// A [`EventBatch`] stores pairs event-major (all of event 0's attributes,
/// then event 1's, …). Staged matching wants the transpose — *all* of the
/// batch's `price` pairs, then all of its `title` pairs — so each attribute
/// sub-index is probed once per batch instead of once per event.
/// `AttrGroups` builds that transpose as a CSR layout over `(event index,
/// arena index)` entries with a two-pass counting sort: one pass to count
/// pairs per distinct attribute, one to scatter entries into place. Both
/// passes are linear in the arena and allocation-free once the scratch has
/// warmed up; the per-attribute slot table is reset through the list of
/// attributes actually touched, not by scanning the whole interner range.
///
/// Attribute groups appear in **first-seen order** (the order the attributes
/// first occur in the arena), which is deterministic for a deterministic
/// batch stream.
#[derive(Debug, Default)]
pub struct AttrGroups {
    /// Distinct attributes of the batch, in first-seen order.
    attrs: Vec<AttrId>,
    /// CSR offsets into `entries`; `attrs.len() + 1` entries.
    offsets: Vec<u32>,
    /// `(event index, arena index)` pairs grouped by attribute.
    entries: Vec<(u32, u32)>,
    /// Scratch: slot of each `AttrId::index()` while grouping, `NO_SLOT`
    /// otherwise. Sized to the largest attribute index seen; reset via
    /// `attrs`.
    attr_slot: Vec<u32>,
    /// Scratch: write cursor per group during the scatter pass.
    cursors: Vec<u32>,
}

/// Sentinel marking an attribute without a slot in [`AttrGroups::attr_slot`].
const NO_SLOT: u32 = u32::MAX;

impl AttrGroups {
    /// Creates an empty grouping.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds the grouping from `batch`, reusing all internal buffers.
    pub fn group(&mut self, batch: &EventBatch) {
        // Reset the slot table through the previously-touched attributes.
        for attr in self.attrs.drain(..) {
            self.attr_slot[attr.index()] = NO_SLOT;
        }
        self.entries.clear();
        self.offsets.clear();
        self.cursors.clear();

        // Pass 1: count pairs per distinct attribute (slots assigned in
        // first-seen order). `cursors` doubles as the per-slot counter.
        for &(attr, _) in &batch.arena {
            let index = attr.index();
            if index >= self.attr_slot.len() {
                self.attr_slot.resize(index + 1, NO_SLOT);
            }
            let slot = self.attr_slot[index];
            if slot == NO_SLOT {
                let slot = u32::try_from(self.attrs.len()).expect("attr count exceeds u32");
                self.attr_slot[index] = slot;
                self.attrs.push(attr);
                self.cursors.push(1);
            } else {
                self.cursors[slot as usize] += 1;
            }
        }

        // Prefix-sum the counts into CSR offsets; `cursors` becomes the
        // write cursor of each group.
        let mut total = 0u32;
        self.offsets.push(0);
        for count in &mut self.cursors {
            total += *count;
            *count = total - *count;
            self.offsets.push(total);
        }
        self.entries.resize(total as usize, (0, 0));

        // Pass 2: scatter `(event, arena index)` entries into their groups.
        for (event, &(start, len)) in batch.spans.iter().enumerate() {
            let event = event as u32;
            for arena_index in start..start + len {
                let slot = self.attr_slot[batch.arena[arena_index as usize].0.index()];
                let cursor = &mut self.cursors[slot as usize];
                self.entries[*cursor as usize] = (event, arena_index);
                *cursor += 1;
            }
        }
    }

    /// The distinct attributes of the grouped batch, in first-seen order.
    #[inline]
    pub fn attrs(&self) -> &[AttrId] {
        &self.attrs
    }

    /// Number of distinct attributes in the grouped batch.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Returns `true` if the grouped batch had no attribute pairs.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// The `(event index, arena index)` entries of group `group` (an index
    /// into [`attrs`](Self::attrs)). Arena indexes point into
    /// [`EventBatch::arena_pairs`] of the batch the grouping was built from.
    ///
    /// # Panics
    /// Panics if `group >= len()`.
    #[inline]
    pub fn entries(&self, group: usize) -> &[(u32, u32)] {
        let start = self.offsets[group] as usize;
        let end = self.offsets[group + 1] as usize;
        &self.entries[start..end]
    }

    /// Total number of elements currently allocated across the grouping's
    /// internal buffers. Constant across `group` calls over similarly-shaped
    /// batches; the scratch-reuse regression tests assert on it.
    pub fn capacity(&self) -> usize {
        self.attrs.capacity()
            + self.offsets.capacity()
            + self.entries.capacity()
            + self.attr_slot.capacity()
            + self.cursors.capacity()
    }
}

/// Builder for [`EventBatch`], mirroring [`EventMessage::builder`].
#[derive(Debug, Default)]
pub struct EventBatchBuilder {
    batch: EventBatch,
}

impl EventBatchBuilder {
    /// Appends a finished event message.
    pub fn event(mut self, event: EventMessage) -> Self {
        self.batch.push(event);
        self
    }

    /// Appends every event of an iterator.
    pub fn events(mut self, events: impl IntoIterator<Item = EventMessage>) -> Self {
        self.batch.extend(events);
        self
    }

    /// Finishes the batch.
    pub fn build(self) -> EventBatch {
        self.batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventId;

    fn ev(id: u64, price: i64) -> EventMessage {
        EventMessage::builder()
            .id(id)
            .attr("category", "books")
            .attr("price", price)
            .build()
    }

    #[test]
    fn push_and_views_agree_with_events() {
        let mut batch = EventBatch::new();
        assert!(batch.is_empty());
        batch.push(ev(1, 10));
        batch.push(ev(2, 20));
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.event(0).id(), EventId::from_raw(1));
        let messages = [ev(1, 10), ev(2, 20)];
        assert_eq!(batch.iter().len(), 2);
        for (i, (event, message)) in batch.iter().zip(&messages).enumerate() {
            let from_arena: Vec<(AttrId, &Value)> = batch.resolved(i).collect();
            let from_event: Vec<(AttrId, &Value)> = message.iter_resolved().collect();
            assert_eq!(from_arena, from_event);
            assert_eq!(event.resolved_pairs(), message.resolved_pairs());
            assert_eq!(&event.to_message(), message);
            for (id, value) in message.iter_resolved() {
                assert_eq!(event.get_id(id), Some(value));
            }
        }
    }

    #[test]
    fn builder_and_collection_constructors() {
        let built = EventBatch::builder()
            .event(ev(1, 10))
            .events([ev(2, 20), ev(3, 30)])
            .build();
        let collected: EventBatch = vec![ev(1, 10), ev(2, 20), ev(3, 30)].into_iter().collect();
        let converted = EventBatch::from(vec![ev(1, 10), ev(2, 20), ev(3, 30)]);
        assert_eq!(built, collected);
        assert_eq!(built, converted);
        assert_eq!(built.len(), 3);
    }

    #[test]
    fn clear_retains_capacity() {
        let mut batch = EventBatch::new();
        for i in 0..64 {
            batch.push(ev(i, i as i64));
        }
        let capacity = batch.capacity();
        assert!(capacity > 0);
        for _ in 0..5 {
            batch.clear();
            assert!(batch.is_empty());
            for i in 0..64 {
                batch.push(ev(i, i as i64));
            }
            assert_eq!(batch.capacity(), capacity, "clear/refill reallocated");
        }
    }

    #[test]
    fn iteration_and_size() {
        let messages: Vec<EventMessage> = (0..4).map(|i| ev(i, i as i64)).collect();
        let batch: EventBatch = messages.iter().cloned().collect();
        let ids: Vec<EventId> = batch.iter().map(EventRef::id).collect();
        let expected_ids: Vec<EventId> = messages.iter().map(EventMessage::id).collect();
        assert_eq!(ids, expected_ids);
        let expected: usize = messages.iter().map(EventMessage::size_bytes).sum();
        assert_eq!(batch.size_bytes(), expected);
    }

    #[test]
    fn push_from_rebuilds_equal_events_without_growing() {
        let mut reference = EventBatch::new();
        for i in 0..32 {
            reference.push(ev(i, i as i64));
        }
        // Rebuild the same batch pair-by-pair from the reference arena.
        let mut rebuilt = EventBatch::new();
        for i in 0..reference.len() {
            rebuilt.push_from(&reference, i);
        }
        assert_eq!(rebuilt, reference);

        // Steady state: clear + refill through push_from reuses the id,
        // span, and arena buffers — zero growth.
        let capacity = rebuilt.capacity();
        for _ in 0..4 {
            rebuilt.clear();
            for i in 0..reference.len() {
                rebuilt.push_from(&reference, i);
            }
            assert_eq!(rebuilt, reference);
            assert_eq!(rebuilt.capacity(), capacity, "refill reallocated");
        }
    }

    #[test]
    fn failed_try_push_with_leaves_the_batch_unchanged() {
        let mut batch = EventBatch::new();
        batch.push(ev(1, 10));
        let before = batch.clone();
        let price = crate::attr::intern("price");
        let result = batch.try_push_with(EventId::from_raw(2), |pairs| {
            pairs.push(price, Value::Int(1));
            Err("decode failed")
        });
        assert_eq!(result, Err("decode failed"));
        assert_eq!(batch, before);
        assert_eq!(batch.arena_pairs().len(), 2, "half-built pairs left behind");
        batch
            .try_push_with(EventId::from_raw(2), |pairs| {
                pairs.push(price, Value::Int(20));
                Ok::<(), ()>(())
            })
            .unwrap();
        assert_eq!(
            batch.event(1).to_message(),
            EventMessage::builder()
                .id(2u64)
                .attr("price", 20i64)
                .build()
        );
    }

    #[test]
    fn attr_groups_transpose_the_arena() {
        let mut batch = EventBatch::new();
        batch.push(ev(1, 10)); // category, price
        batch.push(EventMessage::builder().attr("price", 20i64).build());
        batch.push(
            EventMessage::builder()
                .attr("seller", "s-1")
                .attr("price", 30i64)
                .build(),
        );
        let mut groups = AttrGroups::new();
        groups.group(&batch);

        // First-seen order: category (event 0), price (event 0), seller
        // (event 2).
        let names: Vec<&str> = groups
            .attrs()
            .iter()
            .map(|&a| crate::attr::name(a))
            .collect();
        assert_eq!(names, ["category", "price", "seller"]);
        assert_eq!(groups.len(), 3);
        assert!(!groups.is_empty());

        // Every entry resolves to a pair of the named attribute, entries
        // cover the arena exactly once, and events appear in order.
        let arena = batch.arena_pairs();
        let mut covered = vec![false; arena.len()];
        for (group, &attr) in groups.attrs().iter().enumerate() {
            let mut last_event = 0;
            for &(event, arena_index) in groups.entries(group) {
                assert!(event >= last_event, "entries out of event order");
                last_event = event;
                assert_eq!(arena[arena_index as usize].0, attr);
                assert!(batch
                    .resolved_pairs(event as usize)
                    .iter()
                    .any(|(id, v)| *id == attr && *v == arena[arena_index as usize].1));
                assert!(!covered[arena_index as usize], "arena pair grouped twice");
                covered[arena_index as usize] = true;
            }
        }
        assert!(covered.iter().all(|&c| c), "arena pair missing from groups");
        assert_eq!(groups.entries(1).len(), 3, "price occurs in all 3 events");
    }

    #[test]
    fn attr_groups_reuse_scratch_across_batches() {
        let mut groups = AttrGroups::new();
        let mut batch = EventBatch::new();
        for round in 0..6 {
            batch.clear();
            for i in 0..32 {
                batch.push(ev(i, (i + round) as i64));
            }
            groups.group(&batch);
            assert_eq!(groups.len(), 2);
        }
        let capacity = groups.capacity();
        for round in 0..6 {
            batch.clear();
            for i in 0..32 {
                batch.push(ev(i, (i * round) as i64));
            }
            groups.group(&batch);
        }
        assert_eq!(groups.capacity(), capacity, "steady-state grouping grew");
    }

    #[test]
    fn attr_groups_handle_empty_batches_and_empty_events() {
        let mut groups = AttrGroups::new();
        groups.group(&EventBatch::new());
        assert!(groups.is_empty());
        let mut batch = EventBatch::new();
        batch.push(EventMessage::empty(EventId::from_raw(1)));
        groups.group(&batch);
        assert!(groups.is_empty());
        // Regrouping after a non-empty batch resets cleanly.
        batch.push(ev(2, 5));
        groups.group(&batch);
        assert_eq!(groups.len(), 2);
        groups.group(&EventBatch::new());
        assert!(groups.is_empty());
    }

    #[test]
    fn empty_events_keep_spans_consistent() {
        let mut batch = EventBatch::new();
        batch.push(EventMessage::empty(EventId::from_raw(7)));
        batch.push(ev(8, 1));
        assert_eq!(batch.resolved(0).count(), 0);
        assert_eq!(batch.resolved(1).count(), 2);
    }
}
