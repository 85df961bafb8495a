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

    /// The arena slice holding the resolved pairs of the event at `index` —
    /// the borrowed form matching and the wire codec's encoder consume. The
    /// pairs of consecutive events are adjacent in memory, so a whole-batch
    /// match walks the arena front to back.
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
    /// concatenated in push order.
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
            assert_eq!(batch.resolved_pairs(i), message.resolved_pairs());
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
    fn empty_events_keep_spans_consistent() {
        let mut batch = EventBatch::new();
        batch.push(EventMessage::empty(EventId::from_raw(7)));
        batch.push(ev(8, 1));
        assert_eq!(batch.resolved_pairs(0).len(), 0);
        assert_eq!(batch.resolved_pairs(1).len(), 2);
    }
}
