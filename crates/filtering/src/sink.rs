//! Match sinks: where batch matching delivers its results.
//!
//! [`MatchingEngine::match_batch`](crate::MatchingEngine::match_batch) does
//! not return a collection; it streams every `(event index, subscription,
//! subscriber)` match into a caller-provided [`MatchSink`]. Decoupling
//! matching from result consumption (the sink style Retina uses for its
//! filtered network streams) means the engine never allocates on behalf of
//! the caller, and a consumer that only needs a count, a forwarding
//! decision, or per-event grouping pays exactly for what it uses.
//!
//! Three sinks cover the common cases:
//!
//! * [`VecSink`] — collects flat `(event_index, SubscriptionId)` pairs;
//! * [`CountSink`] — counts matches without storing them;
//! * [`PerEventSink`] — groups the matched subscription ids per event.
//!
//! All three are reusable: [`MatchSink::begin_batch`] resets them while
//! retaining their allocations, so driving batch after batch through one
//! sink is allocation-free in steady state. They store ids only and drop
//! the subscriber: their readers (differential tests, the benchmark's
//! oracle, per-event grouping) compare subscriptions, and a wider element
//! would only cost them memory. Custom sinks are first-class: the broker's
//! routing table writes its local deliveries straight from the subscriber
//! argument, and flags *whether* each event matched a neighbor's entries
//! with another.

use pubsub_core::{SubscriberId, SubscriptionId};

/// Consumer of batch-matching results.
///
/// Engines call [`begin_batch`](Self::begin_batch) once per
/// `match_batch` invocation and then
/// [`on_match`](Self::on_match) once per match. Within one event the
/// matches arrive sorted by subscription id, and event indexes arrive in
/// non-decreasing order, so sink output is deterministic.
pub trait MatchSink {
    /// Called once at the start of a batch with the number of events the
    /// batch contains. Reusable sinks reset themselves here, retaining
    /// allocations. The default implementation does nothing.
    fn begin_batch(&mut self, batch_len: usize) {
        let _ = batch_len;
    }

    /// Called once per match: the event at `event_index` (position in the
    /// batch) fulfilled subscription `sub`, registered by `subscriber`.
    ///
    /// Every engine holds the subscriber where it decides a match (a slot
    /// entry, a DAG root's subscriber list), so handing it over costs
    /// nothing, while a consumer that delivers would otherwise have to look
    /// each id up again.
    fn on_match(&mut self, event_index: usize, sub: SubscriptionId, subscriber: SubscriberId);
}

/// A sink that collects every match as a flat `(event_index, id)` pair.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    matches: Vec<(usize, SubscriptionId)>,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The collected `(event_index, subscription)` pairs, in emission order
    /// (grouped by event, id-sorted within an event).
    pub fn matches(&self) -> &[(usize, SubscriptionId)] {
        &self.matches
    }

    /// Number of collected matches.
    pub fn len(&self) -> usize {
        self.matches.len()
    }

    /// Returns `true` if no matches were collected.
    pub fn is_empty(&self) -> bool {
        self.matches.is_empty()
    }

    /// Drops the collected matches, retaining the allocation.
    pub fn clear(&mut self) {
        self.matches.clear();
    }

    /// Consumes the sink, returning the collected pairs.
    pub fn into_matches(self) -> Vec<(usize, SubscriptionId)> {
        self.matches
    }
}

impl MatchSink for VecSink {
    fn begin_batch(&mut self, _batch_len: usize) {
        self.matches.clear();
    }

    fn on_match(&mut self, event_index: usize, sub: SubscriptionId, _subscriber: SubscriberId) {
        self.matches.push((event_index, sub));
    }
}

/// A sink that only counts matches — the cheapest way to drive a benchmark
/// or a throughput experiment through the batch API.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountSink {
    count: u64,
}

impl CountSink {
    /// Creates a zeroed sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of matches observed in the most recent batch.
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl MatchSink for CountSink {
    fn begin_batch(&mut self, _batch_len: usize) {
        self.count = 0;
    }

    fn on_match(&mut self, _event_index: usize, _sub: SubscriptionId, _subscriber: SubscriberId) {
        self.count += 1;
    }
}

/// A sink that groups the matched subscription ids per batch event.
///
/// After a batch, [`for_event`](Self::for_event) returns the id-sorted
/// matches of each event — the shape per-event consumers (delivery fan-out,
/// differential tests) want. The nested buffers are reused across batches.
#[derive(Debug, Clone, Default)]
pub struct PerEventSink {
    per_event: Vec<Vec<SubscriptionId>>,
    /// Number of events in the current batch (`per_event` may be longer,
    /// keeping spare buffers from earlier, larger batches).
    len: usize,
}

impl PerEventSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events in the most recent batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the most recent batch was empty (or none was run).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The matches of the event at `index`, sorted by subscription id.
    ///
    /// # Panics
    /// Panics if `index` is not below the current batch length.
    pub fn for_event(&self, index: usize) -> &[SubscriptionId] {
        assert!(index < self.len, "event index {index} out of batch range");
        &self.per_event[index]
    }

    /// Iterates over the per-event match lists of the current batch.
    pub fn iter(&self) -> impl Iterator<Item = &[SubscriptionId]> {
        self.per_event[..self.len].iter().map(Vec::as_slice)
    }

    /// Total matches across the current batch.
    pub fn total_matches(&self) -> usize {
        self.per_event[..self.len].iter().map(Vec::len).sum()
    }
}

impl MatchSink for PerEventSink {
    fn begin_batch(&mut self, batch_len: usize) {
        if self.per_event.len() < batch_len {
            self.per_event.resize_with(batch_len, Vec::new);
        }
        for bucket in &mut self.per_event[..batch_len.max(self.len)] {
            bucket.clear();
        }
        self.len = batch_len;
    }

    fn on_match(&mut self, event_index: usize, sub: SubscriptionId, _subscriber: SubscriberId) {
        self.per_event[event_index].push(sub);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(raw: u64) -> SubscriptionId {
        SubscriptionId::from_raw(raw)
    }

    fn who(raw: u64) -> SubscriberId {
        SubscriberId::from_raw(raw)
    }

    #[test]
    fn vec_sink_collects_pairs_and_resets() {
        let mut sink = VecSink::new();
        sink.begin_batch(2);
        sink.on_match(0, id(3), who(0));
        sink.on_match(1, id(1), who(0));
        assert_eq!(sink.matches(), &[(0, id(3)), (1, id(1))]);
        assert_eq!(sink.len(), 2);
        assert!(!sink.is_empty());
        sink.begin_batch(1);
        assert!(sink.is_empty());
        sink.on_match(0, id(9), who(0));
        assert_eq!(sink.clone().into_matches(), vec![(0, id(9))]);
        sink.clear();
        assert!(sink.is_empty());
    }

    #[test]
    fn count_sink_counts_per_batch() {
        let mut sink = CountSink::new();
        sink.begin_batch(4);
        for i in 0..5 {
            sink.on_match(i % 4, id(i as u64), who(0));
        }
        assert_eq!(sink.count(), 5);
        sink.begin_batch(1);
        assert_eq!(sink.count(), 0);
    }

    #[test]
    fn per_event_sink_groups_and_reuses_buffers() {
        let mut sink = PerEventSink::new();
        sink.begin_batch(3);
        sink.on_match(0, id(1), who(0));
        sink.on_match(2, id(2), who(0));
        sink.on_match(2, id(5), who(0));
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.for_event(0), &[id(1)]);
        assert!(sink.for_event(1).is_empty());
        assert_eq!(sink.for_event(2), &[id(2), id(5)]);
        assert_eq!(sink.total_matches(), 3);
        assert_eq!(sink.iter().count(), 3);

        // A smaller follow-up batch must not leak the previous batch's
        // matches.
        sink.begin_batch(1);
        sink.on_match(0, id(7), who(0));
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.for_event(0), &[id(7)]);
        assert_eq!(sink.total_matches(), 1);

        // Growing again reuses the (cleared) spare buckets.
        sink.begin_batch(3);
        assert_eq!(sink.total_matches(), 0);
        assert!(sink.for_event(2).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of batch range")]
    fn per_event_sink_checks_batch_range() {
        let mut sink = PerEventSink::new();
        sink.begin_batch(4);
        sink.begin_batch(1);
        // Index 3 exists as a spare bucket but is outside the current batch.
        let _ = sink.for_event(3);
    }
}
