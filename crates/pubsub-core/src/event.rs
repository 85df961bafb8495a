//! Event messages: sets of attribute–value pairs.

use crate::{attr, AttrId, EventId, Value};
use std::fmt;

/// A published event message.
///
/// Following the attribute–value pair model, an event message is a set of
/// attribute–value pairs describing its content, e.g. an auction event
/// `{title: "dune", category: "books", price: 12.5, bids: 3}`.
///
/// Attribute names are resolved to dense [`AttrId`]s through the global
/// interner exactly once, when the event is built. Matching engines therefore
/// never hash or compare attribute strings per event: they iterate
/// [`iter_resolved`](EventMessage::iter_resolved) and index flat per-attribute
/// tables by id. Entries are kept sorted by attribute *name* so that message
/// contents, iteration order, and [`Display`](fmt::Display) output stay
/// deterministic and independent of interning order. Because ids are
/// process-local, the portable encoding is the broker's wire codec, which
/// carries attribute names.
#[derive(Debug, Clone, PartialEq)]
pub struct EventMessage {
    id: EventId,
    /// Attribute entries sorted by interned attribute name.
    attributes: Vec<(AttrId, Value)>,
}

impl EventMessage {
    /// Starts building an event message with id 0.
    ///
    /// Use [`EventBuilder::id`] to assign a real identifier, or
    /// [`EventMessage::with_id`] afterwards.
    pub fn builder() -> EventBuilder {
        EventBuilder::new()
    }

    /// Creates an empty event message with the given id.
    pub fn empty(id: EventId) -> Self {
        Self {
            id,
            attributes: Vec::new(),
        }
    }

    /// The identifier of this event.
    pub fn id(&self) -> EventId {
        self.id
    }

    /// Returns a copy of this event with a different identifier.
    pub fn with_id(mut self, id: EventId) -> Self {
        self.id = id;
        self
    }

    /// Looks up the value of `attribute`, if present.
    pub fn get(&self, attribute: &str) -> Option<&Value> {
        let id = attr::lookup(attribute)?;
        self.get_id(id)
    }

    /// Looks up the value of an attribute by its interned id.
    ///
    /// This is the hot-path variant of [`get`](Self::get): no string hashing,
    /// just a linear scan over the event's few entries comparing `u32`s.
    #[inline]
    pub fn get_id(&self, id: AttrId) -> Option<&Value> {
        find_value(&self.attributes, id)
    }

    /// Returns `true` if the event carries the given attribute.
    pub fn contains(&self, attribute: &str) -> bool {
        self.get(attribute).is_some()
    }

    /// Number of attribute–value pairs in the event.
    pub fn len(&self) -> usize {
        self.attributes.len()
    }

    /// Returns `true` if the event carries no attributes.
    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty()
    }

    /// Iterates over the attribute–value pairs in attribute-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.attributes.iter().map(|(id, v)| (attr::name(*id), v))
    }

    /// Iterates over `(AttrId, &Value)` pairs in attribute-name order.
    ///
    /// This is what the filtering indexes consume: the ids were resolved when
    /// the event was built, so the whole matching path is string-free.
    #[inline]
    pub fn iter_resolved(&self) -> impl Iterator<Item = (AttrId, &Value)> + Clone {
        self.attributes.iter().map(|(id, v)| (*id, v))
    }

    /// The `(AttrId, Value)` pairs in attribute-name order, one per
    /// attribute — the borrowed form of [`iter_resolved`](Self::iter_resolved),
    /// and the same shape as `EventBatch::resolved_pairs`.
    #[inline]
    pub fn resolved_pairs(&self) -> &[(AttrId, Value)] {
        &self.attributes
    }

    /// Inserts (or replaces) an attribute–value pair.
    pub fn insert(&mut self, attribute: impl AsRef<str>, value: impl Into<Value>) {
        let id = attr::intern(attribute.as_ref());
        self.insert_id(id, value.into());
    }

    /// Inserts (or replaces) an attribute–value pair by pre-resolved id.
    pub fn insert_id(&mut self, id: AttrId, value: impl Into<Value>) {
        let value = value.into();
        match self.position_of(id) {
            Ok(pos) => self.attributes[pos].1 = value,
            Err(pos) => self.attributes.insert(pos, (id, value)),
        }
    }

    /// Removes an attribute, returning its previous value if present.
    pub fn remove(&mut self, attribute: &str) -> Option<Value> {
        let id = attr::lookup(attribute)?;
        match self.position_of(id) {
            Ok(pos) => Some(self.attributes.remove(pos).1),
            Err(_) => None,
        }
    }

    /// Builds an event from pre-resolved pairs that are already in
    /// attribute-name order with unique attributes — the form the batch
    /// arena stores.
    pub(crate) fn from_sorted_pairs(id: EventId, attributes: Vec<(AttrId, Value)>) -> Self {
        debug_assert!(
            is_name_sorted(&attributes),
            "event pairs must be name-sorted and deduplicated"
        );
        Self { id, attributes }
    }

    /// Splits the event into its id and its name-sorted pairs.
    pub(crate) fn into_parts(self) -> (EventId, Vec<(AttrId, Value)>) {
        (self.id, self.attributes)
    }

    /// Binary-searches the name-sorted entries for `id`, resolving all probe
    /// names under a single interner lock acquisition.
    fn position_of(&self, id: AttrId) -> Result<usize, usize> {
        let resolver = attr::resolver();
        let name = resolver.name(id);
        self.attributes
            .binary_search_by(|(aid, _)| resolver.name(*aid).cmp(name))
    }

    /// Approximate wire size of this event in bytes: attribute names plus
    /// value payloads plus a small fixed framing overhead per pair.
    ///
    /// The distributed simulation uses this to account for network load in
    /// bytes in addition to message counts.
    pub fn size_bytes(&self) -> usize {
        pairs_size_bytes(&self.attributes)
    }
}

/// The value of `id` among one event's resolved pairs — a linear scan over
/// a few `u32`s, shared by [`EventMessage`] and the batch's event view.
#[inline]
pub(crate) fn find_value(pairs: &[(AttrId, Value)], id: AttrId) -> Option<&Value> {
    pairs.iter().find(|(aid, _)| *aid == id).map(|(_, v)| v)
}

/// [`EventMessage::size_bytes`] of the event holding `pairs`.
pub(crate) fn pairs_size_bytes(pairs: &[(AttrId, Value)]) -> usize {
    const PER_PAIR_OVERHEAD: usize = 4;
    const HEADER: usize = 16;
    let resolver = attr::resolver();
    HEADER
        + pairs
            .iter()
            .map(|(id, v)| resolver.name(*id).len() + v.size_bytes() + PER_PAIR_OVERHEAD)
            .sum::<usize>()
}

/// Whether `pairs` are in strictly ascending attribute-name order.
pub(crate) fn is_name_sorted(pairs: &[(AttrId, Value)]) -> bool {
    let resolver = attr::resolver();
    pairs
        .windows(2)
        .all(|w| resolver.name(w[0].0) < resolver.name(w[1].0))
}

impl fmt::Display for EventMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{{", self.id)?;
        let mut first = true;
        for (k, v) in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{k}: {v}")?;
        }
        write!(f, "}}")
    }
}

/// Builder for [`EventMessage`].
#[derive(Debug, Default, Clone)]
pub struct EventBuilder {
    event: EventMessage,
}

impl Default for EventId {
    fn default() -> Self {
        EventId::from_raw(0)
    }
}

impl Default for EventMessage {
    fn default() -> Self {
        EventMessage::empty(EventId::default())
    }
}

impl EventBuilder {
    /// Creates a new builder with id 0 and no attributes.
    pub fn new() -> Self {
        Self {
            event: EventMessage::default(),
        }
    }

    /// Sets the event identifier.
    pub fn id(mut self, id: impl Into<EventId>) -> Self {
        self.event.id = id.into();
        self
    }

    /// Adds an attribute–value pair, interning the attribute name.
    pub fn attr(mut self, name: impl AsRef<str>, value: impl Into<Value>) -> Self {
        self.event.insert(name, value);
        self
    }

    /// Adds an attribute–value pair by pre-resolved [`AttrId`].
    ///
    /// Event generators resolve their schema's attribute ids once and use
    /// this to skip the interner's hash lookup on every event.
    pub fn attr_id(mut self, id: AttrId, value: impl Into<Value>) -> Self {
        self.event.insert_id(id, value);
        self
    }

    /// Finishes building the event message.
    pub fn build(self) -> EventMessage {
        self.event
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EventMessage {
        EventMessage::builder()
            .id(7u64)
            .attr("title", "dune")
            .attr("category", "books")
            .attr("price", 12.5)
            .attr("bids", 3i64)
            .build()
    }

    #[test]
    fn builder_produces_expected_contents() {
        let ev = sample();
        assert_eq!(ev.id(), EventId::from_raw(7));
        assert_eq!(ev.len(), 4);
        assert_eq!(ev.get("title"), Some(&Value::from("dune")));
        assert_eq!(ev.get("price"), Some(&Value::Float(12.5)));
        assert_eq!(ev.get("missing"), None);
        assert!(ev.contains("bids"));
        assert!(!ev.contains("seller"));
        assert!(!ev.is_empty());
    }

    #[test]
    fn empty_event() {
        let ev = EventMessage::empty(EventId::from_raw(1));
        assert!(ev.is_empty());
        assert_eq!(ev.len(), 0);
        assert_eq!(ev.id(), EventId::from_raw(1));
    }

    #[test]
    fn insert_replace_remove() {
        let mut ev = sample();
        ev.insert("price", 20.0);
        assert_eq!(ev.get("price"), Some(&Value::Float(20.0)));
        assert_eq!(ev.len(), 4);
        let removed = ev.remove("bids");
        assert_eq!(removed, Some(Value::Int(3)));
        assert_eq!(ev.len(), 3);
        assert_eq!(ev.remove("bids"), None);
    }

    #[test]
    fn iteration_is_sorted_by_attribute_name() {
        let ev = sample();
        let names: Vec<&str> = ev.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["bids", "category", "price", "title"]);
    }

    #[test]
    fn resolved_iteration_agrees_with_named_iteration() {
        let ev = sample();
        let by_name: Vec<(&str, &Value)> = ev.iter().collect();
        let by_id: Vec<(&str, &Value)> = ev
            .iter_resolved()
            .map(|(id, v)| (crate::attr::name(id), v))
            .collect();
        assert_eq!(by_name, by_id);
        for (id, v) in ev.iter_resolved() {
            assert_eq!(ev.get_id(id), Some(v));
        }
    }

    #[test]
    fn builder_attr_id_matches_attr() {
        let id = crate::attr::intern("price");
        let a = EventMessage::builder().attr("price", 1i64).build();
        let b = EventMessage::builder().attr_id(id, 1i64).build();
        assert_eq!(a, b);
        assert_eq!(b.get_id(id), Some(&Value::Int(1)));
    }

    #[test]
    fn with_id_replaces_identifier_only() {
        let ev = sample().with_id(EventId::from_raw(99));
        assert_eq!(ev.id(), EventId::from_raw(99));
        assert_eq!(ev.len(), 4);
    }

    #[test]
    fn size_estimate_grows_with_content() {
        let small = EventMessage::builder().attr("a", 1i64).build();
        let large = sample();
        assert!(large.size_bytes() > small.size_bytes());
        assert!(small.size_bytes() >= 16);
    }

    #[test]
    fn display_contains_attributes() {
        let s = sample().to_string();
        assert!(s.contains("event-7"));
        assert!(s.contains("title"));
        assert!(s.contains("\"dune\""));
    }
}
