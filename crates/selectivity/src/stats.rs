//! Event-sample statistics per attribute.

use crate::histogram::{numeric_observation, CategoricalStats, NumericHistogram};
use pubsub_core::{attr, AttrId, EventMessage, Value};

/// Statistics about one attribute, gathered from an event sample.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeStatistics {
    /// Number of sampled events carrying this attribute.
    pub present: u64,
    /// Histogram over the numeric observations of this attribute.
    pub numeric: NumericHistogram,
    /// Frequency table over the string observations of this attribute.
    pub strings: CategoricalStats,
    /// Number of `true` boolean observations.
    pub bool_true: u64,
    /// Number of `false` boolean observations.
    pub bool_false: u64,
}

impl AttributeStatistics {
    fn from_observations(values: &[&Value]) -> Self {
        let numeric: Vec<f64> = values
            .iter()
            .filter_map(|v| numeric_observation(v))
            .collect();
        let strings: Vec<&str> = values.iter().filter_map(|v| v.as_str()).collect();
        let bool_true = values
            .iter()
            .filter(|v| matches!(v, Value::Bool(true)))
            .count() as u64;
        let bool_false = values
            .iter()
            .filter(|v| matches!(v, Value::Bool(false)))
            .count() as u64;
        Self {
            present: values.len() as u64,
            numeric: NumericHistogram::from_values(&numeric),
            strings: CategoricalStats::from_values(&strings),
            bool_true,
            bool_false,
        }
    }
}

/// Per-attribute statistics over a sample of event messages.
///
/// This is the knowledge base behind the selectivity estimation `sel≈` of the
/// paper's network-load heuristic. In a deployed system the statistics would
/// be maintained incrementally from the observed event stream; here they are
/// built from a sample (either historical events or a warm-up prefix of the
/// published stream).
///
/// Statistics are keyed by dense [`AttrId`] — the same hash-free probes the
/// matching engine uses: the estimator looks up a predicate's statistics by
/// indexing a flat `Vec` with the predicate's interned attribute id. The
/// name-based accessors remain as thin wrappers that resolve the name
/// through the interner first.
///
/// **Serde caveat:** as with raw `AttrId`s generally, the serialized form is
/// keyed by process-local ids and round-trips within one process only.
#[derive(Debug, Clone, PartialEq)]
pub struct EventStatistics {
    /// Indexed by `AttrId::index()`; `None` for interned attributes the
    /// sample never carried.
    attributes: Vec<Option<AttributeStatistics>>,
    attributes_observed: usize,
    event_count: u64,
}

impl EventStatistics {
    /// Builds statistics from a sample of events.
    pub fn from_events(events: &[EventMessage]) -> Self {
        // Observations bucketed per dense attribute id — no string hashing;
        // the events' ids were resolved when they were built.
        let mut observations: Vec<Vec<&Value>> = Vec::new();
        for event in events {
            for (id, value) in event.iter_resolved() {
                let index = id.index();
                if index >= observations.len() {
                    observations.resize_with(index + 1, Vec::new);
                }
                observations[index].push(value);
            }
        }
        let mut attributes_observed = 0;
        let attributes = observations
            .into_iter()
            .map(|values| {
                if values.is_empty() {
                    None
                } else {
                    attributes_observed += 1;
                    Some(AttributeStatistics::from_observations(&values))
                }
            })
            .collect();
        Self {
            attributes,
            attributes_observed,
            event_count: events.len() as u64,
        }
    }

    /// Number of events in the sample.
    pub fn event_count(&self) -> u64 {
        self.event_count
    }

    /// Number of distinct attributes observed.
    pub fn attribute_count(&self) -> usize {
        self.attributes_observed
    }

    /// Iterates over the observed attributes as `(AttrId::index(), stats)`
    /// pairs, in dense id order. Consumers that build per-attribute tables
    /// (e.g. [`DiscriminationHint`](crate::DiscriminationHint)) walk this
    /// instead of probing every interned id individually.
    pub fn iter_attributes(&self) -> impl Iterator<Item = (usize, &AttributeStatistics)> {
        self.attributes
            .iter()
            .enumerate()
            .filter_map(|(index, stats)| stats.as_ref().map(|s| (index, s)))
    }

    /// Statistics for one attribute by its interned id — the hot-path
    /// accessor: a flat `Vec` index, no hashing.
    #[inline]
    pub fn attribute_id(&self, id: AttrId) -> Option<&AttributeStatistics> {
        self.attributes.get(id.index())?.as_ref()
    }

    /// Statistics for one attribute by name, if it was observed at all.
    ///
    /// Thin resolving wrapper over [`attribute_id`](Self::attribute_id).
    pub fn attribute(&self, name: &str) -> Option<&AttributeStatistics> {
        self.attribute_id(attr::lookup(name)?)
    }

    /// Probability that a sampled event carries the attribute with the given
    /// interned id.
    #[inline]
    pub fn presence_probability_id(&self, id: AttrId) -> f64 {
        if self.event_count == 0 {
            return 0.0;
        }
        self.attribute_id(id)
            .map(|a| a.present as f64 / self.event_count as f64)
            .unwrap_or(0.0)
    }

    /// Probability that a sampled event carries the attribute.
    ///
    /// Thin resolving wrapper over
    /// [`presence_probability_id`](Self::presence_probability_id).
    pub fn presence_probability(&self, name: &str) -> f64 {
        attr::lookup(name)
            .map(|id| self.presence_probability_id(id))
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<EventMessage> {
        (0..50)
            .map(|i| {
                let mut b = EventMessage::builder()
                    .attr("price", i as i64)
                    .attr("category", if i % 5 == 0 { "books" } else { "music" });
                if i % 2 == 0 {
                    b = b.attr("featured", true);
                }
                b.build()
            })
            .collect()
    }

    #[test]
    fn statistics_cover_all_attributes() {
        let stats = EventStatistics::from_events(&sample_events());
        assert_eq!(stats.event_count(), 50);
        assert_eq!(stats.attribute_count(), 3);
        assert!(stats.attribute("price").is_some());
        assert!(stats.attribute("category").is_some());
        assert!(stats.attribute("featured").is_some());
        assert!(stats.attribute("missing").is_none());
    }

    #[test]
    fn presence_probability() {
        let stats = EventStatistics::from_events(&sample_events());
        assert_eq!(stats.presence_probability("price"), 1.0);
        assert!((stats.presence_probability("featured") - 0.5).abs() < 1e-9);
        assert_eq!(stats.presence_probability("missing"), 0.0);
    }

    #[test]
    fn per_attribute_breakdown() {
        let stats = EventStatistics::from_events(&sample_events());
        let price = stats.attribute("price").unwrap();
        assert_eq!(price.numeric.total(), 50);
        assert_eq!(price.strings.total(), 0);

        let category = stats.attribute("category").unwrap();
        assert_eq!(category.strings.total(), 50);
        assert!((category.strings.fraction_eq("books") - 0.2).abs() < 1e-9);

        let featured = stats.attribute("featured").unwrap();
        assert_eq!(featured.bool_true, 25);
        assert_eq!(featured.bool_false, 0);
    }

    #[test]
    fn id_accessors_agree_with_name_accessors() {
        let stats = EventStatistics::from_events(&sample_events());
        for name in ["price", "category", "featured"] {
            let id = attr::lookup(name).expect("sample attribute is interned");
            assert_eq!(stats.attribute_id(id), stats.attribute(name));
            assert_eq!(
                stats.presence_probability_id(id),
                stats.presence_probability(name)
            );
        }
        // An interned attribute the sample never carried reports nothing.
        let unseen = attr::intern("selectivity_stats_test_unseen");
        assert!(stats.attribute_id(unseen).is_none());
        assert_eq!(stats.presence_probability_id(unseen), 0.0);
    }

    #[test]
    fn empty_sample() {
        let stats = EventStatistics::from_events(&[]);
        assert_eq!(stats.event_count(), 0);
        assert_eq!(stats.attribute_count(), 0);
        assert_eq!(stats.presence_probability("anything"), 0.0);
    }

    #[test]
    fn mixed_type_attribute_is_split_by_type() {
        let events = vec![
            EventMessage::builder().attr("x", 1i64).build(),
            EventMessage::builder().attr("x", "one").build(),
            EventMessage::builder().attr("x", 2i64).build(),
        ];
        let stats = EventStatistics::from_events(&events);
        let x = stats.attribute("x").unwrap();
        assert_eq!(x.present, 3);
        assert_eq!(x.numeric.total(), 2);
        assert_eq!(x.strings.total(), 1);
    }
}
