//! Auction event generation.

use crate::catalog::Catalog;
use crate::schema::{AttrIds, AuctionSchema, CONDITIONS};
use pubsub_core::{EventBatch, EventId, EventMessage};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, LogNormal, Poisson};

/// Generates auction event messages following the characteristic
/// distributions of online book auctions.
///
/// Each event describes the state of one auction listing: which book it is
/// (title/author/category, Zipf-skewed popularity), its price (log-normal),
/// bidding activity (Poisson), the seller's rating, and auxiliary attributes
/// (condition, buy-now flag, shipping cost, hours to closing).
#[derive(Debug, Clone)]
pub struct EventGenerator {
    schema: AuctionSchema,
    titles: Catalog,
    authors: Catalog,
    categories: Catalog,
    price: LogNormal<f64>,
    bids: Poisson<f64>,
    rng: StdRng,
    next_id: u64,
    /// Schema attribute names resolved to interned ids once, so every
    /// generated event is built without hashing attribute strings.
    attr_ids: AttrIds,
}

impl EventGenerator {
    /// Creates a generator over the given schema, seeded deterministically.
    pub fn new(schema: AuctionSchema, seed: u64) -> Self {
        let price = LogNormal::new(schema.median_price.ln(), schema.price_sigma)
            .expect("price sigma is finite and positive");
        let bids = Poisson::new(schema.mean_bids.max(0.1)).expect("positive mean bid count");
        Self {
            titles: Catalog::new("title", schema.title_count, schema.popularity_skew),
            authors: Catalog::new("author", schema.author_count, schema.popularity_skew),
            categories: Catalog::new("cat", schema.category_count, schema.category_skew),
            price,
            bids,
            rng: StdRng::seed_from_u64(seed),
            next_id: 0,
            attr_ids: AttrIds::resolve(),
            schema,
        }
    }

    /// The schema this generator draws from.
    pub fn schema(&self) -> &AuctionSchema {
        &self.schema
    }

    /// The title catalog (shared with the subscription generator).
    pub fn titles(&self) -> &Catalog {
        &self.titles
    }

    /// The author catalog.
    pub fn authors(&self) -> &Catalog {
        &self.authors
    }

    /// The category catalog.
    pub fn categories(&self) -> &Catalog {
        &self.categories
    }

    /// Generates the next event message.
    pub fn next_event(&mut self) -> EventMessage {
        let id = EventId::from_raw(self.next_id);
        self.next_id += 1;

        // Correlate title, author, and category mildly: the title index seeds
        // the author/category choice so the same book tends to keep the same
        // author/category across events, as in a real listing feed.
        let title_idx = self.titles.sample_index(&mut self.rng);
        let author_idx = title_idx % self.authors.len();
        let category_idx = title_idx % self.categories.len();

        let price = (self.price.sample(&mut self.rng) * 100.0).round() / 100.0;
        let bids = self.bids.sample(&mut self.rng) as i64;
        let rating = (self.rng.gen_range(0.0..=5.0f64) * 10.0).round() / 10.0;
        let end_time = self.rng.gen_range(0..=self.schema.max_end_time_hours);
        let condition = CONDITIONS[self.rng.gen_range(0..CONDITIONS.len())];
        let buy_now = self.rng.gen_bool(0.35);
        let shipping = (self.rng.gen_range(0.0..12.0f64) * 100.0).round() / 100.0;

        let ids = &self.attr_ids;
        EventMessage::builder()
            .id(id)
            .attr_id(ids.title, self.titles.name(title_idx))
            .attr_id(ids.author, self.authors.name(author_idx))
            .attr_id(ids.category, self.categories.name(category_idx))
            .attr_id(ids.price, price)
            .attr_id(ids.bids, bids)
            .attr_id(ids.seller_rating, rating)
            .attr_id(ids.end_time_hours, end_time)
            .attr_id(ids.condition, condition)
            .attr_id(ids.buy_now, buy_now)
            .attr_id(ids.shipping_cost, shipping)
            .build()
    }

    /// Generates `count` event messages.
    pub fn events(&mut self, count: usize) -> Vec<EventMessage> {
        (0..count).map(|_| self.next_event()).collect()
    }

    /// Generates `count` events as an [`EventBatch`].
    pub fn event_batch(&mut self, count: usize) -> EventBatch {
        let mut batch = EventBatch::with_capacity(count, 10);
        self.fill_event_batch(count, &mut batch);
        batch
    }

    /// Clears `batch` and refills it with the next `count` events.
    ///
    /// Sustained-stream drivers keep one batch alive and refill it between
    /// `match_batch` calls (or wire `encode_publish_batch` frames); the
    /// batch retains its id, span, and arena allocations across the clear,
    /// so the steady state allocates only the freshly generated events
    /// themselves.
    pub fn fill_event_batch(&mut self, count: usize, batch: &mut EventBatch) {
        batch.clear();
        for _ in 0..count {
            batch.push(self.next_event());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::attributes;
    use pubsub_core::Value;

    fn generator() -> EventGenerator {
        EventGenerator::new(AuctionSchema::small(), 11)
    }

    #[test]
    fn events_carry_the_full_schema() {
        let mut g = generator();
        let ev = g.next_event();
        for attr in [
            attributes::TITLE,
            attributes::AUTHOR,
            attributes::CATEGORY,
            attributes::PRICE,
            attributes::BIDS,
            attributes::SELLER_RATING,
            attributes::END_TIME_HOURS,
            attributes::CONDITION,
            attributes::BUY_NOW,
            attributes::SHIPPING_COST,
        ] {
            assert!(ev.contains(attr), "missing attribute {attr}");
        }
        assert_eq!(ev.len(), 10);
    }

    #[test]
    fn event_ids_increase() {
        let mut g = generator();
        let a = g.next_event();
        let b = g.next_event();
        assert!(b.id().raw() > a.id().raw());
        let batch = g.events(10);
        assert_eq!(batch.len(), 10);
        assert!(batch[9].id().raw() > batch[0].id().raw());
    }

    #[test]
    fn values_respect_their_domains() {
        let mut g = generator();
        for ev in g.events(500) {
            let price = ev.get(attributes::PRICE).unwrap().as_f64().unwrap();
            assert!(price > 0.0, "price must be positive");
            let bids = match ev.get(attributes::BIDS).unwrap() {
                Value::Int(b) => *b,
                other => panic!("bids should be an integer, got {other:?}"),
            };
            assert!(bids >= 0);
            let rating = ev.get(attributes::SELLER_RATING).unwrap().as_f64().unwrap();
            assert!((0.0..=5.0).contains(&rating));
            let end = ev
                .get(attributes::END_TIME_HOURS)
                .unwrap()
                .as_f64()
                .unwrap();
            assert!((0.0..=168.0).contains(&end));
            let condition = ev.get(attributes::CONDITION).unwrap().as_str().unwrap();
            assert!(CONDITIONS.contains(&condition));
        }
    }

    #[test]
    fn popular_titles_dominate_the_stream() {
        let mut g = generator();
        let events = g.events(2000);
        let top_title = g.titles().name(0);
        let top_count = events
            .iter()
            .filter(|e| e.get(attributes::TITLE).and_then(|v| v.as_str()) == Some(&*top_title))
            .count();
        let rare_title = g.titles().name(g.titles().len() - 1);
        let rare_count = events
            .iter()
            .filter(|e| e.get(attributes::TITLE).and_then(|v| v.as_str()) == Some(&*rare_title))
            .count();
        assert!(
            top_count > rare_count,
            "most popular title ({top_count}) should beat the rarest ({rare_count})"
        );
        assert!(top_count >= 10, "Zipf head should appear frequently");
    }

    #[test]
    fn deterministic_for_equal_seeds_and_distinct_for_different_seeds() {
        let mut a = EventGenerator::new(AuctionSchema::small(), 5);
        let mut b = EventGenerator::new(AuctionSchema::small(), 5);
        let mut c = EventGenerator::new(AuctionSchema::small(), 6);
        let ea = a.events(50);
        let eb = b.events(50);
        let ec = c.events(50);
        assert_eq!(ea, eb);
        assert_ne!(ea, ec);
    }

    #[test]
    fn title_author_category_are_correlated() {
        let mut g = generator();
        let events = g.events(1000);
        use std::collections::HashMap;
        let mut title_to_author: HashMap<String, String> = HashMap::new();
        for ev in &events {
            let title = ev
                .get(attributes::TITLE)
                .unwrap()
                .as_str()
                .unwrap()
                .to_owned();
            let author = ev
                .get(attributes::AUTHOR)
                .unwrap()
                .as_str()
                .unwrap()
                .to_owned();
            if let Some(prev) = title_to_author.insert(title.clone(), author.clone()) {
                assert_eq!(prev, author, "title {title} switched author");
            }
        }
    }
}
