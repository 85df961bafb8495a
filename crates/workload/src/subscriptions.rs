//! The three auction subscription classes and their generator.

use crate::catalog::Catalog;
use crate::schema::{attributes, AuctionSchema, CONDITIONS};
use pubsub_core::{Expr, SubscriberId, Subscription, SubscriptionId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The three subscription classes typical for online book auctions
/// (Section 4 of the paper, following its reference \[4\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubscriptionClass {
    /// *Title watcher*: waits for a specific title below a price limit —
    /// a small conjunctive subscription
    /// (`title = T AND price <= P [AND condition = C] [AND buy_now = true]`).
    TitleWatcher,
    /// *Category browser*: follows a handful of categories with price and
    /// seller-rating constraints — a disjunction of categories nested in a
    /// conjunction
    /// (`(category = C1 OR ... OR category = Ck) AND price <= P AND seller_rating >= R`).
    CategoryBrowser,
    /// *Bargain hunter*: tracks one or two authors and fires either on a low
    /// price or on auctions that are about to close with little bidding —
    /// a deeper Boolean expression, optionally with a negated condition
    /// (`(author = A1 [OR author = A2]) AND (price <= P OR (bids <= B AND end_time <= H)) [AND NOT(condition = "worn")]`).
    BargainHunter,
}

impl SubscriptionClass {
    /// All classes in a stable order.
    pub const ALL: [SubscriptionClass; 3] = [
        SubscriptionClass::TitleWatcher,
        SubscriptionClass::CategoryBrowser,
        SubscriptionClass::BargainHunter,
    ];
}

/// The proportions with which the three classes are generated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassMix {
    /// Fraction of [`SubscriptionClass::TitleWatcher`] subscriptions.
    pub title_watcher: f64,
    /// Fraction of [`SubscriptionClass::CategoryBrowser`] subscriptions.
    pub category_browser: f64,
    /// Fraction of [`SubscriptionClass::BargainHunter`] subscriptions.
    pub bargain_hunter: f64,
}

impl ClassMix {
    /// The default mix: 40 % title watchers, 35 % category browsers,
    /// 25 % bargain hunters.
    pub fn default_mix() -> Self {
        Self {
            title_watcher: 0.40,
            category_browser: 0.35,
            bargain_hunter: 0.25,
        }
    }

    /// A title-watcher-heavy mix (60 % / 20 % / 20 %): most subscriptions
    /// carry an equality predicate on the Zipf-distributed `title` key. Used
    /// by the hot-key workload, where title popularity skew concentrates both
    /// events and subscriptions on a few hot titles.
    pub fn title_heavy() -> Self {
        Self {
            title_watcher: 0.60,
            category_browser: 0.20,
            bargain_hunter: 0.20,
        }
    }

    /// A mix consisting of a single class (useful in tests and ablations).
    pub fn only(class: SubscriptionClass) -> Self {
        let mut mix = Self {
            title_watcher: 0.0,
            category_browser: 0.0,
            bargain_hunter: 0.0,
        };
        match class {
            SubscriptionClass::TitleWatcher => mix.title_watcher = 1.0,
            SubscriptionClass::CategoryBrowser => mix.category_browser = 1.0,
            SubscriptionClass::BargainHunter => mix.bargain_hunter = 1.0,
        }
        mix
    }

    /// Picks a class according to the mix from a uniform sample in `[0, 1)`.
    pub fn pick(&self, sample: f64) -> SubscriptionClass {
        let total = self.title_watcher + self.category_browser + self.bargain_hunter;
        let sample = sample.clamp(0.0, 1.0) * total;
        if sample < self.title_watcher {
            SubscriptionClass::TitleWatcher
        } else if sample < self.title_watcher + self.category_browser {
            SubscriptionClass::CategoryBrowser
        } else {
            SubscriptionClass::BargainHunter
        }
    }
}

impl Default for ClassMix {
    fn default() -> Self {
        Self::default_mix()
    }
}

/// Generates subscriptions of the three auction classes.
#[derive(Debug, Clone)]
pub struct SubscriptionGenerator {
    titles: Catalog,
    authors: Catalog,
    categories: Catalog,
    mix: ClassMix,
    rng: StdRng,
    next_id: u64,
}

impl SubscriptionGenerator {
    /// Creates a generator over the given schema, seeded deterministically.
    pub fn new(schema: AuctionSchema, mix: ClassMix, seed: u64) -> Self {
        Self {
            titles: Catalog::new("title", schema.title_count, schema.popularity_skew),
            authors: Catalog::new("author", schema.author_count, schema.popularity_skew),
            categories: Catalog::new("cat", schema.category_count, schema.category_skew),
            mix,
            rng: StdRng::seed_from_u64(seed),
            next_id: 0,
        }
    }

    /// The class mix this generator draws from.
    pub fn mix(&self) -> &ClassMix {
        &self.mix
    }

    /// Generates the next subscription, owned by the given subscriber.
    pub fn next_subscription(&mut self, subscriber: SubscriberId) -> Subscription {
        let class = self.mix.pick(self.rng.gen_range(0.0..1.0));
        self.next_of_class(class, subscriber)
    }

    /// Generates the next subscription of a specific class.
    pub fn next_of_class(
        &mut self,
        class: SubscriptionClass,
        subscriber: SubscriberId,
    ) -> Subscription {
        let id = SubscriptionId::from_raw(self.next_id);
        self.next_id += 1;
        let expr = match class {
            SubscriptionClass::TitleWatcher => self.title_watcher(),
            SubscriptionClass::CategoryBrowser => self.category_browser(),
            SubscriptionClass::BargainHunter => self.bargain_hunter(),
        };
        Subscription::from_expr(id, subscriber, &expr)
    }

    /// Generates `count` subscriptions round-robin over `subscriber_count`
    /// subscribers.
    pub fn subscriptions(&mut self, count: usize, subscriber_count: usize) -> Vec<Subscription> {
        let subscriber_count = subscriber_count.max(1);
        (0..count)
            .map(|i| self.next_subscription(SubscriberId::from_raw((i % subscriber_count) as u64)))
            .collect()
    }

    fn price_limit(&mut self) -> f64 {
        // Watchers typically cap prices between 5 and 60 currency units.
        (self.rng.gen_range(5.0..60.0f64) * 2.0).round() / 2.0
    }

    fn title_watcher(&mut self) -> Expr {
        let mut clauses = vec![
            Expr::eq(attributes::TITLE, self.titles.sample(&mut self.rng)),
            Expr::le(attributes::PRICE, self.price_limit()),
        ];
        if self.rng.gen_bool(0.5) {
            let condition = CONDITIONS[self.rng.gen_range(0..2)]; // new or like-new
            clauses.push(Expr::eq(attributes::CONDITION, condition));
        }
        if self.rng.gen_bool(0.25) {
            clauses.push(Expr::eq(attributes::BUY_NOW, true));
        }
        Expr::and(clauses)
    }

    fn category_browser(&mut self) -> Expr {
        let category_count = self.rng.gen_range(2..=4usize);
        let mut seen = std::collections::HashSet::new();
        let mut categories = Vec::new();
        while categories.len() < category_count {
            let c = self.categories.sample(&mut self.rng);
            if seen.insert(c.clone()) {
                categories.push(Expr::eq(attributes::CATEGORY, c));
            }
            if seen.len() >= self.categories.len() {
                break;
            }
        }
        let mut clauses = vec![
            Expr::or(categories),
            Expr::le(attributes::PRICE, self.price_limit()),
        ];
        if self.rng.gen_bool(0.7) {
            let rating = (self.rng.gen_range(2.0..4.5f64) * 10.0).round() / 10.0;
            clauses.push(Expr::ge(attributes::SELLER_RATING, rating));
        }
        if self.rng.gen_bool(0.3) {
            clauses.push(Expr::le(
                attributes::SHIPPING_COST,
                self.rng.gen_range(3.0..9.0f64),
            ));
        }
        Expr::and(clauses)
    }

    fn bargain_hunter(&mut self) -> Expr {
        let author_clause = if self.rng.gen_bool(0.5) {
            Expr::eq(attributes::AUTHOR, self.authors.sample(&mut self.rng))
        } else {
            Expr::or(vec![
                Expr::eq(attributes::AUTHOR, self.authors.sample(&mut self.rng)),
                Expr::eq(
                    attributes::AUTHOR,
                    self.authors.sample_uniform(&mut self.rng),
                ),
            ])
        };
        let bargain_clause = Expr::or(vec![
            Expr::le(attributes::PRICE, self.rng.gen_range(5.0..20.0f64)),
            Expr::and(vec![
                Expr::le(attributes::BIDS, self.rng.gen_range(1..4i64)),
                Expr::le(attributes::END_TIME_HOURS, self.rng.gen_range(2..24i64)),
            ]),
        ]);
        let mut clauses = vec![author_clause, bargain_clause];
        if self.rng.gen_bool(0.4) {
            clauses.push(Expr::not(Expr::eq(attributes::CONDITION, "worn")));
        }
        Expr::and(clauses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_core::NodeKind;

    fn generator() -> SubscriptionGenerator {
        SubscriptionGenerator::new(AuctionSchema::small(), ClassMix::default_mix(), 13)
    }

    #[test]
    fn class_mix_picks_all_classes() {
        let mix = ClassMix::default_mix();
        assert_eq!(mix.pick(0.0), SubscriptionClass::TitleWatcher);
        assert_eq!(mix.pick(0.5), SubscriptionClass::CategoryBrowser);
        assert_eq!(mix.pick(0.99), SubscriptionClass::BargainHunter);
        let only = ClassMix::only(SubscriptionClass::BargainHunter);
        for s in [0.0, 0.3, 0.9] {
            assert_eq!(only.pick(s), SubscriptionClass::BargainHunter);
        }
    }

    #[test]
    fn title_watchers_are_conjunctive() {
        let mut g = SubscriptionGenerator::new(
            AuctionSchema::small(),
            ClassMix::only(SubscriptionClass::TitleWatcher),
            3,
        );
        for i in 0..50u64 {
            let s = g.next_subscription(SubscriberId::from_raw(i));
            let expr = s.tree().to_expr();
            assert!(expr.is_conjunctive(), "title watcher should be conjunctive");
            assert!(s.tree().predicate_count() >= 2);
            assert!(s.tree().predicate_count() <= 4);
        }
    }

    #[test]
    fn category_browsers_contain_a_category_disjunction() {
        let mut g = SubscriptionGenerator::new(
            AuctionSchema::small(),
            ClassMix::only(SubscriptionClass::CategoryBrowser),
            4,
        );
        for i in 0..50u64 {
            let s = g.next_subscription(SubscriberId::from_raw(i));
            let has_or = s
                .tree()
                .node_ids()
                .any(|id| matches!(s.tree().node(id).unwrap().kind(), NodeKind::Or));
            assert!(has_or, "category browser should contain an OR node");
            assert!(s.tree().predicate_count() >= 3);
        }
    }

    #[test]
    fn bargain_hunters_are_nested_and_sometimes_negated() {
        let mut g = SubscriptionGenerator::new(
            AuctionSchema::small(),
            ClassMix::only(SubscriptionClass::BargainHunter),
            5,
        );
        let subs: Vec<Subscription> = (0..100u64)
            .map(|i| g.next_subscription(SubscriberId::from_raw(i)))
            .collect();
        let with_not = subs
            .iter()
            .filter(|s| {
                s.tree()
                    .node_ids()
                    .any(|id| matches!(s.tree().node(id).unwrap().kind(), NodeKind::Not))
            })
            .count();
        assert!(
            with_not > 10,
            "some bargain hunters should carry a negation"
        );
        assert!(with_not < 90, "not all of them should");
        for s in &subs {
            assert!(s.tree().depth() >= 3, "bargain hunters are nested");
        }
    }

    #[test]
    fn ids_are_unique_and_subscribers_round_robin() {
        let mut g = generator();
        let subs = g.subscriptions(40, 8);
        let ids: std::collections::HashSet<SubscriptionId> = subs.iter().map(|s| s.id()).collect();
        assert_eq!(ids.len(), 40);
        let subscribers: std::collections::HashSet<SubscriberId> =
            subs.iter().map(|s| s.subscriber()).collect();
        assert_eq!(subscribers.len(), 8);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let mut a = generator();
        let mut b = generator();
        let sa = a.subscriptions(30, 5);
        let sb = b.subscriptions(30, 5);
        assert_eq!(sa, sb);
    }

    #[test]
    fn generated_subscriptions_are_prunable() {
        // The whole point of the workload: most subscriptions admit at least
        // one valid pruning.
        let mut g = generator();
        let subs = g.subscriptions(200, 20);
        let prunable = subs
            .iter()
            .filter(|s| !s.tree().generalizing_removals().is_empty())
            .count();
        assert!(
            prunable > 150,
            "most generated subscriptions should be prunable, got {prunable}/200"
        );
    }
}
