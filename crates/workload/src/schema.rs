//! The auction event schema: attribute names and catalog sizes.

use pubsub_core::AttrId;

/// Attribute names used by auction events and subscriptions.
///
/// Keeping them in one module avoids typo'd attribute strings scattered over
/// generators, subscriptions, and tests.
pub mod attributes {
    /// Book title (string, Zipf-distributed popularity).
    pub const TITLE: &str = "title";
    /// Author name (string, Zipf-distributed popularity).
    pub const AUTHOR: &str = "author";
    /// Top-level category, e.g. "cat-03" (string, Zipf-distributed).
    pub const CATEGORY: &str = "category";
    /// Current price in currency units (float, log-normal).
    pub const PRICE: &str = "price";
    /// Number of bids placed so far (integer, geometric-ish).
    pub const BIDS: &str = "bids";
    /// Seller rating in `[0, 5]` (float).
    pub const SELLER_RATING: &str = "seller_rating";
    /// Hours until the auction closes (integer, uniform).
    pub const END_TIME_HOURS: &str = "end_time_hours";
    /// Item condition: `"new"`, `"like-new"`, `"used"`, or `"worn"`.
    pub const CONDITION: &str = "condition";
    /// Whether the auction offers a buy-now option (bool).
    pub const BUY_NOW: &str = "buy_now";
    /// Shipping cost in currency units (float).
    pub const SHIPPING_COST: &str = "shipping_cost";
}

/// Item conditions used by the [`attributes::CONDITION`] attribute.
pub const CONDITIONS: [&str; 4] = ["new", "like-new", "used", "worn"];

/// The schema's attribute names resolved to interned [`AttrId`]s.
///
/// Generators resolve the ids once at construction and build events through
/// [`EventBuilder::attr_id`](pubsub_core::EventBuilder::attr_id), so the
/// per-event path never hashes an attribute string — the same ids the
/// filtering indexes are keyed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttrIds {
    /// Id of [`attributes::TITLE`].
    pub title: AttrId,
    /// Id of [`attributes::AUTHOR`].
    pub author: AttrId,
    /// Id of [`attributes::CATEGORY`].
    pub category: AttrId,
    /// Id of [`attributes::PRICE`].
    pub price: AttrId,
    /// Id of [`attributes::BIDS`].
    pub bids: AttrId,
    /// Id of [`attributes::SELLER_RATING`].
    pub seller_rating: AttrId,
    /// Id of [`attributes::END_TIME_HOURS`].
    pub end_time_hours: AttrId,
    /// Id of [`attributes::CONDITION`].
    pub condition: AttrId,
    /// Id of [`attributes::BUY_NOW`].
    pub buy_now: AttrId,
    /// Id of [`attributes::SHIPPING_COST`].
    pub shipping_cost: AttrId,
}

impl AttrIds {
    /// Interns every schema attribute and returns the resolved ids.
    pub fn resolve() -> Self {
        use pubsub_core::attr::intern;
        Self {
            title: intern(attributes::TITLE),
            author: intern(attributes::AUTHOR),
            category: intern(attributes::CATEGORY),
            price: intern(attributes::PRICE),
            bids: intern(attributes::BIDS),
            seller_rating: intern(attributes::SELLER_RATING),
            end_time_hours: intern(attributes::END_TIME_HOURS),
            condition: intern(attributes::CONDITION),
            buy_now: intern(attributes::BUY_NOW),
            shipping_cost: intern(attributes::SHIPPING_COST),
        }
    }
}

impl Default for AttrIds {
    fn default() -> Self {
        Self::resolve()
    }
}

/// The sizes and skews of the auction catalog the generator draws from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuctionSchema {
    /// Number of distinct book titles.
    pub title_count: usize,
    /// Number of distinct authors.
    pub author_count: usize,
    /// Number of distinct categories.
    pub category_count: usize,
    /// Zipf exponent of title/author popularity (1.0 ≈ classic Zipf).
    pub popularity_skew: f64,
    /// Zipf exponent of category popularity.
    pub category_skew: f64,
    /// Median price of the log-normal price distribution.
    pub median_price: f64,
    /// Log-space standard deviation of the price distribution.
    pub price_sigma: f64,
    /// Mean number of bids.
    pub mean_bids: f64,
    /// Maximum auction duration in hours.
    pub max_end_time_hours: i64,
}

impl AuctionSchema {
    /// The catalog used for full-scale (paper-sized) experiments.
    pub fn paper() -> Self {
        Self {
            title_count: 20_000,
            author_count: 5_000,
            category_count: 30,
            popularity_skew: 1.1,
            category_skew: 0.9,
            median_price: 18.0,
            price_sigma: 0.8,
            mean_bids: 4.0,
            max_end_time_hours: 168,
        }
    }

    /// A hot-key catalog: the paper-sized catalog with the popularity Zipf
    /// exponents pushed to ~1.6, so a handful of titles (and their authors)
    /// dominate both the event stream and the equality predicates of the
    /// subscriptions drawn from it. This is the adversarially *skewed* cell
    /// of the staged-matching benchmarks: most events carry one of a few hot
    /// keys, and many subscriptions share a hot key's access bucket, which
    /// the stage-0 secondary key and bound then thin out.
    pub fn hot_key() -> Self {
        Self {
            popularity_skew: 1.6,
            category_skew: 1.2,
            ..Self::paper()
        }
    }

    /// A smaller catalog for unit tests and quick experiments.
    pub fn small() -> Self {
        Self {
            title_count: 500,
            author_count: 150,
            category_count: 12,
            popularity_skew: 1.1,
            category_skew: 0.9,
            median_price: 18.0,
            price_sigma: 0.8,
            mean_bids: 4.0,
            max_end_time_hours: 168,
        }
    }
}

impl Default for AuctionSchema {
    fn default() -> Self {
        Self::small()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_plausible() {
        let paper = AuctionSchema::paper();
        let small = AuctionSchema::small();
        assert!(paper.title_count > small.title_count);
        assert!(paper.author_count > small.author_count);
        assert!(small.category_count >= 4);
        assert!(paper.popularity_skew > 0.0);
        assert!(paper.median_price > 0.0);
        assert_eq!(AuctionSchema::default(), small);
        let hot = AuctionSchema::hot_key();
        assert_eq!(hot.title_count, paper.title_count);
        assert!(hot.popularity_skew > paper.popularity_skew);
        assert!(hot.category_skew > paper.category_skew);
    }

    #[test]
    fn condition_list_is_nonempty_and_unique() {
        let mut set = std::collections::HashSet::new();
        for c in CONDITIONS {
            assert!(set.insert(c));
        }
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn attribute_names_are_distinct() {
        let names = [
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
        ];
        let set: std::collections::HashSet<&str> = names.iter().copied().collect();
        assert_eq!(set.len(), names.len());
    }
}
