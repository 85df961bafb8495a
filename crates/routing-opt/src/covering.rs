//! Subscription covering.

use pubsub_core::analysis::implies;
use pubsub_core::{Subscription, SubscriptionId};
use std::collections::{BTreeMap, BTreeSet};

/// Returns `true` if `general` covers `specific`: every event matching
/// `specific` also matches `general`. The check is conservative (it may miss
/// some true coverings but never reports a false one) and delegates to
/// [`pubsub_core::analysis::implies`], so it handles arbitrary `And`/`Or`/
/// `Not` trees — not just conjunctions. A conjunction `G` still covers a
/// conjunction `S` when every predicate of `G` is implied by some predicate
/// of `S`, but a disjunction now also covers each of its branches, and a
/// covering branch of `S` is found through nested structure.
pub fn covers(general: &Subscription, specific: &Subscription) -> bool {
    implies(&specific.tree().to_expr(), &general.tree().to_expr())
}

/// Summary of a covering analysis over a set of subscriptions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoveringReport {
    /// Total subscriptions analysed.
    pub total: usize,
    /// Subscriptions that are conjunctive (eligible for covering at all).
    pub conjunctive: usize,
    /// Subscriptions covered by some other subscription (they need no
    /// routing entry of their own).
    pub covered: usize,
    /// Predicate/subscription associations before covering is applied.
    pub associations_before: usize,
    /// Predicate/subscription associations after removing covered
    /// subscriptions.
    pub associations_after: usize,
}

impl CoveringReport {
    /// Proportional reduction in associations achieved by covering.
    pub fn association_reduction(&self) -> f64 {
        if self.associations_before == 0 {
            0.0
        } else {
            1.0 - self.associations_after as f64 / self.associations_before as f64
        }
    }
}

/// An index of conjunctive subscriptions supporting covering queries.
///
/// The index is intentionally simple (pairwise checks bucketed by attribute
/// set): its role in this reproduction is to serve as the baseline a
/// general-purpose optimization is compared against, not to be the fastest
/// covering engine conceivable.
#[derive(Debug, Default)]
pub struct CoveringIndex {
    subscriptions: BTreeMap<SubscriptionId, Subscription>,
}

impl CoveringIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a subscription to the index.
    pub fn insert(&mut self, subscription: Subscription) {
        self.subscriptions.insert(subscription.id(), subscription);
    }

    /// Adds many subscriptions.
    pub fn insert_all(&mut self, subscriptions: impl IntoIterator<Item = Subscription>) {
        for s in subscriptions {
            self.insert(s);
        }
    }

    /// Number of indexed subscriptions.
    pub fn len(&self) -> usize {
        self.subscriptions.len()
    }

    /// Returns `true` if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.subscriptions.is_empty()
    }

    /// Returns the ids of subscriptions that are covered by at least one
    /// *other* indexed subscription.
    pub fn covered_subscriptions(&self) -> BTreeSet<SubscriptionId> {
        let mut covered = BTreeSet::new();
        for (id_a, a) in &self.subscriptions {
            for (id_b, b) in &self.subscriptions {
                if id_a == id_b || covered.contains(id_a) {
                    continue;
                }
                // b covers a: a is redundant — unless a also covers b
                // (equivalent subscriptions), in which case only the one with
                // the larger id is dropped to keep one representative.
                if covers(b, a) && (!covers(a, b) || id_a > id_b) {
                    covered.insert(*id_a);
                    break;
                }
            }
        }
        covered
    }

    /// The subscriptions that remain after removing covered ones — the
    /// entries a broker would actually forward.
    pub fn forwarding_set(&self) -> Vec<Subscription> {
        let covered = self.covered_subscriptions();
        self.subscriptions
            .values()
            .filter(|s| !covered.contains(&s.id()))
            .cloned()
            .collect()
    }

    /// Analyses the covering potential of the indexed subscriptions.
    pub fn report(&self) -> CoveringReport {
        let covered = self.covered_subscriptions();
        let conjunctive = self
            .subscriptions
            .values()
            .filter(|s| s.tree().to_expr().is_conjunctive())
            .count();
        let associations_before: usize = self
            .subscriptions
            .values()
            .map(|s| s.tree().predicate_count())
            .sum();
        let associations_after: usize = self
            .subscriptions
            .values()
            .filter(|s| !covered.contains(&s.id()))
            .map(|s| s.tree().predicate_count())
            .sum();
        CoveringReport {
            total: self.subscriptions.len(),
            conjunctive,
            covered: covered.len(),
            associations_before,
            associations_after,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_core::{EventMessage, Expr, SubscriberId};

    fn sub(id: u64, expr: &Expr) -> Subscription {
        Subscription::from_expr(
            SubscriptionId::from_raw(id),
            SubscriberId::from_raw(id),
            expr,
        )
    }

    #[test]
    fn wider_price_range_covers_narrower() {
        let general = sub(
            1,
            &Expr::and(vec![
                Expr::eq("category", "books"),
                Expr::le("price", 100i64),
            ]),
        );
        let specific = sub(
            2,
            &Expr::and(vec![
                Expr::eq("category", "books"),
                Expr::le("price", 50i64),
                Expr::ge("rating", 4i64),
            ]),
        );
        assert!(covers(&general, &specific));
        assert!(!covers(&specific, &general));
    }

    #[test]
    fn disjunction_covers_each_of_its_branches() {
        let disjunctive = sub(1, &Expr::or(vec![Expr::eq("a", 1i64), Expr::eq("b", 2i64)]));
        let branch = sub(2, &Expr::eq("a", 1i64));
        assert!(covers(&disjunctive, &branch));
        assert!(!covers(&branch, &disjunctive));
    }

    #[test]
    fn covering_sees_through_nested_structure() {
        let general = sub(1, &Expr::le("price", 100i64));
        let specific = sub(
            2,
            &Expr::or(vec![
                Expr::and(vec![
                    Expr::eq("category", "books"),
                    Expr::le("price", 10i64),
                ]),
                Expr::and(vec![
                    Expr::eq("category", "music"),
                    Expr::le("price", 50i64),
                ]),
            ]),
        );
        assert!(covers(&general, &specific));
        assert!(!covers(&specific, &general));
    }

    #[test]
    fn covering_never_false_positive_on_samples() {
        // If `covers` says G covers S, then every sampled event matching S
        // must match G.
        let general = sub(
            1,
            &Expr::and(vec![
                Expr::eq("category", "books"),
                Expr::le("price", 60i64),
            ]),
        );
        let specific = sub(
            2,
            &Expr::and(vec![
                Expr::eq("category", "books"),
                Expr::lt("price", 30i64),
            ]),
        );
        assert!(covers(&general, &specific));
        for price in 0..100i64 {
            for category in ["books", "music"] {
                let ev = EventMessage::builder()
                    .attr("category", category)
                    .attr("price", price)
                    .build();
                if specific.matches(&ev) {
                    assert!(
                        general.matches(&ev),
                        "covering violated at {category}/{price}"
                    );
                }
            }
        }
    }

    #[test]
    fn identical_subscriptions_keep_one_representative() {
        let mut index = CoveringIndex::new();
        index.insert(sub(1, &Expr::eq("category", "books")));
        index.insert(sub(2, &Expr::eq("category", "books")));
        let covered = index.covered_subscriptions();
        assert_eq!(covered.len(), 1);
        assert!(covered.contains(&SubscriptionId::from_raw(2)));
        assert_eq!(index.forwarding_set().len(), 1);
    }

    #[test]
    fn index_reports_reduction() {
        let mut index = CoveringIndex::new();
        index.insert(sub(
            1,
            &Expr::and(vec![
                Expr::eq("category", "books"),
                Expr::le("price", 100i64),
            ]),
        ));
        index.insert(sub(
            2,
            &Expr::and(vec![
                Expr::eq("category", "books"),
                Expr::le("price", 40i64),
            ]),
        ));
        index.insert(sub(
            3,
            &Expr::and(vec![
                Expr::eq("category", "music"),
                Expr::le("price", 40i64),
            ]),
        ));
        index.insert(sub(
            4,
            &Expr::or(vec![Expr::eq("a", 1i64), Expr::eq("b", 1i64)]),
        ));
        assert_eq!(index.len(), 4);
        assert!(!index.is_empty());
        let report = index.report();
        assert_eq!(report.total, 4);
        assert_eq!(report.conjunctive, 3);
        assert_eq!(report.covered, 1);
        assert_eq!(report.associations_before, 8);
        assert_eq!(report.associations_after, 6);
        assert!((report.association_reduction() - 0.25).abs() < 1e-12);
        assert_eq!(index.forwarding_set().len(), 3);
    }

    #[test]
    fn empty_index_report() {
        let index = CoveringIndex::new();
        let report = index.report();
        assert_eq!(report.total, 0);
        assert_eq!(report.association_reduction(), 0.0);
        assert!(index.covered_subscriptions().is_empty());
    }

    #[test]
    fn prefix_covering_between_string_predicates() {
        let general = sub(1, &Expr::prefix("title", "har"));
        let specific = sub(
            2,
            &Expr::and(vec![
                Expr::eq("title", "harry potter"),
                Expr::le("price", 20i64),
            ]),
        );
        assert!(covers(&general, &specific));
        assert!(!covers(&specific, &general));
    }
}
