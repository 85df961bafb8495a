//! Registered subscriptions: a subscription tree plus identity.

use crate::{EventMessage, Expr, SubscriberId, SubscriptionId, SubscriptionTree, TreeStats};
use std::fmt;

/// A registered subscription.
///
/// A subscription couples a Boolean filter ([`SubscriptionTree`]) with the
/// identity of the subscription and of the subscriber that registered it.
/// The identity never changes; pruning replaces the tree via
/// [`Subscription::with_tree`] while keeping the identity stable, which is
/// what lets brokers route matches of a *pruned* routing entry back to the
/// original subscriber.
///
/// The tree is immutable and its nodes are reference-counted, so a clone of
/// a subscription shares its tree body: cloning copies no nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Subscription {
    id: SubscriptionId,
    subscriber: SubscriberId,
    tree: SubscriptionTree,
}

impl Subscription {
    /// Creates a subscription from an already-built tree.
    pub fn new(id: SubscriptionId, subscriber: SubscriberId, tree: SubscriptionTree) -> Self {
        Self {
            id,
            subscriber,
            tree,
        }
    }

    /// Creates a subscription from a recursive expression.
    ///
    /// # Panics
    /// Panics if the expression is structurally invalid; see
    /// [`SubscriptionTree::from_expr`].
    pub fn from_expr(id: SubscriptionId, subscriber: SubscriberId, expr: &Expr) -> Self {
        Self::new(id, subscriber, SubscriptionTree::from_expr(expr))
    }

    /// The subscription's identifier.
    pub fn id(&self) -> SubscriptionId {
        self.id
    }

    /// The subscriber that registered this subscription.
    pub fn subscriber(&self) -> SubscriberId {
        self.subscriber
    }

    /// The subscription's Boolean filter tree.
    pub fn tree(&self) -> &SubscriptionTree {
        &self.tree
    }

    /// Returns a copy of this subscription with a different tree (same
    /// identity). Used when installing a pruned version of the filter.
    pub fn with_tree(&self, tree: SubscriptionTree) -> Self {
        Self {
            id: self.id,
            subscriber: self.subscriber,
            tree,
        }
    }

    /// Evaluates the subscription against an event message.
    pub fn matches(&self, event: &EventMessage) -> bool {
        self.tree.evaluate_pairs(event.resolved_pairs())
    }

    /// Summary statistics of the subscription's tree.
    pub fn stats(&self) -> TreeStats {
        self.tree.stats()
    }
}

impl fmt::Display for Subscription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} by {}: {}", self.id, self.subscriber, self.tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sub() -> Subscription {
        Subscription::from_expr(
            SubscriptionId::from_raw(1),
            SubscriberId::from_raw(9),
            &Expr::and(vec![
                Expr::eq("category", "books"),
                Expr::le("price", 20i64),
            ]),
        )
    }

    #[test]
    fn identity_accessors() {
        let s = sub();
        assert_eq!(s.id(), SubscriptionId::from_raw(1));
        assert_eq!(s.subscriber(), SubscriberId::from_raw(9));
        assert_eq!(s.tree().predicate_count(), 2);
    }

    #[test]
    fn matching_delegates_to_tree() {
        let s = sub();
        let hit = EventMessage::builder()
            .attr("category", "books")
            .attr("price", 5i64)
            .build();
        let miss = EventMessage::builder()
            .attr("category", "books")
            .attr("price", 50i64)
            .build();
        assert!(s.matches(&hit));
        assert!(!s.matches(&miss));
    }

    #[test]
    fn with_tree_keeps_identity() {
        let s = sub();
        let removable = s.tree().generalizing_removals();
        let pruned_tree = s.tree().prune(removable[0]).unwrap();
        let pruned = s.with_tree(pruned_tree);
        assert_eq!(pruned.id(), s.id());
        assert_eq!(pruned.subscriber(), s.subscriber());
        assert_eq!(pruned.tree().predicate_count(), 1);
        // The original is untouched.
        assert_eq!(s.tree().predicate_count(), 2);
    }

    #[test]
    fn stats_reflect_tree() {
        let s = sub();
        assert_eq!(s.stats(), s.tree().stats());
        assert_eq!(s.stats().pmin, 2);
    }

    #[test]
    fn display_includes_ids() {
        let text = sub().to_string();
        assert!(text.contains("sub-1"));
        assert!(text.contains("client-9"));
    }
}
