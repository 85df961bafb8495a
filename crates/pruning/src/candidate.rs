//! Candidate prunings and their enumeration.

use crate::{Dimension, HeuristicScores, ScoreContext};
use pubsub_core::{NodeId, SubscriptionId, SubscriptionTree};
use selectivity::SelectivityEstimator;

/// One candidate pruning: remove `node` from the current tree of
/// `subscription`, with the estimated effect captured in `scores`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PruningCandidate {
    /// The subscription the pruning applies to.
    pub subscription: SubscriptionId,
    /// The node (of the subscription's *current* tree) to remove.
    pub node: NodeId,
    /// The heuristic scores of this pruning.
    pub scores: HeuristicScores,
}

impl PruningCandidate {
    /// Returns `true` if `self` is a better choice than `other` under the
    /// given dimension (lexicographic comparison over the dimension's
    /// heuristic order).
    pub fn better_than(&self, other: &PruningCandidate, dimension: Dimension) -> bool {
        self.scores.compare(&other.scores, dimension) == std::cmp::Ordering::Greater
    }
}

/// Enumerates and scores all valid pruning candidates of one subscription's
/// current tree.
///
/// `bottom_up_only` implements the additional restriction of Section 3.2 of
/// the paper (used for memory-based pruning): a pruning of node *n* is valid
/// only if no valid pruning exists inside the subtree rooted at *n*. Without
/// it the memory heuristic would always greedily remove the largest subtree.
pub fn enumerate_candidates(
    subscription: SubscriptionId,
    current: &SubscriptionTree,
    context: &ScoreContext,
    estimator: &SelectivityEstimator,
    bottom_up_only: bool,
) -> Vec<PruningCandidate> {
    let mut valid = current.generalizing_removals();
    if bottom_up_only {
        let all = valid.clone();
        valid.retain(|node| !has_valid_descendant(current, *node, &all));
    }
    valid
        .into_iter()
        .filter_map(|node| {
            context
                .score(current, node, estimator)
                .map(|scores| PruningCandidate {
                    subscription,
                    node,
                    scores,
                })
        })
        .collect()
}

/// Returns `true` if some *strict* descendant of `node` is itself a valid
/// pruning target.
fn has_valid_descendant(tree: &SubscriptionTree, node: NodeId, valid: &[NodeId]) -> bool {
    let subtree = tree.subtree_range(node);
    let descendants = subtree.start + 1..subtree.end;
    valid.iter().any(|v| descendants.contains(&v.index()))
}

/// Picks the best candidate for the given dimension from a slice of scored
/// candidates, or `None` if the slice is empty. Ties beyond all three
/// heuristics are resolved by the lowest node id so that the choice is
/// deterministic.
pub(crate) fn best_candidate(
    candidates: &[PruningCandidate],
    dimension: Dimension,
) -> Option<PruningCandidate> {
    candidates
        .iter()
        .copied()
        .reduce(|best, c| match c.scores.compare(&best.scores, dimension) {
            std::cmp::Ordering::Greater => c,
            std::cmp::Ordering::Less => best,
            std::cmp::Ordering::Equal => {
                if c.node < best.node {
                    c
                } else {
                    best
                }
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_core::{EventMessage, Expr, NodeKind};

    fn estimator() -> SelectivityEstimator {
        let events: Vec<EventMessage> = (0..100)
            .map(|i| {
                EventMessage::builder()
                    .attr("price", (i % 100) as i64)
                    .attr("category", if i % 10 == 0 { "books" } else { "music" })
                    .attr("bids", (i % 20) as i64)
                    .build()
            })
            .collect();
        SelectivityEstimator::from_events(&events)
    }

    fn sub_id() -> SubscriptionId {
        SubscriptionId::from_raw(7)
    }

    #[test]
    fn enumerates_all_leaf_candidates_of_a_conjunction() {
        let est = estimator();
        let t = SubscriptionTree::from_expr(&Expr::and(vec![
            Expr::eq("category", "books"),
            Expr::lt("price", 50i64),
            Expr::ge("bids", 10i64),
        ]));
        let ctx = ScoreContext::new(&t, &est);
        let candidates = enumerate_candidates(sub_id(), &t, &ctx, &est, false);
        assert_eq!(candidates.len(), 3);
        for c in &candidates {
            assert_eq!(c.subscription, sub_id());
            assert!(t.node(c.node).unwrap().kind().is_leaf());
        }
    }

    #[test]
    fn single_predicate_subscription_has_no_candidates() {
        let est = estimator();
        let t = SubscriptionTree::from_expr(&Expr::eq("category", "books"));
        let ctx = ScoreContext::new(&t, &est);
        assert!(enumerate_candidates(sub_id(), &t, &ctx, &est, false).is_empty());
    }

    #[test]
    fn bottom_up_restriction_excludes_nodes_with_prunable_descendants() {
        let est = estimator();
        // AND(a, AND(b, c)): without the restriction the inner AND node is a
        // candidate; with the restriction only leaves whose subtrees contain
        // no other valid pruning remain.
        let t = SubscriptionTree::from_expr(&Expr::and(vec![
            Expr::eq("category", "books"),
            Expr::and(vec![Expr::lt("price", 50i64), Expr::ge("bids", 10i64)]),
        ]));
        let ctx = ScoreContext::new(&t, &est);

        let unrestricted = enumerate_candidates(sub_id(), &t, &ctx, &est, false);
        let restricted = enumerate_candidates(sub_id(), &t, &ctx, &est, true);
        assert!(unrestricted.len() > restricted.len());
        // The inner AND (which contains prunable leaves) is excluded when
        // restricted.
        let inner_and = t
            .node_ids()
            .find(|id| *id != t.root() && matches!(t.node(*id).unwrap().kind(), NodeKind::And))
            .unwrap();
        assert!(unrestricted.iter().any(|c| c.node == inner_and));
        assert!(!restricted.iter().any(|c| c.node == inner_and));
        // All restricted candidates are leaves here.
        for c in &restricted {
            assert!(t.node(c.node).unwrap().kind().is_leaf());
        }
    }

    #[test]
    fn best_candidate_follows_dimension() {
        let est = estimator();
        let t = SubscriptionTree::from_expr(&Expr::and(vec![
            Expr::eq("category", "books"),
            Expr::or(vec![Expr::lt("price", 10i64), Expr::gt("bids", 15i64)]),
        ]));
        let ctx = ScoreContext::new(&t, &est);
        let candidates = enumerate_candidates(sub_id(), &t, &ctx, &est, false);
        assert!(!candidates.is_empty());

        let best_mem = best_candidate(&candidates, Dimension::Memory).unwrap();
        // Memory-based pruning (without the bottom-up restriction) removes the
        // biggest subtree: the OR node.
        assert!(matches!(
            t.node(best_mem.node).unwrap().kind(),
            NodeKind::Or
        ));

        let best_net = best_candidate(&candidates, Dimension::NetworkLoad).unwrap();
        // Network-based pruning prefers removing the OR subtree or the
        // category predicate depending on selectivities; it must pick the
        // candidate with the smallest degradation.
        for c in &candidates {
            assert!(best_net.scores.delta_sel <= c.scores.delta_sel + 1e-12);
        }
    }

    #[test]
    fn best_candidate_is_deterministic_on_full_ties() {
        let c1 = PruningCandidate {
            subscription: sub_id(),
            node: NodeId::from_index(5),
            scores: HeuristicScores {
                delta_sel: 0.1,
                delta_mem: 10.0,
                delta_eff: 0.0,
            },
        };
        let c2 = PruningCandidate {
            subscription: sub_id(),
            node: NodeId::from_index(2),
            scores: c1.scores,
        };
        let best = best_candidate(&[c1, c2], Dimension::NetworkLoad).unwrap();
        assert_eq!(best.node, NodeId::from_index(2));
        assert!(best_candidate(&[], Dimension::Memory).is_none());
    }

    #[test]
    fn better_than_is_consistent_with_compare() {
        let a = PruningCandidate {
            subscription: sub_id(),
            node: NodeId::from_index(0),
            scores: HeuristicScores {
                delta_sel: 0.05,
                delta_mem: 10.0,
                delta_eff: 0.0,
            },
        };
        let b = PruningCandidate {
            subscription: sub_id(),
            node: NodeId::from_index(1),
            scores: HeuristicScores {
                delta_sel: 0.2,
                delta_mem: 100.0,
                delta_eff: -1.0,
            },
        };
        assert!(a.better_than(&b, Dimension::NetworkLoad));
        assert!(b.better_than(&a, Dimension::Memory));
        assert!(a.better_than(&b, Dimension::Throughput));
        assert!(!a.better_than(&a, Dimension::NetworkLoad));
    }
}
