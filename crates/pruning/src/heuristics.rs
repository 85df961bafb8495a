//! The three pruning heuristics `Δ≈sel`, `Δ≈mem`, and `Δ≈eff`.

use crate::{Dimension, HeuristicKind};
use pubsub_core::{NodeId, SubscriptionTree};
use selectivity::SelectivityEstimator;
use std::cmp::Ordering;

/// The heuristic scores of one candidate pruning.
///
/// A candidate pruning turns the *current* tree of a subscription into a
/// pruned tree. The scores quantify its estimated effect along the three
/// dimensions, using the reference trees prescribed by the paper:
///
/// * [`delta_sel`](Self::delta_sel) — selectivity degradation relative to the
///   **originally registered** subscription (Section 3.1): the maximum
///   component-wise increase of the `(min, avg, max)` selectivity estimate.
///   Smaller is better; it is never negative.
/// * [`delta_mem`](Self::delta_mem) — memory improvement in bytes relative to
///   the **current** tree (Section 3.2). Larger is better; it is always
///   positive because a pruning removes at least one node.
/// * [`delta_eff`](Self::delta_eff) — throughput improvement
///   `pmin(pruned) − pmin(original)` (Section 3.3). Larger is better; since
///   pruning only removes predicates it is never positive, so "best" means
///   "loses as little of the counting threshold as possible".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeuristicScores {
    /// `Δ≈sel` — estimated selectivity degradation (≥ 0, smaller is better).
    pub delta_sel: f64,
    /// `Δ≈mem` — estimated memory improvement in bytes (> 0, larger is better).
    pub delta_mem: f64,
    /// `Δ≈eff` — estimated throughput improvement (≤ 0, larger is better).
    pub delta_eff: f64,
}

impl HeuristicScores {
    /// Returns the value of one heuristic.
    pub fn get(&self, kind: HeuristicKind) -> f64 {
        match kind {
            HeuristicKind::Selectivity => self.delta_sel,
            HeuristicKind::Memory => self.delta_mem,
            HeuristicKind::Throughput => self.delta_eff,
        }
    }

    /// Compares two candidates' values of one heuristic, returning
    /// `Ordering::Greater` when `self` is the *better* choice for that
    /// heuristic (`Δ≈sel` is minimized, the other two are maximized).
    pub fn compare_single(&self, other: &HeuristicScores, kind: HeuristicKind) -> Ordering {
        let (a, b) = (self.get(kind), other.get(kind));
        match kind {
            // Smaller degradation is better.
            HeuristicKind::Selectivity => b.total_cmp(&a),
            // Larger improvement is better.
            HeuristicKind::Memory | HeuristicKind::Throughput => a.total_cmp(&b),
        }
    }

    /// Lexicographic comparison along a dimension's heuristic order,
    /// returning `Ordering::Greater` when `self` is the better choice.
    pub fn compare(&self, other: &HeuristicScores, dimension: Dimension) -> Ordering {
        for kind in dimension.heuristic_order() {
            match self.compare_single(other, kind) {
                Ordering::Equal => continue,
                non_equal => return non_equal,
            }
        }
        Ordering::Equal
    }
}

/// Everything needed to score candidate prunings of one subscription:
/// the originally registered tree (the reference for `Δ≈sel` and `Δ≈eff`),
/// and the selectivity estimate of that original tree (cached, since it does
/// not change across prunings of the subscription).
#[derive(Debug, Clone)]
pub struct ScoreContext {
    original_pmin: usize,
    original_estimate: selectivity::SelectivityEstimate,
    /// When `false` (ablation mode), `Δ≈sel` and `Δ≈eff` are computed against
    /// the current tree instead of the original one.
    reference_original: bool,
}

impl ScoreContext {
    /// Builds the context for a subscription from its originally registered
    /// tree.
    pub fn new(original: &SubscriptionTree, estimator: &SelectivityEstimator) -> Self {
        Self {
            original_pmin: original.pmin(),
            original_estimate: estimator.estimate_tree(original),
            reference_original: true,
        }
    }

    /// Ablation variant: compare `Δ≈sel`/`Δ≈eff` against the *current* tree of
    /// the subscription rather than the originally registered one. The paper
    /// argues the original reference avoids under-estimating accumulated
    /// degradation (Section 3.1); this switch lets the ablation benchmark
    /// quantify that argument.
    pub fn with_current_reference(mut self) -> Self {
        self.reference_original = false;
        self
    }

    /// Returns `true` if `Δ≈sel`/`Δ≈eff` use the original tree as reference.
    pub fn references_original(&self) -> bool {
        self.reference_original
    }

    /// Scores the pruning of `node` from `current`, where `current` is the
    /// subscription's present (possibly already pruned) tree.
    ///
    /// Returns `None` if the removal of `node` is not a valid pruning.
    pub fn score(
        &self,
        current: &SubscriptionTree,
        node: NodeId,
        estimator: &SelectivityEstimator,
    ) -> Option<HeuristicScores> {
        let pruned = current.prune(node).ok()?;

        let (ref_pmin, ref_estimate) = if self.reference_original {
            (self.original_pmin, self.original_estimate)
        } else {
            (current.pmin(), estimator.estimate_tree(current))
        };

        let pruned_estimate = estimator.estimate_tree(&pruned);
        let delta_sel = ref_estimate.degradation_to(&pruned_estimate).max(0.0);
        let delta_mem = current.size_bytes() as f64 - pruned.size_bytes() as f64;
        let delta_eff = pruned.pmin() as f64 - ref_pmin as f64;

        Some(HeuristicScores {
            delta_sel,
            delta_mem,
            delta_eff,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_core::{EventMessage, Expr};

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

    fn tree() -> SubscriptionTree {
        // category = books (sel 0.1) AND price < 50 (sel 0.5) AND bids >= 10 (sel 0.5)
        SubscriptionTree::from_expr(&Expr::and(vec![
            Expr::eq("category", "books"),
            Expr::lt("price", 50i64),
            Expr::ge("bids", 10i64),
        ]))
    }

    fn node_of(tree: &SubscriptionTree, attribute: &str) -> NodeId {
        tree.predicates()
            .find(|(_, p)| p.attribute() == attribute)
            .map(|(id, _)| id)
            .unwrap()
    }

    #[test]
    fn scores_have_expected_signs() {
        let est = estimator();
        let t = tree();
        let ctx = ScoreContext::new(&t, &est);
        for node in t.generalizing_removals() {
            let s = ctx.score(&t, node, &est).unwrap();
            assert!(s.delta_sel >= 0.0, "selectivity degradation is nonnegative");
            assert!(s.delta_mem > 0.0, "memory improvement is positive");
            assert!(s.delta_eff <= 0.0, "pmin can only drop when pruning");
        }
    }

    #[test]
    fn invalid_prunings_score_none() {
        let est = estimator();
        let t = tree();
        let ctx = ScoreContext::new(&t, &est);
        assert!(ctx.score(&t, t.root(), &est).is_none());
    }

    #[test]
    fn pruning_the_selective_predicate_degrades_most() {
        let est = estimator();
        let t = tree();
        let ctx = ScoreContext::new(&t, &est);
        // category = books has selectivity ~0.1 (most selective); removing it
        // admits the most additional events, so its Δ≈sel is the largest.
        let s_category = ctx.score(&t, node_of(&t, "category"), &est).unwrap();
        let s_price = ctx.score(&t, node_of(&t, "price"), &est).unwrap();
        let s_bids = ctx.score(&t, node_of(&t, "bids"), &est).unwrap();
        assert!(s_category.delta_sel > s_price.delta_sel);
        assert!(s_category.delta_sel > s_bids.delta_sel);
    }

    #[test]
    fn delta_mem_reflects_subtree_size() {
        let est = estimator();
        // AND(pred, OR(pred, pred)): removing the OR subtree saves more bytes
        // than removing the single predicate.
        let t = SubscriptionTree::from_expr(&Expr::and(vec![
            Expr::eq("category", "books"),
            Expr::or(vec![Expr::lt("price", 10i64), Expr::gt("bids", 15i64)]),
        ]));
        let ctx = ScoreContext::new(&t, &est);
        let or_node = t
            .node_ids()
            .find(|id| matches!(t.node(*id).unwrap().kind(), pubsub_core::NodeKind::Or))
            .unwrap();
        let leaf = node_of(&t, "category");
        let s_or = ctx.score(&t, or_node, &est).unwrap();
        let s_leaf = ctx.score(&t, leaf, &est).unwrap();
        assert!(s_or.delta_mem > s_leaf.delta_mem);
    }

    #[test]
    fn delta_eff_tracks_pmin_loss() {
        let est = estimator();
        // OR(AND(a, b, c), AND(d, e)) has pmin 2. Pruning inside the first
        // branch keeps pmin 2 (delta 0); pruning inside the second drops it
        // to 1 (delta -1).
        let t = SubscriptionTree::from_expr(&Expr::or(vec![
            Expr::and(vec![
                Expr::eq("category", "books"),
                Expr::lt("price", 50i64),
                Expr::ge("bids", 10i64),
            ]),
            Expr::and(vec![
                Expr::eq("category", "music"),
                Expr::gt("price", 90i64),
            ]),
        ]));
        let ctx = ScoreContext::new(&t, &est);
        let in_first_branch = node_of(&t, "bids");
        let in_second_branch = t
            .predicates()
            .find(|(_, p)| p.attribute() == "price" && p.operator() == pubsub_core::Operator::Gt)
            .map(|(id, _)| id)
            .unwrap();
        let s_first = ctx.score(&t, in_first_branch, &est).unwrap();
        let s_second = ctx.score(&t, in_second_branch, &est).unwrap();
        assert_eq!(s_first.delta_eff, 0.0);
        assert_eq!(s_second.delta_eff, -1.0);
        // The throughput dimension prefers the first pruning.
        assert_eq!(
            s_first.compare(&s_second, Dimension::Throughput),
            Ordering::Greater
        );
    }

    #[test]
    fn original_reference_accumulates_degradation() {
        let est = estimator();
        let t = tree();
        let ctx_original = ScoreContext::new(&t, &est);
        let ctx_current = ScoreContext::new(&t, &est).with_current_reference();
        assert!(ctx_original.references_original());
        assert!(!ctx_current.references_original());

        // Apply one pruning, then score a second one with both contexts.
        let first = node_of(&t, "bids");
        let after_first = t.prune(first).unwrap();
        let second = node_of(&after_first, "price");

        let s_original = ctx_original.score(&after_first, second, &est).unwrap();
        let s_current = ctx_current.score(&after_first, second, &est).unwrap();
        // Relative to the original subscription the accumulated degradation is
        // at least as large as the single-step degradation.
        assert!(s_original.delta_sel >= s_current.delta_sel - 1e-12);
        // pmin drop relative to the original (3 -> 1 = -2) exceeds the
        // single-step drop (2 -> 1 = -1).
        assert!(s_original.delta_eff <= s_current.delta_eff);
    }

    #[test]
    fn lexicographic_comparison_breaks_ties() {
        let a = HeuristicScores {
            delta_sel: 0.1,
            delta_mem: 40.0,
            delta_eff: -1.0,
        };
        let b = HeuristicScores {
            delta_sel: 0.1,
            delta_mem: 80.0,
            delta_eff: -1.0,
        };
        // Equal on sel and eff; memory breaks the tie for every dimension.
        assert_eq!(a.compare(&b, Dimension::NetworkLoad), Ordering::Less);
        assert_eq!(b.compare(&a, Dimension::NetworkLoad), Ordering::Greater);
        assert_eq!(b.compare(&a, Dimension::Memory), Ordering::Greater);
        assert_eq!(a.compare(&a, Dimension::Throughput), Ordering::Equal);
    }

    #[test]
    fn dimension_primary_criterion_dominates() {
        let low_sel_low_mem = HeuristicScores {
            delta_sel: 0.05,
            delta_mem: 10.0,
            delta_eff: -2.0,
        };
        let high_sel_high_mem = HeuristicScores {
            delta_sel: 0.5,
            delta_mem: 500.0,
            delta_eff: 0.0,
        };
        assert_eq!(
            low_sel_low_mem.compare(&high_sel_high_mem, Dimension::NetworkLoad),
            Ordering::Greater
        );
        assert_eq!(
            low_sel_low_mem.compare(&high_sel_high_mem, Dimension::Memory),
            Ordering::Less
        );
        assert_eq!(
            low_sel_low_mem.compare(&high_sel_high_mem, Dimension::Throughput),
            Ordering::Less
        );
    }
}
