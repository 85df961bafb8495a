//! Recorded pruning sequences for later replay.

use crate::{Dimension, HeuristicScores};
use pubsub_core::{NodeId, SubscriptionId, SubscriptionTree};
use std::collections::HashMap;

/// One applied pruning, as recorded by the [`Pruner`](crate::Pruner).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppliedPruning {
    /// Zero-based position of this pruning in the overall sequence.
    pub step: usize,
    /// The subscription that was pruned.
    pub subscription: SubscriptionId,
    /// The removed node, relative to the subscription's tree *at the time of
    /// this pruning* (i.e. after all of the subscription's earlier prunings).
    pub node: NodeId,
    /// The heuristic scores the pruning was chosen by.
    pub scores: HeuristicScores,
    /// Number of predicates remaining in the subscription after the pruning.
    pub remaining_predicates: usize,
}

/// A deterministic record of all prunings applied by one pruner run.
///
/// Because node ids refer to the tree state at the time of each pruning and
/// [`SubscriptionTree::prune`] is deterministic, replaying the plan's prefix
/// of length `k` against the original trees reproduces the exact system state
/// after `k` prunings. The benchmark harness uses this to take measurements
/// at arbitrary fractions of the total pruning count without re-running the
/// heuristics.
#[derive(Debug, Clone, PartialEq)]
pub struct PruningPlan {
    dimension: Dimension,
    prunings: Vec<AppliedPruning>,
}

impl PruningPlan {
    /// Creates an empty plan for the given dimension.
    pub fn new(dimension: Dimension) -> Self {
        Self {
            dimension,
            prunings: Vec::new(),
        }
    }

    /// The dimension the plan was produced under.
    pub fn dimension(&self) -> Dimension {
        self.dimension
    }

    /// Appends an applied pruning (used by the pruner).
    pub(crate) fn push(&mut self, pruning: AppliedPruning) {
        debug_assert_eq!(pruning.step, self.prunings.len());
        self.prunings.push(pruning);
    }

    /// Number of recorded prunings.
    pub fn len(&self) -> usize {
        self.prunings.len()
    }

    /// Returns `true` if no prunings are recorded.
    pub fn is_empty(&self) -> bool {
        self.prunings.is_empty()
    }

    /// Iterates over the recorded prunings in application order.
    pub fn iter(&self) -> impl Iterator<Item = &AppliedPruning> {
        self.prunings.iter()
    }

    /// The recorded prunings as a slice.
    pub fn as_slice(&self) -> &[AppliedPruning] {
        &self.prunings
    }

    /// Applies the prunings with indices `[from, to)` to the given trees
    /// in place. The map must contain every subscription the range touches in
    /// the state produced by the prunings before `from` (for `from == 0`, the
    /// original trees).
    ///
    /// Returns the number of prunings applied. Prunings of subscriptions
    /// missing from the map are skipped (this supports replaying a plan onto
    /// a broker that only holds a subset of the subscriptions).
    pub fn apply_range(
        &self,
        trees: &mut HashMap<SubscriptionId, SubscriptionTree>,
        from: usize,
        to: usize,
    ) -> usize {
        let to = to.min(self.prunings.len());
        if from >= to {
            return 0;
        }
        let mut applied = 0;
        for pruning in &self.prunings[from..to] {
            if let Some(tree) = trees.get_mut(&pruning.subscription) {
                let pruned = tree
                    .prune(pruning.node)
                    .expect("replaying a recorded pruning on the recorded tree state");
                *tree = pruned;
                applied += 1;
            }
        }
        applied
    }

    /// Convenience wrapper: replays the first `k` prunings onto clones of the
    /// given original trees and returns the resulting map.
    pub fn apply_prefix(
        &self,
        originals: &HashMap<SubscriptionId, SubscriptionTree>,
        k: usize,
    ) -> HashMap<SubscriptionId, SubscriptionTree> {
        let mut trees = originals.clone();
        self.apply_range(&mut trees, 0, k);
        trees
    }

    /// Cumulative selectivity degradation (sum of `Δ≈sel`) of the first `k`
    /// prunings — a cheap proxy for the expected network-load increase.
    pub fn cumulative_degradation(&self, k: usize) -> f64 {
        self.prunings
            .iter()
            .take(k)
            .map(|p| p.scores.delta_sel)
            .sum()
    }

    /// Cumulative memory improvement in bytes of the first `k` prunings.
    pub fn cumulative_memory_saving(&self, k: usize) -> f64 {
        self.prunings
            .iter()
            .take(k)
            .map(|p| p.scores.delta_mem)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_core::Expr;

    fn scores(sel: f64, mem: f64, eff: f64) -> HeuristicScores {
        HeuristicScores {
            delta_sel: sel,
            delta_mem: mem,
            delta_eff: eff,
        }
    }

    fn sample_plan_and_trees() -> (PruningPlan, HashMap<SubscriptionId, SubscriptionTree>) {
        // One subscription with 3 predicates; plan prunes it down to 1.
        let id = SubscriptionId::from_raw(1);
        let tree = SubscriptionTree::from_expr(&Expr::and(vec![
            Expr::eq("a", 1i64),
            Expr::eq("b", 2i64),
            Expr::eq("c", 3i64),
        ]));
        let mut originals = HashMap::new();
        originals.insert(id, tree.clone());

        let mut plan = PruningPlan::new(Dimension::NetworkLoad);
        let mut current = tree;
        for step in 0..2 {
            let node = current.generalizing_removals()[0];
            let pruned = current.prune(node).unwrap();
            plan.push(AppliedPruning {
                step,
                subscription: id,
                node,
                scores: scores(0.1 * (step + 1) as f64, 30.0, 0.0),
                remaining_predicates: pruned.predicate_count(),
            });
            current = pruned;
        }
        (plan, originals)
    }

    #[test]
    fn plan_records_in_order() {
        let (plan, _) = sample_plan_and_trees();
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
        assert_eq!(plan.dimension(), Dimension::NetworkLoad);
        let steps: Vec<usize> = plan.iter().map(|p| p.step).collect();
        assert_eq!(steps, vec![0, 1]);
        assert_eq!(plan.as_slice().len(), 2);
    }

    #[test]
    fn apply_prefix_reproduces_intermediate_states() {
        let (plan, originals) = sample_plan_and_trees();
        let id = SubscriptionId::from_raw(1);

        let after_0 = plan.apply_prefix(&originals, 0);
        assert_eq!(after_0[&id].predicate_count(), 3);

        let after_1 = plan.apply_prefix(&originals, 1);
        assert_eq!(after_1[&id].predicate_count(), 2);

        let after_2 = plan.apply_prefix(&originals, 2);
        assert_eq!(after_2[&id].predicate_count(), 1);

        // Requesting more prunings than recorded saturates.
        let after_many = plan.apply_prefix(&originals, 99);
        assert_eq!(after_many[&id].predicate_count(), 1);
    }

    #[test]
    fn apply_range_is_incremental() {
        let (plan, originals) = sample_plan_and_trees();
        let id = SubscriptionId::from_raw(1);
        let mut trees = originals.clone();
        assert_eq!(plan.apply_range(&mut trees, 0, 1), 1);
        assert_eq!(trees[&id].predicate_count(), 2);
        assert_eq!(plan.apply_range(&mut trees, 1, 2), 1);
        assert_eq!(trees[&id].predicate_count(), 1);
        // Empty and inverted ranges do nothing.
        assert_eq!(plan.apply_range(&mut trees, 2, 2), 0);
        assert_eq!(plan.apply_range(&mut trees, 5, 3), 0);
    }

    #[test]
    fn missing_subscriptions_are_skipped() {
        let (plan, _) = sample_plan_and_trees();
        let mut empty: HashMap<SubscriptionId, SubscriptionTree> = HashMap::new();
        assert_eq!(plan.apply_range(&mut empty, 0, 2), 0);
    }

    #[test]
    fn cumulative_metrics() {
        let (plan, _) = sample_plan_and_trees();
        assert!((plan.cumulative_degradation(1) - 0.1).abs() < 1e-12);
        assert!((plan.cumulative_degradation(2) - 0.3).abs() < 1e-12);
        assert!((plan.cumulative_memory_saving(2) - 60.0).abs() < 1e-12);
        assert_eq!(plan.cumulative_degradation(0), 0.0);
    }
}
