//! The pruning manager: per-subscription state, candidate queue, and the
//! step-wise pruning loop.

use crate::candidate::{best_candidate, enumerate_candidates};
use crate::{
    AppliedPruning, CandidateQueue, Dimension, HeuristicScores, PruningCandidate, PruningPlan,
    ScoreContext,
};
use pubsub_core::{Subscription, SubscriptionId, SubscriptionTree};
use selectivity::SelectivityEstimator;
use std::collections::HashMap;

/// Configuration of a [`Pruner`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrunerConfig {
    /// The dimension the pruner optimizes for.
    pub dimension: Dimension,
    /// Whether candidate prunings are restricted to nodes whose subtrees
    /// contain no other valid pruning (the bottom-up restriction of
    /// Section 3.2). `None` applies the paper's default: enabled for
    /// memory-based pruning, disabled otherwise.
    pub bottom_up_restriction: Option<bool>,
    /// Whether `Δ≈sel` and `Δ≈eff` are computed against the originally
    /// registered subscription (the paper's choice) or against the current,
    /// already pruned tree (ablation mode).
    pub reference_original: bool,
}

impl PrunerConfig {
    /// The paper's default configuration for a dimension.
    pub fn for_dimension(dimension: Dimension) -> Self {
        Self {
            dimension,
            bottom_up_restriction: None,
            reference_original: true,
        }
    }

    /// Whether the bottom-up candidate restriction is in effect.
    pub fn effective_bottom_up(&self) -> bool {
        self.bottom_up_restriction
            .unwrap_or(self.dimension == Dimension::Memory)
    }
}

/// Per-subscription state kept by the pruner.
#[derive(Debug, Clone)]
struct SubState {
    original: Subscription,
    current: SubscriptionTree,
    context: ScoreContext,
    version: u64,
    prunings_applied: usize,
}

/// A point-in-time summary of the pruner's state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrunerSnapshot {
    /// Number of registered subscriptions.
    pub subscriptions: usize,
    /// Total prunings applied so far.
    pub prunings_applied: usize,
    /// Total predicate count across all current trees (the
    /// predicate/subscription association count of the memory experiments).
    pub remaining_associations: usize,
    /// Total predicate count across all original trees.
    pub original_associations: usize,
    /// Estimated bytes of all current trees.
    pub remaining_bytes: usize,
    /// Estimated bytes of all original trees.
    pub original_bytes: usize,
}

impl PrunerSnapshot {
    /// Proportional reduction in predicate/subscription associations relative
    /// to the un-pruned state (the y-axis of Figures 1(c) and 1(f)).
    pub fn association_reduction(&self) -> f64 {
        if self.original_associations == 0 {
            0.0
        } else {
            1.0 - self.remaining_associations as f64 / self.original_associations as f64
        }
    }

    /// Proportional reduction in estimated routing-table bytes.
    pub fn byte_reduction(&self) -> f64 {
        if self.original_bytes == 0 {
            0.0
        } else {
            1.0 - self.remaining_bytes as f64 / self.original_bytes as f64
        }
    }
}

/// The pruning manager.
///
/// The pruner owns, for every registered subscription, the originally
/// registered tree (the reference of `Δ≈sel`/`Δ≈eff`) and the current tree
/// (the result of all prunings applied so far). A priority queue holds each
/// subscription's best candidate pruning under the configured dimension;
/// [`prune_step`](Self::prune_step) pops the globally best candidate, applies
/// it, and reinserts the subscription's next-best candidate — exactly the
/// scheme of Section 3.4 of the paper.
#[derive(Debug, Clone)]
pub struct Pruner {
    config: PrunerConfig,
    estimator: SelectivityEstimator,
    subs: HashMap<SubscriptionId, SubState>,
    queue: CandidateQueue,
    plan: PruningPlan,
}

impl Pruner {
    /// Creates a pruner with the given configuration and selectivity
    /// estimator.
    pub fn new(config: PrunerConfig, estimator: SelectivityEstimator) -> Self {
        Self {
            config,
            estimator,
            subs: HashMap::new(),
            queue: CandidateQueue::new(config.dimension),
            plan: PruningPlan::new(config.dimension),
        }
    }

    /// The pruner's configuration.
    pub fn config(&self) -> &PrunerConfig {
        &self.config
    }

    /// The dimension the pruner optimizes for.
    pub fn dimension(&self) -> Dimension {
        self.config.dimension
    }

    /// The selectivity estimator used by the heuristics.
    pub fn estimator(&self) -> &SelectivityEstimator {
        &self.estimator
    }

    /// Registers a subscription for pruning. Typically these are the
    /// subscriptions received from *non-local* clients (pruning local
    /// subscriptions would lose notifications).
    pub fn register(&mut self, subscription: Subscription) {
        let id = subscription.id();
        let mut context = ScoreContext::new(subscription.tree(), &self.estimator);
        if !self.config.reference_original {
            context = context.with_current_reference();
        }
        let state = SubState {
            current: subscription.tree().clone(),
            original: subscription,
            context,
            version: 0,
            prunings_applied: 0,
        };
        self.push_best_candidate(id, &state);
        self.subs.insert(id, state);
    }

    /// Registers many subscriptions.
    pub fn register_all(&mut self, subscriptions: impl IntoIterator<Item = Subscription>) {
        for s in subscriptions {
            self.register(s);
        }
    }

    /// Unregisters a subscription; its queue entries are discarded lazily.
    pub fn unregister(&mut self, id: SubscriptionId) -> Option<Subscription> {
        self.subs.remove(&id).map(|s| s.original)
    }

    /// Number of registered subscriptions.
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// Returns `true` if no subscriptions are registered.
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// The current (possibly pruned) tree of a subscription.
    pub fn current_tree(&self, id: SubscriptionId) -> Option<&SubscriptionTree> {
        self.subs.get(&id).map(|s| &s.current)
    }

    /// The originally registered subscription.
    pub fn original(&self, id: SubscriptionId) -> Option<&Subscription> {
        self.subs.get(&id).map(|s| &s.original)
    }

    /// The subscription in its current (pruned) form, ready to install in a
    /// matching engine or routing table.
    pub fn current_subscription(&self, id: SubscriptionId) -> Option<Subscription> {
        self.subs
            .get(&id)
            .map(|s| s.original.with_tree(s.current.clone()))
    }

    /// All subscriptions in their current (pruned) form.
    pub fn pruned_subscriptions(&self) -> Vec<Subscription> {
        self.subs
            .values()
            .map(|s| s.original.with_tree(s.current.clone()))
            .collect()
    }

    /// All originally registered trees, keyed by subscription id (used to
    /// replay [`PruningPlan`]s).
    pub fn original_trees(&self) -> HashMap<SubscriptionId, SubscriptionTree> {
        self.subs
            .iter()
            .map(|(id, s)| (*id, s.original.tree().clone()))
            .collect()
    }

    /// The plan of all prunings applied so far.
    pub fn plan(&self) -> &PruningPlan {
        &self.plan
    }

    /// Number of prunings applied so far.
    pub fn prunings_applied(&self) -> usize {
        self.plan.len()
    }

    /// Returns `true` if no valid pruning remains on any subscription.
    pub fn is_exhausted(&mut self) -> bool {
        self.refresh_queue_head().is_none()
    }

    /// The best remaining candidate, if any, without applying it.
    pub fn peek(&mut self) -> Option<PruningCandidate> {
        self.refresh_queue_head()
    }

    /// Applies the single most effective pruning. Returns `None` when no
    /// valid pruning remains.
    pub fn prune_step(&mut self) -> Option<AppliedPruning> {
        loop {
            let (candidate, version) = self.queue.pop()?;
            let Some(state) = self.subs.get_mut(&candidate.subscription) else {
                continue; // unregistered since the entry was pushed
            };
            if state.version != version {
                continue; // stale entry
            }
            let pruned = state
                .current
                .prune(candidate.node)
                .expect("queued candidates are valid for the current tree version");
            state.current = pruned;
            state.version += 1;
            state.prunings_applied += 1;
            let applied = AppliedPruning {
                step: self.plan.len(),
                subscription: candidate.subscription,
                node: candidate.node,
                scores: candidate.scores,
                remaining_predicates: state.current.predicate_count(),
            };
            self.plan.push(applied);
            // Reinsert the subscription's next-best candidate, if any.
            let state_snapshot = state.clone();
            self.push_best_candidate(candidate.subscription, &state_snapshot);
            return Some(applied);
        }
    }

    /// Applies up to `count` prunings, returning the ones actually applied.
    pub fn prune_batch(&mut self, count: usize) -> Vec<AppliedPruning> {
        let mut applied = Vec::with_capacity(count);
        for _ in 0..count {
            match self.prune_step() {
                Some(p) => applied.push(p),
                None => break,
            }
        }
        applied
    }

    /// Prunes until no valid pruning remains, returning the number of
    /// prunings applied by this call.
    pub fn prune_all(&mut self) -> usize {
        let mut applied = 0;
        while self.prune_step().is_some() {
            applied += 1;
        }
        applied
    }

    /// Keeps pruning while the next candidate's scores satisfy `keep_going`
    /// (e.g. "while `Δ≈sel` stays below 0.05"). Returns the applied prunings.
    pub fn prune_while(
        &mut self,
        mut keep_going: impl FnMut(&HeuristicScores) -> bool,
    ) -> Vec<AppliedPruning> {
        let mut applied = Vec::new();
        while let Some(candidate) = self.peek() {
            if !keep_going(&candidate.scores) {
                break;
            }
            match self.prune_step() {
                Some(p) => applied.push(p),
                None => break,
            }
        }
        applied
    }

    /// A point-in-time summary of the pruner's state.
    pub fn snapshot(&self) -> PrunerSnapshot {
        let mut snapshot = PrunerSnapshot {
            subscriptions: self.subs.len(),
            prunings_applied: self.plan.len(),
            remaining_associations: 0,
            original_associations: 0,
            remaining_bytes: 0,
            original_bytes: 0,
        };
        for s in self.subs.values() {
            snapshot.remaining_associations += s.current.predicate_count();
            snapshot.original_associations += s.original.tree().predicate_count();
            snapshot.remaining_bytes += s.current.size_bytes();
            snapshot.original_bytes += s.original.tree().size_bytes();
        }
        snapshot
    }

    /// Computes the total number of prunings this pruner would apply until
    /// exhaustion, without changing its state (works on a clone). This is the
    /// denominator of the paper's "proportional number of prunings" x-axis.
    pub fn total_possible_prunings(&self) -> usize {
        let mut clone = self.clone();
        clone.plan = PruningPlan::new(self.config.dimension);
        // The clone shares the already-applied count of zero in its fresh
        // plan, so prune_all returns exactly the remaining prunings.
        self.plan.len() + clone.prune_all()
    }

    fn push_best_candidate(&mut self, id: SubscriptionId, state: &SubState) {
        let candidates = enumerate_candidates(
            id,
            &state.current,
            &state.context,
            &self.estimator,
            self.config.effective_bottom_up(),
        );
        if let Some(best) = best_candidate(&candidates, self.config.dimension) {
            self.queue.push(best, state.version);
        }
    }

    /// Pops stale entries off the queue head and returns the first valid
    /// candidate (pushing it back so the queue is unchanged observationally).
    fn refresh_queue_head(&mut self) -> Option<PruningCandidate> {
        loop {
            let (candidate, version) = self.queue.pop()?;
            let valid = self
                .subs
                .get(&candidate.subscription)
                .is_some_and(|s| s.version == version);
            if valid {
                self.queue.push(candidate, version);
                return Some(candidate);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_core::{EventMessage, Expr, SubscriberId};

    fn estimator() -> SelectivityEstimator {
        let events: Vec<EventMessage> = (0..200)
            .map(|i| {
                EventMessage::builder()
                    .attr("price", (i % 100) as i64)
                    .attr("category", if i % 10 == 0 { "books" } else { "music" })
                    .attr("bids", (i % 20) as i64)
                    .attr("rating", (i % 5) as i64)
                    .build()
            })
            .collect();
        SelectivityEstimator::from_events(&events)
    }

    fn sub(id: u64, expr: &Expr) -> Subscription {
        Subscription::from_expr(
            SubscriptionId::from_raw(id),
            SubscriberId::from_raw(id),
            expr,
        )
    }

    fn three_subscriptions() -> Vec<Subscription> {
        vec![
            sub(
                1,
                &Expr::and(vec![
                    Expr::eq("category", "books"),
                    Expr::lt("price", 30i64),
                    Expr::ge("bids", 10i64),
                ]),
            ),
            sub(
                2,
                &Expr::or(vec![
                    Expr::and(vec![
                        Expr::eq("category", "music"),
                        Expr::lt("price", 10i64),
                        Expr::ge("rating", 2i64),
                    ]),
                    Expr::and(vec![Expr::ge("rating", 4i64), Expr::ge("bids", 15i64)]),
                ]),
            ),
            sub(3, &Expr::eq("category", "books")),
        ]
    }

    fn pruner(dimension: Dimension) -> Pruner {
        let mut p = Pruner::new(PrunerConfig::for_dimension(dimension), estimator());
        p.register_all(three_subscriptions());
        p
    }

    #[test]
    fn registration_and_lookup() {
        let p = pruner(Dimension::NetworkLoad);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert!(p.current_tree(SubscriptionId::from_raw(1)).is_some());
        assert!(p.original(SubscriptionId::from_raw(2)).is_some());
        assert!(p.current_tree(SubscriptionId::from_raw(99)).is_none());
        assert_eq!(p.pruned_subscriptions().len(), 3);
        assert_eq!(p.original_trees().len(), 3);
    }

    #[test]
    fn prune_step_generalizes_exactly_one_subscription() {
        let mut p = pruner(Dimension::NetworkLoad);
        let before: HashMap<SubscriptionId, usize> = p
            .pruned_subscriptions()
            .iter()
            .map(|s| (s.id(), s.tree().predicate_count()))
            .collect();
        let applied = p.prune_step().unwrap();
        let after: HashMap<SubscriptionId, usize> = p
            .pruned_subscriptions()
            .iter()
            .map(|s| (s.id(), s.tree().predicate_count()))
            .collect();
        let mut changed = 0;
        for (id, count_before) in &before {
            let count_after = after[id];
            if *id == applied.subscription {
                assert!(count_after < *count_before);
                changed += 1;
            } else {
                assert_eq!(count_after, *count_before);
            }
        }
        assert_eq!(changed, 1);
        assert_eq!(p.prunings_applied(), 1);
        assert_eq!(p.plan().len(), 1);
    }

    #[test]
    fn prune_all_reaches_exhaustion() {
        for dimension in Dimension::ALL {
            let mut p = pruner(dimension);
            let total = p.prune_all();
            // Subscription 3 is a single predicate (0 prunings); subscriptions
            // 1 and 2 can each be pruned down to a single predicate.
            assert!(total >= 4, "{dimension}: applied only {total} prunings");
            assert!(p.is_exhausted());
            assert!(p.prune_step().is_none());
            for s in p.pruned_subscriptions() {
                assert!(
                    s.tree().generalizing_removals().is_empty(),
                    "{dimension}: subscription {} still prunable",
                    s.id()
                );
            }
        }
    }

    #[test]
    fn total_possible_prunings_matches_prune_all_and_preserves_state() {
        let mut p = pruner(Dimension::NetworkLoad);
        let predicted = p.total_possible_prunings();
        assert_eq!(p.prunings_applied(), 0, "prediction must not mutate state");
        let actual = p.prune_all();
        assert_eq!(predicted, actual);

        // After some pruning the prediction includes the already applied ones.
        let mut q = pruner(Dimension::Memory);
        let total = q.total_possible_prunings();
        q.prune_batch(2);
        assert_eq!(q.total_possible_prunings(), total);
    }

    #[test]
    fn pruned_trees_match_superset_of_original_matches() {
        let events: Vec<EventMessage> = (0..300)
            .map(|i| {
                EventMessage::builder()
                    .attr("price", (i * 7 % 100) as i64)
                    .attr("category", if i % 3 == 0 { "books" } else { "music" })
                    .attr("bids", (i % 25) as i64)
                    .attr("rating", (i % 5) as i64)
                    .build()
            })
            .collect();
        for dimension in Dimension::ALL {
            let mut p = pruner(dimension);
            let originals: Vec<Subscription> = three_subscriptions();
            p.prune_all();
            for original in &originals {
                let current = p.current_tree(original.id()).unwrap();
                for ev in &events {
                    if original.matches(ev) {
                        assert!(
                            current.evaluate(ev),
                            "{dimension}: pruning lost a match of {}",
                            original.id()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn network_dimension_orders_prunings_by_degradation() {
        let mut p = pruner(Dimension::NetworkLoad);
        let mut last = f64::NEG_INFINITY;
        let mut non_monotonic = 0;
        while let Some(applied) = p.prune_step() {
            // Each step picks the currently smallest degradation; as pruning
            // progresses the remaining candidates can only look worse or equal
            // for a *fixed* subscription, but across subscriptions small
            // non-monotonicities are possible when new candidates appear after
            // a pruning. Allow those but require an overall increasing trend.
            if applied.scores.delta_sel + 1e-9 < last {
                non_monotonic += 1;
            }
            last = applied.scores.delta_sel;
        }
        assert!(
            non_monotonic <= 1,
            "degradations should be mostly ascending"
        );
    }

    #[test]
    fn memory_dimension_prefers_big_savings_first() {
        let mut p = pruner(Dimension::Memory);
        let first = p.prune_step().unwrap();
        let mut q = pruner(Dimension::NetworkLoad);
        let candidates: Vec<f64> = std::iter::from_fn(|| q.prune_step())
            .map(|a| a.scores.delta_mem)
            .collect();
        // The memory-first pruner's first saving is at least as large as the
        // average saving of the network-first sequence.
        let avg: f64 = candidates.iter().sum::<f64>() / candidates.len() as f64;
        assert!(first.scores.delta_mem >= avg);
    }

    #[test]
    fn throughput_dimension_keeps_pmin_high() {
        let mut p = pruner(Dimension::Throughput);
        let first = p.prune_step().unwrap();
        // The best throughput candidate across these subscriptions loses no
        // pmin at all (pruning inside the longer OR branch of subscription 2).
        assert_eq!(first.scores.delta_eff, 0.0);
    }

    #[test]
    fn unregistered_subscriptions_are_skipped() {
        let mut p = pruner(Dimension::NetworkLoad);
        p.unregister(SubscriptionId::from_raw(1));
        p.unregister(SubscriptionId::from_raw(2));
        // Only subscription 3 remains and it is a single predicate.
        assert!(p.prune_step().is_none());
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn prune_while_respects_threshold() {
        let mut p = pruner(Dimension::NetworkLoad);
        let threshold = 0.2;
        let applied = p.prune_while(|scores| scores.delta_sel <= threshold);
        for a in &applied {
            assert!(a.scores.delta_sel <= threshold + 1e-12);
        }
        // The next candidate (if any) exceeds the threshold.
        if let Some(next) = p.peek() {
            assert!(next.scores.delta_sel > threshold);
        }
    }

    #[test]
    fn prune_batch_stops_at_exhaustion() {
        let mut p = pruner(Dimension::Memory);
        let applied = p.prune_batch(1000);
        assert!(applied.len() < 1000);
        assert!(p.is_exhausted());
        assert_eq!(applied.len(), p.prunings_applied());
    }

    #[test]
    fn snapshot_tracks_reductions() {
        let mut p = pruner(Dimension::Memory);
        let before = p.snapshot();
        assert_eq!(before.prunings_applied, 0);
        assert_eq!(before.association_reduction(), 0.0);
        assert_eq!(before.byte_reduction(), 0.0);
        assert_eq!(before.remaining_associations, before.original_associations);

        p.prune_all();
        let after = p.snapshot();
        assert!(after.association_reduction() > 0.0);
        assert!(after.byte_reduction() > 0.0);
        assert!(after.remaining_associations < after.original_associations);
        assert_eq!(after.original_associations, before.original_associations);
    }

    #[test]
    fn plan_replay_reproduces_final_trees() {
        let mut p = pruner(Dimension::NetworkLoad);
        let originals = p.original_trees();
        p.prune_all();
        let replayed = p.plan().apply_prefix(&originals, p.plan().len());
        for (id, tree) in &replayed {
            assert_eq!(tree, p.current_tree(*id).unwrap());
        }
    }

    #[test]
    fn ablation_current_reference_differs_from_original() {
        let mut config = PrunerConfig::for_dimension(Dimension::NetworkLoad);
        config.reference_original = false;
        let mut ablated = Pruner::new(config, estimator());
        ablated.register_all(three_subscriptions());
        let mut standard = pruner(Dimension::NetworkLoad);

        standard.prune_all();
        ablated.prune_all();
        // Both exhaust the same pruning space (the reference only changes the
        // order), so the total count matches.
        assert_eq!(standard.prunings_applied(), ablated.prunings_applied());
    }
}
