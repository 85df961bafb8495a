//! Cumulative filtering statistics.

use std::time::Duration;

/// Counters accumulated by a matching engine while filtering events.
///
/// The time-efficiency experiments (Figures 1(a) and 1(d) of the paper) are
/// driven by [`avg_filter_time`](FilterStats::avg_filter_time); the remaining
/// counters explain *why* a configuration is faster or slower (how many tree
/// evaluations the `pmin` counting shortcut skipped, how many candidate
/// subscriptions were touched, and so on).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FilterStats {
    /// Number of events filtered.
    pub events_filtered: u64,
    /// Number of `match_batch` invocations (a single-event call through the
    /// compatibility wrappers counts as a one-event batch). Together with
    /// [`events_filtered`](Self::events_filtered) this reports the average
    /// batch size the engine was driven with.
    pub batches_filtered: u64,
    /// Total number of subscription matches produced.
    pub matches: u64,
    /// Number of subscription trees actually evaluated. On the A-Tree, the
    /// number of interior DAG nodes evaluated (counter or child scan).
    pub trees_evaluated: u64,
    /// Number of candidate subscriptions skipped because the number of
    /// fulfilled predicates stayed below the tree's `pmin`.
    pub skipped_by_pmin: u64,
    /// Number of fulfilled predicate instances reported by the indexes.
    pub predicates_fulfilled: u64,
    /// Number of fulfilled-predicate emissions suppressed by the stage-0
    /// pre-filter before reaching the counting arrays. Zero when the
    /// pre-filter is off.
    pub killed_by_prefilter: u64,
    /// Number of candidate subscriptions that survived into stage 2 (the
    /// counting/evaluation phase) — i.e. subscriptions with at least one
    /// surviving fulfilled predicate for some event that stage 0 did not
    /// already match from an exact residual. On the A-Tree, the
    /// number of rooted DAG nodes (nodes with subscribers) evaluated, a
    /// fulfilled rooted leaf included.
    pub stage2_candidates: u64,
    /// Number of inserted subscriptions whose tree the registration-time
    /// analyzer rewrote (normalized) before indexing. Zero when analysis
    /// is off.
    pub subs_simplified: u64,
    /// Total number of expression nodes eliminated by registration-time
    /// analysis across all simplified subscriptions.
    pub nodes_eliminated: u64,
    /// Number of subscriptions rejected at registration because analysis
    /// proved them unsatisfiable; they are never indexed.
    pub unsatisfiable_rejected: u64,
    /// Live DAG nodes held by a shared-subexpression (A-Tree) engine — a
    /// gauge refreshed on every registration change, zero for engines
    /// without a DAG. Merging sums the gauges, giving a system-wide total.
    pub dag_nodes: u64,
    /// DAG nodes currently referenced more than once (by parent expressions
    /// or subscriptions) — the number of subtrees whose evaluation is shared.
    /// A gauge like [`dag_nodes`](Self::dag_nodes); zero without sharing.
    pub shared_subtrees: u64,
    /// Cumulative node evaluations avoided by subexpression sharing: each
    /// time a DAG node with `r > 1` references is evaluated once instead of
    /// `r` times, this grows by `r - 1`.
    pub node_evals_saved: u64,
    /// Number of forwarding decisions a routing table answered from its
    /// witness cache — an entry that recently matched towards the same
    /// neighbor matched again — without running the neighbor's engine. Zero
    /// for a bare engine; a table counts these decisions in
    /// [`events_filtered`](Self::events_filtered) too.
    pub witness_hits: u64,
    /// Number of direct subscription-tree evaluations the witness cache
    /// spent, hits and misses together.
    pub witness_evals: u64,
    /// Total wall-clock time spent inside `match_event`.
    pub filter_time: Duration,
}

impl FilterStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Average number of matches per filtered event.
    pub fn avg_matches_per_event(&self) -> f64 {
        if self.events_filtered == 0 {
            0.0
        } else {
            self.matches as f64 / self.events_filtered as f64
        }
    }

    /// Average wall-clock time spent filtering one event.
    pub fn avg_filter_time(&self) -> Duration {
        if self.events_filtered == 0 {
            Duration::ZERO
        } else {
            self.filter_time / u32::try_from(self.events_filtered).unwrap_or(u32::MAX)
        }
    }

    /// Average number of subscription-tree evaluations per event.
    pub fn avg_evaluations_per_event(&self) -> f64 {
        if self.events_filtered == 0 {
            0.0
        } else {
            self.trees_evaluated as f64 / self.events_filtered as f64
        }
    }

    /// Average number of events per `match_batch` invocation.
    pub fn avg_batch_size(&self) -> f64 {
        if self.batches_filtered == 0 {
            0.0
        } else {
            self.events_filtered as f64 / self.batches_filtered as f64
        }
    }

    /// Merges another statistics block into this one (used when aggregating
    /// per-broker statistics into a system-wide view).
    pub fn merge(&mut self, other: &FilterStats) {
        self.events_filtered += other.events_filtered;
        self.batches_filtered += other.batches_filtered;
        self.matches += other.matches;
        self.trees_evaluated += other.trees_evaluated;
        self.skipped_by_pmin += other.skipped_by_pmin;
        self.predicates_fulfilled += other.predicates_fulfilled;
        self.killed_by_prefilter += other.killed_by_prefilter;
        self.stage2_candidates += other.stage2_candidates;
        self.subs_simplified += other.subs_simplified;
        self.nodes_eliminated += other.nodes_eliminated;
        self.unsatisfiable_rejected += other.unsatisfiable_rejected;
        self.dag_nodes += other.dag_nodes;
        self.shared_subtrees += other.shared_subtrees;
        self.node_evals_saved += other.node_evals_saved;
        self.witness_hits += other.witness_hits;
        self.witness_evals += other.witness_evals;
        self.filter_time += other.filter_time;
    }

    /// What accumulated since the earlier snapshot `before` of the same
    /// statistics: the matching-time counters and the filter time are
    /// subtracted; the gauges (`dag_nodes`, `shared_subtrees`) and the
    /// registration-time counters (`subs_simplified`, `nodes_eliminated`,
    /// `unsatisfiable_rejected`), which describe the subscription population
    /// rather than the events filtered, keep their current value.
    pub fn since(&self, before: &FilterStats) -> FilterStats {
        FilterStats {
            events_filtered: self.events_filtered - before.events_filtered,
            batches_filtered: self.batches_filtered - before.batches_filtered,
            matches: self.matches - before.matches,
            trees_evaluated: self.trees_evaluated - before.trees_evaluated,
            skipped_by_pmin: self.skipped_by_pmin - before.skipped_by_pmin,
            predicates_fulfilled: self.predicates_fulfilled - before.predicates_fulfilled,
            killed_by_prefilter: self.killed_by_prefilter - before.killed_by_prefilter,
            stage2_candidates: self.stage2_candidates - before.stage2_candidates,
            node_evals_saved: self.node_evals_saved - before.node_evals_saved,
            witness_hits: self.witness_hits - before.witness_hits,
            witness_evals: self.witness_evals - before.witness_evals,
            filter_time: self.filter_time - before.filter_time,
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_over_zero_events_are_zero() {
        let s = FilterStats::new();
        assert_eq!(s.avg_matches_per_event(), 0.0);
        assert_eq!(s.avg_filter_time(), Duration::ZERO);
        assert_eq!(s.avg_evaluations_per_event(), 0.0);
    }

    #[test]
    fn averages_divide_by_event_count() {
        let s = FilterStats {
            events_filtered: 4,
            batches_filtered: 2,
            matches: 8,
            trees_evaluated: 12,
            skipped_by_pmin: 2,
            predicates_fulfilled: 20,
            killed_by_prefilter: 6,
            stage2_candidates: 14,
            subs_simplified: 1,
            nodes_eliminated: 3,
            unsatisfiable_rejected: 1,
            dag_nodes: 5,
            shared_subtrees: 2,
            node_evals_saved: 4,
            witness_hits: 3,
            witness_evals: 9,
            filter_time: Duration::from_millis(40),
        };
        assert_eq!(s.avg_matches_per_event(), 2.0);
        assert_eq!(s.avg_filter_time(), Duration::from_millis(10));
        assert_eq!(s.avg_evaluations_per_event(), 3.0);
        assert_eq!(s.avg_batch_size(), 2.0);
        assert_eq!(FilterStats::new().avg_batch_size(), 0.0);
    }

    /// Every field set to a distinct non-zero value.
    fn all_fields() -> FilterStats {
        FilterStats {
            events_filtered: 1,
            batches_filtered: 1,
            matches: 2,
            trees_evaluated: 3,
            skipped_by_pmin: 4,
            predicates_fulfilled: 5,
            killed_by_prefilter: 6,
            stage2_candidates: 7,
            subs_simplified: 8,
            nodes_eliminated: 9,
            unsatisfiable_rejected: 10,
            dag_nodes: 11,
            shared_subtrees: 12,
            node_evals_saved: 13,
            witness_hits: 14,
            witness_evals: 15,
            filter_time: Duration::from_micros(10),
        }
    }

    #[test]
    fn merge_accumulates_all_counters() {
        let mut a = all_fields();
        let b = a;
        a.merge(&b);
        assert_eq!(a.events_filtered, 2);
        assert_eq!(a.batches_filtered, 2);
        assert_eq!(a.matches, 4);
        assert_eq!(a.trees_evaluated, 6);
        assert_eq!(a.skipped_by_pmin, 8);
        assert_eq!(a.predicates_fulfilled, 10);
        assert_eq!(a.killed_by_prefilter, 12);
        assert_eq!(a.stage2_candidates, 14);
        assert_eq!(a.subs_simplified, 16);
        assert_eq!(a.nodes_eliminated, 18);
        assert_eq!(a.unsatisfiable_rejected, 20);
        assert_eq!(a.dag_nodes, 22);
        assert_eq!(a.shared_subtrees, 24);
        assert_eq!(a.node_evals_saved, 26);
        assert_eq!(a.witness_hits, 28);
        assert_eq!(a.witness_evals, 30);
        assert_eq!(a.filter_time, Duration::from_micros(20));
    }

    #[test]
    fn since_subtracts_counters_and_keeps_gauges_and_registration_counters() {
        let before = all_fields();
        let mut after = before;
        after.merge(&before);
        // Every field doubled: the counters' delta is `before`'s value, the
        // gauges and registration-time counters stay at `after`'s.
        let expected = FilterStats {
            subs_simplified: after.subs_simplified,
            nodes_eliminated: after.nodes_eliminated,
            unsatisfiable_rejected: after.unsatisfiable_rejected,
            dag_nodes: after.dag_nodes,
            shared_subtrees: after.shared_subtrees,
            ..before
        };
        assert_eq!(after.since(&before), expected);
    }
}
