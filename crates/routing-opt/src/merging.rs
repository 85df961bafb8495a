//! Greedy subscription merging for conjunctive subscriptions.

use pubsub_core::{
    AttrId, Expr, Operator, Predicate, SubscriberId, Subscription, SubscriptionId, Value,
};
use std::collections::BTreeMap;

/// Configuration of the greedy merger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergeConfig {
    /// Minimum number of subscriptions a group must contain before it is
    /// merged (merging tiny groups mostly adds imprecision).
    pub min_group_size: usize,
    /// Identifier offset for the synthetic merged subscriptions, so their
    /// ids do not collide with real subscription ids.
    pub merged_id_offset: u64,
}

impl Default for MergeConfig {
    fn default() -> Self {
        Self {
            min_group_size: 2,
            merged_id_offset: 1_000_000_000,
        }
    }
}

/// The result of merging one group of subscriptions.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeOutcome {
    /// The synthetic subscription standing in for the whole group.
    pub merged: Subscription,
    /// The subscriptions replaced by the merger.
    pub replaced: Vec<SubscriptionId>,
    /// `true` if the merger matches exactly the union of the replaced
    /// subscriptions (a *perfect* merger); `false` if it over-approximates.
    pub perfect: bool,
}

/// Summary of a merging pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MergeReport {
    /// Total subscriptions considered.
    pub total: usize,
    /// Conjunctive subscriptions (eligible for merging).
    pub conjunctive: usize,
    /// Subscriptions replaced by mergers.
    pub replaced: usize,
    /// Mergers created.
    pub mergers: usize,
    /// Of which perfect (no over-approximation).
    pub perfect_mergers: usize,
    /// Predicate/subscription associations before merging.
    pub associations_before: usize,
    /// Predicate/subscription associations after merging (mergers included,
    /// unmergeable subscriptions kept as-is).
    pub associations_after: usize,
}

impl MergeReport {
    /// Proportional reduction in associations achieved by merging.
    pub fn association_reduction(&self) -> f64 {
        if self.associations_before == 0 {
            0.0
        } else {
            1.0 - self.associations_after as f64 / self.associations_before as f64
        }
    }
}

/// The key a conjunctive subscription is grouped by: its attribute/operator
/// signature, keyed by dense interned [`AttrId`]s — grouping never copies or
/// compares attribute strings. Only subscriptions with the same signature
/// are merged, which is the classic "merge candidates" criterion.
fn signature(predicates: &[&Predicate]) -> Option<Vec<(AttrId, Operator)>> {
    let mut sig: Vec<(AttrId, Operator)> = predicates
        .iter()
        .map(|p| (p.attr_id(), p.operator()))
        .collect();
    sig.sort();
    // Subscriptions with repeated attribute/operator pairs are left alone —
    // merging them correctly would need interval reasoning per pair.
    for window in sig.windows(2) {
        if window[0] == window[1] {
            return None;
        }
    }
    Some(sig)
}

fn conjunctive_predicates(subscription: &Subscription) -> Option<Vec<Predicate>> {
    let expr = subscription.tree().to_expr();
    if !expr.is_conjunctive() {
        return None;
    }
    Some(expr.predicates().into_iter().cloned().collect())
}

/// Builds the merged predicate for one attribute/operator slot from the
/// group's per-subscription constants. Returns `(predicate, exact)` where
/// `exact` is `false` when the merged predicate over-approximates.
fn merge_slot(
    attribute: AttrId,
    operator: Operator,
    constants: &[&Value],
) -> Option<(Predicate, bool)> {
    match operator {
        Operator::Eq => {
            // All equal -> keep; otherwise the slot cannot be represented by a
            // single equality, so it is dropped (over-approximation).
            let first = constants[0];
            if constants.iter().all(|c| *c == first) {
                Some((
                    Predicate::with_attr_id(attribute, operator, (*first).clone()),
                    true,
                ))
            } else {
                None
            }
        }
        Operator::Le | Operator::Lt => {
            // The union of upper bounds is the loosest (largest) bound;
            // exact only if all bounds coincide.
            let mut best = constants[0];
            for c in constants.iter() {
                if best.partial_cmp_value(c) == Some(std::cmp::Ordering::Less) {
                    best = c;
                }
            }
            let exact = constants.iter().all(|c| *c == best);
            Some((
                Predicate::with_attr_id(attribute, operator, best.clone()),
                exact,
            ))
        }
        Operator::Ge | Operator::Gt => {
            // The union of lower bounds is the smallest bound.
            let mut best = constants[0];
            for c in constants.iter() {
                if best.partial_cmp_value(c) == Some(std::cmp::Ordering::Greater) {
                    best = c;
                }
            }
            let exact = constants.iter().all(|c| *c == best);
            Some((
                Predicate::with_attr_id(attribute, operator, best.clone()),
                exact,
            ))
        }
        // Pattern and inequality predicates are dropped from the merger
        // (over-approximation) unless identical across the group.
        _ => {
            let first = constants[0];
            if constants.iter().all(|c| *c == first) {
                Some((
                    Predicate::with_attr_id(attribute, operator, (*first).clone()),
                    true,
                ))
            } else {
                None
            }
        }
    }
}

/// Greedily merges groups of conjunctive subscriptions that share the same
/// attribute/operator signature. Non-conjunctive subscriptions and groups
/// smaller than [`MergeConfig::min_group_size`] are left untouched.
pub fn merge_subscriptions(
    subscriptions: &[Subscription],
    config: MergeConfig,
) -> (Vec<MergeOutcome>, MergeReport) {
    let mut report = MergeReport {
        total: subscriptions.len(),
        associations_before: subscriptions
            .iter()
            .map(|s| s.tree().predicate_count())
            .sum(),
        ..Default::default()
    };

    // Group conjunctive subscriptions by signature.
    let mut groups: BTreeMap<Vec<(AttrId, Operator)>, Vec<&Subscription>> = BTreeMap::new();
    let mut unmergeable_associations = 0usize;
    for s in subscriptions {
        match conjunctive_predicates(s) {
            Some(preds) => {
                report.conjunctive += 1;
                match signature(&preds.iter().collect::<Vec<_>>()) {
                    Some(sig) => groups.entry(sig).or_default().push(s),
                    None => unmergeable_associations += s.tree().predicate_count(),
                }
            }
            None => unmergeable_associations += s.tree().predicate_count(),
        }
    }

    let mut outcomes = Vec::new();
    let mut merged_associations = 0usize;
    let mut next_merged_id = config.merged_id_offset;
    for (sig, group) in groups {
        if group.len() < config.min_group_size {
            unmergeable_associations += group
                .iter()
                .map(|s| s.tree().predicate_count())
                .sum::<usize>();
            continue;
        }
        // Merge slot by slot.
        let per_sub_preds: Vec<Vec<Predicate>> = group
            .iter()
            .map(|s| conjunctive_predicates(s).expect("grouped subscriptions are conjunctive"))
            .collect();
        let mut merged_predicates = Vec::new();
        let mut perfect = true;
        for (attribute, operator) in &sig {
            let constants: Vec<&Value> = per_sub_preds
                .iter()
                .map(|preds| {
                    preds
                        .iter()
                        .find(|p| p.attr_id() == *attribute && p.operator() == *operator)
                        .expect("signature guarantees the slot exists")
                        .constant()
                })
                .collect();
            match merge_slot(*attribute, *operator, &constants) {
                Some((predicate, exact)) => {
                    perfect &= exact;
                    merged_predicates.push(Expr::pred(predicate));
                }
                None => perfect = false,
            }
        }
        // A merger that lost all its predicates would match everything; keep
        // the group unmerged instead.
        if merged_predicates.is_empty() {
            unmergeable_associations += group
                .iter()
                .map(|s| s.tree().predicate_count())
                .sum::<usize>();
            continue;
        }
        // A group of identical subscriptions merged into themselves is only
        // "perfect" in the trivial sense; still counts as a merger.
        let merged = Subscription::from_expr(
            SubscriptionId::from_raw(next_merged_id),
            SubscriberId::from_raw(next_merged_id),
            &Expr::and(merged_predicates),
        );
        next_merged_id += 1;
        merged_associations += merged.tree().predicate_count();
        report.mergers += 1;
        if perfect {
            report.perfect_mergers += 1;
        }
        report.replaced += group.len();
        outcomes.push(MergeOutcome {
            merged,
            replaced: group.iter().map(|s| s.id()).collect(),
            perfect,
        });
    }

    report.associations_after = unmergeable_associations + merged_associations;
    (outcomes, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_core::EventMessage;

    fn sub(id: u64, expr: &Expr) -> Subscription {
        Subscription::from_expr(
            SubscriptionId::from_raw(id),
            SubscriberId::from_raw(id),
            expr,
        )
    }

    fn watcher(id: u64, title: &str, price: i64) -> Subscription {
        sub(
            id,
            &Expr::and(vec![Expr::eq("title", title), Expr::le("price", price)]),
        )
    }

    #[test]
    fn merging_same_title_watchers_widens_the_price_bound() {
        let subs = vec![
            watcher(1, "dune", 10),
            watcher(2, "dune", 25),
            watcher(3, "dune", 15),
        ];
        let (outcomes, report) = merge_subscriptions(&subs, MergeConfig::default());
        assert_eq!(outcomes.len(), 1);
        let merged = &outcomes[0];
        assert_eq!(merged.replaced.len(), 3);
        assert!(!merged.perfect, "different price bounds over-approximate");
        // The merger must cover every original match.
        for price in 0..40i64 {
            let ev = EventMessage::builder()
                .attr("title", "dune")
                .attr("price", price)
                .build();
            let original_match = subs.iter().any(|s| s.matches(&ev));
            if original_match {
                assert!(merged.merged.matches(&ev));
            }
        }
        assert_eq!(report.mergers, 1);
        assert_eq!(report.replaced, 3);
        assert!(report.association_reduction() > 0.5);
    }

    #[test]
    fn identical_subscriptions_merge_perfectly() {
        let subs = vec![watcher(1, "dune", 10), watcher(2, "dune", 10)];
        let (outcomes, report) = merge_subscriptions(&subs, MergeConfig::default());
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].perfect);
        assert_eq!(report.perfect_mergers, 1);
    }

    #[test]
    fn different_titles_force_an_imperfect_merger() {
        let subs = vec![watcher(1, "dune", 10), watcher(2, "neuromancer", 10)];
        let (outcomes, _) = merge_subscriptions(&subs, MergeConfig::default());
        assert_eq!(outcomes.len(), 1);
        let merged = &outcomes[0];
        assert!(!merged.perfect);
        // The title slot is dropped: the merger matches any cheap listing.
        let ev = EventMessage::builder()
            .attr("title", "snow crash")
            .attr("price", 5i64)
            .build();
        assert!(merged.merged.matches(&ev));
    }

    #[test]
    fn non_conjunctive_and_singleton_groups_are_left_alone() {
        let subs = vec![
            watcher(1, "dune", 10),
            sub(2, &Expr::or(vec![Expr::eq("a", 1i64), Expr::eq("b", 2i64)])),
            sub(
                3,
                &Expr::and(vec![
                    Expr::eq("author", "herbert"),
                    Expr::ge("rating", 4i64),
                ]),
            ),
        ];
        let (outcomes, report) = merge_subscriptions(&subs, MergeConfig::default());
        assert!(outcomes.is_empty());
        assert_eq!(report.total, 3);
        assert_eq!(report.conjunctive, 2);
        assert_eq!(report.replaced, 0);
        assert_eq!(report.associations_before, report.associations_after);
        assert_eq!(report.association_reduction(), 0.0);
    }

    #[test]
    fn ge_bounds_take_the_minimum() {
        let subs = vec![
            sub(
                1,
                &Expr::and(vec![
                    Expr::eq("category", "books"),
                    Expr::ge("rating", 4i64),
                ]),
            ),
            sub(
                2,
                &Expr::and(vec![
                    Expr::eq("category", "books"),
                    Expr::ge("rating", 2i64),
                ]),
            ),
        ];
        let (outcomes, _) = merge_subscriptions(&subs, MergeConfig::default());
        assert_eq!(outcomes.len(), 1);
        let ev = EventMessage::builder()
            .attr("category", "books")
            .attr("rating", 3i64)
            .build();
        assert!(outcomes[0].merged.matches(&ev));
        let too_low = EventMessage::builder()
            .attr("category", "books")
            .attr("rating", 1i64)
            .build();
        assert!(!outcomes[0].merged.matches(&too_low));
    }

    #[test]
    fn merged_ids_avoid_collisions() {
        let subs = vec![watcher(1, "dune", 10), watcher(2, "dune", 25)];
        let config = MergeConfig {
            merged_id_offset: 5000,
            ..MergeConfig::default()
        };
        let (outcomes, _) = merge_subscriptions(&subs, config);
        assert_eq!(outcomes[0].merged.id(), SubscriptionId::from_raw(5000));
    }

    #[test]
    fn min_group_size_is_respected() {
        let subs = vec![watcher(1, "dune", 10), watcher(2, "dune", 25)];
        let config = MergeConfig {
            min_group_size: 3,
            ..MergeConfig::default()
        };
        let (outcomes, report) = merge_subscriptions(&subs, config);
        assert!(outcomes.is_empty());
        assert_eq!(report.association_reduction(), 0.0);
    }

    #[test]
    fn empty_input() {
        let (outcomes, report) = merge_subscriptions(&[], MergeConfig::default());
        assert!(outcomes.is_empty());
        assert_eq!(report.total, 0);
        assert_eq!(report.association_reduction(), 0.0);
    }
}
