//! The estimator: predicate selectivities from event statistics, propagated
//! bottom-up through subscription trees.

use crate::{EventStatistics, SelectivityEstimate};
use pubsub_core::{
    EventMessage, Expr, NodeId, NodeKind, Operator, Predicate, SubscriptionTree, Value,
};

/// Estimates subscription selectivities from per-attribute event statistics.
///
/// The estimator answers two questions:
///
/// * [`estimate_predicate`](Self::estimate_predicate) — the probability that
///   a random event fulfils a single predicate;
/// * [`estimate_tree`](Self::estimate_tree) /
///   [`estimate_expr`](Self::estimate_expr) — the `(min, avg, max)` estimate
///   of a whole Boolean subscription, obtained by combining leaf estimates
///   with the Fréchet/independence combinators of
///   [`SelectivityEstimate`].
#[derive(Debug, Clone)]
pub struct SelectivityEstimator {
    stats: EventStatistics,
}

impl SelectivityEstimator {
    /// Creates an estimator over the given statistics.
    pub fn new(stats: EventStatistics) -> Self {
        Self { stats }
    }

    /// Builds the statistics from an event sample and wraps them.
    pub fn from_events(events: &[EventMessage]) -> Self {
        Self::new(EventStatistics::from_events(events))
    }

    /// The underlying event statistics.
    pub fn statistics(&self) -> &EventStatistics {
        &self.stats
    }

    /// Probability that a random event fulfils the predicate.
    ///
    /// The result already accounts for events that do not carry the
    /// attribute at all (those never fulfil a predicate). The statistics are
    /// probed by the predicate's interned [`AttrId`](pubsub_core::AttrId) —
    /// a flat array index, no string hashing.
    pub fn estimate_predicate(&self, predicate: &Predicate) -> f64 {
        let presence = self.stats.presence_probability_id(predicate.attr_id());
        if presence == 0.0 {
            return 0.0;
        }
        let Some(attr) = self.stats.attribute_id(predicate.attr_id()) else {
            return 0.0;
        };
        if attr.present == 0 {
            return 0.0;
        }
        let total = attr.present as f64;

        // Probability that an event carrying the attribute fulfils the
        // predicate, split by the type of the predicate constant.
        let conditional = match (predicate.operator(), predicate.constant()) {
            (Operator::Eq, Value::Bool(b)) => {
                let hits = if *b { attr.bool_true } else { attr.bool_false };
                hits as f64 / total
            }
            (Operator::Ne, Value::Bool(b)) => {
                let hits = if *b { attr.bool_false } else { attr.bool_true };
                hits as f64 / total
            }
            (op, constant) => match constant.as_f64() {
                Some(c) => {
                    let numeric_share = attr.numeric.total() as f64 / total;
                    let p = match op {
                        Operator::Eq => attr.numeric.fraction_eq(c),
                        Operator::Ne => 1.0 - attr.numeric.fraction_eq(c),
                        Operator::Lt => attr.numeric.fraction_below(c, false),
                        Operator::Le => attr.numeric.fraction_below(c, true),
                        Operator::Gt => attr.numeric.fraction_above(c, false),
                        Operator::Ge => attr.numeric.fraction_above(c, true),
                        // String operators never match numeric constants.
                        _ => 0.0,
                    };
                    p * numeric_share
                }
                None => match constant.as_str() {
                    Some(c) => {
                        let string_share = attr.strings.total() as f64 / total;
                        let p = match op {
                            Operator::Eq => attr.strings.fraction_eq(c),
                            Operator::Ne => 1.0 - attr.strings.fraction_eq(c),
                            Operator::Lt => attr
                                .strings
                                .fraction_cmp(c, |o| o == std::cmp::Ordering::Less),
                            Operator::Le => attr
                                .strings
                                .fraction_cmp(c, |o| o != std::cmp::Ordering::Greater),
                            Operator::Gt => attr
                                .strings
                                .fraction_cmp(c, |o| o == std::cmp::Ordering::Greater),
                            Operator::Ge => attr
                                .strings
                                .fraction_cmp(c, |o| o != std::cmp::Ordering::Less),
                            Operator::Prefix => {
                                attr.strings.fraction_matching(|v| v.starts_with(c))
                            }
                            Operator::Suffix => attr.strings.fraction_matching(|v| v.ends_with(c)),
                            Operator::Contains => attr.strings.fraction_matching(|v| v.contains(c)),
                        };
                        p * string_share
                    }
                    None => 0.0,
                },
            },
        };
        (conditional * presence).clamp(0.0, 1.0)
    }

    /// Estimates the selectivity of a whole subscription tree.
    pub fn estimate_tree(&self, tree: &SubscriptionTree) -> SelectivityEstimate {
        self.estimate_node(tree, tree.root())
    }

    /// Estimates the selectivity of the subtree rooted at `node`.
    pub fn estimate_subtree(&self, tree: &SubscriptionTree, node: NodeId) -> SelectivityEstimate {
        self.estimate_node(tree, node)
    }

    fn estimate_node(&self, tree: &SubscriptionTree, node: NodeId) -> SelectivityEstimate {
        let Some(n) = tree.node(node) else {
            return SelectivityEstimate::never();
        };
        let children: Vec<SelectivityEstimate> = tree
            .children(node)
            .map(|c| self.estimate_node(tree, c))
            .collect();
        match n.kind() {
            NodeKind::Predicate(p) => SelectivityEstimate::exact(self.estimate_predicate(p)),
            NodeKind::And => SelectivityEstimate::and(&children),
            NodeKind::Or => SelectivityEstimate::or(&children),
            NodeKind::Not => children[0].not(),
        }
    }

    /// Returns a predicate-selectivity oracle backed by this estimator,
    /// shaped for [`pubsub_core::analysis::Analyzer::with_selectivity`]:
    ///
    /// ```
    /// use pubsub_core::analysis::Analyzer;
    /// use pubsub_core::{EventMessage, Expr, SubscriptionTree};
    /// use selectivity::SelectivityEstimator;
    ///
    /// let events = vec![EventMessage::builder().attr("price", 10i64).build()];
    /// let estimator = SelectivityEstimator::from_events(&events);
    /// let oracle = estimator.predicate_oracle();
    /// let tree = SubscriptionTree::from_expr(&Expr::le("price", 20i64));
    /// let analysis = Analyzer::new().with_selectivity(&oracle).analyze_tree(&tree);
    /// assert!(analysis.report.satisfiable);
    /// ```
    ///
    /// With the oracle attached, the analyzer orders conjuncts most-selective
    /// first (and disjuncts least-selective first), so downstream evaluation
    /// short-circuits as early as the observed event distribution allows.
    pub fn predicate_oracle(&self) -> impl Fn(&Predicate) -> f64 + '_ {
        move |predicate| self.estimate_predicate(predicate)
    }

    /// Estimates the selectivity of a recursive expression.
    pub fn estimate_expr(&self, expr: &Expr) -> SelectivityEstimate {
        match expr {
            Expr::Pred(p) => SelectivityEstimate::exact(self.estimate_predicate(p)),
            Expr::And(children) => {
                let children: Vec<SelectivityEstimate> =
                    children.iter().map(|c| self.estimate_expr(c)).collect();
                SelectivityEstimate::and(&children)
            }
            Expr::Or(children) => {
                let children: Vec<SelectivityEstimate> =
                    children.iter().map(|c| self.estimate_expr(c)).collect();
                SelectivityEstimate::or(&children)
            }
            Expr::Not(child) => self.estimate_expr(child).not(),
        }
    }
}

/// The exact (measured) selectivity of a tree over an event sample: the
/// fraction of sample events matching the tree. Used as ground truth when
/// validating the estimator and when reporting the "expected network load"
/// series of Figure 1(b).
pub fn measured_selectivity(tree: &SubscriptionTree, events: &[EventMessage]) -> f64 {
    if events.is_empty() {
        return 0.0;
    }
    let matching = events.iter().filter(|e| tree.evaluate(e)).count();
    matching as f64 / events.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_core::Expr;

    /// 200 events: price uniform 0..100 (integers, two copies each),
    /// category books 25% / music 75%, rating present on half the events.
    fn sample_events() -> Vec<EventMessage> {
        (0..200)
            .map(|i| {
                let price = (i % 100) as i64;
                let mut b = EventMessage::builder()
                    .attr("price", price)
                    .attr("category", if i % 4 == 0 { "books" } else { "music" });
                if i % 2 == 0 {
                    b = b.attr("rating", (i % 5) as i64);
                }
                b.build()
            })
            .collect()
    }

    fn estimator() -> SelectivityEstimator {
        SelectivityEstimator::from_events(&sample_events())
    }

    fn approx(a: f64, b: f64, eps: f64) -> bool {
        (a - b).abs() < eps
    }

    #[test]
    fn predicate_estimates_match_measured_fractions() {
        let est = estimator();
        let events = sample_events();
        let cases = vec![
            Predicate::new("price", Operator::Lt, 50i64),
            Predicate::new("price", Operator::Ge, 90i64),
            Predicate::new("price", Operator::Eq, 10i64),
            Predicate::new("category", Operator::Eq, "books"),
            Predicate::new("category", Operator::Ne, "books"),
            Predicate::new("category", Operator::Prefix, "mus"),
            Predicate::new("rating", Operator::Ge, 3i64),
        ];
        for p in cases {
            let measured =
                events.iter().filter(|e| p.evaluate(e)).count() as f64 / events.len() as f64;
            let estimated = est.estimate_predicate(&p);
            assert!(
                approx(estimated, measured, 0.05),
                "predicate {p}: estimated {estimated} vs measured {measured}"
            );
        }
    }

    #[test]
    fn unknown_attributes_and_type_mismatches_estimate_zero() {
        let est = estimator();
        assert_eq!(
            est.estimate_predicate(&Predicate::new("missing", Operator::Eq, 1i64)),
            0.0
        );
        // A string-operator predicate over a numeric constant can never match.
        assert_eq!(
            est.estimate_predicate(&Predicate::new("price", Operator::Prefix, 10i64)),
            0.0
        );
    }

    #[test]
    fn tree_estimates_bracket_measured_selectivity() {
        let est = estimator();
        let events = sample_events();
        let exprs = vec![
            Expr::and(vec![
                Expr::eq("category", "books"),
                Expr::lt("price", 50i64),
            ]),
            Expr::or(vec![
                Expr::eq("category", "books"),
                Expr::ge("price", 80i64),
            ]),
            Expr::and(vec![
                Expr::ge("rating", 1i64),
                Expr::or(vec![Expr::lt("price", 20i64), Expr::ge("price", 90i64)]),
            ]),
            Expr::not(Expr::eq("category", "books")),
        ];
        for expr in exprs {
            let tree = SubscriptionTree::from_expr(&expr);
            let estimate = est.estimate_tree(&tree);
            let measured = measured_selectivity(&tree, &events);
            assert!(estimate.is_consistent());
            assert!(
                estimate.min - 0.05 <= measured && measured <= estimate.max + 0.05,
                "expr {expr}: measured {measured} outside [{}, {}]",
                estimate.min,
                estimate.max
            );
            // The independence-based average should be a decent point estimate
            // for this mostly independent workload.
            assert!(
                approx(estimate.avg, measured, 0.15),
                "expr {expr}: avg {} vs measured {measured}",
                estimate.avg
            );
        }
    }

    #[test]
    fn expr_and_tree_estimates_agree() {
        let est = estimator();
        let expr = Expr::and(vec![
            Expr::eq("category", "music"),
            Expr::or(vec![Expr::lt("price", 30i64), Expr::ge("rating", 4i64)]),
        ]);
        let tree = SubscriptionTree::from_expr(&expr);
        let a = est.estimate_expr(&expr);
        let b = est.estimate_tree(&tree);
        assert!(approx(a.min, b.min, 1e-12));
        assert!(approx(a.avg, b.avg, 1e-12));
        assert!(approx(a.max, b.max, 1e-12));
    }

    #[test]
    fn pruning_never_decreases_estimated_selectivity() {
        let est = estimator();
        let expr = Expr::or(vec![
            Expr::and(vec![
                Expr::eq("category", "books"),
                Expr::lt("price", 30i64),
                Expr::ge("rating", 2i64),
            ]),
            Expr::and(vec![
                Expr::eq("category", "music"),
                Expr::ge("price", 90i64),
            ]),
        ]);
        let tree = SubscriptionTree::from_expr(&expr);
        let before = est.estimate_tree(&tree);
        for node in tree.generalizing_removals() {
            let pruned = tree.prune(node).unwrap();
            let after = est.estimate_tree(&pruned);
            assert!(
                after.avg + 1e-9 >= before.avg,
                "pruning must not decrease avg selectivity"
            );
            assert!(before.degradation_to(&after) >= -1e-9);
        }
    }

    #[test]
    fn subtree_estimation_targets_the_right_node() {
        let est = estimator();
        let expr = Expr::and(vec![
            Expr::eq("category", "books"),
            Expr::lt("price", 50i64),
        ]);
        let tree = SubscriptionTree::from_expr(&expr);
        let price_node = tree
            .predicates()
            .find(|(_, p)| p.attribute() == "price")
            .map(|(id, _)| id)
            .unwrap();
        let sub = est.estimate_subtree(&tree, price_node);
        assert!(approx(sub.avg, 0.5, 0.05), "got {}", sub.avg);
        // Unknown node estimates as never-matching.
        let bogus = est.estimate_subtree(&tree, NodeId::from_index(999));
        assert_eq!(bogus, SelectivityEstimate::never());
    }

    #[test]
    fn measured_selectivity_edge_cases() {
        let tree = SubscriptionTree::from_expr(&Expr::eq("category", "books"));
        assert_eq!(measured_selectivity(&tree, &[]), 0.0);
        let events = sample_events();
        let all = SubscriptionTree::from_expr(&Expr::ge("price", 0i64));
        assert!(approx(measured_selectivity(&all, &events), 1.0, 1e-9));
    }

    #[test]
    fn predicate_oracle_drives_analyzer_conjunct_ordering() {
        use pubsub_core::analysis::Analyzer;

        let estimator = estimator();
        // price < 5 matches ~5% of the sample, category = music ~75%.
        let rare = Expr::lt("price", 5i64);
        let common = Expr::eq("category", "music");
        let oracle = estimator.predicate_oracle();
        assert!(
            (oracle)(rare.predicates()[0]) < (oracle)(common.predicates()[0]),
            "sample should make the price conjunct the more selective one"
        );
        let tree = SubscriptionTree::from_expr(&Expr::and(vec![common.clone(), rare.clone()]));
        let analysis = Analyzer::new()
            .with_selectivity(&oracle)
            .analyze_tree(&tree);
        assert!(analysis.report.satisfiable);
        assert!(analysis.report.reordered);
        assert_eq!(
            analysis.tree.expect("satisfiable").to_expr(),
            Expr::and(vec![rare, common]),
            "most selective conjunct should come first"
        );
    }
}
