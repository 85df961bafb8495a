//! Property-based tests over randomly generated Boolean subscriptions and
//! events, exercising the core invariants the whole system rests on:
//!
//! * the counting matcher agrees with direct tree evaluation;
//! * every valid pruning generalizes the subscription (no lost matches);
//! * every pruning candidate is entailed by its original, as `implies`
//!   decides it;
//! * `pmin` never increases under pruning;
//! * every built and every pruned tree keeps the preorder node layout;
//! * selectivity estimates bracket the measured selectivity;
//! * the distributed simulation delivers exactly the centralized matches.

use dimension_pruning::matching::MatchingEngine;
use dimension_pruning::model::analysis::implies;
use dimension_pruning::model::NodeId;
use dimension_pruning::net::{Simulation, SimulationConfig, Topology};
use dimension_pruning::prelude::*;
use dimension_pruning::prune::{enumerate_candidates, ScoreContext};
use proptest::prelude::*;

const ATTRIBUTES: [&str; 5] = ["price", "bids", "rating", "category", "condition"];
const CATEGORIES: [&str; 4] = ["books", "music", "games", "tools"];

/// Strategy for a random predicate over the small test schema.
fn predicate_strategy() -> impl Strategy<Value = Expr> {
    prop_oneof![
        // Numeric comparison on price / bids / rating.
        (0..3usize, 0..6usize, -5i64..50).prop_map(|(attr, op, value)| {
            let attribute = ATTRIBUTES[attr];
            let operator = [
                Operator::Eq,
                Operator::Ne,
                Operator::Lt,
                Operator::Le,
                Operator::Gt,
                Operator::Ge,
            ][op];
            Expr::pred(Predicate::new(attribute, operator, value))
        }),
        // Category equality / prefix.
        (0..CATEGORIES.len(), prop::bool::ANY).prop_map(|(idx, prefix)| {
            if prefix {
                Expr::prefix("category", &CATEGORIES[idx][..2])
            } else {
                Expr::eq("category", CATEGORIES[idx])
            }
        }),
        // Boolean flag.
        prop::bool::ANY.prop_map(|v| Expr::eq("condition", v)),
    ]
}

/// Strategy for a random Boolean expression of bounded depth.
fn expr_strategy() -> impl Strategy<Value = Expr> {
    predicate_strategy().prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Expr::and),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Expr::or),
            inner.prop_map(Expr::not),
        ]
    })
}

/// Strategy for a random event over the same schema.
fn event_strategy() -> impl Strategy<Value = EventMessage> {
    (
        -5i64..50,
        -5i64..50,
        -5i64..50,
        0..CATEGORIES.len(),
        prop::bool::ANY,
        prop::bool::ANY,
    )
        .prop_map(
            |(price, bids, rating, category, condition, include_rating)| {
                let mut builder = EventMessage::builder()
                    .attr("price", price)
                    .attr("bids", bids)
                    .attr("category", CATEGORIES[category])
                    .attr("condition", condition);
                if include_rating {
                    builder = builder.attr("rating", rating);
                }
                builder.build()
            },
        )
}

fn subscription(id: u64, expr: &Expr) -> Subscription {
    Subscription::from_expr(
        SubscriptionId::from_raw(id),
        SubscriberId::from_raw(id),
        expr,
    )
}

/// The preorder layout of a [`SubscriptionTree`]: the root is node 0 and
/// every other node's parent precedes it; `children(n)` is exactly the nodes
/// whose parent is `n`, in order; the subtree of `n` — `n` and the nodes
/// whose parent chain reaches `n` — is the range `[n, end)`; and evaluating
/// the leaves agrees with `expr`, the expression the tree stands for.
fn check_preorder_layout(
    tree: &SubscriptionTree,
    expr: &Expr,
    events: &[EventMessage],
) -> Result<(), TestCaseError> {
    let parent = |n: NodeId| tree.node(n).and_then(|node| node.parent());
    prop_assert_eq!(tree.root(), NodeId::from_index(0));
    prop_assert_eq!(parent(tree.root()), None);
    for n in tree.node_ids().skip(1) {
        prop_assert!(parent(n).is_some_and(|p| p < n), "{n} in {tree}");
    }
    for n in tree.node_ids() {
        let children: Vec<NodeId> = tree.children(n).collect();
        let parented: Vec<NodeId> = tree.node_ids().filter(|&c| parent(c) == Some(n)).collect();
        prop_assert_eq!(children, parented, "children of {} in {}", n, tree);
        let below_n = |mut m: NodeId| loop {
            if m == n {
                return true;
            }
            match parent(m) {
                Some(p) => m = p,
                None => return false,
            }
        };
        let subtree: Vec<usize> = tree
            .node_ids()
            .filter(|&m| below_n(m))
            .map(NodeId::index)
            .collect();
        prop_assert_eq!(
            subtree,
            tree.subtree_range(n).collect::<Vec<_>>(),
            "subtree of {} in {}",
            n,
            tree
        );
    }
    for event in events {
        prop_assert_eq!(
            tree.evaluate_leaves(&mut |_, p| p.evaluate(event)),
            expr.evaluate(event)
        );
    }
    Ok(())
}

/// The trees of every candidate `enumerate_candidates` yields for `tree`,
/// in both `bottom_up_only` settings, each with the setting it came from.
fn candidate_trees(tree: &SubscriptionTree, events: &[EventMessage]) -> Vec<(bool, Expr)> {
    let estimator = SelectivityEstimator::from_events(events);
    let context = ScoreContext::new(tree, &estimator);
    let mut trees = Vec::new();
    for bottom_up_only in [false, true] {
        let id = SubscriptionId::from_raw(1);
        for candidate in enumerate_candidates(id, tree, &context, &estimator, bottom_up_only) {
            let pruned = tree
                .prune(candidate.node)
                .expect("candidates are valid prunings");
            trees.push((bottom_up_only, pruned.to_expr()));
        }
    }
    trees
}

/// The case that found an `implies` gap: `¬(¬p ∨ (a ∧ b))` pruned to
/// `¬(a ∧ b)` needs `a ∧ b` to imply the disjunction `¬p ∨ (a ∧ b)`, which
/// only its second disjunct gives.
#[test]
fn negated_disjunction_candidate_is_entailed() {
    let p = Expr::eq("category", "books");
    let a = Expr::gt("price", 10i64);
    let b = Expr::lt("bids", 5i64);
    let ab = Expr::and(vec![a, b]);
    let original = Expr::not(Expr::or(vec![Expr::not(p), ab.clone()]));
    let tree = SubscriptionTree::from_expr(&original);
    let events: Vec<EventMessage> = (0..8)
        .map(|i| {
            EventMessage::builder()
                .attr("category", CATEGORIES[i % CATEGORIES.len()])
                .attr("price", 4 * i as i64)
                .attr("bids", i as i64)
                .build()
        })
        .collect();
    let candidates = candidate_trees(&tree, &events);
    let expected = Expr::not(ab);
    for bottom_up_only in [false, true] {
        assert!(
            candidates.contains(&(bottom_up_only, expected.clone())),
            "{expected} is not a candidate (bottom_up_only {bottom_up_only}): {candidates:?}"
        );
    }
    for (bottom_up_only, pruned) in &candidates {
        assert!(
            implies(&tree.to_expr(), pruned),
            "{original} does not imply {pruned} (bottom_up_only {bottom_up_only})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn counting_engine_agrees_with_direct_evaluation(
        exprs in prop::collection::vec(expr_strategy(), 1..12),
        events in prop::collection::vec(event_strategy(), 1..12),
    ) {
        let subscriptions: Vec<Subscription> = exprs
            .iter()
            .enumerate()
            .map(|(i, e)| subscription(i as u64, e))
            .collect();
        let mut engine = CountingEngine::new();
        for s in &subscriptions {
            engine.insert(s.clone());
        }
        for event in &events {
            let mut got = engine.match_event(event);
            got.sort();
            let mut expected: Vec<SubscriptionId> = subscriptions
                .iter()
                .filter(|s| s.matches(event))
                .map(|s| s.id())
                .collect();
            expected.sort();
            prop_assert_eq!(got, expected);
        }
    }

    #[test]
    fn every_valid_pruning_generalizes(
        expr in expr_strategy(),
        events in prop::collection::vec(event_strategy(), 1..16),
    ) {
        let tree = SubscriptionTree::from_expr(&expr);
        check_preorder_layout(&tree, &expr, &events)?;
        for node in tree.generalizing_removals() {
            let pruned = tree.prune(node).expect("enumerated prunings are valid");
            // Pruning copies the layout `from_expr` builds for the same
            // expression, node for node.
            let pruned_expr = pruned.to_expr();
            prop_assert_eq!(&SubscriptionTree::from_expr(&pruned_expr), &pruned);
            check_preorder_layout(&pruned, &pruned_expr, &events)?;
            prop_assert!(pruned.predicate_count() < tree.predicate_count());
            prop_assert!(pruned.size_bytes() < tree.size_bytes());
            prop_assert!(pruned.pmin() <= tree.pmin(), "pmin may only drop");
            for event in &events {
                if tree.evaluate(event) {
                    prop_assert!(pruned.evaluate(event), "pruning lost a match");
                }
            }
        }
    }

    #[test]
    fn every_candidate_is_entailed_by_its_original(
        expr in expr_strategy(),
        events in prop::collection::vec(event_strategy(), 1..8),
    ) {
        let tree = SubscriptionTree::from_expr(&expr);
        let original = tree.to_expr();
        for (bottom_up_only, pruned) in candidate_trees(&tree, &events) {
            prop_assert!(
                implies(&original, &pruned),
                "{} does not imply {} (bottom_up_only {})", original, pruned, bottom_up_only
            );
        }
    }

    #[test]
    fn exhaustive_pruning_keeps_all_matches(
        exprs in prop::collection::vec(expr_strategy(), 1..8),
        events in prop::collection::vec(event_strategy(), 1..10),
    ) {
        let subscriptions: Vec<Subscription> = exprs
            .iter()
            .enumerate()
            .map(|(i, e)| subscription(i as u64, e))
            .collect();
        let estimator = SelectivityEstimator::from_events(&events);
        for dimension in [Dimension::NetworkLoad, Dimension::Memory, Dimension::Throughput] {
            let mut pruner = Pruner::new(PrunerConfig::for_dimension(dimension), estimator.clone());
            pruner.register_all(subscriptions.iter().cloned());
            pruner.prune_all();
            for original in &subscriptions {
                let current = pruner.current_tree(original.id()).unwrap();
                prop_assert!(current.generalizing_removals().is_empty());
                for event in &events {
                    if original.matches(event) {
                        prop_assert!(current.evaluate(event));
                    }
                }
            }
        }
    }

    #[test]
    fn selectivity_bounds_bracket_measured_selectivity(
        expr in expr_strategy(),
        events in prop::collection::vec(event_strategy(), 20..60),
    ) {
        let tree = SubscriptionTree::from_expr(&expr);
        let estimator = SelectivityEstimator::from_events(&events);
        let estimate = estimator.estimate_tree(&tree);
        prop_assert!(estimate.is_consistent());
        // The avg component must be a probability; min/max must bracket it.
        prop_assert!((0.0..=1.0).contains(&estimate.avg));
        prop_assert!(estimate.min <= estimate.avg + 1e-9);
        prop_assert!(estimate.avg <= estimate.max + 1e-9);
    }

    #[test]
    fn tree_expr_roundtrip_preserves_semantics(
        expr in expr_strategy(),
        events in prop::collection::vec(event_strategy(), 1..10),
    ) {
        let tree = SubscriptionTree::from_expr(&expr);
        let roundtripped = SubscriptionTree::from_expr(&tree.to_expr());
        check_preorder_layout(&tree, &expr, &events)?;
        prop_assert_eq!(&roundtripped, &tree);
        for event in &events {
            prop_assert_eq!(tree.evaluate(event), expr.evaluate(event));
            prop_assert_eq!(roundtripped.evaluate(event), tree.evaluate(event));
        }
        prop_assert_eq!(roundtripped.predicate_count(), tree.predicate_count());
        prop_assert_eq!(roundtripped.pmin(), tree.pmin());
    }

    #[test]
    fn distributed_routing_matches_centralized_matching(
        exprs in prop::collection::vec(expr_strategy(), 1..8),
        events in prop::collection::vec(event_strategy(), 1..8),
        broker_count in 2usize..5,
    ) {
        let subscriptions: Vec<Subscription> = exprs
            .iter()
            .enumerate()
            .map(|(i, e)| subscription(i as u64, e))
            .collect();
        let mut sim = Simulation::new(SimulationConfig::new(Topology::line(broker_count)));
        sim.register_all(subscriptions.iter().cloned());
        for (i, event) in events.iter().enumerate() {
            let origin = BrokerId::from_raw((i % broker_count) as u32);
            let outcome = sim.publish_at(event.clone(), origin);
            let mut got: Vec<SubscriptionId> =
                outcome.deliveries.iter().map(|(_, id)| *id).collect();
            got.sort();
            let mut expected: Vec<SubscriptionId> = subscriptions
                .iter()
                .filter(|s| s.matches(event))
                .map(|s| s.id())
                .collect();
            expected.sort();
            prop_assert_eq!(got, expected);
        }
    }
}
