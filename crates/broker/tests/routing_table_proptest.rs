//! Differential property test for `RoutingTable` forwarding decisions.
//!
//! The table answers "does any remote entry towards this neighbor match?"
//! mostly from a witness cache and only otherwise from the neighbor's engine.
//! Under random interleavings of registration, re-homing, removal, pruning
//! and forwarding — for every engine kind — each decision must equal
//! brute-force `Subscription::matches` over the table's own
//! `remote_subscriptions()`.

use broker::{BrokerId, EngineKind, RoutingTable};
use proptest::prelude::*;
use pubsub_core::{
    EventBatch, EventMessage, Expr, Operator, Predicate, SubscriberId, Subscription, SubscriptionId,
};

/// Few attributes, few values, few ids: matches, re-registrations of a live
/// id and removals of a current witness are all frequent.
const ATTRS: &[&str] = &["rt_a", "rt_b", "rt_c"];
const VALUES: i64 = 4;
const IDS: u64 = 12;
const NEIGHBORS: u32 = 3;
const OPERATORS: &[Operator] = &[
    Operator::Eq,
    Operator::Ne,
    Operator::Lt,
    Operator::Le,
    Operator::Gt,
    Operator::Ge,
];
const BATCH_SIZES: &[usize] = &[1, 2, 64];
const KINDS: &[EngineKind] = &[EngineKind::Counting, EngineKind::ATree];

#[derive(Debug, Clone)]
enum Op {
    /// Registers (or re-homes) `id` as a remote entry towards a neighbor.
    AddRemote(u64, Expr, u32),
    /// Registers `id` as a local entry — taking it away from any neighbor.
    AddLocal(u64, Expr),
    Remove(u64),
    /// Installs a generalised tree for `id` if it is a remote entry: its
    /// conjunction minus the last conjunct, or else `current OR extra`.
    Prune(u64, Expr),
    /// Forwards a batch of `BATCH_SIZES[size]` events drawn by cycling
    /// through `events`, excluding a neighbor when the index names one.
    Forward(usize, Vec<EventMessage>, u32),
}

fn predicate() -> impl Strategy<Value = Expr> {
    (0usize..ATTRS.len(), 0usize..OPERATORS.len(), 0i64..VALUES)
        .prop_map(|(attr, op, value)| Expr::Pred(Predicate::new(ATTRS[attr], OPERATORS[op], value)))
}

fn expr() -> BoxedStrategy<Expr> {
    predicate().boxed().prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..=3).prop_map(Expr::and),
            prop::collection::vec(inner.clone(), 2..=3).prop_map(Expr::or),
            inner.prop_map(Expr::not),
        ]
    })
}

fn event() -> impl Strategy<Value = EventMessage> {
    prop::collection::vec((0usize..ATTRS.len(), 0i64..VALUES), 0..=3).prop_map(|pairs| {
        let mut builder = EventMessage::builder();
        for (attr, value) in pairs {
            builder = builder.attr(ATTRS[attr], value);
        }
        builder.build()
    })
}

fn op() -> BoxedStrategy<Op> {
    prop_oneof![
        2 => (0..IDS, expr(), 0..NEIGHBORS)
            .prop_map(|(id, expr, toward)| Op::AddRemote(id, expr, toward)),
        1 => (0..IDS, expr()).prop_map(|(id, expr)| Op::AddLocal(id, expr)),
        1 => (0..IDS).prop_map(Op::Remove),
        1 => (0..IDS, expr()).prop_map(|(id, extra)| Op::Prune(id, extra)),
        2 => (
            0usize..BATCH_SIZES.len(),
            prop::collection::vec(event(), 1..=8),
            0..=NEIGHBORS,
        )
            .prop_map(|(size, events, exclude)| Op::Forward(size, events, exclude)),
    ]
    .boxed()
}

fn subscription(id: u64, expr: &Expr) -> Subscription {
    Subscription::from_expr(
        SubscriptionId::from_raw(id),
        SubscriberId::from_raw(id),
        expr,
    )
}

/// A tree every event the current one matches still matches.
fn generalised(current: &Expr, extra: &Expr) -> Expr {
    match current {
        Expr::And(children) if children.len() >= 2 => {
            Expr::and(children[..children.len() - 1].to_vec())
        }
        _ => Expr::or(vec![current.clone(), extra.clone()]),
    }
}

/// Every id is registered once, and the lengths agree with the listings.
fn check_registration(table: &RoutingTable) -> Result<(), TestCaseError> {
    let mut ids: Vec<_> = table.entries().map(|(_, sub)| sub.id()).collect();
    let entries = ids.len();
    ids.sort();
    ids.dedup();
    prop_assert_eq!(ids.len(), entries, "an id is registered twice");
    prop_assert_eq!(table.remote_len(), table.remote_subscriptions().len());
    prop_assert_eq!(table.local_len() + table.remote_len(), entries);
    Ok(())
}

fn run(kind: EngineKind, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut table = RoutingTable::with_engine(kind);
    let mut out = Vec::new();
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::AddRemote(id, expr, toward) => {
                table.add_remote(subscription(*id, expr), BrokerId::from_raw(*toward));
            }
            Op::AddLocal(id, expr) => table.add_local(subscription(*id, expr)),
            Op::Remove(id) => {
                let id = SubscriptionId::from_raw(*id);
                let known = table.subscription(id).is_some();
                prop_assert_eq!(table.remove(id).is_some(), known);
                prop_assert!(table.subscription(id).is_none());
            }
            Op::Prune(id, extra) => {
                let id = SubscriptionId::from_raw(*id);
                let remote = table.remote_destination(id);
                let current = table.subscription(id).map(|sub| sub.tree().to_expr());
                let tree = generalised(current.as_ref().unwrap_or(extra), extra);
                let installed =
                    table.install_remote_tree(id, pubsub_core::SubscriptionTree::from_expr(&tree));
                prop_assert_eq!(installed, remote.is_some());
                prop_assert_eq!(table.remote_destination(id), remote);
            }
            Op::Forward(size, events, exclude) => {
                let batch: EventBatch = events
                    .iter()
                    .cycle()
                    .take(BATCH_SIZES[*size])
                    .cloned()
                    .collect();
                let exclude = (*exclude < NEIGHBORS).then(|| BrokerId::from_raw(*exclude));
                table.forward_batch(&batch, exclude, &mut out);
                prop_assert_eq!(out.len(), batch.len());
                let remote = table.remote_subscriptions();
                for (index, event) in batch.iter().enumerate() {
                    let event = &event.to_message();
                    let expected: Vec<BrokerId> = (0..NEIGHBORS)
                        .map(BrokerId::from_raw)
                        .filter(|neighbor| {
                            Some(*neighbor) != exclude
                                && remote.iter().any(|sub| {
                                    table.remote_destination(sub.id()) == Some(*neighbor)
                                        && sub.matches(event)
                                })
                        })
                        .collect();
                    prop_assert_eq!(
                        &out[index],
                        &expected,
                        "{:?}: step {} event {} ({})",
                        kind,
                        step,
                        index,
                        event
                    );
                }
            }
        }
        check_registration(&table)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn forwarding_decisions_equal_brute_force_matching(
        ops in prop::collection::vec(op(), 1..=60),
    ) {
        for kind in KINDS {
            run(*kind, &ops)?;
        }
    }
}
