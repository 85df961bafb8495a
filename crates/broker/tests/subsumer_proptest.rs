//! Differential property test for `RoutingTable::subsumer`.
//!
//! The table finds the entry that makes a `Subscribe` flood redundant
//! through per-origin subsumption indexes it builds on the first lookup and
//! maintains on every mutation. Under random interleavings of Subscribe,
//! replace, re-home, Unsubscribe and `install_remote_tree` on a table with
//! three neighbors — for every engine kind — each lookup must equal a
//! brute-force scan of `entries()` with the same exclusions, down to the
//! same (lowest) id, and the indexes must hold exactly the unpruned entries
//! of the origins they cover.

use broker::{BrokerId, EngineKind, RoutingTable, SubsumptionQuery};
use proptest::prelude::*;
use pubsub_core::analysis::implies;
use pubsub_core::{
    Expr, Operator, Predicate, SubscriberId, Subscription, SubscriptionId, SubscriptionTree, Value,
};

/// Few attributes, few constants, few ids: subsumption between entries,
/// re-registration of a live id and lookups for a registered id are frequent.
const ATTRS: &[&str] = &["sp_a", "sp_b", "sp_c"];
const IDS: u64 = 16;
const NEIGHBORS: u32 = 3;
const KINDS: &[EngineKind] = &[EngineKind::Counting, EngineKind::ATree];

#[derive(Debug, Clone)]
enum Op {
    /// Registers, replaces or re-homes `id` as a remote entry.
    AddRemote(u64, Expr, u32),
    /// Registers `id` as a local entry — taking it away from any neighbor.
    AddLocal(u64, Expr),
    Remove(u64),
    /// Installs `current OR extra` for `id` if it is a remote entry.
    Prune(u64, Expr),
    /// Looks up the subsumer of `(id, expr)` towards a neighbor, with the
    /// ids whose bit is set in the mask counting as suppressed.
    Lookup(u64, Expr, u32, u32),
}

fn value() -> BoxedStrategy<Value> {
    prop_oneof![
        3 => (0i64..3).prop_map(Value::Int),
        1 => (0usize..3).prop_map(|i| Value::Float([0.0, 1.0, 1.5][i])),
        1 => (0usize..3).prop_map(|i| Value::from(["a", "ab", "b"][i])),
    ]
    .boxed()
}

fn predicate() -> impl Strategy<Value = Expr> {
    let operator = prop_oneof![
        2 => Just(Operator::Eq),
        1 => (0usize..Operator::ALL.len()).prop_map(|i| Operator::ALL[i]),
    ];
    (0usize..ATTRS.len(), operator, value()).prop_map(|(attr, operator, value)| {
        Expr::Pred(Predicate::new(ATTRS[attr], operator, value))
    })
}

fn expr() -> BoxedStrategy<Expr> {
    predicate().boxed().prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            2 => prop::collection::vec(inner.clone(), 2..=3).prop_map(Expr::and),
            2 => prop::collection::vec(inner.clone(), 2..=3).prop_map(Expr::or),
            1 => inner.prop_map(Expr::not),
        ]
    })
}

fn op() -> BoxedStrategy<Op> {
    prop_oneof![
        3 => (0..IDS, expr(), 0..NEIGHBORS)
            .prop_map(|(id, expr, toward)| Op::AddRemote(id, expr, toward)),
        2 => (0..IDS, expr()).prop_map(|(id, expr)| Op::AddLocal(id, expr)),
        1 => (0..IDS).prop_map(Op::Remove),
        1 => (0..IDS, expr()).prop_map(|(id, extra)| Op::Prune(id, extra)),
        4 => (0..IDS, expr(), 0..NEIGHBORS, 0u32..(1 << IDS))
            .prop_map(|(id, expr, toward, mask)| Op::Lookup(id, expr, toward, mask & mask >> 3)),
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

fn run(kind: EngineKind, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut table = RoutingTable::with_engine(kind);
    // The neighbors the table has a link for, and the origins whose index
    // a lookup has built (`None` is the local one).
    let mut links: Vec<BrokerId> = Vec::new();
    let mut covered: Vec<Option<BrokerId>> = Vec::new();
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::AddRemote(id, expr, toward) => {
                let toward = BrokerId::from_raw(*toward);
                table.add_remote(subscription(*id, expr), toward);
                if !links.contains(&toward) {
                    links.push(toward);
                }
            }
            Op::AddLocal(id, expr) => table.add_local(subscription(*id, expr)),
            Op::Remove(id) => {
                table.remove(SubscriptionId::from_raw(*id));
            }
            Op::Prune(id, extra) => {
                let id = SubscriptionId::from_raw(*id);
                if let Some(current) = table.subscription(id).map(|sub| sub.tree().to_expr()) {
                    let wider = Expr::or(vec![current, extra.clone()]);
                    let remote = table.remote_destination(id).is_some();
                    let installed =
                        table.install_remote_tree(id, SubscriptionTree::from_expr(&wider));
                    prop_assert_eq!(installed, remote);
                    prop_assert_eq!(table.is_pruned(id), remote);
                }
            }
            Op::Lookup(id, expr, toward, mask) => {
                let subscription = subscription(*id, expr);
                let expr = subscription.tree().to_expr();
                let toward = BrokerId::from_raw(*toward);
                let suppressed = |id: SubscriptionId| mask >> id.raw() & 1 == 1;
                let expected = table
                    .entries()
                    .filter(|(origin, entry)| {
                        *origin != Some(toward)
                            && entry.id() != subscription.id()
                            && !suppressed(entry.id())
                            && !table.is_pruned(entry.id())
                            && implies(&expr, &entry.tree().to_expr())
                    })
                    .map(|(_, entry)| entry.id())
                    .min();
                let query = SubsumptionQuery::new(&subscription);
                let found = table.subsumer(&query, toward, suppressed);
                prop_assert_eq!(found, expected, "{:?}: step {}", kind, step);
                for origin in std::iter::once(None).chain(links.iter().copied().map(Some)) {
                    if origin != Some(toward) && !covered.contains(&origin) {
                        covered.push(origin);
                    }
                }
            }
        }
        let filed = table
            .entries()
            .filter(|(origin, entry)| covered.contains(origin) && !table.is_pruned(entry.id()))
            .count();
        prop_assert_eq!(
            table.memory_report().subsumption_entries,
            filed,
            "{:?}: step {}",
            kind,
            step
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn indexed_lookups_equal_a_brute_force_scan(
        ops in prop::collection::vec(op(), 1..=80),
    ) {
        for kind in KINDS {
            run(*kind, &ops)?;
        }
    }
}
