//! The flood-suppression index: which routing entries can subsume a new
//! subscription at all.
//!
//! Suppressing a `Subscribe` flood needs an entry `W` with
//! `implies(S, W)` for the new subscription `S`. By the lemma of
//! [`ImplicationProfile`] such a `W` requires no attribute `S` does not, and
//! every attribute `W` bounds by `=` constants is bounded by `S`, through a
//! constant the two share. So each entry is filed in exactly one place:
//!
//! 1. under every [filing key](pubsub_core::analysis::EqBound::filing_keys)
//!    of one attribute it bounds — the one with the fewest keys, then the one
//!    whose buckets are emptiest;
//! 2. else under the required attribute with the emptiest bucket;
//! 3. else (a tree of negations) in a catch-all.
//!
//! A query probes the buckets of its own probe keys, of its required
//! attributes and the catch-all, and keeps the entries whose 40-byte
//! [`ImplicationSummary`] passes [`may_imply`](ImplicationSummary::may_imply).
//! The index never says "yes": what it returns still has to pass `implies`.
//! What it leaves out cannot.

use pubsub_core::analysis::{EqBound, ImplicationProfile, ImplicationSummary};
use pubsub_core::{AttrId, Expr, Subscription, SubscriptionId};
use std::collections::HashMap;

/// A subscription prepared for
/// [`RoutingTable::subsumer`](crate::RoutingTable::subsumer) lookups: build
/// once, ask per neighbor.
#[derive(Debug)]
pub struct SubsumptionQuery {
    pub(crate) id: SubscriptionId,
    pub(crate) expr: Expr,
    profile: ImplicationProfile,
    summary: ImplicationSummary,
}

impl SubsumptionQuery {
    /// Prepares the lookups for `subscription`; an entry registered under
    /// the same id is never reported as its subsumer.
    pub fn new(subscription: &Subscription) -> Self {
        let expr = subscription.tree().to_expr();
        let profile = ImplicationProfile::of(&expr);
        let summary = profile.summary();
        Self {
            id: subscription.id(),
            expr,
            profile,
            summary,
        }
    }
}

/// Where an entry is filed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Home {
    /// Under every filing key of this bounded attribute.
    Constants(AttrId),
    Required(AttrId),
    CatchAll,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    id: SubscriptionId,
    summary: ImplicationSummary,
    home: Home,
}

/// The entries of one origin (the local clients, or one neighbor), filed by
/// what a subscription they subsume must look like.
#[derive(Debug, Default)]
pub(crate) struct SubsumptionIndex {
    slots: Vec<Option<Entry>>,
    free: Vec<u32>,
    slot_of: HashMap<SubscriptionId, u32>,
    by_constant: HashMap<(AttrId, u64), Vec<u32>>,
    by_required: HashMap<AttrId, Vec<u32>>,
    catch_all: Vec<u32>,
}

impl SubsumptionIndex {
    /// Number of filed entries.
    pub(crate) fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// Files an entry; `subscription` is the form its engine holds.
    pub(crate) fn insert(&mut self, subscription: &Subscription) {
        let profile = ImplicationProfile::of(&subscription.tree().to_expr());
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.slots.push(None);
                (self.slots.len() - 1) as u32
            }
        };
        let by_constant = &self.by_constant;
        let population = |bound: &EqBound| -> usize {
            bound
                .filing_keys()
                .iter()
                .map(|key| by_constant.get(&(bound.attr(), *key)).map_or(0, Vec::len))
                .sum()
        };
        let tightest = profile
            .bounded()
            .iter()
            .min_by_key(|bound| (bound.filing_keys().len(), population(bound)));
        let emptiest = profile
            .required()
            .iter()
            .min_by_key(|attr| self.by_required.get(attr).map_or(0, Vec::len));
        let home = if let Some(bound) = tightest {
            for key in bound.filing_keys() {
                let bucket = self.by_constant.entry((bound.attr(), *key));
                bucket.or_default().push(slot);
            }
            Home::Constants(bound.attr())
        } else if let Some(attr) = emptiest {
            self.by_required.entry(*attr).or_default().push(slot);
            Home::Required(*attr)
        } else {
            self.catch_all.push(slot);
            Home::CatchAll
        };
        if let Some(vacant) = self.slots.get_mut(slot as usize) {
            *vacant = Some(Entry {
                id: subscription.id(),
                summary: profile.summary(),
                home,
            });
        }
        self.slot_of.insert(subscription.id(), slot);
    }

    /// Takes an entry out; `subscription` is the form it was filed with.
    pub(crate) fn remove(&mut self, subscription: &Subscription) {
        let Some(slot) = self.slot_of.remove(&subscription.id()) else {
            return;
        };
        let Some(entry) = self.slots.get_mut(slot as usize).and_then(Option::take) else {
            return;
        };
        self.free.push(slot);
        match entry.home {
            Home::Constants(attr) => {
                let profile = ImplicationProfile::of(&subscription.tree().to_expr());
                let filed = profile.bounded().iter().find(|bound| bound.attr() == attr);
                for key in filed.map_or(&[][..], EqBound::filing_keys) {
                    unfile(&mut self.by_constant, (attr, *key), slot);
                }
            }
            Home::Required(attr) => unfile(&mut self.by_required, attr, slot),
            Home::CatchAll => self.catch_all.retain(|filed| *filed != slot),
        }
    }

    /// Appends the id of every entry that may subsume `query` — a superset
    /// of those `implies` accepts, possibly with repetitions.
    pub(crate) fn candidates(&self, query: &SubsumptionQuery, out: &mut Vec<SubscriptionId>) {
        let constants = query.profile.bounded().iter().flat_map(|bound| {
            bound
                .probe_keys()
                .iter()
                .filter_map(|key| self.by_constant.get(&(bound.attr(), *key)))
        });
        let required = query
            .profile
            .required()
            .iter()
            .filter_map(|attr| self.by_required.get(attr));
        for bucket in constants
            .chain(required)
            .chain(std::iter::once(&self.catch_all))
        {
            out.extend(
                bucket
                    .iter()
                    .filter_map(|slot| self.slots.get(*slot as usize)?.as_ref())
                    .filter(|entry| query.summary.may_imply(&entry.summary))
                    .map(|entry| entry.id),
            );
        }
    }
}

/// Removes `slot` from the bucket under `key`, and the bucket with its last
/// slot: a constant that left the table must not stay allocated.
fn unfile<K: std::hash::Hash + Eq>(buckets: &mut HashMap<K, Vec<u32>>, key: K, slot: u32) {
    if let Some(bucket) = buckets.get_mut(&key) {
        if let Some(at) = bucket.iter().position(|filed| *filed == slot) {
            bucket.swap_remove(at);
        }
        if bucket.is_empty() {
            buckets.remove(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_core::analysis::implies;
    use pubsub_core::SubscriberId;

    fn sub(id: u64, expr: &Expr) -> Subscription {
        Subscription::from_expr(
            SubscriptionId::from_raw(id),
            SubscriberId::from_raw(0),
            expr,
        )
    }

    fn candidate_ids(index: &SubsumptionIndex, query: &Subscription) -> Vec<u64> {
        let mut out = Vec::new();
        index.candidates(&SubsumptionQuery::new(query), &mut out);
        let mut ids: Vec<u64> = out.iter().map(|id| id.raw()).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    #[test]
    fn candidates_cover_every_subsumer_and_skip_the_rest() {
        let title = |t: &str| Expr::eq("title", t);
        let entries = [
            sub(1, &Expr::and(vec![title("dune"), Expr::le("price", 20i64)])),
            sub(2, &Expr::and(vec![title("emma"), Expr::le("price", 20i64)])),
            sub(3, &Expr::or(vec![title("dune"), title("emma")])),
            sub(4, &Expr::le("price", 50i64)),
            sub(5, &Expr::not(Expr::eq("condition", "worn"))),
            sub(
                6,
                &Expr::and(vec![title("dune"), Expr::eq("condition", "new")]),
            ),
        ];
        let mut index = SubsumptionIndex::default();
        for entry in &entries {
            index.insert(entry);
        }
        assert_eq!(index.len(), entries.len());
        let query = sub(
            9,
            &Expr::and(vec![
                title("dune"),
                Expr::le("price", 10i64),
                Expr::eq("condition", "used"),
            ]),
        );
        let candidates = candidate_ids(&index, &query);
        let query_expr = query.tree().to_expr();
        for entry in &entries {
            if implies(&query_expr, &entry.tree().to_expr()) {
                assert!(candidates.contains(&entry.id().raw()), "{}", entry.id());
            }
        }
        // Another title, and the same title with another condition, are
        // refused without running `implies`.
        assert_eq!(candidates, [1, 3, 4, 5]);
    }

    #[test]
    fn a_contradictory_conjunction_probes_all_its_constants() {
        let mut index = SubsumptionIndex::default();
        index.insert(&sub(1, &Expr::eq("x", 1i64)));
        index.insert(&sub(2, &Expr::eq("x", 2i64)));
        index.insert(&sub(3, &Expr::eq("x", 3i64)));
        let query = sub(
            9,
            &Expr::And(vec![Expr::eq("x", 1i64), Expr::eq("x", 2i64)]),
        );
        assert_eq!(candidate_ids(&index, &query), [1, 2]);
    }

    #[test]
    fn removal_empties_the_buckets() {
        let mut index = SubsumptionIndex::default();
        let entries: Vec<Subscription> = (0..100i64)
            .map(|i| match i % 3 {
                0 => sub(i as u64, &Expr::eq("title", format!("t{i}"))),
                1 => sub(i as u64, &Expr::le("price", i)),
                _ => sub(i as u64, &Expr::not(Expr::le("price", i))),
            })
            .collect();
        for entry in &entries {
            index.insert(entry);
        }
        for entry in &entries {
            index.remove(entry);
            index.remove(entry);
        }
        assert_eq!(index.len(), 0);
        assert!(index.by_constant.is_empty() && index.by_required.is_empty());
        assert!(index.catch_all.is_empty());
        assert_eq!(index.free.len(), index.slots.len());
        // Slots are reused.
        index.insert(&entries[0]);
        assert_eq!(index.free.len() + 1, index.slots.len());
    }
}
