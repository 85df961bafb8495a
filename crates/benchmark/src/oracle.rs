//! The correctness oracle: a centralized [`NaiveEngine`] over the live
//! *original* subscriptions.
//!
//! Whatever the network does in between — pruned remote entries, regrouped
//! frames, churn, a whole-cluster restart — the set of `(event, subscriber,
//! subscription)` deliveries must be exactly what evaluating every original
//! tree against every event gives. Differences are counted, not asserted,
//! so a run reports its share of failed operations instead of aborting.

use broker::Simulation;
use filtering::{AnalyzeMode, EngineConfig, MatchingEngine, NaiveEngine, VecSink};
use pubsub_core::{EventBatch, EventId, SubscriberId, Subscription, SubscriptionId};

/// What checking a set of published batches against the oracle found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Deliveries the oracle expects.
    pub expected: u64,
    /// Expected deliveries the network did not make.
    pub missing: u64,
    /// Deliveries the network made that the oracle does not expect
    /// (duplicates included).
    pub spurious: u64,
}

impl Verdict {
    /// Adds another verdict's counts.
    pub fn add(&mut self, other: Verdict) {
        self.expected += other.expected;
        self.missing += other.missing;
        self.spurious += other.spurious;
    }
}

type Delivery = (EventId, SubscriberId, SubscriptionId);

/// Publishes `batches` with the delivery log on and compares the log with
/// the oracle's answer over `live`, the original trees of the subscriptions
/// currently registered.
pub fn verify<'a>(
    sim: &mut Simulation,
    live: impl IntoIterator<Item = &'a Subscription>,
    batches: &[EventBatch],
) -> Verdict {
    // Analysis off: the oracle evaluates the trees exactly as generated.
    let mut oracle = NaiveEngine::with_config(EngineConfig::with_analyze(AnalyzeMode::Off));
    for subscription in live {
        oracle.insert(subscription.clone());
    }
    let mut expected: Vec<Delivery> = Vec::new();
    let mut sink = VecSink::new();
    for batch in batches {
        sink.clear();
        oracle.match_batch(batch, &mut sink);
        expected.extend(sink.matches().iter().map(|&(index, id)| {
            let subscriber = oracle
                .get(id)
                .expect("the oracle matched a subscription it holds")
                .subscriber();
            (batch.event(index).id(), subscriber, id)
        }));
    }

    sim.enable_delivery_log();
    let _ = sim.take_delivery_log();
    for batch in batches {
        let _ = sim.publish_batch(batch);
    }
    let mut delivered = sim.take_delivery_log();

    expected.sort_unstable();
    delivered.sort_unstable();
    let (missing, spurious) = multiset_difference(&expected, &delivered);
    Verdict {
        expected: expected.len() as u64,
        missing,
        spurious,
    }
}

/// Sizes of `expected \ delivered` and `delivered \ expected` for two
/// ascending multisets.
fn multiset_difference(expected: &[Delivery], delivered: &[Delivery]) -> (u64, u64) {
    let (mut e, mut d, mut missing, mut spurious) = (0, 0, 0u64, 0u64);
    while e < expected.len() && d < delivered.len() {
        match expected[e].cmp(&delivered[d]) {
            std::cmp::Ordering::Equal => {
                e += 1;
                d += 1;
            }
            std::cmp::Ordering::Less => {
                missing += 1;
                e += 1;
            }
            std::cmp::Ordering::Greater => {
                spurious += 1;
                d += 1;
            }
        }
    }
    missing += (expected.len() - e) as u64;
    spurious += (delivered.len() - d) as u64;
    (missing, spurious)
}

#[cfg(test)]
mod tests {
    use super::*;
    use broker::{SimulationConfig, Topology};
    use pubsub_core::{EventMessage, Expr};

    fn delivery(event: u64, subscription: u64) -> Delivery {
        (
            EventId::from_raw(event),
            SubscriberId::from_raw(0),
            SubscriptionId::from_raw(subscription),
        )
    }

    #[test]
    fn multiset_difference_counts_missing_spurious_and_duplicates() {
        let expected = [delivery(1, 1), delivery(1, 2), delivery(2, 1)];
        assert_eq!(multiset_difference(&expected, &expected), (0, 0));
        let delivered = [
            delivery(1, 1),
            delivery(1, 1),
            delivery(2, 1),
            delivery(3, 9),
        ];
        // (1,2) is missing; the duplicate (1,1) and (3,9) are spurious.
        assert_eq!(multiset_difference(&expected, &delivered), (1, 2));
        assert_eq!(multiset_difference(&expected, &[]), (3, 0));
        assert_eq!(multiset_difference(&[], &delivered), (0, 4));
    }

    #[test]
    fn a_lost_route_is_counted_not_asserted() {
        let subscription = Subscription::from_expr(
            SubscriptionId::from_raw(1),
            SubscriberId::from_raw(0),
            &Expr::eq("category", "books"),
        );
        let batch: EventBatch = (0..4u64)
            .map(|i| {
                EventMessage::builder()
                    .id(EventId::from_raw(i))
                    .attr("category", if i % 2 == 0 { "books" } else { "music" })
                    .build()
            })
            .collect();
        let mut sim = Simulation::new(SimulationConfig::new(Topology::line(3)));
        sim.register_subscription(subscription.clone());
        let live = [subscription];
        let clean = verify(&mut sim, &live, std::slice::from_ref(&batch));
        assert_eq!(
            clean,
            Verdict {
                expected: 2,
                missing: 0,
                spurious: 0
            }
        );
        // The network forgets the subscription; the oracle still expects it.
        sim.unregister_subscription(SubscriptionId::from_raw(1), broker::BrokerId::from_raw(0));
        let broken = verify(&mut sim, &live, std::slice::from_ref(&batch));
        assert_eq!(
            (broken.expected, broken.missing, broken.spurious),
            (2, 2, 0)
        );
    }
}
