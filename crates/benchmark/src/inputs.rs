//! Workload inputs, generated from the seed alone.
//!
//! Everything the program will see — subscriptions, event batches, the
//! verification batches, the estimator's sample — comes out of one
//! [`WorkloadGenerator`] over `WorkloadConfig::paper().with_seed(seed)`, so
//! the same seed gives the same inputs and the program receives nothing but
//! generated subscriptions and events.

use crate::spec::Workload;
use pubsub_core::{EventBatch, EventMessage, Expr, SubscriberId, Subscription, SubscriptionId};
use std::time::Instant;
use workload::{WorkloadConfig, WorkloadGenerator};

/// Divides every count of a workload; `1` is the contract's full scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale(pub usize);

impl Scale {
    /// The scale the contract is measured at.
    pub const FULL: Scale = Scale(1);
    /// `--quick`: every count divided by twenty.
    pub const QUICK: Scale = Scale(20);

    /// A count at this scale: never scaled down to zero, and zero (the
    /// workload has no such input) stays zero.
    fn of(self, count: usize) -> usize {
        (count / self.0.max(1)).max(usize::from(count > 0))
    }
}

/// Rounds a step count up to a multiple of the line's broker count.
///
/// The simulation assigns publishers round-robin by a running event
/// counter, so a cycle (and the warm-up before it) must publish a multiple
/// of five events for every cycle to enter the network at the same brokers
/// — otherwise link traffic per cycle drifts with the rotation.
pub fn whole_rotations(steps: usize) -> usize {
    steps.div_ceil(LINE_BROKERS) * LINE_BROKERS
}

/// The counts that shape one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Generated subscriptions registered during set-up.
    pub population: usize,
    /// Distinct filter shapes the population is cycled from (`0`: every
    /// subscription is its own draw).
    pub base_shapes: usize,
    /// Events per publish call; `1` means single-event `publish`.
    pub batch_size: usize,
    /// Driver steps per cycle: publish calls, or unsubscribe + subscribe +
    /// publish triples on the churn workload; always a multiple of the
    /// line's broker count (see [`whole_rotations`]). The measured phase
    /// runs whole cycles, so per-event counts repeat exactly for a seed
    /// however long it runs.
    pub steps_per_cycle: usize,
    /// Oracle-checked batches published after the measured phase.
    pub verify_batches: usize,
    /// Events per verification batch.
    pub verify_batch_size: usize,
    /// Events the selectivity estimator is built from (`line5_pruned`).
    pub estimator_sample: usize,
}

impl Sizes {
    /// The sizes of a workload at a scale.
    ///
    /// Full-scale populations are what fits the contract's time cap with
    /// set-up repeated three times per run: registration is quadratic in the
    /// population (the flood-suppression scan), 2,500 subscriptions on the
    /// line register in ~1.7 s where 5,000 take ~6 s. Batch sizes are chosen
    /// so ten seconds give well over 1,000 publish calls, which p99 needs.
    pub fn of(workload: Workload, scale: Scale) -> Sizes {
        let full = match workload {
            Workload::Line5Match | Workload::Line5Pruned => Sizes {
                population: 2_500,
                base_shapes: 0,
                batch_size: 64,
                steps_per_cycle: 260,
                verify_batches: 4,
                verify_batch_size: 256,
                estimator_sample: 2_000,
            },
            Workload::Line5Forward => Sizes {
                population: 20,
                base_shapes: 0,
                batch_size: 1,
                steps_per_cycle: 8_190,
                verify_batches: 4,
                verify_batch_size: 256,
                estimator_sample: 0,
            },
            Workload::Line5Churn => Sizes {
                population: 2_000,
                base_shapes: 0,
                batch_size: 1,
                steps_per_cycle: 510,
                verify_batches: 4,
                verify_batch_size: 256,
                estimator_sample: 0,
            },
            Workload::SingleAtree100k => Sizes {
                population: 100_000,
                base_shapes: 10_000,
                batch_size: 8,
                steps_per_cycle: 260,
                verify_batches: 1,
                verify_batch_size: 64,
                estimator_sample: 0,
            },
        };
        Sizes {
            population: scale.of(full.population),
            base_shapes: scale.of(full.base_shapes),
            steps_per_cycle: whole_rotations(scale.of(full.steps_per_cycle)),
            verify_batch_size: scale.of(full.verify_batch_size).max(8),
            estimator_sample: scale.of(full.estimator_sample),
            ..full
        }
    }

    /// Events published per cycle.
    pub fn events_per_cycle(&self) -> usize {
        self.batch_size * self.steps_per_cycle
    }
}

/// Everything one run of a workload feeds the program.
#[derive(Debug)]
pub struct Inputs {
    /// The workload the inputs are for.
    pub workload: Workload,
    /// The counts the inputs were generated at.
    pub sizes: Sizes,
    /// The initial population, in registration order.
    pub subscriptions: Vec<Subscription>,
    /// One cycle of `publish_batch` inputs (batch workloads).
    pub batches: Vec<EventBatch>,
    /// One cycle of single `publish` inputs (`line5_forward`,
    /// `line5_churn`).
    pub events: Vec<EventMessage>,
    /// Batches published under the delivery log and checked by the oracle.
    pub verify: Vec<EventBatch>,
    /// The events the selectivity estimator is built from.
    pub estimator_sample: Vec<EventMessage>,
    /// The generator, positioned after the initial population:
    /// `line5_churn` draws its replacement subscriptions from it.
    pub generator: WorkloadGenerator,
    /// Wall time generation took.
    pub generate_s: f64,
}

/// Subscription id of the catch-all homed at broker `b` on `line5_forward`;
/// far above anything the generator hands out.
const CATCH_ALL_ID_BASE: u64 = 1 << 40;

/// Brokers on the line.
pub const LINE_BROKERS: usize = 5;

/// Generates the inputs of one workload from a seed.
pub fn generate(workload: Workload, seed: u64, scale: Scale) -> Inputs {
    let start = Instant::now();
    let sizes = Sizes::of(workload, scale);
    let mut generator = WorkloadGenerator::new(WorkloadConfig::paper().with_seed(seed));

    let mut subscriptions = if sizes.base_shapes == 0 {
        generator.subscriptions(sizes.population)
    } else {
        // A redundancy-heavy population: popular filter shapes repeat under
        // fresh ids, the regime the A-Tree's shared DAG exists for (same
        // construction as `matching_panel`'s shared population).
        let base = generator.subscriptions(sizes.base_shapes);
        (0..sizes.population)
            .map(|i| {
                Subscription::from_expr(
                    SubscriptionId::from_raw(1 + i as u64),
                    SubscriberId::from_raw(1 + (i % 64) as u64),
                    &base[i % base.len()].tree().to_expr(),
                )
            })
            .collect()
    };
    if workload == Workload::Line5Forward {
        // One catch-all per broker: every event is delivered at every
        // broker, so wherever it is published it crosses all four links.
        subscriptions.extend((0..LINE_BROKERS as u64).map(|b| {
            Subscription::from_expr(
                SubscriptionId::from_raw(CATCH_ALL_ID_BASE + b),
                SubscriberId::from_raw(b),
                &Expr::ge("price", 0.0),
            )
        }));
    }

    let (batches, events) = if sizes.batch_size > 1 {
        let batches = (0..sizes.steps_per_cycle)
            .map(|_| generator.event_batch(sizes.batch_size))
            .collect();
        (batches, Vec::new())
    } else {
        (Vec::new(), generator.events(sizes.steps_per_cycle))
    };
    let verify = (0..sizes.verify_batches)
        .map(|_| generator.event_batch(sizes.verify_batch_size))
        .collect();
    let estimator_sample = generator.events(sizes.estimator_sample);

    Inputs {
        workload,
        sizes,
        subscriptions,
        batches,
        events,
        verify,
        estimator_sample,
        generator,
        generate_s: start.elapsed().as_secs_f64(),
    }
}

impl Inputs {
    /// Draws the next replacement subscription of the churn workload,
    /// spreading subscribers (and therefore home brokers) round-robin like
    /// the initial population.
    pub fn next_fresh_subscription(&mut self, ordinal: usize) -> Subscription {
        let subscribers = self.generator.config().subscriber_count.max(1);
        let subscriber =
            SubscriberId::from_raw(((self.sizes.population + ordinal) % subscribers) as u64);
        self.generator
            .subscription_generator()
            .next_subscription(subscriber)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_another_seed_does_not() {
        for workload in Workload::ALL {
            let a = generate(workload, 11, Scale::QUICK);
            let b = generate(workload, 11, Scale::QUICK);
            let c = generate(workload, 12, Scale::QUICK);
            assert_eq!(a.subscriptions, b.subscriptions, "{}", workload.name());
            assert_eq!(a.batches, b.batches);
            assert_eq!(a.events, b.events);
            assert_eq!(a.verify, b.verify);
            assert_ne!(a.subscriptions, c.subscriptions, "{}", workload.name());
            assert_ne!(a.verify, c.verify);
        }
    }

    #[test]
    fn full_scale_sizes_are_the_documented_ones() {
        let m = Sizes::of(Workload::Line5Match, Scale::FULL);
        assert_eq!((m.population, m.events_per_cycle()), (2_500, 16_640));
        assert_eq!(m, Sizes::of(Workload::Line5Pruned, Scale::FULL));
        let f = generate(Workload::Line5Forward, 1, Scale::FULL);
        assert_eq!(f.subscriptions.len(), 20 + LINE_BROKERS);
        assert_eq!(f.events.len(), 8_190);
        assert!(f.batches.is_empty());
        let a = Sizes::of(Workload::SingleAtree100k, Scale::FULL);
        assert_eq!((a.population, a.base_shapes), (100_000, 10_000));
    }

    #[test]
    fn churn_replacements_continue_the_id_sequence() {
        let mut inputs = generate(Workload::Line5Churn, 3, Scale::QUICK);
        let last = inputs.subscriptions.last().unwrap().id();
        let fresh = inputs.next_fresh_subscription(0);
        assert!(fresh.id() > last);
        assert_ne!(inputs.next_fresh_subscription(1).id(), fresh.id());
    }
}
