//! An adaptive pruning controller.
//!
//! The paper's future-work section asks "how to dynamically determine the
//! number of pruning operations leading to the best overall optimization".
//! This module provides a pragmatic answer: a feedback controller that keeps
//! applying prunings while the *marginal* cost (estimated selectivity
//! degradation of the next candidate) stays below a budget derived from the
//! current system pressure, and that can switch the active dimension when the
//! pressure profile changes (e.g. a subscription burst makes memory the
//! bottleneck).
//!
//! The controller is deliberately simple and fully deterministic: it reads a
//! [`SystemPressure`] snapshot the embedding system provides (measured memory
//! headroom, link utilization, CPU saturation), maps it to a [`Dimension`]
//! and a degradation budget, and drives a [`Pruner`] accordingly.

use crate::{AppliedPruning, Dimension, Pruner, PrunerConfig};
use pubsub_core::Subscription;
use selectivity::SelectivityEstimator;

/// A snapshot of the pressures the paper's introduction motivates as reasons
/// for choosing one dimension over another. All values are normalized into
/// `[0, 1]`, where 1 means "fully saturated".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemPressure {
    /// Routing-table memory pressure (e.g. used / available heap).
    pub memory: f64,
    /// Network pressure (e.g. link utilization of the broker's busiest link).
    pub network: f64,
    /// Matching CPU pressure (e.g. filter-thread utilization).
    pub cpu: f64,
}

impl SystemPressure {
    /// A balanced, unpressured system.
    pub fn idle() -> Self {
        Self {
            memory: 0.0,
            network: 0.0,
            cpu: 0.0,
        }
    }

    /// Clamps every component into `[0, 1]`.
    pub fn clamped(self) -> Self {
        Self {
            memory: self.memory.clamp(0.0, 1.0),
            network: self.network.clamp(0.0, 1.0),
            cpu: self.cpu.clamp(0.0, 1.0),
        }
    }

    /// The dimension the paper recommends for this pressure profile: the most
    /// saturated resource decides (ties favour network load, the paper's
    /// overall recommendation for general-purpose systems).
    pub fn recommended_dimension(self) -> Dimension {
        let p = self.clamped();
        if p.memory > p.network && p.memory > p.cpu {
            Dimension::Memory
        } else if p.cpu > p.network && p.cpu > p.memory {
            Dimension::Throughput
        } else {
            Dimension::NetworkLoad
        }
    }

    /// The largest component.
    pub fn peak(self) -> f64 {
        let p = self.clamped();
        p.memory.max(p.network).max(p.cpu)
    }
}

/// Configuration of the [`PruningController`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Degradation budget per candidate when the system is idle; the budget
    /// scales up linearly with the peak pressure.
    pub base_degradation_budget: f64,
    /// Maximum per-candidate degradation the controller ever accepts, even
    /// under full pressure.
    pub max_degradation_budget: f64,
    /// Maximum number of prunings applied per adaptation round (bounds the
    /// latency impact of a single round).
    pub max_prunings_per_round: usize,
    /// Pressure level below which the controller does not prune at all.
    pub activation_threshold: f64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            base_degradation_budget: 0.01,
            max_degradation_budget: 0.25,
            max_prunings_per_round: 1_000,
            activation_threshold: 0.1,
        }
    }
}

/// The outcome of one adaptation round.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlDecision {
    /// The dimension that was active during this round.
    pub dimension: Dimension,
    /// The per-candidate degradation budget used.
    pub degradation_budget: f64,
    /// Number of prunings applied in this round.
    pub prunings_applied: usize,
    /// Whether the round rebuilt the pruner because the dimension changed.
    pub dimension_switched: bool,
}

/// Drives a [`Pruner`] from periodic [`SystemPressure`] snapshots.
///
/// The controller owns the pruner. When the recommended dimension changes it
/// rebuilds the pruner from the *original* subscriptions (keeping already
/// applied prunings would mix heuristics and make the optimization hard to
/// reason about); the caller is expected to re-install the controller's
/// [`current_subscriptions`](Self::current_subscriptions) into its routing
/// table after every round.
#[derive(Debug, Clone)]
pub struct PruningController {
    config: ControllerConfig,
    estimator: SelectivityEstimator,
    originals: Vec<Subscription>,
    pruner: Pruner,
}

impl PruningController {
    /// Creates a controller over a set of (remote) subscriptions, starting
    /// with the paper's recommended default dimension (network load).
    pub fn new(
        config: ControllerConfig,
        estimator: SelectivityEstimator,
        subscriptions: Vec<Subscription>,
    ) -> Self {
        let mut pruner = Pruner::new(
            PrunerConfig::for_dimension(Dimension::NetworkLoad),
            estimator.clone(),
        );
        pruner.register_all(subscriptions.iter().cloned());
        Self {
            config,
            estimator,
            originals: subscriptions,
            pruner,
        }
    }

    /// The controller's configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// The dimension currently driving the pruner.
    pub fn active_dimension(&self) -> Dimension {
        self.pruner.dimension()
    }

    /// The subscriptions in their current (pruned) form.
    pub fn current_subscriptions(&self) -> Vec<Subscription> {
        self.pruner.pruned_subscriptions()
    }

    /// Total prunings applied since the last dimension switch.
    pub fn prunings_applied(&self) -> usize {
        self.pruner.prunings_applied()
    }

    /// Adds a newly registered subscription to the optimization.
    pub fn register(&mut self, subscription: Subscription) {
        self.originals.push(subscription.clone());
        self.pruner.register(subscription);
    }

    /// Removes an unregistered subscription (unsubscription needs no special
    /// handling beyond dropping the entry, exactly as the paper notes).
    pub fn unregister(&mut self, id: pubsub_core::SubscriptionId) {
        self.originals.retain(|s| s.id() != id);
        self.pruner.unregister(id);
    }

    /// Maps a pressure snapshot to the degradation budget of this round.
    pub fn degradation_budget(&self, pressure: SystemPressure) -> f64 {
        let peak = pressure.peak();
        if peak < self.config.activation_threshold {
            return 0.0;
        }
        (self.config.base_degradation_budget
            + peak * (self.config.max_degradation_budget - self.config.base_degradation_budget))
            .clamp(0.0, self.config.max_degradation_budget)
    }

    /// Runs one adaptation round: possibly switches the dimension, then
    /// applies prunings while the next candidate's degradation stays within
    /// the budget (and the per-round cap is not exceeded).
    pub fn adapt(&mut self, pressure: SystemPressure) -> ControlDecision {
        let recommended = pressure.recommended_dimension();
        let mut switched = false;
        if recommended != self.pruner.dimension() {
            // Rebuild from the original subscriptions under the new dimension.
            let mut pruner = Pruner::new(
                PrunerConfig::for_dimension(recommended),
                self.estimator.clone(),
            );
            pruner.register_all(self.originals.iter().cloned());
            self.pruner = pruner;
            switched = true;
        }

        let budget = self.degradation_budget(pressure);
        let mut applied: Vec<AppliedPruning> = Vec::new();
        if budget > 0.0 {
            let cap = self.config.max_prunings_per_round;
            while applied.len() < cap {
                match self.pruner.peek() {
                    Some(candidate) if candidate.scores.delta_sel <= budget => {
                        match self.pruner.prune_step() {
                            Some(step) => applied.push(step),
                            None => break,
                        }
                    }
                    _ => break,
                }
            }
        }

        ControlDecision {
            dimension: recommended,
            degradation_budget: budget,
            prunings_applied: applied.len(),
            dimension_switched: switched,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_core::{EventMessage, Expr, SubscriberId, SubscriptionId};

    fn estimator() -> SelectivityEstimator {
        let events: Vec<EventMessage> = (0..200)
            .map(|i| {
                EventMessage::builder()
                    .attr("price", (i % 100) as i64)
                    .attr("category", if i % 10 == 0 { "books" } else { "music" })
                    .attr("bids", (i % 20) as i64)
                    .build()
            })
            .collect();
        SelectivityEstimator::from_events(&events)
    }

    fn subscriptions() -> Vec<Subscription> {
        (0..20u64)
            .map(|i| {
                Subscription::from_expr(
                    SubscriptionId::from_raw(i),
                    SubscriberId::from_raw(i),
                    &Expr::and(vec![
                        Expr::eq("category", if i % 2 == 0 { "books" } else { "music" }),
                        Expr::le("price", (10 + i * 3) as i64),
                        Expr::ge("bids", (i % 5) as i64),
                    ]),
                )
            })
            .collect()
    }

    fn controller() -> PruningController {
        PruningController::new(ControllerConfig::default(), estimator(), subscriptions())
    }

    #[test]
    fn pressure_maps_to_the_recommended_dimension() {
        let memory_bound = SystemPressure {
            memory: 0.9,
            network: 0.2,
            cpu: 0.1,
        };
        assert_eq!(memory_bound.recommended_dimension(), Dimension::Memory);
        let cpu_bound = SystemPressure {
            memory: 0.1,
            network: 0.2,
            cpu: 0.9,
        };
        assert_eq!(cpu_bound.recommended_dimension(), Dimension::Throughput);
        let network_bound = SystemPressure {
            memory: 0.3,
            network: 0.8,
            cpu: 0.3,
        };
        assert_eq!(
            network_bound.recommended_dimension(),
            Dimension::NetworkLoad
        );
        // Ties favour the paper's general-purpose recommendation.
        assert_eq!(
            SystemPressure::idle().recommended_dimension(),
            Dimension::NetworkLoad
        );
        // Out-of-range inputs are clamped.
        let weird = SystemPressure {
            memory: 7.0,
            network: -3.0,
            cpu: 0.5,
        };
        assert_eq!(weird.clamped().memory, 1.0);
        assert_eq!(weird.clamped().network, 0.0);
        assert_eq!(weird.peak(), 1.0);
    }

    #[test]
    fn idle_systems_are_not_pruned() {
        let mut controller = controller();
        let decision = controller.adapt(SystemPressure::idle());
        assert_eq!(decision.prunings_applied, 0);
        assert_eq!(decision.degradation_budget, 0.0);
        assert!(!decision.dimension_switched);
        assert_eq!(controller.prunings_applied(), 0);
    }

    #[test]
    fn pressure_triggers_pruning_within_budget() {
        let mut controller = controller();
        let pressure = SystemPressure {
            memory: 0.2,
            network: 0.8,
            cpu: 0.2,
        };
        let budget = controller.degradation_budget(pressure);
        assert!(budget > 0.0);
        let decision = controller.adapt(pressure);
        assert_eq!(decision.dimension, Dimension::NetworkLoad);
        assert!(decision.prunings_applied > 0);
        // Every applied pruning respected the budget.
        for applied in controller.pruner.plan().iter() {
            assert!(applied.scores.delta_sel <= budget + 1e-12);
        }
        // Higher pressure widens the budget and allows further prunings.
        let harder = SystemPressure {
            memory: 0.2,
            network: 1.0,
            cpu: 0.2,
        };
        assert!(controller.degradation_budget(harder) > budget);
    }

    #[test]
    fn dimension_switch_rebuilds_from_originals() {
        let mut controller = controller();
        let network_pressure = SystemPressure {
            memory: 0.2,
            network: 0.9,
            cpu: 0.2,
        };
        let first = controller.adapt(network_pressure);
        assert!(first.prunings_applied > 0);
        assert_eq!(controller.active_dimension(), Dimension::NetworkLoad);

        let memory_pressure = SystemPressure {
            memory: 0.95,
            network: 0.1,
            cpu: 0.1,
        };
        let second = controller.adapt(memory_pressure);
        assert!(second.dimension_switched);
        assert_eq!(controller.active_dimension(), Dimension::Memory);
        // The pruning counter restarts after a switch.
        assert_eq!(controller.prunings_applied(), second.prunings_applied);
        // The optimized entries still generalize the originals.
        let current = controller.current_subscriptions();
        assert_eq!(current.len(), 20);
    }

    #[test]
    fn per_round_cap_is_respected() {
        let config = ControllerConfig {
            max_prunings_per_round: 3,
            ..ControllerConfig::default()
        };
        let mut controller = PruningController::new(config, estimator(), subscriptions());
        let decision = controller.adapt(SystemPressure {
            memory: 0.0,
            network: 1.0,
            cpu: 0.0,
        });
        assert!(decision.prunings_applied <= 3);
    }

    #[test]
    fn register_and_unregister_flow_through() {
        let mut controller = controller();
        controller.register(Subscription::from_expr(
            SubscriptionId::from_raw(999),
            SubscriberId::from_raw(999),
            &Expr::and(vec![Expr::eq("category", "books"), Expr::le("price", 5i64)]),
        ));
        assert_eq!(controller.current_subscriptions().len(), 21);
        controller.unregister(SubscriptionId::from_raw(999));
        assert_eq!(controller.current_subscriptions().len(), 20);
        // The removed subscription survives a dimension switch rebuild too.
        let decision = controller.adapt(SystemPressure {
            memory: 0.9,
            network: 0.1,
            cpu: 0.1,
        });
        assert!(decision.dimension_switched);
        assert_eq!(controller.current_subscriptions().len(), 20);
    }
}
