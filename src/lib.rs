//! # dimension-pruning
//!
//! A reproduction of *"Dimension-Based Subscription Pruning for
//! Publish/Subscribe Systems"* (Bittner & Hinze, ICDCS Workshops 2006) as a
//! Rust workspace. This facade crate re-exports the public API of every
//! workspace crate so that applications can depend on a single crate:
//!
//! * [`model`] — events, predicates, Boolean subscription trees (`pubsub-core`).
//! * [`matching`] — counting matcher with predicate indexes, the
//!   shared-subexpression A-Tree engine, and the naive baseline (`filtering`).
//! * [`estimate`] — histogram-based selectivity estimation (`selectivity`).
//! * [`prune`] — dimension-based pruning: heuristics, priority queue, pruner
//!   (`pruning`).
//! * [`net`] — the simulated distributed broker network (`broker`).
//! * [`auction`] — the online book-auction workload generator (`workload`).
//! * [`baseline`] — covering/merging baseline optimizations (`routing-opt`).
//!
//! The most commonly used items are additionally re-exported at the crate
//! root, so a typical application only needs
//! `use dimension_pruning::prelude::*;`.
//!
//! ## Quickstart
//!
//! ```
//! use dimension_pruning::prelude::*;
//!
//! // Register a couple of subscriptions in the matching engine.
//! let mut engine = CountingEngine::new();
//! engine.insert(Subscription::from_expr(
//!     SubscriptionId::from_raw(1),
//!     SubscriberId::from_raw(1),
//!     &Expr::and(vec![Expr::eq("category", "books"), Expr::le("price", 20i64)]),
//! ));
//!
//! // Match a batch of events through the batch-first API.
//! let batch: EventBatch = (0..2)
//!     .map(|i| {
//!         EventMessage::builder()
//!             .attr("category", "books")
//!             .attr("price", 12i64 + i)
//!             .build()
//!     })
//!     .collect();
//! let mut sink = PerEventSink::new();
//! engine.match_batch(&batch, &mut sink);
//! assert_eq!(sink.total_matches(), 2);
//!
//! // Single events keep working through the compatibility wrapper.
//! let event = EventMessage::builder()
//!     .attr("category", "books")
//!     .attr("price", 12i64)
//!     .build();
//! assert_eq!(engine.match_event(&event).len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Core data model (re-export of the `pubsub-core` crate).
pub mod model {
    pub use pubsub_core::*;
}

/// Matching engines (re-export of the `filtering` crate).
pub mod matching {
    pub use filtering::*;
}

/// Selectivity estimation (re-export of the `selectivity` crate).
pub mod estimate {
    pub use selectivity::*;
}

/// Dimension-based pruning (re-export of the `pruning` crate).
pub mod prune {
    pub use pruning::*;
}

/// Distributed broker simulation (re-export of the `broker` crate).
pub mod net {
    pub use broker::*;
}

/// Online book-auction workload generation (re-export of the `workload` crate).
pub mod auction {
    pub use workload::*;
}

/// Baseline routing optimizations (re-export of the `routing-opt` crate).
pub mod baseline {
    pub use routing_opt::*;
}

/// The most commonly used items, importable with a single `use`.
pub mod prelude {
    pub use crate::auction::{AuctionSchema, ScenarioConfig, WorkloadConfig, WorkloadGenerator};
    pub use crate::estimate::{EventStatistics, SelectivityEstimate, SelectivityEstimator};
    pub use crate::matching::{
        ATreeEngine, AnyEngine, CountSink, CountingEngine, EngineKind, MatchSink, MatchingEngine,
        NaiveEngine, PerEventSink, VecSink,
    };
    pub use crate::model::{
        BrokerId, EventBatch, EventMessage, Expr, Operator, Predicate, SubscriberId, Subscription,
        SubscriptionId, SubscriptionTree, Value,
    };
    pub use crate::net::{
        ChannelTransport, Codec, Simulation, SimulationConfig, Topology, Transport, WireMessage,
    };
    pub use crate::prune::{Dimension, Pruner, PrunerConfig, PruningPlan};
}
