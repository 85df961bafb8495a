//! # broker
//!
//! A simulated distributed publish/subscribe broker network with
//! subscription forwarding, per-neighbor routing tables, post-filtering, and
//! pruning-aware routing entries.
//!
//! The paper's distributed evaluation runs five brokers connected as a line
//! on a 10 Mbps LAN. This crate replaces the physical testbed with a
//! deterministic, single-process simulation that preserves the quantities the
//! experiments report:
//!
//! * **network load** — the number (and bytes) of event messages exchanged
//!   between brokers, counted per link by [`NetworkStats`];
//! * **memory usage** — the predicate/subscription associations held in the
//!   brokers' routing tables, split into local-client entries and remote
//!   (neighbor-destination) entries — only the latter are ever pruned;
//! * **throughput** — the wall-clock filtering time accumulated by the
//!   brokers' matching engines while routing events.
//!
//! Brokers talk to each other exclusively through the **wire protocol** in
//! [`wire`]: every interaction — link setup ([`wire::WireMessage::Hello`] /
//! [`wire::WireMessage::Ack`]), subscription forwarding
//! ([`wire::WireMessage::Subscribe`] / [`wire::WireMessage::Unsubscribe`]),
//! and event traffic ([`wire::WireMessage::PublishBatch`]) — is encoded by
//! the binary [`wire::Codec`] into length-prefixed frames and moved over a
//! [`wire::Transport`]. A broker's ingress is
//! [`Broker::handle_message`]; the simulation decodes each frame, hands it
//! to the addressed broker, and puts the broker's responses back on the
//! wire, so `NetworkStats::bytes` is the exact sum of encoded frame lengths.
//!
//! The central type is [`Simulation`]: build it from a [`Topology`] and a set
//! of subscriptions, publish events, and read the metrics. Pruned routing
//! entries are installed with [`Simulation::install_remote_tree`] (typically
//! produced by a `pruning::Pruner` per broker).
//!
//! ```
//! use broker::{Simulation, SimulationConfig, Topology};
//! use pubsub_core::{EventMessage, Expr, Subscription, SubscriptionId, SubscriberId};
//!
//! let config = SimulationConfig::new(Topology::line(3));
//! let mut sim = Simulation::new(config);
//! sim.register_subscription(Subscription::from_expr(
//!     SubscriptionId::from_raw(1),
//!     SubscriberId::from_raw(0), // home broker 0 by default assignment
//!     &Expr::eq("category", "books"),
//! ));
//!
//! // Publish at broker 2; the event is routed along the line to broker 0.
//! let outcome = sim.publish_at(
//!     EventMessage::builder().attr("category", "books").build(),
//!     broker::BrokerId::from_raw(2),
//! );
//! assert_eq!(outcome.deliveries.len(), 1);
//! assert_eq!(outcome.broker_messages, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod broker_node;
pub mod durability;
pub mod fault;
mod metrics;
pub mod reliable;
mod routing_table;
mod simulation;
pub mod subsumption;
mod topology;
pub mod wire;

pub use broker_node::{Broker, Destination, MessageHandling};
pub use durability::{
    DurabilityConfig, DurabilityStats, DurableLog, FileStorage, MemoryStorage, Storage,
    StorageFaultPlan,
};
pub use fault::{FaultPlan, FaultStats, FaultyTransport};
// Re-exported so configuring a simulation's engine does not require a
// direct `filtering` dependency.
pub use filtering::{AnalyzeMode, DiscriminationHint, EngineConfig, EngineKind, PrefilterMode};
pub use metrics::{AnalysisStats, NetworkStats, RoutingMemoryReport, RunReport};
pub use pubsub_core::BrokerId;
pub use reliable::{ReliableConfig, ReliableSession, SendOutcome};
pub use routing_table::RoutingTable;
pub use simulation::{PublishOutcome, Simulation, SimulationConfig};
pub use subsumption::SubsumptionQuery;
pub use topology::Topology;
pub use wire::{ChannelTransport, Codec, CodecError, Transport, WireKind, WireMessage};
