//! # pubsub-core
//!
//! Core data model for a content-based publish/subscribe system following the
//! attribute–value pair model of Bittner & Hinze (ICDCS Workshops 2006):
//!
//! * [`Value`] — typed attribute values carried by event messages.
//! * [`EventMessage`] — a set of attribute–value pairs published by a producer.
//! * [`EventBatch`] — a reusable, arena-backed batch of events, the unit the
//!   batch-first matching API consumes.
//! * [`Predicate`] — an attribute–operator–value triple, the leaf variables of
//!   subscriptions.
//! * [`SubscriptionTree`] — an arbitrary Boolean expression over predicates
//!   (AND / OR / NOT internal nodes), stored as an arena of nodes so that
//!   subtrees can be addressed, sized, and removed (pruned).
//! * [`Subscription`] — a registered subscription: a tree plus the identifiers
//!   of the subscription and its subscriber.
//!
//! The crate deliberately contains no matching index, selectivity estimation,
//! or pruning policy — those live in the `filtering`, `selectivity`, and
//! `pruning` crates. What it does provide is the tree arithmetic those crates
//! need: evaluation, `pmin` (the minimum number of fulfilled predicates that
//! can fulfil the tree), memory-size estimation, negation parity, and the
//! enumeration of *generalizing removals* (the structurally valid prunings).
//!
//! ## Quick example
//!
//! ```
//! use pubsub_core::{Expr, EventMessage, Value, SubscriptionTree};
//!
//! // (category = "books" AND price < 20) OR seller_rating >= 4.5
//! let expr = Expr::or(vec![
//!     Expr::and(vec![
//!         Expr::eq("category", "books"),
//!         Expr::lt("price", 20i64),
//!     ]),
//!     Expr::ge("seller_rating", 4.5),
//! ]);
//! let tree = SubscriptionTree::from_expr(&expr);
//!
//! let event = EventMessage::builder()
//!     .attr("category", "books")
//!     .attr("price", 12i64)
//!     .attr("seller_rating", 3.9)
//!     .build();
//!
//! assert!(tree.evaluate(&event));
//! assert_eq!(tree.pmin(), 1); // the single rating predicate can fulfil it
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod attr;
mod batch;
mod error;
mod event;
mod expr;
pub mod hash;
mod ids;
mod operator;
mod predicate;
pub mod record;
mod subscription;
mod tree;
mod value;

pub use analysis::{Analysis, AnalysisReport, Analyzer};
pub use attr::AttrId;
pub use batch::{EventBatch, EventBatchBuilder, EventRef, PairWriter};
pub use error::CoreError;
pub use event::{EventBuilder, EventMessage};
pub use expr::Expr;
pub use hash::{fnv64, Fnv64};
pub use ids::{BrokerId, EventId, NodeId, SubscriberId, SubscriptionId};
pub use operator::Operator;
pub use predicate::Predicate;
pub use subscription::Subscription;
pub use tree::{Node, NodeKind, PruneError, SubscriptionTree, TreeStats};
pub use value::Value;

/// Convenient result alias for fallible operations in this crate.
pub type Result<T, E = CoreError> = std::result::Result<T, E>;
