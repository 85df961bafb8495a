//! # filtering
//!
//! Event-filtering engines for Boolean subscriptions.
//!
//! Three engines are provided behind the common [`MatchingEngine`] trait:
//!
//! * [`CountingEngine`] — the production engine. Predicate leaves are
//!   indexed per attribute (hash index for equalities, interval index for
//!   ordering predicates, a scan list for the rest). A subscription with a
//!   required equality is indexed under that one *access clause* and
//!   evaluated only for events that fulfil it; for every other one, an
//!   incoming event first resolves which predicates it fulfils through the
//!   index, then only evaluates subscription trees whose number of fulfilled
//!   predicates reaches the tree's `pmin` — the minimum number of fulfilled
//!   predicates that can possibly fulfil the subscription. This is the
//!   non-canonical counting algorithm of Bittner & Hinze \[2\] that the
//!   paper's throughput heuristic (`Δ≈eff`) reasons about.
//! * [`ATreeEngine`] — the shared-subexpression engine for very large
//!   (100k–1M) redundant subscription populations: every registered tree is
//!   hash-consed into one slab-backed DAG, identical subtrees across
//!   subscriptions become a single node with a subscriber list, and matching
//!   evaluates each shared node at most once per event.
//! * [`NaiveEngine`] — a brute-force baseline that evaluates every
//!   subscription tree against every event. Used for differential testing and
//!   as the unindexed baseline in benchmarks.
//!
//! [`EngineKind`] / [`AnyEngine`] let components pick the counting or the
//! A-Tree engine at configuration time.
//!
//! Both engines expose the *predicate/subscription association count*, the
//! memory metric reported in the paper's Figures 1(c) and 1(f).
//!
//! ## Batch-first matching
//!
//! The primary entry point is [`MatchingEngine::match_batch`]: it drives a
//! whole [`EventBatch`](pubsub_core::EventBatch) through the engine and
//! streams every `(event index, subscription, subscriber)` match into a
//! [`MatchSink`] ([`VecSink`], [`CountSink`], and [`PerEventSink`] are
//! provided). The
//! counting engine keeps its generation-stamped scratch hot across the
//! batch, so steady-state batch matching performs no allocation at all. The
//! single-event methods remain as thin wrappers for callers that genuinely
//! have one event in hand.
//!
//! ```
//! use filtering::{CountingEngine, MatchingEngine, PerEventSink};
//! use pubsub_core::{Expr, EventBatch, EventMessage, Subscription, SubscriptionId, SubscriberId};
//!
//! let mut engine = CountingEngine::new();
//! engine.insert(Subscription::from_expr(
//!     SubscriptionId::from_raw(1),
//!     SubscriberId::from_raw(1),
//!     &Expr::and(vec![Expr::eq("category", "books"), Expr::le("price", 20i64)]),
//! ));
//!
//! let batch: EventBatch = (0..3)
//!     .map(|i| {
//!         EventMessage::builder()
//!             .attr("category", "books")
//!             .attr("price", 10 * i as i64)
//!             .build()
//!     })
//!     .collect();
//! let mut sink = PerEventSink::new();
//! engine.match_batch(&batch, &mut sink);
//! // All three prices (0, 10, 20) satisfy `price <= 20`.
//! assert_eq!(sink.total_matches(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analyze;
mod atree;
mod config;
mod counting;
mod engine;
mod index;
mod naive;
mod prefilter;
mod sink;
mod stats;

pub use atree::{ATreeEngine, AtreeMemory};
pub use config::{AnalyzeMode, EngineConfig, PrefilterMode};
pub use counting::CountingEngine;
pub use engine::{AnyEngine, EngineKind, EngineReport, MatchingEngine};
pub use index::{AttributeIndex, PredicateKey, SubSlot};
pub use naive::NaiveEngine;
pub use prefilter::PreFilter;
pub use sink::{CountSink, MatchSink, PerEventSink, VecSink};
pub use stats::FilterStats;

// Re-exported so engine callers can build hints without depending on the
// `selectivity` crate directly.
pub use selectivity::DiscriminationHint;
