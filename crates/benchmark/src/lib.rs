//! # benchmark
//!
//! The repository's benchmark: five workloads over the paper's 5-broker line
//! (and one centralized A-Tree broker), end-to-end metrics a user of the
//! system would see, and a per-layer breakdown measured **from outside** —
//! through public functions only, so every layer is measured the same way
//! before and after a change to it.
//!
//! * [`spec`] — workload names, metric names, units, directions and bounds,
//!   read from `BENCHMARK.json`.
//! * [`inputs`] — everything the program is fed, generated from the seed.
//! * [`workloads`] — set-up, the closed-loop measured phase, whole-cluster
//!   restarts and the oracle check.
//! * [`oracle`] — deliveries checked against a centralized `NaiveEngine`.
//! * [`trace`] — a `Transport` wrapper that turns frame traffic into spans.
//! * [`layers`] — per-layer probes replaying the run's own frames and
//!   records through each layer's public functions.
//! * [`report`] — one invocation of one workload and the metrics it prints.
//! * [`runner`] / [`compare`] — `benchmark run` and `benchmark compare`.
//!
//! See the crate's `README.md` for the tables and how to run it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod compare;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod oracle;
pub mod report;
pub mod runner;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
