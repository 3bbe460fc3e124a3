//! # cnc-obs — structured observability for the counting pipeline.
//!
//! The paper's whole argument is quantitative — operation counts, bandwidth,
//! per-stage timings — so every run of this reproduction should produce the
//! same kind of auditable, structured evidence. This crate is the
//! measurement substrate the rest of the workspace records into:
//!
//! * a **hierarchical span timer** ([`span`]): wall-clock spans recorded via
//!   RAII guards, assembled into a `prepare → plan → execute → task` tree;
//! * a **typed metrics registry** ([`metrics`]): every counter the workspace
//!   produces — kernel work tallies, prepared-graph cache evidence, GPU
//!   warp/memory statistics, machine-model components — identified by one
//!   [`Counter`] enum and recorded through the [`MetricsSink`] trait. The
//!   default sink is a lock-free sharded array of atomics, safe to hammer
//!   from every worker thread at once;
//! * a **run report** ([`report`]): the immutable snapshot of both, with a
//!   stable versioned JSON rendering (`--metrics`) and a human-readable span
//!   tree (`--trace`).
//!
//! Instrumentation is *ambient*: an [`ObsContext`] installed on the current
//! thread (see [`context`]) is picked up by every instrumented layer below
//! it, and when none is installed every probe is a no-op — uninstrumented
//! runs pay (almost) nothing and never change results.
//!
//! The crate is intentionally zero-dependency (`std` only) so every other
//! crate in the workspace can depend on it without cycles or feature creep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod context;
pub mod metrics;
pub mod report;
pub mod span;

pub use context::{ObsContext, ObsGuard};
pub use metrics::{Counter, CounterSnapshot, MetricsSink, ShardedRegistry};
pub use report::{json_string, MetricsFile, RunReport, SCHEMA_NAME, SCHEMA_VERSION};
pub use span::{SpanGuard, SpanId, SpanNode, SpanRecorder};
