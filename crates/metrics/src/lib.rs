//! # hl-metrics
//!
//! The observability layer real Hadoop 1.x exposed through the NameNode
//! and JobTracker metrics pages and that the paper's Section IV stories
//! (safe-mode restarts, under-replicated blocks, ghost daemons) are told
//! through. Every daemon in the workspace registers typed instruments —
//! [`registry::MetricsRegistry`] keyed by `(daemon, name)` — and renders
//! them into a `dfsadmin -report`-style [`report::MetricsReport`].
//!
//! Three invariants distinguish this from an ordinary metrics crate:
//!
//! * **Virtual time only.** Snapshots are stamped with [`SimTime`]
//!   micros; nothing here reads a wall clock, so a metrics snapshot is a
//!   pure function of the simulated history that produced it.
//! * **Deterministic serialization.** [`registry::MetricsSnapshot`]
//!   serializes via the workspace [`Writable`] protocol with samples in
//!   `(daemon, name)` order; two runs of the same seeded scenario must
//!   produce byte-identical snapshots (the chaos harness's seventh
//!   oracle holds them to that).
//! * **Restart semantics.** A daemon restart resets that daemon's
//!   *gauges* (point-in-time state died with the process) but preserves
//!   its monotonic *counters* and histograms — the accounting that must
//!   not double- or under-count across the chaos restart sweep.
//!
//! [`SimTime`]: hl_common::SimTime
//! [`Writable`]: hl_common::writable::Writable

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod histogram;
pub mod registry;
pub mod report;

pub use registry::{CounterHandle, MetricSample, MetricValue, MetricsRegistry, MetricsSnapshot};
pub use report::MetricsReport;
