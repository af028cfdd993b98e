//! # hl-benchmark
//!
//! HadoopLab has two clocks. *Simulated time* is what the modelled cluster
//! does; *host time* is how fast the Rust itself runs. This crate measures
//! both on six workloads, end to end and layer by layer, entirely from
//! outside: every number comes from timing calls into the crates' public
//! functions or from counters they already export.
//!
//! * [`defs`] — the contract: workloads, end-to-end metrics with direction
//!   and bound, per-layer metric names (`BENCHMARK.json` is its copy);
//! * [`workloads`] — the six workloads and their shared harness;
//! * [`layers`] — isolated layer replays for the traced run;
//! * [`spans`] — in-memory spans, self-time arithmetic, Chrome trace export;
//! * [`report`] — a run's result and its encodings;
//! * [`compare`] — the better/within/worse/unresolved verdict per row;
//! * [`cli`] — the `benchmark` binary's commands;
//! * [`context`], [`stats`], [`json`] — host context, order statistics, and
//!   a dependency-free JSON value.

#![warn(missing_docs)]

pub mod calibrate;
pub mod cli;
pub mod compare;
pub mod context;
pub mod defs;
pub mod json;
pub mod layers;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;
