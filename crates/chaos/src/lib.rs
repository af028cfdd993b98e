//! Deterministic chaos harness for the HadoopLab simulator.
//!
//! The paper's war stories — heap-leak meltdowns, the fifteen-minute
//! NameNode restart drill, silent replica corruption, ghost daemons on
//! the Hadoop ports — each exercised one failure path at a time. This
//! crate composes them: a seeded [`FaultPlan`] schedules typed fault
//! events across workload rounds, a [`ChaosRunner`] injects them into a
//! real `MrCluster` + `Campus`, and post-run [`oracle`]s check the
//! invariants the whole system must uphold *despite* the faults:
//!
//! * acknowledged DFS writes stay readable (or `fsck` reports the loss);
//! * successful jobs match the LocalJobRunner ground truth, failed jobs
//!   fail cleanly with attempts exhausted;
//! * re-replication quiesces with nothing under-replicated;
//! * no port stays ghost-bound after teardown plus one cleanup-cron pass;
//! * the trace and counters account for every injected fault;
//! * files left open by crashed writers are lease-recovered to consistent,
//!   CRC-valid whole-block lengths.
//!
//! Everything is a pure function of `(pack, seed)`: the same seed
//! reproduces the identical event trace, hash-comparable via
//! [`ChaosReport::trace_hash`]. The `chaos-soak` binary fans the runner
//! across seed ranges and scenario packs and prints the first failing
//! seed as a one-command replay.

#![forbid(unsafe_code)]

pub mod oracle;
pub mod plan;
pub mod runner;
pub mod scenario;

pub use runner::{AckedWrite, ChaosReport, ChaosRunner};
pub use scenario::{ScenarioPack, NODES, ROUNDS};
