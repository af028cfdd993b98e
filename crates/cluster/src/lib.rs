//! # hl-cluster
//!
//! The physical substrate the teaching platform runs on, simulated
//! deterministically: compute [`node`]s with disks and NICs, the two
//! [`network`] architectures contrasted in the paper's Figure 1 (HPC
//! compute/storage separation vs Hadoop storage-on-compute), a PBS-like
//! [`scheduler`] with the queueing and cleanup behaviour of Clemson's
//! Palmetto machine, the [`ports`] registry whose stale bindings produce
//! the paper's "ghost daemon" failures, [`failure`] injectors modeling
//! the Java-heap-leak crashes that corrupted the Version-1 course cluster,
//! and the myHadoop scripts that [`provision`] each student's cluster on
//! the shared scheduler.
//!
//! Time is virtual ([`hl_common::SimTime`]): operations *charge* bandwidth
//! against FIFO [`resource`]s and protocol steps run on an [`event`] queue,
//! so hour-scale phenomena replay in milliseconds, identically on every
//! run.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod event;
pub mod failure;
pub mod network;
pub mod node;
pub mod ports;
pub mod provision;
pub mod resource;
pub mod scheduler;
pub mod trace;
