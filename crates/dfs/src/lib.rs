//! # hl-dfs
//!
//! A from-scratch HDFS (Hadoop 1.x) analog: the substrate the course's
//! second lecture, second lab, and second assignment revolve around.
//!
//! Architecture follows the paper's Figure 2 exactly:
//!
//! * the [`namenode::NameNode`] keeps the entire namespace and
//!   block→location map **in memory**, persists namespace mutations to an
//!   [`editlog::EditLog`], runs [`safemode`] on startup, and drives
//!   re-replication of under-replicated blocks;
//! * each [`datanode::DataNode`] stores [`block`]s as checksummed chunks,
//!   scans them for integrity (the slow restart students suffered), and
//!   reports them to the NameNode;
//! * the [`client::Dfs`] facade implements the user-visible operations —
//!   pipeline writes (with mid-write DataNode failure recovery via
//!   generation stamps), locality-aware reads with dead-node failover,
//!   `copyFromLocal`/`copyToLocal` — charging every byte against the
//!   cluster's disks and network;
//! * [`lease`] gives every file open for write a soft/hard-expiring lease
//!   so crashed writers get their files recovered to a consistent length;
//! * [`fsck`] renders the health report and [`shell`] the
//!   `hadoop fs` command surface that assignment 2 asks students to record.
//!
//! All computation is real (real bytes, real CRC32s); time is virtual.
//! Blocks may alternatively carry a [`block::BlockPayload::Synthetic`]
//! payload — a length without bytes — so staging-time experiments can model
//! the paper's 171 GB Google trace without allocating it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admin;
pub mod block;
mod blockmap;
pub mod client;
pub mod datanode;
pub mod editlog;
pub mod fsck;
pub mod fsimage;
pub mod lease;
pub mod namenode;
pub mod namespace;
pub mod placement;
pub mod safemode;
pub mod shell;

pub use block::{BlockId, BlockPayload, ReplicaMeta};
pub use client::{Dfs, PipelineFault};
pub use namenode::NameNode;
