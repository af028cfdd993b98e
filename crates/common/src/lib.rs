//! # hl-common
//!
//! Shared substrate for the HadoopLab workspace: error types, a
//! Hadoop-style string [`Configuration`][config::Configuration], the
//! [`Writable`][writable::Writable] serialization protocol with
//! order-preserving key encodings, CRC32 checksums, job/file-system
//! [`Counters`][counters::Counters], virtual [`SimTime`][simtime::SimTime],
//! rack [`topology`], partition [`hash`]ing, and the host-thread [`pool`]
//! every crate that wants a second core goes through.
//!
//! Everything here is dependency-light and purely computational so that the
//! higher crates (`hl-dfs`, `hl-mapreduce`, `hl-cluster`, ...) can share one
//! vocabulary without pulling in the simulator.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod checksum;
pub mod config;
pub mod counters;
pub mod error;
pub mod hash;
pub mod keys;
pub mod pool;
pub mod simtime;
pub mod topology;
pub mod units;
pub mod writable;

pub use error::{HlError, Result};
pub use simtime::{SimDuration, SimTime};

/// Crate-wide prelude re-exporting the types nearly every consumer needs.
pub mod prelude {
    pub use crate::checksum::Crc32;
    pub use crate::config::Configuration;
    pub use crate::counters::{Counters, FileSystemCounter, TaskCounter};
    pub use crate::error::{HlError, Result};
    pub use crate::hash::fnv1a;
    pub use crate::simtime::{SimDuration, SimTime};
    pub use crate::topology::{NodeId, RackId, Topology};
    pub use crate::units::ByteSize;
    pub use crate::writable::{Text, Writable};
}
