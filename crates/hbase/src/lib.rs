//! # hl-hbase
//!
//! A minimal HBase-flavored distributed table store built **on top of
//! [`hl_dfs`]** — the runnable version of the course's ecosystem lecture
//! ("we also spent one lecture introducing HBase/Hive to the students to
//! provide a more comprehensive view of the Hadoop ecosystem") and of the
//! paper's stated future work ("developing the myHadoop scripts to
//! continue to support these new components of the Hadoop ecosystem …
//! distributed data store [27: Apache HBase]").
//!
//! The architecture is the real one, scaled down:
//!
//! * writes land in a per-region, in-memory, sorted [`memstore`];
//! * when the memstore exceeds its threshold it **flushes** to an
//!   immutable, sorted [`hfile`] persisted as a replicated file *in HDFS*
//!   (so HBase durability inherits HDFS's replication story — Figure 2's
//!   stack, one level up);
//! * reads merge the memstore with the region's HFiles, newest timestamp
//!   first, with delete tombstones masking older cells;
//! * **compaction** merges a region's HFiles into one, dropping shadowed
//!   cells and expired tombstones;
//! * a [`table::HTable`] routes rows to [`region`]s by start-key ranges
//!   and **splits** regions that grow past a threshold — the same
//!   range-partitioned design the MapReduce lectures' range partitioner
//!   foreshadows.
//!
//! Semantics are model-checked: property tests drive random
//! put/delete/flush/compact/split sequences against a flat reference map.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cell;
pub mod hfile;
pub mod memstore;
pub mod region;
pub mod table;

pub use table::HTable;
