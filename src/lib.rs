//! # hadoop-lab
//!
//! Facade crate for the HadoopLab workspace: a from-scratch, laptop-scale
//! reproduction of the Hadoop 1.x teaching platform described in
//! *Teaching HDFS/MapReduce Systems Concepts to Undergraduates*
//! (Ngo, Apon & Duffy, Clemson University, 2014).
//!
//! The individual subsystems live in the `hl-*` crates; this crate
//! re-exports them under stable module names so examples, integration
//! tests, and downstream users have a single dependency:
//!
//! * [`common`] — configuration, Writable serialization, counters, sim time
//! * [`codec`] — the splittable LZ77 block codec on the DFS and shuffle byte paths
//! * [`cluster`] — discrete-event cluster simulator + PBS-like batch scheduler
//! * [`dfs`] — the HDFS analog (NameNode, DataNodes, replication, fsck)
//! * [`hbase`] — an HBase-flavored table store over the DFS (the
//!   ecosystem lecture, runnable)
//! * [`mapreduce`] — the MRv1 analog (JobTracker, TaskTrackers, shuffle)
//! * [`datagen`] — synthetic stand-ins for the course datasets
//! * [`workloads`] — the lecture examples and assignment solutions
//! * [`provision`] — the myHadoop-style dynamic cluster provisioner
//! * [`core`] — experiment drivers for every table/figure + course model
//! * [`chaos`] — deterministic fault-injection harness + invariant oracles
//!
//! # Quickstart
//!
//! ```
//! use hadoop_lab::mapreduce::engine::MrCluster;
//! use hadoop_lab::workloads::wordcount;
//!
//! # fn main() -> hadoop_lab::common::error::Result<()> {
//! // The paper's 8-node course cluster (64 MB blocks, 3x replication).
//! let mut cluster = MrCluster::course_default()?;
//!
//! // Stage a file into HDFS (bytes are real, time is virtual).
//! cluster.dfs.namenode.mkdirs("/user/student")?;
//! cluster.put_input("/user/student/in.txt", b"so shaken as we are so wan with care\n")?;
//!
//! // Run WordCount with the reducer as a combiner.
//! let job = wordcount::wordcount_combiner("/user/student/in.txt", "/user/student/out", 1);
//! let report = cluster.run_job(&job)?;
//! assert!(report.success);
//!
//! let output = cluster.read_output("/user/student/out")?;
//! assert!(output.contains("shaken\t1"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use hl_chaos as chaos;
pub use hl_cluster as cluster;
pub use hl_cluster::provision;
pub use hl_codec as codec;
pub use hl_common as common;
pub use hl_core as core;
pub use hl_datagen as datagen;
pub use hl_dfs as dfs;
pub use hl_hbase as hbase;
pub use hl_mapreduce as mapreduce;
pub use hl_metrics as metrics;
pub use hl_workloads as workloads;
