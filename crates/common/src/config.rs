//! Hadoop-style string-keyed configuration.
//!
//! Hadoop 1.x configures everything through `*-site.xml` key/value pairs
//! (`dfs.block.size`, `dfs.replication`, `mapred.jobtracker.scheduler`, ...). The
//! course's myHadoop scripts work by rewriting exactly these keys, so the
//! reproduction keeps the same shape: a `Configuration` is an ordered map of
//! string keys to string values with typed accessors and defaults.

use std::collections::BTreeMap;
use std::fmt;

use crate::error::{HlError, Result};
use crate::units::ByteSize;

/// Well-known configuration keys, mirroring Hadoop 1.2.1 names.
pub mod keys {
    /// HDFS block size in bytes (Hadoop 1.x default: 64 MB).
    pub const DFS_BLOCK_SIZE: &str = "dfs.block.size";
    /// Target replication factor (default 3).
    pub const DFS_REPLICATION: &str = "dfs.replication";
    /// Fraction of blocks that must be reported before safe mode may exit.
    pub const DFS_SAFEMODE_THRESHOLD: &str = "dfs.safemode.threshold.pct";
    /// Extra wait after the safe-mode threshold is met, in seconds.
    pub const DFS_SAFEMODE_EXTENSION_SECS: &str = "dfs.safemode.extension";
    /// DataNode heartbeat interval in seconds (default 3).
    pub const DFS_HEARTBEAT_SECS: &str = "dfs.heartbeat.interval";
    /// Heartbeats missed before a DataNode is declared dead (default 200,
    /// i.e. 10 minutes at the 3 s interval — Hadoop's 10m30s recheck).
    pub const DFS_HEARTBEAT_DEAD_AFTER: &str = "dfs.heartbeat.dead.after";
    /// Map slots per TaskTracker (the paper's nodes: dual 8-core).
    pub const MAPRED_MAP_SLOTS: &str = "mapred.tasktracker.map.tasks.maximum";
    /// Reduce slots per TaskTracker.
    pub const MAPRED_REDUCE_SLOTS: &str = "mapred.tasktracker.reduce.tasks.maximum";
    /// Write-lease soft limit in seconds: past this another client may
    /// recover the lease (HDFS hardcodes 60 s; we expose it for tests).
    pub const DFS_LEASE_SOFT_LIMIT_SECS: &str = "dfs.lease.soft.limit";
    /// Write-lease hard limit in seconds: past this the NameNode recovers
    /// the lease on its own (HDFS hardcodes 1 h; default here 300 s).
    pub const DFS_LEASE_HARD_LIMIT_SECS: &str = "dfs.lease.hard.limit";
    /// Edit-log ops between automatic fsimage checkpoints (0 disables the
    /// trigger; mirrors `fs.checkpoint.txns` of the secondary NameNode).
    pub const DFS_CHECKPOINT_OPS: &str = "fs.checkpoint.txns";
    /// Failed attempts on one TaskTracker before a job blacklists it.
    pub const MAPRED_MAX_TRACKER_FAILURES: &str = "mapred.max.tracker.failures";
    /// Per-job blacklistings before a TaskTracker is blacklisted globally.
    pub const MAPRED_MAX_TRACKER_BLACKLISTS: &str = "mapred.max.tracker.blacklists";
    /// JobTracker scheduling policy: `fifo`, `fair`, or `capacity`
    /// (mirrors swapping the `mapred.jobtracker.taskScheduler` class).
    pub const MAPRED_SCHEDULER: &str = "mapred.jobtracker.scheduler";
    /// Fair scheduler: seconds a pool may sit below its minimum share
    /// before the scheduler preempts tasks from over-share pools.
    pub const MAPRED_FAIR_PREEMPTION_TIMEOUT_SECS: &str = "mapred.fairscheduler.preemption.timeout";
    /// Capacity scheduler: elastic ceiling for the default queue, in
    /// percent of cluster slots (`maximum-capacity` in Hadoop's
    /// capacity-scheduler.xml).
    pub const MAPRED_CAPACITY_MAX_PCT: &str = "mapred.capacity.maximum-capacity";
    /// Capacity scheduler: per-user share of one queue, in percent of the
    /// queue's slots (`minimum-user-limit-percent`).
    pub const MAPRED_CAPACITY_USER_LIMIT_PCT: &str = "mapred.capacity.user-limit-percent";
}

/// An ordered string key/value configuration with typed accessors.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Configuration {
    values: BTreeMap<String, String>,
}

impl Configuration {
    /// An empty configuration (every getter falls back to its default).
    pub fn new() -> Self {
        Self::default()
    }

    /// The stock Hadoop-1.2.1-like defaults the course shipped to students.
    pub fn with_defaults() -> Self {
        let mut c = Self::new();
        c.set(keys::DFS_BLOCK_SIZE, (64 * ByteSize::MIB).to_string());
        c.set(keys::DFS_REPLICATION, "3");
        c.set(keys::DFS_SAFEMODE_THRESHOLD, "0.999");
        c.set(keys::DFS_SAFEMODE_EXTENSION_SECS, "30");
        c.set(keys::DFS_HEARTBEAT_SECS, "3");
        c.set(keys::DFS_HEARTBEAT_DEAD_AFTER, "200");
        c.set(keys::MAPRED_MAP_SLOTS, "8");
        c.set(keys::MAPRED_REDUCE_SLOTS, "4");
        c.set(keys::DFS_LEASE_SOFT_LIMIT_SECS, "60");
        c.set(keys::DFS_LEASE_HARD_LIMIT_SECS, "300");
        c.set(keys::DFS_CHECKPOINT_OPS, "10000");
        c.set(keys::MAPRED_MAX_TRACKER_FAILURES, "4");
        c.set(keys::MAPRED_MAX_TRACKER_BLACKLISTS, "3");
        c.set(keys::MAPRED_SCHEDULER, "fifo");
        c.set(keys::MAPRED_FAIR_PREEMPTION_TIMEOUT_SECS, "30");
        c.set(keys::MAPRED_CAPACITY_MAX_PCT, "100");
        c.set(keys::MAPRED_CAPACITY_USER_LIMIT_PCT, "100");
        c
    }

    /// Set `key` to `value` (any `Display`able value).
    pub fn set(&mut self, key: &str, value: impl fmt::Display) -> &mut Self {
        self.values.insert(key.to_string(), value.to_string());
        self
    }

    /// Raw string lookup.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// String lookup with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    fn parse<T: std::str::FromStr>(&self, key: &str, raw: &str) -> Result<T> {
        raw.parse().map_err(|_| {
            HlError::Config(format!(
                "key {key}: cannot parse {raw:?} as {}",
                std::any::type_name::<T>()
            ))
        })
    }

    /// Integer lookup with default; malformed values are an error.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64> {
        match self.get(key) {
            Some(raw) => self.parse(key, raw),
            None => Ok(default),
        }
    }

    /// `u32` lookup with default.
    pub fn get_u32(&self, key: &str, default: u32) -> Result<u32> {
        match self.get(key) {
            Some(raw) => self.parse(key, raw),
            None => Ok(default),
        }
    }

    /// `usize` lookup with default.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize> {
        match self.get(key) {
            Some(raw) => self.parse(key, raw),
            None => Ok(default),
        }
    }

    /// `f64` lookup with default.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64> {
        match self.get(key) {
            Some(raw) => self.parse(key, raw),
            None => Ok(default),
        }
    }

    /// Merge `other` on top of `self` (other wins), like loading a second
    /// `*-site.xml` on top of the defaults.
    pub fn merge(&mut self, other: &Configuration) {
        for (k, v) in &other.values {
            self.values.insert(k.clone(), v.clone());
        }
    }

    /// Iterate over all pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Number of explicitly-set keys.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no keys are set.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl fmt::Display for Configuration {
    /// Renders in the flat `key=value` form the course's setup scripts used.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.values {
            writeln!(f, "{k}={v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_hadoop_1x() {
        let c = Configuration::with_defaults();
        assert_eq!(c.get_u64(keys::DFS_BLOCK_SIZE, 0).unwrap(), 64 * 1024 * 1024);
        assert_eq!(c.get_u32(keys::DFS_REPLICATION, 0).unwrap(), 3);
        assert_eq!(c.get_u32(keys::MAPRED_MAP_SLOTS, 0).unwrap(), 8);
    }

    #[test]
    fn typed_getters_and_defaults() {
        let mut c = Configuration::new();
        assert_eq!(c.get_u64("missing", 7).unwrap(), 7);
        c.set("k", 123u64);
        assert_eq!(c.get_u64("k", 0).unwrap(), 123);
        c.set("k", "not-a-number");
        assert!(c.get_u64("k", 0).is_err());
    }

    #[test]
    fn merge_overrides_in_order() {
        let mut base = Configuration::with_defaults();
        let mut site = Configuration::new();
        site.set(keys::DFS_REPLICATION, "2");
        base.merge(&site);
        assert_eq!(base.get_u32(keys::DFS_REPLICATION, 0).unwrap(), 2);
        // untouched keys survive
        assert_eq!(base.get_u32(keys::MAPRED_MAP_SLOTS, 0).unwrap(), 8);
    }

    #[test]
    fn display_round_trips_keys_in_order() {
        let mut c = Configuration::new();
        c.set("b", 2).set("a", 1);
        assert_eq!(c.to_string(), "a=1\nb=2\n");
    }
}
