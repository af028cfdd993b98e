//! The metrics registry and its deterministic snapshots.
//!
//! Instruments are keyed `(daemon, name)` — `("namenode",
//! "rpc.add_block")`, `("datanode.node003", "bytes.read")` — and come in
//! the three classic kinds: monotonic [`MetricValue::Counter`]s,
//! point-in-time [`MetricValue::Gauge`]s, and log2
//! [`MetricValue::Histogram`]s. Instruments live in one store of slots,
//! named by a `BTreeMap` per daemon inside a `BTreeMap` of daemons, so
//! iteration, snapshots, and serialization are deterministic by
//! construction, and touching an existing instrument allocates nothing. A
//! hot counter is bumped through a [`CounterHandle`], resolved once: one
//! indexed add instead of two name lookups.

use std::collections::BTreeMap;

use hl_common::writable::{read_vu64, write_vu64, Writable};
use hl_common::{HlError, Result, SimTime};

use crate::histogram::Histogram;

/// One instrument's current value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic count — survives a daemon restart.
    Counter(u64),
    /// Point-in-time level — reset to 0 by a daemon restart.
    Gauge(i64),
    /// Log2-bucketed sample distribution — survives a daemon restart.
    Histogram(Box<Histogram>),
}

const TAG_COUNTER: u8 = 0;
const TAG_GAUGE: u8 = 1;
const TAG_HISTOGRAM: u8 = 2;

impl Writable for MetricValue {
    fn write(&self, buf: &mut Vec<u8>) {
        match self {
            MetricValue::Counter(v) => {
                buf.push(TAG_COUNTER);
                write_vu64(*v, buf);
            }
            MetricValue::Gauge(v) => {
                buf.push(TAG_GAUGE);
                // ZigZag so small negatives stay small.
                write_vu64(((*v << 1) ^ (*v >> 63)) as u64, buf);
            }
            MetricValue::Histogram(h) => {
                buf.push(TAG_HISTOGRAM);
                h.write(buf);
            }
        }
    }

    fn read(buf: &mut &[u8]) -> Result<Self> {
        let tag = u8::read(buf)?;
        match tag {
            TAG_COUNTER => Ok(MetricValue::Counter(read_vu64(buf)?)),
            TAG_GAUGE => {
                let z = read_vu64(buf)?;
                Ok(MetricValue::Gauge(((z >> 1) as i64) ^ -((z & 1) as i64)))
            }
            TAG_HISTOGRAM => Ok(MetricValue::Histogram(Box::new(Histogram::read(buf)?))),
            other => Err(HlError::Codec(format!("bad MetricValue tag {other}"))),
        }
    }
}

/// One `(daemon, name, value)` row of a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSample {
    /// Owning daemon ("namenode", "datanode.node003", "jobtracker", ...).
    pub daemon: String,
    /// Instrument name within the daemon ("rpc.add_block", ...).
    pub name: String,
    /// The value at snapshot time.
    pub value: MetricValue,
}

impl Writable for MetricSample {
    fn write(&self, buf: &mut Vec<u8>) {
        self.daemon.write(buf);
        self.name.write(buf);
        self.value.write(buf);
    }

    fn read(buf: &mut &[u8]) -> Result<Self> {
        Ok(MetricSample {
            daemon: String::read(buf)?,
            name: String::read(buf)?,
            value: MetricValue::read(buf)?,
        })
    }
}

/// A point-in-time, virtual-time-stamped copy of every instrument,
/// sorted by `(daemon, name)`. Serialization via [`Writable`] is
/// canonical: equal snapshots encode to equal bytes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Virtual timestamp of the snapshot, in micros since sim start.
    pub at_micros: u64,
    /// Every instrument, in `(daemon, name)` order.
    pub samples: Vec<MetricSample>,
}

impl MetricsSnapshot {
    /// Look up one sample.
    pub fn get(&self, daemon: &str, name: &str) -> Option<&MetricValue> {
        self.samples
            .binary_search_by(|s| (s.daemon.as_str(), s.name.as_str()).cmp(&(daemon, name)))
            .ok()
            .map(|i| &self.samples[i].value)
    }

    /// Counter value (0 when absent or not a counter).
    pub fn counter(&self, daemon: &str, name: &str) -> u64 {
        match self.get(daemon, name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Gauge value (0 when absent or not a gauge).
    pub fn gauge(&self, daemon: &str, name: &str) -> i64 {
        match self.get(daemon, name) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// Sum of every counter named `name` across all daemons (fleet-wide
    /// roll-up, e.g. total `bytes.read` over every DataNode).
    pub fn counter_across_daemons(&self, name: &str) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| match &s.value {
                MetricValue::Counter(v) => *v,
                _ => 0,
            })
            .sum()
    }

    /// Merge another snapshot into this one: counters add, gauges add,
    /// histograms merge, disjoint keys union. The timestamp takes the
    /// later of the two. Used to aggregate per-subsystem registries
    /// (DFS + engine + network) into one cluster-wide snapshot.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.at_micros = self.at_micros.max(other.at_micros);
        let mut map: BTreeMap<(String, String), MetricValue> =
            self.samples.drain(..).map(|s| ((s.daemon, s.name), s.value)).collect();
        for s in &other.samples {
            let key = (s.daemon.clone(), s.name.clone());
            match map.get_mut(&key) {
                None => {
                    map.insert(key, s.value.clone());
                }
                Some(MetricValue::Counter(a)) => {
                    if let MetricValue::Counter(b) = &s.value {
                        *a = a.saturating_add(*b);
                    }
                }
                Some(MetricValue::Gauge(a)) => {
                    if let MetricValue::Gauge(b) = &s.value {
                        *a = a.saturating_add(*b);
                    }
                }
                Some(MetricValue::Histogram(a)) => {
                    if let MetricValue::Histogram(b) = &s.value {
                        a.merge(b);
                    }
                }
            }
        }
        self.samples = map
            .into_iter()
            .map(|((daemon, name), value)| MetricSample { daemon, name, value })
            .collect();
    }
}

impl Writable for MetricsSnapshot {
    fn write(&self, buf: &mut Vec<u8>) {
        write_vu64(self.at_micros, buf);
        self.samples.write(buf);
    }

    fn read(buf: &mut &[u8]) -> Result<Self> {
        Ok(MetricsSnapshot { at_micros: read_vu64(buf)?, samples: Vec::read(buf)? })
    }
}

/// The live instrument store one subsystem owns.
///
/// Zero-dependency and wall-clock-free: `SimTime` enters only at
/// [`MetricsRegistry::snapshot`] time, stamped by the caller's virtual
/// clock. Kind mismatches (a counter name later used as a gauge) never
/// panic — the instrument is deterministically re-created at the new
/// kind, which keeps daemon code panic-free (lint rule R1).
///
/// Every instrument lives in one slot of one store, found by name or, for
/// a counter bumped on a hot path, by a [`CounterHandle`] resolved once.
/// Equality compares the instruments, not the order their slots were made
/// in: two registries with the same history are equal however their
/// handles were resolved.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    /// daemon → name → slot in `values`, so a `(&str, &str)` pair probes
    /// without owning; nested iteration visits `(daemon, name)` in the same
    /// lexicographic order a pair-keyed map would. An inner map is created
    /// with its first slot and never left empty.
    index: BTreeMap<String, BTreeMap<String, usize>>,
    /// The store, by slot. `None` is a slot a handle resolved and nothing
    /// has touched yet: not an instrument — no snapshot row, not counted —
    /// until its first touch.
    values: Vec<Option<MetricValue>>,
}

/// A counter of one [`MetricsRegistry`], resolved once by
/// [`MetricsRegistry::counter_handle`]: [`MetricsRegistry::bump`] through
/// it is one indexed add, with no name lookup. It names the same counter
/// in every clone of that registry; in any other registry it names
/// nothing, and a bump through it is ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterHandle(usize);

impl PartialEq for MetricsRegistry {
    fn eq(&self, other: &Self) -> bool {
        self.instruments().eq(other.instruments())
    }
}

impl Eq for MetricsRegistry {}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// `(daemon, name, value)` of every instrument, in `(daemon, name)`
    /// order.
    fn instruments(&self) -> impl Iterator<Item = (&str, &str, &MetricValue)> {
        self.index.iter().flat_map(move |(daemon, names)| {
            names.iter().filter_map(move |(name, &at)| {
                Some((daemon.as_str(), name.as_str(), self.values.get(at)?.as_ref()?))
            })
        })
    }

    fn get(&self, daemon: &str, name: &str) -> Option<&MetricValue> {
        let &at = self.index.get(daemon)?.get(name)?;
        self.values.get(at)?.as_ref()
    }

    /// The slot of `(daemon, name)`, made empty on first sight. A first
    /// sight is the only time an instrument's strings are built.
    fn slot(&mut self, daemon: &str, name: &str) -> usize {
        if let Some(&at) = self.index.get(daemon).and_then(|names| names.get(name)) {
            return at;
        }
        let at = self.values.len();
        self.values.push(None);
        self.index.entry(daemon.to_string()).or_default().insert(name.to_string(), at);
        at
    }

    /// Resolve the counter `(daemon, name)` for [`Self::bump`]. Resolving
    /// adds no instrument: the counter appears with its first bump, as it
    /// would with its first [`Self::incr`].
    pub fn counter_handle(&mut self, daemon: &str, name: &str) -> CounterHandle {
        CounterHandle(self.slot(daemon, name))
    }

    /// [`Self::incr`] on the counter `handle` names.
    pub fn bump(&mut self, handle: CounterHandle, delta: u64) {
        match self.values.get_mut(handle.0) {
            Some(Some(MetricValue::Counter(v))) => *v = v.saturating_add(delta),
            Some(slot) => *slot = Some(MetricValue::Counter(delta)),
            None => {}
        }
    }

    /// Add `delta` to a monotonic counter, creating it at 0 first.
    pub fn incr(&mut self, daemon: &str, name: &str, delta: u64) {
        let handle = self.counter_handle(daemon, name);
        self.bump(handle, delta);
    }

    /// Set a gauge to an absolute level.
    pub fn set_gauge(&mut self, daemon: &str, name: &str, level: i64) {
        let at = self.slot(daemon, name);
        if let Some(slot) = self.values.get_mut(at) {
            *slot = Some(MetricValue::Gauge(level));
        }
    }

    /// Record one sample into a histogram, creating it empty first.
    pub fn observe(&mut self, daemon: &str, name: &str, sample: u64) {
        let at = self.slot(daemon, name);
        match self.values.get_mut(at) {
            Some(Some(MetricValue::Histogram(h))) => h.record(sample),
            Some(slot) => {
                let mut h = Histogram::new();
                h.record(sample);
                *slot = Some(MetricValue::Histogram(Box::new(h)));
            }
            None => {}
        }
    }

    /// Read a counter (0 when absent).
    pub fn counter(&self, daemon: &str, name: &str) -> u64 {
        match self.get(daemon, name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Read a gauge (0 when absent).
    pub fn gauge(&self, daemon: &str, name: &str) -> i64 {
        match self.get(daemon, name) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// Read a histogram, if present.
    pub fn histogram(&self, daemon: &str, name: &str) -> Option<&Histogram> {
        match self.get(daemon, name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// The restart contract: a restarting daemon's **gauges** reset to 0
    /// (the level died with the process) while its **counters** and
    /// **histograms** carry across — restarting must never double- or
    /// re-count history. Other daemons' instruments are untouched.
    pub fn restart_daemon(&mut self, daemon: &str) {
        for &at in self.index.get(daemon).into_iter().flat_map(BTreeMap::values) {
            if let Some(Some(MetricValue::Gauge(level))) = self.values.get_mut(at) {
                *level = 0;
            }
        }
    }

    /// Snapshot every instrument at virtual time `at`.
    pub fn snapshot(&self, at: SimTime) -> MetricsSnapshot {
        MetricsSnapshot {
            at_micros: at.as_micros(),
            samples: self
                .instruments()
                .map(|(daemon, name, value)| MetricSample {
                    daemon: daemon.to_string(),
                    name: name.to_string(),
                    value: value.clone(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_coexist_per_daemon() {
        let mut r = MetricsRegistry::new();
        r.incr("namenode", "rpc.mkdirs", 2);
        r.incr("namenode", "rpc.mkdirs", 1);
        r.set_gauge("namenode", "safemode.on", 1);
        r.set_gauge("namenode", "leases.open", 2);
        r.observe("jobtracker", "map.duration_ms", 900);
        assert_eq!(r.counter("namenode", "rpc.mkdirs"), 3);
        assert_eq!(r.gauge("namenode", "safemode.on"), 1);
        assert_eq!(r.gauge("namenode", "leases.open"), 2);
        assert_eq!(r.histogram("jobtracker", "map.duration_ms").unwrap().count(), 1);
        // Same name under a different daemon is a different instrument.
        r.incr("datanode.node000", "rpc.mkdirs", 7);
        assert_eq!(r.counter("namenode", "rpc.mkdirs"), 3);
        assert_eq!(r.counter("datanode.node000", "rpc.mkdirs"), 7);
        assert_eq!(r.snapshot(SimTime::ZERO).samples.len(), 5);
    }

    #[test]
    fn restart_resets_gauges_but_preserves_monotonic_counters() {
        let mut r = MetricsRegistry::new();
        r.incr("namenode", "rpc.add_block", 11);
        r.set_gauge("namenode", "blocks.under_replicated", 4);
        r.observe("namenode", "report.size", 80);
        r.incr("datanode.node001", "bytes.read", 4096);
        r.set_gauge("datanode.node001", "blocks.held", 9);

        r.restart_daemon("namenode");
        // The restarted daemon: counters and histograms intact, gauges 0.
        assert_eq!(r.counter("namenode", "rpc.add_block"), 11);
        assert_eq!(r.histogram("namenode", "report.size").unwrap().count(), 1);
        assert_eq!(r.gauge("namenode", "blocks.under_replicated"), 0);
        // Unrelated daemons: fully untouched.
        assert_eq!(r.counter("datanode.node001", "bytes.read"), 4096);
        assert_eq!(r.gauge("datanode.node001", "blocks.held"), 9);
        // A second restart must not double-count anything.
        r.restart_daemon("namenode");
        assert_eq!(r.counter("namenode", "rpc.add_block"), 11);
    }

    #[test]
    fn kind_mismatch_recreates_instead_of_panicking() {
        let mut r = MetricsRegistry::new();
        r.incr("d", "x", 5);
        r.set_gauge("d", "x", -2);
        assert_eq!(r.gauge("d", "x"), -2);
        r.observe("d", "x", 1);
        assert_eq!(r.histogram("d", "x").unwrap().count(), 1);
        r.incr("d", "x", 9);
        assert_eq!(r.counter("d", "x"), 9);
    }

    /// One history told twice: counters bumped through handles in one
    /// registry and by name in the other, interleaved with a gauge set on
    /// a counter's name, histogram samples and restarts. Both registries
    /// snapshot to the same bytes, and a resolved handle nobody bumped
    /// adds no row.
    #[test]
    fn handles_and_names_give_the_same_bytes() {
        let (mut by_handle, mut by_name) = (MetricsRegistry::new(), MetricsRegistry::new());
        let ops = by_handle.counter_handle("namenode", "rpc.add_block");
        let beats = by_handle.counter_handle("namenode", "rpc.heartbeat");
        let idle = by_handle.counter_handle("namenode", "rpc.rename");
        let reads = by_handle.counter_handle("datanode.node001", "bytes.read");
        assert!(by_handle.snapshot(SimTime(1)).samples.is_empty(), "resolving adds no instrument");
        assert_eq!(
            by_handle.snapshot(SimTime(1)).to_bytes(),
            by_name.snapshot(SimTime(1)).to_bytes()
        );
        for round in 1..=40u64 {
            by_handle.bump(ops, round);
            by_name.incr("namenode", "rpc.add_block", round);
            by_handle.bump(beats, 1);
            by_name.incr("namenode", "rpc.heartbeat", 1);
            if round % 3 == 0 {
                by_handle.bump(reads, round * 7);
                by_name.incr("datanode.node001", "bytes.read", round * 7);
            }
            for r in [&mut by_handle, &mut by_name] {
                r.observe("namenode", "report.size", round);
                if round % 10 == 0 {
                    // The counter's name used as a gauge: re-created at the
                    // new kind, then at the old one by the next bump.
                    r.set_gauge("namenode", "rpc.heartbeat", -i64::try_from(round).unwrap());
                }
                if round % 13 == 0 {
                    r.restart_daemon("namenode");
                }
            }
            let at = SimTime(round);
            assert_eq!(by_handle.snapshot(at).to_bytes(), by_name.snapshot(at).to_bytes());
            assert_eq!(by_handle, by_name);
        }
        assert_eq!(by_handle.counter("namenode", "rpc.add_block"), 820);
        assert_eq!(by_handle.gauge("namenode", "rpc.heartbeat"), -40);
        by_handle.bump(beats, 1);
        by_name.incr("namenode", "rpc.heartbeat", 1);
        assert_eq!(by_handle.counter("namenode", "rpc.heartbeat"), 1, "a counter again");
        assert_eq!(by_handle, by_name);
        let snap = by_handle.snapshot(SimTime(41));
        assert!(snap.get("namenode", "rpc.rename").is_none(), "{idle:?} was never bumped");
        assert_eq!(snap.samples.len(), 4);

        // A clone shares the handles; another registry ignores them.
        let mut twin = by_handle.clone();
        twin.bump(ops, 1);
        assert_eq!(twin.counter("namenode", "rpc.add_block"), 821);
        let mut stranger = MetricsRegistry::new();
        stranger.bump(ops, 1);
        assert!(stranger.snapshot(SimTime::ZERO).samples.is_empty());
    }

    #[test]
    fn snapshot_is_sorted_and_looks_up() {
        let mut r = MetricsRegistry::new();
        r.incr("z-daemon", "a", 1);
        r.incr("a-daemon", "z", 2);
        r.set_gauge("a-daemon", "a", -3);
        let snap = r.snapshot(SimTime(42));
        assert_eq!(snap.at_micros, 42);
        let keys: Vec<(&str, &str)> =
            snap.samples.iter().map(|s| (s.daemon.as_str(), s.name.as_str())).collect();
        assert_eq!(keys, vec![("a-daemon", "a"), ("a-daemon", "z"), ("z-daemon", "a")]);
        assert_eq!(snap.counter("a-daemon", "z"), 2);
        assert_eq!(snap.gauge("a-daemon", "a"), -3);
        assert_eq!(snap.counter("missing", "nope"), 0);
    }

    #[test]
    fn snapshot_merge_adds_and_unions() {
        let mut a = MetricsRegistry::new();
        a.incr("dn", "bytes.read", 100);
        a.set_gauge("dn", "blocks", 5);
        a.observe("jt", "ms", 10);
        let mut b = MetricsRegistry::new();
        b.incr("dn", "bytes.read", 50);
        b.set_gauge("dn", "blocks", 2);
        b.observe("jt", "ms", 20);
        b.incr("nn", "ops", 1);

        let mut snap = a.snapshot(SimTime(10));
        snap.merge(&b.snapshot(SimTime(7)));
        assert_eq!(snap.at_micros, 10);
        assert_eq!(snap.counter("dn", "bytes.read"), 150);
        assert_eq!(snap.gauge("dn", "blocks"), 7);
        assert_eq!(snap.counter("nn", "ops"), 1);
        match snap.get("jt", "ms").unwrap() {
            MetricValue::Histogram(h) => assert_eq!(h.count(), 2),
            other => panic!("expected histogram, got {other:?}"),
        }
        assert_eq!(snap.counter_across_daemons("bytes.read"), 150);
    }

    #[test]
    fn metrics_snapshot_round_trips() {
        let mut r = MetricsRegistry::new();
        r.incr("namenode", "rpc.mkdirs", 3);
        r.set_gauge("namenode", "delta", -7);
        r.set_gauge("namenode", "big", i64::MIN);
        r.observe("jobtracker", "map.duration_ms", 512);
        r.observe("jobtracker", "map.duration_ms", 0);
        let snap = r.snapshot(SimTime(1_000_000));
        let bytes = snap.to_bytes();
        assert_eq!(MetricsSnapshot::from_bytes(&bytes).unwrap(), snap);
        // Canonical: same registry, same bytes.
        assert_eq!(r.snapshot(SimTime(1_000_000)).to_bytes(), bytes);
        let empty = MetricsSnapshot::default();
        assert_eq!(MetricsSnapshot::from_bytes(&empty.to_bytes()).unwrap(), empty);
    }

    #[test]
    fn metric_sample_and_value_round_trip() {
        for value in [
            MetricValue::Counter(u64::MAX),
            MetricValue::Counter(0),
            MetricValue::Gauge(-1),
            MetricValue::Gauge(i64::MAX),
            MetricValue::Gauge(i64::MIN),
            MetricValue::Histogram(Box::new(Histogram::new())),
        ] {
            let s = MetricSample { daemon: "d".into(), name: "n".into(), value };
            assert_eq!(MetricSample::from_bytes(&s.to_bytes()).unwrap(), s);
            assert_eq!(MetricValue::from_bytes(&s.value.to_bytes()).unwrap(), s.value);
        }
        assert!(MetricValue::from_bytes(&[9]).is_err());
    }
}
