//! Job and file-system counters.
//!
//! The course's combiner lecture has students read the **final MapReduce job
//! report** to see reduced network traffic, and the JobTracker "web UI" to
//! see increased map time — both of which are rendered from counters. This
//! module reproduces Hadoop's counter model: named counters in named
//! groups, merged upward from task → job.

use std::collections::BTreeMap;
use std::fmt;

/// Well-known task counters (Hadoop's `Task Counters` group).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TaskCounter {
    /// Records read by mappers.
    MapInputRecords,
    /// Records emitted by mappers (pre-combine).
    MapOutputRecords,
    /// Serialized bytes of map output (post-combine).
    MapOutputBytes,
    /// Records fed into combiner invocations.
    CombineInputRecords,
    /// Records the combiner emitted.
    CombineOutputRecords,
    /// Distinct keys seen by reducers.
    ReduceInputGroups,
    /// Values seen by reducers.
    ReduceInputRecords,
    /// Records reducers emitted.
    ReduceOutputRecords,
    /// Bytes fetched by reducers in the shuffle.
    ReduceShuffleBytes,
    /// Records written by spill passes (map side).
    SpilledRecords,
}

impl TaskCounter {
    /// Every variant, in declaration order: `ALL[c as usize] == c`.
    const ALL: [TaskCounter; 10] = [
        TaskCounter::MapInputRecords,
        TaskCounter::MapOutputRecords,
        TaskCounter::MapOutputBytes,
        TaskCounter::CombineInputRecords,
        TaskCounter::CombineOutputRecords,
        TaskCounter::ReduceInputGroups,
        TaskCounter::ReduceInputRecords,
        TaskCounter::ReduceOutputRecords,
        TaskCounter::ReduceShuffleBytes,
        TaskCounter::SpilledRecords,
    ];

    /// Display name matching the Hadoop job report.
    pub fn name(self) -> &'static str {
        match self {
            TaskCounter::MapInputRecords => "Map input records",
            TaskCounter::MapOutputRecords => "Map output records",
            TaskCounter::MapOutputBytes => "Map output bytes",
            TaskCounter::CombineInputRecords => "Combine input records",
            TaskCounter::CombineOutputRecords => "Combine output records",
            TaskCounter::ReduceInputGroups => "Reduce input groups",
            TaskCounter::ReduceInputRecords => "Reduce input records",
            TaskCounter::ReduceOutputRecords => "Reduce output records",
            TaskCounter::ReduceShuffleBytes => "Reduce shuffle bytes",
            TaskCounter::SpilledRecords => "Spilled Records",
        }
    }
}

/// Well-known file-system counters (Hadoop's `FileSystemCounters` group).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FileSystemCounter {
    /// Bytes read from HDFS (map input).
    HdfsBytesRead,
    /// Bytes written to HDFS (reduce output).
    HdfsBytesWritten,
    /// Bytes read from node-local files (spill merges).
    FileBytesRead,
    /// Bytes written to node-local files (spills).
    FileBytesWritten,
    /// Bytes that crossed a rack boundary — the quantity data locality
    /// minimizes (not a stock Hadoop counter; added for the Figure 1/2
    /// experiments).
    RemoteBytesRead,
}

impl FileSystemCounter {
    /// Every variant, in declaration order: `ALL[c as usize] == c`.
    const ALL: [FileSystemCounter; 5] = [
        FileSystemCounter::HdfsBytesRead,
        FileSystemCounter::HdfsBytesWritten,
        FileSystemCounter::FileBytesRead,
        FileSystemCounter::FileBytesWritten,
        FileSystemCounter::RemoteBytesRead,
    ];

    /// Display name matching the Hadoop job report.
    pub fn name(self) -> &'static str {
        match self {
            FileSystemCounter::HdfsBytesRead => "HDFS_BYTES_READ",
            FileSystemCounter::HdfsBytesWritten => "HDFS_BYTES_WRITTEN",
            FileSystemCounter::FileBytesRead => "FILE_BYTES_READ",
            FileSystemCounter::FileBytesWritten => "FILE_BYTES_WRITTEN",
            FileSystemCounter::RemoteBytesRead => "REMOTE_BYTES_READ",
        }
    }
}

const TASK_GROUP: &str = "Map-Reduce Framework";
const FS_GROUP: &str = "FileSystemCounters";

/// A `(group, counter)` pair of strings that names a well-known counter.
enum WellKnown {
    Task(TaskCounter),
    Fs(FileSystemCounter),
}

impl WellKnown {
    /// The well-known counter the string API means, if it means one. An
    /// unknown name inside a well-known group is a user counter.
    fn find(group: &str, counter: &str) -> Option<WellKnown> {
        match group {
            TASK_GROUP => {
                TaskCounter::ALL.into_iter().find(|c| c.name() == counter).map(WellKnown::Task)
            }
            FS_GROUP => {
                FileSystemCounter::ALL.into_iter().find(|c| c.name() == counter).map(WellKnown::Fs)
            }
            _ => None,
        }
    }
}

/// A two-level `group → counter → u64` map with merge semantics.
///
/// The two well-known groups are fixed arrays indexed by their enum, so the
/// framework's per-record and per-task bumps are one array operation;
/// `None` is a counter that was never registered, `Some(0)` one that was
/// [touched](Counters::touch_task). Everything else — user groups, and unknown
/// names inside the two well-known groups — lives in the string map. A
/// well-known `(group, name)` is only ever held in its slot, whichever API
/// wrote it, and the map never holds an empty group, so the derived `==`
/// compares what the report would print.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    task: [Option<u64>; TaskCounter::ALL.len()],
    fs: [Option<u64>; FileSystemCounter::ALL.len()],
    user: BTreeMap<String, BTreeMap<String, u64>>,
}

impl Counters {
    /// Empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to a counter in an arbitrary group (user counters, the
    /// Hadoop `Reporter.incrCounter` path).
    pub fn incr(&mut self, group: &str, counter: &str, delta: u64) {
        match WellKnown::find(group, counter) {
            Some(WellKnown::Task(c)) => self.incr_task(c, delta),
            Some(WellKnown::Fs(c)) => self.incr_fs(c, delta),
            None => *self.user_entry(group, counter) += delta,
        }
    }

    /// Add to a well-known task counter.
    #[inline]
    pub fn incr_task(&mut self, c: TaskCounter, delta: u64) {
        *self.task[c as usize].get_or_insert(0) += delta;
    }

    /// Add to a well-known file-system counter.
    #[inline]
    pub fn incr_fs(&mut self, c: FileSystemCounter, delta: u64) {
        *self.fs[c as usize].get_or_insert(0) += delta;
    }

    /// Register a well-known task counter at 0 without changing its
    /// value. Hadoop's job report prints every registered counter even
    /// when it never fired; call this at task setup for counters the
    /// report must always show.
    pub fn touch_task(&mut self, c: TaskCounter) {
        self.task[c as usize].get_or_insert(0);
    }

    /// The string map's entry for a counter that is not well-known,
    /// registered at 0 if new. Allocates only then.
    fn user_entry(&mut self, group: &str, counter: &str) -> &mut u64 {
        // `entry` wants owned keys; probe first so a counter that exists
        // costs no `String`.
        if !self.user.get(group).is_some_and(|g| g.contains_key(counter)) {
            self.user.entry(group.to_string()).or_default().insert(counter.to_string(), 0);
        }
        self.user.get_mut(group).and_then(|g| g.get_mut(counter)).expect("registered above")
    }

    /// Read any counter (0 when never incremented).
    pub fn get(&self, group: &str, counter: &str) -> u64 {
        match WellKnown::find(group, counter) {
            Some(WellKnown::Task(c)) => self.task(c),
            Some(WellKnown::Fs(c)) => self.fs(c),
            None => self.user.get(group).and_then(|g| g.get(counter)).copied().unwrap_or(0),
        }
    }

    /// Read a well-known task counter.
    #[inline]
    pub fn task(&self, c: TaskCounter) -> u64 {
        self.task[c as usize].unwrap_or(0)
    }

    /// Read a well-known file-system counter.
    #[inline]
    pub fn fs(&self, c: FileSystemCounter) -> u64 {
        self.fs[c as usize].unwrap_or(0)
    }

    /// Merge another counter set into this one (summing), the task→job
    /// aggregation step.
    pub fn merge(&mut self, other: &Counters) {
        merge_slots(&mut self.task, &other.task);
        merge_slots(&mut self.fs, &other.fs);
        for (group, counters) in &other.user {
            for (name, value) in counters {
                *self.user_entry(group, name) += value;
            }
        }
    }

    /// Iterate `(group, counter, value)` in display order: groups by name,
    /// counters by name inside their group.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, u64)> {
        self.rows().into_iter()
    }

    /// What [`Counters::iter`] yields and `Display` prints.
    fn rows(&self) -> Vec<(&str, &str, u64)> {
        let task = TaskCounter::ALL
            .into_iter()
            .zip(self.task)
            .filter_map(|(c, v)| Some((TASK_GROUP, c.name(), v?)));
        let fs = FileSystemCounter::ALL
            .into_iter()
            .zip(self.fs)
            .filter_map(|(c, v)| Some((FS_GROUP, c.name(), v?)));
        let user = self
            .user
            .iter()
            .flat_map(|(g, cs)| cs.iter().map(move |(c, v)| (g.as_str(), c.as_str(), *v)));
        let mut rows: Vec<(&str, &str, u64)> = task.chain(fs).chain(user).collect();
        // No `(group, counter)` repeats, so this is one total order: the
        // order one nested map keyed by the same strings would walk.
        rows.sort_unstable_by_key(|&(g, c, _)| (g, c));
        rows
    }

    /// True when nothing has been counted.
    pub fn is_empty(&self) -> bool {
        self.user.is_empty() && self.task.iter().chain(&self.fs).all(Option::is_none)
    }
}

/// Sum `theirs` into `mine`, slot by slot; a slot they never registered
/// leaves mine as it is.
fn merge_slots(mine: &mut [Option<u64>], theirs: &[Option<u64>]) {
    for (mine, theirs) in mine.iter_mut().zip(theirs) {
        if let Some(v) = theirs {
            *mine.get_or_insert(0) += v;
        }
    }
}

impl fmt::Display for Counters {
    /// Renders like the tail of a `hadoop jar` run:
    ///
    /// ```text
    /// Counters: 5
    ///   Map-Reduce Framework
    ///     Map input records=1000
    /// ```
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows = self.rows();
        writeln!(f, "Counters: {}", rows.len())?;
        let mut current = None;
        for (group, name, value) in rows {
            if current != Some(group) {
                writeln!(f, "  {group}")?;
                current = Some(group);
            }
            writeln!(f, "    {name}={value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn incr_and_get() {
        let mut c = Counters::new();
        assert_eq!(c.task(TaskCounter::MapInputRecords), 0);
        c.incr_task(TaskCounter::MapInputRecords, 10);
        c.incr_task(TaskCounter::MapInputRecords, 5);
        assert_eq!(c.task(TaskCounter::MapInputRecords), 15);
        c.incr_fs(FileSystemCounter::HdfsBytesRead, 4096);
        assert_eq!(c.fs(FileSystemCounter::HdfsBytesRead), 4096);
        c.incr("My Group", "widgets", 2);
        assert_eq!(c.get("My Group", "widgets"), 2);
    }

    #[test]
    fn touch_registers_zero_without_incrementing() {
        let mut c = Counters::new();
        assert!(c.is_empty());
        c.touch_task(TaskCounter::MapOutputBytes);
        assert!(!c.is_empty());
        assert_eq!(c.task(TaskCounter::MapOutputBytes), 0);
        assert!(c.to_string().contains("    Map output bytes=0\n"));
        // Touching an existing counter must not disturb its value.
        c.incr_task(TaskCounter::MapOutputBytes, 9);
        c.touch_task(TaskCounter::MapOutputBytes);
        assert_eq!(c.task(TaskCounter::MapOutputBytes), 9);
    }

    #[test]
    fn merge_sums_across_groups() {
        let mut a = Counters::new();
        a.incr_task(TaskCounter::MapOutputBytes, 100);
        a.incr("G", "x", 1);
        let mut b = Counters::new();
        b.incr_task(TaskCounter::MapOutputBytes, 50);
        b.incr("G", "y", 7);
        a.merge(&b);
        assert_eq!(a.task(TaskCounter::MapOutputBytes), 150);
        assert_eq!(a.get("G", "x"), 1);
        assert_eq!(a.get("G", "y"), 7);
    }

    #[test]
    fn display_matches_job_report_shape() {
        let mut c = Counters::new();
        c.incr_task(TaskCounter::MapInputRecords, 1000);
        c.incr_fs(FileSystemCounter::HdfsBytesRead, 64);
        let text = c.to_string();
        assert!(text.starts_with("Counters: 2\n"));
        assert!(text.contains("  Map-Reduce Framework\n"));
        assert!(text.contains("    Map input records=1000\n"));
        assert!(text.contains("    HDFS_BYTES_READ=64\n"));
    }

    #[test]
    fn iter_is_deterministic() {
        let mut c = Counters::new();
        c.incr("B", "b", 2);
        c.incr("A", "a", 1);
        let items: Vec<_> = c.iter().collect();
        assert_eq!(items, vec![("A", "a", 1), ("B", "b", 2)]);
    }

    /// The nested-map `Counters` this module had before the well-known
    /// groups became array slots, kept as the model the slots must match.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    struct MapCounters {
        groups: BTreeMap<String, BTreeMap<String, u64>>,
    }

    impl MapCounters {
        fn incr(&mut self, group: &str, counter: &str, delta: u64) {
            *self
                .groups
                .entry(group.to_string())
                .or_default()
                .entry(counter.to_string())
                .or_default() += delta;
        }

        fn touch(&mut self, group: &str, counter: &str) {
            self.groups
                .entry(group.to_string())
                .or_default()
                .entry(counter.to_string())
                .or_default();
        }

        fn get(&self, group: &str, counter: &str) -> u64 {
            self.groups.get(group).and_then(|g| g.get(counter)).copied().unwrap_or(0)
        }

        fn merge(&mut self, other: &MapCounters) {
            for (group, counters) in &other.groups {
                let g = self.groups.entry(group.clone()).or_default();
                for (name, value) in counters {
                    *g.entry(name.clone()).or_default() += value;
                }
            }
        }

        fn iter(&self) -> impl Iterator<Item = (&str, &str, u64)> {
            self.groups
                .iter()
                .flat_map(|(g, cs)| cs.iter().map(move |(c, v)| (g.as_str(), c.as_str(), *v)))
        }

        fn is_empty(&self) -> bool {
            self.groups.is_empty()
        }
    }

    impl fmt::Display for MapCounters {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let total: usize = self.groups.values().map(|g| g.len()).sum();
            writeln!(f, "Counters: {total}")?;
            for (group, counters) in &self.groups {
                writeln!(f, "  {group}")?;
                for (name, value) in counters {
                    writeln!(f, "    {name}={value}")?;
                }
            }
            Ok(())
        }
    }

    /// Groups on both sides of, and between, the two well-known ones.
    const GROUPS: [&str; 5] = ["A", FS_GROUP, "G", TASK_GROUP, "Z"];

    /// Every well-known name (each is an unknown name in the *other*
    /// well-known group) plus names that sort before, between and after
    /// them, and a prefix and an extension of a well-known name.
    fn names() -> Vec<&'static str> {
        let mut names = vec!["", "Aardvark", "Map output", "Map output records ", "N", "zz"];
        names.extend(TaskCounter::ALL.map(TaskCounter::name));
        names.extend(FileSystemCounter::ALL.map(FileSystemCounter::name));
        names
    }

    #[derive(Debug, Clone)]
    enum Op {
        Incr(usize, usize, u64),
        IncrTask(usize, u64),
        IncrFs(usize, u64),
        TouchTask(usize),
        /// Merge the other side's counters into this side's.
        Merge,
    }

    fn op() -> impl Strategy<Value = Op> {
        let (g, n) = (0..GROUPS.len(), 0..names().len());
        prop_oneof![
            4 => (g, n, 0u64..1000).prop_map(|(g, n, d)| Op::Incr(g, n, d)),
            2 => (0..TaskCounter::ALL.len(), 0u64..1000).prop_map(|(c, d)| Op::IncrTask(c, d)),
            2 => (0..FileSystemCounter::ALL.len(), 0u64..1000).prop_map(|(c, d)| Op::IncrFs(c, d)),
            1 => (0..TaskCounter::ALL.len()).prop_map(Op::TouchTask),
            1 => Just(Op::Merge),
        ]
    }

    fn assert_agree(new: &Counters, model: &MapCounters) {
        assert_eq!(new.iter().collect::<Vec<_>>(), model.iter().collect::<Vec<_>>());
        assert_eq!(new.to_string(), model.to_string());
        assert_eq!(new.is_empty(), model.is_empty());
        for g in GROUPS {
            for n in names() {
                assert_eq!(new.get(g, n), model.get(g, n), "get({g:?}, {n:?})");
            }
        }
        for c in TaskCounter::ALL {
            assert_eq!(new.task(c), model.get(TASK_GROUP, c.name()), "{c:?}");
        }
        for c in FileSystemCounter::ALL {
            assert_eq!(new.fs(c), model.get(FS_GROUP, c.name()), "{c:?}");
        }
    }

    proptest! {
        /// Two counter sets, each kept as slots and as the nested map,
        /// driven by the same operations: they agree after every step, and
        /// the two sets are `==` as slots exactly when they are as maps.
        #[test]
        fn prop_slots_match_the_nested_map_model(
            ops in proptest::collection::vec((any::<bool>(), op()), 0..60),
        ) {
            let names = names();
            let mut new = [Counters::new(), Counters::new()];
            let mut model = [MapCounters::default(), MapCounters::default()];
            for (side, op) in ops {
                let (me, other) = (usize::from(side), usize::from(!side));
                match op {
                    Op::Incr(g, n, d) => {
                        new[me].incr(GROUPS[g], names[n], d);
                        model[me].incr(GROUPS[g], names[n], d);
                    }
                    Op::IncrTask(c, d) => {
                        new[me].incr_task(TaskCounter::ALL[c], d);
                        model[me].incr(TASK_GROUP, TaskCounter::ALL[c].name(), d);
                    }
                    Op::IncrFs(c, d) => {
                        new[me].incr_fs(FileSystemCounter::ALL[c], d);
                        model[me].incr(FS_GROUP, FileSystemCounter::ALL[c].name(), d);
                    }
                    Op::TouchTask(c) => {
                        new[me].touch_task(TaskCounter::ALL[c]);
                        model[me].touch(TASK_GROUP, TaskCounter::ALL[c].name());
                    }
                    Op::Merge => {
                        let (theirs, their_model) = (new[other].clone(), model[other].clone());
                        new[me].merge(&theirs);
                        model[me].merge(&their_model);
                    }
                }
                assert_agree(&new[me], &model[me]);
                prop_assert_eq!(new[0] == new[1], model[0] == model[1]);
            }
        }
    }

    #[test]
    fn all_lists_every_variant_at_its_own_index() {
        for (i, c) in TaskCounter::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i);
        }
        for (i, c) in FileSystemCounter::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i);
        }
    }
}
