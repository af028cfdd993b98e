//! The user-facing MapReduce programming API.
//!
//! Jobs are typed end-to-end: a [`Mapper`] emits `(KOut, VOut)` pairs whose
//! key implements [`SortableKey`] (so the engine sorts serialized bytes
//! without deserializing — Hadoop's RawComparator trick), a [`Combiner`]
//! optionally folds map output locally, and a [`Reducer`] sees each key
//! once with all its values.
//!
//! Mappers and reducers are *stateful per task* (`&mut self`) with
//! `setup`/`cleanup` hooks — this is what makes both the in-mapper
//! combining pattern from Lin's "Monoidify!" lecture and the cached
//! side-file object from assignment 1 expressible.
//!
//! **The contract on user code.** A task's mapper (with its combiner) or
//! reducer must be a *deterministic function of its input*: the split's
//! records, or the key groups, plus the side files. The cluster engine
//! runs that code **once per task**, on whichever host thread is free, and
//! every *attempt* of the task — a retry after a crashed tracker, a
//! speculative racer, the re-run of a preempted attempt — shares the one
//! result and is only charged for it on the virtual clock. Hadoop makes
//! the same demand (a backup attempt's output must be interchangeable with
//! the primary's); here it is also what keeps a job's output, counters and
//! simulated times independent of how many cores the host has. State kept
//! in `self` between calls is fine; wall-clock reads, unseeded randomness
//! and state shared between tasks are not. A panic in user code is not
//! caught: it comes out of `run_job`.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::str::SplitWhitespace;
use std::sync::Arc;

use hl_common::counters::{Counters, TaskCounter};
use hl_common::keys::SortableKey;
use hl_common::prelude::*;
use hl_common::writable::Writable;

/// A map function over text input (Hadoop's `TextInputFormat`: byte offset
/// + line).
///
/// One instance per map task, run once however many attempts the task
/// takes: it must be a deterministic function of the split's records and
/// the side files (see the module docs).
pub trait Mapper: Send {
    /// Intermediate key type.
    type KOut: SortableKey;
    /// Intermediate value type.
    type VOut: Writable;

    /// Called once per task before any input.
    fn setup(&mut self, _ctx: &mut MapContext<Self::KOut, Self::VOut>) {}

    /// Called once per input record.
    fn map(&mut self, offset: u64, line: &str, ctx: &mut MapContext<Self::KOut, Self::VOut>);

    /// Called once per task after all input.
    fn cleanup(&mut self, _ctx: &mut MapContext<Self::KOut, Self::VOut>) {}
}

/// A reduce function. One instance per reduce task, run once however many
/// attempts the task takes: it must be a deterministic function of its key
/// groups and the side files (see the module docs).
pub trait Reducer: Send {
    /// Intermediate key type (must match the mapper's `KOut`).
    type KIn: SortableKey;
    /// Intermediate value type (must match the mapper's `VOut`).
    type VIn: Writable;

    /// Called once per task before any group.
    fn setup(&mut self, _ctx: &mut ReduceContext) {}

    /// Called once per distinct key with every value for that key.
    fn reduce(&mut self, key: Self::KIn, values: Vec<Self::VIn>, ctx: &mut ReduceContext);

    /// Called once per task after all groups.
    fn cleanup(&mut self, _ctx: &mut ReduceContext) {}
}

/// A local fold of map output — same key/value types in and out, run at
/// every spill and at merge time. Semantically it must be associative and
/// commutative over values ("monoidify!"), and — like the mapper whose
/// task it runs in, once per task — a deterministic function of its input.
pub trait Combiner: Send {
    /// Key type.
    type K: SortableKey;
    /// Value type.
    type V: Writable;

    /// Fold `values` for `key` into (usually fewer) output values.
    fn combine(&mut self, key: &Self::K, values: Vec<Self::V>, out: &mut Vec<Self::V>);
}

/// Side files a task may read (the movie-genre / song-album lookup files).
///
/// Bytes are preloaded by the engine; every `read` *charges* virtual time
/// as if the file were re-read from storage, so the naive
/// read-inside-`map()` pattern costs what it cost the students.
#[derive(Debug, Clone, Default)]
pub struct SideFiles {
    files: BTreeMap<String, Arc<Vec<u8>>>,
}

impl SideFiles {
    /// No side files.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a side file's bytes under its path.
    pub fn insert(&mut self, path: &str, bytes: Vec<u8>) {
        self.files.insert(path.to_string(), Arc::new(bytes));
    }

    /// Paths registered.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.files.keys().map(String::as_str)
    }

    fn get(&self, path: &str) -> Result<Arc<Vec<u8>>> {
        self.files
            .get(path)
            .cloned()
            .ok_or_else(|| HlError::FileNotFound(format!("side file {path}")))
    }
}

/// Per-access open cost of a side file: the NameNode RPC + DataNode
/// connection setup a 2013 HDFS open paid. This, multiplied by millions of
/// records, is what turned the naive read-inside-`map()` pattern into
/// hours.
const SIDE_ACCESS_LATENCY: SimDuration = SimDuration::from_millis(2);

/// I/O accounting shared by both contexts: counters plus the *extra*
/// virtual CPU/IO time the task incurred beyond the engine's base charges
/// (side-file reads, declared per-record compute).
#[derive(Debug, Default)]
pub struct TaskScope {
    /// Task-local counters, merged into the job on completion.
    pub counters: Counters,
    /// Extra virtual time accrued by explicit charges.
    pub extra_time: SimDuration,
    side: SideFiles,
    /// Bandwidth used to charge side-file reads (the node's disk).
    pub side_read_bw: u64,
}

impl TaskScope {
    /// New scope over the given side files.
    pub fn new(side: SideFiles, side_read_bw: u64) -> Self {
        TaskScope { counters: Counters::new(), extra_time: SimDuration::ZERO, side, side_read_bw }
    }

    /// Read a side file, charging one full pass over it. Calling this from
    /// `map()` per record is the classic assignment-1 mistake; calling it
    /// from `setup()` is the fix.
    pub fn read_side_file(&mut self, path: &str) -> Result<Arc<Vec<u8>>> {
        let bytes = self.side.get(path)?;
        self.extra_time += SIDE_ACCESS_LATENCY
            + SimDuration::for_transfer(bytes.len() as u64, self.side_read_bw.max(1));
        self.counters.incr("Side Files", "reads", 1);
        self.counters.incr("Side Files", "bytes read", bytes.len() as u64);
        Ok(bytes)
    }
}

/// Context handed to [`Mapper`] methods: collects typed output.
pub struct MapContext<'a, K: SortableKey, V: Writable> {
    /// Counters / side files / charges.
    pub scope: &'a mut TaskScope,
    pub(crate) out: &'a mut dyn MapOutputSink<K, V>,
}

/// A custom partitioner: `(key, ordered key bytes, num_partitions) ->
/// partition`. The default is hash partitioning; range partitioners (the
/// total-order-sort lecture trick) are the classic custom one.
pub type PartitionFn<K> = Arc<dyn Fn(&K, &[u8], usize) -> usize + Send + Sync>;

/// Where map output goes (the sort buffer in the engine, a plain vec in
/// unit tests).
pub trait MapOutputSink<K: SortableKey, V: Writable> {
    /// Accept one pair. The key is borrowed: the sort buffer serializes
    /// it and keeps nothing of the caller's.
    fn collect(&mut self, key: &K, value: V);
}

impl<K: SortableKey, V: Writable> MapOutputSink<K, V> for Vec<(K, V)> {
    fn collect(&mut self, key: &K, value: V) {
        self.push((key.clone(), value));
    }
}

impl<'a, K: SortableKey, V: Writable> MapContext<'a, K, V> {
    /// Build a context over a sink (engine or test).
    pub fn new(scope: &'a mut TaskScope, out: &'a mut dyn MapOutputSink<K, V>) -> Self {
        MapContext { scope, out }
    }

    /// Emit one intermediate pair.
    ///
    /// The key may be owned or borrowed (`&K`): the framework serializes
    /// it into the sort buffer at once and keeps no reference. So a mapper
    /// can hold one key buffer for the whole task, overwrite it per record
    /// and emit `&self.word` — Hadoop's WordCount reuses one `Text` the
    /// same way, because a fresh object per word is an allocation per
    /// record that the job's output does not need.
    pub fn emit(&mut self, key: impl Borrow<K>, value: V) {
        self.scope.counters.incr_task(TaskCounter::MapOutputRecords, 1);
        self.out.collect(key.borrow(), value);
    }

    /// Increment a user counter.
    pub fn incr_counter(&mut self, group: &str, name: &str, delta: u64) {
        self.scope.counters.incr(group, name, delta);
    }

    /// Read a side file (charged; see [`TaskScope::read_side_file`]).
    pub fn read_side_file(&mut self, path: &str) -> Result<Arc<Vec<u8>>> {
        self.scope.read_side_file(path)
    }
}

/// The words of `line`: exactly what [`str::split_whitespace`] yields.
///
/// An ASCII line — every line the corpus generators write — is cut on
/// the six ASCII `White_Space` bytes (`\t \n \x0B \x0C \r` and space)
/// without decoding a character; `split_ascii_whitespace` would not do,
/// as it keeps `\x0B` inside words. Any other line goes through
/// `split_whitespace`.
pub fn words(line: &str) -> impl Iterator<Item = &str> {
    if line.is_ascii() {
        Words::Ascii(line)
    } else {
        Words::Unicode(line.split_whitespace())
    }
}

/// [`words`]' iterator: the ASCII rest of the line still to cut, or the
/// standard splitter.
enum Words<'a> {
    Ascii(&'a str),
    Unicode(SplitWhitespace<'a>),
}

/// `White_Space` within ASCII; unlike `u8::is_ascii_whitespace`, it
/// includes `\x0B`.
fn is_ascii_white_space(b: u8) -> bool {
    matches!(b, b'\t' | b'\n' | 0x0B | 0x0C | b'\r' | b' ')
}

impl<'a> Iterator for Words<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        match self {
            Words::Unicode(split) => split.next(),
            Words::Ascii(rest) => {
                let bytes = rest.as_bytes();
                let Some(start) = bytes.iter().position(|&b| !is_ascii_white_space(b)) else {
                    *rest = "";
                    return None;
                };
                let end = bytes[start..]
                    .iter()
                    .position(|&b| is_ascii_white_space(b))
                    .map_or(bytes.len(), |n| start + n);
                let word = &rest[start..end];
                *rest = &rest[end..];
                Some(word)
            }
        }
    }
}

/// Context handed to [`Reducer`] methods: collects final text output
/// (Hadoop's `TextOutputFormat`: `key \t value` lines).
pub struct ReduceContext<'a> {
    /// Counters / side files / charges.
    pub scope: &'a mut TaskScope,
    pub(crate) lines: &'a mut Vec<String>,
}

impl<'a> ReduceContext<'a> {
    /// Build a context writing lines into `lines`.
    pub fn new(scope: &'a mut TaskScope, lines: &'a mut Vec<String>) -> Self {
        ReduceContext { scope, lines }
    }

    /// Emit one output record as `key \t value`.
    pub fn emit(&mut self, key: impl std::fmt::Display, value: impl std::fmt::Display) {
        self.scope.counters.incr_task(TaskCounter::ReduceOutputRecords, 1);
        self.lines.push(format!("{key}\t{value}"));
    }

    /// Increment a user counter.
    pub fn incr_counter(&mut self, group: &str, name: &str, delta: u64) {
        self.scope.counters.incr(group, name, delta);
    }

    /// Read a side file (charged).
    pub fn read_side_file(&mut self, path: &str) -> Result<Arc<Vec<u8>>> {
        self.scope.read_side_file(path)
    }
}

/// The identity combiner — useful default when none is configured.
pub struct NoCombiner<K, V>(std::marker::PhantomData<fn() -> (K, V)>);

impl<K, V> Default for NoCombiner<K, V> {
    fn default() -> Self {
        NoCombiner(std::marker::PhantomData)
    }
}

impl<K: SortableKey + Send, V: Writable + Send> Combiner for NoCombiner<K, V> {
    type K = K;
    type V = V;
    fn combine(&mut self, _key: &K, values: Vec<V>, out: &mut Vec<V>) {
        out.extend(values);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TokenCounter;
    impl Mapper for TokenCounter {
        type KOut = String;
        type VOut = u64;
        fn map(&mut self, _off: u64, line: &str, ctx: &mut MapContext<String, u64>) {
            for tok in line.split_whitespace() {
                ctx.emit(tok.to_string(), 1);
            }
        }
    }

    #[test]
    fn mapper_emits_through_context() {
        let mut scope = TaskScope::new(SideFiles::new(), 1);
        let mut sink: Vec<(String, u64)> = Vec::new();
        let mut ctx = MapContext::new(&mut scope, &mut sink);
        TokenCounter.map(0, "a b a", &mut ctx);
        assert_eq!(sink, vec![("a".into(), 1), ("b".into(), 1), ("a".into(), 1)]);
        assert_eq!(scope.counters.task(TaskCounter::MapOutputRecords), 3);
    }

    #[test]
    fn side_file_reads_are_charged_per_call() {
        let mut side = SideFiles::new();
        side.insert("/cache/movies.dat", vec![0u8; 1_000_000]);
        let mut scope = TaskScope::new(side, 1_000_000); // 1 MB/s
        let per_read = SIDE_ACCESS_LATENCY + SimDuration::from_secs(1);
        scope.read_side_file("/cache/movies.dat").unwrap();
        assert_eq!(scope.extra_time, per_read);
        scope.read_side_file("/cache/movies.dat").unwrap();
        assert_eq!(scope.extra_time, per_read * 2, "naive re-reads stack up");
        assert_eq!(scope.counters.get("Side Files", "reads"), 2);
        assert!(scope.read_side_file("/missing").is_err());
    }

    #[test]
    fn reduce_context_formats_text_output() {
        let mut scope = TaskScope::new(SideFiles::new(), 1);
        let mut lines = Vec::new();
        let mut ctx = ReduceContext::new(&mut scope, &mut lines);
        ctx.emit("UA", 12.5);
        ctx.emit("DL", -3);
        assert_eq!(lines, vec!["UA\t12.5", "DL\t-3"]);
        assert_eq!(scope.counters.task(TaskCounter::ReduceOutputRecords), 2);
    }

    #[test]
    fn no_combiner_passes_values_through() {
        let mut c: NoCombiner<String, u64> = NoCombiner::default();
        let mut out = Vec::new();
        c.combine(&"k".to_string(), vec![1, 2, 3], &mut out);
        assert_eq!(out, vec![1, 2, 3]);
    }

    /// Characters around the edges of `White_Space`: the six ASCII ones,
    /// the ASCII controls that are not (`\x1C`–`\x1F`), and non-ASCII
    /// spaces, a non-space (U+200B) and letters.
    const EDGES: [char; 18] = [
        '\t', '\n', '\x0B', '\x0C', '\r', ' ', '\x1C', '\x1D', '\x1E', '\x1F', '\u{85}', '\u{A0}',
        '\u{1680}', '\u{2028}', '\u{3000}', '\u{200B}', '\u{e9}', '\u{4E2D}',
    ];

    /// A line of letters and `EDGES`, from `(edge?, index)` picks; with
    /// `ascii_only`, its non-ASCII characters dropped.
    fn line(ascii_only: bool, picks: &[(bool, usize)]) -> String {
        let pick = |&(edge, i): &(bool, usize)| match edge {
            true => EDGES[i % EDGES.len()],
            false => char::from(b'a' + (i % 26) as u8),
        };
        picks.iter().map(pick).filter(|c| !ascii_only || c.is_ascii()).collect()
    }

    #[test]
    fn words_cut_where_split_whitespace_cuts() {
        // `\x0B` is White_Space; std's ASCII splitter keeps it in a word.
        assert_eq!(words("a\x0Bb").collect::<Vec<_>>(), ["a", "b"]);
        assert_eq!("a\x0Bb".split_ascii_whitespace().count(), 1);
    }

    proptest::proptest! {
        #[test]
        fn prop_words_equal_split_whitespace(
            picks in proptest::collection::vec((proptest::any::<bool>(), 0usize..1000), 0..48),
            ascii_only: bool,
        ) {
            let text = line(ascii_only, &picks);
            let got: Vec<&str> = words(&text).collect();
            let want: Vec<&str> = text.split_whitespace().collect();
            proptest::prop_assert_eq!(got, want, "{:?}", text);
        }
    }
}
