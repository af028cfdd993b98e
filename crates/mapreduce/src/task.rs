//! The one body of a map task and the one body of a reduce task.
//!
//! The course runs *the same jars* twice — serially with no HDFS, then on
//! the cluster — and so does this crate: [`crate::local::LocalRunner`] and
//! [`crate::engine::MrCluster`] both run user code through the two
//! functions of [`JobCode`], so "local ≡ cluster" holds by construction.
//! The callers keep what differs: how input bytes arrive (a local slice vs
//! a charged, stitched, decoded DFS block), the file-system counters that
//! bumps, and every virtual-time charge.
//!
//! On the cluster a task is split in two. Its **body** ([`MapBody`],
//! [`ReduceTaskOutput`]) is host work and a pure function of the job and the
//! task's bytes: split assembly, input decode, the user code, map-output
//! framing. Its **attempts** are everything that touches the simulated
//! cluster, and live in the engine. A body runs once per task, when its
//! phase opens (on the host pool when that pays) — or, for a map whose
//! blocks could not be peeked then, at its first attempt's read — and
//! every attempt (retry, speculative racer, preempted re-run) charges for
//! the same result.

use std::borrow::Cow;

use bytes::Bytes;
use hl_codec::CodecId;
use hl_common::counters::{Counters, TaskCounter};
use hl_common::keys::SortableKey;
use hl_common::prelude::*;
use hl_common::writable::Writable;
use hl_dfs::client::{Dfs, LocatedBlock};
use hl_dfs::BlockId;

use crate::api::{
    Combiner, MapContext, MapOutputSink, Mapper, ReduceContext, Reducer, SideFiles, TaskScope,
};
use crate::job::{Job, JobConf};
use crate::merge::{decode_key, merge_groups};
use crate::sortbuf::{MapOutput, SortBuffer, SortedRun};
use crate::split::{InputSplit, LineReader};

/// What a finished map task hands back to its runner.
pub struct MapTaskOutput {
    /// Sorted, partitioned (and combined) map output.
    pub output: MapOutput,
    /// Framework, user and side-file counters; no file-system counters.
    pub counters: Counters,
    /// Input records (lines) the mapper saw.
    pub records: u64,
    /// Sort-buffer high-water mark.
    pub peak_buffered: usize,
    /// Time the task charged explicitly (side-file reads).
    pub extra_time: SimDuration,
}

/// What a finished reduce task hands back to its runner: on the cluster,
/// a reduce task's body.
pub struct ReduceTaskOutput {
    /// The part file's bytes: one `key \t value` line per output record,
    /// each ended by `\n`; empty when the reducer emitted nothing (no file
    /// is written) or its records went to the runner's lines.
    pub text: String,
    /// Framework, user and side-file counters; no file-system counters.
    pub counters: Counters,
    /// Values the reducer consumed.
    pub records: u64,
    /// Time the task charged explicitly (side-file reads).
    pub extra_time: SimDuration,
}

/// The map side's collector: every `emit` lands in the spill pipeline,
/// with the job's combiner run at each spill.
struct SpillSink<K: SortableKey, V: Writable, C: Combiner<K = K, V = V>> {
    buf: SortBuffer<K, V>,
    combiner: Option<C>,
    counters: Counters,
}

impl<K: SortableKey, V: Writable, C: Combiner<K = K, V = V>> MapOutputSink<K, V>
    for SpillSink<K, V, C>
{
    fn collect(&mut self, key: &K, value: V) {
        self.buf.collect(key, &value, self.combiner.as_mut(), &mut self.counters);
    }
}

/// A job as a runner sees it: its configuration and the one body of its
/// map task and of its reduce task, with the key/value types erased so
/// jobs of different types can share one
/// [`crate::engine::MrCluster::run_jobs`] batch. Implemented by every
/// [`Job`] and by nothing else. `Sync`, because a phase's bodies run on
/// several host threads at once (each with its own mapper, combiner and
/// reducer from the job's factories).
pub trait JobCode: Sync {
    /// The job's configuration.
    fn conf(&self) -> &JobConf;

    /// Run the mapper for real over one split: `data` starts at the split's
    /// first byte (file offset `offset`) and extends past `split_len` far
    /// enough to finish the last line; `prev_byte` is the byte before the
    /// split, which decides whether the first partial line is ours.
    #[doc(hidden)]
    fn map_task(
        &self,
        side: &SideFiles,
        side_read_bw: u64,
        prev_byte: Option<u8>,
        data: &[u8],
        split_len: usize,
        offset: u64,
    ) -> MapTaskOutput;

    /// Merge + group this reduce's sorted runs (streaming — groups
    /// materialize one at a time) and run the reducer for real. Its
    /// records are pushed onto `lines`, one `String` each, or, with
    /// `None`, written into the output's part-file `text`.
    #[doc(hidden)]
    fn reduce_task(
        &self,
        side: &SideFiles,
        side_read_bw: u64,
        runs: &[SortedRun],
        lines: Option<&mut Vec<String>>,
    ) -> Result<ReduceTaskOutput>;
}

impl<M, R, C> JobCode for Job<M, R, C>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
    C: Combiner<K = M::KOut, V = M::VOut>,
{
    fn conf(&self) -> &JobConf {
        &self.conf
    }

    fn map_task(
        &self,
        side: &SideFiles,
        side_read_bw: u64,
        prev_byte: Option<u8>,
        data: &[u8],
        split_len: usize,
        offset: u64,
    ) -> MapTaskOutput {
        let mut scope = TaskScope::new(side.clone(), side_read_bw);
        // Register always-reported counters up front so the job report
        // shows the group even for empty map output.
        let mut sink_counters = Counters::new();
        sink_counters.touch_task(TaskCounter::MapOutputBytes);
        let mut sink: SpillSink<M::KOut, M::VOut, C> = SpillSink {
            buf: SortBuffer::new(self.conf.num_reduces, self.conf.sort_buffer_bytes)
                .with_partitioner(self.partitioner.clone()),
            combiner: self.combiner.as_ref().map(|f| f()),
            counters: sink_counters,
        };
        let mut mapper = (self.mapper)();
        let mut records = 0u64;
        {
            let mut ctx = MapContext::new(&mut scope, &mut sink);
            mapper.setup(&mut ctx);
            let mut reader = LineReader::new(prev_byte, data, split_len, offset);
            while let Some((off, line)) = reader.next_line() {
                records += 1;
                mapper.map(off, &line, &mut ctx);
            }
            mapper.cleanup(&mut ctx);
        }
        let peak_buffered = sink.buf.peak_buffered;
        let mut counters = sink.counters;
        let output = {
            let mut combiner = sink.combiner;
            sink.buf.finish(combiner.as_mut(), &mut counters)
        };
        counters.merge(&scope.counters);
        counters.incr_task(TaskCounter::MapInputRecords, records);
        counters.incr_task(TaskCounter::MapOutputBytes, output.total_bytes());
        MapTaskOutput { output, counters, records, peak_buffered, extra_time: scope.extra_time }
    }

    fn reduce_task(
        &self,
        side: &SideFiles,
        side_read_bw: u64,
        runs: &[SortedRun],
        lines: Option<&mut Vec<String>>,
    ) -> Result<ReduceTaskOutput> {
        let mut scope = TaskScope::new(side.clone(), side_read_bw);
        let mut text = String::new();
        let mut reducer = (self.reducer)();
        let mut records = 0u64;
        let mut num_groups = 0u64;
        {
            let mut ctx = match lines {
                Some(lines) => ReduceContext::new(&mut scope, lines),
                None => ReduceContext::to_text(&mut scope, &mut text),
            };
            reducer.setup(&mut ctx);
            let mut groups = merge_groups(runs);
            // One key and one value buffer for the whole task, refilled
            // per group: a group allocates only what outgrows them.
            let mut vbytes_list = Vec::new();
            let mut key: Option<M::KOut> = None;
            let mut values = Vec::new();
            while let Some(kbytes) = groups.next_into(&mut vbytes_list) {
                num_groups += 1;
                let key = decode_key(&mut key, kbytes)
                    .map_err(|e| HlError::Codec(format!("reduce key: {e}")))?;
                // Every value is decoded before the reducer sees the group,
                // so a bad one fails the task, not the reducer mid-stream.
                for b in &vbytes_list {
                    values.push(M::VOut::from_bytes(b)?);
                }
                records += values.len() as u64;
                reducer.reduce(&*key, values.drain(..), &mut ctx);
            }
            reducer.cleanup(&mut ctx);
        }
        let mut counters = Counters::new();
        counters.incr_task(TaskCounter::ReduceInputGroups, num_groups);
        counters.merge(&scope.counters);
        counters.incr_task(TaskCounter::ReduceInputRecords, records);
        Ok(ReduceTaskOutput { text, counters, records, extra_time: scope.extra_time })
    }
}

/// A stored block's logical bytes: a plain file's blocks are their own
/// bytes; a file with a codec holds whole hl-codec frames per block (the
/// writer cuts blocks on frame boundaries), so a block decodes on its own.
pub(crate) fn logical_bytes(codec: CodecId, stored: &[u8]) -> Result<Cow<'_, [u8]>> {
    if codec == CodecId::Null {
        Ok(Cow::Borrowed(stored))
    } else {
        hl_codec::decompress_container(stored).map(Cow::Owned)
    }
}

/// A map task's input, assembled: what [`JobCode::map_task`] reads.
pub(crate) struct SplitInput {
    prev_byte: Option<u8>,
    /// The split's logical bytes, then enough of what follows to finish
    /// its last line.
    data: Vec<u8>,
    logical_len: usize,
    neighbours: Vec<BlockId>,
}

/// Stitch the boundary lines onto a split's own logical bytes `own`: the
/// previous block's last byte decides whether our first partial line is
/// ours; the following block(s) finish our last line. `fetch` is how a
/// neighbour's stored bytes arrive — peeked when the phase opens, peeked
/// or (charged) read from inside an attempt — and is asked for the same
/// blocks in the same order either way.
///
/// [`LineReader`] never reads past the first newline at or after the
/// split's end, so of the following blocks only the bytes through their
/// first newline are kept — a line, not a block — and the split's buffer
/// is allocated once, at its final size.
pub(crate) fn stitch_split(
    split: &InputSplit,
    codec: CodecId,
    file_blocks: &[LocatedBlock],
    own: &[u8],
    mut fetch: impl FnMut(BlockId) -> Result<Bytes>,
) -> Result<SplitInput> {
    let my_pos = file_blocks
        .iter()
        .position(|(b, _, _)| *b == split.block)
        .ok_or_else(|| HlError::Internal("split block vanished".into()))?;
    let mut neighbours = Vec::new();
    let mut stored = |block: BlockId| {
        neighbours.push(block);
        fetch(block)
    };
    let prev_byte = match my_pos.checked_sub(1) {
        None => None,
        Some(prev) => logical_bytes(codec, &stored(file_blocks[prev].0)?)?.last().copied(),
    };
    let mut tail = Vec::new();
    let mut next = my_pos + 1;
    while tail.last() != Some(&b'\n') && next < file_blocks.len() {
        let block = stored(file_blocks[next].0)?;
        let bytes = logical_bytes(codec, &block)?;
        let end = bytes.iter().position(|&b| b == b'\n').map_or(bytes.len(), |i| i + 1);
        tail.extend_from_slice(&bytes[..end]);
        next += 1;
    }
    let mut data = Vec::with_capacity(own.len() + tail.len());
    data.extend_from_slice(own);
    data.extend_from_slice(&tail);
    Ok(SplitInput { prev_byte, data, logical_len: own.len(), neighbours })
}

/// What a map task computes, wherever, whenever and however often the
/// clock says it ran.
pub(crate) struct MapBody {
    /// The split's logical extent (decoded length for compressed input,
    /// the stored block length otherwise): what input decode and parsing
    /// are priced on.
    pub logical_len: usize,
    /// The neighbouring blocks the boundary lines came from, in the order
    /// an attempt reads them.
    pub neighbours: Vec<BlockId>,
    /// The mapper's result; with `compress_map_output` its output is
    /// already framed (`wire_bytes` set, spill bytes at the framed ratio).
    pub done: MapTaskOutput,
    /// `(raw, framed)` map-output bytes when the output was compressed.
    pub framed: Option<(u64, u64)>,
}

/// Run the mapper for real over an assembled split and frame its output.
pub(crate) fn map_body(
    job: &dyn JobCode,
    side: &SideFiles,
    side_read_bw: u64,
    offset: u64,
    input: SplitInput,
) -> MapBody {
    let SplitInput { prev_byte, data, logical_len, neighbours } = input;
    let mut done = job.map_task(side, side_read_bw, prev_byte, &data, logical_len, offset);
    // Map-output compression: pack each partition's run into hl-codec
    // frames. The sorted records themselves are untouched — job output
    // stays byte-identical — but the spill-disk and shuffle-wire charges
    // shrink to the framed sizes, paid for with compress CPU at the map
    // and decompress CPU at each reducer.
    let conf = job.conf();
    let framed = conf.compress_map_output.then(|| {
        let output = &mut done.output;
        let raw = output.total_bytes();
        let mut flat = Vec::new();
        let wire: Vec<u64> = output
            .partitions
            .iter()
            .map(|run| {
                let records = run.record_bytes(&mut flat);
                hl_codec::compress_container(conf.map_output_codec, records).len() as u64
            })
            .collect();
        let packed: u64 = wire.iter().sum();
        // Spills hit the disk already framed; charge the credit at the
        // whole-output compression ratio (no-op on empty output).
        let scale = |bytes: u64| bytes.saturating_mul(packed).checked_div(raw).unwrap_or(bytes);
        output.spill_bytes_written = scale(output.spill_bytes_written);
        output.spill_bytes_read = scale(output.spill_bytes_read);
        output.wire_bytes = Some(wire);
        (raw, packed)
    });
    MapBody { logical_len, neighbours, done, framed }
}

/// A map body, as its phase opens, from what can be seen without charging
/// anyone: every block peeked from a clean live replica. `None` when one
/// cannot be (or does not decode) — then the task's first attempt
/// assembles the split through its charged reads, which fail or recover
/// as they always have: the one body computed at an attempt.
pub(crate) fn peek_map_body(
    dfs: &Dfs,
    job: &dyn JobCode,
    side: &SideFiles,
    side_read_bw: u64,
    split: &InputSplit,
) -> Option<MapBody> {
    let codec = dfs.file_codec(&split.path).ok()?;
    let stored = dfs.peek_block_bytes(split.block)?;
    let blocks = dfs.file_blocks(&split.path).ok()?;
    let peek = |block| {
        dfs.peek_block_bytes(block)
            .ok_or(HlError::MissingBlock { block_id: block.0, path: String::new() })
    };
    // A decoded block is freed before the mapper runs over its copy.
    let input =
        stitch_split(split, codec, &blocks, &logical_bytes(codec, &stored).ok()?, peek).ok()?;
    Some(map_body(job, side, side_read_bw, split.offset, input))
}

/// Merge, group and reduce partition `r` of every map's output for real,
/// straight into the part file's text: what a reduce task computes, apart
/// from where and when it ran.
pub(crate) fn reduce_body(
    job: &dyn JobCode,
    side: &SideFiles,
    side_read_bw: u64,
    maps: &[Option<MapBody>],
    r: usize,
) -> Result<ReduceTaskOutput> {
    // O(1) each: runs are Arc-backed, so this bumps two refcounts and
    // copies no record bytes.
    let runs: Vec<SortedRun> =
        maps.iter().flatten().map(|m| m.done.output.partitions[r].clone()).collect();
    job.reduce_task(side, side_read_bw, &runs, None)
}

#[cfg(test)]
mod tests {
    use std::borrow::Borrow;

    use super::*;
    use crate::local::LocalRunner;

    /// Emits its pairs once, in `setup`, whatever the input: keys and
    /// values no text line could carry.
    struct Emits(Vec<(String, String)>);

    impl Mapper for Emits {
        type KOut = String;
        type VOut = String;
        fn setup(&mut self, ctx: &mut MapContext<String, String>) {
            for (k, v) in self.0.drain(..) {
                ctx.emit(&k, v);
            }
        }
        fn map(&mut self, _offset: u64, _line: &str, _ctx: &mut MapContext<String, String>) {}
    }

    /// One line per value, one per group with the group's size, and a
    /// last line in `cleanup`.
    struct Echo;

    impl Reducer for Echo {
        type KIn = String;
        type VIn = String;
        fn reduce(
            &mut self,
            key: impl Borrow<String>,
            values: impl IntoIterator<Item = String>,
            ctx: &mut ReduceContext,
        ) {
            let key = key.borrow();
            let mut n = 0;
            for v in values {
                ctx.emit(key, v);
                n += 1;
            }
            ctx.emit(format_args!("{key}\n"), n);
        }
        fn cleanup(&mut self, ctx: &mut ReduceContext) {
            ctx.emit("", "");
        }
    }

    /// Tabs, newlines, the empty string and non-ASCII, as pieces.
    const PIECES: [&str; 7] = ["", "\t", "\n", "a", "\u{e9}", "\u{4E2D}", "k v"];

    proptest::proptest! {
        #[test]
        fn the_part_file_text_is_the_local_runners_lines_joined(
            picks in proptest::collection::vec(
                (
                    proptest::collection::vec(0usize..PIECES.len(), 0..4),
                    proptest::collection::vec(0usize..PIECES.len(), 0..4),
                ),
                0..24,
            ),
            reduces in 1usize..4,
        ) {
            let text = |idx: &[usize]| idx.iter().map(|&i| PIECES[i]).collect::<String>();
            let pairs: Vec<(String, String)> =
                picks.iter().map(|(k, v)| (text(k), text(v))).collect();
            let conf = JobConf::new("text-vs-lines").reduces(reduces);
            let job = Job::new(conf, move || Emits(pairs.clone()), || Echo);
            let input = b"one line\n";
            let side = SideFiles::new();

            let local = LocalRunner::serial()
                .run(&job, &[("in".into(), input.to_vec())], &side)
                .unwrap();
            let map = job.map_task(&side, 1, None, input, input.len(), 0);
            let mut written = String::new();
            for r in 0..reduces {
                let runs = [map.output.partitions[r].clone()];
                written.push_str(&job.reduce_task(&side, 1, &runs, None).unwrap().text);
            }
            let mut want = local.output.join("\n");
            want.push('\n');
            proptest::prop_assert_eq!(written, want);
        }
    }
}
