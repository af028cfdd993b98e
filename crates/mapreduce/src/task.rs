//! The one body of a map task and the one body of a reduce task.
//!
//! The course runs *the same jars* twice — serially with no HDFS, then on
//! the cluster — and so does this crate: [`crate::local::LocalRunner`] and
//! [`crate::engine::MrCluster`] both run user code through the two
//! functions here, so "local ≡ cluster" holds by construction. The callers
//! keep what differs: how input bytes arrive (a local slice vs a charged,
//! stitched, decoded DFS block), the file-system counters that bumps, and
//! every virtual-time charge.

use hl_common::counters::{Counters, TaskCounter};
use hl_common::keys::SortableKey;
use hl_common::prelude::*;
use hl_common::writable::Writable;

use crate::api::{
    Combiner, MapContext, MapOutputSink, Mapper, ReduceContext, Reducer, SideFiles, TaskScope,
};
use crate::job::Job;
use crate::merge::merge_groups;
use crate::sortbuf::{MapOutput, SortBuffer, SortedRun};
use crate::split::LineReader;

/// What a finished map task hands back to its runner.
pub(crate) struct MapTaskOutput {
    /// Sorted, partitioned (and combined) map output.
    pub output: MapOutput,
    /// Framework, user and side-file counters; no file-system counters.
    pub counters: Counters,
    /// Input records (lines) the mapper saw.
    pub records: u64,
    /// Sort-buffer high-water mark.
    pub peak_buffered: usize,
    /// Time the task charged explicitly (side-file reads, `charge_compute`).
    pub extra_time: SimDuration,
}

/// What a finished reduce task hands back to its runner.
pub(crate) struct ReduceTaskOutput {
    /// Output lines (`key \t value`), in key order.
    pub lines: Vec<String>,
    /// Framework, user and side-file counters; no file-system counters.
    pub counters: Counters,
    /// Values the reducer consumed.
    pub records: u64,
    /// Time the task charged explicitly (side-file reads, `charge_compute`).
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
    fn collect(&mut self, key: K, value: V) {
        self.buf.collect(&key, &value, self.combiner.as_mut(), &mut self.counters);
    }
}

/// Run the mapper for real over one split: `data` starts at the split's
/// first byte (file offset `offset`) and extends past `split_len` far
/// enough to finish the last line; `prev_byte` is the byte before the
/// split, which decides whether the first partial line is ours.
pub(crate) fn run_map_task<M, R, C>(
    job: &Job<M, R, C>,
    side: &SideFiles,
    side_read_bw: u64,
    prev_byte: Option<u8>,
    data: &[u8],
    split_len: usize,
    offset: u64,
) -> MapTaskOutput
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
    C: Combiner<K = M::KOut, V = M::VOut>,
{
    let mut scope = TaskScope::new(side.clone(), side_read_bw);
    // Register always-reported counters up front so the job report
    // shows the group even for empty map output.
    let mut sink_counters = Counters::new();
    sink_counters.touch_task(TaskCounter::MapOutputBytes);
    let mut sink: SpillSink<M::KOut, M::VOut, C> = SpillSink {
        buf: SortBuffer::new(job.conf.num_reduces, job.conf.sort_buffer_bytes)
            .with_partitioner(job.partitioner.clone()),
        combiner: job.combiner.as_ref().map(|f| f()),
        counters: sink_counters,
    };
    let mut mapper = (job.mapper)();
    let mut records = 0u64;
    {
        let mut ctx = MapContext::new(&mut scope, &mut sink);
        mapper.setup(&mut ctx);
        for (off, line) in LineReader::new(prev_byte, data, split_len, offset) {
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

/// Merge + group this reduce's sorted runs (streaming — groups
/// materialize one at a time) and run the reducer for real.
pub(crate) fn run_reduce_task<M, R, C>(
    job: &Job<M, R, C>,
    side: &SideFiles,
    side_read_bw: u64,
    runs: &[SortedRun],
) -> Result<ReduceTaskOutput>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
    C: Combiner<K = M::KOut, V = M::VOut>,
{
    let mut scope = TaskScope::new(side.clone(), side_read_bw);
    let mut lines = Vec::new();
    let mut reducer = (job.reducer)();
    let mut records = 0u64;
    let mut num_groups = 0u64;
    {
        let mut ctx = ReduceContext::new(&mut scope, &mut lines);
        reducer.setup(&mut ctx);
        for (kbytes, vbytes_list) in merge_groups(runs) {
            num_groups += 1;
            let mut ks = kbytes;
            let key = M::KOut::decode_ordered(&mut ks)
                .map_err(|e| HlError::Codec(format!("reduce key: {e}")))?;
            let values: Result<Vec<M::VOut>> =
                vbytes_list.iter().map(|b| M::VOut::from_bytes(b)).collect();
            let values = values?;
            records += values.len() as u64;
            reducer.reduce(key, values, &mut ctx);
        }
        reducer.cleanup(&mut ctx);
    }
    let mut counters = Counters::new();
    counters.incr_task(TaskCounter::ReduceInputGroups, num_groups);
    counters.merge(&scope.counters);
    counters.incr_task(TaskCounter::ReduceInputRecords, records);
    Ok(ReduceTaskOutput { lines, counters, records, extra_time: scope.extra_time })
}
