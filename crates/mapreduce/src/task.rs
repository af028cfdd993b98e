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
use crate::job::{Job, JobConf};
use crate::merge::merge_groups;
use crate::sortbuf::{MapOutput, SortBuffer, SortedRun};
use crate::split::LineReader;

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
    /// Time the task charged explicitly (side-file reads, `charge_compute`).
    pub extra_time: SimDuration,
}

/// What a finished reduce task hands back to its runner.
pub struct ReduceTaskOutput {
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

/// A job as a runner sees it: its configuration and the one body of its
/// map task and of its reduce task, with the key/value types erased so
/// jobs of different types can share one
/// [`crate::engine::MrCluster::run_jobs`] batch. Implemented by every
/// [`Job`] and by nothing else.
pub trait JobCode {
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
    /// materialize one at a time) and run the reducer for real.
    #[doc(hidden)]
    fn reduce_task(
        &self,
        side: &SideFiles,
        side_read_bw: u64,
        runs: &[SortedRun],
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
    ) -> Result<ReduceTaskOutput> {
        let mut scope = TaskScope::new(side.clone(), side_read_bw);
        let mut lines = Vec::new();
        let mut reducer = (self.reducer)();
        let mut records = 0u64;
        let mut num_groups = 0u64;
        {
            let mut ctx = ReduceContext::new(&mut scope, &mut lines);
            reducer.setup(&mut ctx);
            let mut groups = merge_groups(runs);
            let mut vbytes_list = Vec::new();
            while let Some(kbytes) = groups.next_into(&mut vbytes_list) {
                num_groups += 1;
                let mut ks = kbytes;
                let key = M::KOut::decode_ordered(&mut ks)
                    .map_err(|e| HlError::Codec(format!("reduce key: {e}")))?;
                // Sized up front: collecting `Result`s grows push by push.
                let mut values = Vec::with_capacity(vbytes_list.len());
                for b in &vbytes_list {
                    values.push(M::VOut::from_bytes(b)?);
                }
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
}
