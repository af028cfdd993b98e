//! Isolated layer replays for the traced run: each layer is driven through
//! its public functions over the same bytes the workload moves, inside a
//! span of its own, so its host time can be set beside the end-to-end
//! number it is supposed to explain.

use std::hint::black_box;

use hl_cluster::event::{EventQueue, TimerWheel};
use hl_cluster::network::ClusterNet;
use hl_cluster::node::ClusterSpec;
use hl_codec::CodecId;
use hl_common::checksum::ChunkedChecksum;
use hl_common::keys::SortableKey;
use hl_common::prelude::*;
use hl_mapreduce::api::{
    Combiner, MapContext, Mapper, ReduceContext, Reducer, SideFiles, TaskScope,
};
use hl_mapreduce::job::Job;
use hl_mapreduce::merge::merge_groups;
use hl_mapreduce::sortbuf::{MapOutput, SortBuffer, SortedRun};
use hl_mapreduce::split::{compute_splits, LineReader};
use hl_mapreduce::MrCluster;

use crate::spans::Tracer;
use crate::workloads::{Layers, MIB};

/// HDFS's `io.bytes.per.checksum`.
const CHECKSUM_CHUNK: usize = 512;

/// Lines the job replay pushes through reader, mapper and sort buffer at a
/// time: small enough that a chunk's records stay cache-resident between
/// stages, large enough that two clock reads per stage are noise.
const REPLAY_CHUNK_LINES: usize = 1024;

/// CRC32 whole-buffer and 512-byte chunked compute+verify over `buffers`.
pub fn checksum(tracer: &mut Tracer, layers: &mut Layers, buffers: &[&[u8]]) {
    let mib = buffers.iter().map(|b| b.len()).sum::<usize>() as f64 / MIB;
    let ((), s) = tracer.timed("common.checksum.crc32", || {
        for data in buffers {
            black_box(Crc32::checksum(black_box(data)));
        }
    });
    layers.set_rate("common.checksum.crc32_mib_s", mib, s);
    let (clean, s) = tracer.timed("common.checksum.chunked", || {
        buffers.iter().all(|data| {
            ChunkedChecksum::compute(black_box(data), CHECKSUM_CHUNK).verify(data).is_none()
        })
    });
    assert!(clean, "fresh checksums must verify");
    layers.set_rate("common.checksum.chunked_mib_s", mib, s);
}

/// `hl-codec` container compress + decompress over `buffers`; also the
/// exact stored/raw ratio the sim clock's I/O savings come from.
pub fn codec(tracer: &mut Tracer, layers: &mut Layers, buffers: &[&[u8]]) -> Result<()> {
    let raw_bytes = buffers.iter().map(|b| b.len()).sum::<usize>();
    if raw_bytes == 0 {
        return Ok(());
    }
    let mib = raw_bytes as f64 / MIB;
    let (packed, s) = tracer.timed("codec.compress", || {
        buffers
            .iter()
            .map(|data| hl_codec::compress_container(CodecId::Hlz, black_box(data)))
            .collect::<Vec<_>>()
    });
    layers.set_rate("codec.compress_mib_s", mib, s);
    let stored_bytes = packed.iter().map(Vec::len).sum::<usize>();
    layers.set("codec.ratio_pct", stored_bytes as f64 * 100.0 / raw_bytes as f64);
    let (raw, s) = tracer.timed("codec.decompress", || {
        packed.iter().map(|p| hl_codec::decompress_container(p)).collect::<Result<Vec<_>>>()
    });
    if raw?.iter().zip(buffers).any(|(got, want)| got != want) {
        return Err(HlError::Internal("codec replay did not round-trip".into()));
    }
    layers.set_rate("codec.decompress_mib_s", mib, s);
    Ok(())
}

/// The DES event core with no payload: a binary-heap `EventQueue` filled
/// and drained, and a `TimerWheel` driven the way heartbeats drive it.
pub fn event_core(tracer: &mut Tracer, layers: &mut Layers, events: u64) {
    // Pseudo-random but fixed deadlines: the queue's cost depends on heap
    // order, and the benchmark's inputs must not vary between runs here.
    let deadline = |i: u64| SimTime(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24);
    let (popped, s) = tracer.timed("cluster.event.queue", || {
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..events {
            q.schedule_at(deadline(i), i);
        }
        let mut n = 0u64;
        while let Some(e) = q.pop() {
            black_box(e);
            n += 1;
        }
        n
    });
    layers.set_rate("cluster.event.queue_events_s", (events + popped) as f64, s);

    let keys = 1024u64.min(events.max(1));
    let rounds = (events / keys).max(1);
    let interval = SimDuration::from_secs(3);
    let (fired, s) = tracer.timed("cluster.event.wheel", || {
        let mut wheel: TimerWheel<u32> = TimerWheel::new(SimDuration::from_millis(300));
        for k in 0..keys {
            let offset = SimDuration::from_micros(k * interval.as_micros() / keys);
            wheel.schedule(u32::try_from(k).unwrap_or(u32::MAX), SimTime(1) + offset);
        }
        let mut fired = 0u64;
        while fired < rounds * keys {
            let Some(due) = wheel.next_due() else { break };
            for k in wheel.pop_due(due) {
                fired += 1;
                wheel.schedule(k, due + interval);
            }
        }
        fired
    });
    // One schedule and one pop per fired timer.
    layers.set_rate("cluster.event.wheel_events_s", (fired * 2) as f64, s);
}

/// The cost model's charge calls: the three `ClusterNet` entry points the
/// DFS and the engine hit per block and per shuffle fetch.
pub fn network_charges(tracer: &mut Tracer, layers: &mut Layers, spec: &ClusterSpec, calls: u64) {
    let nodes = u64::try_from(spec.num_nodes()).unwrap_or(1).max(1);
    let node = |i: u64| NodeId(u32::try_from(i % nodes).unwrap_or(0));
    let ((), s) = tracer.timed("cluster.network.charges", || {
        let mut net = ClusterNet::new(spec);
        for i in 0..calls / 3 {
            let t = SimTime(i);
            black_box(net.read_local_disk(t, node(i), 65_536));
            black_box(net.transfer(t, node(i), node(i + 1), 65_536));
            black_box(net.write_local_disk(t, node(i + 1), 65_536));
        }
    });
    layers.set_rate("cluster.network.charges_s", (calls / 3 * 3) as f64, s);
}

/// Host seconds each stage of a job's data path took when replayed alone,
/// with the counts needed to turn them into rates.
#[derive(Debug, Default, Clone)]
pub struct JobReplay {
    /// `Dfs::read_block` over every split's block.
    pub read_s: f64,
    /// Stored bytes those reads returned.
    pub read_bytes: u64,
    /// Input decode (`decompress_container`) when the file is codec-framed.
    pub decompress_s: f64,
    /// `LineReader` over every split.
    pub line_reader_s: f64,
    /// Logical input bytes.
    pub input_bytes: u64,
    /// The workload's `Mapper` over the lines.
    pub mapper_s: f64,
    /// Records the mapper emitted.
    pub map_output_records: u64,
    /// `SortBuffer::collect` + `finish` (with the job's combiner, if any).
    pub sortbuf_s: f64,
    /// Map-output compression, when the job asks for it.
    pub compress_s: f64,
    /// `merge_groups` over each reduce's runs.
    pub merge_s: f64,
    /// Records that crossed the merge.
    pub merge_records: u64,
    /// Key/value `Writable` decode of the merged groups.
    pub decode_s: f64,
    /// The workload's `Reducer` over the decoded groups.
    pub reducer_s: f64,
    /// Groups reduced.
    pub groups: u64,
    /// `Dfs::put` of the part files.
    pub put_s: f64,
    /// Part-file bytes written.
    pub output_bytes: u64,
    /// `Writable` encode+decode round trip over the first split's pairs.
    pub roundtrip_s: f64,
    /// Pairs in that round trip.
    pub roundtrip_records: u64,
}

impl JobReplay {
    /// Sum of the stages on the job's data path (the round-trip microbench
    /// is beside the path, not on it).
    pub fn busy_s(&self) -> f64 {
        self.read_s
            + self.decompress_s
            + self.line_reader_s
            + self.mapper_s
            + self.sortbuf_s
            + self.compress_s
            + self.merge_s
            + self.decode_s
            + self.reducer_s
            + self.put_s
    }

    /// Publish the per-layer rates this replay measured.
    pub fn publish(&self, layers: &mut Layers, combiner: bool) {
        let mib = self.input_bytes as f64 / MIB;
        layers.set_rate("mapreduce.split.line_reader_mib_s", mib, self.line_reader_s);
        layers.set_rate("workloads.mapper_rec_s", self.map_output_records as f64, self.mapper_s);
        let sortbuf = if combiner {
            "mapreduce.sortbuf.combine_rec_s"
        } else {
            "mapreduce.sortbuf.collect_rec_s"
        };
        layers.set_rate(sortbuf, self.map_output_records as f64, self.sortbuf_s);
        layers.set_rate("mapreduce.merge.groups_rec_s", self.merge_records as f64, self.merge_s);
        layers.set_rate("workloads.reducer_groups_s", self.groups as f64, self.reducer_s);
        layers.set_rate(
            "common.writable.roundtrip_rec_s",
            self.roundtrip_records as f64,
            self.roundtrip_s,
        );
    }
}

/// Encode every pair the way the sort buffer does, then decode it back.
fn writable_roundtrip<K: SortableKey, V: Writable>(pairs: &[(K, V)]) -> Result<()> {
    let mut arena = Vec::new();
    let mut bounds = Vec::with_capacity(pairs.len());
    for (k, v) in pairs {
        let key_at = arena.len();
        k.encode_ordered(&mut arena);
        let val_at = arena.len();
        v.write(&mut arena);
        bounds.push((key_at, val_at, arena.len()));
    }
    for &(key_at, val_at, end) in &bounds {
        let mut kb = &arena[key_at..val_at];
        black_box(K::decode_ordered(&mut kb)?);
        black_box(V::from_bytes(&arena[val_at..end])?);
    }
    Ok(())
}

/// Replay `job`'s data path stage by stage over its (single) input file on
/// copies of the cluster's DFS and network, so the cluster itself is left
/// as it was. `input` is the file's logical bytes. Times and counts are
/// added to `replay`, so several jobs can be replayed into one ledger.
pub fn replay_job<M, R, C>(
    tracer: &mut Tracer,
    job: &Job<M, R, C>,
    cluster: &MrCluster,
    input: &[u8],
    replay: &mut JobReplay,
) -> Result<()>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
    C: Combiner<K = M::KOut, V = M::VOut>,
{
    let mut dfs = cluster.dfs.clone();
    let mut net = cluster.net.clone();
    let now = cluster.now;
    let disk_bw = cluster.spec.node.disk_bw;
    replay.input_bytes += input.len() as u64;

    let [path] = job.conf.input_paths.as_slice() else {
        return Err(HlError::Internal("layer replay expects one input file".into()));
    };
    let framed = dfs.file_codec(path)? != CodecId::Null;
    let splits = compute_splits(&dfs, &job.conf.input_paths)?;
    let mut outputs: Vec<MapOutput> = Vec::with_capacity(splits.len());
    let mut logical_at = 0usize;
    for (i, split) in splits.iter().enumerate() {
        let reader = split.holders.first().copied();
        let open = tracer.begin("dfs.client.read_block");
        let stored = dfs.read_block(&mut net, now, split.block, reader, &split.path)?.value;
        replay.read_s += tracer.end(open);
        replay.read_bytes += stored.len() as u64;
        let logical_len = if framed {
            let (raw, s) =
                tracer.timed("codec.decompress", || hl_codec::decompress_container(&stored));
            replay.decompress_s += s;
            raw?.len()
        } else {
            stored.len()
        };
        let from = logical_at.min(input.len());
        logical_at += logical_len;
        let prev_byte = from.checked_sub(1).map(|p| input[p]);

        // Line reader -> mapper -> sort buffer, a chunk of lines at a time:
        // the engine streams records through these three, so materialising
        // a whole split between stages would charge each of them cache
        // misses the job never pays.
        let mut reader = LineReader::new(prev_byte, &input[from..], logical_len, split.offset);
        let mut scope = TaskScope::new(SideFiles::new(), disk_bw);
        let mut mapper = (job.mapper)();
        let mut combiner = job.combiner.as_ref().map(|f| f());
        let mut counters = Counters::new();
        let mut buf = SortBuffer::new(job.conf.num_reduces, job.conf.sort_buffer_bytes)
            .with_partitioner(job.partitioner.clone());
        let mut lines: Vec<(u64, String)> = Vec::with_capacity(REPLAY_CHUNK_LINES);
        let mut pairs: Vec<(M::KOut, M::VOut)> = Vec::new();
        let mut first_chunk = true;
        loop {
            lines.clear();
            let ((), s) = tracer.timed("mapreduce.split.line_reader", || {
                lines.extend(reader.by_ref().take(REPLAY_CHUNK_LINES));
            });
            replay.line_reader_s += s;
            let last_chunk = lines.len() < REPLAY_CHUNK_LINES;

            let open = tracer.begin("workloads.mapper");
            {
                let mut ctx = MapContext::new(&mut scope, &mut pairs);
                if std::mem::take(&mut first_chunk) {
                    mapper.setup(&mut ctx);
                }
                for (offset, line) in &lines {
                    mapper.map(*offset, line, &mut ctx);
                }
                if last_chunk {
                    mapper.cleanup(&mut ctx);
                }
            }
            replay.mapper_s += tracer.end(open);
            replay.map_output_records += pairs.len() as u64;

            if i == 0 {
                let (done, s) =
                    tracer.timed("common.writable.roundtrip", || writable_roundtrip(&pairs));
                done?;
                replay.roundtrip_s += s;
                replay.roundtrip_records += pairs.len() as u64;
            }

            let open = tracer.begin("mapreduce.sortbuf");
            for (k, v) in pairs.drain(..) {
                buf.collect(&k, &v, combiner.as_mut(), &mut counters);
            }
            replay.sortbuf_s += tracer.end(open);
            if last_chunk {
                break;
            }
        }
        let (output, s) =
            tracer.timed("mapreduce.sortbuf", || buf.finish(combiner.as_mut(), &mut counters));
        replay.sortbuf_s += s;

        if job.conf.compress_map_output {
            let open = tracer.begin("codec.compress");
            for run in &output.partitions {
                let mut plain = Vec::with_capacity(usize::try_from(run.bytes()).unwrap_or(0));
                for (k, v) in run.iter() {
                    plain.extend_from_slice(k);
                    plain.extend_from_slice(v);
                }
                black_box(hl_codec::compress_container(job.conf.map_output_codec, &plain));
            }
            replay.compress_s += tracer.end(open);
        }
        outputs.push(output);
    }

    let writer = NodeId(0);
    dfs.namenode.mkdirs("/replay")?;
    for r in 0..job.conf.num_reduces {
        let runs: Vec<SortedRun> = outputs.iter().map(|o| o.partitions[r].clone()).collect();
        let (groups, s) =
            tracer.timed("mapreduce.merge.groups", || merge_groups(&runs).collect::<Vec<_>>());
        replay.merge_s += s;

        let open = tracer.begin("common.writable.decode");
        let mut decoded: Vec<(M::KOut, Vec<M::VOut>)> = Vec::with_capacity(groups.len());
        for (key, values) in &groups {
            let mut kb = *key;
            let key = M::KOut::decode_ordered(&mut kb)?;
            let values: Result<Vec<M::VOut>> =
                values.iter().map(|b| M::VOut::from_bytes(b)).collect();
            decoded.push((key, values?));
        }
        replay.decode_s += tracer.end(open);
        drop(groups);
        replay.groups += decoded.len() as u64;
        replay.merge_records += decoded.iter().map(|(_, v)| v.len() as u64).sum::<u64>();

        let mut scope = TaskScope::new(SideFiles::new(), disk_bw);
        let mut lines = Vec::new();
        let open = tracer.begin("workloads.reducer");
        {
            let mut reducer = (job.reducer)();
            let mut ctx = ReduceContext::new(&mut scope, &mut lines);
            reducer.setup(&mut ctx);
            for (key, values) in decoded {
                reducer.reduce(key, values, &mut ctx);
            }
            reducer.cleanup(&mut ctx);
        }
        replay.reducer_s += tracer.end(open);

        if !lines.is_empty() {
            let mut text = lines.join("\n");
            text.push('\n');
            let part = format!("/replay/part-r-{r:05}");
            let open = tracer.begin("dfs.client.put");
            dfs.put(&mut net, now, &part, text.as_bytes(), Some(writer))?;
            replay.put_s += tracer.end(open);
            replay.output_bytes += text.len() as u64;
        }
    }
    Ok(())
}
