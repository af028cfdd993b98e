//! The host pool changes how fast a write or a read runs on the host and
//! nothing else.
//!
//! The part of a write that is a function of its bytes alone — copying
//! and checksumming blocks in `put`, compressing frames in
//! `put_compressed` — may run on `hl_common::pool`'s threads, and so may
//! that of a read: verifying a replica's checksums, decoding runs of
//! frames, copying blocks into the file's buffer. Everything with
//! simulated state stays on the caller's. So the same write with one
//! worker (no thread at all), two and five must leave the same bytes on
//! the same DataNodes, the same journal and image, the same instant on
//! the clock and the same metrics; and the same read must hand back the
//! same bytes at the same instant, with the same metrics and the same
//! network charges.
//!
//! CI runs this file a second time under `taskset -c 0`; the forced
//! worker counts start their threads there too, on one CPU.

use hl_cluster::network::ClusterNet;
use hl_cluster::node::ClusterSpec;
use hl_codec::CodecId;
use hl_common::config::keys;
use hl_common::hash::fnv1a;
use hl_common::pool::{Pool, MIN_BYTES};
use hl_common::prelude::*;
use hl_common::writable::Writable;
use hl_dfs::block::BlockPayload;
use hl_dfs::{Dfs, PipelineFault};
use hl_metrics::MetricsRegistry;

const BLOCK: usize = 96 * 1024;
const FRAME: usize = hl_codec::FRAME_RAW_CHUNK;

/// Text-like bytes the codec shrinks.
fn compressible(n: usize) -> Vec<u8> {
    const WORDS: [&str; 8] =
        ["block", "replica", "namenode", "lease", "frame", "rack", "of", "the"];
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut out = Vec::with_capacity(n + 16);
    while out.len() < n {
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        out.extend_from_slice(WORDS[(state >> 61) as usize].as_bytes());
        out.push(if state & 0xF000 == 0 { b'\n' } else { b' ' });
    }
    out.truncate(n);
    out
}

/// Bytes the codec cannot shrink: every frame falls back to stored.
fn incompressible(n: usize) -> Vec<u8> {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 56) as u8
        })
        .collect()
}

/// One replica on one DataNode.
#[derive(Debug, PartialEq, Eq)]
struct Replica {
    id: u64,
    gen_stamp: u64,
    bytes_hash: u64,
    crcs: Vec<u32>,
}

/// Everything a write leaves behind, as comparable values.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    /// `completed_at` in µs, or the error's text.
    finished: std::result::Result<u64, String>,
    /// What every DataNode holds, in id order.
    replicas: Vec<(NodeId, Vec<Replica>)>,
    /// The file's blocks: id, length, holders.
    blocks: Vec<(u64, u64, Vec<NodeId>)>,
    image: Vec<u8>,
    journal: Vec<u8>,
    metrics_hash: u64,
    /// What `read` hands back, when the file closed.
    read_back: Option<Vec<u8>>,
}

/// One write of `data` to a fresh DFS whose writes run on `workers`
/// threads, with `fault` armed, and everything it left behind.
fn write(workers: usize, data: &[u8], codec: CodecId, fault: Option<PipelineFault>) -> Outcome {
    let spec = ClusterSpec::course_hadoop(5);
    let mut config = Configuration::with_defaults();
    config.set(keys::DFS_BLOCK_SIZE, BLOCK as u64);
    // A checkpoint inside every multi-block write: the image is compared too.
    config.set(keys::DFS_CHECKPOINT_OPS, 3u64);
    let mut dfs = Dfs::format(&config, &spec).unwrap();
    dfs.force_host_workers(workers);
    let mut net = ClusterNet::new(&spec);
    dfs.namenode.mkdirs("/w").unwrap();
    if let Some(fault) = fault {
        dfs.arm_pipeline_fault(fault);
    }
    let put = dfs.put_compressed(&mut net, SimTime::ZERO, "/w/f", data, Some(NodeId(1)), codec);
    let done = put.as_ref().map_or(SimTime::ZERO, |t| t.completed_at);
    let replicas = dfs
        .datanode_ids()
        .into_iter()
        .map(|node| {
            let dn = dfs.datanode(node).unwrap();
            let held = dn
                .block_report()
                .iter()
                .map(|meta| match dn.payload(meta.id) {
                    Some(BlockPayload::Real { data, checksums }) => {
                        assert_eq!(data.len() as u64, meta.len);
                        Replica {
                            id: meta.id.0,
                            gen_stamp: meta.gen_stamp,
                            bytes_hash: fnv1a(data),
                            crcs: checksums.crcs.clone(),
                        }
                    }
                    other => panic!("a real write stored {other:?}"),
                })
                .collect();
            (node, held)
        })
        .collect();
    let blocks = dfs
        .file_blocks("/w/f")
        .map(|blocks| blocks.into_iter().map(|(id, len, at)| (id.0, len, at)).collect())
        .unwrap_or_default();
    let read_back = put
        .is_ok()
        .then(|| dfs.read(&mut net, done, "/w/f", Some(NodeId(2))).map(|t| t.value).unwrap());
    Outcome {
        finished: put.map(|t| t.completed_at.as_micros()).map_err(|e| e.to_string()),
        replicas,
        blocks,
        image: dfs.namenode.fsimage_bytes().to_vec(),
        journal: dfs.namenode.editlog.serialize(),
        metrics_hash: fnv1a(&dfs.metrics_snapshot(done).to_bytes()),
        read_back,
    }
}

/// The write with one worker, checked against its input, after holding
/// the two- and five-worker writes to it.
fn same_on_every_pool(data: &[u8], codec: CodecId, fault: Option<PipelineFault>) -> Outcome {
    let inline = write(1, data, codec, fault);
    for workers in [2, 5] {
        assert_eq!(write(workers, data, codec, fault), inline, "{workers} workers");
    }
    if let Some(read) = &inline.read_back {
        assert!(read == data, "the file reads back as written");
    }
    inline
}

#[test]
fn plain_writes_are_the_same_on_every_pool() {
    let data = compressible(5 * BLOCK + 1);
    // Empty, one byte, and one byte either side of one block and of four.
    for len in [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 4 * BLOCK - 1, 4 * BLOCK, data.len()] {
        let out = same_on_every_pool(&data[..len], CodecId::Null, None);
        let lens: Vec<u64> = out.blocks.iter().map(|b| b.1).collect();
        let want: Vec<u64> = data[..len].chunks(BLOCK).map(|c| c.len() as u64).collect();
        assert_eq!(lens, want, "len={len}");
        assert!(out.finished.is_ok());
    }
}

#[test]
fn compressed_writes_are_the_same_on_every_pool() {
    // One byte either side of a frame, of a pooled group of sixteen
    // frames, and past two groups, so groups end full, short and empty.
    let text = compressible(33 * FRAME + 1);
    for len in [0, 1, FRAME - 1, FRAME, FRAME + 1, 16 * FRAME - 1, 16 * FRAME, 16 * FRAME + 1] {
        let out = same_on_every_pool(&text[..len], CodecId::Hlz, None);
        let stored: u64 = out.blocks.iter().map(|b| b.1).sum();
        assert!(len < 64 || stored < len as u64 / 2, "len={len} stored={stored}");
    }
    let out = same_on_every_pool(&text, CodecId::Hlz, None);
    assert!(out.blocks.len() > 2 && out.blocks.iter().all(|b| b.1 <= BLOCK as u64));

    // Stored-frame fallback: every frame is its chunk plus a header, so a
    // block takes one full frame and cuts before the next (the 17-byte
    // frame rides with the fifth).
    let noise = incompressible(5 * FRAME + 17);
    let out = same_on_every_pool(&noise, CodecId::Hlz, None);
    assert_eq!(out.blocks.len(), 5);
    assert!(out.blocks.iter().map(|b| b.1).sum::<u64>() > noise.len() as u64);
}

#[test]
fn faulted_writes_are_the_same_on_every_pool() {
    let data = compressible(6 * BLOCK + 100);
    for fault in [
        PipelineFault::KillTarget { after_stores: 4 },
        PipelineFault::SlowAck { after_stores: 7 },
        PipelineFault::CrashWriter { after_blocks: 2 },
    ] {
        for codec in [CodecId::Null, CodecId::Hlz] {
            // Long enough under the codec that block 2 exists to crash on.
            let data = if codec == CodecId::Hlz { compressible(17 * FRAME) } else { data.clone() };
            let out = same_on_every_pool(&data, codec, Some(fault));
            let crashed = matches!(fault, PipelineFault::CrashWriter { .. });
            assert_eq!(out.finished.is_err(), crashed, "{fault:?} {codec}");
            // A recovered pipeline leaves the excluded node a stale replica:
            // one block held under two generation stamps.
            let held: Vec<(u64, u64)> = out
                .replicas
                .iter()
                .flat_map(|(_, held)| held.iter().map(|r| (r.id, r.gen_stamp)))
                .collect();
            let recovered = held.iter().any(|a| held.iter().any(|b| a.0 == b.0 && a.1 != b.1));
            assert_eq!(recovered, !crashed, "{fault:?} {codec}: a recovery leaves a stale replica");
        }
    }
}

#[test]
fn a_write_under_the_floor_takes_the_inline_path() {
    // The gate `Dfs` asks before every write, on a host with cores to
    // spare: `small-jobs` stages 64 KiB inputs and writes smaller part
    // files, as one block or as sixteen, and none of them starts a thread.
    let host = Pool::host();
    for blocks in [1, 2, 16] {
        assert!(!host.pays(blocks, 64 * 1024), "a 64 KiB put in {blocks} block(s)");
        assert!(!host.pays(blocks, MIN_BYTES.saturating_sub(1)));
    }
    assert!(!host.pays(1, 1 << 30), "one block has nothing to share");
}

/// What one read left behind, as comparable values.
#[derive(Debug, PartialEq, Eq)]
struct ReadOutcome {
    /// Blocks the file was stored in.
    blocks: usize,
    /// The bytes and `completed_at` in µs, or the error's text.
    got: std::result::Result<(Vec<u8>, u64), String>,
    metrics_hash: u64,
    /// Every pipe's and disk's charges, as the network exports them.
    net_hash: u64,
    remote_bytes: u64,
    late_charges: u64,
    corrupt_replicas: u64,
}

/// `data` written with `codec` in blocks of `block` bytes, with one worker,
/// then read back from `NodeId(2)` by a client on `workers` threads; with
/// `rot`, the reader's own replica of the first block is corrupt first.
fn read(workers: usize, data: &[u8], codec: CodecId, block: u64, rot: bool) -> ReadOutcome {
    let spec = ClusterSpec::course_hadoop(5);
    let mut config = Configuration::with_defaults();
    config.set(keys::DFS_BLOCK_SIZE, block);
    let mut dfs = Dfs::format(&config, &spec).unwrap();
    dfs.force_host_workers(1);
    let mut net = ClusterNet::new(&spec);
    dfs.namenode.mkdirs("/r").unwrap();
    let put = dfs.put_compressed(&mut net, SimTime::ZERO, "/r/f", data, None, codec).unwrap();
    let mut reader = NodeId(2);
    let blocks = dfs.file_blocks("/r/f").unwrap();
    if rot {
        let (id, _, holders) = blocks[0].clone();
        reader = holders[0];
        assert!(dfs.datanode_mut(reader).unwrap().corrupt_block(id, 4_000));
    }
    dfs.force_host_workers(workers);
    let got = dfs.read(&mut net, put.completed_at, "/r/f", Some(reader));
    let done = got.as_ref().map_or(put.completed_at, |t| t.completed_at);
    let snapshot = dfs.metrics_snapshot(done);
    let mut charges = MetricsRegistry::new();
    net.export_metrics(done, &mut charges);
    ReadOutcome {
        blocks: blocks.len(),
        got: got.map(|t| (t.value, t.completed_at.as_micros())).map_err(|e| e.to_string()),
        metrics_hash: fnv1a(&snapshot.to_bytes()),
        net_hash: fnv1a(&charges.snapshot(done).to_bytes()),
        remote_bytes: net.remote_bytes(),
        late_charges: net.late_charges(),
        corrupt_replicas: snapshot.counter("dfs.client", "read.corrupt_replicas"),
    }
}

/// The read on one worker, checked against what was written, after
/// holding the two- and five-worker reads to it.
fn read_the_same_on_every_pool(data: &[u8], codec: CodecId, block: u64, rot: bool) -> ReadOutcome {
    let inline = read(1, data, codec, block, rot);
    for workers in [2, 5] {
        let pooled = read(workers, data, codec, block, rot);
        assert!(pooled == inline, "{workers} workers, {codec}, {} bytes, rot {rot}", data.len());
    }
    let (bytes, _) = inline.got.as_ref().expect("the file reads back");
    assert!(bytes == data, "the file reads back as written");
    assert_eq!(inline.late_charges, 0);
    assert_eq!(inline.corrupt_replicas, u64::from(rot));
    inline
}

#[test]
fn reads_are_the_same_on_every_pool() {
    let text = compressible(40 * FRAME + 7);
    let noise = incompressible(5 * FRAME + 17);
    for rot in [false, true] {
        // One block of many frame runs: two runs of sixteen frames and a
        // short one.
        let out = read_the_same_on_every_pool(&text, CodecId::Hlz, 8 << 20, rot);
        assert_eq!(out.blocks, 1);
        // Many blocks, plain and framed.
        let plain = &text[..6 * BLOCK + 100];
        assert_eq!(read_the_same_on_every_pool(plain, CodecId::Null, BLOCK as u64, rot).blocks, 7);
        assert!(read_the_same_on_every_pool(&text, CodecId::Hlz, BLOCK as u64, rot).blocks > 2);
        // Every frame stored: one a block, the 17-byte one riding along.
        assert_eq!(read_the_same_on_every_pool(&noise, CodecId::Hlz, BLOCK as u64, rot).blocks, 5);
    }
    // One plain block, verified in runs of chunks and copied in pieces.
    let out = read_the_same_on_every_pool(&text[..2 * BLOCK], CodecId::Null, 8 << 20, true);
    assert_eq!(out.blocks, 1);
}
