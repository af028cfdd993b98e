//! Blocks: the unit HDFS splits every file into.
//!
//! The course's HDFS lecture (Figure 2) shows files decomposed into
//! `blk_xxx` files on the DataNodes' Linux file systems. Here a block is an
//! id plus a payload; payloads are either **real bytes** (checksummed,
//! readable, what tests and workloads use) or **synthetic lengths** (time
//! modeling only, what the 171 GB staging experiment uses).

use bytes::Bytes;

use hl_common::checksum::ChunkedChecksum;
use hl_common::pool::Pool;
use hl_common::prelude::*;
use hl_common::writable::{read_vu64, write_vu64};

/// Globally unique block id, allocated by the NameNode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u64);

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "blk_{}", self.0)
    }
}

/// Bytes-per-checksum, Hadoop's `io.bytes.per.checksum` default.
const BYTES_PER_CHECKSUM: usize = 512;

/// First generation stamp the NameNode hands out, mirroring HDFS's
/// `GenerationStamp.FIRST_VALID_STAMP`. Pipeline recovery bumps allocate
/// strictly increasing stamps above this, so a replica stamped below the
/// NameNode's recorded stamp is provably stale.
pub const FIRST_GEN_STAMP: u64 = 1000;

/// What a DataNode tells the NameNode about one replica in a block report.
///
/// HDFS 1.x block reports carry `(blockId, numBytes, generationStamp)`
/// triples; the generation stamp is how the NameNode spots replicas left
/// behind by a pipeline that recovered without this DataNode (the stamp on
/// disk is older than the stamp the recovered pipeline agreed on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaMeta {
    /// Block identity.
    pub id: BlockId,
    /// Replica length in bytes.
    pub len: u64,
    /// Generation stamp the replica was written under.
    pub gen_stamp: u64,
}

impl Writable for ReplicaMeta {
    fn write(&self, buf: &mut Vec<u8>) {
        write_vu64(self.id.0, buf);
        write_vu64(self.len, buf);
        write_vu64(self.gen_stamp, buf);
    }

    fn read(buf: &mut &[u8]) -> Result<Self> {
        Ok(ReplicaMeta {
            id: BlockId(read_vu64(buf)?),
            len: read_vu64(buf)?,
            gen_stamp: read_vu64(buf)?,
        })
    }
}

/// A delta block report: what changed on a DataNode since its last report.
///
/// HDFS 1.x sends `blockReceived` RPCs plus periodic full reports; at
/// thousands of DataNodes the full reports dominate NameNode CPU, so the
/// scalable protocol ships deltas (received/deleted since last report) and
/// keeps the full report as a periodic anti-entropy sweep. `received`
/// carries full replica metadata (the NameNode needs lengths and stamps);
/// `deleted` needs only ids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IncrementalBlockReport {
    /// Replicas added (or re-stamped) since the last report, id order.
    pub received: Vec<ReplicaMeta>,
    /// Replicas dropped since the last report, id order.
    pub deleted: Vec<BlockId>,
}

impl Writable for IncrementalBlockReport {
    fn write(&self, buf: &mut Vec<u8>) {
        self.received.write(buf);
        write_vu64(self.deleted.len() as u64, buf);
        for id in &self.deleted {
            write_vu64(id.0, buf);
        }
    }

    fn read(buf: &mut &[u8]) -> Result<Self> {
        let received = Vec::<ReplicaMeta>::read(buf)?;
        let n = read_vu64(buf)?;
        let mut deleted = Vec::with_capacity(usize::try_from(n.min(1024)).unwrap_or(0));
        for _ in 0..n {
            deleted.push(BlockId(read_vu64(buf)?));
        }
        Ok(IncrementalBlockReport { received, deleted })
    }
}

/// The contents of a block replica.
#[derive(Debug, Clone)]
pub enum BlockPayload {
    /// Actual data with per-512-byte CRC32s.
    Real {
        /// The block's bytes (cheaply clonable for replication).
        data: Bytes,
        /// Per-chunk CRC32s over `data`.
        checksums: ChunkedChecksum,
    },
    /// A length with no bytes behind it — participates in every time and
    /// replication computation but cannot be read for content.
    Synthetic {
        /// Modeled length in bytes.
        len: u64,
    },
}

impl BlockPayload {
    /// Build a synthetic payload of `len` bytes.
    pub(crate) fn synthetic(len: u64) -> Self {
        BlockPayload::Synthetic { len }
    }

    /// Length in bytes (real or modeled).
    pub(crate) fn len(&self) -> u64 {
        match self {
            BlockPayload::Real { data, .. } => data.len() as u64,
            BlockPayload::Synthetic { len } => *len,
        }
    }

    /// Verify stored checksums; synthetic payloads are vacuously clean.
    /// Returns the first corrupt chunk index if any.
    pub(crate) fn verify(&self) -> Option<usize> {
        match self {
            BlockPayload::Real { data, checksums } => checksums.verify(data),
            BlockPayload::Synthetic { .. } => None,
        }
    }
}

/// A replica as stored on one DataNode.
#[derive(Debug, Clone)]
pub(crate) struct StoredBlock {
    /// Block identity.
    pub id: BlockId,
    /// Contents.
    pub payload: BlockPayload,
    /// Generation stamp this replica was written (or re-stamped) under.
    pub gen_stamp: u64,
}

impl StoredBlock {
    /// Constructor carrying an explicit generation stamp (the write path).
    pub(crate) fn with_gen_stamp(id: BlockId, payload: BlockPayload, gen_stamp: u64) -> Self {
        StoredBlock { id, payload, gen_stamp }
    }

    /// Read the real bytes, verifying checksums first, in runs of chunks
    /// on `pool` when that pays.
    pub(crate) fn read_verified(&self, pool: &Pool) -> Result<Bytes> {
        match &self.payload {
            BlockPayload::Real { data, checksums } => match checksums.verify_on(data, pool) {
                None => Ok(data.clone()),
                Some(chunk) => Err(HlError::ChecksumMismatch {
                    block_id: self.id.0,
                    expected: checksums.crcs[chunk],
                    actual: hl_common::checksum::Crc32::checksum(
                        &data[chunk * BYTES_PER_CHECKSUM
                            ..((chunk + 1) * BYTES_PER_CHECKSUM).min(data.len())],
                    ),
                }),
            },
            BlockPayload::Synthetic { .. } => Err(HlError::Internal(format!(
                "attempted content read of synthetic block {}",
                self.id
            ))),
        }
    }
}

/// Split file contents into block-sized payloads (the DFSClient write
/// path), through [`real_payloads`].
pub(crate) fn split_into_blocks(data: &[u8], block_size: u64, pool: &Pool) -> Vec<BlockPayload> {
    assert!(block_size > 0, "block size must be positive");
    // A block wider than the address space is one chunk.
    let block_size = usize::try_from(block_size).unwrap_or(usize::MAX);
    let blocks: Vec<Vec<&[u8]>> = data.chunks(block_size).map(|block| vec![block]).collect();
    real_payloads(&blocks, pool)
}

/// Real payloads of `blocks`, each its parts back to back. A block's
/// buffer is allocated here at its exact size: one allocated on a worker
/// lands in that thread's `malloc` arena, and what the arenas then keep
/// between writes showed as up to 17 % more resident memory
/// (EXPERIMENTS.md, "DFS byte path"). Filling it and computing its
/// checksums are a function of its parts alone, so they run on `pool`
/// when it pays: block by block for a file of several, the checksums in
/// runs of chunks for a file of one (a block that is already a piece of
/// the pool's work takes its chunks in order on its own thread). The
/// parts are appended to the empty buffer, so no byte is written twice,
/// and the full buffer becomes the block's `Bytes` as it is.
pub(crate) fn real_payloads(blocks: &[Vec<&[u8]>], pool: &Pool) -> Vec<BlockPayload> {
    let lens: Vec<usize> = blocks.iter().map(|parts| parts.iter().map(|p| p.len()).sum()).collect();
    let mut buffers: Vec<Vec<u8>> = lens.iter().map(|&len| Vec::with_capacity(len)).collect();
    let bytes = lens.iter().map(|&len| len as u64).sum();
    let checksums = pool.fill_indexed(
        &mut buffers,
        std::iter::repeat_n(1, blocks.len()),
        bytes,
        |i, buffer| {
            let buffer = &mut buffer[0];
            for part in &blocks[i] {
                buffer.extend_from_slice(part);
            }
            ChunkedChecksum::compute_on(buffer, BYTES_PER_CHECKSUM, pool)
        },
    );
    buffers
        .into_iter()
        .zip(checksums)
        .map(|(data, checksums)| BlockPayload::Real { data: data.into(), checksums })
        .collect()
}

/// Split a synthetic file length into synthetic block payloads.
pub(crate) fn split_synthetic(len: u64, block_size: u64) -> Vec<BlockPayload> {
    assert!(block_size > 0, "block size must be positive");
    let mut blocks = Vec::new();
    let mut remaining = len;
    while remaining > 0 {
        let this = remaining.min(block_size);
        blocks.push(BlockPayload::synthetic(this));
        remaining -= this;
    }
    blocks
}

#[cfg(test)]
impl BlockPayload {
    /// Build a real payload, computing checksums.
    pub(crate) fn real(data: impl Into<Bytes>) -> Self {
        let data = data.into();
        let checksums = ChunkedChecksum::compute(&data, BYTES_PER_CHECKSUM);
        BlockPayload::Real { data, checksums }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_real_respects_block_size() {
        let data = vec![42u8; 300];
        let blocks = split_into_blocks(&data, 128, &Pool::host());
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[0].len(), 128);
        assert_eq!(blocks[1].len(), 128);
        assert_eq!(blocks[2].len(), 44);
        assert!(blocks.iter().all(|b| matches!(b, BlockPayload::Real { .. })));
        assert!(split_into_blocks(&[], 128, &Pool::host()).is_empty());
    }

    #[test]
    fn block_size_above_data_len_is_one_block() {
        let data = vec![7u8; 300];
        for block_size in [301, u64::MAX] {
            let blocks = split_into_blocks(&data, block_size, &Pool::forced(2));
            assert_eq!(blocks.len(), 1);
            assert_eq!(blocks[0].len(), 300);
        }
    }

    #[test]
    fn split_synthetic_matches_lengths() {
        let blocks = split_synthetic(171 * 1024, 64 * 1024);
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks.iter().map(BlockPayload::len).sum::<u64>(), 171 * 1024);
        assert_eq!(blocks[2].len(), 43 * 1024);
        assert!(split_synthetic(0, 64).is_empty());
    }

    #[test]
    fn read_verified_catches_corruption() {
        let block = StoredBlock::with_gen_stamp(
            BlockId(7),
            BlockPayload::real(vec![1u8; 2048]),
            FIRST_GEN_STAMP,
        );
        assert_eq!(block.read_verified(&Pool::host()).unwrap().len(), 2048);

        // Corrupt one byte behind the checksums' back.
        let mut corrupted = block.clone();
        if let BlockPayload::Real { data, .. } = &mut corrupted.payload {
            let mut raw = data.to_vec();
            raw[700] ^= 0xFF;
            *data = Bytes::from(raw);
        }
        match corrupted.read_verified(&Pool::host()) {
            Err(HlError::ChecksumMismatch { block_id: 7, .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn real_payloads_join_each_blocks_parts_on_any_pool() {
        let long: Vec<u8> = (0..300_000u32).map(|i| (i % 253) as u8).collect();
        let blocks: Vec<Vec<&[u8]>> =
            vec![vec![b"ab", &long[..70_000], &[], b"c"], vec![], vec![&long[70_000..]]];
        for pool in [Pool::forced(1), Pool::forced(3)] {
            let payloads = real_payloads(&blocks, &pool);
            assert_eq!(payloads.len(), blocks.len());
            for (payload, parts) in payloads.iter().zip(&blocks) {
                let BlockPayload::Real { data, checksums } = payload else {
                    panic!("a real payload")
                };
                assert!(data[..] == parts.concat()[..], "{pool:?}");
                assert_eq!(*checksums, ChunkedChecksum::compute(data, BYTES_PER_CHECKSUM));
            }
        }
    }

    #[test]
    fn synthetic_blocks_refuse_content_reads() {
        let block = StoredBlock::with_gen_stamp(
            BlockId(1),
            BlockPayload::synthetic(1 << 30),
            FIRST_GEN_STAMP,
        );
        assert!(matches!(block.read_verified(&Pool::host()), Err(HlError::Internal(_))));
        assert_eq!(block.payload.len(), 1 << 30);
        assert!(block.payload.verify().is_none());
    }

    #[test]
    fn display_matches_hdfs_naming() {
        assert_eq!(BlockId(1073741825).to_string(), "blk_1073741825");
    }

    #[test]
    fn replica_meta_round_trips() {
        for meta in [
            ReplicaMeta { id: BlockId(0), len: 0, gen_stamp: FIRST_GEN_STAMP },
            ReplicaMeta { id: BlockId(1073741825), len: 64 * 1024 * 1024, gen_stamp: 1007 },
            ReplicaMeta { id: BlockId(u64::MAX), len: u64::MAX, gen_stamp: u64::MAX },
        ] {
            let bytes = meta.to_bytes();
            assert_eq!(ReplicaMeta::from_bytes(&bytes).unwrap(), meta);
        }
        assert!(ReplicaMeta::from_bytes(&[0x80]).is_err(), "truncated input must error");
    }

    #[test]
    fn incremental_report_round_trips() {
        for ibr in [
            IncrementalBlockReport::default(),
            IncrementalBlockReport {
                received: vec![
                    ReplicaMeta { id: BlockId(3), len: 64, gen_stamp: FIRST_GEN_STAMP },
                    ReplicaMeta { id: BlockId(9), len: 10, gen_stamp: 1007 },
                ],
                deleted: vec![BlockId(1), BlockId(u64::MAX)],
            },
            IncrementalBlockReport { received: Vec::new(), deleted: vec![BlockId(5)] },
        ] {
            let bytes = ibr.to_bytes();
            assert_eq!(IncrementalBlockReport::from_bytes(&bytes).unwrap(), ibr);
        }
        assert!(IncrementalBlockReport::from_bytes(&[0x80]).is_err());
    }
}
