//! The fsimage: a serialized checkpoint of everything the NameNode must
//! recover after a restart.
//!
//! Real HDFS persists the namespace to `fsimage` and merges the edit log
//! into it at checkpoints (the secondary NameNode's whole job); a
//! restarting NameNode loads the image and replays only the edit-log
//! *tail* written since, instead of every op from genesis. This module is
//! that file format: namespace tree, block map (lengths, replication
//! targets, generation stamps — never locations, those only ever come from
//! block reports), allocation high-water marks, and the lease table.

use hl_common::prelude::*;
use hl_common::writable::{read_vu64, write_vu64, Writable};

use crate::block::BlockId;
use crate::lease::Lease;
use crate::namespace::Namespace;

/// One block's checkpointed metadata. Locations are deliberately absent:
/// HDFS never persists them — the DataNodes are the source of truth and
/// re-report after every restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRecord {
    /// Block identity.
    pub id: BlockId,
    /// Length in bytes.
    pub len: u64,
    /// Target replica count at checkpoint time.
    pub expected_replication: u32,
    /// Generation stamp at checkpoint time.
    pub gen_stamp: u64,
}

impl Writable for BlockRecord {
    fn write(&self, buf: &mut Vec<u8>) {
        write_vu64(self.id.0, buf);
        write_vu64(self.len, buf);
        write_vu64(u64::from(self.expected_replication), buf);
        write_vu64(self.gen_stamp, buf);
    }

    fn read(buf: &mut &[u8]) -> Result<Self> {
        Ok(BlockRecord {
            id: BlockId(read_vu64(buf)?),
            len: read_vu64(buf)?,
            expected_replication: u32::try_from(read_vu64(buf)?)
                .map_err(|_| HlError::Codec("block replication overflows u32".into()))?,
            gen_stamp: read_vu64(buf)?,
        })
    }
}

/// A checkpoint of the NameNode's recoverable state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsImage {
    /// The namespace tree.
    pub namespace: Namespace,
    /// The block map, id-ordered.
    pub blocks: Vec<BlockRecord>,
    /// Next block id to allocate.
    pub next_block_id: u64,
    /// Next generation stamp to hand out.
    pub next_gen_stamp: u64,
    /// Outstanding write leases, path-ordered.
    pub leases: Vec<Lease>,
}

impl Writable for FsImage {
    fn write(&self, buf: &mut Vec<u8>) {
        self.namespace.write(buf);
        write_vu64(self.next_block_id, buf);
        write_vu64(self.next_gen_stamp, buf);
        self.leases.write(buf);
        self.blocks.write(buf);
    }

    fn read(buf: &mut &[u8]) -> Result<Self> {
        Ok(FsImage {
            namespace: Namespace::read(buf)?,
            next_block_id: read_vu64(buf)?,
            next_gen_stamp: read_vu64(buf)?,
            leases: Vec::<Lease>::read(buf)?,
            blocks: Vec::<BlockRecord>::read(buf)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::FIRST_GEN_STAMP;
    use crate::lease::LeaseState;

    #[test]
    fn fsimage_round_trips() {
        // Empty image (a freshly formatted NameNode's first checkpoint).
        let empty = FsImage::default();
        assert_eq!(FsImage::from_bytes(&empty.to_bytes()).unwrap(), empty);

        // Populated image: namespace + blocks + leases.
        let mut ns = Namespace::new();
        ns.mkdirs("/data").unwrap();
        ns.create_file("/data/f", 3, 64, SimTime(5)).unwrap();
        ns.append_block("/data/f", BlockId(1), 64).unwrap();
        ns.create_file("/data/open", 2, 128, SimTime(9)).unwrap();
        ns.complete_file("/data/f").unwrap();
        let image = FsImage {
            namespace: ns,
            blocks: vec![
                BlockRecord {
                    id: BlockId(1),
                    len: 64,
                    expected_replication: 3,
                    gen_stamp: FIRST_GEN_STAMP,
                },
                BlockRecord { id: BlockId(2), len: 10, expected_replication: 2, gen_stamp: 1007 },
            ],
            next_block_id: 3,
            next_gen_stamp: 1008,
            leases: vec![Lease {
                path: "/data/open".into(),
                holder: "DFSClient@node1".into(),
                renewed_at: SimTime(9),
                state: LeaseState::Active,
            }],
        };
        let bytes = image.to_bytes();
        assert_eq!(FsImage::from_bytes(&bytes).unwrap(), image);
        let record = image.blocks[1];
        assert_eq!(BlockRecord::from_bytes(&record.to_bytes()).unwrap(), record);

        // Truncation anywhere is a codec error, not a partial image.
        assert!(FsImage::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(BlockRecord::from_bytes(&[0x80]).is_err());
    }
}
