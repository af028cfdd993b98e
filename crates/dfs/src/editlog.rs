//! The NameNode edit log: a replayable journal of namespace mutations.
//!
//! Real HDFS persists every namespace change to the edit log and merges it
//! into the fsimage at checkpoints; the combination is what lets a
//! restarted NameNode rebuild its in-RAM metadata. The course's restart
//! story depends on this existing, so we implement the journal, and
//! [`EditOp::apply`] is the only place that says what a journaled op does:
//! the live RPCs, [`EditLog::replay`] and `NameNode::restart` all go
//! through it.

use std::collections::BTreeMap;

use hl_codec::CodecId;
use hl_common::prelude::*;
use hl_common::writable::{read_vu64, write_vu64, Writable};

use crate::block::BlockId;
use crate::lease::LeaseManager;
use crate::namenode::BlockInfo;
use crate::namespace::Namespace;

/// One journaled namespace mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // field meanings follow the variant docs directly
pub enum EditOp {
    /// `mkdir -p`.
    Mkdirs { path: String },
    /// File creation (timestamp journaled so replay reproduces metadata;
    /// the lease holder journaled so a restarted NameNode can rebuild the
    /// lease table for files still open at the checkpoint tail).
    Create { path: String, replication: u32, block_size: u64, at: SimTime, holder: String },
    /// Block appended to a file, stamped with its initial generation stamp.
    AddBlock { path: String, block: BlockId, len: u64, gen_stamp: u64 },
    /// Writer closed the file.
    Close { path: String },
    /// Deletion (recursive flag recorded for fidelity).
    Delete { path: String, recursive: bool },
    /// Rename.
    Rename { src: String, dst: String },
    /// `hadoop fs -setrep`.
    SetReplication { path: String, replication: u32 },
    /// Pipeline recovery bumped a block's generation stamp; journaled so a
    /// restarted NameNode still knows which replicas are stale.
    BumpGenStamp { block: BlockId, gen_stamp: u64 },
    /// Lease recovery dropped a trailing block no DataNode ever confirmed
    /// (`len` journaled so replay can shrink the file without guessing).
    AbandonBlock { path: String, block: BlockId, len: u64 },
    /// The file's stored bytes are codec-framed; journaled so a restarted
    /// NameNode still knows which files need transparent decode.
    SetCodec { path: String, codec: CodecId },
}

/// The recoverable NameNode state that lives beside the namespace tree:
/// block metadata, the lease table and both allocation marks. Borrowed
/// field by field, so the live NameNode and the state a restart is still
/// building go through the same [`EditOp::apply`].
pub(crate) struct Ledger<'a> {
    pub blocks: &'a mut BTreeMap<BlockId, BlockInfo>,
    pub leases: &'a mut LeaseManager,
    pub next_block_id: &'a mut u64,
    pub next_gen_stamp: &'a mut u64,
}

/// The allocation mark a journaled id or stamp implies: one past it.
fn mark_after(stored: u64) -> Result<u64> {
    stored
        .checked_add(1)
        .ok_or_else(|| HlError::Codec(format!("journaled id {stored} leaves no next id")))
}

impl EditOp {
    /// The one transition: what this op does to the recoverable state.
    /// `ledger` is `None` for a namespace-only replay. Returns the blocks
    /// the op dropped from the ledger, with whatever the NameNode knew of
    /// them, so a live caller can invalidate their replicas. An `Err`
    /// means the op does not fit the state (a corrupt journal, or an RPC
    /// its guards should have refused).
    // Inlined so the namespace-only replay loop sheds the ledger arms.
    #[inline]
    pub(crate) fn apply(
        &self,
        ns: &mut Namespace,
        mut ledger: Option<&mut Ledger<'_>>,
    ) -> Result<Vec<(BlockId, BlockInfo)>> {
        let mut freed = Vec::new();
        match self {
            EditOp::Mkdirs { path } => ns.mkdirs(path)?,
            EditOp::Create { path, replication, block_size, at, holder } => {
                ns.create_file(path, *replication, *block_size, *at)?;
                if let Some(l) = &mut ledger {
                    l.leases.acquire(*at, path, holder);
                }
            }
            EditOp::AddBlock { path, block, len, gen_stamp } => {
                let (next_block_id, next_gen_stamp) =
                    (mark_after(block.0)?, mark_after(*gen_stamp)?);
                let replication = ns.append_block(path, *block, *len)?;
                if let Some(l) = &mut ledger {
                    l.blocks.insert(*block, BlockInfo::unreported(*len, replication, *gen_stamp));
                    *l.next_block_id = next_block_id.max(*l.next_block_id);
                    *l.next_gen_stamp = next_gen_stamp.max(*l.next_gen_stamp);
                }
            }
            EditOp::Close { path } => {
                ns.complete_file(path)?;
                if let Some(l) = &mut ledger {
                    l.leases.release(path);
                }
            }
            EditOp::Delete { path, recursive } => {
                let ids = ns.delete(path, *recursive)?;
                if let Some(l) = &mut ledger {
                    l.leases.release_under(path);
                    freed
                        .extend(ids.into_iter().filter_map(|id| Some((id, l.blocks.remove(&id)?))));
                }
            }
            EditOp::Rename { src, dst } => {
                ns.rename(src, dst)?;
                if let Some(l) = &mut ledger {
                    l.leases.rename(src, dst);
                }
            }
            EditOp::SetReplication { path, replication } => {
                let file = ns.file_mut(path)?;
                file.replication = *replication;
                if let Some(l) = &mut ledger {
                    for id in &file.blocks {
                        if let Some(info) = l.blocks.get_mut(id) {
                            info.expected_replication = *replication;
                        }
                    }
                }
            }
            // Generation stamps live in the block map, not the tree.
            EditOp::BumpGenStamp { block, gen_stamp } => {
                let next_gen_stamp = mark_after(*gen_stamp)?;
                if let Some(l) = &mut ledger {
                    let info = l.blocks.get_mut(block).ok_or_else(|| {
                        HlError::Internal(format!("gen-stamp bump of unknown {block}"))
                    })?;
                    info.gen_stamp = *gen_stamp;
                    *l.next_gen_stamp = next_gen_stamp.max(*l.next_gen_stamp);
                }
            }
            EditOp::AbandonBlock { path, block, len } => {
                ns.abandon_block(path, *block, *len)?;
                if let Some(l) = &mut ledger {
                    freed.extend(l.blocks.remove(block).map(|info| (*block, info)));
                }
            }
            EditOp::SetCodec { path, codec } => ns.file_mut(path)?.codec = *codec,
        }
        Ok(freed)
    }

    fn tag(&self) -> u8 {
        match self {
            EditOp::Mkdirs { .. } => 0,
            EditOp::Create { .. } => 1,
            EditOp::AddBlock { .. } => 2,
            EditOp::Close { .. } => 3,
            EditOp::Delete { .. } => 4,
            EditOp::Rename { .. } => 5,
            EditOp::SetReplication { .. } => 6,
            EditOp::BumpGenStamp { .. } => 7,
            EditOp::AbandonBlock { .. } => 8,
            EditOp::SetCodec { .. } => 9,
        }
    }
}

impl Writable for EditOp {
    fn write(&self, buf: &mut Vec<u8>) {
        buf.push(self.tag());
        match self {
            EditOp::Mkdirs { path } | EditOp::Close { path } => path.write(buf),
            EditOp::Create { path, replication, block_size, at, holder } => {
                path.write(buf);
                replication.write(buf);
                block_size.write(buf);
                write_vu64(at.0, buf);
                holder.write(buf);
            }
            EditOp::AddBlock { path, block, len, gen_stamp } => {
                path.write(buf);
                write_vu64(block.0, buf);
                write_vu64(*len, buf);
                write_vu64(*gen_stamp, buf);
            }
            EditOp::Delete { path, recursive } => {
                path.write(buf);
                recursive.write(buf);
            }
            EditOp::Rename { src, dst } => {
                src.write(buf);
                dst.write(buf);
            }
            EditOp::SetReplication { path, replication } => {
                path.write(buf);
                replication.write(buf);
            }
            EditOp::BumpGenStamp { block, gen_stamp } => {
                write_vu64(block.0, buf);
                write_vu64(*gen_stamp, buf);
            }
            EditOp::AbandonBlock { path, block, len } => {
                path.write(buf);
                write_vu64(block.0, buf);
                write_vu64(*len, buf);
            }
            EditOp::SetCodec { path, codec } => {
                path.write(buf);
                codec.write(buf);
            }
        }
    }

    fn read(buf: &mut &[u8]) -> Result<Self> {
        let tag = u8::read(buf)?;
        Ok(match tag {
            0 => EditOp::Mkdirs { path: String::read(buf)? },
            1 => EditOp::Create {
                path: String::read(buf)?,
                replication: u32::read(buf)?,
                block_size: u64::read(buf)?,
                at: SimTime(read_vu64(buf)?),
                holder: String::read(buf)?,
            },
            2 => EditOp::AddBlock {
                path: String::read(buf)?,
                block: BlockId(read_vu64(buf)?),
                len: read_vu64(buf)?,
                gen_stamp: read_vu64(buf)?,
            },
            3 => EditOp::Close { path: String::read(buf)? },
            4 => EditOp::Delete { path: String::read(buf)?, recursive: bool::read(buf)? },
            5 => EditOp::Rename { src: String::read(buf)?, dst: String::read(buf)? },
            6 => EditOp::SetReplication { path: String::read(buf)?, replication: u32::read(buf)? },
            7 => {
                EditOp::BumpGenStamp { block: BlockId(read_vu64(buf)?), gen_stamp: read_vu64(buf)? }
            }
            8 => EditOp::AbandonBlock {
                path: String::read(buf)?,
                block: BlockId(read_vu64(buf)?),
                len: read_vu64(buf)?,
            },
            9 => EditOp::SetCodec { path: String::read(buf)?, codec: CodecId::read(buf)? },
            t => return Err(HlError::Codec(format!("unknown edit op tag {t}"))),
        })
    }
}

/// The journal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EditLog {
    ops: Vec<EditOp>,
}

impl EditLog {
    /// Empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one op.
    pub fn append(&mut self, op: EditOp) {
        self.ops.push(op);
    }

    /// Number of journaled ops since the last checkpoint.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no ops are pending.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The journaled ops since the last checkpoint, oldest first.
    pub fn ops(&self) -> &[EditOp] {
        &self.ops
    }

    /// Serialize the journal (what a secondary NameNode would fetch).
    pub fn serialize(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        write_vu64(self.ops.len() as u64, buf.as_mut());
        for op in &self.ops {
            op.write(&mut buf);
        }
        buf
    }

    /// Deserialize a journal.
    pub fn deserialize(mut bytes: &[u8]) -> Result<Self> {
        let buf = &mut bytes;
        let n = read_vu64(buf)? as usize;
        let mut ops = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            ops.push(EditOp::read(buf)?);
        }
        if !buf.is_empty() {
            return Err(HlError::Codec("trailing bytes after edit log".into()));
        }
        Ok(EditLog { ops })
    }

    /// Replay every op onto `ns`, rebuilding the namespace a crashed
    /// NameNode lost. Errors indicate a corrupt journal.
    pub fn replay(&self, ns: &mut Namespace) -> Result<()> {
        for op in &self.ops {
            op.apply(ns, None)?;
        }
        Ok(())
    }

    /// Checkpoint: the caller snapshots the namespace (fsimage) and the
    /// journal empties.
    pub fn checkpoint(&mut self) {
        self.ops.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<EditOp> {
        vec![
            EditOp::Mkdirs { path: "/user/alice".into() },
            EditOp::Create {
                path: "/user/alice/data.txt".into(),
                replication: 3,
                block_size: 64,
                at: SimTime(123),
                holder: "DFSClient@login".into(),
            },
            EditOp::AddBlock {
                path: "/user/alice/data.txt".into(),
                block: BlockId(1),
                len: 64,
                gen_stamp: 1000,
            },
            EditOp::AddBlock {
                path: "/user/alice/data.txt".into(),
                block: BlockId(2),
                len: 10,
                gen_stamp: 1001,
            },
            EditOp::BumpGenStamp { block: BlockId(1), gen_stamp: 1002 },
            EditOp::Close { path: "/user/alice/data.txt".into() },
            EditOp::Rename {
                src: "/user/alice/data.txt".into(),
                dst: "/user/alice/final.txt".into(),
            },
        ]
    }

    #[test]
    fn serialize_round_trips() {
        let mut log = EditLog::new();
        for op in sample_ops() {
            log.append(op);
        }
        log.append(EditOp::AbandonBlock {
            path: "/user/alice/data.txt".into(),
            block: BlockId(9),
            len: 10,
        });
        log.append(EditOp::SetCodec { path: "/user/alice/final.txt".into(), codec: CodecId::Hlz });
        let bytes = log.serialize();
        let restored = EditLog::deserialize(&bytes).unwrap();
        assert_eq!(restored, log);
    }

    #[test]
    fn replay_of_set_codec_flags_the_file() {
        let mut log = EditLog::new();
        for op in sample_ops() {
            log.append(op);
        }
        log.append(EditOp::SetCodec { path: "/user/alice/final.txt".into(), codec: CodecId::Hlz });
        let mut ns = Namespace::new();
        log.replay(&mut ns).unwrap();
        assert_eq!(ns.file("/user/alice/final.txt").unwrap().codec, CodecId::Hlz);
    }

    #[test]
    fn replay_of_abandon_block_truncates_the_file() {
        let mut log = EditLog::new();
        for op in sample_ops() {
            // Drop the Close/Rename tail: abandon only applies to open files.
            if matches!(op, EditOp::Close { .. } | EditOp::Rename { .. }) {
                continue;
            }
            log.append(op);
        }
        log.append(EditOp::AbandonBlock {
            path: "/user/alice/data.txt".into(),
            block: BlockId(2),
            len: 10,
        });
        log.append(EditOp::Close { path: "/user/alice/data.txt".into() });
        let mut ns = Namespace::new();
        log.replay(&mut ns).unwrap();
        let f = ns.file("/user/alice/data.txt").unwrap();
        assert_eq!(f.blocks, vec![BlockId(1)]);
        assert_eq!(f.len, 64);
        assert!(f.complete);
    }

    #[test]
    fn replay_rebuilds_namespace() {
        let mut log = EditLog::new();
        let mut live = Namespace::new();
        // Apply ops to the live namespace while journaling them.
        for op in sample_ops() {
            log.append(op);
        }
        log.replay(&mut live).unwrap();
        let f = live.file("/user/alice/final.txt").unwrap();
        assert_eq!(f.len, 74);
        assert_eq!(f.blocks.len(), 2);
        assert!(f.complete);

        // Replaying the serialized journal onto a fresh namespace matches.
        let mut rebuilt = Namespace::new();
        EditLog::deserialize(&log.serialize()).unwrap().replay(&mut rebuilt).unwrap();
        assert_eq!(rebuilt, live);
    }

    #[test]
    fn replay_of_delete() {
        let mut log = EditLog::new();
        log.append(EditOp::Mkdirs { path: "/tmp/x".into() });
        log.append(EditOp::Delete { path: "/tmp/x".into(), recursive: true });
        let mut ns = Namespace::new();
        log.replay(&mut ns).unwrap();
        assert!(!ns.exists("/tmp/x"));
        assert!(ns.exists("/tmp"));
    }

    #[test]
    fn corrupt_journal_is_detected() {
        let mut log = EditLog::new();
        log.append(EditOp::Mkdirs { path: "/a".into() });
        let mut bytes = log.serialize();
        bytes[1] = 99; // bogus tag
        assert!(EditLog::deserialize(&bytes).is_err());
        // Truncation is also caught.
        let good = log.serialize();
        assert!(EditLog::deserialize(&good[..good.len() - 1]).is_err());
    }

    #[test]
    fn checkpoint_clears_journal() {
        let mut log = EditLog::new();
        log.append(EditOp::Mkdirs { path: "/a".into() });
        assert_eq!(log.len(), 1);
        log.checkpoint();
        assert!(log.is_empty());
    }
}
