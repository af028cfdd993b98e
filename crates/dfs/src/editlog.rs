//! The NameNode edit log: a replayable journal of namespace mutations.
//!
//! Real HDFS persists every namespace change to the edit log and merges it
//! into the fsimage at checkpoints; the combination is what lets a
//! restarted NameNode rebuild its in-RAM metadata. The course's restart
//! story depends on this existing, so we implement the journal, and
//! [`EditOp::apply`] is the only place that says what a journaled op does:
//! the live RPCs, [`EditLog::replay`] and `NameNode::restart` all go
//! through it. The journal holds its ops as the bytes a secondary would
//! fetch: a live RPC encodes its op there from the strings it was called
//! with, and a restart decodes and applies them in place.

use hl_codec::CodecId;
use hl_common::prelude::*;
use hl_common::writable::{read_str, read_vu64, write_str, write_vu64, Writable};

use crate::block::BlockId;
use crate::blockmap::BlockMap;
use crate::lease::LeaseManager;
use crate::namenode::BlockInfo;
use crate::namespace::{FileNode, Namespace};

/// One journaled namespace mutation. `S` holds its paths and lease holder:
/// `&str` while a live RPC journals it or a replay reads it out of the
/// journal's bytes, `String` (the default) for an op kept on its own.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // field meanings follow the variant docs directly
pub(crate) enum EditOp<S = String> {
    /// `mkdir -p`.
    Mkdirs { path: S },
    /// File creation (timestamp journaled so replay reproduces metadata;
    /// the lease holder journaled so a restarted NameNode can rebuild the
    /// lease table for files still open at the checkpoint tail).
    Create { path: S, replication: u32, block_size: u64, at: SimTime, holder: S },
    /// Block appended to a file, stamped with its initial generation stamp.
    AddBlock { path: S, block: BlockId, len: u64, gen_stamp: u64 },
    /// Writer closed the file.
    Close { path: S },
    /// Deletion (recursive flag recorded for fidelity).
    Delete { path: S, recursive: bool },
    /// Rename.
    Rename { src: S, dst: S },
    /// `hadoop fs -setrep`.
    SetReplication { path: S, replication: u32 },
    /// Pipeline recovery bumped a block's generation stamp; journaled so a
    /// restarted NameNode still knows which replicas are stale.
    BumpGenStamp { block: BlockId, gen_stamp: u64 },
    /// Lease recovery dropped a trailing block no DataNode ever confirmed
    /// (`len` journaled so replay can shrink the file without guessing).
    AbandonBlock { path: S, block: BlockId, len: u64 },
    /// The file's stored bytes are codec-framed; journaled so a restarted
    /// NameNode still knows which files need transparent decode.
    SetCodec { path: S, codec: CodecId },
}

/// The recoverable NameNode state that lives beside the namespace tree:
/// block metadata, the lease table and both allocation marks. Borrowed
/// field by field, so the live NameNode and the state a restart is still
/// building go through the same [`EditOp::apply`].
pub(crate) struct Ledger<'a> {
    pub blocks: &'a mut BlockMap,
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

/// What [`EditOp::AddBlock`] does, to a file already looked up. The live
/// RPC walks the path once: it reads the replication and block size that
/// placement needs from the file, then appends through the same reference.
pub(crate) fn add_block(
    file: &mut FileNode,
    path: &str,
    block: BlockId,
    len: u64,
    gen_stamp: u64,
    ledger: Option<&mut Ledger<'_>>,
) -> Result<()> {
    let (next_block_id, next_gen_stamp) = (mark_after(block.0)?, mark_after(gen_stamp)?);
    // Ids are never reused, so only a corrupt journal names one twice.
    if ledger.as_ref().is_some_and(|l| l.blocks.contains_key(block)) {
        return Err(HlError::Codec(format!("journaled {block} is already in the block table")));
    }
    file.append_block(path, block, len)?;
    if let Some(l) = ledger {
        l.blocks.insert(block, BlockInfo::unreported(len, file.replication, gen_stamp));
        *l.next_block_id = next_block_id.max(*l.next_block_id);
        *l.next_gen_stamp = next_gen_stamp.max(*l.next_gen_stamp);
    }
    Ok(())
}

impl<S: AsRef<str>> EditOp<S> {
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
            EditOp::Mkdirs { path } => ns.mkdirs(path.as_ref())?,
            EditOp::Create { path, replication, block_size, at, holder } => {
                let path = path.as_ref();
                ns.create_file(path, *replication, *block_size, *at)?;
                if let Some(l) = &mut ledger {
                    l.leases.acquire(*at, path, holder.as_ref());
                }
            }
            EditOp::AddBlock { path, block, len, gen_stamp } => {
                let path = path.as_ref();
                add_block(ns.file_mut(path)?, path, *block, *len, *gen_stamp, ledger)?;
            }
            EditOp::Close { path } => {
                ns.complete_file(path.as_ref())?;
                if let Some(l) = &mut ledger {
                    l.leases.release(path.as_ref());
                }
            }
            EditOp::Delete { path, recursive } => {
                let ids = ns.delete(path.as_ref(), *recursive)?;
                if let Some(l) = &mut ledger {
                    l.leases.release_under(path.as_ref());
                    freed.extend(ids.into_iter().filter_map(|id| Some((id, l.blocks.remove(id)?))));
                }
            }
            EditOp::Rename { src, dst } => {
                ns.rename(src.as_ref(), dst.as_ref())?;
                if let Some(l) = &mut ledger {
                    l.leases.rename(src.as_ref(), dst.as_ref());
                }
            }
            EditOp::SetReplication { path, replication } => {
                let file = ns.file_mut(path.as_ref())?;
                file.replication = *replication;
                if let Some(l) = &mut ledger {
                    for id in &file.blocks {
                        if let Some(info) = l.blocks.get_mut(*id) {
                            info.expected_replication = *replication;
                        }
                    }
                }
            }
            // Generation stamps live in the block map, not the tree.
            EditOp::BumpGenStamp { block, gen_stamp } => {
                let next_gen_stamp = mark_after(*gen_stamp)?;
                if let Some(l) = &mut ledger {
                    let info = l.blocks.get_mut(*block).ok_or_else(|| {
                        HlError::Internal(format!("gen-stamp bump of unknown {block}"))
                    })?;
                    info.gen_stamp = *gen_stamp;
                    *l.next_gen_stamp = next_gen_stamp.max(*l.next_gen_stamp);
                }
            }
            EditOp::AbandonBlock { path, block, len } => {
                ns.abandon_block(path.as_ref(), *block, *len)?;
                if let Some(l) = &mut ledger {
                    freed.extend(l.blocks.remove(*block).map(|info| (*block, info)));
                }
            }
            EditOp::SetCodec { path, codec } => ns.file_mut(path.as_ref())?.codec = *codec,
        }
        Ok(freed)
    }

    pub(crate) fn tag(&self) -> u8 {
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

    /// The op's journal record: a tag byte, then its fields.
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(self.tag());
        match self {
            EditOp::Mkdirs { path } | EditOp::Close { path } => write_str(path.as_ref(), buf),
            EditOp::Create { path, replication, block_size, at, holder } => {
                write_str(path.as_ref(), buf);
                replication.write(buf);
                block_size.write(buf);
                write_vu64(at.0, buf);
                write_str(holder.as_ref(), buf);
            }
            EditOp::AddBlock { path, block, len, gen_stamp } => {
                write_str(path.as_ref(), buf);
                write_vu64(block.0, buf);
                write_vu64(*len, buf);
                write_vu64(*gen_stamp, buf);
            }
            EditOp::Delete { path, recursive } => {
                write_str(path.as_ref(), buf);
                recursive.write(buf);
            }
            EditOp::Rename { src, dst } => {
                write_str(src.as_ref(), buf);
                write_str(dst.as_ref(), buf);
            }
            EditOp::SetReplication { path, replication } => {
                write_str(path.as_ref(), buf);
                replication.write(buf);
            }
            EditOp::BumpGenStamp { block, gen_stamp } => {
                write_vu64(block.0, buf);
                write_vu64(*gen_stamp, buf);
            }
            EditOp::AbandonBlock { path, block, len } => {
                write_str(path.as_ref(), buf);
                write_vu64(block.0, buf);
                write_vu64(*len, buf);
            }
            EditOp::SetCodec { path, codec } => {
                write_str(path.as_ref(), buf);
                codec.write(buf);
            }
        }
    }
}

impl<'a> EditOp<&'a str> {
    /// Decode one journal record, its strings borrowed from `buf`.
    fn decode(buf: &mut &'a [u8]) -> Result<Self> {
        let tag = u8::read(buf)?;
        Ok(match tag {
            0 => EditOp::Mkdirs { path: read_str(buf)? },
            1 => EditOp::Create {
                path: read_str(buf)?,
                replication: u32::read(buf)?,
                block_size: u64::read(buf)?,
                at: SimTime(read_vu64(buf)?),
                holder: read_str(buf)?,
            },
            2 => EditOp::AddBlock {
                path: read_str(buf)?,
                block: BlockId(read_vu64(buf)?),
                len: read_vu64(buf)?,
                gen_stamp: read_vu64(buf)?,
            },
            3 => EditOp::Close { path: read_str(buf)? },
            4 => EditOp::Delete { path: read_str(buf)?, recursive: bool::read(buf)? },
            5 => EditOp::Rename { src: read_str(buf)?, dst: read_str(buf)? },
            6 => EditOp::SetReplication { path: read_str(buf)?, replication: u32::read(buf)? },
            7 => {
                EditOp::BumpGenStamp { block: BlockId(read_vu64(buf)?), gen_stamp: read_vu64(buf)? }
            }
            8 => EditOp::AbandonBlock {
                path: read_str(buf)?,
                block: BlockId(read_vu64(buf)?),
                len: read_vu64(buf)?,
            },
            9 => EditOp::SetCodec { path: read_str(buf)?, codec: CodecId::read(buf)? },
            t => return Err(HlError::Codec(format!("unknown edit op tag {t}"))),
        })
    }

    /// The same op, holding its own strings.
    fn to_owned_op(&self) -> EditOp {
        let own = |s: &str| s.to_string();
        match *self {
            EditOp::Mkdirs { path } => EditOp::Mkdirs { path: own(path) },
            EditOp::Create { path, replication, block_size, at, holder } => {
                EditOp::Create { path: own(path), replication, block_size, at, holder: own(holder) }
            }
            EditOp::AddBlock { path, block, len, gen_stamp } => {
                EditOp::AddBlock { path: own(path), block, len, gen_stamp }
            }
            EditOp::Close { path } => EditOp::Close { path: own(path) },
            EditOp::Delete { path, recursive } => EditOp::Delete { path: own(path), recursive },
            EditOp::Rename { src, dst } => EditOp::Rename { src: own(src), dst: own(dst) },
            EditOp::SetReplication { path, replication } => {
                EditOp::SetReplication { path: own(path), replication }
            }
            EditOp::BumpGenStamp { block, gen_stamp } => EditOp::BumpGenStamp { block, gen_stamp },
            EditOp::AbandonBlock { path, block, len } => {
                EditOp::AbandonBlock { path: own(path), block, len }
            }
            EditOp::SetCodec { path, codec } => EditOp::SetCodec { path: own(path), codec },
        }
    }
}

impl Writable for EditOp {
    fn write(&self, buf: &mut Vec<u8>) {
        self.encode(buf);
    }

    fn read(buf: &mut &[u8]) -> Result<Self> {
        EditOp::decode(buf).map(|op| op.to_owned_op())
    }
}

/// The journal: the ops since the last checkpoint, encoded back to back
/// exactly as [`EditLog::serialize`] writes them after the count. An
/// append encodes in place, so journaling an RPC copies none of its
/// strings into an op of its own.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EditLog {
    ops: usize,
    bytes: Vec<u8>,
}

impl EditLog {
    /// Empty journal.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Append one op.
    pub(crate) fn append<S: AsRef<str>>(&mut self, op: &EditOp<S>) {
        op.encode(&mut self.bytes);
        self.ops += 1;
    }

    /// Number of journaled ops since the last checkpoint.
    pub fn len(&self) -> usize {
        self.ops
    }

    /// True when no ops are pending.
    pub fn is_empty(&self) -> bool {
        self.ops == 0
    }

    /// The journaled ops since the last checkpoint, oldest first, decoded
    /// in place. Every record was encoded by [`Self::append`] or checked by
    /// [`Self::deserialize`], so an `Err` here is a bug, not damage.
    pub(crate) fn ops(&self) -> impl Iterator<Item = Result<EditOp<&str>>> + '_ {
        let mut buf = self.bytes.as_slice();
        (0..self.ops).map(move |_| EditOp::decode(&mut buf))
    }

    /// Serialize the journal (what a secondary NameNode would fetch).
    pub fn serialize(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.bytes.len() + 10);
        write_vu64(self.ops as u64, &mut buf);
        buf.extend_from_slice(&self.bytes);
        buf
    }

    /// Deserialize a journal. Every record is decoded once here, so a
    /// damaged one is refused before anything replays it.
    pub fn deserialize(mut bytes: &[u8]) -> Result<Self> {
        let buf = &mut bytes;
        let n = read_vu64(buf)?;
        let records = *buf;
        for _ in 0..n {
            EditOp::decode(buf)?;
        }
        if !buf.is_empty() {
            return Err(HlError::Codec("trailing bytes after edit log".into()));
        }
        let ops = usize::try_from(n)
            .map_err(|_| HlError::Codec(format!("{n} journal ops overflow usize")))?;
        Ok(EditLog { ops, bytes: records.to_vec() })
    }

    /// Replay every op onto `ns`, rebuilding the namespace a crashed
    /// NameNode lost. Errors indicate a corrupt journal.
    pub fn replay(&self, ns: &mut Namespace) -> Result<()> {
        for op in self.ops() {
            op?.apply(ns, None)?;
        }
        Ok(())
    }

    /// Checkpoint: the caller snapshots the namespace (fsimage) and the
    /// journal empties.
    pub(crate) fn checkpoint(&mut self) {
        self.bytes.clear();
        self.ops = 0;
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
            log.append(&op);
        }
        log.append(&EditOp::AbandonBlock {
            path: "/user/alice/data.txt",
            block: BlockId(9),
            len: 10,
        });
        log.append(&EditOp::SetCodec { path: "/user/alice/final.txt", codec: CodecId::Hlz });
        let bytes = log.serialize();
        let restored = EditLog::deserialize(&bytes).unwrap();
        assert_eq!(restored, log);
    }

    /// Every kind of op writes the bytes the journal wrote before it held
    /// bytes itself (a list of owned ops, each written on `serialize`): a
    /// stored journal still reads, and reads back as the same ops.
    #[test]
    fn journal_bytes_keep_their_format() {
        const STORED: &str = "0b000b2f757365722f616c69636501142f757365722f616c6963652f6461\
            74612e7478740000000300000000000000407b0f444653436c69656e74406c6f67696e02142f757365\
            722f616c6963652f646174612e7478740140e80702142f757365722f616c6963652f646174612e7478\
            74020ae9070701ea0703142f757365722f616c6963652f646174612e74787405142f757365722f616c\
            6963652f646174612e747874152f757365722f616c6963652f66696e616c2e74787408142f75736572\
            2f616c6963652f646174612e747874090a09152f757365722f616c6963652f66696e616c2e74787401\
            040b2f757365722f616c6963650106152f757365722f616c6963652f66696e616c2e74787400000002";
        let mut ops = sample_ops();
        ops.extend([
            EditOp::AbandonBlock {
                path: "/user/alice/data.txt".into(),
                block: BlockId(9),
                len: 10,
            },
            EditOp::SetCodec { path: "/user/alice/final.txt".into(), codec: CodecId::Hlz },
            EditOp::Delete { path: "/user/alice".into(), recursive: true },
            EditOp::SetReplication { path: "/user/alice/final.txt".into(), replication: 2 },
        ]);
        let mut log = EditLog::new();
        for op in &ops {
            log.append(op);
        }
        let hex: String = log.serialize().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, STORED);
        let read: Vec<EditOp> = EditLog::deserialize(&log.serialize())
            .unwrap()
            .ops()
            .map(|op| op.unwrap().to_owned_op())
            .collect();
        assert_eq!(read, ops);
        let kinds: std::collections::BTreeSet<u8> = ops.iter().map(EditOp::tag).collect();
        assert_eq!(kinds.len(), 10, "every op kind");
    }

    /// An op of kind `kind % 10` whose strings are `text` and whose
    /// numbers come from `x`.
    fn drawn_op(kind: u8, text: String, x: u64) -> EditOp {
        let other = format!("{text}/{x}");
        let small = u32::try_from(x % 1000).unwrap_or(0);
        match kind % 10 {
            0 => EditOp::Mkdirs { path: text },
            1 => EditOp::Create {
                path: text,
                replication: small,
                block_size: x,
                at: SimTime(x / 7),
                holder: other,
            },
            2 => EditOp::AddBlock { path: text, block: BlockId(x), len: x / 3, gen_stamp: !x },
            3 => EditOp::Close { path: text },
            4 => EditOp::Delete { path: text, recursive: x.is_multiple_of(2) },
            5 => EditOp::Rename { src: text, dst: other },
            6 => EditOp::SetReplication { path: text, replication: small },
            7 => EditOp::BumpGenStamp { block: BlockId(!x), gen_stamp: x },
            8 => EditOp::AbandonBlock { path: text, block: BlockId(x), len: x >> 9 },
            _ => EditOp::SetCodec {
                path: text,
                codec: if x.is_multiple_of(2) { CodecId::Null } else { CodecId::Hlz },
            },
        }
    }

    proptest::proptest! {
        /// Drawn ops of every kind, with drawn text (multi-byte characters
        /// included) and numbers up to `u64::MAX`: the journal's bytes
        /// decode in place to the ops appended, before and after a trip
        /// through `serialize`, and each is the op's own `Writable` bytes.
        #[test]
        fn drawn_ops_read_back_from_the_journal_bytes(
            drawn in proptest::collection::vec(
                (
                    0u8..10,
                    proptest::collection::vec(proptest::any::<char>(), 0..12),
                    proptest::any::<u64>(),
                ),
                0..40,
            ),
        ) {
            let ops: Vec<EditOp> = drawn
                .into_iter()
                .map(|(kind, chars, x)| drawn_op(kind, chars.into_iter().collect(), x))
                .collect();
            let mut log = EditLog::new();
            let mut expected = Vec::new();
            for op in &ops {
                log.append(op);
                expected.extend(op.to_bytes());
            }
            proptest::prop_assert_eq!(log.len(), ops.len());
            proptest::prop_assert_eq!(&log.bytes, &expected);
            let back: Vec<EditOp> = log.ops().map(|op| op.unwrap().to_owned_op()).collect();
            proptest::prop_assert_eq!(&back, &ops);
            let restored = EditLog::deserialize(&log.serialize()).unwrap();
            proptest::prop_assert_eq!(&restored, &log);
        }
    }

    #[test]
    fn replay_of_set_codec_flags_the_file() {
        let mut log = EditLog::new();
        for op in sample_ops() {
            log.append(&op);
        }
        log.append(&EditOp::SetCodec { path: "/user/alice/final.txt", codec: CodecId::Hlz });
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
            log.append(&op);
        }
        log.append(&EditOp::AbandonBlock {
            path: "/user/alice/data.txt",
            block: BlockId(2),
            len: 10,
        });
        log.append(&EditOp::Close { path: "/user/alice/data.txt" });
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
            log.append(&op);
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
        log.append(&EditOp::Mkdirs { path: "/tmp/x" });
        log.append(&EditOp::Delete { path: "/tmp/x", recursive: true });
        let mut ns = Namespace::new();
        log.replay(&mut ns).unwrap();
        assert!(!ns.exists("/tmp/x"));
        assert!(ns.exists("/tmp"));
    }

    #[test]
    fn corrupt_journal_is_detected() {
        let mut log = EditLog::new();
        log.append(&EditOp::Mkdirs { path: "/a" });
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
        log.append(&EditOp::Mkdirs { path: "/a" });
        assert_eq!(log.len(), 1);
        log.checkpoint();
        assert!(log.is_empty());
    }
}
