//! The NameNode's in-memory namespace: a tree of directories and files.
//!
//! Figure 2's left column — "HDFS Abstractions: Directories/Files" mapping
//! down to block lists — lives here. Everything is RAM-resident, exactly
//! the property the lecture emphasizes ("Block metadata lives in memory").

use std::collections::BTreeMap;

use hl_codec::CodecId;
use hl_common::prelude::*;
use hl_common::writable::{read_vu64, write_vu64, Writable};

use crate::block::BlockId;

/// Normalize and validate an absolute DFS path into components.
///
/// Accepts `/`, `/a`, `/a/b/`, collapses duplicate slashes, rejects
/// relative paths, empty components beyond slashes, and `.`/`..`.
fn parse_path(path: &str) -> Result<Vec<String>> {
    Ok(components(path)?.map(str::to_string).collect())
}

/// [`parse_path`]'s components, validated and borrowed from `path`: what a
/// per-block lookup walks without allocating.
fn components(path: &str) -> Result<impl Iterator<Item = &str>> {
    if !path.starts_with('/') {
        return Err(HlError::Config(format!("DFS paths must be absolute: {path:?}")));
    }
    let parts = path.split('/').filter(|c| !c.is_empty());
    if parts.clone().any(|c| matches!(c, "." | "..")) {
        return Err(HlError::Config(format!("'.'/'..' not supported in {path:?}")));
    }
    Ok(parts)
}

/// Join components back into a canonical path string.
fn join_path(parts: &[String]) -> String {
    if parts.is_empty() {
        "/".to_string()
    } else {
        format!("/{}", parts.join("/"))
    }
}

/// Metadata of a file inode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileNode {
    /// Ordered block list.
    pub blocks: Vec<BlockId>,
    /// Total length in bytes.
    pub len: u64,
    /// Target replication factor.
    pub replication: u32,
    /// Block size the file was written with.
    pub block_size: u64,
    /// False while a writer still holds the lease.
    pub complete: bool,
    /// Creation time.
    pub created_at: SimTime,
    /// How the file's stored bytes are encoded. [`CodecId::Null`] (the
    /// default) means plain bytes; anything else means every block holds
    /// whole `hl-codec` frames and `len` counts *stored* (compressed)
    /// bytes — readers consult this flag to decode transparently.
    pub codec: CodecId,
}

impl FileNode {
    /// Append an allocated block to this file, which must be incomplete;
    /// `path` names it in errors.
    pub(crate) fn append_block(&mut self, path: &str, block: BlockId, len: u64) -> Result<()> {
        if self.complete {
            return Err(HlError::Internal(format!("append to completed file {path}")));
        }
        self.len = self
            .len
            .checked_add(len)
            .ok_or_else(|| HlError::Codec(format!("block of {len} bytes overflows {path}")))?;
        self.blocks.push(block);
        Ok(())
    }
}

/// A namespace node.
#[derive(Debug, Clone, PartialEq, Eq)]
enum INode {
    /// A directory with named children.
    Directory(BTreeMap<String, INode>),
    /// A file.
    File(FileNode),
}

/// One row of a directory listing (`hadoop fs -ls`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileStatus {
    /// Full path.
    pub path: String,
    /// True for directories.
    pub is_dir: bool,
    /// File length (0 for directories).
    pub len: u64,
    /// Replication (0 for directories).
    pub replication: u32,
    /// Block count (0 for directories).
    pub blocks: usize,
}

/// The namespace tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Namespace {
    root: INode,
}

impl Default for Namespace {
    fn default() -> Self {
        Self::new()
    }
}

impl Namespace {
    /// An empty namespace containing only `/`.
    pub fn new() -> Self {
        Namespace { root: INode::Directory(BTreeMap::new()) }
    }

    fn walk<S: AsRef<str>>(&self, parts: impl IntoIterator<Item = S>) -> Option<&INode> {
        let mut node = &self.root;
        for part in parts {
            match node {
                INode::Directory(children) => node = children.get(part.as_ref())?,
                INode::File(_) => return None,
            }
        }
        Some(node)
    }

    fn walk_mut<S: AsRef<str>>(
        &mut self,
        parts: impl IntoIterator<Item = S>,
    ) -> Option<&mut INode> {
        let mut node = &mut self.root;
        for part in parts {
            match node {
                INode::Directory(children) => node = children.get_mut(part.as_ref())?,
                INode::File(_) => return None,
            }
        }
        Some(node)
    }

    /// `mkdir -p`: create all missing directories along `path`.
    pub(crate) fn mkdirs(&mut self, path: &str) -> Result<()> {
        let parts = parse_path(path)?;
        let mut node = &mut self.root;
        for part in &parts {
            let children = match node {
                INode::Directory(children) => children,
                INode::File(_) => return Err(HlError::NotADirectory(path.to_string())),
            };
            node =
                children.entry(part.clone()).or_insert_with(|| INode::Directory(BTreeMap::new()));
            if let INode::File(_) = node {
                return Err(HlError::NotADirectory(path.to_string()));
            }
        }
        Ok(())
    }

    /// Create a file inode (parents must exist). The file starts incomplete.
    pub(crate) fn create_file(
        &mut self,
        path: &str,
        replication: u32,
        block_size: u64,
        now: SimTime,
    ) -> Result<()> {
        let parts = parse_path(path)?;
        let (name, parent) =
            parts.split_last().ok_or_else(|| HlError::AlreadyExists("/".to_string()))?;
        let node = self.walk_mut(parent).ok_or_else(|| HlError::FileNotFound(join_path(parent)))?;
        let children = match node {
            INode::Directory(children) => children,
            INode::File(_) => return Err(HlError::NotADirectory(join_path(parent))),
        };
        if children.contains_key(name) {
            return Err(HlError::AlreadyExists(path.to_string()));
        }
        children.insert(
            name.clone(),
            INode::File(FileNode {
                blocks: Vec::new(),
                len: 0,
                replication,
                block_size,
                complete: false,
                created_at: now,
                codec: CodecId::Null,
            }),
        );
        Ok(())
    }

    /// Mark a file complete (writer closed it).
    pub(crate) fn complete_file(&mut self, path: &str) -> Result<()> {
        self.file_mut(path)?.complete = true;
        Ok(())
    }

    /// Drop the trailing block of an incomplete file (lease recovery: the
    /// writer crashed before any DataNode confirmed it). `len` is the
    /// length the block contributed to the file when it was appended.
    pub(crate) fn abandon_block(&mut self, path: &str, block: BlockId, len: u64) -> Result<()> {
        let file = self.file_mut(path)?;
        if file.complete {
            return Err(HlError::Internal(format!("abandon on completed file {path}")));
        }
        match file.blocks.last() {
            Some(last) if *last == block => {
                file.blocks.pop();
                file.len = file.len.saturating_sub(len);
                Ok(())
            }
            _ => Err(HlError::Internal(format!(
                "abandon of {block} which is not the last block of {path}"
            ))),
        }
    }

    /// Immutable file lookup.
    pub fn file(&self, path: &str) -> Result<&FileNode> {
        match self.walk(components(path)?) {
            Some(INode::File(f)) => Ok(f),
            Some(INode::Directory(_)) => Err(HlError::NotADirectory(path.to_string())),
            None => Err(HlError::FileNotFound(path.to_string())),
        }
    }

    /// Mutable file lookup.
    pub(crate) fn file_mut(&mut self, path: &str) -> Result<&mut FileNode> {
        match self.walk_mut(components(path)?) {
            Some(INode::File(f)) => Ok(f),
            Some(INode::Directory(_)) => Err(HlError::NotADirectory(path.to_string())),
            None => Err(HlError::FileNotFound(path.to_string())),
        }
    }

    /// Does the path exist (file or directory)?
    pub fn exists(&self, path: &str) -> bool {
        parse_path(path).map(|p| self.walk(&p).is_some()).unwrap_or(false)
    }

    /// Is the path a directory?
    pub fn is_dir(&self, path: &str) -> bool {
        matches!(parse_path(path).ok().and_then(|p| self.walk(&p)), Some(INode::Directory(_)))
    }

    /// List a directory (one row per child) or a file (one row).
    pub(crate) fn list(&self, path: &str) -> Result<Vec<FileStatus>> {
        let parts = parse_path(path)?;
        let node = self.walk(&parts).ok_or_else(|| HlError::FileNotFound(path.to_string()))?;
        let status = |path: String, node: &INode| match node {
            INode::Directory(_) => {
                FileStatus { path, is_dir: true, len: 0, replication: 0, blocks: 0 }
            }
            INode::File(f) => FileStatus {
                path,
                is_dir: false,
                len: f.len,
                replication: f.replication,
                blocks: f.blocks.len(),
            },
        };
        match node {
            INode::File(_) => Ok(vec![status(join_path(&parts), node)]),
            INode::Directory(children) => Ok(children
                .iter()
                .map(|(name, child)| {
                    let mut p = parts.clone();
                    p.push(name.clone());
                    status(join_path(&p), child)
                })
                .collect()),
        }
    }

    /// Delete a path. Directories require `recursive` (like `-rmr`).
    /// Returns the block ids freed so the BlockManager can invalidate them.
    pub(crate) fn delete(&mut self, path: &str, recursive: bool) -> Result<Vec<BlockId>> {
        let parts = parse_path(path)?;
        let (name, parent) =
            parts.split_last().ok_or_else(|| HlError::Config("cannot delete /".to_string()))?;
        let node = self.walk_mut(parent).ok_or_else(|| HlError::FileNotFound(path.to_string()))?;
        let children = match node {
            INode::Directory(children) => children,
            INode::File(_) => return Err(HlError::NotADirectory(join_path(parent))),
        };
        match children.get(name) {
            None => return Err(HlError::FileNotFound(path.to_string())),
            Some(INode::Directory(c)) if !c.is_empty() && !recursive => {
                return Err(HlError::Config(format!("{path} is a non-empty directory")))
            }
            _ => {}
        }
        let removed = children
            .remove(name)
            .ok_or_else(|| HlError::Internal(format!("{path} vanished during delete")))?;
        let mut freed = Vec::new();
        collect_blocks(&removed, &mut freed);
        Ok(freed)
    }

    /// Rename `src` to `dst` (dst must not exist; parents of dst must).
    pub(crate) fn rename(&mut self, src: &str, dst: &str) -> Result<()> {
        let dst_parts = parse_path(dst)?;
        if self.exists(dst) {
            return Err(HlError::AlreadyExists(dst.to_string()));
        }
        let (dst_name, dst_parent) =
            dst_parts.split_last().ok_or_else(|| HlError::AlreadyExists("/".to_string()))?;
        if !matches!(self.walk(dst_parent), Some(INode::Directory(_))) {
            return Err(HlError::FileNotFound(join_path(dst_parent)));
        }

        let src_parts = parse_path(src)?;
        let (src_name, src_parent) =
            src_parts.split_last().ok_or_else(|| HlError::Config("cannot rename /".to_string()))?;
        let node =
            self.walk_mut(src_parent).ok_or_else(|| HlError::FileNotFound(src.to_string()))?;
        let moved = match node {
            INode::Directory(children) => {
                children.remove(src_name).ok_or_else(|| HlError::FileNotFound(src.to_string()))?
            }
            INode::File(_) => return Err(HlError::NotADirectory(join_path(src_parent))),
        };
        if let Some(INode::Directory(children)) = self.walk_mut(dst_parent) {
            children.insert(dst_name.clone(), moved);
            return Ok(());
        }
        // Verified a directory above; if the tree mutated out from under us
        // this is a NameNode bug — surface it, don't crash the daemon. Put
        // the detached node back so the namespace stays intact.
        if let Some(INode::Directory(children)) = self.walk_mut(src_parent) {
            children.insert(src_name.clone(), moved);
        }
        Err(HlError::Internal(format!(
            "rename {src} -> {dst}: destination parent vanished mid-rename"
        )))
    }

    /// All files under `path` (depth-first), as `(path, &FileNode)`.
    pub(crate) fn files_under(&self, path: &str) -> Result<Vec<(String, &FileNode)>> {
        let parts = parse_path(path)?;
        let node = self.walk(&parts).ok_or_else(|| HlError::FileNotFound(path.to_string()))?;
        let mut out = Vec::new();
        walk_files(node, &mut parts.clone(), &mut out);
        Ok(out)
    }

    /// Total bytes under a path (`hadoop fs -du -s`).
    pub(crate) fn du(&self, path: &str) -> Result<u64> {
        Ok(self.files_under(path)?.iter().map(|(_, f)| f.len).sum())
    }

    /// Count of (directories, files, blocks) in the whole namespace.
    pub fn stats(&self) -> (usize, usize, usize) {
        let mut dirs = 0;
        let mut files = 0;
        let mut blocks = 0;
        count(&self.root, &mut dirs, &mut files, &mut blocks);
        (dirs, files, blocks)
    }
}

// ------------------------------------------------------------- fsimage codec
//
// The namespace serializes recursively so a checkpoint can persist the
// whole tree (the fsimage). Directory entries are written in name order
// (BTreeMap iteration), so equal trees produce identical bytes.

impl Writable for FileNode {
    fn write(&self, buf: &mut Vec<u8>) {
        write_vu64(self.blocks.len() as u64, buf);
        for b in &self.blocks {
            write_vu64(b.0, buf);
        }
        write_vu64(self.len, buf);
        write_vu64(u64::from(self.replication), buf);
        write_vu64(self.block_size, buf);
        self.complete.write(buf);
        write_vu64(self.created_at.0, buf);
        self.codec.write(buf);
    }

    fn read(buf: &mut &[u8]) -> Result<Self> {
        let n = read_vu64(buf)?;
        let mut blocks = Vec::with_capacity(n.min(1024) as usize);
        for _ in 0..n {
            blocks.push(BlockId(read_vu64(buf)?));
        }
        let len = read_vu64(buf)?;
        let replication = u32::try_from(read_vu64(buf)?)
            .map_err(|_| HlError::Codec("file replication overflows u32".into()))?;
        let block_size = read_vu64(buf)?;
        let complete = bool::read(buf)?;
        let created_at = SimTime(read_vu64(buf)?);
        let codec = CodecId::read(buf)?;
        Ok(FileNode { blocks, len, replication, block_size, complete, created_at, codec })
    }
}

impl Writable for INode {
    fn write(&self, buf: &mut Vec<u8>) {
        match self {
            INode::Directory(children) => {
                buf.push(0);
                write_vu64(children.len() as u64, buf);
                for (name, child) in children {
                    name.write(buf);
                    child.write(buf);
                }
            }
            INode::File(f) => {
                buf.push(1);
                f.write(buf);
            }
        }
    }

    fn read(buf: &mut &[u8]) -> Result<Self> {
        match u8::read(buf)? {
            0 => {
                let n = read_vu64(buf)?;
                let mut children = BTreeMap::new();
                for _ in 0..n {
                    let name = String::read(buf)?;
                    children.insert(name, INode::read(buf)?);
                }
                Ok(INode::Directory(children))
            }
            1 => Ok(INode::File(FileNode::read(buf)?)),
            t => Err(HlError::Codec(format!("unknown inode tag {t}"))),
        }
    }
}

impl Writable for Namespace {
    fn write(&self, buf: &mut Vec<u8>) {
        self.root.write(buf);
    }

    fn read(buf: &mut &[u8]) -> Result<Self> {
        match INode::read(buf)? {
            root @ INode::Directory(_) => Ok(Namespace { root }),
            INode::File(_) => Err(HlError::Codec("namespace root must be a directory".into())),
        }
    }
}

fn collect_blocks(node: &INode, out: &mut Vec<BlockId>) {
    match node {
        INode::File(f) => out.extend(&f.blocks),
        INode::Directory(children) => children.values().for_each(|c| collect_blocks(c, out)),
    }
}

fn walk_files<'a>(node: &'a INode, parts: &mut Vec<String>, out: &mut Vec<(String, &'a FileNode)>) {
    match node {
        INode::File(f) => out.push((join_path(parts), f)),
        INode::Directory(children) => {
            for (name, child) in children {
                parts.push(name.clone());
                walk_files(child, parts, out);
                parts.pop();
            }
        }
    }
}

fn count(node: &INode, dirs: &mut usize, files: &mut usize, blocks: &mut usize) {
    match node {
        INode::File(f) => {
            *files += 1;
            *blocks += f.blocks.len();
        }
        INode::Directory(children) => {
            *dirs += 1;
            children.values().for_each(|c| count(c, dirs, files, blocks));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn append(ns: &mut Namespace, path: &str, block: BlockId, len: u64) -> Result<()> {
        ns.file_mut(path)?.append_block(path, block, len)
    }

    fn ns_with_file(path: &str) -> Namespace {
        let mut ns = Namespace::new();
        let parts = parse_path(path).unwrap();
        ns.mkdirs(&join_path(&parts[..parts.len() - 1])).unwrap();
        ns.create_file(path, 3, 64, SimTime::ZERO).unwrap();
        ns
    }

    #[test]
    fn path_parsing() {
        assert_eq!(parse_path("/").unwrap(), Vec::<String>::new());
        assert_eq!(parse_path("/a//b/").unwrap(), vec!["a", "b"]);
        assert!(parse_path("relative").is_err());
        assert!(parse_path("/a/../b").is_err());
        assert_eq!(join_path(&[]), "/");
        assert_eq!(join_path(&["a".into(), "b".into()]), "/a/b");
    }

    #[test]
    fn mkdirs_is_idempotent_and_deep() {
        let mut ns = Namespace::new();
        ns.mkdirs("/user/alice/data").unwrap();
        ns.mkdirs("/user/alice/data").unwrap();
        assert!(ns.is_dir("/user/alice"));
        assert!(ns.exists("/user/alice/data"));
        let (dirs, files, _) = ns.stats();
        assert_eq!((dirs, files), (4, 0)); // root + 3
    }

    #[test]
    fn mkdirs_through_file_fails() {
        let mut ns = ns_with_file("/data/f");
        assert!(matches!(ns.mkdirs("/data/f/sub"), Err(HlError::NotADirectory(_))));
    }

    #[test]
    fn create_append_complete_lifecycle() {
        let mut ns = ns_with_file("/data/f");
        assert!(!ns.file("/data/f").unwrap().complete);
        append(&mut ns, "/data/f", BlockId(1), 64).unwrap();
        append(&mut ns, "/data/f", BlockId(2), 30).unwrap();
        ns.complete_file("/data/f").unwrap();
        let f = ns.file("/data/f").unwrap();
        assert_eq!(f.len, 94);
        assert_eq!(f.blocks, vec![BlockId(1), BlockId(2)]);
        assert!(append(&mut ns, "/data/f", BlockId(3), 1).is_err());
    }

    #[test]
    fn duplicate_create_fails() {
        let mut ns = ns_with_file("/data/f");
        assert!(matches!(
            ns.create_file("/data/f", 3, 64, SimTime::ZERO),
            Err(HlError::AlreadyExists(_))
        ));
    }

    #[test]
    fn create_without_parent_fails() {
        let mut ns = Namespace::new();
        assert!(matches!(
            ns.create_file("/no/such/dir/f", 3, 64, SimTime::ZERO),
            Err(HlError::FileNotFound(_))
        ));
    }

    #[test]
    fn list_directory_and_file() {
        let mut ns = ns_with_file("/data/f");
        ns.mkdirs("/data/sub").unwrap();
        let rows = ns.list("/data").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].path, "/data/f");
        assert!(!rows[0].is_dir);
        assert_eq!(rows[1].path, "/data/sub");
        assert!(rows[1].is_dir);
        let one = ns.list("/data/f").unwrap();
        assert_eq!(one.len(), 1);
        assert!(ns.list("/missing").is_err());
    }

    #[test]
    fn delete_returns_freed_blocks() {
        let mut ns = ns_with_file("/data/f");
        append(&mut ns, "/data/f", BlockId(10), 64).unwrap();
        append(&mut ns, "/data/f", BlockId(11), 64).unwrap();
        ns.create_file("/data/g", 3, 64, SimTime::ZERO).unwrap();
        append(&mut ns, "/data/g", BlockId(12), 64).unwrap();
        // Non-recursive delete of non-empty dir refuses.
        assert!(ns.delete("/data", false).is_err());
        let freed = ns.delete("/data", true).unwrap();
        let mut freed_sorted = freed.clone();
        freed_sorted.sort();
        assert_eq!(freed_sorted, vec![BlockId(10), BlockId(11), BlockId(12)]);
        assert!(!ns.exists("/data"));
    }

    #[test]
    fn delete_missing_and_root_fail() {
        let mut ns = Namespace::new();
        assert!(ns.delete("/nope", true).is_err());
        assert!(ns.delete("/", true).is_err());
    }

    #[test]
    fn rename_moves_subtrees() {
        let mut ns = ns_with_file("/data/f");
        ns.mkdirs("/archive").unwrap();
        ns.rename("/data", "/archive/data2013").unwrap();
        assert!(ns.exists("/archive/data2013/f"));
        assert!(!ns.exists("/data"));
        // dst exists -> error
        ns.mkdirs("/x").unwrap();
        assert!(ns.rename("/x", "/archive").is_err());
        // missing src -> error
        assert!(ns.rename("/ghost", "/y").is_err());
    }

    #[test]
    fn namespace_writable_round_trips() {
        // Empty tree.
        let empty = Namespace::new();
        assert_eq!(Namespace::from_bytes(&empty.to_bytes()).unwrap(), empty);
        // Mixed tree: nested dirs, complete and open files, empty dir.
        let mut ns = ns_with_file("/data/f");
        append(&mut ns, "/data/f", BlockId(7), 64).unwrap();
        append(&mut ns, "/data/f", BlockId(9), 30).unwrap();
        ns.complete_file("/data/f").unwrap();
        ns.mkdirs("/data/empty").unwrap();
        ns.create_file("/data/open", 2, 128, SimTime(55)).unwrap();
        // A compressed file: the per-file codec flag must survive the trip.
        ns.create_file("/data/packed", 3, 64, SimTime(60)).unwrap();
        ns.file_mut("/data/packed").unwrap().codec = CodecId::Hlz;
        let bytes = ns.to_bytes();
        assert_eq!(Namespace::from_bytes(&bytes).unwrap(), ns);
        // INode and FileNode round-trip through the same encoding.
        let inode = INode::File(ns.file("/data/f").unwrap().clone());
        assert_eq!(INode::from_bytes(&inode.to_bytes()).unwrap(), inode);
        let file = ns.file("/data/open").unwrap().clone();
        assert_eq!(FileNode::from_bytes(&file.to_bytes()).unwrap(), file);
        // A file at the root tag position is rejected.
        assert!(Namespace::from_bytes(&inode.to_bytes()).is_err());
        // Corrupt tag is a codec error.
        assert!(Namespace::from_bytes(&[7]).is_err());
    }

    #[test]
    fn files_under_and_du() {
        let mut ns = Namespace::new();
        ns.mkdirs("/d/a").unwrap();
        ns.create_file("/d/a/x", 3, 64, SimTime::ZERO).unwrap();
        append(&mut ns, "/d/a/x", BlockId(1), 100).unwrap();
        ns.create_file("/d/y", 3, 64, SimTime::ZERO).unwrap();
        append(&mut ns, "/d/y", BlockId(2), 50).unwrap();
        let files = ns.files_under("/d").unwrap();
        let paths: Vec<_> = files.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, vec!["/d/a/x", "/d/y"]);
        assert_eq!(ns.du("/d").unwrap(), 150);
        assert_eq!(ns.du("/d/y").unwrap(), 50);
    }
}
