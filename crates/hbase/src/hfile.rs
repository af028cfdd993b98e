//! HFiles: immutable sorted cell files persisted in HDFS.
//!
//! Layout: magic + cell count + cells in canonical order. The file is
//! written through the normal DFS pipeline (replicated, checksummed,
//! charged), which is the lecture's point: HBase's durability *is* HDFS.

use hl_cluster::network::ClusterNet;
use hl_common::error::Result;
use hl_common::prelude::*;
use hl_common::writable::{write_vu64, Writable};
use hl_dfs::client::Dfs;

use crate::cell::Cell;

const MAGIC: &[u8; 6] = b"HFILE1";

/// An HFile's in-memory handle: its DFS path and (cached) sorted cells.
#[derive(Debug, Clone)]
pub struct HFile {
    /// Where the file lives in HDFS.
    pub path: String,
    /// Cached cells, canonical order (the region keeps them warm).
    pub cells: Vec<Cell>,
}

/// Serialize cells (must already be in canonical order).
pub(crate) fn encode(cells: &[Cell]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    write_vu64(cells.len() as u64, &mut buf);
    for c in cells {
        c.write(&mut buf);
    }
    buf
}

impl HFile {
    /// Write `cells` to `path` in HDFS (replicated, charged) and return the
    /// warm handle plus the completion time.
    pub(crate) fn create(
        dfs: &mut Dfs,
        net: &mut ClusterNet,
        now: SimTime,
        path: &str,
        cells: Vec<Cell>,
    ) -> Result<(HFile, SimTime)> {
        let bytes = encode(&cells);
        let put = dfs.put(net, now, path, &bytes, None)?;
        Ok((HFile { path: path.to_string(), cells }, put.completed_at))
    }

    /// The winning cell for `(row, column)` in this file, if present.
    /// Cells are canonical-sorted, so the first hit is the winner.
    pub(crate) fn get(&self, row: &str, column: &str) -> Option<&Cell> {
        // Binary search for the group start, then check the first entry.
        let idx =
            self.cells.partition_point(|c| (c.row.as_str(), c.column.as_str()) < (row, column));
        let c = self.cells.get(idx)?;
        (c.row == row && c.column == column).then_some(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::sort_canonical;
    use hl_cluster::node::ClusterSpec;
    use hl_common::config::{keys, Configuration};

    fn sample_cells() -> Vec<Cell> {
        let mut cells = vec![
            Cell::put("r1", "a", 2, b"v2".to_vec()),
            Cell::put("r1", "a", 1, b"v1".to_vec()),
            Cell::tombstone("r1", "b", 9),
            Cell::put("r2", "a", 5, b"x".to_vec()),
        ];
        sort_canonical(&mut cells);
        cells
    }

    #[test]
    fn get_finds_winners_via_binary_search() {
        let hfile = HFile { path: "/t/hf0".into(), cells: sample_cells() };
        assert_eq!(hfile.get("r1", "a").unwrap().value.as_deref(), Some(b"v2".as_slice()));
        assert!(hfile.get("r1", "b").unwrap().is_tombstone());
        assert_eq!(hfile.get("r1", "zz"), None);
        assert_eq!(hfile.get("r0", "a"), None);
    }

    #[test]
    fn create_and_cold_open_through_hdfs() {
        let spec = ClusterSpec::course_hadoop(4);
        let mut config = Configuration::with_defaults();
        config.set(keys::DFS_BLOCK_SIZE, 1024u64);
        let mut dfs = Dfs::format(&config, &spec).unwrap();
        let mut net = ClusterNet::new(&spec);
        dfs.namenode.mkdirs("/hbase/t/r0").unwrap();

        let (warm, t1) =
            HFile::create(&mut dfs, &mut net, SimTime::ZERO, "/hbase/t/r0/hf0", sample_cells())
                .unwrap();
        assert!(t1 >= SimTime::ZERO);
        // The file is a real replicated HDFS file.
        let located = dfs.file_blocks("/hbase/t/r0/hf0").unwrap();
        assert!(!located.is_empty());
        assert!(located.iter().all(|(_, _, h)| h.len() == 3));

        let cold = dfs.read(&mut net, t1, "/hbase/t/r0/hf0", None).unwrap();
        assert_eq!(cold.value[..], encode(&warm.cells)[..]);
    }
}
