//! A region: the unit of serving and splitting.
//!
//! Owns one [`MemStore`] and a stack of [`HFile`]s in HDFS. Reads merge
//! memstore → newest HFile → older HFiles and stop at the first hit
//! (canonical order makes the first hit the winner); flushes and
//! compactions run through the charged DFS write path.

use hl_cluster::network::ClusterNet;
use hl_common::prelude::*;
use hl_dfs::client::Dfs;

use crate::cell::{sort_canonical, Cell};
use crate::hfile::HFile;
use crate::memstore::MemStore;

/// One region of a table.
#[derive(Debug, Clone)]
pub struct Region {
    /// First row served (inclusive). Empty = open start.
    pub start_row: String,
    /// DFS directory for this region's HFiles.
    pub dir: String,
    /// The write buffer.
    pub memstore: MemStore,
    /// HFiles, oldest first (reads scan newest first).
    pub hfiles: Vec<HFile>,
    /// Flush when the memstore exceeds this many bytes.
    pub flush_threshold: usize,
    next_hfile: u32,
}

impl Region {
    /// A fresh region starting at `start_row`, storing files under `dir`.
    pub(crate) fn new(start_row: &str, dir: &str, flush_threshold: usize) -> Self {
        Region {
            start_row: start_row.to_string(),
            dir: dir.to_string(),
            memstore: MemStore::new(),
            hfiles: Vec::new(),
            flush_threshold: flush_threshold.max(64),
            next_hfile: 0,
        }
    }

    /// Buffer a cell; flushes to HDFS when the memstore is full. Returns
    /// the time the operation (including any flush) completed.
    pub(crate) fn insert(
        &mut self,
        dfs: &mut Dfs,
        net: &mut ClusterNet,
        now: SimTime,
        cell: Cell,
    ) -> Result<SimTime> {
        self.memstore.insert(cell);
        if self.memstore.bytes() >= self.flush_threshold {
            return self.flush(dfs, net, now);
        }
        Ok(now)
    }

    /// Force-flush the memstore into a new HFile on HDFS.
    pub(crate) fn flush(
        &mut self,
        dfs: &mut Dfs,
        net: &mut ClusterNet,
        now: SimTime,
    ) -> Result<SimTime> {
        if self.memstore.is_empty() {
            return Ok(now);
        }
        let cells = self.memstore.drain_sorted();
        let path = format!("{}/hf{:05}", self.dir, self.next_hfile);
        self.next_hfile += 1;
        dfs.namenode.mkdirs(&self.dir)?;
        let (hfile, done) = HFile::create(dfs, net, now, &path, cells)?;
        self.hfiles.push(hfile);
        Ok(done)
    }

    /// Point lookup: newest version of `(row, column)`, tombstones masking.
    pub(crate) fn get(&self, row: &str, column: &str) -> Option<Vec<u8>> {
        // The memstore always holds the newest versions... except it
        // doesn't have to: timestamps are caller-supplied, so an old-ts put
        // can arrive after a flush. Correctness requires comparing winners
        // across all sources by (ts, tombstone-wins).
        let mut best: Option<Cell> = None;
        let mut consider = |c: Cell| {
            let better = match &best {
                None => true,
                Some(b) => (c.ts, c.is_tombstone()) > (b.ts, b.is_tombstone()),
            };
            if better {
                best = Some(c);
            }
        };
        for c in self.memstore.iter_sorted() {
            if c.row == row && c.column == column {
                consider(c);
            }
        }
        for hf in &self.hfiles {
            if let Some(c) = hf.get(row, column) {
                consider(c.clone());
            }
        }
        best.and_then(|c| c.value)
    }

    /// All live `(row, column, value)` triples in `[from, to)` row range,
    /// row-then-column order.
    pub(crate) fn scan(&self, from: &str, to: Option<&str>) -> Vec<(String, String, Vec<u8>)> {
        // Merge every source, canonical order; first version of each
        // (row, column) wins.
        let mut all: Vec<Cell> = self.memstore.iter_sorted().collect();
        for hf in &self.hfiles {
            all.extend(hf.cells.iter().cloned());
        }
        sort_canonical(&mut all);
        let mut out = Vec::new();
        let mut last: Option<(String, String)> = None;
        for c in all {
            if c.row.as_str() < from {
                continue;
            }
            if let Some(t) = to {
                if c.row.as_str() >= t {
                    continue;
                }
            }
            let key = (c.row.clone(), c.column.clone());
            if last.as_ref() == Some(&key) {
                continue; // shadowed older version
            }
            last = Some(key);
            if let Some(v) = c.value {
                out.push((c.row, c.column, v));
            }
        }
        out
    }

    /// Major compaction: merge all HFiles + memstore into one HFile,
    /// dropping shadowed versions and tombstones, and delete the old files
    /// from HDFS.
    pub(crate) fn compact(
        &mut self,
        dfs: &mut Dfs,
        net: &mut ClusterNet,
        now: SimTime,
    ) -> Result<SimTime> {
        let mut all: Vec<Cell> = self.memstore.drain_sorted();
        for hf in &self.hfiles {
            all.extend(hf.cells.iter().cloned());
        }
        sort_canonical(&mut all);
        // Keep only each (row, column)'s winner, and drop it too if it is
        // a tombstone (major compaction reclaims deletes).
        let mut kept: Vec<Cell> = Vec::new();
        let mut last: Option<(String, String)> = None;
        for c in all {
            let key = (c.row.clone(), c.column.clone());
            if last.as_ref() == Some(&key) {
                continue;
            }
            last = Some(key);
            if !c.is_tombstone() {
                kept.push(c);
            }
        }
        // Remove old files.
        let mut t = now;
        for hf in self.hfiles.drain(..) {
            let cmds = dfs.namenode.delete(&hf.path, false)?;
            dfs.apply_commands(net, t, &cmds);
        }
        if !kept.is_empty() {
            let path = format!("{}/hf{:05}", self.dir, self.next_hfile);
            self.next_hfile += 1;
            dfs.namenode.mkdirs(&self.dir)?;
            let (hfile, done) = HFile::create(dfs, net, t, &path, kept)?;
            self.hfiles.push(hfile);
            t = done;
        }
        Ok(t)
    }

    /// Total cell versions across memstore and HFiles (split heuristic).
    pub(crate) fn total_cells(&self) -> usize {
        self.memstore.len() + self.hfiles.iter().map(|h| h.cells.len()).sum::<usize>()
    }

    /// The median row key currently stored (the split point), if the
    /// region holds at least two distinct rows.
    pub(crate) fn split_point(&self) -> Option<String> {
        let mut rows: Vec<String> = self
            .memstore
            .iter_sorted()
            .map(|c| c.row)
            .chain(self.hfiles.iter().flat_map(|h| h.cells.iter().map(|c| c.row.clone())))
            .collect();
        rows.sort();
        rows.dedup();
        if rows.len() < 2 {
            return None;
        }
        Some(rows[rows.len() / 2].clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_cluster::node::ClusterSpec;
    use hl_common::config::{keys, Configuration};

    fn setup() -> (Dfs, ClusterNet) {
        let spec = ClusterSpec::course_hadoop(4);
        let mut config = Configuration::with_defaults();
        config.set(keys::DFS_BLOCK_SIZE, 2048u64);
        (Dfs::format(&config, &spec).unwrap(), ClusterNet::new(&spec))
    }

    #[test]
    fn put_flush_get_across_sources() {
        let (mut dfs, mut net) = setup();
        let mut r = Region::new("", "/hbase/t/r0", 200);
        let mut t = SimTime::ZERO;
        for i in 0..20 {
            t = r
                .insert(
                    &mut dfs,
                    &mut net,
                    t,
                    Cell::put(&format!("row{i:02}"), "c", i, vec![i as u8]),
                )
                .unwrap();
        }
        assert!(!r.hfiles.is_empty(), "small threshold must have flushed");
        assert!(r.get("row00", "c").is_some(), "flushed data readable");
        assert!(r.get("row19", "c").is_some(), "memstore data readable");
        assert_eq!(r.get("row20", "c"), None);
    }

    #[test]
    fn old_timestamp_after_flush_does_not_shadow_newer() {
        let (mut dfs, mut net) = setup();
        let mut r = Region::new("", "/hbase/t/r0", 1 << 20);
        let mut t = SimTime::ZERO;
        t = r.insert(&mut dfs, &mut net, t, Cell::put("r", "c", 10, b"newer".to_vec())).unwrap();
        t = r.flush(&mut dfs, &mut net, t).unwrap();
        // A late write with an OLDER timestamp lands in the memstore...
        r.insert(&mut dfs, &mut net, t, Cell::put("r", "c", 5, b"older".to_vec())).unwrap();
        // ...but the HFile's newer version must still win.
        assert_eq!(r.get("r", "c").as_deref(), Some(b"newer".as_slice()));
    }

    #[test]
    fn tombstones_mask_until_compaction_reclaims() {
        let (mut dfs, mut net) = setup();
        let mut r = Region::new("", "/hbase/t/r0", 1 << 20);
        let mut t = SimTime::ZERO;
        t = r.insert(&mut dfs, &mut net, t, Cell::put("r", "c", 1, b"v".to_vec())).unwrap();
        t = r.flush(&mut dfs, &mut net, t).unwrap();
        t = r.insert(&mut dfs, &mut net, t, Cell::tombstone("r", "c", 2)).unwrap();
        assert_eq!(r.get("r", "c"), None, "tombstone masks the flushed put");
        assert!(r.scan("", None).is_empty());

        let before_files = r.hfiles.len();
        r.compact(&mut dfs, &mut net, t).unwrap();
        assert!(r.hfiles.len() <= 1);
        assert!(r.hfiles.len() < before_files + 1 || before_files == 0);
        assert_eq!(r.get("r", "c"), None, "still deleted after compaction");
        assert_eq!(r.total_cells(), 0, "major compaction reclaimed everything");
    }

    #[test]
    fn compaction_preserves_live_data_and_removes_old_files() {
        let (mut dfs, mut net) = setup();
        let mut r = Region::new("", "/hbase/t/r0", 300);
        let mut t = SimTime::ZERO;
        for i in 0..30u8 {
            t = r
                .insert(&mut dfs, &mut net, t, Cell::put(&format!("row{i:02}"), "c", 1, vec![i]))
                .unwrap();
        }
        t = r.flush(&mut dfs, &mut net, t).unwrap();
        let files_before = r.hfiles.len();
        assert!(files_before >= 2);
        let old_paths: Vec<String> = r.hfiles.iter().map(|h| h.path.clone()).collect();
        r.compact(&mut dfs, &mut net, t).unwrap();
        assert_eq!(r.hfiles.len(), 1);
        for p in &old_paths {
            assert!(!dfs.namenode.namespace().exists(p), "{p} deleted from HDFS");
        }
        for i in 0..30u8 {
            assert_eq!(r.get(&format!("row{i:02}"), "c"), Some(vec![i]));
        }
        assert_eq!(r.scan("", None).len(), 30);
    }

    #[test]
    fn scan_respects_row_ranges() {
        let (mut dfs, mut net) = setup();
        let mut r = Region::new("", "/hbase/t/r0", 1 << 20);
        let mut t = SimTime::ZERO;
        for row in ["a", "b", "c", "d"] {
            t = r
                .insert(&mut dfs, &mut net, t, Cell::put(row, "x", 1, row.as_bytes().to_vec()))
                .unwrap();
        }
        let mid = r.scan("b", Some("d"));
        assert_eq!(mid.iter().map(|(r, _, _)| r.as_str()).collect::<Vec<_>>(), vec!["b", "c"]);
        assert_eq!(r.scan("", None).len(), 4);
        assert!(r.scan("x", None).is_empty());
    }

    #[test]
    fn split_point_is_a_median_row() {
        let (mut dfs, mut net) = setup();
        let mut r = Region::new("", "/hbase/t/r0", 1 << 20);
        assert_eq!(r.split_point(), None);
        let mut t = SimTime::ZERO;
        for i in 0..10 {
            t = r
                .insert(&mut dfs, &mut net, t, Cell::put(&format!("row{i}"), "c", 1, vec![1]))
                .unwrap();
        }
        let sp = r.split_point().unwrap();
        assert!(sp.as_str() > "row0" && sp.as_str() <= "row9");
    }
}
