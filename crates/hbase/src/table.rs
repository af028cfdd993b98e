//! `HTable`: range-partitioned regions with automatic splits.
//!
//! Rows route to the region whose start key is the greatest one ≤ the row;
//! a region that grows past `split_threshold` cell versions splits at its
//! median row — the mechanism that lets HBase tables grow without a
//! central bottleneck, and the reason its design pairs so naturally with
//! HDFS underneath.

use hl_cluster::network::ClusterNet;
use hl_common::prelude::*;
use hl_dfs::client::Dfs;

use crate::cell::Cell;
use crate::region::Region;

/// A table: ordered regions plus split policy.
#[derive(Debug, Clone)]
pub struct HTable {
    /// Table name (DFS directory: `/hbase/<name>`).
    pub name: String,
    /// Regions ordered by `start_row`; `regions[0].start_row` is `""`.
    pub regions: Vec<Region>,
    /// Split a region past this many cell versions.
    pub split_threshold: usize,
    /// Memstore flush threshold handed to new regions.
    pub flush_threshold: usize,
    /// Monotonic timestamp source for callers that don't supply one.
    next_ts: u64,
    next_region: u32,
}

impl HTable {
    /// Create a table with one open-ended region.
    pub fn create(dfs: &mut Dfs, name: &str) -> Result<Self> {
        let dir = format!("/hbase/{name}");
        dfs.namenode.mkdirs(&dir)?;
        Ok(HTable {
            name: name.to_string(),
            regions: vec![Region::new("", &format!("{dir}/region00000"), 64 * 1024)],
            split_threshold: 4096,
            flush_threshold: 64 * 1024,
            next_ts: 1,
            next_region: 1,
        })
    }

    /// Next auto-assigned timestamp.
    fn next_timestamp(&mut self) -> u64 {
        let ts = self.next_ts;
        self.next_ts += 1;
        ts
    }

    fn region_index(&self, row: &str) -> usize {
        // Last region whose start_row <= row.
        match self.regions.binary_search_by(|r| r.start_row.as_str().cmp(row)) {
            Ok(i) => i,
            Err(0) => 0, // defensive: regions[0].start_row == ""
            Err(i) => i - 1,
        }
    }

    /// Put a value (auto-timestamped).
    pub fn put(
        &mut self,
        dfs: &mut Dfs,
        net: &mut ClusterNet,
        now: SimTime,
        row: &str,
        column: &str,
        value: impl Into<Vec<u8>>,
    ) -> Result<SimTime> {
        let ts = self.next_timestamp();
        self.apply(dfs, net, now, Cell::put(row, column, ts, value))
    }

    /// Delete a cell (auto-timestamped tombstone).
    pub fn delete(
        &mut self,
        dfs: &mut Dfs,
        net: &mut ClusterNet,
        now: SimTime,
        row: &str,
        column: &str,
    ) -> Result<SimTime> {
        let ts = self.next_timestamp();
        self.apply(dfs, net, now, Cell::tombstone(row, column, ts))
    }

    /// Apply an explicit cell (caller-controlled timestamp).
    pub(crate) fn apply(
        &mut self,
        dfs: &mut Dfs,
        net: &mut ClusterNet,
        now: SimTime,
        cell: Cell,
    ) -> Result<SimTime> {
        self.next_ts = self.next_ts.max(cell.ts + 1);
        let idx = self.region_index(&cell.row);
        let done = self.regions[idx].insert(dfs, net, now, cell)?;
        let done = self.maybe_split(dfs, net, done, idx)?;
        Ok(done)
    }

    /// Point lookup.
    pub fn get(&self, row: &str, column: &str) -> Option<Vec<u8>> {
        self.regions[self.region_index(row)].get(row, column)
    }

    /// Scan `[from, to)` across regions, row order.
    pub fn scan(&self, from: &str, to: Option<&str>) -> Vec<(String, String, Vec<u8>)> {
        let mut out = Vec::new();
        for r in &self.regions {
            // Skip regions entirely outside the range.
            if let Some(t) = to {
                if r.start_row.as_str() >= t && !r.start_row.is_empty() {
                    continue;
                }
            }
            out.extend(r.scan(from, to));
        }
        out
    }

    /// Flush every region.
    pub fn flush_all(
        &mut self,
        dfs: &mut Dfs,
        net: &mut ClusterNet,
        now: SimTime,
    ) -> Result<SimTime> {
        let mut t = now;
        for r in &mut self.regions {
            t = r.flush(dfs, net, t)?;
        }
        Ok(t)
    }

    /// Major-compact every region.
    pub fn compact_all(
        &mut self,
        dfs: &mut Dfs,
        net: &mut ClusterNet,
        now: SimTime,
    ) -> Result<SimTime> {
        let mut t = now;
        for r in &mut self.regions {
            t = r.compact(dfs, net, t)?;
        }
        Ok(t)
    }

    fn maybe_split(
        &mut self,
        dfs: &mut Dfs,
        net: &mut ClusterNet,
        now: SimTime,
        idx: usize,
    ) -> Result<SimTime> {
        if self.regions[idx].total_cells() <= self.split_threshold {
            return Ok(now);
        }
        let Some(split_row) = self.regions[idx].split_point() else {
            return Ok(now);
        };
        // Compact first so all cells are in one place, then repartition by
        // the split row into two fresh regions.
        let mut t = self.regions[idx].compact(dfs, net, now)?;
        let old = self.regions.remove(idx);
        let dir_base = format!("/hbase/{}", self.name);
        let mut left = Region::new(
            &old.start_row,
            &format!("{dir_base}/region{:05}", self.next_region),
            self.flush_threshold,
        );
        let mut right = Region::new(
            &split_row,
            &format!("{dir_base}/region{:05}", self.next_region + 1),
            self.flush_threshold,
        );
        self.next_region += 2;
        for hf in &old.hfiles {
            for c in &hf.cells {
                let target =
                    if c.row.as_str() < split_row.as_str() { &mut left } else { &mut right };
                t = target.insert(dfs, net, t, c.clone())?;
            }
        }
        // Old region's files are garbage now.
        for hf in old.hfiles {
            let cmds = dfs.namenode.delete(&hf.path, false)?;
            dfs.apply_commands(net, t, &cmds);
        }
        left.flush_threshold = self.flush_threshold;
        self.regions.insert(idx, right);
        self.regions.insert(idx, left);
        Ok(t)
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
        config.set(keys::DFS_BLOCK_SIZE, 4096u64);
        (Dfs::format(&config, &spec).unwrap(), ClusterNet::new(&spec))
    }

    #[test]
    fn put_get_delete_lifecycle() {
        let (mut dfs, mut net) = setup();
        let mut t = HTable::create(&mut dfs, "movies").unwrap();
        let mut now = SimTime::ZERO;
        now = t.put(&mut dfs, &mut net, now, "m001", "title", b"Alien".to_vec()).unwrap();
        now = t.put(&mut dfs, &mut net, now, "m001", "year", b"1979".to_vec()).unwrap();
        now = t.put(&mut dfs, &mut net, now, "m002", "title", b"Brazil".to_vec()).unwrap();
        assert_eq!(t.get("m001", "title").as_deref(), Some(b"Alien".as_slice()));
        assert_eq!(t.get("m002", "title").as_deref(), Some(b"Brazil".as_slice()));
        // Overwrite and delete.
        now = t.put(&mut dfs, &mut net, now, "m001", "title", b"Alien (1979)".to_vec()).unwrap();
        assert_eq!(t.get("m001", "title").as_deref(), Some(b"Alien (1979)".as_slice()));
        t.delete(&mut dfs, &mut net, now, "m002", "title").unwrap();
        assert_eq!(t.get("m002", "title"), None);
        assert_eq!(t.get("m003", "title"), None);
    }

    #[test]
    fn splits_keep_every_row_reachable() {
        let (mut dfs, mut net) = setup();
        let mut table = HTable::create(&mut dfs, "t").unwrap();
        table.split_threshold = 50;
        table.flush_threshold = 512;
        for r in &mut table.regions {
            r.flush_threshold = 512;
        }
        let mut now = SimTime::ZERO;
        for i in 0..200u32 {
            now = table
                .put(&mut dfs, &mut net, now, &format!("row{i:04}"), "c", vec![(i % 251) as u8])
                .unwrap();
        }
        assert!(table.regions.len() > 1, "growth must split: {}", table.regions.len());
        // Region boundaries are ordered and start with "".
        assert_eq!(table.regions[0].start_row, "");
        for w in table.regions.windows(2) {
            assert!(w[0].start_row < w[1].start_row);
        }
        for i in 0..200u32 {
            assert_eq!(
                table.get(&format!("row{i:04}"), "c"),
                Some(vec![(i % 251) as u8]),
                "row{i:04}"
            );
        }
        // Scan sees everything exactly once, in row order.
        let all = table.scan("", None);
        assert_eq!(all.len(), 200);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn scan_ranges_cross_region_boundaries() {
        let (mut dfs, mut net) = setup();
        let mut table = HTable::create(&mut dfs, "t").unwrap();
        table.split_threshold = 20;
        let mut now = SimTime::ZERO;
        for i in 0..60u32 {
            now = table.put(&mut dfs, &mut net, now, &format!("k{i:03}"), "c", vec![1]).unwrap();
        }
        assert!(table.regions.len() > 1);
        let mid = table.scan("k010", Some("k030"));
        assert_eq!(mid.len(), 20);
        assert_eq!(mid.first().unwrap().0, "k010");
        assert_eq!(mid.last().unwrap().0, "k029");
    }

    #[test]
    fn flush_and_compact_survive_a_dfs_restart() {
        let (mut dfs, mut net) = setup();
        let mut table = HTable::create(&mut dfs, "t").unwrap();
        let mut now = SimTime::ZERO;
        for i in 0..30u32 {
            now = table
                .put(&mut dfs, &mut net, now, &format!("r{i:02}"), "c", vec![i as u8])
                .unwrap();
        }
        now = table.flush_all(&mut dfs, &mut net, now).unwrap();
        now = table.compact_all(&mut dfs, &mut net, now).unwrap();

        // Restart the DFS underneath; HFiles must still be readable (their
        // blocks are replicated HDFS blocks).
        let r = dfs.restart_all(&mut net, now).unwrap();
        let hfile = &table.regions[0].hfiles[0];
        let stored = dfs.read(&mut net, r.completed_at, &hfile.path, None).unwrap();
        assert_eq!(stored.value[..], crate::hfile::encode(&hfile.cells)[..]);
        assert_eq!(hfile.cells.len(), 30);
    }

    #[test]
    fn auto_timestamps_stay_monotonic_past_explicit_ones() {
        let (mut dfs, mut net) = setup();
        let mut table = HTable::create(&mut dfs, "t").unwrap();
        let now = SimTime::ZERO;
        table
            .apply(&mut dfs, &mut net, now, Cell::put("r", "c", 1000, b"explicit".to_vec()))
            .unwrap();
        // The next auto put must land above ts 1000, not shadow-under it.
        table.put(&mut dfs, &mut net, now, "r", "c", b"auto".to_vec()).unwrap();
        assert_eq!(table.get("r", "c").as_deref(), Some(b"auto".as_slice()));
    }
}
