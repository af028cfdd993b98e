//! The MemStore: a region's in-memory write buffer.
//!
//! Sorted by the canonical cell order so a flush is a straight dump into
//! an HFile; size-accounted so the region knows when to flush.

use std::collections::BTreeMap;

use crate::cell::Cell;

type Key = (String, String, std::cmp::Reverse<u64>, bool);

/// The in-memory sorted buffer.
#[derive(Debug, Clone, Default)]
pub struct MemStore {
    cells: BTreeMap<Key, Option<Vec<u8>>>,
    bytes: usize,
}

fn key_of(c: &Cell) -> Key {
    (c.row.clone(), c.column.clone(), std::cmp::Reverse(c.ts), !c.is_tombstone())
}

impl MemStore {
    /// Empty store.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Insert a cell (put or tombstone).
    pub(crate) fn insert(&mut self, cell: Cell) {
        self.bytes +=
            cell.row.len() + cell.column.len() + 16 + cell.value.as_ref().map_or(0, Vec::len);
        self.cells.insert(key_of(&cell), cell.value);
    }

    /// Approximate resident bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Number of buffered cell versions.
    pub(crate) fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Drain everything in canonical order (for a flush).
    pub(crate) fn drain_sorted(&mut self) -> Vec<Cell> {
        let cells = std::mem::take(&mut self.cells);
        self.bytes = 0;
        cells
            .into_iter()
            .map(|((row, column, std::cmp::Reverse(ts), _), value)| Cell { row, column, ts, value })
            .collect()
    }

    /// Iterate buffered cells in canonical order without draining.
    pub(crate) fn iter_sorted(&self) -> impl Iterator<Item = Cell> + '_ {
        self.cells.iter().map(|((row, column, std::cmp::Reverse(ts), _), value)| Cell {
            row: row.clone(),
            column: column.clone(),
            ts: *ts,
            value: value.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The version a read sees: the first of its cells in canonical order.
    fn winner(m: &MemStore, row: &str, column: &str) -> Option<Option<Vec<u8>>> {
        m.iter_sorted().find(|c| c.row == row && c.column == column).map(|c| c.value)
    }

    #[test]
    fn newest_version_wins() {
        let mut m = MemStore::new();
        m.insert(Cell::put("r", "c", 1, b"v1".to_vec()));
        m.insert(Cell::put("r", "c", 3, b"v3".to_vec()));
        m.insert(Cell::put("r", "c", 2, b"v2".to_vec()));
        assert_eq!(winner(&m, "r", "c"), Some(Some(b"v3".to_vec())));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn tombstone_masks_and_wins_ties() {
        let mut m = MemStore::new();
        m.insert(Cell::put("r", "c", 5, b"v".to_vec()));
        m.insert(Cell::tombstone("r", "c", 5));
        assert_eq!(winner(&m, "r", "c"), Some(None), "tombstone wins the tie");
        m.insert(Cell::put("r", "c", 6, b"revived".to_vec()));
        assert_eq!(winner(&m, "r", "c"), Some(Some(b"revived".to_vec())));
    }

    #[test]
    fn get_misses_are_none() {
        let m = MemStore::new();
        assert_eq!(winner(&m, "nope", "c"), None);
    }

    #[test]
    fn drain_is_sorted_and_resets() {
        let mut m = MemStore::new();
        m.insert(Cell::put("b", "x", 1, b"1".to_vec()));
        m.insert(Cell::put("a", "y", 2, b"2".to_vec()));
        m.insert(Cell::put("a", "x", 3, b"3".to_vec()));
        assert!(m.bytes() > 0);
        let cells = m.drain_sorted();
        let keys: Vec<(String, String)> =
            cells.iter().map(|c| (c.row.clone(), c.column.clone())).collect();
        assert_eq!(
            keys,
            vec![("a".into(), "x".into()), ("a".into(), "y".into()), ("b".into(), "x".into())]
        );
        assert!(m.is_empty());
        assert_eq!(m.bytes(), 0);
    }

    #[test]
    fn bytes_accounting_grows_with_payload() {
        let mut m = MemStore::new();
        m.insert(Cell::put("r", "c", 1, vec![0u8; 100]));
        let one = m.bytes();
        m.insert(Cell::put("r", "c", 2, vec![0u8; 1000]));
        assert!(m.bytes() > one + 900);
    }
}
