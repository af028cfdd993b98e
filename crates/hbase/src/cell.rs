//! Cells: the atomic unit of an HBase table.
//!
//! A cell is `(row, column, timestamp) → value-or-tombstone`. Newest
//! timestamp wins; at equal timestamps a tombstone wins (a deterministic
//! tiebreak the property tests rely on).

use hl_common::error::Result;
use hl_common::writable::{read_vu64, write_vu64, Writable};

/// One versioned cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Row key.
    pub row: String,
    /// Column name (we collapse HBase's family:qualifier to one string).
    pub column: String,
    /// Version timestamp (larger = newer).
    pub ts: u64,
    /// `None` is a delete tombstone.
    pub value: Option<Vec<u8>>,
}

impl Cell {
    /// A put cell.
    pub fn put(row: &str, column: &str, ts: u64, value: impl Into<Vec<u8>>) -> Self {
        Cell { row: row.into(), column: column.into(), ts, value: Some(value.into()) }
    }

    /// A delete tombstone.
    pub fn tombstone(row: &str, column: &str, ts: u64) -> Self {
        Cell { row: row.into(), column: column.into(), ts, value: None }
    }

    /// True for tombstones.
    pub fn is_tombstone(&self) -> bool {
        self.value.is_none()
    }

    /// The storage sort key: `(row, column, ts desc, tombstone-first)`.
    /// Scanning in this order visits the winning version of each
    /// `(row, column)` first.
    fn sort_key(&self) -> (&str, &str, std::cmp::Reverse<u64>, bool) {
        // `false < true`, so tombstone (value=None → !is_tombstone = false)
        // sorts before a put at the same timestamp — the delete wins ties.
        (&self.row, &self.column, std::cmp::Reverse(self.ts), !self.is_tombstone())
    }
}

impl Writable for Cell {
    fn write(&self, buf: &mut Vec<u8>) {
        self.row.write(buf);
        self.column.write(buf);
        write_vu64(self.ts, buf);
        match &self.value {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                write_vu64(v.len() as u64, buf);
                buf.extend_from_slice(v);
            }
        }
    }

    fn read(buf: &mut &[u8]) -> Result<Self> {
        let row = String::read(buf)?;
        let column = String::read(buf)?;
        let ts = read_vu64(buf)?;
        let tag = u8::read(buf)?;
        let value = match tag {
            0 => None,
            _ => {
                let len = read_vu64(buf)? as usize;
                let mut v = vec![0u8; len.min(buf.len())];
                let take = v.len();
                v.copy_from_slice(&buf[..take]);
                *buf = &buf[take..];
                if take != len {
                    return Err(hl_common::error::HlError::Codec("truncated cell value".into()));
                }
                Some(v)
            }
        };
        Ok(Cell { row, column, ts, value })
    }
}

/// Sort cells into canonical storage order and resolve the winner per
/// `(row, column)`: the first cell of each group under [`Cell::sort_key`].
pub fn sort_canonical(cells: &mut [Cell]) {
    cells.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writable_round_trip() {
        for cell in [
            Cell::put("row1", "colA", 42, b"hello".to_vec()),
            Cell::tombstone("row1", "colA", 43),
            Cell::put("", "", 0, Vec::new()),
        ] {
            assert_eq!(Cell::from_bytes(&cell.to_bytes()).unwrap(), cell);
        }
    }

    #[test]
    fn truncated_cell_is_codec_error() {
        let bytes = Cell::put("r", "c", 1, vec![1, 2, 3]).to_bytes();
        assert!(Cell::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn canonical_order_puts_winner_first() {
        let mut cells = vec![
            Cell::put("r", "c", 1, b"old".to_vec()),
            Cell::put("r", "c", 3, b"new".to_vec()),
            Cell::tombstone("r", "c", 2),
            Cell::put("r", "b", 9, b"other-col".to_vec()),
        ];
        sort_canonical(&mut cells);
        assert_eq!(cells[0].column, "b");
        assert_eq!(cells[1].ts, 3, "newest version of (r,c) first");
        assert!(cells[2].is_tombstone());
        assert_eq!(cells[3].ts, 1);
    }

    #[test]
    fn tombstone_wins_timestamp_ties() {
        let mut cells = vec![Cell::put("r", "c", 5, b"v".to_vec()), Cell::tombstone("r", "c", 5)];
        sort_canonical(&mut cells);
        assert!(cells[0].is_tombstone());
    }
}
