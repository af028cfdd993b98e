//! Input splits: one map task per HDFS block, with replica locations.
//!
//! This is the HDFS–MapReduce integration arrow in Figure 2: "JobTracker
//! provides NameNode with file/directory paths and receives block-level
//! information", which it then uses to place map tasks near their data.
//!
//! [`LineReader`] reproduces Hadoop's `LineRecordReader` semantics exactly:
//! a record belongs to the split where it **starts**; a non-first split
//! discards bytes through the first newline (unless the byte before the
//! split was itself a newline), and the last record of a split is read
//! *past* the split boundary to its terminating newline.

use std::borrow::Cow;

use hl_common::prelude::*;
use hl_dfs::client::Dfs;
use hl_dfs::BlockId;

/// One map task's input: a block of a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputSplit {
    /// Source file.
    pub path: String,
    /// The block backing this split.
    pub block: BlockId,
    /// Byte offset of the split within the file.
    pub offset: u64,
    /// Split length in bytes.
    pub len: u64,
    /// Nodes holding a replica (locality hints).
    pub holders: Vec<NodeId>,
}

/// Compute splits for a job's input paths. Directories expand to the
/// files directly beneath them (like `FileInputFormat` with a glob-free
/// directory input). Empty files yield no splits.
pub fn compute_splits(dfs: &Dfs, input_paths: &[String]) -> Result<Vec<InputSplit>> {
    let mut splits = Vec::new();
    for path in input_paths {
        let files: Vec<String> = if dfs.namenode.namespace().is_dir(path) {
            dfs.namenode.list(path)?.into_iter().filter(|s| !s.is_dir).map(|s| s.path).collect()
        } else {
            vec![path.clone()]
        };
        for file in files {
            let mut offset = 0;
            for (block, len, holders) in dfs.file_blocks(&file)? {
                splits.push(InputSplit { path: file.clone(), block, offset, len, holders });
                offset += len;
            }
        }
    }
    Ok(splits)
}

/// Line iterator over one split, Hadoop `LineRecordReader` semantics.
///
/// `data` must start at the split's first byte and extend far enough past
/// the split for its final record to terminate (the engine appends
/// following blocks until a newline or EOF appears beyond the boundary).
pub struct LineReader<'a> {
    data: &'a [u8],
    split_len: usize,
    pos: usize,
    offset: u64,
}

impl<'a> LineReader<'a> {
    /// Build a reader.
    ///
    /// * `prev_byte` — the file byte immediately before this split
    ///   (`None` for the first split). A non-newline `prev_byte` means the
    ///   split's leading bytes belong to the previous split's last record
    ///   and are skipped.
    /// * `data` — bytes from the split start, extending beyond `split_len`
    ///   as far as available.
    /// * `split_len` — the split's own length; records *starting* before
    ///   this boundary are emitted.
    /// * `offset` — the split's byte offset in the file (for record keys).
    pub fn new(prev_byte: Option<u8>, data: &'a [u8], split_len: usize, offset: u64) -> Self {
        let mut reader = LineReader { data, split_len: split_len.min(data.len()), pos: 0, offset };
        if let Some(b) = prev_byte {
            if b != b'\n' {
                // Skip the tail of the previous split's last record.
                match data.iter().position(|&x| x == b'\n') {
                    Some(i) => reader.pos = i + 1,
                    None => reader.pos = data.len(), // nothing starts here
                }
            }
        }
        reader
    }

    /// The next record as `(file offset of its first byte, line)`, the line
    /// borrowed from the split's bytes. Only a line that is not valid
    /// UTF-8 is copied (lossily, as `TextInputFormat` decodes it).
    pub fn next_line(&mut self) -> Option<(u64, Cow<'a, str>)> {
        if self.pos >= self.split_len {
            return None;
        }
        let start = self.pos;
        let line_end = match self.data[start..].iter().position(|&b| b == b'\n') {
            Some(i) => {
                self.pos = start + i + 1;
                start + i
            }
            None => {
                self.pos = self.data.len();
                self.data.len()
            }
        };
        let mut line = &self.data[start..line_end];
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        if line.is_empty() && line_end == self.data.len() && start == line_end {
            return None; // trailing EOF with no content
        }
        Some((self.offset + start as u64, String::from_utf8_lossy(line)))
    }
}

/// The owned form of [`LineReader::next_line`].
impl<'a> Iterator for LineReader<'a> {
    type Item = (u64, String);

    fn next(&mut self) -> Option<(u64, String)> {
        self.next_line().map(|(offset, line)| (offset, line.into_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Read a file through block-aligned splits and check the lines match a
    /// straight `str::lines` pass, for every block size.
    fn check_split_reading(text: &str, block_size: usize) {
        let bytes = text.as_bytes();
        let nblocks = bytes.len().div_ceil(block_size);
        let mut lines = Vec::new();
        for i in 0..nblocks {
            let start = i * block_size;
            let split_len = block_size.min(bytes.len() - start);
            let prev_byte = if i == 0 { None } else { Some(bytes[start - 1]) };
            let split = || LineReader::new(prev_byte, &bytes[start..], split_len, start as u64);
            // The borrowing reader and the owned iterator over it see the
            // same records.
            let mut borrowing = split();
            let borrowed: Vec<(u64, String)> = std::iter::from_fn(|| borrowing.next_line())
                .map(|(o, l)| {
                    assert!(matches!(l, Cow::Borrowed(_)), "valid UTF-8 is not copied");
                    (o, l.into_owned())
                })
                .collect();
            assert_eq!(borrowed, split().collect::<Vec<_>>(), "block_size={block_size}");
            lines.extend(borrowed.into_iter().map(|(_, l)| l));
        }
        let expected: Vec<String> = text.lines().map(str::to_string).collect();
        assert_eq!(lines, expected, "block_size={block_size} text={text:?}");
    }

    #[test]
    fn lines_survive_any_block_cut() {
        let text = "the quick brown fox\njumps over\nthe lazy dog\nand sleeps\n";
        for bs in 1..=text.len() + 1 {
            check_split_reading(text, bs);
        }
    }

    #[test]
    fn lines_longer_than_blocks_are_not_lost() {
        let text = "tiny\nan-extremely-long-line-spanning-many-small-blocks\nend\n";
        for bs in 1..=8 {
            check_split_reading(text, bs);
        }
    }

    #[test]
    fn no_trailing_newline() {
        let text = "alpha\nbeta\ngamma";
        for bs in 1..=text.len() + 1 {
            check_split_reading(text, bs);
        }
    }

    #[test]
    fn empty_and_blank_lines() {
        check_split_reading("", 4);
        let text = "\n\na\n\nb\n";
        for bs in 1..=text.len() + 1 {
            check_split_reading(text, bs);
        }
    }

    #[test]
    fn crlf_lines_lose_their_cr() {
        let text = "a\r\nbb\r\n";
        let reader = LineReader::new(None, text.as_bytes(), text.len(), 0);
        let lines: Vec<String> = reader.map(|(_, l)| l).collect();
        assert_eq!(lines, vec!["a", "bb"]);
        // `str::lines` drops the `\r` too, so the whole cut matrix applies.
        let text = "the quick\r\nbrown fox\r\n\r\njumps\r\n";
        for bs in 1..=text.len() + 1 {
            check_split_reading(text, bs);
        }
    }

    #[test]
    fn invalid_utf8_is_decoded_lossily_into_an_owned_line() {
        let bytes = b"ok\nb\xFFd\nok again\n";
        let mut reader = LineReader::new(None, bytes, bytes.len(), 100);
        assert_eq!(reader.next_line(), Some((100, Cow::Borrowed("ok"))));
        let (offset, line) = reader.next_line().unwrap();
        assert_eq!((offset, line.as_ref()), (103, "b\u{FFFD}d"));
        assert!(matches!(line, Cow::Owned(_)));
        assert_eq!(reader.next(), Some((107, "ok again".to_string())));
        assert_eq!(reader.next_line(), None);
    }

    #[test]
    fn offsets_point_at_line_starts() {
        let text = "aa\nbbb\ncc\n";
        let reader = LineReader::new(None, text.as_bytes(), text.len(), 0);
        let offsets: Vec<u64> = reader.map(|(o, _)| o).collect();
        assert_eq!(offsets, vec![0, 3, 7]);
    }

    #[test]
    fn boundary_exactly_on_newline_keeps_next_line() {
        // "ab\ncd\n" split at 3: split 2 starts right after a newline, so
        // "cd" belongs to split 2 and must not be skipped.
        let bytes = b"ab\ncd\n";
        let r2 = LineReader::new(Some(b'\n'), &bytes[3..], 3, 3);
        let lines: Vec<String> = r2.map(|(_, l)| l).collect();
        assert_eq!(lines, vec!["cd"]);
    }

    proptest::proptest! {
        #[test]
        fn prop_lines_survive_random_cuts(
            text in proptest::collection::vec("[a-z]{0,12}", 0..40),
            bs in 1usize..64,
        ) {
            let joined = text.join("\n");
            check_split_reading(&joined, bs);
        }

        #[test]
        fn prop_offsets_are_strictly_increasing(bs in 1usize..16) {
            let text = "one\ntwo\nthree\nfour five six\nseven\n";
            let bytes = text.as_bytes();
            let mut offs = Vec::new();
            for i in 0..bytes.len().div_ceil(bs) {
                let start = i * bs;
                let prev = if i == 0 { None } else { Some(bytes[start - 1]) };
                let split_len = bs.min(bytes.len() - start);
                offs.extend(
                    LineReader::new(prev, &bytes[start..], split_len, start as u64)
                        .map(|(o, _)| o),
                );
            }
            proptest::prop_assert!(offs.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
