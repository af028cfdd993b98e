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
    /// `data` from the first owned record to its end, when that is valid
    /// UTF-8 (checked once, in `new`), with the index it starts at.
    text: Option<(usize, &'a str)>,
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
        let mut pos = 0;
        if prev_byte.is_some_and(|b| b != b'\n') {
            // Skip the tail of the previous split's last record; if no
            // newline follows, nothing starts here.
            pos = data.iter().position(|&x| x == b'\n').map_or(data.len(), |i| i + 1);
        }
        // Lines end at `\n`, an ASCII byte, so every line of valid text is
        // valid text too, and is lent without another check.
        let text = std::str::from_utf8(&data[pos..]).ok().map(|text| (pos, text));
        LineReader { data, text, split_len: split_len.min(data.len()), pos, offset }
    }

    /// The next record as `(file offset of its first byte, line)`, the line
    /// borrowed from the split's bytes. Only a split that is not valid
    /// UTF-8 is decoded line by line, and only such a line is copied
    /// (lossily, as `TextInputFormat` decodes it).
    pub(crate) fn next_line(&mut self) -> Option<(u64, Cow<'a, str>)> {
        if self.pos >= self.split_len {
            return None;
        }
        let start = self.pos;
        let newline = match self.text {
            Some((base, text)) => text[start - base..].find('\n'),
            None => self.data[start..].iter().position(|&b| b == b'\n'),
        };
        let mut end = match newline {
            Some(i) => {
                self.pos = start + i + 1;
                start + i
            }
            None => {
                self.pos = self.data.len();
                self.data.len()
            }
        };
        if end > start && self.data[end - 1] == b'\r' {
            end -= 1;
        }
        let line = match self.text {
            Some((base, text)) => Cow::Borrowed(&text[start - base..end - base]),
            None => String::from_utf8_lossy(&self.data[start..end]),
        };
        Some((self.offset + start as u64, line))
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

    /// The reader before it checked a split's text once: every line found
    /// byte by byte and decoded on its own.
    fn reference(
        prev_byte: Option<u8>,
        data: &[u8],
        split_len: usize,
        offset: u64,
    ) -> Vec<(u64, Cow<'_, str>)> {
        let split_len = split_len.min(data.len());
        let mut pos = 0;
        if let Some(b) = prev_byte {
            if b != b'\n' {
                match data.iter().position(|&x| x == b'\n') {
                    Some(i) => pos = i + 1,
                    None => pos = data.len(),
                }
            }
        }
        let mut out = Vec::new();
        while pos < split_len {
            let start = pos;
            let line_end = match data[start..].iter().position(|&b| b == b'\n') {
                Some(i) => {
                    pos = start + i + 1;
                    start + i
                }
                None => {
                    pos = data.len();
                    data.len()
                }
            };
            let mut line = &data[start..line_end];
            if line.last() == Some(&b'\r') {
                line = &line[..line.len() - 1];
            }
            if line.is_empty() && line_end == data.len() && start == line_end {
                break;
            }
            out.push((offset + start as u64, String::from_utf8_lossy(line)));
        }
        out
    }

    /// Pieces of a file: letters, line ends of every kind and multi-byte
    /// characters (a split may start inside one), then, from `VALID` on,
    /// bytes that are not UTF-8.
    const PIECES: [&[u8]; 14] = [
        b"a",
        b"b",
        b" ",
        b"word",
        b"\n",
        b"\n",
        b"\r\n",
        b"\r",
        "\u{e9}".as_bytes(),
        "\u{1F600}".as_bytes(),
        b"\xFF",
        b"\x80",
        b"\xC3",
        b"\xF0\x9F\x98",
    ];
    const VALID: usize = 10;

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
        fn prop_one_check_per_split_reads_what_each_line_decoded(
            pieces in proptest::collection::vec(
                proptest::prop_oneof![12 => 0..VALID, 1 => VALID..PIECES.len()],
                0..60,
            ),
            valid_only: bool,
            at in 0usize..1000,
            split_len in 0usize..80,
            first_prev in 0usize..3,
        ) {
            let data: Vec<u8> = pieces
                .iter()
                .filter(|&&i| !valid_only || i < VALID)
                .flat_map(|&i| PIECES[i].iter().copied())
                .collect();
            // Anywhere in the file, mid-character included; at the start,
            // no byte before, a newline before or another byte before.
            let from = at * (data.len() + 1) / 1000;
            let prev_byte = match from.checked_sub(1) {
                Some(p) => Some(data[p]),
                None => [None, Some(b'\n'), Some(b'x')][first_prev],
            };
            let split = &data[from..];
            let mut reader = LineReader::new(prev_byte, split, split_len, from as u64);
            let got: Vec<_> = std::iter::from_fn(|| reader.next_line()).collect();
            let want = reference(prev_byte, split, split_len, from as u64);
            // Offsets, text, and which lines are lent rather than copied.
            let lent = |lines: &[(u64, Cow<str>)]| -> Vec<bool> {
                lines.iter().map(|(_, l)| matches!(l, Cow::Borrowed(_))).collect()
            };
            proptest::prop_assert_eq!(&got, &want, "{:?} from {} prev {:?}", data, from, prev_byte);
            proptest::prop_assert_eq!(lent(&got), lent(&want));
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
