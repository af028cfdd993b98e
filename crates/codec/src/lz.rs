//! The raw LZ77 block format: a greedy hash-table matcher in the LZ4
//! family, chosen for the same reason the course clusters ran LZO — the
//! decode side is nothing but copies (sixteen bytes at a time, here), so
//! the CPU spent per saved disk/NIC byte is small enough for compression
//! to win on I/O-bound jobs (the tradeoff the paper's wordcount study
//! measures), while the encode side pays a hash probe per input byte.
//!
//! Block layout is a sequence of *sequences*:
//!
//! ```text
//! sequence := token | [literal-length ext] | literals
//!             | match-offset (2 bytes LE) | [match-length ext]
//! token    := (literal_len nibble << 4) | (match_len - 4) nibble
//! ```
//!
//! A nibble of 15 spills into extension bytes (add each byte, stop at the
//! first byte != 255). The final sequence is literals-only: the block ends
//! after its literals, with no offset. Matches are at least [`MIN_MATCH`]
//! bytes and reach back at most [`MAX_OFFSET`] bytes; overlapping copies
//! are legal (that is how runs compress).

use hl_common::prelude::*;

/// Shortest match worth encoding (below this a literal is cheaper).
const MIN_MATCH: usize = 4;

/// Farthest a match may reach back (2-byte offset).
const MAX_OFFSET: usize = 0xFFFF;

/// Hash-table size: 2^13 slots of last-seen positions.
const HASH_BITS: u32 = 13;

#[inline]
fn hash4(v: u32) -> usize {
    // Knuth multiplicative hash over the 4-byte window.
    (v.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
}

/// Append a length value that overflowed its 4-bit token nibble.
fn write_len_ext(mut v: usize, out: &mut Vec<u8>) {
    debug_assert!(v >= 15);
    v -= 15;
    while v >= 255 {
        out.push(255);
        v -= 255;
    }
    out.push(v as u8);
}

/// Emit one sequence: `literals` then a match of `mlen` at `offset` back.
fn emit_match(literals: &[u8], offset: u16, mlen: usize, out: &mut Vec<u8>) {
    debug_assert!(mlen >= MIN_MATCH && offset >= 1);
    let lit_nibble = literals.len().min(15) as u8;
    let match_nibble = (mlen - MIN_MATCH).min(15) as u8;
    out.push((lit_nibble << 4) | match_nibble);
    if literals.len() >= 15 {
        write_len_ext(literals.len(), out);
    }
    out.extend_from_slice(literals);
    out.extend_from_slice(&offset.to_le_bytes());
    if mlen - MIN_MATCH >= 15 {
        write_len_ext(mlen - MIN_MATCH, out);
    }
}

/// Emit the final, literals-only sequence (always present, possibly empty,
/// so the decoder has an unambiguous end-of-block).
fn emit_final(literals: &[u8], out: &mut Vec<u8>) {
    let lit_nibble = literals.len().min(15) as u8;
    out.push(lit_nibble << 4);
    if literals.len() >= 15 {
        write_len_ext(literals.len(), out);
    }
    out.extend_from_slice(literals);
}

/// The four bytes at `at` as one little-endian word.
#[inline]
fn load32(src: &[u8], at: usize) -> u32 {
    let bytes: [u8; 4] = src[at..at + 4].try_into().expect("a four-byte slice");
    u32::from_le_bytes(bytes)
}

/// Length of the common prefix of `a` and `b`, eight bytes per step: the
/// lowest set bit of the XOR of two little-endian words names the first
/// byte that differs.
#[inline]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut n = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let x = u64::from_le_bytes(x.try_into().expect("an eight-byte chunk"));
        let y = u64::from_le_bytes(y.try_into().expect("an eight-byte chunk"));
        if x != y {
            return n + ((x ^ y).trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    n + a[n..].iter().zip(&b[n..]).take_while(|(x, y)| x == y).count()
}

/// The greedy matcher, holding the one piece of state worth keeping
/// between blocks: its hash table. A container of many frames reuses one
/// `Encoder`, so a frame costs no allocation and no 32 KiB clear.
///
/// Output is a function of the block alone. A slot holds
/// `base + position + 1`, and `base` moves past every position of a block
/// once it is done, so whatever an earlier block left in the table reads
/// as empty — exactly what a freshly zeroed table would say.
#[derive(Debug, Clone)]
pub(crate) struct Encoder {
    table: Box<[u32; 1 << HASH_BITS]>,
    base: u32,
}

impl Default for Encoder {
    fn default() -> Self {
        Self::new()
    }
}

impl Encoder {
    /// A matcher with an empty table.
    pub(crate) fn new() -> Self {
        Encoder { table: Box::new([0; 1 << HASH_BITS]), base: 0 }
    }

    /// Compress one block onto the end of `out`. Never fails; worst case
    /// the output is the input plus sequence overhead (the framing layer
    /// falls back to stored frames when that happens).
    ///
    /// # Panics
    /// If `src` is 4 GiB or longer: table slots are 32-bit positions.
    pub(crate) fn compress_block_into(&mut self, src: &[u8], out: &mut Vec<u8>) {
        let span = u32::try_from(src.len()).expect("lz blocks are shorter than 4 GiB");
        let base = match self.base.checked_add(span) {
            Some(_) => self.base,
            None => {
                self.table.fill(0);
                0
            }
        };
        self.base = base + span;
        let mut anchor = 0usize;
        let mut i = 0usize;
        while i + MIN_MATCH <= src.len() {
            let v = load32(src, i);
            let slot = &mut self.table[hash4(v)];
            let candidate = *slot;
            *slot = base + i as u32 + 1;
            if candidate > base {
                let c = (candidate - base - 1) as usize;
                if i - c <= MAX_OFFSET && load32(src, c) == v {
                    let mlen =
                        MIN_MATCH + common_prefix(&src[c + MIN_MATCH..], &src[i + MIN_MATCH..]);
                    emit_match(&src[anchor..i], (i - c) as u16, mlen, out);
                    i += mlen;
                    anchor = i;
                    continue;
                }
            }
            i += 1;
        }
        emit_final(&src[anchor..], out);
    }
}

fn eof(what: &str) -> HlError {
    HlError::Codec(format!("lz block truncated reading {what}"))
}

fn overrun() -> HlError {
    HlError::Codec("lz block expands past its declared length".into())
}

/// Read a nibble-overflow length extension.
fn read_len_ext(src: &[u8], i: &mut usize) -> Result<usize> {
    let mut v = 15usize;
    loop {
        let b = *src.get(*i).ok_or_else(|| eof("length extension"))?;
        *i += 1;
        v += b as usize;
        if b != 255 {
            return Ok(v);
        }
    }
}

/// The most bytes a block of `block_len` bytes can decode to.
///
/// Literals and their length extensions yield at most one byte per input
/// byte. A match sequence is a token, a 2-byte offset and `k` extension
/// bytes, all but the last 255 and the last at most 254, so its length is
/// at most `MIN_MATCH + 15 + 255 (k - 1) + 254 = 255 k + 18` (for `k = 0`
/// the nibble caps it at `MIN_MATCH + 14 = 18` too). A match copies bytes
/// already decoded, so the first one follows at least one literal, and a
/// block ends with a literals-only token. One more match costs three bytes
/// for at most 18 more; three more extension bytes give 765. The largest
/// output of `n >= 5` bytes is thus one literal and one match,
/// `1 + 255 (n - 5) + 18 = 255 n - 1256`; below five bytes there is no
/// room for a match, and a block decodes to at most `n - 1` literals.
pub(crate) fn max_decoded_len(block_len: u64) -> u64 {
    if block_len >= 5 {
        block_len.saturating_mul(255) - 1256
    } else {
        block_len.saturating_sub(1)
    }
}

/// Width of the fixed-size copies the decoder prefers: a literal run or a
/// match of at most this many bytes moves as one 16-byte load and store,
/// whatever its real length, when both buffers have that much room.
const WIDE: usize = 16;

/// Decompress one block so that it fills `dst` exactly.
///
/// Match offsets count back from the start of `dst`: an offset that
/// reaches before the block's first byte is rejected even when `dst` is
/// the tail of a buffer that holds earlier blocks' bytes.
///
/// The slack rule: a wide copy writes `WIDE` bytes at the cursor and then
/// advances it by the sequence's real length, so it may scribble up to
/// `WIDE - 1` bytes past what it owes. That is only done while those
/// bytes are still inside `dst` (and the literal source inside `src`);
/// every later sequence overwrites them before anything reads them,
/// because a match may only read below the cursor. Near either buffer's
/// end the exact-length copies take over.
pub fn decompress_block_to(src: &[u8], dst: &mut [u8]) -> Result<()> {
    let mut i = 0usize; // read cursor in src
    let mut o = 0usize; // write cursor in dst
    loop {
        let token = *src.get(i).ok_or_else(|| eof("token"))?;
        i += 1;
        let mut lit = (token >> 4) as usize;
        if lit == 15 {
            lit = read_len_ext(src, &mut i)?;
        }
        if lit <= WIDE && i + WIDE <= src.len() && o + WIDE <= dst.len() {
            dst[o..o + WIDE].copy_from_slice(&src[i..i + WIDE]);
        } else {
            let lit_end =
                i.checked_add(lit).filter(|&e| e <= src.len()).ok_or_else(|| eof("literals"))?;
            dst.get_mut(o..o + lit).ok_or_else(overrun)?.copy_from_slice(&src[i..lit_end]);
        }
        i += lit;
        o += lit;
        if i == src.len() {
            break; // final, literals-only sequence
        }
        let offset = match src.get(i..i + 2) {
            Some(b) => u16::from_le_bytes([b[0], b[1]]) as usize,
            None => return Err(eof("match offset")),
        };
        i += 2;
        let mut mlen = (token & 0x0F) as usize;
        if mlen == 15 {
            mlen = read_len_ext(src, &mut i)?;
        }
        mlen += MIN_MATCH;
        if offset == 0 || offset > o {
            return Err(HlError::Codec(format!(
                "lz match offset {offset} outside the {o} bytes decoded so far"
            )));
        }
        if mlen > dst.len() - o {
            return Err(overrun());
        }
        let from = o - offset;
        if offset >= mlen {
            // The bytes owed are disjoint from their source. A wide copy's
            // excess may not be, so it loads all sixteen bytes before it
            // stores any (and as a load and a store it is several times
            // cheaper than a `copy_within` of the same sixteen bytes).
            if mlen <= WIDE && o + WIDE <= dst.len() {
                let wide: [u8; WIDE] =
                    dst[from..from + WIDE].try_into().expect("a WIDE-byte slice");
                dst[o..o + WIDE].copy_from_slice(&wide);
            } else {
                dst.copy_within(from..from + mlen, o);
            }
        } else {
            // A true overlap: the match reads bytes it has itself just
            // written (a run of period `offset`), so order matters.
            for at in o..o + mlen {
                dst[at] = dst[at - offset];
            }
        }
        o += mlen;
    }
    if o != dst.len() {
        return Err(HlError::Codec(format!(
            "lz block decoded to {o} bytes, frame declared {}",
            dst.len()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcg_bytes as lcg;
    use proptest::prelude::*;

    /// The kernels this module had before they were rewritten for speed:
    /// one byte per step, one bounds check per byte, nothing clever. The
    /// tests hold the fast kernels to these, input for input.
    mod reference {
        use super::super::*;

        pub fn compress_block(src: &[u8]) -> Vec<u8> {
            let mut out = Vec::new();
            let mut table = vec![0u32; 1 << HASH_BITS];
            let mut anchor = 0usize;
            let mut i = 0usize;
            while i + MIN_MATCH <= src.len() {
                let v = u32::from_le_bytes([src[i], src[i + 1], src[i + 2], src[i + 3]]);
                let slot = hash4(v);
                let candidate = table[slot] as usize;
                table[slot] = (i + 1) as u32;
                if candidate > 0 {
                    let c = candidate - 1;
                    if i - c <= MAX_OFFSET && src[c..c + MIN_MATCH] == src[i..i + MIN_MATCH] {
                        let mut mlen = MIN_MATCH;
                        while i + mlen < src.len() && src[c + mlen] == src[i + mlen] {
                            mlen += 1;
                        }
                        emit_match(&src[anchor..i], (i - c) as u16, mlen, &mut out);
                        i += mlen;
                        anchor = i;
                        continue;
                    }
                }
                i += 1;
            }
            emit_final(&src[anchor..], &mut out);
            out
        }

        pub fn decompress_block(src: &[u8], raw_len: usize) -> Result<Vec<u8>> {
            let mut out = Vec::with_capacity(raw_len);
            let mut i = 0usize;
            loop {
                let token = *src.get(i).ok_or_else(|| eof("token"))?;
                i += 1;
                let mut lit = (token >> 4) as usize;
                if lit == 15 {
                    lit = read_len_ext(src, &mut i)?;
                }
                let lit_end = i
                    .checked_add(lit)
                    .filter(|&e| e <= src.len())
                    .ok_or_else(|| eof("literals"))?;
                out.extend_from_slice(&src[i..lit_end]);
                i = lit_end;
                if out.len() > raw_len {
                    return Err(overrun());
                }
                if i == src.len() {
                    break;
                }
                if i + 2 > src.len() {
                    return Err(eof("match offset"));
                }
                let offset = u16::from_le_bytes([src[i], src[i + 1]]) as usize;
                i += 2;
                let mut mlen = (token & 0x0F) as usize;
                if mlen == 15 {
                    mlen = read_len_ext(src, &mut i)?;
                }
                mlen += MIN_MATCH;
                if offset == 0 || offset > out.len() {
                    return Err(HlError::Codec("lz match offset out of range".into()));
                }
                if out.len() + mlen > raw_len {
                    return Err(overrun());
                }
                for _ in 0..mlen {
                    let b = out[out.len() - offset];
                    out.push(b);
                }
            }
            if out.len() != raw_len {
                return Err(HlError::Codec("lz block length mismatch".into()));
            }
            Ok(out)
        }
    }

    fn compress_block(src: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        Encoder::new().compress_block_into(src, &mut out);
        out
    }

    /// Decompress one block onto the end of `out`; on any error `out` is
    /// left at the length it came in with.
    fn decompress_block_into(src: &[u8], raw_len: usize, out: &mut Vec<u8>) -> Result<()> {
        let start = out.len();
        out.resize(start + raw_len, 0);
        let result = decompress_block_to(src, &mut out[start..]);
        if result.is_err() {
            out.truncate(start);
        }
        result
    }

    fn decompress_block(src: &[u8], raw_len: usize) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        decompress_block_into(src, raw_len, &mut out).map(|()| out)
    }

    /// The fast decoder against the reference, on the end of a buffer that
    /// already holds bytes: the same bytes out, or an error from both and
    /// the buffer untouched.
    fn assert_decodes_like_reference(src: &[u8], raw_len: usize) {
        let prefix = b"earlier frames' bytes, which no offset may reach";
        let mut out = prefix.to_vec();
        let got = decompress_block_into(src, raw_len, &mut out);
        match reference::decompress_block(src, raw_len) {
            Ok(want) => {
                got.expect("reference decodes, fast decoder must too");
                assert_eq!(&out[prefix.len()..], want, "decoded bytes differ");
            }
            Err(_) => {
                assert!(got.is_err(), "reference rejects, fast decoder accepted");
                assert_eq!(out.len(), prefix.len(), "an error must restore the buffer's length");
            }
        }
        assert_eq!(&out[..prefix.len()], prefix, "bytes before the block were touched");
    }

    fn round_trip(src: &[u8]) {
        let packed = compress_block(src);
        assert_eq!(packed, reference::compress_block(src), "encoder output moved");
        let unpacked = decompress_block(&packed, src.len()).unwrap();
        assert_eq!(unpacked, src);
        assert_decodes_like_reference(&packed, src.len());
    }

    /// The block of `n` bytes that decodes to the most: for `n >= 5`
    /// one literal, one match as long as `n - 5` extension bytes can say
    /// and the empty final token; below that, literals only.
    fn longest_block(n: usize) -> Vec<u8> {
        if n < 5 {
            let mut block = vec![(n as u8 - 1) << 4];
            block.resize(n, b'x');
            return block;
        }
        let ext = n - 5;
        let mut block = vec![if ext == 0 { 0x1E } else { 0x1F }, b'x', 1, 0];
        block.resize(4 + ext.saturating_sub(1), 255);
        if ext > 0 {
            block.push(254);
        }
        block.push(0);
        block
    }

    #[test]
    fn the_longest_block_of_each_length_decodes_to_max_decoded_len() {
        for n in 1..600 {
            let block = longest_block(n);
            assert_eq!(block.len(), n);
            let max = max_decoded_len(n as u64) as usize;
            assert_eq!(decompress_block(&block, max).unwrap().len(), max, "{n} bytes");
            assert!(decompress_block(&block, max + 1).is_err());
        }
        assert_eq!(max_decoded_len(0), 0);
    }

    #[test]
    fn block_round_trips_on_edge_shapes() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abcd");
        round_trip(b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa");
        round_trip("the quick brown fox jumps over the lazy dog ".repeat(40).as_bytes());
        // Exactly-min-match repeats and a long literal tail.
        let mut v = b"wxyzwxyz".to_vec();
        v.extend((0u16..400).flat_map(|n| n.to_be_bytes()));
        round_trip(&v);
    }

    #[test]
    fn repetitive_input_compresses_hard() {
        let src = b"hadoop ".repeat(10_000);
        let packed = compress_block(&src);
        assert!(
            packed.len() * 10 < src.len(),
            "{} bytes only packed to {}",
            src.len(),
            packed.len()
        );
        assert_eq!(decompress_block(&packed, src.len()).unwrap(), src);
    }

    #[test]
    fn corrupt_blocks_are_errors_not_panics() {
        let src = b"mapreduce shuffles sorted runs ".repeat(64);
        let packed = compress_block(&src);
        // Truncations anywhere must error (never panic, never OOM).
        for cut in 0..packed.len() {
            assert!(decompress_block(&packed[..cut], src.len()).is_err());
        }
        // Wrong declared length is caught.
        assert!(decompress_block(&packed, src.len() - 1).is_err());
        assert!(decompress_block(&packed, src.len() + 1).is_err());
        // A zero offset is invalid.
        assert!(decompress_block(&[0x01, b'x', 0x00, 0x00], 10).is_err());
    }

    #[test]
    fn one_encoder_gives_every_block_a_fresh_table() {
        // The second block repeats the first: a stale slot would offer it
        // matches at positions that belong to the other block.
        let a = b"the namenode keeps the namespace in memory ".repeat(30);
        let b = lcg(7, 3000);
        let mut shared = Encoder::new();
        for block in [&a[..], &b, &a, &a[5..], b"", &b[..9], &a] {
            let mut out = b"kept".to_vec();
            shared.compress_block_into(block, &mut out);
            assert_eq!(&out[4..], reference::compress_block(block));
        }
        // When positions would run past 32 bits the table starts over.
        shared.base = u32::MAX - 100;
        let mut out = Vec::new();
        shared.compress_block_into(&a, &mut out);
        assert_eq!(out, reference::compress_block(&a));
        assert_eq!(shared.base as usize, a.len());
    }

    /// One sequence: `lit` literal bytes, then a match.
    fn sequence(literals: &[u8], offset: u16, mlen: usize) -> Vec<u8> {
        let mut out = Vec::new();
        emit_match(literals, offset, mlen, &mut out);
        out
    }

    #[test]
    fn overlapping_copies_at_every_small_offset_and_length() {
        // Offsets 1..=15 are shorter than the wide copy; lengths straddle
        // it. Each block is seed literals, one match, a literal tail of
        // 0, 3 or 40 bytes (so the match lands with and without slack).
        let seed = lcg(3, 40);
        for offset in 1..=40u16 {
            for mlen in MIN_MATCH..=50 {
                for tail in [0usize, 3, 40] {
                    let mut block = sequence(&seed, offset, mlen);
                    emit_final(&lcg(5, tail), &mut block);
                    let raw_len = seed.len() + mlen + tail;
                    assert_decodes_like_reference(&block, raw_len);
                    assert!(decompress_block(&block, raw_len).is_ok(), "{offset}/{mlen}/{tail}");
                }
            }
        }
    }

    #[test]
    fn blocks_shorter_than_the_wide_copy_decode() {
        for n in 0..=2 * WIDE {
            round_trip(&lcg(11, n));
            round_trip(&vec![b'z'; n]);
            round_trip(&b"abc".repeat(n)[..n]);
        }
    }

    #[test]
    fn an_offset_may_not_reach_before_its_own_block() {
        // Five literals then a match six back: inside a shared buffer the
        // byte is there, but it belongs to an earlier block.
        let block = sequence(b"hello", 6, 8);
        let mut out = vec![b'#'; 100];
        assert!(decompress_block_into(&block, 13, &mut out).is_err());
        assert_eq!(out, vec![b'#'; 100]);
        // Five back is the block's first byte and is fine.
        let mut block = sequence(b"hello", 5, 8);
        emit_final(b"", &mut block);
        decompress_block_into(&block, 13, &mut out).unwrap();
        assert_eq!(&out[100..], b"hellohellohel");
    }

    #[test]
    fn every_truncation_and_bit_flip_decodes_like_the_reference() {
        let mut src = b"blk_1073741825 blk_1073741826 ".repeat(12);
        src.extend(lcg(9, 60));
        src.extend(vec![b'='; 70]);
        let packed = compress_block(&src);
        for cut in 0..=packed.len() {
            assert_decodes_like_reference(&packed[..cut], src.len());
        }
        for bit in 0..packed.len() * 8 {
            let mut flipped = packed.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_decodes_like_reference(&flipped, src.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: crate::fuzz_cases(256), ..ProptestConfig::default() })]

        #[test]
        fn prop_block_round_trips_arbitrary(src in proptest::collection::vec(any::<u8>(), 0..4096)) {
            round_trip(&src);
        }

        #[test]
        fn prop_block_round_trips_repetitive(
            unit in proptest::collection::vec(0u8..4, 1..12),
            reps in 1usize..600,
        ) {
            round_trip(&unit.repeat(reps));
        }

        #[test]
        fn prop_decoder_matches_reference_on_garbage(
            junk in proptest::collection::vec(any::<u8>(), 0..512),
            raw_len in 0usize..2048,
        ) {
            // Any byte soup either decodes to exactly raw_len bytes or
            // errors, and the reference agrees which.
            assert_decodes_like_reference(&junk, raw_len);
        }

        #[test]
        fn prop_decoder_matches_reference_on_damaged_blocks(
            unit in proptest::collection::vec(any::<u8>(), 1..40),
            reps in 1usize..80,
            noise in proptest::collection::vec(any::<u8>(), 0..64),
            damage in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..4),
            raw_len_delta in -2i64..3,
        ) {
            let mut src = unit.repeat(reps);
            src.extend_from_slice(&noise);
            let mut packed = compress_block(&src);
            for (at, xor) in damage {
                let at = at % packed.len();
                packed[at] ^= xor;
            }
            let raw_len = (src.len() as i64 + raw_len_delta).max(0) as usize;
            assert_decodes_like_reference(&packed, raw_len);
        }
    }
}
