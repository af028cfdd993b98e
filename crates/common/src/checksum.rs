//! CRC32 (IEEE 802.3 polynomial), implemented from scratch.
//!
//! HDFS checksums every 512-byte chunk of every block with CRC32 and
//! re-verifies on read and during the DataNode block scanner pass; the
//! "15 minutes of data-integrity checking" students experienced after a
//! cluster restart is this code path. We implement the reflected
//! table-driven algorithm with **slicing-by-8** (the same scheme `zlib`
//! and Hadoop's native CRC use): eight 256-entry tables, built at compile
//! time, fold 8 input bytes per loop iteration instead of 1.
//!
//! One such chain is bound by latency, not throughput: every step waits
//! for the previous step's table loads. So wherever there are four
//! stretches of bytes to hash, they are hashed **in lock-step** — four
//! independent chains the CPU overlaps. [`ChunkedChecksum`] has them for
//! free (four 512-byte chunks at a time); [`Crc32::update`] makes them by
//! cutting a long input into four lanes and stitching the lane CRCs back
//! together, which CRC's linearity allows: the state after `A ‖ B` is the
//! state after `A`, advanced through `|B|` zero bytes, XOR the state `B`
//! alone leaves from zero.

/// Streaming CRC32 state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32 {
    state: u32,
}

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables. `TABLES[0]` is the classic byte-at-a-time
/// table; `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, which lets one iteration advance the state across 8 bytes with
/// 8 independent (pipelinable) table loads.
static TABLES: [[u32; 256]; 8] = build_tables();

/// Bytes per lane when [`Crc32::update`] splits a long input four ways.
const LANE: usize = 1024;

/// `SHIFT[k][b]` is the state `b << 8k` advanced through [`LANE`] zero
/// bytes. Advancing is linear over XOR, so any state advances as the XOR
/// of its four bytes' entries.
static SHIFT: [[u32; 256]; 4] = build_shift();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

const fn build_shift() -> [[u32; 256]; 4] {
    let byte_table = build_tables();
    // The 32 one-bit states, each walked through LANE zero bytes; every
    // other entry is an XOR of these.
    let mut basis = [0u32; 32];
    let mut bit = 0;
    while bit < 32 {
        let mut crc = 1u32 << bit;
        let mut n = 0;
        while n < LANE {
            crc = (crc >> 8) ^ byte_table[0][(crc & 0xFF) as usize];
            n += 1;
        }
        basis[bit] = crc;
        bit += 1;
    }
    let mut shift = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            let mut bit = 0;
            while bit < 8 {
                if b & (1 << bit) != 0 {
                    shift[k][b] ^= basis[8 * k + bit];
                }
                bit += 1;
            }
            b += 1;
        }
        k += 1;
    }
    shift
}

/// Fold eight more bytes into a raw state.
#[inline(always)]
fn fold8(crc: u32, ch: &[u8]) -> u32 {
    let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ crc;
    let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
    TABLES[7][(lo & 0xFF) as usize]
        ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
        ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
        ^ TABLES[4][(lo >> 24) as usize]
        ^ TABLES[3][(hi & 0xFF) as usize]
        ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
        ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
        ^ TABLES[0][(hi >> 24) as usize]
}

/// One raw state through `data`: the 8-byte main loop, then the
/// byte-at-a-time table for the sub-8-byte tail.
fn fold(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        crc = fold8(crc, ch);
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The four equal quarters of `data`, whose length is a multiple of four.
fn quarters(data: &[u8]) -> [&[u8]; 4] {
    let (ab, cd) = data.split_at(data.len() / 2);
    let (a, b) = ab.split_at(ab.len() / 2);
    let (c, d) = cd.split_at(cd.len() / 2);
    [a, b, c, d]
}

/// Four raw states through four equally long stretches, in lock-step, so
/// the four dependency chains overlap.
fn fold4(mut crc: [u32; 4], data: [&[u8]; 4]) -> [u32; 4] {
    let len = data[0].len();
    let [a, b, c, d] = data.map(|lane| &lane[..len]);
    let main = len - len % 8;
    for at in (0..main).step_by(8) {
        crc[0] = fold8(crc[0], &a[at..at + 8]);
        crc[1] = fold8(crc[1], &b[at..at + 8]);
        crc[2] = fold8(crc[2], &c[at..at + 8]);
        crc[3] = fold8(crc[3], &d[at..at + 8]);
    }
    std::array::from_fn(|k| fold(crc[k], &data[k][main..len]))
}

/// Advance a raw state through [`LANE`] zero bytes.
#[inline]
fn shift_lane(crc: u32) -> u32 {
    SHIFT[0][(crc & 0xFF) as usize]
        ^ SHIFT[1][((crc >> 8) & 0xFF) as usize]
        ^ SHIFT[2][((crc >> 16) & 0xFF) as usize]
        ^ SHIFT[3][(crc >> 24) as usize]
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh checksum state.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feed more bytes. While at least `4 * LANE` remain they go four
    /// lanes at a time — the running state rides the first lane, the
    /// other three start from zero, and each lane's result is shifted
    /// past the lanes after it as they are joined; what is left goes down
    /// a single slicing-by-8 chain.
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.state;
        let mut rounds = data.chunks_exact(4 * LANE);
        for round in &mut rounds {
            let lanes = fold4([crc, 0, 0, 0], quarters(round));
            crc = lanes[0];
            for lane in &lanes[1..] {
                crc = shift_lane(crc) ^ lane;
            }
        }
        self.state = fold(crc, rounds.remainder());
    }

    /// Final checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }

    /// One-shot convenience.
    pub fn checksum(data: &[u8]) -> u32 {
        let mut c = Crc32::new();
        c.update(data);
        c.finish()
    }
}

/// Per-chunk checksums for a block, HDFS-style: one CRC32 per
/// `chunk_size` bytes (Hadoop's `io.bytes.per.checksum`, default 512).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkedChecksum {
    /// Bytes covered by each CRC.
    pub chunk_size: usize,
    /// One CRC per chunk, in order; the last chunk may be short.
    pub crcs: Vec<u32>,
}

/// Hand `visit` the CRC32 of each `chunk_size` chunk of `data`, in order,
/// until it returns `false`. Full chunks are hashed four at a time in
/// lock-step; the last one to three chunks (one of which may be short)
/// one after another.
fn each_chunk_crc(data: &[u8], chunk_size: usize, mut visit: impl FnMut(u32) -> bool) {
    let mut batches = data.chunks_exact(chunk_size.saturating_mul(4));
    for batch in &mut batches {
        for crc in fold4([0xFFFF_FFFF; 4], quarters(batch)) {
            if !visit(crc ^ 0xFFFF_FFFF) {
                return;
            }
        }
    }
    for chunk in batches.remainder().chunks(chunk_size) {
        if !visit(Crc32::checksum(chunk)) {
            return;
        }
    }
}

impl ChunkedChecksum {
    /// Compute chunked checksums over `data`.
    pub fn compute(data: &[u8], chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk_size must be positive");
        let mut crcs = Vec::with_capacity(data.len().div_ceil(chunk_size));
        each_chunk_crc(data, chunk_size, |crc| {
            crcs.push(crc);
            true
        });
        ChunkedChecksum { chunk_size, crcs }
    }

    /// Verify `data` against the stored CRCs; returns the index of the first
    /// corrupt chunk, or `None` when clean. Length mismatches count as
    /// corruption of the first divergent chunk.
    pub fn verify(&self, data: &[u8]) -> Option<usize> {
        let chunks = data.len().div_ceil(self.chunk_size);
        if chunks != self.crcs.len() {
            return Some(chunks.min(self.crcs.len()));
        }
        let mut clean = 0;
        each_chunk_crc(data, self.chunk_size, |crc| {
            let ok = crc == self.crcs[clean];
            clean += usize::from(ok);
            ok
        });
        (clean < chunks).then_some(clean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical CRC-32/IEEE check value.
        assert_eq!(Crc32::checksum(b"123456789"), 0xCBF4_3926);
        assert_eq!(Crc32::checksum(b""), 0x0000_0000);
        assert_eq!(Crc32::checksum(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// Plain bitwise CRC32, no tables: ground truth for the sliced version.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    /// Deterministic test bytes with no short period.
    fn noise(n: usize) -> Vec<u8> {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn sliced_matches_bitwise_reference_all_lengths() {
        // Every length 0..=64 exercises the 8-byte main loop and each
        // possible tail remainder; offsets shift byte alignment.
        let data = noise(4 * LANE + 64);
        for off in 0..8 {
            for len in 0..=64 {
                let slice = &data[off..off + len];
                assert_eq!(
                    Crc32::checksum(slice),
                    crc32_bitwise(slice),
                    "mismatch at off={off} len={len}"
                );
            }
        }
        // Around the point where the four-lane path takes over: one round
        // short of it, exactly it, and a round plus every kind of tail.
        for len in 4 * LANE - 17..=4 * LANE + 17 {
            for off in [0, 3] {
                let slice = &data[off..off + len];
                assert_eq!(Crc32::checksum(slice), crc32_bitwise(slice), "off={off} len={len}");
            }
        }
    }

    #[test]
    fn lanes_match_bitwise_reference_on_long_inputs() {
        // Several rounds of lanes, with and without a tail.
        let data = noise(3 * 1024 * 1024 + 4 * LANE + 5);
        for len in [8 * LANE, 8 * LANE + 1, 12 * LANE - 1, 1 << 20, data.len()] {
            assert_eq!(Crc32::checksum(&data[..len]), crc32_bitwise(&data[..len]), "len={len}");
        }
        // Streaming: wherever the input is cut, and whether a piece takes
        // the lane path or not, the state carries across.
        let want = crc32_bitwise(&data);
        let mut cuts = noise(4096).into_iter().map(usize::from).cycle();
        let mut cut = move || cuts.next().unwrap_or(1);
        for _ in 0..8 {
            let mut c = Crc32::new();
            let mut rest = data.as_slice();
            while !rest.is_empty() {
                // Pieces from one byte to tens of KiB.
                let take = (1 + cut() * cut() / 6 * 7).min(rest.len());
                c.update(&rest[..take]);
                rest = &rest[take..];
            }
            assert_eq!(c.finish(), want);
        }
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut c = Crc32::new();
        for chunk in data.chunks(97) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), Crc32::checksum(&data));
    }

    #[test]
    fn chunked_detects_single_bit_flip() {
        let mut data: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let sums = ChunkedChecksum::compute(&data, 512);
        assert_eq!(sums.crcs.len(), 8);
        assert_eq!(sums.verify(&data), None);
        data[2048 + 13] ^= 0x01; // flip one bit in chunk 4
        assert_eq!(sums.verify(&data), Some(4));
    }

    #[test]
    fn chunked_detects_truncation_and_growth() {
        let data = vec![7u8; 1500];
        let sums = ChunkedChecksum::compute(&data, 512);
        assert_eq!(sums.crcs.len(), 3);
        assert!(sums.verify(&data[..1000]).is_some());
        let mut longer = data.clone();
        longer.extend_from_slice(&[1, 2, 3]);
        assert!(sums.verify(&longer).is_some());
    }

    #[test]
    fn short_final_chunk_is_covered() {
        let data = vec![9u8; 513];
        let sums = ChunkedChecksum::compute(&data, 512);
        assert_eq!(sums.crcs.len(), 2);
        let mut tweaked = data.clone();
        tweaked[512] = 8;
        assert_eq!(sums.verify(&tweaked), Some(1));
    }

    #[test]
    fn chunked_matches_one_crc_per_chunk_at_every_shape() {
        // Chunk sizes that are and are not multiples of the 8-byte fold,
        // data that ends on a batch of four, inside one, and short of one.
        let data = noise(9 * 520 + 3);
        for chunk_size in [1, 7, 8, 13, 100, 512, 519, 520] {
            let c = chunk_size;
            for len in [0, 1, c, 3 * c, 4 * c, 4 * c + 1, 7 * c + 3, 8 * c, data.len()] {
                let data = &data[..len.min(data.len())];
                let sums = ChunkedChecksum::compute(data, chunk_size);
                let want: Vec<u32> = data.chunks(chunk_size).map(crc32_bitwise).collect();
                assert_eq!(sums.crcs, want, "chunk_size={chunk_size} len={len}");
                assert_eq!(sums.verify(data), None);
            }
        }
    }

    #[test]
    fn verify_names_the_lowest_corrupt_chunk() {
        let data = noise(11 * 512 + 100); // two batches of four, then 3 + a short one
        let sums = ChunkedChecksum::compute(&data, 512);
        assert_eq!(sums.crcs.len(), 12);
        // Two bad chunks inside one lock-step batch: the lower one wins,
        // whichever order they were damaged in.
        for (first, second) in [(5, 6), (6, 5), (4, 7), (7, 4), (1, 6), (9, 11), (11, 8)] {
            let mut bad = data.clone();
            bad[first * 512 + 17] ^= 0x40;
            bad[second * 512 + 99] ^= 0x01;
            assert_eq!(sums.verify(&bad), Some(first.min(second)));
        }
        // Every chunk on its own, including the short last one.
        for chunk in 0..12 {
            let mut bad = data.clone();
            bad[chunk * 512] ^= 0x80;
            assert_eq!(sums.verify(&bad), Some(chunk));
        }
    }
}
