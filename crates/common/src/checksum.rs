//! CRC32 (IEEE 802.3 polynomial), implemented from scratch.
//!
//! HDFS checksums every 512-byte chunk of every block with CRC32 and
//! re-verifies on read and during the DataNode block scanner pass; the
//! "15 minutes of data-integrity checking" students experienced after a
//! cluster restart is this code path. Two kernels compute the same
//! function, and which one runs is decided by the CPU and the length of
//! the stretch in hand, never by an option:
//!
//! * **Carry-less multiply** (the private `clmul` module): on an x86-64
//!   CPU that reports `pclmulqdq`, a stretch of 64 bytes or more is folded
//!   64 bytes per step through four 128-bit accumulators and reduced to 32
//!   bits once at its end — the scheme of Intel's "Fast CRC Computation
//!   Using PCLMULQDQ", also in zlib and the Linux kernel. That is every
//!   [`Crc32::update`] of 64 bytes or more, whatever state it continues
//!   from, and every chunk of a [`ChunkedChecksum`] whose chunks are that
//!   long (HDFS's 512 are), so block writes, reads, the block scanner and
//!   the codec's frame CRCs all take it.
//! * **Tables** (everything else in this file): the reflected
//!   table-driven algorithm with **slicing-by-8** (the scheme `zlib` and
//!   Hadoop's native CRC use without the instruction): eight 256-entry
//!   tables, built at compile time, fold 8 input bytes per loop iteration
//!   instead of 1. It runs on every other CPU, on stretches under 64
//!   bytes, on the sub-16-byte tail the fold leaves, and in the tests as
//!   the oracle the fold is held to, next to a bit-at-a-time reference.
//!
//! One table chain is bound by latency, not throughput: every step waits
//! for the previous step's table loads. So wherever there are four
//! stretches of bytes to hash, the table path hashes them **in
//! lock-step** — four independent chains the CPU overlaps.
//! [`ChunkedChecksum`] has them for free (four chunks at a time);
//! [`Crc32::update`] makes them by cutting a long input into four lanes
//! and stitching the lane CRCs back together, which CRC's linearity
//! allows: the state after `A ‖ B` is the state after `A`, advanced
//! through `|B|` zero bytes, XOR the state `B` alone leaves from zero.
//!
//! The fold is the one place in the workspace that needs `unsafe`: calling
//! a function compiled for a CPU feature from one that is not. `hl-common`
//! denies `unsafe_code` and allows it on that module alone; every other
//! crate forbids it.
//!
//! A block's chunk CRCs are independent of each other, so
//! [`ChunkedChecksum::compute_on`] and [`ChunkedChecksum::verify_on`]
//! share runs of chunks out on the host [`Pool`]; each run goes through
//! the same loop as the serial forms.

use crate::pool::Pool;

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

/// A raw state through `data` on the table path. While at least
/// `4 * LANE` bytes remain they go four lanes at a time — the running
/// state rides the first lane, the other three start from zero, and each
/// lane's result is shifted past the lanes after it as they are joined;
/// what is left goes down a single slicing-by-8 chain.
fn update_by_table(mut crc: u32, data: &[u8]) -> u32 {
    let mut rounds = data.chunks_exact(4 * LANE);
    for round in &mut rounds {
        let lanes = fold4([crc, 0, 0, 0], quarters(round));
        crc = lanes[0];
        for lane in &lanes[1..] {
            crc = shift_lane(crc) ^ lane;
        }
    }
    fold(crc, rounds.remainder())
}

/// CRC32 by carry-less multiplication (`pclmulqdq`).
///
/// In the reflected bit order a 128-bit register `x` stands for a
/// polynomial, and `x · t^n mod P` can be had from two 64×64 carry-less
/// products with the constants `t^(n+32) mod P` and `t^(n-32) mod P`. So
/// a register can be moved `n` bits down the message without reducing it:
/// the loop keeps four registers, each folded 512 bits ahead onto the next
/// 64 bytes of input; the four are then folded 128 bits at a time into
/// one, the rest of the input 16 bytes at a time into that, and a Barrett
/// reduction brings the 128 bits down to the 32-bit state. Everything but
/// the detected call is safe code.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    use super::POLY;

    /// The shortest stretch worth handing to [`update`]: one round of the
    /// four-register loop.
    pub(super) const MIN_LEN: usize = 64;

    /// `t^n mod P` in the reflected bit order, shifted up one bit as the
    /// 64-bit operands of `pclmulqdq` want it, and in `.1` the last 64
    /// quotient bits of the same division (the newest highest).
    const fn t_pow(n: u32) -> (i64, u64) {
        let mut rem = 0x8000_0000u32;
        let mut quotient = 0u64;
        let mut step = 0;
        while step < n {
            quotient = (quotient >> 1) | ((rem as u64 & 1) << 63);
            rem = if rem & 1 != 0 { (rem >> 1) ^ POLY } else { rem >> 1 };
            step += 1;
        }
        ((rem as i64) << 1, quotient)
    }

    /// Fold a register 512 bits ahead: the four-register loop's step.
    pub(super) const FOLD_512: (i64, i64) = (t_pow(512 + 32).0, t_pow(512 - 32).0);
    /// Fold a register 128 bits ahead: four registers into one, then one
    /// 16-byte block at a time.
    pub(super) const FOLD_128: (i64, i64) = (t_pow(128 + 32).0, t_pow(128 - 32).0);
    /// `t^64 mod P`: 96 bits down to 64.
    pub(super) const FOLD_64: i64 = t_pow(64).0;
    /// `P` itself, all 33 bits.
    pub(super) const P: i64 = ((POLY as i64) << 1) | 1;
    /// `⌊t^64 / P⌋`, Barrett's constant, 33 bits.
    pub(super) const MU: i64 = (t_pow(64).1 >> 31) as i64;

    /// Whether this CPU has the instruction (std caches the answer).
    pub(super) fn detected() -> bool {
        #[cfg(test)]
        if super::tests::TABLES_ONLY.get() {
            return false;
        }
        std::arch::is_x86_feature_detected!("pclmulqdq")
    }

    /// The raw state `crc` advanced through `data`, or `None` when `data`
    /// is shorter than [`MIN_LEN`] or the CPU cannot fold.
    pub(super) fn update(crc: u32, data: &[u8]) -> Option<u32> {
        if data.len() < MIN_LEN || !detected() {
            return None;
        }
        // SAFETY: `fold` is a safe function whose one requirement on its
        // caller is a CPU with `pclmulqdq` (SSE2 is x86-64's baseline),
        // and `detected` saw that feature on this CPU on the line above.
        Some(unsafe { fold(crc, data) })
    }

    #[target_feature(enable = "pclmulqdq")]
    fn fold(crc: u32, data: &[u8]) -> u32 {
        let mut rounds = data.chunks_exact(64);
        let Some(first) = rounds.next() else {
            return super::fold(crc, data);
        };
        // The running state is XORed onto the first four message bytes,
        // as the byte-at-a-time algorithm does one byte at a time.
        let mut x = load4(first);
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(crc as i32));
        let ahead_512 = _mm_set_epi64x(FOLD_512.1, FOLD_512.0);
        for round in &mut rounds {
            let next = load4(round);
            for (reg, block) in x.iter_mut().zip(next) {
                *reg = fold_onto(*reg, block, ahead_512);
            }
        }
        let ahead_128 = _mm_set_epi64x(FOLD_128.1, FOLD_128.0);
        let [mut acc, b, c, d] = x;
        for block in [b, c, d] {
            acc = fold_onto(acc, block, ahead_128);
        }
        let mut blocks = rounds.remainder().chunks_exact(16);
        for block in &mut blocks {
            acc = fold_onto(acc, load(block), ahead_128);
        }
        super::fold(reduce(acc, ahead_128), blocks.remainder())
    }

    /// Sixteen message bytes as a register, first byte lowest.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn load(block: &[u8]) -> __m128i {
        let (lo, hi) = block.split_at(8);
        let lo = i64::from_le_bytes(lo.try_into().expect("the low half of a 16-byte block"));
        let hi = i64::from_le_bytes(hi.try_into().expect("the high half of a 16-byte block"));
        _mm_set_epi64x(hi, lo)
    }

    /// Sixty-four message bytes as four registers.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn load4(round: &[u8]) -> [__m128i; 4] {
        [load(&round[..16]), load(&round[16..32]), load(&round[32..48]), load(&round[48..64])]
    }

    /// `reg` moved ahead by the distance `keys` stands for, XOR the
    /// message `block` found there.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold_onto(reg: __m128i, block: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(reg, keys, 0x00);
        let hi = _mm_clmulepi64_si128(reg, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(block, lo), hi)
    }

    /// 128 bits of folded message down to the 32-bit raw state.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn reduce(x: __m128i, ahead_128: __m128i) -> u32 {
        let low_32 = _mm_set_epi32(0, 0, 0, !0);
        // 128 -> 96 bits: the low half moves 64 bits ahead onto the high.
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, ahead_128, 0x10), _mm_srli_si128(x, 8));
        // 96 -> 64 bits.
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low_32), _mm_set_epi64x(0, FOLD_64), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: T1 = (x mod t^32) * MU, T2 = (T1 mod t^32) * P, and the
        // remainder is the second 32-bit word of x ^ T2.
        let p_mu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low_32), p_mu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low_32), p_mu, 0x00);
        _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x, t2), 4)) as u32
    }
}

/// No fold off x86-64: everything goes through the tables.
#[cfg(not(target_arch = "x86_64"))]
mod clmul {
    pub(super) const MIN_LEN: usize = usize::MAX;

    pub(super) fn detected() -> bool {
        false
    }

    pub(super) fn update(_crc: u32, _data: &[u8]) -> Option<u32> {
        None
    }
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

    /// Feed more bytes: by carry-less multiply when the CPU has it and
    /// `data` is long enough to fold, else through the tables.
    pub fn update(&mut self, data: &[u8]) {
        self.state = match clmul::update(self.state, data) {
            Some(crc) => crc,
            None => update_by_table(self.state, data),
        };
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
/// until it returns `false`. Where chunks are long enough for the CPU's
/// fold, one after another through it. Otherwise full chunks are hashed
/// four at a time in lock-step on the table path; the last one to three
/// chunks (one of which may be short) one after another.
fn each_chunk_crc(data: &[u8], chunk_size: usize, mut visit: impl FnMut(u32) -> bool) {
    if chunk_size >= clmul::MIN_LEN && clmul::detected() {
        for chunk in data.chunks(chunk_size) {
            if !visit(Crc32::checksum(chunk)) {
                return;
            }
        }
        return;
    }
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

/// Chunks per piece when a block's checksums are shared out on a pool:
/// 256 KiB of HDFS's 512-byte chunks, tens of microseconds of folding, so
/// a 4 MiB block is sixteen pieces and the last one leaves little to one
/// core.
const RUN_CHUNKS: usize = 512;

/// What a byte of checksumming weighs against the pool's size floor: CRC32
/// folds ~20 GB/s here, so a block pays for a thread only from 16 ×
/// `pool::MIN_BYTES` = 2 MiB (a verify measured 49 µs on one thread and
/// 53 µs on two at 1 MiB, 100 and 83 µs at 2 MiB, 324 and 132 µs at 4 MiB).
const CRC_WORK_SHARE: u64 = 16;

/// The CRC32 of each `chunk_size` chunk of `data` into `crcs`, which has
/// one slot per chunk.
fn fill_crcs(data: &[u8], chunk_size: usize, crcs: &mut [u32]) {
    let mut slots = crcs.iter_mut();
    each_chunk_crc(data, chunk_size, |crc| {
        *slots.next().expect("a slot per chunk") = crc;
        true
    });
}

/// The first chunk of `data` whose CRC32 is not the one `crcs` holds for
/// it; `crcs` has one entry per chunk.
fn first_bad_chunk(data: &[u8], chunk_size: usize, crcs: &[u32]) -> Option<usize> {
    let mut clean = 0;
    each_chunk_crc(data, chunk_size, |crc| {
        let ok = crc == crcs[clean];
        clean += usize::from(ok);
        ok
    });
    (clean < crcs.len()).then_some(clean)
}

impl ChunkedChecksum {
    /// Compute chunked checksums over `data`.
    pub fn compute(data: &[u8], chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk_size must be positive");
        let mut crcs = vec![0; data.len().div_ceil(chunk_size)];
        fill_crcs(data, chunk_size, &mut crcs);
        ChunkedChecksum { chunk_size, crcs }
    }

    /// [`compute`](Self::compute), in runs of chunks on `pool` when it pays
    /// for `data`. The same CRCs: each run is a stretch of whole chunks.
    pub fn compute_on(data: &[u8], chunk_size: usize, pool: &Pool) -> Self {
        Self::compute_in_runs(data, chunk_size, RUN_CHUNKS, pool)
    }

    fn compute_in_runs(data: &[u8], chunk_size: usize, run_chunks: usize, pool: &Pool) -> Self {
        assert!(chunk_size > 0, "chunk_size must be positive");
        let run = chunk_size.saturating_mul(run_chunks);
        let mut crcs = vec![0; data.len().div_ceil(chunk_size)];
        let lens: Vec<usize> = crcs.chunks(run_chunks).map(<[u32]>::len).collect();
        pool.fill_indexed(&mut crcs, lens, data.len() as u64 / CRC_WORK_SHARE, |r, slots| {
            let from = r * run;
            fill_crcs(&data[from..data.len().min(from.saturating_add(run))], chunk_size, slots);
        });
        ChunkedChecksum { chunk_size, crcs }
    }

    /// Verify `data` against the stored CRCs; returns the index of the first
    /// corrupt chunk, or `None` when clean. Length mismatches count as
    /// corruption of the first divergent chunk.
    pub fn verify(&self, data: &[u8]) -> Option<usize> {
        match self.length_mismatch(data) {
            Some(chunk) => Some(chunk),
            None => first_bad_chunk(data, self.chunk_size, &self.crcs),
        }
    }

    /// [`verify`](Self::verify), in runs of chunks on `pool` when it pays
    /// for `data`: still the first corrupt chunk in chunk order.
    pub fn verify_on(&self, data: &[u8], pool: &Pool) -> Option<usize> {
        self.verify_in_runs(data, RUN_CHUNKS, pool)
    }

    fn verify_in_runs(&self, data: &[u8], run_chunks: usize, pool: &Pool) -> Option<usize> {
        if let Some(chunk) = self.length_mismatch(data) {
            return Some(chunk);
        }
        let runs: Vec<(&[u8], &[u32])> = data
            .chunks(self.chunk_size.saturating_mul(run_chunks))
            .zip(self.crcs.chunks(run_chunks))
            .collect();
        pool.map_indexed(runs.len(), data.len() as u64 / CRC_WORK_SHARE, |r| {
            let (data, crcs) = runs[r];
            first_bad_chunk(data, self.chunk_size, crcs).map(|chunk| r * run_chunks + chunk)
        })
        .into_iter()
        .flatten()
        .next()
    }

    /// The first divergent chunk when `data` has not as many chunks as
    /// there are CRCs.
    fn length_mismatch(&self, data: &[u8]) -> Option<usize> {
        let chunks = data.len().div_ceil(self.chunk_size);
        (chunks != self.crcs.len()).then_some(chunks.min(self.crcs.len()))
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use proptest::prelude::*;

    use super::*;

    thread_local! {
        /// While set, this thread's checksums take the table path whatever
        /// the CPU has: the oracle side of the kernel tests.
        pub(super) static TABLES_ONLY: Cell<bool> = const { Cell::new(false) };
    }

    /// `f` with the fold switched off on this thread.
    fn by_tables<T>(f: impl FnOnce() -> T) -> T {
        TABLES_ONLY.set(true);
        let out = f();
        TABLES_ONLY.set(false);
        out
    }

    /// `update(a); update(b)` from a fresh state.
    fn streamed(a: &[u8], b: &[u8]) -> u32 {
        let mut c = Crc32::new();
        c.update(a);
        c.update(b);
        c.finish()
    }

    /// `PROPTEST_CASES` lets CI's `codec-fuzz` job soak the property below.
    fn fuzz_cases(default_cases: u32) -> u32 {
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default_cases)
    }

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

    #[test]
    fn chunk_runs_at_hdfs_shape_name_the_first_corrupt_chunk() {
        // Three default runs and a short last chunk: 1 300 chunks of 512.
        let data = noise(1299 * 512 + 100);
        let sums = ChunkedChecksum::compute(&data, 512);
        for pool in [Pool::forced(1), Pool::forced(2), Pool::forced(5)] {
            assert_eq!(ChunkedChecksum::compute_on(&data, 512, &pool), sums);
            assert_eq!(sums.verify_on(&data, &pool), None);
            // Damage in the third run and the first: the first wins.
            for (first, second) in [(5, 1100), (1100, 1299), (511, 512), (1299, 1299)] {
                let mut bad = data.clone();
                bad[second * 512 + 3] ^= 0x08;
                bad[first * 512] ^= 0x80;
                assert_eq!(sums.verify_on(&bad, &pool), Some(first), "{pool:?}");
            }
            assert_eq!(sums.verify_on(&data[..data.len() - 200], &pool), Some(1299));
        }
    }

    // -- the fold against the tables against the bitwise reference ----------
    //
    // On a CPU without `pclmulqdq` (and off x86-64) both sides of these
    // take the tables; they still pass, and still hold the tables to the
    // bitwise reference.

    #[test]
    fn fold_matches_tables_and_bitwise_at_every_length_and_alignment() {
        // 0..=1100 covers no round, one, seventeen and a bit, every count
        // of 16-byte blocks after the rounds and every tail under 16.
        let data = noise(1100 + 16);
        for off in 0..16 {
            for len in 0..=1100 {
                let slice = &data[off..off + len];
                let want = crc32_bitwise(slice);
                assert_eq!(Crc32::checksum(slice), want, "fold, off={off} len={len}");
                assert_eq!(
                    by_tables(|| Crc32::checksum(slice)),
                    want,
                    "tables, off={off} len={len}"
                );
            }
        }
    }

    #[test]
    fn fold_continues_from_any_incoming_state() {
        // update(a); update(b) == update(a ‖ b) wherever the cut falls: each
        // side takes the fold or the tables by its own length, and the
        // second starts from a state that is not the initial one.
        let data = noise(300);
        let want = crc32_bitwise(&data);
        for cut in 0..=data.len() {
            let (a, b) = data.split_at(cut);
            assert_eq!(streamed(a, b), want, "fold, cut={cut}");
            assert_eq!(by_tables(|| streamed(a, b)), want, "tables, cut={cut}");
        }
    }

    #[test]
    fn chunked_is_the_same_on_both_paths_at_every_chunk_size() {
        // Chunk sizes under, at and over the fold's minimum, HDFS's own
        // and a long one; data ending on a chunk, one byte past and short.
        let data = noise(3 * 4096 + 77);
        for chunk_size in [1, 63, 64, 65, 512, 4096] {
            for len in [0, 1, chunk_size, 5 * chunk_size, 5 * chunk_size + 1, 7 * chunk_size - 1] {
                let data = &data[..len.min(data.len())];
                let sums = ChunkedChecksum::compute(data, chunk_size);
                assert_eq!(sums, by_tables(|| ChunkedChecksum::compute(data, chunk_size)));
                let want: Vec<u32> = data.chunks(chunk_size).map(crc32_bitwise).collect();
                assert_eq!(sums.crcs, want, "chunk_size={chunk_size} len={len}");
                assert_eq!(sums.verify(data), None);
                // The first corrupt chunk, by both paths, wherever it is —
                // the short last chunk included.
                for chunk in 0..sums.crcs.len() {
                    let mut bad = data.to_vec();
                    bad[chunk * chunk_size] ^= 0x10;
                    if let Some(last) = bad.last_mut() {
                        *last ^= 0x01;
                    }
                    assert_eq!(sums.verify(&bad), Some(chunk), "chunk_size={chunk_size}");
                    assert_eq!(by_tables(|| sums.verify(&bad)), Some(chunk));
                }
            }
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn fold_constants_are_the_published_ones() {
        // The constants zlib, the Linux kernel and Intel's paper print for
        // this polynomial; a slip in `t_pow` shows here by name before it
        // shows as a wrong checksum above.
        assert_eq!(clmul::FOLD_512, (0x1_5444_2bd4, 0x1_c6e4_1596));
        assert_eq!(clmul::FOLD_128, (0x1_7519_97d0, 0x0_ccaa_009e));
        assert_eq!(clmul::FOLD_64, 0x1_63cd_6124);
        assert_eq!(clmul::P, 0x1_db71_0641);
        assert_eq!(clmul::MU, 0x1_f701_1641);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: fuzz_cases(64), ..ProptestConfig::default() })]

        /// Random bytes, cut at a random point: one shot and streamed, by
        /// the fold and by the tables, all equal the bitwise reference.
        #[test]
        fn prop_fold_equals_tables_equals_bitwise(
            data in proptest::collection::vec(any::<u8>(), 0..5000),
            cut in 0usize..5000,
        ) {
            let want = crc32_bitwise(&data);
            let (a, b) = data.split_at(cut.min(data.len()));
            prop_assert_eq!(Crc32::checksum(&data), want);
            prop_assert_eq!(streamed(a, b), want);
            prop_assert_eq!(by_tables(|| Crc32::checksum(&data)), want);
            prop_assert_eq!(by_tables(|| streamed(a, b)), want);
        }

        /// Runs of chunks on one to five workers give the CRCs the serial
        /// loop gives and name the chunk it names, for any chunk size, run
        /// length and damage: bytes flipped anywhere (the short last chunk
        /// included), or the data cut short or grown.
        #[test]
        fn prop_chunk_runs_equal_the_serial_loop(
            data in proptest::collection::vec(any::<u8>(), 0..6000),
            chunk_size in 1usize..200,
            run_chunks in 1usize..9,
            workers in 1usize..6,
            flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 0..4),
            resize in prop_oneof![Just(0isize), -70isize..0, 1isize..70],
        ) {
            let pool = Pool::forced(workers);
            let sums = ChunkedChecksum::compute(&data, chunk_size);
            let runs = ChunkedChecksum::compute_in_runs(&data, chunk_size, run_chunks, &pool);
            prop_assert_eq!(&runs, &sums);
            prop_assert_eq!(&ChunkedChecksum::compute_on(&data, chunk_size, &pool), &sums);
            let mut bad = data.clone();
            for (at, mask) in flips {
                if !bad.is_empty() {
                    let at = at % bad.len();
                    bad[at] ^= mask;
                }
            }
            bad.resize(bad.len().saturating_add_signed(resize), 0x5A);
            let want = sums.verify(&bad);
            prop_assert_eq!(sums.verify_in_runs(&bad, run_chunks, &pool), want);
            prop_assert_eq!(sums.verify_on(&bad, &pool), want);
            prop_assert_eq!(sums.verify_in_runs(&data, run_chunks, &pool), None);
        }
    }
}
