//! `hl-codec`: a pure-Rust, zero-dependency, LZO-class splittable block
//! codec for HadoopLab's byte paths.
//!
//! The paper's clusters taught compression as a CPU-vs-I/O tradeoff: LZO
//! on the wordcount corpus traded a little CPU for a lot of disk and
//! network (the arXiv:1307.1517 study HadoopLab's ROADMAP 1(c)/5(b) cite).
//! This crate supplies the mechanism: [`lz`] is the raw LZ4-family block
//! format, [`frame`] wraps blocks in a sync-marked, CRC-protected,
//! *splittable* container, and [`CodecId`] is what the DFS client, the
//! map-output spill path, and `JobConf` plumb around.
//!
//! Costs are charged by the DES, not measured: [`COMPRESS_BYTES_PER_SEC`]
//! and [`DECOMPRESS_BYTES_PER_SEC`] are the nominal single-core codec
//! throughputs (LZO-class: decode much faster than encode), scaled per
//! node by `PerfProfile` at the charge sites. The host kernels have the
//! same shape as what is charged: the decoder copies literals and matches
//! sixteen bytes at a time straight into the caller's buffer and runs
//! several times faster than the encoder, which pays a hash probe per
//! input byte (`benchmark --workload dfs-io --trace 1` reports both as
//! `codec.decompress_mib_s` and `codec.compress_mib_s`; EXPERIMENTS.md
//! has the table).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod frame;
pub mod lz;

pub use frame::{
    compress_container, decode_frame_into, decode_frame_runs, decode_frame_to, decode_frames_into,
    decompress_container, find_sync, parse_frame, FrameEncoder, FrameHeader, FRAME_RAW_CHUNK,
    SYNC_MARKER,
};

use hl_common::prelude::*;
use hl_common::writable::Writable;

/// Nominal single-core compression throughput the DES charges (bytes of
/// *input* per simulated second), before `PerfProfile` scaling.
pub const COMPRESS_BYTES_PER_SEC: u64 = 150 * 1024 * 1024;

/// Nominal single-core decompression throughput (bytes of *output* per
/// simulated second) — LZO-class codecs decode several times faster than
/// they encode.
pub const DECOMPRESS_BYTES_PER_SEC: u64 = 500 * 1024 * 1024;

/// Which codec encoded a payload. Serialized into frame headers, the
/// per-file flag in the NameNode's namespace, and the edit log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum CodecId {
    /// Passthrough: bytes stored verbatim.
    #[default]
    Null = 0,
    /// The LZ77 greedy matcher in [`lz`].
    Hlz = 1,
}

impl CodecId {
    /// Configuration-file name (`mapred.output.compression.codec` value).
    pub(crate) fn name(self) -> &'static str {
        match self {
            CodecId::Null => "none",
            CodecId::Hlz => "hlz",
        }
    }
}

impl std::fmt::Display for CodecId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl Writable for CodecId {
    fn write(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }

    fn read(buf: &mut &[u8]) -> Result<Self> {
        match u8::read(buf)? {
            0 => Ok(CodecId::Null),
            1 => Ok(CodecId::Hlz),
            t => Err(HlError::Codec(format!("unknown codec id {t}"))),
        }
    }
}

/// Local proptest case budget, overridable by `PROPTEST_CASES` so the CI
/// `codec-fuzz` job can soak the same properties much harder than a
/// developer `cargo test` does.
#[cfg(test)]
pub(crate) fn fuzz_cases(default_cases: u32) -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default_cases)
}

/// Deterministic test bytes the matcher cannot compress (an LCG's top byte).
#[cfg(test)]
pub(crate) fn lcg_bytes(seed: u64, n: usize) -> Vec<u8> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 56) as u8
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_id_round_trips() {
        for id in [CodecId::Null, CodecId::Hlz] {
            assert_eq!(CodecId::from_bytes(&id.to_bytes()).unwrap(), id);
        }
        assert!(CodecId::from_bytes(&[7]).is_err());
        assert_eq!(CodecId::default(), CodecId::Null);
    }
}
