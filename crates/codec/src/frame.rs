//! The splittable container: compressed data travels as a sequence of
//! self-describing *frames*, each opened by an 8-byte sync marker and a
//! [`FrameHeader`] carrying the uncompressed length and a CRC32 of the
//! uncompressed bytes.
//!
//! The design copies what made LZO files splittable on the course
//! clusters: because every frame is independently decodable and announces
//! itself with a marker, a reader dropped at an arbitrary byte offset can
//! scan forward to the next marker ([`find_sync`]) and decode from there —
//! exactly what an `InputSplit` needs. The DFS writer additionally cuts
//! HDFS blocks on frame boundaries, so every block boundary *is* a sync
//! boundary and per-block splits decode without touching a neighbor.
//!
//! Integrity layering: the DataNode's 512-byte [`ChunkedChecksum`] catches
//! bit rot on the stored (compressed) bytes before any decode runs; the
//! frame CRC is a second, end-to-end check over the *uncompressed* bytes,
//! so a codec bug (or rot that slipped past) can never silently hand a
//! job corrupted records.
//!
//! [`ChunkedChecksum`]: hl_common::checksum::ChunkedChecksum

use hl_common::checksum::Crc32;
use hl_common::prelude::*;
use hl_common::writable::{read_vu64, write_vu64, Writable};

use crate::{lz, CodecId};

/// Frame boundary marker. Like a SequenceFile sync marker, it is a fixed
/// improbable byte string; candidates are verified by fully parsing (and
/// CRC-checking) the frame they claim to open, so payload bytes that
/// happen to collide are rejected.
pub const SYNC_MARKER: [u8; 8] = [0x48, 0x4C, 0x5A, 0x31, 0xC3, 0xA9, 0x55, 0xE7];

/// Uncompressed bytes per frame. Small enough that a frame never straddles
/// the simulator's (tiny, teaching-scale) DFS blocks awkwardly, large
/// enough for the matcher to find real redundancy.
pub const FRAME_RAW_CHUNK: usize = 64 * 1024;

/// Upper bound a decoder will accept for one frame's uncompressed length —
/// an allocation guard against corrupt or hostile headers.
pub const MAX_FRAME_RAW_LEN: u64 = 16 * 1024 * 1024;

/// Everything after a frame's sync marker, before its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// How the payload is encoded: [`CodecId::Null`] means stored
    /// verbatim (the fallback when compression would not shrink a chunk).
    pub method: CodecId,
    /// Uncompressed payload length.
    pub raw_len: u64,
    /// Stored payload length.
    pub comp_len: u64,
    /// CRC32 over the *uncompressed* bytes.
    pub crc: u32,
}

impl Writable for FrameHeader {
    fn write(&self, buf: &mut Vec<u8>) {
        self.method.write(buf);
        write_vu64(self.raw_len, buf);
        write_vu64(self.comp_len, buf);
        self.crc.write(buf);
    }

    fn read(buf: &mut &[u8]) -> Result<Self> {
        Ok(FrameHeader {
            method: CodecId::read(buf)?,
            raw_len: read_vu64(buf)?,
            comp_len: read_vu64(buf)?,
            crc: u32::read(buf)?,
        })
    }
}

/// Writes frames. One encoder serves a whole container (or a whole DFS
/// file): it owns the matcher's hash table and the buffer a chunk is
/// packed into before its header — which carries the packed length — can
/// be written, so a frame costs no allocation of its own.
#[derive(Debug, Clone)]
pub struct FrameEncoder {
    id: CodecId,
    matcher: lz::Encoder,
    packed: Vec<u8>,
}

impl FrameEncoder {
    /// An encoder whose frames use codec `id`.
    pub fn new(id: CodecId) -> Self {
        FrameEncoder { id, matcher: lz::Encoder::new(), packed: Vec::new() }
    }

    /// Append one chunk to `out` as a complete frame (marker + header +
    /// payload). Falls back to a stored ([`CodecId::Null`]) frame when the
    /// codec fails to shrink the chunk, so incompressible data costs only
    /// header overhead.
    pub fn encode_frame_into(&mut self, chunk: &[u8], out: &mut Vec<u8>) {
        let method = match self.id {
            CodecId::Null => CodecId::Null,
            CodecId::Hlz => {
                self.packed.clear();
                self.matcher.compress_block_into(chunk, &mut self.packed);
                if self.packed.len() < chunk.len() {
                    CodecId::Hlz
                } else {
                    CodecId::Null
                }
            }
        };
        let payload = match method {
            CodecId::Null => chunk,
            CodecId::Hlz => self.packed.as_slice(),
        };
        let header = FrameHeader {
            method,
            raw_len: chunk.len() as u64,
            comp_len: payload.len() as u64,
            crc: Crc32::checksum(chunk),
        };
        out.extend_from_slice(&SYNC_MARKER);
        header.write(out);
        out.extend_from_slice(payload);
    }
}

/// Compress `data` into a single contiguous container: one frame per
/// [`FRAME_RAW_CHUNK`]-sized chunk, back to back. Empty input yields an
/// empty container.
pub fn compress_container(id: CodecId, data: &[u8]) -> Vec<u8> {
    let mut encoder = FrameEncoder::new(id);
    let mut out = Vec::with_capacity(data.len() / 2);
    for chunk in data.chunks(FRAME_RAW_CHUNK) {
        encoder.encode_frame_into(chunk, &mut out);
    }
    out
}

/// Parse the frame starting exactly at `at`. Returns the header, the
/// payload slice, and the offset one past the frame. Does *not* CRC-check
/// the payload — [`decode_frame_into`] does.
pub fn parse_frame(bytes: &[u8], at: usize) -> Result<(FrameHeader, &[u8], usize)> {
    let rest = bytes.get(at..).ok_or_else(|| HlError::Codec("frame offset past the end".into()))?;
    if rest.len() < SYNC_MARKER.len() || rest[..SYNC_MARKER.len()] != SYNC_MARKER {
        return Err(HlError::Codec(format!("no sync marker at offset {at}")));
    }
    let mut buf = &rest[SYNC_MARKER.len()..];
    let before = buf.len();
    let header = FrameHeader::read(&mut buf)?;
    if header.raw_len > MAX_FRAME_RAW_LEN {
        return Err(HlError::Codec(format!("frame claims {} raw bytes", header.raw_len)));
    }
    if header.method == CodecId::Null && header.comp_len != header.raw_len {
        return Err(HlError::Codec("stored frame with comp_len != raw_len".into()));
    }
    let header_len = before - buf.len();
    let comp_len = usize::try_from(header.comp_len)
        .map_err(|_| HlError::Codec("frame comp_len overflows usize".into()))?;
    let payload_at = SYNC_MARKER.len() + header_len;
    let payload = rest
        .get(payload_at..payload_at + comp_len)
        .ok_or_else(|| HlError::Codec("frame payload truncated".into()))?;
    Ok((header, payload, at + payload_at + comp_len))
}

/// Decode one parsed frame onto the end of `out`, verifying the CRC. On
/// any error `out` is left at the length it came in with.
pub fn decode_frame_into(header: &FrameHeader, payload: &[u8], out: &mut Vec<u8>) -> Result<()> {
    let raw_len = usize::try_from(header.raw_len)
        .map_err(|_| HlError::Codec("frame raw_len overflows usize".into()))?;
    let start = out.len();
    match header.method {
        CodecId::Null if payload.len() != raw_len => {
            return Err(HlError::Codec(format!(
                "stored payload is {} bytes, frame declared {raw_len}",
                payload.len()
            )));
        }
        CodecId::Null => out.extend_from_slice(payload),
        CodecId::Hlz => lz::decompress_block_into(payload, raw_len, out)?,
    }
    let crc = Crc32::checksum(&out[start..]);
    if crc != header.crc {
        out.truncate(start);
        return Err(HlError::Codec(format!(
            "frame CRC mismatch: header says {:08x}, decoded bytes hash to {crc:08x}",
            header.crc
        )));
    }
    Ok(())
}

/// Decode every frame from offset `at` (which must be a frame boundary)
/// to the end of `bytes`, onto the end of `out`. A DFS block of a
/// codec-framed file is such a run of whole frames, so a reader decodes
/// block after block into one buffer. On error `out` keeps the frames
/// that decoded before the bad one.
pub fn decode_frames_into(bytes: &[u8], at: usize, out: &mut Vec<u8>) -> Result<()> {
    let mut pos = at;
    while pos < bytes.len() {
        let (header, payload, next) = parse_frame(bytes, pos)?;
        decode_frame_into(&header, payload, out)?;
        pos = next;
    }
    Ok(())
}

/// Decode a whole container back to its original bytes.
pub fn decompress_container(bytes: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    decode_frames_into(bytes, 0, &mut out)?;
    Ok(out)
}

/// Find the first *valid* frame boundary at or after `from`: the next
/// sync-marker candidate whose frame fully parses and CRC-verifies.
/// Returns `None` when no complete frame starts in the remaining bytes —
/// a reader dropped past the last boundary owns nothing of this container
/// (the standard splittable-container contract).
pub fn find_sync(bytes: &[u8], from: usize) -> Option<usize> {
    let mut scratch = Vec::new();
    let mut pos = from;
    while pos + SYNC_MARKER.len() <= bytes.len() {
        if bytes[pos..pos + SYNC_MARKER.len()] == SYNC_MARKER {
            if let Ok((header, payload, _)) = parse_frame(bytes, pos) {
                scratch.clear();
                if decode_frame_into(&header, payload, &mut scratch).is_ok() {
                    return Some(pos);
                }
            }
        }
        pos += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz_cases;
    use proptest::prelude::*;

    /// Offsets at which the container's frames start, plus its length.
    fn frame_boundaries(container: &[u8]) -> Vec<usize> {
        let mut at = vec![0];
        while *at.last().unwrap() < container.len() {
            at.push(parse_frame(container, *at.last().unwrap()).unwrap().2);
        }
        at
    }

    fn decode_frames_from(bytes: &[u8], at: usize) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        decode_frames_into(bytes, at, &mut out).map(|()| out)
    }

    #[test]
    fn frame_header_round_trips() {
        for header in [
            FrameHeader { method: CodecId::Null, raw_len: 0, comp_len: 0, crc: 0 },
            FrameHeader {
                method: CodecId::Hlz,
                raw_len: 65_536,
                comp_len: 1_234,
                crc: 0xDEAD_BEEF,
            },
        ] {
            assert_eq!(FrameHeader::from_bytes(&header.to_bytes()).unwrap(), header);
        }
        // Unknown method byte is a codec error.
        assert!(FrameHeader::from_bytes(&[9, 0, 0, 0, 0, 0, 0]).is_err());
    }

    #[test]
    fn container_round_trips_and_shrinks_text() {
        let data = b"six years of student cluster logs ".repeat(8_000);
        let packed = compress_container(CodecId::Hlz, &data);
        assert!(packed.len() * 4 < data.len());
        assert_eq!(decompress_container(&packed).unwrap(), data);
        // Null container stores verbatim (frames add only header overhead).
        let stored = compress_container(CodecId::Null, &data);
        assert!(stored.len() > data.len() && stored.len() < data.len() + data.len() / 100);
        assert_eq!(decompress_container(&stored).unwrap(), data);
        // Empty container.
        assert!(compress_container(CodecId::Hlz, b"").is_empty());
        assert_eq!(decompress_container(b"").unwrap(), b"");
    }

    #[test]
    fn incompressible_chunks_fall_back_to_stored_frames() {
        let data = crate::lcg_bytes(0x9E37_79B9_7F4A_7C15, 40_000);
        let packed = compress_container(CodecId::Hlz, &data);
        let (header, _, _) = parse_frame(&packed, 0).unwrap();
        assert_eq!(header.method, CodecId::Null, "stored fallback must engage");
        assert!(packed.len() < data.len() + 64);
        assert_eq!(decompress_container(&packed).unwrap(), data);
    }

    #[test]
    fn corrupt_frames_fail_crc_before_reaching_the_caller() {
        let data = b"block reports stream back in ".repeat(3_000);
        let packed = compress_container(CodecId::Hlz, &data);
        // Flip one payload byte in the middle frame: either the LZ parse
        // fails or the CRC catches it — never silent corruption.
        let mut rotted = packed.clone();
        let mid = packed.len() / 2;
        rotted[mid] ^= 0xA5;
        assert!(decompress_container(&rotted).is_err());
        // Decoding onto a buffer keeps what was there and the whole frames
        // before the bad one; the bad frame leaves nothing behind.
        let mut out = b"kept".to_vec();
        assert!(decode_frames_into(&rotted, 0, &mut out).is_err());
        assert!(out.starts_with(b"kept") && out[4..] == data[..out.len() - 4]);
        assert_eq!((out.len() - 4) % FRAME_RAW_CHUNK, 0);
        // Truncation is caught too.
        assert!(decompress_container(&packed[..packed.len() - 1]).is_err());
        // A header that lies about raw_len is an allocation-guarded error.
        let mut huge = packed;
        huge.truncate(SYNC_MARKER.len());
        FrameHeader { method: CodecId::Hlz, raw_len: u64::MAX, comp_len: 1, crc: 0 }
            .write(&mut huge);
        huge.push(0);
        assert!(decompress_container(&huge).is_err());
    }

    #[test]
    fn find_sync_skips_lookalike_markers_inside_payloads() {
        // A payload that *contains* the sync marker as literal bytes, long
        // enough to need a second frame.
        let mut data = Vec::new();
        while data.len() <= FRAME_RAW_CHUNK {
            data.extend_from_slice(&SYNC_MARKER);
            data.extend_from_slice(b"decoy");
        }
        let container = compress_container(CodecId::Null, &data);
        let boundaries = frame_boundaries(&container);
        assert_eq!(boundaries.len(), 3);
        // From offset 1 the scan passes every embedded decoy (their
        // "frames" fail to parse/verify) and lands on the next real frame.
        assert_eq!(find_sync(&container, 0), Some(0));
        assert_eq!(find_sync(&container, 1), Some(boundaries[1]));
        assert_eq!(find_sync(&container, boundaries[1] + 1), None);
    }

    fn chunked_suffix(data: &[u8], frame_index: usize) -> &[u8] {
        &data[(frame_index * FRAME_RAW_CHUNK).min(data.len())..]
    }

    #[test]
    fn split_boundary_decode_recovers_every_suffix() {
        let data = b"every frame is independently decodable ".repeat(12_000);
        let container = compress_container(CodecId::Hlz, &data);
        let boundaries = frame_boundaries(&container);
        assert_eq!(boundaries.len() - 1, data.len().div_ceil(FRAME_RAW_CHUNK));
        for (k, &boundary) in boundaries.iter().enumerate() {
            if boundary < container.len() {
                assert_eq!(find_sync(&container, boundary), Some(boundary));
            }
            assert_eq!(decode_frames_from(&container, boundary).unwrap(), chunked_suffix(&data, k));
        }
        assert_eq!(find_sync(&container, container.len().saturating_sub(7)), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: fuzz_cases(64), ..ProptestConfig::default() })]

        #[test]
        fn prop_container_round_trips(
            data in proptest::collection::vec(any::<u8>(), 0..(3 * FRAME_RAW_CHUNK / 2)),
            id in prop_oneof![Just(CodecId::Null), Just(CodecId::Hlz)],
        ) {
            let packed = compress_container(id, &data);
            prop_assert_eq!(decompress_container(&packed).unwrap(), data);
        }

        #[test]
        fn prop_container_round_trips_repetitive(
            unit in proptest::collection::vec(any::<u8>(), 1..24),
            reps in 1usize..8_000,
        ) {
            let data = unit.repeat(reps);
            let packed = compress_container(CodecId::Hlz, &data);
            prop_assert_eq!(decompress_container(&packed).unwrap(), data);
        }

        #[test]
        fn prop_find_sync_from_any_cut_decodes_a_true_suffix(
            unit in proptest::collection::vec(any::<u8>(), 1..16),
            reps in 1usize..20_000,
            cut_fraction in 0.0f64..1.0,
        ) {
            let data = unit.repeat(reps);
            let container = compress_container(CodecId::Hlz, &data);
            let cut = (container.len() as f64 * cut_fraction) as usize;
            match find_sync(&container, cut) {
                None => {
                    // No frame boundary at/after the cut: the cut sits
                    // inside the final frame (or past the end).
                    let boundaries = frame_boundaries(&container);
                    let last_boundary = boundaries[boundaries.len().saturating_sub(2)];
                    prop_assert!(cut > last_boundary);
                }
                Some(at) => {
                    let decoded = decode_frames_from(&container, at).unwrap();
                    // The recovered bytes are exactly one of the chunk
                    // suffixes of the original data.
                    let n_frames = data.len().div_ceil(FRAME_RAW_CHUNK);
                    let matched = (0..=n_frames)
                        .any(|k| decoded.as_slice() == chunked_suffix(&data, k));
                    prop_assert!(matched, "decode from sync is not a chunk suffix");
                }
            }
        }
    }
}
