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
use hl_common::pool::Pool;
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
const MAX_FRAME_RAW_LEN: u64 = 16 * 1024 * 1024;

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
    // A reader sizes its buffer from the headers before it decodes, so a
    // claim the payload cannot back is refused here.
    if header.method == CodecId::Hlz && header.raw_len > lz::max_decoded_len(header.comp_len) {
        return Err(HlError::Codec(format!(
            "Hlz frame claims {} raw bytes from {} stored",
            header.raw_len, header.comp_len
        )));
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
    out.resize(start + raw_len, 0);
    let result = decode_frame_to(header, payload, &mut out[start..]);
    if result.is_err() {
        out.truncate(start);
    }
    result
}

/// Decode one parsed frame into `dst`, which holds exactly its raw bytes,
/// verifying the CRC.
pub fn decode_frame_to(header: &FrameHeader, payload: &[u8], dst: &mut [u8]) -> Result<()> {
    if dst.len() as u64 != header.raw_len {
        return Err(HlError::Codec(format!(
            "frame declared {} raw bytes, given {} to decode into",
            header.raw_len,
            dst.len()
        )));
    }
    match header.method {
        CodecId::Null if payload.len() != dst.len() => {
            return Err(HlError::Codec(format!(
                "stored payload is {} bytes, frame declared {}",
                payload.len(),
                dst.len()
            )));
        }
        CodecId::Null => dst.copy_from_slice(payload),
        CodecId::Hlz => lz::decompress_block_to(payload, dst)?,
    }
    let crc = Crc32::checksum(dst);
    if crc != header.crc {
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

/// Decode the frames of `parts`, each a run of whole frames as every block
/// of a codec-framed DFS file is, into one buffer: `run_frames` frames to
/// a piece of `pool`'s work.
///
/// The headers are parsed front to back first, so that each run knows
/// where its bytes go. The buffer is allocated here, at the sum of their
/// raw lengths (each at most [`MAX_FRAME_RAW_LEN`], and at most what its
/// payload can decode to). Each run then decodes
/// and CRC-checks its frames into its own slice of it. The result is what
/// [`decode_frames_into`] gives over `parts` one after another, error
/// included: that of the first frame in order that fails to parse or to
/// decode.
pub fn decode_frame_runs(
    parts: &[impl AsRef<[u8]>],
    run_frames: usize,
    pool: &Pool,
) -> Result<Vec<u8>> {
    let mut frames = Vec::new();
    let mut unparsed = Ok(());
    'parts: for part in parts {
        let part = part.as_ref();
        let mut at = 0;
        while at < part.len() {
            match parse_frame(part, at) {
                Ok((header, payload, next)) => {
                    frames.push((header, payload));
                    at = next;
                }
                Err(e) => {
                    unparsed = Err(e);
                    break 'parts;
                }
            }
        }
    }
    // `parse_frame` bounds every raw length, so each fits a `usize`.
    let raw_len = |header: &FrameHeader| usize::try_from(header.raw_len).unwrap_or(usize::MAX);
    let runs: Vec<&[(FrameHeader, &[u8])]> = frames.chunks(run_frames.max(1)).collect();
    let lens: Vec<usize> = runs.iter().map(|run| run.iter().map(|f| raw_len(&f.0)).sum()).collect();
    let total: usize = lens.iter().sum();
    let mut out = vec![0; total];
    let decoded = pool.fill_indexed(&mut out, lens, total as u64, |r, mut dst| {
        for (header, payload) in runs[r] {
            let (frame, rest) = std::mem::take(&mut dst).split_at_mut(raw_len(header));
            decode_frame_to(header, payload, frame)?;
            dst = rest;
        }
        Ok(())
    });
    decoded.into_iter().collect::<Result<()>>()?;
    unparsed.map(|()| out)
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

    /// `container` cut at the frame boundaries `cuts` picks, as a DFS file
    /// is cut into blocks, after `damage` flipped bytes of it and dropped
    /// its last `short` bytes.
    fn damaged_parts(
        container: &[u8],
        cuts: &[usize],
        damage: &[(usize, u8)],
        short: usize,
    ) -> Vec<Vec<u8>> {
        let boundaries = frame_boundaries(container);
        let mut bytes = container.to_vec();
        for &(at, mask) in damage {
            if !bytes.is_empty() {
                let at = at % bytes.len();
                bytes[at] ^= mask;
            }
        }
        bytes.truncate(bytes.len().saturating_sub(short));
        let mut ends: Vec<usize> =
            cuts.iter().map(|c| boundaries[c % boundaries.len()].min(bytes.len())).collect();
        ends.push(bytes.len());
        ends.sort_unstable();
        let mut from = 0;
        ends.into_iter()
            .map(|end| {
                let part = bytes[from..end].to_vec();
                from = end;
                part
            })
            .collect()
    }

    /// What decoding `parts` one after another gives: the bytes, or the
    /// first error's text.
    fn frame_after_frame(parts: &[Vec<u8>]) -> std::result::Result<Vec<u8>, String> {
        let mut out = Vec::new();
        for part in parts {
            decode_frames_into(part, 0, &mut out).map_err(|e| e.to_string())?;
        }
        Ok(out)
    }

    #[test]
    fn frame_runs_decode_each_frame_into_its_own_slice() {
        let data = b"runs of frames decode side by side ".repeat(9_000);
        let container = compress_container(CodecId::Hlz, &data);
        let n = data.len().div_ceil(FRAME_RAW_CHUNK);
        for cuts in [vec![], vec![1], vec![2, 3]] {
            let parts = damaged_parts(&container, &cuts, &[], 0);
            for (run_frames, workers) in [(1, 1), (1, 3), (2, 2), (n, 2), (n + 1, 4)] {
                let got = decode_frame_runs(&parts, run_frames, &Pool::forced(workers)).unwrap();
                assert!(got == data, "cuts {cuts:?}, {run_frames} frames a run, {workers} workers");
            }
        }
        // Two bad frames in different runs: the earlier one's error comes out.
        let boundaries = frame_boundaries(&container);
        let (early, late) = (boundaries[1] + 40, boundaries[n - 1] + 40);
        let parts = damaged_parts(&container, &[2], &[(late, 0x10), (early, 0x04)], 0);
        let want = frame_after_frame(&parts).unwrap_err();
        let got = decode_frame_runs(&parts, 1, &Pool::forced(3)).unwrap_err().to_string();
        assert_eq!(got, want);
        assert!(decode_frame_runs(&[[0u8; 0]; 3], 4, &Pool::forced(2)).unwrap().is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: fuzz_cases(64), ..ProptestConfig::default() })]

        /// Frame runs on one to five workers decode what frame after frame
        /// decodes, over whole and damaged containers cut into parts at
        /// frame boundaries, and fail with the same first error.
        #[test]
        fn prop_frame_runs_decode_what_frame_after_frame_decodes(
            unit in proptest::collection::vec(any::<u8>(), 1..24),
            len in 0usize..(4 * FRAME_RAW_CHUNK + 100),
            noisy in any::<bool>(),
            cuts in proptest::collection::vec(any::<usize>(), 0..4),
            run_frames in 1usize..6,
            workers in 1usize..6,
            damage in proptest::collection::vec((any::<usize>(), 1u8..=255), 0..3),
            short in prop_oneof![Just(0usize), 1usize..40],
        ) {
            let data = if noisy {
                crate::lcg_bytes(len as u64, len)
            } else {
                unit.repeat(len / unit.len() + 1)[..len].to_vec()
            };
            let container = compress_container(CodecId::Hlz, &data);
            let whole = damaged_parts(&container, &cuts, &[], 0);
            let pool = Pool::forced(workers);
            let got = decode_frame_runs(&whole, run_frames, &pool).map_err(|e| e.to_string());
            prop_assert_eq!(got, Ok(data));
            let parts = damaged_parts(&container, &cuts, &damage, short);
            let got = decode_frame_runs(&parts, run_frames, &pool).map_err(|e| e.to_string());
            prop_assert_eq!(got, frame_after_frame(&parts));
        }

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
