//! The codec's *output* is part of the repo's contract: every committed
//! `BENCH_*.json`, golden trace hash and `JobReport` digest was taken over
//! bytes `hl-codec` produced, so an encoder change that alters a single
//! stored byte moves all of them. This test pins the container bytes
//! (length and CRC32) for a spread of inputs to the values the encoder
//! produced before its kernels were rewritten for speed; the CRCs double
//! as known answers for the checksum kernel over multi-hundred-KiB inputs.

use hadoop_lab::codec::{compress_container, decompress_container, CodecId};
use hadoop_lab::common::checksum::Crc32;
use hadoop_lab::datagen::CorpusGen;
use hadoop_lab::workloads::tpcxhs::hsgen;

/// Deterministic byte soup the matcher cannot compress.
fn lcg_bytes(seed: u64, n: usize) -> Vec<u8> {
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

/// A structured pseudo-random input: stretches of noise, repeated units
/// with periods on both sides of the decoder's copy width, long runs and
/// copies of earlier text, so matches of every length and offset class
/// (and literal runs that overflow the token nibble) all occur.
fn mixed(seed: u64) -> Vec<u8> {
    let mut rng = lcg_bytes(seed ^ 0x006D_6978_6564, 4096).into_iter().cycle();
    let mut next = move || rng.next().unwrap_or(0) as usize;
    let target = 1 + (next() << 10 | next() << 2) % 200_000;
    let mut out = Vec::with_capacity(target + 1024);
    while out.len() < target {
        match next() % 5 {
            0 => out.extend(lcg_bytes(next() as u64, 1 + next() % 300)),
            1 => {
                let unit = lcg_bytes(next() as u64, 1 + next() % 40);
                out.extend(unit.repeat(1 + next() % 60));
            }
            2 => out.extend(std::iter::repeat_n(next() as u8, 1 + next() * 7)),
            3 if !out.is_empty() => {
                let from = (next() << 8 | next()) % out.len();
                let len = (1 + next() * 3).min(out.len() - from);
                out.extend_from_within(from..from + len);
            }
            _ => out.extend(format!("w{:07} ", next() % 50).bytes()),
        }
    }
    out
}

fn pin(codec: CodecId, data: &[u8]) -> (usize, u32) {
    let packed = compress_container(codec, data);
    assert_eq!(decompress_container(&packed).unwrap(), data, "container must round-trip");
    (packed.len(), Crc32::checksum(&packed))
}

#[test]
fn container_bytes_match_the_pinned_encoder() {
    let corpus = CorpusGen::new(42).generate_bytes(300_000).0.into_bytes();
    let hs = hsgen(7, 40_000).0.into_bytes();
    let noise = lcg_bytes(0x9E37_79B9_7F4A_7C15, 100_000);
    let mut min_match = b"wxyzwxyz".to_vec();
    min_match.extend((0u16..400).flat_map(|n| n.to_be_bytes()));
    let cases = [
        ("corpus", CodecId::Hlz, &corpus[..]),
        ("corpus stored", CodecId::Null, &corpus[..]),
        ("hsgen", CodecId::Hlz, &hs[..hs.len().min(250_000)]),
        ("noise", CodecId::Hlz, &noise[..]),
        ("min-match repeats", CodecId::Hlz, &min_match[..]),
    ];
    for ((name, codec, data), want) in cases.into_iter().zip(PINS) {
        assert_eq!(pin(codec, data), want, "{name}: container (len, crc32) moved");
    }
}

#[test]
fn edge_shapes_match_the_pinned_encoder() {
    let mut got = Vec::new();
    for n in 0..=8usize {
        got.push(pin(CodecId::Hlz, &b"abcdefgh"[..n]));
    }
    got.push(pin(CodecId::Hlz, &[b'a'; 70_000]));
    got.push(pin(CodecId::Hlz, &[0u8; 65_536]));
    got.push(pin(CodecId::Hlz, &[0u8; 65_537]));
    got.push(pin(CodecId::Hlz, &b"hadoop ".repeat(10_000)));
    assert_eq!(got, EDGE_PINS);
}

#[test]
fn mixed_inputs_match_the_pinned_encoder() {
    // One digest over 48 structured inputs: any divergence in any of them
    // moves it.
    let mut digest = Crc32::new();
    let mut total = 0usize;
    for seed in 0..48u64 {
        let (len, crc) = pin(CodecId::Hlz, &mixed(seed));
        total += len;
        digest.update(&crc.to_le_bytes());
    }
    assert_eq!((total, digest.finish()), MIXED_PIN);
}

/// `(container length, CRC32 of the container)`, captured at the parent
/// commit (`23a1b33`) with the byte-at-a-time encoder and the
/// single-chain CRC.
const PINS: [(usize, u32); 5] = [
    (125_508, 0x2045_08EB),
    (300_093, 0xD123_06D1),
    (83_642, 0x2F86_2BF4),
    (100_038, 0xCE00_2402),
    (825, 0xC22D_ED01),
];
const EDGE_PINS: [(usize, u32); 13] = [
    (0, 0),
    (16, 1_717_585_640),
    (17, 2_020_223_616),
    (18, 1_761_996_632),
    (19, 756_923_010),
    (20, 3_355_697_268),
    (21, 1_724_264_926),
    (22, 3_889_804_247),
    (23, 1_295_833_359),
    (319, 823_579_985),
    (280, 3_965_830_258),
    (296, 3_604_539_356),
    (331, 1_509_943_377),
];
const MIXED_PIN: (usize, u32) = (363_664, 2_811_814_394);
