//! Order-preserving key encodings.
//!
//! The shuffle sorts map output by key. Hadoop avoids deserializing keys to
//! compare them by registering `RawComparator`s over serialized bytes; we
//! get the same effect by requiring keys to encode such that **plain
//! `memcmp` on encodings equals the natural order** — the perf-book idiom
//! of making the cheap comparison the correct one.
//!
//! * unsigned integers → big-endian fixed width
//! * signed integers → sign bit flipped, then big-endian
//! * floats → IEEE total-order trick (flip sign bit for positives, all bits
//!   for negatives)
//! * strings → raw UTF-8 (memcmp on UTF-8 equals `str` ordering)
//! * pairs → length-safe concatenation via u16-prefixed escaping is *not*
//!   needed here because composite keys encode the first component
//!   fixed-width or terminated; the provided `Pair` helper handles the
//!   common (fixed, variable) case.

use crate::error::{HlError, Result};
use crate::writable::Writable;

/// A key type whose encoded bytes compare like the values themselves.
///
/// Laws (checked by property tests here and in the engine):
/// 1. `encode(a) < encode(b)` (lexicographic) iff `a < b`;
/// 2. `decode(encode(a)) == a`.
///
/// ```
/// use hl_common::keys::SortableKey;
/// // Negative numbers would break a naive big-endian sort; the
/// // sign-flipped encoding keeps byte order == numeric order.
/// assert!((-5i64).ordered_bytes() < 3i64.ordered_bytes());
/// assert!(3i64.ordered_bytes() < 40i64.ordered_bytes());
/// ```
pub trait SortableKey: Writable + Ord + Clone {
    /// Append the order-preserving encoding to `buf`.
    fn encode_ordered(&self, buf: &mut Vec<u8>);
    /// Decode from the front of `buf`, advancing it.
    fn decode_ordered(buf: &mut &[u8]) -> Result<Self>;

    /// Encode into a fresh buffer.
    fn ordered_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_ordered(&mut buf);
        buf
    }
}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if buf.len() < n {
        return Err(HlError::Codec("truncated ordered key".into()));
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

macro_rules! unsigned_sortable {
    ($($t:ty),*) => {$(
        impl SortableKey for $t {
            fn encode_ordered(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_be_bytes());
            }
            fn decode_ordered(buf: &mut &[u8]) -> Result<Self> {
                let n = std::mem::size_of::<$t>();
                Ok(<$t>::from_be_bytes(take(buf, n)?.try_into().unwrap()))
            }
        }
    )*};
}

unsigned_sortable!(u8, u16, u32, u64);

macro_rules! signed_sortable {
    ($(($t:ty, $u:ty)),*) => {$(
        impl SortableKey for $t {
            fn encode_ordered(&self, buf: &mut Vec<u8>) {
                // Flip the sign bit: maps MIN..=MAX onto 0..=uMAX monotonically.
                let flipped = (*self as $u) ^ (1 << (<$t>::BITS - 1));
                buf.extend_from_slice(&flipped.to_be_bytes());
            }
            fn decode_ordered(buf: &mut &[u8]) -> Result<Self> {
                let n = std::mem::size_of::<$t>();
                let flipped = <$u>::from_be_bytes(take(buf, n)?.try_into().unwrap());
                Ok((flipped ^ (1 << (<$t>::BITS - 1))) as $t)
            }
        }
    )*};
}

signed_sortable!((i8, u8), (i16, u16), (i32, u32), (i64, u64));

/// A totally-ordered `f64` key (NaN sorts above +inf, like IEEE totalOrder).
///
/// Raw `f64` is not `Ord`, so jobs that key by a float (e.g. "album with the
/// highest average rating" sorted output) wrap it in `OrderedF64`.
#[derive(Debug, Clone, Copy, PartialEq)]
// lint:allow(R9): the float key a lab job sorts by; its order is property-tested below
pub struct OrderedF64(pub f64);

impl OrderedF64 {
    fn total_bits(self) -> u64 {
        let bits = self.0.to_bits();
        if bits & (1 << 63) != 0 {
            !bits // negative: flip everything
        } else {
            bits | (1 << 63) // positive: flip sign bit
        }
    }
}

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.total_bits().cmp(&other.total_bits())
    }
}

impl Writable for OrderedF64 {
    fn write(&self, buf: &mut Vec<u8>) {
        self.0.write(buf);
    }
    fn read(buf: &mut &[u8]) -> Result<Self> {
        Ok(OrderedF64(f64::read(buf)?))
    }
}

impl SortableKey for OrderedF64 {
    fn encode_ordered(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.total_bits().to_be_bytes());
    }
    fn decode_ordered(buf: &mut &[u8]) -> Result<Self> {
        let bits = u64::from_be_bytes(take(buf, 8)?.try_into().unwrap());
        let raw = if bits & (1 << 63) != 0 { bits & !(1 << 63) } else { !bits };
        Ok(OrderedF64(f64::from_bits(raw)))
    }
}

impl SortableKey for String {
    /// UTF-8 bytes compare exactly like `str`; a trailing `0x00` terminator
    /// makes the encoding self-delimiting inside composite keys. Interior
    /// bytes `0x00`/`0x01` are escaped as `0x01 0x01` / `0x01 0x02`, which
    /// preserves lexicographic order (`0x00 < 0x01` maps to
    /// `0x01 0x01 < 0x01 0x02`, both below any unescaped byte `>= 0x02`)
    /// and never requires lookahead past the terminator, so a following
    /// composite field may begin with any byte.
    fn encode_ordered(&self, buf: &mut Vec<u8>) {
        let mut rest = self.as_bytes();
        while let Some(i) = rest.iter().position(|&b| b <= 0x01) {
            buf.extend_from_slice(&rest[..i]);
            buf.extend_from_slice(&[0x01, rest[i] + 1]);
            rest = &rest[i + 1..];
        }
        buf.extend_from_slice(rest);
        buf.push(0);
    }

    fn decode_ordered(buf: &mut &[u8]) -> Result<Self> {
        let mut out = Vec::new();
        loop {
            // Only the terminator and the escape lead are `<= 0x01`; a
            // string without escapes is the one stretch before the first.
            let i = buf
                .iter()
                .position(|&b| b <= 0x01)
                .ok_or_else(|| HlError::Codec("unterminated ordered string".into()))?;
            out.extend_from_slice(&buf[..i]);
            let terminated = buf[i] == 0x00;
            *buf = &buf[i + 1..];
            if terminated {
                break;
            }
            let (&esc, rest) = buf
                .split_first()
                .ok_or_else(|| HlError::Codec("dangling escape in ordered string".into()))?;
            *buf = rest;
            match esc {
                0x01 => out.push(0x00),
                0x02 => out.push(0x01),
                other => {
                    return Err(HlError::Codec(format!(
                        "invalid ordered-string escape 0x01 0x{other:02x}"
                    )))
                }
            }
        }
        String::from_utf8(out).map_err(|e| HlError::Codec(format!("ordered string UTF-8: {e}")))
    }
}

/// Composite two-part key, ordered by first then second component —
/// the secondary-sort pattern from the course's advanced lecture.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Pair<A, B>(pub A, pub B);

impl<A: Writable, B: Writable> Writable for Pair<A, B> {
    fn write(&self, buf: &mut Vec<u8>) {
        self.0.write(buf);
        self.1.write(buf);
    }
    fn read(buf: &mut &[u8]) -> Result<Self> {
        Ok(Pair(A::read(buf)?, B::read(buf)?))
    }
}

impl<A: SortableKey, B: SortableKey> SortableKey for Pair<A, B> {
    fn encode_ordered(&self, buf: &mut Vec<u8>) {
        self.0.encode_ordered(buf);
        self.1.encode_ordered(buf);
    }
    fn decode_ordered(buf: &mut &[u8]) -> Result<Self> {
        Ok(Pair(A::decode_ordered(buf)?, B::decode_ordered(buf)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn order_preserved<K: SortableKey + std::fmt::Debug>(a: K, b: K) {
        let (ea, eb) = (a.ordered_bytes(), b.ordered_bytes());
        assert_eq!(a.cmp(&b), ea.cmp(&eb), "{a:?} vs {b:?}");
        let mut sa = ea.as_slice();
        assert_eq!(K::decode_ordered(&mut sa).unwrap(), a);
        assert!(sa.is_empty());
    }

    #[test]
    fn signed_edge_cases() {
        let vals = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
        for &a in &vals {
            for &b in &vals {
                order_preserved(a, b);
            }
        }
    }

    #[test]
    fn float_edge_cases() {
        let vals = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1e300,
            f64::INFINITY,
        ];
        // The list is written in strictly increasing IEEE total order
        // (note -0.0 < 0.0 there); encodings must be strictly increasing too.
        for w in vals.windows(2) {
            let (ea, eb) = (OrderedF64(w[0]).ordered_bytes(), OrderedF64(w[1]).ordered_bytes());
            assert!(ea < eb, "{} should encode below {}", w[0], w[1]);
        }
        for &a in &vals {
            let oa = OrderedF64(a);
            let bytes = oa.ordered_bytes();
            let mut slice = bytes.as_slice();
            assert_eq!(OrderedF64::decode_ordered(&mut slice).unwrap().0.to_bits(), a.to_bits());
        }
        // NaN sorts at the top and round-trips.
        let nan = OrderedF64(f64::NAN);
        assert!(nan > OrderedF64(f64::INFINITY));
        let mut s = nan.ordered_bytes();
        let mut slice = s.as_mut_slice() as &[u8];
        assert!(OrderedF64::decode_ordered(&mut slice).unwrap().0.is_nan());
    }

    #[test]
    fn writable_round_trips_for_key_types() {
        // The Writable (value) path, distinct from the SortableKey
        // (ordered-encoding) path exercised above.
        for v in [0.0f64, -0.0, 2.5, f64::NEG_INFINITY, 1e300] {
            let k = OrderedF64(v);
            assert_eq!(OrderedF64::from_bytes(&k.to_bytes()).unwrap(), k);
        }
        let p = Pair("carrier".to_string(), -42i64);
        assert_eq!(Pair::<String, i64>::from_bytes(&p.to_bytes()).unwrap(), p);
        let nested = Pair(Pair(1u64, 2u64), "tail".to_string());
        assert_eq!(Pair::<Pair<u64, u64>, String>::from_bytes(&nested.to_bytes()).unwrap(), nested);
    }

    #[test]
    fn string_with_nuls_round_trips_in_order() {
        let a = "a\0b".to_string();
        let b = "a\0c".to_string();
        let c = "ab".to_string();
        order_preserved(a.clone(), b.clone());
        order_preserved(a, c.clone());
        order_preserved(b, c);
    }

    #[test]
    fn pair_orders_by_first_then_second() {
        let p1 = Pair("aa".to_string(), 5i64);
        let p2 = Pair("aa".to_string(), 6i64);
        let p3 = Pair("ab".to_string(), 0i64);
        order_preserved(p1.clone(), p2.clone());
        order_preserved(p2, p3.clone());
        order_preserved(p1, p3);
    }

    #[test]
    fn composite_string_key_self_delimits() {
        // Without the terminator, ("a","b") and ("ab","") would collide.
        let p1 = Pair("a".to_string(), "b".to_string());
        let p2 = Pair("ab".to_string(), "".to_string());
        assert_ne!(p1.ordered_bytes(), p2.ordered_bytes());
        assert_eq!(p1.cmp(&p2), p1.ordered_bytes().cmp(&p2.ordered_bytes()));
    }

    /// The byte-at-a-time ordered-string encoder the stretch-copying one
    /// replaced.
    fn encode_string_bytewise(s: &str, buf: &mut Vec<u8>) {
        for &b in s.as_bytes() {
            match b {
                0x00 => buf.extend_from_slice(&[0x01, 0x01]),
                0x01 => buf.extend_from_slice(&[0x01, 0x02]),
                _ => buf.push(b),
            }
        }
        buf.push(0);
    }

    /// The byte-at-a-time decoder, likewise.
    fn decode_string_bytewise(buf: &mut &[u8]) -> Result<String> {
        let mut out = Vec::new();
        loop {
            let (&b, rest) = buf
                .split_first()
                .ok_or_else(|| HlError::Codec("unterminated ordered string".into()))?;
            *buf = rest;
            match b {
                0x00 => break,
                0x01 => {
                    let (&esc, rest2) = buf.split_first().ok_or_else(|| {
                        HlError::Codec("dangling escape in ordered string".into())
                    })?;
                    *buf = rest2;
                    match esc {
                        0x01 => out.push(0x00),
                        0x02 => out.push(0x01),
                        other => {
                            return Err(HlError::Codec(format!(
                                "invalid ordered-string escape 0x01 0x{other:02x}"
                            )))
                        }
                    }
                }
                _ => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|e| HlError::Codec(format!("ordered string UTF-8: {e}")))
    }

    /// Both escaped bytes, the smallest unescaped byte, a letter and a
    /// two-byte character.
    const PIECES: [&str; 5] = ["\0", "\x01", "\x02", "a", "\u{e9}"];

    /// Every string of up to `max` pieces.
    fn piece_strings(max: usize) -> Vec<String> {
        let mut all = vec![String::new()];
        let mut from = 0;
        for _ in 0..max {
            let upto = all.len();
            for i in from..upto {
                for p in PIECES {
                    let longer = format!("{}{p}", all[i]);
                    all.push(longer);
                }
            }
            from = upto;
        }
        all
    }

    #[test]
    fn string_codec_matches_the_bytewise_reference_exhaustively() {
        let strings = piece_strings(4);
        assert_eq!(strings.len(), 1 + 5 + 25 + 125 + 625);
        let encoded: Vec<Vec<u8>> = strings.iter().map(SortableKey::ordered_bytes).collect();
        for (s, enc) in strings.iter().zip(&encoded) {
            let mut reference = Vec::new();
            encode_string_bytewise(s, &mut reference);
            assert_eq!(enc, &reference, "{s:?}");
            // Followed by another field: decoding stops at the terminator.
            let mut framed = enc.clone();
            framed.push(0x01);
            let mut slice = framed.as_slice();
            assert_eq!(&String::decode_ordered(&mut slice).unwrap(), s);
            assert_eq!(slice, [0x01]);
            // Every proper prefix lacks the terminator.
            for cut in 0..enc.len() {
                let mut slice = &enc[..cut];
                let err = String::decode_ordered(&mut slice).unwrap_err();
                assert!(matches!(err, HlError::Codec(_)), "{s:?} cut at {cut}: {err:?}");
            }
        }
        for (a, ea) in strings.iter().zip(&encoded) {
            for (b, eb) in strings.iter().zip(&encoded) {
                assert_eq!(a.cmp(b), ea.cmp(eb), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn string_decode_rejects_bad_escapes() {
        for bad in [&[0x01, 0x00][..], &[0x01, 0x03, 0x00], &[b'a', 0x01, b'a', 0x00], &[0x01]] {
            let mut slice = bad;
            let err = String::decode_ordered(&mut slice).unwrap_err();
            assert!(matches!(err, HlError::Codec(_)), "{bad:?}: {err:?}");
        }
        // Escapes decode to bytes, so they can spell invalid UTF-8.
        let mut slice = &[0xC3, 0x01, 0x01, 0x00][..];
        assert!(matches!(String::decode_ordered(&mut slice), Err(HlError::Codec(_))));
    }

    proptest! {
        #[test]
        fn prop_i64_order(a: i64, b: i64) {
            prop_assert_eq!(a.cmp(&b), a.ordered_bytes().cmp(&b.ordered_bytes()));
        }

        #[test]
        fn prop_u64_round_trip(a: u64) {
            let bytes = a.ordered_bytes();
            let mut s = bytes.as_slice();
            prop_assert_eq!(u64::decode_ordered(&mut s).unwrap(), a);
        }

        #[test]
        fn prop_string_order(a in ".*", b in ".*") {
            let (sa, sb) = (a.to_string(), b.to_string());
            prop_assert_eq!(sa.cmp(&sb), sa.ordered_bytes().cmp(&sb.ordered_bytes()));
        }

        #[test]
        fn prop_string_round_trip(a in "\\PC*") {
            let s = a.to_string();
            let bytes = s.ordered_bytes();
            let mut slice = bytes.as_slice();
            prop_assert_eq!(String::decode_ordered(&mut slice).unwrap(), s);
            prop_assert!(slice.is_empty());
        }

        #[test]
        fn prop_string_codec_matches_bytewise_reference(
            pieces in proptest::collection::vec(0usize..PIECES.len() + 2, 0..40),
        ) {
            // Long escape-free stretches between the interesting pieces.
            let s: String = pieces
                .iter()
                .map(|&i| PIECES.get(i).copied().unwrap_or("plain stretch "))
                .collect();
            let mut reference = Vec::new();
            encode_string_bytewise(&s, &mut reference);
            let enc = s.ordered_bytes();
            prop_assert_eq!(&enc, &reference);
            let mut slice = enc.as_slice();
            prop_assert_eq!(String::decode_ordered(&mut slice).unwrap(), s);
            prop_assert!(slice.is_empty());
        }

        #[test]
        fn prop_string_decode_matches_bytewise_reference_on_any_bytes(
            picks in proptest::collection::vec(0usize..8, 0..12),
        ) {
            // Mostly malformed: stray escapes, bad UTF-8, no terminator.
            let bytes: Vec<u8> =
                picks.iter().map(|&i| [0x00, 0x01, 0x01, 0x02, 0x03, b'a', 0xC3, 0xA9][i]).collect();
            let (mut new, mut old) = (bytes.as_slice(), bytes.as_slice());
            let got = String::decode_ordered(&mut new).map_err(|e| e.to_string());
            let want = decode_string_bytewise(&mut old).map_err(|e| e.to_string());
            if want.is_ok() {
                prop_assert_eq!(new, old, "bytes consumed");
            }
            prop_assert_eq!(got, want);
        }

        #[test]
        fn prop_f64_order(a: f64, b: f64) {
            let (oa, ob) = (OrderedF64(a), OrderedF64(b));
            prop_assert_eq!(oa.cmp(&ob), oa.ordered_bytes().cmp(&ob.ordered_bytes()));
        }

        #[test]
        fn prop_pair_string_i64_order(a1 in ".*", a2: i64, b1 in ".*", b2: i64) {
            let pa = Pair(a1.to_string(), a2);
            let pb = Pair(b1.to_string(), b2);
            prop_assert_eq!(pa.cmp(&pb), pa.ordered_bytes().cmp(&pb.ordered_bytes()));
        }
    }
}
