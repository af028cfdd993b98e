//! Byte-size constants, parsing, and human-readable formatting.
//!
//! The paper speaks in dataset sizes (250 MB MovieLens, 10 GB Yahoo, 12 GB
//! Airline, 171 GB Google trace) and hardware sizes (64 GB RAM, 850 GB HDD);
//! this module gives those numbers one well-tested home.

use std::fmt;

use crate::error::{HlError, Result};

/// Byte-size helpers. All constants are in bytes.
pub struct ByteSize;

impl ByteSize {
    /// One kibibyte.
    pub const KIB: u64 = 1024;
    /// One mebibyte.
    pub const MIB: u64 = 1024 * 1024;
    /// One gibibyte.
    pub const GIB: u64 = 1024 * 1024 * 1024;
    /// One tebibyte.
    const TIB: u64 = 1024 * 1024 * 1024 * 1024;

    /// Format a byte count the way `hadoop fs -du -h` does: the largest
    /// binary unit that keeps the mantissa below 1024, one decimal.
    pub fn display(bytes: u64) -> DisplayBytes {
        DisplayBytes(bytes)
    }

    /// Parse sizes like `64m`, `10g`, `512k`, `171G`, `850gb`, or plain byte
    /// counts. Case-insensitive; optional trailing `b`.
    pub fn parse(s: &str) -> Result<u64> {
        let s = s.trim();
        if s.is_empty() {
            return Err(HlError::Config("empty size string".into()));
        }
        let lower = s.to_ascii_lowercase();
        let lower = lower.strip_suffix('b').unwrap_or(&lower);
        let (num, mult) = match lower.as_bytes().last() {
            Some(b'k') => (&lower[..lower.len() - 1], Self::KIB),
            Some(b'm') => (&lower[..lower.len() - 1], Self::MIB),
            Some(b'g') => (&lower[..lower.len() - 1], Self::GIB),
            Some(b't') => (&lower[..lower.len() - 1], Self::TIB),
            _ => (lower, 1),
        };
        let value: f64 =
            num.trim().parse().map_err(|_| HlError::Config(format!("cannot parse size {s:?}")))?;
        if value < 0.0 {
            return Err(HlError::Config(format!("negative size {s:?}")));
        }
        Ok((value * mult as f64).round() as u64)
    }
}

/// Lazily-formatted byte count (see [`ByteSize::display`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DisplayBytes(pub u64);

impl fmt::Display for DisplayBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b < ByteSize::KIB {
            return write!(f, "{b} B");
        }
        let (value, unit) = if b >= ByteSize::TIB {
            (b as f64 / ByteSize::TIB as f64, "TiB")
        } else if b >= ByteSize::GIB {
            (b as f64 / ByteSize::GIB as f64, "GiB")
        } else if b >= ByteSize::MIB {
            (b as f64 / ByteSize::MIB as f64, "MiB")
        } else {
            (b as f64 / ByteSize::KIB as f64, "KiB")
        };
        write!(f, "{value:.1} {unit}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_course_sizes() {
        assert_eq!(ByteSize::parse("64m").unwrap(), 64 * ByteSize::MIB);
        assert_eq!(ByteSize::parse("171G").unwrap(), 171 * ByteSize::GIB);
        assert_eq!(ByteSize::parse("850gb").unwrap(), 850 * ByteSize::GIB);
        assert_eq!(ByteSize::parse("0.5k").unwrap(), 512);
        assert_eq!(ByteSize::parse("12345").unwrap(), 12345);
        assert_eq!(ByteSize::parse(" 2t ").unwrap(), 2 * ByteSize::TIB);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ByteSize::parse("").is_err());
        assert!(ByteSize::parse("fast").is_err());
        assert!(ByteSize::parse("-5g").is_err());
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(ByteSize::display(512).to_string(), "512 B");
        assert_eq!(ByteSize::display(64 * ByteSize::MIB).to_string(), "64.0 MiB");
        assert_eq!(ByteSize::display(171 * ByteSize::GIB).to_string(), "171.0 GiB");
        assert_eq!(ByteSize::display(1536).to_string(), "1.5 KiB");
    }

    #[test]
    fn display_parse_round_trip_on_exact_units() {
        for &b in &[ByteSize::KIB, ByteSize::MIB, 64 * ByteSize::MIB, 10 * ByteSize::GIB] {
            let shown = ByteSize::display(b).to_string();
            let (num, unit) = shown.split_once(' ').unwrap();
            let suffix = match unit {
                "B" => "",
                "KiB" => "k",
                "MiB" => "m",
                "GiB" => "g",
                "TiB" => "t",
                _ => panic!("unit {unit}"),
            };
            assert_eq!(ByteSize::parse(&format!("{num}{suffix}")).unwrap(), b);
        }
    }
}
