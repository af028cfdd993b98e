//! Byte-size constants and human-readable formatting.
//!
//! The paper speaks in dataset sizes (250 MB MovieLens, 10 GB Yahoo, 12 GB
//! Airline, 171 GB Google trace) and hardware sizes (64 GB RAM, 850 GB HDD);
//! this module gives those numbers one well-tested home.

use std::fmt;

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
    fn display_picks_sane_units() {
        assert_eq!(ByteSize::display(512).to_string(), "512 B");
        assert_eq!(ByteSize::display(64 * ByteSize::MIB).to_string(), "64.0 MiB");
        assert_eq!(ByteSize::display(171 * ByteSize::GIB).to_string(), "171.0 GiB");
        assert_eq!(ByteSize::display(1536).to_string(), "1.5 KiB");
    }
}
