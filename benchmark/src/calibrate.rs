//! Speed normalisation for the host clock.
//!
//! The sandbox's effective CPU speed is not constant: a fixed CPU-bound
//! kernel measured back to back drifts by 30–40% over minutes (process CPU
//! time drifts with it, so it is contention on the physical core, not
//! steal), and raw wall-clock medians of the same commit then differ by
//! 10–25% between runs — wider than any bound worth gating on. So every
//! end-to-end host timing is bracketed by a fixed reference kernel, and is
//! reported as the time it would have taken on a machine where that kernel
//! takes [`REFERENCE_KERNEL_S`]:
//!
//! `normalised = raw × REFERENCE_KERNEL_S ÷ mean(kernel before, kernel after)`
//!
//! The kernel is written here, against `std` only, so no change to the
//! system under test can move it. It is deliberately shaped like the
//! system's hot paths — building short strings, counting them in an ordered
//! map, sorting integers and strings — because a kernel that only did
//! arithmetic tracked the workloads' slow-downs less well (measured: the
//! sort+strings mix cut run-to-run spread from 7–13% raw to 3–7%; a
//! cache-missing gather made it worse). Raw timings are kept beside the
//! normalised ones in the result file.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The reference machine: one on which [`Calibrator::sample`] takes this
/// long. It is this sandbox on a quiet minute, so normalised and raw
/// numbers are close whenever the box is undisturbed.
pub const REFERENCE_KERNEL_S: f64 = 0.040;

const SORT_ROUNDS: usize = 6;
const SORT_WORDS: usize = 1 << 17;
const STRINGS: usize = 1 << 16;
const VOCABULARY: u64 = 20_000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One host timing with the kernel samples that bracket it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Wall seconds as measured.
    pub raw_s: f64,
    /// Mean of the kernel's seconds just before and just after.
    pub kernel_s: f64,
}

impl Timing {
    /// Seconds on the reference machine.
    pub fn normalised_s(&self) -> f64 {
        self.raw_s * REFERENCE_KERNEL_S / self.kernel_s
    }
}

/// Runs the reference kernel and remembers the latest sample, so adjacent
/// timings share the sample between them.
pub struct Calibrator {
    numbers: Vec<u64>,
    latest_s: f64,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    /// A calibrator with one sample already taken.
    pub fn new() -> Self {
        let mut c = Calibrator { numbers: Vec::with_capacity(SORT_WORDS), latest_s: 0.0 };
        c.sample();
        c
    }

    /// Run the kernel; returns (and remembers) its seconds.
    pub fn sample(&mut self) -> f64 {
        let started = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0u64;
        for _ in 0..SORT_ROUNDS {
            self.numbers.clear();
            for _ in 0..SORT_WORDS {
                self.numbers.push(xorshift(&mut x));
            }
            self.numbers.sort_unstable();
            acc = acc.wrapping_add(self.numbers[SORT_WORDS / 2]);
        }
        let mut words: Vec<String> = Vec::with_capacity(STRINGS);
        for _ in 0..STRINGS {
            let mut rank = xorshift(&mut x) % VOCABULARY;
            let mut word = String::with_capacity(8);
            word.push('w');
            for _ in 0..7 {
                word.push(char::from(b'0' + (rank % 10) as u8));
                rank /= 10;
            }
            words.push(word);
        }
        let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
        for word in &words {
            *counts.entry(word).or_default() += 1;
        }
        acc = acc.wrapping_add(counts.len() as u64);
        drop(counts);
        words.sort_unstable();
        acc = acc.wrapping_add(words[STRINGS / 2].len() as u64);
        black_box(acc);
        self.latest_s = started.elapsed().as_secs_f64();
        self.latest_s
    }

    /// Time `f` between the latest kernel sample and a fresh one.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timing) {
        let before = self.latest_s;
        let started = Instant::now();
        let out = f();
        let raw_s = started.elapsed().as_secs_f64();
        let after = self.sample();
        (out, Timing { raw_s, kernel_s: (before + after) / 2.0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_timing_on_the_reference_machine_is_unchanged() {
        let t = Timing { raw_s: 2.0, kernel_s: REFERENCE_KERNEL_S };
        assert_eq!(t.normalised_s(), 2.0);
        // A machine running the kernel 25% slower is credited 20% of the time.
        let slow = Timing { raw_s: 2.5, kernel_s: REFERENCE_KERNEL_S * 1.25 };
        assert!((slow.normalised_s() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn the_calibrator_brackets_what_it_times() {
        let mut c = Calibrator::new();
        let first = c.latest_s;
        assert!(first > 0.0);
        let (value, timing) = c.time(|| 7);
        assert_eq!(value, 7);
        assert!(timing.raw_s >= 0.0 && timing.kernel_s > 0.0);
        assert!((timing.kernel_s - (first + c.latest_s) / 2.0).abs() < 1e-12);
    }
}
