//! Virtual time for the discrete-event simulator.
//!
//! HadoopLab executes real map/reduce code over real bytes but *charges*
//! I/O, network, and daemon-protocol time against a deterministic virtual
//! clock, so the paper's hour-scale phenomena (171 GB staging, 15-minute
//! safe-mode restarts) reproduce in milliseconds of wall time.
//!
//! Times are microseconds in a `u64`: integral, totally ordered, and immune
//! to float drift across platforms.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the virtual timeline (microseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time (microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Duration since an earlier instant; saturates at zero if `earlier` is
    /// actually later (callers comparing heartbeat timestamps tolerate skew).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Microseconds since the epoch.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as a float (for reports only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// From whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// From whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// From whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60 * 1_000_000)
    }

    /// From whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3600 * 1_000_000)
    }

    /// Time to move `bytes` at `bytes_per_sec` (the core of the cost model).
    /// A zero/absurd bandwidth charges nothing rather than dividing by zero.
    pub fn for_transfer(bytes: u64, bytes_per_sec: u64) -> Self {
        if bytes_per_sec == 0 {
            return SimDuration::ZERO;
        }
        // micros = bytes * 1e6 / bw, in u128 to avoid overflow at TiB scale.
        SimDuration((bytes as u128 * 1_000_000 / bytes_per_sec as u128) as u64)
    }

    /// Microseconds in this span.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds as a float (reports only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimDuration {
    /// `1h 02m 03s`, `4m 05s`, `6.25s`, `750ms`, `12us` — the resolution a
    /// job report needs, nothing more.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0;
        if us >= 3_600_000_000 {
            let s = us / 1_000_000;
            write!(f, "{}h {:02}m {:02}s", s / 3600, (s % 3600) / 60, s % 60)
        } else if us >= 60_000_000 {
            let s = us / 1_000_000;
            write!(f, "{}m {:02}s", s / 60, s % 60)
        } else if us >= 1_000_000 {
            write!(f, "{:.2}s", us as f64 / 1e6)
        } else if us >= 1_000 {
            write!(f, "{}ms", us / 1_000)
        } else {
            write!(f, "{us}us")
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", SimDuration(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::ZERO + SimDuration::from_secs(90);
        assert_eq!(t.as_micros(), 90_000_000);
        assert_eq!(t - SimTime::ZERO, SimDuration::from_secs(90));
        assert_eq!(SimTime(5).since(SimTime(9)), SimDuration::ZERO); // saturates
        assert_eq!(SimDuration::from_secs(10) / 4, SimDuration::from_micros(2_500_000));
        assert_eq!(SimDuration::from_millis(3) * 1000, SimDuration::from_secs(3));
    }

    #[test]
    fn transfer_cost_matches_bandwidth_math() {
        // 171 GB over a 1 MB/s virtual link (the paper's crippled VM network)
        // should be about 2 days; over GigE (~117 MiB/s) about 25 minutes.
        let gb171 = 171 * 1024 * 1024 * 1024u64;
        let slow = SimDuration::for_transfer(gb171, 1024 * 1024);
        assert!(slow > SimDuration::from_hours(40) && slow < SimDuration::from_hours(60));
        let gige = SimDuration::for_transfer(gb171, 117 * 1024 * 1024);
        assert!(gige > SimDuration::from_mins(20) && gige < SimDuration::from_mins(30));
        assert_eq!(SimDuration::for_transfer(123, 0), SimDuration::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_hours(1).to_string(), "1h 00m 00s");
        assert_eq!(
            (SimDuration::from_hours(1) + SimDuration::from_secs(125)).to_string(),
            "1h 02m 05s"
        );
        assert_eq!(SimDuration::from_secs(245).to_string(), "4m 05s");
        assert_eq!(SimDuration::from_millis(6250).to_string(), "6.25s");
        assert_eq!(SimDuration::from_millis(750).to_string(), "750ms");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12us");
        assert_eq!(SimTime(1_000_000).to_string(), "t=1.00s");
    }
}
