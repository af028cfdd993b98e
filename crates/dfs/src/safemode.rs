//! NameNode safe mode.
//!
//! On startup the NameNode knows *which* blocks should exist (from the
//! fsimage/edit log) but not *where* they are; it stays in safe mode —
//! rejecting writes and job submissions — until a configured fraction of
//! blocks has been reported by DataNodes, plus a settling extension. This
//! is the mechanism behind the paper's fifteen-minute restarts, and behind
//! the Version-1 meltdown: students resubmitting into a cluster that was
//! still counting blocks.

use hl_common::prelude::*;

/// Safe-mode state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct SafeMode {
    /// Fraction of expected blocks that must be reported (e.g. 0.999).
    pub threshold: f64,
    /// Extra settling time after the threshold is met.
    pub extension: SimDuration,
    state: State,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    /// Counting block reports.
    On { threshold_met_at: Option<SimTime> },
    /// Left safe mode.
    Off,
    /// Manually forced on (`dfsadmin -safemode enter`).
    Forced,
}

impl SafeMode {
    /// Enter safe mode with the given exit policy (NameNode startup).
    pub(crate) fn new(threshold: f64, extension: SimDuration) -> Self {
        SafeMode { threshold, extension, state: State::On { threshold_met_at: None } }
    }

    /// Is the NameNode currently refusing mutations?
    pub fn is_on(&self) -> bool {
        !matches!(self.state, State::Off)
    }

    /// Re-evaluate given the current block census. Returns `true` when this
    /// call *exits* safe mode.
    ///
    /// `reported` / `expected` are block counts; an empty namespace
    /// trivially satisfies any threshold.
    pub fn update(&mut self, now: SimTime, reported: usize, expected: usize) -> bool {
        let met = expected == 0 || (reported as f64) >= self.threshold * expected as f64;
        match &mut self.state {
            State::Off | State::Forced => false,
            State::On { threshold_met_at } => {
                if !met {
                    // Regression (e.g. a DataNode died mid-startup): restart
                    // the extension clock.
                    *threshold_met_at = None;
                    return false;
                }
                let since = *threshold_met_at.get_or_insert(now);
                if now.since(since) >= self.extension {
                    self.state = State::Off;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// `dfsadmin -safemode enter`.
    pub fn force_enter(&mut self) {
        self.state = State::Forced;
    }

    /// `dfsadmin -safemode leave`.
    pub fn force_leave(&mut self) {
        self.state = State::Off;
    }

    /// Status line for the web UI / `dfsadmin -safemode get`.
    pub fn status(&self, reported: usize, expected: usize) -> String {
        match self.state {
            State::Off => "Safe mode is OFF".to_string(),
            State::Forced => "Safe mode is ON (manually entered)".to_string(),
            State::On { .. } => format!(
                "Safe mode is ON. Reported blocks {reported} of expected {expected} \
                 (threshold {:.1}%).",
                self.threshold * 100.0
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sm() -> SafeMode {
        SafeMode::new(0.999, SimDuration::from_secs(30))
    }

    #[test]
    fn stays_on_below_threshold() {
        let mut s = sm();
        assert!(s.is_on());
        assert!(!s.update(SimTime(0), 500, 1000));
        assert!(s.is_on());
        assert!(s.status(500, 1000).contains("Safe mode is ON"));
    }

    #[test]
    fn exits_after_threshold_plus_extension() {
        let mut s = sm();
        // Threshold met at t=10s; extension 30s → exit at t=40s.
        assert!(!s.update(SimTime(10_000_000), 999, 1000));
        assert!(!s.update(SimTime(30_000_000), 1000, 1000));
        assert!(s.is_on());
        let exited = s.update(SimTime(40_000_000), 1000, 1000);
        assert!(exited);
        assert!(!s.is_on());
        // Further updates are no-ops.
        assert!(!s.update(SimTime(50_000_000), 0, 1000));
        assert!(!s.is_on());
    }

    #[test]
    fn regression_resets_extension_clock() {
        let mut s = sm();
        s.update(SimTime(0), 1000, 1000);
        // A DataNode dies: reported drops below threshold.
        s.update(SimTime(10_000_000), 400, 1000);
        // Recovers at t=35s; extension restarts, so not out at t=40s...
        assert!(!s.update(SimTime(35_000_000), 1000, 1000));
        assert!(!s.update(SimTime(40_000_000), 1000, 1000));
        // ...but out at t=65s.
        assert!(s.update(SimTime(65_000_000), 1000, 1000));
    }

    #[test]
    fn empty_namespace_exits_after_extension_only() {
        let mut s = sm();
        assert!(!s.update(SimTime(0), 0, 0));
        assert!(s.update(SimTime(30_000_000), 0, 0));
    }

    #[test]
    fn forced_modes() {
        let mut s = sm();
        s.force_leave();
        assert!(!s.is_on());
        s.force_enter();
        assert!(s.is_on());
        // update() never exits a forced safe mode.
        assert!(!s.update(SimTime(100_000_000), 10, 10));
        assert!(s.is_on());
        assert!(s.status(10, 10).contains("manually"));
        s.force_leave();
        assert!(!s.is_on());
    }
}
