//! Shared campus state: the batch scheduler and the cluster-wide port
//! registry, plus the cleanup cron that sweeps ghost daemons.

use crate::ports::PortRegistry;
use crate::scheduler::BatchScheduler;
use crate::trace::EventLog;
use hl_common::prelude::*;

/// The shared supercomputer, as one student's myHadoop session sees it.
#[derive(Debug)]
pub struct Campus {
    /// The PBS-like scheduler.
    pub scheduler: BatchScheduler,
    /// Port bindings across all nodes.
    pub ports: PortRegistry,
    /// Shared trace.
    pub log: EventLog,
    /// Campus-wide virtual clock.
    pub now: SimTime,
}

impl Campus {
    /// A campus machine with `nodes` schedulable nodes.
    pub fn new(nodes: usize) -> Self {
        Campus {
            scheduler: BatchScheduler::new(nodes),
            ports: PortRegistry::new(),
            log: EventLog::new(),
            now: SimTime::ZERO,
        }
    }

    /// Advance the clock, firing the cleanup cron when due. Returns how
    /// many ghost bindings the cron swept.
    pub fn advance_to(&mut self, t: SimTime) -> usize {
        let mut swept = 0;
        if t > self.now {
            self.now = t;
        }
        if self.scheduler.cleanup_due(self.now) {
            swept = self.ports.cleanup_all();
            if swept > 0 {
                self.log.log(self.now, "cleanup-cron", format!("swept {swept} orphaned daemon(s)"));
            }
        }
        swept
    }

    /// Time until the next cleanup pass at or after `t` (for students
    /// deciding whether to wait out a ghost).
    pub(crate) fn next_cleanup_after(&self, t: SimTime) -> SimTime {
        // The cron runs on multiples of the period from the last firing;
        // conservatively, the worst case is one full period.
        t + self.scheduler.cleanup_period
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cleanup_cron_sweeps_ghosts_on_schedule() {
        let mut campus = Campus::new(4);
        campus.ports.bind(SimTime::ZERO, NodeId(0), 50060, "alice").unwrap();
        campus.ports.orphan_owner("alice");
        // Before the period: nothing.
        assert_eq!(campus.advance_to(SimTime::ZERO + SimDuration::from_mins(5)), 0);
        assert_eq!(campus.ports.holder(NodeId(0), 50060), Some(("alice", false)));
        // At 15 minutes: swept.
        assert_eq!(campus.advance_to(SimTime::ZERO + SimDuration::from_mins(15)), 1);
        assert_eq!(campus.ports.holder(NodeId(0), 50060), None);
        assert_eq!(campus.log.grep("swept").count(), 1);
    }

    #[test]
    fn clock_is_monotone() {
        let mut campus = Campus::new(1);
        campus.advance_to(SimTime(100));
        campus.advance_to(SimTime(50));
        assert_eq!(campus.now, SimTime(100));
    }
}
