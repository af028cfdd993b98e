//! FIFO bandwidth resources.
//!
//! Every disk, NIC, and shared-storage uplink is a pipe with a fixed
//! bandwidth and a single FIFO queue: a transfer starts when the pipe frees
//! up and holds it for `bytes / bandwidth`. This store-and-forward model is
//! deliberately simple — it is exactly rich enough to reproduce the
//! congestion shapes the paper narrates (everyone hammering the shared
//! parallel store on Figure 1's HPC layout; the whole class resubmitting
//! jobs the night before the deadline).

use hl_common::{SimDuration, SimTime};

/// A FIFO pipe with fixed bandwidth and cumulative accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipeResource {
    /// Human-readable name for traces ("node003.nic", "parallel-fs").
    pub name: String,
    /// Bandwidth in bytes per (virtual) second.
    pub bytes_per_sec: u64,
    free_at: SimTime,
    total_bytes: u64,
    busy: SimDuration,
    /// The latest op instant booked here (see [`PipeResource::note_op`]).
    latest_op: SimTime,
}

/// The interval a charge occupied its pipe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Charge {
    /// When the transfer began (>= request time; later if queued).
    pub start: SimTime,
    /// When the transfer finished.
    pub end: SimTime,
}

impl PipeResource {
    /// New idle pipe.
    pub fn new(name: impl Into<String>, bytes_per_sec: u64) -> Self {
        PipeResource {
            name: name.into(),
            bytes_per_sec,
            free_at: SimTime::ZERO,
            total_bytes: 0,
            busy: SimDuration::ZERO,
            latest_op: SimTime::ZERO,
        }
    }

    /// An op requested at `op` books this pipe. True when an op requested
    /// *later* has booked it already: FIFO then served this charge after
    /// work that virtual-time order would have served after it.
    pub(crate) fn note_op(&mut self, op: SimTime) -> bool {
        let late = op < self.latest_op;
        self.latest_op = self.latest_op.max(op);
        late
    }

    /// Charge a transfer of `bytes` requested at `now`; returns when it
    /// started and finished. FIFO: starts no earlier than the previous
    /// charge ended.
    pub fn charge(&mut self, now: SimTime, bytes: u64) -> Charge {
        let start = now.max(self.free_at);
        let service = SimDuration::for_transfer(bytes, self.bytes_per_sec);
        let end = start + service;
        self.free_at = end;
        self.total_bytes += bytes;
        self.busy += service;
        Charge { start, end }
    }

    /// [`PipeResource::charge`] against a degraded pipe: the transfer is
    /// served at `mult_bp` basis points of the pipe's nominal bandwidth
    /// (10 000 = nominal, and an exact alias for `charge`). Degradation
    /// is per-charge, not per-pipe state, so time-varying
    /// [`crate::node::DegradeModel`]s need no event scheduling.
    pub(crate) fn charge_scaled(&mut self, now: SimTime, bytes: u64, mult_bp: u32) -> Charge {
        use crate::node::PerfProfile;
        if mult_bp >= PerfProfile::NOMINAL_BP {
            return self.charge(now, bytes);
        }
        let start = now.max(self.free_at);
        let service =
            SimDuration::for_transfer(bytes, PerfProfile::scale_bw(self.bytes_per_sec, mult_bp));
        let end = start + service;
        self.free_at = end;
        self.total_bytes += bytes;
        self.busy += service;
        Charge { start, end }
    }

    /// Earliest instant a new charge could start.
    pub(crate) fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Total bytes ever charged (the per-link traffic counters behind the
    /// Figure 1 experiment).
    pub(crate) fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Utilization in `[0,1]` over the window ending at `now`.
    pub(crate) fn utilization(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        (self.busy.as_secs_f64() / now.as_secs_f64()).min(1.0)
    }

    /// Forget accumulated accounting but keep the queue state.
    pub(crate) fn reset_accounting(&mut self) {
        self.total_bytes = 0;
        self.busy = SimDuration::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mib(n: u64) -> u64 {
        n * 1024 * 1024
    }

    #[test]
    fn single_charge_is_bytes_over_bandwidth() {
        let mut pipe = PipeResource::new("disk", mib(100));
        let c = pipe.charge(SimTime::ZERO, mib(100));
        assert_eq!(c.start, SimTime::ZERO);
        assert_eq!(c.end, SimTime(1_000_000)); // exactly 1 virtual second
        assert_eq!(pipe.total_bytes(), mib(100));
    }

    #[test]
    fn fifo_queueing_serializes_contenders() {
        let mut pipe = PipeResource::new("nic", mib(100));
        let a = pipe.charge(SimTime::ZERO, mib(100));
        let b = pipe.charge(SimTime::ZERO, mib(100));
        assert_eq!(b.start, a.end);
        assert_eq!(b.end, SimTime(2_000_000));
        // A later request after the pipe is idle starts immediately.
        let c = pipe.charge(SimTime(5_000_000), mib(50));
        assert_eq!(c.start, SimTime(5_000_000));
        assert_eq!(c.end, SimTime(5_500_000));
    }

    #[test]
    fn latency_includes_queue_wait() {
        let mut pipe = PipeResource::new("nic", mib(1));
        pipe.charge(SimTime::ZERO, mib(10)); // busy 10 s
        let c = pipe.charge(SimTime(1_000_000), mib(1));
        assert_eq!(c.end.since(SimTime(1_000_000)), SimDuration::from_secs(10));
    }

    #[test]
    fn utilization_tracks_busy_fraction() {
        let mut pipe = PipeResource::new("disk", mib(100));
        pipe.charge(SimTime::ZERO, mib(100)); // busy 1 s
        assert!((pipe.utilization(SimTime(4_000_000)) - 0.25).abs() < 1e-9);
        assert_eq!(pipe.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn reset_accounting_keeps_queue() {
        let mut pipe = PipeResource::new("disk", mib(1));
        let a = pipe.charge(SimTime::ZERO, mib(5));
        pipe.reset_accounting();
        assert_eq!(pipe.total_bytes(), 0);
        let b = pipe.charge(SimTime::ZERO, mib(1));
        assert_eq!(b.start, a.end, "queue position survives reset");
    }
}
