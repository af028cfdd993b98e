//! A PBS/Moab-like batch scheduler, as the course used on Palmetto.
//!
//! What the paper needs from it:
//! * students submit reservations for N nodes × walltime and queue FIFO;
//! * higher-priority research jobs can **preempt** student jobs
//!   ("their jobs can be preempted from the system by higher priority
//!   research jobs");
//! * released nodes are handed to the next request *immediately*, but the
//!   cleanup script that would sweep ghost daemons only runs periodically
//!   (the paper's 15-minute wait);
//! * walltime expiry force-releases nodes.

use std::collections::{BTreeMap, VecDeque};

use hl_common::prelude::*;

/// Priority classes on the shared machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Student coursework (preemptible).
    Student,
    /// Research workloads (may preempt students).
    Research,
}

/// A request for nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReservationRequest {
    /// Owner (user name) — also the port-registry owner string.
    pub user: String,
    /// Number of nodes wanted.
    pub nodes: usize,
    /// Maximum hold time; the scheduler force-releases after this.
    pub walltime: SimDuration,
    /// Queue priority class.
    pub priority: Priority,
}

/// Identifier of a queued or running reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReservationId(pub u64);

/// A granted allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reservation {
    /// Its id.
    pub id: ReservationId,
    /// The original request.
    pub request: ReservationRequest,
    /// Nodes granted.
    pub nodes: Vec<NodeId>,
    /// When it started.
    pub started_at: SimTime,
    /// When walltime expires.
    pub expires_at: SimTime,
}

/// What happened on a scheduler tick.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TickOutcome {
    /// Reservations that started this tick.
    pub started: Vec<Reservation>,
    /// Reservations force-ended (walltime) this tick.
    pub expired: Vec<Reservation>,
    /// Reservations preempted by research jobs this tick.
    pub preempted: Vec<Reservation>,
}

/// The batch scheduler.
#[derive(Debug, Clone)]
pub struct BatchScheduler {
    total_nodes: usize,
    free: Vec<NodeId>,
    queue: VecDeque<(ReservationId, ReservationRequest, SimTime)>,
    running: BTreeMap<ReservationId, Reservation>,
    next_id: u64,
    /// Period of the ghost-daemon cleanup cron (paper: 15 minutes).
    pub cleanup_period: SimDuration,
    last_cleanup: SimTime,
}

impl BatchScheduler {
    /// Scheduler over `total_nodes` initially-free nodes.
    pub fn new(total_nodes: usize) -> Self {
        BatchScheduler {
            total_nodes,
            free: (0..total_nodes as u32).rev().map(NodeId).collect(),
            queue: VecDeque::new(),
            running: BTreeMap::new(),
            next_id: 1,
            cleanup_period: SimDuration::from_mins(15),
            last_cleanup: SimTime::ZERO,
        }
    }

    /// Submit a request; it queues FIFO within its priority class.
    pub fn submit(&mut self, now: SimTime, request: ReservationRequest) -> ReservationId {
        let id = ReservationId(self.next_id);
        self.next_id += 1;
        if request.priority == Priority::Research {
            // Research jobs jump the student queue.
            let pos = self
                .queue
                .iter()
                .position(|(_, r, _)| r.priority == Priority::Student)
                .unwrap_or(self.queue.len());
            self.queue.insert(pos, (id, request, now));
        } else {
            self.queue.push_back((id, request, now));
        }
        id
    }

    /// Run one scheduling pass at `now`: expire walltimes, preempt students
    /// if a research job needs nodes, start whatever fits, FIFO order.
    pub fn tick(&mut self, now: SimTime) -> TickOutcome {
        let mut outcome = TickOutcome::default();

        // 1. Walltime expiry.
        let expired_ids: Vec<_> =
            self.running.values().filter(|r| r.expires_at <= now).map(|r| r.id).collect();
        for id in expired_ids {
            // Ids were collected from `running` above; a miss means the
            // table changed under us — skip rather than panic the daemon.
            let Some(res) = self.running.remove(&id) else { continue };
            self.free.extend(res.nodes.iter().copied());
            outcome.expired.push(res);
        }

        // 2. Preemption: if the head of the queue is research and cannot
        //    fit, evict student reservations (youngest first) until it can.
        if let Some((_, head, _)) = self.queue.front() {
            if head.priority == Priority::Research && head.nodes <= self.total_nodes {
                while self.free.len() < head.nodes {
                    let victim = self
                        .running
                        .values()
                        .filter(|r| r.request.priority == Priority::Student)
                        .max_by_key(|r| r.started_at)
                        .map(|r| r.id);
                    match victim.and_then(|id| self.running.remove(&id)) {
                        Some(res) => {
                            self.free.extend(res.nodes.iter().copied());
                            outcome.preempted.push(res);
                        }
                        None => break,
                    }
                }
            }
        }

        // 3. Start from the queue head while it fits (strict FIFO: a stuck
        //    head blocks the queue, as PBS default behaviour did).
        while let Some((_, req, _)) = self.queue.front() {
            if req.nodes > self.free.len() {
                break;
            }
            let Some((id, request, submitted)) = self.queue.pop_front() else { break };
            // The fit check above guarantees this subtraction; a failure
            // means free shrank mid-pass — requeue the head and stop.
            let Some(split) = self.free.len().checked_sub(request.nodes) else {
                self.queue.push_front((id, request, submitted));
                break;
            };
            let mut nodes = self.free.split_off(split);
            nodes.sort_unstable();
            let res = Reservation {
                id,
                nodes,
                started_at: now,
                expires_at: now + request.walltime,
                request,
            };
            self.running.insert(id, res.clone());
            outcome.started.push(res);
        }

        outcome
    }

    /// Voluntarily end a reservation (the student's job script finished).
    pub fn release(&mut self, id: ReservationId) -> Option<Reservation> {
        let res = self.running.remove(&id)?;
        self.free.extend(res.nodes.iter().copied());
        Some(res)
    }

    /// True when the periodic cleanup cron should fire at `now`; advances
    /// the cron clock when it does.
    pub fn cleanup_due(&mut self, now: SimTime) -> bool {
        if now.since(self.last_cleanup) >= self.cleanup_period {
            self.last_cleanup = now;
            true
        } else {
            false
        }
    }

    /// Currently running reservation, by id.
    pub fn running(&self, id: ReservationId) -> Option<&Reservation> {
        self.running.get(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(user: &str, nodes: usize) -> ReservationRequest {
        ReservationRequest {
            user: user.into(),
            nodes,
            walltime: SimDuration::from_hours(2),
            priority: Priority::Student,
        }
    }

    #[test]
    fn fifo_placement_with_lowest_nodes_first() {
        let mut s = BatchScheduler::new(8);
        s.submit(SimTime::ZERO, req("alice", 3));
        s.submit(SimTime::ZERO, req("bob", 4));
        let out = s.tick(SimTime::ZERO);
        assert_eq!(out.started.len(), 2);
        assert_eq!(out.started[0].nodes, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(out.started[1].nodes, vec![NodeId(3), NodeId(4), NodeId(5), NodeId(6)]);
        assert_eq!(s.free.len(), 1);
    }

    #[test]
    fn head_of_queue_blocks_strictly() {
        let mut s = BatchScheduler::new(4);
        s.submit(SimTime::ZERO, req("big", 4));
        s.tick(SimTime::ZERO);
        s.submit(SimTime::ZERO, req("huge", 3));
        s.submit(SimTime::ZERO, req("tiny", 1));
        let out = s.tick(SimTime(1));
        // Even though tiny would fit nothing starts: huge blocks the head.
        assert!(out.started.is_empty());
        assert_eq!(s.queue.len(), 2);
    }

    #[test]
    fn walltime_expiry_force_releases() {
        let mut s = BatchScheduler::new(2);
        let mut r = req("alice", 2);
        r.walltime = SimDuration::from_mins(30);
        s.submit(SimTime::ZERO, r);
        s.tick(SimTime::ZERO);
        assert_eq!(s.free.len(), 0);
        let out = s.tick(SimTime::ZERO + SimDuration::from_mins(31));
        assert_eq!(out.expired.len(), 1);
        assert_eq!(s.free.len(), 2);
    }

    #[test]
    fn research_jobs_preempt_students() {
        let mut s = BatchScheduler::new(8);
        s.submit(SimTime::ZERO, req("alice", 4));
        s.submit(SimTime::ZERO, req("bob", 4));
        s.tick(SimTime::ZERO);
        assert_eq!(s.free.len(), 0);
        s.submit(
            SimTime(10),
            ReservationRequest {
                user: "research".into(),
                nodes: 6,
                walltime: SimDuration::from_hours(12),
                priority: Priority::Research,
            },
        );
        let out = s.tick(SimTime(10));
        // Bob (youngest... both same start; max_by_key picks one) — at least
        // one student preempted and research started.
        assert!(!out.preempted.is_empty());
        assert_eq!(out.started.len(), 1);
        assert_eq!(out.started[0].request.user, "research");
    }

    #[test]
    fn research_jumps_the_student_queue() {
        let mut s = BatchScheduler::new(2);
        s.submit(SimTime::ZERO, req("filler", 2));
        s.tick(SimTime::ZERO);
        s.submit(SimTime::ZERO, req("student-waiting", 2));
        s.submit(
            SimTime(1),
            ReservationRequest {
                user: "research".into(),
                nodes: 2,
                walltime: SimDuration::from_hours(1),
                priority: Priority::Research,
            },
        );
        let out = s.tick(SimTime(2));
        assert_eq!(out.started[0].request.user, "research");
    }

    #[test]
    fn voluntary_release_frees_nodes() {
        let mut s = BatchScheduler::new(4);
        let id = s.submit(SimTime::ZERO, req("alice", 4));
        s.tick(SimTime::ZERO);
        assert!(s.running(id).is_some());
        let res = s.release(id).unwrap();
        assert_eq!(res.request.user, "alice");
        assert_eq!(s.free.len(), 4);
        assert!(s.release(id).is_none());
    }

    proptest::proptest! {
        /// Random submit/tick/release/expire sequences never double-allocate
        /// a node, and free + allocated always equals the pool size.
        #[test]
        fn prop_allocation_is_conservative(
            ops in proptest::collection::vec((0u8..4, 1usize..5, 1u64..5), 1..60),
        ) {
            let total = 8;
            let mut s = BatchScheduler::new(total);
            let mut t = SimTime::ZERO;
            let mut ids: Vec<ReservationId> = Vec::new();
            for (op, nodes, mins) in ops {
                match op {
                    0 => {
                        let id = s.submit(t, ReservationRequest {
                            user: "u".into(),
                            nodes,
                            walltime: SimDuration::from_mins(mins * 10),
                            priority: if mins % 2 == 0 { Priority::Student } else { Priority::Research },
                        });
                        ids.push(id);
                    }
                    1 => {
                        t += SimDuration::from_mins(mins);
                        let out = s.tick(t);
                        for r in out.started.iter() { ids.push(r.id); }
                    }
                    2 => {
                        // Release the most recent reservation. Keep its id
                        // tracked: releasing a *queued* id is a no-op and it
                        // may still start on a later tick.
                        if let Some(&id) = ids.last() {
                            s.release(id);
                        }
                    }
                    _ => {
                        t += SimDuration::from_mins(mins * 30);
                        s.tick(t);
                    }
                }
                // Invariant: every running reservation's nodes are disjoint
                // and free + allocated == total. (ids can contain
                // duplicates — submit and tick both record them — so check
                // each reservation once.)
                let uniq: std::collections::BTreeSet<ReservationId> =
                    ids.iter().copied().collect();
                let mut seen = std::collections::BTreeSet::new();
                let mut allocated = 0usize;
                for id in &uniq {
                    if let Some(r) = s.running(*id) {
                        for n in &r.nodes {
                            proptest::prop_assert!(seen.insert(*n), "node {n} double-allocated");
                        }
                        allocated += r.nodes.len();
                    }
                }
                proptest::prop_assert_eq!(s.free.len() + allocated, total);
            }
        }
    }

    #[test]
    fn cleanup_cron_fires_every_period() {
        let mut s = BatchScheduler::new(1);
        assert!(!s.cleanup_due(SimTime::ZERO + SimDuration::from_mins(5)));
        assert!(s.cleanup_due(SimTime::ZERO + SimDuration::from_mins(15)));
        assert!(!s.cleanup_due(SimTime::ZERO + SimDuration::from_mins(16)));
        assert!(s.cleanup_due(SimTime::ZERO + SimDuration::from_mins(31)));
    }
}
