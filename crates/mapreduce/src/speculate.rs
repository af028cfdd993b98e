//! Speculative execution as a first-class subsystem.
//!
//! Hadoop 1.x's JobTracker watches each running attempt's *progress
//! rate* through TaskTracker heartbeats and, once free slots appear and
//! a task's estimated finish runs far past the pack, launches a second
//! attempt of it on a different node — the LATE insight that on a
//! heterogeneous cluster "slow relative to the median" beats "slow in
//! absolute terms". This module is the policy half: the [`Speculator`]
//! estimates and proposes, and the engine validates every proposal
//! (exactly as it validates scheduler assignments) and runs it stage by
//! stage. The JobTracker loop ([`crate::jobtracker`]) settles the race: the
//! first flight of a task to reach its commit commits, and the loop kills
//! the other then. The loop reports each flight's end once, and the engine
//! books the race from that report ([`SpecAttempt`], `spec.*`): a backup
//! that committed won, one that failed lost, and one that ended any other
//! way was killed. Accounting is closed by construction:
//!
//! ```text
//! spec.launched == spec.won + spec.lost + spec.killed
//! ```
//!
//! * **won** — the speculative attempt reached its commit first; the
//!   primary, if still running, is killed at that instant and its whole
//!   runtime is wasted work (a primary that died first left its backup
//!   racing on alone, and wastes nothing more);
//! * **killed** — the primary reached its commit first; the speculative
//!   attempt is killed then, wasting its partial runtime;
//! * **lost** — the speculative attempt itself died (injected failure,
//!   OOM) before either could win;
//! * a backup preempted with its task, or aborted with its job, is
//!   **killed** too.
//!
//! The wasted side of each outcome accumulates in `spec.wasted_us` — the
//! cost-model price of insurance that the TPCx-HS ablation (EXPERIMENTS
//! C5) weighs against the makespan it buys.

use std::collections::BTreeSet;

use hl_common::prelude::*;
use hl_common::writable::{read_vu64, write_vu64, Writable};

use crate::job::JobConf;

/// Completed primary attempts needed before the estimator trusts its
/// median (Hadoop waits for a similar warm-up before speculating).
pub const MIN_COMPLETED: usize = 3;

/// Launch threshold: a running task is a straggler once its estimated
/// total duration exceeds this percent of the median completed one
/// (Hadoop's `mapred.speculative.slowtaskthreshold` at its 1.x default).
const SLOWTASK_PCT: u64 = 150;

/// How a finished speculative attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecOutcome {
    /// Reached its commit first: the primary, if still running, was killed.
    Won,
    /// Died on its own (failure injection, OOM) — no race to settle.
    Lost,
    /// The primary committed first: this attempt was killed.
    Killed,
}

impl SpecOutcome {
    fn tag(self) -> u64 {
        match self {
            SpecOutcome::Won => 0,
            SpecOutcome::Lost => 1,
            SpecOutcome::Killed => 2,
        }
    }
}

/// One settled speculative attempt — the per-task attempt record the job
/// report carries (and traces serialize).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecAttempt {
    /// Task index within its phase.
    pub task: u32,
    /// True for a reduce attempt, false for a map attempt.
    pub reduce: bool,
    /// Node the speculative attempt ran on.
    pub node: u32,
    /// When the speculative attempt launched.
    pub start: SimTime,
    /// When the race settled (win: when this attempt reached its commit;
    /// killed: the primary's commit, or the preemption or abort; lost:
    /// when the failure burned out).
    pub end: SimTime,
    /// Who won the race.
    pub outcome: SpecOutcome,
}

impl Writable for SpecAttempt {
    fn write(&self, buf: &mut Vec<u8>) {
        write_vu64(u64::from(self.task), buf);
        write_vu64(u64::from(self.reduce), buf);
        write_vu64(u64::from(self.node), buf);
        write_vu64(self.start.0, buf);
        write_vu64(self.end.0, buf);
        write_vu64(self.outcome.tag(), buf);
    }

    fn read(buf: &mut &[u8]) -> Result<Self> {
        let narrow = |v: u64, what: &str| {
            u32::try_from(v).map_err(|_| HlError::Codec(format!("SpecAttempt {what} {v} > u32")))
        };
        let task = narrow(read_vu64(buf)?, "task")?;
        let reduce = read_vu64(buf)? != 0;
        let node = narrow(read_vu64(buf)?, "node")?;
        let start = SimTime(read_vu64(buf)?);
        let end = SimTime(read_vu64(buf)?);
        let outcome = match read_vu64(buf)? {
            0 => SpecOutcome::Won,
            1 => SpecOutcome::Lost,
            2 => SpecOutcome::Killed,
            t => return Err(HlError::Codec(format!("SpecAttempt outcome tag {t}"))),
        };
        Ok(SpecAttempt { task, reduce, node, start, end, outcome })
    }
}

/// One primary attempt still running at a decision instant, as the
/// JobTracker sees it through heartbeat reports.
#[derive(Debug, Clone, Copy)]
pub struct RunningTask {
    /// Task index within its phase.
    pub task: u32,
    /// Node the primary attempt runs on.
    pub node: NodeId,
    /// When the primary attempt started.
    pub start: SimTime,
    /// Last-reported progress in basis points (1..10 000), quantized to
    /// the heartbeat boundary it arrived on.
    pub progress_bp: u32,
}

/// The late-binding speculation policy: progress-rate estimation over
/// heartbeats plus the `mapred.speculative.*` thresholds.
#[derive(Debug, Clone)]
pub struct Speculator {
    cap_pct: u32,
    heartbeat: SimDuration,
}

impl Speculator {
    /// A speculator tuned by a job's `mapred.speculative.*` settings.
    pub fn from_conf(conf: &JobConf) -> Self {
        Speculator {
            cap_pct: conf.spec_cap_pct,
            heartbeat: SimDuration(conf.spec_heartbeat.0.max(1)),
        }
    }

    /// Most speculative attempts one phase of `total_tasks` may launch.
    pub fn cap(&self, total_tasks: usize) -> usize {
        let pct = usize::try_from(self.cap_pct).unwrap_or(usize::MAX);
        (total_tasks.saturating_mul(pct) / 100).max(1)
    }

    /// The progress a tracker would have *reported* by `now` for an
    /// attempt that has begun `stages` (the first starting with the
    /// attempt, the last one running): the share of its work done at the
    /// last heartbeat boundary, in basis points. `plan` weighs every stage
    /// it will run by its unqueued service time, so on an uncontended
    /// homogeneous cluster the share is elapsed over total. `None` before
    /// the first heartbeat — the JobTracker can't estimate a rate from
    /// zero reports.
    pub fn observed_progress(&self, now: SimTime, stages: &[Span], plan: &[u64]) -> Option<u32> {
        let start = stages.first()?.0;
        let hb = self.heartbeat.0.max(1);
        let at = SimTime(start.0 + now.since(start).0 / hb * hb);
        let work: u64 = plan.iter().sum();
        if at <= start || work == 0 {
            return None;
        }
        let share = |(&(s, e), &w): (&Span, &u64)| match e.since(s).0 {
            0 => u128::from(w) * u128::from(at >= e),
            span => u128::from(w) * u128::from(at.since(s.min(at)).0.min(span)) / u128::from(span),
        };
        let bp =
            stages.iter().zip(plan).map(share).sum::<u128>() * u128::from(BP) / u128::from(work);
        Some(u32::try_from(bp.clamp(1, u128::from(BP - 1))).unwrap_or(BP - 1))
    }

    /// Propose which running task (if any) to speculate on a slot that
    /// freed up on `slot_node` at `now`. LATE-style: estimate each
    /// running task's total duration from its reported progress rate,
    /// keep those beyond [`SLOWTASK_PCT`] of the median completed
    /// duration whose estimated remaining time still exceeds a fresh
    /// median-length attempt, and pick the one finishing furthest out.
    pub fn propose(
        &self,
        now: SimTime,
        slot_node: NodeId,
        completed_us: &mut [u64],
        running: &[RunningTask],
        speculated: &BTreeSet<u32>,
    ) -> Option<u32> {
        if completed_us.len() < MIN_COMPLETED {
            return None;
        }
        completed_us.sort_unstable();
        let median = completed_us[completed_us.len() / 2].max(1);
        let threshold = median.saturating_mul(SLOWTASK_PCT) / 100;
        // (estimated finish, task id): max finish, min id on ties.
        let mut best: Option<(u64, u32)> = None;
        for r in running {
            if r.node == slot_node || speculated.contains(&r.task) || r.progress_bp == 0 {
                continue;
            }
            let elapsed = now.since(r.start).0;
            let est_total =
                u64::try_from(u128::from(elapsed) * u128::from(BP) / u128::from(r.progress_bp))
                    .unwrap_or(u64::MAX);
            if est_total <= threshold {
                continue;
            }
            let est_finish = r.start.0.saturating_add(est_total);
            // Not worth it if a fresh attempt (≈ median) can't beat the
            // primary's remaining time.
            if est_finish.saturating_sub(now.0) <= median {
                continue;
            }
            let better = match best {
                None => true,
                Some((f, t)) => est_finish > f || (est_finish == f && r.task < t),
            };
            if better {
                best = Some((est_finish, r.task));
            }
        }
        best.map(|(_, t)| t)
    }
}

/// When a stage of an attempt starts and ends.
pub type Span = (SimTime, SimTime);

/// Basis points of a whole (progress and multiplier denominators).
const BP: u32 = 10_000;

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Speculator {
        Speculator::from_conf(&JobConf::new("t"))
    }

    #[test]
    fn spec_attempt_round_trips() {
        for outcome in [SpecOutcome::Won, SpecOutcome::Lost, SpecOutcome::Killed] {
            let a = SpecAttempt {
                task: 7,
                reduce: outcome == SpecOutcome::Killed,
                node: 3,
                start: SimTime(1_000_000),
                end: SimTime(9_500_000),
                outcome,
            };
            assert_eq!(SpecAttempt::from_bytes(&a.to_bytes()).unwrap(), a);
        }
        assert!(SpecAttempt::from_bytes(&[0, 0, 0, 0, 0, 9]).is_err(), "unknown outcome tag");
    }

    #[test]
    fn progress_is_heartbeat_quantized() {
        let s = spec(); // 3 s heartbeat
        let start = SimTime::ZERO;
        // A 30 s task in two stages whose weights are their lengths.
        let stages = [(start, SimTime(6_000_000)), (SimTime(6_000_000), SimTime(30_000_000))];
        let plan = [6_000_000, 24_000_000];
        let at = |now: u64| s.observed_progress(SimTime(now), &stages, &plan);
        assert_eq!(at(2_999_999), None, "no report yet");
        // 4 s in, the last report was at 3 s → 10% of 30 s.
        assert_eq!(at(4_000_000), Some(1_000));
        // Reported progress never reaches 100% while the task runs.
        assert_eq!(at(29_999_999), Some(9_000));
        // A stage that queued reports its weight's share of its own span:
        // half of a 6 s read that took 12 s is 10% of the work.
        let queued = [(start, SimTime(12_000_000))];
        assert_eq!(s.observed_progress(SimTime(6_000_000), &queued, &plan), Some(1_000));
    }

    #[test]
    fn propose_picks_the_straggler_beyond_threshold() {
        let s = spec();
        let now = SimTime(10_000_000);
        let mut completed = vec![2_000_000, 2_100_000, 1_900_000];
        // Started at 0, ~10 s elapsed with 20% progress → est 50 s total.
        let straggler =
            RunningTask { task: 5, node: NodeId(3), start: SimTime::ZERO, progress_bp: 2_000 };
        // On pace with the median: not a candidate.
        let on_pace =
            RunningTask { task: 6, node: NodeId(2), start: SimTime(9_000_000), progress_bp: 5_000 };
        let running = [straggler, on_pace];
        assert_eq!(s.propose(now, NodeId(0), &mut completed, &running, &BTreeSet::new()), Some(5));
        // Same node as the primary: refuse.
        assert_eq!(s.propose(now, NodeId(3), &mut completed, &[straggler], &BTreeSet::new()), None);
        // Already speculated: refuse.
        let done: BTreeSet<u32> = [5].into_iter().collect();
        assert_eq!(s.propose(now, NodeId(0), &mut completed, &[straggler], &done), None);
        // Too few completed tasks to trust a median: refuse.
        let mut thin = vec![2_000_000, 2_000_000];
        assert_eq!(s.propose(now, NodeId(0), &mut thin, &[straggler], &BTreeSet::new()), None);
    }

    #[test]
    fn cap_scales_with_phase_size_and_floors_at_one() {
        let s = spec(); // 10% cap
        assert_eq!(s.cap(1), 1);
        assert_eq!(s.cap(9), 1);
        assert_eq!(s.cap(50), 5);
    }
}
