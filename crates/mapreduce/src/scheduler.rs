//! Pluggable JobTracker scheduling: the `Scheduler` trait and its three
//! policies.
//!
//! Hadoop 1.x started with a hardcoded FIFO JobTracker and grew pluggable
//! `TaskScheduler` classes once shared clusters made single-tenant
//! scheduling untenable — the Fair Scheduler (Facebook) and the Capacity
//! Scheduler (Yahoo). This module retraces that evolution: the engine's
//! task-assignment decisions route through the [`Scheduler`] trait on an
//! assign-on-heartbeat model — given the current slot states and the
//! runnable job set, return one deterministic assignment at a time, plus
//! optional preemptions.
//!
//! * [`FifoScheduler`] — the pre-trait engine behavior, bit for bit:
//!   earliest-free slot, jobs in priority/submission order, best-locality
//!   task first;
//! * [`FairScheduler`] — per-pool weighted deficit sharing with per-user
//!   tie-breaking inside a pool and minimum-share preemption after a
//!   configurable virtual-time timeout;
//! * [`CapacityScheduler`] — hierarchical queues with guaranteed
//!   capacity, elastic overflow up to a maximum, and per-user limits.
//!
//! Every decision is a pure function of the arguments and the scheduler's
//! own (deterministically evolved) state: no wall clocks, no hash maps,
//! no randomness — the chaos soak hashes whole traces across re-runs.

use std::collections::BTreeMap;

use hl_common::config::keys;
use hl_common::prelude::*;

use crate::report::TaskKind;

/// One TaskTracker slot as the scheduler sees it: where it is and when it
/// frees up. The engine hands the scheduler *all* slots of the relevant
/// kind; `free_at` in the future means the slot is busy until then.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotState {
    /// Node hosting the slot.
    pub node: NodeId,
    /// Virtual time at which the slot is (or becomes) free.
    pub free_at: SimTime,
}

/// One runnable job as the scheduler sees it. Borrowed views keep the
/// trait object-safe and the engine's ownership untouched.
#[derive(Debug, Clone, Copy)]
pub struct JobView<'a> {
    /// Submitting user.
    pub user: &'a str,
    /// Fair-scheduler pool / Capacity queue.
    pub pool: &'a str,
    /// Larger runs earlier within a policy's tie-breaks.
    pub priority: u32,
    /// Submission time (FIFO order).
    pub submitted_at: SimTime,
    /// Task ids still waiting for a slot (any order; policies must not
    /// depend on it).
    pub pending: &'a [u32],
    /// Task ids currently running (preemption candidates).
    pub running: &'a [u32],
}

/// One task placement decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// Index into the `slots` slice passed to [`Scheduler::next_assignment`].
    pub slot: usize,
    /// Index into the `jobs` slice.
    pub job: usize,
    /// Task id from that job's `pending` list.
    pub task: u32,
}

/// One preemption decision: stop this running task and re-queue it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Preemption {
    /// Index into the `jobs` slice.
    pub job: usize,
    /// Task id from that job's `running` list.
    pub task: u32,
}

/// What the scheduler may ask the engine about placement quality.
pub trait SchedulerEnv {
    /// Locality distance of running `jobs[job]`'s task `task` on `node`
    /// (0 = node-local, larger = worse, `u32::MAX` = unknown). Policies
    /// prefer smaller distances; an env may return 0 everywhere to make
    /// placement locality-blind.
    fn distance(&self, node: NodeId, job: usize, task: u32) -> u32;
}

/// A task-assignment policy. Implementations must be deterministic: the
/// same call sequence yields the same decisions, byte for byte.
pub trait Scheduler: Send {
    /// Policy name (config value / trace label).
    fn name(&self) -> &'static str;

    /// The next single assignment, or `None` when no runnable work fits
    /// the current slots. The engine applies the assignment (the task
    /// leaves `pending`, the slot's `free_at` advances) and calls again —
    /// the assign-on-heartbeat loop.
    fn next_assignment(
        &mut self,
        now: SimTime,
        slots: &[SlotState],
        jobs: &[JobView<'_>],
        env: &dyn SchedulerEnv,
    ) -> Option<Assignment>;

    /// Tasks to preempt before this round's assignments of `kind` slots;
    /// `jobs` are the jobs whose current phase runs on them. Default: none
    /// (FIFO and Capacity never preempt; Hadoop 1.x Capacity didn't
    /// either).
    fn preemptions(
        &mut self,
        now: SimTime,
        kind: TaskKind,
        total_slots: usize,
        jobs: &[JobView<'_>],
    ) -> Vec<Preemption> {
        let _ = (now, kind, total_slots, jobs);
        Vec::new()
    }
}

/// Earliest-free slot: min over `(free_at, node id, index)` — exactly the
/// engine's historical `min_by_key` (which kept the first minimum).
fn pick_slot(slots: &[SlotState]) -> Option<usize> {
    (0..slots.len()).min_by_key(|&i| (slots[i].free_at, slots[i].node.0, i))
}

/// Best task of one job for one node: min over `(distance, task id)` —
/// the engine's historical locality-first, then-order pick.
fn pick_task(job: usize, view: &JobView<'_>, node: NodeId, env: &dyn SchedulerEnv) -> Option<u32> {
    view.pending.iter().copied().min_by_key(|&t| (env.distance(node, job, t), t))
}

/// Strict-FIFO job order: priority (descending), then submission time,
/// then submission index.
fn fifo_rank(jobs: &[JobView<'_>]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&j| (std::cmp::Reverse(jobs[j].priority), jobs[j].submitted_at, j));
    order
}

// --------------------------------------------------------------- FIFO

/// The original JobTracker policy, extracted verbatim: earliest-free
/// slot, first job (priority, then submission order) with pending work,
/// best-locality task.
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoScheduler;

impl Scheduler for FifoScheduler {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn next_assignment(
        &mut self,
        _now: SimTime,
        slots: &[SlotState],
        jobs: &[JobView<'_>],
        env: &dyn SchedulerEnv,
    ) -> Option<Assignment> {
        let slot = pick_slot(slots)?;
        let node = slots[slot].node;
        for j in fifo_rank(jobs) {
            if let Some(task) = pick_task(j, &jobs[j], node, env) {
                return Some(Assignment { slot, job: j, task });
            }
        }
        None
    }
}

// --------------------------------------------------------------- Fair

/// One pool's configured share.
#[derive(Debug, Clone, Copy)]
pub struct PoolSpec {
    /// Weight in the deficit comparison (≥ 1).
    pub weight: u64,
    /// Slots this pool is guaranteed; sitting below this with demand for
    /// longer than the preemption timeout triggers preemption.
    pub min_share: u64,
}

impl Default for PoolSpec {
    fn default() -> Self {
        PoolSpec { weight: 1, min_share: 0 }
    }
}

/// Per-user/pool weighted deficit sharing, after Hadoop's Fair Scheduler:
/// pools below their minimum share go first, then pools by smallest
/// `running/weight` ratio; inside a pool the user with the fewest running
/// tasks wins, FIFO within a user. A pool starved of its minimum share
/// past the timeout preempts the newest tasks of the most over-share
/// pools.
#[derive(Debug, Clone)]
pub struct FairScheduler {
    pools: BTreeMap<String, PoolSpec>,
    preemption_timeout: SimDuration,
    /// (Slot kind, pool) → when the pool was first observed below its min
    /// share of that kind's slots with demand for them. Map and reduce
    /// slots are two farms, so a pool starves of each on its own clock.
    starved_since: BTreeMap<(usize, String), SimTime>,
}

#[derive(Debug, Default)]
struct PoolStat {
    running: u64,
    pending: u64,
    weight: u64,
    min_share: u64,
}

impl FairScheduler {
    /// A fair scheduler with no configured pools (every pool defaults to
    /// weight 1, min share 0) and the given preemption timeout.
    pub fn new(preemption_timeout: SimDuration) -> Self {
        FairScheduler { pools: BTreeMap::new(), preemption_timeout, starved_since: BTreeMap::new() }
    }

    /// Configure one pool's weight and minimum share.
    pub fn pool(mut self, name: impl Into<String>, weight: u64, min_share: u64) -> Self {
        self.pools.insert(name.into(), PoolSpec { weight: weight.max(1), min_share });
        self
    }

    fn spec(&self, pool: &str) -> PoolSpec {
        self.pools.get(pool).copied().unwrap_or_default()
    }

    fn pool_stats(&self, jobs: &[JobView<'_>]) -> BTreeMap<String, PoolStat> {
        let mut stats: BTreeMap<String, PoolStat> = BTreeMap::new();
        for v in jobs {
            let s = stats.entry(v.pool.to_string()).or_default();
            s.running += v.running.len() as u64;
            s.pending += v.pending.len() as u64;
        }
        for (name, s) in stats.iter_mut() {
            let spec = self.spec(name);
            s.weight = spec.weight;
            s.min_share = spec.min_share;
        }
        stats
    }

    /// Deficit order between two pools, as a total order: needy pools
    /// (below min share) first by smallest `running/min_share`, then
    /// everyone by smallest `running/weight`; names break exact ties.
    /// Integer cross-multiplication keeps the comparison exact.
    fn pool_order(a: (&str, &PoolStat), b: (&str, &PoolStat)) -> std::cmp::Ordering {
        let needy = |s: &PoolStat| s.running < s.min_share;
        let (an, bn) = (needy(a.1), needy(b.1));
        match (an, bn) {
            (true, false) => std::cmp::Ordering::Less,
            (false, true) => std::cmp::Ordering::Greater,
            (true, true) => {
                (a.1.running * b.1.min_share).cmp(&(b.1.running * a.1.min_share)).then(a.0.cmp(b.0))
            }
            (false, false) => {
                (a.1.running * b.1.weight).cmp(&(b.1.running * a.1.weight)).then(a.0.cmp(b.0))
            }
        }
    }
}

impl Scheduler for FairScheduler {
    fn name(&self) -> &'static str {
        "fair"
    }

    fn next_assignment(
        &mut self,
        _now: SimTime,
        slots: &[SlotState],
        jobs: &[JobView<'_>],
        env: &dyn SchedulerEnv,
    ) -> Option<Assignment> {
        let slot = pick_slot(slots)?;
        let node = slots[slot].node;
        let stats = self.pool_stats(jobs);
        let mut pools: Vec<(&str, &PoolStat)> =
            stats.iter().map(|(n, s)| (n.as_str(), s)).filter(|(_, s)| s.pending > 0).collect();
        pools.sort_by(|a, b| Self::pool_order(*a, *b));
        // Running tasks per (pool, user): the fair share inside a pool.
        let mut user_running: BTreeMap<(&str, &str), u64> = BTreeMap::new();
        for v in jobs {
            *user_running.entry((v.pool, v.user)).or_default() += v.running.len() as u64;
        }
        let rank = fifo_rank(jobs);
        for (pool, _) in pools {
            // Least-loaded user in the pool first; FIFO within a user.
            let candidate = rank
                .iter()
                .copied()
                .filter(|&j| jobs[j].pool == pool && !jobs[j].pending.is_empty())
                .min_by_key(|&j| {
                    (
                        user_running.get(&(pool, jobs[j].user)).copied().unwrap_or(0),
                        rank_pos(&rank, j),
                    )
                });
            if let Some(j) = candidate {
                if let Some(task) = pick_task(j, &jobs[j], node, env) {
                    return Some(Assignment { slot, job: j, task });
                }
            }
        }
        None
    }

    fn preemptions(
        &mut self,
        now: SimTime,
        kind: TaskKind,
        _total_slots: usize,
        jobs: &[JobView<'_>],
    ) -> Vec<Preemption> {
        let k = kind as usize;
        let stats = self.pool_stats(jobs);
        // Update this kind's starvation clocks: a pool is starved while it
        // has demand and runs below min(min_share, deserved = running +
        // pending).
        let mut deficits: BTreeMap<String, u64> = BTreeMap::new();
        for (name, s) in &stats {
            let target = s.min_share.min(s.running + s.pending);
            if s.pending > 0 && s.running < target {
                self.starved_since.entry((k, name.clone())).or_insert(now);
                deficits.insert(name.clone(), target - s.running);
            } else {
                self.starved_since.remove(&(k, name.clone()));
            }
        }
        self.starved_since.retain(|(of, name), _| *of != k || stats.contains_key(name));
        let mut out = Vec::new();
        // Victim pools: over min-share, largest running/weight ratio first.
        let mut victims: Vec<(&str, u64)> = stats
            .iter()
            .filter(|(name, s)| s.running > s.min_share && !deficits.contains_key(name.as_str()))
            .map(|(name, s)| (name.as_str(), s.running))
            .collect();
        victims.sort_by(|a, b| {
            let (sa, sb) = (&stats[a.0], &stats[b.0]);
            (sb.running * sa.weight).cmp(&(sa.running * sb.weight)).then(a.0.cmp(b.0))
        });
        let timeout = self.preemption_timeout;
        let expired: Vec<String> = self
            .starved_since
            .iter()
            .filter(|((of, _), &since)| *of == k && now.since(since) >= timeout)
            .map(|((_, n), _)| n.clone())
            .collect();
        let mut victim_running: BTreeMap<&str, u64> =
            victims.iter().map(|&(n, r)| (n, r)).collect();
        for pool in expired {
            let mut need = deficits.get(&pool).copied().unwrap_or(0);
            for &(vpool, _) in &victims {
                while need > 0 {
                    let running = victim_running.get(vpool).copied().unwrap_or(0);
                    if running <= stats[vpool].min_share {
                        break;
                    }
                    // Newest task of the victim pool's busiest job: most
                    // still-running tasks (net of preemptions already
                    // chosen this round), then latest submission, then
                    // highest index; within the job, the highest task id.
                    let left = |j: usize| {
                        let chosen = &out;
                        jobs[j]
                            .running
                            .iter()
                            .copied()
                            .filter(move |&t| !chosen.contains(&Preemption { job: j, task: t }))
                    };
                    let victim_job = (0..jobs.len())
                        .filter(|&j| jobs[j].pool == vpool && left(j).next().is_some())
                        .max_by_key(|&j| (left(j).count(), jobs[j].submitted_at, j));
                    let Some(j) = victim_job else { break };
                    let Some(task) = left(j).max() else { break };
                    out.push(Preemption { job: j, task });
                    victim_running.insert(vpool, running - 1);
                    need -= 1;
                }
            }
            // Restart the clock: the freed slots reach the starved pool on
            // the very next assignment round, and a pool still starved
            // after that earns another timeout period, not a free repeat.
            self.starved_since.insert((k, pool), now);
        }
        out
    }
}

/// Position of `j` in `rank` (total order; `j` always present).
fn rank_pos(rank: &[usize], j: usize) -> usize {
    rank.iter().position(|&r| r == j).unwrap_or(usize::MAX)
}

// ----------------------------------------------------------- Capacity

/// One queue's configured capacity.
#[derive(Debug, Clone, Default)]
pub struct QueueSpec {
    /// Guaranteed share, in percent of the parent's capacity (of the
    /// whole cluster for root queues).
    pub capacity_pct: u64,
    /// Elastic ceiling, in percent of the parent's capacity.
    pub max_capacity_pct: u64,
    /// One user's ceiling inside this queue, in percent of the queue's
    /// maximum slots.
    pub user_limit_pct: u64,
    /// Parent queue (hierarchical capacity), or none for a root queue.
    pub parent: Option<String>,
}

/// Hierarchical guaranteed-capacity queues, after Hadoop's Capacity
/// Scheduler: each queue owns a percentage of its parent's slots, may
/// elastically overflow to `max_capacity_pct` when the cluster has idle
/// slots, and caps any single user at `user_limit_pct` of the queue.
/// Queues are served by smallest used-capacity ratio; FIFO within a
/// queue. No preemption — elastic overflow drains by attrition.
#[derive(Debug, Clone)]
pub struct CapacityScheduler {
    queues: BTreeMap<String, QueueSpec>,
}

impl Default for CapacityScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl CapacityScheduler {
    /// A capacity scheduler with only the catch-all `default` queue
    /// (100% capacity, 100% max, no user limit).
    pub fn new() -> Self {
        let mut queues = BTreeMap::new();
        queues.insert(
            "default".to_string(),
            QueueSpec {
                capacity_pct: 100,
                max_capacity_pct: 100,
                user_limit_pct: 100,
                parent: None,
            },
        );
        CapacityScheduler { queues }
    }

    /// Add (or replace) a queue.
    pub fn queue(mut self, name: impl Into<String>, spec: QueueSpec) -> Self {
        self.queues.insert(name.into(), spec.clamped());
        self
    }

    /// Jobs whose pool names no configured queue land in `default`.
    fn route<'a>(&self, pool: &'a str) -> &'a str
    where
        'a: 'a,
    {
        if self.queues.contains_key(pool) {
            pool
        } else {
            "default"
        }
    }

    /// Absolute capacity and ceiling of `name` as fractions in basis
    /// points (1/10_000) of the whole cluster, composed down the parent
    /// chain. A malformed parent link degrades to root-level.
    fn abs_caps_bp(&self, name: &str) -> (u64, u64) {
        let mut cap_bp = 10_000u64;
        let mut max_bp = 10_000u64;
        let mut cur = Some(name.to_string());
        // Parent chains are operator config; a cycle would loop forever,
        // so bound the walk by the queue count.
        for _ in 0..=self.queues.len() {
            let Some(q) = cur.as_ref().and_then(|n| self.queues.get(n)) else { break };
            cap_bp = cap_bp * q.capacity_pct / 100;
            max_bp = max_bp * q.max_capacity_pct / 100;
            cur = q.parent.clone();
        }
        (cap_bp.max(1), max_bp.max(1))
    }

    /// Guaranteed and maximum slot counts of `name` on a cluster of
    /// `total` slots. Every queue can always run at least one task, or a
    /// tiny queue on a tiny cluster would deadlock its jobs forever.
    fn slot_bounds(&self, name: &str, total: usize) -> (u64, u64) {
        let (cap_bp, max_bp) = self.abs_caps_bp(name);
        let total = total as u64;
        let guaranteed = (total * cap_bp / 10_000).max(1);
        let maximum = (total * max_bp / 10_000).max(1);
        (guaranteed, maximum.max(guaranteed))
    }

    /// Running tasks currently charged to `name` (its own jobs plus every
    /// descendant queue's).
    fn running_under(&self, name: &str, jobs: &[JobView<'_>]) -> u64 {
        jobs.iter()
            .filter(|v| {
                let mut cur = Some(self.route(v.pool).to_string());
                for _ in 0..=self.queues.len() {
                    match cur {
                        Some(ref q) if q == name => return true,
                        Some(ref q) => cur = self.queues.get(q).and_then(|s| s.parent.clone()),
                        None => return false,
                    }
                }
                false
            })
            .map(|v| v.running.len() as u64)
            .sum()
    }

    /// Maximum slots of `name` and every ancestor all hold after adding
    /// one more task to `name`.
    fn within_ceilings(&self, name: &str, jobs: &[JobView<'_>], total: usize) -> bool {
        let mut cur = Some(name.to_string());
        for _ in 0..=self.queues.len() {
            let Some(q) = cur else { return true };
            let (_, max_slots) = self.slot_bounds(&q, total);
            if self.running_under(&q, jobs) >= max_slots {
                return false;
            }
            cur = self.queues.get(&q).and_then(|s| s.parent.clone());
        }
        true
    }
}

impl QueueSpec {
    fn clamped(mut self) -> Self {
        self.capacity_pct = self.capacity_pct.clamp(1, 100);
        self.max_capacity_pct = self.max_capacity_pct.clamp(self.capacity_pct, 100);
        self.user_limit_pct = self.user_limit_pct.clamp(1, 100);
        self
    }
}

impl Scheduler for CapacityScheduler {
    fn name(&self) -> &'static str {
        "capacity"
    }

    fn next_assignment(
        &mut self,
        _now: SimTime,
        slots: &[SlotState],
        jobs: &[JobView<'_>],
        env: &dyn SchedulerEnv,
    ) -> Option<Assignment> {
        let slot = pick_slot(slots)?;
        let node = slots[slot].node;
        let total = slots.len();
        // Leaf queues with demand, by smallest used-capacity ratio
        // (cross-multiplied: used_a/cap_a < used_b/cap_b), then name.
        let mut demand: BTreeMap<&str, u64> = BTreeMap::new();
        for v in jobs {
            if !v.pending.is_empty() {
                *demand.entry(self.route(v.pool)).or_default() += v.pending.len() as u64;
            }
        }
        let mut queues: Vec<&str> = demand.keys().copied().collect();
        queues.sort_by(|&a, &b| {
            let (cap_a, _) = self.abs_caps_bp(a);
            let (cap_b, _) = self.abs_caps_bp(b);
            let (used_a, used_b) = (self.running_under(a, jobs), self.running_under(b, jobs));
            (used_a * cap_b).cmp(&(used_b * cap_a)).then(a.cmp(b))
        });
        let rank = fifo_rank(jobs);
        for queue in queues {
            if !self.within_ceilings(queue, jobs, total) {
                continue;
            }
            let (_, max_slots) = self.slot_bounds(queue, total);
            let spec = self.queues.get(queue).cloned().unwrap_or_default().clamped();
            let user_cap = (max_slots * spec.user_limit_pct / 100).max(1);
            // Running per user inside this queue (user-limit enforcement).
            let mut user_running: BTreeMap<&str, u64> = BTreeMap::new();
            for v in jobs {
                if self.route(v.pool) == queue {
                    *user_running.entry(v.user).or_default() += v.running.len() as u64;
                }
            }
            // FIFO within the queue, skipping users at their limit.
            for &j in &rank {
                if self.route(jobs[j].pool) != queue || jobs[j].pending.is_empty() {
                    continue;
                }
                if user_running.get(jobs[j].user).copied().unwrap_or(0) >= user_cap {
                    continue;
                }
                if let Some(task) = pick_task(j, &jobs[j], node, env) {
                    return Some(Assignment { slot, job: j, task });
                }
            }
        }
        None
    }
}

// ------------------------------------------------------- construction

/// Build the configured scheduler: `mapred.jobtracker.scheduler` picks
/// the policy, the policy-specific keys tune it. Unknown policies are a
/// config error at cluster construction, not mid-job.
pub fn scheduler_from_config(conf: &Configuration) -> Result<Box<dyn Scheduler>> {
    match conf.get_or(keys::MAPRED_SCHEDULER, "fifo") {
        "fifo" => Ok(Box::new(FifoScheduler)),
        "fair" => {
            let secs = conf.get_u64(keys::MAPRED_FAIR_PREEMPTION_TIMEOUT_SECS, 30)?;
            Ok(Box::new(FairScheduler::new(SimDuration::from_secs(secs))))
        }
        "capacity" => {
            let max_pct = conf.get_u64(keys::MAPRED_CAPACITY_MAX_PCT, 100)?;
            let user_pct = conf.get_u64(keys::MAPRED_CAPACITY_USER_LIMIT_PCT, 100)?;
            Ok(Box::new(CapacityScheduler::new().queue(
                "default",
                QueueSpec {
                    capacity_pct: 100,
                    max_capacity_pct: max_pct,
                    user_limit_pct: user_pct,
                    parent: None,
                },
            )))
        }
        other => Err(HlError::Config(format!(
            "{}: unknown scheduler {other:?} (fifo|fair|capacity)",
            keys::MAPRED_SCHEDULER
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A locality-blind environment: every placement is equally good.
    struct UniformEnv;

    impl SchedulerEnv for UniformEnv {
        fn distance(&self, _node: NodeId, _job: usize, _task: u32) -> u32 {
            0
        }
    }

    fn t(us: u64) -> SimTime {
        SimTime(us)
    }

    struct OwnedJob {
        user: String,
        pool: String,
        priority: u32,
        submitted_at: SimTime,
        pending: Vec<u32>,
        running: Vec<u32>,
    }

    impl OwnedJob {
        fn new(user: &str, pool: &str, pending: Vec<u32>, running: Vec<u32>) -> Self {
            OwnedJob {
                user: user.into(),
                pool: pool.into(),
                priority: 0,
                submitted_at: SimTime::ZERO,
                pending,
                running,
            }
        }

        fn view(&self) -> JobView<'_> {
            JobView {
                user: &self.user,
                pool: &self.pool,
                priority: self.priority,
                submitted_at: self.submitted_at,
                pending: &self.pending,
                running: &self.running,
            }
        }
    }

    fn slots(n: u32) -> Vec<SlotState> {
        (0..n).map(|i| SlotState { node: NodeId(i), free_at: SimTime::ZERO }).collect()
    }

    #[test]
    fn fifo_prefers_earliest_slot_and_lowest_task() {
        let mut s = FifoScheduler;
        let mut sl = slots(3);
        sl[0].free_at = t(500);
        let jobs = [OwnedJob::new("a", "default", vec![7, 2, 5], vec![])];
        let views: Vec<JobView> = jobs.iter().map(|j| j.view()).collect();
        let a = s.next_assignment(SimTime::ZERO, &sl, &views, &UniformEnv).unwrap();
        assert_eq!((a.slot, a.job, a.task), (1, 0, 2));
    }

    #[test]
    fn fifo_respects_priority_then_submission() {
        let mut s = FifoScheduler;
        let sl = slots(1);
        let mut j0 = OwnedJob::new("a", "default", vec![0], vec![]);
        j0.submitted_at = t(10);
        let mut j1 = OwnedJob::new("b", "default", vec![0], vec![]);
        j1.submitted_at = t(20);
        j1.priority = 5;
        let views = [j0.view(), j1.view()];
        let a = s.next_assignment(SimTime::ZERO, &sl, &views, &UniformEnv).unwrap();
        assert_eq!(a.job, 1, "higher priority wins despite later submission");
    }

    #[test]
    fn fair_serves_needy_pool_first() {
        let mut s =
            FairScheduler::new(SimDuration::from_secs(30)).pool("prod", 1, 2).pool("adhoc", 1, 0);
        let sl = slots(1);
        let jobs = [
            OwnedJob::new("a", "adhoc", vec![0, 1], vec![0, 1, 2]),
            OwnedJob::new("p", "prod", vec![0], vec![]),
        ];
        let views: Vec<JobView> = jobs.iter().map(|j| j.view()).collect();
        let a = s.next_assignment(SimTime::ZERO, &sl, &views, &UniformEnv).unwrap();
        assert_eq!(a.job, 1, "prod is below min share");
    }

    #[test]
    fn fair_weights_shift_the_deficit_order() {
        let mut s =
            FairScheduler::new(SimDuration::from_secs(30)).pool("heavy", 3, 0).pool("light", 1, 0);
        let sl = slots(1);
        // heavy runs 2 of weight 3 (ratio 2/3), light runs 1 of weight 1
        // (ratio 1) → heavy is further below its share.
        let jobs = [
            OwnedJob::new("h", "heavy", vec![0], vec![0, 1]),
            OwnedJob::new("l", "light", vec![0], vec![0]),
        ];
        let views: Vec<JobView> = jobs.iter().map(|j| j.view()).collect();
        let a = s.next_assignment(SimTime::ZERO, &sl, &views, &UniformEnv).unwrap();
        assert_eq!(a.job, 0);
    }

    #[test]
    fn fair_balances_users_inside_a_pool() {
        let mut s = FairScheduler::new(SimDuration::from_secs(30));
        let sl = slots(1);
        let mut j0 = OwnedJob::new("alice", "default", vec![0], vec![0, 1]);
        j0.submitted_at = t(1);
        let mut j1 = OwnedJob::new("bob", "default", vec![0], vec![]);
        j1.submitted_at = t(2);
        let views = [j0.view(), j1.view()];
        let a = s.next_assignment(SimTime::ZERO, &sl, &views, &UniformEnv).unwrap();
        assert_eq!(a.job, 1, "bob runs nothing; alice runs two");
    }

    #[test]
    fn fair_preempts_only_after_timeout_and_accounts() {
        let mut s = FairScheduler::new(SimDuration::from_secs(10)).pool("prod", 1, 2);
        let jobs = [
            OwnedJob::new("a", "adhoc", vec![], vec![0, 1, 2, 3]),
            OwnedJob::new("p", "prod", vec![0, 1], vec![]),
        ];
        let views: Vec<JobView> = jobs.iter().map(|j| j.view()).collect();
        // First observation arms the clock; nothing is preempted yet.
        assert!(s.preemptions(t(0), TaskKind::Map, 4, &views).is_empty());
        // Still inside the timeout.
        assert!(s.preemptions(SimTime(5_000_000), TaskKind::Map, 4, &views).is_empty());
        // Past the timeout: exactly the 2-slot deficit is preempted, from
        // the over-share pool's newest tasks.
        let p = s.preemptions(SimTime(10_000_000), TaskKind::Map, 4, &views);
        assert_eq!(p.len(), 2);
        assert!(p.iter().all(|x| x.job == 0));
        assert_eq!(p[0].task, 3);
        // The clock restarted: an immediate re-check preempts nothing.
        assert!(s.preemptions(SimTime(10_000_001), TaskKind::Map, 4, &views).is_empty());
    }

    #[test]
    fn fair_starvation_clock_resets_once_served() {
        let mut s = FairScheduler::new(SimDuration::from_secs(10)).pool("prod", 1, 1);
        let starved = [
            OwnedJob::new("a", "adhoc", vec![], vec![0, 1]),
            OwnedJob::new("p", "prod", vec![0], vec![]),
        ];
        let views: Vec<JobView> = starved.iter().map(|j| j.view()).collect();
        assert!(s.preemptions(t(0), TaskKind::Map, 2, &views).is_empty());
        // Pool gets served → clock clears; starving again starts over.
        let served = [
            OwnedJob::new("a", "adhoc", vec![], vec![0, 1]),
            OwnedJob::new("p", "prod", vec![], vec![0]),
        ];
        let views: Vec<JobView> = served.iter().map(|j| j.view()).collect();
        assert!(s.preemptions(SimTime(20_000_000), TaskKind::Map, 2, &views).is_empty());
        let views: Vec<JobView> = starved.iter().map(|j| j.view()).collect();
        assert!(
            s.preemptions(SimTime(21_000_000), TaskKind::Map, 2, &views).is_empty(),
            "clock rearms fresh"
        );
        assert!(
            s.preemptions(SimTime(25_000_000), TaskKind::Map, 2, &views).is_empty(),
            "4 s < timeout"
        );
        assert_eq!(s.preemptions(SimTime(31_000_000), TaskKind::Map, 2, &views).len(), 1);
    }

    /// The map and reduce calls of one instant see different jobs; neither
    /// may reset the other kind's clocks.
    #[test]
    fn fair_keeps_a_starvation_clock_per_kind() {
        let mut s = FairScheduler::new(SimDuration::from_secs(10)).pool("prod", 1, 1);
        let reduces = [
            OwnedJob::new("a", "adhoc", vec![], vec![0, 1]),
            OwnedJob::new("p", "prod", vec![0], vec![]),
        ];
        let maps = [OwnedJob::new("b", "batch", vec![0], vec![0])];
        let reduces: Vec<JobView> = reduces.iter().map(|j| j.view()).collect();
        let maps: Vec<JobView> = maps.iter().map(|j| j.view()).collect();
        for at in [t(0), SimTime(5_000_000)] {
            assert!(s.preemptions(at, TaskKind::Map, 4, &maps).is_empty());
            assert!(s.preemptions(at, TaskKind::Reduce, 2, &reduces).is_empty());
        }
        assert!(s.preemptions(SimTime(10_000_000), TaskKind::Map, 4, &maps).is_empty());
        let p = s.preemptions(SimTime(10_000_000), TaskKind::Reduce, 2, &reduces);
        assert_eq!(p, vec![Preemption { job: 0, task: 1 }]);
    }

    #[test]
    fn capacity_orders_queues_by_used_ratio_and_caps_elastic() {
        let mut s = CapacityScheduler::new()
            .queue(
                "batch",
                QueueSpec {
                    capacity_pct: 50,
                    max_capacity_pct: 75,
                    user_limit_pct: 100,
                    parent: None,
                },
            )
            .queue(
                "adhoc",
                QueueSpec {
                    capacity_pct: 50,
                    max_capacity_pct: 100,
                    user_limit_pct: 100,
                    parent: None,
                },
            );
        let sl = slots(4);
        // batch at 3/4 of its 75% ceiling on 4 slots (= 3 slots): full.
        let jobs = [
            OwnedJob::new("b", "batch", vec![9], vec![0, 1, 2]),
            OwnedJob::new("a", "adhoc", vec![5], vec![]),
        ];
        let views: Vec<JobView> = jobs.iter().map(|j| j.view()).collect();
        let a = s.next_assignment(SimTime::ZERO, &sl, &views, &UniformEnv).unwrap();
        assert_eq!(a.job, 1, "batch is at its elastic ceiling (3 of 4 slots)");
    }

    #[test]
    fn capacity_user_limit_skips_hog_inside_queue() {
        let mut s = CapacityScheduler::new().queue(
            "default",
            QueueSpec {
                capacity_pct: 100,
                max_capacity_pct: 100,
                user_limit_pct: 50,
                parent: None,
            },
        );
        let sl = slots(4);
        // hog already runs 2 = 50% of the 4-slot queue; its next job must
        // wait behind the other user's despite earlier submission.
        let mut j0 = OwnedJob::new("hog", "default", vec![0], vec![0, 1]);
        j0.submitted_at = t(1);
        let mut j1 = OwnedJob::new("meek", "default", vec![0], vec![]);
        j1.submitted_at = t(2);
        let views = [j0.view(), j1.view()];
        let a = s.next_assignment(SimTime::ZERO, &sl, &views, &UniformEnv).unwrap();
        assert_eq!(a.job, 1);
    }

    #[test]
    fn capacity_hierarchy_composes_parent_ceilings() {
        let mut s = CapacityScheduler::new()
            .queue(
                "org",
                QueueSpec {
                    capacity_pct: 50,
                    max_capacity_pct: 50,
                    user_limit_pct: 100,
                    parent: None,
                },
            )
            .queue(
                "org-a",
                QueueSpec {
                    capacity_pct: 100,
                    max_capacity_pct: 100,
                    user_limit_pct: 100,
                    parent: Some("org".into()),
                },
            );
        let sl = slots(8);
        // org-a alone may use 100% of org's 50% = 4 of 8 slots.
        let jobs = [OwnedJob::new("u", "org-a", vec![7], vec![0, 1, 2, 3])];
        let views: Vec<JobView> = jobs.iter().map(|j| j.view()).collect();
        assert!(
            s.next_assignment(SimTime::ZERO, &sl, &views, &UniformEnv).is_none(),
            "parent ceiling binds the child"
        );
        let jobs = [OwnedJob::new("u", "org-a", vec![7], vec![0, 1, 2])];
        let views: Vec<JobView> = jobs.iter().map(|j| j.view()).collect();
        assert!(s.next_assignment(SimTime::ZERO, &sl, &views, &UniformEnv).is_some());
    }

    #[test]
    fn from_config_builds_each_policy_and_rejects_garbage() {
        let mut c = Configuration::with_defaults();
        assert_eq!(scheduler_from_config(&c).unwrap().name(), "fifo");
        c.set(keys::MAPRED_SCHEDULER, "fair");
        assert_eq!(scheduler_from_config(&c).unwrap().name(), "fair");
        c.set(keys::MAPRED_SCHEDULER, "capacity");
        assert_eq!(scheduler_from_config(&c).unwrap().name(), "capacity");
        c.set(keys::MAPRED_SCHEDULER, "lottery");
        assert!(scheduler_from_config(&c).is_err());
    }
}
