//! Google-trace replay: the clusterdata-2011 rows as a *live* multi-tenant
//! arrival process, not just a wordcount corpus.
//!
//! [`GoogleTraceGen`](hl_datagen::google_trace::GoogleTraceGen) writes
//! hundreds of jobs from 131 distinct users with staggered submit times,
//! per-attempt durations, and EVICT/FAIL/KILL/LOST terminals — everything
//! a scheduler shoot-out needs. This module parses those rows into
//! [`ReplayJob`]s and submits them to the JobTracker loop
//! ([`hl_mapreduce::jobtracker`], the same loop real jobs run on) over a
//! one-kind slot farm, under any
//! [`Scheduler`](hl_mapreduce::scheduler::Scheduler) policy:
//!
//! * a job is submitted at its (normalized, scaled) trace submit time;
//! * each task attempt runs for its trace duration (scaled for
//!   contention studies); a non-FINISH terminal re-queues the task and
//!   consumes the attempt — the trace's resubmission semantics, EVICT
//!   included;
//! * Fair-scheduler min-share preemptions stop a running task *without*
//!   consuming its attempt: the same attempt later re-runs in full;
//! * three inline oracles run as the simulation goes: **no starvation**
//!   (every job completes or the run flags a stall), **quota
//!   conservation** (per-queue running counts never exceed the
//!   configured elastic bounds), and **preemption accounting**
//!   (preempted = re-queued = re-run, reconciled against the metrics
//!   registry).
//!
//! Everything is virtual-time deterministic: the assignment log and the
//! metrics snapshot hash to stable FNV-1a values per (trace, policy).

use std::collections::{BTreeMap, BTreeSet};

use hl_common::prelude::*;
use hl_datagen::google_trace::{event, parse_event_full};
use hl_mapreduce::jobtracker::{Ending, Flight, JobTracker, Launch, Next, TaskBody};
use hl_mapreduce::report::TaskKind;
use hl_mapreduce::scheduler::{
    CapacityScheduler, FairScheduler, FifoScheduler, QueueSpec, Scheduler, SlotState,
};
use hl_metrics::MetricsRegistry;

/// Number of scheduler pools the replay spreads users across.
const NUM_POOLS: u64 = 8;

/// One task attempt: how long it ran in the trace and how it ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attempt {
    /// SCHEDULE → terminal-event span from the trace.
    pub duration: SimDuration,
    /// Terminal event code ([`event`]): FINISH completes the task,
    /// anything else re-queues it.
    pub outcome: u8,
}

/// One task: the fixed attempt script the trace recorded for it.
#[derive(Debug, Clone, Default)]
pub struct ReplayTask {
    /// Attempts in trace order; the last one always FINISHes.
    pub attempts: Vec<Attempt>,
}

/// One job reconstructed from the trace.
#[derive(Debug, Clone)]
pub struct ReplayJob {
    /// Trace job id.
    pub job_id: u64,
    /// Submitting user (from the trace's user column).
    pub user: String,
    /// Pool/queue this job bills to (users hash onto [`NUM_POOLS`] pools).
    pub pool: String,
    /// Scheduling priority (derived from the job id; stable).
    pub priority: u32,
    /// Submission time, normalized so the first job arrives at zero.
    pub arrival: SimTime,
    /// The job's tasks.
    pub tasks: Vec<ReplayTask>,
}

/// Parse a generated trace into replayable jobs, arrival-ordered.
///
/// Rows that don't parse are skipped (the generator never writes any);
/// a task whose script somehow lacks a FINISH gets one appended so the
/// replay always terminates.
pub fn load_trace(log: &str) -> Vec<ReplayJob> {
    struct Raw {
        first_submit: u64,
        user: String,
        // task → (pending schedule ts, attempts)
        tasks: BTreeMap<u32, (Option<u64>, Vec<Attempt>)>,
    }
    let mut raw: BTreeMap<u64, Raw> = BTreeMap::new();
    for line in log.lines() {
        let Some(ev) = parse_event_full(line) else { continue };
        let entry = raw.entry(ev.job).or_insert_with(|| Raw {
            first_submit: ev.ts,
            user: ev.user.clone(),
            tasks: BTreeMap::new(),
        });
        entry.first_submit = entry.first_submit.min(ev.ts);
        let task = entry.tasks.entry(ev.task).or_insert((None, Vec::new()));
        match ev.event {
            event::SCHEDULE => task.0 = Some(ev.ts),
            event::EVICT | event::FAIL | event::FINISH | event::KILL | event::LOST => {
                if let Some(scheduled) = task.0.take() {
                    task.1.push(Attempt {
                        duration: SimDuration(ev.ts.saturating_sub(scheduled).max(1)),
                        outcome: ev.event,
                    });
                }
            }
            _ => {} // SUBMITs only mark arrival
        }
    }
    let t0 = raw.values().map(|r| r.first_submit).min().unwrap_or(0);
    raw.into_iter()
        .map(|(job_id, r)| {
            let user_num: u64 = r.user.trim_start_matches("user").parse().unwrap_or(0);
            let tasks = r
                .tasks
                .into_values()
                .map(|(_, mut attempts)| {
                    if attempts.last().map(|a| a.outcome) != Some(event::FINISH) {
                        attempts.push(Attempt { duration: SimDuration(1), outcome: event::FINISH });
                    }
                    ReplayTask { attempts }
                })
                .collect();
            ReplayJob {
                job_id,
                pool: format!("pool-{}", user_num % NUM_POOLS),
                user: r.user,
                priority: (job_id % 3) as u32,
                arrival: SimTime(r.first_submit - t0),
                tasks,
            }
        })
        .collect()
}

/// Which policy drives the replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayPolicy {
    /// Single-queue FIFO (the original engine behavior).
    Fifo,
    /// Weighted fair sharing over the 8 pools with min-share preemption.
    Fair,
    /// Hierarchical capacity queues (batch/adhoc parents over the pools).
    Capacity,
}

impl ReplayPolicy {
    /// Config-value / trace-label name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            ReplayPolicy::Fifo => "fifo",
            ReplayPolicy::Fair => "fair",
            ReplayPolicy::Capacity => "capacity",
        }
    }

    /// Parse a `--policy` argument.
    pub fn parse(s: &str) -> Option<ReplayPolicy> {
        match s {
            "fifo" => Some(ReplayPolicy::Fifo),
            "fair" => Some(ReplayPolicy::Fair),
            "capacity" => Some(ReplayPolicy::Capacity),
            _ => None,
        }
    }
}

/// Cluster shape and contention knobs for a replay run.
#[derive(Debug, Clone, Copy)]
pub struct ReplaySetup {
    /// TaskTracker nodes.
    pub nodes: u32,
    /// Slots per node.
    pub slots_per_node: u32,
    /// Multiply every attempt duration (contention dial).
    pub duration_scale: u64,
    /// Divide every arrival gap (contention dial).
    pub arrival_div: u64,
    /// Fair-scheduler min-share preemption timeout.
    pub fair_timeout: SimDuration,
}

impl Default for ReplaySetup {
    fn default() -> Self {
        ReplaySetup {
            nodes: 5,
            slots_per_node: 2,
            duration_scale: 1,
            arrival_div: 1,
            fair_timeout: SimDuration::from_secs(30),
        }
    }
}

impl ReplaySetup {
    /// A deliberately over-subscribed setup: long tasks, compressed
    /// arrivals, a preemption timeout short enough to actually fire.
    pub fn contended() -> Self {
        ReplaySetup {
            duration_scale: 8,
            arrival_div: 32,
            fair_timeout: SimDuration::from_secs(1),
            ..ReplaySetup::default()
        }
    }

    fn total_slots(&self) -> usize {
        (self.nodes as usize) * (self.slots_per_node as usize)
    }
}

/// Hard per-pool running-slot ceilings the quota oracle enforces, plus
/// parent aggregates for the hierarchical Capacity case.
struct QuotaBounds {
    /// pool → max concurrently running tasks.
    leaf: BTreeMap<String, u64>,
    /// (parent name, member pools, max running) aggregates.
    parents: Vec<(String, Vec<String>, u64)>,
}

/// Build the policy's scheduler plus the quota bounds the oracle checks.
fn build_policy(policy: ReplayPolicy, setup: &ReplaySetup) -> (Box<dyn Scheduler>, QuotaBounds) {
    let total = setup.total_slots() as u64;
    let all_pools: Vec<String> = (0..NUM_POOLS).map(|p| format!("pool-{p}")).collect();
    match policy {
        ReplayPolicy::Fifo => {
            let leaf = all_pools.iter().map(|p| (p.clone(), total)).collect();
            (Box::new(FifoScheduler), QuotaBounds { leaf, parents: Vec::new() })
        }
        ReplayPolicy::Fair => {
            // Varied weights; one guaranteed slot per pool so min-share
            // preemption has a share to enforce. Fair sharing is not a
            // hard cap, so the quota bound is the whole cluster.
            let mut s = FairScheduler::new(setup.fair_timeout);
            for (i, p) in all_pools.iter().enumerate() {
                s = s.pool(p.clone(), (i as u64 % 3) + 1, 1);
            }
            let leaf = all_pools.iter().map(|p| (p.clone(), total)).collect();
            (Box::new(s), QuotaBounds { leaf, parents: Vec::new() })
        }
        ReplayPolicy::Capacity => {
            // batch (even pools): guaranteed half, elastic to 80%;
            // adhoc (odd pools): guaranteed half, elastic to all of it.
            let mut s = CapacityScheduler::new()
                .queue(
                    "batch",
                    QueueSpec {
                        capacity_pct: 50,
                        max_capacity_pct: 80,
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
            let mut leaf = BTreeMap::new();
            let mut batch_members = Vec::new();
            let mut adhoc_members = Vec::new();
            for (i, p) in all_pools.iter().enumerate() {
                let parent = if i % 2 == 0 { "batch" } else { "adhoc" };
                s = s.queue(
                    p.clone(),
                    QueueSpec {
                        capacity_pct: 25,
                        max_capacity_pct: 100,
                        user_limit_pct: 50,
                        parent: Some(parent.to_string()),
                    },
                );
                // Leaf ceiling = its own 100% of the parent's elastic max.
                let max_pct = if i % 2 == 0 { 80 } else { 100 };
                leaf.insert(p.clone(), (total * max_pct / 100).max(1));
                if i % 2 == 0 {
                    batch_members.push(p.clone());
                } else {
                    adhoc_members.push(p.clone());
                }
            }
            let parents = vec![
                ("batch".to_string(), batch_members, (total * 80 / 100).max(1)),
                ("adhoc".to_string(), adhoc_members, total),
            ];
            (Box::new(s), QuotaBounds { leaf, parents })
        }
    }
}

/// Everything a replay run produces: fairness/wait statistics, the
/// assignment log and its hash, the metrics snapshot hash, per-job
/// resubmission counts, and any oracle violations.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Policy that ran.
    pub policy: &'static str,
    /// Jobs replayed.
    pub jobs: usize,
    /// Distinct users seen.
    pub users: usize,
    /// Virtual makespan (last completion).
    pub makespan: SimDuration,
    /// Mean job wait (arrival → first assignment).
    pub mean_wait: SimDuration,
    /// 99th-percentile job wait.
    pub p99_wait: SimDuration,
    /// Scheduler decisions taken.
    pub decisions: u64,
    /// Policy (min-share) preemptions.
    pub policy_preemptions: u64,
    /// Trace-driven re-queues per job (EVICT/FAIL/KILL/LOST terminals) —
    /// equals the generator's `TraceTruth::resubmissions` exactly.
    pub trace_requeues_by_job: BTreeMap<u64, u64>,
    /// The EVICT-only subset (the trace's preemption flavor).
    pub evict_requeues_by_job: BTreeMap<u64, u64>,
    /// Busy µs charged per pool (fairness accounting).
    pub pool_busy_us: BTreeMap<String, u64>,
    /// One line per scheduling action, FNV-1a-hashable.
    pub assignment_log: String,
    /// FNV-1a of the assignment log.
    pub assignment_hash: u64,
    /// FNV-1a of the serialized end-of-run metrics snapshot.
    pub metrics_hash: u64,
    /// Oracle violations (empty on a clean run).
    pub violations: Vec<String>,
}

impl ReplayOutcome {
    /// `(job, requeues)` with the most trace-driven re-queues, tie-broken
    /// exactly like `TraceTruth::worst_job`.
    pub fn worst_replayed_job(&self) -> Option<(u64, u64)> {
        self.trace_requeues_by_job
            .iter()
            .map(|(&j, &n)| (j, n))
            .max_by_key(|&(j, n)| (n, std::cmp::Reverse(j)))
    }
}

/// The trace [`TaskBody`]: an attempt runs for the duration its trace row
/// recorded and ends the way the row ended. Also the run's bookkeeping —
/// the assignment log, the metrics and the per-job/per-pool tallies all
/// hang off the launches and the ends the loop reports.
struct TraceBody<'a> {
    jobs: &'a [ReplayJob],
    duration_scale: u64,
    progress: Vec<Progress>,
    completed: usize,
    makespan: SimTime,
    waits: Vec<SimDuration>,
    trace_requeues: BTreeMap<u64, u64>,
    evict_requeues: BTreeMap<u64, u64>,
    pool_busy: BTreeMap<String, u64>,
    metrics: MetricsRegistry,
    log: String,
}

/// How far one job has got.
#[derive(Clone, Default)]
struct Progress {
    /// The next attempt index of each task that has re-queued.
    next_attempt: BTreeMap<u32, usize>,
    /// Tasks finished.
    done: usize,
    assigned: bool,
}

impl TraceBody<'_> {
    fn attempt(&self, job: usize, task: u32) -> Option<Attempt> {
        let ai = self.progress[job].next_attempt.get(&task).copied().unwrap_or(0);
        self.jobs[job].tasks[task as usize].attempts.get(ai).copied()
    }
}

impl TaskBody for TraceBody<'_> {
    fn launch(&mut self, jt: &mut JobTracker, l: Launch) -> Option<SimTime> {
        let (now, job) = (jt.now(), &self.jobs[l.job]);
        let row = self.attempt(l.job, l.task);
        let dur = row.map_or(SimDuration(1), |a| SimDuration(a.duration.0 * self.duration_scale));
        if !std::mem::replace(&mut self.progress[l.job].assigned, true) {
            let wait = now.since(jt.jobs[l.job].arrival);
            self.waits.push(wait);
            self.metrics.observe("scheduler", "job.wait_ms", wait.0 / 1000);
            self.metrics.observe("scheduler", &format!("pool.{}.wait_ms", job.pool), wait.0 / 1000);
        }
        self.metrics.incr("scheduler", &format!("user.{}.tasks", job.user), 1);
        self.log
            .push_str(&format!("t={} job={} task={} slot={}\n", now.0, job.job_id, l.task, l.slot));
        Some(now + dur)
    }

    /// A trace attempt is one stage: it ends the way its row ended.
    fn stage(&mut self, _jt: &mut JobTracker, j: usize, task: u32, _: &Flight) -> Option<Next> {
        let row = self.attempt(j, task);
        Some(Next::Done(row.is_none_or(|a| a.outcome == event::FINISH)))
    }

    /// A trace terminal other than FINISH consumes the attempt; a policy
    /// preemption does not, and the same trace row runs again in full.
    /// The replay launches no backups and aborts no job.
    fn ended(&mut self, jt: &mut JobTracker, j: usize, task: u32, flight: &Flight, how: Ending) {
        let (now, job) = (jt.now(), &self.jobs[j]);
        *self.pool_busy.entry(job.pool.clone()).or_default() += flight.end.since(flight.start).0;
        match how {
            Ending::Committed => {
                self.progress[j].done += 1;
                if self.progress[j].done == job.tasks.len() {
                    self.completed += 1;
                    self.makespan = self.makespan.max(now);
                    self.log.push_str(&format!("t={} job={} done\n", now.0, job.job_id));
                }
            }
            Ending::Failed => {
                // Trace terminal: EVICT/FAIL/KILL/LOST → resubmission.
                let outcome = self.attempt(j, task).map_or(0, |a| a.outcome);
                *self.progress[j].next_attempt.entry(task).or_default() += 1;
                *self.trace_requeues.entry(job.job_id).or_default() += 1;
                self.metrics.incr("scheduler", "trace.requeued", 1);
                if outcome == event::EVICT {
                    *self.evict_requeues.entry(job.job_id).or_default() += 1;
                    self.metrics.incr("scheduler", "trace.evicted", 1);
                }
                self.log.push_str(&format!(
                    "t={} job={} task={task} requeue ev={outcome}\n",
                    now.0, job.job_id
                ));
            }
            Ending::Preempted => {
                self.log
                    .push_str(&format!("t={} job={} task={task} preempted\n", now.0, job.job_id));
            }
            Ending::Killed | Ending::Aborted => {}
        }
    }
}

/// Replay `jobs` under `policy` on `setup`'s slot farm: submit every job
/// to the JobTracker loop at its (scaled) trace arrival and step it dry.
/// Deterministic: same inputs, byte-identical
/// [`ReplayOutcome::assignment_log`].
pub fn replay(jobs: &[ReplayJob], policy: ReplayPolicy, setup: &ReplaySetup) -> ReplayOutcome {
    let (scheduler, bounds) = build_policy(policy, setup);
    let farm = (0..setup.total_slots())
        .map(|s| SlotState {
            node: NodeId(s as u32 / setup.slots_per_node.max(1)),
            free_at: SimTime::ZERO,
        })
        .collect();
    let mut jt = JobTracker::new(scheduler, farm, Vec::new());
    for j in jobs {
        let arrival = SimTime(j.arrival.0 / setup.arrival_div.max(1));
        jt.submit(arrival, &j.user, &j.pool, j.priority, TaskKind::Map, j.tasks.len());
    }
    let mut body = TraceBody {
        jobs,
        duration_scale: setup.duration_scale.max(1),
        progress: vec![Progress::default(); jobs.len()],
        completed: 0,
        makespan: SimTime::ZERO,
        waits: Vec::new(),
        trace_requeues: BTreeMap::new(),
        evict_requeues: BTreeMap::new(),
        pool_busy: BTreeMap::new(),
        metrics: MetricsRegistry::new(),
        log: String::new(),
    };
    let mut violations: Vec<String> = Vec::new();
    let mut now = SimTime::ZERO;
    while let Some(t) = jt.step(&mut body) {
        now = t;
        check_quota(&jt, &bounds, &mut violations);
    }

    // No-starvation oracle: the loop ran dry, so whoever is incomplete
    // was refused by the policy (or the policy's decision was refused).
    if let Some(what) = jt.invalid() {
        violations.push(format!("policy {} {what}", policy.name()));
    }
    if body.completed < jobs.len() {
        violations.push(format!(
            "starvation: {} of {} jobs incomplete at t={} (policy {})",
            jobs.len() - body.completed,
            jobs.len(),
            now.0,
            policy.name()
        ));
    }
    // Preemption accounting oracle: every preempted attempt was re-queued
    // and re-run.
    let tally = jt.tally;
    if tally.preempted != tally.rerun {
        violations.push(format!(
            "preemption accounting: preempted={} requeued={} rerun={}",
            tally.preempted, tally.preempted, tally.rerun
        ));
    }
    let TraceBody { mut metrics, waits, pool_busy, .. } = body;
    tally.book(&mut metrics, "scheduler", "");

    let mut sorted_waits = waits.clone();
    sorted_waits.sort_unstable();
    let mean_wait = if waits.is_empty() {
        SimDuration::ZERO
    } else {
        SimDuration(waits.iter().map(|w| w.0).sum::<u64>() / waits.len() as u64)
    };
    let p99_wait = sorted_waits
        .get(sorted_waits.len().saturating_sub(1) * 99 / 100)
        .copied()
        .unwrap_or(SimDuration::ZERO);

    for (pool, busy) in &pool_busy {
        metrics.incr("scheduler", &format!("pool.{pool}.busy_us"), *busy);
    }
    let users: BTreeSet<&str> = jobs.iter().map(|j| j.user.as_str()).collect();
    use hl_common::writable::Writable;
    let metrics_hash = fnv1a(&metrics.snapshot(now).to_bytes());

    ReplayOutcome {
        policy: policy.name(),
        jobs: jobs.len(),
        users: users.len(),
        makespan: body.makespan.since(SimTime::ZERO),
        mean_wait,
        p99_wait,
        decisions: tally.decisions,
        policy_preemptions: tally.preempted,
        trace_requeues_by_job: body.trace_requeues,
        evict_requeues_by_job: body.evict_requeues,
        pool_busy_us: pool_busy,
        assignment_hash: fnv1a(body.log.as_bytes()),
        assignment_log: body.log,
        metrics_hash,
        violations,
    }
}

/// Quota conservation oracle, read off the loop's table between steps: no
/// pool and no parent queue runs more tasks than its elastic bound.
fn check_quota(jt: &JobTracker, bounds: &QuotaBounds, violations: &mut Vec<String>) {
    let now = jt.now();
    let mut per_pool: BTreeMap<&str, u64> = BTreeMap::new();
    for &j in jt.active() {
        let job = &jt.jobs[j];
        *per_pool.entry(job.pool.as_str()).or_default() += job.running.len() as u64;
    }
    for (pool, &used) in &per_pool {
        if let Some(&cap) = bounds.leaf.get(*pool) {
            if used > cap {
                violations
                    .push(format!("quota: pool {pool} runs {used} > bound {cap} at t={}", now.0));
            }
        }
    }
    for (parent, members, cap) in &bounds.parents {
        let used: u64 =
            members.iter().map(|m| per_pool.get(m.as_str()).copied().unwrap_or(0)).sum();
        if used > *cap {
            violations
                .push(format!("quota: queue {parent} runs {used} > bound {cap} at t={}", now.0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_datagen::google_trace::GoogleTraceGen;

    #[test]
    fn load_trace_reconstructs_jobs_users_and_attempts() {
        let (log, truth) = GoogleTraceGen::new(7).with_jobs(150, 6).generate();
        let jobs = load_trace(&log);
        assert_eq!(jobs.len(), 150);
        let users: BTreeSet<&str> = jobs.iter().map(|j| j.user.as_str()).collect();
        assert_eq!(users.len(), 131, "all 131 user residues appear");
        // Per-job resubmissions in the attempt scripts equal the truth.
        for j in &jobs {
            let resubs: u64 = j.tasks.iter().map(|t| t.attempts.len() as u64 - 1).sum();
            assert_eq!(resubs, truth.resubmissions[&j.job_id], "job {}", j.job_id);
            for t in &j.tasks {
                assert_eq!(t.attempts.last().map(|a| a.outcome), Some(event::FINISH));
            }
        }
        // Arrivals are normalized and ordered by trace position.
        assert_eq!(jobs.iter().map(|j| j.arrival).min(), Some(SimTime::ZERO));
    }

    #[test]
    fn replay_is_clean_and_exact_under_every_policy() {
        let (log, truth) = GoogleTraceGen::new(11).with_jobs(60, 4).generate();
        let jobs = load_trace(&log);
        for policy in [ReplayPolicy::Fifo, ReplayPolicy::Fair, ReplayPolicy::Capacity] {
            let out = replay(&jobs, policy, &ReplaySetup::default());
            assert!(out.violations.is_empty(), "{policy:?}: {:?}", out.violations);
            // Trace-driven requeues are policy-independent and exact.
            for (job, &n) in &truth.resubmissions {
                assert_eq!(
                    out.trace_requeues_by_job.get(job).copied().unwrap_or(0),
                    n,
                    "{policy:?} job {job}"
                );
            }
            assert!(out.decisions > 0);
            assert_eq!(out.jobs, 60);
        }
    }

    /// A preempted attempt's `AttemptFinished` stays queued for its old end
    /// (the queue has no cancel). Here it pops while the same task's re-run
    /// is in flight; it must retire nothing.
    #[test]
    fn a_preempted_attempts_old_end_does_not_retire_its_rerun() {
        let secs = SimDuration::from_secs;
        let job = |id: u64, user: &str, pool: &str, arrival: u64, durations: &[u64]| ReplayJob {
            job_id: id,
            user: user.into(),
            pool: pool.into(),
            priority: 0,
            arrival: SimTime::ZERO + secs(arrival),
            tasks: durations
                .iter()
                .map(|&d| ReplayTask {
                    attempts: vec![Attempt { duration: secs(d), outcome: event::FINISH }],
                })
                .collect(),
        };
        let jobs = [
            // Holds both slots until t=100 s.
            job(1, "ann", "pool-0", 0, &[100, 100]),
            // Starved from t=5 s; the arrival at t=20 s is the first instant
            // past the 1 s timeout, so job 1's task 1 is killed for it then.
            job(2, "bob", "pool-1", 5, &[10]),
            job(3, "cyd", "pool-0", 20, &[1]),
        ];
        let setup = ReplaySetup {
            nodes: 1,
            slots_per_node: 2,
            fair_timeout: secs(1),
            ..ReplaySetup::default()
        };
        let out = replay(&jobs, ReplayPolicy::Fair, &setup);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.policy_preemptions, 1);
        // Job 2 runs 20..30 s, job 3 (the pool's idle user) 30..31 s, and
        // task 1 again in full, 31..131 s: its first launch's end, t=100 s,
        // passes while it runs.
        assert!(out.assignment_log.contains("t=20000000 job=1 task=1 preempted\n"));
        assert!(out.assignment_log.contains("t=31000000 job=1 task=1 slot=1\n"));
        assert!(out.assignment_log.ends_with("t=131000000 job=1 done\n"), "{}", out.assignment_log);
        assert_eq!(out.makespan, secs(131));
    }
}
