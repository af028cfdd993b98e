//! The JobTracker loop: one `JobInProgress` table, one slot table per task
//! kind, one [`Scheduler`], one loop over [`EventQueue`].
//!
//! Everything that runs more than zero jobs goes through [`JobTracker::step`]:
//! [`crate::engine::MrCluster::run_jobs`] submits real jobs (user code over
//! real bytes, every cost charged to the virtual clock) and the Google-trace
//! replay in `hl-workloads` submits its 600 scripted jobs. At each instant
//! the body catches up (the engine runs its DFS protocol rounds), then the
//! loop admits the jobs that arrived, retires the attempts that ended,
//! applies the policy's preemptions, assigns idle slots until the policy
//! declines, and hands the slots still idle that no pending work wants to
//! the body for backups. Every [`Assignment`] and [`Preemption`] is
//! validated here and nowhere else, and the policy is always handed every
//! slot of the kind (idle ones free at `now`, busy ones at their `free_at`)
//! and the true `running` lists.
//!
//! What an attempt *does* is the [`TaskBody`]'s business. An attempt is a
//! short list of stages, and the loop visits each at its instant: the body
//! runs the attempt's first stage when it is launched and each next one
//! when the stage before it ends, booking only that stage's charges at the
//! loop's `now` and reporting when the stage ends ([`Next`]). One event
//! kind, `AttemptFinished`, stands for "a stage of this launch ends". A
//! slot is busy from its attempt's launch until the attempt is over, and
//! every slot an attempt runs on — first try, retry or backup — is idle at
//! the instant the loop launches it.
//!
//! The flight table is the only record of a task's race. A task has a
//! primary flight and at most one backup beside it; the first of them to
//! reach its commit commits, and the loop kills the other then. A flight
//! that fails leaves the other racing on alone, and a backup stays a backup
//! when it is left alone. A flight that ends without committing re-queues
//! its task when it was the task's last one in the air. The loop tells the
//! body once for each flight that ends, and how it ended ([`Ending`]): the
//! body books its attempt, and a backup's race, from that report alone.
//! `EventQueue` has no cancel, so every launch is numbered and an event
//! whose number the table no longer holds (a killed or preempted flight)
//! is stale: it retires nothing and the instant it pops at is not visited.

use std::collections::BTreeSet;

use hl_cluster::event::EventQueue;
use hl_common::prelude::*;
use hl_metrics::MetricsRegistry;

use crate::report::TaskKind;
use crate::scheduler::{Assignment, JobView, Preemption, Scheduler, SchedulerEnv, SlotState};

/// One submitted job as the loop and the policy see it.
#[derive(Debug)]
pub struct JobInProgress {
    /// Submission time.
    pub arrival: SimTime,
    /// Submitting user.
    pub user: String,
    /// Fair-scheduler pool / Capacity queue.
    pub pool: String,
    /// Larger runs earlier within a policy's tie-breaks.
    pub priority: u32,
    /// Slot kind of the job's current phase.
    pub kind: TaskKind,
    /// Task ids of the current phase waiting for a slot.
    pub pending: Vec<u32>,
    /// Task ids of the current phase in flight, ascending.
    pub running: Vec<u32>,
    /// Nodes this job has blacklisted in its current phase: their slots are
    /// hidden from it, and from it only.
    pub blacklist: Vec<NodeId>,
    /// `running[i]`'s primary flight and its backup, each while it flies:
    /// a flight's place is its [`Flight::backup`].
    flights: Vec<[Option<Flight>; 2]>,
}

/// One launched attempt: where it runs, since when, when its current stage
/// ends, and whether it is its task's speculative backup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flight {
    /// Index into the kind's slot table.
    pub slot: usize,
    /// When the attempt started.
    pub start: SimTime,
    /// When its current stage ends and its `AttemptFinished` fires; once
    /// the attempt is over, when it ended.
    pub end: SimTime,
    /// Launched by [`TaskBody::backups`]; still true once its primary is
    /// gone and it flies alone.
    pub backup: bool,
    /// Which launch this is; a killed or preempted attempt's event is stale.
    launch: u64,
}

impl Flight {
    /// An attempt on `slot` since `start` whose current stage ends at `end`.
    pub(crate) fn new(slot: usize, start: SimTime, end: SimTime) -> Self {
        Flight { slot, start, end, backup: false, launch: 0 }
    }
}

/// How a flight ended, as the loop reports it to [`TaskBody::ended`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ending {
    /// It committed its task.
    Committed,
    /// It failed: its task is back in `pending` unless the other flight
    /// still flies.
    Failed,
    /// The task's other flight reached its commit first.
    Killed,
    /// The policy preempted its task, which is back in `pending`.
    Preempted,
    /// Its job was aborted ([`JobTracker::abort`]).
    Aborted,
}

/// How an attempt goes on when one of its stages ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    /// It runs another stage, which ends at this instant.
    Stage(SimTime),
    /// It reached its commit first: the task's other flight is killed now,
    /// and the commit stage ends at this instant.
    Commit(SimTime),
    /// It is over now: its task is done (`true`; the other flight, if
    /// any, is killed), or (`false`) it failed.
    Done(bool),
}

/// One validated scheduler decision handed to the body.
#[derive(Debug, Clone, Copy)]
pub struct Launch {
    /// Index into [`JobTracker::jobs`].
    pub job: usize,
    /// Task id, already moved from `pending`.
    pub task: u32,
    /// Index into the kind's slot table; idle at [`JobTracker::now`].
    pub slot: usize,
    /// Whether this task was preempted earlier and is now run again.
    pub rerun: bool,
}

/// What a task attempt does. Two implementations: the engine's (real user
/// code, charged I/O, failed attempts, speculative backups) and the trace
/// replay's (duration and terminal read off the trace row, one stage).
pub trait TaskBody {
    /// Start the attempt at [`JobTracker::now`] and run its first stage;
    /// returns when that stage ends, or `None` when the body aborted the
    /// job instead. A body aborts a job with [`JobTracker::abort`] and
    /// reports the flights it hands back to its own [`TaskBody::ended`],
    /// as [`Ending::Aborted`].
    fn launch(&mut self, jt: &mut JobTracker, l: Launch) -> Option<SimTime>;

    /// A stage of `f`, an attempt of `job`'s `task`, ended at
    /// [`JobTracker::now`]: run the next one. `None` when the body aborted
    /// the job instead. Which flight wins a race is the loop's decision,
    /// reported through [`TaskBody::ended`], not the body's.
    fn stage(&mut self, jt: &mut JobTracker, job: usize, task: u32, f: &Flight) -> Option<Next>;

    /// `f`, an attempt of `job`'s `task`, is over at [`JobTracker::now`]
    /// (its `end`) the way `how` says, and its slot is free; called once
    /// for each flight the loop launched. The table is already updated: a
    /// task whose flights have all ended is back in `pending` or gone from
    /// `running`. A preempted task's flights are reported primary first;
    /// a committed flight after the other flight it killed. A body with a
    /// next phase starts it on a commit ([`JobTracker::start_phase`]); a
    /// job left with nothing pending and nothing running is complete.
    fn ended(&mut self, jt: &mut JobTracker, job: usize, task: u32, f: &Flight, how: Ending);

    /// `idle` are the `kind` slots idle at [`JobTracker::now`] that no
    /// job's pending work wants, offered while a task of that kind is
    /// running. The body may start a backup of a running task on some of
    /// them and returns them as `(job, task, flight)`, each flight's `end`
    /// the end of its first stage; the loop puts each beside its task's
    /// lone primary and marks it [`Flight::backup`]. None by default.
    fn backups(
        &mut self,
        _jt: &mut JobTracker,
        _kind: TaskKind,
        _idle: &[usize],
    ) -> Vec<(usize, u32, Flight)> {
        Vec::new()
    }

    /// Locality distance of `job`'s map `task` on `node`; the loop asks
    /// about maps only.
    fn distance(&self, _node: NodeId, _job: usize, _task: u32) -> u32 {
        0
    }

    /// The loop reaches instant `now`; the body's other clocks catch up.
    fn advance_to(&mut self, _now: SimTime) {}
}

enum Event {
    JobSubmitted(usize),
    AttemptFinished { job: usize, task: u32, launch: u64 },
}

/// Decision counters, for the bodies' metrics and the accounting oracles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Valid assignments launched.
    pub decisions: u64,
    /// Attempts preempted (each re-queued its task).
    pub preempted: u64,
    /// Preempted tasks launched again.
    pub rerun: u64,
}

impl Tally {
    /// Book the counts, once per run, as `daemon`'s counters
    /// `{prefix}decisions`, `rerun`, `preempted` and `requeued` (each
    /// preemption re-queued its task), in that order. A zero is not
    /// booked: it would add a row to the metrics snapshot.
    pub fn book(self, metrics: &mut MetricsRegistry, daemon: &str, prefix: &str) {
        let Tally { decisions, preempted, rerun } = self;
        for (name, n) in [
            ("decisions", decisions),
            ("rerun", rerun),
            ("preempted", preempted),
            ("requeued", preempted),
        ] {
            if n > 0 {
                metrics.incr(daemon, &format!("{prefix}{name}"), n);
            }
        }
    }
}

/// The table and the loop.
pub struct JobTracker {
    scheduler: Box<dyn Scheduler>,
    /// Every submitted job, by submission index.
    pub jobs: Vec<JobInProgress>,
    /// Map slots, then reduce slots; indices are stable for the run.
    slots: [Vec<SlotState>; 2],
    /// Nodes whose tracker died: hidden from every job.
    dead: Vec<NodeId>,
    queue: EventQueue<Event>,
    /// Arrived, incomplete jobs in admission order.
    active: Vec<usize>,
    launches: u64,
    owed_rerun: BTreeSet<(usize, u32)>,
    /// Decision counters so far.
    pub tally: Tally,
    invalid: Option<String>,
}

impl JobTracker {
    /// A tracker over the given map and reduce slot tables.
    pub fn new(
        scheduler: Box<dyn Scheduler>,
        map_slots: Vec<SlotState>,
        reduce_slots: Vec<SlotState>,
    ) -> Self {
        JobTracker {
            scheduler,
            jobs: Vec::new(),
            slots: [map_slots, reduce_slots],
            dead: Vec::new(),
            queue: EventQueue::new(),
            active: Vec::new(),
            launches: 0,
            owed_rerun: BTreeSet::new(),
            tally: Tally::default(),
            invalid: None,
        }
    }

    /// Give the policy back once the run is over.
    pub(crate) fn into_scheduler(self) -> Box<dyn Scheduler> {
        self.scheduler
    }

    /// The policy's name.
    pub(crate) fn policy(&self) -> &'static str {
        self.scheduler.name()
    }

    /// The instant being processed (the last event popped).
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Arrived, incomplete jobs in admission order.
    pub fn active(&self) -> &[usize] {
        &self.active
    }

    /// The invalid decision that stopped the loop, if one did.
    pub fn invalid(&self) -> Option<&str> {
        self.invalid.as_deref()
    }

    /// Submit a job arriving at `arrival` whose first phase has `tasks`
    /// tasks of `kind`; returns its index in [`JobTracker::jobs`].
    pub fn submit(
        &mut self,
        arrival: SimTime,
        user: &str,
        pool: &str,
        priority: u32,
        kind: TaskKind,
        tasks: usize,
    ) -> usize {
        let job = self.jobs.len();
        self.jobs.push(JobInProgress {
            arrival,
            user: user.to_string(),
            pool: pool.to_string(),
            priority,
            kind,
            pending: Vec::new(),
            running: Vec::new(),
            blacklist: Vec::new(),
            flights: Vec::new(),
        });
        self.start_phase(job, kind, tasks);
        self.queue.schedule_at(arrival, Event::JobSubmitted(job));
        job
    }

    /// Make `tasks` tasks of `kind` runnable for `job` from now on. The new
    /// phase starts with every live tracker usable again.
    pub(crate) fn start_phase(&mut self, job: usize, kind: TaskKind, tasks: usize) {
        let j = &mut self.jobs[job];
        j.kind = kind;
        j.blacklist.clear();
        j.pending = (0..u32::try_from(tasks).unwrap_or(u32::MAX)).collect();
    }

    /// Drop everything `job` still has queued or in flight (it failed).
    /// Returns the flights it drained, each with its task and ended now,
    /// for the body to report as [`Ending::Aborted`].
    pub(crate) fn abort(&mut self, job: usize) -> Vec<(u32, Flight)> {
        let (now, j) = (self.queue.now(), &mut self.jobs[job]);
        let slots = &mut self.slots[j.kind as usize];
        j.pending.clear();
        self.active.retain(|&a| a != job);
        (j.running.drain(..).zip(j.flights.drain(..)))
            .flat_map(|(t, pair)| pair.into_iter().flatten().map(move |f| (t, f)))
            .map(|(t, f)| {
                slots[f.slot].free_at = now;
                (t, Flight { end: now, ..f })
            })
            .collect()
    }

    /// One slot of `kind`'s table.
    pub(crate) fn slot(&self, kind: TaskKind, slot: usize) -> SlotState {
        self.slots[kind as usize][slot]
    }

    /// Table indices of the `kind` slots `job` may use: live trackers it
    /// has not blacklisted.
    pub(crate) fn usable(&self, kind: TaskKind, job: usize) -> Vec<usize> {
        let hidden = &self.jobs[job].blacklist;
        let slots = &self.slots[kind as usize];
        (0..slots.len())
            .filter(|&i| !self.dead.contains(&slots[i].node) && !hidden.contains(&slots[i].node))
            .collect()
    }

    /// `node`'s tracker died: its slots leave the pool for every job.
    pub(crate) fn drop_node(&mut self, node: NodeId) {
        if !self.dead.contains(&node) {
            self.dead.push(node);
        }
    }

    /// Book `flight`'s slot until further notice and schedule the end of
    /// its first stage.
    fn schedule(&mut self, kind: TaskKind, job: usize, task: u32, flight: Flight) -> Flight {
        self.launches += 1;
        let launch = self.launches;
        self.slots[kind as usize][flight.slot].free_at = SimTime(u64::MAX);
        self.queue.schedule_at(flight.end, Event::AttemptFinished { job, task, launch });
        Flight { launch, ..flight }
    }

    /// Process the next instant: admit, retire, preempt, assign, offer
    /// backups. Returns the instant, or `None` when no event is left (or a
    /// decision was invalid — see [`JobTracker::invalid`]); jobs still
    /// incomplete then were starved by the policy.
    pub fn step(&mut self, body: &mut dyn TaskBody) -> Option<SimTime> {
        if self.invalid.is_some() {
            return None;
        }
        let now = self.queue.peek_time()?;
        let mut due = Vec::new();
        let mut live = false;
        while self.queue.peek_time() == Some(now) {
            match self.queue.pop() {
                Some((_, Event::JobSubmitted(job))) => {
                    self.active.push(job);
                    live = true;
                }
                Some((_, Event::AttemptFinished { job, task, launch })) => {
                    due.push((job, task, launch));
                }
                None => break,
            }
        }
        // An instant with nothing but stale events is not visited.
        due.retain(|&(job, task, launch)| self.find(job, task, launch).is_some());
        if live || !due.is_empty() {
            body.advance_to(now);
        }
        // An idle slot has been free "since now" as far as any policy or
        // body can tell.
        for s in self.slots.iter_mut().flatten() {
            s.free_at = s.free_at.max(now);
        }
        due.sort_unstable();
        for (job, task, launch) in due {
            live |= self.advance(body, job, task, launch);
        }
        if live {
            for kind in [TaskKind::Map, TaskKind::Reduce] {
                self.preempt(body, kind);
                self.assign(body, kind);
                self.back_up(body, kind);
            }
        }
        Some(now)
    }

    /// The flight launched as `launch` if it is still in the table, and its
    /// task's index in `running`.
    fn find(&self, job: usize, task: u32, launch: u64) -> Option<(usize, Flight)> {
        let j = &self.jobs[job];
        let i = j.running.binary_search(&task).ok()?;
        Some((i, j.flights[i].into_iter().flatten().find(|f| f.launch == launch)?))
    }

    /// Run the next stage of the flight launched as `launch`, unless it has
    /// been killed, preempted or aborted since: then the event is stale. A
    /// flight that reaches its commit kills the task's other one; one that
    /// fails leaves it running. Returns whether a slot or a task changed
    /// hands.
    fn advance(&mut self, body: &mut dyn TaskBody, job: usize, task: u32, launch: u64) -> bool {
        let Some((i, flight)) = self.find(job, task, launch) else { return false };
        let Some(next) = body.stage(self, job, task, &flight) else { return true };
        let (j, b) = (&mut self.jobs[job], usize::from(flight.backup));
        let commits = matches!(next, Next::Commit(_) | Next::Done(true));
        let killed = if commits { j.flights[i][1 - b].take() } else { None };
        j.flights[i][b] = None;
        if let Next::Stage(end) | Next::Commit(end) = next {
            self.queue.schedule_at(end, Event::AttemptFinished { job, task, launch });
            j.flights[i][b] = Some(Flight { end, ..flight });
        } else if j.flights[i] == [None, None] {
            j.running.remove(i);
            j.flights.remove(i);
            if !commits {
                j.pending.push(task);
            }
        }
        if let Some(other) = killed {
            self.end(body, job, task, other, Ending::Killed);
        }
        let Next::Done(_) = next else { return killed.is_some() };
        self.end(body, job, task, flight, if commits { Ending::Committed } else { Ending::Failed });
        let j = &self.jobs[job];
        if j.pending.is_empty() && j.running.is_empty() {
            self.active.retain(|&a| a != job);
        }
        true
    }

    /// `flight` of `job`'s `task` is over now: its slot is idle from now,
    /// and the body is told how it ended.
    fn end(&mut self, body: &mut dyn TaskBody, job: usize, task: u32, flight: Flight, how: Ending) {
        let flight = Flight { end: self.now(), ..flight };
        self.slots[self.jobs[job].kind as usize][flight.slot].free_at = flight.end;
        body.ended(self, job, task, &flight, how);
    }

    fn preempt(&mut self, body: &mut dyn TaskBody, kind: TaskKind) {
        let now = self.now();
        let (ids, views) = views(&self.jobs, &self.active, kind);
        if ids.is_empty() {
            return;
        }
        let total = self.slots[kind as usize].len();
        let planned = self.scheduler.preemptions(now, kind, total, &views);
        for Preemption { job, task } in planned {
            let found = ids
                .get(job)
                .and_then(|&j| Some((j, self.jobs[j].running.binary_search(&task).ok()?)));
            let Some((j, i)) = found else {
                self.invalid =
                    Some(format!("preempted a task that is not running ({job}, {task})"));
                return;
            };
            let jip = &mut self.jobs[j];
            jip.running.remove(i);
            let pair = jip.flights.remove(i);
            jip.pending.push(task);
            self.owed_rerun.insert((j, task));
            self.tally.preempted += 1;
            for f in pair.into_iter().flatten() {
                self.end(body, j, task, f, Ending::Preempted);
            }
        }
    }

    /// Assign idle `kind` slots until the policy declines.
    fn assign(&mut self, body: &mut dyn TaskBody, kind: TaskKind) {
        let now = self.now();
        let k = kind as usize;
        // Slots a job was offered but has blacklisted, this round.
        let mut declined: Vec<usize> = Vec::new();
        loop {
            let (ids, views) = views(&self.jobs, &self.active, kind);
            // A node is hidden from the policy only when no job with work
            // could use it; with one job that is the job's own slot list.
            let wanting: Vec<&JobInProgress> =
                ids.iter().map(|&j| &self.jobs[j]).filter(|j| !j.pending.is_empty()).collect();
            if wanting.is_empty() {
                return;
            }
            let hidden = |node: NodeId| {
                self.dead.contains(&node) || wanting.iter().all(|j| j.blacklist.contains(&node))
            };
            let table = &self.slots[k];
            let shown: Vec<usize> = (0..table.len())
                .filter(|i| !hidden(table[*i].node) && !declined.contains(i))
                .collect();
            if !shown.iter().any(|&i| table[i].free_at <= now) {
                return;
            }
            let states: Vec<SlotState> = shown.iter().map(|&i| table[i]).collect();
            let env = ViewEnv { body: (kind == TaskKind::Map).then_some(&*body), ids: &ids };
            let Some(a) = self.scheduler.next_assignment(now, &states, &views, &env) else {
                return;
            };
            let Assignment { slot, job, task } = a;
            let valid = shown.get(slot).filter(|&&s| table[s].free_at <= now).and_then(|&s| {
                let j = *ids.get(job)?;
                Some((s, j, self.jobs[j].pending.iter().position(|&t| t == task)?))
            });
            let Some((slot, job, pi)) = valid else {
                let noun = if kind == TaskKind::Map { "map" } else { "reduce" };
                self.invalid = Some(format!("returned an invalid {noun} assignment"));
                return;
            };
            if self.jobs[job].blacklist.contains(&table[slot].node) {
                declined.push(slot);
                continue;
            }
            let jip = &mut self.jobs[job];
            jip.pending.swap_remove(pi);
            let rerun = self.owed_rerun.remove(&(job, task));
            self.tally.decisions += 1;
            self.tally.rerun += u64::from(rerun);
            if let Some(end) = body.launch(self, Launch { job, task, slot, rerun }) {
                let flight = self.schedule(kind, job, task, Flight::new(slot, now, end));
                let jip = &mut self.jobs[job];
                let at = jip.running.binary_search(&task).unwrap_or_else(|i| i);
                jip.running.insert(at, task);
                jip.flights.insert(at, [Some(flight), None]);
            }
        }
    }

    /// Hand the idle `kind` slots no job's pending work wants to the body
    /// while a task of that kind is running, and put each backup it
    /// launches beside its task's primary.
    fn back_up(&mut self, body: &mut dyn TaskBody, kind: TaskKind) {
        let jobs = || self.active.iter().map(|&j| &self.jobs[j]).filter(|j| j.kind == kind);
        if self.invalid.is_some() || jobs().all(|j| j.running.is_empty()) {
            return;
        }
        let (now, table) = (self.now(), &self.slots[kind as usize]);
        let wanted = |node| jobs().any(|j| !j.pending.is_empty() && !j.blacklist.contains(&node));
        let idle: Vec<usize> = (0..table.len())
            .filter(|&i| table[i].free_at <= now && !self.dead.contains(&table[i].node))
            .filter(|&i| !wanted(table[i].node))
            .collect();
        if idle.is_empty() {
            return;
        }
        for (job, task, flight) in body.backups(self, kind, &idle) {
            let at = self.jobs.get(job).and_then(|j| j.running.binary_search(&task).ok());
            let Some(i) = at.filter(|&i| matches!(self.jobs[job].flights[i], [Some(_), None]))
            else {
                self.invalid = Some(format!("backed up ({job}, {task}), not a lone primary"));
                return;
            };
            let flight = self.schedule(kind, job, task, Flight { backup: true, ..flight });
            self.jobs[job].flights[i][1] = Some(flight);
        }
    }
}

/// Active jobs whose current phase is `kind`, as the policy sees them, and
/// their table indices.
fn views<'a>(
    jobs: &'a [JobInProgress],
    active: &[usize],
    kind: TaskKind,
) -> (Vec<usize>, Vec<JobView<'a>>) {
    let ids: Vec<usize> = active.iter().copied().filter(|&j| jobs[j].kind == kind).collect();
    let views = ids
        .iter()
        .map(|&j| {
            let j = &jobs[j];
            JobView {
                user: &j.user,
                pool: &j.pool,
                priority: j.priority,
                submitted_at: j.arrival,
                pending: &j.pending,
                running: &j.running,
            }
        })
        .collect();
    (ids, views)
}

/// The body's locality answers, re-indexed from the policy's job slice to
/// the table. Only a map has a distance: for reduces there is no `body` to
/// ask, and every slot is 0.
struct ViewEnv<'a> {
    body: Option<&'a dyn TaskBody>,
    ids: &'a [usize],
}

impl SchedulerEnv for ViewEnv<'_> {
    fn distance(&self, node: NodeId, job: usize, task: u32) -> u32 {
        self.ids.get(job).map_or(u32::MAX, |&j| self.body.map_or(0, |b| b.distance(node, j, task)))
    }
}
