//! Property suite for the pluggable `Scheduler` policies.
//!
//! Three families of properties pin down the scheduler refactor:
//!
//! 1. **FIFO equivalence** — the extracted [`FifoScheduler`] makes
//!    byte-identical decisions to the pre-refactor inline JobTracker
//!    logic. This file keeps that original algorithm as a reference
//!    model (earliest-free slot via first-minimum `min_by_key`, then the
//!    pending task with the smallest `(locality distance, id)`) and
//!    drains both over random slot farms and adversarial distance
//!    tables.
//! 2. **Fair determinism** — the Fair policy's deficit ordering is a
//!    total deterministic order: two fresh schedulers drain a random
//!    multi-tenant job set in exactly the same sequence, and every
//!    pending task is eventually placed (the ordering never wedges).
//! 3. **Capacity bounds** — under saturation (tasks start and never
//!    finish) no leaf queue, parent queue, or single user ever exceeds
//!    its maximum-capacity slot bound, recomputed here independently
//!    from the configured percentages.
//! 4. **The loop keeps the contract** — a recording policy driven by the
//!    real JobTracker loop is always handed every slot of the kind and the
//!    true `running` lists.

use std::collections::BTreeMap;

use hl_common::prelude::*;
use hl_mapreduce::{
    CapacityScheduler, FairScheduler, FifoScheduler, JobView, QueueSpec, Scheduler, SchedulerEnv,
    SlotState,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Shared scaffolding
// ---------------------------------------------------------------------------

/// Owned job state the drains mutate; `view()` borrows it as the
/// scheduler's `JobView`.
#[derive(Debug, Clone)]
struct OwnedJob {
    user: String,
    pool: String,
    priority: u32,
    submitted_at: SimTime,
    pending: Vec<u32>,
    running: Vec<u32>,
}

impl OwnedJob {
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

/// Deterministic pseudo-random locality table: distance is a pure hash of
/// `(seed, node, task)`, with an occasional `u32::MAX` ("no replica
/// anywhere near this node") thrown in.
struct SeededEnv {
    seed: u64,
}

impl SchedulerEnv for SeededEnv {
    fn distance(&self, node: NodeId, _job: usize, task: u32) -> u32 {
        let h = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(node.0).wrapping_mul(0x85EB_CA6B))
            .wrapping_add(u64::from(task).wrapping_mul(0xC2B2_AE35));
        match h % 7 {
            6 => u32::MAX,
            d => d as u32,
        }
    }
}

fn slots_from(raw: &[(u32, u64)]) -> Vec<SlotState> {
    raw.iter().map(|&(n, f)| SlotState { node: NodeId(n), free_at: SimTime(f) }).collect()
}

// ---------------------------------------------------------------------------
// 1. FIFO-via-trait is byte-identical to the pre-refactor inline logic
// ---------------------------------------------------------------------------

/// The JobTracker's original inline pick, kept verbatim as a reference
/// model: `min_by_key` over `(free_at, node)` (Rust's `min_by_key`
/// returns the *first* minimum, so slot index is the implicit
/// tie-breaker), then the pending task minimizing `(distance, id)`.
fn reference_pick(
    slots: &[SlotState],
    pending: &[u32],
    env: &dyn SchedulerEnv,
) -> Option<(usize, u32)> {
    let (slot, st) = slots.iter().enumerate().min_by_key(|(_, s)| (s.free_at, s.node.0))?;
    let task = pending.iter().copied().min_by_key(|&t| (env.distance(st.node, 0, t), t))?;
    Some((slot, task))
}

/// Drain one single-tenant job to empty through `pick`, applying the
/// engine's slot bookkeeping (task occupies its slot for `durs[task]`).
fn drain_single<F>(
    mut slots: Vec<SlotState>,
    num_tasks: u32,
    durs: &[u64],
    mut pick: F,
) -> Vec<(usize, u32)>
where
    F: FnMut(&[SlotState], &[u32]) -> Option<(usize, u32)>,
{
    let mut pending: Vec<u32> = (0..num_tasks).collect();
    let mut log = Vec::new();
    while !pending.is_empty() {
        let Some((slot, task)) = pick(&slots, &pending) else { break };
        log.push((slot, task));
        let pos = pending.iter().position(|&t| t == task).expect("picked a non-pending task");
        pending.swap_remove(pos);
        slots[slot].free_at += SimDuration::from_micros(durs[task as usize]);
    }
    log
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn fifo_scheduler_matches_prerefactor_inline_logic(
        raw_slots in proptest::collection::vec((0u32..6, 0u64..1_000), 1..12),
        durs in proptest::collection::vec(1u64..500, 1..40),
        seed in any::<u64>(),
    ) {
        let num_tasks = durs.len() as u32;
        let env = SeededEnv { seed };

        let reference = drain_single(
            slots_from(&raw_slots),
            num_tasks,
            &durs,
            |slots, pending| reference_pick(slots, pending, &env),
        );

        let mut sched = FifoScheduler;
        let mut job = OwnedJob {
            user: "student".into(),
            pool: "default".into(),
            priority: 0,
            submitted_at: SimTime::ZERO,
            pending: Vec::new(),
            running: Vec::new(),
        };
        let traited = drain_single(
            slots_from(&raw_slots),
            num_tasks,
            &durs,
            |slots, pending| {
                job.pending = pending.to_vec();
                let views = [job.view()];
                sched
                    .next_assignment(SimTime::ZERO, slots, &views, &env)
                    .map(|a| (a.slot, a.task))
            },
        );

        prop_assert_eq!(reference.len(), num_tasks as usize);
        prop_assert_eq!(&traited, &reference);
    }
}

// ---------------------------------------------------------------------------
// 2. Fair deficit ordering is a total deterministic order
// ---------------------------------------------------------------------------

/// One generated tenant job: `(user/pool byte, priority, submitted_at µs,
/// pending count, already-running count)`. User and pool share one byte
/// (low/high nibble) because the vendored strategy tuples cap at arity 5.
type RawJob = (u8, u32, u64, u8, u8);

fn raw_job() -> impl Strategy<Value = RawJob> {
    (0u8..=255, 0u32..3, 0u64..100, 0u8..10, 0u8..4)
}

fn fair_jobs(raw: &[RawJob]) -> Vec<OwnedJob> {
    raw.iter()
        .map(|&(tenant, priority, at, npend, nrun)| OwnedJob {
            user: format!("user-{}", tenant % 5),
            pool: format!("pool-{}", (tenant >> 4) % 4),
            priority: priority % 3,
            submitted_at: SimTime(at),
            pending: (0..u32::from(npend)).collect(),
            // Running ids live in a disjoint range so a preasigned task
            // can never collide with a pending one.
            running: (1_000..1_000 + u32::from(nrun)).collect(),
        })
        .collect()
}

/// Assign until the policy returns `None`, moving each placed task from
/// `pending` to `running` (saturation: nothing ever finishes).
fn drain_to_saturation(
    sched: &mut dyn Scheduler,
    jobs: &mut [OwnedJob],
    num_slots: usize,
    env: &dyn SchedulerEnv,
) -> Vec<(usize, usize, u32)> {
    let slots: Vec<SlotState> = (0..num_slots)
        .map(|i| SlotState { node: NodeId(i as u32 % 4), free_at: SimTime::ZERO })
        .collect();
    let mut log = Vec::new();
    loop {
        let views: Vec<JobView<'_>> = jobs.iter().map(|j| j.view()).collect();
        let Some(a) = sched.next_assignment(SimTime::ZERO, &slots, &views, env) else { break };
        drop(views);
        log.push((a.slot, a.job, a.task));
        let job = &mut jobs[a.job];
        let pos = job.pending.iter().position(|&t| t == a.task).expect("non-pending task");
        job.pending.swap_remove(pos);
        job.running.push(a.task);
        assert!(log.len() <= 10_000, "drain did not terminate");
    }
    log
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn fair_ordering_is_total_and_deterministic(
        raw in proptest::collection::vec(raw_job(), 1..8),
        specs in proptest::collection::vec((1u64..4, 0u64..4), 4..5),
    ) {
        let build = || {
            let mut s = FairScheduler::new(SimDuration::from_secs(30));
            for (i, &(w, ms)) in specs.iter().enumerate() {
                s = s.pool(format!("pool-{i}"), w, ms);
            }
            s
        };
        let total_pending: usize = fair_jobs(&raw).iter().map(|j| j.pending.len()).sum();

        let mut jobs_a = fair_jobs(&raw);
        let mut sched_a = build();
        let log_a = drain_to_saturation(&mut sched_a, &mut jobs_a, 6, &SeededEnv { seed: 7 });

        let mut jobs_b = fair_jobs(&raw);
        let mut sched_b = build();
        let log_b = drain_to_saturation(&mut sched_b, &mut jobs_b, 6, &SeededEnv { seed: 7 });

        // Same inputs, same total order — and the order is total: with no
        // capacity ceilings the Fair policy places every pending task.
        prop_assert_eq!(&log_a, &log_b);
        prop_assert_eq!(log_a.len(), total_pending);
    }
}

// ---------------------------------------------------------------------------
// 3. Capacity queues never exceed their maximums
// ---------------------------------------------------------------------------

/// Independent re-derivation of the scheduler's absolute maximum slot
/// bound for a queue: percentages compose down the parent chain in basis
/// points, floored at one slot so tiny queues cannot deadlock.
fn max_slots(total: usize, chain_max_pcts: &[u64]) -> u64 {
    let mut cap_bp = 10_000u64;
    for &pct in chain_max_pcts {
        cap_bp = cap_bp * pct / 100;
    }
    (total as u64 * cap_bp / 10_000).max(1)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn capacity_queues_never_exceed_maximums(
        // Two root queues; their leaf children's (capacity, max, user) pcts.
        root_max in proptest::collection::vec(30u64..=100, 2..3),
        leaf in proptest::collection::vec((10u64..=60, 20u64..=100, 10u64..=100), 4..5),
        raw in proptest::collection::vec(raw_job(), 1..10),
        num_slots in 2usize..16,
    ) {
        let mut sched = CapacityScheduler::new()
            .queue("batch", QueueSpec {
                capacity_pct: 60, max_capacity_pct: root_max[0], user_limit_pct: 100,
                parent: None,
            })
            .queue("adhoc", QueueSpec {
                capacity_pct: 40, max_capacity_pct: root_max[1], user_limit_pct: 100,
                parent: None,
            });
        for (i, &(cap, max, user)) in leaf.iter().enumerate() {
            let parent = if i.is_multiple_of(2) { "batch" } else { "adhoc" };
            sched = sched.queue(format!("q{i}"), QueueSpec {
                capacity_pct: cap,
                max_capacity_pct: max,
                user_limit_pct: user,
                parent: Some(parent.to_string()),
            });
        }

        // Route jobs across the four leaves plus one unknown pool (which
        // the scheduler must send to `default`); start with nothing
        // running so the drain alone is responsible for every placement.
        let mut jobs: Vec<OwnedJob> = fair_jobs(&raw);
        for (i, j) in jobs.iter_mut().enumerate() {
            j.pool = if i % 5 == 4 { "mystery".into() } else { format!("q{}", i % 5) };
            j.running.clear();
        }

        let log =
            drain_to_saturation(&mut sched, &mut jobs, num_slots, &SeededEnv { seed: 11 });

        // Tally final running tasks per leaf queue, per root, per user.
        let route = |pool: &str| -> String {
            if pool.starts_with('q') { pool.to_string() } else { "default".to_string() }
        };
        let mut per_queue: BTreeMap<String, u64> = BTreeMap::new();
        let mut per_user: BTreeMap<(String, String), u64> = BTreeMap::new();
        for j in &jobs {
            let q = route(&j.pool);
            *per_queue.entry(q.clone()).or_default() += j.running.len() as u64;
            *per_user.entry((q, j.user.clone())).or_default() += j.running.len() as u64;
        }

        // Clamping mirrors `QueueSpec::clamped`: max ≥ capacity, at both
        // the leaf and its root (batch guarantees 60%, adhoc 40%).
        let leaf_chain = |i: usize| -> Vec<u64> {
            let (cap, max, _) = leaf[i];
            let root_cap = if i.is_multiple_of(2) { 60 } else { 40 };
            vec![max.max(cap), root_max[i % 2].max(root_cap)]
        };
        for (i, &(_, _, user_pct)) in leaf.iter().enumerate().take(4) {
            let bound = max_slots(num_slots, &leaf_chain(i));
            let used = per_queue.get(&format!("q{i}")).copied().unwrap_or(0);
            prop_assert!(
                used <= bound,
                "leaf q{} runs {} tasks, maximum is {}", i, used, bound
            );
            let user_cap = (bound * user_pct / 100).max(1);
            for ((q, user), &n) in &per_user {
                if q == &format!("q{i}") {
                    prop_assert!(
                        n <= user_cap,
                        "user {} holds {} slots in q{}, user limit is {}", user, n, i, user_cap
                    );
                }
            }
        }
        // Parents bound their descendants' aggregate.
        for (pi, parent) in ["batch", "adhoc"].iter().enumerate() {
            let root_cap = if pi == 0 { 60 } else { 40 };
            let bound = max_slots(num_slots, &[root_max[pi].max(root_cap)]);
            let used: u64 = (0..4)
                .filter(|i| i % 2 == pi)
                .map(|i| per_queue.get(&format!("q{i}")).copied().unwrap_or(0))
                .sum();
            prop_assert!(
                used <= bound,
                "root {} charges {} tasks, maximum is {}", parent, used, bound
            );
        }
        // The default queue has no ceiling below the farm itself.
        prop_assert!(log.len() <= num_slots * 100);
    }
}

// ---------------------------------------------------------------------------
// 4. What the JobTracker loop hands a policy
// ---------------------------------------------------------------------------

/// FIFO, noting for every call how many slots it was shown, whether any of
/// them was busy, and whether any job had a task in flight.
struct Recording(std::sync::Arc<std::sync::Mutex<Vec<(usize, bool, bool)>>>);

impl Scheduler for Recording {
    fn name(&self) -> &'static str {
        "recording"
    }
    fn next_assignment(
        &mut self,
        now: SimTime,
        slots: &[SlotState],
        jobs: &[JobView<'_>],
        env: &dyn SchedulerEnv,
    ) -> Option<hl_mapreduce::Assignment> {
        let busy = slots.iter().any(|s| s.free_at > now);
        let running = jobs.iter().any(|j| !j.running.is_empty());
        self.0.lock().expect("recorder lock").push((slots.len(), busy, running));
        FifoScheduler.next_assignment(now, slots, jobs, env)
    }
}

struct Words;
impl hl_mapreduce::Mapper for Words {
    type KOut = String;
    type VOut = u64;
    fn map(&mut self, _o: u64, line: &str, ctx: &mut hl_mapreduce::MapContext<String, u64>) {
        for w in line.split_whitespace() {
            ctx.emit(w.to_string(), 1);
        }
    }
}
struct Sum;
impl hl_mapreduce::Reducer for Sum {
    type KIn = String;
    type VIn = u64;
    fn reduce(&mut self, key: String, values: Vec<u64>, ctx: &mut hl_mapreduce::ReduceContext) {
        ctx.emit(key, values.into_iter().sum::<u64>());
    }
}

#[test]
fn the_loop_hands_the_policy_every_slot_and_the_true_running_lists() {
    use hl_common::config::keys;
    let (nodes, map_slots, reduce_slots) = (4usize, 2usize, 1usize);
    let mut config = Configuration::with_defaults();
    config.set(keys::DFS_BLOCK_SIZE, 4096u64);
    config.set(keys::MAPRED_MAP_SLOTS, map_slots);
    config.set(keys::MAPRED_REDUCE_SLOTS, reduce_slots);
    let spec = hl_cluster::node::ClusterSpec::course_hadoop(nodes);
    let mut cluster = hl_mapreduce::MrCluster::new(spec, config).unwrap();
    cluster.dfs.namenode.mkdirs("/in").unwrap();
    let text = "the quick brown fox jumps over the lazy dog\n".repeat(1500);
    cluster.put_input("/in/t.txt", text.as_bytes()).unwrap();

    let calls = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    cluster.set_scheduler(Box::new(Recording(calls.clone())));
    // No retries and no backups: a busy slot is an attempt in flight.
    let job = |out: &str| {
        let conf = hl_mapreduce::JobConf::new(out).input("/in/t.txt").output(out).reduces(3);
        hl_mapreduce::Job::new(conf.speculative(false), || Words, || Sum)
    };
    let (a, b) = (job("/out/a"), job("/out/b"));
    let now = cluster.now;
    for r in cluster.run_jobs(&[(now, &a), (now + SimDuration::from_millis(500), &b)]) {
        r.unwrap();
    }

    let calls = calls.lock().unwrap();
    assert!(calls.iter().any(|&(_, busy, _)| busy), "the jobs never had to wait for a slot");
    for &(shown, busy, running) in calls.iter() {
        assert!(
            shown == nodes * map_slots || shown == nodes * reduce_slots,
            "the policy was shown {shown} slots"
        );
        assert!(!busy || running, "a slot was busy but every `running` list was empty");
    }
}
