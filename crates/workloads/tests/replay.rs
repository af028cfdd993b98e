//! Integration suite for the Google-trace scheduler replay driver.
//!
//! That a replay is the same run to run is held by
//! `tests/golden_traces.rs`, which produces every row of
//! `tests/golden/replay_hashes.txt` twice.
//!
//! * **Policy divergence** — on a contended slot farm the three policies
//!   make genuinely different decisions: pairwise-distinct assignment
//!   hashes.
//! * **EVICT fidelity** — the trace's eviction/resubmission events drive
//!   real scheduler-level requeues, exactly as many per job as the
//!   generator's ground truth records, and the most-evicted job of the
//!   replay is the trace truth's `worst_job`.
//! * **Preemption** — the Fair policy's min-share preemption actually
//!   fires on the contended setup, and its accounting balances.
//! * **Scale** — a ≥500-job / ≥100-user replay stays oracle-clean under
//!   Fair and Capacity.

use std::collections::BTreeSet;

use hl_datagen::google_trace::GoogleTraceGen;
use hl_workloads::replay::{load_trace, replay, ReplayJob, ReplayPolicy, ReplaySetup};

const ALL: [ReplayPolicy; 3] = [ReplayPolicy::Fifo, ReplayPolicy::Fair, ReplayPolicy::Capacity];

fn trace(
    seed: u64,
    jobs: u64,
    tasks: u32,
) -> (Vec<ReplayJob>, hl_datagen::google_trace::TraceTruth) {
    let (log, truth) = GoogleTraceGen::new(seed).with_jobs(jobs, tasks).generate();
    (load_trace(&log), truth)
}

#[test]
fn policies_diverge_on_a_contended_farm() {
    let (jobs, _) = trace(42, 200, 8);
    let hashes: Vec<(&'static str, u64)> = ALL
        .iter()
        .map(|&p| {
            let out = replay(&jobs, p, &ReplaySetup::contended());
            assert!(out.violations.is_empty(), "{}: {:?}", out.policy, out.violations);
            (out.policy, out.assignment_hash)
        })
        .collect();
    let distinct: BTreeSet<u64> = hashes.iter().map(|&(_, h)| h).collect();
    assert_eq!(distinct.len(), 3, "policies did not diverge: {hashes:?}");
}

#[test]
fn evictions_replay_exactly_and_the_worst_job_matches_trace_truth() {
    let (jobs, truth) = trace(9, 250, 8);
    for policy in ALL {
        let out = replay(&jobs, policy, &ReplaySetup::default());
        assert!(out.violations.is_empty(), "{policy:?}: {:?}", out.violations);
        // Every trace-scripted eviction/failure produced exactly one
        // scheduler-level requeue, job by job, regardless of policy.
        for (job, &n) in &truth.resubmissions {
            assert_eq!(
                out.trace_requeues_by_job.get(job).copied().unwrap_or(0),
                n,
                "{policy:?} job {job} trace requeues"
            );
        }
        // The assignment-1 question's answer survives the replay: the
        // most-resubmitted job of the live run is the truth's worst job.
        assert_eq!(
            out.worst_replayed_job().map(|(j, _)| j),
            truth.worst_job().map(|(j, _)| j),
            "{policy:?} worst job"
        );
    }
}

#[test]
fn fair_preemption_fires_and_balances_under_contention() {
    let (jobs, _) = trace(42, 600, 8);
    let out = replay(&jobs, ReplayPolicy::Fair, &ReplaySetup::contended());
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    assert!(
        out.policy_preemptions >= 1,
        "contended fair replay never preempted (timeout too long or pools never starve)"
    );
    // FIFO and Capacity never preempt — the counter stays at zero.
    for policy in [ReplayPolicy::Fifo, ReplayPolicy::Capacity] {
        let out = replay(&jobs, policy, &ReplaySetup::contended());
        assert_eq!(out.policy_preemptions, 0, "{policy:?} preempted");
    }
}

#[test]
fn replay_scales_to_hundreds_of_jobs_and_users() {
    let (jobs, _) = trace(42, 500, 6);
    let users: BTreeSet<&str> = jobs.iter().map(|j| j.user.as_str()).collect();
    assert!(jobs.len() >= 500, "only {} jobs", jobs.len());
    assert!(users.len() >= 100, "only {} users", users.len());
    for policy in [ReplayPolicy::Fair, ReplayPolicy::Capacity] {
        let out = replay(&jobs, policy, &ReplaySetup::default());
        assert!(out.violations.is_empty(), "{policy:?}: {:?}", out.violations);
        assert_eq!(out.jobs, jobs.len());
        assert!(out.users >= 100);
        assert!(out.decisions > 0 && out.makespan.0 > 0);
    }
}
