//! `sched-replay`: drive the Google-trace multi-tenant arrival process
//! through the FIFO/Fair/Capacity scheduler policies with the inline
//! oracle suite (no starvation, quota conservation, preemption
//! accounting) and print a wait-time/fairness comparison table.
//!
//! ```text
//! sched-replay [--jobs N] [--tasks M] [--seed S]
//!              [--policy fifo|fair|capacity|all] [--contended]
//! ```
//!
//! `--contended` over-subscribes the slot farm (longer tasks, compressed
//! arrivals, 1 s preemption timeout) so the policies actually diverge.
//! Exit 0 on a clean run, 1 on oracle violations, 2 on bad arguments.
//! `cargo test` pins every column of this table, and that a second run
//! repeats it, in `tests/golden/replay_hashes.txt`: `--jobs 120 --tasks 6`
//! in tier-1, the default 600 x 8 in the ignored arm the nightly runs.

#![forbid(unsafe_code)]

use hl_datagen::google_trace::GoogleTraceGen;
use hl_workloads::replay::{load_trace, replay, ReplayOutcome, ReplayPolicy, ReplaySetup};

fn usage() -> ! {
    eprintln!(
        "usage: sched-replay [--jobs N] [--tasks M] [--seed S] \
         [--policy fifo|fair|capacity|all] [--contended]"
    );
    std::process::exit(2);
}

fn main() {
    let mut jobs_n: u64 = 600;
    let mut tasks_m: u32 = 8;
    let mut seed: u64 = 42;
    let mut policies = vec![ReplayPolicy::Fifo, ReplayPolicy::Fair, ReplayPolicy::Capacity];
    let mut contended = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let next = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--jobs" => jobs_n = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--tasks" => tasks_m = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--policy" => {
                let p = next(&mut i);
                policies = match p.as_str() {
                    "all" => {
                        vec![ReplayPolicy::Fifo, ReplayPolicy::Fair, ReplayPolicy::Capacity]
                    }
                    other => vec![ReplayPolicy::parse(other).unwrap_or_else(|| usage())],
                };
            }
            "--contended" => contended = true,
            _ => usage(),
        }
        i += 1;
    }

    let setup = if contended { ReplaySetup::contended() } else { ReplaySetup::default() };
    let (log, truth) = GoogleTraceGen::new(seed).with_jobs(jobs_n, tasks_m).generate();
    let jobs = load_trace(&log);
    println!(
        "replaying {} jobs / {} users (seed {seed}, {}) on {}x{} slots",
        jobs.len(),
        jobs.iter().map(|j| j.user.as_str()).collect::<std::collections::BTreeSet<_>>().len(),
        if contended { "contended" } else { "uncontended" },
        setup.nodes,
        setup.slots_per_node,
    );

    let mut failed = false;
    println!(
        "{:<10} {:>10} {:>12} {:>12} {:>10} {:>8}  hash",
        "policy", "decisions", "mean-wait", "p99-wait", "makespan", "preempt"
    );
    for policy in policies {
        let out = replay(&jobs, policy, &setup);
        report(&out);
        if !out.violations.is_empty() {
            for v in &out.violations {
                eprintln!("VIOLATION [{}]: {v}", out.policy);
            }
            failed = true;
        }
        if let (Some((worst, _)), Some((truth_worst, n))) =
            (out.worst_replayed_job(), truth.worst_job())
        {
            if worst != truth_worst {
                eprintln!(
                    "VIOLATION [{}]: worst replayed job {worst} != trace truth {truth_worst} ({n} resubmissions)",
                    out.policy
                );
                failed = true;
            }
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}

fn report(out: &ReplayOutcome) {
    println!(
        "{:<10} {:>10} {:>11}ms {:>11}ms {:>9}s {:>8}  {:016x}",
        out.policy,
        out.decisions,
        out.mean_wait.0 / 1000,
        out.p99_wait.0 / 1000,
        out.makespan.0 / 1_000_000,
        out.policy_preemptions,
        out.assignment_hash,
    );
}
