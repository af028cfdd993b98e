//! N7 — myHadoop provisioning under student behaviour (Section II-B).
//!
//! A semester evening on the shared machine: a stream of students stand up
//! dynamic Hadoop clusters. Some misconfigure paths, some exit without
//! stopping their daemons (ghosts), some know how to kill their own
//! ghosts. Two arms contrast the scheduler's 15-minute cleanup cron with a
//! machine that never cleans — the paper's explanation for why the waits
//! stayed bounded.

use std::fmt;

use hl_common::prelude::*;
use hl_provision::{Campus, Session, SessionOutcome, SessionSpec};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use super::Scale;

/// One arm's aggregate results.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmStats {
    /// Arm label.
    pub name: &'static str,
    /// Sessions attempted.
    pub sessions: usize,
    /// Sessions that got a working cluster.
    pub successes: usize,
    /// Sessions blocked by foreign ghosts until walltime.
    pub blocked: usize,
    /// Median time to a usable cluster among successes.
    pub median_cluster_up: SimDuration,
    /// Worst time to a usable cluster.
    pub max_cluster_up: SimDuration,
    /// Ghost-daemon port conflicts hit.
    pub ghost_conflicts: usize,
}

/// The experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct N7Result {
    /// With the 15-minute cleanup cron.
    pub with_cleanup: ArmStats,
    /// With cleanup effectively disabled.
    pub without_cleanup: ArmStats,
}

fn run_arm(
    name: &'static str,
    sessions: usize,
    cleanup: Option<SimDuration>,
    seed: u64,
) -> ArmStats {
    let mut campus = Campus::new(16);
    if let Some(period) = cleanup {
        campus.scheduler.cleanup_period = period;
    } else {
        campus.scheduler.cleanup_period = SimDuration::from_hours(24 * 365);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    let mut successes = 0;
    let mut blocked = 0;
    let mut up_times = Vec::new();
    for i in 0..sessions {
        let mut spec = SessionSpec::diligent(&format!("student{i:02}"));
        spec.misconfigured_paths = rng.gen_bool(0.3);
        spec.debug_time = SimDuration::from_mins(rng.gen_range(10..40));
        spec.forgets_teardown = rng.gen_bool(0.25);
        spec.kills_own_ghosts = rng.gen_bool(0.5);
        match Session::new(spec).run(&mut campus) {
            SessionOutcome::Success { cluster_up, .. } => {
                successes += 1;
                up_times.push(cluster_up);
            }
            SessionOutcome::BlockedByGhosts { .. } => blocked += 1,
            _ => {}
        }
        // A short gap between students.
        let t = campus.now + SimDuration::from_mins(rng.gen_range(1..10));
        campus.advance_to(t);
    }
    up_times.sort();
    let ghost_conflicts = campus.log.grep("Address already in use").count();
    ArmStats {
        name,
        sessions,
        successes,
        blocked,
        median_cluster_up: up_times.get(up_times.len() / 2).copied().unwrap_or(SimDuration::ZERO),
        max_cluster_up: up_times.last().copied().unwrap_or(SimDuration::ZERO),
        ghost_conflicts,
    }
}

/// Run both arms with identical student behaviour.
pub fn run(scale: Scale) -> N7Result {
    let sessions = scale.pick(24, 80);
    N7Result {
        with_cleanup: run_arm(
            "15-min cleanup cron",
            sessions,
            Some(SimDuration::from_mins(15)),
            42,
        ),
        without_cleanup: run_arm("no cleanup", sessions, None, 42),
    }
}

impl fmt::Display for N7Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "N7 — myHadoop provisioning, one evening of student sessions")?;
        writeln!(
            f,
            "  {:<20}  {:>8}  {:>9}  {:>8}  {:>12}  {:>12}  {:>7}",
            "arm", "sessions", "succeeded", "blocked", "median up", "max up", "ghosts"
        )?;
        for a in [&self.with_cleanup, &self.without_cleanup] {
            writeln!(
                f,
                "  {:<20}  {:>8}  {:>9}  {:>8}  {:>12}  {:>12}  {:>7}",
                a.name,
                a.sessions,
                a.successes,
                a.blocked,
                a.median_cluster_up.to_string(),
                a.max_cluster_up.to_string(),
                a.ghost_conflicts,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cleanup_cron_keeps_the_platform_usable() {
        let r = run(Scale::Quick);
        let with = &r.with_cleanup;
        let without = &r.without_cleanup;
        // With cleanup, (almost) everyone succeeds.
        assert!(with.successes * 10 >= with.sessions * 9, "{with:?}");
        // Without cleanup, ghosts permanently block later students.
        assert!(
            without.blocked > with.blocked,
            "no-cleanup must strand students: {} vs {}",
            without.blocked,
            with.blocked
        );
        // Ghost conflicts happen in both arms (same behaviour seed).
        assert!(with.ghost_conflicts > 0);
        // Median setup stays within the in-class lab window (paper: most
        // students set up within the lab; Table II setup row ≈ 30min–2h).
        assert!(with.median_cluster_up < SimDuration::from_hours(1), "{}", with.median_cluster_up);
        assert!(with.max_cluster_up < SimDuration::from_hours(2), "{}", with.max_cluster_up);
    }
}
