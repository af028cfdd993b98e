//! One student's myHadoop session, step by step.
//!
//! The Fall-2013 submission script: reserve nodes → source the environment
//! → write the site configuration (the step students got wrong: "incorrect
//! paths to the Hadoop MapReduce installation directory, data nodes' local
//! directory, and log directory") → format → start daemons (bind ports —
//! where ghost daemons bite) → `dfsadmin`-style health check → load data →
//! run the example job → export output to the home directory → stop
//! daemons. Exiting without the final step orphans the daemons.

use crate::ports::well_known;
use crate::scheduler::{Priority, ReservationRequest};
use hl_common::prelude::*;

use super::campus::Campus;

/// What a student does (and gets wrong), plus the cluster shape they ask
/// for.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// User name (port-registry owner, scheduler user).
    pub user: String,
    /// Nodes requested ("changes to the Hadoop platform's physical
    /// configurations (number of nodes, ...) on the scheduler's submission
    /// script").
    pub nodes: usize,
    /// Requested walltime.
    pub walltime: SimDuration,
    /// The classic path misconfiguration: first daemon start fails, the
    /// student debugs and fixes it.
    pub misconfigured_paths: bool,
    /// Time the student needs to find and fix the path error.
    pub debug_time: SimDuration,
    /// Exits without `stop-all.sh`, orphaning the daemons.
    pub forgets_teardown: bool,
    /// Whether they know how to kill their *own* ghosts by hand (versus
    /// waiting out the cleanup cron).
    pub kills_own_ghosts: bool,
    /// Asks for myHadoop's persistent-HDFS mode (unsupported on the
    /// course machine: no file locking on the parallel store).
    pub persistent_mode: bool,
    /// Also provision HBase daemons (the paper's future work: "developing
    /// the myHadoop scripts to continue to support these new components of
    /// the Hadoop ecosystem").
    pub with_hbase: bool,
    /// "The students can also insert a sleep command into the submission
    /// script and turn the dynamic Hadoop platform into an interactive
    /// platform for the duration of the sleep command." When the sleep
    /// overruns the walltime, the scheduler kills the job script and the
    /// daemons are orphaned — instant ghosts.
    pub interactive_sleep: Option<SimDuration>,
}

impl SessionSpec {
    /// A well-behaved student with the course-standard 8-node request.
    pub fn diligent(user: &str) -> Self {
        SessionSpec {
            user: user.to_string(),
            nodes: 8,
            walltime: SimDuration::from_hours(2),
            misconfigured_paths: false,
            debug_time: SimDuration::from_mins(25),
            forgets_teardown: false,
            kills_own_ghosts: true,
            persistent_mode: false,
            with_hbase: false,
            interactive_sleep: None,
        }
    }
}

/// Where a session ended up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionOutcome {
    /// Cluster came up and the job ran; contains the time from submission
    /// to a usable cluster and to full completion.
    Success {
        /// Submission → all daemons up and healthy.
        cluster_up: SimDuration,
        /// Submission → output exported.
        total: SimDuration,
    },
    /// The scheduler never placed the reservation within the observation
    /// window.
    NeverScheduled,
    /// Ports were blocked by *someone else's* ghosts and the walltime ran
    /// out waiting.
    BlockedByGhosts {
        /// Whose ghost blocked the first conflicting port.
        ghost_owner: String,
    },
    /// Asked for the unsupported persistent mode.
    PersistentModeUnsupported,
}

/// Per-step durations of the myHadoop pipeline (course-calibrated).
#[derive(Debug, Clone)]
struct StepTimes {
    /// Environment setup + writing site configs.
    configure: SimDuration,
    /// `hadoop namenode -format`.
    format: SimDuration,
    /// Daemon start per node (staggered ssh loop).
    start_per_node: SimDuration,
    /// Health check (`dfsadmin -report` until all DataNodes report).
    health_check: SimDuration,
    /// Staging the lab dataset into HDFS.
    load_data: SimDuration,
    /// The example MapReduce job.
    run_job: SimDuration,
    /// Exporting output back to the home directory.
    export: SimDuration,
    /// `stop-all.sh`.
    teardown: SimDuration,
}

impl Default for StepTimes {
    fn default() -> Self {
        StepTimes {
            configure: SimDuration::from_mins(3),
            format: SimDuration::from_secs(30),
            start_per_node: SimDuration::from_secs(5),
            health_check: SimDuration::from_secs(45),
            load_data: SimDuration::from_mins(4),
            run_job: SimDuration::from_mins(6),
            export: SimDuration::from_mins(1),
            teardown: SimDuration::from_secs(20),
        }
    }
}

/// A runnable session.
#[derive(Debug, Clone)]
pub struct Session {
    /// The student's behaviour and request.
    spec: SessionSpec,
    /// Step cost model.
    times: StepTimes,
}

impl Session {
    /// Session with default step times.
    pub fn new(spec: SessionSpec) -> Self {
        Session { spec, times: StepTimes::default() }
    }

    /// Run the session against the shared campus, starting at
    /// `campus.now`. Advances the campus clock.
    pub fn run(&self, campus: &mut Campus) -> SessionOutcome {
        let spec = &self.spec;
        let submitted = campus.now;
        let log = |campus: &mut Campus, msg: String| {
            let now = campus.now;
            campus.log.log(now, &format!("myhadoop/{}", spec.user), msg);
        };

        if spec.persistent_mode {
            log(campus, "ERROR: persistent HDFS requires file locking; not supported here".into());
            return SessionOutcome::PersistentModeUnsupported;
        }

        // 1. Reserve nodes.
        let id = campus.scheduler.submit(
            campus.now,
            ReservationRequest {
                user: spec.user.clone(),
                nodes: spec.nodes,
                walltime: spec.walltime,
                priority: Priority::Student,
            },
        );
        // Poll the scheduler forward (1-minute ticks, up to 8 hours).
        let mut nodes: Option<Vec<NodeId>> = None;
        for _ in 0..8 * 60 {
            let t = campus.now + SimDuration::from_mins(1);
            campus.advance_to(t);
            let outcome = campus.scheduler.tick(campus.now);
            if let Some(res) = outcome.started.iter().find(|r| r.id == id) {
                nodes = Some(res.nodes.clone());
                break;
            }
            if campus.scheduler.running(id).is_some() {
                nodes = campus.scheduler.running(id).map(|r| r.nodes.clone());
                break;
            }
        }
        let Some(nodes) = nodes else {
            return SessionOutcome::NeverScheduled;
        };
        log(campus, format!("reservation started on {} node(s)", nodes.len()));
        let deadline = campus.now + spec.walltime;

        // 2. Configure (maybe wrong), 3. format.
        let mut t = campus.now + self.times.configure + self.times.format;
        if spec.misconfigured_paths {
            // The bad path only surfaces when daemons try to start.
            t += self.times.start_per_node;
            campus.advance_to(t);
            log(campus, "ERROR: could not find hadoop installation / data dir (bad path)".into());
            t += spec.debug_time + self.times.configure + self.times.format;
        }
        campus.advance_to(t);

        // 4. Start daemons: bind every node's DataNode/TaskTracker ports,
        // plus the head node's NameNode/JobTracker ports.
        let head = nodes[0];
        let mut to_bind: Vec<(NodeId, u16)> = vec![
            (head, well_known::NAMENODE_RPC),
            (head, well_known::NAMENODE_HTTP),
            (head, well_known::JOBTRACKER_RPC),
            (head, well_known::JOBTRACKER_HTTP),
        ];
        for &n in &nodes {
            to_bind.push((n, well_known::DATANODE_DATA));
            to_bind.push((n, well_known::TASKTRACKER_HTTP));
        }
        if spec.with_hbase {
            to_bind.push((head, well_known::HBASE_MASTER));
            for &n in &nodes {
                to_bind.push((n, well_known::HBASE_REGIONSERVER));
            }
        }
        let mut bound: Vec<(NodeId, u16)> = Vec::new();
        for (node, port) in to_bind {
            t = campus.now + self.times.start_per_node / nodes.len() as u64;
            campus.advance_to(t);
            loop {
                match campus.ports.bind(campus.now, node, port, &spec.user) {
                    Ok(()) => {
                        bound.push((node, port));
                        break;
                    }
                    Err(_) => {
                        let (owner, alive) = campus
                            .ports
                            .holder(node, port)
                            .map(|(o, a)| (o.to_string(), a))
                            .unwrap_or_default();
                        log(
                            campus,
                            format!("Address already in use: {node}:{port} (held by {owner})"),
                        );
                        if owner == spec.user
                            && !alive
                            && spec.kills_own_ghosts
                            && campus.ports.kill_own_ghost(node, port, &spec.user).is_ok()
                        {
                            // Killed our own orphan; retry immediately. A
                            // kill refusal (the binding changed under us)
                            // falls through to the cleanup-cron wait below.
                            log(campus, format!("killed own ghost daemon on {node}:{port}"));
                            continue;
                        }
                        // Someone else's daemon (or we don't know how):
                        // wait for the cleanup cron, unless walltime runs
                        // out first.
                        let wake = campus.next_cleanup_after(campus.now);
                        if wake >= deadline {
                            // Release what we bound; the reservation dies.
                            campus.ports.release_owner(&spec.user);
                            campus.scheduler.release(id);
                            campus.advance_to(deadline);
                            return SessionOutcome::BlockedByGhosts { ghost_owner: owner };
                        }
                        campus.advance_to(wake);
                        if campus.ports.holder(node, port).is_some() {
                            // Cron didn't clear it (live foreign daemon):
                            // hopeless within this reservation.
                            campus.ports.release_owner(&spec.user);
                            campus.scheduler.release(id);
                            return SessionOutcome::BlockedByGhosts { ghost_owner: owner };
                        }
                    }
                }
            }
        }

        // 5. Health check → cluster usable.
        let t = campus.now + self.times.health_check;
        campus.advance_to(t);
        let cluster_up = campus.now.since(submitted);
        log(campus, format!("cluster healthy after {cluster_up}"));

        // 6–8. Load data, run job, export.
        let t = campus.now + self.times.load_data + self.times.run_job + self.times.export;
        campus.advance_to(t);

        // 8.5. Optional interactive sleep ("turn the dynamic Hadoop
        // platform into an interactive platform").
        if let Some(sleep) = spec.interactive_sleep {
            let wake = campus.now + sleep;
            if wake >= deadline {
                // Walltime kills the job script mid-sleep: no teardown ran,
                // daemons orphaned on the spot.
                campus.advance_to(deadline);
                campus.ports.orphan_owner(&spec.user);
                campus.scheduler.release(id);
                log(campus, "walltime expired during interactive sleep: daemons orphaned".into());
                let total = campus.now.since(submitted);
                return SessionOutcome::Success { cluster_up, total };
            }
            campus.advance_to(wake);
            log(campus, format!("interactive session for {sleep}"));
        }

        // 9. Teardown — or not.
        if spec.forgets_teardown {
            campus.ports.orphan_owner(&spec.user);
            log(campus, "session ended WITHOUT stop-all.sh: daemons orphaned".into());
        } else {
            let t = campus.now + self.times.teardown;
            campus.advance_to(t);
            campus.ports.release_owner(&spec.user);
            log(campus, "stop-all.sh completed; ports released".into());
        }
        campus.scheduler.release(id);
        let total = campus.now.since(submitted);
        SessionOutcome::Success { cluster_up, total }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_session_succeeds_quickly() {
        let mut campus = Campus::new(16);
        let outcome = Session::new(SessionSpec::diligent("alice")).run(&mut campus);
        match outcome {
            SessionOutcome::Success { cluster_up, total } => {
                // Paper Table II: setup ~"30 minutes to 2 hours" bucket, most
                // within the in-class lab; our diligent baseline ~5-10 min.
                assert!(cluster_up < SimDuration::from_mins(15), "{cluster_up}");
                assert!(total < SimDuration::from_mins(30), "{total}");
            }
            other => panic!("{other:?}"),
        }
        assert!(campus.ports.is_empty(), "clean teardown releases everything");
    }

    #[test]
    fn misconfigured_paths_cost_debug_time() {
        let mut campus = Campus::new(16);
        let clean = Session::new(SessionSpec::diligent("a")).run(&mut campus);
        let mut spec = SessionSpec::diligent("b");
        spec.misconfigured_paths = true;
        let messy = Session::new(spec).run(&mut campus);
        let (
            SessionOutcome::Success { cluster_up: fast, .. },
            SessionOutcome::Success { cluster_up: slow, .. },
        ) = (clean, messy)
        else {
            panic!("both should succeed");
        };
        assert!(slow > fast + SimDuration::from_mins(20), "{slow} vs {fast}");
    }

    #[test]
    fn own_ghosts_can_be_killed_by_hand() {
        let mut campus = Campus::new(8);
        // Alice runs and forgets teardown.
        let mut spec = SessionSpec::diligent("alice");
        spec.forgets_teardown = true;
        Session::new(spec).run(&mut campus);
        assert!(!campus.ports.is_empty());
        // Alice comes back (same nodes — the only 8); she can kill her own
        // ghosts and still succeed without waiting for the cron.
        let spec2 = SessionSpec::diligent("alice");
        let before = campus.now;
        let outcome = Session::new(spec2).run(&mut campus);
        assert!(matches!(outcome, SessionOutcome::Success { .. }), "{outcome:?}");
        assert!(campus.log.grep("killed own ghost").count() > 0);
        let _ = before;
    }

    #[test]
    fn foreign_ghosts_force_a_cleanup_wait() {
        let mut campus = Campus::new(8);
        let mut spec = SessionSpec::diligent("alice");
        spec.forgets_teardown = true;
        Session::new(spec).run(&mut campus);
        // Bob lands on the same nodes right after; he cannot kill Alice's
        // ghosts, so he waits for the cron (≤15 min) and then proceeds.
        let submitted = campus.now;
        let outcome = Session::new(SessionSpec::diligent("bob")).run(&mut campus);
        match outcome {
            SessionOutcome::Success { cluster_up, .. } => {
                assert!(
                    cluster_up > SimDuration::from_mins(5),
                    "ghost wait must show up: {cluster_up}"
                );
            }
            other => panic!("{other:?}"),
        }
        let _ = submitted;
        assert!(campus.log.grep("Address already in use").count() > 0);
    }

    #[test]
    fn interactive_sleep_extends_the_session() {
        let mut campus = Campus::new(8);
        let mut spec = SessionSpec::diligent("alice");
        spec.interactive_sleep = Some(SimDuration::from_mins(30));
        let outcome = Session::new(spec).run(&mut campus);
        let SessionOutcome::Success { total, .. } = outcome else { panic!("{outcome:?}") };
        assert!(total > SimDuration::from_mins(30));
        assert!(campus.ports.is_empty(), "clean teardown after the sleep");
        assert!(campus.log.grep("interactive session").count() > 0);
    }

    #[test]
    fn oversleeping_walltime_orphans_daemons() {
        let mut campus = Campus::new(8);
        let mut spec = SessionSpec::diligent("alice");
        spec.walltime = SimDuration::from_mins(40);
        spec.interactive_sleep = Some(SimDuration::from_hours(3));
        let outcome = Session::new(spec).run(&mut campus);
        assert!(matches!(outcome, SessionOutcome::Success { .. }));
        assert!(!campus.ports.is_empty(), "daemons orphaned at walltime");
        assert!(campus.log.grep("walltime expired during interactive sleep").count() == 1);
    }

    #[test]
    fn hbase_provisioning_binds_the_extra_ports() {
        let mut campus = Campus::new(8);
        let mut spec = SessionSpec::diligent("alice");
        spec.forgets_teardown = true; // keep bindings visible afterwards
        spec.with_hbase = true;
        let outcome = Session::new(spec).run(&mut campus);
        assert!(matches!(outcome, SessionOutcome::Success { .. }));
        // Ghosts include the HBase master + 8 region servers.
        let master_bound =
            (0..8u32).any(|n| campus.ports.holder(NodeId(n), well_known::HBASE_MASTER).is_some());
        assert!(master_bound);
        let rs_count = (0..8u32)
            .filter(|&n| campus.ports.holder(NodeId(n), well_known::HBASE_REGIONSERVER).is_some())
            .count();
        assert_eq!(rs_count, 8);
    }

    #[test]
    fn persistent_mode_is_refused() {
        let mut campus = Campus::new(8);
        let mut spec = SessionSpec::diligent("alice");
        spec.persistent_mode = true;
        assert_eq!(Session::new(spec).run(&mut campus), SessionOutcome::PersistentModeUnsupported);
    }

    #[test]
    fn oversized_requests_never_schedule() {
        let mut campus = Campus::new(4);
        let mut spec = SessionSpec::diligent("greedy");
        spec.nodes = 64;
        assert_eq!(Session::new(spec).run(&mut campus), SessionOutcome::NeverScheduled);
    }
}
