//! # hl-mapreduce
//!
//! A from-scratch MapReduce 1.x engine over [`hl_dfs`] — the programming
//! model half of the course's two-sided design ("the programming API
//! libraries to support developing MapReduce programs and the middle
//! infrastructure to support automated large scale data management and
//! parallel execution").
//!
//! * [`api`] — the `Mapper` / `Reducer` / `Combiner` traits and emit
//!   contexts, including the side-file access path whose naive vs cached
//!   usage is the course's order-of-magnitude lesson;
//! * [`job`] — `JobConf` and the typed `Job` bundle students submit;
//! * [`split`] — block-aligned input splits with replica locations;
//! * [`sortbuf`] — the map-side collect/sort/spill buffer (combiner runs
//!   at each spill, exactly like Hadoop);
//! * [`merge`] — k-way merge of sorted runs with key grouping;
//! * [`engine`] — `MrCluster`: TaskTracker slots, the shuffle, task
//!   retries, speculative execution and virtual-time accounting — what a
//!   real task attempt does and costs;
//! * [`jobtracker`] — the one scheduling loop: a `JobInProgress` table on
//!   the cluster's `EventQueue` that admits jobs, retires attempts, and
//!   asks the policy for every assignment and preemption; real jobs
//!   (`MrCluster::run_jobs`) and the trace replay both run on it;
//! * [`scheduler`] — the pluggable `Scheduler` trait with FIFO, Fair,
//!   and Capacity policies (Hadoop's multi-tenant evolution);
//! * [`speculate`] — LATE-style speculative execution policy: progress
//!   rates over heartbeats, late-binding launch thresholds, and closed
//!   won/lost/killed accounting;
//! * [`local`] — the `LocalJobRunner` (assignment 1's "serial Java
//!   commands without any HDFS support"); it and the engine run user code
//!   through the same two task bodies (the private `task` module), so the
//!   modes cannot drift;
//! * `pool` (private) — the scoped host threads a phase's task bodies are
//!   computed on, so the loop's thread only charges for them;
//! * [`report`] — the job report and "JobTracker web UI" rendering the
//!   combiner lecture has students read.
//!
//! Real user code runs over real bytes — outputs are checked in tests —
//! while I/O, network, and JVM-startup time are charged to the virtual
//! clock of the owning [`hl_cluster`] simulation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod engine;
pub mod history;
pub mod job;
pub mod jobtracker;
pub mod local;
pub mod merge;
pub mod report;
pub mod scheduler;
pub mod sortbuf;
pub mod speculate;
pub mod split;
mod task;

pub use api::{Combiner, MapContext, Mapper, ReduceContext, Reducer};
pub use engine::MrCluster;
pub use job::{Job, JobConf};
pub use report::JobReport;
pub use scheduler::{
    scheduler_from_config, Assignment, CapacityScheduler, FairScheduler, FifoScheduler, JobView,
    PoolSpec, Preemption, QueueSpec, Scheduler, SchedulerEnv, SlotState,
};
pub use speculate::{SpecAttempt, SpecOutcome, Speculator};
pub use task::JobCode;
