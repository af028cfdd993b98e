//! Job reports — the artifact students actually read.
//!
//! The combiner lecture's observable is "increased map task run time
//! (observed through Hadoop's JobTracker's web interface) versus reduced
//! network traffic (observed through the final MapReduce job report)";
//! both renderings live here.

use std::fmt;

use hl_common::counters::{Counters, FileSystemCounter, TaskCounter};
use hl_common::prelude::*;
use hl_common::topology::Locality;
use hl_common::units::ByteSize;

use crate::speculate::{SpecAttempt, SpecOutcome};

/// Map or reduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// A map task.
    Map,
    /// A reduce task.
    Reduce,
}

/// One task attempt's summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSummary {
    /// Task index within its kind.
    pub id: u32,
    /// Map or reduce.
    pub kind: TaskKind,
    /// Node the winning attempt ran on.
    pub node: NodeId,
    /// Start of the winning attempt (includes JVM startup).
    pub start: SimTime,
    /// End of the winning attempt.
    pub end: SimTime,
    /// Attempts consumed (1 = first try).
    pub attempts: u32,
    /// Input locality (maps only).
    pub locality: Option<Locality>,
    /// Whether a speculative duplicate won.
    pub speculative: bool,
}

impl TaskSummary {
    /// Wall (virtual) duration of the winning attempt.
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

/// The full report for one job.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// `job_0007`-style id.
    pub job_id: String,
    /// Job name.
    pub name: String,
    /// Submission time.
    pub submitted_at: SimTime,
    /// Completion time.
    pub finished_at: SimTime,
    /// Whether the job succeeded.
    pub success: bool,
    /// Aggregated counters.
    pub counters: Counters,
    /// Per-task summaries (winning attempts).
    pub tasks: Vec<TaskSummary>,
    /// Output files written (part-r-NNNNN paths).
    pub output_files: Vec<String>,
    /// Trackers this job blacklisted for repeated failed attempts (they
    /// stopped receiving the job's tasks; enough such strikes across jobs
    /// blacklists a tracker cluster-wide).
    pub blacklisted_trackers: Vec<NodeId>,
    /// Largest map-side sort-buffer high-water mark across tasks (the
    /// in-mapper-combining memory metric).
    pub peak_mapper_buffer: usize,
    /// Every speculative attempt the job launched, settled: won, lost,
    /// or killed (launched = won + lost + killed by construction).
    pub spec_attempts: Vec<SpecAttempt>,
}

impl JobReport {
    /// Total job duration.
    pub fn elapsed(&self) -> SimDuration {
        self.finished_at.since(self.submitted_at)
    }

    /// Number of map tasks.
    pub fn num_maps(&self) -> usize {
        self.tasks.iter().filter(|t| t.kind == TaskKind::Map).count()
    }

    /// Number of reduce tasks.
    pub fn num_reduces(&self) -> usize {
        self.tasks.iter().filter(|t| t.kind == TaskKind::Reduce).count()
    }

    /// Count of map tasks at each locality class.
    pub fn locality_histogram(&self) -> (usize, usize, usize) {
        let mut h = (0, 0, 0);
        for t in &self.tasks {
            match t.locality {
                Some(Locality::NodeLocal) => h.0 += 1,
                Some(Locality::RackLocal) => h.1 += 1,
                Some(Locality::OffRack) => h.2 += 1,
                None => {}
            }
        }
        h
    }

    /// Sum of map-task durations (the "map time" axis of the combiner
    /// trade-off).
    pub fn total_map_time(&self) -> SimDuration {
        self.tasks
            .iter()
            .filter(|t| t.kind == TaskKind::Map)
            .map(TaskSummary::duration)
            .fold(SimDuration::ZERO, |a, b| a + b)
    }

    /// Sum of reduce-task durations.
    fn total_reduce_time(&self) -> SimDuration {
        self.tasks
            .iter()
            .filter(|t| t.kind == TaskKind::Reduce)
            .map(TaskSummary::duration)
            .fold(SimDuration::ZERO, |a, b| a + b)
    }

    /// Shuffle traffic (the other axis of the combiner trade-off).
    pub fn shuffle_bytes(&self) -> u64 {
        self.counters.task(TaskCounter::ReduceShuffleBytes)
    }

    /// Speculative attempts that beat their primary.
    fn spec_wins(&self) -> usize {
        self.spec_attempts.iter().filter(|a| a.outcome == SpecOutcome::Won).count()
    }

    /// Render the single-line completion banner + counters, like the tail
    /// of a `hadoop jar` run.
    pub fn final_report(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{} {} {} in {}\n",
            self.job_id,
            self.name,
            if self.success { "completed successfully" } else { "FAILED" },
            self.elapsed()
        ));
        s.push_str(&self.counters.to_string());
        s
    }
}

impl fmt::Display for JobReport {
    /// The "JobTracker web UI" view: phase table, locality, per-task rows.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== JobTracker: {} ({}) ===", self.job_id, self.name)?;
        writeln!(
            f,
            "State: {}   Started: {}   Finished: {}   Elapsed: {}",
            if self.success { "SUCCEEDED" } else { "FAILED" },
            self.submitted_at,
            self.finished_at,
            self.elapsed()
        )?;
        let (dl, rl, or) = self.locality_histogram();
        writeln!(
            f,
            "Maps: {} (data-local {}, rack-local {}, off-rack {})   Reduces: {}",
            self.num_maps(),
            dl,
            rl,
            or,
            self.num_reduces()
        )?;
        writeln!(
            f,
            "Total map time: {}   Total reduce time: {}   Shuffle: {}",
            self.total_map_time(),
            self.total_reduce_time(),
            ByteSize::display(self.shuffle_bytes())
        )?;
        writeln!(
            f,
            "HDFS read: {}   HDFS written: {}   Peak map buffer: {}",
            ByteSize::display(self.counters.fs(FileSystemCounter::HdfsBytesRead)),
            ByteSize::display(self.counters.fs(FileSystemCounter::HdfsBytesWritten)),
            ByteSize::display(self.peak_mapper_buffer as u64),
        )?;
        if !self.blacklisted_trackers.is_empty() {
            let list: Vec<String> =
                self.blacklisted_trackers.iter().map(|n| n.to_string()).collect();
            writeln!(f, "Blacklisted trackers: {}", list.join(", "))?;
        }
        if !self.spec_attempts.is_empty() {
            writeln!(
                f,
                "Speculative attempts: {} launched, {} won",
                self.spec_attempts.len(),
                self.spec_wins()
            )?;
        }
        for t in &self.tasks {
            writeln!(
                f,
                "  {}_{:05} on {}  {} -> {}  ({}){}{}",
                match t.kind {
                    TaskKind::Map => "m",
                    TaskKind::Reduce => "r",
                },
                t.id,
                t.node,
                t.start,
                t.end,
                t.duration(),
                t.locality.map(|l| format!("  [{}]", l.label())).unwrap_or_default(),
                if t.attempts > 1 { format!("  attempts={}", t.attempts) } else { String::new() },
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobReport {
        let mut counters = Counters::new();
        counters.incr_task(TaskCounter::ReduceShuffleBytes, 4096);
        counters.incr_fs(FileSystemCounter::HdfsBytesRead, 1 << 20);
        JobReport {
            job_id: "job_0001".into(),
            name: "wordcount".into(),
            submitted_at: SimTime::ZERO,
            finished_at: SimTime(90_000_000),
            success: true,
            counters,
            tasks: vec![
                TaskSummary {
                    id: 0,
                    kind: TaskKind::Map,
                    node: NodeId(0),
                    start: SimTime(0),
                    end: SimTime(10_000_000),
                    attempts: 1,
                    locality: Some(Locality::NodeLocal),
                    speculative: false,
                },
                TaskSummary {
                    id: 1,
                    kind: TaskKind::Map,
                    node: NodeId(1),
                    start: SimTime(0),
                    end: SimTime(30_000_000),
                    attempts: 2,
                    locality: Some(Locality::OffRack),
                    speculative: false,
                },
                TaskSummary {
                    id: 0,
                    kind: TaskKind::Reduce,
                    node: NodeId(2),
                    start: SimTime(30_000_000),
                    end: SimTime(90_000_000),
                    attempts: 1,
                    locality: None,
                    speculative: false,
                },
            ],
            output_files: vec!["/out/part-r-00000".into()],
            blacklisted_trackers: vec![],
            peak_mapper_buffer: 1024,
            spec_attempts: vec![],
        }
    }

    #[test]
    fn aggregates() {
        let r = sample();
        assert_eq!(r.elapsed(), SimDuration::from_secs(90));
        assert_eq!(r.num_maps(), 2);
        assert_eq!(r.num_reduces(), 1);
        assert_eq!(r.locality_histogram(), (1, 0, 1));
        assert_eq!(r.total_map_time(), SimDuration::from_secs(40));
        assert_eq!(r.total_reduce_time(), SimDuration::from_secs(60));
        assert_eq!(r.shuffle_bytes(), 4096);
    }

    #[test]
    fn web_ui_rendering() {
        let text = sample().to_string();
        assert!(text.contains("=== JobTracker: job_0001 (wordcount) ==="));
        assert!(text.contains("State: SUCCEEDED"));
        assert!(text.contains("data-local 1"));
        assert!(text.contains("m_00001 on node001"));
        assert!(text.contains("attempts=2"));
        assert!(text.contains("[Data-local]"));
        assert!(text.contains("Shuffle: 4.0 KiB"));
    }

    #[test]
    fn final_report_has_banner_and_counters() {
        let text = sample().final_report();
        assert!(text.starts_with("job_0001 wordcount completed successfully in 1m 30s"));
        assert!(text.contains("Reduce shuffle bytes=4096"));
    }
}
