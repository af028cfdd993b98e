//! The JobTracker's job-history page.
//!
//! Students watched the JobTracker web interface to compare runs (the
//! combiner lecture depends on it); the history page is its summary view:
//! every completed/failed job with timings, task counts, and aggregate
//! cluster statistics across the session.

use std::fmt;

use hl_common::counters::TaskCounter;
use hl_common::prelude::*;

use crate::report::JobReport;

/// A compact record of one finished job.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryEntry {
    /// `job_0001`-style id.
    pub job_id: String,
    /// Job name.
    pub name: String,
    /// Success flag.
    pub success: bool,
    /// Submission time.
    pub submitted_at: SimTime,
    /// Elapsed time.
    pub elapsed: SimDuration,
    /// Map task count.
    pub maps: usize,
    /// Reduce task count.
    pub reduces: usize,
    /// Shuffle bytes.
    pub shuffle_bytes: u64,
    /// Map input records.
    pub input_records: u64,
}

impl HistoryEntry {
    /// Build from a full report.
    fn from_report(report: &JobReport) -> Self {
        HistoryEntry {
            job_id: report.job_id.clone(),
            name: report.name.clone(),
            success: report.success,
            submitted_at: report.submitted_at,
            elapsed: report.elapsed(),
            maps: report.num_maps(),
            reduces: report.num_reduces(),
            shuffle_bytes: report.shuffle_bytes(),
            input_records: report.counters.task(TaskCounter::MapInputRecords),
        }
    }
}

/// Jobs the history keeps (oldest evicted first), like Hadoop's
/// retained-jobs setting.
const RETAIN: usize = 100;

/// The history: append-only, bounded at [`RETAIN`] jobs.
#[derive(Debug, Clone, Default)]
pub struct JobHistory {
    entries: Vec<HistoryEntry>,
}

impl JobHistory {
    /// Record a completed job.
    pub fn record(&mut self, report: &JobReport) {
        self.push(HistoryEntry::from_report(report));
    }

    /// Record a job that failed outright at `failed_at`: no report exists,
    /// so the entry carries no task counts or counters.
    pub fn record_failed(
        &mut self,
        job_id: &str,
        name: &str,
        submitted_at: SimTime,
        failed_at: SimTime,
    ) {
        self.push(HistoryEntry {
            job_id: job_id.to_string(),
            name: name.to_string(),
            success: false,
            submitted_at,
            elapsed: failed_at.since(submitted_at),
            maps: 0,
            reduces: 0,
            shuffle_bytes: 0,
            input_records: 0,
        });
    }

    fn push(&mut self, entry: HistoryEntry) {
        self.entries.push(entry);
        if self.entries.len() > RETAIN {
            let drop = self.entries.len() - RETAIN;
            self.entries.drain(..drop);
        }
    }

    /// All retained entries, oldest first.
    pub fn entries(&self) -> &[HistoryEntry] {
        &self.entries
    }

    /// Count of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Completed-successfully count.
    pub(crate) fn succeeded(&self) -> usize {
        self.entries.iter().filter(|e| e.success).count()
    }

    /// Total map+reduce tasks executed across retained jobs.
    pub fn total_tasks(&self) -> usize {
        self.entries.iter().map(|e| e.maps + e.reduces).sum()
    }
}

impl fmt::Display for JobHistory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Job History ({} retained, {} succeeded, {} tasks total)",
            self.len(),
            self.succeeded(),
            self.total_tasks()
        )?;
        writeln!(
            f,
            "  {:<10} {:<28} {:>9} {:>6} {:>7} {:>12} {:>12}",
            "id", "name", "state", "maps", "reduces", "elapsed", "shuffle"
        )?;
        for e in &self.entries {
            writeln!(
                f,
                "  {:<10} {:<28.28} {:>9} {:>6} {:>7} {:>12} {:>12}",
                e.job_id,
                e.name,
                if e.success { "SUCCEEDED" } else { "FAILED" },
                e.maps,
                e.reduces,
                e.elapsed.to_string(),
                hl_common::units::ByteSize::display(e.shuffle_bytes).to_string(),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{TaskKind, TaskSummary};
    use hl_common::counters::Counters;

    fn report(id: u32, name: &str, secs: u64) -> JobReport {
        let mut counters = Counters::new();
        counters.incr_task(TaskCounter::MapInputRecords, 100);
        counters.incr_task(TaskCounter::ReduceShuffleBytes, 2048);
        JobReport {
            job_id: format!("job_{id:04}"),
            name: name.to_string(),
            submitted_at: SimTime::ZERO,
            finished_at: SimTime(secs * 1_000_000),
            success: true,
            counters,
            tasks: vec![TaskSummary {
                id: 0,
                kind: TaskKind::Map,
                node: NodeId(0),
                start: SimTime::ZERO,
                end: SimTime(secs * 1_000_000),
                attempts: 1,
                locality: None,
                speculative: false,
            }],
            output_files: vec![],
            blacklisted_trackers: vec![],
            peak_mapper_buffer: 0,
            spec_attempts: vec![],
        }
    }

    #[test]
    fn records_and_aggregates() {
        let mut h = JobHistory::default();
        assert!(h.is_empty());
        h.record(&report(1, "wordcount", 10));
        h.record(&report(2, "airline", 99));
        assert_eq!(h.len(), 2);
        assert_eq!(h.succeeded(), 2);
        assert_eq!(h.total_tasks(), 2);
        assert_eq!(h.entries()[0].input_records, 100);
        assert_eq!(h.entries()[0].shuffle_bytes, 2048);
    }

    #[test]
    fn retention_evicts_oldest() {
        let mut h = JobHistory::default();
        for i in 1..=RETAIN as u32 + 2 {
            h.record(&report(i, "j", u64::from(i)));
        }
        assert_eq!(h.len(), RETAIN);
        assert_eq!(h.entries()[0].job_id, "job_0003");
        assert_eq!(h.entries()[RETAIN - 1].job_id, "job_0102");
    }

    #[test]
    fn renders_table() {
        let mut h = JobHistory::default();
        h.record(&report(7, "wordcount+combiner", 61));
        let text = h.to_string();
        assert!(text.contains("job_0007"));
        assert!(text.contains("SUCCEEDED"));
        assert!(text.contains("1m 01s"));
        assert!(text.contains("2.0 KiB"));
        // Long names are cut to the column's 28 characters — characters,
        // not bytes: byte 28 of the second name is inside its `ü`.
        h.record(&report(8, "wörter-zählen-über-alle-bücher-2014", 5));
        h.record(&report(9, "wörter-zählen-über-alle-übungen-2014", 5));
        let text = h.to_string();
        assert!(text.contains(" wörter-zählen-über-alle-büch SUCCEEDED"), "{text}");
        assert!(text.contains(" wörter-zählen-über-alle-übun SUCCEEDED"), "{text}");
    }
}
