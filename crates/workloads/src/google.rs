//! The Fall-2012 big-data question: which job resubmitted the most tasks?
//!
//! "The second assignment asked the students to analyze the 171GB of a
//! Google Data Center's system log and find the computing job with largest
//! number of task resubmissions." A resubmission is a SUBMIT event for a
//! task that already had one, so the reducer must count submits *per task
//! within each job* before summing — a grouping-inside-the-group pattern
//! one step beyond WordCount.

use std::collections::BTreeMap;

use hl_datagen::google_trace::{event, parse_event};
use hl_mapreduce::api::{MapContext, Mapper, ReduceContext, Reducer};
use hl_mapreduce::job::{Job, JobConf};

/// Per-record map CPU for these jobs: splitting a CSV/`::` row, boxing
/// fields, and hash lookups cost a 2013 JVM ~10 µs per record.
pub const JAVA_PARSE_CPU: hl_common::SimDuration = hl_common::SimDuration::from_micros(10);

/// Emits `(job_id, task_index)` for every SUBMIT event.
pub struct SubmitEventMapper;

impl Mapper for SubmitEventMapper {
    type KOut = u64;
    type VOut = u32;
    fn map(&mut self, _offset: u64, line: &str, ctx: &mut MapContext<u64, u32>) {
        match parse_event(line) {
            Some((job, task, ev)) if ev == event::SUBMIT => ctx.emit(job, task),
            Some(_) => {}
            None => ctx.incr_counter("Trace", "malformed rows", 1),
        }
    }
}

/// Per-job reducer: counts submits per task, sums the excess, tracks the
/// global worst job; emits `job \t resubmissions` in `cleanup`. Run with
/// `reduces(1)`.
#[derive(Default)]
pub struct WorstJobReducer {
    worst: Option<(u64, u64)>,
}

impl Reducer for WorstJobReducer {
    type KIn = u64;
    type VIn = u32;

    fn reduce(&mut self, job: u64, tasks: Vec<u32>, _ctx: &mut ReduceContext) {
        let mut submits_per_task: BTreeMap<u32, u64> = BTreeMap::new();
        for t in tasks {
            *submits_per_task.entry(t).or_default() += 1;
        }
        let resubmissions: u64 = submits_per_task.values().map(|&n| n - 1).sum();
        let better = match self.worst {
            None => true,
            Some((j, n)) => resubmissions > n || (resubmissions == n && job < j),
        };
        if better {
            self.worst = Some((job, resubmissions));
        }
    }

    fn cleanup(&mut self, ctx: &mut ReduceContext) {
        if let Some((job, n)) = self.worst.take() {
            ctx.emit(job, n);
        }
    }
}

/// The assignment job: single worst offender.
pub fn worst_job(
    input: &str,
    output: &str,
) -> Job<SubmitEventMapper, WorstJobReducer, hl_mapreduce::api::NoCombiner<u64, u32>> {
    Job::new(
        JobConf::new("google-trace-worst-job")
            .map_cpu_per_record(JAVA_PARSE_CPU)
            .input(input)
            .output(output)
            .reduces(1),
        || SubmitEventMapper,
        WorstJobReducer::default,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_datagen::google_trace::GoogleTraceGen;
    use hl_mapreduce::api::SideFiles;
    use hl_mapreduce::local::LocalRunner;

    #[test]
    fn worst_job_matches_truth() {
        let (log, truth) = GoogleTraceGen::new(23).with_jobs(300, 25).generate();
        let report = LocalRunner::serial()
            .run(
                &worst_job("/i", "/o"),
                &[("events.csv".to_string(), log.into_bytes())],
                &SideFiles::new(),
            )
            .unwrap();
        assert_eq!(report.output.len(), 1);
        let (job, n) = report.output[0].split_once('\t').unwrap();
        let (tj, tn) = truth.worst_job().unwrap();
        assert_eq!(job.parse::<u64>().unwrap(), tj);
        assert_eq!(n.parse::<u64>().unwrap(), tn);
    }

    #[test]
    fn malformed_rows_are_counted() {
        let report = LocalRunner::serial()
            .run(
                &worst_job("/i", "/o"),
                &[("bad.csv".to_string(), b"this,is,not,an,event\ngarbage\n".to_vec())],
                &SideFiles::new(),
            )
            .unwrap();
        assert!(report.output.is_empty());
        assert_eq!(report.counters.get("Trace", "malformed rows"), 2);
    }
}
