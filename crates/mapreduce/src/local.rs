//! The `LocalJobRunner` — assignment 1's execution mode.
//!
//! "The first assignment has the students run their final jars using only
//! serial Java commands without any HDFS support": the same mapper,
//! combiner, and reducer types run over local files, one task after
//! another on one thread, with virtual time charged against one node's
//! disk and CPU. The task bodies are the cluster engine's own (the
//! crate-private `task` module), so the two modes cannot drift apart; only
//! the byte source, the file-system counters and the pricing live here.

use hl_common::counters::{Counters, FileSystemCounter};
use hl_common::prelude::*;

use crate::api::{Combiner, Mapper, Reducer, SideFiles};
use crate::job::Job;
use crate::sortbuf::SortedRun;
use crate::task::JobCode;

/// Result of a local run.
#[derive(Debug, Clone)]
pub struct LocalReport {
    /// Output lines (`key \t value`), reduce order.
    pub output: Vec<String>,
    /// Aggregated counters.
    pub counters: Counters,
    /// Modeled (virtual) runtime on the student's machine: the sum of the
    /// task times. This is the only clock the local runner reads: timings
    /// are a pure function of the input and the cost model, so runs replay
    /// bit-identically under the simulator (invariant R2 — no wall-clock
    /// reads in sim-facing code).
    pub virtual_time: SimDuration,
}

/// The local runner: one machine, one task at a time.
#[derive(Debug, Clone)]
pub struct LocalRunner {
    /// Disk bandwidth of the local machine, bytes/s.
    pub disk_bw: u64,
    /// Split size for carving local inputs into map tasks.
    pub split_bytes: usize,
}

impl Default for LocalRunner {
    fn default() -> Self {
        Self::serial()
    }
}

impl LocalRunner {
    /// Laptop-class disk (~100 MiB/s), 8 MiB splits.
    pub fn serial() -> Self {
        LocalRunner { disk_bw: 100 * 1024 * 1024, split_bytes: 8 * 1024 * 1024 }
    }

    /// Run `job` over in-memory input files `(name, bytes)`. All user code
    /// executes for real; `virtual_time` models the same work on one
    /// 2013-era machine.
    pub fn run<M, R, C>(
        &self,
        job: &Job<M, R, C>,
        inputs: &[(String, Vec<u8>)],
        side: &SideFiles,
    ) -> Result<LocalReport>
    where
        M: Mapper,
        R: Reducer<KIn = M::KOut, VIn = M::VOut>,
        C: Combiner<K = M::KOut, V = M::VOut>,
    {
        if self.split_bytes == 0 {
            return Err(HlError::Config("LocalRunner.split_bytes must be positive".into()));
        }
        let num_reduces = job.conf.num_reduces;

        // Carve inputs into `(file bytes, offset, length)` splits.
        let mut splits: Vec<(&[u8], usize, usize)> = Vec::new();
        for (_, bytes) in inputs {
            let mut off = 0;
            while off < bytes.len() {
                let len = self.split_bytes.min(bytes.len() - off);
                splits.push((bytes, off, len));
                off += len;
            }
        }

        let mut counters = Counters::new();
        let mut virtual_time = SimDuration::ZERO;

        // Map phase.
        let mut map_outputs = Vec::with_capacity(splits.len());
        for &(file, off, len) in &splits {
            let prev_byte = off.checked_sub(1).map(|i| file[i]);
            let done = job.map_task(side, self.disk_bw, prev_byte, &file[off..], len, off as u64);
            counters.merge(&done.counters);
            counters.incr_fs(FileSystemCounter::FileBytesRead, len as u64);

            // Virtual cost: disk read + declared CPU + explicit charges.
            virtual_time += SimDuration::for_transfer(len as u64, self.disk_bw)
                + job.conf.map_cpu_per_byte * len as u64
                + job.conf.map_cpu_per_record * done.records
                + done.extra_time;
            map_outputs.push(done.output);
        }

        // Reduce phase, in partition order. Each partition is consumed
        // exactly once (the local runner has no task retries), so move the
        // runs out instead of cloning.
        let mut output = Vec::new();
        for r in 0..num_reduces {
            let runs: Vec<SortedRun> =
                map_outputs.iter_mut().map(|o| o.take_partition(r)).collect();
            let done = job.reduce_task(side, self.disk_bw, &runs, Some(&mut output))?;
            counters.merge(&done.counters);
            virtual_time += job.conf.reduce_cpu_per_record * done.records + done.extra_time;
        }

        Ok(LocalReport { output, counters, virtual_time })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{MapContext, ReduceContext};
    use crate::job::JobConf;
    use hl_common::counters::TaskCounter;
    use std::borrow::Borrow;

    struct WcMap;
    impl Mapper for WcMap {
        type KOut = String;
        type VOut = u64;
        fn map(&mut self, _o: u64, line: &str, ctx: &mut MapContext<String, u64>) {
            for w in line.split_whitespace() {
                ctx.emit(w.to_string(), 1);
            }
        }
    }
    struct WcReduce;
    impl Reducer for WcReduce {
        type KIn = String;
        type VIn = u64;
        fn reduce(
            &mut self,
            key: impl Borrow<String>,
            values: impl IntoIterator<Item = u64>,
            ctx: &mut ReduceContext,
        ) {
            ctx.emit(key.borrow(), values.into_iter().sum::<u64>());
        }
    }

    fn text(words: usize) -> String {
        let vocab = ["alpha", "beta", "gamma"];
        let mut s = String::new();
        for i in 0..words {
            s.push_str(vocab[i % 3]);
            s.push(if i % 7 == 6 { '\n' } else { ' ' });
        }
        s
    }

    fn conf() -> JobConf {
        JobConf::new("wc-local").input("ignored").output("ignored-out")
    }

    #[test]
    fn serial_run_counts_words() {
        let data = text(3000);
        let job = Job::new(conf(), || WcMap, || WcReduce);
        let report = LocalRunner::serial()
            .run(&job, &[("in.txt".into(), data.clone().into_bytes())], &SideFiles::new())
            .unwrap();
        let mut counts = std::collections::BTreeMap::new();
        for line in &report.output {
            let (k, v) = line.split_once('\t').unwrap();
            counts.insert(k.to_string(), v.parse::<u64>().unwrap());
        }
        assert_eq!(counts["alpha"], 1000);
        assert_eq!(counts["beta"], 1000);
        assert_eq!(counts["gamma"], 1000);
        assert!(report.virtual_time > SimDuration::ZERO);
    }

    #[test]
    fn multiple_input_files() {
        let job = Job::new(conf(), || WcMap, || WcReduce);
        let report = LocalRunner::serial()
            .run(
                &job,
                &[("a.txt".into(), b"x y\n".to_vec()), ("b.txt".into(), b"y z\n".to_vec())],
                &SideFiles::new(),
            )
            .unwrap();
        let mut sorted = report.output.clone();
        sorted.sort();
        assert_eq!(sorted, vec!["x\t1", "y\t2", "z\t1"]);
        assert_eq!(report.counters.task(TaskCounter::MapInputRecords), 2);
    }

    #[test]
    fn empty_input_runs_cleanly() {
        let job = Job::new(conf(), || WcMap, || WcReduce);
        let report = LocalRunner::serial().run(&job, &[], &SideFiles::new()).unwrap();
        assert!(report.output.is_empty());
    }

    #[test]
    fn zero_split_bytes_is_a_config_error() {
        let job = Job::new(conf(), || WcMap, || WcReduce);
        let runner = LocalRunner { split_bytes: 0, ..LocalRunner::serial() };
        let err = runner.run(&job, &[("in.txt".into(), b"x y\n".to_vec())], &SideFiles::new());
        assert!(matches!(err, Err(HlError::Config(_))), "{err:?}");
    }
}
