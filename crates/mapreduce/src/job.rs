//! Job configuration and the typed job bundle.
//!
//! `JobConf` mirrors the knobs the course actually turned: input/output
//! paths, the number of reduces, whether a combiner is attached, whether
//! speculative execution runs, retry limits — plus the cost-model
//! coefficients that let the virtual clock reflect a job's real compute
//! weight, and fault-injection switches used by the Version-1 meltdown
//! drill.

use std::sync::Arc;

use hl_common::prelude::*;

use crate::api::{Combiner, Mapper, PartitionFn, Reducer};

/// Per-job configuration.
#[derive(Debug, Clone)]
pub struct JobConf {
    /// Job name (shows in reports: `job_0007 (wordcount)`).
    pub name: String,
    /// DFS input paths (files; directories expand to their files).
    pub input_paths: Vec<String>,
    /// DFS output directory (created by the job; must not exist).
    pub output_path: String,
    /// Number of reduce tasks.
    pub num_reduces: usize,
    /// Map-side sort buffer size in bytes (`io.sort.mb`).
    pub sort_buffer_bytes: usize,
    /// Speculative execution of straggler maps (master switch: off, no
    /// task of any kind is speculated).
    pub speculative: bool,
    /// Speculative execution of straggler reduces (additionally gated on
    /// `speculative`, like Hadoop's separate map/reduce switches).
    pub speculative_reduces: bool,
    /// Cap on speculative attempts per phase, percent of the phase's
    /// tasks (floor 1).
    pub spec_cap_pct: u32,
    /// Heartbeat quantum for progress reports feeding the estimator.
    pub spec_heartbeat: SimDuration,
    /// Attempts per task before the job fails (Hadoop default 4).
    pub max_attempts: u32,
    /// Virtual CPU charge per map input byte (parsing).
    pub map_cpu_per_byte: SimDuration,
    /// Virtual CPU charge per map *call* (the map function body).
    pub map_cpu_per_record: SimDuration,
    /// Virtual CPU charge per reduce input record.
    pub reduce_cpu_per_record: SimDuration,
    /// JVM spawn cost per task attempt (Hadoop 1.x: ~1 s).
    pub task_startup: SimDuration,
    /// Fault injection: this job's tasks leak daemon heap (the Version-1
    /// students' buggy submissions).
    pub leaks_memory: bool,
    /// Fault injection: the first `n` attempts of every task fail.
    pub fail_first_attempts: u32,
    /// Submitting user (multi-tenant scheduling identity).
    pub user: String,
    /// Fair-scheduler pool / Capacity-scheduler queue this job bills to.
    pub pool: String,
    /// Scheduling priority; larger runs earlier within a policy's
    /// tie-breaks (Hadoop's `mapred.job.priority`).
    pub priority: u32,
    /// Compress map output before it hits the spill disk and the shuffle
    /// wire (`mapred.compress.map.output`). Sorted runs themselves are
    /// untouched, so job output is byte-identical either way.
    pub compress_map_output: bool,
    /// Codec for compressed map output
    /// (`mapred.output.compression.codec`).
    pub map_output_codec: hl_codec::CodecId,
}

impl JobConf {
    /// A named job with course-calibrated defaults: 100 MB sort buffer,
    /// ~80 MB/s map parse throughput, 2 µs/record map body, 1 µs/record
    /// reduce, 1 s JVM startup, speculative on, 4 attempts.
    pub fn new(name: impl Into<String>) -> Self {
        JobConf {
            name: name.into(),
            input_paths: Vec::new(),
            output_path: String::new(),
            num_reduces: 1,
            sort_buffer_bytes: 100 * 1024 * 1024,
            speculative: true,
            speculative_reduces: true,
            spec_cap_pct: 10,
            spec_heartbeat: SimDuration::from_secs(3),
            max_attempts: 4,
            map_cpu_per_byte: SimDuration::from_micros(1) / 80, // ~80 MB/s
            map_cpu_per_record: SimDuration::from_micros(2),
            reduce_cpu_per_record: SimDuration::from_micros(1),
            task_startup: SimDuration::from_secs(1),
            leaks_memory: false,
            fail_first_attempts: 0,
            user: "student".to_string(),
            pool: "default".to_string(),
            priority: 0,
            compress_map_output: false,
            map_output_codec: hl_codec::CodecId::Hlz,
        }
    }

    /// Add an input path.
    pub fn input(mut self, path: impl Into<String>) -> Self {
        self.input_paths.push(path.into());
        self
    }

    /// Set the output directory.
    pub fn output(mut self, path: impl Into<String>) -> Self {
        self.output_path = path.into();
        self
    }

    /// Set the reduce count.
    pub fn reduces(mut self, n: usize) -> Self {
        self.num_reduces = n.max(1);
        self
    }

    /// Toggle speculative execution.
    pub fn speculative(mut self, on: bool) -> Self {
        self.speculative = on;
        self
    }

    /// Toggle speculative execution of reduces (also gated on the master
    /// `speculative` switch).
    pub fn speculative_reduces(mut self, on: bool) -> Self {
        self.speculative_reduces = on;
        self
    }

    /// Set the per-map-call CPU charge (heavier user code).
    pub fn map_cpu_per_record(mut self, d: SimDuration) -> Self {
        self.map_cpu_per_record = d;
        self
    }

    /// Set the sort buffer size.
    pub fn sort_buffer(mut self, bytes: usize) -> Self {
        self.sort_buffer_bytes = bytes.max(1024);
        self
    }

    /// Mark this job's tasks as heap-leaking (fault injection).
    pub fn leaking(mut self, on: bool) -> Self {
        self.leaks_memory = on;
        self
    }

    /// Make the first `n` attempts of every task fail (fault injection).
    pub fn fail_first_attempts(mut self, n: u32) -> Self {
        self.fail_first_attempts = n;
        self
    }

    /// Set the submitting user.
    pub fn user(mut self, name: impl Into<String>) -> Self {
        self.user = name.into();
        self
    }

    /// Set the scheduler pool / queue.
    pub fn pool(mut self, name: impl Into<String>) -> Self {
        self.pool = name.into();
        self
    }

    /// Set the scheduling priority (larger runs earlier).
    pub fn priority(mut self, p: u32) -> Self {
        self.priority = p;
        self
    }

    /// Toggle map-output compression (spill files and shuffle transfer).
    pub fn compress_map_output(mut self, on: bool) -> Self {
        self.compress_map_output = on;
        self
    }

    /// Validate before submission.
    pub fn validate(&self) -> Result<()> {
        if self.input_paths.is_empty() {
            return Err(HlError::Config(format!("job {}: no input paths", self.name)));
        }
        if self.output_path.is_empty() {
            return Err(HlError::Config(format!("job {}: no output path", self.name)));
        }
        if self.num_reduces == 0 {
            return Err(HlError::Config(format!("job {}: zero reduces", self.name)));
        }
        Ok(())
    }
}

/// Factory closure producing a fresh (stateful) task instance.
pub type Factory<T> = Arc<dyn Fn() -> T + Send + Sync>;

/// A complete typed job: configuration plus mapper/reducer/combiner
/// factories. Factories run once per task (every attempt of a task shares
/// the one run of its user code), possibly on several host threads at
/// once, so task state (in-mapper combining tables, cached side files) is
/// per-task.
pub struct Job<M, R, C>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
    C: Combiner<K = M::KOut, V = M::VOut>,
{
    /// Configuration.
    pub conf: JobConf,
    /// Mapper factory.
    pub mapper: Factory<M>,
    /// Reducer factory.
    pub reducer: Factory<R>,
    /// Optional combiner factory.
    pub combiner: Option<Factory<C>>,
    /// Optional custom partitioner (default: hash of the key bytes).
    pub partitioner: Option<PartitionFn<M::KOut>>,
}

impl<M, R, C> Job<M, R, C>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
    C: Combiner<K = M::KOut, V = M::VOut>,
{
    /// Build a job with a combiner.
    pub fn with_combiner(
        conf: JobConf,
        mapper: impl Fn() -> M + Send + Sync + 'static,
        reducer: impl Fn() -> R + Send + Sync + 'static,
        combiner: impl Fn() -> C + Send + Sync + 'static,
    ) -> Self {
        Job {
            conf,
            mapper: Arc::new(mapper),
            reducer: Arc::new(reducer),
            combiner: Some(Arc::new(combiner)),
            partitioner: None,
        }
    }

    /// Install a custom partitioner (e.g. a range partitioner for
    /// total-order output).
    pub fn partitioned_by(
        mut self,
        f: impl Fn(&M::KOut, &[u8], usize) -> usize + Send + Sync + 'static,
    ) -> Self {
        self.partitioner = Some(Arc::new(f));
        self
    }
}

impl<M, R> Job<M, R, crate::api::NoCombiner<M::KOut, M::VOut>>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
    M::KOut: Send,
    M::VOut: Send,
{
    /// Build a job without a combiner.
    pub fn new(
        conf: JobConf,
        mapper: impl Fn() -> M + Send + Sync + 'static,
        reducer: impl Fn() -> R + Send + Sync + 'static,
    ) -> Self {
        Job {
            conf,
            mapper: Arc::new(mapper),
            reducer: Arc::new(reducer),
            combiner: None,
            partitioner: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let conf = JobConf::new("wordcount")
            .input("/data/shakespeare.txt")
            .output("/out/wc")
            .reduces(4)
            .speculative(false)
            .sort_buffer(1 << 20);
        assert_eq!(conf.name, "wordcount");
        assert_eq!(conf.input_paths, vec!["/data/shakespeare.txt"]);
        assert_eq!(conf.output_path, "/out/wc");
        assert_eq!(conf.num_reduces, 4);
        assert!(!conf.speculative);
        assert_eq!(conf.sort_buffer_bytes, 1 << 20);
        conf.validate().unwrap();
    }

    #[test]
    fn validation_catches_missing_pieces() {
        assert!(JobConf::new("x").output("/o").validate().is_err());
        assert!(JobConf::new("x").input("/i").validate().is_err());
        assert!(JobConf::new("x").input("/i").output("/o").validate().is_ok());
    }

    #[test]
    fn reduces_clamps_to_one() {
        assert_eq!(JobConf::new("x").reduces(0).num_reduces, 1);
    }

    #[test]
    fn tenant_identity_builders() {
        let conf = JobConf::new("t").user("alice").pool("research").priority(2);
        assert_eq!(conf.user, "alice");
        assert_eq!(conf.pool, "research");
        assert_eq!(conf.priority, 2);
        let d = JobConf::new("d");
        assert_eq!((d.user.as_str(), d.pool.as_str(), d.priority), ("student", "default", 0));
    }

    #[test]
    fn defaults_are_hadoop_flavored() {
        let conf = JobConf::new("d");
        assert_eq!(conf.max_attempts, 4);
        assert!(conf.speculative);
        assert_eq!(conf.task_startup, SimDuration::from_secs(1));
        assert_eq!(conf.sort_buffer_bytes, 100 * 1024 * 1024);
    }
}
