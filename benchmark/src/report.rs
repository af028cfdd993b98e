//! What one run of one workload produced, and its two encodings: the
//! one-line object the acceptance driver reads from the last line of
//! stdout, and the full result (samples, quartiles, iteration counts) that
//! `--out` writes and `compare` reads.

use crate::defs::{self, Clock};
use crate::json::Value;
use crate::stats;

/// One reported number with the samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from `defs`.
    pub name: &'static str,
    /// The reported value: the median for host timings, the exact count or
    /// simulated time for everything else.
    pub value: f64,
    /// Per-iteration samples (one entry for exact metrics).
    pub samples: Vec<f64>,
    /// The same samples before speed normalisation; empty for metrics that
    /// are not normalised host timings.
    pub raw_samples: Vec<f64>,
}

impl Metric {
    /// A metric with a single exact sample.
    pub fn exact(name: &'static str, value: f64) -> Self {
        Metric { name, value, samples: vec![value], raw_samples: Vec::new() }
    }

    /// A metric whose value is the median of `samples`.
    pub fn median_of(name: &'static str, samples: Vec<f64>) -> Self {
        Metric { name, value: stats::median(&samples), samples, raw_samples: Vec::new() }
    }
}

/// Pass/fail tally of the correctness checks a run made. Every workload
/// checks its outputs on every iteration; the tally is `fail_share`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checks {
    /// Checks attempted.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
}

impl Checks {
    /// Record one check; a failure is described on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// The result of one run (one workload, one seed, traced or not).
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// Generator seed.
    pub seed: u64,
    /// Timed budget, seconds.
    pub seconds: f64,
    /// Whether spans were recorded (per-layer metrics) or not (end-to-end).
    pub traced: bool,
    /// Correctness tally.
    pub checks: Checks,
    /// Warm-up iterations run (sim metrics are read from these).
    pub warmup_iterations: u32,
    /// Timed iterations run.
    pub timed_iterations: u32,
    /// What `host_work_per_s` counts on this workload.
    pub work_unit: &'static str,
    /// Work units per timed iteration.
    pub work_per_iteration: f64,
    /// Seconds the reference kernel took around each set-up and iteration:
    /// how fast the machine was while this run was measured.
    pub kernel_s: Vec<f64>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.failed == 0
    }

    /// `failed ÷ attempted`: the sixth end-to-end number, carried by the
    /// driver line's own `failed`/`attempted` fields because a metric that
    /// is expected to be 0 cannot have a relative bound.
    pub fn fail_share(&self) -> f64 {
        self.checks.failed as f64 / self.checks.attempted.max(1) as f64
    }

    /// The object printed as the last line of stdout.
    pub fn driver_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            let unit = defs::unit_of(m.name).unwrap_or("");
            (
                m.name,
                Value::obj([("value", Value::Num(m.value)), ("unit", Value::Str(unit.into()))]),
            )
        });
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.checks.attempted.max(1) as f64)),
            ("failed", Value::Num(self.checks.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
        .to_line()
    }

    /// The full result object.
    pub fn to_json(&self) -> Value {
        let metrics = self.metrics.iter().map(|m| {
            let (q1, q3) = stats::quartiles(&m.samples);
            let clock = match defs::end_to_end(m.name).map(|d| d.clock) {
                Some(Clock::Host) => "host",
                Some(Clock::Sim) => "sim",
                None => "layer",
            };
            let mut members = vec![
                ("value", Value::Num(m.value)),
                ("unit", Value::Str(defs::unit_of(m.name).unwrap_or("").into())),
                ("clock", Value::Str(clock.into())),
                ("q1", Value::Num(q1)),
                ("q3", Value::Num(q3)),
                ("samples", Value::nums(&m.samples)),
            ];
            if !m.raw_samples.is_empty() {
                members.push(("raw_value", Value::Num(stats::median(&m.raw_samples))));
                members.push(("raw_samples", Value::nums(&m.raw_samples)));
            }
            (m.name, Value::obj(members))
        });
        Value::obj([
            ("workload", Value::Str(self.workload.into())),
            ("seed", Value::Num(self.seed as f64)),
            ("seconds", Value::Num(self.seconds)),
            ("traced", Value::Bool(self.traced)),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.checks.attempted as f64)),
            ("failed", Value::Num(self.checks.failed as f64)),
            ("fail_share", Value::Num(self.fail_share())),
            (
                "iterations",
                Value::obj([
                    ("warmup", Value::Num(f64::from(self.warmup_iterations))),
                    ("timed", Value::Num(f64::from(self.timed_iterations))),
                ]),
            ),
            ("work_unit", Value::Str(self.work_unit.into())),
            ("work_per_iteration", Value::Num(self.work_per_iteration)),
            (
                "calibration",
                Value::obj([
                    ("reference_kernel_s", Value::Num(crate::calibrate::REFERENCE_KERNEL_S)),
                    ("kernel_s_median", Value::Num(stats::median(&self.kernel_s))),
                    ("kernel_s", Value::nums(&self.kernel_s)),
                ]),
            ),
            ("metrics", Value::obj(metrics)),
        ])
    }

    /// Human-readable listing: every metric by name with its unit.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} seed={} {} ({} warm-up + {} timed iterations, work unit: {})\n",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.warmup_iterations,
            self.timed_iterations,
            self.work_unit,
        );
        for m in &self.metrics {
            let unit = defs::unit_of(m.name).unwrap_or("");
            let mut spread = String::new();
            if m.samples.len() > 1 {
                spread = format!(
                    "  (n={}, spread {:.1}%",
                    m.samples.len(),
                    stats::spread(&m.samples) * 100.0
                );
                if !m.raw_samples.is_empty() {
                    spread.push_str(&format!("; raw {:.4}", stats::median(&m.raw_samples)));
                }
                spread.push(')');
            }
            out.push_str(&format!("  {:<44} {:>16.4} {unit}{spread}\n", m.name, m.value));
        }
        out.push_str(&format!(
            "  reference kernel: median {:.1} ms here, {:.1} ms on the reference machine\n",
            stats::median(&self.kernel_s) * 1e3,
            crate::calibrate::REFERENCE_KERNEL_S * 1e3
        ));
        out.push_str(&format!(
            "  {:<44} {:>16.4} ratio  ({} of {} checks failed)\n",
            "fail_share",
            self.fail_share(),
            self.checks.failed,
            self.checks.attempted
        ));
        out
    }
}
